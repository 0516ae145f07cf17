//! The cluster driver: one step loop, two hosts for the shards it steps.
//!
//! [`ClusterSimulation`] generalizes the single-pair `incshrink::Simulation` to
//! `S` server pairs: the workload is hash-partitioned by join key
//! ([`crate::router`]), every shard runs its own complete Transform-and-Shrink
//! pipeline (`incshrink::ShardPipeline`) with an **ε/S privacy budget**
//! ([`crate::sharded::ClusterPrivacy`]), and the analyst's counting query is
//! scatter-gathered across the shard views ([`crate::executor`]). Set-up, the
//! step loop, query accounting, the migration schedule and report assembly are
//! written once (`ClusterSimulation::drive`); the driver reaches its shards
//! only through the private `ShardHost` requests — *step `t`* (its query
//! included), *export / import a partition*, *finish* — which have exactly two
//! implementations, selected by type name:
//!
//! * [`ShardedSimulation`] hosts the shards **inline**: a `Vec` of pipelines
//!   stepped one after the other on the calling thread. It *models* cluster
//!   parallelism (per-step time is the slowest shard's, from the cost model)
//!   and is the reference every determinism test compares against.
//! * [`ParallelShardedSimulation`] hosts them on **threads** and *executes*
//!   the parallelism: every pipeline runs on its own OS thread behind a
//!   command/response channel, and an upload **broker** thread accepts the
//!   owner streams, batches them per step, and routes/shuffles the resulting
//!   `StepUploads` to the shard threads, running ahead of the driver.
//!
//! ```text
//!             driver (this thread)
//!      ┌── Run{from} ──▶ broker thread ── StepUploads (+ query) ──▶ shard thread 0..S-1
//!      │                  │  owner streams → per-step      │  ShardPipeline
//!      │                  │  batches → shuffle route       │  Transform+Shrink,
//!      ◀── Routed{moves} ─┘  (span broker.route)           │  then the step's query
//!      ◀───────────── step replies, query partials inside ─┘  (span runtime.step)
//! ```
//!
//! Both hosts run the same per-command handlers (`Shard`) and the same
//! shuffle phase (`ShuffleState::route`); the inline host calls them
//! directly where the threaded one sends a message.
//!
//! # The replay contract
//!
//! The threaded host replays the inline one **bit for bit** — same analyst
//! answers, same view share words (checked by fingerprint), same ε-ledger,
//! same padded sizes — at every shard count, on both workloads, co-partitioned
//! and shuffled. Three mechanisms make that work:
//!
//! * **Same randomness topology.** Each shard owns its pipeline (and its rngs)
//!   wholesale; the broker owns the arrival rngs and the shuffler. No rng is
//!   ever shared across threads, so no schedule can reorder draws.
//! * **Run ahead between elastic moves; queries ride the step.** The broker
//!   routes step after step until one plans bucket moves, which the driver
//!   migrates before resuming it — between those points shard states are
//!   disjoint, so how far a thread runs ahead is invisible. Every
//!   `query_interval`-th step carries the query, answered right after the
//!   step. Shard queues are bounded (`RUN_AHEAD`); replies are not, and the
//!   driver sends shard commands only while the broker is paused.
//! * **Deterministic aggregation order.** The driver collects replies and
//!   query partials indexed by shard, so sums, maxima and the secure-add merge
//!   see them in shard order no matter which thread finished first.
//!
//! Telemetry collectors installed on the driver thread are handed to every
//! worker (`incshrink_telemetry::current_collectors`), so the ε-ledger and
//! server-observable trace land in the same sinks as an inline run. Events
//! from different `(step, shard)` coordinates may interleave differently under
//! different schedules; `incshrink_telemetry::audit::canonical_observable_trace`
//! recovers the schedule-independent order the equivalence tests compare.
//! `runtime.step` spans are stamped with the shard identity; *measured*
//! wall-clock lives in those spans and in [`RuntimeStats`], while simulated
//! QET keeps coming from the cost model — the two may disagree (host
//! scheduling, cache effects), the traces may not.
//!
//! # Failure semantics
//!
//! A worker thread that panics mid-step drops its channel endpoints; the
//! driver notices the closed channel, tears the whole actor system down
//! (drops every command sender so no thread can block forever), joins every
//! thread, and re-raises the original panic payload via
//! `std::panic::resume_unwind` — never a hang on a dead channel.
//!
//! Party-level failures take the same road: when a shard runs its server pair
//! in [`PartyMode::Actor`]/[`PartyMode::Tcp`] and a party thread dies (its
//! channel reports `ChannelError::Disconnected`, or the TCP peer drops with
//! `UnexpectedEof`), the shard's next protocol round panics with
//! [`incshrink_mpc::PARTY_CRASH_MESSAGE`] inside the shard thread, which then
//! propagates through the exact teardown above.
//! [`ParallelShardedSimulation::with_injected_party_crash`] exercises that
//! path at a chosen step.

use crate::elastic::{
    group_moves, BucketMove, ElasticConfig, ElasticReport, ElasticRouting, ViewMigrator,
};
use crate::executor::ScatterGatherExecutor;
use crate::router::ShardRouter;
use crate::sharded::{
    assert_elastic_viable, assert_routable, build_pipelines, shard_config, ClusterPrivacy,
    ClusterRunReport, ShardReport, SHARD_SEED_STRIDE,
};
use crate::shuffle::{ClusterShuffler, RoutingPolicy, ShuffleStats};
use incshrink::framework::StepUploads;
use incshrink::metrics::{ShardStep, SummaryBuilder};
use incshrink::query::{Query, QueryOutcome};
use incshrink::{IncShrinkConfig, MigratedPartition, ShardPipeline};
use incshrink_mpc::cost::CostModel;
use incshrink_mpc::PartyMode;
use incshrink_storage::{Relation, UploadBatch};
use incshrink_telemetry::Collector;
use incshrink_workload::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// How many commands a shard thread's queue holds before the broker blocks on
/// it — how many steps the broker may run ahead of that shard. On the
/// `cluster_elastic_s2` benchmark (2 cores) bounds 1, 2 and 4 raised uploads/s
/// ×1.39, ×1.43 and ×1.44 over lock step, each beating the smaller one.
const RUN_AHEAD: usize = 4;

/// What the hosts run: the horizon, and the analyst's standing query, which
/// rides every `query_interval`-th step.
#[derive(Clone)]
struct Schedule {
    steps: u64,
    query: Query,
    query_interval: u64,
}

impl Schedule {
    /// The query step `t` carries, if any.
    fn query_at(&self, t: u64) -> Option<&Query> {
        (t % self.query_interval == 0).then_some(&self.query)
    }
}

/// One shard pipeline and its index: the per-command handlers both hosts run —
/// the inline host by calling them, a shard thread from its message loop.
struct Shard {
    index: usize,
    pipeline: ShardPipeline,
}

/// End-of-run statistics of one shard.
struct ShardFinal {
    report: ShardReport,
    host_transform_secs: f64,
}

/// A shard's answer to its step's query, with the host seconds it took.
struct Partial {
    outcome: QueryOutcome,
    eval_secs: f64,
}

impl Shard {
    /// Run upload epoch `t`: from the pipeline's own workload (co-partitioned,
    /// `uploads = None`) or over shuffle-routed uploads; then answer `query`,
    /// if any — a view scan, or the NM baseline's per-shard join. The
    /// `runtime.step` span carries the measured wall-clock of this shard's
    /// step, stamped with the shard identity.
    fn step_and_query(
        &mut self,
        t: u64,
        uploads: Option<StepUploads>,
        query: Option<&Query>,
    ) -> (ShardStep, Option<Partial>) {
        let _shard_scope = incshrink_telemetry::shard_scope(self.index as u64);
        let span = incshrink_telemetry::span!("runtime.step", step = t, shard = self.index as u64);
        let outcome = match uploads {
            None => self.pipeline.advance(t),
            Some(uploads) => self.pipeline.advance_with_uploads(t, uploads),
        };
        let step = ShardStep::observe(&self.pipeline, t, outcome);
        drop(span);
        let partial = query.map(|query| {
            let started = Instant::now();
            let outcome = self.pipeline.answer_query(query, t);
            Partial {
                outcome,
                eval_secs: started.elapsed().as_secs_f64(),
            }
        });
        (step, partial)
    }

    /// Elastic migration: extract the listed virtual buckets' state, plus the
    /// (public, padded) view length the extraction scanned for the driver-side
    /// cost accounting.
    fn export(&mut self, buckets: &[usize]) -> (MigratedPartition, usize) {
        let view_len = self.pipeline.view().len();
        (self.pipeline.export_partition(buckets), view_len)
    }

    fn finish(&self) -> ShardFinal {
        let view = self.pipeline.view();
        ShardFinal {
            report: ShardReport {
                shard: self.index,
                sync_count: view.sync_count(),
                view_len: view.len(),
                view_real: view.true_cardinality(),
                cache_len: self.pipeline.cache_len(),
                truncation_losses: self.pipeline.truncation_losses(),
                mpc_secs: self.pipeline.elapsed().as_secs_f64(),
                view_fingerprint: view.fingerprint(),
            },
            host_transform_secs: self.pipeline.host_transform_secs(),
        }
    }
}

/// The shuffle phase's owner-stream state under [`RoutingPolicy::Shuffled`]:
/// per-arrival-shard workload slices and upload rngs, plus the shuffler (and the
/// elastic control plane it drives). Owned by the driver thread on the inline
/// host and by the broker thread on the threaded one.
struct ShuffleState {
    arrival_parts: Vec<Dataset>,
    arrival_rngs: Vec<StdRng>,
    shuffler: ClusterShuffler,
    /// `(join-key column, per-shard ingest size)` of the left relation.
    left: (usize, usize),
    /// The same for the right relation; `None` when it is public (no uploads).
    right: Option<(usize, usize)>,
    /// When set, owner streams are consumed in randomly sized chunks before
    /// each per-step batch is sealed — the soak test's proof that broker batch
    /// boundaries cannot affect the trajectory.
    chunk_rng: Option<StdRng>,
    /// Host seconds spent in [`Self::route`] (`Summary::host_shuffle_secs`).
    host_secs: f64,
}

/// End-of-run statistics of the shuffle phase (all-default when co-partitioned).
#[derive(Default)]
struct ShuffleFinal {
    stats: ShuffleStats,
    host_shuffle_secs: f64,
    elastic: Option<ElasticReport>,
}

impl ShuffleState {
    /// Build one arrival shard's padded batch for `relation` at step `t`,
    /// staging the owner stream chunk by chunk when a chunk rng is installed.
    /// The sealed batch is bit-identical either way: chunking only segments the
    /// iteration over the arrivals, never their order or the rng draw sequence.
    fn seal_batch(
        part: &Dataset,
        relation: Relation,
        t: u64,
        rng: &mut StdRng,
        chunk_rng: &mut Option<StdRng>,
    ) -> UploadBatch {
        let (db, size) = match relation {
            Relation::Left => (&part.left, part.left_batch_size),
            Relation::Right => (&part.right, part.right_batch_size),
        };
        let arrivals = db.arrivals_at(t);
        let mut staged = Vec::with_capacity(arrivals.len());
        let mut rest = arrivals.as_slice();
        while !rest.is_empty() {
            let take = match chunk_rng {
                Some(chunk_rng) => chunk_rng.gen_range(1..=rest.len()),
                None => rest.len(),
            };
            let (chunk, tail) = rest.split_at(take);
            staged.extend_from_slice(chunk);
            rest = tail;
        }
        UploadBatch::from_updates(relation, t, &staged, db.schema.arity(), size, rng)
    }

    /// Batch every arrival shard's step-`t` stream for `relation` and shuffle-
    /// route the batches to their join-key owners.
    fn route_relation(
        &mut self,
        t: u64,
        relation: Relation,
        (key_column, ingest): (usize, usize),
    ) -> Vec<UploadBatch> {
        let batches: Vec<UploadBatch> = self
            .arrival_parts
            .iter()
            .zip(self.arrival_rngs.iter_mut())
            .map(|(part, rng)| Self::seal_batch(part, relation, t, rng, &mut self.chunk_rng))
            .collect();
        let (routed, _) = self
            .shuffler
            .route_step(t, relation, key_column, &batches, ingest);
        routed
    }

    /// The shuffle phase of step `t`: seal and route both relations, then close
    /// the elastic control step — window releases, cut refreshes and any
    /// planned moves happen there, after every relation is routed, with the
    /// assignment switch taking effect for step `t+1`'s routing. Returns every
    /// shard's uploads in shard order plus the planned moves, whose *state*
    /// transfer the driver executes at the end of the step.
    fn route(&mut self, t: u64) -> (impl Iterator<Item = StepUploads>, Vec<BucketMove>) {
        let started = Instant::now();
        let left_routed = self.route_relation(t, Relation::Left, self.left);
        let right_routed = self
            .right
            .map(|right| self.route_relation(t, Relation::Right, right));
        let moves = self.shuffler.finish_step(t);
        self.host_secs += started.elapsed().as_secs_f64();
        let mut rights = right_routed.map(Vec::into_iter);
        let uploads = left_routed.into_iter().map(move |left| StepUploads {
            left,
            right: rights
                .as_mut()
                .map(|it| it.next().expect("one routed right batch per shard")),
        });
        (uploads, moves)
    }

    /// End-of-run statistics; all-default for a co-partitioned run, which has
    /// no shuffle state.
    fn finish(state: Option<&Self>) -> ShuffleFinal {
        state.map_or_else(ShuffleFinal::default, |s| ShuffleFinal {
            stats: s.shuffler.stats(),
            host_shuffle_secs: s.host_secs,
            elastic: s.shuffler.elastic_report(),
        })
    }
}

/// A worker thread of the host died; the driver must retire it ([`lost`]).
struct WorkerLost;

type Hosted<T> = Result<T, WorkerLost>;

/// One shard's reply to a step: its report, and its partial when the step
/// carried the query.
type Replied = (ShardStep, Option<Partial>);

/// Everything the cluster driver asks of whatever hosts its shards. Replies
/// are always in shard order.
trait ShardHost: Sized {
    /// Run upload epoch `t` on every shard (shuffle phase included), each
    /// answering the query the [`Schedule`] puts on `t`; returns the replies
    /// and the bucket moves the elastic control plane planned.
    fn step(&mut self, t: u64) -> Hosted<(Vec<Replied>, Vec<BucketMove>)>;
    /// Extract `buckets` from shard `shard` ([`Shard::export`]).
    fn export_partition(
        &mut self,
        shard: usize,
        buckets: Vec<usize>,
    ) -> Hosted<(MigratedPartition, usize)>;
    /// Have shard `shard` adopt a (DP-padded) partition, re-sharing everything
    /// with randomness seeded by the driver's migrator.
    fn import_partition(
        &mut self,
        shard: usize,
        partition: MigratedPartition,
        import_seed: u64,
    ) -> Hosted<()>;
    /// End-of-run statistics of every shard and of the shuffle phase.
    fn finals(&mut self) -> Hosted<(Vec<ShardFinal>, ShuffleFinal)>;
    /// Retire the host: join its worker threads — re-raising the first worker
    /// panic, if any — and return how many were joined.
    fn retire(self) -> usize;
}

/// A worker died mid-run: retiring the host re-raises the worker's panic — or
/// fail loudly if it exited without one.
fn lost(host: impl ShardHost) -> ! {
    let _ = host.retire();
    panic!("cluster worker exited unexpectedly mid-run");
}

/// The inline host: every shard stepped in turn on the driver's thread.
struct InlineHost {
    shards: Vec<Shard>,
    shuffle: Option<ShuffleState>,
    schedule: Schedule,
}

impl ShardHost for InlineHost {
    fn step(&mut self, t: u64) -> Hosted<(Vec<Replied>, Vec<BucketMove>)> {
        let query = self.schedule.query_at(t);
        let shards = self.shards.iter_mut();
        Ok(match &mut self.shuffle {
            None => (
                shards.map(|s| s.step_and_query(t, None, query)).collect(),
                Vec::new(),
            ),
            Some(state) => {
                let (uploads, moves) = state.route(t);
                let replies = shards.zip(uploads);
                let replies = replies.map(|(s, u)| s.step_and_query(t, Some(u), query));
                (replies.collect(), moves)
            }
        })
    }

    fn export_partition(
        &mut self,
        shard: usize,
        buckets: Vec<usize>,
    ) -> Hosted<(MigratedPartition, usize)> {
        Ok(self.shards[shard].export(&buckets))
    }

    fn import_partition(
        &mut self,
        shard: usize,
        partition: MigratedPartition,
        import_seed: u64,
    ) -> Hosted<()> {
        self.shards[shard]
            .pipeline
            .import_partition(partition, import_seed);
        Ok(())
    }

    fn finals(&mut self) -> Hosted<(Vec<ShardFinal>, ShuffleFinal)> {
        Ok((
            self.shards.iter().map(Shard::finish).collect(),
            ShuffleState::finish(self.shuffle.as_ref()),
        ))
    }

    fn retire(self) -> usize {
        0
    }
}

/// Commands the broker (steps, crash hooks) and the driver (the rest, only
/// while the broker is paused) send to a shard thread.
enum ShardCommand {
    /// [`Shard::step_and_query`]: from the pipeline's own workload
    /// (co-partitioned, `uploads = None`) or over broker-routed uploads.
    Advance {
        t: u64,
        uploads: Option<Box<StepUploads>>,
        query: Option<Query>,
    },
    /// [`Shard::export`].
    ExportPartition { buckets: Vec<usize> },
    /// `ShardPipeline::import_partition`.
    ImportPartition {
        partition: Box<MigratedPartition>,
        import_seed: u64,
    },
    /// Test hook: panic inside the shard thread (teardown regression tests).
    Crash { message: String },
    /// Test hook: kill one of this shard's MPC party executors mid-run. Under
    /// [`PartyMode::Actor`]/[`PartyMode::Tcp`] a party thread exits and the
    /// next protocol round panics with `incshrink_mpc::PARTY_CRASH_MESSAGE`;
    /// in-process mode panics immediately. Either way the panic rides the same
    /// teardown/propagation path as a shard-thread panic.
    PartyCrash,
    /// Report [`Shard::finish`] and exit the thread.
    Finish,
}

enum ShardReply {
    /// The partial is boxed: it would triple the size of every reply.
    Step(ShardStep, Option<Box<Partial>>),
    Partition {
        partition: Box<MigratedPartition>,
        view_len: usize,
    },
    /// Acknowledges an [`ShardCommand::ImportPartition`].
    Imported,
    Final(Box<ShardFinal>),
}

/// One shard running as an actor on its own OS thread.
struct ShardActor {
    commands: SyncSender<ShardCommand>,
    replies: Receiver<ShardReply>,
    handle: JoinHandle<()>,
}

impl ShardActor {
    fn spawn(shard: Shard, collectors: Vec<Arc<dyn Collector>>) -> Self {
        let (commands, command_rx) = sync_channel::<ShardCommand>(RUN_AHEAD);
        let (reply_tx, replies) = channel::<ShardReply>();
        let handle = std::thread::Builder::new()
            .name(format!("incshrink-shard-{}", shard.index))
            .spawn(move || shard_main(shard, collectors, &command_rx, &reply_tx))
            .expect("spawn shard thread");
        Self {
            commands,
            replies,
            handle,
        }
    }

    fn send(&self, command: ShardCommand) -> Hosted<()> {
        self.commands.send(command).map_err(|_| WorkerLost)
    }

    fn recv(&self) -> Hosted<ShardReply> {
        self.replies.recv().map_err(|_| WorkerLost)
    }
}

/// The shard thread's message loop. Exits when told to [`ShardCommand::Finish`]
/// or when every command sender is gone.
fn shard_main(
    mut shard: Shard,
    collectors: Vec<Arc<dyn Collector>>,
    commands: &Receiver<ShardCommand>,
    replies: &Sender<ShardReply>,
) {
    // Re-install the driver's collectors for this thread's lifetime: the
    // telemetry stack is thread-local, and the ε-ledger entries and observable
    // sizes this shard emits belong in the same trace as the driver's.
    let _guards: Vec<_> = collectors
        .into_iter()
        .map(incshrink_telemetry::install)
        .collect();
    while let Ok(command) = commands.recv() {
        let reply = match command {
            ShardCommand::Advance { t, uploads, query } => {
                let (step, partial) = shard.step_and_query(t, uploads.map(|u| *u), query.as_ref());
                ShardReply::Step(step, partial.map(Box::new))
            }
            ShardCommand::ExportPartition { buckets } => {
                let (partition, view_len) = shard.export(&buckets);
                ShardReply::Partition {
                    partition: Box::new(partition),
                    view_len,
                }
            }
            ShardCommand::ImportPartition {
                partition,
                import_seed,
            } => {
                shard.pipeline.import_partition(*partition, import_seed);
                ShardReply::Imported
            }
            ShardCommand::Crash { message } => panic!("{message}"),
            ShardCommand::PartyCrash => {
                shard.pipeline.inject_party_crash();
                continue; // Actor/Tcp: the *next* protocol round panics.
            }
            ShardCommand::Finish => {
                let _ = replies.send(ShardReply::Final(Box::new(shard.finish())));
                return;
            }
        };
        if replies.send(reply).is_err() {
            return; // Driver is gone; exit cleanly.
        }
    }
}

/// Commands the driver sends to the broker thread.
enum BrokerCommand {
    /// Route and dispatch step after step from `from`, acking each; pause
    /// after a step that planned bucket moves, or at the horizon.
    Run { from: u64 },
    /// Report the shuffle phase's [`ShuffleFinal`] and exit the thread.
    Finish,
}

enum BrokerReply {
    /// All of the step's uploads were dispatched to the shard threads, plus
    /// any bucket moves the elastic control plane planned when closing the
    /// step.
    Routed { moves: Vec<BucketMove> },
    /// Boxed: the cumulative stats payload dwarfs the per-step `Routed` reply.
    Final(Box<ShuffleFinal>),
}

/// The broker thread's message loop: accept owner streams, batch per step,
/// route to shard threads — running ahead of the driver until a step plans
/// bucket moves. Exits on [`BrokerCommand::Finish`], a closed command channel,
/// or a dead shard (whose teardown the driver then drives).
fn broker_main(
    mut shuffle: Option<ShuffleState>,
    (schedule, hooks): (Schedule, Threads),
    shard_commands: &[SyncSender<ShardCommand>],
    collectors: Vec<Arc<dyn Collector>>,
    commands: &Receiver<BrokerCommand>,
    replies: &Sender<BrokerReply>,
) {
    let _guards: Vec<_> = collectors
        .into_iter()
        .map(incshrink_telemetry::install)
        .collect();
    while let Ok(command) = commands.recv() {
        let BrokerCommand::Run { from } = command else {
            let done = ShuffleState::finish(shuffle.as_ref());
            let _ = replies.send(BrokerReply::Final(Box::new(done)));
            return;
        };
        for t in from..=schedule.steps {
            // Test hooks ride the same queue as the step, so the shard (or its
            // party) dies just before it starts step `t`.
            if let Some((shard, _)) = hooks.injected_crash.filter(|&(_, at)| at == t) {
                let message = format!("injected crash on shard {shard} at step {t}");
                let _ = shard_commands[shard].send(ShardCommand::Crash { message });
            }
            if let Some((shard, _)) = hooks.injected_party_crash.filter(|&(_, at)| at == t) {
                let _ = shard_commands[shard].send(ShardCommand::PartyCrash);
            }
            // Co-partitioned: every pipeline owns its arrival shard's workload
            // and builds its own uploads — the broker just releases the step.
            let span = incshrink_telemetry::span!("broker.route", step = t);
            let (mut uploads, moves) = shuffle.as_mut().map_or((None, Vec::new()), |state| {
                let (uploads, moves) = state.route(t);
                (Some(uploads), moves)
            });
            drop(span);
            let dispatched = shard_commands.iter().all(|tx| {
                let uploads = uploads.as_mut().and_then(Iterator::next).map(Box::new);
                let query = schedule.query_at(t).cloned();
                tx.send(ShardCommand::Advance { t, uploads, query }).is_ok()
            });
            // A dead shard (panicked thread) or a gone driver both mean the run
            // is over; exit so the driver's teardown can join us. Moves pause
            // the run until the driver has migrated them.
            let pause = !moves.is_empty();
            if !dispatched || replies.send(BrokerReply::Routed { moves }).is_err() {
                return;
            }
            if pause {
                break;
            }
        }
    }
}

/// The threaded host — the live actor system: shard threads plus the broker
/// thread, owned by the driver.
struct ThreadHost {
    actors: Vec<ShardActor>,
    broker_commands: Sender<BrokerCommand>,
    broker_replies: Receiver<BrokerReply>,
    broker_handle: JoinHandle<()>,
    /// Whether the broker waits for a `Run`: before the first step and after
    /// every step that planned moves.
    broker_paused: bool,
}

impl ThreadHost {
    fn spawn(shards: Vec<Shard>, shuffle: Option<ShuffleState>, plan: (Schedule, Threads)) -> Self {
        let collectors = incshrink_telemetry::current_collectors();
        let actors: Vec<ShardActor> = shards
            .into_iter()
            .map(|shard| ShardActor::spawn(shard, collectors.clone()))
            .collect();
        let shard_senders: Vec<SyncSender<ShardCommand>> =
            actors.iter().map(|a| a.commands.clone()).collect();
        let (broker_commands, broker_command_rx) = channel::<BrokerCommand>();
        let (broker_reply_tx, broker_replies) = channel::<BrokerReply>();
        let broker_handle = std::thread::Builder::new()
            .name("incshrink-broker".to_string())
            .spawn(move || {
                broker_main(
                    shuffle,
                    plan,
                    &shard_senders,
                    collectors,
                    &broker_command_rx,
                    &broker_reply_tx,
                );
            })
            .expect("spawn broker thread");
        Self {
            actors,
            broker_commands,
            broker_replies,
            broker_handle,
            broker_paused: true,
        }
    }

    /// One reply per shard thread, in shard order, so every aggregate the
    /// driver computes is order-deterministic.
    fn gather<T>(&self, expect: impl Fn(ShardReply) -> Option<T>) -> Hosted<Vec<T>> {
        let reply = |actor: &ShardActor| {
            let reply = expect(actor.recv()?);
            Ok(reply.expect("protocol desync: unexpected shard reply"))
        };
        self.actors.iter().map(reply).collect()
    }
}

impl ShardHost for ThreadHost {
    fn step(&mut self, t: u64) -> Hosted<(Vec<Replied>, Vec<BucketMove>)> {
        if self.broker_paused {
            self.broker_commands
                .send(BrokerCommand::Run { from: t })
                .map_err(|_| WorkerLost)?;
        }
        // Wait for the broker's ack of step `t` before reading shard replies:
        // a broker that died mid-dispatch must be detected here, not by
        // blocking on a shard that never got work.
        let moves = match self.broker_replies.recv().map_err(|_| WorkerLost)? {
            BrokerReply::Routed { moves } => moves,
            BrokerReply::Final(_) => panic!("protocol desync: expected Routed broker reply"),
        };
        // The broker stops after a step that planned moves, so the driver's
        // migrations reach every shard's queue before step `t+1` does.
        self.broker_paused = !moves.is_empty();
        let replies = self.gather(|reply| match reply {
            ShardReply::Step(step, partial) => Some((step, partial.map(|p| *p))),
            _ => None,
        })?;
        Ok((replies, moves))
    }

    fn export_partition(
        &mut self,
        shard: usize,
        buckets: Vec<usize>,
    ) -> Hosted<(MigratedPartition, usize)> {
        self.actors[shard].send(ShardCommand::ExportPartition { buckets })?;
        match self.actors[shard].recv()? {
            ShardReply::Partition {
                partition,
                view_len,
            } => Ok((*partition, view_len)),
            _ => panic!("protocol desync: expected Partition reply"),
        }
    }

    fn import_partition(
        &mut self,
        shard: usize,
        partition: MigratedPartition,
        import_seed: u64,
    ) -> Hosted<()> {
        self.actors[shard].send(ShardCommand::ImportPartition {
            partition: Box::new(partition),
            import_seed,
        })?;
        match self.actors[shard].recv()? {
            ShardReply::Imported => Ok(()),
            _ => panic!("protocol desync: expected Imported reply"),
        }
    }

    fn finals(&mut self) -> Hosted<(Vec<ShardFinal>, ShuffleFinal)> {
        self.broker_commands
            .send(BrokerCommand::Finish)
            .map_err(|_| WorkerLost)?;
        let shuffle = match self.broker_replies.recv().map_err(|_| WorkerLost)? {
            BrokerReply::Final(done) => *done,
            BrokerReply::Routed { .. } => panic!("protocol desync: expected Final broker reply"),
        };
        for actor in &self.actors {
            actor.send(ShardCommand::Finish)?;
        }
        let shards = self.gather(|reply| match reply {
            ShardReply::Final(done) => Some(*done),
            _ => None,
        })?;
        Ok((shards, shuffle))
    }

    /// Drop every command sender — which is what lets every worker's `recv`
    /// loop exit, so this can never deadlock — then join every worker thread.
    fn retire(self) -> usize {
        drop(self.broker_commands);
        drop(self.broker_replies);
        let mut handles = Vec::with_capacity(self.actors.len() + 1);
        for actor in self.actors {
            drop(actor.commands); // Unblock the shard's recv loop first...
            handles.push(actor.handle); // ...then join below.
        }
        handles.push(self.broker_handle);
        let mut joined = 0usize;
        let mut panic_payload = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic_payload.get_or_insert(payload);
            }
            joined += 1;
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
        joined
    }
}

/// Measured (host) timing of one cluster run — the counterpart of the
/// *modeled* QET/Transform/Shrink timings inside the [`ClusterRunReport`].
#[derive(Debug, Clone)]
pub struct RuntimeStats {
    /// Number of shard threads.
    pub shards: usize,
    /// Worker threads joined at the end of the run (`shards + 1` broker) — the
    /// soak test's no-leak witness.
    pub threads_joined: usize,
    /// Measured wall-clock per step: the interval between consecutive step
    /// completions at the driver (replies merged, migrations done), so the
    /// intervals sum to the loop's wall time up to the last step.
    pub step_wall_secs: Vec<f64>,
    /// Measured wall-clock of the whole run loop, from the first step to the
    /// last worker thread joined.
    pub total_wall_secs: f64,
}

/// Result of one threaded cluster run: the simulated trajectory (identical to
/// the inline host's, by contract) plus measured runtime statistics.
#[derive(Debug, Clone)]
pub struct ParallelRunReport {
    /// The simulated cluster trajectory — compares equal to the
    /// [`ShardedSimulation`] run of the same configuration.
    pub report: ClusterRunReport,
    /// Measured wall-clock of the threaded execution.
    pub runtime: RuntimeStats,
}

/// Host selector of [`ShardedSimulation`]: shards stepped inline on the
/// calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inline;

/// Host selector of [`ParallelShardedSimulation`]: one OS thread per shard
/// plus the upload broker. Carries the threads-only test hooks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Threads {
    ingest_chunk_seed: Option<u64>,
    injected_crash: Option<(usize, u64)>,
    injected_party_crash: Option<(usize, u64)>,
}

/// The sharded cluster simulation: `S` hash-partitioned shard pipelines
/// stepped together with a scatter-gather query executor on top, optionally
/// behind a shuffle phase re-routing non-co-partitioned arrivals to their
/// join-key owners. `H` selects what hosts the shards; use it through the
/// [`ShardedSimulation`] and [`ParallelShardedSimulation`] aliases.
pub struct ClusterSimulation<H> {
    dataset: Dataset,
    config: IncShrinkConfig,
    shards: usize,
    seed: u64,
    cost_model: CostModel,
    routing: RoutingPolicy,
    party_mode: PartyMode,
    elastic: Option<ElasticConfig>,
    host: H,
}

/// The cluster simulation with its shards hosted inline: the sequential
/// reference run, returning the [`ClusterRunReport`].
pub type ShardedSimulation = ClusterSimulation<Inline>;

/// The cluster simulation with its shards hosted on OS threads: same
/// constructor surface and replay contract as [`ShardedSimulation`], returning
/// a [`ParallelRunReport`].
pub type ParallelShardedSimulation = ClusterSimulation<Threads>;

impl<H: Default> ClusterSimulation<H> {
    /// Create a cluster simulation over a workload.
    ///
    /// # Panics
    /// Panics when `shards` is zero or the configuration fails
    /// `IncShrinkConfig::validate` (before or after the ε/S split).
    #[must_use]
    pub fn new(dataset: Dataset, config: IncShrinkConfig, shards: usize, seed: u64) -> Self {
        assert!(shards > 0, "cluster needs at least one shard");
        for cfg in [&config, &shard_config(&config, shards)] {
            if let Some(problem) = cfg.validate() {
                panic!("invalid IncShrink cluster configuration: {problem}");
            }
        }
        Self {
            dataset,
            config,
            shards,
            seed,
            cost_model: CostModel::default(),
            routing: RoutingPolicy::CoPartitioned,
            party_mode: PartyMode::from_env(),
            elastic: None,
            host: H::default(),
        }
    }
}

impl<H> ClusterSimulation<H> {
    /// Use a non-default cost model (e.g. WAN) for the simulated timings.
    #[must_use]
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Select how each shard's two MPC servers execute
    /// ([`incshrink_mpc::PartyMode`]): in-process struct calls (the default),
    /// actor threads over in-memory channels, or actor threads over a loopback
    /// TCP socket. The simulated trajectory is mode-invariant by contract.
    #[must_use]
    pub fn with_party_mode(mut self, party_mode: PartyMode) -> Self {
        self.party_mode = party_mode;
        self
    }

    /// Select how uploads are routed to shard pipelines. The default,
    /// [`RoutingPolicy::CoPartitioned`], requires a workload whose arrival
    /// partition *is* the join key and keeps the pre-shuffle run loop bit for bit
    /// (see its rustdoc for the one deliberate cadence difference);
    /// [`RoutingPolicy::Shuffled`] inserts the [`crate::shuffle`] phase and also
    /// handles workloads partitioned by a non-join attribute.
    ///
    /// # Panics
    /// Panics when the policy fails [`RoutingPolicy::validate`] (e.g. a
    /// `Shuffled` cushion of zero).
    #[must_use]
    pub fn with_routing_policy(mut self, routing: RoutingPolicy) -> Self {
        routing.validate();
        self.routing = routing;
        self
    }

    /// Attach the elastic sharding control plane ([`crate::elastic`]):
    /// skew-aware split/merge rebalancing of the bucket-ownership table with
    /// ε-accounted oblivious view migration, plus DP-sized ingest cuts. Only
    /// meaningful together with [`RoutingPolicy::Shuffled`] — `run` panics
    /// otherwise. Identical seed and config produce the identical trajectory,
    /// ledger, and migration schedule on both hosts and in every party mode.
    ///
    /// # Panics
    /// Panics when the configuration fails [`ElasticConfig::validate`].
    #[must_use]
    pub fn with_elastic(mut self, elastic: ElasticConfig) -> Self {
        elastic.validate();
        self.elastic = Some(elastic);
        self
    }

    /// Reject non-viable configurations, then build what a host hosts: the
    /// shard pipelines and, under [`RoutingPolicy::Shuffled`], the shuffle
    /// phase's state. Co-partitioned pipelines own their arrival shard's
    /// workload and build their own uploads; shuffled pipelines own the
    /// *join-key* partition (their ground truth), while uploads are built per
    /// *arrival* shard and re-routed through the shuffle phase each step.
    fn set_up(&self, ingest_chunk_seed: Option<u64>) -> (Vec<Shard>, Option<ShuffleState>) {
        assert_routable(&self.dataset, self.shards, self.routing);
        assert_elastic_viable(&self.config, self.routing, self.elastic.as_ref());
        let (dataset, shards, seed) = (&self.dataset, self.shards, self.seed);
        let per_shard_config = shard_config(&self.config, shards);
        let router = ShardRouter::new(shards);
        let (parts, shuffle) = match self.routing {
            RoutingPolicy::CoPartitioned => (router.partition(dataset), None),
            RoutingPolicy::Shuffled { bucket_cushion } => {
                // The elastic control plane lives with the shuffler it drives;
                // its releases derive from the cluster seed, never from party
                // or thread randomness.
                let mut shuffler =
                    ClusterShuffler::new(shards, bucket_cushion, self.cost_model, seed);
                if let Some(cfg) = self.elastic {
                    shuffler.enable_elastic(ElasticRouting::new(
                        shards,
                        per_shard_config.epsilon,
                        seed,
                        cfg,
                    ));
                }
                let state = ShuffleState {
                    arrival_parts: router.partition(dataset),
                    arrival_rngs: (0..shards)
                        .map(|i| {
                            StdRng::seed_from_u64(
                                seed ^ 0x0B17_A5E5 ^ (i as u64).wrapping_mul(SHARD_SEED_STRIDE),
                            )
                        })
                        .collect(),
                    shuffler,
                    left: (
                        dataset.left.schema.key_column,
                        router.shard_batch_size(dataset.left_batch_size),
                    ),
                    right: (!dataset.right_is_public).then(|| {
                        (
                            dataset.right.schema.key_column,
                            router.shard_batch_size(dataset.right_batch_size),
                        )
                    }),
                    chunk_rng: ingest_chunk_seed.map(StdRng::seed_from_u64),
                    host_secs: 0.0,
                };
                (router.partition_by_join_key(dataset), Some(state))
            }
        };
        let pipelines = build_pipelines(
            parts,
            per_shard_config,
            seed,
            self.cost_model,
            self.party_mode,
        );
        let shards = pipelines
            .into_iter()
            .enumerate()
            .map(|(index, pipeline)| Shard { index, pipeline })
            .collect();
        (shards, shuffle)
    }

    /// The cluster step loop, written once over whatever `host` builds to run
    /// the schedule: the horizon and the analyst's counting query.
    fn drive<Host: ShardHost>(self, host: impl FnOnce(Schedule) -> Host) -> ParallelRunReport {
        let schedule = Schedule {
            steps: self.dataset.params.steps,
            query: Query::count(),
            query_interval: self.config.query_interval,
        };
        let mut host = host(schedule.clone());
        let Self {
            dataset,
            config,
            shards,
            seed,
            cost_model,
            routing,
            elastic,
            ..
        } = self;
        let steps = schedule.steps;
        // The migration executor is driver-owned (its rng derives from the
        // cluster seed, never from party or thread randomness), so elastic
        // trajectories are identical across hosts and party execution modes.
        let mut migrator = elastic.map(|cfg| {
            ViewMigrator::new(
                cfg.migrate_slice * shard_config(&config, shards).epsilon,
                seed,
                cost_model,
            )
        });
        let merger = ScatterGatherExecutor::new(cost_model);
        let mut builder = SummaryBuilder::new();
        let mut trace = Vec::with_capacity(steps as usize);
        let mut max_shard_qet_sum = 0.0;
        let mut aggregation_sum = 0.0;
        let mut host_query_secs = 0.0;
        let mut step_wall_secs = Vec::with_capacity(steps as usize);
        let run_started = Instant::now();
        let mut step_done = run_started;

        for t in 1..=steps {
            let Ok((replies, moves)) = host.step(t) else {
                lost(host)
            };
            let (replies, partials): (Vec<_>, Vec<_>) = replies.into_iter().unzip();

            // Scatter-gather query: the partials rode the step replies; merge
            // them here through the secure-add tree. Host time: the slowest
            // shard's evaluation (they ran concurrently) plus the merge.
            let mut query = None;
            if let Some(partials) = partials.into_iter().collect::<Option<Vec<Partial>>>() {
                let _query_step_scope = incshrink_telemetry::step_scope(t);
                let mut query_span = incshrink_telemetry::span!("query", step = t);
                let merge_started = Instant::now();
                let slowest_eval = partials.iter().map(|p| p.eval_secs).fold(0.0, f64::max);
                let outcomes: Vec<QueryOutcome> = partials.into_iter().map(|p| p.outcome).collect();
                let gathered = merger.merge(&schedule.query, &outcomes);
                host_query_secs += slowest_eval + merge_started.elapsed().as_secs_f64();
                query_span.record_sim_secs(gathered.qet.as_secs_f64());
                query_span.record_cost(gathered.report.into());
                drop(query_span);
                let breakdown = gathered.shards.expect("scatter-gather breakdown");
                max_shard_qet_sum += breakdown.max_shard_qet.as_secs_f64();
                aggregation_sum += breakdown.aggregation_qet.as_secs_f64();
                query = Some((gathered.value.expect_scalar(), gathered.qet));
            }
            trace.push(builder.record_step(t, &replies, query));

            // Execute planned migrations after the step's maintenance and
            // query are done: export the moving buckets from each source
            // shard, DP-pad/price/re-seed the transfer, import at the
            // destination. The round trips are synchronous per edge, so the
            // grouped, sorted `group_moves` order fully determines the
            // migrator's rng draw sequence.
            if !moves.is_empty() {
                let migrator = migrator.as_mut().expect("moves imply an elastic migrator");
                for ((from, to), buckets) in group_moves(&moves) {
                    let Ok((partition, view_len)) = host.export_partition(from, buckets) else {
                        lost(host)
                    };
                    let (partition, import_seed) = migrator.prepare(t, to, partition, view_len);
                    if host.import_partition(to, partition, import_seed).is_err() {
                        lost(host);
                    }
                }
            }
            let now = Instant::now();
            step_wall_secs.push(now.duration_since(step_done).as_secs_f64());
            step_done = now;
        }

        let Ok((finals, shuffle)) = host.finals() else {
            lost(host)
        };
        let threads_joined = host.retire();
        let total_wall_secs = run_started.elapsed().as_secs_f64();
        builder.record_totals(
            finals.iter().map(|f| f.report.sync_count).sum(),
            finals.iter().map(|f| f.report.truncation_losses).sum(),
        );
        builder.record_host_transform_secs(finals.iter().map(|f| f.host_transform_secs).sum());
        builder.record_host_query_secs(host_query_secs);
        builder.record_host_shuffle_secs(shuffle.host_shuffle_secs);
        let summary = builder.build();
        let per_query = |sum: f64| sum / summary.queries_issued.max(1) as f64;
        let elastic_report = shuffle.elastic.map(|mut routing_side| {
            if let Some(m) = &migrator {
                routing_side.merge(&m.report());
            }
            routing_side
        });
        ParallelRunReport {
            report: ClusterRunReport {
                dataset: dataset.kind,
                config,
                shards,
                routing,
                steps: trace,
                summary,
                shard_reports: finals.into_iter().map(|f| f.report).collect(),
                privacy: ClusterPrivacy::compose(&config, shards),
                avg_max_shard_qet_secs: per_query(max_shard_qet_sum),
                avg_aggregation_secs: per_query(aggregation_sum),
                avg_shuffle_secs: shuffle.stats.total_secs / steps.max(1) as f64,
                shuffle: shuffle.stats,
                elastic: elastic_report,
            },
            runtime: RuntimeStats {
                shards,
                threads_joined,
                step_wall_secs,
                total_wall_secs,
            },
        }
    }
}

impl ClusterSimulation<Inline> {
    /// Run the cluster simulation to completion on the calling thread.
    ///
    /// # Panics
    /// Panics when the workload is *not* co-partitioned (its arrival-partition
    /// column differs from the join key) but the routing policy is
    /// [`RoutingPolicy::CoPartitioned`]: maintaining such a view shard-locally
    /// would silently lose every cross-shard join pair. Also panics when
    /// [`Self::with_elastic`] is combined with co-partitioned routing, or
    /// elastic migration with `transform_batch > 1`.
    #[must_use]
    pub fn run(self) -> ClusterRunReport {
        let (shards, shuffle) = self.set_up(None);
        let host = |schedule| InlineHost {
            shards,
            shuffle,
            schedule,
        };
        self.drive(host).report
    }
}

impl ClusterSimulation<Threads> {
    /// Feed the broker's owner streams in randomly sized chunks (seeded by
    /// `seed`) instead of one slice per step. The trajectory is invariant in
    /// the chunking — that invariance is what the soak test hammers.
    #[must_use]
    pub fn with_ingest_chunk_seed(mut self, seed: u64) -> Self {
        self.host.ingest_chunk_seed = Some(seed);
        self
    }

    /// Test hook: make shard `shard`'s thread panic at the start of step
    /// `step`, to exercise the teardown/propagation path. [`Self::run`]
    /// rejects a `shard` the cluster does not have.
    #[doc(hidden)]
    #[must_use]
    pub fn with_injected_crash(mut self, shard: usize, step: u64) -> Self {
        self.host.injected_crash = Some((shard, step));
        self
    }

    /// Test hook: kill one of shard `shard`'s MPC party executors at the start
    /// of step `step`. Exercises the contract that a dead *party* — a
    /// disconnected channel or TCP peer, not just a panicking shard thread —
    /// propagates to the driver through the same teardown path as
    /// [`Self::with_injected_crash`], and is rejected the same way.
    #[doc(hidden)]
    #[must_use]
    pub fn with_injected_party_crash(mut self, shard: usize, step: u64) -> Self {
        self.host.injected_party_crash = Some((shard, step));
        self
    }

    /// Run the cluster simulation to completion over real OS threads.
    ///
    /// # Panics
    /// Panics on the same configurations as [`ShardedSimulation::run`], and
    /// when a crash hook names a shard the cluster does not have (both before
    /// any thread is spawned); re-raises (via `std::panic::resume_unwind`)
    /// any panic from a worker thread after tearing the actor system down.
    #[must_use]
    pub fn run(self) -> ParallelRunReport {
        let (hooks, shards) = (self.host, self.shards);
        let named = [hooks.injected_crash, hooks.injected_party_crash];
        if let Some((shard, _)) = named.into_iter().flatten().find(|&(s, _)| s >= shards) {
            panic!("a crash hook names shard {shard}, but the cluster has {shards} shards");
        }
        let (shards, shuffle) = self.set_up(hooks.ingest_chunk_seed);
        self.drive(|schedule| ThreadHost::spawn(shards, shuffle, (schedule, hooks)))
    }
}
