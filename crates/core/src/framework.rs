//! One server pair's view-maintenance stack, stepped one upload epoch at a time.
//!
//! [`ShardPipeline`] holds the machinery of one server pair — context, secure
//! cache, Transform, Shrink, materialized view — and replays a workload's upload
//! epochs exactly as Figure 1 describes: owners upload padded batches each step,
//! Transform converts them into cached view entries, and Shrink synchronizes
//! DP-sized batches into the materialized view (or a baseline strategy routes ΔV
//! directly). The analyst's queries are answered separately
//! ([`ShardPipeline::answer_query`]).
//!
//! The end-to-end run — the step loop, the counting query every
//! `query_interval` steps, the per-step [`StepRecord`] trace and the Table-2
//! style summary — is the cluster crate's (`incshrink-cluster`): its one-shard
//! inline `ShardedSimulation` is the single-pair run, and `S` shards step `S`
//! of these pipelines and scatter-gather the query across their views.

use crate::baselines::{delta_routing, route_delta, DeltaRouting};
use crate::config::{IncShrinkConfig, UpdateStrategy};
use crate::query::{NmBaselineEngine, Query, QueryOutcome};
use crate::shrink::ShrinkProtocol;
use crate::transform::{BudgetedRecord, PublicRelation, TransformProtocol};
use crate::view::{MaterializedView, ViewDefinition};
use incshrink_mpc::cost::{CostModel, CostReport, SimDuration};
use incshrink_mpc::stream::Domain;
use incshrink_mpc::{PartyContext, PartyExec, PartyMode};
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::PlainRecord;
use incshrink_storage::{Relation, SecureCache, UploadBatch};
use incshrink_telemetry::{CostDelta, ObserveKind};
use incshrink_workload::{logical_join_counts_per_step, Dataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One per-step record of the simulation trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// The time step (1-based).
    pub time: u64,
    /// Ground-truth logical answer `q_t(D_t)`.
    pub true_count: u64,
    /// The view-based (or NM) answer returned to the analyst; `None` when no query was
    /// issued this step.
    pub answer: Option<u64>,
    /// L1 error of the answer (0 when no query was issued).
    pub l1_error: f64,
    /// Simulated query execution time in seconds (0 when no query was issued).
    pub qet_secs: f64,
    /// Simulated Transform time this step.
    pub transform_secs: f64,
    /// Simulated Shrink time this step.
    pub shrink_secs: f64,
    /// View length (real + dummy) after this step.
    pub view_len: usize,
    /// Real view entries after this step.
    pub view_real: usize,
    /// Secure-cache length after this step.
    pub cache_len: usize,
    /// Whether Shrink issued a view synchronization this step.
    pub synced: bool,
}

/// Outcome of one [`ShardPipeline::advance`] call (uploads + Transform + Shrink).
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStepOutcome {
    /// Simulated Transform time; `None` when the strategy did not invoke Transform
    /// this step (NM always, OTM after its one-time materialization).
    pub transform_duration: Option<SimDuration>,
    /// Oblivious-operation counts of this step's Transform invocation (`None`
    /// whenever `transform_duration` is).
    pub transform_report: Option<CostReport>,
    /// Simulated Shrink time; `None` for strategies that never run Shrink.
    pub shrink_duration: Option<SimDuration>,
    /// Whether Shrink issued a view synchronization this step.
    pub synced: bool,
    /// Whether the independent cache-flush mechanism fired this step (a
    /// counter-inspecting action — the cluster cadence tests assert these scale with
    /// the shard arrival rate).
    pub flushed: bool,
}

/// One step's owner upload batches, ready for ingestion by a pipeline.
///
/// Normally built by the pipeline itself from its own workload
/// ([`ShardPipeline::upload_batches`]); a cluster running a shuffle phase instead
/// routes externally built batches in via [`ShardPipeline::advance_with_uploads`].
#[derive(Debug, Clone)]
pub struct StepUploads {
    /// The left relation's padded upload batch.
    pub left: UploadBatch,
    /// The right relation's padded upload batch (`None` when the right is public).
    pub right: Option<UploadBatch>,
}

/// The state leaving a shard when the elastic control plane migrates a set of
/// virtual key-range buckets to another owner: the real materialized-view
/// entries of the range, plus both sides' still-active records (each with the
/// number of steps it may still join at — its remaining contribution budget in
/// units of ω) so future cross-time join pairs form at the new owner.
///
/// Produced by [`ShardPipeline::export_partition`], consumed by
/// [`ShardPipeline::import_partition`]. The plaintext here is
/// protocol-internal, exactly like the recovery inside the oblivious shuffle:
/// the migration protocol pads the shipped size to a DP-noised target and
/// re-shares everything with fresh randomness before any server sees it.
#[derive(Debug, Clone, Default)]
pub struct MigratedPartition {
    /// Real view entries of the migrating key range (canonical
    /// `left fields ++ right fields` layout). The migration protocol may append
    /// dummy records here — they pad the shipped size to its public DP target
    /// and land in the destination view like Shrink's dummies do.
    pub view_entries: Vec<PlainRecord>,
    /// Active left-relation records with the steps each has left.
    pub active_left: Vec<BudgetedRecord>,
    /// Active right-relation records with the steps each has left.
    pub active_right: Vec<BudgetedRecord>,
    /// Arity of view entries (`left_arity + right_arity`), kept so dummy
    /// padding can be built even when no real view entry migrates.
    pub view_arity: usize,
    /// Bits a view row's swaps carry besides `isView` (the secure cache's
    /// payload: the row less its second join-key copy), what the migration's
    /// compaction of the source view is priced at.
    pub view_payload_bits: u32,
    /// Padded rows of the source's public active windows (left, right) at export.
    /// How many of them moved is private, so the destination's windows grow by one
    /// block of these lengths each — the price of keeping Transform's join sizes
    /// public across a migration.
    pub window_rows: (usize, usize),
}

impl MigratedPartition {
    /// Number of real records (view entries counting only reals, plus both
    /// active sides) — the private quantity whose DP-noised release sets the
    /// shipped size.
    #[must_use]
    pub fn real_records(&self) -> usize {
        self.view_entries.iter().filter(|r| r.is_view).count()
            + self.active_left.len()
            + self.active_right.len()
    }

    /// Total records shipped, including dummy padding.
    #[must_use]
    pub fn shipped_records(&self) -> usize {
        self.view_entries.len() + self.active_left.len() + self.active_right.len()
    }
}

/// One server pair's complete view-maintenance stack: execution context, secure
/// cache, Transform, Shrink and the materialized view, stepped one upload epoch at
/// a time.
///
/// The servers keep no copy of an upload batch's shares once Transform has run
/// over it: Transform's public active window is priced from the batches' lengths
/// and upload steps, and nothing reads the shares again. What the NM baseline
/// prices is a tally of the padded rows uploaded per relation.
///
/// The cluster layer drives one of them per shard and answers queries by
/// scatter-gathering over their views; with one shard, that run is the
/// single-pair run.
pub struct ShardPipeline {
    dataset: Dataset,
    config: IncShrinkConfig,
    cost_model: CostModel,
    ctx: PartyContext,
    seed: u64,
    /// Padded rows uploaded so far, per relation (left, right): the outsourced
    /// data the NM baseline joins in full.
    uploaded_rows: [usize; 2],
    cache: SecureCache,
    view: MaterializedView,
    transform: TransformProtocol,
    shrink: ShrinkProtocol,
    truth: Vec<u64>,
    left_arity: usize,
    right_arity: usize,
    /// Host wall-clock seconds spent inside Transform invocations so far.
    host_transform_secs: f64,
}

impl ShardPipeline {
    /// Build the pipeline for one (shard of a) workload, running the MPC
    /// parties in the mode `INCSHRINK_PARTY_MODE` selects (default: in-process).
    ///
    /// # Panics
    /// Panics when the configuration fails [`IncShrinkConfig::validate`].
    #[must_use]
    pub fn new(
        dataset: Dataset,
        config: IncShrinkConfig,
        seed: u64,
        cost_model: CostModel,
    ) -> Self {
        Self::with_party_mode(dataset, config, seed, cost_model, PartyMode::from_env())
    }

    /// Build the pipeline with an explicit party execution mode. Every mode
    /// replays the others bit for bit; they differ only in measured host time.
    ///
    /// # Panics
    /// Panics when the configuration fails [`IncShrinkConfig::validate`].
    #[must_use]
    pub fn with_party_mode(
        dataset: Dataset,
        config: IncShrinkConfig,
        seed: u64,
        cost_model: CostModel,
        party_mode: PartyMode,
    ) -> Self {
        if let Some(problem) = config.validate() {
            panic!("invalid IncShrink configuration: {problem}");
        }
        let steps = dataset.params.steps;
        let view_def = ViewDefinition::for_dataset(&dataset);
        let truth = logical_join_counts_per_step(&dataset, &view_def.as_query(), steps);

        let public_right = dataset.right_is_public.then(|| {
            PublicRelation::from_rows(dataset.right.updates().iter().map(|u| u.fields.as_slice()))
        });

        let (cache_bits, view) = (
            view_def.cache_payload_bits(),
            MaterializedView::for_definition(&view_def),
        );
        let transform = TransformProtocol::new(
            view_def,
            config.truncation_bound,
            config.contribution_budget,
            public_right,
        );
        let shrink = ShrinkProtocol::new(&config);
        let left_arity = dataset.left.schema.arity();
        let right_arity = dataset.right.schema.arity();

        Self {
            ctx: PartyContext::new(party_mode, seed, cost_model),
            seed,
            uploaded_rows: [0; 2],
            // The view row's second join-key copy is restored locally after each
            // network, so the cache's networks carry the row less one key's bits.
            cache: SecureCache::new(cache_bits, shrink.trim_bound()),
            view,
            transform,
            shrink,
            truth,
            left_arity,
            right_arity,
            host_transform_secs: 0.0,
            dataset,
            config,
            cost_model,
        }
    }

    /// Host wall-clock seconds this pipeline has spent inside Transform invocations
    /// — a real measurement of this process, not a simulated quantity.
    #[must_use]
    pub fn host_transform_secs(&self) -> f64 {
        self.host_transform_secs
    }

    /// The configuration this pipeline runs with.
    #[must_use]
    pub fn config(&self) -> &IncShrinkConfig {
        &self.config
    }

    /// Number of upload epochs in the pipeline's workload.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.dataset.params.steps
    }

    /// The materialized view the analyst queries.
    #[must_use]
    pub fn view(&self) -> &MaterializedView {
        &self.view
    }

    /// Current secure-cache length.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The secure cache (its public layout and activity counters).
    #[must_use]
    pub fn cache(&self) -> &SecureCache {
        &self.cache
    }

    /// Cumulative real join pairs dropped by the ω truncation.
    #[must_use]
    pub fn truncation_losses(&self) -> u64 {
        self.transform.truncation_losses()
    }

    /// Total simulated MPC time this pipeline's context has accumulated.
    #[must_use]
    pub fn elapsed(&self) -> SimDuration {
        self.ctx.elapsed()
    }

    /// Which party execution mode this pipeline runs.
    #[must_use]
    pub fn party_mode(&self) -> PartyMode {
        self.ctx.mode()
    }

    /// Inject a party-level fault: one MPC party dies mid-protocol, surfacing
    /// as a panic carrying [`incshrink_mpc::PARTY_CRASH_MESSAGE`] on the next
    /// protocol round (immediately, in-process). Test hook for the cluster
    /// crash-propagation path.
    pub fn inject_party_crash(&mut self) {
        self.ctx.inject_party_crash();
    }

    /// Extract everything this shard holds for the virtual key-range `buckets`
    /// (see [`incshrink_oblivious::shuffle::bucket_of`]): real view entries,
    /// both sides' active records, and the steps each of them has left.
    /// Secure-cache rows in flight are *not* moved — they synchronize into this
    /// shard's view on their normal cadence, and cluster-level query answers
    /// are sums over all shards, so where a row materializes does not affect
    /// correctness.
    #[must_use]
    pub fn export_partition(&mut self, buckets: &[usize]) -> MigratedPartition {
        let mut mask = [false; incshrink_oblivious::shuffle::VIRTUAL_BUCKETS];
        for &b in buckets {
            mask[b] = true;
        }
        let moved = move |key: u32| mask[incshrink_oblivious::shuffle::bucket_of(key)];
        let left_key = self.dataset.left.schema.key_column;
        let view_entries = self.view.migrate_out(left_key, &moved);
        let (active_left, active_right) = self.transform.export_active(&moved);
        MigratedPartition {
            view_entries,
            active_left,
            active_right,
            view_arity: self.left_arity + self.right_arity,
            view_payload_bits: self.cache.payload_bits(),
            window_rows: self.transform.window_rows(),
        }
    }

    /// Adopt a migrated partition: re-share the view entries (reals plus the
    /// dummy padding the migration protocol added), take each side's active
    /// records in as one window block padded to the source's public window length,
    /// stamped with the steps they have left. `seed` derives the re-sharing
    /// randomness — the driver draws it from the migration rng, so sequential and
    /// actor drivers replay identically and no party randomness is consumed.
    pub fn import_partition(&mut self, partition: MigratedPartition, seed: u64) {
        if !partition.view_entries.is_empty() {
            self.view.migrate_in(SharedArrayPair::share_records(
                &partition.view_entries,
                &mut StdRng::seed_from_u64(seed),
            ));
        }
        self.transform.import_active(
            partition.active_left,
            partition.active_right,
            partition.window_rows,
        );
    }

    /// Ground-truth logical answer over this pipeline's (shard of the) data at step
    /// `t` (1-based; `t = 0` is the empty database).
    ///
    /// # Panics
    /// Panics when `t` exceeds the workload horizon — error metrics computed against
    /// a silently wrong truth would be worse than failing fast.
    #[must_use]
    pub fn true_count(&self, t: u64) -> u64 {
        if t == 0 {
            return 0;
        }
        self.truth[(t - 1) as usize]
    }

    /// Execute a typed analyst query over this pipeline's view: one oblivious scan.
    #[must_use]
    pub fn execute_query(&self, query: &Query) -> QueryOutcome {
        query.execute(&self.view, &self.cost_model)
    }

    /// Answer the analyst's `query` at step `t` the way this pipeline's strategy
    /// does: the NM baseline recomputes (and exactly answers) the full join, every
    /// other strategy scans its materialized view.
    #[must_use]
    pub fn answer_query(&self, query: &Query, t: u64) -> QueryOutcome {
        match self.config.strategy {
            UpdateStrategy::NonMaterialized => self.nm_engine(t).execute(query),
            _ => self.execute_query(query),
        }
    }

    /// The NM-baseline engine over this pipeline's accumulated outsourced data at
    /// step `t`: prices the full oblivious join and answers the counting query with
    /// the logical ground truth (the join recomputes it exactly).
    #[must_use]
    pub fn nm_engine(&self, t: u64) -> NmBaselineEngine<'static> {
        let [n_left, n_right, arity] = self.nm_join_shape();
        NmBaselineEngine::for_count(
            n_left,
            n_right,
            arity,
            self.config.truncation_bound,
            self.cost_model,
            self.true_count(t),
        )
    }

    /// The NM-baseline engine over the same outsourced data, answering every query
    /// shape from the logical join `rows` (e.g. `incshrink_workload::logical_join_rows`
    /// at the step this pipeline has reached).
    #[must_use]
    pub fn nm_engine_over<'a>(&self, rows: &'a [Vec<u32>]) -> NmBaselineEngine<'a> {
        let [n_left, n_right, arity] = self.nm_join_shape();
        NmBaselineEngine::with_joined_rows(
            n_left,
            n_right,
            arity,
            self.config.truncation_bound,
            self.cost_model,
            rows,
        )
    }

    /// What the NM baseline joins: the padded rows uploaded so far per private
    /// relation (an overflowing batch uploads every real record), the whole public
    /// relation otherwise; and the joined pair's width.
    fn nm_join_shape(&self) -> [u64; 3] {
        let [n_left, n_uploaded_right] = self.uploaded_rows;
        let n_right = if self.dataset.right_is_public {
            self.dataset.right.len()
        } else {
            n_uploaded_right
        };
        [n_left, n_right, self.left_arity + self.right_arity].map(|n| n as u64)
    }

    /// Simulated cost of answering the query without a view (NM baseline) over this
    /// pipeline's accumulated outsourced data.
    #[must_use]
    pub fn nm_query_duration(&self) -> SimDuration {
        self.nm_engine(0).execute(&Query::count()).qet
    }

    /// Build this step's padded owner upload batches from the pipeline's own
    /// workload — the default upload path, factored out so a cluster shuffle phase
    /// can substitute externally routed batches via
    /// [`Self::advance_with_uploads`].
    pub fn upload_batches(&self, t: u64) -> StepUploads {
        let batch = |relation: Relation| {
            let (db, size) = match relation {
                Relation::Left => (&self.dataset.left, self.dataset.left_batch_size),
                Relation::Right => (&self.dataset.right, self.dataset.right_batch_size),
            };
            let rng = &mut Domain::OwnerShares
                .draw(0, t, relation as u64)
                .rng(self.seed);
            UploadBatch::from_updates(t, &db.arrivals_at(t), db.schema.arity(), size, rng)
        };
        StepUploads {
            left: batch(Relation::Left),
            right: (!self.dataset.right_is_public).then(|| batch(Relation::Right)),
        }
    }

    /// Run one upload epoch: owner uploads, Transform (strategy dependent) and Shrink
    /// (DP strategies only). Queries are issued separately via [`Self::answer_query`] so a
    /// cluster driver can scatter-gather them across shards.
    pub fn advance(&mut self, t: u64) -> PipelineStepOutcome {
        let uploads = self.upload_batches(t);
        self.advance_with_uploads(t, uploads)
    }

    /// Run one upload epoch over externally provided upload batches — the ingest
    /// hook for cluster drivers whose shuffle phase re-routes records to the shard
    /// owning their join key before maintenance. [`Self::advance`] is exactly
    /// `advance_with_uploads(t, self.upload_batches(t))`, so co-partitioned
    /// trajectories are unchanged by the refactor.
    pub fn advance_with_uploads(&mut self, t: u64, uploads: StepUploads) -> PipelineStepOutcome {
        // Telemetry is read-only with respect to the simulated state: the scope
        // stamps emitted events with `t`, the span measures host time only.
        let _step_scope = incshrink_telemetry::step_scope(t);
        let _step_span = incshrink_telemetry::span!("pipeline.step");
        let mut outcome = PipelineStepOutcome::default();

        // --- Owner uploads (fixed-size padded batches every step): observed and
        // tallied on every path, joined by Transform when the strategy maintains
        // the view.
        let ingest_span = incshrink_telemetry::span!("ingest");
        let batches = [Some(&uploads.left), uploads.right.as_ref()];
        for (tally, batch) in self.uploaded_rows.iter_mut().zip(batches) {
            let Some(batch) = batch else { continue };
            incshrink_telemetry::observe(ObserveKind::UploadBatch, t, batch.len() as u64);
            *tally += batch.len();
        }
        let routing = delta_routing(self.config.strategy, t);
        let maintained = routing != DeltaRouting::NoTransform && routing != DeltaRouting::Drop;
        drop(ingest_span);

        // --- Transform (strategy dependent), once per upload step. OTM after its
        // one-time materialization and NM only tally: owners still upload, but the
        // servers perform no view maintenance work.
        if maintained {
            let mut transform_span = incshrink_telemetry::span!("transform");
            let started = std::time::Instant::now();
            let transform_outcome =
                self.transform
                    .invoke(&mut self.ctx, &uploads.left, uploads.right.as_ref());
            self.host_transform_secs += started.elapsed().as_secs_f64();
            transform_span.record_sim_secs(transform_outcome.duration.as_secs_f64());
            transform_span.record_cost(CostDelta {
                window_rows: transform_outcome.window_rows as u64,
                ..transform_outcome.report.into()
            });
            outcome.transform_duration = Some(transform_outcome.duration);
            outcome.transform_report = Some(transform_outcome.report);
            // Algorithm 1 line 7, σ ← σ ‖ ΔV, is part of Transform and of its span.
            incshrink_telemetry::observe(
                ObserveKind::CacheAppend,
                t,
                transform_outcome.delta.len() as u64,
            );
            if let Some(delta) = route_delta(routing, transform_outcome.delta, &mut self.view) {
                let key = self.dataset.left.schema.key_column;
                let copy = self.left_arity + self.dataset.right.schema.key_column;
                debug_assert!(
                    delta
                        .recover_all()
                        .iter()
                        .all(|row| row.fields.get(key) == row.fields.get(copy)),
                    "a view row carries its join key twice; the cache swaps one copy"
                );
                self.cache.write(delta);
            }
            drop(transform_span);
        }

        // --- Shrink (DP strategies only).
        if self.config.strategy.uses_shrink() {
            let mut shrink_span = incshrink_telemetry::span!("shrink");
            let before = self.cache.stats();
            let shrink_outcome =
                self.shrink
                    .step(&mut self.ctx, &mut self.cache, &mut self.view, t);
            let after = self.cache.stats();
            shrink_span.record_sim_secs(shrink_outcome.duration.as_secs_f64());
            shrink_span.record_cost(CostDelta {
                merges: after.merges - before.merges,
                merged_rows: after.merged_rows - before.merged_rows,
                ..shrink_outcome.report.into()
            });
            drop(shrink_span);
            outcome.shrink_duration = Some(shrink_outcome.duration);
            outcome.synced = shrink_outcome.updated;
            outcome.flushed = shrink_outcome.flushed;
        }

        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_workload::{TpcDsGenerator, WorkloadParams};

    #[test]
    #[should_panic(expected = "invalid IncShrink configuration")]
    fn invalid_config_is_rejected() {
        let dataset = TpcDsGenerator::new(WorkloadParams {
            steps: 60,
            view_entries_per_step: 2.7,
            seed: 21,
        })
        .generate();
        let mut cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
        cfg.epsilon = -1.0;
        let _ = ShardPipeline::new(dataset, cfg, 1, CostModel::default());
    }
}
