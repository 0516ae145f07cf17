//! The elastic sharding control plane: skew-aware split/merge rebalancing with
//! ε-accounted oblivious view migration and DP-sized ingest cuts.
//!
//! A static [`crate::RoutingPolicy::Shuffled`] assignment pays for skew twice:
//! a persistently hot key range overflows its buckets (leaking true counts)
//! while cold destinations ship worst-case padding forever. This subsystem
//! makes the topology react to load **using public information only**:
//!
//! * [`stats`] tracks per-key-range load from the two signals the servers may
//!   see — per-destination overflow counters (each overflow already leaks a
//!   true count; the counter is free) and the *DP-noised* per-bucket load
//!   releases bought from a configurable ε slice ([`ElasticConfig::cut_slice`]).
//! * [`cut`] turns the noisy releases into per-destination ingest-cut sizes
//!   (Shrinkwrap-style sizing — pay a little ε, stop padding to the worst
//!   case).
//! * [`planner`] plans shard **split/merge** actions over the virtual-bucket
//!   assignment table with hysteresis watermarks and a cooldown.
//! * [`migrate`] executes planned moves with an oblivious migration protocol:
//!   the moving view partition and active records are re-shared with fresh
//!   (non-party) randomness, the shipped size is padded to a DP-noised target
//!   whose ε is stamped into the ledger under `elastic.migrate`, and every
//!   migration is priced in a [`CostReport`].
//!
//! Determinism contract: with the control plane disabled the cluster replays
//! its static trajectories bit for bit (the identity assignment routes exactly
//! like [`incshrink_oblivious::destination_of`] whenever `S` divides
//! [`VIRTUAL_BUCKETS`]); enabled, runs are deterministic given the seed and
//! identical across party execution modes, because every control-plane random
//! draw comes from seeds derived from the cluster seed, never from party
//! randomness.

pub mod cut;
pub mod migrate;
pub mod planner;
pub mod stats;

use crate::shuffle::ShuffleStats;
use cut::CutPlan;
use incshrink_mpc::cost::CostReport;
use incshrink_oblivious::shuffle::VIRTUAL_BUCKETS;
use incshrink_storage::Relation;
pub(crate) use migrate::ViewMigrator;
use planner::Planner;
use serde::{Deserialize, Serialize};
use stats::LoadTracker;

/// Configuration of the elastic control plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElasticConfig {
    /// Steps per control interval: tallies accumulate for `window` steps, then
    /// one noisy release + (optionally) one rebalancing decision happen.
    pub window: u64,
    /// Fraction of the per-shard Shrink per-invocation ε each noisy cut
    /// release spends (`(0, 1]` — the ledger-reconciled `b · max ε` bound is
    /// unchanged as long as no single elastic release exceeds the Shrink
    /// per-invocation ε).
    pub cut_slice: f64,
    /// Fraction of the per-shard Shrink per-invocation ε each migration's
    /// shipped-size release spends (`(0, 1]`).
    pub migrate_slice: f64,
    /// Split when the hottest destination's load exceeds `high_water × mean`.
    pub high_water: f64,
    /// Merge (empty out) a destination whose load falls below
    /// `low_water × mean`.
    pub low_water: f64,
    /// Minimum steps between two planned actions (hysteresis).
    pub cooldown: u64,
    /// Additive safety margin on every DP-sized ingest cut.
    pub cut_margin: usize,
    /// Enable split/merge rebalancing (bucket migration). Off: the assignment
    /// table stays at the identity and routing matches static `Shuffled`.
    pub enable_migration: bool,
    /// Enable DP-sized ingest cuts. Off: the static worst-case cut is used.
    pub enable_dp_cut: bool,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        Self {
            window: 8,
            cut_slice: 0.5,
            migrate_slice: 0.5,
            high_water: 1.25,
            low_water: 0.4,
            cooldown: 8,
            cut_margin: 2,
            enable_migration: true,
            enable_dp_cut: true,
        }
    }
}

impl ElasticConfig {
    /// Validate the configuration, panicking with a clear message on nonsense
    /// values (mirrors `IncShrinkConfig::validate` — fail at construction, not
    /// mid-run).
    pub fn validate(&self) {
        assert!(self.window >= 1, "elastic window must be at least one step");
        assert!(
            self.cut_slice > 0.0 && self.cut_slice <= 1.0,
            "cut_slice must lie in (0, 1]: a release spending more than the \
             Shrink per-invocation ε would raise the reconciled privacy bound"
        );
        assert!(
            self.migrate_slice > 0.0 && self.migrate_slice <= 1.0,
            "migrate_slice must lie in (0, 1]"
        );
        assert!(
            self.high_water > 1.0,
            "high_water must exceed 1 (it multiplies the mean load)"
        );
        assert!(
            (0.0..1.0).contains(&self.low_water),
            "low_water must lie in [0, 1)"
        );
        assert!(
            self.high_water > self.low_water,
            "watermarks must leave a hysteresis band"
        );
    }

    /// Whether any control-plane feature is active.
    #[must_use]
    pub(crate) fn is_active(&self) -> bool {
        self.enable_migration || self.enable_dp_cut
    }
}

/// One planned ownership transfer: virtual bucket `bucket` moves from shard
/// `from` to shard `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct BucketMove {
    /// The virtual bucket changing owner.
    pub bucket: usize,
    /// Current owner.
    pub from: usize,
    /// New owner.
    pub to: usize,
}

/// Group planned moves into one transfer per `(from, to)` shard edge, in a
/// deterministic (sorted) order — the order the cluster driver executes the
/// transfers in, which fixes the migrator's rng draw sequence on either host.
#[must_use]
pub(crate) fn group_moves(moves: &[BucketMove]) -> Vec<((usize, usize), Vec<usize>)> {
    let mut grouped: std::collections::BTreeMap<(usize, usize), Vec<usize>> =
        std::collections::BTreeMap::new();
    for m in moves {
        grouped.entry((m.from, m.to)).or_default().push(m.bucket);
    }
    grouped.into_iter().collect()
}

/// Cumulative control-plane statistics of one cluster run, merged from the
/// routing side ([`ElasticRouting`], which may live on the broker thread) and
/// the migration executor (`ViewMigrator`, which lives with the driver).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ElasticReport {
    /// Planned split actions (a hot shard shed buckets).
    pub splits: u64,
    /// Planned merge actions (a cold shard was emptied out).
    pub merges: u64,
    /// Individual bucket ownership transfers across all actions.
    pub bucket_moves: u64,
    /// Executed shard-to-shard transfers (one per `(from, to)` edge per step).
    pub migrations: u64,
    /// Real records that changed owner.
    pub migrated_records: u64,
    /// Records shipped including DP dummy padding.
    pub shipped_records: u64,
    /// Noisy cut releases performed.
    pub cut_releases: u64,
    /// ε spent by each cut release (0 when the control plane never released).
    pub epsilon_cut: f64,
    /// ε spent by each migration's shipped-size release.
    pub epsilon_migrate: f64,
    /// Total ε stamped into the ledger by elastic mechanisms.
    pub epsilon_spent: f64,
    /// Oblivious-operation counts of all migrations.
    pub migration_cost: CostReport,
    /// Simulated wall-clock of all migrations.
    pub migration_secs: f64,
}

impl ElasticReport {
    /// Merge another report into this one (numeric fields add, per-release ε
    /// values are taken from whichever side knows them).
    pub fn merge(&mut self, other: &ElasticReport) {
        self.splits += other.splits;
        self.merges += other.merges;
        self.bucket_moves += other.bucket_moves;
        self.migrations += other.migrations;
        self.migrated_records += other.migrated_records;
        self.shipped_records += other.shipped_records;
        self.cut_releases += other.cut_releases;
        if other.epsilon_cut > 0.0 {
            self.epsilon_cut = other.epsilon_cut;
        }
        if other.epsilon_migrate > 0.0 {
            self.epsilon_migrate = other.epsilon_migrate;
        }
        self.epsilon_spent += other.epsilon_spent;
        self.migration_cost += other.migration_cost;
        self.migration_secs += other.migration_secs;
    }
}

/// The routing-side elastic state owned by the [`crate::ClusterShuffler`]: the
/// virtual-bucket assignment table, the per-window load tallies, the DP cut
/// plan and the split/merge planner. Lives wherever the shuffler lives (the
/// driver thread on the inline host, the broker thread on the threaded one),
/// so routing decisions are made exactly once per step on both.
#[derive(Debug)]
pub struct ElasticRouting {
    config: ElasticConfig,
    shards: usize,
    /// `assignment[bucket]` = owning shard. Starts at the identity
    /// (`bucket % shards`), which routes exactly like the static modulus.
    pub(crate) assignment: Vec<usize>,
    tracker: LoadTracker,
    cut_plan: CutPlan,
    planner: Planner,
    steps_in_window: u64,
    cut_releases: u64,
}

impl ElasticRouting {
    /// Build the routing-side control plane for `shards` destinations.
    /// `per_shard_epsilon` is the per-shard Shrink per-invocation ε the
    /// configured slices are taken from; `seed` is the cluster seed (the
    /// control plane derives its own noise streams from it).
    ///
    /// # Panics
    /// Panics when the configuration fails [`ElasticConfig::validate`] or no
    /// feature is enabled.
    #[must_use]
    pub fn new(shards: usize, per_shard_epsilon: f64, seed: u64, config: ElasticConfig) -> Self {
        config.validate();
        assert!(
            config.is_active(),
            "elastic routing with every feature disabled is the static policy; \
             drop `with_elastic` instead"
        );
        assert!(shards > 0, "cluster needs at least one shard");
        let cut_epsilon = config.cut_slice * per_shard_epsilon;
        Self {
            config,
            shards,
            assignment: (0..VIRTUAL_BUCKETS).map(|b| b % shards).collect(),
            tracker: LoadTracker::new(),
            cut_plan: CutPlan::new(cut_epsilon, seed, config.cut_margin, config.window),
            planner: Planner::new(config),
            steps_in_window: 0,
            cut_releases: 0,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ElasticConfig {
        &self.config
    }

    /// The destination shard count this control plane was built for.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The current bucket-ownership table.
    #[must_use]
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Record the per-virtual-bucket real counts of one routed batch
    /// (protocol-internal tally; only noisy releases of it become public).
    pub(crate) fn observe_routed(&mut self, relation: Relation, bucket_reals: &[u64]) {
        self.tracker.tally(relation, bucket_reals);
    }

    /// The per-destination ingest cuts for `relation`, when DP cuts are active
    /// and at least one release has happened.
    #[must_use]
    pub(crate) fn cuts_for(&self, relation: Relation) -> Option<&[usize]> {
        if !self.config.enable_dp_cut {
            return None;
        }
        self.cut_plan.cuts_for(relation)
    }

    /// Tell the cut plan what the static worst-case cut for `relation` is (its
    /// DP cuts never exceed it). Recorded on first route of each relation.
    pub(crate) fn note_static_cut(&mut self, relation: Relation, ingest_size: usize) {
        self.cut_plan.note_static_cut(relation, ingest_size);
    }

    /// Close one routed step: on window boundaries, release the noisy
    /// per-bucket tallies (one ε-ledger entry per routed relation, under the
    /// `elastic.cut` mechanism), refresh the ingest cuts and the load EWMA,
    /// and — when migration is enabled — ask the planner for split/merge
    /// moves, applying them to the assignment table immediately (the *state*
    /// transfer is the driver's job, via [`ViewMigrator`]). Returns the moves.
    pub(crate) fn finish_step(&mut self, time: u64, stats: &ShuffleStats) -> Vec<BucketMove> {
        self.steps_in_window += 1;
        if self.steps_in_window < self.config.window {
            return Vec::new();
        }
        self.steps_in_window = 0;

        let _step = incshrink_telemetry::step_scope(time);
        let _mech = incshrink_telemetry::mechanism_scope("elastic.cut");
        let released = self.tracker.release(&mut self.cut_plan);
        if released {
            self.cut_releases += 1;
        }

        let moves = if self.config.enable_migration {
            let moves = self.planner.plan(
                time,
                &self.assignment,
                self.tracker.ewma(),
                &stats.cut_overflows,
                self.shards,
            );
            for m in &moves {
                debug_assert_eq!(self.assignment[m.bucket], m.from);
                self.assignment[m.bucket] = m.to;
            }
            moves
        } else {
            Vec::new()
        };
        // Refresh cuts *after* applying the moves: a destination's cut must
        // reflect the buckets it will own next window, or every split is
        // followed by a window of stale-undersized cuts and overflow bursts.
        if released || !moves.is_empty() {
            self.cut_plan.refresh_cuts(&self.assignment, self.shards);
        }
        moves
    }

    /// The routing-side half of the run's [`ElasticReport`].
    #[must_use]
    pub fn report(&self) -> ElasticReport {
        ElasticReport {
            splits: self.planner.splits(),
            merges: self.planner.merges(),
            bucket_moves: self.planner.bucket_moves(),
            cut_releases: self.cut_releases,
            epsilon_cut: self.cut_plan.epsilon(),
            epsilon_spent: self.cut_plan.epsilon_spent(),
            ..ElasticReport::default()
        }
    }
}
