//! The cluster run's vocabulary: the per-shard configuration split, the privacy
//! composition, the report shapes, and the configuration rejections the driver
//! ([`crate::runtime`]) applies before any shard exists.
//!
//! Per-step wall-clock in a [`ClusterRunReport`] is the slowest shard (pairs
//! execute in parallel); the per-step trace reuses `StepRecord`/`Summary` so all
//! existing Table-2 style reporting works on cluster runs unchanged.
//!
//! # Privacy composition
//!
//! Each shard's Shrink releases are `b·(ε/S)`-DP with respect to the shard's input
//! (Theorem 3 with the shard's budget). Because the router partitions records by join
//! key, shard inputs are **disjoint at record level**, so parallel composition keeps
//! the record-level loss at `b·ε/S` — *stronger* than the single-pair guarantee. At
//! user level a single owner's records may hash to every shard; sequential
//! composition across the `S` disjoint-data pipelines then yields `S · b · ε/S =
//! b·ε`, exactly the single-pair user-level guarantee. The ε/S split is what keeps
//! that bound invariant in the cluster size; [`ClusterPrivacy`] evaluates both bounds
//! through `incshrink_dp::accountant`.

use crate::elastic::{ElasticConfig, ElasticReport};
use crate::router::ShardRouter;
use crate::shuffle::{RoutingPolicy, ShuffleStats};
use incshrink::{IncShrinkConfig, ShardPipeline, StepRecord, Summary, UpdateStrategy};
use incshrink_dp::accountant::{MechanismApplication, PrivacyAccountant};
use incshrink_mpc::cost::CostModel;
use incshrink_mpc::PartyMode;
use incshrink_workload::{Dataset, DatasetKind};
use serde::{Deserialize, Serialize};

/// Per-shard seed stride (golden-ratio increment): shard 0 keeps the cluster seed, so
/// a 1-shard cluster replays a single `ShardPipeline` built with that seed bit for
/// bit.
pub(crate) const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Cluster-level privacy bounds evaluated via `incshrink_dp::accountant`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterPrivacy {
    /// Number of shard pipelines.
    pub shards: usize,
    /// ε handed to each shard's Shrink instance (`ε / S`).
    pub per_shard_epsilon: f64,
    /// Record-level lifetime loss: shard inputs are disjoint, so parallel composition
    /// takes the max across shards (`b · ε/S`).
    pub record_level_epsilon: f64,
    /// User-level lifetime loss when one owner's records reach every shard:
    /// sequential composition across shards (`S · b · ε/S = b·ε`).
    pub user_level_epsilon: f64,
}

impl ClusterPrivacy {
    /// Evaluate the composed bounds for a cluster configuration.
    ///
    /// Both bounds come out of `incshrink_dp::accountant`'s composition semantics:
    ///
    /// * **Record level** — a record's key routes it to exactly one shard, so only
    ///   that shard's releases ever touch it; Theorem 3's budgeted bound
    ///   ([`PrivacyAccountant::budgeted_epsilon`], count-independent over a record's
    ///   lifetime) applied to that single pipeline gives `b · ε/S`.
    /// * **User level** — one owner's records may hash to every shard, so the `S`
    ///   pipelines each consume a full lifetime budget `b` over data overlapping in
    ///   that user; sequential composition
    ///   ([`PrivacyAccountant::unbudgeted_epsilon`] over `S` non-disjoint
    ///   `b`-stable applications) sums to `S · b · ε/S = b·ε` — the single-pair
    ///   guarantee, invariant in the cluster size.
    ///
    /// # Panics
    /// Panics when `shards` is zero.
    #[must_use]
    pub(crate) fn compose(config: &IncShrinkConfig, shards: usize) -> Self {
        assert!(shards > 0, "cluster needs at least one shard");
        let per_shard_epsilon = config.epsilon / shards as f64;

        let mut per_record = PrivacyAccountant::new();
        per_record.record(MechanismApplication {
            mechanism_epsilon: per_shard_epsilon,
            stability: config.truncation_bound,
            disjoint: false,
        });
        let record_level_epsilon = per_record.budgeted_epsilon(config.contribution_budget);

        let mut per_user = PrivacyAccountant::new();
        for _ in 0..shards {
            per_user.record(MechanismApplication {
                mechanism_epsilon: per_shard_epsilon,
                stability: config.contribution_budget,
                disjoint: false,
            });
        }
        Self {
            shards,
            per_shard_epsilon,
            record_level_epsilon,
            user_level_epsilon: per_user.unbudgeted_epsilon(),
        }
    }
}

/// End-of-run statistics for one shard pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// View synchronizations this shard issued.
    pub sync_count: u64,
    /// Final (real + dummy) view length.
    pub view_len: usize,
    /// Final real view entries.
    pub view_real: usize,
    /// Final secure-cache length.
    pub cache_len: usize,
    /// Real join pairs this shard's ω truncation dropped.
    pub truncation_losses: u64,
    /// Total simulated MPC time on this shard's server pair.
    pub mpc_secs: f64,
    /// Digest of the final view's exact share words
    /// (`incshrink::MaterializedView::fingerprint`). Two hosts replayed the
    /// same trajectory iff these agree shard for shard — the threaded host's
    /// equivalence tests compare them instead of shipping views around.
    pub view_fingerprint: u64,
}

/// Full result of one run: the per-step [`StepRecord`] trace and the Table-2
/// style [`Summary`], with shard-level detail on top.
///
/// Equality is *semantic* equality of the simulated trajectory: every field
/// compares exactly except the summary's host-time fields (see `Summary`'s
/// `PartialEq`), so `inline_report == threaded_report` is precisely the
/// runtime's bit-for-bit replay contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterRunReport {
    /// Which dataset kind was replayed.
    pub dataset: DatasetKind,
    /// The *cluster-level* configuration (shards run with `epsilon / S`).
    pub config: IncShrinkConfig,
    /// Number of shard pipelines.
    pub shards: usize,
    /// How uploads were routed to the shard pipelines.
    pub routing: RoutingPolicy,
    /// Per-step cluster trace (answers aggregated, times are slowest-shard).
    pub steps: Vec<StepRecord>,
    /// Aggregated cluster summary.
    pub summary: Summary,
    /// Per-shard end-of-run statistics.
    pub shard_reports: Vec<ShardReport>,
    /// Composed privacy bounds.
    pub privacy: ClusterPrivacy,
    /// Mean slowest-shard view-scan time per issued query (the quantity that shrinks
    /// ∝ 1/S as shards are added).
    pub avg_max_shard_qet_secs: f64,
    /// Mean cross-shard aggregation time per issued query.
    pub avg_aggregation_secs: f64,
    /// Mean shuffle-phase time per upload epoch (0 under
    /// [`RoutingPolicy::CoPartitioned`]).
    pub avg_shuffle_secs: f64,
    /// Cumulative shuffle-phase statistics (all-zero under
    /// [`RoutingPolicy::CoPartitioned`]).
    pub shuffle: ShuffleStats,
    /// Elastic control-plane statistics, when the run used
    /// [`crate::runtime::ClusterSimulation::with_elastic`] (`None` on static
    /// runs).
    pub elastic: Option<ElasticReport>,
}

impl ClusterRunReport {
    /// Convenience accessor: the number of simulated steps.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.steps.len() as u64
    }
}

/// Derive the configuration each shard pipeline runs with.
///
/// Two adjustments compose:
///
/// * **ε/S budget split** — every shard's Shrink noise is drawn with `ε/S`, which is
///   what keeps the user-level guarantee invariant in the cluster size.
/// * **Cadence stretched to the shard's arrival rate** — a shard sees `1/S` of the
///   view-entry rate, so the paper's `T = ⌊θ/rate⌋` correspondence gives `S·T` for
///   the `sDPTimer` interval, while the `sDPANT` threshold θ stays unchanged (the
///   shard counter simply takes `S×` longer to reach it). The independent cache-flush
///   interval `f` stretches by `S` for the same reason: a flush is sized for the
///   entries `f` single-pair steps accumulate, so a shard accruing at `1/S` of that
///   rate reaches the same fill level only every `S·f` steps. Leaving `f` at the
///   single-pair cadence would make each shard flush `S×` too often relative to its
///   arrival rate — extra counter-inspecting Shrink actions that break the
///   per-shard padding argument below. Fewer, equally sized
///   releases per shard is also what bounds the per-shard dummy padding: each
///   release pads by `O(b·S/ε)` expected dummies, so keeping the *number* of
///   releases (synchronizations *and* flushes) at `1/S` of the single-pair run keeps
///   per-shard padding at the single-pair level while the real entries shrink by
///   `1/S`.
///
/// Everything else passes through untouched: each shard pipeline runs one
/// Transform per upload step and plans its joins under the run's cost model.
#[must_use]
pub fn shard_config(config: &IncShrinkConfig, shards: usize) -> IncShrinkConfig {
    let mut cfg = *config;
    cfg.epsilon = config.epsilon / shards as f64;
    cfg.flush_interval = config.flush_interval.saturating_mul(shards as u64);
    if let UpdateStrategy::DpTimer { interval } = config.strategy {
        cfg.strategy = UpdateStrategy::DpTimer {
            interval: interval.saturating_mul(shards as u64),
        };
    }
    cfg
}

/// Panic unless `routing` can maintain `dataset`'s view on `shards` shards
/// without losing cross-shard join pairs. A single shard owns every key, so
/// even a non-co-partitioned arrival cannot split a join pair — the guard only
/// applies to real clusters.
pub(crate) fn assert_routable(dataset: &Dataset, shards: usize, routing: RoutingPolicy) {
    let offending: Vec<String> = [&dataset.left.schema, &dataset.right.schema]
        .into_iter()
        .filter(|s| !s.is_co_partitioned())
        .map(|s| {
            format!(
                "'{}' (partition column {}, join key {})",
                s.name, s.partition_column, s.key_column
            )
        })
        .collect();
    if shards > 1 && !offending.is_empty() && routing == RoutingPolicy::CoPartitioned {
        panic!(
            "workload arrives partitioned by a non-join attribute ({}): \
             RoutingPolicy::CoPartitioned would lose cross-shard join pairs — \
             use RoutingPolicy::Shuffled",
            offending.join(", ")
        );
    }
}

/// Panic unless the elastic control plane (if any) has something to drive: it
/// adapts the shuffle phase's routing table, and co-partitioned arrivals have
/// no shuffle.
pub(crate) fn assert_elastic_viable(routing: RoutingPolicy, elastic: Option<&ElasticConfig>) {
    assert!(
        elastic.is_none() || matches!(routing, RoutingPolicy::Shuffled),
        "the elastic control plane drives the shuffle phase's routing table: \
         use RoutingPolicy::Shuffled (co-partitioned arrivals have no shuffle \
         to adapt)"
    );
}

/// Construct pre-partitioned shard datasets into pipelines on the cluster's
/// per-shard seed schedule (shard 0 keeps `seed`, so one shard replays a
/// single `ShardPipeline` built with `seed` bit for bit).
pub(crate) fn build_pipelines(
    parts: Vec<Dataset>,
    per_shard_config: IncShrinkConfig,
    seed: u64,
    cost_model: CostModel,
    party_mode: PartyMode,
) -> Vec<ShardPipeline> {
    parts
        .into_iter()
        .enumerate()
        .map(|(i, part)| {
            ShardPipeline::with_party_mode(
                part,
                per_shard_config,
                seed.wrapping_add((i as u64).wrapping_mul(SHARD_SEED_STRIDE)),
                cost_model,
                party_mode,
            )
        })
        .collect()
}

/// Build the `S` shard pipelines of a (co-partitioned) cluster run: hash-partition
/// `dataset` by join key and construct one `ShardPipeline` per shard with the ε/S
/// [`shard_config`] and the cluster's per-shard seed schedule. This is exactly the
/// construction [`crate::ShardedSimulation`] uses under
/// [`RoutingPolicy::CoPartitioned`], so external drivers (benches, examples,
/// replay tests) that step these pipelines reproduce the simulation's shard state
/// bit for bit.
///
/// # Panics
/// Panics when `shards` is zero or the configuration fails validation.
#[must_use]
pub fn shard_pipelines(
    dataset: &Dataset,
    config: &IncShrinkConfig,
    shards: usize,
    seed: u64,
    cost_model: CostModel,
) -> Vec<ShardPipeline> {
    assert!(shards > 0, "cluster needs at least one shard");
    build_pipelines(
        ShardRouter::new(shards).partition(dataset),
        shard_config(config, shards),
        seed,
        cost_model,
        PartyMode::from_env(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedSimulation;
    use incshrink_workload::{TpcDsGenerator, WorkloadParams};

    fn dataset(steps: u64) -> Dataset {
        TpcDsGenerator::new(WorkloadParams {
            steps,
            view_entries_per_step: 2.7,
            seed: 21,
        })
        .generate()
    }

    fn timer_config() -> IncShrinkConfig {
        IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 })
    }

    #[test]
    fn shard_config_splits_epsilon_and_stretches_cadence() {
        let cfg = timer_config();
        let split = shard_config(&cfg, 4);
        assert!((split.epsilon - cfg.epsilon / 4.0).abs() < 1e-12);
        assert!(matches!(
            split.strategy,
            UpdateStrategy::DpTimer { interval: 40 }
        ));
        // The flush interval stretches with the 1/S shard arrival rate too —
        // otherwise each shard flushes S× too often for what it accumulates.
        assert_eq!(split.flush_interval, cfg.flush_interval * 4);
        assert_eq!(shard_config(&cfg, 1), cfg, "single shard keeps the config");

        // sDPANT keeps θ: the shard counter reaches it S× more slowly on its own.
        let ant = IncShrinkConfig::cpdb_default(UpdateStrategy::DpAnt { threshold: 30.0 });
        let split = shard_config(&ant, 4);
        assert!(matches!(
            split.strategy,
            UpdateStrategy::DpAnt { threshold } if (threshold - 30.0).abs() < 1e-12
        ));
        assert_eq!(split.flush_interval, ant.flush_interval * 4);
        assert_eq!(shard_config(&ant, 1), ant);
    }

    #[test]
    fn privacy_composition_is_invariant_in_shard_count() {
        let cfg = timer_config(); // ε = 1.5, ω = 1, b = 10
        for shards in [1usize, 2, 4, 8] {
            let p = ClusterPrivacy::compose(&cfg, shards);
            assert!((p.per_shard_epsilon - 1.5 / shards as f64).abs() < 1e-12);
            // Record level: disjoint shards, parallel composition ⇒ b·ε/S.
            assert!((p.record_level_epsilon - 10.0 * 1.5 / shards as f64).abs() < 1e-9);
            // User level: sequential across shards ⇒ b·ε, independent of S.
            assert!((p.user_level_epsilon - 15.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cluster_answers_track_truth_and_shards_share_the_load() {
        let report = ShardedSimulation::new(dataset(120), timer_config(), 4, 9).run();
        assert_eq!(report.horizon(), 120);
        assert_eq!(report.shards, 4);
        assert_eq!(report.shard_reports.len(), 4);
        // Each shard's stretched timer (interval 40) fires three times in 120 steps;
        // small ε/S read sizes can come out empty, but material synchronizations must
        // still happen across the cluster.
        assert!(report.summary.sync_count >= 4, "cluster synchronizes");
        assert!(
            report
                .shard_reports
                .iter()
                .filter(|s| s.sync_count > 0)
                .count()
                >= 3,
            "most shards synchronize"
        );
        // Every shard carries a non-trivial slice of the view.
        let total_real: usize = report.shard_reports.iter().map(|s| s.view_real).sum();
        assert_eq!(total_real, report.steps.last().unwrap().view_real);
        assert!(
            report
                .shard_reports
                .iter()
                .filter(|s| s.view_real > 0)
                .count()
                >= 3
        );
        // Aggregation is priced, and the cluster QET decomposes into
        // slowest-shard scan + aggregation.
        assert!(report.avg_aggregation_secs > 0.0);
        assert!(
            (report.summary.avg_qet_secs
                - (report.avg_max_shard_qet_secs + report.avg_aggregation_secs))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn nm_strategy_scatter_gathers_exact_answers() {
        let cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::NonMaterialized);
        let report = ShardedSimulation::new(dataset(30), cfg, 2, 3).run();
        assert!(report.summary.avg_l1_error < 1e-9, "NM recomputes exactly");
        assert_eq!(report.summary.sync_count, 0);
        assert!(report.summary.avg_qet_secs > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedSimulation::new(dataset(10), timer_config(), 0, 1);
    }
}
