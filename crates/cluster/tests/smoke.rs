//! Smoke tests for the cluster crate: 1-shard equivalence with the single-pair
//! simulation, scale-out behaviour of the scatter-gather executor, and the composed
//! DP error bound for S > 1.

use incshrink::prelude::*;
use incshrink_cluster::{ShardRouter, ShardedSimulation};
use incshrink_workload::logical_join_count;

fn tpcds(steps: u64) -> Dataset {
    TpcDsGenerator::new(WorkloadParams {
        steps,
        view_entries_per_step: 2.7,
        seed: 21,
    })
    .generate()
}

fn cpdb(steps: u64) -> Dataset {
    CpdbGenerator::new(WorkloadParams {
        steps,
        view_entries_per_step: 9.8,
        seed: 22,
    })
    .generate()
}

fn timer(interval: u64) -> IncShrinkConfig {
    IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval })
}

/// Acceptance criterion: a 1-shard cluster reproduces the single-pair simulation
/// *exactly* on the same seed — not just the answers, the whole per-step trace.
#[test]
fn one_shard_cluster_reproduces_single_pair_simulation_exactly() {
    let seed = 0xC1D5;
    for (dataset, config) in [
        (tpcds(60), timer(10)),
        (
            cpdb(50),
            IncShrinkConfig::cpdb_default(UpdateStrategy::DpAnt { threshold: 30.0 }),
        ),
    ] {
        let single = Simulation::new(dataset.clone(), config, seed).run();
        let cluster = ShardedSimulation::new(dataset, config, 1, seed).run();
        assert_eq!(
            single.steps, cluster.steps,
            "trace must match step for step"
        );
        assert_eq!(single.summary, cluster.summary);
        assert_eq!(cluster.shards, 1);
        assert!((cluster.privacy.per_shard_epsilon - config.epsilon).abs() < 1e-12);
    }
}

/// The equi-join hash partition is lossless: per-shard ground truths sum to the
/// global ground truth at every step, on both workloads.
#[test]
fn sharded_truth_matches_global_truth() {
    for dataset in [tpcds(40), cpdb(40)] {
        let query = JoinQuery {
            window: dataset.join_window,
        };
        let parts = ShardRouter::new(4).partition(&dataset);
        for t in [1u64, 13, 40] {
            let global = logical_join_count(&dataset, &query, t);
            let sharded: u64 = parts.iter().map(|p| logical_join_count(p, &query, t)).sum();
            assert_eq!(sharded, global);
        }
    }
}

/// Acceptance criterion: for S ∈ {2, 4, 8} the cluster answer stays within the
/// ε/S-composed DP bound, and the slowest per-shard view scan shrinks as shards are
/// added.
#[test]
fn scale_out_error_stays_within_composed_bound_and_scans_shrink() {
    let seed = 7;
    // CPDB's ~9.8 view entries per step make real entries dominate the DP padding,
    // which is the regime where sharding pays off.
    let config = IncShrinkConfig::cpdb_default(UpdateStrategy::DpTimer { interval: 3 });
    let dataset = cpdb(120);
    let single = ShardedSimulation::new(dataset.clone(), config, 1, seed).run();

    let mut prev_max_qet = f64::INFINITY;
    for shards in [2usize, 4, 8] {
        let report = ShardedSimulation::new(dataset.clone(), config, shards, seed).run();

        // Composed error bound: each shard's backlog at query time is governed by its
        // Laplace read-size noise of scale b/(ε/S); summed over S shards the expected
        // deviation from the single-pair run is at most S · b·S/ε (E|Lap(λ)| = λ),
        // doubled for slack on short horizons.
        let lap_scale = config.contribution_budget as f64 * shards as f64 / config.epsilon;
        let bound = 2.0 * shards as f64 * lap_scale;
        assert!(
            report.summary.avg_l1_error <= single.summary.avg_l1_error + bound,
            "S={shards}: avg L1 {} vs single {} + bound {bound}",
            report.summary.avg_l1_error,
            single.summary.avg_l1_error
        );
        // Answers remain usable, not just bounded.
        assert!(
            report.summary.avg_relative_error < 1.0,
            "S={shards}: rel err {}",
            report.summary.avg_relative_error
        );

        // The slowest shard's view scan keeps shrinking with S (roughly ∝ 1/S; allow
        // generous slack for DP padding noise).
        assert!(
            report.avg_max_shard_qet_secs < prev_max_qet,
            "S={shards}: max-shard QET {} did not shrink below {prev_max_qet}",
            report.avg_max_shard_qet_secs
        );
        assert!(
            report.avg_max_shard_qet_secs < 0.85 * single.avg_max_shard_qet_secs,
            "S={shards}: max-shard QET {} not ≪ single-shard {}",
            report.avg_max_shard_qet_secs,
            single.avg_max_shard_qet_secs
        );
        prev_max_qet = report.avg_max_shard_qet_secs;
    }
    // At S = 8 the slowest shard scans less than half of the single-pair view.
    assert!(prev_max_qet < 0.5 * single.avg_max_shard_qet_secs);
}

/// The cluster trace keeps the Summary/StepRecord invariants the single-pair
/// reporting relies on (so Table-2 style tooling keeps working unchanged).
#[test]
fn cluster_report_preserves_reporting_invariants() {
    let report = ShardedSimulation::new(cpdb(50), timer(5), 4, 11).run();
    assert_eq!(report.horizon(), 50);
    assert_eq!(report.summary.queries_issued, 50);
    assert!(report.summary.avg_qet_secs > 0.0);
    assert!(report.summary.avg_transform_secs > 0.0);
    assert!(report.summary.total_mpc_secs > 0.0);
    let last = report.steps.last().unwrap();
    assert_eq!(
        last.view_len,
        report
            .shard_reports
            .iter()
            .map(|s| s.view_len)
            .sum::<usize>()
    );
    assert_eq!(
        report.summary.sync_count,
        report
            .shard_reports
            .iter()
            .map(|s| s.sync_count)
            .sum::<u64>()
    );
}
