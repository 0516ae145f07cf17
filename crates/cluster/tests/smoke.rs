//! Smoke tests for the cluster crate: a short single-pair run, 1-shard
//! equivalence with a hand-stepped pipeline, scale-out behaviour of the
//! scatter-gather executor, and the composed DP error bound for S > 1.

use incshrink::prelude::*;
use incshrink_cluster::sharded::{ClusterRunReport, ShardReport};
use incshrink_cluster::{ScatterGatherExecutor, ShardRouter, ShardedSimulation};
use incshrink_mpc::circuit::Reduction;
use incshrink_mpc::cost::{CostModel, CostReport, SimDuration};
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

#[test]
fn short_simulation_produces_sane_summary() {
    let config = timer(10);
    assert!(config.validate().is_none(), "default config is valid");

    let report = ShardedSimulation::new(tpcds(30), config, 1, 0xFEED).run();
    assert_eq!(report.horizon(), 30);
    assert!(report.summary.queries_issued > 0);
    assert!(
        report.summary.sync_count >= 2,
        "two timer firings in 30 steps"
    );
    assert!(report.summary.avg_l1_error.is_finite());
    assert!(report.summary.total_mpc_secs > 0.0);
}

/// Acceptance criterion: a 1-shard cluster reproduces the single server pair
/// *exactly* on the same seed — the reference is one `ShardPipeline` stepped by
/// hand (advance, then the counting query on query steps), checked at every
/// step: the answers, the view and cache lengths, the sync flags and the
/// modeled times.
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
        let cluster = ShardedSimulation::new(dataset.clone(), config, 1, seed).run();
        let mut single = ShardPipeline::new(dataset, config, seed, CostModel::default());
        assert_eq!(cluster.horizon(), single.steps());
        let secs = |d: Option<SimDuration>| d.map_or(0.0, SimDuration::as_secs_f64);
        for step in &cluster.steps {
            let t = step.time;
            let outcome = single.advance(t);
            let query =
                (t % config.query_interval == 0).then(|| single.answer_query(&Query::count(), t));
            let view = single.view();
            assert_eq!(
                (step.answer, step.qet_secs),
                (
                    query.as_ref().map(|q| q.value.expect_scalar()),
                    secs(query.map(|q| q.qet))
                ),
                "t={t}: answer"
            );
            assert_eq!(step.true_count, single.true_count(t), "t={t}: truth");
            assert_eq!(
                (step.view_len, step.view_real, step.cache_len),
                (view.len(), view.true_cardinality(), single.cache_len()),
                "t={t}: view and cache lengths"
            );
            assert_eq!(step.synced, outcome.synced, "t={t}: sync flag");
            assert_eq!(
                (step.transform_secs, step.shrink_secs),
                (
                    secs(outcome.transform_duration),
                    secs(outcome.shrink_duration)
                ),
                "t={t}: modeled times"
            );
        }
        assert_eq!(cluster.summary.sync_count, single.view().sync_count());
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

/// Acceptance criterion, over seeds 1–10: for S ∈ {2, 4, 8} the cluster answer
/// stays within the ε/S-composed DP bound, and the slowest per-shard view scan is
/// shorter than the single pair's by the mechanism that makes it. A scan's QET is
/// a per-query constant (its round and the revealed answer) plus a price per view
/// row, so at the last query the slowest shard's QET net of that constant, over the
/// single pair's, is exactly its share of the single pair's view rows. That share
/// stays below 1; its real rows' share falls with S (≈ 1/S), while each shard's DP
/// padding, drawn at ε/S, grows with S — which is why the whole share need not fall
/// from S = 4 to S = 8.
#[test]
fn scale_out_error_stays_within_composed_bound_and_scans_shrink() {
    // CPDB's ~9.8 view entries per step make real entries dominate the DP padding,
    // which is the regime where sharding pays off.
    let config = IncShrinkConfig::cpdb_default(UpdateStrategy::DpTimer { interval: 3 });
    let dataset = cpdb(120);
    let model = CostModel::default();
    // What a count scan costs whatever the view's length: its round and the
    // revealed 8-byte answer.
    let constant = model
        .simulate(&CostReport {
            bytes_communicated: 8,
            rounds: 1,
            ..CostReport::default()
        })
        .as_secs_f64();
    let last_qet = |report: &ClusterRunReport| {
        let last = report.steps.last().expect("a horizon of steps");
        assert!(last.answer.is_some(), "the last step queries");
        let merge = ScatterGatherExecutor::aggregation_cost_for_width(report.shards, 1);
        last.qet_secs - model.simulate(&merge).as_secs_f64() - constant
    };
    // The slowest shard's view rows and real view rows at the end of the run.
    let largest = |report: &ClusterRunReport, rows: fn(&ShardReport) -> usize| {
        let rows = report.shard_reports.iter().map(rows);
        rows.max().expect("a shard") as f64
    };
    let all = |shard: &ShardReport| shard.view_len;
    let real = |shard: &ShardReport| shard.view_real;
    for seed in 1..=10u64 {
        let single = ShardedSimulation::new(dataset.clone(), config, 1, seed).run();
        let (single_qet, single_rows) = (last_qet(&single), largest(&single, all));
        let single_reals = largest(&single, real);
        // A count scan's net price: a per-row price, then one adder tree over the
        // rows' selection bits.
        let tree = |rows: f64| {
            let ands = Reduction::Count { rows: rows as u64 }.ands();
            ands as f64 * model.secs_per_and
        };
        let per_row = (single_qet - tree(single_rows)) / single_rows;
        let mut prev_real_share = 1.0;
        for shards in [2usize, 4, 8] {
            let report = ShardedSimulation::new(dataset.clone(), config, shards, seed).run();

            // Composed error bound: each shard's backlog at query time is governed by
            // its Laplace read-size noise of scale b/(ε/S); summed over S shards the
            // expected deviation from the single-pair run is at most S · b·S/ε
            // (E|Lap(λ)| = λ), doubled for slack on short horizons.
            let lap_scale = config.contribution_budget as f64 * shards as f64 / config.epsilon;
            let bound = 2.0 * shards as f64 * lap_scale;
            assert!(
                report.summary.avg_l1_error <= single.summary.avg_l1_error + bound,
                "seed {seed}, S={shards}: avg L1 {} vs single {} + bound {bound}",
                report.summary.avg_l1_error,
                single.summary.avg_l1_error
            );
            // Answers remain usable, not just bounded.
            assert!(
                report.summary.avg_relative_error < 1.0,
                "seed {seed}, S={shards}: rel err {}",
                report.summary.avg_relative_error
            );

            // The slowest shard's scan, net of the per-query constant, is the
            // single pair's per-row price times its view rows plus the count's
            // adder tree over them: less than the single pair's, on less than all
            // of its rows.
            let rows = largest(&report, all);
            let share = rows / single_rows;
            let ratio = last_qet(&report) / single_qet;
            let want = (per_row * rows + tree(rows)) / single_qet;
            assert!(
                (ratio - want).abs() < 1e-6,
                "seed {seed}, S={shards}: net QET ratio {ratio} against {want} for a row \
                 share {share}"
            );
            assert!(share < 1.0, "seed {seed}, S={shards}: row share {share}");
            assert!(
                ratio < 1.0,
                "seed {seed}, S={shards}: net QET ratio {ratio}"
            );
            // Its real rows are split S ways.
            let real_share = largest(&report, real) / single_reals;
            assert!(
                real_share < prev_real_share,
                "seed {seed}, S={shards}: the slowest shard's real-row share {real_share} \
                 did not fall below {prev_real_share}"
            );
            prev_real_share = real_share;
        }
    }
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
