//! End-to-end integration tests: run the full framework over generated workloads and
//! check the invariants that tie all the crates together.

use incshrink::prelude::*;
use incshrink_cluster::ShardedSimulation;

fn tpcds(steps: u64, seed: u64) -> Dataset {
    TpcDsGenerator::new(WorkloadParams {
        steps,
        view_entries_per_step: 2.7,
        seed,
    })
    .generate()
}

fn cpdb(steps: u64, seed: u64) -> Dataset {
    CpdbGenerator::new(WorkloadParams {
        steps,
        view_entries_per_step: 9.8,
        seed,
    })
    .generate()
}

#[test]
fn timer_view_never_overcounts_and_eventually_catches_up() {
    let cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
    let report = ShardedSimulation::new(tpcds(80, 1), cfg, 1, 11).run();

    for step in &report.steps {
        // The view never contains more real entries than the logical truth: every real
        // view entry corresponds to a real join pair.
        assert!(
            step.view_real as u64 <= step.true_count,
            "step {}: view {} > truth {}",
            step.time,
            step.view_real,
            step.true_count
        );
        // The view plus what is still cached covers most of the truth: nothing is lost,
        // only deferred (small slack allowed for truncation/budget retirement).
        let covered = step.view_real + step.cache_len.min(step.true_count as usize);
        assert!(covered as u64 + 5 >= step.true_count.saturating_sub(30));
    }
    let last = report.steps.last().unwrap();
    assert!(
        last.view_real as f64 >= last.true_count as f64 * 0.5,
        "view should track the truth: {} vs {}",
        last.view_real,
        last.true_count
    );
}

#[test]
fn ant_behaves_on_cpdb_with_public_relation() {
    let cfg = IncShrinkConfig::cpdb_default(UpdateStrategy::DpAnt { threshold: 30.0 });
    let report = ShardedSimulation::new(cpdb(60, 2), cfg, 1, 12).run();
    assert!(
        report.summary.sync_count > 0,
        "ANT must fire on a dense stream"
    );
    assert!(report.summary.avg_relative_error < 0.7);
    // Every synchronization increases (or keeps) the view length.
    let mut prev = 0usize;
    for step in &report.steps {
        assert!(step.view_len >= prev);
        prev = step.view_len;
    }
}

#[test]
fn query_interval_controls_number_of_queries() {
    let mut cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
    cfg.query_interval = 4;
    let report = ShardedSimulation::new(tpcds(40, 3), cfg, 1, 13).run();
    assert_eq!(report.summary.queries_issued, 10);
    let answered = report.steps.iter().filter(|s| s.answer.is_some()).count();
    assert_eq!(answered, 10);
    for step in &report.steps {
        assert_eq!(step.answer.is_some(), step.time % 4 == 0);
    }
}

#[test]
fn deterministic_given_same_seed() {
    let ds = tpcds(40, 4);
    let cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
    let a = ShardedSimulation::new(ds.clone(), cfg, 1, 99).run();
    let b = ShardedSimulation::new(ds, cfg, 1, 99).run();
    assert_eq!(a.summary, b.summary);
    assert_eq!(a.steps, b.steps);
}

#[test]
fn different_seeds_change_the_noise_but_not_the_truth() {
    let ds = tpcds(40, 5);
    let cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
    let a = ShardedSimulation::new(ds.clone(), cfg, 1, 1).run();
    let b = ShardedSimulation::new(ds, cfg, 1, 2).run();
    let truth_a: Vec<u64> = a.steps.iter().map(|s| s.true_count).collect();
    let truth_b: Vec<u64> = b.steps.iter().map(|s| s.true_count).collect();
    assert_eq!(truth_a, truth_b, "ground truth is data, not noise");
    assert_ne!(
        a.steps.iter().map(|s| s.view_len).collect::<Vec<_>>(),
        b.steps.iter().map(|s| s.view_len).collect::<Vec<_>>(),
        "DP noise differs across seeds"
    );
}

#[test]
fn shrink_time_is_only_charged_when_work_happens() {
    let cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 20 });
    let report = ShardedSimulation::new(tpcds(40, 6), cfg, 1, 7).run();
    for step in &report.steps {
        if step.synced {
            assert!(step.shrink_secs > 0.0);
        }
    }
    assert!(report.summary.avg_shrink_secs > 0.0);
    // Transform runs every step for DP strategies.
    assert!(report.steps.iter().all(|s| s.transform_secs > 0.0));
}

#[test]
fn wan_cost_model_slows_everything_down_but_keeps_accuracy() {
    use incshrink_mpc::cost::CostModel;
    let ds = tpcds(40, 8);
    let cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
    let lan = ShardedSimulation::new(ds.clone(), cfg, 1, 3).run();
    let wan = ShardedSimulation::new(ds, cfg, 1, 3)
        .with_cost_model(CostModel::wan())
        .run();
    assert!(wan.summary.total_mpc_secs > lan.summary.total_mpc_secs);
    assert!((wan.summary.avg_l1_error - lan.summary.avg_l1_error).abs() < 1e-9);
}
