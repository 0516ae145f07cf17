//! The single-pair run — a one-shard inline cluster — against the paper's
//! Table 2 orderings: the DP protocols track the truth, EP is exact but slower
//! and larger, OTM is fast but stale, NM is exact but much slower.

use incshrink::prelude::*;
use incshrink_cluster::{ClusterRunReport, ShardedSimulation};

fn tpcds_small() -> Dataset {
    TpcDsGenerator::new(WorkloadParams {
        steps: 60,
        view_entries_per_step: 2.7,
        seed: 21,
    })
    .generate()
}

fn cpdb_small() -> Dataset {
    CpdbGenerator::new(WorkloadParams {
        steps: 50,
        view_entries_per_step: 9.8,
        seed: 22,
    })
    .generate()
}

fn run(dataset: Dataset, config: IncShrinkConfig, seed: u64) -> ClusterRunReport {
    ShardedSimulation::new(dataset, config, 1, seed).run()
}

#[test]
fn dp_timer_run_produces_low_relative_error() {
    let cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
    let report = run(tpcds_small(), cfg, 1);
    assert_eq!(report.horizon(), 60);
    assert!(report.summary.sync_count >= 5, "periodic updates happened");
    assert!(
        report.summary.avg_relative_error < 0.6,
        "avg relative error {} too large",
        report.summary.avg_relative_error
    );
    assert!(report.summary.avg_qet_secs > 0.0);
    assert!(report.summary.avg_transform_secs > 0.0);
    // The final view contains most of the true entries.
    let last = report.steps.last().unwrap();
    assert!(last.view_real as u64 <= last.true_count);
    assert!(last.view_real as f64 >= last.true_count as f64 * 0.5);
}

#[test]
fn dp_ant_run_on_cpdb_tracks_truth() {
    let cfg = IncShrinkConfig::cpdb_default(UpdateStrategy::DpAnt { threshold: 30.0 });
    let report = run(cpdb_small(), cfg, 2);
    assert!(report.summary.sync_count >= 3);
    assert!(
        report.summary.avg_relative_error < 0.6,
        "avg relative error {}",
        report.summary.avg_relative_error
    );
}

#[test]
fn ep_is_exact_but_slower_and_larger_than_dp() {
    let ds = tpcds_small();
    let dp_cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
    let ep_cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::ExhaustivePadding);
    let dp = run(ds.clone(), dp_cfg, 3);
    let ep = run(ds, ep_cfg, 3);

    assert!(ep.summary.avg_l1_error <= dp.summary.avg_l1_error + 1e-9);
    assert!(ep.summary.avg_qet_secs > dp.summary.avg_qet_secs);
    assert!(ep.summary.final_view_mb > dp.summary.final_view_mb);
}

#[test]
fn otm_is_fast_but_inaccurate() {
    let ds = tpcds_small();
    let otm_cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::OneTimeMaterialization);
    let otm = run(ds, otm_cfg, 4);
    // Relative error converges towards 1 because the view never updates.
    assert!(otm.summary.avg_relative_error > 0.7);
    assert!(otm.summary.final_view_mb < 0.01);
}

#[test]
fn nm_is_exact_but_much_slower_than_view_based() {
    let ds = tpcds_small();
    let nm_cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::NonMaterialized);
    let dp_cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
    let nm = run(ds.clone(), nm_cfg, 5);
    let dp = run(ds, dp_cfg, 5);

    assert!(nm.summary.avg_l1_error < 1e-9, "NM recomputes exactly");
    assert!(
        nm.summary.avg_qet_secs > dp.summary.avg_qet_secs * 5.0,
        "NM {} vs DP {}",
        nm.summary.avg_qet_secs,
        dp.summary.avg_qet_secs
    );
    assert_eq!(nm.summary.sync_count, 0);
}
