//! Integration tests for the workload generators feeding the framework: variants,
//! scaling, and the CPDB public-relation path all have to work end to end.

use incshrink::prelude::*;
use incshrink_cluster::ShardedSimulation;
use incshrink_workload::logical_join_count;

#[test]
fn sparse_standard_burst_preserve_framework_invariants() {
    let standard = TpcDsGenerator::new(WorkloadParams {
        steps: 60,
        view_entries_per_step: 2.7,
        seed: 41,
    })
    .generate();
    let q = JoinQuery { window: 10 };
    let standard_count = logical_join_count(&standard, &q, u64::MAX);

    for (name, ds) in [
        ("sparse", to_sparse(&standard, 0.1, 1)),
        ("standard", standard.clone()),
        ("burst", to_burst(&standard, 1.0, 2)),
    ] {
        let count = logical_join_count(&ds, &q, u64::MAX);
        match name {
            "sparse" => assert!(count < standard_count),
            "burst" => assert!(count > standard_count),
            _ => assert_eq!(count, standard_count),
        }
        let cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 11 });
        let report = ShardedSimulation::new(ds, cfg, 1, 10).run();
        let last = report.steps.last().unwrap();
        assert!(
            last.view_real as u64 <= last.true_count,
            "{name}: no overcount"
        );
        assert!(report.summary.avg_qet_secs > 0.0, "{name}: queries ran");
    }
}

#[test]
fn cpdb_public_relation_never_uploads_awards() {
    let ds = CpdbGenerator::new(WorkloadParams {
        steps: 40,
        view_entries_per_step: 9.8,
        seed: 42,
    })
    .generate();
    assert!(ds.right_is_public);
    let cfg = IncShrinkConfig::cpdb_default(UpdateStrategy::DpTimer { interval: 3 });
    let report = ShardedSimulation::new(ds, cfg, 1, 11).run();
    // With the award table public, the view still tracks the logical truth.
    let last = report.steps.last().unwrap();
    assert!(last.true_count > 0);
    assert!(last.view_real > 0);
    assert!(last.view_real as u64 <= last.true_count);
}

#[test]
fn scaled_workloads_run_end_to_end() {
    let base = TpcDsGenerator::new(WorkloadParams {
        steps: 40,
        view_entries_per_step: 2.7,
        seed: 43,
    })
    .generate();
    for scale in [0.5, 2.0] {
        let ds = scale_dataset(&base, scale, 3);
        let cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpAnt { threshold: 30.0 });
        let report = ShardedSimulation::new(ds, cfg, 1, 12).run();
        assert_eq!(report.horizon(), 40);
        assert!(report.summary.total_mpc_secs > 0.0);
    }
}

#[test]
fn truncation_bound_sweep_reduces_losses_monotonically() {
    // Figure 8 mechanism check: larger ω can only reduce the number of dropped pairs.
    let ds = CpdbGenerator::new(WorkloadParams {
        steps: 40,
        view_entries_per_step: 9.8,
        seed: 44,
    })
    .generate();
    let mut losses = Vec::new();
    for omega in [2u64, 8, 32] {
        let mut cfg = IncShrinkConfig::cpdb_default(UpdateStrategy::DpTimer { interval: 3 });
        cfg.truncation_bound = omega;
        cfg.contribution_budget = 2 * omega;
        let report = ShardedSimulation::new(ds.clone(), cfg, 1, 13).run();
        losses.push(report.summary.truncation_losses);
    }
    assert!(losses[0] >= losses[1]);
    assert!(losses[1] >= losses[2]);
    assert!(losses[0] > losses[2], "small ω must actually drop pairs");
}

#[test]
fn mean_arrival_rates_match_paper_statistics() {
    let tpcds = TpcDsGenerator::default_config().generate();
    let cpdb = CpdbGenerator::default_config().generate();
    let q = JoinQuery { window: 10 };
    let tpcds_rate = logical_join_count(&tpcds, &q, u64::MAX) as f64 / tpcds.params.steps as f64;
    let cpdb_rate = logical_join_count(&cpdb, &q, u64::MAX) as f64 / cpdb.params.steps as f64;
    assert!((tpcds_rate - 2.7).abs() < 0.7, "TPC-ds rate {tpcds_rate}");
    assert!((cpdb_rate - 9.8).abs() < 2.5, "CPDB rate {cpdb_rate}");
}
