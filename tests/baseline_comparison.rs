//! Integration tests checking that the relative ordering of the baselines matches the
//! paper's Table 2 / Figure 4: the claims IncShrink's evaluation rests on are about
//! *who wins on which axis*, and those orderings must hold on the synthetic workloads.

use incshrink::prelude::*;
use incshrink_cluster::ShardedSimulation;

fn dataset(kind: DatasetKind, steps: u64, seed: u64) -> Dataset {
    let params = WorkloadParams {
        steps,
        view_entries_per_step: if kind == DatasetKind::TpcDs { 2.7 } else { 9.8 },
        seed,
    };
    match kind {
        DatasetKind::TpcDs => TpcDsGenerator::new(params).generate(),
        DatasetKind::Cpdb => CpdbGenerator::new(params).generate(),
    }
}

fn run(ds: &Dataset, strategy: UpdateStrategy, seed: u64) -> Summary {
    let mut cfg = match ds.kind {
        DatasetKind::TpcDs => IncShrinkConfig::tpcds_default(strategy),
        DatasetKind::Cpdb => IncShrinkConfig::cpdb_default(strategy),
    };
    cfg.query_interval = 5;
    ShardedSimulation::new(ds.clone(), cfg, 1, seed)
        .run()
        .summary
}

struct AllRuns {
    timer: Summary,
    ant: Summary,
    otm: Summary,
    ep: Summary,
    nm: Summary,
}

fn run_all(kind: DatasetKind) -> AllRuns {
    let ds = dataset(kind, 120, 0xBEEF);
    let rate = if kind == DatasetKind::TpcDs { 2.7 } else { 9.8 };
    let interval = IncShrinkConfig::timer_interval_for_threshold(30.0, rate);
    AllRuns {
        timer: run(&ds, UpdateStrategy::DpTimer { interval }, 1),
        ant: run(&ds, UpdateStrategy::DpAnt { threshold: 30.0 }, 1),
        otm: run(&ds, UpdateStrategy::OneTimeMaterialization, 1),
        ep: run(&ds, UpdateStrategy::ExhaustivePadding, 1),
        nm: run(&ds, UpdateStrategy::NonMaterialized, 1),
    }
}

#[test]
fn table2_orderings_hold_on_tpcds() {
    let r = run_all(DatasetKind::TpcDs);

    // Accuracy: EP and NM are exact; DP protocols have small relative error; OTM is
    // useless (relative error near 1).
    assert!(r.nm.avg_l1_error < 1e-9);
    assert!(r.ep.avg_l1_error <= r.timer.avg_l1_error + 1e-9);
    assert!(r.timer.avg_relative_error < 0.5);
    assert!(r.ant.avg_relative_error < 0.5);
    assert!(r.otm.avg_relative_error > 0.7);
    assert!(r.otm.avg_l1_error > 2.0 * r.timer.avg_l1_error.max(0.1));
    assert!(r.otm.avg_relative_error > r.timer.avg_relative_error + 0.2);

    // Efficiency: view-based strategies beat NM by a large factor; DP beats EP.
    assert!(r.nm.avg_qet_secs > r.timer.avg_qet_secs * 5.0);
    assert!(r.nm.avg_qet_secs > r.ep.avg_qet_secs);
    assert!(r.ep.avg_qet_secs > r.timer.avg_qet_secs);
    assert!(r.ep.avg_qet_secs > r.ant.avg_qet_secs);
    assert!(r.otm.avg_qet_secs <= r.timer.avg_qet_secs);

    // Storage: the DP view is far smaller than the exhaustively padded one.
    assert!(r.ep.final_view_mb > r.timer.final_view_mb * 2.0);
    assert!(r.ep.final_view_mb > r.ant.final_view_mb * 2.0);
    assert!(r.otm.final_view_mb < r.timer.final_view_mb);
}

#[test]
fn table2_orderings_hold_on_cpdb() {
    let r = run_all(DatasetKind::Cpdb);

    assert!(r.nm.avg_l1_error < 1e-9);
    assert!(r.timer.avg_relative_error < 0.5);
    assert!(r.ant.avg_relative_error < 0.5);
    assert!(r.otm.avg_relative_error > 0.7);

    assert!(r.nm.avg_qet_secs > r.timer.avg_qet_secs * 5.0);
    assert!(r.ep.avg_qet_secs > r.timer.avg_qet_secs);
    assert!(r.ep.final_view_mb > r.timer.final_view_mb * 2.0);
}

#[test]
fn dp_protocols_trade_privacy_for_accuracy_and_efficiency() {
    // Figure 5 shape: larger ε ⇒ smaller (or equal) error and faster queries for
    // sDPTimer; both protocols' QET shrinks as ε grows.
    let ds = dataset(DatasetKind::TpcDs, 80, 0xCAFE);
    let run_eps = |strategy: UpdateStrategy, eps: f64| {
        let mut cfg = IncShrinkConfig::tpcds_default(strategy);
        cfg.epsilon = eps;
        cfg.query_interval = 2;
        ShardedSimulation::new(ds.clone(), cfg, 1, 9).run().summary
    };

    let timer_tight = run_eps(UpdateStrategy::DpTimer { interval: 11 }, 0.05);
    let timer_loose = run_eps(UpdateStrategy::DpTimer { interval: 11 }, 10.0);
    assert!(timer_loose.avg_l1_error <= timer_tight.avg_l1_error);
    assert!(timer_loose.avg_qet_secs <= timer_tight.avg_qet_secs * 1.2);

    let ant_tight = run_eps(UpdateStrategy::DpAnt { threshold: 30.0 }, 0.05);
    let ant_loose = run_eps(UpdateStrategy::DpAnt { threshold: 30.0 }, 10.0);
    assert!(ant_loose.avg_qet_secs <= ant_tight.avg_qet_secs * 1.2);
}

#[test]
fn timer_wins_on_sparse_ant_wins_on_burst() {
    // Figure 6 shape: sDPANT's relative advantage over sDPTimer must grow when moving
    // from sparse to burst data (it adapts its update frequency to the data rate),
    // while on sparse data sDPTimer must not be meaningfully worse. Averaged over
    // several seeds because a single DP run is noisy.
    let base = dataset(DatasetKind::TpcDs, 120, 0xD00D);
    let sparse = to_sparse(&base, 0.1, 5);
    let burst = to_burst(&base, 1.0, 6);

    let avg_l1 = |ds: &Dataset, strategy: UpdateStrategy| -> f64 {
        let runs = 3;
        (0..runs)
            .map(|seed| run(ds, strategy, seed).avg_l1_error)
            .sum::<f64>()
            / runs as f64
    };

    let timer_sparse = avg_l1(&sparse, UpdateStrategy::DpTimer { interval: 11 });
    let ant_sparse = avg_l1(&sparse, UpdateStrategy::DpAnt { threshold: 30.0 });
    let timer_burst = avg_l1(&burst, UpdateStrategy::DpTimer { interval: 11 });
    let ant_burst = avg_l1(&burst, UpdateStrategy::DpAnt { threshold: 30.0 });

    // ANT's advantage (timer error minus ANT error) must be larger on burst data than
    // on sparse data — the crossover Figure 6 shows.
    let advantage_sparse = timer_sparse - ant_sparse;
    let advantage_burst = timer_burst - ant_burst;
    assert!(
        advantage_burst > advantage_sparse,
        "ANT advantage should grow with burstiness: sparse {advantage_sparse:.2}, \
         burst {advantage_burst:.2}"
    );
    // On sparse data the fixed-schedule timer keeps up: it is not meaningfully worse
    // than ANT.
    assert!(
        timer_sparse <= ant_sparse * 1.5 + 2.0,
        "timer {timer_sparse:.2} vs ant {ant_sparse:.2} on sparse"
    );
    // On burst data ANT is not meaningfully worse than the timer.
    assert!(
        ant_burst <= timer_burst * 1.5 + 2.0,
        "ant {ant_burst:.2} vs timer {timer_burst:.2} on burst"
    );
}

#[test]
fn scaling_increases_total_mpc_time_roughly_linearly() {
    // Figure 9 shape: 2x data ⇒ roughly 2x (at least 1.3x, at most 4x) total MPC time.
    let base = dataset(DatasetKind::TpcDs, 60, 0xACE);
    let doubled = scale_dataset(&base, 2.0, 7);
    let cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 11 });
    let small = ShardedSimulation::new(base, cfg, 1, 2).run().summary;
    let large = ShardedSimulation::new(doubled, cfg, 1, 2).run().summary;
    let ratio = large.total_mpc_secs / small.total_mpc_secs;
    assert!(
        ratio > 1.3 && ratio < 4.5,
        "total MPC time should scale with data volume, ratio {ratio}"
    );
}
