//! The secure cache trims every run to a public bound `R` after each cut: a row
//! past it is a dummy with probability ≥ 1 − β per cut (`storage::cache`). These
//! are the trajectories the benchmark and the figures are read from, and on none
//! of them may a trim recycle a real row.

use incshrink::prelude::*;
use incshrink_mpc::cost::CostModel;

fn generate(kind: DatasetKind, steps: u64, seed: u64) -> Dataset {
    let params = |view_entries_per_step| WorkloadParams {
        steps,
        view_entries_per_step,
        seed,
    };
    match kind {
        DatasetKind::TpcDs => TpcDsGenerator::new(params(2.7)).generate(),
        DatasetKind::Cpdb => CpdbGenerator::new(params(9.8)).generate(),
    }
}

/// Run `config` over the whole of `dataset` and return the cache's
/// `(trimmed_real, recycled)`.
fn run(dataset: Dataset, config: IncShrinkConfig, seed: u64) -> (u64, u64) {
    let steps = dataset.params.steps;
    let mut pipeline = ShardPipeline::new(dataset, config, seed, CostModel::default());
    for t in 1..=steps {
        let _ = pipeline.advance(t);
    }
    let stats = pipeline.cache().stats();
    (stats.trimmed_real, stats.recycled)
}

/// `perf`'s two ingest workloads at their horizons, pipeline seeds and
/// configurations, at seeds 7, 101 and 102. The trim fires on every one.
#[test]
fn the_benchmark_ingest_runs_recycle_no_real_row() {
    let workloads = [
        (
            DatasetKind::TpcDs,
            2000,
            UpdateStrategy::DpTimer { interval: 10 },
        ),
        (
            DatasetKind::Cpdb,
            400,
            UpdateStrategy::DpTimer { interval: 3 },
        ),
    ];
    for (kind, steps, strategy) in workloads {
        let config = match kind {
            DatasetKind::TpcDs => IncShrinkConfig::tpcds_default(strategy),
            DatasetKind::Cpdb => IncShrinkConfig::cpdb_default(strategy),
        };
        for seed in [7, 101, 102] {
            let (trimmed_real, recycled) = run(generate(kind, steps, seed), config, seed ^ 0x7AB2);
            assert_eq!(trimmed_real, 0, "{kind} seed {seed}");
            assert!(recycled > 0, "{kind} seed {seed}: no trim fired");
        }
    }
}

/// The sweep's Figure 5 at its smallest ε (the largest `R`) and Figure 6's Burst
/// variant (the largest arrivals per cut), both DP protocols on both datasets, at
/// the sweep's default horizon and the figures' dataset and pipeline seeds.
#[test]
fn fig5_smallest_epsilon_and_fig6_burst_recycle_no_real_row() {
    const STEPS: u64 = 240;
    for kind in [DatasetKind::TpcDs, DatasetKind::Cpdb] {
        let rate = if kind == DatasetKind::TpcDs { 2.7 } else { 9.8 };
        let interval = IncShrinkConfig::timer_interval_for_threshold(30.0, rate);
        for strategy in [
            UpdateStrategy::DpTimer { interval },
            UpdateStrategy::DpAnt { threshold: 30.0 },
        ] {
            let config = match kind {
                DatasetKind::TpcDs => IncShrinkConfig::tpcds_default(strategy),
                DatasetKind::Cpdb => IncShrinkConfig::cpdb_default(strategy),
            };
            let fig5 = IncShrinkConfig {
                epsilon: 0.01,
                ..config
            };
            let (trimmed_real, _) = run(generate(kind, STEPS, 0xF155), fig5, 0x55);
            assert_eq!(trimmed_real, 0, "fig5 {kind} {}", strategy.label());
            let burst = to_burst(&generate(kind, STEPS, 0xF166), 1.0, 62);
            let (trimmed_real, _) = run(burst, config, 0x66);
            assert_eq!(trimmed_real, 0, "fig6 Burst {kind} {}", strategy.label());
        }
    }
}
