//! Compare sDPTimer and sDPANT on Sparse / Standard / Burst workloads (Section 7.3).
//!
//! sDPTimer synchronizes on a fixed schedule, so it keeps up with sparse data but lets
//! bursts pile up in the cache; sDPANT adapts its update frequency to the data rate,
//! so it wins on bursts but defers sparse data for a long time.
//!
//! ```bash
//! cargo run --example workload_comparison --release
//! ```

use incshrink::prelude::*;
use incshrink_cluster::{ClusterRunReport, ShardedSimulation};

fn run(strategy: UpdateStrategy, dataset: &Dataset) -> ClusterRunReport {
    let config = IncShrinkConfig::tpcds_default(strategy);
    ShardedSimulation::new(dataset.clone(), config, 1, 0x50C1A1).run()
}

fn main() {
    let standard = TpcDsGenerator::new(WorkloadParams {
        steps: 150,
        view_entries_per_step: 2.7,
        seed: 31,
    })
    .generate();
    let sparse = to_sparse(&standard, 0.1, 1);
    let burst = to_burst(&standard, 1.0, 2);

    println!("DP protocols under different workload shapes (ε = 1.5)\n");
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>14}",
        "workload", "Timer L1", "ANT L1", "Timer QET", "ANT QET"
    );
    for (name, dataset) in [
        ("Sparse", &sparse),
        ("Standard", &standard),
        ("Burst", &burst),
    ] {
        let timer = run(UpdateStrategy::DpTimer { interval: 11 }, dataset);
        let ant = run(UpdateStrategy::DpAnt { threshold: 30.0 }, dataset);
        println!(
            "{:<10} {:>14.2} {:>14.2} {:>14.5} {:>14.5}",
            name,
            timer.summary.avg_l1_error,
            ant.summary.avg_l1_error,
            timer.summary.avg_qet_secs,
            ant.summary.avg_qet_secs
        );
    }

    println!(
        "\nExpected shape (Figure 6): sDPTimer is more accurate on Sparse data, sDPANT is \
         more accurate on Burst data, and their efficiency is similar everywhere."
    );
}
