//! The paper's motivating use case (Section 1): a retail store and a courier company
//! outsource their private sales and delivery data; the store owner wants to know how
//! many products were delivered on time without the servers recomputing the join for
//! every query.
//!
//! This example compares the view-based DP strategies against the non-materialized
//! baseline on the same workload and prints the efficiency gap.
//!
//! ```bash
//! cargo run --example retail_delivery --release
//! ```

use incshrink::prelude::*;
use incshrink_cluster::{ClusterRunReport, ShardedSimulation};

fn run(strategy: UpdateStrategy, dataset: &Dataset) -> ClusterRunReport {
    let mut config = IncShrinkConfig::tpcds_default(strategy);
    // Queries every 5 steps keep the NM baseline's simulated cost manageable.
    config.query_interval = 5;
    ShardedSimulation::new(dataset.clone(), config, 1, 0xDE11).run()
}

fn main() {
    // Sales and delivery records arriving daily; a delivery is "on time" when it
    // happens within 10 days of the sale (same shape as Q1).
    let dataset = TpcDsGenerator::new(WorkloadParams {
        steps: 150,
        view_entries_per_step: 2.7,
        seed: 99,
    })
    .generate();

    let timer = run(UpdateStrategy::DpTimer { interval: 11 }, &dataset);
    let ant = run(UpdateStrategy::DpAnt { threshold: 30.0 }, &dataset);
    let nm = run(UpdateStrategy::NonMaterialized, &dataset);

    println!("Retail / courier on-time delivery query (view-based vs non-materialized)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>14}",
        "strategy", "avg L1", "rel. error", "avg QET (s)", "total MPC (s)"
    );
    for report in [&timer, &ant, &nm] {
        let s = &report.summary;
        println!(
            "{:<10} {:>12.2} {:>12.3} {:>14.4} {:>14.1}",
            report.config.strategy.label(),
            s.avg_l1_error,
            s.avg_relative_error,
            s.avg_qet_secs,
            s.total_mpc_secs
        );
    }

    let speedup = nm.summary.avg_qet_secs / timer.summary.avg_qet_secs.max(1e-12);
    println!(
        "\nsDPTimer answers the analyst's query {speedup:.0}x faster than recomputing the \
         join for every request, at {:.1}% average relative error.",
        timer.summary.avg_relative_error * 100.0
    );
}
