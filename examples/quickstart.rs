//! Quickstart: run IncShrink with the paper's default configuration on a small
//! TPC-ds-like workload and print the Table-2 style summary.
//!
//! ```bash
//! cargo run --example quickstart --release
//! ```

use incshrink::prelude::*;
use incshrink_cluster::ShardedSimulation;

fn main() {
    // 1. Generate a growing workload: Sales ⋈ Returns with a 10-day window, ~2.7 new
    //    view entries per day, 180 upload epochs.
    let dataset = TpcDsGenerator::new(WorkloadParams {
        steps: 180,
        view_entries_per_step: 2.7,
        seed: 7,
    })
    .generate();

    // 2. Configure the framework: sDPTimer with the paper's defaults (ε = 1.5, ω = 1,
    //    b = 10, cache flush every 2000 steps with size 15). The timer interval is
    //    derived from the sDPANT threshold θ = 30 and the workload's view-entry rate.
    let interval = IncShrinkConfig::timer_interval_for_threshold(30.0, 2.7);
    let config = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval });

    // 3. Run the end-to-end simulation: owners upload padded batches, Transform caches
    //    truncated join results, Shrink synchronizes DP-sized batches, and the analyst
    //    issues the counting query every step.
    let report = ShardedSimulation::new(dataset, config, 1, 0xC0FFEE).run();

    // 4. Inspect the results.
    let s = &report.summary;
    println!(
        "IncShrink quickstart ({} / sDPTimer, T = {interval})",
        report.dataset
    );
    println!("  steps simulated        : {}", report.horizon());
    println!("  view synchronizations  : {}", s.sync_count);
    println!("  avg L1 error           : {:.2}", s.avg_l1_error);
    println!("  avg relative error     : {:.3}", s.avg_relative_error);
    println!("  avg QET                : {:.4} s", s.avg_qet_secs);
    println!("  avg Transform time     : {:.3} s", s.avg_transform_secs);
    println!("  avg Shrink time        : {:.3} s", s.avg_shrink_secs);
    println!("  final view size        : {:.3} MB", s.final_view_mb);
    println!("  total MPC time         : {:.1} s", s.total_mpc_secs);

    let last = report.steps.last().expect("non-empty run");
    println!(
        "  final step: true count {} vs view answer {:?}",
        last.true_count, last.answer
    );
}
