//! Regenerate **Figure 8**: the effect of the truncation bound ω on the CPDB workload
//! (Q2): average L1 error, average QET, average Transform execution time and average
//! Shrink execution time for ω ∈ [2, 32] with b = 2ω.
//!
//! ```bash
//! cargo run -p incshrink-bench --bin fig8 --release
//! ```

use incshrink::prelude::*;
use incshrink_bench::experiments::default_config;
use incshrink_bench::{build_dataset, default_steps, print_csv, write_json, ExperimentPoint};

fn main() {
    let _telemetry = incshrink_bench::init();
    let steps = default_steps();
    let dataset = build_dataset(DatasetKind::Cpdb, steps, 0xF188);
    let omegas = [2u64, 4, 8, 12, 16, 24, 32];
    let interval = IncShrinkConfig::timer_interval_for_threshold(30.0, 9.8);
    let mut rows = Vec::new();
    let mut points = Vec::new();

    for &omega in &omegas {
        for strategy in [
            UpdateStrategy::DpTimer { interval },
            UpdateStrategy::DpAnt { threshold: 30.0 },
        ] {
            let mut config = default_config(DatasetKind::Cpdb, strategy);
            config.truncation_bound = omega;
            config.contribution_budget = 2 * omega;
            config.query_interval = 2;
            let report = Simulation::new(dataset.clone(), config, 0x88).run();
            let s = &report.summary;
            rows.push(vec![
                strategy.label().to_string(),
                omega.to_string(),
                format!("{:.3}", s.avg_l1_error),
                format!("{:.6}", s.avg_qet_secs),
                format!("{:.4}", s.avg_transform_secs),
                format!("{:.4}", s.avg_shrink_secs),
                s.truncation_losses.to_string(),
            ]);
            points.push(ExperimentPoint::from_report(
                omega as f64,
                format!("{}/CPDB", strategy.label()),
                &report,
            ));
        }
    }

    println!("# Figure 8: truncation bound ω sweep on the CPDB workload (b = 2ω)");
    print_csv(
        &[
            "strategy",
            "omega",
            "avg_l1_error",
            "avg_qet_secs",
            "avg_transform_secs",
            "avg_shrink_secs",
            "truncation_losses",
        ],
        &rows,
    );
    write_json("fig8", &points);
    println!(
        "# Expected shape: error drops sharply as ω grows past the maximum record\n\
         # multiplicity (truncation losses vanish), then flattens / worsens slightly as the\n\
         # extra DP noise dominates; QET decreases for small ω (smaller view) and degrades\n\
         # for large ω; Shrink time grows with ω and Transform time more slowly (each\n\
         # per-outer buffer keeps its first ω slots through a top-ω selection network,\n\
         # which approaches a full sort of the window as ω grows)."
    );
}
