//! The 3-way trade-off (Section 7.2): sweep the privacy parameter ε and report how
//! accuracy (avg L1 error) and efficiency (avg QET) respond for both DP protocols.
//!
//! ```bash
//! cargo run --example tradeoff_sweep --release
//! ```

use incshrink::prelude::*;
use incshrink_cluster::ShardedSimulation;

fn main() {
    let dataset = TpcDsGenerator::new(WorkloadParams {
        steps: 150,
        view_entries_per_step: 2.7,
        seed: 3,
    })
    .generate();

    let epsilons = [0.01, 0.1, 0.5, 1.5, 5.0, 50.0];

    println!("Privacy / accuracy / efficiency trade-off (TPC-ds-like workload)\n");
    println!(
        "{:>8} | {:>12} {:>12} | {:>12} {:>12}",
        "ε", "Timer L1", "Timer QET", "ANT L1", "ANT QET"
    );
    for &epsilon in &epsilons {
        let mut timer_cfg =
            IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 11 });
        timer_cfg.epsilon = epsilon;
        let timer = ShardedSimulation::new(dataset.clone(), timer_cfg, 1, 17).run();

        let mut ant_cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpAnt { threshold: 30.0 });
        ant_cfg.epsilon = epsilon;
        let ant = ShardedSimulation::new(dataset.clone(), ant_cfg, 1, 17).run();

        println!(
            "{:>8.2} | {:>12.2} {:>12.5} | {:>12.2} {:>12.5}",
            epsilon,
            timer.summary.avg_l1_error,
            timer.summary.avg_qet_secs,
            ant.summary.avg_l1_error,
            ant.summary.avg_qet_secs
        );
    }

    println!(
        "\nLarger ε (weaker privacy) shrinks both the deferred data and the number of dummy \
         tuples in the view, improving accuracy and query time — the trade-off of Figure 5."
    );
}
