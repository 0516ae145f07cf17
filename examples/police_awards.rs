//! CPDB-style workload (Q2): count how many times an officer received an award within
//! 10 days of a sustained misconduct allegation. The Allegation relation is private;
//! the Award relation is public, so only allegations are uploaded by an owner client
//! and the view joins each new allegation against the public award table.
//!
//! This example exercises the truncation bound ω: Q2 has join multiplicity greater
//! than one, so a small ω drops real view entries while a large ω only adds noise.
//!
//! ```bash
//! cargo run --example police_awards --release
//! ```

use incshrink::prelude::*;
use incshrink_cluster::ShardedSimulation;

fn main() {
    let dataset = CpdbGenerator::new(WorkloadParams {
        steps: 120,
        view_entries_per_step: 9.8,
        seed: 5,
    })
    .generate();

    println!("CPDB-like Allegation ⋈ Award workload (sDPANT, ε = 1.5)\n");
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>16}",
        "ω", "b", "avg L1", "rel. error", "truncation loss"
    );

    for omega in [2u64, 5, 10, 20] {
        let mut config = IncShrinkConfig::cpdb_default(UpdateStrategy::DpAnt { threshold: 30.0 });
        config.truncation_bound = omega;
        config.contribution_budget = 2 * omega;
        let report = ShardedSimulation::new(dataset.clone(), config, 1, 0xCB0 + omega).run();
        let s = &report.summary;
        println!(
            "{:>6} {:>6} {:>12.2} {:>12.3} {:>16}",
            omega,
            2 * omega,
            s.avg_l1_error,
            s.avg_relative_error,
            s.truncation_losses
        );
    }

    println!(
        "\nSmall ω discards real join tuples (large truncation loss, larger error); once ω \
         exceeds the maximum per-allegation award count the loss vanishes and only the DP \
         noise contributes to the error — the behaviour of Figure 8 in the paper."
    );
}
