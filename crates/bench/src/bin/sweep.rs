//! Regenerate the paper's evaluation: **Table 2** and **Figures 4–9**, plus the
//! cluster **scale-out** sweep. Each named experiment prints its table (CSV for
//! the figures) and writes `results/<name>.json`; with no name, all of them run.
//!
//! ```bash
//! cargo run --release -p incshrink-bench --bin sweep -- fig5 table2
//! INCSHRINK_BENCH_STEPS=60 cargo run --release -p incshrink-bench --bin sweep -- scaleout
//! ```
//!
//! | name       | what it sweeps |
//! |------------|----------------|
//! | `table2`   | DP-Timer, DP-ANT, OTM, EP and NM on both workloads: errors, times, view size |
//! | `fig4`     | the same five strategies as an avg-L1-error vs avg-QET scatter |
//! | `fig5`     | ε from 0.01 to 50 for sDPTimer and sDPANT |
//! | `fig6`     | sDPTimer vs sDPANT on Sparse / Standard / Burst workloads |
//! | `fig7`     | T ∈ [1, 100] (θ = rate·T for sDPANT) at ε ∈ {0.1, 1, 10} |
//! | `fig8`     | the truncation bound ω ∈ [2, 32] on CPDB (b = 2ω) |
//! | `fig9`     | the data scale 0.5×–4×: total MPC and query time |
//! | `scaleout` | S ∈ {1, 2, 4, 8} shards, co-partitioned and shuffled |
//!
//! An unknown name exits with status 2 and lists the valid ones.

use incshrink_bench::experiments::{select, Experiment};

fn main() {
    let _telemetry = incshrink_bench::init();
    let names: Vec<String> = std::env::args().skip(1).collect();
    let experiments: Vec<&Experiment> = select(&names).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    let steps = incshrink_bench::default_steps();
    for experiment in experiments {
        experiment.run(steps);
    }
}
