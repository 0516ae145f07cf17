//! Incremental-Transform sweep: `k`-step join batching on both evaluation workloads.
//!
//! For each batching factor `k ∈ {1, 2, 4, 8}` the sweep runs the default `sDPTimer`
//! configuration and reports the total secure-compare count Transform metered, the
//! share of its joins the planner priced as the sort-merge join, the per-invocation
//! Transform time, and the answer-quality columns. Because batching defers join
//! *work* but never DP messages (the cardinality counter is reshared once per
//! covered step and the batch always flushes before a synchronization), the error /
//! QET / view columns are invariant in `k` — the sweep prints an `answers=k1` column
//! verifying exactly that — while the Transform cost moves with how much of the
//! active window the steps of a batch share. With Algorithm 4's per-outer buffers
//! priced as top-ω selections, no `k > 1` beats `k = 1` on either workload.
//!
//! `INCSHRINK_CALIBRATION` plans the joins under a measured `kernel_throughput`
//! calibration instead of the run's cost model; the sort-merge share shows what it
//! chose.
//!
//! ```bash
//! cargo run -p incshrink-bench --bin incremental_transform --release
//! INCSHRINK_BENCH_STEPS=2 INCSHRINK_BENCH_K=4 \
//!     cargo run -p incshrink-bench --bin incremental_transform --release  # CI smoke
//! INCSHRINK_BENCH_STEPS=16 INCSHRINK_BENCH_K=8 \
//!     cargo run -p incshrink-bench --bin incremental_transform --release  # SMJ share > 0
//! ```

use incshrink::prelude::*;
use incshrink_bench::report::fmt;
use incshrink_bench::{build_dataset, default_steps, print_table, write_json};
use incshrink_oblivious::planner::Calibration;
use incshrink_telemetry::{Collector, Event};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One row of the incremental sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct IncrementalRow {
    dataset: String,
    k: u64,
    sort_merge_share: f64,
    transform_secure_compares: u64,
    compare_reduction_vs_k1: f64,
    host_transform_secs: f64,
    avg_transform_secs: f64,
    total_mpc_secs: f64,
    avg_l1_error: f64,
    avg_relative_error: f64,
    avg_qet_secs: f64,
    view_mb: f64,
    sync_count: u64,
    answers_match_k1: bool,
}

/// The batching factors to sweep; `INCSHRINK_BENCH_K` restricts the sweep to a single
/// `k` (always run alongside `k = 1` so the reduction column stays meaningful).
fn sweep_ks() -> Vec<u64> {
    match std::env::var("INCSHRINK_BENCH_K")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        None => vec![1, 2, 4, 8],
        Some(1) => vec![1],
        Some(k) => vec![1, k],
    }
}

/// Counts the joins Transform priced, by operator: the `join.*` spans that carry
/// the planned report.
#[derive(Default)]
struct PricedJoins {
    nested_loop: AtomicU64,
    sort_merge: AtomicU64,
}

impl PricedJoins {
    /// Share of the priced joins that were sort-merge joins (0 when none were).
    fn sort_merge_share(&self) -> f64 {
        let sort_merge = self.sort_merge.load(Ordering::Relaxed);
        let total = sort_merge + self.nested_loop.load(Ordering::Relaxed);
        sort_merge as f64 / total.max(1) as f64
    }
}

impl Collector for PricedJoins {
    fn record(&self, event: Event) {
        let Event::Span(span) = event else { return };
        let counter = match span.name.as_str() {
            "join.nested_loop" => &self.nested_loop,
            "join.sort_merge" => &self.sort_merge,
            _ => return,
        };
        if span.cost.is_some() {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Load a measured planner calibration when `INCSHRINK_CALIBRATION` points at a
/// `kernel_throughput` JSON output (or any file with the calibration keys).
fn load_calibration() -> Option<Calibration> {
    let path = std::env::var("INCSHRINK_CALIBRATION").ok()?;
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            incshrink_telemetry::log_error!("warning: could not read calibration {path}: {e}");
            return None;
        }
    };
    match Calibration::from_json_str(&text) {
        Ok(cal) => {
            incshrink_telemetry::log_info!("loaded planner calibration from {path}");
            Some(cal)
        }
        Err(e) => {
            incshrink_telemetry::log_error!("warning: could not parse calibration {path}: {e}");
            None
        }
    }
}

fn main() {
    let _telemetry = incshrink_bench::init();
    let steps = default_steps();
    let ks = sweep_ks();
    let calibration = load_calibration();
    let mut all_rows: Vec<IncrementalRow> = Vec::new();

    for kind in [DatasetKind::TpcDs, DatasetKind::Cpdb] {
        let rate = match kind {
            DatasetKind::TpcDs => 2.7,
            DatasetKind::Cpdb => 9.8,
        };
        let interval = IncShrinkConfig::timer_interval_for_threshold(30.0, rate);
        let base = match kind {
            DatasetKind::TpcDs => {
                IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval })
            }
            DatasetKind::Cpdb => {
                IncShrinkConfig::cpdb_default(UpdateStrategy::DpTimer { interval })
            }
        };
        let dataset = build_dataset(kind, steps, 0xAB1E);
        println!("\n=== {kind} ({steps} upload epochs, sDPTimer T = {interval}) ===\n");

        let (reports, shares): (Vec<RunReport>, Vec<f64>) = ks
            .iter()
            .map(|&k| {
                let priced = Arc::new(PricedJoins::default());
                let guard = incshrink_telemetry::install(priced.clone());
                let report = Simulation::new(dataset.clone(), base.with_transform_batch(k), 0x1AC4)
                    .with_calibration(calibration)
                    .run();
                drop(guard);
                (report, priced.sort_merge_share())
            })
            .unzip();
        let k1 = &reports[0];
        let k1_compares = k1.summary.transform_secure_compares.max(1);
        let k1_answers: Vec<Option<u64>> = k1.steps.iter().map(|s| s.answer).collect();

        let rows: Vec<IncrementalRow> = ks
            .iter()
            .zip(reports.iter().zip(&shares))
            .map(|(&k, (report, &sort_merge_share))| {
                let s = &report.summary;
                let answers: Vec<Option<u64>> = report.steps.iter().map(|st| st.answer).collect();
                IncrementalRow {
                    dataset: report.dataset.to_string(),
                    k,
                    sort_merge_share,
                    transform_secure_compares: s.transform_secure_compares,
                    compare_reduction_vs_k1: k1_compares as f64
                        / s.transform_secure_compares.max(1) as f64,
                    host_transform_secs: s.host_transform_secs,
                    avg_transform_secs: s.avg_transform_secs,
                    total_mpc_secs: s.total_mpc_secs,
                    avg_l1_error: s.avg_l1_error,
                    avg_relative_error: s.avg_relative_error,
                    avg_qet_secs: s.avg_qet_secs,
                    view_mb: s.final_view_mb,
                    sync_count: s.sync_count,
                    answers_match_k1: answers == k1_answers,
                }
            })
            .collect();

        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.k.to_string(),
                    format!("{:.2}", r.sort_merge_share),
                    r.transform_secure_compares.to_string(),
                    format!("{:.2}x", r.compare_reduction_vs_k1),
                    fmt(r.host_transform_secs),
                    fmt(r.avg_transform_secs),
                    fmt(r.total_mpc_secs),
                    fmt(r.avg_l1_error),
                    fmt(r.avg_relative_error),
                    fmt(r.avg_qet_secs),
                    fmt(r.view_mb),
                    r.sync_count.to_string(),
                    r.answers_match_k1.to_string(),
                ]
            })
            .collect();
        print_table(
            &[
                "k",
                "SMJ share",
                "transform compares",
                "vs k=1",
                "host(s)",
                "transform(s)",
                "MPC total(s)",
                "L1 err",
                "rel err",
                "QET(s)",
                "view MB",
                "syncs",
                "answers=k1",
            ],
            &table,
        );
        all_rows.extend(rows);
    }

    write_json("incremental", &all_rows);
    println!(
        "\nExpected shape: every k row answers the analyst identically (answers=k1 true, \
         identical QET / view / sync columns — the DP accounting is untouched by \
         batching). At k = 1 both workloads price every join as the nested loop, \
         whose per-outer top-ω selection is linear in the window. On TPC-ds (ω = 1) \
         a batch's combined delta is large enough for the sort-merge join to win \
         some batches, yet no k > 1 brings the MPC total below k = 1's; on \
         CPDB (ω = 10) the combined delta's wider public range makes a batch cost \
         more than its steps."
    );
}
