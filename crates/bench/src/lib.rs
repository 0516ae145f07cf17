//! Experiment harness for the paper's evaluation (Section 7).
//!
//! [`experiments`] holds Table 2, Figures 4–9 and the cluster scale-out sweep
//! as data, run by one loop; the `sweep` binary runs them by name
//! (`sweep fig5 table2 …`). The `query_mix` and `elastic` binaries, which
//! step their own runs, share the dataset builder and the reporters.
//!
//! Scale control: the binaries default to a laptop-friendly horizon
//! ([`default_steps`]); set `INCSHRINK_BENCH_STEPS` to change it (e.g. 720 for a
//! longer, closer-to-paper run).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;

pub use experiments::{build_dataset, default_steps};
pub use report::{print_table, write_json};

/// Keeps the experiment binary's telemetry sink installed for the duration of
/// the run (dropping it flushes the JSONL trace). Returned by [`init`].
pub struct Telemetry {
    _trace: Option<incshrink_telemetry::InstallGuard>,
}

/// Shared startup for every experiment binary: install a JSONL trace collector
/// when `INCSHRINK_TRACE=<path>` is set. Keep the returned [`Telemetry`] alive
/// for the whole run:
///
/// ```no_run
/// let _telemetry = incshrink_bench::init();
/// ```
#[must_use]
pub fn init() -> Telemetry {
    let trace = match incshrink_telemetry::Jsonl::from_env() {
        Ok(Some(sink)) => {
            eprintln!("tracing to $INCSHRINK_TRACE");
            Some(incshrink_telemetry::install(std::sync::Arc::new(sink)))
        }
        Ok(None) => None,
        Err(e) => {
            eprintln!("warning: could not open $INCSHRINK_TRACE: {e}");
            None
        }
    };
    Telemetry { _trace: trace }
}
