//! # IncShrink
//!
//! A reproduction of *IncShrink: Architecting Efficient Outsourced Databases using
//! Incremental MPC and Differential Privacy* (SIGMOD 2022).
//!
//! IncShrink is a view-based secure outsourced growing database (SOGDB): two
//! non-colluding, untrusted servers maintain a secret-shared **materialized view**
//! over data that owners upload incrementally, and answer queries from the view alone.
//! The view is maintained by an incremental MPC protocol split into [`transform`]
//! (compute new, exhaustively padded view entries into a secure cache) and [`shrink`]
//! (periodically synchronize a DP-noised number of cached entries into the view), so
//! that the update pattern visible to either server satisfies differential privacy
//! while per-record contribution budgets keep the lifetime privacy loss bounded.
//!
//! ## Quick start
//!
//! ```
//! use incshrink::prelude::*;
//!
//! // A small TPC-ds-like workload (Sales ⋈ Returns within 10 days).
//! let dataset = TpcDsGenerator::new(WorkloadParams {
//!     steps: 40,
//!     view_entries_per_step: 2.7,
//!     seed: 1,
//! })
//! .generate();
//!
//! // Default paper configuration: sDPTimer, ε = 1.5, ω = 1, b = 10.
//! let config = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
//! let report = Simulation::new(dataset, config, 0xFEED).run();
//!
//! assert!(report.summary.avg_relative_error < 0.5);
//! println!("avg L1 error {:.2}", report.summary.avg_l1_error);
//! ```
//!
//! The crates underneath (`incshrink-secretshare`, `incshrink-mpc`,
//! `incshrink-oblivious`, `incshrink-dp`, `incshrink-storage`, `incshrink-workload`)
//! provide the substrates; this crate wires them into the framework of the paper and
//! exposes the experiment drivers used by the benchmark harness.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod config;
pub mod framework;
pub mod metrics;
pub mod query;
pub mod shrink;
pub mod transform;
pub mod view;

/// Convenient re-exports for examples, tests and the benchmark harness.
pub mod prelude {
    pub use crate::config::{IncShrinkConfig, UpdateStrategy};
    pub use crate::framework::{
        MigratedPartition, RunReport, ShardPipeline, Simulation, StepRecord, StepUploads,
    };
    pub use crate::metrics::Summary;
    pub use crate::query::{
        FilterExpr, NmBaselineEngine, Query, QueryEngine, QueryOutcome, QueryValue, ViewEngine,
    };
    pub use crate::view::{MaterializedView, ViewDefinition};
    pub use incshrink_workload::{
        scale_dataset, to_burst, to_sparse, to_store_partitioned, CpdbGenerator, Dataset,
        DatasetKind, JoinQuery, TpcDsGenerator, WorkloadParams, WorkloadVariant,
    };
}

pub use config::{IncShrinkConfig, UpdateStrategy};
pub use framework::{
    MigratedPartition, RunReport, ShardPipeline, Simulation, StepRecord, StepUploads,
};
pub use metrics::Summary;
pub use query::{
    AggregateSpec, FilterExpr, NmBaselineEngine, Query, QueryEngine, QueryOutcome, QueryValue,
    ShardBreakdown, ShardPartial, ViewEngine,
};
pub use view::{MaterializedView, ViewDefinition};
