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
//! One server pair, stepped by hand:
//!
//! ```
//! use incshrink::prelude::*;
//! use incshrink_mpc::cost::CostModel;
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
//! let mut pipeline = ShardPipeline::new(dataset, config, 0xFEED, CostModel::default());
//!
//! // Each upload epoch: owners upload padded batches, Transform caches the new
//! // view entries, and Shrink synchronizes a DP-sized batch every T steps.
//! for t in 1..=40 {
//!     pipeline.advance(t);
//! }
//! let outcome = pipeline.answer_query(&Query::count(), 40);
//! let (answer, truth) = (outcome.value.expect_scalar(), pipeline.true_count(40));
//! assert!(answer <= truth && answer as f64 >= 0.5 * truth as f64);
//! println!("count {answer} of {truth}, QET {:.6} s", outcome.qet.as_secs_f64());
//! ```
//!
//! The end-to-end run — the step loop, the analyst's query every
//! `query_interval` steps and the Table-2 style [`Summary`] — is
//! `incshrink_cluster::ShardedSimulation` with one shard.
//!
//! The crates underneath (`incshrink-secretshare`, `incshrink-mpc`,
//! `incshrink-oblivious`, `incshrink-dp`, `incshrink-storage`, `incshrink-workload`)
//! provide the substrates; this crate wires them into the framework of the paper.

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
    pub use crate::framework::{MigratedPartition, ShardPipeline, StepRecord, StepUploads};
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
pub use framework::{MigratedPartition, ShardPipeline, StepRecord, StepUploads};
pub use metrics::Summary;
pub use query::{
    AggregateSpec, FilterExpr, NmBaselineEngine, Query, QueryEngine, QueryOutcome, QueryValue,
    ShardBreakdown, ShardPartial, ViewEngine,
};
pub use view::{MaterializedView, ViewDefinition};
