//! Synthetic workload generators for the IncShrink evaluation.
//!
//! The paper evaluates on the TPC-ds Sales/Returns tables and on the Chicago Police
//! Database (CPDB) Allegation/Award tables. Neither raw dataset ships with this
//! reproduction, so this crate generates synthetic growing databases whose *statistics*
//! match the quantities the evaluation actually depends on (`docs/ARCHITECTURE.md`
//! § "Paper → code", workloads row):
//!
//! * arrival rate of new view entries per time step (≈2.7/day for TPC-ds,
//!   ≈9.8/5-day step for CPDB),
//! * join multiplicity (1 for Q1, >1 — up to the ω=10 truncation — for Q2),
//! * upload cadence (daily vs every 5 days) and padded batch sizes,
//! * the Sparse (10 % of view entries) and Burst (2× view entries) variants, and
//! * the 50 % / 1× / 2× / 4× scaling groups.
//!
//! [`queries`] evaluates the logical ground truth `q_t(D_t)` for Q1/Q2 so the framework
//! can measure L1 error.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cpdb;
pub mod dataset;
pub mod partitioned;
pub mod queries;
pub mod tpcds;
pub mod variants;
pub mod zipf;

pub use cpdb::CpdbGenerator;
pub use dataset::{Dataset, DatasetKind, WorkloadParams};
pub use partitioned::to_store_partitioned;
pub use queries::{
    logical_join_count, logical_join_counts_per_step, logical_join_group_count, logical_join_rows,
    logical_join_sum, JoinQuery,
};
pub use tpcds::TpcDsGenerator;
pub use variants::{scale_dataset, to_burst, to_sparse, WorkloadVariant};
pub use zipf::{bucket_load_profile, to_zipf_skewed};
