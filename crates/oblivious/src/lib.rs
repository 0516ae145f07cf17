//! Oblivious operators over secret-shared arrays.
//!
//! These are the MPC building blocks IncShrink's Transform and Shrink protocols are
//! compiled from (Section 5 and Appendix A.1 of the paper):
//!
//! * [`sort`] — one sorting-network generator (Batcher-sorted blocks, a bitonic
//!   merge tournament, the kept wires) for every sort, merge and top-`k` selection;
//!   data-independent comparison sequence, so the access pattern leaks nothing.
//! * [`filter`] — oblivious selection: every input row is emitted, only the hidden
//!   `isView` bit distinguishes matches from dummies (Appendix A.1.1).
//! * [`join`] — `b`-truncated oblivious joins: sort-merge (Example 5.1, plus its
//!   delta-oriented variant with the nested-loop output contract) and nested-loop
//!   (Algorithm 4), with analytic per-operator cost models.
//! * [`planner`] — cost-based join planning: charge the truncated-join operator a
//!   cost model prices lower at the public input shape.
//! * [`compact`] — the cache-read primitive of Figure 3: bring an array into
//!   `isView` order so real tuples precede dummies, then cut a prefix of a given
//!   (DP-noised) size. The secure cache keeps its runs ordered with [`sort`]'s
//!   merge-only operator and reads by merging the few rows per run a cut can reach.
//! * [`shuffle`] — oblivious permutation plus secure re-routing of a batch into
//!   fixed-size padded per-destination buckets by a hashed routing tag; the
//!   building block of the cluster layer's cross-shard (non-co-partitioned) joins.
//!
//! Every operator takes a [`incshrink_mpc::cost::CostMeter`] and records the secure
//! comparisons, oblivious swaps and AND gates it would cost inside a garbled-circuit
//! 2PC execution.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod compact;
pub mod filter;
pub mod join;
pub mod planner;
pub mod shuffle;
pub mod sort;
#[cfg(test)]
mod table;

pub use aggregate::{oblivious_count, oblivious_group_count_over_domain, oblivious_sum};
pub use compact::cache_read;
pub use filter::{oblivious_filter, Predicate};
pub use join::{
    nested_loop_join_cost, push_padded, truncated_match_rows, truncated_nested_loop_join,
    truncated_sort_merge_delta_join, JoinSpec, KeyIndex, RowRef,
};
pub use planner::{plan_and_execute, plan_join, JoinAlgorithm, JoinPlan, JoinShape, PlanMemo};
pub use shuffle::{
    bucket_of, destination_of, shuffle_route, shuffle_route_mapped, VIRTUAL_BUCKETS,
};
pub use sort::{
    batcher_padded_pair_count, batcher_pair_count, bitonic_merge_pair_count,
    oblivious_merge_by_is_view, oblivious_sort_by_field, oblivious_sort_by_is_view, Network,
    SortOrder,
};
