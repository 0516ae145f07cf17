//! Oblivious operators over secret-shared arrays.
//!
//! These are the MPC building blocks IncShrink's Transform and Shrink protocols are
//! compiled from (Section 5 and Appendix A.1 of the paper):
//!
//! * [`sort`] — one sorting-network generator (Batcher-sorted blocks, a bitonic
//!   merge tournament, the kept wires) for every sort, merge and top-`k` selection;
//!   data-independent comparison sequence, so the access pattern leaks nothing.
//! * [`filter`] — oblivious selection: every input row is emitted, only the hidden
//!   `isView` bit distinguishes matches from dummies (Appendix A.1.1); and the one
//!   predicate language, [`FilterExpr`] conjuncts lowered once to a lane mask.
//! * [`join`] — `b`-truncated oblivious joins: Algorithm 4's nested loop, the one
//!   operator Transform charges, with its analytic cost (a secret or a public
//!   inner side); and the delta-oriented form of Example 5.1's sort-merge join,
//!   kept as a standalone operator the benchmark probes.
//! * [`compact`] — the order-preserving tight compaction [`Compaction`]: real tuples
//!   ahead of dummies in `(n/2)·log₂ n` swaps (the cache's seal, the cluster's
//!   compaction), and Figure 3's read [`cache_read`]: compact, then cut a
//!   (DP-noised) prefix. Every real-first network — the compaction, the secure
//!   cache's merges of real-first runs and its read of the few rows per run a cut
//!   can reach, each priced by [`sort`]'s [`Network::merge`] — runs on the host as
//!   one pass, [`partition_by_is_view`].
//! * [`shuffle`] — oblivious permutation plus secure re-routing of a batch into
//!   fixed-size padded per-destination buckets by a hashed routing tag; the
//!   building block of the cluster layer's cross-shard (non-co-partitioned) joins.
//!
//! Every operator takes a [`incshrink_mpc::cost::CostMeter`] and records the
//! kernels — compares, swaps, adds, each an [`incshrink_mpc::circuit::Kernel`] at its
//! operands' public bit widths — and control AND gates it would cost inside a
//! garbled-circuit 2PC execution. An operator over a bare array, which carries no
//! schema, prices its columns as full share words; the protocols pass their
//! columns' widths.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod compact;
pub mod filter;
pub mod join;
pub mod shuffle;
pub mod sort;
#[cfg(test)]
mod table;

pub use aggregate::{oblivious_count, oblivious_group_count_over_domain};
pub use compact::{cache_read, compact_by_is_view, partition_by_is_view, Compaction};
pub use filter::{oblivious_filter, FilterExpr, Predicate};
pub use join::{
    nested_loop_join_cost, public_inner_join_cost, push_padded, truncated_match_rows,
    truncated_nested_loop_join, truncated_sort_merge_delta_join, JoinSpec, JoinWidths, KeyIndex,
    RowRef,
};
pub use shuffle::{
    bucket_of, destination_of, shuffle_route, shuffle_route_mapped, Destinations, VIRTUAL_BUCKETS,
};
pub use sort::{
    batcher_padded_pair_count, batcher_pair_count, bitonic_merge_pair_count,
    oblivious_sort_by_field, Network, SortOrder,
};
