//! # IncShrink cluster layer
//!
//! Scale-out of the IncShrink framework to `S` server pairs (the N-server
//! generalization sketched in Section 8 of the paper, applied shard-wise): the
//! materialized view and secure cache are **hash-partitioned by join key** across
//! independent Transform-and-Shrink pipelines, and the analyst's typed queries
//! (`incshrink::query::Query` — count, sum, group-count) are answered with a
//! **scatter-gather** executor that scans every shard view in parallel and
//! obliviously aggregates the partial answers. Workloads whose records
//! arrive partitioned by a *non-join* attribute are handled by the [`shuffle`]
//! phase ([`RoutingPolicy::Shuffled`]), which obliviously re-routes each delta to
//! the shard owning its join key before maintenance.
//!
//! ```text
//!                    owners ──▶ ShardRouter (hash on join key)
//!                       ┌───────────┼───────────┐
//!                       ▼           ▼           ▼
//!                   shard 0      shard 1  ...  shard S-1      (ε/S each)
//!                 ┌──────────┐ ┌──────────┐ ┌──────────┐
//!                 │ pair+ctx │ │ pair+ctx │ │ pair+ctx │
//!                 │ Transform│ │ Transform│ │ Transform│
//!                 │ cache σᵢ │ │ cache σᵢ │ │ cache σᵢ │
//!                 │ Shrink   │ │ Shrink   │ │ Shrink   │
//!                 │ view Vᵢ  │ │ view Vᵢ  │ │ view Vᵢ  │
//!                 └────┬─────┘ └────┬─────┘ └────┬─────┘
//!                      └────────────┼────────────┘
//!                                   ▼
//!                     ScatterGatherExecutor (Σ partial answers,
//!                     QET = max shard scan + agg rounds)
//! ```
//!
//! Because the views are equi-joins, the partition is *lossless*: every join pair
//! lives on exactly one shard and the per-shard answers sum to the global answer.
//! Each shard runs with an `ε/S` budget so the user-level privacy guarantee is
//! invariant in the cluster size (see [`sharded::ClusterPrivacy`]), while the
//! per-shard view scans — the linear-in-view cost that dominates query time — shrink
//! roughly by `1/S`.
//!
//! The cluster has **one driver and two hosts** ([`runtime`]): a single step
//! loop that reaches its shards through a small private set of requests, served
//! either inline on the calling thread ([`ShardedSimulation`], the reference
//! run) or by one OS thread per shard plus an upload broker
//! ([`ParallelShardedSimulation`]) — the two replay each other bit for bit.
//!
//! [`ShardedSimulation`] with one shard reproduces the single-pair
//! `incshrink::Simulation` exactly (same seed ⇒ same per-step trace); the
//! `scaleout` benchmark binary sweeps `S ∈ {1, 2, 4, 8}` over both evaluation
//! workloads.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod elastic;
pub mod executor;
pub mod router;
pub mod runtime;
pub mod sharded;
pub mod shuffle;

pub use elastic::{BucketMove, ElasticConfig, ElasticReport, ElasticRouting, ViewMigrator};
pub use executor::ScatterGatherExecutor;
pub use router::{shard_of, ShardRouter};
pub use runtime::{ParallelRunReport, ParallelShardedSimulation, RuntimeStats, ShardedSimulation};
pub use sharded::{shard_config, shard_pipelines, ClusterPrivacy, ClusterRunReport, ShardReport};
pub use shuffle::{ClusterShuffler, RoutingPolicy, ShuffleStats};
