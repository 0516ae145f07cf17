//! Structured tracing for the IncShrink workspace.
//!
//! The simulator's only instrumentation used to be the end-of-run
//! [`Summary`](https://example.invalid/incshrink) plus ad-hoc JSON printed by the
//! bench binaries. This crate makes three things first-class, inspectable
//! artifacts instead of side effects:
//!
//! 1. **Spans** — nested, named phases (`transform`, `shrink`, `query`,
//!    `shuffle.route`, …) carrying host-nanoseconds, optional simulated time and
//!    optional [`CostDelta`]s, emitted through the [`span!`] macro.
//! 2. **The ε-ledger** — every `dp::` mechanism invocation emits a
//!    [`LedgerEntry`] (mechanism label, ε, sensitivity, shard, step), so the
//!    privacy budget the accountant *claims* can be reconciled against the ε
//!    that was actually *spent*.
//! 3. **Observable-trace events** — the sizes the two untrusted servers can see
//!    (upload batches, cache appends, view syncs, flushes, shuffle buckets) as
//!    [`ObserveRecord`]s, which the [`audit`] module machine-checks against the
//!    paper's leakage claims.
//!
//! # Collectors
//!
//! Emission goes through a thread-local [`Collector`] stack. With no collector
//! installed (the default) every entry point is a cheap early-return: no clock
//! reads, no allocation, no formatting. [`InMemory`] buffers events for tests
//! and auditing; [`Jsonl`] streams one JSON object per line to a file
//! (conventionally named by the `INCSHRINK_TRACE` environment variable).
//!
//! # The neutrality contract
//!
//! Instrumentation **never** touches simulated state: no collector reads or
//! advances a cost meter, an rng, or simulated time. Installing any collector
//! leaves trajectories, rng draws and summaries bit-for-bit identical to a
//! collector-free run (host-time fields excepted). The workspace regression
//! tests replay the fig4 and scale-out experiments to enforce this.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod audit;
mod collector;
mod event;
mod profile;
mod scope;
mod sink;
mod span;

pub use collector::{current_collectors, install, installed, Collector, InstallGuard};
pub use event::{
    CostDelta, Event, LedgerEntry, ObserveKind, ObserveRecord, SchemaError, SpanRecord,
};
pub use profile::{per_step_host_secs, PhaseProfile, PhaseStat};
pub use scope::{
    epsilon_spent, mechanism_scope, observe, shard_scope, step_scope, MechanismScope, ShardScope,
    StepScope,
};
pub use sink::{InMemory, Jsonl};
pub use span::Span;
