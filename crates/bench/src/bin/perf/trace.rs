//! The traced pass: one repetition with `incshrink_telemetry::InMemory`
//! installed by the benchmark. It reads the spans the program already emits —
//! none are added — into busy seconds, self time and modeled traffic
//! per layer, and runs the leakage audit and the ε-ledger reconciliation.

use crate::stats::{ratio, self_time};
use crate::workloads::{Metrics, Rep};
use incshrink::prelude::*;
use incshrink_cluster::shard_config;
use incshrink_dp::accountant::{MechanismApplication, PrivacyAccountant};
use incshrink_telemetry::audit::{check_trace, Expectations};
use incshrink_telemetry::{CostDelta, Event, InMemory, LedgerEntry, SpanRecord};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Run `body` with an in-memory collector installed; returns its result and
/// every event emitted (by this thread and by threads it spawned).
pub fn traced<T>(body: impl FnOnce() -> T) -> (T, Vec<Event>) {
    let sink = Arc::new(InMemory::new());
    let guard = incshrink_telemetry::install(sink.clone());
    let out = body();
    drop(guard);
    (out, sink.take())
}

/// Totals of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotal {
    pub nanos: u64,
    /// Nanoseconds covered by direct child spans.
    pub child_nanos: u64,
    pub cost: CostDelta,
}

/// Aggregate spans by name. A span record carries its nesting depth but no
/// parent; spans are emitted when they close, so on one thread a span at depth
/// `d` closes after every depth-`d+1` span it contains and before any other.
/// Threads are told apart by the shard stamp: shard threads carry one, the
/// driver and the broker never overlap in time.
pub fn span_totals<'a>(spans: impl Iterator<Item = &'a SpanRecord>) -> BTreeMap<String, SpanTotal> {
    let mut totals: BTreeMap<String, SpanTotal> = BTreeMap::new();
    // Per thread: nanoseconds of closed spans at each depth not yet claimed
    // by a parent.
    let mut open: BTreeMap<Option<u64>, Vec<u64>> = BTreeMap::new();
    for span in spans {
        let pending = open.entry(span.shard).or_default();
        let depth = span.depth as usize;
        if pending.len() < depth + 2 {
            pending.resize(depth + 2, 0);
        }
        let children = std::mem::take(&mut pending[depth + 1]);
        pending[depth] += span.host_nanos;
        let total = totals.entry(span.name.clone()).or_default();
        total.nanos += span.host_nanos;
        total.child_nanos += children.min(span.host_nanos);
        if let Some(cost) = span.cost {
            total.cost.accumulate(cost);
        }
    }
    totals
}

/// The spans whose `CostDelta`s partition a run's modeled traffic (joins are
/// nested inside `transform` and would count twice).
const COSTED_PHASES: [&str; 4] = ["transform", "shrink", "query", "shuffle.route"];

/// Per-layer metrics of one traced repetition. `shards` is the number of
/// shard threads (0 for a single-pair workload).
pub fn layer_metrics(events: &[Event], rep: &Rep, shards: usize) -> Metrics {
    let spans = events.iter().filter_map(|e| match e {
        Event::Span(span) => Some(span),
        _ => None,
    });
    let totals = span_totals(spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    // Span seconds at nominal host speed, like every other host-clock metric.
    let secs = |t: SpanTotal| t.nanos as f64 / 1e9 / rep.speed_index;
    let mut out = Metrics::new();
    out.insert("core.shrink_s", secs(get("shrink")));
    out.insert("core.transform_span_s", secs(get("transform")));
    out.insert(
        "oblivious.join_nested_loop_s",
        secs(get("join.nested_loop")),
    );
    out.insert("oblivious.join_sort_merge_s", secs(get("join.sort_merge")));
    out.insert("cluster.broker_route_s", secs(get("broker.route")));
    out.insert("cluster.query_merge_s", secs(get("query.merge")));
    let mut traffic = CostDelta::default();
    for phase in COSTED_PHASES {
        traffic.accumulate(get(phase).cost);
    }
    out.insert("mpc.bytes_communicated", traffic.bytes as f64);
    out.insert("mpc.rounds", traffic.rounds as f64);

    let self_secs = |t: SpanTotal| self_time(t.nanos, t.child_nanos) as f64 / 1e9 / rep.speed_index;
    let (pipeline_step, runtime_step) = (get("pipeline.step"), get("runtime.step"));
    out.insert("core.pipeline_step_self_s", self_secs(pipeline_step));
    out.insert("cluster.runtime_step_self_s", self_secs(runtime_step));
    // The step span of the outermost driver: the share of it that named child
    // spans cover is what the trace can attribute.
    let step = if shards > 0 {
        runtime_step
    } else {
        pipeline_step
    };
    out.insert(
        "telemetry.attributed_share",
        ratio(step.child_nanos as f64, step.nanos as f64),
    );
    let wall = rep.timing.get("core.timed_wall_s").copied().unwrap_or(0.0);
    out.insert(
        "cluster.idle_s",
        (shards as f64 * wall / rep.speed_index - secs(runtime_step)).max(0.0),
    );
    out.insert(
        "core.model_over_host.shrink",
        ratio(rep.modeled_shrink_s, secs(get("shrink"))),
    );
    out.insert("telemetry.events", events.len() as f64);
    out.insert(
        "dp.epsilon_spent",
        ledger(events).iter().map(|entry| entry.epsilon).sum(),
    );
    out
}

fn ledger(events: &[Event]) -> Vec<LedgerEntry> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Epsilon(entry) => Some(entry.clone()),
            _ => None,
        })
        .collect()
}

/// The traced pass's two checks, as `(passed, description)` pairs: the
/// structural leakage audit against the configuration's public schedule, and
/// the accountant's claimed budget against the replayed ε-ledger.
pub fn audit(events: &[Event], config: &IncShrinkConfig, shards: usize) -> Vec<(bool, String)> {
    let per_pair = if shards > 0 {
        shard_config(config, shards)
    } else {
        *config
    };
    let expect = Expectations {
        flush_interval: Some(per_pair.flush_interval),
        timer_interval: match per_pair.strategy {
            UpdateStrategy::DpTimer { interval } => Some(interval),
            _ => None,
        },
        max_epsilon: Some(per_pair.epsilon),
        ..Expectations::default()
    };
    let audited = check_trace(events, &expect);
    let mut claimed = PrivacyAccountant::new();
    claimed.record(MechanismApplication {
        mechanism_epsilon: per_pair.epsilon,
        stability: 1,
        disjoint: false,
    });
    let reconciles = claimed.reconciles_with_ledger(&ledger(events), per_pair.contribution_budget);
    vec![
        (
            audited.is_ok(),
            audited.map_or_else(|e| e.to_string(), |_| "leakage audit".to_string()),
        ),
        (
            reconciles,
            "accountant budget vs replayed epsilon-ledger".to_string(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, shard: Option<u64>, depth: u32, host_nanos: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            step: None,
            shard,
            depth,
            host_nanos,
            sim_nanos: None,
            cost: None,
        }
    }

    #[test]
    fn children_are_charged_to_the_enclosing_span_on_the_same_thread() {
        // Two steps on the driver thread, one on shard 1, interleaved the way a
        // shared sink sees them. Children close before their parent.
        let spans = [
            span("join", None, 2, 10),
            span("transform", None, 1, 30),
            span("transform", Some(1), 1, 500),
            span("shrink", None, 1, 20),
            span("step", None, 0, 100),
            span("step", Some(1), 0, 600),
            span("shrink", None, 1, 5),
            span("step", None, 0, 40),
        ];
        let totals = span_totals(spans.iter());
        let step = totals["step"];
        assert_eq!(step.nanos, 740);
        assert_eq!(step.child_nanos, 30 + 20 + 500 + 5);
        assert_eq!(self_time(step.nanos, step.child_nanos), 185);
        assert_eq!(totals["transform"].child_nanos, 10);
        assert_eq!(totals["join"].child_nanos, 0);
    }

    #[test]
    fn child_time_never_exceeds_its_parent() {
        let spans = [span("child", None, 1, 120), span("parent", None, 0, 100)];
        let totals = span_totals(spans.iter());
        assert_eq!(totals["parent"].child_nanos, 100);
    }
}
