//! The event model: spans, observable-size records and ε-ledger entries, plus
//! their line-oriented JSON encoding (one object per line, discriminated by the
//! `"ev"` key).

use serde::{Serialize, Value};

/// Counts of primitive oblivious operations attributed to one span.
///
/// Mirrors `incshrink_mpc::cost::CostReport` field-for-field (plus the secure
/// cache's two merge counts and Transform's window length, which are bookkeeping,
/// not priced gates) without depending
/// on the mpc crate (telemetry sits below it in the crate graph); the mpc crate
/// provides the `CostReport -> CostDelta` conversion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostDelta {
    /// Secure comparisons, at any width (an operation count).
    pub compares: u64,
    /// Oblivious conditional swaps of a record's payload (an operation count).
    pub swaps: u64,
    /// Secure AND gates: every kernel's circuit plus control logic (what is priced).
    pub ands: u64,
    /// Secure additions (an operation count).
    pub adds: u64,
    /// Bytes exchanged between the two servers.
    pub bytes: u64,
    /// Protocol rounds: one per garbled circuit the span closed.
    pub rounds: u64,
    /// Run merges of the secure cache (no `CostReport` counterpart: the `shrink`
    /// span stamps it, so a merge burst can be told from a large sort).
    pub merges: u64,
    /// Rows those merges covered.
    pub merged_rows: u64,
    /// Inner rows the span's joins were priced over (no `CostReport` counterpart:
    /// the `transform` span stamps the public active-window length, so the auditor
    /// can check it against the upload sizes the servers saw).
    pub window_rows: u64,
}

impl CostDelta {
    /// Field-wise saturating accumulation.
    pub fn accumulate(&mut self, rhs: CostDelta) {
        self.compares = self.compares.saturating_add(rhs.compares);
        self.swaps = self.swaps.saturating_add(rhs.swaps);
        self.ands = self.ands.saturating_add(rhs.ands);
        self.adds = self.adds.saturating_add(rhs.adds);
        self.bytes = self.bytes.saturating_add(rhs.bytes);
        self.rounds = self.rounds.saturating_add(rhs.rounds);
        self.merges = self.merges.saturating_add(rhs.merges);
        self.merged_rows = self.merged_rows.saturating_add(rhs.merged_rows);
        self.window_rows = self.window_rows.saturating_add(rhs.window_rows);
    }
}

/// One completed span: a named phase with its nesting depth, scope coordinates
/// and measured host time.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Phase name, e.g. `"transform"` or `"shuffle.route"`.
    pub name: String,
    /// Simulation step the span ran under, when a step scope was active.
    pub step: Option<u64>,
    /// Shard index, when a shard scope was active (cluster runs).
    pub shard: Option<u64>,
    /// Nesting depth: 0 for top-level spans, +1 per enclosing span.
    pub depth: u32,
    /// Measured host wall-clock nanoseconds between enter and drop.
    pub host_nanos: u64,
    /// Simulated nanoseconds attributed to the span, when recorded.
    pub sim_nanos: Option<u64>,
    /// Oblivious-operation counts attributed to the span, when recorded.
    pub cost: Option<CostDelta>,
}

/// The kind of server-observable event an [`ObserveRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserveKind {
    /// An owner upload batch arriving at both servers.
    UploadBatch,
    /// A padded Transform delta appended to the secure cache.
    CacheAppend,
    /// A (noised) synchronization of cache records into the materialized view.
    ViewSync,
    /// A flush draining synchronized records out of the secure cache.
    CacheFlush,
    /// One padded routing bucket of the cluster shuffle phase.
    ShuffleBucket,
    /// Bytes crossing the party-to-party channel since the previous cost
    /// charge (joint randomness, reshares, named recoveries). Derived from the
    /// metered charges — identical in every party-execution mode.
    PartyBytes,
}

impl ObserveKind {
    /// Stable wire name used in the JSON encoding.
    #[must_use]
    pub(crate) fn wire_name(self) -> &'static str {
        match self {
            ObserveKind::UploadBatch => "upload_batch",
            ObserveKind::CacheAppend => "cache_append",
            ObserveKind::ViewSync => "view_sync",
            ObserveKind::CacheFlush => "cache_flush",
            ObserveKind::ShuffleBucket => "shuffle_bucket",
            ObserveKind::PartyBytes => "party_bytes",
        }
    }

    fn from_wire(name: &str) -> Option<Self> {
        Some(match name {
            "upload_batch" => ObserveKind::UploadBatch,
            "cache_append" => ObserveKind::CacheAppend,
            "view_sync" => ObserveKind::ViewSync,
            "cache_flush" => ObserveKind::CacheFlush,
            "shuffle_bucket" => ObserveKind::ShuffleBucket,
            "party_bytes" => ObserveKind::PartyBytes,
            _ => return None,
        })
    }
}

/// One server-observable size: what an honest-but-curious server learns from
/// watching the protocol at `step`. The leakage auditor's subject matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserveRecord {
    /// What was observed.
    pub kind: ObserveKind,
    /// Simulation step (logical time) of the observation.
    pub step: u64,
    /// Shard index, when the observation happened inside a shard scope.
    pub shard: Option<u64>,
    /// Observed record count.
    pub count: u64,
}

/// One ε spend: a single invocation of a joint DP mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Mechanism label, e.g. `"timer.sync"` or `"ant.counter"`; `"laplace"`
    /// when the spend happened outside any mechanism scope.
    pub mechanism: String,
    /// Privacy parameter ε consumed by this invocation.
    pub epsilon: f64,
    /// L1 sensitivity Δ the noise was calibrated for.
    pub sensitivity: f64,
    /// Simulation step of the spend, when a step scope was active.
    pub step: Option<u64>,
    /// Shard index, when the spend happened inside a shard scope.
    pub shard: Option<u64>,
}

/// A telemetry event: everything a [`Collector`](crate::Collector) receives.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A completed span.
    Span(SpanRecord),
    /// A server-observable size.
    Observe(ObserveRecord),
    /// An ε-ledger entry.
    Epsilon(LedgerEntry),
}

/// Error produced when a JSON value does not match the event schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    message: String,
}

impl SchemaError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace schema error: {}", self.message)
    }
}

impl std::error::Error for SchemaError {}

fn field<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_u64(entries: &[(String, Value)], key: &str) -> Result<u64, SchemaError> {
    match field(entries, key) {
        Some(&Value::UInt(u)) => Ok(u),
        Some(&Value::Int(i)) if i >= 0 => Ok(i as u64),
        _ => Err(SchemaError::new(format!(
            "`{key}` must be a non-negative integer"
        ))),
    }
}

fn as_opt_u64(entries: &[(String, Value)], key: &str) -> Result<Option<u64>, SchemaError> {
    match field(entries, key) {
        None | Some(&Value::Null) => Ok(None),
        Some(&Value::UInt(u)) => Ok(Some(u)),
        Some(&Value::Int(i)) if i >= 0 => Ok(Some(i as u64)),
        _ => Err(SchemaError::new(format!(
            "`{key}` must be null or a non-negative integer"
        ))),
    }
}

fn as_f64(entries: &[(String, Value)], key: &str) -> Result<f64, SchemaError> {
    match field(entries, key) {
        Some(&Value::Float(f)) => Ok(f),
        Some(&Value::UInt(u)) => Ok(u as f64),
        Some(&Value::Int(i)) => Ok(i as f64),
        _ => Err(SchemaError::new(format!("`{key}` must be a number"))),
    }
}

fn as_str<'a>(entries: &'a [(String, Value)], key: &str) -> Result<&'a str, SchemaError> {
    match field(entries, key) {
        Some(Value::String(s)) => Ok(s),
        _ => Err(SchemaError::new(format!("`{key}` must be a string"))),
    }
}

fn opt_u64_value(v: Option<u64>) -> Value {
    match v {
        Some(u) => Value::UInt(u),
        None => Value::Null,
    }
}

impl CostDelta {
    fn to_json(self) -> Value {
        Value::Object(vec![
            ("compares".to_string(), Value::UInt(self.compares)),
            ("swaps".to_string(), Value::UInt(self.swaps)),
            ("ands".to_string(), Value::UInt(self.ands)),
            ("adds".to_string(), Value::UInt(self.adds)),
            ("bytes".to_string(), Value::UInt(self.bytes)),
            ("rounds".to_string(), Value::UInt(self.rounds)),
            ("merges".to_string(), Value::UInt(self.merges)),
            ("merged_rows".to_string(), Value::UInt(self.merged_rows)),
            ("window_rows".to_string(), Value::UInt(self.window_rows)),
        ])
    }

    fn from_json(value: &Value) -> Result<Self, SchemaError> {
        let Value::Object(entries) = value else {
            return Err(SchemaError::new("`cost` must be an object"));
        };
        Ok(CostDelta {
            compares: as_u64(entries, "compares")?,
            swaps: as_u64(entries, "swaps")?,
            ands: as_u64(entries, "ands")?,
            adds: as_u64(entries, "adds")?,
            bytes: as_u64(entries, "bytes")?,
            rounds: as_u64(entries, "rounds")?,
            // Absent from traces recorded before the cache had runs / Transform a
            // window.
            merges: as_opt_u64(entries, "merges")?.unwrap_or(0),
            merged_rows: as_opt_u64(entries, "merged_rows")?.unwrap_or(0),
            window_rows: as_opt_u64(entries, "window_rows")?.unwrap_or(0),
        })
    }
}

impl Event {
    /// Encode the event as a JSON value (the JSONL line format).
    #[must_use]
    pub(crate) fn to_json_value(&self) -> Value {
        match self {
            Event::Span(s) => Value::Object(vec![
                ("ev".to_string(), Value::String("span".to_string())),
                ("name".to_string(), Value::String(s.name.clone())),
                ("step".to_string(), opt_u64_value(s.step)),
                ("shard".to_string(), opt_u64_value(s.shard)),
                ("depth".to_string(), Value::UInt(u64::from(s.depth))),
                ("host_nanos".to_string(), Value::UInt(s.host_nanos)),
                ("sim_nanos".to_string(), opt_u64_value(s.sim_nanos)),
                (
                    "cost".to_string(),
                    match s.cost {
                        Some(c) => c.to_json(),
                        None => Value::Null,
                    },
                ),
            ]),
            Event::Observe(o) => Value::Object(vec![
                ("ev".to_string(), Value::String("observe".to_string())),
                (
                    "kind".to_string(),
                    Value::String(o.kind.wire_name().to_string()),
                ),
                ("step".to_string(), Value::UInt(o.step)),
                ("shard".to_string(), opt_u64_value(o.shard)),
                ("count".to_string(), Value::UInt(o.count)),
            ]),
            Event::Epsilon(e) => Value::Object(vec![
                ("ev".to_string(), Value::String("epsilon".to_string())),
                ("mechanism".to_string(), Value::String(e.mechanism.clone())),
                ("epsilon".to_string(), Value::Float(e.epsilon)),
                ("sensitivity".to_string(), Value::Float(e.sensitivity)),
                ("step".to_string(), opt_u64_value(e.step)),
                ("shard".to_string(), opt_u64_value(e.shard)),
            ]),
        }
    }

    /// Decode an event from its JSON value form, validating the schema.
    ///
    /// # Errors
    /// Returns a [`SchemaError`] naming the first field that fails validation.
    pub(crate) fn from_json_value(value: &Value) -> Result<Self, SchemaError> {
        let Value::Object(entries) = value else {
            return Err(SchemaError::new("event must be a JSON object"));
        };
        match as_str(entries, "ev")? {
            "span" => Ok(Event::Span(SpanRecord {
                name: as_str(entries, "name")?.to_string(),
                step: as_opt_u64(entries, "step")?,
                shard: as_opt_u64(entries, "shard")?,
                depth: u32::try_from(as_u64(entries, "depth")?)
                    .map_err(|_| SchemaError::new("`depth` out of range"))?,
                host_nanos: as_u64(entries, "host_nanos")?,
                sim_nanos: as_opt_u64(entries, "sim_nanos")?,
                cost: match field(entries, "cost") {
                    None | Some(&Value::Null) => None,
                    Some(v) => Some(CostDelta::from_json(v)?),
                },
            })),
            "observe" => Ok(Event::Observe(ObserveRecord {
                kind: ObserveKind::from_wire(as_str(entries, "kind")?)
                    .ok_or_else(|| SchemaError::new("unknown observe `kind`"))?,
                step: as_u64(entries, "step")?,
                shard: as_opt_u64(entries, "shard")?,
                count: as_u64(entries, "count")?,
            })),
            "epsilon" => Ok(Event::Epsilon(LedgerEntry {
                mechanism: as_str(entries, "mechanism")?.to_string(),
                epsilon: as_f64(entries, "epsilon")?,
                sensitivity: as_f64(entries, "sensitivity")?,
                step: as_opt_u64(entries, "step")?,
                shard: as_opt_u64(entries, "shard")?,
            })),
            other => Err(SchemaError::new(format!("unknown event kind `{other}`"))),
        }
    }

    /// Parse one JSONL line into an event.
    ///
    /// # Errors
    /// Returns a [`SchemaError`] when the line is not valid JSON or does not
    /// match the event schema.
    pub fn from_json_line(line: &str) -> Result<Self, SchemaError> {
        let value = serde_json::from_str(line)
            .map_err(|e| SchemaError::new(format!("invalid JSON: {e:?}")))?;
        Self::from_json_value(&value)
    }
}

impl Serialize for Event {
    fn serialize(&self) -> Value {
        self.to_json_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(event: Event) {
        let line = serde_json::to_string(&event).expect("serializable");
        let back = Event::from_json_line(&line).expect("roundtrip");
        assert_eq!(back, event);
    }

    #[test]
    fn events_roundtrip_through_jsonl() {
        roundtrip(Event::Span(SpanRecord {
            name: "transform".to_string(),
            step: Some(7),
            shard: None,
            depth: 1,
            host_nanos: 12_345,
            sim_nanos: Some(987),
            cost: Some(CostDelta {
                compares: 1,
                swaps: 2,
                ands: 3,
                adds: 4,
                bytes: 5,
                rounds: 6,
                merges: 7,
                merged_rows: 8,
                window_rows: 9,
            }),
        }));
        roundtrip(Event::Span(SpanRecord {
            name: "query".to_string(),
            step: None,
            shard: Some(3),
            depth: 0,
            host_nanos: 0,
            sim_nanos: None,
            cost: None,
        }));
        roundtrip(Event::Observe(ObserveRecord {
            kind: ObserveKind::ViewSync,
            step: 40,
            shard: Some(1),
            count: 17,
        }));
        roundtrip(Event::Epsilon(LedgerEntry {
            mechanism: "timer.sync".to_string(),
            epsilon: 0.15,
            sensitivity: 1.0,
            step: Some(40),
            shard: None,
        }));
    }

    #[test]
    fn schema_violations_are_rejected() {
        assert!(Event::from_json_line("not json").is_err());
        assert!(Event::from_json_line("[1,2]").is_err());
        assert!(Event::from_json_line(r#"{"ev":"mystery"}"#).is_err());
        assert!(
            Event::from_json_line(r#"{"ev":"observe","kind":"nope","step":1,"count":2}"#).is_err()
        );
        assert!(Event::from_json_line(r#"{"ev":"span","name":"x","depth":-1}"#).is_err());
        assert!(
            Event::from_json_line(r#"{"ev":"epsilon","mechanism":"m","epsilon":"lots"}"#).is_err()
        );
    }

    #[test]
    fn cost_delta_accumulates_saturating() {
        let mut a = CostDelta {
            compares: u64::MAX,
            ..CostDelta::default()
        };
        a.accumulate(CostDelta {
            compares: 1,
            bytes: 9,
            ..CostDelta::default()
        });
        assert_eq!(a.compares, u64::MAX);
        assert_eq!(a.bytes, 9);
    }
}
