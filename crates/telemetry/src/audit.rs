//! The leakage auditor: machine-checks of the paper's leakage claims against a
//! recorded trace.
//!
//! DP-Sync's trace-leakage definition (arXiv 2103.15942) says the *only* thing
//! the two untrusted servers may learn is the update pattern — and that
//! pattern must be simulatable from public parameters plus the outputs of the
//! DP mechanisms. Concretely, in this codebase:
//!
//! * **Noise-free observables** — upload batch sizes, padded Transform delta
//!   sizes, shuffle bucket sizes, and flush times — are functions of public
//!   parameters alone and must be *identical* across runs that share a
//!   configuration, whatever the data says.
//! * **DP-protected observables** — view-sync *sizes* (always) and view-sync
//!   *times* (for `sDPANT`, whose firing decision reads a noised counter) —
//!   may vary with the data, but only through the DP mechanism's output.
//!
//! [`LeakageProfile`] extracts exactly the noise-free portion of a trace so a
//! property test can assert it is data-independent; [`check_trace`] runs
//! single-trace structural checks (padding sizes, cadences, ε bounds) that
//! need no second run; [`LedgerSummary`] aggregates the ε-ledger so the
//! accountant's claimed budget can be reconciled with the ε actually spent.

use crate::event::{Event, ObserveKind, ObserveRecord};
use std::collections::BTreeMap;

/// Project a trace onto its *semantic* events — server observables and ε-ledger
/// entries — in a canonical order, so traces recorded under different physical
/// schedules can be compared for equality.
///
/// The parallel cluster runtime interleaves events from several threads into
/// one collector; the interleaving across `(step, shard)` coordinates is
/// scheduler-dependent, but the events *within* one coordinate all come from a
/// single thread and arrive in program order. A stable sort by
/// `(step, shard)` therefore recovers a schedule-independent trace: two runs
/// are semantically identical iff their canonical traces are equal. Spans are
/// dropped — they carry host wall-clock and may legitimately differ across
/// schedules (and machines); observables and spent ε may not.
#[must_use]
pub fn canonical_observable_trace(events: &[Event]) -> Vec<Event> {
    let mut trace: Vec<Event> = events
        .iter()
        .filter(|e| matches!(e, Event::Observe(_) | Event::Epsilon(_)))
        .cloned()
        .collect();
    let key = |e: &Event| -> (u64, u64) {
        match e {
            Event::Observe(o) => (o.step, o.shard.unwrap_or(u64::MAX)),
            Event::Epsilon(l) => (l.step.unwrap_or(u64::MAX), l.shard.unwrap_or(u64::MAX)),
            Event::Span(_) => unreachable!("spans are filtered out"),
        }
    };
    trace.sort_by_key(key);
    trace
}

/// Deterministic 64-bit digest (FNV-1a over the JSONL encoding) of the
/// [`canonical_observable_trace`]. Two runs replayed the same semantic
/// trajectory iff their fingerprints agree, so CI can compare runs — e.g. the
/// same benchmark under different party execution modes — by one hex line
/// instead of shipping whole traces around. Spans never contribute (they carry
/// host wall-clock), so the fingerprint is schedule- and machine-stable for a
/// fixed trajectory.
#[must_use]
pub fn canonical_trace_fingerprint(events: &[Event]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = FNV_OFFSET;
    let mut mix = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    };
    for event in canonical_observable_trace(events) {
        let line = serde_json::to_string(&event).expect("events serialize infallibly");
        line.bytes().for_each(&mut mix);
        mix(b'\n');
    }
    hash
}

/// Whether view-sync *times* are public (timer cadence) or themselves the
/// output of a DP mechanism (ANT's noised counter-vs-threshold comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncTiming {
    /// `sDPTimer`: syncs fire at a public cadence; their times belong in the
    /// data-independent profile.
    Public,
    /// `sDPANT`: syncs fire when a DP-noised counter crosses a DP-noised
    /// threshold; their times are DP-protected and excluded from the profile.
    DpProtected,
}

/// One entry of the noise-free observable profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileEntry {
    /// A sized observation whose count is a function of public parameters.
    Sized(ObserveRecord),
    /// A timing-only observation (the size is DP-noised, the time is public).
    TimedOnly {
        /// What was observed.
        kind: ObserveKind,
        /// Simulation step of the observation.
        step: u64,
        /// Shard index, if any.
        shard: Option<u64>,
    },
}

/// The noise-free portion of a trace's server-observable events: everything
/// that must be bit-identical across same-config runs regardless of the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakageProfile {
    entries: Vec<ProfileEntry>,
}

impl LeakageProfile {
    /// Extract the noise-free observable profile from a trace.
    ///
    /// Upload batches, cache appends and shuffle buckets keep their sizes;
    /// cache flushes keep only their times (the flushed count depends on the
    /// residual cache size, which earlier noised reads make data-dependent);
    /// view syncs keep their times under [`SyncTiming::Public`] and are
    /// dropped entirely under [`SyncTiming::DpProtected`].
    #[must_use]
    pub fn from_events(events: &[Event], sync_timing: SyncTiming) -> Self {
        let mut entries = Vec::new();
        for event in events {
            let Event::Observe(o) = event else {
                continue;
            };
            match o.kind {
                ObserveKind::UploadBatch
                | ObserveKind::CacheAppend
                | ObserveKind::ShuffleBucket => {
                    entries.push(ProfileEntry::Sized(*o));
                }
                ObserveKind::CacheFlush => entries.push(ProfileEntry::TimedOnly {
                    kind: o.kind,
                    step: o.step,
                    shard: o.shard,
                }),
                ObserveKind::ViewSync => {
                    if sync_timing == SyncTiming::Public {
                        entries.push(ProfileEntry::TimedOnly {
                            kind: o.kind,
                            step: o.step,
                            shard: o.shard,
                        });
                    }
                }
                // Channel-byte totals aggregate traffic across the charge
                // window, including recoveries whose presence rides on
                // DP-timed sync decisions — protocol metadata, not part of the
                // noise-free observable profile.
                ObserveKind::PartyBytes => {}
            }
        }
        Self { entries }
    }

    /// The profile entries, in trace order.
    #[must_use]
    pub fn entries(&self) -> &[ProfileEntry] {
        &self.entries
    }
}

/// Aggregated ε spends for one mechanism label.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismStat {
    /// Mechanism label (e.g. `"timer.sync"`).
    pub mechanism: String,
    /// Number of ledger entries with this label.
    pub invocations: u64,
    /// Sum of ε across those entries.
    pub total_epsilon: f64,
    /// Largest single-invocation ε.
    pub max_epsilon: f64,
    /// Distinct per-invocation ε values, ascending.
    pub epsilons: Vec<f64>,
}

/// The replayable ε-ledger of a trace, aggregated per mechanism.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerSummary {
    /// Total number of ledger entries in the trace.
    pub entries: usize,
    /// Largest single-invocation ε anywhere in the ledger.
    pub max_epsilon: f64,
    /// Per-mechanism aggregates, in first-seen order.
    pub mechanisms: Vec<MechanismStat>,
}

impl LedgerSummary {
    /// Aggregate every [`Event::Epsilon`] entry in a trace.
    #[must_use]
    pub fn from_events(events: &[Event]) -> Self {
        let mut summary = LedgerSummary::default();
        for event in events {
            let Event::Epsilon(e) = event else {
                continue;
            };
            summary.entries += 1;
            summary.max_epsilon = summary.max_epsilon.max(e.epsilon);
            let stat = match summary
                .mechanisms
                .iter_mut()
                .find(|m| m.mechanism == e.mechanism)
            {
                Some(stat) => stat,
                None => {
                    summary.mechanisms.push(MechanismStat {
                        mechanism: e.mechanism.clone(),
                        invocations: 0,
                        total_epsilon: 0.0,
                        max_epsilon: 0.0,
                        epsilons: Vec::new(),
                    });
                    summary.mechanisms.last_mut().expect("just pushed")
                }
            };
            stat.invocations += 1;
            stat.total_epsilon += e.epsilon;
            stat.max_epsilon = stat.max_epsilon.max(e.epsilon);
            if !stat.epsilons.iter().any(|&x| (x - e.epsilon).abs() < 1e-12) {
                stat.epsilons.push(e.epsilon);
                stat.epsilons.sort_by(f64::total_cmp);
            }
        }
        summary
    }

    /// The aggregate for `mechanism`, if the ledger contains it.
    #[must_use]
    pub fn mechanism(&self, mechanism: &str) -> Option<&MechanismStat> {
        self.mechanisms.iter().find(|m| m.mechanism == mechanism)
    }
}

/// Config-derived expectations for [`check_trace`]. Every field is optional;
/// `None` skips the corresponding exact check (the generic structural checks
/// always run).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Expectations {
    /// Exact padded size of every Transform delta (CacheAppend count).
    pub delta_batch: Option<u64>,
    /// Cache flushes must land on multiples of this interval.
    pub flush_interval: Option<u64>,
    /// View syncs must land on multiples of this interval (`sDPTimer` only).
    pub timer_interval: Option<u64>,
    /// Exact padded size of every shuffle routing bucket.
    pub bucket_size: Option<u64>,
    /// No single ledger entry may spend more than this ε.
    pub max_epsilon: Option<f64>,
    /// Transform's join input is the public active window of this many steps
    /// (`b/ω − 1`): every `transform` span's `window_rows` must equal the sum of
    /// the upload batch sizes its shard observed over that many preceding steps —
    /// the cost of step `t` is a function of the batch sizes up to `t`, `b` and ω.
    /// For runs with both relations private, per-step Transform and no elastic
    /// imports (a public relation's range and an imported block are public too,
    /// but not derivable from upload sizes).
    pub window_steps: Option<u64>,
}

/// A passed audit: what was checked.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Number of observable-size events inspected.
    pub observes_checked: usize,
    /// Number of ε-ledger entries inspected.
    pub ledger_entries: usize,
    /// Number of spans seen (not themselves audited, reported for context).
    pub spans_seen: usize,
}

/// A failed audit: every violated claim, in trace order.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditError {
    /// Human-readable description of each violation.
    pub violations: Vec<String>,
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "leakage audit failed with {} violation(s):",
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AuditError {}

/// Machine-check a single trace's structural leakage claims.
///
/// Generic checks (always on):
/// * every Transform delta appended to a shard's cache has the same padded
///   size as that shard's other deltas — the cache-growth pattern leaks
///   nothing but the public schedule;
/// * within one step, every destination shard receives the same sequence of
///   shuffle-bucket sizes — routing leaks nothing about which shard owns the
///   hot keys (left and right relations route separately within a step, so
///   sizes may differ *across* routing phases but never *across*
///   destinations);
/// * every ε-ledger entry has positive ε and positive sensitivity.
///
/// Traces that sweep several configurations through one process (every bench
/// binary does) are segmented at step-counter resets: observable steps within
/// one simulation only ever advance, so an observable whose step is *smaller*
/// than its predecessor's marks the start of a new run, and the structural
/// checks restart with it. Shuffle buckets are segmented on their own stream:
/// one thread emits every bucket observe of a run in step order, while a
/// threaded cluster's broker runs ahead of the shards, so their observes for
/// earlier steps interleave with the buckets of later ones.
///
/// Exact checks run for each `Some` field of [`Expectations`]; the window check
/// is the one place a span is audited (its `window_rows` stamp, not its timing).
///
/// # Errors
/// Returns an [`AuditError`] listing every violated claim.
pub fn check_trace(events: &[Event], expect: &Expectations) -> Result<AuditReport, AuditError> {
    let mut report = AuditReport::default();
    let mut violations = Vec::new();
    // Run segmentation: a step decrease between consecutive observables marks
    // the start of a new simulation run within the same trace.
    let mut run = 0u64;
    let mut last_step: Option<u64> = None;
    // Per-(run, shard) first-seen CacheAppend size (shard `None` keyed
    // separately).
    let mut append_sizes: Vec<((u64, Option<u64>), u64)> = Vec::new();
    // Per-(run, step), per-destination ShuffleBucket size sequences (trace
    // order).
    type BucketLanes = Vec<(Option<u64>, Vec<u64>)>;
    let mut bucket_lanes: Vec<((u64, u64), BucketLanes)> = Vec::new();
    let mut bucket_run = 0u64;
    let mut last_bucket_step: Option<u64> = None;
    // Per-shard upload batches `(step, size)` still inside the window. Segmented
    // on its own: a shard's upload steps only ever advance within one run.
    type Uploads = Vec<(u64, u64)>;
    let mut uploads: BTreeMap<Option<u64>, Uploads> = BTreeMap::new();

    for event in events {
        match event {
            Event::Span(span) => {
                report.spans_seen += 1;
                let stamped = (span.name == "transform")
                    .then_some(span.cost.zip(span.step))
                    .flatten();
                if let (Some(window), Some((cost, step))) = (expect.window_steps, stamped) {
                    let batches = uploads.entry(span.shard).or_default();
                    batches.retain(|&(at, _)| at + window >= step);
                    let live = batches.iter().filter(|&&(at, _)| at < step);
                    let expected: u64 = live.map(|&(_, size)| size).sum();
                    if cost.window_rows != expected {
                        violations.push(format!(
                            "transform at step {step} (shard {:?}) joined against {} rows, \
                             expected the {expected} rows uploaded over the {window} preceding steps",
                            span.shard, cost.window_rows
                        ));
                    }
                }
            }
            Event::Observe(o) => {
                report.observes_checked += 1;
                if last_step.is_some_and(|last| o.step < last) {
                    run += 1;
                }
                last_step = Some(o.step);
                match o.kind {
                    ObserveKind::CacheAppend => {
                        match append_sizes.iter().find(|(key, _)| *key == (run, o.shard)) {
                            Some(&(_, first)) if first != o.count => violations.push(format!(
                                "cache append at step {} (shard {:?}) has size {}, expected the shard's padded delta size {}",
                                o.step, o.shard, o.count, first
                            )),
                            Some(_) => {}
                            None => append_sizes.push(((run, o.shard), o.count)),
                        }
                        if let Some(expected) = expect.delta_batch {
                            if o.count != expected {
                                violations.push(format!(
                                    "cache append at step {} (shard {:?}) has size {}, expected configured padded size {}",
                                    o.step, o.shard, o.count, expected
                                ));
                            }
                        }
                    }
                    ObserveKind::ShuffleBucket => {
                        if last_bucket_step.is_some_and(|last| o.step < last) {
                            bucket_run += 1;
                        }
                        last_bucket_step = Some(o.step);
                        let lanes = match bucket_lanes
                            .iter_mut()
                            .find(|(key, _)| *key == (bucket_run, o.step))
                        {
                            Some((_, lanes)) => lanes,
                            None => {
                                bucket_lanes.push(((bucket_run, o.step), Vec::new()));
                                &mut bucket_lanes.last_mut().expect("just pushed").1
                            }
                        };
                        match lanes.iter_mut().find(|(shard, _)| *shard == o.shard) {
                            Some((_, counts)) => counts.push(o.count),
                            None => lanes.push((o.shard, vec![o.count])),
                        }
                        if let Some(expected) = expect.bucket_size {
                            if o.count != expected {
                                violations.push(format!(
                                    "shuffle bucket at step {} has size {}, expected configured size {}",
                                    o.step, o.count, expected
                                ));
                            }
                        }
                    }
                    ObserveKind::CacheFlush => {
                        if let Some(interval) = expect.flush_interval {
                            if interval == 0 || o.step == 0 || o.step % interval != 0 {
                                violations.push(format!(
                                    "cache flush at step {} is off the public flush cadence {}",
                                    o.step, interval
                                ));
                            }
                        }
                    }
                    ObserveKind::ViewSync => {
                        if let Some(interval) = expect.timer_interval {
                            if interval == 0 || o.step == 0 || o.step % interval != 0 {
                                violations.push(format!(
                                    "view sync at step {} is off the public timer cadence {}",
                                    o.step, interval
                                ));
                            }
                        }
                    }
                    ObserveKind::PartyBytes => {
                        // Every channel charge moves whole 4-byte words
                        // (joint randomness 24, reshare 8, recovery 8) and a
                        // zero-byte charge is never emitted.
                        if o.count == 0 || o.count % 4 != 0 {
                            violations.push(format!(
                                "party-channel charge at step {} moved {} bytes, \
                                 expected a positive multiple of the 4-byte word",
                                o.step, o.count
                            ));
                        }
                    }
                    ObserveKind::UploadBatch => {
                        if expect.window_steps.is_some() {
                            let batches = uploads.entry(o.shard).or_default();
                            if batches.last().is_some_and(|&(last, _)| o.step < last) {
                                batches.clear();
                            }
                            batches.push((o.step, o.count));
                        }
                    }
                }
            }
            Event::Epsilon(e) => {
                report.ledger_entries += 1;
                if e.epsilon.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    violations.push(format!(
                        "ledger entry `{}` at step {:?} has non-positive ε {}",
                        e.mechanism, e.step, e.epsilon
                    ));
                }
                if e.sensitivity.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    violations.push(format!(
                        "ledger entry `{}` at step {:?} has non-positive sensitivity {}",
                        e.mechanism, e.step, e.sensitivity
                    ));
                }
                if let Some(max) = expect.max_epsilon {
                    if e.epsilon > max + 1e-12 {
                        violations.push(format!(
                            "ledger entry `{}` at step {:?} spends ε {} above the per-invocation bound {}",
                            e.mechanism, e.step, e.epsilon, max
                        ));
                    }
                }
            }
        }
    }

    // Routing symmetry: within one step, every destination shard must have
    // received the same sequence of bucket sizes (emission order is
    // deterministic, so ordered equality is the right comparison).
    for ((_, step), lanes) in &bucket_lanes {
        let Some((first_shard, reference)) = lanes.first() else {
            continue;
        };
        for (shard, counts) in &lanes[1..] {
            if counts != reference {
                violations.push(format!(
                    "shuffle buckets at step {step} are asymmetric across destinations: \
                     shard {shard:?} received sizes {counts:?} but shard {first_shard:?} \
                     received {reference:?}"
                ));
            }
        }
    }

    if violations.is_empty() {
        Ok(report)
    } else {
        Err(AuditError { violations })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CostDelta, LedgerEntry, SpanRecord};

    fn ob(kind: ObserveKind, step: u64, shard: Option<u64>, count: u64) -> Event {
        Event::Observe(ObserveRecord {
            kind,
            step,
            shard,
            count,
        })
    }

    fn eps(mechanism: &str, epsilon: f64) -> Event {
        Event::Epsilon(LedgerEntry {
            mechanism: mechanism.to_string(),
            epsilon,
            sensitivity: 1.0,
            step: Some(1),
            shard: None,
        })
    }

    #[test]
    fn fingerprint_is_schedule_invariant_and_content_sensitive() {
        let base = vec![
            ob(ObserveKind::UploadBatch, 1, Some(0), 4),
            ob(ObserveKind::UploadBatch, 1, Some(1), 4),
            eps("timer.sync", 0.1),
            ob(ObserveKind::ViewSync, 2, Some(0), 13),
        ];
        let fp = canonical_trace_fingerprint(&base);
        // Reordering across (step, shard) coordinates — a different thread
        // schedule — and interleaving spans must not move the fingerprint.
        let mut shuffled = vec![base[3].clone(), base[1].clone()];
        shuffled.push(Event::Span(SpanRecord {
            name: "runtime.step".to_string(),
            step: Some(1),
            shard: Some(0),
            depth: 0,
            host_nanos: 123_456,
            sim_nanos: None,
            cost: None,
        }));
        shuffled.push(base[0].clone());
        shuffled.push(base[2].clone());
        assert_eq!(canonical_trace_fingerprint(&shuffled), fp);
        // Any semantic change — one padded size off by one — must move it.
        let mut tampered = base;
        tampered[3] = ob(ObserveKind::ViewSync, 2, Some(0), 14);
        assert_ne!(canonical_trace_fingerprint(&tampered), fp);
    }

    #[test]
    fn profile_keeps_noise_free_observables_and_drops_noised_sizes() {
        let events = vec![
            ob(ObserveKind::UploadBatch, 1, None, 4),
            ob(ObserveKind::CacheAppend, 1, None, 8),
            ob(ObserveKind::ViewSync, 10, None, 13),
            ob(ObserveKind::CacheFlush, 50, None, 5),
        ];
        let public = LeakageProfile::from_events(&events, SyncTiming::Public);
        assert_eq!(public.entries().len(), 4);
        assert!(matches!(
            public.entries()[2],
            ProfileEntry::TimedOnly {
                kind: ObserveKind::ViewSync,
                step: 10,
                ..
            }
        ));
        let protected = LeakageProfile::from_events(&events, SyncTiming::DpProtected);
        assert_eq!(protected.entries().len(), 3);
        // A differently-noised sync size must not change the public profile.
        let mut renoised = events.clone();
        renoised[2] = ob(ObserveKind::ViewSync, 10, None, 29);
        assert_eq!(
            LeakageProfile::from_events(&renoised, SyncTiming::Public),
            public
        );
    }

    #[test]
    fn ledger_summary_aggregates_per_mechanism() {
        let events = vec![
            eps("timer.sync", 0.15),
            eps("timer.sync", 0.15),
            eps("ant.counter", 0.05),
        ];
        let summary = LedgerSummary::from_events(&events);
        assert_eq!(summary.entries, 3);
        assert!((summary.max_epsilon - 0.15).abs() < 1e-12);
        let timer = summary.mechanism("timer.sync").expect("present");
        assert_eq!(timer.invocations, 2);
        assert!((timer.total_epsilon - 0.3).abs() < 1e-12);
        assert_eq!(timer.epsilons.len(), 1);
        assert!(summary.mechanism("missing").is_none());
    }

    #[test]
    fn check_trace_accepts_a_clean_trace() {
        let events = vec![
            Event::Span(SpanRecord {
                name: "transform".to_string(),
                step: Some(1),
                shard: None,
                depth: 0,
                host_nanos: 10,
                sim_nanos: None,
                cost: None,
            }),
            ob(ObserveKind::CacheAppend, 1, None, 8),
            ob(ObserveKind::CacheAppend, 2, None, 8),
            ob(ObserveKind::ViewSync, 10, None, 3),
            ob(ObserveKind::CacheFlush, 50, None, 5),
            ob(ObserveKind::ShuffleBucket, 1, Some(0), 6),
            ob(ObserveKind::ShuffleBucket, 1, Some(1), 6),
            eps("timer.sync", 0.15),
        ];
        let report = check_trace(
            &events,
            &Expectations {
                delta_batch: Some(8),
                flush_interval: Some(50),
                timer_interval: Some(10),
                bucket_size: Some(6),
                max_epsilon: Some(0.15),
                window_steps: None,
            },
        )
        .expect("clean trace");
        assert_eq!(report.observes_checked, 6);
        assert_eq!(report.ledger_entries, 1);
        assert_eq!(report.spans_seen, 1);
    }

    #[test]
    fn step_resets_segment_a_multi_run_trace() {
        // One bench process sweeping two configurations: the second run's
        // different padded delta size is legitimate, not a violation.
        let events = vec![
            ob(ObserveKind::CacheAppend, 1, None, 13),
            ob(ObserveKind::CacheAppend, 2, None, 13),
            ob(ObserveKind::CacheAppend, 1, None, 80),
            ob(ObserveKind::CacheAppend, 2, None, 80),
        ];
        check_trace(&events, &Expectations::default()).expect("segmented runs are clean");
        // Within one run (steps only advancing), a size change still flags.
        let events = vec![
            ob(ObserveKind::CacheAppend, 1, None, 13),
            ob(ObserveKind::CacheAppend, 2, None, 80),
        ];
        check_trace(&events, &Expectations::default()).expect_err("in-run size change");
    }

    #[test]
    fn bucket_symmetry_allows_per_phase_sizes_but_not_destination_skew() {
        // Left and right relations route separately within a step, so each
        // destination sees the sequence [6, 4] — symmetric, hence clean.
        let sym = vec![
            ob(ObserveKind::ShuffleBucket, 1, Some(0), 6),
            ob(ObserveKind::ShuffleBucket, 1, Some(1), 6),
            ob(ObserveKind::ShuffleBucket, 1, Some(0), 4),
            ob(ObserveKind::ShuffleBucket, 1, Some(1), 4),
        ];
        check_trace(&sym, &Expectations::default()).expect("per-phase sizes are symmetric");
        // A destination receiving a differently-sized bucket leaks key skew.
        let mut skew = sym;
        skew[3] = ob(ObserveKind::ShuffleBucket, 1, Some(1), 5);
        let err = check_trace(&skew, &Expectations::default()).expect_err("destination skew");
        assert!(err.to_string().contains("asymmetric"));
    }

    #[test]
    fn bucket_symmetry_is_segmented_on_the_bucket_stream_alone() {
        let bucket = |step: u64, shard: u64, count: u64| {
            ob(ObserveKind::ShuffleBucket, step, Some(shard), count)
        };
        let append = |step: u64, shard: u64| ob(ObserveKind::CacheAppend, step, Some(shard), 8);
        // A threaded broker routes step 3 (left relation, then right) while
        // the shards still append for step 1. Segmenting on every observable
        // would cut step 3 between its two phases and compare [6] with [4].
        let interleaved = vec![
            bucket(3, 0, 6),
            append(1, 0),
            bucket(3, 1, 6),
            bucket(3, 0, 4),
            append(1, 1),
            bucket(3, 1, 4),
        ];
        check_trace(&interleaved, &Expectations::default()).expect("interleaving is clean");
        // A genuinely asymmetric step is still caught through the interleaving.
        let mut skew = interleaved.clone();
        skew[5] = bucket(3, 1, 5);
        let err = check_trace(&skew, &Expectations::default()).expect_err("destination skew");
        assert!(err.to_string().contains("step 3 are asymmetric"), "{err}");
        // A second run, over three shards, restarts the bucket stream at step
        // 1: merged into the first run's step 1, shard 2's lane would be short.
        let first = vec![
            bucket(1, 0, 6),
            bucket(1, 1, 6),
            append(1, 0),
            bucket(2, 0, 6),
            bucket(2, 1, 6),
        ];
        let second = vec![bucket(1, 0, 9), bucket(1, 1, 9), bucket(1, 2, 9)];
        check_trace(&[first, second].concat(), &Expectations::default())
            .expect("runs are segmented at bucket-step resets");
    }

    #[test]
    fn transform_window_must_equal_the_preceding_upload_sizes() {
        let transform = |step: u64, window_rows: u64| {
            Event::Span(SpanRecord {
                name: "transform".to_string(),
                step: Some(step),
                shard: None,
                depth: 1,
                host_nanos: 1,
                sim_nanos: None,
                cost: Some(CostDelta {
                    window_rows,
                    ..CostDelta::default()
                }),
            })
        };
        // Two relations of 4 and 3 rows a step, a window of two steps: 0, 7, 14, 14.
        let trace = |stamps: [u64; 4]| -> Vec<Event> {
            (1..=4u64)
                .flat_map(|t| {
                    [
                        ob(ObserveKind::UploadBatch, t, None, 4),
                        ob(ObserveKind::UploadBatch, t, None, 3),
                        transform(t, stamps[t as usize - 1]),
                    ]
                })
                .collect()
        };
        let expect = Expectations {
            window_steps: Some(2),
            ..Expectations::default()
        };
        check_trace(&trace([0, 7, 14, 14]), &expect).expect("the window slides");
        // A second run in the same trace starts from an empty window.
        let two_runs = [trace([0, 7, 14, 14]), trace([0, 7, 14, 14])].concat();
        check_trace(&two_runs, &expect).expect("runs are segmented at upload-step resets");
        // A join over everything uploaded so far (or over a data-dependent count)
        // is not a function of the window.
        let err = check_trace(&trace([0, 7, 14, 21]), &expect).expect_err("grew past the window");
        assert!(err.to_string().contains("joined against 21 rows"), "{err}");
        check_trace(&trace([0, 7, 14, 21]), &Expectations::default()).expect("check is opt-in");
    }

    #[test]
    fn check_trace_flags_every_violation_class() {
        let events = vec![
            ob(ObserveKind::CacheAppend, 1, None, 8),
            ob(ObserveKind::CacheAppend, 2, None, 9),
            ob(ObserveKind::ViewSync, 7, None, 3),
            ob(ObserveKind::CacheFlush, 49, None, 5),
            ob(ObserveKind::ShuffleBucket, 1, Some(0), 6),
            ob(ObserveKind::ShuffleBucket, 1, Some(1), 7),
            eps("timer.sync", 0.5),
            eps("broken", -1.0),
        ];
        let err = check_trace(
            &events,
            &Expectations {
                delta_batch: None,
                flush_interval: Some(50),
                timer_interval: Some(10),
                bucket_size: None,
                max_epsilon: Some(0.15),
                window_steps: None,
            },
        )
        .expect_err("dirty trace");
        assert!(err.violations.len() >= 5, "{err}");
        let rendered = err.to_string();
        assert!(rendered.contains("cache append"));
        assert!(rendered.contains("shuffle bucket"));
        assert!(rendered.contains("flush cadence"));
        assert!(rendered.contains("timer cadence"));
        assert!(rendered.contains("non-positive"));
    }
}
