//! The Transform protocol (Algorithm 1), executed incrementally.
//!
//! Invoked whenever owners submit new data, Transform:
//!
//! 1. converts the newly outsourced data into its corresponding view entries using a
//!    **truncated** oblivious join (each record contributes at most ω rows, Eq. 3),
//! 2. writes the exhaustively padded result ΔV to the secure cache, and
//! 3. maintains a secret-shared cardinality counter of how many real view entries have
//!    been cached since the last synchronization, re-sharing it with fresh joint
//!    randomness (Section 5.1, "Secret-sharing inside MPC").
//!
//! Lifetime contribution budgets (Section 5.1, "Contribution over time") are enforced
//! here, structurally: every invocation a record takes part in charges ω against its
//! budget `b`, and it takes part in the one it arrives in plus the `W = b/ω − 1`
//! after, never more — past that its batch leaves the join input altogether — which
//! is what makes the composed transformation `b`-stable and the total privacy loss
//! bounded. Arrival ids are monotone, so no record is ever admitted twice.
//!
//! # Incremental execution
//!
//! In the real protocol the servers already hold the outsourced shares and
//! `σ ← σ ‖ ΔV` is an append: an invocation joins only the new delta against data
//! it can still join with. Both the modeled cost and the simulation's host cost
//! follow that shape — per invocation, `|Δ|` against a window of public length.
//!
//! * **The join input is the public active window.** A record is charged ω when it
//!   arrives and ω at every later step, *whether or not it matches*, so the batch
//!   it came in retires `b/ω − 1` steps after its upload — a function of the upload
//!   step, `b` and ω, which the servers already know (DP-Sync's update pattern:
//!   batch sizes and arrival times). Per accumulated relation Transform therefore
//!   tracks the padded lengths of the batches of the last `b/ω − 1` steps
//!   ([`incshrink_storage::ActiveWindow`], the same sliding window the
//!   `OutsourcedStore` keeps the batches' shares in) and prices every join as
//!   `join_cost(|Δ|, window rows)`: dummies included, retired batches excluded, no
//!   term for the rest of the relation. This is a **declared deviation** from
//!   Algorithm 1's "join Δ with the outsourced relation" (`|Δ|·n`, growing with
//!   the horizon); the whole-relation price is one
//!   [`incshrink_oblivious::nested_loop_join_cost`]`(|Δ|, n)` call for a figure
//!   that wants it. A *public* right relation (CPDB's Award table) is scanned over
//!   the rows timed `[t, t + window]` for the step-`t` delta — fixed by the step
//!   number, since a record's time column is its upload step — two
//!   `partition_point`s on a time column sorted once in [`TransformProtocol::new`].
//! * **What is kept for the matching** is, per accumulated relation, the plaintext
//!   mirror of the window's real records plus a persistent join-key index
//!   (`ActiveRelation`: records + [`incshrink_oblivious::KeyIndex`]). Arrivals
//!   are pushed at the tail; nothing is recovered, re-shared or re-indexed per
//!   step, so the host does `O(|Δ|)` work plus one pop per expired record. No copy
//!   of the window's *shares* is kept here: the store holds them and nothing
//!   downstream observes their words — ΔV's shares are drawn fresh from the
//!   per-invocation stream in [`incshrink_oblivious::push_padded`].
//! * **Why mirror-driven matching is the same simulated circuit.** Every truncated
//!   join operator in `incshrink_oblivious::join` derives its output from
//!   [`incshrink_oblivious::truncated_match_rows`] over recovered plaintext and
//!   charges the data-independent schedule separately. The mirror *is* the
//!   recovered plaintext of the window's real rows (a dummy never matches), in the
//!   window's block order, and a candidate walk visits matching inner rows in
//!   ascending position order — the order the operator's scan does — so ΔV and
//!   truncation losses are identical to running the planned share-array operator
//!   over the store's padded window shares, and so is the `CostReport`
//!   (lockstep-tested over both).
//! * **The budget is a stamp.** Every mirrored record carries the last step it may
//!   join at: `c + W` for an arrival admitted at step `c`, `covered + steps left`
//!   for an import. Arrival stamps never decrease along the mirror, so what expires
//!   in a step is normally a prefix — the real records of the batch the window just
//!   dropped — popped off the front and unlinked from the index in O(expired).
//!   Elastic migration breaks the ordering: [`TransformProtocol::import_active`]
//!   appends records with whatever steps they had left at the source, and
//!   [`TransformProtocol::export_active`] takes a key range out of the middle. Such
//!   records die *in place* (an export sets the stamp to 0) and the candidate walk
//!   skips every record whose stamp has passed. Positions never move, so the walk
//!   meets the live records in the order a compacted mirror would hold them, and
//!   the ω-truncation keeps the same first candidates. A dead record leaves with
//!   the front, at the latest when its window block retires.
//! * **Migration keeps the window public by the conservative rule.** Which rows a
//!   migration moves is private, so the source's window keeps its blocks until
//!   they age out, and the destination's grows by one block of the source's window
//!   length at export, live for a full `b/ω − 1` steps (no imported record has more
//!   steps left than a fresh one). A cluster that migrates at every cooldown pays
//!   for it in Transform seconds.
//! * **One join path, planned on the public shape.** Each direction's join is
//!   charged as the truncated operator the planner
//!   ([`incshrink_oblivious::planner`]) prices lower under the run's cost model —
//!   Algorithm 4's nested loop or Example 5.1's sort-merge join, which emit the same
//!   ΔV — for the shape `(|Δ|, window rows, ω, arities)`. Both candidates' reports
//!   are memoised per shape, so a repeated shape costs two dot products. The match
//!   runs inside a span named after the planned operator, which records its cost.
//! * **`k`-step batching** — [`TransformProtocol::invoke_batched`] runs up to `k`
//!   deferred upload steps as one invocation: the per-step plaintext functionality
//!   (eviction, truncated matching, per-step counter reshares) is the same
//!   loop body whatever `k` is, and only the pricing differs — each direction is
//!   planned once over the combined delta against every row one of its steps can
//!   join with (the first step's window plus the batches the earlier steps
//!   append); for `k = 1` that is the step's window. Upload epochs are public
//!   metadata (the servers observe every batch arrival), so restricting the
//!   batched join to the same cross-epoch pairs the per-step invocations would
//!   produce costs no extra oblivious work. DP-relevant state — counter values,
//!   reshare cadence, ΔV contents — is invariant in `k`.

use crate::view::ViewDefinition;
use incshrink_mpc::cost::{CostMeter, CostModel, CostReport, SimDuration};
use incshrink_mpc::PartyExec;
use incshrink_oblivious::planner::{Calibration, JoinAlgorithm, JoinPlan, JoinShape, PlanMemo};
use incshrink_oblivious::{push_padded, truncated_match_rows, JoinSpec, KeyIndex, RowRef};
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::PlainRecord;
use incshrink_storage::{ActiveWindow, RecordId, UploadBatch};
use incshrink_telemetry::Span;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Name under which the cardinality counter is secret-shared on the two servers.
pub const CARDINALITY_SHARE: &str = "cardinality";

/// A record currently eligible to participate in view transformations (it still has
/// contribution budget). The framework keeps these as the plaintext mirror of the
/// real rows of the store's secret-shared active window; the joins themselves run
/// over shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveRecord {
    /// The record's id, used for contribution accounting.
    pub id: RecordId,
    /// The record's column values.
    pub fields: Vec<u32>,
}

impl ActiveRecord {
    fn key(&self, column: usize) -> Option<u32> {
        self.fields.get(column).copied()
    }
}

/// An active record bundled with how many more steps it may join at — its
/// remaining contribution budget in units of ω — the unit shipped between shards
/// during elastic migration ([`TransformProtocol::export_active`] /
/// [`TransformProtocol::import_active`]).
pub type BudgetedRecord = (ActiveRecord, u64);

/// One owner upload step deferred for batched Transform execution: its padded
/// upload batches. What each delta is joined against — the public active window —
/// is the protocol's own state, not an input.
#[derive(Debug, Clone)]
pub struct StepInputs {
    /// The left relation's padded upload batch.
    pub delta_left: UploadBatch,
    /// The right relation's padded upload batch (absent when the right is public).
    pub delta_right: Option<UploadBatch>,
}

/// One accumulated relation as Transform sees it: the *public active window* — the
/// padded lengths of the upload batches a delta can still join with, which is what
/// every join is priced over — and, for the matching, the plaintext mirror of the
/// window's real records, each stamped with the last step it may join at, with
/// their join-key index (see the module docs).
///
/// Invariants: `index` equals a [`KeyIndex`] built from scratch over `records` by
/// `key_column` — appends and evictions update both in lockstep; and every mirrored
/// record, live or dead, sits in a live window block, so
/// `records.len() <= window.rows()`.
#[derive(Debug)]
struct ActiveRelation {
    records: VecDeque<(ActiveRecord, u64)>,
    index: KeyIndex,
    key_column: usize,
    window: ActiveWindow<()>,
}

impl ActiveRelation {
    fn new(key_column: usize) -> Self {
        Self {
            records: VecDeque::new(),
            index: KeyIndex::default(),
            key_column,
            window: ActiveWindow::default(),
        }
    }

    /// The records that may still join at step `covered`.
    fn live(&self, covered: u64) -> impl Iterator<Item = &ActiveRecord> {
        let live = self
            .records
            .iter()
            .filter(move |(_, stamp)| *stamp >= covered);
        live.map(|(rec, _)| rec)
    }

    /// A block of `rows` padded rows joins the window at step `covered` and its real
    /// `records` join the mirror, each stamped `covered` plus its steps left. The
    /// `b`-bound is structural: no record is admitted with more steps left than a
    /// fresh arrival's `window_steps`.
    fn admit(
        &mut self,
        covered: u64,
        window_steps: u64,
        rows: usize,
        records: impl IntoIterator<Item = BudgetedRecord>,
    ) {
        self.window.admit(covered, window_steps, rows, ());
        for (rec, steps_left) in records {
            debug_assert!(
                steps_left <= window_steps,
                "a record would join past its contribution budget"
            );
            self.index.push(rec.key(self.key_column));
            self.records.push_back((rec, covered + steps_left));
        }
    }

    /// The from-scratch index the persistent one must equal.
    fn fresh_index(&self) -> KeyIndex {
        let keys = self.records.iter().map(|(rec, _)| rec.key(self.key_column));
        keys.collect()
    }

    /// Pop the records whose last step is before `covered` off the front of the
    /// mirror (`tuples expire` eviction) — without migration, the real records of
    /// exactly the batches the window dropped after the previous step. A dead record
    /// behind a live one stays in place until the front reaches it.
    fn evict(&mut self, covered: u64) {
        while let Some((rec, stamp)) = self.records.front() {
            if *stamp >= covered {
                break;
            }
            self.index.pop_front(rec.key(self.key_column));
            self.records.pop_front();
        }
        debug_assert!(
            self.index == self.fresh_index(),
            "persistent key index drifted from the active mirror"
        );
        debug_assert!(
            self.records.len() <= self.window.rows(),
            "an active record outlived its window block"
        );
    }

    /// Mark the live records whose join key satisfies `moved` dead in place and
    /// return them with their steps left (elastic migration: they leave for another
    /// shard). Nothing moves, so the index stays as it is. The window keeps its
    /// blocks until they age out: which rows left is private, when a batch arrived
    /// is not.
    fn extract(&mut self, moved: &dyn Fn(u32) -> bool, covered: u64) -> Vec<BudgetedRecord> {
        let key_column = self.key_column;
        self.records
            .iter_mut()
            .filter(|(rec, stamp)| *stamp >= covered && rec.key(key_column).is_some_and(moved))
            .map(|(rec, stamp)| (rec.clone(), std::mem::replace(stamp, 0) - covered))
            .collect()
    }

    /// Match `outer` against the records that may still join at step `covered`.
    fn join_into(
        &self,
        out: &mut DeltaOut,
        outer: &[PlainRecord],
        spec: &JoinSpec<'_>,
        covered: u64,
    ) -> (usize, u64) {
        out.join(
            outer,
            |i| &self.records[i].0.fields,
            |key| {
                let candidates = self.index.candidates(key);
                candidates.filter(move |&i| self.records[i].1 >= covered)
            },
            spec,
        )
    }
}

/// The real records of a padded upload batch (the positions carrying an id), each
/// with a fresh arrival's `window_steps` to go.
fn arrivals(
    batch: &UploadBatch,
    records: Vec<PlainRecord>,
    window_steps: u64,
) -> impl Iterator<Item = BudgetedRecord> + '_ {
    batch.ids.iter().zip(records).filter_map(move |(id, rec)| {
        let rec = ActiveRecord {
            id: (*id)?,
            fields: rec.fields,
        };
        Some((rec, window_steps))
    })
}

/// Recover an upload batch's padded records once — dummies included: they take part
/// in the oblivious join shape but never match.
fn recover_padded(batch: &UploadBatch) -> Vec<PlainRecord> {
    batch
        .records
        .entries()
        .iter()
        .map(|e| e.recover())
        .collect()
}

/// A public right relation (CPDB's Award table) stored flat: row `i` is
/// `fields[i·arity .. (i+1)·arity]`. Public rows carry no contribution budget and
/// never change, so the relation is built once and only ever read.
#[derive(Debug, Clone, Default)]
pub struct PublicRelation {
    fields: Vec<u32>,
    arity: usize,
}

impl PublicRelation {
    /// Copy `rows` into one flat allocation.
    ///
    /// # Panics
    /// Panics when the rows do not all have the same, non-zero, number of columns.
    #[must_use]
    pub fn from_rows<'a>(rows: impl IntoIterator<Item = &'a [u32]>) -> Self {
        let mut rows = rows.into_iter().peekable();
        let arity = rows.peek().map_or(0, |row| row.len());
        let mut fields = Vec::with_capacity(rows.size_hint().0 * arity);
        for row in rows {
            assert!(
                arity > 0 && row.len() == arity,
                "public relation rows must share one non-zero arity"
            );
            fields.extend_from_slice(row);
        }
        Self { fields, arity }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fields.len().checked_div(self.arity).unwrap_or(0)
    }

    /// True when the relation has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    fn row(&self, position: usize) -> &[u32] {
        &self.fields[position * self.arity..(position + 1) * self.arity]
    }
}

/// The public right relation plus its static indexes, built once in
/// [`TransformProtocol::new`].
struct IndexedPublic {
    rows: PublicRelation,
    /// `(join key, position)` sorted ascending: a key's candidates are one
    /// contiguous run, in ascending position order.
    by_key: Vec<(u32, usize)>,
    /// The time column, sorted, for window cardinalities.
    times: Vec<u32>,
}

impl IndexedPublic {
    fn build(rows: PublicRelation, view: &ViewDefinition) -> Self {
        let column = |c: usize| {
            let rows = &rows;
            (0..rows.len()).map(move |i| rows.row(i).get(c).copied())
        };
        let mut by_key: Vec<(u32, usize)> = column(view.right_key)
            .enumerate()
            .filter_map(|(i, key)| Some((key?, i)))
            .collect();
        by_key.sort_unstable();
        let mut times: Vec<u32> = column(view.right_time).map(|t| t.unwrap_or(0)).collect();
        times.sort_unstable();
        Self {
            by_key,
            times,
            rows,
        }
    }

    /// Number of public rows a left delta uploaded over steps `first..=last` scans:
    /// those timed `[first, last + window]`. A record's time column is its upload
    /// step, so no row outside that range can satisfy the θ-condition — and the
    /// range is fixed by the step numbers alone, never by the delta's contents.
    fn range_len(&self, view: &ViewDefinition, first: u64, last: u64) -> usize {
        let lo = u32::try_from(first).unwrap_or(u32::MAX);
        let hi = u32::try_from(last)
            .unwrap_or(u32::MAX)
            .saturating_add(view.window);
        let below = self.times.partition_point(|&t| t < lo);
        self.times.partition_point(|&t| t <= hi) - below
    }

    fn join_into(
        &self,
        out: &mut DeltaOut,
        outer: &[PlainRecord],
        spec: &JoinSpec<'_>,
    ) -> (usize, u64) {
        let candidates = |key: u32| {
            let start = self.by_key.partition_point(|&(k, _)| k < key);
            self.by_key[start..]
                .iter()
                .take_while(move |&&(k, _)| k == key)
                .map(|&(_, position)| position)
        };
        out.join(outer, |i| self.rows.row(i), candidates, spec)
    }
}

/// The ΔV under assembly: every joined delta appends one `ω`-slot block per outer
/// row, its shares drawn from the invocation's `0xA11CE ^ time_step` stream.
struct DeltaOut {
    rows: SharedArrayPair,
    rng: StdRng,
    omega: usize,
    arity: usize,
}

impl DeltaOut {
    /// Match `outer` (a padded delta, dummies included) against an inner relation
    /// given as row access plus ascending key candidates, and append the padded
    /// output. Returns `(real entries emitted, matching pairs before truncation)`.
    fn join<'i, C: Iterator<Item = usize>>(
        &mut self,
        outer: &[PlainRecord],
        inner: impl Fn(usize) -> &'i [u32],
        candidates: impl Fn(u32) -> C,
        spec: &JoinSpec<'_>,
    ) -> (usize, u64) {
        let mut entries = 0usize;
        let pairs = truncated_match_rows(
            outer.iter().map(RowRef::from),
            inner,
            candidates,
            spec,
            self.omega,
            |produced| {
                entries += produced.len();
                push_padded(
                    &mut self.rows,
                    produced,
                    self.omega,
                    self.arity,
                    &mut self.rng,
                );
            },
        );
        (entries, pairs)
    }
}

/// One direction's planned join within an invocation: its report is charged once,
/// at the direction's first match.
struct PlannedJoin {
    plan: JoinPlan,
    charged: bool,
}

impl PlannedJoin {
    fn new(plan: JoinPlan) -> Self {
        Self {
            plan,
            charged: false,
        }
    }

    /// Open the span a match of this direction runs in, named after the planned
    /// operator. The first one also charges the planned report, on the meter and on
    /// the span.
    fn span(&mut self, meter: &mut CostMeter) -> Span {
        let mut span = match self.plan.algorithm {
            JoinAlgorithm::NestedLoop => incshrink_telemetry::span!("join.nested_loop"),
            JoinAlgorithm::SortMerge => incshrink_telemetry::span!("join.sort_merge"),
        };
        if !std::mem::replace(&mut self.charged, true) {
            span.record_cost(self.plan.report.into());
            meter.record(self.plan.report);
        }
        span
    }
}

/// Result of one Transform invocation (single-step or batched).
#[derive(Debug, Clone)]
pub struct TransformOutcome {
    /// The exhaustively padded ΔV to append to the secure cache.
    pub delta: SharedArrayPair,
    /// Number of real view entries in ΔV (protocol-internal).
    pub new_entries: usize,
    /// Oblivious-operation counts of this invocation.
    pub report: CostReport,
    /// Simulated execution time of this invocation.
    pub duration: SimDuration,
    /// How many owner upload steps this invocation covered (1 for the per-step path,
    /// up to `k` for batched execution).
    pub steps_covered: usize,
    /// Inner rows this invocation's joins were priced over, summed over its joins:
    /// public active-window lengths (or the step-fixed range of a public relation).
    pub window_rows: usize,
}

/// The Transform protocol state.
///
/// # Leakage
/// Everything the servers observe — upload batch sizes, ΔV sizes, the counter
/// reshare cadence, the join operation schedule — is a deterministic function of
/// public quantities: the padded sizes of the batches uploaded so far, `b`, ω, the
/// planning cost model and `k`. In particular the inner side of every join is the
/// public active window (padded batch lengths of the last `b/ω − 1` steps, or the
/// range of the public relation the step numbers fix), never the number of *real*
/// active records or the span of a delta's private time column: two upload streams
/// of equal padded sizes get equal `CostReport`s at every step (property-tested in
/// `tests/incremental.rs`). Batched execution defers join *work*, never messages:
/// the counter is still reshared once per covered upload step.
pub struct TransformProtocol {
    view: ViewDefinition,
    /// `left ⋈ right` and its mirror, built once (each boxes its θ-condition).
    spec: JoinSpec<'static>,
    spec_reversed: JoinSpec<'static>,
    omega: u64,
    /// `W = b/ω − 1`: how many steps after its own an uploaded batch stays joinable.
    window_steps: u64,
    active_left: ActiveRelation,
    active_right: ActiveRelation,
    /// The public right relation (CPDB's Award table), when the right side is public.
    public_right: Option<IndexedPublic>,
    /// A measured planning model replacing the run's ([`Calibration`]).
    calibration: Option<CostModel>,
    /// Both join operators' reports per public shape planned so far.
    plans: PlanMemo,
    /// Upload steps covered so far — the clock the window blocks expire on.
    covered: u64,
    total_truncation_losses: u64,
}

impl TransformProtocol {
    /// Create the protocol. `public_right` carries the full public relation when the
    /// right side is public (its records are not privacy-tracked).
    #[must_use]
    pub fn new(
        view: ViewDefinition,
        truncation_bound: u64,
        contribution_budget: u64,
        public_right: Option<PublicRelation>,
    ) -> Self {
        assert!(truncation_bound >= 1);
        assert!(contribution_budget >= truncation_bound);
        Self {
            view,
            spec: view.join_spec(),
            spec_reversed: view.join_spec_reversed(),
            omega: truncation_bound,
            window_steps: contribution_budget / truncation_bound - 1,
            active_left: ActiveRelation::new(view.left_key),
            active_right: ActiveRelation::new(view.right_key),
            public_right: public_right.map(|rows| IndexedPublic::build(rows, &view)),
            calibration: None,
            plans: PlanMemo::default(),
            covered: 0,
            total_truncation_losses: 0,
        }
    }

    /// Builder-style override of the planning model with a measured
    /// [`Calibration`] (e.g. loaded from `kernel_throughput` output). `None` (the
    /// default) plans under the cost model of the context each invocation runs in.
    #[must_use]
    pub fn with_calibration(mut self, calibration: Option<Calibration>) -> Self {
        self.set_calibration(calibration);
        self
    }

    /// In-place variant of [`Self::with_calibration`] for drivers holding the
    /// protocol inside a pipeline.
    pub fn set_calibration(&mut self, calibration: Option<Calibration>) {
        self.calibration = calibration.map(|measured| measured.cost_model());
    }

    /// Number of currently active (non-retired) records on each side.
    #[must_use]
    pub fn active_counts(&self) -> (usize, usize) {
        (
            self.active_left.live(self.covered).count(),
            self.active_right.live(self.covered).count(),
        )
    }

    /// How many steps after its own an uploaded batch stays joinable: `b/ω − 1`. A
    /// record is charged ω on arrival and ω per later step whether or not it
    /// matches, so when its batch retires is fixed by the upload step, `b` and ω.
    #[must_use]
    pub fn window_steps(&self) -> u64 {
        self.window_steps
    }

    /// Padded rows of each side's public active window — what the next step's
    /// deltas are priced against.
    #[must_use]
    pub fn window_rows(&self) -> (usize, usize) {
        (
            self.active_left.window.rows(),
            self.active_right.window.rows(),
        )
    }

    /// Cumulative number of real join pairs dropped because of the ω truncation.
    #[must_use]
    pub fn truncation_losses(&self) -> u64 {
        self.total_truncation_losses
    }

    /// Extract the active records whose join key satisfies `moved`, each with the
    /// number of steps it may still join at (elastic migration: future arrivals
    /// for that key range route to another shard, so its active records must
    /// follow or cross-time join pairs would be lost). The records die here in
    /// place; the destination's [`Self::import_active`] stamps them with the steps
    /// they have left, so the lifetime `b`-bound is preserved across the move.
    pub fn export_active(
        &mut self,
        moved: &dyn Fn(u32) -> bool,
    ) -> (Vec<BudgetedRecord>, Vec<BudgetedRecord>) {
        (
            self.active_left.extract(moved, self.covered),
            self.active_right.extract(moved, self.covered),
        )
    }

    /// Adopt active records migrated from another shard, each live for the steps
    /// it had left at the source. They join the tail of the active relations
    /// whatever those are, which is what can make a later expiry non-prefix (see
    /// the module docs). `source_window` is the source's [`Self::window_rows`] at
    /// export: how many of its rows moved is private, so each side's window grows
    /// by one block of that public length, live for a full [`Self::window_steps`]
    /// — no imported record can outlive it.
    pub fn import_active(
        &mut self,
        left: Vec<BudgetedRecord>,
        right: Vec<BudgetedRecord>,
        source_window: (usize, usize),
    ) {
        for (side, batch, rows) in [
            (&mut self.active_left, left, source_window.0),
            (&mut self.active_right, right, source_window.1),
        ] {
            debug_assert!(batch.len() <= rows, "more records than their window held");
            side.admit(self.covered, self.window_steps, rows, batch);
        }
    }

    /// Run one Transform invocation over the owner deltas submitted at a single time
    /// step: [`Self::invoke_batched`] over one [`StepInputs`] built from clones of
    /// the given batches.
    pub fn invoke(
        &mut self,
        ctx: &mut impl PartyExec,
        delta_left: &UploadBatch,
        delta_right: Option<&UploadBatch>,
    ) -> TransformOutcome {
        let step = StepInputs {
            delta_left: delta_left.clone(),
            delta_right: delta_right.cloned(),
        };
        self.invoke_batched(ctx, std::slice::from_ref(&step))
    }

    /// The inner rows a batch of deferred steps is priced against, per direction
    /// (left deltas' inner, right deltas' inner): the window the first covered step
    /// sees plus the batches the earlier steps of this very batch append — every
    /// row some covered step can still join with. For one step that is its window.
    fn batch_inner_rows(&self, steps: &[StepInputs]) -> (usize, usize) {
        let (earlier, last) = steps.split_at(steps.len() - 1);
        let appended_left: usize = earlier.iter().map(|s| s.delta_left.len()).sum();
        let appended_right: usize = earlier
            .iter()
            .filter_map(|s| s.delta_right.as_ref())
            .map(UploadBatch::len)
            .sum();
        let inner_of_left = match &self.public_right {
            Some(public) => public.range_len(
                &self.view,
                steps[0].delta_left.time,
                last[0].delta_left.time,
            ),
            None => self.active_right.window.rows() + appended_right,
        };
        (
            inner_of_left,
            self.active_left.window.rows() + appended_left,
        )
    }

    /// Run one Transform invocation over up to `k` deferred upload steps.
    ///
    /// The plaintext functionality is the sequential composition of the covered
    /// steps — per step: eviction of expired records, the truncated match of each
    /// delta against the relation accumulated so far, its `ω`-padded ΔV slice, one
    /// cardinality recover/reshare (the counter message cadence the servers observe
    /// is part of the update-pattern leakage and must not change with `k`), and the
    /// arrivals joining the window and turning active — so ΔV contents, active-set
    /// evolution and truncation losses do not depend on how steps are grouped. Only
    /// the price of the oblivious join work does: each direction is planned once
    /// over the combined delta against every row a covered step can join with
    /// (`batch_inner_rows`), and charged as the operator the planning model prices
    /// lower.
    pub fn invoke_batched(
        &mut self,
        ctx: &mut impl PartyExec,
        steps: &[StepInputs],
    ) -> TransformOutcome {
        if steps.is_empty() {
            return TransformOutcome {
                delta: SharedArrayPair::new(),
                new_entries: 0,
                report: CostReport::default(),
                duration: SimDuration::ZERO,
                steps_covered: 0,
                window_rows: 0,
            };
        }
        // Algorithm 1 line 1-2: on the first invocation, initialise and share c = 0.
        if self.covered == 0 {
            ctx.reshare_and_store(CARDINALITY_SHARE, 0);
        }

        // Relation arities are uniform across a batch; fall back across steps for
        // all-empty deltas.
        let left_arity = steps
            .iter()
            .find_map(|s| s.delta_left.records.arity())
            .unwrap_or(2);
        let public_arity = || Some(self.public_right.as_ref()?.rows.arity).filter(|&a| a > 0);
        let right_arity = steps
            .iter()
            .find_map(|s| s.delta_right.as_ref().and_then(|d| d.records.arity()))
            .or_else(public_arity)
            .unwrap_or(left_arity);
        let out_arity = left_arity + right_arity;
        let omega = self.omega as usize;
        // Plan each direction's join over the combined delta (see the method docs).
        let (inner_of_left, inner_of_right) = self.batch_inner_rows(steps);
        let model = self.calibration.unwrap_or_else(|| ctx.cost_model());
        let mut plan = |outer: usize, inner: usize| {
            let shape = JoinShape {
                outer,
                inner,
                bound: omega,
                out_arity,
                merged_arity: left_arity.max(right_arity) + 2,
            };
            PlannedJoin::new(self.plans.plan(shape, &model))
        };
        let outer_of_left = steps.iter().map(|s| s.delta_left.len()).sum();
        let mut left_join = plan(outer_of_left, inner_of_left);
        let mut rights = steps
            .iter()
            .filter_map(|s| s.delta_right.as_ref())
            .peekable();
        let mut right_join = rights
            .peek()
            .is_some()
            .then(|| plan(rights.map(UploadBatch::len).sum(), inner_of_right));
        let window_rows = inner_of_left + right_join.as_ref().map_or(0, |_| inner_of_right);

        let mut out = DeltaOut {
            rows: SharedArrayPair::with_arity(out_arity),
            rng: StdRng::seed_from_u64(0xA11CE ^ ctx.time_step()),
            omega,
            arity: out_arity,
        };
        let mut total_new_entries = 0usize;
        let window_steps = self.window_steps;

        for step in steps {
            self.covered += 1;
            // --- Contribution accounting: records whose last step has passed retire.
            let outer_left = recover_padded(&step.delta_left);
            let outer_right = step.delta_right.as_ref().map(recover_padded);
            self.active_left.evict(self.covered);
            self.active_right.evict(self.covered);

            // --- ΔV part 1: new left records ⋈ accumulated (or public) right relation.
            let upload_step = step.delta_left.time;
            debug_assert!(
                self.public_right.is_none()
                    || step
                        .delta_left
                        .ids
                        .iter()
                        .zip(&outer_left)
                        .all(|(id, rec)| {
                            let time = rec.fields.get(self.view.left_time);
                            id.is_none() || time.map(|&t| u64::from(t)) == Some(upload_step)
                        }),
                "the public range is fixed by the step: a record's time is its upload step"
            );
            let span = left_join.span(ctx.meter());
            let (mut step_entries, mut potential_pairs) = match &self.public_right {
                Some(public) => public.join_into(&mut out, &outer_left, &self.spec),
                None => {
                    self.active_right
                        .join_into(&mut out, &outer_left, &self.spec, self.covered)
                }
            };
            drop(span);

            // --- ΔV part 2: new right records ⋈ accumulated left relation
            // (private-right workloads only).
            if let (Some(outer_right), Some(right_join)) = (&outer_right, &mut right_join) {
                let span = right_join.span(ctx.meter());
                let (entries, pairs) = self.active_left.join_into(
                    &mut out,
                    outer_right,
                    &self.spec_reversed,
                    self.covered,
                );
                drop(span);
                step_entries += entries;
                potential_pairs += pairs;
            }
            // Truncation-loss bookkeeping (evaluation metric, not protocol state).
            self.total_truncation_losses += potential_pairs.saturating_sub(step_entries as u64);

            // --- Algorithm 1 lines 4-6, once per covered step: the AND-scan of this
            // step's ΔV slice, then recover the counter, add the new cardinality and
            // re-share it with fresh joint randomness.
            let padded = outer_left.len() + outer_right.as_ref().map_or(0, Vec::len);
            ctx.meter().ands((padded * omega) as u64);
            let counter = ctx.recover_named(CARDINALITY_SHARE).unwrap_or(0);
            ctx.reshare_and_store(CARDINALITY_SHARE, counter + step_entries as u32);
            total_new_entries += step_entries;

            // --- The step's batches join the window and their real records become
            // active (live for the next W steps) for later steps — of this very batch
            // too, which is how cross-step pairs inside a batch appear.
            let left = &step.delta_left;
            let fresh = arrivals(left, outer_left, window_steps);
            self.active_left
                .admit(self.covered, window_steps, left.len(), fresh);
            if let (Some(batch), Some(outer_right)) = (&step.delta_right, outer_right) {
                let fresh = arrivals(batch, outer_right, window_steps);
                self.active_right
                    .admit(self.covered, window_steps, batch.len(), fresh);
            }
        }

        let (report, duration) = ctx.charge();
        for _ in steps {
            ctx.advance_time_step();
        }
        TransformOutcome {
            delta: out.rows,
            new_entries: total_new_entries,
            report,
            duration,
            steps_covered: steps.len(),
            window_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_mpc::cost::CostModel;
    use incshrink_mpc::{PartyContext, PartyMode};
    use incshrink_storage::{LogicalUpdate, Relation, UploadBatch};
    use proptest::prelude::*;

    fn view_def() -> ViewDefinition {
        ViewDefinition {
            left_key: 0,
            left_time: 1,
            right_key: 0,
            right_time: 1,
            window: 10,
        }
    }

    fn batch(
        relation: Relation,
        time: u64,
        rows: &[(u64, u32, u32)],
        padded: usize,
    ) -> UploadBatch {
        let mut rng = StdRng::seed_from_u64(time ^ 0xBA7C4);
        let updates: Vec<LogicalUpdate> = rows
            .iter()
            .map(|&(id, key, t)| LogicalUpdate {
                id,
                relation,
                arrival: time,
                fields: vec![key, t],
            })
            .collect();
        let refs: Vec<&LogicalUpdate> = updates.iter().collect();
        UploadBatch::from_updates(relation, time, &refs, 2, padded, &mut rng)
    }

    #[test]
    fn transform_produces_padded_delta_and_counts_entries() {
        let mut ctx = PartyContext::new(PartyMode::InProcess, 1, CostModel::default());
        let mut transform = TransformProtocol::new(view_def(), 1, 10, None);

        // Step 1: two sales arrive, no returns yet.
        let left = batch(Relation::Left, 1, &[(1, 100, 1), (2, 200, 1)], 4);
        let right = batch(Relation::Right, 1, &[], 4);
        let out = transform.invoke(&mut ctx, &left, Some(&right));
        assert_eq!(out.new_entries, 0);
        // ΔV padded size = ω·(|deltaL| + |deltaR|).
        assert_eq!(out.delta.len(), 4 + 4);
        assert!(out.duration.as_secs_f64() > 0.0);
        assert_eq!(out.steps_covered, 1);

        // Step 2: a matching return for pid 100 arrives within the window.
        let left2 = batch(Relation::Left, 2, &[], 4);
        let right2 = batch(Relation::Right, 2, &[(3, 100, 3)], 4);
        let out2 = transform.invoke(&mut ctx, &left2, Some(&right2));
        assert_eq!(out2.new_entries, 1);
        assert_eq!(out2.delta.true_cardinality(), 1);

        // The shared cardinality counter accumulated 0 + 1.
        assert_eq!(ctx.recover_named(CARDINALITY_SHARE), Some(1));
        assert_eq!(transform.active_counts(), (2, 1));
    }

    #[test]
    fn truncation_bound_limits_per_record_contribution() {
        let mut ctx = PartyContext::new(PartyMode::InProcess, 2, CostModel::default());
        // ω = 2 but three matching right records exist for the same left key.
        let mut transform = TransformProtocol::new(view_def(), 2, 4, None);
        let left = batch(Relation::Left, 1, &[(1, 7, 1)], 2);
        let right = batch(Relation::Right, 1, &[(2, 7, 2), (3, 7, 3), (4, 7, 4)], 4);
        // Right delta joins against active left — but left only becomes active after
        // its own invocation, so feed left first, then right in the next invocation.
        let _ = transform.invoke(&mut ctx, &left, Some(&batch(Relation::Right, 1, &[], 4)));
        let out = transform.invoke(&mut ctx, &batch(Relation::Left, 2, &[], 2), Some(&right));
        assert_eq!(out.new_entries, 2, "ω=2 caps the pairs generated");
        assert_eq!(transform.truncation_losses(), 1);
    }

    #[test]
    fn records_retire_after_budget_exhaustion() {
        let mut ctx = PartyContext::new(PartyMode::InProcess, 3, CostModel::default());
        // b = 2, ω = 1: a record may participate in two invocations then retires.
        let mut transform = TransformProtocol::new(view_def(), 1, 2, None);
        let left = batch(Relation::Left, 1, &[(1, 9, 1)], 2);
        let empty_r = |t| batch(Relation::Right, t, &[], 2);
        let empty_l = |t| batch(Relation::Left, t, &[], 2);

        let _ = transform.invoke(&mut ctx, &left, Some(&empty_r(1)));
        assert_eq!(transform.active_counts().0, 1);
        // Second invocation: the record joins at its last step (stamp 1 + W = 2).
        let _ = transform.invoke(&mut ctx, &empty_l(2), Some(&empty_r(2)));
        assert_eq!(
            transform.window_rows(),
            (2, 2),
            "b/ω − 1 = 1 batch per side"
        );
        // Third invocation: it is excluded (retired) before any join.
        let _ = transform.invoke(&mut ctx, &empty_l(3), Some(&empty_r(3)));
        assert_eq!(transform.active_counts().0, 0);
        assert_eq!(
            transform.window_rows(),
            (2, 2),
            "the window slides, it does not grow"
        );

        // A matching return arriving now can no longer produce a view entry.
        let right = batch(Relation::Right, 4, &[(5, 9, 4)], 2);
        let out = transform.invoke(&mut ctx, &empty_l(4), Some(&right));
        assert_eq!(out.new_entries, 0);
    }

    #[test]
    fn public_right_relation_joins_without_budget_tracking() {
        let mut ctx = PartyContext::new(PartyMode::InProcess, 4, CostModel::default());
        let public = [[5u32, 12], [5, 30], [6, 14]];
        let public = PublicRelation::from_rows(public.iter().map(|row| row.as_slice()));
        let mut transform = TransformProtocol::new(view_def(), 10, 20, Some(public));
        // One allegation for officer 5 at time 10: award at 12 is in window, at 30 not.
        let left = batch(Relation::Left, 10, &[(1, 5, 10)], 3);
        let out = transform.invoke(&mut ctx, &left, None);
        assert_eq!(out.new_entries, 1);
        assert_eq!(out.delta.len(), 30, "ω·|deltaL| exhaustive padding");
        assert_eq!(transform.active_counts(), (1, 0));
    }

    #[test]
    fn cardinality_counter_is_secret_shared_between_servers() {
        let mut ctx = PartyContext::new(PartyMode::InProcess, 5, CostModel::default());
        let mut transform = TransformProtocol::new(view_def(), 1, 10, None);
        let left = batch(Relation::Left, 1, &[(1, 1, 1)], 2);
        let right = batch(Relation::Right, 1, &[(2, 1, 1)], 2);
        let _ = transform.invoke(&mut ctx, &left, Some(&right));

        let servers = ctx.local_servers().expect("in-process servers");
        let s0 = servers.s0.load_share(CARDINALITY_SHARE).unwrap();
        let s1 = servers.s1.load_share(CARDINALITY_SHARE).unwrap();
        let true_counter = ctx.recover_named(CARDINALITY_SHARE).unwrap();
        assert_eq!(s0.word ^ s1.word, true_counter);
        // Overwhelmingly, neither share alone equals the counter.
        assert!(s0.word != true_counter || s1.word != true_counter);
    }

    #[test]
    fn delta_size_is_data_independent() {
        // Two runs with identical batch sizes but different data must produce ΔV of
        // identical length and identical operation counts.
        let run = |rows_l: &[(u64, u32, u32)], rows_r: &[(u64, u32, u32)]| {
            let mut ctx = PartyContext::new(PartyMode::InProcess, 6, CostModel::default());
            let mut transform = TransformProtocol::new(view_def(), 1, 10, None);
            let left = batch(Relation::Left, 1, rows_l, 4);
            let right = batch(Relation::Right, 1, rows_r, 4);
            let out = transform.invoke(&mut ctx, &left, Some(&right));
            (out.delta.len(), out.report)
        };
        let (len_a, rep_a) = run(&[(1, 1, 1), (2, 2, 1)], &[(3, 1, 2)]);
        let (len_b, rep_b) = run(&[(10, 99, 1)], &[]);
        assert_eq!(len_a, len_b);
        assert_eq!(rep_a, rep_b);
    }

    fn real_rows<'a>(rows: impl Iterator<Item = &'a [u32]>) -> Vec<RowRef<'a>> {
        rows.map(|fields| RowRef {
            fields,
            is_view: true,
        })
        .collect()
    }

    /// A from-scratch [`KeyIndex::build`] over a relation's mirror — what its
    /// persistent index must equal after every operation.
    fn rebuilt_index(relation: &ActiveRelation) -> KeyIndex {
        let rows = real_rows(
            relation
                .records
                .iter()
                .map(|(rec, _)| rec.fields.as_slice()),
        );
        KeyIndex::build(&rows, relation.key_column)
    }

    fn assert_indexes_match_mirrors(transform: &TransformProtocol, after: &str) {
        for relation in [&transform.active_left, &transform.active_right] {
            assert!(
                relation.index == rebuilt_index(relation),
                "index drifted from the mirror after {after}"
            );
        }
    }

    #[test]
    fn uneven_imported_budgets_expire_mid_relation() {
        // Migration appends records whose remaining budgets are out of order, so the
        // next expiries are not a prefix: ids 2 and 4 die first, in place between
        // 1, 3 and 5.
        let mut ctx = PartyContext::new(PartyMode::InProcess, 7, CostModel::default());
        let mut transform = TransformProtocol::new(view_def(), 1, 5, None);
        let imported = [(1u64, 3u64), (2, 1), (3, 3), (4, 1), (5, 2)]
            .map(|(id, remaining)| {
                let fields = vec![(id % 2) as u32, 1];
                (ActiveRecord { id, fields }, remaining)
            })
            .to_vec();
        transform.import_active(imported, Vec::new(), (5, 0));
        let ids = |t: &TransformProtocol| -> Vec<u64> {
            t.active_left.live(t.covered).map(|r| r.id).collect()
        };
        let empty = |relation, t| batch(relation, t, &[], 2);
        let mut survivors = Vec::new();
        for t in 1..=4u64 {
            let left = empty(Relation::Left, t);
            let _ = transform.invoke(&mut ctx, &left, Some(&empty(Relation::Right, t)));
            assert_indexes_match_mirrors(&transform, "a non-prefix expiry");
            survivors.push(ids(&transform));
        }
        assert_eq!(
            survivors,
            [vec![1, 2, 3, 4, 5], vec![1, 3, 5], vec![1, 3], vec![]]
        );
    }

    #[test]
    fn dead_records_left_in_the_mirror_never_join() {
        // Behind live record 1 (key 8) sit two dead ones: record 2 (key 7), exported,
        // and record 10 (key 6), imported with one step left. A later right delta
        // matching all three keys joins record 1 alone.
        let mut ctx = PartyContext::new(PartyMode::InProcess, 12, CostModel::default());
        let mut transform = TransformProtocol::new(view_def(), 1, 5, None);
        let left = batch(Relation::Left, 1, &[(1, 8, 1), (2, 7, 1)], 2);
        let _ = transform.invoke(&mut ctx, &left, Some(&batch(Relation::Right, 1, &[], 3)));
        let (exported, _) = transform.export_active(&|key| key == 7);
        assert_eq!(exported.len(), 1);
        assert_eq!(exported[0].1, 4, "W = b/ω − 1 = 4 steps were left");
        let imported = ActiveRecord {
            id: 10,
            fields: vec![6, 1],
        };
        transform.import_active(vec![(imported, 1)], Vec::new(), (1, 0));
        let empty_left = |t| batch(Relation::Left, t, &[], 2);
        let empty_right = batch(Relation::Right, 2, &[], 3);
        let _ = transform.invoke(&mut ctx, &empty_left(2), Some(&empty_right));
        let right = batch(Relation::Right, 3, &[(20, 8, 3), (21, 7, 3), (22, 6, 3)], 3);
        let out = transform.invoke(&mut ctx, &empty_left(3), Some(&right));
        assert_eq!(transform.active_left.records.len(), 3, "dead in place");
        assert_eq!(transform.active_counts().0, 1);
        let delta = out.delta.recover_all().into_iter();
        let joined: Vec<Vec<u32>> = delta
            .filter(|row| row.is_view)
            .map(|row| row.fields)
            .collect();
        assert_eq!(out.new_entries, 1);
        assert_eq!(joined, [vec![8, 1, 8, 3]]);
    }

    proptest! {
        /// The persistent key indexes equal `KeyIndex::build` over the mirrors — and
        /// the mirrors' live records equal a plain budget model, none of them live
        /// in more than `b/ω` covered steps — after every call of a random sequence
        /// of appends, evictions with tight budgets, exports, and imports with
        /// uneven remaining budgets (non-prefix expiry).
        #[test]
        fn prop_persistent_index_equals_a_rebuild_over_the_mirror(
            ops in proptest::collection::vec(
                (0u8..4, proptest::collection::vec(0u32..4, 0..4), proptest::collection::vec(0u64..4, 0..4)),
                1..24,
            ),
            budget in 1u64..4,
        ) {
            let mut ctx = PartyContext::new(PartyMode::InProcess, 11, CostModel::default());
            let mut transform = TransformProtocol::new(view_def(), 1, budget, None);
            // Per side: (id, key, remaining budget), in mirror order.
            let mut model: [Vec<(u64, u32, u64)>; 2] = [Vec::new(), Vec::new()];
            // Per id: the covered steps it was live in.
            let mut live_steps = std::collections::HashMap::<u64, u64>::new();
            let mut next_id = 1u64;
            for (t, (kind, keys, budgets)) in ops.iter().enumerate() {
                let t = t as u64 + 1;
                if *kind < 2 {
                    // An upload step: survivors are charged, arrivals join the tail.
                    let mut arrivals = |keys: &[u32]| -> Vec<(u64, u32, u32)> {
                        keys.iter().map(|&k| { next_id += 1; (next_id, k, t as u32) }).collect()
                    };
                    let left = arrivals(keys);
                    let right = arrivals(&budgets.iter().map(|&b| b as u32).collect::<Vec<_>>());
                    let _ = transform.invoke(
                        &mut ctx,
                        &batch(Relation::Left, t, &left, 4),
                        Some(&batch(Relation::Right, t, &right, 4)),
                    );
                    for (side, rows) in model.iter_mut().zip([&left, &right]) {
                        side.retain_mut(|(_, _, remaining)| {
                            let alive = *remaining >= 1;
                            *remaining = remaining.saturating_sub(1);
                            alive
                        });
                        side.extend(rows.iter().map(|&(id, key, _)| (id, key, budget - 1)));
                    }
                    for relation in [&transform.active_left, &transform.active_right] {
                        for rec in relation.live(transform.covered) {
                            let steps = live_steps.entry(rec.id).or_default();
                            *steps += 1;
                            prop_assert!(*steps <= budget, "record {} outlived b/ω", rec.id);
                        }
                    }
                } else {
                    // Migration: one key parity leaves; under kind 2 it comes back
                    // at the tail with uneven remaining budgets.
                    let parity = keys.len() as u32 % 2;
                    let (mut left, mut right) = transform.export_active(&|k| k % 2 == parity);
                    assert_indexes_match_mirrors(&transform, "an export");
                    for side in &mut model {
                        side.retain(|&(_, key, _)| key % 2 != parity);
                    }
                    if *kind == 2 {
                        let mut drawn = budgets.iter().cycle();
                        for (side, batch) in model.iter_mut().zip([&mut left, &mut right]) {
                            for (rec, remaining) in batch.iter_mut() {
                                // A record never gains budget in transit.
                                *remaining = drawn.next().map_or(*remaining, |&b| b.min(*remaining));
                                side.push((rec.id, rec.fields[0], *remaining));
                            }
                        }
                        let window = (left.len(), right.len());
                        transform.import_active(left, right, window);
                    }
                }
                assert_indexes_match_mirrors(&transform, "an operation");
                for (side, relation) in model.iter().zip([&transform.active_left, &transform.active_right]) {
                    let live = relation.live(transform.covered);
                    let mirror: Vec<(u64, u32)> = live.map(|r| (r.id, r.fields[0])).collect();
                    let expected: Vec<(u64, u32)> = side.iter().map(|&(id, key, _)| (id, key)).collect();
                    prop_assert_eq!(mirror, expected);
                }
            }
        }
    }

    #[test]
    fn indexed_pair_count_matches_the_quadratic_reference() {
        // The pre-index implementation: a full O(|outer|·|inner|) predicate scan.
        fn reference(
            view: &ViewDefinition,
            outer: &[Vec<u32>],
            inner: &[Vec<u32>],
            reversed: bool,
        ) -> u64 {
            let mut pairs = 0u64;
            for o in outer {
                pairs += inner
                    .iter()
                    .filter(|row| {
                        let (l, r) = if reversed {
                            (row.as_slice(), o.as_slice())
                        } else {
                            (o.as_slice(), row.as_slice())
                        };
                        let keys = l.get(view.left_key) == r.get(view.right_key)
                            && l.get(view.left_key).is_some();
                        let lt = l.get(view.left_time).copied().unwrap_or(0);
                        let rt = r.get(view.right_time).copied().unwrap_or(0);
                        keys && rt >= lt && rt - lt <= view.window
                    })
                    .count() as u64;
            }
            pairs
        }

        // Asymmetric key/time columns plus short rows exercise the missing-field
        // paths (a row too short to hold the key column can never match).
        let views = [
            view_def(),
            ViewDefinition {
                left_key: 1,
                left_time: 0,
                right_key: 2,
                right_time: 1,
                window: 3,
            },
        ];
        for view in views {
            let outer: Vec<Vec<u32>> = (0..48u32)
                .map(|i| (0..i % 4).map(|c| (i * 7 + c * 13) % 13).collect())
                .collect();
            let inner: Vec<Vec<u32>> = (0..48u32)
                .map(|i| (0..(i + 2) % 4).map(|c| (i * 11 + c * 3) % 13).collect())
                .collect();
            let outer_refs = real_rows(outer.iter().map(Vec::as_slice));
            let inner_refs = real_rows(inner.iter().map(Vec::as_slice));
            for (reversed, spec) in [(false, view.join_spec()), (true, view.join_spec_reversed())] {
                // The inner side is keyed on the column the join condition reads
                // from it: right_key when it plays the right role, left_key when
                // the direction is reversed.
                let index = KeyIndex::build(&inner_refs, spec.right_key);
                let counted = truncated_match_rows(
                    outer_refs.iter().copied(),
                    |i| inner_refs[i].fields,
                    |key| index.candidates(key),
                    &spec,
                    1,
                    |_| {},
                );
                assert_eq!(
                    counted,
                    reference(&view, &outer, &inner, reversed),
                    "reversed = {reversed}"
                );
            }
        }
    }

    #[test]
    fn calibration_threads_through_to_adaptive_plan_choices() {
        // A calibration replaces the planning model and nothing else: a calibrated
        // run charges exactly what an uncalibrated run under the calibration's own
        // model charges — and a round-heavy calibration moves the TPC-ds-shaped
        // window (ω = 1, nine batches of 7) off the LAN model's sort-merge pick.
        let round_heavy = Calibration {
            secs_per_channel_round: 1e-2,
            ..Calibration::default()
        };
        let reports = |calibration: Option<Calibration>, model: CostModel| {
            let mut ctx = PartyContext::new(PartyMode::InProcess, 9, model);
            let mut transform =
                TransformProtocol::new(view_def(), 1, 10, None).with_calibration(calibration);
            (1..=12u64)
                .map(|t| {
                    let left = batch(Relation::Left, t, &[], 7);
                    let right = batch(Relation::Right, t, &[], 7);
                    transform.invoke(&mut ctx, &left, Some(&right)).report
                })
                .collect::<Vec<_>>()
        };
        let lan = reports(None, CostModel::default());
        let calibrated = reports(Some(round_heavy), CostModel::default());
        assert_eq!(calibrated, reports(None, round_heavy.cost_model()));
        assert_ne!(
            calibrated, lan,
            "a round-heavy calibration must move a plan choice"
        );
        assert_eq!(reports(None, CostModel::default()), lan);
    }

    #[test]
    fn batched_invocation_replays_sequential_invocations() {
        let steps: Vec<StepInputs> = (1..=6u64)
            .map(|t| StepInputs {
                delta_left: batch(Relation::Left, t, &[(t * 2, (t % 3) as u32, t as u32)], 3),
                delta_right: Some(batch(
                    Relation::Right,
                    t,
                    &[(t * 2 + 1, ((t + 1) % 3) as u32, t as u32 + 1)],
                    3,
                )),
            })
            .collect();

        // Sequential per-step execution.
        let mut ctx_a = PartyContext::new(PartyMode::InProcess, 8, CostModel::default());
        let mut seq = TransformProtocol::new(view_def(), 1, 10, None);
        let mut seq_delta: Vec<PlainRecord> = Vec::new();
        let mut seq_entries = 0;
        for s in &steps {
            let out = seq.invoke(&mut ctx_a, &s.delta_left, s.delta_right.as_ref());
            seq_entries += out.new_entries;
            seq_delta.extend(out.delta.recover_all());
        }

        // One batched invocation over the same six steps.
        let mut ctx_b = PartyContext::new(PartyMode::InProcess, 8, CostModel::default());
        let mut batched = TransformProtocol::new(view_def(), 1, 10, None);
        let out = batched.invoke_batched(&mut ctx_b, &steps);

        assert_eq!(out.steps_covered, 6);
        assert_eq!(out.new_entries, seq_entries);
        assert_eq!(out.delta.recover_all(), seq_delta, "identical ΔV plaintext");
        assert_eq!(batched.active_counts(), seq.active_counts());
        assert_eq!(batched.truncation_losses(), seq.truncation_losses());
        assert_eq!(
            ctx_a.recover_named(CARDINALITY_SHARE),
            ctx_b.recover_named(CARDINALITY_SHARE),
            "identical counter state"
        );
    }
}
