//! Truncated oblivious joins and their cost models.
//!
//! Three instantiations of the paper's *truncated view transformation*, plus the
//! analytic cost functions the join planner ([`crate::planner`]) chooses between:
//!
//! * [`truncated_nested_loop_join`] — Algorithm 4: for each outer tuple, scan the
//!   inner table, generate joins only while both tuples have remaining contribution
//!   budget, obliviously sort each per-outer buffer and keep its first `b` slots.
//!   The output is exhaustively padded to `b · |outer|` entries.
//! * [`truncated_sort_merge_join`] — Example 5.1: union both tables, obliviously sort
//!   by join key (left-table records break ties first), then linearly scan, emitting
//!   exactly `b` (possibly dummy) output tuples after accessing each merged tuple.
//!   The output is therefore exhaustively padded to `b · (|T1| + |T2|)` entries while
//!   each input record contributes at most `b` real join tuples.
//! * [`truncated_sort_merge_delta_join`] — the delta-oriented instantiation of
//!   Example 5.1 used by the incremental Transform hot path: same union + oblivious
//!   sort + scan, followed by an oblivious compaction that cuts the emission down to
//!   the *public* `b · |outer|` prefix, so it is a drop-in replacement for the
//!   nested-loop operator (identical output contract, different cost profile).
//!
//! All operators are oblivious: their operation counts and output sizes depend only
//! on the input lengths and the truncation bound, never on the data. The per-operator
//! reports are exposed as [`nested_loop_join_cost`] and
//! [`delta_sort_merge_join_cost`]; [`crate::planner::plan_join`] prices both under a
//! cost model to pick the cheaper operator for a public shape, and
//! [`crate::planner::plan_and_execute`] runs the winner.
//!
//! ```
//! use incshrink_oblivious::{truncated_nested_loop_join, JoinSpec, PlainTable};
//! use incshrink_mpc::cost::CostMeter;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut meter = CostMeter::new();
//! let mut sales = PlainTable::new(&["pid", "day"]);
//! sales.push_row(vec![1, 10]);
//! let mut returns = PlainTable::new(&["pid", "day"]);
//! returns.push_row(vec![1, 15]);
//! let spec = JoinSpec::with_condition(0, 0, |l, r| r[1].saturating_sub(l[1]) <= 10);
//! let out = truncated_nested_loop_join(
//!     &sales.share(&mut rng), &returns.share(&mut rng), &spec, 2, &mut meter, &mut rng);
//! assert_eq!(out.len(), 2); // b · |outer|, regardless of the data
//! assert_eq!(out.true_cardinality(), 1);
//! ```

use crate::sort::{batcher_pair_count, oblivious_sort_by_key, SortOrder};
use incshrink_mpc::cost::{CostMeter, CostReport};
use incshrink_mpc::hash::FxHashMap;
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::{PlainRecord, SharedRecordPair};
use rand::Rng;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Boxed θ-condition evaluated over `(left_fields, right_fields)`.
pub type ThetaCondition<'a> = Box<dyn Fn(&[u32], &[u32]) -> bool + Send + Sync + 'a>;

/// Description of an equi-join with an optional extra θ-condition.
pub struct JoinSpec<'a> {
    /// Index of the join-key column in the left (outer / delta) table.
    pub left_key: usize,
    /// Index of the join-key column in the right (inner) table.
    pub right_key: usize,
    /// Additional condition evaluated over `(left_fields, right_fields)`; `None` means
    /// a pure equi-join. Used for the temporal predicates of Q1/Q2
    /// (`ReturnDate − SaleDate ≤ 10`).
    pub condition: Option<ThetaCondition<'a>>,
    /// Emit output rows as `inner ++ outer` instead of the default `outer ++ inner`.
    /// Used by *mirrored* join invocations (new right-side deltas driving a scan of
    /// the accumulated left relation) so that every view entry carries one canonical
    /// `left ++ right` column layout regardless of which side's arrival produced it —
    /// the property the typed analyst query API addresses columns by. Swapping is a
    /// plaintext relabelling of the produced row before sharing: the number of shared
    /// values, the operation schedule and the costs are all unchanged.
    pub swap_output: bool,
}

impl<'a> JoinSpec<'a> {
    /// Pure equi-join on the given key columns.
    #[must_use]
    pub fn equi(left_key: usize, right_key: usize) -> Self {
        Self {
            left_key,
            right_key,
            condition: None,
            swap_output: false,
        }
    }

    /// Equi-join plus an extra condition.
    #[must_use]
    pub fn with_condition(
        left_key: usize,
        right_key: usize,
        condition: impl Fn(&[u32], &[u32]) -> bool + Send + Sync + 'a,
    ) -> Self {
        Self {
            left_key,
            right_key,
            condition: Some(Box::new(condition)),
            swap_output: false,
        }
    }

    /// Builder-style toggle of [`Self::swap_output`].
    #[must_use]
    pub fn with_swapped_output(mut self) -> Self {
        self.swap_output = true;
        self
    }

    /// Full match semantics (key equality plus condition); the production path
    /// splits these checks across the key index and the candidate walk, so this
    /// remains only as the test oracle's definition of a match.
    #[cfg(test)]
    fn matches(&self, left: &[u32], right: &[u32]) -> bool {
        let keys_equal = left.get(self.left_key) == right.get(self.right_key)
            && left.get(self.left_key).is_some();
        let extra = self.condition.as_ref().map_or(true, |c| c(left, right));
        keys_equal && extra
    }
}

fn join_output_arity(left: &SharedArrayPair, right: &SharedArrayPair) -> usize {
    left.arity().unwrap_or(0) + right.arity().unwrap_or(0)
}

/// The plaintext functionality every truncated join operator in this module
/// implements: for each outer tuple (in input order) scan the inner table and emit
/// the concatenated field vectors of matching pairs (`outer ++ inner`, or
/// `inner ++ outer` under [`JoinSpec::swap_output`]), while both tuples still have
/// per-invocation contribution budget `bound` (Algorithm 4 lines 1–7 / the Eq. 3
/// truncation). Returns one `Vec` of produced rows per outer tuple, each of length
/// at most `bound`.
///
/// This runs on recovered plaintext and is therefore **protocol-internal**: the
/// simulated MPC operators call it to derive their (identical) outputs and charge the
/// oblivious cost separately. It performs no metering and leaks nothing by
/// construction — it never executes outside the simulated circuit.
#[must_use]
pub fn truncated_match(
    outer: &[PlainRecord],
    inner: &[PlainRecord],
    spec: &JoinSpec<'_>,
    bound: usize,
) -> Vec<Vec<Vec<u32>>> {
    let inner_rows: Vec<RowRef<'_>> = inner.iter().map(RowRef::from).collect();
    let index = KeyIndex::build(&inner_rows, spec.right_key);
    let mut produced = Vec::with_capacity(outer.len());
    let _ = truncated_match_rows(
        outer.iter().map(RowRef::from),
        |ii| inner_rows[ii].fields,
        |key| index.candidates(key),
        spec,
        bound,
        |rows| produced.push(rows),
    );
    produced
}

/// Borrowed plaintext row: the view of one record the host-side truncated-join
/// bookkeeping needs. Lets callers that already hold plaintext relations drive
/// [`truncated_match_rows`] without cloning field vectors.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    /// The record's column values.
    pub fields: &'a [u32],
    /// Whether the record is real (dummies never match).
    pub is_view: bool,
}

impl<'a> From<&'a PlainRecord> for RowRef<'a> {
    fn from(rec: &'a PlainRecord) -> Self {
        Self {
            fields: &rec.fields,
            is_view: rec.is_view,
        }
    }
}

/// Chain terminator: no later row carries the same join key.
const NO_LINK: usize = usize::MAX;

/// Host-side key index over the real rows of an inner relation: join-key value →
/// ascending row positions — exactly the order the quadratic reference scan visits
/// matching rows in, so a candidate walk is bit-identical to a full scan.
///
/// The index is *incremental*: a relation that only grows at the tail and expires
/// from the front (Transform's accumulated active relations) keeps it across
/// invocations with [`Self::push`] / [`Self::pop_front`] at O(1) each, instead of
/// re-indexing every row per call. Rows are addressed by an absolute sequence
/// number (`base` + position), so popping the front never renumbers a link: each
/// key's rows form a chain through `next`, entered at `chains[key].0`.
#[derive(Debug, Default)]
pub struct KeyIndex {
    /// Sequence number of position 0 (the count of rows popped so far).
    base: usize,
    /// Per live position: sequence number of the next row with the same key.
    next: VecDeque<usize>,
    /// key → (first, last) sequence numbers of the key's chain.
    chains: FxHashMap<u32, (usize, usize)>,
}

impl KeyIndex {
    /// Index `rows` by the `key` column, skipping dummies and rows without it.
    #[must_use]
    pub fn build(rows: &[RowRef<'_>], key: usize) -> Self {
        let key_of = |row: &RowRef<'_>| row.fields.get(key).copied().filter(|_| row.is_view);
        rows.iter().map(key_of).collect()
    }

    /// Append the next position. A row without a key (`None`: a dummy, or too short
    /// to hold the key column) occupies its position but is never a candidate.
    pub fn push(&mut self, key: Option<u32>) {
        let seq = self.base + self.next.len();
        self.next.push_back(NO_LINK);
        let Some(key) = key else { return };
        match self.chains.entry(key) {
            Entry::Occupied(mut chain) => {
                let (_, last) = chain.get_mut();
                self.next[*last - self.base] = seq;
                *last = seq;
            }
            Entry::Vacant(slot) => {
                slot.insert((seq, seq));
            }
        }
    }

    /// Unlink position 0, which was pushed with `key`; every later position shifts
    /// down by one.
    ///
    /// # Panics
    /// Panics when the index is empty or `key` is not the key position 0 was pushed
    /// with (the chain head would not be the row being removed).
    pub fn pop_front(&mut self, key: Option<u32>) {
        let link = self.next.pop_front().expect("pop_front on an empty index");
        if let Some(key) = key {
            let Entry::Occupied(mut chain) = self.chains.entry(key) else {
                panic!("front row's key has no chain");
            };
            assert_eq!(
                chain.get().0,
                self.base,
                "front row must head its key chain"
            );
            if link == NO_LINK {
                chain.remove();
            } else {
                chain.get_mut().0 = link;
            }
        }
        self.base += 1;
    }

    /// Ascending positions of the real rows carrying join-key value `key`.
    pub fn candidates(&self, key: u32) -> impl Iterator<Item = usize> + '_ {
        let live = |seq: usize| (seq != NO_LINK).then_some(seq);
        let first = self.chains.get(&key).and_then(|chain| live(chain.0));
        std::iter::successors(first, move |&seq| live(self.next[seq - self.base]))
            .map(move |seq| seq - self.base)
    }
}

/// Index a relation given as its rows' keys in position order ([`KeyIndex::push`]
/// each).
impl FromIterator<Option<u32>> for KeyIndex {
    fn from_iter<I: IntoIterator<Item = Option<u32>>>(keys: I) -> Self {
        let mut index = Self::default();
        for key in keys {
            index.push(key);
        }
        index
    }
}

/// Two indexes are equal when they cover the same number of positions and list the
/// same candidates for every key — independent of how many rows were ever popped.
impl PartialEq for KeyIndex {
    fn eq(&self, other: &Self) -> bool {
        self.next.len() == other.next.len()
            && self.chains.len() == other.chains.len()
            && self
                .chains
                .keys()
                .all(|&key| self.candidates(key).eq(other.candidates(key)))
    }
}

/// The one truncated matching loop: [`truncated_match`] generalised over where the
/// inner relation lives. `inner(position)` yields a row's fields and
/// `candidates(key)` the ascending positions of the real inner rows carrying that
/// key — a [`KeyIndex`] built for the call, a persistent one kept across calls, or a
/// static sorted index over a public relation. `emit` receives each outer row's
/// produced rows (at most `bound`), in outer order; the return value is the number
/// of matching pairs that exist *before* truncation (the ω-sweep's loss
/// bookkeeping), counted on the same walk.
///
/// The quadratic reference scan only mutates state (budgets, emission) at positions
/// where both records are real and the equi-keys agree, and it visits those
/// positions in ascending order — exactly the order each candidate walk preserves —
/// so walking only the candidates reproduces its output bit for bit in
/// O(|outer| + matches). This is plaintext bookkeeping inside the simulated circuit;
/// the metered oblivious cost is charged separately by the callers and still
/// reflects the full data-independent schedule.
pub fn truncated_match_rows<'o, 'i, C: Iterator<Item = usize>>(
    outer: impl IntoIterator<Item = RowRef<'o>>,
    inner: impl Fn(usize) -> &'i [u32],
    candidates: impl Fn(u32) -> C,
    spec: &JoinSpec<'_>,
    bound: usize,
    mut emit: impl FnMut(Vec<Vec<u32>>),
) -> u64 {
    // Budget spent per inner position, shared by every outer row of the call.
    let mut inner_used: FxHashMap<usize, usize> = FxHashMap::default();
    let mut potential_pairs = 0u64;
    for orec in outer {
        let mut produced: Vec<Vec<u32>> = Vec::new();
        let key = orec.fields.get(spec.left_key).filter(|_| orec.is_view);
        for ii in key.into_iter().flat_map(|&key| candidates(key)) {
            let ifields = inner(ii);
            if !spec
                .condition
                .as_ref()
                .map_or(true, |c| c(orec.fields, ifields))
            {
                continue;
            }
            potential_pairs += 1;
            if produced.len() == bound {
                continue;
            }
            let used = inner_used.entry(ii).or_insert(0);
            if *used == bound {
                continue;
            }
            *used += 1;
            let (first, second) = if spec.swap_output {
                (ifields, orec.fields)
            } else {
                (orec.fields, ifields)
            };
            produced.push([first, second].concat());
        }
        emit(produced);
    }
    potential_pairs
}

/// Oblivious-operation counts of one [`truncated_nested_loop_join`] invocation over
/// `outer_len × inner_len` inputs with truncation bound `bound` and output arity
/// `out_arity` — exactly what the physical operator meters.
///
/// Cost shape: `|outer|·|inner|` secure compares and `2·|outer|·|inner|` AND gates for
/// the match/budget checks, plus a Batcher sort of each per-outer buffer of `|inner|`
/// slots (`|outer| · batcher_pair_count(|inner|)` compares and record-wide swaps), plus
/// the `b·|outer|` output write. Depends only on public sizes, never on data.
#[must_use]
pub fn nested_loop_join_cost(
    outer_len: usize,
    inner_len: usize,
    bound: usize,
    out_arity: usize,
) -> CostReport {
    let o = outer_len as u64;
    let i = inner_len as u64;
    let bp = batcher_pair_count(inner_len);
    let width = out_arity as u64 + 1;
    CostReport {
        secure_compares: o.saturating_mul(i).saturating_add(o.saturating_mul(bp)),
        secure_ands: 2u64.saturating_mul(o).saturating_mul(i),
        secure_swaps: o.saturating_mul(bp).saturating_mul(width),
        secure_adds: 0,
        bytes_communicated: o
            .saturating_mul(bound as u64)
            .saturating_mul(width)
            .saturating_mul(4),
        rounds: 1,
    }
}

/// Oblivious-operation counts of one [`truncated_sort_merge_delta_join`] invocation —
/// exactly what the physical operator meters.
///
/// Cost shape, with `n = |outer| + |inner|`: share the tagged union (`n` records of
/// `merged_arity` words), obliviously sort *each run* by `(join key, table tag)`
/// (`batcher_pair_count(|outer|) + batcher_pair_count(|inner|)` compares +
/// record-wide swaps — the inner run is Transform's sliding window, whose batches
/// arrive and retire in upload order, so no earlier invocation leaves it in key
/// order), then **bitonic-merge** the two sorted runs
/// ([`crate::sort::bitonic_merge_pair_count`]`(n)` compares + record-wide swaps,
/// plus the fixed `⌊|outer|/2⌋`-swap valley reversal of the delta run — see
/// [`crate::sort::bitonic_merge_pairs`]), scan the merged relation emitting `bound`
/// slots per position (`n·bound` compares and ANDs), obliviously compact the
/// `bound·n` emission down to the *public* `bound·|outer|` prefix
/// (`batcher_pair_count(bound·n)` compares + swaps), and write the output. Every
/// term is work the operator does on the arrays it is handed, so
/// [`crate::planner::plan_join`] compares two executable plans. Depends only on
/// public sizes, never on data.
#[must_use]
pub fn delta_sort_merge_join_cost(
    outer_len: usize,
    inner_len: usize,
    bound: usize,
    out_arity: usize,
    merged_arity: usize,
) -> CostReport {
    let nm = outer_len + inner_len;
    let emission = nm.saturating_mul(bound);
    let run_sorts = [outer_len, inner_len].map(|run| (run >= 2).then(|| batcher_pair_count(run)));
    let bm_merge = crate::sort::bitonic_merge_pair_count(nm);
    let bp_compact = batcher_pair_count(emission);
    let merged_width = merged_arity as u64 + 1;
    let out_width = out_arity as u64 + 1;
    let mut report = CostReport {
        bytes_communicated: (nm as u64)
            .saturating_mul(merged_arity as u64)
            .saturating_mul(4),
        ..CostReport::default()
    };
    for bp_run_sort in run_sorts.into_iter().flatten() {
        report.secure_compares = report.secure_compares.saturating_add(bp_run_sort);
        report.secure_swaps = report
            .secure_swaps
            .saturating_add(bp_run_sort.saturating_mul(merged_width));
        report.rounds += 1;
    }
    if nm >= 2 {
        report.secure_compares = report.secure_compares.saturating_add(bm_merge);
        report.secure_swaps = report.secure_swaps.saturating_add(
            bm_merge
                .saturating_add(outer_len as u64 / 2)
                .saturating_mul(merged_width),
        );
        report.rounds += 1;
    }
    report.secure_compares = report
        .secure_compares
        .saturating_add((nm as u64).saturating_mul(bound as u64));
    report.secure_ands = report
        .secure_ands
        .saturating_add((nm as u64).saturating_mul(bound as u64));
    report.rounds += 1;
    if emission >= 2 {
        report.secure_compares = report.secure_compares.saturating_add(bp_compact);
        report.secure_swaps = report
            .secure_swaps
            .saturating_add(bp_compact.saturating_mul(out_width));
        report.rounds += 1;
    }
    report.bytes_communicated = report.bytes_communicated.saturating_add(
        (outer_len as u64)
            .saturating_mul(bound as u64)
            .saturating_mul(out_width)
            .saturating_mul(4),
    );
    report
}

/// Append one `bound`-slot output block — real join tuples first (truncated to
/// `bound`), dummy padding after — the per-outer output layout shared by every
/// truncated join operator. Exposed (alongside [`truncated_match_rows`]) so
/// Transform assembles ΔV with exactly the layout the physical operators produce;
/// the block structure is public (it depends only on `bound`), the contents are
/// fresh shares.
pub fn push_padded<R: Rng + ?Sized>(
    out: &mut SharedArrayPair,
    mut real: Vec<Vec<u32>>,
    bound: usize,
    arity: usize,
    rng: &mut R,
) {
    real.truncate(bound);
    let real_count = real.len();
    // share_row / share_dummy draw mask words in exactly the order share(&PlainRecord)
    // would, without materialising intermediate plaintext records.
    for fields in real {
        out.push(SharedRecordPair::share_row(&fields, true, rng))
            .expect("uniform arity");
    }
    for _ in real_count..bound {
        out.push(SharedRecordPair::share_dummy(arity, rng))
            .expect("uniform arity");
    }
}

/// `b`-truncated oblivious sort-merge join (Example 5.1).
///
/// Returns an exhaustively padded array of exactly `bound * (left.len() + right.len())`
/// records; real join tuples have `isView = 1`. Each input record (from either side)
/// contributes at most `bound` real tuples.
///
/// # Leakage
/// Oblivious: the union size, the Batcher sort schedule and the `bound`-slot
/// emission per merged position are fixed by the public input lengths; only hidden
/// `isView` bits distinguish real join tuples from dummies.
///
/// # Cost
/// One Batcher sort of the `|T1| + |T2|` union (`batcher_pair_count` compares and
/// record-wide swaps) plus a linear scan emitting `bound` slots per position. Use
/// [`truncated_sort_merge_delta_join`] when the nested-loop output contract
/// (`bound · |outer|` entries) is required — this variant's `bound·(|T1|+|T2|)`
/// output is the one-shot Example 5.1 shape, not the incremental ΔV shape.
pub fn truncated_sort_merge_join<R: Rng + ?Sized>(
    left: &SharedArrayPair,
    right: &SharedArrayPair,
    spec: &JoinSpec<'_>,
    bound: usize,
    meter: &mut CostMeter,
    rng: &mut R,
) -> SharedArrayPair {
    let out_arity = join_output_arity(left, right);
    let mut out = SharedArrayPair::with_arity(out_arity);
    if bound == 0 {
        return out;
    }

    // --- Step 1: union with a table tag (0 = left, 1 = right) as tie-breaker.
    // The merged relation is padded to a uniform arity so it can be obliviously sorted.
    let merged_arity = left.arity().unwrap_or(0).max(right.arity().unwrap_or(0)) + 2;
    let mut merged = SharedArrayPair::with_arity(merged_arity);
    let tag_col = merged_arity - 2;
    let key_col = merged_arity - 1;
    let mut append_side =
        |side: &SharedArrayPair, tag: u32, key_idx: usize, merged: &mut SharedArrayPair| {
            for entry in side.entries() {
                let plain = entry.recover();
                let mut fields = plain.fields.clone();
                fields.resize(merged_arity - 2, 0);
                fields.push(tag);
                fields.push(plain.fields.get(key_idx).copied().unwrap_or(u32::MAX));
                let rec = PlainRecord {
                    fields,
                    is_view: plain.is_view,
                };
                merged
                    .push(SharedRecordPair::share(&rec, rng))
                    .expect("uniform arity");
            }
        };
    append_side(left, 0, spec.left_key, &mut merged);
    append_side(right, 1, spec.right_key, &mut merged);
    meter.bytes((merged.len() * merged_arity * 4) as u64);

    // --- Step 2: oblivious sort by (join key, table tag): T1 records before T2 on ties.
    oblivious_sort_by_key(&mut merged, SortOrder::Ascending, meter, |rec| {
        (u64::from(rec.is_view.recover() == 0) << 33)
            | (u64::from(rec.fields[key_col].recover()) << 1)
            | u64::from(rec.fields[tag_col].recover())
    });

    // --- Step 3: linear scan. After accessing each merged tuple, emit exactly `bound`
    // output slots (real joins first, then dummies), tracking contributions. The scan
    // cost is charged against the merged relation; the matching itself is re-derived
    // from the original tables (identical output semantics, simpler bookkeeping than
    // threading origins through the sorted permutation).
    let n = merged.len();
    meter.compares((n * bound) as u64);
    meter.ands((n * bound) as u64);
    meter.round();

    let left_plain: Vec<PlainRecord> = left.entries().iter().map(|e| e.recover()).collect();
    let right_plain: Vec<PlainRecord> = right.entries().iter().map(|e| e.recover()).collect();
    for produced in truncated_match(&left_plain, &right_plain, spec, bound) {
        push_padded(&mut out, produced, bound, out_arity, rng);
    }
    // The right-side positions of the merged scan also emit `bound` slots each; with
    // left-driven matching these are all dummies (every real join was already emitted
    // at its left record), preserving the exhaustive |output| = bound·(n1+n2).
    for _ in 0..right_plain.len() {
        push_padded(&mut out, Vec::new(), bound, out_arity, rng);
    }
    out
}

/// `b`-truncated oblivious nested-loop join (Algorithm 4).
///
/// Output is exhaustively padded to `bound * outer.len()` records. Both the outer and
/// the inner tuple consume one unit of contribution budget per emitted join tuple
/// (Algorithm 4 line 1); once a tuple's budget is exhausted, further joins with it
/// are discarded.
///
/// # Leakage
/// Oblivious: the operation schedule and the `bound · |outer|` output size are fixed
/// functions of the public input lengths; the hidden `isView` bits are the only place
/// the data shows up. The servers learn nothing beyond `(|outer|, |inner|, bound)`.
///
/// # Cost
/// Exactly [`nested_loop_join_cost`]`(|outer|, |inner|, bound, out_arity)`:
/// `O(|outer|·|inner|)` secure compares plus `|outer|` per-buffer Batcher sorts —
/// the quadratic term the join planner ([`crate::planner`]) trades against the
/// sort-merge variant.
pub fn truncated_nested_loop_join<R: Rng + ?Sized>(
    outer: &SharedArrayPair,
    inner: &SharedArrayPair,
    spec: &JoinSpec<'_>,
    bound: usize,
    meter: &mut CostMeter,
    rng: &mut R,
) -> SharedArrayPair {
    let out_arity = join_output_arity(outer, inner);
    let mut out = SharedArrayPair::with_arity(out_arity);
    if bound == 0 {
        return out;
    }
    let mut join_span = incshrink_telemetry::span!("join.nested_loop");
    let outer_plain: Vec<PlainRecord> = outer.entries().iter().map(|e| e.recover()).collect();
    let inner_plain: Vec<PlainRecord> = inner.entries().iter().map(|e| e.recover()).collect();

    // Cost accounting: |outer|·|inner| secure comparisons and budget checks, plus an
    // oblivious sort of each per-outer buffer of |inner| slots, plus the output write.
    let cost = nested_loop_join_cost(outer_plain.len(), inner_plain.len(), bound, out_arity);
    join_span.record_cost(cost.into());
    meter.record(cost);

    for produced in truncated_match(&outer_plain, &inner_plain, spec, bound) {
        push_padded(&mut out, produced, bound, out_arity, rng);
    }
    out
}

/// Delta-oriented `b`-truncated oblivious sort-merge join: Example 5.1's
/// union–sort–scan pipeline followed by an oblivious compaction to the public
/// `bound · |outer|` output prefix.
///
/// This is the operator the join planner substitutes for
/// [`truncated_nested_loop_join`] on large inner relations: it produces the **same
/// output contract** (exhaustively padded to `bound · |outer|` entries, identical
/// real join tuples via [`truncated_match`]) but replaces the `|outer|·|inner|`
/// compare matrix and the `|outer|` per-buffer sorts with one Batcher sort per run
/// (the `|outer|`-record delta and the `|inner|`-record window), a bitonic merge of
/// the two sorted runs, and one Batcher compaction of the
/// `bound · (|outer| + |inner|)` emission.
///
/// # Leakage
/// Oblivious: the sort network, the per-position `bound`-slot emission and the
/// compaction cut are fixed by the public lengths. Cutting the compacted emission at
/// `bound · |outer|` is safe because at most `bound` real tuples exist per outer
/// record (Eq. 3), so the prefix length is a public function of `|outer|`.
///
/// # Cost
/// Exactly [`delta_sort_merge_join_cost`]. The merged union and the compaction
/// network are priced but not physically permuted — the simulation derives the
/// identical output from [`truncated_match`] directly, the established idiom for
/// operators whose data movement does not affect the recovered result.
pub fn truncated_sort_merge_delta_join<R: Rng + ?Sized>(
    outer: &SharedArrayPair,
    inner: &SharedArrayPair,
    spec: &JoinSpec<'_>,
    bound: usize,
    meter: &mut CostMeter,
    rng: &mut R,
) -> SharedArrayPair {
    let out_arity = join_output_arity(outer, inner);
    let mut out = SharedArrayPair::with_arity(out_arity);
    if bound == 0 {
        return out;
    }
    let mut join_span = incshrink_telemetry::span!("join.sort_merge");
    let merged_arity = outer.arity().unwrap_or(0).max(inner.arity().unwrap_or(0)) + 2;
    let cost = delta_sort_merge_join_cost(outer.len(), inner.len(), bound, out_arity, merged_arity);
    join_span.record_cost(cost.into());
    meter.record(cost);

    let outer_plain: Vec<PlainRecord> = outer.entries().iter().map(|e| e.recover()).collect();
    let inner_plain: Vec<PlainRecord> = inner.entries().iter().map(|e| e.recover()).collect();
    for produced in truncated_match(&outer_plain, &inner_plain, spec, bound) {
        push_padded(&mut out, produced, bound, out_arity, rng);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::PlainTable;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sales_table() -> PlainTable {
        let mut t = PlainTable::new(&["pid", "sale_date"]);
        t.push_row(vec![1, 10]);
        t.push_row(vec![2, 12]);
        t.push_row(vec![3, 15]);
        t
    }

    fn returns_table() -> PlainTable {
        let mut t = PlainTable::new(&["pid", "return_date"]);
        t.push_row(vec![1, 15]); // within 10 days
        t.push_row(vec![2, 40]); // too late
        t.push_row(vec![3, 20]); // within 10 days
        t.push_row(vec![3, 21]); // second return of pid 3
        t
    }

    fn real_rows(arr: &SharedArrayPair) -> Vec<Vec<u32>> {
        arr.recover_all()
            .into_iter()
            .filter(|r| r.is_view)
            .map(|r| r.fields)
            .collect()
    }

    #[test]
    fn nested_loop_equi_join_with_condition() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut meter = CostMeter::new();
        let sales = sales_table().share(&mut rng);
        let returns = returns_table().share(&mut rng);
        // Q1 shape: join on pid where return_date - sale_date <= 10.
        let spec = JoinSpec::with_condition(0, 0, |l, r| r[1].saturating_sub(l[1]) <= 10);
        let out = truncated_nested_loop_join(&sales, &returns, &spec, 2, &mut meter, &mut rng);

        assert_eq!(out.len(), 2 * sales.len());
        let rows = real_rows(&out);
        // pid 1 (one match), pid 2 (no match within 10 days), pid 3 (two matches).
        assert_eq!(rows.len(), 3);
        assert!(rows.contains(&vec![1, 10, 1, 15]));
        assert!(rows.contains(&vec![3, 15, 3, 20]));
        assert!(rows.contains(&vec![3, 15, 3, 21]));
        assert!(meter.report().secure_compares > 0);
    }

    #[test]
    fn swapped_output_emits_canonical_column_order() {
        // A mirrored invocation (returns driving a scan of the accumulated sales)
        // with swap_output emits the same rows as the forward join would: the swap
        // relabels the produced plaintext before sharing, so costs and answer bits
        // are untouched while the column layout stays left ++ right.
        let mut rng = StdRng::seed_from_u64(9);
        let mut meter = CostMeter::new();
        let sales = sales_table().share(&mut rng);
        let returns = returns_table().share(&mut rng);
        let spec_rev = JoinSpec::with_condition(0, 0, |r, l| r[1].saturating_sub(l[1]) <= 10)
            .with_swapped_output();
        let out = truncated_nested_loop_join(&returns, &sales, &spec_rev, 2, &mut meter, &mut rng);
        let rows = real_rows(&out);
        assert_eq!(rows.len(), 3);
        assert!(rows.contains(&vec![1, 10, 1, 15]), "sale fields lead");
        assert!(rows.contains(&vec![3, 15, 3, 20]));
        assert!(rows.contains(&vec![3, 15, 3, 21]));

        // Cost is identical to the unswapped mirrored join.
        let mut meter2 = CostMeter::new();
        let spec_plain = JoinSpec::with_condition(0, 0, |r, l| r[1].saturating_sub(l[1]) <= 10);
        let _ = truncated_nested_loop_join(&returns, &sales, &spec_plain, 2, &mut meter2, &mut rng);
        assert_eq!(meter.report(), meter2.report());
    }

    #[test]
    fn nested_loop_truncation_bound_limits_contribution() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut meter = CostMeter::new();
        let sales = sales_table().share(&mut rng);
        let returns = returns_table().share(&mut rng);
        let spec = JoinSpec::equi(0, 0);
        // bound = 1: pid 3 may only contribute one of its two matching returns.
        let out = truncated_nested_loop_join(&sales, &returns, &spec, 1, &mut meter, &mut rng);
        assert_eq!(out.len(), sales.len());
        let rows = real_rows(&out);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.iter().filter(|r| r[0] == 3).count(), 1);
    }

    #[test]
    fn nested_loop_inner_budget_is_shared_across_outer_tuples() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut meter = CostMeter::new();
        // Two outer tuples with the same key joining one inner tuple; with bound 1 the
        // inner tuple's budget is exhausted after the first join.
        let mut outer = PlainTable::new(&["k"]);
        outer.push_row(vec![7]);
        outer.push_row(vec![7]);
        let mut inner = PlainTable::new(&["k"]);
        inner.push_row(vec![7]);
        let spec = JoinSpec::equi(0, 0);
        let out = truncated_nested_loop_join(
            &outer.share(&mut rng),
            &inner.share(&mut rng),
            &spec,
            1,
            &mut meter,
            &mut rng,
        );
        assert_eq!(real_rows(&out).len(), 1);
    }

    #[test]
    fn nested_loop_zero_bound_and_empty_inputs() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut meter = CostMeter::new();
        let sales = sales_table().share(&mut rng);
        let returns = returns_table().share(&mut rng);
        let spec = JoinSpec::equi(0, 0);
        let out = truncated_nested_loop_join(&sales, &returns, &spec, 0, &mut meter, &mut rng);
        assert!(out.is_empty());

        let empty = SharedArrayPair::new();
        let out = truncated_nested_loop_join(&empty, &returns, &spec, 3, &mut meter, &mut rng);
        assert!(out.is_empty());
        let out = truncated_nested_loop_join(&sales, &empty, &spec, 3, &mut meter, &mut rng);
        assert_eq!(out.len(), 3 * sales.len());
        assert_eq!(out.true_cardinality(), 0);
    }

    #[test]
    fn nested_loop_dummy_inputs_never_join() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut meter = CostMeter::new();
        let sales = sales_table().share_padded(6, &mut rng);
        let returns = returns_table().share_padded(8, &mut rng);
        let spec = JoinSpec::equi(0, 0);
        let out = truncated_nested_loop_join(&sales, &returns, &spec, 2, &mut meter, &mut rng);
        assert_eq!(out.len(), 2 * 6);
        // Dummy sales rows contribute no real join tuples even though dummy field
        // values might coincide.
        let expected: usize = 4; // pid1x1, pid2x1, pid3x2
        assert_eq!(out.true_cardinality(), expected);
    }

    #[test]
    fn sort_merge_join_matches_nested_loop_semantics() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut meter = CostMeter::new();
        let sales = sales_table().share(&mut rng);
        let returns = returns_table().share(&mut rng);
        let spec = JoinSpec::with_condition(0, 0, |l, r| r[1].saturating_sub(l[1]) <= 10);
        let smj = truncated_sort_merge_join(&sales, &returns, &spec, 2, &mut meter, &mut rng);
        assert_eq!(smj.len(), 2 * (sales.len() + returns.len()));

        let spec2 = JoinSpec::with_condition(0, 0, |l, r| r[1].saturating_sub(l[1]) <= 10);
        let nlj = truncated_nested_loop_join(&sales, &returns, &spec2, 2, &mut meter, &mut rng);

        let mut a = real_rows(&smj);
        let mut b = real_rows(&nlj);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn sort_merge_join_output_size_is_data_independent() {
        let mut rng = StdRng::seed_from_u64(7);
        let spec = JoinSpec::equi(0, 0);

        let mut m1 = CostMeter::new();
        let out1 = truncated_sort_merge_join(
            &sales_table().share(&mut rng),
            &returns_table().share(&mut rng),
            &spec,
            3,
            &mut m1,
            &mut rng,
        );

        // Same sizes, totally different content: no matches at all.
        let mut t1 = PlainTable::new(&["pid", "sale_date"]);
        t1.push_row(vec![100, 1]);
        t1.push_row(vec![200, 2]);
        t1.push_row(vec![300, 3]);
        let mut t2 = PlainTable::new(&["pid", "return_date"]);
        for i in 0..4 {
            t2.push_row(vec![900 + i, 5]);
        }
        let mut m2 = CostMeter::new();
        let out2 = truncated_sort_merge_join(
            &t1.share(&mut rng),
            &t2.share(&mut rng),
            &spec,
            3,
            &mut m2,
            &mut rng,
        );

        assert_eq!(out1.len(), out2.len());
        assert_eq!(m1.report(), m2.report());
        assert_eq!(out2.true_cardinality(), 0);
    }

    #[test]
    fn join_spec_missing_key_column_never_matches() {
        let spec = JoinSpec::equi(5, 0);
        assert!(!spec.matches(&[1, 2], &[1, 2]));
        // And the indexed matcher agrees: no outer key column means no candidates.
        let outer = vec![PlainRecord::real(vec![1, 2])];
        let inner = vec![PlainRecord::real(vec![1, 2])];
        assert!(truncated_match(&outer, &inner, &spec, 3)[0].is_empty());
    }

    /// The pre-index quadratic scan, kept as the reference semantics for
    /// `truncated_match`.
    fn reference_quadratic_match(
        outer: &[PlainRecord],
        inner: &[PlainRecord],
        spec: &JoinSpec<'_>,
        bound: usize,
    ) -> Vec<Vec<Vec<u32>>> {
        let mut inner_budget: Vec<usize> = vec![bound; inner.len()];
        outer
            .iter()
            .map(|orec| {
                let mut produced: Vec<Vec<u32>> = Vec::new();
                let mut outer_budget = bound;
                for (ii, irec) in inner.iter().enumerate() {
                    let can_join = outer_budget > 0 && inner_budget[ii] > 0;
                    let is_match =
                        orec.is_view && irec.is_view && spec.matches(&orec.fields, &irec.fields);
                    if can_join && is_match {
                        let (first, second) = if spec.swap_output {
                            (&irec.fields, &orec.fields)
                        } else {
                            (&orec.fields, &irec.fields)
                        };
                        let mut fields = first.clone();
                        fields.extend_from_slice(second);
                        produced.push(fields);
                        outer_budget -= 1;
                        inner_budget[ii] -= 1;
                    }
                }
                produced
            })
            .collect()
    }

    #[test]
    fn push_padded_draws_masks_like_record_sharing() {
        // The share_row/share_dummy fast path must consume the rng stream exactly as
        // the old share(&PlainRecord) path did, or every replayed trajectory shifts.
        let rows = vec![vec![1u32, 2, 3], vec![9, 8, 7]];
        let mut fast = SharedArrayPair::with_arity(3);
        let mut rng = StdRng::seed_from_u64(77);
        push_padded(&mut fast, rows.clone(), 4, 3, &mut rng);
        let tail: u64 = rng.gen();

        let mut slow = SharedArrayPair::with_arity(3);
        let mut rng = StdRng::seed_from_u64(77);
        for fields in rows {
            slow.push(SharedRecordPair::share(
                &PlainRecord::real(fields),
                &mut rng,
            ))
            .unwrap();
        }
        for _ in 2..4 {
            slow.push(SharedRecordPair::share(&PlainRecord::dummy(3), &mut rng))
                .unwrap();
        }
        assert_eq!(fast, slow);
        assert_eq!(tail, rng.gen::<u64>(), "rng streams diverged");
    }

    proptest! {
        #[test]
        fn prop_truncation_bound_enforced(
            keys_left in proptest::collection::vec(0u32..5, 1..8),
            keys_right in proptest::collection::vec(0u32..5, 1..12),
            bound in 1usize..4,
            seed: u64,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut meter = CostMeter::new();
            let mut lt = PlainTable::new(&["k"]);
            for k in &keys_left { lt.push_row(vec![*k]); }
            let mut rt = PlainTable::new(&["k"]);
            for k in &keys_right { rt.push_row(vec![*k]); }
            let spec = JoinSpec::equi(0, 0);
            let out = truncated_nested_loop_join(
                &lt.share(&mut rng), &rt.share(&mut rng), &spec, bound, &mut meter, &mut rng);

            // Exhaustive padding: output size depends only on |outer| and bound.
            prop_assert_eq!(out.len(), bound * keys_left.len());

            // Eq. 3: every outer record contributes at most `bound` rows, and the
            // number of real tuples never exceeds min-side availability per key.
            let rows = real_rows(&out);
            for (i, _) in keys_left.iter().enumerate() {
                // Each outer tuple occupies a contiguous block of `bound` slots.
                let block = &out.recover_all()[i * bound..(i + 1) * bound];
                prop_assert!(block.iter().filter(|r| r.is_view).count() <= bound);
            }
            prop_assert!(rows.len() <= bound * keys_left.len());
            prop_assert!(rows.len() <= bound * keys_right.len());
        }

        #[test]
        fn prop_indexed_match_equals_quadratic_scan(
            outer_rows in proptest::collection::vec((0u32..6, any::<u32>(), any::<bool>()), 0..14),
            inner_rows in proptest::collection::vec((0u32..6, any::<u32>(), any::<bool>()), 0..20),
            bound in 0usize..4,
            with_condition: bool,
            swap_output: bool,
        ) {
            // Bit-for-bit agreement of the key-indexed matcher with the quadratic
            // reference, across dummies, shared inner budgets, θ-conditions and
            // swapped output layouts.
            let outer: Vec<PlainRecord> = outer_rows.iter()
                .map(|&(k, v, real)| PlainRecord { fields: vec![k, v], is_view: real })
                .collect();
            let inner: Vec<PlainRecord> = inner_rows.iter()
                .map(|&(k, v, real)| PlainRecord { fields: vec![k, v], is_view: real })
                .collect();
            let mut spec = if with_condition {
                JoinSpec::with_condition(0, 0, |l, r| l[1].wrapping_add(r[1]) % 3 != 0)
            } else {
                JoinSpec::equi(0, 0)
            };
            if swap_output {
                spec = spec.with_swapped_output();
            }
            prop_assert_eq!(
                truncated_match(&outer, &inner, &spec, bound),
                reference_quadratic_match(&outer, &inner, &spec, bound)
            );
            // The same walk counts the pairs that exist before truncation.
            let inner_rows: Vec<RowRef<'_>> = inner.iter().map(RowRef::from).collect();
            let index = KeyIndex::build(&inner_rows, spec.right_key);
            let counted = truncated_match_rows(
                outer.iter().map(RowRef::from),
                |ii| inner_rows[ii].fields,
                |key| index.candidates(key),
                &spec,
                bound,
                |_| {},
            );
            let all_pairs = outer.iter().flat_map(|o| inner.iter().map(move |i| (o, i)));
            let expected = all_pairs
                .filter(|(o, i)| o.is_view && i.is_view && spec.matches(&o.fields, &i.fields))
                .count();
            prop_assert_eq!(counted, expected as u64);
        }

        #[test]
        fn prop_pushed_and_popped_index_equals_a_build_over_the_live_rows(
            ops in proptest::collection::vec(0u32..6, 1..60),
        ) {
            // Each operation appends a row keyed 0..5 (5 stands for a keyless row);
            // every third one pops the front first. The window of live rows slides,
            // the candidate lists must stay those of a from-scratch build.
            let mut live: std::collections::VecDeque<Option<u32>> = Default::default();
            let mut index = KeyIndex::default();
            for (step, key) in ops.into_iter().enumerate() {
                let key = Some(key).filter(|&k| k < 5);
                if step % 3 == 2 {
                    if let Some(front) = live.pop_front() {
                        index.pop_front(front);
                    }
                }
                live.push_back(key);
                index.push(key);
                let fields: Vec<Vec<u32>> =
                    live.iter().map(|k| k.iter().copied().collect()).collect();
                let rows: Vec<RowRef<'_>> = fields
                    .iter()
                    .map(|fields| RowRef { fields, is_view: true })
                    .collect();
                let rebuilt = KeyIndex::build(&rows, 0);
                prop_assert!(index == rebuilt);
                for key in 0..5 {
                    let expected = (0..live.len()).filter(|&i| live[i] == Some(key));
                    prop_assert!(index.candidates(key).eq(expected));
                }
            }
        }
    }
}
