//! Truncated oblivious joins and their cost models.
//!
//! Two instantiations of the paper's *truncated view transformation*, each with
//! the analytic cost function its physical operator meters:
//!
//! * [`truncated_nested_loop_join`] — Algorithm 4: for each outer tuple, scan the
//!   inner table, generate joins only while both tuples have remaining contribution
//!   budget, and keep the first `b` slots of each per-outer buffer in sorted order.
//!   The output is exhaustively padded to `b · |outer|` entries. This is Transform's
//!   one join operator: every invocation charges [`nested_loop_join_cost`] at each
//!   direction's public shape, or [`public_inner_join_cost`] when the inner
//!   relation is public and the selection needs no network.
//! * [`truncated_sort_merge_delta_join`] — the delta-oriented instantiation of
//!   Example 5.1's sort-merge join: union both tables, obliviously sort by join key
//!   (left-table records break ties first), scan emitting `b` slots per merged
//!   tuple, then obliviously compact the emission down to the *public*
//!   `b · |outer|` prefix, so it has the nested-loop operator's output contract and
//!   a different cost profile. It is a standalone operator: Transform never runs
//!   it, the benchmark probes it next to the nested loop.
//!
//! Both operators sort an array only to keep its head: Algorithm 4 the first `b` of
//! each `|inner|`-slot buffer, the delta form the first `b · |outer|` of its
//! emission. Each is priced with the top-k selection network
//! ([`crate::sort::Network::select`]), which leaves exactly those slots, in
//! order, on fixed public wires — the same function and the same leakage as the
//! paper's full Batcher sort (`|outer| · batcher_pair_count(|inner|)` for
//! Algorithm 4), for fewer comparators and swaps. Algorithm 4's network is also
//! keyed by the match flag alone, so each comparator is one AND rather than a
//! word comparison, and it swaps only the inner tuple's columns less the join
//! key, the outer tuple and the key being the same in every matching slot of a
//! buffer (see [`nested_loop_join_cost`]). Every kernel is priced at the public
//! bit widths the caller passes ([`JoinWidths`]): the key EQ, the θ-condition
//! where a secret time enters it, the selection's payload.
//!
//! All operators are oblivious: their operation counts and output sizes depend only
//! on the input lengths and the truncation bound, never on the data. The
//! per-operator reports are exposed as [`nested_loop_join_cost`],
//! [`public_inner_join_cost`] and `delta_sort_merge_join_cost`.
//!
//! ```
//! use incshrink_oblivious::{truncated_nested_loop_join, JoinSpec};
//! use incshrink_mpc::cost::CostMeter;
//! use incshrink_secretshare::{tuple::PlainRecord, SharedArrayPair};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut meter = CostMeter::new();
//! // One (pid, day) row on each side.
//! let sales = SharedArrayPair::share_records(&[PlainRecord::real(vec![1, 10])], &mut rng);
//! let returns = SharedArrayPair::share_records(&[PlainRecord::real(vec![1, 15])], &mut rng);
//! let spec = JoinSpec::with_condition(0, 0, |l, r| r[1].saturating_sub(l[1]) <= 10);
//! let out = truncated_nested_loop_join(&sales, &returns, &spec, 2, &mut meter, &mut rng);
//! assert_eq!(out.len(), 2); // b · |outer|, regardless of the data
//! assert_eq!(out.true_cardinality(), 1);
//! ```

use crate::sort::{batcher_pair_count, Network};
use incshrink_mpc::circuit::{Kernel, WORD_BITS};
use incshrink_mpc::cost::{CostMeter, CostReport};
use incshrink_mpc::hash::FxHashMap;
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::{PlainRecord, SharedRecordPair};
use rand::Rng;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Boxed θ-condition evaluated over `(left_fields, right_fields)`.
pub(crate) type ThetaCondition<'a> = Box<dyn Fn(&[u32], &[u32]) -> bool + Send + Sync + 'a>;

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

/// The public bit widths a truncated join is priced at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinWidths {
    /// The join key's width: one [`Kernel::Eq`] at it per pair.
    pub key: u32,
    /// The time width of the θ-condition where a secret time enters it, one
    /// [`Kernel::Theta`] per pair; `None` when no secret time does (an equi-join,
    /// or a condition the caller has already applied to public rows).
    pub theta: Option<u32>,
    /// Bits a slot of the selection network swaps: the inner tuple less its join
    /// key.
    pub selection: u32,
}

impl JoinWidths {
    /// A join over arrays that carry no schema: full-word keys and columns. The
    /// spec's condition, an opaque closure, is not priced.
    #[must_use]
    pub fn words(inner_arity: usize) -> Self {
        Self {
            key: WORD_BITS,
            theta: None,
            selection: WORD_BITS * inner_arity.saturating_sub(1) as u32,
        }
    }
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
pub(crate) fn truncated_match(
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

/// The one truncated matching loop: `truncated_match` generalised over where the
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
/// `outer_len × inner_len` inputs of `outer_arity` and `inner_arity` columns with
/// truncation bound `bound`, at the public `widths` — exactly what the physical
/// operator meters.
///
/// Cost shape: per pair of the `|outer|·|inner|` matrix one key [`Kernel::Eq`] at
/// the key's width, one [`Kernel::Theta`] at the time width where a secret time
/// enters the θ-condition, and 2 AND gates for the match/budget checks; per outer
/// tuple, the top-`bound` selection network over its buffer of `|inner|` slots
/// ([`Network::select`]`(|inner|, bound)` — Algorithm 4 sorts the buffer and keeps
/// its first `bound` slots, and the network leaves exactly those); and the
/// `b·|outer|` output write of `outer_arity + inner_arity + 1` words a slot. Two
/// **declared kernel substitutions** price the network. It is keyed by the match
/// flag alone, so each comparator is one [`Kernel::CompareExchange`]
/// ([`Network::charge_flag_keyed`]), the flag itself never swapped. Its swaps carry
/// `widths.selection` bits, the inner tuple less its join key, the only columns
/// besides the flag that differ across one buffer. The outer tuple's shares are the
/// same in every slot, so they are copied into the kept slots after the network, a
/// local operation with no gate, in place of Algorithm 4's sort of whole output
/// rows, which keeps the same slots on the same wires. So is the inner key: every
/// [`JoinSpec`] is an equi-join, so a kept real slot's inner key equals the outer
/// key, and a dummy slot's payload is don't-care, as for the outer columns. The
/// join is part of the step's one garbled circuit, so it charges no round of its
/// own: the meter charges one where the circuit closes. Depends only on public
/// sizes and widths, never on data. A public inner relation is priced by
/// [`public_inner_join_cost`] instead.
#[must_use]
pub fn nested_loop_join_cost(
    outer_len: usize,
    inner_len: usize,
    bound: usize,
    outer_arity: usize,
    inner_arity: usize,
    widths: JoinWidths,
) -> CostReport {
    let mut meter = loop_join_meter(
        outer_len,
        inner_len,
        bound,
        outer_arity + inner_arity,
        widths,
    );
    let select = Network::select(inner_len, bound).count();
    let comparators = (outer_len as u64).saturating_mul(select);
    meter.kernels(comparators, Kernel::CompareExchange(widths.selection));
    meter.report()
}

/// Algorithm 4's price against a **public** inner relation (CPDB's Award rows):
/// the key matrix and match/budget ANDs of [`nested_loop_join_cost`], `bound` ANDs
/// a pair for the selection, no swap, and the same output write.
///
/// Per outer tuple the circuit walks the inner rows `j` in relation order. The
/// match bit `m_j` costs the key EQ and the two match/budget ANDs of the secret
/// path: a public row has no lifetime budget, but one invocation spends at most
/// `bound` of it, as [`truncated_match_rows`] does of every inner row. A one-hot
/// count `h ∈ {0,1}^{bound+1}` (`h_0 = 1`) of the filled slots gives
/// `sel_{s,j} = m_j ∧ h_s`, `bound` ANDs, and `h_s ← h_s ⊕ sel_{s−1,j} ⊕ sel_{s,j}`,
/// XOR only. Slot `s` gets `⊕_j sel_{s,j}·P_j` and the flag `⊕_j sel_{s,j}`: a
/// secret bit times a public word is local, so no payload moves through a
/// network. Slot `s` holds the `(s+1)`-th match, real first — the slots the
/// selection network keeps. A secret `P_j` would make each term a swap of its
/// bits, so a secret inner relation keeps the network. `widths.selection` prices
/// nothing here.
#[must_use]
pub fn public_inner_join_cost(
    outer_len: usize,
    inner_len: usize,
    bound: usize,
    outer_arity: usize,
    inner_arity: usize,
    widths: JoinWidths,
) -> CostReport {
    let mut meter = loop_join_meter(
        outer_len,
        inner_len,
        bound,
        outer_arity + inner_arity,
        widths,
    );
    let pairs = (outer_len as u64).saturating_mul(inner_len as u64);
    meter.ands(pairs.saturating_mul(bound as u64));
    meter.report()
}

/// The nested loop around the per-outer selections: per pair the key EQ, the
/// θ-condition where priced and two ANDs, and the `b·|outer|` output write.
fn loop_join_meter(
    outer_len: usize,
    inner_len: usize,
    bound: usize,
    out_arity: usize,
    widths: JoinWidths,
) -> CostMeter {
    let o = outer_len as u64;
    let pairs = o.saturating_mul(inner_len as u64);
    let mut meter = CostMeter::new();
    meter.kernels(pairs, Kernel::Eq(widths.key));
    if let Some(time) = widths.theta {
        meter.kernels(pairs, Kernel::Theta(time));
    }
    meter.ands(pairs.saturating_mul(2));
    let slots = o.saturating_mul(bound as u64);
    meter.bytes(slots.saturating_mul(out_arity as u64 + 1).saturating_mul(4));
    meter
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
/// ([`crate::sort::bitonic_merge_pair_count`]`(n)` compares + record-wide swaps;
/// the valley reversal of the delta run relabels wires, see [`Network::merge`]),
/// scan the merged relation emitting `bound`
/// slots per position (`n·bound` key EQs and ANDs), obliviously compact the
/// `bound·n` emission down to the *public* `bound·|outer|` prefix with the top-k
/// selection network (`Network::select(bound·n, bound·|outer|)` compares +
/// swaps — the compaction keeps the real slots first and the cut reads only the
/// prefix, so the rest of the emission is never ordered), and write the output.
/// Every term is work the operator does on the arrays it is handed, at full-word
/// widths: the arrays carry no schema. Depends only on public sizes, never on data.
#[must_use]
pub(crate) fn delta_sort_merge_join_cost(
    outer_len: usize,
    inner_len: usize,
    bound: usize,
    out_arity: usize,
    merged_arity: usize,
) -> CostReport {
    let nm = outer_len + inner_len;
    let scan = (nm as u64).saturating_mul(bound as u64);
    let kept = outer_len.saturating_mul(bound);
    let (merged_width, out_width) = (merged_arity as u32 + 1, out_arity as u32 + 1);
    // Whole merged records: both run sorts and the bitonic merge; then the compaction.
    let merged = batcher_pair_count(outer_len)
        + batcher_pair_count(inner_len)
        + crate::sort::bitonic_merge_pair_count(nm);
    let compact = Network::select(nm.saturating_mul(bound), kept).count();
    let mut meter = CostMeter::new();
    meter.kernels(merged + compact, Kernel::Lt(WORD_BITS));
    meter.kernels(merged, Kernel::Swap(WORD_BITS * merged_width));
    meter.kernels(compact, Kernel::Swap(WORD_BITS * out_width));
    meter.kernels(scan, Kernel::Eq(WORD_BITS));
    meter.ands(scan);
    meter.bytes(
        (nm as u64)
            .saturating_mul(merged_arity as u64)
            .saturating_add((kept as u64).saturating_mul(u64::from(out_width)))
            .saturating_mul(4),
    );
    meter.report()
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
/// Exactly [`nested_loop_join_cost`]`(|outer|, |inner|, bound, outer arity, inner
/// arity, `[`JoinWidths::words`]`(inner arity))`: the arrays carry no schema, so
/// their keys and columns are full words and the spec's condition is not priced.
/// `O(|outer|·|inner|)` secure compares plus `|outer|` per-buffer top-`bound`
/// selection networks of one compare-exchange per comparator (`|inner| − 1` at
/// `bound = 1`).
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

    // Cost accounting: |outer|·|inner| secure comparisons and budget checks, plus a
    // top-`bound` selection over each per-outer buffer of |inner| slots, plus the
    // output write, at full-word widths: the arrays carry no schema.
    let arities = [outer, inner].map(|side| side.arity().unwrap_or(0));
    let cost = nested_loop_join_cost(
        outer_plain.len(),
        inner_plain.len(),
        bound,
        arities[0],
        arities[1],
        JoinWidths::words(arities[1]),
    );
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
/// A standalone alternative to [`truncated_nested_loop_join`], cheaper under the
/// LAN model for a large `|outer|` against a large inner relation; Transform does
/// not run it. It produces the **same output contract** (exhaustively
/// padded to `bound · |outer|` entries, identical real join tuples via
/// `truncated_match`) but replaces the `|outer|·|inner|` compare matrix and the
/// `|outer|` per-buffer selections with one Batcher sort per run (the
/// `|outer|`-record delta and the `|inner|`-record window), a bitonic merge of the
/// two sorted runs, and one compaction of the `bound · (|outer| + |inner|)` emission
/// by the top-`bound · |outer|` selection network.
///
/// # Leakage
/// Oblivious: the sort network, the per-position `bound`-slot emission and the
/// compaction network with its output wires are fixed by the public lengths.
/// Cutting the compacted emission at `bound · |outer|` is safe because at most
/// `bound` real tuples exist per outer record (Eq. 3), so the prefix length is a
/// public function of `|outer|`.
///
/// # Cost
/// Exactly `delta_sort_merge_join_cost`. The merged union and the compaction
/// network are priced but not physically permuted — the simulation derives the
/// identical output from `truncated_match` directly, the established idiom for
/// operators whose data movement does not affect the recovered result. Pricing
/// the compaction as a selection rather than Example 5.1's full Batcher sort
/// changes no output: the cut reads only the prefix the selection leaves in order.
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
    fn sort_merge_join_matches_nested_loop_semantics() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut meter = CostMeter::new();
        let sales = sales_table().share(&mut rng);
        let returns = returns_table().share(&mut rng);
        let spec = JoinSpec::with_condition(0, 0, |l, r| r[1].saturating_sub(l[1]) <= 10);
        let smj = truncated_sort_merge_delta_join(&sales, &returns, &spec, 2, &mut meter, &mut rng);
        let nlj = truncated_nested_loop_join(&sales, &returns, &spec, 2, &mut meter, &mut rng);
        assert_eq!(smj.len(), 2 * sales.len());
        assert_eq!(nlj.len(), smj.len());
        assert_eq!(real_rows(&smj), real_rows(&nlj));
    }

    #[test]
    fn both_operators_produce_identical_real_tuples() {
        // A padded outer (dummies included) under a θ-condition that several
        // inner rows per key pass.
        let mut rng = StdRng::seed_from_u64(5);
        let mut meter = CostMeter::new();
        let mut left = PlainTable::new(&["k", "t"]);
        let mut right = PlainTable::new(&["k", "t"]);
        (0..9u32).for_each(|i| left.push_row(vec![i % 4, i]));
        (0..9u32).for_each(|i| right.push_row(vec![i % 4, i + 2]));
        let (l, r) = (left.share_padded(12, &mut rng), right.share(&mut rng));
        let spec = JoinSpec::with_condition(0, 0, |a, b| b[1] >= a[1]);
        let nlj = truncated_nested_loop_join(&l, &r, &spec, 2, &mut meter, &mut rng);
        let smj = truncated_sort_merge_delta_join(&l, &r, &spec, 2, &mut meter, &mut rng);
        assert_eq!(smj.len(), 2 * l.len());
        assert_eq!(nlj.len(), smj.len());
        assert_eq!(real_rows(&nlj), real_rows(&smj));
    }

    #[test]
    fn cost_functions_match_physical_execution() {
        let mut rng = StdRng::seed_from_u64(11);
        // Sides of different widths: the selection's swaps carry the inner side's
        // columns less its join key.
        let mut left = PlainTable::new(&["k", "t", "x"]);
        let mut right = PlainTable::new(&["k", "t"]);
        (0..7u32).for_each(|i| left.push_row(vec![i % 3, i, 2 * i]));
        (0..19u32).for_each(|i| right.push_row(vec![i % 3, i + 1]));
        let (l, r) = (left.share(&mut rng), right.share(&mut rng));
        let spec = JoinSpec::equi(0, 0);
        let (mut nested_loop, mut sort_merge) = (CostMeter::new(), CostMeter::new());
        let nlj = truncated_nested_loop_join(&l, &r, &spec, 2, &mut nested_loop, &mut rng);
        let smj = truncated_sort_merge_delta_join(&l, &r, &spec, 2, &mut sort_merge, &mut rng);
        assert_eq!(
            (nlj.len(), smj.len()),
            (14, 14),
            "output contract: b · |outer|"
        );
        let nested_loop_cost = nested_loop_join_cost(7, 19, 2, 3, 2, JoinWidths::words(2));
        assert_eq!(nested_loop.report(), nested_loop_cost);
        let select = Network::select(19, 2).count();
        assert_eq!(nested_loop_cost.secure_compares, 7 * 19);
        let (eq, exchange) = (
            Kernel::Eq(WORD_BITS).circuit().and_count(),
            Kernel::CompareExchange(WORD_BITS).circuit().and_count(),
        );
        assert_eq!(
            nested_loop_cost.secure_ands,
            (eq + 2) * 7 * 19 + 7 * select * exchange,
            "the inner less its key: one word"
        );
        assert_eq!(nested_loop_cost.secure_swaps, 7 * select);
        assert_eq!(nested_loop_cost.bytes_communicated, 7 * 2 * 6 * 4);
        let sort_merge_cost = delta_sort_merge_join_cost(7, 19, 2, 5, 5);
        assert_eq!(sort_merge.report(), sort_merge_cost);
        // Neither join charges a round of its own: each is one circuit, closed once.
        for meter in [&mut nested_loop, &mut sort_merge] {
            assert_eq!(meter.take().rounds, 1);
        }
    }

    /// The one-hot prefix circuit [`public_inner_join_cost`] prices, simulated bit by
    /// bit for one real outer tuple over every match vector of `n ≤ 14` public rows
    /// and every `1 ≤ ω ≤ n`: the selection is exactly `ω·n` ANDs, slot `s` holds
    /// the `(s+1)`-th set position, the filled slots come first, and the kept rows
    /// are the ones `truncated_match_rows` keeps over a public relation with those
    /// matches.
    #[test]
    fn one_hot_prefix_circuit_keeps_the_first_bound_matches_in_relation_order() {
        let spec = JoinSpec::equi(0, 0);
        let outer = [RowRef {
            fields: &[1],
            is_view: true,
        }];
        for n in 1..=14usize {
            for mask in 0u32..1 << n {
                let m: Vec<bool> = (0..n).map(|j| mask >> j & 1 == 1).collect();
                // Public row j: key 1 where it matches, 0 elsewhere; its payload is j.
                let public: Vec<[u32; 2]> = (0..n).map(|j| [u32::from(m[j]), j as u32]).collect();
                let set: Vec<u32> = (0..n as u32).filter(|&j| m[j as usize]).collect();
                for omega in 1..=n {
                    let mut h = [false; 15];
                    h[0] = true;
                    let (mut flag, mut payload) = ([false; 14], [0u32; 14]);
                    let mut ands = 0;
                    for (j, &m_j) in m.iter().enumerate() {
                        let mut sel = [false; 14];
                        for s in 0..omega {
                            sel[s] = m_j & h[s];
                            ands += 1;
                        }
                        for s in 0..omega {
                            let below = s.checked_sub(1).is_some_and(|b| sel[b]);
                            h[s] ^= below ^ sel[s];
                            // sel · P_j with P_j public: local, no gate.
                            payload[s] ^= if sel[s] { public[j][1] } else { 0 };
                            flag[s] ^= sel[s];
                        }
                        h[omega] ^= sel[omega - 1];
                    }
                    assert_eq!(ands, omega * n);
                    let filled = set.len().min(omega);
                    assert!(flag[..omega]
                        .iter()
                        .enumerate()
                        .all(|(s, &f)| f == (s < filled)));
                    assert_eq!(payload[..filled], set[..filled]);
                    let (rows, mut kept) = (&public, Vec::new());
                    truncated_match_rows(
                        outer,
                        |j| &rows[j][..],
                        |key| (0..n).filter(move |&j| rows[j][0] == key),
                        &spec,
                        omega,
                        |rows| kept = rows.iter().map(|row| row[2]).collect(),
                    );
                    assert_eq!(kept, payload[..filled], "n={n} mask={mask:b} ω={omega}");
                }
            }
        }
    }

    /// The circuit twin of the nested loop's price: at distinct key, time and
    /// payload widths (1 and 32 among them), every AND the report charges is a
    /// generated circuit's, counted afresh.
    #[test]
    fn join_prices_are_their_generated_circuits_at_the_column_widths() {
        let (o, i, b) = (5, 23, 3);
        let pairs = (o * i) as u64;
        let comparators = o as u64 * Network::select(i, b).count();
        for (key, time, selection) in [(1, 1, 0), (14, 11, 11), (32, 7, 23), (9, 32, 1)] {
            let widths = JoinWidths {
                key,
                theta: Some(time),
                selection,
            };
            let equi = JoinWidths {
                theta: None,
                ..widths
            };
            let eq = Kernel::Eq(key).circuit().and_count();
            let theta = Kernel::Theta(time).circuit().and_count();
            let exchange = Kernel::CompareExchange(selection).circuit().and_count();
            let secret = nested_loop_join_cost(o, i, b, 2, 3, widths);
            let ands = pairs * (eq + theta + 2) + comparators * exchange;
            assert_eq!(secret.secure_ands, ands, "{widths:?}");
            let counts = (secret.secure_compares, secret.secure_swaps);
            assert_eq!(counts, (2 * pairs, comparators), "{widths:?}");
            let unconditioned = nested_loop_join_cost(o, i, b, 2, 3, equi);
            let ands = pairs * (eq + 2) + comparators * exchange;
            assert_eq!(unconditioned.secure_ands, ands, "{widths:?}");
            let public = public_inner_join_cost(o, i, b, 2, 3, equi);
            assert_eq!(
                public.secure_ands,
                pairs * (eq + 2 + b as u64),
                "{widths:?}"
            );
            assert_eq!(public.secure_swaps, 0);
        }
    }

    /// The public price: no swap, the key matrix's compares, `(EQ + 2 + ω)` ANDs a
    /// pair (the key, the match/budget pair and the one-hot state's ω) and the
    /// secret path's output write. The secret path's price is pinned at shapes
    /// recorded before the public one existed, its swaps re-recorded when the
    /// selection stopped carrying the inner join key, its round dropped when rounds
    /// came to be charged per circuit instead of per kernel, and its ANDs re-recorded
    /// when kernels came to be priced as generated circuits (here at full words).
    #[test]
    fn public_inner_price_has_no_swap_and_the_secret_price_is_pinned() {
        let cost = |secure_compares, secure_swaps, secure_ands, bytes_communicated| CostReport {
            secure_compares,
            secure_swaps,
            secure_ands,
            bytes_communicated,
            ..CostReport::default()
        };
        let shapes = [
            ((80, 110, 10, 2, 2), cost(8_800, 49_360, 1_919_280, 16_000)),
            ((28, 63, 1, 2, 2), cost(1_764, 1_736, 115_500, 560)),
            ((7, 19, 2, 3, 2), cost(133, 245, 12_474, 336)),
            ((13, 17, 10, 2, 3), cost(221, 988, 71_513, 3_120)),
            ((1, 0, 10, 2, 2), cost(0, 0, 0, 200)),
            ((0, 50, 3, 2, 2), cost(0, 0, 0, 0)),
        ];
        for ((o, i, b, oa, ia), secret) in shapes {
            let widths = JoinWidths::words(ia);
            assert_eq!(nested_loop_join_cost(o, i, b, oa, ia, widths), secret);
            let pairs = (o * i) as u64;
            let ands = (31 + 2 + b as u64) * pairs;
            let public = cost(pairs, 0, ands, secret.bytes_communicated);
            assert_eq!(public_inner_join_cost(o, i, b, oa, ia, widths), public);
        }
    }

    #[test]
    fn sort_merge_join_output_size_is_data_independent() {
        let mut rng = StdRng::seed_from_u64(7);
        let spec = JoinSpec::equi(0, 0);

        let mut m1 = CostMeter::new();
        let out1 = truncated_sort_merge_delta_join(
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
        let out2 = truncated_sort_merge_delta_join(
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
    fn selection_over_the_inner_columns_keeps_the_slots_of_whole_rows() {
        // Algorithm 4's per-outer buffer holds `outer ++ inner_j ++ match_j` in slot
        // j, and the network orders it matches first. Running the network over
        // `inner_j ++ match_j` alone and attaching the outer tuple to the kept slots
        // afterwards leaves the same rows on the same wires.
        let mut rng = StdRng::seed_from_u64(0x5E1EC7);
        let outer = [7u32, 8, 9];
        let matches_first = |lo: &[u32], hi: &[u32]| lo.last() < hi.last();
        let apply = |pairs: &[(usize, usize)], rows: &mut [Vec<u32>]| {
            for &(lo, hi) in pairs {
                if matches_first(&rows[lo], &rows[hi]) {
                    rows.swap(lo, hi);
                }
            }
        };
        for n in 0..=40usize {
            for k in 0..=n {
                let (pairs, outputs) = Network::select(n, k).pairs();
                let narrow: Vec<Vec<u32>> = (0..n as u32)
                    .map(|j| vec![j, 100 + j, rng.gen_range(0..2)])
                    .collect();
                let mut whole: Vec<Vec<u32>> = narrow
                    .iter()
                    .map(|row| [&outer[..], row].concat())
                    .collect();
                let matches = narrow.iter().filter(|row| row[2] == 1).count();
                let mut narrow = narrow;
                apply(&pairs, &mut whole);
                apply(&pairs, &mut narrow);
                for &wire in &outputs {
                    let attached = [&outer[..], &narrow[wire]].concat();
                    assert_eq!(whole[wire], attached, "n={n} k={k} wire={wire}");
                }
                let kept = outputs.iter().filter(|&&wire| narrow[wire][2] == 1).count();
                assert_eq!(kept, matches.min(k), "n={n} k={k}: the matches are kept");
            }
        }
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
