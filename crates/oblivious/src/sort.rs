//! Oblivious sorting, merging and selection networks.
//!
//! The comparison/swap schedule of a sorting network depends only on the input
//! *length*, never on the data, which is what makes it oblivious: executed inside a
//! 2PC, the servers learn nothing beyond the (public) array size. The paper uses
//! sorting networks for the truncated joins (Algorithm 4's per-outer buffers,
//! Example 5.1's union sort and compaction) and the cache read of the Shrink
//! protocols (Figure 3, `ObliSort(σ, key = isView)`), which only has to bring the
//! reals first: [`crate::compact::Compaction`] prices that; here, runs are merged.
//!
//! Every network here is one [`Network`] — blocks of public length, a tournament of
//! bitonic merges over their sorted lists, the wires the caller keeps — in one of
//! three cases:
//!
//! * [`Network::sort`] — Batcher's odd-even merge sort, generated for arbitrary
//!   lengths by padding to the next power of two with `+∞` keys and dropping the
//!   comparators that touch the padding; [`batcher_pair_count`] prices it.
//! * [`Network::merge`] — sorted runs folded into one, of which the caller keeps
//!   the first `keep` wires. The secure cache prices its run merges and its
//!   candidate read with it, each pruned to the rows the cut keeps, and arranges
//!   them with [`crate::compact::partition_by_is_view`].
//! * [`Network::select`] — the top-`k` selection both truncated joins are priced
//!   with, since each sorts an array only to keep its head. Its leaves are blocks
//!   of `k` or of `k.next_power_of_two()` wires, whichever counts fewer
//!   comparators.
//!
//! The field sort, [`oblivious_sort_by_field`], executes Batcher's network as a
//! **blocked, packed-word kernel**: each record's key is extracted once and packed
//! with the record's position into one `u64` (`key << 30 | position`); the
//! comparators run branch-free over that single lane, one slice kernel per stage,
//! and the record shares move through the position bits in one final pass. Swap
//! decisions depend only on the key bits, so the arrangement — and the cost,
//! charged from the public lengths — is bit-identical to swapping whole records at
//! every comparator. Every other network is only priced.

use incshrink_mpc::cost::CostMeter;
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::SharedRecordPair;
use serde::{Deserialize, Serialize};

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SortOrder {
    /// Smallest key first.
    Ascending,
    /// Largest key first.
    Descending,
}

/// Low bits of a packed sort word that carry the record's original position; the
/// remaining high bits carry its key. See [`network_permutation`].
const INDEX_BITS: u32 = 30;
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;
/// Largest key a packed sort word can carry (34 bits): [`oblivious_sort_by_field`]
/// needs 33.
const MAX_SORT_KEY: u64 = (1 << (64 - INDEX_BITS)) - 1;

/// Enumerate the compare-exchange pairs of Batcher's odd-even merge sort for `n`
/// elements (indices `i < j`), in execution order: the block sorts of
/// [`Network::pairs`], the materialised reference the tests hold the kernels to.
#[cfg(test)]
pub(crate) fn batcher_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    if n < 2 {
        return pairs;
    }
    let padded = n.next_power_of_two();
    let mut p = 1;
    while p < padded {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < padded {
                for lo in j..j + k.min(padded - j - k) {
                    let hi = lo + k;
                    // Keep the comparator when both ends fall in the same 2p-block
                    // and the high end is not conceptual +∞ padding.
                    if lo / (2 * p) == hi / (2 * p) && hi < n {
                        pairs.push((lo, hi));
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
    pairs
}

/// Exact number of compare-exchange gates in the pruned Batcher odd-even merge
/// network for `n` elements — always equal to `batcher_pairs(n).len()`, but computed
/// arithmetically in `O(log² n)` time with no allocation: one O(1) closed form per
/// `(p, k)` network level.
///
/// Every join cost model in this crate is built on it: a *public* function of the
/// (public) input length, so pricing leaks nothing the array sizes do not. It runs
/// on every join shape Transform's memo has not seen, and in the sort-merge join's
/// cost as large as the padded emission (`bound · n`): no near-linear walk.
#[must_use]
pub fn batcher_pair_count(n: usize) -> u64 {
    if n < 2 {
        return 0;
    }
    let padded = n.next_power_of_two();
    let mut count: u64 = 0;
    let mut p = 1usize;
    while p < padded {
        let mut k = p;
        while k >= 1 {
            count += pruned_level_pair_count(n, padded, p, k);
            k /= 2;
        }
        p *= 2;
    }
    count
}

/// Comparator count of one `(p, k)` level of the pruned Batcher network: the sum of
/// `count_mod_below(j, m, 2p, 2p − k)` over block origins `j ∈ {k mod p, +2k, …}`
/// with `j + k < padded` and `m = min(k, padded − j − k, n − j − k)` — exactly what
/// the materialising iterator visits — collapsed to O(1) instead of `O(padded / k)`
/// loop iterations.
fn pruned_level_pair_count(n: usize, padded: usize, p: usize, k: usize) -> u64 {
    if k == p {
        // First merge level: j ∈ {0, 2p, 4p, …} starts every block on a 2p
        // boundary, so all m counted values satisfy `v mod 2p < p` and a block
        // contributes m = min(p, n − j − p) outright (the padding bound
        // `padded − j − p` is ≥ p for every visited j and never clips).
        if n < 2 * p {
            return n.saturating_sub(p) as u64;
        }
        // Blocks with the full m = p run while j ≤ n − 2p; their loop bound
        // `j + p < padded` holds a fortiori because n ≤ padded.
        let full = (n - 2 * p) / (2 * p) + 1;
        let mut total = (full as u64) * (p as u64);
        let j = full * 2 * p;
        if j + p < padded && n > j + p {
            total += (n - j - p) as u64;
        }
        return total;
    }
    // Later levels (k < p): j ∈ {k, 3k, 5k, …}; the largest visited origin is
    // padded − 3k, so `padded − j − k ≥ 2k` and the padding bound never clips m.
    // A full block (m = k) spans [j, j + k) mod 2p with j an odd multiple of k;
    // the window is pruned to zero exactly when j ≡ 2p − k (mod 2p) — it then
    // coincides with the dropped zone [2p − k, 2p) — and contributes k otherwise.
    // Those zero residues recur once every r = p/k blocks, starting at block r − 1.
    let r = p / k;
    let full = match n.checked_sub(2 * k) {
        Some(by_n) => {
            let last = by_n.min(padded - 3 * k);
            if last >= k {
                (last - k) / (2 * k) + 1
            } else {
                0
            }
        }
        None => 0,
    };
    let zeroed = if full >= r { (full - r) / r + 1 } else { 0 };
    let mut total = ((full - zeroed) as u64) * (k as u64);
    // At most one partial block (0 < m < k) follows the full ones; everything
    // after it has m = 0.
    let j = k * (2 * full + 1);
    if j + k < padded {
        let m = k.min(n.saturating_sub(j + k));
        total += count_mod_below(j, m, 2 * p, 2 * p - k);
    }
    total
}

/// Number of `v ∈ [start, start + len)` with `(v mod modulus) < limit`.
fn count_mod_below(start: usize, len: usize, modulus: usize, limit: usize) -> u64 {
    if len == 0 || limit == 0 {
        return 0;
    }
    let limit = limit.min(modulus);
    let mut count = (len / modulus * limit) as u64;
    let rem = len % modulus;
    let s = start % modulus;
    let e = s + rem;
    if e <= modulus {
        count += limit.min(e).saturating_sub(s.min(limit)) as u64;
    } else {
        count += limit.saturating_sub(s.min(limit)) as u64;
        count += limit.min(e - modulus) as u64;
    }
    count
}

/// Analytic comparator bound `p·k·(k+1)/4` for the Batcher network padded to
/// `p = 2^k ≥ n`, saturating at `u64::MAX`. This is the paper-faithful upper bound
/// the non-materialized baseline in `incshrink-core` prices secure joins with (its
/// analysis uses the closed form, never the pruned schedule); it dominates
/// [`batcher_pair_count`] for every `n`.
#[must_use]
pub fn batcher_padded_pair_count(n: u64) -> u64 {
    let p = u128::from(n).next_power_of_two();
    let k = u128::from(p.trailing_zeros());
    u64::try_from(p * k * (k + 1) / 4).unwrap_or(u64::MAX)
}

/// One comparator network, a function of public sizes alone: the wires are cut into
/// blocks, each Batcher-sorted unless it arrives sorted; the blocks' sorted lists
/// meet in a tournament of bitonic merges; the caller reads the first `keep` wires.
///
/// The tournament pairs neighbouring lists level by level, an odd last list passing
/// up unmerged (the tree that splits the blocks at the largest power of two below
/// their number). A node runs the bitonic cleaner over `reverse(A) ++ B` and passes
/// up its first `min(|A| + |B|, keep)` wires, a list longer than `keep` cut to its
/// head. The cleaner's stride-`s` stage compares `(l, l + s)` for `l mod 2s < s`
/// over a power-of-two length padded with `+∞` keys; a comparator touching the
/// padding, or in a `2s` group that starts at or past the kept length, feeds no kept
/// wire and is dropped. Where the Batcher sort of every wire is no larger, the
/// network is that sort, with the first `keep` wires kept.
#[derive(Debug, Clone, Copy)]
pub struct Network<'a> {
    blocks: Blocks<'a>,
    sorted: bool,
    keep: usize,
    comparators: u64,
    /// Whether the tournament provides the comparators, else the Batcher sort.
    tournament: bool,
}

#[derive(Debug, Clone, Copy)]
enum Blocks<'a> {
    /// `n` wires in blocks of `len`, the last one possibly shorter.
    Even { n: usize, len: usize },
    /// Blocks of these lengths, in wire order.
    Runs(&'a [usize]),
}

impl Blocks<'_> {
    fn count(&self) -> usize {
        match *self {
            Blocks::Even { n, len } => n.div_ceil(len),
            Blocks::Runs(lens) => lens.len(),
        }
    }

    /// Wires of the `count` blocks from `first` on.
    fn wires(&self, first: usize, count: usize) -> usize {
        match *self {
            Blocks::Even { n, len } => n.min((first + count) * len) - first * len,
            Blocks::Runs(lens) => lens[first..first + count].iter().sum(),
        }
    }
}

/// Fewer comparators than any network that sorts `n` wires has: it must tell the
/// `n!` orders apart, so it has at least `log₂ n! > n·(log₂ n − log₂ e)`, more than
/// `n·(⌊log₂ n⌋ − 2)`.
fn sort_lower_bound(n: usize) -> u64 {
    n as u64 * u64::from(n.max(1).ilog2().saturating_sub(2))
}

/// The largest power of two below `count ≥ 2`: where the tournament splits.
fn split_point(count: usize) -> usize {
    1 << (count - 1).ilog2()
}

/// Comparators of one tournament node: the cleaner over `a + b` wires, keeping the
/// first `kept`.
fn merge_pair_count(a: usize, b: usize, kept: usize) -> u64 {
    if a == 0 || b == 0 {
        return 0;
    }
    let n = a + b;
    let mut count = 0;
    let mut s = n.next_power_of_two() / 2;
    while s >= 1 {
        count += count_mod_below(0, (n - s).min(kept.next_multiple_of(2 * s)), 2 * s, s);
        s /= 2;
    }
    count
}

impl<'a> Network<'a> {
    /// Batcher's odd-even merge sort of `n` wires, every wire kept.
    #[must_use]
    pub fn sort(n: usize) -> Network<'static> {
        Network::select(n, n)
    }

    /// Merge adjacent sorted runs of these lengths into one and keep its first
    /// `keep` wires (`usize::MAX`: every wire). A run longer than `keep` enters as
    /// its head, and every comparator that feeds no kept wire is dropped: a merge of
    /// runs of 176 and 205 rows counts 1 578 comparators, 1 036 of them when only
    /// the first 205 wires are kept.
    #[must_use]
    pub fn merge(runs: &'a [usize], keep: usize) -> Self {
        Network::new(Blocks::Runs(runs), true, keep)
    }

    /// The top-`k` selection over `n` wires: Batcher-sorted blocks of `k` or of
    /// `k.next_power_of_two()`, whichever tallies fewer comparators (neither wins
    /// everywhere; `k` on a tie), the first `k` wires kept — the `k` smallest keys,
    /// ascending. `n − 1` comparators at `k = 1`, the sort of `n` wires once `k ≥ n`.
    #[must_use]
    pub fn select(n: usize, k: usize) -> Network<'static> {
        let leaves = |len: usize| Network::new(Blocks::Even { n, len: len.max(1) }, false, k);
        let power_of_two = leaves(k.min(n).next_power_of_two());
        std::cmp::min_by_key(leaves(k), power_of_two, Network::count)
    }

    /// The network planned, without materialising it: the tournament's
    /// comparators, or the Batcher sort's where those are no more. Transform prices
    /// a selection on every join shape its memo has not seen, hence no allocation;
    /// the sort-merge join's cost selects over its whole emission, hence the
    /// tally's memo: without it that select walks every block, ~100× slower at an
    /// emission of 10 × 5 000 wires. A tournament below [`sort_lower_bound`] wins
    /// without counting the Batcher sort, which costs more than the rest of the
    /// build (the secure cache builds a network a merge).
    fn new(blocks: Blocks<'a>, sorted: bool, keep: usize) -> Self {
        let mut network = Network {
            blocks,
            sorted,
            keep,
            comparators: 0,
            tournament: false,
        };
        let n = network.wires();
        if keep > 0 && n >= 2 {
            let memo = &mut [None; usize::BITS as usize];
            let (_, tournament) = network.tally(0, blocks.count(), memo);
            let sort = if tournament < sort_lower_bound(n) {
                u64::MAX
            } else {
                batcher_pair_count(n)
            };
            network.comparators = tournament.min(sort);
            network.tournament = tournament < sort;
        }
        network
    }

    /// Number of wires.
    fn wires(&self) -> usize {
        self.blocks.wires(0, self.blocks.count())
    }

    /// What the subtree over `count` blocks from `first` on hands its parent: the
    /// length of its sorted list (the wires that can still reach a kept one) and
    /// its comparators. A subtree over `2^d` blocks of one length is the same
    /// wherever it sits, so `memo[d]` keeps it: `O(log n)` distinct subtrees, and
    /// `O(log² n)` work, for even blocks.
    fn tally(&self, first: usize, count: usize, memo: &mut [Option<(usize, u64)>]) -> (usize, u64) {
        let depth = count.ilog2() as usize;
        let uniform = count.is_power_of_two()
            && matches!(self.blocks, Blocks::Even { n, len } if (first + count) * len <= n);
        if let (true, Some(tally)) = (uniform, memo[depth]) {
            return tally;
        }
        let tally = if count == 1 {
            let len = self.blocks.wires(first, 1);
            let sort = batcher_pair_count(if self.sorted { 0 } else { len });
            (len.min(self.keep), sort)
        } else {
            let half = split_point(count);
            let a = self.tally(first, half, memo);
            let b = self.tally(first + half, count - half, memo);
            let wires = (a.0 + b.0).min(self.keep);
            (wires, a.1 + b.1 + merge_pair_count(a.0, b.0, wires))
        };
        if uniform {
            memo[depth] = Some(tally);
        }
        tally
    }

    /// Exact comparator count: at most [`batcher_pair_count`] of the wires, 0 when
    /// nothing is kept.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.comparators
    }

    /// Charge the network over `width`-word records keyed by a word (the field
    /// sort, the shuffle's random tags), without executing it: one secure comparison
    /// and one record-wide swap per comparator, and no round: the meter charges one
    /// where the step's circuit closes. A valley reversal relabels wires — each
    /// server reverses its own shares — so it costs no gate. Returns the comparators.
    pub fn charge(&self, width: u64, meter: &mut CostMeter) -> u64 {
        meter.compares(self.comparators);
        meter.swaps(self.comparators, width.max(1));
        self.comparators
    }

    /// Charge the network keyed by one flag bit (`isView`, the join's match flag) as
    /// the Boolean circuit it is, a **declared kernel substitution** for a 32-bit
    /// comparison per comparator. With free XOR a real-first compare-exchange of
    /// flags `a` (low wire) and `b` (high wire) needs one AND, `t = a ∧ b`: the swap
    /// bit is `b ⊕ t`, the new flags `a ⊕ b ⊕ t` and `t` (the other way round for
    /// dummies first), and only the `payload_words` other words swap — none at 0,
    /// where [`Self::charge`] floors a record at one word. The cache's merges and
    /// read and Algorithm 4's selection charge here; what only brings the reals
    /// first charges [`crate::compact::Compaction::charge`]. No round, as for
    /// [`Self::charge`]. Returns the comparators.
    pub fn charge_flag_keyed(&self, payload_words: u64, meter: &mut CostMeter) -> u64 {
        meter.ands(self.comparators);
        meter.swaps(self.comparators, payload_words);
        self.comparators
    }

    /// The materialised network: compare-exchange pairs in execution order — each
    /// leaves the smaller key on its first wire — and the kept output wires, whose
    /// keys end ascending. The reference the count and the host arrangements are held to.
    #[cfg(test)]
    pub(crate) fn pairs(&self) -> (Vec<(usize, usize)>, Vec<usize>) {
        let (n, mut pairs) = (self.wires(), Vec::new());
        let outputs = match self.tournament {
            _ if self.keep == 0 => Vec::new(),
            true => self.subtree_pairs(0, self.blocks.count(), 0, &mut pairs),
            false => {
                pairs = batcher_pairs(n);
                (0..self.keep.min(n)).collect()
            }
        };
        (pairs, outputs)
    }

    #[cfg(test)]
    fn subtree_pairs(
        &self,
        first: usize,
        count: usize,
        start: usize,
        pairs: &mut Vec<(usize, usize)>,
    ) -> Vec<usize> {
        if count == 1 {
            let len = self.blocks.wires(first, 1);
            if !self.sorted {
                pairs.extend(
                    batcher_pairs(len)
                        .iter()
                        .map(|&(lo, hi)| (start + lo, start + hi)),
                );
            }
            return (start..start + len.min(self.keep)).collect();
        }
        let half = split_point(count);
        let a = self.subtree_pairs(first, half, start, pairs);
        let b_start = start + self.blocks.wires(first, half);
        let b = self.subtree_pairs(first + half, count - half, b_start, pairs);
        if a.is_empty() || b.is_empty() {
            return if a.is_empty() { b } else { a };
        }
        let mut valley: Vec<usize> = a.into_iter().rev().chain(b).collect();
        let (n, kept) = (valley.len(), valley.len().min(self.keep));
        let mut s = n.next_power_of_two() / 2;
        while s >= 1 {
            for l in 0..(n - s).min(kept.next_multiple_of(2 * s)) {
                if l % (2 * s) < s {
                    pairs.push((valley[l], valley[l + s]));
                }
            }
            s /= 2;
        }
        valley.truncate(kept);
        valley
    }
}

/// Comparators of [`Network::merge`] over two non-empty runs of `n` wires in all,
/// every wire kept: the bitonic cleaner's count depends on `n` alone, never on the
/// split.
#[must_use]
pub fn bitonic_merge_pair_count(n: usize) -> u64 {
    Network::merge(&[n / 2, n - n / 2], usize::MAX).count()
}

/// Branch-free compare-exchange of two packed sort words: swap when the *key* bits
/// of `lo` strictly exceed those of `hi`. The index bits never take part in the
/// comparison (`hi | INDEX_MASK` saturates them), so equal keys never swap —
/// exactly the strict `key_lo > key_hi` test of a record-at-a-time comparator.
#[inline(always)]
fn compare_exchange(lo: &mut u64, hi: &mut u64) {
    let (a, b) = (*lo, *hi);
    let mask = u64::from(a > (b | INDEX_MASK)).wrapping_neg();
    let d = (a ^ b) & mask;
    *lo = a ^ d;
    *hi = b ^ d;
}

/// One block of comparators: the first `k` words of `group` against the run that
/// follows them, which the array end may have cut short or removed altogether.
#[inline(always)]
fn exchange_block(group: &mut [u64], k: usize) {
    if group.len() > k {
        let (lo, hi) = group.split_at_mut(k);
        for (a, b) in lo.iter_mut().zip(hi) {
            compare_exchange(a, b);
        }
    }
}

/// Every stride-`K` block of `span`, which starts on a block origin: full `2K`
/// groups with a compile-time trip count (the strides ≤ 4 spend their time on loop
/// overhead, not comparators, when walked through [`exchange_block`]), then the one
/// group the array end may have cut short.
fn exchange_groups<const K: usize>(span: &mut [u64]) {
    let mut groups = span.chunks_exact_mut(2 * K);
    for group in &mut groups {
        let (lo, hi) = group.split_at_mut(K);
        for i in 0..K {
            compare_exchange(&mut lo[i], &mut hi[i]);
        }
    }
    exchange_block(groups.into_remainder(), K);
}

/// One stride-`k` stage over `span`, which starts on a block origin: every `2k`
/// group compares its first `k` words with the run that follows them.
#[inline]
fn exchange_stride(span: &mut [u64], k: usize) {
    match k {
        1 => exchange_groups::<1>(span),
        2 => exchange_groups::<2>(span),
        4 => exchange_groups::<4>(span),
        _ => span
            .chunks_mut(2 * k)
            .for_each(|group| exchange_block(group, k)),
    }
}

/// Run the pruned Batcher network over packed sort words — the same comparators
/// in the same order as `batcher_pairs(words.len())`, walked block by block.
///
/// At level `(p, k)` the generator visits block origins `j ≡ k mod p` in steps of
/// `2k`, and block `j` compares `[j, j + k)` with `[j + k, j + 2k)`. Both runs are
/// `k`-aligned, so the block sits inside one `2p`-chunk unless `j + k` is a
/// multiple of `2p`: the same-chunk test keeps or drops a block *as a whole*. The
/// kept blocks of a chunk therefore tile `[k, 2p − k)` of it (the whole chunk when
/// `k = p`), and the `+∞` padding rule `hi < n` only shortens the last block to
/// `min(k, n − j − k)` comparators — which slicing to the array end does for free.
fn run_sort_network(words: &mut [u64]) {
    let mut p = 1;
    while p < words.len() {
        let mut k = p;
        while k >= 1 {
            let trim = if k == p { 0 } else { k };
            for chunk in words.chunks_mut(2 * p) {
                let end = chunk.len().min(2 * p - trim);
                if end > trim + k {
                    exchange_stride(&mut chunk[trim..end], k);
                }
            }
            k /= 2;
        }
        p *= 2;
    }
}

/// The permutation Batcher's network applies to `array`'s packed sort words:
/// position `j` of the result names the record that ends there.
///
/// Each record becomes one word `key << 30 | position` — `key_fn` receives the
/// record's share pair and reconstructs only the words its key is made of
/// (reconstruction happens *inside* the simulated MPC, mirroring how a
/// garbled-circuit comparator sees the joint value without either party learning
/// it); a descending order complements the key, so ties stay ties. The network runs
/// over that single `u64` lane, and the caller moves the record shares through the
/// surviving position bits in one final pass. Swap decisions depend on the key bits
/// only, so the arrangement is the one swapping whole records at every comparator
/// of the network produces.
///
/// # Panics
/// Panics when a key exceeds [`MAX_SORT_KEY`] or the array has more than 2³⁰
/// entries — either would spill into the other half of the packed word.
fn network_permutation<F>(array: &SharedArrayPair, order: SortOrder, key_fn: F) -> Vec<usize>
where
    F: Fn(&SharedRecordPair) -> u64,
{
    assert!(
        array.len() as u64 <= INDEX_MASK + 1,
        "array too long for a packed sort"
    );
    let mut words: Vec<u64> = (0u64..)
        .zip(array.entries())
        .map(|(position, entry)| {
            let key = key_fn(entry);
            assert!(key <= MAX_SORT_KEY, "sort key {key:#x} exceeds 34 bits");
            let key = match order {
                SortOrder::Ascending => key,
                SortOrder::Descending => MAX_SORT_KEY - key,
            };
            key << INDEX_BITS | position
        })
        .collect();
    run_sort_network(&mut words);
    words
        .into_iter()
        .map(|w| (w & INDEX_MASK) as usize)
        .collect()
}

/// Oblivious sort by a single attribute column (ascending or descending). Dummy
/// records (`isView = 0`) are ordered after real records for ascending sorts and are
/// given the maximum key, so they collect at the tail. [`Network::sort`] over the
/// packed words of `network_permutation`, keyed by a word: one secure comparison
/// and one record-wide swap per comparator ([`Network::charge`]).
pub fn oblivious_sort_by_field(
    array: &mut SharedArrayPair,
    field: usize,
    order: SortOrder,
    meter: &mut CostMeter,
) {
    let width = array.arity().unwrap_or(1) as u64 + 1;
    if Network::sort(array.len()).charge(width, meter) == 0 {
        return;
    }
    let key = |rec: &SharedRecordPair| {
        let dummy = rec.is_view.recover() == 0;
        let value = rec.fields.get(field).map_or(u32::MAX, |w| w.recover());
        // Dummies always sink to the tail regardless of direction.
        match order {
            SortOrder::Ascending => (u64::from(dummy) << 32) | u64::from(value),
            SortOrder::Descending if dummy => 0,
            SortOrder::Descending => u64::from(value),
        }
    };
    let perm = network_permutation(array, order, key);
    array.permute_gather(&perm);
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_secretshare::tuple::PlainRecord;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn share_values(values: &[u32], dummies: usize) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(17);
        let mut records: Vec<PlainRecord> =
            values.iter().map(|&v| PlainRecord::real(vec![v])).collect();
        records.extend((0..dummies).map(|_| PlainRecord::dummy(1)));
        SharedArrayPair::share_records(&records, &mut rng)
    }

    #[test]
    fn batcher_pairs_sort_arbitrary_lengths() {
        for n in 0..33usize {
            let pairs = batcher_pairs(n);
            assert!(pairs.iter().all(|&(lo, hi)| lo < hi && hi < n));
            // Apply the network to a worst-case (reverse sorted) plain array.
            let mut data: Vec<usize> = (0..n).rev().collect();
            let sorted = run_selection(&(pairs, (0..n).collect()), &mut data);
            assert!(sorted.into_iter().eq(0..n), "network failed for n={n}");
        }
    }

    #[test]
    fn pair_count_matches_materialized_network() {
        for n in (0..=400usize).chain([1000, 4096, 5000]) {
            let count = batcher_pair_count(n);
            assert_eq!(count, batcher_pairs(n).len() as u64, "n={n}");
            let sort = Network::sort(n);
            assert_eq!(sort.count(), count, "n={n}");
            assert_eq!(sort.pairs().0.len() as u64, count, "n={n}");
        }
    }

    /// The pre-closed-form count: per-block `count_mod_below` over every block
    /// origin the materialising iterator visits. Kept as the test oracle for the
    /// O(1)-per-level collapse in [`pruned_level_pair_count`].
    fn block_walk_pair_count(n: usize) -> u64 {
        if n < 2 {
            return 0;
        }
        let padded = n.next_power_of_two();
        let mut count: u64 = 0;
        let mut p = 1usize;
        while p < padded {
            let mut k = p;
            while k >= 1 {
                let mut j = k % p;
                while j + k < padded {
                    let m = k.min(padded - j - k).min(n.saturating_sub(j + k));
                    count += count_mod_below(j, m, 2 * p, 2 * p - k);
                    j += 2 * k;
                }
                k /= 2;
            }
            p *= 2;
        }
        count
    }

    #[test]
    fn closed_form_pair_count_matches_block_walk() {
        for n in 0..=5000usize {
            assert_eq!(batcher_pair_count(n), block_walk_pair_count(n), "n={n}");
        }
        // Straddle every power-of-two boundary up to 2^20.
        for shift in 11..=20u32 {
            let p = 1usize << shift;
            for n in [p - 3, p - 1, p, p + 1, p + 7, p + p / 2] {
                assert_eq!(batcher_pair_count(n), block_walk_pair_count(n), "n={n}");
            }
        }
    }

    #[test]
    fn no_batcher_sort_is_below_the_sorting_lower_bound() {
        for n in (0..=5000usize).chain((11..=20).map(|shift| (1 << shift) + 3)) {
            assert!(sort_lower_bound(n) <= batcher_pair_count(n), "n={n}");
        }
    }

    #[test]
    fn padded_count_dominates_exact_count_and_saturates() {
        for n in 0..=4096u64 {
            assert!(
                batcher_padded_pair_count(n) >= batcher_pair_count(n as usize),
                "n={n}"
            );
        }
        // Exact just below the saturation region...
        assert_eq!(
            batcher_padded_pair_count(1 << 40),
            (1u64 << 40) * 40 * 41 / 4
        );
        // ...and saturating rather than overflowing beyond it.
        assert_eq!(batcher_padded_pair_count(1 << 57), u64::MAX);
        assert_eq!(batcher_padded_pair_count(u64::MAX), u64::MAX);
        assert_eq!(batcher_padded_pair_count(0), 0);
        assert_eq!(batcher_padded_pair_count(1), 0);
    }

    /// Run a materialised network over `keys` — min to the pair's first wire — and
    /// read its output wires.
    fn run_selection<T: Copy + Ord>(
        (pairs, outputs): &(Vec<(usize, usize)>, Vec<usize>),
        keys: &mut [T],
    ) -> Vec<T> {
        for &(lo, hi) in pairs {
            if keys[lo] > keys[hi] {
                keys.swap(lo, hi);
            }
        }
        outputs.iter().map(|&wire| keys[wire]).collect()
    }

    #[test]
    fn bitonic_count_matches_pairs_and_is_cheaper_than_batcher() {
        for n in 0..=400usize {
            let count = bitonic_merge_pair_count(n);
            for a in [1, n / 3, n / 2, n.saturating_sub(1)] {
                if a == 0 || a >= n {
                    continue;
                }
                let runs = [a, n - a];
                let merge = Network::merge(&runs, usize::MAX);
                assert_eq!(merge.count(), count, "n={n} a={a}");
                assert_eq!(merge.pairs().0.len() as u64, count, "n={n} a={a}");
            }
        }
        // The merge must beat the full re-sort once the union is non-trivial.
        for n in [8usize, 64, 1000, 4096] {
            assert!(bitonic_merge_pair_count(n) < batcher_pair_count(n), "n={n}");
        }
    }

    #[test]
    fn select_count_matches_materialized_network() {
        for n in 0..=300usize {
            let ks = [0, 1, 2, 3, 5, 7, 8, 10, 16, 31, 64];
            let edges = [n.saturating_sub(1), n, n + 1];
            for k in ks.into_iter().chain(edges) {
                let select = Network::select(n, k);
                let (pairs, outputs) = select.pairs();
                assert_eq!(select.count(), pairs.len() as u64, "n={n} k={k}");
                assert_eq!(outputs.len(), k.min(n), "n={n} k={k}");
                assert!(pairs.iter().all(|&(lo, hi)| lo != hi && lo.max(hi) < n));
            }
        }
        // The emission shapes of the benchmark workloads' delta sort-merge joins.
        for n in [1180usize, 4096, 20_080] {
            for k in [1, 7, 10, 80, 100, n / 2, n - 1] {
                let select = Network::select(n, k);
                assert_eq!(select.count(), select.pairs().0.len() as u64, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn bitonic_merge_sorts_all_01_run_pairs() {
        // Exhaustive over 0-1 inputs: an ascending 0-1 run of length m is determined
        // by its number of zeros, so (a+1)(b+1) inputs cover every 0-1 run pair. By
        // the 0-1 principle (restricted to the monotone-closed class of two-run
        // inputs), sorting all of these proves the network merges arbitrary runs of
        // these lengths.
        for n in 0..=33usize {
            for a in 0..=n {
                let network = Network::merge(&[a, n - a], usize::MAX).pairs();
                for za in 0..=a {
                    for zb in 0..=n - a {
                        let mut input = vec![0u32; za];
                        input.extend(std::iter::repeat(1).take(a - za));
                        input.extend(std::iter::repeat(0).take(zb));
                        input.extend(std::iter::repeat(1).take(n - a - zb));
                        let mut expect = input.clone();
                        expect.sort_unstable();
                        let merged = run_selection(&network, &mut input);
                        assert_eq!(merged, expect, "n={n} a={a} za={za} zb={zb}");
                    }
                }
            }
        }
    }

    #[test]
    fn select_count_is_bounded_by_the_sort_and_linear_at_k_one() {
        let select = |n, k| Network::select(n, k).count();
        let leaves = |n, k: usize, len: usize| {
            Network::new(Blocks::Even { n, len: len.max(1) }, false, k).count()
        };
        for n in 0..=2000usize {
            let sort = batcher_pair_count(n);
            assert_eq!(Network::sort(n).count(), sort, "n={n}");
            assert_eq!(select(n, 1), n.saturating_sub(1) as u64, "n={n}");
            for k in [1usize, 2, 3, 7, 10, 16, 64, 100, n / 3, n / 2] {
                assert!(select(n, k) <= sort, "n={n} k={k}");
                assert!(select(n, k) <= leaves(n, k, k), "n={n} k={k}");
            }
            for k in [n, n + 1, 2 * n + 5] {
                assert_eq!(select(n, k), sort, "n={n} k={k}");
            }
        }
        // The per-outer buffers of the benchmark windows (TPC-ds 63 rows at ω = 1,
        // CPDB 110 at ω = 10), a 7-of-70 emission and a 10-of-100 buffer.
        assert_eq!(select(63, 1), 62);
        assert_eq!(batcher_pair_count(63), 537);
        assert_eq!(select(110, 10), 617);
        assert_eq!(batcher_pair_count(110), 1243);
        assert_eq!(select(70, 7), 307);
        assert_eq!(batcher_pair_count(70), 731);
        assert_eq!(select(100, 10), 561);
        // Neither leaf length wins everywhere, hence the minimum.
        assert_eq!((leaves(110, 10, 10), leaves(110, 10, 16)), (662, 617));
        assert_eq!((leaves(17, 10, 10), leaves(17, 10, 16)), (76, 80));
        assert_eq!(select(17, 10), 76);
    }

    /// One wire's bits over `inputs` 0-1 inputs: bit `x` is the wire's value in
    /// input `x`.
    fn lane(inputs: usize, bit: impl Fn(usize) -> bool) -> Vec<u64> {
        let mut lane = vec![0; inputs.div_ceil(64)];
        (0..inputs)
            .filter(|&x| bit(x))
            .for_each(|x| lane[x / 64] |= 1 << (x % 64));
        lane
    }

    /// Run a materialised network over bit-sliced 0-1 inputs — a comparator is an
    /// AND and an OR — and read its output wires.
    fn run_lanes(
        (pairs, outputs): &(Vec<(usize, usize)>, Vec<usize>),
        mut wires: Vec<Vec<u64>>,
    ) -> Vec<Vec<u64>> {
        use std::mem::take;
        for &(lo, hi) in pairs {
            let (mut min, mut max) = (take(&mut wires[lo]), take(&mut wires[hi]));
            for (a, b) in min.iter_mut().zip(&mut max) {
                (*a, *b) = (*a & *b, *a | *b);
            }
            (wires[lo], wires[hi]) = (min, max);
        }
        outputs.iter().map(|&wire| take(&mut wires[wire])).collect()
    }

    #[test]
    fn selection_keeps_the_first_values_of_every_01_input() {
        // The 0-1 principle holds for selection networks: a network that leaves the
        // first min(k, n) values of the sorted input, ascending, on its output
        // wires for every 0-1 input does so for every input. Bit-sliced — bit `x`
        // of wire `i` is bit `i` of input `x` — so that n reaches 20, where leaves
        // longer than `k` are picked.
        for n in 0..=20usize {
            let wires: Vec<Vec<u64>> = (0..n).map(|i| lane(1 << n, |x| x >> i & 1 == 1)).collect();
            // Output j of the sorted input is 1 iff the input has at least n − j ones.
            let sorted: Vec<Vec<u64>> = (0..n)
                .map(|j| lane(1 << n, |x| x.count_ones() as usize >= n - j))
                .collect();
            for k in 0..=n + 1 {
                let got = run_lanes(&Network::select(n, k).pairs(), wires.clone());
                assert!(got[..] == sorted[..k.min(n)], "n={n} k={k}");
            }
        }
    }

    /// The pruned merge is the bitonic merge of what it keeps with nothing dead:
    /// over every two-run shape to 40 + 40 and every kept count, its comparators
    /// are those of the full merge of the runs' heads (a run longer than `keep`
    /// enters as its first `keep` wires), in order, that feed one of that merge's
    /// first `keep` output wires — the rest are exactly the dead ones — and on every
    /// 0-1 run pair its kept wires hold the sorted input's first `keep` values.
    #[test]
    fn pruned_merge_is_the_full_merge_less_its_dead_comparators() {
        for (a, b) in (0..=40usize).flat_map(|a| (0..=40usize).map(move |b| (a, b))) {
            // Input x has za = x / (b + 1) zeros in A and zb = x % (b + 1) in B.
            let inputs = (a + 1) * (b + 1);
            let zeros = |x: usize| (x / (b + 1), x % (b + 1));
            let wires: Vec<Vec<u64>> = (0..a + b)
                .map(|w| {
                    lane(inputs, |x| match zeros(x) {
                        (za, _) if w < a => w >= za,
                        (_, zb) => w - a >= zb,
                    })
                })
                .collect();
            let sorted: Vec<Vec<u64>> = (0..a + b)
                .map(|j| lane(inputs, |x| j >= zeros(x).0 + zeros(x).1))
                .collect();
            let runs = [a, b];
            for keep in 0..=a + b + 1 {
                let network = Network::merge(&runs, keep);
                let pruned = network.pairs();
                assert_eq!(
                    network.count(),
                    pruned.0.len() as u64,
                    "{a}+{b} keep {keep}"
                );
                assert_eq!(dead_comparators(&pruned), 0, "{a}+{b} keep {keep}");

                let heads = [a.min(keep), b.min(keep)];
                let on_runs = |w: usize| if w < heads[0] { w } else { w - heads[0] + a };
                let (full, mut outputs) = Network::merge(&heads, usize::MAX).pairs();
                outputs.truncate(keep);
                let live = live_comparators(&full, &outputs);
                let kept = full.iter().zip(live).filter(|(_, live)| *live);
                let kept: Vec<_> = kept
                    .map(|(&(lo, hi), _)| (on_runs(lo), on_runs(hi)))
                    .collect();
                assert_eq!(pruned.0, kept, "{a}+{b} keep {keep}");
                let outputs: Vec<usize> = outputs.into_iter().map(on_runs).collect();
                assert_eq!(pruned.1, outputs, "{a}+{b} keep {keep}");

                let got = run_lanes(&pruned, wires.clone());
                assert!(got[..] == sorted[..keep.min(a + b)], "{a}+{b} keep {keep}");
            }
        }
        // The secure cache's cascade on CPDB (R = 176) and TPC-ds (R = 88): the
        // candidates of the last read merged with a sealed tail of `sz + R` rows.
        for (runs, keep, pruned, full) in
            [([176, 205], 205, 1_036, 1_578), ([88, 115], 115, 507, 743)]
        {
            assert_eq!(Network::merge(&runs, keep).count(), pruned, "{runs:?}");
            assert_eq!(Network::merge(&runs, usize::MAX).count(), full, "{runs:?}");
        }
    }

    /// A backward liveness walk: the comparators of `pairs` that feed none of the
    /// `outputs` wires.
    fn dead_comparators((pairs, outputs): &(Vec<(usize, usize)>, Vec<usize>)) -> usize {
        let live = live_comparators(pairs, outputs);
        live.into_iter().filter(|&live| !live).count()
    }

    /// Whether each comparator of `pairs` feeds one of the `outputs` wires.
    fn live_comparators(pairs: &[(usize, usize)], outputs: &[usize]) -> Vec<bool> {
        let ends = pairs.iter().flat_map(|&(lo, hi)| [lo, hi]);
        let wires = ends
            .chain(outputs.iter().copied())
            .max()
            .map_or(0, |w| w + 1);
        let mut live = vec![false; wires];
        outputs.iter().for_each(|&wire| live[wire] = true);
        let mut feeds: Vec<bool> = pairs
            .iter()
            .rev()
            .map(|&(lo, hi)| {
                let feeds = live[lo] || live[hi];
                (live[lo], live[hi]) = (feeds, feeds);
                feeds
            })
            .collect();
        feeds.reverse();
        feeds
    }

    /// The record-at-a-time sort loop — one recovered comparison and one whole-record
    /// swap per comparator of the materialised network — kept as the reference
    /// implementation the engine is held to below.
    fn reference_aos_sort(array: &mut SharedArrayPair, order: SortOrder, meter: &mut CostMeter) {
        let n = array.len();
        if Network::sort(n).charge(array.arity().unwrap_or(1) as u64 + 1, meter) == 0 {
            return;
        }
        let key = |rec: &PlainRecord| {
            let dummy_rank = u64::from(!rec.is_view);
            let value = rec.fields.first().copied().unwrap_or(u32::MAX);
            match order {
                SortOrder::Ascending => (dummy_rank << 32) | u64::from(value),
                SortOrder::Descending if rec.is_view => u64::from(value),
                SortOrder::Descending => 0,
            }
        };
        let entries = array.entries_mut();
        for (lo, hi) in batcher_pairs(n) {
            let key_lo = key(&entries[lo].recover());
            let key_hi = key(&entries[hi].recover());
            let out_of_order = match order {
                SortOrder::Ascending => key_lo > key_hi,
                SortOrder::Descending => key_lo < key_hi,
            };
            if out_of_order {
                entries.swap(lo, hi);
            }
        }
    }

    #[test]
    fn soa_sort_equals_aos_sort_on_edges() {
        for (values, dummies) in [(vec![], 0usize), (vec![7], 0), (vec![], 1), (vec![3, 3], 2)] {
            for order in [SortOrder::Ascending, SortOrder::Descending] {
                assert_soa_equals_aos(&values, dummies, order);
            }
        }
    }

    /// Same share words out (not just same plaintext), same meter deltas. Neither
    /// implementation draws randomness, so rng consumption is trivially identical
    /// as well.
    fn assert_soa_equals_aos(values: &[u32], dummies: usize, order: SortOrder) {
        let mut soa = share_values(values, dummies);
        let mut aos = soa.clone();
        let (mut m_soa, mut m_aos) = (CostMeter::new(), CostMeter::new());
        oblivious_sort_by_field(&mut soa, 0, order, &mut m_soa);
        reference_aos_sort(&mut aos, order, &mut m_aos);
        assert_eq!(soa, aos, "{values:?} + {dummies} dummies {order:?}");
        assert_eq!(m_soa.report(), m_aos.report());
    }

    /// Sort `n` seeded records through the block engine and through the
    /// comparator-at-a-time reference; shares are random, so equal arrays mean
    /// equal permutations. `binary` draws duplicate-heavy 0/1 keys (with dummies
    /// mixed in), otherwise full-width values for random 33-bit keys.
    fn assert_engine_equals_comparator_walk(n: usize, seed: u64, order: SortOrder, binary: bool) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<PlainRecord> = (0..n)
            .map(|_| PlainRecord {
                fields: vec![if binary {
                    rng.gen_range(0..2)
                } else {
                    rng.gen()
                }],
                is_view: rng.gen_range(0..4u32) != 0,
            })
            .collect();
        let mut engine = SharedArrayPair::share_records(&records, &mut rng);
        let mut walk = engine.clone();
        let (mut m_engine, mut m_walk) = (CostMeter::new(), CostMeter::new());
        oblivious_sort_by_field(&mut engine, 0, order, &mut m_engine);
        reference_aos_sort(&mut walk, order, &mut m_walk);
        assert_eq!(engine, walk, "n={n} seed={seed} {order:?} binary={binary}");
        assert_eq!(m_engine.report(), m_walk.report());
    }

    #[test]
    fn block_engine_equals_comparator_walk_at_every_length() {
        for n in (0..=300usize).chain([1000, 4096, 5000]) {
            for order in [SortOrder::Ascending, SortOrder::Descending] {
                for binary in [true, false] {
                    assert_engine_equals_comparator_walk(n, n as u64, order, binary);
                }
            }
        }
    }

    /// Every split of every length to 300.
    fn small_splits() -> impl Iterator<Item = (usize, usize)> {
        (0..=300usize).flat_map(|n| (0..=n).map(move |split| (n, split)))
    }

    /// A few splits of three lengths off and on a power of two.
    fn large_splits() -> impl Iterator<Item = (usize, usize)> {
        [1000usize, 4096, 5000]
            .into_iter()
            .flat_map(|n| [0, 1, n / 64, n / 2, n - n / 64, n - 1, n].map(|split| (n, split)))
    }

    /// Adjacent real-first runs of the given lengths, `reals[r]` real rows heading
    /// run `r`, with fresh shares per row.
    fn runs_of(lens: &[usize], reals: &[usize]) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(lens.iter().fold(7, |h, &l| h * 31 + l as u64));
        let rows: Vec<PlainRecord> = lens
            .iter()
            .zip(reals)
            .flat_map(|(&len, &real)| {
                (0..len).map(move |i| PlainRecord {
                    fields: vec![i as u32],
                    is_view: i < real,
                })
            })
            .collect();
        SharedArrayPair::share_records(&rows, &mut rng)
    }

    /// The host arrangement of a merge of real-first runs against the network it is
    /// charged as, `Network::merge(lens, keep)`: the kept wires — every run read head
    /// first — hold the flags of the arranged array's first `keep` rows, and the
    /// reals come out first, in input order. The charge is that network's.
    fn assert_partition_keeps_the_merge_flags(lens: &[usize], reals: &[usize], keep: usize) {
        let mut merged = runs_of(lens, reals);
        let before = merged.recover_all();
        let network = Network::merge(lens, keep);
        let mut meter = CostMeter::new();
        network.charge_flag_keyed(3, &mut meter);
        crate::compact::partition_by_is_view(&mut merged);

        let after = merged.recover_all();
        let real: Vec<&PlainRecord> = before.iter().filter(|r| r.is_view).collect();
        assert!(
            after[..real.len()].iter().eq(real.iter().copied()),
            "lens={lens:?}: reals in order"
        );
        assert!(
            after[real.len()..].iter().all(|r| !r.is_view),
            "lens={lens:?}"
        );
        let pruned = network.pairs();
        let mut flags: Vec<u64> = before.iter().map(|r| u64::from(!r.is_view)).collect();
        let kept = run_selection(&pruned, &mut flags);
        let head = after[..kept.len()].iter().map(|r| u64::from(!r.is_view));
        assert!(head.eq(kept), "lens={lens:?} keep={keep}");
        // Three payload words a comparator, whatever the rows' own width; the
        // network is one circuit, its round charged when the meter closes it.
        let (report, comparators) = (meter.take(), pruned.0.len() as u64);
        let gates = (
            report.secure_compares,
            report.secure_ands,
            report.secure_swaps,
        );
        assert_eq!(gates, (0, comparators, 3 * comparators));
        assert_eq!(report.rounds, u64::from(comparators > 0));
    }

    #[test]
    fn merge_operator_equals_comparator_walk_at_every_length_and_split() {
        for (n, split) in small_splits() {
            // Real counts sweep with the split, so all-real, all-dummy and mixed
            // runs meet on either side.
            let reals = [split * (n % 4) / 3, (n - split) * (split % 4) / 3];
            for keep in [usize::MAX, (n + 3 * split) % (n + 2)] {
                assert_partition_keeps_the_merge_flags(&[split, n - split], &reals, keep);
            }
        }
        for (n, split) in large_splits() {
            let reals = [split / 3, (n - split) / 2];
            for keep in [usize::MAX, n / 3] {
                assert_partition_keeps_the_merge_flags(&[split, n - split], &reals, keep);
            }
        }
    }

    #[test]
    fn tournament_at_5000_equals_the_comparator_walk() {
        // The candidate read's shape: the heads of a cache's runs, one per run,
        // some short, some all real, merged in one tournament, whole and pruned to
        // the rows a read keeps.
        let lens = [1200, 5, 1200, 900, 1, 1694];
        let reals = [1200, 2, 300, 0, 1, 847];
        for keep in [usize::MAX, 1500] {
            assert_partition_keeps_the_merge_flags(&lens, &reals, keep);
        }
    }

    #[test]
    fn one_and_flag_circuit_equals_the_packed_compare_exchange() {
        // `isView` flags `a`, `b` on the low and high wire, four payload words each in
        // `x`, `y`: the circuit `Network::charge_flag_keyed` prices against the kernel
        // comparator on the dummy-rank key, read back through the position bits.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0xF1A6);
        for (a, b) in [(0u32, 0), (0, 1), (1, 0), (1, 1)] {
            for _ in 0..16 {
                let (x, y): (u128, u128) = (rng.gen(), rng.gen());
                let t = a & b;
                let delta = u128::from(b ^ t).wrapping_neg() & (x ^ y);
                let circuit = [(a ^ b ^ t, x ^ delta), (t, y ^ delta)];
                let mut lo = u64::from(a == 0) << INDEX_BITS;
                let mut hi = u64::from(b == 0) << INDEX_BITS | 1;
                compare_exchange(&mut lo, &mut hi);
                let slot = |word: u64| [(a, x), (b, y)][(word & INDEX_MASK) as usize];
                assert_eq!(circuit, [slot(lo), slot(hi)], "a={a} b={b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 34 bits")]
    fn key_wider_than_the_packed_word_is_rejected() {
        // The shift would drop the key's top bit and alias it with key 0.
        let arr = share_values(&[1, 2, 3], 0);
        network_permutation(&arr, SortOrder::Ascending, |_| MAX_SORT_KEY + 1);
    }

    #[test]
    fn sort_by_field_ascending_and_descending() {
        let mut meter = CostMeter::new();
        for (order, expect) in [
            (SortOrder::Ascending, [1, 3, 5, 7, 9]),
            (SortOrder::Descending, [9, 7, 5, 3, 1]),
        ] {
            let mut arr = share_values(&[5, 1, 9, 3, 7], 0);
            oblivious_sort_by_field(&mut arr, 0, order, &mut meter);
            let keys: Vec<u32> = arr.recover_all().iter().map(|r| r.fields[0]).collect();
            assert_eq!(keys, expect);
        }
        assert!(meter.report().secure_compares > 0);
        assert!(meter.report().secure_swaps > 0);
    }

    #[test]
    fn dummies_sink_to_tail_in_both_directions() {
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let mut meter = CostMeter::new();
            let mut arr = share_values(&[4, 2, 8], 3);
            oblivious_sort_by_field(&mut arr, 0, order, &mut meter);
            let plain = arr.recover_all();
            assert!(plain[..3].iter().all(|r| r.is_view));
            assert!(plain[3..].iter().all(|r| !r.is_view));
        }
    }

    /// What sorting these values ascending charges.
    fn sort_cost(values: &[u32]) -> incshrink_mpc::cost::CostReport {
        let mut meter = CostMeter::new();
        let mut array = share_values(values, 0);
        oblivious_sort_by_field(&mut array, 0, SortOrder::Ascending, &mut meter);
        meter.report()
    }

    #[test]
    fn cost_depends_only_on_length() {
        // Two arrays of equal length but very different contents must cost the same.
        let (a, b) = ([1, 2, 3, 4, 5, 6, 7, 8], [8, 8, 8, 8, 1, 1, 1, 1]);
        assert_eq!(sort_cost(&a), sort_cost(&b));
    }

    #[test]
    fn empty_and_singleton_are_noops() {
        assert!(sort_cost(&[]).is_empty());
        assert!(sort_cost(&[9]).is_empty());
        let mut single = share_values(&[9], 0);
        oblivious_sort_by_field(&mut single, 0, SortOrder::Ascending, &mut CostMeter::new());
        assert_eq!(single.recover_all()[0].fields[0], 9);
    }

    proptest! {
        #[test]
        fn prop_sort_matches_std_sort(values in proptest::collection::vec(any::<u32>(), 0..64)) {
            let mut meter = CostMeter::new();
            let mut arr = share_values(&values, 0);
            oblivious_sort_by_field(&mut arr, 0, SortOrder::Ascending, &mut meter);
            let got: Vec<u32> = arr.recover_all().iter().map(|r| r.fields[0]).collect();
            let mut expect = values.clone();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn prop_soa_sort_extensionally_equals_aos_sort(
            values in proptest::collection::vec(any::<u32>(), 0..48),
            dummies in 0usize..6,
            descending: bool,
        ) {
            let order = if descending { SortOrder::Descending } else { SortOrder::Ascending };
            assert_soa_equals_aos(&values, dummies, order);
        }

        #[test]
        fn prop_block_engine_equals_comparator_walk(
            n in 0usize..=300,
            seed: u64,
            descending: bool,
            binary: bool,
        ) {
            let order = if descending { SortOrder::Descending } else { SortOrder::Ascending };
            assert_engine_equals_comparator_walk(n, seed, order, binary);
        }

        #[test]
        fn prop_bitonic_merge_equals_batcher_sort(
            run_a in proptest::collection::vec(any::<u32>(), 0..40),
            run_b in proptest::collection::vec(any::<u32>(), 0..40),
        ) {
            let mut a = run_a;
            let mut b = run_b;
            a.sort_unstable();
            b.sort_unstable();
            let network = Network::merge(&[a.len(), b.len()], usize::MAX).pairs();
            let mut input = a;
            input.extend_from_slice(&b);
            let batcher = run_selection(&Network::sort(input.len()).pairs(), &mut input.clone());
            let merged = run_selection(&network, &mut input);
            prop_assert_eq!(merged, batcher);
        }

        /// Distinct `(¬isView, position)` keys — the order the delta sort-merge
        /// join's compaction keeps — so the output wires must hold exactly the
        /// first `k` real positions, then the first dummies.
        #[test]
        fn prop_selection_keeps_the_first_real_positions(
            is_view in proptest::collection::vec(any::<bool>(), 0..301),
            k in 0usize..=320,
        ) {
            let mut keys: Vec<(bool, usize)> = is_view.iter().map(|&real| !real).zip(0..).collect();
            let mut expect = keys.clone();
            expect.sort_unstable();
            expect.truncate(k);
            let network = Network::select(keys.len(), k).pairs();
            prop_assert_eq!(run_selection(&network, &mut keys), expect);
        }

        /// The one generator over random blocks, sortedness and keep sizes: the
        /// count is the materialised network's and at most the Batcher sort's; the
        /// kept wires hold the smallest keys of every 0-1 input, as the unpruned
        /// network's do; a tournament with no block longer than it keeps carries no
        /// comparator that feeds no kept wire; over sorted runs, the host
        /// arrangement leaves its kept flags.
        #[test]
        fn prop_network_generator_counts_keeps_and_prunes(
            lens in proptest::collection::vec(0usize..24, 0..9),
            sorted: bool,
            keep in 0usize..100,
            seed: u64,
        ) {
            use rand::Rng;
            let n: usize = lens.iter().sum();
            let network = Network::new(Blocks::Runs(&lens), sorted, keep);
            let full = Network::new(Blocks::Runs(&lens), sorted, n);
            for net in [network, full, Network::select(n, keep)] {
                let materialised = net.pairs();
                prop_assert_eq!(net.count(), materialised.0.len() as u64);
                prop_assert!(net.count() <= batcher_pair_count(n));
                prop_assert_eq!(materialised.1.len(), net.keep.min(n));
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let mut keys: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2)).collect();
            // Zeros per sorted run: the real rows heading it.
            let mut reals = Vec::new();
            if sorted {
                let mut start = 0;
                for &len in &lens {
                    keys[start..start + len].sort_unstable();
                    reals.push(keys[start..start + len].iter().filter(|&&key| key == 0).count());
                    start += len;
                }
            }
            let mut expect = keys.clone();
            expect.sort_unstable();
            expect.truncate(keep);
            let pairs = network.pairs();
            prop_assert_eq!(run_selection(&pairs, &mut keys.clone()), expect.clone());
            let mut unpruned = run_selection(&full.pairs(), &mut keys);
            unpruned.truncate(keep);
            prop_assert_eq!(unpruned, expect);
            if network.tournament && (sorted || lens.iter().all(|&len| len <= keep)) {
                prop_assert_eq!(dead_comparators(&pairs), 0);
            }
            if sorted {
                assert_partition_keeps_the_merge_flags(&lens, &reals, keep);
            }
        }

        #[test]
        fn prop_network_size_is_data_independent(
            a in proptest::collection::vec(any::<u32>(), 2..40),
            seed: u64,
        ) {
            use rand::seq::SliceRandom;
            // Deterministic permutation based on seed.
            let mut shuffled = a.clone();
            shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(sort_cost(&a), sort_cost(&shuffled));
        }
    }
}
