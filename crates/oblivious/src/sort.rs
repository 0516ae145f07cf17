//! Oblivious sorting, merging and selection networks.
//!
//! The comparison/swap schedule of a sorting network depends only on the input
//! *length*, never on the data, which is what makes it oblivious: executed inside a
//! 2PC, the servers learn nothing beyond the (public) array size. The paper uses
//! sorting networks for the truncated joins (Algorithm 4's per-outer buffers,
//! Example 5.1's union sort and compaction) and the cache read of the Shrink
//! protocols (Figure 3, `ObliSort(σ, key = isView)`).
//!
//! Every network here is one [`Network`] — blocks of public length, a tournament of
//! bitonic merges over their sorted lists, the wires the caller keeps — in one of
//! three cases:
//!
//! * [`Network::sort`] — Batcher's odd-even merge sort, generated for arbitrary
//!   lengths by padding to the next power of two with `+∞` keys and dropping the
//!   comparators that touch the padding; [`batcher_pair_count`] prices it.
//! * [`Network::merge`] — sorted runs folded into one. The secure cache executes it
//!   with [`oblivious_merge_by_is_view`] for its run merges and its candidate read.
//! * [`Network::select`] — the top-`k` selection both truncated joins are priced
//!   with, since each sorts an array only to keep its head.
//!
//! The networks execute as a **blocked, packed-word kernel**: each record's key is
//! extracted once and packed with the record's position into one `u64`
//! (`key << 30 | position`); the comparators run branch-free over that single lane,
//! one slice kernel per stage, and the record shares move through the position bits
//! in one final pass. Swap decisions depend only on the key bits, so the arrangement
//! — and the cost, charged from the public lengths — is bit-identical to swapping
//! whole records at every comparator.

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
/// Largest key a packed sort word can carry (34 bits). Every sort in the tree fits:
/// `isView` needs 1 bit, [`oblivious_sort_by_field`] 33, the sort-merge join's
/// `(isView, key, table tag)` union sort 34.
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
/// This is the primitive every join cost model in this crate is built on: the
/// comparator count is a *public* function of the (public) input length, so pricing a
/// network — or letting the join planner compare two candidate networks — leaks
/// nothing beyond what the array sizes already reveal. Cost-model callers invoke it
/// several times per Transform flush with arguments as large as the padded emission
/// (`bound · n`), so it must never pay a near-linear walk.
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
/// [`batcher_pair_count`] for every `n`. Kept next to the exact count so the two
/// Batcher formulas live in one crate.
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

    /// Merge adjacent sorted runs of these lengths into one, every wire kept.
    #[must_use]
    pub fn merge(runs: &'a [usize]) -> Self {
        Network::new(Blocks::Runs(runs), true, usize::MAX)
    }

    /// The top-`k` selection over `n` wires: Batcher-sorted blocks of `k`, the first
    /// `k` wires kept — the `k` smallest keys, ascending. `n − 1` comparators at
    /// `k = 1`, the sort of `n` wires once `k ≥ n`.
    #[must_use]
    pub fn select(n: usize, k: usize) -> Network<'static> {
        Network::new(Blocks::Even { n, len: k.max(1) }, false, k)
    }

    /// The network planned, without materialising it: the tournament's
    /// comparators, or the Batcher sort's where those are no more. The join planner
    /// plans both candidates on every shape its memo has not seen, hence no
    /// allocation, and the tally's memo: without it a planner miss walks every
    /// block, ~100× slower at an emission of 10 × 5 000 wires.
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
            let sort = batcher_pair_count(n);
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

    /// Charge the network over `width`-word records without executing it: one secure
    /// comparison and one record-wide swap per comparator, one round; nothing when
    /// there is no comparator. A valley reversal relabels wires — each server
    /// reverses its own shares — so it costs no gate, although the host kernel moves
    /// the words. The single place a network's price is defined: the physical sorts
    /// and merges here, the shuffle operator's permutation, and callers that must
    /// permute side-band metadata alongside the shares (the cluster's
    /// destination-side compaction) all charge through it. Returns the comparators.
    pub fn charge(&self, width: u64, meter: &mut CostMeter) -> u64 {
        if self.comparators > 0 {
            meter.compares(self.comparators);
            meter.swaps(self.comparators, width);
            meter.round();
        }
        self.comparators
    }

    /// Run the network over packed sort words, one per wire. Every wire must be
    /// kept: the kernel merges whole runs in place.
    fn run(&self, words: &mut [u64]) {
        debug_assert!(self.keep >= words.len() && self.wires() == words.len());
        if self.tournament {
            self.run_subtree(words, 0, self.blocks.count());
        } else {
            run_sort_network(words);
        }
    }

    fn run_subtree(&self, words: &mut [u64], first: usize, count: usize) {
        if count == 1 {
            if !self.sorted {
                run_sort_network(words);
            }
            return;
        }
        let half = split_point(count);
        let (a, b) = words.split_at_mut(self.blocks.wires(first, half));
        self.run_subtree(a, first, half);
        self.run_subtree(b, first + half, count - half);
        if !a.is_empty() && !b.is_empty() {
            a.reverse();
            run_bitonic_merge(words);
        }
    }

    /// The materialised network: compare-exchange pairs in execution order — each
    /// leaves the smaller key on its first wire — and the kept output wires, whose
    /// keys end ascending. The reference the count and the kernels are held to.
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

/// Comparators of [`Network::merge`] over two non-empty runs of `n` wires in all:
/// the bitonic cleaner's count depends on `n` alone, never on the split.
#[must_use]
pub fn bitonic_merge_pair_count(n: usize) -> u64 {
    Network::merge(&[n / 2, n - n / 2]).count()
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

/// Run the bitonic cleaner over packed sort words in valley form — the same
/// comparators in the same order as a [`Network::merge`] node keeping every wire. Stage
/// `k` compares `(l, l + k)` for `l mod 2k < k`: the first `k` words of every `2k`
/// group against the rest of it, the last group cut short by the array end exactly
/// where the `+∞` padding rule drops comparators.
fn run_bitonic_merge(words: &mut [u64]) {
    let mut k = words.len().next_power_of_two() / 2;
    while k >= 1 {
        exchange_stride(words, k);
        k /= 2;
    }
}

/// The permutation `network` applies to `array`'s packed sort words: position `j`
/// of the result names the record that ends there.
///
/// Each record becomes one word `key << 30 | position` — `key_fn` receives the
/// record's share pair and reconstructs only the words its key is made of
/// (reconstruction happens *inside* the simulated MPC, mirroring how a
/// garbled-circuit comparator sees the joint value without either party learning
/// it); a descending order complements the key, so ties stay ties. `network` runs
/// over that single `u64` lane, and the caller moves the record shares through the
/// surviving position bits in one final pass. Swap decisions depend on the key bits
/// only, so the arrangement is the one swapping whole records at every comparator
/// of the network produces.
///
/// # Panics
/// Panics when a key exceeds [`MAX_SORT_KEY`] or the array has more than 2³⁰
/// entries — either would spill into the other half of the packed word.
fn network_permutation<F>(
    array: &SharedArrayPair,
    order: SortOrder,
    key_fn: F,
    network: impl FnOnce(&mut [u64]),
) -> Vec<usize>
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
    network(&mut words);
    words
        .into_iter()
        .map(|w| (w & INDEX_MASK) as usize)
        .collect()
}

/// Oblivious sort of `array` by the key `key_fn` extracts from each record:
/// [`Network::sort`] over the packed words of
/// [`network_permutation`]. One secure comparison and one record-wide oblivious swap per
/// comparator, one round, charged up front from the (public) length.
pub(crate) fn oblivious_sort_by_key<F>(
    array: &mut SharedArrayPair,
    order: SortOrder,
    meter: &mut CostMeter,
    key_fn: F,
) where
    F: Fn(&SharedRecordPair) -> u64,
{
    if array.len() < 2 {
        return;
    }
    Network::sort(array.len()).charge(array.arity().unwrap_or(1) as u64 + 1, meter);
    let perm = network_permutation(array, order, key_fn, run_sort_network);
    array.permute_gather(&perm);
}

/// The `isView` sort key: real tuples (0) before dummies (1) when ascending.
fn dummy_rank(rec: &SharedRecordPair) -> u64 {
    u64::from(rec.is_view.recover() == 0)
}

/// Oblivious sort by a single attribute column (ascending or descending). Dummy
/// records (`isView = 0`) are ordered after real records for ascending sorts and are
/// given the maximum key, so they collect at the tail.
pub fn oblivious_sort_by_field(
    array: &mut SharedArrayPair,
    field: usize,
    order: SortOrder,
    meter: &mut CostMeter,
) {
    oblivious_sort_by_key(array, order, meter, |rec| {
        let dummy = rec.is_view.recover() == 0;
        let value = rec.fields.get(field).map_or(u32::MAX, |w| w.recover());
        // Dummies always sink to the tail regardless of direction.
        match order {
            SortOrder::Ascending => (u64::from(dummy) << 32) | u64::from(value),
            SortOrder::Descending if dummy => 0,
            SortOrder::Descending => u64::from(value),
        }
    });
}

/// Oblivious sort by the `isView` bit so that all real tuples precede all dummies —
/// the first step of the Shrink cache read (`ObliSort(σ, key = isView)`).
pub fn oblivious_sort_by_is_view(array: &mut SharedArrayPair, meter: &mut CostMeter) {
    oblivious_sort_by_key(array, SortOrder::Ascending, meter, dummy_rank);
}

/// The merge-only operator: adjacent `isView`-ordered runs of the given lengths
/// become one.
///
/// Each run must be in `isView` order already — `Ascending`: real tuples first, as
/// [`oblivious_sort_by_is_view`] leaves them; `Descending`: the same order read back
/// to front, which is how the secure cache keeps its runs — and the whole array
/// comes out in that order. No sort runs: [`Network::merge`] executes on the packed
/// words and is charged by [`Network::charge`], a single run nothing. The records
/// are rearranged in place ([`SharedArrayPair::permute_in_place`]): between ordered
/// runs most rows keep their place, and a copy of a large run made the cost of a
/// merge depend on the state of the allocator.
///
/// # Panics
/// Panics when the run lengths do not add up to the array length.
pub fn oblivious_merge_by_is_view(
    array: &mut SharedArrayPair,
    runs: &[usize],
    order: SortOrder,
    meter: &mut CostMeter,
) {
    let network = Network::merge(runs);
    assert_eq!(network.wires(), array.len(), "runs must tile the array");
    if network.charge(array.arity().unwrap_or(1) as u64 + 1, meter) == 0 {
        return;
    }
    let mut perm = network_permutation(array, order, dummy_rank, |words| network.run(words));
    array.permute_in_place(&mut perm);
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
            // Apply the network to a worst-case (reverse sorted) plain array.
            let mut data: Vec<usize> = (0..n).rev().collect();
            for (lo, hi) in &pairs {
                assert!(lo < hi && *hi < n);
                if data[*lo] > data[*hi] {
                    data.swap(*lo, *hi);
                }
            }
            let expect: Vec<usize> = (0..n).collect();
            assert_eq!(data, expect, "network failed for n={n}");
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
                let merge = Network::merge(&runs);
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
                let network = Network::merge(&[a, n - a]).pairs();
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
        for n in 0..=2000usize {
            let sort = batcher_pair_count(n);
            assert_eq!(Network::sort(n).count(), sort, "n={n}");
            assert_eq!(select(n, 1), n.saturating_sub(1) as u64, "n={n}");
            for k in [1usize, 2, 3, 7, 10, 16, 64, 100, n / 3, n / 2] {
                assert!(select(n, k) <= sort, "n={n} k={k}");
            }
            for k in [n, n + 1, 2 * n + 5] {
                assert_eq!(select(n, k), sort, "n={n} k={k}");
            }
        }
        // The per-outer buffers of the benchmark windows (TPC-ds 63 rows at ω = 1,
        // CPDB 110 at ω = 10), a 7-of-70 emission and a 10-of-100 buffer.
        assert_eq!(select(63, 1), 62);
        assert_eq!(batcher_pair_count(63), 537);
        assert_eq!(select(110, 10), 662);
        assert_eq!(batcher_pair_count(110), 1243);
        assert_eq!(select(70, 7), 322);
        assert_eq!(batcher_pair_count(70), 731);
        assert_eq!(select(100, 10), 599);
    }

    #[test]
    fn selection_keeps_the_first_values_of_every_01_input() {
        // The 0-1 principle holds for selection networks: a network that leaves the
        // first min(k, n) values of the sorted input, ascending, on its output
        // wires for every 0-1 input does so for every input.
        for n in 0..=12usize {
            for k in 0..=n + 1 {
                let network = Network::select(n, k).pairs();
                for bits in 0u32..1 << n {
                    let mut keys: Vec<u8> = (0..n).map(|i| (bits >> i & 1) as u8).collect();
                    let mut expect = keys.clone();
                    expect.sort_unstable();
                    expect.truncate(k);
                    let got = run_selection(&network, &mut keys);
                    assert_eq!(got, expect, "n={n} k={k} bits={bits:b}");
                }
            }
        }
    }

    /// A backward liveness walk: the comparators of `pairs` that feed none of the
    /// `outputs` wires.
    fn dead_comparators((pairs, outputs): &(Vec<(usize, usize)>, Vec<usize>)) -> usize {
        let mut live: std::collections::HashSet<usize> = outputs.iter().copied().collect();
        let mut dead = 0;
        for &(lo, hi) in pairs.iter().rev() {
            if live.contains(&lo) || live.contains(&hi) {
                live.extend([lo, hi]);
            } else {
                dead += 1;
            }
        }
        dead
    }

    /// The record-at-a-time sort loop — one recovered comparison and one whole-record
    /// swap per comparator of the materialised network — kept as the reference
    /// implementation the engine is held to below.
    fn reference_aos_sort(array: &mut SharedArrayPair, order: SortOrder, meter: &mut CostMeter) {
        let n = array.len();
        if n < 2 {
            return;
        }
        Network::sort(n).charge(array.arity().unwrap_or(1) as u64 + 1, meter);
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
                let mut soa = share_values(&values, dummies);
                let mut aos = soa.clone();
                let (mut m_soa, mut m_aos) = (CostMeter::new(), CostMeter::new());
                oblivious_sort_by_field(&mut soa, 0, order, &mut m_soa);
                reference_aos_sort(&mut aos, order, &mut m_aos);
                assert_eq!(soa, aos);
                assert_eq!(m_soa.report(), m_aos.report());
            }
        }
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

    /// Seeded keys in ascending runs of the given lengths, as packed words whose
    /// positions make every word distinct: through the executed network and through
    /// its materialised pairs one comparator at a time, read back through the output
    /// wires. Equal vectors mean equal permutations.
    fn assert_merge_kernel_equals_comparator_walk(runs: &[usize], seed: u64, binary: bool) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys = Vec::new();
        for &len in runs {
            let mut run: Vec<u64> = (0..len)
                .map(|_| {
                    if binary {
                        rng.gen_range(0..2)
                    } else {
                        rng.gen::<u64>() >> 31
                    }
                })
                .collect();
            run.sort_unstable();
            keys.extend(run);
        }
        let mut walk: Vec<u64> = (0u64..)
            .zip(&keys)
            .map(|(at, key)| key << INDEX_BITS | at)
            .collect();
        let mut kernel = walk.clone();
        let network = Network::merge(runs);
        network.run(&mut kernel);
        let (pairs, outputs) = network.pairs();
        for (lo, hi) in pairs {
            if walk[lo] >> INDEX_BITS > walk[hi] >> INDEX_BITS {
                walk.swap(lo, hi);
            }
        }
        let walked: Vec<u64> = outputs.iter().map(|&wire| walk[wire]).collect();
        assert_eq!(kernel, walked, "runs={runs:?} binary={binary}");
        keys.sort_unstable();
        assert!(
            kernel.iter().map(|w| w >> INDEX_BITS).eq(keys),
            "runs={runs:?}: not merged"
        );
    }

    /// Every split of every length to 300, then a few of three lengths off and on
    /// a power of two.
    fn splits() -> impl Iterator<Item = (usize, usize)> {
        small_splits().chain(large_splits())
    }

    fn small_splits() -> impl Iterator<Item = (usize, usize)> {
        (0..=300usize).flat_map(|n| (0..=n).map(move |split| (n, split)))
    }

    fn large_splits() -> impl Iterator<Item = (usize, usize)> {
        [1000usize, 4096, 5000]
            .into_iter()
            .flat_map(|n| [0, 1, n / 64, n / 2, n - n / 64, n - 1, n].map(|split| (n, split)))
    }

    #[test]
    fn merge_kernel_equals_comparator_walk_at_every_length_and_split() {
        for binary in [true, false] {
            for (n, split) in splits() {
                assert_merge_kernel_equals_comparator_walk(&[split, n - split], n as u64, binary);
            }
        }
    }

    /// Adjacent `isView`-ordered runs of the given lengths, `reals[r]` real rows in
    /// run `r`, with fresh shares per row.
    fn runs_of(lens: &[usize], reals: &[usize], order: SortOrder) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(lens.iter().fold(7, |h, &l| h * 31 + l as u64));
        let mut rows = Vec::new();
        for (&len, &real) in lens.iter().zip(reals) {
            let mut run: Vec<PlainRecord> = (0..len)
                .map(|i| PlainRecord {
                    fields: vec![i as u32],
                    is_view: i < real,
                })
                .collect();
            if order == SortOrder::Descending {
                run.reverse();
            }
            rows.extend(run);
        }
        SharedArrayPair::share_records(&rows, &mut rng)
    }

    /// The merge-only operator against whole-entry swaps at every comparator of the
    /// materialised network, read back through its output wires; shares are random,
    /// so equal arrays mean equal permutations. The charge is the network's.
    fn assert_merge_operator_equals_comparator_walk(
        lens: &[usize],
        reals: &[usize],
        order: SortOrder,
    ) {
        let mut merged = runs_of(lens, reals, order);
        let mut entries = merged.entries().to_vec();
        let mut meter = CostMeter::new();
        oblivious_merge_by_is_view(&mut merged, lens, order, &mut meter);

        let rank = |rec: &SharedRecordPair| match order {
            SortOrder::Ascending => dummy_rank(rec),
            SortOrder::Descending => 1 - dummy_rank(rec),
        };
        let (pairs, outputs) = Network::merge(lens).pairs();
        for &(lo, hi) in &pairs {
            if rank(&entries[lo]) > rank(&entries[hi]) {
                entries.swap(lo, hi);
            }
        }
        let walked: Vec<_> = outputs.iter().map(|&wire| entries[wire].clone()).collect();
        assert_eq!(merged.entries(), walked, "lens={lens:?} {order:?}");
        assert!(
            merged
                .entries()
                .windows(2)
                .all(|w| rank(&w[0]) <= rank(&w[1])),
            "lens={lens:?} {order:?}: not merged"
        );
        let report = meter.report();
        assert_eq!(report.secure_compares, pairs.len() as u64);
        assert_eq!(report.secure_swaps, 2 * pairs.len() as u64);
        assert_eq!(report.rounds, u64::from(!pairs.is_empty()));
    }

    #[test]
    fn merge_operator_equals_comparator_walk_at_every_length_and_split() {
        for (n, split) in small_splits() {
            // Real counts sweep with the split, so all-real, all-dummy and mixed
            // runs meet on either side.
            let reals = [split * (n % 4) / 3, (n - split) * (split % 4) / 3];
            let order = [SortOrder::Ascending, SortOrder::Descending][(n + split) % 2];
            assert_merge_operator_equals_comparator_walk(&[split, n - split], &reals, order);
        }
        for (n, split) in large_splits() {
            for order in [SortOrder::Ascending, SortOrder::Descending] {
                let reals = [split / 3, (n - split) / 2];
                assert_merge_operator_equals_comparator_walk(&[split, n - split], &reals, order);
            }
        }
    }

    #[test]
    fn tournament_at_5000_equals_the_comparator_walk() {
        // The candidate read's shape: the heads of a cache's runs, one per run,
        // some short, some all real, merged in one tournament.
        let lens = [1200, 5, 1200, 900, 1, 1694];
        let reals = [1200, 2, 300, 0, 1, 847];
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            assert_merge_operator_equals_comparator_walk(&lens, &reals, order);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 34 bits")]
    fn key_wider_than_the_packed_word_is_rejected() {
        // The shift would drop the key's top bit and alias it with key 0.
        let mut arr = share_values(&[1, 2, 3], 0);
        oblivious_sort_by_key(
            &mut arr,
            SortOrder::Ascending,
            &mut CostMeter::new(),
            |_| MAX_SORT_KEY + 1,
        );
    }

    #[test]
    fn sort_by_field_ascending_and_descending() {
        let mut meter = CostMeter::new();
        let mut arr = share_values(&[5, 1, 9, 3, 7], 0);
        oblivious_sort_by_field(&mut arr, 0, SortOrder::Ascending, &mut meter);
        let keys: Vec<u32> = arr.recover_all().iter().map(|r| r.fields[0]).collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);

        let mut arr = share_values(&[5, 1, 9, 3, 7], 0);
        oblivious_sort_by_field(&mut arr, 0, SortOrder::Descending, &mut meter);
        let keys: Vec<u32> = arr.recover_all().iter().map(|r| r.fields[0]).collect();
        assert_eq!(keys, vec![9, 7, 5, 3, 1]);
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

    #[test]
    fn sort_by_is_view_moves_real_tuples_first() {
        let mut rng = StdRng::seed_from_u64(3);
        // Interleave dummies and real records.
        let mut records = Vec::new();
        for i in 0..10u32 {
            if i % 2 == 0 {
                records.push(PlainRecord::dummy(2));
            } else {
                records.push(PlainRecord::real(vec![i, i * 10]));
            }
        }
        let mut arr = SharedArrayPair::share_records(&records, &mut rng);
        let mut meter = CostMeter::new();
        oblivious_sort_by_is_view(&mut arr, &mut meter);
        let plain = arr.recover_all();
        assert!(plain[..5].iter().all(|r| r.is_view));
        assert!(plain[5..].iter().all(|r| !r.is_view));
    }

    #[test]
    fn cost_depends_only_on_length() {
        // Two arrays of equal length but very different contents must cost the same.
        let mut m1 = CostMeter::new();
        let mut a1 = share_values(&[1, 2, 3, 4, 5, 6, 7, 8], 0);
        oblivious_sort_by_field(&mut a1, 0, SortOrder::Ascending, &mut m1);

        let mut m2 = CostMeter::new();
        let mut a2 = share_values(&[8, 8, 8, 8, 1, 1, 1, 1], 0);
        oblivious_sort_by_field(&mut a2, 0, SortOrder::Ascending, &mut m2);

        assert_eq!(m1.report(), m2.report());
    }

    #[test]
    fn empty_and_singleton_are_noops() {
        let mut meter = CostMeter::new();
        let mut empty = share_values(&[], 0);
        oblivious_sort_by_field(&mut empty, 0, SortOrder::Ascending, &mut meter);
        assert!(meter.report().is_empty());

        let mut single = share_values(&[9], 0);
        oblivious_sort_by_field(&mut single, 0, SortOrder::Ascending, &mut meter);
        assert!(meter.report().is_empty());
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
            // Same share words out (not just same plaintext), same meter deltas.
            // Neither implementation draws randomness, so rng consumption is
            // trivially identical as well.
            let order = if descending { SortOrder::Descending } else { SortOrder::Ascending };
            let mut soa = share_values(&values, dummies);
            let mut aos = soa.clone();
            let (mut m_soa, mut m_aos) = (CostMeter::new(), CostMeter::new());
            oblivious_sort_by_field(&mut soa, 0, order, &mut m_soa);
            reference_aos_sort(&mut aos, order, &mut m_aos);
            prop_assert_eq!(soa, aos);
            prop_assert_eq!(m_soa.report(), m_aos.report());
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
            let network = Network::merge(&[a.len(), b.len()]).pairs();
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
        /// comparator that feeds no kept wire; the executed runs merge like it.
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
            if sorted {
                let mut start = 0;
                for &len in &lens {
                    keys[start..start + len].sort_unstable();
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
                assert_merge_kernel_equals_comparator_walk(&lens, seed, seed % 2 == 0);
            }
        }

        #[test]
        fn prop_network_size_is_data_independent(
            a in proptest::collection::vec(any::<u32>(), 2..40),
            seed: u64,
        ) {
            let mut shuffled = a.clone();
            // Deterministic permutation based on seed.
            let mut rng = StdRng::seed_from_u64(seed);
            use rand::seq::SliceRandom;
            shuffled.shuffle(&mut rng);

            let mut m1 = CostMeter::new();
            let mut arr1 = share_values(&a, 0);
            oblivious_sort_by_field(&mut arr1, 0, SortOrder::Ascending, &mut m1);

            let mut m2 = CostMeter::new();
            let mut arr2 = share_values(&shuffled, 0);
            oblivious_sort_by_field(&mut arr2, 0, SortOrder::Ascending, &mut m2);

            prop_assert_eq!(m1.report(), m2.report());
        }
    }
}
