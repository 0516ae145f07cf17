//! Oblivious sorting via Batcher's odd-even merge sorting network.
//!
//! The comparison/swap schedule of a sorting network depends only on the input
//! *length*, never on the data, which is what makes it oblivious: executed inside a
//! 2PC, the servers learn nothing beyond the (public) array size. The paper uses
//! Batcher networks for the truncated joins (Algorithm 4's per-outer buffers,
//! Example 5.1's union sort and compaction) and the cache read of the Shrink
//! protocols (Figure 3, `ObliSort(σ, key = isView)`).
//!
//! The network is generated for arbitrary lengths by conceptually padding to the next
//! power of two with `+∞` keys at the tail and dropping comparators that touch the
//! padding — a standard, correctness-preserving specialisation of Batcher's
//! construction.
//!
//! Three notes beyond the plain sort:
//!
//! * The sorts here execute as a **blocked, packed-word kernel**: each record's key
//!   is extracted once, from the share words it is made of, and packed with the
//!   record's position into one `u64` (`key << 30 | position`); the comparator
//!   network runs branch-free over that single contiguous lane, one slice kernel
//!   per `(p, k, j)` block of the pruned network, and the record shares are
//!   gathered through the position bits in a single final pass. Swap decisions
//!   depend only on the key bits, which travel with their positions, so the final
//!   arrangement — and the metered cost, charged up front from the input length —
//!   is bit-identical to swapping whole records at every comparator.
//! * For merging two *already sorted* runs (the delta sort-merge join's cache ‖
//!   delta union) a full Batcher re-sort is overkill: `bitonic_merge_pairs` is the
//!   `O(n log n)`-comparator bitonic merge network for that case, and
//!   [`bitonic_merge_pair_count`] prices it. The secure cache executes it: its rows
//!   rest in `isView`-ordered runs of public length, a synchronisation sorts only
//!   what was appended since the last one, and [`oblivious_merge_by_is_view`] — the
//!   merge-only operator, no sort — folds two adjacent runs into one, moving the
//!   records in place along the cycles of the network's permutation.
//! * For sorting an array only to keep its first `k` slots — what both truncated
//!   joins do — a full sort pays for an order the output never reads:
//!   `select_first_pairs` is the top-`k` selection network (Batcher-sorted blocks
//!   of `k`, then a tournament of bitonic merges that keep `k` wires each), and
//!   [`select_first_pair_count`] prices it — `n − 1` comparators at `k = 1`, never
//!   more than [`batcher_pair_count`]`(n)`.

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
/// elements (indices `i < j`), in execution order: the materialised reference the
/// tests hold the block engine behind the physical sorts to.
///
/// Cost note: materialising the schedule is `O(n log² n)` host time and memory; the
/// physical sorts never do, and when only the comparator *count* is needed (join
/// cost models, the join planner), use [`batcher_pair_count`], which computes
/// the same number without allocating.
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

/// Compare-exchange pairs (indices `lo < hi`, in execution order) of the bitonic
/// merge network for `n` elements in **valley form**: the array must hold a
/// descending run followed by an ascending run (any split point, including empty
/// runs). The network is the standard bitonic cleaner — stages of stride
/// `k = p/2, p/4, …, 1` over the array padded to `p = 2^⌈log n⌉` with `+∞` keys at
/// the tail, comparing `(l, l+k)` whenever `l mod 2k < k`, with comparators that
/// touch the padding dropped (they are no-ops: `+∞` never moves down).
///
/// To merge two *ascending* runs `A ‖ B`, first reverse `A` in place — a fixed,
/// data-independent permutation of `⌊|A|/2⌋` swaps with no comparators — which puts
/// the array in valley form; the cleaner then yields the fully ascending merge.
/// This replaces a full `O(n log² n)`-comparator Batcher re-sort of a nearly-sorted
/// union with `O(n log n)` comparators.
#[cfg(test)]
pub(crate) fn bitonic_merge_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    if n < 2 {
        return pairs;
    }
    let padded = n.next_power_of_two();
    let mut k = padded / 2;
    while k >= 1 {
        for l in 0..n - k {
            if l % (2 * k) < k {
                pairs.push((l, l + k));
            }
        }
        k /= 2;
    }
    pairs
}

/// Exact comparator count of `bitonic_merge_pairs(n)`, computed in `O(log n)`
/// arithmetic without materialising the schedule. Depends only on the total length
/// `n`, never on where the valley sits — the count is a public function of the
/// public size, exactly like [`batcher_pair_count`].
#[must_use]
pub fn bitonic_merge_pair_count(n: usize) -> u64 {
    if n < 2 {
        return 0;
    }
    let padded = n.next_power_of_two();
    let mut count = 0u64;
    let mut k = padded / 2;
    while k >= 1 {
        count += count_mod_below(0, n - k, 2 * k, k);
        k /= 2;
    }
    count
}

/// Compare-exchange pairs and output wires of the **top-`k` selection network** over
/// `n` wires: each pair `(lo, hi)` leaves the smaller key on wire `lo` and the larger
/// on wire `hi`, and once the pairs have run in order the `min(k, n)` returned output
/// wires hold the `k` smallest keys, ascending. The materialised reference for
/// [`select_first_pair_count`], as `batcher_pairs` is for [`batcher_pair_count`].
///
/// Construction: Batcher-sort the wires in blocks of `k` (the last block may be
/// shorter), then merge the sorted survivor lists pairwise in a tournament — level
/// by level, neighbours `(0, 1), (2, 3), …`, an odd last list passing up unmerged.
/// A node over lists `A` and `B` runs `bitonic_merge_pairs(|A| + |B|)` over the
/// wires of `reverse(A) ++ B` (valley form) and keeps the first `k` of them. The
/// reversal only relabels wires inside the network, so it costs no swaps (which is
/// also why a pair's wires need not ascend). Where this network is not smaller than
/// the full Batcher sort of `n` wires, the sort is returned instead, with output
/// wires `0..min(k, n)`.
///
/// The schedule is a function of the public `(n, k)` alone: a circuit that sorts an
/// array only to read its first `k` slots can run this instead, with the same
/// output and the same leakage.
#[cfg(test)]
pub(crate) fn select_first_pairs(n: usize, k: usize) -> (Vec<(usize, usize)>, Vec<usize>) {
    if n == 0 || k == 0 {
        return (Vec::new(), Vec::new());
    }
    let mut pairs = Vec::new();
    // Sorted survivor lists: wires holding ascending keys.
    let mut lists: Vec<Vec<usize>> = Vec::new();
    for start in (0..n).step_by(k) {
        let len = k.min(n - start);
        let block = batcher_pairs(len).into_iter();
        pairs.extend(block.map(|(lo, hi)| (start + lo, start + hi)));
        lists.push((start..start + len).collect());
    }
    while lists.len() > 1 {
        let mut level = lists.into_iter();
        lists = Vec::new();
        while let Some(a) = level.next() {
            let Some(b) = level.next() else {
                lists.push(a);
                break;
            };
            let mut valley: Vec<usize> = a.into_iter().rev().chain(b).collect();
            let merge = bitonic_merge_pairs(valley.len()).into_iter();
            pairs.extend(merge.map(|(lo, hi)| (valley[lo], valley[hi])));
            valley.truncate(k);
            lists.push(valley);
        }
    }
    if pairs.len() as u64 >= batcher_pair_count(n) {
        return (batcher_pairs(n), (0..k.min(n)).collect());
    }
    (pairs, lists.pop().unwrap_or_default())
}

/// Exact comparator count of `select_first_pairs(n, k)`, computed without
/// allocating: every full block sorts the same `batcher_pair_count(k)` network and
/// every tournament node over two full lists merges the same `2k` wires, so the
/// count is one loop over the `O(log(n/k))` tournament levels. The short block is
/// the last list of every level until a full list meets it; that node keeps `k`
/// wires, so every list above it is full.
///
/// At most [`batcher_pair_count`]`(n)`, equal to it when `k ≥ n`, and `n − 1` at
/// `k = 1`. Join cost models price "sort, then keep the first `k`" with it, and the
/// join planner calls it on every shape its memo has not seen, hence no allocation.
#[must_use]
pub fn select_first_pair_count(n: usize, k: usize) -> u64 {
    if n < 2 || k == 0 {
        return 0;
    }
    let sort = batcher_pair_count(n);
    if k >= n {
        return sort;
    }
    let (mut full, short) = (n / k, n % k);
    let mut count = full as u64 * batcher_pair_count(k) + batcher_pair_count(short);
    let full_merge = bitonic_merge_pair_count(2 * k);
    let mut short = (short > 0).then_some(short);
    while full + usize::from(short.is_some()) > 1 {
        count += (full / 2) as u64 * full_merge;
        match short {
            // An odd number of full lists: the last one meets the short list.
            Some(len) if full % 2 == 1 => {
                count += bitonic_merge_pair_count(k + len);
                full = full / 2 + 1;
                short = None;
            }
            _ => full -= full / 2,
        }
    }
    count.min(sort)
}

/// Charge one Batcher network pass over `n` records of `width` shared words —
/// `batcher_pair_count(n)` secure comparisons and record-wide swaps in one round —
/// without executing it. The single place the network's price is defined: the
/// physical sorts below, the shuffle operator's permutation, and callers that must
/// permute side-band metadata alongside the shares (the cluster's destination-side
/// compaction) all charge through here, so the pricing cannot drift between them.
pub fn charge_sort_network(n: usize, width: u64, meter: &mut CostMeter) {
    if n < 2 {
        return;
    }
    let pairs = batcher_pair_count(n);
    meter.compares(pairs);
    meter.swaps(pairs, width);
    meter.round();
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
/// comparators in the same order as `bitonic_merge_pairs(words.len())`. Stage
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

/// Oblivious sort of `array` by the key `key_fn` extracts from each record: the
/// Batcher network of `batcher_pairs` over the packed words of
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
    let width = array.arity().unwrap_or(1) as u64 + 1;
    charge_sort_network(array.len(), width, meter);
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

/// The merge-only operator: two adjacent `isView`-ordered runs become one.
///
/// `array[..split]` and `array[split..]` must each be in `isView` order already —
/// `Ascending`: real tuples first, as [`oblivious_sort_by_is_view`] leaves them;
/// `Descending`: the same order read back to front, which is how the secure cache
/// keeps its runs — and the whole array comes out in that order. No sort runs: the
/// first run is reversed into valley form (a fixed permutation, `⌊split/2⌋`
/// record-wide swaps) and the bitonic cleaner of `bitonic_merge_pairs` runs over
/// the packed words — `bitonic_merge_pair_count(n)` secure comparisons and swaps,
/// one round, a function of the two public lengths alone. An empty side runs and
/// charges nothing. On the host the records are rearranged in place
/// ([`SharedArrayPair::permute_in_place`]): between two ordered runs most rows keep
/// their place, and a merge that allocated a second copy of the run made the cost
/// of a large one depend on the state of the allocator.
///
/// # Panics
/// Panics when `split` exceeds the array length.
pub fn oblivious_merge_by_is_view(
    array: &mut SharedArrayPair,
    split: usize,
    order: SortOrder,
    meter: &mut CostMeter,
) {
    let n = array.len();
    assert!(split <= n, "split beyond the array");
    if split == 0 || split == n {
        return;
    }
    let pairs = bitonic_merge_pair_count(n);
    meter.compares(pairs);
    meter.swaps(
        pairs + split as u64 / 2,
        array.arity().unwrap_or(1) as u64 + 1,
    );
    meter.round();
    array.entries_mut()[..split].reverse();
    let mut perm = network_permutation(array, order, dummy_rank, run_bitonic_merge);
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
        for n in 0..=400usize {
            assert_eq!(
                batcher_pair_count(n),
                batcher_pairs(n).len() as u64,
                "n={n}"
            );
        }
        for n in [1000usize, 4096, 5000] {
            assert_eq!(
                batcher_pair_count(n),
                batcher_pairs(n).len() as u64,
                "n={n}"
            );
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

    /// Reverse the first `a` elements (valley form), apply the bitonic cleaner.
    fn bitonic_merge_runs(mut data: Vec<u32>, a: usize) -> Vec<u32> {
        data[..a].reverse();
        for (lo, hi) in bitonic_merge_pairs(data.len()) {
            if data[lo] > data[hi] {
                data.swap(lo, hi);
            }
        }
        data
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
                let b = n - a;
                for za in 0..=a {
                    for zb in 0..=b {
                        let mut input = vec![0u32; za];
                        input.extend(std::iter::repeat(1).take(a - za));
                        input.extend(std::iter::repeat(0).take(zb));
                        input.extend(std::iter::repeat(1).take(b - zb));
                        let merged = bitonic_merge_runs(input.clone(), a);
                        let mut expect = input;
                        expect.sort_unstable();
                        assert_eq!(merged, expect, "n={n} a={a} za={za} zb={zb}");
                    }
                }
            }
        }
    }

    #[test]
    fn bitonic_count_matches_pairs_and_is_cheaper_than_batcher() {
        for n in 0..=400usize {
            assert_eq!(
                bitonic_merge_pair_count(n),
                bitonic_merge_pairs(n).len() as u64,
                "n={n}"
            );
        }
        // The merge must beat the full re-sort once the union is non-trivial.
        for n in [8usize, 64, 1000, 4096] {
            assert!(bitonic_merge_pair_count(n) < batcher_pair_count(n), "n={n}");
        }
    }

    /// Run a `select_first_pairs` network over `keys` — min to the pair's first
    /// wire — and read its output wires.
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
    fn select_count_matches_materialized_network() {
        for n in 0..=300usize {
            let ks = [0, 1, 2, 3, 5, 7, 8, 10, 16, 31, 64];
            let edges = [n.saturating_sub(1), n, n + 1];
            for k in ks.into_iter().chain(edges) {
                let (pairs, outputs) = select_first_pairs(n, k);
                assert_eq!(
                    select_first_pair_count(n, k),
                    pairs.len() as u64,
                    "n={n} k={k}"
                );
                assert_eq!(outputs.len(), k.min(n), "n={n} k={k}");
                assert!(pairs.iter().all(|&(lo, hi)| lo != hi && lo.max(hi) < n));
            }
        }
        // The emission shapes of the benchmark workloads' delta sort-merge joins.
        for n in [1180usize, 4096, 20_080] {
            for k in [1, 7, 10, 80, 100, n / 2, n - 1] {
                let pairs = select_first_pairs(n, k).0;
                assert_eq!(
                    select_first_pair_count(n, k),
                    pairs.len() as u64,
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn select_count_is_bounded_by_the_sort_and_linear_at_k_one() {
        for n in 0..=2000usize {
            let sort = batcher_pair_count(n);
            assert_eq!(
                select_first_pair_count(n, 1),
                n.saturating_sub(1) as u64,
                "n={n}"
            );
            for k in [1usize, 2, 3, 7, 10, 16, 64, 100, n / 3, n / 2] {
                assert!(select_first_pair_count(n, k) <= sort, "n={n} k={k}");
            }
            for k in [n, n + 1, 2 * n + 5] {
                assert_eq!(select_first_pair_count(n, k), sort, "n={n} k={k}");
            }
        }
        // The per-outer buffers of the benchmark windows (TPC-ds 63 rows at ω = 1,
        // CPDB 110 at ω = 10) and a 7-of-70 emission.
        assert_eq!(select_first_pair_count(63, 1), 62);
        assert_eq!(batcher_pair_count(63), 537);
        assert_eq!(select_first_pair_count(110, 10), 752);
        assert_eq!(batcher_pair_count(110), 1243);
        assert_eq!(select_first_pair_count(70, 7), 385);
        assert_eq!(batcher_pair_count(70), 731);
    }

    #[test]
    fn selection_keeps_the_first_values_of_every_01_input() {
        // The 0-1 principle holds for selection networks: a network that leaves the
        // first min(k, n) values of the sorted input, ascending, on its output
        // wires for every 0-1 input does so for every input.
        for n in 0..=12usize {
            for k in 0..=n + 1 {
                let network = select_first_pairs(n, k);
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

    /// The record-at-a-time sort loop — one recovered comparison and one whole-record
    /// swap per comparator of the materialised network — kept as the reference
    /// implementation the engine is held to below.
    fn reference_aos_sort(array: &mut SharedArrayPair, order: SortOrder, meter: &mut CostMeter) {
        let n = array.len();
        if n < 2 {
            return;
        }
        let width = array.arity().unwrap_or(1) as u64 + 1;
        charge_sort_network(n, width, meter);
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

    /// `n` seeded keys arranged in valley form for every given split — a random
    /// `split`-subset descending, the rest ascending behind it — through the
    /// blocked merge kernel and through `bitonic_merge_pairs` one comparator at a
    /// time. Positions make every word distinct, so equal vectors mean equal
    /// permutations.
    fn assert_merge_kernel_equals_comparator_walk(
        n: usize,
        splits: impl Iterator<Item = usize>,
        binary: bool,
    ) {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut sorted: Vec<u64> = (0..n)
            .map(|_| {
                if binary {
                    rng.gen_range(0..2)
                } else {
                    rng.gen::<u64>() >> 31
                }
            })
            .collect();
        sorted.sort_unstable();
        // Key `i` of `sorted` goes to the prefix when its rank is below the split.
        let mut rank: Vec<usize> = (0..n).collect();
        rank.shuffle(&mut rng);
        let pairs = bitonic_merge_pairs(n);
        for split in splits {
            let keyed = || sorted.iter().zip(&rank);
            let prefix = keyed().rev().filter(|(_, &r)| r < split);
            let tail = keyed().filter(|(_, &r)| r >= split);
            let mut walk: Vec<u64> = (0u64..)
                .zip(prefix.chain(tail))
                .map(|(position, (key, _))| key << INDEX_BITS | position)
                .collect();
            let mut kernel = walk.clone();
            run_bitonic_merge(&mut kernel);
            for &(lo, hi) in &pairs {
                if walk[lo] >> INDEX_BITS > walk[hi] >> INDEX_BITS {
                    walk.swap(lo, hi);
                }
            }
            assert_eq!(kernel, walk, "n={n} split={split} binary={binary}");
            assert!(
                kernel
                    .iter()
                    .map(|w| w >> INDEX_BITS)
                    .eq(sorted.iter().copied()),
                "n={n} split={split} binary={binary}: not merged"
            );
        }
    }

    #[test]
    fn merge_kernel_equals_comparator_walk_at_every_length_and_split() {
        for binary in [true, false] {
            for n in 0..=300usize {
                assert_merge_kernel_equals_comparator_walk(n, 0..=n, binary);
            }
            for n in [1000usize, 4096, 5000] {
                let splits = [0, 1, n / 64, n / 2, n - n / 64, n - 1, n];
                assert_merge_kernel_equals_comparator_walk(n, splits.into_iter(), binary);
            }
        }
    }

    /// Two adjacent `isView`-ordered runs of `n` rows in all, `reals.0` real rows in
    /// the first `split` and `reals.1` in the rest, with fresh shares per row.
    fn two_runs(
        n: usize,
        split: usize,
        reals: (usize, usize),
        order: SortOrder,
    ) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64((n * 31 + split) as u64);
        let run = |len: usize, real: usize| {
            let mut rows: Vec<PlainRecord> = (0..len)
                .map(|i| PlainRecord {
                    fields: vec![i as u32],
                    is_view: i < real,
                })
                .collect();
            if order == SortOrder::Descending {
                rows.reverse();
            }
            rows
        };
        let mut rows = run(split, reals.0);
        rows.extend(run(n - split, reals.1));
        SharedArrayPair::share_records(&rows, &mut rng)
    }

    /// The merge-only operator against whole-entry swaps at every comparator of
    /// the materialised cleaner; shares are random, so equal arrays mean equal
    /// permutations.
    fn assert_merge_operator_equals_comparator_walk(
        n: usize,
        split: usize,
        reals: (usize, usize),
        order: SortOrder,
    ) {
        let mut merged = two_runs(n, split, reals, order);
        let mut walked = merged.clone();
        let mut meter = CostMeter::new();
        oblivious_merge_by_is_view(&mut merged, split, order, &mut meter);

        let rank = |rec: &SharedRecordPair| match order {
            SortOrder::Ascending => dummy_rank(rec),
            SortOrder::Descending => 1 - dummy_rank(rec),
        };
        let entries = walked.entries_mut();
        let merging = split > 0 && split < n;
        if merging {
            entries[..split].reverse();
            for (lo, hi) in bitonic_merge_pairs(n) {
                if rank(&entries[lo]) > rank(&entries[hi]) {
                    entries.swap(lo, hi);
                }
            }
        }
        assert_eq!(merged, walked, "n={n} split={split} {order:?}");
        assert!(
            merged
                .entries()
                .windows(2)
                .all(|w| rank(&w[0]) <= rank(&w[1])),
            "n={n} split={split} {order:?}: not merged"
        );
        let pairs = if merging {
            bitonic_merge_pair_count(n)
        } else {
            0
        };
        let report = meter.report();
        assert_eq!(report.secure_compares, pairs);
        let reversal = if merging { split as u64 / 2 } else { 0 };
        assert_eq!(report.secure_swaps, (pairs + reversal) * 2);
        assert_eq!(report.rounds, u64::from(merging));
    }

    #[test]
    fn merge_operator_equals_comparator_walk_at_every_length_and_split() {
        for n in 0..=300usize {
            for split in 0..=n {
                // Real counts sweep with the split, so all-real, all-dummy and
                // mixed runs meet on either side.
                let reals = (split * (n % 4) / 3, (n - split) * (split % 4) / 3);
                let order = if (n + split) % 2 == 0 {
                    SortOrder::Ascending
                } else {
                    SortOrder::Descending
                };
                assert_merge_operator_equals_comparator_walk(n, split, reals, order);
            }
        }
        for n in [1000usize, 4096, 5000] {
            for split in [0, 1, n / 64, n / 2, n - n / 64, n - 1, n] {
                for order in [SortOrder::Ascending, SortOrder::Descending] {
                    let reals = (split / 3, (n - split) / 2);
                    assert_merge_operator_equals_comparator_walk(n, split, reals, order);
                }
            }
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
            let split = a.len();
            let mut input = a;
            input.extend_from_slice(&b);

            let merged = bitonic_merge_runs(input.clone(), split);

            let mut batcher = input;
            for (lo, hi) in batcher_pairs(batcher.len()) {
                if batcher[lo] > batcher[hi] {
                    batcher.swap(lo, hi);
                }
            }
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
            let network = select_first_pairs(keys.len(), k);
            prop_assert_eq!(run_selection(&network, &mut keys), expect);
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
