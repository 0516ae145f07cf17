//! Oblivious compaction and the Shrink cache-read operation (Figure 3).
//!
//! The Shrink protocols fetch a DP-noised number of tuples from the exhaustively
//! padded secure cache. To guarantee that real tuples are always fetched before
//! dummies, the cache is brought into `isView` order, then the first `sz` slots are
//! cut off; the remainder stays in the cache — still in `isView` order.
//! [`cache_read`] is that operation as the paper writes it, a sort of everything it
//! is handed. The secure cache (`incshrink_storage::SecureCache`) hands it only the
//! few rows per run a cut can reach, and keeps the rest in order with the merge-only
//! operator [`crate::sort::oblivious_merge_by_is_view`].

use crate::sort::oblivious_sort_by_is_view;
use incshrink_mpc::cost::CostMeter;
use incshrink_secretshare::arrays::SharedArrayPair;

/// Obliviously compact `array` so that all real tuples precede all dummy tuples.
/// The length is unchanged; only the (hidden) order moves.
///
/// Cost: one Batcher sort on the `isView` key — `batcher_pair_count(n)` secure
/// comparisons and record-wide swaps ([`crate::sort::batcher_pair_count`]). Leakage:
/// none beyond the public length `n`.
pub fn oblivious_compact(array: &mut SharedArrayPair, meter: &mut CostMeter) {
    oblivious_sort_by_is_view(array, meter);
}

/// The secure cache read of Figure 3: Batcher-sort the whole of `cache` by `isView`,
/// cut off the first `read_size` entries and return them; the remaining entries stay
/// in `cache`, real tuples first. `read_size` larger than the cache simply drains it.
///
/// The servers observe only `read_size` (which the calling Shrink protocol derives
/// from a DP mechanism) and the network's shape, a function of the cache length —
/// never the true cardinality.
///
/// Cost, with `n` the cache length: `batcher_pair_count(n)` comparisons and
/// record-wide swaps in one round, then the `read_size` record transfer in another.
/// Linear-logarithmic in `n`, which is why keeping ΔV at the `ω·|delta|`
/// nested-loop output contract (rather than Example 5.1's `ω·(|T1|+|T2|)`) matters:
/// the cache would otherwise grow with the accumulated relation.
pub fn cache_read(
    cache: &mut SharedArrayPair,
    read_size: usize,
    meter: &mut CostMeter,
) -> SharedArrayPair {
    oblivious_sort_by_is_view(cache, meter);
    let width = cache.arity().unwrap_or(0) as u64 + 1;
    meter.bytes(read_size.min(cache.len()) as u64 * width * 4);
    meter.round();
    cache.split_front(read_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::{batcher_pairs, bitonic_merge_pairs, oblivious_merge_by_is_view, SortOrder};
    use incshrink_secretshare::tuple::{PlainRecord, SharedRecordPair};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mixed_cache(real: usize, dummy: usize) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(21);
        let mut records = Vec::new();
        // Interleave real and dummy entries.
        let mut r = 0;
        let mut d = 0;
        while r < real || d < dummy {
            if r < real {
                records.push(PlainRecord::real(vec![r as u32, 100 + r as u32]));
                r += 1;
            }
            if d < dummy {
                records.push(PlainRecord::dummy(2));
                d += 1;
            }
        }
        SharedArrayPair::share_records(&records, &mut rng)
    }

    #[test]
    fn compact_moves_real_tuples_to_front() {
        let mut meter = CostMeter::new();
        let mut cache = mixed_cache(4, 6);
        oblivious_compact(&mut cache, &mut meter);
        let plain = cache.recover_all();
        assert!(plain[..4].iter().all(|r| r.is_view));
        assert!(plain[4..].iter().all(|r| !r.is_view));
        assert_eq!(cache.true_cardinality(), 4);
    }

    #[test]
    fn cache_read_fetches_real_before_dummy() {
        let mut meter = CostMeter::new();
        let mut cache = mixed_cache(5, 10);
        // Read fewer entries than there are real tuples: everything fetched is real,
        // the rest stays deferred in the cache.
        let fetched = cache_read(&mut cache, 3, &mut meter);
        assert_eq!(fetched.len(), 3);
        assert_eq!(fetched.true_cardinality(), 3);
        assert_eq!(cache.true_cardinality(), 2);
        assert_eq!(cache.len(), 12);
    }

    #[test]
    fn cache_read_larger_than_true_cardinality_includes_dummies() {
        let mut meter = CostMeter::new();
        let mut cache = mixed_cache(2, 8);
        let fetched = cache_read(&mut cache, 6, &mut meter);
        assert_eq!(fetched.len(), 6);
        assert_eq!(fetched.true_cardinality(), 2);
        assert_eq!(cache.true_cardinality(), 0);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn cache_read_larger_than_cache_drains_it() {
        let mut meter = CostMeter::new();
        let mut cache = mixed_cache(3, 3);
        let fetched = cache_read(&mut cache, 100, &mut meter);
        assert_eq!(fetched.len(), 6);
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_read_zero_returns_nothing() {
        let mut meter = CostMeter::new();
        let mut cache = mixed_cache(3, 3);
        let fetched = cache_read(&mut cache, 0, &mut meter);
        assert!(fetched.is_empty());
        assert_eq!(cache.len(), 6);
    }

    /// Swap whole entries at every comparator of `pairs`, offset by `base`.
    fn walk(entries: &mut [SharedRecordPair], base: usize, pairs: &[(usize, usize)]) {
        for &(lo, hi) in pairs {
            if entries[base + lo].is_view.recover() < entries[base + hi].is_view.recover() {
                entries.swap(base + lo, base + hi);
            }
        }
    }

    #[test]
    fn cache_read_at_5000_equals_the_comparator_walk() {
        // A length off every power of two, so pruned and shortened blocks occur at
        // each level. The reference swaps whole entries at every comparator of the
        // materialised network; shares are random, so entry-for-entry equality of
        // both the fetched prefix and what stays behind pins the permutation.
        let mut cache = mixed_cache(1700, 3300);
        let mut walked = cache.clone();
        walk(walked.entries_mut(), 0, &batcher_pairs(5000));
        let walked_front = walked.split_front(2000);

        let fetched = cache_read(&mut cache, 2000, &mut CostMeter::new());
        assert_eq!(fetched, walked_front);
        assert_eq!(cache, walked);
        assert_eq!(fetched.true_cardinality(), 1700);

        // The merge-only operator over what stayed behind and a second sorted run:
        // reverse the first run, then the bitonic cleaner over all 5000 — no sort.
        let mut delta = mixed_cache(900, 1100);
        oblivious_compact(&mut delta, &mut CostMeter::new());
        cache.extend(delta.clone()).unwrap();
        walked.extend(delta).unwrap();
        let entries = walked.entries_mut();
        entries[..3000].reverse();
        walk(entries, 0, &bitonic_merge_pairs(5000));

        oblivious_merge_by_is_view(
            &mut cache,
            3000,
            SortOrder::Ascending,
            &mut CostMeter::new(),
        );
        assert_eq!(cache, walked);
        assert!(cache.entries()[..900]
            .iter()
            .all(|e| e.is_view.recover() == 1));
        assert_eq!(cache.true_cardinality(), 900);
    }

    proptest! {
        #[test]
        fn prop_cache_read_never_skips_real_tuples(
            real in 0usize..20, dummy in 0usize..20, read in 0usize..50) {
            let mut meter = CostMeter::new();
            let mut cache = mixed_cache(real, dummy);
            let fetched = cache_read(&mut cache, read, &mut meter);
            // Every fetched dummy implies no real tuple was left behind.
            let fetched_real = fetched.true_cardinality();
            let left_real = cache.true_cardinality();
            prop_assert_eq!(fetched_real + left_real, real);
            if fetched_real < fetched.len() {
                // A dummy was fetched, so all real tuples must have been fetched.
                prop_assert_eq!(left_real, 0);
            }
            prop_assert_eq!(fetched.len(), read.min(real + dummy));
        }
    }
}
