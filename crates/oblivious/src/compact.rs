//! Oblivious compaction and the Shrink cache-read operation (Figure 3).
//!
//! The Shrink protocols fetch a DP-noised number of tuples from the exhaustively
//! padded secure cache. To guarantee that real tuples are always fetched before
//! dummies, the cache is brought into `isView` order, then the first `sz` slots are
//! cut off; the remainder stays in the cache — still in `isView` order. The paper
//! re-sorts the whole cache at every read; here a read is told how long that
//! already-ordered prefix is (a public number: previous length − previous read
//! size) and sorts only the rows appended behind it, then bitonic-merges the two
//! runs ([`cache_read_incremental`]).

use crate::sort::{oblivious_merge_by_is_view, oblivious_sort_by_is_view};
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

/// The secure cache read of Figure 3 over a cache nothing is known about:
/// [`cache_read_incremental`] with an empty sorted prefix, i.e. a Batcher sort of
/// the whole cache by `isView` followed by the cut.
pub fn cache_read(
    cache: &mut SharedArrayPair,
    read_size: usize,
    meter: &mut CostMeter,
) -> SharedArrayPair {
    cache_read_incremental(cache, 0, read_size, meter)
}

/// The secure cache read of Figure 3: bring the cache into `isView` order, cut off
/// the first `read_size` entries and return them; the remaining entries stay in
/// `cache`, real tuples first. `read_size` larger than the cache simply drains it.
///
/// The caller vouches that the first `sorted_prefix` entries are already real-first
/// — what a previous read left behind, with later writes appended after it.
///
/// Returns the fetched entries. The servers observe only `read_size` (which the
/// calling Shrink protocol derives from a DP mechanism) and the network's shape,
/// a function of `sorted_prefix` and the cache length — both public already —
/// never the true cardinality.
///
/// Cost, with `n` the cache length and `s = sorted_prefix`: a Batcher sort of the
/// `n − s` appended rows (`batcher_pair_count(n − s)`), the bitonic merge of the two
/// runs (`bitonic_merge_pair_count(n)` plus `⌊s/2⌋` reversal swaps, one round; not
/// run when either side is empty) and the `read_size` record transfer — instead of
/// the paper's `batcher_pair_count(n)` over the whole cache. The merge is still
/// linear-logarithmic in the cache length, which is why keeping ΔV at the
/// `ω·|delta|` nested-loop output contract (rather than Example 5.1's
/// `ω·(|T1|+|T2|)`) matters: the cache, and with it every synchronization, would
/// otherwise grow with the accumulated relation.
///
/// # Panics
/// Panics when `sorted_prefix` exceeds the cache length.
pub fn cache_read_incremental(
    cache: &mut SharedArrayPair,
    sorted_prefix: usize,
    read_size: usize,
    meter: &mut CostMeter,
) -> SharedArrayPair {
    oblivious_merge_by_is_view(cache, sorted_prefix, meter);
    let width = cache.arity().unwrap_or(0) as u64 + 1;
    meter.bytes(read_size.min(cache.len()) as u64 * width * 4);
    meter.round();
    cache.split_front(read_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::{
        batcher_pair_count, batcher_pairs, bitonic_merge_pair_count, bitonic_merge_pairs,
    };
    use incshrink_mpc::cost::CostReport;
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

        // The steady state: 3000 ordered rows stay behind, 2000 unordered ones are
        // appended, and the next read sorts those, reverses the prefix and runs the
        // bitonic cleaner over all 5000.
        let delta = mixed_cache(900, 1100);
        cache.extend(delta.clone()).unwrap();
        walked.extend(delta).unwrap();
        let entries = walked.entries_mut();
        walk(entries, 3000, &batcher_pairs(2000));
        entries[..3000].reverse();
        walk(entries, 0, &bitonic_merge_pairs(5000));
        let walked_front = walked.split_front(500);

        let fetched = cache_read_incremental(&mut cache, 3000, 500, &mut CostMeter::new());
        assert_eq!(fetched, walked_front);
        assert_eq!(cache, walked);
        assert_eq!(fetched.true_cardinality(), 500);
        assert_eq!(cache.true_cardinality(), 400);
    }

    #[test]
    fn read_cost_is_a_function_of_prefix_and_length_alone() {
        let width = 3u64; // two fields + isView
        for (s, n) in [
            (0usize, 40usize),
            (1, 2),
            (7, 8),
            (30, 40),
            (39, 40),
            (40, 40),
        ] {
            let expected = {
                let merged = s > 0 && s < n;
                let sort = batcher_pair_count(n - s);
                let merge = if merged {
                    bitonic_merge_pair_count(n)
                } else {
                    0
                };
                let reversal = if merged { s as u64 / 2 } else { 0 };
                CostReport {
                    secure_compares: sort + merge,
                    secure_swaps: (sort + merge + reversal) * width,
                    bytes_communicated: 5.min(n as u64) * width * 4,
                    rounds: u64::from(n - s >= 2) + u64::from(merged) + 1,
                    ..CostReport::default()
                }
            };
            // Same public sizes, different contents: a prefix of reals then dummies,
            // against an all-dummy prefix, each with its own tail.
            for (prefix_real, tail_real) in [(s / 2, (n - s) / 3), (0, n - s)] {
                let mut cache = mixed_cache(prefix_real, 0);
                cache.extend(mixed_cache(0, s - prefix_real)).unwrap();
                cache
                    .extend(mixed_cache(tail_real, n - s - tail_real))
                    .unwrap();
                let mut meter = CostMeter::new();
                let fetched = cache_read_incremental(&mut cache, s, 5, &mut meter);
                assert_eq!(meter.report(), expected, "s={s} n={n}");
                assert_eq!(
                    fetched.true_cardinality(),
                    (prefix_real + tail_real).min(5),
                    "s={s} n={n}"
                );
            }
        }
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
