//! The secure outsourced cache `σ`.
//!
//! A secret-shared memory block holding newly generated (exhaustively padded) view
//! entries awaiting synchronization into the materialized view (Section 2.2). The
//! cache supports the three operations the view-update protocol needs: *write*
//! (append a padded ΔV), *read* (bring the cache into `isView` order + prefix cut of
//! a DP-sized number of entries), and *flush* (fixed-size prefix cut followed by
//! recycling the remainder).
//!
//! What a read leaves behind is in `isView` order already, and a write only appends
//! behind it. The cache remembers how long that ordered prefix is — previous length
//! minus previous read size, both public — so the next read obliviously sorts just
//! the appended tail and bitonic-merges it into the prefix
//! ([`cache_read_incremental`]) where the paper's Figure 3 re-sorts the whole cache.

use incshrink_mpc::cost::CostMeter;
use incshrink_oblivious::compact::cache_read_incremental;
use incshrink_secretshare::arrays::SharedArrayPair;
use serde::{Deserialize, Serialize};

/// Statistics about cache activity, for experiment reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total padded entries ever written.
    pub written: u64,
    /// Total entries fetched by reads (DP-sized synchronizations).
    pub read: u64,
    /// Total entries fetched by flushes.
    pub flushed: u64,
    /// Total entries recycled (discarded) by flushes.
    pub recycled: u64,
    /// Number of flush operations performed.
    pub flush_count: u64,
}

/// The secure outsourced cache.
#[derive(Debug, Clone, Default)]
pub struct SecureCache {
    entries: SharedArrayPair,
    /// `entries[..sorted_prefix]` holds real tuples before dummies. Only `cut`
    /// raises it; nothing outside this type can set it.
    sorted_prefix: usize,
    stats: CacheStats,
}

impl SecureCache {
    /// Empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current (padded) length of the cache.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of real view entries currently cached. Protocol-internal / test use
    /// only: reconstructs the hidden flags.
    #[must_use]
    pub fn true_cardinality(&self) -> usize {
        self.entries.true_cardinality()
    }

    /// Activity statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Append a padded ΔV produced by Transform (`σ ← σ || ΔV`, Algorithm 1 line 7).
    pub fn write(&mut self, delta: SharedArrayPair) {
        self.stats.written += delta.len() as u64;
        self.entries
            .extend(delta)
            .expect("view entries share one arity");
    }

    /// Order the cache by `isView` — sorting only what was written since the last
    /// cut — and cut the first `size` entries; what stays behind is the new sorted
    /// prefix.
    fn cut(&mut self, size: usize, meter: &mut CostMeter) -> SharedArrayPair {
        debug_assert!(
            self.entries.entries()[..self.sorted_prefix]
                .windows(2)
                .all(|w| w[0].is_view.recover() >= w[1].is_view.recover()),
            "sorted prefix must hold real tuples before dummies"
        );
        let fetched = cache_read_incremental(&mut self.entries, self.sorted_prefix, size, meter);
        self.sorted_prefix = self.entries.len();
        fetched
    }

    /// The Shrink cache read: bring the cache into `isView` order and cut the first
    /// `read_size` entries (Figure 3). Returns the fetched entries.
    pub fn read(&mut self, read_size: usize, meter: &mut CostMeter) -> SharedArrayPair {
        let fetched = self.cut(read_size, meter);
        self.stats.read += fetched.len() as u64;
        fetched
    }

    /// The independent flush mechanism (Section 5.2.1): sort, cut a fixed `flush_size`
    /// prefix to be synchronized immediately, and recycle (drop) the remainder.
    /// Returns the fetched prefix.
    pub fn flush(&mut self, flush_size: usize, meter: &mut CostMeter) -> SharedArrayPair {
        let fetched = self.cut(flush_size, meter);
        self.stats.flushed += fetched.len() as u64;
        self.stats.recycled += self.entries.len() as u64;
        self.stats.flush_count += 1;
        self.entries.clear();
        self.sorted_prefix = 0;
        fetched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_oblivious::compact::cache_read;
    use incshrink_secretshare::tuple::PlainRecord;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn delta(real: usize, dummy: usize) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(7);
        let mut records: Vec<PlainRecord> = (0..real)
            .map(|i| PlainRecord::real(vec![i as u32]))
            .collect();
        records.extend((0..dummy).map(|_| PlainRecord::dummy(1)));
        SharedArrayPair::share_records(&records, &mut rng)
    }

    #[test]
    fn write_read_cycle() {
        let mut cache = SecureCache::new();
        let mut meter = CostMeter::new();
        assert!(cache.is_empty());
        cache.write(delta(3, 5));
        cache.write(delta(2, 6));
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.true_cardinality(), 5);

        let fetched = cache.read(4, &mut meter);
        assert_eq!(fetched.len(), 4);
        assert_eq!(fetched.true_cardinality(), 4, "real entries fetched first");
        assert_eq!(cache.true_cardinality(), 1);
        assert_eq!(cache.len(), 12);

        let stats = cache.stats();
        assert_eq!(stats.written, 16);
        assert_eq!(stats.read, 4);
        assert_eq!(stats.flush_count, 0);
    }

    #[test]
    fn flush_fetches_prefix_and_recycles_rest() {
        let mut cache = SecureCache::new();
        let mut meter = CostMeter::new();
        cache.write(delta(2, 10));
        let fetched = cache.flush(5, &mut meter);
        assert_eq!(fetched.len(), 5);
        assert_eq!(fetched.true_cardinality(), 2);
        assert!(cache.is_empty(), "remainder recycled");
        let stats = cache.stats();
        assert_eq!(stats.flushed, 5);
        assert_eq!(stats.recycled, 7);
        assert_eq!(stats.flush_count, 1);
    }

    #[test]
    fn read_more_than_cache_size_drains() {
        let mut cache = SecureCache::new();
        let mut meter = CostMeter::new();
        cache.write(delta(1, 2));
        let fetched = cache.read(10, &mut meter);
        assert_eq!(fetched.len(), 3);
        assert!(cache.is_empty());
    }

    #[test]
    fn flush_with_larger_size_than_cache() {
        let mut cache = SecureCache::new();
        let mut meter = CostMeter::new();
        cache.write(delta(2, 2));
        let fetched = cache.flush(100, &mut meter);
        assert_eq!(fetched.len(), 4);
        assert_eq!(cache.stats().recycled, 0);
    }

    fn real_first(array: &SharedArrayPair) -> bool {
        array
            .recover_all()
            .windows(2)
            .all(|w| w[0].is_view >= w[1].is_view)
    }

    #[test]
    fn prefix_survives_sync_then_flush_drain_and_empty_write() {
        let mut meter = CostMeter::new();
        let mut cache = SecureCache::new();

        // A sync and a flush in the same step: the flush finds everything sorted,
        // runs no network, and leaves an empty cache with no prefix.
        cache.write(delta(4, 8));
        assert_eq!(cache.read(3, &mut meter).true_cardinality(), 3);
        assert_eq!(cache.sorted_prefix, 9);
        let sorting = meter.take().secure_compares;
        assert!(sorting > 0);
        assert_eq!(cache.flush(2, &mut meter).true_cardinality(), 1);
        assert_eq!(meter.take().secure_compares, 0, "nothing new to sort");
        assert_eq!((cache.len(), cache.sorted_prefix), (0, 0));

        // An empty write leaves the prefix where the read put it.
        cache.write(delta(2, 6));
        assert_eq!(cache.read(1, &mut meter).true_cardinality(), 1);
        cache.write(SharedArrayPair::new());
        assert_eq!((cache.len(), cache.sorted_prefix), (7, 7));
        cache.write(delta(3, 1));
        assert_eq!(cache.sorted_prefix, 7);
        let fetched = cache.read(4, &mut meter);
        assert_eq!(
            fetched.true_cardinality(),
            4,
            "deferred and new reals first"
        );
        assert!(real_first(&cache.entries));

        // A read that drains the cache resets the prefix with it.
        assert_eq!(cache.read(100, &mut meter).len(), 7);
        assert_eq!((cache.len(), cache.sorted_prefix), (0, 0));
        cache.write(delta(1, 3));
        assert_eq!(cache.read(1, &mut meter).true_cardinality(), 1);
    }

    proptest! {
        /// Random write / read / flush sequences against a twin that re-sorts the
        /// whole array at every cut.
        #[test]
        fn prop_incremental_cache_matches_full_resort_twin(
            ops in proptest::collection::vec((0u8..4, 0usize..12, 0usize..12), 0..24),
        ) {
            let mut meter = CostMeter::new();
            let mut cache = SecureCache::new();
            let mut twin = SharedArrayPair::new();
            for (kind, a, b) in ops {
                if kind < 2 {
                    cache.write(delta(a, b));
                    twin.extend(delta(a, b)).unwrap();
                    continue;
                }
                let mut before = cache.entries.recover_all();
                let twin_fetched = cache_read(&mut twin, a + b, &mut meter);
                let fetched = if kind == 2 {
                    cache.read(a + b, &mut meter)
                } else {
                    twin.clear();
                    cache.flush(a + b, &mut meter)
                };
                prop_assert_eq!(fetched.len(), twin_fetched.len());
                prop_assert_eq!(fetched.true_cardinality(), twin_fetched.true_cardinality());
                prop_assert_eq!(cache.len(), twin.len());
                prop_assert_eq!(cache.true_cardinality(), twin.true_cardinality());
                prop_assert!(real_first(&fetched) && real_first(&cache.entries));
                prop_assert_eq!(cache.sorted_prefix, cache.len());
                if kind == 2 {
                    // No row lost or duplicated.
                    let mut after = fetched.recover_all();
                    after.extend(cache.entries.recover_all());
                    let by_row = |r: &PlainRecord| (r.is_view, r.fields.clone());
                    before.sort_by_key(by_row);
                    after.sort_by_key(by_row);
                    prop_assert_eq!(before, after);
                }
            }
        }
    }
}
