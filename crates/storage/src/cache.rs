//! The secure outsourced cache `σ`.
//!
//! A secret-shared memory block holding newly generated (exhaustively padded) view
//! entries awaiting synchronization into the materialized view (Section 2.2). The
//! cache supports the three operations the view-update protocol needs: *write*
//! (append a padded ΔV), *read* (fetch a DP-sized number of entries, real tuples
//! before dummies), and *flush* (fixed-size fetch followed by recycling the
//! remainder).
//!
//! The paper's Figure 3 re-sorts the whole cache by `isView` at every read. Here
//! the cache rests as a short list of **real-first runs** of public length plus the
//! rows written since the last read, and a read costs in proportion to what arrived:
//! it sorts only those new rows into a run, merges runs log-structured-merge
//! fashion, and merges the few rows at the head of each run — the only ones a fetch
//! of that size can reach — instead of sorting them. See [`SecureCache`].

use incshrink_mpc::cost::{CostMeter, MeteredSpan};
use incshrink_oblivious::sort::SortOrder::Descending;
use incshrink_oblivious::sort::{oblivious_merge_by_is_view, oblivious_sort_by_is_view};
use incshrink_secretshare::arrays::SharedArrayPair;
use serde::{Deserialize, Serialize};

/// The merge rule's ratio: the newest run is merged into its elder while the elder
/// counts at most this many times the newer's sealed tails.
const MERGE_RATIO: u32 = 2;

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
    /// Number of run merges performed.
    pub merges: u64,
    /// Total rows those merges covered (both runs of each).
    pub merged_rows: u64,
}

/// The secure outsourced cache.
///
/// **Layout.** Sealed runs, oldest first, each in `isView` order, then the unsorted
/// tail of rows written since the last cut. A cut (`read` or `flush`) of public size
/// `sz` (1) *seals*: Batcher-sorts the tail into a new run; (2) *reads*: takes the
/// first `min(sz, len)` rows of every run — each run is real-first, so those hold
/// `min(sz, reals in the run)` reals and together at least `min(sz, reals in the
/// cache)` — merges these heads into one real-first list with the merge-only
/// operator (a tournament of bitonic merges, or the Batcher sort where that is
/// smaller) and fetches its first `sz` rows: exactly as many reals as a sort of the
/// whole cache would have fetched; (3) writes the unfetched candidates back as the
/// newest run, still real-first.
///
/// **Merge rule.** Every run counts the sealed tails merged into it: a sealed tail
/// enters with 1, written-back candidates with 0 (their rows were counted when they
/// were first sealed). Whenever a run is added, the last two runs are merged while
/// the older counts at most `MERGE_RATIO` = 2 times the newer, at cuts fixed by
/// *when* cuts happen alone (a length rule is tipped all the way up the list by
/// every DP-noised cut size: one noise draw, one more whole-cache merge). A ratio
/// of 1 is a binary counter; 2 merges a little earlier and leaves fewer heads for
/// every read to merge, which prices lower on both benchmark ingest workloads.
///
/// **Run count.** Between cuts every count is more than twice the next newer one (a
/// merge stops exactly there; a 0 is absorbed), and the counts sum to at most the
/// `s` seals since the last flush: at most `⌊log₂ s⌋ + 1` counted runs plus the one
/// candidates run, `k ≤ ⌊log₂ s⌋ + 2`. A cut only removes runs it empties, which
/// keeps the ratios.
///
/// **Leakage.** Run lengths, the merge schedule, the candidate count and every
/// network shape are a function of the sequence of write sizes, cut sizes and
/// flushes alone — the `CacheAppend` / `ViewSync` / `CacheFlush` sizes both servers
/// observe anyway — never of the contents.
#[derive(Debug, Clone)]
pub struct SecureCache {
    runs: Vec<Run>,
    tail: SharedArrayPair,
    stats: CacheStats,
    words: usize,
}

/// One sealed run.
#[derive(Debug, Clone)]
struct Run {
    /// Kept back to front (dummies first), so the real-first head a cut takes is
    /// the `Vec`'s cheap end.
    rows: SharedArrayPair,
    /// Sealed tails merged into this run.
    seals: u32,
}

impl SecureCache {
    /// Empty cache whose networks swap `words` words a row besides `isView` (fetches
    /// move whole rows). The pipeline's view rows carry their join key twice, so it
    /// passes their arity less one: the copy is restored after each network by a
    /// local copy of shares, no gate (**declared kernel substitution**).
    #[must_use]
    pub fn new(words: usize) -> Self {
        Self {
            runs: Vec::new(),
            tail: SharedArrayPair::new(),
            stats: CacheStats::default(),
            words,
        }
    }

    /// Current (padded) length of the cache.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.iter().map(|run| run.rows.len()).sum::<usize>() + self.tail.len()
    }

    /// True when the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.tail.is_empty()
    }

    /// Lengths of the sealed runs, oldest first; the unsorted tail is the rest of
    /// [`Self::len`]. Public knowledge: a function of released sizes alone.
    #[must_use]
    pub fn run_lens(&self) -> Vec<usize> {
        self.runs.iter().map(|run| run.rows.len()).collect()
    }

    /// Number of real view entries currently cached. Protocol-internal / test use
    /// only: reconstructs the hidden flags.
    #[must_use]
    pub fn true_cardinality(&self) -> usize {
        let runs = self.runs.iter().map(|run| &run.rows);
        runs.chain([&self.tail])
            .map(SharedArrayPair::true_cardinality)
            .sum()
    }

    /// Activity statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Append a padded ΔV produced by Transform (`σ ← σ || ΔV`, Algorithm 1 line 7).
    pub fn write(&mut self, delta: SharedArrayPair) {
        self.stats.written += delta.len() as u64;
        self.tail
            .extend(delta)
            .expect("view entries share one arity");
    }

    /// Add `rows`, in run order (back to front: dummies, then reals) and holding
    /// `seals` sealed tails, as the newest run, then merge the last two runs while
    /// the merge rule asks for it.
    fn push_run(&mut self, rows: SharedArrayPair, seals: u32, meter: &mut CostMeter) {
        if rows.is_empty() {
            return;
        }
        self.runs.push(Run { rows, seals });
        let mut span = None;
        while let [.., older, newer] = &self.runs[..] {
            if older.seals > MERGE_RATIO * newer.seals {
                break;
            }
            span.get_or_insert_with(|| MeteredSpan::enter("cache.merge", meter));
            let newer = self.runs.pop().expect("two runs");
            let older = self.runs.last_mut().expect("two runs");
            let runs = [older.rows.len(), newer.rows.len()];
            older.seals += newer.seals;
            older
                .rows
                .extend(newer.rows)
                .expect("view entries share one arity");
            oblivious_merge_by_is_view(&mut older.rows, &runs, Descending, self.words, meter);
            self.stats.merges += 1;
            self.stats.merged_rows += older.rows.len() as u64;
        }
        if let Some(span) = span {
            span.close(meter);
        }
    }

    /// Seal the tail, fetch the first `size` entries in `isView` order out of the
    /// heads of the runs, and write the unfetched candidates back — in the child
    /// spans `cache.seal`, `cache.merge` (where runs merge) and `cache.read`.
    fn cut(&mut self, size: usize, meter: &mut CostMeter) -> SharedArrayPair {
        debug_assert!(
            self.runs.iter().all(|run| run
                .rows
                .entries()
                .windows(2)
                .all(|w| w[0].is_view.recover() <= w[1].is_view.recover())),
            "every run must be real-first (kept back to front: dummies, then reals)"
        );
        let seal = MeteredSpan::enter("cache.seal", meter);
        let mut tail = std::mem::take(&mut self.tail);
        oblivious_sort_by_is_view(&mut tail, self.words, meter);
        tail.entries_mut().reverse();
        seal.close(meter);
        self.push_run(tail, 1, meter);

        let read = MeteredSpan::enter("cache.read", meter);
        let (mut heads, mut candidates) = (Vec::new(), SharedArrayPair::new());
        for run in &mut self.runs {
            let head = run.rows.split_back(size);
            heads.push(head.len());
            candidates
                .extend(head)
                .expect("view entries share one arity");
        }
        self.runs.retain(|run| !run.rows.is_empty());
        oblivious_merge_by_is_view(&mut candidates, &heads, Descending, self.words, meter);
        let mut fetched = candidates.split_back(size);
        let width = candidates.arity().unwrap_or(0) as u64 + 1;
        meter.bytes(fetched.len() as u64 * width * 4);
        meter.round();
        fetched.entries_mut().reverse();
        read.close(meter);
        self.push_run(candidates, 0, meter);
        fetched
    }

    /// The Shrink cache read: fetch the first `read_size` entries of the cache in
    /// `isView` order (Figure 3). Returns the fetched entries, real tuples first.
    pub fn read(&mut self, read_size: usize, meter: &mut CostMeter) -> SharedArrayPair {
        let fetched = self.cut(read_size, meter);
        self.stats.read += fetched.len() as u64;
        fetched
    }

    /// The independent flush mechanism (Section 5.2.1): cut a fixed `flush_size`
    /// prefix to be synchronized immediately, and recycle (drop) the remainder.
    /// Returns the fetched prefix.
    pub fn flush(&mut self, flush_size: usize, meter: &mut CostMeter) -> SharedArrayPair {
        let fetched = self.cut(flush_size, meter);
        self.stats.flushed += fetched.len() as u64;
        self.stats.recycled += self.len() as u64;
        self.stats.flush_count += 1;
        self.runs.clear();
        fetched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_oblivious::{batcher_pair_count, compact::cache_read};
    use incshrink_secretshare::tuple::PlainRecord;
    use incshrink_telemetry::{Event, InMemory};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

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
        let mut cache = SecureCache::new(1);
        assert!(cache.is_empty());
        cache.write(delta(3, 5));
        cache.write(delta(2, 6));
        assert_eq!((cache.len(), cache.true_cardinality()), (16, 5));

        let fetched = cache.read(4, &mut CostMeter::new());
        let real_first = (fetched.len(), fetched.true_cardinality());
        assert_eq!(real_first, (4, 4), "real entries fetched first");
        assert_eq!((cache.len(), cache.true_cardinality()), (12, 1));
        let stats = cache.stats();
        assert_eq!((stats.written, stats.read, stats.flush_count), (16, 4, 0));
    }

    #[test]
    fn flush_fetches_prefix_and_recycles_rest() {
        let mut cache = SecureCache::new(1);
        cache.write(delta(2, 10));
        let fetched = cache.flush(5, &mut CostMeter::new());
        assert_eq!((fetched.len(), fetched.true_cardinality()), (5, 2));
        assert!(cache.is_empty(), "remainder recycled");
        let s = cache.stats();
        assert_eq!((s.flushed, s.recycled, s.flush_count), (5, 7, 1));
    }

    #[test]
    fn read_more_than_cache_size_drains() {
        let mut cache = SecureCache::new(1);
        cache.write(delta(1, 2));
        assert_eq!(cache.read(10, &mut CostMeter::new()).len(), 3);
        assert!(cache.is_empty());
    }

    #[test]
    fn flush_with_larger_size_than_cache() {
        let mut cache = SecureCache::new(1);
        cache.write(delta(2, 2));
        assert_eq!(cache.flush(100, &mut CostMeter::new()).len(), 4);
        assert_eq!(cache.stats().recycled, 0);
    }

    fn real_first(rows: &[PlainRecord]) -> bool {
        rows.windows(2).all(|w| w[0].is_view >= w[1].is_view)
    }

    /// A sealed run's rows in logical order (it is kept back to front).
    fn head_first(run: &SharedArrayPair) -> Vec<PlainRecord> {
        let mut rows = run.recover_all();
        rows.reverse();
        rows
    }

    /// Every row of the cache.
    fn rows(cache: &SecureCache) -> Vec<PlainRecord> {
        let runs = cache.runs.iter().flat_map(|run| head_first(&run.rows));
        runs.chain(cache.tail.recover_all()).collect()
    }

    #[test]
    fn runs_survive_sync_then_flush_drain_and_empty_write() {
        let mut meter = CostMeter::new();
        let mut cache = SecureCache::new(1);

        // A sync and a flush in the same step: the flush's seal finds an empty
        // tail, so only the one remaining run's head is sorted.
        cache.write(delta(4, 8));
        assert_eq!(cache.read(3, &mut meter).true_cardinality(), 3);
        assert_eq!(cache.run_lens(), [9]);
        assert!(meter.take().secure_ands > 0);
        assert_eq!(cache.flush(2, &mut meter).true_cardinality(), 1);
        assert_eq!(meter.take().secure_ands, 0, "no seal, one sorted head");
        assert!(cache.is_empty() && cache.run_lens().is_empty());
        assert_eq!(cache.stats().recycled, 7);

        // An empty write changes nothing; a read of 0 seals the tail (the second
        // one-seal run, so the two merge) and fetches nothing.
        cache.write(delta(2, 6));
        assert_eq!(cache.read(1, &mut meter).true_cardinality(), 1);
        cache.write(SharedArrayPair::new());
        assert_eq!((cache.len(), cache.run_lens()), (7, vec![7]));
        cache.write(delta(3, 1));
        assert_eq!((cache.len(), cache.run_lens()), (11, vec![7]));
        assert!(cache.read(0, &mut meter).is_empty());
        assert_eq!((cache.len(), cache.run_lens()), (11, vec![11]));
        let fetched = cache.read(4, &mut meter);
        assert_eq!(fetched.true_cardinality(), 4, "deferred, new reals first");
        assert!(real_first(&fetched.recover_all()));

        // A read larger than the cache drains it, runs and all; so does a flush.
        assert_eq!(cache.read(100, &mut meter).len(), 7);
        assert!(cache.is_empty() && cache.run_lens().is_empty());
        cache.write(delta(1, 3));
        assert_eq!(cache.flush(100, &mut meter).true_cardinality(), 1);
        assert!(cache.is_empty());
        assert!(cache.read(5, &mut meter).is_empty(), "empty read");
    }

    /// One cache operation by its released size.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Write(usize),
        Read(usize),
        Flush(usize),
    }

    /// Three writes in five, one read, one flush.
    fn op((kind, size): (u8, usize)) -> Op {
        match kind {
            0..=2 => Op::Write(size),
            3 => Op::Read(size),
            _ => Op::Flush(size),
        }
    }

    /// The layout as a pure function of released sizes: `(length, seals)` of every
    /// run (oldest first) and the tail length after `op` — what `CacheAppend` /
    /// `ViewSync` / `CacheFlush` already tell both servers. Returns the number of
    /// candidates a cut reads (0 for a write).
    fn reference_layout(runs: &mut Vec<(usize, u32)>, tail: &mut usize, op: Op) -> usize {
        fn push(runs: &mut Vec<(usize, u32)>, (rows, seals): (usize, u32)) {
            if rows == 0 {
                return;
            }
            runs.push((rows, seals));
            while let [.., older, newer] = runs[..] {
                if older.1 > 2 * newer.1 {
                    break;
                }
                runs.truncate(runs.len() - 2);
                runs.push((older.0 + newer.0, older.1 + newer.1));
            }
        }
        match op {
            Op::Write(rows) => {
                *tail += rows;
                0
            }
            Op::Read(size) | Op::Flush(size) => {
                push(runs, (std::mem::take(tail), 1));
                let candidates: usize = runs.iter().map(|r| r.0.min(size)).sum();
                runs.iter_mut().for_each(|r| r.0 -= r.0.min(size));
                runs.retain(|r| r.0 > 0);
                push(runs, (candidates - candidates.min(size), 0));
                if matches!(op, Op::Flush(_)) {
                    runs.clear();
                }
                candidates
            }
        }
    }

    proptest! {
        /// Equal released sizes, different contents: equal layouts — the one the
        /// size sequence alone predicts — and equal charges, operation by
        /// operation; and no cut's read charges more than a Batcher sort of the
        /// candidates it merges.
        #[test]
        fn prop_layout_and_cost_are_a_function_of_released_sizes(
            ops in proptest::collection::vec((0u8..5, 0usize..40), 0..40),
        ) {
            // All dummies, a third real, all real.
            let contents: [fn(usize) -> usize; 3] = [|_| 0, |rows| rows / 3, |rows| rows];
            let mut caches = contents.map(|real| (real, SecureCache::new(1), CostMeter::new()));
            let (mut runs, mut tail) = (Vec::new(), 0);
            let sink = Arc::new(InMemory::new());
            let _guard = incshrink_telemetry::install(sink.clone());
            for op in ops.into_iter().map(op) {
                let batcher = batcher_pair_count(reference_layout(&mut runs, &mut tail, op));
                let mut charged = Vec::new();
                for (real, cache, meter) in &mut caches {
                    match op {
                        Op::Write(rows) => cache.write(delta(real(rows), rows - real(rows))),
                        Op::Read(size) => drop(cache.read(size, meter)),
                        Op::Flush(size) => drop(cache.flush(size, meter)),
                    }
                    let lens: Vec<usize> = runs.iter().map(|r| r.0).collect();
                    prop_assert_eq!(cache.run_lens(), lens, "{:?}", op);
                    prop_assert_eq!(cache.tail.len(), tail);
                    charged.push(meter.take());
                }
                prop_assert!(charged.iter().all(|report| *report == charged[0]), "{:?}", op);
                for event in sink.take() {
                    if let Event::Span(span) = event {
                        let cost = span.cost.expect("cut spans carry their cost");
                        let read = span.name == "cache.read";
                        prop_assert!(!read || (cost.ands <= batcher && cost.swaps <= 2 * batcher));
                    }
                }
            }
        }

        /// Random write / read / flush sequences against a twin that re-sorts the
        /// whole array at every cut (the paper's Figure 3).
        #[test]
        fn prop_incremental_cache_matches_full_resort_twin(
            ops in proptest::collection::vec((0u8..4, 0usize..12, 0usize..12), 0..24),
        ) {
            let mut meter = CostMeter::new();
            let mut cache = SecureCache::new(1);
            let mut twin = SharedArrayPair::new();
            let mut seals = 0u32;
            for (kind, a, b) in ops {
                if kind < 2 {
                    cache.write(delta(a, b));
                    twin.extend(delta(a, b)).unwrap();
                    continue;
                }
                let mut before = rows(&cache);
                seals += u32::from(!cache.tail.is_empty());
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
                // Every fetched dummy implies no real left behind.
                prop_assert!(fetched.true_cardinality() == fetched.len() || cache.true_cardinality() == 0);
                prop_assert!(real_first(&fetched.recover_all()));
                prop_assert!(cache.runs.iter().all(|run| real_first(&head_first(&run.rows))));
                // Seal counts fall strictly with age and sum to at most the seals
                // since the last flush: ⌊log₂ s⌋ + 1 counted runs and the candidates.
                prop_assert!(cache.tail.is_empty());
                prop_assert!(cache.runs.windows(2).all(|w| w[0].seals > w[1].seals));
                prop_assert!(cache.runs.iter().map(|run| run.seals).sum::<u32>() <= seals);
                prop_assert!(cache.runs.len() as u32 <= seals.checked_ilog2().map_or(1, |log| log + 2));
                if kind != 2 {
                    seals = 0;
                }
                if kind == 2 {
                    // No row lost or duplicated.
                    let mut after = fetched.recover_all();
                    after.extend(rows(&cache));
                    let by_row = |r: &PlainRecord| (r.is_view, r.fields.clone());
                    before.sort_by_key(by_row);
                    after.sort_by_key(by_row);
                    prop_assert_eq!(before, after);
                }
            }
        }
    }
}
