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
//! it compacts only those new rows into a real-first run, merges runs
//! log-structured-merge fashion, and merges the few rows at the head of each run —
//! the only ones a fetch of that size can reach — instead of sorting them.
//!
//! Every cut also **trims** each run to a public bound `R` past which its rows are
//! dummies with probability ≥ 1 − β, and recycles the rest; its merges are priced
//! for, and cut to, the rows it keeps. The seal, the merges and the read all run on
//! the host as [`partition_by_is_view`], each charged as its network (a declared
//! kernel substitution). See [`SecureCache`].

use incshrink_mpc::cost::{CostMeter, MeteredSpan};
use incshrink_oblivious::{compact_by_is_view, partition_by_is_view, Network};
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
    /// Total entries recycled (discarded) by flushes and by the trims of every cut.
    pub recycled: u64,
    /// Real entries the trims of reads recycled — the seal's, the merges' and the
    /// read's: reconstructed from the hidden flags, for tests and reporting only.
    pub trimmed_real: u64,
    /// Number of flush operations performed.
    pub flush_count: u64,
    /// Number of run merges performed.
    pub merges: u64,
    /// Total rows those merges covered (both runs of each, before the cut).
    pub merged_rows: u64,
}

/// The secure outsourced cache.
///
/// **Layout.** Sealed runs, oldest first, each in `isView` order, then the unsorted
/// tail of rows written since the last cut. A cut (`read` or `flush`) of public size
/// `sz` keeps at most `keep = sz + R` rows of any run (`sz` for a flush, which
/// recycles the rest). It (1) *seals*: compacts the tail into a new run, reals first
/// in arrival order, keeps its first `keep` rows and adds it, each merge that fires
/// priced as the network pruned to the first `keep` rows and its merged run cut to
/// them at once; (2) *reads*: takes the first `min(sz, len)` rows of every run — each
/// run is real-first, so those hold `min(sz, reals in the run)` reals and together at
/// least `min(sz, reals in the cache)` — merges these heads into one real-first list,
/// priced as [`Network::merge`] (a tournament of bitonic merges, or the Batcher sort
/// where that is smaller) pruned to `keep`, and fetches its first `sz` rows: exactly
/// as many reals as a sort of the whole cache would have fetched; (3)
/// *trims* the unfetched candidates and every surviving run to their first `R` rows
/// and writes the candidates back as the newest run, still real-first — unpruned, as
/// the next cut's size is unknown — or, in a flush, recycles them and every run.
///
/// **Trim.** `sz = round(c + Lap(b/ε_sync))`, clamped at 0, and the counter `c`
/// counts the cached reals, so more than `R = ⌈(b/ε_sync)·ln(1/(2β)) + ½⌉` reals
/// outlive a cut, or the tail holds more than `sz + R`, with probability ≤ β
/// (`incshrink_dp::laplace::count_shortfall_bound`). A trimmed real is lost like a
/// flushed one and stays counted in `c`, which can only make a later `sz` larger
/// (**declared**). A cache built without `R` never trims.
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
/// **Leakage.** Run lengths, the merge schedule, the candidate count, every trim,
/// `keep` (a function of `sz` and `R` alone) and every network shape are a function
/// of the sequence of write sizes, cut sizes and flushes — the `CacheAppend` /
/// `ViewSync` / `CacheFlush` sizes both servers observe anyway — and of the public
/// `b`, `ε` and β alone, never of the contents.
/// The seal's compaction swaps wires fixed by the tail's length; only its bits are secret.
#[derive(Debug, Clone)]
pub struct SecureCache {
    runs: Vec<Run>,
    tail: SharedArrayPair,
    stats: CacheStats,
    words: usize,
    bound: usize,
}

/// One sealed run.
#[derive(Debug, Clone)]
struct Run {
    /// Real-first: the reals, then the dummies.
    rows: SharedArrayPair,
    /// Sealed tails merged into this run.
    seals: u32,
}

impl SecureCache {
    /// Empty cache whose networks swap `words` words a row besides `isView` (fetches
    /// move whole rows) and whose cuts trim every run to its first `bound` rows
    /// (`None`: never). The pipeline's view rows carry their join key twice, so it
    /// passes their arity less one: the copy is restored after each network by a
    /// local copy of shares, no gate (**declared kernel substitution**).
    #[must_use]
    pub fn new(words: usize, bound: Option<usize>) -> Self {
        Self {
            runs: Vec::new(),
            tail: SharedArrayPair::new(),
            stats: CacheStats::default(),
            words,
            bound: bound.unwrap_or(usize::MAX),
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

    /// Add the real-first `rows`, holding `seals` sealed tails, as the newest run,
    /// then merge the last two runs while the merge rule asks for it, each merge
    /// pruned to its first `keep` rows and the rest recycled. Returns the number of
    /// real rows recycled.
    fn push_run(
        &mut self,
        rows: SharedArrayPair,
        seals: u32,
        keep: usize,
        meter: &mut CostMeter,
    ) -> u64 {
        let mut trimmed = 0;
        if rows.is_empty() {
            return trimmed;
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
            Network::merge(&runs, keep).charge_flag_keyed(self.words as u64, meter);
            partition_by_is_view(&mut older.rows);
            self.stats.merges += 1;
            self.stats.merged_rows += older.rows.len() as u64;
            trimmed += trim(&mut older.rows, keep, &mut self.stats);
        }
        if let Some(span) = span {
            span.close(meter);
        }
        trimmed
    }

    /// Seal the tail, fetch the first `size` entries in `isView` order out of the
    /// heads of the runs, keeping at most `keep` rows of any run, and write the
    /// unfetched candidates back — in the child spans `cache.seal`, `cache.merge`
    /// and `cache.read`. A read keeps the fetch and the next `R`; a flush keeps
    /// the fetch alone, so it recycles every other row and writes nothing back.
    /// Returns the fetched entries and the number of real rows the trims recycled.
    fn cut(&mut self, size: usize, keep: usize, meter: &mut CostMeter) -> (SharedArrayPair, u64) {
        debug_assert!(
            self.runs.iter().all(|run| run
                .rows
                .entries()
                .windows(2)
                .all(|w| w[0].is_view.recover() >= w[1].is_view.recover())),
            "every run must be real-first"
        );
        let seal = MeteredSpan::enter("cache.seal", meter);
        // Split off, not taken: the tail is left with its capacity for the next writes.
        let mut tail = self.tail.split_back(self.tail.len());
        compact_by_is_view(&mut tail, self.words, meter);
        let mut trimmed = trim(&mut tail, keep, &mut self.stats);
        seal.close(meter);
        trimmed += self.push_run(tail, 1, keep, meter);

        let read = MeteredSpan::enter("cache.read", meter);
        let (mut heads, mut candidates) = (Vec::new(), SharedArrayPair::new());
        for run in &mut self.runs {
            trimmed += trim(&mut run.rows, keep, &mut self.stats);
            let head = run.rows.split_front(size);
            heads.push(head.len());
            candidates
                .extend(head)
                .expect("view entries share one arity");
        }
        self.runs.retain(|run| !run.rows.is_empty());
        Network::merge(&heads, keep).charge_flag_keyed(self.words as u64, meter);
        partition_by_is_view(&mut candidates);
        trimmed += trim(&mut candidates, keep, &mut self.stats);
        let fetched = candidates.split_front(size);
        let width = fetched.arity().unwrap_or(0) as u64 + 1;
        meter.bytes(fetched.len() as u64 * width * 4);
        read.close(meter);
        // Unpruned: the next cut's size, which would cut this merge, is unknown.
        trimmed += self.push_run(candidates, 0, usize::MAX, meter);
        (fetched, trimmed)
    }

    /// The Shrink cache read: fetch the first `read_size` entries of the cache in
    /// `isView` order (Figure 3). Returns the fetched entries, real tuples first.
    pub fn read(&mut self, read_size: usize, meter: &mut CostMeter) -> SharedArrayPair {
        let (fetched, trimmed_real) =
            self.cut(read_size, read_size.saturating_add(self.bound), meter);
        self.stats.read += fetched.len() as u64;
        self.stats.trimmed_real += trimmed_real;
        fetched
    }

    /// The independent flush mechanism (Section 5.2.1): cut a fixed `flush_size`
    /// prefix to be synchronized immediately, and recycle (drop) the remainder.
    /// Returns the fetched prefix.
    pub fn flush(&mut self, flush_size: usize, meter: &mut CostMeter) -> SharedArrayPair {
        let (fetched, _) = self.cut(flush_size, flush_size, meter);
        self.stats.flushed += fetched.len() as u64;
        self.stats.flush_count += 1;
        fetched
    }
}

/// Recycle every row of `rows` past its first `keep` into `stats`, and return how
/// many of them were real.
fn trim(rows: &mut SharedArrayPair, keep: usize, stats: &mut CacheStats) -> u64 {
    let recycled = rows.split_back(rows.len().saturating_sub(keep));
    stats.recycled += recycled.len() as u64;
    recycled.true_cardinality() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_oblivious::{batcher_pair_count, compact::cache_read, Network};
    use incshrink_secretshare::tuple::PlainRecord;
    use incshrink_telemetry::{CostDelta, Event, InMemory};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;
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
        let mut cache = SecureCache::new(1, None);
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
        let mut cache = SecureCache::new(1, None);
        cache.write(delta(2, 10));
        let fetched = cache.flush(5, &mut CostMeter::new());
        assert_eq!((fetched.len(), fetched.true_cardinality()), (5, 2));
        assert!(cache.is_empty(), "remainder recycled");
        let s = cache.stats();
        assert_eq!((s.flushed, s.recycled, s.flush_count), (5, 7, 1));
    }

    #[test]
    fn read_more_than_cache_size_drains() {
        let mut cache = SecureCache::new(1, None);
        cache.write(delta(1, 2));
        assert_eq!(cache.read(10, &mut CostMeter::new()).len(), 3);
        assert!(cache.is_empty());
    }

    #[test]
    fn flush_with_larger_size_than_cache() {
        let mut cache = SecureCache::new(1, None);
        cache.write(delta(2, 2));
        assert_eq!(cache.flush(100, &mut CostMeter::new()).len(), 4);
        assert_eq!(cache.stats().recycled, 0);
    }

    #[test]
    fn cuts_trim_the_tail_to_size_plus_bound_and_every_run_to_bound() {
        let mut meter = CostMeter::new();
        let mut cache = SecureCache::new(1, Some(2));
        cache.write(delta(3, 10));
        assert_eq!(cache.read(4, &mut meter).true_cardinality(), 3);
        // The sealed tail kept 4 + 2 rows; the 2 unfetched candidates stay.
        assert_eq!((cache.run_lens(), cache.stats().recycled), (vec![2], 7));
        // More new reals than the read plus R: the tail's excess is trimmed, and so
        // is the merged run's past its first R.
        cache.write(delta(5, 0));
        assert_eq!(cache.read(1, &mut meter).true_cardinality(), 1);
        assert_eq!((cache.run_lens(), cache.true_cardinality()), (vec![2], 2));
        let s = cache.stats();
        assert_eq!((s.recycled, s.trimmed_real), (11, 2));
        // A flush recycles the rest, reals included, as the paper's flush does; the
        // trim's count is for reads alone.
        assert_eq!(cache.flush(1, &mut meter).true_cardinality(), 1);
        let s = cache.stats();
        assert_eq!((s.recycled, s.trimmed_real, cache.len()), (12, 2, 0));
        // Without a bound nothing is trimmed.
        let mut untrimmed = SecureCache::new(1, None);
        untrimmed.write(delta(3, 10));
        drop(untrimmed.read(4, &mut meter));
        assert_eq!((untrimmed.len(), untrimmed.stats().recycled), (9, 0));
    }

    /// Every span `act` emits, by name, with its cost.
    fn spans_of(act: impl FnOnce()) -> Vec<(String, CostDelta)> {
        let sink = Arc::new(InMemory::new());
        let guard = incshrink_telemetry::install(sink.clone());
        act();
        drop(guard);
        let spans = sink.take().into_iter().filter_map(|event| match event {
            Event::Span(span) => Some((span.name, span.cost.expect("cut spans carry their cost"))),
            _ => None,
        });
        spans.collect()
    }

    #[test]
    fn a_cascade_charges_each_merge_pruned_to_the_rows_the_cut_keeps() {
        let (bound, size) = (6, 2);
        let keep = size + bound;
        let (mut cache, mut meter) = (SecureCache::new(2, Some(bound)), CostMeter::new());
        // Four cuts leave runs of 3 and 1 sealed tails and the candidates of the
        // last read; the fifth seal merges into all three.
        for _ in 0..4 {
            cache.write(delta(2, 9));
            drop(cache.read(size, &mut meter));
        }
        let seals: Vec<u32> = cache.runs.iter().map(|run| run.seals).collect();
        assert_eq!(seals, [3, 1, 0]);
        cache.write(delta(2, 9));

        // The seal's cascade replayed over public lengths: the tail cut to `keep`,
        // then every merge over the run the last one kept; unpruned, every merge
        // over whole runs.
        let mut runs: Vec<(usize, u32)> =
            cache.runs.iter().map(|r| (r.rows.len(), r.seals)).collect();
        let mut newer = (cache.tail.len().min(keep), 1);
        let mut whole = newer.0;
        let (mut pruned, mut unpruned, mut merges) = (0, 0, 0);
        while let Some(&(older, seals)) = runs.last() {
            if seals > MERGE_RATIO * newer.1 {
                break;
            }
            runs.pop();
            pruned += Network::merge(&[older, newer.0], keep).count();
            unpruned += Network::merge(&[older, whole], usize::MAX).count();
            (newer, whole, merges) = (
                ((older + newer.0).min(keep), seals + newer.1),
                older + whole,
                merges + 1,
            );
        }
        assert_eq!(merges, 3);

        let before = cache.stats().merges;
        let spans = spans_of(|| drop(cache.read(size, &mut meter)));
        let (_, merge) = spans
            .iter()
            .find(|(name, _)| name == "cache.merge")
            .expect("a cascade");
        assert_eq!((merge.ands, merge.swaps), (pruned, 2 * pruned));
        assert_eq!(cache.stats().merges - before, merges);
        assert!(
            pruned < unpruned,
            "{pruned} comparators pruned of {unpruned}"
        );
        assert_eq!(cache.stats().trimmed_real, 0);
    }

    #[test]
    fn reals_a_merge_cuts_off_count_as_trimmed() {
        let mut meter = CostMeter::new();
        let mut cache = SecureCache::new(1, Some(2));
        // A sealed run of 2 reals, none fetched, then 2 more reals merged into it
        // by a read of 1: the merge keeps 1 + R = 3 rows and recycles a real. The
        // tail and the surviving run are within bounds, so only the merge trims.
        cache.write(delta(2, 0));
        assert!(cache.read(0, &mut meter).is_empty());
        cache.write(delta(2, 0));
        assert_eq!(cache.read(1, &mut meter).true_cardinality(), 1);
        let s = cache.stats();
        assert_eq!((s.merges, s.recycled, s.trimmed_real), (1, 1, 1));
        assert_eq!((cache.run_lens(), cache.true_cardinality()), (vec![2], 2));
    }

    /// Four runs whose heads are all real: sealed tails of 8, 3 and 1 and the
    /// candidates of the last read, each kept to `R` = 6, every real still cached,
    /// beside a twin that re-sorts the array at every read and never trims.
    fn four_real_runs() -> (SecureCache, SharedArrayPair, CostMeter) {
        let (mut cache, mut twin) = (SecureCache::new(1, Some(6)), SharedArrayPair::new());
        let mut meter = CostMeter::new();
        // Reads of 0 seal without fetching: eight seals merge into one run of 4
        // reals, three more into a second, and the twelfth tail stays alone.
        let writes = [1, 1, 1, 1, 0, 0, 0, 0, 2, 1, 1].map(|real| (real, 2));
        for (real, dummy) in writes.into_iter().chain([(5, 0)]) {
            cache.write(delta(real, dummy));
            twin.extend(delta(real, dummy)).unwrap();
            let size = if real == 5 { 3 } else { 0 };
            let fetched = cache.read(size, &mut meter);
            let twin_fetched = cache_read(&mut twin, size, &mut meter);
            assert_eq!(fetched.true_cardinality(), twin_fetched.true_cardinality());
        }
        let seals: Vec<u32> = cache.runs.iter().map(|run| run.seals).collect();
        assert_eq!(
            (seals, cache.run_lens()),
            (vec![8, 3, 1, 0], vec![3, 3, 2, 6])
        );
        assert_eq!(
            (cache.true_cardinality(), cache.stats().trimmed_real),
            (10, 0)
        );
        (cache, twin, meter)
    }

    #[test]
    fn a_second_read_keeps_both_candidate_runs_whole() {
        let (mut cache, mut twin, mut meter) = four_real_runs();
        // No write: the four heads of 1 leave 3 candidates, which merge with the 5
        // the last candidates kept — all real, more than 1 + R, none recycled.
        for size in [1, 20] {
            let fetched = cache.read(size, &mut meter);
            let twin_fetched = cache_read(&mut twin, size, &mut meter);
            assert_eq!(fetched.true_cardinality(), twin_fetched.true_cardinality());
            if size == 1 {
                assert_eq!(cache.run_lens(), [2, 2, 1, 8]);
            }
        }
        assert_eq!(
            (cache.true_cardinality(), cache.stats().trimmed_real),
            (0, 0)
        );
    }

    #[test]
    fn a_flush_writes_nothing_back() {
        let (mut cache, _, mut meter) = four_real_runs();
        let rows = cache.len() as u64;
        let (stats, spans) = (cache.stats(), spans_of(|| drop(cache.flush(1, &mut meter))));
        // Heads of 1, pruned to the 1 the flush fetches; the 3 other candidates are
        // recycled with the runs, never merged back.
        let names: Vec<&str> = spans.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["cache.seal", "cache.read"]);
        let read = Network::merge(&[1, 1, 1, 1], 1).count();
        assert!(read < Network::merge(&[1, 1, 1, 1], usize::MAX).count());
        assert_eq!(spans[1].1.ands, read);
        assert!(cache.is_empty());
        let s = cache.stats();
        assert_eq!((s.flushed, s.recycled - stats.recycled), (1, rows - 1));
    }

    fn real_first(rows: &[PlainRecord]) -> bool {
        rows.windows(2).all(|w| w[0].is_view >= w[1].is_view)
    }

    /// Every row of the cache.
    fn rows(cache: &SecureCache) -> Vec<PlainRecord> {
        let runs = cache.runs.iter().flat_map(|run| run.rows.recover_all());
        runs.chain(cache.tail.recover_all()).collect()
    }

    #[test]
    fn runs_survive_sync_then_flush_drain_and_empty_write() {
        let mut meter = CostMeter::new();
        let mut cache = SecureCache::new(1, None);

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

    /// One cache operation by its released size; a write also names its reals.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Write(usize, usize),
        Read(usize),
        Flush(usize),
    }

    /// Three writes in five, one read, one flush.
    fn op((kind, size): (u8, usize)) -> Op {
        match kind {
            0..=2 => Op::Write(size, 0),
            3 => Op::Read(size),
            _ => Op::Flush(size),
        }
    }

    /// The shape of [`four_real_runs`] for a bound `R`: eleven writes of `R + 1`
    /// rows, one real, each sealed by a read of 0 (runs of 8 and 3 sealed tails,
    /// `R` rows each), a twelfth sealed by a read of `R − 1`, whose candidates keep
    /// `R` rows, then a read of 1 with no write: its `min(3, R)` candidates merge
    /// with the `R − 1` rows the last ones kept, more than `R` for every `R ≥ 2`.
    /// Random operations reach that write-back merge next to never: it needs three
    /// counted runs, 12 seals without a flush.
    fn four_runs_then_a_read(bound: usize) -> Vec<Op> {
        let sealed = [Op::Write(bound + 1, 1), Op::Read(0)];
        let mut ops: Vec<Op> = sealed.into_iter().cycle().take(23).collect();
        ops.extend([Op::Read(bound.saturating_sub(1)), Op::Read(1)]);
        ops
    }

    /// The layout as a pure function of released sizes and the bound `R`:
    /// `(length, seals, reals)` of every run (oldest first) and the tail's `(length,
    /// reals)` after `op`; lengths and seals never depend on the reals, a real-first
    /// list keeps `min(reals, k)` in its first `k` rows. Returns the number of
    /// candidates a cut reads (0 for a write) and the reals it fetches.
    fn reference_layout(
        runs: &mut Vec<(usize, u32, usize)>,
        tail: &mut (usize, usize),
        op: Op,
        bound: usize,
    ) -> (usize, usize) {
        fn push(runs: &mut Vec<(usize, u32, usize)>, run: (usize, u32, usize)) {
            if run.0 == 0 {
                return;
            }
            runs.push(run);
            while let [.., older, newer] = runs[..] {
                if older.1 > 2 * newer.1 {
                    break;
                }
                runs.truncate(runs.len() - 2);
                runs.push((older.0 + newer.0, older.1 + newer.1, older.2 + newer.2));
            }
        }
        // The first `k` rows of a real-first `(length, reals)`.
        let head = |(len, reals): (usize, usize), k: usize| (len.min(k), reals.min(k));
        match op {
            Op::Write(rows, reals) => {
                *tail = (tail.0 + rows, tail.1 + reals);
                (0, 0)
            }
            Op::Read(size) | Op::Flush(size) => {
                let (len, reals) = head(std::mem::take(tail), size.saturating_add(bound));
                push(runs, (len, 1, reals));
                let mut candidates = (0, 0);
                for run in runs.iter_mut() {
                    let (len, reals) = head((run.0, run.2), size);
                    candidates = (candidates.0 + len, candidates.1 + reals);
                    (run.0, run.2) = head((run.0 - len, run.2 - reals), bound);
                }
                runs.retain(|r| r.0 > 0);
                let fetched = head(candidates, size);
                let rest = head((candidates.0 - fetched.0, candidates.1 - fetched.1), bound);
                push(runs, (rest.0, 0, rest.1));
                if matches!(op, Op::Flush(_)) {
                    runs.clear();
                }
                (candidates.0, fetched.1)
            }
        }
    }

    proptest! {
        /// Equal released sizes, different contents: equal layouts — the one the
        /// size sequence and `R` alone predict — and equal charges, operation by
        /// operation; and no cut's read charges more than a Batcher sort of the
        /// candidates it merges. `R` is small (8 means no bound), so trims fire;
        /// half the cases start with [`four_runs_then_a_read`].
        #[test]
        fn prop_layout_and_cost_are_a_function_of_released_sizes(
            ops in proptest::collection::vec((0u8..5, 0usize..40), 0..40),
            bound in 0usize..9,
            seeded: bool,
        ) {
            let seed = if seeded { four_runs_then_a_read(bound.min(7)) } else { Vec::new() };
            let bound = (bound < 8).then_some(bound);
            // All dummies, a third real, all real.
            let contents: [fn(usize) -> usize; 3] = [|_| 0, |rows| rows / 3, |rows| rows];
            let mut caches = contents.map(|real| (real, SecureCache::new(1, bound), CostMeter::new()));
            let (mut runs, mut tail) = (Vec::new(), (0, 0));
            let sink = Arc::new(InMemory::new());
            let _guard = incshrink_telemetry::install(sink.clone());
            for op in seed.into_iter().chain(ops.into_iter().map(op)) {
                let (read, _) = reference_layout(&mut runs, &mut tail, op, bound.unwrap_or(usize::MAX));
                let batcher = batcher_pair_count(read);
                let mut charged = Vec::new();
                for (real, cache, meter) in &mut caches {
                    match op {
                        Op::Write(rows, _) => cache.write(delta(real(rows), rows - real(rows))),
                        Op::Read(size) => drop(cache.read(size, meter)),
                        Op::Flush(size) => drop(cache.flush(size, meter)),
                    }
                    let lens: Vec<usize> = runs.iter().map(|r| r.0).collect();
                    prop_assert_eq!(cache.run_lens(), lens, "{:?}", op);
                    prop_assert_eq!(cache.tail.len(), tail.0);
                    charged.push(meter.take());
                }
                prop_assert!(charged.iter().all(|report| *report == charged[0]), "{:?}", op);
                let recycled = caches.each_ref().map(|(_, cache, _)| cache.stats().recycled);
                prop_assert!(recycled.iter().all(|&r| r == recycled[0]));
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
        /// whole array at every cut (the paper's Figure 3) and keeps the
        /// remainder's first `R` rows (8 means no bound), and against the reals
        /// [`reference_layout`] predicts for every run and fetch; half the cases
        /// start with [`four_runs_then_a_read`], one real row a write.
        #[test]
        fn prop_incremental_cache_matches_full_resort_twin(
            ops in proptest::collection::vec((0u8..4, 0usize..12, 0usize..12), 0..24),
            bound in 0usize..9,
            seeded: bool,
        ) {
            let seed = if seeded { four_runs_then_a_read(bound.min(7)) } else { Vec::new() };
            let ops = ops.into_iter().map(|(kind, a, b)| match kind {
                0 | 1 => Op::Write(a + b, a),
                2 => Op::Read(a + b),
                _ => Op::Flush(a + b),
            });
            let bound = (bound < 8).then_some(bound);
            let mut meter = CostMeter::new();
            let mut cache = SecureCache::new(1, bound);
            let mut twin = SharedArrayPair::new();
            let (mut runs, mut tail) = (Vec::new(), (0, 0));
            let (mut seals, mut twin_trimmed) = (0u32, 0);
            // Real rows written, and fetched by each side.
            let (mut written, mut fetched_real, mut twin_fetched_real) = (0, 0, 0);
            for op in seed.into_iter().chain(ops) {
                let (_, reals) = reference_layout(&mut runs, &mut tail, op, bound.unwrap_or(usize::MAX));
                let size = match op {
                    Op::Write(rows, real) => {
                        cache.write(delta(real, rows - real));
                        twin.extend(delta(real, rows - real)).unwrap();
                        written += real;
                        continue;
                    }
                    Op::Read(size) | Op::Flush(size) => size,
                };
                let (before, recycled) = (rows(&cache), cache.stats().recycled);
                seals += u32::from(!cache.tail.is_empty());
                let twin_fetched = cache_read(&mut twin, size, &mut meter);
                let fetched = if let Op::Read(_) = op {
                    let keep = bound.unwrap_or(usize::MAX);
                    twin_trimmed += twin.split_back(twin.len().saturating_sub(keep)).true_cardinality();
                    cache.read(size, &mut meter)
                } else {
                    twin.clear();
                    cache.flush(size, &mut meter)
                };
                // Every run and fetch holds the reals its released sizes predict.
                prop_assert_eq!(fetched.true_cardinality(), reals);
                let run_reals: Vec<usize> = cache.runs.iter().map(|run| run.rows.true_cardinality()).collect();
                prop_assert_eq!(run_reals, runs.iter().map(|run| run.2).collect::<Vec<_>>());
                fetched_real += fetched.true_cardinality();
                twin_fetched_real += twin_fetched.true_cardinality();
                // The cache holds at least the twin's rows (each run keeps up to R).
                prop_assert!(fetched.len() >= twin_fetched.len());
                // While the twin's trims recycled no real row, both are Figure 3.
                if twin_trimmed == 0 {
                    prop_assert_eq!(fetched.true_cardinality(), twin_fetched.true_cardinality());
                    prop_assert_eq!(cache.true_cardinality(), twin.true_cardinality());
                    prop_assert_eq!(cache.stats().trimmed_real, 0);
                }
                // The cache never recycles more reals than the twin.
                let lost = written - fetched_real - cache.true_cardinality();
                prop_assert!(lost <= written - twin_fetched_real - twin.true_cardinality());
                prop_assert!(cache.stats().trimmed_real as usize <= twin_trimmed);
                // Every fetched dummy implies no real left behind.
                prop_assert!(fetched.true_cardinality() == fetched.len() || cache.true_cardinality() == 0);
                prop_assert!(real_first(&fetched.recover_all()));
                prop_assert!(cache.runs.iter().all(|run| real_first(&run.rows.recover_all())));
                // Seal counts fall strictly with age and sum to at most the seals
                // since the last flush: ⌊log₂ s⌋ + 1 counted runs and the candidates.
                prop_assert!(cache.tail.is_empty());
                prop_assert!(cache.runs.windows(2).all(|w| w[0].seals > w[1].seals));
                prop_assert!(cache.runs.iter().map(|run| run.seals).sum::<u32>() <= seals);
                prop_assert!(cache.runs.len() as u32 <= seals.checked_ilog2().map_or(1, |log| log + 2));
                if let Op::Flush(_) = op {
                    seals = 0;
                    continue;
                }
                // No row duplicated, and every row gone was recycled.
                let mut left = BTreeMap::new();
                for row in before {
                    *left.entry((row.is_view, row.fields)).or_insert(0i64) += 1;
                }
                for row in fetched.recover_all().into_iter().chain(rows(&cache)) {
                    *left.entry((row.is_view, row.fields)).or_insert(0) -= 1;
                }
                prop_assert!(left.values().all(|&count| count >= 0));
                let gone = cache.stats().recycled - recycled;
                prop_assert_eq!(left.values().sum::<i64>(), gone as i64);
            }
        }
    }
}
