//! The cluster shuffle phase: secure re-routing of upload batches from the shard
//! they *arrive* on to the shard that *owns* their join key.
//!
//! The fast path of the cluster layer ([`RoutingPolicy::CoPartitioned`]) assumes
//! records arrive partitioned by join key, so every join pair forms shard-locally.
//! When the arrival partition is a different attribute (a retail chain's uploads
//! grouped by store while the view joins on item id —
//! `incshrink_workload::to_store_partitioned`), pairs span shards and the cluster
//! must re-route deltas before maintenance. [`RoutingPolicy::Shuffled`] inserts a
//! shuffle phase between upload routing and the shard pipelines:
//!
//! ```text
//!  owners ──▶ arrival shards (partition column, e.g. store id)
//!                 │ per arrival pair: ObliShuffle + hashed routing tag
//!                 ▼
//!          S × S padded buckets (fixed bucket size per destination)
//!                 │ per destination pair: concat + ObliCompact + fixed-size cut
//!                 ▼
//!          ownership shards (join-key partition) ──▶ ShardPipeline::advance
//! ```
//!
//! # Leakage
//!
//! Each phase only reveals public quantities. The arrival pairs observe their own
//! (padded) batch sizes; the shuffle emits **fixed-size buckets** (`⌈batch/S⌉ +
//! cushion` records each), so the wire carries the same number of records to every
//! destination regardless of the key distribution; the destination-side compaction
//! cuts the concatenated buckets back to the same fixed per-shard ingest size the
//! co-partitioned router would deliver. True per-destination counts stay hidden
//! unless a bucket (or the ingest cut) overflows its padded size, which is the
//! burst-tolerance contract padded uploads already have — overflow events are
//! counted ([`ShuffleStats::overflow_events`]) so experiments can verify the
//! cushion dominates. A co-partitioned run never enters this module, which is why
//! [`RoutingPolicy::CoPartitioned`] adds no leakage and replays the pre-shuffle
//! run loop bit for bit (modulo the flush-cadence bugfix shipped in the same PR,
//! which changes `S > 1` shard configurations on purpose).

use crate::elastic::{BucketMove, ElasticReport, ElasticRouting};
use incshrink_mpc::cost::{CostMeter, CostModel, SimDuration};
use incshrink_oblivious::shuffle::{shuffle_route, shuffle_route_mapped};
use incshrink_oblivious::Compaction;
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::{PlainRecord, SharedRecordPair};
use incshrink_storage::{RecordId, Relation, UploadBatch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// How the cluster routes owner uploads to shard pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Records arrive partitioned by their join key; every delta is maintained on
    /// the shard it arrives at. This is the historical cluster code path — no
    /// shuffle work, no extra leakage — and replays the pre-shuffle driver bit for
    /// bit *given the same per-shard configuration*. (Trajectories at `S > 1` still
    /// differ from the earlier release because `shard_config` now stretches the
    /// cache-flush interval ×S — the cadence bugfix shipped alongside this policy,
    /// deliberate and independent of the routing dispatch.)
    CoPartitioned,
    /// Records arrive partitioned by a non-join attribute; a shuffle phase
    /// re-routes every delta to the shard owning its join key before maintenance.
    Shuffled {
        /// Additive dummy cushion on every per-destination bucket (on top of the
        /// rate-proportional `⌈batch/S⌉` share), absorbing routing skew the same
        /// way upload batches absorb arrival bursts.
        bucket_cushion: usize,
    },
}

impl RoutingPolicy {
    /// The shuffled policy with the default bucket cushion (2, matching the burst
    /// cushion the workload generators build into upload batches).
    #[must_use]
    pub fn shuffled() -> Self {
        RoutingPolicy::Shuffled { bucket_cushion: 2 }
    }

    /// Short label used in experiment tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::CoPartitioned => "co-partitioned",
            RoutingPolicy::Shuffled { .. } => "shuffled",
        }
    }

    /// Validate the policy's parameters, panicking with a clear message on
    /// nonsense values. A zero bucket cushion is rejected here, at
    /// construction time: `⌈batch/S⌉ × S` can fall short of the batch itself
    /// whenever `S` does not divide it, so an uncushioned bucket overflows on
    /// perfectly uniform traffic and the misconfiguration would otherwise only
    /// surface as a confusing mid-run overflow storm.
    pub fn validate(&self) {
        if let RoutingPolicy::Shuffled { bucket_cushion } = self {
            assert!(
                *bucket_cushion > 0,
                "RoutingPolicy::Shuffled requires bucket_cushion >= 1: \
                 a zero cushion overflows on uniform traffic whenever the \
                 shard count does not divide the batch size (use \
                 RoutingPolicy::shuffled() for the default cushion)"
            );
        }
    }
}

impl std::fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Cumulative statistics of a run's shuffle phase.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShuffleStats {
    /// Total simulated wall-clock spent in the shuffle phase (per step: slowest
    /// arrival pair's shuffle + slowest destination pair's compaction, since pairs
    /// run in parallel within each sub-phase).
    pub total_secs: f64,
    /// Bucket or ingest-cut overflows — each one leaked a true per-destination
    /// count for one step (ideally zero; the cushion should dominate). Always
    /// the sum of [`Self::bucket_overflows`] and [`Self::cut_overflows`].
    pub overflow_events: u64,
    /// Shuffle-phase bucket overflows *per destination shard* (a destination
    /// received more reals from one arrival pair than its padded bucket held).
    /// Per-destination resolution matters: a single hot shard overflowing
    /// looks identical to uniform pressure in the cluster-wide total, and the
    /// elastic planner needs to know *which* shard to split.
    pub bucket_overflows: Vec<u64>,
    /// Ingest-cut overflows per destination shard (the destination held more
    /// reals than its cut after concatenating all buckets).
    pub cut_overflows: Vec<u64>,
    /// Dummy records shipped by the shuffle phase (bucket padding plus
    /// ingest-cut padding) — the padding-waste side of the overflow/padding
    /// trade the elastic DP cuts attack.
    pub padded_dummy_records: u64,
    /// Bytes of that dummy padding (record width × 4 bytes per word).
    pub padded_dummy_bytes: u64,
    /// Number of routed relation-steps (for averaging).
    pub steps: u64,
}

impl ShuffleStats {
    /// Zeroed statistics with per-destination counters sized for `shards`.
    #[must_use]
    pub(crate) fn for_shards(shards: usize) -> Self {
        Self {
            bucket_overflows: vec![0; shards],
            cut_overflows: vec![0; shards],
            ..Self::default()
        }
    }
}

/// Executes the shuffle phase for a cluster run: holds the destination count,
/// bucket cushion, cost model and the protocol randomness.
pub struct ClusterShuffler {
    shards: usize,
    bucket_cushion: usize,
    cost_model: CostModel,
    rng: StdRng,
    stats: ShuffleStats,
    elastic: Option<ElasticRouting>,
}

impl ClusterShuffler {
    /// A shuffler routing to `shards` destination pipelines.
    ///
    /// # Panics
    /// Panics when `shards` is zero or `bucket_cushion` is zero (see
    /// [`RoutingPolicy::validate`]).
    #[must_use]
    pub fn new(shards: usize, bucket_cushion: usize, cost_model: CostModel, seed: u64) -> Self {
        assert!(shards > 0, "cluster needs at least one shard");
        RoutingPolicy::Shuffled { bucket_cushion }.validate();
        Self {
            shards,
            bucket_cushion,
            cost_model,
            rng: StdRng::seed_from_u64(seed ^ 0x05FF_1E5E_ED00_77AA),
            stats: ShuffleStats::for_shards(shards),
            elastic: None,
        }
    }

    /// Attach the elastic control plane: routing switches to the
    /// assignment-mapped table, per-destination DP cuts apply once released,
    /// and [`Self::finish_step`] starts releasing tallies / planning moves.
    ///
    /// # Panics
    /// Panics when the control plane was built for a different shard count.
    pub(crate) fn enable_elastic(&mut self, routing: ElasticRouting) {
        assert_eq!(
            routing.shards(),
            self.shards,
            "elastic control plane sized for a different cluster"
        );
        self.elastic = Some(routing);
    }

    /// The attached elastic control plane, if any.
    #[must_use]
    pub fn elastic(&self) -> Option<&ElasticRouting> {
        self.elastic.as_ref()
    }

    /// The routing side of the elastic report, if the control plane is on.
    #[must_use]
    pub fn elastic_report(&self) -> Option<ElasticReport> {
        self.elastic.as_ref().map(ElasticRouting::report)
    }

    /// Close one routed step for the elastic control plane (no-op otherwise):
    /// on control-window boundaries this releases the noisy load tallies,
    /// refreshes the DP ingest cuts and returns any planned bucket moves. The
    /// caller must invoke it exactly once per step, after routing every
    /// relation of that step, and execute the returned moves before the next
    /// step's routing (the assignment table has already switched).
    pub(crate) fn finish_step(&mut self, time: u64) -> Vec<BucketMove> {
        match self.elastic.as_mut() {
            Some(el) => el.finish_step(time, &self.stats),
            None => Vec::new(),
        }
    }

    /// Cumulative shuffle statistics.
    #[must_use]
    pub fn stats(&self) -> ShuffleStats {
        self.stats.clone()
    }

    /// Route one step's arrival-shard batches of one relation to the destination
    /// shards owning their join keys. Returns one ingest-ready [`UploadBatch`] per
    /// destination plus the phase's simulated duration (slowest arrival pair's
    /// shuffle + slowest destination pair's compaction).
    ///
    /// `key_column` is the join-key column the hashed routing tag is computed from;
    /// `ingest_size` is the fixed per-destination batch size the compaction cuts
    /// back to (normally the co-partitioned router's `shard_batch_size`, so
    /// downstream padding is identical to a co-partitioned run).
    pub fn route_step(
        &mut self,
        time: u64,
        relation: Relation,
        key_column: usize,
        arrival_batches: &[UploadBatch],
        ingest_size: usize,
    ) -> (Vec<UploadBatch>, SimDuration) {
        assert_eq!(
            arrival_batches.len(),
            self.shards,
            "one arrival batch per shard"
        );
        let mut route_span = incshrink_telemetry::span!("shuffle.route", step = time);

        // Phase 1 — per arrival pair (parallel): oblivious shuffle + bucket route.
        let mut dest_records: Vec<SharedArrayPair> =
            (0..self.shards).map(|_| SharedArrayPair::new()).collect();
        let mut dest_ids: Vec<Vec<Option<RecordId>>> = vec![Vec::new(); self.shards];
        let mut max_shuffle = SimDuration::ZERO;
        for batch in arrival_batches {
            let bucket_size = batch.len().div_ceil(self.shards) + self.bucket_cushion;
            // What the wire carries to each destination pair is the padded bucket
            // size — a pure function of public parameters, recorded per destination
            // so the leakage auditor can check routing symmetry.
            if incshrink_telemetry::installed() {
                for dest in 0..self.shards {
                    let _dest_scope = incshrink_telemetry::shard_scope(dest as u64);
                    incshrink_telemetry::observe(
                        incshrink_telemetry::ObserveKind::ShuffleBucket,
                        time,
                        bucket_size as u64,
                    );
                }
            }
            let mut meter = CostMeter::new();
            let routed = if let Some(el) = self.elastic.as_mut() {
                let mapped = shuffle_route_mapped(
                    &batch.records,
                    key_column,
                    &el.assignment,
                    self.shards,
                    bucket_size,
                    &mut meter,
                    &mut self.rng,
                );
                el.observe_routed(relation, &mapped.bucket_reals);
                mapped.route
            } else {
                shuffle_route(
                    &batch.records,
                    key_column,
                    self.shards,
                    bucket_size,
                    &mut meter,
                    &mut self.rng,
                )
            };
            self.stats.overflow_events += routed.overflows;
            let shuffle_report = meter.take();
            route_span.record_cost(shuffle_report.into());
            max_shuffle = max_shuffle.max(self.cost_model.simulate(&shuffle_report));
            let width = batch.records.arity().unwrap_or(1) as u64 + 1;
            for (dest, (bucket, sources)) in
                routed.buckets.into_iter().zip(routed.sources).enumerate()
            {
                if bucket.len() > bucket_size {
                    self.stats.bucket_overflows[dest] += 1;
                }
                let dummy_slots = sources.iter().filter(|s| s.is_none()).count() as u64;
                self.stats.padded_dummy_records += dummy_slots;
                self.stats.padded_dummy_bytes += dummy_slots * width * 4;
                for src in &sources {
                    dest_ids[dest].push(src.and_then(|i| batch.ids.get(i).copied().flatten()));
                }
                dest_records[dest].extend(bucket).expect("uniform arity");
            }
        }

        // Phase 2 — per destination pair (parallel): compact the concatenated
        // buckets (reals first) and cut back to the ingest size — the fixed
        // worst case, or the destination's DP-sized cut when the elastic
        // control plane has released one (never larger than the worst case).
        let elastic_cuts: Option<Vec<usize>> = match self.elastic.as_mut() {
            Some(el) => {
                el.note_static_cut(relation, ingest_size);
                el.cuts_for(relation).map(<[usize]>::to_vec)
            }
            None => None,
        };
        let mut out = Vec::with_capacity(self.shards);
        let mut max_compact = SimDuration::ZERO;
        for (dest, (records, ids)) in dest_records.into_iter().zip(dest_ids).enumerate() {
            let cut_size = elastic_cuts
                .as_ref()
                .map_or(ingest_size, |cuts| cuts[dest].min(ingest_size));
            let mut meter = CostMeter::new();
            let (records, ids) = self.compact_and_cut(dest, records, ids, cut_size, &mut meter);
            let compact_report = meter.take();
            route_span.record_cost(compact_report.into());
            max_compact = max_compact.max(self.cost_model.simulate(&compact_report));
            out.push(UploadBatch {
                relation,
                time,
                records,
                ids,
            });
        }

        let duration = max_shuffle + max_compact;
        self.stats.total_secs += duration.as_secs_f64();
        self.stats.steps += 1;
        route_span.record_sim_secs(duration.as_secs_f64());
        (out, duration)
    }

    /// Destination-side resize: compact the concatenated buckets real-first and cut
    /// the prefix back to `ingest_size`. A destination holding more real records
    /// than that keeps them all (overflow, counted) rather than dropping data.
    ///
    /// This stands in for the secure cache's real-first compaction and relies on two
    /// things only: the outcome keeps every real record ahead of every dummy, in
    /// bucket order, as [`Compaction`] guarantees, and the price is that
    /// compaction's, charged through the same [`Compaction::charge`] so the two
    /// cannot drift. The partition is done by hand because the record ids riding
    /// outside the shares must follow their records.
    fn compact_and_cut(
        &mut self,
        dest: usize,
        records: SharedArrayPair,
        ids: Vec<Option<RecordId>>,
        ingest_size: usize,
        meter: &mut CostMeter,
    ) -> (SharedArrayPair, Vec<Option<RecordId>>) {
        let n = records.len();
        let arity = records.arity().unwrap_or(1);
        let width = arity as u64 + 1;
        Compaction::new(n).charge(arity as u64, meter);

        // Real-first partition in bucket order: what the compaction leaves.
        let mut reals: Vec<(SharedRecordPair, Option<RecordId>)> = Vec::new();
        for (entry, id) in records.entries().iter().zip(&ids) {
            if entry.recover().is_view {
                reals.push((entry.clone(), *id));
            }
        }
        if reals.len() > ingest_size {
            self.stats.overflow_events += 1;
            self.stats.cut_overflows[dest] += 1;
        }
        let cut = ingest_size.max(reals.len());
        let cut_dummies = (cut - reals.len()) as u64;
        self.stats.padded_dummy_records += cut_dummies;
        self.stats.padded_dummy_bytes += cut_dummies * width * 4;
        let mut out = SharedArrayPair::with_arity(arity);
        let mut out_ids = Vec::with_capacity(cut);
        for (entry, id) in reals {
            out.push(entry).expect("uniform arity");
            out_ids.push(id);
        }
        while out.len() < cut {
            out.push(SharedRecordPair::share(
                &PlainRecord::dummy(arity),
                &mut self.rng,
            ))
            .expect("uniform arity");
            out_ids.push(None);
        }
        meter.bytes(out.len() as u64 * width * 4);
        (out, out_ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::ViewMigrator;
    use incshrink::MigratedPartition;
    use incshrink_mpc::cost::CostReport;
    use incshrink_oblivious::shuffle::VIRTUAL_BUCKETS;
    use incshrink_oblivious::{
        cache_read, nested_loop_join_cost, oblivious_sort_by_field, Network, SortOrder,
    };
    use incshrink_storage::SecureCache;
    use incshrink_telemetry::{CostDelta, Event, InMemory};
    use std::sync::Arc;

    /// `real` real rows of three columns, then `dummy` dummies.
    fn rows(real: usize, dummy: usize) -> SharedArrayPair {
        let mut records: Vec<PlainRecord> = (0..real as u32)
            .map(|i| PlainRecord::real(vec![i, 7, i % 3]))
            .collect();
        records.extend((0..dummy).map(|_| PlainRecord::dummy(3)));
        SharedArrayPair::share_records(&records, &mut StdRng::seed_from_u64(3))
    }

    /// The secure cache's sub-phase costs, from its spans: the sizes script a seal of
    /// 12 rows, a merge of runs 9 and 8, and a read merging two heads of 4. Returns
    /// the cost of the `nth` span named `name`.
    fn scripted_cache_spans() -> impl Fn(&str, usize) -> CostDelta {
        let sink = Arc::new(InMemory::new());
        let guard = incshrink_telemetry::install(sink.clone());
        let (mut cache, mut meter) = (SecureCache::new(3, None), CostMeter::new());
        for (written, size) in [(12, 3), (8, 0), (6, 0), (5, 4)] {
            cache.write(rows(written / 3, written - written / 3));
            drop(cache.read(size, &mut meter));
        }
        drop(guard);
        assert_eq!(cache.run_lens(), [19, 1, 4]);
        let spans: Vec<(String, CostDelta)> = sink
            .take()
            .into_iter()
            .filter_map(|event| match event {
                Event::Span(span) => Some((span.name, span.cost?)),
                _ => None,
            })
            .collect();
        move |name, nth| {
            let mut named = spans.iter().filter(|(n, _)| n == name);
            named
                .nth(nth)
                .expect("the script reaches every sub-phase")
                .1
        }
    }

    /// Every network keyed by the `isView` / match flag alone is priced as the
    /// one-bit circuit: no secure comparison, one AND and a swap of the other
    /// words per comparator of the network it runs.
    #[test]
    fn flag_keyed_sites_charge_one_and_per_comparator_and_no_compare() {
        let span = scripted_cache_spans();
        // Algorithm 4's selection for one outer row: the join less its key matrix.
        let (inner, omega) = (63, 10);
        let selection = nested_loop_join_cost(1, inner, omega, 2, 3).saturating_sub(CostReport {
            secure_compares: inner as u64,
            secure_ands: 2 * inner as u64,
            ..CostReport::default()
        });

        // The cache's payload is three words, the nested loop's two: its inner
        // side's join key is copied in with the outer columns after the network.
        let sites: [(&str, CostDelta, Network, u64); 3] = [
            (
                "cache.merge",
                span("cache.merge", 0),
                Network::merge(&[9, 8], usize::MAX),
                3,
            ),
            (
                "cache.read",
                span("cache.read", 3),
                Network::merge(&[4, 4], usize::MAX),
                3,
            ),
            (
                "nested-loop selection",
                selection.into(),
                Network::select(inner, omega),
                2,
            ),
        ];
        for (site, cost, network, words) in sites {
            let comparators = network.count();
            assert!(comparators > 0, "{site}: the script reaches a comparator");
            assert_eq!(cost.compares, 0, "{site}");
            assert_eq!(cost.ands, comparators, "{site}");
            assert_eq!(cost.swaps, words * comparators, "{site}");
        }
    }

    /// Every site that only brings the reals first charges the order-preserving
    /// compaction of its rows: no secure comparison, its swaps' and control's ANDs
    /// and a swap of the other words per conditional swap.
    #[test]
    fn real_first_sites_charge_the_compaction() {
        let span = scripted_cache_spans();
        let mut read = CostMeter::new();
        drop(cache_read(&mut rows(40, 60), 30, &mut read));
        let mut compact = CostMeter::new();
        let mut shuffler = ClusterShuffler::new(2, 1, CostModel::default(), 5);
        shuffler.compact_and_cut(0, rows(9, 21), vec![None; 30], 16, &mut compact);
        // The migration's extraction, less the mover flag of its 50 source-view
        // rows: the view's four words carry the join key once, so three swap.
        let mut migrator = ViewMigrator::new(1.0, 5, CostModel::default());
        let partition = MigratedPartition {
            view_entries: vec![PlainRecord::real(vec![1, 7, 0, 1]); 5],
            active_left: Vec::new(),
            active_right: Vec::new(),
            view_arity: 4,
            window_rows: (0, 0),
        };
        drop(migrator.prepare(0, 1, partition, 50));
        let migration = migrator.report().migration_cost.saturating_sub(CostReport {
            secure_ands: 50 * (VIRTUAL_BUCKETS as u64 + 1),
            secure_adds: 4 * 50,
            ..CostReport::default()
        });

        let sites: [(&str, CostDelta, usize); 4] = [
            ("cache.seal", span("cache.seal", 0), 12),
            ("compact::cache_read", read.report().into(), 100),
            ("compact_and_cut", compact.report().into(), 30),
            ("elastic::migrate", migration.into(), 50),
        ];
        for (site, cost, rows) in sites {
            let mut charged = CostMeter::new();
            let swaps = Compaction::new(rows).charge(3, &mut charged);
            let charged = charged.report();
            assert!(swaps > 0, "{site}: the script reaches a swap");
            assert_eq!(cost.compares, 0, "{site}");
            assert!(
                charged.secure_ands > swaps,
                "{site}: the control is charged"
            );
            assert_eq!(cost.ands, charged.secure_ands, "{site}");
            assert_eq!(cost.swaps, 3 * swaps, "{site}");
        }
    }

    /// The word-keyed networks keep one secure comparison and a record-wide swap
    /// (the key word included) per comparator.
    #[test]
    fn word_keyed_networks_charge_one_compare_per_comparator() {
        let comparators = Network::sort(100).count();
        let mut meter = CostMeter::new();
        oblivious_sort_by_field(&mut rows(40, 60), 0, SortOrder::Ascending, &mut meter);
        let field = meter.take();
        assert_eq!(field.secure_compares, comparators);
        assert_eq!(
            (field.secure_ands, field.secure_swaps),
            (0, comparators * 4)
        );
        let rng = &mut StdRng::seed_from_u64(9);
        drop(shuffle_route(&rows(40, 60), 0, 2, 60, &mut meter, rng));
        let tags = meter.take();
        assert_eq!(tags.secure_compares, comparators, "the shuffle's tag sort");
        assert_eq!(tags.secure_swaps, comparators * 4, "the shuffle's tag sort");
    }
}
