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
use incshrink_oblivious::sort::charge_sort_network;
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
    pub fn for_shards(shards: usize) -> Self {
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
    pub fn enable_elastic(&mut self, routing: ElasticRouting) {
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
    pub fn finish_step(&mut self, time: u64) -> Vec<BucketMove> {
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
            let shuffle_report = meter.report();
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
            let compact_report = meter.report();
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
    /// This stands in for the Shrink cache read's `isView` sort and relies on two
    /// things only: the outcome is a real-first partition (every real record ahead
    /// of every dummy — which is all the cut and the ingest after it depend on),
    /// and the price is the network's, charged through the same
    /// [`charge_sort_network`] so the two cannot drift. The partition is done by
    /// hand because the record ids riding outside the shares must follow their
    /// records. It happens to keep the reals in bucket order; an odd-even merge
    /// network is not a stable sort and would not, so that order is no part of
    /// the contract.
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
        charge_sort_network(n, width, meter);

        // Real-first partition: the one property of the isView sort the cut needs.
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
        meter.round();
        (out, out_ids)
    }
}
