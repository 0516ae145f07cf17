//! Integration tests for the cluster shuffle phase: non-co-partitioned workloads
//! (arrival partition ≠ join key) answered correctly at every cluster size, the
//! shuffle preserving the multiset of records (hence of join pairs), and the
//! co-partitioned fast path replaying the pre-shuffle cluster layer bit for bit.

use incshrink::prelude::*;
use incshrink_cluster::{
    shard_config, ClusterShuffler, RoutingPolicy, ScatterGatherExecutor, ShardRouter,
    ShardedSimulation,
};
use incshrink_mpc::cost::{CostModel, SimDuration};
use incshrink_storage::{Relation, UploadBatch};
use incshrink_workload::{logical_join_count, to_store_partitioned};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tpcds(steps: u64) -> Dataset {
    TpcDsGenerator::new(WorkloadParams {
        steps,
        view_entries_per_step: 2.7,
        seed: 21,
    })
    .generate()
}

/// TPC-ds arriving partitioned by store id (8 stores, half the returns cross-store)
/// while the view still joins on item key.
fn store_partitioned(steps: u64) -> Dataset {
    to_store_partitioned(&tpcds(steps), 8, 0.5, 77)
}

fn timer(interval: u64) -> IncShrinkConfig {
    IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval })
}

/// Acceptance criterion: on a workload whose partition key ≠ join key, the shuffled
/// cluster maintains the *global* ground truth (per-step shard truths sum to the
/// single-pair truth) and answers the counting query with error comparable to the
/// single-pair run, for S ∈ {1, 2, 4, 8}.
#[test]
fn shuffled_cluster_answers_non_co_partitioned_workload_correctly() {
    let steps = 120;
    let config = timer(10);
    let base = tpcds(steps);
    let dataset = to_store_partitioned(&base, 8, 0.5, 77);

    // Single-pair reference: same records, same ground truth (the store column is
    // join-irrelevant), no sharding.
    let single = ShardedSimulation::new(dataset.clone(), config, 1, 9).run();

    for shards in [1usize, 2, 4, 8] {
        let report = ShardedSimulation::new(dataset.clone(), config, shards, 9)
            .with_routing_policy(RoutingPolicy::shuffled())
            .run();
        assert_eq!(report.horizon(), steps);
        assert_eq!(report.routing.label(), "shuffled");

        // Ground truth preservation: the shuffle loses no join pair, so the cluster
        // per-step truth equals the single-pair truth record for record.
        for (cluster_step, single_step) in report.steps.iter().zip(&single.steps) {
            assert_eq!(
                cluster_step.true_count, single_step.true_count,
                "t={}: shuffled shard truths must sum to the global truth",
                cluster_step.time
            );
        }

        // Answer quality matches the *co-partitioned* cluster on the same records
        // without the store-arrival handicap: after the shuffle, each shard ingests
        // the same padded per-step stream the co-partitioned router would deliver,
        // so the only cost of non-co-partitioned arrival is the shuffle time — not
        // accuracy. (Small slack: an ingest-cut overflow can shift the noise
        // stream.)
        let co = ShardedSimulation::new(base.clone(), config, shards, 9).run();
        assert!(
            (report.summary.avg_relative_error - co.summary.avg_relative_error).abs() < 0.05,
            "S={shards}: shuffled rel err {} vs co-partitioned {}",
            report.summary.avg_relative_error,
            co.summary.avg_relative_error
        );
        assert!(
            report.summary.avg_relative_error < 1.0,
            "answers stay usable"
        );
        assert!(report.summary.sync_count >= 1, "S={shards}: view updates");

        // The shuffle phase is priced: nonzero simulated time per routed step.
        assert!(report.avg_shuffle_secs > 0.0);
        assert_eq!(
            report.shuffle.steps,
            2 * steps,
            "left + right routed per step"
        );
    }
}

/// The co-partitioned fast path refuses a workload it cannot answer correctly.
#[test]
#[should_panic(expected = "RoutingPolicy::Shuffled")]
fn co_partitioned_policy_rejects_non_co_partitioned_workload() {
    let _ = ShardedSimulation::new(store_partitioned(10), timer(10), 2, 1).run();
}

/// ... but a single shard owns every key, so the same workload runs fine (and
/// correctly) at S = 1 without a shuffle.
#[test]
fn single_shard_accepts_non_co_partitioned_workload() {
    let dataset = store_partitioned(20);
    let report = ShardedSimulation::new(dataset.clone(), timer(10), 1, 1).run();
    // One shard = the single-pair run: one pipeline over the whole workload.
    let mut single = ShardPipeline::new(dataset, timer(10), 1, CostModel::default());
    for step in &report.steps {
        let t = step.time;
        let _ = single.advance(t);
        let answer = step.answer.map(|_| {
            single
                .answer_query(&Query::count(), t)
                .value
                .expect_scalar()
        });
        assert_eq!(
            (step.answer, step.true_count, step.view_len, step.cache_len),
            (
                answer,
                single.true_count(t),
                single.view().len(),
                single.cache_len()
            ),
            "t={t}: one shard = the single-pair run"
        );
    }
}

/// `RoutingPolicy::CoPartitioned` replays the pre-shuffle run *loop* bit for bit:
/// the reference below is the PR 2 stepping (arrival partition = ownership
/// partition, pipelines build their own uploads, scatter-gather on top) under
/// today's `shard_config` — so it guards the routing dispatch refactor, while the
/// deliberate flush-cadence stretch (the PR 4 bugfix, which changes `S > 1`
/// trajectories relative to the PR 2 *release*) applies equally to both sides and
/// is pinned separately by `per_shard_cache_flushes_scale_inversely_with_shard_count`.
#[test]
fn co_partitioned_policy_replays_pre_shuffle_loop_bit_for_bit() {
    let seed = 0xC1D5;
    let shards = 4;
    let config = timer(10);
    let dataset = tpcds(60);

    let report = ShardedSimulation::new(dataset.clone(), config, shards, seed)
        .with_routing_policy(RoutingPolicy::CoPartitioned)
        .run();

    // Inline PR 2 reference loop.
    let per_shard_config = shard_config(&config, shards);
    let stride: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut pipelines: Vec<_> = ShardRouter::new(shards)
        .partition(&dataset)
        .into_iter()
        .enumerate()
        .map(|(i, part)| {
            incshrink::ShardPipeline::new(
                part,
                per_shard_config,
                seed.wrapping_add((i as u64).wrapping_mul(stride)),
                CostModel::default(),
            )
        })
        .collect();
    let counting_query = Query::count();

    for (i, step) in report.steps.iter().enumerate() {
        let t = (i + 1) as u64;
        let outcomes: Vec<_> = pipelines.iter_mut().map(|p| p.advance(t)).collect();
        let true_count: u64 = pipelines.iter().map(|p| p.true_count(t)).sum();
        assert_eq!(step.true_count, true_count, "t={t}");
        let views: Vec<&_> = pipelines.iter().map(|p| p.view()).collect();
        let gathered =
            ScatterGatherExecutor::over(CostModel::default(), views).execute(&counting_query);
        assert_eq!(step.answer, Some(gathered.value.expect_scalar()), "t={t}");
        assert_eq!(step.qet_secs, gathered.qet.as_secs_f64(), "t={t}");
        let transform_max = outcomes
            .iter()
            .filter_map(|o| o.transform_duration)
            .max()
            .map_or(0.0, SimDuration::as_secs_f64);
        assert_eq!(step.transform_secs, transform_max, "t={t}");
        let shrink_max = outcomes
            .iter()
            .filter_map(|o| o.shrink_duration)
            .max()
            .map_or(0.0, SimDuration::as_secs_f64);
        assert_eq!(step.shrink_secs, shrink_max, "t={t}");
        assert_eq!(
            step.view_len,
            pipelines.iter().map(|p| p.view().len()).sum::<usize>()
        );
        assert_eq!(step.synced, outcomes.iter().any(|o| o.synced));
    }
    // No shuffle machinery ran at all.
    assert_eq!(report.avg_shuffle_secs, 0.0);
    assert_eq!(report.shuffle.steps, 0);
}

/// Regression for the cluster flush-cadence bug: `shard_config` must stretch the
/// cache-flush interval with the shard count, so per-shard `CacheFlush` events
/// scale ~1/S with the shard's 1/S arrival rate (S = 1 stays at the single-pair
/// cadence).
#[test]
fn per_shard_cache_flushes_scale_inversely_with_shard_count() {
    let steps = 96;
    let mut config = timer(1_000); // timer far beyond the horizon: only flushes fire
    config.flush_interval = 12;
    let dataset = tpcds(steps);

    let flushes_per_shard = |shards: usize| -> Vec<u64> {
        let per_shard = shard_config(&config, shards);
        let mut pipelines: Vec<_> = ShardRouter::new(shards)
            .partition(&dataset)
            .into_iter()
            .enumerate()
            .map(|(i, part)| {
                incshrink::ShardPipeline::new(part, per_shard, i as u64, CostModel::default())
            })
            .collect();
        let mut counts = vec![0u64; shards];
        for t in 1..=steps {
            for (count, p) in counts.iter_mut().zip(pipelines.iter_mut()) {
                if p.advance(t).flushed {
                    *count += 1;
                }
            }
        }
        counts
    };

    // S = 1 is unchanged: flushes every f = 12 steps, 8 over the horizon.
    assert_eq!(flushes_per_shard(1), vec![8]);
    // S = 4: the stretched interval (48) fires twice per shard — exactly 1/S of the
    // single-pair cadence, not the 8 per shard the unstretched interval would give.
    assert_eq!(flushes_per_shard(4), vec![2, 2, 2, 2]);
}

proptest! {
    /// The shuffle phase preserves the multiset of records: routing one step's
    /// arrival batches delivers every real record to the shard owning its join key
    /// and nothing else — which is exactly what makes the multiset of join pairs
    /// (and thus the counting answer) invariant under the re-route.
    #[test]
    fn prop_shuffle_routes_every_record_to_its_key_owner(
        seed in 0u64..1_000,
        shards in 1usize..5,
        cross_percent in 0u32..=100,
    ) {
        let cross = f64::from(cross_percent) / 100.0;
        let base = TpcDsGenerator::new(WorkloadParams {
            steps: 12,
            view_entries_per_step: 2.7,
            seed,
        })
        .generate();
        let dataset = to_store_partitioned(&base, 4, cross, seed);
        let router = ShardRouter::new(shards);
        let arrival_parts = router.partition(&dataset);
        let mut shuffler = ClusterShuffler::new(shards, 2, CostModel::default(), seed);
        let mut rng = StdRng::seed_from_u64(seed);

        for t in 1..=12u64 {
            let batches: Vec<UploadBatch> = arrival_parts
                .iter()
                .map(|part| {
                    UploadBatch::from_updates(
                        Relation::Left,
                        t,
                        &part.left.arrivals_at(t),
                        part.left.schema.arity(),
                        part.left_batch_size,
                        &mut rng,
                    )
                })
                .collect();
            let (routed, duration) = shuffler.route_step(
                t,
                Relation::Left,
                dataset.left.schema.key_column,
                &batches,
                router.shard_batch_size(dataset.left_batch_size),
            );
            prop_assert_eq!(routed.len(), shards);
            if !batches.iter().all(UploadBatch::is_empty) {
                prop_assert!(duration > SimDuration::ZERO);
            }

            // Each destination holds exactly the records whose key it owns...
            let mut routed_records: Vec<Vec<u32>> = Vec::new();
            for (dest, batch) in routed.iter().enumerate() {
                prop_assert_eq!(batch.relation, Relation::Left);
                for rec in batch.records.recover_all() {
                    if rec.is_view {
                        prop_assert_eq!(
                            incshrink_cluster::shard_of(rec.fields[0], shards),
                            dest,
                            "record on the wrong shard"
                        );
                        routed_records.push(rec.fields);
                    }
                }
                // ... with ids aligned to the real slots (contribution accounting
                // must keep working at the destination).
                prop_assert_eq!(
                    batch.real_count(),
                    batch.records.true_cardinality(),
                    "ids align with real records"
                );
            }

            // ... and the union across destinations is the input multiset.
            let mut input_records: Vec<Vec<u32>> = batches
                .iter()
                .flat_map(|b| b.records.recover_all())
                .filter(|r| r.is_view)
                .map(|r| r.fields)
                .collect();
            routed_records.sort();
            input_records.sort();
            prop_assert_eq!(routed_records, input_records);
        }
    }

    /// End-to-end join-pair preservation at small scale: shuffled-cluster per-step
    /// ground truths equal the single-pair logical truth for S ∈ {1, 2, 4}.
    #[test]
    fn prop_shuffled_cluster_truth_equals_single_pair_truth(seed in 0u64..200) {
        let base = TpcDsGenerator::new(WorkloadParams {
            steps: 20,
            view_entries_per_step: 2.7,
            seed,
        })
        .generate();
        let dataset = to_store_partitioned(&base, 4, 0.5, seed);
        let query = JoinQuery { window: dataset.join_window };
        for shards in [1usize, 2, 4] {
            let report = ShardedSimulation::new(dataset.clone(), timer(5), shards, seed)
                .with_routing_policy(RoutingPolicy::shuffled())
                .run();
            for step in &report.steps {
                prop_assert_eq!(
                    step.true_count,
                    logical_join_count(&dataset, &query, step.time),
                    "t={} S={}", step.time, shards
                );
            }
        }
    }
}
