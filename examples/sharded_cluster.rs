//! Walkthrough of the sharded cluster layer: partition a workload across shard
//! pipelines, run the cluster, and compare against the single-pair simulation.
//!
//! ```bash
//! cargo run --example sharded_cluster --release
//! ```

use incshrink::prelude::*;
use incshrink_cluster::{RoutingPolicy, ShardRouter, ShardedSimulation};

fn main() {
    // 1. A CPDB-like workload: Allegation ⋈ Award within 10 days, ~9.8 new view
    //    entries per step. The Award relation is public; allegations are uploaded by
    //    owners in padded batches.
    let dataset = CpdbGenerator::new(WorkloadParams {
        steps: 150,
        view_entries_per_step: 9.8,
        seed: 42,
    })
    .generate();
    let interval = IncShrinkConfig::timer_interval_for_threshold(30.0, 9.8);
    let config = IncShrinkConfig::cpdb_default(UpdateStrategy::DpTimer { interval });

    // 2. The router hash-partitions both relations by join key. Equi-join views make
    //    the partition lossless: every join pair lives on exactly one shard.
    let shards = 4;
    let router = ShardRouter::new(shards);
    let parts = router.partition(&dataset);
    println!(
        "ShardRouter split {} allegations across {shards} shards:",
        dataset.left.len()
    );
    for (i, part) in parts.iter().enumerate() {
        println!(
            "  shard {i}: {} allegations, {} awards, upload batch {}",
            part.left.len(),
            part.right.len(),
            part.left_batch_size
        );
    }

    // 3. Run the single-pair baseline and the sharded cluster on the same seed. Each
    //    shard gets its own server pair, secure cache, Transform and Shrink instance
    //    with an ε/S budget; the analyst's count query is scatter-gathered.
    let single = ShardedSimulation::new(dataset.clone(), config, 1, 0xFEED).run();
    let cluster = ShardedSimulation::new(dataset, config, shards, 0xFEED).run();

    println!(
        "\n{:<28} {:>12} {:>12}",
        "",
        "single pair",
        format!("{shards} shards")
    );
    let row = |label: &str, a: String, b: String| println!("{label:<28} {a:>12} {b:>12}");
    row(
        "avg relative error",
        format!("{:.3}", single.summary.avg_relative_error),
        format!("{:.3}", cluster.summary.avg_relative_error),
    );
    row(
        "avg QET (s)",
        format!("{:.4}", single.summary.avg_qet_secs),
        format!("{:.4}", cluster.summary.avg_qet_secs),
    );
    row(
        "slowest shard scan (s)",
        format!("{:.4}", single.summary.avg_qet_secs),
        format!("{:.4}", cluster.avg_max_shard_qet_secs),
    );
    row(
        "aggregation (s)",
        "-".into(),
        format!("{:.4}", cluster.avg_aggregation_secs),
    );
    row(
        "view synchronizations",
        single.summary.sync_count.to_string(),
        cluster.summary.sync_count.to_string(),
    );

    // 4. The privacy story: each shard runs at ε/S, so the user-level guarantee is
    //    the same b·ε as the single-pair run no matter how many shards serve traffic.
    let p = cluster.privacy;
    println!("\nprivacy composition (via dp::accountant):");
    println!("  per-shard ε      : {:.4}", p.per_shard_epsilon);
    println!(
        "  record-level ε·b : {:.2} (disjoint shards, parallel composition)",
        p.record_level_epsilon
    );
    println!(
        "  user-level ε·b   : {:.2} (invariant in the shard count)",
        p.user_level_epsilon
    );

    let last = cluster.steps.last().expect("non-empty run");
    println!(
        "\nfinal step: true count {} vs cluster answer {:?} over {} shard views",
        last.true_count, last.answer, shards
    );

    // 5. Cross-shard joins: when records arrive partitioned by a *non-join*
    //    attribute (TPC-ds uploads grouped by store id, view joined on item key —
    //    half the returns happen at a different store than the purchase), the
    //    co-partitioned fast path cannot run at all; the shuffle phase re-routes
    //    every delta to the shard owning its join key through fixed-size padded
    //    buckets, so only the constant bucket size leaks.
    let base = TpcDsGenerator::new(WorkloadParams {
        steps: 150,
        view_entries_per_step: 2.7,
        seed: 42,
    })
    .generate();
    let store_partitioned = to_store_partitioned(&base, 8, 0.5, 7);
    let t_interval = IncShrinkConfig::timer_interval_for_threshold(30.0, 2.7);
    let t_config = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer {
        interval: t_interval,
    });
    let shuffled = ShardedSimulation::new(store_partitioned, t_config, shards, 0xFEED)
        .with_routing_policy(RoutingPolicy::shuffled())
        .run();
    println!(
        "\nshuffled routing (TPC-ds by store, joined on item key, {shards} shards):\n  \
         avg relative error {:.3}, avg shuffle {:.4}s/step, {} bucket overflows, {} syncs",
        shuffled.summary.avg_relative_error,
        shuffled.avg_shuffle_secs,
        shuffled.shuffle.overflow_events,
        shuffled.summary.sync_count
    );
}
