//! Integration tests for the elastic sharding control plane: ledger-reconciled
//! ε accounting across random split/merge schedules, bit-for-bit replay of the
//! sequential driver by the threaded runtime with elastic enabled, party-mode
//! invariance, and the skew acceptance criterion (fewer ingest-cut overflows
//! and less padding than the static assignment at equal total ε).

use std::sync::Arc;

use incshrink::prelude::*;
use incshrink_cluster::{
    shard_config, ClusterRunReport, ElasticConfig, ParallelShardedSimulation, RoutingPolicy,
    ShardedSimulation,
};
use incshrink_dp::accountant::{MechanismApplication, PrivacyAccountant};
use incshrink_mpc::PartyMode;
use incshrink_telemetry::audit::canonical_observable_trace;
use incshrink_telemetry::{install, Event, InMemory, LedgerEntry};
use incshrink_workload::{to_store_partitioned, to_zipf_skewed};
use proptest::prelude::*;

fn tpcds(steps: u64, seed: u64) -> Dataset {
    TpcDsGenerator::new(WorkloadParams {
        steps,
        view_entries_per_step: 2.7,
        seed,
    })
    .generate()
}

/// The elastic evaluation workload: TPC-ds arriving partitioned by store id
/// (arrival key ≠ join key, so the cluster must shuffle) with the join-key
/// mass remapped to a Zipf(`s`) law over the virtual routing buckets.
fn skewed(steps: u64, zipf_s: f64, seed: u64) -> Dataset {
    to_store_partitioned(
        &to_zipf_skewed(&tpcds(steps, seed), zipf_s, seed),
        8,
        0.5,
        77,
    )
}

fn timer_cfg() -> IncShrinkConfig {
    IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 })
}

/// Run `f` with an [`InMemory`] collector installed; return its result and the
/// captured trace.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    let sink = Arc::new(InMemory::new());
    let guard = install(sink.clone());
    let out = f();
    drop(guard);
    (out, sink.take())
}

fn ledger(events: &[Event]) -> Vec<LedgerEntry> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Epsilon(entry) => Some(entry.clone()),
            _ => None,
        })
        .collect()
}

/// The cluster's claimed per-shard budget as a [`PrivacyAccountant`] — the
/// claim every ledger replay must reconcile against, elastic or static.
fn claimed_accountant(config: &IncShrinkConfig, shards: usize) -> (PrivacyAccountant, u64) {
    let split = shard_config(config, shards);
    let mut claimed = PrivacyAccountant::new();
    claimed.record(MechanismApplication {
        mechanism_epsilon: split.epsilon,
        stability: 1,
        disjoint: false,
    });
    (claimed, split.contribution_budget)
}

/// Sequential + threaded elastic runs of the same configuration, with traces.
fn run_both_elastic(
    dataset: &Dataset,
    config: IncShrinkConfig,
    shards: usize,
    seed: u64,
    elastic: ElasticConfig,
) -> (
    (ClusterRunReport, Vec<Event>),
    (ClusterRunReport, Vec<Event>),
) {
    let sequential = traced(|| {
        ShardedSimulation::new(dataset.clone(), config, shards, seed)
            .with_routing_policy(RoutingPolicy::shuffled())
            .with_elastic(elastic)
            .run()
    });
    let threaded = traced(|| {
        ParallelShardedSimulation::new(dataset.clone(), config, shards, seed)
            .with_routing_policy(RoutingPolicy::shuffled())
            .with_elastic(elastic)
            .run()
            .report
    });
    (sequential, threaded)
}

fn assert_elastic_bit_for_bit(
    (sequential, seq_events): &(ClusterRunReport, Vec<Event>),
    (threaded, thr_events): &(ClusterRunReport, Vec<Event>),
) {
    assert_eq!(
        threaded, sequential,
        "threaded elastic cluster diverged from the sequential replay"
    );
    for (seq_shard, thr_shard) in sequential.shard_reports.iter().zip(&threaded.shard_reports) {
        assert_eq!(
            seq_shard.view_fingerprint, thr_shard.view_fingerprint,
            "shard {} view contents diverged",
            seq_shard.shard
        );
    }
    assert_eq!(
        canonical_observable_trace(seq_events),
        canonical_observable_trace(thr_events),
        "server-observable trace (sizes + ε-ledger) diverged"
    );
}

/// An elastic run spends ε on cut releases and migrations *in addition to* the
/// Shrink mechanism — but every elastic release is a slice (≤ 1) of the
/// per-shard per-invocation ε, so the replayed Theorem-3 bound `b · max ε` is
/// unchanged and the run reconciles against the same claim as a static run.
#[test]
fn elastic_run_rebalances_and_reconciles_the_ledger() {
    let config = timer_cfg();
    let dataset = skewed(96, 1.2, 21);
    let (report, events) = traced(|| {
        ShardedSimulation::new(dataset, config, 4, 9)
            .with_routing_policy(RoutingPolicy::shuffled())
            .with_elastic(ElasticConfig::default())
            .run()
    });

    let stats = report.elastic.as_ref().expect("elastic report present");
    assert!(stats.cut_releases > 0, "windows must release noisy tallies");
    assert!(
        stats.splits + stats.merges > 0,
        "a Zipf(1.2) key mass must trigger at least one rebalancing action"
    );
    assert_eq!(
        stats.migrations > 0,
        stats.bucket_moves > 0,
        "every planned move must be executed"
    );
    assert!(stats.epsilon_spent > 0.0);
    assert!(stats.migration_cost.bytes_communicated > 0 || stats.migrations == 0);

    let entries = ledger(&events);
    assert!(
        entries.iter().any(|e| e.mechanism == "elastic.cut"),
        "cut releases must be stamped into the ledger"
    );
    if stats.migrations > 0 {
        assert!(
            entries.iter().any(|e| e.mechanism == "elastic.migrate"),
            "migrations must be stamped into the ledger"
        );
    }
    let elastic_spent: f64 = entries
        .iter()
        .filter(|e| e.mechanism.starts_with("elastic."))
        .map(|e| e.epsilon)
        .sum();
    assert!(
        (elastic_spent - stats.epsilon_spent).abs() < 1e-9,
        "report claims ε {} but the ledger records {elastic_spent}",
        stats.epsilon_spent
    );

    let (claimed, budget) = claimed_accountant(&config, 4);
    assert!(
        claimed.reconciles_with_ledger(&entries, budget),
        "elastic spends exceed the composed cluster claim"
    );
}

/// The acceptance criterion: on a Zipf-skewed workload at S = 4, elastic
/// routing suffers strictly fewer ingest-cut overflows *and* ships strictly
/// fewer padding bytes than the static `Shuffled` assignment, at equal total ε
/// (both ledgers reconcile against the identical claimed budget), while
/// answering the counting query as accurately as the co-partitioned baseline.
#[test]
fn elastic_beats_static_shuffled_on_skew_at_equal_epsilon() {
    // A heavier arrival rate than the other tests: per-destination loads must
    // dominate the Laplace release noise for the DP cuts to be informative
    // (at trickle rates the noisy estimates are all noise and the cuts pin to
    // the static cap).
    let steps = 64;
    let config = timer_cfg();
    let heavy = TpcDsGenerator::new(WorkloadParams {
        steps,
        view_entries_per_step: 48.0,
        seed: 21,
    })
    .generate();
    let zipf_base = to_zipf_skewed(&heavy, 1.2, 21);
    let dataset = to_store_partitioned(&zipf_base, 8, 0.5, 77);
    let shards = 4;
    let elastic = ElasticConfig {
        // The cut releases get the full per-shard slice (still ≤ the Shrink
        // per-invocation ε, so the reconciled bound is unchanged).
        cut_slice: 1.0,
        cut_margin: 3,
        ..ElasticConfig::default()
    };

    let (static_report, static_events) = traced(|| {
        ShardedSimulation::new(dataset.clone(), config, shards, 9)
            .with_routing_policy(RoutingPolicy::shuffled())
            .run()
    });
    let (elastic_report, elastic_events) = traced(|| {
        ShardedSimulation::new(dataset.clone(), config, shards, 9)
            .with_routing_policy(RoutingPolicy::shuffled())
            .with_elastic(elastic)
            .run()
    });

    let static_overflows: u64 = static_report.shuffle.cut_overflows.iter().sum();
    let elastic_overflows: u64 = elastic_report.shuffle.cut_overflows.iter().sum();
    assert!(
        elastic_overflows < static_overflows,
        "elastic must suffer strictly fewer ingest-cut overflows: {elastic_overflows} vs {static_overflows}"
    );
    assert!(
        elastic_report.shuffle.padded_dummy_bytes < static_report.shuffle.padded_dummy_bytes,
        "elastic must ship strictly less padding: {} vs {} bytes",
        elastic_report.shuffle.padded_dummy_bytes,
        static_report.shuffle.padded_dummy_bytes
    );

    // Equal total ε: both runs reconcile against the identical claimed budget
    // (the elastic slices never raise the per-invocation max, so the replayed
    // `b · max ε` bound is the same).
    let (claimed, budget) = claimed_accountant(&config, shards);
    for (label, events) in [("static", &static_events), ("elastic", &elastic_events)] {
        assert!(
            claimed.reconciles_with_ledger(&ledger(events), budget),
            "{label} run fails ledger reconciliation"
        );
    }

    // Accuracy: the skew-adapted run answers like the co-partitioned cluster
    // on the same records (ground truth is shared — the Zipf remap is a
    // bijection on join keys).
    let co = ShardedSimulation::new(zipf_base, config, shards, 9).run();
    for (elastic_step, co_step) in elastic_report.steps.iter().zip(&co.steps) {
        assert_eq!(
            elastic_step.true_count, co_step.true_count,
            "t={}: elastic shard truths must sum to the global truth",
            elastic_step.time
        );
    }
    assert!(
        (elastic_report.summary.avg_relative_error - co.summary.avg_relative_error).abs() < 0.05,
        "elastic rel err {} vs co-partitioned {}",
        elastic_report.summary.avg_relative_error,
        co.summary.avg_relative_error
    );
}

/// The threaded runtime replays sequential elastic runs bit for bit — the
/// broker owns the control plane, the driver owns the migration executor, and
/// neither placement may perturb the trajectory.
#[test]
fn threaded_runtime_replays_elastic_runs_bit_for_bit() {
    let config = timer_cfg();
    for shards in [2usize, 4] {
        let dataset = skewed(48, 1.2, 21);
        let (sequential, threaded) =
            run_both_elastic(&dataset, config, shards, 9, ElasticConfig::default());
        assert!(
            sequential
                .0
                .elastic
                .as_ref()
                .is_some_and(|e| e.cut_releases > 0),
            "S={shards}: run exercised no elastic releases"
        );
        assert_elastic_bit_for_bit(&sequential, &threaded);
    }
}

/// The threaded broker pauses only after steps that plan moves, and queries
/// ride every `query_interval`-th step: with a query every third step, some
/// pauses fall between query steps and the replay must still be exact.
#[test]
fn threaded_runtime_replays_elastic_runs_with_sparse_queries_bit_for_bit() {
    let config = IncShrinkConfig {
        query_interval: 3,
        ..timer_cfg()
    };
    let dataset = skewed(36, 1.2, 23);
    let (sequential, threaded) =
        run_both_elastic(&dataset, config, 4, 0x9A9A, ElasticConfig::default());
    let migration_steps: Vec<u64> = ledger(&sequential.1)
        .iter()
        .filter(|e| e.mechanism == "elastic.migrate")
        .filter_map(|e| e.step)
        .collect();
    assert!(
        migration_steps.iter().any(|t| t % 3 != 0),
        "no move fell between query steps: {migration_steps:?}"
    );
    assert_eq!(sequential.0.summary.queries_issued, 36 / 3);
    assert_elastic_bit_for_bit(&sequential, &threaded);
}

/// A one-shard cluster with migration disabled exercises the DP-cut machinery
/// with nothing to rebalance; the threaded runtime must still replay the
/// sequential driver bit for bit.
#[test]
fn single_shard_elastic_without_migration_replays_bit_for_bit() {
    let elastic = ElasticConfig {
        enable_migration: false,
        ..ElasticConfig::default()
    };
    let dataset = skewed(40, 0.8, 22);
    let (sequential, threaded) = run_both_elastic(&dataset, timer_cfg(), 1, 9, elastic);
    let stats = sequential.0.elastic.as_ref().expect("elastic report");
    assert_eq!(stats.migrations, 0, "migration disabled must never migrate");
    assert!(stats.cut_releases > 0, "DP cuts still release");
    assert_elastic_bit_for_bit(&sequential, &threaded);
}

/// Elastic trajectories are party-mode invariant: every control-plane and
/// migration random draw derives from the cluster seed, never from party
/// randomness, so in-process, actor and TCP pairs replay the same run.
#[test]
fn elastic_trajectories_are_party_mode_invariant() {
    let config = timer_cfg();
    let dataset = skewed(36, 1.2, 23);
    let elastic = ElasticConfig::default();
    let (reference, reference_events) = traced(|| {
        ShardedSimulation::new(dataset.clone(), config, 4, 0x9A9A)
            .with_routing_policy(RoutingPolicy::shuffled())
            .with_elastic(elastic)
            .with_party_mode(PartyMode::InProcess)
            .run()
    });
    assert!(
        reference.elastic.as_ref().is_some_and(|e| e.migrations > 0),
        "invariance run must actually migrate"
    );
    for mode in [PartyMode::Actor, PartyMode::Tcp] {
        let (sequential, seq_events) = traced(|| {
            ShardedSimulation::new(dataset.clone(), config, 4, 0x9A9A)
                .with_routing_policy(RoutingPolicy::shuffled())
                .with_elastic(elastic)
                .with_party_mode(mode)
                .run()
        });
        assert_elastic_bit_for_bit(
            &(reference.clone(), reference_events.clone()),
            &(sequential, seq_events),
        );
        let (threaded, thr_events) = traced(|| {
            ParallelShardedSimulation::new(dataset.clone(), config, 4, 0x9A9A)
                .with_routing_policy(RoutingPolicy::shuffled())
                .with_elastic(elastic)
                .with_party_mode(mode)
                .run()
                .report
        });
        assert_elastic_bit_for_bit(
            &(reference.clone(), reference_events.clone()),
            &(threaded, thr_events),
        );
    }
}

proptest! {
    // ε reconciliation across *random* split/merge schedules: whatever
    // topology churn a random control configuration produces on a random
    // skew, the replayed ledger stays within the claimed budget and matches
    // the report's own ε tally.
    #[test]
    fn reconciliation_holds_across_random_split_merge_schedules(
        window in 1u64..5,
        cut_slice in 0.1f64..1.0,
        migrate_slice in 0.1f64..1.0,
        high_water in 1.05f64..2.0,
        cooldown in 1u64..6,
        zipf_s in 0.0f64..1.4,
        shards_idx in 0usize..3,
        seed in 0u64..1024,
    ) {
        let shards = [2usize, 4, 8][shards_idx];
        let elastic = ElasticConfig {
            window,
            cut_slice,
            migrate_slice,
            high_water,
            low_water: 0.4f64.min(high_water - 0.5).max(0.0),
            cooldown,
            cut_margin: 2,
            enable_migration: true,
            enable_dp_cut: true,
        };
        let config = timer_cfg();
        let dataset = skewed(24, zipf_s, seed);
        let (report, events) = traced(|| {
            ShardedSimulation::new(dataset, config, shards, seed ^ 0xE1A5)
                .with_routing_policy(RoutingPolicy::shuffled())
                .with_elastic(elastic)
                .run()
        });
        let entries = ledger(&events);
        let (claimed, budget) = claimed_accountant(&config, shards);
        prop_assert!(
            claimed.reconciles_with_ledger(&entries, budget),
            "random schedule broke ledger reconciliation"
        );
        let stats = report.elastic.expect("elastic report");
        let elastic_spent: f64 = entries
            .iter()
            .filter(|e| e.mechanism.starts_with("elastic."))
            .map(|e| e.epsilon)
            .sum();
        prop_assert!((elastic_spent - stats.epsilon_spent).abs() < 1e-9);
    }
}
