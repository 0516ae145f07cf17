//! Telemetry-spine integration tests: tracing neutrality (collectors never
//! perturb a replay), ε-ledger ↔ accountant reconciliation, and the trace-based
//! leakage auditor on both evaluation workloads, single-pair and clustered.

use std::sync::Arc;

use incshrink::prelude::*;
use incshrink_cluster::{shard_config, ClusterRunReport, RoutingPolicy, ShardedSimulation};
use incshrink_dp::accountant::{MechanismApplication, PrivacyAccountant};
use incshrink_telemetry::audit::{
    check_trace, Expectations, LeakageProfile, LedgerSummary, SyncTiming, TransformWindow,
};
use incshrink_telemetry::{install, Event, InMemory, Jsonl, LedgerEntry};
use incshrink_workload::to_store_partitioned;
use proptest::prelude::*;

fn tpcds(steps: u64, seed: u64) -> Dataset {
    TpcDsGenerator::new(WorkloadParams {
        steps,
        view_entries_per_step: 2.7,
        seed,
    })
    .generate()
}

fn cpdb(steps: u64, seed: u64) -> Dataset {
    CpdbGenerator::new(WorkloadParams {
        steps,
        view_entries_per_step: 9.8,
        seed,
    })
    .generate()
}

fn timer_cfg() -> IncShrinkConfig {
    IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 })
}

fn ant_cfg() -> IncShrinkConfig {
    IncShrinkConfig::cpdb_default(UpdateStrategy::DpAnt { threshold: 30.0 })
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

/// Largest number of records arriving in any single step.
fn peak_step_arrivals(db: &incshrink_storage::GrowingDatabase) -> usize {
    let mut counts: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for update in db.updates() {
        *counts.entry(update.arrival).or_default() += 1;
    }
    counts.values().copied().max().unwrap_or(0)
}

/// Provision the padded upload batch sizes for the workload's peak burst so no
/// step overflows its padding. Padded sizes are public parameters; the
/// auditor's constancy claims assume the deployment was provisioned for the
/// peak (an overflow is exactly the leak the auditor exists to flag). The
/// `shards` factor covers the cluster router's `global.div_ceil(S) + 2`
/// per-shard ingest cut even when a whole burst hashes to one shard.
fn pin_batch_sizes(ds: &mut Dataset, shards: usize) {
    ds.left_batch_size = shards * peak_step_arrivals(&ds.left).max(1);
    if ds.right_batch_size > 0 {
        ds.right_batch_size = shards * peak_step_arrivals(&ds.right).max(1);
    }
}

fn ledger_entries(events: &[Event]) -> Vec<LedgerEntry> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Epsilon(entry) => Some(entry.clone()),
            _ => None,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Neutrality: the non-negotiable contract. Installing any collector must leave
// trajectories, rng draws and the Summary bit-for-bit identical to tracing-off.
// ---------------------------------------------------------------------------

#[test]
fn tracing_is_bit_for_bit_neutral_on_single_pair_replays() {
    let scenarios: [(Dataset, IncShrinkConfig); 2] =
        [(tpcds(40, 7), timer_cfg()), (cpdb(40, 7), ant_cfg())];
    for (i, (dataset, cfg)) in scenarios.into_iter().enumerate() {
        let plain = ShardedSimulation::new(dataset.clone(), cfg, 1, 0x5EED).run();

        let (in_memory, events) =
            traced(|| ShardedSimulation::new(dataset.clone(), cfg, 1, 0x5EED).run());
        assert_eq!(
            plain.summary, in_memory.summary,
            "InMemory collector perturbed the summary"
        );
        assert_eq!(
            plain.steps, in_memory.steps,
            "InMemory collector perturbed the trajectory"
        );
        assert!(!events.is_empty(), "collector captured nothing");

        // The Jsonl sink writes through a BufWriter on every event — the
        // heaviest collector we ship must be exactly as invisible.
        let path = std::env::temp_dir().join(format!(
            "incshrink_trace_neutrality_{}_{i}.jsonl",
            std::process::id()
        ));
        let sink = Jsonl::create(&path).expect("temp trace file");
        let guard = install(Arc::new(sink));
        let jsonl = ShardedSimulation::new(dataset, cfg, 1, 0x5EED).run();
        drop(guard);
        assert_eq!(
            plain.summary, jsonl.summary,
            "Jsonl collector perturbed the summary"
        );
        assert_eq!(
            plain.steps, jsonl.steps,
            "Jsonl collector perturbed the trajectory"
        );

        let text = std::fs::read_to_string(&path).expect("trace written");
        let mut lines = 0usize;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            Event::from_json_line(line).expect("every trace line parses");
            lines += 1;
        }
        assert_eq!(
            lines,
            events.len(),
            "Jsonl and InMemory saw different event streams"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn tracing_is_neutral_on_scaleout_replays() {
    let assert_same = |plain: &ClusterRunReport, traced: &ClusterRunReport, label: &str| {
        assert_eq!(plain.summary, traced.summary, "{label}: summary perturbed");
        assert_eq!(plain.steps, traced.steps, "{label}: trajectory perturbed");
        assert_eq!(
            plain.shard_reports, traced.shard_reports,
            "{label}: shard reports perturbed"
        );
    };

    for shards in [1usize, 4] {
        let dataset = tpcds(60, 3);
        let cfg = timer_cfg();
        let plain = ShardedSimulation::new(dataset.clone(), cfg, shards, 0x7AB2).run();
        let (with_trace, events) =
            traced(|| ShardedSimulation::new(dataset.clone(), cfg, shards, 0x7AB2).run());
        assert_same(&plain, &with_trace, &format!("co-partitioned S={shards}"));
        assert!(!events.is_empty());
    }

    // Shuffled routing exercises route_step's span + ShuffleBucket emission.
    let dataset = to_store_partitioned(&tpcds(60, 3), 8, 0.5, 0x570E);
    let cfg = timer_cfg();
    let run = |ds: Dataset| {
        ShardedSimulation::new(ds, cfg, 4, 0x7AB2)
            .with_routing_policy(RoutingPolicy::shuffled())
            .run()
    };
    let plain = run(dataset.clone());
    let (with_trace, events) = traced(|| run(dataset));
    assert_same(&plain, &with_trace, "shuffled S=4");
    assert!(events.iter().any(|e| matches!(
        e,
        Event::Observe(o) if o.kind == incshrink_telemetry::ObserveKind::ShuffleBucket
    )));
}

proptest! {
    #[test]
    fn tracing_neutrality_holds_for_random_workloads(
        data_seed in 0u64..1024,
        sim_seed in 0u64..1024,
        interval in 2u64..12,
    ) {
        let dataset = tpcds(16, data_seed);
        let cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval });

        let plain = ShardedSimulation::new(dataset.clone(), cfg, 1, sim_seed).run();
        let (with_trace, _) = traced(|| ShardedSimulation::new(dataset.clone(), cfg, 1, sim_seed).run());
        prop_assert_eq!(&plain.summary, &with_trace.summary);
        prop_assert_eq!(&plain.steps, &with_trace.steps);

        let cluster_plain = ShardedSimulation::new(dataset.clone(), cfg, 4, sim_seed).run();
        let (cluster_traced, _) =
            traced(|| ShardedSimulation::new(dataset.clone(), cfg, 4, sim_seed).run());
        prop_assert_eq!(&cluster_plain.summary, &cluster_traced.summary);
        prop_assert_eq!(&cluster_plain.steps, &cluster_traced.steps);
    }
}

// ---------------------------------------------------------------------------
// ε-ledger: every DP mechanism invocation lands in the ledger with the ε and
// sensitivity the configuration prescribes, and replaying the ledger through
// the accountant reproduces the claimed budget.
// ---------------------------------------------------------------------------

#[test]
fn epsilon_ledger_reconciles_with_the_accountant() {
    let cfg = timer_cfg();
    let (_, events) = traced(|| ShardedSimulation::new(tpcds(40, 11), cfg, 1, 0x5EED).run());
    let entries = ledger_entries(&events);
    assert!(!entries.is_empty(), "timer run spent no ε");
    for entry in &entries {
        assert_eq!(entry.mechanism, "timer.sync");
        assert_eq!(entry.epsilon, cfg.epsilon);
        assert_eq!(entry.sensitivity, cfg.contribution_budget as f64);
        assert!(entry.step.is_some(), "spend missing its step stamp");
    }

    // The accountant's claim: one ε-budgeted mechanism family, so Theorem 3's
    // b·max ε bound. The replayed ledger must not exceed it.
    let mut claimed = PrivacyAccountant::new();
    claimed.record(MechanismApplication {
        mechanism_epsilon: cfg.epsilon,
        stability: 1,
        disjoint: false,
    });
    assert!(claimed.reconciles_with_ledger(&entries, cfg.contribution_budget));

    // A tampered ledger (one spend inflated past the claim) must not reconcile.
    let mut inflated = entries.clone();
    inflated[0].epsilon *= 2.0;
    assert!(!claimed.reconciles_with_ledger(&inflated, cfg.contribution_budget));

    // ANT splits ε across three mechanisms: threshold ε/4, counter ε/8 per
    // resharing, sync ε/2 per release.
    let ant = ant_cfg();
    let (_, ant_events) = traced(|| ShardedSimulation::new(cpdb(40, 11), ant, 1, 0x5EED).run());
    let summary = LedgerSummary::from_events(&ant_events);
    assert!(summary.entries > 0, "ANT run spent no ε");
    let eps = ant.epsilon;
    let threshold = summary
        .mechanism("ant.threshold")
        .expect("threshold noised");
    assert!((threshold.max_epsilon - eps / 4.0).abs() < 1e-12);
    let counter = summary.mechanism("ant.counter").expect("counter reshared");
    assert!((counter.max_epsilon - eps / 8.0).abs() < 1e-12);
    if let Some(sync) = summary.mechanism("ant.sync") {
        assert!((sync.max_epsilon - eps / 2.0).abs() < 1e-12);
    }
    assert!(summary.max_epsilon <= eps / 2.0 + 1e-12);
}

// ---------------------------------------------------------------------------
// Leakage auditor: machine-check that per-step observable sizes depend only on
// public parameters, on both workloads and on cluster traces.
// ---------------------------------------------------------------------------

#[test]
fn leakage_auditor_passes_on_both_workloads_with_config_expectations() {
    let timer = timer_cfg();
    let mut timer_ds = tpcds(40, 17);
    pin_batch_sizes(&mut timer_ds, 1);
    let theta = u64::from(timer_ds.join_window);
    let (_, events) = traced(|| ShardedSimulation::new(timer_ds, timer, 1, 0x5EED).run());
    let expect = Expectations {
        flush_interval: Some(timer.flush_interval),
        timer_interval: Some(10),
        max_epsilon: Some(timer.epsilon),
        // Transform joins against the uploads of the b/ω − 1 = 9 preceding steps
        // that θ accepts: a new return meets every sale of them, a new sale none.
        transform_window: Some(TransformWindow {
            steps: timer.contribution_budget / timer.truncation_bound - 1,
            theta,
        }),
        ..Expectations::default()
    };
    check_trace(&events, &expect).expect("timer trace violates its leakage claims");

    let ant = ant_cfg();
    let mut ant_ds = cpdb(40, 17);
    pin_batch_sizes(&mut ant_ds, 1);
    let (_, ant_events) = traced(|| ShardedSimulation::new(ant_ds, ant, 1, 0x5EED).run());
    let expect = Expectations {
        flush_interval: Some(ant.flush_interval),
        // ANT sync times come from the noised counter, not a public clock.
        timer_interval: None,
        max_epsilon: Some(ant.epsilon / 2.0),
        ..Expectations::default()
    };
    check_trace(&ant_events, &expect).expect("ANT trace violates its leakage claims");
}

#[test]
fn cluster_traces_audit_cleanly_and_stamp_shards() {
    let cfg = timer_cfg();
    let shards = 4usize;
    let mut dataset = tpcds(120, 23);
    pin_batch_sizes(&mut dataset, shards);
    let theta = u64::from(dataset.join_window);
    let (_, events) = traced(|| ShardedSimulation::new(dataset, cfg, shards, 0x7AB2).run());

    // Shard pipelines run the ε/S, ×S-cadence split configuration.
    let split = shard_config(&cfg, shards);
    let UpdateStrategy::DpTimer { interval } = split.strategy else {
        panic!("timer config lost its strategy in the shard split");
    };
    let expect = Expectations {
        flush_interval: Some(split.flush_interval),
        timer_interval: Some(interval),
        max_epsilon: Some(split.epsilon),
        transform_window: Some(TransformWindow {
            steps: split.contribution_budget / split.truncation_bound - 1,
            theta,
        }),
        ..Expectations::default()
    };
    check_trace(&events, &expect).expect("cluster trace violates its leakage claims");

    let entries = ledger_entries(&events);
    assert!(!entries.is_empty());
    let stamped_shards: std::collections::BTreeSet<u64> =
        entries.iter().filter_map(|e| e.shard).collect();
    assert!(
        stamped_shards.len() >= 3,
        "expected most of the {shards} shards to stamp ledger entries, saw {stamped_shards:?}"
    );

    // Record-level reconciliation: each shard claims ε/S per release.
    let mut claimed = PrivacyAccountant::new();
    claimed.record(MechanismApplication {
        mechanism_epsilon: split.epsilon,
        stability: 1,
        disjoint: false,
    });
    assert!(claimed.reconciles_with_ledger(&entries, split.contribution_budget));
}

proptest! {
    // The DP-Sync trace-leakage definition: everything the servers observe
    // outside the DP mechanism outputs must be simulatable from public
    // parameters alone — so the noise-free profile of two runs over *different
    // data* with the same configuration must be identical.
    #[test]
    fn noise_free_profile_is_data_independent(vary_seed in 0u64..1024) {
        // Same padded batch sizes on both datasets (batch sizes are public
        // parameters; bursts may overflow padding, so pin them explicitly as
        // the privacy-invariant tests do).
        let mut dense = tpcds(24, 1);
        pin_batch_sizes(&mut dense, 1);
        let mut sparse = to_sparse(&dense, 0.1, vary_seed.wrapping_add(9));
        sparse.left_batch_size = dense.left_batch_size;
        sparse.right_batch_size = dense.right_batch_size;

        let timer = timer_cfg();
        let (_, a) = traced(|| ShardedSimulation::new(dense.clone(), timer, 1, 0x5EED).run());
        let (_, b) = traced(|| ShardedSimulation::new(sparse.clone(), timer, 1, 0x5EED).run());
        // sDPTimer releases on a public clock: sync times are part of the
        // noise-free profile.
        prop_assert_eq!(
            LeakageProfile::from_events(&a, SyncTiming::Public),
            LeakageProfile::from_events(&b, SyncTiming::Public)
        );

        let ant = IncShrinkConfig::tpcds_default(UpdateStrategy::DpAnt { threshold: 30.0 });
        let (_, a) = traced(|| ShardedSimulation::new(dense, ant, 1, 0x5EED).run());
        let (_, b) = traced(|| ShardedSimulation::new(sparse, ant, 1, 0x5EED).run());
        // sDPANT sync times are outputs of the noised counter-vs-threshold
        // comparison — DP-protected, excluded from the invariant profile.
        prop_assert_eq!(
            LeakageProfile::from_events(&a, SyncTiming::DpProtected),
            LeakageProfile::from_events(&b, SyncTiming::DpProtected)
        );
    }
}
