//! Determinism and concurrency tests for the threaded cluster runtime.
//!
//! The contract under test: [`ParallelShardedSimulation`] — shard pipelines on
//! real OS threads behind an upload broker — replays the sequential
//! [`ShardedSimulation`] **bit for bit** (answers, view contents via
//! fingerprints, ε-ledger, padded observable sizes) at every shard count, on
//! both evaluation workloads, co-partitioned and shuffled. Plus the failure
//! semantics: a panicking shard thread propagates to the driver instead of
//! deadlocking the broker, and every worker thread joins on every exit path.

use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use incshrink::prelude::*;
use incshrink_cluster::{
    shard_config, ClusterRunReport, ElasticConfig, ParallelRunReport, ParallelShardedSimulation,
    RoutingPolicy, ShardedSimulation,
};
use incshrink_dp::accountant::{MechanismApplication, PrivacyAccountant};
use incshrink_mpc::{PartyMode, PARTY_CRASH_MESSAGE};
use incshrink_telemetry::audit::{canonical_observable_trace, LedgerSummary};
use incshrink_telemetry::{install, Event, InMemory};
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

/// Sequential and threaded runs of the same configuration, with traces.
fn run_both(
    dataset: &Dataset,
    config: IncShrinkConfig,
    shards: usize,
    seed: u64,
    routing: RoutingPolicy,
) -> (
    (ClusterRunReport, Vec<Event>),
    (ParallelRunReport, Vec<Event>),
) {
    let sequential = traced(|| {
        ShardedSimulation::new(dataset.clone(), config, shards, seed)
            .with_routing_policy(routing)
            .run()
    });
    let threaded = traced(|| {
        ParallelShardedSimulation::new(dataset.clone(), config, shards, seed)
            .with_routing_policy(routing)
            .run()
    });
    (sequential, threaded)
}

/// Assert the full replay contract between one sequential and one threaded run:
/// semantic report equality (trajectory, summary, ε composition, per-shard
/// reports **including view fingerprints**, shuffle stats) plus identical
/// canonical observable/ε traces, plus a leak-free thread ledger.
fn assert_bit_for_bit(
    (sequential, seq_events): &(ClusterRunReport, Vec<Event>),
    (threaded, thr_events): &(ParallelRunReport, Vec<Event>),
    shards: usize,
) {
    assert_eq!(
        &threaded.report, sequential,
        "threaded cluster diverged from the sequential replay"
    );
    for (seq_shard, thr_shard) in sequential
        .shard_reports
        .iter()
        .zip(&threaded.report.shard_reports)
    {
        assert_eq!(
            seq_shard.view_fingerprint, thr_shard.view_fingerprint,
            "shard {} view contents diverged",
            seq_shard.shard
        );
    }
    // Observable-trace equality is schedule-independent: per-(step, shard)
    // events are emitted by one thread in program order, so the canonical sort
    // recovers the sequential order exactly.
    assert_eq!(
        canonical_observable_trace(seq_events),
        canonical_observable_trace(thr_events),
        "server-observable trace (sizes + ε-ledger) diverged"
    );
    assert_eq!(threaded.runtime.shards, shards);
    assert_eq!(
        threaded.runtime.threads_joined,
        shards + 1,
        "worker threads leaked (expected {shards} shard threads + 1 broker)"
    );
    assert_eq!(
        threaded.runtime.step_wall_secs.len() as u64,
        sequential.horizon(),
        "one measured wall-clock sample per step"
    );
    assert!(threaded.runtime.total_wall_secs > 0.0);
}

// ---------------------------------------------------------------------------
// The acceptance sweep: both workloads × S ∈ {1, 2, 4} × both routing policies,
// every cell bit-for-bit.
// ---------------------------------------------------------------------------

#[test]
fn threaded_runtime_replays_sequential_bit_for_bit_across_the_matrix() {
    let seed = 0x7A11;
    for (base, config) in [(tpcds(36, 21), timer_cfg()), (cpdb(30, 22), ant_cfg())] {
        for shards in [1usize, 2, 4] {
            for routing in [RoutingPolicy::CoPartitioned, RoutingPolicy::shuffled()] {
                // The shuffled policy earns its keep on workloads that arrive
                // partitioned by a non-join attribute.
                let dataset = match routing {
                    RoutingPolicy::CoPartitioned => base.clone(),
                    RoutingPolicy::Shuffled => to_store_partitioned(&base, 8, 0.5, 77),
                };
                let (sequential, threaded) = run_both(&dataset, config, shards, seed, routing);
                assert_bit_for_bit(&sequential, &threaded, shards);
            }
        }
    }
}

proptest! {
    // Random workloads through the same contract: arbitrary seeds, horizons
    // and arrival rates must never expose a schedule-dependent divergence.
    #[test]
    fn threaded_runtime_replays_random_workloads(
        steps in 10u64..22,
        rate in 1.0f64..5.0,
        data_seed in 0u64..1024,
        sim_seed in 0u64..1024,
        shards_idx in 0usize..3,
        shuffled in any::<bool>(),
    ) {
        let shards = [1usize, 2, 4][shards_idx];
        let base = TpcDsGenerator::new(WorkloadParams {
            steps,
            view_entries_per_step: rate,
            seed: data_seed,
        })
        .generate();
        let (dataset, routing) = if shuffled {
            (
                to_store_partitioned(&base, 4, 0.5, data_seed ^ 0xF00D),
                RoutingPolicy::shuffled(),
            )
        } else {
            (base, RoutingPolicy::CoPartitioned)
        };
        let (sequential, threaded) = run_both(&dataset, timer_cfg(), shards, sim_seed, routing);
        assert_bit_for_bit(&sequential, &threaded, shards);
    }
}

// ---------------------------------------------------------------------------
// Seeded-rerun determinism: the threaded runtime against itself. Two runs with
// the same seed must agree on everything semantic — including across different
// broker ingest chunkings, which exercise different message boundaries.
// ---------------------------------------------------------------------------

#[test]
fn threaded_reruns_are_deterministic() {
    let dataset = to_store_partitioned(&tpcds(32, 23), 8, 0.5, 77);
    let config = ant_cfg();
    let run = |chunk_seed: Option<u64>| {
        traced(|| {
            let mut sim = ParallelShardedSimulation::new(dataset.clone(), config, 4, 0xD0_0D)
                .with_routing_policy(RoutingPolicy::shuffled());
            if let Some(chunk_seed) = chunk_seed {
                sim = sim.with_ingest_chunk_seed(chunk_seed);
            }
            sim.run()
        })
    };
    let (first, first_events) = run(None);
    let (second, second_events) = run(None);
    assert_eq!(first.report, second.report, "seeded rerun diverged");
    assert_eq!(
        first
            .report
            .shard_reports
            .iter()
            .map(|s| s.view_fingerprint)
            .collect::<Vec<_>>(),
        second
            .report
            .shard_reports
            .iter()
            .map(|s| s.view_fingerprint)
            .collect::<Vec<_>>(),
    );
    assert_eq!(
        canonical_observable_trace(&first_events),
        canonical_observable_trace(&second_events),
    );
    // Broker batch boundaries are not observable in the trajectory: chunked
    // owner-stream ingestion replays the unchunked run exactly.
    for chunk_seed in [1u64, 0xFEED] {
        let (chunked, chunked_events) = run(Some(chunk_seed));
        assert_eq!(
            first.report, chunked.report,
            "ingest chunking leaked into the trajectory"
        );
        assert_eq!(
            canonical_observable_trace(&first_events),
            canonical_observable_trace(&chunked_events),
        );
    }
}

// ---------------------------------------------------------------------------
// Failure semantics: a panicking shard thread must reach the driver as a panic
// (after full teardown), never as a deadlock on a dead channel.
// ---------------------------------------------------------------------------

#[test]
fn shard_thread_panic_propagates_to_the_driver() {
    let dataset = tpcds(20, 24);
    let config = timer_cfg();
    for routing in [RoutingPolicy::CoPartitioned, RoutingPolicy::shuffled()] {
        let dataset = match routing {
            RoutingPolicy::CoPartitioned => dataset.clone(),
            RoutingPolicy::Shuffled => to_store_partitioned(&dataset, 4, 0.5, 77),
        };
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ParallelShardedSimulation::new(dataset, config, 4, 0xBAD)
                .with_routing_policy(routing)
                .with_injected_crash(2, 7)
                .run()
        }))
        .expect_err("injected shard crash must panic the driver");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(
            message.contains("injected crash on shard 2 at step 7"),
            "driver panic must carry the shard thread's payload, got: {message:?}"
        );
    }
}

/// With elastic rebalancing on, the broker pauses after every step that plans
/// moves and otherwise runs ahead of the driver; a crash hook set inside such a
/// stretch still fires at the start of its step and reaches the driver.
#[test]
fn crash_inside_a_run_ahead_stretch_propagates_to_the_driver() {
    let dataset = to_store_partitioned(&to_zipf_skewed(&tpcds(20, 24), 1.2, 24), 8, 0.5, 77);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ParallelShardedSimulation::new(dataset, timer_cfg(), 4, 0xBAD)
            .with_routing_policy(RoutingPolicy::shuffled())
            .with_elastic(ElasticConfig::default())
            .with_injected_crash(2, 7)
            .run()
    }))
    .expect_err("injected shard crash must panic the driver");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        message.contains("injected crash on shard 2 at step 7"),
        "driver panic must carry the shard thread's payload, got: {message:?}"
    );
}

/// `step_wall_secs` are the intervals between consecutive step completions at
/// the driver: one per step, summing to no more than the run's wall time.
#[test]
fn step_wall_secs_are_completion_intervals_within_the_run_wall() {
    let dataset = to_store_partitioned(&tpcds(30, 27), 8, 0.5, 77);
    let run = ParallelShardedSimulation::new(dataset, timer_cfg(), 2, 0x5EC5)
        .with_routing_policy(RoutingPolicy::shuffled())
        .with_elastic(ElasticConfig::default())
        .run();
    let intervals = &run.runtime.step_wall_secs;
    assert_eq!(intervals.len(), 30, "one interval per step");
    assert!(intervals.iter().all(|&secs| secs >= 0.0));
    let sum: f64 = intervals.iter().sum();
    assert!(
        sum <= run.runtime.total_wall_secs,
        "step intervals sum to {sum} s, above the run's {} s",
        run.runtime.total_wall_secs
    );
}

// ---------------------------------------------------------------------------
// Party-mode invariance: running each shard's two MPC servers as actor threads
// (mpsc or loopback TCP) must replay the in-process cluster trajectory bit for
// bit — same reports, same view fingerprints, same canonical observable trace —
// at S ∈ {1, 4}, sequential and threaded drivers alike.
// ---------------------------------------------------------------------------

#[test]
fn cluster_replays_are_party_mode_invariant() {
    let dataset = tpcds(24, 26);
    let config = timer_cfg();
    for shards in [1usize, 4] {
        let (reference, reference_events) = traced(|| {
            ShardedSimulation::new(dataset.clone(), config, shards, 0x9A9A)
                .with_party_mode(PartyMode::InProcess)
                .run()
        });
        for mode in [PartyMode::Actor, PartyMode::Tcp] {
            let (sequential, seq_events) = traced(|| {
                ShardedSimulation::new(dataset.clone(), config, shards, 0x9A9A)
                    .with_party_mode(mode)
                    .run()
            });
            assert_eq!(
                sequential, reference,
                "{mode} sequential cluster run diverged from in-process (S={shards})"
            );
            assert_eq!(
                canonical_observable_trace(&seq_events),
                canonical_observable_trace(&reference_events),
                "{mode} observable trace diverged (S={shards})"
            );
            let (threaded, thr_events) = traced(|| {
                ParallelShardedSimulation::new(dataset.clone(), config, shards, 0x9A9A)
                    .with_party_mode(mode)
                    .run()
            });
            assert_bit_for_bit(
                &(reference.clone(), reference_events.clone()),
                &(threaded, thr_events),
                shards,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Party-level failure semantics: a dead MPC party (actor thread gone, TCP peer
// disconnected) must reach the driver as a panic carrying
// `PARTY_CRASH_MESSAGE`, through the same teardown as a shard-thread panic.
// ---------------------------------------------------------------------------

#[test]
fn party_thread_death_propagates_like_a_shard_panic() {
    let dataset = tpcds(20, 24);
    let config = timer_cfg();
    for mode in PartyMode::ALL {
        let dataset = dataset.clone();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ParallelShardedSimulation::new(dataset, config, 4, 0xBAD)
                .with_party_mode(mode)
                .with_injected_party_crash(2, 7)
                .run()
        }))
        .expect_err("injected party crash must panic the driver");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(
            message.contains(PARTY_CRASH_MESSAGE),
            "{mode}: driver panic must carry the party-crash payload, got: {message:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Soak: 8 shard threads × ≥10⁵ owner uploads with randomized broker batch
// boundaries, under a watchdog. Asserts no deadlock (completion before the
// timeout), no thread leak (all 9 workers joined), and that the ε spent by the
// shard threads reconciles with the cluster's composed privacy claim.
//
// Ignored by default; the nightly job runs it with
// `INCSHRINK_SOAK=1 cargo test ... -- --ignored`.
// ---------------------------------------------------------------------------

#[test]
#[ignore = "soak test: run with INCSHRINK_SOAK=1 and --ignored"]
fn soak_eight_shard_threads_hundred_thousand_uploads() {
    if std::env::var("INCSHRINK_SOAK").map_or(true, |v| v != "1") {
        eprintln!("INCSHRINK_SOAK != 1; skipping soak body");
        return;
    }
    let shards = 8usize;
    let base = TpcDsGenerator::new(WorkloadParams {
        steps: 600,
        view_entries_per_step: 90.0,
        seed: 25,
    })
    .generate();
    let uploads = base.left.updates().len() + base.right.updates().len();
    assert!(
        uploads >= 100_000,
        "soak workload too small: {uploads} uploads"
    );
    let dataset = to_store_partitioned(&base, 8, 0.5, 77);
    let config = timer_cfg();

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let out = traced(|| {
            ParallelShardedSimulation::new(dataset, config, shards, 0x50AC)
                .with_routing_policy(RoutingPolicy::shuffled())
                .with_ingest_chunk_seed(0xC4A0)
                .run()
        });
        let _ = done_tx.send(out);
    });
    // The watchdog: a deadlocked broker/shard channel would hang forever; the
    // soak must instead fail loudly within the deadline.
    let (report, events) = match done_rx.recv_timeout(Duration::from_secs(1800)) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("soak run deadlocked (watchdog expired)"),
        Err(RecvTimeoutError::Disconnected) => {
            runner.join().expect("soak runner panicked");
            unreachable!("runner exited without sending its result");
        }
    };
    runner.join().expect("soak runner panicked");

    assert_eq!(
        report.runtime.threads_joined,
        shards + 1,
        "worker threads leaked under soak load"
    );
    assert_eq!(report.report.shards, shards);
    assert!(report.runtime.total_wall_secs > 0.0);

    // ε reconciliation: every shard thread's ledger entries replayed through
    // the accountant stay within the cluster's composed per-shard claim.
    let ledger: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::Epsilon(entry) => Some(entry.clone()),
            _ => None,
        })
        .collect();
    assert!(!ledger.is_empty(), "soak run spent no ε");
    let summary = LedgerSummary::from_events(&events);
    assert!(summary.entries > 0);
    let split = shard_config(&config, shards);
    let mut claimed = PrivacyAccountant::new();
    claimed.record(MechanismApplication {
        mechanism_epsilon: split.epsilon,
        stability: 1,
        disjoint: false,
    });
    assert!(
        claimed.reconciles_with_ledger(&ledger, split.contribution_budget),
        "shard-thread ε spends exceed the composed cluster claim"
    );
}
