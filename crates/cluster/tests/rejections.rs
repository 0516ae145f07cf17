//! Configurations the cluster driver rejects at `run`: each one must be refused
//! with the same message whichever host the shards would have run on, and — on
//! the threaded front — before any worker thread exists. The threads-only crash
//! hooks are rejected there too when they name a shard the cluster lacks.
//!
//! This file holds a single test on purpose: it swaps the process-wide panic
//! hook around each rejected run, which concurrent tests would race.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use incshrink::prelude::*;
use incshrink_cluster::{
    ElasticConfig, ParallelShardedSimulation, RoutingPolicy, ShardedSimulation,
};
use incshrink_telemetry::{install, InMemory};
use incshrink_workload::to_store_partitioned;

/// Run `run`, which must panic. Returns the panic message and how many owners
/// the installed telemetry collector had *at the moment of the panic*: every
/// worker thread is handed a clone of the driver's collectors when it is
/// spawned and blocks on its command channel from then on, so a count above
/// the baseline means a thread was already running when the rejection fired.
fn rejected(sink: &Arc<InMemory>, run: impl FnOnce()) -> (String, usize) {
    let owners_at_panic = Arc::new(AtomicUsize::new(0));
    let previous = std::panic::take_hook();
    std::panic::set_hook({
        let (sink, owners) = (sink.clone(), owners_at_panic.clone());
        // The hook's own clone of `sink` is part of the baseline too.
        Box::new(move |_| owners.store(Arc::strong_count(&sink) - 1, Ordering::SeqCst))
    });
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
    std::panic::set_hook(previous);
    let payload = outcome.expect_err("the configuration must be rejected");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("rejections panic with a message");
    (message, owners_at_panic.load(Ordering::SeqCst))
}

#[test]
fn both_fronts_reject_the_same_configurations_before_any_thread_is_spawned() {
    let co_partitioned = TpcDsGenerator::new(WorkloadParams {
        steps: 12,
        view_entries_per_step: 2.7,
        seed: 31,
    })
    .generate();
    let store_partitioned = to_store_partitioned(&co_partitioned, 8, 0.5, 77);
    let timer = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });

    // (dataset, config, routing, elastic, fragment the message must carry)
    let table = [
        (
            &store_partitioned,
            timer,
            RoutingPolicy::CoPartitioned,
            None,
            "RoutingPolicy::CoPartitioned would lose cross-shard join pairs",
        ),
        (
            &co_partitioned,
            timer,
            RoutingPolicy::CoPartitioned,
            Some(ElasticConfig::default()),
            "the elastic control plane drives the shuffle phase's routing table",
        ),
        (
            &store_partitioned,
            timer.with_transform_batch(4),
            RoutingPolicy::shuffled(),
            Some(ElasticConfig::default()),
            "elastic migration cannot relocate shard state around a deferred Transform batch",
        ),
    ];

    let sink = Arc::new(InMemory::new());
    let _guard = install(sink.clone());
    let baseline = Arc::strong_count(&sink);
    for (dataset, config, routing, elastic, fragment) in table {
        let (inline_message, _) = rejected(&sink, || {
            let mut sim =
                ShardedSimulation::new(dataset.clone(), config, 2, 5).with_routing_policy(routing);
            if let Some(elastic) = elastic {
                sim = sim.with_elastic(elastic);
            }
            let _ = sim.run();
        });
        let (threaded_message, owners_at_panic) = rejected(&sink, || {
            let mut sim = ParallelShardedSimulation::new(dataset.clone(), config, 2, 5)
                .with_routing_policy(routing);
            if let Some(elastic) = elastic {
                sim = sim.with_elastic(elastic);
            }
            let _ = sim.run();
        });
        assert!(
            inline_message.contains(fragment),
            "unexpected rejection: {inline_message:?}"
        );
        assert_eq!(
            threaded_message, inline_message,
            "the two fronts must reject with the same message"
        );
        assert_eq!(
            owners_at_panic, baseline,
            "a worker thread held the collectors when {fragment:?} was rejected"
        );
    }

    type Hook = fn(ParallelShardedSimulation, usize, u64) -> ParallelShardedSimulation;
    let hooks: [Hook; 2] = [
        ParallelShardedSimulation::with_injected_crash,
        ParallelShardedSimulation::with_injected_party_crash,
    ];
    for hook in hooks {
        let (message, owners_at_panic) = rejected(&sink, || {
            let sim = ParallelShardedSimulation::new(co_partitioned.clone(), timer, 2, 5);
            let _ = hook(sim, 2, 3).run();
        });
        assert!(
            message.contains("a crash hook names shard 2, but the cluster has 2 shards"),
            "unexpected rejection: {message:?}"
        );
        assert_eq!(
            owners_at_panic, baseline,
            "a worker thread held the collectors when a crash hook was rejected"
        );
    }
    assert!(sink.take().is_empty(), "a rejected run emitted events");
}
