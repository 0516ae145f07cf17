//! The secure cache over several flush cycles. The benchmark's horizons see at most
//! one flush; this drives the TPC-ds pipeline through ten and pins that the run
//! list stays short, a flush leaves nothing behind, Shrink's modeled seconds stay far
//! below what the single-sorted-prefix layout it replaced charged for the same
//! released sizes, and the answer stays inside the benchmark's ceiling.

use incshrink::prelude::*;
use incshrink_mpc::cost::{CostModel, CostReport};
use incshrink_oblivious::{batcher_pair_count, bitonic_merge_pair_count};
use incshrink_telemetry::{Event, InMemory};
use std::sync::Arc;

#[test]
#[ignore = "20 000 steps: run in release (nightly.yml)"]
fn ten_flush_cycles_keep_the_run_list_short_and_shrink_cheap() {
    const STEPS: u64 = 20_000;
    let dataset = TpcDsGenerator::new(WorkloadParams {
        steps: STEPS,
        view_entries_per_step: 2.7,
        seed: 7,
    })
    .generate();
    let config = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
    let mut pipeline = ShardPipeline::new(dataset, config, 7, CostModel::default());

    // What PR 15's layout charged per synchronisation, replayed over the sizes both
    // servers see: a Batcher sort of the rows behind the sorted prefix, then a
    // bitonic merge over the whole cache (a flush in the same step found it sorted).
    // That layout never trims: its cache is every row written since the last flush
    // and not yet fetched. A flag-keyed comparator is priced as one AND and a swap
    // of the view row's three words; a network charges no round of its own, as it
    // runs inside the synchronisation's circuit. Both sides are priced in modeled
    // seconds: the seal's compaction adds control ANDs, so an AND is no longer a
    // comparator.
    let (mut untrimmed, mut prefix, mut prefix_layout) = (0usize, 0usize, CostReport::default());
    let (mut shrink, mut max_runs, mut flushes) = (CostReport::default(), 0usize, 0u64);
    let mut network = |comparators: u64| {
        prefix_layout.secure_ands += comparators;
        prefix_layout.secure_swaps += 3 * comparators;
    };
    let sink = Arc::new(InMemory::new());
    let _guard = incshrink_telemetry::install(sink.clone());
    for t in 1..=STEPS {
        let before = pipeline.cache().stats();
        let outcome = pipeline.advance(t);
        for event in sink.take() {
            match event {
                Event::Span(span) if span.name == "shrink" => {
                    let cost = span.cost.expect("shrink spans carry their cost");
                    shrink += CostReport {
                        secure_compares: cost.compares,
                        secure_swaps: cost.swaps,
                        secure_ands: cost.ands,
                        secure_adds: cost.adds,
                        bytes_communicated: cost.bytes,
                        rounds: cost.rounds,
                    };
                }
                _ => {}
            }
        }
        max_runs = max_runs.max(pipeline.cache().run_lens().len());
        let after = pipeline.cache().stats();
        untrimmed += (after.written - before.written) as usize;
        if outcome.synced || outcome.flushed {
            network(batcher_pair_count(untrimmed - prefix));
            if 0 < prefix && prefix < untrimmed {
                network(bitonic_merge_pair_count(untrimmed));
            }
            let fetched = after.read + after.flushed - before.read - before.flushed;
            untrimmed -= fetched as usize;
            prefix = untrimmed;
        }
        if outcome.flushed {
            flushes += 1;
            assert_eq!(pipeline.cache_len(), 0, "flush at step {t}");
            (untrimmed, prefix) = (0, 0);
        }
    }
    assert_eq!(flushes, 10);
    assert!(max_runs <= 12, "{max_runs} runs alive");
    // The ratio read 0.047 once every run was trimmed to `R`, 0.028 once the seal
    // became a tight compaction, 0.022 once every merge of a cut was priced for
    // the rows the cut keeps and 0.020 once rounds came to be charged per circuit.
    let model = CostModel::default();
    let [shrink, prefix_layout] =
        [shrink, prefix_layout].map(|report| model.simulate(&report).as_secs_f64());
    let ratio = shrink / prefix_layout;
    assert!(
        ratio <= 0.2,
        "Shrink {shrink:.2} s, {prefix_layout:.2} s under the prefix layout ({ratio:.3})"
    );
    println!("runs ≤ {max_runs}; Shrink {shrink:.2} s / {prefix_layout:.2} s = {ratio:.3}");

    let answer = pipeline
        .execute_query(&Query::count())
        .value
        .expect_scalar();
    let truth = pipeline.true_count(STEPS);
    assert!(answer <= truth, "answered {answer}, truth {truth}");
    let backlog = (truth - answer) as f64 / truth.max(500) as f64;
    assert!(backlog <= 0.60, "answered {answer}, truth {truth}");
}
