//! The secure cache over several flush cycles. The benchmark's horizons see at most
//! one flush; this drives the TPC-ds pipeline through ten and pins that the run
//! list stays short, a flush leaves nothing behind, Shrink stays far below what the
//! single-sorted-prefix layout it replaced charged for the same released sizes, and
//! the answer stays inside the benchmark's ceiling.

use incshrink::prelude::*;
use incshrink_mpc::cost::CostModel;
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
    let (mut prefix, mut prefix_layout_compares) = (0usize, 0u64);
    let (mut compares, mut max_runs, mut flushes) = (0u64, 0usize, 0u64);
    let sink = Arc::new(InMemory::new());
    let _guard = incshrink_telemetry::install(sink.clone());
    for t in 1..=STEPS {
        let len_before = pipeline.cache_len();
        let written_before = pipeline.cache().stats().written;
        let outcome = pipeline.advance(t);
        for event in sink.take() {
            match event {
                Event::Span(span) if span.name == "shrink" => {
                    compares += span.cost.map_or(0, |cost| cost.compares);
                }
                _ => {}
            }
        }
        max_runs = max_runs.max(pipeline.cache().run_lens().len());
        if outcome.synced || outcome.flushed {
            let written = pipeline.cache().stats().written - written_before;
            let n = len_before + written as usize;
            prefix_layout_compares += batcher_pair_count(n - prefix);
            if 0 < prefix && prefix < n {
                prefix_layout_compares += bitonic_merge_pair_count(n);
            }
            prefix = pipeline.cache_len();
        }
        if outcome.flushed {
            flushes += 1;
            assert_eq!(pipeline.cache_len(), 0, "flush at step {t}");
        }
    }
    assert_eq!(flushes, 10);
    assert!(max_runs <= 12, "{max_runs} runs alive");
    let ratio = compares as f64 / prefix_layout_compares as f64;
    assert!(
        ratio <= 0.2,
        "{compares} comparators, {prefix_layout_compares} under the prefix layout ({ratio:.3})"
    );
    println!("runs ≤ {max_runs}; comparators {compares} / {prefix_layout_compares} = {ratio:.3}");

    let answer = pipeline
        .execute_query(&Query::count())
        .value
        .expect_scalar();
    let truth = pipeline.true_count(STEPS);
    assert!(answer <= truth, "answered {answer}, truth {truth}");
    let backlog = (truth - answer) as f64 / truth.max(500) as f64;
    assert!(backlog <= 0.60, "answered {answer}, truth {truth}");
}
