//! Transform over a long horizon. The benchmark's 2 000 steps cannot tell a cost
//! that is flat in `T` from one that grows slowly; this drives the TPC-ds pipeline
//! through 20 000 and pins that a late decile's Transform costs what an early one
//! does, that the join input never exceeds the public active window, and that the
//! answer stays inside the benchmark's ceiling.

use incshrink::prelude::*;
use incshrink_mpc::cost::CostModel;
use incshrink_telemetry::{Event, InMemory};
use std::sync::Arc;

#[test]
#[ignore = "20 000 steps: run in release (nightly.yml)"]
fn transform_cost_is_flat_in_the_horizon() {
    const STEPS: u64 = 20_000;
    const DECILE: usize = STEPS as usize / 10;
    let dataset = TpcDsGenerator::new(WorkloadParams {
        steps: STEPS,
        view_entries_per_step: 2.7,
        seed: 7,
    })
    .generate();
    let config = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
    let window_steps = (config.contribution_budget / config.truncation_bound - 1) as usize;
    let mut pipeline = ShardPipeline::new(dataset, config, 7, CostModel::default());

    let sink = Arc::new(InMemory::new());
    let _guard = incshrink_telemetry::install(sink.clone());
    let mut transform_secs = Vec::with_capacity(STEPS as usize);
    let (mut max_batch, mut max_window) = (0usize, 0u64);
    for t in 1..=STEPS {
        let uploads = pipeline.upload_batches(t);
        max_batch =
            max_batch.max(uploads.left.len() + uploads.right.as_ref().map_or(0, |b| b.len()));
        let outcome = pipeline.advance_with_uploads(t, uploads);
        transform_secs.push(outcome.transform_duration.map_or(0.0, |d| d.as_secs_f64()));
        for event in sink.take() {
            match event {
                Event::Span(span) if span.name == "transform" => {
                    max_window = max_window.max(span.cost.map_or(0, |cost| cost.window_rows));
                }
                _ => {}
            }
        }
    }

    let decile = |i: usize| -> f64 { transform_secs[i * DECILE..(i + 1) * DECILE].iter().sum() };
    let (early, late) = (decile(1), decile(9));
    assert!(
        (late / early - 1.0).abs() <= 0.01,
        "Transform seconds: decile 2 {early:.1}, decile 10 {late:.1}"
    );
    assert!(max_window > 0, "transform spans carry their window length");
    assert!(
        max_window as usize <= window_steps * max_batch,
        "joined against {max_window} rows, window of {window_steps} batches of ≤ {max_batch}"
    );
    println!("decile 2 {early:.1} s, decile 10 {late:.1} s; window ≤ {max_window} rows");

    let answer = pipeline
        .execute_query(&Query::count())
        .value
        .expect_scalar();
    let truth = pipeline.true_count(STEPS);
    assert!(answer <= truth, "answered {answer}, truth {truth}");
    let backlog = (truth - answer) as f64 / truth.max(500) as f64;
    assert!(backlog <= 0.60, "answered {answer}, truth {truth}");
}
