//! The typed analyst query API: build [`Query`]s with the AST, run each one as a
//! fused oblivious scan of a single pair's view ([`Query::execute`]), of the S = 4
//! cluster's shard views merged by `ScatterGatherExecutor::merge`, and through the
//! [`NmBaselineEngine`] — and compare the answers against the generalized logical
//! ground truths.
//!
//! ```bash
//! cargo run --example analyst_queries --release
//! ```

use incshrink::prelude::*;
use incshrink_cluster::{shard_pipelines, ScatterGatherExecutor};
use incshrink_mpc::cost::CostModel;
use incshrink_workload::logical_join_rows;

fn main() {
    // 1. A TPC-ds-like workload: Sales ⋈ Returns on pid within 10 days, 80 upload
    //    epochs. View entries read (pid, sale_date, pid, return_date) — the canonical
    //    left ++ right column order the query AST addresses.
    let steps = 80u64;
    let dataset = TpcDsGenerator::new(WorkloadParams {
        steps,
        view_entries_per_step: 2.7,
        seed: 7,
    })
    .generate();
    let interval = IncShrinkConfig::timer_interval_for_threshold(30.0, 2.7);
    let config = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval });

    // 2. The analyst's query mix, built with the typed AST. Filters address view
    //    columns and fuse into the oblivious scan, so they never change the cost —
    //    or the leakage — of the query.
    let queries = vec![
        Query::count(),
        Query::sum(3).filter(FilterExpr::le(1, steps as u32 / 2)),
        Query::group_count(1, (1..=8u32).map(|i| i * steps as u32 / 8).collect()),
    ];
    println!("analyst query mix (TPC-ds, {steps} epochs):");
    for q in &queries {
        println!("  {:<24} -> {}", q.label(), q.explain());
    }

    // 3. Single-pair run: maintain the view with the sDPTimer defaults, then answer
    //    every query with one fused oblivious view scan.
    let mut single = ShardPipeline::new(dataset.clone(), config, 0xFEED, CostModel::default());
    for t in 1..=steps {
        let _ = single.advance(t);
    }

    // 4. S = 4 cluster: hash-partition the workload, run four ε/4 pipelines, and
    //    scatter-gather the same queries — partial answers (element-wise for the
    //    group-count vector) merge through a ⌈log₂S⌉+1-round secure-add tree.
    let shards = 4usize;
    let mut pipelines = shard_pipelines(&dataset, &config, shards, 0xFEED, CostModel::default());
    for t in 1..=steps {
        for p in pipelines.iter_mut() {
            let _ = p.advance(t);
        }
    }

    // 5. Ground truth and the NM baseline: the logical joined pairs at the horizon
    //    back both the L1 error metric and the baseline's exact recomputation.
    let join = ViewDefinition::for_dataset(&dataset).as_query();
    let rows = logical_join_rows(&dataset, &join, steps);
    let nm = single.nm_engine_over(&rows);

    let merger = ScatterGatherExecutor::new(CostModel::default());
    let cluster = |q: &Query| {
        let partials: Vec<_> = pipelines.iter().map(|p| p.execute_query(q)).collect();
        merger.merge(q, &partials)
    };
    println!(
        "\n{:<24} {:>14} {:>10} {:>14} {:>10} {:>12}",
        "query", "single answer", "L1", "cluster answer", "L1", "NM QET gap"
    );
    for q in &queries {
        let truth = q.evaluate_plaintext(&rows);
        let sv = single.execute_query(q);
        let cv = cluster(q);
        let nm_outcome = nm.execute(q);
        let show = |v: &QueryValue| match v {
            QueryValue::Scalar(s) => s.to_string(),
            QueryValue::Vector(v) => format!("Σ{}", v.iter().sum::<u64>()),
        };
        println!(
            "{:<24} {:>14} {:>10.1} {:>14} {:>10.1} {:>11.0}x",
            q.label(),
            show(&sv.value),
            sv.value.l1_error(&truth),
            show(&cv.value),
            cv.value.l1_error(&truth),
            nm_outcome.qet.as_secs_f64() / sv.qet.as_secs_f64(),
        );
    }

    let breakdown = cluster(&queries[0]).shards.expect("cluster breakdown");
    println!(
        "\ncluster QET decomposes into the slowest shard scan ({:.4}s) plus the \
         {}-shard aggregation tree ({:.4}s); the NM baseline recomputes the full \
         oblivious join per query and stays orders of magnitude slower.",
        breakdown.max_shard_qet.as_secs_f64(),
        shards,
        breakdown.aggregation_qet.as_secs_f64(),
    );
}
