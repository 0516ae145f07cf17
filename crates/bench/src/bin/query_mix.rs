//! Analyst query-mix sweep: typed queries (count, filtered count, filtered sum,
//! group-count) × cluster size `S ∈ {1, 2, 4, 8}` on both evaluation workloads.
//!
//! For each shard count the cluster partitions the workload, runs `S` independent
//! Transform-and-Shrink pipelines (sDPTimer defaults, ε/S budget), and answers the
//! whole query mix every query epoch: each shard runs `Query::execute` over its
//! view, `ScatterGatherExecutor::merge` combines the partial answers — element-wise
//! for the group-count vector — through the secure-add tree, and
//! `NmBaselineEngine` prices what the same query would cost without a view (a full
//! oblivious join over the outsourced data). Errors are measured against the
//! generalized logical ground truths (`logical_join_rows` + `Query::evaluate_plaintext`).
//!
//! ```bash
//! cargo run -p incshrink-bench --bin query_mix --release
//! INCSHRINK_BENCH_STEPS=1 cargo run -p incshrink-bench --bin query_mix --release  # CI smoke
//! ```

use incshrink::prelude::*;
use incshrink_bench::report::fmt;
use incshrink_bench::{build_dataset, default_steps, print_table, write_json};
use incshrink_cluster::{shard_pipelines, ScatterGatherExecutor};
use incshrink_mpc::cost::CostModel;
use incshrink_workload::logical_join_rows;
use serde::{Deserialize, Serialize};

/// One (query, shard count) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct QueryMixRow {
    dataset: String,
    query: String,
    plan: String,
    shards: usize,
    queries_issued: u64,
    avg_l1_error: f64,
    avg_max_shard_qet_secs: f64,
    avg_aggregation_secs: f64,
    avg_cluster_qet_secs: f64,
    avg_nm_qet_secs: f64,
    nm_slowdown: f64,
}

/// The analyst query mix for a workload horizon: the hardwired count, a temporally
/// filtered count, a filtered sum over the right-time column and a group-count over
/// a public domain of left-time (purchase/allegation day) values.
fn query_mix(steps: u64) -> Vec<Query> {
    let horizon = steps as u32;
    let domain: Vec<u32> = (1..=16u32)
        .map(|i| (i * horizon.max(16) / 16).max(1))
        .collect();
    vec![
        Query::count(),
        Query::count().filter(FilterExpr::le(1, horizon / 2)),
        Query::sum(3).filter(FilterExpr::ge(1, horizon / 4)),
        Query::group_count(1, domain),
    ]
}

fn main() {
    let _telemetry = incshrink_bench::init();
    let steps = default_steps();
    let shard_counts = [1usize, 2, 4, 8];
    let model = CostModel::default();
    let query_interval = 10u64.min(steps).max(1);
    let mut all_rows: Vec<QueryMixRow> = Vec::new();

    for kind in [DatasetKind::TpcDs, DatasetKind::Cpdb] {
        let rate = match kind {
            DatasetKind::TpcDs => 2.7,
            DatasetKind::Cpdb => 9.8,
        };
        let interval = IncShrinkConfig::timer_interval_for_threshold(30.0, rate);
        let config = match kind {
            DatasetKind::TpcDs => {
                IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval })
            }
            DatasetKind::Cpdb => {
                IncShrinkConfig::cpdb_default(UpdateStrategy::DpTimer { interval })
            }
        };
        let dataset = build_dataset(kind, steps, 0xAB1E);
        let join = ViewDefinition::for_dataset(&dataset).as_query();
        let queries = query_mix(steps);

        println!(
            "\n=== {kind} · query mix × S ({steps} upload epochs, sDPTimer T = {interval}, \
             query every {query_interval}) ===\n"
        );
        for q in &queries {
            println!("  {:<28} plan: {}", q.label(), q.explain());
        }
        println!();

        // Per-epoch ground truths and NM-baseline outcomes are independent of the
        // shard count, so compute them once per dataset instead of once per S: the
        // joined pairs at each queried step, the per-query truth values, and the
        // NM QET (a full oblivious join over everything uploaded so far, as tallied
        // by an NM pipeline over the whole workload).
        struct Epoch {
            t: u64,
            truths: Vec<QueryValue>,
            nm_qet_secs: Vec<f64>,
        }
        let nm_config = IncShrinkConfig {
            strategy: UpdateStrategy::NonMaterialized,
            ..config
        };
        let mut nm_pipeline = ShardPipeline::new(dataset.clone(), nm_config, 0x7AB2, model);
        let epochs: Vec<Epoch> = (1..=steps)
            .filter_map(|t| {
                let _ = nm_pipeline.advance(t);
                if t % query_interval != 0 {
                    return None;
                }
                let rows = logical_join_rows(&dataset, &join, t);
                let nm = nm_pipeline.nm_engine_over(&rows);
                Some(Epoch {
                    t,
                    truths: queries
                        .iter()
                        .map(|q| q.evaluate_plaintext(&rows))
                        .collect(),
                    nm_qet_secs: queries
                        .iter()
                        .map(|q| nm.execute(q).qet.as_secs_f64())
                        .collect(),
                })
            })
            .collect();

        let merger = ScatterGatherExecutor::new(model);
        for &shards in &shard_counts {
            let mut pipelines = shard_pipelines(&dataset, &config, shards, 0x7AB2, model);

            let mut l1 = vec![0.0f64; queries.len()];
            let mut max_shard = vec![0.0f64; queries.len()];
            let mut agg = vec![0.0f64; queries.len()];
            let mut cluster_qet = vec![0.0f64; queries.len()];
            let mut nm_qet = vec![0.0f64; queries.len()];
            let mut issued = 0u64;

            let mut epoch_iter = epochs.iter().peekable();
            for t in 1..=steps {
                for p in pipelines.iter_mut() {
                    let _ = p.advance(t);
                }
                let Some(epoch) = epoch_iter.next_if(|e| e.t == t) else {
                    continue;
                };
                issued += 1;
                for (qi, q) in queries.iter().enumerate() {
                    let partials: Vec<_> = pipelines.iter().map(|p| p.execute_query(q)).collect();
                    let outcome = merger.merge(q, &partials);
                    let breakdown = outcome.shards.expect("cluster breakdown");
                    l1[qi] += outcome.value.l1_error(&epoch.truths[qi]);
                    max_shard[qi] += breakdown.max_shard_qet.as_secs_f64();
                    agg[qi] += breakdown.aggregation_qet.as_secs_f64();
                    cluster_qet[qi] += outcome.qet.as_secs_f64();
                    nm_qet[qi] += epoch.nm_qet_secs[qi];
                }
            }

            let div = |sum: f64| {
                if issued == 0 {
                    0.0
                } else {
                    sum / issued as f64
                }
            };
            for (qi, q) in queries.iter().enumerate() {
                let avg_cluster = div(cluster_qet[qi]);
                let avg_nm = div(nm_qet[qi]);
                all_rows.push(QueryMixRow {
                    dataset: kind.to_string(),
                    query: q.label(),
                    plan: q.explain(),
                    shards,
                    queries_issued: issued,
                    avg_l1_error: div(l1[qi]),
                    avg_max_shard_qet_secs: div(max_shard[qi]),
                    avg_aggregation_secs: div(agg[qi]),
                    avg_cluster_qet_secs: avg_cluster,
                    avg_nm_qet_secs: avg_nm,
                    nm_slowdown: if avg_cluster > 0.0 {
                        avg_nm / avg_cluster
                    } else {
                        0.0
                    },
                });
            }
        }

        let table: Vec<Vec<String>> = all_rows
            .iter()
            .filter(|r| r.dataset == kind.to_string())
            .map(|r| {
                vec![
                    r.query.clone(),
                    r.shards.to_string(),
                    fmt(r.avg_l1_error),
                    fmt(r.avg_max_shard_qet_secs),
                    fmt(r.avg_aggregation_secs),
                    fmt(r.avg_cluster_qet_secs),
                    fmt(r.avg_nm_qet_secs),
                    format!("{:.0}x", r.nm_slowdown),
                ]
            })
            .collect();
        print_table(
            &[
                "query",
                "S",
                "L1 err",
                "max-shard scan(s)",
                "agg(s)",
                "cluster QET(s)",
                "NM QET(s)",
                "NM slowdown",
            ],
            &table,
        );
    }

    write_json("query_mix", &all_rows);
    println!(
        "\nExpected shape: every query type rides the same fused view scan, so QET is \
         linear in the padded view and shrinks ~1/S with shards while the group-count \
         vector only adds element-wise width to the ⌈log2 S⌉+1 aggregation rounds; \
         the NM baseline recomputes the full oblivious join per query and stays \
         orders of magnitude slower for every member of the mix."
    );
}
