//! The four workloads. Each repetition builds its inputs from the seed, builds
//! a fresh pipeline (set-up), then drives the timed region as a closed loop from
//! this one thread: epoch `t+1` is issued when epoch `t` and its queries
//! returned — the paper's lock-step time model. The system is touched only
//! through its public API and every call is timed from outside. Host-clock
//! metrics are reported at nominal host speed (see `speed.rs`).

use crate::speed::{sampled_during, SpeedGauge};
use crate::stats::{median, percentile_sorted, ratio, sorted, tail_percentile};
use incshrink::metrics::relative_error;
use incshrink::prelude::*;
use incshrink_cluster::{ElasticConfig, ParallelShardedSimulation, RoutingPolicy};
use incshrink_mpc::{CostModel, PartyMode, SimDuration};
use incshrink_workload::{logical_join_rows, to_zipf_skewed};
use std::collections::BTreeMap;
use std::time::Instant;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Step counts of one workload: `warm` steps grow the view inside set-up,
/// `timed` steps are measured.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub warm: u64,
    pub timed: u64,
}

/// Full-size step counts, fitted so that ten seconds of timed region hold four
/// to seven repetitions of every workload on a 2-core box. `divisor` shrinks
/// them for `--smoke` and the unit tests.
pub fn sizes(workload: &str, divisor: u64) -> Sizes {
    let (warm, timed) = match workload {
        "ingest_timer_tpcds" => (0, 2000),
        "ingest_timer_cpdb" => (0, 400),
        "cluster_elastic_s2" => (0, 2000),
        "analyst_reads_tpcds" => (1200, 800),
        other => panic!("unknown workload {other}"),
    };
    Sizes {
        warm: warm / divisor,
        timed: (timed / divisor).max(20),
    }
}

/// Shard threads of the cluster workload.
const CLUSTER_SHARDS: usize = 2;

/// Shard threads a workload runs (0 = a single server pair).
pub fn shards(workload: &str) -> usize {
    if workload == "cluster_elastic_s2" {
        CLUSTER_SHARDS
    } else {
        0
    }
}

/// The (cluster-level) configuration a workload runs: the paper's defaults
/// for its dataset, sDPTimer at the paper's interval.
pub fn config(workload: &str) -> IncShrinkConfig {
    if workload == "ingest_timer_cpdb" {
        IncShrinkConfig::cpdb_default(UpdateStrategy::DpTimer { interval: 3 })
    } else {
        IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 })
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host-clock metrics; the run reports their median over repetitions.
    pub timing: Metrics,
    /// Metrics that repeat exactly for a seed (modeled time, sizes, counts).
    pub exact: Metrics,
    /// Sample count behind each percentile metric, for the printed table.
    pub samples: BTreeMap<&'static str, usize>,
    /// `MaterializedView::fingerprint` of every view the repetition built.
    pub fingerprints: Vec<u64>,
    /// Operations attempted: steps, queries and correctness checks.
    pub attempted: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// Largest backlog share over the count answers (what the ceiling pins).
    pub max_backlog_share: f64,
    /// Simulated Shrink seconds of the timed region; the traced pass divides
    /// them by the `shrink` span's host seconds.
    pub modeled_shrink_s: f64,
    /// Host-speed index of the timed region; the traced pass divides span
    /// seconds by it like every other host-clock metric.
    pub speed_index: f64,
}

impl Rep {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn check_count(&mut self, answer: u64, truth: u64, which: impl FnOnce() -> String) {
        let share = backlog_share(answer, truth);
        self.max_backlog_share = self.max_backlog_share.max(share);
        self.check(answer <= truth && share <= BACKLOG_CEILING, || {
            format!("{}: answered {answer}, truth {truth}", which())
        });
    }

    /// Median, p99 and tail percentile of raw `ms` samples, at nominal speed.
    fn percentiles(&mut self, [p50, p99, tail]: [&'static str; 3], ms: &[f64]) {
        let s = sorted(ms);
        let index = self.speed_index;
        self.timing.insert(p50, percentile_sorted(&s, 500) / index);
        self.timing.insert(p99, percentile_sorted(&s, 990) / index);
        self.timing
            .insert(tail, tail_percentile(&s).map_or(0.0, |(_, v)| v) / index);
        self.samples.insert(p50, ms.len());
        self.samples.insert(p99, ms.len());
        self.samples.insert(tail, ms.len());
    }
}

/// How far a count answer may lag the logical truth: the view trails the join
/// by what sits in the secure cache, what DP noise deferred and what the ω
/// truncation dropped, so the backlog grows with the truth. An answer passes
/// when `answer ≤ truth` (the view never invents rows) and the backlog is at
/// most [`BACKLOG_CEILING`] of `max(truth, BACKLOG_FLOOR)`; the floor covers
/// the steps before the first synchronisations. Pinned at about twice the
/// largest share seen over seeds 1–10 of the first full run.
const BACKLOG_CEILING: f64 = 0.60;
const BACKLOG_FLOOR: u64 = 500;

fn backlog_share(answer: u64, truth: u64) -> f64 {
    truth.saturating_sub(answer) as f64 / truth.max(BACKLOG_FLOOR) as f64
}

/// The timed loop samples the host-speed gauge every this many steps.
const GAUGE_EVERY: u64 = 25;
/// Sampling period of the gauge thread on the cluster workload.
const GAUGE_PERIOD: std::time::Duration = std::time::Duration::from_millis(20);

/// Ceiling on a run's mean relative error (paper Table 2 reports ≤ 0.1 at
/// full horizon; short smoke horizons sit higher because the first
/// synchronisation has not amortised yet).
const MEAN_REL_ERROR_CEILING: f64 = 0.5;

fn secs(d: Option<SimDuration>) -> f64 {
    d.map_or(0.0, SimDuration::as_secs_f64)
}

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

/// Owner uploads (logical updates of the private relations) arriving in
/// the half-open step interval `(from, to]`.
fn uploads_between(dataset: &Dataset, from: u64, to: u64) -> u64 {
    let right = if dataset.right_is_public {
        0
    } else {
        dataset.right.arrivals_between(from, to).len()
    };
    (dataset.left.arrivals_between(from, to).len() + right) as u64
}

/// The analyst's typed mix over a TPC-ds view of `horizon` steps: the
/// hardwired count, a temporally filtered count, a filtered sum over the
/// return-date column and a group-count over 16 public purchase days.
fn typed_mix(horizon: u64) -> Vec<(&'static str, Query)> {
    let horizon = horizon as u32;
    let domain: Vec<u32> = (1..=16u32)
        .map(|i| (i * horizon.max(16) / 16).max(1))
        .collect();
    vec![
        ("core.query.count_p50_ms", Query::count()),
        (
            "core.query.filtered_count_p50_ms",
            Query::count().filter(FilterExpr::le(1, horizon / 2)),
        ),
        (
            "core.query.filtered_sum_p50_ms",
            Query::sum(3).filter(FilterExpr::ge(1, horizon / 4)),
        ),
        (
            "core.query.group_count_p50_ms",
            Query::group_count(1, domain),
        ),
    ]
}

/// A single-server-pair workload.
struct PairPlan {
    name: &'static str,
    sizes: Sizes,
    generate: fn(u64, u64) -> Dataset,
    query_every: u64,
    queries: Vec<(&'static str, Query)>,
    /// Compare the typed mix with the plaintext oracle at the last step.
    oracle_check: bool,
}

fn pair_plan(name: &'static str, divisor: u64) -> PairPlan {
    let sizes = sizes(name, divisor);
    let count_only = || vec![("core.query.count_p50_ms", Query::count())];
    match name {
        "ingest_timer_tpcds" => PairPlan {
            name,
            sizes,
            generate: tpcds,
            query_every: 10,
            queries: count_only(),
            oracle_check: false,
        },
        "ingest_timer_cpdb" => PairPlan {
            name,
            sizes,
            generate: cpdb,
            query_every: 1,
            queries: count_only(),
            oracle_check: false,
        },
        "analyst_reads_tpcds" => PairPlan {
            name,
            sizes,
            generate: tpcds,
            query_every: 1,
            queries: typed_mix(sizes.warm + sizes.timed),
            oracle_check: true,
        },
        other => panic!("{other} is not a single-pair workload"),
    }
}

/// Run one repetition of `workload` at `1/divisor` of its full size.
pub fn run_repetition(workload: &'static str, seed: u64, divisor: u64) -> Rep {
    if workload == "cluster_elastic_s2" {
        run_cluster(sizes(workload, divisor), seed)
    } else {
        run_pair(&pair_plan(workload, divisor), seed)
    }
}

#[allow(clippy::too_many_lines)]
fn run_pair(plan: &PairPlan, seed: u64) -> Rep {
    let mut rep = Rep::default();
    let Sizes { warm, timed } = plan.sizes;
    let horizon = warm + timed;

    // --- set-up: inputs from the seed, a fresh pipeline, view warm-up; the
    // gauge samples host speed around each phase.
    let mut setup_gauge = SpeedGauge::new();
    setup_gauge.sample();
    let started = Instant::now();
    let dataset = (plan.generate)(horizon, seed);
    let generate_s = started.elapsed().as_secs_f64();
    setup_gauge.sample();
    let uploads = uploads_between(&dataset, warm, horizon);
    let oracle_dataset = plan.oracle_check.then(|| dataset.clone());
    let started = Instant::now();
    let mut pipeline = ShardPipeline::with_party_mode(
        dataset,
        config(plan.name),
        seed ^ 0x7AB2,
        CostModel::default(),
        PartyMode::InProcess,
    );
    let pipeline_new_s = started.elapsed().as_secs_f64();
    setup_gauge.sample();
    let started = Instant::now();
    for t in 1..=warm {
        let _ = pipeline.advance(t);
    }
    let warm_s = started.elapsed().as_secs_f64();
    setup_gauge.sample();
    let host_transform_before = pipeline.host_transform_secs();

    // --- timed region.
    let n = timed as usize;
    let mut step_ms = Vec::with_capacity(n);
    let mut sync_ms = Vec::new();
    let mut query_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(n); plan.queries.len()];
    let mut counts: Vec<(u64, u64)> = Vec::with_capacity(n);
    let mut last_answers: Vec<QueryValue> = Vec::new();
    let (mut upload_s, mut advance_s, mut query_s) = (0.0, 0.0, 0.0);
    let (mut transform_sim, mut shrink_sim, mut query_sim) = (0.0, 0.0, 0.0);
    let (mut compares, mut syncs, mut flushes, mut cache_peak) = (0u64, 0u64, 0u64, 0usize);
    let mut last_count_qet = 0.0;
    let mut gauge = SpeedGauge::new();
    let region = Instant::now();
    for t in warm + 1..=horizon {
        if (t - warm) % GAUGE_EVERY == 1 {
            gauge.sample();
        }
        let s0 = Instant::now();
        let batches = pipeline.upload_batches(t);
        let s1 = Instant::now();
        let outcome = pipeline.advance_with_uploads(t, batches);
        let s2 = Instant::now();
        upload_s += (s1 - s0).as_secs_f64();
        advance_s += (s2 - s1).as_secs_f64();
        let ms = (s2 - s0).as_secs_f64() * 1e3;
        step_ms.push(ms);
        if outcome.synced {
            sync_ms.push(ms);
            syncs += 1;
        }
        flushes += u64::from(outcome.flushed);
        transform_sim += secs(outcome.transform_duration);
        shrink_sim += secs(outcome.shrink_duration);
        compares += outcome.transform_report.map_or(0, |r| r.secure_compares);
        cache_peak = cache_peak.max(pipeline.cache_len());
        if t % plan.query_every == 0 {
            let keep = t == horizon;
            for (slot, (_, query)) in plan.queries.iter().enumerate() {
                let q0 = Instant::now();
                let answer = pipeline.execute_query(query);
                let q = q0.elapsed().as_secs_f64();
                query_s += q;
                query_ms[slot].push(q * 1e3);
                query_sim += answer.qet.as_secs_f64();
                if slot == 0 {
                    counts.push((answer.value.expect_scalar(), pipeline.true_count(t)));
                    last_count_qet = answer.qet.as_secs_f64();
                }
                if keep {
                    last_answers.push(answer.value);
                }
            }
        }
    }
    gauge.sample();
    let wall = region.elapsed().as_secs_f64() - gauge.spent_secs();
    rep.modeled_shrink_s = shrink_sim;
    rep.speed_index = gauge.index();

    // --- metrics.
    let all_query_ms: Vec<f64> = query_ms.iter().flatten().copied().collect();
    let host_transform_s = pipeline.host_transform_secs() - host_transform_before;
    let (setup_index, index) = (setup_gauge.index(), gauge.index());
    let t = &mut rep.timing;
    t.insert(
        "setup_s",
        (generate_s + pipeline_new_s + warm_s) / setup_index,
    );
    t.insert("workload.generate_s", generate_s / setup_index);
    t.insert("core.pipeline_new_s", pipeline_new_s / setup_index);
    t.insert("host.speed_index", index);
    t.insert("core.timed_wall_s", wall);
    t.insert(
        "core.timed_accounted_share",
        ratio(upload_s + advance_s + query_s, wall),
    );
    t.insert("uploads_per_s", ratio(uploads as f64, wall / index));
    t.insert("storage.upload_batches_s", upload_s / index);
    t.insert("core.advance_s", advance_s / index);
    t.insert("core.transform_s", host_transform_s / index);
    t.insert("core.query_s", query_s / index);
    t.insert(
        "core.step_max_ms",
        step_ms.iter().copied().fold(0.0, f64::max) / index,
    );
    t.insert(
        "core.model_over_host.transform",
        ratio(transform_sim, host_transform_s / index),
    );
    t.insert(
        "core.model_over_host.query",
        ratio(query_sim, query_s / index),
    );
    rep.percentiles(
        ["step_p50_ms", "core.step_p99_ms", "core.step_tail_ms"],
        &step_ms,
    );
    rep.percentiles(
        ["query_p50_ms", "core.query_p99_ms", "core.query_tail_ms"],
        &all_query_ms,
    );
    rep.timing
        .insert("step_sync_p50_ms", median(&sync_ms) / index);
    rep.samples.insert("step_sync_p50_ms", sync_ms.len());
    for ((name, _), ms) in plan.queries.iter().zip(&query_ms) {
        rep.timing.insert(name, median(ms) / index);
        rep.samples.insert(name, ms.len());
    }

    let view = pipeline.view();
    let queries_issued = all_query_ms.len() as u64;
    let rel_error = counts
        .iter()
        .map(|&(answer, truth)| relative_error(answer, truth))
        .sum::<f64>()
        / counts.len().max(1) as f64;
    let e = &mut rep.exact;
    e.insert(
        "modeled_qet_ms",
        ratio(query_sim, queries_issued as f64) * 1e3,
    );
    e.insert("modeled_mpc_s", transform_sim + shrink_sim);
    e.insert("accuracy", 1.0 - rel_error);
    e.insert("core.rel_error", rel_error);
    e.insert("view_mb", view.size_mb());
    e.insert("storage.uploads", uploads as f64);
    e.insert("core.transform.secure_compares", compares as f64);
    e.insert("core.shrink.syncs", syncs as f64);
    e.insert("core.shrink.flushes", flushes as f64);
    e.insert("storage.cache_len_peak", cache_peak as f64);
    e.insert("core.view_len", view.len() as f64);
    e.insert(
        "core.view_real_share",
        ratio(view.true_cardinality() as f64, view.len() as f64),
    );
    e.insert(
        "core.truncation_losses",
        pipeline.truncation_losses() as f64,
    );
    e.insert(
        "core.nm_speedup_modeled",
        ratio(pipeline.nm_query_duration().as_secs_f64(), last_count_qet),
    );
    rep.fingerprints.push(view.fingerprint());

    // --- correctness: every step and query is an operation; every count answer
    // is checked against the logical truth.
    rep.attempted += timed + queries_issued;
    for (i, &(answer, truth)) in counts.iter().enumerate() {
        rep.check_count(answer, truth, || format!("count #{i}"));
    }
    rep.check(rel_error <= MEAN_REL_ERROR_CEILING, || {
        format!("mean relative error {rel_error} above {MEAN_REL_ERROR_CEILING}")
    });
    if let Some(dataset) = oracle_dataset {
        // The engine's answers must equal the plaintext evaluation over the
        // view's own real rows exactly, and lag the logical join by no more
        // than the backlog ceiling (scaled by the summed column's range).
        let view_rows: Vec<Vec<u32>> = pipeline
            .view()
            .entries()
            .recover_all()
            .into_iter()
            .filter(|r| r.is_view)
            .map(|r| r.fields)
            .collect();
        let join = ViewDefinition::for_dataset(&dataset).as_query();
        let truth_rows = logical_join_rows(&dataset, &join, horizon);
        for ((name, query), answer) in plan.queries.iter().zip(&last_answers) {
            let over_view = query.evaluate_plaintext(&view_rows);
            rep.check(*answer == over_view, || {
                format!("{name}: engine {answer:?} != plaintext over view {over_view:?}")
            });
            let truth = query.evaluate_plaintext(&truth_rows);
            let scale = match query.aggregate() {
                incshrink::AggregateSpec::Sum { .. } => horizon + u64::from(dataset.join_window),
                _ => 1,
            };
            let l1 = answer.l1_error(&truth);
            let ceiling = BACKLOG_CEILING * (truth_rows.len() as u64).max(BACKLOG_FLOOR) as f64;
            rep.check(l1 <= ceiling * scale as f64, || {
                format!("{name}: L1 {l1} from the logical truth, ceiling {ceiling} x {scale}")
            });
        }
    }
    rep
}

fn run_cluster(sizes: Sizes, seed: u64) -> Rep {
    let mut rep = Rep::default();
    let steps = sizes.timed;

    let started = Instant::now();
    let base = tpcds(steps, seed);
    let dataset = to_store_partitioned(&to_zipf_skewed(&base, 1.2, seed), 8, 0.5, seed ^ 0x570E);
    let generate_s = started.elapsed().as_secs_f64();
    let uploads = uploads_between(&dataset, 0, steps);

    // `run()` builds the shard pipelines, spawns the threads, drives the step
    // loop and joins; the loop's own clock (`RuntimeStats`) is the timed
    // region, everything around it is set-up.
    // The step loop runs inside the library, so the host-speed gauge samples
    // from a thread of its own while it runs.
    let started = Instant::now();
    let config = config("cluster_elastic_s2");
    let (run, gauge) = sampled_during(GAUGE_PERIOD, || {
        ParallelShardedSimulation::new(dataset, config, CLUSTER_SHARDS, seed ^ 0x7AB2)
            .with_cost_model(CostModel::default())
            .with_routing_policy(RoutingPolicy::shuffled())
            .with_elastic(ElasticConfig::default())
            .with_party_mode(PartyMode::InProcess)
            .run()
    });
    let around = started.elapsed().as_secs_f64();
    let index = gauge.index();
    rep.speed_index = index;
    let (report, runtime) = (&run.report, &run.runtime);
    let wall = runtime.total_wall_secs;
    let summary = &report.summary;

    let step_ms: Vec<f64> = runtime.step_wall_secs.iter().map(|s| s * 1e3).collect();
    let sync_ms: Vec<f64> = step_ms
        .iter()
        .zip(&report.steps)
        .filter(|(_, record)| record.synced)
        .map(|(ms, _)| *ms)
        .collect();
    let queries = summary.queries_issued;
    let build_s = (around - wall).max(0.0);
    let t = &mut rep.timing;
    t.insert("setup_s", (generate_s + build_s) / index);
    t.insert("workload.generate_s", generate_s / index);
    t.insert("core.pipeline_new_s", build_s / index);
    t.insert("host.speed_index", index);
    t.insert("core.timed_wall_s", wall);
    t.insert(
        "core.timed_accounted_share",
        ratio(runtime.step_wall_secs.iter().sum(), wall),
    );
    t.insert("uploads_per_s", ratio(uploads as f64, wall / index));
    t.insert("core.transform_s", summary.host_transform_secs / index);
    t.insert("core.query_s", summary.host_query_secs / index);
    t.insert("cluster.shuffle_s", summary.host_shuffle_secs / index);
    t.insert(
        "core.step_max_ms",
        step_ms.iter().copied().fold(0.0, f64::max) / index,
    );
    // The runtime exposes only the total host seconds of its scatter-gather
    // queries, so the cluster's query latency is a mean, not a median.
    let query_mean_ms = ratio(summary.host_query_secs / index, queries as f64) * 1e3;
    t.insert("query_p50_ms", query_mean_ms);
    t.insert("cluster.query_mean_ms", query_mean_ms);
    t.insert(
        "core.model_over_host.query",
        ratio(summary.total_query_secs, summary.host_query_secs / index),
    );
    rep.percentiles(
        ["step_p50_ms", "core.step_p99_ms", "core.step_tail_ms"],
        &step_ms,
    );
    let p99 = rep.timing["core.step_p99_ms"];
    rep.timing.insert("cluster.runtime.step_p99_ms", p99);
    rep.timing
        .insert("step_sync_p50_ms", median(&sync_ms) / index);
    rep.samples.insert("step_sync_p50_ms", sync_ms.len());
    rep.samples.insert("query_p50_ms", queries as usize);

    let elastic = report.elastic.clone().unwrap_or_default();
    let view_len: usize = report.shard_reports.iter().map(|s| s.view_len).sum();
    let view_real: usize = report.shard_reports.iter().map(|s| s.view_real).sum();
    let e = &mut rep.exact;
    e.insert("modeled_qet_ms", summary.avg_qet_secs * 1e3);
    e.insert(
        "modeled_mpc_s",
        summary.total_mpc_secs + report.shuffle.total_secs + elastic.migration_secs,
    );
    e.insert("accuracy", 1.0 - summary.avg_relative_error);
    e.insert("core.rel_error", summary.avg_relative_error);
    e.insert("view_mb", summary.final_view_mb);
    e.insert("storage.uploads", uploads as f64);
    e.insert(
        "core.transform.secure_compares",
        summary.transform_secure_compares as f64,
    );
    e.insert("core.shrink.syncs", summary.sync_count as f64);
    e.insert(
        "storage.cache_len_peak",
        report.steps.iter().map(|s| s.cache_len).max().unwrap_or(0) as f64,
    );
    e.insert("core.view_len", view_len as f64);
    e.insert(
        "core.view_real_share",
        ratio(view_real as f64, view_len as f64),
    );
    e.insert("core.truncation_losses", summary.truncation_losses as f64);
    e.insert(
        "cluster.shuffle.overflows",
        report.shuffle.overflow_events as f64,
    );
    e.insert(
        "cluster.shuffle.padded_dummy_bytes",
        report.shuffle.padded_dummy_bytes as f64,
    );
    e.insert("cluster.elastic.splits", elastic.splits as f64);
    e.insert("cluster.elastic.merges", elastic.merges as f64);
    e.insert(
        "cluster.elastic.migrated_records",
        elastic.migrated_records as f64,
    );
    e.insert(
        "cluster.elastic.shipped_records",
        elastic.shipped_records as f64,
    );
    e.insert("cluster.threads_joined", runtime.threads_joined as f64);
    rep.fingerprints
        .extend(report.shard_reports.iter().map(|s| s.view_fingerprint));

    rep.attempted += steps + queries;
    for record in &report.steps {
        if let Some(answer) = record.answer {
            rep.check_count(answer, record.true_count, || {
                format!("step {}", record.time)
            });
        }
    }
    rep.check(summary.avg_relative_error <= MEAN_REL_ERROR_CEILING, || {
        format!(
            "mean relative error {} above {MEAN_REL_ERROR_CEILING}",
            summary.avg_relative_error
        )
    });
    rep.check(runtime.threads_joined == CLUSTER_SHARDS + 1, || {
        format!("{} worker threads joined", runtime.threads_joined)
    });
    rep
}
