//! Integration tests for the cluster's query path: per-shard `Query::execute` scans
//! merged by `ScatterGatherExecutor::merge` must reproduce the per-shard-scan +
//! secure-add-tree composition bit for bit on scaleout trajectories, the
//! aggregation tree must price non-power-of-two clusters correctly, and cluster
//! answers must agree with the plaintext logical ground truth — element-wise for
//! vector answers.

use incshrink::prelude::*;
use incshrink_cluster::{shard_pipelines, ScatterGatherExecutor, ShardedSimulation};
use incshrink_mpc::cost::CostModel;
use incshrink_workload::logical_join_rows;
use proptest::prelude::*;

/// Scan every shard view with `query` and merge the partial answers.
fn scatter_gather(views: &[&MaterializedView], query: &Query) -> QueryOutcome {
    let model = CostModel::default();
    let partials: Vec<QueryOutcome> = views.iter().map(|v| query.execute(v, &model)).collect();
    ScatterGatherExecutor::new(model).merge(query, &partials)
}

fn tpcds(steps: u64) -> Dataset {
    TpcDsGenerator::new(WorkloadParams {
        steps,
        view_entries_per_step: 2.7,
        seed: 21,
    })
    .generate()
}

fn cpdb(steps: u64) -> Dataset {
    CpdbGenerator::new(WorkloadParams {
        steps,
        view_entries_per_step: 9.8,
        seed: 22,
    })
    .generate()
}

/// The scaleout trajectories: at every queried step the cluster trace (produced by
/// the scatter-gather path inside `ShardedSimulation`) must equal the composition
/// written out here — per-shard `Query::count()` scans, summed answers, slowest
/// shard plus the scalar aggregation tree — bit for bit, for S ∈ {1, 2, 4}.
#[test]
fn typed_cluster_count_replays_scaleout_composition_bit_for_bit() {
    let dataset = tpcds(60);
    let config = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
    let model = CostModel::default();
    let seed = 0x7AB2;
    for shards in [1usize, 2, 4] {
        let report = ShardedSimulation::new(dataset.clone(), config, shards, seed).run();
        let mut pipelines = shard_pipelines(&dataset, &config, shards, seed, CostModel::default());
        for (i, step) in report.steps.iter().enumerate() {
            let t = (i + 1) as u64;
            for p in pipelines.iter_mut() {
                let _ = p.advance(t);
            }
            let partials: Vec<_> = pipelines
                .iter()
                .map(|p| p.execute_query(&Query::count()))
                .collect();
            let answer: u64 = partials.iter().map(|r| r.value.expect_scalar()).sum();
            let max_qet = partials.iter().map(|r| r.qet).max().unwrap();
            let agg = model.simulate(&ScatterGatherExecutor::aggregation_cost_for_width(
                shards, 1,
            ));
            assert_eq!(step.answer, Some(answer), "S={shards} t={t}");
            assert_eq!(
                step.qet_secs,
                (max_qet + agg).as_secs_f64(),
                "S={shards} t={t}"
            );
        }
    }
}

/// The aggregation tree prices non-power-of-two clusters with `⌈log₂S⌉ + 1` rounds
/// and `S − 1` adds — and element-wise vector merges scale adds/bytes with the
/// width while sharing the rounds.
#[test]
fn aggregation_cost_at_non_power_of_two_shard_counts() {
    for (shards, want_adds, want_rounds) in [(3usize, 2u64, 3u64), (5, 4, 4), (7, 6, 4)] {
        let cost = ScatterGatherExecutor::aggregation_cost_for_width(shards, 1);
        assert_eq!(cost.secure_adds, want_adds, "S={shards}");
        assert_eq!(cost.rounds, want_rounds, "S={shards} = ⌈log2 S⌉ + 1");
        assert_eq!(cost.bytes_communicated, 8 * shards as u64, "S={shards}");

        for width in [4usize, 12] {
            let wide = ScatterGatherExecutor::aggregation_cost_for_width(shards, width);
            assert_eq!(wide.secure_adds, want_adds * width as u64, "S={shards}");
            assert_eq!(wide.rounds, want_rounds, "vector adds share the rounds");
            assert_eq!(wide.bytes_communicated, 8 * (shards * width) as u64);
        }
    }
}

/// Cluster sum/group-count answers at S = 4 match the logical ground truth on both
/// workloads, under the exactness configuration (exhaustive padding, ω above the
/// join multiplicity, budget outliving the horizon — the same setup the single-pair
/// test uses, so S ∈ {1, 4} are covered together).
#[test]
fn cluster_generalized_aggregates_match_logical_ground_truth() {
    for dataset in [tpcds(60), cpdb(40)] {
        let mut config = match dataset.kind {
            DatasetKind::TpcDs => IncShrinkConfig::tpcds_default(UpdateStrategy::ExhaustivePadding),
            DatasetKind::Cpdb => IncShrinkConfig::cpdb_default(UpdateStrategy::ExhaustivePadding),
        };
        let steps = dataset.params.steps;
        config.truncation_bound = 64;
        config.contribution_budget = 64 * steps;

        let mut pipelines = shard_pipelines(&dataset, &config, 4, 0x5EED, CostModel::default());
        for t in 1..=steps {
            for p in pipelines.iter_mut() {
                let _ = p.advance(t);
            }
        }
        let losses: u64 = pipelines.iter().map(ShardPipeline::truncation_losses).sum();
        assert_eq!(losses, 0, "precondition: no truncation on this workload");

        let join = ViewDefinition::for_dataset(&dataset).as_query();
        let rows = logical_join_rows(&dataset, &join, steps);
        let domain: Vec<u32> = rows.iter().take(12).map(|r| r[0]).collect();
        let queries = [
            Query::count(),
            Query::sum(3),
            Query::sum(3).filter(FilterExpr::le(1, steps as u32 / 2)),
            Query::group_count(0, domain),
        ];
        let views: Vec<&_> = pipelines.iter().map(ShardPipeline::view).collect();
        for q in &queries {
            let outcome = scatter_gather(&views, q);
            assert_eq!(
                outcome.value,
                q.evaluate_plaintext(&rows),
                "{} on {} at S=4",
                q.label(),
                dataset.kind
            );
            let breakdown = outcome.shards.expect("cluster breakdown");
            assert_eq!(
                outcome.qet,
                breakdown.max_shard_qet + breakdown.aggregation_qet
            );
        }
    }
}

fn view_from_rows(rows: &[Vec<u32>], dummies: usize, seed: u64) -> MaterializedView {
    use incshrink_secretshare::arrays::SharedArrayPair;
    use incshrink_secretshare::tuple::PlainRecord;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut records: Vec<PlainRecord> = rows.iter().map(|r| PlainRecord::real(r.clone())).collect();
    records.extend((0..dummies).map(|_| PlainRecord::dummy(4)));
    let mut view = MaterializedView::new();
    if !records.is_empty() {
        view.append(SharedArrayPair::share_records(&records, &mut rng));
    }
    view
}

proptest! {
    /// However rows are distributed across shards, the scatter-gathered answer for
    /// every query shape equals the plaintext ground truth over the union of rows —
    /// the cluster agrees with the single-pair scan and with the truth.
    #[test]
    fn prop_cluster_answers_match_plaintext_truth_for_any_partition(
        rows in proptest::collection::vec(proptest::collection::vec(0u32..40, 4usize), 0..24),
        shards in 1usize..5,
        dummies in 0usize..6,
    ) {
        let mut per_shard: Vec<Vec<Vec<u32>>> = vec![Vec::new(); shards];
        for (i, row) in rows.iter().enumerate() {
            per_shard[i % shards].push(row.clone());
        }
        let views: Vec<MaterializedView> = per_shard
            .iter()
            .enumerate()
            .map(|(i, part)| view_from_rows(part, dummies, 31 + i as u64))
            .collect();
        let views: Vec<&MaterializedView> = views.iter().collect();
        let single = view_from_rows(&rows, dummies, 99);
        let model = CostModel::default();
        let queries = [
            Query::count(),
            Query::count().filter(FilterExpr::le(1, 20)),
            Query::sum(3),
            Query::group_count(0, (0..8).collect()),
            Query::group_count(2, (0..8).collect()).filter(FilterExpr::ge(3, 10)),
        ];
        for q in &queries {
            let truth = q.evaluate_plaintext(&rows);
            prop_assert_eq!(&scatter_gather(&views, q).value, &truth, "cluster: {}", q.label());
            prop_assert_eq!(&q.execute(&single, &model).value, &truth, "single: {}", q.label());
        }
    }
}
