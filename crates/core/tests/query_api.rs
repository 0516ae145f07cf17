//! Integration tests for the typed analyst query layer: `Query::count()` through
//! the view scan and the NM baseline must reproduce the counting query's charge and
//! answers bit for bit on the evaluation trajectories, view entries must expose the
//! canonical `left ++ right` column layout the AST addresses, and the view scan and
//! the NM baseline must agree with the plaintext logical ground truth on random
//! views.

use incshrink::prelude::*;
use incshrink_mpc::circuit::{Kernel, Reduction};
use incshrink_mpc::cost::{CostModel, CostReport};
use incshrink_workload::{logical_join_group_count, logical_join_rows, logical_join_sum};
use proptest::prelude::*;

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

/// The fig4-style trajectories (both workloads, their default DP strategies): at
/// every step the typed `Query::count()` over the view must answer the view's real
/// row count and charge exactly one counting scan of it — per entry one compare at
/// the widest column's width and one AND, then one adder tree over the entries'
/// bits, each its generated circuit's ANDs, its shares plus the 8-byte answer, one
/// round — and the NM-baseline engine must reproduce the NM pricing and exact
/// answer.
#[test]
fn typed_count_replays_fig4_trajectories_bit_for_bit() {
    let runs = [
        (
            tpcds(80),
            IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 }),
        ),
        (
            cpdb(50),
            IncShrinkConfig::cpdb_default(UpdateStrategy::DpAnt { threshold: 30.0 }),
        ),
    ];
    for (dataset, config) in runs {
        let steps = dataset.params.steps;
        let mut pipeline = ShardPipeline::new(dataset, config, 0xF164, CostModel::default());
        for t in 1..=steps {
            let _ = pipeline.advance(t);

            let view = pipeline.view();
            let (n, width) = (view.len() as u64, view.entries().arity() as u64 + 1);
            let slot = view.column_bits().iter().copied().max().expect("widths");
            let per_row = Kernel::Lt(slot).circuit().and_count() + 1;
            let count = Reduction::Count { rows: n }.circuit().and_count();
            let scan = CostReport {
                secure_compares: n,
                secure_ands: n * per_row + count,
                secure_adds: n,
                bytes_communicated: n * width * 4 + 8,
                rounds: 1,
                ..CostReport::default()
            };
            let typed = pipeline.execute_query(&Query::count());
            assert_eq!(
                typed.value.expect_scalar(),
                view.true_cardinality() as u64,
                "t={t}"
            );
            assert_eq!(typed.report, scan, "t={t}");
            assert_eq!(typed.qet, CostModel::default().simulate(&scan), "t={t}");
            assert!(
                typed.shards.is_none(),
                "single-pair outcome has no breakdown"
            );

            let nm = pipeline.nm_engine(t).execute(&Query::count());
            assert_eq!(nm.qet, pipeline.nm_query_duration(), "t={t}");
            assert_eq!(nm.value.expect_scalar(), pipeline.true_count(t), "t={t}");
        }
    }
}

/// The NM baseline prices the full join over every padded row the owners
/// uploaded: at every step, `nm_engine` and `nm_query_duration` price exactly the
/// rows of the batches `upload_batches` returned so far (a public right relation
/// at its full length), whether the strategy hands the batches straight to the
/// servers (NM) or Transform joins them first (sDPTimer). A sales pad of one row
/// makes most TPC-ds batches overflow it; they count at their grown length.
#[test]
fn nm_prices_every_padded_row_uploaded() {
    let mut overflowing = tpcds(40);
    overflowing.left_batch_size = 1;
    let runs = [
        (overflowing.clone(), UpdateStrategy::NonMaterialized),
        (overflowing, UpdateStrategy::DpTimer { interval: 10 }),
        (cpdb(30), UpdateStrategy::NonMaterialized),
        (cpdb(30), UpdateStrategy::DpTimer { interval: 3 }),
    ];
    let model = CostModel::default();
    for (dataset, strategy) in runs {
        let (kind, public) = (dataset.kind, dataset.right_is_public);
        let config = match kind {
            DatasetKind::TpcDs => IncShrinkConfig::tpcds_default(strategy),
            DatasetKind::Cpdb => IncShrinkConfig::cpdb_default(strategy),
        };
        let pads = [dataset.left_batch_size, dataset.right_batch_size];
        let arity = (dataset.left.schema.arity() + dataset.right.schema.arity()) as u64;
        let public_rows = dataset.right.len() as u64;
        let steps = dataset.params.steps;
        let mut pipeline = ShardPipeline::new(dataset, config, 0x4E4D, model);
        let (mut uploaded, mut overflows) = ([0u64; 2], 0);
        for t in 1..=steps {
            let uploads = pipeline.upload_batches(t);
            let batches = [Some(&uploads.left), uploads.right.as_ref()];
            for (side, batch) in batches.into_iter().enumerate() {
                let Some(batch) = batch else { continue };
                uploaded[side] += batch.len() as u64;
                overflows += usize::from(batch.len() > pads[side]);
            }
            let _ = pipeline.advance_with_uploads(t, uploads);
            let right = if public { public_rows } else { uploaded[1] };
            let omega = config.truncation_bound;
            let full_join =
                NmBaselineEngine::with_joined_rows(uploaded[0], right, arity, omega, model, &[]);
            let expected = full_join.execute(&Query::count());
            let priced = pipeline.nm_engine(t).execute(&Query::count());
            assert_eq!(priced.report, expected.report, "{kind} {strategy:?} t={t}");
            assert_eq!(
                pipeline.nm_query_duration(),
                expected.qet,
                "{kind} {strategy:?} t={t}"
            );
        }
        if kind == DatasetKind::TpcDs {
            assert!(overflows > 0, "{strategy:?}: no batch overflowed its pad");
        }
    }
}

/// View entries read in the canonical `left fields ++ right fields` order even when
/// they were produced by the mirrored (right-delta-driven) Transform join — the
/// property the AST's column indices rely on. On TPC-ds every pair is produced by
/// the mirrored join (the return always arrives after the sale), so before the
/// canonicalization these rows read `(pid, return, pid, sale)` and this test fails.
#[test]
fn view_entries_use_canonical_column_order() {
    let config = IncShrinkConfig::tpcds_default(UpdateStrategy::ExhaustivePadding);
    let dataset = tpcds(50);
    let steps = dataset.params.steps;
    let mut pipeline = ShardPipeline::new(dataset, config, 7, CostModel::default());
    for t in 1..=steps {
        let _ = pipeline.advance(t);
    }
    let rows: Vec<Vec<u32>> = pipeline
        .view()
        .entries()
        .recover_all()
        .into_iter()
        .filter(|r| r.is_view)
        .map(|r| r.fields)
        .collect();
    assert!(!rows.is_empty());
    for row in &rows {
        assert_eq!(row.len(), 4, "(pid, sale) ++ (pid, return)");
        assert_eq!(row[0], row[2], "both key columns carry the pid");
        assert!(
            row[3] >= row[1] && row[3] - row[1] <= 10,
            "column 1 is the sale date and column 3 the return date: {row:?}"
        );
    }
}

/// With exhaustive padding, a truncation bound above the join multiplicity and a
/// contribution budget that outlives the horizon (the default budget legitimately
/// evicts records mid-window — that error is part of the framework, not the query
/// layer), the view holds exactly the logical join pairs, so SUM and GROUP-COUNT
/// through the typed engine must match the new logical ground truths exactly
/// (S = 1; the cluster test covers S = 4).
#[test]
fn generalized_aggregates_match_logical_ground_truth_on_both_workloads() {
    for dataset in [tpcds(60), cpdb(40)] {
        let mut config = match dataset.kind {
            DatasetKind::TpcDs => IncShrinkConfig::tpcds_default(UpdateStrategy::ExhaustivePadding),
            DatasetKind::Cpdb => IncShrinkConfig::cpdb_default(UpdateStrategy::ExhaustivePadding),
        };
        let steps = dataset.params.steps;
        config.truncation_bound = 64;
        config.contribution_budget = 64 * steps;
        let join = ViewDefinition::for_dataset(&dataset).as_query();
        let mut pipeline =
            ShardPipeline::new(dataset.clone(), config, 0x5EED, CostModel::default());
        for t in 1..=steps {
            let _ = pipeline.advance(t);
        }
        assert_eq!(
            pipeline.truncation_losses(),
            0,
            "precondition: the ω bound drops nothing on this workload"
        );

        let rows = logical_join_rows(&dataset, &join, steps);
        let domain: Vec<u32> = rows.iter().take(12).map(|r| r[0]).collect();
        let queries = [
            Query::count(),
            Query::sum(0),
            Query::sum(3),
            Query::sum(3).filter(FilterExpr::le(1, steps as u32 / 2)),
            Query::group_count(0, domain.clone()),
            Query::group_count(0, domain).filter(FilterExpr::ge(1, 5)),
        ];
        for q in &queries {
            let got = pipeline.execute_query(q).value;
            let want = q.evaluate_plaintext(&rows);
            assert_eq!(got, want, "{} on {}", q.label(), dataset.kind);
        }
        // The convenience ground-truth helpers agree with the AST evaluation.
        assert_eq!(
            Query::sum(3).evaluate_plaintext(&rows).expect_scalar(),
            logical_join_sum(&dataset, &join, steps, 3)
        );
        let groups = logical_join_group_count(&dataset, &join, steps, 0);
        if let QueryValue::Vector(counts) =
            Query::group_count(0, groups.keys().copied().collect()).evaluate_plaintext(&rows)
        {
            assert_eq!(counts, groups.values().copied().collect::<Vec<_>>());
        } else {
            panic!("group count answers are vectors");
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

fn query_mix() -> Vec<Query> {
    vec![
        Query::count(),
        Query::count().filter(FilterExpr::le(1, 25)),
        Query::sum(3),
        Query::sum(3)
            .filter(FilterExpr::ge(0, 3))
            .filter(FilterExpr::le(1, 40)),
        Query::group_count(0, (0..8).collect()),
        Query::group_count(2, (0..8).collect()).filter(FilterExpr::le(3, 30)),
    ]
}

proptest! {
    /// The view scan and the NM baseline agree with the plaintext logical ground
    /// truth on random views: `Query::execute` over the shared (dummy-padded) rows
    /// and `NmBaselineEngine` over the same rows as its recomputed join.
    #[test]
    fn prop_engines_agree_with_plaintext_ground_truth(
        rows in proptest::collection::vec(
            proptest::collection::vec(0u32..50, 4usize),
            0..30,
        ),
        dummies in 0usize..8,
    ) {
        let view = view_from_rows(&rows, dummies, 11);
        let model = CostModel::default();
        let nm = NmBaselineEngine::with_joined_rows(
            rows.len() as u64 + 5,
            rows.len() as u64 + 3,
            4,
            1,
            CostModel::default(),
            &rows,
        );
        for q in query_mix() {
            let truth = q.evaluate_plaintext(&rows);
            prop_assert_eq!(&q.execute(&view, &model).value, &truth, "view: {}", q.label());
            prop_assert_eq!(&nm.execute(&q).value, &truth, "nm: {}", q.label());
        }
    }

    /// Query cost is data-independent: two views of the same shape (length, arity)
    /// but different contents cost identically, for every query shape.
    #[test]
    fn prop_query_cost_depends_only_on_view_shape(
        a in proptest::collection::vec(proptest::collection::vec(0u32..50, 4usize), 1..20),
        seed in 0u64..1000,
    ) {
        let b: Vec<Vec<u32>> = a.iter().map(|r| r.iter().map(|v| v ^ 21).collect()).collect();
        let view_a = view_from_rows(&a, 3, seed);
        let view_b = view_from_rows(&b, 3, seed ^ 1);
        let model = CostModel::default();
        for q in query_mix() {
            let (ra, rb) = (q.execute(&view_a, &model), q.execute(&view_b, &model));
            prop_assert_eq!(ra.report, rb.report, "{}", q.label());
            prop_assert_eq!(ra.qet, rb.qet, "{}", q.label());
        }
    }
}
