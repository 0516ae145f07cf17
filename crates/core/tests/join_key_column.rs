//! What the modeled price of a view row's networks relies on. The secure cache's
//! `isView` networks and Algorithm 4's per-buffer selection do not carry a view
//! row's second join-key copy: it is restored after the network by a local copy of
//! the first's shares. That is sound because (1) every row Transform writes and
//! every row synchronized into the view, real or dummy, holds the same plaintext in
//! `left_key` and `left_arity + right_key`, and (2) a dummy row's payload is
//! don't-care: no query answer or charge depends on it.

use incshrink::prelude::*;
use incshrink::transform::{PublicRelation, TransformProtocol};
use incshrink_mpc::cost::CostModel;
use incshrink_mpc::{PartyContext, PartyMode};
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::PlainRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STEPS: u64 = 120;

fn dataset(tpcds: bool, seed: u64) -> (Dataset, IncShrinkConfig) {
    if tpcds {
        let params = WorkloadParams {
            steps: STEPS,
            view_entries_per_step: 2.7,
            seed,
        };
        let config = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
        (TpcDsGenerator::new(params).generate(), config)
    } else {
        let params = WorkloadParams {
            steps: STEPS,
            view_entries_per_step: 9.8,
            seed,
        };
        let config = IncShrinkConfig::cpdb_default(UpdateStrategy::DpTimer { interval: 3 });
        (CpdbGenerator::new(params).generate(), config)
    }
}

/// Both generators, three seeds, `STEPS` steps. A twin Transform is handed every
/// step's upload batches before the pipeline runs them, so its ΔV — the rows the
/// pipeline writes to the cache — is checked row by row, and so is every row the
/// pipeline synchronizes into its view. TPC-ds's private right relation drives the
/// mirrored (`with_swapped_output`) join, and the test requires that it produced
/// real rows.
#[test]
fn every_cached_and_synced_row_carries_its_join_key_twice() {
    for tpcds in [true, false] {
        for seed in [7, 101, 102] {
            let (dataset, config) = dataset(tpcds, seed);
            let view_def = ViewDefinition::for_dataset(&dataset);
            let (key, copy) = (
                view_def.left_key,
                dataset.left.schema.arity() + view_def.right_key,
            );
            let holds = |row: &PlainRecord| row.fields[key] == row.fields[copy];
            let public = dataset.right_is_public.then(|| {
                PublicRelation::from_rows(
                    dataset.right.updates().iter().map(|u| u.fields.as_slice()),
                )
            });
            let omega = config.truncation_bound;
            let mut twin =
                TransformProtocol::new(view_def, omega, config.contribution_budget, public);
            let mut ctx = PartyContext::new(PartyMode::InProcess, seed, CostModel::default());
            let mut pipeline = ShardPipeline::new(dataset, config, seed, CostModel::default());
            let (mut mirrored_reals, mut synced) = (0, 0);
            for t in 1..=STEPS {
                let uploads = pipeline.upload_batches(t);
                let delta = twin
                    .invoke(&mut ctx, &uploads.left, uploads.right.as_ref())
                    .delta
                    .recover_all();
                let forward = omega as usize * uploads.left.len();
                assert!(delta.iter().all(holds), "{seed} t={t}: ΔV");
                mirrored_reals += delta[forward..].iter().filter(|r| r.is_view).count();

                let _ = pipeline.advance_with_uploads(t, uploads);
                let rows = pipeline.view().entries();
                for i in synced..rows.len() {
                    assert!(holds(&rows.recover_row(i)), "{seed} t={t}: view row {i}");
                }
                synced = rows.len();
            }
            assert!(synced > 0, "{seed}: the view was synchronized");
            assert_eq!(mirrored_reals > 0, tpcds, "{seed}: mirrored join rows");
        }
    }
}

/// The analyst's four query shapes over a grown TPC-ds view, and over the same
/// view with every dummy row's fields overwritten by random words — half of them
/// drawn inside the filters' and the group domain's range — answer and charge
/// exactly alike.
#[test]
fn dummy_payloads_are_dont_care_to_every_query_shape() {
    let (dataset, config) = dataset(true, 7);
    let definition = ViewDefinition::for_dataset(&dataset);
    let mut pipeline = ShardPipeline::new(dataset, config, 7, CostModel::default());
    for t in 1..=STEPS {
        let _ = pipeline.advance(t);
    }
    let view = pipeline.view();
    let mut rng = StdRng::seed_from_u64(0xD0C);
    let horizon = STEPS as u32;
    let mut rows = view.entries().recover_all();
    let dummies = rows.iter().filter(|row| !row.is_view).count();
    assert!(dummies > 0 && dummies < rows.len(), "both kinds of row");
    for row in rows.iter_mut().filter(|row| !row.is_view) {
        let in_range = rng.gen::<bool>();
        for field in &mut row.fields {
            *field = if in_range {
                rng.gen_range(0..=horizon)
            } else {
                rng.gen()
            };
        }
    }
    let mut scrambled = MaterializedView::for_definition(&definition);
    scrambled.append(SharedArrayPair::share_records(&rows, &mut rng));

    let domain: Vec<u32> = (1..=16u32).map(|i| i * horizon / 16).collect();
    let queries = [
        Query::count(),
        Query::count().filter(FilterExpr::le(1, horizon / 2)),
        Query::sum(3).filter(FilterExpr::ge(1, horizon / 4)),
        Query::group_count(1, domain),
    ];
    let model = CostModel::default();
    for query in queries {
        let (real, scrambled) = (
            query.execute(view, &model),
            query.execute(&scrambled, &model),
        );
        assert_eq!(real, scrambled, "{}", query.label());
    }
}
