//! The materialized view is column-major at rest. These tests pin that the layout
//! is invisible from outside: a lane-backed `MaterializedView` and a record-major
//! `SharedArrayPair` twin driven through the same `append` / `migrate_out` /
//! `migrate_in` calls agree on every observable (length, real-row count, size,
//! recovered rows, fingerprint), queries lowered onto the lanes answer what the
//! plaintext evaluation answers and charge what the `&SharedArrayPair` operators
//! charge, view fingerprints of whole trajectories equal the literals recorded
//! before the layout changed, and a query naming a column the view does not have
//! follows `FilterExpr::matches`.

use incshrink::prelude::*;
use incshrink::AggregateSpec;
use incshrink_mpc::cost::{CostMeter, CostModel, CostReport};
use incshrink_oblivious::aggregate::sum_selected;
use incshrink_oblivious::{oblivious_count, oblivious_group_count_over_domain, Predicate};
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::columns::SharedColumnsPair;
use incshrink_secretshare::tuple::PlainRecord;
use incshrink_telemetry::{CostDelta, Event, InMemory};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The record-major view the lanes replaced: entries, sync counter, and the
/// fingerprint formula exactly as `MaterializedView` computed it over
/// `SharedRecordPair`s.
#[derive(Default)]
struct RecordMajorTwin {
    entries: SharedArrayPair,
    syncs: u64,
}

impl RecordMajorTwin {
    fn append(&mut self, batch: SharedArrayPair) {
        if !batch.is_empty() {
            self.syncs += 1;
            self.entries.extend(batch).unwrap();
        }
    }

    fn migrate_out(&mut self, key_column: usize, moved: &dyn Fn(u32) -> bool) -> Vec<PlainRecord> {
        let mut out = Vec::new();
        self.entries.retain_with(|_, entry| {
            let plain = entry.recover();
            let leaves = plain.is_view && plain.fields.get(key_column).is_some_and(|&k| moved(k));
            if leaves {
                out.push(plain);
            }
            !leaves
        });
        out
    }

    fn size_bytes(&self) -> u64 {
        let width = self.entries.arity().map_or(0, |a| (a + 1) * 4);
        (self.entries.len() * width) as u64
    }

    fn fingerprint(&self) -> u64 {
        fn mix(state: u64, word: u64) -> u64 {
            let mut z = state ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut state = mix(0x1C5_811A_D0F1, self.syncs);
        for entry in self.entries.entries() {
            for pair in &entry.fields {
                state = mix(state, u64::from(pair.s0));
                state = mix(state, u64::from(pair.s1));
            }
            state = mix(state, u64::from(entry.is_view.s0));
            state = mix(state, u64::from(entry.is_view.s1));
        }
        state
    }
}

fn assert_same_view(view: &MaterializedView, twin: &RecordMajorTwin, after: &str) {
    assert_eq!(view.len(), twin.entries.len(), "len after {after}");
    assert_eq!(
        view.true_cardinality(),
        twin.entries.true_cardinality(),
        "true_cardinality after {after}"
    );
    assert_eq!(
        view.size_bytes(),
        twin.size_bytes(),
        "size_bytes after {after}"
    );
    assert_eq!(
        view.entries().recover_all(),
        twin.entries.recover_all(),
        "rows after {after}"
    );
    assert_eq!(view.sync_count(), twin.syncs, "syncs after {after}");
    assert_eq!(
        view.fingerprint(),
        twin.fingerprint(),
        "fingerprint after {after}"
    );
}

/// A random batch of `rows` records of the given arity, values in `0..12` so keys
/// and filter bounds collide often, about one in three a dummy.
fn random_batch(rows: usize, arity: usize, rng: &mut StdRng) -> SharedArrayPair {
    let records: Vec<PlainRecord> = (0..rows)
        .map(|_| {
            if rng.gen_range(0..3) == 0 {
                PlainRecord::dummy(arity)
            } else {
                PlainRecord::real((0..arity).map(|_| rng.gen_range(0..12)).collect())
            }
        })
        .collect();
    SharedArrayPair::share_records(&records, rng)
}

/// A random query with 0–3 conjuncts whose columns range two past the arity, so
/// out-of-range filter and aggregate columns are drawn too.
fn random_query(arity: usize, rng: &mut StdRng) -> Query {
    let column = |rng: &mut StdRng| rng.gen_range(0..arity + 2);
    let mut query = match rng.gen_range(0..3) {
        0 => Query::count(),
        1 => Query::sum(column(rng)),
        _ => {
            let width = rng.gen_range(0..6);
            Query::group_count(column(rng), (0..width).map(|v| v * 2).collect())
        }
    };
    for _ in 0..rng.gen_range(0..4) {
        let (field, bound) = (column(rng), rng.gen_range(0..12));
        query = query.filter(match rng.gen_range(0..3) {
            0 => FilterExpr::le(field, bound),
            1 => FilterExpr::ge(field, bound),
            _ => FilterExpr::eq(field, bound),
        });
    }
    query
}

/// What the `&SharedArrayPair` operator the query's aggregate names (the lane body,
/// for a sum) charges for a scan of `array` (the filter never changes the charge).
fn record_major_charge(query: &Query, array: &SharedArrayPair) -> CostReport {
    let mut meter = CostMeter::new();
    let all = Predicate::all("all");
    match query.aggregate() {
        AggregateSpec::Count => {
            let _ = oblivious_count(array, &all, &mut meter);
        }
        AggregateSpec::Sum { field } => {
            let columns = SharedColumnsPair::from_pair(array);
            let _ = sum_selected(&columns, *field, &[], &mut meter);
        }
        AggregateSpec::GroupCount { field, domain } => {
            let _ = oblivious_group_count_over_domain(array, *field, domain, &all, &mut meter);
        }
    }
    meter.take()
}

proptest! {
    #[test]
    fn prop_lane_view_is_indistinguishable_from_its_record_major_twin(
        arity in 1usize..=6,
        ops in proptest::collection::vec((0u8..4, 0usize..10), 1..14),
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = CostModel::default();
        let mut view = MaterializedView::new();
        let mut twin = RecordMajorTwin::default();

        for (op, rows) in ops {
            match op {
                0 | 1 => {
                    let batch = random_batch(rows, arity, &mut rng);
                    view.append(batch.clone());
                    twin.append(batch);
                    assert_same_view(&view, &twin, "append");
                }
                2 => {
                    let batch = random_batch(rows, arity, &mut rng);
                    view.migrate_in(batch.clone());
                    twin.entries.extend(batch).unwrap();
                    assert_same_view(&view, &twin, "migrate_in");
                }
                _ => {
                    let key_column = rng.gen_range(0..arity + 1);
                    let residue = rng.gen_range(0..3);
                    let moved = move |key: u32| key % 3 == residue;
                    prop_assert_eq!(
                        view.migrate_out(key_column, &moved),
                        twin.migrate_out(key_column, &moved)
                    );
                    assert_same_view(&view, &twin, "migrate_out");
                }
            }

            let real_rows: Vec<Vec<u32>> = twin.entries.recover_all().into_iter()
                .filter(|r| r.is_view)
                .map(|r| r.fields)
                .collect();
            for _ in 0..3 {
                let query = random_query(arity, &mut rng);
                let outcome = query.execute(&view, &model);
                prop_assert_eq!(
                    &outcome.value,
                    &query.evaluate_plaintext(&real_rows),
                    "{}", query.label()
                );
                let charge = record_major_charge(&query, &twin.entries);
                prop_assert_eq!(outcome.qet, model.simulate(&charge), "{}", query.label());
                prop_assert_eq!(outcome.report, charge, "{}", query.label());
            }
        }
    }
}

/// A query that names a column the view does not have follows
/// `FilterExpr::matches` — the filter matches nothing, a `Sum` over it is 0, a
/// `GroupCount` over it is all zeros of the public width — and costs exactly what
/// the same query shape costs over a column the view has. In particular
/// `Le(u32::MAX)` does not match (a missing field does not read as `u32::MAX`) and
/// nothing panics.
#[test]
fn out_of_range_columns_match_nothing_and_cost_the_same() {
    let mut rng = StdRng::seed_from_u64(0x00C0_1A7E);
    let arity = 3;
    let mut view = MaterializedView::new();
    view.append(random_batch(40, arity, &mut rng));
    let rows: Vec<Vec<u32>> = (view.entries().recover_all().into_iter())
        .filter(|r| r.is_view)
        .map(|r| r.fields)
        .collect();
    assert!(rows.len() > 10, "precondition: the view holds real rows");
    let model = CostModel::default();
    let missing = arity + 5;

    type Case = (&'static str, fn(usize) -> Query, QueryValue);
    let table: [Case; 5] = [
        (
            "Le(u32::MAX)",
            |f| Query::count().filter(FilterExpr::le(f, u32::MAX)),
            QueryValue::Scalar(0),
        ),
        (
            "Ge(0)",
            |f| Query::count().filter(FilterExpr::ge(f, 0)),
            QueryValue::Scalar(0),
        ),
        (
            "Eq",
            |f| Query::sum(0).filter(FilterExpr::eq(f, 1)),
            QueryValue::Scalar(0),
        ),
        ("Sum", Query::sum, QueryValue::Scalar(0)),
        (
            "GroupCount",
            |f| Query::group_count(f, vec![0, 1, 2, 3]),
            QueryValue::Vector(vec![0; 4]),
        ),
    ];
    for (name, build, expected) in table {
        let out_of_range = build(missing).execute(&view, &model);
        assert_eq!(out_of_range.value, expected, "{name}");
        assert_eq!(
            out_of_range.value,
            build(missing).evaluate_plaintext(&rows),
            "{name}: the scan follows the plaintext evaluation"
        );
        let in_range = build(1).execute(&view, &model);
        assert_eq!(out_of_range.report, in_range.report, "{name}: cost report");
        assert_eq!(out_of_range.qet, in_range.qet, "{name}: qet");
    }
    // Every row passes the in-range forms of the two saturated filters, so the
    // zeros above come from the missing column, not from the bounds.
    let every = QueryValue::Scalar(rows.len() as u64);
    for saturated in [FilterExpr::le(1, u32::MAX), FilterExpr::ge(1, 0)] {
        let query = Query::count().filter(saturated);
        assert_eq!(query.execute(&view, &model).value, every);
    }
}

/// View fingerprints of the two fig4-shaped trajectories, recorded with the
/// record-major view before the layout changed: the lanes hold the same share
/// words in the same order, so the digests are these literals. Re-recorded five times
/// since: when the cache's candidate read became a merge (a different network may
/// fetch other reals of equal `isView`, never a different number of them), when
/// every cut came to trim the cache to `R` (other dummies are fetched; the view's
/// length, real rows and syncs did not move), when the seal became an
/// order-preserving compaction (the sealed reals keep their arrival order, so a
/// sync may fetch other reals; again not another number of them), and when every
/// merge of a cut came to keep only the rows the cut keeps (a cascade's next merge
/// runs over the cut run, so rows of equal `isView` may meet in another order; the
/// view's length, real rows and syncs did not move), and when the seal, the merges
/// and the read came to run as one real-first partition (which reals of equal
/// `isView` a sync fetches moved, not how many; the Shrink cost below did not move).
#[test]
fn trajectory_fingerprints_equal_the_record_major_goldens() {
    let tpcds = TpcDsGenerator::new(WorkloadParams {
        steps: 80,
        view_entries_per_step: 2.7,
        seed: 21,
    })
    .generate();
    let cpdb = CpdbGenerator::new(WorkloadParams {
        steps: 50,
        view_entries_per_step: 9.8,
        seed: 22,
    })
    .generate();
    let runs = [
        (
            tpcds,
            IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 }),
            (0x2CAE_CA6F_B9B3_DC43_u64, 237, 174, 8),
        ),
        (
            cpdb,
            IncShrinkConfig::cpdb_default(UpdateStrategy::DpAnt { threshold: 30.0 }),
            (0x06C1_A2EA_AE09_6BB1_u64, 1197, 533, 22),
        ),
    ];
    // Every `shrink` span of both trajectories, summed.
    let sink = Arc::new(InMemory::new());
    let guard = incshrink_telemetry::install(sink.clone());
    for (dataset, config, (fingerprint, len, real, syncs)) in runs {
        let (kind, steps) = (dataset.kind, dataset.params.steps);
        let mut pipeline = ShardPipeline::new(dataset, config, 0xF164, CostModel::default());
        for t in 1..=steps {
            let _ = pipeline.advance(t);
        }
        let view = pipeline.view();
        assert_eq!(view.len(), len, "{kind}");
        assert_eq!(view.true_cardinality(), real, "{kind}");
        assert_eq!(view.sync_count(), syncs, "{kind}");
        assert_eq!(view.fingerprint(), fingerprint, "{kind}");
    }
    // What Shrink charged over both trajectories: the secure cache's layout is part
    // of the modeled cost, so a change to it shows here before it shows in a figure.
    // Re-recorded when the cache's `isView` networks came to be priced as one-bit
    // circuits: each comparator one AND instead of a compare, its swap one word
    // narrower (the flag is not swapped); the fingerprints did not move. Swaps
    // re-recorded again when the cache's networks stopped carrying the view row's
    // second join-key copy (4 → 3 words); nothing else, fingerprints included, moved.
    // Re-recorded when every cut came to trim the cache's runs to the public bound
    // `R`: fewer rows merged (swaps, ANDs, merged rows), the same merges and rounds.
    // Re-recorded when the seal became a tight compaction instead of a Batcher
    // sort: fewer swaps and ANDs, the same rounds, bytes, merges and merged rows.
    // Re-recorded when each merge of a cut came to be pruned to the rows the cut
    // keeps: fewer swaps and ANDs, fewer merged rows (a cascade's later merges run
    // over the pruned run), the same rounds, bytes and merges.
    // Re-recorded when a step came to be one garbled circuit closed at each release:
    // a sync is two rounds (the released size, then the cut and counter update), a
    // flush one; every gate, byte and merge, and the fingerprints, kept their values.
    drop(guard);
    let mut shrink = CostDelta::default();
    for event in sink.take() {
        match event {
            Event::Span(span) if span.name == "shrink" => {
                shrink.accumulate(span.cost.expect("shrink spans carry their cost"));
            }
            _ => {}
        }
    }
    assert_eq!(
        shrink,
        CostDelta {
            compares: 0,
            swaps: 253_995,
            ands: 106_313,
            adds: 7_616,
            bytes: 33_192,
            rounds: 126,
            merges: 53,
            merged_rows: 16_393,
            window_rows: 0,
        }
    );
}
