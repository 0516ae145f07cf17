//! Criterion micro-benchmarks for the oblivious operators (host-side execution cost of
//! the simulation; the *simulated* MPC cost is reported by the figure binaries).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use incshrink::query::{FilterExpr, Query, QueryEngine, ViewEngine};
use incshrink::MaterializedView;
use incshrink_mpc::cost::{CostMeter, CostModel};
use incshrink_oblivious::{
    cache_read, oblivious_compact, oblivious_merge_by_is_view, oblivious_sort_by_field,
    truncated_nested_loop_join, JoinSpec, PlainTable, SortOrder,
};
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::PlainRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_array(n: usize, arity: usize, seed: u64) -> SharedArrayPair {
    let mut rng = StdRng::seed_from_u64(seed);
    let records: Vec<PlainRecord> = (0..n)
        .map(|_| PlainRecord::real((0..arity).map(|_| rng.gen()).collect()))
        .collect();
    SharedArrayPair::share_records(&records, &mut rng)
}

/// An exhaustively padded cache: random rows, about three in four of them dummies.
fn padded_cache(n: usize, seed: u64) -> SharedArrayPair {
    let mut rng = StdRng::seed_from_u64(seed);
    let records: Vec<PlainRecord> = (0..n)
        .map(|_| PlainRecord {
            fields: (0..4).map(|_| rng.gen()).collect(),
            is_view: rng.gen_range(0..4) == 0,
        })
        .collect();
    SharedArrayPair::share_records(&records, &mut rng)
}

fn bench_oblivious_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("oblivious_sort");
    for &n in &[64usize, 256, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let base = random_array(n, 2, 7);
            b.iter(|| {
                let mut arr = base.clone();
                let mut meter = CostMeter::new();
                oblivious_sort_by_field(&mut arr, 0, SortOrder::Ascending, &mut meter);
                arr.len()
            });
        });
    }
    group.finish();
}

fn bench_truncated_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("truncated_nested_loop_join");
    for &(outer, inner) in &[(8usize, 64usize), (8, 256), (16, 256)] {
        let mut left = PlainTable::new(&["k", "t"]);
        let mut right = PlainTable::new(&["k", "t"]);
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..outer {
            left.push_row(vec![i as u32 % 32, rng.gen_range(0..100)]);
        }
        for i in 0..inner {
            right.push_row(vec![i as u32 % 32, rng.gen_range(0..100)]);
        }
        let left = left.share(&mut rng);
        let right = right.share(&mut rng);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{outer}x{inner}")),
            &(outer, inner),
            |b, _| {
                b.iter(|| {
                    let mut meter = CostMeter::new();
                    let mut rng = StdRng::seed_from_u64(3);
                    let spec = JoinSpec::equi(0, 0);
                    truncated_nested_loop_join(&left, &right, &spec, 2, &mut meter, &mut rng).len()
                });
            },
        );
    }
    group.finish();
}

fn bench_cache_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_read");
    for &n in &[256usize, 1024, 16384] {
        // Cold: nothing about the cache is known, the whole array is sorted.
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let base = padded_cache(n, 13);
            b.iter(|| {
                let mut cache = base.clone();
                let mut meter = CostMeter::new();
                cache_read(&mut cache, n / 4, &mut meter).len()
            });
        });
        // What the secure cache runs instead: no sort, the merge-only operator
        // folding a sealed run of n/64 rows into an older one.
        group.bench_with_input(BenchmarkId::new("merge", n), &n, |b, &n| {
            let split = n - n / 64;
            let mut base = padded_cache(split, 13);
            oblivious_compact(&mut base, &mut CostMeter::new());
            let mut newer = padded_cache(n / 64, 17);
            oblivious_compact(&mut newer, &mut CostMeter::new());
            base.extend(newer).expect("same arity");
            b.iter(|| {
                let mut runs = base.clone();
                let mut meter = CostMeter::new();
                oblivious_merge_by_is_view(&mut runs, split, SortOrder::Ascending, &mut meter);
                runs.len()
            });
        });
    }
    group.finish();
}

/// The analyst's four query kinds over a column-major view: one section per
/// operation, cost per query as the view grows. Rows are
/// `(key in 0..16, time in 0..100, key, time)`, one in eight a dummy.
fn bench_view_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_query");
    let operations = [
        ("count", Query::count()),
        (
            "filtered_count",
            Query::count().filter(FilterExpr::le(1, 50)),
        ),
        ("filtered_sum", Query::sum(3).filter(FilterExpr::le(1, 50))),
        ("group_count_16", Query::group_count(0, (0..16).collect())),
    ];
    let views: Vec<MaterializedView> = [4096usize, 16384, 65536]
        .iter()
        .map(|&n| {
            let mut rng = StdRng::seed_from_u64(19);
            let records: Vec<PlainRecord> = (0..n)
                .map(|i| {
                    let (key, time) = (rng.gen_range(0..16), rng.gen_range(0..100));
                    PlainRecord {
                        fields: vec![key, time, key, time],
                        is_view: i % 8 != 0,
                    }
                })
                .collect();
            let mut view = MaterializedView::new();
            view.append(SharedArrayPair::share_records(&records, &mut rng));
            view
        })
        .collect();
    for (name, query) in &operations {
        for view in &views {
            let engine = ViewEngine::new(view, CostModel::default());
            group.bench_with_input(BenchmarkId::new(*name, view.len()), view, |b, _| {
                b.iter(|| engine.execute(query).value);
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_oblivious_sort,
    bench_truncated_join,
    bench_cache_read,
    bench_view_query
);
criterion_main!(benches);
