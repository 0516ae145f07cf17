//! Layer probes: direct calls into one public operator at a time, on pinned
//! inputs (fixed generator seed, independent of `--seed`), each reported as the
//! median of [`CALLS`] timed calls. These are the only places the benchmark
//! touches the AoS-typed operator signatures; a refactor that changes them must
//! be preceded by a benchmark change (see README.md).

use crate::speed::SpeedGauge;
use crate::stats::median;
use crate::workloads::Metrics;
use incshrink_dp::joint::joint_laplace_noise;
use incshrink_mpc::cost::CostMeter;
use incshrink_mpc::{CostModel, PartyContext, PartyExec, PartyMode};
use incshrink_oblivious::filter::Predicate;
use incshrink_oblivious::{
    cache_read, oblivious_count, oblivious_filter, oblivious_group_count_over_domain,
    oblivious_sort_by_field, shuffle_route, truncated_nested_loop_join,
    truncated_sort_merge_delta_join, JoinSpec, SortOrder,
};
use incshrink_secretshare::columns::{cswap_lane, lt_lane, mux_lane};
use incshrink_secretshare::tuple::PlainRecord;
use incshrink_secretshare::{SharedArrayPair, SharedColumnsPair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Timed calls per probe at full size.
pub const CALLS: usize = 11;
const ARITY: usize = 4;
const SEED: u64 = 0x5EED;

/// `n` pinned records: keys in `0..n/4` (so joins and groups find matches),
/// one in eight a dummy.
fn records(n: usize, seed: u64) -> Vec<PlainRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = (n as u32 / 4).max(1);
    (0..n)
        .map(|_| PlainRecord {
            fields: (0..ARITY).map(|_| rng.gen_range(0..keys)).collect(),
            is_view: rng.gen_range(0..8u32) != 0,
        })
        .collect()
}

fn shared(n: usize, seed: u64) -> SharedArrayPair {
    SharedArrayPair::share_records(&records(n, seed), &mut StdRng::seed_from_u64(seed ^ 1))
}

/// Median microseconds of `calls` runs of `body`, each on a fresh `input()`
/// built outside the clock (several operators consume or permute their input),
/// at nominal host speed: the gauge samples right before and after the calls.
fn median_us<I, O>(
    calls: usize,
    mut input: impl FnMut() -> I,
    mut body: impl FnMut(I) -> O,
) -> f64 {
    // One untimed call lets first-touch page faults and lazy set-up finish.
    black_box(body(input()));
    let mut gauge = SpeedGauge::new();
    gauge.sample();
    gauge.sample();
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let arg = input();
            let started = Instant::now();
            let out = body(arg);
            let us = started.elapsed().as_secs_f64() * 1e6;
            black_box(out);
            us
        })
        .collect();
    gauge.sample();
    gauge.sample();
    median(&samples) / gauge.index()
}

/// Run every probe. `divisor` shrinks the pinned inputs (metric names keep the
/// full-size labels; only full-size values are comparable across commits).
#[allow(clippy::too_many_lines)]
pub fn run(divisor: usize, calls: usize) -> Metrics {
    let mut out = Metrics::new();
    let size = |n: usize| (n / divisor).max(16);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut meter = CostMeter::new();

    // --- secretshare: lane kernels and layout conversion.
    let n = size(16384);
    let columns = SharedColumnsPair::from_pair(&shared(n, SEED));
    let (a, b) = (
        columns.recovered_field_lane(0),
        columns.recovered_field_lane(1),
    );
    let sel = columns.recovered_is_view_lane();
    let mut lane_out = Vec::with_capacity(n);
    let per_elem = |us: f64| us * 1e3 / n as f64;
    out.insert(
        "secretshare.lt_lane_ns_per_elem",
        per_elem(median_us(calls, || (), |()| lt_lane(&a, &b, &mut lane_out))),
    );
    out.insert(
        "secretshare.mux_lane_ns_per_elem",
        per_elem(median_us(
            calls,
            || (),
            |()| mux_lane(&sel, &a, &b, &mut lane_out),
        )),
    );
    out.insert(
        "secretshare.cswap_lane_ns_per_elem",
        per_elem(median_us(
            calls,
            || (a.clone(), b.clone()),
            |(mut x, mut y)| {
                cswap_lane(&sel, &mut x, &mut y);
                (x, y)
            },
        )),
    );
    let n = size(4096);
    let rows = records(n, SEED);
    let array = shared(n, SEED);
    let per_row = |us: f64| us * 1e3 / n as f64;
    out.insert(
        "secretshare.from_pair_ns_per_row",
        per_row(median_us(
            calls,
            || (),
            |()| SharedColumnsPair::from_pair(&array),
        )),
    );
    out.insert(
        "secretshare.share_records_ns_per_row",
        per_row(median_us(
            calls,
            || (),
            |()| SharedArrayPair::share_records(&rows, &mut rng),
        )),
    );

    // --- oblivious: one operator per probe.
    for (name, full) in [
        ("oblivious.sort_by_field_us.n1024", 1024),
        ("oblivious.sort_by_field_us.n4096", 4096),
        ("oblivious.sort_by_field_us.n16384", 16384),
    ] {
        let input = shared(size(full), SEED ^ full as u64);
        let us = median_us(
            calls,
            || input.clone(),
            |mut arr| {
                oblivious_sort_by_field(&mut arr, 0, SortOrder::Ascending, &mut meter);
                arr
            },
        );
        out.insert(name, us);
    }
    for (name, full) in [
        ("oblivious.cache_read_us.n4096", 4096),
        ("oblivious.cache_read_us.n16384", 16384),
    ] {
        let n = size(full);
        let input = shared(n, SEED ^ full as u64);
        let us = median_us(
            calls,
            || input.clone(),
            |mut cache| cache_read(&mut cache, n / 8, &mut meter),
        );
        out.insert(name, us);
    }
    let n = size(4096);
    let below_median = Predicate::le("probe", 0, n as u32 / 8);
    out.insert(
        "oblivious.filter_us.n4096",
        median_us(
            calls,
            || (),
            |()| oblivious_filter(&array, &below_median, &mut meter, &mut rng),
        ),
    );
    out.insert(
        "oblivious.count_us.n4096",
        median_us(
            calls,
            || (),
            |()| oblivious_count(&array, &below_median, &mut meter),
        ),
    );
    let domain: Vec<u32> = (0..16).collect();
    let everything = Predicate::all("probe");
    out.insert(
        "oblivious.group_count16_us.n4096",
        median_us(
            calls,
            || (),
            |()| oblivious_group_count_over_domain(&array, 1, &domain, &everything, &mut meter),
        ),
    );
    let delta = shared((32 / divisor).max(4), SEED ^ 32);
    let spec = JoinSpec::equi(0, 0);
    out.insert(
        "oblivious.nlj_us.d32xn4096",
        median_us(
            calls,
            || (),
            |()| truncated_nested_loop_join(&delta, &array, &spec, 1, &mut meter, &mut rng),
        ),
    );
    out.insert(
        "oblivious.smj_delta_us.d32xn4096",
        median_us(
            calls,
            || (),
            |()| truncated_sort_merge_delta_join(&delta, &array, &spec, 1, &mut meter, &mut rng),
        ),
    );
    let n = size(1024);
    let batch = shared(n, SEED ^ 1024);
    out.insert(
        "oblivious.shuffle_route_us.n1024",
        median_us(
            calls,
            || (),
            |()| shuffle_route(&batch, 0, 4, n / 4 + 2, &mut meter, &mut rng),
        ),
    );

    // --- mpc and dp: one protocol round trip per party execution mode. The
    // context is built once (threads, loopback socket) outside the clock.
    const ROUNDS: u32 = 32;
    for (name, mode) in [
        ("mpc.roundtrip_us.inprocess", PartyMode::InProcess),
        ("mpc.roundtrip_us.actor", PartyMode::Actor),
        ("mpc.roundtrip_us.tcp", PartyMode::Tcp),
    ] {
        let mut ctx = PartyContext::new(mode, SEED, CostModel::default());
        let us = median_us(
            calls,
            || (),
            |()| {
                let mut acc = 0u32;
                for value in 0..ROUNDS {
                    ctx.reshare_and_store("probe", value);
                    acc ^= ctx.recover_named("probe").unwrap_or(0);
                }
                acc
            },
        );
        out.insert(name, us / f64::from(ROUNDS));
    }
    for (name, mode) in [
        ("dp.joint_laplace_us.inprocess", PartyMode::InProcess),
        ("dp.joint_laplace_us.tcp", PartyMode::Tcp),
    ] {
        let mut ctx = PartyContext::new(mode, SEED, CostModel::default());
        let us = median_us(
            calls,
            || (),
            |()| {
                (0..ROUNDS)
                    .map(|_| joint_laplace_noise(&mut ctx, 1.0, 1.5, 10.0))
                    .sum::<f64>()
            },
        );
        out.insert(name, us / f64::from(ROUNDS));
    }
    out
}
