//! Raw kernel throughput: AoS record-major vs SoA lane-major oblivious primitives.
//!
//! Measures the four physical kernels the oblivious operators are built from —
//! compare (`<`), mux (select), add, and conditional swap — in two layouts:
//!
//! * **AoS** (the pre-SoA implementation shape): each element pair is recovered via
//!   `SharedRecordPair::recover()`, which allocates a fresh field vector per record,
//!   then the operation branches on the recovered values.
//! * **SoA** ([`incshrink_secretshare::columns`]): the batch is recovered once into
//!   column-major `u64` lanes, then the operation is a branch-free straight-line
//!   loop over the lanes (`lt_lane` / `mux_lane` / `add_lane` / `cswap_lane`).
//!
//! Output: a table of ns/op and SoA-over-AoS speedups per size, written as JSON to
//! `results/kernel_throughput.json` together with a `calibration` block of measured
//! SoA seconds-per-op that `incremental_transform` (and any
//! [`incshrink_oblivious::planner::Calibration`] consumer) can load to convert
//! planner op counts into predicted wall-clock.
//!
//! ```bash
//! cargo run -p incshrink-bench --bin kernel_throughput --release
//! INCSHRINK_KERNEL_N=2048 INCSHRINK_KERNEL_ASSERT_SPEEDUP=1.0 \
//!     cargo run -p incshrink-bench --bin kernel_throughput --release  # CI smoke
//! ```

use incshrink_bench::report::fmt;
use incshrink_bench::{print_table, write_json};
use incshrink_mpc::{CostModel, PartyContext, PartyExec, PartyMode};
use incshrink_secretshare::columns::{add_lane, cswap_lane, lt_lane, mux_lane};
use incshrink_secretshare::tuple::PlainRecord;
use incshrink_secretshare::{SharedArrayPair, SharedColumnsPair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

const ARITY: usize = 4;
const KERNELS: [&str; 4] = ["compare", "mux", "add", "swap"];

/// One measured (kernel, size) point.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelRow {
    kernel: String,
    n: usize,
    aos_ns_per_op: f64,
    soa_ns_per_op: f64,
    speedup: f64,
}

/// One measured party-mode point: what one protocol round (a one-word reshare
/// or recovery — the only payload production ships) costs the driver when the
/// two servers run as actor threads under `mode`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ChannelRow {
    mode: String,
    ns_per_round: f64,
}

/// Measured SoA seconds-per-op, in the shape
/// [`incshrink_oblivious::planner::Calibration`] loads.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MeasuredCalibration {
    secs_per_compare: f64,
    secs_per_swap: f64,
    secs_per_and: f64,
    secs_per_add: f64,
    secs_per_channel_round: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct KernelReport {
    rows: Vec<KernelRow>,
    channel_rows: Vec<ChannelRow>,
    calibration: MeasuredCalibration,
}

fn sizes() -> Vec<usize> {
    match std::env::var("INCSHRINK_KERNEL_N") {
        Ok(s) => s
            .split(',')
            .filter_map(|t| t.trim().parse::<usize>().ok())
            .filter(|&n| n >= 2)
            .collect(),
        Err(_) => vec![1024, 4096, 16384, 65536],
    }
}

/// Random shared batch of `n` records with `ARITY` fields.
fn sample(n: usize, seed: u64) -> SharedArrayPair {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arr = SharedArrayPair::with_arity(ARITY);
    for _ in 0..n {
        let fields: Vec<u32> = (0..ARITY).map(|_| rng.gen::<u32>() >> 1).collect();
        let rec = if rng.gen::<bool>() {
            PlainRecord::real(fields)
        } else {
            PlainRecord {
                fields,
                is_view: false,
            }
        };
        arr.push(incshrink_secretshare::SharedRecordPair::share(
            &rec, &mut rng,
        ))
        .expect("uniform arity");
    }
    arr
}

/// Iterations per measurement, scaled so every point does a comparable amount of
/// total work regardless of `n`.
fn reps_for(n: usize) -> usize {
    (1 << 22) / n.clamp(1, 1 << 22) + 2
}

/// Time `reps` runs of `body` and return nanoseconds per op, where one run performs
/// `ops` operations.
fn time_ns_per_op(reps: usize, ops: usize, mut body: impl FnMut()) -> f64 {
    // One warm-up run keeps first-touch page faults out of the measurement.
    body();
    let started = Instant::now();
    for _ in 0..reps {
        body();
    }
    started.elapsed().as_secs_f64() * 1e9 / (reps as f64 * ops as f64)
}

/// AoS kernels: per-pair `recover()` (one field-vector allocation per record, like
/// the pre-SoA comparator loops) followed by a branchy operation on field 0.
fn measure_aos(kernel: &str, arr: &SharedArrayPair, reps: usize) -> f64 {
    let entries = arr.entries();
    let half = entries.len() / 2;
    let mut acc = 0u64;
    let ns = {
        let acc = &mut acc;
        match kernel {
            "compare" => time_ns_per_op(reps, half, move || {
                for i in 0..half {
                    let a = entries[i].recover();
                    let b = entries[i + half].recover();
                    if a.fields[0] < b.fields[0] {
                        *acc += 1;
                    }
                }
            }),
            "mux" => time_ns_per_op(reps, half, move || {
                for i in 0..half {
                    let a = entries[i].recover();
                    let b = entries[i + half].recover();
                    *acc = acc.wrapping_add(u64::from(if a.is_view {
                        a.fields[0]
                    } else {
                        b.fields[0]
                    }));
                }
            }),
            "add" => time_ns_per_op(reps, half, move || {
                for i in 0..half {
                    let a = entries[i].recover();
                    let b = entries[i + half].recover();
                    *acc = acc.wrapping_add(u64::from(a.fields[0]) + u64::from(b.fields[0]));
                }
            }),
            "swap" => time_ns_per_op(reps, half, move || {
                let mut local: Vec<PlainRecord> = entries.iter().map(|e| e.recover()).collect();
                for i in 0..half {
                    if local[i].fields[0] > local[i + half].fields[0] {
                        local.swap(i, i + half);
                    }
                }
                *acc = acc.wrapping_add(u64::from(black_box(&local)[0].fields[0]));
            }),
            other => unreachable!("unknown kernel {other}"),
        }
    };
    black_box(acc);
    ns
}

/// SoA kernels: recover the batch into `u64` lanes once per run, then execute the
/// branch-free lane kernel over half-lane pairs.
fn measure_soa(kernel: &str, arr: &SharedArrayPair, reps: usize) -> f64 {
    let columns = SharedColumnsPair::from_pair(arr);
    let half = columns.len() / 2;
    let mut acc = 0u64;
    let mut out: Vec<u64> = Vec::with_capacity(half);
    let mut lane: Vec<u64> = Vec::with_capacity(columns.len());
    let mut sel: Vec<u64> = Vec::with_capacity(columns.len());
    let ns = {
        let acc = &mut acc;
        let out = &mut out;
        let lane = &mut lane;
        let sel = &mut sel;
        match kernel {
            "compare" => time_ns_per_op(reps, half, move || {
                columns.recover_field_lane_into(0, lane);
                lt_lane(&lane[..half], &lane[half..], out);
                *acc = acc.wrapping_add(out.iter().sum::<u64>());
            }),
            "mux" => time_ns_per_op(reps, half, move || {
                columns.recover_field_lane_into(0, lane);
                columns.recover_is_view_lane_into(sel);
                mux_lane(&sel[..half], &lane[..half], &lane[half..], out);
                *acc = acc.wrapping_add(out.iter().sum::<u64>());
            }),
            "add" => time_ns_per_op(reps, half, move || {
                columns.recover_field_lane_into(0, lane);
                add_lane(&lane[..half], &lane[half..], out);
                *acc = acc.wrapping_add(out.iter().sum::<u64>());
            }),
            "swap" => time_ns_per_op(reps, half, move || {
                columns.recover_field_lane_into(0, lane);
                let (lo, hi) = lane.split_at_mut(half);
                lt_lane(hi, lo, out);
                cswap_lane(out, lo, hi);
                *acc = acc.wrapping_add(lane[0]);
            }),
            other => unreachable!("unknown kernel {other}"),
        }
    };
    black_box((acc, out));
    ns
}

/// Time `rounds` protocol rounds through a [`PartyContext`] of `mode`,
/// alternating reshare and recover of one word — the cost a plan's protocol
/// round actually pays under the actor and TCP execution modes.
fn measure_channel(mode: PartyMode, rounds: usize) -> f64 {
    let mut ctx = PartyContext::new(mode, 0xC0DE, CostModel::default());
    // One warm-up pair absorbs thread start-up and socket buffer growth.
    ctx.reshare_and_store("probe", 0);
    let _ = ctx.recover_named("probe");
    let pairs = rounds.div_ceil(2);
    let started = Instant::now();
    for value in 0..pairs as u32 {
        ctx.reshare_and_store("probe", value);
        black_box(ctx.recover_named("probe"));
    }
    started.elapsed().as_secs_f64() * 1e9 / (2 * pairs) as f64
}

fn main() {
    let _telemetry = incshrink_bench::init();
    let sizes = sizes();
    assert!(!sizes.is_empty(), "INCSHRINK_KERNEL_N produced no sizes");
    let mut rows: Vec<KernelRow> = Vec::new();

    for &n in &sizes {
        let arr = sample(n, 0x5EED ^ n as u64);
        let reps = reps_for(n);
        for kernel in KERNELS {
            let aos = measure_aos(kernel, &arr, reps);
            let soa = measure_soa(kernel, &arr, reps);
            rows.push(KernelRow {
                kernel: kernel.to_string(),
                n,
                aos_ns_per_op: aos,
                soa_ns_per_op: soa,
                speedup: aos / soa.max(f64::MIN_POSITIVE),
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                r.n.to_string(),
                fmt(r.aos_ns_per_op),
                fmt(r.soa_ns_per_op),
                format!("{:.1}x", r.speedup),
            ]
        })
        .collect();
    println!("\n=== Oblivious kernel throughput (arity {ARITY}, AoS recover-per-pair vs SoA lanes) ===\n");
    print_table(
        &["kernel", "n", "AoS ns/op", "SoA ns/op", "SoA speedup"],
        &table,
    );

    // Party-channel transport: cost per protocol round under both actor modes.
    let channel_rounds = std::env::var("INCSHRINK_CHANNEL_ROUNDS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&r| r > 0)
        .unwrap_or(2000);
    let channel_rows: Vec<ChannelRow> = [PartyMode::Actor, PartyMode::Tcp]
        .into_iter()
        .map(|mode| ChannelRow {
            mode: mode.label().to_string(),
            ns_per_round: measure_channel(mode, channel_rounds),
        })
        .collect();
    let channel_table: Vec<Vec<String>> = channel_rows
        .iter()
        .map(|r| vec![r.mode.clone(), fmt(r.ns_per_round)])
        .collect();
    println!("\n=== Party protocol rounds ({channel_rounds} rounds/point, one-word reshare + recover) ===\n");
    print_table(&["party mode", "ns/round"], &channel_table);

    // Calibration: measured SoA seconds-per-op at the largest size (steady state).
    let largest = *sizes.iter().max().expect("non-empty");
    let at = |kernel: &str| -> f64 {
        rows.iter()
            .find(|r| r.kernel == kernel && r.n == largest)
            .map(|r| r.soa_ns_per_op * 1e-9)
            .expect("kernel measured")
    };
    // Transport pricing follows the selected execution mode: in-process party
    // calls cross no channel (0.0 keeps the calibration gate-only); actor and
    // TCP runs pay their measured round.
    let party_mode = PartyMode::from_env();
    let secs_per_channel_round = channel_rows
        .iter()
        .find(|r| r.mode == party_mode.label())
        .map_or(0.0, |r| r.ns_per_round * 1e-9);
    let calibration = MeasuredCalibration {
        secs_per_compare: at("compare"),
        secs_per_swap: at("swap"),
        secs_per_and: at("mux"),
        secs_per_add: at("add"),
        secs_per_channel_round,
    };
    println!(
        "\ncalibration (SoA secs/op at n = {largest}, party mode {party_mode}): compare {:.3e}, swap {:.3e}, and {:.3e}, add {:.3e}, channel round {:.3e}",
        calibration.secs_per_compare,
        calibration.secs_per_swap,
        calibration.secs_per_and,
        calibration.secs_per_add,
        calibration.secs_per_channel_round
    );
    write_json(
        "kernel_throughput",
        &KernelReport {
            rows: rows.clone(),
            channel_rows,
            calibration,
        },
    );

    // CI gate: the SoA compare kernel must beat AoS by the requested factor.
    if let Ok(threshold) = std::env::var("INCSHRINK_KERNEL_ASSERT_SPEEDUP") {
        let threshold: f64 = threshold.parse().unwrap_or(1.0);
        let worst = rows
            .iter()
            .filter(|r| r.kernel == "compare")
            .map(|r| r.speedup)
            .fold(f64::INFINITY, f64::min);
        if worst < threshold {
            eprintln!("FAIL: SoA compare speedup {worst:.2}x below required {threshold:.2}x");
            std::process::exit(1);
        }
        println!("compare-kernel speedup gate passed: worst {worst:.2}x >= {threshold:.2}x");
    }
}
