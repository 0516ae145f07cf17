//! `perf` — the repository's one benchmark. See `README.md` in this directory
//! for the workloads, the metric tables and how the layers interact.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's contract)
//! perf [--seed <n>] [--seconds <s>] [--out <file>]                every workload, timed + traced, one JSON document
//! perf --smoke                                                    everything at ~1/20 size, < 20 s
//! perf --compare <a.json> <b.json>                                verdict per workload x end-to-end metric
//! perf --print-benchmark-json                                     BENCHMARK.json as spec.rs declares it
//! ```

mod compare;
mod probes;
mod spec;
mod speed;
mod stats;
mod trace;
mod workloads;

use serde_json::Value;
use spec::object;
use stats::median;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{run_repetition, sizes, Rep, Sizes};

const DEFAULT_SEED: u64 = 0xAB1E;
const DEFAULT_SECONDS: f64 = spec::RUN_SECONDS as f64;
/// Size divisor of `--smoke`.
const SMOKE_DIVISOR: u64 = 20;
/// A run stops starting new repetitions past this wall time, whatever
/// `--seconds` asks: the driver allows one run 180 s.
const WALL_CAP_SECS: f64 = 120.0;

/// How much one run measures.
#[derive(Debug, Clone, Copy)]
struct Budget {
    /// Keep starting repetitions until their timed regions sum to this.
    seconds: f64,
    /// At least this many repetitions (two give the determinism check a pair).
    min_reps: usize,
    /// Divisor of the workload sizes (1 = full size).
    divisor: u64,
    /// Probe input divisor and calls per probe; `None` skips the probes.
    probes: Option<(usize, usize)>,
}

/// One aggregated metric of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reported {
    value: f64,
    min: f64,
    max: f64,
    /// Repetitions behind the value.
    n: usize,
    /// Samples behind a percentile inside one repetition (0 when not one).
    samples: usize,
}

/// Everything one `--workload` run produced.
struct RunResult {
    workload: &'static str,
    traced: bool,
    seed: u64,
    repetitions: usize,
    wall_s: f64,
    attempted: u64,
    failures: Vec<String>,
    max_backlog_share: f64,
    metrics: BTreeMap<&'static str, Reported>,
    /// Per-repetition values behind each metric.
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl RunResult {
    fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    fn specs(&self) -> &'static [spec::MetricSpec] {
        spec::declared(self.traced)
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is absent.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Lines of Rust under `crates/*/src`, this directory excluded — the
/// simplicity track's number, reported next to the timings.
fn workspace_src_loc() -> f64 {
    fn count(dir: &std::path::Path, skip: &std::path::Path) -> usize {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|entry| entry.path())
            .filter(|path| path != skip)
            .map(|path| {
                if path.is_dir() {
                    count(&path, skip)
                } else if path.extension().is_some_and(|ext| ext == "rs") {
                    std::fs::read_to_string(&path).map_or(0, |text| text.lines().count())
                } else {
                    0
                }
            })
            .sum()
    }
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let Some(crates) = manifest.ancestors().find(|dir| dir.ends_with("crates")) else {
        return 0.0;
    };
    let skip = crates.join("bench/src/bin/perf");
    let Ok(members) = std::fs::read_dir(crates) else {
        return 0.0;
    };
    members
        .flatten()
        .map(|member| count(&member.path().join("src"), &skip))
        .sum::<usize>() as f64
}

/// Run one workload: repetitions on freshly built pipelines until the budget
/// is spent, medians over repetitions, determinism and correctness checks.
/// With `traced`, every other repetition runs under an in-memory collector.
fn run_one(workload: &'static str, seed: u64, traced: bool, budget: Budget) -> Option<RunResult> {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut timed_total = 0.0;
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut panics = 0;
    while (reps.len() < budget.min_reps || timed_total < budget.seconds)
        && started.elapsed().as_secs_f64() < WALL_CAP_SECS
        && panics < 2
    {
        let trace_this = traced && reps.len() % 2 == 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if !trace_this {
                return run_repetition(workload, seed, budget.divisor);
            }
            let (mut rep, events) =
                trace::traced(|| run_repetition(workload, seed, budget.divisor));
            let shards = workloads::shards(workload);
            let layers = trace::layer_metrics(&events, &rep, shards);
            rep.timing.extend(layers);
            for (ok, what) in trace::audit(&events, &workloads::config(workload), shards) {
                rep.attempted += 1;
                if !ok {
                    rep.failures.push(what);
                }
            }
            rep
        }));
        match outcome {
            Ok(rep) => {
                let wall = rep.timing["core.timed_wall_s"];
                timed_total += wall;
                // Tracing overhead compares walls at nominal host speed.
                if trace_this {
                    traced_walls.push(wall / rep.speed_index);
                } else {
                    plain_walls.push(wall / rep.speed_index);
                }
                reps.push(rep);
            }
            Err(_) => {
                // A panicked repetition fails every operation it was to run.
                let ops = sizes(workload, budget.divisor).timed;
                attempted += ops;
                failures.extend((0..ops).map(|i| format!("repetition panicked (op {i})")));
                panics += 1;
            }
        }
    }
    let first = reps.first()?;

    // Determinism: the modeled metrics and the view fingerprints of every
    // repetition — traced ones included — equal the first's.
    for (i, rep) in reps.iter().enumerate().skip(1) {
        attempted += 1;
        if rep.exact != first.exact || rep.fingerprints != first.fingerprints {
            failures.push(format!("repetition {i} diverged from repetition 0"));
        }
    }
    for rep in &reps {
        attempted += rep.attempted;
        failures.extend(rep.failures.iter().cloned());
    }

    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut samples: BTreeMap<&'static str, usize> = BTreeMap::new();
    for rep in &reps {
        for (name, value) in rep.timing.iter().chain(&rep.exact) {
            values.entry(name).or_default().push(*value);
        }
        samples.extend(&rep.samples);
    }
    if traced {
        values.insert(
            "telemetry.overhead_ratio",
            vec![stats::ratio(median(&traced_walls), median(&plain_walls))],
        );
        values.insert("workspace.src_loc", vec![workspace_src_loc()]);
        if let Some((divisor, calls)) = budget.probes {
            for (name, value) in probes::run(divisor, calls) {
                values.insert(name, vec![value]);
            }
        }
    } else {
        values.insert("peak_rss_mb", vec![peak_rss_mb()]);
        let failed = (failures.len() as u64).min(attempted);
        values.insert("ok_share", vec![1.0 - failed as f64 / attempted as f64]);
    }

    let metrics: BTreeMap<&'static str, Reported> = spec::declared(traced)
        .iter()
        .map(|m| {
            // A layer this workload never enters has no samples and reads 0.
            let v = values.entry(m.name).or_insert_with(|| vec![0.0]);
            let reported = Reported {
                value: median(v),
                min: v.iter().copied().fold(f64::INFINITY, f64::min),
                max: v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                n: v.len(),
                samples: samples.get(m.name).copied().unwrap_or(0),
            };
            (m.name, reported)
        })
        .collect();
    Some(RunResult {
        workload,
        traced,
        seed,
        repetitions: reps.len(),
        wall_s: started.elapsed().as_secs_f64(),
        attempted,
        max_backlog_share: reps.iter().map(|r| r.max_backlog_share).fold(0.0, f64::max),
        failures,
        metrics,
        values,
    })
}

/// Print every metric of a run by name and unit.
fn print_table(run: &RunResult) {
    let Sizes { warm, timed } = sizes(run.workload, 1);
    println!(
        "== {} · {} pass · seed {} · {} repetitions · {:.1} s wall · full size {warm}+{timed} steps ==",
        run.workload,
        if run.traced { "traced" } else { "timed" },
        run.seed,
        run.repetitions,
        run.wall_s,
    );
    for m in run.specs() {
        let r = run.metrics[m.name];
        let samples = if r.samples > 0 {
            format!(" samples={}", r.samples)
        } else {
            String::new()
        };
        println!(
            "{:<40} {:>16.6} {:<6} [{:.6} .. {:.6}] n={}{samples}",
            m.name, r.value, m.unit, r.min, r.max, r.n
        );
    }
    println!(
        "attempted {} · failed {} · largest count backlog share {:.4}",
        run.attempted,
        run.failed(),
        run.max_backlog_share
    );
    for failure in run.failures.iter().take(10) {
        println!("FAILED: {failure}");
    }
}

/// The full record of a run (what the all-workloads document keeps).
fn detail_json(run: &RunResult) -> Value {
    let metrics = run
        .specs()
        .iter()
        .map(|m| {
            let r = run.metrics[m.name];
            let entry = object(vec![
                ("value", Value::Float(r.value)),
                ("unit", Value::String(m.unit.to_string())),
                ("min", Value::Float(r.min)),
                ("max", Value::Float(r.max)),
                ("n", Value::UInt(r.n as u64)),
                ("samples", Value::UInt(r.samples as u64)),
                (
                    "values",
                    Value::Array(
                        run.values[m.name]
                            .iter()
                            .map(|v| Value::Float(*v))
                            .collect(),
                    ),
                ),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    object(vec![
        ("workload", Value::String(run.workload.to_string())),
        (
            "pass",
            Value::String(if run.traced { "traced" } else { "timed" }.to_string()),
        ),
        ("seed", Value::UInt(run.seed)),
        ("repetitions", Value::UInt(run.repetitions as u64)),
        ("wall_s", Value::Float(run.wall_s)),
        ("correct", Value::Bool(run.failures.is_empty())),
        ("attempted", Value::UInt(run.attempted)),
        ("failed", Value::UInt(run.failed())),
        ("metrics", Value::Object(metrics)),
    ])
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(run: &RunResult) -> Value {
    let metrics = run
        .specs()
        .iter()
        .map(|m| {
            let entry = object(vec![
                ("value", Value::Float(run.metrics[m.name].value)),
                ("unit", Value::String(m.unit.to_string())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    object(vec![
        ("correct", Value::Bool(run.failures.is_empty())),
        ("attempted", Value::UInt(run.attempted)),
        ("failed", Value::UInt(run.failed())),
        ("metrics", Value::Object(metrics)),
    ])
}

fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("the JSON renderer is total")
}

/// Marks the line carrying a run's full record, just above the result line.
const DETAIL_PREFIX: &str = "DETAIL ";

/// `--workload`: one run in this process, result line last.
fn main_one(workload: &'static str, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let budget = Budget {
        seconds,
        min_reps: 2,
        divisor: 1,
        probes: Some((1, probes::CALLS)),
    };
    let Some(run) = run_one(workload, seed, traced, budget) else {
        eprintln!("perf: no repetition of {workload} completed");
        return ExitCode::FAILURE;
    };
    print_table(&run);
    println!("{DETAIL_PREFIX}{}", render(&detail_json(&run)));
    println!("{}", render(&result_json(&run)));
    ExitCode::SUCCESS
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// No `--workload`: every workload in a fresh child process, one at a time,
/// timed pass then traced pass; ends with one JSON document.
fn main_all(seed: u64, seconds: f64, out: Option<&str>) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut children = Vec::new();
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in spec::WORKLOADS {
        let mut passes = Vec::new();
        for trace_flag in ["0", "1"] {
            let started = Instant::now();
            let child = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace_flag])
                .output()
                .expect("spawn a child of this executable");
            let stdout = String::from_utf8_lossy(&child.stdout);
            let detail = stdout
                .lines()
                .find_map(|line| line.strip_prefix(DETAIL_PREFIX))
                .and_then(|text| serde_json::from_str(text).ok());
            let Some(detail) = detail.filter(|_| child.status.success()) else {
                eprintln!("perf: child for {} --trace {trace_flag} failed", w.name);
                eprint!("{}", String::from_utf8_lossy(&child.stderr));
                return ExitCode::FAILURE;
            };
            // Echo the child's table; its two JSON lines go into the document.
            for line in stdout.lines() {
                if !line.starts_with(DETAIL_PREFIX) && !line.starts_with('{') {
                    println!("{line}");
                }
            }
            all_correct &= compare::field(&detail, "correct") == Some(&Value::Bool(true));
            children.push(object(vec![
                ("workload", Value::String(w.name.to_string())),
                ("trace", Value::String(trace_flag.to_string())),
                ("wall_s", Value::Float(started.elapsed().as_secs_f64())),
            ]));
            passes.push(detail);
        }
        let traced = passes.pop().expect("traced pass");
        let timed = passes.pop().expect("timed pass");
        let Sizes { warm, timed: steps } = sizes(w.name, 1);
        workloads.push((
            w.name.to_string(),
            object(vec![
                ("why", Value::String(w.why.to_string())),
                ("warm_steps", Value::UInt(warm)),
                ("timed_steps", Value::UInt(steps)),
                ("timed", timed),
                ("traced", traced),
            ]),
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let document = object(vec![
        ("bench", Value::String("perf".to_string())),
        ("schema_version", Value::UInt(1)),
        (
            "meta",
            object(vec![
                (
                    "git_commit",
                    Value::String(command_line("git", &["rev-parse", "HEAD"])),
                ),
                (
                    "rustc",
                    Value::String(command_line("rustc", &["--version"])),
                ),
                ("nproc", Value::UInt(nproc)),
                ("seed", Value::UInt(seed)),
                ("run_seconds", Value::Float(seconds)),
                ("children", Value::Array(children)),
            ]),
        ),
        ("workloads", Value::Object(workloads)),
    ]);
    let text = serde_json::to_string_pretty(&document).expect("the JSON renderer is total");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, format!("{text}\n")) {
            eprintln!("perf: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{text}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--smoke`: every workload (plain + traced repetition) and every probe at
/// about a twentieth of full size, in this process.
fn main_smoke() -> ExitCode {
    let mut ok = true;
    for (i, w) in spec::WORKLOADS.iter().enumerate() {
        let budget = Budget {
            seconds: 0.0,
            min_reps: 2,
            divisor: SMOKE_DIVISOR,
            probes: (i == 0).then_some((16, 3)),
        };
        match run_one(w.name, DEFAULT_SEED, true, budget) {
            Some(run) => {
                print_table(&run);
                ok &= run.failures.is_empty();
            }
            None => ok = false,
        }
    }
    println!("smoke {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf [--workload <name> --trace <0|1>] [--seed <n>] [--seconds <s>] [--out <file>]\n       \
         perf --smoke\n       perf --compare <a.json> <b.json>\nworkloads: {}",
        spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn main() -> ExitCode {
    // No INCSHRINK_* knob may change a reported number: drop them all before
    // any library code (or child process) can read one. Still single-threaded.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("INCSHRINK_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut traced = false;
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--smoke", _) => return main_smoke(),
            ("--print-benchmark-json", _) => {
                let json = serde_json::to_string_pretty(&spec::benchmark_json());
                println!("{}", json.expect("the JSON renderer is total"));
                return ExitCode::SUCCESS;
            }
            ("--compare", Some(a)) => {
                let Some(b) = args.get(i + 2) else {
                    return usage();
                };
                return compare::main(a, b);
            }
            ("--workload", Some(name)) => match spec::workload(name) {
                Some(w) => workload = Some(w.name),
                None => return usage(),
            },
            ("--seed", Some(v)) => match parse_seed(v) {
                Some(s) => seed = s,
                None => return usage(),
            },
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(s) if s >= 0.0 => seconds = s,
                _ => return usage(),
            },
            ("--trace", Some("0")) => traced = false,
            ("--trace", Some("1")) => traced = true,
            ("--out", Some(path)) => out = Some(path.to_string()),
            _ => return usage(),
        }
        i += 2;
    }
    match workload {
        Some(name) => main_one(name, seed, seconds, traced),
        None => main_all(seed, seconds, out.as_deref()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every declared metric is emitted by a run and every emitted metric is
    /// declared, on a single-pair and on the cluster workload, both passes.
    #[test]
    fn every_declared_metric_is_emitted_and_vice_versa() {
        let budget = Budget {
            seconds: 0.0,
            min_reps: 2,
            divisor: SMOKE_DIVISOR,
            probes: Some((64, 1)),
        };
        for workload in ["ingest_timer_tpcds", "cluster_elastic_s2"] {
            for (traced, declared) in [(false, spec::END_TO_END), (true, spec::PER_LAYER)] {
                let run = run_one(workload, DEFAULT_SEED, traced, budget)
                    .expect("a repetition completes");
                assert_eq!(run.failures, Vec::<String>::new(), "{workload}");
                let result = result_json(&run);
                let Some(Value::Object(metrics)) = compare::field(&result, "metrics") else {
                    panic!("metrics object");
                };
                let emitted: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                let expected: BTreeSet<&str> = declared.iter().map(|m| m.name).collect();
                assert_eq!(emitted, expected, "{workload} traced={traced}");
                let Value::Object(keys) = &result else {
                    unreachable!()
                };
                let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                if !traced {
                    for m in declared {
                        assert!(run.metrics[m.name].value > 0.0, "{} is zero", m.name);
                    }
                }
            }
        }
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("12"), Some(12));
        assert_eq!(parse_seed("0xAB1E"), Some(0xAB1E));
        assert_eq!(parse_seed("seed"), None);
    }
}
