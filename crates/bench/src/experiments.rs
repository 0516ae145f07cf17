//! The paper's evaluation (Table 2, Figures 4–9) and the cluster scale-out
//! sweep, as data.
//!
//! Each [`Experiment`] is its cases (the runs, grouped in sections), the
//! console columns and the JSON row each run turns into, a caption, and the
//! shape the paper leads us to expect. One loop ([`Experiment::run`]) runs
//! every case as a [`ShardedSimulation`] — one shard is the single server pair
//! — prints the results and writes `results/<name>.json`. The `sweep` binary
//! selects experiments by name ([`select`]).

use crate::report::{fmt, fmt_improvement, print_csv, print_table, write_json};
use incshrink::prelude::*;
use incshrink_cluster::{ClusterRunReport, RoutingPolicy, ShardedSimulation};
use serde::{Serialize, Value};
use std::rc::Rc;

/// The horizon when `INCSHRINK_BENCH_STEPS` is not set.
const DEFAULT_STEPS: u64 = 240;

/// Number of upload epochs the experiment binaries run: `INCSHRINK_BENCH_STEPS`,
/// or 240 when it is not set. Exits with status 2 when it is set to anything
/// but a positive integer.
#[must_use]
pub fn default_steps() -> u64 {
    parse_steps(std::env::var("INCSHRINK_BENCH_STEPS").ok().as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn parse_steps(value: Option<&str>) -> Result<u64, String> {
    let Some(value) = value else {
        return Ok(DEFAULT_STEPS);
    };
    value
        .trim()
        .parse()
        .ok()
        .filter(|&steps| steps > 0)
        .ok_or_else(|| format!("INCSHRINK_BENCH_STEPS must be a positive integer, got {value:?}"))
}

/// Mean new view entries per step of a dataset kind's standard workload.
fn rate(kind: DatasetKind) -> f64 {
    match kind {
        DatasetKind::TpcDs => 2.7,
        DatasetKind::Cpdb => 9.8,
    }
}

/// Build the standard workload for a dataset kind at a given horizon.
#[must_use]
pub fn build_dataset(kind: DatasetKind, steps: u64, seed: u64) -> Dataset {
    let params = WorkloadParams {
        steps,
        view_entries_per_step: rate(kind),
        seed,
    };
    match kind {
        DatasetKind::TpcDs => TpcDsGenerator::new(params).generate(),
        DatasetKind::Cpdb => CpdbGenerator::new(params).generate(),
    }
}

/// Section 7's "Default setting" for a dataset/strategy combination (ε = 1.5,
/// θ = 30, T = ⌊θ/rate⌋, f = 2000, s = 15), with the analyst querying every
/// `query_interval` steps.
fn config(kind: DatasetKind, strategy: UpdateStrategy, query_interval: u64) -> IncShrinkConfig {
    let config = match kind {
        DatasetKind::TpcDs => IncShrinkConfig::tpcds_default(strategy),
        DatasetKind::Cpdb => IncShrinkConfig::cpdb_default(strategy),
    };
    IncShrinkConfig {
        query_interval,
        ..config
    }
}

/// The five strategies compared by Table 2 / Figure 4 for a dataset kind, the two
/// DP protocols first, using the paper's threshold↔interval correspondence.
fn strategy_set(kind: DatasetKind) -> [UpdateStrategy; 5] {
    let interval = IncShrinkConfig::timer_interval_for_threshold(30.0, rate(kind));
    [
        UpdateStrategy::DpTimer { interval },
        UpdateStrategy::DpAnt { threshold: 30.0 },
        UpdateStrategy::OneTimeMaterialization,
        UpdateStrategy::ExhaustivePadding,
        UpdateStrategy::NonMaterialized,
    ]
}

/// sDPTimer and sDPANT at the paper's defaults.
fn dp_protocols(kind: DatasetKind) -> [UpdateStrategy; 2] {
    let [timer, ant, ..] = strategy_set(kind);
    [timer, ant]
}

/// One run of an experiment.
#[derive(Clone)]
struct Case {
    /// The dataset label the rows carry (`TPC-ds`, `CPDB`, `TPC-ds/store`).
    label: String,
    dataset: Rc<Dataset>,
    config: IncShrinkConfig,
    shards: usize,
    routing: RoutingPolicy,
    seed: u64,
    /// The swept value (ε, T, ω, data scale) a figure plots the run at.
    x: f64,
    /// The figure series the run belongs to.
    series: String,
}

impl Case {
    /// A single-pair run of `config` over `dataset`, labelled by its kind.
    fn new(dataset: &Rc<Dataset>, config: IncShrinkConfig, seed: u64) -> Self {
        Self {
            label: dataset.kind.to_string(),
            dataset: Rc::clone(dataset),
            config,
            shards: 1,
            routing: RoutingPolicy::CoPartitioned,
            seed,
            x: 0.0,
            series: String::new(),
        }
    }

    /// The same run as the point of `series` at `x`.
    fn at(self, x: f64, series: String) -> Self {
        Self { x, series, ..self }
    }
}

/// Cases printed together: one table, under an optional heading.
struct Section {
    heading: Option<String>,
    cases: Vec<Case>,
}

/// One unheaded section of `cases`: a figure.
fn figure(cases: Vec<Case>) -> Vec<Section> {
    vec![Section {
        heading: None,
        cases,
    }]
}

/// A case and its report.
struct Run {
    case: Case,
    report: ClusterRunReport,
}

impl Run {
    fn new(case: Case) -> Self {
        let dataset = Dataset::clone(&case.dataset);
        let report = ShardedSimulation::new(dataset, case.config, case.shards, case.seed)
            .with_routing_policy(case.routing)
            .run();
        Self { case, report }
    }

    fn summary(&self) -> &Summary {
        &self.report.summary
    }
}

/// A console column: its header, and how a run renders in it given the runs
/// of its section (for ratios against a baseline run).
type Column = (&'static str, fn(&Run, &[Run]) -> String);

/// The JSON row each run of an experiment writes, and how the experiment
/// prints: CSV for the figures' points, a table per section otherwise.
enum RowShape {
    /// A figure point at the case's `x`.
    Point,
    /// A figure point at the run's own average L1 error: Figure 4's
    /// L1-vs-QET scatter.
    Scatter,
    /// Table 2's per-strategy statistics.
    Comparison,
    /// The scale-out statistics, the scan speed-up over the section's first run.
    Scaleout,
}

impl RowShape {
    fn row(&self, run: &Run, section: &[Run]) -> Value {
        let (case, report, s) = (&run.case, &run.report, run.summary());
        let x = match self {
            Self::Scatter => s.avg_l1_error,
            _ => case.x,
        };
        match self {
            Self::Point | Self::Scatter => object([
                ("x", x.serialize()),
                ("series", case.series.serialize()),
                ("avg_l1_error", s.avg_l1_error.serialize()),
                ("avg_qet_secs", s.avg_qet_secs.serialize()),
                ("avg_transform_secs", s.avg_transform_secs.serialize()),
                ("avg_shrink_secs", s.avg_shrink_secs.serialize()),
                ("total_mpc_secs", s.total_mpc_secs.serialize()),
                ("total_query_secs", s.total_query_secs.serialize()),
            ]),
            Self::Comparison => object([
                ("dataset", case.label.serialize()),
                ("strategy", case.config.strategy.label().serialize()),
                ("avg_l1_error", s.avg_l1_error.serialize()),
                ("avg_relative_error", s.avg_relative_error.serialize()),
                ("avg_qet_secs", s.avg_qet_secs.serialize()),
                ("avg_transform_secs", s.avg_transform_secs.serialize()),
                ("avg_shrink_secs", s.avg_shrink_secs.serialize()),
                ("view_mb", s.final_view_mb.serialize()),
                ("total_mpc_secs", s.total_mpc_secs.serialize()),
                ("total_query_secs", s.total_query_secs.serialize()),
            ]),
            Self::Scaleout => object([
                ("dataset", case.label.serialize()),
                ("routing", case.routing.label().serialize()),
                ("shards", case.shards.serialize()),
                (
                    "per_shard_epsilon",
                    report.privacy.per_shard_epsilon.serialize(),
                ),
                (
                    "user_level_epsilon",
                    report.privacy.user_level_epsilon.serialize(),
                ),
                ("avg_l1_error", s.avg_l1_error.serialize()),
                ("avg_relative_error", s.avg_relative_error.serialize()),
                ("cluster_qet_secs", s.avg_qet_secs.serialize()),
                (
                    "max_shard_qet_secs",
                    report.avg_max_shard_qet_secs.serialize(),
                ),
                ("aggregation_secs", report.avg_aggregation_secs.serialize()),
                ("shuffle_secs", report.avg_shuffle_secs.serialize()),
                (
                    "shuffle_overflows",
                    report.shuffle.overflow_events.serialize(),
                ),
                (
                    "scan_speedup_vs_single",
                    scan_speedup(run, &section[0]).serialize(),
                ),
                ("total_mpc_secs", s.total_mpc_secs.serialize()),
                ("view_mb", s.final_view_mb.serialize()),
                ("sync_count", s.sync_count.serialize()),
            ]),
        }
    }
}

fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.map(|(key, value)| (key.to_string(), value)).into())
}

/// How much faster `run`'s slowest shard scans its view than `single`'s.
fn scan_speedup(run: &Run, single: &Run) -> f64 {
    let scan = run.report.avg_max_shard_qet_secs;
    if scan > 0.0 {
        single.report.avg_max_shard_qet_secs / scan
    } else {
        0.0
    }
}

/// `run`'s improvement over the section's run under the `label` strategy, in
/// the quantity `of` reads.
fn improvement(run: &Run, section: &[Run], label: &str, of: fn(&Summary) -> f64) -> String {
    let baseline = section
        .iter()
        .find(|r| r.case.config.strategy.label() == label)
        .expect("Table 2 runs every baseline");
    fmt_improvement(of(baseline.summary()), of(run.summary()))
}

/// An experiment of the evaluation, as data; see the [module docs](self).
pub struct Experiment {
    name: &'static str,
    caption: &'static str,
    cases: fn(u64) -> Vec<Section>,
    columns: &'static [Column],
    rows: RowShape,
    expected: &'static str,
}

impl Experiment {
    /// The experiment's name: its `sweep` argument and results file stem.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Run every case at `steps` upload epochs, print the results and write
    /// them to `results/<name>.json`.
    pub fn run(&self, steps: u64) {
        comment(self.caption);
        let headers: Vec<&str> = self.columns.iter().map(|c| c.0).collect();
        let mut rows = Vec::new();
        for section in (self.cases)(steps) {
            let runs: Vec<Run> = section.cases.into_iter().map(Run::new).collect();
            let cells: Vec<Vec<String>> = runs
                .iter()
                .map(|run| self.columns.iter().map(|c| (c.1)(run, &runs)).collect())
                .collect();
            if let Some(heading) = section.heading {
                println!("\n=== {heading} ===\n");
            }
            match self.rows {
                RowShape::Point | RowShape::Scatter => print_csv(&headers, &cells),
                RowShape::Comparison | RowShape::Scaleout => print_table(&headers, &cells),
            }
            rows.extend(runs.iter().map(|run| self.rows.row(run, &runs)));
        }
        write_json(self.name, &rows);
        comment(self.expected);
    }
}

fn comment(text: &str) {
    for line in text.lines() {
        println!("# {line}");
    }
}

/// The experiments `names` selects, in the order named; every experiment when
/// `names` is empty.
///
/// # Errors
/// A name no experiment has, with the list of valid names.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    let valid = || {
        EXPERIMENTS
            .iter()
            .map(Experiment::name)
            .collect::<Vec<_>>()
            .join(", ")
    };
    names
        .iter()
        .map(|name| {
            EXPERIMENTS
                .iter()
                .find(|e| e.name == name)
                .ok_or_else(|| format!("unknown experiment {name:?}; valid names: {}", valid()))
        })
        .collect()
}

const STRATEGY: Column = ("strategy", |r, _| r.case.config.strategy.label().into());
const DATASET: Column = ("dataset", |r, _| r.case.label.clone());
const SERIES: Column = ("series", |r, _| r.case.series.clone());
const L1: Column = ("avg_l1_error", |r, _| {
    format!("{:.3}", r.summary().avg_l1_error)
});
const QET: Column = ("avg_qet_secs", |r, _| {
    format!("{:.6}", r.summary().avg_qet_secs)
});

/// Every experiment, in the paper's order, then the cluster sweep.
static EXPERIMENTS: [Experiment; 8] = [
    Experiment {
        name: "table2",
        caption: "Table 2: end-to-end comparison of DP-Timer, DP-ANT, OTM, EP and NM — query\n\
                  error, Transform / Shrink / query time and view size, with the paper's\n\
                  improvement factors",
        cases: table2,
        columns: &[
            STRATEGY,
            ("L1 err", |r, _| fmt(r.summary().avg_l1_error)),
            ("rel err", |r, _| fmt(r.summary().avg_relative_error)),
            ("acc imp (vs OTM)", |r, s| improvement(r, s, "OTM", |s| s.avg_l1_error)),
            ("Transform(s)", |r, _| fmt(r.summary().avg_transform_secs)),
            ("Shrink(s)", |r, _| fmt(r.summary().avg_shrink_secs)),
            ("QET(s)", |r, _| fmt(r.summary().avg_qet_secs)),
            ("QET imp (vs NM)", |r, s| improvement(r, s, "NM", |s| s.avg_qet_secs)),
            ("QET imp (vs EP)", |r, s| improvement(r, s, "EP", |s| s.avg_qet_secs)),
            ("view MB", |r, _| fmt(r.summary().final_view_mb)),
            ("size imp (vs EP)", |r, s| improvement(r, s, "EP", |s| s.final_view_mb)),
        ],
        rows: RowShape::Comparison,
        expected: "Expected shape (paper Table 2): the DP protocols sit between OTM (fast, useless\n\
                   answers) and EP/NM (exact, slow); their QET improvement over NM is the largest\n\
                   factor in the table and their relative error stays below ~5%.",
    },
    Experiment {
        name: "fig4",
        caption: "Figure 4: avg L1 error vs avg QET (one point per strategy per dataset)",
        cases: fig4,
        columns: &[DATASET, STRATEGY, L1, QET],
        rows: RowShape::Scatter,
        expected: "Expected shape: NM sits at the top (slow, exact), OTM at the far right (fast,\n\
                   inaccurate), EP on the upper left, and the two DP protocols at the bottom-middle.",
    },
    Experiment {
        name: "fig5",
        caption: "Figure 5: privacy (ε) vs accuracy (avg L1) and efficiency (avg QET)",
        cases: fig5,
        columns: &[SERIES, ("epsilon", |r, _| r.case.x.to_string()), L1, QET],
        rows: RowShape::Point,
        expected: "Expected shape: sDPTimer's L1 error decreases monotonically as ε grows; sDPANT's\n\
                   first rises then falls; both QET curves decrease as ε grows.",
    },
    Experiment {
        name: "fig6",
        caption: "Figure 6: DP protocols under Sparse / Standard / Burst workloads",
        cases: fig6,
        columns: &[SERIES, L1, QET],
        rows: RowShape::Point,
        expected: "Expected shape: sDPTimer has the lower error on Sparse data, sDPANT on Burst\n\
                   data; both protocols have similar QET on every variant.",
    },
    Experiment {
        name: "fig7",
        caption: "Figure 7: avg L1 error vs avg QET while sweeping T (and θ = rate·T) at\n\
                  ε ∈ {0.1, 1, 10}",
        cases: fig7,
        columns: &[SERIES, ("interval_T", |r, _| r.case.x.to_string()), L1, QET],
        rows: RowShape::Point,
        expected: "Expected shape: at ε = 0.1 the sDPANT points cluster towards lower error / higher\n\
                   QET and sDPTimer towards the opposite corner; at ε = 10 the two protocols overlap.",
    },
    Experiment {
        name: "fig8",
        caption: "Figure 8: truncation bound ω sweep on the CPDB workload (b = 2ω)",
        cases: fig8,
        columns: &[
            STRATEGY,
            ("omega", |r, _| r.case.x.to_string()),
            L1,
            QET,
            ("avg_transform_secs", |r, _| format!("{:.4}", r.summary().avg_transform_secs)),
            ("avg_shrink_secs", |r, _| format!("{:.4}", r.summary().avg_shrink_secs)),
            ("truncation_losses", |r, _| r.summary().truncation_losses.to_string()),
        ],
        rows: RowShape::Point,
        expected: "Expected shape: error drops sharply as ω grows past the maximum record\n\
                   multiplicity (truncation losses vanish), then flattens / worsens slightly as the\n\
                   extra DP noise dominates; QET decreases for small ω (smaller view) and degrades\n\
                   for large ω; Shrink time grows with ω and Transform time more slowly (each\n\
                   per-outer buffer keeps its first ω slots through a top-ω selection network,\n\
                   which approaches a full sort of the window as ω grows).",
    },
    Experiment {
        name: "fig9",
        caption: "Figure 9: total MPC time and total query time vs data scale",
        cases: fig9,
        columns: &[
            DATASET,
            STRATEGY,
            ("scale", |r, _| r.case.x.to_string()),
            ("total_mpc_secs", |r, _| format!("{:.2}", r.summary().total_mpc_secs)),
            ("total_query_secs", |r, _| format!("{:.4}", r.summary().total_query_secs)),
        ],
        rows: RowShape::Point,
        expected: "Expected shape: both totals grow roughly linearly with the data scale and the two\n\
                   DP protocols track each other closely, demonstrating practical scalability.",
    },
    Experiment {
        name: "scaleout",
        caption: "Scale-out: sDPTimer on S ∈ {1, 2, 4, 8} shard pipelines with an ε/S budget each,\n\
                  co-partitioned on both workloads and shuffled on the store-partitioned TPC-ds",
        cases: scaleout,
        columns: &[
            ("shards", |r, _| r.case.shards.to_string()),
            ("ε/S", |r, _| fmt(r.report.privacy.per_shard_epsilon)),
            ("user ε", |r, _| fmt(r.report.privacy.user_level_epsilon)),
            ("L1 err", |r, _| fmt(r.summary().avg_l1_error)),
            ("rel err", |r, _| fmt(r.summary().avg_relative_error)),
            ("max-shard scan(s)", |r, _| fmt(r.report.avg_max_shard_qet_secs)),
            ("agg(s)", |r, _| fmt(r.report.avg_aggregation_secs)),
            ("shuffle(s)", |r, _| fmt(r.report.avg_shuffle_secs)),
            ("overflows", |r, _| r.report.shuffle.overflow_events.to_string()),
            ("cluster QET(s)", |r, _| fmt(r.summary().avg_qet_secs)),
            ("scan speedup", |r, s| format!("{:.2}x", scan_speedup(r, &s[0]))),
            ("view MB", |r, _| fmt(r.summary().final_view_mb)),
            ("syncs", |r, _| r.summary().sync_count.to_string()),
        ],
        rows: RowShape::Scaleout,
        expected: "Expected shape (paper Section 8 scale-out): the slowest per-shard view scan\n\
                   shrinks roughly with 1/S while the ⌈log2 S⌉+1 aggregation rounds add a small\n\
                   constant; the user-level privacy guarantee (b·ε) is invariant in S, paid for\n\
                   by the ε/S noise split's growing L1 error. On the shuffled axis the oblivious\n\
                   re-route adds a fixed per-step cost (padded buckets leak only their constant\n\
                   size) and leaves accuracy at the co-partitioned level.",
    },
];

const KINDS: [DatasetKind; 2] = [DatasetKind::TpcDs, DatasetKind::Cpdb];

fn table2(steps: u64) -> Vec<Section> {
    KINDS
        .map(|kind| {
            let dataset = Rc::new(build_dataset(kind, steps, 0xAB1E));
            let cases = strategy_set(kind).map(|s| Case::new(&dataset, config(kind, s, 5), 0x7AB2));
            Section {
                heading: Some(format!(
                    "{kind} ({steps} upload epochs, query every 5 steps)"
                )),
                cases: cases.into(),
            }
        })
        .into()
}

fn fig4(steps: u64) -> Vec<Section> {
    let mut cases = Vec::new();
    for kind in KINDS {
        let dataset = Rc::new(build_dataset(kind, steps, 0xF144));
        for s in strategy_set(kind) {
            let case = Case::new(&dataset, config(kind, s, 5), 0x44);
            cases.push(case.at(0.0, format!("{}/{kind}", s.label())));
        }
    }
    figure(cases)
}

fn fig5(steps: u64) -> Vec<Section> {
    let mut cases = Vec::new();
    for kind in KINDS {
        let dataset = Rc::new(build_dataset(kind, steps, 0xF155));
        for epsilon in [0.01, 0.05, 0.1, 0.5, 1.0, 1.5, 5.0, 10.0, 50.0] {
            for s in dp_protocols(kind) {
                let config = IncShrinkConfig {
                    epsilon,
                    ..config(kind, s, 2)
                };
                let case = Case::new(&dataset, config, 0x55);
                cases.push(case.at(epsilon, format!("{}/{kind}", s.label())));
            }
        }
    }
    figure(cases)
}

fn fig6(steps: u64) -> Vec<Section> {
    let mut cases = Vec::new();
    for kind in KINDS {
        let standard = build_dataset(kind, steps, 0xF166);
        let variants = [
            (WorkloadVariant::Sparse, to_sparse(&standard, 0.1, 61)),
            (WorkloadVariant::Standard, standard.clone()),
            (WorkloadVariant::Burst, to_burst(&standard, 1.0, 62)),
        ];
        for (x, (variant, dataset)) in variants.into_iter().enumerate() {
            let dataset = Rc::new(dataset);
            for s in dp_protocols(kind) {
                let case = Case::new(&dataset, config(kind, s, 2), 0x66);
                cases.push(case.at(x as f64, format!("{}/{kind}/{variant}", s.label())));
            }
        }
    }
    figure(cases)
}

fn fig7(steps: u64) -> Vec<Section> {
    let mut cases = Vec::new();
    for kind in KINDS {
        let dataset = Rc::new(build_dataset(kind, steps, 0xF177));
        for epsilon in [0.1, 1.0, 10.0] {
            for interval in [1u64, 2, 5, 10, 20, 50, 100] {
                let threshold = (rate(kind) * interval as f64).max(1.0);
                let timer = UpdateStrategy::DpTimer { interval };
                for s in [timer, UpdateStrategy::DpAnt { threshold }] {
                    let config = IncShrinkConfig {
                        epsilon,
                        ..config(kind, s, 2)
                    };
                    let series = format!("{}/{kind}/eps{epsilon}", s.label());
                    cases.push(Case::new(&dataset, config, 0x77).at(interval as f64, series));
                }
            }
        }
    }
    figure(cases)
}

fn fig8(steps: u64) -> Vec<Section> {
    let kind = DatasetKind::Cpdb;
    let dataset = Rc::new(build_dataset(kind, steps, 0xF188));
    let mut cases = Vec::new();
    for omega in [2u64, 4, 8, 12, 16, 24, 32] {
        for s in dp_protocols(kind) {
            let config = IncShrinkConfig {
                truncation_bound: omega,
                contribution_budget: 2 * omega,
                ..config(kind, s, 2)
            };
            let case = Case::new(&dataset, config, 0x88);
            cases.push(case.at(omega as f64, format!("{}/CPDB", s.label())));
        }
    }
    figure(cases)
}

fn fig9(steps: u64) -> Vec<Section> {
    let mut cases = Vec::new();
    for kind in KINDS {
        let base = Rc::new(build_dataset(kind, steps, 0xF199));
        for scale in [0.5, 1.0, 2.0, 4.0] {
            let dataset = if scale == 1.0 {
                Rc::clone(&base)
            } else {
                Rc::new(scale_dataset(&base, scale, 0x99))
            };
            for s in dp_protocols(kind) {
                let case = Case::new(&dataset, config(kind, s, 5), 0x99);
                cases.push(case.at(scale, format!("{}/{kind}", s.label())));
            }
        }
    }
    figure(cases)
}

fn scaleout(steps: u64) -> Vec<Section> {
    let tpcds = build_dataset(DatasetKind::TpcDs, steps, 0xAB1E);
    // The non-co-partitioned scenario: TPC-ds arriving grouped by store id
    // (8 stores, half the returns at a different store than the purchase),
    // joined on item key — impossible without the shuffle phase.
    let store = to_store_partitioned(&tpcds, 8, 0.5, 0x570E);
    let cpdb = build_dataset(DatasetKind::Cpdb, steps, 0xAB1E);
    let co = RoutingPolicy::CoPartitioned;
    let scenarios = [
        ("TPC-ds", tpcds, co),
        ("CPDB", cpdb, co),
        ("TPC-ds/store", store, RoutingPolicy::shuffled()),
    ];
    scenarios
        .map(|(label, dataset, routing)| {
            let kind = dataset.kind;
            let interval = IncShrinkConfig::timer_interval_for_threshold(30.0, rate(kind));
            let config = config(kind, UpdateStrategy::DpTimer { interval }, 1);
            let single = Case {
                label: label.to_string(),
                routing,
                ..Case::new(&Rc::new(dataset), config, 0x7AB2)
            };
            let (routing, epsilon) = (routing.label(), config.epsilon);
            Section {
                heading: Some(format!(
                    "{label} · {routing} routing ({steps} upload epochs, sDPTimer T = {interval}, \
                     ε = {epsilon})"
                )),
                cases: [1, 2, 4, 8]
                    .map(|shards| Case {
                        shards,
                        ..single.clone()
                    })
                    .into(),
            }
        })
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_steps_reads_environment() {
        // The environment is shared by parallel tests; exercise the parser.
        assert_eq!(parse_steps(None), Ok(DEFAULT_STEPS));
        assert_eq!(parse_steps(Some("24")), Ok(24));
    }

    #[test]
    fn non_numeric_steps_are_an_error_naming_the_value() {
        for value in ["sixty", "", "0", "-3"] {
            let error = parse_steps(Some(value)).unwrap_err();
            assert!(error.contains(&format!("{value:?}")), "{error}");
        }
    }

    #[test]
    fn strategy_set_has_five_members_with_paper_intervals() {
        let tpcds = strategy_set(DatasetKind::TpcDs);
        assert_eq!(tpcds.len(), 5);
        // Paper Section 7 reports T = 10 for TPC-ds and T = 3 for CPDB.
        assert!(matches!(tpcds[0], UpdateStrategy::DpTimer { interval: 10 }));
        let cpdb = strategy_set(DatasetKind::Cpdb);
        assert!(matches!(cpdb[0], UpdateStrategy::DpTimer { interval: 3 }));
    }

    #[test]
    fn run_strategy_and_row_conversion() {
        let dataset = Rc::new(build_dataset(DatasetKind::TpcDs, 40, 1));
        let strategy = UpdateStrategy::DpTimer { interval: 11 };
        let case = Case::new(&dataset, config(DatasetKind::TpcDs, strategy, 2), 9);
        let run = Run::new(case.at(1.5, "sDPTimer/TPC-ds".into()));
        let field = |row: &Value, key: &str| match row {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).unwrap().1.clone(),
            _ => panic!("rows are objects"),
        };
        let row = RowShape::Comparison.row(&run, &[]);
        assert_eq!(field(&row, "dataset"), Value::String("TPC-ds".into()));
        assert_eq!(field(&row, "strategy"), Value::String("DP-Timer".into()));
        assert!(matches!(field(&row, "avg_qet_secs"), Value::Float(q) if q > 0.0));
        let point = RowShape::Point.row(&run, &[]);
        assert_eq!(
            field(&point, "series"),
            Value::String("sDPTimer/TPC-ds".into())
        );
        assert_eq!(field(&point, "x"), Value::Float(1.5));
        let scatter = RowShape::Scatter.row(&run, &[]);
        assert_eq!(field(&scatter, "x"), field(&scatter, "avg_l1_error"));
    }

    #[test]
    fn unknown_experiment_names_are_an_error_listing_the_valid_ones() {
        let picked = select(&["fig5".into(), "table2".into()]).unwrap();
        let names: Vec<&str> = picked.iter().map(|e| e.name()).collect();
        assert_eq!(names, ["fig5", "table2"]);
        assert_eq!(select(&[]).unwrap().len(), EXPERIMENTS.len());

        let error = select(&["fig10".into()]).err().unwrap();
        assert!(error.contains("\"fig10\""), "{error}");
        for experiment in &EXPERIMENTS {
            assert!(error.contains(experiment.name()), "{error}");
        }
    }
}
