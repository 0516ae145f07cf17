//! What the benchmark declares: its workloads and every metric name, unit and
//! bound. `BENCHMARK.json` at the repository root repeats these tables for the
//! driver; `perf --print-benchmark-json` writes it from them and a test at the
//! bottom keeps the file equal to them.

use serde_json::Value;

/// One benchmark workload and why it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// One declared metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen; per-layer metrics carry none.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub bound: Option<f64>,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "ingest_timer_tpcds",
        why: "single pair, TPC-ds, sDPTimer T=10, inprocess: maintenance-dominated (upload building, Transform, Shrink's cache sort); cluster and party transport do no work",
    },
    WorkloadSpec {
        name: "ingest_timer_cpdb",
        why: "single pair, CPDB (public right relation, omega=10, b=20), sDPTimer T=3: ten times wider padded deltas and a sync every third step make it cache-sort-bound; no right-relation uploads",
    },
    WorkloadSpec {
        name: "cluster_elastic_s2",
        why: "2 shard threads + broker, store-partitioned Zipf-1.2 TPC-ds, shuffled routing, elastic: the only workload that runs cluster runtime, shuffle, elastic and executor",
    },
    WorkloadSpec {
        name: "analyst_reads_tpcds",
        why: "view grown in set-up, then each step issues count, filtered count, filtered sum and group-count: the same layers used for reads, so a write-side gain that slows scans shows",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// The end-to-end set: what an owner, an analyst or an operator of the system
/// sees. One value per workload, none of them ever zero. Each bound is about
/// three times the widest spread (inter-quartile range ÷ median over ten seeds)
/// the metric showed on any workload — see README.md, "Steadiness".
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("uploads_per_s", "1/s", "higher", 0.25),
    e2e("step_p50_ms", "ms", "lower", 0.25),
    e2e("step_sync_p50_ms", "ms", "lower", 0.25),
    e2e("query_p50_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("modeled_qet_ms", "ms", "lower", 0.25),
    e2e("modeled_mpc_s", "s", "lower", 0.1),
    e2e("accuracy", "ratio", "higher", 0.05),
    e2e("view_mb", "MB", "lower", 0.25),
    e2e("ok_share", "ratio", "higher", 0.001),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The per-layer set, layer = crate/module name. Three sources: timings taken
/// around the public calls of a workload, direct probes of one operator on a
/// pinned input (`probes.rs`), and the spans the program already emits
/// (`trace.rs`). A layer a workload never enters reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    // -- timed from outside, per workload
    layer("workload.generate_s", "s", "lower"),
    layer("core.pipeline_new_s", "s", "lower"),
    layer("host.speed_index", "ratio", "lower"),
    layer("core.timed_wall_s", "s", "lower"),
    layer("core.timed_accounted_share", "ratio", "higher"),
    layer("storage.upload_batches_s", "s", "lower"),
    layer("storage.uploads", "count", "higher"),
    layer("core.advance_s", "s", "lower"),
    layer("core.transform_s", "s", "lower"),
    layer("core.transform.secure_compares", "count", "lower"),
    layer("core.shrink.syncs", "count", "lower"),
    layer("core.shrink.flushes", "count", "lower"),
    layer("storage.cache_len_peak", "count", "lower"),
    layer("core.step_p99_ms", "ms", "lower"),
    layer("core.step_tail_ms", "ms", "lower"),
    layer("core.step_max_ms", "ms", "lower"),
    layer("core.query_p99_ms", "ms", "lower"),
    layer("core.query_tail_ms", "ms", "lower"),
    layer("core.query_s", "s", "lower"),
    layer("core.query.count_p50_ms", "ms", "lower"),
    layer("core.query.filtered_count_p50_ms", "ms", "lower"),
    layer("core.query.filtered_sum_p50_ms", "ms", "lower"),
    layer("core.query.group_count_p50_ms", "ms", "lower"),
    layer("core.view_len", "count", "lower"),
    layer("core.view_real_share", "ratio", "higher"),
    layer("core.rel_error", "ratio", "lower"),
    layer("core.truncation_losses", "count", "lower"),
    layer("core.model_over_host.transform", "ratio", "lower"),
    layer("core.model_over_host.shrink", "ratio", "lower"),
    layer("core.model_over_host.query", "ratio", "lower"),
    layer("core.nm_speedup_modeled", "ratio", "higher"),
    layer("cluster.runtime.step_p99_ms", "ms", "lower"),
    layer("cluster.query_mean_ms", "ms", "lower"),
    layer("cluster.shuffle_s", "s", "lower"),
    layer("cluster.shuffle.overflows", "count", "lower"),
    layer("cluster.shuffle.padded_dummy_bytes", "B", "lower"),
    layer("cluster.elastic.splits", "count", "lower"),
    layer("cluster.elastic.merges", "count", "lower"),
    layer("cluster.elastic.migrated_records", "count", "lower"),
    layer("cluster.elastic.shipped_records", "count", "lower"),
    layer("cluster.threads_joined", "count", "lower"),
    // -- layer probes
    layer("secretshare.lt_lane_ns_per_elem", "ns", "lower"),
    layer("secretshare.mux_lane_ns_per_elem", "ns", "lower"),
    layer("secretshare.cswap_lane_ns_per_elem", "ns", "lower"),
    layer("secretshare.from_pair_ns_per_row", "ns", "lower"),
    layer("secretshare.share_records_ns_per_row", "ns", "lower"),
    layer("oblivious.sort_by_field_us.n1024", "us", "lower"),
    layer("oblivious.sort_by_field_us.n4096", "us", "lower"),
    layer("oblivious.sort_by_field_us.n16384", "us", "lower"),
    layer("oblivious.cache_read_us.n4096", "us", "lower"),
    layer("oblivious.cache_read_us.n16384", "us", "lower"),
    layer("oblivious.filter_us.n4096", "us", "lower"),
    layer("oblivious.count_us.n4096", "us", "lower"),
    layer("oblivious.group_count16_us.n4096", "us", "lower"),
    layer("oblivious.nlj_us.d32xn4096", "us", "lower"),
    layer("oblivious.smj_delta_us.d32xn4096", "us", "lower"),
    layer("oblivious.shuffle_route_us.n1024", "us", "lower"),
    layer("mpc.roundtrip_us.inprocess", "us", "lower"),
    layer("mpc.roundtrip_us.actor", "us", "lower"),
    layer("mpc.roundtrip_us.tcp", "us", "lower"),
    layer("dp.joint_laplace_us.inprocess", "us", "lower"),
    layer("dp.joint_laplace_us.tcp", "us", "lower"),
    // -- traced pass
    layer("core.shrink_s", "s", "lower"),
    layer("core.transform_span_s", "s", "lower"),
    layer("core.pipeline_step_self_s", "s", "lower"),
    layer("oblivious.join_nested_loop_s", "s", "lower"),
    layer("oblivious.join_sort_merge_s", "s", "lower"),
    layer("cluster.broker_route_s", "s", "lower"),
    layer("cluster.idle_s", "s", "lower"),
    layer("cluster.query_merge_s", "s", "lower"),
    layer("cluster.runtime_step_self_s", "s", "lower"),
    layer("mpc.bytes_communicated", "B", "lower"),
    layer("mpc.rounds", "count", "lower"),
    layer("dp.epsilon_spent", "eps", "lower"),
    layer("telemetry.attributed_share", "ratio", "higher"),
    layer("telemetry.events", "count", "lower"),
    layer("telemetry.overhead_ratio", "ratio", "lower"),
    layer("workspace.src_loc", "lines", "lower"),
];

/// How the driver invokes the benchmark; it appends `--workload <name> --seed
/// <n> --seconds <run_seconds> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/perf/Cargo.toml",
    "--",
];
/// The directory that holds the benchmark and nothing else.
pub const PATHS: &[&str] = &["crates/bench/src/bin/perf"];
/// Seconds of timed region one run accumulates.
pub const RUN_SECONDS: u64 = 10;

/// A JSON object from `(key, value)` pairs, in order.
pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The metric table a pass reports: per-layer when traced, end-to-end when not.
pub fn declared(traced: bool) -> &'static [MetricSpec] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// `BENCHMARK.json` as declared by the tables above (`perf --print-benchmark-json`).
pub fn benchmark_json() -> Value {
    let text = |s: &str| Value::String(s.to_string());
    let list = |items: &[&str]| Value::Array(items.iter().map(|s| text(s)).collect());
    let metrics = |table: &[MetricSpec]| {
        let rows = table.iter().map(|m| {
            let mut row = vec![
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better)),
            ];
            row.extend(m.bound.map(|b| ("bound", Value::Float(b))));
            object(row)
        });
        Value::Array(rows.collect())
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]));
    object(vec![
        ("command", list(COMMAND)),
        ("paths", list(PATHS)),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        ("workloads", Value::Array(workloads.collect())),
        ("end_to_end", metrics(END_TO_END)),
        ("per_layer", metrics(PER_LAYER)),
    ])
}

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Look an end-to-end metric up by name.
    fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    /// The contract's naming rule: starts with a letter or digit, then letters,
    /// digits, `_`, `.` and `-`, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The contract's unit rule: letters, digits, `_`, `/`, `%`, `.`, `-`, at most 16.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_and_unit_rules() {
        for ok in ["a", "setup_s", "core.query.count_p50_ms", "9-x", "A.b-c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".a", "_a", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "%", "MB", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "seventeen_chars__"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn declared_sets_respect_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
    }

    /// `BENCHMARK.json` sits at the repository root, above whichever package
    /// (`crates/bench` or this directory's own) compiled these tests.
    #[test]
    fn benchmark_json_is_what_the_tables_declare() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|p| p.is_file())
            .expect("BENCHMARK.json above the manifest directory");
        let on_disk = std::fs::read_to_string(path).expect("readable");
        let declared = serde_json::to_string_pretty(&benchmark_json()).expect("total");
        assert_eq!(
            on_disk.trim_end(),
            declared,
            "regenerate with --print-benchmark-json"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn command_and_paths_respect_the_contract() {
        assert!(COMMAND.len() <= 32 && (1..=16).contains(&PATHS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for arg in COMMAND {
            assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        }
        for path in PATHS {
            assert!(path.len() <= 200 && !path.starts_with('/') && !path.contains(".."));
            assert!(path
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/')));
        }
    }
}
