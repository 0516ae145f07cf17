//! Goldens for every experiment output: "equal to the digit" as a test.
//!
//! Each experiment runs at a small horizon in a fresh directory under
//! `CARGO_TARGET_TMPDIR`. Its `results/<name>.json` — the report envelope
//! without `meta` (the `INCSHRINK_*` knobs of the run) and each row without
//! `wall_secs` (the only host-clock field) — must equal `goldens/<name>.json`
//! byte for byte. fig4's canonical-trace fingerprint must equal
//! `goldens/fig4.fingerprint` in every party execution mode.
//!
//! On a mismatch the test writes the recomputed file beside the run and fails,
//! naming each differing field with the number of rows it differs in, and the
//! first differing row. A declared move is re-blessed by copying that file over
//! the golden, so it shows up as a reviewable diff.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDENS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/goldens");

/// The horizon every figure/table golden is recorded at.
const STEPS: &str = "24";

/// Run `exe` with `args` in a fresh directory named `label`, with the caller's
/// `INCSHRINK_*` variables cleared and `env` set; return the directory.
fn run(label: &str, exe: &str, args: &[&str], env: &[(&str, &str)]) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("goldens")
        .join(label);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let mut command = Command::new(exe);
    command.args(args).current_dir(&dir);
    for (key, _) in std::env::vars().filter(|(key, _)| key.starts_with("INCSHRINK_")) {
        command.env_remove(key);
    }
    let output = command
        .envs(env.iter().copied())
        .output()
        .expect("spawn the experiment binary");
    assert!(
        output.status.success(),
        "{label} exited with {}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    dir
}

fn entries(value: &mut Value) -> &mut Vec<(String, Value)> {
    match value {
        Value::Object(entries) => entries,
        other => panic!("expected a JSON object, found {other:?}"),
    }
}

/// The envelope in `text` without `meta`, its rows without `wall_secs`,
/// pretty-printed with a trailing newline.
fn strip(text: &str) -> String {
    let mut envelope = serde_json::from_str(text).expect("results file is JSON");
    let top = entries(&mut envelope);
    top.retain(|(key, _)| key != "meta");
    if let Some((_, Value::Array(rows))) = top.iter_mut().find(|(key, _)| key == "rows") {
        for row in rows {
            entries(row).retain(|(key, _)| key != "wall_secs");
        }
    }
    serde_json::to_string_pretty(&envelope).expect("render") + "\n"
}

fn rows(text: &str) -> Vec<Value> {
    match serde_json::from_str(text) {
        Ok(Value::Object(top)) => top
            .into_iter()
            .find_map(|(key, value)| match (key.as_str(), value) {
                ("rows", Value::Array(rows)) => Some(rows),
                _ => None,
            })
            .unwrap_or_default(),
        _ => Vec::new(),
    }
}

/// The value of field `name` in `row`, when `row` is an object that has it.
fn field<'a>(row: &'a Value, name: &str) -> Option<&'a Value> {
    match row {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

/// The field names of `row`, in order; none when it is not an object.
fn names(row: &Value) -> Vec<&str> {
    match row {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    }
}

/// Every field that differs between paired rows, with the number of rows it
/// differs in, in order of first appearance: `total_mpc_secs ×14, …`.
fn differing_fields(want: &[Value], got: &[Value]) -> String {
    let mut tally: Vec<(&str, usize)> = Vec::new();
    for (w, g) in want.iter().zip(got) {
        let mut fields = names(w);
        for name in names(g) {
            if !fields.contains(&name) {
                fields.push(name);
            }
        }
        for name in fields
            .into_iter()
            .filter(|name| field(w, name) != field(g, name))
        {
            match tally.iter_mut().find(|(seen, _)| *seen == name) {
                Some((_, count)) => *count += 1,
                None => tally.push((name, 1)),
            }
        }
    }
    let tally: Vec<String> = tally
        .iter()
        .map(|(name, n)| format!("{name} ×{n}"))
        .collect();
    tally.join(", ")
}

/// Where two stripped envelopes first part.
fn first_difference(golden: &str, run: &str) -> String {
    if golden.is_empty() {
        return "no golden recorded".to_string();
    }
    let (want, got) = (rows(golden), rows(run));
    match want.iter().zip(&got).position(|(w, g)| w != g) {
        Some(i) => format!(
            "fields that differ: {}\nrow {i} differs:\n  golden: {}\n  run:    {}",
            differing_fields(&want, &got),
            serde_json::to_string(&want[i]).expect("render"),
            serde_json::to_string(&got[i]).expect("render")
        ),
        None if want.len() != got.len() => {
            format!("golden has {} rows, the run {}", want.len(), got.len())
        }
        None => "the rows are equal; the envelope header differs".to_string(),
    }
}

/// Compare `dir/results/<name>.json` with its golden; on a mismatch write the
/// recomputed file to `dir/<name>.json` and fail.
fn check(name: &str, dir: &Path) {
    let text = std::fs::read_to_string(dir.join("results").join(format!("{name}.json")))
        .unwrap_or_else(|e| panic!("{name} wrote no results file: {e}"));
    let run = strip(&text);
    let golden_path = Path::new(GOLDENS).join(format!("{name}.json"));
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if run != golden {
        let recomputed = dir.join(format!("{name}.json"));
        std::fs::write(&recomputed, &run).expect("write the recomputed file");
        panic!(
            "{name} does not match its golden: {}\nrecomputed: {}\nto re-bless: cp {} {}",
            first_difference(&golden, &run),
            recomputed.display(),
            recomputed.display(),
            golden_path.display()
        );
    }
}

/// Run one `sweep` experiment at the golden horizon and check its output.
fn sweep(name: &str) {
    let dir = run(
        name,
        env!("CARGO_BIN_EXE_sweep"),
        &[name],
        &[("INCSHRINK_BENCH_STEPS", STEPS)],
    );
    check(name, &dir);
}

#[test]
fn table2_matches_golden() {
    sweep("table2");
}

#[test]
fn fig4_matches_golden() {
    sweep("fig4");
}

#[test]
fn fig5_matches_golden() {
    sweep("fig5");
}

#[test]
fn fig6_matches_golden() {
    sweep("fig6");
}

#[test]
fn fig7_matches_golden() {
    sweep("fig7");
}

#[test]
fn fig8_matches_golden() {
    sweep("fig8");
}

#[test]
fn fig9_matches_golden() {
    sweep("fig9");
}

#[test]
fn scaleout_matches_golden() {
    sweep("scaleout");
}

#[test]
fn query_mix_matches_golden() {
    let dir = run(
        "query_mix",
        env!("CARGO_BIN_EXE_query_mix"),
        &[],
        &[("INCSHRINK_BENCH_STEPS", STEPS)],
    );
    check("query_mix", &dir);
}

#[test]
fn elastic_matches_golden() {
    let dir = run(
        "elastic",
        env!("CARGO_BIN_EXE_elastic"),
        &[],
        &[
            ("INCSHRINK_BENCH_STEPS", "16"),
            ("INCSHRINK_ELASTIC_SMOKE", "1"),
        ],
    );
    check("elastic", &dir);
    // What the golden must keep saying, whatever a re-bless moves: the smoke
    // profile plans a split, and every run's ε-ledger reconciles.
    let golden = std::fs::read_to_string(Path::new(GOLDENS).join("elastic.json")).unwrap();
    let rows = rows(&golden);
    assert!(rows
        .iter()
        .all(|row| field(row, "ledger_reconciles") == Some(&Value::Bool(true))));
    assert!(rows
        .iter()
        .any(|row| matches!(field(row, "splits"), Some(&Value::UInt(n)) if n >= 1)));
}

#[test]
fn fig4_trace_fingerprint_is_equal_in_every_party_mode() {
    let golden_path = Path::new(GOLDENS).join("fig4.fingerprint");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    for mode in ["inprocess", "actor", "tcp"] {
        let label = format!("fig4-trace-{mode}");
        let trace = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("goldens")
            .join(&label)
            .join("trace.jsonl");
        let dir = run(
            &label,
            env!("CARGO_BIN_EXE_sweep"),
            &["fig4"],
            &[
                ("INCSHRINK_BENCH_STEPS", STEPS),
                ("INCSHRINK_PARTY_MODE", mode),
                ("INCSHRINK_TRACE", trace.to_str().expect("UTF-8 path")),
            ],
        );
        check("fig4", &dir);
        // trace_dump exits 0 only when every line parses and the leakage
        // audit passes.
        let dump = Command::new(env!("CARGO_BIN_EXE_trace_dump"))
            .arg(&trace)
            .output()
            .expect("spawn trace_dump");
        let stdout = String::from_utf8_lossy(&dump.stdout);
        assert!(
            dump.status.success(),
            "trace_dump rejected the {mode} trace:\n{stdout}\n{}",
            String::from_utf8_lossy(&dump.stderr)
        );
        let fingerprint = stdout
            .lines()
            .find_map(|line| line.strip_prefix("canonical-trace-fingerprint: "))
            .expect("trace_dump prints the fingerprint");
        if fingerprint != golden.trim() {
            let recomputed = dir.join("fig4.fingerprint");
            std::fs::write(&recomputed, format!("{fingerprint}\n")).expect("write");
            panic!(
                "fig4's canonical-trace fingerprint under {mode} is {fingerprint}, the golden \
                 {:?}\nto re-bless: cp {} {}",
                golden.trim(),
                recomputed.display(),
                golden_path.display()
            );
        }
    }
}
