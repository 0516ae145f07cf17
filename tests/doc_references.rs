//! The prose that tells people how to run the project must name only things
//! that exist: every `INCSHRINK_*` environment variable the README, the
//! architecture notes, the CI workflows or the verify recipe mention is read
//! somewhere in the Rust sources, and every `--bin <name>` they run is a bench
//! binary. A deleted knob or binary cannot linger in the docs.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The repository root (this test is wired in from `crates/suite`).
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The documents whose references are checked.
fn documents() -> Vec<PathBuf> {
    let root = root();
    let mut docs = vec![
        root.join("README.md"),
        root.join("docs/ARCHITECTURE.md"),
        root.join(".claude/skills/verify/SKILL.md"),
    ];
    let workflows = fs::read_dir(root.join(".github/workflows")).expect("workflow directory");
    docs.extend(
        workflows
            .map(|entry| entry.expect("workflow entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "yml")),
    );
    docs.retain(|path| path.exists());
    docs
}

/// Every maximal `INCSHRINK_[A-Z_]+` token in `text`.
fn env_vars(text: &str) -> BTreeSet<String> {
    const PREFIX: &str = "INCSHRINK_";
    let mut names = BTreeSet::new();
    let mut rest = text;
    while let Some(at) = rest.find(PREFIX) {
        let tail = &rest[at + PREFIX.len()..];
        let len = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
            .unwrap_or(tail.len());
        if len > 0 {
            names.insert(format!("{PREFIX}{}", &tail[..len]));
        }
        rest = &tail[len..];
    }
    names
}

/// Every binary name following a `--bin ` in `text`.
fn bins(text: &str) -> BTreeSet<String> {
    const FLAG: &str = "--bin ";
    let mut names = BTreeSet::new();
    let mut rest = text;
    while let Some(at) = rest.find(FLAG) {
        rest = &rest[at + FLAG.len()..];
        let len = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
            .unwrap_or(rest.len());
        if len > 0 {
            names.insert(rest[..len].to_string());
        }
    }
    names
}

/// The `.rs` files under `dir`, recursively, skipping build output, the
/// benchmark package (a separate crate with its own target directory) and this
/// file, whose own examples must not vouch for a name.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let skip = [
        root().join("crates/bench/src/bin/perf"),
        root().join("tests/doc_references.rs"),
    ]
    .map(|path| path.canonicalize().ok());
    for entry in fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("source entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name == "target" || skip.contains(&path.canonicalize().ok()) {
            continue;
        }
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn documented_env_vars_are_read_by_the_sources() {
    let mut sources = Vec::new();
    for dir in ["crates", "tests"] {
        rust_sources(&root().join(dir), &mut sources);
    }
    let known: BTreeSet<String> = sources.iter().flat_map(|p| env_vars(&read(p))).collect();
    let mut missing = Vec::new();
    for doc in documents() {
        for name in env_vars(&read(&doc)) {
            if !known.contains(&name) {
                missing.push(format!("{name} (named in {})", doc.display()));
            }
        }
    }
    assert!(missing.is_empty(), "no source reads {missing:#?}");
}

#[test]
fn documented_bins_exist() {
    let bin_dir = root().join("crates/bench/src/bin");
    let mut missing = Vec::new();
    for doc in documents() {
        for name in bins(&read(&doc)) {
            if !bin_dir.join(format!("{name}.rs")).is_file() && !bin_dir.join(&name).is_dir() {
                missing.push(format!("--bin {name} (named in {})", doc.display()));
            }
        }
    }
    assert!(missing.is_empty(), "no such bench binary: {missing:#?}");
}

#[test]
fn the_scanners_take_whole_names() {
    let text =
        "run `INCSHRINK_BENCH_STEPS=2 cargo run --bin fig4`, see INCSHRINK_* and --bin <name>";
    assert_eq!(
        env_vars(text).into_iter().collect::<Vec<_>>(),
        ["INCSHRINK_BENCH_STEPS"]
    );
    assert_eq!(bins(text).into_iter().collect::<Vec<_>>(), ["fig4"]);
}
