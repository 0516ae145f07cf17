//! The prose that tells people how to run the project must name only things
//! that exist: every `INCSHRINK_*` environment variable the README, the
//! architecture notes, the CI workflows or the verify recipe mention is read
//! somewhere in the Rust sources, every `--bin <name>` they run is a bench
//! binary, every `--example <name>` is a registered example, and every
//! back-ticked Rust path (`a::b`) or bare CamelCase name (`Query`) in the prose
//! names declared identifiers. A deleted knob, binary, example or item cannot
//! linger in the docs.

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

/// Every name following `flag` (e.g. `--bin`) and one space in `text`.
fn flag_values(text: &str, flag: &str) -> BTreeSet<String> {
    let flag = format!("{flag} ");
    let mut names = BTreeSet::new();
    let mut rest = text;
    while let Some(at) = rest.find(&flag) {
        rest = &rest[at + flag.len()..];
        let len = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
            .unwrap_or(rest.len());
        if len > 0 {
            names.insert(rest[..len].to_string());
        }
    }
    names
}

/// `text` with every fenced code block removed: shell recipes are not prose.
fn strip_code_fences(text: &str) -> String {
    let mut out = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Is `c` part of a Rust identifier?
fn ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The Rust paths (`a::b`, `a::{b, c}`) inside the back-ticked spans of
/// `text`, each as the list of identifiers it names. A file path in front of
/// a path (`crates/core/src/shrink.rs::synchronize`) contributes its module.
fn rust_paths(text: &str) -> Vec<Vec<String>> {
    let mut paths = Vec::new();
    for span in text.split('`').skip(1).step_by(2) {
        let span = span.replace(".rs::", "::");
        let chars: Vec<char> = span.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            if !(chars[i].is_ascii_alphabetic() || chars[i] == '_')
                || (i > 0 && ident_char(chars[i - 1]))
            {
                i += 1;
                continue;
            }
            // Walk `ident (:: (ident | {ident, ...}))*` from here.
            let mut idents = Vec::new();
            let mut j = i;
            loop {
                let start = j;
                while j < chars.len() && ident_char(chars[j]) {
                    j += 1;
                }
                idents.push(chars[start..j].iter().collect::<String>());
                if chars.get(j..j + 2) != Some(&[':', ':']) {
                    break;
                }
                j += 2;
                if chars.get(j) == Some(&'{') {
                    let close = (j..chars.len())
                        .find(|&k| chars[k] == '}')
                        .unwrap_or(chars.len());
                    let group: String = chars[j + 1..close].iter().collect();
                    idents.extend(
                        group
                            .split(|c: char| !ident_char(c))
                            .filter(|s| !s.is_empty())
                            .map(str::to_string),
                    );
                    j = close + 1;
                    break;
                }
                if !chars
                    .get(j)
                    .is_some_and(|&c| c.is_ascii_alphabetic() || c == '_')
                {
                    break;
                }
            }
            if idents.len() > 1 {
                paths.push(idents);
            }
            i = j.max(i + 1);
        }
    }
    paths
}

/// The back-ticked spans of `text` that are one bare CamelCase identifier
/// (`Query`, `SharedColumnsPair`): an upper-case first letter, a lower-case
/// letter somewhere, nothing but identifier characters.
fn bare_type_names(text: &str) -> BTreeSet<String> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| {
            span.starts_with(|c: char| c.is_ascii_uppercase())
                && span.contains(|c: char| c.is_ascii_lowercase())
                && span.chars().all(ident_char)
        })
        .map(str::to_string)
        .collect()
}

/// Every identifier the sources declare: items, fields, enum variants, module
/// files and directories, and the crates' package names.
fn declared_identifiers(sources: &[PathBuf]) -> BTreeSet<String> {
    const ITEM_KEYWORDS: [&str; 9] = [
        "fn",
        "struct",
        "enum",
        "trait",
        "type",
        "const",
        "static",
        "mod",
        "macro_rules!",
    ];
    let mut names = BTreeSet::new();
    for path in sources {
        for part in path.components() {
            let part = part.as_os_str().to_string_lossy();
            names.insert(part.trim_end_matches(".rs").to_string());
        }
        for line in read(path).lines() {
            let words: Vec<&str> = line
                .split(|c: char| !(ident_char(c) || c == '!'))
                .filter(|w| !w.is_empty())
                .collect();
            for pair in words.windows(2) {
                if ITEM_KEYWORDS.contains(&pair[0]) {
                    names.insert(pair[1].trim_end_matches('!').to_string());
                }
            }
            // A field (`name: Type`) or an enum variant (`Name`, `Name(..)`,
            // `Name { .. }`) opens its own line.
            let line = line.trim_start().trim_start_matches("pub ");
            let head: String = line.chars().take_while(|&c| ident_char(c)).collect();
            let after = line[head.len()..].trim_start();
            let field = after.starts_with(':') && !after.starts_with("::");
            let variant = head.starts_with(|c: char| c.is_ascii_uppercase())
                && (after.is_empty() || after.starts_with(['(', '{', ',', '=']));
            if !head.is_empty() && (field || variant) {
                names.insert(head);
            }
        }
    }
    for manifest in fs::read_dir(root().join("crates")).expect("crates directory") {
        let manifest = manifest.expect("crate entry").path().join("Cargo.toml");
        if let Some(name) = fs::read_to_string(manifest).ok().and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("name = "))?.to_string();
            Some(
                line.trim_start_matches("name = ")
                    .trim_matches('"')
                    .replace('-', "_"),
            )
        }) {
            names.insert(name);
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
        for name in flag_values(&read(&doc), "--bin") {
            if !bin_dir.join(format!("{name}.rs")).is_file() && !bin_dir.join(&name).is_dir() {
                missing.push(format!("--bin {name} (named in {})", doc.display()));
            }
        }
    }
    assert!(missing.is_empty(), "no such bench binary: {missing:#?}");
}

/// The `[[example]]` targets of the suite manifest, as `(name, path)` with the
/// path resolved against the manifest's directory.
fn registered_examples() -> Vec<(String, PathBuf)> {
    let suite = root().join("crates/suite");
    let manifest = read(&suite.join("Cargo.toml"));
    let value = |block: &str, key: &str| {
        let line = block
            .lines()
            .find(|l| l.starts_with(&format!("{key} = ")))?;
        Some(line.split('"').nth(1)?.to_string())
    };
    manifest
        .split("[[")
        .filter(|block| block.starts_with("example]]"))
        .filter_map(|block| Some((value(block, "name")?, suite.join(value(block, "path")?))))
        .collect()
}

#[test]
fn documented_examples_are_registered_and_exist() {
    let examples = registered_examples();
    let mut missing = Vec::new();
    for doc in documents() {
        for name in flag_values(&read(&doc), "--example") {
            match examples.iter().find(|(n, _)| *n == name) {
                Some((_, path)) if path.is_file() => {}
                Some((_, path)) => missing.push(format!("--example {name}: no {}", path.display())),
                None => missing.push(format!("--example {name} (named in {})", doc.display())),
            }
        }
    }
    assert!(missing.is_empty(), "no such example: {missing:#?}");
}

/// Standard-library names the prose mentions bare.
const STD_TYPES: [&str; 3] = ["PartialEq", "Vec", "VecDeque"];

#[test]
fn documented_rust_paths_name_declared_identifiers() {
    let mut sources = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        rust_sources(&root().join(dir), &mut sources);
    }
    let declared = declared_identifiers(&sources);
    let prose = [
        "README.md",
        "docs/ARCHITECTURE.md",
        ".claude/skills/verify/SKILL.md",
    ];
    let mut missing = Vec::new();
    for doc in prose
        .map(|path| root().join(path))
        .iter()
        .filter(|p| p.exists())
    {
        let text = strip_code_fences(&read(doc));
        let bare = bare_type_names(&text).into_iter().map(|name| vec![name]);
        for path in rust_paths(&text).into_iter().chain(bare) {
            // The standard library is declared elsewhere.
            if path[0] == "std" || STD_TYPES.contains(&path[0].as_str()) {
                continue;
            }
            let unknown: Vec<&String> = path.iter().filter(|id| !declared.contains(*id)).collect();
            if !unknown.is_empty() {
                missing.push(format!(
                    "{} names {unknown:?} (in {})",
                    path.join("::"),
                    doc.display()
                ));
            }
        }
    }
    assert!(missing.is_empty(), "undeclared identifiers: {missing:#?}");
}

#[test]
fn the_scanners_take_whole_names() {
    let text =
        "run `INCSHRINK_BENCH_STEPS=2 cargo run --bin fig4`, see INCSHRINK_* and --bin <name>; \
         `cargo run --example quickstart` or --example \"$name\"";
    assert_eq!(
        env_vars(text).into_iter().collect::<Vec<_>>(),
        ["INCSHRINK_BENCH_STEPS"]
    );
    assert_eq!(
        flag_values(text, "--bin").into_iter().collect::<Vec<_>>(),
        ["fig4"]
    );
    assert_eq!(
        flag_values(text, "--example")
            .into_iter()
            .collect::<Vec<_>>(),
        ["quickstart"]
    );
    let text = "`a::b` and `x::{y, z}` in `crates/core/src/shrink.rs::sync`; not c::d\n\
                ```\nlet e = f::g();\n```\n";
    assert_eq!(
        rust_paths(&strip_code_fences(text)),
        [vec!["a", "b"], vec!["x", "y", "z"], vec!["shrink", "sync"]]
    );
    let text = "`QueryEngine` and `Vec<u64>`, `ALL_CAPS`, `isView`, `Query::count`, \
                `B` and `PartialEq`; not Unticked";
    assert_eq!(
        bare_type_names(text).into_iter().collect::<Vec<_>>(),
        ["PartialEq", "QueryEngine"]
    );
}
