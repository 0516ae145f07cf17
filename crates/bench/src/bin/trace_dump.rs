//! Inspect a recorded telemetry trace: validate every JSONL line, render the
//! phase profile and per-step host timings, summarize the ε-ledger, and run the
//! config-free structural leakage audit.
//!
//! ```text
//! INCSHRINK_TRACE=trace.jsonl cargo run -p incshrink-bench --bin fig4
//! cargo run -p incshrink-bench --bin trace_dump trace.jsonl
//! cargo run -p incshrink-bench --bin trace_dump -- --diff a.jsonl b.jsonl
//! ```
//!
//! The trace path comes from the first CLI argument, falling back to
//! `INCSHRINK_TRACE`. Exits non-zero when any line fails to parse or the
//! structural audit ([`incshrink_telemetry::audit::check_trace`] with no
//! config-derived expectations) finds a violation — which is what lets CI treat
//! a smoke trace as a machine-checked artifact rather than an opaque log.
//!
//! `--diff` compares two traces' canonical observable traces
//! ([`incshrink_telemetry::audit::canonical_observable_trace`], the events the
//! fingerprint digests): it prints the index and both sides of the first event
//! that differs and exits 1, or exits 0 when the two are equal.

use incshrink_telemetry::audit::{
    canonical_observable_trace, canonical_trace_fingerprint, check_trace, Expectations,
    LedgerSummary,
};
use incshrink_telemetry::{per_step_host_secs, Event, PhaseProfile};

fn trace_path() -> Option<String> {
    std::env::args().nth(1).or_else(|| {
        std::env::var("INCSHRINK_TRACE")
            .ok()
            .map(|p| p.trim().to_string())
            .filter(|p| !p.is_empty())
    })
}

/// Read and parse a JSONL trace, exiting 1 on an unreadable file or line.
fn load(path: &str) -> Vec<Event> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("FAIL: could not read trace {path}: {e}");
            std::process::exit(1);
        }
    };

    let mut events = Vec::new();
    let mut bad_lines = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Event::from_json_line(line) {
            Ok(event) => events.push(event),
            Err(e) => {
                bad_lines += 1;
                eprintln!("FAIL: line {} does not parse: {e}", lineno + 1);
            }
        }
    }
    println!("trace {path}: {} events", events.len());
    if bad_lines > 0 {
        eprintln!("FAIL: {bad_lines} unparseable line(s)");
        std::process::exit(1);
    }
    events
}

/// Print the first divergence of two traces' canonical observable traces.
fn diff(a: &str, b: &str) -> ! {
    let canonical = |path| canonical_observable_trace(&load(path));
    let (a, b) = (canonical(a), canonical(b));
    let shorter = a.len().min(b.len());
    let first = a.iter().zip(&b).position(|(x, y)| x != y);
    let Some(index) = first.or((a.len() != b.len()).then_some(shorter)) else {
        println!("canonical traces equal: {} events", a.len());
        std::process::exit(0);
    };
    let show = |event: Option<&Event>| match event {
        Some(event) => serde_json::to_string(event).expect("events serialize infallibly"),
        None => "(end of trace)".to_string(),
    };
    println!("first divergence at canonical event {index}:");
    println!("  a: {}", show(a.get(index)));
    println!("  b: {}", show(b.get(index)));
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--diff") {
        let [_, _, a, b] = args.as_slice() else {
            eprintln!("usage: trace_dump --diff <a.jsonl> <b.jsonl>");
            std::process::exit(2);
        };
        diff(a, b);
    }
    let Some(path) = trace_path() else {
        eprintln!("usage: trace_dump <trace.jsonl>   (or set INCSHRINK_TRACE)");
        std::process::exit(2);
    };
    let events = load(&path);

    let profile = PhaseProfile::from_events(&events);
    println!("\n{}", profile.render());

    let per_step = per_step_host_secs(&events);
    if !per_step.is_empty() {
        println!("per-step host time (top 10 by total):");
        let mut totals: Vec<(u64, f64)> = per_step
            .iter()
            .map(|(step, phases)| (*step, phases.iter().map(|(_, s)| s).sum()))
            .collect();
        totals.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (step, secs) in totals.iter().take(10) {
            if *step == u64::MAX {
                println!("  (unstamped)  {secs:.6}s");
            } else {
                println!("  step {step:>6}  {secs:.6}s");
            }
        }
    }

    // Where the secure cache merged runs: a `shrink` span stamps how many merges its
    // cuts performed and over how many rows, which tells a merge burst from a sort.
    let mut merging: Vec<(u64, u64, Option<u64>, u64)> = events
        .iter()
        .filter_map(|event| match event {
            Event::Span(span) if span.name == "shrink" => span.cost.map(|cost| (span, cost)),
            _ => None,
        })
        .filter(|(_, cost)| cost.merges > 0)
        .map(|(span, cost)| (cost.merged_rows, cost.merges, span.step, span.host_nanos))
        .collect();
    if !merging.is_empty() {
        merging.sort_by(|a, b| b.cmp(a));
        println!(
            "\ncache run merges: {} over {} rows in {} shrink span(s); largest:",
            merging.iter().map(|m| m.1).sum::<u64>(),
            merging.iter().map(|m| m.0).sum::<u64>(),
            merging.len()
        );
        for (rows, merges, step, host_nanos) in merging.iter().take(5) {
            let step = step.map_or("(unstamped)".to_string(), |s| format!("step {s:>6}"));
            println!(
                "  {step}  {merges} merge(s), {rows} rows, {:.6}s",
                *host_nanos as f64 / 1e9
            );
        }
    }

    // One grep-able line per trace: runs that replayed the same semantic
    // trajectory (same observables + ε-ledger, any schedule, any party
    // execution mode) print the same fingerprint — CI compares these lines
    // instead of diffing whole traces.
    println!(
        "canonical-trace-fingerprint: {:016x}",
        canonical_trace_fingerprint(&events)
    );

    let ledger = LedgerSummary::from_events(&events);
    println!(
        "\nε-ledger: {} entries, max ε {}",
        ledger.entries, ledger.max_epsilon
    );
    for m in &ledger.mechanisms {
        println!(
            "  {:<16} {:>6} invocations, Σε {:.6}, max ε {:.6}",
            m.mechanism, m.invocations, m.total_epsilon, m.max_epsilon
        );
    }

    match check_trace(&events, &Expectations::default()) {
        Ok(report) => println!(
            "\nleakage audit passed: {} observable(s), {} ledger entr(ies), {} span(s)",
            report.observes_checked, report.ledger_entries, report.spans_seen
        ),
        Err(e) => {
            eprintln!("\nFAIL: {e}");
            std::process::exit(1);
        }
    }
}
