//! Console and file reporters for the experiment binaries.

use serde::Serialize;
use std::io::Write;
use std::path::Path;

/// Print a fixed-width table from header + rows of strings.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", joined.join("  "));
    };
    line(&headers.iter().map(|h| (*h).to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Print rows as CSV to stdout (header first).
pub(crate) fn print_csv(headers: &[&str], rows: &[Vec<String>]) {
    println!("{}", headers.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
}

/// Wrap a binary's result rows in the shared report envelope every experiment
/// binary writes: the binary name, a schema version, run metadata (the sorted
/// `INCSHRINK_*` environment knobs that shaped the run), and the payload under a
/// `"rows"` key. One envelope shape across all binaries means downstream tooling
/// parses every `results/*.json` the same way.
#[must_use]
pub(crate) fn envelope<T: Serialize + ?Sized>(bin: &str, rows: &T) -> serde_json::Value {
    use serde::Value;
    let mut meta: Vec<(String, Value)> = std::env::vars()
        .filter(|(key, _)| key.starts_with("INCSHRINK_"))
        .map(|(key, value)| (key, Value::String(value)))
        .collect();
    meta.sort_by(|a, b| a.0.cmp(&b.0));
    Value::Object(vec![
        ("bin".to_string(), Value::String(bin.to_string())),
        ("schema_version".to_string(), Value::UInt(1)),
        ("meta".to_string(), Value::Object(meta)),
        ("rows".to_string(), rows.serialize()),
    ])
}

/// Serialize a result object as JSON under `results/<name>.json`, wrapped in the
/// shared report envelope — `bin`, `schema_version`, `meta` (the run's
/// `INCSHRINK_*` variables) and `rows` (best effort: errors are reported to
/// stderr but do not abort the experiment).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        incshrink_telemetry::log_error!("warning: could not create results directory: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    let wrapped = envelope(name, value);
    match std::fs::File::create(&path).and_then(|mut f| {
        let text = serde_json::to_string_pretty(&wrapped).unwrap_or_else(|_| "{}".into());
        f.write_all(text.as_bytes())
    }) {
        Ok(()) => incshrink_telemetry::log_info!("wrote {}", path.display()),
        Err(e) => {
            incshrink_telemetry::log_error!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Format a float with a sensible number of digits for table output.
#[must_use]
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Format an improvement factor ("123x" or "N/A" for non-positive baselines).
#[must_use]
pub(crate) fn fmt_improvement(baseline: f64, value: f64) -> String {
    if value <= 0.0 || baseline <= 0.0 {
        "N/A".to_string()
    } else {
        format!("{:.0}x", baseline / value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(123.456), "123.5");
        assert_eq!(fmt(3.24159), "3.24");
        assert_eq!(fmt(0.01234), "0.0123");
        assert_eq!(fmt_improvement(100.0, 1.0), "100x");
        assert_eq!(fmt_improvement(100.0, 0.0), "N/A");
        assert_eq!(fmt_improvement(0.0, 1.0), "N/A");
    }

    #[test]
    fn envelope_nests_rows_under_a_stable_shape() {
        let rows = vec![1u64, 2, 3];
        let value = envelope("fig4", &rows);
        let serde::Value::Object(entries) = value else {
            panic!("envelope must be an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bin", "schema_version", "meta", "rows"]);
        assert!(matches!(&entries[0].1, serde::Value::String(s) if s == "fig4"));
        assert!(matches!(entries[1].1, serde::Value::UInt(1)));
        assert!(matches!(&entries[3].1, serde::Value::Array(a) if a.len() == 3));
        // The envelope itself must survive a serialize → parse round trip.
        let text = serde_json::to_string(&envelope("fig4", &rows)).unwrap();
        assert!(serde_json::from_str(&text).is_ok());
    }

    #[test]
    fn table_and_csv_do_not_panic() {
        let rows = vec![
            vec!["a".to_string(), "1.0".to_string()],
            vec!["bb".to_string(), "2.0".to_string()],
        ];
        print_table(&["name", "value"], &rows);
        print_csv(&["name", "value"], &rows);
    }
}
