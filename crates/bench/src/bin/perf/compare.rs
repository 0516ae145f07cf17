//! `perf --compare <a.json> <b.json>`: for every workload × end-to-end metric of
//! two all-workloads documents, both values, the ratio with its base, the bound
//! and a verdict. `a` is the base (the parent commit), `b` the change.

use crate::spec;
use crate::stats::quartile_spread;
use serde_json::Value;
use std::process::ExitCode;

/// Member `key` of a JSON object.
pub fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// One metric of one run: the reported median and the per-repetition values
/// behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub values: Vec<f64>,
}

impl Sample {
    fn min(&self) -> f64 {
        self.values.iter().copied().fold(self.value, f64::min)
    }

    fn max(&self) -> f64 {
        self.values.iter().copied().fold(self.value, f64::max)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The repetitions scatter wider than the bound, so neither "within the
    /// bound" nor "worse" can be told from these two runs.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `change` is worse than `base` as a share of `base` (negative
/// when it is better), in the metric's own direction.
pub fn worsening(base: f64, change: f64, higher_is_better: bool) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    let delta = if higher_is_better {
        base - change
    } else {
        change - base
    };
    delta / base.abs()
}

/// `ok` when the change's median is within `bound` of the base's, `worse`
/// when it is not — unless the repetitions of either run spread (quartile
/// distance ÷ median) wider than the bound, in which case only a clean
/// separation of the two ranges decides.
pub fn verdict(base: &Sample, change: &Sample, higher_is_better: bool, bound: f64) -> Verdict {
    let worse_by = worsening(base.value, change.value, higher_is_better);
    let steady = quartile_spread(&base.values).max(quartile_spread(&change.values)) <= bound;
    let (change_all_better, change_all_worse) = if higher_is_better {
        (change.min() > base.max(), change.max() < base.min())
    } else {
        (change.max() < base.min(), change.min() > base.max())
    };
    if worse_by <= bound {
        if steady || change_all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if steady || change_all_worse {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

fn sample(doc: &Value, workload: &str, metric: &str) -> Option<Sample> {
    let entry = ["workloads", workload, "timed", "metrics", metric]
        .iter()
        .try_fold(doc, |v, key| field(v, key))?;
    let Value::Array(values) = field(entry, "values")? else {
        return None;
    };
    Some(Sample {
        value: field(entry, "value").and_then(number)?,
        values: values.iter().filter_map(number).collect(),
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(a: &str, b: &str) -> ExitCode {
    let (base, change) = match (load(a), load(b)) {
        (Ok(base), Ok(change)) => (base, change),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf --compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<22} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict   (ratio = change / base)",
        "workload", "metric", "base", "change", "ratio", "bound"
    );
    let mut worse = 0;
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let (Some(x), Some(y)) = (
                sample(&base, w.name, m.name),
                sample(&change, w.name, m.name),
            ) else {
                eprintln!(
                    "perf --compare: {} / {} missing from a document",
                    w.name, m.name
                );
                return ExitCode::from(2);
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let v = verdict(&x, &y, m.better == "higher", bound);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<22} {:<18} {:>14.6} {:>14.6} {:>9.4} {:>7.3}  {}",
                w.name,
                m.name,
                x.value,
                y.value,
                crate::stats::ratio(y.value, x.value),
                bound,
                v.label()
            );
        }
    }
    if worse > 0 {
        println!("{worse} metric(s) worse than their bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five repetitions: the median, two near it, and the two extremes.
    fn s(value: f64, min: f64, max: f64) -> Sample {
        let values = vec![min, (min + value) / 2.0, value, (max + value) / 2.0, max];
        Sample { value, values }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, true) - 0.20).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn verdicts() {
        // Steady runs: the bound decides.
        assert_eq!(
            verdict(&s(100.0, 99.0, 101.0), &s(105.0, 104.0, 106.0), false, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&s(100.0, 99.0, 101.0), &s(115.0, 114.0, 116.0), false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&s(100.0, 99.0, 101.0), &s(85.0, 84.0, 86.0), true, 0.10),
            Verdict::Worse
        );
        // One slow repetition among steady ones does not unsettle a verdict.
        let outlier = Sample {
            value: 100.0,
            values: vec![99.0, 99.5, 100.0, 100.0, 100.0, 100.5, 101.0, 101.0, 160.0],
        };
        assert_eq!(
            verdict(&outlier, &s(105.0, 104.0, 106.0), false, 0.10),
            Verdict::Ok
        );
        // Scattered runs: only separated ranges decide.
        assert_eq!(
            verdict(&s(100.0, 80.0, 120.0), &s(105.0, 85.0, 125.0), false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&s(100.0, 80.0, 120.0), &s(118.0, 90.0, 140.0), false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&s(100.0, 80.0, 120.0), &s(150.0, 125.0, 170.0), false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&s(100.0, 80.0, 120.0), &s(60.0, 50.0, 75.0), false, 0.10),
            Verdict::Ok
        );
        // Deterministic metrics compare exactly.
        assert_eq!(
            verdict(&s(7.0, 7.0, 7.0), &s(7.0, 7.0, 7.0), false, 0.001),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&s(7.0, 7.0, 7.0), &s(7.1, 7.1, 7.1), false, 0.001),
            Verdict::Worse
        );
    }
}
