//! Workload variants: Sparse / Standard / Burst (Section 7.3) and data-volume scaling
//! (Section 7.5).
//!
//! * **Sparse** — keep roughly 10 % of the view entries by thinning both relations.
//! * **Burst** — duplicate matched pairs (with fresh keys and record ids) so the
//!   workload carries about twice as many view entries.
//! * **Scaling** — replicate or subsample the data volume by 0.5× / 2× / 4× with fresh
//!   primary keys, keeping the time horizon unchanged.

use crate::dataset::{insert_generated, rekeyed, Dataset};
use crate::queries::JoinQuery;
use incshrink_storage::{GrowingDatabase, LogicalUpdate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Which variant of a base workload to run (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadVariant {
    /// ~10 % of the standard view entries.
    Sparse,
    /// The generated workload as-is.
    Standard,
    /// ~2× the standard view entries.
    Burst,
}

impl std::fmt::Display for WorkloadVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadVariant::Sparse => write!(f, "Sparse"),
            WorkloadVariant::Standard => write!(f, "Standard"),
            WorkloadVariant::Burst => write!(f, "Burst"),
        }
    }
}

fn max_key(db: &GrowingDatabase) -> u32 {
    db.updates().iter().map(|u| u.fields[0]).max().unwrap_or(0)
}

fn max_id(ds: &Dataset) -> u64 {
    ds.left
        .updates()
        .iter()
        .chain(ds.right.updates().iter())
        .map(|u| u.id)
        .max()
        .unwrap_or(0)
}

/// Thin a dataset down to roughly `keep_fraction` of its view entries.
#[must_use]
pub fn to_sparse(base: &Dataset, keep_fraction: f64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = base.clone();
    let mut left = GrowingDatabase::new(base.left.schema.clone(), base.left.relation);
    let mut kept_keys: HashSet<u32> = HashSet::new();
    for u in base.left.updates() {
        if rng.gen_bool(keep_fraction.clamp(0.0, 1.0)) {
            kept_keys.insert(u.fields[0]);
            insert_generated(&mut left, u.clone());
        }
    }
    let mut right = GrowingDatabase::new(base.right.schema.clone(), base.right.relation);
    for u in base.right.updates() {
        // Keep right records whose key survived (so kept pairs remain intact) plus a
        // thinned sample of the unmatched background.
        if kept_keys.contains(&u.fields[0]) || rng.gen_bool(keep_fraction.clamp(0.0, 1.0)) {
            insert_generated(&mut right, u.clone());
        }
    }
    out.left = left;
    out.right = right;
    out
}

/// Widen both relations' join keys by `bits`: the key ranges a variant adds above
/// the base's.
fn widen_keys(out: &mut Dataset, bits: u32) {
    for db in [&mut out.left, &mut out.right] {
        let key = db.schema.widths()[db.schema.key_column];
        db.schema = rekeyed(&db.schema, key + bits);
    }
}

/// Duplicate matched pairs so the workload carries roughly `1 + extra_fraction` times
/// as many view entries (with `extra_fraction = 1.0` this is the paper's Burst data).
/// The fresh keys start above the base's and number at most one per left record,
/// whose own keys they do not outnumber: the key columns grow by one bit.
#[must_use]
pub fn to_burst(base: &Dataset, extra_fraction: f64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let query = JoinQuery {
        window: base.join_window,
    };
    let mut out = base.clone();
    widen_keys(&mut out, 1);
    let mut next_key = max_key(&base.left).max(max_key(&base.right)) + 1;
    let mut next_id = max_id(base) + 1;

    // The right records by key, in relation order: a pair only matches on equal keys.
    let mut rights: HashMap<u32, Vec<&LogicalUpdate>> = HashMap::new();
    for r in base.right.updates() {
        if let Some(&key) = r.fields.first() {
            rights.entry(key).or_default().push(r);
        }
    }
    for l in base.left.updates() {
        if !rng.gen_bool(extra_fraction.clamp(0.0, 1.0)) {
            continue;
        }
        let candidates = l.fields.first().and_then(|key| rights.get(key));
        let matches: Vec<&LogicalUpdate> = candidates
            .into_iter()
            .flatten()
            .copied()
            .filter(|r| query.pair_matches(&l.fields, &r.fields))
            .collect();
        if matches.is_empty() {
            continue;
        }
        // Clone the left record and its matching rights under a fresh key.
        let key = next_key;
        next_key += 1;
        let mut lf = l.fields.clone();
        lf[0] = key;
        let left = LogicalUpdate {
            id: next_id,
            relation: l.relation,
            arrival: l.arrival,
            fields: lf,
        };
        insert_generated(&mut out.left, left);
        next_id += 1;
        for r in matches {
            let mut rf = r.fields.clone();
            rf[0] = key;
            let right = LogicalUpdate {
                id: next_id,
                relation: r.relation,
                arrival: r.arrival,
                fields: rf,
            };
            insert_generated(&mut out.right, right);
            next_id += 1;
        }
    }
    out
}

/// Scale a dataset's data volume by `factor` (0.5 subsamples, 2.0/4.0 replicate with
/// fresh keys), keeping the time horizon fixed — the Section 7.5 scaling experiment.
/// Each copy's key offset doubles the last, so `c` copies keep every key below
/// `2^c` times the base's bound: the key columns grow by one bit a copy.
#[must_use]
pub fn scale_dataset(base: &Dataset, factor: f64, seed: u64) -> Dataset {
    assert!(factor > 0.0, "scale factor must be positive");
    if factor < 1.0 {
        return to_sparse(base, factor, seed);
    }
    let mut out = base.clone();
    let whole_copies = factor.floor() as u64 - 1;
    let fractional = factor - factor.floor();
    let copies = whole_copies + u64::from(fractional > 1e-9);
    widen_keys(&mut out, copies as u32);
    let mut next_key = max_key(&base.left).max(max_key(&base.right)) + 1;
    let mut next_id = max_id(base) + 1;
    let mut rng = StdRng::seed_from_u64(seed);

    let replicate = |out: &mut Dataset,
                     probability: f64,
                     rng: &mut StdRng,
                     next_key: &mut u32,
                     next_id: &mut u64| {
        // Replicate left/right records key-consistently: one fresh key offset per copy.
        let key_offset = *next_key;
        let mut used_any = false;
        for l in base.left.updates() {
            if probability >= 1.0 || rng.gen_bool(probability) {
                used_any = true;
                let mut lf = l.fields.clone();
                lf[0] += key_offset;
                let left = LogicalUpdate {
                    id: *next_id,
                    relation: l.relation,
                    arrival: l.arrival,
                    fields: lf,
                };
                insert_generated(&mut out.left, left);
                *next_id += 1;
            }
        }
        for r in base.right.updates() {
            if probability >= 1.0 || rng.gen_bool(probability) {
                used_any = true;
                let mut rf = r.fields.clone();
                rf[0] += key_offset;
                let right = LogicalUpdate {
                    id: *next_id,
                    relation: r.relation,
                    arrival: r.arrival,
                    fields: rf,
                };
                insert_generated(&mut out.right, right);
                *next_id += 1;
            }
        }
        if used_any {
            *next_key += key_offset;
        }
    };

    for _ in 0..whole_copies {
        replicate(&mut out, 1.0, &mut rng, &mut next_key, &mut next_id);
    }
    if fractional > 1e-9 {
        replicate(&mut out, fractional, &mut rng, &mut next_key, &mut next_id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::WorkloadParams;
    use crate::queries::logical_join_count;
    use crate::tpcds::TpcDsGenerator;

    fn base() -> Dataset {
        TpcDsGenerator::new(WorkloadParams {
            steps: 120,
            view_entries_per_step: 2.7,
            seed: 11,
        })
        .generate()
    }

    #[test]
    fn sparse_reduces_view_entries_to_about_ten_percent() {
        let base = base();
        let q = JoinQuery { window: 10 };
        let full = logical_join_count(&base, &q, u64::MAX) as f64;
        let sparse = to_sparse(&base, 0.1, 3);
        let reduced = logical_join_count(&sparse, &q, u64::MAX) as f64;
        let ratio = reduced / full;
        assert!(ratio > 0.02 && ratio < 0.25, "sparse ratio {ratio}");
    }

    #[test]
    fn burst_roughly_doubles_view_entries() {
        let base = base();
        let q = JoinQuery { window: 10 };
        let full = logical_join_count(&base, &q, u64::MAX) as f64;
        let burst = to_burst(&base, 1.0, 5);
        let doubled = logical_join_count(&burst, &q, u64::MAX) as f64;
        let ratio = doubled / full;
        assert!(ratio > 1.6 && ratio < 2.4, "burst ratio {ratio}");
    }

    #[test]
    fn burst_preserves_time_horizon() {
        let base = base();
        let burst = to_burst(&base, 1.0, 5);
        assert_eq!(base.params.steps, burst.params.steps);
        assert!(burst.left.len() > base.left.len());
    }

    #[test]
    fn scaling_up_multiplies_volume_and_join_count() {
        let base = base();
        let q = JoinQuery { window: 10 };
        let full = logical_join_count(&base, &q, u64::MAX) as f64;

        let x2 = scale_dataset(&base, 2.0, 9);
        assert_eq!(x2.left.len(), base.left.len() * 2);
        let doubled = logical_join_count(&x2, &q, u64::MAX) as f64;
        assert!((doubled / full - 2.0).abs() < 0.05);

        let x4 = scale_dataset(&base, 4.0, 9);
        assert_eq!(x4.left.len(), base.left.len() * 4);
    }

    #[test]
    fn scaling_down_subsamples() {
        let base = base();
        let half = scale_dataset(&base, 0.5, 9);
        let ratio = half.left.len() as f64 / base.left.len() as f64;
        assert!(ratio > 0.3 && ratio < 0.7, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "scale factor must be positive")]
    fn zero_scale_rejected() {
        let _ = scale_dataset(&base(), 0.0, 1);
    }

    #[test]
    fn variant_display() {
        assert_eq!(WorkloadVariant::Sparse.to_string(), "Sparse");
        assert_eq!(WorkloadVariant::Standard.to_string(), "Standard");
        assert_eq!(WorkloadVariant::Burst.to_string(), "Burst");
    }
}
