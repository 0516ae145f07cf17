//! Adversarially skewed key-distribution variants for the elastic-sharding
//! evaluation.
//!
//! The cluster shuffle hashes join keys into [`VIRTUAL_BUCKETS`] virtual
//! buckets and routes each bucket to its owning shard. The base generators
//! draw keys roughly uniformly, so every bucket — and hence every shard —
//! carries about the same load, which is exactly the regime where a static
//! assignment is already optimal. [`to_zipf_skewed`] derives the hostile
//! counterpart: join keys are remapped through an **injective** bijection so
//! that the key mass over the virtual buckets follows a Zipf(`s`) law (bucket
//! ranked `r` receives mass ∝ `1/(r+1)^s`). Equality structure, timestamps,
//! record ids, arrival order and every non-key attribute are untouched, so the
//! logical join ground truth ([`crate::queries::logical_join_count`]) is
//! bit-identical to the base workload — the same parity contract
//! [`crate::partitioned::to_store_partitioned`] gives, which lets benchmarks
//! compare elastic runs against unskewed truth.
//!
//! Compose with [`crate::partitioned::to_store_partitioned`] (in either order)
//! to get a workload that is both store-partitioned on arrival and Zipf-hot on
//! the join key — the `bench --bin elastic` configuration.

use crate::dataset::{insert_generated, rekeyed, Dataset};
use incshrink_oblivious::shuffle::{bucket_of, VIRTUAL_BUCKETS};
use incshrink_storage::GrowingDatabase;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Cumulative Zipf(`s`) distribution over `n` ranks: `P(rank ≤ r) ∝
/// Σ_{i≤r} 1/(i+1)^s`. `s = 0` degenerates to the uniform distribution.
fn zipf_cdf(s: f64, n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|i| {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Inverse-CDF sample: the first rank whose cumulative mass exceeds `u`.
fn sample_rank(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Derive a Zipf-skewed variant of a workload: every distinct join key is
/// remapped (injectively, in first-appearance order) to a fresh key whose
/// virtual routing bucket is drawn from a Zipf(`zipf_s`) distribution over the
/// [`VIRTUAL_BUCKETS`] bucket ranks. `zipf_s = 0` yields the uniform control
/// with the same remapping machinery; `zipf_s ≈ 1.2` concentrates roughly a
/// quarter of all key mass in the hottest bucket.
///
/// The remapping is a bijection on the key column of *both* relations, so join
/// pairs (and therefore the logical ground truth at every step) are exactly
/// those of `base`.
///
/// # Panics
/// Panics when `zipf_s` is negative or not finite.
#[must_use]
pub fn to_zipf_skewed(base: &Dataset, zipf_s: f64, seed: u64) -> Dataset {
    assert!(
        zipf_s.is_finite() && zipf_s >= 0.0,
        "zipf exponent must be a finite non-negative number"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x21FF_5EED_0B15);
    let cdf = zipf_cdf(zipf_s, VIRTUAL_BUCKETS);

    let mut remap: HashMap<u32, u32> = HashMap::new();
    let mut used: HashSet<u32> = HashSet::new();
    let mut mapped_key = |key: u32, rng: &mut StdRng| -> u32 {
        if let Some(&v) = remap.get(&key) {
            return v;
        }
        let target = sample_rank(&cdf, rng.gen::<f64>());
        // Rejection-sample a fresh key hashing into the target bucket; each
        // draw hits with probability 1/VIRTUAL_BUCKETS, so this terminates
        // quickly and deterministically for a given rng state.
        let v = loop {
            let candidate: u32 = rng.gen();
            if bucket_of(candidate) == target && used.insert(candidate) {
                break candidate;
            }
        };
        remap.insert(key, v);
        v
    };

    // The fresh keys are uniform `u32`s: the key columns are full words.
    let left_key = base.left.schema.key_column;
    let mut left = GrowingDatabase::new(rekeyed(&base.left.schema, 32), base.left.relation);
    for u in base.left.updates() {
        let mut update = u.clone();
        update.fields[left_key] = mapped_key(update.fields[left_key], &mut rng);
        insert_generated(&mut left, update);
    }

    let right_key = base.right.schema.key_column;
    let mut right = GrowingDatabase::new(rekeyed(&base.right.schema, 32), base.right.relation);
    for u in base.right.updates() {
        let mut update = u.clone();
        update.fields[right_key] = mapped_key(update.fields[right_key], &mut rng);
        insert_generated(&mut right, update);
    }

    Dataset {
        kind: base.kind,
        left,
        right,
        right_is_public: base.right_is_public,
        upload_interval: base.upload_interval,
        left_batch_size: base.left_batch_size,
        right_batch_size: base.right_batch_size,
        join_window: base.join_window,
        params: base.params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::WorkloadParams;
    use crate::partitioned::to_store_partitioned;
    use crate::queries::{logical_join_count, JoinQuery};
    use crate::tpcds::TpcDsGenerator;

    /// Left-relation key mass per virtual routing bucket.
    fn bucket_load_profile(dataset: &Dataset) -> Vec<u64> {
        let key = dataset.left.schema.key_column;
        let mut counts = vec![0u64; VIRTUAL_BUCKETS];
        for u in dataset.left.updates() {
            counts[bucket_of(u.fields[key])] += 1;
        }
        counts
    }

    fn base() -> Dataset {
        TpcDsGenerator::new(WorkloadParams {
            steps: 60,
            view_entries_per_step: 2.7,
            seed: 7,
        })
        .generate()
    }

    #[test]
    fn ground_truth_is_unchanged_by_the_key_bijection() {
        let base = base();
        for s in [0.0, 0.8, 1.2] {
            let variant = to_zipf_skewed(&base, s, 3);
            let q = JoinQuery { window: 10 };
            for t in [1u64, 20, 60] {
                assert_eq!(
                    logical_join_count(&variant, &q, t),
                    logical_join_count(&base, &q, t),
                    "s={s} t={t}"
                );
            }
        }
    }

    #[test]
    fn remapping_is_injective() {
        let base = base();
        let variant = to_zipf_skewed(&base, 1.2, 3);
        // Two variant updates share a key exactly when the base updates did.
        let key = base.left.schema.key_column;
        let base_keys: Vec<u32> = base.left.updates().iter().map(|u| u.fields[key]).collect();
        let new_keys: Vec<u32> = variant
            .left
            .updates()
            .iter()
            .map(|u| u.fields[key])
            .collect();
        assert_eq!(base_keys.len(), new_keys.len());
        for i in 0..base_keys.len() {
            for j in (i + 1)..base_keys.len() {
                assert_eq!(
                    base_keys[i] == base_keys[j],
                    new_keys[i] == new_keys[j],
                    "bijection must preserve the equality structure"
                );
            }
        }
    }

    #[test]
    fn skew_concentrates_mass_in_the_hot_buckets() {
        let base = base();
        let share = |s: f64| -> f64 {
            let profile = bucket_load_profile(&to_zipf_skewed(&base, s, 3));
            let total: u64 = profile.iter().sum();
            let max = profile.iter().copied().max().unwrap_or(0);
            max as f64 / total.max(1) as f64
        };
        let uniform = share(0.0);
        let hot = share(1.2);
        assert!(
            hot > 2.0 * uniform,
            "s=1.2 hottest-bucket share {hot:.3} should dwarf uniform {uniform:.3}"
        );
        assert!(
            hot > 0.15,
            "s=1.2 concentrates ≥15% in one bucket ({hot:.3})"
        );
    }

    #[test]
    fn composes_with_store_partitioning() {
        let base = base();
        let combined = to_store_partitioned(&to_zipf_skewed(&base, 1.2, 3), 8, 0.5, 3);
        let q = JoinQuery { window: 10 };
        assert_eq!(
            logical_join_count(&combined, &q, 40),
            logical_join_count(&base, &q, 40)
        );
        assert!(!combined.left.schema.is_co_partitioned());
    }

    #[test]
    fn deterministic_per_seed() {
        let base = base();
        let a = to_zipf_skewed(&base, 0.8, 9);
        let b = to_zipf_skewed(&base, 0.8, 9);
        assert_eq!(a.left, b.left);
        assert_eq!(a.right, b.right);
        let c = to_zipf_skewed(&base, 0.8, 10);
        assert!(a.left != c.left || a.right != c.right);
    }

    #[test]
    #[should_panic(expected = "zipf exponent")]
    fn negative_exponent_rejected() {
        let _ = to_zipf_skewed(&base(), -1.0, 1);
    }
}
