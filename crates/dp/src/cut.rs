//! Shrinkwrap-style DP sizing of intermediate results (arXiv 1810.01816).
//!
//! The fixed-size ingest cut of the shuffle phase pays worst-case padding on
//! every route. Shrinkwrap's observation is that a small ε buys a *noisy* load
//! estimate, and sizing the intermediate to that estimate (plus a safety
//! margin) instead of the worst case trades a little privacy budget for a lot
//! of padding. [`NoisyCutSizer`] packages the release the elastic control
//! plane needs: [`NoisyCutSizer::noisy_counts_signed`], one Laplace release per
//! *virtual bucket* of the routing key space. The buckets partition the records,
//! so by parallel composition the joint release of all buckets is `ε`-DP and the
//! sizer emits **one** ledger entry per invocation, not one per bucket.
//!
//! The release stamps the ambient telemetry scopes, so the cluster driver
//! wraps calls in `mechanism_scope("elastic.cut")` and the spend lands in the
//! ε-ledger, which [`crate::accountant::PrivacyAccountant::reconciles_with_ledger`]
//! checks against the claimed bound.

use crate::laplace::LaplaceMechanism;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// DP sizer releasing noisy per-bucket load counts.
///
/// Deterministic for a given seed: the cluster drivers feed it a seed derived
/// from the cluster seed, so elastic runs replay bit-for-bit across party
/// execution modes (the sizer never touches party randomness).
#[derive(Debug, Clone)]
pub struct NoisyCutSizer {
    mechanism: LaplaceMechanism,
    rng: StdRng,
}

impl NoisyCutSizer {
    /// Create a sizer spending `epsilon` per release (sensitivity 1: the
    /// counts are record counts).
    ///
    /// # Panics
    /// Panics when `epsilon` is not positive.
    #[must_use]
    pub fn new(epsilon: f64, seed: u64) -> Self {
        Self {
            mechanism: LaplaceMechanism::new(1.0, epsilon),
            rng: StdRng::seed_from_u64(seed ^ 0xC075_12E5_EED0),
        }
    }

    /// The ε spent by each release.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.mechanism.epsilon
    }

    /// Release a *signed* noisy copy of per-bucket record counts: one `ε`-DP
    /// release by parallel composition over the disjoint buckets, with a single
    /// ledger entry under the ambient telemetry scopes. There is no per-bucket
    /// non-negativity clamp: summing many clamped near-zero buckets biases the
    /// aggregate upward by roughly the noise scale per bucket, so consumers that
    /// aggregate (the elastic per-destination cut sizing) take the unbiased
    /// signed values and clamp only the final sum.
    pub fn noisy_counts_signed(&mut self, true_counts: &[u64]) -> Vec<f64> {
        let released: Vec<f64> = true_counts
            .iter()
            .map(|&c| self.mechanism.randomize(c as f64, &mut self.rng))
            .collect();
        incshrink_telemetry::epsilon_spent(self.mechanism.epsilon, 1.0);
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_telemetry::{install, Event};
    use std::sync::Arc;

    #[test]
    fn releases_are_deterministic_per_seed() {
        let counts = [0u64, 5, 1, 40, 2];
        let a = NoisyCutSizer::new(0.5, 9).noisy_counts_signed(&counts);
        let b = NoisyCutSizer::new(0.5, 9).noisy_counts_signed(&counts);
        assert_eq!(a, b);
        let c = NoisyCutSizer::new(0.5, 10).noisy_counts_signed(&counts);
        assert_ne!(a, c, "different seed, different noise");
    }

    #[test]
    fn noisy_max_finds_a_dominant_bucket() {
        let mut sizer = NoisyCutSizer::new(2.0, 4);
        // The gap (10_000 vs 0) dwarfs Lap(1/2) noise, so the hottest bucket of
        // every signed release is the true one.
        let counts = [0u64, 0, 10_000, 0];
        for _ in 0..20 {
            let released = sizer.noisy_counts_signed(&counts);
            let hottest = released
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i);
            assert_eq!(hottest, Some(2));
        }
    }

    #[test]
    fn each_release_emits_one_ledger_entry() {
        let sink = Arc::new(incshrink_telemetry::InMemory::default());
        let _guard = install(sink.clone());
        let _mech = incshrink_telemetry::mechanism_scope("elastic.cut");
        let mut sizer = NoisyCutSizer::new(0.25, 7);
        let _ = sizer.noisy_counts_signed(&[3, 1, 4, 1, 5]);
        let _ = sizer.noisy_counts_signed(&[2, 7, 1, 8]);
        let entries: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Epsilon(entry) => Some(entry),
                _ => None,
            })
            .collect();
        assert_eq!(entries.len(), 2, "one entry per release, not per bucket");
        for entry in entries {
            assert_eq!(entry.mechanism, "elastic.cut");
            assert!((entry.epsilon - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn non_positive_epsilon_is_rejected() {
        let _ = NoisyCutSizer::new(0.0, 1);
    }
}
