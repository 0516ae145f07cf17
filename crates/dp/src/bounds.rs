//! Closed-form utility bounds (Theorem 4 and Corollary 11).
//!
//! The tests use these to check that the implemented protocols' deferred-data
//! behaviour stays within the proven envelopes with the stated probability.

/// Corollary 11: the sum of `k` i.i.d. `Lap(Δ/ε)` variables exceeds
/// `2·(Δ/ε)·sqrt(k·ln(1/β))` with probability at most `β` (valid for `k ≥ 4·ln(1/β)`).
#[must_use]
pub(crate) fn laplace_sum_tail_bound(sensitivity: f64, epsilon: f64, k: u64, beta: f64) -> f64 {
    assert!(beta > 0.0 && beta < 1.0, "beta must lie in (0,1)");
    assert!(epsilon > 0.0 && sensitivity > 0.0);
    2.0 * (sensitivity / epsilon) * ((k as f64) * (1.0 / beta).ln()).sqrt()
}

/// Theorem 4: with probability at least `1 − β`, the number of deferred (real but
/// unsynchronized) tuples after the `k`-th `sDPTimer` update is below
/// `2b/ε · sqrt(k·ln(1/β))`.
#[must_use]
pub fn timer_deferred_bound(contribution_bound: u64, epsilon: f64, k: u64, beta: f64) -> f64 {
    laplace_sum_tail_bound(contribution_bound as f64, epsilon, k, beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplace::LaplaceMechanism;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bounds_scale_as_expected() {
        // Theorem 4 bound grows with sqrt(k) and 1/epsilon.
        let b1 = timer_deferred_bound(10, 1.0, 16, 0.05);
        let b2 = timer_deferred_bound(10, 1.0, 64, 0.05);
        assert!((b2 / b1 - 2.0).abs() < 1e-9, "sqrt scaling in k");
        let tight = timer_deferred_bound(10, 2.0, 16, 0.05);
        assert!((b1 / tight - 2.0).abs() < 1e-9, "1/epsilon scaling");
    }

    #[test]
    #[should_panic(expected = "beta must lie in (0,1)")]
    fn invalid_beta_rejected() {
        let _ = laplace_sum_tail_bound(1.0, 1.0, 10, 1.5);
    }

    #[test]
    fn empirical_laplace_sums_respect_corollary_11() {
        // Monte-Carlo check of Corollary 11: the fraction of trials in which the sum of
        // k Laplace(b/eps) samples exceeds the bound must be at most ~beta.
        let mut rng = StdRng::seed_from_u64(2024);
        let (sensitivity, epsilon, k, beta) = (10.0, 1.5, 32u64, 0.1);
        let bound = laplace_sum_tail_bound(sensitivity, epsilon, k, beta);
        let mech = LaplaceMechanism::new(sensitivity, epsilon);
        let trials = 2000;
        let mut exceed = 0;
        for _ in 0..trials {
            let sum: f64 = (0..k).map(|_| mech.sample_noise(&mut rng)).sum();
            if sum >= bound {
                exceed += 1;
            }
        }
        let rate = exceed as f64 / trials as f64;
        assert!(rate <= beta * 1.5, "exceed rate {rate} vs beta {beta}");
    }

    proptest! {
        #[test]
        fn prop_bounds_are_positive_and_monotone_in_b(
            b in 1u64..50, eps in 0.05f64..10.0, k in 4u64..500) {
            let beta = 0.05;
            let small = timer_deferred_bound(b, eps, k, beta);
            let large = timer_deferred_bound(b * 2, eps, k, beta);
            prop_assert!(small > 0.0);
            prop_assert!(large > small);
        }
    }
}
