//! Numeric Above Noisy Threshold (Algorithm 5).
//!
//! The sparse-vector-technique mechanism behind `sDPANT`: a noisy threshold
//! `θ̃ = θ + Lap(2Δ/ε₁)` is compared at every time step against a noisy running count
//! `c + Lap(4Δ/ε₁)`; when the count exceeds the threshold, a *separately* noised count
//! `c + Lap(2Δ/ε₂)` is released, the threshold is refreshed, and the running count is
//! reset. With ε₁ = ε₂ = ε/2 the mechanism satisfies ε/Δ-DP per release epoch and,
//! composed over disjoint epochs, ε/Δ-DP overall (Theorem 13 of the paper's appendix).

use crate::laplace::LaplaceMechanism;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Outcome of feeding one time step to the mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SvtOutcome {
    /// The noisy count stayed below the noisy threshold; nothing is released.
    Below,
    /// The noisy count reached the noisy threshold; the released (noised) value is
    /// attached. Internally the threshold has been refreshed and the count reset.
    Released {
        /// The DP-noised count released to the observer.
        noised_count: f64,
    },
}

/// Numeric above-noisy-threshold mechanism state.
#[derive(Debug, Clone)]
pub struct NumericAboveThreshold {
    threshold: f64,
    sensitivity: f64,
    epsilon1: f64,
    epsilon2: f64,
    noisy_threshold: f64,
    running_count: f64,
}

impl NumericAboveThreshold {
    /// Create the mechanism with the overall budget split ε₁ = ε₂ = ε/2 used by the
    /// paper, and draw the initial noisy threshold.
    pub fn new<R: Rng + ?Sized>(
        threshold: f64,
        sensitivity: f64,
        epsilon: f64,
        rng: &mut R,
    ) -> Self {
        assert!(epsilon > 0.0 && sensitivity > 0.0 && threshold >= 0.0);
        let epsilon1 = epsilon / 2.0;
        let epsilon2 = epsilon / 2.0;
        let mut this = Self {
            threshold,
            sensitivity,
            epsilon1,
            epsilon2,
            noisy_threshold: 0.0,
            running_count: 0.0,
        };
        this.refresh_threshold(rng);
        this
    }

    /// Draw a fresh noisy threshold `θ + Lap(2Δ/ε₁)`.
    pub(crate) fn refresh_threshold<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let mech = LaplaceMechanism::new(2.0 * self.sensitivity, self.epsilon1);
        self.noisy_threshold = mech.randomize(self.threshold, rng);
    }

    /// Current noisy threshold (exposed for the protocol layer, which secret-shares it).
    #[must_use]
    pub fn noisy_threshold(&self) -> f64 {
        self.noisy_threshold
    }

    /// Feed the number of new items arriving at this time step; returns whether a
    /// release fires.
    pub fn step<R: Rng + ?Sized>(&mut self, new_items: u64, rng: &mut R) -> SvtOutcome {
        self.running_count += new_items as f64;
        let check = LaplaceMechanism::new(4.0 * self.sensitivity, self.epsilon1);
        let noisy_count = check.randomize(self.running_count, rng);
        if noisy_count >= self.noisy_threshold {
            let release = LaplaceMechanism::new(2.0 * self.sensitivity, self.epsilon2);
            let released = release.randomize(self.running_count, rng);
            self.running_count = 0.0;
            self.refresh_threshold(rng);
            SvtOutcome::Released {
                noised_count: released,
            }
        } else {
            SvtOutcome::Below
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fires_roughly_every_threshold_items() {
        let mut rng = StdRng::seed_from_u64(10);
        // Threshold 30, 3 items per step, epsilon large so noise is negligible:
        // should fire about every 10 steps.
        let mut svt = NumericAboveThreshold::new(30.0, 1.0, 50.0, &mut rng);
        let mut releases = 0;
        let steps = 1000;
        for _ in 0..steps {
            if let SvtOutcome::Released { noised_count } = svt.step(3, &mut rng) {
                releases += 1;
                assert!((noised_count - 30.0).abs() < 5.0, "release near threshold");
            }
        }
        assert!((90..=110).contains(&releases), "releases = {releases}");
    }

    #[test]
    fn small_epsilon_fires_more_erratically_but_still_fires() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut svt = NumericAboveThreshold::new(30.0, 1.0, 0.1, &mut rng);
        let mut releases = 0;
        for _ in 0..1000 {
            if matches!(svt.step(3, &mut rng), SvtOutcome::Released { .. }) {
                releases += 1;
            }
        }
        assert!(releases > 0);
    }

    #[test]
    fn count_resets_after_release() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut svt = NumericAboveThreshold::new(5.0, 1.0, 100.0, &mut rng);
        // One big burst should fire immediately and reset.
        let out = svt.step(100, &mut rng);
        assert!(matches!(out, SvtOutcome::Released { .. }));
        assert_eq!(svt.running_count, 0.0);
    }

    #[test]
    fn threshold_refreshes_after_release() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut svt = NumericAboveThreshold::new(50.0, 1.0, 0.5, &mut rng);
        let before = svt.noisy_threshold();
        let _ = svt.step(1000, &mut rng); // certainly fires
        let after = svt.noisy_threshold();
        assert_ne!(before, after, "fresh randomness must be drawn");
    }

    #[test]
    fn never_fires_with_no_data_and_high_threshold() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut svt = NumericAboveThreshold::new(1_000_000.0, 1.0, 10.0, &mut rng);
        for _ in 0..200 {
            assert_eq!(svt.step(0, &mut rng), SvtOutcome::Below);
        }
    }

    #[test]
    #[should_panic]
    fn invalid_parameters_panic() {
        let mut rng = StdRng::seed_from_u64(15);
        let _ = NumericAboveThreshold::new(10.0, 1.0, 0.0, &mut rng);
    }
}
