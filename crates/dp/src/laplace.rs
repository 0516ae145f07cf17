//! Laplace sampling and the Laplace mechanism.
//!
//! The protocols generate Laplace noise from a uniform seed `r ∈ (0,1)` and a sign bit
//! (Algorithm 2, lines 5-6): `Lap(b) ← b · ln(r) · sign`. [`laplace_from_unit`]
//! implements exactly that transformation so the in-protocol joint-noise path and the
//! standalone mechanism agree sample-for-sample when fed the same randomness.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Convert a uniform value `r ∈ (0, 1)` and a sign (`±1.0`) into a sample from the
/// Laplace distribution with scale `scale` (mean 0).
///
/// This is the transformation used inside `sDPTimer`/`sDPANT`: `scale · ln(r) · sign`.
/// `ln(r)` is negative, so multiplying by a uniform ±1 sign yields the symmetric
/// two-sided exponential, i.e. `Lap(scale)`.
#[must_use]
pub fn laplace_from_unit(scale: f64, unit: f64, sign: f64) -> f64 {
    debug_assert!(unit > 0.0 && unit < 1.0, "unit seed must lie in (0,1)");
    debug_assert!(sign == 1.0 || sign == -1.0, "sign must be ±1");
    scale * unit.ln() * sign
}

/// The standard (trusted-curator) Laplace mechanism: `x ↦ x + Lap(sensitivity / ε)`.
///
/// Used for the leakage-profile mechanisms of the security proofs and as the reference
/// distribution in statistical tests; the protocols themselves use the joint two-party
/// variant in [`crate::joint`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaplaceMechanism {
    /// L1 sensitivity of the query being privatised.
    pub sensitivity: f64,
    /// Privacy parameter ε.
    pub epsilon: f64,
}

impl LaplaceMechanism {
    /// Create a mechanism; panics on non-positive parameters.
    #[must_use]
    pub fn new(sensitivity: f64, epsilon: f64) -> Self {
        assert!(sensitivity > 0.0, "sensitivity must be positive");
        assert!(epsilon > 0.0, "epsilon must be positive");
        Self {
            sensitivity,
            epsilon,
        }
    }

    /// The noise scale `b = sensitivity / ε`.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.sensitivity / self.epsilon
    }

    /// Draw one noise sample.
    pub fn sample_noise<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Draw strictly inside (0,1): `gen::<f64>()` returns [0,1), shift away from 0.
        let unit: f64 = loop {
            let u: f64 = rng.gen();
            if u > 0.0 {
                break u;
            }
        };
        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        laplace_from_unit(self.scale(), unit, sign)
    }

    /// Apply the mechanism to a true value.
    pub(crate) fn randomize<R: Rng + ?Sized>(&self, true_value: f64, rng: &mut R) -> f64 {
        true_value + self.sample_noise(rng)
    }

    /// Apply the mechanism to a count and clamp the released value to a non-negative
    /// integer (noised cardinalities are used as array read sizes).
    pub fn randomize_count<R: Rng + ?Sized>(&self, count: u64, rng: &mut R) -> u64 {
        released_count(self.randomize(count as f64, rng))
    }
}

/// A noised count as a usable size: rounded to the nearest integer, clamped at 0.
pub(crate) fn released_count(noised: f64) -> u64 {
    if noised <= 0.0 {
        0
    } else {
        noised.round() as u64
    }
}

/// The failure probability β of the secure cache's trim: per cut, the chance that
/// a row it recycles was real.
pub const TRIM_FAILURE_PROBABILITY: f64 = 1e-6;

/// The bound `R = ⌈scale·ln(1/(2β)) + ½⌉` (the ½ a margin for the rounding) on how
/// far a count released as `round(c + Lap(scale))`, clamped at 0, falls below `c`:
/// it falls further only on noise below `−(R + ½)`, probability `½·e^{−(R+½)/scale} ≤ β`.
#[must_use]
pub fn count_shortfall_bound(scale: f64, beta: f64) -> usize {
    (scale * (1.0 / (2.0 * beta)).ln() + 0.5).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn laplace_from_unit_signs() {
        let pos = laplace_from_unit(2.0, 0.1, -1.0);
        let neg = laplace_from_unit(2.0, 0.1, 1.0);
        assert!(pos > 0.0);
        assert!(neg < 0.0);
        assert!((pos + neg).abs() < 1e-12, "symmetric magnitudes");
        // r close to 1 gives noise close to 0.
        assert!(laplace_from_unit(5.0, 0.999_999, 1.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "sensitivity must be positive")]
    fn zero_sensitivity_rejected() {
        let _ = LaplaceMechanism::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_rejected() {
        let _ = LaplaceMechanism::new(1.0, 0.0);
    }

    #[test]
    fn scale_is_sensitivity_over_epsilon() {
        let m = LaplaceMechanism::new(10.0, 2.0);
        assert!((m.scale() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sample_mean_and_spread_match_theory() {
        // Empirical mean ≈ 0 and empirical mean absolute deviation ≈ scale.
        let m = LaplaceMechanism::new(1.0, 0.5); // scale 2
        let mut rng = StdRng::seed_from_u64(1234);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| m.sample_noise(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let mad = samples.iter().map(|x| x.abs()).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((mad - 2.0).abs() < 0.15, "mad {mad}");
    }

    #[test]
    fn shortfall_bound_holds_against_the_rounded_clamped_laplace_tail() {
        // The seed-7 pipelines: TPC-ds (b = 10, ε = 1.5), CPDB (b = 20) and a
        // TPC-ds shard at ε/2.
        let r = |b: f64, eps: f64| count_shortfall_bound(b / eps, TRIM_FAILURE_PROBABILITY);
        assert_eq!((r(10.0, 1.5), r(20.0, 1.5), r(10.0, 0.75)), (88, 176, 176));
        for scale in [0.1, 1.0, 20.0 / 3.0, 13.3, 100.0] {
            for beta in [TRIM_FAILURE_PROBABILITY, 1e-3, 0.1, 0.49] {
                let bound = count_shortfall_bound(scale, beta);
                let edge = -(bound as f64 + 0.5);
                // Closed form of P(Lap(scale) < −(R + ½)).
                assert!(0.5 * (edge / scale).exp() <= beta, "{scale} {beta}");
                for c in 0..bound as u64 + 40 {
                    let short = |noise: f64| released_count(c as f64 + noise) + (bound as u64) < c;
                    // Never short from the edge up; short just below it once c > R.
                    assert!(!short(edge) && !short(edge + 0.25) && !short(1e9));
                    assert_eq!(short(edge - 1e-9), c > bound as u64, "{scale} {beta} {c}");
                    // The clamp at 0: any draw that zeroes the size.
                    assert_eq!(short(-1e9), c > bound as u64);
                }
            }
        }
    }

    #[test]
    fn randomize_count_clamps_to_zero() {
        let m = LaplaceMechanism::new(1.0, 0.01); // huge noise
        let mut rng = StdRng::seed_from_u64(7);
        let mut saw_zero = false;
        let mut saw_positive = false;
        for _ in 0..200 {
            let v = m.randomize_count(3, &mut rng);
            if v == 0 {
                saw_zero = true;
            }
            if v > 3 {
                saw_positive = true;
            }
        }
        assert!(saw_zero && saw_positive);
    }

    #[test]
    fn larger_epsilon_means_smaller_noise() {
        let mut rng = StdRng::seed_from_u64(5);
        let loose = LaplaceMechanism::new(1.0, 0.1);
        let tight = LaplaceMechanism::new(1.0, 10.0);
        let n = 5_000;
        let mad = |m: &LaplaceMechanism, rng: &mut StdRng| {
            (0..n).map(|_| m.sample_noise(rng).abs()).sum::<f64>() / n as f64
        };
        assert!(mad(&loose, &mut rng) > mad(&tight, &mut rng) * 10.0);
    }

    proptest! {
        #[test]
        fn prop_laplace_from_unit_finite(scale in 0.01f64..100.0,
                                         unit in 1e-9f64..0.999_999_999,
                                         flip: bool) {
            let sign = if flip { 1.0 } else { -1.0 };
            let x = laplace_from_unit(scale, unit, sign);
            prop_assert!(x.is_finite());
        }

        #[test]
        fn prop_randomize_count_is_nonnegative(count in 0u64..10_000, seed: u64,
                                               eps in 0.01f64..10.0) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = LaplaceMechanism::new(1.0, eps);
            let _v: u64 = m.randomize_count(count, &mut rng);
            // type-level non-negativity; additionally the value is finite by construction
            prop_assert!(true);
        }
    }
}
