//! Crate-boundary smoke test: Laplace mechanism sign/scale behaviour.

use incshrink_dp::{laplace_from_unit, LaplaceMechanism};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn laplace_from_unit_respects_sign_and_scale() {
    // ln(r) < 0 for r in (0,1): sign -1 gives positive noise, +1 negative.
    assert!(laplace_from_unit(2.0, 0.5, -1.0) > 0.0);
    assert!(laplace_from_unit(2.0, 0.5, 1.0) < 0.0);
    // Doubling the scale doubles the magnitude for the same seed.
    let small = laplace_from_unit(1.0, 0.3, 1.0).abs();
    let large = laplace_from_unit(2.0, 0.3, 1.0).abs();
    assert!((large - 2.0 * small).abs() < 1e-12);
}

#[test]
fn laplace_mechanism_empirical_mean_abs_matches_scale() {
    let mech = LaplaceMechanism::new(1.0, 0.5); // scale b = 2
    let mut rng = StdRng::seed_from_u64(11);
    let n = 20_000;
    let mean_abs: f64 = (0..n)
        .map(|_| mech.sample_noise(&mut rng).abs())
        .sum::<f64>()
        / n as f64;
    // E|Lap(b)| = b.
    assert!(
        (mean_abs - mech.scale()).abs() < 0.1,
        "mean |noise| {mean_abs} should approximate scale {}",
        mech.scale()
    );
}
