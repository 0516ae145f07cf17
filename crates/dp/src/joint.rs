//! Joint noise generation — `JointNoise(S0, S1, Δ, ε, x)` from Section 5.2.
//!
//! Neither server may control or predict the randomness behind the DP noise, otherwise
//! a corrupted server could subtract it back out. Following the protocols, each server
//! contributes a uniformly random word; inside the (simulated) MPC the words are
//! XOR-combined, converted to a fixed-point seed `r ∈ (0,1)`, and turned into a Laplace
//! sample `Δ/ε · ln(r) · sign`, where the sign comes from one extra joint random bit.
//! As long as at least one server samples honestly and keeps its word private — which
//! is exactly the non-colluding assumption — the noise is unpredictable to every party.

use crate::laplace::laplace_from_unit;
use incshrink_mpc::PartyExec;

/// Jointly sample `Lap(Δ/ε)` noise inside the two-party context and return
/// `x + noise` as a real number. Charges the contribution exchange to the cost meter.
/// Generic over the party execution mode — the joint draw is one protocol
/// round regardless of who runs the servers.
pub fn joint_laplace_noise(
    ctx: &mut impl PartyExec,
    sensitivity: f64,
    epsilon: f64,
    x: f64,
) -> f64 {
    assert!(sensitivity > 0.0, "sensitivity must be positive");
    assert!(epsilon > 0.0, "epsilon must be positive");
    // Every joint mechanism invocation flows through here, so this is where the
    // ε-ledger is written. The emission is a pure read of (ε, Δ) plus the
    // ambient telemetry scopes — it never touches the context, so traced and
    // untraced runs consume identical randomness and meter charges.
    incshrink_telemetry::epsilon_spent(epsilon, sensitivity);
    let rnd = ctx.joint_randomness();
    // Converting the joint seed and evaluating ln / multiplication inside a garbled
    // circuit costs a small fixed number of secure additions; charge a constant.
    ctx.meter().adds(64);
    let noise = laplace_from_unit(sensitivity / epsilon, rnd.unit_interval(), rnd.sign());
    x + noise
}

/// Jointly noise an integer cardinality and clamp the result to a usable read size.
pub fn joint_noised_size(
    ctx: &mut impl PartyExec,
    sensitivity: f64,
    epsilon: f64,
    count: u64,
) -> u64 {
    let noised = joint_laplace_noise(ctx, sensitivity, epsilon, count as f64);
    if noised <= 0.0 {
        0
    } else {
        noised.round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_mpc::cost::CostModel;
    use incshrink_mpc::{PartyContext, PartyMode};

    #[test]
    fn joint_noise_has_zero_mean_and_expected_spread() {
        let mut ctx = PartyContext::new(PartyMode::InProcess, 99, CostModel::default());
        let n = 20_000;
        let scale = 4.0; // sensitivity 2, epsilon 0.5
        let samples: Vec<f64> = (0..n)
            .map(|_| joint_laplace_noise(&mut ctx, 2.0, 0.5, 0.0))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let mad = samples.iter().map(|x| x.abs()).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!((mad - scale).abs() < 0.3, "mad {mad}");
    }

    #[test]
    fn joint_noise_is_charged_to_the_meter() {
        let mut ctx = PartyContext::new(PartyMode::InProcess, 3, CostModel::default());
        let _ = joint_laplace_noise(&mut ctx, 1.0, 1.0, 10.0);
        let (report, duration) = ctx.charge();
        assert!(report.bytes_communicated > 0);
        assert!(report.secure_adds > 0);
        assert!(duration.as_secs_f64() > 0.0);
    }

    #[test]
    fn joint_noised_size_clamps_and_rounds() {
        let mut ctx = PartyContext::new(PartyMode::InProcess, 5, CostModel::default());
        let mut zeros = 0;
        let mut larger = 0;
        for _ in 0..300 {
            let v = joint_noised_size(&mut ctx, 10.0, 0.1, 2);
            if v == 0 {
                zeros += 1;
            }
            if v > 2 {
                larger += 1;
            }
        }
        assert!(zeros > 0, "large negative noise should clamp to zero");
        assert!(larger > 0, "positive noise should inflate the size");
    }

    #[test]
    fn different_seeds_give_different_noise_streams() {
        let mut a = PartyContext::new(PartyMode::InProcess, 1, CostModel::default());
        let mut b = PartyContext::new(PartyMode::InProcess, 2, CostModel::default());
        let xa: Vec<f64> = (0..8)
            .map(|_| joint_laplace_noise(&mut a, 1.0, 1.0, 0.0))
            .collect();
        let xb: Vec<f64> = (0..8)
            .map(|_| joint_laplace_noise(&mut b, 1.0, 1.0, 0.0))
            .collect();
        assert_ne!(xa, xb);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn invalid_epsilon_panics() {
        let mut ctx = PartyContext::new(PartyMode::InProcess, 1, CostModel::default());
        let _ = joint_laplace_noise(&mut ctx, 1.0, 0.0, 0.0);
    }
}
