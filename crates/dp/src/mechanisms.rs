//! The leakage-profile mechanism `M_timer` (Theorems 7 and 12).
//!
//! The SIM-CDP security argument shows that everything an admissible adversary sees
//! during protocol execution can be simulated from the output of a DP mechanism over
//! the growing database. This is that mechanism for `sDPTimer`, implemented
//! standalone over a plaintext stream of per-step new-view-entry counts. Tests use it
//! to check that the *protocol's* observable synchronization sizes are distributed
//! like the mechanism's outputs (same triggering times, same noise scales).

use crate::laplace::LaplaceMechanism;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One element of a leakage trace: what an observer learns at one time step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeakageEvent {
    /// The time step.
    pub time: u64,
    /// The released noisy cardinality, or `None` when nothing was released.
    pub released: Option<f64>,
}

/// Common interface of the per-strategy leakage mechanisms.
pub trait UpdateLeakage {
    /// Feed the number of new view entries generated at this time step; returns the
    /// event visible to the adversary.
    fn step<R: Rng + ?Sized>(&mut self, time: u64, new_entries: u64, rng: &mut R) -> LeakageEvent;

    /// The per-release ε consumed with respect to the *transformed* data (the view
    /// entries); multiplying by the transformation stability gives the loss with
    /// respect to logical updates (Lemma 2).
    fn epsilon(&self) -> f64;
}

/// `M_timer`: every `T` steps release `count(new entries since last release) + Lap(b/ε)`
/// where `b` is the contribution bound (the Laplace scale is expressed as
/// `sensitivity/ε` with sensitivity `b`).
#[derive(Debug, Clone)]
pub struct TimerLeakage {
    interval: u64,
    mechanism: LaplaceMechanism,
    pending: u64,
}

impl TimerLeakage {
    /// Create the mechanism with update interval `interval`, contribution bound `b`
    /// and privacy parameter ε.
    #[must_use]
    pub fn new(interval: u64, contribution_bound: u64, epsilon: f64) -> Self {
        assert!(interval > 0, "interval must be positive");
        Self {
            interval,
            mechanism: LaplaceMechanism::new(contribution_bound as f64, epsilon),
            pending: 0,
        }
    }
}

impl UpdateLeakage for TimerLeakage {
    fn step<R: Rng + ?Sized>(&mut self, time: u64, new_entries: u64, rng: &mut R) -> LeakageEvent {
        self.pending += new_entries;
        if time > 0 && time % self.interval == 0 {
            let released = self.mechanism.randomize(self.pending as f64, rng);
            self.pending = 0;
            LeakageEvent {
                time,
                released: Some(released),
            }
        } else {
            LeakageEvent {
                time,
                released: None,
            }
        }
    }

    fn epsilon(&self) -> f64 {
        self.mechanism.epsilon
    }
}

/// Run a leakage mechanism over a whole stream of per-step new-entry counts and return
/// the trace. Convenience for tests and the benchmark harness.
pub fn run_leakage<M: UpdateLeakage, R: Rng + ?Sized>(
    mechanism: &mut M,
    stream: &[u64],
    rng: &mut R,
) -> Vec<LeakageEvent> {
    stream
        .iter()
        .enumerate()
        .map(|(t, &n)| mechanism.step(t as u64 + 1, n, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn timer_leakage_releases_only_on_interval() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut m = TimerLeakage::new(10, 10, 100.0);
        let stream: Vec<u64> = vec![3; 100];
        let trace = run_leakage(&mut m, &stream, &mut rng);
        let releases: Vec<&LeakageEvent> = trace.iter().filter(|e| e.released.is_some()).collect();
        assert_eq!(releases.len(), 10);
        for e in &releases {
            assert_eq!(e.time % 10, 0);
            // epsilon huge -> noise tiny -> released value near 30 (10 steps * 3/step).
            assert!((e.released.unwrap() - 30.0).abs() < 3.0);
        }
        assert!((m.epsilon() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn timer_leakage_pending_resets_between_releases() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut m = TimerLeakage::new(5, 1, 1000.0);
        // Burst then silence: first release sees the burst, second sees ~0.
        let mut stream = vec![20, 0, 0, 0, 0];
        stream.extend(vec![0u64; 5]);
        let trace = run_leakage(&mut m, &stream, &mut rng);
        let releases: Vec<f64> = trace.iter().filter_map(|e| e.released).collect();
        assert_eq!(releases.len(), 2);
        assert!((releases[0] - 20.0).abs() < 1.0);
        assert!(releases[1].abs() < 1.0);
    }

    #[test]
    fn timer_ignores_data_rate_for_release_times() {
        // The timer's release schedule must be completely data-independent.
        let mut rng = StdRng::seed_from_u64(12);
        let mut m1 = TimerLeakage::new(7, 5, 1.0);
        let mut m2 = TimerLeakage::new(7, 5, 1.0);
        let quiet: Vec<u64> = vec![0; 50];
        let busy: Vec<u64> = vec![50; 50];
        let t1: Vec<u64> = run_leakage(&mut m1, &quiet, &mut rng)
            .iter()
            .filter(|e| e.released.is_some())
            .map(|e| e.time)
            .collect();
        let t2: Vec<u64> = run_leakage(&mut m2, &busy, &mut rng)
            .iter()
            .filter(|e| e.released.is_some())
            .map(|e| e.time)
            .collect();
        assert_eq!(t1, t2);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let _ = TimerLeakage::new(0, 1, 1.0);
    }
}
