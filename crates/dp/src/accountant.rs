//! Stability bookkeeping and privacy accounting.
//!
//! IncShrink's privacy argument (Section 5.1, Lemmas 1-2, Theorem 3) has two parts:
//!
//! 1. each invocation of Transform is a *q-stable* transformation (each input record
//!    changes at most `q = ω` rows of the output), so an ε-DP mechanism applied to the
//!    output is `qε`-DP with respect to the input; and
//! 2. across time, every record carries a lifetime **contribution budget** `b`; once a
//!    record's budget is exhausted it is retired and never fed to Transform again, so
//!    the composed transformation is `b`-stable and the total privacy loss is bounded
//!    by `b · max_i ε_i` (Theorem 3 specialised to budgeted contributions).
//!
//! The budget needs no per-record bookkeeping: a record is charged ω per invocation
//! whether or not it matches, so it retires a fixed `b/ω − 1` steps after its upload
//! step. `incshrink::transform` enforces that by stamping each active record with
//! the last step it may join at, against the same public window
//! (`incshrink_storage::ActiveWindow`) the servers keep. [`PrivacyAccountant`] tracks
//! the ε consumed by each mechanism application and evaluates the Theorem-3 bound.

use serde::{Deserialize, Serialize};

/// A q-stable transformation descriptor (Lemma 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StableTransform {
    /// Stability constant: each input record affects at most `stability` output rows.
    pub stability: u64,
}

impl StableTransform {
    /// Effective privacy parameter of an ε-DP mechanism applied to the transformation's
    /// output (Lemma 2): `q · ε`.
    #[must_use]
    pub fn amplified_epsilon(&self, mechanism_epsilon: f64) -> f64 {
        self.stability as f64 * mechanism_epsilon
    }
}

/// One mechanism application recorded by the accountant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MechanismApplication {
    /// ε of the mechanism as applied to the *transformed* data.
    pub mechanism_epsilon: f64,
    /// Stability of the transformation feeding the mechanism.
    pub stability: u64,
    /// Whether this application touches data disjoint from every other application
    /// (parallel composition) or potentially overlapping data (sequential composition).
    pub disjoint: bool,
}

/// Privacy-loss accountant evaluating the bounds of Lemma 2 / Theorem 3 and the
/// parallel-composition argument used in Theorem 7.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PrivacyAccountant {
    applications: Vec<MechanismApplication>,
}

impl PrivacyAccountant {
    /// Fresh accountant with no recorded applications.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a mechanism application.
    pub fn record(&mut self, app: MechanismApplication) {
        self.applications.push(app);
    }

    /// Number of recorded applications.
    #[must_use]
    pub fn len(&self) -> usize {
        self.applications.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.applications.is_empty()
    }

    /// Worst-case privacy loss for a single logical update under the budgeted
    /// contribution scheme: because a record can contribute to at most
    /// `b = lifetime_stability` output rows over its lifetime, Theorem 3's
    /// `max_u Σ_{i : τ_i(u) > 0} q_i ε_i` is bounded by `b · max_i ε_i` when every
    /// per-invocation mechanism uses the same ε, and more generally by
    /// `lifetime_stability · max_i ε_i`.
    #[must_use]
    pub fn budgeted_epsilon(&self, lifetime_stability: u64) -> f64 {
        let max_eps = self
            .applications
            .iter()
            .map(|a| a.mechanism_epsilon)
            .fold(0.0_f64, f64::max);
        lifetime_stability as f64 * max_eps
    }

    /// The recorded applications, in order.
    #[must_use]
    pub fn applications(&self) -> &[MechanismApplication] {
        &self.applications
    }

    /// Largest per-invocation mechanism ε recorded (0 when empty).
    #[must_use]
    pub fn max_mechanism_epsilon(&self) -> f64 {
        self.applications
            .iter()
            .map(|a| a.mechanism_epsilon)
            .fold(0.0_f64, f64::max)
    }

    /// Rebuild an accountant from a replayed telemetry ε-ledger: each
    /// [`LedgerEntry`](incshrink_telemetry::LedgerEntry) is one mechanism
    /// invocation at its per-invocation ε, recorded as a 1-stable sequential
    /// application (stability amplification is already reflected in the
    /// entry's sensitivity, not its ε).
    #[must_use]
    pub fn replay_ledger(entries: &[incshrink_telemetry::LedgerEntry]) -> Self {
        let mut accountant = Self::new();
        for entry in entries {
            accountant.record(MechanismApplication {
                mechanism_epsilon: entry.epsilon,
                stability: 1,
                disjoint: false,
            });
        }
        accountant
    }

    /// Reconcile this accountant's claimed budget with a replayed ε-ledger
    /// under the Theorem-3 bound: the ledger must be non-empty whenever the
    /// accountant recorded applications, and no single spend in the ledger may
    /// push the replayed `b · max ε` bound above the claimed one.
    #[must_use]
    pub fn reconciles_with_ledger(
        &self,
        entries: &[incshrink_telemetry::LedgerEntry],
        lifetime_stability: u64,
    ) -> bool {
        if self.is_empty() {
            return entries.is_empty();
        }
        if entries.is_empty() {
            return false;
        }
        let replayed = Self::replay_ledger(entries);
        replayed.budgeted_epsilon(lifetime_stability)
            <= self.budgeted_epsilon(lifetime_stability) + 1e-9
    }

    /// Naive sequential-composition bound (no contribution constraint): the sum of
    /// `q_i · ε_i` over all non-disjoint applications plus the max over disjoint ones.
    /// This is the quantity that *grows without bound* when contributions are not
    /// constrained — exposed so tests can demonstrate why the budget is needed.
    #[must_use]
    pub fn unbudgeted_epsilon(&self) -> f64 {
        let sequential: f64 = self
            .applications
            .iter()
            .filter(|a| !a.disjoint)
            .map(|a| a.stability as f64 * a.mechanism_epsilon)
            .sum();
        let parallel_max = self
            .applications
            .iter()
            .filter(|a| a.disjoint)
            .map(|a| a.stability as f64 * a.mechanism_epsilon)
            .fold(0.0_f64, f64::max);
        sequential + parallel_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stable_transform_amplification() {
        let t = StableTransform { stability: 10 };
        assert!((t.amplified_epsilon(0.15) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn accountant_budgeted_vs_unbudgeted() {
        let mut acc = PrivacyAccountant::new();
        assert!(acc.is_empty());
        // 100 invocations of an ε=0.15 mechanism over ω=1-stable transforms of
        // overlapping data: unbudgeted loss grows to 15, budgeted stays at b·ε.
        for _ in 0..100 {
            acc.record(MechanismApplication {
                mechanism_epsilon: 0.15,
                stability: 1,
                disjoint: false,
            });
        }
        assert_eq!(acc.len(), 100);
        assert!((acc.unbudgeted_epsilon() - 15.0).abs() < 1e-9);
        assert!((acc.budgeted_epsilon(10) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn accountant_parallel_composition_takes_max() {
        let mut acc = PrivacyAccountant::new();
        for eps in [0.2, 0.5, 0.3] {
            acc.record(MechanismApplication {
                mechanism_epsilon: eps,
                stability: 2,
                disjoint: true,
            });
        }
        // Parallel composition over disjoint data: only the max term counts.
        assert!((acc.unbudgeted_epsilon() - 1.0).abs() < 1e-9);
        assert!((acc.budgeted_epsilon(4) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ledger_replay_reconciles_with_the_claimed_budget() {
        let entry = |epsilon: f64| incshrink_telemetry::LedgerEntry {
            mechanism: "timer.sync".to_string(),
            epsilon,
            sensitivity: 10.0,
            step: Some(1),
            shard: None,
        };
        let mut claimed = PrivacyAccountant::new();
        claimed.record(MechanismApplication {
            mechanism_epsilon: 0.15,
            stability: 1,
            disjoint: false,
        });
        // Any number of spends at (or below) the claimed per-invocation ε
        // reconciles; a single overspend does not.
        let within: Vec<_> = (0..40).map(|_| entry(0.15)).collect();
        assert!(claimed.reconciles_with_ledger(&within, 10));
        assert!((claimed.max_mechanism_epsilon() - 0.15).abs() < 1e-12);
        let mut overspent = within.clone();
        overspent.push(entry(0.2));
        assert!(!claimed.reconciles_with_ledger(&overspent, 10));
        // An empty ledger against recorded applications means emission is
        // broken; an empty accountant expects an empty ledger.
        assert!(!claimed.reconciles_with_ledger(&[], 10));
        assert!(PrivacyAccountant::new().reconciles_with_ledger(&[], 10));
        assert!(!PrivacyAccountant::new().reconciles_with_ledger(&within, 10));
        assert_eq!(PrivacyAccountant::replay_ledger(&within).len(), 40);
        assert_eq!(claimed.applications().len(), 1);
    }

    proptest! {
        #[test]
        fn prop_budgeted_epsilon_independent_of_invocation_count(
            eps in 0.01f64..2.0, b in 1u64..30, n in 1usize..200) {
            let mut acc = PrivacyAccountant::new();
            for _ in 0..n {
                acc.record(MechanismApplication {
                    mechanism_epsilon: eps,
                    stability: 1,
                    disjoint: false,
                });
            }
            let bound = acc.budgeted_epsilon(b);
            prop_assert!((bound - b as f64 * eps).abs() < 1e-9);
        }
    }
}
