//! Framework configuration.
//!
//! Default values follow Section 7 ("Default setting"): ε = 1.5, cache flush interval
//! `f = 2000`, flush size `s = 15`, `sDPANT` threshold θ = 30, `sDPTimer` interval
//! `T = ⌊θ / ⌈rate⌉⌋` (the quantized form of the paper's `⌊θ/rate⌋` that reproduces
//! its reported T = 10 / T = 3 — see
//! [`IncShrinkConfig::timer_interval_for_threshold`]), truncation bound ω = 1 / 10
//! and contribution budget b = 10 / 20 for the TPC-ds / CPDB workloads respectively.
//!
//! There is no execution knob beside the paper parameters: Transform runs once per
//! upload step, and every join it charges is Algorithm 4's truncated nested loop
//! ([`incshrink_oblivious::nested_loop_join_cost`]), whatever the cost model.

use serde::{Deserialize, Serialize};

/// Which view-maintenance strategy the servers run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum UpdateStrategy {
    /// `sDPTimer` (Algorithm 2): synchronize every `interval` steps with a DP-sized
    /// batch.
    DpTimer {
        /// Update interval `T` in time steps.
        interval: u64,
    },
    /// `sDPANT` (Algorithm 3): synchronize when the noised cardinality exceeds a noised
    /// threshold.
    DpAnt {
        /// The synchronization threshold θ.
        threshold: f64,
    },
    /// Exhaustive padding baseline: append the full padded ΔV to the view every step.
    ExhaustivePadding,
    /// One-time materialization baseline: materialize at the first step, never update.
    OneTimeMaterialization,
    /// Non-materialized baseline (standard SOGDB): no view at all, every query
    /// recomputes the join over the entire outsourced data.
    NonMaterialized,
}

impl UpdateStrategy {
    /// Short label used in experiment tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            UpdateStrategy::DpTimer { .. } => "DP-Timer",
            UpdateStrategy::DpAnt { .. } => "DP-ANT",
            UpdateStrategy::ExhaustivePadding => "EP",
            UpdateStrategy::OneTimeMaterialization => "OTM",
            UpdateStrategy::NonMaterialized => "NM",
        }
    }

    /// Whether this strategy uses the secure cache + Shrink pipeline.
    #[must_use]
    pub(crate) fn uses_shrink(&self) -> bool {
        matches!(
            self,
            UpdateStrategy::DpTimer { .. } | UpdateStrategy::DpAnt { .. }
        )
    }
}

impl std::fmt::Display for UpdateStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Full framework configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IncShrinkConfig {
    /// Privacy parameter ε for the view-update leakage.
    pub epsilon: f64,
    /// Truncation bound ω: max rows a record may contribute per Transform invocation.
    pub truncation_bound: u64,
    /// Lifetime contribution budget b per record.
    pub contribution_budget: u64,
    /// View maintenance strategy.
    pub strategy: UpdateStrategy,
    /// Cache flush interval `f` (time steps).
    pub flush_interval: u64,
    /// Cache flush size `s`.
    pub flush_size: usize,
    /// Issue the evaluation query every this many steps (1 = every step, as in the
    /// paper's evaluation).
    pub query_interval: u64,
}

impl IncShrinkConfig {
    /// Paper defaults for the TPC-ds workload (Q1): ω = 1, b = 10, ε = 1.5.
    #[must_use]
    pub fn tpcds_default(strategy: UpdateStrategy) -> Self {
        Self {
            epsilon: 1.5,
            truncation_bound: 1,
            contribution_budget: 10,
            strategy,
            flush_interval: 2000,
            flush_size: 15,
            query_interval: 1,
        }
    }

    /// Paper defaults for the CPDB workload (Q2): ω = 10, b = 20, ε = 1.5.
    #[must_use]
    pub fn cpdb_default(strategy: UpdateStrategy) -> Self {
        Self {
            epsilon: 1.5,
            truncation_bound: 10,
            contribution_budget: 20,
            strategy,
            flush_interval: 2000,
            flush_size: 15,
            query_interval: 1,
        }
    }

    /// Derive the `sDPTimer` interval that corresponds to an `sDPANT` threshold θ for a
    /// workload with the given mean view-entry rate (Section 7, "Default setting").
    ///
    /// The paper states `T = ⌊θ / rate⌋` but *reports* `T = 10` for TPC-ds
    /// (θ = 30, rate ≈ 2.7, where the bare quotient floors to 11) and `T = 3` for
    /// CPDB (θ = 30, rate ≈ 9.8). Both reported values are reproduced by quantizing
    /// the measured rate **up to a whole number of view entries per step first**:
    /// `T = ⌊θ / ⌈rate⌉⌋` gives ⌊30/3⌋ = 10 and ⌊30/10⌋ = 3. That is the rule
    /// implemented here. It is also the conservative direction: rounding the rate up
    /// can only shorten the interval, so the expected accumulation per timer firing,
    /// `T · rate`, never exceeds θ — the timer synchronizes at least as often as the
    /// ANT threshold it is calibrated against would fire.
    #[must_use]
    pub fn timer_interval_for_threshold(threshold: f64, view_rate_per_step: f64) -> u64 {
        if view_rate_per_step <= 0.0 {
            return 1;
        }
        ((threshold / view_rate_per_step.ceil()).floor() as u64).max(1)
    }

    /// Validate parameter sanity; returns a description of the first problem found.
    #[must_use]
    pub fn validate(&self) -> Option<String> {
        // Written so NaN fails too: every comparison with NaN is false.
        if !(self.epsilon > 0.0 && self.epsilon.is_finite()) {
            return Some(format!(
                "epsilon must be positive and finite, got {}",
                self.epsilon
            ));
        }
        if self.truncation_bound == 0 {
            return Some("truncation bound ω must be at least 1".into());
        }
        if self.contribution_budget < self.truncation_bound {
            return Some(format!(
                "contribution budget b={} smaller than truncation bound ω={}",
                self.contribution_budget, self.truncation_bound
            ));
        }
        if self.flush_interval == 0 {
            return Some("flush interval must be positive".into());
        }
        if self.query_interval == 0 {
            return Some("query interval must be positive".into());
        }
        if let UpdateStrategy::DpTimer { interval } = self.strategy {
            if interval == 0 {
                return Some("sDPTimer interval must be positive".into());
            }
        }
        if let UpdateStrategy::DpAnt { threshold } = self.strategy {
            if !(threshold > 0.0 && threshold.is_finite()) {
                return Some(format!(
                    "sDPANT threshold must be positive and finite, got {threshold}"
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let t = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
        assert_eq!(t.truncation_bound, 1);
        assert_eq!(t.contribution_budget, 10);
        assert!((t.epsilon - 1.5).abs() < 1e-12);
        assert_eq!(t.flush_interval, 2000);
        assert_eq!(t.flush_size, 15);

        let c = IncShrinkConfig::cpdb_default(UpdateStrategy::DpAnt { threshold: 30.0 });
        assert_eq!(c.truncation_bound, 10);
        assert_eq!(c.contribution_budget, 20);
        assert!(c.validate().is_none());
    }

    #[test]
    fn timer_interval_derivation_matches_paper_reported_values() {
        // Section 7 reports T = 10 for TPC-ds (θ = 30, rate ≈ 2.7) and T = 3 for
        // CPDB (θ = 30, rate ≈ 9.8). The bare quotient ⌊30/2.7⌋ = 11 contradicts the
        // TPC-ds value; ceiling the rate first (⌊30/⌈2.7⌉⌋ = 10, ⌊30/⌈9.8⌉⌋ = 3)
        // reproduces both — see the rustdoc for why that is the chosen rule.
        assert_eq!(IncShrinkConfig::timer_interval_for_threshold(30.0, 2.7), 10);
        assert_eq!(IncShrinkConfig::timer_interval_for_threshold(30.0, 9.8), 3);
        // Integer rates are untouched by the quantization.
        assert_eq!(IncShrinkConfig::timer_interval_for_threshold(30.0, 3.0), 10);
        assert_eq!(IncShrinkConfig::timer_interval_for_threshold(30.0, 0.0), 1);
        assert_eq!(IncShrinkConfig::timer_interval_for_threshold(0.5, 100.0), 1);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let mut cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
        assert!(cfg.validate().is_none());
        cfg.epsilon = 0.0;
        assert!(cfg.validate().unwrap().contains("epsilon"));
        cfg.epsilon = 1.0;
        cfg.truncation_bound = 0;
        assert!(cfg.validate().unwrap().contains("truncation"));
        cfg.truncation_bound = 5;
        cfg.contribution_budget = 3;
        assert!(cfg.validate().unwrap().contains("contribution"));
        cfg.contribution_budget = 10;
        cfg.flush_interval = 0;
        assert!(cfg.validate().unwrap().contains("flush"));
        cfg.flush_interval = 10;
        cfg.query_interval = 0;
        assert!(cfg.validate().unwrap().contains("query interval"));
        cfg.query_interval = 1;
        cfg.strategy = UpdateStrategy::DpTimer { interval: 0 };
        assert!(cfg.validate().unwrap().contains("sDPTimer"));
        cfg.strategy = UpdateStrategy::DpAnt { threshold: 0.0 };
        assert!(cfg.validate().unwrap().contains("sDPANT"));
    }

    #[test]
    fn validation_rejects_a_non_finite_epsilon_or_threshold() {
        let timer = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
        for (epsilon, shown) in [(f64::INFINITY, "inf"), (f64::NAN, "NaN")] {
            let cfg = IncShrinkConfig { epsilon, ..timer };
            assert_eq!(
                cfg.validate().as_deref(),
                Some(format!("epsilon must be positive and finite, got {shown}").as_str())
            );
        }
        for (threshold, shown) in [(f64::NAN, "NaN"), (f64::INFINITY, "inf")] {
            let cfg = IncShrinkConfig {
                strategy: UpdateStrategy::DpAnt { threshold },
                ..timer
            };
            assert_eq!(
                cfg.validate().as_deref(),
                Some(format!("sDPANT threshold must be positive and finite, got {shown}").as_str())
            );
        }
    }

    #[test]
    fn strategy_labels_and_capabilities() {
        assert_eq!(UpdateStrategy::DpTimer { interval: 5 }.label(), "DP-Timer");
        assert_eq!(UpdateStrategy::DpAnt { threshold: 1.0 }.label(), "DP-ANT");
        assert_eq!(UpdateStrategy::ExhaustivePadding.label(), "EP");
        assert_eq!(UpdateStrategy::OneTimeMaterialization.label(), "OTM");
        assert_eq!(UpdateStrategy::NonMaterialized.to_string(), "NM");

        assert!(UpdateStrategy::DpAnt { threshold: 1.0 }.uses_shrink());
        assert!(!UpdateStrategy::ExhaustivePadding.uses_shrink());
        assert!(!UpdateStrategy::OneTimeMaterialization.uses_shrink());
    }
}
