//! Differential-privacy machinery for IncShrink.
//!
//! This crate collects everything probabilistic and everything privacy-accounting
//! related:
//!
//! * [`laplace`] — Laplace sampling (inverse-CDF, matching the fixed-point construction
//!   used inside the protocols) and the plain Laplace mechanism.
//! * [`joint`] — the joint noise-adding protocol `JointNoise(S0, S1, Δ, ε, x)` of
//!   Section 5.2, built on the simulated 2PC runtime so that neither server controls
//!   or predicts the randomness.
//! * [`svt`] — the Numeric Above Noisy Threshold mechanism (Algorithm 5) underpinning
//!   `sDPANT`.
//! * [`mechanisms`] — the leakage-profile mechanisms `M_timer` and `M_ant` used in the
//!   security proofs (Theorems 7 & 8); implemented standalone so tests and benches can
//!   compare the protocols' observable leakage against these mechanisms.
//! * [`cut`] — Shrinkwrap-style DP sizing of intermediate results: noisy
//!   per-bucket load releases and report-noisy-max bucket picks for the elastic
//!   sharding control plane.
//! * [`accountant`] — q-stability bookkeeping and sequential/parallel composition
//!   (Lemma 2, Theorem 3); the per-record contribution budget is enforced by
//!   Transform's window, not counted here.
//! * [`bounds`] — closed-form error bounds of Theorems 4, 5 and 6 (deferred-data and
//!   dummy-data bounds) used by the experiment harness and by property tests.
//! * [`sync`] — owner-side record-synchronization strategies from DP-Sync (Section 8,
//!   "Connecting with DP-Sync").

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod accountant;
pub mod bounds;
pub mod cut;
pub mod joint;
pub mod laplace;
pub mod mechanisms;
pub mod svt;
pub mod sync;
pub mod user_level;

pub use accountant::{PrivacyAccountant, StableTransform};
pub use bounds::{ant_deferred_bound, timer_deferred_bound, timer_dummy_bound};
pub use cut::NoisyCutSizer;
pub use joint::joint_laplace_noise;
pub use laplace::{laplace_from_unit, LaplaceMechanism};
pub use mechanisms::{AntLeakage, TimerLeakage, UpdateLeakage};
pub use svt::NumericAboveThreshold;
pub use sync::{FixedIntervalSync, RecordSyncStrategy, SyncDecision};
pub use user_level::{achieved_epsilon_at, correlated_epsilon, event_epsilon_for, PrivacyUnit};
