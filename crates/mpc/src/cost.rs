//! Oblivious-operation accounting and the simulated-time cost model.
//!
//! Garbled-circuit 2PC cost is dominated by the number of non-free gates evaluated and
//! the bytes shipped between the parties. Every oblivious operator in this repository
//! reports how many *secure comparisons*, *conditional swaps*, *secure ANDs* and bytes
//! it consumed; [`CostModel`] converts those counts into a [`SimDuration`] using
//! per-operation constants calibrated against the paper's Table 2 (see
//! `docs/ARCHITECTURE.md` § "Share flow" and the `table2` row of § "Experiment binaries").

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// Simulated wall-clock duration, in nanoseconds. A type of its own so that
/// simulated time is never confused with host time in the experiment drivers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SimDuration {
    nanos: u128,
}

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration { nanos: 0 };

    /// Build from fractional seconds. Negative inputs clamp to zero.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            return Self::ZERO;
        }
        Self {
            nanos: (secs * 1e9) as u128,
        }
    }

    /// The duration in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Saturating scalar multiplication, used when replaying one measured protocol
    /// execution over many identical steps.
    #[must_use]
    pub fn scale(self, factor: f64) -> Self {
        Self::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: Self) -> Self::Output {
        SimDuration {
            nanos: self.nanos.saturating_add(rhs.nanos),
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: Self) {
        self.nanos = self.nanos.saturating_add(rhs.nanos);
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

/// Counts of primitive oblivious operations performed by a protocol step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostReport {
    /// Secure (garbled) comparisons of 32-bit words.
    pub secure_compares: u64,
    /// Oblivious conditional swaps of whole records.
    pub secure_swaps: u64,
    /// Secure AND / multiplexer gates on single bits.
    pub secure_ands: u64,
    /// Secure 32-bit additions (counter updates, noise arithmetic).
    pub secure_adds: u64,
    /// Bytes exchanged between the two servers.
    pub bytes_communicated: u64,
    /// Number of distinct protocol rounds (for latency accounting).
    pub rounds: u64,
}

impl CostReport {
    /// True when the report is all zeros.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Field-wise saturating difference. Used to price the *gap* between two modelled
    /// executions (e.g. a join against the full outsourced relation vs the physically
    /// scanned subset) without ever going negative.
    #[must_use]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self {
            secure_compares: self.secure_compares.saturating_sub(rhs.secure_compares),
            secure_swaps: self.secure_swaps.saturating_sub(rhs.secure_swaps),
            secure_ands: self.secure_ands.saturating_sub(rhs.secure_ands),
            secure_adds: self.secure_adds.saturating_sub(rhs.secure_adds),
            bytes_communicated: self
                .bytes_communicated
                .saturating_sub(rhs.bytes_communicated),
            rounds: self.rounds.saturating_sub(rhs.rounds),
        }
    }
}

impl From<CostReport> for incshrink_telemetry::CostDelta {
    fn from(report: CostReport) -> Self {
        incshrink_telemetry::CostDelta {
            compares: report.secure_compares,
            swaps: report.secure_swaps,
            ands: report.secure_ands,
            adds: report.secure_adds,
            bytes: report.bytes_communicated,
            rounds: report.rounds,
            ..Default::default()
        }
    }
}

impl Add for CostReport {
    type Output = CostReport;
    fn add(self, rhs: Self) -> Self::Output {
        CostReport {
            secure_compares: self.secure_compares + rhs.secure_compares,
            secure_swaps: self.secure_swaps + rhs.secure_swaps,
            secure_ands: self.secure_ands + rhs.secure_ands,
            secure_adds: self.secure_adds + rhs.secure_adds,
            bytes_communicated: self.bytes_communicated + rhs.bytes_communicated,
            rounds: self.rounds + rhs.rounds,
        }
    }
}

impl AddAssign for CostReport {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for CostReport {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(CostReport::default(), Add::add)
    }
}

/// Converts [`CostReport`]s to simulated seconds.
///
/// The default constants are calibrated so that the paper's default configuration
/// (Section 7, "Implementation and configuration": Xeon 3.8 GHz, LAN-connected GCP
/// instances, EMP-Toolkit semi-honest 2PC) lands at roughly the same per-invocation
/// Transform / Shrink / QET magnitudes as Table 2. The ratios reported by the
/// experiments do not depend on these constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Seconds per secure 32-bit comparison.
    pub secs_per_compare: f64,
    /// Seconds per oblivious record swap.
    pub secs_per_swap: f64,
    /// Seconds per secure single-bit AND gate.
    pub secs_per_and: f64,
    /// Seconds per secure 32-bit addition.
    pub secs_per_add: f64,
    /// Seconds per byte of cross-server communication.
    pub secs_per_byte: f64,
    /// Fixed latency per communication round.
    pub secs_per_round: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Garbled-circuit throughput on a 3.8 GHz Xeon over LAN:
        // ~10M AND gates/s, a 32-bit comparison ~ 32 AND gates, a record swap of
        // w words ~ 32w multiplexer gates (the operators expand swaps by width),
        // ~1 Gb/s effective bandwidth, 0.3 ms round latency. A comparator keyed by
        // one flag bit is no 32-bit comparison but 1 AND gate, its swap carrying
        // the other words only (`Network::charge_flag_keyed` in incshrink-oblivious,
        // a declared substitution), or 1 AND per conditional swap of a compaction
        // that only brings the reals first, plus its control's ANDs
        // (`Compaction::charge`). A secret bit times a public word is free (XOR
        // shares, free XOR): a join against a public relation places its rows
        // without swaps (`public_inner_join_cost`). So is a local copy of shares:
        // a view row's second join-key copy is restored after each flag-keyed
        // network instead of swapped through it.
        Self {
            secs_per_compare: 32.0 / 10.0e6,
            secs_per_swap: 32.0 / 10.0e6,
            secs_per_and: 1.0 / 10.0e6,
            secs_per_add: 32.0 / 10.0e6,
            secs_per_byte: 8.0 / 1.0e9,
            secs_per_round: 0.3e-3,
        }
    }
}

impl CostModel {
    /// A cost model for a WAN deployment (higher latency, lower bandwidth); used by
    /// ablation benches to show the framework's relative results are network-robust.
    #[must_use]
    pub fn wan() -> Self {
        Self {
            secs_per_byte: 8.0 / 100.0e6,
            secs_per_round: 40.0e-3,
            ..Self::default()
        }
    }

    /// Seconds attributable to gate evaluation alone (compares, swaps, ANDs, adds) —
    /// no bytes or round latency: the portion of the model that host-side kernel
    /// throughput measurements can re-calibrate.
    #[must_use]
    pub(crate) fn op_secs(&self, report: &CostReport) -> f64 {
        report.secure_compares as f64 * self.secs_per_compare
            + report.secure_swaps as f64 * self.secs_per_swap
            + report.secure_ands as f64 * self.secs_per_and
            + report.secure_adds as f64 * self.secs_per_add
    }

    /// Convert an operation report into simulated time.
    #[must_use]
    pub fn simulate(&self, report: &CostReport) -> SimDuration {
        let secs = self.op_secs(report)
            + report.bytes_communicated as f64 * self.secs_per_byte
            + report.rounds as f64 * self.secs_per_round;
        SimDuration::from_secs_f64(secs)
    }
}

/// A running accumulator of operation counts, shared by nested oblivious operators,
/// and the [`CostModel`] they are priced with.
#[derive(Debug, Default, Clone)]
pub struct CostMeter {
    total: CostReport,
    model: CostModel,
}

impl CostMeter {
    /// Fresh meter, priced with the default model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh meter, priced with `model`.
    #[must_use]
    pub(crate) fn priced(model: CostModel) -> Self {
        Self {
            model,
            ..Self::default()
        }
    }

    /// The model this meter's operations are priced with.
    #[must_use]
    pub(crate) fn model(&self) -> CostModel {
        self.model
    }

    /// Record additional operations.
    pub fn record(&mut self, report: CostReport) {
        self.total += report;
    }

    /// Record `n` secure comparisons.
    pub fn compares(&mut self, n: u64) {
        self.total.secure_compares += n;
    }

    /// Record `n` oblivious swaps of records that are `width` words wide.
    pub fn swaps(&mut self, n: u64, width: u64) {
        self.total.secure_swaps += n * width.max(1);
    }

    /// Record `n` secure AND gates.
    pub fn ands(&mut self, n: u64) {
        self.total.secure_ands += n;
    }

    /// Record `n` secure additions.
    pub fn adds(&mut self, n: u64) {
        self.total.secure_adds += n;
    }

    /// Record communicated bytes within the current round.
    pub fn bytes(&mut self, n: u64) {
        self.total.bytes_communicated += n;
    }

    /// Record one protocol round.
    pub fn round(&mut self) {
        self.total.rounds += 1;
    }

    /// Snapshot of the accumulated report.
    #[must_use]
    pub fn report(&self) -> CostReport {
        self.total
    }

    /// Reset the meter and return what had been accumulated.
    pub fn take(&mut self) -> CostReport {
        std::mem::take(&mut self.total)
    }
}

/// A telemetry span over a stretch of metered work: on [`Self::close`] it records
/// the operations the meter accrued while it was open and their simulated time
/// under the meter's model — how an operator splits its cost into named
/// sub-phases. Inert, like every span, when no collector is installed.
#[must_use = "close the span to record it"]
pub struct MeteredSpan {
    span: incshrink_telemetry::Span,
    before: CostReport,
}

impl MeteredSpan {
    /// Open a span named `name` over the work `meter` records from now on.
    pub fn enter(name: &'static str, meter: &CostMeter) -> Self {
        Self {
            span: incshrink_telemetry::Span::enter(name),
            before: meter.report(),
        }
    }

    /// Close the span, stamping it with what `meter` accrued since it opened.
    pub fn close(mut self, meter: &CostMeter) {
        let cost = meter.report().saturating_sub(self.before);
        self.span
            .record_sim_secs(meter.model.simulate(&cost).as_secs_f64());
        self.span.record_cost(cost.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_duration_arithmetic() {
        let a = SimDuration::from_secs_f64(1.5);
        let b = SimDuration::from_secs_f64(0.5);
        assert!((a + b).as_secs_f64() - 2.0 < 1e-9);
        let mut c = a;
        c += b;
        assert!((c.as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert!((a.scale(2.0).as_secs_f64() - 3.0).abs() < 1e-9);
        let total: SimDuration = [a, b, b].into_iter().sum();
        assert!((total.as_secs_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn cost_report_addition_and_gates() {
        let a = CostReport {
            secure_compares: 2,
            secure_swaps: 3,
            secure_ands: 4,
            secure_adds: 1,
            bytes_communicated: 100,
            rounds: 1,
        };
        let b = CostReport {
            bytes_communicated: 50,
            rounds: 1,
            ..CostReport::default()
        };
        let c = a + b;
        assert_eq!(c.bytes_communicated, 150);
        assert_eq!(c.rounds, 2);
        assert!(!a.is_empty());
        assert!(CostReport::default().is_empty());
        let summed: CostReport = [a, b].into_iter().sum();
        assert_eq!(summed, c);
    }

    #[test]
    fn cost_model_monotone_in_work() {
        let model = CostModel::default();
        let small = CostReport {
            secure_compares: 10,
            ..CostReport::default()
        };
        let large = CostReport {
            secure_compares: 10_000,
            ..CostReport::default()
        };
        assert!(model.simulate(&large) > model.simulate(&small));
        assert_eq!(model.simulate(&CostReport::default()), SimDuration::ZERO);
    }

    #[test]
    fn op_secs_is_the_gate_only_portion_of_simulate() {
        let model = CostModel::default();
        let gates_only = CostReport {
            secure_compares: 11,
            secure_swaps: 7,
            secure_ands: 40,
            secure_adds: 3,
            ..CostReport::default()
        };
        let with_network = CostReport {
            bytes_communicated: 4096,
            rounds: 2,
            ..gates_only
        };
        assert!(
            (model.op_secs(&gates_only) - model.simulate(&gates_only).as_secs_f64()).abs() < 1e-12
        );
        // Network terms do not move op_secs.
        assert!((model.op_secs(&with_network) - model.op_secs(&gates_only)).abs() < 1e-15);
        assert!(model.simulate(&with_network) > model.simulate(&gates_only));
    }

    #[test]
    fn wan_model_charges_more_for_communication() {
        let lan = CostModel::default();
        let wan = CostModel::wan();
        let report = CostReport {
            bytes_communicated: 1_000_000,
            rounds: 10,
            ..CostReport::default()
        };
        assert!(wan.simulate(&report) > lan.simulate(&report));
    }

    #[test]
    fn meter_accumulates_and_takes() {
        let mut meter = CostMeter::new();
        meter.compares(5);
        meter.swaps(2, 4);
        meter.ands(3);
        meter.adds(7);
        meter.bytes(64);
        meter.round();
        meter.record(CostReport {
            bytes_communicated: 36,
            rounds: 1,
            ..CostReport::default()
        });
        let report = meter.report();
        assert_eq!(report.secure_compares, 5);
        assert_eq!(report.secure_swaps, 8);
        assert_eq!(report.secure_ands, 3);
        assert_eq!(report.secure_adds, 7);
        assert_eq!(report.bytes_communicated, 100);
        assert_eq!(report.rounds, 2);
        let taken = meter.take();
        assert_eq!(taken, report);
        assert!(meter.report().is_empty());
    }
}
