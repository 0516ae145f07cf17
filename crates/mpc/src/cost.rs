//! Oblivious-operation accounting and the simulated-time cost model.
//!
//! Garbled-circuit 2PC cost is dominated by the number of AND gates evaluated and
//! the bytes shipped between the parties. Every oblivious operator in this repository
//! reports the kernels it evaluated — compares, swaps and adds, each the generated
//! circuit of [`crate::circuit`] at its operands' public bit widths — and an
//! aggregate's adder tree over its rows ([`crate::circuit::Reduction`]), plus its
//! control ANDs and bytes; [`CostModel`] converts the AND gates, bytes and rounds
//! into a [`SimDuration`] using constants calibrated against the paper's Table 2
//! (see `docs/ARCHITECTURE.md` § "Share flow" and the `table2` row of § "Experiment
//! binaries").

use crate::circuit::{Kernel, Operation, Reduction};
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

/// Counts of primitive oblivious operations performed by a protocol step. Only
/// `secure_ands`, bytes and rounds are priced: the compares, swaps and adds are
/// operation counts for telemetry, their gates already in `secure_ands`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostReport {
    /// Secure comparisons (LT, EQ and the view's θ-condition), at any width.
    pub secure_compares: u64,
    /// Oblivious conditional swaps of a record's payload, at any width.
    pub secure_swaps: u64,
    /// Secure AND gates: every kernel's circuit plus the control ANDs.
    pub secure_ands: u64,
    /// Secure additions (counter updates, sums, hashing rounds).
    pub secure_adds: u64,
    /// Bytes exchanged between the two servers.
    pub bytes_communicated: u64,
    /// Protocol rounds (for latency accounting): one per garbled circuit ([`CostMeter`]).
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

/// Converts [`CostReport`]s to simulated seconds: AND gates, bytes and rounds.
///
/// The default constants are calibrated so that the paper's default configuration
/// (Section 7, "Implementation and configuration": Xeon 3.8 GHz, LAN-connected GCP
/// instances, EMP-Toolkit semi-honest 2PC) lands at roughly the same per-invocation
/// Transform / Shrink / QET magnitudes as Table 2. The ratios reported by the
/// experiments do not depend on these constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Seconds per secure AND gate.
    pub secs_per_and: f64,
    /// Seconds per byte of cross-server communication.
    pub secs_per_byte: f64,
    /// Fixed latency per round: one per garbled circuit (see [`CostMeter`]).
    pub secs_per_round: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Garbled-circuit throughput on a 3.8 GHz Xeon over LAN: ~10M AND gates/s,
        // ~1 Gb/s effective bandwidth, 0.3 ms round latency, one round per garbled
        // circuit whatever its depth (`CostMeter`'s rounds). A kernel costs the ANDs
        // of its generated circuit at its operands' public widths
        // (`crate::circuit::Kernel`): a w-bit LT w, an EQ w − 1, a swap one a
        // payload bit, a flag-keyed compare-exchange one more than its payload;
        // an aggregate's adder tree at its exact widths (`Reduction`): a count
        // under two ANDs a row.
        // A secret bit times a public word is free (XOR shares, free XOR): a join
        // against a public relation places its rows without swaps
        // (`public_inner_join_cost` in incshrink-oblivious). So is a local copy of
        // shares: a view row's second join-key copy is restored after each
        // flag-keyed network instead of swapped through it.
        Self {
            secs_per_and: 1.0 / 10.0e6,
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

    /// Seconds attributable to gate evaluation alone — no bytes or round latency:
    /// the portion of the model that host-side kernel throughput measurements can
    /// re-calibrate.
    #[must_use]
    pub(crate) fn op_secs(&self, report: &CostReport) -> f64 {
        report.secure_ands as f64 * self.secs_per_and
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
///
/// **Gates:** an operator records each kernel it evaluates with [`Self::kernels`]
/// at its operands' public width: the kernel's generated circuit
/// ([`crate::circuit::Kernel`]) sets its ANDs, read from a memoised table, and
/// the kernel counts once as a compare, swap or add. An aggregate's adder tree is
/// one [`crate::circuit::Reduction`] over the scanned rows, recorded with
/// [`Self::reductions`] at its closed-form AND count. [`Self::ands`] records
/// control ANDs outside any kernel.
///
/// **Rounds:** one per garbled circuit, whatever its depth, never one per kernel. A
/// gate or byte opens a circuit; [`Self::release`] (the host learns a public value)
/// or [`Self::take`] closes it, charging its round.
#[derive(Debug, Default, Clone)]
pub struct CostMeter {
    total: CostReport,
    model: CostModel,
    /// The report as of the last close: a circuit is open while the gates and
    /// bytes recorded differ from it.
    closed: CostReport,
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

    /// Record `n` evaluations of `kernel`: the ANDs of its generated circuit each
    /// (read from the memoised table, never built here), and `n` compares, swaps or
    /// adds in the operation counts.
    pub fn kernels(&mut self, n: u64, kernel: Kernel) {
        let count = match kernel.operation() {
            Operation::Compare => &mut self.total.secure_compares,
            Operation::Swap => &mut self.total.secure_swaps,
            Operation::Add => &mut self.total.secure_adds,
        };
        *count += n;
        self.total.secure_ands += n.saturating_mul(kernel.ands());
    }

    /// Record `n` evaluations of `reduction`: its closed-form AND count each (no
    /// circuit is built), and its rows as adds in the operation counts.
    pub fn reductions(&mut self, n: u64, reduction: Reduction) {
        self.total.secure_adds += n.saturating_mul(reduction.adds());
        self.total.secure_ands += n.saturating_mul(reduction.ands());
    }

    /// Record `n` secure AND gates of control logic outside any [`Kernel`].
    pub fn ands(&mut self, n: u64) {
        self.total.secure_ands += n;
    }

    /// Record communicated bytes.
    pub fn bytes(&mut self, n: u64) {
        self.total.bytes_communicated += n;
    }

    /// The host learns a public value here (a released size, a comparison bit):
    /// close the open circuit, charging its one round. Nothing when none is open.
    pub fn release(&mut self) {
        self.closed.rounds = self.total.rounds;
        self.total.rounds += u64::from(self.closed != self.total);
        self.closed = self.total;
    }

    /// Snapshot of the accumulated report, less the round of an open circuit.
    #[must_use]
    pub fn report(&self) -> CostReport {
        self.total
    }

    /// Close the open circuit, reset the meter and return what had been accumulated.
    pub fn take(&mut self) -> CostReport {
        self.release();
        self.closed = CostReport::default();
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
            secure_ands: 10,
            ..CostReport::default()
        };
        let large = CostReport {
            secure_ands: 10_000,
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
        // Only the ANDs are priced: the operation counts carry no price of their own.
        assert!((model.op_secs(&gates_only) - 40.0 * model.secs_per_and).abs() < 1e-15);
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
        meter.kernels(5, Kernel::Lt(11));
        meter.kernels(2, Kernel::Swap(4));
        meter.ands(3);
        meter.kernels(7, Kernel::Add(32));
        meter.bytes(64);
        meter.record(CostReport {
            bytes_communicated: 36,
            ..CostReport::default()
        });
        let report = meter.report();
        assert_eq!(report.secure_compares, 5);
        assert_eq!(report.secure_swaps, 2);
        assert_eq!(report.secure_adds, 7);
        // Each kernel's ANDs are its generated circuit's, counted afresh here.
        let ands = 5 * Kernel::Lt(11).circuit().and_count()
            + 2 * Kernel::Swap(4).circuit().and_count()
            + 3
            + 7 * Kernel::Add(32).circuit().and_count();
        assert_eq!(report.secure_ands, ands);
        assert_eq!(report.bytes_communicated, 100);
        assert_eq!(
            report.rounds, 0,
            "an open circuit's round is charged on close"
        );
        let mut closed = report;
        closed.rounds = 1;
        assert_eq!(meter.take(), closed);
        assert!(meter.report().is_empty());
        // One circuit whatever it evaluates, closed once; nothing recorded, none.
        meter.ands(3);
        meter.release();
        meter.release();
        meter.kernels(0, Kernel::Eq(8));
        assert_eq!(meter.take().rounds, 1);
        assert!(meter.take().is_empty());
    }

    #[test]
    fn reductions_charge_their_generated_ands_and_count_their_rows() {
        let (count, sum) = (
            Reduction::Count { rows: 10 },
            Reduction::Sum { rows: 5, bits: 7 },
        );
        let mut meter = CostMeter::new();
        meter.reductions(3, count);
        meter.reductions(1, sum);
        let r = meter.report();
        let ands = 3 * count.circuit().and_count() + sum.circuit().and_count();
        assert_eq!((r.secure_ands, r.secure_adds), (ands, 3 * 10 + 2 * 5));
        assert_eq!((r.secure_compares, r.secure_swaps), (0, 0));
    }

    #[test]
    fn each_kernel_counts_as_its_operation() {
        let kinds = [
            (Kernel::Lt(3), [1, 0, 0]),
            (Kernel::Eq(3), [1, 0, 0]),
            (Kernel::Theta(3), [1, 0, 0]),
            (Kernel::Swap(3), [0, 1, 0]),
            (Kernel::CompareExchange(3), [0, 1, 0]),
            (Kernel::Add(3), [0, 0, 1]),
        ];
        for (kernel, [compares, swaps, adds]) in kinds {
            let mut meter = CostMeter::new();
            meter.kernels(1, kernel);
            let r = meter.report();
            assert_eq!(
                [r.secure_compares, r.secure_swaps, r.secure_adds],
                [compares, swaps, adds],
                "{kernel:?}"
            );
            assert_eq!(r.secure_ands, kernel.circuit().and_count(), "{kernel:?}");
        }
    }
}
