//! Oblivious selection (filter) — Appendix A.1.1.
//!
//! Each input record can contribute to the output of a selection at most once, so no
//! extra truncation machinery is needed. To preserve obliviousness the operator
//! returns *all* input rows; rows that fail the predicate simply have their hidden
//! `isView` bit cleared and become dummies. The servers observe only the (public)
//! input length.
//!
//! # Physical evaluation
//! The operator recovers the input once into column-major lanes
//! ([`incshrink_secretshare::SharedColumnsPair`]) and, for the structurally known
//! predicate shapes ([`PredicateKind::All`] / [`PredicateKind::Le`] /
//! [`PredicateKind::Eq`]), evaluates the keep mask as branch-free word arithmetic
//! over whole lanes — no per-record allocation, no data-dependent branches.
//! Arbitrary closures ([`PredicateKind::Opaque`]) fall back to a per-record
//! evaluation over a reused scratch buffer. Either way the re-shared output draws
//! its masks in exactly the order the record-major implementation did, so
//! trajectories are bit-identical.

use incshrink_mpc::cost::CostMeter;
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::columns::{eq_word, lt_word, SharedColumnsPair};
use incshrink_secretshare::tuple::SharedRecordPair;
use rand::Rng;

/// Boxed predicate function over a record's plaintext field values.
pub(crate) type PredicateFn<'a> = Box<dyn Fn(&[u32]) -> bool + 'a>;

/// Structural shape of a [`Predicate`], discovered by its constructor.
///
/// The SoA filter and aggregate kernels evaluate the structured shapes as
/// branch-free lane arithmetic; [`PredicateKind::Opaque`] closures are evaluated
/// record by record. The two paths are extensionally identical — `kind` only
/// selects the physical evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateKind {
    /// Matches every record.
    All,
    /// `fields[field] <= bound`.
    Le {
        /// Index of the compared field.
        field: usize,
        /// Inclusive upper bound.
        bound: u32,
    },
    /// `fields[field] == value`.
    Eq {
        /// Index of the compared field.
        field: usize,
        /// Value the field must equal.
        value: u32,
    },
    /// Arbitrary closure; no lane form, evaluated per record.
    Opaque,
}

/// A selection predicate over plaintext field values.
///
/// The closure is evaluated "inside" the simulated MPC: in a garbled-circuit
/// execution the predicate circuit would see the joint value without revealing it to
/// either server. The cost accounting charges one secure comparison and one AND gate
/// per record regardless of the outcome.
pub struct Predicate<'a> {
    /// Human-readable name used in logs and plan explanations.
    pub name: &'a str,
    /// The predicate function over the record's fields.
    pub test: PredicateFn<'a>,
    /// Structural shape, used to pick the physical evaluation strategy.
    pub kind: PredicateKind,
}

impl<'a> Predicate<'a> {
    /// Build a predicate from a closure. The closure's structure is unknown, so
    /// kernels evaluate it record by record ([`PredicateKind::Opaque`]).
    #[must_use]
    pub fn new(name: &'a str, test: impl Fn(&[u32]) -> bool + 'a) -> Self {
        Self {
            name,
            test: Box::new(test),
            kind: PredicateKind::Opaque,
        }
    }

    /// The always-true predicate (an unfiltered scan); evaluates lane-wise.
    #[must_use]
    pub fn all(name: &'a str) -> Self {
        Self {
            name,
            test: Box::new(|_| true),
            kind: PredicateKind::All,
        }
    }

    /// `field <= bound` predicate, the shape used by the paper's Q1/Q2 temporal filters.
    #[must_use]
    pub fn le(name: &'a str, field: usize, bound: u32) -> Self {
        Self {
            name,
            test: Box::new(move |fields| fields.get(field).copied().unwrap_or(u32::MAX) <= bound),
            kind: PredicateKind::Le { field, bound },
        }
    }

    /// Equality predicate on one field.
    #[must_use]
    pub fn eq(name: &'a str, field: usize, value: u32) -> Self {
        Self {
            name,
            test: Box::new(move |fields| fields.get(field).copied() == Some(value)),
            kind: PredicateKind::Eq { field, value },
        }
    }

    /// Evaluate `is_view ∧ predicate` over a column-major array, producing a 0/1
    /// mask word per record. Structured kinds run branch-free and read only the
    /// `isView` lane and the one field lane they name; opaque closures recover
    /// every lane and gather each record's fields into a reused scratch buffer.
    #[must_use]
    pub(crate) fn mask_columns(&self, columns: &SharedColumnsPair) -> Vec<u64> {
        let mut mask = columns.real_mask();
        match self.kind {
            PredicateKind::All => {}
            // Missing field reads as u32::MAX: matches only a saturated bound.
            PredicateKind::Le { field, bound } if field >= columns.arity() => {
                if bound != u32::MAX {
                    mask.fill(0);
                }
            }
            PredicateKind::Le { field, bound } => {
                // a <= bound  ⇔  ¬(bound < a)
                columns.narrow_mask(field, &mut mask, |a| 1 ^ lt_word(u64::from(bound), a));
            }
            // Missing field never equals anything.
            PredicateKind::Eq { field, value } => {
                columns.narrow_mask(field, &mut mask, |a| eq_word(a, u64::from(value)));
            }
            PredicateKind::Opaque => {
                let lanes: Vec<Vec<u64>> = (0..columns.arity())
                    .map(|f| columns.recovered_field_lane(f))
                    .collect();
                let mut scratch = vec![0u32; lanes.len()];
                for (i, m) in mask.iter_mut().enumerate() {
                    for (slot, lane) in scratch.iter_mut().zip(&lanes) {
                        *slot = lane[i] as u32;
                    }
                    *m = u64::from(*m != 0 && (self.test)(&scratch));
                }
            }
        }
        mask
    }
}

/// Obliviously filter `input`: the output has exactly the same length and record
/// order; records failing `predicate` (and records that were already dummies) have
/// `isView = 0` in the output (Appendix A.1.1).
///
/// Cost: one secure comparison and one AND per record, plus re-sharing the rewritten
/// array. Leakage: none beyond the public length — selectivity stays hidden because
/// every record is emitted and only the hidden flag changes.
pub fn oblivious_filter<R: Rng + ?Sized>(
    input: &SharedArrayPair,
    predicate: &Predicate<'_>,
    meter: &mut CostMeter,
    rng: &mut R,
) -> SharedArrayPair {
    let mut out = match input.arity() {
        Some(a) => SharedArrayPair::with_arity(a),
        None => SharedArrayPair::new(),
    };
    meter.compares(input.len() as u64);
    meter.ands(input.len() as u64);
    meter.bytes((input.len() * (input.arity().unwrap_or(0) + 1) * 4) as u64);
    meter.round();

    let columns = SharedColumnsPair::from_pair(input);
    let keep = predicate.mask_columns(&columns);
    let lanes: Vec<Vec<u64>> = (0..columns.arity())
        .map(|f| columns.recovered_field_lane(f))
        .collect();

    // Re-share record-major so the mask words come off the rng in exactly the order
    // `SharedRecordPair::share` would draw them.
    let mut fields = vec![0u32; lanes.len()];
    for i in 0..input.len() {
        for (slot, lane) in fields.iter_mut().zip(&lanes) {
            *slot = lane[i] as u32;
        }
        out.push(SharedRecordPair::share_row(&fields, keep[i] != 0, rng))
            .expect("uniform arity");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_secretshare::tuple::PlainRecord;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The record-major implementation this operator replaced; kept as the
    /// extensional-equality oracle for the lane kernel.
    fn reference_aos_filter<R: Rng + ?Sized>(
        input: &SharedArrayPair,
        predicate: &Predicate<'_>,
        meter: &mut CostMeter,
        rng: &mut R,
    ) -> SharedArrayPair {
        let mut out = match input.arity() {
            Some(a) => SharedArrayPair::with_arity(a),
            None => SharedArrayPair::new(),
        };
        meter.compares(input.len() as u64);
        meter.ands(input.len() as u64);
        meter.bytes((input.len() * (input.arity().unwrap_or(0) + 1) * 4) as u64);
        meter.round();
        for entry in input.entries() {
            let plain = entry.recover();
            let keep = plain.is_view && (predicate.test)(&plain.fields);
            let rewritten = PlainRecord {
                fields: plain.fields,
                is_view: keep,
            };
            out.push(SharedRecordPair::share(&rewritten, rng))
                .expect("uniform arity");
        }
        out
    }

    fn input_array() -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(5);
        let records = vec![
            PlainRecord::real(vec![3, 30]),
            PlainRecord::real(vec![12, 120]),
            PlainRecord::dummy(2),
            PlainRecord::real(vec![7, 70]),
        ];
        SharedArrayPair::share_records(&records, &mut rng)
    }

    #[test]
    fn filter_preserves_length_and_clears_non_matches() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut meter = CostMeter::new();
        let input = input_array();
        let pred = Predicate::le("field0 <= 10", 0, 10);
        let out = oblivious_filter(&input, &pred, &mut meter, &mut rng);

        assert_eq!(out.len(), input.len());
        let plain = out.recover_all();
        // Rows 0 (3) and 3 (7) match; row 1 (12) fails; row 2 was a dummy.
        assert!(plain[0].is_view);
        assert!(!plain[1].is_view);
        assert!(!plain[2].is_view);
        assert!(plain[3].is_view);
        assert_eq!(out.true_cardinality(), 2);
        // Field values of non-matching real rows are preserved (only the flag changes).
        assert_eq!(plain[1].fields, vec![12, 120]);
    }

    #[test]
    fn eq_predicate_and_missing_field_behaviour() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut meter = CostMeter::new();
        let input = input_array();
        let pred = Predicate::eq("field1 == 70", 1, 70);
        let out = oblivious_filter(&input, &pred, &mut meter, &mut rng);
        assert_eq!(out.true_cardinality(), 1);

        // Predicate over a non-existent field matches nothing (le with u32::MAX bound
        // would match everything, eq never matches).
        let pred = Predicate::eq("missing", 9, 1);
        let out = oblivious_filter(&input, &pred, &mut meter, &mut rng);
        assert_eq!(out.true_cardinality(), 0);
        assert_eq!(pred.name, "missing");
        let le_missing_saturated = Predicate::le("missing <= MAX", 9, u32::MAX);
        let out = oblivious_filter(&input, &le_missing_saturated, &mut meter, &mut rng);
        assert_eq!(out.true_cardinality(), 3);
        let le_missing = Predicate::le("missing <= 5", 9, 5);
        let out = oblivious_filter(&input, &le_missing, &mut meter, &mut rng);
        assert_eq!(out.true_cardinality(), 0);
    }

    #[test]
    fn constructors_record_their_structure() {
        assert_eq!(Predicate::all("all").kind, PredicateKind::All);
        assert_eq!(
            Predicate::le("le", 1, 9).kind,
            PredicateKind::Le { field: 1, bound: 9 }
        );
        assert_eq!(
            Predicate::eq("eq", 0, 3).kind,
            PredicateKind::Eq { field: 0, value: 3 }
        );
        assert_eq!(Predicate::new("f", |_| true).kind, PredicateKind::Opaque);
        // `all()` and the equivalent opaque closure agree through the closure too.
        assert!((Predicate::all("all").test)(&[1, 2]));
    }

    #[test]
    fn cost_depends_only_on_input_length() {
        let mut rng = StdRng::seed_from_u64(3);
        let input = input_array();

        let mut m1 = CostMeter::new();
        let all = Predicate::new("always", |_| true);
        let _ = oblivious_filter(&input, &all, &mut m1, &mut rng);

        let mut m2 = CostMeter::new();
        let none = Predicate::new("never", |_| false);
        let _ = oblivious_filter(&input, &none, &mut m2, &mut rng);

        assert_eq!(m1.report(), m2.report());
    }

    #[test]
    fn filter_on_empty_input() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut meter = CostMeter::new();
        let input = SharedArrayPair::new();
        let pred = Predicate::new("always", |_| true);
        let out = oblivious_filter(&input, &pred, &mut meter, &mut rng);
        assert!(out.is_empty());
    }

    /// Every predicate shape the lane kernel handles, plus the opaque fallback.
    fn predicate_under_test(which: u8) -> Predicate<'static> {
        match which % 5 {
            0 => Predicate::all("all"),
            1 => Predicate::le("le", 0, 7),
            2 => Predicate::eq("eq", 1, 3),
            3 => Predicate::le("le-missing", 9, u32::MAX),
            _ => Predicate::new("opaque", |fields| {
                fields.iter().copied().sum::<u32>() % 2 == 0
            }),
        }
    }

    proptest! {
        #[test]
        fn prop_soa_filter_extensionally_equals_aos_filter(
            rows in proptest::collection::vec((0u32..12, 0u32..6, any::<bool>()), 0..40),
            which in 0u8..5,
            seed in 0u64..1000,
        ) {
            let mut share_rng = StdRng::seed_from_u64(seed);
            let records: Vec<PlainRecord> = rows
                .iter()
                .map(|&(a, b, real)| PlainRecord { fields: vec![a, b], is_view: real })
                .collect();
            let input = SharedArrayPair::share_records(&records, &mut share_rng);
            let predicate = predicate_under_test(which);

            let mut rng_soa = StdRng::seed_from_u64(seed ^ 0xF1F7E5);
            let mut rng_aos = StdRng::seed_from_u64(seed ^ 0xF1F7E5);
            let mut meter_soa = CostMeter::new();
            let mut meter_aos = CostMeter::new();
            let soa = oblivious_filter(&input, &predicate, &mut meter_soa, &mut rng_soa);
            let aos = reference_aos_filter(&input, &predicate, &mut meter_aos, &mut rng_aos);

            // Same share words (hence same plaintext), same meter, and the same
            // number of rng draws (the next draw from each stream must agree).
            prop_assert_eq!(soa, aos);
            prop_assert_eq!(meter_soa.report(), meter_aos.report());
            prop_assert_eq!(rng_soa.gen::<u64>(), rng_aos.gen::<u64>());
        }
    }
}
