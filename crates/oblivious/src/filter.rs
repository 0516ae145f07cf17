//! Oblivious selection (filter) — Appendix A.1.1 — and the one predicate language
//! of the oblivious scans.
//!
//! Each input record can contribute to the output of a selection at most once, so no
//! extra truncation machinery is needed. To preserve obliviousness the operator
//! returns *all* input rows; rows that fail the predicate simply have their hidden
//! `isView` bit cleared and become dummies. The servers observe only the (public)
//! input length.
//!
//! # Predicates
//! A selection is a conjunction of [`FilterExpr`] column tests. One lowering,
//! `for_each_selection_block`, evaluates it to one 0/1 word per row
//! (`isView ∧ conjuncts`) in branch-free arithmetic over column-major lanes
//! ([`incshrink_secretshare::SharedColumnsPair`]), 256 rows at a time in a stack
//! block: each conjunct reads only the lane it names, and a column the array does
//! not have matches nothing. [`oblivious_filter`] and the aggregates of
//! [`crate::aggregate`] (the analyst query layer's plan body, and the
//! `&SharedArrayPair` entry points through a [`Predicate`], a name plus
//! conjuncts) consume its blocks. The
//! filter re-shares its output drawing masks in exactly the order the record-major
//! implementation did, so trajectories are bit-identical.

use incshrink_mpc::cost::CostMeter;
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::columns::{eq_word, lt_word, SharedColumnsPair};
use incshrink_secretshare::tuple::SharedRecordPair;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One conjunct of a selection, over record columns. A record lacking the
/// referenced column never matches (mirroring the join layer's treatment of
/// malformed records).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterExpr {
    /// `fields[field] <= bound`.
    Le {
        /// Column index.
        field: usize,
        /// Inclusive upper bound.
        bound: u32,
    },
    /// `fields[field] >= bound`.
    Ge {
        /// Column index.
        field: usize,
        /// Inclusive lower bound.
        bound: u32,
    },
    /// `fields[field] == value`.
    Eq {
        /// Column index.
        field: usize,
        /// The value to match.
        value: u32,
    },
}

impl FilterExpr {
    /// `fields[field] <= bound`.
    #[must_use]
    pub fn le(field: usize, bound: u32) -> Self {
        Self::Le { field, bound }
    }

    /// `fields[field] >= bound`.
    #[must_use]
    pub fn ge(field: usize, bound: u32) -> Self {
        Self::Ge { field, bound }
    }

    /// `fields[field] == value`.
    #[must_use]
    pub fn eq(field: usize, value: u32) -> Self {
        Self::Eq { field, value }
    }

    /// Evaluate the conjunct over a record's plaintext fields — the rule the lane
    /// bodies of [`crate::aggregate`] compute obliviously, and the plaintext ground
    /// truth.
    #[must_use]
    pub fn matches(&self, fields: &[u32]) -> bool {
        match *self {
            Self::Le { field, bound } => fields.get(field).is_some_and(|&v| v <= bound),
            Self::Ge { field, bound } => fields.get(field).is_some_and(|&v| v >= bound),
            Self::Eq { field, value } => fields.get(field) == Some(&value),
        }
    }
}

impl fmt::Display for FilterExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::Le { field, bound } => write!(f, "f{field} <= {bound}"),
            Self::Ge { field, bound } => write!(f, "f{field} >= {bound}"),
            Self::Eq { field, value } => write!(f, "f{field} == {value}"),
        }
    }
}

/// Evaluate the selection `isView ∧ conjuncts` over `columns`, 256 rows at a time
/// into a stack array (a scan allocates nothing), and hand `body` each block's
/// first row and its 0/1 words. Each conjunct is
/// branch-free lane arithmetic over the one column it names; as in
/// [`FilterExpr::matches`], a column the array does not have matches nothing.
pub(crate) fn for_each_selection_block(
    columns: &SharedColumnsPair,
    conjuncts: &[FilterExpr],
    mut body: impl FnMut(usize, &[u64]),
) {
    let (view0, view1) = columns.is_view_shares();
    let mut block = [0u64; 256];
    for start in (0..columns.len()).step_by(block.len()) {
        let mask = &mut block[..256.min(columns.len() - start)];
        for ((m, &a), &b) in mask.iter_mut().zip(&view0[start..]).zip(&view1[start..]) {
            *m = 1 ^ eq_word(a, b);
        }
        for conjunct in conjuncts {
            match *conjunct {
                // v <= bound  ⇔  ¬(bound < v)
                FilterExpr::Le { field, bound } => {
                    columns.narrow_mask(field, start, mask, |v| 1 ^ lt_word(u64::from(bound), v));
                }
                // v >= bound  ⇔  ¬(v < bound)
                FilterExpr::Ge { field, bound } => {
                    columns.narrow_mask(field, start, mask, |v| 1 ^ lt_word(v, u64::from(bound)));
                }
                FilterExpr::Eq { field, value } => {
                    columns.narrow_mask(field, start, mask, |v| eq_word(v, u64::from(value)));
                }
            }
        }
        body(start, mask);
    }
}

/// A named selection predicate: a conjunction of [`FilterExpr`]s (none = every
/// real record).
///
/// The conjuncts are evaluated "inside" the simulated MPC: in a garbled-circuit
/// execution the predicate circuit would see the joint value without revealing it to
/// either server. The cost accounting charges one secure comparison and one AND gate
/// per record regardless of the outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate<'a> {
    /// Human-readable name used in logs.
    pub name: &'a str,
    /// The conjuncts every selected record satisfies.
    pub conjuncts: Vec<FilterExpr>,
}

impl<'a> Predicate<'a> {
    /// The always-true predicate (an unfiltered scan).
    #[must_use]
    pub fn all(name: &'a str) -> Self {
        Self {
            name,
            conjuncts: Vec::new(),
        }
    }

    /// `field <= bound` predicate, the shape used by the paper's Q1/Q2 temporal filters.
    #[must_use]
    pub fn le(name: &'a str, field: usize, bound: u32) -> Self {
        Self {
            name,
            conjuncts: vec![FilterExpr::le(field, bound)],
        }
    }

    /// Whether a record's plaintext fields satisfy every conjunct.
    #[cfg(test)]
    pub(crate) fn matches(&self, fields: &[u32]) -> bool {
        self.conjuncts.iter().all(|c| c.matches(fields))
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

    let columns = SharedColumnsPair::from_pair(input);
    let lanes: Vec<Vec<u64>> = (0..columns.arity())
        .map(|f| columns.recovered_field_lane(f))
        .collect();

    // Re-share record-major so the mask words come off the rng in exactly the order
    // `SharedRecordPair::share` would draw them.
    let mut fields = vec![0u32; lanes.len()];
    for_each_selection_block(&columns, &predicate.conjuncts, |start, keep| {
        for (i, &keep) in (start..).zip(keep) {
            for (slot, lane) in fields.iter_mut().zip(&lanes) {
                *slot = lane[i] as u32;
            }
            out.push(SharedRecordPair::share_row(&fields, keep != 0, rng))
                .expect("uniform arity");
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The selection blocks, concatenated.
    fn selection_mask(columns: &SharedColumnsPair, conjuncts: &[FilterExpr]) -> Vec<u64> {
        let mut mask = Vec::new();
        for_each_selection_block(columns, conjuncts, |_, block| mask.extend_from_slice(block));
        mask
    }
    use crate::aggregate::{
        count_selected, group_count_selected, oblivious_count, oblivious_group_count_over_domain,
    };
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
        for entry in input.entries() {
            let plain = entry.recover();
            let keep = plain.is_view && predicate.matches(&plain.fields);
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

    fn conjunction(conjuncts: &[FilterExpr]) -> Predicate<'static> {
        Predicate {
            name: "conjunction",
            conjuncts: conjuncts.to_vec(),
        }
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
        let pred = conjunction(&[FilterExpr::eq(1, 70)]);
        let out = oblivious_filter(&input, &pred, &mut meter, &mut rng);
        assert_eq!(out.true_cardinality(), 1);

        // A conjunct over a non-existent field matches nothing, whatever its bound:
        // a missing field does not read as u32::MAX.
        let pred = conjunction(&[FilterExpr::eq(9, 1)]);
        let out = oblivious_filter(&input, &pred, &mut meter, &mut rng);
        assert_eq!(out.true_cardinality(), 0);
        let le_missing_saturated = Predicate::le("missing <= MAX", 9, u32::MAX);
        let out = oblivious_filter(&input, &le_missing_saturated, &mut meter, &mut rng);
        assert_eq!(out.true_cardinality(), 0);
        let le_missing = Predicate::le("missing <= 5", 9, 5);
        let out = oblivious_filter(&input, &le_missing, &mut meter, &mut rng);
        assert_eq!(out.true_cardinality(), 0);
    }

    #[test]
    fn constructors_record_their_structure() {
        assert!(Predicate::all("all").conjuncts.is_empty());
        assert_eq!(
            Predicate::le("le", 1, 9).conjuncts,
            [FilterExpr::Le { field: 1, bound: 9 }]
        );
        assert_eq!(Predicate::le("le", 1, 9).name, "le");
        assert_eq!(FilterExpr::eq(0, 3), FilterExpr::Eq { field: 0, value: 3 });
        assert_eq!(FilterExpr::ge(2, 5).to_string(), "f2 >= 5");
        // The empty conjunction matches every record.
        assert!(Predicate::all("all").matches(&[1, 2]));
    }

    #[test]
    fn cost_depends_only_on_input_length() {
        let mut rng = StdRng::seed_from_u64(3);
        let input = input_array();

        let mut m1 = CostMeter::new();
        let all = Predicate::all("always");
        let _ = oblivious_filter(&input, &all, &mut m1, &mut rng);

        let mut m2 = CostMeter::new();
        let none = Predicate::le("never", 9, 0);
        let _ = oblivious_filter(&input, &none, &mut m2, &mut rng);

        assert_eq!(m1.report(), m2.report());
    }

    #[test]
    fn filter_on_empty_input() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut meter = CostMeter::new();
        let input = SharedArrayPair::new();
        let pred = Predicate::all("always");
        let out = oblivious_filter(&input, &pred, &mut meter, &mut rng);
        assert!(out.is_empty());
    }

    /// Every predicate shape the lane kernel handles.
    fn predicate_under_test(which: u8) -> Predicate<'static> {
        match which % 4 {
            0 => Predicate::all("all"),
            1 => Predicate::le("le", 0, 7),
            2 => conjunction(&[FilterExpr::eq(1, 3)]),
            _ => Predicate::le("le-missing", 9, u32::MAX),
        }
    }

    /// A conjunct of the given shape; columns 2 and 3 of arity-2 rows are missing.
    fn conjunct((shape, field, bound): (u8, usize, u32)) -> FilterExpr {
        match shape {
            0 => FilterExpr::le(field, bound),
            1 => FilterExpr::ge(field, bound),
            _ => FilterExpr::eq(field, bound),
        }
    }

    proptest! {
        #[test]
        fn prop_soa_filter_extensionally_equals_aos_filter(
            rows in proptest::collection::vec((0u32..12, 0u32..6, any::<bool>()), 0..40),
            which in 0u8..4,
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

        /// The `&SharedArrayPair` operators equal the lane bodies run directly on
        /// the conjuncts, for every conjunct shape, missing columns included — and
        /// `selection_mask` is the plaintext rule `isView ∧ FilterExpr::matches`.
        #[test]
        fn prop_array_operators_equal_the_lane_bodies_for_every_filter_shape(
            rows in proptest::collection::vec((0u32..12, 0u32..12, any::<bool>()), 0..40),
            shapes in proptest::collection::vec((0u8..3, 0usize..4, 0u32..12), 0..4),
            group_field in 0usize..4,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let records: Vec<PlainRecord> = rows
                .iter()
                .map(|&(a, b, real)| PlainRecord { fields: vec![a, b], is_view: real })
                .collect();
            let input = SharedArrayPair::share_records(&records, &mut rng);
            let conjuncts: Vec<FilterExpr> = shapes.into_iter().map(conjunct).collect();
            let predicate = conjunction(&conjuncts);
            let columns = SharedColumnsPair::from_pair(&input);
            let mask = selection_mask(&columns, &conjuncts);

            let plain: Vec<u64> = records
                .iter()
                .map(|r| u64::from(r.is_view && predicate.matches(&r.fields)))
                .collect();
            prop_assert_eq!(&mask, &plain);

            let (mut operator, mut body) = (CostMeter::new(), CostMeter::new());
            prop_assert_eq!(
                oblivious_count(&input, &predicate, &mut operator),
                count_selected(&columns, &conjuncts, &mut body)
            );
            let domain = [0u32, 1, 3, 5, 7, 11];
            prop_assert_eq!(
                oblivious_group_count_over_domain(&input, group_field, &domain, &predicate, &mut operator),
                group_count_selected(&columns, group_field, &domain, &conjuncts, &mut body)
            );
            prop_assert_eq!(operator.report(), body.report());

            let filtered = oblivious_filter(&input, &predicate, &mut CostMeter::new(), &mut rng);
            let kept: Vec<u64> = filtered.recover_all().iter().map(|r| u64::from(r.is_view)).collect();
            prop_assert_eq!(kept, mask);
        }
    }
}
