//! Oblivious aggregation over secret-shared arrays.
//!
//! The analyst-facing queries of the evaluation are COUNT aggregates over the
//! materialized view. Inside a 2PC execution the count is accumulated as a secret
//! shared register while linearly scanning the array — the access pattern is a fixed
//! left-to-right pass, so nothing about which entries are real leaks. This module
//! provides the oblivious COUNT / SUM primitives (optionally filtered by a predicate)
//! plus grouped counts: [`oblivious_group_count_over_domain`] answers over a
//! *public* domain with a data-independent output width, which is what the analyst
//! query API compiles GROUP-COUNT to.
//!
//! Every scan prices its share traffic like the other oblivious operators: the
//! entries' shares (`(arity + 1) · 4` bytes each) are fed into the circuit as garbled
//! inputs, plus the revealed aggregate (8 bytes per output word) on the way out, so
//! the simulated QET reflects bandwidth at large views.
//!
//! # Physical evaluation
//! Each aggregate has one body, written over column-major lanes
//! ([`incshrink_secretshare::SharedColumnsPair`]): [`count_selected`],
//! [`sum_selected`] and [`group_count_selected`] take the array's lanes plus the
//! selection's conjuncts, charge the meter from the public `(len, arity,
//! |domain|)` and combine each 256-row block of the selection (`isView ∧
//! conjuncts`, evaluated into a stack array) with the one field lane they name in
//! branch-free word arithmetic — a masked add per lane slot, no allocation however
//! long the array. An array that is column-major at rest (the materialized view)
//! calls the bodies directly and pays no transposition; the `&SharedArrayPair`
//! entry points ([`oblivious_count`], [`oblivious_group_count_over_domain`])
//! transpose once and run the same body with their [`Predicate`]'s conjuncts.

use crate::filter::{for_each_selection_block, FilterExpr, Predicate};
use incshrink_mpc::cost::CostMeter;
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::columns::{eq_word, SharedColumnsPair};

/// Bytes of share traffic a linear scan of `columns` feeds into the circuit.
fn scan_input_bytes(columns: &SharedColumnsPair) -> u64 {
    (columns.len() * (columns.arity() + 1) * 4) as u64
}

/// Count the rows of `columns` that `isView ∧ conjuncts` selects — the lane body
/// of [`oblivious_count`]. Charges one secure comparison, one AND and one addition
/// per row, the scanned shares as input traffic and 8 bytes for the revealed
/// count — whatever the selection keeps.
pub fn count_selected(
    columns: &SharedColumnsPair,
    conjuncts: &[FilterExpr],
    meter: &mut CostMeter,
) -> u64 {
    let n = columns.len() as u64;
    meter.compares(n);
    meter.ands(n);
    meter.adds(n);
    meter.bytes(scan_input_bytes(columns) + 8);
    let mut count = 0;
    for_each_selection_block(columns, conjuncts, |_, mask| {
        count += mask.iter().sum::<u64>()
    });
    count
}

/// Sum `field` over the rows of `columns` that `isView ∧ conjuncts` selects, with
/// saturating 64-bit arithmetic (the paper's aggregates are counts; sums complete
/// the analyst query layer's operator set). A column the array does not have sums
/// to 0; the charge is the same either way.
pub fn sum_selected(
    columns: &SharedColumnsPair,
    field: usize,
    conjuncts: &[FilterExpr],
    meter: &mut CostMeter,
) -> u64 {
    let n = columns.len() as u64;
    meter.compares(n);
    meter.ands(n);
    meter.adds(2 * n);
    meter.bytes(scan_input_bytes(columns) + 8);
    let Some((s0, s1)) = columns.field_shares(field) else {
        return 0;
    };
    let mut sum = 0u64;
    for_each_selection_block(columns, conjuncts, |start, mask| {
        // mask is 0/1 and lane values are widened u32s, so the product is exact.
        sum = (mask.iter().zip(&s0[start..]).zip(&s1[start..]))
            .fold(sum, |acc, ((&m, &a), &b)| acc.saturating_add(m * (a ^ b)));
    });
    sum
}

/// Count the rows of `columns` that `isView ∧ conjuncts` selects, grouped over a
/// *public* `domain` of `group_field` values — the lane body of
/// [`oblivious_group_count_over_domain`], which documents the output contract,
/// leakage and cost. A column the array does not have yields an all-zero vector of
/// the public width.
pub fn group_count_selected(
    columns: &SharedColumnsPair,
    group_field: usize,
    domain: &[u32],
    conjuncts: &[FilterExpr],
    meter: &mut CostMeter,
) -> Vec<u64> {
    let n = columns.len() as u64;
    let d = domain.len() as u64;
    if d == 0 {
        return Vec::new();
    }
    meter.compares(n * d);
    meter.ands(n * d);
    meter.adds(n * d);
    meter.bytes(scan_input_bytes(columns) + 8 * d);
    let mut counts = vec![0; domain.len()];
    let Some((s0, s1)) = columns.field_shares(group_field) else {
        return counts;
    };
    for_each_selection_block(columns, conjuncts, |start, mask| {
        for (count, &value) in counts.iter_mut().zip(domain) {
            *count += (mask.iter().zip(&s0[start..]).zip(&s1[start..]))
                .map(|((&m, &a), &b)| m & eq_word(a ^ b, u64::from(value)))
                .sum::<u64>();
        }
    });
    counts
}

/// Obliviously count the real (`isView = 1`) entries of `array` that satisfy
/// `predicate` (pass [`Predicate::all`] for an unfiltered count).
/// Charges one secure comparison, one AND and one addition per entry, the scanned
/// shares as input traffic and 8 bytes for the revealed count.
pub fn oblivious_count(
    array: &SharedArrayPair,
    predicate: &Predicate<'_>,
    meter: &mut CostMeter,
) -> u64 {
    let columns = SharedColumnsPair::from_pair(array);
    count_selected(&columns, &predicate.conjuncts, meter)
}

/// Obliviously count the real entries that satisfy `predicate`, grouped over a
/// *public* `domain` of `group_field` values. The output is one secret-shared counter
/// per domain value (returned revealed, index-aligned with `domain`); entries whose
/// group value lies outside the domain — and dummies, and predicate failures — fall
/// in no bucket, so the returned vector may undercount relative to an unrestricted
/// group-by. Duplicate domain values each accumulate their own (equal) counter.
///
/// # Leakage
/// None beyond the public `(|array|, arity, |domain|)`: the scan is a fixed pass and
/// the output width is the domain size, a query constant: no data-dependent key set
/// is revealed.
///
/// # Cost
/// Per entry and domain slot one equality comparison, one AND (the predicate mask
/// folds into the per-slot mux) and one addition into the slot's counter; plus the
/// scanned shares as input traffic and 8 bytes per revealed counter.
pub fn oblivious_group_count_over_domain(
    array: &SharedArrayPair,
    group_field: usize,
    domain: &[u32],
    predicate: &Predicate<'_>,
    meter: &mut CostMeter,
) -> Vec<u64> {
    let columns = SharedColumnsPair::from_pair(array);
    group_count_selected(&columns, group_field, domain, &predicate.conjuncts, meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_secretshare::tuple::PlainRecord;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn array_with(rows: &[(u32, u32)], dummies: usize) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(31);
        let mut records: Vec<PlainRecord> = rows
            .iter()
            .map(|&(a, b)| PlainRecord::real(vec![a, b]))
            .collect();
        records.extend((0..dummies).map(|_| PlainRecord::dummy(2)));
        SharedArrayPair::share_records(&records, &mut rng)
    }

    /// `SUM(field)` over the rows of `array` that `predicate` selects: the lane
    /// body on the array's lanes.
    fn sum(
        array: &SharedArrayPair,
        field: usize,
        predicate: &Predicate<'_>,
        meter: &mut CostMeter,
    ) -> u64 {
        sum_selected(
            &SharedColumnsPair::from_pair(array),
            field,
            &predicate.conjuncts,
            meter,
        )
    }

    /// Record-major reference implementations (what the lane kernels replaced),
    /// kept as extensional-equality oracles.
    mod reference {
        use super::*;

        pub fn count(array: &SharedArrayPair, predicate: &Predicate<'_>) -> u64 {
            array
                .entries()
                .iter()
                .filter(|e| {
                    let plain = e.recover();
                    plain.is_view && predicate.matches(&plain.fields)
                })
                .count() as u64
        }

        pub fn sum(array: &SharedArrayPair, field: usize, predicate: &Predicate<'_>) -> u64 {
            array
                .entries()
                .iter()
                .map(|e| {
                    let plain = e.recover();
                    if plain.is_view && predicate.matches(&plain.fields) {
                        u64::from(plain.fields.get(field).copied().unwrap_or(0))
                    } else {
                        0
                    }
                })
                .fold(0u64, u64::saturating_add)
        }

        pub(crate) fn group_count_over_domain(
            array: &SharedArrayPair,
            group_field: usize,
            domain: &[u32],
            predicate: &Predicate<'_>,
        ) -> Vec<u64> {
            let mut counts = vec![0u64; domain.len()];
            for entry in array.entries() {
                let plain = entry.recover();
                if plain.is_view && predicate.matches(&plain.fields) {
                    if let Some(&key) = plain.fields.get(group_field) {
                        for (slot, &value) in domain.iter().enumerate() {
                            if value == key {
                                counts[slot] += 1;
                            }
                        }
                    }
                }
            }
            counts
        }
    }

    #[test]
    fn count_ignores_dummies_and_applies_predicate() {
        let mut meter = CostMeter::new();
        let arr = array_with(&[(1, 5), (2, 15), (3, 25)], 4);
        let all = Predicate::all("all");
        assert_eq!(oblivious_count(&arr, &all, &mut meter), 3);
        let small = Predicate::le("f1 <= 15", 1, 15);
        assert_eq!(oblivious_count(&arr, &small, &mut meter), 2);
        assert!(meter.report().secure_adds >= 7);
    }

    #[test]
    fn sum_over_selected_rows() {
        let mut meter = CostMeter::new();
        let arr = array_with(&[(1, 5), (2, 15), (3, 25)], 2);
        let all = Predicate::all("all");
        assert_eq!(sum(&arr, 1, &all, &mut meter), 45);
        let small = Predicate::le("f1 <= 15", 1, 15);
        assert_eq!(sum(&arr, 1, &small, &mut meter), 20);
        // Missing field sums to zero.
        assert_eq!(sum(&arr, 7, &all, &mut meter), 0);
    }

    #[test]
    fn group_count_over_domain_is_index_aligned_and_filterable() {
        let mut meter = CostMeter::new();
        let arr = array_with(&[(1, 5), (1, 6), (2, 7), (3, 8), (3, 9)], 3);
        let all = Predicate::all("all");
        // Domain covers keys 0..4; key 0 and the out-of-domain key 9 count nothing.
        let counts = oblivious_group_count_over_domain(&arr, 0, &[0, 1, 2, 3], &all, &mut meter);
        assert_eq!(counts, vec![0, 2, 1, 2]);
        // A predicate folds into the scan without changing the output width.
        let small = Predicate::le("f1 <= 7", 1, 7);
        let counts = oblivious_group_count_over_domain(&arr, 0, &[0, 1, 2, 3], &small, &mut meter);
        assert_eq!(counts, vec![0, 2, 1, 0]);
        // Empty domain short-circuits to no work.
        let mut empty_meter = CostMeter::new();
        assert!(oblivious_group_count_over_domain(&arr, 0, &[], &all, &mut empty_meter).is_empty());
        assert!(empty_meter.report().is_empty());
        // Missing group field counts nothing but keeps the public output width.
        let counts = oblivious_group_count_over_domain(&arr, 9, &[0, 1], &all, &mut meter);
        assert_eq!(counts, vec![0, 0]);
    }

    #[test]
    fn scan_bytes_grow_with_view_size() {
        // Regression for the flat-8-byte pricing: the scan's share traffic must make
        // a much larger array cost proportionally more bandwidth.
        let all = Predicate::all("all");
        let mut small = CostMeter::new();
        let _ = oblivious_count(&array_with(&[(1, 1)], 9), &all, &mut small);
        let mut large = CostMeter::new();
        let _ = oblivious_count(&array_with(&[(1, 1)], 99), &all, &mut large);
        let (s, l) = (
            small.report().bytes_communicated,
            large.report().bytes_communicated,
        );
        // 10 and 100 entries of arity 2: (arity+1)·4 = 12 bytes per entry + 8 output.
        assert_eq!(s, 10 * 12 + 8);
        assert_eq!(l, 100 * 12 + 8);
    }

    #[test]
    fn cost_depends_only_on_length() {
        let all = Predicate::all("all");
        let mut m1 = CostMeter::new();
        let _ = oblivious_count(&array_with(&[(1, 1), (2, 2)], 2), &all, &mut m1);
        let mut m2 = CostMeter::new();
        let _ = oblivious_count(&array_with(&[], 4), &all, &mut m2);
        assert_eq!(m1.report(), m2.report());
    }

    #[test]
    fn empty_array_aggregates() {
        let mut meter = CostMeter::new();
        let arr = SharedArrayPair::new();
        let all = Predicate::all("all");
        assert_eq!(oblivious_count(&arr, &all, &mut meter), 0);
        assert_eq!(sum(&arr, 0, &all, &mut meter), 0);
    }

    /// Every predicate shape the lane kernels handle.
    fn predicate_under_test(which: u8) -> Predicate<'static> {
        let conjuncts = match which % 4 {
            0 => vec![],
            1 => vec![FilterExpr::le(1, 40)],
            2 => vec![FilterExpr::eq(0, 3)],
            _ => vec![FilterExpr::ge(0, 2), FilterExpr::le(1, 60)],
        };
        Predicate {
            name: "under test",
            conjuncts,
        }
    }

    proptest! {
        #[test]
        fn prop_count_matches_plaintext(rows in proptest::collection::vec((0u32..10, 0u32..100), 0..30),
                                        dummies in 0usize..10) {
            let mut meter = CostMeter::new();
            let arr = array_with(&rows, dummies);
            let all = Predicate::all("all");
            prop_assert_eq!(oblivious_count(&arr, &all, &mut meter), rows.len() as u64);
        }

        #[test]
        fn prop_sum_matches_plaintext(rows in proptest::collection::vec((0u32..10, 0u32..100), 0..30)) {
            let mut meter = CostMeter::new();
            let arr = array_with(&rows, 3);
            let all = Predicate::all("all");
            let expect: u64 = rows.iter().map(|&(_, v)| u64::from(v)).sum();
            prop_assert_eq!(sum(&arr, 1, &all, &mut meter), expect);
        }

        #[test]
        fn prop_lane_aggregates_equal_record_major_references(
            // Up to three 256-row selection blocks.
            rows in proptest::collection::vec((0u32..8, 0u32..90), 0..700),
            dummies in 0usize..8,
            which in 0u8..4,
            field in 0usize..3,
        ) {
            // The lane kernels draw no randomness and charge through the same
            // metering preamble, so extensional equality here is about the values.
            let arr = array_with(&rows, dummies);
            let predicate = predicate_under_test(which);
            let mut meter = CostMeter::new();

            prop_assert_eq!(
                oblivious_count(&arr, &predicate, &mut meter),
                reference::count(&arr, &predicate)
            );
            prop_assert_eq!(
                sum(&arr, field, &predicate, &mut meter),
                reference::sum(&arr, field, &predicate)
            );
            let domain = [0u32, 1, 3, 5, 7, 11];
            prop_assert_eq!(
                oblivious_group_count_over_domain(&arr, field, &domain, &predicate, &mut meter),
                reference::group_count_over_domain(&arr, field, &domain, &predicate)
            );
        }
    }
}
