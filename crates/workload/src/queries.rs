//! Logical (ground-truth) query evaluation.
//!
//! The evaluation queries Q1 and Q2 are both counting joins with a temporal predicate:
//!
//! * **Q1** — `SELECT COUNT(*) FROM Sales ⋈ Returns ON pid WHERE ReturnDate − SaleDate ≤ 10`
//! * **Q2** — `SELECT COUNT(*) FROM Allegation ⋈ Award ON officerID WHERE AwardTime − AllegationEnd ≤ 10`
//!
//! Both reduce to [`JoinQuery`] with a 10-step window. [`logical_join_count`] evaluates
//! `q_t(D_t)` over the plaintext growing database, providing the ground truth the
//! framework compares view-based answers against (the L1 error metric of Section 4.1).
//!
//! The analyst query API generalizes the hardwired count to SUM and GROUP-COUNT
//! aggregates over the joined pairs; [`logical_join_rows`], [`logical_join_sum`] and
//! [`logical_join_group_count`] provide the matching plaintext ground truths, over
//! rows laid out as `left fields ++ right fields` — the canonical column order of
//! materialized view entries.

use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// A counting equi-join query with a temporal window predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinQuery {
    /// Maximum allowed `right.time − left.time` (inclusive); negative gaps never match.
    pub window: u32,
}

impl JoinQuery {
    /// Whether a (left, right) field pair joins under this query. Field layout is the
    /// generators' `(key, time)` convention. Records lacking either the key or the
    /// time field never match: a malformed single-field record must not spuriously
    /// join as if it carried timestamp 0.
    #[must_use]
    pub(crate) fn pair_matches(&self, left: &[u32], right: &[u32]) -> bool {
        if left.first() != right.first() || left.is_empty() {
            return false;
        }
        let (Some(&lt), Some(&rt)) = (left.get(1), right.get(1)) else {
            return false;
        };
        rt >= lt && rt - lt <= self.window
    }
}

/// Evaluate the logical ground truth `q_t(D_t)`: the number of joined pairs among the
/// records that have arrived by time `t` (the right relation counts fully when it is
/// public — public data is available to the servers from setup).
#[must_use]
pub fn logical_join_count(dataset: &Dataset, query: &JoinQuery, t: u64) -> u64 {
    // Bucket right records by key for an O(n + m) plaintext evaluation.
    let mut right_by_key: HashMap<u32, Vec<&[u32]>> = HashMap::new();
    for r in dataset.right.updates() {
        if dataset.right_is_public || r.arrival <= t {
            right_by_key.entry(r.fields[0]).or_default().push(&r.fields);
        }
    }
    let mut count = 0u64;
    for l in dataset.left.updates() {
        if l.arrival > t {
            continue;
        }
        if let Some(cands) = right_by_key.get(&l.fields[0]) {
            count += cands
                .iter()
                .filter(|r| query.pair_matches(&l.fields, r))
                .count() as u64;
        }
    }
    count
}

/// Materialize the plaintext joined pairs at time `t`, one row per pair, laid out as
/// `left fields ++ right fields` — the canonical column order of materialized view
/// entries. This is the row set all generalized aggregates (SUM, GROUP-COUNT, filters)
/// are ground-truthed against; [`logical_join_count`]`(d, q, t)` equals its length.
#[must_use]
pub fn logical_join_rows(dataset: &Dataset, query: &JoinQuery, t: u64) -> Vec<Vec<u32>> {
    let mut right_by_key: HashMap<u32, Vec<&[u32]>> = HashMap::new();
    for r in dataset.right.updates() {
        if dataset.right_is_public || r.arrival <= t {
            right_by_key.entry(r.fields[0]).or_default().push(&r.fields);
        }
    }
    let mut rows = Vec::new();
    for l in dataset.left.updates() {
        if l.arrival > t {
            continue;
        }
        if let Some(cands) = right_by_key.get(&l.fields[0]) {
            for r in cands.iter().filter(|r| query.pair_matches(&l.fields, r)) {
                let mut row = l.fields.clone();
                row.extend_from_slice(r);
                rows.push(row);
            }
        }
    }
    rows
}

/// Ground truth for `SELECT SUM(col) FROM left ⋈ right` at time `t`: sum `field`
/// (an index into the concatenated `left ++ right` row) over the joined pairs.
/// Pairs lacking the field contribute 0, mirroring the oblivious SUM operator.
#[must_use]
pub fn logical_join_sum(dataset: &Dataset, query: &JoinQuery, t: u64, field: usize) -> u64 {
    logical_join_rows(dataset, query, t)
        .iter()
        .map(|row| u64::from(row.get(field).copied().unwrap_or(0)))
        .fold(0u64, u64::saturating_add)
}

/// Ground truth for `SELECT col, COUNT(*) … GROUP BY col` at time `t`: the number of
/// joined pairs per value of `field` (an index into the concatenated `left ++ right`
/// row). Pairs lacking the field fall in no group.
#[must_use]
pub fn logical_join_group_count(
    dataset: &Dataset,
    query: &JoinQuery,
    t: u64,
    field: usize,
) -> BTreeMap<u32, u64> {
    let mut groups = BTreeMap::new();
    for row in logical_join_rows(dataset, query, t) {
        if let Some(&key) = row.get(field) {
            *groups.entry(key).or_insert(0u64) += 1;
        }
    }
    groups
}

/// Evaluate the ground truth at every step `1..=horizon`, returning a vector indexed by
/// `t − 1` whose entries equal [`logical_join_count`]`(dataset, query, t)`.
///
/// One pass instead of one join per step: a matching pair enters `q_t(D_t)` at the
/// step its later record arrives (its left record's arrival when the right relation
/// is public), so the pairs are histogrammed by that step and prefix-summed.
#[must_use]
pub fn logical_join_counts_per_step(
    dataset: &Dataset,
    query: &JoinQuery,
    horizon: u64,
) -> Vec<u64> {
    let mut counts = vec![0u64; usize::try_from(horizon).expect("horizon fits in memory")];
    let mut right_by_key: HashMap<u32, Vec<(&[u32], u64)>> = HashMap::new();
    for r in dataset.right.updates() {
        let visible = if dataset.right_is_public {
            0
        } else {
            r.arrival
        };
        right_by_key
            .entry(r.fields[0])
            .or_default()
            .push((&r.fields, visible));
    }
    for l in dataset.left.updates() {
        let Some(cands) = right_by_key.get(&l.fields[0]) else {
            continue;
        };
        for (r, visible) in cands {
            // Pairs complete before step 1 count from step 1 on; pairs completing
            // after the horizon never show.
            let step = l.arrival.max(*visible).max(1);
            if step <= horizon && query.pair_matches(&l.fields, r) {
                counts[(step - 1) as usize] += 1;
            }
        }
    }
    let mut running = 0u64;
    for count in &mut counts {
        running += *count;
        *count = running;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpdb::CpdbGenerator;
    use crate::dataset::{DatasetKind, WorkloadParams};
    use crate::tpcds::TpcDsGenerator;

    #[test]
    fn pair_matching_window_semantics() {
        let q = JoinQuery { window: 10 };
        assert!(q.pair_matches(&[1, 100], &[1, 105]));
        assert!(q.pair_matches(&[1, 100], &[1, 110]));
        assert!(!q.pair_matches(&[1, 100], &[1, 111]));
        assert!(!q.pair_matches(&[1, 100], &[1, 99]), "right before left");
        assert!(!q.pair_matches(&[1, 100], &[2, 105]), "key mismatch");
        assert!(!q.pair_matches(&[], &[]), "empty records never match");
    }

    #[test]
    fn records_missing_the_time_field_never_join() {
        // Regression: single-field (key-only) records used to default the missing
        // timestamp to 0 via unwrap_or(0), so a malformed left record [1] joined
        // any right record [1, rt] with rt <= window.
        let q = JoinQuery { window: 10 };
        assert!(!q.pair_matches(&[1], &[1, 5]), "left lacks the time field");
        assert!(!q.pair_matches(&[1, 5], &[1]), "right lacks the time field");
        assert!(!q.pair_matches(&[1], &[1]), "both lack the time field");
        // Well-formed records still join as before.
        assert!(q.pair_matches(&[1, 0], &[1, 5]));
    }

    #[test]
    fn logical_rows_match_count_and_generalized_aggregates() {
        let ds = TpcDsGenerator::new(WorkloadParams::small(DatasetKind::TpcDs)).generate();
        let q = JoinQuery { window: 10 };
        for t in [10u64, 30, 60] {
            let rows = logical_join_rows(&ds, &q, t);
            assert_eq!(rows.len() as u64, logical_join_count(&ds, &q, t));
            // Rows are left ++ right concatenations, so the key columns agree.
            for row in &rows {
                assert_eq!(row.len(), 4, "(pid, sale) ++ (pid, return)");
                assert_eq!(row[0], row[2], "equi-join keys");
                assert!(row[3] >= row[1] && row[3] - row[1] <= 10, "window");
            }
            // SUM over the left key column equals the column-wise plaintext sum.
            let expect: u64 = rows.iter().map(|r| u64::from(r[0])).sum();
            assert_eq!(logical_join_sum(&ds, &q, t, 0), expect);
            // GROUP-COUNT totals the same pairs.
            let groups = logical_join_group_count(&ds, &q, t, 1);
            assert_eq!(groups.values().sum::<u64>(), rows.len() as u64);
            // A field beyond the row arity sums to zero and groups nothing.
            assert_eq!(logical_join_sum(&ds, &q, t, 9), 0);
            assert!(logical_join_group_count(&ds, &q, t, 9).is_empty());
        }
    }

    #[test]
    fn counts_are_monotone_in_time() {
        let ds = TpcDsGenerator::new(WorkloadParams::small(DatasetKind::TpcDs)).generate();
        let q = JoinQuery { window: 10 };
        let per_step = logical_join_counts_per_step(&ds, &q, 60);
        assert_eq!(per_step.len(), 60);
        for w in per_step.windows(2) {
            assert!(
                w[1] >= w[0],
                "join count must be monotone for insert-only data"
            );
        }
        assert_eq!(per_step[59], logical_join_count(&ds, &q, 60));
        assert!(per_step[59] > 0);
    }

    #[test]
    fn per_step_counts_equal_the_per_step_join() {
        // Private right relation (TPC-ds) and public right relation (CPDB), with
        // the horizon running past the last arrival.
        let tpcds = TpcDsGenerator::new(WorkloadParams::small(DatasetKind::TpcDs)).generate();
        let cpdb = CpdbGenerator::new(WorkloadParams::small(DatasetKind::Cpdb)).generate();
        assert!(cpdb.right_is_public && !tpcds.right_is_public);
        for ds in [&tpcds, &cpdb] {
            let q = JoinQuery {
                window: ds.join_window,
            };
            let horizon = ds.left.horizon().max(ds.right.horizon()) + 5;
            let per_step = logical_join_counts_per_step(ds, &q, horizon);
            assert_eq!(per_step.len() as u64, horizon);
            for t in 1..=horizon {
                assert_eq!(
                    per_step[(t - 1) as usize],
                    logical_join_count(ds, &q, t),
                    "t={t}"
                );
            }
            assert!(per_step[horizon as usize - 1] > 0);
            assert!(logical_join_counts_per_step(ds, &q, 0).is_empty());
        }
    }

    #[test]
    fn count_at_time_zero_is_zero() {
        let ds = TpcDsGenerator::new(WorkloadParams::small(DatasetKind::TpcDs)).generate();
        let q = JoinQuery { window: 10 };
        assert_eq!(logical_join_count(&ds, &q, 0), 0);
    }
}
