//! View definitions and the materialized view object.
//!
//! The view is **column-major at rest**: [`MaterializedView`] keeps its entries as
//! the share lanes of a [`SharedColumnsPair`] (one lane per field per party plus the
//! `isView` lanes), because the view is written tens of rows at a time — once per
//! synchronization — and read whole by every analyst query. [`MaterializedView::append`]
//! transposes only the incoming batch onto the lane tails, so a query scan
//! (`crate::query::PhysicalPlan::execute`) touches just the lanes its plan names and
//! never pays a transposition. The cache, upload batches and shuffle buckets stay
//! record-major ([`SharedArrayPair`]); batches arrive in that layout.

use incshrink_oblivious::JoinSpec;
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::columns::SharedColumnsPair;
use incshrink_secretshare::tuple::PlainRecord;
use incshrink_workload::{Dataset, JoinQuery};
use serde::{Deserialize, Serialize};

/// Definition of the materialized view: an equi-join between the two relations of a
/// dataset with a temporal window predicate (the shape of both Q1 and Q2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewDefinition {
    /// Join-key column index in the left relation.
    pub left_key: usize,
    /// Timestamp column index in the left relation.
    pub left_time: usize,
    /// Join-key column index in the right relation.
    pub right_key: usize,
    /// Timestamp column index in the right relation.
    pub right_time: usize,
    /// The temporal window: `right.time − left.time ∈ [0, window]`.
    pub window: u32,
}

impl ViewDefinition {
    /// Derive the view definition from a workload dataset (the generators use the
    /// `(key, time)` column convention).
    #[must_use]
    pub fn for_dataset(dataset: &Dataset) -> Self {
        Self {
            left_key: dataset.left.schema.key_column,
            left_time: dataset.left.schema.time_column,
            right_key: dataset.right.schema.key_column,
            right_time: dataset.right.schema.time_column,
            window: dataset.join_window,
        }
    }

    /// The equivalent logical counting query (for ground-truth evaluation).
    #[must_use]
    pub fn as_query(&self) -> JoinQuery {
        JoinQuery {
            window: self.window,
        }
    }

    /// Build the oblivious join specification for `left ⋈ right`.
    #[must_use]
    pub fn join_spec(&self) -> JoinSpec<'static> {
        let window = self.window;
        let lt = self.left_time;
        let rt = self.right_time;
        JoinSpec::with_condition(self.left_key, self.right_key, move |l, r| {
            let lt_v = l.get(lt).copied().unwrap_or(0);
            let rt_v = r.get(rt).copied().unwrap_or(0);
            rt_v >= lt_v && rt_v - lt_v <= window
        })
    }

    /// Build the mirrored join specification for `right ⋈ left` (used when new right
    /// records join the accumulated left relation). The output is swapped back to the
    /// canonical `left ++ right` column order ([`JoinSpec::with_swapped_output`]), so
    /// view entries expose one fixed column layout to the typed analyst query API
    /// regardless of which side's arrival produced them.
    #[must_use]
    pub fn join_spec_reversed(&self) -> JoinSpec<'static> {
        let window = self.window;
        let lt = self.left_time;
        let rt = self.right_time;
        JoinSpec::with_condition(self.right_key, self.left_key, move |r, l| {
            let lt_v = l.get(lt).copied().unwrap_or(0);
            let rt_v = r.get(rt).copied().unwrap_or(0);
            rt_v >= lt_v && rt_v - lt_v <= window
        })
        .with_swapped_output()
    }
}

/// The growing materialized view `V = {V_t}`: a secret-shared array of view entries
/// plus dummy tuples introduced by the DP-sized synchronizations, kept column-major
/// (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct MaterializedView {
    entries: SharedColumnsPair,
    /// Running count of real entries, so the per-step metrics never rescan the view.
    real: usize,
    syncs: u64,
}

impl MaterializedView {
    /// Empty view.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of (real + dummy) entries currently materialized.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been synchronized yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of real view entries (protocol-internal / evaluation use). Constant
    /// time: the count is maintained by the three mutators.
    #[must_use]
    pub fn true_cardinality(&self) -> usize {
        debug_assert_eq!(
            self.real,
            self.entries.true_cardinality(),
            "running real-row count drifted from the isView lanes"
        );
        self.real
    }

    /// The secret-shared view entries the analyst's oblivious query scans run over,
    /// as column-major share lanes. Columns follow the canonical
    /// `left fields ++ right fields` layout of the view definition's join (mirrored
    /// Transform invocations swap their output back — see
    /// [`ViewDefinition::join_spec_reversed`]), which is what the typed query API's
    /// field indices address.
    #[must_use]
    pub fn entries(&self) -> &SharedColumnsPair {
        &self.entries
    }

    /// Number of dummy tuples carried by the view.
    #[must_use]
    pub fn dummy_count(&self) -> usize {
        self.len() - self.true_cardinality()
    }

    /// Number of synchronization operations applied so far.
    #[must_use]
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// Append a batch of synchronized entries (`V ← V ∪ o`): the batch is
    /// transposed onto the lane tails, the rows already materialized are not touched.
    pub fn append(&mut self, batch: SharedArrayPair) {
        if batch.is_empty() {
            return;
        }
        self.syncs += 1;
        self.migrate_in(batch);
    }

    /// Remove and return the *real* view entries whose `key_column` value
    /// satisfies `moved` (elastic migration: the predicate selects the key range
    /// leaving this shard), compacting the lanes in place and keeping the order of
    /// what stays. Only the key and `isView` lanes are recovered to decide; a key
    /// column the view does not have moves nothing. Dummy entries stay behind, the
    /// sync counter is untouched — migration is an ownership transfer, not a Shrink
    /// synchronization.
    ///
    /// The recovery happens inside the migration protocol (both parties'
    /// shares meet exactly as they do inside [`shuffle
    /// routing`](incshrink_oblivious::shuffle::shuffle_route)); the caller
    /// re-shares the records with fresh randomness before they reach the
    /// destination pair.
    pub fn migrate_out(
        &mut self,
        key_column: usize,
        moved: &dyn Fn(u32) -> bool,
    ) -> Vec<PlainRecord> {
        let mut leaving = self.entries.real_mask();
        self.entries
            .narrow_mask(key_column, &mut leaving, |key| u64::from(moved(key as u32)));
        let out: Vec<PlainRecord> = (0..self.len())
            .filter(|&i| leaving[i] != 0)
            .map(|i| self.entries.recover_row(i))
            .collect();
        let keep: Vec<bool> = leaving.iter().map(|&l| l == 0).collect();
        self.entries.retain_rows(&keep);
        self.real -= out.len();
        out
    }

    /// Adopt a batch of migrated entries (real records re-shared in transit
    /// plus the dummy padding that hides the true migrated count). Unlike
    /// [`Self::append`] this does not bump the sync counter: migrations are
    /// ownership transfers, not Shrink synchronizations.
    pub fn migrate_in(&mut self, batch: SharedArrayPair) {
        self.real += batch.true_cardinality();
        self.entries
            .extend_from_pair(&batch)
            .expect("view entries share one arity");
    }

    /// Size of the view in bytes (logical record width × entries), for the Table-2
    /// "materialized view size" rows.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        (self.len() * (self.entries.arity() + 1) * 4) as u64
    }

    /// Size in megabytes.
    #[must_use]
    pub fn size_mb(&self) -> f64 {
        self.size_bytes() as f64 / 1.0e6
    }

    /// Order-sensitive digest of the exact share words materialized in the view
    /// (both parties' field and `isView` shares, plus the sync counter).
    ///
    /// Two views are bit-for-bit identical iff their fingerprints agree (up to
    /// hash collisions), which is how the parallel cluster runtime's equivalence
    /// tests compare whole shard views without shipping them across threads.
    /// The mix is a splitmix64-style avalanche over a running state, so entry
    /// order, share assignment and dummy placement all matter. Words are mixed
    /// record by record (each entry's field shares in column order, then its
    /// `isView` shares), so the digest does not depend on the layout at rest.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fn mix(state: u64, word: u64) -> u64 {
            let mut z = state ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let fields: Vec<(&[u64], &[u64])> = (0..self.entries.arity())
            .filter_map(|f| self.entries.field_shares(f))
            .collect();
        let (view0, view1) = self.entries.is_view_shares();
        let mut state = mix(0x1C5_811A_D0F1, self.syncs);
        for i in 0..self.len() {
            for (s0, s1) in &fields {
                state = mix(state, s0[i]);
                state = mix(state, s1[i]);
            }
            state = mix(state, view0[i]);
            state = mix(state, view1[i]);
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_workload::{DatasetKind, TpcDsGenerator, WorkloadParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn view_definition_from_dataset_and_query() {
        let ds = TpcDsGenerator::new(WorkloadParams::small(DatasetKind::TpcDs)).generate();
        let def = ViewDefinition::for_dataset(&ds);
        assert_eq!(def.window, 10);
        assert_eq!(def.left_key, 0);
        assert_eq!(def.as_query().window, 10);
    }

    #[test]
    fn join_spec_window_condition() {
        let def = ViewDefinition {
            left_key: 0,
            left_time: 1,
            right_key: 0,
            right_time: 1,
            window: 10,
        };
        let spec = def.join_spec();
        assert!(spec.condition.as_ref().unwrap()(&[1, 100], &[1, 105]));
        assert!(!spec.condition.as_ref().unwrap()(&[1, 100], &[1, 120]));
        assert!(!spec.condition.as_ref().unwrap()(&[1, 100], &[1, 90]));

        let rev = def.join_spec_reversed();
        // Reversed spec receives (right, left).
        assert!(rev.condition.as_ref().unwrap()(&[1, 105], &[1, 100]));
        assert!(!rev.condition.as_ref().unwrap()(&[1, 90], &[1, 100]));
    }

    #[test]
    fn materialized_view_accounting() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut view = MaterializedView::new();
        assert!(view.is_empty());
        assert_eq!(view.size_bytes(), 0);

        let batch = SharedArrayPair::share_records(
            &[
                PlainRecord::real(vec![1, 2, 3, 4]),
                PlainRecord::dummy(4),
                PlainRecord::real(vec![5, 6, 7, 8]),
            ],
            &mut rng,
        );
        view.append(batch);
        view.append(SharedArrayPair::new()); // empty appends are ignored
        assert_eq!(view.len(), 3);
        assert_eq!(view.true_cardinality(), 2);
        assert_eq!(view.dummy_count(), 1);
        assert_eq!(view.sync_count(), 1);
        assert_eq!(view.size_bytes(), 3 * 5 * 4);
        assert!(view.size_mb() > 0.0);
    }

    #[test]
    fn migration_moves_reals_without_touching_sync_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut source = MaterializedView::new();
        source.append(SharedArrayPair::share_records(
            &[
                PlainRecord::real(vec![10, 1]),
                PlainRecord::real(vec![20, 2]),
                PlainRecord::dummy(2),
                PlainRecord::real(vec![10, 3]),
            ],
            &mut rng,
        ));
        assert_eq!(source.sync_count(), 1);

        let moved = source.migrate_out(0, &|key| key == 10);
        assert_eq!(moved.len(), 2);
        assert!(moved.iter().all(|r| r.fields[0] == 10));
        assert_eq!(source.true_cardinality(), 1, "key 20 stays");
        assert_eq!(source.dummy_count(), 1, "dummies stay behind");
        assert_eq!(source.sync_count(), 1, "migration is not a sync");

        let mut dest = MaterializedView::new();
        dest.migrate_in(SharedArrayPair::share_records(&moved, &mut rng));
        dest.migrate_in(SharedArrayPair::new()); // empty transfers are ignored
        assert_eq!(dest.true_cardinality(), 2);
        assert_eq!(dest.sync_count(), 0);
    }
}
