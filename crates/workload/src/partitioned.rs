//! Non-co-partitioned arrival variants: workloads whose records *arrive* grouped by
//! an attribute that is **not** the join key.
//!
//! The sharded cluster layer's fast path assumes join locality: every record is
//! routed to the shard owning its join key, so an equi-join view can be maintained
//! shard-locally. Real deployments often cannot guarantee that — a retail chain's
//! uploads arrive per **store**, while the returns view joins on **item id**, and a
//! customer may return an item at a different store than they bought it from. This
//! module derives that scenario from any base workload: [`to_store_partitioned`]
//! appends a `store` column to both relations, marks it as the arrival-partition
//! column ([`incshrink_storage::Schema::partition_column`]), and assigns each
//! return a store that *differs* from the purchase store with configurable
//! probability. Join keys, timestamps, record ids and arrival order are untouched,
//! so [`crate::queries::logical_join_count`] ground truth is identical to the base
//! workload — which is exactly what lets cluster tests compare a shuffled run
//! against the single-pair truth.

use crate::dataset::{insert_generated, Dataset};
use incshrink_storage::{width_for, GrowingDatabase, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Append a `store` column, wide enough for `stores` stores, to a relation's schema
/// and mark it as the arrival-partition column.
fn store_schema(base: &Schema, stores: u32) -> Schema {
    let mut columns = base.columns_with_widths();
    columns.push(("store", width_for(u64::from(stores) - 1)));
    Schema::new(&base.name, &columns, base.key_column, base.time_column)
        .with_partition_column(base.arity())
}

/// Derive a store-partitioned variant of a workload: every record gains a `store`
/// attribute (uniform over `stores`), records arrive partitioned by it, and each
/// *right* record matching a left record's key is returned at a different store
/// than the purchase with probability `cross_store_fraction` (otherwise it reuses
/// the purchase store). With any positive cross-store fraction, join pairs span
/// arrival partitions and the cluster layer needs its shuffle phase; the logical
/// join ground truth is bit-identical to `base`'s.
///
/// # Panics
/// Panics when `stores` is zero or `cross_store_fraction` is outside `[0, 1]`.
#[must_use]
pub fn to_store_partitioned(
    base: &Dataset,
    stores: u32,
    cross_store_fraction: f64,
    seed: u64,
) -> Dataset {
    assert!(stores > 0, "need at least one store");
    assert!(
        (0.0..=1.0).contains(&cross_store_fraction),
        "cross-store fraction must be a probability"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5709_E5ED);

    let left_key = base.left.schema.key_column;
    let mut left =
        GrowingDatabase::new(store_schema(&base.left.schema, stores), base.left.relation);
    // Remember each key's purchase store so returns can reuse or deviate from it.
    let mut purchase_store: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for u in base.left.updates() {
        let store = rng.gen_range(0..stores);
        if let Some(&key) = u.fields.get(left_key) {
            purchase_store.entry(key).or_insert(store);
        }
        let mut fields = u.fields.clone();
        fields.push(store);
        let mut update = u.clone();
        update.fields = fields;
        insert_generated(&mut left, update);
    }

    let right_key = base.right.schema.key_column;
    let mut right = GrowingDatabase::new(
        store_schema(&base.right.schema, stores),
        base.right.relation,
    );
    for u in base.right.updates() {
        let home = u
            .fields
            .get(right_key)
            .and_then(|key| purchase_store.get(key).copied());
        let store = match home {
            Some(home) if !rng.gen_bool(cross_store_fraction) => home,
            // Cross-store return (or a right record with no matching purchase):
            // uniform over the *other* stores when there is more than one.
            Some(home) if stores > 1 => (home + rng.gen_range(1..stores)) % stores,
            _ => rng.gen_range(0..stores),
        };
        let mut fields = u.fields.clone();
        fields.push(store);
        let mut update = u.clone();
        update.fields = fields;
        insert_generated(&mut right, update);
    }

    Dataset {
        kind: base.kind,
        left,
        right,
        right_is_public: base.right_is_public,
        upload_interval: base.upload_interval,
        left_batch_size: base.left_batch_size,
        right_batch_size: base.right_batch_size,
        join_window: base.join_window,
        params: base.params,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetKind, WorkloadParams};
    use crate::queries::{logical_join_count, JoinQuery};
    use crate::tpcds::TpcDsGenerator;

    fn base() -> Dataset {
        TpcDsGenerator::new(WorkloadParams::small(DatasetKind::TpcDs)).generate()
    }

    #[test]
    fn ground_truth_is_unchanged_by_the_store_column() {
        let base = base();
        let variant = to_store_partitioned(&base, 8, 0.5, 3);
        let q = JoinQuery { window: 10 };
        for t in [1u64, 20, 60] {
            assert_eq!(
                logical_join_count(&variant, &q, t),
                logical_join_count(&base, &q, t)
            );
        }
    }

    #[test]
    fn partition_column_is_the_store_not_the_key() {
        let base = base();
        let variant = to_store_partitioned(&base, 4, 0.5, 3);
        assert_eq!(variant.left.schema.partition_column, 2);
        assert_eq!(variant.left.schema.key_column, 0);
        assert!(!variant.left.schema.is_co_partitioned());
        assert!(!variant.right.schema.is_co_partitioned());
        assert_eq!(variant.left.schema.column_index("store"), Some(2));
        for u in variant.left.updates().iter().chain(variant.right.updates()) {
            assert_eq!(u.fields.len(), 3);
            assert!(u.fields[2] < 4);
        }
    }

    #[test]
    fn cross_store_fraction_controls_split_pairs() {
        let base = base();
        let q = JoinQuery { window: 10 };
        let split_pairs = |ds: &Dataset| -> (u64, u64) {
            let mut same = 0u64;
            let mut cross = 0u64;
            for l in ds.left.updates() {
                for r in ds.right.updates() {
                    if q.pair_matches(&l.fields[..2], &r.fields[..2]) {
                        if l.fields[2] == r.fields[2] {
                            same += 1;
                        } else {
                            cross += 1;
                        }
                    }
                }
            }
            (same, cross)
        };
        let (same0, cross0) = split_pairs(&to_store_partitioned(&base, 8, 0.0, 3));
        assert_eq!(cross0, 0, "zero fraction keeps returns at the home store");
        assert!(same0 > 0);
        let (same1, cross1) = split_pairs(&to_store_partitioned(&base, 8, 1.0, 3));
        assert_eq!(same1, 0, "unit fraction moves every return");
        assert!(cross1 > 0);
        let (same_h, cross_h) = split_pairs(&to_store_partitioned(&base, 8, 0.5, 3));
        assert!(same_h > 0 && cross_h > 0, "mixed fraction splits pairs");
    }

    #[test]
    fn deterministic_per_seed() {
        let base = base();
        let a = to_store_partitioned(&base, 6, 0.4, 9);
        let b = to_store_partitioned(&base, 6, 0.4, 9);
        assert_eq!(a.left, b.left);
        assert_eq!(a.right, b.right);
        let c = to_store_partitioned(&base, 6, 0.4, 10);
        assert!(a.left != c.left || a.right != c.right);
    }

    #[test]
    #[should_panic(expected = "at least one store")]
    fn zero_stores_rejected() {
        let _ = to_store_partitioned(&base(), 0, 0.5, 1);
    }
}
