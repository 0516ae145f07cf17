//! The secret-shared outsourced store `DS` and the owner upload pipeline.
//!
//! Owners secret-share their new records and upload a fixed-size, dummy-padded batch
//! at predetermined intervals (Section 2.3). The outsourcing servers accumulate those
//! batches per relation; the accumulated store is what the Transform protocol joins new
//! data against. Record ids ride along with each stored record *outside* the shares —
//! they are needed for contribution accounting and carry no information beyond arrival
//! order, which the servers observe anyway.

use crate::logical::LogicalUpdate;
use crate::schema::{RecordId, Relation};
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::SharedRecordPair;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A padded upload batch as the servers receive it.
#[derive(Debug, Clone)]
pub struct UploadBatch {
    /// Which relation the batch belongs to.
    pub relation: Relation,
    /// Upload time step.
    pub time: u64,
    /// The secret-shared, exhaustively padded records.
    pub records: SharedArrayPair,
    /// Record ids for the *real* records in the batch, in position order. Dummy
    /// positions carry `None`.
    pub ids: Vec<Option<RecordId>>,
}

impl UploadBatch {
    /// Build a padded batch from the owner's plaintext delta.
    ///
    /// Real records are shared first, followed by dummy padding up to `padded_size`
    /// (real records beyond `padded_size` are *not* dropped — the batch grows, exactly
    /// like the paper's "populated to the maximum size" assumption where the padded
    /// size is chosen to dominate the real arrival rate).
    pub fn from_updates<R: Rng + ?Sized>(
        relation: Relation,
        time: u64,
        updates: &[&LogicalUpdate],
        arity: usize,
        padded_size: usize,
        rng: &mut R,
    ) -> Self {
        let mut records = SharedArrayPair::with_arity(arity);
        let mut ids = Vec::with_capacity(updates.len().max(padded_size));
        // share_row / share_dummy draw mask words in exactly the order
        // share(&PlainRecord) would, without cloning each update's fields first.
        for u in updates {
            records
                .push(SharedRecordPair::share_row(&u.fields, true, rng))
                .expect("uniform arity");
            ids.push(Some(u.id));
        }
        while records.len() < padded_size {
            records
                .push(SharedRecordPair::share_dummy(arity, rng))
                .expect("uniform arity");
            ids.push(None);
        }
        Self {
            relation,
            time,
            records,
            ids,
        }
    }

    /// Number of (padded) records in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the batch contains no records at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of real records in the batch.
    #[must_use]
    pub fn real_count(&self) -> usize {
        self.ids.iter().filter(|i| i.is_some()).count()
    }
}

/// Per-relation accumulated outsourced data on the servers.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StoredRelation {
    /// The accumulated secret-shared records (including dummies from padding).
    pub records: SharedArrayPair,
    /// Record ids aligned with `records` (None for dummies).
    pub ids: Vec<Option<RecordId>>,
}

impl StoredRelation {
    /// Number of stored (padded) records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records (not even dummies) have been stored yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The outsourced store `DS`: accumulated uploads for both relations of a view
/// definition.
#[derive(Debug, Clone, Default)]
pub struct OutsourcedStore {
    left: StoredRelation,
    right: StoredRelation,
    uploads_seen: u64,
}

impl OutsourcedStore {
    /// Empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest an upload batch, appending it to the relation's accumulated data.
    pub fn ingest(&mut self, batch: &UploadBatch) {
        let target = match batch.relation {
            Relation::Left => &mut self.left,
            Relation::Right => &mut self.right,
        };
        target
            .records
            .extend(batch.records.clone())
            .expect("uniform arity per relation");
        target.ids.extend(batch.ids.iter().copied());
        self.uploads_seen += 1;
    }

    /// The accumulated data for one relation.
    #[must_use]
    pub fn relation(&self, relation: Relation) -> &StoredRelation {
        match relation {
            Relation::Left => &self.left,
            Relation::Right => &self.right,
        }
    }

    /// Number of upload batches ingested so far.
    #[must_use]
    pub fn uploads_seen(&self) -> u64 {
        self.uploads_seen
    }

    /// Total number of stored (padded) records across both relations.
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Total stored bytes (both parties' shares counted once — i.e. logical record
    /// width), used for storage-size reporting.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        let width = |r: &StoredRelation| {
            r.records
                .arity()
                .map_or(0, |a| (a + 1) * 4 * r.records.len())
        };
        (width(&self.left) + width(&self.right)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::LogicalUpdate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn updates(relation: Relation, arrival: u64, n: usize) -> Vec<LogicalUpdate> {
        (0..n)
            .map(|i| LogicalUpdate {
                id: arrival * 100 + i as u64,
                relation,
                arrival,
                fields: vec![i as u32, arrival as u32],
            })
            .collect()
    }

    #[test]
    fn batch_padding_and_real_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let ups = updates(Relation::Left, 3, 2);
        let refs: Vec<&LogicalUpdate> = ups.iter().collect();
        let batch = UploadBatch::from_updates(Relation::Left, 3, &refs, 2, 8, &mut rng);
        assert_eq!(batch.len(), 8);
        assert_eq!(batch.real_count(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.records.true_cardinality(), 2);
        assert_eq!(batch.ids[0], Some(300));
        assert_eq!(batch.ids[7], None);
    }

    #[test]
    fn batch_with_more_real_records_than_padding_keeps_all() {
        let mut rng = StdRng::seed_from_u64(2);
        let ups = updates(Relation::Right, 1, 5);
        let refs: Vec<&LogicalUpdate> = ups.iter().collect();
        let batch = UploadBatch::from_updates(Relation::Right, 1, &refs, 2, 3, &mut rng);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.real_count(), 5);
    }

    #[test]
    fn store_accumulates_per_relation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = OutsourcedStore::new();
        for t in 1..=4u64 {
            let ups = updates(Relation::Left, t, 2);
            let refs: Vec<&LogicalUpdate> = ups.iter().collect();
            store.ingest(&UploadBatch::from_updates(
                Relation::Left,
                t,
                &refs,
                2,
                4,
                &mut rng,
            ));
        }
        let ups = updates(Relation::Right, 1, 3);
        let refs: Vec<&LogicalUpdate> = ups.iter().collect();
        store.ingest(&UploadBatch::from_updates(
            Relation::Right,
            1,
            &refs,
            2,
            4,
            &mut rng,
        ));

        assert_eq!(store.uploads_seen(), 5);
        assert_eq!(store.relation(Relation::Left).len(), 16);
        assert_eq!(store.relation(Relation::Right).len(), 4);
        assert_eq!(store.total_len(), 20);
        assert_eq!(store.total_bytes(), 20 * 3 * 4);
        assert_eq!(store.relation(Relation::Left).records.true_cardinality(), 8);
    }

    #[test]
    fn empty_batch_is_all_dummies() {
        let mut rng = StdRng::seed_from_u64(4);
        let batch = UploadBatch::from_updates(Relation::Left, 9, &[], 3, 5, &mut rng);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.real_count(), 0);
        assert_eq!(batch.records.true_cardinality(), 0);
    }
}
