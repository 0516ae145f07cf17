//! The owners' padded upload batches.
//!
//! Owners secret-share their new records and upload a fixed-size, dummy-padded batch
//! at predetermined intervals (Section 2.3). Record ids ride along with each record
//! *outside* the shares — they name records in Transform's active mirror and carry
//! no information beyond arrival order, which the servers observe anyway.

use crate::logical::LogicalUpdate;
use crate::schema::RecordId;
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::SharedRecordPair;
use rand::Rng;

/// A padded upload batch as the servers receive it.
#[derive(Debug, Clone)]
pub struct UploadBatch {
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
        Self { time, records, ids }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Relation;
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
        let batch = UploadBatch::from_updates(3, &refs, 2, 8, &mut rng);
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
        let batch = UploadBatch::from_updates(1, &refs, 2, 3, &mut rng);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.real_count(), 5);
    }

    #[test]
    fn empty_batch_is_all_dummies() {
        let mut rng = StdRng::seed_from_u64(4);
        let batch = UploadBatch::from_updates(9, &[], 3, 5, &mut rng);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.real_count(), 0);
        assert_eq!(batch.records.true_cardinality(), 0);
    }
}
