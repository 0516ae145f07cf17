//! The secret-shared outsourced store `DS` and the owner upload pipeline.
//!
//! Owners secret-share their new records and upload a fixed-size, dummy-padded batch
//! at predetermined intervals (Section 2.3). The outsourcing servers keep, per
//! relation, the batches of the public *active window* ([`ActiveWindow`]) — what the
//! Transform protocol joins new data against — and count the rest. Record ids ride
//! along with each stored record *outside* the shares — they name records in
//! Transform's active mirror and carry no information beyond arrival order, which
//! the servers observe anyway.

use crate::logical::LogicalUpdate;
use crate::schema::{RecordId, Relation};
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::SharedRecordPair;
use rand::Rng;
use std::collections::VecDeque;

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

/// A sliding window of blocks, each of a public row count and live for a public
/// number of steps — the one place the retirement rule of the active window is
/// written. The store keeps the padded upload batches in it; Transform keeps the
/// same blocks by length and by the public range of their records' times, to
/// price its joins.
#[derive(Debug, Clone)]
pub struct ActiveWindow<T> {
    /// `(last live step, rows, block)`, oldest first; last live steps never decrease.
    blocks: VecDeque<(u64, usize, T)>,
    rows: usize,
}

impl<T> Default for ActiveWindow<T> {
    fn default() -> Self {
        Self {
            blocks: VecDeque::new(),
            rows: 0,
        }
    }
}

impl<T> ActiveWindow<T> {
    /// A block of `rows` rows that arrived at step `step` joins the window: it is
    /// live for the `window_steps` steps after its own, and every block the delta
    /// of step `step + 1` can no longer join with is dropped (with a zero-step
    /// window, the new block among them).
    pub fn admit(&mut self, step: u64, window_steps: u64, rows: usize, block: T) {
        let last_live = step + window_steps;
        debug_assert!(
            self.blocks
                .back()
                .map_or(true, |&(last, ..)| last <= last_live),
            "window blocks arrive in step order"
        );
        self.rows += rows;
        self.blocks.push_back((last_live, rows, block));
        while let Some(&(last, rows, _)) = self.blocks.front() {
            if last > step {
                break;
            }
            self.rows -= rows;
            self.blocks.pop_front();
        }
    }

    /// Total rows of the live blocks (dummies included).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The live blocks with their row counts, oldest first.
    pub fn blocks(&self) -> impl Iterator<Item = (usize, &T)> {
        self.blocks.iter().map(|(_, rows, block)| (*rows, block))
    }
}

/// One relation's outsourced data on the servers: the *active window* — the padded
/// batches a new delta can still join with, in arrival order — plus lifetime
/// counters. A batch older than the window holds only records whose contribution
/// budget is spent (retirement is charged per step whether or not a record matches,
/// so it is a function of the upload step alone); no protocol reads it again, and
/// the servers drop it.
#[derive(Debug, Clone, Default)]
pub struct StoredRelation {
    window: ActiveWindow<UploadBatch>,
    /// Upload step of the newest ingested batch.
    newest: u64,
    lifetime_rows: usize,
    arity: Option<usize>,
}

impl StoredRelation {
    /// Number of (padded) records ever uploaded to this relation.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lifetime_rows
    }

    /// Whether no records (not even dummies) have been uploaded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lifetime_rows == 0
    }

    /// The active window's batches (dummies included), oldest first: the rows the
    /// next step's delta of the other relation joins against, in scan order.
    pub fn window(&self) -> impl Iterator<Item = &UploadBatch> {
        self.window.blocks().map(|(_, batch)| batch)
    }

    /// Total (padded) rows of the active window.
    #[must_use]
    pub fn window_rows(&self) -> usize {
        self.window.rows()
    }
}

/// The outsourced store `DS`: the active window and lifetime counters of both
/// relations of a view definition.
#[derive(Debug, Clone, Default)]
pub struct OutsourcedStore {
    left: StoredRelation,
    right: StoredRelation,
    window_steps: u64,
}

impl OutsourcedStore {
    /// Empty store whose batches stay joinable for `window_steps` steps after the
    /// one they were uploaded in (`b/ω − 1` under Section 5.1's contribution budget).
    #[must_use]
    pub fn new(window_steps: u64) -> Self {
        Self {
            window_steps,
            ..Self::default()
        }
    }

    fn relation_mut(&mut self, relation: Relation) -> &mut StoredRelation {
        match relation {
            Relation::Left => &mut self.left,
            Relation::Right => &mut self.right,
        }
    }

    /// Ingest an upload batch: it becomes the newest block of its relation's window
    /// (moved in — the store holds the only copy of its shares) and the blocks that
    /// can no longer join with the next step's delta are dropped.
    pub fn ingest(&mut self, batch: UploadBatch) {
        let window_steps = self.window_steps;
        let target = self.relation_mut(batch.relation);
        target.arity = target.arity.or(batch.records.arity());
        target.lifetime_rows += batch.len();
        target.newest = batch.time;
        target
            .window
            .admit(batch.time, window_steps, batch.len(), batch);
    }

    /// Adopt a padded batch another server pair shipped (elastic migration) as one
    /// block that ages like a batch uploaded at its relation's newest step. Not an
    /// owner upload: the lifetime counters do not move.
    pub fn adopt(&mut self, mut batch: UploadBatch) {
        let window_steps = self.window_steps;
        let target = self.relation_mut(batch.relation);
        batch.time = target.newest;
        target
            .window
            .admit(batch.time, window_steps, batch.len(), batch);
    }

    /// One relation's window and counters.
    #[must_use]
    pub fn relation(&self, relation: Relation) -> &StoredRelation {
        match relation {
            Relation::Left => &self.left,
            Relation::Right => &self.right,
        }
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
        // Window of two steps: a batch joins the deltas of the two steps after its own.
        let mut store = OutsourcedStore::new(2);
        for t in 1..=4u64 {
            let ups = updates(Relation::Left, t, 2);
            let refs: Vec<&LogicalUpdate> = ups.iter().collect();
            store.ingest(UploadBatch::from_updates(
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
        store.ingest(UploadBatch::from_updates(
            Relation::Right,
            1,
            &refs,
            2,
            4,
            &mut rng,
        ));

        // Lifetime counters answer for everything ever uploaded...
        assert_eq!(store.relation(Relation::Left).len(), 16);
        assert_eq!(store.relation(Relation::Right).len(), 4);
        // ...while only the window's batches are held, oldest first.
        let left = store.relation(Relation::Left);
        assert_eq!(left.window_rows(), 8);
        let times: Vec<u64> = left.window().map(|batch| batch.time).collect();
        assert_eq!(times, [3, 4]);
        let reals: usize = left.window().map(UploadBatch::real_count).sum();
        assert_eq!(reals, 4);
    }

    #[test]
    fn adopted_rows_age_like_the_newest_upload_and_are_not_counted() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = OutsourcedStore::new(1);
        let batch =
            |t, rng: &mut StdRng| UploadBatch::from_updates(Relation::Left, t, &[], 2, 3, rng);
        store.ingest(batch(1, &mut rng));
        store.adopt(batch(0, &mut rng));
        assert_eq!(store.relation(Relation::Left).window_rows(), 6);
        assert_eq!(store.relation(Relation::Left).len(), 3);
        // Step 2's upload retires both step-1 blocks.
        store.ingest(batch(2, &mut rng));
        assert_eq!(store.relation(Relation::Left).window_rows(), 3);

        // A zero-step window holds nothing: every batch is retired on arrival.
        let mut none = OutsourcedStore::new(0);
        none.ingest(batch(1, &mut rng));
        assert_eq!(none.relation(Relation::Left).window_rows(), 0);
        assert_eq!(none.relation(Relation::Left).len(), 3);
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
