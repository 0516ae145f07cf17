//! Crate-boundary smoke test: logical growing DB, padded uploads and the cache.

use incshrink_mpc::cost::CostMeter;
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::PlainRecord;
use incshrink_storage::{
    GrowingDatabase, LogicalUpdate, Relation, Schema, SecureCache, UploadBatch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn growing_database_is_insert_only_and_time_indexed() {
    let schema = Schema::new("sales", &[("pid", 2), ("sale_date", 2)], 0, 1);
    let mut db = GrowingDatabase::new(schema, Relation::Left);
    for t in 1..=3u64 {
        db.insert(LogicalUpdate {
            id: t,
            relation: Relation::Left,
            arrival: t,
            fields: vec![t as u32, t as u32],
        })
        .expect("values fit their widths");
    }
    assert_eq!(db.len(), 3);
    assert_eq!(db.instance_at(2).len(), 2, "prefix at t=2");
    assert_eq!(db.arrivals_at(3).len(), 1);
    assert_eq!(db.horizon(), 3);
}

#[test]
fn padded_upload_batches_hide_the_arrival_count() {
    let mut rng = StdRng::seed_from_u64(4);
    let updates = [LogicalUpdate {
        id: 1,
        relation: Relation::Left,
        arrival: 1,
        fields: vec![7, 1],
    }];
    let refs: Vec<&LogicalUpdate> = updates.iter().collect();
    let batch = UploadBatch::from_updates(1, &refs, 2, 6, &mut rng);
    assert_eq!(batch.records.len(), 6, "padded to the fixed batch size");
    assert_eq!(batch.real_count(), 1);
}

#[test]
fn secure_cache_serves_reals_before_dummies() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut records: Vec<PlainRecord> = (0..4).map(|i| PlainRecord::real(vec![i, 0])).collect();
    records.extend((0..4).map(|_| PlainRecord::dummy(2)));
    let mut cache = SecureCache::new(2, None);
    cache.write(SharedArrayPair::share_records(&records, &mut rng));
    assert_eq!(cache.len(), 8);
    assert_eq!(cache.true_cardinality(), 4);

    let mut meter = CostMeter::new();
    let fetched = cache.read(4, &mut meter);
    assert_eq!(fetched.true_cardinality(), 4, "all reals fetched first");
    assert_eq!(cache.true_cardinality(), 0);
}
