//! The owner-side growing logical database `D = {u_i}`.
//!
//! A growing database is an insert-only collection of timestamped logical updates
//! (Definition in Section 4.1). The workload generators fill one of these per relation;
//! the framework replays it step by step, and the query module evaluates logical
//! ground-truth answers `q_t(D_t)` against it.

use crate::schema::{RecordId, Relation, Schema, SchemaError};
use serde::{Deserialize, Serialize};

/// One timestamped logical update (an inserted record).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogicalUpdate {
    /// Unique record id (used for contribution accounting).
    pub id: RecordId,
    /// Which relation the record belongs to.
    pub relation: Relation,
    /// Arrival time step (the paper multiplexes the domain timestamp as arrival time).
    pub arrival: u64,
    /// The record's column values (matching the relation's schema).
    pub fields: Vec<u32>,
}

/// A growing database for one relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrowingDatabase {
    /// The relation's schema.
    pub schema: Schema,
    /// Which side of the view definition this relation plays.
    pub relation: Relation,
    updates: Vec<LogicalUpdate>,
    /// Positions in `updates` ordered by arrival step and, within a step, by
    /// insertion: the replay loops ask for one step's arrivals at every step.
    by_arrival: Vec<u32>,
}

impl GrowingDatabase {
    /// Empty growing database.
    #[must_use]
    pub fn new(schema: Schema, relation: Relation) -> Self {
        Self {
            schema,
            relation,
            updates: Vec::new(),
            by_arrival: Vec::new(),
        }
    }

    /// Insert a logical update: the record enters its relation here, so this is
    /// where its values are checked against the columns' public widths, and its
    /// time column against its arrival step.
    ///
    /// Costs `O(log n)` plus one index slot moved per already-inserted update that
    /// arrives later — none for the generators' in-order inserts, a handful for
    /// their few-steps-late ones.
    ///
    /// # Errors
    /// [`SchemaError::ArityMismatch`] when the record does not have one value per
    /// column, [`SchemaError::RelationMismatch`] when its relation tag disagrees
    /// with the database's relation, [`SchemaError::OutOfWidth`] when a value does
    /// not fit its column's width, [`SchemaError::TimeNotArrival`] when the
    /// record's time is not its arrival step; the database is unchanged in every
    /// case.
    pub fn insert(&mut self, update: LogicalUpdate) -> Result<(), SchemaError> {
        if update.fields.len() != self.schema.arity() {
            return Err(SchemaError::ArityMismatch {
                relation: self.schema.name.clone(),
                expected: self.schema.arity(),
                found: update.fields.len(),
            });
        }
        if update.relation != self.relation {
            return Err(SchemaError::RelationMismatch {
                relation: self.schema.name.clone(),
                expected: self.relation,
                found: update.relation,
            });
        }
        self.schema.check(&update.fields)?;
        let time = update.fields[self.schema.time_column];
        if u64::from(time) != update.arrival {
            return Err(SchemaError::TimeNotArrival {
                relation: self.schema.name.clone(),
                time,
                arrival: update.arrival,
            });
        }
        let position = u32::try_from(self.updates.len()).expect("fewer than 2^32 updates");
        // Behind every update arriving no later, so a step's run stays in
        // insertion order.
        self.by_arrival
            .insert(self.arrived_by(update.arrival), position);
        self.updates.push(update);
        Ok(())
    }

    /// Number of updates with arrival time ≤ `t`: where step `t`'s run ends in
    /// `by_arrival`.
    fn arrived_by(&self, t: u64) -> usize {
        self.by_arrival
            .partition_point(|&i| self.updates[i as usize].arrival <= t)
    }

    /// All updates, in insertion order.
    #[must_use]
    pub fn updates(&self) -> &[LogicalUpdate] {
        &self.updates
    }

    /// Total number of logical updates ever inserted.
    #[must_use]
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True when no update has been inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The database instance `D_t`: every update with arrival time ≤ `t`.
    #[must_use]
    pub fn instance_at(&self, t: u64) -> Vec<&LogicalUpdate> {
        self.updates.iter().filter(|u| u.arrival <= t).collect()
    }

    /// Updates arriving exactly at step `t` (the delta the owner uploads at `t`), in
    /// insertion order.
    #[must_use]
    pub fn arrivals_at(&self, t: u64) -> Vec<&LogicalUpdate> {
        let start = t.checked_sub(1).map_or(0, |before| self.arrived_by(before));
        self.by_arrival[start..self.arrived_by(t)]
            .iter()
            .map(|&i| &self.updates[i as usize])
            .collect()
    }

    /// Updates arriving in the half-open interval `(from, to]`, in insertion order.
    #[must_use]
    pub fn arrivals_between(&self, from: u64, to: u64) -> Vec<&LogicalUpdate> {
        if from >= to {
            return Vec::new();
        }
        // Runs of several steps, each in insertion order: merge them back into one.
        let mut positions = self.by_arrival[self.arrived_by(from)..self.arrived_by(to)].to_vec();
        positions.sort_unstable();
        positions
            .into_iter()
            .map(|i| &self.updates[i as usize])
            .collect()
    }

    /// The largest arrival time present (0 for an empty database).
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.updates.iter().map(|u| u.arrival).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_db() -> GrowingDatabase {
        let schema = Schema::new("sales", &[("pid", 8), ("date", 8)], 0, 1);
        let mut db = GrowingDatabase::new(schema, Relation::Left);
        for (i, arrival) in [1u64, 1, 2, 4, 4, 4].iter().enumerate() {
            db.insert(LogicalUpdate {
                id: i as u64,
                relation: Relation::Left,
                arrival: *arrival,
                fields: vec![i as u32, *arrival as u32],
            })
            .unwrap();
        }
        db
    }

    #[test]
    fn instances_and_arrivals() {
        let db = sample_db();
        assert_eq!(db.len(), 6);
        assert!(!db.is_empty());
        assert_eq!(db.instance_at(0).len(), 0);
        assert_eq!(db.instance_at(1).len(), 2);
        assert_eq!(db.instance_at(3).len(), 3);
        assert_eq!(db.instance_at(10).len(), 6);
        assert_eq!(db.arrivals_at(4).len(), 3);
        assert_eq!(db.arrivals_at(3).len(), 0);
        assert_eq!(db.arrivals_between(1, 4).len(), 4);
        assert_eq!(db.horizon(), 4);
        assert_eq!(db.updates().len(), 6);
    }

    #[test]
    fn empty_database_properties() {
        let schema = Schema::new("x", &[("a", 8), ("t", 8)], 0, 1);
        let db = GrowingDatabase::new(schema, Relation::Right);
        assert!(db.is_empty());
        assert_eq!(db.horizon(), 0);
    }

    proptest! {
        #[test]
        fn prop_arrival_index_equals_full_scan(
            arrivals in proptest::collection::vec(0u64..12, 0..60),
            from in 0u64..14,
            to in 0u64..14,
        ) {
            // Out-of-order inserts; the indexed answers must be the same elements
            // (ids are unique) in the same insertion order as filtering every update.
            let schema = Schema::new("sales", &[("pid", 8), ("date", 8)], 0, 1);
            let mut db = GrowingDatabase::new(schema, Relation::Left);
            for (i, &arrival) in arrivals.iter().enumerate() {
                db.insert(LogicalUpdate {
                    id: i as u64,
                    relation: Relation::Left,
                    arrival,
                    fields: vec![i as u32, arrival as u32],
                })
                .unwrap();
            }
            let scan_between: Vec<&LogicalUpdate> = db
                .updates()
                .iter()
                .filter(|u| u.arrival > from && u.arrival <= to)
                .collect();
            prop_assert_eq!(db.arrivals_between(from, to), scan_between);
            let scan_at: Vec<&LogicalUpdate> =
                db.updates().iter().filter(|u| u.arrival == to).collect();
            prop_assert_eq!(db.arrivals_at(to), scan_at);
        }
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut db = sample_db();
        let before = db.clone();
        let err = db
            .insert(LogicalUpdate {
                id: 99,
                relation: Relation::Left,
                arrival: 5,
                fields: vec![1],
            })
            .unwrap_err();
        assert_eq!(
            err,
            SchemaError::ArityMismatch {
                relation: "sales".into(),
                expected: 2,
                found: 1,
            }
        );
        assert_eq!(db, before, "a rejected record is not inserted");
    }

    #[test]
    fn relation_mismatch_rejected() {
        let mut db = sample_db();
        let before = db.clone();
        let err = db
            .insert(LogicalUpdate {
                id: 99,
                relation: Relation::Right,
                arrival: 5,
                fields: vec![1, 5],
            })
            .unwrap_err();
        assert_eq!(
            err,
            SchemaError::RelationMismatch {
                relation: "sales".into(),
                expected: Relation::Left,
                found: Relation::Right,
            }
        );
        assert_eq!(db, before, "a rejected record is not inserted");
    }

    #[test]
    fn out_of_width_value_is_a_typed_error() {
        let mut db = sample_db();
        let before = db.clone();
        let err = db
            .insert(LogicalUpdate {
                id: 99,
                relation: Relation::Left,
                arrival: 5,
                fields: vec![256, 5],
            })
            .unwrap_err();
        assert_eq!(
            err,
            SchemaError::OutOfWidth {
                relation: "sales".into(),
                column: "pid".into(),
                value: 256,
                bits: 8,
            }
        );
        assert_eq!(db, before, "a rejected record is not inserted");
    }

    #[test]
    fn a_time_off_its_arrival_is_a_typed_error() {
        let mut db = sample_db();
        let before = db.clone();
        let late = LogicalUpdate {
            id: 99,
            relation: Relation::Left,
            arrival: 5,
            fields: vec![1, 4],
        };
        let err = db.insert(late).unwrap_err();
        let expected = SchemaError::TimeNotArrival {
            relation: "sales".into(),
            time: 4,
            arrival: 5,
        };
        assert_eq!(err, expected);
        assert_eq!(db, before, "a rejected record is not inserted");
    }
}
