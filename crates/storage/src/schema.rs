//! Relation schemas and record identity.

use serde::{Deserialize, Serialize};

/// Globally unique identifier of a logical record, assigned in arrival order. It
/// names a record in Transform's active mirror and across elastic migrations.
pub type RecordId = u64;

/// Identifier of a relation participating in a view definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Relation {
    /// The "left" private relation (Sales / Allegation in the paper's workloads).
    Left,
    /// The "right" relation (Returns — private; Award — public).
    Right,
}

impl Relation {
    /// The other relation of a binary view definition.
    #[must_use]
    pub fn other(self) -> Self {
        match self {
            Relation::Left => Relation::Right,
            Relation::Right => Relation::Left,
        }
    }
}

impl std::fmt::Display for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Relation::Left => write!(f, "left"),
            Relation::Right => write!(f, "right"),
        }
    }
}

/// Width of a column whose values are at most `max`: enough bits for `max`, at
/// least one, at most the 32 of a share word.
#[must_use]
pub fn width_for(max: u64) -> u32 {
    (u64::BITS - max.leading_zeros()).clamp(1, 32)
}

/// A record that does not fit its relation's public schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// `value` needs more than the `bits` of `column` in relation `relation`.
    OutOfWidth {
        /// The relation's name.
        relation: String,
        /// The column's name.
        column: String,
        /// The offending value.
        value: u32,
        /// The column's public width.
        bits: u32,
    },
    /// The record's time column is not its arrival step. A record's time is the
    /// public step that uploads it, which is what lets Transform decide the
    /// θ-condition on upload steps.
    TimeNotArrival {
        /// The relation's name.
        relation: String,
        /// The record's time column.
        time: u32,
        /// The record's arrival step.
        arrival: u64,
    },
    /// The record does not have one value per column of the relation.
    ArityMismatch {
        /// The relation's name.
        relation: String,
        /// The relation's column count.
        expected: usize,
        /// The record's value count.
        found: usize,
    },
    /// The record is tagged with the other side of the view definition.
    RelationMismatch {
        /// The relation's name.
        relation: String,
        /// The side the database plays.
        expected: Relation,
        /// The side the record is tagged with.
        found: Relation,
    },
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::OutOfWidth {
                relation,
                column,
                value,
                bits,
            } => write!(
                f,
                "{relation}.{column} = {value} does not fit the column's {bits} bits"
            ),
            SchemaError::TimeNotArrival {
                relation,
                time,
                arrival,
            } => write!(
                f,
                "a {relation} record timed {time} arrives at step {arrival}: its time must be its arrival"
            ),
            SchemaError::ArityMismatch {
                relation,
                expected,
                found,
            } => write!(
                f,
                "a {relation} record has {found} values for the relation's {expected} columns"
            ),
            SchemaError::RelationMismatch {
                relation,
                expected,
                found,
            } => write!(
                f,
                "a record tagged {found} was inserted into {relation}, the {expected} relation"
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Schema of one relation: named columns of public bit widths, a join-key column and
/// a timestamp column (every workload in the paper's evaluation is keyed and
/// timestamped).
///
/// A column's width is public: the dataset sets it from public parameters alone
/// (the horizon and the padded batch size for ids, the horizon for times), never
/// from the values it holds. The secure kernels over a column are priced at its
/// width, and [`crate::GrowingDatabase::insert`] rejects a value that does not fit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    /// Relation name (descriptive only).
    pub name: String,
    /// Column names.
    pub columns: Vec<String>,
    /// Public bit width of each column, index-aligned with `columns`.
    widths: Vec<u32>,
    /// Index of the join-key column.
    pub key_column: usize,
    /// Index of the timestamp column.
    pub time_column: usize,
    /// Index of the column records *arrive* partitioned by in a sharded deployment.
    /// Defaults to [`Self::key_column`] (co-partitioned arrival: join locality holds
    /// per shard); a workload where uploads are grouped by a non-join attribute (e.g.
    /// retail returns arriving per store while the view joins on item id) sets a
    /// different column via [`Self::with_partition_column`], and the cluster layer
    /// must then shuffle records to the shard owning their join key.
    pub partition_column: usize,
}

impl Schema {
    /// Create a schema of `(name, bits)` columns. The arrival-partition column
    /// defaults to the join-key column (co-partitioned).
    ///
    /// # Panics
    /// Panics when the key or time column index is out of range, or a width is not
    /// in `1..=32`.
    #[must_use]
    pub fn new(name: &str, columns: &[(&str, u32)], key_column: usize, time_column: usize) -> Self {
        assert!(key_column < columns.len(), "key column out of range");
        assert!(time_column < columns.len(), "time column out of range");
        assert!(
            columns.iter().all(|&(_, bits)| (1..=32).contains(&bits)),
            "column widths are 1 to 32 bits"
        );
        Self {
            name: name.to_string(),
            columns: columns.iter().map(|(c, _)| (*c).to_string()).collect(),
            widths: columns.iter().map(|&(_, bits)| bits).collect(),
            key_column,
            time_column,
            partition_column: key_column,
        }
    }

    /// Builder-style override of the arrival-partition column.
    ///
    /// # Panics
    /// Panics when the column index is out of range.
    #[must_use]
    pub fn with_partition_column(mut self, partition_column: usize) -> Self {
        assert!(
            partition_column < self.columns.len(),
            "partition column out of range"
        );
        self.partition_column = partition_column;
        self
    }

    /// True when records arrive already partitioned by their join key, i.e. an
    /// equi-join view can be maintained shard-locally without a shuffle phase.
    #[must_use]
    pub fn is_co_partitioned(&self) -> bool {
        self.partition_column == self.key_column
    }

    /// Number of columns.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column index by name.
    #[must_use]
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Public bit width of each column.
    #[must_use]
    pub fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// The `(name, bits)` columns, as [`Self::new`] takes them.
    #[must_use]
    pub fn columns_with_widths(&self) -> Vec<(&str, u32)> {
        let names = self.columns.iter().map(String::as_str);
        names.zip(self.widths.iter().copied()).collect()
    }

    /// Check that every value fits its column's width.
    ///
    /// # Errors
    /// [`SchemaError::OutOfWidth`] for the first value that does not.
    pub fn check(&self, fields: &[u32]) -> Result<(), SchemaError> {
        let columns = self.columns.iter().zip(&self.widths);
        for ((column, &bits), &value) in columns.zip(fields) {
            if bits < 32 && value >> bits != 0 {
                return Err(SchemaError::OutOfWidth {
                    relation: self.name.clone(),
                    column: column.clone(),
                    value,
                    bits,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_other_and_display() {
        assert_eq!(Relation::Left.other(), Relation::Right);
        assert_eq!(Relation::Right.other(), Relation::Left);
        assert_eq!(Relation::Left.to_string(), "left");
        assert_eq!(Relation::Right.to_string(), "right");
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new(
            "sales",
            &[("pid", 14), ("sale_date", 11), ("amount", 32)],
            0,
            1,
        );
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column_index("amount"), Some(2));
        assert_eq!(s.column_index("missing"), None);
        assert_eq!(s.key_column, 0);
        assert_eq!(s.time_column, 1);
        assert_eq!(s.partition_column, 0, "defaults to the join key");
        assert!(s.is_co_partitioned());
        assert_eq!(s.widths(), [14, 11, 32]);
        assert_eq!(s.check(&[16_383, 2_047, u32::MAX]), Ok(()));
        let err = s.check(&[16_384, 0, 0]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "sales.pid = 16384 does not fit the column's 14 bits"
        );
    }

    #[test]
    fn widths_cover_their_maximum() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 2);
        assert_eq!(width_for(14_000), 14);
        assert_eq!(width_for(2_030), 11);
        assert_eq!(width_for(u64::from(u32::MAX)), 32);
        assert_eq!(width_for(u64::MAX), 32);
    }

    #[test]
    fn partition_column_override() {
        let s = Schema::new(
            "sales",
            &[("pid", 14), ("sale_date", 11), ("store", 3)],
            0,
            1,
        )
        .with_partition_column(2);
        assert_eq!(s.partition_column, 2);
        assert!(!s.is_co_partitioned());
    }

    #[test]
    #[should_panic(expected = "partition column out of range")]
    fn bad_partition_column_panics() {
        let _ = Schema::new("x", &[("a", 8), ("t", 8)], 0, 1).with_partition_column(5);
    }

    #[test]
    #[should_panic(expected = "key column out of range")]
    fn bad_key_column_panics() {
        let _ = Schema::new("x", &[("a", 8)], 3, 0);
    }

    #[test]
    #[should_panic(expected = "time column out of range")]
    fn bad_time_column_panics() {
        let _ = Schema::new("x", &[("a", 8)], 0, 3);
    }
}
