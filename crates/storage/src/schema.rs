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

/// Schema of one relation: named 32-bit columns, a join-key column and a timestamp
/// column (every workload in the paper's evaluation is keyed and timestamped).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    /// Relation name (descriptive only).
    pub name: String,
    /// Column names.
    pub columns: Vec<String>,
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
    /// Create a schema. The arrival-partition column defaults to the join-key column
    /// (co-partitioned).
    ///
    /// # Panics
    /// Panics when the key or time column index is out of range.
    #[must_use]
    pub fn new(name: &str, columns: &[&str], key_column: usize, time_column: usize) -> Self {
        assert!(key_column < columns.len(), "key column out of range");
        assert!(time_column < columns.len(), "time column out of range");
        Self {
            name: name.to_string(),
            columns: columns.iter().map(|s| (*s).to_string()).collect(),
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
        let s = Schema::new("sales", &["pid", "sale_date", "amount"], 0, 1);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column_index("amount"), Some(2));
        assert_eq!(s.column_index("missing"), None);
        assert_eq!(s.key_column, 0);
        assert_eq!(s.time_column, 1);
        assert_eq!(s.partition_column, 0, "defaults to the join key");
        assert!(s.is_co_partitioned());
    }

    #[test]
    fn partition_column_override() {
        let s = Schema::new("sales", &["pid", "sale_date", "store"], 0, 1).with_partition_column(2);
        assert_eq!(s.partition_column, 2);
        assert!(!s.is_co_partitioned());
    }

    #[test]
    #[should_panic(expected = "partition column out of range")]
    fn bad_partition_column_panics() {
        let _ = Schema::new("x", &["a", "t"], 0, 1).with_partition_column(5);
    }

    #[test]
    #[should_panic(expected = "key column out of range")]
    fn bad_key_column_panics() {
        let _ = Schema::new("x", &["a"], 3, 0);
    }

    #[test]
    #[should_panic(expected = "time column out of range")]
    fn bad_time_column_panics() {
        let _ = Schema::new("x", &["a"], 0, 3);
    }
}
