//! Plaintext table helpers used by operator implementations and tests.
//!
//! The oblivious operators consume and produce [`SharedArrayPair`]s; this module
//! provides a small plaintext table abstraction for constructing inputs and checking
//! outputs against a clear-text reference implementation.

use incshrink_secretshare::tuple::PlainRecord;
use incshrink_secretshare::SharedArrayPair;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A plaintext relation: a list of rows plus named column metadata.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlainTable {
    /// Column names, purely descriptive.
    pub columns: Vec<String>,
    /// Rows; every row must have `columns.len()` fields.
    pub rows: Vec<Vec<u32>>,
}

impl PlainTable {
    /// Build a table from column names.
    #[must_use]
    pub fn new(columns: &[&str]) -> Self {
        Self {
            columns: columns.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics when the row arity does not match the column count.
    pub fn push_row(&mut self, row: Vec<u32>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity {} != column count {}",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column index by name.
    #[must_use]
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Secret-share all rows as real records.
    pub fn share<R: Rng + ?Sized>(&self, rng: &mut R) -> SharedArrayPair {
        let records: Vec<PlainRecord> = self
            .rows
            .iter()
            .map(|r| PlainRecord::real(r.clone()))
            .collect();
        SharedArrayPair::share_records(&records, rng)
    }

    /// Secret-share all rows and pad with dummies up to `padded_len`.
    #[cfg(test)]
    pub(crate) fn share_padded<R: Rng + ?Sized>(
        &self,
        padded_len: usize,
        rng: &mut R,
    ) -> SharedArrayPair {
        let arity = self.columns.len();
        let mut records: Vec<PlainRecord> = self
            .rows
            .iter()
            .map(|r| PlainRecord::real(r.clone()))
            .collect();
        while records.len() < padded_len {
            records.push(PlainRecord::dummy(arity));
        }
        SharedArrayPair::share_records(&records, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table_construction_and_lookup() {
        let mut t = PlainTable::new(&["pid", "date"]);
        assert!(t.is_empty());
        t.push_row(vec![1, 100]);
        t.push_row(vec![2, 200]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.column_index("date"), Some(1));
        assert_eq!(t.column_index("missing"), None);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = PlainTable::new(&["a"]);
        t.push_row(vec![1, 2]);
    }

    #[test]
    fn sharing_roundtrip_and_padding() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = PlainTable::new(&["k", "v"]);
        t.push_row(vec![5, 50]);
        t.push_row(vec![6, 60]);

        let shared = t.share(&mut rng);
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.true_cardinality(), 2);

        let padded = t.share_padded(5, &mut rng);
        assert_eq!(padded.len(), 5);
        assert_eq!(padded.true_cardinality(), 2);
        let plain = padded.recover_all();
        assert!(plain[0].is_view && plain[1].is_view);
        assert!(!plain[4].is_view);
    }
}
