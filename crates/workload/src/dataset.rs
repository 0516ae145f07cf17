//! Dataset container shared by the generators.

use incshrink_storage::{GrowingDatabase, LogicalUpdate, Schema};
use serde::{Deserialize, Serialize};

/// Insert a generated record. Every generator and variant sets its columns' widths
/// from its own public parameters so that its records fit them, and times each
/// record at its arrival step.
///
/// # Panics
/// Panics when a value does not fit its column's width (the widths were derived
/// from parameters that do not bound the values) or a time is not its arrival.
pub(crate) fn insert_generated(db: &mut GrowingDatabase, update: LogicalUpdate) {
    if let Err(e) = db.insert(update) {
        panic!("a generated record must fit its public schema: {e}");
    }
}

/// `schema` with its join-key column `bits` wide (at most a word): how a variant
/// re-derives the key width from its own public parameters.
pub(crate) fn rekeyed(schema: &Schema, bits: u32) -> Schema {
    let mut columns = schema.columns_with_widths();
    columns[schema.key_column].1 = bits.min(32);
    Schema::new(
        &schema.name,
        &columns,
        schema.key_column,
        schema.time_column,
    )
    .with_partition_column(schema.partition_column)
}

/// Which evaluation dataset a generated workload mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// TPC-ds-like Sales ⋈ Returns stream (Q1: returned within 10 days; multiplicity 1).
    TpcDs,
    /// CPDB-like Allegation ⋈ Award stream (Q2: award within 10 days of a misconduct
    /// finding; multiplicity > 1; the Award relation is public).
    Cpdb,
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetKind::TpcDs => write!(f, "TPC-ds"),
            DatasetKind::Cpdb => write!(f, "CPDB"),
        }
    }
}

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadParams {
    /// Number of owner upload epochs to generate.
    pub steps: u64,
    /// Mean number of *new view entries* per step (the paper's 2.7 / 9.8 statistics).
    pub view_entries_per_step: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadParams {
    /// Defaults mirroring the paper's TPC-ds configuration at a simulation-friendly
    /// horizon (the full 5-year daily stream is reproduced by the scaling experiment).
    #[must_use]
    pub fn tpcds_default() -> Self {
        Self {
            steps: 360,
            view_entries_per_step: 2.7,
            seed: 0x7C9D_1234,
        }
    }

    /// Defaults mirroring the paper's CPDB configuration.
    #[must_use]
    pub fn cpdb_default() -> Self {
        Self {
            steps: 360,
            view_entries_per_step: 9.8,
            seed: 0xC9DB_5678,
        }
    }

    /// Smaller horizon for fast unit/integration tests.
    #[must_use]
    pub fn small(kind: DatasetKind) -> Self {
        let mut p = match kind {
            DatasetKind::TpcDs => Self::tpcds_default(),
            DatasetKind::Cpdb => Self::cpdb_default(),
        };
        p.steps = 60;
        p
    }
}

/// A generated workload: the two growing relations plus metadata the framework needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Which evaluation dataset this mimics.
    pub kind: DatasetKind,
    /// The left (always private) relation: Sales / Allegation.
    pub left: GrowingDatabase,
    /// The right relation: Returns (private) / Award (public).
    pub right: GrowingDatabase,
    /// Whether the right relation is public (known to the servers in the clear).
    pub right_is_public: bool,
    /// Owner upload interval in time steps (1 for TPC-ds, 5 for CPDB — but the
    /// generators emit one upload epoch per step, so this is 1 unless re-deriving the
    /// paper's calendar cadence matters).
    pub upload_interval: u64,
    /// Padded batch size per upload for the left relation.
    pub left_batch_size: usize,
    /// Padded batch size per upload for the right relation (0 when public).
    pub right_batch_size: usize,
    /// The join window (days) of the evaluation query's temporal predicate.
    pub join_window: u32,
    /// Parameters used for generation.
    pub params: WorkloadParams,
}

impl Dataset {
    /// Number of upload epochs in the workload.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.params.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_defaults_match_paper_statistics() {
        let t = WorkloadParams::tpcds_default();
        assert!((t.view_entries_per_step - 2.7).abs() < 1e-12);
        let c = WorkloadParams::cpdb_default();
        assert!((c.view_entries_per_step - 9.8).abs() < 1e-12);
        let s = WorkloadParams::small(DatasetKind::TpcDs);
        assert_eq!(s.steps, 60);
        assert_eq!(DatasetKind::TpcDs.to_string(), "TPC-ds");
        assert_eq!(DatasetKind::Cpdb.to_string(), "CPDB");
    }
}
