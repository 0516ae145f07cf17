//! CPDB-like Allegation ⋈ Award stream generator.
//!
//! Mirrors the statistics of the paper's Chicago-Police-Database setup for Q2 ("an
//! officer received an award within 10 days of a sustained misconduct allegation"):
//! the Allegation relation is private and uploaded every epoch, the Award relation is
//! public (known to the servers up front), the join multiplicity exceeds one (an
//! allegation can match several awards), and on average ≈9.8 new view entries appear
//! per upload epoch.

use crate::dataset::{insert_generated, Dataset, DatasetKind, WorkloadParams};
use incshrink_storage::{width_for, GrowingDatabase, LogicalUpdate, Relation, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Poisson};

/// The latest an out-of-window award arrives, in epochs after its allegation.
const MAX_AWARD_GAP: u64 = 60;

/// Generator for the CPDB-like workload.
#[derive(Debug, Clone, Copy)]
pub struct CpdbGenerator {
    /// Generation parameters.
    pub params: WorkloadParams,
    /// Mean number of in-window awards per allegation (drives the join multiplicity).
    pub mean_multiplicity: f64,
}

impl CpdbGenerator {
    /// Generator with explicit parameters and the paper-like multiplicity of ≈3.5.
    #[must_use]
    pub fn new(params: WorkloadParams) -> Self {
        Self {
            params,
            mean_multiplicity: 3.5,
        }
    }

    /// Generator with the paper-default configuration.
    #[must_use]
    pub fn default_config() -> Self {
        Self::new(WorkloadParams::cpdb_default())
    }

    /// Allegations per epoch, so that (allegations/epoch) · multiplicity ≈ the
    /// target rate.
    fn allegation_rate(&self) -> f64 {
        (self.params.view_entries_per_step / self.mean_multiplicity).max(1e-6)
    }

    /// Padded Allegation batch size: it dominates the per-epoch arrival rate.
    fn batch_size(&self) -> usize {
        ((self.allegation_rate() * 2.0).ceil() as usize + 2).max(4)
    }

    /// Allegation `(officer_id, end_date)` and Award `(officer_id, award_date)`
    /// schemas, at widths set from public parameters alone: an officer id is at most
    /// the horizon times the padded batch, a date at most the horizon plus the
    /// latest award.
    fn schemas(&self) -> (Schema, Schema) {
        let steps = self.params.steps;
        let officer = width_for(steps.saturating_mul(self.batch_size() as u64));
        let date = width_for(steps.saturating_add(MAX_AWARD_GAP));
        (
            Schema::new(
                "allegation",
                &[("officer_id", officer), ("end_date", date)],
                0,
                1,
            ),
            Schema::new(
                "award",
                &[("officer_id", officer), ("award_date", date)],
                0,
                1,
            ),
        )
    }

    /// Generate the workload.
    ///
    /// # Panics
    /// Panics when a generated value does not fit its column's public width.
    #[must_use]
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let (allegation_schema, award_schema) = self.schemas();
        let mut allegations = GrowingDatabase::new(allegation_schema, Relation::Left);
        let mut awards = GrowingDatabase::new(award_schema, Relation::Right);

        let alleg_rate = self.allegation_rate();
        let alleg_dist = Poisson::new(alleg_rate).expect("positive rate");
        let mult_dist = Poisson::new(self.mean_multiplicity).expect("positive rate");

        let mut next_officer: u32 = 1;
        let mut next_id: u64 = 1;

        for epoch in 1..=self.params.steps {
            let n_alleg = alleg_dist.sample(&mut rng) as u64;
            for _ in 0..n_alleg {
                // Each allegation concerns a distinct officer id so that per-record
                // contributions are attributable (the paper's ω bounds contributions
                // per allegation record, not per officer).
                let officer = next_officer;
                next_officer += 1;
                let allegation = LogicalUpdate {
                    id: next_id,
                    relation: Relation::Left,
                    arrival: epoch,
                    fields: vec![officer, epoch as u32],
                };
                insert_generated(&mut allegations, allegation);
                next_id += 1;

                // In-window awards for this officer (the join matches).
                let n_awards = mult_dist.sample(&mut rng) as u64;
                for _ in 0..n_awards {
                    let gap = rng.gen_range(0..=10u64);
                    let date = epoch + gap;
                    let award = LogicalUpdate {
                        id: next_id,
                        relation: Relation::Right,
                        arrival: date,
                        fields: vec![officer, date as u32],
                    };
                    insert_generated(&mut awards, award);
                    next_id += 1;
                }
                // Out-of-window background awards (exercise the temporal filter).
                if rng.gen_bool(0.5) {
                    let date = epoch + rng.gen_range(11..=MAX_AWARD_GAP);
                    let award = LogicalUpdate {
                        id: next_id,
                        relation: Relation::Right,
                        arrival: date,
                        fields: vec![officer, date as u32],
                    };
                    insert_generated(&mut awards, award);
                    next_id += 1;
                }
            }
        }

        let left_batch = self.batch_size();

        Dataset {
            kind: DatasetKind::Cpdb,
            left: allegations,
            right: awards,
            right_is_public: true,
            upload_interval: 1,
            left_batch_size: left_batch,
            right_batch_size: 0,
            join_window: 10,
            params: self.params,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{logical_join_count, JoinQuery};

    #[test]
    fn generated_rate_matches_target() {
        let params = WorkloadParams {
            steps: 300,
            view_entries_per_step: 9.8,
            seed: 7,
        };
        let ds = CpdbGenerator::new(params).generate();
        let q = JoinQuery { window: 10 };
        let total = logical_join_count(&ds, &q, u64::MAX);
        let rate = total as f64 / params.steps as f64;
        assert!(
            (rate - 9.8).abs() < 2.0,
            "measured view-entry rate {rate} should be near 9.8"
        );
    }

    #[test]
    fn multiplicity_exceeds_one_for_some_allegations() {
        let ds = CpdbGenerator::new(WorkloadParams::small(DatasetKind::Cpdb)).generate();
        let q = JoinQuery { window: 10 };
        let mut any_multi = false;
        for a in ds.left.updates() {
            let matches = ds
                .right
                .updates()
                .iter()
                .filter(|aw| q.pair_matches(&a.fields, &aw.fields))
                .count();
            if matches > 1 {
                any_multi = true;
                break;
            }
        }
        assert!(any_multi, "Q2 must have join multiplicity > 1");
    }

    #[test]
    fn award_relation_is_public() {
        let ds = CpdbGenerator::default_config().generate();
        assert!(ds.right_is_public);
        assert_eq!(ds.right_batch_size, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = WorkloadParams::small(DatasetKind::Cpdb);
        let a = CpdbGenerator::new(p).generate();
        let b = CpdbGenerator::new(p).generate();
        assert_eq!(a.left.len(), b.left.len());
        assert_eq!(a.right.len(), b.right.len());
    }
}
