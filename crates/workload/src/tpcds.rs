//! TPC-ds-like Sales ⋈ Returns stream generator.
//!
//! Mirrors the statistics of the paper's TPC-ds setup for Q1 ("products returned
//! within 10 days of purchase"): each product id is sold once and returned at most
//! once (join multiplicity 1), clients upload one batch per day, and on average ≈2.7
//! new view entries (in-window returns) appear per day.

use crate::dataset::{insert_generated, Dataset, DatasetKind, WorkloadParams};
use incshrink_storage::{width_for, GrowingDatabase, LogicalUpdate, Relation, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Poisson};

/// The latest a late return arrives, in days after its sale.
const MAX_RETURN_GAP: u64 = 30;

/// Padded sales batches the pid domain holds beyond the horizon's. Sales per day
/// are Poisson with mean 1.8 · rate, at least 2 under the pad, so the horizon's
/// pads alone bound the pids only once that margin has built up over many days
/// (one day overflows a 3-bit domain on one seed in eight). With four more, a pid
/// outgrows its width with probability below 10⁻⁹ at the paper's rate, whatever
/// the horizon.
const PID_SLACK_STEPS: u64 = 4;

/// Generator for the TPC-ds-like workload.
#[derive(Debug, Clone, Copy)]
pub struct TpcDsGenerator {
    /// Generation parameters.
    pub params: WorkloadParams,
}

impl TpcDsGenerator {
    /// Generator with the evaluation's default parameters.
    #[must_use]
    pub fn new(params: WorkloadParams) -> Self {
        Self { params }
    }

    /// Generator with the paper-default configuration.
    #[must_use]
    pub fn default_config() -> Self {
        Self::new(WorkloadParams::tpcds_default())
    }

    /// Padded batch sizes `(sales, returns)`: they dominate the per-day arrival
    /// rates (fixed-size uploads).
    fn batch_sizes(&self) -> (usize, usize) {
        let rate = self.params.view_entries_per_step;
        let left_batch = ((rate * 1.8).ceil() as usize + 2).max(4);
        let right_batch = ((rate * 1.3).ceil() as usize + 2).max(4);
        (left_batch, right_batch)
    }

    /// Sales `(pid, sale_date)` and Returns `(pid, return_date)` schemas, at widths
    /// set from public parameters alone: a pid is at most the horizon, plus
    /// [`PID_SLACK_STEPS`], times the padded sales batch, a date at most the horizon
    /// plus the latest return.
    fn schemas(&self) -> (Schema, Schema) {
        let steps = self.params.steps;
        let pid_steps = steps.saturating_add(PID_SLACK_STEPS);
        let pid = width_for(pid_steps.saturating_mul(self.batch_sizes().0 as u64));
        let date = width_for(steps.saturating_add(MAX_RETURN_GAP));
        (
            Schema::new("sales", &[("pid", pid), ("sale_date", date)], 0, 1),
            Schema::new("returns", &[("pid", pid), ("return_date", date)], 0, 1),
        )
    }

    /// Generate the workload.
    ///
    /// # Panics
    /// Panics when a generated value does not fit its column's public width.
    #[must_use]
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let (sales_schema, returns_schema) = self.schemas();
        let mut sales = GrowingDatabase::new(sales_schema, Relation::Left);
        let mut returns = GrowingDatabase::new(returns_schema, Relation::Right);

        // Per day: `rate` in-window returns, plus ~30% as many late returns and ~50%
        // as many never-returned sales, matching the Sales ≫ Returns size ratio.
        let rate = self.params.view_entries_per_step;
        let in_window = Poisson::new(rate.max(1e-6)).expect("positive rate");
        let late = Poisson::new((rate * 0.3).max(1e-6)).expect("positive rate");
        let unreturned = Poisson::new((rate * 0.5).max(1e-6)).expect("positive rate");

        let mut next_pid: u32 = 1;
        let mut next_id: u64 = 1;
        let push_sale_and_return =
            |sale_day: u64,
             return_gap: Option<u64>,
             rng: &mut StdRng,
             next_pid: &mut u32,
             next_id: &mut u64,
             sales: &mut GrowingDatabase,
             returns: &mut GrowingDatabase| {
                let pid = *next_pid;
                *next_pid += 1;
                let sale = LogicalUpdate {
                    id: *next_id,
                    relation: Relation::Left,
                    arrival: sale_day,
                    fields: vec![pid, sale_day as u32],
                };
                insert_generated(sales, sale);
                *next_id += 1;
                if let Some(gap) = return_gap {
                    let return_day = sale_day + gap;
                    let ret = LogicalUpdate {
                        id: *next_id,
                        relation: Relation::Right,
                        arrival: return_day,
                        fields: vec![pid, return_day as u32],
                    };
                    insert_generated(returns, ret);
                    *next_id += 1;
                }
                let _ = rng;
            };

        for day in 1..=self.params.steps {
            let n_in: u64 = in_window.sample(&mut rng) as u64;
            for _ in 0..n_in {
                let gap = rng.gen_range(1..=10u64);
                push_sale_and_return(
                    day,
                    Some(gap),
                    &mut rng,
                    &mut next_pid,
                    &mut next_id,
                    &mut sales,
                    &mut returns,
                );
            }
            let n_late: u64 = late.sample(&mut rng) as u64;
            for _ in 0..n_late {
                let gap = rng.gen_range(11..=MAX_RETURN_GAP);
                push_sale_and_return(
                    day,
                    Some(gap),
                    &mut rng,
                    &mut next_pid,
                    &mut next_id,
                    &mut sales,
                    &mut returns,
                );
            }
            let n_un: u64 = unreturned.sample(&mut rng) as u64;
            for _ in 0..n_un {
                push_sale_and_return(
                    day,
                    None,
                    &mut rng,
                    &mut next_pid,
                    &mut next_id,
                    &mut sales,
                    &mut returns,
                );
            }
        }

        let (left_batch, right_batch) = self.batch_sizes();

        Dataset {
            kind: DatasetKind::TpcDs,
            left: sales,
            right: returns,
            right_is_public: false,
            upload_interval: 1,
            left_batch_size: left_batch,
            right_batch_size: right_batch,
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
            view_entries_per_step: 2.7,
            seed: 42,
        };
        let ds = TpcDsGenerator::new(params).generate();
        let q = JoinQuery { window: 10 };
        let total = logical_join_count(&ds, &q, u64::MAX);
        let rate = total as f64 / params.steps as f64;
        assert!(
            (rate - 2.7).abs() < 0.5,
            "measured view-entry rate {rate} should be near 2.7"
        );
    }

    #[test]
    fn multiplicity_is_one() {
        let ds = TpcDsGenerator::new(WorkloadParams::small(DatasetKind::TpcDs)).generate();
        // Each pid appears at most once in Sales and at most once in Returns.
        let mut sales_pids: Vec<u32> = ds.left.updates().iter().map(|u| u.fields[0]).collect();
        let before = sales_pids.len();
        sales_pids.sort_unstable();
        sales_pids.dedup();
        assert_eq!(sales_pids.len(), before);

        let mut ret_pids: Vec<u32> = ds.right.updates().iter().map(|u| u.fields[0]).collect();
        let before = ret_pids.len();
        ret_pids.sort_unstable();
        ret_pids.dedup();
        assert_eq!(ret_pids.len(), before);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p = WorkloadParams::small(DatasetKind::TpcDs);
        let a = TpcDsGenerator::new(p).generate();
        let b = TpcDsGenerator::new(p).generate();
        assert_eq!(a.left.len(), b.left.len());
        assert_eq!(a.right.len(), b.right.len());
        assert_eq!(a.left.updates()[0], b.left.updates()[0]);

        let mut p2 = p;
        p2.seed ^= 1;
        let c = TpcDsGenerator::new(p2).generate();
        assert!(a.left.len() != c.left.len() || a.left.updates() != c.left.updates());
    }

    #[test]
    fn returns_arrive_no_earlier_than_sales() {
        let ds = TpcDsGenerator::new(WorkloadParams::small(DatasetKind::TpcDs)).generate();
        for r in ds.right.updates() {
            assert!(r.arrival >= 1);
            assert_eq!(r.arrival as u32, r.fields[1]);
        }
        assert!(!ds.right_is_public);
        assert_eq!(ds.join_window, 10);
        assert!(ds.left_batch_size >= 4);
    }
}
