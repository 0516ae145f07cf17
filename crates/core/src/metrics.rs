//! Experiment metrics: per-step records and run-level summaries.
//!
//! The paper reports average L1 error, average relative error, average query execution
//! time (QET), average Transform / Shrink execution time and materialized view size
//! (Table 2), plus total MPC and total query time for the scaling experiment
//! (Figure 9). [`Summary`] aggregates exactly those quantities from the per-step
//! [`crate::framework::StepRecord`]s.

use crate::framework::{PipelineStepOutcome, ShardPipeline, StepRecord};
use incshrink_mpc::cost::SimDuration;
use serde::{Deserialize, Serialize};

/// Aggregated statistics of one simulation run.
///
/// Equality compares the *simulated* trajectory only: [`Self::host_transform_secs`]
/// is a real wall-clock measurement of this process and is never reproducible
/// across runs, so it is excluded from `PartialEq` (reproducibility tests compare
/// whole summaries).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Summary {
    /// Mean L1 error over all issued queries.
    pub avg_l1_error: f64,
    /// Mean relative error (`L1 / max(true, 1)`) over all issued queries.
    pub avg_relative_error: f64,
    /// Mean query execution time in seconds.
    pub avg_qet_secs: f64,
    /// Mean Transform invocation time in seconds.
    pub avg_transform_secs: f64,
    /// Mean Shrink step time in seconds (DP strategies only; 0 otherwise).
    pub avg_shrink_secs: f64,
    /// Final materialized view size in megabytes.
    pub final_view_mb: f64,
    /// Mean materialized view size in megabytes across steps.
    pub avg_view_mb: f64,
    /// Number of view synchronizations performed.
    pub sync_count: u64,
    /// Total simulated MPC time (Transform + Shrink) in seconds.
    pub total_mpc_secs: f64,
    /// Total simulated query time in seconds.
    pub total_query_secs: f64,
    /// Total real join pairs dropped by the ω truncation.
    pub truncation_losses: u64,
    /// Number of queries issued.
    pub queries_issued: u64,
    /// Total secure comparisons metered inside Transform invocations (summed across
    /// shards for cluster runs).
    pub transform_secure_compares: u64,
    /// Host wall-clock seconds this process spent inside Transform invocations — a
    /// *real* measurement (unlike the simulated columns), the quantity the SoA
    /// kernel work optimizes (summed across shards for cluster runs).
    pub host_transform_secs: f64,
    /// Host wall-clock seconds spent executing queries, summed over queries:
    /// each query is charged the slowest shard's evaluation time (shards answer
    /// concurrently, right after their step) plus the driver's merge time.
    /// Excluded from `PartialEq` like [`Self::host_transform_secs`].
    pub host_query_secs: f64,
    /// Host wall-clock seconds of the cluster shuffle phase, clocked per step
    /// around everything the phase does on the host: sealing every arrival
    /// shard's padded batch, shuffle-routing both relations, and closing the
    /// elastic control step — the same definition on both cluster hosts (0 for
    /// co-partitioned runs). Excluded from `PartialEq` like
    /// [`Self::host_transform_secs`].
    pub host_shuffle_secs: f64,
}

impl PartialEq for Summary {
    fn eq(&self, other: &Self) -> bool {
        self.avg_l1_error == other.avg_l1_error
            && self.avg_relative_error == other.avg_relative_error
            && self.avg_qet_secs == other.avg_qet_secs
            && self.avg_transform_secs == other.avg_transform_secs
            && self.avg_shrink_secs == other.avg_shrink_secs
            && self.final_view_mb == other.final_view_mb
            && self.avg_view_mb == other.avg_view_mb
            && self.sync_count == other.sync_count
            && self.total_mpc_secs == other.total_mpc_secs
            && self.total_query_secs == other.total_query_secs
            && self.truncation_losses == other.truncation_losses
            && self.queries_issued == other.queries_issued
            && self.transform_secure_compares == other.transform_secure_compares
    }
}

/// One pipeline's contribution to one step of a run's trace: the maintenance
/// outcome plus the truth and the sizes a [`StepRecord`] reports. A run folds
/// one of these per shard and step ([`SummaryBuilder::record_step`]).
#[derive(Debug, Clone, Copy)]
pub struct ShardStep {
    /// What the step's uploads, Transform and Shrink did.
    pub outcome: PipelineStepOutcome,
    /// Ground-truth answer over the pipeline's data at this step.
    pub true_count: u64,
    /// View length (real + dummy) after the step.
    pub view_len: usize,
    /// Real view entries after the step.
    pub view_real: usize,
    /// Secure-cache length after the step.
    pub cache_len: usize,
    /// View size in megabytes after the step.
    pub view_mb: f64,
}

impl ShardStep {
    /// Read `pipeline`'s state right after it advanced through step `t` with
    /// `outcome`.
    #[must_use]
    pub fn observe(pipeline: &ShardPipeline, t: u64, outcome: PipelineStepOutcome) -> Self {
        let view = pipeline.view();
        Self {
            outcome,
            true_count: pipeline.true_count(t),
            view_len: view.len(),
            view_real: view.true_cardinality(),
            cache_len: pipeline.cache_len(),
            view_mb: view.size_mb(),
        }
    }
}

/// Incremental builder for [`Summary`].
#[derive(Debug, Clone, Default)]
pub struct SummaryBuilder {
    l1_sum: f64,
    rel_sum: f64,
    qet_sum: f64,
    queries: u64,
    transform_sum: f64,
    transform_count: u64,
    shrink_sum: f64,
    shrink_count: u64,
    view_mb_sum: f64,
    view_samples: u64,
    final_view_mb: f64,
    sync_count: u64,
    truncation_losses: u64,
    transform_compares: u64,
    host_transform_secs: f64,
    host_query_secs: f64,
    host_shuffle_secs: f64,
}

impl SummaryBuilder {
    /// Fresh builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold step `t` into the summary and return its trace record — the cluster
    /// driver's step fold over every shard's report, in shard order (one
    /// element for a single-pair run). Server pairs
    /// run in parallel, so the step's Transform / Shrink time is the slowest
    /// shard's; secure-compare totals sum (every gate is still evaluated
    /// somewhere); truths and sizes sum because the equi-join partition is
    /// lossless. `query` is the analyst's `(answer, QET)` when one was issued.
    pub fn record_step(
        &mut self,
        t: u64,
        shards: &[ShardStep],
        query: Option<(u64, SimDuration)>,
    ) -> StepRecord {
        let outcomes = || shards.iter().map(|s| &s.outcome);
        let transform_max = outcomes().filter_map(|o| o.transform_duration).max();
        let shrink_max = outcomes().filter_map(|o| o.shrink_duration).max();
        if let Some(duration) = transform_max {
            self.record_transform(duration);
        }
        for report in outcomes().filter_map(|o| o.transform_report) {
            self.record_transform_compares(report.secure_compares);
        }
        if let Some(duration) = shrink_max {
            self.record_shrink(duration, outcomes().any(|o| o.shrink_did_work));
        }
        let true_count = shards.iter().map(|s| s.true_count).sum();
        let (answer, l1_error, qet) = match query {
            Some((answer, qet)) => {
                let l1 = answer.abs_diff(true_count) as f64;
                self.record_query(l1, relative_error(answer, true_count), qet);
                (Some(answer), l1, qet)
            }
            None => (None, 0.0, SimDuration::ZERO),
        };
        self.record_view_size(shards.iter().map(|s| s.view_mb).sum());
        StepRecord {
            time: t,
            true_count,
            answer,
            l1_error,
            qet_secs: qet.as_secs_f64(),
            transform_secs: transform_max.map_or(0.0, SimDuration::as_secs_f64),
            shrink_secs: shrink_max.map_or(0.0, SimDuration::as_secs_f64),
            view_len: shards.iter().map(|s| s.view_len).sum(),
            view_real: shards.iter().map(|s| s.view_real).sum(),
            cache_len: shards.iter().map(|s| s.cache_len).sum(),
            synced: outcomes().any(|o| o.synced),
        }
    }

    /// Record one issued query.
    pub(crate) fn record_query(&mut self, l1: f64, relative: f64, qet: SimDuration) {
        self.l1_sum += l1;
        self.rel_sum += relative;
        self.qet_sum += qet.as_secs_f64();
        self.queries += 1;
    }

    /// Record one Transform invocation.
    pub(crate) fn record_transform(&mut self, duration: SimDuration) {
        self.transform_sum += duration.as_secs_f64();
        self.transform_count += 1;
    }

    /// Record the secure comparisons one Transform invocation metered.
    pub(crate) fn record_transform_compares(&mut self, secure_compares: u64) {
        self.transform_compares = self.transform_compares.saturating_add(secure_compares);
    }

    /// Record host wall-clock seconds spent inside Transform invocations (additive,
    /// so cluster drivers can accumulate it per shard).
    pub fn record_host_transform_secs(&mut self, secs: f64) {
        self.host_transform_secs += secs;
    }

    /// Record host wall-clock seconds spent executing queries (additive).
    pub fn record_host_query_secs(&mut self, secs: f64) {
        self.host_query_secs += secs;
    }

    /// Record host wall-clock seconds spent in the cluster shuffle phase (additive
    /// per step).
    pub fn record_host_shuffle_secs(&mut self, secs: f64) {
        self.host_shuffle_secs += secs;
    }

    /// Record one Shrink step (only steps that did DP work are counted so the average
    /// reflects per-invocation cost, matching the paper's "average execution time").
    pub(crate) fn record_shrink(&mut self, duration: SimDuration, did_work: bool) {
        if did_work {
            self.shrink_sum += duration.as_secs_f64();
            self.shrink_count += 1;
        }
    }

    /// Record the view size observed at one step.
    pub(crate) fn record_view_size(&mut self, mb: f64) {
        self.view_mb_sum += mb;
        self.view_samples += 1;
        self.final_view_mb = mb;
    }

    /// Record final counters at the end of the run.
    pub fn record_totals(&mut self, sync_count: u64, truncation_losses: u64) {
        self.sync_count = sync_count;
        self.truncation_losses = truncation_losses;
    }

    /// Produce the summary.
    #[must_use]
    pub fn build(&self) -> Summary {
        let div = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
        Summary {
            avg_l1_error: div(self.l1_sum, self.queries),
            avg_relative_error: div(self.rel_sum, self.queries),
            avg_qet_secs: div(self.qet_sum, self.queries),
            avg_transform_secs: div(self.transform_sum, self.transform_count),
            avg_shrink_secs: div(self.shrink_sum, self.shrink_count),
            final_view_mb: self.final_view_mb,
            avg_view_mb: div(self.view_mb_sum, self.view_samples),
            sync_count: self.sync_count,
            total_mpc_secs: self.transform_sum + self.shrink_sum,
            total_query_secs: self.qet_sum,
            truncation_losses: self.truncation_losses,
            queries_issued: self.queries,
            transform_secure_compares: self.transform_compares,
            host_transform_secs: self.host_transform_secs,
            host_query_secs: self.host_query_secs,
            host_shuffle_secs: self.host_shuffle_secs,
        }
    }
}

/// Relative error helper used by the framework: `L1 / max(true, 1)`.
#[must_use]
pub fn relative_error(answer: u64, truth: u64) -> f64 {
    let l1 = answer.abs_diff(truth) as f64;
    l1 / (truth.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_handles_zero_truth() {
        assert_eq!(relative_error(0, 0), 0.0);
        assert_eq!(relative_error(5, 0), 5.0);
        assert!((relative_error(90, 100) - 0.1).abs() < 1e-12);
        assert!((relative_error(110, 100) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn builder_averages_and_totals() {
        let mut b = SummaryBuilder::new();
        b.record_query(4.0, 0.1, SimDuration::from_secs_f64(0.02));
        b.record_query(6.0, 0.3, SimDuration::from_secs_f64(0.04));
        b.record_transform(SimDuration::from_secs_f64(1.0));
        b.record_transform(SimDuration::from_secs_f64(3.0));
        b.record_shrink(SimDuration::from_secs_f64(0.5), true);
        b.record_shrink(SimDuration::from_secs_f64(9.0), false); // ignored
        b.record_view_size(1.0);
        b.record_view_size(2.0);
        b.record_totals(7, 11);
        b.record_transform_compares(100);
        b.record_transform_compares(23);
        b.record_host_transform_secs(0.25);
        b.record_host_transform_secs(0.5);
        b.record_host_query_secs(0.125);
        b.record_host_query_secs(0.125);
        b.record_host_shuffle_secs(0.0625);

        let s = b.build();
        assert!((s.avg_l1_error - 5.0).abs() < 1e-12);
        assert!((s.avg_relative_error - 0.2).abs() < 1e-12);
        assert!((s.avg_qet_secs - 0.03).abs() < 1e-12);
        assert!((s.avg_transform_secs - 2.0).abs() < 1e-12);
        assert!((s.avg_shrink_secs - 0.5).abs() < 1e-12);
        assert!((s.avg_view_mb - 1.5).abs() < 1e-12);
        assert!((s.final_view_mb - 2.0).abs() < 1e-12);
        assert_eq!(s.sync_count, 7);
        assert_eq!(s.truncation_losses, 11);
        assert!((s.total_mpc_secs - 4.5).abs() < 1e-12);
        assert!((s.total_query_secs - 0.06).abs() < 1e-12);
        assert_eq!(s.queries_issued, 2);
        assert_eq!(s.transform_secure_compares, 123);
        assert!((s.host_transform_secs - 0.75).abs() < 1e-12);
        assert!((s.host_query_secs - 0.25).abs() < 1e-12);
        assert!((s.host_shuffle_secs - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn host_time_fields_are_excluded_from_equality() {
        let mut a = SummaryBuilder::new();
        a.record_query(1.0, 0.1, SimDuration::from_secs_f64(0.01));
        let mut b = a.clone();
        a.record_host_transform_secs(1.0);
        a.record_host_query_secs(2.0);
        a.record_host_shuffle_secs(3.0);
        assert_eq!(a.build(), b.build());
        b.record_query(1.0, 0.1, SimDuration::from_secs_f64(0.01));
        assert_ne!(a.build(), b.build());
    }

    #[test]
    fn empty_builder_is_all_zero() {
        let s = SummaryBuilder::new().build();
        assert_eq!(s, Summary::default());
    }
}
