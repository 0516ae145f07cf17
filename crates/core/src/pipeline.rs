//! Multi-level "Transform-and-Shrink" pipelines (Section 8, "Support for complex query
//! workloads").
//!
//! A complex query can be compiled either into a single Transform whose output is the
//! full query plan, or into a chain of per-operator Transform-and-Shrink instances in
//! which the DP-released output of one operator feeds the next. The multi-level form
//! allows **operator-level privacy allocation** (Appendix D.2): each operator gets its
//! own slice of the total ε budget, chosen to maximise query efficiency.
//!
//! [`TwoLevelPipeline`] implements the two-operator plan the evaluation queries need:
//! a selection over the newly uploaded private relation followed by a join against a
//! public relation, each stage with its own secure cache and sDPTimer-style
//! synchronization. Total leakage is the sequential composition ε₁ + ε₂. The join
//! stage charges the truncated operator the planner (`incshrink_oblivious::planner`)
//! prices lower under the run's cost model, on *public* sizes only — the same planner
//! Transform uses.

use crate::extensions::{budget_alloc, OperatorKind, OperatorProfile};
use crate::view::{MaterializedView, ViewDefinition};
use incshrink_dp::joint::joint_noised_size;
use incshrink_mpc::cost::{CostReport, SimDuration};
use incshrink_mpc::PartyExec;
use incshrink_oblivious::filter::Predicate;
use incshrink_oblivious::oblivious_filter;
use incshrink_oblivious::planner::{charge_full_relation_gap, plan_join, JoinAlgorithm, JoinShape};
use incshrink_oblivious::{truncated_nested_loop_join, truncated_sort_merge_delta_join};
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::{PlainRecord, SharedRecordPair};
use incshrink_storage::SecureCache;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Per-stage configuration of a multi-level pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageConfig {
    /// Privacy budget slice allocated to this operator's cardinality releases.
    pub epsilon: f64,
    /// Synchronization interval (sDPTimer-style) of this stage.
    pub interval: u64,
    /// Sensitivity of this stage's releases (the stage's contribution bound).
    pub sensitivity: u64,
}

impl StageConfig {
    fn validate(&self) {
        assert!(self.epsilon > 0.0, "stage epsilon must be positive");
        assert!(self.interval > 0, "stage interval must be positive");
        assert!(self.sensitivity > 0, "stage sensitivity must be positive");
    }
}

/// Outcome of one pipeline step.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStepOutcome {
    /// Whether stage 1 (selection) synchronized this step.
    pub stage1_synced: bool,
    /// Whether stage 2 (join) synchronized this step.
    pub stage2_synced: bool,
    /// Oblivious-operation counts of the whole step.
    pub report: CostReport,
    /// Simulated execution time of the whole step.
    pub duration: SimDuration,
}

/// A two-operator (selection → join) multi-level Transform-and-Shrink pipeline over a
/// private left relation and a public right relation.
pub struct TwoLevelPipeline {
    view: ViewDefinition,
    selection_field: usize,
    selection_bound: u32,
    truncation_bound: u64,
    stage1: StageConfig,
    stage2: StageConfig,
    cache1: SecureCache,
    cache2: SecureCache,
    /// Counter of real entries cached by stage 1 since its last synchronization.
    counter1: u32,
    counter2: u32,
    intermediate: MaterializedView,
    final_view: MaterializedView,
    public_right: Vec<Vec<u32>>,
    rng: StdRng,
}

impl TwoLevelPipeline {
    /// Build the pipeline. `selection_field`/`selection_bound` define the stage-1
    /// predicate `field ≤ bound` over the private relation; the stage-2 join follows
    /// the view definition; `public_right` is the public relation joined against.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        view: ViewDefinition,
        selection_field: usize,
        selection_bound: u32,
        truncation_bound: u64,
        stage1: StageConfig,
        stage2: StageConfig,
        public_right: Vec<Vec<u32>>,
        seed: u64,
    ) -> Self {
        stage1.validate();
        stage2.validate();
        assert!(truncation_bound >= 1);
        Self {
            view,
            selection_field,
            selection_bound,
            truncation_bound,
            stage1,
            stage2,
            cache1: SecureCache::new(),
            cache2: SecureCache::new(),
            counter1: 0,
            counter2: 0,
            intermediate: MaterializedView::new(),
            final_view: MaterializedView::new(),
            public_right,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Allocate the total ε across the two stages with the Appendix-D.2 optimisation
    /// and build the pipeline from the resulting per-operator budgets.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn with_optimized_budget(
        view: ViewDefinition,
        selection_field: usize,
        selection_bound: u32,
        truncation_bound: u64,
        total_epsilon: f64,
        intervals: (u64, u64),
        expected_batch: u64,
        public_right: Vec<Vec<u32>>,
        seed: u64,
    ) -> Self {
        let operators = [
            OperatorProfile {
                kind: OperatorKind::Filter,
                input_sizes: (expected_batch.max(1), 0),
                output_size: expected_batch.max(1),
                sensitivity: 1.0,
            },
            OperatorProfile {
                kind: OperatorKind::Join,
                input_sizes: (expected_batch.max(1), public_right.len().max(1) as u64),
                output_size: expected_batch.max(1) * truncation_bound,
                sensitivity: truncation_bound as f64,
            },
        ];
        let allocation = budget_alloc(&operators, total_epsilon, 20);
        let stage1 = StageConfig {
            epsilon: allocation.epsilons[0],
            interval: intervals.0,
            sensitivity: 1,
        };
        let stage2 = StageConfig {
            epsilon: allocation.epsilons[1],
            interval: intervals.1,
            sensitivity: truncation_bound,
        };
        Self::new(
            view,
            selection_field,
            selection_bound,
            truncation_bound,
            stage1,
            stage2,
            public_right,
            seed,
        )
    }

    /// Total privacy loss of the composed pipeline (sequential composition).
    #[must_use]
    pub fn total_epsilon(&self) -> f64 {
        self.stage1.epsilon + self.stage2.epsilon
    }

    /// The final materialized view the analyst queries.
    #[must_use]
    pub fn final_view(&self) -> &MaterializedView {
        &self.final_view
    }

    /// The typed query engine over the final view, priced through `model` — the
    /// analyst entry point shared with the single-level framework
    /// ([`crate::query::Query`] / [`crate::query::QueryEngine`]).
    #[must_use]
    pub fn query_engine(
        &self,
        model: incshrink_mpc::cost::CostModel,
    ) -> crate::query::ViewEngine<'_> {
        crate::query::ViewEngine::new(&self.final_view, model)
    }

    /// The intermediate (post-selection) view.
    #[must_use]
    pub fn intermediate_view(&self) -> &MaterializedView {
        &self.intermediate
    }

    /// Current cache lengths `(stage1, stage2)` — exposed for tests and monitoring.
    #[must_use]
    pub fn cache_lengths(&self) -> (usize, usize) {
        (self.cache1.len(), self.cache2.len())
    }

    fn share_public_window(&mut self, lo: u32, hi: u32, arity: usize) -> SharedArrayPair {
        let mut shared = SharedArrayPair::with_arity(arity);
        let rows: Vec<Vec<u32>> = self
            .public_right
            .iter()
            .filter(|r| {
                let t = r.get(self.view.right_time).copied().unwrap_or(0);
                t >= lo && t <= hi
            })
            .cloned()
            .collect();
        for row in rows {
            shared
                .push(SharedRecordPair::share(
                    &PlainRecord::real(row),
                    &mut self.rng,
                ))
                .expect("uniform arity");
        }
        shared
    }

    /// Stage 2's join of a stage-1 release against the public relation, planned and
    /// priced on the public shape `(|input|, |public_right|)`. The physical join
    /// scans only the public rows timed within the window of the release's real
    /// records, a private span, so the gap to the whole relation is topped up under
    /// the operator that ran: the metered cost is the whole-relation price.
    fn join_public(
        &mut self,
        ctx: &mut impl PartyExec,
        input: &SharedArrayPair,
    ) -> SharedArrayPair {
        let plain_times: Vec<u32> = input
            .entries()
            .iter()
            .map(|e| e.recover())
            .filter(|r| r.is_view)
            .filter_map(|r| r.fields.get(self.view.left_time).copied())
            .collect();
        let (lo, hi) = match (plain_times.iter().min(), plain_times.iter().max()) {
            (Some(&lo), Some(&hi)) => (lo, hi.saturating_add(self.view.window)),
            _ => (u32::MAX, 0),
        };
        let right_arity = self.public_right.first().map_or(2, Vec::len);
        let inner = self.share_public_window(lo, hi, right_arity);
        let spec = self.view.join_spec();
        let left_arity = input.arity().unwrap_or(2);
        let shape = JoinShape {
            outer: input.len(),
            inner: self.public_right.len(),
            bound: self.truncation_bound as usize,
            out_arity: left_arity + right_arity,
            merged_arity: left_arity.max(right_arity) + 2,
        };
        let algorithm = plan_join(shape, &ctx.cost_model()).algorithm;
        let joined = match algorithm {
            JoinAlgorithm::NestedLoop => truncated_nested_loop_join(
                input,
                &inner,
                &spec,
                shape.bound,
                ctx.meter(),
                &mut self.rng,
            ),
            JoinAlgorithm::SortMerge => truncated_sort_merge_delta_join(
                input,
                &inner,
                &spec,
                shape.bound,
                ctx.meter(),
                &mut self.rng,
            ),
        };
        charge_full_relation_gap(
            ctx.meter(),
            algorithm,
            shape.outer,
            inner.len(),
            shape.inner,
            shape.bound,
            shape.out_arity,
            shape.merged_arity,
        );
        joined
    }

    /// Process one time step: stage 1 filters the newly uploaded batch into its cache
    /// and periodically releases a DP-sized batch into the intermediate view; the
    /// released entries immediately become stage 2's input, which joins them against
    /// the public relation, caches the padded result, and periodically releases a
    /// DP-sized batch into the final view.
    pub fn step(
        &mut self,
        ctx: &mut impl PartyExec,
        new_left: &SharedArrayPair,
        time: u64,
    ) -> PipelineStepOutcome {
        let mut outcome = PipelineStepOutcome::default();

        // --- Stage 1: oblivious selection over the new batch.
        let predicate = Predicate::le(
            "stage1-selection",
            self.selection_field,
            self.selection_bound,
        );
        let filtered = oblivious_filter(new_left, &predicate, ctx.meter(), &mut self.rng);
        self.counter1 += filtered.true_cardinality() as u32;
        self.cache1.write(filtered);

        let mut stage2_input: Option<SharedArrayPair> = None;
        if time % self.stage1.interval == 0 {
            let size = joint_noised_size(
                ctx,
                self.stage1.sensitivity as f64,
                self.stage1.epsilon,
                u64::from(self.counter1),
            ) as usize;
            let released = self.cache1.read(size, ctx.meter());
            // Decrement by the cardinality actually released: entries a negative
            // noise draw left behind stay counted for the next release (mirrors
            // ShrinkProtocol::synchronize).
            self.counter1 = self
                .counter1
                .saturating_sub(released.true_cardinality() as u32);
            self.intermediate.append(released.clone());
            stage2_input = Some(released);
            outcome.stage1_synced = true;
        }

        // --- Stage 2: join the stage-1 release against the public relation.
        if let Some(input) = stage2_input.filter(|input| !input.is_empty()) {
            let joined = self.join_public(ctx, &input);
            self.counter2 += joined.true_cardinality() as u32;
            self.cache2.write(joined);
        }
        if time % self.stage2.interval == 0 {
            let size = joint_noised_size(
                ctx,
                self.stage2.sensitivity as f64,
                self.stage2.epsilon,
                u64::from(self.counter2),
            ) as usize;
            let released = self.cache2.read(size, ctx.meter());
            self.counter2 = self
                .counter2
                .saturating_sub(released.true_cardinality() as u32);
            self.final_view.append(released);
            outcome.stage2_synced = true;
        }

        let (report, duration) = ctx.charge();
        outcome.report = report;
        outcome.duration = duration;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_mpc::cost::CostModel;
    use incshrink_mpc::{PartyContext, PartyMode};
    use incshrink_oblivious::PlainTable;

    fn view_def() -> ViewDefinition {
        ViewDefinition {
            left_key: 0,
            left_time: 1,
            right_key: 0,
            right_time: 1,
            window: 10,
        }
    }

    fn stage(epsilon: f64, interval: u64, sensitivity: u64) -> StageConfig {
        StageConfig {
            epsilon,
            interval,
            sensitivity,
        }
    }

    /// Public award-like table: officer `k` has awards at times `k+2` and `k+50`.
    fn public_table(keys: std::ops::Range<u32>) -> Vec<Vec<u32>> {
        keys.flat_map(|k| vec![vec![k, k + 2], vec![k, k + 50]])
            .collect()
    }

    fn upload(keys: &[(u32, u32)], padded: usize, seed: u64) -> SharedArrayPair {
        let mut t = PlainTable::new(&["key", "time"]);
        for &(k, time) in keys {
            t.push_row(vec![k, time]);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        t.share_padded(padded, &mut rng)
    }

    #[test]
    fn two_level_pipeline_produces_joined_view() {
        let mut ctx = PartyContext::new(PartyMode::InProcess, 1, CostModel::default());
        // Selection keeps every record with time <= 1000 (i.e. everything real).
        let mut pipeline = TwoLevelPipeline::new(
            view_def(),
            1,
            1000,
            2,
            stage(50.0, 2, 1),
            stage(50.0, 2, 2),
            public_table(0..40),
            7,
        );
        assert!((pipeline.total_epsilon() - 100.0).abs() < 1e-9);

        // Feed 12 steps; at step t the batch contains one record with key t and time t,
        // which matches exactly one public award (at t+2, inside the 10-step window).
        for t in 1..=12u64 {
            let batch = upload(&[(t as u32, t as u32)], 4, t);
            let outcome = pipeline.step(&mut ctx, &batch, t);
            assert!(outcome.duration.as_secs_f64() > 0.0);
            assert_eq!(outcome.stage1_synced, t % 2 == 0);
        }
        // With ε = 50 the DP noise is negligible: nearly all 12 selected records flow
        // through stage 1 and produce one join each in the final view.
        assert!(pipeline.intermediate_view().true_cardinality() >= 9);
        assert!(pipeline.final_view().true_cardinality() >= 7);
        assert!(pipeline.final_view().true_cardinality() <= 12);
    }

    #[test]
    fn selection_predicate_drops_non_matching_records() {
        let mut ctx = PartyContext::new(PartyMode::InProcess, 2, CostModel::default());
        // Selection keeps only records with time <= 5.
        let mut pipeline = TwoLevelPipeline::new(
            view_def(),
            1,
            5,
            2,
            stage(100.0, 1, 1),
            stage(100.0, 1, 2),
            public_table(0..40),
            8,
        );
        for t in 1..=10u64 {
            let batch = upload(&[(t as u32, t as u32)], 3, t);
            let _ = pipeline.step(&mut ctx, &batch, t);
        }
        // Only the first 5 records pass the selection, so the final view cannot hold
        // more than 5 real join tuples.
        assert!(pipeline.final_view().true_cardinality() <= 5);
        assert!(pipeline.intermediate_view().true_cardinality() <= 5 + 1);
    }

    #[test]
    fn optimized_budget_allocates_all_epsilon() {
        let pipeline = TwoLevelPipeline::with_optimized_budget(
            view_def(),
            1,
            1000,
            5,
            2.0,
            (2, 4),
            8,
            public_table(0..10),
            3,
        );
        let total = pipeline.total_epsilon();
        assert!(total <= 2.0 + 1e-9);
        assert!(
            total > 1.9,
            "grid allocation uses (nearly) the whole budget"
        );
    }

    #[test]
    fn caches_drain_over_time_with_frequent_syncs() {
        let mut ctx = PartyContext::new(PartyMode::InProcess, 4, CostModel::default());
        let mut pipeline = TwoLevelPipeline::new(
            view_def(),
            1,
            1000,
            1,
            stage(20.0, 1, 1),
            stage(20.0, 1, 1),
            public_table(0..30),
            11,
        );
        for t in 1..=20u64 {
            let batch = upload(&[(t as u32, t as u32)], 2, t);
            let _ = pipeline.step(&mut ctx, &batch, t);
        }
        let (c1, c2) = pipeline.cache_lengths();
        // With per-step syncs and modest noise the caches stay small relative to the
        // total padded material written (20 steps × 2-4 padded entries per stage).
        assert!(c1 < 40, "stage-1 cache {c1}");
        assert!(c2 < 40, "stage-2 cache {c2}");
    }

    #[test]
    fn stage_two_cost_is_a_function_of_public_sizes() {
        // Two stage-1 releases of equal padded length whose real records span
        // different times: the public rows inside their time windows differ, the
        // metered stage-2 cost must not.
        let report = |rows: &[(u32, u32)]| {
            let mut ctx = PartyContext::new(PartyMode::InProcess, 5, CostModel::default());
            let mut pipeline = TwoLevelPipeline::new(
                view_def(),
                1,
                1000,
                2,
                stage(50.0, 2, 1),
                stage(50.0, 2, 2),
                public_table(0..40),
                7,
            );
            let joined = pipeline.join_public(&mut ctx, &upload(rows, 6, 1));
            (joined.len(), ctx.charge().0)
        };
        let narrow = report(&[(3, 5)]);
        let wide = report(&[(3, 5), (9, 30), (20, 44)]);
        assert_eq!(narrow, wide);
    }

    #[test]
    fn query_engine_counts_the_final_view() {
        use crate::query::{Query, QueryEngine, QueryValue};
        let mut ctx = PartyContext::new(PartyMode::InProcess, 3, CostModel::default());
        let mut pipeline = TwoLevelPipeline::new(
            view_def(),
            1,
            1000,
            2,
            stage(50.0, 2, 1),
            stage(50.0, 2, 2),
            public_table(0..40),
            7,
        );
        for t in 1..=12u64 {
            let batch = upload(&[(t as u32, t as u32)], 4, t);
            let _ = pipeline.step(&mut ctx, &batch, t);
        }
        let outcome = pipeline
            .query_engine(CostModel::default())
            .execute(&Query::count());
        assert_eq!(
            outcome.value,
            QueryValue::Scalar(pipeline.final_view().true_cardinality() as u64)
        );
        assert!(outcome.qet.as_secs_f64() > 0.0);
    }

    #[test]
    #[should_panic(expected = "stage epsilon must be positive")]
    fn invalid_stage_config_rejected() {
        let _ = TwoLevelPipeline::new(
            view_def(),
            1,
            10,
            1,
            stage(0.0, 1, 1),
            stage(1.0, 1, 1),
            Vec::new(),
            1,
        );
    }
}
