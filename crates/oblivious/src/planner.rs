//! Cost-based oblivious-join planning.
//!
//! The two truncated join operators share one output contract and have sharply
//! different cost profiles: [`crate::join::truncated_nested_loop_join`]
//! (Algorithm 4) pays `|outer|·|inner|` secure compares plus `|outer|` per-buffer
//! Batcher sorts with record-wide swaps, in one round, while
//! [`crate::join::truncated_sort_merge_delta_join`] (Example 5.1) pays a Batcher
//! sort of each run, a bitonic merge of the sorted runs and a Batcher compaction
//! of the `b·(|outer| + |inner|)` emission, over up to five rounds. For tiny inner
//! relations, large `b` or expensive rounds the nested loop wins; otherwise the
//! sort-merge form is integer factors cheaper.
//!
//! [`JoinShape::candidates`] builds both operators' exact [`CostReport`]s — what
//! the share-array operators meter — and [`JoinCandidates::choose`] charges the one
//! whose [`CostModel::simulate`] is lower under the caller's model, ties going to
//! the nested loop. The planner weighs seconds, not compare counts: under
//! [`CostModel::wan`] the sort-merge join's extra rounds outweigh the gates it
//! saves at the TPC-ds window shape, so a compare-count planner would double the
//! WAN price there. The reports do not depend on the model, so [`PlanMemo`] keeps
//! them per shape and a lookup costs two dot products.
//!
//! A measured [`Calibration`] (loadable from `bench --bin kernel_throughput` JSON
//! output) replaces the planning model with host-measured weights.
//!
//! # Leakage
//! The plan decision is computed from the *public* array lengths, arities and
//! truncation bound — quantities both servers already observe — and a public cost
//! model, so planning adds no leakage: for any fixed input sizes the chosen
//! operator, and hence the entire operation schedule, is a deterministic public
//! function.

use crate::join::{
    delta_sort_merge_join_cost, nested_loop_join_cost, truncated_nested_loop_join,
    truncated_sort_merge_delta_join, JoinSpec,
};
use incshrink_mpc::cost::{CostMeter, CostModel, CostReport};
use incshrink_mpc::hash::FxHashMap;
use incshrink_secretshare::arrays::SharedArrayPair;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which physical operator a planned truncated join runs as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinAlgorithm {
    /// [`crate::join::truncated_nested_loop_join`] (Algorithm 4).
    NestedLoop,
    /// [`crate::join::truncated_sort_merge_delta_join`] (Example 5.1, delta-oriented).
    SortMerge,
}

impl JoinAlgorithm {
    /// Short label used in experiment tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            JoinAlgorithm::NestedLoop => "NLJ",
            JoinAlgorithm::SortMerge => "SMJ",
        }
    }
}

impl std::fmt::Display for JoinAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The public shape of one truncated join: everything either operator's cost
/// depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinShape {
    /// Padded outer (delta) length.
    pub outer: usize,
    /// Padded inner length.
    pub inner: usize,
    /// Truncation bound ω.
    pub bound: usize,
    /// Output record arity (outer + inner columns).
    pub out_arity: usize,
    /// Arity of the sort-merge join's tagged union (widest side + 2).
    pub merged_arity: usize,
}

impl JoinShape {
    /// The shape of joining `outer` against `inner`, with the arities the
    /// physical operators derive from the arrays.
    #[must_use]
    pub fn of(outer: &SharedArrayPair, inner: &SharedArrayPair, bound: usize) -> Self {
        let (outer_arity, inner_arity) = (outer.arity().unwrap_or(0), inner.arity().unwrap_or(0));
        Self {
            outer: outer.len(),
            inner: inner.len(),
            bound,
            out_arity: outer_arity + inner_arity,
            merged_arity: outer_arity.max(inner_arity) + 2,
        }
    }

    /// Both operators' exact reports at this shape.
    #[must_use]
    pub fn candidates(&self) -> JoinCandidates {
        JoinCandidates {
            nested_loop: nested_loop_join_cost(self.outer, self.inner, self.bound, self.out_arity),
            sort_merge: delta_sort_merge_join_cost(
                self.outer,
                self.inner,
                self.bound,
                self.out_arity,
                self.merged_arity,
            ),
        }
    }
}

/// What each operator would meter at one [`JoinShape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinCandidates {
    /// [`nested_loop_join_cost`] at the shape.
    pub nested_loop: CostReport,
    /// [`delta_sort_merge_join_cost`] at the shape.
    pub sort_merge: CostReport,
}

impl JoinCandidates {
    /// The report of `algorithm`.
    #[must_use]
    pub fn report(&self, algorithm: JoinAlgorithm) -> CostReport {
        match algorithm {
            JoinAlgorithm::NestedLoop => self.nested_loop,
            JoinAlgorithm::SortMerge => self.sort_merge,
        }
    }

    /// The candidate `model` prices lower; ties go to the nested loop.
    #[must_use]
    pub fn choose(&self, model: &CostModel) -> JoinPlan {
        let algorithm = if model.simulate(&self.sort_merge) < model.simulate(&self.nested_loop) {
            JoinAlgorithm::SortMerge
        } else {
            JoinAlgorithm::NestedLoop
        };
        JoinPlan {
            algorithm,
            report: self.report(algorithm),
        }
    }
}

/// Outcome of one planning decision: the operator to charge and its report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPlan {
    /// The cheaper operator under the planning model.
    pub algorithm: JoinAlgorithm,
    /// What that operator meters at the planned shape.
    pub report: CostReport,
}

/// Choose the cheaper truncated-join operator for `shape` under `model`.
#[must_use]
pub fn plan_join(shape: JoinShape, model: &CostModel) -> JoinPlan {
    shape.candidates().choose(model)
}

/// [`JoinCandidates`] memoised per [`JoinShape`], so a repeated shape is planned
/// with two `simulate` dot products instead of ~10 sort-network pair counts.
///
/// Bounded: when a new shape finds the memo full it starts over. A run meets few
/// shapes — one per direction once the window fills, a handful for a public
/// relation's step-fixed range — so the bound only caps pathological streams.
#[derive(Debug, Default)]
pub struct PlanMemo {
    shapes: FxHashMap<JoinShape, JoinCandidates>,
}

impl PlanMemo {
    /// Most shapes kept before the memo starts over.
    const CAPACITY: usize = 256;

    /// [`plan_join`], with the candidates priced once per shape.
    pub fn plan(&mut self, shape: JoinShape, model: &CostModel) -> JoinPlan {
        if self.shapes.len() >= Self::CAPACITY && !self.shapes.contains_key(&shape) {
            self.shapes.clear();
        }
        let candidates = self
            .shapes
            .entry(shape)
            .or_insert_with(|| shape.candidates());
        candidates.choose(model)
    }
}

/// Plan under `model` and physically execute the chosen operator over shared
/// arrays, which meters the winner's full oblivious cost. Returns the padded output
/// (always the nested-loop contract: `bound · |outer|` entries) and the algorithm
/// that ran.
pub fn plan_and_execute<R: Rng + ?Sized>(
    outer: &SharedArrayPair,
    inner: &SharedArrayPair,
    spec: &JoinSpec<'_>,
    bound: usize,
    model: &CostModel,
    meter: &mut CostMeter,
    rng: &mut R,
) -> (SharedArrayPair, JoinAlgorithm) {
    let algorithm = plan_join(JoinShape::of(outer, inner, bound), model).algorithm;
    let out = match algorithm {
        JoinAlgorithm::NestedLoop => {
            truncated_nested_loop_join(outer, inner, spec, bound, meter, rng)
        }
        JoinAlgorithm::SortMerge => {
            truncated_sort_merge_delta_join(outer, inner, spec, bound, meter, rng)
        }
    };
    (out, algorithm)
}

/// Charge the cost *gap* between joining against the full public relation
/// (`full_inner_len`) and the physically scanned subset (`scanned_inner_len`),
/// under the operator that ran: the compensation that keeps simulated time a
/// function of public sizes when host-side pruning shrinks the plaintext inner
/// relation even though the real oblivious protocol would scan everything.
#[allow(clippy::too_many_arguments)]
pub fn charge_full_relation_gap(
    meter: &mut CostMeter,
    algorithm: JoinAlgorithm,
    outer_len: usize,
    scanned_inner_len: usize,
    full_inner_len: usize,
    bound: usize,
    out_arity: usize,
    merged_arity: usize,
) {
    if bound == 0 || full_inner_len <= scanned_inner_len {
        return;
    }
    let report = |inner| {
        let shape = JoinShape {
            outer: outer_len,
            inner,
            bound,
            out_arity,
            merged_arity,
        };
        shape.candidates().report(algorithm)
    };
    meter.record(report(full_inner_len).saturating_sub(report(scanned_inner_len)));
}

/// Measured seconds-per-primitive-operation: a planning model that replaces the
/// run's [`CostModel`] when a caller plans by host measurements instead
/// ([`Calibration::cost_model`]).
///
/// The intended source is the JSON emitted by `cargo run -p incshrink-bench --bin
/// kernel_throughput` (see [`Calibration::from_json_str`]), whose numbers come from
/// timing the SoA share kernels on the host that will actually run the protocol. The
/// [`Default`] calibration is *honest about what it knows*: it weighs secure
/// compares at the [`CostModel`] LAN constant and everything else at zero, so it
/// plans by compare counts alone.
///
/// All fields default individually, so a partial JSON object (say, compares only)
/// parses with the remaining weights at their defaults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// Measured seconds per secure 32-bit comparison.
    pub secs_per_compare: f64,
    /// Measured seconds per oblivious word swap.
    pub secs_per_swap: f64,
    /// Measured seconds per secure single-bit AND / multiplexer gate.
    pub secs_per_and: f64,
    /// Measured seconds per secure 32-bit addition.
    pub secs_per_add: f64,
    /// Measured seconds per party-channel protocol round (one joint operation
    /// of an `incshrink_mpc::PartyContext` whose servers run as actor threads).
    /// Zero — the default — prices transport as free, which is honest for the
    /// in-process execution mode; `kernel_throughput` measures the round under
    /// the `actor` and `tcp` party modes so those deployments can weigh the
    /// rounds a plan actually performs.
    pub secs_per_channel_round: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Self {
            secs_per_compare: CostModel::default().secs_per_compare,
            secs_per_swap: 0.0,
            secs_per_and: 0.0,
            secs_per_add: 0.0,
            secs_per_channel_round: 0.0,
        }
    }
}

impl Calibration {
    /// Parse a calibration from JSON. Accepts a bare object
    /// (`{"secs_per_compare": ..., ...}`), the `kernel_throughput` report whose
    /// calibration lives under a top-level `"calibration"` key, or the bench
    /// envelope (`incshrink_bench::report::write_json`) that nests that report
    /// under a `"rows"` key. Unknown keys are ignored; absent fields keep their
    /// [`Default`] values.
    ///
    /// # Errors
    /// Returns a [`serde_json::ParseError`] when the input is not valid JSON, the
    /// (possibly unwrapped) value is not an object, or a calibration field is not a
    /// number.
    pub fn from_json_str(json: &str) -> Result<Self, serde_json::ParseError> {
        let value = serde_json::from_str(json)?;
        let serde_json::Value::Object(mut entries) = value else {
            return Err(serde_json::ParseError::new(
                "calibration must be a JSON object",
                0,
            ));
        };
        // The bench envelope nests the whole kernel_throughput payload under a
        // `"rows"` object key; descend through it first (the payload's own
        // `"rows"` field is an array, so a raw report is never double-unwrapped).
        if let Some(idx) = entries
            .iter()
            .position(|(k, v)| k == "rows" && matches!(v, serde_json::Value::Object(_)))
        {
            if let serde_json::Value::Object(inner) = entries.swap_remove(idx).1 {
                entries = inner;
            }
        }
        if let Some(idx) = entries.iter().position(|(k, _)| k == "calibration") {
            let serde_json::Value::Object(inner) = entries.swap_remove(idx).1 else {
                return Err(serde_json::ParseError::new(
                    "`calibration` key must hold a JSON object",
                    0,
                ));
            };
            entries = inner;
        }
        let as_secs = |key: &str, value: &serde_json::Value| match *value {
            serde_json::Value::Float(f) => Ok(f),
            serde_json::Value::UInt(u) => Ok(u as f64),
            serde_json::Value::Int(i) => Ok(i as f64),
            _ => Err(serde_json::ParseError::new(
                format!("`{key}` must be a number"),
                0,
            )),
        };
        let mut calibration = Self::default();
        for (key, value) in &entries {
            match key.as_str() {
                "secs_per_compare" => calibration.secs_per_compare = as_secs(key, value)?,
                "secs_per_swap" => calibration.secs_per_swap = as_secs(key, value)?,
                "secs_per_and" => calibration.secs_per_and = as_secs(key, value)?,
                "secs_per_add" => calibration.secs_per_add = as_secs(key, value)?,
                "secs_per_channel_round" => {
                    calibration.secs_per_channel_round = as_secs(key, value)?;
                }
                _ => {}
            }
        }
        Ok(calibration)
    }

    /// The planning model these measurements define: the measured gate weights,
    /// the measured party-channel round as the round price, and bytes unpriced —
    /// nothing measures them.
    #[must_use]
    pub fn cost_model(&self) -> CostModel {
        CostModel {
            secs_per_compare: self.secs_per_compare,
            secs_per_swap: self.secs_per_swap,
            secs_per_and: self.secs_per_and,
            secs_per_add: self.secs_per_add,
            secs_per_byte: 0.0,
            secs_per_round: self.secs_per_channel_round,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::PlainTable;
    use incshrink_mpc::cost::CostMeter;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A join of two two-column relations, the shape every benchmark view has.
    fn shape(outer: usize, inner: usize, bound: usize) -> JoinShape {
        JoinShape {
            outer,
            inner,
            bound,
            out_arity: 4,
            merged_arity: 4,
        }
    }

    #[test]
    fn planner_prefers_nested_loop_on_tiny_inners_and_sort_merge_on_large() {
        let lan = CostModel::default();
        // Tiny inner: the quadratic term is negligible and the nested loop's one
        // round beats the sort-merge join's five.
        assert_eq!(
            plan_join(shape(4, 2, 1), &lan).algorithm,
            JoinAlgorithm::NestedLoop
        );
        // Empty inputs price equally: the tie goes to the nested loop.
        assert_eq!(
            plan_join(shape(0, 0, 1), &lan).algorithm,
            JoinAlgorithm::NestedLoop
        );
        // Large inner: per-outer Batcher sorts dominate, the run sorts win.
        let plan = plan_join(shape(8, 2000, 1), &lan);
        assert_eq!(plan.algorithm, JoinAlgorithm::SortMerge);
        let nested_loop = shape(8, 2000, 1).candidates().nested_loop;
        assert!(
            3.0 * lan.simulate(&plan.report).as_secs_f64()
                < lan.simulate(&nested_loop).as_secs_f64()
        );
        // Much bigger bounds penalise the compaction.
        let compares = |bound| {
            shape(8, 2000, bound)
                .candidates()
                .sort_merge
                .secure_compares
        };
        assert!(compares(10) > compares(1));
    }

    #[test]
    fn plan_choices_at_the_benchmark_window_shapes() {
        // What Transform's joins look like once the inner side is the public active
        // window: TPC-ds |Δ| = 7 against 9 batches of 7, ω = 1; CPDB |Δ| = 8
        // against ~110 public rows, ω = 10. Under the LAN model sort-merge wins the
        // first and its `ω·n` compaction loses the second; under WAN its extra
        // rounds lose the first too — no single operator wins everywhere.
        let (lan, wan) = (CostModel::default(), CostModel::wan());
        assert_eq!(
            plan_join(shape(7, 63, 1), &lan).algorithm,
            JoinAlgorithm::SortMerge
        );
        assert_eq!(
            plan_join(shape(8, 110, 10), &lan).algorithm,
            JoinAlgorithm::NestedLoop
        );
        assert_eq!(
            plan_join(shape(7, 63, 1), &wan).algorithm,
            JoinAlgorithm::NestedLoop
        );
        // A compare-count planner would pick sort-merge under WAN as well.
        let tpcds = shape(7, 63, 1).candidates();
        assert!(tpcds.sort_merge.secure_compares < tpcds.nested_loop.secure_compares);
    }

    #[test]
    fn candidate_reports_match_physical_execution() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut left = PlainTable::new(&["k", "t"]);
        let mut right = PlainTable::new(&["k", "t"]);
        for i in 0..7u32 {
            left.push_row(vec![i % 3, i]);
        }
        for i in 0..19u32 {
            right.push_row(vec![i % 3, i + 1]);
        }
        let (l, r) = (left.share(&mut rng), right.share(&mut rng));
        let spec = JoinSpec::equi(0, 0);
        let shape = JoinShape::of(&l, &r, 2);
        assert_eq!(shape, self::shape(7, 19, 2));
        for algorithm in [JoinAlgorithm::NestedLoop, JoinAlgorithm::SortMerge] {
            let mut physical = CostMeter::new();
            let out = match algorithm {
                JoinAlgorithm::NestedLoop => {
                    truncated_nested_loop_join(&l, &r, &spec, 2, &mut physical, &mut rng)
                }
                JoinAlgorithm::SortMerge => {
                    truncated_sort_merge_delta_join(&l, &r, &spec, 2, &mut physical, &mut rng)
                }
            };
            assert_eq!(out.len(), 2 * l.len(), "{algorithm}: output contract");
            assert_eq!(
                physical.report(),
                shape.candidates().report(algorithm),
                "{algorithm}: the candidate report must equal the physical meter"
            );
        }
        // Planned execution meters exactly the plan's report, under either model.
        for model in [CostModel::default(), CostModel::wan()] {
            let mut meter = CostMeter::new();
            let (_, algorithm) = plan_and_execute(&l, &r, &spec, 2, &model, &mut meter, &mut rng);
            let plan = plan_join(shape, &model);
            assert_eq!((algorithm, meter.report()), (plan.algorithm, plan.report));
        }
    }

    #[test]
    fn both_operators_produce_identical_real_tuples() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut meter = CostMeter::new();
        let mut left = PlainTable::new(&["k", "t"]);
        let mut right = PlainTable::new(&["k", "t"]);
        for i in 0..9u32 {
            left.push_row(vec![i % 4, i]);
            right.push_row(vec![i % 4, i + 2]);
        }
        let (l, r) = (left.share_padded(12, &mut rng), right.share(&mut rng));
        let spec = JoinSpec::with_condition(0, 0, |a, b| b[1] >= a[1]);
        let nlj = truncated_nested_loop_join(&l, &r, &spec, 2, &mut meter, &mut rng);
        let spec2 = JoinSpec::with_condition(0, 0, |a, b| b[1] >= a[1]);
        let smj = truncated_sort_merge_delta_join(&l, &r, &spec2, 2, &mut meter, &mut rng);
        let reals = |arr: &incshrink_secretshare::arrays::SharedArrayPair| {
            arr.recover_all()
                .into_iter()
                .filter(|rec| rec.is_view)
                .map(|rec| rec.fields)
                .collect::<Vec<_>>()
        };
        assert_eq!(reals(&nlj), reals(&smj));
        assert_eq!(nlj.len(), smj.len());
    }

    proptest! {
        /// Over random shapes, under the LAN and the WAN model: the planned report
        /// is the candidate of the planned operator, no candidate is priced lower,
        /// and a memo hit plans exactly what a fresh pricing does.
        #[test]
        fn prop_the_plan_is_the_cheaper_candidate_and_memo_hits_match_fresh_pricing(
            shapes in proptest::collection::vec(
                (0usize..40, 0usize..200, 1usize..12, (1usize..4, 1usize..4)),
                1..16,
            ),
        ) {
            let mut memo = PlanMemo::default();
            for model in [CostModel::default(), CostModel::wan()] {
                // Twice over the shapes: the second pass is all memo hits.
                for &(outer, inner, bound, (a, b)) in shapes.iter().chain(&shapes) {
                    let shape = JoinShape { outer, inner, bound, out_arity: a + b, merged_arity: a.max(b) + 2 };
                    let plan = memo.plan(shape, &model);
                    prop_assert_eq!(plan, plan_join(shape, &model));
                    let candidates = shape.candidates();
                    prop_assert_eq!(plan.report, candidates.report(plan.algorithm));
                    let charged = model.simulate(&plan.report);
                    prop_assert!(charged <= model.simulate(&candidates.nested_loop));
                    prop_assert!(charged <= model.simulate(&candidates.sort_merge));
                }
            }
        }
    }

    #[test]
    fn default_calibration_reproduces_the_integer_planner() {
        // The default calibration weighs compares alone, so it plans by the exact
        // integer compare counts of the two candidates (ties to the nested loop).
        let model = Calibration::default().cost_model();
        for outer in [0usize, 1, 2, 4, 8, 16, 64, 256] {
            for inner in [0usize, 1, 2, 5, 17, 100, 500, 2000] {
                for bound in [1usize, 2, 10] {
                    let candidates = shape(outer, inner, bound).candidates();
                    let expected = if candidates.sort_merge.secure_compares
                        < candidates.nested_loop.secure_compares
                    {
                        JoinAlgorithm::SortMerge
                    } else {
                        JoinAlgorithm::NestedLoop
                    };
                    assert_eq!(
                        plan_join(shape(outer, inner, bound), &model).algorithm,
                        expected,
                        "o={outer} i={inner} b={bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn swap_heavy_calibration_moves_the_planner_crossover() {
        // Weighting swaps changes the relative price of the two operators (their
        // swap:compare ratios differ), so some sizes that the compare-only model
        // decides one way must flip under a swap-heavy calibration — and wherever
        // the decisions differ, the calibrated pick must be the one its own model
        // prices lower.
        let compare_only = Calibration::default().cost_model();
        let swap_heavy = Calibration {
            secs_per_swap: 10.0 * Calibration::default().secs_per_compare,
            ..Calibration::default()
        }
        .cost_model();
        let mut flipped = 0usize;
        for inner in 1..=4096usize {
            let base = plan_join(shape(8, inner, 1), &compare_only);
            let calibrated = plan_join(shape(8, inner, 1), &swap_heavy);
            if base.algorithm != calibrated.algorithm {
                flipped += 1;
                assert!(
                    swap_heavy.simulate(&calibrated.report) <= swap_heavy.simulate(&base.report),
                    "inner={inner}: calibrated pick must be predicted-cheaper"
                );
            }
        }
        assert!(
            flipped > 0,
            "a swap-heavy calibration must move at least one crossover point"
        );
    }

    #[test]
    fn calibration_parses_bare_and_wrapped_json() {
        let bare: Calibration =
            Calibration::from_json_str(r#"{"secs_per_compare": 1e-6, "secs_per_swap": 2e-7}"#)
                .unwrap();
        assert!((bare.secs_per_compare - 1e-6).abs() < 1e-18);
        assert!((bare.secs_per_swap - 2e-7).abs() < 1e-18);
        // Unlisted fields take their defaults.
        assert_eq!(bare.secs_per_and, 0.0);

        let wrapped = Calibration::from_json_str(
            r#"{"host": "bench-box", "calibration": {"secs_per_compare": 3e-8,
                "secs_per_swap": 4e-9, "secs_per_and": 5e-10, "secs_per_add": 6e-9}}"#,
        )
        .unwrap();
        assert!((wrapped.secs_per_compare - 3e-8).abs() < 1e-20);
        assert!((wrapped.secs_per_and - 5e-10).abs() < 1e-22);

        // Round-trip through serde keeps every field.
        let json = serde_json::to_string(&wrapped).unwrap();
        assert_eq!(Calibration::from_json_str(&json).unwrap(), wrapped);

        assert!(Calibration::from_json_str("not json").is_err());
        assert!(Calibration::from_json_str(r#"{"secs_per_compare": "fast"}"#).is_err());
    }

    #[test]
    fn channel_round_weight_prices_transport() {
        // The calibrated model prices each protocol round at the measured channel
        // round, on top of the gate-only figure — enough, here, to move the TPC-ds
        // window shape back to the one-round nested loop.
        let transported = Calibration {
            secs_per_channel_round: 1e-2,
            ..Calibration::default()
        };
        let report = CostReport {
            secure_compares: 100,
            bytes_communicated: 64,
            rounds: 3,
            ..CostReport::default()
        };
        let secs =
            |calibration: Calibration| calibration.cost_model().simulate(&report).as_secs_f64();
        assert!((secs(transported) - secs(Calibration::default()) - 3.0e-2).abs() < 1e-9);
        let tpcds = shape(7, 63, 1);
        assert_eq!(
            plan_join(tpcds, &Calibration::default().cost_model()).algorithm,
            JoinAlgorithm::SortMerge
        );
        assert_eq!(
            plan_join(tpcds, &transported.cost_model()).algorithm,
            JoinAlgorithm::NestedLoop
        );

        // The key round-trips through both the JSON reader and serde.
        let parsed = Calibration::from_json_str(r#"{"secs_per_channel_round": 2.5e-6}"#).unwrap();
        assert!((parsed.secs_per_channel_round - 2.5e-6).abs() < 1e-18);
        let json = serde_json::to_string(&transported).unwrap();
        assert_eq!(Calibration::from_json_str(&json).unwrap(), transported);
    }

    #[test]
    fn calibration_parses_the_bench_envelope() {
        // The bench envelope nests the kernel_throughput payload (whose own
        // "rows" field is an array) under a top-level "rows" object key.
        let enveloped = Calibration::from_json_str(
            r#"{"bin": "kernel_throughput", "schema_version": 1, "meta": {},
                "rows": {"rows": [{"n": 4096}],
                         "calibration": {"secs_per_compare": 3e-8, "secs_per_add": 6e-9}}}"#,
        )
        .unwrap();
        assert!((enveloped.secs_per_compare - 3e-8).abs() < 1e-20);
        assert!((enveloped.secs_per_add - 6e-9).abs() < 1e-20);
        // A raw report whose "rows" is an array is not double-unwrapped.
        let raw = Calibration::from_json_str(
            r#"{"rows": [{"n": 4096}], "calibration": {"secs_per_compare": 3e-8}}"#,
        )
        .unwrap();
        assert!((raw.secs_per_compare - 3e-8).abs() < 1e-20);
    }

    #[test]
    fn full_relation_gap_tops_up_to_the_full_cost() {
        for algorithm in [JoinAlgorithm::NestedLoop, JoinAlgorithm::SortMerge] {
            let mut scanned_plus_gap = CostMeter::new();
            scanned_plus_gap.record(shape(6, 40, 2).candidates().report(algorithm));
            charge_full_relation_gap(&mut scanned_plus_gap, algorithm, 6, 40, 100, 2, 4, 4);
            let full = shape(6, 100, 2).candidates().report(algorithm);
            assert_eq!(scanned_plus_gap.report(), full, "{algorithm}");
        }
    }
}
