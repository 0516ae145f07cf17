//! Cost-based oblivious-join planning.
//!
//! The two truncated join operators share one output contract and have different
//! cost profiles: [`crate::join::truncated_nested_loop_join`] (Algorithm 4) pays
//! `|outer|·|inner|` secure compares plus `|outer|` per-buffer top-`b` selection
//! networks with record-wide swaps (`|inner| − 1` comparators each at `b = 1`), in
//! one round, while [`crate::join::truncated_sort_merge_delta_join`]
//! (Example 5.1) pays a Batcher sort of each run, a bitonic merge of the sorted
//! runs and a top-`b·|outer|` selection over the `b·(|outer| + |inner|)` emission,
//! over up to five rounds. The nested loop is linear in `|inner|` per outer tuple,
//! so the sort-merge join wins only once the delta itself is large — from a few
//! dozen rows at `b = 1` under the LAN model (`fig9`'s scaled TPC-ds deltas), from
//! about seventy at `b = 10`. Small deltas, large `b` and expensive rounds keep the
//! nested loop; at both benchmark window shapes it wins.
//!
//! [`JoinShape::candidates`] builds both operators' exact [`CostReport`]s — what
//! the share-array operators meter — and `JoinCandidates::choose` charges the one
//! whose [`CostModel::simulate`] is lower under the caller's model, ties going to
//! the nested loop. The planner weighs seconds, not compare counts: under
//! [`CostModel::wan`] the sort-merge join's extra rounds outweigh the gates it
//! saves at `fig9`'s scale-4 TPC-ds shape, which a compare-count planner would
//! charge as the sort-merge join. The reports do not depend on the model, so
//! [`PlanMemo`] keeps them per shape and a lookup costs two dot products. There is
//! one planning model: the caller's, which is the run's own.
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
    /// `delta_sort_merge_join_cost` at the shape.
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
    pub(crate) fn choose(&self, model: &CostModel) -> JoinPlan {
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
        // A small delta keeps the nested loop even against a large inner: at ω = 1
        // its per-outer selections cost |inner| − 1 comparators each, less than
        // sorting the inner run.
        assert_eq!(
            plan_join(shape(8, 2000, 1), &lan).algorithm,
            JoinAlgorithm::NestedLoop
        );
        // A large delta against a large inner: the |outer|·|inner| compare matrix
        // dominates, the run sorts win.
        let plan = plan_join(shape(256, 2000, 1), &lan);
        assert_eq!(plan.algorithm, JoinAlgorithm::SortMerge);
        let nested_loop = shape(256, 2000, 1).candidates().nested_loop;
        assert!(
            3.0 * lan.simulate(&plan.report).as_secs_f64()
                < lan.simulate(&nested_loop).as_secs_f64()
        );
        // Much bigger bounds penalise the compaction.
        let compares = |bound| {
            shape(256, 2000, bound)
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
        // against ~110 public rows, ω = 10. With Algorithm 4's buffers priced as
        // top-ω selections the nested loop wins both under LAN and WAN.
        let (lan, wan) = (CostModel::default(), CostModel::wan());
        for model in [lan, wan] {
            for window in [shape(7, 63, 1), shape(8, 110, 10)] {
                assert_eq!(
                    plan_join(window, &model).algorithm,
                    JoinAlgorithm::NestedLoop
                );
            }
        }
        // A large delta still tips LAN to sort-merge: fig9's TPC-ds at scale 4
        // joins 28-row deltas of four-column records against a 192-row window.
        // Under WAN the extra rounds lose it again — no single operator wins
        // everywhere.
        let scaled = JoinShape {
            outer: 28,
            inner: 192,
            bound: 1,
            out_arity: 8,
            merged_arity: 6,
        };
        assert_eq!(plan_join(scaled, &lan).algorithm, JoinAlgorithm::SortMerge);
        assert_eq!(plan_join(scaled, &wan).algorithm, JoinAlgorithm::NestedLoop);
        // A compare-count planner would pick sort-merge under WAN as well.
        let scaled = scaled.candidates();
        assert!(scaled.sort_merge.secure_compares < scaled.nested_loop.secure_compares);
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
}
