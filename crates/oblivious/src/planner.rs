//! Adaptive oblivious-join planning.
//!
//! The two truncated join operators have sharply different cost profiles:
//! [`crate::join::truncated_nested_loop_join`] pays `|outer|·|inner|` secure compares
//! plus `|outer|` per-buffer Batcher sorts (quadratic in the inner relation), while
//! [`crate::join::truncated_sort_merge_delta_join`] pays a Batcher sort of each run
//! (the `|outer|`-record delta and the `|inner|`-record window), a bitonic merge of
//! the sorted runs, and a Batcher compaction of the `b·(|outer| + |inner|)`
//! emission. For tiny inner relations the nested loop wins; as the window grows —
//! and especially once `k`-step batching raises `|outer|` — the sort-merge form is
//! integer factors cheaper, unless a large `b` inflates its compaction.
//!
//! [`plan_join`] picks the operator with the smaller **secure-compare** count from a
//! cost model over `(|outer|, |inner|, b)` alone. Secure compares dominate
//! garbled-circuit join cost (each is 32 AND gates, and swap counts track compare
//! counts within a small factor), so a compare-count model orders the two operators
//! correctly everywhere that matters while staying a pure function of public sizes.
//!
//! [`plan_join_calibrated`] generalises this to *measured* throughput: a
//! [`Calibration`] (loadable from `bench --bin kernel_throughput` JSON output)
//! weighs each operator's compare/swap/AND counts by measured seconds-per-op, so
//! adaptive planning tracks the hardware instead of the gate-count proxy. The
//! default calibration weighs compares only, in which case the decision reduces —
//! exactly, with no floating-point rounding — to [`plan_join`]'s integer comparison.
//!
//! # Leakage
//! The plan decision is computed from the *public* array lengths and the public
//! truncation bound — quantities both servers already observe — so adaptivity adds no
//! leakage: for any fixed input sizes the chosen operator, and hence the entire
//! operation schedule, is a deterministic public function.

use crate::join::{
    delta_sort_merge_join_cost, nested_loop_join_cost, truncated_nested_loop_join,
    truncated_sort_merge_delta_join, JoinSpec,
};
use crate::sort::{batcher_pair_count, bitonic_merge_pair_count};
use incshrink_mpc::cost::{CostMeter, CostModel, CostReport};
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

/// Outcome of one planning decision: the winner plus both candidates' modelled
/// secure-compare counts (exposed so experiments can report the margin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinPlan {
    /// The cheaper operator for the given sizes.
    pub algorithm: JoinAlgorithm,
    /// Modelled secure compares of the nested-loop candidate.
    pub nested_loop_compares: u64,
    /// Modelled secure compares of the delta sort-merge candidate.
    pub sort_merge_compares: u64,
}

/// Modelled secure-compare count of a `b`-truncated nested-loop join:
/// `|outer|·|inner| + |outer| · batcher_pair_count(|inner|)`.
#[must_use]
pub fn nested_loop_secure_compares(outer_len: usize, inner_len: usize) -> u64 {
    let o = outer_len as u64;
    o.saturating_mul(inner_len as u64)
        .saturating_add(o.saturating_mul(batcher_pair_count(inner_len)))
}

/// Modelled secure-compare count of a delta sort-merge join with `n = |outer| +
/// |inner|`: `batcher_pair_count(|outer|) + batcher_pair_count(|inner|) +
/// bitonic_merge_pair_count(n) + n·b + batcher_pair_count(b·n)` — a Batcher sort of
/// each run (a sliding window is not key-ordered for free), a bitonic merge of the
/// two sorted runs, the `b`-bounded merge scan, and the Batcher compaction of the
/// padded emission.
#[must_use]
pub fn sort_merge_secure_compares(outer_len: usize, inner_len: usize, bound: usize) -> u64 {
    let n = outer_len + inner_len;
    batcher_pair_count(outer_len)
        .saturating_add(batcher_pair_count(inner_len))
        .saturating_add(bitonic_merge_pair_count(n))
        .saturating_add((n as u64).saturating_mul(bound as u64))
        .saturating_add(batcher_pair_count(n.saturating_mul(bound)))
}

/// Measured seconds-per-primitive-operation, used by [`plan_join_calibrated`] to
/// turn the planner's op-count models into predicted wall-clock.
///
/// The intended source is the JSON emitted by `cargo run -p incshrink-bench --bin
/// kernel_throughput` (see [`Calibration::from_json_str`]), whose numbers come from
/// timing the SoA share kernels on the host that will actually run the protocol. The
/// [`Default`] calibration is *honest about what it knows*: it weighs secure
/// compares at the [`CostModel`] LAN constant and everything else at zero, which
/// makes [`plan_join_calibrated`] reduce — by exact integer comparison, with no
/// floating-point round-off — to [`plan_join`].
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
    /// True when only compares carry weight. In that regime the relative order of two
    /// plans is scale-invariant in `secs_per_compare`, so the planner can (and does)
    /// fall back to the exact integer compare-count decision of [`plan_join`].
    #[must_use]
    pub fn is_compare_only(&self) -> bool {
        self.secs_per_compare > 0.0
            && self.secs_per_swap == 0.0
            && self.secs_per_and == 0.0
            && self.secs_per_add == 0.0
            && self.secs_per_channel_round == 0.0
    }

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

    /// Predicted wall-clock seconds of an op-count report under this calibration —
    /// the gate-only pricing path ([`CostModel::op_secs`]) with measured weights,
    /// plus the measured transport cost of the report's protocol rounds (each
    /// round is one party-channel round trip under the actor/TCP execution
    /// modes; the default weight of zero reduces this to the gate-only figure).
    #[must_use]
    pub fn predict_secs(&self, report: &CostReport) -> f64 {
        CostModel {
            secs_per_compare: self.secs_per_compare,
            secs_per_swap: self.secs_per_swap,
            secs_per_and: self.secs_per_and,
            secs_per_add: self.secs_per_add,
            secs_per_byte: 0.0,
            secs_per_round: 0.0,
        }
        .op_secs(report)
            + report.rounds as f64 * self.secs_per_channel_round
    }
}

/// Width-free op-count model of a `b`-truncated nested-loop join: the compares of
/// [`nested_loop_secure_compares`], one per-outer Batcher sort's worth of swaps, and
/// two AND gates per `(outer, inner)` pair (match bit ∧ budget bit).
#[must_use]
pub fn nested_loop_op_counts(outer_len: usize, inner_len: usize) -> CostReport {
    let o = outer_len as u64;
    CostReport {
        secure_compares: nested_loop_secure_compares(outer_len, inner_len),
        secure_swaps: o.saturating_mul(batcher_pair_count(inner_len)),
        secure_ands: 2u64.saturating_mul(o.saturating_mul(inner_len as u64)),
        ..CostReport::default()
    }
}

/// Width-free op-count model of a delta sort-merge join with `n = |outer| +
/// |inner|`: the compares of [`sort_merge_secure_compares`]; swaps for the two run
/// sorts, the bitonic merge (plus the `⌊|outer|/2⌋`-swap valley reversal) and the
/// emission compaction; one AND per emission-scan step.
#[must_use]
pub fn sort_merge_op_counts(outer_len: usize, inner_len: usize, bound: usize) -> CostReport {
    let n = outer_len + inner_len;
    let emission = n.saturating_mul(bound);
    CostReport {
        secure_compares: sort_merge_secure_compares(outer_len, inner_len, bound),
        secure_swaps: batcher_pair_count(outer_len)
            .saturating_add(batcher_pair_count(inner_len))
            .saturating_add(bitonic_merge_pair_count(n))
            .saturating_add(outer_len as u64 / 2)
            .saturating_add(batcher_pair_count(emission)),
        secure_ands: emission as u64,
        ..CostReport::default()
    }
}

/// Choose the cheaper truncated-join operator for the given public sizes. Ties go to
/// the nested loop (the historically default operator, so degenerate sizes — empty
/// inputs, `bound = 0` — keep their established cost accounting).
#[must_use]
pub fn plan_join(outer_len: usize, inner_len: usize, bound: usize) -> JoinPlan {
    let nested_loop_compares = nested_loop_secure_compares(outer_len, inner_len);
    let sort_merge_compares = sort_merge_secure_compares(outer_len, inner_len, bound);
    let algorithm = if nested_loop_compares <= sort_merge_compares {
        JoinAlgorithm::NestedLoop
    } else {
        JoinAlgorithm::SortMerge
    };
    JoinPlan {
        algorithm,
        nested_loop_compares,
        sort_merge_compares,
    }
}

/// Choose the cheaper truncated-join operator under a measured [`Calibration`].
///
/// A compare-only calibration (the default) delegates to [`plan_join`]'s exact
/// integer comparison — the compare-count order is scale-invariant in
/// `secs_per_compare`, and routing through `f64` could flip integer ties. Otherwise
/// each candidate's width-free op counts ([`nested_loop_op_counts`],
/// [`sort_merge_op_counts`]) are priced in predicted seconds and the cheaper plan
/// wins, ties again going to the nested loop. The reported compare counts stay the
/// exact integer model either way.
#[must_use]
pub fn plan_join_calibrated(
    outer_len: usize,
    inner_len: usize,
    bound: usize,
    calibration: &Calibration,
) -> JoinPlan {
    if calibration.is_compare_only() {
        return plan_join(outer_len, inner_len, bound);
    }
    let nested_loop_secs = calibration.predict_secs(&nested_loop_op_counts(outer_len, inner_len));
    let sort_merge_secs =
        calibration.predict_secs(&sort_merge_op_counts(outer_len, inner_len, bound));
    let algorithm = if nested_loop_secs <= sort_merge_secs {
        JoinAlgorithm::NestedLoop
    } else {
        JoinAlgorithm::SortMerge
    };
    JoinPlan {
        algorithm,
        nested_loop_compares: nested_loop_secure_compares(outer_len, inner_len),
        sort_merge_compares: sort_merge_secure_compares(outer_len, inner_len, bound),
    }
}

/// Plan and physically execute the chosen operator over shared arrays, metering the
/// winner's full oblivious cost. Returns the padded output (always the nested-loop
/// contract: `bound · |outer|` entries) and the algorithm that ran.
pub fn plan_and_execute<R: Rng + ?Sized>(
    outer: &SharedArrayPair,
    inner: &SharedArrayPair,
    spec: &JoinSpec<'_>,
    bound: usize,
    meter: &mut CostMeter,
    rng: &mut R,
) -> (SharedArrayPair, JoinAlgorithm) {
    let plan = plan_join(outer.len(), inner.len(), bound);
    let out = match plan.algorithm {
        JoinAlgorithm::NestedLoop => {
            truncated_nested_loop_join(outer, inner, spec, bound, meter, rng)
        }
        JoinAlgorithm::SortMerge => {
            truncated_sort_merge_delta_join(outer, inner, spec, bound, meter, rng)
        }
    };
    (out, plan.algorithm)
}

/// Charge the full modelled cost of a planned join at the given sizes without
/// physically executing it — identical, count for count, to what the corresponding
/// physical operator would meter. Used by the batched Transform, which replays the
/// per-step plaintext functionality but prices the work as one amortized join.
pub fn charge_planned_join(
    meter: &mut CostMeter,
    algorithm: JoinAlgorithm,
    outer_len: usize,
    inner_len: usize,
    bound: usize,
    out_arity: usize,
    merged_arity: usize,
) {
    if bound == 0 {
        return;
    }
    match algorithm {
        JoinAlgorithm::NestedLoop => {
            meter.record(nested_loop_join_cost(
                outer_len, inner_len, bound, out_arity,
            ));
        }
        JoinAlgorithm::SortMerge => {
            meter.record(delta_sort_merge_join_cost(
                outer_len,
                inner_len,
                bound,
                out_arity,
                merged_arity,
            ));
        }
    }
}

/// Charge the cost *gap* between joining against the full outsourced relation
/// (`full_inner_len`) and the physically scanned subset (`scanned_inner_len`): the
/// compensation that keeps simulated time honest when host-side pruning shrinks the
/// plaintext inner relation (retired records, public-window pruning) even though the
/// real oblivious protocol would scan everything.
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
    let (full, scanned) = match algorithm {
        JoinAlgorithm::NestedLoop => (
            nested_loop_join_cost(outer_len, full_inner_len, bound, out_arity),
            nested_loop_join_cost(outer_len, scanned_inner_len, bound, out_arity),
        ),
        JoinAlgorithm::SortMerge => (
            delta_sort_merge_join_cost(outer_len, full_inner_len, bound, out_arity, merged_arity),
            delta_sort_merge_join_cost(
                outer_len,
                scanned_inner_len,
                bound,
                out_arity,
                merged_arity,
            ),
        ),
    };
    meter.record(full.saturating_sub(scanned));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::PlainTable;
    use incshrink_mpc::cost::CostMeter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn planner_prefers_nested_loop_on_tiny_inners_and_sort_merge_on_large() {
        // Tiny inner: the quadratic term is negligible, NLJ avoids the big sorts.
        assert_eq!(plan_join(4, 2, 1).algorithm, JoinAlgorithm::NestedLoop);
        assert_eq!(plan_join(0, 0, 1).algorithm, JoinAlgorithm::NestedLoop);
        // Large inner: per-outer Batcher sorts dominate, the union sort wins.
        let plan = plan_join(8, 2000, 1);
        assert_eq!(plan.algorithm, JoinAlgorithm::SortMerge);
        assert!(plan.sort_merge_compares * 3 < plan.nested_loop_compares);
        // The crossover is monotone-ish: much bigger bounds penalise the compaction.
        assert!(sort_merge_secure_compares(8, 2000, 10) > sort_merge_secure_compares(8, 2000, 1));
    }

    #[test]
    fn plan_choices_at_the_benchmark_window_shapes() {
        // What Transform's joins look like once the inner side is the public active
        // window (per step, `k = 1`): TPC-ds |Δ| = 7 against 9 batches of 7, ω = 1;
        // CPDB |Δ| = 8 against ~110 public rows, ω = 10. With the inner run's sort
        // priced, sort-merge still wins the first and the `b·n` compaction still
        // loses the second — no single plan wins both.
        let tpcds = plan_join(7, 63, 1);
        assert_eq!(tpcds.algorithm, JoinAlgorithm::SortMerge);
        assert_eq!(
            (tpcds.sort_merge_compares, tpcds.nested_loop_compares),
            (1_559, 4_200)
        );
        let cpdb = plan_join(8, 110, 10);
        assert_eq!(cpdb.algorithm, JoinAlgorithm::NestedLoop);
        assert_eq!(
            (cpdb.nested_loop_compares, cpdb.sort_merge_compares),
            (10_824, 35_281)
        );
    }

    #[test]
    fn charge_planned_join_matches_physical_execution() {
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
            let mut modelled = CostMeter::new();
            let merged_arity = 2 + 2;
            charge_planned_join(
                &mut modelled,
                algorithm,
                l.len(),
                r.len(),
                2,
                4,
                merged_arity,
            );
            assert_eq!(
                physical.report(),
                modelled.report(),
                "{algorithm}: modelled charge must equal the physical meter"
            );
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

    #[test]
    fn default_calibration_reproduces_the_integer_planner() {
        let calibration = Calibration::default();
        assert!(calibration.is_compare_only());
        for outer in [0usize, 1, 2, 4, 8, 16, 64, 256] {
            for inner in [0usize, 1, 2, 5, 17, 100, 500, 2000] {
                for bound in [0usize, 1, 2, 10] {
                    assert_eq!(
                        plan_join_calibrated(outer, inner, bound, &calibration),
                        plan_join(outer, inner, bound),
                        "o={outer} i={inner} b={bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn swap_heavy_calibration_moves_the_planner_crossover() {
        // Weighting swaps changes the relative price of the two operators (their
        // swap:compare ratios differ), so some sizes that the compare-only planner
        // decides one way must flip under a swap-heavy calibration — and wherever
        // the decisions differ, the calibrated pick must be the one its own model
        // predicts is cheaper.
        let swap_heavy = Calibration {
            secs_per_swap: 10.0 * Calibration::default().secs_per_compare,
            ..Calibration::default()
        };
        assert!(!swap_heavy.is_compare_only());
        let mut flipped = 0usize;
        for inner in 1..=4096usize {
            let base = plan_join(8, inner, 1);
            let calibrated = plan_join_calibrated(8, inner, 1, &swap_heavy);
            if base.algorithm != calibrated.algorithm {
                flipped += 1;
                let nlj_secs = swap_heavy.predict_secs(&nested_loop_op_counts(8, inner));
                let smj_secs = swap_heavy.predict_secs(&sort_merge_op_counts(8, inner, 1));
                let (winner_secs, loser_secs) = match calibrated.algorithm {
                    JoinAlgorithm::NestedLoop => (nlj_secs, smj_secs),
                    JoinAlgorithm::SortMerge => (smj_secs, nlj_secs),
                };
                assert!(
                    winner_secs <= loser_secs,
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
        // A non-zero round weight leaves compare-only territory (the planner
        // must weigh rounds, not just gates) and adds exactly
        // rounds × secs_per_channel_round on top of the gate-only figure.
        let transported = Calibration {
            secs_per_channel_round: 1e-5,
            ..Calibration::default()
        };
        assert!(!transported.is_compare_only());
        let report = CostReport {
            secure_compares: 100,
            rounds: 3,
            ..CostReport::default()
        };
        let gate_only = Calibration::default().predict_secs(&report);
        assert!((transported.predict_secs(&report) - gate_only - 3.0e-5).abs() < 1e-18);

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
            charge_planned_join(&mut scanned_plus_gap, algorithm, 6, 40, 2, 4, 4);
            charge_full_relation_gap(&mut scanned_plus_gap, algorithm, 6, 40, 100, 2, 4, 4);
            let mut full = CostMeter::new();
            charge_planned_join(&mut full, algorithm, 6, 100, 2, 4, 4);
            let (a, b) = (scanned_plus_gap.report(), full.report());
            // Compares/ands/swaps/bytes top up exactly; rounds are not re-charged.
            assert_eq!(a.secure_compares, b.secure_compares, "{algorithm}");
            assert_eq!(a.secure_ands, b.secure_ands, "{algorithm}");
            assert_eq!(a.secure_swaps, b.secure_swaps, "{algorithm}");
            assert_eq!(a.bytes_communicated, b.bytes_communicated, "{algorithm}");
            assert!(a.rounds >= b.rounds, "{algorithm}");
        }
    }
}
