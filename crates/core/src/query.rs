//! The typed analyst query layer: a [`Query`] AST, its oblivious physical plan, and
//! the [`QueryEngine`] trait the execution backends implement.
//!
//! The evaluation queries are rewritten over the materialized view: because the view
//! definition *is* the query's join, answering an aggregate only requires an oblivious
//! scan of the view, whose cost is linear in the (real + dummy) view size. The non-
//! materialized baseline must instead recompute the whole oblivious join over the
//! outsourced data for every query, which is what produces the multiple-orders-of-
//! magnitude QET gap of Table 2.
//!
//! # AST → plan → engine
//!
//! [`Query`] is the analyst-facing builder: [`Query::count`], [`Query::sum`] and
//! [`Query::group_count`], each optionally restricted by [`Query::filter`] conjuncts
//! over view columns ([`FilterExpr`]). [`Query::compile`] lowers the AST to a
//! [`PhysicalPlan`] — one *fused* oblivious scan in which the selection folds into the
//! aggregate operator's predicate slot, so a filtered query costs exactly what its
//! unfiltered form costs and selectivity never leaks. The view is column-major at
//! rest ([`MaterializedView::entries`]), so the plan *names its lanes*: the filter
//! conjunction becomes a branch-free 0/1 selection mask built from the `isView` lane
//! and the filter columns, and the aggregate's lane body
//! (`incshrink_oblivious::aggregate::{count,sum,group_count}_selected`) combines it
//! with the one column the aggregate reads. No lane the plan does not name is
//! recovered, nothing is transposed per query (that happened once, when the batch
//! was synchronized), and no per-row closure or scratch record is built. Host time
//! follows the lanes read; the modeled cost does not. Engines execute the plan:
//!
//! * [`ViewEngine`] — the single-pair backend: one scan of a [`MaterializedView`].
//! * `ScatterGatherExecutor` (in `incshrink-cluster`) — per-shard partial aggregates
//!   merged through a secure-add tree, element-wise for vector answers.
//! * [`NmBaselineEngine`] — prices the full oblivious join the standard SOGDB mode
//!   would re-execute, and answers exactly (the join recomputes the truth).
//!
//! Every engine returns a [`QueryOutcome`]: the scalar-or-vector [`QueryValue`], the
//! simulated QET, and the [`CostReport`] priced through the same [`CostModel`] as the
//! maintenance protocols.
//!
//! # Leakage
//!
//! All three query shapes scan the padded view with a fixed access pattern; operation
//! counts depend only on the public `(view length, arity, query type, domain size)`.
//! COUNT and SUM reveal one aggregate word; GROUP-COUNT reveals one counter per value
//! of its *public* domain, so the answer width is a query constant rather than a
//! data-dependent key set. Filters never change the cost or the access pattern.

use crate::view::MaterializedView;
use incshrink_mpc::cost::{CostMeter, CostModel, CostReport, SimDuration};
use incshrink_oblivious::aggregate::{count_selected, group_count_selected, sum_selected};
use incshrink_secretshare::columns::{eq_word, lt_word, SharedColumnsPair};
use serde::{Deserialize, Serialize};

/// One conjunct of a query's selection predicate, over view columns. Records lacking
/// the referenced column never match (mirroring the join layer's treatment of
/// malformed records).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterExpr {
    /// `fields[field] <= bound`.
    Le {
        /// View column index.
        field: usize,
        /// Inclusive upper bound.
        bound: u32,
    },
    /// `fields[field] >= bound`.
    Ge {
        /// View column index.
        field: usize,
        /// Inclusive lower bound.
        bound: u32,
    },
    /// `fields[field] == value`.
    Eq {
        /// View column index.
        field: usize,
        /// The value to match.
        value: u32,
    },
}

impl FilterExpr {
    /// `fields[field] <= bound`.
    #[must_use]
    pub fn le(field: usize, bound: u32) -> Self {
        Self::Le { field, bound }
    }

    /// `fields[field] >= bound`.
    #[must_use]
    pub fn ge(field: usize, bound: u32) -> Self {
        Self::Ge { field, bound }
    }

    /// `fields[field] == value`.
    #[must_use]
    pub fn eq(field: usize, value: u32) -> Self {
        Self::Eq { field, value }
    }

    /// Evaluate the conjunct over a record's plaintext fields. This single definition
    /// backs both the oblivious predicate slot and the plaintext ground-truth
    /// evaluation, so the two can never drift apart.
    #[must_use]
    pub fn matches(&self, fields: &[u32]) -> bool {
        match *self {
            Self::Le { field, bound } => fields.get(field).is_some_and(|&v| v <= bound),
            Self::Ge { field, bound } => fields.get(field).is_some_and(|&v| v >= bound),
            Self::Eq { field, value } => fields.get(field) == Some(&value),
        }
    }

    fn describe(&self) -> String {
        match *self {
            Self::Le { field, bound } => format!("f{field} <= {bound}"),
            Self::Ge { field, bound } => format!("f{field} >= {bound}"),
            Self::Eq { field, value } => format!("f{field} == {value}"),
        }
    }
}

/// The aggregate a query computes over the (filtered) view entries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregateSpec {
    /// `COUNT(*)` — the evaluation's Q1/Q2 shape.
    Count,
    /// `SUM(fields[field])` with saturating 64-bit arithmetic.
    Sum {
        /// View column index to sum.
        field: usize,
    },
    /// `COUNT(*) GROUP BY fields[field]` over a **public** domain of group values:
    /// the answer is one counter per domain value, index-aligned with `domain`.
    GroupCount {
        /// View column index to group by.
        field: usize,
        /// The public group-by domain (answer width = `domain.len()`).
        domain: Vec<u32>,
    },
}

/// A typed analyst query: an aggregate over the view, optionally restricted by a
/// conjunction of column filters. Built with [`Query::count`] / [`Query::sum`] /
/// [`Query::group_count`] and chained [`Query::filter`] calls:
///
/// ```
/// use incshrink::query::{FilterExpr, Query};
///
/// // COUNT(*) WHERE col1 <= 30 AND col0 >= 2
/// let q = Query::count()
///     .filter(FilterExpr::le(1, 30))
///     .filter(FilterExpr::ge(0, 2));
/// assert_eq!(q.output_width(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    aggregate: AggregateSpec,
    filters: Vec<FilterExpr>,
}

impl Query {
    /// `SELECT COUNT(*)` over the view.
    #[must_use]
    pub fn count() -> Self {
        Self {
            aggregate: AggregateSpec::Count,
            filters: Vec::new(),
        }
    }

    /// `SELECT SUM(fields[field])` over the view.
    #[must_use]
    pub fn sum(field: usize) -> Self {
        Self {
            aggregate: AggregateSpec::Sum { field },
            filters: Vec::new(),
        }
    }

    /// `SELECT COUNT(*) GROUP BY fields[field]` over a public `domain` of group
    /// values. The answer is a vector of `domain.len()` counters.
    #[must_use]
    pub fn group_count(field: usize, domain: Vec<u32>) -> Self {
        Self {
            aggregate: AggregateSpec::GroupCount { field, domain },
            filters: Vec::new(),
        }
    }

    /// Add a selection conjunct over view columns (repeated calls AND together).
    #[must_use]
    pub fn filter(mut self, expr: FilterExpr) -> Self {
        self.filters.push(expr);
        self
    }

    /// The aggregate this query computes.
    #[must_use]
    pub fn aggregate(&self) -> &AggregateSpec {
        &self.aggregate
    }

    /// The selection conjuncts (empty = unfiltered).
    #[must_use]
    pub fn filters(&self) -> &[FilterExpr] {
        &self.filters
    }

    /// Width of the answer: 1 for scalar aggregates, the domain size for group-by.
    #[must_use]
    pub fn output_width(&self) -> usize {
        match &self.aggregate {
            AggregateSpec::Count | AggregateSpec::Sum { .. } => 1,
            AggregateSpec::GroupCount { domain, .. } => domain.len(),
        }
    }

    /// Whether a record's plaintext fields pass every filter conjunct.
    #[must_use]
    pub fn matches_filters(&self, fields: &[u32]) -> bool {
        self.filters.iter().all(|f| f.matches(fields))
    }

    /// Short label for experiment tables (e.g. `count`, `sum(f3)|f1 <= 30`).
    #[must_use]
    pub fn label(&self) -> String {
        let agg = match &self.aggregate {
            AggregateSpec::Count => "count".to_string(),
            AggregateSpec::Sum { field } => format!("sum(f{field})"),
            AggregateSpec::GroupCount { field, domain } => {
                format!("group_count(f{field},|D|={})", domain.len())
            }
        };
        if self.filters.is_empty() {
            agg
        } else {
            let conj: Vec<String> = self.filters.iter().map(FilterExpr::describe).collect();
            format!("{agg}|{}", conj.join(" & "))
        }
    }

    /// Lower the AST to its oblivious physical plan (see [`PhysicalPlan`]).
    #[must_use]
    pub fn compile(&self) -> PhysicalPlan<'_> {
        PhysicalPlan { query: self }
    }

    /// Evaluate the query over *plaintext* rows — the logical ground truth the
    /// engines' answers are compared against (rows typically come from
    /// `incshrink_workload::logical_join_rows`, whose `left ++ right` layout matches
    /// the view's canonical column order). Exactly the aggregate the oblivious plan
    /// computes, minus sharing, padding and DP noise.
    #[must_use]
    pub fn evaluate_plaintext(&self, rows: &[Vec<u32>]) -> QueryValue {
        let selected = rows.iter().filter(|r| self.matches_filters(r));
        match &self.aggregate {
            AggregateSpec::Count => QueryValue::Scalar(selected.count() as u64),
            AggregateSpec::Sum { field } => QueryValue::Scalar(
                selected
                    .map(|r| u64::from(r.get(*field).copied().unwrap_or(0)))
                    .fold(0u64, u64::saturating_add),
            ),
            AggregateSpec::GroupCount { field, domain } => {
                let mut counts = vec![0u64; domain.len()];
                for row in selected {
                    if let Some(&key) = row.get(*field) {
                        for (slot, &value) in domain.iter().enumerate() {
                            if value == key {
                                counts[slot] += 1;
                            }
                        }
                    }
                }
                QueryValue::Vector(counts)
            }
        }
    }
}

/// The physical plan a [`Query`] compiles to: one fused oblivious scan in which the
/// selection conjunction occupies the aggregate operator's predicate slot. Fusing is
/// free obliviousness: the per-entry comparison the aggregate already charges covers
/// the predicate circuit, the access pattern stays a fixed left-to-right pass, and
/// the cost becomes independent of both the filter *and* its selectivity.
#[derive(Debug, Clone, Copy)]
pub struct PhysicalPlan<'q> {
    query: &'q Query,
}

impl PhysicalPlan<'_> {
    /// Human-readable plan description (for logs and examples).
    #[must_use]
    pub fn explain(&self) -> String {
        let pred = if self.query.filters.is_empty() {
            "all".to_string()
        } else {
            self.query
                .filters
                .iter()
                .map(FilterExpr::describe)
                .collect::<Vec<_>>()
                .join(" & ")
        };
        let agg = match &self.query.aggregate {
            AggregateSpec::Count => "oblivious_count".to_string(),
            AggregateSpec::Sum { field } => format!("oblivious_sum(f{field})"),
            AggregateSpec::GroupCount { field, domain } => {
                format!(
                    "oblivious_group_count_over_domain(f{field}, |D| = {})",
                    domain.len()
                )
            }
        };
        format!("scan[filter: {pred}] -> {agg}")
    }

    /// The scan's selection as one 0/1 word per view row: `isView ∧ filters`,
    /// lowered conjunct by conjunct to branch-free lane arithmetic. Each conjunct
    /// reads only the column it names, and — as in [`FilterExpr::matches`] — a
    /// column the view does not have matches nothing.
    fn selection_mask(&self, entries: &SharedColumnsPair) -> Vec<u64> {
        let mut mask = entries.real_mask();
        for filter in &self.query.filters {
            match *filter {
                // v <= bound  ⇔  ¬(bound < v)
                FilterExpr::Le { field, bound } => {
                    entries.narrow_mask(field, &mut mask, |v| 1 ^ lt_word(u64::from(bound), v));
                }
                // v >= bound  ⇔  ¬(v < bound)
                FilterExpr::Ge { field, bound } => {
                    entries.narrow_mask(field, &mut mask, |v| 1 ^ lt_word(v, u64::from(bound)));
                }
                FilterExpr::Eq { field, value } => {
                    entries.narrow_mask(field, &mut mask, |v| eq_word(v, u64::from(value)));
                }
            }
        }
        mask
    }

    /// Execute the fused scan over the view's column-major `entries`, pricing
    /// through `model`. Only the `isView` lane and the lanes the plan names (its
    /// filter columns and the aggregate's column) are recovered; the meter is charged
    /// from the public `(len, arity, |domain|)` alone, so the cost does not depend on
    /// which lanes were read.
    #[must_use]
    pub fn execute(&self, entries: &SharedColumnsPair, model: &CostModel) -> QueryOutcome {
        let mut meter = CostMeter::new();
        let mask = self.selection_mask(entries);
        let value = match &self.query.aggregate {
            AggregateSpec::Count => QueryValue::Scalar(count_selected(entries, &mask, &mut meter)),
            AggregateSpec::Sum { field } => {
                QueryValue::Scalar(sum_selected(entries, *field, &mask, &mut meter))
            }
            AggregateSpec::GroupCount { field, domain } => QueryValue::Vector(
                group_count_selected(entries, *field, domain, &mask, &mut meter),
            ),
        };
        let report = meter.take();
        QueryOutcome {
            value,
            qet: model.simulate(&report),
            report,
            shards: None,
        }
    }
}

/// A query answer: one word for COUNT/SUM, one counter per domain value for
/// GROUP-COUNT.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryValue {
    /// Scalar answer (COUNT, SUM).
    Scalar(u64),
    /// Vector answer (GROUP-COUNT), index-aligned with the query's public domain.
    Vector(Vec<u64>),
}

impl QueryValue {
    /// The scalar answer, if this is one.
    #[must_use]
    pub fn as_scalar(&self) -> Option<u64> {
        match self {
            Self::Scalar(v) => Some(*v),
            Self::Vector(_) => None,
        }
    }

    /// The scalar answer.
    ///
    /// # Panics
    /// Panics on vector answers — callers asserting scalar shape (the counting path)
    /// would otherwise propagate a silently wrong value.
    #[must_use]
    pub fn expect_scalar(&self) -> u64 {
        self.as_scalar()
            .expect("query answer is a vector, not a scalar")
    }

    /// Answer width (1 for scalars).
    #[must_use]
    pub fn width(&self) -> usize {
        match self {
            Self::Scalar(_) => 1,
            Self::Vector(v) => v.len(),
        }
    }

    /// L1 distance to another answer of the same shape — the error metric of
    /// Section 4.1, generalized element-wise to vector answers.
    ///
    /// # Panics
    /// Panics when the shapes differ (scalar vs vector, or mismatched widths): an
    /// error metric across different queries is meaningless.
    #[must_use]
    pub fn l1_error(&self, truth: &QueryValue) -> f64 {
        match (self, truth) {
            (Self::Scalar(a), Self::Scalar(b)) => a.abs_diff(*b) as f64,
            (Self::Vector(a), Self::Vector(b)) => {
                assert_eq!(a.len(), b.len(), "vector answers of mismatched width");
                a.iter().zip(b).map(|(x, y)| x.abs_diff(*y) as f64).sum()
            }
            _ => panic!("cannot compare a scalar answer with a vector answer"),
        }
    }

    /// Element-wise saturating accumulation of another answer of the same shape —
    /// the plaintext functionality of the cluster's secure-add merge tree.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn accumulate(&mut self, other: &QueryValue) {
        match (self, other) {
            (Self::Scalar(a), Self::Scalar(b)) => *a = a.saturating_add(*b),
            (Self::Vector(a), Self::Vector(b)) => {
                assert_eq!(a.len(), b.len(), "vector answers of mismatched width");
                for (x, y) in a.iter_mut().zip(b) {
                    *x = x.saturating_add(*y);
                }
            }
            _ => panic!("cannot merge a scalar answer with a vector answer"),
        }
    }
}

/// One shard's contribution to a scatter-gathered query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardPartial {
    /// Shard index.
    pub shard: usize,
    /// The shard's partial answer (protocol-internal; exposed for reporting).
    pub value: QueryValue,
    /// Simulated execution time of the shard's local scan (or join recomputation).
    pub qet: SimDuration,
}

/// Per-shard decomposition of a scatter-gathered [`QueryOutcome`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardBreakdown {
    /// The slowest shard's local execution time (shard pairs run in parallel).
    pub max_shard_qet: SimDuration,
    /// Simulated time of the cross-shard oblivious aggregation tree.
    pub aggregation_qet: SimDuration,
    /// Per-shard partial answers.
    pub per_shard: Vec<ShardPartial>,
}

/// A query answer together with its simulated execution time and operation counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// The (possibly approximate) answer returned to the analyst.
    pub value: QueryValue,
    /// Simulated query execution time.
    pub qet: SimDuration,
    /// Oblivious-operation counts of the query.
    pub report: CostReport,
    /// Per-shard decomposition, populated by scatter-gathering engines only.
    pub shards: Option<ShardBreakdown>,
}

/// A query execution backend: compiles and runs [`Query`]s against whatever state it
/// fronts (a single-pair view, a cluster of shard views, or the priced-but-never-
/// materialized NM join), returning answers, QET and costs in one [`QueryOutcome`].
pub trait QueryEngine {
    /// Execute `query` and return its outcome.
    fn execute(&self, query: &Query) -> QueryOutcome;
}

/// The single-pair execution backend: one oblivious scan of a materialized view.
#[derive(Debug, Clone, Copy)]
pub struct ViewEngine<'v> {
    view: &'v MaterializedView,
    model: CostModel,
}

impl<'v> ViewEngine<'v> {
    /// An engine scanning `view`, priced through `model`.
    #[must_use]
    pub fn new(view: &'v MaterializedView, model: CostModel) -> Self {
        Self { view, model }
    }
}

impl QueryEngine for ViewEngine<'_> {
    fn execute(&self, query: &Query) -> QueryOutcome {
        query.compile().execute(self.view.entries(), &self.model)
    }
}

/// Where an [`NmBaselineEngine`] gets its (exact) answers from.
#[derive(Debug, Clone, Copy)]
enum NmAnswerSource<'a> {
    /// Only the counting answer is known (the framework's per-step ground truth).
    Count(u64),
    /// The full joined pairs, enabling every query shape.
    Rows(&'a [Vec<u32>]),
}

/// The non-materialized (standard SOGDB) baseline as a query engine: every query
/// prices a full oblivious sort-merge join over the outsourced relations (per
/// Example 5.1, via [`non_materialized_query_cost`]) and answers *exactly* — the
/// recomputed join has no view error by construction.
#[derive(Debug, Clone, Copy)]
pub struct NmBaselineEngine<'a> {
    n_left: u64,
    n_right: u64,
    arity: u64,
    truncation_bound: u64,
    model: CostModel,
    source: NmAnswerSource<'a>,
}

impl NmBaselineEngine<'static> {
    /// An NM engine that can answer **the unfiltered counting query only**:
    /// `true_count` is the logical ground truth over the `n_left`/`n_right`
    /// outsourced records of total pair width `arity`. The framework's per-step loop
    /// uses this form (it keeps per-step counts, not materialized pair rows); every
    /// other query shape needs [`NmBaselineEngine::with_joined_rows`].
    #[must_use]
    pub fn for_count(
        n_left: u64,
        n_right: u64,
        arity: u64,
        truncation_bound: u64,
        model: CostModel,
        true_count: u64,
    ) -> Self {
        Self {
            n_left,
            n_right,
            arity,
            truncation_bound,
            model,
            source: NmAnswerSource::Count(true_count),
        }
    }
}

impl<'a> NmBaselineEngine<'a> {
    /// An NM engine over the materialized logical join `rows` (`left ++ right`
    /// layout, e.g. from `incshrink_workload::logical_join_rows`), able to answer
    /// every query shape.
    #[must_use]
    pub fn with_joined_rows(
        n_left: u64,
        n_right: u64,
        arity: u64,
        truncation_bound: u64,
        model: CostModel,
        rows: &'a [Vec<u32>],
    ) -> Self {
        Self {
            n_left,
            n_right,
            arity,
            truncation_bound,
            model,
            source: NmAnswerSource::Rows(rows),
        }
    }
}

impl QueryEngine for NmBaselineEngine<'_> {
    /// # Panics
    /// Panics when the engine was built with [`NmBaselineEngine::for_count`] but the
    /// query is not the *unfiltered* count — answering a sum (or a filtered count)
    /// from the total would be silently wrong.
    fn execute(&self, query: &Query) -> QueryOutcome {
        let (_, mut report) = non_materialized_query_cost(
            self.n_left,
            self.n_right,
            self.arity,
            self.truncation_bound,
            &self.model,
        );
        // Vector answers reveal `width` aggregate words instead of one; the counting
        // path stays byte-identical to the historical NM pricing.
        report.bytes_communicated += 8 * (query.output_width() as u64).saturating_sub(1);
        let value = match self.source {
            NmAnswerSource::Rows(rows) => query.evaluate_plaintext(rows),
            NmAnswerSource::Count(c) => {
                assert!(
                    matches!(query.aggregate(), AggregateSpec::Count) && query.filters().is_empty(),
                    "NmBaselineEngine::for_count can only answer the unfiltered \
                     counting query; build it with with_joined_rows for {}",
                    query.label()
                );
                QueryValue::Scalar(c)
            }
        };
        QueryOutcome {
            value,
            qet: self.model.simulate(&report),
            report,
            shards: None,
        }
    }
}

/// A counting-query answer together with its simulated execution time (the legacy
/// shape of the pre-AST API, kept for the counting call sites and reports).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// The (possibly approximate) count returned to the analyst.
    pub answer: u64,
    /// Simulated query execution time.
    pub qet: SimDuration,
    /// Oblivious-operation counts of the query.
    pub report: CostReport,
}

/// Number of compare-exchange gates in a Batcher odd-even merge network of `n`
/// elements, computed analytically (`≈ n·log²n/4`); used to price joins that are never
/// physically executed (the NM baseline over the full outsourced data).
///
/// Delegates to [`incshrink_oblivious::batcher_padded_pair_count`] — the single
/// definition of the analytic padded-network formula (this function used to carry
/// its own identical copy). Saturates at `u64::MAX` instead of overflowing.
#[must_use]
pub fn batcher_comparator_count(n: u64) -> u64 {
    incshrink_oblivious::batcher_padded_pair_count(n)
}

/// Execute the counting query over the materialized view: one oblivious linear scan,
/// equivalent to `ViewEngine::execute(&Query::count())` (which it delegates to, so
/// the legacy entry point and the typed API can never diverge).
#[must_use]
pub fn view_count_query(view: &MaterializedView, model: &CostModel) -> QueryResult {
    let outcome = ViewEngine::new(view, *model).execute(&Query::count());
    QueryResult {
        answer: outcome.value.expect_scalar(),
        qet: outcome.qet,
        report: outcome.report,
    }
}

/// Cost of answering the query without a view (NM baseline): an oblivious sort-merge
/// join over the full outsourced relations (sizes `n_left`, `n_right` padded records of
/// width `arity` words) followed by a truncated linear scan, per Example 5.1.
#[must_use]
pub fn non_materialized_query_cost(
    n_left: u64,
    n_right: u64,
    arity: u64,
    truncation_bound: u64,
    model: &CostModel,
) -> (SimDuration, CostReport) {
    let n = n_left + n_right;
    let comparators = batcher_comparator_count(n);
    let report = CostReport {
        secure_compares: comparators + n * truncation_bound,
        secure_swaps: comparators * (arity + 1),
        secure_ands: n * truncation_bound,
        secure_adds: n,
        bytes_communicated: n * (arity + 1) * 4,
        rounds: 2,
    };
    (model.simulate(&report), report)
}

/// The true answer the NM baseline returns (it recomputes the join exactly, so its
/// error is zero by construction).
#[must_use]
pub fn non_materialized_answer(true_count: u64) -> u64 {
    true_count
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_secretshare::arrays::SharedArrayPair;
    use incshrink_secretshare::tuple::PlainRecord;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn view_with(real: usize, dummy: usize) -> MaterializedView {
        let mut rng = StdRng::seed_from_u64(3);
        let mut records: Vec<PlainRecord> = (0..real)
            .map(|i| PlainRecord::real(vec![i as u32, 0, 0, 0]))
            .collect();
        records.extend((0..dummy).map(|_| PlainRecord::dummy(4)));
        let mut v = MaterializedView::new();
        v.append(SharedArrayPair::share_records(&records, &mut rng));
        v
    }

    #[test]
    fn batcher_count_growth() {
        assert_eq!(batcher_comparator_count(0), 0);
        assert_eq!(batcher_comparator_count(1), 0);
        assert!(batcher_comparator_count(2) >= 1);
        let small = batcher_comparator_count(1_000);
        let large = batcher_comparator_count(1_000_000);
        assert!(large > small * 900, "n log^2 n growth");
        // Analytic formula is an upper bound on the pruned arbitrary-n network.
        for n in [3usize, 5, 17, 33, 100] {
            let actual = incshrink_oblivious::sort::batcher_pairs(n).len() as u64;
            assert!(actual <= batcher_comparator_count(n as u64));
        }
    }

    #[test]
    fn batcher_count_saturates_instead_of_overflowing() {
        // For n beyond ~2^57 the u64 product p·k·(k+1) used to wrap around; the u128
        // computation must stay monotone and saturate at u64::MAX.
        let big = batcher_comparator_count(1 << 50);
        let bigger = batcher_comparator_count(1 << 54);
        assert!(bigger > big, "count stays monotone past the old overflow");
        assert_eq!(batcher_comparator_count(u64::MAX), u64::MAX, "saturates");
        assert_eq!(batcher_comparator_count(1 << 57), u64::MAX, "saturates");
        // Sanity: the exact value just below the saturation region.
        assert_eq!(
            batcher_comparator_count(1 << 40),
            (1u64 << 40) * 40 * 41 / 4
        );
    }

    #[test]
    fn batcher_count_delegation_matches_the_historical_formula() {
        // The local copy of the analytic formula this function carried before
        // delegating to the oblivious crate; the delegation must agree everywhere.
        fn historical(n: u64) -> u64 {
            if n < 2 {
                return 0;
            }
            let p = u128::from(n).next_power_of_two();
            let k = u128::from(p.trailing_zeros());
            u64::try_from((p * k * (k + 1)) / 4).unwrap_or(u64::MAX)
        }
        for n in 0..=(1u64 << 20) {
            assert_eq!(batcher_comparator_count(n), historical(n), "n={n}");
        }
        // u128-saturation edge: beyond ~2^57 the product exceeds u64.
        for n in [1u64 << 56, (1 << 57) - 1, 1 << 57, 1 << 63, u64::MAX] {
            assert_eq!(batcher_comparator_count(n), historical(n), "n={n}");
        }
    }

    #[test]
    fn view_query_counts_real_entries_and_charges_scan() {
        let model = CostModel::default();
        let view = view_with(7, 13);
        let res = view_count_query(&view, &model);
        assert_eq!(res.answer, 7);
        assert_eq!(res.report.secure_compares, 20);
        // The scan prices its share traffic: 20 arity-4 entries at (4+1)·4 bytes
        // each, plus the 8-byte revealed count (regression for the flat-8 pricing).
        assert_eq!(res.report.bytes_communicated, 20 * 20 + 8);
        assert!(res.qet.as_secs_f64() > 0.0);

        // More dummies make the same query slower (Observation 4).
        let padded = view_with(7, 200);
        let slower = view_count_query(&padded, &model);
        assert_eq!(slower.answer, 7);
        assert!(slower.qet > res.qet);
    }

    #[test]
    fn legacy_count_and_typed_engine_agree_bit_for_bit() {
        let model = CostModel::default();
        for (real, dummy) in [(0, 0), (7, 13), (100, 3)] {
            let view = view_with(real, dummy);
            let legacy = view_count_query(&view, &model);
            let outcome = ViewEngine::new(&view, model).execute(&Query::count());
            assert_eq!(QueryValue::Scalar(legacy.answer), outcome.value);
            assert_eq!(legacy.qet, outcome.qet);
            assert_eq!(legacy.report, outcome.report);
        }
    }

    #[test]
    fn filtered_queries_cost_exactly_what_unfiltered_ones_do() {
        // The plan fuses selection into the aggregate's predicate slot, so the cost —
        // and hence the leakage — is independent of the filter and its selectivity.
        let model = CostModel::default();
        let view = view_with(9, 6);
        let engine = ViewEngine::new(&view, model);
        let plain = engine.execute(&Query::count());
        let filtered = engine.execute(&Query::count().filter(FilterExpr::le(0, 3)));
        assert_eq!(plain.report, filtered.report);
        assert_eq!(plain.qet, filtered.qet);
        assert_eq!(filtered.value, QueryValue::Scalar(4), "ids 0..=3 pass");

        let sum = engine.execute(&Query::sum(0).filter(FilterExpr::le(0, 3)));
        assert_eq!(sum.value, QueryValue::Scalar(6), "ids 0 + 1 + 2 + 3");
    }

    #[test]
    fn group_count_answers_over_public_domain() {
        let model = CostModel::default();
        let view = view_with(5, 2);
        let engine = ViewEngine::new(&view, model);
        let q = Query::group_count(0, vec![0, 2, 4, 9]);
        let outcome = engine.execute(&q);
        assert_eq!(outcome.value, QueryValue::Vector(vec![1, 1, 1, 0]));
        assert_eq!(outcome.value.width(), q.output_width());
        // Cost scales with the domain width, not the data.
        let wide = engine.execute(&Query::group_count(0, (0..32).collect()));
        assert!(wide.report.secure_compares > outcome.report.secure_compares);
    }

    #[test]
    fn plan_explains_the_fused_scan() {
        let q = Query::sum(3).filter(FilterExpr::le(1, 30));
        assert_eq!(
            q.compile().explain(),
            "scan[filter: f1 <= 30] -> oblivious_sum(f3)"
        );
        assert_eq!(q.label(), "sum(f3)|f1 <= 30");
        assert_eq!(
            Query::count().compile().explain(),
            "scan[filter: all] -> oblivious_count"
        );
    }

    #[test]
    fn query_value_arithmetic() {
        let mut a = QueryValue::Vector(vec![1, 2, 3]);
        a.accumulate(&QueryValue::Vector(vec![10, 0, 1]));
        assert_eq!(a, QueryValue::Vector(vec![11, 2, 4]));
        assert_eq!(a.l1_error(&QueryValue::Vector(vec![11, 0, 0])), 6.0);
        let mut s = QueryValue::Scalar(5);
        s.accumulate(&QueryValue::Scalar(7));
        assert_eq!(s.expect_scalar(), 12);
        assert_eq!(s.l1_error(&QueryValue::Scalar(10)), 2.0);
        assert_eq!(a.as_scalar(), None);
    }

    #[test]
    #[should_panic(expected = "vector, not a scalar")]
    fn expect_scalar_rejects_vectors() {
        let _ = QueryValue::Vector(vec![1]).expect_scalar();
    }

    #[test]
    fn nm_engine_counts_exactly_and_prices_the_full_join() {
        let model = CostModel::default();
        let nm = NmBaselineEngine::for_count(50_000, 10_000, 4, 1, model, 42);
        let outcome = nm.execute(&Query::count());
        assert_eq!(outcome.value, QueryValue::Scalar(42));
        // Bit-for-bit with the historical NM pricing.
        let (qet, report) = non_materialized_query_cost(50_000, 10_000, 4, 1, &model);
        assert_eq!(outcome.qet, qet);
        assert_eq!(outcome.report, report);
    }

    #[test]
    fn nm_engine_over_rows_answers_every_shape() {
        let model = CostModel::default();
        let rows = vec![vec![1, 10, 1, 12], vec![2, 11, 2, 15], vec![2, 30, 2, 31]];
        let nm = NmBaselineEngine::with_joined_rows(100, 50, 4, 1, model, &rows);
        assert_eq!(nm.execute(&Query::count()).value, QueryValue::Scalar(3));
        assert_eq!(
            nm.execute(&Query::sum(3)).value,
            QueryValue::Scalar(12 + 15 + 31)
        );
        let grouped = nm.execute(&Query::group_count(0, vec![1, 2, 3]));
        assert_eq!(grouped.value, QueryValue::Vector(vec![1, 2, 0]));
        // The vector reveal adds bytes on top of the scalar pricing.
        let count_bytes = nm.execute(&Query::count()).report.bytes_communicated;
        assert_eq!(grouped.report.bytes_communicated, count_bytes + 8 * 2);
        // Filtered recomputation stays exact.
        let filtered = nm.execute(&Query::count().filter(FilterExpr::ge(1, 11)));
        assert_eq!(filtered.value, QueryValue::Scalar(2));
    }

    #[test]
    #[should_panic(expected = "can only answer the unfiltered counting query")]
    fn nm_count_only_engine_rejects_sums() {
        let nm = NmBaselineEngine::for_count(10, 10, 4, 1, CostModel::default(), 5);
        let _ = nm.execute(&Query::sum(1));
    }

    #[test]
    #[should_panic(expected = "can only answer the unfiltered counting query")]
    fn nm_count_only_engine_rejects_filtered_counts() {
        // Answering a filtered count with the unfiltered total would be silently
        // wrong — the engine must refuse it just like a sum.
        let nm = NmBaselineEngine::for_count(10, 10, 4, 1, CostModel::default(), 5);
        let _ = nm.execute(&Query::count().filter(FilterExpr::le(1, 40)));
    }

    #[test]
    fn nm_query_is_orders_of_magnitude_slower_than_view_scan() {
        let model = CostModel::default();
        let view = view_with(100, 100);
        let view_qet = view_count_query(&view, &model).qet;
        let (nm_qet, report) = non_materialized_query_cost(50_000, 10_000, 2, 1, &model);
        assert!(nm_qet.as_secs_f64() > view_qet.as_secs_f64() * 100.0);
        assert!(report.secure_swaps > report.secure_compares);
        assert_eq!(non_materialized_answer(42), 42);
    }

    #[test]
    fn nm_cost_grows_with_data_size() {
        let model = CostModel::default();
        let (small, _) = non_materialized_query_cost(1_000, 1_000, 2, 1, &model);
        let (large, _) = non_materialized_query_cost(100_000, 100_000, 2, 1, &model);
        assert!(large.as_secs_f64() > small.as_secs_f64() * 50.0);
    }

    #[test]
    fn empty_view_query() {
        let model = CostModel::default();
        let view = MaterializedView::new();
        let res = view_count_query(&view, &model);
        assert_eq!(res.answer, 0);
        assert_eq!(res.report.secure_compares, 0);
        let sum = ViewEngine::new(&view, model).execute(&Query::sum(2));
        assert_eq!(sum.value, QueryValue::Scalar(0));
    }
}
