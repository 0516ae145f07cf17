//! The typed analyst query layer: the [`Query`] AST and its one plan body.
//!
//! The evaluation queries are rewritten over the materialized view: because the view
//! definition *is* the query's join, answering an aggregate only requires an oblivious
//! scan of the view, whose cost is linear in the (real + dummy) view size. The non-
//! materialized baseline must instead recompute the whole oblivious join over the
//! outsourced data for every query, which is what produces the multiple-orders-of-
//! magnitude QET gap of Table 2.
//!
//! # AST → plan body
//!
//! [`Query`] is the analyst-facing builder: [`Query::count`], [`Query::sum`] and
//! [`Query::group_count`], each optionally restricted by [`Query::filter`] conjuncts
//! over view columns ([`FilterExpr`]). [`Query::execute`] runs it as one *fused*
//! oblivious scan of a [`MaterializedView`], in which the selection folds into the
//! aggregate operator's predicate slot, so a filtered query costs exactly what its
//! unfiltered form costs and selectivity never leaks; [`Query::explain`] names that
//! scan. The view is column-major at rest ([`MaterializedView::entries`]), so the
//! scan *names its lanes*: the aggregate's lane body
//! (`incshrink_oblivious::aggregate::{count,sum,group_count}_selected`) evaluates
//! the filter conjunction as a branch-free 0/1 selection over the `isView` lane and
//! the filter columns, 256 rows at a time in a stack block (the one predicate
//! lowering), and combines each block with the one column the aggregate reads. No
//! lane the plan does not name is recovered, nothing is transposed per query (that
//! happened once, when the batch was synchronized), and no per-row closure, scratch
//! record or view-length mask is built. Host
//! time follows the lanes read; the modeled cost does not. Around that body:
//!
//! * `ShardPipeline::execute_query` runs it over one server pair's view.
//! * `ScatterGatherExecutor::merge` (in `incshrink-cluster`) combines the shards'
//!   outcomes through a secure-add tree, element-wise for vector answers.
//! * [`NmBaselineEngine::execute`] prices the full oblivious join the standard SOGDB
//!   mode would re-execute, and answers exactly (the join recomputes the truth).
//!
//! Each returns a [`QueryOutcome`]: the scalar-or-vector [`QueryValue`], the
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
use incshrink_mpc::circuit::{Kernel, Reduction, WORD_BITS};
use incshrink_mpc::cost::{CostMeter, CostModel, CostReport, SimDuration};
use incshrink_oblivious::aggregate::{count_selected, group_count_selected, sum_selected};
pub use incshrink_oblivious::filter::FilterExpr;
use serde::{Deserialize, Serialize};

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
    pub(crate) fn matches_filters(&self, fields: &[u32]) -> bool {
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
            format!("{agg}|{}", self.conjunction())
        }
    }

    /// The filter conjuncts joined with ` & `.
    fn conjunction(&self) -> String {
        let conjuncts: Vec<String> = self.filters.iter().map(ToString::to_string).collect();
        conjuncts.join(" & ")
    }

    /// The fused scan [`Self::execute`] runs, for logs and examples
    /// (e.g. `scan[filter: f1 <= 30] -> oblivious_sum(f3)`).
    #[must_use]
    pub fn explain(&self) -> String {
        let pred = if self.filters.is_empty() {
            "all".to_string()
        } else {
            self.conjunction()
        };
        let agg = match &self.aggregate {
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

    /// Run the query as one fused oblivious scan of `view`'s column-major entries,
    /// pricing through `model` at the view's column widths. The selection occupies
    /// the aggregate operator's predicate slot: the per-entry comparison the
    /// aggregate already charges, at the widest column's width, covers the
    /// predicate circuit, the access pattern stays a fixed left-to-right pass, and
    /// the cost is independent of both the filter *and* its selectivity. Only
    /// the `isView` lane and the lanes the query names (its filter columns and the
    /// aggregate's column) are recovered; the meter is charged from the public
    /// `(len, arity, |domain|)` alone.
    #[must_use]
    pub fn execute(&self, view: &MaterializedView, model: &CostModel) -> QueryOutcome {
        let (entries, bits) = (view.entries(), view.column_bits());
        let (filters, mut meter) = (&self.filters, CostMeter::new());
        let value = match &self.aggregate {
            AggregateSpec::Count => {
                QueryValue::Scalar(count_selected(entries, filters, bits, &mut meter))
            }
            AggregateSpec::Sum { field } => {
                QueryValue::Scalar(sum_selected(entries, *field, filters, bits, &mut meter))
            }
            AggregateSpec::GroupCount { field, domain } => QueryValue::Vector(
                group_count_selected(entries, *field, domain, filters, bits, &mut meter),
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

    /// Evaluate the query over *plaintext* rows — the logical ground truth the
    /// query answers are compared against (rows typically come from
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
    pub(crate) fn as_scalar(&self) -> Option<u64> {
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

/// Per-shard decomposition of a scatter-gathered [`QueryOutcome`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardBreakdown {
    /// The slowest shard's local execution time (shard pairs run in parallel).
    pub max_shard_qet: SimDuration,
    /// Simulated time of the cross-shard oblivious aggregation tree.
    pub aggregation_qet: SimDuration,
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
    /// Per-shard decomposition, populated by `ScatterGatherExecutor::merge` only.
    pub shards: Option<ShardBreakdown>,
}

/// Where an [`NmBaselineEngine`] gets its (exact) answers from.
#[derive(Debug, Clone, Copy)]
enum NmAnswerSource<'a> {
    /// Only the counting answer is known (the framework's per-step ground truth).
    Count(u64),
    /// The full joined pairs, enabling every query shape.
    Rows(&'a [Vec<u32>]),
}

/// The non-materialized (standard SOGDB) baseline: every query
/// prices a full oblivious sort-merge join over the outsourced relations (per
/// Example 5.1, via `non_materialized_query_cost`) and answers *exactly* — the
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
    pub(crate) fn for_count(
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

impl NmBaselineEngine<'_> {
    /// Price the full join `query` would recompute and answer it exactly.
    ///
    /// # Panics
    /// Panics when the engine was built with `NmBaselineEngine::for_count` but the
    /// query is not the *unfiltered* count — answering a sum (or a filtered count)
    /// from the total would be silently wrong.
    #[must_use]
    pub fn execute(&self, query: &Query) -> QueryOutcome {
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

/// Cost of answering the query without a view (NM baseline): an oblivious sort-merge
/// join over the full outsourced relations (sizes `n_left`, `n_right` padded records of
/// width `arity` words) followed by a truncated linear scan, per Example 5.1, priced
/// as the paper's analytic baseline over full words: the padded Batcher bound's
/// compares and record-wide swaps, a compare and an AND per scanned slot, and the
/// view scan's count, one adder tree over the records' bits
/// ([`Reduction::Count`]), so the two accumulate alike. Like a view query, it is
/// one circuit that ends where its answer is released: one round.
#[must_use]
pub(crate) fn non_materialized_query_cost(
    n_left: u64,
    n_right: u64,
    arity: u64,
    truncation_bound: u64,
    model: &CostModel,
) -> (SimDuration, CostReport) {
    let n = n_left + n_right;
    let comparators = incshrink_oblivious::batcher_padded_pair_count(n);
    let mut meter = CostMeter::new();
    meter.kernels(comparators + n * truncation_bound, Kernel::Lt(WORD_BITS));
    meter.kernels(comparators, Kernel::Swap(WORD_BITS * (arity as u32 + 1)));
    meter.ands(n * truncation_bound);
    meter.reductions(1, Reduction::Count { rows: n });
    meter.bytes(n * (arity + 1) * 4);
    let report = CostReport {
        rounds: 1,
        ..meter.report()
    };
    (model.simulate(&report), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ViewDefinition;
    use incshrink_oblivious::{oblivious_count, Predicate};
    use incshrink_secretshare::arrays::SharedArrayPair;
    use incshrink_secretshare::tuple::PlainRecord;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `real` rows `(i, 0, 0, 0)` followed by `dummy` dummies, shared.
    fn array_with(real: usize, dummy: usize) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(3);
        let mut records: Vec<PlainRecord> = (0..real)
            .map(|i| PlainRecord::real(vec![i as u32, 0, 0, 0]))
            .collect();
        records.extend((0..dummy).map(|_| PlainRecord::dummy(4)));
        SharedArrayPair::share_records(&records, &mut rng)
    }

    fn view_with(real: usize, dummy: usize) -> MaterializedView {
        let mut v = MaterializedView::new();
        v.append(array_with(real, dummy));
        v
    }

    #[test]
    fn view_query_counts_real_entries_and_charges_scan() {
        let model = CostModel::default();
        let view = view_with(7, 13);
        let res = Query::count().execute(&view, &model);
        assert_eq!(res.value, QueryValue::Scalar(7));
        assert_eq!(res.report.secure_compares, 20);
        // The scan prices its share traffic: 20 arity-4 entries at (4+1)·4 bytes
        // each, plus the 8-byte revealed count (regression for the flat-8 pricing).
        assert_eq!(res.report.bytes_communicated, 20 * 20 + 8);
        assert!(res.qet.as_secs_f64() > 0.0);
        assert_eq!(res.qet, model.simulate(&res.report));

        // More dummies make the same query slower (Observation 4).
        let padded = view_with(7, 200);
        let slower = Query::count().execute(&padded, &model);
        assert_eq!(slower.value, QueryValue::Scalar(7));
        assert!(slower.qet > res.qet);
    }

    #[test]
    fn legacy_count_and_typed_engine_agree_bit_for_bit() {
        // The record-major counting operator the counting query used to run, and
        // `Query::count()` over the column-major view built from the same shares.
        let model = CostModel::default();
        for (real, dummy) in [(0, 0), (7, 13), (100, 3)] {
            let view = view_with(real, dummy);
            let array = array_with(real, dummy);
            let mut meter = CostMeter::new();
            let legacy = oblivious_count(&array, &Predicate::all("count"), &mut meter);
            let typed = Query::count().execute(&view, &model);
            assert_eq!(typed.value, QueryValue::Scalar(legacy));
            assert_eq!(typed.report, meter.take());
            assert_eq!(typed.qet, model.simulate(&typed.report));
        }
    }

    #[test]
    fn filtered_queries_cost_exactly_what_unfiltered_ones_do() {
        // The plan fuses selection into the aggregate's predicate slot, so the cost —
        // and hence the leakage — is independent of the filter and its selectivity.
        let model = CostModel::default();
        let view = view_with(9, 6);
        let plain = Query::count().execute(&view, &model);
        let filtered = Query::count()
            .filter(FilterExpr::le(0, 3))
            .execute(&view, &model);
        assert_eq!(plain.report, filtered.report);
        assert_eq!(plain.qet, filtered.qet);
        assert_eq!(filtered.value, QueryValue::Scalar(4), "ids 0..=3 pass");

        let sum = Query::sum(0)
            .filter(FilterExpr::le(0, 3))
            .execute(&view, &model);
        assert_eq!(sum.value, QueryValue::Scalar(6), "ids 0 + 1 + 2 + 3");
    }

    /// A view at widths `(6, 9, 6, 12)` holding `rows`, `(real, value)` each.
    fn view_at_widths(rows: &[(bool, u32)], seed: u64) -> MaterializedView {
        let definition = ViewDefinition {
            left_key: 0,
            left_time: 1,
            right_key: 0,
            right_time: 1,
            window: 10,
            left_bits: vec![6, 9],
            right_bits: vec![6, 12],
        };
        let records: Vec<PlainRecord> = rows
            .iter()
            .map(|&(real, v)| {
                let fields = vec![v % 64, v % 512, v % 64, v % 4096];
                if real {
                    PlainRecord::real(fields)
                } else {
                    PlainRecord::dummy(4)
                }
            })
            .collect();
        let mut view = MaterializedView::for_definition(&definition);
        view.append(SharedArrayPair::share_records(
            &records,
            &mut StdRng::seed_from_u64(seed),
        ));
        view
    }

    proptest! {
        /// Extends `filtered_queries_cost_exactly_what_unfiltered_ones_do` past
        /// counts: two views of one length, arity and widths but different data
        /// and selectivity, queried with different filter constants, charge equal
        /// reports for a count, a sum of every column and a group-count.
        #[test]
        fn prop_price_depends_only_on_public_shape(
            a in proptest::collection::vec((any::<bool>(), any::<u32>()), 0..120),
            b_seed in any::<u64>(),
            constants in (any::<u32>(), any::<u32>()),
            field in 0usize..5,
            domain in 0usize..9,
        ) {
            let mut draw = StdRng::seed_from_u64(b_seed);
            let b: Vec<(bool, u32)> = a.iter().map(|_| (draw.gen(), draw.gen())).collect();
            let (view_a, view_b) = (view_at_widths(&a, 1), view_at_widths(&b, 2));
            let model = CostModel::default();
            let domain: Vec<u32> = (0..domain as u32).collect();
            let shapes = [
                Query::count(),
                Query::sum(field),
                Query::group_count(field, domain),
            ];
            for query in shapes {
                let on_a = query.clone().filter(FilterExpr::le(1, constants.0));
                let on_b = query.clone().filter(FilterExpr::ge(3, constants.1));
                let price = query.execute(&view_a, &model).report;
                prop_assert_eq!(on_a.execute(&view_a, &model).report, price);
                prop_assert_eq!(on_b.execute(&view_b, &model).report, price);
            }
        }
    }

    #[test]
    fn group_count_answers_over_public_domain() {
        let model = CostModel::default();
        let view = view_with(5, 2);
        let q = Query::group_count(0, vec![0, 2, 4, 9]);
        let outcome = q.execute(&view, &model);
        assert_eq!(outcome.value, QueryValue::Vector(vec![1, 1, 1, 0]));
        assert_eq!(outcome.value.width(), q.output_width());
        // Cost scales with the domain width, not the data.
        let wide = Query::group_count(0, (0..32).collect()).execute(&view, &model);
        assert!(wide.report.secure_compares > outcome.report.secure_compares);
    }

    #[test]
    fn plan_explains_the_fused_scan() {
        let q = Query::sum(3).filter(FilterExpr::le(1, 30));
        assert_eq!(q.explain(), "scan[filter: f1 <= 30] -> oblivious_sum(f3)");
        assert_eq!(q.label(), "sum(f3)|f1 <= 30");
        assert_eq!(
            Query::count().explain(),
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
        let scan = Query::count().execute(&view, &model);
        let (nm_qet, report) = non_materialized_query_cost(50_000, 10_000, 2, 1, &model);
        assert!(nm_qet.as_secs_f64() > scan.qet.as_secs_f64() * 100.0);
        // The pinned price: the padded Batcher bound's compares and record-wide
        // swaps, a compare and an AND per scanned slot, and the view scan's own
        // count over the records' bits, so the two accumulate alike.
        let (n, comparators) = (
            60_000,
            incshrink_oblivious::batcher_padded_pair_count(60_000),
        );
        let count = Reduction::Count { rows: n };
        let want = (comparators + n) * Kernel::Lt(WORD_BITS).ands()
            + comparators * Kernel::Swap(3 * WORD_BITS).ands()
            + n
            + count.ands();
        assert_eq!(report.secure_ands, want);
        assert_eq!(report.secure_adds, n);
        let view_count = Reduction::Count { rows: 200 }.ands();
        let view_rows = 200 * (Kernel::Lt(WORD_BITS).ands() + 1);
        assert_eq!(scan.report.secure_ands, view_rows + view_count);
        // Every comparator swaps a whole record: the swaps' gates outweigh the
        // compares'.
        let compares = Kernel::Lt(WORD_BITS).ands() * report.secure_compares;
        assert!(report.secure_ands > 2 * compares);
    }

    #[test]
    fn batcher_count_growth() {
        // With no truncated scan, the NM join's compares are exactly the padded
        // Batcher network over the union.
        let model = CostModel::default();
        let compares = |n: u64| {
            non_materialized_query_cost(n, 0, 2, 0, &model)
                .1
                .secure_compares
        };
        assert_eq!(compares(0), 0);
        assert_eq!(compares(1), 0);
        assert!(compares(2) >= 1);
        let small = compares(1_000);
        let large = compares(1_000_000);
        assert!(large > small * 900, "n log^2 n growth");
        // The padded count is an upper bound on the pruned arbitrary-n network.
        for n in [3u64, 5, 17, 33, 100] {
            assert!(incshrink_oblivious::batcher_pair_count(n as usize) <= compares(n));
        }
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
        let res = Query::count().execute(&view, &model);
        assert_eq!(res.value, QueryValue::Scalar(0));
        assert_eq!(res.report.secure_compares, 0);
        let sum = Query::sum(2).execute(&view, &model);
        assert_eq!(sum.value, QueryValue::Scalar(0));
    }
}
