//! Scatter-gather execution of typed analyst queries across shard views.
//!
//! Each shard answers the query with the usual fused oblivious scan of its own
//! (smaller) materialized view; the cluster then obliviously aggregates the `S`
//! secret-shared partial answers into the final one with a tree of secure additions —
//! element-wise for vector (group-by) answers, whose per-slot adds share the same
//! tree rounds. Because the shard scans run on independent server pairs *in
//! parallel*, the cluster query execution time is the **slowest shard's scan plus
//! the aggregation rounds** — which is how sharding turns the view scan's linear
//! cost into roughly `|V|/S`.
//!
//! [`ScatterGatherExecutor::merge`] combines the per-shard outcomes — each shard's
//! `Query::execute` over its view, or the NM baseline's per-shard join
//! recomputation — into the cluster outcome.

use incshrink::query::{Query, QueryOutcome, ShardBreakdown};
use incshrink_mpc::circuit::{Kernel, WORD_BITS};
use incshrink_mpc::cost::{CostMeter, CostModel, CostReport, SimDuration};

/// Obliviously aggregates the shards' partial answers to a typed analyst query.
#[derive(Debug, Clone, Copy)]
pub struct ScatterGatherExecutor {
    cost_model: CostModel,
}

impl ScatterGatherExecutor {
    /// An executor pricing the aggregation with `cost_model`.
    #[must_use]
    pub fn new(cost_model: CostModel) -> Self {
        Self { cost_model }
    }

    /// Oblivious-operation cost of combining `shards` secret-shared partial answers
    /// of `width` slots each: a binary tree of secure additions (`S − 1` adds per
    /// slot over `⌈log₂ S⌉` communication rounds) followed by one reveal round
    /// towards the analyst. Every tree level adds all `width` slots element-wise
    /// *within* its round, so the adds and bytes scale with the width while the
    /// round count stays `⌈log₂ S⌉ + 1`. A single shard needs no cross-shard
    /// combine at all, so its report is empty — which is what makes a 1-shard
    /// cluster query cost exactly the single-pair cost.
    #[must_use]
    pub fn aggregation_cost_for_width(shards: usize, width: usize) -> CostReport {
        if shards <= 1 || width == 0 {
            return CostReport::default();
        }
        let tree_rounds = u64::from(usize::BITS - (shards - 1).leading_zeros());
        let mut meter = CostMeter::new();
        meter.kernels(((shards - 1) * width) as u64, Kernel::Add(WORD_BITS));
        meter.bytes(8 * (shards * width) as u64);
        CostReport {
            rounds: tree_rounds + 1,
            ..meter.report()
        }
    }

    /// Combine per-shard query outcomes (however they were produced — view scans,
    /// or per-shard join recomputations in the NM baseline) into the cluster
    /// outcome: answers accumulate through the secure-add tree, the QET is the
    /// slowest shard plus the aggregation, the report sums every gate evaluated
    /// anywhere, and [`QueryOutcome::shards`] carries that decomposition.
    ///
    /// # Panics
    /// Panics when `partials` is empty or the shard answers disagree in shape
    /// (mixing queries across shards is always a driver bug).
    #[must_use]
    pub fn merge(&self, query: &Query, partials: &[QueryOutcome]) -> QueryOutcome {
        assert!(
            !partials.is_empty(),
            "merge needs at least one shard outcome"
        );
        let mut merge_span = incshrink_telemetry::span!("query.merge");
        let mut value = partials[0].value.clone();
        for partial in &partials[1..] {
            value.accumulate(&partial.value);
        }
        let aggregation = Self::aggregation_cost_for_width(partials.len(), query.output_width());
        let aggregation_qet = self.cost_model.simulate(&aggregation);
        let max_shard_qet = partials
            .iter()
            .map(|p| p.qet)
            .max()
            .unwrap_or(SimDuration::ZERO);
        let report = partials.iter().map(|p| p.report).sum::<CostReport>() + aggregation;
        merge_span.record_sim_secs(aggregation_qet.as_secs_f64());
        merge_span.record_cost(aggregation.into());
        QueryOutcome {
            value,
            qet: max_shard_qet + aggregation_qet,
            report,
            shards: Some(ShardBreakdown {
                max_shard_qet,
                aggregation_qet,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink::query::QueryValue;
    use incshrink::MaterializedView;
    use incshrink_secretshare::arrays::SharedArrayPair;
    use incshrink_secretshare::tuple::PlainRecord;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dur(secs: f64) -> SimDuration {
        SimDuration::from_secs_f64(secs)
    }

    fn scalar_outcome(answer: u64, qet: SimDuration) -> QueryOutcome {
        QueryOutcome {
            value: QueryValue::Scalar(answer),
            qet,
            report: CostReport::default(),
            shards: None,
        }
    }

    fn make_view(rng: &mut StdRng, real: usize, dummy: usize) -> MaterializedView {
        let mut records: Vec<PlainRecord> = (0..real)
            .map(|i| PlainRecord::real(vec![i as u32, 0]))
            .collect();
        records.extend((0..dummy).map(|_| PlainRecord::dummy(2)));
        let mut v = MaterializedView::new();
        v.append(SharedArrayPair::share_records(&records, rng));
        v
    }

    /// Scan every view with `query` and merge the shard outcomes.
    fn scatter_gather(views: &[&MaterializedView], query: &Query) -> QueryOutcome {
        let model = CostModel::default();
        let partials: Vec<QueryOutcome> = views.iter().map(|v| query.execute(v, &model)).collect();
        ScatterGatherExecutor::new(model).merge(query, &partials)
    }

    #[test]
    fn aggregation_cost_is_free_for_one_shard_and_logarithmic_after() {
        let scalar = |shards| ScatterGatherExecutor::aggregation_cost_for_width(shards, 1);
        assert!(scalar(0).is_empty());
        assert!(scalar(1).is_empty());
        let two = scalar(2);
        assert_eq!(two.secure_adds, 1);
        assert_eq!(two.rounds, 2, "one tree level + reveal");
        let eight = scalar(8);
        assert_eq!(eight.secure_adds, 7);
        assert_eq!(eight.rounds, 4, "three tree levels + reveal");
        assert_eq!(scalar(5).rounds, 4);
    }

    #[test]
    fn vector_aggregation_scales_adds_with_width_but_not_rounds() {
        let wide = ScatterGatherExecutor::aggregation_cost_for_width(4, 12);
        assert_eq!(wide.secure_adds, 3 * 12, "element-wise adds per tree edge");
        assert_eq!(wide.bytes_communicated, 8 * 4 * 12);
        assert_eq!(
            wide.rounds,
            ScatterGatherExecutor::aggregation_cost_for_width(4, 1).rounds,
            "per-slot adds share the tree rounds"
        );
        assert!(ScatterGatherExecutor::aggregation_cost_for_width(4, 0).is_empty());
        assert!(ScatterGatherExecutor::aggregation_cost_for_width(1, 12).is_empty());
    }

    #[test]
    fn merge_sums_answers_and_takes_slowest_shard() {
        let exec = ScatterGatherExecutor::new(CostModel::default());
        let partials = [
            scalar_outcome(10, dur(0.2)),
            scalar_outcome(5, dur(0.7)),
            scalar_outcome(1, dur(0.1)),
        ];
        let res = exec.merge(&Query::count(), &partials);
        assert_eq!(res.value, QueryValue::Scalar(16));
        let shards = res.shards.expect("cluster breakdown");
        assert_eq!(shards.max_shard_qet, dur(0.7));
        assert!(shards.aggregation_qet.as_secs_f64() > 0.0);
        assert_eq!(res.qet, shards.max_shard_qet + shards.aggregation_qet);
    }

    #[test]
    fn single_shard_merge_matches_local_cost_exactly() {
        let exec = ScatterGatherExecutor::new(CostModel::default());
        let res = exec.merge(&Query::count(), &[scalar_outcome(42, dur(0.3))]);
        assert_eq!(res.value, QueryValue::Scalar(42));
        assert_eq!(res.qet, dur(0.3), "no aggregation overhead for one shard");
        assert_eq!(res.shards.unwrap().aggregation_qet, SimDuration::ZERO);
    }

    #[test]
    fn execute_scans_each_view() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = make_view(&mut rng, 7, 3);
        let b = make_view(&mut rng, 2, 100);
        let res = scatter_gather(&[&a, &b], &Query::count());
        assert_eq!(res.value, QueryValue::Scalar(9));
        // Shard b carries far more padding, so it is the slowest shard.
        let model = CostModel::default();
        let (scan_a, scan_b) = (
            Query::count().execute(&a, &model).qet,
            Query::count().execute(&b, &model).qet,
        );
        assert!(scan_b > scan_a);
        assert_eq!(res.shards.expect("cluster breakdown").max_shard_qet, scan_b);
    }

    #[test]
    fn group_count_gathers_element_wise() {
        let mut rng = StdRng::seed_from_u64(2);
        // Field-0 values 0..7 on shard a, 0..3 on shard b.
        let a = make_view(&mut rng, 7, 1);
        let b = make_view(&mut rng, 3, 5);
        let q = Query::group_count(0, vec![0, 1, 2, 5, 9]);
        let res = scatter_gather(&[&a, &b], &q);
        // Values 0, 1, 2 exist on both shards; 5 only on shard a; 9 nowhere.
        assert_eq!(res.value, QueryValue::Vector(vec![2, 2, 2, 1, 0]));
        let single = q.execute(&a, &CostModel::default());
        assert!(
            res.report.secure_adds > single.report.secure_adds,
            "merge adds the element-wise tree on top of the shard scans"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard outcome")]
    fn merge_rejects_an_empty_scatter() {
        let _ = ScatterGatherExecutor::new(CostModel::default()).merge(&Query::count(), &[]);
    }
}
