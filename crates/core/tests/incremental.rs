//! Incremental-Transform invariants: the mirror-driven, persistently indexed
//! invocation must be indistinguishable from Algorithm 4's share-array operator
//! over the padded share rows of the store's public active window, its cost must be
//! a function of padded sizes only at every step and never above paper-literal
//! Algorithm 4's over the same window.

use incshrink::prelude::*;
use incshrink::transform::{PublicRelation, TransformProtocol, CARDINALITY_SHARE};
use incshrink::ViewDefinition;
use incshrink_mpc::cost::{CostMeter, CostModel, CostReport};
use incshrink_mpc::{PartyContext, PartyExec, PartyMode};
use incshrink_oblivious::{
    batcher_pair_count, nested_loop_join_cost, public_inner_join_cost, truncated_nested_loop_join,
    JoinSpec,
};
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::PlainRecord;
use incshrink_storage::{LogicalUpdate, OutsourcedStore, Relation, UploadBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn view_def() -> ViewDefinition {
    ViewDefinition {
        left_key: 0,
        left_time: 1,
        right_key: 0,
        right_time: 1,
        window: 10,
    }
}

fn batch(relation: Relation, time: u64, rows: &[(u64, u32, u32)], padded: usize) -> UploadBatch {
    let mut rng = StdRng::seed_from_u64(time ^ 0xBA7C4);
    let updates: Vec<LogicalUpdate> = rows
        .iter()
        .map(|&(id, key, t)| LogicalUpdate {
            id,
            relation,
            arrival: time,
            fields: vec![key, t],
        })
        .collect();
    let refs: Vec<&LogicalUpdate> = updates.iter().collect();
    UploadBatch::from_updates(relation, time, &refs, 2, padded, &mut rng)
}

/// One upload step's padded batches: the left one and, for a private right
/// relation, the right one.
type Step = (UploadBatch, Option<UploadBatch>);

/// Build a random step sequence from proptest-drawn row keys. Record ids are unique
/// across the run; times advance with the step so the join window stays meaningful.
fn build_steps(left_keys: &[Vec<u32>], right_keys: &[Vec<u32>]) -> Vec<Step> {
    let mut next_id = 1u64;
    let steps = left_keys.len();
    (0..steps)
        .map(|i| {
            let t = i as u64 + 1;
            let lrows: Vec<(u64, u32, u32)> = left_keys[i]
                .iter()
                .map(|&k| {
                    let id = next_id;
                    next_id += 1;
                    (id, k, t as u32)
                })
                .collect();
            let rrows: Vec<(u64, u32, u32)> = right_keys[i]
                .iter()
                .map(|&k| {
                    let id = next_id;
                    next_id += 1;
                    (id, k, t as u32 + 1)
                })
                .collect();
            (
                batch(Relation::Left, t, &lrows, 4),
                Some(batch(Relation::Right, t, &rrows, 4)),
            )
        })
        .collect()
}

/// Algorithm 1 written from scratch over the share-array operators and the store:
/// every invocation runs [`truncated_nested_loop_join`] (Algorithm 4) per
/// direction over the *padded share rows* of the store's active
/// window (dummies included, blocks in arrival order) — or, for a public right
/// relation, over a sharing of the rows the step number fixes, charging
/// [`public_inner_join_cost`] in place of the operator's network — then hands the
/// step's batches to the store. It keeps no budgets and no active set: the window
/// is the retirement rule. What `TransformProtocol::invoke` must equal, step for
/// step.
struct ReferenceTransform {
    view: ViewDefinition,
    omega: u64,
    store: OutsourcedStore,
    public: Option<Vec<Vec<u32>>>,
    initialized: bool,
    losses: u64,
    /// Real records per side that took part in the latest step or arrived in it —
    /// what `TransformProtocol`'s mirror holds until the next step's charges.
    active: (usize, usize),
}

impl ReferenceTransform {
    fn new(view: ViewDefinition, omega: u64, budget: u64, public: Option<Vec<Vec<u32>>>) -> Self {
        Self {
            view,
            omega,
            store: OutsourcedStore::new(budget / omega - 1),
            public,
            initialized: false,
            losses: 0,
            active: (0, 0),
        }
    }

    /// One relation's window as the operator's inner input: its padded batches,
    /// concatenated in arrival order.
    fn window(&self, relation: Relation) -> SharedArrayPair {
        let mut rows = SharedArrayPair::with_arity(2);
        for batch in self.store.relation(relation).window() {
            rows.extend(batch.records.clone()).expect("uniform arity");
        }
        rows
    }

    fn real_rows(rows: &SharedArrayPair) -> Vec<Vec<u32>> {
        let real = rows.recover_all().into_iter().filter(|row| row.is_view);
        real.map(|row| row.fields).collect()
    }

    /// Quadratic count of the pairs that exist before truncation.
    fn pairs(&self, left: &[Vec<u32>], right: &[Vec<u32>]) -> u64 {
        let v = &self.view;
        let matches = |l: &Vec<u32>, r: &Vec<u32>| {
            let (lt, rt) = (l[v.left_time], r[v.right_time]);
            l[v.left_key] == r[v.right_key] && rt >= lt && rt - lt <= v.window
        };
        left.iter()
            .map(|l| right.iter().filter(|r| matches(l, r)).count() as u64)
            .sum()
    }

    fn invoke(
        &mut self,
        ctx: &mut PartyContext,
        (delta_left, delta_right): &Step,
    ) -> (Vec<PlainRecord>, usize, CostReport) {
        if !self.initialized {
            ctx.reshare_and_store(CARDINALITY_SHARE, 0);
            self.initialized = true;
        }
        let inner_right = match &self.public {
            Some(public) => {
                // The public rows timed [t, t + window], in relation order.
                let t = delta_left.time as u32;
                let in_range = |r: &&Vec<u32>| (t..=t + self.view.window).contains(&r[1]);
                let rows: Vec<PlainRecord> = public
                    .iter()
                    .filter(in_range)
                    .map(|row| PlainRecord::real(row.clone()))
                    .collect();
                let mut share_rng = StdRng::seed_from_u64(0xF5E5 ^ ctx.time_step());
                let mut shared = SharedArrayPair::with_arity(2);
                shared
                    .extend(SharedArrayPair::share_records(&rows, &mut share_rng))
                    .expect("uniform arity");
                shared
            }
            None => self.window(Relation::Right),
        };
        let inner_left = self.window(Relation::Left);

        let mut rng = StdRng::seed_from_u64(0xA11CE ^ ctx.time_step());
        let bound = self.omega as usize;
        // A public inner side selects with the one-hot circuit: the operator's
        // output, priced by `public_inner_join_cost` instead of its network.
        let public_inner = self.public.is_some();
        let mut join = |outer: &SharedArrayPair,
                        inner: &SharedArrayPair,
                        spec: &JoinSpec<'_>,
                        public_inner: bool,
                        ctx: &mut PartyContext| {
            if !public_inner {
                return truncated_nested_loop_join(
                    outer,
                    inner,
                    spec,
                    bound,
                    ctx.meter(),
                    &mut rng,
                );
            }
            let mut network = CostMeter::new();
            let joined =
                truncated_nested_loop_join(outer, inner, spec, bound, &mut network, &mut rng);
            let arity = |side: &SharedArrayPair| side.arity().unwrap_or(0);
            let (o, i) = (outer.len(), inner.len());
            let cost = public_inner_join_cost(o, i, bound, arity(outer), arity(inner));
            ctx.meter().record(cost);
            joined
        };
        let outer = &delta_left.records;
        let mut potential = self.pairs(&Self::real_rows(outer), &Self::real_rows(&inner_right));
        let mut delta = join(
            outer,
            &inner_right,
            &self.view.join_spec(),
            public_inner,
            ctx,
        );
        if let Some(batch) = delta_right {
            let outer = &batch.records;
            potential += self.pairs(&Self::real_rows(&inner_left), &Self::real_rows(outer));
            let joined = join(
                outer,
                &inner_left,
                &self.view.join_spec_reversed(),
                false,
                ctx,
            );
            delta.extend(joined).expect("uniform arity");
        }

        let new_entries = delta.true_cardinality();
        self.losses += potential.saturating_sub(new_entries as u64);
        ctx.meter().ands(delta.len() as u64);
        let counter = ctx.recover_named(CARDINALITY_SHARE).unwrap_or(0);
        ctx.reshare_and_store(CARDINALITY_SHARE, counter + new_entries as u32);

        let arrived_right = delta_right.as_ref().map_or(0, UploadBatch::real_count);
        self.active = (
            inner_left.true_cardinality() + delta_left.real_count(),
            self.window(Relation::Right).true_cardinality() + arrived_right,
        );
        self.store.ingest(delta_left.clone());
        if let Some(batch) = delta_right {
            self.store.ingest(batch.clone());
        }
        let (report, _) = ctx.charge();
        ctx.advance_time_step();
        (delta.recover_all(), new_entries, report)
    }
}

proptest! {
    /// Reference lockstep: over random private-right and public-right streams —
    /// including steps with no real left record and ω > 1 with several outer rows
    /// contending for one inner row, across budgets from "retired on arrival" to
    /// several steps — every invocation's ΔV (recovered rows in order, length,
    /// `new_entries`), its `CostReport`, the truncation losses and the active
    /// counts equal Algorithm 4's share-array operator over the padded share
    /// rows of the store's window. Nothing else is charged: there is no gap term.
    #[test]
    fn prop_transform_equals_the_share_array_operator_in_lockstep(
        left_keys in proptest::collection::vec(proptest::collection::vec(0u32..3, 0..4), 2..9),
        right_keys in proptest::collection::vec(proptest::collection::vec(0u32..3, 0..4), 2..9),
        public_rows in proptest::collection::vec((0u32..3, 0u32..24), 0..80),
        omega in 1u64..4,
        extra_budget in 0u64..9,
        public_right: bool,
        seed: u64,
    ) {
        let steps_len = left_keys.len().min(right_keys.len());
        let mut steps = build_steps(&left_keys[..steps_len], &right_keys[..steps_len]);
        let public: Option<Vec<Vec<u32>>> = public_right
            .then(|| public_rows.iter().map(|&(key, time)| vec![key, time]).collect());
        if public.is_some() {
            for (_, delta_right) in &mut steps {
                *delta_right = None;
            }
        }
        let budget = omega + extra_budget;
        let mut transform = TransformProtocol::new(
            view_def(),
            omega,
            budget,
            public
                .as_ref()
                .map(|rows| PublicRelation::from_rows(rows.iter().map(Vec::as_slice))),
        );
        let mut reference = ReferenceTransform::new(view_def(), omega, budget, public);
        let mut ctx = PartyContext::new(PartyMode::InProcess, seed, CostModel::default());
        let mut ctx_ref = PartyContext::new(PartyMode::InProcess, seed, CostModel::default());
        for step in &steps {
            let out = transform.invoke(&mut ctx, &step.0, step.1.as_ref());
            let (delta, new_entries, report) = reference.invoke(&mut ctx_ref, step);
            prop_assert_eq!(out.delta.recover_all(), delta);
            prop_assert_eq!(out.new_entries, new_entries);
            prop_assert_eq!(out.report, report);
            prop_assert_eq!(transform.truncation_losses(), reference.losses);
            prop_assert_eq!(transform.active_counts(), reference.active);
            let store = &reference.store;
            prop_assert_eq!(
                transform.window_rows(),
                (
                    store.relation(Relation::Left).window_rows(),
                    store.relation(Relation::Right).window_rows(),
                )
            );
        }
        prop_assert_eq!(
            ctx.recover_named(CARDINALITY_SHARE),
            ctx_ref.recover_named(CARDINALITY_SHARE)
        );
    }

    /// Transform's modeled cost is a function of padded sizes only, at every step:
    /// two upload streams of equal padded batch sizes — each all-dummy, mixed or
    /// all-real, chosen independently — get equal `CostReport`s, window lengths and
    /// ΔV sizes from the first invocation through a window's fill, slide and
    /// turnover (≥ 2·W + 2 steps), private-right and public-right. (The first
    /// invocation alone cannot tell: nothing is active yet.)
    #[test]
    fn prop_transform_cost_is_a_function_of_padded_sizes_at_every_step(
        fills in (0u8..3, 0u8..3),
        keys in proptest::collection::vec((0u32..3, 0u32..3, 0usize..4, 0usize..4), 12),
        public_rows in proptest::collection::vec((0u32..3, 0u32..24), 0..40),
        omega in 1u64..3,
        window_steps in 0u64..4,
        extra_steps in 0usize..3,
        public_right: bool,
        seed: u64,
    ) {
        const PADDED: usize = 3;
        let budget = omega * (window_steps + 1);
        let steps = 2 * window_steps as usize + 2 + extra_steps;
        // One stream: per step, `fill` decides how many of the PADDED rows are real.
        let stream = |fill: u8, id_base: u64| -> Vec<Step> {
            (0..steps)
                .map(|i| {
                    let t = i as u64 + 1;
                    let (lkey, rkey, lmixed, rmixed) = keys[i];
                    let reals = |mixed: usize| match fill {
                        0 => 0,
                        1 => mixed.min(PADDED),
                        _ => PADDED,
                    };
                    let rows = |n: usize, key: u32, side: u64, time: u32| -> Vec<(u64, u32, u32)> {
                        (0..n as u64)
                            .map(|j| (id_base + t * 100 + side * 10 + j, (key + j as u32) % 3, time))
                            .collect()
                    };
                    let lrows = rows(reals(lmixed), lkey, 0, t as u32);
                    let rrows = rows(reals(rmixed), rkey, 1, t as u32 + 1);
                    (
                        batch(Relation::Left, t, &lrows, PADDED),
                        (!public_right).then(|| batch(Relation::Right, t, &rrows, PADDED)),
                    )
                })
                .collect()
        };
        let run = |steps: &[Step]| -> Vec<(CostReport, usize, usize, (usize, usize))> {
            let public = public_right.then(|| {
                let rows: Vec<[u32; 2]> = public_rows.iter().map(|&(k, t)| [k, t]).collect();
                PublicRelation::from_rows(rows.iter().map(|row| row.as_slice()))
            });
            let mut transform = TransformProtocol::new(view_def(), omega, budget, public);
            let mut ctx = PartyContext::new(PartyMode::InProcess, seed, CostModel::default());
            steps
                .iter()
                .map(|(delta_left, delta_right)| {
                    let out = transform.invoke(&mut ctx, delta_left, delta_right.as_ref());
                    (out.report, out.window_rows, out.delta.len(), transform.window_rows())
                })
                .collect()
        };
        let (a, b) = (run(&stream(fills.0, 0)), run(&stream(fills.1, 1_000_000)));
        prop_assert_eq!(&a, &b);
        // The window is full from step W + 1 on and never longer than W batches.
        let full = window_steps as usize * PADDED;
        for (i, (_, _, _, window)) in a.iter().enumerate() {
            let expected = full.min((i + 1) * PADDED);
            let right = if public_right { 0 } else { expected };
            prop_assert_eq!(*window, (expected, right), "after step {}", i + 1);
        }
    }
}

fn tpcds(steps: u64) -> Dataset {
    TpcDsGenerator::new(WorkloadParams {
        steps,
        view_entries_per_step: 2.7,
        seed: 77,
    })
    .generate()
}

fn cpdb(steps: u64) -> Dataset {
    CpdbGenerator::new(WorkloadParams {
        steps,
        view_entries_per_step: 9.8,
        seed: 78,
    })
    .generate()
}

/// Paper-literal Algorithm 4 at one join shape: the `|outer|·|inner|` compare
/// matrix, a full Batcher sort of every per-outer buffer of `|inner|` slots with
/// record-wide swaps, and the `ω·|outer|` output write. Like the selection it is
/// compared with, it is part of the step's one circuit and charges no round of its own.
fn algorithm_4(outer: usize, inner: usize, omega: usize, out_arity: usize) -> CostReport {
    let (o, i, width) = (outer as u64, inner as u64, out_arity as u64 + 1);
    let sorts = o * batcher_pair_count(inner);
    CostReport {
        secure_compares: o * i + sorts,
        secure_swaps: sorts * width,
        secure_ands: 2 * o * i,
        bytes_communicated: o * omega as u64 * width * 4,
        ..CostReport::default()
    }
}

/// End to end, on both workloads: every invocation's modeled Transform seconds are
/// at most those of paper-literal Algorithm 4 over the same window — the
/// invocation's report with each join's price ([`nested_loop_join_cost`], or
/// [`public_inner_join_cost`] against CPDB's Award rows) replaced by
/// [`algorithm_4`] at its public shape — so the top-ω selection, network or
/// one-hot circuit, can only lower `modeled_mpc_s`, and both workloads' windows
/// are where it does. The shapes
/// come from the public sizes alone: each delta against the other side's window
/// (an `OutsourcedStore` fed the same batches), or CPDB's Award rows the step fixes.
#[test]
fn transform_never_costs_more_than_algorithm_4() {
    let runs = [
        (
            tpcds(120),
            IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 }),
        ),
        (
            cpdb(60),
            IncShrinkConfig::cpdb_default(UpdateStrategy::DpTimer { interval: 3 }),
        ),
    ];
    for (dataset, config) in runs {
        let kind = dataset.kind;
        let view = ViewDefinition::for_dataset(&dataset);
        let public = dataset.right_is_public.then(|| dataset.right.updates());
        let public_arity = public.and_then(|rows| Some(rows.first()?.fields.len()));
        let model = CostModel::default();
        let omega = config.truncation_bound as usize;
        let mut pipeline = ShardPipeline::new(dataset.clone(), config, 0x7A5F, model);
        let mut store =
            OutsourcedStore::new(config.contribution_budget / config.truncation_bound - 1);
        let mut cheaper_steps = 0;
        for t in 1..=dataset.params.steps {
            let uploads = pipeline.upload_batches(t);
            let arity = |batch: &UploadBatch| batch.records.arity();
            let right_arity = uploads.right.as_ref().and_then(arity).or(public_arity);
            let arities = (arity(&uploads.left).unwrap_or(0), right_arity.unwrap_or(0));
            let out_arity = arities.0 + arities.1;
            let inner_of_left = match public {
                Some(rows) => {
                    let steps = t as u32..=t as u32 + view.window;
                    rows.iter()
                        .filter(|row| steps.contains(&row.fields[view.right_time]))
                        .count()
                }
                None => store.relation(Relation::Right).window_rows(),
            };
            let left_shape = (uploads.left.len(), inner_of_left, arities);
            let mut shapes = vec![(left_shape, public.is_some())];
            if let Some(right) = &uploads.right {
                let inner = store.relation(Relation::Left).window_rows();
                shapes.push(((right.len(), inner, (arities.1, arities.0)), false));
                store.ingest(right.clone());
            }
            store.ingest(uploads.left.clone());

            let charged = pipeline.advance_with_uploads(t, uploads).transform_report;
            let charged = charged.expect("the timer transforms every step");
            let joins: CostReport = shapes
                .iter()
                .map(|&((outer, inner, (oa, ia)), public_inner)| {
                    let price = if public_inner {
                        public_inner_join_cost
                    } else {
                        nested_loop_join_cost
                    };
                    price(outer, inner, omega, oa, ia)
                })
                .sum();
            let rest = charged.saturating_sub(joins);
            assert_eq!(
                rest + joins,
                charged,
                "{kind} t={t}: the joins are in the report"
            );
            let paper = rest
                + shapes
                    .iter()
                    .map(|&((outer, inner, _), _)| algorithm_4(outer, inner, omega, out_arity))
                    .sum();
            let (charged, paper) = (model.simulate(&charged), model.simulate(&paper));
            assert!(
                charged <= paper,
                "{kind} t={t}: charged {charged:?} above Algorithm 4's {paper:?}"
            );
            cheaper_steps += usize::from(charged < paper);
        }
        assert!(cheaper_steps > 0, "{kind}: never cheaper than Algorithm 4");
    }
}

/// Summed Transform `CostReport` and truncation losses of two default-configuration
/// runs: "the simulated trajectory is equal to the digit" as a `cargo test`. The
/// losses date from before Transform's matching moved off the share arrays; the
/// gate counts were re-recorded when the join input became the public active
/// window, TPC-ds's report again when its joins began to be planned, and both
/// when the truncated joins' "sort, then keep the first ω" became a top-ω
/// selection network (both windows now charge the nested loop; TPC-ds's ANDs, bytes
/// and rounds are those of the nested loop again), CPDB's compares and swaps
/// when that network dropped the comparators feeding no kept slot (ω = 1 leaves
/// nothing to drop), and both swap counts when the network came to carry only the
/// inner columns and the match flag, with CPDB's compares as its leaves took the
/// cheaper of `ω` and `ω.next_power_of_two()` wires (ANDs, bytes, rounds and
/// losses kept their values), and all three gate counts of both when that network,
/// keyed by the match flag alone, came to be priced as a one-bit circuit: its
/// comparators moved from the compares to the ANDs, one each, and every swap lost
/// the flag's word (bytes, rounds and losses kept their values), and CPDB's ANDs
/// and swaps when its joins against the public Award rows came to select with the
/// one-hot prefix circuit: ω ANDs per pair in place of the network's ANDs, no swap
/// (compares, bytes, rounds and losses kept their values; TPC-ds, with no public
/// relation, kept all of its), and TPC-ds's swaps when the selection stopped
/// carrying the inner join key, equal to the outer key in every kept slot (its
/// other counts and all of CPDB's, which swaps nothing, kept their values). Both
/// rounds were re-recorded when a step came to be one garbled circuit, one round
/// per invocation in place of one per join and per counter recover and reshare
/// (every gate and byte kept its value).
#[test]
fn transform_costs_equal_the_share_array_goldens() {
    let cost = |compares, swaps, ands, bytes, rounds| CostReport {
        secure_compares: compares,
        secure_swaps: swaps,
        secure_ands: ands,
        secure_adds: 0,
        bytes_communicated: bytes,
        rounds,
    };
    let runs = [
        (
            tpcds(200),
            IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 }),
            (cost(154_437, 151_785, 463_324, 56_508, 200), 0),
        ),
        (
            cpdb(100),
            IncShrinkConfig::cpdb_default(UpdateStrategy::DpTimer { interval: 3 }),
            (cost(94_040, 0, 1_136_480, 161_608, 100), 1),
        ),
    ];
    for (dataset, config, (golden, losses)) in runs {
        let (kind, steps) = (dataset.kind, dataset.params.steps);
        let mut pipeline = ShardPipeline::new(dataset, config, 0x7A5F, CostModel::default());
        let total: CostReport = (1..=steps)
            .filter_map(|t| pipeline.advance(t).transform_report)
            .sum();
        assert_eq!(total, golden, "{kind}");
        assert_eq!(pipeline.truncation_losses(), losses, "{kind}");
    }
}
