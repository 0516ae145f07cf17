//! Incremental-Transform invariants: the mirror-driven, persistently indexed
//! invocation must be indistinguishable from the planner-chosen share-array operator
//! over the padded share rows of the store's public active window, its cost must be
//! a function of padded sizes only at every step and never above Algorithm 4's over
//! the same window, and `k`-step batching must leave every DP-relevant quantity
//! (padding volume, read sizes, QET, answers) untouched while shrinking join work.

use incshrink::prelude::*;
use incshrink::transform::{PublicRelation, StepInputs, TransformProtocol, CARDINALITY_SHARE};
use incshrink::ViewDefinition;
use incshrink_mpc::cost::{CostModel, CostReport};
use incshrink_mpc::{PartyContext, PartyExec, PartyMode};
use incshrink_oblivious::{plan_and_execute, Calibration, JoinSpec};
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

/// Build a random step sequence from proptest-drawn row keys. Record ids are unique
/// across the run; times advance with the step so the join window stays meaningful.
fn build_steps(left_keys: &[Vec<u32>], right_keys: &[Vec<u32>]) -> Vec<StepInputs> {
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
            StepInputs {
                delta_left: batch(Relation::Left, t, &lrows, 4),
                delta_right: Some(batch(Relation::Right, t, &rrows, 4)),
            }
        })
        .collect()
}

proptest! {
    /// Across random step sequences with record expiry (tight budgets) and random
    /// batch-flush interleavings, the batched protocol replays the sequential one
    /// exactly.
    #[test]
    fn prop_cached_delta_sharing_equals_full_resharing(
        left_keys in proptest::collection::vec(proptest::collection::vec(0u32..4, 0..3), 2..9),
        right_keys_seed in proptest::collection::vec(proptest::collection::vec(0u32..4, 0..3), 2..9),
        budget in 1u64..5,
        chunk in 1usize..4,
        seed: u64,
    ) {
        // Align lengths (proptest draws them independently).
        let steps_len = left_keys.len().min(right_keys_seed.len());
        let steps = build_steps(&left_keys[..steps_len], &right_keys_seed[..steps_len]);

        // Reference: strict per-step invocations (ω = 1, small budget ⇒ expiry).
        let mut ctx_seq = PartyContext::new(PartyMode::InProcess, seed ^ 1, CostModel::default());
        let mut seq = TransformProtocol::new(view_def(), 1, budget, None);
        let mut seq_delta: Vec<PlainRecord> = Vec::new();
        for s in &steps {
            let out = seq.invoke(&mut ctx_seq, &s.delta_left, s.delta_right.as_ref());
            seq_delta.extend(out.delta.recover_all());
        }

        // Batched: the same steps in random chunks (flush interleavings).
        let mut ctx_bat = PartyContext::new(PartyMode::InProcess, seed ^ 1, CostModel::default());
        let mut bat = TransformProtocol::new(view_def(), 1, budget, None);
        let mut bat_delta: Vec<PlainRecord> = Vec::new();
        for group in steps.chunks(chunk) {
            let out = bat.invoke_batched(&mut ctx_bat, group);
            bat_delta.extend(out.delta.recover_all());
        }

        // Identical plaintext protocol state however the steps were chunked.
        prop_assert_eq!(bat_delta, seq_delta);
        prop_assert_eq!(bat.active_counts(), seq.active_counts());
        prop_assert_eq!(bat.truncation_losses(), seq.truncation_losses());
        prop_assert_eq!(
            ctx_bat.recover_named(CARDINALITY_SHARE),
            ctx_seq.recover_named(CARDINALITY_SHARE)
        );
    }
}

/// Algorithm 1 written from scratch over the share-array operators and the store:
/// every invocation runs the operator [`plan_and_execute`] picks under the context's
/// cost model, per direction, over the *padded share rows* of the store's active
/// window (dummies included, blocks in arrival order) — or, for a public right
/// relation, over a sharing of the rows the step number fixes — then hands the
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
        step: &StepInputs,
    ) -> (Vec<PlainRecord>, usize, CostReport) {
        if !self.initialized {
            ctx.reshare_and_store(CARDINALITY_SHARE, 0);
            self.initialized = true;
        }
        let inner_right = match &self.public {
            Some(public) => {
                // The public rows timed [t, t + window], in relation order.
                let t = step.delta_left.time as u32;
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
        let model = ctx.cost_model();
        let mut join = |outer: &SharedArrayPair,
                        inner: &SharedArrayPair,
                        spec: &JoinSpec<'_>,
                        ctx: &mut PartyContext| {
            plan_and_execute(outer, inner, spec, bound, &model, ctx.meter(), &mut rng).0
        };
        let outer = &step.delta_left.records;
        let mut potential = self.pairs(&Self::real_rows(outer), &Self::real_rows(&inner_right));
        let mut delta = join(outer, &inner_right, &self.view.join_spec(), ctx);
        if let Some(batch) = &step.delta_right {
            let outer = &batch.records;
            potential += self.pairs(&Self::real_rows(&inner_left), &Self::real_rows(outer));
            let joined = join(outer, &inner_left, &self.view.join_spec_reversed(), ctx);
            delta.extend(joined).expect("uniform arity");
        }

        let new_entries = delta.true_cardinality();
        self.losses += potential.saturating_sub(new_entries as u64);
        ctx.meter().ands(delta.len() as u64);
        let counter = ctx.recover_named(CARDINALITY_SHARE).unwrap_or(0);
        ctx.reshare_and_store(CARDINALITY_SHARE, counter + new_entries as u32);

        let arrived_right = step.delta_right.as_ref().map_or(0, UploadBatch::real_count);
        self.active = (
            inner_left.true_cardinality() + step.delta_left.real_count(),
            self.window(Relation::Right).true_cardinality() + arrived_right,
        );
        self.store.ingest(step.delta_left.clone());
        if let Some(batch) = &step.delta_right {
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
    /// counts equal the planner-chosen share-array operator over the padded share
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
            for step in &mut steps {
                step.delta_right = None;
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
            let out = transform.invoke(&mut ctx, &step.delta_left, step.delta_right.as_ref());
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
        let stream = |fill: u8, id_base: u64| -> Vec<StepInputs> {
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
                    StepInputs {
                        delta_left: batch(Relation::Left, t, &lrows, PADDED),
                        delta_right: (!public_right)
                            .then(|| batch(Relation::Right, t, &rrows, PADDED)),
                    }
                })
                .collect()
        };
        let run = |steps: &[StepInputs]| -> Vec<(CostReport, usize, usize, (usize, usize))> {
            let public = public_right.then(|| {
                let rows: Vec<[u32; 2]> = public_rows.iter().map(|&(k, t)| [k, t]).collect();
                PublicRelation::from_rows(rows.iter().map(|row| row.as_slice()))
            });
            let mut transform = TransformProtocol::new(view_def(), omega, budget, public);
            let mut ctx = PartyContext::new(PartyMode::InProcess, seed, CostModel::default());
            steps
                .iter()
                .map(|s| {
                    let out = transform.invoke(&mut ctx, &s.delta_left, s.delta_right.as_ref());
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

/// Regression: `k > 1` batching leaves the DP padding volume and the QET counts of
/// every step invariant (batching defers join work, never DP messages), while the
/// modeled Transform seconds — what the planner minimises — strictly drop.
#[test]
fn batching_leaves_dp_padding_and_qet_invariant_and_reduces_transform_seconds() {
    for (dataset, interval) in [(tpcds(90), 11u64), (cpdb(60), 3u64)] {
        let base = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval });
        let k1 = Simulation::new(dataset.clone(), base.with_transform_batch(1), 0xFACE).run();
        let k4 = Simulation::new(dataset.clone(), base.with_transform_batch(4), 0xFACE).run();

        assert_eq!(k1.horizon(), k4.horizon());
        for (a, b) in k1.steps.iter().zip(k4.steps.iter()) {
            assert_eq!(a.answer, b.answer, "t={}: answers invariant in k", a.time);
            assert_eq!(a.synced, b.synced, "t={}: sync schedule invariant", a.time);
            assert_eq!(
                a.view_len, b.view_len,
                "t={}: view length invariant",
                a.time
            );
            assert_eq!(
                a.view_len - a.view_real,
                b.view_len - b.view_real,
                "t={}: DP padding volume invariant",
                a.time
            );
            assert!(
                (a.qet_secs - b.qet_secs).abs() < 1e-12,
                "t={}: QET invariant ({} vs {})",
                a.time,
                a.qet_secs,
                b.qet_secs
            );
            assert!((a.l1_error - b.l1_error).abs() < 1e-9);
        }
        assert_eq!(k1.summary.sync_count, k4.summary.sync_count);
        let transform_secs =
            |run: &RunReport| run.steps.iter().map(|s| s.transform_secs).sum::<f64>();
        assert!(
            transform_secs(&k4) < transform_secs(&k1),
            "k=4 must reduce modeled Transform seconds: {} vs {}",
            transform_secs(&k4),
            transform_secs(&k1)
        );
    }
}

/// End to end, on both workloads: every invocation's modeled Transform seconds are
/// at most those of Algorithm 4 over the same window — a planning model that prices
/// rounds alone never leaves the one-round nested loop — with identical releases,
/// so planning can only lower `modeled_mpc_s`. TPC-ds's window is where it does;
/// CPDB's ω = 10 plans the nested loop at every step.
#[test]
fn planned_transform_never_costs_more_than_algorithm_4() {
    let nested_loop_only = Calibration {
        secs_per_compare: 0.0,
        secs_per_channel_round: 1.0,
        ..Calibration::default()
    };
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
        let model = CostModel::default();
        let mut planned = ShardPipeline::new(dataset.clone(), config, 0x7A5F, model);
        let mut nested_loop = ShardPipeline::new(dataset.clone(), config, 0x7A5F, model);
        nested_loop.set_calibration(Some(nested_loop_only));
        let mut cheaper_steps = 0;
        for t in 1..=dataset.params.steps {
            let (a, b) = (planned.advance(t), nested_loop.advance(t));
            assert_eq!(a.synced, b.synced, "{kind} t={t}");
            let (a, b) = (a.transform_duration.unwrap(), b.transform_duration.unwrap());
            assert!(
                a <= b,
                "{kind} t={t}: planned {a:?} above Algorithm 4's {b:?}"
            );
            cheaper_steps += usize::from(a < b);
        }
        assert_eq!(
            planned.view().fingerprint(),
            nested_loop.view().fingerprint(),
            "{kind}"
        );
        match kind {
            DatasetKind::TpcDs => assert!(cheaper_steps > 0, "{kind}: the planner never won"),
            DatasetKind::Cpdb => assert_eq!(cheaper_steps, 0, "{kind}: CPDB must not move"),
        }
    }
}

/// `sDPANT` inspects the counter every step, so batching degrades gracefully to an
/// effective `k = 1`: the trace is *identical*, not merely equivalent.
#[test]
fn ant_strategy_forces_per_step_flush() {
    let dataset = cpdb(50);
    let cfg = IncShrinkConfig::cpdb_default(UpdateStrategy::DpAnt { threshold: 30.0 });
    let k1 = Simulation::new(dataset.clone(), cfg, 0xA17).run();
    let k8 = Simulation::new(dataset, cfg.with_transform_batch(8), 0xA17).run();
    assert_eq!(k1.steps, k8.steps);
    assert_eq!(k1.summary, k8.summary);
}

/// Summed Transform `CostReport` and truncation losses of two default-configuration
/// runs: "the simulated trajectory is equal to the digit" as a `cargo test`. The
/// losses date from before Transform's matching moved off the share arrays; the
/// gate counts were re-recorded when the join input became the public active
/// window, and TPC-ds's report again when its joins began to be planned (its window
/// prices the sort-merge join lower; CPDB's keeps the nested loop).
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
            (cost(564_187, 2_696_680, 28_825, 472_380, 2_385), 0),
        ),
        (
            cpdb(100),
            IncShrinkConfig::cpdb_default(UpdateStrategy::DpTimer { interval: 3 }),
            (cost(1_239_312, 5_726_360, 196_080, 161_608, 301), 1),
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
