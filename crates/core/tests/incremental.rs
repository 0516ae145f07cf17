//! Incremental-Transform invariants: the mirror-driven, persistently indexed
//! invocation must be indistinguishable from the share-array nested-loop operator
//! over a fresh sharing of the same rows, and `k`-step batching must leave every
//! DP-relevant quantity (padding volume, read sizes, QET, answers) untouched while
//! shrinking join work.

use incshrink::prelude::*;
use incshrink::transform::{PublicRelation, StepInputs, TransformProtocol, CARDINALITY_SHARE};
use incshrink::ViewDefinition;
use incshrink_mpc::cost::{CostModel, CostReport};
use incshrink_mpc::{PartyContext, PartyExec, PartyMode};
use incshrink_oblivious::truncated_nested_loop_join;
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::PlainRecord;
use incshrink_storage::{LogicalUpdate, Relation, UploadBatch};
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
                delta_left: batch(Relation::Left, t, &lrows, 3),
                delta_right: Some(batch(Relation::Right, t, &rrows, 3)),
                full_right_len: 3 * t as usize,
                full_left_len: 3 * t as usize,
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
            let out = seq.invoke(
                &mut ctx_seq,
                &s.delta_left,
                s.delta_right.as_ref(),
                s.full_right_len,
                s.full_left_len,
            );
            seq_delta.extend(out.delta.recover_all());
        }

        // Batched: the same steps in random chunks (flush interleavings).
        let mut ctx_bat = PartyContext::new(PartyMode::InProcess, seed ^ 1, CostModel::default());
        let mut bat = TransformProtocol::new(view_def(), 1, budget, None)
            .with_join_plan(JoinPlanMode::Adaptive);
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

/// The pre-index Transform step, written from scratch over the share-array
/// operator: every invocation re-shares the still-active rows (or the
/// window-pruned public rows), runs [`truncated_nested_loop_join`] per direction,
/// and adds the skipped-rows gap charge. What `TransformProtocol::invoke` must
/// equal, step for step.
struct ReferenceTransform {
    view: ViewDefinition,
    omega: u64,
    budget: u64,
    /// Per side: (fields, remaining budget) of the active records, in arrival order.
    active: [Vec<(Vec<u32>, u64)>; 2],
    public: Option<Vec<Vec<u32>>>,
    initialized: bool,
    losses: u64,
}

impl ReferenceTransform {
    fn new(view: ViewDefinition, omega: u64, budget: u64, public: Option<Vec<Vec<u32>>>) -> Self {
        Self {
            view,
            omega,
            budget,
            active: [Vec::new(), Vec::new()],
            public,
            initialized: false,
            losses: 0,
        }
    }

    fn real_rows(batch: &UploadBatch) -> Vec<Vec<u32>> {
        let rows = batch.records.recover_all();
        let real = batch.ids.iter().zip(rows).filter(|(id, _)| id.is_some());
        real.map(|(_, row)| row.fields).collect()
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
        let omega = self.omega;
        for side in &mut self.active {
            side.retain_mut(|(_, remaining)| {
                let charged = *remaining >= omega;
                if charged {
                    *remaining -= omega;
                }
                charged
            });
        }
        let new_left = Self::real_rows(&step.delta_left);
        let new_right = step.delta_right.as_ref().map(Self::real_rows);

        let rows_of = |side: &[(Vec<u32>, u64)]| -> Vec<Vec<u32>> {
            side.iter().map(|(fields, _)| fields.clone()).collect()
        };
        let inner_right: Vec<Vec<u32>> = match &self.public {
            Some(public) => {
                let times = new_left.iter().map(|l| l[self.view.left_time]);
                let (lo, hi) = match (times.clone().min(), times.max()) {
                    (Some(lo), Some(hi)) => (lo, hi.saturating_add(self.view.window)),
                    _ => (u32::MAX, 0),
                };
                let in_window = |r: &&Vec<u32>| (lo..=hi).contains(&r[self.view.right_time]);
                public.iter().filter(in_window).cloned().collect()
            }
            None => rows_of(&self.active[1]),
        };
        let inner_left = rows_of(&self.active[0]);
        let mut potential = self.pairs(&new_left, &inner_right);
        if let Some(new_right) = &new_right {
            potential += self.pairs(&inner_left, new_right);
        }

        let mut share_rng = StdRng::seed_from_u64(0xF5E5 ^ ctx.time_step());
        let mut fresh = |rows: &[Vec<u32>], arity: usize| {
            let mut shared = SharedArrayPair::with_arity(arity);
            let rows: Vec<PlainRecord> = rows.iter().cloned().map(PlainRecord::real).collect();
            shared
                .extend(SharedArrayPair::share_records(&rows, &mut share_rng))
                .expect("uniform arity");
            shared
        };
        let mut rng = StdRng::seed_from_u64(0xA11CE ^ ctx.time_step());
        let bound = omega as usize;
        let gap = |ctx: &mut PartyContext, outer: usize, full: usize, scanned: usize| {
            let skipped = full.saturating_sub(scanned) as u64;
            ctx.meter().compares(outer as u64 * skipped);
            ctx.meter().ands(2 * outer as u64 * skipped);
        };

        let inner = fresh(&inner_right, 2);
        let spec = self.view.join_spec();
        let outer = &step.delta_left.records;
        let mut delta =
            truncated_nested_loop_join(outer, &inner, &spec, bound, ctx.meter(), &mut rng);
        gap(ctx, outer.len(), step.full_right_len, inner.len());
        if let Some(batch) = &step.delta_right {
            let inner = fresh(&inner_left, 2);
            let spec = self.view.join_spec_reversed();
            let outer = &batch.records;
            let joined =
                truncated_nested_loop_join(outer, &inner, &spec, bound, ctx.meter(), &mut rng);
            gap(ctx, outer.len(), step.full_left_len, inner.len());
            delta.extend(joined).expect("uniform arity");
        }

        let new_entries = delta.true_cardinality();
        self.losses += potential.saturating_sub(new_entries as u64);
        ctx.meter().ands(delta.len() as u64);
        let counter = ctx.recover_named(CARDINALITY_SHARE).unwrap_or(0);
        ctx.reshare_and_store(CARDINALITY_SHARE, counter + new_entries as u32);

        let fresh_budget = self.budget - omega;
        self.active[0].extend(new_left.into_iter().map(|row| (row, fresh_budget)));
        self.active[1].extend(
            new_right
                .into_iter()
                .flatten()
                .map(|row| (row, fresh_budget)),
        );
        let (report, _) = ctx.charge();
        ctx.advance_time_step();
        (delta.recover_all(), new_entries, report)
    }
}

proptest! {
    /// Reference lockstep: over random private-right and public-right streams —
    /// including steps with no real left record (the empty public window) and
    /// ω > 1 with several outer rows contending for one inner row — every
    /// invocation's ΔV (recovered rows in order, length, `new_entries`), its
    /// `CostReport`, the truncation losses and the active counts equal the
    /// share-array nested-loop operator over a fresh sharing of the same rows plus
    /// the gap charge.
    #[test]
    fn prop_transform_equals_the_share_array_operator_in_lockstep(
        left_keys in proptest::collection::vec(proptest::collection::vec(0u32..3, 0..4), 2..9),
        right_keys in proptest::collection::vec(proptest::collection::vec(0u32..3, 0..4), 2..9),
        public_rows in proptest::collection::vec((0u32..3, 0u32..24), 0..40),
        omega in 1u64..4,
        extra_budget in 0u64..5,
        public_right: bool,
        seed: u64,
    ) {
        let steps_len = left_keys.len().min(right_keys.len());
        let mut steps = build_steps(&left_keys[..steps_len], &right_keys[..steps_len]);
        let public: Option<Vec<Vec<u32>>> = public_right
            .then(|| public_rows.iter().map(|&(key, time)| vec![key, time]).collect());
        if let Some(public) = &public {
            for step in &mut steps {
                step.delta_right = None;
                step.full_right_len = public.len();
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
            let out = transform.invoke(
                &mut ctx,
                &step.delta_left,
                step.delta_right.as_ref(),
                step.full_right_len,
                step.full_left_len,
            );
            let (delta, new_entries, report) = reference.invoke(&mut ctx_ref, step);
            prop_assert_eq!(out.delta.recover_all(), delta);
            prop_assert_eq!(out.new_entries, new_entries);
            prop_assert_eq!(out.report, report);
            prop_assert_eq!(transform.truncation_losses(), reference.losses);
            prop_assert_eq!(
                transform.active_counts(),
                (reference.active[0].len(), reference.active[1].len())
            );
        }
        prop_assert_eq!(
            ctx.recover_named(CARDINALITY_SHARE),
            ctx_ref.recover_named(CARDINALITY_SHARE)
        );
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
/// Transform secure-compare total strictly drops under adaptive planning.
#[test]
fn batching_leaves_dp_padding_and_qet_invariant_and_reduces_compares() {
    for (dataset, interval) in [(tpcds(90), 11u64), (cpdb(60), 3u64)] {
        let base = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval })
            .with_join_plan(JoinPlanMode::Adaptive);
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
        assert!(
            k4.summary.transform_secure_compares < k1.summary.transform_secure_compares,
            "k=4 must reduce Transform compares: {} vs {}",
            k4.summary.transform_secure_compares,
            k1.summary.transform_secure_compares
        );
    }
}

/// The plan mode alone (nested loop vs adaptive, at `k = 1`) must not change what the
/// protocol releases — only what the join work costs.
#[test]
fn plan_mode_changes_costs_but_not_releases() {
    let dataset = tpcds(70);
    let nlj = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 11 });
    let adaptive = nlj.with_join_plan(JoinPlanMode::Adaptive);
    let a = Simulation::new(dataset.clone(), nlj, 0xBEEF).run();
    let b = Simulation::new(dataset, adaptive, 0xBEEF).run();
    for (x, y) in a.steps.iter().zip(b.steps.iter()) {
        assert_eq!(x.answer, y.answer);
        assert_eq!(x.view_len, y.view_len);
        assert_eq!(x.view_real, y.view_real);
        assert_eq!(x.synced, y.synced);
    }
    // Costs are accounted differently (the adaptive path prices the join against the
    // full outsourced relation, including the sort gap the legacy compensation
    // omits) but both meter real work.
    assert!(a.summary.transform_secure_compares > 0);
    assert!(b.summary.transform_secure_compares > 0);
    assert_ne!(
        a.summary.transform_secure_compares,
        b.summary.transform_secure_compares
    );
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
/// runs, recorded at the commit before Transform's matching moved off the share
/// arrays: "the simulated trajectory is equal to the digit" as a `cargo test`.
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
            (cost(2_497_738, 3_635_900, 3_543_781, 56_508, 801), 0),
        ),
        (
            cpdb(100),
            IncShrinkConfig::cpdb_default(UpdateStrategy::DpTimer { interval: 3 }),
            (cost(2_007_296, 5_388_480, 1_867_200, 161_608, 301), 1),
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
