//! Incremental-Transform invariants: the mirror-driven, persistently indexed
//! invocation must be indistinguishable from Algorithm 4's share-array operator
//! over the padded share rows of the public active window, its cost must be
//! a function of padded sizes only at every step and never above paper-literal
//! Algorithm 4's over the same window.

use incshrink::prelude::*;
use incshrink::transform::{ActiveRecord, PublicRelation, TransformProtocol, CARDINALITY_SHARE};
use incshrink::ViewDefinition;
use incshrink_mpc::circuit::{Kernel, WORD_BITS};
use incshrink_mpc::cost::{CostMeter, CostModel, CostReport};
use incshrink_mpc::stream::Domain;
use incshrink_mpc::{PartyContext, PartyExec, PartyMode};
use incshrink_oblivious::{
    batcher_pair_count, nested_loop_join_cost, public_inner_join_cost, truncated_nested_loop_join,
    JoinSpec, JoinWidths,
};
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::PlainRecord;
use incshrink_storage::{LogicalUpdate, Relation, UploadBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::collections::VecDeque;

fn view_def() -> ViewDefinition {
    ViewDefinition {
        left_key: 0,
        left_time: 1,
        right_key: 0,
        right_time: 1,
        window: 10,
        left_bits: vec![2, 5],
        right_bits: vec![2, 6],
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
    UploadBatch::from_updates(time, &refs, 2, padded, &mut rng)
}

/// One upload step's padded batches: the left one and, for a private right
/// relation, the right one.
type Step = (UploadBatch, Option<UploadBatch>);

/// Build a random step sequence from proptest-drawn row keys. Record ids are unique
/// across the run; every record is timed at the step that uploads it.
fn build_steps(left_keys: &[Vec<u32>], right_keys: &[Vec<u32>]) -> Vec<Step> {
    let mut next_id = 1u64;
    let steps = left_keys.len();
    (0..steps)
        .map(|i| {
            let t = i as u64 + 1;
            let mut rows = |keys: &[u32]| -> Vec<(u64, u32, u32)> {
                keys.iter()
                    .map(|&k| {
                        next_id += 1;
                        (next_id, k, t as u32)
                    })
                    .collect()
            };
            let (lrows, rrows) = (rows(&left_keys[i]), rows(&right_keys[i]));
            (
                batch(Relation::Left, t, &lrows, 4),
                Some(batch(Relation::Right, t, &rrows, 4)),
            )
        })
        .collect()
}

/// Active records migrated in after a step, when its first element is 0: per side
/// `(key, age)` pairs, a record of age `a` uploaded `a` steps before the import
/// (clipped to the window), and the dummy rows that pad each side's block.
type Import = (u8, Vec<(u32, u64)>, Vec<(u32, u64)>, usize);

/// One relation's active window, written here from the retirement rule alone:
/// `(last live step, padded batch, time range)` blocks, oldest first. A block
/// admitted at step `c` — an upload, or an import — is live through `c + W`.
#[derive(Default)]
struct Window(VecDeque<(u64, UploadBatch, (u64, u64))>);

impl Window {
    fn admit(&mut self, c: u64, w: u64, batch: UploadBatch, range: (u64, u64)) {
        self.0.push_back((c + w, batch, range));
        self.0.retain(|&(last, ..)| last > c);
    }

    /// The live blocks' batches and time ranges, oldest first.
    fn blocks(&self) -> impl Iterator<Item = (&UploadBatch, (u64, u64))> {
        self.0.iter().map(|(_, batch, range)| (batch, *range))
    }

    /// Padded rows of the live blocks.
    fn rows(&self) -> usize {
        self.0.iter().map(|(_, batch, _)| batch.len()).sum()
    }
}

/// Algorithm 1 written from scratch over the share-array operators and a window
/// of padded batches: every invocation runs [`truncated_nested_loop_join`]
/// (Algorithm 4) per direction over the *padded share rows* of the [`Window`] blocks
/// whose public time range holds a time θ accepts against the delta's step
/// (dummies included, blocks in arrival order), θ left out of the condition
/// unless some such block also holds a time θ rejects — or, for a public right
/// relation, over a sharing of the rows the step number fixes — charging the
/// operator's price at the view's column widths ([`nested_loop_join_cost`], or
/// [`public_inner_join_cost`] in place of its network; the bare arrays the operator
/// meters carry no schema, so it would price full words) — then hands the step's
/// batches to the window. A block's range is its upload step, or `[c − W, c]` for
/// records imported at step `c`; which blocks θ can accept is decided by
/// evaluating the view's own condition at every time of the range. It keeps no
/// active set: the window is the retirement rule, and an imported record, live
/// for the steps it had left, is live while its time plus `W` has not passed.
/// What `TransformProtocol::invoke` must equal, step for step.
struct ReferenceTransform {
    view: ViewDefinition,
    omega: u64,
    window_steps: u64,
    /// Each relation's window (left, right).
    windows: [Window; 2],
    public: Option<Vec<Vec<u32>>>,
    initialized: bool,
    losses: u64,
    /// Real records per side that took part in the latest step or arrived in it —
    /// what `TransformProtocol`'s mirror holds until the next step's charges.
    active: (usize, usize),
    /// Window blocks met so far that θ rejects whole, accepts whole, and splits.
    tally: Cell<[usize; 3]>,
}

impl ReferenceTransform {
    fn new(view: ViewDefinition, omega: u64, budget: u64, public: Option<Vec<Vec<u32>>>) -> Self {
        let window_steps = budget / omega - 1;
        Self {
            view,
            omega,
            window_steps,
            windows: Default::default(),
            public,
            initialized: false,
            losses: 0,
            active: (0, 0),
            tally: Cell::new([0; 3]),
        }
    }

    fn window_of(&self, relation: Relation) -> &Window {
        &self.windows[relation as usize]
    }

    /// θ between an outer record timed `outer` and an `inner` record timed
    /// `inner_time`, by the view's own join condition.
    fn theta(&self, inner: Relation, outer: u64, inner_time: u64) -> bool {
        let spec = match inner {
            Relation::Right => self.view.join_spec(),
            Relation::Left => self.view.join_spec_reversed(),
        };
        let (o, i) = ([0, outer as u32], [0, inner_time as u32]);
        spec.condition.as_ref().expect("a θ-join")(&o, &i)
    }

    /// One relation's window as the operator's inner input against a delta of step
    /// `outer`: the padded batches of the blocks θ can accept, concatenated in
    /// arrival order, and whether any of them is mixed.
    fn window(&self, relation: Relation, outer: u64) -> (SharedArrayPair, bool) {
        let mut rows = SharedArrayPair::with_arity(2);
        let mut mixed = false;
        for (batch, (lo, hi)) in self.window_of(relation).blocks() {
            let accepted = (lo..=hi)
                .filter(|&s| self.theta(relation, outer, s))
                .count() as u64;
            let case = match accepted {
                0 => 0,
                n if n > hi - lo => 1,
                _ => 2,
            };
            let mut tally = self.tally.get();
            tally[case] += 1;
            self.tally.set(tally);
            if accepted > 0 {
                mixed |= case == 2;
                rows.extend(batch.records.clone()).expect("uniform arity");
            }
        }
        (rows, mixed)
    }

    /// Real records of a relation's whole window still live at step `t`.
    fn live(&self, relation: Relation, t: u64) -> usize {
        let blocks = self.window_of(relation).blocks();
        let rows = blocks.flat_map(|(batch, _)| batch.records.recover_all());
        let w = self.window_steps;
        rows.filter(|row| row.is_view && u64::from(row.fields[1]) + w >= t)
            .count()
    }

    fn real_rows(rows: &SharedArrayPair) -> Vec<Vec<u32>> {
        let real = rows.recover_all().into_iter().filter(|row| row.is_view);
        real.map(|row| row.fields).collect()
    }

    /// Quadratic count of the live pairs that exist before truncation.
    fn pairs(&self, left: &[Vec<u32>], right: &[Vec<u32>], live: impl Fn(&[u32]) -> bool) -> u64 {
        let v = &self.view;
        let matches = |l: &Vec<u32>, r: &Vec<u32>| {
            let (lt, rt) = (l[v.left_time], r[v.right_time]);
            l[v.left_key] == r[v.right_key] && rt >= lt && rt - lt <= v.window && live(l) && live(r)
        };
        left.iter()
            .map(|l| right.iter().filter(|r| matches(l, r)).count() as u64)
            .sum()
    }

    fn ingest(&mut self, relation: Relation, batch: &UploadBatch) {
        let (time, w) = (batch.time, self.window_steps);
        self.windows[relation as usize].admit(time, w, batch.clone(), (time, time));
    }

    /// Adopt `records` imported after step `c` as one block of `rows` padded rows
    /// timed `[c − W, c]`, live like the batch uploaded at `c`.
    fn adopt(&mut self, relation: Relation, c: u64, records: &[(ActiveRecord, u64)], rows: usize) {
        let updates: Vec<LogicalUpdate> = records
            .iter()
            .map(|(rec, _)| LogicalUpdate {
                id: rec.id,
                relation,
                arrival: u64::from(rec.fields[1]),
                fields: rec.fields.clone(),
            })
            .collect();
        let refs: Vec<&LogicalUpdate> = updates.iter().collect();
        let mut rng = StdRng::seed_from_u64(c ^ 0xAD0);
        let batch = UploadBatch::from_updates(c, &refs, 2, rows, &mut rng);
        let w = self.window_steps;
        self.windows[relation as usize].admit(c, w, batch, (c.saturating_sub(w), c));
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
        let t = delta_left.time;
        let (inner_right, right_mixed) = match &self.public {
            Some(public) => {
                // The public rows timed [t, t + window], in relation order.
                let t = t as u32;
                let in_range = |r: &&Vec<u32>| (t..=t + self.view.window).contains(&r[1]);
                let rows: Vec<PlainRecord> = public
                    .iter()
                    .filter(in_range)
                    .map(|row| PlainRecord::real(row.clone()))
                    .collect();
                let mut share_rng = StdRng::seed_from_u64(0xF5E5 ^ delta_left.time);
                let mut shared = SharedArrayPair::with_arity(2);
                shared
                    .extend(SharedArrayPair::share_records(&rows, &mut share_rng))
                    .expect("uniform arity");
                (shared, false)
            }
            None => self.window(Relation::Right, t),
        };
        let (inner_left, left_mixed) = self.window(Relation::Left, t);

        let mut rng = ctx.stream(Domain::DeltaShares);
        let bound = self.omega as usize;
        // A public inner side selects with the one-hot circuit: the operator's
        // output, priced by `public_inner_join_cost` instead of its network.
        let public_inner = self.public.is_some();
        let (view, w) = (&self.view, self.window_steps);
        // An inner record joins while its budget lasts: its time plus W.
        let live = move |row: &[u32]| u64::from(row[1]) + w >= t;
        let mut join = |outer: &SharedArrayPair,
                        inner: &SharedArrayPair,
                        spec: JoinSpec<'_>,
                        inner_side: Relation,
                        (public_inner, mixed): (bool, bool),
                        ctx: &mut PartyContext| {
            let theta = spec.condition.expect("a θ-join");
            let reversed = spec.swap_output;
            let condition = move |o: &[u32], i: &[u32]| live(i) && (!mixed || theta(o, i));
            let spec = JoinSpec {
                condition: Some(Box::new(condition)),
                ..JoinSpec::equi(spec.left_key, spec.right_key)
            };
            let spec = if reversed {
                spec.with_swapped_output()
            } else {
                spec
            };
            let mut words = CostMeter::new();
            let joined =
                truncated_nested_loop_join(outer, inner, &spec, bound, &mut words, &mut rng);
            let arity = |side: &SharedArrayPair| side.arity().unwrap_or(0);
            let (o, i, oa, ia) = (outer.len(), inner.len(), arity(outer), arity(inner));
            assert_eq!(
                words.report(),
                nested_loop_join_cost(o, i, bound, oa, ia, JoinWidths::words(ia)),
                "the operator charges its price at full words"
            );
            let widths = view.join_widths(inner_side, !public_inner);
            let widths = JoinWidths {
                theta: widths.theta.filter(|_| mixed),
                ..widths
            };
            let cost = if public_inner {
                public_inner_join_cost(o, i, bound, oa, ia, widths)
            } else {
                nested_loop_join_cost(o, i, bound, oa, ia, widths)
            };
            ctx.meter().record(cost);
            joined
        };
        let outer = &delta_left.records;
        let live_right = |row: &[u32]| public_inner || live(row);
        let mut potential = self.pairs(
            &Self::real_rows(outer),
            &Self::real_rows(&inner_right),
            live_right,
        );
        let mut delta = join(
            outer,
            &inner_right,
            self.view.join_spec(),
            Relation::Right,
            (public_inner, right_mixed),
            ctx,
        );
        if let Some(batch) = delta_right {
            let outer = &batch.records;
            potential += self.pairs(&Self::real_rows(&inner_left), &Self::real_rows(outer), live);
            let joined = join(
                outer,
                &inner_left,
                self.view.join_spec_reversed(),
                Relation::Left,
                (false, left_mixed),
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
            self.live(Relation::Left, t) + delta_left.real_count(),
            self.live(Relation::Right, t) + arrived_right,
        );
        self.ingest(Relation::Left, delta_left);
        if let Some(batch) = delta_right {
            self.ingest(Relation::Right, batch);
        }
        let (report, _) = ctx.charge();
        ctx.advance_time_step();
        (delta.recover_all(), new_entries, report)
    }
}

/// Run `TransformProtocol` and [`ReferenceTransform`] in lockstep over `steps`,
/// with `imports[i]`, when present, migrated into both after step `i + 1`: every
/// invocation's ΔV (recovered rows in order, length, `new_entries`), its
/// `CostReport`, the truncation losses, the active counts and the window lengths
/// must be equal, and so must the cardinality counters at the end. Returns how
/// many window blocks θ rejected whole, accepted whole and split.
fn lockstep(
    view: &ViewDefinition,
    (omega, budget): (u64, u64),
    steps: &[Step],
    public: Option<Vec<Vec<u32>>>,
    imports: &[Import],
    seed: u64,
) -> [usize; 3] {
    let mut transform = TransformProtocol::new(
        view.clone(),
        omega,
        budget,
        public
            .as_ref()
            .map(|rows| PublicRelation::from_rows(rows.iter().map(Vec::as_slice))),
    );
    let private_right = public.is_none();
    let mut reference = ReferenceTransform::new(view.clone(), omega, budget, public);
    let w = reference.window_steps;
    let mut ctx = PartyContext::new(PartyMode::InProcess, seed, CostModel::default());
    let mut ctx_ref = PartyContext::new(PartyMode::InProcess, seed, CostModel::default());
    let mut next_id = 1_000_000u64;
    for (c, step) in (1u64..).zip(steps) {
        let out = transform.invoke(&mut ctx, &step.0, step.1.as_ref());
        let (delta, new_entries, report) = reference.invoke(&mut ctx_ref, step);
        prop_assert_eq!(out.delta.recover_all(), delta, "step {}", c);
        prop_assert_eq!(out.new_entries, new_entries);
        prop_assert_eq!(out.report, report, "step {}", c);
        prop_assert_eq!(transform.truncation_losses(), reference.losses);
        prop_assert_eq!(transform.active_counts(), reference.active);
        let windows = &reference.windows;
        prop_assert_eq!(
            transform.window_rows(),
            (windows[0].rows(), windows[1].rows())
        );
        if let Some((0, left, right, pad)) = imports.get(c as usize - 1) {
            // Each record has the steps its age leaves of the window.
            let mut migrated = |records: &[(u32, u64)]| -> Vec<(ActiveRecord, u64)> {
                let records = records.iter().map(|&(key, age)| {
                    let time = c - age.min(w).min(c);
                    next_id += 1;
                    let rec = ActiveRecord {
                        id: next_id,
                        fields: vec![key, time as u32],
                    };
                    (rec, time + w - c)
                });
                records.collect()
            };
            let left = migrated(left);
            let right = if private_right {
                migrated(right)
            } else {
                Vec::new()
            };
            let rows = (
                left.len() + pad,
                if private_right { right.len() + pad } else { 0 },
            );
            reference.adopt(Relation::Left, c, &left, rows.0);
            if private_right {
                reference.adopt(Relation::Right, c, &right, rows.1);
            }
            transform.import_active(left, right, rows);
        }
    }
    prop_assert_eq!(
        ctx.recover_named(CARDINALITY_SHARE),
        ctx_ref.recover_named(CARDINALITY_SHARE)
    );
    reference.tally.get()
}

proptest! {
    /// Reference lockstep: over random private-right and public-right streams —
    /// including steps with no real left record and ω > 1 with several outer rows
    /// contending for one inner row, across budgets from "retired on arrival" to
    /// several steps — every invocation's ΔV (recovered rows in order, length,
    /// `new_entries`), its `CostReport`, the truncation losses and the active
    /// counts equal Algorithm 4's share-array operator over the padded share
    /// rows of the window's θ-feasible blocks, θ evaluated only where a
    /// block is mixed. Nothing else is charged: there is no gap term.
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
        let _ = lockstep(&view_def(), (omega, budget), &steps, public, &[], seed);
    }

    /// The same lockstep where the window outlasts θ (`W` above the view's window)
    /// and active records migrate in after random steps, each import one block
    /// timed `[c − W, c]`: a delta then meets blocks θ cannot accept (an upload
    /// more than `window` steps old, or any right block), blocks it must accept
    /// (a recent upload) and mixed ones (an import straddling an end of θ's
    /// range), and the operator over the feasible blocks still equals Transform.
    #[test]
    fn prop_pruned_blocks_lose_no_pair_across_imports(
        keys in proptest::collection::vec(
            (proptest::collection::vec(0u32..3, 0..4), proptest::collection::vec(0u32..3, 0..4)),
            3..10,
        ),
        imports in proptest::collection::vec(
            (
                0u8..2,
                proptest::collection::vec((0u32..3, 0u64..7), 0..4),
                proptest::collection::vec((0u32..3, 0u64..7), 0..4),
                0usize..3,
            ),
            3..10,
        ),
        public_rows in proptest::collection::vec((0u32..3, 0u32..16), 0..40),
        window in 0u32..3,
        omega in 1u64..3,
        window_steps in 3u64..7,
        public_right: bool,
        seed: u64,
    ) {
        let view = ViewDefinition { window, ..view_def() };
        let (left_keys, right_keys): (Vec<_>, Vec<_>) = keys.into_iter().unzip();
        let mut steps = build_steps(&left_keys, &right_keys);
        let public: Option<Vec<Vec<u32>>> = public_right
            .then(|| public_rows.iter().map(|&(key, time)| vec![key, time]).collect());
        if public.is_some() {
            for (_, delta_right) in &mut steps {
                *delta_right = None;
            }
        }
        let budget = omega * (window_steps + 1);
        let _ = lockstep(&view, (omega, budget), &steps, public, &imports, seed);
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
                    let rrows = rows(reals(rmixed), rkey, 1, t as u32);
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

/// One record of key 0 a step on both sides, a θ window of one step and `W = 4`, with each
/// side's records of the last four steps imported after step 3: the operator over
/// the feasible blocks equals Transform while all three cases occur. A return at
/// step 5 meets the sales of steps 4 (θ holds) and 1–3 (θ fails); one at step 4
/// meets the import timed `[0, 3]`, which straddles θ's `[3, 4]`.
#[test]
fn pruning_meets_excluded_sure_and_mixed_blocks() {
    let view = ViewDefinition {
        window: 1,
        ..view_def()
    };
    let keys = vec![vec![0u32]; 8];
    let steps = build_steps(&keys, &keys);
    let imported: Vec<(u32, u64)> = (0..4).map(|age| (age as u32 % 2, age)).collect();
    let mut imports = vec![(1, Vec::new(), Vec::new(), 0); steps.len()];
    imports[2] = (0, imported.clone(), imported, 1);
    let [excluded, sure, mixed] = lockstep(&view, (1, 5), &steps, None, &imports, 7);
    assert!(
        excluded > 0 && sure > 0 && mixed > 0,
        "{excluded} {sure} {mixed}"
    );
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

/// Paper-literal Algorithm 4 at one join shape, over 32-bit words: the
/// `|outer|·|inner|` matrix of key compares (with the θ-condition where a secret
/// time enters it) and match/budget ANDs, a full Batcher sort of every per-outer
/// buffer of `|inner|` slots with word compares and record-wide swaps, and the
/// `ω·|outer|` output write. Like the selection it is compared with, it is part of
/// the step's one circuit and charges no round of its own.
fn algorithm_4(
    outer: usize,
    inner: usize,
    omega: usize,
    out_arity: usize,
    theta: bool,
) -> CostReport {
    let (o, i, width) = (outer as u64, inner as u64, out_arity as u32 + 1);
    let sorts = o * batcher_pair_count(inner);
    let mut meter = CostMeter::new();
    meter.kernels(o * i, Kernel::Eq(WORD_BITS));
    if theta {
        meter.kernels(o * i, Kernel::Theta(WORD_BITS));
    }
    meter.ands(2 * o * i);
    meter.kernels(sorts, Kernel::Lt(WORD_BITS));
    meter.kernels(sorts, Kernel::Swap(WORD_BITS * width));
    meter.bytes(o * omega as u64 * u64::from(width) * 4);
    meter.report()
}

/// End to end, on both workloads: every invocation's modeled Transform seconds are
/// at most those of paper-literal Algorithm 4 over the same window — the
/// invocation's report with each join's price ([`nested_loop_join_cost`], or
/// [`public_inner_join_cost`] against CPDB's Award rows) replaced by
/// [`algorithm_4`] at its public shape — so the top-ω selection, network or
/// one-hot circuit, and the θ-feasible blocks can only lower `modeled_mpc_s`, and
/// both workloads' windows are where they do. The shapes come from the public
/// sizes and upload steps alone: each delta is priced against the other side's
/// batches (a [`Window`] fed the same batches) uploaded at a step θ
/// accepts against its own, with no θ circuit (no run here imports a block, so
/// none is mixed), or against CPDB's Award rows the step fixes; Algorithm 4 joins
/// it with the whole window.
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
        let w = config.contribution_budget / config.truncation_bound - 1;
        let mut windows: [Window; 2] = Default::default();
        let theta_window = u64::from(view.window);
        let mut cheaper_steps = 0;
        for t in 1..=dataset.params.steps {
            let uploads = pipeline.upload_batches(t);
            let arity = |batch: &UploadBatch| batch.records.arity();
            let right_arity = uploads.right.as_ref().and_then(arity).or(public_arity);
            let arities = (arity(&uploads.left).unwrap_or(0), right_arity.unwrap_or(0));
            let out_arity = arities.0 + arities.1;
            // The rows of a window's batches timed `right − left ∈ [0, window]`
            // against the delta's step, and the whole window.
            let window = |relation: Relation| {
                let window = &windows[relation as usize];
                let gap = |s: u64| match relation {
                    Relation::Right => s.checked_sub(t),
                    Relation::Left => t.checked_sub(s),
                };
                let batches = window.blocks().map(|(batch, _)| batch);
                let theta = |b: &&UploadBatch| gap(b.time).is_some_and(|g| g <= theta_window);
                let feasible = batches.filter(theta).map(UploadBatch::len).sum::<usize>();
                (feasible, window.rows())
            };
            let inner_of_left = match public {
                Some(rows) => {
                    let steps = t as u32..=t as u32 + view.window;
                    let n = rows
                        .iter()
                        .filter(|row| steps.contains(&row.fields[view.right_time]))
                        .count();
                    (n, n)
                }
                None => window(Relation::Right),
            };
            let left_shape = (uploads.left.len(), inner_of_left, arities);
            let mut shapes = vec![(left_shape, public.is_some(), Relation::Right)];
            if let Some(right) = &uploads.right {
                let shape = (right.len(), window(Relation::Left), (arities.1, arities.0));
                shapes.push((shape, false, Relation::Left));
                windows[1].admit(t, w, right.clone(), (t, t));
            }
            windows[0].admit(t, w, uploads.left.clone(), (t, t));

            let charged = pipeline.advance_with_uploads(t, uploads).transform_report;
            let charged = charged.expect("the timer transforms every step");
            let joins: CostReport = shapes
                .iter()
                .map(
                    |&((outer, (inner, _), (oa, ia)), public_inner, inner_side)| {
                        let price = if public_inner {
                            public_inner_join_cost
                        } else {
                            nested_loop_join_cost
                        };
                        let widths = JoinWidths {
                            theta: None,
                            ..view.join_widths(inner_side, !public_inner)
                        };
                        price(outer, inner, omega, oa, ia, widths)
                    },
                )
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
                    .map(|&((outer, (_, whole), _), public_inner, _)| {
                        algorithm_4(outer, whole, omega, out_arity, !public_inner)
                    })
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
/// (every gate and byte kept its value). Both ANDs were re-recorded when every
/// kernel came to be priced as its generated circuit at the columns' public
/// widths, the compares and swaps staying operation counts, and TPC-ds's compares
/// when its θ-condition came to be priced, one more compare a pair (swaps, bytes,
/// rounds and losses kept their values). TPC-ds's compares, swaps and ANDs were
/// re-recorded when each join came to be priced over the window blocks whose
/// upload steps θ can accept, with no θ circuit where every such block satisfies
/// it: a new sale meets no return uploaded at or after its step, and a new return
/// meets sales of the last nine steps, all inside θ's ten (bytes, rounds and losses
/// kept their values; CPDB, whose Award range already applied θ, kept all of its).
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
            (cost(77_301, 76_092, 1_615_105, 56_508, 200), 0),
        ),
        (
            cpdb(100),
            IncShrinkConfig::cpdb_default(UpdateStrategy::DpTimer { interval: 3 }),
            (cost(94_040, 0, 1_982_840, 161_608, 100), 1),
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
