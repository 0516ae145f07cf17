//! One server pair's view-maintenance stack, stepped one upload epoch at a time.
//!
//! [`ShardPipeline`] holds the machinery of one server pair — context,
//! outsourced store, secure cache, Transform, Shrink, materialized view — and
//! replays a workload's upload epochs exactly as Figure 1 describes: owners
//! upload padded batches each step, Transform converts them into cached view
//! entries, and Shrink synchronizes DP-sized batches into the materialized view
//! (or a baseline strategy routes ΔV directly). The analyst's queries are
//! answered separately ([`ShardPipeline::answer_query`]).
//!
//! The end-to-end run — the step loop, the counting query every
//! `query_interval` steps, the per-step [`StepRecord`] trace and the Table-2
//! style summary — is the cluster crate's (`incshrink-cluster`): its one-shard
//! inline `ShardedSimulation` is the single-pair run, and `S` shards step `S`
//! of these pipelines and scatter-gather the query across their views.

use crate::baselines::{delta_routing, route_delta, DeltaRouting};
use crate::config::{IncShrinkConfig, UpdateStrategy};
use crate::query::{
    view_count_query, NmBaselineEngine, Query, QueryEngine, QueryOutcome, QueryResult, ViewEngine,
};
use crate::shrink::ShrinkProtocol;
use crate::transform::{BudgetedRecord, PublicRelation, TransformProtocol};
use crate::view::{MaterializedView, ViewDefinition};
use incshrink_mpc::cost::{CostModel, CostReport, SimDuration};
use incshrink_mpc::party::ObservedEvent;
use incshrink_mpc::{PartyContext, PartyExec, PartyMode};
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::PlainRecord;
use incshrink_storage::{LogicalUpdate, OutsourcedStore, Relation, SecureCache, UploadBatch};
use incshrink_telemetry::CostDelta;
use incshrink_workload::{logical_join_counts_per_step, Dataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One per-step record of the simulation trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// The time step (1-based).
    pub time: u64,
    /// Ground-truth logical answer `q_t(D_t)`.
    pub true_count: u64,
    /// The view-based (or NM) answer returned to the analyst; `None` when no query was
    /// issued this step.
    pub answer: Option<u64>,
    /// L1 error of the answer (0 when no query was issued).
    pub l1_error: f64,
    /// Simulated query execution time in seconds (0 when no query was issued).
    pub qet_secs: f64,
    /// Simulated Transform time this step.
    pub transform_secs: f64,
    /// Simulated Shrink time this step.
    pub shrink_secs: f64,
    /// View length (real + dummy) after this step.
    pub view_len: usize,
    /// Real view entries after this step.
    pub view_real: usize,
    /// Secure-cache length after this step.
    pub cache_len: usize,
    /// Whether Shrink issued a view synchronization this step.
    pub synced: bool,
}

/// Outcome of one [`ShardPipeline::advance`] call (uploads + Transform + Shrink).
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStepOutcome {
    /// Simulated Transform time; `None` when the strategy did not invoke Transform
    /// this step (NM always, OTM after its one-time materialization).
    pub transform_duration: Option<SimDuration>,
    /// Oblivious-operation counts of this step's Transform invocation (`None`
    /// whenever `transform_duration` is).
    pub transform_report: Option<CostReport>,
    /// Simulated Shrink time; `None` for strategies that never run Shrink.
    pub shrink_duration: Option<SimDuration>,
    /// Whether Shrink performed DP work (synchronization or flush) this step.
    pub shrink_did_work: bool,
    /// Whether Shrink issued a view synchronization this step.
    pub synced: bool,
    /// Whether the independent cache-flush mechanism fired this step (a
    /// counter-inspecting action — the cluster cadence tests assert these scale with
    /// the shard arrival rate).
    pub flushed: bool,
}

/// One step's owner upload batches, ready for ingestion by a pipeline.
///
/// Normally built by the pipeline itself from its own workload
/// ([`ShardPipeline::upload_batches`]); a cluster running a shuffle phase instead
/// routes externally built batches in via [`ShardPipeline::advance_with_uploads`].
#[derive(Debug, Clone)]
pub struct StepUploads {
    /// The left relation's padded upload batch.
    pub left: UploadBatch,
    /// The right relation's padded upload batch (`None` when the right is public).
    pub right: Option<UploadBatch>,
}

/// The state leaving a shard when the elastic control plane migrates a set of
/// virtual key-range buckets to another owner: the real materialized-view
/// entries of the range, plus both sides' still-active records (each with the
/// number of steps it may still join at — its remaining contribution budget in
/// units of ω) so future cross-time join pairs form at the new owner.
///
/// Produced by [`ShardPipeline::export_partition`], consumed by
/// [`ShardPipeline::import_partition`]. The plaintext here is
/// protocol-internal, exactly like the recovery inside the oblivious shuffle:
/// the migration protocol pads the shipped size to a DP-noised target and
/// re-shares everything with fresh randomness before any server sees it.
#[derive(Debug, Clone, Default)]
pub struct MigratedPartition {
    /// Real view entries of the migrating key range (canonical
    /// `left fields ++ right fields` layout). The migration protocol may append
    /// dummy records here — they pad the shipped size to its public DP target
    /// and land in the destination view like Shrink's dummies do.
    pub view_entries: Vec<PlainRecord>,
    /// Active left-relation records with the steps each has left.
    pub active_left: Vec<BudgetedRecord>,
    /// Active right-relation records with the steps each has left.
    pub active_right: Vec<BudgetedRecord>,
    /// Arity of view entries (`left_arity + right_arity`), kept so dummy
    /// padding can be built even when no real view entry migrates.
    pub view_arity: usize,
    /// Padded rows of the source's public active windows (left, right) at export.
    /// How many of them moved is private, so the destination's windows grow by one
    /// block of these lengths each — the price of keeping Transform's join sizes
    /// public across a migration.
    pub window_rows: (usize, usize),
}

impl MigratedPartition {
    /// Number of real records (view entries counting only reals, plus both
    /// active sides) — the private quantity whose DP-noised release sets the
    /// shipped size.
    #[must_use]
    pub fn real_records(&self) -> usize {
        self.view_entries.iter().filter(|r| r.is_view).count()
            + self.active_left.len()
            + self.active_right.len()
    }

    /// Total records shipped, including dummy padding.
    #[must_use]
    pub fn shipped_records(&self) -> usize {
        self.view_entries.len() + self.active_left.len() + self.active_right.len()
    }
}

/// One server pair's complete view-maintenance stack: execution context, outsourced
/// store, secure cache, Transform, Shrink and the materialized view, stepped one
/// upload epoch at a time.
///
/// The cluster layer drives one of them per shard and answers queries by
/// scatter-gathering over their views; with one shard, that run is the
/// single-pair run.
pub struct ShardPipeline {
    dataset: Dataset,
    config: IncShrinkConfig,
    cost_model: CostModel,
    ctx: PartyContext,
    upload_rng: StdRng,
    store: OutsourcedStore,
    cache: SecureCache,
    view: MaterializedView,
    transform: TransformProtocol,
    shrink: ShrinkProtocol,
    truth: Vec<u64>,
    public_right_len: usize,
    left_arity: usize,
    right_arity: usize,
    /// Host wall-clock seconds spent inside Transform invocations so far.
    host_transform_secs: f64,
}

impl ShardPipeline {
    /// Build the pipeline for one (shard of a) workload, running the MPC
    /// parties in the mode `INCSHRINK_PARTY_MODE` selects (default: in-process).
    ///
    /// # Panics
    /// Panics when the configuration fails [`IncShrinkConfig::validate`].
    #[must_use]
    pub fn new(
        dataset: Dataset,
        config: IncShrinkConfig,
        seed: u64,
        cost_model: CostModel,
    ) -> Self {
        Self::with_party_mode(dataset, config, seed, cost_model, PartyMode::from_env())
    }

    /// Build the pipeline with an explicit party execution mode. Every mode
    /// replays the others bit for bit; they differ only in measured host time.
    ///
    /// # Panics
    /// Panics when the configuration fails [`IncShrinkConfig::validate`].
    #[must_use]
    pub fn with_party_mode(
        dataset: Dataset,
        config: IncShrinkConfig,
        seed: u64,
        cost_model: CostModel,
        party_mode: PartyMode,
    ) -> Self {
        if let Some(problem) = config.validate() {
            panic!("invalid IncShrink configuration: {problem}");
        }
        let steps = dataset.params.steps;
        let view_def = ViewDefinition::for_dataset(&dataset);
        let truth = logical_join_counts_per_step(&dataset, &view_def.as_query(), steps);

        let public_right = dataset.right_is_public.then(|| {
            PublicRelation::from_rows(dataset.right.updates().iter().map(|u| u.fields.as_slice()))
        });
        let public_right_len = public_right.as_ref().map_or(0, PublicRelation::len);

        let transform = TransformProtocol::new(
            view_def,
            config.truncation_bound,
            config.contribution_budget,
            public_right,
        );
        let shrink = ShrinkProtocol::new(&config);
        let left_arity = dataset.left.schema.arity();
        let right_arity = dataset.right.schema.arity();

        Self {
            ctx: PartyContext::new(party_mode, seed, cost_model),
            upload_rng: StdRng::seed_from_u64(seed ^ 0x0B17_A5E5),
            store: OutsourcedStore::new(transform.window_steps()),
            cache: SecureCache::new(),
            view: MaterializedView::new(),
            transform,
            shrink,
            truth,
            public_right_len,
            left_arity,
            right_arity,
            host_transform_secs: 0.0,
            dataset,
            config,
            cost_model,
        }
    }

    /// Host wall-clock seconds this pipeline has spent inside Transform invocations
    /// — a real measurement of this process, not a simulated quantity.
    #[must_use]
    pub fn host_transform_secs(&self) -> f64 {
        self.host_transform_secs
    }

    /// The configuration this pipeline runs with.
    #[must_use]
    pub fn config(&self) -> &IncShrinkConfig {
        &self.config
    }

    /// Number of upload epochs in the pipeline's workload.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.dataset.params.steps
    }

    /// The materialized view the analyst queries.
    #[must_use]
    pub fn view(&self) -> &MaterializedView {
        &self.view
    }

    /// Current secure-cache length.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The secure cache (its public layout and activity counters).
    #[must_use]
    pub fn cache(&self) -> &SecureCache {
        &self.cache
    }

    /// Cumulative real join pairs dropped by the ω truncation.
    #[must_use]
    pub fn truncation_losses(&self) -> u64 {
        self.transform.truncation_losses()
    }

    /// Total simulated MPC time this pipeline's context has accumulated.
    #[must_use]
    pub fn elapsed(&self) -> SimDuration {
        self.ctx.elapsed()
    }

    /// Which party execution mode this pipeline runs.
    #[must_use]
    pub fn party_mode(&self) -> PartyMode {
        self.ctx.mode()
    }

    /// Inject a party-level fault: one MPC party dies mid-protocol, surfacing
    /// as a panic carrying [`incshrink_mpc::PARTY_CRASH_MESSAGE`] on the next
    /// protocol round (immediately, in-process). Test hook for the cluster
    /// crash-propagation path.
    pub fn inject_party_crash(&mut self) {
        self.ctx.inject_party_crash();
    }

    /// Extract everything this shard holds for the virtual key-range `buckets`
    /// (see [`incshrink_oblivious::shuffle::bucket_of`]): real view entries,
    /// both sides' active records, and the steps each of them has left.
    /// Secure-cache rows in flight are *not* moved — they synchronize into this
    /// shard's view on their normal cadence, and cluster-level query answers
    /// are sums over all shards, so where a row materializes does not affect
    /// correctness.
    #[must_use]
    pub fn export_partition(&mut self, buckets: &[usize]) -> MigratedPartition {
        let mut mask = [false; incshrink_oblivious::shuffle::VIRTUAL_BUCKETS];
        for &b in buckets {
            mask[b] = true;
        }
        let moved = move |key: u32| mask[incshrink_oblivious::shuffle::bucket_of(key)];
        let left_key = self.dataset.left.schema.key_column;
        let view_entries = self.view.migrate_out(left_key, &moved);
        let (active_left, active_right) = self.transform.export_active(&moved);
        MigratedPartition {
            view_entries,
            active_left,
            active_right,
            view_arity: self.left_arity + self.right_arity,
            window_rows: self.transform.window_rows(),
        }
    }

    /// Adopt a migrated partition: re-share the view entries (reals plus the
    /// dummy padding the migration protocol added), take each side's active
    /// records in as one window block padded to the source's public window length,
    /// stamped with the steps they have left. `seed` derives the re-sharing
    /// randomness — the driver draws it from the migration rng, so sequential and
    /// actor drivers replay identically and no party randomness is consumed.
    pub fn import_partition(&mut self, partition: MigratedPartition, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        if !partition.view_entries.is_empty() {
            self.view.migrate_in(SharedArrayPair::share_records(
                &partition.view_entries,
                &mut rng,
            ));
        }
        let sides = [
            (Relation::Left, &partition.active_left, self.left_arity),
            (Relation::Right, &partition.active_right, self.right_arity),
        ];
        for ((relation, active, arity), rows) in sides
            .into_iter()
            .zip([partition.window_rows.0, partition.window_rows.1])
        {
            let moved: Vec<LogicalUpdate> = active
                .iter()
                .map(|(rec, _)| LogicalUpdate {
                    id: rec.id,
                    relation,
                    arrival: 0,
                    fields: rec.fields.clone(),
                })
                .collect();
            let moved: Vec<&LogicalUpdate> = moved.iter().collect();
            self.store.adopt(UploadBatch::from_updates(
                relation, 0, &moved, arity, rows, &mut rng,
            ));
        }
        self.transform.import_active(
            partition.active_left,
            partition.active_right,
            partition.window_rows,
        );
        self.debug_assert_windows_agree();
    }

    /// The store's physical window and the lengths Transform prices are two views
    /// of one public quantity.
    fn debug_assert_windows_agree(&self) {
        debug_assert_eq!(
            self.transform.window_rows(),
            (
                self.store.relation(Relation::Left).window_rows(),
                self.store.relation(Relation::Right).window_rows(),
            ),
            "Transform prices a window the store does not hold"
        );
    }

    /// Ground-truth logical answer over this pipeline's (shard of the) data at step
    /// `t` (1-based; `t = 0` is the empty database).
    ///
    /// # Panics
    /// Panics when `t` exceeds the workload horizon — error metrics computed against
    /// a silently wrong truth would be worse than failing fast.
    #[must_use]
    pub fn true_count(&self, t: u64) -> u64 {
        if t == 0 {
            return 0;
        }
        self.truth[(t - 1) as usize]
    }

    /// Execute the counting query over this pipeline's view: one oblivious scan.
    #[must_use]
    pub fn query(&self) -> QueryResult {
        view_count_query(&self.view, &self.cost_model)
    }

    /// The typed query engine over this pipeline's materialized view: the analyst
    /// entry point for [`Query`]s beyond the hardwired count.
    #[must_use]
    pub(crate) fn query_engine(&self) -> ViewEngine<'_> {
        ViewEngine::new(&self.view, self.cost_model)
    }

    /// Execute a typed analyst query over this pipeline's view.
    #[must_use]
    pub fn execute_query(&self, query: &Query) -> QueryOutcome {
        self.query_engine().execute(query)
    }

    /// Answer the analyst's `query` at step `t` the way this pipeline's strategy
    /// does: the NM baseline recomputes (and exactly answers) the full join, every
    /// other strategy scans its materialized view.
    #[must_use]
    pub fn answer_query(&self, query: &Query, t: u64) -> QueryOutcome {
        match self.config.strategy {
            UpdateStrategy::NonMaterialized => self.nm_engine(t).execute(query),
            _ => self.execute_query(query),
        }
    }

    /// The NM-baseline engine over this pipeline's accumulated outsourced data at
    /// step `t`: prices the full oblivious join and answers the counting query with
    /// the logical ground truth (the join recomputes it exactly).
    #[must_use]
    pub fn nm_engine(&self, t: u64) -> NmBaselineEngine<'static> {
        let n_left = self.store.relation(Relation::Left).len() as u64;
        let n_right = if self.dataset.right_is_public {
            self.public_right_len as u64
        } else {
            self.store.relation(Relation::Right).len() as u64
        };
        NmBaselineEngine::for_count(
            n_left,
            n_right,
            (self.left_arity + self.right_arity) as u64,
            self.config.truncation_bound,
            self.cost_model,
            self.true_count(t),
        )
    }

    /// Simulated cost of answering the query without a view (NM baseline) over this
    /// pipeline's accumulated outsourced data.
    #[must_use]
    pub fn nm_query_duration(&self) -> SimDuration {
        self.nm_engine(0).execute(&Query::count()).qet
    }

    /// Build this step's padded owner upload batches from the pipeline's own
    /// workload — the default upload path, factored out so a cluster shuffle phase
    /// can substitute externally routed batches via
    /// [`Self::advance_with_uploads`].
    pub fn upload_batches(&mut self, t: u64) -> StepUploads {
        let left_updates = self.dataset.left.arrivals_at(t);
        let left = UploadBatch::from_updates(
            Relation::Left,
            t,
            &left_updates,
            self.left_arity,
            self.dataset.left_batch_size,
            &mut self.upload_rng,
        );
        let right = if self.dataset.right_is_public {
            None
        } else {
            let right_updates = self.dataset.right.arrivals_at(t);
            Some(UploadBatch::from_updates(
                Relation::Right,
                t,
                &right_updates,
                self.right_arity,
                self.dataset.right_batch_size,
                &mut self.upload_rng,
            ))
        };
        StepUploads { left, right }
    }

    /// Move one step's upload batches into the store.
    fn ingest(&mut self, uploads: StepUploads) {
        self.store.ingest(uploads.left);
        if let Some(batch) = uploads.right {
            self.store.ingest(batch);
        }
    }

    /// Run one upload epoch: owner uploads, Transform (strategy dependent) and Shrink
    /// (DP strategies only). Queries are issued separately via [`Self::query`] so a
    /// cluster driver can scatter-gather them across shards.
    pub fn advance(&mut self, t: u64) -> PipelineStepOutcome {
        let uploads = self.upload_batches(t);
        self.advance_with_uploads(t, uploads)
    }

    /// Run one upload epoch over externally provided upload batches — the ingest
    /// hook for cluster drivers whose shuffle phase re-routes records to the shard
    /// owning their join key before maintenance. [`Self::advance`] is exactly
    /// `advance_with_uploads(t, self.upload_batches(t))`, so co-partitioned
    /// trajectories are unchanged by the refactor.
    pub fn advance_with_uploads(&mut self, t: u64, uploads: StepUploads) -> PipelineStepOutcome {
        // Telemetry is read-only with respect to the simulated state: the scope
        // stamps emitted events with `t`, the span measures host time only.
        let _step_scope = incshrink_telemetry::step_scope(t);
        let _step_span = incshrink_telemetry::span!("pipeline.step");
        let mut outcome = PipelineStepOutcome::default();

        // --- Owner uploads (fixed-size padded batches every step): kept for
        // Transform when the strategy maintains the view, otherwise handed straight
        // to the store.
        let ingest_span = incshrink_telemetry::span!("ingest");
        self.ctx.observe_both(ObservedEvent::UploadBatch {
            time: t,
            count: uploads.left.len(),
        });
        if let Some(batch) = &uploads.right {
            self.ctx.observe_both(ObservedEvent::UploadBatch {
                time: t,
                count: batch.len(),
            });
        }
        let routing = delta_routing(self.config.strategy, t);
        let maintained = routing != DeltaRouting::NoTransform && routing != DeltaRouting::Drop;
        let uploads = if maintained {
            Some(uploads)
        } else {
            self.ingest(uploads);
            None
        };
        drop(ingest_span);

        // --- Transform (strategy dependent), once per upload step. OTM after its
        // one-time materialization and NM only ingest: owners still upload, but the
        // servers perform no view maintenance work.
        if let Some(uploads) = uploads {
            let mut transform_span = incshrink_telemetry::span!("transform");
            let started = std::time::Instant::now();
            let transform_outcome =
                self.transform
                    .invoke(&mut self.ctx, &uploads.left, uploads.right.as_ref());
            self.host_transform_secs += started.elapsed().as_secs_f64();
            transform_span.record_sim_secs(transform_outcome.duration.as_secs_f64());
            transform_span.record_cost(CostDelta {
                window_rows: transform_outcome.window_rows as u64,
                ..transform_outcome.report.into()
            });
            // The step's batches become the newest blocks of the store's window.
            let ingest_span = incshrink_telemetry::span!("ingest");
            self.ingest(uploads);
            self.debug_assert_windows_agree();
            drop(ingest_span);
            outcome.transform_duration = Some(transform_outcome.duration);
            outcome.transform_report = Some(transform_outcome.report);
            // Algorithm 1 line 7, σ ← σ ‖ ΔV, is part of Transform and of its span.
            self.ctx.observe_both(ObservedEvent::CacheAppend {
                time: t,
                count: transform_outcome.delta.len(),
            });
            if let Some(delta) = route_delta(routing, transform_outcome.delta, &mut self.view) {
                self.cache.write(delta);
            }
            drop(transform_span);
        }

        // --- Shrink (DP strategies only).
        if self.config.strategy.uses_shrink() {
            let mut shrink_span = incshrink_telemetry::span!("shrink");
            let before = self.cache.stats();
            let shrink_outcome =
                self.shrink
                    .step(&mut self.ctx, &mut self.cache, &mut self.view, t);
            let after = self.cache.stats();
            shrink_span.record_sim_secs(shrink_outcome.duration.as_secs_f64());
            shrink_span.record_cost(CostDelta {
                merges: after.merges - before.merges,
                merged_rows: after.merged_rows - before.merged_rows,
                ..shrink_outcome.report.into()
            });
            drop(shrink_span);
            outcome.shrink_duration = Some(shrink_outcome.duration);
            outcome.shrink_did_work = shrink_outcome.updated || shrink_outcome.flushed;
            outcome.synced = shrink_outcome.updated;
            outcome.flushed = shrink_outcome.flushed;
        }

        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_workload::{TpcDsGenerator, WorkloadParams};

    #[test]
    #[should_panic(expected = "invalid IncShrink configuration")]
    fn invalid_config_is_rejected() {
        let dataset = TpcDsGenerator::new(WorkloadParams {
            steps: 60,
            view_entries_per_step: 2.7,
            seed: 21,
        })
        .generate();
        let mut cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
        cfg.epsilon = -1.0;
        let _ = ShardPipeline::new(dataset, cfg, 1, CostModel::default());
    }
}
