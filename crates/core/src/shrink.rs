//! The Shrink protocols: `sDPTimer` (Algorithm 2) and `sDPANT` (Algorithm 3), plus the
//! independent cache-flush mechanism of Section 5.2.1.
//!
//! Both protocols synchronize a DP-noised number of entries from the secure cache into
//! the materialized view. The Laplace noise is generated *jointly*: each server
//! contributes a uniformly random word, and the combined randomness determines the
//! noise, so no single (semi-honest, non-colluding) server can predict or bias it. The
//! cache read always fetches real tuples before dummies (Figure 3), which is how the
//! protocol sheds a subset of the exhaustive padding while preserving the noised true
//! cardinality.

use crate::config::{IncShrinkConfig, UpdateStrategy};
use crate::transform::CARDINALITY_SHARE;
use crate::view::MaterializedView;
use incshrink_dp::joint::{joint_laplace_noise, joint_noised_size};
use incshrink_mpc::cost::{CostReport, SimDuration};
use incshrink_mpc::party::ObservedEvent;
use incshrink_mpc::PartyExec;
use incshrink_storage::SecureCache;

/// Name under which the (scaled) noisy threshold is secret-shared on both servers.
pub const NOISY_THRESHOLD_SHARE: &str = "noisy_threshold";
/// Fixed-point scale used to secret-share the (fractional) noisy threshold as a word.
const THRESHOLD_SCALE: f64 = 1024.0;

/// Result of one Shrink step.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShrinkOutcome {
    /// Whether a view synchronization was performed this step.
    pub updated: bool,
    /// The DP-noised read size used for the synchronization (0 when not updated).
    pub read_size: usize,
    /// Whether an independent cache flush was performed this step.
    pub flushed: bool,
    /// Oblivious-operation counts of this step.
    pub report: CostReport,
    /// Simulated execution time of this step.
    pub duration: SimDuration,
}

/// The Shrink protocol state for the DP strategies.
#[derive(Debug)]
pub struct ShrinkProtocol {
    epsilon: f64,
    contribution_bound: u64,
    strategy: UpdateStrategy,
    flush_interval: u64,
    flush_size: usize,
    ant_initialized: bool,
    updates_issued: u64,
}

impl ShrinkProtocol {
    /// Create the protocol from the framework configuration.
    #[must_use]
    pub fn new(config: &IncShrinkConfig) -> Self {
        Self {
            epsilon: config.epsilon,
            contribution_bound: config.contribution_budget,
            strategy: config.strategy,
            flush_interval: config.flush_interval,
            flush_size: config.flush_size,
            ant_initialized: false,
            updates_issued: 0,
        }
    }

    /// Number of view synchronizations issued so far.
    #[must_use]
    pub fn updates_issued(&self) -> u64 {
        self.updates_issued
    }

    fn store_noisy_threshold(&self, ctx: &mut impl PartyExec, threshold: f64) {
        let scaled = (threshold.max(0.0) * THRESHOLD_SCALE).round() as u32;
        ctx.reshare_and_store(NOISY_THRESHOLD_SHARE, scaled);
    }

    fn load_noisy_threshold(&self, ctx: &mut impl PartyExec) -> f64 {
        ctx.recover_named(NOISY_THRESHOLD_SHARE)
            .map_or(0.0, |w| f64::from(w) / THRESHOLD_SCALE)
    }

    fn refresh_ant_threshold(&mut self, ctx: &mut impl PartyExec, theta: f64) {
        // Algorithm 3 line 2/11: θ̃ ← JointNoise(S0, S1, b, ε1/2, θ) with ε1 = ε/2.
        let epsilon1 = self.epsilon / 2.0;
        let _mech = incshrink_telemetry::mechanism_scope("ant.threshold");
        let noisy = joint_laplace_noise(ctx, self.contribution_bound as f64, epsilon1 / 2.0, theta);
        self.store_noisy_threshold(ctx, noisy);
    }

    fn synchronize(
        &mut self,
        ctx: &mut impl PartyExec,
        cache: &mut SecureCache,
        view: &mut MaterializedView,
        noise_epsilon: f64,
        time: u64,
    ) -> usize {
        let counter = ctx.recover_named(CARDINALITY_SHARE).unwrap_or(0);
        let read_size = joint_noised_size(
            ctx,
            self.contribution_bound as f64,
            noise_epsilon,
            u64::from(counter),
        ) as usize;
        let fetched = cache.read(read_size, ctx.meter());
        let fetched_len = fetched.len();
        let fetched_real = fetched.true_cardinality() as u32;
        view.append(fetched);
        // Both servers observe the synchronized (DP-noised) size — this is exactly the
        // leakage the SIM-CDP proof simulates.
        ctx.observe_both(ObservedEvent::ViewSync {
            time,
            count: fetched_len,
        });
        // Decrement the counter by the cardinality actually synchronized and re-share
        // it. Real entries a negative noise draw left in the cache stay counted, so
        // the next synchronization picks them up instead of stranding them until a
        // flush (resetting to zero here makes the deferred backlog a reflected random
        // walk that grows with the number of synchronizations, which inverts the
        // paper's Figure 6 crossover for the frequently-updating sDPANT).
        ctx.reshare_and_store(CARDINALITY_SHARE, counter.saturating_sub(fetched_real));
        self.updates_issued += 1;
        read_size
    }

    fn maybe_flush(
        &mut self,
        ctx: &mut impl PartyExec,
        cache: &mut SecureCache,
        view: &mut MaterializedView,
        time: u64,
    ) -> bool {
        if self.flush_interval == 0 || time == 0 || time % self.flush_interval != 0 {
            return false;
        }
        let fetched = cache.flush(self.flush_size, ctx.meter());
        let count = fetched.len();
        view.append(fetched);
        ctx.observe_both(ObservedEvent::CacheFlush { time, count });
        // The flush empties the cache entirely (the prefix is synchronized, the
        // remainder recycled), so no counted entries remain afterwards: reset the
        // counter to zero rather than decrementing by the synchronized prefix, which
        // would leave the recycled entries counted forever.
        if ctx.recover_named(CARDINALITY_SHARE).is_some() {
            ctx.reshare_and_store(CARDINALITY_SHARE, 0);
        }
        true
    }

    /// Run one Shrink step at logical time `time`.
    pub fn step(
        &mut self,
        ctx: &mut impl PartyExec,
        cache: &mut SecureCache,
        view: &mut MaterializedView,
        time: u64,
    ) -> ShrinkOutcome {
        let mut outcome = ShrinkOutcome::default();
        match self.strategy {
            UpdateStrategy::DpTimer { interval } if time > 0 && time % interval == 0 => {
                // Algorithm 2: sz ← c + Lap(b/ε).
                let _mech = incshrink_telemetry::mechanism_scope("timer.sync");
                outcome.read_size = self.synchronize(ctx, cache, view, self.epsilon, time);
                outcome.updated = true;
            }
            UpdateStrategy::DpAnt { threshold } => {
                let epsilon1 = self.epsilon / 2.0;
                let epsilon2 = self.epsilon / 2.0;
                if !self.ant_initialized {
                    self.refresh_ant_threshold(ctx, threshold);
                    self.ant_initialized = true;
                }
                // Algorithm 3 lines 5-7: compare the noised counter with the noised
                // threshold.
                let counter = ctx.recover_named(CARDINALITY_SHARE).unwrap_or(0);
                let noisy_counter = {
                    let _mech = incshrink_telemetry::mechanism_scope("ant.counter");
                    joint_laplace_noise(
                        ctx,
                        self.contribution_bound as f64,
                        epsilon1 / 4.0,
                        f64::from(counter),
                    )
                };
                let noisy_threshold = self.load_noisy_threshold(ctx);
                if noisy_counter >= noisy_threshold {
                    let _mech = incshrink_telemetry::mechanism_scope("ant.sync");
                    outcome.read_size = self.synchronize(ctx, cache, view, epsilon2, time);
                    outcome.updated = true;
                    // Lines 11-12: refresh the noisy threshold with fresh randomness.
                    self.refresh_ant_threshold(ctx, threshold);
                }
            }
            _ => {
                // Non-DP strategies do not run Shrink.
            }
        }
        outcome.flushed = self.maybe_flush(ctx, cache, view, time);
        let (report, duration) = ctx.charge();
        outcome.report = report;
        outcome.duration = duration;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_mpc::cost::CostModel;
    use incshrink_mpc::{PartyContext, PartyMode};
    use incshrink_secretshare::arrays::SharedArrayPair;
    use incshrink_secretshare::tuple::PlainRecord;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(strategy: UpdateStrategy, epsilon: f64) -> IncShrinkConfig {
        IncShrinkConfig {
            epsilon,
            truncation_bound: 1,
            contribution_budget: 10,
            strategy,
            flush_interval: 50,
            flush_size: 5,
            query_interval: 1,
            transform_batch: 1,
        }
    }

    fn delta(real: usize, dummy: usize, seed: u64) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut records: Vec<PlainRecord> = (0..real)
            .map(|i| PlainRecord::real(vec![i as u32, 0, 0, 0]))
            .collect();
        records.extend((0..dummy).map(|_| PlainRecord::dummy(4)));
        SharedArrayPair::share_records(&records, &mut rng)
    }

    fn ctx_with_counter(seed: u64, counter: u32) -> PartyContext {
        let mut ctx = PartyContext::new(PartyMode::InProcess, seed, CostModel::default());
        ctx.reshare_and_store(CARDINALITY_SHARE, counter);
        let _ = ctx.charge();
        ctx
    }

    #[test]
    fn timer_updates_only_on_interval() {
        let mut ctx = ctx_with_counter(1, 6);
        let cfg = config(UpdateStrategy::DpTimer { interval: 10 }, 100.0);
        let mut shrink = ShrinkProtocol::new(&cfg);
        let mut cache = SecureCache::new();
        let mut view = MaterializedView::new();
        cache.write(delta(6, 14, 1));

        for t in 1..=9 {
            let out = shrink.step(&mut ctx, &mut cache, &mut view, t);
            assert!(!out.updated, "no update before the interval");
        }
        let out = shrink.step(&mut ctx, &mut cache, &mut view, 10);
        assert!(out.updated);
        assert_eq!(shrink.updates_issued(), 1);
        // With ε = 100 the noise is negligible: read size ≈ true counter (6).
        assert!((out.read_size as i64 - 6).abs() <= 1);
        assert!(view.true_cardinality() >= 5);
        // Counter reset after the update.
        assert_eq!(ctx.recover_named(CARDINALITY_SHARE), Some(0));
        assert!(out.duration.as_secs_f64() > 0.0);
    }

    #[test]
    fn ant_updates_when_counter_reaches_threshold() {
        let mut ctx = ctx_with_counter(2, 0);
        let cfg = config(UpdateStrategy::DpAnt { threshold: 20.0 }, 50.0);
        let mut shrink = ShrinkProtocol::new(&cfg);
        let mut cache = SecureCache::new();
        let mut view = MaterializedView::new();

        // Counter far below the threshold: no update.
        let out = shrink.step(&mut ctx, &mut cache, &mut view, 1);
        assert!(!out.updated);

        // Raise the counter above the threshold; the protocol must fire.
        ctx.reshare_and_store(CARDINALITY_SHARE, 40);
        let _ = ctx.charge();
        cache.write(delta(40, 20, 2));
        let out = shrink.step(&mut ctx, &mut cache, &mut view, 2);
        assert!(out.updated);
        assert!(out.read_size >= 30, "read size near the true cardinality");
        assert_eq!(ctx.recover_named(CARDINALITY_SHARE), Some(0));
        assert!(view.true_cardinality() >= 30);
    }

    #[test]
    fn ant_threshold_is_secret_shared() {
        let mut ctx = ctx_with_counter(3, 0);
        let cfg = config(UpdateStrategy::DpAnt { threshold: 30.0 }, 1.5);
        let mut shrink = ShrinkProtocol::new(&cfg);
        let mut cache = SecureCache::new();
        let mut view = MaterializedView::new();
        let _ = shrink.step(&mut ctx, &mut cache, &mut view, 1);

        let servers = ctx.local_servers().expect("in-process servers");
        let s0 = servers.s0.load_share(NOISY_THRESHOLD_SHARE).unwrap();
        let s1 = servers.s1.load_share(NOISY_THRESHOLD_SHARE).unwrap();
        let recovered = f64::from(s0.word ^ s1.word) / THRESHOLD_SCALE;
        // The recovered threshold is θ plus Laplace noise; it must exist and be
        // non-negative, and neither share alone is the scaled threshold.
        assert!(recovered >= 0.0);
        assert!(s0.word != s1.word);
    }

    #[test]
    fn cache_flush_runs_on_its_own_schedule() {
        let mut ctx = ctx_with_counter(4, 0);
        let mut cfg = config(UpdateStrategy::DpTimer { interval: 1000 }, 1.5);
        cfg.flush_interval = 10;
        cfg.flush_size = 3;
        let mut shrink = ShrinkProtocol::new(&cfg);
        let mut cache = SecureCache::new();
        let mut view = MaterializedView::new();
        cache.write(delta(2, 20, 3));

        let mut flushes = 0;
        for t in 1..=30 {
            let out = shrink.step(&mut ctx, &mut cache, &mut view, t);
            assert!(!out.updated, "timer interval is far away");
            if out.flushed {
                flushes += 1;
            }
        }
        assert_eq!(flushes, 3);
        // The first flush fetched the 2 real entries (plus a dummy) and recycled the
        // rest; the view now holds them.
        assert_eq!(view.true_cardinality(), 2);
        assert!(view.len() >= 3);
        assert!(cache.is_empty() || cache.len() < 22);
    }

    #[test]
    fn non_dp_strategies_never_shrink() {
        for strategy in [
            UpdateStrategy::ExhaustivePadding,
            UpdateStrategy::OneTimeMaterialization,
            UpdateStrategy::NonMaterialized,
        ] {
            let mut ctx = ctx_with_counter(5, 100);
            let mut cfg = config(strategy, 1.5);
            cfg.flush_interval = 1_000_000;
            let mut shrink = ShrinkProtocol::new(&cfg);
            let mut cache = SecureCache::new();
            let mut view = MaterializedView::new();
            cache.write(delta(5, 5, 4));
            for t in 1..=20 {
                let out = shrink.step(&mut ctx, &mut cache, &mut view, t);
                assert!(!out.updated);
                assert!(!out.flushed);
            }
            assert!(view.is_empty());
        }
    }

    #[test]
    fn small_epsilon_gives_noisier_read_sizes() {
        // Compare the spread of read sizes across many timer updates for two epsilons.
        let spread = |epsilon: f64, seed: u64| {
            let mut ctx = ctx_with_counter(seed, 0);
            let cfg = config(UpdateStrategy::DpTimer { interval: 1 }, epsilon);
            let mut shrink = ShrinkProtocol::new(&cfg);
            let mut cache = SecureCache::new();
            let mut view = MaterializedView::new();
            let mut sizes = Vec::new();
            for t in 1..=120 {
                ctx.reshare_and_store(CARDINALITY_SHARE, 10);
                let _ = ctx.charge();
                cache.write(delta(10, 10, t));
                let out = shrink.step(&mut ctx, &mut cache, &mut view, t);
                sizes.push(out.read_size as f64);
            }
            let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
            sizes.iter().map(|s| (s - mean).abs()).sum::<f64>() / sizes.len() as f64
        };
        assert!(spread(0.2, 7) > spread(20.0, 7));
    }
}
