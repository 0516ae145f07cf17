//! The oblivious view-migration protocol executor.
//!
//! A planned `BucketMove` changes which shard *routes* a key range;
//! this module moves the *state* — the materialized-view partition and the
//! active join-candidate records of the migrating buckets — from the old owner
//! to the new one without revealing the migrated key range's true size:
//!
//! 1. The source pipeline extracts the moving records
//!    ([`incshrink::ShardPipeline::export_partition`] — the recovery is
//!    protocol-internal, the same both-shares-meet idiom the shuffle route
//!    uses).
//! 2. The migrator pads the shipped view partition to a DP-noised target size
//!    with dummy view entries (`Lap(1/ε)` over the true record count; the ε is
//!    stamped into the ledger under the `elastic.migrate` mechanism, scoped to
//!    the destination shard), so the wire size is ε-DP in the migrated count.
//! 3. The destination re-shares everything with fresh randomness derived from
//!    the cluster seed ([`incshrink::ShardPipeline::import_partition`]) —
//!    never from party randomness, so all three party execution modes replay
//!    the same migration bit for bit.
//!
//! Every transfer is priced in a [`incshrink_mpc::cost::CostReport`] and simulated
//! wall-clock, so `bench --bin elastic` can report what rebalancing actually costs:
//! the mover flag of every source-view row (the shuffle's routing-tag circuit:
//! `mix64`, a one-hot demux over the virtual buckets, an AND with `isView`), the
//! order-preserving tight compaction of the whole source view on that flag
//! ([`Compaction`]), the shipped bytes and two rounds: one for the circuit that
//! ends where the migration size is released, one for the shipment. Both are
//! recorded on an `elastic.migrate` span.

use super::ElasticReport;
use incshrink::MigratedPartition;
use incshrink_dp::LaplaceMechanism;
use incshrink_mpc::cost::{CostMeter, CostModel};
use incshrink_oblivious::shuffle::VIRTUAL_BUCKETS;
use incshrink_oblivious::Compaction;
use incshrink_secretshare::tuple::PlainRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Executes planned bucket moves: DP-pads, prices and re-seeds each transfer.
#[derive(Debug)]
pub(crate) struct ViewMigrator {
    mechanism: LaplaceMechanism,
    rng: StdRng,
    cost_model: CostModel,
    report: ElasticReport,
}

impl ViewMigrator {
    /// A migrator spending `epsilon` per transfer's shipped-size release,
    /// deriving its noise and re-sharing seeds from the cluster `seed`.
    ///
    /// # Panics
    /// Panics when `epsilon` is not positive.
    #[must_use]
    pub fn new(epsilon: f64, seed: u64, cost_model: CostModel) -> Self {
        Self {
            mechanism: LaplaceMechanism::new(1.0, epsilon),
            rng: StdRng::seed_from_u64(seed ^ 0xE1A5_71C0_B5EE_D001),
            cost_model,
            report: ElasticReport {
                epsilon_migrate: epsilon,
                ..ElasticReport::default()
            },
        }
    }

    /// Prepare one exported partition for shipment to shard `to`: pad the view
    /// entries with dummies to a DP-noised size, stamp the release into the
    /// ε-ledger, price the transfer, and draw the destination's re-sharing
    /// seed. `source_view_len` is the (public, padded) length of the source
    /// view the extraction scanned. The scan is priced as the order-preserving
    /// [`Compaction`] of that view on the mover flag, which is how
    /// `MaterializedView::migrate_out` splits it: movers in order, then stayers
    /// in order.
    ///
    /// Returns the padded partition and the seed to pass to
    /// [`incshrink::ShardPipeline::import_partition`].
    pub(crate) fn prepare(
        &mut self,
        time: u64,
        to: usize,
        mut part: MigratedPartition,
        source_view_len: usize,
    ) -> (MigratedPartition, u64) {
        let reals = part.real_records();
        let _step = incshrink_telemetry::step_scope(time);
        let _shard = incshrink_telemetry::shard_scope(to as u64);
        let _mech = incshrink_telemetry::mechanism_scope("elastic.migrate");

        let noisy = self.mechanism.randomize_count(reals as u64, &mut self.rng) as usize;
        incshrink_telemetry::epsilon_spent(self.mechanism.epsilon, 1.0);
        self.report.epsilon_spent += self.mechanism.epsilon;
        let view_reals = part.view_entries.len();
        let padded_views = view_reals + noisy.max(reals).saturating_sub(reals);
        while part.view_entries.len() < padded_views {
            part.view_entries.push(PlainRecord::dummy(part.view_arity));
        }

        // Every source-view row's mover flag is the shuffle's routing tag: 4 adds
        // hash the key (`mix64`), one AND per virtual bucket demuxes it one-hot and
        // one more ANDs it with `isView`; the OR over the moving buckets' bits is
        // an XOR, free. The compaction covers the whole source view (the network
        // cannot touch only the moving rows); its swaps leave out the second
        // join-key copy, restored by a local copy of shares, as in the cache.
        let mut span = incshrink_telemetry::span!("elastic.migrate");
        let mut meter = CostMeter::new();
        let rows = source_view_len as u64;
        meter.adds(4 * rows);
        meter.ands(rows * (VIRTUAL_BUCKETS as u64 + 1));
        let payload = part.view_arity.saturating_sub(1) as u64;
        Compaction::new(source_view_len).charge(payload, &mut meter);
        // The noised migration size is released, then the padded partition ships.
        meter.release();
        let width = part.view_arity as u64 + 1;
        meter.bytes(part.shipped_records() as u64 * width * 4);
        let cost = meter.take();
        let secs = self.cost_model.simulate(&cost).as_secs_f64();
        span.record_cost(cost.into());
        span.record_sim_secs(secs);
        drop(span);
        self.report.migration_secs += secs;
        self.report.migration_cost += cost;

        self.report.migrations += 1;
        self.report.migrated_records += reals as u64;
        self.report.shipped_records += part.shipped_records() as u64;
        (part, self.rng.gen())
    }

    /// The migration half of the run's [`ElasticReport`].
    #[must_use]
    pub fn report(&self) -> ElasticReport {
        self.report.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink::transform::ActiveRecord;
    use incshrink_telemetry::{install, Event};
    use std::sync::Arc;

    fn partition(view_reals: usize, active: usize) -> MigratedPartition {
        MigratedPartition {
            view_entries: (0..view_reals)
                .map(|i| PlainRecord::real(vec![i as u32, 0, 0, 0]))
                .collect(),
            active_left: (0..active)
                .map(|i| {
                    (
                        ActiveRecord {
                            id: i as u64,
                            fields: vec![i as u32, 0],
                        },
                        3,
                    )
                })
                .collect(),
            active_right: Vec::new(),
            view_arity: 4,
            window_rows: (active, 0),
        }
    }

    #[test]
    fn transfers_are_padded_priced_and_ledger_stamped() {
        let sink = Arc::new(incshrink_telemetry::InMemory::default());
        let _guard = install(sink.clone());
        let mut migrator = ViewMigrator::new(0.5, 11, CostModel::default());

        let part = partition(6, 2);
        let (shipped, seed) = migrator.prepare(4, 1, part, 40);
        assert!(
            shipped.view_entries.len() >= 6,
            "padding never drops records"
        );
        assert!(shipped.view_entries.iter().skip(6).all(|r| !r.is_view));
        let _ = seed;

        let report = migrator.report();
        assert_eq!(report.migrations, 1);
        assert_eq!(report.migrated_records, 8, "6 view reals + 2 active");
        assert!(report.shipped_records >= 8);
        assert!((report.epsilon_spent - 0.5).abs() < 1e-12);

        // The mover flag of the 40 source-view rows (4 adds, 64 + 1 ANDs each),
        // the tight compaction of the 40 rows over the view's 4 words less the
        // second join-key copy, released with the migration size in one round, then
        // the shipped rows of 4 words and the flag in another.
        let mut expected = CostMeter::new();
        expected.adds(4 * 40);
        expected.ands(40 * 65);
        Compaction::new(40).charge(3, &mut expected);
        expected.release();
        expected.bytes(report.shipped_records * 5 * 4);
        let expected = expected.take();
        assert_eq!(expected.rounds, 2);
        assert_eq!(report.migration_cost, expected);
        let secs = CostModel::default().simulate(&expected).as_secs_f64();
        assert_eq!(report.migration_secs, secs);

        let events = sink.events();
        let entries: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Epsilon(entry) => Some(entry),
                _ => None,
            })
            .collect();
        assert_eq!(entries.len(), 1, "one ledger entry per transfer");
        assert_eq!(entries[0].mechanism, "elastic.migrate");
        assert_eq!(entries[0].shard, Some(1));
        assert_eq!(entries[0].step, Some(4));

        let spans: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span(span) if span.name == "elastic.migrate" => Some(span),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 1, "one span per transfer");
        assert_eq!((spans[0].step, spans[0].shard), (Some(4), Some(1)));
        assert_eq!(spans[0].cost, Some(expected.into()));
        assert_eq!(spans[0].sim_nanos, Some((secs * 1e9) as u64));
    }

    #[test]
    fn transfers_replay_per_seed() {
        let mut a = ViewMigrator::new(0.5, 11, CostModel::default());
        let mut b = ViewMigrator::new(0.5, 11, CostModel::default());
        let (pa, sa) = a.prepare(1, 0, partition(3, 1), 10);
        let (pb, sb) = b.prepare(1, 0, partition(3, 1), 10);
        assert_eq!(sa, sb, "re-sharing seeds derive from the cluster seed");
        assert_eq!(pa.view_entries.len(), pb.view_entries.len());
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn non_positive_epsilon_is_rejected() {
        let _ = ViewMigrator::new(0.0, 1, CostModel::default());
    }
}
