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
//! Every transfer is priced in a [`incshrink_mpc::cost::CostReport`] (oblivious compaction scan of
//! the source view + shipped bytes + two rounds) and simulated wall-clock, so
//! `bench --bin elastic` can report what rebalancing actually costs.

use super::ElasticReport;
use incshrink::MigratedPartition;
use incshrink_dp::LaplaceMechanism;
use incshrink_mpc::cost::{CostMeter, CostModel};
use incshrink_oblivious::Network;
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
    /// view the extraction scanned.
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

        // Price the transfer: the extraction is an oblivious compaction scan
        // of the whole source view (the real network cannot touch only the
        // moving entries), plus shipping the padded partition and the two
        // rounds of the export/import handshake.
        let mut meter = CostMeter::new();
        let width = part.view_arity as u64 + 1;
        Network::sort(source_view_len).charge(width, &mut meter);
        meter.bytes(part.shipped_records() as u64 * width * 4);
        meter.round();
        meter.round();
        let cost = meter.report();
        self.report.migration_secs += self.cost_model.simulate(&cost).as_secs_f64();
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
        assert!(report.migration_secs > 0.0);
        assert!(report.migration_cost.bytes_communicated > 0);
        assert!((report.epsilon_spent - 0.5).abs() < 1e-12);

        let entries: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Epsilon(entry) => Some(entry),
                _ => None,
            })
            .collect();
        assert_eq!(entries.len(), 1, "one ledger entry per transfer");
        assert_eq!(entries[0].mechanism, "elastic.migrate");
        assert_eq!(entries[0].shard, Some(1));
        assert_eq!(entries[0].step, Some(4));
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
