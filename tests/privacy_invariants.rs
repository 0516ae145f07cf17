//! Privacy-facing integration tests: what the servers observe, what the ledger allows,
//! and how the protocols' visible behaviour lines up with the DP leakage profile.

use incshrink_cluster::ShardedSimulation;
use incshrink_dp::accountant::{MechanismApplication, PrivacyAccountant};
use incshrink_dp::bounds::timer_deferred_bound;
use incshrink_dp::mechanisms::{run_leakage, TimerLeakage, UpdateLeakage};
use incshrink_mpc::cost::CostModel;
use incshrink_mpc::{PartyContext, PartyExec, PartyMode};
use incshrink_telemetry::{install, Event, InMemory, ObserveKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn observed_upload_sizes_are_data_independent() {
    // A sparse and a dense run padded to the same batch sizes must show the
    // servers the same UploadBatch sizes, step by step, except where a dense
    // batch overflows its pad: such a batch uploads every real record, so its
    // size is the arrival count (the overflow leak the fixed-size upload item
    // of the ROADMAP closes). This pins that leak until it is closed.
    use incshrink::prelude::*;
    let dense = TpcDsGenerator::new(WorkloadParams {
        steps: 30,
        view_entries_per_step: 2.7,
        seed: 1,
    })
    .generate();
    let sparse = to_sparse(&dense, 0.1, 9);
    let pads = [8usize, 6];
    let padded = |mut ds: Dataset| {
        ds.left_batch_size = pads[0];
        ds.right_batch_size = pads[1];
        ds
    };
    let (sparse, dense) = (padded(sparse), padded(dense));

    // (step, size) of every UploadBatch observation, left before right within a step.
    let uploads = |ds: &Dataset| -> Vec<(u64, u64)> {
        let sink = Arc::new(InMemory::new());
        let guard = install(sink.clone());
        let cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
        let _ = ShardedSimulation::new(ds.clone(), cfg, 1, 5).run();
        drop(guard);
        sink.take()
            .into_iter()
            .filter_map(|event| match event {
                Event::Observe(o) if o.kind == ObserveKind::UploadBatch => Some((o.step, o.count)),
                _ => None,
            })
            .collect()
    };
    let (a, b) = (uploads(&sparse), uploads(&dense));
    let expected: Vec<(u64, u64)> = (1..=30u64)
        .flat_map(|t| pads.map(|pad| (t, pad as u64)))
        .collect();
    assert_eq!(a, expected, "the sparse run never overflows a pad");
    assert_eq!(b.len(), a.len());

    let mut overflows = Vec::new();
    for (i, (&(t, sparse_size), &(step, dense_size))) in a.iter().zip(&b).enumerate() {
        assert_eq!(step, t, "observation {i}: both runs upload in step order");
        let relation = if i % 2 == 0 {
            &dense.left
        } else {
            &dense.right
        };
        let arrivals = relation.arrivals_at(t).len() as u64;
        if arrivals > sparse_size {
            assert_eq!(
                dense_size, arrivals,
                "step {t}: an overflow uploads every record"
            );
            overflows.push((t, i % 2, arrivals));
        } else {
            assert_eq!(dense_size, sparse_size, "step {t}: a size the data decides");
        }
    }
    // Two steps overflow, both on the right relation (pad 6): (step, side, arrivals).
    assert_eq!(overflows, [(13, 1, 8), (30, 1, 7)]);
}

#[test]
fn named_shares_on_each_server_are_masked() {
    let mut ctx = PartyContext::new(PartyMode::InProcess, 4, CostModel::default());
    // Re-share the same value many times; the individual share words observed by S0
    // must not be constant (they are masked with fresh joint randomness each time).
    let mut s0_words = Vec::new();
    for _ in 0..32 {
        ctx.reshare_and_store("cardinality", 1234);
        let servers = ctx.local_servers().expect("in-process servers");
        s0_words.push(servers.s0.load_share("cardinality").unwrap().word);
    }
    s0_words.sort_unstable();
    s0_words.dedup();
    assert!(s0_words.len() > 16, "shares must be re-randomised");
}

#[test]
fn contribution_budget_bounds_lifetime_epsilon() {
    // Drive 500 Transform invocations, each followed by an ε-mechanism release: one
    // record takes part in exactly b/ω of them, so the accountant's budgeted bound
    // stays flat while the naive bound diverges.
    use incshrink::transform::TransformProtocol;
    use incshrink::ViewDefinition;
    use incshrink_storage::{LogicalUpdate, Relation, UploadBatch};

    let (omega, budget) = (1u64, 10u64);
    let view = ViewDefinition {
        left_key: 0,
        left_time: 1,
        right_key: 0,
        right_time: 1,
        window: 1_000,
        left_bits: vec![10, 10],
        right_bits: vec![10, 10],
    };
    let mut transform = TransformProtocol::new(view, omega, budget, None);
    let mut ctx = PartyContext::new(PartyMode::InProcess, 7, CostModel::default());
    let mut rng = StdRng::seed_from_u64(7);
    let mut batch = |relation, time: u64, id: Option<u64>| {
        let updates: Vec<LogicalUpdate> = id
            .into_iter()
            .map(|id| LogicalUpdate {
                id,
                relation,
                arrival: time,
                fields: vec![5, time as u32],
            })
            .collect();
        let refs: Vec<&LogicalUpdate> = updates.iter().collect();
        UploadBatch::from_updates(time, &refs, 2, 1, &mut rng)
    };
    let mut accountant = PrivacyAccountant::new();
    let (mut uses, mut joined) = (0u64, 0usize);
    for t in 1..=500u64 {
        // Record 7 arrives at step 1; a matching right record arrives every step.
        let left = batch(Relation::Left, t, (t == 1).then_some(7));
        let right = batch(Relation::Right, t, Some(1_000 + t));
        joined += transform.invoke(&mut ctx, &left, Some(&right)).new_entries;
        if transform.active_counts().0 == 1 {
            uses += 1;
        }
        accountant.record(MechanismApplication {
            mechanism_epsilon: 0.15,
            stability: 1,
            disjoint: false,
        });
    }
    assert_eq!(uses, budget / omega, "record retired after its budget");
    assert_eq!(
        joined as u64,
        budget / omega - 1,
        "it joins only while active"
    );
    assert!(accountant.unbudgeted_epsilon() > 70.0);
    assert!((accountant.budgeted_epsilon(budget) - 1.5).abs() < 1e-9);
}

#[test]
fn protocol_sync_sizes_match_the_leakage_mechanism_distribution() {
    // The sDPTimer protocol's released sizes should look like M_timer's outputs:
    // same release times, noise centred on the true per-interval counts.
    use incshrink::prelude::*;
    let ds = TpcDsGenerator::new(WorkloadParams {
        steps: 100,
        view_entries_per_step: 2.7,
        seed: 10,
    })
    .generate();
    let cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
    let report = ShardedSimulation::new(ds.clone(), cfg, 1, 21).run();
    let protocol_sync_times: Vec<u64> = report
        .steps
        .iter()
        .filter(|s| s.synced)
        .map(|s| s.time)
        .collect();
    assert!(!protocol_sync_times.is_empty());
    assert!(protocol_sync_times.iter().all(|t| t % 10 == 0));

    // The leakage mechanism with the same parameters fires at exactly the same times.
    let mut rng = StdRng::seed_from_u64(77);
    let view_def_truth: Vec<u64> = {
        let q = JoinQuery { window: 10 };
        let per_step = incshrink_workload::logical_join_counts_per_step(&ds, &q, 100);
        let mut deltas = Vec::with_capacity(per_step.len());
        let mut prev = 0;
        for &c in &per_step {
            deltas.push(c - prev);
            prev = c;
        }
        deltas
    };
    let mut mechanism = TimerLeakage::new(10, 10, 1.5);
    let trace = run_leakage(&mut mechanism, &view_def_truth, &mut rng);
    let mech_times: Vec<u64> = trace
        .iter()
        .filter(|e| e.released.is_some())
        .map(|e| e.time)
        .collect();
    assert_eq!(mech_times, protocol_sync_times);
    assert!((mechanism.epsilon() - 1.5).abs() < 1e-12);
}

#[test]
fn deferred_data_respects_theorem_4_bound() {
    // Run sDPTimer and check the amount of deferred (cached, real) data after each
    // update stays within the Theorem-4 envelope at β = 0.01 — a high-probability
    // bound, so a single run at moderate k should comfortably satisfy it.
    use incshrink::prelude::*;
    let ds = TpcDsGenerator::new(WorkloadParams {
        steps: 120,
        view_entries_per_step: 2.7,
        seed: 11,
    })
    .generate();
    let cfg = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
    let report = ShardedSimulation::new(ds, cfg, 1, 31).run();

    let mut k = 0u64;
    for step in &report.steps {
        if step.synced {
            k += 1;
            let deferred = step.true_count.saturating_sub(step.view_real as u64);
            let bound = timer_deferred_bound(10, 1.5, k.max(4), 0.01)
                // allow for the entries that arrived after the sync in the same step
                + 3.0 * 10.0;
            assert!(
                (deferred as f64) <= bound,
                "step {}: deferred {} exceeds bound {:.1}",
                step.time,
                deferred,
                bound
            );
        }
    }
    assert!(k > 5);
}
