//! The round rule: a protocol step is one garbled circuit, whose round count does
//! not depend on its gates, so a round is charged only where a circuit ends — where
//! the host learns a released value (a synchronization size, sDPANT's comparison
//! bit) or where the step's charge closes it. Pinned per phase, in every party mode.

use incshrink::prelude::*;
use incshrink_mpc::cost::{CostModel, CostReport};
use incshrink_mpc::{PartyContext, PartyExec, PartyMode};
use incshrink_oblivious::Network;
use incshrink_telemetry::{CostDelta, Event, InMemory};
use std::sync::Arc;

/// Per step of a 40-step TPC-ds run: whether it synchronized, whether it flushed,
/// and the cost of its `transform` and `shrink` spans.
type Trajectory = Vec<(bool, bool, Vec<(String, CostDelta)>)>;

fn run(strategy: UpdateStrategy, mode: PartyMode) -> (Trajectory, CostReport, CostReport) {
    let dataset = TpcDsGenerator::new(WorkloadParams {
        steps: 40,
        view_entries_per_step: 2.7,
        seed: 7,
    })
    .generate();
    let mut config = IncShrinkConfig::tpcds_default(strategy);
    config.flush_interval = 10;
    let mut pipeline =
        ShardPipeline::with_party_mode(dataset, config, 7, CostModel::default(), mode);
    let sink = Arc::new(InMemory::new());
    let guard = incshrink_telemetry::install(sink.clone());
    let mut steps = Vec::new();
    for t in 1..=40 {
        let outcome = pipeline.advance(t);
        let spans = sink.take().into_iter().filter_map(|event| match event {
            Event::Span(span) if span.name == "transform" || span.name == "shrink" => {
                Some((span.name, span.cost?))
            }
            _ => None,
        });
        steps.push((outcome.synced, outcome.flushed, spans.collect()));
    }
    drop(guard);
    let query = pipeline.execute_query(&Query::count()).report;
    let nm = pipeline.nm_engine(40).execute(&Query::count()).report;
    (steps, query, nm)
}

/// Transform is one round a step; a timer sync two (the released size, then the cut
/// and the counter update), a flush one, and an sDPANT step one for its released
/// comparison bit plus a sync's two; a query, view-based or NM, one. The reports are
/// equal in every party mode.
#[test]
fn each_phase_charges_the_rounds_of_its_circuits_in_every_mode() {
    let strategies = [
        (UpdateStrategy::DpTimer { interval: 4 }, 0),
        (UpdateStrategy::DpAnt { threshold: 8.0 }, 1),
    ];
    for (strategy, comparison) in strategies {
        let (reference, query, nm) = run(strategy, PartyMode::InProcess);
        let (mut syncs, mut lone_flushes) = (0, 0);
        for (t, (synced, flushed, spans)) in (1..).zip(&reference) {
            let rounds: Vec<(&str, u64)> = spans.iter().map(|(n, c)| (&n[..], c.rounds)).collect();
            let shrink = comparison + u64::from(*synced) + u64::from(*synced || *flushed);
            let want = [("transform", 1), ("shrink", shrink)];
            assert_eq!(
                rounds, want,
                "{strategy:?} t={t} sync={synced} flush={flushed}"
            );
            syncs += u64::from(*synced);
            lone_flushes += u64::from(*flushed && !*synced);
        }
        assert!(syncs > 1 && lone_flushes > 0, "{strategy:?}");
        assert_eq!((query.rounds, nm.rounds), (1, 1), "{strategy:?}");
        for mode in [PartyMode::Actor, PartyMode::Tcp] {
            let got = run(strategy, mode);
            assert!(
                got == (reference.clone(), query, nm),
                "{strategy:?}: {mode}"
            );
        }
    }
}

/// One step: a reshare, `networks` flag-keyed selections and `reshares` more
/// reshares, then the charge.
fn step_rounds(mode: PartyMode, networks: usize, reshares: usize) -> u64 {
    let mut ctx = PartyContext::new(mode, 3, CostModel::default());
    ctx.reshare_and_store("c", 1);
    for _ in 0..networks {
        Network::select(19, 2).charge_flag_keyed(3, ctx.meter());
    }
    for value in 0..reshares as u32 {
        ctx.reshare_and_store("c", value);
    }
    let _ = ctx.recover_named("c");
    ctx.charge().0.rounds
}

/// Another reshare or network inside one step adds gates and bytes, never a round.
#[test]
fn extra_work_inside_a_step_moves_no_round() {
    for mode in PartyMode::ALL {
        let base = step_rounds(mode, 1, 0);
        assert_eq!(base, 1, "{mode}");
        assert_eq!(step_rounds(mode, 1, 1), base, "{mode}: an extra reshare");
        assert_eq!(step_rounds(mode, 2, 0), base, "{mode}: an extra network");
    }
}
