//! Cross-mode trajectory equality: the party execution layer's contract is
//! that the *way* the two MPC servers run — in-process struct calls, actor
//! threads over mpsc, actor threads over a loopback TCP socket — is invisible
//! to everything the simulation computes. These tests drive full single-pair
//! simulations through all three [`PartyMode`]s and assert the `RunReport`s,
//! canonical observable traces (server-visible sizes + ε-ledger), and trace
//! fingerprints are identical, across random workloads, both Shrink
//! strategies, and both transform batch settings. Every `charge()` of the tcp
//! runs also asserts that the bytes really written to the socket reconcile
//! exactly with the metered ones.

use std::sync::Arc;

use incshrink::prelude::*;
use incshrink_mpc::PartyMode;
use incshrink_telemetry::audit::{canonical_observable_trace, canonical_trace_fingerprint};
use incshrink_telemetry::{install, Event, InMemory};
use proptest::prelude::*;

/// Run `f` with an [`InMemory`] collector installed; return its result and the
/// captured trace.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    let sink = Arc::new(InMemory::new());
    let guard = install(sink.clone());
    let out = f();
    drop(guard);
    (out, sink.take())
}

fn run_mode(
    dataset: &Dataset,
    config: IncShrinkConfig,
    seed: u64,
    mode: PartyMode,
) -> (RunReport, Vec<Event>) {
    traced(|| {
        Simulation::new(dataset.clone(), config, seed)
            .with_party_mode(mode)
            .run()
    })
}

/// Assert the full mode-equality contract for one (dataset, config, seed):
/// identical reports, identical canonical traces, identical fingerprints.
fn assert_modes_agree(dataset: &Dataset, config: IncShrinkConfig, seed: u64) {
    let (reference, reference_events) = run_mode(dataset, config, seed, PartyMode::InProcess);
    let reference_fp = canonical_trace_fingerprint(&reference_events);
    for mode in [PartyMode::Actor, PartyMode::Tcp] {
        let (report, events) = run_mode(dataset, config, seed, mode);
        assert_eq!(
            report, reference,
            "{mode} simulation diverged from in-process"
        );
        assert_eq!(
            canonical_observable_trace(&events),
            canonical_observable_trace(&reference_events),
            "{mode} observable trace diverged from in-process"
        );
        assert_eq!(
            canonical_trace_fingerprint(&events),
            reference_fp,
            "{mode} trace fingerprint diverged from in-process"
        );
    }
}

#[test]
fn fig4_style_runs_are_party_mode_invariant() {
    // The fig4 shape: both workloads, their default strategies, both batch
    // settings — the exact cells the paper's Figure 4 sweeps.
    let tpcds = TpcDsGenerator::new(WorkloadParams {
        steps: 30,
        view_entries_per_step: 2.7,
        seed: 21,
    })
    .generate();
    let cpdb = CpdbGenerator::new(WorkloadParams {
        steps: 24,
        view_entries_per_step: 9.8,
        seed: 22,
    })
    .generate();
    let timer = IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 10 });
    let ant = IncShrinkConfig::cpdb_default(UpdateStrategy::DpAnt { threshold: 30.0 });
    for (dataset, config) in [(&tpcds, timer), (&cpdb, ant)] {
        for k in [1u64, 4] {
            assert_modes_agree(dataset, config.with_transform_batch(k), 0xF164);
        }
    }
}

proptest! {
    // Random workloads through the same contract: arbitrary seeds, horizons,
    // rates, strategies and batch settings must never expose a transport- or
    // schedule-dependent divergence between the three execution modes.
    #[test]
    fn random_runs_are_party_mode_invariant(
        steps in 6u64..16,
        rate in 1.0f64..6.0,
        data_seed in 0u64..1024,
        sim_seed in 0u64..1024,
        ant_strategy in any::<bool>(),
        k_batched in any::<bool>(),
    ) {
        let dataset = TpcDsGenerator::new(WorkloadParams {
            steps,
            view_entries_per_step: rate,
            seed: data_seed,
        })
        .generate();
        let config = if ant_strategy {
            IncShrinkConfig::tpcds_default(UpdateStrategy::DpAnt { threshold: 12.0 })
        } else {
            IncShrinkConfig::tpcds_default(UpdateStrategy::DpTimer { interval: 5 })
        }
        .with_transform_batch(if k_batched { 4 } else { 1 });
        assert_modes_agree(&dataset, config, sim_seed);
    }
}
