//! The party execution layer: *who hosts the two servers*.
//!
//! Every protocol round in the Transform/Shrink hot path goes through the
//! [`PartyExec`] trait, whose one implementor is
//! [`PartyContext`](crate::PartyContext). A [`PartyMode`] picks where that
//! context keeps the two servers:
//!
//! * **inprocess** — both inside the context struct, the zero-overhead default;
//! * **actor** — two OS threads per context, each owning one server and
//!   exchanging messages with the other over `std::sync::mpsc`;
//! * **tcp** — the same actor pair over a real loopback socket with the
//!   length-prefixed codec, so actual socket bytes can be reconciled against
//!   metered bytes.
//!
//! This module holds the mode, the trait, and the actor host: the party thread
//! loop and the driver's handle to it. The trait is sealed: the mode-equality
//! contract (see [`crate::runtime`]) is proven for the one context and external
//! implementations could silently break it.

use crate::channel::{PartyEndpoint, WireCounters};
use crate::cost::{CostMeter, CostModel, CostReport, SimDuration};
use crate::party::ObservedEvent;
use crate::runtime::JointRandomness;
use incshrink_secretshare::PartyId;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// Panic message used when a party thread dies mid-protocol (its channel
/// disconnected or a crash was injected). The cluster runtime's crash
/// propagation matches shard-thread panics and party-thread deaths through the
/// same teardown path, and tests grep for this prefix.
pub const PARTY_CRASH_MESSAGE: &str = "party thread exited mid-round";

/// Where a [`PartyContext`](crate::PartyContext) hosts the two servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartyMode {
    /// Both parties inside the context struct — zero overhead, the default.
    InProcess,
    /// Two OS threads exchanging messages over `std::sync::mpsc`.
    Actor,
    /// Two OS threads over a loopback TCP socket (length-prefixed codec).
    Tcp,
}

impl PartyMode {
    /// Every mode, in the order benches sweep them.
    pub const ALL: [PartyMode; 3] = [PartyMode::InProcess, PartyMode::Actor, PartyMode::Tcp];

    /// Stable lower-case label (`inprocess` / `actor` / `tcp`), matching the
    /// `INCSHRINK_PARTY_MODE` values.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PartyMode::InProcess => "inprocess",
            PartyMode::Actor => "actor",
            PartyMode::Tcp => "tcp",
        }
    }

    /// Parse a mode label.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        Some(match label {
            "inprocess" => PartyMode::InProcess,
            "actor" => PartyMode::Actor,
            "tcp" => PartyMode::Tcp,
            _ => return None,
        })
    }

    /// The mode selected by `INCSHRINK_PARTY_MODE` (default: `inprocess`).
    ///
    /// # Panics
    /// Panics on an unrecognized value — a misspelled mode silently falling
    /// back to in-process would fake a distributed result.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("INCSHRINK_PARTY_MODE") {
            Ok(s) => Self::parse(&s).unwrap_or_else(|| {
                panic!("INCSHRINK_PARTY_MODE must be inprocess|actor|tcp, got '{s}'")
            }),
            Err(_) => PartyMode::InProcess,
        }
    }
}

impl std::fmt::Display for PartyMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

mod sealed {
    /// Seals [`PartyExec`](super::PartyExec) to this crate's one context.
    pub trait Sealed {}
    impl Sealed for crate::PartyContext {}
}

/// The protocol surface the Transform/Shrink hot path needs from whoever runs
/// the two parties. Sealed — see the module docs.
pub trait PartyExec: sealed::Sealed {
    /// Jointly sample randomness (each party contributes fresh uniform words,
    /// XOR-combined).
    fn joint_randomness(&mut self) -> JointRandomness;
    /// Re-share `value` with party-contributed masks and store each party's
    /// share under `name`.
    fn reshare_and_store(&mut self, name: &str, value: u32);
    /// Recover a named shared value; `None` (charging nothing) when never
    /// stored.
    fn recover_named(&mut self, name: &str) -> Option<u32>;
    /// The driver-side meter on which oblivious operators record their gates.
    fn meter(&mut self) -> &mut CostMeter;
    /// Drain the meter (operator gates + the bytes and rounds of the joint
    /// operations since the previous charge), convert to simulated time,
    /// advance the clock, and emit the `party_bytes` observable for the charge
    /// window. Protocols call this at the end of each invocation so
    /// per-invocation timings can be attributed to Transform / Shrink / queries.
    /// In tcp mode it also asserts that the real socket bytes reconcile with
    /// the metered ones.
    fn charge(&mut self) -> (CostReport, SimDuration);
    /// The model [`Self::charge`] prices reports with: what a protocol choosing
    /// between equivalent oblivious operators minimises.
    fn cost_model(&self) -> CostModel;
    /// Current logical time step.
    fn time_step(&self) -> u64;
    /// Advance the logical time step by one epoch.
    fn advance_time_step(&mut self);
    /// Total simulated time elapsed.
    fn elapsed(&self) -> SimDuration;
    /// Record an event both servers observe in the clear (transcripts +
    /// telemetry mirror).
    fn observe_both(&mut self, event: ObservedEvent);
}

/// A command from the protocol driver to one party actor.
#[derive(Debug)]
pub(crate) enum PartyCommand {
    JointRandomness,
    Reshare {
        name: String,
        value: u32,
    },
    Recover {
        name: String,
    },
    /// Fire-and-forget transcript append — no reply, no protocol round.
    Observe(ObservedEvent),
    /// Leave the actor loop now: the clean end of a simulation when the driver
    /// is dropping its handle, an injected fault when it is not.
    Exit,
}

/// One party actor's answer to a driver command.
#[derive(Debug, PartialEq)]
pub(crate) enum PartyReply {
    Randomness(JointRandomness),
    Done,
    Recovered(Option<u32>),
}

/// The party actor loop: owns one [`PartyEndpoint`], executes its half of each
/// joint operation against the peer actor, answers the driver with the result
/// and what it has really written to the link so far. Exits silently on any
/// link error — peer gone, malformed frame, socket failure — dropping the reply
/// sender is the death notice the driver turns into a panic.
fn party_main(
    mut endpoint: PartyEndpoint,
    commands: Receiver<PartyCommand>,
    replies: Sender<(PartyReply, WireCounters)>,
) {
    for command in commands {
        let reply = match command {
            PartyCommand::JointRandomness => {
                endpoint.joint_randomness().map(PartyReply::Randomness)
            }
            PartyCommand::Reshare { name, value } => endpoint
                .reshare_and_store(&name, value)
                .map(|()| PartyReply::Done),
            PartyCommand::Recover { name } => {
                endpoint.recover_named(&name).map(PartyReply::Recovered)
            }
            PartyCommand::Observe(event) => {
                endpoint.server_mut().observe(event);
                continue;
            }
            PartyCommand::Exit => return,
        };
        let Ok(reply) = reply else { return };
        if replies.send((reply, endpoint.wire())).is_err() {
            return; // driver gone (it panicked or was torn down)
        }
    }
}

/// The driver's handle to one party actor thread.
#[derive(Debug)]
pub(crate) struct PartyHandle {
    id: PartyId,
    commands: Sender<PartyCommand>,
    replies: Receiver<(PartyReply, WireCounters)>,
    thread: Option<JoinHandle<()>>,
    /// The party's wire counters as of its latest reply.
    wire: WireCounters,
}

impl PartyHandle {
    pub(crate) fn spawn(endpoint: PartyEndpoint) -> Self {
        let id = endpoint.id();
        let (command_tx, command_rx) = channel();
        let (reply_tx, reply_rx) = channel();
        let thread = std::thread::Builder::new()
            .name(format!("party-{id:?}"))
            .spawn(move || party_main(endpoint, command_rx, reply_tx))
            .expect("spawn party thread");
        Self {
            id,
            commands: command_tx,
            replies: reply_rx,
            thread: Some(thread),
            wire: WireCounters::default(),
        }
    }

    pub(crate) fn id(&self) -> PartyId {
        self.id
    }

    pub(crate) fn wire(&self) -> WireCounters {
        self.wire
    }

    pub(crate) fn send(&self, command: PartyCommand, step: u64) {
        if self.commands.send(command).is_err() {
            panic!("{PARTY_CRASH_MESSAGE} (party {:?}, step {step})", self.id);
        }
    }

    fn recv(&mut self, step: u64) -> PartyReply {
        let Ok((reply, wire)) = self.replies.recv() else {
            panic!("{PARTY_CRASH_MESSAGE} (party {:?}, step {step})", self.id);
        };
        self.wire = wire;
        reply
    }
}

impl Drop for PartyHandle {
    fn drop(&mut self) {
        let _ = self.commands.send(PartyCommand::Exit);
        if let Some(thread) = self.thread.take() {
            // A party thread never panics; if it died from a disconnect the
            // driver has already panicked, so don't double up.
            let _ = thread.join();
        }
    }
}

/// One protocol round: the same command to both actors, the one reply they
/// must agree on back. The `party.send`/`party.recv` spans time the
/// driver-side channel cost — host time only, invisible to the canonical trace.
///
/// # Panics
/// Panics with [`PARTY_CRASH_MESSAGE`] when a party thread has died, and when
/// the two parties computed different results.
pub(crate) fn round(
    parties: &mut [PartyHandle; 2],
    step: u64,
    make: impl Fn() -> PartyCommand,
) -> PartyReply {
    {
        let _send = incshrink_telemetry::span!("party.send", step = step);
        for party in &*parties {
            party.send(make(), step);
        }
    }
    let _recv = incshrink_telemetry::span!("party.recv", step = step);
    let r0 = parties[0].recv(step);
    let r1 = parties[1].recv(step);
    assert_eq!(r0, r1, "party actors disagree on the round's result");
    r0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, PartyContext};

    /// Drive the identical protocol sequence through every mode and assert
    /// bit-for-bit equal outputs, charges and clocks.
    fn drive(ctx: &mut impl PartyExec) -> (Vec<u32>, Vec<Option<u32>>, Vec<CostReport>) {
        let mut words = Vec::new();
        let mut recovered = Vec::new();
        let mut reports = Vec::new();
        for step in 0..4u64 {
            assert_eq!(ctx.time_step(), step);
            words.push(ctx.joint_randomness().word);
            ctx.reshare_and_store("counter", 100 + step as u32);
            ctx.meter().compares(17);
            ctx.meter().swaps(3, 2);
            recovered.push(ctx.recover_named("counter"));
            recovered.push(ctx.recover_named("absent"));
            let (report, _) = ctx.charge();
            reports.push(report);
            ctx.advance_time_step();
        }
        (words, recovered, reports)
    }

    #[test]
    fn all_modes_replay_in_process_bit_for_bit() {
        let mut reference = PartyContext::new(PartyMode::InProcess, 0x5EED, CostModel::default());
        let expected = drive(&mut reference);
        for mode in [PartyMode::Actor, PartyMode::Tcp] {
            let mut ctx = PartyContext::new(mode, 0x5EED, CostModel::default());
            let got = drive(&mut ctx);
            assert_eq!(got, expected, "{mode} diverged from in-process");
            assert_eq!(ctx.elapsed(), reference.elapsed(), "{mode} clock");
        }
    }

    #[test]
    fn mode_labels_round_trip_and_env_parses() {
        for mode in PartyMode::ALL {
            assert_eq!(PartyMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(PartyMode::parse("garbage"), None);
    }

    #[test]
    fn injected_crash_panics_with_the_crash_message() {
        for mode in [PartyMode::Actor, PartyMode::Tcp] {
            let result = std::panic::catch_unwind(|| {
                let mut ctx = PartyContext::new(mode, 9, CostModel::default());
                ctx.inject_party_crash();
                // The next protocol round observes the dead party.
                for _ in 0..4 {
                    let _ = ctx.joint_randomness();
                }
            });
            let payload = result.expect_err("crash must propagate");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                message.contains(PARTY_CRASH_MESSAGE),
                "{mode}: unexpected panic payload: {message}"
            );
        }
    }

    #[test]
    fn in_process_crash_injection_panics_immediately() {
        let result = std::panic::catch_unwind(|| {
            let mut ctx = PartyContext::new(PartyMode::InProcess, 9, CostModel::default());
            ctx.inject_party_crash();
        });
        assert!(result.is_err());
    }
}
