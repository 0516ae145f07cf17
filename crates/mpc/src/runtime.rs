//! The party protocol execution context.
//!
//! [`PartyContext`] is the one way to run the two servers: it owns the driver
//! state — cost meter, cost model, simulated clock, logical step — exactly once,
//! plus the two servers wherever the [`PartyMode`] puts them (inside the struct,
//! or on two actor threads hosted by [`crate::exec`]). Protocols (Transform,
//! Shrink, query evaluation) borrow the context through [`PartyExec`], perform
//! share-level work, record their oblivious-operation counts, and advance
//! simulated time. [`JointRandomness`] implements the paper's joint noise-seed
//! generation, in which each server contributes a uniform word and the protocol
//! combines them with XOR so that neither server can predict or bias the result
//! (Section 5.2).
//!
//! All three modes produce bit-for-bit identical protocol outputs, cost
//! reports, telemetry observables and ε-ledgers for the same seed and workload;
//! they differ only in *measured host time* (and, for tcp, in real bytes hitting
//! a socket). This holds because rng draws happen on each party's own `Server`
//! in the same order wherever it lives, and because everything that is priced —
//! operator gates and the bytes of the three joint operations alike, and the
//! round of each circuit they form — is charged on the one driver meter, never by
//! the transport.

use crate::channel::{endpoint_pair, endpoint_pair_tcp, WIRE_FRAME_OVERHEAD};
use crate::cost::{CostMeter, CostModel, CostReport, SimDuration};
use crate::exec::{
    round, PartyCommand, PartyExec, PartyHandle, PartyMode, PartyReply, PARTY_CRASH_MESSAGE,
};
use crate::party::{mirror_to_telemetry, ObservedEvent, ServerPair};
use incshrink_secretshare::SharePair;
use serde::{Deserialize, Serialize};

/// Joint randomness produced by both servers inside MPC.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JointRandomness {
    /// XOR of the two 32-bit contributions, `z = z0 ⊕ z1`.
    pub word: u32,
    /// XOR of two 64-bit contributions for higher-precision fixed-point seeds.
    pub word64: u64,
}

impl JointRandomness {
    /// Convert the 64-bit joint word into a fixed-point value strictly inside (0, 1).
    ///
    /// Algorithm 2 line 5: `r ← fixed_point(z)`, `r ∈ (0, 1)`. Zero is mapped to the
    /// smallest representable positive value so `ln(r)` stays finite.
    #[must_use]
    pub fn unit_interval(&self) -> f64 {
        let denom = u64::MAX as f64 + 2.0;
        ((self.word64 as f64) + 1.0) / denom
    }

    /// The sign bit derived from the most significant bit of the 32-bit joint word
    /// (Algorithm 2 line 6).
    #[must_use]
    pub fn sign(&self) -> f64 {
        if self.word & 0x8000_0000 != 0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// Metered bytes of one joint randomness draw: a 4-byte and an 8-byte
/// contribution from each server.
const JOINT_RANDOMNESS_BYTES: u64 = 2 * (4 + 8);
/// Metered bytes of one reshare: one 4-byte mask from each server.
const RESHARE_BYTES: u64 = 2 * 4;
/// Metered bytes of one named recovery: one 4-byte share from each server.
const RECOVER_BYTES: u64 = 2 * 4;

/// Where the two non-colluding servers live.
#[derive(Debug)]
enum Parties {
    /// Both inside this struct: joint operations are function calls.
    Local(ServerPair),
    /// Each on its own actor thread, linked by mpsc channels or (`tcp`) a
    /// loopback socket: joint operations are message exchanges.
    Remote {
        tcp: bool,
        handles: [PartyHandle; 2],
    },
}

/// Execution context for a simulated 2PC protocol, in any [`PartyMode`].
#[derive(Debug)]
pub struct PartyContext {
    parties: Parties,
    /// Operator gates since the previous charge, priced with the run's model.
    meter: CostMeter,
    clock: SimDuration,
    time_step: u64,
    /// Channel bytes metered since the previous charge.
    channel_bytes: u64,
    /// Channel bytes metered over the whole run, up to the previous charge —
    /// the priced side of the tcp wire reconciliation.
    charged_channel_bytes: u64,
}

impl PartyContext {
    /// Build a context of the given mode from a master seed and a cost model.
    /// All modes replay each other bit for bit from the same seed.
    ///
    /// # Panics
    /// Panics when the loopback socket pair cannot be set up in tcp mode.
    #[must_use]
    pub fn new(mode: PartyMode, seed: u64, cost_model: CostModel) -> Self {
        let parties = match mode {
            PartyMode::InProcess => Parties::Local(ServerPair::new(seed)),
            PartyMode::Actor => Parties::Remote {
                tcp: false,
                handles: endpoint_pair(seed).map(PartyHandle::spawn),
            },
            PartyMode::Tcp => Parties::Remote {
                tcp: true,
                handles: endpoint_pair_tcp(seed)
                    .expect("loopback socket pair for tcp party mode")
                    .map(PartyHandle::spawn),
            },
        };
        Self {
            parties,
            meter: CostMeter::priced(cost_model),
            clock: SimDuration::ZERO,
            time_step: 0,
            channel_bytes: 0,
            charged_channel_bytes: 0,
        }
    }

    /// Which mode this context runs.
    #[must_use]
    pub fn mode(&self) -> PartyMode {
        match self.parties {
            Parties::Local(_) => PartyMode::InProcess,
            Parties::Remote { tcp: false, .. } => PartyMode::Actor,
            Parties::Remote { tcp: true, .. } => PartyMode::Tcp,
        }
    }

    /// The two servers (share stores, transcripts) when they live inside this
    /// context; `None` in the actor modes, where that state lives on the party
    /// threads.
    #[must_use]
    pub fn local_servers(&self) -> Option<&ServerPair> {
        match &self.parties {
            Parties::Local(servers) => Some(servers),
            Parties::Remote { .. } => None,
        }
    }

    /// Inject a party-level fault at the current step: in the actor modes one
    /// party thread exits mid-protocol and the next joint operation panics with
    /// [`PARTY_CRASH_MESSAGE`]; in-process, the death is immediate (there is
    /// no thread whose absence could surface later).
    pub fn inject_party_crash(&mut self) {
        match &self.parties {
            Parties::Local(_) => {
                panic!(
                    "{PARTY_CRASH_MESSAGE} (in-process, step {})",
                    self.time_step
                )
            }
            Parties::Remote { handles, .. } => handles[1].send(PartyCommand::Exit, self.time_step),
        }
    }

    /// Price one joint operation's party-to-party bytes on the driver meter,
    /// wherever the servers live; the circuit they join is charged its round on close.
    fn channel(&mut self, bytes: u64) {
        self.meter.bytes(bytes);
        self.channel_bytes += bytes;
    }
}

impl PartyExec for PartyContext {
    fn joint_randomness(&mut self) -> JointRandomness {
        let joint = match &mut self.parties {
            Parties::Local(servers) => JointRandomness {
                word: servers.s0.random_word() ^ servers.s1.random_word(),
                word64: servers.s0.random_word64() ^ servers.s1.random_word64(),
            },
            Parties::Remote { handles, .. } => {
                match round(handles, self.time_step, || PartyCommand::JointRandomness) {
                    PartyReply::Randomness(joint) => joint,
                    other => panic!("protocol desync: expected Randomness, got {other:?}"),
                }
            }
        };
        self.channel(JOINT_RANDOMNESS_BYTES);
        joint
    }

    fn reshare_and_store(&mut self, name: &str, value: u32) {
        match &mut self.parties {
            Parties::Local(servers) => {
                let z0 = servers.s0.random_word();
                let z1 = servers.s1.random_word();
                servers.store_share_pair(name, SharePair::reshare_joint(value, z0, z1));
            }
            Parties::Remote { handles, .. } => {
                let reply = round(handles, self.time_step, || PartyCommand::Reshare {
                    name: name.to_string(),
                    value,
                });
                assert_eq!(reply, PartyReply::Done, "protocol desync: expected Done");
            }
        }
        self.channel(RESHARE_BYTES);
    }

    fn recover_named(&mut self, name: &str) -> Option<u32> {
        let value = match &mut self.parties {
            Parties::Local(servers) => servers.load_share_pair(name).map(|pair| pair.recover()),
            Parties::Remote { handles, .. } => {
                let command = || PartyCommand::Recover {
                    name: name.to_string(),
                };
                match round(handles, self.time_step, command) {
                    PartyReply::Recovered(value) => value,
                    other => panic!("protocol desync: expected Recovered, got {other:?}"),
                }
            }
        };
        if value.is_some() {
            self.channel(RECOVER_BYTES);
        }
        value
    }

    fn meter(&mut self) -> &mut CostMeter {
        &mut self.meter
    }

    fn charge(&mut self) -> (CostReport, SimDuration) {
        let report = self.meter.take();
        let duration = self.meter.model().simulate(&report);
        self.clock += duration;
        let bytes = std::mem::take(&mut self.channel_bytes);
        self.charged_channel_bytes += bytes;
        if let Parties::Remote { tcp, handles } = &self.parties {
            for party in handles {
                let wire = party.wire();
                // Real sockets: every byte on the wire must be explained by
                // frame overhead plus this party's half of the metered charge —
                // the cost model as measurement, not claim. mpsc moves values,
                // not bytes.
                let priced = if *tcp {
                    WIRE_FRAME_OVERHEAD * wire.messages_sent + self.charged_channel_bytes / 2
                } else {
                    0
                };
                assert_eq!(
                    wire.bytes_sent,
                    priced,
                    "party {:?}: socket bytes do not reconcile with metered bytes",
                    party.id()
                );
            }
        }
        // Derived from the metered charges, not the transport, so every mode
        // emits the identical event stream.
        if bytes > 0 && incshrink_telemetry::installed() {
            incshrink_telemetry::observe(
                incshrink_telemetry::ObserveKind::PartyBytes,
                self.time_step,
                bytes,
            );
        }
        (report, duration)
    }

    fn time_step(&self) -> u64 {
        self.time_step
    }

    fn advance_time_step(&mut self) {
        self.time_step += 1;
    }

    fn elapsed(&self) -> SimDuration {
        self.clock
    }

    fn observe_both(&mut self, event: ObservedEvent) {
        match &mut self.parties {
            Parties::Local(servers) => servers.observe_both(event),
            Parties::Remote { handles, .. } => {
                // Telemetry is mirrored driver-side so the event stream keeps
                // program order relative to spans and ε entries; the actors
                // only append to their transcripts (fire-and-forget, no
                // protocol round).
                mirror_to_telemetry(&event);
                for party in handles {
                    party.send(PartyCommand::Observe(event.clone()), self.time_step);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn in_process(seed: u64) -> PartyContext {
        PartyContext::new(PartyMode::InProcess, seed, CostModel::default())
    }

    #[test]
    fn joint_randomness_in_unit_interval() {
        let mut ctx = in_process(11);
        for _ in 0..256 {
            let r = ctx.joint_randomness();
            let u = r.unit_interval();
            assert!(u > 0.0 && u < 1.0, "u = {u}");
            assert!(r.sign() == 1.0 || r.sign() == -1.0);
        }
    }

    #[test]
    fn charge_drains_meter_and_advances_clock() {
        let mut ctx = in_process(1);
        ctx.meter().compares(1000);
        let (report, d1) = ctx.charge();
        assert_eq!(report.secure_compares, 1000);
        assert!(d1.as_secs_f64() > 0.0);
        assert_eq!(ctx.elapsed(), d1);
        // Meter is empty now.
        let (r2, d2) = ctx.charge();
        assert!(r2.is_empty());
        assert_eq!(d2, SimDuration::ZERO);
    }

    #[test]
    fn reshare_and_recover_named_value() {
        let mut ctx = in_process(5);
        ctx.reshare_and_store("counter", 321);
        assert_eq!(ctx.recover_named("counter"), Some(321));
        assert_eq!(ctx.recover_named("absent"), None);
        // Each server's stored share alone is not the value (overwhelmingly likely).
        let servers = ctx.local_servers().expect("in-process servers");
        let s0 = servers.s0.load_share("counter").unwrap();
        let s1 = servers.s1.load_share("counter").unwrap();
        assert_eq!(s0.word ^ s1.word, 321);
    }

    #[test]
    fn time_steps_advance() {
        let mut ctx = in_process(2);
        assert_eq!(ctx.time_step(), 0);
        ctx.advance_time_step();
        ctx.advance_time_step();
        assert_eq!(ctx.time_step(), 2);
    }

    proptest! {
        #[test]
        fn prop_unit_interval_strictly_inside(word64: u64, word: u32) {
            let r = JointRandomness { word, word64 };
            let u = r.unit_interval();
            prop_assert!(u > 0.0);
            prop_assert!(u < 1.0);
        }
    }
}
