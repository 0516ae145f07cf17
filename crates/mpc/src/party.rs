//! The two non-colluding outsourcing servers.
//!
//! Each [`Server`] owns an independent random-number generator (so that "each server
//! chooses a value uniformly at random" steps are faithful to the protocol), a store of
//! named secret-shared words (the cardinality counter, the noisy threshold, ...), and a
//! transcript of the values it has *observed* in the clear. The transcript is what the
//! privacy tests inspect: anything visible to a single semi-honest server must be
//! explainable by the DP leakage profile.

use incshrink_secretshare::{PartyId, Share};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An event observed in the clear by a single server during protocol execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ObservedEvent {
    /// The server saw an upload of `count` (padded) records at `time`.
    UploadBatch {
        /// Logical time step of the upload.
        time: u64,
        /// Number of (exhaustively padded) records received.
        count: usize,
    },
    /// The server saw `count` records being appended to the secure cache at `time`.
    CacheAppend {
        /// Logical time step.
        time: u64,
        /// Number of padded records appended.
        count: usize,
    },
    /// The server saw a view synchronization of `count` records at `time`.
    ViewSync {
        /// Logical time step.
        time: u64,
        /// DP-noised number of records moved into the materialized view.
        count: usize,
    },
    /// The server saw a cache flush of `count` records at `time`.
    CacheFlush {
        /// Logical time step.
        time: u64,
        /// Fixed flush size.
        count: usize,
    },
}

/// One of the two outsourcing servers.
#[derive(Debug)]
pub struct Server {
    /// Which role this server plays.
    pub id: PartyId,
    rng: StdRng,
    stored_shares: HashMap<String, u32>,
    transcript: Vec<ObservedEvent>,
}

impl Server {
    /// Create a server with a deterministic seed (seeds differ per party).
    #[must_use]
    pub fn new(id: PartyId, seed: u64) -> Self {
        Self {
            id,
            rng: StdRng::seed_from_u64(
                seed ^ (id.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            stored_shares: HashMap::new(),
            transcript: Vec::new(),
        }
    }

    /// Draw a uniformly random 32-bit word (the `z_i` contributions of Algorithms 1-3).
    pub fn random_word(&mut self) -> u32 {
        self.rng.gen()
    }

    /// Draw a uniformly random 64-bit word.
    pub fn random_word64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// Store a named share (e.g. `"cardinality"` or `"noisy_threshold"`).
    pub fn store_share(&mut self, name: &str, share: Share) {
        debug_assert_eq!(share.holder, self.id);
        self.stored_shares.insert(name.to_string(), share.word);
    }

    /// Retrieve a previously stored named share.
    #[must_use]
    pub fn load_share(&self, name: &str) -> Option<Share> {
        self.stored_shares
            .get(name)
            .map(|&word| Share::new(word, self.id))
    }

    /// Record an event visible to this server in the clear.
    pub fn observe(&mut self, event: ObservedEvent) {
        self.transcript.push(event);
    }

    /// The full transcript of clear-text observations.
    #[must_use]
    pub fn transcript(&self) -> &[ObservedEvent] {
        &self.transcript
    }

    /// Number of named shares currently stored.
    #[must_use]
    pub fn stored_share_count(&self) -> usize {
        self.stored_shares.len()
    }
}

/// Both servers, bundled for protocol simulations.
#[derive(Debug)]
pub struct ServerPair {
    /// Server `S0`.
    pub s0: Server,
    /// Server `S1`.
    pub s1: Server,
}

impl ServerPair {
    /// Create both servers from a master seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            s0: Server::new(PartyId::S0, seed),
            s1: Server::new(PartyId::S1, seed.wrapping_add(0x5151_5151)),
        }
    }

    /// Mutable access to a server by id.
    pub fn get_mut(&mut self, id: PartyId) -> &mut Server {
        match id {
            PartyId::S0 => &mut self.s0,
            PartyId::S1 => &mut self.s1,
        }
    }

    /// Shared read access by id.
    #[must_use]
    pub fn get(&self, id: PartyId) -> &Server {
        match id {
            PartyId::S0 => &self.s0,
            PartyId::S1 => &self.s1,
        }
    }

    /// Record the same observation on both servers (events both can see, e.g. the
    /// padded size of an upload batch). This is the single choke point through
    /// which every server-observable size flows, so it also mirrors the event
    /// to any installed telemetry collector (a pure read of the event — the
    /// leakage auditor's raw material).
    pub fn observe_both(&mut self, event: ObservedEvent) {
        mirror_to_telemetry(&event);
        self.s0.observe(event.clone());
        self.s1.observe(event);
    }

    /// Store the two halves of a shared word under the same name on each server.
    pub fn store_share_pair(&mut self, name: &str, pair: incshrink_secretshare::SharePair) {
        self.s0.store_share(name, pair.for_party(PartyId::S0));
        self.s1.store_share(name, pair.for_party(PartyId::S1));
    }

    /// Load and recombine a named shared word. Returns `None` when either server is
    /// missing its share. This models "the protocol recovers `c` internally".
    #[must_use]
    pub fn load_share_pair(&self, name: &str) -> Option<incshrink_secretshare::SharePair> {
        let a = self.s0.load_share(name)?;
        let b = self.s1.load_share(name)?;
        Some(incshrink_secretshare::SharePair::from_shares(a, b))
    }
}

/// Mirror an observed event to any installed telemetry collector. Shared by
/// the in-process `ServerPair` and the driver side of the actor modes, so the
/// telemetry stream is identical wherever the servers live.
pub(crate) fn mirror_to_telemetry(event: &ObservedEvent) {
    if !incshrink_telemetry::installed() {
        return;
    }
    let (kind, time, count) = match *event {
        ObservedEvent::UploadBatch { time, count } => {
            (incshrink_telemetry::ObserveKind::UploadBatch, time, count)
        }
        ObservedEvent::CacheAppend { time, count } => {
            (incshrink_telemetry::ObserveKind::CacheAppend, time, count)
        }
        ObservedEvent::ViewSync { time, count } => {
            (incshrink_telemetry::ObserveKind::ViewSync, time, count)
        }
        ObservedEvent::CacheFlush { time, count } => {
            (incshrink_telemetry::ObserveKind::CacheFlush, time, count)
        }
    };
    incshrink_telemetry::observe(kind, time, count as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_secretshare::SharePair;

    #[test]
    fn servers_have_independent_randomness() {
        let mut pair = ServerPair::new(7);
        let a = pair.s0.random_word();
        let b = pair.s1.random_word();
        assert_ne!(a, b, "independent seeds should give different streams");
        assert_ne!(pair.s0.random_word64(), pair.s1.random_word64());
    }

    #[test]
    fn same_seed_is_reproducible() {
        let mut p1 = ServerPair::new(99);
        let mut p2 = ServerPair::new(99);
        assert_eq!(p1.s0.random_word(), p2.s0.random_word());
        assert_eq!(p1.s1.random_word(), p2.s1.random_word());
    }

    #[test]
    fn store_and_load_named_share_pair() {
        let mut pair = ServerPair::new(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let shared = SharePair::share(4242, &mut rng);
        pair.store_share_pair("cardinality", shared);
        assert_eq!(pair.s0.stored_share_count(), 1);
        let loaded = pair.load_share_pair("cardinality").unwrap();
        assert_eq!(loaded.recover(), 4242);
        assert!(pair.load_share_pair("missing").is_none());
    }

    #[test]
    fn transcripts_record_observations() {
        let mut pair = ServerPair::new(5);
        pair.observe_both(ObservedEvent::UploadBatch { time: 1, count: 10 });
        pair.get_mut(PartyId::S0)
            .observe(ObservedEvent::ViewSync { time: 2, count: 7 });
        assert_eq!(pair.get(PartyId::S0).transcript().len(), 2);
        assert_eq!(pair.get(PartyId::S1).transcript().len(), 1);
        assert_eq!(
            pair.s1.transcript()[0],
            ObservedEvent::UploadBatch { time: 1, count: 10 }
        );
    }
}
