//! The two non-colluding outsourcing servers.
//!
//! Each [`Server`] owns a key its contribution to every named draw derives from
//! (so "each server chooses a value uniformly at random" steps stay its own) and
//! a store of named secret-shared words (the cardinality counter, the noisy
//! threshold, ...). What a server sees in the clear is not kept here: every
//! server-visible size is one `incshrink_telemetry::observe` call, and the
//! privacy tests and the leakage auditor read that stream.

use crate::runtime::JointRandomness;
use crate::stream::{Domain, Draw};
use incshrink_secretshare::{PartyId, Share};
use std::collections::HashMap;

/// One of the two outsourcing servers.
#[derive(Debug)]
pub struct Server {
    /// Which role this server plays.
    pub id: PartyId,
    key: u64,
    stored_shares: HashMap<String, u32>,
}

impl Server {
    /// This server's contribution to the named draw (the `z_i` of Algorithms 1-3),
    /// a function of its own key and the name alone.
    pub(crate) fn contribution(&self, draw: Draw) -> JointRandomness {
        let [word64, word] = draw.words(self.key);
        JointRandomness {
            word: word as u32,
            word64,
        }
    }

    /// Store a named share (e.g. `"cardinality"` or `"noisy_threshold"`).
    pub(crate) fn store_share(&mut self, name: &str, share: Share) {
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
    /// Create both servers from a master seed, each keyed by the seed and its party.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let server = |id: PartyId| Server {
            id,
            key: Domain::Party.draw(0, 0, id.index() as u64).words::<1>(seed)[0],
            stored_shares: HashMap::new(),
        };
        Self {
            s0: server(PartyId::S0),
            s1: server(PartyId::S1),
        }
    }

    /// Store the two halves of a shared word under the same name on each server.
    pub(crate) fn store_share_pair(&mut self, name: &str, pair: incshrink_secretshare::SharePair) {
        self.s0.store_share(name, pair.for_party(PartyId::S0));
        self.s1.store_share(name, pair.for_party(PartyId::S1));
    }

    /// Load and recombine a named shared word. Returns `None` when either server is
    /// missing its share. This models "the protocol recovers `c` internally".
    #[must_use]
    pub(crate) fn load_share_pair(&self, name: &str) -> Option<incshrink_secretshare::SharePair> {
        let a = self.s0.load_share(name)?;
        let b = self.s1.load_share(name)?;
        Some(incshrink_secretshare::SharePair::from_shares(a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_secretshare::SharePair;

    const DRAW: Draw = Domain::JointRandomness.draw(0, 3, 0);

    #[test]
    fn servers_have_independent_randomness() {
        let pair = ServerPair::new(7);
        assert_ne!(pair.s0.contribution(DRAW), pair.s1.contribution(DRAW));
    }

    #[test]
    fn same_seed_is_reproducible() {
        let (p1, p2) = (ServerPair::new(99), ServerPair::new(99));
        assert_eq!(p1.s0.contribution(DRAW), p2.s0.contribution(DRAW));
        assert_eq!(p1.s1.contribution(DRAW), p2.s1.contribution(DRAW));
    }

    #[test]
    fn store_and_load_named_share_pair() {
        let mut pair = ServerPair::new(3);
        let shared = SharePair::reshare_joint(4242, 1, 2);
        pair.store_share_pair("cardinality", shared);
        let loaded = pair.load_share_pair("cardinality").unwrap();
        assert_eq!(loaded.recover(), 4242);
        assert!(pair.load_share_pair("missing").is_none());
    }
}
