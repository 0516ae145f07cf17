//! Named randomness: a protocol draw is a function of (key, [`Domain`], shard,
//! step, index) — the key is the run seed or a server's own — never of how many
//! draws came before it. A splitmix64-style mix folds the name into one word,
//! read directly ([`Draw::words`]) or seeding a stream ([`Draw::rng`]).
//! `docs/ARCHITECTURE.md` § "Named randomness" gives each domain's consumer.

use rand::rngs::StdRng;
use rand::{splitmix64, SeedableRng};

/// What a draw is for: one consumer per domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// A server's own key, indexed by party.
    Party = 1,
    /// A server's contribution to one joint-randomness draw.
    JointRandomness,
    /// A server's mask for one re-share.
    Reshare,
    /// Transform's ΔV shares, one stream per invocation.
    DeltaShares,
    /// The data owners' upload shares, per relation and step.
    OwnerShares,
    /// One arrival pair's oblivious shuffle, per relation and step.
    ShuffleRoute,
    /// One destination pair's ingest-cut padding, per relation and step.
    ShuffleCut,
}

impl Domain {
    /// Name the `index`-th draw of this domain at `step` on `shard`.
    #[must_use]
    pub const fn draw(self, shard: usize, step: u64, index: u64) -> Draw {
        Draw([self as u64, shard as u64, step, index])
    }
}

/// The name of one draw; with a key it yields words or a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draw([u64; 4]);

impl Draw {
    /// Fold the name into one word, one splitmix64 step per coordinate.
    fn state(self, key: u64) -> u64 {
        self.0.iter().fold(key, |h, x| splitmix64(&mut (h ^ x)))
    }

    /// The first `N` words of the name's splitmix64 expansion under `key`.
    #[must_use]
    pub fn words<const N: usize>(self, key: u64) -> [u64; N] {
        let mut state = self.state(key);
        std::array::from_fn(|_| splitmix64(&mut state))
    }

    /// The stream under this name, a generator seeded with the name's first words.
    #[must_use]
    pub fn rng(self, key: u64) -> StdRng {
        StdRng::seed_from_u64(self.state(key))
    }
}
