//! Single-word XOR shares over `Z_2^32`.
//!
//! A [`Share`] is the piece held by one party; a [`SharePair`] bundles both pieces and
//! models the `⟦x⟧_m` notation from the paper. The pair type is only ever materialised
//! inside code that simulates the *inside* of an MPC protocol (or inside tests) —
//! the server structs in `incshrink-mpc` hold individual [`Share`]s.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Identifier for one of the two non-colluding outsourcing servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartyId {
    /// Server `S0`.
    S0,
    /// Server `S1`.
    S1,
}

impl PartyId {
    /// The other server.
    #[must_use]
    pub fn other(self) -> Self {
        match self {
            PartyId::S0 => PartyId::S1,
            PartyId::S1 => PartyId::S0,
        }
    }

    /// Index (0 or 1) usable for array addressing.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            PartyId::S0 => 0,
            PartyId::S1 => 1,
        }
    }

    /// Both parties, in index order.
    #[must_use]
    pub fn both() -> [PartyId; 2] {
        [PartyId::S0, PartyId::S1]
    }
}

impl std::fmt::Display for PartyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartyId::S0 => write!(f, "S0"),
            PartyId::S1 => write!(f, "S1"),
        }
    }
}

/// One party's XOR share of a 32-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Share {
    /// The raw share word. Uniformly distributed on its own.
    pub word: u32,
    /// Which party holds this share.
    pub holder: PartyId,
}

impl Share {
    /// Construct a share held by `holder`.
    #[must_use]
    pub fn new(word: u32, holder: PartyId) -> Self {
        Self { word, holder }
    }
}

/// Both shares of a 32-bit word: `⟦x⟧ = (x0, x1)` with `x = x0 ⊕ x1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharePair {
    /// Share held by `S0`.
    pub s0: u32,
    /// Share held by `S1`.
    pub s1: u32,
}

impl SharePair {
    /// `share(x)`: sample `x0` uniformly, set `x1 = x ⊕ x0`.
    pub fn share<R: Rng + ?Sized>(x: u32, rng: &mut R) -> Self {
        let s0: u32 = rng.gen();
        Self { s0, s1: x ^ s0 }
    }

    /// Joint re-sharing *inside* MPC (Section 5.1, "Secret-sharing inside MPC"):
    /// each server contributes a uniformly random word `z_i`; the protocol sets
    /// `c0 = z0 ⊕ z1` and `c1 = c0 ⊕ c`. Neither server can predict the other's mask,
    /// so neither learns `c`.
    #[must_use]
    pub fn reshare_joint(value: u32, z0: u32, z1: u32) -> Self {
        let s0 = z0 ^ z1;
        Self { s0, s1: s0 ^ value }
    }

    /// `recover(⟦x⟧)`: XOR the two shares.
    #[must_use]
    pub fn recover(self) -> u32 {
        self.s0 ^ self.s1
    }

    /// The share belonging to `party`.
    #[must_use]
    pub fn for_party(self, party: PartyId) -> Share {
        match party {
            PartyId::S0 => Share::new(self.s0, PartyId::S0),
            PartyId::S1 => Share::new(self.s1, PartyId::S1),
        }
    }

    /// Reconstruct a pair from two [`Share`]s (one per party).
    ///
    /// # Panics
    /// Panics if both shares are held by the same party.
    #[must_use]
    pub fn from_shares(a: Share, b: Share) -> Self {
        assert_ne!(a.holder, b.holder, "both shares held by {:?}", a.holder);
        let (s0, s1) = if a.holder == PartyId::S0 {
            (a.word, b.word)
        } else {
            (b.word, a.word)
        };
        Self { s0, s1 }
    }

    /// Share of the constant zero with a fresh mask: `(r, r)`.
    pub fn zero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let r: u32 = rng.gen();
        Self { s0: r, s1: r }
    }

    /// XOR-homomorphic combination of two shared values (local at both parties).
    #[must_use]
    pub fn xor(self, other: SharePair) -> SharePair {
        SharePair {
            s0: self.s0 ^ other.s0,
            s1: self.s1 ^ other.s1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn party_other_and_index() {
        assert_eq!(PartyId::S0.other(), PartyId::S1);
        assert_eq!(PartyId::S1.other(), PartyId::S0);
        assert_eq!(PartyId::S0.index(), 0);
        assert_eq!(PartyId::S1.index(), 1);
        assert_eq!(PartyId::both(), [PartyId::S0, PartyId::S1]);
        assert_eq!(PartyId::S0.to_string(), "S0");
    }

    #[test]
    fn reshare_joint_recovers_and_masks() {
        let p = SharePair::reshare_joint(99, 0xDEAD_0000, 0x0000_BEEF);
        assert_eq!(p.recover(), 99);
        // S0's share is exactly z0 ^ z1 and reveals nothing about the value.
        assert_eq!(p.s0, 0xDEAD_0000 ^ 0x0000_BEEF);
    }

    #[test]
    fn from_shares_orders_parties() {
        let mut rng = StdRng::seed_from_u64(1);
        let pair = SharePair::share(777, &mut rng);
        let a = pair.for_party(PartyId::S1);
        let b = pair.for_party(PartyId::S0);
        let rebuilt = SharePair::from_shares(a, b);
        assert_eq!(rebuilt.recover(), 777);
    }

    #[test]
    #[should_panic(expected = "both shares held")]
    fn from_shares_rejects_same_party() {
        let a = Share::new(1, PartyId::S0);
        let b = Share::new(2, PartyId::S0);
        let _ = SharePair::from_shares(a, b);
    }

    #[test]
    fn zero_share_recovers_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..16 {
            assert_eq!(SharePair::zero(&mut rng).recover(), 0);
        }
    }

    proptest! {
        #[test]
        fn prop_share_recover_roundtrip(x: u32, seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pair = SharePair::share(x, &mut rng);
            prop_assert_eq!(pair.recover(), x);
        }

        #[test]
        fn prop_xor_homomorphism(a: u32, b: u32, seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pa = SharePair::share(a, &mut rng);
            let pb = SharePair::share(b, &mut rng);
            prop_assert_eq!(pa.xor(pb).recover(), a ^ b);
        }

        #[test]
        fn prop_reshare_joint_recovers(value: u32, z0: u32, z1: u32) {
            prop_assert_eq!(SharePair::reshare_joint(value, z0, z1).recover(), value);
        }
    }
}
