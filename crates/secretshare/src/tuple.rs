//! Secret-shared records (tuples).
//!
//! A view entry or cached tuple in IncShrink is a fixed-width record of 32-bit words
//! plus an `isView` bit that marks whether the record is a real view entry or padding
//! (Section 5.1). Records are shared field-wise with XOR shares; the `isView` bit is
//! carried as a full shared word (0 or 1) so it can participate in oblivious sorting.

use crate::value::{PartyId, SharePair};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Sentinel value placed in every field of a plaintext dummy record before sharing.
/// Purely a debugging aid — the shares of a dummy are indistinguishable from the
/// shares of a real record.
pub(crate) const PLAIN_DUMMY_MARKER: u32 = 0xFFFF_FFFF;

/// A plaintext record: fixed-arity row of 32-bit words plus the `isView` flag.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlainRecord {
    /// Attribute words (join keys, timestamps, payload columns...).
    pub fields: Vec<u32>,
    /// `true` for a real view entry, `false` for a dummy/padding tuple.
    pub is_view: bool,
}

impl PlainRecord {
    /// Create a real record from its fields.
    #[must_use]
    pub fn real(fields: Vec<u32>) -> Self {
        Self {
            fields,
            is_view: true,
        }
    }

    /// Create a dummy record with the given arity.
    #[must_use]
    pub fn dummy(arity: usize) -> Self {
        Self {
            fields: vec![PLAIN_DUMMY_MARKER; arity],
            is_view: false,
        }
    }

    /// Number of attribute words.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.fields.len()
    }
}

/// One party's share of a record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedRecord {
    /// Shares of the attribute words.
    pub fields: Vec<u32>,
    /// Share of the `isView` word (the reconstructed word is 0 or 1).
    pub is_view: u32,
    /// Holder of this share.
    pub holder: PartyId,
}

impl SharedRecord {
    /// Number of attribute words.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.fields.len()
    }
}

/// Both parties' shares of one record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedRecordPair {
    /// Shares of each attribute word.
    pub fields: Vec<SharePair>,
    /// Shares of the `isView` word.
    pub is_view: SharePair,
}

impl SharedRecordPair {
    /// Share a plaintext record.
    pub fn share<R: Rng + ?Sized>(record: &PlainRecord, rng: &mut R) -> Self {
        Self::share_row(&record.fields, record.is_view, rng)
    }

    /// Share a row given directly as a field slice plus flag, without materialising a
    /// [`PlainRecord`]. Mask words are drawn in exactly the order [`Self::share`]
    /// draws them — one per field in field order, then one for `isView` — so the two
    /// entry points are interchangeable under a fixed rng stream.
    pub fn share_row<R: Rng + ?Sized>(fields: &[u32], is_view: bool, rng: &mut R) -> Self {
        Self {
            fields: fields.iter().map(|&w| SharePair::share(w, rng)).collect(),
            is_view: SharePair::share(u32::from(is_view), rng),
        }
    }

    /// Share a dummy record of the given arity (every field carries
    /// `PLAIN_DUMMY_MARKER`) without allocating the plaintext marker vector.
    /// Draws exactly the masks `share(&PlainRecord::dummy(arity), rng)` would.
    pub fn share_dummy<R: Rng + ?Sized>(arity: usize, rng: &mut R) -> Self {
        Self {
            fields: (0..arity)
                .map(|_| SharePair::share(PLAIN_DUMMY_MARKER, rng))
                .collect(),
            is_view: SharePair::share(0, rng),
        }
    }

    /// Recover the plaintext record.
    #[must_use]
    pub fn recover(&self) -> PlainRecord {
        PlainRecord {
            fields: self.fields.iter().map(|p| p.recover()).collect(),
            is_view: self.is_view.recover() != 0,
        }
    }

    /// The record share held by `party`.
    #[must_use]
    pub fn for_party(&self, party: PartyId) -> SharedRecord {
        SharedRecord {
            fields: self
                .fields
                .iter()
                .map(|p| p.for_party(party).word)
                .collect(),
            is_view: self.is_view.for_party(party).word,
            holder: party,
        }
    }

    /// Rebuild the pair from both parties' shares.
    ///
    /// # Errors
    /// Returns [`crate::ShareError::ShapeMismatch`] if arities disagree or both shares
    /// belong to the same party.
    pub fn from_shares(a: &SharedRecord, b: &SharedRecord) -> crate::Result<Self> {
        if a.holder == b.holder {
            return Err(crate::ShareError::ShapeMismatch {
                detail: format!("both record shares held by {}", a.holder),
            });
        }
        if a.arity() != b.arity() {
            return Err(crate::ShareError::ShapeMismatch {
                detail: format!("record arities {} vs {}", a.arity(), b.arity()),
            });
        }
        let (lo, hi) = if a.holder == PartyId::S0 {
            (a, b)
        } else {
            (b, a)
        };
        Ok(Self {
            fields: lo
                .fields
                .iter()
                .zip(hi.fields.iter())
                .map(|(&s0, &s1)| SharePair { s0, s1 })
                .collect(),
            is_view: SharePair {
                s0: lo.is_view,
                s1: hi.is_view,
            },
        })
    }

    /// Number of attribute words.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.fields.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn plain_record_constructors() {
        let r = PlainRecord::real(vec![1, 2, 3]);
        assert!(r.is_view);
        assert_eq!(r.arity(), 3);
        let d = PlainRecord::dummy(3);
        assert!(!d.is_view);
        assert_eq!(d.fields, vec![PLAIN_DUMMY_MARKER; 3]);
    }

    #[test]
    fn share_recover_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let r = PlainRecord::real(vec![10, 20, 30, 40]);
        let shared = SharedRecordPair::share(&r, &mut rng);
        assert_eq!(shared.recover(), r);
        assert_eq!(shared.arity(), 4);
    }

    #[test]
    fn per_party_shares_reassemble() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = PlainRecord::dummy(2);
        let shared = SharedRecordPair::share(&r, &mut rng);
        let a = shared.for_party(PartyId::S0);
        let b = shared.for_party(PartyId::S1);
        let rebuilt = SharedRecordPair::from_shares(&b, &a).unwrap();
        assert_eq!(rebuilt.recover(), r);
    }

    #[test]
    fn from_shares_rejects_same_party_and_arity_mismatch() {
        let mut rng = StdRng::seed_from_u64(3);
        let shared = SharedRecordPair::share(&PlainRecord::real(vec![1]), &mut rng);
        let a = shared.for_party(PartyId::S0);
        assert!(SharedRecordPair::from_shares(&a, &a).is_err());

        let other = SharedRecordPair::share(&PlainRecord::real(vec![1, 2]), &mut rng);
        let b = other.for_party(PartyId::S1);
        assert!(SharedRecordPair::from_shares(&a, &b).is_err());
    }

    proptest! {
        #[test]
        fn prop_record_roundtrip(fields in proptest::collection::vec(any::<u32>(), 0..8),
                                 is_view: bool, seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = PlainRecord { fields, is_view };
            let shared = SharedRecordPair::share(&r, &mut rng);
            prop_assert_eq!(shared.recover(), r);
        }

        #[test]
        fn prop_single_party_share_is_uniformly_masked(
            fields in proptest::collection::vec(any::<u32>(), 1..6), seed: u64) {
            // The S0 share of a real record and of a dummy record are both
            // fresh uniform words; check at least that re-sharing the same record twice
            // yields different share words (overwhelming probability), i.e. shares are
            // not a deterministic function of the plaintext.
            let mut rng = StdRng::seed_from_u64(seed);
            let r = PlainRecord::real(fields);
            let s1 = SharedRecordPair::share(&r, &mut rng).for_party(PartyId::S0);
            let s2 = SharedRecordPair::share(&r, &mut rng).for_party(PartyId::S0);
            prop_assert_ne!(s1.fields, s2.fields);
        }
    }
}
