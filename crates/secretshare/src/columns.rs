//! Struct-of-arrays (column-major) share layout.
//!
//! [`crate::SharedArrayPair`] stores an array of records as a `Vec` of per-record structs,
//! each holding its own small `Vec` of field shares — convenient for append-heavy
//! protocol bookkeeping, terrible for kernel throughput: every secure compare/add/mux
//! chases two pointers and branches per field. This module provides the transposed
//! layout used by the hot oblivious kernels: one contiguous `u64` lane per field per
//! party plus an `isView` tag lane, so a scan over a column is a linear walk the
//! autovectorizer can chew on.
//!
//! Share words are `u32` on the wire (the paper works over `Z_2^32`); lanes widen them
//! to `u64` so kernel arithmetic (index bookkeeping, composite sort keys, branch-free
//! masks) never overflows, and narrow back on conversion. The widening is lossless, so
//! `SharedColumnsPair::from_pair(&a).to_pair() == a` for every well-formed array.
//!
//! The lane kernels at the bottom ([`mux_lane`], [`cswap_lane`], [`lt_lane`], ...) are
//! branch-free: selection is arithmetic (`b ^ ((a ^ b) & mask)` with an all-ones/all-
//! zeros mask), never a data-dependent jump, mirroring how a real garbled-circuit
//! backend would evaluate the same gates in constant time.

use crate::tuple::PlainRecord;
use crate::value::PartyId;
use serde::{Deserialize, Serialize};

/// One party's column-major view of a shared array: one lane per field plus the
/// `isView` lane. Mirrors [`crate::arrays::SharedArray`] the way [`SharedColumnsPair`]
/// mirrors [`crate::SharedArrayPair`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedColumns {
    /// `lanes[f][i]` is this party's share word of field `f` of record `i`.
    pub lanes: Vec<Vec<u64>>,
    /// `is_view[i]` is this party's share word of record `i`'s `isView` flag.
    pub is_view: Vec<u64>,
    /// Holder of these shares.
    pub holder: PartyId,
}

impl SharedColumns {
    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.is_view.len()
    }

    /// True when no records are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.is_view.is_empty()
    }

    /// Number of attribute lanes.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.lanes.len()
    }
}

/// Both parties' shares of an array in column-major layout.
///
/// Invariant: all lanes (every field lane of both parties, and both `isView` lanes)
/// have the same length.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedColumnsPair {
    /// `S0`'s field lanes: `lanes0[f][i]` shares field `f` of record `i`.
    lanes0: Vec<Vec<u64>>,
    /// `S1`'s field lanes.
    lanes1: Vec<Vec<u64>>,
    /// `S0`'s `isView` lane.
    view0: Vec<u64>,
    /// `S1`'s `isView` lane.
    view1: Vec<u64>,
}

impl SharedColumnsPair {
    /// Transpose a record-major array into lanes. Lossless: transposing back
    /// restores an array equal to the input (including the arity tag when at least
    /// one record exists — an empty untyped array round-trips to an empty array of
    /// arity 0 lanes).
    #[must_use]
    pub fn from_pair(pair: &crate::SharedArrayPair) -> Self {
        let arity = pair.arity().unwrap_or(0);
        let mut out = Self {
            lanes0: vec![Vec::new(); arity],
            lanes1: vec![Vec::new(); arity],
            ..Self::default()
        };
        out.extend_from_pair(pair)
            .expect("fresh lanes take the array's arity");
        out
    }

    /// Transpose `batch` onto the lane tails (`V ← V ∪ o` for an array kept
    /// column-major at rest): the existing rows are not touched, so the cost is the
    /// batch's, not the array's. An empty array of arity 0 is untyped and adopts the
    /// batch's arity, like [`crate::SharedArrayPair::extend`].
    ///
    /// # Errors
    /// Returns [`crate::ShareError::ShapeMismatch`] when `batch` is non-empty and its
    /// arity differs from this array's; nothing is appended in that case.
    pub fn extend_from_pair(&mut self, batch: &crate::SharedArrayPair) -> crate::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let incoming = batch.arity().unwrap_or(0);
        if self.is_empty() && self.arity() == 0 {
            self.lanes0.resize(incoming, Vec::new());
            self.lanes1.resize(incoming, Vec::new());
        } else if self.arity() != incoming {
            return Err(crate::ShareError::ShapeMismatch {
                detail: format!("lane arity {}, batch arity {incoming}", self.arity()),
            });
        }
        for lane in self.lanes0.iter_mut().chain(&mut self.lanes1) {
            lane.reserve(batch.len());
        }
        self.view0.reserve(batch.len());
        self.view1.reserve(batch.len());
        for entry in batch.entries() {
            for (f, share) in entry.fields.iter().enumerate() {
                self.lanes0[f].push(u64::from(share.s0));
                self.lanes1[f].push(u64::from(share.s1));
            }
            self.view0.push(u64::from(entry.is_view.s0));
            self.view1.push(u64::from(entry.is_view.s1));
        }
        Ok(())
    }

    /// Keep only the rows whose `keep` flag is set, compacting every lane in place
    /// and preserving order.
    ///
    /// # Panics
    /// Panics when `keep` does not hold one flag per row.
    pub fn retain_rows(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.len(), "one keep flag per row");
        let lanes = self.lanes0.iter_mut().chain(&mut self.lanes1);
        for lane in lanes.chain([&mut self.view0, &mut self.view1]) {
            let mut flags = keep.iter();
            lane.retain(|_| *flags.next().expect("one keep flag per row"));
        }
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.view0.len()
    }

    /// True when no records are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.view0.is_empty()
    }

    /// Number of attribute lanes.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.lanes0.len()
    }

    /// Recover row `i` to plaintext (`isView` is set when its recovered word is
    /// non-zero, as in [`crate::SharedRecordPair::recover`]).
    ///
    /// # Panics
    /// Panics when `i >= len`.
    #[must_use]
    pub fn recover_row(&self, i: usize) -> PlainRecord {
        PlainRecord {
            fields: (self.lanes0.iter().zip(&self.lanes1))
                .map(|(a, b)| (a[i] ^ b[i]) as u32)
                .collect(),
            is_view: self.view0[i] != self.view1[i],
        }
    }

    /// Recover every row to plaintext (test / in-protocol use only), equal to
    /// [`crate::SharedArrayPair::recover_all`] of the transposed array.
    #[must_use]
    pub fn recover_all(&self) -> Vec<PlainRecord> {
        (0..self.len()).map(|i| self.recover_row(i)).collect()
    }

    /// Count rows whose recovered `isView` word is non-zero. Protocol-internal, like
    /// [`crate::SharedArrayPair::true_cardinality`]: it reconstructs the flag.
    #[must_use]
    pub fn true_cardinality(&self) -> usize {
        (self.view0.iter().zip(&self.view1))
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Both parties' share lanes of field `f` (`S0`'s, then `S1`'s), or `None` when
    /// the array has no such column.
    #[must_use]
    pub fn field_shares(&self, f: usize) -> Option<(&[u64], &[u64])> {
        Some((self.lanes0.get(f)?, self.lanes1.get(f)?))
    }

    /// Both parties' `isView` share lanes (`S0`'s, then `S1`'s).
    #[must_use]
    pub fn is_view_shares(&self) -> (&[u64], &[u64]) {
        (&self.view0, &self.view1)
    }

    /// The selection every scan starts from: one 0/1 word per row, 1 where the
    /// recovered `isView` word is non-zero. Shares decode to exactly 0 or 1, but the
    /// words are booleanized anyway so a hand-built lane cannot poison the mask
    /// arithmetic downstream.
    #[must_use]
    pub fn real_mask(&self) -> Vec<u64> {
        (self.view0.iter().zip(&self.view1))
            .map(|(&a, &b)| 1 ^ eq_word(a, b))
            .collect()
    }

    /// Narrow a selection mask over the rows from `start` on by one column test,
    /// branch-free: `mask[i] &= test(field f of row start + i)`, where `test`
    /// returns a 0/1 word. Only field `f`'s two share lanes are read. A column the
    /// array does not have matches nothing.
    ///
    /// # Panics
    /// Panics when `mask` runs past the last row.
    pub fn narrow_mask(&self, f: usize, start: usize, mask: &mut [u64], test: impl Fn(u64) -> u64) {
        assert!(start + mask.len() <= self.len(), "lane length mismatch");
        match self.field_shares(f) {
            Some((s0, s1)) => {
                for ((m, &a), &b) in mask.iter_mut().zip(&s0[start..]).zip(&s1[start..]) {
                    *m &= test(a ^ b);
                }
            }
            None => mask.fill(0),
        }
    }

    /// Recover field `f` of every record into one plaintext lane (`s0 ^ s1` per
    /// position; values fit in 32 bits). Protocol-internal / test use only, exactly
    /// like [`crate::SharedRecordPair::recover`].
    ///
    /// # Panics
    /// Panics when `f >= arity`.
    #[must_use]
    pub fn recovered_field_lane(&self, f: usize) -> Vec<u64> {
        self.lanes0[f]
            .iter()
            .zip(self.lanes1[f].iter())
            .map(|(&a, &b)| a ^ b)
            .collect()
    }

    /// Recover the `isView` lane to plaintext 0/1 words.
    #[must_use]
    pub fn recovered_is_view_lane(&self) -> Vec<u64> {
        self.view0
            .iter()
            .zip(self.view1.iter())
            .map(|(&a, &b)| a ^ b)
            .collect()
    }

    /// The column view held by one party.
    #[must_use]
    pub fn for_party(&self, party: PartyId) -> SharedColumns {
        let (lanes, view) = match party {
            PartyId::S0 => (&self.lanes0, &self.view0),
            PartyId::S1 => (&self.lanes1, &self.view1),
        };
        SharedColumns {
            lanes: lanes.clone(),
            is_view: view.clone(),
            holder: party,
        }
    }
}

impl From<&crate::SharedArrayPair> for SharedColumnsPair {
    fn from(pair: &crate::SharedArrayPair) -> Self {
        Self::from_pair(pair)
    }
}

// ---------------------------------------------------------------------------
// Branch-free lane kernels.
//
// Every kernel below is straight-line code over u64 words: no data-dependent
// branches, no data-dependent memory addressing. Comparison results are produced
// as 0/1 words via carry/borrow arithmetic and turned into all-ones / all-zeros
// masks with wrapping negation; selection and swapping are XOR algebra over those
// masks. This is the host-side analogue of constant-time gate evaluation, and it
// is what lets the autovectorizer emit SIMD lanes for the hot loops.
// ---------------------------------------------------------------------------

/// Branch-free unsigned `a < b` for full-width `u64` words, returned as 0 or 1.
/// Computes the borrow bit of `a - b`: `((!a & b) | ((!a | b) & (a - b))) >> 63`.
#[inline]
#[must_use]
pub fn lt_word(a: u64, b: u64) -> u64 {
    ((!a & b) | ((!a | b) & a.wrapping_sub(b))) >> 63
}

/// Branch-free `a == b`, returned as 0 or 1: `x | -x` has its top bit set exactly
/// when `x = a ^ b` is non-zero.
#[inline]
#[must_use]
pub fn eq_word(a: u64, b: u64) -> u64 {
    let x = a ^ b;
    ((x | x.wrapping_neg()) >> 63) ^ 1
}

/// Branch-free select: returns `a` when `sel == 1`, `b` when `sel == 0`.
/// `sel` must be 0 or 1; wrapping negation turns it into an all-ones/all-zeros
/// mask and the result is `b ^ ((a ^ b) & mask)` — the arithmetic mux.
#[inline]
#[must_use]
pub(crate) fn mux_word(sel: u64, a: u64, b: u64) -> u64 {
    debug_assert!(sel <= 1, "mux selector must be a 0/1 word");
    b ^ ((a ^ b) & sel.wrapping_neg())
}

/// Branch-free conditional swap of `x` and `y` when `sel == 1` (`sel` must be 0/1):
/// the xor-mask trick `d = (x ^ y) & mask; x ^= d; y ^= d`.
#[inline]
pub(crate) fn cswap_word(sel: u64, x: &mut u64, y: &mut u64) {
    debug_assert!(sel <= 1, "cswap selector must be a 0/1 word");
    let d = (*x ^ *y) & sel.wrapping_neg();
    *x ^= d;
    *y ^= d;
}

/// Lane-wise less-than: `out[i] = (a[i] < b[i]) as u64`.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn lt_lane(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    assert_eq!(a.len(), b.len(), "lane length mismatch");
    out.clear();
    out.extend(a.iter().zip(b.iter()).map(|(&x, &y)| lt_word(x, y)));
}

/// Lane-wise mux: `out[i] = if sel[i] == 1 { a[i] } else { b[i] }` without branching.
/// Selector words must be 0 or 1.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn mux_lane(sel: &[u64], a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    assert_eq!(sel.len(), a.len(), "lane length mismatch");
    assert_eq!(a.len(), b.len(), "lane length mismatch");
    out.clear();
    out.extend(
        sel.iter()
            .zip(a.iter().zip(b.iter()))
            .map(|(&s, (&x, &y))| mux_word(s, x, y)),
    );
}

/// Lane-wise conditional swap: where `sel[i] == 1`, swap `a[i]` and `b[i]` in place.
/// Selector words must be 0 or 1.
///
/// # Panics
/// Panics when the slices have different lengths.
pub fn cswap_lane(sel: &[u64], a: &mut [u64], b: &mut [u64]) {
    assert_eq!(sel.len(), a.len(), "lane length mismatch");
    assert_eq!(a.len(), b.len(), "lane length mismatch");
    for i in 0..sel.len() {
        cswap_word(sel[i], &mut a[i], &mut b[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::SharedRecordPair;
    use crate::value::SharePair;
    use crate::SharedArrayPair;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl SharedColumnsPair {
        /// Transpose back to the record-major layout. Lane words are truncated to their
        /// low 32 bits; this is the exact inverse of the widening in [`Self::from_pair`].
        #[must_use]
        fn to_pair(&self) -> SharedArrayPair {
            let mut out = SharedArrayPair::with_arity(self.arity());
            for i in 0..self.len() {
                let rec = SharedRecordPair {
                    fields: (0..self.arity())
                        .map(|f| SharePair {
                            s0: self.lanes0[f][i] as u32,
                            s1: self.lanes1[f][i] as u32,
                        })
                        .collect(),
                    is_view: SharePair {
                        s0: self.view0[i] as u32,
                        s1: self.view1[i] as u32,
                    },
                };
                out.push(rec).expect("lanes have uniform arity");
            }
            out
        }
    }

    fn sample_pair(n_real: usize, n_dummy: usize, arity: usize, seed: u64) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut records: Vec<PlainRecord> = (0..n_real)
            .map(|i| PlainRecord::real((0..arity).map(|f| (i * 31 + f) as u32).collect()))
            .collect();
        records.extend((0..n_dummy).map(|_| PlainRecord::dummy(arity)));
        SharedArrayPair::share_records(&records, &mut rng)
    }

    #[test]
    fn roundtrip_is_lossless() {
        for (r, d, a) in [(0, 0, 3), (4, 2, 3), (1, 0, 1), (0, 3, 5)] {
            let pair = sample_pair(r, d, a, 7);
            let cols = SharedColumnsPair::from_pair(&pair);
            assert_eq!(cols.len(), pair.len());
            assert_eq!(cols.arity(), pair.arity().unwrap_or(0));
            assert_eq!(cols.to_pair().recover_all(), pair.recover_all());
            // Share words, not just plaintext, survive the transpose.
            assert_eq!(
                cols.to_pair().for_party(PartyId::S0),
                pair.for_party(PartyId::S0)
            );
        }
    }

    #[test]
    fn recovered_lanes_match_record_major_recover() {
        let pair = sample_pair(5, 3, 4, 11);
        let cols = SharedColumnsPair::from_pair(&pair);
        let plain = pair.recover_all();
        for f in 0..4 {
            let lane = cols.recovered_field_lane(f);
            let expect: Vec<u64> = plain.iter().map(|r| u64::from(r.fields[f])).collect();
            assert_eq!(lane, expect);
        }
        let views = cols.recovered_is_view_lane();
        let expect: Vec<u64> = plain.iter().map(|r| u64::from(r.is_view)).collect();
        assert_eq!(views, expect);
    }

    #[test]
    fn extend_adopts_an_arity_once_and_rejects_another() {
        let mut cols = SharedColumnsPair::default();
        cols.extend_from_pair(&SharedArrayPair::new()).unwrap();
        assert_eq!(
            (cols.len(), cols.arity()),
            (0, 0),
            "empty batches are no-ops"
        );
        cols.extend_from_pair(&sample_pair(2, 1, 3, 5)).unwrap();
        assert_eq!((cols.len(), cols.arity()), (3, 3));
        let before = cols.clone();
        assert!(cols.extend_from_pair(&sample_pair(1, 0, 2, 5)).is_err());
        assert_eq!(cols, before, "a rejected batch appends nothing");
        // Emptied lanes keep their arity, like a typed record-major array.
        cols.retain_rows(&[false; 3]);
        assert_eq!((cols.len(), cols.arity()), (0, 3));
        assert!(cols.extend_from_pair(&sample_pair(1, 0, 2, 5)).is_err());
    }

    #[test]
    fn masks_read_one_column_and_missing_columns_match_nothing() {
        let cols = SharedColumnsPair::from_pair(&sample_pair(4, 2, 2, 19));
        // Rows are (31·i, 31·i + 1) for i in 0..4, then two dummies.
        assert_eq!(cols.real_mask(), vec![1, 1, 1, 1, 0, 0]);
        assert_eq!(cols.true_cardinality(), 4);
        let mut mask = cols.real_mask();
        cols.narrow_mask(1, 0, &mut mask, |v| lt_word(v, 60));
        assert_eq!(mask, vec![1, 1, 0, 0, 0, 0]);
        assert!(cols.field_shares(2).is_none());
        cols.narrow_mask(2, 0, &mut mask, |_| 1);
        assert_eq!(mask, vec![0; 6], "a column the array lacks matches nothing");
    }

    #[test]
    fn per_party_columns_reassemble() {
        let pair = sample_pair(3, 1, 2, 13);
        let cols = SharedColumnsPair::from_pair(&pair);
        let a = cols.for_party(PartyId::S1);
        let b = cols.for_party(PartyId::S0);
        assert_eq!(a.len(), 4);
        assert_eq!(a.arity(), 2);
        assert!(!a.is_empty());
        for f in 0..2 {
            let xored: Vec<u64> = (a.lanes[f].iter().zip(&b.lanes[f]))
                .map(|(x, y)| x ^ y)
                .collect();
            assert_eq!(xored, cols.recovered_field_lane(f));
        }
    }

    #[test]
    fn word_kernels_agree_with_operators() {
        let samples = [
            0u64,
            1,
            2,
            u64::MAX,
            u64::MAX - 1,
            1 << 63,
            (1 << 63) - 1,
            0xDEAD_BEEF_CAFE_F00D,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(lt_word(a, b), u64::from(a < b), "lt {a} {b}");
                assert_eq!(eq_word(a, b), u64::from(a == b), "eq {a} {b}");
                assert_eq!(mux_word(1, a, b), a);
                assert_eq!(mux_word(0, a, b), b);
                let (mut x, mut y) = (a, b);
                cswap_word(1, &mut x, &mut y);
                assert_eq!((x, y), (b, a));
                cswap_word(0, &mut x, &mut y);
                assert_eq!((x, y), (b, a));
            }
        }
    }

    #[test]
    #[should_panic(expected = "lane length mismatch")]
    fn lane_kernels_reject_length_mismatch() {
        let mut out = Vec::new();
        lt_lane(&[1, 2], &[3], &mut out);
    }

    proptest! {
        #[test]
        fn prop_columns_roundtrip(records in proptest::collection::vec(
            (proptest::collection::vec(any::<u32>(), 3), any::<bool>()), 0..20), seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let plain: Vec<PlainRecord> = records.into_iter()
                .map(|(fields, is_view)| PlainRecord { fields, is_view })
                .collect();
            let pair = SharedArrayPair::share_records(&plain, &mut rng);
            let cols = SharedColumnsPair::from_pair(&pair);
            prop_assert_eq!(cols.to_pair().recover_all(), plain);
        }

        #[test]
        fn prop_chunked_append_and_compaction_match_record_major(
            records in proptest::collection::vec(
                (proptest::collection::vec(any::<u32>(), 6), any::<bool>(), any::<bool>()), 0..40),
            arity in 0usize..=6,
            chunk in 1usize..9,
            seed: u64,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let plain: Vec<PlainRecord> = records.iter()
                .map(|(fields, is_view, _)| PlainRecord { fields: fields[..arity].to_vec(), is_view: *is_view })
                .collect();
            let mut pair = SharedArrayPair::share_records(&plain, &mut rng);

            // Appending chunk by chunk lands on the same lanes as one transposition.
            let mut cols = SharedColumnsPair::default();
            for batch in pair.entries().chunks(chunk) {
                cols.extend_from_pair(&batch.iter().cloned().collect()).unwrap();
            }
            prop_assert_eq!(&cols, &SharedColumnsPair::from_pair(&pair));
            prop_assert_eq!(cols.recover_all(), pair.recover_all());
            prop_assert_eq!(cols.true_cardinality(), pair.true_cardinality());

            // In-place compaction keeps exactly the flagged rows, in order.
            let keep: Vec<bool> = records.iter().map(|r| r.2).collect();
            cols.retain_rows(&keep);
            pair.retain_with(|i, _| keep[i]);
            prop_assert_eq!(cols.len(), pair.len());
            prop_assert_eq!(cols.to_pair().entries(), pair.entries());
        }

        #[test]
        fn prop_lane_kernels_match_scalar(a in proptest::collection::vec(any::<u64>(), 0..32),
                                          seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let b: Vec<u64> = a.iter().map(|_| rng.gen()).collect();
            let sel: Vec<u64> = a.iter().map(|_| u64::from(rng.gen::<bool>())).collect();
            let mut out = Vec::new();

            lt_lane(&a, &b, &mut out);
            prop_assert_eq!(&out, &a.iter().zip(&b).map(|(&x, &y)| u64::from(x < y)).collect::<Vec<_>>());
            mux_lane(&sel, &a, &b, &mut out);
            prop_assert_eq!(&out, &sel.iter().zip(a.iter().zip(&b))
                .map(|(&s, (&x, &y))| if s == 1 { x } else { y }).collect::<Vec<_>>());

            let (mut x, mut y) = (a.clone(), b.clone());
            cswap_lane(&sel, &mut x, &mut y);
            for i in 0..a.len() {
                if sel[i] == 1 {
                    prop_assert_eq!((x[i], y[i]), (b[i], a[i]));
                } else {
                    prop_assert_eq!((x[i], y[i]), (a[i], b[i]));
                }
            }
        }
    }
}
