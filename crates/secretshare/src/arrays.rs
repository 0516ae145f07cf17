//! Secret-shared arrays (secure memory blocks).
//!
//! The secure outsourced cache `σ[1, 2, 3, ...]` and the materialized view `V` are
//! secret-shared memory blocks split across the two servers (Section 2.2). This module
//! provides both the per-party view ([`SharedArray`]) and the two-sided container
//! ([`SharedArrayPair`]) that protocol simulations operate on.

use crate::tuple::{PlainRecord, SharedRecord, SharedRecordPair};
use crate::value::PartyId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One party's view of a secret-shared array of records.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedArray {
    /// The record shares, in position order.
    pub records: Vec<SharedRecord>,
}

impl SharedArray {
    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the array holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Both parties' shares of an array of records.
///
/// Invariant: every entry has the same arity (enforced at append time).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedArrayPair {
    entries: Vec<SharedRecordPair>,
    arity: Option<usize>,
}

impl SharedArrayPair {
    /// Empty array.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty array that will only accept records of the given arity.
    #[must_use]
    pub fn with_arity(arity: usize) -> Self {
        Self {
            entries: Vec::new(),
            arity: Some(arity),
        }
    }

    /// Empty array of the given arity with room for `capacity` records.
    #[must_use]
    pub fn with_capacity(arity: usize, capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
            arity: Some(arity),
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The record arity, if any record has been appended (or fixed at construction).
    #[must_use]
    pub fn arity(&self) -> Option<usize> {
        self.arity
    }

    /// Append one shared record.
    ///
    /// # Errors
    /// Returns [`crate::ShareError::ShapeMismatch`] when the record's arity differs from
    /// the array's arity.
    pub fn push(&mut self, record: SharedRecordPair) -> crate::Result<()> {
        self.accept_arity(record.arity())?;
        self.entries.push(record);
        Ok(())
    }

    /// Adopt `incoming` as the array's arity when it has none yet; otherwise require
    /// it to match.
    fn accept_arity(&mut self, incoming: usize) -> crate::Result<()> {
        match self.arity {
            None => self.arity = Some(incoming),
            Some(a) if a != incoming => {
                return Err(crate::ShareError::ShapeMismatch {
                    detail: format!("array arity {a}, record arity {incoming}"),
                })
            }
            _ => {}
        }
        Ok(())
    }

    /// Append all records of another array (the `σ ← σ || ΔV` step of Algorithm 1).
    ///
    /// One arity check for the whole batch: `other` already holds records of a single
    /// arity, so the append itself is a bulk move.
    ///
    /// # Errors
    /// Returns [`crate::ShareError::ShapeMismatch`] when `other` is non-empty and its
    /// arity differs from this array's; nothing is appended in that case.
    pub fn extend(&mut self, mut other: SharedArrayPair) -> crate::Result<()> {
        if let Some(first) = other.entries.first() {
            self.accept_arity(first.arity())?;
            self.entries.append(&mut other.entries);
        }
        Ok(())
    }

    /// Share a slice of plaintext records into a new array.
    pub fn share_records<R: Rng + ?Sized>(records: &[PlainRecord], rng: &mut R) -> Self {
        let mut out = Self::new();
        for r in records {
            out.push(SharedRecordPair::share(r, rng))
                .expect("records of uniform arity");
        }
        out
    }

    /// Recover every entry to plaintext (test / in-protocol use only).
    #[must_use]
    pub fn recover_all(&self) -> Vec<PlainRecord> {
        self.entries.iter().map(SharedRecordPair::recover).collect()
    }

    /// The array view held by one party.
    #[must_use]
    pub fn for_party(&self, party: PartyId) -> SharedArray {
        SharedArray {
            records: self.entries.iter().map(|e| e.for_party(party)).collect(),
        }
    }

    /// Access to the underlying entries.
    #[must_use]
    pub fn entries(&self) -> &[SharedRecordPair] {
        &self.entries
    }

    /// Mutable access to the underlying entries (used by oblivious in-place operators).
    pub fn entries_mut(&mut self) -> &mut [SharedRecordPair] {
        &mut self.entries
    }

    /// Split off the first `n` entries (cache read / cut-off step of Shrink). If `n`
    /// exceeds the length, the whole array is taken. The fetched prefix is the short
    /// side of a cache read, so it is the one copied out: the remainder slides down
    /// inside its own allocation.
    pub fn split_front(&mut self, n: usize) -> SharedArrayPair {
        let entries = if n >= self.entries.len() {
            std::mem::take(&mut self.entries)
        } else {
            self.entries.drain(..n).collect()
        };
        SharedArrayPair {
            entries,
            arity: self.arity,
        }
    }

    /// Split off the last `n` entries, order kept (the whole array when `n` exceeds
    /// the length). Costs `O(n)` however long the array is, where
    /// [`Self::split_front`] slides the whole remainder down: the secure cache trims
    /// its real-first runs with it, recycling their dummy ends.
    pub fn split_back(&mut self, n: usize) -> SharedArrayPair {
        let at = self.entries.len().saturating_sub(n);
        SharedArrayPair {
            entries: self.entries.split_off(at),
            arity: self.arity,
        }
    }

    /// Drop every entry (cache recycle step of the flush mechanism).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Rearrange entries so position `j` holds the entry previously at `perm[j]`.
    /// Host-side gather used by the oblivious sort: the comparator network permutes
    /// one packed key/position word per record, then this applies the resulting
    /// permutation to the heavyweight record shares in one pass without cloning any
    /// share words.
    ///
    /// # Panics
    /// Panics when `perm` is not a permutation of `0..len`.
    // The `Option` slots cost no copy: `Option<SharedRecordPair>` uses the `Vec`
    // niche, so wrapping collects in place and each `take` stores one word. Moving
    // out through a placeholder record plus a seen-bitmap (which the panic above
    // needs) measured 15–25 % slower, an in-place cycle walk 2× slower.
    pub fn permute_gather(&mut self, perm: &[usize]) {
        assert_eq!(
            perm.len(),
            self.entries.len(),
            "permutation length mismatch"
        );
        let mut slots: Vec<Option<SharedRecordPair>> = std::mem::take(&mut self.entries)
            .into_iter()
            .map(Some)
            .collect();
        // Sized to the rows, not to the old capacity: a sorted tail rests in the
        // secure cache as a run of its own.
        self.entries = perm
            .iter()
            .map(|&src| slots[src].take().expect("perm must be a permutation"))
            .collect();
    }

    /// Keep only the entries whose `(index, entry)` the predicate accepts, preserving
    /// order.
    pub fn retain_with<F>(&mut self, mut keep: F)
    where
        F: FnMut(usize, &SharedRecordPair) -> bool,
    {
        let mut index = 0usize;
        self.entries.retain(|entry| {
            let kept = keep(index, entry);
            index += 1;
            kept
        });
    }

    /// Count entries whose recovered `isView` bit is set. Only protocol-internal code
    /// (and tests) may call this: it reconstructs the flag.
    #[must_use]
    pub fn true_cardinality(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.is_view.recover() != 0)
            .count()
    }
}

impl FromIterator<SharedRecordPair> for SharedArrayPair {
    fn from_iter<T: IntoIterator<Item = SharedRecordPair>>(iter: T) -> Self {
        let mut out = Self::new();
        for rec in iter {
            out.push(rec).expect("records of uniform arity");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_array(n_real: usize, n_dummy: usize, arity: usize) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(42);
        let mut records: Vec<PlainRecord> = (0..n_real)
            .map(|i| PlainRecord::real(vec![i as u32; arity]))
            .collect();
        records.extend((0..n_dummy).map(|_| PlainRecord::dummy(arity)));
        SharedArrayPair::share_records(&records, &mut rng)
    }

    #[test]
    fn push_and_recover() {
        let arr = sample_array(3, 2, 4);
        assert_eq!(arr.len(), 5);
        assert_eq!(arr.arity(), Some(4));
        assert_eq!(arr.true_cardinality(), 3);
        let plain = arr.recover_all();
        assert_eq!(plain.iter().filter(|r| r.is_view).count(), 3);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut arr = SharedArrayPair::with_arity(2);
        let bad = SharedRecordPair::share(&PlainRecord::real(vec![1, 2, 3]), &mut rng);
        assert!(arr.push(bad).is_err());
        let ok = SharedRecordPair::share(&PlainRecord::real(vec![1, 2]), &mut rng);
        assert!(arr.push(ok).is_ok());
    }

    #[test]
    fn split_front_and_clear() {
        let mut arr = sample_array(4, 4, 2);
        let front = arr.split_front(3);
        assert_eq!(front.len(), 3);
        assert_eq!(arr.len(), 5);
        let all = arr.split_front(100);
        assert_eq!(all.len(), 5);
        assert!(arr.is_empty());

        let mut arr2 = sample_array(2, 2, 2);
        arr2.clear();
        assert!(arr2.is_empty());
    }

    #[test]
    fn split_front_keeps_contents_and_order_on_both_sides() {
        let whole = sample_array(5, 4, 2);
        for n in [0usize, 1, 4, 8, 9, 10, 100] {
            let mut rest = whole.clone();
            let front = rest.split_front(n);
            let cut = n.min(whole.len());
            assert_eq!(front.entries(), &whole.entries()[..cut], "n={n}");
            assert_eq!(rest.entries(), &whole.entries()[cut..], "n={n}");
            assert_eq!(front.arity(), Some(2));
            assert_eq!(rest.arity(), Some(2));

            let mut rest = whole.clone();
            let back = rest.split_back(n);
            let kept = whole.len() - cut;
            assert_eq!(back.entries(), &whole.entries()[kept..], "back n={n}");
            assert_eq!(rest.entries(), &whole.entries()[..kept], "back n={n}");
            assert_eq!(back.arity(), Some(2));
        }
    }

    #[test]
    fn retain_with_keeps_order_and_indices() {
        let mut arr = sample_array(6, 0, 2);
        let before = arr.recover_all();
        arr.retain_with(|i, _| i % 2 == 0);
        assert_eq!(arr.len(), 3);
        let after = arr.recover_all();
        assert_eq!(after[0], before[0]);
        assert_eq!(after[1], before[2]);
        assert_eq!(after[2], before[4]);
        // Arity survives even when everything is evicted.
        arr.retain_with(|_, _| false);
        assert!(arr.is_empty());
        assert_eq!(arr.arity(), Some(2));
    }

    #[test]
    fn extend_concatenates() {
        let mut a = sample_array(2, 0, 3);
        let b = sample_array(0, 4, 3);
        a.extend(b).unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(a.true_cardinality(), 2);
    }

    #[test]
    fn extend_checks_arity_once_and_appends_nothing_on_mismatch() {
        let mut a = sample_array(2, 0, 3);
        assert!(a.extend(sample_array(1, 1, 2)).is_err());
        assert_eq!(a.len(), 2, "a rejected batch leaves the array untouched");
        // An empty batch carries no records to check, whatever arity it was built for.
        assert!(a.extend(SharedArrayPair::with_arity(7)).is_ok());
        assert_eq!(a.arity(), Some(3));
        // An untyped array adopts the arity of the first batch.
        let mut fresh = SharedArrayPair::new();
        fresh.extend(sample_array(1, 0, 5)).unwrap();
        assert_eq!(fresh.arity(), Some(5));
    }

    #[test]
    fn per_party_view_sizes_match() {
        let arr = sample_array(5, 5, 3);
        let v0 = arr.for_party(PartyId::S0);
        let v1 = arr.for_party(PartyId::S1);
        assert_eq!(v0.len(), v1.len());
        assert!(!v0.is_empty());
    }

    #[test]
    fn permute_gather_rearranges_entries() {
        let mut arr = sample_array(5, 0, 2);
        let before = arr.recover_all();
        arr.entries.reserve(11);
        let capacity = arr.entries.capacity();
        arr.permute_gather(&[3, 0, 4, 1, 2]);
        assert!(
            arr.entries.capacity() < capacity,
            "spare capacity is dropped"
        );
        let after = arr.recover_all();
        for (j, &src) in [3usize, 0, 4, 1, 2].iter().enumerate() {
            assert_eq!(after[j], before[src]);
        }
        // Identity permutation on an empty array is fine too.
        let mut empty = SharedArrayPair::new();
        empty.permute_gather(&[]);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "permutation length mismatch")]
    fn permute_gather_rejects_wrong_length() {
        let mut arr = sample_array(3, 0, 1);
        arr.permute_gather(&[0, 1]);
    }

    #[test]
    fn from_iterator_collects() {
        let mut rng = StdRng::seed_from_u64(9);
        let arr: SharedArrayPair = (0..4)
            .map(|i| SharedRecordPair::share(&PlainRecord::real(vec![i]), &mut rng))
            .collect();
        assert_eq!(arr.len(), 4);
    }
}
