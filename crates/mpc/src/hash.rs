//! A fast, deterministic hasher for host-side bookkeeping maps.
//!
//! The simulator keeps several plaintext-side maps on hot per-step paths — the
//! persistent join-key index Transform keeps over its active records, and the
//! per-call budget map of the truncated matching loop. `std`'s default
//! SipHash is DoS-resistant but pays ~10× the latency these integer-keyed,
//! protocol-internal maps need; none of them are exposed to adversarial keys
//! (record ids and join keys come from the simulated workload itself).
//!
//! [`FxHasher`] is the classic multiply-rotate word hash used by rustc
//! (Firefox's "Fx" hash): each written word is folded in with a rotate, xor and
//! a multiplication by a single odd constant. It is deterministic across runs
//! and processes, so map *iteration order* is stable for a given insertion
//! sequence — strictly more reproducible than `RandomState`, never less.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over machine words (rustc's `FxHasher` recipe).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// Knuth's 2⁶⁴/φ multiplicative-hash constant (odd, high bit diffusion).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Byte-slice fallback (string keys etc.): fold in 8-byte words, then the
        // tail. The bookkeeping maps use integer keys, which take the fixed-width
        // fast paths below instead.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * i);
        }
        if !chunks.remainder().is_empty() {
            self.add(tail);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, `Default`-constructible).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the deterministic fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the deterministic fast hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), 0);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let hash = |n: u64| {
            let mut h = FxHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_ne!(hash(1), hash(2));
        assert_ne!(hash(0), hash(1 << 63));
    }

    #[test]
    fn byte_slices_match_wordwise_folding() {
        let mut by_bytes = FxHasher::default();
        by_bytes.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut by_words = FxHasher::default();
        by_words.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        by_words.write_u64(9);
        assert_eq!(by_bytes.finish(), by_words.finish());
    }

    #[test]
    fn map_works_with_integer_keys() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, (i * 3) as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&713), Some(&2139));
    }
}
