//! Real-first arrangements: Figure 3's `ObliSort(σ, key = isView)` only has to
//! bring real tuples ahead of dummies, which [`Compaction`] does in `(n/2)·log₂ n`
//! conditional swaps where Batcher's sort has about `(n/4)·log₂² n` comparators.
//! The secure cache seals every tail with it; [`cache_read`] is Figure 3's read.
//!
//! Every real-first network, this compaction or a flag-keyed merge of real-first
//! runs ([`crate::sort::Network::merge`]), runs on the host as one pass,
//! [`partition_by_is_view`], while the caller charges the network it stands for.

use incshrink_mpc::cost::CostMeter;
use incshrink_secretshare::arrays::SharedArrayPair;

/// ORCompact (Sasy, Johnson and Goldberg, CCS 2022, after Goodrich, SPAA 2011) over
/// `n` wires: reals first, in input order, then the dummies. Which wires a swap
/// joins depends on `n` alone; only the swap bits are secret.
///
/// `n`'s binary expansion cuts the wires into power-of-two blocks, smallest first.
/// A block of `n₁` wires is compacted to the offset `(n₁ − n₂ + m) mod n₁`, `m` the
/// reals among the `n₂` compacted wires before it, and joined to them by the swaps
/// `(i, i + n₁)` where `i ≥ m`. A block compacted to offset `z`, with `m` reals in
/// its first half `h`, compacts its halves to `z mod h` and `(z + m) mod h`, then
/// swaps `(i, i + h)` where `s ⊕ [i ≥ (z + m) mod h]`, `s = [z mod h + m ≥ h] ⊕ [z ≥ h]`.
#[derive(Debug, Clone, Copy)]
pub struct Compaction(usize);

impl Compaction {
    /// The compaction of `n` wires.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Compaction(n)
    }

    /// Each block's exponent `k` and the wires before it, smallest block first.
    fn blocks(self) -> impl Iterator<Item = (u64, usize)> {
        let n = self.0;
        let set = (0..usize::BITS).filter(move |k| n >> k & 1 == 1);
        set.map(move |k| (u64::from(k), n & ((1 << k) - 1)))
    }

    /// Conditional swaps: `k·2ᵏ⁻¹` in a block of `2ᵏ` wires, `n₂` to join it.
    fn swaps(self) -> u64 {
        let swaps = |(k, before): (u64, usize)| (k << k >> 1) + before as u64;
        self.blocks().map(swaps).sum()
    }

    /// ANDs of the control circuit, constants folded. A node over `2ʲ` wires adds its
    /// halves' real counts (`j`; not on the last block's right spine), its offset to
    /// the left count (`j − 1`; not on the first block's left spine, offset 0) and
    /// decodes the right offset's thermometer `[i ≥ x]` (`2ʲ⁻¹ − j`). A join sums the
    /// count before it, decodes `[i ≥ m]` bit by bit and adds `n₁ − n₂` to `m`.
    fn control_ands(self) -> u64 {
        let block = |(k, before): (u64, usize)| {
            let mut ands = (k << k >> 1) + (1 << k) - k - 1;
            ands -= u64::from(before + (1 << k) == self.0) * k * (k + 1) / 2;
            if before == 0 {
                return ands - k * k.saturating_sub(1) / 2;
            }
            let bits = usize::BITS - before.leading_zeros();
            ands += u64::from(!before.is_power_of_two()) * u64::from(bits - 1);
            let (shift, mut wanted, mut carry) = ((1 << k) - before, before, false);
            for half in (0..bits).rev().map(|b| 1 << b) {
                ands += (wanted.min(half) - usize::from(wanted >= half)) as u64;
                wanted = wanted.min(half);
            }
            for p in 0..k as u32 - 1 {
                let secret = p < bits;
                ands += u64::from(secret && carry);
                carry = secret && carry || shift >> p & 1 == 1 && (secret || carry);
            }
            ands
        };
        self.blocks().map(block).sum()
    }

    /// Charge the compaction over rows of `payload_words` words besides the flag as
    /// the Boolean circuit it is: per swap one AND for the flag and the payload's
    /// swap, plus the control's ANDs (none without a swap). Its gates join the
    /// step's open circuit, whose round the meter charges where it closes. Two wires
    /// cost one [`crate::sort::Network::charge_flag_keyed`] comparator. Returns the swaps.
    pub fn charge(&self, payload_words: u64, meter: &mut CostMeter) -> u64 {
        let swaps = self.swaps();
        meter.ands(swaps + self.control_ands());
        meter.swaps(swaps, payload_words);
        swaps
    }

    /// Run it over wires flagged `real`; `swap` sees every conditional swap, in
    /// order, with its bit. Position `j` of the result names the wire that ends there.
    /// The reference the circuit twin and [`partition_by_is_view`] are held to.
    #[cfg(test)]
    fn run(self, real: &[bool], swap: impl FnMut(usize, usize, bool)) -> Vec<usize> {
        let wires = (0..self.0).collect();
        let mut walk = Walk { real, wires, swap };
        walk.compact(0, self.0);
        walk.wires
    }
}

/// The host run of [`Compaction`]: `wires[j]` is the wire now at position `j`.
#[cfg(test)]
struct Walk<'a, F> {
    real: &'a [bool],
    wires: Vec<usize>,
    swap: F,
}

#[cfg(test)]
impl<F: FnMut(usize, usize, bool)> Walk<'_, F> {
    /// `ORCompact` over positions `lo..hi`.
    fn compact(&mut self, lo: usize, hi: usize) {
        if hi - lo < 2 {
            return;
        }
        let block = 1 << (hi - lo).ilog2();
        let before = hi - lo - block;
        let m = self.reals(lo, lo + before);
        self.compact(lo, lo + before);
        self.off(lo + before, hi, (block - before + m) % block);
        self.layer(lo, block, hi, |i| i >= m);
    }

    /// `OROffCompact` over power-of-two `lo..hi`: reals first, rotated right by `z`.
    fn off(&mut self, lo: usize, hi: usize, z: usize) {
        let half = (hi - lo) / 2;
        if half == 0 {
            return;
        }
        let m = self.reals(lo, lo + half);
        let (left, right) = (z % half, (z % half + m) % half);
        let s = (left + m >= half) != (z >= half);
        self.off(lo, lo + half, left);
        self.off(lo + half, hi, right);
        self.layer(lo, half, hi, |i| s != (i >= right));
    }

    fn reals(&self, lo: usize, hi: usize) -> usize {
        self.wires[lo..hi].iter().filter(|&&w| self.real[w]).count()
    }

    /// Swap `(lo + i, lo + i + stride)` where `bit(i)`, for every such pair below `hi`.
    fn layer(&mut self, lo: usize, stride: usize, hi: usize, bit: impl Fn(usize) -> bool) {
        for i in 0..hi - lo - stride {
            let (a, b, bit) = (lo + i, lo + i + stride, bit(i));
            (self.swap)(a, b, bit);
            if bit {
                self.wires.swap(a, b);
            }
        }
    }
}

/// The one host arrangement of a real-first network: every real row moves ahead of
/// the dummies in one pass, a swap per real with a dummy before it. The reals keep
/// their input order, as [`Compaction`] leaves them; the dummies' order is fixed by
/// the flags. Uncharged: the caller charges the network it stands for —
/// [`Compaction::charge`] for the seal, [`crate::sort::Network::charge_flag_keyed`]
/// of `Network::merge(runs, keep)` for the cache's merges and read. Keyed by one
/// flag, that network leaves the sorted input's flags on the wires it keeps, and so
/// does this pass, so every real count, trim and fetch is the network's (**declared
/// kernel substitution**: rows of equal `isView` may sit in another order).
pub fn partition_by_is_view(array: &mut SharedArrayPair) {
    let entries = array.entries_mut();
    let mut reals = 0;
    for at in 0..entries.len() {
        if entries[at].is_view.recover() == 1 {
            entries.swap(reals, at);
            reals += 1;
        }
    }
}

/// Bring `array` into real-first order, charged as [`Compaction`] over `words`
/// swapped words a row (fewer than the arity where a column is copied after it).
pub fn compact_by_is_view(array: &mut SharedArrayPair, words: usize, meter: &mut CostMeter) {
    Compaction::new(array.len()).charge(words as u64, meter);
    partition_by_is_view(array);
}

/// The secure cache read of Figure 3: compact all of `cache`, cut off and return its
/// first `read_size` entries (all of them, if fewer); the rest stays, real-first.
/// The servers see `read_size` (DP-noised) and the cache length `n`. Cost: the
/// compaction of the record's columns, `O(n log n)`, then the record transfer.
pub fn cache_read(
    cache: &mut SharedArrayPair,
    read_size: usize,
    meter: &mut CostMeter,
) -> SharedArrayPair {
    let arity = cache.arity().unwrap_or(0);
    compact_by_is_view(cache, arity, meter);
    meter.bytes(read_size.min(cache.len()) as u64 * (arity as u64 + 1) * 4);
    cache.split_front(read_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Network;
    use incshrink_secretshare::tuple::PlainRecord;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mixed_cache(real: usize, dummy: usize) -> SharedArrayPair {
        // Interleave real and dummy entries.
        let records: Vec<PlainRecord> = (0..real.max(dummy))
            .flat_map(|i| {
                let real = (i < real).then(|| PlainRecord::real(vec![i as u32, 100 + i as u32]));
                real.into_iter()
                    .chain((i < dummy).then(|| PlainRecord::dummy(2)))
            })
            .collect();
        SharedArrayPair::share_records(&records, &mut StdRng::seed_from_u64(21))
    }

    /// The materialised schedule: every conditional swap's wires, in execution order,
    /// and its bit for these flags.
    fn schedule(real: &[bool]) -> Vec<((usize, usize), bool)> {
        let mut schedule = Vec::new();
        Compaction::new(real.len()).run(real, |lo, hi, bit| schedule.push(((lo, hi), bit)));
        schedule
    }

    fn flags(array: &SharedArrayPair) -> Vec<bool> {
        array
            .entries()
            .iter()
            .map(|e| e.is_view.recover() == 1)
            .collect()
    }

    /// The compaction of `real` must put its reals first, in input order, then
    /// every dummy, and so must the host pass over rows that carry their position.
    fn assert_compacts(real: &[bool]) {
        let records: Vec<PlainRecord> = (0u32..)
            .zip(real)
            .map(|(at, &is_view)| PlainRecord {
                fields: vec![at],
                is_view,
            })
            .collect();
        let mut array = SharedArrayPair::share_records(&records, &mut StdRng::seed_from_u64(3));
        partition_by_is_view(&mut array);
        let host = array
            .recover_all()
            .iter()
            .map(|r| r.fields[0] as usize)
            .collect();
        let reals: Vec<usize> = (0..real.len()).filter(|&i| real[i]).collect();
        for mut wires in [Compaction::new(real.len()).run(real, |_, _, _| {}), host] {
            assert_eq!(wires[..reals.len()], reals[..], "{real:?}");
            assert!(wires[reals.len()..].iter().all(|&w| !real[w]), "{real:?}");
            wires.sort_unstable();
            assert!(wires.into_iter().eq(0..real.len()));
        }
    }

    #[test]
    fn compaction_is_order_preserving_for_every_flag_vector_up_to_14() {
        for n in 0..=14usize {
            let compaction = Compaction::new(n);
            let wires = |real: &[bool]| -> Vec<(usize, usize)> {
                schedule(real).into_iter().map(|(pair, _)| pair).collect()
            };
            let public = wires(&vec![false; n]);
            assert_eq!(public.len() as u64, compaction.swaps(), "n={n}");
            for mask in 0..1u32 << n {
                let real: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                assert_compacts(&real);
                assert_eq!(wires(&real), public, "the schedule depends on n alone");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_compaction_is_order_preserving(
            real in proptest::collection::vec(any::<bool>(), 0..700),
        ) {
            assert_compacts(&real);
        }
    }

    #[test]
    fn compact_moves_real_tuples_to_front() {
        let mut cache = mixed_cache(4, 6);
        let before = cache.recover_all();
        compact_by_is_view(&mut cache, 2, &mut CostMeter::new());
        let after = cache.recover_all();
        let reals: Vec<_> = before.iter().filter(|r| r.is_view).collect();
        assert!(after[..4].iter().eq(reals), "reals first, in input order");
        assert!(after[4..].iter().all(|r| !r.is_view));
    }

    /// AND-equivalents of a report: 32 per swapped word, one per AND.
    fn and_equivalents(charge: impl FnOnce(&mut CostMeter) -> u64) -> u64 {
        let mut meter = CostMeter::new();
        charge(&mut meter);
        let report = meter.report();
        assert_eq!((report.secure_compares, report.rounds), (0, 0));
        report.secure_ands + 32 * report.secure_swaps
    }

    #[test]
    fn compaction_never_charges_more_than_the_flag_keyed_batcher_sort() {
        // Every length up to 4 096, then a sample up to 2¹⁵ (the cluster's per-shard
        // views, which the migration compacts, outgrow 4 096 rows): a stride off
        // every power of two and each power of two with its neighbours.
        let powers = (12..=15).flat_map(|k| [(1 << k) - 1, 1 << k, (1 << k) + 1]);
        let sampled = (4097..=1 << 15).step_by(97).chain(powers);
        for n in (0..=4096).chain(sampled) {
            let (compaction, sort) = (Compaction::new(n), Network::sort(n));
            assert!(compaction.swaps() <= sort.count(), "n={n}");
            for words in 0..=8 {
                let compact = and_equivalents(|meter| compaction.charge(words, meter));
                let batcher = and_equivalents(|meter| sort.charge_flag_keyed(words, meter));
                assert!(
                    compact <= batcher,
                    "n={n}, words={words}: {compact} > {batcher}"
                );
            }
        }
        // CPDB's 240-row tail: 928 swaps against 3 584 comparators.
        assert_eq!(
            (Compaction::new(240).swaps(), Network::sort(240).count()),
            (928, 3584)
        );
    }

    /// A Boolean gate list: free XOR and NOT, counted ANDs, constants folded.
    mod circuit {
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub(super) enum Wire {
            Const(bool),
            Gate(usize),
        }
        use Wire::Const;

        #[derive(Debug)]
        enum Gate {
            Input(usize),
            Xor(usize, usize),
            Not(usize),
            And(usize, usize),
        }

        #[derive(Debug, Default)]
        pub(super) struct Circuit {
            gates: Vec<Gate>,
        }

        impl Circuit {
            fn push(&mut self, gate: Gate) -> Wire {
                self.gates.push(gate);
                Wire::Gate(self.gates.len() - 1)
            }

            pub(super) fn input(&mut self, index: usize) -> Wire {
                self.push(Gate::Input(index))
            }

            pub(super) fn xor(&mut self, a: Wire, b: Wire) -> Wire {
                match (a, b) {
                    (Const(x), Const(y)) => Const(x != y),
                    (Const(false), w) | (w, Const(false)) => w,
                    (Const(true), w) | (w, Const(true)) => self.not(w),
                    _ if a == b => Const(false),
                    (Wire::Gate(x), Wire::Gate(y)) => self.push(Gate::Xor(x, y)),
                }
            }

            pub(super) fn not(&mut self, a: Wire) -> Wire {
                match a {
                    Const(x) => Const(!x),
                    Wire::Gate(x) => self.push(Gate::Not(x)),
                }
            }

            pub(super) fn and(&mut self, a: Wire, b: Wire) -> Wire {
                match (a, b) {
                    (Const(false), _) | (_, Const(false)) => Const(false),
                    (Const(true), w) | (w, Const(true)) => w,
                    (Wire::Gate(x), Wire::Gate(y)) => self.push(Gate::And(x, y)),
                }
            }

            pub(super) fn ands(&self) -> u64 {
                self.gates
                    .iter()
                    .filter(|gate| matches!(gate, Gate::And(..)))
                    .count() as u64
            }

            /// The plaintext value of every output.
            pub(super) fn eval(&self, inputs: &[bool], outputs: &[Wire]) -> Vec<bool> {
                let mut values: Vec<bool> = Vec::with_capacity(self.gates.len());
                for gate in &self.gates {
                    let value = match *gate {
                        Gate::Input(i) => inputs[i],
                        Gate::Xor(a, b) => values[a] != values[b],
                        Gate::Not(a) => !values[a],
                        Gate::And(a, b) => values[a] && values[b],
                    };
                    values.push(value);
                }
                outputs
                    .iter()
                    .map(|wire| match *wire {
                        Const(x) => x,
                        Wire::Gate(g) => values[g],
                    })
                    .collect()
            }
        }
    }
    use circuit::{Circuit, Wire, Wire::Const};

    /// Majority of three bits: the carry of a full adder, one AND.
    fn majority(c: &mut Circuit, bits: [Wire; 3]) -> Wire {
        let mut bits = bits;
        // A constant first, so that it folds the AND away.
        bits.sort_by_key(|bit| !matches!(bit, Const(_)));
        let [x, y, z] = bits;
        let (xy, xz) = (c.xor(x, y), c.xor(x, z));
        let both = c.and(xy, xz);
        c.xor(x, both)
    }

    /// `(a + b) mod 2^width`, little-endian, ripple carry.
    fn add(c: &mut Circuit, a: &[Wire], b: &[Wire], width: usize) -> Vec<Wire> {
        let mut carry = Const(false);
        (0..width)
            .map(|p| {
                let bit = |x: &[Wire]| x.get(p).copied().unwrap_or(Const(false));
                let (x, y) = (bit(a), bit(b));
                let xy = c.xor(x, y);
                let sum = c.xor(xy, carry);
                if p + 1 < width {
                    carry = majority(c, [x, y, carry]);
                }
                sum
            })
            .collect()
    }

    /// The thermometer `[x ≤ i]` for `i < outputs`.
    fn thermometer(c: &mut Circuit, x: &[Wire], outputs: usize) -> Vec<Wire> {
        let Some((&top, low)) = x.split_last() else {
            return vec![Const(true); outputs];
        };
        let inner = thermometer(c, low, outputs.min(1 << low.len()));
        let both: Vec<Wire> = inner.iter().map(|&le| c.and(top, le)).collect();
        // `[x ≤ i] = ¬top ∧ [low ≤ i]`, `[x ≤ i + half] = ¬top ∨ [low ≤ i]`.
        let mut out: Vec<Wire> = inner
            .iter()
            .zip(&both)
            .map(|(&le, &b)| c.xor(le, b))
            .collect();
        for &b in &both {
            let upper = c.xor(top, b);
            out.push(c.not(upper));
        }
        out.truncate(outputs);
        out
    }

    /// `OROffCompact`'s control over `flags` at offset `z` (`log₂ |flags|` bits):
    /// pushes its swap bits in execution order and returns the block's real count
    /// when `total` asks for it.
    fn off_control(
        c: &mut Circuit,
        flags: &[Wire],
        z: &[Wire],
        total: bool,
        bits: &mut Vec<Wire>,
    ) -> Vec<Wire> {
        let k = z.len();
        if k == 0 {
            return flags.to_vec();
        }
        let half = flags.len() / 2;
        let m = off_control(c, &flags[..half], &z[..k - 1], true, bits);
        let sum = add(c, &z[..k - 1], &m[..k - 1], k);
        let right = off_control(c, &flags[half..], &sum[..k - 1], total, bits);
        let wraps = c.xor(sum[k - 1], m[k - 1]);
        let s = c.xor(wraps, z[k - 1]);
        for le in thermometer(c, &sum[..k - 1], half) {
            bits.push(c.xor(s, le));
        }
        if total {
            add(c, &m, &right, k + 1)
        } else {
            Vec::new()
        }
    }

    /// `ORCompact`'s control over `flags`, as [`off_control`].
    fn control(c: &mut Circuit, flags: &[Wire], total: bool, bits: &mut Vec<Wire>) -> Vec<Wire> {
        if flags.is_empty() {
            return Vec::new();
        }
        let k = flags.len().ilog2() as usize;
        let before = flags.len() - (1 << k);
        let m = control(c, &flags[..before], true, bits);
        let shift: Vec<Wire> = (0..k)
            .map(|p| Const(((1 << k) - before) >> p & 1 == 1))
            .collect();
        let z = add(c, &shift, &m, k);
        let block = off_control(c, &flags[before..], &z, total, bits);
        bits.extend(thermometer(c, &m, before));
        match (total, before) {
            (false, _) => Vec::new(),
            (true, 0) => block,
            (true, _) => add(c, &m, &block, k + 1),
        }
    }

    /// The compaction of `n` flags as one circuit: the control, and every swap
    /// applied to the flag wires. Returns the swap bits and the flags that leave.
    fn twin(c: &mut Circuit, n: usize) -> (Vec<Wire>, Vec<Wire>) {
        let inputs: Vec<Wire> = (0..n).map(|i| c.input(i)).collect();
        let mut bits = Vec::new();
        control(c, &inputs, false, &mut bits);
        let mut flags = inputs;
        for (((lo, hi), _), &bit) in schedule(&vec![false; n]).into_iter().zip(&bits) {
            let differ = c.xor(flags[lo], flags[hi]);
            let flip = c.and(differ, bit);
            flags[lo] = c.xor(flags[lo], flip);
            flags[hi] = c.xor(flags[hi], flip);
        }
        (bits, flags)
    }

    #[test]
    fn circuit_twin_computes_the_host_swap_bits_at_the_charged_and_count() {
        let rng = &mut StdRng::seed_from_u64(42);
        for n in 0..=300usize {
            let mut c = Circuit::default();
            let (bits, out) = twin(&mut c, n);
            let compaction = Compaction::new(n);
            assert_eq!(bits.len() as u64, compaction.swaps(), "n={n}");
            let mut meter = CostMeter::new();
            compaction.charge(0, &mut meter);
            assert_eq!(c.ands(), meter.report().secure_ands, "n={n}");
            if n > 64 {
                continue;
            }
            for _ in 0..64 {
                let real: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
                let host: Vec<bool> = schedule(&real).into_iter().map(|(_, b)| b).collect();
                assert_eq!(c.eval(&real, &bits), host, "n={n}, {real:?}");
                let reals = real.iter().filter(|&&r| r).count();
                let compacted: Vec<bool> = (0..n).map(|i| i < reals).collect();
                assert_eq!(c.eval(&real, &out), compacted, "n={n}");
            }
        }
    }

    /// `(length, reals)` of what a read of `size` from an interleaved cache of
    /// `real` and `dummy` entries fetches, then of what it leaves.
    fn read(real: usize, dummy: usize, size: usize) -> [(usize, usize); 2] {
        let mut cache = mixed_cache(real, dummy);
        let fetched = cache_read(&mut cache, size, &mut CostMeter::new());
        [fetched, cache].map(|side| (side.len(), side.true_cardinality()))
    }

    #[test]
    fn cache_read_fetches_real_before_dummy() {
        // Read fewer entries than there are real tuples: everything fetched is real,
        // the rest stays deferred in the cache.
        assert_eq!(read(5, 10, 3), [(3, 3), (12, 2)]);
    }

    #[test]
    fn cache_read_larger_than_true_cardinality_includes_dummies() {
        assert_eq!(read(2, 8, 6), [(6, 2), (4, 0)]);
    }

    #[test]
    fn cache_read_larger_than_cache_drains_it() {
        assert_eq!(read(3, 3, 100), [(6, 3), (0, 0)]);
    }

    #[test]
    fn cache_read_zero_returns_nothing() {
        assert_eq!(read(3, 3, 0), [(0, 0), (6, 3)]);
    }

    #[test]
    fn cache_read_at_5000_equals_the_comparator_walk() {
        // A length off every power of two, so every block size occurs. The reference
        // swaps whole entries wherever the materialised schedule's bit is set; shares
        // are random, so entry-for-entry equality of the real prefix pins which real
        // sits where. The dummies' order is the host pass's own.
        let mut cache = mixed_cache(1700, 3300);
        let mut walked = cache.clone();
        walked.permute_gather(&Compaction::new(5000).run(&flags(&walked), |_, _, _| {}));

        let fetched = cache_read(&mut cache, 2000, &mut CostMeter::new());
        assert_eq!(fetched.entries()[..1700], walked.entries()[..1700]);
        assert!(!flags(&fetched)[1700..].contains(&true));
        let lens = [&fetched, &cache].map(|side| (side.len(), side.true_cardinality()));
        assert_eq!(lens, [(2000, 1700), (3000, 0)]);
    }

    proptest! {
        #[test]
        fn prop_cache_read_never_skips_real_tuples(
            real in 0usize..20, dummy in 0usize..20, read in 0usize..50) {
            let mut meter = CostMeter::new();
            let mut cache = mixed_cache(real, dummy);
            let fetched = cache_read(&mut cache, read, &mut meter);
            // Every fetched dummy implies no real tuple was left behind.
            let fetched_real = fetched.true_cardinality();
            let left_real = cache.true_cardinality();
            prop_assert_eq!(fetched_real + left_real, real);
            if fetched_real < fetched.len() {
                // A dummy was fetched, so all real tuples must have been fetched.
                prop_assert_eq!(left_real, 0);
            }
            prop_assert_eq!(fetched.len(), read.min(real + dummy));
        }
    }
}
