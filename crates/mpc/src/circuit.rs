//! Boolean circuits of the priced kernels, and their AND counts.
//!
//! A garbled circuit's cost is its AND gates: with free XOR, XOR and NOT cost
//! nothing. [`Circuit`] is a plain gate list (input, XOR, NOT, AND, output) with a
//! plaintext [`Circuit::eval`], [`Circuit::and_count`] and [`Circuit::and_depth`].
//! Each [`Kernel`] the cost meter prices has a generator here at the public bit
//! width of its operands ([`Kernel::circuit`]), and the meter reads its AND count
//! through [`Kernel::ands`], a table filled once per (kernel, width): pricing never
//! builds a circuit on the hot path. An aggregate's adder tree over the scanned
//! rows is a [`Reduction`], whose generator is sized by the row count and whose
//! AND count is a closed form the twin tests hold to it.
//!
//! Words enter a circuit least significant bit first.

use std::sync::OnceLock;

/// Width of a full share word: what shuffle tags and the maintenance protocols'
/// counters are priced at, and every column of an array that carries no schema.
pub const WORD_BITS: u32 = 32;

/// Index of a wire: the gate that drives it.
type Wire = usize;

/// One gate of a [`Circuit`]; each drives the wire of its own index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// The next input bit.
    Input,
    /// `a ⊕ b` (free).
    Xor(Wire, Wire),
    /// `¬a` (free).
    Not(Wire),
    /// `a ∧ b`: the one gate a garbled circuit pays for.
    And(Wire, Wire),
}

/// A Boolean circuit: gates in topological order and the wires it outputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Circuit {
    gates: Vec<Gate>,
    outputs: Vec<Wire>,
}

impl Circuit {
    fn push(&mut self, gate: Gate) -> Wire {
        self.gates.push(gate);
        self.gates.len() - 1
    }

    /// A fresh input wire.
    fn input(&mut self) -> Wire {
        self.push(Gate::Input)
    }

    /// `n` fresh input wires: one word, least significant bit first.
    fn word(&mut self, n: u32) -> Vec<Wire> {
        (0..n).map(|_| self.input()).collect()
    }

    /// `a ⊕ b`.
    fn xor(&mut self, a: Wire, b: Wire) -> Wire {
        self.push(Gate::Xor(a, b))
    }

    /// `¬a`.
    fn not(&mut self, a: Wire) -> Wire {
        self.push(Gate::Not(a))
    }

    /// `a ∧ b`.
    fn and(&mut self, a: Wire, b: Wire) -> Wire {
        self.push(Gate::And(a, b))
    }

    /// Append `wire` to the outputs.
    fn output(&mut self, wire: Wire) {
        self.outputs.push(wire);
    }

    /// Evaluate on plaintext `inputs` (one bit per input gate, in gate order) and
    /// return the output bits.
    ///
    /// # Panics
    /// Panics when `inputs` does not hold exactly one bit per input gate.
    #[must_use]
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let mut next = inputs.iter();
        let mut values: Vec<bool> = Vec::with_capacity(self.gates.len());
        for gate in &self.gates {
            let value = match *gate {
                Gate::Input => *next.next().expect("one bit per input gate"),
                Gate::Xor(a, b) => values[a] ^ values[b],
                Gate::Not(a) => !values[a],
                Gate::And(a, b) => values[a] & values[b],
            };
            values.push(value);
        }
        assert!(next.next().is_none(), "one bit per input gate");
        self.outputs.iter().map(|&w| values[w]).collect()
    }

    /// Number of AND gates: the circuit's garbling cost.
    #[must_use]
    pub fn and_count(&self) -> u64 {
        let ands = self.gates.iter().filter(|g| matches!(g, Gate::And(..)));
        ands.count() as u64
    }

    /// Longest chain of AND gates from an input to an output.
    #[must_use]
    pub fn and_depth(&self) -> u32 {
        let mut depth: Vec<u32> = Vec::with_capacity(self.gates.len());
        for gate in &self.gates {
            let d = match *gate {
                Gate::Input => 0,
                Gate::Xor(a, b) => depth[a].max(depth[b]),
                Gate::Not(a) => depth[a],
                Gate::And(a, b) => depth[a].max(depth[b]) + 1,
            };
            depth.push(d);
        }
        self.outputs.iter().map(|&w| depth[w]).max().unwrap_or(0)
    }

    /// `maj(a, b, c)` in one AND: `c ⊕ ((a ⊕ c) ∧ (b ⊕ c))`.
    fn majority(&mut self, a: Wire, b: Wire, c: Wire) -> Wire {
        let (ac, bc) = (self.xor(a, c), self.xor(b, c));
        let t = self.and(ac, bc);
        self.xor(c, t)
    }

    /// `x − y` modulo `2^w` and its borrow out, `[x < y]`: one AND a bit.
    fn subtract(&mut self, x: &[Wire], y: &[Wire]) -> (Vec<Wire>, Wire) {
        let nx = self.not(x[0]);
        let mut borrow = self.and(nx, y[0]);
        let mut difference = vec![self.xor(x[0], y[0])];
        for (&xi, &yi) in x.iter().zip(y).skip(1) {
            let d = self.xor(xi, yi);
            difference.push(self.xor(d, borrow));
            let nx = self.not(xi);
            borrow = self.majority(nx, yi, borrow);
        }
        (difference, borrow)
    }

    /// `[x < y]`: the borrow chain of `x − y`.
    fn less_than(&mut self, x: &[Wire], y: &[Wire]) -> Wire {
        let nx = self.not(x[0]);
        let mut borrow = self.and(nx, y[0]);
        for (&xi, &yi) in x.iter().zip(y).skip(1) {
            let nx = self.not(xi);
            borrow = self.majority(nx, yi, borrow);
        }
        borrow
    }

    /// `[x = y]`: the bitwise XNORs ANDed in a balanced tree, `w − 1` ANDs.
    fn equal(&mut self, x: &[Wire], y: &[Wire]) -> Wire {
        let mut level: Vec<Wire> = x
            .iter()
            .zip(y)
            .map(|(&xi, &yi)| {
                let d = self.xor(xi, yi);
                self.not(d)
            })
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| match *pair {
                    [a, b] => self.and(a, b),
                    [a] => a,
                    _ => unreachable!("chunks of two"),
                })
                .collect();
        }
        level[0]
    }

    /// Swap `a` and `b` where `s`: one AND a bit, `t = s ∧ (a ⊕ b)`.
    fn swap(&mut self, s: Wire, a: &[Wire], b: &[Wire]) -> (Vec<Wire>, Vec<Wire>) {
        let (mut a2, mut b2) = (Vec::with_capacity(a.len()), Vec::with_capacity(b.len()));
        for (&ai, &bi) in a.iter().zip(b) {
            let d = self.xor(ai, bi);
            let t = self.and(s, d);
            a2.push(self.xor(ai, t));
            b2.push(self.xor(bi, t));
        }
        (a2, b2)
    }

    /// `x + y` for words of any widths, modulo `2^width` (exact where the sum is
    /// known to fit): the ripple carry over the bits present, one AND a carry,
    /// none out of the top bit. With both words at least one bit wide, that is
    /// `width − 1` ANDs.
    fn add(&mut self, x: &[Wire], y: &[Wire], width: u32) -> Vec<Wire> {
        let mut sum = Vec::with_capacity(width as usize);
        let mut carry: Option<Wire> = None;
        for i in 0..width as usize {
            let top = i + 1 == width as usize;
            let present: Vec<Wire> = [x.get(i), y.get(i), carry.as_ref()]
                .into_iter()
                .flatten()
                .copied()
                .collect();
            let (bit, next) = match present[..] {
                [a] => (a, None),
                [a, b] => (self.xor(a, b), (!top).then(|| self.and(a, b))),
                [a, b, c] => {
                    let ab = self.xor(a, b);
                    (self.xor(ab, c), (!top).then(|| self.majority(a, b, c)))
                }
                _ => unreachable!("a sum that fits its width has a bit at every position"),
            };
            sum.push(bit);
            carry = next;
        }
        sum
    }

    /// The halving adder tree over `leaves`: the first `⌈n/2⌉` and the last
    /// `⌊n/2⌋` reduced alike, then added into `width(n)` bits.
    fn adder_tree(&mut self, leaves: &[Vec<Wire>], width: &dyn Fn(u64) -> u32) -> Vec<Wire> {
        match leaves {
            [] => Vec::new(),
            [leaf] => leaf.clone(),
            _ => {
                let (left, right) = leaves.split_at(leaves.len().div_ceil(2));
                let x = self.adder_tree(left, width);
                let y = self.adder_tree(right, width);
                self.add(&x, &y, width(leaves.len() as u64))
            }
        }
    }
}

/// An aggregate's reduction over the scanned rows: one circuit, an adder tree
/// whose every node is priced at the exact width of the largest value its rows
/// can sum to. Not a [`Kernel`]: its size is the row count, far past the
/// kernel table's widths, so [`Reduction::ands`] is a closed form, held to the
/// generator ([`Reduction::circuit`]) by the twin tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduction {
    /// The number of set bits among `rows` selection bits (inputs: one bit a
    /// row).
    Count {
        /// Selection bits reduced.
        rows: u64,
    },
    /// The sum of `rows` values of `bits` bits, each masked by its row's
    /// selection bit (`bits` ANDs a row; inputs: per row the selection bit, then
    /// the value least significant bit first).
    Sum {
        /// Values reduced.
        rows: u64,
        /// The values' public width, at most 64.
        bits: u32,
    },
}

impl Reduction {
    /// The largest value one row contributes.
    fn leaf_max(self) -> u64 {
        match self {
            Reduction::Count { .. } => 1,
            Reduction::Sum { bits, .. } => {
                assert!(bits <= 64, "a summed value is at most 64 bits wide");
                u64::MAX.checked_shr(64 - bits).unwrap_or(0)
            }
        }
    }

    /// The exact width of a subtree of `rows` rows, each contributing at most
    /// `leaf_max`: the bits of the largest value they can sum to.
    fn width(rows: u64, leaf_max: u64) -> u32 {
        u128::BITS - (u128::from(rows) * u128::from(leaf_max)).leading_zeros()
    }

    /// The generated circuit: a sum's masks, then the halving adder tree, each
    /// node an exact-width ripple carry. Builds `rows` leaves: for tests, never
    /// on a query path.
    #[must_use]
    pub fn circuit(self) -> Circuit {
        let mut c = Circuit::default();
        let leaves: Vec<Vec<Wire>> = match self {
            Reduction::Count { rows } => (0..rows).map(|_| vec![c.input()]).collect(),
            Reduction::Sum { rows, bits } => (0..rows)
                .map(|_| {
                    let selected = c.input();
                    let value = c.word(bits);
                    value.into_iter().map(|v| c.and(selected, v)).collect()
                })
                .collect(),
        };
        let leaf_max = self.leaf_max();
        for bit in c.adder_tree(&leaves, &|rows| Self::width(rows, leaf_max)) {
            c.output(bit);
        }
        c
    }

    /// The generated circuit's AND count in closed form, in `O(log rows)` with
    /// no allocation: a sum's masks, then per level of the halving tree every
    /// node of `m ≥ 2` rows adds its halves in `width(m) − 1` ANDs. At depth `d`
    /// the `2^d` subtrees hold `k = ⌊rows / 2^d⌋` or `k + 1` rows, and since they
    /// hold `rows` in all, `rows mod 2^d` of them hold `k + 1`.
    #[must_use]
    pub fn ands(self) -> u64 {
        let (rows, masks) = match self {
            Reduction::Count { rows } => (rows, 0),
            Reduction::Sum { rows, bits } => (rows, rows * u64::from(bits)),
        };
        let leaf_max = self.leaf_max();
        let merge = |m: u64| u64::from(Self::width(m, leaf_max)).saturating_sub(1);
        let mut ands = masks;
        for d in 0..u64::BITS - rows.leading_zeros() {
            let (k, larger) = (rows >> d, rows & ((1 << d) - 1));
            if k >= 2 {
                ands += ((1 << d) - larger) * merge(k);
            }
            ands += larger * merge(k + 1);
        }
        ands
    }

    /// The operation count it adds to: one add a row reduced; a sum's row counts
    /// two, its value's and its selection's.
    pub(crate) fn adds(self) -> u64 {
        match self {
            Reduction::Count { rows } => rows,
            Reduction::Sum { rows, .. } => 2 * rows,
        }
    }
}

/// A kernel the cost meter prices, at the public bit width of its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// `[x < y]` of two unsigned `w`-bit words: `w` ANDs.
    Lt(u32),
    /// `[x = y]` of two `w`-bit words: `w − 1` ANDs.
    Eq(u32),
    /// The view's θ-condition `rt − lt ∈ [0, window]` on `w`-bit times (inputs
    /// `lt`, `rt`, `window`): the subtraction's borrow, `[window < rt − lt]` and
    /// one AND, `2w + 1` ANDs.
    Theta(u32),
    /// Swap two `p`-bit payloads where a secret bit says so (inputs `s`, `a`,
    /// `b`): `p` ANDs.
    Swap(u32),
    /// The real-first compare-exchange keyed by one flag bit per wire, carrying a
    /// `p`-bit payload (inputs `fa`, `fb`, `a`, `b`): `t = fa ∧ fb`, the swap bit
    /// `fb ⊕ t`, the flags `fa ⊕ fb ⊕ t` and `t`, then the payload's swap:
    /// `1 + p` ANDs.
    CompareExchange(u32),
    /// `x + y` modulo `2^w`: `w − 1` ANDs.
    Add(u32),
}

/// Widths whose AND counts the table keeps; wider kernels are counted on demand.
const MEMO_WIDTHS: usize = 513;
const KINDS: usize = 6;

/// The AND count per (kernel kind, width), each filled on first use.
static ANDS: [[OnceLock<u64>; MEMO_WIDTHS]; KINDS] =
    [const { [const { OnceLock::new() }; MEMO_WIDTHS] }; KINDS];

/// What a kernel counts as in a [`crate::cost::CostReport`]'s operation counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operation {
    Compare,
    Swap,
    Add,
}

impl Kernel {
    /// The generated circuit. Word kernels need a width of at least one bit; a
    /// swap may carry an empty payload.
    ///
    /// # Panics
    /// Panics when a word kernel (`Lt`, `Eq`, `Theta`, `Add`) has width 0.
    #[must_use]
    pub fn circuit(self) -> Circuit {
        let mut c = Circuit::default();
        match self {
            Kernel::Lt(w) | Kernel::Eq(w) | Kernel::Add(w) | Kernel::Theta(w) => {
                assert!(w >= 1, "a word kernel needs a width of at least one bit");
                let (x, y) = (c.word(w), c.word(w));
                match self {
                    Kernel::Lt(_) => {
                        let lt = c.less_than(&x, &y);
                        c.output(lt);
                    }
                    Kernel::Eq(_) => {
                        let eq = c.equal(&x, &y);
                        c.output(eq);
                    }
                    Kernel::Add(_) => {
                        for s in c.add(&x, &y, w) {
                            c.output(s);
                        }
                    }
                    _ => {
                        // x = lt, y = rt.
                        let window = c.word(w);
                        let (gap, before) = c.subtract(&y, &x);
                        let late = c.less_than(&window, &gap);
                        let (not_before, not_late) = (c.not(before), c.not(late));
                        let within = c.and(not_before, not_late);
                        c.output(within);
                    }
                }
            }
            Kernel::Swap(p) => {
                let s = c.input();
                let (a, b) = (c.word(p), c.word(p));
                let (a, b) = c.swap(s, &a, &b);
                a.into_iter().chain(b).for_each(|w| c.output(w));
            }
            Kernel::CompareExchange(p) => {
                let (fa, fb) = (c.input(), c.input());
                let (a, b) = (c.word(p), c.word(p));
                let t = c.and(fa, fb);
                let s = c.xor(fb, t);
                let either = c.xor(fa, fb);
                let first = c.xor(either, t);
                c.output(first);
                c.output(t);
                let (a, b) = c.swap(s, &a, &b);
                a.into_iter().chain(b).for_each(|w| c.output(w));
            }
        }
        c
    }

    fn slot(self) -> (usize, u32) {
        match self {
            Kernel::Lt(w) => (0, w),
            Kernel::Eq(w) => (1, w),
            Kernel::Theta(w) => (2, w),
            Kernel::Swap(p) => (3, p),
            Kernel::CompareExchange(p) => (4, p),
            Kernel::Add(w) => (5, w),
        }
    }

    /// The generated circuit's AND count, read from a table filled once per
    /// (kernel, width).
    #[must_use]
    pub fn ands(self) -> u64 {
        let (kind, width) = self.slot();
        match ANDS[kind].get(width as usize) {
            Some(slot) => *slot.get_or_init(|| self.circuit().and_count()),
            None => self.circuit().and_count(),
        }
    }

    /// The operation count this kernel adds to.
    pub(crate) fn operation(self) -> Operation {
        match self {
            Kernel::Lt(_) | Kernel::Eq(_) | Kernel::Theta(_) => Operation::Compare,
            Kernel::Swap(_) | Kernel::CompareExchange(_) => Operation::Swap,
            Kernel::Add(_) => Operation::Add,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The widths every twin test runs at: 1 and 32 included.
    const WIDTHS: [u32; 6] = [1, 2, 7, 11, 14, 32];

    fn bits_of(value: u64, w: u32) -> impl Iterator<Item = bool> {
        (0..w).map(move |i| value >> i & 1 == 1)
    }

    fn word(out: &[bool]) -> u64 {
        out.iter().rev().fold(0, |acc, &b| acc << 1 | u64::from(b))
    }

    fn mask(w: u32) -> u64 {
        (1u64 << w) - 1
    }

    fn eval_words(kernel: Kernel, words: &[u64], w: u32) -> Vec<bool> {
        let inputs: Vec<bool> = words.iter().flat_map(|&v| bits_of(v, w)).collect();
        kernel.circuit().eval(&inputs)
    }

    #[test]
    fn and_counts_follow_the_closed_forms_and_the_table_agrees() {
        for w in WIDTHS.into_iter().chain([0, 64, 200, 513, 700]) {
            let word = u64::from(w.max(1));
            if w >= 1 {
                assert_eq!(Kernel::Lt(w).circuit().and_count(), word, "lt {w}");
                assert_eq!(Kernel::Eq(w).circuit().and_count(), word - 1, "eq {w}");
                assert_eq!(Kernel::Theta(w).circuit().and_count(), 2 * word + 1);
                assert_eq!(Kernel::Add(w).circuit().and_count(), word - 1, "add {w}");
            }
            assert_eq!(Kernel::Swap(w).circuit().and_count(), u64::from(w));
            assert_eq!(
                Kernel::CompareExchange(w).circuit().and_count(),
                1 + u64::from(w)
            );
            let mut kernels = vec![Kernel::Swap(w), Kernel::CompareExchange(w)];
            if w >= 1 {
                kernels.extend([
                    Kernel::Lt(w),
                    Kernel::Eq(w),
                    Kernel::Theta(w),
                    Kernel::Add(w),
                ]);
            }
            for kernel in kernels {
                assert_eq!(kernel.ands(), kernel.circuit().and_count(), "{kernel:?}");
                assert_eq!(kernel.ands(), kernel.ands(), "memoised");
            }
        }
    }

    /// Every row count to 300, then sampled counts to 4 096 around the powers of
    /// two, where a halving tree's levels change shape.
    fn reduction_rows() -> impl Iterator<Item = u64> {
        (0..=300).chain([383, 511, 512, 513, 1000, 2047, 2049, 3001, 4095, 4096])
    }

    #[test]
    fn reduction_ands_equal_the_generated_and_count() {
        for rows in reduction_rows() {
            let count = Reduction::Count { rows };
            assert_eq!(count.ands(), count.circuit().and_count(), "{count:?}");
            for bits in WIDTHS {
                let sum = Reduction::Sum { rows, bits };
                assert_eq!(sum.ands(), sum.circuit().and_count(), "{sum:?}");
            }
        }
        // A count of n rows costs under two ANDs a row, a w-bit sum under w + 2
        // beyond its w masks.
        let (rows, bits) = (4096, 32);
        assert!(Reduction::Count { rows }.ands() < 2 * rows);
        assert!(Reduction::Sum { rows, bits }.ands() < rows * (2 * u64::from(bits) + 2));
    }

    /// A reduction's output is as wide as the largest answer of its rows: every
    /// row selected, each value at its maximum.
    #[test]
    fn reduction_outputs_are_as_wide_as_the_largest_answer() {
        let widest = |reduction: Reduction, inputs: u64| {
            let out = reduction.circuit().eval(&vec![true; inputs as usize]);
            (out.len(), word(&out))
        };
        for (rows, bits) in [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (300, 9)] {
            let count = widest(Reduction::Count { rows }, rows);
            assert_eq!(count, (bits as usize, rows), "count of {rows}");
        }
        for (rows, value, bits) in [(0, 11, 0), (1, 32, 32), (2, 32, 33), (3, 1, 2), (5, 0, 0)] {
            let sum = widest(
                Reduction::Sum { rows, bits: value },
                rows * (1 + u64::from(value)),
            );
            assert_eq!(
                sum,
                (bits as usize, rows * mask(value)),
                "sum of {rows} × {value}"
            );
        }
        let wide = widest(
            Reduction::Sum {
                rows: 1000,
                bits: 14,
            },
            15_000,
        );
        assert_eq!(wide, (24, 1000 * mask(14)), "14 bits and ⌈log₂ 1000⌉");
    }

    #[test]
    #[should_panic(expected = "one bit per input gate")]
    fn eval_rejects_a_short_input() {
        let _ = Kernel::Lt(4).circuit().eval(&[true; 7]);
    }

    proptest! {
        #[test]
        fn prop_compares_and_add_equal_the_host_operators(
            x in any::<u64>(),
            y in any::<u64>(),
            pick in 0usize..6,
        ) {
            let w = WIDTHS[pick];
            let (x, y) = (x & mask(w), y & mask(w));
            prop_assert_eq!(eval_words(Kernel::Lt(w), &[x, y], w), vec![x < y]);
            prop_assert_eq!(eval_words(Kernel::Eq(w), &[x, y], w), vec![x == y]);
            prop_assert_eq!(eval_words(Kernel::Eq(w), &[x, x], w), vec![true]);
            let sum = word(&eval_words(Kernel::Add(w), &[x, y], w));
            prop_assert_eq!(sum, (x + y) & mask(w));
        }

        #[test]
        fn prop_reductions_equal_the_host_count_and_sum(
            rows in proptest::collection::vec((0u8..2, any::<u64>()), 0..90),
            pick in 0usize..6,
        ) {
            let bits = WIDTHS[pick];
            let n = rows.len() as u64;
            let selected = |&(s, _): &(u8, u64)| s == 1;
            let count = Reduction::Count { rows: n };
            let inputs: Vec<bool> = rows.iter().map(selected).collect();
            let host = rows.iter().filter(|r| selected(r)).count() as u64;
            prop_assert_eq!(word(&count.circuit().eval(&inputs)), host);

            let sum = Reduction::Sum { rows: n, bits };
            let inputs: Vec<bool> = rows
                .iter()
                .flat_map(|r| [selected(r)].into_iter().chain(bits_of(r.1 & mask(bits), bits)))
                .collect();
            let host: u64 = rows.iter().filter(|r| selected(r)).map(|r| r.1 & mask(bits)).sum();
            prop_assert_eq!(word(&sum.circuit().eval(&inputs)), host);
        }

        #[test]
        fn prop_theta_is_the_views_window_condition(
            lt in any::<u64>(),
            gap in 0u64..24,
            window in 0u64..16,
            pick in 0usize..6,
        ) {
            let w = WIDTHS[pick];
            let (lt, window) = (lt & mask(w), window & mask(w));
            for rt in [lt.saturating_add(gap) & mask(w), lt.saturating_sub(gap)] {
                let host = rt >= lt && rt - lt <= window;
                let out = eval_words(Kernel::Theta(w), &[lt, rt, window], w);
                prop_assert_eq!(out, vec![host]);
            }
        }

        #[test]
        fn prop_swap_and_compare_exchange_equal_the_host_kernels(
            a in any::<u64>(),
            b in any::<u64>(),
            flags in 0u8..4,
            pick in 0usize..6,
        ) {
            let p = WIDTHS[pick];
            let (a, b) = (a & mask(p), b & mask(p));
            let (fa, fb) = (flags & 1 == 1, flags & 2 == 2);
            let split = |out: &[bool]| (word(&out[..p as usize]), word(&out[p as usize..]));

            let swap: Vec<bool> = [fb].into_iter().chain(bits_of(a, p)).chain(bits_of(b, p)).collect();
            let out = Kernel::Swap(p).circuit().eval(&swap);
            prop_assert_eq!(split(&out), if fb { (b, a) } else { (a, b) });

            // Reals first: the wires swap exactly when a dummy sits before a real.
            let inputs: Vec<bool> =
                [fa, fb].into_iter().chain(bits_of(a, p)).chain(bits_of(b, p)).collect();
            let out = Kernel::CompareExchange(p).circuit().eval(&inputs);
            let swapped = !fa && fb;
            prop_assert_eq!((out[0], out[1]), (fa || fb, fa && fb));
            let payload = split(&out[2..]);
            prop_assert_eq!(payload, if swapped { (b, a) } else { (a, b) });
        }
    }
}
