//! DP-sized ingest cuts (Shrinkwrap-style) for the shuffle phase.
//!
//! The static shuffle cuts every destination back to the worst-case ingest
//! size, so cold destinations pad forever. The cut plan instead derives a
//! per-destination cut from an EWMA of *signed* noisy per-bucket releases:
//! summing the smoothed estimates of the buckets a destination owns estimates
//! its per-window load; dividing by the window length and adding a safety
//! margin gives a per-step cut. Two details keep the estimate honest:
//!
//! * releases are **signed** ([`NoisyCutSizer::noisy_counts_signed`]) — a
//!   per-bucket non-negativity clamp would bias the sum of the ~dozens of
//!   near-empty buckets each destination owns upward by roughly the Laplace
//!   scale per bucket, inflating every cut to the static cap; only the final
//!   per-destination sum is clamped at zero.
//! * consecutive releases are EWMA-smoothed per bucket, shrinking the noise
//!   variance in the steady state without extra ε.
//!
//! Cuts never exceed the static worst case (the DP cut can only remove
//! padding, never add leakage beyond its ε-accounted release), and the whole
//! plan is driven by [`incshrink_dp::NoisyCutSizer`] releases stamped into the
//! ε-ledger under the ambient `elastic.cut` mechanism scope.

use super::stats::{relation_index, EWMA_ALPHA};
use incshrink_dp::NoisyCutSizer;
use incshrink_storage::Relation;

/// Per-destination ingest-cut plan fed by noisy per-bucket releases.
#[derive(Debug)]
pub(crate) struct CutPlan {
    sizer: NoisyCutSizer,
    margin: usize,
    window: u64,
    /// EWMA-smoothed signed noisy per-bucket estimates, per relation.
    smoothed: [Option<Vec<f64>>; 2],
    /// Current per-destination cuts, per relation.
    cuts: [Option<Vec<usize>>; 2],
    /// Static worst-case cut, per relation (recorded on first route).
    static_cut: [Option<usize>; 2],
    epsilon_spent: f64,
}

impl CutPlan {
    /// A plan spending `epsilon` per release, deriving noise from the cluster
    /// `seed`, adding `margin` records of safety to every cut, over control
    /// windows of `window` steps.
    #[must_use]
    pub fn new(epsilon: f64, seed: u64, margin: usize, window: u64) -> Self {
        Self {
            sizer: NoisyCutSizer::new(epsilon, seed),
            margin,
            window: window.max(1),
            smoothed: [None, None],
            cuts: [None, None],
            static_cut: [None, None],
            epsilon_spent: 0.0,
        }
    }

    /// The ε each release spends.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.sizer.epsilon()
    }

    /// Total ε spent by releases so far.
    #[must_use]
    pub fn epsilon_spent(&self) -> f64 {
        self.epsilon_spent
    }

    /// Record the static worst-case cut for `relation` (DP cuts are capped by
    /// it). First value wins; the static cut is a run constant.
    pub(crate) fn note_static_cut(&mut self, relation: Relation, ingest_size: usize) {
        let slot = &mut self.static_cut[relation_index(relation)];
        if slot.is_none() {
            *slot = Some(ingest_size);
        }
    }

    /// Release a *signed* noisy copy of `relation`'s per-bucket window tally
    /// (one ε-ledger entry under the ambient scopes), fold it into the
    /// relation's per-bucket EWMA and return it for the caller's own
    /// aggregates.
    pub fn release(&mut self, relation: Relation, tally: &[u64]) -> Vec<f64> {
        let noisy = self.sizer.noisy_counts_signed(tally);
        self.epsilon_spent += self.sizer.epsilon();
        match &mut self.smoothed[relation_index(relation)] {
            Some(est) => {
                for (e, &n) in est.iter_mut().zip(&noisy) {
                    *e = EWMA_ALPHA * n + (1.0 - EWMA_ALPHA) * *e;
                }
            }
            slot @ None => *slot = Some(noisy.clone()),
        }
        noisy
    }

    /// Recompute the per-destination cuts from the smoothed estimates and the
    /// current bucket-ownership table.
    pub(crate) fn refresh_cuts(&mut self, assignment: &[usize], shards: usize) {
        for idx in 0..2 {
            let Some(est) = &self.smoothed[idx] else {
                continue;
            };
            let mut dest_sums = vec![0.0f64; shards];
            for (bucket, &n) in est.iter().enumerate() {
                dest_sums[assignment[bucket]] += n;
            }
            let cuts = dest_sums
                .iter()
                .map(|&sum| {
                    // Clamp only the aggregate: the signed per-bucket noise
                    // stays unbiased under summation. The 2√μ term covers
                    // Poisson-scale burstiness, so a destination only shrinks
                    // below the static worst case when its load is *clearly*
                    // low — a mean-sized cut on a hot destination would buy
                    // padding savings with a steady trickle of overflows.
                    let mu = sum.max(0.0) / self.window as f64;
                    let per_step = (mu + 2.0 * mu.sqrt()).ceil() as usize + self.margin;
                    self.static_cut[idx].map_or(per_step, |cap| per_step.min(cap))
                })
                .collect();
            self.cuts[idx] = Some(cuts);
        }
    }

    /// The current per-destination cuts for `relation`, if a release happened.
    #[must_use]
    pub(crate) fn cuts_for(&self, relation: Relation) -> Option<&[usize]> {
        self.cuts[relation_index(relation)].as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_oblivious::shuffle::VIRTUAL_BUCKETS;

    #[test]
    fn cuts_track_skew_and_respect_the_static_cap() {
        // Near-noiseless ε so the arithmetic is checkable.
        let mut plan = CutPlan::new(1_000.0, 3, 2, 4);
        plan.note_static_cut(Relation::Left, 10);
        plan.note_static_cut(Relation::Left, 99); // ignored: first value wins

        let mut tally = vec![0u64; VIRTUAL_BUCKETS];
        tally[0] = 40; // bucket 0 → dest 0 under identity, 10/step
        tally[1] = 4; // bucket 1 → dest 1, 1/step
        plan.release(Relation::Left, &tally);
        let assignment: Vec<usize> = (0..VIRTUAL_BUCKETS).map(|b| b % 2).collect();
        plan.refresh_cuts(&assignment, 2);

        let cuts = plan.cuts_for(Relation::Left).expect("released");
        assert_eq!(cuts[0], 10, "hot destination capped at the static cut");
        assert!(
            cuts[1] >= 4 && cuts[1] <= 6,
            "cold destination sized near μ + 2√μ + margin for μ ≈ 1/step, got {}",
            cuts[1]
        );
        assert!(plan.cuts_for(Relation::Right).is_none(), "never released");
        assert!((plan.epsilon_spent() - 1_000.0).abs() < 1e-9);
    }
}
