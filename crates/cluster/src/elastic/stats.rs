//! Load tracking for the elastic control plane — public information only.
//!
//! The tracker accumulates per-virtual-bucket real counts while a control
//! window is open. The raw tallies are *protocol-internal* (they are exactly
//! the counts the routing protocol recovers inside
//! [`incshrink_oblivious::shuffle::shuffle_route_mapped`]); nothing leaves
//! this struct except through `LoadTracker::release`, which buys a noisy
//! copy from the DP sizer and feeds the per-bucket load EWMA from the *noisy*
//! values. The planner therefore only ever sees ε-accounted releases plus the
//! already-public overflow counters.

use super::cut::CutPlan;
use incshrink_oblivious::shuffle::VIRTUAL_BUCKETS;
use incshrink_storage::Relation;

pub(super) fn relation_index(relation: Relation) -> usize {
    match relation {
        Relation::Left => 0,
        Relation::Right => 1,
    }
}

/// Weight of the newest release in the per-bucket load EWMAs (shared by the
/// tracker and the cut plan).
pub(super) const EWMA_ALPHA: f64 = 0.5;

/// Windowed per-virtual-bucket load tracker.
#[derive(Debug)]
pub(crate) struct LoadTracker {
    /// Per relation, per virtual bucket: real records routed this window.
    tally: [Vec<u64>; 2],
    /// Whether the relation was routed at all this window (a relation that
    /// never routes must not waste a release on all-zero tallies).
    routed: [bool; 2],
    /// Per-bucket load estimate (per window, both relations combined), built
    /// exclusively from noisy releases.
    ewma: Vec<f64>,
}

impl Default for LoadTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl LoadTracker {
    /// Fresh tracker with zeroed tallies and estimates.
    #[must_use]
    pub fn new() -> Self {
        Self {
            tally: [vec![0; VIRTUAL_BUCKETS], vec![0; VIRTUAL_BUCKETS]],
            routed: [false; 2],
            ewma: vec![0.0; VIRTUAL_BUCKETS],
        }
    }

    /// Add one routed batch's per-bucket real counts to the open window.
    pub fn tally(&mut self, relation: Relation, bucket_reals: &[u64]) {
        let idx = relation_index(relation);
        self.routed[idx] = true;
        for (acc, &n) in self.tally[idx].iter_mut().zip(bucket_reals) {
            *acc += n;
        }
    }

    /// Close the window: release a noisy copy of each routed relation's tally
    /// through the cut plan's sizer (one ε-ledger entry per routed relation),
    /// fold the combined noisy loads into the EWMA and reset the tallies.
    /// Returns whether anything was released.
    pub fn release(&mut self, plan: &mut CutPlan) -> bool {
        let mut combined = vec![0.0f64; VIRTUAL_BUCKETS];
        let mut any = false;
        for relation in [Relation::Left, Relation::Right] {
            let idx = relation_index(relation);
            if !self.routed[idx] {
                continue;
            }
            let noisy = plan.release(relation, &self.tally[idx]);
            for (sum, n) in combined.iter_mut().zip(&noisy) {
                *sum += n;
            }
            self.tally[idx].iter_mut().for_each(|c| *c = 0);
            self.routed[idx] = false;
            any = true;
        }
        if any {
            // The signed estimate may dip below zero on quiet buckets; the
            // planner clamps per bucket when it aggregates, keeping the stored
            // EWMA unbiased.
            for (est, &n) in self.ewma.iter_mut().zip(&combined) {
                *est = EWMA_ALPHA * n + (1.0 - EWMA_ALPHA) * *est;
            }
        }
        any
    }

    /// The per-bucket load estimate (noisy-release EWMA, per window).
    #[must_use]
    pub(crate) fn ewma(&self) -> &[f64] {
        &self.ewma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_accumulate_and_reset_on_release() {
        let mut tracker = LoadTracker::new();
        let mut reals = vec![0u64; VIRTUAL_BUCKETS];
        reals[3] = 5;
        tracker.tally(Relation::Left, &reals);
        tracker.tally(Relation::Left, &reals);
        assert_eq!(tracker.tally[0][3], 10);
        assert!(tracker.routed[0]);
        assert!(!tracker.routed[1], "right never routed");

        // High ε → negligible noise: the EWMA should land near α·10.
        let mut plan = CutPlan::new(1_000.0, 7, 2, 1);
        assert!(tracker.release(&mut plan));
        assert_eq!(tracker.tally[0][3], 0, "window tallies reset");
        assert!(!tracker.routed[0]);
        assert!((tracker.ewma()[3] - 5.0).abs() < 1.0);
        assert!(tracker.ewma()[0] < 1.0);
    }

    #[test]
    fn nothing_routed_means_nothing_released() {
        let mut tracker = LoadTracker::new();
        let mut plan = CutPlan::new(0.5, 7, 2, 1);
        assert!(!tracker.release(&mut plan), "no routes → no ε spent");
        assert_eq!(plan.epsilon_spent(), 0.0);
    }
}
