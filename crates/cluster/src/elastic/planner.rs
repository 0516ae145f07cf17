//! Split/merge planning over the virtual-bucket assignment table.
//!
//! The planner sees only public signals: the noisy per-bucket load EWMA (built
//! from ε-accounted releases) and the per-destination ingest-cut overflow
//! counters (each overflow already leaked a true count — reusing the counter
//! is free). Decisions use hysteresis watermarks around the mean destination
//! load plus a cooldown, so transient skew doesn't thrash the topology:
//!
//! * **split** — when the hottest destination's load exceeds
//!   `high_water × mean` (or its ingest cut overflowed since the last plan),
//!   its hottest buckets move one by one to the coldest destination until the
//!   source drops to the mean.
//! * **merge** — when the coldest destination falls below `low_water × mean`,
//!   all of its buckets move to the second-coldest destination, emptying the
//!   shard (it stays available for later splits to repopulate).

use super::{BucketMove, ElasticConfig};

/// The split/merge planner (hysteresis + cooldown state).
#[derive(Debug)]
pub(crate) struct Planner {
    config: ElasticConfig,
    last_action: Option<u64>,
    /// Per-destination cut-overflow counts at the last plan (deltas trigger
    /// splits).
    overflow_snapshot: Vec<u64>,
    splits: u64,
    merges: u64,
    bucket_moves: u64,
}

impl Planner {
    /// Planner driven by the given configuration.
    #[must_use]
    pub fn new(config: ElasticConfig) -> Self {
        Self {
            config,
            last_action: None,
            overflow_snapshot: Vec::new(),
            splits: 0,
            merges: 0,
            bucket_moves: 0,
        }
    }

    /// Planned split actions so far.
    #[must_use]
    pub fn splits(&self) -> u64 {
        self.splits
    }

    /// Planned merge actions so far.
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Individual bucket transfers across all actions so far.
    #[must_use]
    pub fn bucket_moves(&self) -> u64 {
        self.bucket_moves
    }

    /// Plan at most one rebalancing action for the current topology. `ewma` is
    /// the noisy per-bucket load estimate, `cut_overflows` the cumulative
    /// per-destination ingest-cut overflow counters.
    pub fn plan(
        &mut self,
        time: u64,
        assignment: &[usize],
        ewma: &[f64],
        cut_overflows: &[u64],
        shards: usize,
    ) -> Vec<BucketMove> {
        if self.overflow_snapshot.len() != shards {
            self.overflow_snapshot = vec![0; shards];
        }
        let deltas: Vec<u64> = cut_overflows
            .iter()
            .zip(&self.overflow_snapshot)
            .map(|(&now, &then)| now.saturating_sub(then))
            .collect();
        self.overflow_snapshot = cut_overflows.to_vec();

        if shards < 2 {
            return Vec::new();
        }
        if let Some(last) = self.last_action {
            if time < last + self.config.cooldown {
                return Vec::new();
            }
        }

        // Signed noisy estimates can dip below zero; clamp per bucket so a
        // handful of negative outliers can't make a destination look colder
        // than empty.
        let weight = |bucket: usize| ewma[bucket].max(0.0);
        let mut loads = vec![0.0f64; shards];
        let mut bucket_counts = vec![0usize; shards];
        for (bucket, &dest) in assignment.iter().enumerate() {
            loads[dest] += weight(bucket);
            bucket_counts[dest] += 1;
        }
        let total: f64 = loads.iter().sum();
        // Overflow evidence triggers a split only when it is *concentrated*:
        // a skew-free bursty workload overflows a little everywhere, and
        // chasing that noise churns the topology for nothing. Demand at least
        // two events on the worst destination and that it carries at least
        // twice the second-worst.
        let mut sorted_deltas = deltas.clone();
        sorted_deltas.sort_unstable_by(|a, b| b.cmp(a));
        let max_delta = sorted_deltas.first().copied().unwrap_or(0);
        let runner_up = sorted_deltas.get(1).copied().unwrap_or(0);
        let overflowed = max_delta >= 2 && max_delta >= 2 * runner_up;
        if total <= 0.0 && !overflowed {
            return Vec::new(); // nothing released yet, nothing overflowed
        }
        let mean = total / shards as f64;

        // Split source: an overflowing destination takes priority (hard public
        // evidence of heat); otherwise the hottest destination past the high
        // watermark. Ties break on the lowest index for determinism.
        let hottest = argmax_f64(&loads);
        let source = if overflowed {
            argmax_u64(&deltas)
        } else if loads[hottest] > self.config.high_water * mean && mean > 0.0 {
            hottest
        } else {
            return self.plan_merge(time, assignment, &loads, &bucket_counts, mean);
        };
        if bucket_counts[source] < 2 {
            return Vec::new(); // single-bucket shards cannot shed load
        }

        let target = argmin_f64_excluding(&loads, source);
        let mut source_buckets: Vec<usize> = assignment
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == source)
            .map(|(b, _)| b)
            .collect();
        // Hottest first; stable index tiebreak keeps the plan deterministic.
        source_buckets.sort_by(|&a, &b| ewma[b].total_cmp(&ewma[a]).then(a.cmp(&b)));

        let mut moves = Vec::new();
        let mut source_load = loads[source];
        let mut target_load = loads[target];
        let floor = if mean > 0.0 { mean } else { 0.0 };
        for &bucket in &source_buckets {
            if moves.len() + 1 >= bucket_counts[source] {
                break; // always leave the source one bucket
            }
            if source_load <= floor {
                break;
            }
            let w = weight(bucket);
            // Move only when the transfer strictly narrows the gap (w < gap):
            // relocating a mega bucket that would just turn the target into the
            // new hot spot is skipped, and the scan continues so the source
            // sheds its *colder* buckets instead — the mega bucket ends up
            // isolated rather than ping-ponged between destinations.
            if w >= source_load - target_load {
                continue;
            }
            source_load -= w;
            target_load += w;
            moves.push(BucketMove {
                bucket,
                from: source,
                to: target,
            });
        }
        if moves.is_empty() && overflowed && bucket_counts[source] >= 2 {
            // An ingest-cut overflow is hard public evidence the noisy loads
            // undersell the source, even when they look balanced. Shed the one
            // bucket that leaves the pair closest to balanced.
            let gap = loads[source] - loads[target];
            if let Some(&bucket) = source_buckets.iter().min_by(|&&a, &&b| {
                let score = |x: usize| (gap - 2.0 * weight(x)).abs();
                score(a).total_cmp(&score(b)).then(a.cmp(&b))
            }) {
                moves.push(BucketMove {
                    bucket,
                    from: source,
                    to: target,
                });
            }
        }
        if !moves.is_empty() {
            self.splits += 1;
            self.bucket_moves += moves.len() as u64;
            self.last_action = Some(time);
        }
        moves
    }

    fn plan_merge(
        &mut self,
        time: u64,
        assignment: &[usize],
        loads: &[f64],
        bucket_counts: &[usize],
        mean: f64,
    ) -> Vec<BucketMove> {
        let coldest = argmin_f64(loads);
        if bucket_counts[coldest] == 0 || loads[coldest] >= self.config.low_water * mean {
            return Vec::new();
        }
        let target = argmin_f64_excluding(loads, coldest);
        let moves: Vec<BucketMove> = assignment
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == coldest)
            .map(|(bucket, _)| BucketMove {
                bucket,
                from: coldest,
                to: target,
            })
            .collect();
        if !moves.is_empty() {
            self.merges += 1;
            self.bucket_moves += moves.len() as u64;
            self.last_action = Some(time);
        }
        moves
    }
}

fn argmax_f64(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

fn argmax_u64(values: &[u64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

fn argmin_f64(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v < values[best] {
            best = i;
        }
    }
    best
}

fn argmin_f64_excluding(values: &[f64], excluded: usize) -> usize {
    let mut best = usize::MAX;
    for (i, &v) in values.iter().enumerate() {
        if i == excluded {
            continue;
        }
        if best == usize::MAX || v < values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_oblivious::shuffle::VIRTUAL_BUCKETS;

    fn identity(shards: usize) -> Vec<usize> {
        (0..VIRTUAL_BUCKETS).map(|b| b % shards).collect()
    }

    fn config() -> ElasticConfig {
        ElasticConfig {
            cooldown: 4,
            ..ElasticConfig::default()
        }
    }

    #[test]
    fn hot_destination_sheds_its_hottest_buckets_to_the_coldest() {
        let mut planner = Planner::new(config());
        let assignment = identity(4);
        let mut ewma = vec![1.0f64; VIRTUAL_BUCKETS];
        // Destination 1 owns buckets 1, 5, 9, ... — make two of them blazing.
        ewma[1] = 50.0;
        ewma[5] = 30.0;
        let moves = planner.plan(8, &assignment, &ewma, &[0; 4], 4);
        assert!(!moves.is_empty(), "hot shard must split");
        assert!(moves.iter().all(|m| m.from == 1));
        assert_eq!(moves[0].bucket, 1, "hottest bucket moves first");
        assert!(moves.iter().all(|m| m.to != 1));
        assert_eq!(planner.splits(), 1);
        assert_eq!(planner.bucket_moves(), moves.len() as u64);
    }

    #[test]
    fn cooldown_suppresses_back_to_back_actions() {
        let mut planner = Planner::new(config());
        let assignment = identity(2);
        let mut ewma = vec![1.0f64; VIRTUAL_BUCKETS];
        ewma[0] = 100.0;
        assert!(!planner.plan(1, &assignment, &ewma, &[0; 2], 2).is_empty());
        assert!(
            planner.plan(2, &assignment, &ewma, &[0; 2], 2).is_empty(),
            "inside cooldown"
        );
        assert!(
            !planner.plan(5, &assignment, &ewma, &[0; 2], 2).is_empty(),
            "cooldown elapsed"
        );
    }

    #[test]
    fn overflow_delta_triggers_a_split_even_below_the_watermark() {
        let mut planner = Planner::new(config());
        let assignment = identity(2);
        let ewma = vec![1.0f64; VIRTUAL_BUCKETS]; // perfectly balanced
        let moves = planner.plan(1, &assignment, &ewma, &[3, 0], 2);
        assert!(!moves.is_empty(), "overflowing destination must shed load");
        assert!(moves.iter().all(|m| m.from == 0 && m.to == 1));
        // Counters are cumulative: an unchanged counter is no new evidence.
        let moves = planner.plan(9, &assignment, &ewma, &[3, 0], 2);
        assert!(moves.is_empty(), "no new overflow, no split");
    }

    #[test]
    fn cold_destination_merges_into_its_neighbour() {
        // A near-empty shard drags the mean down far enough that the remaining
        // shards trip the split watermark first; park it high so this test
        // exercises the merge path in isolation.
        let mut planner = Planner::new(ElasticConfig {
            high_water: 10.0,
            ..config()
        });
        // Destination 2 owns only bucket 0; everything else split between 0/1.
        let mut assignment = identity(2);
        assignment[0] = 2;
        let mut ewma = vec![1.0f64; VIRTUAL_BUCKETS];
        ewma[0] = 0.01;
        let moves = planner.plan(1, &assignment, &ewma, &[0; 3], 3);
        assert_eq!(moves.len(), 1, "the lone cold bucket moves out");
        assert_eq!(
            moves[0],
            BucketMove {
                bucket: 0,
                from: 2,
                to: moves[0].to
            }
        );
        assert_ne!(moves[0].to, 2);
        assert_eq!(planner.merges(), 1);
    }

    #[test]
    fn balanced_load_plans_nothing() {
        let mut planner = Planner::new(config());
        let assignment = identity(4);
        let ewma = vec![2.0f64; VIRTUAL_BUCKETS];
        assert!(planner.plan(1, &assignment, &ewma, &[0; 4], 4).is_empty());
        assert!(
            planner.plan(1, &identity(1), &ewma, &[5; 1], 1).is_empty(),
            "a single shard has nowhere to move load"
        );
    }
}
