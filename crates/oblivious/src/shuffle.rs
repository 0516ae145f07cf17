//! Oblivious shuffle and secure re-routing of secret-shared batches.
//!
//! Horizontally partitioned deployments need to move records between shard pairs
//! whenever the attribute data *arrives* partitioned by is not the attribute the
//! view *joins* on (e.g. retail returns arriving per store while the view joins on
//! item id). Doing that naively — sending each record to the shard owning its join
//! key — would reveal the per-shard key distribution. The standard fix (ORQ-style
//! shuffle-based operators, Shrinkwrap-style padded intermediates) is a **shuffle
//! phase**: obliviously permute the batch so output positions are unlinkable to
//! input positions, evaluate a *hashed routing tag* for every record inside the
//! MPC, and scatter the records into **fixed-size padded buckets**, one per
//! destination.
//!
//! # Leakage
//!
//! The servers observe only public quantities: the input batch length `n`, the
//! number of destinations `S`, and the constant bucket size — never the true number
//! of records routed to any destination (dummies pad every bucket to the same
//! size). The exception is a bucket *overflow* (more real records for one
//! destination than the padded size): the bucket grows to keep correctness, which
//! leaks that destination's true count for the step — exactly the burst-tolerance
//! contract padded upload batches already have ([`ShuffleRouteOutcome::overflows`]
//! counts such events so experiments can confirm the bucket size dominates).
//!
//! # Cost
//!
//! Charged to the [`CostMeter`] like every other operator in this crate:
//!
//! * the permutation — a Batcher network over random 32-bit tags:
//!   [`crate::sort::batcher_pair_count`]`(n)` secure comparisons and swaps of the
//!   record's bits (full words for a bare array, the schema's widths when the
//!   caller passes them to [`shuffle_route_mapped`]);
//! * the routing tags — a SplitMix-style mix of the key column plus a one-hot
//!   destination demux: 4 secure 32-bit adds and `S` AND gates per record;
//! * the scatter — the padded buckets' bytes shipped to the destination pairs
//!   (shares are re-randomized in transit, which costs no gates).
//!
//! The three are one circuit, whose one round the meter charges where it closes.

use crate::sort::{word_record_bits, Network};
use incshrink_mpc::circuit::{Kernel, WORD_BITS};
use incshrink_mpc::cost::CostMeter;
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::{PlainRecord, SharedRecordPair};
use rand::Rng;

/// The Fisher–Yates swap schedule realizing one uniform permutation of `n` slots.
/// [`shuffle_route`] applies it to an index vector so side-band metadata can
/// follow, and prices it via [`Network::charge`].
fn permutation_swaps<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<(usize, usize)> {
    (1..n).rev().map(|i| (i, rng.gen_range(0..=i))).collect()
}

/// Result of one [`shuffle_route`] invocation.
#[derive(Debug)]
pub struct ShuffleRouteOutcome {
    /// One padded bucket per destination, each holding `bucket_size` records unless
    /// it overflowed (see [`Self::overflows`]). Bucket order within is the shuffled
    /// (uniformly random) order.
    pub buckets: Vec<SharedArrayPair>,
    /// For each bucket, the *input* index each slot's record came from (`None` for
    /// dummy padding). Exposed so callers can route per-record metadata that rides
    /// outside the shares (record ids for contribution accounting) in lockstep; the
    /// mapping is protocol-internal and never visible to a single server.
    pub sources: Vec<Vec<Option<usize>>>,
    /// Number of buckets whose real count exceeded `bucket_size` this invocation
    /// (each one leaks that destination's true count for the step).
    pub overflows: u64,
}

/// SplitMix64 finalizer evaluated *inside* the MPC on the hidden routing key. The
/// same mix the plaintext shard router uses, so a record lands on the shard that
/// owns its key; its cost is charged by [`shuffle_route`] as secure adds.
#[must_use]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The destination a routing-tag key maps to, for `destinations` buckets. The
/// cluster router's `shard_of` delegates here, so shuffle targets and shard
/// ownership agree by construction — there is exactly one routing hash.
///
/// # Panics
/// Panics when `destinations` is zero.
#[must_use]
pub fn destination_of(key: u32, destinations: usize) -> usize {
    assert!(destinations > 0, "need at least one destination");
    (mix64(u64::from(key)) % destinations as u64) as usize
}

/// Number of fixed *virtual buckets* the key space is hashed into for elastic
/// (range-map) routing. Shard ownership is then a `VIRTUAL_BUCKETS`-entry
/// assignment table rather than a modulus, so buckets can migrate between
/// shards without rehashing anything.
///
/// 64 is a multiple of every shard count the benchmarks sweep (1, 2, 4, 8), so
/// the identity assignment `bucket % S` makes [`shuffle_route_mapped`] agree
/// with [`destination_of`] exactly: `(mix64(k) % 64) % S == mix64(k) % S`
/// whenever `S` divides 64.
pub const VIRTUAL_BUCKETS: usize = 64;

/// The virtual bucket a routing-tag key hashes into (same `mix64` hash as
/// [`destination_of`], reduced modulo [`VIRTUAL_BUCKETS`]).
#[must_use]
pub fn bucket_of(key: u32) -> usize {
    (mix64(u64::from(key)) % VIRTUAL_BUCKETS as u64) as usize
}

/// Obliviously shuffle `batch` and re-route its records into `destinations` padded
/// buckets by the hashed value of `tag_column`.
///
/// Every *real* record goes to the bucket `destination_of(fields[tag_column])`;
/// input dummies are discarded and every bucket is re-padded with fresh dummies up
/// to `bucket_size` (a bucket with more real records than that grows instead of
/// dropping data — see [`ShuffleRouteOutcome::overflows`]). Records are re-shared
/// with fresh randomness in transit, as handing a destination pair the original
/// shares would let it link bucket slots back to upload positions.
///
/// Records missing `tag_column` cannot be routed faithfully; like the cluster
/// router, this fails fast rather than misroute.
///
/// # Panics
/// Panics when `destinations` is zero or a real record does not carry
/// `tag_column`.
pub fn shuffle_route<R: Rng + ?Sized>(
    batch: &SharedArrayPair,
    tag_column: usize,
    destinations: usize,
    bucket_size: usize,
    meter: &mut CostMeter,
    rng: &mut R,
) -> ShuffleRouteOutcome {
    let payload_bits = word_record_bits(batch);
    let hashed = Destinations::Hashed(destinations);
    shuffle_route_mapped(
        batch,
        tag_column,
        hashed,
        bucket_size,
        payload_bits,
        meter,
        rng,
    )
    .route
}

/// Where [`shuffle_route_mapped`] sends a real record with routing key `k`.
#[derive(Debug, Clone, Copy)]
pub enum Destinations<'a> {
    /// To [`destination_of`]`(k, shards)` of this many shards: [`shuffle_route`]'s
    /// routing.
    Hashed(usize),
    /// To `assignment[bucket_of(k)]`, one of `shards`.
    Assigned {
        /// The owner of each virtual bucket ([`VIRTUAL_BUCKETS`] entries).
        assignment: &'a [usize],
        /// Number of destinations.
        shards: usize,
    },
}

/// Result of one [`shuffle_route_mapped`] invocation: the routed buckets plus
/// the per-virtual-bucket real-record tally the elastic control plane feeds its
/// DP cut sizer (the tally itself is protocol-internal — only its *noised*
/// releases ever become public).
#[derive(Debug)]
pub struct MappedRouteOutcome {
    /// The padded destination buckets, identical in shape to [`shuffle_route`].
    pub route: ShuffleRouteOutcome,
    /// Real records seen per virtual bucket ([`VIRTUAL_BUCKETS`] entries).
    pub bucket_reals: Vec<u64>,
}

/// [`shuffle_route`] with its routing and its price spelled out: a real record
/// with key `k` lands where `destinations` says — with
/// [`Destinations::Assigned`], on shard `assignment[bucket_of(k)]` instead of a
/// fixed modulus — and the permutation swaps `payload_bits` a record (its
/// columns and its `isView` flag). With the identity assignment (`bucket % S`,
/// `S` dividing [`VIRTUAL_BUCKETS`]) and full-word records this is bit-for-bit
/// [`shuffle_route`]; after a migration the table differs and routing follows the
/// new owners. Draw order from `rng` is identical in every variant.
///
/// # Panics
/// Panics when there are no destinations, an `assignment` does not have
/// [`VIRTUAL_BUCKETS`] entries or names a shard `>= shards`, or a real record does
/// not carry `tag_column`.
pub fn shuffle_route_mapped<R: Rng + ?Sized>(
    batch: &SharedArrayPair,
    tag_column: usize,
    destinations: Destinations<'_>,
    bucket_size: usize,
    payload_bits: u32,
    meter: &mut CostMeter,
    rng: &mut R,
) -> MappedRouteOutcome {
    let shards = match destinations {
        Destinations::Hashed(shards) => shards,
        Destinations::Assigned { assignment, shards } => {
            assert_eq!(
                assignment.len(),
                VIRTUAL_BUCKETS,
                "assignment table must cover every virtual bucket"
            );
            assert!(
                assignment.iter().all(|&d| d < shards),
                "assignment names a shard outside 0..{shards}"
            );
            shards
        }
    };
    assert!(shards > 0, "need at least one destination");
    let mut bucket_reals = vec![0u64; VIRTUAL_BUCKETS];
    let mut dest_of = |key: u32| {
        let bucket = bucket_of(key);
        bucket_reals[bucket] += 1;
        match destinations {
            Destinations::Hashed(shards) => destination_of(key, shards),
            Destinations::Assigned { assignment, .. } => assignment[bucket],
        }
    };
    let n = batch.len();
    let arity = batch.arity().unwrap_or(1);
    let width = arity as u64 + 1;

    // Phase 1 — unlinkability: permute the batch under a Batcher network over
    // random tags before any routing decision is made.
    Network::sort(n).charge(WORD_BITS, payload_bits, meter);
    let mut order: Vec<usize> = (0..n).collect();
    for (i, j) in permutation_swaps(n, rng) {
        order.swap(i, j);
    }

    // Phase 2 — routing tags: mix the key column and demux it one-hot across the
    // destinations, all under MPC (4 adds model the mix rounds, S ANDs the demux).
    meter.kernels(4 * n as u64, Kernel::Add(WORD_BITS));
    meter.ands(n as u64 * shards as u64);

    // Phase 3 — scatter into padded buckets, re-sharing in transit.
    let mut buckets: Vec<SharedArrayPair> = (0..shards).map(|_| SharedArrayPair::new()).collect();
    let mut sources: Vec<Vec<Option<usize>>> = vec![Vec::new(); shards];
    for &i in &order {
        let plain = batch.entries()[i].recover();
        if !plain.is_view {
            continue;
        }
        let key = plain.fields.get(tag_column).copied().unwrap_or_else(|| {
            panic!(
                "record at batch position {i} is missing routing tag column \
                 {tag_column} (arity {}): refusing to misroute it",
                plain.fields.len()
            )
        });
        let dest = dest_of(key);
        buckets[dest]
            .push(SharedRecordPair::share(&plain, rng))
            .expect("uniform arity");
        sources[dest].push(Some(i));
    }
    let mut overflows = 0u64;
    let mut shipped = 0u64;
    for (bucket, srcs) in buckets.iter_mut().zip(&mut sources) {
        if bucket.len() > bucket_size {
            overflows += 1;
        }
        while bucket.len() < bucket_size {
            bucket
                .push(SharedRecordPair::share(&PlainRecord::dummy(arity), rng))
                .expect("uniform arity");
            srcs.push(None);
        }
        shipped += bucket.len() as u64;
    }
    meter.bytes(shipped * width * 4);

    MappedRouteOutcome {
        route: ShuffleRouteOutcome {
            buckets,
            sources,
            overflows,
        },
        bucket_reals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn batch(keys: &[u32], dummies: usize) -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(11);
        let mut records: Vec<PlainRecord> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| PlainRecord::real(vec![k, i as u32]))
            .collect();
        records.extend((0..dummies).map(|_| PlainRecord::dummy(2)));
        SharedArrayPair::share_records(&records, &mut rng)
    }

    #[test]
    fn shuffle_preserves_multiset_and_charges_network() {
        // One destination sized to the real count: routing is a pure shuffle.
        let mut rng = StdRng::seed_from_u64(1);
        let mut meter = CostMeter::new();
        let arr = batch(&[5, 9, 2, 7, 4, 1], 2);
        let fields = |a: &SharedArrayPair| {
            let mut real: Vec<Vec<u32>> = a
                .recover_all()
                .into_iter()
                .filter(|r| r.is_view)
                .map(|r| r.fields)
                .collect();
            real.sort();
            real
        };
        let out = shuffle_route(&arr, 0, 1, 6, &mut meter, &mut rng);
        assert_eq!(out.overflows, 0);
        assert_eq!(fields(&arr), fields(&out.buckets[0]));
        assert_eq!(
            meter.report().secure_compares,
            crate::sort::batcher_pair_count(8)
        );
        assert!(meter.report().secure_swaps > 0);
        assert!(meter.report().bytes_communicated > 0);
    }

    #[test]
    fn route_places_every_real_record_on_its_destination() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut meter = CostMeter::new();
        let keys = [3u32, 17, 99, 4, 3, 250];
        let b = batch(&keys, 4);
        let out = shuffle_route(&b, 0, 4, 8, &mut meter, &mut rng);
        assert_eq!(out.buckets.len(), 4);
        assert_eq!(out.overflows, 0);
        let mut seen = 0usize;
        for (d, bucket) in out.buckets.iter().enumerate() {
            assert_eq!(bucket.len(), 8, "fixed padded bucket size");
            for rec in bucket.recover_all() {
                if rec.is_view {
                    assert_eq!(destination_of(rec.fields[0], 4), d);
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, keys.len(), "no real record lost or duplicated");
    }

    #[test]
    fn sources_align_with_bucket_slots() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut meter = CostMeter::new();
        let b = batch(&[1, 2, 3, 4, 5], 3);
        let plain = b.recover_all();
        let out = shuffle_route(&b, 0, 3, 4, &mut meter, &mut rng);
        for (bucket, srcs) in out.buckets.iter().zip(&out.sources) {
            assert_eq!(bucket.len(), srcs.len());
            for (rec, src) in bucket.recover_all().iter().zip(srcs) {
                match src {
                    Some(i) => assert_eq!(rec.fields, plain[*i].fields, "slot maps to its origin"),
                    None => assert!(!rec.is_view, "unsourced slots are dummies"),
                }
            }
        }
    }

    #[test]
    fn overflowing_bucket_grows_instead_of_dropping() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut meter = CostMeter::new();
        // All records share one key, so one bucket takes everything.
        let b = batch(&[7, 7, 7, 7, 7], 0);
        let out = shuffle_route(&b, 0, 2, 2, &mut meter, &mut rng);
        assert_eq!(out.overflows, 1);
        let real: usize = out
            .buckets
            .iter()
            .map(SharedArrayPair::true_cardinality)
            .sum();
        assert_eq!(real, 5);
        let target = destination_of(7, 2);
        assert_eq!(out.buckets[target].len(), 5, "overflowed bucket grew");
        assert_eq!(
            out.buckets[1 - target].len(),
            2,
            "other bucket stays padded"
        );
    }

    #[test]
    fn cost_depends_only_on_public_sizes() {
        let run = |keys: &[u32]| {
            let mut rng = StdRng::seed_from_u64(5);
            let mut meter = CostMeter::new();
            let _ = shuffle_route(&batch(keys, 2), 0, 4, 6, &mut meter, &mut rng);
            meter.report()
        };
        // Same length, very different key distributions: identical cost.
        assert_eq!(run(&[1, 1, 1, 1]), run(&[10, 250, 3, 77]));
    }

    #[test]
    #[should_panic(expected = "missing routing tag column")]
    fn missing_tag_column_fails_fast() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut meter = CostMeter::new();
        let b = batch(&[1, 2], 0);
        let _ = shuffle_route(&b, 9, 2, 4, &mut meter, &mut rng);
    }

    proptest! {
        #[test]
        fn prop_routing_is_a_partition(
            keys in proptest::collection::vec(any::<u32>(), 0..40),
            dummies in 0usize..10,
            destinations in 1usize..6,
        ) {
            let mut rng = StdRng::seed_from_u64(9);
            let mut meter = CostMeter::new();
            let b = batch(&keys, dummies);
            let out = shuffle_route(&b, 0, destinations, 8, &mut meter, &mut rng);

            // The multiset of real records is preserved across the re-route.
            let mut routed: Vec<Vec<u32>> = out
                .buckets
                .iter()
                .flat_map(bucket_reals)
                .collect();
            let mut input: Vec<Vec<u32>> = bucket_reals(&b);
            routed.sort();
            input.sort();
            prop_assert_eq!(routed, input);

            // Non-overflowing buckets sit exactly at the padded size (that is all a
            // server sees); overflowed ones hold exactly their real records.
            for bucket in &out.buckets {
                if bucket.true_cardinality() <= 8 {
                    prop_assert_eq!(bucket.len(), 8);
                } else {
                    prop_assert_eq!(bucket.len(), bucket.true_cardinality());
                }
            }
        }
    }

    fn bucket_reals(bucket: &SharedArrayPair) -> Vec<Vec<u32>> {
        bucket
            .recover_all()
            .into_iter()
            .filter(|r| r.is_view)
            .map(|r| r.fields)
            .collect()
    }

    /// Raw share words of every slot, so tests can assert *bit-for-bit* equality
    /// (recovered plaintext equality would miss re-share differences).
    fn share_words(bucket: &SharedArrayPair) -> Vec<Vec<(u32, u32)>> {
        bucket
            .entries()
            .iter()
            .map(|e| {
                let mut row: Vec<(u32, u32)> = e.fields.iter().map(|p| (p.s0, p.s1)).collect();
                row.push((e.is_view.s0, e.is_view.s1));
                row
            })
            .collect()
    }

    fn identity_assignment(shards: usize) -> Vec<usize> {
        (0..VIRTUAL_BUCKETS).map(|b| b % shards).collect()
    }

    #[test]
    fn identity_assignment_replays_unmapped_route_bit_for_bit() {
        for shards in [1usize, 2, 4, 8] {
            let b = batch(&[3, 17, 99, 4, 3, 250, 81, 12], 3);
            let mut meter_a = CostMeter::new();
            let mut rng_a = StdRng::seed_from_u64(21);
            let plain = shuffle_route(&b, 0, shards, 6, &mut meter_a, &mut rng_a);
            let mut meter_b = CostMeter::new();
            let mut rng_b = StdRng::seed_from_u64(21);
            let assignment = identity_assignment(shards);
            let mapped = shuffle_route_mapped(
                &b,
                0,
                Destinations::Assigned {
                    assignment: &assignment,
                    shards,
                },
                6,
                word_record_bits(&b),
                &mut meter_b,
                &mut rng_b,
            );
            assert_eq!(meter_a.report(), meter_b.report());
            assert_eq!(plain.overflows, mapped.route.overflows);
            assert_eq!(plain.sources, mapped.route.sources);
            for (a, m) in plain.buckets.iter().zip(&mapped.route.buckets) {
                assert_eq!(share_words(a), share_words(m), "S={shards}");
            }
        }
    }

    #[test]
    fn mapped_route_follows_a_migrated_assignment() {
        let keys = [3u32, 17, 99, 4, 3, 250, 81, 12];
        let b = batch(&keys, 2);
        // Move every virtual bucket to shard 1: all reals must land there.
        let assignment = vec![1usize; VIRTUAL_BUCKETS];
        let mut meter = CostMeter::new();
        let mut rng = StdRng::seed_from_u64(22);
        let to = Destinations::Assigned {
            assignment: &assignment,
            shards: 3,
        };
        let out = shuffle_route_mapped(&b, 0, to, 4, 96, &mut meter, &mut rng);
        assert_eq!(out.route.buckets[1].true_cardinality(), keys.len());
        assert_eq!(out.route.buckets[0].true_cardinality(), 0);
        assert_eq!(out.route.buckets[2].true_cardinality(), 0);
        // The tally accounts for every real record exactly once.
        assert_eq!(out.bucket_reals.iter().sum::<u64>(), keys.len() as u64);
        for (&k, _) in keys.iter().zip(keys.iter()) {
            assert!(out.bucket_reals[bucket_of(k)] > 0);
        }
    }

    #[test]
    fn bucket_of_agrees_with_destination_of_for_divisors_of_64() {
        for shards in [1usize, 2, 4, 8, 16, 32, 64] {
            for key in (0..2000u32).chain([u32::MAX, u32::MAX - 7]) {
                assert_eq!(
                    bucket_of(key) % shards,
                    destination_of(key, shards),
                    "key {key} shards {shards}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "assignment table must cover")]
    fn short_assignment_table_is_rejected() {
        let mut meter = CostMeter::new();
        let mut rng = StdRng::seed_from_u64(23);
        let b = batch(&[1, 2], 0);
        let to = Destinations::Assigned {
            assignment: &[0usize; 8],
            shards: 2,
        };
        let _ = shuffle_route_mapped(&b, 0, to, 4, 96, &mut meter, &mut rng);
    }
}
