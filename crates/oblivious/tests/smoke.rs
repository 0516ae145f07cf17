//! Crate-boundary smoke test: oblivious sort and cache read over secret shares.

use incshrink_mpc::cost::CostMeter;
use incshrink_oblivious::{
    cache_read, nested_loop_join_cost, oblivious_sort_by_field, Network, SortOrder,
};
use incshrink_secretshare::arrays::SharedArrayPair;
use incshrink_secretshare::tuple::PlainRecord;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn sort_and_cache_read_through_public_api() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut records: Vec<PlainRecord> = [9u32, 3, 7, 1, 5]
        .iter()
        .map(|&v| PlainRecord::real(vec![v]))
        .collect();
    records.push(PlainRecord::dummy(1));
    let mut arr = SharedArrayPair::share_records(&records, &mut rng);

    let mut meter = CostMeter::new();
    oblivious_sort_by_field(&mut arr, 0, SortOrder::Ascending, &mut meter);
    let sorted: Vec<u32> = arr
        .recover_all()
        .iter()
        .filter(|r| r.is_view)
        .map(|r| r.fields[0])
        .collect();
    assert_eq!(sorted, vec![1, 3, 5, 7, 9]);

    // Cache read fetches real tuples before dummies.
    let fetched = cache_read(&mut arr, 3, &mut meter);
    assert_eq!(fetched.len(), 3);
    assert_eq!(fetched.true_cardinality(), 3, "reals come first");
}

/// A flag-keyed network with nothing to swap besides its flag — the selection over
/// an inner relation that is only its join key — charges its ANDs and no swap; a
/// word-keyed network keeps its one-word floor. Neither charges a round of its own:
/// the one round of the circuit they form is charged when the meter closes it.
#[test]
fn a_zero_word_flag_keyed_payload_charges_no_swap() {
    let network = Network::select(19, 2);
    let (mut flag, mut word) = (CostMeter::new(), CostMeter::new());
    let comparators = network.charge_flag_keyed(0, &mut flag);
    let flag = flag.report();
    assert!(comparators > 0);
    assert_eq!((flag.secure_ands, flag.secure_swaps), (comparators, 0));
    assert_eq!((flag.secure_compares, flag.rounds), (0, 0));
    network.charge(0, &mut word);
    network.charge_flag_keyed(0, &mut word);
    let word = word.take();
    assert_eq!(word.secure_swaps, comparators, "one-word floor");
    assert_eq!(word.rounds, 1, "two networks, one circuit");

    let key_only = nested_loop_join_cost(7, 19, 2, 2, 1);
    assert_eq!(key_only.secure_swaps, 0, "a key-only inner moves nothing");
    assert_eq!(key_only.secure_ands, 2 * 7 * 19 + 7 * comparators);
}
