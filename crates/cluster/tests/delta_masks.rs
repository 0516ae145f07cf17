//! Transform shares each ΔV from a stream named by the run seed and the step, so
//! one slot's mask words are unrelated across runs and across shards: no server
//! learns the XOR of two plaintexts by comparing its share words.

use incshrink::prelude::*;
use incshrink_cluster::shard_pipelines;
use incshrink_mpc::cost::CostModel;

fn dataset() -> Dataset {
    TpcDsGenerator::new(WorkloadParams {
        steps: 4,
        view_entries_per_step: 2.7,
        seed: 21,
    })
    .generate()
}

/// Step 1 under exhaustive padding, which appends Transform's ΔV to the view as
/// shared, then `S0`'s words of every view field.
fn s0_delta_words(pipeline: &mut ShardPipeline) -> Vec<u64> {
    let _ = pipeline.advance(1);
    let view = pipeline.view().entries();
    (0..view.arity())
        .flat_map(|f| view.field_shares(f).expect("field in range").0.to_vec())
        .collect()
}

#[test]
fn delta_masks_differ_across_seeds_and_across_shards() {
    let config = IncShrinkConfig::tpcds_default(UpdateStrategy::ExhaustivePadding);
    let pipeline = |seed| ShardPipeline::new(dataset(), config, seed, CostModel::default());
    let (mut a, mut b) = (pipeline(1), pipeline(999));
    let (words_a, words_b) = (s0_delta_words(&mut a), s0_delta_words(&mut b));
    assert!(!words_a.is_empty(), "step 1 appends a padded ΔV");
    assert_eq!(
        a.view().entries().recover_all(),
        b.view().entries().recover_all(),
        "the two seeds share equal plaintext"
    );
    assert_ne!(words_a, words_b, "a ΔV mask repeats across seeds");

    let mut shards = shard_pipelines(&dataset(), &config, 2, 7, CostModel::default());
    let shard0 = s0_delta_words(&mut shards[0]);
    let shard1 = s0_delta_words(&mut shards[1]);
    assert_eq!(shard0.len(), shard1.len(), "equal padded ΔV lengths");
    assert_ne!(shard0, shard1, "a ΔV mask repeats across the shards");
}
