//! Multi-level "Transform-and-Shrink" pipeline (Section 8): compile a two-operator
//! query plan — a selection over the private relation followed by a join against a
//! public relation — into a chain of per-operator IncShrink instances, with the total
//! privacy budget split across the operators by the Appendix-D.2 allocation.
//!
//! ```bash
//! cargo run --example multi_level_pipeline --release
//! ```

use incshrink::pipeline::TwoLevelPipeline;
use incshrink::view::ViewDefinition;
use incshrink_mpc::cost::CostModel;
use incshrink_mpc::{PartyContext, PartyMode};
use incshrink_oblivious::PlainTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let steps = 60u64;
    let window = 10u32;

    // Public relation: every officer id 0..600 has one award 2 steps after each
    // multiple-of-3 epoch (so roughly one third of allegations find a match).
    let mut rng = StdRng::seed_from_u64(0xAB);
    let public: Vec<Vec<u32>> = (0..600u32)
        .map(|officer| vec![officer, (officer % steps as u32) + 2])
        .collect();

    let view = ViewDefinition {
        left_key: 0,
        left_time: 1,
        right_key: 0,
        right_time: 1,
        window,
    };

    // Total budget ε = 2.0, split across the two operators by the efficiency-maximising
    // grid search; stage 1 syncs every 2 epochs, stage 2 every 4.
    let mut pipeline = TwoLevelPipeline::with_optimized_budget(
        view,
        1,      // selection on the timestamp column
        10_000, // selection bound (keep everything: the predicate is the plan shape)
        4,      // truncation bound ω for the join stage
        2.0,
        (2, 4),
        6,
        public,
        0x11,
    );
    println!(
        "two-level pipeline: total ε = {:.2} split across selection + join",
        pipeline.total_epsilon()
    );

    let mut ctx = PartyContext::new(PartyMode::InProcess, 0xE44, CostModel::default());
    let mut total_mpc = 0.0;
    for t in 1..=steps {
        // Owner uploads a padded batch of 6 records; 3 are real allegations.
        let mut batch = PlainTable::new(&["officer", "end_time"]);
        for _ in 0..3 {
            let officer: u32 = rng.gen_range(0..600);
            batch.push_row(vec![officer, t as u32]);
        }
        let shared = batch.share_padded(6, &mut rng);
        let outcome = pipeline.step(&mut ctx, &shared, t);
        total_mpc += outcome.duration.as_secs_f64();
    }

    println!("epochs processed          : {steps}");
    println!(
        "intermediate view entries : {} real / {} total",
        pipeline.intermediate_view().true_cardinality(),
        pipeline.intermediate_view().len()
    );
    println!(
        "final view entries        : {} real / {} total",
        pipeline.final_view().true_cardinality(),
        pipeline.final_view().len()
    );
    let (c1, c2) = pipeline.cache_lengths();
    println!("cache backlogs            : stage1 {c1}, stage2 {c2}");
    println!("total simulated MPC time  : {total_mpc:.1} s");
    println!(
        "\nEach operator runs its own Transform-and-Shrink instance; the output of the\n\
         selection stage feeds the join stage only through DP-sized releases, so the\n\
         composed leakage is the sum of the two operator budgets."
    );
}
