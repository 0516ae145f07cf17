//! Crate-boundary smoke test: joint randomness, named draws and cost metering
//! through the public 2PC-context API.

use incshrink_mpc::circuit::Kernel;
use incshrink_mpc::{CostModel, PartyContext, PartyExec, PartyMode};

#[test]
fn joint_randomness_unit_interval_stays_strictly_inside() {
    let mut ctx = PartyContext::new(PartyMode::InProcess, 7, CostModel::default());
    for _ in 0..1000 {
        let r = ctx.joint_randomness();
        let u = r.unit_interval();
        assert!(u > 0.0 && u < 1.0, "unit seed {u} escaped (0,1)");
        let s = r.sign();
        assert!(s == 1.0 || s == -1.0);
    }
}

#[test]
fn named_shares_roundtrip_and_costs_accumulate() {
    let mut ctx = PartyContext::new(PartyMode::InProcess, 9, CostModel::default());
    ctx.reshare_and_store("counter", 4242);
    assert_eq!(ctx.recover_named("counter"), Some(4242));
    assert_eq!(ctx.recover_named("missing"), None);
    let (report, duration) = ctx.charge();
    assert!(report.bytes_communicated > 0, "resharing costs bandwidth");
    assert!(duration.as_secs_f64() > 0.0);
}

#[test]
fn every_coordinate_of_a_draw_name_moves_its_words() {
    use incshrink_mpc::stream::Domain;
    use rand::Rng;
    let name = Domain::Reshare.draw(1, 2, 3);
    let words = name.words::<2>(7);
    assert_eq!(words, name.words::<2>(7), "a name replays");
    assert_ne!(words, name.words::<2>(8), "the key");
    assert_ne!(words[0], words[1]);
    for neighbour in [
        Domain::JointRandomness.draw(1, 2, 3),
        Domain::Reshare.draw(0, 2, 3),
        Domain::Reshare.draw(1, 3, 3),
        Domain::Reshare.draw(1, 2, 4),
    ] {
        assert_ne!(words, neighbour.words::<2>(7), "{neighbour:?}");
    }
    assert_eq!(name.rng(7).gen::<u64>(), name.rng(7).gen::<u64>());
    assert_ne!(name.rng(7).gen::<u64>(), name.rng(8).gen::<u64>());
}

/// A kernel's AND depth is its longest chain of ANDs: a w-bit comparison's borrow
/// chain, an equality's balanced tree, one level for a swap.
#[test]
fn kernel_depths_are_those_of_the_chains_and_trees() {
    let depth = |kernel: Kernel| kernel.circuit().and_depth();
    assert_eq!(depth(Kernel::Lt(11)), 11);
    assert_eq!(depth(Kernel::Eq(14)), 4);
    assert_eq!(depth(Kernel::Eq(1)), 0);
    assert_eq!(depth(Kernel::Swap(32)), 1);
    assert_eq!(depth(Kernel::CompareExchange(3)), 2);
    // The subtraction's borrow and the window compare run side by side.
    assert_eq!(depth(Kernel::Theta(11)), 12);
}
