//! Crate-boundary smoke test: joint randomness and cost metering through the
//! public 2PC-context API.

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
