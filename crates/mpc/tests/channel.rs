//! Mode-parity property for the party context, through the public API only:
//! a random script of joint operations, meter gates, charges and step advances
//! must produce the same values, the same `CostReport` per charge and the same
//! simulated clock wherever the two servers live — inside the context they
//! share, on two actor threads, or on two actor threads across a loopback
//! socket (where every `charge()` also reconciles real socket bytes against
//! the metered ones).

use incshrink_mpc::cost::{CostReport, SimDuration};
use incshrink_mpc::{CostModel, PartyContext, PartyExec, PartyMode};
use proptest::prelude::*;

const NAMES: [&str; 3] = ["a", "b", "c"];

/// What one script leaves behind: the value trace, the report of every charge,
/// and the final (clock, logical step).
type Outcome = (Vec<(u64, u64)>, Vec<CostReport>, SimDuration, u64);

/// Run the script `(opcode, operand)*` on a fresh context of `mode`.
fn run(mode: PartyMode, seed: u64, script: &[(u8, u32)]) -> Outcome {
    let mut ctx = PartyContext::new(mode, seed, CostModel::default());
    let mut trace = Vec::new();
    let mut reports = Vec::new();
    for &(code, value) in script {
        let name = NAMES[(value % 3) as usize];
        match code % 5 {
            0 => {
                let r = ctx.joint_randomness();
                trace.push((u64::from(r.word), r.word64));
            }
            1 => ctx.reshare_and_store(name, value),
            2 => trace.push(match ctx.recover_named(name) {
                Some(recovered) => (1, u64::from(recovered)),
                None => (0, 0),
            }),
            3 => {
                ctx.meter().compares(u64::from(value % 97));
                ctx.meter().swaps(u64::from(value % 13), 2);
            }
            _ => {
                reports.push(ctx.charge().0);
                ctx.advance_time_step();
            }
        }
    }
    reports.push(ctx.charge().0);
    (trace, reports, ctx.elapsed(), ctx.time_step())
}

proptest! {
    // The in-process context — both servers sharing one struct — is the
    // reference every other mode must replay.
    #[test]
    fn random_op_sequences_replay_the_shared_context(
        seed in any::<u64>(),
        script in proptest::collection::vec((0u8..10, any::<u32>()), 1..32),
    ) {
        let expected = run(PartyMode::InProcess, seed, &script);
        for mode in PartyMode::ALL {
            prop_assert_eq!(&run(mode, seed, &script), &expected, "{} diverged", mode);
        }
    }
}
