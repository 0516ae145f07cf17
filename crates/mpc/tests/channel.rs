//! Mode-parity property for the party context, through the public API only:
//! a random script of joint operations, named-stream reads, meter gates,
//! charges and step advances must produce the same values, the same
//! `CostReport` per charge and the same simulated clock wherever the two
//! servers live — inside the context they share, on two actor threads, or on
//! two actor threads across a loopback socket (where every `charge()` also
//! reconciles real socket bytes against the metered ones). Re-shares and
//! recoveries inserted anywhere into the script move no other draw.

use incshrink_mpc::circuit::{Kernel, WORD_BITS};
use incshrink_mpc::cost::{CostReport, SimDuration};
use incshrink_mpc::stream::Domain;
use incshrink_mpc::{CostModel, PartyContext, PartyExec, PartyMode};
use proptest::prelude::*;
use rand::Rng;

const NAMES: [&str; 3] = ["a", "b", "c"];
/// The share the inserted operations re-share and recover, none of the script's.
const INSERTED: &str = "inserted";

/// What one script leaves behind: the value trace, the report of every charge,
/// and the final clock.
type Outcome = (Vec<(u64, u64)>, Vec<CostReport>, SimDuration);

/// Run the script `(opcode, operand)*` on a fresh context of `mode`.
fn run(mode: PartyMode, seed: u64, script: &[(u8, u32)]) -> Outcome {
    let mut ctx = PartyContext::new(mode, seed, CostModel::default());
    let mut trace = Vec::new();
    let mut reports = Vec::new();
    for &(code, value) in script {
        let name = NAMES[(value % 3) as usize];
        match code {
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
                ctx.meter()
                    .kernels(u64::from(value % 97), Kernel::Lt(WORD_BITS));
                let swap = Kernel::Swap(2 * WORD_BITS);
                ctx.meter().kernels(u64::from(value % 13), swap);
            }
            4 => trace.push((2, ctx.stream(Domain::DeltaShares).gen())),
            5 => {
                reports.push(ctx.charge().0);
                ctx.advance_time_step();
            }
            6 => ctx.reshare_and_store(INSERTED, value),
            _ => {
                let _ = ctx.recover_named(INSERTED);
            }
        }
    }
    reports.push(ctx.charge().0);
    (trace, reports, ctx.elapsed())
}

proptest! {
    // The in-process context — both servers sharing one struct — is the
    // reference every other mode must replay. The same script with re-shares and
    // recoveries of another share inserted (opcodes 6 and 7) must leave every
    // joint draw, stream word and recovered value where it was.
    #[test]
    fn random_op_sequences_replay_the_shared_context(
        seed in any::<u64>(),
        script in proptest::collection::vec((0u8..6, any::<u32>()), 1..32),
        inserted in proptest::collection::vec((any::<usize>(), 6u8..8, any::<u32>()), 1..6),
    ) {
        let expected = run(PartyMode::InProcess, seed, &script);
        let mut with_inserted = script.clone();
        for (at, code, value) in inserted {
            with_inserted.insert(at % (with_inserted.len() + 1), (code, value));
        }
        for mode in PartyMode::ALL {
            prop_assert_eq!(&run(mode, seed, &script), &expected, "{} diverged", mode);
            prop_assert_eq!(
                &run(mode, seed, &with_inserted).0,
                &expected.0,
                "{}: an inserted re-share moved a draw",
                mode
            );
        }
    }
}
