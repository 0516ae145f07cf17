//! Simulated server-aided two-party computation (2PC) runtime.
//!
//! The original IncShrink prototype compiles its protocols with EMP-Toolkit garbled
//! circuits and runs them across two GCP machines. This reproduction replaces the
//! cryptographic back end with a **share-level simulation**:
//!
//! * data really is XOR secret-shared between two [`party::Server`] structs, run by
//!   the one [`PartyContext`] — inside it, or on two actor threads linked by mpsc
//!   channels or a loopback socket ([`PartyMode`]),
//! * every oblivious operation executes over the shares and is *metered* — the number
//!   of secure comparisons, conditional swaps, secure ANDs and bytes exchanged is
//!   recorded in a [`cost::CostReport`], and
//! * a calibrated [`cost::CostModel`] converts those counts into simulated wall-clock
//!   seconds so end-to-end experiments can report Transform/Shrink/query execution
//!   times whose *relative* magnitudes mirror the paper's measurements.
//!
//! See `docs/ARCHITECTURE.md` § "Share flow" for why this substitution preserves the
//! evaluation's shape, and § "Party execution layer" for who hosts the servers.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod channel;
pub mod cost;
pub mod exec;
pub mod hash;
pub mod multiserver;
pub mod party;
pub mod runtime;

pub use channel::ChannelError;
pub use cost::{CostModel, CostReport, SimDuration};
pub use exec::{PartyExec, PartyMode, PARTY_CRASH_MESSAGE};
pub use multiserver::MultiServerContext;
pub use party::{Server, ServerPair};
pub use runtime::{JointRandomness, PartyContext};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_smoke() {
        let model = CostModel::default();
        let mut report = CostReport::default();
        report.secure_compares += 10;
        assert!(model.simulate(&report).as_secs_f64() > 0.0);
    }
}
