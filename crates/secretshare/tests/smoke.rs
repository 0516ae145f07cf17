//! Crate-boundary smoke test: the public secret-sharing API round-trips.

use incshrink_secretshare::{PartyId, SharePair};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn share_recover_roundtrip_via_public_api() {
    let mut rng = StdRng::seed_from_u64(1);
    for x in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
        let pair = SharePair::share(x, &mut rng);
        assert_eq!(pair.recover(), x);
        // The two per-party shares reassemble to the same value.
        let rebuilt =
            SharePair::from_shares(pair.for_party(PartyId::S0), pair.for_party(PartyId::S1));
        assert_eq!(rebuilt.recover(), x);
    }
}
