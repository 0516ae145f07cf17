//! Baseline view-maintenance strategies the paper compares against (Section 7.1).
//!
//! * **EP** (exhaustive padding) — every Transform output ΔV is appended to the view
//!   in full, dummies included. Perfect accuracy (up to truncation) but the view
//!   carries an enormous amount of padding, so queries get slow and storage balloons.
//! * **OTM** (one-time materialization) — the view is materialized once, at the first
//!   upload, and never updated again. Queries are fast but the answer misses all later
//!   data, so the relative error converges to 1.
//! * **NM** (non-materialized) — the standard SOGDB mode of DP-Sync: no view at all,
//!   every query re-executes the oblivious join over the entire outsourced data.
//!
//! The strategy *selection* lives in [`crate::config::UpdateStrategy`]; this module
//! holds the behaviour each baseline adds to the simulation loop.

use crate::config::UpdateStrategy;
use crate::view::MaterializedView;
use incshrink_secretshare::arrays::SharedArrayPair;

/// How a strategy routes the Transform output ΔV at one time step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeltaRouting {
    /// Write ΔV into the secure cache (DP strategies).
    ToCache,
    /// Append ΔV directly to the materialized view (EP; OTM on its first step).
    ToView,
    /// Discard ΔV (OTM after its one-time materialization).
    Drop,
    /// Transform is never invoked (NM).
    NoTransform,
}

/// Decide how ΔV is routed for `strategy` at time `step` (1-based).
#[must_use]
pub(crate) fn delta_routing(strategy: UpdateStrategy, step: u64) -> DeltaRouting {
    match strategy {
        UpdateStrategy::DpTimer { .. } | UpdateStrategy::DpAnt { .. } => DeltaRouting::ToCache,
        UpdateStrategy::ExhaustivePadding => DeltaRouting::ToView,
        UpdateStrategy::OneTimeMaterialization => {
            if step <= 1 {
                DeltaRouting::ToView
            } else {
                DeltaRouting::Drop
            }
        }
        UpdateStrategy::NonMaterialized => DeltaRouting::NoTransform,
    }
}

/// Apply a routing decision to the produced ΔV.
pub(crate) fn route_delta(
    routing: DeltaRouting,
    delta: SharedArrayPair,
    view: &mut MaterializedView,
) -> Option<SharedArrayPair> {
    match routing {
        DeltaRouting::ToCache => Some(delta),
        DeltaRouting::ToView => {
            view.append(delta);
            None
        }
        DeltaRouting::Drop | DeltaRouting::NoTransform => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incshrink_secretshare::tuple::PlainRecord;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn delta() -> SharedArrayPair {
        let mut rng = StdRng::seed_from_u64(1);
        SharedArrayPair::share_records(
            &[PlainRecord::real(vec![1, 2]), PlainRecord::dummy(2)],
            &mut rng,
        )
    }

    #[test]
    fn dp_strategies_route_to_cache() {
        for s in [
            UpdateStrategy::DpTimer { interval: 3 },
            UpdateStrategy::DpAnt { threshold: 30.0 },
        ] {
            for step in [1, 2, 100] {
                assert_eq!(delta_routing(s, step), DeltaRouting::ToCache);
            }
        }
    }

    #[test]
    fn ep_always_routes_to_view_and_otm_only_once() {
        assert_eq!(
            delta_routing(UpdateStrategy::ExhaustivePadding, 50),
            DeltaRouting::ToView
        );
        assert_eq!(
            delta_routing(UpdateStrategy::OneTimeMaterialization, 1),
            DeltaRouting::ToView
        );
        assert_eq!(
            delta_routing(UpdateStrategy::OneTimeMaterialization, 2),
            DeltaRouting::Drop
        );
        assert_eq!(
            delta_routing(UpdateStrategy::NonMaterialized, 1),
            DeltaRouting::NoTransform
        );
    }

    #[test]
    fn route_delta_appends_or_returns() {
        let mut view = MaterializedView::new();
        let back = route_delta(DeltaRouting::ToCache, delta(), &mut view);
        assert!(back.is_some());
        assert!(view.is_empty());

        let back = route_delta(DeltaRouting::ToView, delta(), &mut view);
        assert!(back.is_none());
        assert_eq!(view.len(), 2);

        let back = route_delta(DeltaRouting::Drop, delta(), &mut view);
        assert!(back.is_none());
        assert_eq!(view.len(), 2, "dropped deltas leave the view unchanged");
    }
}
