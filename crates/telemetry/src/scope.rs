//! Scope guards carrying the coordinates (step, shard, DP-mechanism label)
//! that emitted events are stamped with, plus the two non-span emission entry
//! points: [`observe`] for server-observable sizes and [`epsilon_spent`] for
//! ε-ledger entries.
//!
//! Scopes exist so that low layers can emit fully-labelled events without
//! threading labels through every signature: the cluster driver opens a shard
//! scope around each pipeline step, the pipeline opens a step scope, the
//! Shrink strategy opens a mechanism scope around each joint-noise call, and
//! `dp::joint` emits the ledger entry by reading all three.

use crate::collector::{emit, installed, with_state};
use crate::event::{Event, LedgerEntry, ObserveKind, ObserveRecord};

/// Guard restoring the previous step scope on drop. See [`step_scope`].
#[must_use = "dropping the guard ends the scope"]
pub struct StepScope {
    prev: Option<u64>,
    active: bool,
}

/// Set the current simulation step for events emitted on this thread. Inert
/// (and free) when no collector is installed.
pub fn step_scope(step: u64) -> StepScope {
    if !installed() {
        return StepScope {
            prev: None,
            active: false,
        };
    }
    let prev = with_state(|s| s.set_step(Some(step)));
    StepScope { prev, active: true }
}

impl Drop for StepScope {
    fn drop(&mut self) {
        if self.active {
            with_state(|s| s.set_step(self.prev));
        }
    }
}

/// Guard restoring the previous shard scope on drop. See [`shard_scope`].
#[must_use = "dropping the guard ends the scope"]
pub struct ShardScope {
    prev: Option<u64>,
    active: bool,
}

/// Set the current shard index for events emitted on this thread. Inert when
/// no collector is installed.
pub fn shard_scope(shard: u64) -> ShardScope {
    if !installed() {
        return ShardScope {
            prev: None,
            active: false,
        };
    }
    let prev = with_state(|s| s.set_shard(Some(shard)));
    ShardScope { prev, active: true }
}

impl Drop for ShardScope {
    fn drop(&mut self) {
        if self.active {
            with_state(|s| s.set_shard(self.prev));
        }
    }
}

/// Guard popping the mechanism label on drop. See [`mechanism_scope`].
#[must_use = "dropping the guard ends the scope"]
pub struct MechanismScope {
    active: bool,
}

/// Push a DP-mechanism label (e.g. `"timer.sync"`) so that ε spends inside the
/// scope are attributed to it. Inert when no collector is installed.
pub fn mechanism_scope(label: &'static str) -> MechanismScope {
    if !installed() {
        return MechanismScope { active: false };
    }
    with_state(|s| s.push_mechanism(label));
    MechanismScope { active: true }
}

impl Drop for MechanismScope {
    fn drop(&mut self) {
        if self.active {
            with_state(|s| s.pop_mechanism());
        }
    }
}

/// The shard set by the innermost active [`shard_scope`], if any.
#[must_use]
pub(crate) fn current_shard() -> Option<u64> {
    with_state(|s| s.shard())
}

/// Emit a server-observable size (shard taken from the ambient scope). No-op
/// when no collector is installed.
pub fn observe(kind: ObserveKind, step: u64, count: u64) {
    if !installed() {
        return;
    }
    let shard = current_shard();
    emit(Event::Observe(ObserveRecord {
        kind,
        step,
        shard,
        count,
    }));
}

/// Emit an ε-ledger entry for one joint mechanism invocation. The mechanism
/// label, step and shard are taken from the ambient scopes; spends outside any
/// mechanism scope are labelled `"laplace"`. No-op when no collector is
/// installed.
pub fn epsilon_spent(epsilon: f64, sensitivity: f64) {
    if !installed() {
        return;
    }
    let (mechanism, step, shard) = with_state(|s| {
        (
            s.mechanism().unwrap_or("laplace").to_string(),
            s.step(),
            s.shard(),
        )
    });
    emit(Event::Epsilon(LedgerEntry {
        mechanism,
        epsilon,
        sensitivity,
        step,
        shard,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::install;
    use crate::sink::InMemory;
    use std::sync::Arc;

    #[test]
    fn scopes_are_inert_without_a_collector() {
        let _step = step_scope(9);
        let _shard = shard_scope(2);
        let _mech = mechanism_scope("timer.sync");
        assert_eq!(with_state(|s| s.step()), None);
        assert_eq!(current_shard(), None);
        assert_eq!(with_state(|s| s.mechanism()), None);
        observe(ObserveKind::ViewSync, 9, 10);
        epsilon_spent(0.5, 1.0);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let sink = Arc::new(InMemory::default());
        let _guard = install(sink.clone());
        {
            let _outer = step_scope(1);
            assert_eq!(with_state(|s| s.step()), Some(1));
            {
                let _inner = step_scope(2);
                let _shard = shard_scope(3);
                let _mech = mechanism_scope("ant.counter");
                assert_eq!(with_state(|s| s.step()), Some(2));
                assert_eq!(current_shard(), Some(3));
                epsilon_spent(0.25, 2.0);
            }
            assert_eq!(with_state(|s| s.step()), Some(1));
            assert_eq!(current_shard(), None);
            assert_eq!(with_state(|s| s.mechanism()), None);
            epsilon_spent(0.5, 1.0);
        }
        let events = sink.events();
        assert_eq!(events.len(), 2);
        let Event::Epsilon(first) = &events[0] else {
            panic!("expected epsilon event");
        };
        assert_eq!(first.mechanism, "ant.counter");
        assert_eq!(first.step, Some(2));
        assert_eq!(first.shard, Some(3));
        let Event::Epsilon(second) = &events[1] else {
            panic!("expected epsilon event");
        };
        assert_eq!(second.mechanism, "laplace");
        assert_eq!(second.step, Some(1));
        assert_eq!(second.shard, None);
    }

    #[test]
    fn observe_stamps_the_ambient_shard() {
        let sink = Arc::new(InMemory::default());
        let _guard = install(sink.clone());
        let _shard = shard_scope(5);
        observe(ObserveKind::ShuffleBucket, 3, 8);
        let events = sink.events();
        let Event::Observe(o) = &events[0] else {
            panic!("expected observe event");
        };
        assert_eq!(o.shard, Some(5));
        assert_eq!(o.step, 3);
        assert_eq!(o.count, 8);
    }
}
