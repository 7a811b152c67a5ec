//! Deterministic fault injection for mutation-testing the security model.
//!
//! CleanupSpec's security argument rests on every undo path firing exactly
//! once. This module is the one way the harness plants undo bugs to prove
//! its oracles would notice a broken one: a [`FaultPlan`] names which undo
//! bugs to plant, and a [`FaultInjector`] handle — cheap to clone, disabled
//! by default, like `Observer` — is threaded through the hierarchy, caches,
//! and schemes. Each hook site asks [`FaultInjector::should_fire`] at the
//! moment the corresponding correct behaviour would occur; firing replaces
//! the correct behaviour with the planted bug.
//!
//! Faults are *deterministic*: a plan fires on the `skip`-th opportunity and
//! every one after it (up to `max_fires`), so a failing campaign seed
//! replays bit-for-bit. The `cs-chaos` CLI uses this to build the
//! fault-detection matrix proving every fault class is caught by at least
//! one fuzzer oracle, and to run one-fault seed campaigns
//! (`cs-chaos --fault skip-victim-restore --seeds 256` is CI's proof that
//! a missing victim restore is caught).

use std::sync::{Arc, Mutex};

/// The taxonomy of plantable undo bugs.
///
/// Each variant names a *class* of bug in the CleanupSpec undo machinery,
/// with the hook living at the exact point the correct mechanism acts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// `cleanup_restore` silently does nothing: a dirty/clean victim evicted
    /// by a squashed load's install is never brought back to the L1.
    SkipVictimRestore,
    /// `collect` frees the MSHR slot but hands the core an *empty* SEFE
    /// record, so the load's installs are never registered for cleanup.
    DropSefeEntry,
    /// `cleanup_invalidate` silently does nothing: transiently installed
    /// lines survive the squash in L1/L2.
    SkipTransientInvalidate,
    /// GetS-Safe is broken: a speculative load downgrades a remote M/E owner
    /// immediately instead of deferring until it turns non-speculative.
    EarlyCoherenceDowngrade,
    /// The L2 leg of `cleanup_invalidate` resolves the line with a stale
    /// (identity) index instead of the live CEASER mapping, so the transient
    /// L2 install survives even though the cleanup is reported as done.
    StaleCeaserIndex,
    /// Random L1 replacement degenerates to always-way-0, making victim
    /// selection predictable (the property CleanupSpec's Rand-L1 defence
    /// depends on).
    DeterministicL1Replacement,
    /// `collect` returns the SEFE record without freeing the MSHR slot; the
    /// slot is occupied forever and the file slowly exhausts.
    LeakMshrSlot,
    /// The cleanup op sequence is applied twice for one squash, probing
    /// whether the undo is idempotent in state *and* invisible in the
    /// event/timing record (it is not).
    DoubleUndo,
}

impl FaultKind {
    /// Every fault class, in taxonomy order.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::SkipVictimRestore,
        FaultKind::DropSefeEntry,
        FaultKind::SkipTransientInvalidate,
        FaultKind::EarlyCoherenceDowngrade,
        FaultKind::StaleCeaserIndex,
        FaultKind::DeterministicL1Replacement,
        FaultKind::LeakMshrSlot,
        FaultKind::DoubleUndo,
    ];

    /// Stable kebab-case name (CLI argument and matrix row label).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SkipVictimRestore => "skip-victim-restore",
            FaultKind::DropSefeEntry => "drop-sefe-entry",
            FaultKind::SkipTransientInvalidate => "skip-transient-invalidate",
            FaultKind::EarlyCoherenceDowngrade => "early-coherence-downgrade",
            FaultKind::StaleCeaserIndex => "stale-ceaser-index",
            FaultKind::DeterministicL1Replacement => "deterministic-l1-replacement",
            FaultKind::LeakMshrSlot => "leak-mshr-slot",
            FaultKind::DoubleUndo => "double-undo",
        }
    }

    /// Parses a kebab-case name as produced by [`FaultKind::name`].
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// One-line description for `--list` output and docs.
    pub fn description(self) -> &'static str {
        match self {
            FaultKind::SkipVictimRestore => "cleanup_restore never reinstates the evicted victim",
            FaultKind::DropSefeEntry => "collect() returns an empty SEFE; installs escape cleanup",
            FaultKind::SkipTransientInvalidate => {
                "cleanup_invalidate is skipped; transient installs survive"
            }
            FaultKind::EarlyCoherenceDowngrade => {
                "spec load downgrades remote M/E owner instead of deferring (GetS-Safe broken)"
            }
            FaultKind::StaleCeaserIndex => {
                "L2 cleanup leg uses a stale index; install survives but cleanup is reported done"
            }
            FaultKind::DeterministicL1Replacement => {
                "random L1 replacement degenerates to always-way-0"
            }
            FaultKind::LeakMshrSlot => "collect() never frees the slot; MSHR file exhausts",
            FaultKind::DoubleUndo => "the cleanup op sequence runs twice per squash",
        }
    }

    fn index(self) -> usize {
        FaultKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("FaultKind::ALL covers every variant")
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One planted fault: which class, and when it fires.
///
/// The fault fires on opportunity number `skip` (0-based) and on every
/// later opportunity, up to `max_fires` firings total.
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// The fault class.
    pub kind: FaultKind,
    /// Opportunities to let pass unharmed before the first firing.
    pub skip: u64,
    /// Maximum number of firings (`u64::MAX` = every opportunity).
    pub max_fires: u64,
}

impl FaultSpec {
    /// A fault that fires at every opportunity.
    pub fn always(kind: FaultKind) -> Self {
        FaultSpec {
            kind,
            skip: 0,
            max_fires: u64::MAX,
        }
    }
}

/// A set of planted faults (usually one) for a single run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// The planted faults.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with a single always-firing fault.
    pub fn single(kind: FaultKind) -> Self {
        FaultPlan {
            faults: vec![FaultSpec::always(kind)],
        }
    }

    /// Human-readable one-line summary (`kind[skip..+max]`, comma-joined).
    pub fn describe(&self) -> String {
        if self.faults.is_empty() {
            return "none".to_string();
        }
        self.faults
            .iter()
            .map(|f| {
                if f.skip == 0 && f.max_fires == u64::MAX {
                    f.kind.name().to_string()
                } else if f.max_fires == u64::MAX {
                    format!("{}[skip={}]", f.kind.name(), f.skip)
                } else {
                    format!("{}[skip={},fires<={}]", f.kind.name(), f.skip, f.max_fires)
                }
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    opportunities: [u64; FaultKind::ALL.len()],
    fires: [u64; FaultKind::ALL.len()],
}

/// Locks the shared state, recovering from poisoning. The state is plain
/// counters plus an immutable plan, so a panic mid-update cannot leave it
/// inconsistent — and crash-isolated campaigns (`cs-chaos`) must be able
/// to read counters for triage after catching a seed's panic.
fn lock(state: &Mutex<FaultState>) -> std::sync::MutexGuard<'_, FaultState> {
    state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// By-value copy of an injector's counters, taken for a cs-snap snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultCountersSnapshot {
    opportunities: [u64; FaultKind::ALL.len()],
    fires: [u64; FaultKind::ALL.len()],
}

/// Per-fault-class counters from one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultCounters {
    /// Hook sites reached where this fault *could* have fired.
    pub opportunities: u64,
    /// Times it actually fired.
    pub fires: u64,
}

/// Shared handle to a fault plan plus its firing counters.
///
/// The default handle is *disabled*: every `should_fire` returns `false`
/// without locking anything, so un-faulted runs pay a branch per hook site
/// and nothing more. Clones share the same counters, which is what lets a
/// single plan be threaded through the hierarchy, each L1 cache, and the
/// scheme while firing as one coordinated saboteur.
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    state: Option<Arc<Mutex<FaultState>>>,
}

impl FaultInjector {
    /// A handle that never fires (the default for all production paths).
    pub fn disabled() -> Self {
        FaultInjector::default()
    }

    /// An armed handle executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            state: Some(Arc::new(Mutex::new(FaultState {
                plan,
                opportunities: [0; FaultKind::ALL.len()],
                fires: [0; FaultKind::ALL.len()],
            }))),
        }
    }

    /// Whether this handle carries a plan at all.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Records an opportunity for `kind` and decides whether the fault fires
    /// now. Call this exactly at the point the correct behaviour would act.
    pub fn should_fire(&self, kind: FaultKind) -> bool {
        let Some(state) = &self.state else {
            return false;
        };
        let mut s = lock(state);
        let i = kind.index();
        let opportunity = s.opportunities[i];
        s.opportunities[i] += 1;
        let Some(spec) = s.plan.faults.iter().find(|f| f.kind == kind).copied() else {
            return false;
        };
        if opportunity >= spec.skip && s.fires[i] < spec.max_fires {
            s.fires[i] += 1;
            true
        } else {
            false
        }
    }

    /// Counters for one fault class.
    pub fn counters(&self, kind: FaultKind) -> FaultCounters {
        match &self.state {
            None => FaultCounters::default(),
            Some(state) => {
                let s = lock(state);
                let i = kind.index();
                FaultCounters {
                    opportunities: s.opportunities[i],
                    fires: s.fires[i],
                }
            }
        }
    }

    /// Times `kind` actually fired.
    pub fn fires(&self, kind: FaultKind) -> u64 {
        self.counters(kind).fires
    }

    /// The plan carried by this handle (empty when disabled).
    pub fn plan(&self) -> FaultPlan {
        match &self.state {
            None => FaultPlan::default(),
            Some(state) => lock(state).plan.clone(),
        }
    }

    /// Freezes the firing counters for a cs-snap snapshot.
    ///
    /// Clones of a `FaultInjector` share one `Arc`'d counter block, so
    /// cloning a `System` does *not* isolate fault state; a snapshot must
    /// capture the counters by value and write them back on restore for the
    /// resumed run to fire the same faults at the same opportunities.
    pub fn counters_snapshot(&self) -> Option<FaultCountersSnapshot> {
        self.state.as_ref().map(|state| {
            let s = lock(state);
            FaultCountersSnapshot {
                opportunities: s.opportunities,
                fires: s.fires,
            }
        })
    }

    /// Writes back counters captured by [`Self::counters_snapshot`].
    /// A `None` snapshot (taken from a disabled handle) is a no-op.
    pub fn restore_counters(&self, snap: &Option<FaultCountersSnapshot>) {
        if let (Some(state), Some(snap)) = (&self.state, snap) {
            let mut s = lock(state);
            s.opportunities = snap.opportunities;
            s.fires = snap.fires;
        }
    }

    /// Per-class `(kind, counters)` rows for every class with activity.
    pub fn report(&self) -> Vec<(FaultKind, FaultCounters)> {
        FaultKind::ALL
            .into_iter()
            .map(|k| (k, self.counters(k)))
            .filter(|(_, c)| c.opportunities > 0 || c.fires > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires_or_counts() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        for k in FaultKind::ALL {
            assert!(!inj.should_fire(k));
        }
        assert_eq!(inj.counters(FaultKind::DoubleUndo).opportunities, 0);
        assert!(inj.report().is_empty());
    }

    #[test]
    fn single_plan_fires_only_its_kind() {
        let inj = FaultInjector::new(FaultPlan::single(FaultKind::SkipVictimRestore));
        assert!(inj.should_fire(FaultKind::SkipVictimRestore));
        assert!(!inj.should_fire(FaultKind::DoubleUndo));
        assert_eq!(inj.fires(FaultKind::SkipVictimRestore), 1);
        assert_eq!(inj.fires(FaultKind::DoubleUndo), 0);
        // Opportunities count even for kinds not in the plan.
        assert_eq!(inj.counters(FaultKind::DoubleUndo).opportunities, 1);
    }

    #[test]
    fn skip_and_max_fires_window() {
        let inj = FaultInjector::new(FaultPlan {
            faults: vec![FaultSpec {
                kind: FaultKind::LeakMshrSlot,
                skip: 2,
                max_fires: 2,
            }],
        });
        let fired: Vec<bool> = (0..6)
            .map(|_| inj.should_fire(FaultKind::LeakMshrSlot))
            .collect();
        assert_eq!(fired, [false, false, true, true, false, false]);
        assert_eq!(inj.fires(FaultKind::LeakMshrSlot), 2);
        assert_eq!(inj.counters(FaultKind::LeakMshrSlot).opportunities, 6);
    }

    #[test]
    fn clones_share_counters() {
        let inj = FaultInjector::new(FaultPlan::single(FaultKind::DoubleUndo));
        let clone = inj.clone();
        assert!(clone.should_fire(FaultKind::DoubleUndo));
        assert_eq!(inj.fires(FaultKind::DoubleUndo), 1);
    }

    #[test]
    fn names_roundtrip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in FaultKind::ALL {
            assert!(seen.insert(k.name()), "duplicate name {}", k.name());
            assert_eq!(FaultKind::parse(k.name()), Some(k));
            assert!(!k.description().is_empty());
        }
        assert_eq!(FaultKind::parse("no-such-fault"), None);
    }

    #[test]
    fn plan_describe_is_stable() {
        assert_eq!(FaultPlan::default().describe(), "none");
        assert_eq!(
            FaultPlan::single(FaultKind::StaleCeaserIndex).describe(),
            "stale-ceaser-index"
        );
        let plan = FaultPlan {
            faults: vec![FaultSpec {
                kind: FaultKind::DropSefeEntry,
                skip: 3,
                max_fires: u64::MAX,
            }],
        };
        assert_eq!(plan.describe(), "drop-sefe-entry[skip=3]");
    }
}
