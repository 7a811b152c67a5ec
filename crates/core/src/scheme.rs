//! The [`SpeculationScheme`] trait: the seam between the out-of-order
//! pipeline (this crate) and the security policies (the `cleanupspec`
//! crate).
//!
//! The pipeline is mechanism: it fetches, speculates, executes wrong paths,
//! and squashes. A `SpeculationScheme` decides policy at the three points
//! the paper identifies:
//!
//! 1. **Load issue** — how a speculative load accesses the cache hierarchy
//!    (normal install for CleanupSpec/non-secure, invisible for InvisiSpec,
//!    GetS-Safe for CleanupSpec's coherence-downgrade delay).
//! 2. **Load commit** — what happens at the visibility point (nothing,
//!    clearing the speculation-window tag, or InvisiSpec's update load).
//! 3. **Squash** — what happens to the cache state changes of squashed
//!    loads (retained, dropped, or undone) and how long the core stalls.

use cleanupspec_mem::error::SimError;
use cleanupspec_mem::hierarchy::{LoadOutcome, MemHierarchy};
use cleanupspec_mem::mshr::{LoadPath, MshrToken, SefeRecord};
use cleanupspec_mem::types::{CoreId, Cycle, LineAddr, LoadId};

/// When loads may be issued to the memory system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoadIssuePolicy {
    /// Loads issue as soon as their operands are ready (speculatively).
    Speculative,
    /// Loads issue only once unsquashable (no older unresolved branch) —
    /// the "delay-based" baseline family (Section 7.3.2).
    WhenUnsquashable,
}

/// Parameters of a load being issued.
#[derive(Clone, Copy, Debug)]
pub struct LoadIssue {
    /// Issuing core.
    pub core: CoreId,
    /// Target line.
    pub line: LineAddr,
    /// Issue cycle.
    pub now: Cycle,
    /// Whether the load is still squashable (an older unresolved branch
    /// exists). Under the paper's threat model every such load is unsafe.
    pub is_spec: bool,
}

/// What the scheme wants the pipeline to do when a load retires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitAction {
    /// Retire immediately.
    Proceed,
    /// Stall commit until the given cycle (InvisiSpec's initial-estimate
    /// behaviour: the update load is on the critical path, Section 2.3.1).
    StallUntil(Cycle),
    /// Retire now but keep the load-queue entry occupied until the given
    /// cycle (InvisiSpec's revised behaviour: the update load is off the
    /// critical path but still holds LQ resources, Section 6.5).
    HoldLqUntil(Cycle),
}

/// View of a retiring load given to [`SpeculationScheme::commit_load`].
#[derive(Clone, Copy, Debug)]
pub struct CommittedLoad {
    /// Line the load accessed.
    pub line: LineAddr,
    /// Whether the load was speculative when issued.
    pub issued_spec: bool,
    /// Service path (`None` if the value was forwarded from the store
    /// queue and the cache was never accessed).
    pub path: Option<LoadPath>,
    /// Whether an older load was still pending when this load reached its
    /// visibility point. Under TSO, InvisiSpec must then *validate* the
    /// exposed value before retirement (the update load lands on the
    /// critical path); otherwise the update can be fire-and-forget
    /// ("expose" in InvisiSpec's terms).
    pub needs_validation: bool,
}

/// Execution state of a squashed load at squash time.
#[derive(Clone, Copy, Debug)]
pub enum SquashedLoadState {
    /// The load never issued to the memory system (no side effects).
    NotIssued,
    /// Issued but its response is still in flight (CleanupSpec drops it by
    /// bumping the epoch; insecure modes let it fill as an orphan).
    Inflight {
        /// Service path decided at issue.
        path: LoadPath,
        /// MSHR token, when this load owns an entry.
        token: Option<MshrToken>,
    },
    /// Completed: its side effects are recorded in the SEFE.
    Executed {
        /// Service path.
        path: LoadPath,
        /// Side-effect record to undo.
        sefe: SefeRecord,
    },
}

/// One squashed load, as reported to [`SpeculationScheme::on_squash`].
#[derive(Clone, Copy, Debug)]
pub struct SquashedLoad {
    /// Accessed line (`None` if the address was never computed).
    pub line: Option<LineAddr>,
    /// Completion-order id (SEFE `LoadID`); set for executed loads.
    pub load_id: Option<LoadId>,
    /// State at squash time.
    pub state: SquashedLoadState,
}

/// Context for a squash event.
#[derive(Debug)]
pub struct SquashInfo<'a> {
    /// Core being squashed.
    pub core: CoreId,
    /// Cycle the mis-speculation was detected.
    pub mispredict_at: Cycle,
    /// Cycle `on_squash` is invoked (after any wait for older inflight
    /// loads, per Section 3.4).
    pub now: Cycle,
    /// The squashed loads, oldest first.
    pub loads: &'a [SquashedLoad],
}

/// Scheme response to a squash.
#[derive(Clone, Copy, Debug)]
pub struct SquashResponse {
    /// Cycle at which the front end may resume fetching (>= `now`). The
    /// pipeline applies its own redirect penalty on top.
    pub resume_at: Cycle,
}

/// A speculation-security policy plugged into the pipeline.
///
/// Implementations live in the `cleanupspec` crate: `NonSecure`,
/// `CleanupSpec`, `NaiveInvalidate`, `InvisiSpec` (initial and revised),
/// and `DelayOnMiss`-style baselines.
///
/// The policy queries (`issue_policy`, `waits_for_older_inflight`,
/// `stalls_issue_during_cleanup`, `uses_window_protection`) must return
/// the same answer for the scheme's whole lifetime: the system runner
/// charges a run of quiet cycles in one step, assuming a core that could
/// not act one cycle cannot act the next either
/// ([`crate::pipeline::Pipeline::quiet_until`]).
pub trait SpeculationScheme: std::fmt::Debug {
    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// Deep-copies the scheme, including every internal counter, pending
    /// cleanup deadline, and validation-queue slot, so a
    /// [`crate::system::System`] clone resumes with identical policy
    /// decisions.
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme>;

    /// When loads may issue.
    fn issue_policy(&self) -> LoadIssuePolicy {
        LoadIssuePolicy::Speculative
    }

    /// Issues a load to the hierarchy.
    ///
    /// # Errors
    /// Propagates [`SimError::MshrFull`] so the pipeline retries the load
    /// later.
    fn issue_load(
        &mut self,
        mem: &mut MemHierarchy,
        req: LoadIssue,
    ) -> Result<LoadOutcome, SimError>;

    /// Invoked once when a completed speculative load becomes
    /// *unsquashable* (no older unresolved branch) — InvisiSpec's
    /// visibility point. May start an update load; returns the cycle the
    /// update completes, which retirement must not pass. Default: no-op.
    fn on_load_visible(
        &mut self,
        _mem: &mut MemHierarchy,
        _core: CoreId,
        _load: CommittedLoad,
        _now: Cycle,
    ) -> Option<Cycle> {
        None
    }

    /// Invoked when a load reaches its visibility point (retirement).
    fn commit_load(
        &mut self,
        mem: &mut MemHierarchy,
        core: CoreId,
        load: CommittedLoad,
        now: Cycle,
    ) -> CommitAction;

    /// Whether squash handling first waits for older (correct-path)
    /// inflight loads to complete (CleanupSpec, Section 3.4).
    fn waits_for_older_inflight(&self) -> bool {
        false
    }

    /// Whether the pipeline must stall all issue while cleanup runs.
    fn stalls_issue_during_cleanup(&self) -> bool {
        false
    }

    /// Whether speculation-window SEFE-extension messages are sent for
    /// loads that stay speculative beyond the window interval
    /// (Section 3.6). The pipeline charges the traffic.
    fn uses_window_protection(&self) -> bool {
        false
    }

    /// Handles a squash: disposes of the squashed loads' cache-state
    /// changes and reports when the core may resume.
    fn on_squash(&mut self, mem: &mut MemHierarchy, info: SquashInfo<'_>) -> SquashResponse;

    /// Zeroes any scheme-internal counters (cleanup-op tallies, update-load
    /// counts, …) so warmup activity does not leak into measured stats.
    /// Called from `System::reset_stats`. Default: no counters, no-op.
    fn reset_stats(&mut self) {}

    /// Scheme-internal counters as `(name, value)` pairs, for reports and
    /// the warmup-reset regression test. Default: none.
    fn stat_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

impl Clone for Box<dyn SpeculationScheme> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_action_equality() {
        assert_eq!(CommitAction::Proceed, CommitAction::Proceed);
        assert_ne!(CommitAction::Proceed, CommitAction::StallUntil(3));
        assert_ne!(CommitAction::StallUntil(3), CommitAction::StallUntil(4));
    }

    #[test]
    fn default_trait_knobs() {
        #[derive(Clone, Debug)]
        struct Dummy;
        impl SpeculationScheme for Dummy {
            fn name(&self) -> &'static str {
                "dummy"
            }
            fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
                Box::new(self.clone())
            }
            fn issue_load(
                &mut self,
                _mem: &mut MemHierarchy,
                _req: LoadIssue,
            ) -> Result<LoadOutcome, SimError> {
                unimplemented!()
            }
            fn commit_load(
                &mut self,
                _mem: &mut MemHierarchy,
                _core: CoreId,
                _load: CommittedLoad,
                _now: Cycle,
            ) -> CommitAction {
                CommitAction::Proceed
            }
            fn on_squash(
                &mut self,
                _mem: &mut MemHierarchy,
                info: SquashInfo<'_>,
            ) -> SquashResponse {
                SquashResponse {
                    resume_at: info.now,
                }
            }
        }
        let d = Dummy;
        assert_eq!(d.issue_policy(), LoadIssuePolicy::Speculative);
        assert!(!d.waits_for_older_inflight());
        assert!(!d.stalls_issue_during_cleanup());
        assert!(!d.uses_window_protection());
    }
}
