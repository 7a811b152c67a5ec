//! The speculation-security schemes evaluated in the paper, implemented as
//! [`SpeculationScheme`] policies plugged into the out-of-order pipeline:
//!
//! * [`NonSecure`] — the insecure baseline: squashed loads' installs stay.
//! * [`CleanupSpec`] — the paper's contribution: undo on squash
//!   (Sections 3.1–3.6).
//! * [`NaiveInvalidate`] — the strawman of Section 2.4.1: invalidate
//!   transient installs but do not restore evictions (still leaks to
//!   Prime+Probe).
//! * [`InvisiSpec`] — the Redo baseline (Section 2.3), in both the
//!   initial-estimate (commit-critical-path update) and revised
//!   (off-critical-path update) variants of Section 6.5.
//! * [`DelaySpeculativeLoads`] — a delay-based baseline in the family of
//!   NDA/SpecShield (Section 7.3.2): loads wait until unsquashable.

use cleanupspec_core::scheme::{
    CommitAction, CommittedLoad, LoadIssue, LoadIssuePolicy, SpeculationScheme, SquashInfo,
    SquashResponse, SquashedLoadState,
};
use cleanupspec_mem::error::SimError;
use cleanupspec_mem::fault::FaultKind;
use cleanupspec_mem::hierarchy::{LoadKind, LoadOutcome, LoadReq, MemHierarchy};
use cleanupspec_mem::types::{CoreId, Cycle, LoadId};

/// Statistics kept by the CleanupSpec scheme itself (on top of the
/// hierarchy's and core's counters).
#[derive(Clone, Debug, Default)]
pub struct CleanupStats {
    /// Squash events handled.
    pub cleanups: u64,
    /// Cleanup operations issued (invalidations + restores).
    pub ops: u64,
    /// Invalidation operations.
    pub invalidates: u64,
    /// Restore operations.
    pub restores: u64,
    /// Inflight loads dropped by epoch bump.
    pub dropped_inflight: u64,
    /// Squashed-inflight loads whose fill landed during the cleanup's
    /// wait for older correct-path loads; their installs are undone like
    /// executed loads.
    pub raced_fill_undos: u64,
    /// Squashes that required no cleanup operation at all.
    pub free_squashes: u64,
}

impl CleanupStats {
    /// All counters as `(name, value)` pairs (for
    /// [`SpeculationScheme::stat_counters`]).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cleanups", self.cleanups),
            ("ops", self.ops),
            ("invalidates", self.invalidates),
            ("restores", self.restores),
            ("dropped_inflight", self.dropped_inflight),
            ("raced_fill_undos", self.raced_fill_undos),
            ("free_squashes", self.free_squashes),
        ]
    }
}

/// Timing of the cleanup engine.
#[derive(Clone, Copy, Debug)]
pub struct CleanupTiming {
    /// Cycles to deliver the epoch-bump cleanup request to the MSHRs and
    /// receive the acknowledgment (Section 3.3).
    pub ack_latency: Cycle,
    /// Round-trip of the first pipelined cleanup operation (a restore is an
    /// L2 access; Section 4b: "restoration cache accesses are pipelined and
    /// serviced from the inclusive L2").
    pub first_op_latency: Cycle,
    /// Initiation interval of subsequent pipelined cleanup operations.
    pub per_op_latency: Cycle,
    /// Pad every cleanup stall to this fixed length (the paper's stated
    /// future work, Section 4b: "making the cleanup-operations incur a
    /// constant-time stall to make this theoretically impossible to
    /// exploit"). `None` = variable-time cleanup as evaluated.
    pub constant_time: Option<Cycle>,
}

impl Default for CleanupTiming {
    fn default() -> Self {
        CleanupTiming {
            ack_latency: 2,
            first_op_latency: 10,
            per_op_latency: 3,
            constant_time: None,
        }
    }
}

/// Non-secure baseline: speculative loads install normally and squashed
/// loads leave their cache changes behind.
#[derive(Clone, Debug, Default)]
pub struct NonSecure {
    next_load: u64,
}

impl NonSecure {
    /// Creates the baseline scheme.
    pub fn new() -> Self {
        NonSecure::default()
    }
}

impl SpeculationScheme for NonSecure {
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "non-secure"
    }

    fn issue_load(
        &mut self,
        mem: &mut MemHierarchy,
        req: LoadIssue,
    ) -> Result<LoadOutcome, SimError> {
        self.next_load += 1;
        mem.load(
            req.core,
            req.line,
            req.now,
            LoadReq {
                load: LoadId(self.next_load),
                spec: false, // no tagging: nothing is ever undone
                allow_downgrade: true,
                kind: LoadKind::Demand,
                tag_spec_install: false,
            },
        )
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

    fn on_squash(&mut self, mem: &mut MemHierarchy, info: SquashInfo<'_>) -> SquashResponse {
        // Inflight wrong-path fills still land (orphaned): this is the
        // behaviour the attacks exploit.
        for l in info.loads {
            if let SquashedLoadState::Inflight { token: Some(t), .. } = l.state {
                mem.orphan_token(t);
            }
        }
        SquashResponse {
            resume_at: info.now,
        }
    }
}

/// CleanupSpec: the paper's undo-based scheme.
///
/// * Speculative loads install normally, tagged for window protection.
/// * Speculative loads that would downgrade a remote M/E line are issued
///   with GetS-Safe and deferred until unsquashable (Section 3.5).
/// * On a squash: wait for older inflight loads, drop inflight squashed
///   loads by bumping the epoch, and undo executed squashed loads in
///   reverse LoadID order — invalidate installs, restore L1 evictions
///   (Sections 3.3–3.4).
#[derive(Clone, Debug, Default)]
pub struct CleanupSpec {
    timing: CleanupTiming,
    next_load: u64,
    stats: CleanupStats,
}

impl CleanupSpec {
    /// Creates the scheme with default cleanup timing.
    pub fn new() -> Self {
        CleanupSpec::default()
    }

    /// Creates the scheme with explicit cleanup timing.
    pub fn with_timing(timing: CleanupTiming) -> Self {
        CleanupSpec {
            timing,
            ..Default::default()
        }
    }

    /// Scheme-level statistics.
    pub fn stats(&self) -> &CleanupStats {
        &self.stats
    }

    fn undo(
        &mut self,
        mem: &mut MemHierarchy,
        info: &SquashInfo<'_>,
        restore_evictions: bool,
    ) -> SquashResponse {
        self.stats.cleanups += 1;
        // Drop inflight squashed loads: epoch bump + MSHR drop. Thanks to
        // the wait-for-older-inflight rule, every pending entry of this
        // core belongs to a squashed load.
        let has_inflight = info
            .loads
            .iter()
            .any(|l| matches!(l.state, SquashedLoadState::Inflight { .. }));
        let any_issued = info
            .loads
            .iter()
            .any(|l| !matches!(l.state, SquashedLoadState::NotIssued));
        let mut ops: u64 = 0;
        // Fills that raced the deferred cleanup: the load was still
        // inflight when the squash was recorded, but its response landed —
        // and installed — while cleanup waited for older correct-path
        // loads. Collect their SEFEs (freeing the stuck MSHR entries) and
        // undo the installs like executed loads. They completed after
        // every executed load, so they unwind first.
        let mut raced: Vec<_> = info
            .loads
            .iter()
            .filter_map(|l| match l.state {
                SquashedLoadState::Inflight { token: Some(t), .. } => mem
                    .collect(t)
                    .and_then(|sefe| l.line.map(|line| (line, sefe))),
                _ => None,
            })
            .collect();
        self.stats.raced_fill_undos += raced.len() as u64;
        raced.reverse(); // `loads` is oldest-first; unwind newest-first
        if has_inflight {
            self.stats.dropped_inflight += mem.drop_core_inflight(info.core) as u64;
        }
        // Executed squashed loads: undo in reverse completion (LoadID)
        // order so the cache's timeline is unwound correctly (Section 3.4).
        let mut executed: Vec<_> = info
            .loads
            .iter()
            .filter_map(|l| match l.state {
                SquashedLoadState::Executed { sefe, .. } => {
                    l.line.map(|line| (l.load_id, line, sefe))
                }
                _ => None,
            })
            .collect();
        executed.sort_by_key(|e| std::cmp::Reverse(e.0));
        let undo_list: Vec<_> = raced
            .into_iter()
            .chain(executed.into_iter().map(|(_, line, sefe)| (line, sefe)))
            .collect();
        // Fault hook: DoubleUndo models a cleanup engine that fails to
        // clear its walk pointer and re-runs the whole op list. The repeat
        // invalidations hit lines the engine no longer owns; the episode
        // ledger flags them as double-undo leaks.
        let passes =
            if !undo_list.is_empty() && mem.fault_injector().should_fire(FaultKind::DoubleUndo) {
                2
            } else {
                1
            };
        for _ in 0..passes {
            for &(line, sefe) in &undo_list {
                if sefe.l1_fill || sefe.l2_fill {
                    mem.cleanup_invalidate(info.core, line, sefe.l1_fill, sefe.l2_fill);
                    self.stats.invalidates += 1;
                    ops += 1;
                }
                if restore_evictions {
                    if let Some(victim) = sefe.l1_evict {
                        mem.cleanup_restore(info.core, victim, sefe.l1_evict_dirty, line);
                        self.stats.restores += 1;
                        ops += 1;
                    }
                }
            }
        }
        self.stats.ops += ops;
        let mut t = 0;
        // The cleanup request/acknowledgment round to the MSHRs is needed
        // whenever any squashed load reached the cache hierarchy.
        if any_issued {
            t += self.timing.ack_latency;
        }
        if ops > 0 {
            t += self.timing.first_op_latency + self.timing.per_op_latency * (ops - 1);
        }
        if ops == 0 && !has_inflight {
            self.stats.free_squashes += 1;
        }
        if let Some(fixed) = self.timing.constant_time {
            // Constant-time variant: every squash stalls the same amount,
            // independent of how much cleanup work there was.
            t = t.max(fixed);
        }
        SquashResponse {
            resume_at: info.now + t,
        }
    }
}

impl SpeculationScheme for CleanupSpec {
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "cleanupspec"
    }

    fn issue_load(
        &mut self,
        mem: &mut MemHierarchy,
        req: LoadIssue,
    ) -> Result<LoadOutcome, SimError> {
        self.next_load += 1;
        mem.load(
            req.core,
            req.line,
            req.now,
            LoadReq {
                load: LoadId(self.next_load),
                spec: req.is_spec,
                // GetS-Safe: speculative loads may not downgrade remote M/E
                // lines (Section 3.5).
                allow_downgrade: !req.is_spec,
                kind: LoadKind::Demand,
                tag_spec_install: req.is_spec,
            },
        )
    }

    fn commit_load(
        &mut self,
        mem: &mut MemHierarchy,
        core: CoreId,
        load: CommittedLoad,
        _now: Cycle,
    ) -> CommitAction {
        // The load is unsquashable: clear its speculation-window tag.
        mem.retire_load(core, load.line);
        CommitAction::Proceed
    }

    fn waits_for_older_inflight(&self) -> bool {
        true
    }

    fn stalls_issue_during_cleanup(&self) -> bool {
        true
    }

    fn uses_window_protection(&self) -> bool {
        true
    }

    fn on_squash(&mut self, mem: &mut MemHierarchy, info: SquashInfo<'_>) -> SquashResponse {
        self.undo(mem, &info, true)
    }

    fn reset_stats(&mut self) {
        self.stats = CleanupStats::default();
    }

    fn stat_counters(&self) -> Vec<(&'static str, u64)> {
        self.stats.counters()
    }
}

/// The Section-2.4.1 strawman: invalidate transient installs on a squash
/// but do **not** restore the lines they evicted. Fast, but the eviction
/// channel remains open (demonstrated by the Prime+Probe tests).
#[derive(Clone, Debug, Default)]
pub struct NaiveInvalidate {
    inner: CleanupSpec,
}

impl NaiveInvalidate {
    /// Creates the strawman scheme.
    pub fn new() -> Self {
        NaiveInvalidate::default()
    }

    /// Scheme-level statistics.
    pub fn stats(&self) -> &CleanupStats {
        self.inner.stats()
    }
}

impl SpeculationScheme for NaiveInvalidate {
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "naive-invalidate"
    }

    fn issue_load(
        &mut self,
        mem: &mut MemHierarchy,
        req: LoadIssue,
    ) -> Result<LoadOutcome, SimError> {
        self.inner.issue_load(mem, req)
    }

    fn commit_load(
        &mut self,
        mem: &mut MemHierarchy,
        core: CoreId,
        load: CommittedLoad,
        now: Cycle,
    ) -> CommitAction {
        self.inner.commit_load(mem, core, load, now)
    }

    fn waits_for_older_inflight(&self) -> bool {
        true
    }

    fn stalls_issue_during_cleanup(&self) -> bool {
        true
    }

    fn uses_window_protection(&self) -> bool {
        true
    }

    fn on_squash(&mut self, mem: &mut MemHierarchy, info: SquashInfo<'_>) -> SquashResponse {
        self.inner.undo(mem, &info, false)
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn stat_counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.stat_counters()
    }
}

/// Which InvisiSpec implementation to model (Section 6.5 / Table 6).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InvisiSpecVariant {
    /// Initial estimate: the commit-time update load is on the critical
    /// path (the behaviour measured at ~67.5% slowdown).
    Initial,
    /// Revised implementation: the update load is off the critical path
    /// but still occupies the load-queue entry (~15% slowdown).
    Revised,
}

/// InvisiSpec: the Redo-based baseline (Section 2.3). Speculative loads are
/// invisible (no cache change); at commit an update load re-fetches the
/// data and installs it.
#[derive(Clone, Debug)]
pub struct InvisiSpec {
    variant: InvisiSpecVariant,
    next_load: u64,
    /// Update loads issued at commit.
    pub update_loads: u64,
    /// Upper bound on the retirement wait for a validation acknowledgment
    /// in the revised variant, in cycles (the L2/directory round trip plus
    /// ordering queues; the full data refetch never gates retirement).
    pub validation_cap: Cycle,
}

impl InvisiSpec {
    /// Creates the scheme for a variant.
    pub fn new(variant: InvisiSpecVariant) -> Self {
        InvisiSpec {
            variant,
            next_load: 0,
            update_loads: 0,
            validation_cap: 40,
        }
    }

    /// The modeled variant.
    pub fn variant(&self) -> InvisiSpecVariant {
        self.variant
    }
}

impl InvisiSpec {
    /// Issues the commit-time/visibility-point update (Expose) load.
    /// Returns (completion cycle, service path).
    fn expose(
        &mut self,
        mem: &mut MemHierarchy,
        core: CoreId,
        load: CommittedLoad,
        now: Cycle,
    ) -> (Cycle, cleanupspec_mem::mshr::LoadPath) {
        self.update_loads += 1;
        self.next_load += 1;
        match mem.load(
            core,
            load.line,
            now,
            LoadReq {
                load: LoadId(self.next_load),
                spec: false,
                allow_downgrade: true,
                kind: LoadKind::Expose,
                tag_spec_install: false,
            },
        ) {
            Ok(out) => (out.complete_at, out.path),
            // MSHRs saturated by update traffic: brief retry delay.
            Err(_) => (now + 2, cleanupspec_mem::mshr::LoadPath::L1Hit),
        }
    }
}

impl SpeculationScheme for InvisiSpec {
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        match self.variant {
            InvisiSpecVariant::Initial => "invisispec-initial",
            InvisiSpecVariant::Revised => "invisispec-revised",
        }
    }

    fn issue_load(
        &mut self,
        mem: &mut MemHierarchy,
        req: LoadIssue,
    ) -> Result<LoadOutcome, SimError> {
        self.next_load += 1;
        let kind = if req.is_spec {
            LoadKind::Invisible
        } else {
            LoadKind::Demand
        };
        mem.load(
            req.core,
            req.line,
            req.now,
            LoadReq {
                load: LoadId(self.next_load),
                spec: false,
                allow_downgrade: true,
                kind,
                tag_spec_install: false,
            },
        )
    }

    fn on_load_visible(
        &mut self,
        mem: &mut MemHierarchy,
        core: CoreId,
        load: CommittedLoad,
        now: Cycle,
    ) -> Option<Cycle> {
        // Revised implementation: the update load starts at the visibility
        // point, overlapping with the commit lag; retirement only waits for
        // whatever is left of it (Section 6.5).
        if self.variant != InvisiSpecVariant::Revised {
            return None;
        }
        if !load.issued_spec || load.path.is_none() {
            return None;
        }
        let (done, path) = self.expose(mem, core, load, now);
        // The revised implementation waits only for the *validation
        // acknowledgment* from the coherence point (an L2 round trip): the
        // data itself already reached the core with the invisible load, so
        // the background refetch need not gate retirement. (The initial
        // estimate's bug was waiting for the full data return — see
        // `commit_load`.)
        if load.needs_validation || path != cleanupspec_mem::mshr::LoadPath::L1Hit {
            Some(done.min(now + self.validation_cap.max(mem.config().l2_effective_rt())))
        } else {
            None
        }
    }

    fn commit_load(
        &mut self,
        mem: &mut MemHierarchy,
        core: CoreId,
        load: CommittedLoad,
        now: Cycle,
    ) -> CommitAction {
        // Forwarded loads and loads issued non-speculatively need no redo;
        // the revised variant already exposed at the visibility point.
        if self.variant == InvisiSpecVariant::Revised || !load.issued_spec || load.path.is_none() {
            return CommitAction::Proceed;
        }
        // Initial estimate: the update load runs at commit, on the critical
        // path (the value-propagation behaviour of Section 6.5).
        let (done, _) = self.expose(mem, core, load, now);
        CommitAction::StallUntil(done)
    }

    fn on_squash(&mut self, _mem: &mut MemHierarchy, info: SquashInfo<'_>) -> SquashResponse {
        // Invisible loads left no trace; nothing to undo or orphan.
        SquashResponse {
            resume_at: info.now,
        }
    }

    fn reset_stats(&mut self) {
        self.update_loads = 0;
    }

    fn stat_counters(&self) -> Vec<(&'static str, u64)> {
        vec![("update_loads", self.update_loads)]
    }
}

/// Delay-on-miss baseline: speculative loads that HIT the L1 proceed (a
/// hit changes only replacement state), but speculative L1 misses are
/// refused and retried once unsquashable — the Conditional-Speculation /
/// delay-on-miss family of Section 7.3.2.
#[derive(Clone, Debug, Default)]
pub struct DelayOnMiss {
    next_load: u64,
    /// Speculative misses that were delayed.
    pub delayed_misses: u64,
}

impl DelayOnMiss {
    /// Creates the scheme.
    pub fn new() -> Self {
        DelayOnMiss::default()
    }
}

impl SpeculationScheme for DelayOnMiss {
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "delay-on-miss"
    }

    fn issue_load(
        &mut self,
        mem: &mut MemHierarchy,
        req: LoadIssue,
    ) -> Result<LoadOutcome, SimError> {
        self.next_load += 1;
        if req.is_spec && mem.l1(req.core).probe(req.line).is_none() {
            // A speculative L1 miss would change cache state: refuse it;
            // the pipeline retries once the load is unsquashable.
            self.delayed_misses += 1;
            return Ok(LoadOutcome {
                complete_at: req.now,
                path: cleanupspec_mem::mshr::LoadPath::L2Hit,
                token: None,
                deferred: true,
                provenance: None,
            });
        }
        mem.load(
            req.core,
            req.line,
            req.now,
            LoadReq::non_spec(LoadId(self.next_load)),
        )
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

    fn on_squash(&mut self, _mem: &mut MemHierarchy, info: SquashInfo<'_>) -> SquashResponse {
        SquashResponse {
            resume_at: info.now,
        }
    }

    fn reset_stats(&mut self) {
        self.delayed_misses = 0;
    }

    fn stat_counters(&self) -> Vec<(&'static str, u64)> {
        vec![("delayed_misses", self.delayed_misses)]
    }
}

/// Delay-based baseline: loads issue only once unsquashable. Related to
/// the delay-everything family the paper contrasts with (NDA, SpecShield;
/// Section 7.3.2).
#[derive(Clone, Debug, Default)]
pub struct DelaySpeculativeLoads {
    next_load: u64,
}

impl DelaySpeculativeLoads {
    /// Creates the delay-based scheme.
    pub fn new() -> Self {
        DelaySpeculativeLoads::default()
    }
}

impl SpeculationScheme for DelaySpeculativeLoads {
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "delay-spec-loads"
    }

    fn issue_policy(&self) -> LoadIssuePolicy {
        LoadIssuePolicy::WhenUnsquashable
    }

    fn issue_load(
        &mut self,
        mem: &mut MemHierarchy,
        req: LoadIssue,
    ) -> Result<LoadOutcome, SimError> {
        self.next_load += 1;
        mem.load(
            req.core,
            req.line,
            req.now,
            LoadReq::non_spec(LoadId(self.next_load)),
        )
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

    fn on_squash(&mut self, _mem: &mut MemHierarchy, info: SquashInfo<'_>) -> SquashResponse {
        SquashResponse {
            resume_at: info.now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanupspec_mem::hierarchy::MemConfig;
    use cleanupspec_mem::types::LineAddr;

    fn mem() -> MemHierarchy {
        MemHierarchy::new(MemConfig::default())
    }

    fn issue(
        s: &mut dyn SpeculationScheme,
        m: &mut MemHierarchy,
        line: u64,
        now: Cycle,
    ) -> LoadOutcome {
        s.issue_load(
            m,
            LoadIssue {
                core: CoreId(0),
                line: LineAddr::new(line),
                now,
                is_spec: true,
            },
        )
        .expect("MSHR available")
    }

    #[test]
    fn cleanupspec_undo_restores_exact_cache_state() {
        let mut m = mem();
        let mut s = CleanupSpec::new();
        // Pre-fill a victim line non-speculatively.
        let victim = issue(&mut s, &mut m, 0x10, 0);
        m.advance(victim.complete_at);
        let sefe_v = m.collect(victim.token.unwrap()).unwrap();
        assert!(sefe_v.l1_fill);
        m.retire_load(CoreId(0), LineAddr::new(0x10));
        let before_l1 = m.l1_snapshot(CoreId(0));
        let before_l2 = m.l2_snapshot();

        // Transient load, executed, then squashed.
        let out = issue(&mut s, &mut m, 0x9999, 100);
        m.advance(out.complete_at);
        let sefe = m.collect(out.token.unwrap()).unwrap();
        let loads = [cleanupspec_core::scheme::SquashedLoad {
            line: Some(LineAddr::new(0x9999)),
            load_id: Some(LoadId(5)),
            state: SquashedLoadState::Executed {
                path: out.path,
                sefe,
            },
        }];
        let resp = s.on_squash(
            &mut m,
            SquashInfo {
                core: CoreId(0),
                mispredict_at: 300,
                now: 310,
                loads: &loads,
            },
        );
        assert!(resp.resume_at > 310, "cleanup takes time");
        assert_eq!(m.l1_snapshot(CoreId(0)), before_l1);
        assert_eq!(m.l2_snapshot(), before_l2);
        assert_eq!(s.stats().invalidates, 1);
    }

    #[test]
    fn cleanupspec_drops_inflight_for_free() {
        let mut m = mem();
        let mut s = CleanupSpec::new();
        let before = m.l2_snapshot();
        let out = issue(&mut s, &mut m, 0x777, 0);
        let loads = [cleanupspec_core::scheme::SquashedLoad {
            line: Some(LineAddr::new(0x777)),
            load_id: None,
            state: SquashedLoadState::Inflight {
                path: out.path,
                token: out.token,
            },
        }];
        let resp = s.on_squash(
            &mut m,
            SquashInfo {
                core: CoreId(0),
                mispredict_at: 5,
                now: 5,
                loads: &loads,
            },
        );
        // Only the epoch-bump ack is charged.
        assert_eq!(resp.resume_at, 5 + CleanupTiming::default().ack_latency);
        m.advance(out.complete_at + 10);
        assert_eq!(m.l2_snapshot(), before, "dropped fill left no trace");
        assert_eq!(s.stats().dropped_inflight, 1);
    }

    #[test]
    fn cleanupspec_undoes_fill_that_raced_the_deferred_cleanup() {
        // The load is inflight at squash time, but its fill lands while
        // cleanup waits for older correct-path loads (advance past
        // complete_at before on_squash). The install must still be
        // undone and the MSHR entry freed.
        let mut m = mem();
        let mut s = CleanupSpec::new();
        let before_l1 = m.l1_snapshot(CoreId(0));
        let before_l2 = m.l2_snapshot();
        let out = issue(&mut s, &mut m, 0x4242, 0);
        m.advance(out.complete_at + 1); // fill lands: entry now Filled
        assert!(
            m.l1(CoreId(0)).probe(LineAddr::new(0x4242)).is_some(),
            "precondition: the raced fill installed"
        );
        let loads = [cleanupspec_core::scheme::SquashedLoad {
            line: Some(LineAddr::new(0x4242)),
            load_id: None,
            state: SquashedLoadState::Inflight {
                path: out.path,
                token: out.token,
            },
        }];
        s.on_squash(
            &mut m,
            SquashInfo {
                core: CoreId(0),
                mispredict_at: 1,
                now: out.complete_at + 5,
                loads: &loads,
            },
        );
        assert_eq!(m.l1_snapshot(CoreId(0)), before_l1);
        assert_eq!(m.l2_snapshot(), before_l2);
        assert_eq!(s.stats().raced_fill_undos, 1);
        assert!(
            m.collect(out.token.unwrap()).is_none(),
            "the stuck MSHR entry was freed by the cleanup"
        );
        m.check_invariants().unwrap();
    }

    #[test]
    fn nonsecure_orphans_inflight_squashed_loads() {
        let mut m = mem();
        let mut s = NonSecure::new();
        let out = issue(&mut s, &mut m, 0x555, 0);
        let loads = [cleanupspec_core::scheme::SquashedLoad {
            line: Some(LineAddr::new(0x555)),
            load_id: None,
            state: SquashedLoadState::Inflight {
                path: out.path,
                token: out.token,
            },
        }];
        let resp = s.on_squash(
            &mut m,
            SquashInfo {
                core: CoreId(0),
                mispredict_at: 5,
                now: 5,
                loads: &loads,
            },
        );
        assert_eq!(resp.resume_at, 5, "no security stall");
        m.advance(out.complete_at + 1);
        assert!(
            m.l1(CoreId(0)).probe(LineAddr::new(0x555)).is_some(),
            "wrong-path fill landed (the leak)"
        );
    }

    #[test]
    fn naive_invalidate_skips_restores() {
        let mut m = mem();
        let mut s = NaiveInvalidate::new();
        let out = issue(&mut s, &mut m, 0x123, 0);
        m.advance(out.complete_at);
        let sefe = m.collect(out.token.unwrap()).unwrap();
        let loads = [cleanupspec_core::scheme::SquashedLoad {
            line: Some(LineAddr::new(0x123)),
            load_id: Some(LoadId(1)),
            state: SquashedLoadState::Executed {
                path: out.path,
                sefe,
            },
        }];
        s.on_squash(
            &mut m,
            SquashInfo {
                core: CoreId(0),
                mispredict_at: 200,
                now: 200,
                loads: &loads,
            },
        );
        assert!(m.l1(CoreId(0)).probe(LineAddr::new(0x123)).is_none());
        assert_eq!(s.stats().restores, 0, "naive mode never restores");
    }

    #[test]
    fn invisispec_redo_doubles_memory_traffic() {
        let mut m = mem();
        let mut s = InvisiSpec::new(InvisiSpecVariant::Initial);
        let line = LineAddr::new(0xabc);
        let out = issue(&mut s, &mut m, 0xabc, 0);
        assert!(out.token.is_none(), "invisible loads own no MSHR entry");
        m.advance(out.complete_at);
        assert!(m.l1(CoreId(0)).probe(line).is_none(), "invisible");
        // Commit: the update load re-fetches from DRAM and stalls commit.
        let action = s.commit_load(
            &mut m,
            CoreId(0),
            CommittedLoad {
                line,
                issued_spec: true,
                path: Some(out.path),
                needs_validation: false,
            },
            out.complete_at,
        );
        match action {
            CommitAction::StallUntil(c) => {
                assert!(c >= out.complete_at + m.config().l2_rt + m.config().dram_rt);
            }
            other => panic!("expected commit stall, got {other:?}"),
        }
        m.advance(out.complete_at + 500);
        assert!(m.l1(CoreId(0)).probe(line).is_some(), "update installed");
        assert_eq!(s.update_loads, 1);
        assert_eq!(m.mshr_occupancy(CoreId(0)), 0, "expose entry self-freed");
    }

    #[test]
    fn invisispec_revised_exposes_at_visibility_point() {
        let mut m = mem();
        let mut s = InvisiSpec::new(InvisiSpecVariant::Revised);
        let out = issue(&mut s, &mut m, 0xdef, 0);
        m.advance(out.complete_at);
        let load = CommittedLoad {
            line: LineAddr::new(0xdef),
            issued_spec: true,
            path: Some(out.path),
            needs_validation: false,
        };
        // The update starts when the load becomes unsquashable...
        let exposed = s.on_load_visible(&mut m, CoreId(0), load, out.complete_at);
        let done = exposed.expect("revised exposes at visibility point");
        assert!(done > out.complete_at, "update load takes time");
        // ...and commit itself adds nothing more.
        let action = s.commit_load(&mut m, CoreId(0), load, done);
        assert_eq!(action, CommitAction::Proceed);
        m.advance(done + 500);
        assert!(m.l1(CoreId(0)).probe(LineAddr::new(0xdef)).is_some());
        // The initial variant does NOT use the visibility hook.
        let mut si = InvisiSpec::new(InvisiSpecVariant::Initial);
        assert!(si.on_load_visible(&mut m, CoreId(0), load, 0).is_none());
    }

    #[test]
    fn delay_scheme_only_issues_at_head() {
        let s = DelaySpeculativeLoads::new();
        assert_eq!(s.issue_policy(), LoadIssuePolicy::WhenUnsquashable);
    }

    #[test]
    fn scheme_names_distinct() {
        let names = [
            NonSecure::new().name(),
            CleanupSpec::new().name(),
            NaiveInvalidate::new().name(),
            InvisiSpec::new(InvisiSpecVariant::Initial).name(),
            InvisiSpec::new(InvisiSpecVariant::Revised).name(),
            DelaySpeculativeLoads::new().name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
