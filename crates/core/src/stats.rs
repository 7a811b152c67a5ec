//! Core-side statistics: IPC, branch behaviour, and the squash/cleanup
//! decompositions behind Figures 12–15 and Table 5 of the paper.

use cleanupspec_mem::types::Cycle;
use cleanupspec_obs::Histogram;

/// Top-down attribution of one core cycle — the reason the core did (or
/// could not do) useful work that cycle.
///
/// The pipeline charges **exactly one** cause per core per cycle, so the
/// per-cause totals in [`CpiStack`] sum exactly to the cycles simulated:
/// the invariant `cpi_stack.total() == CoreStats::cycles` holds for every
/// report and is asserted by the `cpi_stack` integration tests.
///
/// The first block is the classic top-down taxonomy; the second block is
/// the CleanupSpec-specific overhead causes the paper's ~5.1% slowdown
/// claim decomposes into (threaded from the scheme seam and the memory
/// hierarchy's miss-provenance tracking).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum StallCause {
    /// At least one instruction committed this cycle (useful work).
    Commit,
    /// ROB empty: the front end is refilling (redirect penalty, fetch
    /// stalls, program startup).
    Frontend,
    /// Head is executing and dispatch is blocked on a full ROB.
    RobFull,
    /// Head is executing (ALU latency, L1-hit load latency, branches).
    Exec,
    /// Head is a load being serviced by the L2 / a remote L1 / a dummy
    /// miss.
    LoadL2,
    /// Head is a load being serviced by DRAM.
    LoadMem,
    /// Head is a store (or dispatch is blocked on a full store queue).
    StoreBuffer,
    /// Head is done but commit is gated — by the scheme (InvisiSpec
    /// update loads) or a deferred permission check (Meltdown window).
    SchemeCommitStall,
    /// Squash pending: waiting for older correct-path inflight loads to
    /// complete before cleanup may run (Section 3.4, Figure 14).
    WaitInflight,
    /// Front end stalled by an in-progress cleanup (the scheme's
    /// `resume_at` extends past the redirect penalty).
    CleanupInProgress,
    /// Head is a load deferred by GetS-Safe, waiting to become
    /// unsquashable (Section 3.5).
    SchemeDefer,
    /// Head is a load missing on a line that last left this L1 via a
    /// cleanup (transient) invalidation — a miss the undo itself caused.
    TransientInvalidate,
    /// Head is a load missing on a line that last left this L1 via random
    /// replacement — the extra misses CleanupSpec's L1-Random policy
    /// costs over LRU.
    RandomReplMiss,
    /// Head is an unissued load and an MSHR/SEFE allocation failed this
    /// cycle (Section 3.3 overflow back-pressure).
    SefePressure,
    /// The core has committed its `Halt` (multi-core runs: other cores
    /// are still working).
    Halted,
    /// Harness phase: the memory system advanced without ticking the
    /// cores (attack probe/flush/drain measurement cycles).
    Harness,
}

impl StallCause {
    /// Every cause, in display order.
    pub const ALL: [StallCause; 16] = [
        StallCause::Commit,
        StallCause::Frontend,
        StallCause::RobFull,
        StallCause::Exec,
        StallCause::LoadL2,
        StallCause::LoadMem,
        StallCause::StoreBuffer,
        StallCause::SchemeCommitStall,
        StallCause::WaitInflight,
        StallCause::CleanupInProgress,
        StallCause::SchemeDefer,
        StallCause::TransientInvalidate,
        StallCause::RandomReplMiss,
        StallCause::SefePressure,
        StallCause::Halted,
        StallCause::Harness,
    ];

    /// Stable snake-case label (JSON keys, report tables).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::Commit => "commit",
            StallCause::Frontend => "frontend",
            StallCause::RobFull => "rob_full",
            StallCause::Exec => "exec",
            StallCause::LoadL2 => "load_l2",
            StallCause::LoadMem => "load_mem",
            StallCause::StoreBuffer => "store_buffer",
            StallCause::SchemeCommitStall => "scheme_commit_stall",
            StallCause::WaitInflight => "wait_inflight",
            StallCause::CleanupInProgress => "cleanup_in_progress",
            StallCause::SchemeDefer => "gets_safe_defer",
            StallCause::TransientInvalidate => "transient_inval_miss",
            StallCause::RandomReplMiss => "l1_random_repl_miss",
            StallCause::SefePressure => "sefe_pressure",
            StallCause::Halted => "halted",
            StallCause::Harness => "harness",
        }
    }

    /// Dense index into [`CpiStack`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the cause exists only under a secure scheme — the buckets a
    /// NonSecure-vs-scheme attribution diff charges the security tax to.
    pub fn is_scheme_overhead(self) -> bool {
        matches!(
            self,
            StallCause::SchemeCommitStall
                | StallCause::WaitInflight
                | StallCause::CleanupInProgress
                | StallCause::SchemeDefer
                | StallCause::TransientInvalidate
                | StallCause::RandomReplMiss
                | StallCause::SefePressure
        )
    }
}

impl std::fmt::Display for StallCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-cause cycle totals for one core (a top-down CPI stack).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CpiStack {
    counts: [u64; StallCause::ALL.len()],
}

impl CpiStack {
    /// An empty stack.
    pub fn new() -> Self {
        CpiStack::default()
    }

    /// Charges one cycle to `cause`.
    #[inline]
    pub fn charge(&mut self, cause: StallCause) {
        self.counts[cause.index()] += 1;
    }

    /// Charges `n` cycles to `cause` at once (a jumped run of identical
    /// cycles).
    #[inline]
    pub(crate) fn charge_n(&mut self, cause: StallCause, n: u64) {
        self.counts[cause.index()] += n;
    }

    /// Cycles charged to `cause`.
    pub fn get(&self, cause: StallCause) -> u64 {
        self.counts[cause.index()]
    }

    /// Total cycles across all causes. Equals the cycles simulated — the
    /// accounting invariant every report is checked against.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(cause, cycles)` pairs in display order, including zero entries.
    pub fn iter(&self) -> impl Iterator<Item = (StallCause, u64)> + '_ {
        StallCause::ALL.iter().map(|&c| (c, self.counts[c.index()]))
    }

    /// Overwrites the cycles charged to `cause` (cs-snap report load;
    /// production accounting must go through [`Self::charge`]).
    pub fn set(&mut self, cause: StallCause, n: u64) {
        self.counts[cause.index()] = n;
    }

    /// Adds another stack's counts into this one (system-level rollups).
    pub fn merge(&mut self, other: &CpiStack) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Cycles per kilo-instruction charged to `cause` (0.0 when no
    /// instructions committed — never NaN).
    pub fn cpki(&self, cause: StallCause, insts: u64) -> f64 {
        if insts == 0 {
            0.0
        } else {
            self.get(cause) as f64 * 1000.0 / insts as f64
        }
    }
}

/// Classification of a squashed load (Table 5 columns).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SquashedClass {
    /// Not issued when squashed (`NI`).
    NotIssued,
    /// Issued and hit the L1 (`L1H`).
    L1Hit,
    /// Issued, missed L1, hit L2 or a remote L1 (`L2H`).
    L2Hit,
    /// Issued and missed the L2 (`L2M`).
    L2Miss,
}

/// Statistics for one simulated core.
#[derive(Clone, Debug, Default)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: Cycle,
    /// Committed instructions.
    pub committed_insts: u64,
    /// Committed loads.
    pub committed_loads: u64,
    /// Committed stores.
    pub committed_stores: u64,
    /// Committed conditional branches.
    pub committed_branches: u64,
    /// Resolved conditional-branch mispredictions.
    pub mispredicts: u64,
    /// Pipeline squashes (one per handled mis-speculation).
    pub squashes: u64,
    /// Instructions squashed.
    pub squashed_insts: u64,
    /// Squashed loads by class (Table 5).
    pub squashed_ni: u64,
    /// See [`SquashedClass::L1Hit`].
    pub squashed_l1h: u64,
    /// See [`SquashedClass::L2Hit`].
    pub squashed_l2h: u64,
    /// See [`SquashedClass::L2Miss`].
    pub squashed_l2m: u64,
    /// Squashed L1-miss loads that were still inflight (Figure 15).
    pub squashed_miss_inflight: u64,
    /// Squashed L1-miss loads that had executed (Figure 15).
    pub squashed_miss_executed: u64,
    /// Cycles spent waiting for older inflight loads before cleanup
    /// (Figure 14, "Inflight Correct Path Exec").
    pub squash_wait_cycles: Cycle,
    /// Cycles spent performing cleanup operations (Figure 14, "Actual
    /// Cleanup Time").
    pub squash_cleanup_cycles: Cycle,
    /// Loads whose issue was deferred by GetS-Safe and retried.
    pub deferred_loads: u64,
    /// Cycles commit was stalled by the scheme (InvisiSpec update loads).
    pub commit_stall_cycles: Cycle,
    /// Cycles fetch was stalled (redirects + cleanup stalls).
    pub fetch_stall_cycles: Cycle,
    /// Loads that issued while still squashable (speculative issues).
    pub spec_issued_loads: u64,
    /// Speculation-window extension messages charged (Section 3.6).
    pub window_extend_msgs: u64,
    /// Loads forwarded from the store queue (no cache access).
    pub forwarded_loads: u64,
    /// Faults raised at commit (Meltdown-style deferred exceptions).
    pub faults: u64,
    /// Distribution of per-squash cleanup durations (cycles from the
    /// scheme's `on_squash` to its resume cycle).
    pub cleanup_duration: Histogram,
    /// Distribution of full cleanup-episode durations: first squash of
    /// the episode to the scheme's resume cycle (inflight wait + cleanup
    /// walk), one sample per episode.
    pub episode_duration: Histogram,
    /// Distribution of episode sizes: squashed loads handed to one
    /// cleanup invocation (merged squashes count once, combined).
    pub episode_loads: Histogram,
    /// Top-down cycle accounting: exactly one [`StallCause`] per cycle,
    /// summing to `cycles`.
    pub cpi_stack: CpiStack,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_insts as f64 / self.cycles as f64
        }
    }

    /// Squashes per kilo-instruction (Figure 13).
    pub fn squash_pki(&self) -> f64 {
        if self.committed_insts == 0 {
            0.0
        } else {
            self.squashes as f64 * 1000.0 / self.committed_insts as f64
        }
    }

    /// Conditional-branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.committed_branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.committed_branches as f64
        }
    }

    /// Total squashed loads.
    pub fn squashed_loads(&self) -> u64 {
        self.squashed_ni + self.squashed_l1h + self.squashed_l2h + self.squashed_l2m
    }

    /// Squashed loads per squash (Table 5).
    pub fn loads_per_squash(&self) -> f64 {
        if self.squashes == 0 {
            0.0
        } else {
            self.squashed_loads() as f64 / self.squashes as f64
        }
    }

    /// Average stall per squash in cycles, split (wait, cleanup)
    /// (Figure 14).
    pub fn stall_per_squash(&self) -> (f64, f64) {
        if self.squashes == 0 {
            return (0.0, 0.0);
        }
        (
            self.squash_wait_cycles as f64 / self.squashes as f64,
            self.squash_cleanup_cycles as f64 / self.squashes as f64,
        )
    }

    /// Records one squashed load of a given class and inflight-ness.
    pub fn record_squashed_load(&mut self, class: SquashedClass, inflight: bool) {
        match class {
            SquashedClass::NotIssued => self.squashed_ni += 1,
            SquashedClass::L1Hit => self.squashed_l1h += 1,
            SquashedClass::L2Hit => self.squashed_l2h += 1,
            SquashedClass::L2Miss => self.squashed_l2m += 1,
        }
        if matches!(class, SquashedClass::L2Hit | SquashedClass::L2Miss) {
            if inflight {
                self.squashed_miss_inflight += 1;
            } else {
                self.squashed_miss_executed += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let mut s = CoreStats {
            cycles: 1000,
            committed_insts: 2000,
            committed_branches: 100,
            mispredicts: 10,
            squashes: 4,
            ..Default::default()
        };
        s.squash_wait_cycles = 80;
        s.squash_cleanup_cycles = 20;
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.squash_pki() - 2.0).abs() < 1e-12);
        assert!((s.mispredict_rate() - 0.1).abs() < 1e-12);
        assert_eq!(s.stall_per_squash(), (20.0, 5.0));
    }

    #[test]
    fn zero_denominators_are_safe() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.squash_pki(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.loads_per_squash(), 0.0);
        assert_eq!(s.stall_per_squash(), (0.0, 0.0));
    }

    #[test]
    fn cpi_stack_totals_and_iteration() {
        let mut s = CpiStack::new();
        s.charge(StallCause::Commit);
        s.charge(StallCause::Commit);
        s.charge(StallCause::LoadMem);
        assert_eq!(s.get(StallCause::Commit), 2);
        assert_eq!(s.get(StallCause::LoadMem), 1);
        assert_eq!(s.total(), 3);
        let listed: u64 = s.iter().map(|(_, n)| n).sum();
        assert_eq!(listed, 3, "iter covers every bucket");
        let mut t = CpiStack::new();
        t.charge(StallCause::CleanupInProgress);
        s.merge(&t);
        assert_eq!(s.total(), 4);
        assert!((s.cpki(StallCause::Commit, 1000) - 2.0).abs() < 1e-12);
        assert_eq!(s.cpki(StallCause::Commit, 0), 0.0, "zero insts is quiet");
    }

    #[test]
    fn stall_cause_indices_are_dense_and_names_unique() {
        let mut names = std::collections::HashSet::new();
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "ALL order must match discriminant order");
            assert!(names.insert(c.name()), "duplicate name {}", c.name());
        }
    }

    #[test]
    fn scheme_overhead_causes_are_the_cleanupspec_ones() {
        assert!(StallCause::WaitInflight.is_scheme_overhead());
        assert!(StallCause::CleanupInProgress.is_scheme_overhead());
        assert!(StallCause::TransientInvalidate.is_scheme_overhead());
        assert!(StallCause::RandomReplMiss.is_scheme_overhead());
        assert!(StallCause::SefePressure.is_scheme_overhead());
        assert!(!StallCause::Commit.is_scheme_overhead());
        assert!(!StallCause::LoadMem.is_scheme_overhead());
    }

    #[test]
    fn squashed_load_classification() {
        let mut s = CoreStats::default();
        s.record_squashed_load(SquashedClass::NotIssued, false);
        s.record_squashed_load(SquashedClass::L1Hit, false);
        s.record_squashed_load(SquashedClass::L2Hit, true);
        s.record_squashed_load(SquashedClass::L2Miss, false);
        s.squashes = 2;
        assert_eq!(s.squashed_loads(), 4);
        assert_eq!(s.loads_per_squash(), 2.0);
        assert_eq!(s.squashed_miss_inflight, 1);
        assert_eq!(s.squashed_miss_executed, 1);
    }
}
