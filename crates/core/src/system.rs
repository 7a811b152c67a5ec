//! The system runner: one or more pipelines over a shared memory hierarchy
//! and a shared architectural data memory.

use crate::datamem::DataMem;
use crate::isa::Program;
use crate::pipeline::{CoreConfig, Pipeline};
use crate::scheme::SpeculationScheme;
use crate::stats::CoreStats;
use cleanupspec_mem::hierarchy::MemHierarchy;
use cleanupspec_mem::types::{CoreId, Cycle};
use std::sync::Arc;

/// Stop conditions for [`System::run`].
#[derive(Clone, Copy, Debug)]
pub struct RunLimits {
    /// Hard cycle budget.
    pub max_cycles: Cycle,
    /// Stop once every core has committed at least this many instructions
    /// (or halted). `u64::MAX` disables the limit.
    pub max_insts_per_core: u64,
    /// Forward-progress watchdog: if no core commits an instruction for
    /// this many cycles, the run stops with [`StopReason::Livelock`] and a
    /// diagnostic dump. `None` disables it. The default (200k cycles) is
    /// orders of magnitude above any legitimate commit gap in this model
    /// (DRAM round trips and cleanup stalls are hundreds of cycles).
    pub watchdog: Option<Cycle>,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_cycles: 50_000_000,
            max_insts_per_core: u64::MAX,
            watchdog: Some(200_000),
        }
    }
}

/// Why a run stopped.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// Every core committed `Halt`.
    AllHalted,
    /// Every core reached the instruction budget (or halted).
    InstLimit,
    /// The cycle budget expired before the workload finished — the run is
    /// incomplete, and harnesses must report it as a failure, not silently
    /// treat it like completion.
    CycleLimit,
    /// The forward-progress watchdog fired: no core committed an
    /// instruction for `RunLimits::watchdog` cycles. Carries a snapshot of
    /// where every core was stuck.
    Livelock(Box<DiagnosticDump>),
}

impl StopReason {
    /// Short stable label (verdict lines, event fields, reports).
    pub fn label(&self) -> &'static str {
        match self {
            StopReason::AllHalted => "all-halted",
            StopReason::InstLimit => "inst-limit",
            StopReason::CycleLimit => "cycle-limit",
            StopReason::Livelock(_) => "livelock",
        }
    }

    /// Whether the run ended the way a finite workload should: everything
    /// halted, or an intentional instruction budget was reached. Cycle-limit
    /// exhaustion and livelock are failures.
    pub fn is_success(&self) -> bool {
        matches!(self, StopReason::AllHalted | StopReason::InstLimit)
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Livelock(d) => write!(f, "livelock ({})", d.one_line()),
            other => f.write_str(other.label()),
        }
    }
}

/// Snapshot of per-core progress state taken when the watchdog fires.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DiagnosticDump {
    /// Cycle at which the watchdog fired.
    pub at: Cycle,
    /// Cycle of the last observed commit (on any core).
    pub last_commit_at: Cycle,
    /// The watchdog threshold that fired.
    pub watchdog: Cycle,
    /// Per-core diagnostics, one entry per core.
    pub cores: Vec<CoreDiag>,
}

/// One core's slice of a [`DiagnosticDump`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CoreDiag {
    /// Core index.
    pub core: usize,
    /// Whether the core already halted.
    pub halted: bool,
    /// Instructions committed so far.
    pub committed_insts: u64,
    /// Live ROB entries.
    pub rob_len: usize,
    /// `(seq, pc)` of the ROB head — the instruction the core is stuck
    /// behind — if the ROB is non-empty.
    pub rob_head: Option<(u64, u64)>,
    /// Loads inflight in the load queue.
    pub inflight_loads: usize,
    /// Occupied MSHR entries.
    pub mshr_occupancy: usize,
    /// Live speculation-tagged MSHR entries (pending SEFEs).
    pub pending_sefes: usize,
    /// The core's current CleanupSpec epoch.
    pub epoch: u64,
}

impl DiagnosticDump {
    /// Compact single-line form for verdicts and error strings.
    pub fn one_line(&self) -> String {
        let stuck: Vec<String> = self
            .cores
            .iter()
            .filter(|c| !c.halted)
            .map(|c| {
                format!(
                    "core{}: rob={} head={} mshr={} sefes={}",
                    c.core,
                    c.rob_len,
                    match c.rob_head {
                        Some((seq, pc)) => format!("#{seq}@pc={pc:#x}"),
                        None => "-".to_string(),
                    },
                    c.mshr_occupancy,
                    c.pending_sefes,
                )
            })
            .collect();
        format!(
            "no commit since cycle {} (watchdog {}); {}",
            self.last_commit_at,
            self.watchdog,
            stuck.join("; ")
        )
    }
}

impl std::fmt::Display for DiagnosticDump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "livelock at cycle {}: no commit since cycle {} (watchdog {} cycles)",
            self.at, self.last_commit_at, self.watchdog
        )?;
        for c in &self.cores {
            writeln!(
                f,
                "  core{} {}: committed={} rob={} head={} lq-inflight={} mshr={} sefes={} epoch={}",
                c.core,
                if c.halted { "halted" } else { "stuck" },
                c.committed_insts,
                c.rob_len,
                match c.rob_head {
                    Some((seq, pc)) => format!("#{seq}@pc={pc:#x}"),
                    None => "-".to_string(),
                },
                c.inflight_loads,
                c.mshr_occupancy,
                c.pending_sefes,
                c.epoch,
            )?;
        }
        Ok(())
    }
}

/// A complete simulated system: cores + schemes + memory.
///
/// `Clone` is the heart of cs-snap: it deep-copies every pipeline, scheme,
/// cache array, MSHR file, DRAM queue, RNG stream, and the watchdog's
/// progress markers, so a clone resumed with [`System::run`] is bit-exact
/// with the original. Two handles are intentionally *shared* with the
/// clone: the observer (sinks would double-count if duplicated) and the
/// fault injector inside the hierarchy (its counters are captured
/// separately via `FaultInjector::counters_snapshot`).
#[derive(Clone, Debug)]
pub struct System {
    cores: Vec<Pipeline>,
    schemes: Vec<Box<dyn SpeculationScheme>>,
    mem: MemHierarchy,
    dmem: DataMem,
    now: Cycle,
    /// Cycle of the last observed commit (any core) — or of the end of the
    /// last harness `advance_mem_only` phase, which also counts as forward
    /// progress. Persistent state (not a `run`-local) so that a restored
    /// snapshot carries the same watchdog gap as the uninterrupted run.
    last_commit_at: Cycle,
    /// Total committed instructions at `last_commit_at`.
    last_committed: u64,
    obs: cleanupspec_obs::Observer,
}

impl System {
    /// Builds a system. `programs` and `schemes` must have one entry per
    /// core configured in `mem`.
    ///
    /// # Panics
    /// Panics if the lengths disagree with `mem.config().num_cores`.
    pub fn new(
        mem: MemHierarchy,
        core_cfg: CoreConfig,
        schemes: Vec<Box<dyn SpeculationScheme>>,
        programs: Vec<Arc<Program>>,
    ) -> Self {
        let n = mem.config().num_cores;
        assert_eq!(programs.len(), n, "one program per core");
        assert_eq!(schemes.len(), n, "one scheme per core");
        let mut dmem = DataMem::new();
        for p in &programs {
            for (a, v) in &p.init_mem {
                dmem.write(*a, *v);
            }
        }
        let cores = programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| Pipeline::new(CoreId(i), core_cfg.clone(), p))
            .collect();
        System {
            cores,
            schemes,
            mem,
            dmem,
            now: 0,
            last_commit_at: 0,
            last_committed: 0,
            obs: cleanupspec_obs::Observer::disabled(),
        }
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Advances time and the memory system by `cycles` cycles WITHOUT
    /// ticking the cores. Harness phases (priming, probing, draining) use
    /// this so that measurement does not perturb the victim programs. The
    /// skipped core cycles are charged to the CPI stack's `Harness` bucket
    /// so the per-core stack still sums to elapsed cycles.
    ///
    /// The result is exactly that of `cycles` one-cycle calls: with the
    /// cores idle, only fills change state, so time jumps from one due
    /// fill ([`MemHierarchy::next_fill_due`]) to the next.
    pub fn advance_mem_only(&mut self, cycles: Cycle) {
        if cycles == 0 {
            return;
        }
        let end = self.now + cycles;
        while self.now < end {
            self.now = self.mem.next_fill_due().clamp(self.now + 1, end);
            self.mem.advance(self.now);
        }
        for c in &mut self.cores {
            c.note_harness_cycles(cycles);
        }
        // Harness phases (priming, probing, draining) are deliberate idle
        // time, not a livelock: keep the watchdog gap closed.
        self.last_commit_at = self.now;
    }

    /// Advances the whole system by one cycle.
    pub fn tick(&mut self) {
        self.now += 1;
        self.mem.advance(self.now);
        for (core, scheme) in self.cores.iter_mut().zip(self.schemes.iter_mut()) {
            core.tick(scheme.as_mut(), &mut self.mem, &mut self.dmem, self.now);
        }
        let committed: u64 = self.cores.iter().map(|c| c.stats().committed_insts).sum();
        if committed != self.last_committed {
            self.last_committed = committed;
            self.last_commit_at = self.now;
        }
    }

    /// Runs until a stop condition is met.
    ///
    /// The forward-progress watchdog reads the persistent
    /// `last_commit_at` marker (updated by every [`Self::tick`] /
    /// [`Self::advance_mem_only`]) rather than run-local state, so stopping a
    /// run, snapshotting, and resuming measures the same commit gap as an
    /// uninterrupted run.
    pub fn run(&mut self, limits: RunLimits) -> StopReason {
        loop {
            if self.cores.iter().all(|c| c.halted()) {
                self.stamp_cycles();
                return StopReason::AllHalted;
            }
            if limits.max_insts_per_core != u64::MAX
                && self
                    .cores
                    .iter()
                    .all(|c| c.halted() || c.stats().committed_insts >= limits.max_insts_per_core)
            {
                self.stamp_cycles();
                return StopReason::InstLimit;
            }
            if self.now >= limits.max_cycles {
                self.stamp_cycles();
                return StopReason::CycleLimit;
            }
            if let Some(wd) = limits.watchdog {
                if self.now.saturating_sub(self.last_commit_at) >= wd {
                    self.stamp_cycles();
                    let dump = self.diagnostic_dump(self.last_commit_at, wd);
                    self.emit_livelock(&dump);
                    return StopReason::Livelock(Box::new(dump));
                }
            }
            self.tick();
        }
    }

    /// Snapshot of where every core is stuck (watchdog firing).
    fn diagnostic_dump(&self, last_commit_at: Cycle, watchdog: Cycle) -> DiagnosticDump {
        let cores = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| CoreDiag {
                core: i,
                halted: c.halted(),
                committed_insts: c.stats().committed_insts,
                rob_len: c.rob_len(),
                rob_head: c.rob_head(),
                inflight_loads: c.inflight_loads(),
                mshr_occupancy: self.mem.mshr_occupancy(CoreId(i)),
                pending_sefes: self.mem.sefe_occupancy(CoreId(i)),
                epoch: u64::from(self.mem.epoch(CoreId(i)).raw()),
            })
            .collect();
        DiagnosticDump {
            at: self.now,
            last_commit_at,
            watchdog,
            cores,
        }
    }

    /// Emits one `Livelock` event per non-halted core through the event bus
    /// so trace sinks (Perfetto, JSONL, ring buffers) record the stall.
    fn emit_livelock(&self, dump: &DiagnosticDump) {
        for c in dump.cores.iter().filter(|c| !c.halted) {
            self.obs.emit(
                self.now,
                cleanupspec_obs::SimEvent::Livelock {
                    core: c.core,
                    stalled_for: dump.at - dump.last_commit_at,
                    rob: c.rob_len as u64,
                    head_pc: c.rob_head.map(|(_, pc)| pc).unwrap_or(0),
                    mshr: c.mshr_occupancy as u64,
                    sefes: c.pending_sefes as u64,
                },
            );
        }
    }

    /// Clears all statistics (end-of-warm-up) while keeping architectural
    /// and microarchitectural state.
    pub fn reset_stats(&mut self) {
        for c in &mut self.cores {
            c.reset_stats();
        }
        for s in &mut self.schemes {
            s.reset_stats();
        }
        self.mem.reset_stats();
    }

    /// Attaches the event-bus observer to the memory hierarchy and every
    /// core pipeline.
    pub fn set_observer(&mut self, obs: cleanupspec_obs::Observer) {
        self.mem.set_observer(obs.clone());
        for c in &mut self.cores {
            c.set_observer(obs.clone());
        }
        self.obs = obs;
    }

    fn stamp_cycles(&mut self) {
        let now = self.now;
        for c in &mut self.cores {
            c.stats_mut().cycles = now;
        }
    }

    /// Statistics of core `i`.
    pub fn core_stats(&self, i: usize) -> &CoreStats {
        self.cores[i].stats()
    }

    /// The pipeline of core `i` (register inspection in tests).
    pub fn core(&self, i: usize) -> &Pipeline {
        &self.cores[i]
    }

    /// Mutable pipeline access.
    pub fn core_mut(&mut self, i: usize) -> &mut Pipeline {
        &mut self.cores[i]
    }

    /// The speculation scheme driving core `i` (stat inspection).
    pub fn scheme(&self, i: usize) -> &dyn SpeculationScheme {
        self.schemes[i].as_ref()
    }

    /// Shared memory hierarchy (read-only).
    pub fn mem(&self) -> &MemHierarchy {
        &self.mem
    }

    /// Shared memory hierarchy (harness-level operations such as timed
    /// probe loads in attack measurement phases).
    pub fn mem_mut(&mut self) -> &mut MemHierarchy {
        &mut self.mem
    }

    /// Architectural data memory (read-only).
    pub fn dmem(&self) -> &DataMem {
        &self.dmem
    }

    /// Architectural data memory (harness-level initialization).
    pub fn dmem_mut(&mut self) -> &mut DataMem {
        &mut self.dmem
    }

    /// Whether every core halted.
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(|c| c.halted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{ProgramBuilder, Reg};
    use crate::scheme::{CommitAction, CommittedLoad, LoadIssue, SquashInfo, SquashResponse};
    use cleanupspec_mem::error::SimError;
    use cleanupspec_mem::hierarchy::{LoadReq, MemConfig};
    use cleanupspec_mem::types::LoadId;

    #[derive(Clone, Debug)]
    struct Plain;
    impl SpeculationScheme for Plain {
        fn name(&self) -> &'static str {
            "plain"
        }
        fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
            Box::new(self.clone())
        }
        fn issue_load(
            &mut self,
            mem: &mut MemHierarchy,
            req: LoadIssue,
        ) -> Result<cleanupspec_mem::hierarchy::LoadOutcome, SimError> {
            mem.load(req.core, req.line, req.now, LoadReq::non_spec(LoadId(0)))
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

    fn simple_program(v: u64) -> Arc<Program> {
        let mut b = ProgramBuilder::new("p");
        b.movi(Reg(1), v);
        b.halt();
        Arc::new(b.build())
    }

    #[test]
    fn two_cores_run_to_halt() {
        let mem = MemHierarchy::new(MemConfig {
            num_cores: 2,
            ..MemConfig::default()
        });
        let mut sys = System::new(
            mem,
            CoreConfig::default(),
            vec![Box::new(Plain), Box::new(Plain)],
            vec![simple_program(3), simple_program(9)],
        );
        let reason = sys.run(RunLimits::default());
        assert_eq!(reason, StopReason::AllHalted);
        assert_eq!(sys.core(0).reg(Reg(1)), 3);
        assert_eq!(sys.core(1).reg(Reg(1)), 9);
        assert!(sys.all_halted());
        assert!(sys.now() > 0);
    }

    #[test]
    fn cycle_limit_stops_infinite_loop() {
        let mut b = ProgramBuilder::new("spin");
        let top = b.here();
        b.jump(top);
        let mem = MemHierarchy::new(MemConfig::default());
        let mut sys = System::new(
            mem,
            CoreConfig::default(),
            vec![Box::new(Plain)],
            vec![Arc::new(b.build())],
        );
        let reason = sys.run(RunLimits {
            max_cycles: 500,
            ..RunLimits::default()
        });
        assert_eq!(reason, StopReason::CycleLimit);
        assert_eq!(sys.core_stats(0).cycles, 500);
    }

    #[test]
    fn inst_limit_stops_long_program() {
        let mut b = ProgramBuilder::new("count");
        b.movi(Reg(1), 1_000_000);
        let top = b.here();
        b.alu(
            Reg(1),
            crate::isa::AluOp::Sub,
            crate::isa::Operand::Reg(Reg(1)),
            crate::isa::Operand::Imm(1),
        );
        b.branch(Reg(1), crate::isa::BranchCond::NotZero, top);
        b.halt();
        let mem = MemHierarchy::new(MemConfig::default());
        let mut sys = System::new(
            mem,
            CoreConfig::default(),
            vec![Box::new(Plain)],
            vec![Arc::new(b.build())],
        );
        let reason = sys.run(RunLimits {
            max_cycles: 10_000_000,
            max_insts_per_core: 5_000,
            ..RunLimits::default()
        });
        assert_eq!(reason, StopReason::InstLimit);
        assert!(sys.core_stats(0).committed_insts >= 5_000);
    }
}
