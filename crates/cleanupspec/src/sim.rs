//! Top-level simulator: wires programs, cores, a security mode, and the
//! memory hierarchy together, runs them, and produces a [`SimReport`].
//!
//! Also provides the *attacker's stopwatch*: [`Simulator::probe_load`] and
//! [`Simulator::flush_line`] perform real, timed cache accesses on behalf
//! of an attack's measurement phase (the Flush+Reload / Prime+Probe loops
//! of Section 6.1).

use crate::modes::SecurityMode;
use cleanupspec_core::isa::Program;
use cleanupspec_core::pipeline::CoreConfig;
use cleanupspec_core::stats::CoreStats;
use cleanupspec_core::system::{RunLimits, StopReason, System};
use cleanupspec_mem::fault::{FaultCountersSnapshot, FaultInjector, FaultPlan};
use cleanupspec_mem::hierarchy::{LoadReq, MemConfig, MemHierarchy};
use cleanupspec_mem::stats::{MemStats, MsgClass, Traffic};
use cleanupspec_mem::types::{Addr, CoreId, Cycle, LoadId};
use cleanupspec_obs::{EventSink, Observer, SimEvent};
use std::fmt;
use std::sync::Arc;

/// Builder for a [`Simulator`].
///
/// ```
/// use cleanupspec::sim::SimBuilder;
/// use cleanupspec::modes::SecurityMode;
/// use cleanupspec_core::isa::{ProgramBuilder, Reg};
///
/// let mut b = ProgramBuilder::new("quick");
/// b.movi(Reg(1), 0x1000);
/// b.load(Reg(2), Reg(1), 0);
/// b.halt();
/// let mut sim = SimBuilder::new(SecurityMode::CleanupSpec)
///     .program(b.build())
///     .build();
/// sim.run_to_completion();
/// assert!(sim.report().cycles > 0);
/// ```
pub struct SimBuilder {
    mode: SecurityMode,
    mem_cfg: MemConfig,
    core_cfg: CoreConfig,
    programs: Vec<Arc<Program>>,
    sinks: Vec<Box<dyn EventSink>>,
    fault_plan: Option<FaultPlan>,
}

impl fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimBuilder")
            .field("mode", &self.mode)
            .field("mem_cfg", &self.mem_cfg)
            .field("core_cfg", &self.core_cfg)
            .field("programs", &self.programs.len())
            .field("sinks", &self.sinks.len())
            .field("fault_plan", &self.fault_plan)
            .finish()
    }
}

impl SimBuilder {
    /// Starts a builder for the given security mode with Table-4 defaults.
    pub fn new(mode: SecurityMode) -> Self {
        SimBuilder {
            mode,
            mem_cfg: MemConfig::default(),
            core_cfg: CoreConfig::default(),
            programs: Vec::new(),
            sinks: Vec::new(),
            fault_plan: None,
        }
    }

    /// Attaches an event sink; every simulation layer (pipeline, caches,
    /// MSHRs, cleanup engine, DRAM) will emit [`cleanupspec_obs::SimEvent`]s
    /// into it. Call repeatedly to fan out to several sinks. Wrap a sink in
    /// [`cleanupspec_obs::Shared`] first if you need to read it back after
    /// the run.
    #[must_use]
    pub fn sink(mut self, sink: Box<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Adds a core running `program`.
    #[must_use]
    pub fn program(mut self, program: Program) -> Self {
        self.programs.push(Arc::new(program));
        self
    }

    /// Adds a core running a shared program handle.
    #[must_use]
    pub fn program_arc(mut self, program: Arc<Program>) -> Self {
        self.programs.push(program);
        self
    }

    /// Overrides the base memory configuration (the mode's requirements are
    /// still applied on top).
    #[must_use]
    pub fn mem_config(mut self, cfg: MemConfig) -> Self {
        self.mem_cfg = cfg;
        self
    }

    /// Overrides the core configuration.
    #[must_use]
    pub fn core_config(mut self, cfg: CoreConfig) -> Self {
        self.core_cfg = cfg;
        self
    }

    /// Sets the seed for the hierarchy's randomized structures.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.mem_cfg.seed = seed;
        self
    }

    /// Arms a deterministic fault-injection plan (cs-chaos): the hooks it
    /// names sabotage the hierarchy and cleanup engine at their scheduled
    /// opportunities. Testing infrastructure only.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builds the simulator.
    ///
    /// # Panics
    /// Panics if no program was added.
    pub fn build(self) -> Simulator {
        assert!(!self.programs.is_empty(), "add at least one program");
        let mut mem_cfg = self.mode.apply_mem_config(self.mem_cfg);
        mem_cfg.num_cores = self.programs.len();
        let mut mem = MemHierarchy::new(mem_cfg);
        if let Some(plan) = self.fault_plan {
            mem.set_fault_injector(FaultInjector::new(plan));
        }
        let schemes = self
            .programs
            .iter()
            .map(|_| self.mode.build_scheme())
            .collect();
        let mut sys = System::new(mem, self.core_cfg, schemes, self.programs);
        let obs = Observer::new(self.sinks);
        if obs.is_enabled() {
            sys.set_observer(obs.clone());
        }
        Simulator {
            sys,
            mode: self.mode,
            obs,
            probe_seq: 0,
            measure_base: 0,
            last_stop: None,
        }
    }
}

/// A runnable simulated system under one security mode.
#[derive(Debug)]
pub struct Simulator {
    sys: System,
    mode: SecurityMode,
    obs: Observer,
    probe_seq: u64,
    measure_base: Cycle,
    last_stop: Option<StopReason>,
}

impl Simulator {
    /// The active security mode.
    pub fn mode(&self) -> SecurityMode {
        self.mode
    }

    /// The event-bus observer (disabled unless sinks were attached via
    /// [`SimBuilder::sink`]).
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// Flushes every attached sink ([`EventSink::finish`]). Call once after
    /// the final run, before reading results out of shared sinks.
    pub fn finish_observer(&self) {
        self.obs.finish();
    }

    /// Runs with explicit limits.
    pub fn run(&mut self, limits: RunLimits) -> StopReason {
        let stop = self.sys.run(limits);
        self.last_stop = Some(stop.clone());
        stop
    }

    /// Runs until all cores halt (with a generous safety cycle cap).
    pub fn run_to_completion(&mut self) -> StopReason {
        self.run(RunLimits::default())
    }

    /// Runs until each core commits `n` instructions or halts.
    pub fn run_insts(&mut self, n: u64) -> StopReason {
        self.run(RunLimits {
            max_cycles: 400 * n + 1_000_000,
            max_insts_per_core: n,
            ..RunLimits::default()
        })
    }

    /// Runs `warmup` instructions, clears all statistics (caches, branch
    /// predictor, and pipeline state stay warm), then runs `measure` more
    /// instructions — the usual warm-up + region-of-interest protocol.
    ///
    /// If the *warmup* phase itself fails (cycle-limit exhaustion or a
    /// livelock), the measure phase is skipped and the warmup's stop
    /// reason is returned — and recorded in [`SimReport::stop`] — so a
    /// half-warm state is never silently measured as a completed run.
    pub fn run_with_warmup(&mut self, warmup: u64, measure: u64) -> StopReason {
        let warm_stop = self.run_insts(warmup);
        if !warm_stop.is_success() {
            return warm_stop;
        }
        self.run_measure(measure)
    }

    /// The region-of-interest half of [`Self::run_with_warmup`]: clears
    /// all statistics (caches, branch predictor, and pipeline state stay
    /// warm) and measures `measure` more instructions from here.
    ///
    /// A caller that drives the warmup phase itself (for example in timed
    /// slices) calls this directly for the measured region.
    pub fn run_measure(&mut self, measure: u64) -> StopReason {
        let base = self.sys.now();
        self.sys.reset_stats();
        self.measure_base = base;
        self.run(RunLimits {
            max_cycles: base + 400 * measure + 1_000_000,
            max_insts_per_core: measure,
            ..RunLimits::default()
        })
    }

    /// How the most recent run stopped (`None` before the first run).
    pub fn last_stop(&self) -> Option<&StopReason> {
        self.last_stop.as_ref()
    }

    /// Statistics of core `i`.
    pub fn core_stats(&self, i: usize) -> &CoreStats {
        self.sys.core_stats(i)
    }

    /// The underlying system (register inspection etc.).
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Mutable system access.
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.sys
    }

    /// The memory hierarchy.
    pub fn mem(&self) -> &MemHierarchy {
        self.sys.mem()
    }

    // ------------------------------------------------------------------
    // Attack-harness operations (the adversary's measurement phase)
    // ------------------------------------------------------------------

    /// Performs a real, timed demand load from `core` to `addr`, advancing
    /// simulated time until the data returns. Returns the observed latency
    /// in cycles — exactly what a Flush+Reload attacker's timed reload
    /// sees. The access has normal side effects (it installs the line).
    pub fn probe_load(&mut self, core: CoreId, addr: Addr) -> Cycle {
        self.probe_seq += 1;
        let line = addr.line();
        let start = self.sys.now();
        let out = loop {
            let now = self.sys.now();
            match self.sys.mem_mut().load(
                core,
                line,
                now,
                LoadReq::non_spec(LoadId(self.probe_seq)),
            ) {
                Ok(out) => break out,
                Err(_) => self.sys.advance_mem_only(1), // MSHRs busy: wait
            }
        };
        self.wait_until(out.complete_at);
        if let Some(t) = out.token {
            let _ = self.sys.mem_mut().collect(t);
        }
        out.complete_at - start
    }

    /// Flushes `addr`'s line from the whole hierarchy (the attacker's
    /// `clflush`), advancing time past the flush.
    pub fn flush_line(&mut self, core: CoreId, addr: Addr) {
        let now = self.sys.now();
        let out = self.sys.mem_mut().clflush(core, addr.line(), now);
        self.wait_until(out.complete_at);
    }

    /// Advances simulated time by `cycles` (lets pending fills land, e.g.
    /// after a program finished).
    pub fn drain(&mut self, cycles: Cycle) {
        self.sys.advance_mem_only(cycles);
    }

    /// Advances memory-only time to cycle `at` (no-op if already there).
    fn wait_until(&mut self, at: Cycle) {
        self.sys.advance_mem_only(at.saturating_sub(self.sys.now()));
    }

    // ------------------------------------------------------------------
    // cs-snap: full-state snapshot / restore
    // ------------------------------------------------------------------

    /// Captures the simulator's complete state as an in-memory
    /// [`Snapshot`]: every pipeline (ROB/LQ/SQ, registers, predictor
    /// tables), the per-core schemes, all cache arrays with coherence and
    /// dirty bits, MSHRs and SEFEs, DRAM queues, CEASER cipher keys, RNG
    /// streams, cycle counters, watchdog progress, and stats.
    ///
    /// Restoring the snapshot and running to completion is
    /// bit-exact with an uninterrupted run — the resume-exactness oracle
    /// pinned by `tests/snapshot_resume.rs`.
    pub fn snapshot(&self) -> Snapshot {
        self.obs.emit(
            self.sys.now(),
            SimEvent::SnapshotTaken { at: self.sys.now() },
        );
        Snapshot {
            sys: self.sys.clone(),
            mode: self.mode,
            probe_seq: self.probe_seq,
            measure_base: self.measure_base,
            last_stop: self.last_stop.clone(),
            fault_counters: self.sys.mem().fault_injector().counters_snapshot(),
        }
    }

    /// Rewinds this simulator to a previously captured [`Snapshot`].
    ///
    /// The snapshot is cloned, not consumed, so one checkpoint can seed
    /// many resumes (the shrinker replays many candidates from the same
    /// pre-divergence point). The simulator's current event sinks are
    /// re-attached to the restored state; call [`Self::set_sinks`] first
    /// if the resumed run must record into fresh sinks.
    ///
    /// Fault-injection counters are written back through the *shared*
    /// injector handle, so a restore rewinds fault state globally — do not
    /// interleave a restored run with the original on the same plan.
    ///
    /// # Panics
    /// Panics if the snapshot was taken under a different security mode.
    pub fn restore(&mut self, snap: &Snapshot) {
        assert_eq!(
            self.mode, snap.mode,
            "snapshot was taken under a different security mode"
        );
        self.sys = snap.sys.clone();
        self.probe_seq = snap.probe_seq;
        self.measure_base = snap.measure_base;
        self.last_stop = snap.last_stop.clone();
        self.sys
            .mem()
            .fault_injector()
            .restore_counters(&snap.fault_counters);
        if self.obs.is_enabled() {
            self.sys.set_observer(self.obs.clone());
        }
        self.obs.emit(
            self.sys.now(),
            SimEvent::SnapshotRestored { at: self.sys.now() },
        );
    }

    /// Replaces the event-bus observer with one wrapping `sinks`.
    ///
    /// Use after [`Self::restore`] when the resumed run must not
    /// double-count into the sinks the original run already filled. Pass
    /// an empty vector to detach observation entirely.
    pub fn set_sinks(&mut self, sinks: Vec<Box<dyn EventSink>>) {
        let obs = Observer::new(sinks);
        self.sys.set_observer(obs.clone());
        self.obs = obs;
    }

    /// Produces the aggregate report.
    pub fn report(&self) -> SimReport {
        let n = self.sys.mem().config().num_cores;
        let mut cores: Vec<CoreStats> = (0..n).map(|i| self.sys.core_stats(i).clone()).collect();
        let cycles = self.sys.now() - self.measure_base;
        for c in &mut cores {
            c.cycles = cycles;
        }
        let scheme_counters = (0..n)
            .map(|i| {
                self.sys
                    .scheme(i)
                    .stat_counters()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect()
            })
            .collect();
        SimReport {
            mode: self.mode,
            cycles,
            stop: self.last_stop.clone(),
            mem: self.sys.mem().stats().clone(),
            traffic: self.sys.mem().traffic().clone(),
            cores,
            scheme_counters,
        }
    }
}

/// A bit-exact, in-memory capture of a [`Simulator`]'s full state
/// (cs-snap).
///
/// Obtained from [`Simulator::snapshot`]; consumed by
/// [`Simulator::restore`], which rewinds a simulator of the same security
/// mode in place. `Clone` is a deep copy, so snapshots can be stockpiled
/// and restored freely.
#[derive(Clone, Debug)]
pub struct Snapshot {
    sys: System,
    mode: SecurityMode,
    probe_seq: u64,
    measure_base: Cycle,
    last_stop: Option<StopReason>,
    fault_counters: Option<FaultCountersSnapshot>,
}

impl Snapshot {
    /// Security mode the snapshot was taken under.
    pub fn mode(&self) -> SecurityMode {
        self.mode
    }

    /// Simulated cycle at capture time.
    pub fn now(&self) -> Cycle {
        self.sys.now()
    }
}

/// Aggregated results of one simulation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Security mode simulated.
    pub mode: SecurityMode,
    /// Total cycles.
    pub cycles: Cycle,
    /// How the most recent run stopped (`None` if the report was taken
    /// before any run). `CycleLimit` and `Livelock` mean the workload did
    /// NOT finish — consumers must not present such a report as a
    /// completed measurement.
    pub stop: Option<StopReason>,
    /// Memory-hierarchy statistics.
    pub mem: MemStats,
    /// Network-traffic counters.
    pub traffic: Traffic,
    /// Per-core statistics.
    pub cores: Vec<CoreStats>,
    /// Per-core scheme-internal counters as `(name, value)` pairs (e.g.
    /// CleanupSpec's cleanup-op tallies), from
    /// [`cleanupspec_core::scheme::SpeculationScheme::stat_counters`].
    pub scheme_counters: Vec<Vec<(String, u64)>>,
}

impl SimReport {
    /// Committed instructions across all cores.
    pub fn total_insts(&self) -> u64 {
        self.cores.iter().map(|c| c.committed_insts).sum()
    }

    /// System IPC.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_insts() as f64 / self.cycles as f64
        }
    }

    /// Execution-time slowdown of this report relative to a baseline run
    /// of the same work (cycles ratio, adjusted for committed work).
    /// Returns 0.0 when the baseline did no measurable work (zero cycles),
    /// instead of poisoning downstream JSON with inf/NaN.
    pub fn slowdown_vs(&self, baseline: &SimReport) -> f64 {
        let a = self.cycles as f64 / self.total_insts().max(1) as f64;
        let b = baseline.cycles as f64 / baseline.total_insts().max(1) as f64;
        if b == 0.0 {
            return 0.0;
        }
        a / b
    }

    /// Merged CPI stack across all cores (component sums; still sums to
    /// `cycles * cores.len()`).
    pub fn cpi_stack(&self) -> cleanupspec_core::stats::CpiStack {
        let mut total = cleanupspec_core::stats::CpiStack::new();
        for c in &self.cores {
            total.merge(&c.cpi_stack);
        }
        total
    }

    /// Network-traffic ratio vs a baseline (Figure 4b).
    pub fn traffic_vs(&self, baseline: &SimReport) -> f64 {
        self.traffic.total() as f64 / baseline.traffic.total().max(1) as f64
    }

    /// Update-load share of traffic (InvisiSpec breakdown, Figure 4b).
    pub fn traffic_share(&self, class: MsgClass) -> f64 {
        self.traffic.get(class) as f64 / self.traffic.total().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cleanupspec_core::isa::{ProgramBuilder, Reg};

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new("tiny");
        b.movi(Reg(1), 0x4000);
        b.load(Reg(2), Reg(1), 0);
        b.load(Reg(3), Reg(1), 64);
        b.halt();
        b.build()
    }

    #[test]
    fn builder_runs_single_core() {
        let mut sim = SimBuilder::new(SecurityMode::NonSecure)
            .program(tiny_program())
            .build();
        let reason = sim.run_to_completion();
        assert_eq!(reason, cleanupspec_core::system::StopReason::AllHalted);
        let r = sim.report();
        assert_eq!(r.cores.len(), 1);
        assert_eq!(r.cores[0].committed_loads, 2);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn probe_load_measures_hit_vs_miss() {
        let mut sim = SimBuilder::new(SecurityMode::NonSecure)
            .program(tiny_program())
            .build();
        sim.run_to_completion();
        let cold = sim.probe_load(CoreId(0), Addr::new(0x8000));
        let warm = sim.probe_load(CoreId(0), Addr::new(0x8000));
        assert!(
            cold > 10 * warm.max(1),
            "miss ({cold}) must dwarf hit ({warm})"
        );
    }

    #[test]
    fn flush_evicts_probed_line() {
        let mut sim = SimBuilder::new(SecurityMode::NonSecure)
            .program(tiny_program())
            .build();
        sim.run_to_completion();
        sim.probe_load(CoreId(0), Addr::new(0x9000));
        let warm = sim.probe_load(CoreId(0), Addr::new(0x9000));
        sim.flush_line(CoreId(0), Addr::new(0x9000));
        let after_flush = sim.probe_load(CoreId(0), Addr::new(0x9000));
        assert!(after_flush > warm, "flush must make the reload slow again");
    }

    #[test]
    fn modes_produce_reports_with_matching_mode() {
        for mode in [SecurityMode::NonSecure, SecurityMode::CleanupSpec] {
            let mut sim = SimBuilder::new(mode).program(tiny_program()).build();
            sim.run_to_completion();
            assert_eq!(sim.report().mode, mode);
        }
    }

    #[test]
    fn slowdown_vs_is_relative_cpi() {
        let mut a = SimBuilder::new(SecurityMode::NonSecure)
            .program(tiny_program())
            .build();
        a.run_to_completion();
        let ra = a.report();
        assert!((ra.slowdown_vs(&ra) - 1.0).abs() < 1e-9);
    }
}
