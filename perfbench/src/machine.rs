//! The benchmark's own tick loop over a simulated system.
//!
//! `System::run` ticks the hierarchy and the pipelines inside one call, so
//! their host time cannot be told apart from outside. [`Machine`] holds the
//! same parts as a `System` (cloned from one, so configuration and
//! observers are identical) and repeats `System::run` step for step,
//! calling `MemHierarchy::advance` and `Pipeline::tick` itself inside
//! layer spans. The traced run is trusted only when the machine reproduces
//! the untraced run's fingerprint exactly.

use crate::prof::{span, span_calls, Layer, TimedScheme};
use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::SimReport;
use cleanupspec_core::pipeline::Pipeline;
use cleanupspec_core::scheme::SpeculationScheme;
use cleanupspec_core::stats::CoreStats;
use cleanupspec_core::system::{DiagnosticDump, RunLimits, StopReason, System};
use cleanupspec_core::DataMem;
use cleanupspec_mem::hierarchy::MemHierarchy;
use cleanupspec_mem::stats::MemStats;
use cleanupspec_mem::types::Cycle;
use cleanupspec_obs::Observer;

/// Work counts of a machine, summed over every statistics reset.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Committed instructions.
    pub insts: u64,
    /// Squashed instructions.
    pub squashed_insts: u64,
    /// Pipeline squashes.
    pub squashes: u64,
    /// Simulated core-cycles (cycles times cores).
    pub core_cycles: u64,
    /// Demand loads that hit an L1.
    pub l1_hits: u64,
    /// Demand loads of every service path.
    pub loads: u64,
    /// Demand loads serviced by DRAM.
    pub mem_loads: u64,
    /// Demand loads serviced by a remote L1.
    pub remote_hits: u64,
    /// Stores.
    pub stores: u64,
    /// GetS-Safe refusals.
    pub gets_safe_refusals: u64,
    /// Cleanup invalidations.
    pub cleanup_invals: u64,
    /// Cleanup restores.
    pub cleanup_restores: u64,
}

impl Tally {
    fn fold(&mut self, cores: &[CoreStats], mem: &MemStats) {
        for c in cores {
            self.insts += c.committed_insts;
            self.squashed_insts += c.squashed_insts;
            self.squashes += c.squashes;
        }
        self.l1_hits += mem.l1_hits;
        self.loads += mem.total_loads();
        self.mem_loads += mem.mem_loads;
        self.remote_hits += mem.remote_hits;
        self.stores += mem.stores;
        self.gets_safe_refusals += mem.gets_safe_refusals;
        self.cleanup_invals += mem.cleanup_invals;
        self.cleanup_restores += mem.cleanup_restores;
    }

    /// Field-wise `self + o`.
    pub fn plus(self, o: Tally) -> Tally {
        self.zip(o, |a, b| a + b)
    }

    /// Field-wise `self - o` (the work done between two tallies).
    pub fn minus(self, o: Tally) -> Tally {
        self.zip(o, |a, b| a - b)
    }

    fn zip(self, o: Tally, f: impl Fn(u64, u64) -> u64) -> Tally {
        Tally {
            insts: f(self.insts, o.insts),
            squashed_insts: f(self.squashed_insts, o.squashed_insts),
            squashes: f(self.squashes, o.squashes),
            core_cycles: f(self.core_cycles, o.core_cycles),
            l1_hits: f(self.l1_hits, o.l1_hits),
            loads: f(self.loads, o.loads),
            mem_loads: f(self.mem_loads, o.mem_loads),
            remote_hits: f(self.remote_hits, o.remote_hits),
            stores: f(self.stores, o.stores),
            gets_safe_refusals: f(self.gets_safe_refusals, o.gets_safe_refusals),
            cleanup_invals: f(self.cleanup_invals, o.cleanup_invals),
            cleanup_restores: f(self.cleanup_restores, o.cleanup_restores),
        }
    }
}

/// Cores, schemes, hierarchy and data memory of one simulated system,
/// ticked by the benchmark.
#[derive(Clone, Debug)]
pub struct Machine {
    cores: Vec<Pipeline>,
    schemes: Vec<Box<dyn SpeculationScheme>>,
    mem: MemHierarchy,
    dmem: DataMem,
    now: Cycle,
    last_commit_at: Cycle,
    last_committed: u64,
    measure_base: Cycle,
    last_stop: Option<StopReason>,
    /// Statistics folded in at each reset.
    folded: Tally,
}

impl Machine {
    /// Copies a freshly built (never ticked) system, wrapping every
    /// core's scheme in a [`TimedScheme`]. The copies share the system's
    /// observer.
    pub fn from_system(sys: &System) -> Self {
        assert_eq!(sys.now(), 0, "copy the system before it runs");
        let n = sys.mem().config().num_cores;
        Machine {
            cores: (0..n).map(|i| sys.core(i).clone()).collect(),
            schemes: (0..n)
                .map(|i| Box::new(TimedScheme(sys.scheme(i).boxed_clone())) as Box<_>)
                .collect(),
            mem: sys.mem().clone(),
            dmem: sys.dmem().clone(),
            now: 0,
            last_commit_at: 0,
            last_committed: 0,
            measure_base: 0,
            last_stop: None,
            folded: Tally::default(),
        }
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Attaches `obs` to the hierarchy and every pipeline, in the order
    /// `System::set_observer` does.
    pub fn set_observer(&mut self, obs: Observer) {
        self.mem.set_observer(obs.clone());
        for c in &mut self.cores {
            c.set_observer(obs.clone());
        }
    }

    /// `System::tick`.
    fn tick(&mut self) {
        self.now += 1;
        let now = self.now;
        let mem = &mut self.mem;
        span(Layer::Advance, || mem.advance(now));
        for (core, scheme) in self.cores.iter_mut().zip(self.schemes.iter_mut()) {
            let (mem, dmem) = (&mut self.mem, &mut self.dmem);
            span(Layer::Tick, || core.tick(scheme.as_mut(), mem, dmem, now));
        }
        let committed: u64 = self.cores.iter().map(|c| c.stats().committed_insts).sum();
        if committed != self.last_committed {
            self.last_committed = committed;
            self.last_commit_at = now;
        }
    }

    /// `cycles` calls of `System::tick_mem_only`, timed as one span of
    /// `cycles` hierarchy advances (the harness-cycle charge to each core
    /// is counted with them).
    pub fn drain(&mut self, cycles: Cycle) {
        let (mem, cores) = (&mut self.mem, &mut self.cores);
        let mut now = self.now;
        span_calls(Layer::Advance, cycles, || {
            for _ in 0..cycles {
                now += 1;
                mem.advance(now);
                for c in cores.iter_mut() {
                    c.note_harness_cycle();
                }
            }
        });
        self.now = now;
        self.last_commit_at = now;
    }

    /// `System::run`. A livelock carries no per-core diagnostics.
    pub fn run(&mut self, limits: RunLimits) -> StopReason {
        let stop = loop {
            if self.cores.iter().all(|c| c.halted()) {
                break StopReason::AllHalted;
            }
            if limits.max_insts_per_core != u64::MAX
                && self
                    .cores
                    .iter()
                    .all(|c| c.halted() || c.stats().committed_insts >= limits.max_insts_per_core)
            {
                break StopReason::InstLimit;
            }
            if self.now >= limits.max_cycles {
                break StopReason::CycleLimit;
            }
            if let Some(wd) = limits.watchdog {
                if self.now.saturating_sub(self.last_commit_at) >= wd {
                    break StopReason::Livelock(Box::new(DiagnosticDump {
                        at: self.now,
                        last_commit_at: self.last_commit_at,
                        watchdog: wd,
                        cores: Vec::new(),
                    }));
                }
            }
            self.tick();
        };
        let now = self.now;
        for c in &mut self.cores {
            c.stats_mut().cycles = now;
        }
        self.last_stop = Some(stop.clone());
        stop
    }

    /// `Simulator::run_insts`.
    pub fn run_insts(&mut self, n: u64) -> StopReason {
        self.run(RunLimits {
            max_cycles: 400 * n + 1_000_000,
            max_insts_per_core: n,
            ..RunLimits::default()
        })
    }

    /// `Simulator::run_measure`: clears statistics and runs `n` more
    /// instructions per core.
    pub fn run_measure(&mut self, n: u64) -> StopReason {
        let base = self.now;
        self.reset_stats();
        self.measure_base = base;
        self.run(RunLimits {
            max_cycles: base + 400 * n + 1_000_000,
            max_insts_per_core: n,
            ..RunLimits::default()
        })
    }

    /// `System::reset_stats`, folding the cleared statistics into the
    /// machine's [`Tally`] first.
    fn reset_stats(&mut self) {
        self.folded = self.tally_stats();
        for c in &mut self.cores {
            c.reset_stats();
        }
        for s in &mut self.schemes {
            s.reset_stats();
        }
        self.mem.reset_stats();
    }

    fn tally_stats(&self) -> Tally {
        let cores: Vec<CoreStats> = self.cores.iter().map(|c| c.stats().clone()).collect();
        let mut t = self.folded;
        t.fold(&cores, self.mem.stats());
        t
    }

    /// All work done so far, across statistics resets.
    pub fn tally(&self) -> Tally {
        let mut t = self.tally_stats();
        t.core_cycles = self.now * self.cores.len() as u64;
        t
    }

    /// `Simulator::report` for a run under `mode`.
    pub fn report(&self, mode: SecurityMode) -> SimReport {
        let cycles = self.now - self.measure_base;
        let cores = self
            .cores
            .iter()
            .map(|c| {
                let mut s = c.stats().clone();
                s.cycles = cycles;
                s
            })
            .collect();
        SimReport {
            mode,
            cycles,
            stop: self.last_stop.clone(),
            mem: self.mem.stats().clone(),
            traffic: self.mem.traffic().clone(),
            cores,
            scheme_counters: self
                .schemes
                .iter()
                .map(|s| {
                    s.stat_counters()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect()
                })
                .collect(),
        }
    }
}
