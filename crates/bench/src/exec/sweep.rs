//! The `Sweep` builder: one front door for every mode×workload campaign.
//!
//! Every campaign — one workload under one mode up to the full
//! mode×workload matrix — is a `Sweep`:
//!
//! ```no_run
//! use cleanupspec::modes::SecurityMode;
//! use cleanupspec_bench::Sweep;
//!
//! let result = Sweep::new()
//!     .modes(&SecurityMode::MAIN)
//!     .insts(40_000)
//!     .seed(0xC1EA_2019)
//!     .threads(4)
//!     .run();
//! for mode in &result.modes {
//!     for run in &mode.runs {
//!         println!("{} {} ipc={:.3}", mode.mode.name(), run.workload.name,
//!                  run.report.ipc());
//!     }
//! }
//! ```
//!
//! The whole matrix is flattened into one task list for the
//! work-stealing pool, so a slow workload in one mode steals no time
//! from the other modes' fast workloads. Results come back grouped by
//! mode, workloads in input order, independent of scheduling.

use super::pool::{run_indexed, ExecConfig, ExecStats, PanicPolicy};
use crate::runner::{
    checkpoint_dir_from_env, checkpoint_key, load_checkpoint, store_checkpoint, warmup_insts,
    ExperimentConfig,
};
use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::{SimBuilder, SimReport};
use cleanupspec_workloads::spec::{SpecWorkload, SPEC_WORKLOADS};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where a [`Sweep`] looks for the cs-snap result cache.
#[derive(Clone, Debug, Default)]
enum CheckpointPolicy {
    /// Honor `CLEANUPSPEC_CHECKPOINT_DIR` if set (the default).
    #[default]
    FromEnv,
    /// Never read or write checkpoints, whatever the environment says.
    Disabled,
    /// Use this directory explicitly.
    Dir(PathBuf),
}

/// One completed simulation inside a sweep.
#[derive(Clone, Debug)]
pub struct SweepRun {
    /// The workload that ran.
    pub workload: SpecWorkload,
    /// The security mode it ran under.
    pub mode: SecurityMode,
    /// The simulation report.
    pub report: SimReport,
    /// Host wall-clock for this run (≈0 when served from the cache).
    pub wall_secs: f64,
    /// Whether the report came from the cs-snap cache (no simulation).
    pub from_checkpoint: bool,
}

/// One panicked run inside a sweep, identified by mode and workload.
#[derive(Clone, Debug)]
pub struct SweepFailure {
    /// The mode whose run panicked.
    pub mode: SecurityMode,
    /// Name of the workload that panicked.
    pub workload: String,
    /// Best-effort panic message.
    pub message: String,
}

/// All surviving runs of one mode, workloads in input order.
#[derive(Clone, Debug)]
pub struct ModeSweep {
    /// The mode this group ran under.
    pub mode: SecurityMode,
    /// Surviving runs, in the order the workloads were given.
    pub runs: Vec<SweepRun>,
}

impl ModeSweep {
    /// The historical `(workload, report)` pair shape most figure
    /// binaries consume.
    pub fn into_pairs(self) -> Vec<(SpecWorkload, SimReport)> {
        self.runs
            .into_iter()
            .map(|r| (r.workload, r.report))
            .collect()
    }

    /// Borrowing lookup of one workload's report by name.
    pub fn report(&self, workload: &str) -> Option<&SimReport> {
        self.runs
            .iter()
            .find(|r| r.workload.name == workload)
            .map(|r| &r.report)
    }
}

/// Everything a sweep produced: per-mode survivors, failures, skipped
/// runs, and scheduling/timing counters.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// One group per requested mode, in request order.
    pub modes: Vec<ModeSweep>,
    /// Runs that panicked (isolated; the rest of the sweep completed
    /// or was cancelled according to the panic policy).
    pub failures: Vec<SweepFailure>,
    /// Runs skipped by fail-fast cancellation, as `(mode, workload)`.
    pub skipped: Vec<(SecurityMode, String)>,
    /// Work-stealing pool counters for the whole sweep.
    pub stats: ExecStats,
    /// End-to-end wall-clock of the sweep.
    pub wall_secs: f64,
    /// Runs served from the cs-snap cache instead of simulating.
    pub cache_hits: u64,
}

impl SweepResult {
    /// Whether every requested run produced a report.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && self.skipped.is_empty()
    }

    /// The group for `mode`, if it was part of the sweep.
    pub fn mode(&self, mode: SecurityMode) -> Option<&ModeSweep> {
        self.modes.iter().find(|m| m.mode == mode)
    }

    /// Collapses a single-mode sweep into the historical pair shape.
    /// Panics if the sweep requested more than one mode.
    pub fn into_single_mode(mut self) -> Vec<(SpecWorkload, SimReport)> {
        assert!(
            self.modes.len() <= 1,
            "into_single_mode on a {}-mode sweep",
            self.modes.len()
        );
        self.modes
            .pop()
            .map(ModeSweep::into_pairs)
            .unwrap_or_default()
    }

    /// Prints the historical stderr warning for dropped workloads.
    pub fn warn_if_incomplete(&self) {
        if !self.failures.is_empty() {
            let names: Vec<String> = self
                .failures
                .iter()
                .map(|f| format!("{} ({})", f.workload, f.mode.name()))
                .collect();
            eprintln!(
                "warning: {} run(s) panicked and were dropped from the sweep: {}",
                self.failures.len(),
                names.join(", ")
            );
        }
        if !self.skipped.is_empty() {
            eprintln!(
                "warning: {} run(s) skipped by fail-fast cancellation",
                self.skipped.len()
            );
        }
    }
}

/// Builder for a mode×workload campaign on the work-stealing executor.
/// Defaults: all 19 Table-3 workloads, `NonSecure` only, sizing from
/// [`ExperimentConfig::default`] (`CLEANUPSPEC_INSTS`, seed
/// `0xC1EA_2019`, [`super::default_threads`]), checkpoints from
/// `CLEANUPSPEC_CHECKPOINT_DIR`, keep-going panic policy.
#[derive(Clone, Debug)]
pub struct Sweep {
    modes: Vec<SecurityMode>,
    workloads: Vec<SpecWorkload>,
    insts: u64,
    seed: u64,
    threads: usize,
    checkpoints: CheckpointPolicy,
    on_panic: PanicPolicy,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::new()
    }
}

impl Sweep {
    /// A sweep with the defaults above.
    pub fn new() -> Self {
        let cfg = ExperimentConfig::default();
        Sweep {
            modes: vec![SecurityMode::NonSecure],
            workloads: SPEC_WORKLOADS.to_vec(),
            insts: cfg.insts,
            seed: cfg.seed,
            threads: cfg.threads,
            checkpoints: CheckpointPolicy::FromEnv,
            on_panic: PanicPolicy::KeepGoing,
        }
    }

    /// The security modes to sweep (request order is result order).
    pub fn modes(mut self, modes: &[SecurityMode]) -> Self {
        self.modes = modes.to_vec();
        self
    }

    /// Single-mode convenience.
    pub fn mode(self, mode: SecurityMode) -> Self {
        self.modes(&[mode])
    }

    /// The workloads to sweep (input order is result order).
    pub fn workloads(mut self, workloads: &[SpecWorkload]) -> Self {
        self.workloads = workloads.to_vec();
        self
    }

    /// Committed instructions per run.
    pub fn insts(mut self, insts: u64) -> Self {
        self.insts = insts;
        self
    }

    /// Base seed, mixed per-workload with `mix_str(name)`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for the pool.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Takes insts, seed and threads from an [`ExperimentConfig`].
    pub fn config(mut self, cfg: &ExperimentConfig) -> Self {
        self.insts = cfg.insts;
        self.seed = cfg.seed;
        self.threads = cfg.threads;
        self
    }

    /// Explicit cs-snap cache directory (`None` disables caching even
    /// when `CLEANUPSPEC_CHECKPOINT_DIR` is set). Not calling this at
    /// all keeps the default env-driven behavior.
    pub fn checkpoints(mut self, dir: Option<&Path>) -> Self {
        self.checkpoints = match dir {
            Some(d) => CheckpointPolicy::Dir(d.to_path_buf()),
            None => CheckpointPolicy::Disabled,
        };
        self
    }

    /// Panic policy for the pool ([`PanicPolicy::KeepGoing`] default).
    pub fn on_panic(mut self, policy: PanicPolicy) -> Self {
        self.on_panic = policy;
        self
    }

    /// Runs the campaign. The matrix is flattened into one task list
    /// (task `i` = mode `i / W`, workload `i % W`) so the pool balances
    /// across the whole sweep, then regrouped per mode in input order.
    pub fn run(self) -> SweepResult {
        let t0 = Instant::now();
        let (nm, nw) = (self.modes.len(), self.workloads.len());
        let cfg = ExperimentConfig {
            insts: self.insts,
            seed: self.seed,
            threads: self.threads,
        };
        let dir: Option<PathBuf> = match self.checkpoints {
            CheckpointPolicy::FromEnv => checkpoint_dir_from_env(),
            CheckpointPolicy::Disabled => None,
            CheckpointPolicy::Dir(d) => Some(d),
        };
        let exec_cfg = ExecConfig {
            threads: self.threads,
            on_panic: self.on_panic,
            ..ExecConfig::default()
        };
        let (modes, workloads) = (&self.modes, &self.workloads);
        let outcome = run_indexed(nm * nw, &exec_cfg, |i| {
            let (mode, w) = (modes[i / nw], &workloads[i % nw]);
            let start = Instant::now();
            let (report, from_checkpoint) = run_spec_once(w, mode, &cfg, dir.as_deref());
            SweepRun {
                workload: *w,
                mode,
                report,
                wall_secs: start.elapsed().as_secs_f64(),
                from_checkpoint,
            }
        });

        let mut slots = outcome.slots.into_iter();
        let mut cache_hits = 0u64;
        let mode_groups: Vec<ModeSweep> = self
            .modes
            .iter()
            .map(|&mode| ModeSweep {
                mode,
                runs: (0..nw)
                    .filter_map(|_| slots.next().flatten())
                    .inspect(|r| cache_hits += u64::from(r.from_checkpoint))
                    .collect(),
            })
            .collect();
        let failures = outcome
            .failures
            .into_iter()
            .map(|f| SweepFailure {
                mode: self.modes[f.index / nw],
                workload: self.workloads[f.index % nw].name.to_string(),
                message: f.message,
            })
            .collect();
        let skipped = outcome
            .cancelled
            .into_iter()
            .map(|i| (self.modes[i / nw], self.workloads[i % nw].name.to_string()))
            .collect();
        SweepResult {
            modes: mode_groups,
            failures,
            skipped,
            stats: outcome.stats,
            wall_secs: t0.elapsed().as_secs_f64(),
            cache_hits,
        }
    }
}

/// The single-run core every sweep task executes: cs-snap cache lookup,
/// seed mixing, warmup + measure, truncation warning, cache store.
pub(crate) fn run_spec_once(
    w: &SpecWorkload,
    mode: SecurityMode,
    cfg: &ExperimentConfig,
    checkpoint_dir: Option<&Path>,
) -> (SimReport, bool) {
    let key = checkpoint_key(w, mode, cfg);
    if let Some(dir) = checkpoint_dir {
        if let Some(report) = load_checkpoint(dir, &key) {
            return (report, true);
        }
    }
    // Mix the FULL workload name into the seed: hashing only the first
    // byte made e.g. "gcc" and "gap" share a program-generation stream.
    let program = w.build(cfg.seed ^ cleanupspec_mem::rng::mix_str(w.name));
    let mut sim = SimBuilder::new(mode)
        .program(program)
        // Mix the name into the *sim* seed too: otherwise all 19 workloads
        // share one L1 random-replacement stream and one CEASER key.
        .seed(cfg.seed ^ cleanupspec_mem::rng::mix_str(w.name))
        .build();
    // Warm caches/predictor, reset statistics, then measure.
    sim.run_with_warmup(warmup_insts(cfg.insts), cfg.insts);
    let report = sim.report();
    // A truncated run (cycle-limit exhaustion, livelock) must not pose as
    // a measurement: its IPC and traffic numbers describe a different
    // experiment than the table claims.
    if let Some(stop) = report.stop.as_ref().filter(|s| !s.is_success()) {
        eprintln!(
            "warning: workload {} under {} stopped early ({stop}); report is truncated",
            w.name,
            mode.name()
        );
    }
    if let Some(dir) = checkpoint_dir {
        store_checkpoint(dir, &key, &report);
    }
    (report, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Sweep {
        Sweep::new()
            .workloads(&SPEC_WORKLOADS[..3])
            .insts(2_000)
            .seed(5)
            .threads(3)
            .checkpoints(None)
    }

    #[test]
    fn matrix_is_grouped_by_mode_with_workloads_in_input_order() {
        let modes = [SecurityMode::NonSecure, SecurityMode::CleanupSpec];
        let r = tiny().modes(&modes).run();
        assert!(r.is_complete());
        assert_eq!(r.modes.len(), 2);
        for (g, &m) in r.modes.iter().zip(&modes) {
            assert_eq!(g.mode, m);
            let names: Vec<&str> = g.runs.iter().map(|run| run.workload.name).collect();
            let want: Vec<&str> = SPEC_WORKLOADS[..3].iter().map(|w| w.name).collect();
            assert_eq!(names, want);
        }
        assert_eq!(r.stats.tasks_run, 6);
        assert_eq!(r.cache_hits, 0);
    }

    #[test]
    fn sweep_matches_the_direct_single_run_path() {
        let cfg = ExperimentConfig {
            insts: 2_000,
            seed: 5,
            threads: 1,
        };
        let r = tiny().mode(SecurityMode::CleanupSpec).run();
        let (direct, cached) =
            run_spec_once(&SPEC_WORKLOADS[1], SecurityMode::CleanupSpec, &cfg, None);
        assert!(!cached);
        let swept = r.mode(SecurityMode::CleanupSpec).unwrap().runs[1].clone();
        assert_eq!(swept.report.cycles, direct.cycles);
        assert_eq!(swept.report.traffic.total(), direct.traffic.total());
    }

    #[test]
    fn explicit_checkpoint_dir_caches_the_second_run() {
        let dir = std::env::temp_dir().join(format!(
            "cs-exec-sweep-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let sweep = || {
            Sweep::new()
                .workloads(&SPEC_WORKLOADS[..2])
                .modes(&[SecurityMode::NonSecure, SecurityMode::CleanupSpec])
                .insts(2_000)
                .seed(7)
                .threads(2)
                .checkpoints(Some(&dir))
        };
        let first = sweep().run();
        assert_eq!(first.cache_hits, 0, "cold cache must simulate");
        let second = sweep().run();
        assert_eq!(second.cache_hits, 4, "warm cache must serve every run");
        for (a, b) in first.modes.iter().zip(&second.modes) {
            for (ra, rb) in a.runs.iter().zip(&b.runs) {
                assert_eq!(ra.report.cycles, rb.report.cycles);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn thread_count_does_not_change_any_report() {
        let run_at = |threads: usize| {
            tiny()
                .modes(&[SecurityMode::NonSecure, SecurityMode::CleanupSpec])
                .threads(threads)
                .run()
        };
        let a = run_at(1);
        let b = run_at(4);
        for (ga, gb) in a.modes.iter().zip(&b.modes) {
            for (ra, rb) in ga.runs.iter().zip(&gb.runs) {
                assert_eq!(ra.report.cycles, rb.report.cycles);
                assert_eq!(ra.report.traffic.total(), rb.report.traffic.total());
            }
        }
    }
}
