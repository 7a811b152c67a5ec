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
//! The whole matrix is flattened into one task list for the executor,
//! so a slow workload in one mode holds up no other mode's fast
//! workloads. Results come back grouped by mode, workloads in input
//! order, independent of scheduling. A run that panics is dropped from
//! its group and named in a stderr warning. With a `--resume` directory
//! ([`Sweep::resume`], by default `CLEANUPSPEC_RESUME_DIR`), each run's
//! report is served from the result journal when an earlier campaign
//! recorded it, and recorded there otherwise.

use super::pool::{run_indexed, ExecStats};
use crate::journal::Journal;
use crate::runner::{
    journal_payload, replay_report, resume_dir_from_env, spec_key, warmup_insts, ExperimentConfig,
};
use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::{SimBuilder, SimReport};
use cleanupspec_obs::EventSink;
use cleanupspec_workloads::spec::{SpecWorkload, SPEC_WORKLOADS};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One completed simulation inside a sweep.
#[derive(Clone, Debug)]
pub struct SweepRun {
    /// The workload that ran.
    pub workload: SpecWorkload,
    /// The security mode it ran under.
    pub mode: SecurityMode,
    /// The simulation report.
    pub report: SimReport,
    /// Host wall-clock for this run (≈0 when served from the journal).
    pub wall_secs: f64,
    /// Whether the report was served from the result journal (no
    /// simulation).
    pub served: bool,
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

/// Everything a sweep produced: per-mode survivors, failures, and
/// timing counters.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// One group per requested mode, in request order.
    pub modes: Vec<ModeSweep>,
    /// Runs that panicked (isolated; the rest of the sweep completed).
    pub failures: Vec<SweepFailure>,
    /// Executor counters for the whole sweep.
    pub stats: ExecStats,
    /// End-to-end wall-clock of the sweep.
    pub wall_secs: f64,
    /// Runs served from the result journal instead of simulating.
    pub served: u64,
}

impl SweepResult {
    /// Whether every requested run produced a report.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
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

    /// The stderr warning [`Sweep::run`] prints for panicked runs, or
    /// `None` when every run produced a report.
    fn incomplete_warning(&self) -> Option<String> {
        if self.failures.is_empty() {
            return None;
        }
        let names: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("{} ({})", f.workload, f.mode.name()))
            .collect();
        Some(format!(
            "warning: {} run(s) panicked and were dropped from the sweep: {}",
            self.failures.len(),
            names.join(", ")
        ))
    }
}

/// Builder for a mode×workload campaign on the shared executor.
/// Defaults: all 19 Table-3 workloads, `NonSecure` only, sizing from
/// [`ExperimentConfig::default`] (`CLEANUPSPEC_INSTS`, seed
/// `0xC1EA_2019`, [`super::default_threads`]), the `--resume` directory
/// from `CLEANUPSPEC_RESUME_DIR`.
#[derive(Clone, Debug)]
pub struct Sweep {
    modes: Vec<SecurityMode>,
    workloads: Vec<SpecWorkload>,
    insts: u64,
    seed: u64,
    threads: usize,
    resume: Option<PathBuf>,
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
            resume: resume_dir_from_env(),
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

    /// Worker threads for the executor.
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

    /// The `--resume` directory whose result journal serves and records
    /// this sweep's runs; `None` runs without one, whatever
    /// `CLEANUPSPEC_RESUME_DIR` says.
    pub fn resume(mut self, dir: Option<&Path>) -> Self {
        self.resume = dir.map(Path::to_path_buf);
        self
    }

    /// Runs the campaign. The matrix is flattened into one task list
    /// (task `i` = mode `i / W`, workload `i % W`) so the executor
    /// balances across the whole sweep, then regrouped per mode in input
    /// order. Panicked runs are dropped from their group, listed in
    /// [`SweepResult::failures`] and named in a stderr warning.
    pub fn run(self) -> SweepResult {
        let t0 = Instant::now();
        let (nm, nw) = (self.modes.len(), self.workloads.len());
        let cfg = ExperimentConfig {
            insts: self.insts,
            seed: self.seed,
            threads: self.threads,
        };
        let journal = self.resume.as_deref().map(Journal::in_dir);
        let (modes, workloads) = (&self.modes, &self.workloads);
        let outcome = run_indexed(nm * nw, self.threads, |i| {
            let (mode, w) = (modes[i / nw], &workloads[i % nw]);
            let start = Instant::now();
            let (report, served) = run_spec_once(w, mode, &cfg, journal.as_ref(), Vec::new());
            SweepRun {
                workload: *w,
                mode,
                report,
                wall_secs: start.elapsed().as_secs_f64(),
                served,
            }
        });

        let mut slots = outcome.slots.into_iter();
        let mut served = 0u64;
        let mode_groups: Vec<ModeSweep> = self
            .modes
            .iter()
            .map(|&mode| ModeSweep {
                mode,
                runs: (0..nw)
                    .filter_map(|_| slots.next().flatten())
                    .inspect(|r| served += u64::from(r.served))
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
        let result = SweepResult {
            modes: mode_groups,
            failures,
            stats: outcome.stats,
            wall_secs: t0.elapsed().as_secs_f64(),
            served,
        };
        if let Some(warning) = result.incomplete_warning() {
            eprintln!("{warning}");
        }
        result
    }
}

/// The single-run core of every campaign — each [`Sweep`] task and each
/// cs-bench suite cell: journal lookup by [`spec_key`], seed mixing,
/// warmup + measure with `sinks` attached, truncation warning, journal
/// record of a successful run. Returns the report and whether the journal
/// served it (no simulation, so the sinks saw no events).
pub(crate) fn run_spec_once(
    w: &SpecWorkload,
    mode: SecurityMode,
    cfg: &ExperimentConfig,
    journal: Option<&Journal>,
    sinks: Vec<Box<dyn EventSink>>,
) -> (SimReport, bool) {
    let key = spec_key(w, mode, cfg);
    if let Some(payload) = journal.and_then(|j| j.completed(&key)) {
        match replay_report(&payload, mode) {
            Ok(report) => return (report, true),
            Err(e) => eprintln!("warning: re-running {key}: journaled result unusable ({e})"),
        }
    }
    // Mix the FULL workload name into the seed: hashing only the first
    // byte made e.g. "gcc" and "gap" share a program-generation stream.
    // The sim seed gets the same mix: otherwise all 19 workloads share one
    // L1 random-replacement stream and one CEASER key.
    let seed = cfg.seed ^ cleanupspec_mem::rng::mix_str(w.name);
    let mut builder = SimBuilder::new(mode).program(w.build(seed)).seed(seed);
    for sink in sinks {
        builder = builder.sink(sink);
    }
    let mut sim = builder.build();
    // Warm caches/predictor, reset statistics, then measure.
    sim.run_with_warmup(warmup_insts(cfg.insts), cfg.insts);
    sim.finish_observer();
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
    if let (Some(j), Some(payload)) = (journal, journal_payload(&report)) {
        j.record(&key, &payload);
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
            .resume(None)
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
        assert_eq!(r.served, 0);
    }

    #[test]
    fn sweep_matches_the_direct_single_run_path() {
        let cfg = ExperimentConfig {
            insts: 2_000,
            seed: 5,
            threads: 1,
        };
        let r = tiny().mode(SecurityMode::CleanupSpec).run();
        let (direct, cached) = run_spec_once(
            &SPEC_WORKLOADS[1],
            SecurityMode::CleanupSpec,
            &cfg,
            None,
            Vec::new(),
        );
        assert!(!cached);
        let swept = r.mode(SecurityMode::CleanupSpec).unwrap().runs[1].clone();
        assert_eq!(swept.report.cycles, direct.cycles);
        assert_eq!(swept.report.traffic.total(), direct.traffic.total());
    }

    #[test]
    fn explicit_resume_dir_serves_the_second_run() {
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
                .resume(Some(&dir))
        };
        let first = sweep().run();
        assert_eq!(first.served, 0, "an empty journal must simulate");
        let second = sweep().run();
        assert_eq!(second.served, 4, "the journal must serve every run");
        for (a, b) in first.modes.iter().zip(&second.modes) {
            for (ra, rb) in a.runs.iter().zip(&b.runs) {
                assert_eq!(ra.report.cycles, rb.report.cycles);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicked_run_is_named_in_the_warning() {
        let mut result = SweepResult {
            modes: Vec::new(),
            failures: Vec::new(),
            stats: ExecStats::default(),
            wall_secs: 0.0,
            served: 0,
        };
        assert_eq!(result.incomplete_warning(), None);
        result.failures.push(SweepFailure {
            mode: SecurityMode::CleanupSpec,
            workload: "gcc".to_string(),
            message: "boom".to_string(),
        });
        assert!(!result.is_complete());
        assert_eq!(
            result.incomplete_warning().as_deref(),
            Some("warning: 1 run(s) panicked and were dropped from the sweep: gcc (cleanupspec)")
        );
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
