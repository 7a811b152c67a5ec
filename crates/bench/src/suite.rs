//! The cs-bench suite as a library: run a workload×mode matrix on the
//! shared `cs-exec` executor and assemble the schema-versioned
//! [`BenchReport`].
//!
//! Every matrix cell runs through the same single-run core as a
//! [`crate::Sweep`] task (seed mixing, warmup, then the measured region),
//! with an events ring attached, so cs-bench and the figure binaries
//! measure by one protocol.
//!
//! Living in the library rather than the `cs-bench` binary lets
//! `tests/exec_invariance.rs` build the full BENCH document in-process
//! at several thread counts and assert byte-identity; the binary is a
//! thin CLI over [`run_suite`].

use crate::bench_report::{BenchReport, ModeSection};
use crate::exec::{run_indexed, run_spec_once, ExecStats};
use crate::journal::Journal;
use crate::runner::ExperimentConfig;
use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::SimReport;
use cleanupspec_obs::{MetricsRegistry, RingSink, Shared};
use cleanupspec_workloads::spec::{SpecWorkload, SPEC_WORKLOADS};
use std::path::PathBuf;
use std::time::Instant;

/// CI-sized subset: one workload per behavior class (high-MLP, memory
/// bound, squash heavy, compute bound, mixed).
pub const SMOKE_WORKLOADS: [&str; 5] = ["gcc", "mcf", "lbm", "astar", "milc"];

/// Resolves [`SMOKE_WORKLOADS`] to their Table-3 definitions.
pub fn smoke_workloads() -> Vec<SpecWorkload> {
    SPEC_WORKLOADS
        .iter()
        .filter(|w| SMOKE_WORKLOADS.contains(&w.name))
        .copied()
        .collect()
}

/// One row of a mode sweep: (workload name, report, wall seconds, events
/// recorded, events dropped).
pub type RunRow = (String, SimReport, f64, u64, u64);

/// How to run the suite matrix.
#[derive(Clone, Debug)]
pub struct SuiteOptions {
    /// Sizing (insts, seed, threads).
    pub cfg: ExperimentConfig,
    /// Modes to measure. `NonSecure` is forced in (first) as the
    /// slowdown baseline even when omitted.
    pub modes: Vec<SecurityMode>,
    /// Workloads to run.
    pub workloads: Vec<SpecWorkload>,
    /// Event-ring capacity per run.
    pub ring_capacity: usize,
    /// `--resume` directory holding the result journal. When set, every
    /// cell the journal holds is served without re-simulating and every
    /// successful fresh cell is recorded — so a killed suite rerun with
    /// the same directory produces a byte-identical document, and any
    /// later campaign reuses the cells it shares with this one.
    pub resume_dir: Option<PathBuf>,
}

impl SuiteOptions {
    /// Suite over `modes`/`workloads` with default sizing and no
    /// journal.
    pub fn new(modes: &[SecurityMode], workloads: &[SpecWorkload]) -> Self {
        SuiteOptions {
            cfg: ExperimentConfig::default(),
            modes: modes.to_vec(),
            workloads: workloads.to_vec(),
            ring_capacity: crate::cli::DEFAULT_RING_CAPACITY,
            resume_dir: None,
        }
    }
}

/// Everything [`run_suite`] produced beyond the report itself.
#[derive(Debug)]
pub struct SuiteOutcome {
    /// The schema-versioned document (host metrics already recorded).
    pub report: BenchReport,
    /// The modes actually run, baseline first.
    pub modes: Vec<SecurityMode>,
    /// Names of workloads whose simulation panicked, per mode.
    pub failed: Vec<(SecurityMode, String)>,
    /// Runs served from the result journal.
    pub served: u64,
    /// Executor counters.
    pub exec: ExecStats,
    /// Total events recorded / dropped across every ring.
    pub events: (u64, u64),
    /// End-to-end wall-clock of the sweep.
    pub wall_secs: f64,
}

/// Runs the whole matrix and assembles the [`BenchReport`].
///
/// Modes×workloads are flattened into **one** task list on the shared
/// executor (task `i` = mode `i / W`, workload `i % W`), so a slow
/// workload in one mode holds up no worker that another mode could use.
/// Rows are regrouped to `[mode][workload]` in input order, so the
/// emitted document is identical at any thread count.
pub fn run_suite(opts: &SuiteOptions) -> SuiteOutcome {
    let cfg = opts.cfg;
    let baseline_mode = SecurityMode::NonSecure;
    let mut modes = opts.modes.clone();
    modes.retain(|m| *m != baseline_mode);
    modes.insert(0, baseline_mode);
    let workloads = &opts.workloads;
    let journal = opts.resume_dir.as_deref().map(Journal::in_dir);

    let mut host = MetricsRegistry::new();
    let suite_start = Instant::now();

    // One task per matrix cell: the executor balances across the whole
    // modes×workloads matrix, not within one mode at a time. With a
    // journal, recorded cells are served from it (skipping simulation
    // entirely) and fresh completions are recorded as they land, so a
    // SIGKILL costs only the in-flight cells. A served cell did no
    // simulation, so it reports zero wall time.
    let nw = workloads.len();
    let outcome = run_indexed(modes.len() * nw, cfg.threads, |i| {
        let (mode, w) = (modes[i / nw], &workloads[i % nw]);
        let ring = Shared::new(RingSink::new(opts.ring_capacity));
        let start = Instant::now();
        let (r, served) = run_spec_once(
            w,
            mode,
            &cfg,
            journal.as_deref(),
            vec![Box::new(ring.clone())],
        );
        let wall = if served {
            0.0
        } else {
            start.elapsed().as_secs_f64()
        };
        let (rec, drop) = ring.with(|s| (s.total_recorded(), s.dropped()));
        ((w.name.to_string(), r, wall, rec, drop), served)
    });
    let failed: Vec<(SecurityMode, String)> = outcome
        .failures
        .iter()
        .map(|f| {
            (
                modes[f.index / nw],
                workloads[f.index % nw].name.to_string(),
            )
        })
        .collect();
    let (mut served, mut fresh_insts) = (0u64, 0u64);
    let mut slots = outcome.slots.into_iter();
    let mut mode_rows: Vec<Vec<RunRow>> = (0..modes.len())
        .map(|_| {
            (0..nw)
                .filter_map(|_| slots.next().flatten())
                .map(|(row, was_served)| {
                    if was_served {
                        served += 1;
                    } else {
                        fresh_insts += row.1.total_insts();
                    }
                    row
                })
                .collect()
        })
        .collect();
    let exec_stats = outcome.stats;

    for (mode, name) in &failed {
        eprintln!(
            "warning: workload {name} panicked under {} and was dropped from the sweep",
            mode.name()
        );
    }

    // Host-side accounting, in the same shape cs-bench always emitted.
    host.add("served", served);
    for (mi, mode) in modes.iter().enumerate() {
        host.add_timing(
            &format!("mode.{}", mode.name()),
            mode_rows[mi].iter().map(|(_, _, wall, _, _)| wall).sum(),
        );
    }

    // Build sections, pairing each run with its baseline *by name*: a
    // workload that survived only some modes must not shift the
    // positional alignment of everything after it.
    let mut sections: Vec<ModeSection> = Vec::new();
    let mut baseline_named: Vec<(String, SimReport)> = Vec::new();
    let (mut total_events, mut total_dropped) = (0u64, 0u64);
    for (mi, mode) in modes.iter().enumerate() {
        let mut entries = Vec::new();
        for (name, report, wall, recorded, dropped) in mode_rows[mi].drain(..) {
            total_events += recorded;
            total_dropped += dropped;
            host.add("workloads_run", 1);
            entries.push((name, report, wall));
        }
        if *mode == baseline_mode {
            baseline_named = entries
                .iter()
                .map(|(n, r, _)| (n.clone(), r.clone()))
                .collect();
        }
        let mut aligned_base = Vec::new();
        entries.retain(
            |(name, _, _)| match baseline_named.iter().find(|(bn, _)| bn == name) {
                Some((_, base)) => {
                    aligned_base.push(base.clone());
                    true
                }
                None => {
                    eprintln!(
                        "warning: dropping {name} under {}: no {} baseline to compare against",
                        mode.name(),
                        baseline_mode.name()
                    );
                    false
                }
            },
        );
        sections.push(ModeSection::build(*mode, entries, &aligned_base));
    }
    let suite_wall = suite_start.elapsed().as_secs_f64();
    host.add_timing("suite", suite_wall);
    host.add("events_recorded", total_events);
    host.add("events_dropped", total_dropped);
    host.set_gauge("ring_capacity", opts.ring_capacity as f64);
    // Throughput counts only what this process simulated: a served cell
    // contributes neither instructions nor events.
    if suite_wall > 0.0 {
        host.set_gauge("sim_kips", fresh_insts as f64 / 1000.0 / suite_wall);
        host.set_gauge("events_per_sec", total_events as f64 / suite_wall);
    }
    // The pool's own counters land in the same host section.
    exec_stats.record_into(&mut host, "exec");

    let report = BenchReport {
        insts: cfg.insts,
        seed: cfg.seed,
        baseline_mode,
        modes: sections,
        host,
    };
    SuiteOutcome {
        report,
        modes,
        failed,
        served,
        exec: exec_stats,
        events: (total_events, total_dropped),
        wall_secs: suite_wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> SuiteOptions {
        let mut opts = SuiteOptions::new(&[SecurityMode::CleanupSpec], &SPEC_WORKLOADS[..3]);
        opts.cfg = ExperimentConfig {
            insts: 2_000,
            seed: 11,
            threads: 2,
        };
        opts
    }

    #[test]
    fn baseline_is_forced_in_first() {
        let out = run_suite(&tiny_opts());
        assert_eq!(out.modes[0], SecurityMode::NonSecure);
        assert_eq!(out.report.modes.len(), 2);
        assert_eq!(out.report.modes[0].mode, SecurityMode::NonSecure);
        assert_eq!(out.report.modes[1].mode, SecurityMode::CleanupSpec);
        for section in &out.report.modes {
            assert_eq!(section.entries.len(), 3);
        }
    }

    #[test]
    fn emitted_document_passes_its_own_check() {
        let out = run_suite(&tiny_opts());
        let doc = cleanupspec_obs::JsonValue::parse(&out.report.to_json()).unwrap();
        crate::bench_report::check_document(&doc).unwrap();
    }

    #[test]
    fn exec_counters_reach_the_host_section() {
        let out = run_suite(&tiny_opts());
        // 2 modes x 3 workloads = 6 pool tasks.
        assert_eq!(out.exec.tasks_run, 6);
        assert_eq!(out.report.host.counter("exec.tasks"), 6);
        assert_eq!(out.report.host.counter("workloads_run"), 6);
    }

    #[test]
    fn served_cells_add_no_host_throughput() {
        let dir = std::env::temp_dir().join(format!(
            "cs-suite-served-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = tiny_opts();
        opts.resume_dir = Some(dir.clone());
        let first = run_suite(&opts);
        assert_eq!(first.served, 0, "an empty journal must simulate");
        let second = run_suite(&opts);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(second.served, 6, "the journal must serve every cell");
        assert_eq!(second.report.host.counter("served"), 6);
        assert_eq!(second.report.host.gauge("sim_kips"), 0.0);
        for section in &second.report.modes {
            for e in &section.entries {
                assert_eq!(e.host_kips(), 0.0, "{} {}", section.mode, e.name);
            }
        }
    }

    /// `payload` with its first counter that is a nonzero multiple of ten
    /// spelled in exponent form (`10` as `1e1`, `240` as `24e1`).
    fn respell_a_counter(payload: &str) -> String {
        let mut at = 0;
        while let Some(i) = payload[at..].find(": ") {
            let start = at + i + 2;
            let digits = payload[start..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(0);
            let value = &payload[start..start + digits];
            if let Some(tens) = value.strip_suffix('0').filter(|t| !t.is_empty()) {
                return format!(
                    "{}{tens}e1{}",
                    &payload[..start],
                    &payload[start + digits..]
                );
            }
            at = start;
        }
        panic!("no counter is a nonzero multiple of ten");
    }

    /// A journaled report that parses but does not re-serialize to its
    /// own bytes is re-simulated, never served: here one counter spelled
    /// like `1e1`, which the `f64`-backed JSON parser reads as 10 but
    /// `report_json` never writes. The fresh report is recorded in its
    /// place and served from then on.
    #[test]
    fn a_lossy_journaled_report_is_resimulated() {
        let dir = std::env::temp_dir().join(format!(
            "cs-suite-lossy-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let w = smoke_workloads()[0];
        let mut opts = SuiteOptions::new(&[], &[w]);
        opts.cfg = ExperimentConfig {
            insts: 2_000,
            seed: 11,
            threads: 1,
        };
        let fresh = run_suite(&opts);
        let payload = cleanupspec::snap::report_json(&fresh.report.modes[0].entries[0].report);
        let tampered = respell_a_counter(&payload);
        assert!(tampered != payload && tampered.contains("e1, "));
        let key = crate::runner::spec_key(&w, SecurityMode::NonSecure, &opts.cfg);
        Journal::in_dir(&dir).record(&key, &tampered);

        opts.resume_dir = Some(dir.clone());
        let rerun = run_suite(&opts);
        assert_eq!(rerun.served, 0, "the lossy report was served");
        let report = &rerun.report.modes[0].entries[0].report;
        assert_eq!(cleanupspec::snap::report_json(report), payload);
        let third = run_suite(&opts);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(third.served, 1, "the re-simulated report was not recorded");
    }

    #[test]
    fn suite_and_sweep_measure_by_one_protocol() {
        let opts = tiny_opts();
        let out = run_suite(&opts);
        let sweep = crate::Sweep::new()
            .modes(&out.modes)
            .workloads(&opts.workloads)
            .insts(opts.cfg.insts)
            .seed(opts.cfg.seed)
            .threads(opts.cfg.threads)
            .resume(None)
            .run();
        assert!(sweep.is_complete());
        for section in &out.report.modes {
            let group = sweep.mode(section.mode).expect("mode was swept");
            assert_eq!(section.entries.len(), group.runs.len());
            for e in &section.entries {
                let swept = group.report(&e.name).expect("workload was swept");
                assert_eq!(
                    cleanupspec::snap::report_json(&e.report),
                    cleanupspec::snap::report_json(swept),
                    "{} {}",
                    section.mode,
                    e.name
                );
            }
        }
    }
}
