//! Experiment sizing and the served-result key of one spec run.
//! Campaigns run through the [`crate::exec::Sweep`] builder.

use crate::exec;
use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::SimReport;
use cleanupspec::snap;
use cleanupspec_core::system::StopReason;
use cleanupspec_obs::JsonValue;
use cleanupspec_workloads::spec::SpecWorkload;
use std::path::PathBuf;

/// Committed instructions per workload when `CLEANUPSPEC_INSTS` is unset.
pub const DEFAULT_INSTS: u64 = 300_000;

/// Experiment sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Committed instructions simulated per workload (the paper runs 500M
    /// on gem5; the default here keeps a full 19-workload sweep under a
    /// minute while past the warm-up regime).
    pub insts: u64,
    /// Base seed.
    pub seed: u64,
    /// Worker threads for the sweep.
    pub threads: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            insts: std::env::var("CLEANUPSPEC_INSTS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(DEFAULT_INSTS),
            seed: 0xC1EA_2019,
            // One shared default across every harness: CLEANUPSPEC_THREADS
            // env override, else available parallelism, else 4.
            threads: exec::default_threads(),
        }
    }
}

/// Warmup sizing shared by every harness: a quarter of the measured
/// region, floored at 10k so tiny runs still warm the predictor, capped
/// at 100k so huge runs don't over-warm — but never MORE than a quarter
/// of the run, so `--insts 4000` does not warm 10k and measure 4k from
/// a fully-primed state the real sweep never sees.
pub fn warmup_insts(insts: u64) -> u64 {
    (insts / 4).clamp(10_000, 100_000).min(insts / 4)
}

/// The `--resume` directory from `CLEANUPSPEC_RESUME_DIR`: the default
/// of every [`crate::Sweep`] and of `cs-bench --resume`. Figure binaries
/// spawned by `repro_all --resume` inherit it.
pub fn resume_dir_from_env() -> Option<PathBuf> {
    std::env::var_os("CLEANUPSPEC_RESUME_DIR")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// The journal id of one spec run: everything that determines its report
/// (workload, mode, measured and warmup instructions, base seed in full
/// decimal) plus the report format, so a journaled report is only ever
/// served to a run that would reproduce it.
pub(crate) fn spec_key(w: &SpecWorkload, mode: SecurityMode, cfg: &ExperimentConfig) -> String {
    format!(
        "{}/{}/{}/i{}/s{}/w{}",
        snap::FORMAT,
        w.name,
        mode.name(),
        cfg.insts,
        cfg.seed,
        warmup_insts(cfg.insts)
    )
}

/// The journal payload of a finished spec run: its canonical
/// [`snap::report_json`], or `None` when the run did not finish
/// successfully. A cycle-limit or livelock stop (or no stop at all) is a
/// failure to re-run, never a result to serve.
pub(crate) fn journal_payload(report: &SimReport) -> Option<String> {
    report
        .stop
        .as_ref()
        .is_some_and(StopReason::is_success)
        .then(|| snap::report_json(report))
}

/// Parses a journaled spec report for `mode`. It is served only if it
/// re-serializes to exactly the journaled bytes: a payload the parser
/// reads lossily (say, a counter spelled `1e1`, which the `f64`-backed
/// parser accepts but [`snap::report_json`] never writes) is refused, and
/// the caller re-runs the task.
pub(crate) fn replay_report(payload: &str, mode: SecurityMode) -> Result<SimReport, String> {
    let report = JsonValue::parse(payload).and_then(|v| snap::parse_report(&v))?;
    if report.mode != mode {
        return Err(format!("report is for mode {}", report.mode.name()));
    }
    if snap::report_json(&report) != payload {
        return Err("report does not re-serialize to its journaled bytes".to_string());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use crate::store::DirStore;
    use std::sync::Arc;

    #[test]
    fn quick_run_produces_consistent_reports() {
        let cfg = ExperimentConfig {
            insts: 5_000,
            seed: 1,
            threads: 4,
        };
        let w = cleanupspec_workloads::spec::spec_workload("gcc").unwrap();
        let r = crate::exec::run_spec_once(&w, SecurityMode::NonSecure, &cfg, None, Vec::new()).0;
        assert!(r.cores[0].committed_insts >= 5_000);
        assert!(r.cycles > 0);
    }

    #[test]
    fn warmup_never_exceeds_quarter_of_measured_region() {
        // The historical clamp `(insts / 4).clamp(10_000, 100_000)` warmed
        // 10k insts even for a 4k-inst run, so small sweeps measured from
        // a cache state the headline sweep never reaches.
        assert_eq!(warmup_insts(4_000), 1_000);
        assert_eq!(warmup_insts(40_000), 10_000);
        assert_eq!(warmup_insts(DEFAULT_INSTS), 75_000);
        assert_eq!(warmup_insts(1_000_000), 100_000);
        for insts in [0, 1, 4_000, 39_999, 40_000, 400_000, 4_000_000] {
            assert!(warmup_insts(insts) <= insts / 4, "insts={insts}");
        }
    }

    /// A fresh per-test scratch directory.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cs-runner-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn gcc() -> SpecWorkload {
        cleanupspec_workloads::spec::spec_workload("gcc").unwrap()
    }

    #[test]
    fn journal_serves_a_recorded_run_and_skips_resimulation() {
        let dir = scratch("served");
        let cfg = ExperimentConfig {
            insts: 3_000,
            seed: 9,
            threads: 1,
        };
        let w = gcc();
        let run = |cfg: &ExperimentConfig, mode| {
            let journal = Journal::in_dir(&dir);
            crate::exec::run_spec_once(&w, mode, cfg, Some(&journal), Vec::new())
        };
        let (fresh, served) = run(&cfg, SecurityMode::CleanupSpec);
        assert!(!served, "first run must simulate");
        let (replayed, served) = run(&cfg, SecurityMode::CleanupSpec);
        assert!(served, "second run must be served from the journal");
        assert_eq!(snap::report_json(&fresh), snap::report_json(&replayed));
        // Any other seed, insts or mode is another key: no false sharing.
        for (other, mode) in [
            (
                ExperimentConfig { seed: 10, ..cfg },
                SecurityMode::CleanupSpec,
            ),
            (
                ExperimentConfig {
                    insts: 3_001,
                    ..cfg
                },
                SecurityMode::CleanupSpec,
            ),
            (cfg, SecurityMode::NonSecure),
        ] {
            assert!(!run(&other, mode).1, "{other:?} {mode} was served");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_result_determining_knob_is_in_the_spec_key() {
        let cfg = ExperimentConfig {
            insts: 40_000,
            seed: 7,
            threads: 1,
        };
        let key = spec_key(&gcc(), SecurityMode::CleanupSpec, &cfg);
        assert_eq!(
            key,
            format!("{}/gcc/cleanupspec/i40000/s7/w10000", snap::FORMAT)
        );
        let mcf = cleanupspec_workloads::spec::spec_workload("mcf").unwrap();
        let others = [
            spec_key(&mcf, SecurityMode::CleanupSpec, &cfg),
            spec_key(&gcc(), SecurityMode::NonSecure, &cfg),
            spec_key(
                &gcc(),
                SecurityMode::CleanupSpec,
                &ExperimentConfig { seed: 8, ..cfg },
            ),
            // 80k insts also moves the warmup to 20k.
            spec_key(
                &gcc(),
                SecurityMode::CleanupSpec,
                &ExperimentConfig {
                    insts: 80_000,
                    ..cfg
                },
            ),
        ];
        for other in others {
            assert_ne!(key, other);
        }
        // Threads never change a result, so they are not in the key.
        let wide = ExperimentConfig { threads: 8, ..cfg };
        assert_eq!(key, spec_key(&gcc(), SecurityMode::CleanupSpec, &wide));
    }

    /// Seeds above 2^53 are not representable in the journal parser's
    /// f64 numbers; the key spells the seed in full decimal, so the
    /// largest seed is served back and its neighbour is not.
    #[test]
    fn a_full_range_seed_key_round_trips() {
        let dir = scratch("full-range");
        let cfg = ExperimentConfig {
            insts: 3_000,
            seed: u64::MAX,
            threads: 1,
        };
        let key = spec_key(&gcc(), SecurityMode::NonSecure, &cfg);
        assert!(key.contains("/s18446744073709551615/"), "{key}");
        let journal = Journal::in_dir(&dir);
        let (fresh, served) = crate::exec::run_spec_once(
            &gcc(),
            SecurityMode::NonSecure,
            &cfg,
            Some(&journal),
            Vec::new(),
        );
        assert!(!served);
        let reopened = Journal::open(Arc::new(DirStore::new(&dir)));
        assert_eq!(reopened.completed(&key), Some(snap::report_json(&fresh)));
        let near = ExperimentConfig {
            seed: u64::MAX - 1,
            ..cfg
        };
        let near_key = spec_key(&gcc(), SecurityMode::NonSecure, &near);
        assert_eq!(reopened.completed(&near_key), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsuccessful_runs_are_not_recorded() {
        let cfg = ExperimentConfig {
            insts: 3_000,
            seed: 3,
            threads: 1,
        };
        let mut r =
            crate::exec::run_spec_once(&gcc(), SecurityMode::NonSecure, &cfg, None, Vec::new()).0;
        assert_eq!(journal_payload(&r), Some(snap::report_json(&r)));
        r.stop = Some(StopReason::CycleLimit);
        assert_eq!(journal_payload(&r), None);
        r.stop = None;
        assert_eq!(journal_payload(&r), None);
    }

    #[test]
    fn a_replayed_report_must_match_its_key_and_its_bytes() {
        let cfg = ExperimentConfig {
            insts: 3_000,
            seed: 4,
            threads: 1,
        };
        let r =
            crate::exec::run_spec_once(&gcc(), SecurityMode::CleanupSpec, &cfg, None, Vec::new()).0;
        let payload = snap::report_json(&r);
        let back = replay_report(&payload, SecurityMode::CleanupSpec).expect("own bytes replay");
        assert_eq!(snap::report_json(&back), payload);
        assert!(replay_report(&payload, SecurityMode::NonSecure).is_err());
        // Same numbers, other spelling: parses, but is not served.
        let cycles = format!("\"cycles\": {}", r.cycles);
        let respelled = payload.replacen(&cycles, &format!("{cycles}.0"), 1);
        assert_ne!(respelled, payload);
        assert!(replay_report(&respelled, SecurityMode::CleanupSpec).is_err());
        assert!(replay_report("{\"mode\": \"cleanupspec\"}", SecurityMode::CleanupSpec).is_err());
    }

    #[test]
    fn determinism_same_seed_same_cycles() {
        let cfg = ExperimentConfig {
            insts: 5_000,
            seed: 77,
            threads: 1,
        };
        let w = cleanupspec_workloads::spec::spec_workload("astar").unwrap();
        let a = crate::exec::run_spec_once(&w, SecurityMode::CleanupSpec, &cfg, None, Vec::new()).0;
        let b = crate::exec::run_spec_once(&w, SecurityMode::CleanupSpec, &cfg, None, Vec::new()).0;
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.traffic.total(), b.traffic.total());
    }
}
