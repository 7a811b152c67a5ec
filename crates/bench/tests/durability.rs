//! Durability gates for the campaign runtime (PR 9 acceptance criteria):
//!
//! * every host-I/O fault class is retried, quarantined, degraded, or
//!   recovered without corrupting the journal or losing completed
//!   results — both the curated recovery matrix and a property sweep of
//!   fault classes crossed with injection sites;
//! * a campaign SIGKILLed mid-flight and rerun with `--resume` produces
//!   a byte-identical final document;
//! * a second `--resume` run is served every cell from the journal;
//! * an unwritable `--resume` directory degrades to in-memory results
//!   with a one-line diagnostic instead of failing the run.

use cleanupspec::modes::SecurityMode;
use cleanupspec_bench::journal::Journal;
use cleanupspec_bench::store::{
    ArtifactStore, DirStore, FaultFs, HostFaultKind, HostFaultPlan, StoreError,
};
use cleanupspec_bench::{canonical_json, host_fault_matrix, run_suite, SuiteOptions};
use cleanupspec_obs::JsonValue;
use cleanupspec_workloads::spec::SPEC_WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cs-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The curated recovery matrix: the CI gate for "no host fault class can
/// corrupt the journal or lose completed results".
#[test]
fn host_fault_matrix_handles_every_class() {
    let rows = host_fault_matrix(0xD15C_FA11);
    assert!(
        rows.len() >= 6,
        "matrix must cover at least 6 host fault classes, got {}",
        rows.len()
    );
    for r in &rows {
        assert!(r.fires >= 1, "{} never fired", r.kind.name());
        assert!(
            r.handled,
            "{} was not handled (recovery: {})",
            r.kind.name(),
            r.recovery
        );
    }
}

/// Property sweep: every fault class crossed with several injection
/// sites (`fire_at` walks the fault across the put payload, its sidecar,
/// and the two record appends). Two invariants,
/// regardless of where the fault lands:
///
/// 1. a restarted healthy store never serves *wrong* artifact bytes —
///    an artifact is intact, absent, or detected-and-quarantined;
/// 2. a restarted journal never replays a *wrong* payload — each task
///    is either absent (re-run) or replays exactly what was recorded.
#[test]
fn faultfs_property_sweep_over_classes_and_sites() {
    const PAYLOAD_A: &[u8] = b"{\"artifact\": \"a\"}";
    const T0: &str = "{\"verdict\": 0}";
    const T1: &str = "{\"verdict\": 1}";
    for kind in HostFaultKind::ALL {
        for fire_at in 0..4u64 {
            let dir = scratch(&format!("prop-{}-{fire_at}", kind.name()));
            let faulty = Arc::new(FaultFs::new(&dir, HostFaultPlan { kind, fire_at }));
            // Faulted phase: one artifact, one journal with two records.
            // Nothing here may panic, whatever the injector does.
            let _ = faulty.put("a.json", PAYLOAD_A);
            let j = Journal::open(Arc::clone(&faulty) as Arc<dyn ArtifactStore>);
            j.record("t0", T0);
            j.record("t1", T1);

            // Healthy restart: invariant 1.
            let clean = DirStore::new(&dir);
            match clean.get("a.json") {
                Ok(bytes) => assert_eq!(
                    bytes,
                    PAYLOAD_A,
                    "wrong artifact bytes after {} at site {fire_at}",
                    kind.name()
                ),
                Err(StoreError::NotFound(_)) | Err(StoreError::Corrupt { .. }) => {}
                Err(StoreError::Io { name, detail }) => {
                    panic!(
                        "restart read failed after {} at site {fire_at}: {name}: {detail}",
                        kind.name()
                    )
                }
            }

            // Healthy restart: invariant 2.
            let j = Journal::open(Arc::new(DirStore::new(&dir)));
            for (id, want) in [("t0", T0), ("t1", T1)] {
                if let Some(got) = j.completed(id) {
                    assert_eq!(
                        got,
                        want,
                        "journal replayed a wrong payload for {id} after {} at site {fire_at}",
                        kind.name()
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

fn cs_bench_cmd(out: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cs-bench"));
    cmd.args([
        "--modes",
        "cleanupspec",
        "--workloads",
        "gcc,mcf,lbm",
        "--insts",
        "6000",
        "--threads",
        "2",
        "--out",
    ])
    .arg(out)
    .args(extra)
    // The suite must not pick up an ambient journal or thread override:
    // the test pins its own sizing.
    .env_remove("CLEANUPSPEC_RESUME_DIR")
    .env_remove("CLEANUPSPEC_THREADS");
    cmd
}

fn canonical_doc(path: &Path) -> String {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let doc = JsonValue::parse(&text).expect("BENCH document parses");
    canonical_json(&doc)
}

/// The headline acceptance test: SIGKILL a campaign mid-flight, resume
/// it, and demand the final document be byte-identical (canonicalized —
/// host wall-clock fields are legitimately nondeterministic) to an
/// uninterrupted run's.
#[test]
fn sigkill_mid_campaign_then_resume_matches_uninterrupted_run() {
    let work = scratch("kill-resume");
    std::fs::create_dir_all(&work).unwrap();
    let baseline = work.join("baseline.json");
    let resumed = work.join("resumed.json");
    let jdir = work.join("campaign");

    // Uninterrupted reference run (no journal).
    let out = cs_bench_cmd(&baseline, &[])
        .output()
        .expect("spawn cs-bench");
    assert!(
        out.status.success(),
        "baseline run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Interrupted run: wait for the journal to hold at least one
    // completed task, then SIGKILL.
    let jdir_arg = jdir.to_string_lossy().into_owned();
    let mut child = cs_bench_cmd(&resumed, &["--resume", &jdir_arg])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn cs-bench");
    let journal_file = jdir.join("journal.csj");
    let mut killed_midway = false;
    for _ in 0..600 {
        if let Some(_status) = child.try_wait().expect("try_wait") {
            break; // Finished before we could kill it; resume still must work.
        }
        let tasks = std::fs::read_to_string(&journal_file)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if tasks >= 1 {
            child.kill().expect("SIGKILL");
            killed_midway = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let _ = child.wait();

    // Resume to completion.
    let output = cs_bench_cmd(&resumed, &["--resume", &jdir_arg])
        .output()
        .expect("spawn cs-bench");
    assert!(
        output.status.success(),
        "resumed run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    if killed_midway {
        assert!(
            stderr.contains("served from the result journal"),
            "no cells were served after a mid-flight kill: {stderr}"
        );
    }
    assert_eq!(
        canonical_doc(&baseline),
        canonical_doc(&resumed),
        "resumed document differs from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&work);
}

/// In-process double-run: the second suite over the same journal is
/// served every cell and produces a canonically identical document.
#[test]
fn second_suite_run_is_served_every_cell_from_the_journal() {
    let jdir = scratch("double-run");
    let workloads: Vec<_> = SPEC_WORKLOADS
        .iter()
        .filter(|w| w.name == "gcc" || w.name == "mcf")
        .cloned()
        .collect();
    let mut opts = SuiteOptions::new(&[SecurityMode::CleanupSpec], &workloads);
    opts.cfg.insts = 4_000;
    opts.cfg.threads = 2;
    opts.resume_dir = Some(jdir.clone());
    let first = run_suite(&opts);
    assert_eq!(first.served, 0);
    let second = run_suite(&opts);
    // 2 modes (NonSecure forced in) x 2 workloads.
    assert_eq!(second.served, 4, "second run must be served every cell");
    let a = canonical_json(&JsonValue::parse(&first.report.to_json()).unwrap());
    let b = canonical_json(&JsonValue::parse(&second.report.to_json()).unwrap());
    assert_eq!(a, b, "replayed document differs");
    let _ = std::fs::remove_dir_all(&jdir);
}

/// An unwritable `--resume` directory must not fail the run: one
/// diagnostic line, in-memory fallback, exit 0.
#[test]
fn unwritable_resume_dir_degrades_with_a_diagnostic() {
    let work = scratch("ro-resume");
    std::fs::create_dir_all(&work).unwrap();
    // A regular file where a directory is expected blocks every write
    // beneath it — works even when the test runs as root, unlike
    // permission bits.
    let blocker = work.join("blocked");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let resume = blocker.join("resume");
    let out = work.join("BENCH.json");
    let output = Command::new(env!("CARGO_BIN_EXE_cs-bench"))
        .args([
            "--modes",
            "cleanupspec",
            "--workloads",
            "gcc",
            "--insts",
            "4000",
        ])
        .args(["--threads", "2", "--out"])
        .arg(&out)
        .arg("--resume")
        .arg(&resume)
        .env_remove("CLEANUPSPEC_RESUME_DIR")
        .env_remove("CLEANUPSPEC_THREADS")
        .output()
        .expect("spawn cs-bench");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "run must succeed despite the unwritable resume dir: {stderr}"
    );
    assert!(
        stderr.contains("unwritable"),
        "expected the one-line degradation diagnostic, got: {stderr}"
    );
    assert!(out.exists(), "BENCH document must still be written");
    let _ = std::fs::remove_dir_all(&work);
}
