//! cs-smith integration tests: a bounded deterministic campaign must be
//! clean, and a planted undo bug (the `skip-victim-restore` fault, which
//! skips a victim restore) must be caught by the oracles and shrink to a
//! tiny repro. The CI workflow runs the full 500-seed campaign via the
//! `cs-smith` binary and the 256-seed fault campaign via `cs-chaos`;
//! these tests keep `cargo test` fast with a smaller smoke slice.

use cleanupspec::modes::SecurityMode;
use cleanupspec_bench::chaos::{chaos_plan_verdict, run_campaign, CampaignOpts};
use cleanupspec_bench::fuzz::{exec_env, run_plan, shrink, ExecEnv, SeedVerdict, FUZZ_MODES};
use cleanupspec_bench::target::Target;
use cleanupspec_core::isa::Program;
use cleanupspec_mem::fault::FaultKind;
use cleanupspec_obs::{EpisodeBuilder, JsonValue, Shared};
use cleanupspec_workloads::smith::{assemble_plan, plan, SmithPlan};
use std::sync::Arc;

#[test]
fn bounded_campaign_is_clean_and_exercises_squashes() {
    let r = run_campaign(&CampaignOpts {
        start: 0,
        count: 32,
        threads: 4,
        ..CampaignOpts::default()
    });
    assert!(
        r.clean(),
        "differential campaign found violations: {:?}",
        r.violations
    );
    assert!(
        r.squashes > 0,
        "campaign observed no squashes — the fuzzer is vacuous"
    );
}

/// The fault campaign's verdict for one plan with victim restores skipped.
fn skip_restore_verdict(p: &SmithPlan) -> SeedVerdict {
    chaos_plan_verdict(p, Some(FaultKind::SkipVictimRestore))
}

/// Regression for the planted-bug acceptance criterion: with CleanupSpec's
/// undo made to skip victim restores, the oracles must flag a seed within
/// a small scan, and the greedy shrinker must minimize it to a replay of
/// at most 20 instructions that still fails.
#[test]
fn sabotaged_restore_is_caught_and_shrinks_small() {
    let seed = (0..64)
        .find(|&s| !skip_restore_verdict(&plan(s)).passed())
        .expect("skip-victim-restore survived 64 seeds — oracles are toothless");

    let min = shrink(&plan(seed), |cand| !skip_restore_verdict(cand).passed());
    let insts: usize = assemble_plan(&min).iter().map(|p| p.len()).sum();
    assert!(
        insts <= 20,
        "shrunk repro has {insts} instructions (want <= 20): {:?}",
        min.ops
    );
    match skip_restore_verdict(&min) {
        SeedVerdict::Fail(vs) => {
            assert!(
                vs.iter().any(|v| v.oracle.contains("episode")
                    || v.oracle.contains("restoration")
                    || v.oracle.contains("cache")),
                "shrunk repro fails, but not on a cache/episode oracle: {vs:?}"
            );
        }
        SeedVerdict::Pass { .. } => panic!("shrunk repro no longer fails"),
    }

    // The same minimized plan must pass with the real (fault-free)
    // CleanupSpec undo: the repro isolates the planted bug, nothing else.
    assert!(
        cleanupspec_bench::fuzz::run_plan(&min).passed(),
        "minimized repro fails even without the fault"
    );
}

/// `cs-smith` and a fault-free `cs-chaos` campaign key each seed's verdict
/// the same way, so one is served the seeds the other ran in the same
/// `--resume` directory, and its stdout is that of a fresh run.
#[test]
fn smith_and_chaos_campaigns_share_journaled_verdicts() {
    let dir = std::env::temp_dir().join(format!("cs-smith-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = |bin: &str, seeds: &str, resume: bool| {
        let mut cmd = std::process::Command::new(bin);
        cmd.args(["--seeds", seeds, "--start", "0"]);
        if resume {
            cmd.arg("--resume").arg(&dir);
        }
        let out = cmd
            .env("CLEANUPSPEC_THREADS", "2")
            .output()
            .expect("spawn campaign");
        assert!(out.status.success(), "{bin} failed: {out:?}");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let smith = env!("CARGO_BIN_EXE_cs-smith");
    let chaos = env!("CARGO_BIN_EXE_cs-chaos");
    run(smith, "6", true);
    let (stdout, stderr) = run(chaos, "10", true);
    assert!(
        stderr.contains("6 of 10 seed(s) served from the result journal"),
        "{stderr}"
    );
    assert_eq!(stdout, run(chaos, "10", false).0);
    let (_, stderr) = run(smith, "10", true);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        stderr.contains("10 of 10 seed(s) served from the result journal"),
        "{stderr}"
    );
}

/// Seeds a `smith:` trace must agree on with cs-smith: a clean one, the
/// ledger's first CleanupSpec `double-undo` and `transient-install-l1`
/// findings, and its first NaiveInvalidate surviving install.
const AGREEMENT_SEEDS: [u64; 4] = [0x9, 0x42e, 0x119d, 0x44b];

/// `smith:<seed>` under every fuzzed scheme runs the system cs-smith
/// judges: its ledger finds exactly the leaks of `fuzz::exec_env`, down to
/// core, episode, line and kind.
#[test]
fn smith_targets_replay_the_runs_cs_smith_judges() {
    for seed in AGREEMENT_SEEDS {
        let target = Target::resolve(&format!("smith:{seed:#x}"), None, None, None).unwrap();
        let progs: Vec<Arc<Program>> = assemble_plan(&plan(seed))
            .into_iter()
            .map(Arc::new)
            .collect();
        for mode in FUZZ_MODES {
            let ledger = Shared::new(EpisodeBuilder::new());
            target.run(mode, vec![Box::new(ledger.clone())]);
            let traced = ledger.with(|l| l.report()).leaks;
            let judged = exec_env(&progs, mode, seed, &ExecEnv::default())
                .episodes
                .leaks;
            assert_eq!(traced, judged, "seed {seed:#x} under {}", mode.name());
        }
    }
}

/// `cs-report smith:<seed> --mode cleanupspec` reaches the verdict of
/// cs-smith's episode oracle and names the same first leak: BALANCED on
/// 0x9 and 0x44b, the double-undo and transient install of ROADMAP item
/// 1 on 0x42e and 0x119d.
#[test]
fn cs_report_verdict_matches_the_episode_oracle() {
    let cleanupspec = SecurityMode::CleanupSpec.name();
    let expected = [
        None,
        Some("double-undo"),
        Some("transient-install-l1"),
        None,
    ];
    for (seed, want) in AGREEMENT_SEEDS.into_iter().zip(expected) {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cs-report"))
            .args([&format!("smith:{seed:#x}"), "--mode", cleanupspec, "--json"])
            .output()
            .expect("spawn cs-report");
        assert!(out.status.success(), "cs-report failed: {out:?}");
        let doc = JsonValue::parse(&String::from_utf8_lossy(&out.stdout)).unwrap();
        let report = &doc.get("modes").and_then(JsonValue::as_arr).unwrap()[0];
        let verdict = report.get("verdict").and_then(JsonValue::as_str).unwrap();
        let first_leak = report
            .get("leaks")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .first();
        let reported = first_leak.map(|l| l.get("kind").and_then(JsonValue::as_str).unwrap());
        assert_eq!(verdict == "leaky", reported.is_some(), "seed {seed:#x}");

        let oracle = match run_plan(&plan(seed)) {
            SeedVerdict::Pass { .. } => None,
            SeedVerdict::Fail(vs) => vs
                .into_iter()
                .find(|v| v.scheme == cleanupspec && v.oracle == "episode"),
        };
        let judged = oracle.map(|v| v.detail.rsplit_once(": ").unwrap().1.to_string());
        assert_eq!(reported, judged.as_deref(), "seed {seed:#x}");
        assert_eq!(reported, want, "seed {seed:#x}");
    }
}

/// `cs-report` refuses a capture of the retired `cs-events-v2` schema,
/// which still had the `snapshot-*` kinds, and names the schema it reads.
#[test]
fn cs_report_refuses_a_v2_capture() {
    let path = std::env::temp_dir().join(format!("cs-events-v2-{}.jsonl", std::process::id()));
    std::fs::write(&path, "{\"schema\": \"cs-events-v2\"}\n").expect("write capture");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cs-report"))
        .arg(&path)
        .output()
        .expect("spawn cs-report");
    let _ = std::fs::remove_file(&path);
    assert!(
        !out.status.success(),
        "cs-report accepted a v2 capture: {out:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cs-events-v3"), "{stderr}");
}
