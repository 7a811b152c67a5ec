//! cs-smith integration tests: a bounded deterministic campaign must be
//! clean, and a planted undo bug (the `skip-victim-restore` fault, which
//! skips a victim restore) must be caught by the oracles and shrink to a
//! tiny repro. The CI workflow runs the full 500-seed campaign via the
//! `cs-smith` binary and the 256-seed fault campaign via `cs-chaos`;
//! these tests keep `cargo test` fast with a smaller smoke slice.

use cleanupspec_bench::chaos::{chaos_plan_verdict, run_campaign, CampaignOpts};
use cleanupspec_bench::fuzz::{shrink, SeedVerdict};
use cleanupspec_mem::fault::FaultKind;
use cleanupspec_workloads::smith::{assemble_plan, plan, SmithPlan};

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
