//! Integration tests for CleanupSpec's core guarantee: after a squash and
//! cleanup, the cache state is as if the wrong path never ran
//! (Section 4c), across the whole simulator stack.

//!
//! The randomized tests below derive their cases from the workspace's
//! deterministic `SplitMix64` (hermetic build).

use cleanupspec::prelude::*;
use cleanupspec_mem::rng::SplitMix64;
use cleanupspec_suite::core_sim::isa::{AluOp, BranchCond, Operand};

/// Builds a gadget with `wrong_path_loads` transient loads to the given
/// line numbers, architecturally skipped by an actually-taken branch that a
/// cold predictor mispredicts as not-taken.
fn gadget(wrong_path_lines: &[u64], trigger_line: u64) -> Program {
    let mut b = ProgramBuilder::new("gadget");
    let r_trig = Reg(2);
    let r_cond = Reg(3);
    let r_sink = Reg(5);
    let r_addr = Reg(6);
    b.movi(r_trig, trigger_line * 64);
    b.load(r_cond, r_trig, 0); // slow cold load delays resolution
    b.alu(r_cond, AluOp::Mul, Operand::Reg(r_cond), Operand::Imm(0));
    b.alu(r_cond, AluOp::Add, Operand::Reg(r_cond), Operand::Imm(1));
    let br = b.branch(r_cond, BranchCond::NotZero, 0);
    for &line in wrong_path_lines {
        b.movi(r_addr, line * 64);
        b.load(r_sink, r_addr, 0);
    }
    let skip = b.here();
    b.patch_branch(br, skip);
    b.halt();
    b.build()
}

/// A cache snapshot: (line, dirty) pairs.
type Snapshot = Vec<(LineAddr, bool)>;

/// Runs the gadget under `mode` and returns (l1 snapshot, l2 snapshot)
/// after the squash settled, excluding lines the correct path touches.
fn run_gadget(
    mode: SecurityMode,
    wrong_path_lines: &[u64],
    trigger_line: u64,
    pre_touched: &[u64],
) -> (Snapshot, Snapshot) {
    let mut sim = SimBuilder::new(mode)
        .program(gadget(wrong_path_lines, trigger_line))
        .seed(0x5eed)
        .build();
    // Pre-populate victim lines so wrong-path installs cause evictions
    // that must be restored.
    for &l in pre_touched {
        sim.probe_load(CoreId(0), Addr::new(l * 64));
    }
    sim.run(RunLimits {
        max_cycles: 200_000,
        max_insts_per_core: u64::MAX,
        ..RunLimits::default()
    });
    sim.drain(2_000);
    let correct_path: std::collections::HashSet<u64> = [trigger_line].into();
    let l1 = sim
        .mem()
        .l1_snapshot(CoreId(0))
        .into_iter()
        .filter(|(l, _, _)| !correct_path.contains(&l.raw()))
        .map(|(l, _, d)| (l, d))
        .collect();
    let l2 = sim
        .mem()
        .l2_snapshot()
        .into_iter()
        .filter(|(l, _, _)| !correct_path.contains(&l.raw()))
        .map(|(l, _, d)| (l, d))
        .collect();
    (l1, l2)
}

#[test]
fn wrong_path_lines_absent_after_cleanup() {
    let wrong: Vec<u64> = vec![0x9000, 0x9100, 0x9200];
    let (l1, l2) = run_gadget(SecurityMode::CleanupSpec, &wrong, 0x8001, &[]);
    for w in &wrong {
        assert!(
            !l1.iter().any(|(l, _)| l.raw() == *w),
            "transient line {w:#x} survived in L1"
        );
        assert!(
            !l2.iter().any(|(l, _)| l.raw() == *w),
            "transient line {w:#x} survived in L2"
        );
    }
}

#[test]
fn wrong_path_lines_present_without_cleanup() {
    let wrong: Vec<u64> = vec![0x9000, 0x9100];
    let (l1, l2) = run_gadget(SecurityMode::NonSecure, &wrong, 0x8001, &[]);
    let survived = wrong
        .iter()
        .filter(|w| {
            l1.iter().any(|(l, _)| l.raw() == **w) || l2.iter().any(|(l, _)| l.raw() == **w)
        })
        .count();
    assert!(
        survived > 0,
        "non-secure baseline must retain wrong-path installs"
    );
}

#[test]
fn evicted_victims_are_restored() {
    // Fill one L1 set with 8 victims, then a wrong-path load into the same
    // set; after cleanup every victim must still be L1-resident.
    let set = 5u64;
    let victims: Vec<u64> = (1..=8).map(|k| 0x2_0000 + set + k * 128).collect();
    let wrong = vec![0x7_0000 + set];
    let (l1, _) = run_gadget(SecurityMode::CleanupSpec, &wrong, 0x8001, &victims);
    for v in &victims {
        assert!(
            l1.iter().any(|(l, _)| l.raw() == *v),
            "victim {v:#x} was not restored"
        );
    }
}

#[test]
fn no_spec_tags_survive_a_completed_run() {
    let wrong: Vec<u64> = (0..6).map(|i| 0xA000 + i * 0x101).collect();
    let mut sim = SimBuilder::new(SecurityMode::CleanupSpec)
        .program(gadget(&wrong, 0x8001))
        .build();
    sim.run(RunLimits {
        max_cycles: 200_000,
        max_insts_per_core: u64::MAX,
        ..RunLimits::default()
    });
    sim.drain(2_000);
    for l in sim.mem().l1(CoreId(0)).iter_valid() {
        assert!(
            l.spec_owner.is_none(),
            "dangling spec tag on {} in L1",
            l.line
        );
    }
    for l in sim.mem().l2().iter_valid() {
        assert!(
            l.spec_owner.is_none(),
            "dangling spec tag on {} in L2",
            l.line
        );
    }
    sim.mem().check_invariants().unwrap();
}

/// For arbitrary wrong-path target sets, cleanup removes every transient
/// line and the hierarchy invariants hold.
#[test]
fn cleanup_removes_all_transient_lines() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0xC1EA_4B4C ^ case);
        let n = 1 + rng.below(7) as usize;
        let lines: Vec<u64> = (0..n)
            .map(|_| 0x9000 + rng.below(0xF000 - 0x9000))
            .collect();
        let (l1, l2) = run_gadget(SecurityMode::CleanupSpec, &lines, 0x8001, &[]);
        for w in &lines {
            assert!(
                !l1.iter().any(|(l, _)| l.raw() == *w),
                "case {case}: {w:#x} survived in L1"
            );
            assert!(
                !l2.iter().any(|(l, _)| l.raw() == *w),
                "case {case}: {w:#x} survived in L2"
            );
        }
    }
}

/// Several wrong-path loads aliasing into the SAME full set create
/// eviction chains (a transient install can evict an earlier transient
/// install's line, or a victim another load must restore); reverse
/// LoadID-ordered cleanup must still recover every original line
/// (Section 3.4, "Squashing Re-ordered Loads").
#[test]
fn same_set_eviction_chains_unwind() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0x5E7C_4A17 ^ case);
        let set = rng.below(128);
        let n_wrong = 1 + rng.below(5) as usize;
        let keys: Vec<u64> = (0..6).map(|_| 64 + rng.below(56)).collect();
        let victims: Vec<u64> = (1..=8).map(|k| 0x2_0000 + set + k * 128).collect();
        let wrong: Vec<u64> = keys
            .iter()
            .take(n_wrong)
            .map(|k| 0x7_0000 + set + k * 128)
            .collect();
        let trigger = 0x8001 + ((set + 1) % 128);
        let (l1, l2) = run_gadget(SecurityMode::CleanupSpec, &wrong, trigger, &victims);
        for v in &victims {
            assert!(
                l1.iter().any(|(l, _)| l.raw() == *v),
                "case {case}: victim {v:#x} missing after chained cleanup"
            );
        }
        for w in &wrong {
            assert!(!l1.iter().any(|(l, _)| l.raw() == *w), "case {case}");
            assert!(!l2.iter().any(|(l, _)| l.raw() == *w), "case {case}");
        }
    }
}

/// Pre-touched victim lines survive arbitrary transient episodes.
#[test]
fn victims_restored() {
    for case in 0..24u64 {
        let mut rng = SplitMix64::new(0x71C7_135A ^ case);
        let set = rng.below(128);
        let way_keys: Vec<u64> = (0..8).map(|_| 1 + rng.below(59)).collect();
        let wrong_off = rng.below(16);
        let victims: Vec<u64> = way_keys
            .iter()
            .enumerate()
            .map(|(i, k)| 0x2_0000 + set + (k + i as u64 * 61) * 128)
            .collect();
        let wrong = vec![0x7_0000 + set + wrong_off * 128];
        let trigger = 0x8001 + ((set + 1) % 128); // different set
        let (l1, _) = run_gadget(SecurityMode::CleanupSpec, &wrong, trigger, &victims);
        for v in &victims {
            assert!(
                l1.iter().any(|(l, _)| l.raw() == *v),
                "case {case}: victim {v:#x} missing after cleanup"
            );
        }
    }
}
