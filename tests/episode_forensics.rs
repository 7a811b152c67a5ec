//! Episode-reconstruction integration tests: the [`EpisodeBuilder`] must
//! produce faithful, internally consistent episode records from *real*
//! simulator runs — including the awkward timelines: back-to-back
//! squashes, runs truncated mid-cleanup by `max_cycles`, livelocked runs,
//! and a run cloned between episodes.
//!
//! The unit tests in `crates/obs/src/episode.rs` pin the ledger rules on
//! hand-written event sequences; these tests pin that the full pipeline →
//! hierarchy → scheme event stream actually satisfies those rules.

use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::{SimBuilder, Simulator};
use cleanupspec_core::isa::{AluOp, BranchCond, Operand, Program, ProgramBuilder, Reg};
use cleanupspec_core::system::{RunLimits, StopReason};
use cleanupspec_mem::fault::{FaultKind, FaultPlan};
use cleanupspec_mem::hierarchy::MemConfig;
use cleanupspec_obs::{EpisodeBuilder, EpisodeReport, EventSink, RingSink, Shared, SimEvent};
use cleanupspec_workloads::micro::mispredict_storm;

const LIMITS: RunLimits = RunLimits {
    max_cycles: 500_000,
    max_insts_per_core: u64::MAX,
    watchdog: None,
};

/// Spectre-style gadget: a slow cold load delays branch resolution long
/// enough for the wrong-path loads to fill the caches before the squash.
fn gadget(wrong_path_lines: &[u64], trigger_line: u64) -> Program {
    let mut b = ProgramBuilder::new("episode_gadget");
    let r_trig = Reg(2);
    let r_cond = Reg(3);
    let r_sink = Reg(5);
    let r_addr = Reg(6);
    b.movi(r_trig, trigger_line * 64);
    b.load(r_cond, r_trig, 0);
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

/// Builds a CleanupSpec sim for `prog` with an episode builder (and ring)
/// attached.
fn instrumented(prog: Program, seed: u64) -> (Simulator, Shared<EpisodeBuilder>, Shared<RingSink>) {
    let episodes = Shared::new(EpisodeBuilder::new());
    let ring = Shared::new(RingSink::new(200_000));
    let sim = SimBuilder::new(SecurityMode::CleanupSpec)
        .program(prog)
        .seed(seed)
        .sink(Box::new(episodes.clone()))
        .sink(Box::new(ring.clone()))
        .build();
    (sim, episodes, ring)
}

/// Structural invariants every honest report satisfies, whatever the
/// timeline looked like: closed episodes span forward in time, counters
/// imply their prerequisites, and every attributed leak points at a
/// reconstructed episode.
fn check_consistency(r: &EpisodeReport) {
    for e in &r.episodes {
        assert!(e.squashes >= 1, "episode with no squash: {e:?}");
        if e.closed {
            assert!(e.end >= e.start, "closed episode runs backwards: {e:?}");
        }
        assert!(
            e.loads_issued <= e.loads,
            "more issued squashed loads than squashed loads: {e:?}"
        );
    }
    for l in &r.leaks {
        if l.episode != 0 {
            assert!(
                r.episodes
                    .iter()
                    .any(|e| e.core == l.core && e.id == l.episode),
                "leak attributed to an episode that was never reconstructed: {l}"
            );
        }
    }
}

#[test]
fn spectre_gadget_yields_one_balanced_episode() {
    let wrong = [0x9000, 0x9100, 0x9200];
    let (mut sim, episodes, ring) = instrumented(gadget(&wrong, 0x8001), 0x5eed);
    let stop = sim.run(LIMITS);
    assert_eq!(stop, StopReason::AllHalted);
    sim.drain(2_000);
    sim.finish_observer();

    let report = episodes.with(|e| e.report());
    check_consistency(&report);
    assert!(
        report.clean(),
        "CleanupSpec gadget run must balance: {report}"
    );
    assert_eq!(report.open_episodes(), 0);
    assert!(
        !report.episodes.is_empty(),
        "the squash must open an episode"
    );
    let e = &report.episodes[0];
    assert!(
        e.loads >= wrong.len() as u64,
        "all wrong-path loads recorded"
    );
    assert!(e.duration() > 0);
    assert!(
        e.invals + e.dropped_fills > 0,
        "cleanup must have undone the transient fills somehow: {e:?}"
    );

    // Live reconstruction == offline replay of the same event stream:
    // cs-report's trace-vs-direct byte-identity rests on this.
    let mut offline = EpisodeBuilder::new();
    ring.with(|r| {
        for rec in r.to_vec() {
            offline.record(rec.cycle, &rec.event);
        }
    });
    assert_eq!(offline.report(), report);

    // Every cleanup-related event in the trace is episode-tagged, and the
    // tag resolves to a reconstructed episode.
    ring.with(|r| {
        for rec in r.to_vec() {
            if let Some(id) = rec.event.episode() {
                if matches!(
                    rec.event,
                    SimEvent::Squash { .. }
                        | SimEvent::CleanupStart { .. }
                        | SimEvent::CleanupEnd { .. }
                        | SimEvent::CleanupInval { .. }
                        | SimEvent::CleanupRestore { .. }
                ) {
                    assert!(
                        report.episodes.iter().any(|e| e.id == id),
                        "event {:?} tagged with unreconstructed episode {id}",
                        rec.event
                    );
                }
            }
        }
    });
}

#[test]
fn back_to_back_squashes_reconstruct_disjoint_episodes() {
    let (mut sim, episodes, _ring) = instrumented(mispredict_storm(400, 3, 7), 0xA11);
    let stop = sim.run(LIMITS);
    assert_eq!(stop, StopReason::AllHalted);
    sim.drain(2_000);
    sim.finish_observer();

    let report = episodes.with(|e| e.report());
    check_consistency(&report);
    assert!(report.clean(), "storm run must balance: {report}");
    assert_eq!(report.open_episodes(), 0);
    assert!(
        report.episodes.len() >= 10,
        "a 400-iteration mispredict storm must squash repeatedly, got {}",
        report.episodes.len()
    );
    // Episode ids are per-core strictly monotonic, and their spans are
    // ordered: a later episode never *opens* before an earlier one did.
    for w in report.episodes.windows(2) {
        if w[0].core == w[1].core {
            assert!(w[0].id < w[1].id);
            assert!(w[0].start <= w[1].start);
        }
    }
}

/// Variant whose squash enters CleanupSpec's wait-for-inflight phase: an
/// older *correct-path* cold load is still outstanding when an
/// ALU-resolved branch mispredicts, so the squash (cycle ~20) and the
/// cleanup (cycle ~113, when the older load lands) are separated by a
/// wide window in which the episode is genuinely open.
fn wait_gadget(wrong: &[u64]) -> Program {
    let mut b = ProgramBuilder::new("wait_gadget");
    let (r_old, r_junk, r_cond, r_sink, r_addr) = (Reg(1), Reg(2), Reg(3), Reg(5), Reg(6));
    b.movi(r_old, 0x8002 * 64);
    b.load(r_junk, r_old, 0);
    b.movi(r_cond, 1);
    for _ in 0..16 {
        b.alu(r_cond, AluOp::Add, Operand::Reg(r_cond), Operand::Imm(0));
    }
    let br = b.branch(r_cond, BranchCond::NotZero, 0);
    for &line in wrong {
        b.movi(r_addr, line * 64);
        b.load(r_sink, r_addr, 0);
    }
    let skip = b.here();
    b.patch_branch(br, skip);
    b.halt();
    b.build()
}

/// Truncation: rerun the wait-phase gadget with `max_cycles` landing
/// strictly between the squash and its deferred cleanup. The report must
/// show the episode open — not closed, not dropped — with no invented
/// leaks for the still-in-flight undo.
#[test]
fn max_cycles_truncation_leaves_the_episode_open() {
    let wrong = [0x9000, 0x9100, 0x9200];
    // Discovery pass: find the squash→cleanup window of the episode.
    let (mut sim, episodes, _ring) = instrumented(wait_gadget(&wrong), 0x5eed);
    sim.run(LIMITS);
    sim.drain(2_000);
    sim.finish_observer();
    let full = episodes.with(|e| e.report());
    let first = full.episodes.first().expect("gadget produces an episode");
    assert!(
        first.cleanup_start > first.start + 2,
        "no wait-for-inflight window to truncate in: {first:?}"
    );
    let cut = (first.start + first.cleanup_start) / 2;

    // Truncated pass: same program, same seed, cycle budget mid-wait.
    let (mut sim, episodes, _ring) = instrumented(wait_gadget(&wrong), 0x5eed);
    let stop = sim.run(RunLimits {
        max_cycles: cut,
        ..LIMITS
    });
    assert_eq!(stop, StopReason::CycleLimit);
    sim.finish_observer();
    let report = episodes.with(|e| e.report());
    check_consistency(&report);
    assert!(
        report.open_episodes() >= 1,
        "the pending cleanup must surface as an open episode: {report}"
    );
    let open = report.episodes.iter().find(|e| !e.closed).unwrap();
    assert_eq!(open.duration(), 0, "open episodes report no duration");
    assert_eq!(open.start, first.start, "same squash as the full run");
    assert!(
        report.clean(),
        "in-flight undo state at the cycle limit is not residue: {report}"
    );
}

/// Livelock: the `leak-mshr-slot` fault wedges the core mid-run. The
/// builder must return a consistent report for the half-finished
/// timeline instead of panicking or inventing closed episodes.
#[test]
fn livelocked_run_reports_consistently() {
    let prog = cleanupspec_asm::assemble(
        "miss-loop",
        r"
        .reg r1 = 0x40000
        .reg r2 = 200
    loop:
        ld r3, [r1]
        clflush [r1]
        sub r2, r2, 1
        bne r2, loop
        halt
        ",
    )
    .unwrap();
    let episodes = Shared::new(EpisodeBuilder::new());
    let mut sim = SimBuilder::new(SecurityMode::CleanupSpec)
        .program(prog)
        .mem_config(MemConfig {
            mshrs_per_core: 4,
            ..MemConfig::default()
        })
        .fault_plan(FaultPlan::single(FaultKind::LeakMshrSlot))
        .sink(Box::new(episodes.clone()))
        .build();
    let stop = sim.run(RunLimits {
        watchdog: Some(5_000),
        ..LIMITS
    });
    assert!(matches!(stop, StopReason::Livelock(_)), "got {stop:?}");
    sim.finish_observer();
    check_consistency(&episodes.with(|e| e.report()));
}

/// Two gadgets back to back with a long arithmetic lull in between, so
/// there is a quiet window (episode 1 fully unwound, episode 2 not yet
/// speculating) to clone in.
fn double_gadget() -> Program {
    let mut b = ProgramBuilder::new("double_gadget");
    let (r_trig, r_cond, r_sink, r_addr) = (Reg(2), Reg(3), Reg(5), Reg(6));
    for (trigger, wrong) in [
        (0x8001u64, [0x9000u64, 0x9100, 0x9200]),
        (0x8003, [0xA000, 0xA100, 0xA200]),
    ] {
        b.movi(r_trig, trigger * 64);
        b.load(r_cond, r_trig, 0);
        b.alu(r_cond, AluOp::Mul, Operand::Reg(r_cond), Operand::Imm(0));
        b.alu(r_cond, AluOp::Add, Operand::Reg(r_cond), Operand::Imm(1));
        let br = b.branch(r_cond, BranchCond::NotZero, 0);
        for &line in &wrong {
            b.movi(r_addr, line * 64);
            b.load(r_sink, r_addr, 0);
        }
        let skip = b.here();
        b.patch_branch(br, skip);
        // The lull separating the episodes (and trailing the second one).
        for _ in 0..200 {
            b.alu(r_cond, AluOp::Add, Operand::Reg(r_cond), Operand::Imm(0));
        }
    }
    b.halt();
    b.build()
}

/// A clone taken between episodes: fork the run in the quiet window
/// after episode 1, finish the original, then run the clone with a fresh
/// builder. The finished original must report exactly the straight run;
/// the clone, which records only its tail, must report exactly the
/// straight run's episode 2 and no findings.
#[test]
fn clone_between_episodes_replays_the_straight_runs_second_episode() {
    // Straight run: the reference report.
    let (mut sim, episodes, _ring) = instrumented(double_gadget(), 0x5eed);
    sim.run(LIMITS);
    sim.drain(2_000);
    sim.finish_observer();
    let straight = episodes.with(|e| e.report());
    assert_eq!(straight.episodes.len(), 2, "{straight}");
    let (e1, e2) = (&straight.episodes[0], &straight.episodes[1]);
    assert!(
        e2.start > e1.end + 4,
        "no quiet window between the episodes: {e1:?} / {e2:?}"
    );
    let cut = (e1.end + e2.start) / 2;

    // Forked run: pause in the window, clone, finish the original.
    let (mut sim, episodes, _ring) = instrumented(double_gadget(), 0x5eed);
    sim.run(RunLimits {
        max_cycles: cut,
        ..LIMITS
    });
    let mut clone = sim.clone();
    sim.run(LIMITS);
    sim.drain(2_000);
    sim.finish_observer();
    let original = episodes.with(|e| e.report());
    check_consistency(&original);
    assert_eq!(
        original, straight,
        "taking a clone must not perturb the original run"
    );

    // The clone resumes in the window with its own builder.
    let tail = Shared::new(EpisodeBuilder::new());
    clone.set_sinks(vec![Box::new(tail.clone())]);
    clone.run(LIMITS);
    clone.drain(2_000);
    clone.finish_observer();
    let resumed = tail.with(|e| e.report());
    check_consistency(&resumed);
    assert_eq!(resumed.episodes.len(), 1, "{resumed}");
    let r2 = &resumed.episodes[0];
    assert_eq!(
        (r2.id, r2.start, r2.end, r2.loads, r2.squashes),
        (e2.id, e2.start, e2.end, e2.loads, e2.squashes),
        "the clone's episode must be the straight run's episode 2"
    );
    assert_eq!(resumed.squashes, e2.squashes);
    assert!(resumed.clean(), "{resumed}");
}
