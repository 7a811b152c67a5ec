//! `System::run` jumps over quiet cycles, in which no core changes any
//! state, and charges them in one step. The result must be byte-identical
//! to stepping `System::tick` one cycle at a time with the same stop
//! checks. Compared by the complete cs-events-v3 JSONL trace, the
//! `SimReport` JSON (per-core CPI stacks and `fetch_stall_cycles`
//! included), the stop reason and the final cycle, on:
//!
//! - every fuzzed scheme over a range of cs-smith seeds, multi-core plans
//!   and a leg resumed from a checkpoint clone included;
//! - two Table-3 programs with warmup and an instruction limit;
//! - a cycle-limit cut and a watchdog livelock, each landing inside a
//!   jump.

use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::{SimBuilder, Simulator};
use cleanupspec::snap;
use cleanupspec_bench::fuzz::{fuzz_mem_config, FUZZ_MODES};
use cleanupspec_core::isa::Program;
use cleanupspec_core::system::{RunLimits, StopReason};
use cleanupspec_mem::types::Cycle;
use cleanupspec_obs::JsonlSink;
use cleanupspec_workloads::smith::{assemble_plan, plan};
use cleanupspec_workloads::spec::spec_workload;
use common::Buf;
use std::ops::Range;

mod common;

/// cs-smith seeds run under every fuzzed scheme.
const SMITH_SEEDS: Range<u64> = 0..12;

/// Where the checkpoint-resume leg clones: early enough that most of
/// the smith seeds are still running.
const CHECKPOINT: Cycle = 300;

/// The fuzz harness's run limits.
fn fuzz_limits() -> RunLimits {
    RunLimits {
        max_cycles: 2_000_000,
        max_insts_per_core: u64::MAX,
        ..RunLimits::default()
    }
}

/// The reference loop's copy of the watchdog marker `System::tick`
/// keeps, and where `System::run` would have jumped.
#[derive(Clone, Copy, Default)]
struct Stepper {
    last_commit_at: Cycle,
    last_committed: u64,
    /// The cycle the jump after the latest tick would reach, before the
    /// run's limits cap it: that tick's own cycle unless every core was
    /// quiet.
    reach: Cycle,
    /// `reach` as of the tick before the latest.
    reach_before: Cycle,
}

impl Stepper {
    /// Ticks `sim` one cycle at a time until a stop condition of `limits`
    /// holds, then lets `Simulator::run` report it, which must not tick.
    fn run(&mut self, sim: &mut Simulator, limits: RunLimits) -> StopReason {
        let n = sim.mem().config().num_cores;
        loop {
            let sys = sim.system();
            let now = sys.now();
            let inst_limit = limits.max_insts_per_core != u64::MAX
                && (0..n).all(|i| {
                    sys.core(i).halted()
                        || sys.core_stats(i).committed_insts >= limits.max_insts_per_core
                });
            let watchdog = limits
                .watchdog
                .is_some_and(|wd| now.saturating_sub(self.last_commit_at) >= wd);
            if sys.all_halted() || inst_limit || now >= limits.max_cycles || watchdog {
                break;
            }
            sim.system_mut().tick();
            let sys = sim.system();
            let now = sys.now();
            let committed = (0..n).map(|i| sys.core_stats(i).committed_insts).sum();
            if committed != self.last_committed {
                self.last_committed = committed;
                self.last_commit_at = now;
            }
            self.reach_before = self.reach;
            self.reach = now;
            if (0..n).all(|i| sys.core(i).last_tick().is_quiet()) {
                let wake = (0..n)
                    .map(|i| sys.core(i).quiet_until(now))
                    .fold(sys.mem().next_fill_due(), Cycle::min);
                self.reach = self.reach.max(wake.saturating_sub(1));
            }
        }
        let now = sim.system().now();
        let stop = sim.run(limits);
        assert_eq!(sim.system().now(), now, "run ticked past the stop");
        stop
    }

    /// Whether `System::run` reached the stop cycle `now` by a jump from
    /// an earlier cycle, which the stop limit cut short. The wake bound is
    /// constant along a run of quiet cycles, so every jump that starts in
    /// the run of the tick before the stop reaches as far as that tick's.
    fn stopped_mid_jump(&self, now: Cycle) -> bool {
        self.reach_before >= now
    }
}

/// What a run leaves behind.
#[derive(PartialEq, Debug)]
struct Outcome {
    stop: StopReason,
    now: Cycle,
    report: String,
}

fn outcome(sim: &Simulator, stop: StopReason) -> Outcome {
    Outcome {
        stop,
        now: sim.system().now(),
        report: snap::report_json(&sim.report()),
    }
}

/// Asserts the two runs agree on their outcome and their full traces.
fn assert_same(
    label: &str,
    (jump, jump_trace): (Outcome, &Buf),
    (step, step_trace): (Outcome, &Buf),
) {
    assert_eq!(jump, step, "{label}: outcome differs");
    let (a, b) = (jump_trace.bytes(), step_trace.bytes());
    if a != b {
        let first = a
            .split(|&c| c == b'\n')
            .zip(b.split(|&c| c == b'\n'))
            .position(|(x, y)| x != y);
        panic!("{label}: JSONL traces differ (first at line {first:?})");
    }
}

/// A simulator over `progs` tracing into the returned buffer.
fn build(mode: SecurityMode, progs: &[Program], smith_seed: Option<u64>) -> (Simulator, Buf) {
    let buf = Buf::default();
    let mut b = SimBuilder::new(mode).sink(Box::new(JsonlSink::new(buf.clone())));
    if let Some(seed) = smith_seed {
        b = b.mem_config(fuzz_mem_config(progs.len(), seed));
    }
    for p in progs {
        b = b.program(p.clone());
    }
    (b.build(), buf)
}

/// A clone of `sim` tracing into a fresh buffer, so its trace holds only
/// what it runs after the clone.
fn fork(sim: &Simulator) -> (Simulator, Buf) {
    let buf = Buf::default();
    let mut clone = sim.clone();
    clone.set_sinks(vec![Box::new(JsonlSink::new(buf.clone()))]);
    (clone, buf)
}

/// Runs both sides to the end of `limits` and compares them.
fn compare(
    label: &str,
    (mut jump, jump_trace): (Simulator, Buf),
    (mut step, step_trace): (Simulator, Buf),
    stepper: &mut Stepper,
    limits: RunLimits,
) -> StopReason {
    let stop = jump.run(limits);
    let step_stop = stepper.run(&mut step, limits);
    jump.finish_observer();
    step.finish_observer();
    assert_same(
        label,
        (outcome(&jump, stop.clone()), &jump_trace),
        (outcome(&step, step_stop), &step_trace),
    );
    stop
}

#[test]
fn smith_runs_jump_like_they_step() {
    let mut multi_core = 0;
    for seed in SMITH_SEEDS {
        let progs = assemble_plan(&plan(seed));
        if progs.len() > 1 {
            multi_core += 1;
        }
        for mode in FUZZ_MODES {
            let label = format!("smith:{seed} {mode}");
            let stop = compare(
                &label,
                build(mode, &progs, Some(seed)),
                build(mode, &progs, Some(seed)),
                &mut Stepper::default(),
                fuzz_limits(),
            );
            assert_eq!(stop, StopReason::AllHalted, "{label}");
        }
    }
    assert!(multi_core > 0, "no multi-core plan among the seeds");
}

#[test]
fn checkpoint_resume_jumps_like_it_steps() {
    let mode = SecurityMode::CleanupSpec;
    let checkpoint = RunLimits {
        max_cycles: CHECKPOINT,
        ..fuzz_limits()
    };
    let mut mid_flight = 0;
    for seed in SMITH_SEEDS {
        let progs = assemble_plan(&plan(seed));
        let (mut jump, jump_trace) = build(mode, &progs, Some(seed));
        let (mut step, step_trace) = build(mode, &progs, Some(seed));
        let mut stepper = Stepper::default();
        let stop = jump.run(checkpoint);
        let step_stop = stepper.run(&mut step, checkpoint);
        let (jump_clone, step_clone) = (fork(&jump), fork(&step));
        if stop == StopReason::CycleLimit {
            mid_flight += 1;
        }
        assert_same(
            &format!("smith:{seed} checkpoint"),
            (outcome(&jump, stop), &jump_trace),
            (outcome(&step, step_stop), &step_trace),
        );

        let mut resumed_stepper = stepper;
        compare(
            &format!("smith:{seed} original"),
            (jump, jump_trace),
            (step, step_trace),
            &mut stepper,
            fuzz_limits(),
        );
        compare(
            &format!("smith:{seed} resumed"),
            jump_clone,
            step_clone,
            &mut resumed_stepper,
            fuzz_limits(),
        );
    }
    assert!(
        2 * mid_flight > SMITH_SEEDS.end - SMITH_SEEDS.start,
        "most seeds halted before the checkpoint"
    );
}

#[test]
fn table3_warmup_and_measure_jump_like_they_step() {
    const WARMUP: u64 = 2_000;
    const MEASURE: u64 = 6_000;
    for name in ["gcc", "astar"] {
        let prog = spec_workload(name).expect("a Table-3 program").build(7);
        for mode in [SecurityMode::NonSecure, SecurityMode::CleanupSpec] {
            let label = format!("{name} {mode}");
            let (mut jump, jump_trace) = build(mode, std::slice::from_ref(&prog), None);
            let (mut step, step_trace) = build(mode, std::slice::from_ref(&prog), None);
            let stop = jump.run_with_warmup(WARMUP, MEASURE);

            // `run_insts(WARMUP)`, then `run_measure(MEASURE)` split into
            // its statistics reset (a zero-instruction measure, which
            // stops before ticking) and its run.
            let mut stepper = Stepper::default();
            let warm = stepper.run(
                &mut step,
                RunLimits {
                    max_cycles: 400 * WARMUP + 1_000_000,
                    max_insts_per_core: WARMUP,
                    ..RunLimits::default()
                },
            );
            assert_eq!(warm, StopReason::InstLimit, "{label}: warmup");
            assert_eq!(step.run_measure(0), StopReason::InstLimit);
            let base = step.system().now();
            let step_stop = stepper.run(
                &mut step,
                RunLimits {
                    max_cycles: base + 400 * MEASURE + 1_000_000,
                    max_insts_per_core: MEASURE,
                    ..RunLimits::default()
                },
            );
            assert_eq!(stop, StopReason::InstLimit, "{label}");
            jump.finish_observer();
            step.finish_observer();
            assert_same(
                &label,
                (outcome(&jump, stop), &jump_trace),
                (outcome(&step, step_stop), &step_trace),
            );
        }
    }
}

/// The middle of the longest jump `System::run` makes on a smith seed,
/// found by stepping it.
fn mid_jump_cycle(mode: SecurityMode, seed: u64, progs: &[Program]) -> Cycle {
    let (mut sim, _) = build(mode, progs, Some(seed));
    let mut stepper = Stepper::default();
    let (mut from, mut to) = (0, 0);
    while !sim.system().all_halted() {
        let now = sim.system().now();
        let limits = RunLimits {
            max_cycles: now + 1,
            ..fuzz_limits()
        };
        stepper.run(&mut sim, limits);
        let now = now + 1;
        if stepper.reach - now > to - from {
            (from, to) = (now, stepper.reach);
        }
    }
    assert!(to - from >= 4, "smith:{seed}: no jump to cut in");
    from + (to - from) / 2
}

#[test]
fn cycle_limit_inside_a_jump_stops_it_exactly() {
    let (mode, seed) = (SecurityMode::CleanupSpec, 3);
    let progs = assemble_plan(&plan(seed));
    let cut = mid_jump_cycle(mode, seed, &progs);
    let limits = RunLimits {
        max_cycles: cut,
        ..fuzz_limits()
    };
    let mut stepper = Stepper::default();
    let stop = compare(
        &format!("smith:{seed} cut at {cut}"),
        build(mode, &progs, Some(seed)),
        build(mode, &progs, Some(seed)),
        &mut stepper,
        limits,
    );
    assert_eq!(stop, StopReason::CycleLimit);
    assert!(
        stepper.stopped_mid_jump(cut),
        "the cut is not inside a jump"
    );
}

#[test]
fn watchdog_inside_a_jump_fires_on_the_same_cycle() {
    let (mode, seed) = (SecurityMode::CleanupSpec, 5);
    let progs = assemble_plan(&plan(seed));
    let limits = RunLimits {
        watchdog: Some(40),
        ..fuzz_limits()
    };
    let mut stepper = Stepper::default();
    let stop = compare(
        &format!("smith:{seed} watchdog"),
        build(mode, &progs, Some(seed)),
        build(mode, &progs, Some(seed)),
        &mut stepper,
        limits,
    );
    let StopReason::Livelock(dump) = stop else {
        panic!("expected a livelock, got {stop}");
    };
    assert!(
        stepper.stopped_mid_jump(dump.at),
        "the watchdog fired outside a jump"
    );
}
