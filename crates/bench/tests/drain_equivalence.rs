//! The memory-only clock jumps idle cycles: draining N cycles in one call
//! must be byte-identical to N one-cycle calls. Checked on the cs-smith
//! drain (`fuzz::DRAIN_CYCLES` after halt) for every fuzzed scheme, on
//! seeds whose MSHR files still hold fills in flight at halt, by the
//! complete cs-events-v2 JSONL trace, the `SimReport` JSON (CPI stacks and
//! their `harness` bucket included).

use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::{SimBuilder, Simulator};
use cleanupspec::snap;
use cleanupspec_bench::fuzz::{fuzz_mem_config, FUZZ_MODES};
use cleanupspec_core::stats::StallCause;
use cleanupspec_core::system::StopReason;
use cleanupspec_mem::mshr::MshrState;
use cleanupspec_mem::types::CoreId;
use cleanupspec_obs::JsonlSink;
use cleanupspec_workloads::smith::{assemble_plan, plan};
use common::Buf;

mod common;

/// The drain `fuzz::extract_run` applies after halt.
const DRAIN: u64 = 4_000;

/// The seed's programs run to halt under `mode` on the fuzzing hierarchy,
/// tracing into the returned buffer.
fn halted(seed: u64, mode: SecurityMode) -> (Simulator, Buf) {
    let progs = assemble_plan(&plan(seed));
    let buf = Buf::default();
    let mut b = SimBuilder::new(mode)
        .mem_config(fuzz_mem_config(progs.len(), seed))
        .sink(Box::new(JsonlSink::new(buf.clone())));
    for p in progs {
        b = b.program(p);
    }
    let mut sim = b.build();
    assert_eq!(sim.run_to_completion(), StopReason::AllHalted);
    (sim, buf)
}

/// `(pending, dropped)` MSHR entries across all cores.
fn in_flight(sim: &Simulator) -> (usize, usize) {
    let n = sim.mem().config().num_cores;
    let count = |state| {
        (0..n)
            .flat_map(|c| sim.mem().mshr(CoreId(c)).iter())
            .filter(|e| e.state == state)
            .count()
    };
    (count(MshrState::Pending), count(MshrState::Dropped))
}

/// Per scheme, cs-smith seeds whose MSHR files still hold misses at halt:
/// pending orphans under the insecure and redo schemes, dropped fills
/// under the undo schemes. InvisiSpec-initial has none to offer: its
/// wrong-path loads never allocate an MSHR and each committed load stalls
/// until its update load returns, so its seeds check the idle jump alone.
const SEEDS: [(SecurityMode, [u64; 2]); 5] = [
    (SecurityMode::NonSecure, [102, 1092]),
    (SecurityMode::CleanupSpec, [0, 16]),
    (SecurityMode::InvisiSpecInitial, [0, 1]),
    (SecurityMode::InvisiSpecRevised, [2, 28]),
    (SecurityMode::NaiveInvalidate, [0, 16]),
];

/// The report JSON of a drained run.
fn report_bytes(sim: &Simulator) -> String {
    snap::report_json(&sim.report())
}

#[test]
fn jump_drain_matches_cycle_by_cycle_drain() {
    assert_eq!(
        SEEDS.map(|(mode, _)| mode),
        FUZZ_MODES,
        "one entry per fuzzed scheme"
    );
    let (mut pending, mut dropped) = (0, 0);
    for (mode, seeds) in SEEDS {
        for seed in seeds {
            let (mut jump, jump_trace) = halted(seed, mode);
            let (mut step, step_trace) = halted(seed, mode);
            let (p, d) = in_flight(&jump);
            if mode == SecurityMode::InvisiSpecInitial {
                assert_eq!((p, d), (0, 0), "{mode} seed {seed}: a miss in flight");
            } else {
                assert!(p + d > 0, "{mode} seed {seed}: no miss in flight at halt");
            }
            pending += p;
            dropped += d;

            jump.drain(DRAIN);
            for _ in 0..DRAIN {
                step.system_mut().advance_mem_only(1);
            }
            jump.finish_observer();
            step.finish_observer();

            assert_eq!(
                in_flight(&jump),
                (0, 0),
                "{mode} seed {seed}: drain left misses"
            );
            for core in &jump.report().cores {
                let harness = core.cpi_stack.get(StallCause::Harness);
                assert_eq!(harness, DRAIN, "{mode} seed {seed}: harness bucket");
            }
            let (jump_trace, step_trace) = (jump_trace.bytes(), step_trace.bytes());
            assert!(
                jump_trace == step_trace,
                "{mode} seed {seed}: JSONL traces differ"
            );
            assert_eq!(
                report_bytes(&jump),
                report_bytes(&step),
                "{mode} seed {seed}: report differs"
            );
        }
    }
    assert!(pending > 0, "no seed drains a pending miss");
    assert!(dropped > 0, "no seed drains a dropped miss");
}
