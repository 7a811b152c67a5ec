//! End-to-end event-bus test: a Spectre-style transient episode must be
//! fully visible on the event stream — the squash, then cleanup actions
//! whose line addresses match the transiently filled lines — and the
//! episode ledger must balance under CleanupSpec and leak under NonSecure.

use cleanupspec::prelude::*;
use cleanupspec_obs::{EpisodeBuilder, EpisodeReport, RingSink, Shared, SimEvent};
use cleanupspec_suite::core_sim::isa::{AluOp, BranchCond, Operand};
use std::collections::HashSet;

/// Spectre-style gadget: a slow cold load delays branch resolution long
/// enough for the wrong-path loads to fill the caches before the squash.
fn gadget(wrong_path_lines: &[u64], trigger_line: u64) -> Program {
    let mut b = ProgramBuilder::new("spectre_gadget");
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

/// Runs the gadget under `mode` with a ring and an episode ledger
/// attached; returns (event records, ledger report).
fn run_traced(
    mode: SecurityMode,
    wrong: &[u64],
) -> (Vec<cleanupspec_obs::EventRecord>, EpisodeReport) {
    let ring = Shared::new(RingSink::new(100_000));
    let ledger = Shared::new(EpisodeBuilder::new());
    let mut sim = SimBuilder::new(mode)
        .program(gadget(wrong, 0x8001))
        .seed(0x5eed)
        .sink(Box::new(ring.clone()))
        .sink(Box::new(ledger.clone()))
        .build();
    sim.run(RunLimits {
        max_cycles: 200_000,
        max_insts_per_core: u64::MAX,
        ..RunLimits::default()
    });
    sim.drain(2_000);
    sim.finish_observer();
    (ring.with(|s| s.to_vec()), ledger.with(|l| l.report()))
}

#[test]
fn squash_is_followed_by_matching_cleanup_events() {
    let wrong: Vec<u64> = vec![0x9000, 0x9100, 0x9200];
    let (records, report) = run_traced(SecurityMode::CleanupSpec, &wrong);

    // The mispredicted branch must surface as a squash event.
    let squash_at = records
        .iter()
        .position(|r| matches!(r.event, SimEvent::Squash { .. }))
        .expect("event stream must contain a squash");

    // The wrong-path loads fill the caches speculatively...
    let spec_fills: HashSet<u64> = records
        .iter()
        .filter_map(|r| match r.event {
            SimEvent::Fill {
                line, spec: true, ..
            } => Some(line),
            _ => None,
        })
        .collect();
    for w in &wrong {
        assert!(
            spec_fills.contains(w),
            "transient line {w:#x} never filled speculatively; \
             the gadget's delay chain is too short"
        );
    }

    // ...and after the squash, CleanupSpec must undo exactly those lines:
    // every cleanup-inval targets a transiently filled line, and every
    // transient line is cleaned up (invalidated, restored over, or its
    // fill dropped in flight).
    let mut cleaned: HashSet<u64> = HashSet::new();
    for r in &records[squash_at..] {
        match r.event {
            SimEvent::CleanupInval { line, .. } => {
                assert!(
                    spec_fills.contains(&line),
                    "cleanup-inval of {line:#x}, which was never \
                     speculatively filled"
                );
                cleaned.insert(line);
            }
            SimEvent::CleanupRestore { line, .. } => {
                cleaned.insert(line);
            }
            SimEvent::DroppedFill { line, .. } | SimEvent::SquashedLoad { line, .. } => {
                cleaned.insert(line);
            }
            _ => {}
        }
    }
    for w in &wrong {
        assert!(
            cleaned.contains(w),
            "transient line {w:#x} saw no cleanup action after the squash"
        );
    }

    // The trace must span the simulator's layers, not just one component.
    let layers: HashSet<&str> = records.iter().map(|r| r.event.layer().as_str()).collect();
    assert!(
        layers.len() >= 3,
        "expected events from >= 3 layers, got {layers:?}"
    );

    assert!(
        report.clean(),
        "CleanupSpec run must leave no ledger imbalance: {report}"
    );
}

#[test]
fn audit_flags_nonsecure_residue() {
    let wrong: Vec<u64> = vec![0x9000, 0x9100, 0x9200];
    let (records, report) = run_traced(SecurityMode::NonSecure, &wrong);
    assert!(
        records
            .iter()
            .any(|r| matches!(r.event, SimEvent::Squash { .. })),
        "baseline run must still squash the wrong path"
    );
    assert!(
        !report.clean(),
        "NonSecure leaves transient fills in the cache; the ledger must \
         flag them"
    );
    // The leaks it reports must be wrong-path lines.
    for leak in &report.leaks {
        assert!(
            wrong.contains(&leak.line),
            "ledger flagged {:#x}, which is not a wrong-path line",
            leak.line
        );
    }
}
