//! Architectural-correctness property test: random programs must compute
//! identical final register and memory state on a simple in-order
//! reference interpreter and on the out-of-order pipeline — under **every
//! security mode**. Security schemes change timing and cache state, never
//! architectural results; wrong-path execution must be invisible to the
//! architecture.

//!
//! The randomized test drives 20 random programs from the workspace's
//! deterministic `SplitMix64` (hermetic build).

use cleanupspec::prelude::*;
use cleanupspec_mem::rng::SplitMix64;
use cleanupspec_suite::core_sim::isa::{AluOp, BranchCond, Operand, Pc, NUM_REGS};
use cleanupspec_suite::core_sim::reference;

/// Final architectural registers from the shared in-order reference
/// interpreter (`cleanupspec_core::reference`, also the ground truth for
/// the `cs-smith` differential fuzzer).
fn interpret(p: &Program, max_steps: usize) -> [u64; NUM_REGS] {
    let r = reference::interpret(p, max_steps);
    assert!(r.halted, "reference interpreter exceeded {max_steps} steps");
    r.regs
}

/// A random but guaranteed-terminating program: a counted loop whose body
/// is a random mix of ALU ops, loads, stores, and a forward skip branch.
#[derive(Clone, Debug)]
enum BodyOp {
    Alu(u8, AluOp, u8, i64),
    Load(u8, u64),
    Store(u8, u64),
    SkipIf(u8, bool, u8), // (cond reg, on_zero, ops to skip)
}

/// Draws one body operation from four equally-weighted forms over data
/// registers r2..r11.
fn gen_body_op(rng: &mut SplitMix64) -> BodyOp {
    let reg = |rng: &mut SplitMix64| (2 + rng.below(10)) as u8;
    match rng.below(4) {
        0 => {
            const OPS: [AluOp; 8] = [
                AluOp::Add,
                AluOp::Sub,
                AluOp::Mul,
                AluOp::Xor,
                AluOp::And,
                AluOp::Or,
                AluOp::Shl,
                AluOp::Shr,
            ];
            BodyOp::Alu(
                reg(rng),
                OPS[rng.below(8) as usize],
                reg(rng),
                rng.below(128) as i64 - 64,
            )
        }
        1 => BodyOp::Load(reg(rng), rng.below(64)),
        2 => BodyOp::Store(reg(rng), rng.below(64)),
        _ => BodyOp::SkipIf(reg(rng), rng.below(2) == 1, (1 + rng.below(4)) as u8),
    }
}

fn build(ops: &[BodyOp], iters: u64) -> Program {
    let mut b = ProgramBuilder::new("random");
    let r_i = Reg(1);
    let region = 0x5_0000u64;
    b.init_reg(r_i, iters);
    for k in 2..12u8 {
        b.init_reg(Reg(k), 0x1111 * k as u64);
    }
    let top = b.here();
    let mut pending_skips: Vec<(Pc, usize)> = Vec::new(); // (branch pc, ops left)
    for op in ops {
        // Resolve expired skips.
        let here = b.here();
        pending_skips.retain_mut(|(bpc, left)| {
            if *left == 0 {
                b.patch_branch(*bpc, here);
                false
            } else {
                *left -= 1;
                true
            }
        });
        match op {
            BodyOp::Alu(d, aop, s, imm) => {
                b.alu(Reg(*d), *aop, Operand::Reg(Reg(*s)), Operand::Imm(*imm));
            }
            BodyOp::Load(d, slot) => {
                b.movi(Reg(31), region + slot * 8);
                b.load(Reg(*d), Reg(31), 0);
            }
            BodyOp::Store(s, slot) => {
                b.movi(Reg(31), region + slot * 8);
                b.store(Reg(*s), Reg(31), 0);
            }
            BodyOp::SkipIf(r, on_zero, n) => {
                let cond = if *on_zero {
                    BranchCond::Zero
                } else {
                    BranchCond::NotZero
                };
                let at = b.branch(Reg(*r), cond, 0);
                pending_skips.push((at, *n as usize));
            }
        }
    }
    let end = b.here();
    for (bpc, _) in &pending_skips {
        b.patch_branch(*bpc, end);
    }
    b.alu(r_i, AluOp::Sub, Operand::Reg(r_i), Operand::Imm(1));
    b.branch(r_i, BranchCond::NotZero, top);
    b.halt();
    b.build()
}

fn pipeline_regs(p: &Program, mode: SecurityMode) -> Vec<u64> {
    let mut sim = SimBuilder::new(mode).program(p.clone()).build();
    let reason = sim.run(RunLimits {
        max_cycles: 3_000_000,
        max_insts_per_core: u64::MAX,
        ..RunLimits::default()
    });
    assert_eq!(
        reason,
        StopReason::AllHalted,
        "program must halt under {mode}"
    );
    (0..30).map(|r| sim.system().core(0).reg(Reg(r))).collect()
}

#[test]
fn pipeline_matches_reference_interpreter() {
    for case in 0..20u64 {
        let mut rng = SplitMix64::new(0x9EF9_EFC0_DE01 ^ case);
        let n = 3 + rng.below(15) as usize;
        let ops: Vec<BodyOp> = (0..n).map(|_| gen_body_op(&mut rng)).collect();
        let iters = 2 + rng.below(10);
        let p = build(&ops, iters);
        let ref_regs = interpret(&p, 2_000_000);
        // Registers 0..30: r31 is the builder's scratch address register
        // and the link register, both still architectural — include it via
        // the reference too. We compare r0..r29 (the data registers).
        for mode in [
            SecurityMode::NonSecure,
            SecurityMode::CleanupSpec,
            SecurityMode::InvisiSpecInitial,
            SecurityMode::InvisiSpecRevised,
            SecurityMode::DelaySpeculativeLoads,
        ] {
            let got = pipeline_regs(&p, mode);
            for r in 0..30usize {
                assert_eq!(
                    got[r], ref_regs[r],
                    "case {case}: r{r} differs under {mode} (ops {ops:?}, iters {iters})"
                );
            }
        }
    }
}

#[test]
fn reference_and_pipeline_agree_on_fixed_kernel() {
    // A deterministic spot check with heavy store/load aliasing.
    let ops = vec![
        BodyOp::Store(3, 5),
        BodyOp::Load(4, 5),
        BodyOp::Alu(3, AluOp::Add, 4, 17),
        BodyOp::SkipIf(3, false, 2),
        BodyOp::Store(3, 6),
        BodyOp::Load(5, 6),
        BodyOp::Alu(6, AluOp::Xor, 5, 3),
    ];
    let p = build(&ops, 10);
    let ref_regs = interpret(&p, 100_000);
    let got = pipeline_regs(&p, SecurityMode::CleanupSpec);
    for r in 0..30usize {
        assert_eq!(got[r], ref_regs[r], "r{r}");
    }
}
