//! Assembler integration tests: assemble→run end-to-end, and the
//! assemble→disassemble→assemble round-trip property.
//!
//! The round-trip test drives random programs from the workspace's
//! deterministic `SplitMix64` (hermetic build).

use cleanupspec::prelude::*;
use cleanupspec_asm::{assemble, disassemble};
use cleanupspec_mem::rng::SplitMix64;

#[test]
fn assembled_program_runs_end_to_end() {
    let p = assemble(
        "sum",
        r"
        ; sum the words 0x1000..0x1028 into r3
        .word 0x1000 = 1 2 3 4 5
        .reg r1 = 0x1000
        .reg r2 = 5
    loop:
        ld r4, [r1]
        add r3, r3, r4
        add r1, r1, 8
        sub r2, r2, 1
        bne r2, loop
        halt
        ",
    )
    .unwrap();
    let mut sim = SimBuilder::new(SecurityMode::CleanupSpec)
        .program(p)
        .build();
    let reason = sim.run_to_completion();
    assert_eq!(reason, StopReason::AllHalted);
    assert_eq!(sim.system().core(0).reg(Reg(3)), 15);
}

#[test]
fn assembled_meltdown_gadget_is_defended() {
    // The Meltdown PoC, written in assembly.
    let src = r"
        .word 0xF0000 = 33          ; the secret
        .protect 0xF0000 0xF0040
        .fault_handler recover
        movi r1, 0xF0000
        ld r2, [r1]                 ; faults at commit
        mul r3, r2, 512
        add r3, r3, 0x200000
        ld r4, [r3]                 ; transient transmission
        halt
    recover:
        movi r5, 1
        halt
    ";
    for (mode, expect_leak) in [
        (SecurityMode::NonSecure, true),
        (SecurityMode::CleanupSpec, false),
    ] {
        let p = assemble("meltdown.s", src).unwrap();
        let mut sim = SimBuilder::new(mode).program(p).build();
        sim.run(RunLimits {
            max_cycles: 500_000,
            max_insts_per_core: u64::MAX,
            ..RunLimits::default()
        });
        sim.drain(1_000);
        assert_eq!(sim.system().core(0).reg(Reg(5)), 1, "handler ran ({mode})");
        let lat = sim.probe_load(CoreId(0), Addr::new(0x200000 + 33 * 512));
        assert_eq!(
            lat <= 2,
            expect_leak,
            "mode {mode}: secret-entry reload latency {lat}"
        );
    }
}

/// Draws one random source line from seven equally-weighted forms. Text only — semantics are covered by
/// `tests/reference_model.rs` at the repo root.
fn gen_line(rng: &mut SplitMix64) -> String {
    let reg = |rng: &mut SplitMix64| 1 + rng.below(30);
    match rng.below(7) {
        0 => format!("movi r{}, {:#x}", reg(rng), rng.next_u64() as u32),
        1 => {
            let ops = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr"];
            format!(
                "{} r{}, r{}, r{}",
                ops[rng.below(8) as usize],
                reg(rng),
                reg(rng),
                reg(rng)
            )
        }
        2 => format!(
            "ld r{}, [r{} + {}]",
            reg(rng),
            reg(rng),
            rng.below(128) as i64 - 64
        ),
        3 => format!("st r{}, [r{} + {}]", reg(rng), reg(rng), rng.below(64)),
        4 => format!("clflush [r{} + {}]", reg(rng), rng.below(64)),
        5 => "nop".to_string(),
        _ => "fence".to_string(),
    }
}

/// assemble(disassemble(assemble(src))) produces identical instructions
/// and initial state, over 64 random programs.
#[test]
fn roundtrip_preserves_program() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xA530_D15A_5301 ^ case);
        let n_lines = 1 + rng.below(24) as usize;
        let lines: Vec<String> = (0..n_lines).map(|_| gen_line(&mut rng)).collect();
        let n_inits = rng.below(4);
        let branch_at = rng.below(25) as usize;
        let mut src = String::new();
        for _ in 0..n_inits {
            src.push_str(&format!(
                ".reg r{} = {:#x}\n",
                1 + rng.below(30),
                rng.next_u64()
            ));
        }
        src.push_str("start:\n");
        for (i, l) in lines.iter().enumerate() {
            if i == branch_at.min(lines.len() - 1) {
                src.push_str("    bne r1, start\n");
            }
            src.push_str("    ");
            src.push_str(l);
            src.push('\n');
        }
        src.push_str("    halt\n");
        let p1 = assemble("p1", &src).unwrap();
        let text = disassemble(&p1);
        let p2 = assemble("p2", &text).unwrap_or_else(|e| {
            panic!("case {case}: round-trip re-assembly failed: {e}\n--- disassembly ---\n{text}")
        });
        assert_eq!(p1.insts(), p2.insts(), "case {case}");
        assert_eq!(p1.init_regs, p2.init_regs, "case {case}");
        assert_eq!(p1.init_mem, p2.init_mem, "case {case}");
        assert_eq!(p1.entry, p2.entry, "case {case}");
    }
}
