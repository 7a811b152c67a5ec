//! Write a transient-execution gadget in assembly, run it under CleanupSpec
//! with event tracing enabled, and print both the trace timeline and the
//! JSON report — the full observability surface in one example.
//!
//! ```sh
//! cargo run --release --example assembler_demo
//! ```

use cleanupspec::prelude::*;
use cleanupspec_obs::{RingSink, Shared};
use cleanupspec_suite::asm::{assemble, disassemble};

const GADGET: &str = r"
    ; a single-shot wrong-path load: the branch is actually taken (skipping
    ; the load) but a cold predictor falls through into it transiently.
    .reg r4 = 0x123400          ; transient target
    movi r2, 0x777040           ; cold trigger line
    ld r3, [r2]                 ; slow: delays branch resolution
    mul r3, r3, 0
    add r3, r3, 1
    bne r3, skip                ; actually taken; predicted not-taken
    ld r5, [r4]                 ; transient install -> undone by CleanupSpec
skip:
    halt
";

fn main() {
    let program = assemble("gadget.s", GADGET).expect("valid assembly");
    println!(
        "== disassembly (round-tripped) ==\n{}",
        disassemble(&program)
    );

    let ring = Shared::new(RingSink::new(256));
    let mut sim = SimBuilder::new(SecurityMode::CleanupSpec)
        .program(program)
        .sink(Box::new(ring.clone()))
        .build();
    sim.run(RunLimits {
        max_cycles: 100_000,
        max_insts_per_core: u64::MAX,
        ..RunLimits::default()
    });
    sim.drain(1_000);
    sim.finish_observer();

    println!("== event trace (last 256 events) ==");
    print!("{}", ring.with(|r| r.dump()));

    let line = Addr::new(0x123400).line();
    println!(
        "\ntransient line in L1 after cleanup: {}",
        sim.mem().l1(CoreId(0)).probe(line).is_some()
    );
    println!(
        "transient line in L2 after cleanup: {}",
        sim.mem().l2().probe(line).is_some()
    );

    println!("\n== JSON report ==");
    println!("{}", cleanupspec::snap::report_json(&sim.report()));
}
