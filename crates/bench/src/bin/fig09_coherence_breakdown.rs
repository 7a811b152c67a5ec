//! Figure 9 — Breakup of loads by the coherence state of the line they
//! find, for the 23 multi-threaded sharing workloads on a 4-core system:
//! safe cache loads (local + remote-S), unsafe cache loads (remote-E/M,
//! the ones GetS-Safe must delay), and safe DRAM loads.
//! Paper: remote-E/M loads are ~2.4% of all loads on average.

use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::SimBuilder;
use cleanupspec_bench::exec::{default_threads, run_indexed};
use cleanupspec_bench::fmt::{pct, table};
use cleanupspec_workloads::sharing::SHARING_WORKLOADS;

fn main() {
    let insts: u64 = std::env::var("CLEANUPSPEC_INSTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120_000);
    let cores = 4;
    println!("== Figure 9: load breakup by line state (4-core, {insts} inst/core) ==\n");
    let outcome = run_indexed(SHARING_WORKLOADS.len(), default_threads(), |i| {
        let w = &SHARING_WORKLOADS[i];
        let mut b = SimBuilder::new(SecurityMode::NonSecure);
        for p in w.build_all(cores, 0xF199) {
            b = b.program(p);
        }
        let mut sim = b.build();
        sim.run_with_warmup(insts / 4, insts);
        let m = &sim.report().mem;
        let total = (m.class_safe_cache + m.class_remote_em + m.class_dram).max(1) as f64;
        (
            w.name,
            m.class_remote_em as f64 / total,
            m.class_dram as f64 / total,
            m.class_safe_cache as f64 / total,
        )
    });
    assert!(outcome.is_complete(), "worker: {:?}", outcome.failures);
    let results: Vec<(&str, f64, f64, f64)> = outcome.slots.into_iter().flatten().collect();
    let mut rows = Vec::new();
    let mut sum_unsafe = 0.0;
    for (name, unsafe_frac, dram, safe) in &results {
        sum_unsafe += unsafe_frac;
        rows.push(vec![
            name.to_string(),
            pct(*unsafe_frac),
            pct(*dram),
            pct(*safe),
        ]);
    }
    let avg = sum_unsafe / results.len() as f64;
    rows.push(vec!["AVG".into(), pct(avg), String::new(), String::new()]);
    println!(
        "{}",
        table(
            &["workload", "unsafe(remote-E/M)", "safe DRAM", "safe cache"],
            &rows
        )
    );
    println!("\npaper: loads to remote-E/M lines are just 2.4% of all loads on");
    println!("average, so delaying their downgrade (GetS-Safe) is nearly free;");
    println!("96.8% of loads are to local or remote-S lines.");
}
