//! Table 1 — The cost of CleanupSpec's randomization prerequisites on an
//! otherwise non-secure system: L1 random replacement, CEASER-randomized
//! L2 (with its 2-cycle latency charge), and both together.
//! Paper: 0.1%, 0.4%, and 0.8% slowdown respectively.

use cleanupspec::modes::SecurityMode;
use cleanupspec_bench::fmt::{geomean, slowdown_pct, table};
use cleanupspec_bench::runner::ExperimentConfig;
use cleanupspec_bench::Sweep;

fn main() {
    let cfg = ExperimentConfig::default();
    println!("== Table 1: randomization overheads (vs LRU/plain baseline) ==");
    println!("   {} instructions per workload\n", cfg.insts);
    let configs = [
        ("L1-Rand Replacement", SecurityMode::L1RandomOnly, "0.1%"),
        ("L2-Randomization", SecurityMode::L2RandomOnly, "0.4%"),
        ("Both Together", SecurityMode::BothRandomOnly, "0.8%"),
    ];
    // One sweep over baseline + all three configurations: the pool
    // balances the whole 4x19 matrix instead of four serial passes.
    let mut modes = vec![SecurityMode::NonSecure];
    modes.extend(configs.iter().map(|(_, m, _)| *m));
    let sweep = Sweep::new().modes(&modes).config(&cfg).run();
    let base = &sweep.mode(SecurityMode::NonSecure).expect("baseline").runs;
    let mut rows = Vec::new();
    for (label, mode, paper) in configs {
        let rs = &sweep.mode(mode).expect("swept mode").runs;
        let factors: Vec<f64> = base
            .iter()
            .zip(rs.iter())
            .map(|(b, r)| r.report.slowdown_vs(&b.report))
            .collect();
        let g = geomean(&factors);
        rows.push(vec![label.to_string(), slowdown_pct(g), paper.to_string()]);
    }
    println!(
        "{}",
        table(
            &["configuration", "slowdown(meas)", "slowdown(paper)"],
            &rows
        )
    );
    println!("\npaper: randomization is nearly free — random L1 replacement");
    println!("adds misses that the L2 absorbs, and CEASER costs 2 cycles of");
    println!("L2 latency; together under 1% slowdown.");
}
