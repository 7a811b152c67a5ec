//! Table 6 — Slowdown comparison: CleanupSpec vs both InvisiSpec variants
//! (all normalized to the non-secure baseline), plus the delay-based
//! baseline as an extra reference point.
//! Paper: InvisiSpec initial 67.5%, InvisiSpec revised ~15%,
//! CleanupSpec 5.1%.

use cleanupspec::modes::SecurityMode;
use cleanupspec_bench::fmt::{geomean, slowdown_pct, table};
use cleanupspec_bench::runner::ExperimentConfig;
use cleanupspec_bench::Sweep;

fn main() {
    let cfg = ExperimentConfig::default();
    println!("== Table 6: CleanupSpec vs InvisiSpec ==");
    println!("   {} instructions per workload\n", cfg.insts);
    let entries = [
        (SecurityMode::InvisiSpecInitial, "67.5%"),
        (SecurityMode::InvisiSpecRevised, "15%"),
        (SecurityMode::CleanupSpec, "5.1%"),
        (SecurityMode::DelaySpeculativeLoads, "(n/a; NDA-like >20%)"),
    ];
    let mut modes = vec![SecurityMode::NonSecure];
    modes.extend(entries.iter().map(|(m, _)| *m));
    let sweep = Sweep::new().modes(&modes).config(&cfg).run();
    let base = &sweep.mode(SecurityMode::NonSecure).expect("baseline").runs;
    let mut rows = Vec::new();
    for (mode, paper) in entries {
        let rs = &sweep.mode(mode).expect("swept mode").runs;
        let factors: Vec<f64> = base
            .iter()
            .zip(rs.iter())
            .map(|(b, r)| r.report.slowdown_vs(&b.report))
            .collect();
        rows.push(vec![
            mode.name().to_string(),
            slowdown_pct(geomean(&factors)),
            paper.to_string(),
        ]);
    }
    println!(
        "{}",
        table(
            &["configuration", "slowdown(meas)", "slowdown(paper)"],
            &rows
        )
    );
    println!("\npaper ordering: InvisiSpec-initial >> InvisiSpec-revised >");
    println!("CleanupSpec; the Redo approach pays on every correct-path load,");
    println!("the Undo approach only on squashed L1 misses.");
}
