//! Figure 12 — Execution time of CleanupSpec normalized to the non-secure
//! baseline, per workload plus geometric mean (paper: 5.1% average, ~24%
//! for astar, ~11% for bzip2, ~0% for lbm/milc/libq).

use cleanupspec::modes::SecurityMode;
use cleanupspec_bench::fmt::{bar, geomean, slowdown_pct, table};
use cleanupspec_bench::runner::ExperimentConfig;
use cleanupspec_bench::svg::{maybe_write, Bar, BarChart};
use cleanupspec_bench::Sweep;

fn main() {
    let cfg = ExperimentConfig::default();
    println!("== Figure 12: CleanupSpec slowdown vs non-secure baseline ==");
    println!("   {} instructions per workload\n", cfg.insts);
    let sweep = Sweep::new()
        .modes(&[SecurityMode::NonSecure, SecurityMode::CleanupSpec])
        .config(&cfg)
        .run();
    let mut groups = sweep.modes.into_iter();
    let base = groups.next().expect("baseline mode").into_pairs();
    let cusp = groups.next().expect("cleanupspec mode").into_pairs();
    let mut rows = Vec::new();
    let mut factors = Vec::new();
    for ((w, b), (_, c)) in base.iter().zip(&cusp) {
        let f = c.slowdown_vs(b);
        factors.push(f);
        rows.push(vec![
            w.name.to_string(),
            format!("{:.3}", f),
            slowdown_pct(f),
        ]);
    }
    let g = geomean(&factors);
    rows.push(vec!["GEOMEAN".into(), format!("{g:.3}"), slowdown_pct(g)]);
    println!("{}", table(&["workload", "norm.time", "slowdown"], &rows));
    println!();
    for ((w, _), f) in base.iter().zip(&factors) {
        println!("{}", bar(w.name, *f, 1.3));
    }
    println!("{}", bar("GEOMEAN", g, 1.3));
    let chart = BarChart {
        title: "Figure 12: CleanupSpec execution time (normalized)".into(),
        y_label: "normalized execution time".into(),
        bars: base
            .iter()
            .zip(&factors)
            .map(|((w, _), f)| Bar {
                label: w.name.to_string(),
                segments: vec![*f],
            })
            .chain(std::iter::once(Bar {
                label: "GEOMEAN".into(),
                segments: vec![g],
            }))
            .collect(),
        segment_names: vec![],
        reference: Some(1.0),
    };
    if let Some(p) = maybe_write("fig12_slowdown", &chart.render()) {
        println!("\n[svg written to {}]", p.display());
    }
    println!("\npaper: 5.1% average slowdown; highest for high-mispredict");
    println!("workloads (astar ~24%, bzip2 ~11%), ~0% for lbm/milc/libq.");
}
