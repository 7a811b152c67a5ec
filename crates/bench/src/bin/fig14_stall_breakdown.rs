//! Figure 14 — Stall time per squash under CleanupSpec, decomposed into
//! the wait for inflight correct-path loads and the actual cleanup
//! operations (paper: ~25 cycles per squash on average, ~20 of which are
//! inflight wait and ~5 actual cleanup).
//!
//! Extended with differential CPI-stack attribution: each workload runs
//! under NonSecure and CleanupSpec with the same seed, and the two
//! top-down cycle stacks are diffed to show *where the slowdown goes* —
//! which stall buckets absorb the scheme's extra cycles.

use cleanupspec::modes::SecurityMode;
use cleanupspec_bench::attribution::{diff_stacks, top_overheads};
use cleanupspec_bench::fmt::table;
use cleanupspec_bench::runner::ExperimentConfig;
use cleanupspec_bench::svg::{maybe_write, Bar, BarChart};
use cleanupspec_bench::Sweep;

fn main() {
    let cfg = ExperimentConfig::default();
    println!("== Figure 14: stall cycles per squash (wait + cleanup) ==");
    println!("   {} instructions per workload\n", cfg.insts);
    let sweep = Sweep::new()
        .modes(&[SecurityMode::NonSecure, SecurityMode::CleanupSpec])
        .config(&cfg)
        .run();
    let mut groups = sweep.modes.into_iter();
    let baseline = groups.next().expect("baseline mode").into_pairs();
    let results = groups.next().expect("cleanupspec mode").into_pairs();
    let mut rows = Vec::new();
    let (mut sw, mut sc) = (0.0, 0.0);
    for (w, r) in &results {
        let (wait, cleanup) = r.cores[0].stall_per_squash();
        sw += wait;
        sc += cleanup;
        rows.push(vec![
            w.name.to_string(),
            format!("{wait:.1}"),
            format!("{cleanup:.1}"),
            format!("{:.1}", wait + cleanup),
        ]);
    }
    let n = results.len() as f64;
    rows.push(vec![
        "AVG".into(),
        format!("{:.1}", sw / n),
        format!("{:.1}", sc / n),
        format!("{:.1}", (sw + sc) / n),
    ]);
    println!(
        "{}",
        table(
            &["workload", "inflight-wait", "actual-cleanup", "total"],
            &rows
        )
    );
    let chart = BarChart {
        title: "Figure 14: stall time per squash".into(),
        y_label: "cycles per squash".into(),
        bars: results
            .iter()
            .map(|(w, r)| {
                let (wait, cleanup) = r.cores[0].stall_per_squash();
                Bar {
                    label: w.name.to_string(),
                    segments: vec![wait, cleanup],
                }
            })
            .collect(),
        segment_names: vec!["inflight-wait".into(), "actual-cleanup".into()],
        reference: None,
    };
    if let Some(p) = maybe_write("fig14_stall_breakdown", &chart.render()) {
        println!("\n[svg written to {}]", p.display());
    }

    // Where does the slowdown go? Per-workload top-3 stall buckets that
    // gained time (delta CPKI) under CleanupSpec vs the NonSecure run of
    // the same seed.
    println!("\n== Attribution: CPI-stack diff vs non-secure ==");
    let mut rows = Vec::new();
    for ((w, base), (_, secure)) in baseline.iter().zip(results.iter()) {
        let top = top_overheads(&diff_stacks(base, secure), 3);
        let causes = top
            .iter()
            .map(|d| format!("{} +{:.1}", d.cause.name(), d.delta_cpki))
            .collect::<Vec<_>>()
            .join(", ");
        rows.push(vec![
            w.name.to_string(),
            format!("{:.3}", secure.slowdown_vs(base)),
            if causes.is_empty() {
                "-".into()
            } else {
                causes
            },
        ]);
    }
    println!(
        "{}",
        table(
            &["workload", "slowdown", "top overheads (delta CPKI)"],
            &rows
        )
    );

    // Suite-wide view: every bucket whose share of time moved.
    let agg = |rs: &[(
        cleanupspec_workloads::spec::SpecWorkload,
        cleanupspec::sim::SimReport,
    )]| {
        let mut out = rs[0].1.clone();
        for (_, r) in &rs[1..] {
            out.cycles += r.cycles;
            for (i, c) in r.cores.iter().enumerate() {
                out.cores[i].committed_insts += c.committed_insts;
                out.cores[i].cpi_stack.merge(&c.cpi_stack);
            }
        }
        out
    };
    let deltas = diff_stacks(&agg(&baseline), &agg(&results));
    let rows: Vec<Vec<String>> = deltas
        .iter()
        .filter(|d| d.delta_cpki.abs() > 0.05)
        .map(|d| {
            vec![
                d.cause.name().to_string(),
                format!("{:.1}", d.base_cpki),
                format!("{:.1}", d.secure_cpki),
                format!("{:+.1}", d.delta_cpki),
            ]
        })
        .collect();
    println!("\nsuite-wide CPI stack (cycles per kilo-instruction):");
    println!(
        "{}",
        table(&["cause", "non-secure", "cleanupspec", "delta"], &rows)
    );
    let scheme: f64 = deltas
        .iter()
        .filter(|d| d.cause.is_scheme_overhead())
        .map(|d| d.delta_cpki.max(0.0))
        .sum();
    println!("scheme-overhead buckets add {scheme:.1} CPKI suite-wide");

    println!("\npaper: ~25 cycles total per squash on average; the wait for");
    println!("inflight correct-path loads dominates (~20 of ~25), with only");
    println!("~5 cycles of actual cleanup; lbm/milc need 20-25 cleanup cycles.");
}
