//! Figure 4 — The motivation study: execution time (a) and network traffic
//! (b) of InvisiSpec normalized to the non-secure baseline, with the
//! traffic broken into regular / invisible-load / update-load messages.
//! Paper (initial estimates): ~67.5% slowdown and ~+51% traffic, roughly
//! half of the traffic being speculative + update loads.

use cleanupspec::modes::SecurityMode;
use cleanupspec_bench::fmt::{geomean, pct, slowdown_pct, table};
use cleanupspec_bench::runner::ExperimentConfig;
use cleanupspec_bench::Sweep;
use cleanupspec_mem::stats::MsgClass;

fn main() {
    let cfg = ExperimentConfig::default();
    println!("== Figure 4: InvisiSpec (initial) vs non-secure ==");
    println!("   {} instructions per workload\n", cfg.insts);
    let sweep = Sweep::new()
        .modes(&[SecurityMode::NonSecure, SecurityMode::InvisiSpecInitial])
        .config(&cfg)
        .run();
    let mut groups = sweep.modes.into_iter();
    let base = groups.next().expect("baseline mode").into_pairs();
    let invi = groups.next().expect("invisispec mode").into_pairs();
    let mut rows = Vec::new();
    let mut slow = Vec::new();
    let mut traf = Vec::new();
    for ((w, b), (_, i)) in base.iter().zip(&invi) {
        let f = i.slowdown_vs(b);
        let t = i.traffic_vs(b);
        slow.push(f);
        traf.push(t);
        rows.push(vec![
            w.name.to_string(),
            format!("{f:.2}"),
            format!("{t:.2}"),
            pct(i.traffic_share(MsgClass::SpecLoad)),
            pct(i.traffic_share(MsgClass::UpdateLoad)),
        ]);
    }
    let (gs, gt) = (geomean(&slow), geomean(&traf));
    rows.push(vec![
        "GEOMEAN".into(),
        format!("{gs:.2}"),
        format!("{gt:.2}"),
        String::new(),
        String::new(),
    ]);
    println!(
        "{}",
        table(
            &[
                "workload",
                "norm.time",
                "norm.traffic",
                "spec-load%",
                "update-load%"
            ],
            &rows
        )
    );
    println!(
        "\nInvisiSpec (initial estimate) slowdown: {}",
        slowdown_pct(gs)
    );
    println!(
        "network traffic vs baseline:            {}",
        slowdown_pct(gt)
    );
    println!("\npaper: 67.5% average slowdown, +51% network traffic; about");
    println!("half of all traffic is due to invisible + update loads.");
}
