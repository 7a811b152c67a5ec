//! Attach the event bus to a Spectre-V1 run: dump the transient episode
//! from the ring buffer, check it for speculative residue with the
//! episode ledger, and print the
//! load-latency histograms — under CleanupSpec and the insecure baseline.
//!
//! ```sh
//! cargo run --release --example trace_spectre
//! ```
//!
//! For Perfetto/JSONL export and arbitrary programs, use the CLI instead:
//! `cargo run --release -p cleanupspec-bench --bin cs-trace -- --help`.

use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::SimBuilder;
use cleanupspec_obs::{EpisodeBuilder, PathKind, RingSink, Shared};
use cleanupspec_suite::core_sim::system::RunLimits;
use cleanupspec_suite::workloads::attacks::{spectre_v1_program, SpectreConfig};

fn main() {
    for mode in [SecurityMode::CleanupSpec, SecurityMode::NonSecure] {
        println!("=== {} ===", mode.name());

        // Keep handles to the sinks so we can inspect them afterwards.
        let ring = Shared::new(RingSink::new(10_000));
        let ledger = Shared::new(EpisodeBuilder::new());
        let mut sim = SimBuilder::new(mode)
            .program(spectre_v1_program(&SpectreConfig::default()))
            .sink(Box::new(ring.clone()))
            .sink(Box::new(ledger.clone()))
            .build();
        sim.run(RunLimits {
            max_cycles: 2_000_000,
            max_insts_per_core: 50_000,
            ..RunLimits::default()
        });
        sim.drain(2_000); // let in-flight fills land before judging
        sim.finish_observer();

        // The speculation-relevant slice of the event stream.
        println!("-- squash/cleanup events --");
        for r in ring.with(|s| s.to_vec()) {
            if matches!(r.event.layer().as_str(), "cleanup") || r.event.kind().starts_with("squash")
            {
                println!("c{:>7} {}", r.cycle, r.event);
            }
        }

        // Latency histograms recorded by the memory hierarchy.
        let report = sim.report();
        println!("-- load latency by path --");
        for path in PathKind::ALL {
            let h = &report.mem.load_latency[path.index()];
            if h.count() > 0 {
                println!(
                    "  {:<10} n={:<6} mean={:>6.1}  p50={:>4}  p99={:>4}  max={:>4}",
                    path.as_str(),
                    h.count(),
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max()
                );
            }
        }

        // The undo invariant, checked from events alone.
        println!("{}\n", ledger.with(|l| l.report()));
    }
}
