//! cs-snap resume-exactness: running to cycle N, snapshotting, and
//! continuing — or restoring and re-running — must be indistinguishable
//! from an uninterrupted run, for every security mode. The comparison is
//! byte-level on the canonical `snap::report_json` serialization, so any
//! un-captured state (RNG streams, SEFE slots, CEASER keys, predictor
//! tables, watchdog progress) that changes a single counter fails loudly.
//!
//! Seeds come from a SplitMix64 stream (the repo's hermetic-test
//! convention): deterministic, no `rand` dependency.

use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::{SimBuilder, Simulator};
use cleanupspec::snap;
use cleanupspec_core::system::RunLimits;
use cleanupspec_mem::rng::SplitMix64;
use cleanupspec_obs::{JsonValue, RingSink, Shared};
use cleanupspec_workloads::spec::spec_workload;

const INSTS: u64 = 3_000;
const WORKLOADS: [&str; 2] = ["gcc", "mcf"];

fn build_sim(mode: SecurityMode, workload: &str, seed: u64) -> Simulator {
    let w = spec_workload(workload).expect("known workload");
    SimBuilder::new(mode)
        .program(w.build(seed))
        .seed(seed)
        .build()
}

/// The limits `Simulator::run_insts(INSTS)` uses, reproduced so the
/// interrupted run can finish under identical absolute bounds.
fn full_limits() -> RunLimits {
    RunLimits {
        max_cycles: 400 * INSTS + 1_000_000,
        max_insts_per_core: INSTS,
        ..RunLimits::default()
    }
}

/// snapshot-at-N / continue and snapshot-at-N / restore / re-run must
/// both reproduce the uninterrupted report byte-for-byte, for every
/// mode, across seeds and several mid-run checkpoint points.
#[test]
fn resume_is_bit_exact_for_every_mode() {
    let mut rng = SplitMix64::new(0xC55A_AB20_19AB);
    for mode in SecurityMode::ALL {
        for workload in WORKLOADS {
            let seed = rng.next_u64();
            let mut base = build_sim(mode, workload, seed);
            base.run_insts(INSTS);
            let expect = snap::report_json(&base.report());
            let total_cycles = base.report().cycles;
            assert!(
                total_cycles > 100,
                "{mode}/{workload}: run too short to interrupt"
            );

            // Checkpoint at three mid-run points; with per-workload squash
            // rates in the hundreds this lands inside squash/cleanup
            // windows routinely.
            for frac in [3u64, 2, 4] {
                let at = total_cycles / frac;
                let mut sim = build_sim(mode, workload, seed);
                sim.run(RunLimits {
                    max_cycles: at,
                    ..full_limits()
                });
                let snap_state = sim.snapshot();
                assert_eq!(snap_state.mode(), mode);

                // Taking a snapshot must not perturb the run.
                sim.run(full_limits());
                let continued = snap::report_json(&sim.report());
                assert_eq!(
                    continued, expect,
                    "{mode}/{workload} seed {seed:#x}: continue after snapshot at cycle {at} diverged"
                );

                // Rewinding to the checkpoint and re-running the tail must
                // land on the identical report again.
                sim.restore(&snap_state);
                sim.run(full_limits());
                let restored = snap::report_json(&sim.report());
                assert_eq!(
                    restored, expect,
                    "{mode}/{workload} seed {seed:#x}: restore+rerun from cycle {at} diverged"
                );
            }
        }
    }
}

/// The interrupted run's event stream (minus the snapshot markers
/// themselves) must match the uninterrupted run's byte-for-byte.
#[test]
fn event_stream_is_bit_exact_across_snapshot() {
    let mode = SecurityMode::CleanupSpec;
    let seed = SplitMix64::new(0xEE_2019).next_u64();
    let capacity = 1 << 20;

    let dump_of = |sim: &mut Simulator, interrupt_at: Option<u64>| {
        let ring = Shared::new(RingSink::new(capacity));
        sim.set_sinks(vec![Box::new(ring.clone())]);
        if let Some(at) = interrupt_at {
            sim.run(RunLimits {
                max_cycles: at,
                ..full_limits()
            });
            let _ = sim.snapshot();
        }
        sim.run(full_limits());
        sim.finish_observer();
        let dump = ring.with(|r| {
            assert_eq!(r.dropped(), 0, "ring too small for byte-exact comparison");
            r.dump()
        });
        dump.lines()
            .filter(|l| !l.contains("snapshot-taken") && !l.contains("snapshot-restored"))
            .collect::<Vec<_>>()
            .join("\n")
    };

    let mut base = build_sim(mode, "gcc", seed);
    let expect = dump_of(&mut base, None);
    let mid = base.report().cycles / 2;

    let mut interrupted = build_sim(mode, "gcc", seed);
    let got = dump_of(&mut interrupted, Some(mid));
    assert_eq!(
        got, expect,
        "event stream changed across a snapshot at cycle {mid}"
    );
}

/// cs-snap serialization roundtrip at integration level: a real workload
/// report survives write → parse → re-serialize unchanged, for a
/// randomized and a non-randomized mode.
#[test]
fn serialized_report_roundtrips_real_reports() {
    let mut rng = SplitMix64::new(0x5E41_2019);
    for mode in [SecurityMode::NonSecure, SecurityMode::CleanupSpec] {
        let seed = rng.next_u64();
        let mut sim = build_sim(mode, "astar", seed);
        sim.run_insts(INSTS);
        let report = sim.report();
        let text = snap::report_json(&report);
        let back = JsonValue::parse(&text)
            .and_then(|v| snap::parse_report(&v))
            .expect("own output must parse");
        assert_eq!(snap::report_json(&back), text);
    }
}
