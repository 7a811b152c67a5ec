//! Tests of the event trace (the obs bus feeding a `RingSink`) against a
//! known attack timeline.

use cleanupspec::prelude::*;
use cleanupspec_obs::{RingSink, Shared, SimEvent};
use cleanupspec_suite::workloads::attacks::{meltdown_program, MeltdownConfig};

fn run_meltdown(mode: SecurityMode, ring: &Shared<RingSink>) {
    let cfg = MeltdownConfig::default();
    let mut sim = SimBuilder::new(mode)
        .program(meltdown_program(&cfg))
        .sink(Box::new(ring.clone()))
        .build();
    sim.run(RunLimits {
        max_cycles: 200_000,
        max_insts_per_core: u64::MAX,
        ..RunLimits::default()
    });
    sim.finish_observer();
}

/// The per-instruction pipeline events, all stamped with the cycle they
/// happen in (cleanup-end events are stamped with a future cycle).
fn is_core_timeline(e: &SimEvent) -> bool {
    matches!(
        e,
        SimEvent::Dispatch { .. }
            | SimEvent::LoadIssue { .. }
            | SimEvent::Commit { .. }
            | SimEvent::Squash { .. }
            | SimEvent::Fault { .. }
    )
}

#[test]
fn trace_captures_meltdown_timeline() {
    let ring = Shared::new(RingSink::new(1 << 16));
    run_meltdown(SecurityMode::CleanupSpec, &ring);
    let records = ring.with(|r| {
        assert_eq!(r.dropped(), 0, "ring holds the whole run");
        r.to_vec()
    });
    let timeline: Vec<_> = records
        .iter()
        .filter(|r| r.event.core() == Some(0) && is_core_timeline(&r.event))
        .collect();
    // The secret load and the transient transmission both issued...
    let loads: Vec<_> = timeline
        .iter()
        .filter(|r| matches!(r.event, SimEvent::LoadIssue { .. }))
        .collect();
    assert!(loads.len() >= 2, "secret + transmission loads: {loads:?}");
    // ...a fault was raised...
    assert!(timeline
        .iter()
        .any(|r| matches!(r.event, SimEvent::Fault { .. })));
    // ...and the timeline is cycle-monotonic.
    assert!(timeline.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    // The dump is renderable and mentions the fault.
    let dump = ring.with(|r| r.dump());
    assert!(dump.contains("fault"));
    assert!(dump.contains("dispatch"));
}

#[test]
fn trace_disabled_by_default_and_bounded_when_on() {
    let cfg = MeltdownConfig::default();
    let sim = SimBuilder::new(SecurityMode::NonSecure)
        .program(meltdown_program(&cfg))
        .build();
    assert!(!sim.observer().is_enabled());
    let ring = Shared::new(RingSink::new(4));
    run_meltdown(SecurityMode::NonSecure, &ring);
    ring.with(|r| {
        assert!(r.events().count() <= 4, "ring buffer bound respected");
        assert!(r.total_recorded() > 4, "more events happened than retained");
    });
}
