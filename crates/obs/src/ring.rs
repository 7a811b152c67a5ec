//! Bounded in-memory ring buffer sink.

use crate::event::SimEvent;
use crate::observer::EventSink;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// One recorded event with its cycle stamp.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EventRecord {
    /// Simulation cycle the event occurred at.
    pub cycle: u64,
    /// The event.
    pub event: SimEvent,
}

/// Keeps the most recent `capacity` events; older ones are discarded.
///
/// The simulator's only event trace: a bounded window fed by every layer
/// of the machine.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    buf: VecDeque<EventRecord>,
    total: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            total: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &EventRecord> {
        self.buf.iter()
    }

    /// The retained events as an owned vector, oldest first.
    pub fn to_vec(&self) -> Vec<EventRecord> {
        self.buf.iter().copied().collect()
    }

    /// Total events ever recorded (including discarded ones).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events discarded because the ring was full — the backpressure
    /// signal a sizing flag (`--ring-capacity`) is tuned against.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Human-readable dump, one line per retained event.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for r in &self.buf {
            let _ = writeln!(out, "c{:>8} {}", r.cycle, r.event);
        }
        out
    }
}

impl EventSink for RingSink {
    fn record(&mut self, cycle: u64, event: &SimEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(EventRecord {
            cycle,
            event: *event,
        });
        self.total += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(line: u64) -> SimEvent {
        SimEvent::DramWriteback { line }
    }

    #[test]
    fn keeps_most_recent_when_full() {
        let mut r = RingSink::new(3);
        for i in 0..5 {
            r.record(i, &ev(i));
        }
        assert_eq!(r.total_recorded(), 5);
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.dropped(), 2);
        let lines: Vec<u64> = r.events().map(|e| e.cycle).collect();
        assert_eq!(lines, vec![2, 3, 4]);
    }

    #[test]
    fn dump_contains_cycle_and_kind() {
        let mut r = RingSink::new(8);
        r.record(42, &ev(0x99));
        let d = r.dump();
        assert!(d.contains("c      42"), "{d}");
        assert!(d.contains("dram-writeback"), "{d}");
        assert!(d.contains("line=0x99"), "{d}");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = RingSink::new(0);
        r.record(1, &ev(1));
        r.record(2, &ev(2));
        assert_eq!(r.events().count(), 1);
    }
}
