//! Per-core committed-instruction log.
//!
//! Records every [`SimEvent::Commit`] as `(pc, line)` in commit order, one
//! stream per core. The `cs-smith` architectural-equivalence oracle
//! compares these streams across security schemes and against the in-order
//! reference interpreter: schemes may reorder *execution* freely, but the
//! committed stream is architecture and must be identical everywhere.

use crate::event::{KindSet, SimEvent};
use crate::observer::EventSink;

/// One committed instruction: its PC and, for loads, the accessed line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CommitEntry {
    /// Program counter.
    pub pc: u64,
    /// Raw line address for loads; `None` for other instructions (and for
    /// loads whose line was unavailable at commit, e.g. a load-queue entry
    /// already released to an off-critical-path validation).
    pub line: Option<u64>,
}

/// An [`EventSink`] accumulating per-core commit streams.
#[derive(Default, Debug)]
pub struct CommitLogSink {
    streams: Vec<Vec<CommitEntry>>,
}

impl CommitLogSink {
    /// An empty log; per-core streams appear as cores commit.
    pub fn new() -> Self {
        CommitLogSink::default()
    }

    /// The commit stream of `core` (empty if it never committed).
    pub fn stream(&self, core: usize) -> &[CommitEntry] {
        self.streams.get(core).map_or(&[], Vec::as_slice)
    }

    /// Number of cores that have committed at least one instruction.
    pub fn cores(&self) -> usize {
        self.streams.len()
    }

    /// The committed PCs of `core` (the scheme-invariant part of the
    /// stream: `line` may legitimately be absent under schemes that
    /// release the load queue early).
    pub fn pcs(&self, core: usize) -> Vec<u64> {
        self.stream(core).iter().map(|e| e.pc).collect()
    }

    /// Total commits across all cores.
    pub fn total(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }
}

impl EventSink for CommitLogSink {
    fn record(&mut self, _cycle: u64, event: &SimEvent) {
        if let SimEvent::Commit { core, pc, line, .. } = event {
            if self.streams.len() <= *core {
                self.streams.resize_with(*core + 1, Vec::new);
            }
            self.streams[*core].push(CommitEntry {
                pc: *pc,
                line: *line,
            });
        }
    }

    fn interest(&self) -> KindSet {
        const COMMITS: KindSet = KindSet::of(&["commit"]);
        COMMITS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_core_streams_in_order() {
        let mut s = CommitLogSink::new();
        s.record(
            1,
            &SimEvent::Commit {
                core: 0,
                seq: 0,
                pc: 10,
                line: None,
            },
        );
        s.record(
            2,
            &SimEvent::Commit {
                core: 1,
                seq: 0,
                pc: 20,
                line: Some(0x40),
            },
        );
        s.record(
            3,
            &SimEvent::Commit {
                core: 0,
                seq: 1,
                pc: 11,
                line: None,
            },
        );
        // Non-commit events are ignored.
        s.record(4, &SimEvent::DramWriteback { line: 1 });
        assert_eq!(s.cores(), 2);
        assert_eq!(s.pcs(0), vec![10, 11]);
        assert_eq!(s.stream(1)[0].line, Some(0x40));
        assert_eq!(s.total(), 3);
        assert!(s.stream(7).is_empty());
    }

    #[test]
    fn kinds_outside_interest_leave_the_log_untouched() {
        let mut s = CommitLogSink::new();
        let interest = s.interest();
        let events = crate::event::sample_events();
        for (cycle, e) in (0..).zip(&events) {
            if interest.contains(e) {
                s.record(cycle, e);
            }
        }
        let before = format!("{s:?}");
        for (cycle, e) in (0..).zip(&events) {
            if !interest.contains(e) {
                s.record(cycle, e);
            }
        }
        assert_eq!(format!("{s:?}"), before);
        assert_eq!(s.total(), 1);
        assert_eq!(interest, KindSet::of(&["commit"]));
    }
}
