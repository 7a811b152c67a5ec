//! Layer spans for the traced run, recorded from outside the simulator.
//!
//! Every layer is timed at its public boundary: the benchmark's own tick
//! loop wraps `MemHierarchy::advance` and `Pipeline::tick`,
//! [`TimedScheme`] wraps a `SpeculationScheme`, and [`TimedSink`] wraps an
//! `EventSink`. Spans nest; each records its inclusive time and its self
//! time (inclusive minus the spans that ran inside it), so self times add
//! up to the traced time without double counting.
//!
//! Spans live in a thread-local table: the simulator runs on one thread,
//! and the table is read and reset between passes. When disabled, a span
//! costs one thread-local read.

use cleanupspec_core::scheme::{
    CommitAction, CommittedLoad, LoadIssue, LoadIssuePolicy, SpeculationScheme, SquashInfo,
    SquashResponse,
};
use cleanupspec_mem::hierarchy::{LoadOutcome, MemHierarchy};
use cleanupspec_mem::types::{CoreId, Cycle};
use cleanupspec_mem::SimError;
use cleanupspec_obs::{EventSink, SimEvent};
use std::cell::RefCell;
use std::time::Instant;

/// A timed layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Pipeline::tick`.
    Tick,
    /// `MemHierarchy::advance`.
    Advance,
    /// `SpeculationScheme::issue_load` (includes `MemHierarchy::load`).
    IssueLoad,
    /// `SpeculationScheme::commit_load` and `on_load_visible`.
    CommitLoad,
    /// `SpeculationScheme::on_squash`.
    OnSquash,
    /// The commit-log sink.
    SinkCommitLog,
    /// The leakage-audit sink.
    SinkAudit,
    /// The episode-builder sink.
    SinkEpisode,
    /// `reference::interpret`.
    Reference,
    /// The `System` clone of the checkpoint-resume replay.
    SnapClone,
    /// `SimBuilder::build` or `System::new` with its observer.
    SimBuild,
    /// Program and plan generation in `workloads`.
    WorkloadsBuild,
    /// One fuzz seed's scheme runs and judging (the `run_plan` body).
    RunPlan,
}

const LAYERS: usize = 13;

impl Layer {
    fn index(self) -> usize {
        self as usize
    }
}

/// Totals per layer since the last [`reset`].
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Inclusive nanoseconds.
    pub incl_ns: [u64; LAYERS],
    /// Self nanoseconds (inclusive minus nested spans).
    pub self_ns: [u64; LAYERS],
    /// Spans closed.
    pub calls: [u64; LAYERS],
    /// `issue_load` calls refused with `Err` (MSHR or SEFE file full).
    pub issue_retries: u64,
}

impl Totals {
    /// Inclusive nanoseconds of `l`.
    pub fn incl(&self, l: Layer) -> u64 {
        self.incl_ns[l.index()]
    }
    /// Self nanoseconds of `l`.
    pub fn self_ns(&self, l: Layer) -> u64 {
        self.self_ns[l.index()]
    }
    /// Spans of `l`.
    pub fn calls(&self, l: Layer) -> u64 {
        self.calls[l.index()]
    }
}

#[derive(Default)]
struct Prof {
    enabled: bool,
    totals: Totals,
    /// Time covered by child spans, one entry per open span.
    child_ns: Vec<u64>,
}

thread_local! {
    static PROF: RefCell<Prof> = RefCell::new(Prof::default());
}

/// Turns span recording on or off for this thread and clears the totals.
pub fn reset(enabled: bool) {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        p.enabled = enabled;
        p.totals = Totals::default();
        p.child_ns.clear();
    });
}

/// The totals recorded since the last [`reset`].
pub fn totals() -> Totals {
    PROF.with(|p| p.borrow().totals.clone())
}

/// Runs `f` inside a span of layer `l` (just runs it when disabled).
#[inline]
pub fn span<R>(l: Layer, f: impl FnOnce() -> R) -> R {
    span_calls(l, 1, f)
}

/// [`span`] for a loop of `calls` calls of layer `l` timed as one span.
#[inline]
pub fn span_calls<R>(l: Layer, calls: u64, f: impl FnOnce() -> R) -> R {
    let enabled = PROF.with(|p| {
        let mut p = p.borrow_mut();
        if p.enabled {
            p.child_ns.push(0);
        }
        p.enabled
    });
    if !enabled {
        return f();
    }
    let start = Instant::now();
    let r = f();
    let dt = start.elapsed().as_nanos() as u64;
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        let child = p.child_ns.pop().expect("span stack is balanced");
        if let Some(parent) = p.child_ns.last_mut() {
            *parent += dt;
        }
        let t = &mut p.totals;
        t.incl_ns[l.index()] += dt;
        t.self_ns[l.index()] += dt.saturating_sub(child);
        t.calls[l.index()] += calls;
    });
    r
}

fn note_issue_retry() {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        if p.enabled {
            p.totals.issue_retries += 1;
        }
    });
}

/// A `SpeculationScheme` that forwards every call to the wrapped scheme,
/// timing the load-issue, load-commit and squash entry points. `name()`
/// and `stat_counters()` are the wrapped scheme's own.
#[derive(Debug)]
pub struct TimedScheme(pub Box<dyn SpeculationScheme>);

impl SpeculationScheme for TimedScheme {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(TimedScheme(self.0.boxed_clone()))
    }
    fn issue_policy(&self) -> LoadIssuePolicy {
        self.0.issue_policy()
    }
    fn issue_load(
        &mut self,
        mem: &mut MemHierarchy,
        req: LoadIssue,
    ) -> Result<LoadOutcome, SimError> {
        let out = span(Layer::IssueLoad, || self.0.issue_load(mem, req));
        if out.is_err() {
            note_issue_retry();
        }
        out
    }
    fn on_load_visible(
        &mut self,
        mem: &mut MemHierarchy,
        core: CoreId,
        load: CommittedLoad,
        now: Cycle,
    ) -> Option<Cycle> {
        span(Layer::CommitLoad, || {
            self.0.on_load_visible(mem, core, load, now)
        })
    }
    fn commit_load(
        &mut self,
        mem: &mut MemHierarchy,
        core: CoreId,
        load: CommittedLoad,
        now: Cycle,
    ) -> CommitAction {
        span(Layer::CommitLoad, || {
            self.0.commit_load(mem, core, load, now)
        })
    }
    fn waits_for_older_inflight(&self) -> bool {
        self.0.waits_for_older_inflight()
    }
    fn stalls_issue_during_cleanup(&self) -> bool {
        self.0.stalls_issue_during_cleanup()
    }
    fn uses_window_protection(&self) -> bool {
        self.0.uses_window_protection()
    }
    fn on_squash(&mut self, mem: &mut MemHierarchy, info: SquashInfo<'_>) -> SquashResponse {
        span(Layer::OnSquash, || self.0.on_squash(mem, info))
    }
    fn reset_stats(&mut self) {
        self.0.reset_stats();
    }
    fn stat_counters(&self) -> Vec<(&'static str, u64)> {
        self.0.stat_counters()
    }
}

/// An `EventSink` that forwards every event to the wrapped sink inside a
/// span of its own layer.
pub struct TimedSink {
    layer: Layer,
    inner: Box<dyn EventSink>,
}

impl TimedSink {
    /// Wraps `inner`, timing it as `layer`.
    pub fn new(layer: Layer, inner: Box<dyn EventSink>) -> Self {
        TimedSink { layer, inner }
    }
}

impl EventSink for TimedSink {
    fn record(&mut self, cycle: u64, event: &SimEvent) {
        let inner = &mut self.inner;
        span(self.layer, || inner.record(cycle, event));
    }
    fn finish(&mut self) {
        self.inner.finish();
    }
}
