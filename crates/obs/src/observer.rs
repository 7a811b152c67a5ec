//! The shared [`Observer`] handle instrumented code emits through, and the
//! [`EventSink`] trait sinks implement.
//!
//! The event bus is single-threaded: a run emits every event from the one
//! thread that simulates it, so the fan-out list and each [`Shared`] sink
//! sit behind an `Rc<RefCell<_>>`, not a lock. Delivering an event costs a
//! borrow-flag check per layer, not a lock/unlock pair. A parallel harness
//! builds each run's observer and sinks on the worker thread that runs it;
//! neither handle is `Send`. A sink that emits back into the observer
//! delivering to it panics on the second borrow (where a lock would have
//! deadlocked).

use crate::event::{KindSet, SimEvent};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A consumer of simulation events.
///
/// Sinks are driven strictly in emission order from the simulation
/// thread; no sink is ever called concurrently.
pub trait EventSink {
    /// Consumes one event. `cycle` is the simulation cycle it occurred at.
    fn record(&mut self, cycle: u64, event: &SimEvent);

    /// The event kinds `record` reads; the [`Observer`] delivers no other
    /// kind. It must be constant for the sink's lifetime (the observer
    /// reads it once), and leaving a kind out must mean `record` ignores
    /// that kind. Defaults to every kind.
    fn interest(&self) -> KindSet {
        KindSet::ALL
    }

    /// Flushes buffered output. Called once when the run finishes.
    fn finish(&mut self) {}
}

/// The shared fan-out list behind an enabled [`Observer`]: every sink
/// with its interest, and their union.
struct Fanout {
    interest: KindSet,
    sinks: RefCell<Vec<(KindSet, Box<dyn EventSink>)>>,
}

/// A cloneable handle that fans events out to attached sinks.
///
/// The disabled handle (no sinks, the default) costs one branch per
/// emission site. An event whose kind no sink is interested in
/// ([`EventSink::interest`]) costs one more, and each sink receives only
/// the kinds it declared.
#[derive(Clone, Default)]
pub struct Observer {
    sinks: Option<Rc<Fanout>>,
}

impl Observer {
    /// A handle with no sinks; every `emit` is a no-op.
    pub fn disabled() -> Self {
        Observer::default()
    }

    /// A handle fanning out to `sinks` (disabled if the list is empty).
    pub fn new(sinks: Vec<Box<dyn EventSink>>) -> Self {
        if sinks.is_empty() {
            return Observer::disabled();
        }
        let sinks: Vec<_> = sinks.into_iter().map(|s| (s.interest(), s)).collect();
        let interest = sinks
            .iter()
            .fold(KindSet::NONE, |all, (kinds, _)| all.union(*kinds));
        Observer {
            sinks: Some(Rc::new(Fanout {
                interest,
                sinks: RefCell::new(sinks),
            })),
        }
    }

    /// A handle with a single sink.
    pub fn single(sink: Box<dyn EventSink>) -> Self {
        Observer::new(vec![sink])
    }

    /// Whether any sink is attached. Use to guard emission sites whose
    /// event *construction* is itself costly.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sinks.is_some()
    }

    /// Records `event` at `cycle` in every sink interested in its kind.
    /// No-op when disabled or when no sink is interested.
    #[inline]
    pub fn emit(&self, cycle: u64, event: SimEvent) {
        if let Some(fanout) = &self.sinks {
            let kind = event.kind_index();
            if !fanout.interest.contains_index(kind) {
                return;
            }
            let mut sinks = fanout.sinks.borrow_mut();
            for (interest, s) in sinks.iter_mut() {
                if interest.contains_index(kind) {
                    s.record(cycle, &event);
                }
            }
        }
    }

    /// Records the event produced by `make` — which runs only when a sink
    /// is attached, keeping argument computation off the disabled path.
    #[inline]
    pub fn emit_with(&self, cycle: u64, make: impl FnOnce() -> SimEvent) {
        if self.is_enabled() {
            self.emit(cycle, make());
        }
    }

    /// Calls [`EventSink::finish`] on every sink.
    pub fn finish(&self) {
        if let Some(fanout) = &self.sinks {
            let mut sinks = fanout.sinks.borrow_mut();
            for (_, s) in sinks.iter_mut() {
                s.finish();
            }
        }
    }
}

impl fmt::Debug for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.sinks {
            Some(fanout) => {
                let n = fanout.sinks.try_borrow().map_or(0, |v| v.len());
                write!(f, "Observer({n} sinks)")
            }
            None => write!(f, "Observer(disabled)"),
        }
    }
}

/// A sink wrapper that keeps an inspectable handle on the caller's side.
///
/// [`Observer::new`] takes ownership of its sinks, but tests and the
/// `cs-trace` CLI need to read a sink back after the run (dump the ring,
/// ask the episode ledger for its verdict). `Shared` clones hand the same
/// underlying sink to both sides:
///
/// ```
/// use cleanupspec_obs::{Observer, RingSink, Shared, SimEvent};
/// let ring = Shared::new(RingSink::new(16));
/// let obs = Observer::single(Box::new(ring.clone()));
/// obs.emit(3, SimEvent::DramWriteback { line: 0x40 });
/// assert_eq!(ring.with(|r| r.total_recorded()), 1);
/// ```
pub struct Shared<S>(Rc<RefCell<S>>);

impl<S> Clone for Shared<S> {
    fn clone(&self) -> Self {
        Shared(Rc::clone(&self.0))
    }
}

impl<S: EventSink> Shared<S> {
    /// Wraps a sink for shared access.
    pub fn new(sink: S) -> Self {
        Shared(Rc::new(RefCell::new(sink)))
    }

    /// Runs `f` with exclusive access to the wrapped sink. Panics if
    /// called from inside that sink's own `record` (a re-entrant borrow).
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }
}

impl<S: EventSink> EventSink for Shared<S> {
    fn record(&mut self, cycle: u64, event: &SimEvent) {
        self.0.borrow_mut().record(cycle, event);
    }

    fn finish(&mut self) {
        self.0.borrow_mut().finish();
    }

    fn interest(&self) -> KindSet {
        self.0.borrow().interest()
    }
}

impl<S: fmt::Debug> fmt::Debug for Shared<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shared(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting {
        seen: u64,
        finished: bool,
    }
    impl EventSink for Counting {
        fn record(&mut self, _cycle: u64, _event: &SimEvent) {
            self.seen += 1;
        }
        fn finish(&mut self) {
            self.finished = true;
        }
    }

    #[test]
    fn disabled_observer_is_inert() {
        let obs = Observer::disabled();
        assert!(!obs.is_enabled());
        obs.emit(1, SimEvent::DramWriteback { line: 1 });
        obs.finish(); // must not panic
    }

    #[test]
    fn emit_fans_out_to_all_sinks() {
        let a = Shared::new(Counting::default());
        let b = Shared::new(Counting::default());
        let obs = Observer::new(vec![Box::new(a.clone()), Box::new(b.clone())]);
        assert!(obs.is_enabled());
        for c in 0..5 {
            obs.emit(c, SimEvent::DramWriteback { line: c });
        }
        obs.finish();
        assert_eq!(a.with(|s| s.seen), 5);
        assert_eq!(b.with(|s| s.seen), 5);
        assert!(a.with(|s| s.finished));
    }

    #[test]
    fn emit_with_skips_construction_when_disabled() {
        let obs = Observer::disabled();
        let mut called = false;
        obs.emit_with(0, || {
            called = true;
            SimEvent::DramWriteback { line: 0 }
        });
        assert!(!called);
    }

    #[test]
    fn empty_sink_list_is_disabled() {
        assert!(!Observer::new(Vec::new()).is_enabled());
    }

    /// Emits every event it receives back into `0`.
    struct Echo(Option<Observer>);
    impl EventSink for Echo {
        fn record(&mut self, cycle: u64, event: &SimEvent) {
            if let Some(obs) = &self.0 {
                obs.emit(cycle, *event);
            }
        }
    }

    #[test]
    #[should_panic(expected = "already borrowed")]
    fn a_reentrant_emit_panics_instead_of_deadlocking() {
        let echo = Shared::new(Echo(None));
        let obs = Observer::single(Box::new(echo.clone()));
        echo.with(|e| e.0 = Some(obs.clone()));
        obs.emit(0, SimEvent::DramWriteback { line: 0 });
    }

    #[test]
    fn clones_share_sinks() {
        let a = Shared::new(Counting::default());
        let obs = Observer::single(Box::new(a.clone()));
        let obs2 = obs.clone();
        obs.emit(0, SimEvent::DramWriteback { line: 0 });
        obs2.emit(1, SimEvent::DramWriteback { line: 1 });
        assert_eq!(a.with(|s| s.seen), 2);
    }

    /// Records every event it receives, in order.
    struct Log {
        interest: KindSet,
        seen: Vec<(u64, SimEvent)>,
    }
    impl EventSink for Log {
        fn record(&mut self, cycle: u64, event: &SimEvent) {
            self.seen.push((cycle, *event));
        }
        fn interest(&self) -> KindSet {
            self.interest
        }
    }

    fn log(interest: KindSet) -> Shared<Log> {
        Shared::new(Log {
            interest,
            seen: Vec::new(),
        })
    }

    #[test]
    fn each_sink_receives_exactly_its_kinds_in_order() {
        let commits = log(KindSet::of(&["commit"]));
        let all = log(KindSet::ALL);
        let obs = Observer::new(vec![Box::new(commits.clone()), Box::new(all.clone())]);
        let events: Vec<(u64, SimEvent)> = (0..).zip(crate::event::sample_events()).collect();
        for &(cycle, e) in &events {
            obs.emit(cycle, e);
        }
        assert_eq!(all.with(|l| l.seen.clone()), events);
        let seen = commits.with(|l| l.seen.clone());
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].1.kind(), "commit");
    }

    #[test]
    fn kinds_no_sink_reads_are_not_delivered() {
        let fills = log(KindSet::of(&["fill", "evict"]));
        let commits = log(KindSet::of(&["commit"]));
        let obs = Observer::new(vec![Box::new(fills.clone()), Box::new(commits.clone())]);
        for (cycle, e) in (0..).zip(crate::event::sample_events()) {
            obs.emit(cycle, e);
        }
        let kinds =
            |l: &Shared<Log>| l.with(|l| l.seen.iter().map(|(_, e)| e.kind()).collect::<Vec<_>>());
        assert_eq!(kinds(&fills), ["fill", "evict"]);
        assert_eq!(kinds(&commits), ["commit"]);
    }

    #[test]
    fn kind_sets_hold_their_kinds() {
        let all = |set: KindSet| (0..SimEvent::KINDS.len()).all(|k| set.contains_index(k));
        assert!(all(KindSet::ALL));
        assert!(!(0..SimEvent::KINDS.len()).any(|k| KindSet::NONE.contains_index(k)));
        let set = KindSet::of(&["evict", "dispatch"]);
        assert!(!all(set));
        assert_eq!(set.union(KindSet::ALL), KindSet::ALL);
        assert!(set.contains(&SimEvent::Dispatch {
            core: 0,
            seq: 0,
            pc: 0
        }));
        assert!(!set.contains(&SimEvent::DramWriteback { line: 0 }));
    }

    #[test]
    #[should_panic(expected = "unknown event kind")]
    fn kind_sets_refuse_unknown_names() {
        let _ = KindSet::of(&["no-such-kind"]);
    }
}
