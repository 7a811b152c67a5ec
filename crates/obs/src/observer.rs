//! The shared [`Observer`] handle instrumented code emits through, and the
//! [`EventSink`] trait sinks implement.

use crate::event::SimEvent;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A consumer of simulation events.
///
/// Sinks are driven strictly in emission order from the simulation thread
/// (the `Mutex` in [`Observer`] exists only to make the handle `Send` for
/// the parallel bench runner; there is no concurrent emission per run).
pub trait EventSink: Send {
    /// Consumes one event. `cycle` is the simulation cycle it occurred at.
    fn record(&mut self, cycle: u64, event: &SimEvent);

    /// Flushes buffered output. Called once when the run finishes.
    fn finish(&mut self) {}
}

/// The shared fan-out list behind an enabled [`Observer`].
type SinkList = Arc<Mutex<Vec<Box<dyn EventSink>>>>;

/// A cloneable handle that fans events out to attached sinks.
///
/// The disabled handle (no sinks, the default) costs one branch per
/// emission site.
#[derive(Clone, Default)]
pub struct Observer {
    sinks: Option<SinkList>,
}

impl Observer {
    /// A handle with no sinks; every `emit` is a no-op.
    pub fn disabled() -> Self {
        Observer::default()
    }

    /// A handle fanning out to `sinks` (disabled if the list is empty).
    pub fn new(sinks: Vec<Box<dyn EventSink>>) -> Self {
        if sinks.is_empty() {
            Observer::disabled()
        } else {
            Observer {
                sinks: Some(Arc::new(Mutex::new(sinks))),
            }
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

    /// Records `event` at `cycle` in every sink. No-op when disabled.
    #[inline]
    pub fn emit(&self, cycle: u64, event: SimEvent) {
        if let Some(sinks) = &self.sinks {
            let mut sinks = sinks.lock().expect("observer sink poisoned");
            for s in sinks.iter_mut() {
                s.record(cycle, &event);
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
        if let Some(sinks) = &self.sinks {
            let mut sinks = sinks.lock().expect("observer sink poisoned");
            for s in sinks.iter_mut() {
                s.finish();
            }
        }
    }
}

impl fmt::Debug for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.sinks {
            Some(s) => {
                let n = s.lock().map(|v| v.len()).unwrap_or(0);
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
pub struct Shared<S>(Arc<Mutex<S>>);

impl<S> Clone for Shared<S> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<S: EventSink> Shared<S> {
    /// Wraps a sink for shared access.
    pub fn new(sink: S) -> Self {
        Shared(Arc::new(Mutex::new(sink)))
    }

    /// Runs `f` with exclusive access to the wrapped sink.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.0.lock().expect("shared sink poisoned"))
    }
}

impl<S: EventSink> EventSink for Shared<S> {
    fn record(&mut self, cycle: u64, event: &SimEvent) {
        self.0
            .lock()
            .expect("shared sink poisoned")
            .record(cycle, event);
    }

    fn finish(&mut self) {
        self.0.lock().expect("shared sink poisoned").finish();
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

    #[test]
    fn clones_share_sinks() {
        let a = Shared::new(Counting::default());
        let obs = Observer::single(Box::new(a.clone()));
        let obs2 = obs.clone();
        obs.emit(0, SimEvent::DramWriteback { line: 0 });
        obs2.emit(1, SimEvent::DramWriteback { line: 1 });
        assert_eq!(a.with(|s| s.seen), 2);
    }
}
