//! Chrome trace-event / Perfetto exporter.
//!
//! Renders the recorded run as the JSON object format accepted by
//! `chrome://tracing` and <https://ui.perfetto.dev>: a `traceEvents`
//! array of metadata (`ph: "M"`), complete (`"X"`), instant (`"i"`), and
//! counter (`"C"`) events. One simulation cycle maps to one microsecond
//! of trace time (the viewer's native unit), so cycle deltas read
//! directly off the timeline.
//!
//! Track layout: each [`Layer`] is a "process" (pid), each core a
//! "thread" (tid) within it. Loads and cleanups render as duration slices
//! (`"X"` with `dur` = latency/stall); everything else is an instant.
//! MSHR alloc/retire additionally drive an occupancy counter track.

use crate::event::{Layer, SimEvent};
use crate::json::JsonWriter;
use crate::metrics::CounterSample;
use crate::observer::EventSink;
use crate::ring::EventRecord;
use std::collections::{BTreeMap, BTreeSet};

fn pid(layer: Layer) -> u64 {
    match layer {
        Layer::Pipeline => 1,
        Layer::Cache => 2,
        Layer::Mshr => 3,
        Layer::Cleanup => 4,
        Layer::Dram => 5,
    }
}

/// Synthetic process id for host-side self-profiling counter tracks
/// ([`crate::MetricsRegistry`] samples); distinct from every [`Layer`] pid.
const HOST_PID: u64 = 6;

/// Accumulates events and renders them as Chrome trace-event JSON.
///
/// With an output path configured ([`PerfettoSink::with_output`]) the
/// trace is written on [`EventSink::finish`] and — if `finish` never ran,
/// e.g. the run panicked mid-simulation — on `Drop`, so a crashing run
/// still leaves a loadable trace of everything up to the crash.
#[derive(Debug, Default)]
pub struct PerfettoSink {
    events: Vec<EventRecord>,
    host_counters: Vec<CounterSample>,
    output: Option<std::path::PathBuf>,
    flushed: bool,
}

impl PerfettoSink {
    /// An empty sink; the caller renders and writes the trace itself.
    pub fn new() -> Self {
        PerfettoSink::default()
    }

    /// An empty sink that writes its trace to `path` on finish/drop.
    pub fn with_output(path: impl Into<std::path::PathBuf>) -> Self {
        PerfettoSink {
            events: Vec::new(),
            host_counters: Vec::new(),
            output: Some(path.into()),
            flushed: false,
        }
    }

    /// Attaches host-side counter samples (from a
    /// [`crate::MetricsRegistry`]) so they render as counter tracks under
    /// a dedicated "host" process, alongside the simulation's tracks.
    pub fn add_host_counters(&mut self, samples: impl IntoIterator<Item = CounterSample>) {
        self.host_counters.extend(samples);
    }

    /// Events captured so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders and writes the trace to the configured output path (no-op
    /// without one), atomically — a crash mid-write can never leave a
    /// torn, unloadable trace where a previous complete one stood.
    /// Returns the number of bytes written.
    pub fn write_output(&mut self) -> std::io::Result<usize> {
        let Some(path) = self.output.clone() else {
            return Ok(0);
        };
        let json = self.render();
        crate::atomicio::atomic_write(&path, json.as_bytes())?;
        self.flushed = true;
        Ok(json.len())
    }

    /// Renders the full trace as a JSON string.
    pub fn render(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object(None);
        w.open_array("traceEvents");

        // Track-naming metadata for every (layer, core) pair that appears.
        let mut tracks: BTreeSet<(u64, u64)> = BTreeSet::new();
        for r in &self.events {
            let layer = r.event.layer();
            let tid = r.event.core().unwrap_or(0) as u64;
            tracks.insert((pid(layer), tid));
        }
        for layer in Layer::ALL {
            if tracks.iter().any(|&(p, _)| p == pid(layer)) {
                w.open_object(None)
                    .string("ph", "M")
                    .string("name", "process_name")
                    .int("pid", pid(layer));
                w.open_object(Some("args")).string("name", layer.as_str());
                w.close_object().close_object();
            }
        }
        for &(p, t) in &tracks {
            w.open_object(None)
                .string("ph", "M")
                .string("name", "thread_name")
                .int("pid", p)
                .int("tid", t);
            w.open_object(Some("args"))
                .string("name", &format!("core{t}"));
            w.close_object().close_object();
        }
        if !self.host_counters.is_empty() {
            w.open_object(None)
                .string("ph", "M")
                .string("name", "process_name")
                .int("pid", HOST_PID);
            w.open_object(Some("args")).string("name", "host");
            w.close_object().close_object();
        }

        for r in &self.events {
            self.write_event(&mut w, r);
        }
        self.write_episode_spans(&mut w);
        for s in &self.host_counters {
            w.open_object(None)
                .string("name", &s.name)
                .string("ph", "C")
                .int("pid", HOST_PID)
                .int("tid", 0)
                .int("ts", s.ts);
            w.open_object(Some("args")).float("value", s.value);
            w.close_object().close_object();
        }
        w.close_array();
        w.string("displayTimeUnit", "ms");
        w.close_object();
        w.finish()
    }

    /// One async ("b"/"e") span per cleanup episode, on the cleanup
    /// process's core track: the whole squash-to-resume window reads as
    /// a single named slice stacked above the individual undo events.
    /// Episodes still open when the trace ends render as unterminated
    /// begins (Perfetto draws them to the end of the timeline).
    fn write_episode_spans(&self, w: &mut JsonWriter) {
        let mut begins: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut ends: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        for r in &self.events {
            match r.event {
                SimEvent::Squash { core, episode, .. } if episode != 0 => {
                    begins.entry((core as u64, episode)).or_insert(r.cycle);
                }
                SimEvent::CleanupEnd { core, episode, .. } if episode != 0 => {
                    ends.insert((core as u64, episode), r.cycle);
                }
                _ => {}
            }
        }
        for (&(core, ep), &start) in &begins {
            let id = format!("c{core}e{ep}");
            let name = format!("episode {ep}");
            let mut span = |ph: &str, ts: u64| {
                w.open_object(None)
                    .string("name", &name)
                    .string("cat", "episode")
                    .string("ph", ph)
                    .string("id", &id)
                    .int("pid", pid(Layer::Cleanup))
                    .int("tid", core)
                    .int("ts", ts);
                w.open_object(Some("args")).int("episode", ep);
                w.close_object().close_object();
            };
            span("b", start);
            if let Some(&end) = ends.get(&(core, ep)) {
                span("e", end.max(start));
            }
        }
    }

    fn write_event(&self, w: &mut JsonWriter, r: &EventRecord) {
        let e = &r.event;
        let layer = e.layer();
        let tid = e.core().unwrap_or(0) as u64;

        // Duration slices where the span is known at emission time.
        let dur = match *e {
            SimEvent::LoadIssue { latency, .. } => Some(latency.max(1)),
            SimEvent::CleanupStart { stall, .. } => Some(stall.max(1)),
            _ => None,
        };

        w.open_object(None)
            .string("name", e.kind())
            .string("cat", layer.as_str())
            .int("pid", pid(layer))
            .int("tid", tid)
            .int("ts", r.cycle);
        match dur {
            Some(d) => {
                w.string("ph", "X").int("dur", d);
            }
            None => {
                w.string("ph", "i").string("s", "t");
            }
        }
        w.open_object(Some("args"));
        e.each_field(|name, value| {
            w.field(name, value);
        });
        w.close_object().close_object();

        // Occupancy counter track fed by MSHR lifecycle events.
        if let SimEvent::MshrAlloc {
            core, occupancy, ..
        }
        | SimEvent::MshrRetire {
            core, occupancy, ..
        } = *e
        {
            w.open_object(None)
                .string("name", "mshr_occupancy")
                .string("ph", "C")
                .int("pid", pid(Layer::Mshr))
                .int("tid", core as u64)
                .int("ts", r.cycle);
            w.open_object(Some("args")).int("entries", occupancy);
            w.close_object().close_object();
        }
    }
}

impl EventSink for PerfettoSink {
    fn record(&mut self, cycle: u64, event: &SimEvent) {
        self.events.push(EventRecord {
            cycle,
            event: *event,
        });
    }

    fn finish(&mut self) {
        if let Err(e) = self.write_output() {
            eprintln!("warning: cannot write perfetto trace: {e}");
        }
    }
}

impl Drop for PerfettoSink {
    fn drop(&mut self) {
        if !self.flushed {
            if let Err(e) = self.write_output() {
                eprintln!("warning: cannot write perfetto trace: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CacheLevel, PathKind};

    fn sample() -> PerfettoSink {
        let mut s = PerfettoSink::new();
        s.record(
            10,
            &SimEvent::LoadIssue {
                core: 0,
                seq: 1,
                line: 0x40,
                path: PathKind::Mem,
                spec: true,
                latency: 100,
            },
        );
        s.record(
            110,
            &SimEvent::Fill {
                core: 0,
                line: 0x40,
                level: CacheLevel::L1,
                spec: true,
            },
        );
        s.record(
            111,
            &SimEvent::MshrAlloc {
                core: 0,
                line: 0x40,
                spec: true,
                occupancy: 1,
            },
        );
        s
    }

    #[test]
    fn render_is_balanced_json_with_trace_events() {
        let j = sample().render();
        assert!(crate::json::tests::balanced(&j), "{j}");
        assert!(j.starts_with('{'));
        assert!(j.contains("\"traceEvents\""));
    }

    #[test]
    fn loads_are_complete_events_with_duration() {
        let j = sample().render();
        assert!(j.contains("\"ph\": \"X\""), "{j}");
        assert!(j.contains("\"dur\": 100"), "{j}");
    }

    #[test]
    fn instants_carry_scope() {
        let j = sample().render();
        assert!(j.contains("\"ph\": \"i\""), "{j}");
        assert!(j.contains("\"s\": \"t\""), "{j}");
    }

    #[test]
    fn metadata_names_layers_and_cores() {
        let j = sample().render();
        assert!(j.contains("\"process_name\""), "{j}");
        assert!(j.contains("\"name\": \"pipeline\""), "{j}");
        assert!(j.contains("\"name\": \"core0\""), "{j}");
    }

    #[test]
    fn mshr_events_feed_a_counter_track() {
        let j = sample().render();
        assert!(j.contains("\"ph\": \"C\""), "{j}");
        assert!(j.contains("\"mshr_occupancy\""), "{j}");
    }

    #[test]
    fn host_counters_render_under_host_process() {
        let mut s = sample();
        s.add_host_counters(vec![
            CounterSample {
                name: "sim_kips".to_string(),
                ts: 50,
                value: 123.5,
            },
            CounterSample {
                name: "events_per_sec".to_string(),
                ts: 50,
                value: 1e6,
            },
        ]);
        let j = s.render();
        assert!(crate::json::tests::balanced(&j), "{j}");
        assert!(j.contains("\"name\": \"host\""), "{j}");
        assert!(j.contains("\"sim_kips\""), "{j}");
        assert!(j.contains(&format!("\"pid\": {HOST_PID}")), "{j}");
    }

    #[test]
    fn episodes_render_as_async_spans() {
        let mut s = PerfettoSink::new();
        s.record(
            10,
            &SimEvent::Squash {
                core: 0,
                seq: 1,
                squashed: 3,
                episode: 1,
            },
        );
        s.record(
            30,
            &SimEvent::CleanupEnd {
                core: 0,
                stall: 20,
                episode: 1,
            },
        );
        // A second episode left open: begin only.
        s.record(
            50,
            &SimEvent::Squash {
                core: 0,
                seq: 9,
                squashed: 1,
                episode: 2,
            },
        );
        let j = s.render();
        assert!(crate::json::tests::balanced(&j), "{j}");
        assert!(j.contains("\"ph\": \"b\""), "{j}");
        assert!(j.contains("\"ph\": \"e\""), "{j}");
        assert!(j.contains("\"id\": \"c0e1\""), "{j}");
        assert!(j.contains("\"name\": \"episode 1\""), "{j}");
        assert_eq!(
            j.matches("\"id\": \"c0e2\"").count(),
            1,
            "open = begin only"
        );
    }

    #[test]
    fn empty_trace_still_renders() {
        let j = PerfettoSink::new().render();
        assert!(crate::json::tests::balanced(&j), "{j}");
        assert!(j.contains("\"traceEvents\": []"), "{j}");
    }

    #[test]
    fn drop_writes_configured_output() {
        let path =
            std::env::temp_dir().join(format!("cs-perfetto-drop-{}.json", std::process::id()));
        {
            let mut s = PerfettoSink::with_output(&path);
            s.record(
                7,
                &SimEvent::Fill {
                    core: 0,
                    line: 0x40,
                    level: CacheLevel::L2,
                    spec: true,
                },
            );
            // No finish(): the Drop impl must write the trace.
        }
        let j = std::fs::read_to_string(&path).unwrap();
        assert!(crate::json::tests::balanced(&j), "{j}");
        assert!(j.contains("\"traceEvents\""), "{j}");
        assert!(j.contains("\"fill\""), "{j}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn finish_writes_once_and_drop_does_not_rewrite() {
        let path =
            std::env::temp_dir().join(format!("cs-perfetto-fin-{}.json", std::process::id()));
        {
            let mut s = PerfettoSink::with_output(&path);
            s.record(1, &SimEvent::DramWriteback { line: 2 });
            s.finish();
            std::fs::remove_file(&path).unwrap();
            // Drop must not resurrect the file after an explicit finish.
        }
        assert!(!path.exists());
    }
}
