//! Streaming JSONL (one JSON object per line) sink.

use crate::event::{SimEvent, EVENT_SCHEMA_VERSION};
use crate::json::event_to_json;
use crate::observer::EventSink;
use std::io::Write;

/// Writes each event as one JSON line to an arbitrary writer.
///
/// The first line is a header naming the schema version
/// (`{"schema": "cs-events-v3"}`); consumers like `cs-report` refuse
/// traces whose header does not match the vocabulary they were built
/// against. Every following line has the shape
/// `{"cycle": N, "layer": "...", "kind": "...", ...fields}` — grep-able,
/// `jq`-able, and stable across runs for a fixed seed.
///
/// The writer is flushed on [`EventSink::finish`] **and** on `Drop`, so a
/// run that panics mid-simulation still leaves every recorded line on
/// disk (a `BufWriter` dropped without flushing would otherwise truncate
/// the trace at the last buffer boundary).
pub struct JsonlSink<W: Write> {
    /// `None` only after [`into_inner`](JsonlSink::into_inner) took the
    /// writer out from under the `Drop` impl.
    out: Option<W>,
    written: u64,
    io_errors: u64,
    warned: bool,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer and emits the schema header line. Buffer it
    /// yourself (`BufWriter`) for file targets.
    pub fn new(out: W) -> Self {
        let mut sink = JsonlSink {
            out: Some(out),
            written: 0,
            io_errors: 0,
            warned: false,
        };
        if let Some(out) = sink.out.as_mut() {
            if let Err(e) = writeln!(out, "{{\"schema\": \"{EVENT_SCHEMA_VERSION}\"}}") {
                sink.note_io_error("header write", &e);
            }
        }
        sink
    }

    /// Lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Write or flush failures so far. I/O errors never abort the
    /// simulation, but they are no longer silent either: the first one
    /// warns on stderr, every one is counted here, and `cs-trace`
    /// publishes the total as the `sink_io_errors` host counter.
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    fn note_io_error(&mut self, what: &str, e: &std::io::Error) {
        self.io_errors += 1;
        if !self.warned {
            self.warned = true;
            eprintln!(
                "warning: jsonl sink {what} failed ({e}); \
                 continuing with dropped lines (counted in io_errors)"
            );
        }
    }

    /// Consumes the sink, returning the flushed writer.
    pub fn into_inner(mut self) -> W {
        let mut out = self.out.take().expect("writer taken only here");
        let _ = out.flush();
        out
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn record(&mut self, cycle: u64, event: &SimEvent) {
        // I/O errors intentionally do not abort the simulation; the run
        // keeps going with a short file, a one-time warning, and an
        // exact dropped-line count.
        if let Some(out) = self.out.as_mut() {
            match writeln!(out, "{}", event_to_json(cycle, event)) {
                Ok(()) => self.written += 1,
                Err(e) => self.note_io_error("write", &e),
            }
        }
    }

    fn finish(&mut self) {
        if let Some(out) = self.out.as_mut() {
            if let Err(e) = out.flush() {
                self.note_io_error("flush", &e);
            }
        }
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CacheLevel, SimEvent};
    use std::io::BufWriter;

    #[test]
    fn one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(1, &SimEvent::DramWriteback { line: 2 });
        sink.record(
            5,
            &SimEvent::Fill {
                core: 0,
                line: 3,
                level: CacheLevel::L1,
                spec: false,
            },
        );
        sink.finish();
        assert_eq!(sink.written(), 2, "header line is not counted as an event");
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "{\"schema\": \"cs-events-v3\"}");
        assert!(lines[1].contains("\"kind\": \"dram-writeback\""));
        assert!(lines[2].contains("\"cycle\": 5"));
    }

    #[test]
    fn io_errors_are_counted_not_silently_dropped() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(FailingWriter);
        sink.record(1, &SimEvent::DramWriteback { line: 2 });
        sink.record(2, &SimEvent::DramWriteback { line: 3 });
        sink.finish();
        assert_eq!(sink.written(), 0);
        assert_eq!(sink.io_errors(), 3, "header + 2 events all failed");
    }

    #[test]
    fn drop_flushes_buffered_writer() {
        let path = std::env::temp_dir().join(format!("cs-jsonl-drop-{}.jsonl", std::process::id()));
        {
            let f = std::fs::File::create(&path).unwrap();
            let mut sink = JsonlSink::new(BufWriter::new(f));
            sink.record(1, &SimEvent::DramWriteback { line: 2 });
            sink.record(2, &SimEvent::DramWriteback { line: 3 });
            // No finish(): the Drop impl must flush the BufWriter.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.lines().count(),
            3,
            "drop lost buffered lines: {text:?}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
