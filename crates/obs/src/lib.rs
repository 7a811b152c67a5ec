//! Cross-layer observability for the CleanupSpec simulator.
//!
//! Every layer of the simulated machine — pipeline, cache hierarchy, MSHR
//! file, CleanupSpec undo engine, DRAM — emits structured [`SimEvent`]s
//! through a shared [`Observer`] handle. The observer is a zero-cost
//! `Option` check when no sink is attached, so instrumented hot paths pay
//! one predictable branch in the common (disabled) case.
//!
//! Sinks implement [`EventSink`] and can be combined freely:
//!
//! * [`RingSink`] — a bounded in-memory ring buffer for test assertions
//!   and interactive dumps.
//! * [`JsonlSink`] — streams one JSON object per event to any writer.
//! * [`PerfettoSink`] — renders the run as Chrome trace-event JSON that
//!   `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//!   directly.
//! * [`EpisodeBuilder`] — reconstructs cleanup episodes and keeps the
//!   undo-coverage ledger, the leakage oracle: it correlates speculative
//!   fills, squashes, and cleanup operations to verify the paper's core
//!   invariant at runtime — after a squash, no speculation-attributable
//!   cache state survives — and pins each leak to its episode.
//! * [`CommitLogSink`] — records per-core committed-PC streams.
//!
//! This crate sits at the bottom of the workspace (no dependencies, not
//! even on `cleanupspec-mem`), so events carry primitive field types:
//! core indices are `usize`, cache-line addresses are the `u64` line
//! number (byte address divided by the 64-byte line size).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod atomicio;
pub mod commitlog;
pub mod episode;
pub mod event;
pub mod histogram;
pub mod json;
pub mod jsonl;
pub mod jsonparse;
pub mod metrics;
pub mod observer;
pub mod perfetto;
pub mod ring;

pub use commitlog::{CommitEntry, CommitLogSink};
pub use episode::{EpisodeBuilder, EpisodeLeak, EpisodeRecord, EpisodeReport, LeakKind};
pub use event::{CacheLevel, FieldValue, Layer, PathKind, SimEvent, EVENT_SCHEMA_VERSION};
pub use histogram::Histogram;
pub use json::{event_from_json, event_to_json, JsonWriter};
pub use jsonl::JsonlSink;
pub use jsonparse::JsonValue;
pub use metrics::{CounterSample, MetricsRegistry};
pub use observer::{EventSink, Observer, Shared};
pub use perfetto::PerfettoSink;
pub use ring::{EventRecord, RingSink};

/// The former standalone audit sink's name, kept only for the
/// out-of-workspace `perfbench` crate, which still names it. Nothing in
/// the workspace uses it.
pub type LeakageAuditSink = EpisodeBuilder;
