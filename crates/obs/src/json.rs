//! A minimal dependency-free JSON writer.
//!
//! Shared by the report serializer in the `cleanupspec` crate and the
//! JSONL/Perfetto sinks here. Hand-rolled: everything serialized in this
//! workspace is a flat tree of numbers and short strings, so a writer
//! beats a serde dependency (which could not be resolved offline anyway).

use crate::event::{FieldValue, SimEvent};
use std::fmt::Write as _;

/// A minimal JSON value writer.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    stack: Vec<bool>, // per open object/array: "has at least one element"
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn comma(&mut self) {
        if let Some(has) = self.stack.last_mut() {
            if *has {
                self.out.push_str(", ");
            }
            *has = true;
        }
    }

    /// Opens an object (optionally as the value of `key`).
    pub fn open_object(&mut self, key: Option<&str>) -> &mut Self {
        self.comma();
        if let Some(k) = key {
            let _ = write!(self.out, "\"{}\": ", escape(k));
        }
        self.out.push('{');
        self.stack.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn close_object(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push('}');
        self
    }

    /// Opens an array as the value of `key`.
    pub fn open_array(&mut self, key: &str) -> &mut Self {
        self.comma();
        let _ = write!(self.out, "\"{}\": [", escape(key));
        self.stack.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn close_array(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push(']');
        self
    }

    /// Writes a string field.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.comma();
        let _ = write!(self.out, "\"{}\": \"{}\"", escape(key), escape(value));
        self
    }

    /// Writes an integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.comma();
        let _ = write!(self.out, "\"{}\": {value}", escape(key));
        self
    }

    /// Writes a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.comma();
        let _ = write!(self.out, "\"{}\": {value}", escape(key));
        self
    }

    /// Writes an event field.
    pub(crate) fn field(&mut self, key: &str, value: FieldValue) -> &mut Self {
        match value {
            FieldValue::U64(v) => self.int(key, v),
            FieldValue::Bool(v) => self.bool(key, v),
            FieldValue::Str(v) => self.string(key, v),
        }
    }

    /// Writes a bare string element into the open array.
    pub fn string_item(&mut self, value: &str) -> &mut Self {
        self.comma();
        let _ = write!(self.out, "\"{}\"", escape(value));
        self
    }

    /// Writes a float field (NaN/inf become null).
    pub fn float(&mut self, key: &str, value: f64) -> &mut Self {
        self.comma();
        if value.is_finite() {
            let _ = write!(self.out, "\"{}\": {value:.6}", escape(key));
        } else {
            let _ = write!(self.out, "\"{}\": null", escape(key));
        }
        self
    }

    /// Finishes and returns the JSON text.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unbalanced open/close");
        self.out
    }
}

fn escape(s: &str) -> String {
    let mut o = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o
}

/// Serializes one event (with its cycle stamp) as a single-line JSON
/// object: `{"cycle": N, "layer": "...", "kind": "...", ...fields}`.
pub fn event_to_json(cycle: u64, event: &SimEvent) -> String {
    let mut w = JsonWriter::new();
    w.open_object(None)
        .int("cycle", cycle)
        .string("layer", event.layer().as_str())
        .string("kind", event.kind());
    event.each_field(|name, value| {
        w.field(name, value);
    });
    w.close_object();
    w.finish()
}

/// Deserializes one JSONL trace line back into `(cycle, event)` — the
/// exact inverse of [`event_to_json`], used by `cs-report` to replay
/// traces. Returns a descriptive error for unknown kinds or missing
/// fields (a symptom of reading a trace from a different schema version).
pub fn event_from_json(value: &crate::jsonparse::JsonValue) -> Result<(u64, SimEvent), String> {
    SimEvent::from_json(value)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::event::{CacheLevel, SimEvent};

    pub(crate) fn balanced(s: &str) -> bool {
        let mut depth = 0i64;
        let mut in_str = false;
        let mut esc = false;
        for c in s.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                return false;
            }
        }
        depth == 0 && !in_str
    }

    #[test]
    fn strings_are_escaped() {
        let mut w = JsonWriter::new();
        w.open_object(None)
            .string("k\"ey", "va\\lue\nnewline")
            .close_object();
        let j = w.finish();
        assert!(j.contains("k\\\"ey"));
        assert!(j.contains("va\\\\lue\\nnewline"));
        assert!(balanced(&j));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.open_object(None).float("x", f64::NAN).close_object();
        assert!(w.finish().contains("\"x\": null"));
    }

    #[test]
    fn bools_are_bare() {
        let mut w = JsonWriter::new();
        w.open_object(None).bool("b", true).close_object();
        assert!(w.finish().contains("\"b\": true"));
    }

    #[test]
    fn arrays_separate_elements() {
        let mut w = JsonWriter::new();
        w.open_object(None).open_array("a");
        for i in 0..3 {
            w.open_object(None).int("i", i).close_object();
        }
        w.close_array().close_object();
        let j = w.finish();
        assert_eq!(j.matches("{\"i\"").count(), 3);
        assert_eq!(j.matches("}, {").count(), 2);
        assert!(balanced(&j));
    }

    /// Every event variant survives a JSONL round trip bit-exactly —
    /// the property `cs-report` trace replay depends on. An `evict` with no
    /// evictor is added: its `by_spec=false` arm writes no `evictor`.
    #[test]
    fn every_event_round_trips_through_json() {
        let mut events = crate::event::sample_events();
        events.push(SimEvent::Evict {
            core: 1,
            line: 3,
            level: CacheLevel::L2,
            dirty: false,
            evictor: None,
        });
        for (i, event) in events.iter().enumerate() {
            let cycle = 10 + i as u64;
            let line = event_to_json(cycle, event);
            let parsed = crate::jsonparse::JsonValue::parse(&line).unwrap();
            let (c, e) = event_from_json(&parsed).unwrap_or_else(|err| {
                panic!("{}: {err}", event.kind());
            });
            assert_eq!(c, cycle, "{}", event.kind());
            assert_eq!(&e, event, "{}", event.kind());
        }
    }

    /// A `commit` without a line field (non-load) round trips too —
    /// the one variant whose field list is dynamic.
    #[test]
    fn commit_without_line_round_trips() {
        let e = SimEvent::Commit {
            core: 1,
            seq: 9,
            pc: 0x40,
            line: None,
        };
        let parsed = crate::jsonparse::JsonValue::parse(&event_to_json(3, &e)).unwrap();
        assert_eq!(event_from_json(&parsed).unwrap(), (3, e));
    }

    #[test]
    fn event_from_json_rejects_unknown_kind_and_missing_fields() {
        let bad =
            crate::jsonparse::JsonValue::parse(r#"{"cycle": 1, "kind": "warp-drive", "core": 0}"#)
                .unwrap();
        assert!(event_from_json(&bad).unwrap_err().contains("warp-drive"));
        let missing =
            crate::jsonparse::JsonValue::parse(r#"{"cycle": 1, "kind": "squash", "core": 0}"#)
                .unwrap();
        assert!(event_from_json(&missing).unwrap_err().contains("seq"));
    }

    #[test]
    fn event_json_has_cycle_kind_and_fields() {
        let j = event_to_json(
            7,
            &SimEvent::Fill {
                core: 0,
                line: 0x40,
                level: CacheLevel::L1,
                spec: true,
            },
        );
        assert!(balanced(&j), "{j}");
        assert!(j.contains("\"cycle\": 7"), "{j}");
        assert!(j.contains("\"kind\": \"fill\""), "{j}");
        assert!(j.contains("\"line\": 64"), "{j}");
        assert!(j.contains("\"spec\": true"), "{j}");
    }
}
