//! `cs-snap`: the serialized, lossless run-report format.
//!
//! While [`crate::sim::Snapshot`] is the *in-memory* half of cs-snap (a
//! deep copy of the whole machine, forked and restored within one
//! process), this module is the *on-disk* half: the canonical JSON of a
//! **completed** run's [`SimReport`]. The bench harness records it in its
//! result journal (`--resume DIR`, or `CLEANUPSPEC_RESUME_DIR` for the
//! figure binaries) under the run's full result key — workload, mode,
//! insts, seed, warmup and [`FORMAT`] — so `repro_all`'s figure binaries,
//! which re-simulate many identical configurations (the NonSecure
//! baseline alone is re-run by most figures), simulate each one once.
//!
//! Design rules:
//!
//! - **Full fidelity.** The serialization is lossless: every counter,
//!   all 65 histogram buckets, the `u128` sample sums (as decimal
//!   strings), the CPI stack, and the per-scheme counters round-trip
//!   exactly, so [`report_json`] of a [`parse_report`] result is the
//!   input byte for byte. The harness serves a journaled report only
//!   when that holds; anything else (corruption, format drift, f64
//!   precision loss, a number spelled otherwise than [`report_json`]
//!   writes it) is re-simulated.
//! - **Versioned.** A bump of [`FORMAT`] changes every result key, so
//!   reports of an older schema are never served.
//! - **Successful runs only.** A `CycleLimit` or `Livelock` stop is not a
//!   result, it is a failure (and carries a diagnostic dump this format
//!   does not represent); the harness never records one, and
//!   [`parse_report`] refuses such a stop reason.

use crate::modes::SecurityMode;
use crate::sim::SimReport;
use cleanupspec_core::stats::{CoreStats, CpiStack, StallCause};
use cleanupspec_core::system::StopReason;
use cleanupspec_mem::stats::{MemStats, MsgClass, Traffic};
use cleanupspec_obs::{Histogram, JsonValue, JsonWriter};

/// Format tag, part of every journaled report's key; bump on any schema
/// change so reports of the old schema are no longer served.
/// v2: per-core `episode_duration` / `episode_loads` histograms.
pub const FORMAT: &str = "cs-snap-v2";

/// FNV-1a 64-bit — cheap, dependency-free, and plenty to detect
/// corruption (this is an integrity check, not a security boundary).
/// Public because the bench crate's artifact store and result journal
/// use it for their sidecar checksums, per-record CRCs and payload
/// digests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn write_histogram(w: &mut JsonWriter, key: &str, h: &Histogram) {
    let (counts, total, sum, max) = h.raw_parts();
    w.open_object(Some(key));
    w.open_array("counts");
    for &c in counts.iter() {
        w.open_object(None).int("n", c).close_object();
    }
    w.close_array()
        .int("total", total)
        .string("sum", &sum.to_string())
        .int("max", max)
        .close_object();
}

fn parse_histogram(v: &JsonValue) -> Result<Histogram, String> {
    let arr = v
        .get("counts")
        .and_then(JsonValue::as_arr)
        .ok_or("histogram: missing counts")?;
    if arr.len() != 65 {
        return Err(format!("histogram: {} buckets, want 65", arr.len()));
    }
    let mut counts = [0u64; 65];
    for (i, b) in arr.iter().enumerate() {
        counts[i] = b
            .get("n")
            .and_then(JsonValue::as_u64)
            .ok_or("histogram: bad bucket")?;
    }
    let total = req_u64(v, "total")?;
    let sum: u128 = v
        .get("sum")
        .and_then(JsonValue::as_str)
        .ok_or("histogram: missing sum")?
        .parse()
        .map_err(|e| format!("histogram: bad sum: {e}"))?;
    let max = req_u64(v, "max")?;
    Ok(Histogram::from_raw_parts(counts, total, sum, max))
}

fn req_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

/// `(label, getter, setter)` triple: one table row drives both the write
/// and the read direction so the two cannot drift apart.
type FieldRow<S> = (&'static str, fn(&S) -> u64, fn(&mut S, u64));

/// A field table for every scalar `MemStats` field.
const MEM_FIELDS: &[FieldRow<MemStats>] = &[
    ("l1_hits", |s| s.l1_hits, |s, v| s.l1_hits = v),
    ("l2_hits", |s| s.l2_hits, |s, v| s.l2_hits = v),
    ("remote_hits", |s| s.remote_hits, |s, v| s.remote_hits = v),
    ("mem_loads", |s| s.mem_loads, |s, v| s.mem_loads = v),
    (
        "dummy_misses",
        |s| s.dummy_misses,
        |s, v| s.dummy_misses = v,
    ),
    (
        "gets_safe_refusals",
        |s| s.gets_safe_refusals,
        |s, v| s.gets_safe_refusals = v,
    ),
    ("stores", |s| s.stores, |s, v| s.stores = v),
    (
        "store_upgrades",
        |s| s.store_upgrades,
        |s, v| s.store_upgrades = v,
    ),
    (
        "l1_evictions",
        |s| s.l1_evictions,
        |s, v| s.l1_evictions = v,
    ),
    (
        "l2_evictions",
        |s| s.l2_evictions,
        |s, v| s.l2_evictions = v,
    ),
    ("back_invals", |s| s.back_invals, |s, v| s.back_invals = v),
    (
        "dropped_fills",
        |s| s.dropped_fills,
        |s, v| s.dropped_fills = v,
    ),
    (
        "orphan_fills",
        |s| s.orphan_fills,
        |s, v| s.orphan_fills = v,
    ),
    (
        "cleanup_invals",
        |s| s.cleanup_invals,
        |s, v| s.cleanup_invals = v,
    ),
    (
        "cleanup_restores",
        |s| s.cleanup_restores,
        |s, v| s.cleanup_restores = v,
    ),
    (
        "transient_inval_misses",
        |s| s.transient_inval_misses,
        |s, v| s.transient_inval_misses = v,
    ),
    (
        "random_repl_misses",
        |s| s.random_repl_misses,
        |s, v| s.random_repl_misses = v,
    ),
    (
        "class_safe_cache",
        |s| s.class_safe_cache,
        |s, v| s.class_safe_cache = v,
    ),
    (
        "class_remote_em",
        |s| s.class_remote_em,
        |s, v| s.class_remote_em = v,
    ),
    ("class_dram", |s| s.class_dram, |s, v| s.class_dram = v),
];

/// Same table for scalar `CoreStats` fields.
const CORE_FIELDS: &[FieldRow<CoreStats>] = &[
    ("cycles", |s| s.cycles, |s, v| s.cycles = v),
    (
        "committed_insts",
        |s| s.committed_insts,
        |s, v| s.committed_insts = v,
    ),
    (
        "committed_loads",
        |s| s.committed_loads,
        |s, v| s.committed_loads = v,
    ),
    (
        "committed_stores",
        |s| s.committed_stores,
        |s, v| s.committed_stores = v,
    ),
    (
        "committed_branches",
        |s| s.committed_branches,
        |s, v| s.committed_branches = v,
    ),
    ("mispredicts", |s| s.mispredicts, |s, v| s.mispredicts = v),
    ("squashes", |s| s.squashes, |s, v| s.squashes = v),
    (
        "squashed_insts",
        |s| s.squashed_insts,
        |s, v| s.squashed_insts = v,
    ),
    ("squashed_ni", |s| s.squashed_ni, |s, v| s.squashed_ni = v),
    (
        "squashed_l1h",
        |s| s.squashed_l1h,
        |s, v| s.squashed_l1h = v,
    ),
    (
        "squashed_l2h",
        |s| s.squashed_l2h,
        |s, v| s.squashed_l2h = v,
    ),
    (
        "squashed_l2m",
        |s| s.squashed_l2m,
        |s, v| s.squashed_l2m = v,
    ),
    (
        "squashed_miss_inflight",
        |s| s.squashed_miss_inflight,
        |s, v| s.squashed_miss_inflight = v,
    ),
    (
        "squashed_miss_executed",
        |s| s.squashed_miss_executed,
        |s, v| s.squashed_miss_executed = v,
    ),
    (
        "squash_wait_cycles",
        |s| s.squash_wait_cycles,
        |s, v| s.squash_wait_cycles = v,
    ),
    (
        "squash_cleanup_cycles",
        |s| s.squash_cleanup_cycles,
        |s, v| s.squash_cleanup_cycles = v,
    ),
    (
        "deferred_loads",
        |s| s.deferred_loads,
        |s, v| s.deferred_loads = v,
    ),
    (
        "commit_stall_cycles",
        |s| s.commit_stall_cycles,
        |s, v| s.commit_stall_cycles = v,
    ),
    (
        "fetch_stall_cycles",
        |s| s.fetch_stall_cycles,
        |s, v| s.fetch_stall_cycles = v,
    ),
    (
        "spec_issued_loads",
        |s| s.spec_issued_loads,
        |s, v| s.spec_issued_loads = v,
    ),
    (
        "window_extend_msgs",
        |s| s.window_extend_msgs,
        |s, v| s.window_extend_msgs = v,
    ),
    (
        "forwarded_loads",
        |s| s.forwarded_loads,
        |s, v| s.forwarded_loads = v,
    ),
    ("faults", |s| s.faults, |s, v| s.faults = v),
];

/// Canonical full-fidelity JSON for one report. This exact string is the
/// journaled payload of a run; it is also a convenient byte-identical
/// equality witness for the resume-exactness tests.
pub fn report_json(r: &SimReport) -> String {
    let mut w = JsonWriter::new();
    w.open_object(None)
        .string("mode", r.mode.name())
        .int("cycles", r.cycles);
    w.string(
        "stop",
        match &r.stop {
            None => "none",
            Some(s) => s.label(),
        },
    );
    w.open_object(Some("mem"));
    for (name, get, _) in MEM_FIELDS {
        w.int(name, get(&r.mem));
    }
    w.open_array("load_latency");
    for h in &r.mem.load_latency {
        w.open_object(None);
        write_histogram(&mut w, "h", h);
        w.close_object();
    }
    w.close_array();
    write_histogram(&mut w, "mshr_occupancy", &r.mem.mshr_occupancy);
    write_histogram(&mut w, "sefe_occupancy", &r.mem.sefe_occupancy);
    w.close_object();
    w.open_object(Some("traffic"));
    for class in MsgClass::ALL {
        w.int(&class.to_string(), r.traffic.get(class));
    }
    w.close_object();
    w.open_array("cores");
    for c in &r.cores {
        w.open_object(None);
        for (name, get, _) in CORE_FIELDS {
            w.int(name, get(c));
        }
        write_histogram(&mut w, "cleanup_duration", &c.cleanup_duration);
        write_histogram(&mut w, "episode_duration", &c.episode_duration);
        write_histogram(&mut w, "episode_loads", &c.episode_loads);
        w.open_object(Some("cpi_stack"));
        for (cause, n) in c.cpi_stack.iter() {
            w.int(cause.name(), n);
        }
        w.close_object().close_object();
    }
    w.close_array();
    w.open_array("scheme_counters");
    for core in &r.scheme_counters {
        w.open_object(None).open_array("counters");
        for (k, v) in core {
            w.open_object(None)
                .string("name", k)
                .int("value", *v)
                .close_object();
        }
        w.close_array().close_object();
    }
    w.close_array();
    w.close_object();
    w.finish()
}

/// Parses a report serialized by [`report_json`].
pub fn parse_report(v: &JsonValue) -> Result<SimReport, String> {
    let mode_name = v
        .get("mode")
        .and_then(JsonValue::as_str)
        .ok_or("report: missing mode")?;
    let mode =
        SecurityMode::from_name(mode_name).ok_or_else(|| format!("unknown mode '{mode_name}'"))?;
    let cycles = req_u64(v, "cycles")?;
    let stop = match v.get("stop").and_then(JsonValue::as_str) {
        Some("none") | None => None,
        Some("all-halted") => Some(StopReason::AllHalted),
        Some("inst-limit") => Some(StopReason::InstLimit),
        Some(other) => return Err(format!("uncacheable stop reason '{other}'")),
    };

    let mv = v.get("mem").ok_or("report: missing mem")?;
    let mut mem = MemStats::default();
    for (name, _, set) in MEM_FIELDS {
        set(&mut mem, req_u64(mv, name)?);
    }
    let lat = mv
        .get("load_latency")
        .and_then(JsonValue::as_arr)
        .ok_or("mem: missing load_latency")?;
    if lat.len() != mem.load_latency.len() {
        return Err("mem: wrong load_latency arity".to_string());
    }
    for (i, entry) in lat.iter().enumerate() {
        mem.load_latency[i] = parse_histogram(entry.get("h").ok_or("mem: bad latency entry")?)?;
    }
    mem.mshr_occupancy = parse_histogram(mv.get("mshr_occupancy").ok_or("mem: missing mshr")?)?;
    mem.sefe_occupancy = parse_histogram(mv.get("sefe_occupancy").ok_or("mem: missing sefe")?)?;

    let tv = v.get("traffic").ok_or("report: missing traffic")?;
    let mut traffic = Traffic::default();
    for class in MsgClass::ALL {
        traffic.add(class, req_u64(tv, &class.to_string())?);
    }

    let mut cores = Vec::new();
    for cv in v
        .get("cores")
        .and_then(JsonValue::as_arr)
        .ok_or("report: missing cores")?
    {
        let mut c = CoreStats::default();
        for (name, _, set) in CORE_FIELDS {
            set(&mut c, req_u64(cv, name)?);
        }
        c.cleanup_duration =
            parse_histogram(cv.get("cleanup_duration").ok_or("core: missing hist")?)?;
        c.episode_duration =
            parse_histogram(cv.get("episode_duration").ok_or("core: missing hist")?)?;
        c.episode_loads = parse_histogram(cv.get("episode_loads").ok_or("core: missing hist")?)?;
        let sv = cv.get("cpi_stack").ok_or("core: missing cpi_stack")?;
        let mut stack = CpiStack::new();
        for cause in StallCause::ALL {
            stack.set(cause, req_u64(sv, cause.name())?);
        }
        c.cpi_stack = stack;
        cores.push(c);
    }

    let mut scheme_counters = Vec::new();
    for core in v
        .get("scheme_counters")
        .and_then(JsonValue::as_arr)
        .ok_or("report: missing scheme_counters")?
    {
        let mut counters = Vec::new();
        for entry in core
            .get("counters")
            .and_then(JsonValue::as_arr)
            .ok_or("scheme_counters: bad entry")?
        {
            counters.push((
                entry
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("counter: missing name")?
                    .to_string(),
                req_u64(entry, "value")?,
            ));
        }
        scheme_counters.push(counters);
    }

    Ok(SimReport {
        mode,
        cycles,
        stop,
        mem,
        traffic,
        cores,
        scheme_counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimBuilder;
    use cleanupspec_core::isa::{ProgramBuilder, Reg};

    fn completed_report() -> SimReport {
        let mut b = ProgramBuilder::new("tiny");
        b.movi(Reg(1), 0x4000);
        b.load(Reg(2), Reg(1), 0);
        b.load(Reg(3), Reg(1), 256);
        b.halt();
        let mut sim = SimBuilder::new(SecurityMode::CleanupSpec)
            .program(b.build())
            .build();
        sim.run_to_completion();
        sim.report()
    }

    fn reparse(text: &str) -> Result<SimReport, String> {
        JsonValue::parse(text).and_then(|v| parse_report(&v))
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let r = completed_report();
        let text = report_json(&r);
        let back = reparse(&text).expect("roundtrip");
        assert_eq!(report_json(&back), text);
        assert_eq!(back.mode, r.mode);
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(back.stop, r.stop);
    }

    #[test]
    fn unsuccessful_stop_reasons_do_not_parse() {
        let mut r = completed_report();
        r.stop = Some(StopReason::CycleLimit);
        assert!(reparse(&report_json(&r)).is_err());
    }

    #[test]
    fn corruption_changes_the_reserialized_bytes() {
        let text = report_json(&completed_report());
        // Flip one digit inside the report body: it still parses, but no
        // longer re-serializes to the original bytes.
        let idx = text.find("\"cycles\": ").unwrap() + "\"cycles\": ".len();
        let mut bytes = text.clone().into_bytes();
        for b in &mut bytes[idx..] {
            if b.is_ascii_digit() {
                *b = if *b == b'9' { b'0' } else { *b + 1 };
                break;
            }
        }
        let corrupt = String::from_utf8(bytes).unwrap();
        let back = reparse(&corrupt).expect("a digit flip still parses");
        assert_ne!(report_json(&back), text);
    }
}
