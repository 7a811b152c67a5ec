//! `BENCH_*.json` schema: the machine-readable regression artifact that
//! `cs-bench` emits and compares.
//!
//! The document is schema-versioned (`"schema": "cs-bench-v1"`) so CI can
//! reject files written by an incompatible harness instead of silently
//! comparing apples to oranges. Per workload×mode it records the
//! simulated outcome (cycles, IPC, slowdown vs the baseline mode, the
//! full CPI stack) and the host-side cost of producing it (wall seconds,
//! simulated kilo-instructions per wall second). A top-level `host`
//! section carries the run's [`MetricsRegistry`].

use crate::attribution::{diff_stacks, top_overheads, StackDelta};
use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::SimReport;
use cleanupspec_obs::{JsonValue, JsonWriter, MetricsRegistry};

/// Schema tag written to and required from every BENCH file.
pub const SCHEMA: &str = "cs-bench-v1";

/// One workload's result under one mode.
#[derive(Clone, Debug)]
pub struct BenchEntry {
    /// Workload name (Table-3 naming).
    pub name: String,
    /// The simulated report.
    pub report: SimReport,
    /// Slowdown vs the same workload under the baseline mode.
    pub slowdown: f64,
    /// Host wall-clock seconds spent building and simulating this entry
    /// (0 when it was served from the checkpoint cache or the journal).
    pub wall_secs: f64,
}

impl BenchEntry {
    /// Simulated kilo-instructions per host wall second (0 when the wall
    /// clock was too coarse to register).
    pub fn host_kips(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            0.0
        } else {
            self.report.total_insts() as f64 / 1000.0 / self.wall_secs
        }
    }
}

/// All workloads under one mode, plus the attribution diff vs baseline.
#[derive(Clone, Debug)]
pub struct ModeSection {
    /// The security mode.
    pub mode: SecurityMode,
    /// Per-workload entries, in run order.
    pub entries: Vec<BenchEntry>,
    /// Top overhead causes vs the baseline mode (suite-wide CPI-stack
    /// diff); empty for the baseline itself.
    pub attribution: Vec<StackDelta>,
}

/// The full benchmark document.
#[derive(Debug)]
pub struct BenchReport {
    /// Instructions simulated per workload.
    pub insts: u64,
    /// Base seed.
    pub seed: u64,
    /// Name of the baseline mode slowdowns are relative to.
    pub baseline_mode: SecurityMode,
    /// One section per mode, baseline first.
    pub modes: Vec<ModeSection>,
    /// Host-side self-profiling for the whole run.
    pub host: MetricsRegistry,
}

/// Geometric mean of per-workload slowdowns (0.0 for an empty set or any
/// non-positive factor, which would make the mean meaningless).
pub fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for x in xs {
        if x <= 0.0 {
            return 0.0;
        }
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

impl ModeSection {
    /// Builds a section from reports paired with their baseline
    /// counterparts (same workload order) and wall-clock timings.
    pub fn build(
        mode: SecurityMode,
        runs: Vec<(String, SimReport, f64)>,
        baseline: &[SimReport],
    ) -> ModeSection {
        let entries: Vec<BenchEntry> = runs
            .into_iter()
            .zip(baseline.iter())
            .map(|((name, report, wall_secs), base)| BenchEntry {
                name,
                slowdown: report.slowdown_vs(base),
                report,
                wall_secs,
            })
            .collect();
        // Suite-wide attribution: diff the aggregate stacks so one noisy
        // workload cannot dominate the "where does the time go" answer.
        // For the baseline mode itself every delta is zero, so
        // top_overheads returns the correct empty set.
        let attribution = if entries.is_empty() {
            Vec::new()
        } else {
            let agg_base = aggregate(baseline.iter());
            let agg_secure = aggregate(entries.iter().map(|e| &e.report));
            top_overheads(&diff_stacks(&agg_base, &agg_secure), 3)
        };
        ModeSection {
            mode,
            entries,
            attribution,
        }
    }

    /// Geometric-mean slowdown across the suite.
    pub fn geomean_slowdown(&self) -> f64 {
        geomean(self.entries.iter().map(|e| e.slowdown))
    }
}

/// Merges a set of reports into one synthetic report whose CPI stack and
/// instruction count are the suite totals (only those fields are
/// meaningful on the result).
fn aggregate<'a>(mut reports: impl Iterator<Item = &'a SimReport>) -> SimReport {
    let mut out = reports.next().expect("non-empty report set").clone();
    for r in reports {
        out.cycles += r.cycles;
        for (i, c) in r.cores.iter().enumerate() {
            out.cores[i].committed_insts += c.committed_insts;
            out.cores[i].cpi_stack.merge(&c.cpi_stack);
        }
    }
    out
}

impl BenchReport {
    /// Renders the document as JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_object(None)
            .string("schema", SCHEMA)
            .int("insts", self.insts)
            .int("seed", self.seed)
            .string("baseline_mode", self.baseline_mode.name());
        w.open_object(Some("host"));
        self.host.write_json(&mut w);
        w.close_object();
        w.open_array("modes");
        for m in &self.modes {
            w.open_object(None)
                .string("mode", m.mode.name())
                .float("geomean_slowdown", m.geomean_slowdown());
            w.open_array("workloads");
            for e in &m.entries {
                let stack = e.report.cpi_stack();
                w.open_object(None)
                    .string("name", &e.name)
                    .int("cycles", e.report.cycles)
                    .int("cores", e.report.cores.len() as u64)
                    .int("insts", e.report.total_insts())
                    .float("ipc", e.report.ipc())
                    .float("slowdown", e.slowdown)
                    .float("wall_secs", e.wall_secs)
                    .float("host_kips", e.host_kips());
                w.open_object(Some("cpi_stack"));
                for (cause, cycles) in stack.iter() {
                    w.int(cause.name(), cycles);
                }
                w.int("total", stack.total()).close_object();
                w.close_object();
            }
            w.close_array();
            w.open_array("attribution");
            for d in &m.attribution {
                w.open_object(None)
                    .string("cause", d.cause.name())
                    .int("secure_cycles", d.secure_cycles)
                    .float("base_cpki", d.base_cpki)
                    .float("secure_cpki", d.secure_cpki)
                    .float("delta_cpki", d.delta_cpki)
                    .close_object();
            }
            w.close_array().close_object();
        }
        w.close_array().close_object();
        w.finish()
    }
}

/// Validates a parsed BENCH document: schema tag, required fields, and
/// the cycle-accounting invariant (every workload's CPI stack must sum to
/// `cycles * cores`). Returns a description of the first violation.
pub fn check_document(doc: &JsonValue) -> Result<(), String> {
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("schema mismatch: {other:?}, want {SCHEMA:?}")),
        None => return Err("missing \"schema\" tag".to_string()),
    }
    let modes = doc
        .get("modes")
        .and_then(JsonValue::as_arr)
        .ok_or("missing \"modes\" array")?;
    if modes.is_empty() {
        return Err("empty \"modes\" array".to_string());
    }
    for m in modes {
        let mode = m
            .get("mode")
            .and_then(JsonValue::as_str)
            .ok_or("mode section missing \"mode\"")?;
        let wls = m
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| format!("{mode}: missing \"workloads\""))?;
        for wl in wls {
            let name = wl
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{mode}: workload missing \"name\""))?;
            let cycles = wl
                .get("cycles")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("{mode}/{name}: missing \"cycles\""))?;
            let cores = wl
                .get("cores")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("{mode}/{name}: missing \"cores\""))?;
            for key in ["ipc", "slowdown", "wall_secs", "host_kips"] {
                wl.get(key)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("{mode}/{name}: missing \"{key}\""))?;
            }
            let stack = wl
                .get("cpi_stack")
                .and_then(JsonValue::as_obj)
                .ok_or_else(|| format!("{mode}/{name}: missing \"cpi_stack\""))?;
            let total = stack
                .get("total")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("{mode}/{name}: cpi_stack missing \"total\""))?;
            let sum: u64 = stack
                .iter()
                .filter(|(k, _)| k.as_str() != "total")
                .filter_map(|(_, v)| v.as_u64())
                .sum();
            if sum != total {
                return Err(format!(
                    "{mode}/{name}: cpi_stack components sum to {sum}, \"total\" says {total}"
                ));
            }
            if total != cycles * cores {
                return Err(format!(
                    "{mode}/{name}: cpi_stack total {total} != cycles {cycles} x cores {cores}"
                ));
            }
        }
    }
    Ok(())
}

/// One IPC regression found by [`compare_documents`].
#[derive(Clone, Debug)]
pub struct Regression {
    /// Mode name.
    pub mode: String,
    /// Workload name.
    pub workload: String,
    /// Baseline-file IPC.
    pub old_ipc: f64,
    /// New-file IPC.
    pub new_ipc: f64,
}

impl Regression {
    /// Fractional IPC loss, e.g. 0.12 for a 12% drop.
    pub fn loss(&self) -> f64 {
        if self.old_ipc <= 0.0 {
            0.0
        } else {
            1.0 - self.new_ipc / self.old_ipc
        }
    }
}

/// Compares two BENCH documents per mode×workload, returning every entry
/// whose IPC dropped by more than `threshold` (fractional, e.g. 0.10).
/// Entries present in only one document are ignored: the suite may grow.
/// Only IPC is gated — simulated cycle counts are deterministic per seed,
/// so IPC is machine-independent, while wall-clock and KIPS vary by host.
pub fn compare_documents(
    old: &JsonValue,
    new: &JsonValue,
    threshold: f64,
) -> Result<Vec<Regression>, String> {
    check_document(old).map_err(|e| format!("baseline file: {e}"))?;
    check_document(new).map_err(|e| format!("new file: {e}"))?;
    let index = |doc: &JsonValue| -> Vec<(String, String, f64)> {
        let mut out = Vec::new();
        for m in doc.get("modes").and_then(JsonValue::as_arr).unwrap_or(&[]) {
            let mode = m.get("mode").and_then(JsonValue::as_str).unwrap_or("");
            for wl in m
                .get("workloads")
                .and_then(JsonValue::as_arr)
                .unwrap_or(&[])
            {
                let name = wl.get("name").and_then(JsonValue::as_str).unwrap_or("");
                let ipc = wl.get("ipc").and_then(JsonValue::as_f64).unwrap_or(0.0);
                out.push((mode.to_string(), name.to_string(), ipc));
            }
        }
        out
    };
    let new_idx = index(new);
    let mut regressions = Vec::new();
    for (mode, workload, old_ipc) in index(old) {
        let Some((_, _, new_ipc)) = new_idx
            .iter()
            .find(|(m, w, _)| *m == mode && *w == workload)
        else {
            continue;
        };
        if old_ipc > 0.0 && *new_ipc < old_ipc * (1.0 - threshold) {
            regressions.push(Regression {
                mode,
                workload,
                old_ipc,
                new_ipc: *new_ipc,
            });
        }
    }
    Ok(regressions)
}

/// Re-serializes a BENCH document with every host-varying field removed:
/// the top-level `host` section (wall timings, KIPS, pool counters) and
/// the per-workload `wall_secs`/`host_kips` fields. Everything that
/// remains is derived from seed-deterministic simulation, so two runs of
/// the same suite at *any* thread counts must canonicalize to the same
/// bytes — the property `tests/exec_invariance.rs` and the CI exec job
/// assert. Object keys serialize in `BTreeMap` order, so the output is
/// itself deterministic.
pub fn canonical_json(doc: &JsonValue) -> String {
    fn volatile(key: &str) -> bool {
        matches!(key, "host" | "wall_secs" | "host_kips")
    }
    fn write(v: &JsonValue, out: &mut String) {
        match v {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(f) => {
                // Integral values print without a fraction so a u64 that
                // round-tripped through f64 looks like the original.
                if f.fract() == 0.0 && f.abs() < 9.0e15 {
                    out.push_str(&format!("{}", *f as i64));
                } else {
                    out.push_str(&format!("{f:?}"));
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(item, out);
                }
                out.push(']');
            }
            JsonValue::Obj(map) => {
                out.push('{');
                let mut first = true;
                for (k, item) in map.iter().filter(|(k, _)| !volatile(k)) {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    write(&JsonValue::Str(k.clone()), out);
                    out.push(':');
                    write(item, out);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    write(doc, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_known_factors() {
        assert!((geomean([1.0, 4.0].into_iter()) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty()), 0.0);
        assert_eq!(geomean([1.0, 0.0].into_iter()), 0.0);
    }

    fn synthetic_doc(ipc: f64, total_ok: bool) -> String {
        // 2 cores x 100 cycles; stack must sum to 200.
        let commit = if total_ok { 150 } else { 149 };
        format!(
            r#"{{"schema": "cs-bench-v1", "insts": 100, "seed": 1,
               "baseline_mode": "non-secure",
               "host": {{"counters": {{}}, "gauges": {{}}, "timers_secs": {{}}}},
               "modes": [{{"mode": "non-secure", "geomean_slowdown": 1.0,
                 "workloads": [{{"name": "gcc", "cycles": 100, "cores": 2,
                   "insts": 120, "ipc": {ipc}, "slowdown": 1.0,
                   "wall_secs": 0.5, "host_kips": 0.24,
                   "cpi_stack": {{"commit": {commit}, "exec": 50, "total": {}}}}}],
                 "attribution": []}}]}}"#,
            commit + 50
        )
    }

    #[test]
    fn check_accepts_consistent_and_rejects_short_stacks() {
        let good = JsonValue::parse(&synthetic_doc(1.2, true)).unwrap();
        check_document(&good).unwrap();
        let bad = JsonValue::parse(&synthetic_doc(1.2, false)).unwrap();
        let err = check_document(&bad).unwrap_err();
        assert!(err.contains("cpi_stack total"), "{err}");
    }

    #[test]
    fn check_rejects_wrong_schema() {
        let doc = JsonValue::parse(r#"{"schema": "cs-bench-v0", "modes": []}"#).unwrap();
        assert!(check_document(&doc)
            .unwrap_err()
            .contains("schema mismatch"));
    }

    #[test]
    fn compare_flags_only_losses_past_threshold() {
        let old = JsonValue::parse(&synthetic_doc(1.0, true)).unwrap();
        let ok = JsonValue::parse(&synthetic_doc(0.95, true)).unwrap();
        let bad = JsonValue::parse(&synthetic_doc(0.85, true)).unwrap();
        assert!(compare_documents(&old, &ok, 0.10).unwrap().is_empty());
        let regs = compare_documents(&old, &bad, 0.10).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].workload, "gcc");
        assert!((regs[0].loss() - 0.15).abs() < 1e-9);
        // Improvements never flag.
        let faster = JsonValue::parse(&synthetic_doc(2.0, true)).unwrap();
        assert!(compare_documents(&old, &faster, 0.10).unwrap().is_empty());
    }

    #[test]
    fn canonical_form_ignores_host_varying_fields_only() {
        // Same simulated numbers, different wall/host numbers ...
        let a = JsonValue::parse(&synthetic_doc(1.2, true)).unwrap();
        let b_text = synthetic_doc(1.2, true)
            .replace("\"wall_secs\": 0.5", "\"wall_secs\": 9.9")
            .replace("\"host_kips\": 0.24", "\"host_kips\": 777.0")
            .replace(
                "\"host\": {\"counters\": {}, \"gauges\": {}, \"timers_secs\": {}}",
                "\"host\": {\"counters\": {\"exec.tasks\": 12}, \"gauges\": {}, \"timers_secs\": {}}",
            );
        let b = JsonValue::parse(&b_text).unwrap();
        // ... must canonicalize identically,
        assert_eq!(canonical_json(&a), canonical_json(&b));
        assert!(!canonical_json(&a).contains("wall_secs"));
        // while a simulated difference must survive canonicalization.
        let c = JsonValue::parse(&synthetic_doc(1.3, true)).unwrap();
        assert_ne!(canonical_json(&a), canonical_json(&c));
    }
}
