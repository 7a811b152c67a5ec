//! `cs-report` — speculation-episode forensics.
//!
//! Reconstructs cleanup *episodes* (squash → cleanup → resume) and their
//! undo-coverage ledger from an event stream, then renders a forensics
//! report: the ledger verdict, aggregate episode shape, and the top-K
//! slowest episodes with their event timelines.
//!
//! ```sh
//! cs-report events.jsonl                       # replay a cs-trace capture
//! cs-report spectre_v1                         # run the workload directly
//! cs-report gcc --compare --top 3              # episode shape across schemes
//! cs-report spectre_v1 --fault skip-victim-restore --expect leaky
//! cs-report spectre_v1 --json --out report.json
//! cs-report smith:0x42e --mode cleanupspec      # trace a cs-smith finding
//! ```
//!
//! The positional argument is a `.jsonl` trace written by
//! `cs-trace --jsonl` (the header must declare schema `cs-events-v3`), or
//! anything `cs-trace` accepts as a target; `smith:<seed>` is exactly
//! cs-smith's run of that seed (with `--fault`, cs-chaos's). The report
//! body is fully deterministic: replaying a trace of a run produces
//! byte-identical output to running the workload directly, and
//! `--threads` never changes a byte.

use cleanupspec::modes::SecurityMode;
use cleanupspec_bench::cli::CommonCli;
use cleanupspec_bench::exec::run_indexed;
use cleanupspec_bench::target::{target_help, Target};
use cleanupspec_mem::fault::FaultKind;
use cleanupspec_obs::episode::{EpisodeBuilder, EpisodeRecord, EpisodeReport};
use cleanupspec_obs::{
    event_from_json, EventSink, JsonValue, JsonWriter, Shared, SimEvent, EVENT_SCHEMA_VERSION,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Modes compared by `--compare`: the paper's scheme against the
/// strongest related defence and the insecure baseline.
const COMPARE_MODES: [SecurityMode; 3] = [
    SecurityMode::CleanupSpec,
    SecurityMode::InvisiSpecRevised,
    SecurityMode::NonSecure,
];

/// What the caller asserts about the primary run's ledger.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Exit nonzero unless the ledger balanced (CI clean-run gate).
    Clean,
    /// Exit nonzero unless at least one leak was found (CI fault gate).
    Leaky,
}

struct Args {
    target: String,
    mode: SecurityMode,
    insts: Option<u64>,
    seed: Option<u64>,
    top: usize,
    json: bool,
    out: Option<String>,
    compare: bool,
    fault: Option<FaultKind>,
    expect: Option<Expect>,
    threads: usize,
}

fn common_cli() -> CommonCli {
    CommonCli::new().with_insts().with_seed().with_threads()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cs-report [--mode <name>] [--insts N] [--seed N] [--threads N] \
         [--top K] [--json] [--out FILE] [--compare] [--fault KIND] \
         [--expect clean|leaky] <trace.jsonl | file.s | workload>"
    );
    eprintln!("{}", common_cli().help());
    eprintln!("{}", target_help());
    eprintln!(
        "faults: {}",
        FaultKind::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::FAILURE
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut common = common_cli();
    let mut args = Args {
        target: String::new(),
        mode: SecurityMode::CleanupSpec,
        insts: None,
        seed: None,
        top: 5,
        json: false,
        out: None,
        compare: false,
        fault: None,
        expect: None,
        threads: 0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match common.accept(a, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("cs-report: {e}");
                return Err(usage());
            }
        }
        match a.as_str() {
            "--mode" => match it.next().and_then(|m| SecurityMode::from_name(m)) {
                Some(m) => args.mode = m,
                None => return Err(usage()),
            },
            "--top" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => args.top = n,
                None => return Err(usage()),
            },
            "--json" => args.json = true,
            "--compare" => args.compare = true,
            "--out" => match it.next() {
                Some(f) => args.out = Some(f.clone()),
                None => return Err(usage()),
            },
            "--fault" => match it.next().and_then(|k| FaultKind::parse(k)) {
                Some(k) => args.fault = Some(k),
                None => return Err(usage()),
            },
            "--expect" => match it.next().map(String::as_str) {
                Some("clean") => args.expect = Some(Expect::Clean),
                Some("leaky") => args.expect = Some(Expect::Leaky),
                _ => return Err(usage()),
            },
            f if !f.starts_with('-') && args.target.is_empty() => {
                args.target = f.to_string();
            }
            _ => return Err(usage()),
        }
    }
    if args.target.is_empty() {
        return Err(usage());
    }
    args.insts = common.insts;
    args.seed = common.seed;
    args.threads = common.threads_or_default();
    Ok(args)
}

/// Accumulates every event in memory so the analysis runs over the exact
/// stream a JSONL trace of the same run would replay.
#[derive(Default)]
struct CollectSink {
    events: Vec<(u64, SimEvent)>,
}

impl EventSink for CollectSink {
    fn record(&mut self, cycle: u64, event: &SimEvent) {
        self.events.push((cycle, *event));
    }
}

/// Everything the renderers need, derived from one pass over an event
/// stream. Replay and direct-run go through this same function, which is
/// what makes the two report bodies byte-identical.
struct Analysis {
    label: String,
    events: u64,
    report: EpisodeReport,
    /// Rendered timeline lines per `(core, episode)`.
    timelines: HashMap<(usize, u64), Vec<String>>,
}

fn analyze(label: &str, events: &[(u64, SimEvent)]) -> Analysis {
    let mut builder = EpisodeBuilder::new();
    let mut timelines: HashMap<(usize, u64), Vec<String>> = HashMap::new();
    for &(cycle, event) in events {
        builder.record(cycle, &event);
        if let Some(ep) = event.episode() {
            // A dummy miss belongs to the *owner's* (prospective) episode,
            // not the core that took the miss.
            let core = match event {
                SimEvent::DummyMiss { owner, .. } => owner,
                _ => event.core().unwrap_or(0),
            };
            timelines
                .entry((core, ep))
                .or_default()
                .push(format!("c{cycle:>8} {event}"));
        }
    }
    Analysis {
        label: label.to_string(),
        events: events.len() as u64,
        report: builder.report(),
        timelines,
    }
}

/// Reads a cs-trace JSONL capture, refusing schema mismatches.
fn load_trace(path: &str) -> Result<Vec<(u64, SimEvent)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| format!("{path}: empty trace"))?;
    let hv = JsonValue::parse(header).map_err(|e| format!("{path}:1: {e}"))?;
    match hv.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == EVENT_SCHEMA_VERSION => {}
        Some(s) => {
            return Err(format!(
                "{path}: trace schema is {s:?} but this cs-report reads \
                 {EVENT_SCHEMA_VERSION:?}; re-capture with a matching cs-trace"
            ))
        }
        None => {
            return Err(format!(
                "{path}: first line is not a schema header \
                 ({{\"schema\": \"{EVENT_SCHEMA_VERSION}\"}}); re-capture with cs-trace --jsonl"
            ))
        }
    }
    let mut out = Vec::new();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let v = JsonValue::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        out.push(event_from_json(&v).map_err(|e| format!("{path}:{}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Aggregate episode-shape statistics over one report.
#[derive(Default)]
struct Shape {
    count: u64,
    open: u64,
    dur_min: u64,
    dur_mean: f64,
    dur_p50: u64,
    dur_p95: u64,
    dur_max: u64,
    squashes: u64,
    insns: u64,
    loads: u64,
    loads_issued: u64,
    invals: u64,
    restores: u64,
    raced: u64,
    dropped: u64,
    dummy: u64,
    bumps: u64,
    stall: u64,
    sefe_max: u64,
    overlapped: u64,
}

/// Nearest-rank percentile over a sorted slice (integer math: the result
/// must not depend on float rounding).
fn pct(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

fn shape(report: &EpisodeReport) -> Shape {
    let mut s = Shape {
        count: report.episodes.len() as u64,
        open: report.open_episodes() as u64,
        ..Shape::default()
    };
    let mut durations: Vec<u64> = report
        .episodes
        .iter()
        .filter(|e| e.closed)
        .map(|e| e.duration())
        .collect();
    durations.sort_unstable();
    if let (Some(&min), Some(&max)) = (durations.first(), durations.last()) {
        s.dur_min = min;
        s.dur_max = max;
        s.dur_mean = durations.iter().sum::<u64>() as f64 / durations.len() as f64;
        s.dur_p50 = pct(&durations, 50);
        s.dur_p95 = pct(&durations, 95);
    }
    for e in &report.episodes {
        s.squashes += e.squashes;
        s.insns += e.squashed_insns;
        s.loads += e.loads;
        s.loads_issued += e.loads_issued;
        s.invals += e.invals;
        s.restores += e.restores;
        s.raced += e.raced_fills;
        s.dropped += e.dropped_fills;
        s.dummy += e.dummy_misses;
        s.bumps += e.epoch_bumps;
        s.stall += e.stall;
        s.sefe_max = s.sefe_max.max(e.sefe_high);
        s.overlapped += u64::from(e.overlap_next > 0);
    }
    s
}

/// The top-K slowest closed episodes, slowest first; ties break toward
/// the earlier (core, id) so the ordering is total.
fn slowest(report: &EpisodeReport, k: usize) -> Vec<&EpisodeRecord> {
    let mut closed: Vec<&EpisodeRecord> = report.episodes.iter().filter(|e| e.closed).collect();
    closed.sort_by(|a, b| {
        b.duration()
            .cmp(&a.duration())
            .then(a.core.cmp(&b.core))
            .then(a.id.cmp(&b.id))
    });
    closed.truncate(k);
    closed
}

/// Leak counts per kind, in kind order.
fn leak_counts(report: &EpisodeReport) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for l in &report.leaks {
        *counts.entry(l.kind.as_str()).or_insert(0) += 1;
    }
    counts
}

/// Timeline lines shown per episode before eliding the middle.
const TIMELINE_HEAD: usize = 10;
const TIMELINE_TAIL: usize = 3;

fn write_timeline(out: &mut String, lines: &[String]) {
    out.push_str("```text\n");
    if lines.len() <= TIMELINE_HEAD + TIMELINE_TAIL + 1 {
        for l in lines {
            let _ = writeln!(out, "{l}");
        }
    } else {
        for l in &lines[..TIMELINE_HEAD] {
            let _ = writeln!(out, "{l}");
        }
        let _ = writeln!(
            out,
            "  … {} events elided …",
            lines.len() - TIMELINE_HEAD - TIMELINE_TAIL
        );
        for l in &lines[lines.len() - TIMELINE_TAIL..] {
            let _ = writeln!(out, "{l}");
        }
    }
    out.push_str("```\n");
}

fn render_markdown(analyses: &[Analysis], top: usize) -> String {
    let a = &analyses[0];
    let s = shape(&a.report);
    let mut out = String::new();
    let _ = writeln!(out, "# cs-report — speculation-episode forensics\n");
    let _ = writeln!(out, "| run | value |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(out, "| mode | {} |", a.label);
    let _ = writeln!(out, "| schema | {EVENT_SCHEMA_VERSION} |");
    let _ = writeln!(out, "| events | {} |", a.events);

    let _ = writeln!(out, "\n## Undo-coverage ledger\n");
    let _ = writeln!(
        out,
        "episodes reconstructed: {} ({} open at end of run)\n",
        s.count, s.open
    );
    if a.report.clean() {
        let _ = writeln!(out, "verdict: BALANCED — every undo ledger closed clean");
    } else {
        let _ = writeln!(
            out,
            "verdict: LEAKY — {} finding(s)\n",
            a.report.leaks.len()
        );
        let _ = writeln!(out, "| leak kind | count |");
        let _ = writeln!(out, "|---|---|");
        for (kind, n) in leak_counts(&a.report) {
            let _ = writeln!(out, "| {kind} | {n} |");
        }
        let _ = writeln!(out, "\nfindings (first 20):\n");
        for l in a.report.leaks.iter().take(20) {
            let _ = writeln!(out, "- {l}");
        }
        if a.report.leaks.len() > 20 {
            let _ = writeln!(out, "- … {} more", a.report.leaks.len() - 20);
        }
    }

    let _ = writeln!(out, "\n## Episode shape\n");
    let _ = writeln!(out, "| metric | value |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(
        out,
        "| duration min / mean / max | {} / {:.1} / {} |",
        s.dur_min, s.dur_mean, s.dur_max
    );
    let _ = writeln!(
        out,
        "| duration p50 / p95 | {} / {} |",
        s.dur_p50, s.dur_p95
    );
    let _ = writeln!(
        out,
        "| squashes merged | {} ({} insns) |",
        s.squashes, s.insns
    );
    let _ = writeln!(
        out,
        "| squashed loads | {} ({} issued) |",
        s.loads, s.loads_issued
    );
    let _ = writeln!(out, "| invalidations | {} |", s.invals);
    let _ = writeln!(out, "| restores | {} |", s.restores);
    let _ = writeln!(out, "| raced fills | {} |", s.raced);
    let _ = writeln!(out, "| dropped fills | {} |", s.dropped);
    let _ = writeln!(out, "| dummy misses | {} |", s.dummy);
    let _ = writeln!(out, "| epoch bumps | {} |", s.bumps);
    let _ = writeln!(out, "| stall cycles | {} |", s.stall);
    let _ = writeln!(out, "| SEFE high-water (max) | {} |", s.sefe_max);
    let _ = writeln!(out, "| overlapping episodes | {} |", s.overlapped);

    let slow = slowest(&a.report, top);
    let _ = writeln!(out, "\n## Slowest episodes (top {})\n", slow.len());
    for (i, e) in slow.iter().enumerate() {
        let _ = writeln!(
            out,
            "### {}. core{} episode {} — {} cycles\n",
            i + 1,
            e.core,
            e.id,
            e.duration()
        );
        let _ = writeln!(out, "| field | value |");
        let _ = writeln!(out, "|---|---|");
        let _ = writeln!(out, "| seq | {} |", e.seq);
        let _ = writeln!(
            out,
            "| window | {}..{} (cleanup from {}) |",
            e.start, e.end, e.cleanup_start
        );
        let _ = writeln!(
            out,
            "| squashes | {} ({} insns) |",
            e.squashes, e.squashed_insns
        );
        let _ = writeln!(out, "| loads | {} ({} issued) |", e.loads, e.loads_issued);
        let _ = writeln!(out, "| invals / restores | {} / {} |", e.invals, e.restores);
        let _ = writeln!(
            out,
            "| raced / dropped fills | {} / {} |",
            e.raced_fills, e.dropped_fills
        );
        let _ = writeln!(out, "| dummy misses | {} |", e.dummy_misses);
        let _ = writeln!(out, "| stall cycles | {} |", e.stall);
        let _ = writeln!(out, "| SEFE high-water | {} |", e.sefe_high);
        let _ = writeln!(out, "| overlap with next | {} |", e.overlap_next);
        let _ = writeln!(out);
        if let Some(lines) = a.timelines.get(&(e.core, e.id)) {
            write_timeline(&mut out, lines);
        }
    }

    if analyses.len() > 1 {
        let _ = writeln!(out, "\n## Scheme comparison\n");
        let mut header = String::from("| metric |");
        let mut rule = String::from("|---|");
        for b in analyses {
            let _ = write!(header, " {} |", b.label);
            rule.push_str("---|");
        }
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{rule}");
        let shapes: Vec<Shape> = analyses.iter().map(|b| shape(&b.report)).collect();
        let row = |out: &mut String, name: &str, cell: &dyn Fn(usize) -> String| {
            let mut line = format!("| {name} |");
            for i in 0..analyses.len() {
                let _ = write!(line, " {} |", cell(i));
            }
            let _ = writeln!(out, "{line}");
        };
        row(&mut out, "events", &|i| analyses[i].events.to_string());
        row(&mut out, "episodes", &|i| shapes[i].count.to_string());
        row(&mut out, "open at end", &|i| shapes[i].open.to_string());
        row(&mut out, "duration p50", &|i| shapes[i].dur_p50.to_string());
        row(&mut out, "duration p95", &|i| shapes[i].dur_p95.to_string());
        row(&mut out, "duration max", &|i| shapes[i].dur_max.to_string());
        row(&mut out, "squashed loads", &|i| shapes[i].loads.to_string());
        row(&mut out, "invals", &|i| shapes[i].invals.to_string());
        row(&mut out, "restores", &|i| shapes[i].restores.to_string());
        row(&mut out, "raced fills", &|i| shapes[i].raced.to_string());
        row(&mut out, "dropped fills", &|i| {
            shapes[i].dropped.to_string()
        });
        row(&mut out, "stall cycles", &|i| shapes[i].stall.to_string());
        row(&mut out, "ledger leaks", &|i| {
            analyses[i].report.leaks.len().to_string()
        });
        row(&mut out, "verdict", &|i| {
            if analyses[i].report.clean() {
                "BALANCED".to_string()
            } else {
                "LEAKY".to_string()
            }
        });
    }
    out
}

fn render_json(analyses: &[Analysis], top: usize) -> String {
    let mut w = JsonWriter::new();
    w.open_object(None).string("schema", EVENT_SCHEMA_VERSION);
    w.open_array("modes");
    for a in analyses {
        let s = shape(&a.report);
        w.open_object(None)
            .string("mode", &a.label)
            .int("events", a.events)
            .int("episodes", s.count)
            .int("open", s.open)
            .string(
                "verdict",
                if a.report.clean() {
                    "balanced"
                } else {
                    "leaky"
                },
            );
        w.open_object(Some("shape"))
            .int("duration_min", s.dur_min)
            .float("duration_mean", s.dur_mean)
            .int("duration_p50", s.dur_p50)
            .int("duration_p95", s.dur_p95)
            .int("duration_max", s.dur_max)
            .int("squashes", s.squashes)
            .int("squashed_insns", s.insns)
            .int("loads", s.loads)
            .int("loads_issued", s.loads_issued)
            .int("invals", s.invals)
            .int("restores", s.restores)
            .int("raced_fills", s.raced)
            .int("dropped_fills", s.dropped)
            .int("dummy_misses", s.dummy)
            .int("epoch_bumps", s.bumps)
            .int("stall", s.stall)
            .int("sefe_high_max", s.sefe_max)
            .int("overlapping", s.overlapped)
            .close_object();
        w.open_array("leaks");
        for l in &a.report.leaks {
            w.open_object(None)
                .int("core", l.core as u64)
                .int("episode", l.episode)
                .int("line", l.line)
                .string("kind", l.kind.as_str())
                .close_object();
        }
        w.close_array();
        w.open_array("slowest");
        for e in slowest(&a.report, top) {
            w.open_object(None)
                .int("core", e.core as u64)
                .int("id", e.id)
                .int("seq", e.seq)
                .int("start", e.start)
                .int("cleanup_start", e.cleanup_start)
                .int("end", e.end)
                .int("duration", e.duration())
                .int("squashes", e.squashes)
                .int("squashed_insns", e.squashed_insns)
                .int("loads", e.loads)
                .int("loads_issued", e.loads_issued)
                .int("invals", e.invals)
                .int("restores", e.restores)
                .int("raced_fills", e.raced_fills)
                .int("dropped_fills", e.dropped_fills)
                .int("dummy_misses", e.dummy_misses)
                .int("stall", e.stall)
                .int("sefe_high", e.sefe_high)
                .int("overlap_next", e.overlap_next);
            w.open_array("timeline");
            if let Some(lines) = a.timelines.get(&(e.core, e.id)) {
                for l in lines {
                    w.string_item(l);
                }
            }
            w.close_array();
            w.close_object();
        }
        w.close_array();
        w.close_object();
    }
    w.close_array().close_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return e,
    };
    let is_trace = args.target.ends_with(".jsonl");
    if is_trace && (args.compare || args.fault.is_some()) {
        eprintln!("cs-report: --compare/--fault need a runnable workload, not a trace");
        return ExitCode::FAILURE;
    }

    let analyses: Vec<Analysis> = if is_trace {
        match load_trace(&args.target) {
            Ok(events) => vec![analyze(args.mode.name(), &events)],
            Err(e) => {
                eprintln!("cs-report: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let target = match Target::resolve(&args.target, args.insts, args.seed, args.fault) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cs-report: {e}");
                return ExitCode::FAILURE;
            }
        };
        let modes: Vec<SecurityMode> = if args.compare {
            COMPARE_MODES.to_vec()
        } else {
            vec![args.mode]
        };
        let outcome = run_indexed(modes.len(), args.threads, |i| {
            let sink = Shared::new(CollectSink::default());
            target.run(modes[i], vec![Box::new(sink.clone())]);
            sink.with(|s| analyze(modes[i].name(), &s.events))
        });
        let mut done = Vec::with_capacity(modes.len());
        for (mode, slot) in modes.iter().zip(outcome.slots) {
            match slot {
                Some(a) => done.push(a),
                None => {
                    eprintln!("cs-report: {} run panicked", mode.name());
                    return ExitCode::FAILURE;
                }
            }
        }
        done
    };

    let body = if args.json {
        render_json(&analyses, args.top)
    } else {
        render_markdown(&analyses, args.top)
    };
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &body) {
                eprintln!("cs-report: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("report: {path}");
        }
        None => print!("{body}"),
    }

    let primary = &analyses[0];
    match args.expect {
        Some(Expect::Clean) if !primary.report.clean() => {
            eprintln!(
                "cs-report: expected a balanced ledger, found {} leak(s)",
                primary.report.leaks.len()
            );
            ExitCode::FAILURE
        }
        Some(Expect::Leaky) if primary.report.clean() => {
            eprintln!("cs-report: expected ledger leaks, found none");
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}
