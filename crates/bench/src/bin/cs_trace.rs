//! `cs-trace` — run a program under a security mode with the event bus
//! attached, then dump and export the event stream and check it with the
//! episode ledger.
//!
//! ```sh
//! cs-trace programs/spectre_v1.s                      # dump + ledger verdict
//! cs-trace --mode cleanupspec programs/spectre_v1.s --perfetto out.json
//! cs-trace --mode non-secure spectre_v1 --jsonl events.jsonl
//! cs-trace gcc --insts 20000 --filter cleanup-inval,cleanup-restore --core 0
//! cs-trace smith:0x42e --dump 60                      # trace a cs-smith finding
//! ```
//!
//! The positional argument is anything [`Target::resolve`] accepts: a
//! micro-ISA `.s` file, a Table-3 SPEC-like workload (`gcc`, `astar`,
//! ...), `spectre_v1`, `meltdown`, `mispredict_storm`, or `smith:<seed>`
//! (exactly cs-smith's run of that seed).
//!
//! `--filter` takes a comma list of exact event-kind names (validated
//! against the `cs-events-v3` vocabulary) and `--core N` keeps only
//! events attributed to core N; both apply to the dump *and* the JSONL
//! export, but never to the ledger or Perfetto sinks, which need the full
//! stream to stay sound.

use cleanupspec::modes::SecurityMode;
use cleanupspec_bench::cli::{CommonCli, DEFAULT_RING_CAPACITY};
use cleanupspec_bench::target::{target_help, Target};
use cleanupspec_obs::{
    EpisodeBuilder, EventSink, JsonlSink, MetricsRegistry, PerfettoSink, RingSink, Shared, SimEvent,
};
use std::io::BufWriter;
use std::process::ExitCode;

struct Args {
    target: String,
    mode: SecurityMode,
    perfetto: Option<String>,
    jsonl: Option<String>,
    filter: EventFilter,
    dump: usize,
    ring_capacity: usize,
}

/// The `--filter`/`--core` predicate shared by the dump and the JSONL
/// export.
#[derive(Clone, Default)]
struct EventFilter {
    /// Exact kind names to keep (`None` = every kind).
    kinds: Option<Vec<String>>,
    /// Core to keep (`None` = every core; core-less events are kept).
    core: Option<usize>,
}

impl EventFilter {
    /// Parses a comma list of kinds, rejecting names outside the
    /// `cs-events-v3` vocabulary (a typo must not silently empty the
    /// trace).
    fn parse_kinds(&mut self, list: &str) -> Result<(), String> {
        let mut kinds = Vec::new();
        for k in list.split(',').map(str::trim).filter(|k| !k.is_empty()) {
            if !SimEvent::KINDS.contains(&k) {
                return Err(format!(
                    "unknown event kind {k:?} (kinds: {})",
                    SimEvent::KINDS.join(", ")
                ));
            }
            kinds.push(k.to_string());
        }
        if kinds.is_empty() {
            return Err("--filter needs at least one kind".to_string());
        }
        self.kinds = Some(kinds);
        Ok(())
    }

    fn is_active(&self) -> bool {
        self.kinds.is_some() || self.core.is_some()
    }

    fn keeps(&self, event: &SimEvent) -> bool {
        if let Some(kinds) = &self.kinds {
            if !kinds.iter().any(|k| k == event.kind()) {
                return false;
            }
        }
        match (self.core, event.core()) {
            (Some(want), Some(core)) => want == core,
            _ => true,
        }
    }

    /// One-line description for the dump banner.
    fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(kinds) = &self.kinds {
            parts.push(format!("kind in [{}]", kinds.join(", ")));
        }
        if let Some(core) = self.core {
            parts.push(format!("core {core}"));
        }
        parts.join(", ")
    }
}

/// Applies an [`EventFilter`] in front of another sink.
struct FilteredSink<S: EventSink> {
    filter: EventFilter,
    inner: S,
}

impl<S: EventSink> EventSink for FilteredSink<S> {
    fn record(&mut self, cycle: u64, event: &SimEvent) {
        if self.filter.keeps(event) {
            self.inner.record(cycle, event);
        }
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

fn common_cli() -> CommonCli {
    CommonCli::new()
        .with_insts()
        .with_seed()
        .with_ring_capacity()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cs-trace [--mode <name>] [--insts N] [--seed N] \
         [--perfetto FILE] [--jsonl FILE] [--filter <kind>[,<kind>...]] \
         [--core N] [--dump N] [--ring-capacity N] <file.s | workload>"
    );
    eprintln!("{}", common_cli().help());
    eprintln!("{}", target_help());
    ExitCode::FAILURE
}

/// The parsed flags and the resolved target.
fn parse_args() -> Result<(Args, Target), ExitCode> {
    let mut common = common_cli();
    let mut args = Args {
        target: String::new(),
        mode: SecurityMode::CleanupSpec,
        perfetto: None,
        jsonl: None,
        filter: EventFilter::default(),
        dump: 40,
        ring_capacity: DEFAULT_RING_CAPACITY,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match common.accept(a, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("cs-trace: {e}");
                return Err(usage());
            }
        }
        match a.as_str() {
            "--mode" => match it.next().and_then(|m| SecurityMode::from_name(m)) {
                Some(m) => args.mode = m,
                None => return Err(usage()),
            },
            "--dump" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => args.dump = n,
                None => return Err(usage()),
            },
            "--perfetto" => match it.next() {
                Some(f) => args.perfetto = Some(f.clone()),
                None => return Err(usage()),
            },
            "--jsonl" => match it.next() {
                Some(f) => args.jsonl = Some(f.clone()),
                None => return Err(usage()),
            },
            "--filter" => match it.next() {
                Some(f) => {
                    if let Err(e) = args.filter.parse_kinds(f) {
                        eprintln!("cs-trace: {e}");
                        return Err(usage());
                    }
                }
                None => return Err(usage()),
            },
            "--core" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => args.filter.core = Some(n),
                None => return Err(usage()),
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
    args.ring_capacity = common.ring_capacity.unwrap_or(args.ring_capacity);
    match Target::resolve(&args.target, common.insts, common.seed, None) {
        Ok(target) => Ok((args, target)),
        Err(e) => {
            eprintln!("cs-trace: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let (args, target) = match parse_args() {
        Ok(a) => a,
        Err(e) => return e,
    };

    // Sinks: ring (dump) + ledger always; Perfetto/JSONL when requested.
    let ring = Shared::new(RingSink::new(args.ring_capacity));
    let ledger = Shared::new(EpisodeBuilder::new());
    // The sink knows its output path, so the trace is written even if the
    // run panics (Drop flush) — not only on the happy path below.
    let perfetto = args
        .perfetto
        .as_ref()
        .map(|p| Shared::new(PerfettoSink::with_output(p)));
    let mut sinks: Vec<Box<dyn EventSink>> = vec![Box::new(ring.clone()), Box::new(ledger.clone())];
    if let Some(p) = &perfetto {
        sinks.push(Box::new(p.clone()));
    }
    // Shared so the dropped-line counter can be read back after the run
    // and published as a host metric — write failures are not silent.
    let mut jsonl: Option<Shared<JsonlSink<BufWriter<std::fs::File>>>> = None;
    if let Some(path) = &args.jsonl {
        match std::fs::File::create(path) {
            Ok(f) => {
                let sink = Shared::new(JsonlSink::new(BufWriter::new(f)));
                // --filter/--core narrow the export too, so a capture of
                // just the cleanup kinds stays small on long runs.
                sinks.push(Box::new(FilteredSink {
                    filter: args.filter.clone(),
                    inner: sink.clone(),
                }));
                jsonl = Some(sink);
            }
            Err(e) => {
                eprintln!("cs-trace: cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Host self-profiling: wall-clock the run, then export the derived
    // rates as Perfetto counter tracks alongside the simulation's tracks.
    let mut host = MetricsRegistry::new();
    let start = std::time::Instant::now();
    let sim = target.run(args.mode, sinks);
    let wall = start.elapsed().as_secs_f64();
    host.add_timing("sim", wall);

    let r = sim.report();
    let (events, dropped) = ring.with(|s| (s.total_recorded(), s.dropped()));
    host.add("events_recorded", events);
    host.add("events_dropped", dropped);
    let sink_io_errors = jsonl.as_ref().map_or(0, |s| s.with(|j| j.io_errors()));
    host.add("sink_io_errors", sink_io_errors);
    let kips = if wall > 0.0 {
        r.total_insts() as f64 / 1000.0 / wall
    } else {
        0.0
    };
    let eps = if wall > 0.0 {
        events as f64 / wall
    } else {
        0.0
    };
    host.set_gauge("sim_kips", kips);
    host.set_gauge("events_per_sec", eps);
    let end_ts = sim.system().now();
    host.sample("sim_kips", end_ts, kips);
    host.sample("events_per_sec", end_ts, eps);
    if let Some(p) = &perfetto {
        p.with(|s| s.add_host_counters(host.samples().to_vec()));
    }
    sim.finish_observer();

    println!("mode       : {}", args.mode.name());
    println!("cycles     : {}", r.cycles);
    println!("insts      : {}  (IPC {:.3})", r.total_insts(), r.ipc());
    println!(
        "squashes   : {}  cleanup: {} invals, {} restores, {} dropped fills",
        r.cores[0].squashes, r.mem.cleanup_invals, r.mem.cleanup_restores, r.mem.dropped_fills
    );
    println!(
        "events     : {events}  ({dropped} dropped at ring capacity {})",
        args.ring_capacity
    );
    println!("host       : {wall:.2}s wall, {kips:.0} KIPS, {eps:.0} events/s");

    if let Some(path) = &args.perfetto {
        let p = perfetto.expect("sink exists when path given");
        match p.with(|s| s.write_output()) {
            Ok(bytes) => println!(
                "perfetto   : {path} ({} events, {bytes} bytes)",
                p.with(|s| s.len())
            ),
            Err(e) => {
                eprintln!("cs-trace: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.jsonl {
        // Re-read after finish_observer: the final flush can fail too.
        match jsonl.as_ref().map_or(0, |s| s.with(|j| j.io_errors())) {
            0 => println!("jsonl      : {path}"),
            n => {
                eprintln!("cs-trace: {path} is incomplete: {n} line(s) dropped on I/O errors");
                return ExitCode::FAILURE;
            }
        }
    }

    if args.dump > 0 {
        println!(
            "--- last {} events{} ---",
            args.dump,
            if args.filter.is_active() {
                format!(" matching {}", args.filter.describe())
            } else {
                String::new()
            }
        );
        let records = ring.with(|s| s.to_vec());
        let matching: Vec<_> = records
            .iter()
            .filter(|r| args.filter.keeps(&r.event))
            .copied()
            .collect();
        for r in matching.iter().rev().take(args.dump).rev() {
            println!("c{:>8} {}", r.cycle, r.event);
        }
    }

    let verdict = ledger.with(|l| l.report());
    println!("{verdict}");
    if args.mode == SecurityMode::CleanupSpec && !verdict.clean() {
        eprintln!("cs-trace: cleanupspec run left speculative residue");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
