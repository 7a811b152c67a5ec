//! `cs-bench` — regression harness: runs the workload suite across
//! security modes and emits a schema-versioned `BENCH_*.json` with
//! per-workload cycles, IPC, CPI stacks, slowdown vs NonSecure, and
//! host-side throughput (wall seconds, KIPS, events/sec).
//!
//! ```sh
//! cs-bench --out BENCH_full.json                 # full suite, MAIN modes
//! cs-bench --smoke --out BENCH_smoke.json        # CI-sized subset
//! cs-bench --modes cleanupspec --workloads gcc,mcf --insts 50000
//! cs-bench --check BENCH_smoke.json              # schema + invariant
//! cs-bench --compare OLD.json NEW.json --threshold 0.10
//! ```
//!
//! `--compare` gates on IPC only: simulated cycle counts are
//! deterministic per seed, so IPC is machine-independent, while the host
//! metrics (wall, KIPS) vary by machine and are never gated.
//!
//! The sweep itself runs on the shared `cs-exec` executor via
//! [`cleanupspec_bench::suite::run_suite`]; this binary only parses
//! flags, prints the summary, and writes the artifact.

use cleanupspec::modes::SecurityMode;
use cleanupspec_bench::bench_report::{check_document, compare_documents, SCHEMA};
use cleanupspec_bench::cli::CommonCli;
use cleanupspec_bench::fmt::table;
use cleanupspec_bench::runner::{resume_dir_from_env, ExperimentConfig};
use cleanupspec_bench::suite::{run_suite, smoke_workloads, SuiteOptions};
use cleanupspec_obs::JsonValue;
use cleanupspec_workloads::spec::{SpecWorkload, SPEC_WORKLOADS};
use std::process::ExitCode;

struct Args {
    common: CommonCli,
    modes: Vec<SecurityMode>,
    workloads: Option<Vec<String>>,
    out: String,
    smoke: bool,
    threshold: f64,
    check: Option<String>,
    compare: Option<(String, String)>,
}

fn common_cli() -> CommonCli {
    CommonCli::new()
        .with_insts()
        .with_seed()
        .with_threads()
        .with_ring_capacity()
        .with_resume()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cs-bench [--insts N] [--seed N] [--threads N] [--modes a,b] \
         [--workloads a,b] [--out FILE] [--smoke] [--ring-capacity N] \
         [--resume DIR]\n\
         \x20      cs-bench --check FILE\n\
         \x20      cs-bench --compare OLD NEW [--threshold FRAC]"
    );
    eprintln!("{}", common_cli().help());
    eprintln!(
        "modes: {}",
        SecurityMode::ALL
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::FAILURE
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        common: common_cli(),
        modes: SecurityMode::MAIN.to_vec(),
        workloads: None,
        out: String::new(),
        smoke: false,
        threshold: 0.10,
        check: None,
        compare: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match args.common.accept(a, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("cs-bench: {e}");
                return Err(usage());
            }
        }
        match a.as_str() {
            "--threshold" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => args.threshold = n,
                None => return Err(usage()),
            },
            "--modes" => match it.next() {
                Some(list) => {
                    let mut modes = Vec::new();
                    for name in list.split(',') {
                        match SecurityMode::ALL.into_iter().find(|m| m.name() == name) {
                            Some(m) => modes.push(m),
                            None => {
                                eprintln!("cs-bench: unknown mode {name:?}");
                                return Err(usage());
                            }
                        }
                    }
                    args.modes = modes;
                }
                None => return Err(usage()),
            },
            "--workloads" => match it.next() {
                Some(list) => {
                    args.workloads = Some(list.split(',').map(str::to_string).collect());
                }
                None => return Err(usage()),
            },
            "--out" => match it.next() {
                Some(f) => args.out = f.clone(),
                None => return Err(usage()),
            },
            "--smoke" => args.smoke = true,
            "--check" => match it.next() {
                Some(f) => args.check = Some(f.clone()),
                None => return Err(usage()),
            },
            "--compare" => match (it.next(), it.next()) {
                (Some(old), Some(new)) => args.compare = Some((old.clone(), new.clone())),
                _ => return Err(usage()),
            },
            _ => return Err(usage()),
        }
    }
    if args.out.is_empty() {
        args.out = if args.smoke {
            "BENCH_smoke.json".to_string()
        } else {
            "BENCH_full.json".to_string()
        };
    }
    Ok(args)
}

fn load_doc(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &Args) -> ExitCode {
    let mut cfg = ExperimentConfig::default();
    if args.smoke {
        cfg.insts = 20_000;
    }
    if let Some(n) = args.common.insts {
        cfg.insts = n;
    }
    cfg.seed = args.common.seed.unwrap_or(cfg.seed);
    cfg.threads = args.common.threads_or_default();

    let workloads: Vec<SpecWorkload> = match (&args.workloads, args.smoke) {
        (Some(names), _) => {
            let mut ws = Vec::new();
            for n in names {
                match SPEC_WORKLOADS.iter().find(|w| w.name == n.as_str()) {
                    Some(w) => ws.push(*w),
                    None => {
                        eprintln!("cs-bench: unknown workload {n:?}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ws
        }
        (None, true) => smoke_workloads(),
        (None, false) => SPEC_WORKLOADS.to_vec(),
    };

    let opts = SuiteOptions {
        cfg,
        modes: args.modes.clone(),
        workloads,
        ring_capacity: args.common.ring_capacity_or_default(),
        // `--resume` wins over the environment.
        resume_dir: args.common.resume.clone().or_else(resume_dir_from_env),
    };
    println!(
        "== cs-bench: {} workloads x {} modes, {} insts each ==",
        opts.workloads.len(),
        opts.modes.len() + usize::from(!opts.modes.contains(&SecurityMode::NonSecure)),
        opts.cfg.insts
    );
    let outcome = run_suite(&opts);

    if outcome.served > 0 {
        // stderr: stdout stays byte-comparable with a fresh run.
        eprintln!(
            "cs-bench: {} of {} runs served from the result journal",
            outcome.served,
            outcome.modes.len() * opts.workloads.len()
        );
    }

    // Human-readable summary before the artifact: slowdown per mode and
    // where the secure modes spend their extra time.
    let mut rows = Vec::new();
    for s in &outcome.report.modes {
        let attribution = s
            .attribution
            .iter()
            .map(|d| format!("{} +{:.1}", d.cause.name(), d.delta_cpki))
            .collect::<Vec<_>>()
            .join(", ");
        rows.push(vec![
            s.mode.name().to_string(),
            format!("{:.3}", s.geomean_slowdown()),
            if attribution.is_empty() {
                "-".to_string()
            } else {
                attribution
            },
        ]);
    }
    println!(
        "{}",
        table(
            &["mode", "geomean slowdown", "top overheads (delta CPKI)"],
            &rows
        )
    );
    let (_, dropped) = outcome.events;
    println!(
        "host: {:.1}s wall, {:.0} KIPS, {:.0} events/s ({} dropped at ring capacity {}), \
         {} worker(s)",
        outcome.wall_secs,
        outcome.report.host.gauge("sim_kips"),
        outcome.report.host.gauge("events_per_sec"),
        dropped,
        opts.ring_capacity,
        outcome.exec.threads
    );

    let json = outcome.report.to_json();
    // Self-check the artifact before writing: a BENCH file that fails its
    // own schema or cycle-accounting invariant must never reach CI.
    let doc = match JsonValue::parse(&json) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cs-bench: internal error: emitted invalid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = check_document(&doc) {
        eprintln!("cs-bench: internal error: emitted document fails check: {e}");
        return ExitCode::FAILURE;
    }
    // Write through the hardened artifact store: unique tmp + fsync +
    // rename plus a checksum sidecar, so a crash mid-write can never
    // leave a torn BENCH document for CI to choke on.
    let out_path = std::path::Path::new(&args.out);
    let out_dir = match out_path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => std::path::Path::new("."),
    };
    let out_name = out_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| args.out.clone());
    let store = cleanupspec_bench::store::shared_dir_store(out_dir);
    use cleanupspec_bench::store::ArtifactStore as _;
    if let Err(e) = store.put(&out_name, json.as_bytes()) {
        eprintln!("cs-bench: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    if !store.persistent() {
        // The store degraded to memory: the suite finished and the
        // summary above is valid, but the artifact is not on disk —
        // that is a failure for a file-emitting run.
        eprintln!(
            "cs-bench: cannot write {}: output directory is unwritable \
             (results shown above are complete)",
            args.out
        );
        return ExitCode::FAILURE;
    }
    println!("wrote {} ({} bytes, schema {SCHEMA})", args.out, json.len());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return e,
    };

    if let Some(path) = &args.check {
        return match load_doc(path).and_then(|d| check_document(&d)) {
            Ok(()) => {
                println!("{path}: ok (schema {SCHEMA}, CPI stacks sum to cycles)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cs-bench: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some((old_path, new_path)) = &args.compare {
        let docs = load_doc(old_path).and_then(|o| load_doc(new_path).map(|n| (o, n)));
        let (old, new) = match docs {
            Ok(d) => d,
            Err(e) => {
                eprintln!("cs-bench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let regressions = match compare_documents(&old, &new, args.threshold) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cs-bench: {e}");
                return ExitCode::FAILURE;
            }
        };
        if regressions.is_empty() {
            println!(
                "no IPC regressions over {:.0}% ({old_path} -> {new_path})",
                args.threshold * 100.0
            );
            return ExitCode::SUCCESS;
        }
        let rows: Vec<Vec<String>> = regressions
            .iter()
            .map(|r| {
                vec![
                    r.mode.clone(),
                    r.workload.clone(),
                    format!("{:.3}", r.old_ipc),
                    format!("{:.3}", r.new_ipc),
                    format!("-{:.1}%", r.loss() * 100.0),
                ]
            })
            .collect();
        eprintln!(
            "cs-bench: {} IPC regression(s) over {:.0}%:",
            regressions.len(),
            args.threshold * 100.0
        );
        eprintln!(
            "{}",
            table(&["mode", "workload", "old ipc", "new ipc", "loss"], &rows)
        );
        return ExitCode::FAILURE;
    }

    run(&args)
}
