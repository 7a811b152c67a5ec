//! `cs-chaos` — systematic fault injection against the CleanupSpec engine.
//!
//! ```sh
//! cs-chaos --matrix                         # fault-detection matrix, all 8 classes
//! cs-chaos --matrix --max-seeds 128         # narrow the per-fault seed window
//! cs-chaos --host-matrix                    # host-I/O fault recovery matrix
//! cs-chaos --list-faults                    # print the fault taxonomy
//! cs-chaos --fault drop-sefe-entry --seeds 32 --artifacts out/  # one-fault campaign
//! cs-chaos --fault skip-victim-restore --seeds 256 # oracles must catch a missing restore
//! cs-chaos --seeds 64 --panic-at 7 --artifacts out/  # crash-isolation self-test
//! cs-chaos --replay 0x2a --fault double-undo # probe one seed verbosely
//! ```
//!
//! The matrix runs one fault campaign per [`FaultKind`] over the seed
//! window `--start .. --start + --max-seeds` and reports each class's
//! first seed where the fault fired and an oracle flagged the run (the
//! three cs-smith oracles, the forward-progress watchdog, or the dual-run
//! victim witness), and how many seeds of the window were flagged.
//! `--host-matrix` turns the same discipline on the harness itself: every
//! host-I/O fault class (ENOSPC, torn write, bit rot, read EIO,
//! rename/fsync failure, crash after write) is injected under the
//! hardened artifact store and must be retried, quarantined, degraded,
//! or recovered on restart. Seed campaigns, the matrix's included, run
//! on the seed-campaign driver shared with `cs-smith` ([`run_campaign`]),
//! one executor task per seed on the default worker count
//! (`CLEANUPSPEC_THREADS`). Exit status: 0 when the mode's
//! expectation holds (matrix: all faults detected; host matrix: all
//! fault classes handled; fault campaign: at least one seed flagged;
//! clean campaign: no violations and — with `--panic-at` — the planted
//! panic isolated), 1 otherwise, 2 usage (including a seed range that
//! overflows).

use cleanupspec_bench::chaos::{
    detection_matrix, probe_fault, render_matrix, run_campaign, CampaignOpts,
};
use cleanupspec_bench::cli::{check_seed_range, parse_u64, CommonCli};
use cleanupspec_bench::exec::default_threads;
use cleanupspec_bench::{host_fault_matrix, render_host_matrix};
use cleanupspec_mem::fault::FaultKind;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    matrix: bool,
    host_matrix: bool,
    list_faults: bool,
    max_seeds: u64,
    replay: Option<u64>,
    seed: u64,
    /// Seed range, fault, artifacts, shrink, panic-at and resume: the
    /// campaign the binary runs when no other mode is selected (`--start`
    /// also starts the matrix scan, `--fault` picks the `--replay` probe).
    campaign: CampaignOpts,
}

fn common_cli() -> CommonCli {
    CommonCli::new()
        .with_seeds()
        .with_start()
        .with_seed()
        .with_resume()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cs-chaos --matrix [--start N] [--max-seeds N]\n\
         \x20      cs-chaos --host-matrix [--seed N]\n\
         \x20      cs-chaos --list-faults\n\
         \x20      cs-chaos [--fault NAME] [--seeds N] [--start N] [--artifacts DIR]\n\
         \x20               [--shrink] [--panic-at SEED] [--resume DIR]\n\
         \x20      cs-chaos --replay SEED [--fault NAME]"
    );
    eprintln!("{}", common_cli().help());
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut common = common_cli();
    let mut args = Args {
        matrix: false,
        host_matrix: false,
        list_faults: false,
        max_seeds: 256,
        replay: None,
        seed: 0,
        campaign: CampaignOpts {
            threads: default_threads(),
            ..CampaignOpts::default()
        },
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match common.accept(a, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("cs-chaos: {e}");
                return Err(usage());
            }
        }
        match a.as_str() {
            "--matrix" => args.matrix = true,
            "--host-matrix" => args.host_matrix = true,
            "--list-faults" => args.list_faults = true,
            "--shrink" => args.campaign.shrink = true,
            "--fault" => match it.next().and_then(|v| FaultKind::parse(v)) {
                Some(k) => args.campaign.fault = Some(k),
                None => {
                    eprintln!("unknown fault; try --list-faults");
                    return Err(usage());
                }
            },
            "--max-seeds" => match it.next().and_then(|v| parse_u64(v)) {
                Some(n) => args.max_seeds = n,
                None => return Err(usage()),
            },
            "--replay" => match it.next().and_then(|v| parse_u64(v)) {
                Some(n) => args.replay = Some(n),
                None => return Err(usage()),
            },
            "--panic-at" => match it.next().and_then(|v| parse_u64(v)) {
                Some(n) => args.campaign.panic_at = Some(n),
                None => return Err(usage()),
            },
            "--artifacts" => match it.next() {
                Some(p) => args.campaign.artifact_dir = Some(PathBuf::from(p)),
                None => return Err(usage()),
            },
            _ => return Err(usage()),
        }
    }
    let range = common.seed_range(32).and_then(|(start, count)| {
        if args.matrix {
            check_seed_range(start, args.max_seeds)?;
        }
        Ok((start, count))
    });
    (args.campaign.start, args.campaign.count) = range.map_err(|e| {
        eprintln!("cs-chaos: {e}");
        usage()
    })?;
    args.seed = common.seed_or_default();
    args.campaign.resume_dir = common.resume;
    Ok(args)
}

fn list_faults() -> ExitCode {
    println!("{:<30} description", "fault");
    for k in FaultKind::ALL {
        println!("{:<30} {}", k.name(), k.description());
    }
    ExitCode::SUCCESS
}

fn matrix(args: &Args) -> ExitCode {
    let rows = detection_matrix(args.campaign.start, args.max_seeds);
    print!("{}", render_matrix(&rows));
    if rows.iter().all(|r| r.detected()) {
        println!("every fault class is caught by at least one oracle");
        ExitCode::SUCCESS
    } else {
        for r in rows.iter().filter(|r| !r.detected()) {
            eprintln!(
                "UNDETECTED: {} survived {} seed(s) — a real bug of this class would ship",
                r.kind.name(),
                r.window
            );
        }
        ExitCode::FAILURE
    }
}

fn replay(seed: u64, fault: Option<FaultKind>) -> ExitCode {
    match fault {
        Some(kind) => {
            let p = probe_fault(kind, seed);
            println!(
                "seed {seed:#x} fault {}: {} opportunit(ies), {} fire(s)",
                kind.name(),
                p.opportunities,
                p.fires
            );
            for v in &p.violations {
                println!("  {v}");
            }
            if p.detected() {
                println!("DETECTED by: {}", p.oracles().join(", "));
                ExitCode::SUCCESS
            } else if p.fires == 0 {
                println!("fault never fired on this seed (try another)");
                ExitCode::FAILURE
            } else {
                println!("NOT DETECTED");
                ExitCode::FAILURE
            }
        }
        None => match cleanupspec_bench::run_seed(seed) {
            cleanupspec_bench::SeedVerdict::Pass { squashes } => {
                println!("seed {seed:#x}: PASS ({squashes} squashes)");
                ExitCode::SUCCESS
            }
            cleanupspec_bench::SeedVerdict::Fail(vs) => {
                for v in &vs {
                    println!("FAIL {v}");
                }
                ExitCode::FAILURE
            }
        },
    }
}

/// Runs the host-I/O fault recovery matrix: every [`HostFaultKind`]
/// injected under the hardened store, each row proving retry /
/// quarantine / degradation / restart recovery with no journal
/// corruption or lost completed-task results.
///
/// [`HostFaultKind`]: cleanupspec_bench::HostFaultKind
fn host_matrix(seed: u64) -> ExitCode {
    let rows = host_fault_matrix(seed);
    print!("{}", render_host_matrix(&rows));
    if rows.iter().all(|r| r.handled) {
        println!("every host-I/O fault class is retried, quarantined, degraded, or recovered");
        ExitCode::SUCCESS
    } else {
        for r in rows.iter().filter(|r| !r.handled) {
            eprintln!(
                "UNHANDLED: {} — this host fault class can corrupt or lose campaign state",
                r.kind.name()
            );
        }
        ExitCode::FAILURE
    }
}

fn campaign(opts: &CampaignOpts) -> ExitCode {
    let sum = run_campaign(opts);
    // Served-seed accounting goes to stderr: stdout must stay
    // byte-identical to a fresh campaign.
    if sum.resumed > 0 {
        eprintln!(
            "cs-chaos: {} of {} seed(s) served from the result journal",
            sum.resumed, sum.seeds
        );
    }
    println!(
        "cs-chaos: {} seed(s), {} pass, {} fail, {} panic(s){}",
        sum.seeds,
        sum.passes(),
        sum.failures,
        sum.panics,
        opts.fault
            .map(|k| format!(" [fault: {}]", k.name()))
            .unwrap_or_default()
    );
    for v in sum.triage() {
        println!("  seed {:#x}: {v}", v.seed);
    }
    for a in &sum.artifacts {
        println!("  artifacts: {}", a.display());
    }
    if let Some(seed) = opts.panic_at {
        // Isolation self-test: the planted panic must be *recorded*, and
        // the campaign must have run every seed after it.
        let isolated = sum.panics >= 1 && sum.seeds == opts.count;
        let artifact_ok = opts.artifact_dir.is_none() || !sum.artifacts.is_empty();
        if isolated && artifact_ok {
            println!("planted panic at seed {seed:#x} was isolated and recorded");
            return ExitCode::SUCCESS;
        }
        eprintln!("planted panic at seed {seed:#x} was NOT handled (isolation broken)");
        return ExitCode::FAILURE;
    }
    match opts.fault {
        // A fault campaign succeeds when the oracles caught the fault
        // somewhere.
        Some(_) => {
            if sum.failures > 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("fault was never flagged — oracles may be toothless for it");
                ExitCode::FAILURE
            }
        }
        // A clean campaign succeeds when nothing failed or crashed.
        None => {
            if sum.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(c) => return c,
    };
    if args.list_faults {
        return list_faults();
    }
    if args.matrix {
        return matrix(&args);
    }
    if args.host_matrix {
        return host_matrix(args.seed);
    }
    if let Some(seed) = args.replay {
        return replay(seed, args.campaign.fault);
    }
    campaign(&args.campaign)
}
