//! `cs-smith` — the differential fuzzer CLI.
//!
//! ```sh
//! cs-smith --seeds 500                    # fuzz seeds 0..500
//! cs-smith --seeds 200 --start 1000       # fuzz seeds 1000..1200
//! cs-smith --replay 0x2a                  # re-run one seed, verbose verdict
//! cs-smith --replay 42 --shrink           # minimize a failing seed to .s files
//! cs-smith --sabotage --seeds 64 --shrink # prove the oracles catch a planted bug
//! ```
//!
//! Each seed generates a random micro-ISA program (biased toward
//! mispredicted branches guarding loads, store-to-load forwarding across
//! squashes, flushes, aliasing, and cross-core sharing), runs it under
//! NonSecure / CleanupSpec / InvisiSpec (both) / NaiveInvalidate, and
//! checks the architectural-equivalence, cache-restoration, and
//! episode-ledger oracles against the in-order reference interpreter.
//! `--sabotage` swaps CleanupSpec for a deliberately broken undo
//! (`SkipRestore`) — the run *must* find violations, or the oracles are
//! toothless. Exit status: 0 clean (or sabotage caught), 1 violations
//! (or sabotage missed), 2 usage.

use cleanupspec_asm::disassemble;
use cleanupspec_bench::cli::{parse_u64, CommonCli};
use cleanupspec_bench::fuzz::{
    campaign_journal_header, run_campaign_resumable, run_plan, run_plan_sabotaged, shrink,
    SeedVerdict,
};
use cleanupspec_bench::journal::Journal;
use cleanupspec_bench::store::{shared_dir_store, ArtifactStore};
use cleanupspec_workloads::smith::{assemble_plan, plan, SmithPlan};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    seeds: u64,
    start: u64,
    replay: Option<u64>,
    shrink: bool,
    sabotage: bool,
    threads: usize,
    resume: Option<PathBuf>,
}

fn common_cli() -> CommonCli {
    CommonCli::new()
        .with_seeds()
        .with_start()
        .with_threads()
        .with_resume()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cs-smith [--seeds N] [--start N] [--replay SEED] \
         [--shrink] [--sabotage] [--threads N] [--resume DIR]"
    );
    eprintln!("{}", common_cli().help());
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut common = common_cli();
    let mut replay = None;
    let mut do_shrink = false;
    let mut sabotage = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match common.accept(a, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("cs-smith: {e}");
                return Err(usage());
            }
        }
        match a.as_str() {
            "--replay" => match it.next().and_then(|v| parse_u64(v)) {
                Some(n) => replay = Some(n),
                None => return Err(usage()),
            },
            "--shrink" => do_shrink = true,
            "--sabotage" => sabotage = true,
            _ => return Err(usage()),
        }
    }
    Ok(Args {
        seeds: common.seeds_or(500),
        start: common.start_or_default(),
        replay,
        shrink: do_shrink,
        sabotage,
        threads: common.threads_or_default(),
        resume: common.resume,
    })
}

/// Writes the plan's programs as replayable `.s` files in the working
/// directory and prints their paths.
fn export(p: &SmithPlan, tag: &str) {
    for (i, prog) in assemble_plan(p).iter().enumerate() {
        let path = format!("cs-smith-{tag}-{:#x}-core{i}.s", p.seed);
        let asm = format!(
            "; cs-smith seed {:#x} core {i}: {} plan ops, {} iterations\n{}",
            p.seed,
            p.ops.len(),
            p.iters,
            disassemble(prog)
        );
        match std::fs::write(&path, asm) {
            Ok(()) => println!("  wrote {path} ({} instructions)", prog.len()),
            Err(e) => eprintln!("  cannot write {path}: {e}"),
        }
    }
}

fn verdict_of(p: &SmithPlan, sabotage: bool) -> SeedVerdict {
    if sabotage {
        run_plan_sabotaged(p)
    } else {
        run_plan(p)
    }
}

/// Replays one seed verbosely; shrinks and exports on failure.
fn replay(seed: u64, sabotage: bool, do_shrink: bool) -> ExitCode {
    let p = plan(seed);
    let progs = assemble_plan(&p);
    println!(
        "seed {:#x}: {} plan ops, {} iters, {} core(s), {} instruction(s)",
        seed,
        p.ops.len(),
        p.iters,
        p.cores,
        progs.iter().map(|p| p.len()).sum::<usize>()
    );
    match verdict_of(&p, sabotage) {
        SeedVerdict::Pass { squashes } => {
            println!("PASS ({squashes} squashes observed)");
            ExitCode::SUCCESS
        }
        SeedVerdict::Fail(violations) => {
            for v in &violations {
                println!("FAIL {v}");
            }
            if do_shrink {
                let min = shrink(&p, |cand| !verdict_of(cand, sabotage).passed());
                let insts: usize = assemble_plan(&min).iter().map(|p| p.len()).sum();
                println!(
                    "shrunk to {} plan op(s), {} iter(s), {} core(s), {insts} instruction(s):",
                    min.ops.len(),
                    min.iters,
                    min.cores
                );
                for op in &min.ops {
                    println!("  {op:?}");
                }
                export(&min, if sabotage { "sabotage" } else { "fail" });
                if let SeedVerdict::Fail(vs) = verdict_of(&min, sabotage) {
                    println!("minimal repro still fails: {}", vs[0]);
                }
            }
            ExitCode::FAILURE
        }
    }
}

/// Fuzzes a seed range under the planted `SkipRestore` bug: success means
/// the oracles caught it on at least one seed.
fn sabotage_campaign(args: &Args) -> ExitCode {
    for seed in args.start..args.start + args.seeds {
        let p = plan(seed);
        if let SeedVerdict::Fail(violations) = run_plan_sabotaged(&p) {
            println!(
                "sabotage caught at seed {:#x} after {} seed(s): {}",
                seed,
                seed - args.start + 1,
                violations[0]
            );
            if args.shrink {
                let min = shrink(&p, |cand| !run_plan_sabotaged(cand).passed());
                let insts: usize = assemble_plan(&min).iter().map(|p| p.len()).sum();
                println!(
                    "shrunk to {} plan op(s), {} iter(s), {insts} instruction(s)",
                    min.ops.len(),
                    min.iters
                );
                export(&min, "sabotage");
            }
            return ExitCode::SUCCESS;
        }
    }
    eprintln!(
        "sabotaged undo survived {} seed(s) — oracles are toothless",
        args.seeds
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(c) => return c,
    };
    if args.resume.is_some() && (args.replay.is_some() || args.sabotage) {
        eprintln!("cs-smith: --resume applies to plain seed campaigns only");
        return usage();
    }
    if let Some(seed) = args.replay {
        return replay(seed, args.sabotage, args.shrink);
    }
    if args.sabotage {
        return sabotage_campaign(&args);
    }
    let header = campaign_journal_header(args.start, args.seeds);
    // Resume preflight: surface a journal/campaign mismatch as a clear
    // error before any fuzzing starts, not as a mid-run warning.
    if let Some(dir) = &args.resume {
        match cleanupspec_bench::journal::check_resume(dir, &header) {
            Ok(done) => eprintln!(
                "cs-smith: resuming from {} ({done} completed seed(s) journaled)",
                dir.display()
            ),
            Err(e) => {
                eprintln!("cs-smith: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let journal = args.resume.as_deref().and_then(|dir| {
        let store = shared_dir_store(dir) as Arc<dyn ArtifactStore>;
        match Journal::open(store, &header) {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("cs-smith: running without a journal: {e}");
                None
            }
        }
    });
    let r = run_campaign_resumable(args.start, args.seeds, args.threads, journal.as_ref());
    // Resume accounting goes to stderr: stdout must stay byte-identical
    // to an uninterrupted campaign.
    if r.resumed > 0 {
        eprintln!(
            "cs-smith: {} of {} seed(s) replayed from the campaign journal",
            r.resumed, r.seeds
        );
    }
    println!(
        "cs-smith: {} seed(s) x {} scheme runs, {} squashes, {} violation(s), {} panic(s)",
        r.seeds,
        cleanupspec_bench::fuzz::FUZZ_MODES.len() + 1, // + determinism replay
        r.squashes,
        r.violations.len(),
        r.panics
    );
    if r.clean() {
        if r.squashes == 0 {
            eprintln!("warning: no squashes observed — campaign exercised nothing");
        }
        println!("all oracles held");
        ExitCode::SUCCESS
    } else {
        for v in r.violations.iter().take(20) {
            println!("FAIL {v}");
        }
        println!("replay with: cs-smith --replay <seed> --shrink");
        ExitCode::FAILURE
    }
}
