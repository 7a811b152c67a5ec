//! `cs-smith` — the differential fuzzer CLI.
//!
//! ```sh
//! cs-smith --seeds 500                    # fuzz seeds 0..500
//! cs-smith --seeds 200 --start 1000       # fuzz seeds 1000..1200
//! cs-smith --replay 0x2a                  # re-run one seed, verbose verdict
//! cs-smith --replay 42 --shrink           # minimize a failing seed to .s files
//! cs-smith --seeds 500 --resume campaign/ # journaled, resumable campaign
//! ```
//!
//! Each seed generates a random micro-ISA program (biased toward
//! mispredicted branches guarding loads, store-to-load forwarding across
//! squashes, flushes, aliasing, and cross-core sharing), runs it under
//! NonSecure / CleanupSpec / InvisiSpec (both) / NaiveInvalidate, and
//! checks the architectural-equivalence, cache-restoration, and
//! episode-ledger oracles against the in-order reference interpreter.
//! The campaign runs on the seed-campaign driver it shares with
//! `cs-chaos` ([`run_campaign`]); the proof that the oracles have teeth
//! is `cs-chaos --fault skip-victim-restore`, which plants a missing
//! victim restore. Exit status: 0 when every seed passes (with
//! `--replay`, the one seed), 1 on violations, 2 usage (including a
//! `--start` + `--seeds` range that overflows).

use cleanupspec_asm::disassemble;
use cleanupspec_bench::chaos::{run_campaign, CampaignOpts};
use cleanupspec_bench::cli::{parse_u64, CommonCli};
use cleanupspec_bench::fuzz::{reproduces, run_plan, shrink, SeedVerdict, Violation};
use cleanupspec_bench::target::trace_command;
use cleanupspec_workloads::smith::{assemble_plan, plan, SmithPlan};
use std::process::ExitCode;

struct Args {
    campaign: CampaignOpts,
    replay: Option<u64>,
    shrink: bool,
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
         [--shrink] [--threads N] [--resume DIR]"
    );
    eprintln!("{}", common_cli().help());
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut common = common_cli();
    let mut replay = None;
    let mut do_shrink = false;
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
            _ => return Err(usage()),
        }
    }
    let (start, count) = common.seed_range(500).map_err(|e| {
        eprintln!("cs-smith: {e}");
        usage()
    })?;
    Ok(Args {
        campaign: CampaignOpts {
            start,
            count,
            threads: common.threads_or_default(),
            resume_dir: common.resume,
            ..CampaignOpts::default()
        },
        replay,
        shrink: do_shrink,
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

/// Replays one seed verbosely; shrinks and exports on failure.
fn replay(seed: u64, do_shrink: bool) -> ExitCode {
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
    match run_plan(&p) {
        SeedVerdict::Pass { squashes } => {
            println!("PASS ({squashes} squashes observed)");
            ExitCode::SUCCESS
        }
        SeedVerdict::Fail(violations) => {
            for v in &violations {
                println!("{}", fail_line(v));
            }
            if do_shrink {
                // Shrink towards the failure found first, not any failure:
                // another scheme or leak class would be another finding.
                let first = &violations[0];
                let min = shrink(&p, |cand| reproduces(first, &run_plan(cand)));
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
                export(&min, "fail");
                if let SeedVerdict::Fail(vs) = run_plan(&min) {
                    if let Some(v) = vs.iter().find(|v| first.same_failure(v)) {
                        println!("minimal repro still fails: {v}");
                    }
                }
            }
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(c) => return c,
    };
    if args.campaign.resume_dir.is_some() && args.replay.is_some() {
        eprintln!("cs-smith: --resume applies to seed campaigns only");
        return usage();
    }
    if let Some(seed) = args.replay {
        return replay(seed, args.shrink);
    }
    let r = run_campaign(&args.campaign);
    // Served-seed accounting goes to stderr: stdout must stay
    // byte-identical to a fresh campaign.
    if r.resumed > 0 {
        eprintln!(
            "cs-smith: {} of {} seed(s) served from the result journal",
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
        for line in violation_lines(&r.violations) {
            println!("{line}");
        }
        println!("replay with: cs-smith --replay <seed> --shrink");
        ExitCode::FAILURE
    }
}

/// Violations a campaign prints in full; the rest are only counted.
const SHOWN_VIOLATIONS: usize = 20;

/// A violation's `FAIL` line, ending with the `cs-report` command that
/// traces it.
fn fail_line(v: &Violation) -> String {
    let trace = trace_command(v.seed, v.scheme, None);
    format!("FAIL {v}  (trace: {trace})")
}

/// The campaign's violation listing: one `FAIL` line for each of the first
/// [`SHOWN_VIOLATIONS`], then one line counting the rest, if any.
fn violation_lines(violations: &[Violation]) -> Vec<String> {
    let mut lines: Vec<String> = violations
        .iter()
        .take(SHOWN_VIOLATIONS)
        .map(fail_line)
        .collect();
    if violations.len() > SHOWN_VIOLATIONS {
        let more = violations.len() - SHOWN_VIOLATIONS;
        lines.push(format!("… and {more} more violation(s) not shown"));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(n: u64) -> Vec<Violation> {
        (0..n)
            .map(|seed| Violation {
                seed,
                scheme: "cleanupspec",
                oracle: "episode",
                detail: format!("detail {seed}"),
            })
            .collect()
    }

    #[test]
    fn twenty_violations_are_all_listed() {
        let lines = violation_lines(&violations(20));
        assert_eq!(lines.len(), 20);
        assert_eq!(
            lines[19],
            "FAIL seed 0x13 [cleanupspec] episode oracle: detail 19  \
             (trace: cs-report smith:0x13 --mode cleanupspec)"
        );
    }

    #[test]
    fn a_twenty_first_violation_is_counted_not_listed() {
        let lines = violation_lines(&violations(21));
        assert_eq!(lines[..20], violation_lines(&violations(20))[..]);
        assert_eq!(lines[20], "… and 1 more violation(s) not shown");
        assert_eq!(lines.len(), 21);
    }
}
