//! Runs every experiment binary's logic in sequence, printing the complete
//! paper-reproduction report (all tables and figures). Equivalent to
//! running each `figXX_*` / `tabXX_*` binary, but in one process.
//!
//! Control sizing with `CLEANUPSPEC_INSTS` (instructions per workload) and
//! `CLEANUPSPEC_ATTACK_ITERS`.
//!
//! `--resume DIR` (or `CLEANUPSPEC_RESUME_DIR`) turns on the result
//! journal in `DIR`: the figure binaries share many (workload, mode,
//! insts, seed) runs, and each completed run is recorded once under its
//! full result key, so later experiments — and later whole invocations —
//! are served the report instead of re-simulating it.

use std::process::Command;

const EXPERIMENTS: [&str; 12] = [
    "tab03_characteristics",
    "fig04_invisispec_motivation",
    "tab01_randomization",
    "fig09_coherence_breakdown",
    "fig11_spectre_poc",
    "fig12_slowdown",
    "fig13_squashes",
    "fig14_stall_breakdown",
    "fig15_inflight_vs_executed",
    "tab05_cleanup_stats",
    "tab06_comparison",
    "tab07_storage",
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let resume_dir = match argv.as_slice() {
        [] => None,
        [flag, dir] if flag == "--resume" => Some(dir.clone()),
        _ => {
            eprintln!("usage: repro_all [--resume DIR]");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &resume_dir {
        println!("result journal: {dir}");
    }

    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    for name in EXPERIMENTS {
        println!("\n{}", "=".repeat(72));
        let path = dir.join(name);
        let mut cmd = Command::new(&path);
        // Children read the directory via CLEANUPSPEC_RESUME_DIR
        // (runner::resume_dir_from_env); the flag just sets it for them.
        if let Some(dir) = &resume_dir {
            cmd.env("CLEANUPSPEC_RESUME_DIR", dir);
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        if !status.success() {
            eprintln!("experiment {name} failed with {status}");
            std::process::exit(1);
        }
    }
    println!("\nAll {} experiments completed.", EXPERIMENTS.len());
}
