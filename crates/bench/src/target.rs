//! Shared target resolution for the `cs-*` binaries.
//!
//! `cs-trace` and `cs-report` take the same positional argument: a
//! micro-ISA `.s` file (assembled on the fly) or a named workload — a
//! Table-3 SPEC-like workload (`gcc`, `astar`, ...), `spectre_v1`,
//! `meltdown`, `mispredict_storm`, or `smith:<seed>` (the fuzzer's
//! squash-heavy multi-core plan for that seed, decimal or `0x` hex as
//! cs-smith prints it). This module owns the lookup so both binaries
//! accept exactly the same spellings.

use cleanupspec_asm::assemble;
use cleanupspec_core::isa::Program;
use cleanupspec_workloads::attacks::{
    meltdown_program, spectre_v1_program, MeltdownConfig, SpectreConfig,
};
use cleanupspec_workloads::micro::mispredict_storm;
use cleanupspec_workloads::smith::{assemble_plan, plan};
use cleanupspec_workloads::spec::spec_workload;

/// One help line describing the accepted targets.
pub const TARGET_HELP: &str =
    "targets: a .s file, any Table-3 name (gcc, astar, ...), spectre_v1, meltdown, \
     mispredict_storm, smith:<seed>";

/// Resolves a positional argument to one program per core. `.s` paths are
/// assembled; `smith:<seed>` expands to the fuzzer plan's full program
/// set; everything else is a single-program named workload.
pub fn resolve_programs(target: &str, seed: u64) -> Result<Vec<Program>, String> {
    if target.ends_with(".s") {
        let src =
            std::fs::read_to_string(target).map_err(|e| format!("cannot read {target}: {e}"))?;
        return assemble(target, &src)
            .map(|p| vec![p])
            .map_err(|e| format!("{target}:{e}"));
    }
    if let Some(s) = target.strip_prefix("smith:") {
        let seed = crate::cli::parse_u64(s)
            .ok_or_else(|| format!("smith:<seed> needs a number, got {s:?}"))?;
        return Ok(assemble_plan(&plan(seed)));
    }
    if let Some(w) = spec_workload(target) {
        return Ok(vec![w.build(seed ^ cleanupspec_mem::rng::mix_str(w.name))]);
    }
    match target {
        "spectre_v1" => Ok(vec![spectre_v1_program(&SpectreConfig::default())]),
        "meltdown" => Ok(vec![meltdown_program(&MeltdownConfig::default())]),
        "mispredict_storm" => Ok(vec![mispredict_storm(2_000, 3, seed)]),
        _ => Err(format!("unknown workload or file: {target}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_workloads_resolve() {
        for name in ["gcc", "spectre_v1", "meltdown", "mispredict_storm"] {
            assert!(resolve_programs(name, 1).is_ok(), "{name} did not resolve");
        }
    }

    #[test]
    fn smith_targets_expand_to_the_full_plan() {
        let progs = resolve_programs("smith:7", 1).unwrap();
        assert!(!progs.is_empty());
        // The seed in the target name wins over --seed: same spelling,
        // same plan, regardless of harness defaults.
        assert_eq!(progs.len(), resolve_programs("smith:7", 99).unwrap().len());
        assert!(resolve_programs("smith:x", 1).is_err());
        // cs-smith prints seeds in hex (`--replay 0x42e`); both spellings
        // name the same plan.
        let dec = resolve_programs("smith:42", 1).unwrap();
        let hex = resolve_programs("smith:0x2a", 1).unwrap();
        assert_eq!(format!("{dec:?}"), format!("{hex:?}"));
        assert_ne!(format!("{dec:?}"), format!("{progs:?}"));
        assert!(resolve_programs("smith:0xzz", 1).is_err());
    }

    #[test]
    fn unknown_target_is_an_error() {
        let err = resolve_programs("no-such-workload", 1).unwrap_err();
        assert!(err.contains("no-such-workload"));
    }

    #[test]
    fn missing_asm_file_reports_the_path() {
        let err = resolve_programs("/nonexistent/x.s", 1).unwrap_err();
        assert!(err.contains("/nonexistent/x.s"));
    }
}
