//! Shared target resolution and runs for the `cs-*` binaries.
//!
//! `cs-trace` and `cs-report` take the same positional argument: a
//! micro-ISA `.s` file (assembled on the fly) or a named workload — a
//! Table-3 SPEC-like workload (`gcc`, `astar`, ...), a Figure-9 sharing
//! kernel (`canneal`, `fluidanimate`, ...; four cores, one program each),
//! `spectre_v1`, `meltdown`, `mispredict_storm`, or `smith:<seed>`
//! (decimal or `0x` hex as cs-smith prints it). [`Target::run`] is the
//! one run both binaries make, so they accept the same spellings and
//! replay the same system: `smith:<seed>` is exactly the run cs-smith
//! judges for that seed.

use crate::chaos::env_for;
use crate::cli::DEFAULT_SEED;
use crate::fuzz;
use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::{SimBuilder, Simulator};
use cleanupspec_asm::assemble;
use cleanupspec_core::isa::Program;
use cleanupspec_core::system::RunLimits;
use cleanupspec_mem::fault::{FaultKind, FaultPlan};
use cleanupspec_obs::{EventSink, Observer};
use cleanupspec_workloads::attacks::{
    meltdown_program, spectre_v1_program, MeltdownConfig, SpectreConfig,
};
use cleanupspec_workloads::micro::mispredict_storm;
use cleanupspec_workloads::sharing::sharing_workload;
use cleanupspec_workloads::smith::{assemble_plan, plan};
use cleanupspec_workloads::spec::spec_workload;
use std::sync::Arc;

/// The help lines naming the accepted modes and targets.
pub fn target_help() -> String {
    let modes: Vec<_> = SecurityMode::ALL.iter().map(|m| m.name()).collect();
    format!(
        "modes: {}\ntargets: a .s file, any Table-3 name (gcc, astar, ...), any Figure-9 \
         sharing kernel (canneal, fluidanimate, ...; 4 cores), spectre_v1, meltdown, \
         mispredict_storm, smith:<seed> (cs-smith's run of that seed; no --insts/--seed)",
        modes.join(", ")
    )
}

/// Per-core instruction cap of a named target without `--insts`.
const DEFAULT_INSTS: u64 = 50_000;

/// Cores of a Figure-9 sharing-kernel target (as in perfbench's
/// `sharing-4core`).
const SHARING_CORES: usize = 4;

/// A resolved positional argument, ready to [`Target::run`] under any
/// mode.
#[derive(Debug)]
pub struct Target {
    /// One program per core.
    progs: Vec<Arc<Program>>,
    /// `smith:<seed>`'s seed; `None` for a named target.
    smith: Option<u64>,
    /// Hierarchy and workload seed of a named target.
    seed: u64,
    /// Per-core instruction cap of a named target.
    insts: u64,
    /// The planted fault, if any.
    fault: Option<FaultKind>,
}

impl Target {
    /// Resolves `arg` with the run knobs `--insts`, `--seed` and
    /// `--fault`. `smith:<seed>` refuses `--insts` and `--seed`: it is
    /// cs-smith's run of that seed, nothing else.
    pub fn resolve(
        arg: &str,
        insts: Option<u64>,
        seed: Option<u64>,
        fault: Option<FaultKind>,
    ) -> Result<Target, String> {
        let (progs, smith) = if let Some(s) = arg.strip_prefix("smith:") {
            let smith = crate::cli::parse_u64(s)
                .ok_or_else(|| format!("smith:<seed> needs a number, got {s:?}"))?;
            if insts.is_some() || seed.is_some() {
                return Err(format!(
                    "{arg} is cs-smith's run of seed {smith:#x}; --insts and --seed do not apply"
                ));
            }
            (assemble_plan(&plan(smith)), Some(smith))
        } else {
            (named_programs(arg, seed.unwrap_or(DEFAULT_SEED))?, None)
        };
        Ok(Target {
            progs: progs.into_iter().map(Arc::new).collect(),
            smith,
            seed: seed.unwrap_or(DEFAULT_SEED),
            insts: insts.unwrap_or(DEFAULT_INSTS),
            fault,
        })
    }

    /// Builds the target's system under `mode` with `sinks` attached,
    /// runs it and drains in-flight fills. The sinks are not finished
    /// yet ([`Simulator::finish_observer`]).
    ///
    /// `smith:<seed>` runs exactly what cs-smith judges for that seed
    /// ([`fuzz::smith_system`] and [`fuzz::run_drained`]), in cs-chaos's
    /// environment for the fault. Every other target runs on the Table-4
    /// hierarchy to its instruction cap per core, then drains 2 000
    /// cycles.
    pub fn run(&self, mode: SecurityMode, sinks: Vec<Box<dyn EventSink>>) -> Simulator {
        if let Some(seed) = self.smith {
            let env = env_for(self.fault);
            let obs = Observer::new(sinks);
            let mut sys = fuzz::smith_system(&self.progs, mode, seed, &env, obs.clone());
            let stop = fuzz::run_drained(&mut sys, &env);
            return Simulator::from_system(sys, mode, obs, stop);
        }
        let mut builder = SimBuilder::new(mode).seed(self.seed);
        for sink in sinks {
            builder = builder.sink(sink);
        }
        for p in &self.progs {
            builder = builder.program_arc(Arc::clone(p));
        }
        if let Some(kind) = self.fault {
            builder = builder.fault_plan(FaultPlan::single(kind));
        }
        let mut sim = builder.build();
        sim.run(RunLimits {
            max_cycles: 100_000_000,
            max_insts_per_core: self.insts,
            ..RunLimits::default()
        });
        // Let in-flight fills land: insecure modes leak precisely via
        // fills completing after a squash, and the ledger must see them.
        sim.drain(2_000);
        sim
    }
}

/// The one-command trace of a cs-smith or cs-chaos finding on `seed`:
/// the `cs-report` run of its `smith:` target under `scheme` (omitted
/// when it names no mode, as for a crashed run) and `fault`.
pub fn trace_command(seed: u64, scheme: &str, fault: Option<FaultKind>) -> String {
    let mode = SecurityMode::from_name(scheme).map_or(String::new(), |m| format!(" --mode {m}"));
    let fault = fault.map_or(String::new(), |k| format!(" --fault {}", k.name()));
    format!("cs-report smith:{seed:#x}{mode}{fault}")
}

/// Resolves a target other than `smith:<seed>` to one program per core:
/// `.s` paths are assembled, a Figure-9 sharing kernel builds its
/// [`SHARING_CORES`] programs, everything else is a single-program named
/// workload.
fn named_programs(target: &str, seed: u64) -> Result<Vec<Program>, String> {
    if target.ends_with(".s") {
        let src =
            std::fs::read_to_string(target).map_err(|e| format!("cannot read {target}: {e}"))?;
        return assemble(target, &src)
            .map(|p| vec![p])
            .map_err(|e| format!("{target}:{e}"));
    }
    if let Some(w) = spec_workload(target) {
        return Ok(vec![w.build(seed ^ cleanupspec_mem::rng::mix_str(w.name))]);
    }
    if let Some(w) = sharing_workload(target) {
        return Ok(w.build_all(SHARING_CORES, seed ^ cleanupspec_mem::rng::mix_str(w.name)));
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
    use cleanupspec_workloads::sharing::SHARING_WORKLOADS;

    #[test]
    fn named_workloads_resolve() {
        for name in ["gcc", "spectre_v1", "meltdown", "mispredict_storm"] {
            assert!(named_programs(name, 1).is_ok(), "{name} did not resolve");
        }
        // A Table-3 name resolves first, so a kernel of the same name
        // would be unreachable.
        for k in SHARING_WORKLOADS {
            assert!(spec_workload(k.name).is_none(), "{} is both", k.name);
            assert_eq!(named_programs(k.name, 1).unwrap().len(), SHARING_CORES);
        }
    }

    #[test]
    fn smith_targets_take_hex_and_refuse_run_knobs() {
        let cycles = |arg: &str| {
            Target::resolve(arg, None, None, None)
                .map(|t| t.run(SecurityMode::NonSecure, Vec::new()).system().now())
        };
        // cs-smith prints seeds in hex (`--replay 0x42e`); both spellings
        // name the same run.
        assert_eq!(cycles("smith:9").unwrap(), cycles("smith:0x9").unwrap());
        assert!(cycles("smith:x").is_err());
        assert!(cycles("smith:0xzz").is_err());
        for (insts, seed) in [(Some(8_000), None), (None, Some(9))] {
            let err = Target::resolve("smith:9", insts, seed, None).unwrap_err();
            assert!(err.contains("do not apply"), "{err}");
        }
    }

    #[test]
    fn trace_commands_name_mode_and_fault() {
        assert_eq!(
            trace_command(0x42e, "cleanupspec", None),
            "cs-report smith:0x42e --mode cleanupspec"
        );
        assert_eq!(
            trace_command(9, "cleanupspec", Some(FaultKind::SkipVictimRestore)),
            "cs-report smith:0x9 --mode cleanupspec --fault skip-victim-restore"
        );
        assert_eq!(trace_command(7, "(crashed)", None), "cs-report smith:0x7");
    }

    #[test]
    fn unknown_target_is_an_error() {
        let err = named_programs("no-such-workload", 1).unwrap_err();
        assert!(err.contains("no-such-workload"));
    }

    #[test]
    fn missing_asm_file_reports_the_path() {
        let err = named_programs("/nonexistent/x.s", 1).unwrap_err();
        assert!(err.contains("/nonexistent/x.s"));
    }
}
