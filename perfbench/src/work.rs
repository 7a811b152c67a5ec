//! The three workloads: what one pass builds, runs and checks.
//!
//! A pass is one complete execution of a workload from its seed, set-up
//! included. Untraced passes drive the simulator through its ordinary
//! entry points (`Simulator::run` in timed slices, `fuzz::run_plan`), with
//! the host-speed probe between slices; traced passes run the same
//! simulations in the benchmark's own [`Machine`] with every layer wrapped
//! in spans. Both produce a
//! fingerprint over the simulated statistics of every run, and the traced
//! numbers are only used when the two fingerprints agree.

use crate::calib;
use crate::machine::{Machine, Tally};
use crate::prof::{span, Layer, TimedSink};
use cleanupspec::modes::SecurityMode;
use cleanupspec::sim::{SimBuilder, SimReport, Simulator};
use cleanupspec_bench::fuzz::{
    fuzz_mem_config, panic_message, run_plan, SeedVerdict, FUZZ_MODES, RESUME_CHECKPOINT,
};
use cleanupspec_bench::runner::warmup_insts;
use cleanupspec_bench::suite::SMOKE_WORKLOADS;
use cleanupspec_core::isa::Program;
use cleanupspec_core::pipeline::CoreConfig;
use cleanupspec_core::reference::interpret;
use cleanupspec_core::system::{RunLimits, StopReason, System};
use cleanupspec_mem::hierarchy::MemHierarchy;
use cleanupspec_mem::rng::mix_str;
use cleanupspec_obs::{CommitLogSink, EpisodeBuilder, LeakageAuditSink, Observer, Shared};
use cleanupspec_workloads::sharing::sharing_workload;
use cleanupspec_workloads::smith::{assemble_plan, plan};
use cleanupspec_workloads::spec::spec_workload;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Measured instructions per run of `spec-1core`; the warmup before it is
/// `runner::warmup_insts` of this (a quarter).
pub const SPEC_INSTS: u64 = 50_000;
/// Measured instructions per core and run of `sharing-4core`; the warmup
/// before it is a quarter of this, as in `fig09_coherence_breakdown`.
pub const SHARING_INSTS: u64 = 25_000;
/// Simulated cores of `sharing-4core`.
pub const SHARING_CORES: usize = 4;
/// The Figure-9 kernels of `sharing-4core`.
pub const SHARING_KERNELS: [&str; 3] = ["fluidanimate", "canneal", "raytrace"];
/// Consecutive fuzz seeds per `smith-campaign` pass.
pub const SMITH_SEEDS: u64 = 100;
/// Simulated core-cycles per timed slice of an untraced run: about 10 ms
/// of host time, so the host-speed probe runs every slice or so.
pub const SLICE_CORE_CYCLES: u64 = 4096;

/// The modes compared by `cleanupspec_slowdown`.
const MODES: [SecurityMode; 2] = [SecurityMode::NonSecure, SecurityMode::CleanupSpec];

// Constants of `bench::fuzz` that are private to it; the mirror of
// `run_plan` must use the same values to reproduce its runs.
/// `fuzz::REF_STEP_CAP`.
const REF_STEP_CAP: usize = 1_000_000;
/// `fuzz::CYCLE_CAP`.
const CYCLE_CAP: u64 = 2_000_000;
/// `fuzz::DRAIN_CYCLES`.
const DRAIN_CYCLES: u64 = 4_000;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Five single-core Table-3 programs under two modes.
    Spec1Core,
    /// Three four-core Figure-9 kernels under two modes.
    Sharing4Core,
    /// A fixed cs-smith campaign.
    SmithCampaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Spec1Core,
        Workload::Sharing4Core,
        Workload::SmithCampaign,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Spec1Core => "spec-1core",
            Workload::Sharing4Core => "sharing-4core",
            Workload::SmithCampaign => "smith-campaign",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one pass measured.
///
/// Set-up and simulation are timed apart; between slices of simulation
/// (about [`SLICE_CORE_CYCLES`] simulated core-cycles, or one `run_plan`
/// call) the host-speed probe runs now and then, timed by neither.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host nanoseconds of set-up: building programs, plans and
    /// simulators.
    pub setup_ns: u64,
    /// Host nanoseconds of simulation (`run_plan` calls for the campaign).
    pub sim_ns: u64,
    /// Host nanoseconds of the whole pass.
    pub wall_ns: u64,
    /// The host-speed probe chunks run between the pass's slices.
    pub probe: calib::Probe,
    /// Simulated work: instructions, core-cycles and layer counts.
    pub tally: Tally,
    /// Reference-interpreter steps.
    pub ref_steps: u64,
    /// Judged units: program-mode runs, or fuzz seeds.
    pub units: u64,
    /// One line per failed unit.
    pub failures: Vec<String>,
    /// Digest of the simulated statistics of every run.
    pub fingerprint: u64,
    /// Geomean cycle slowdown of `cleanupspec` over `non-secure`.
    pub slowdown: f64,
    /// Squashes per fuzz seed as judged (campaign only).
    pub seed_squashes: Vec<u64>,
}

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one run into a fingerprint: cycles, stop reason, every core's
/// statistics (committed instructions, CPI stack, histograms), `MemStats`,
/// traffic and the scheme counters.
fn fingerprint(h: u64, label: &str, extra: &[u64], r: &SimReport) -> u64 {
    let stop = r.stop.as_ref().map_or("none", StopReason::label);
    let text = format!(
        "{label}|{stop}|{}|{extra:?}|{:?}|{:?}|{:?}|{:?}",
        r.cycles, r.cores, r.mem, r.traffic, r.scheme_counters
    );
    fnv(h, text.as_bytes())
}

/// The checks every simulator run must pass: a successful stop with the
/// instruction target reached on every core (when there is a target), and
/// each core's CPI stack summing to the report's cycles.
fn check_run(r: &SimReport, target: Option<u64>) -> Result<(), String> {
    match &r.stop {
        Some(s) if s.is_success() => {}
        Some(s) => return Err(format!("stopped with {s}")),
        None => return Err("never ran".to_string()),
    }
    for (i, c) in r.cores.iter().enumerate() {
        if let Some(t) = target {
            if c.committed_insts < t {
                return Err(format!("core {i} committed {} < {t}", c.committed_insts));
            }
        }
        let sum = c.cpi_stack.total();
        if sum != r.cycles {
            return Err(format!(
                "core {i} CPI stack sums to {sum}, cycles {}",
                r.cycles
            ));
        }
    }
    Ok(())
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs one pass of `w` from `seed`. `traced` selects the benchmark's own
/// tick loop; spans are recorded only while `prof` is enabled.
pub fn run_pass(w: Workload, seed: u64, traced: bool) -> Pass {
    calib::take();
    let start = Instant::now();
    let mut pass = match (w, traced) {
        (Workload::Spec1Core, _) | (Workload::Sharing4Core, _) => sim_pass(w, seed, traced),
        (Workload::SmithCampaign, false) => smith_pass(seed),
        (Workload::SmithCampaign, true) => smith_mirror(seed),
    };
    pass.wall_ns = ns_since(start);
    pass.probe = calib::take();
    pass
}

/// The kernels of a simulator workload, each with its program seed.
fn kernels(w: Workload, seed: u64) -> Vec<(&'static str, u64)> {
    let names: &[&'static str] = match w {
        Workload::Spec1Core => &SMOKE_WORKLOADS,
        _ => &SHARING_KERNELS,
    };
    names.iter().map(|n| (*n, seed ^ mix_str(n))).collect()
}

fn build_programs(w: Workload, name: &str, seed: u64) -> Vec<Arc<Program>> {
    match w {
        Workload::Spec1Core => {
            let spec = spec_workload(name).expect("a Table-3 program");
            vec![Arc::new(spec.build(seed))]
        }
        _ => {
            let kernel = sharing_workload(name).expect("a Figure-9 kernel");
            kernel
                .build_all(SHARING_CORES, seed)
                .into_iter()
                .map(Arc::new)
                .collect()
        }
    }
}

/// `spec-1core` and `sharing-4core`: every kernel under both modes, with
/// the usual warmup plus measured region and no event sinks.
fn sim_pass(w: Workload, seed: u64, traced: bool) -> Pass {
    let (insts, warm) = match w {
        Workload::Spec1Core => (SPEC_INSTS, warmup_insts(SPEC_INSTS)),
        _ => (SHARING_INSTS, SHARING_INSTS / 4),
    };
    let mut pass = Pass {
        fingerprint: FNV_BASIS,
        ..Pass::default()
    };
    let mut slowdowns = Vec::new();
    for (name, kseed) in kernels(w, seed) {
        let t = Instant::now();
        let progs = span(Layer::WorkloadsBuild, || build_programs(w, name, kseed));
        pass.setup_ns += ns_since(t);
        let mut reports = Vec::new();
        for mode in MODES {
            let label = format!("{name}/{}", mode.name());
            pass.units += 1;
            let run = catch_unwind(AssertUnwindSafe(|| {
                let t = Instant::now();
                let sim = span(Layer::SimBuild, || {
                    let mut b = SimBuilder::new(mode).seed(kseed);
                    for p in &progs {
                        b = b.program_arc(Arc::clone(p));
                    }
                    b.build()
                });
                let setup_ns = ns_since(t);
                let mut sim_ns = 0;
                // Both arms run `Simulator::run_with_warmup` in two steps,
                // so the warmup's committed instructions can be counted.
                let out = if traced {
                    let mut m = Machine::from_system(sim.system());
                    drop(sim);
                    let warm_stop = m.run_insts(warm);
                    let warm_tally = m.tally();
                    if warm_stop.is_success() {
                        m.run_measure(insts);
                    }
                    (warm_stop, warm_tally, m.report(mode), m.tally())
                } else {
                    let mut sim = sim;
                    let n = progs.len() as u64;
                    let warm_stop = run_sliced(&mut sim, 0, warm, &mut sim_ns);
                    let warm_tally = Tally {
                        insts: sim.report().total_insts(),
                        core_cycles: sim.system().now() * n,
                        ..Tally::default()
                    };
                    if warm_stop.is_success() {
                        // Clears the statistics and starts the measured
                        // region without ticking, as `run_measure(insts)`
                        // would before its run.
                        sim.run_measure(0);
                        let base = sim.system().now();
                        run_sliced(&mut sim, base, insts, &mut sim_ns);
                    }
                    let report = sim.report();
                    let tally = Tally {
                        insts: warm_tally.insts + report.total_insts(),
                        core_cycles: sim.system().now() * n,
                        ..Tally::default()
                    };
                    (warm_stop, warm_tally, report, tally)
                };
                (setup_ns, sim_ns, out)
            }));
            let (setup_ns, sim_ns, (warm_stop, warm_tally, report, tally)) = match run {
                Ok(r) => r,
                Err(p) => {
                    pass.failures
                        .push(format!("{label}: panic: {}", panic_message(&*p)));
                    continue;
                }
            };
            pass.setup_ns += setup_ns;
            pass.sim_ns += sim_ns;
            pass.tally = pass.tally.plus(tally);
            let checked = if warm_stop.is_success() {
                check_run(&report, Some(insts))
            } else {
                Err(format!("warmup stopped with {warm_stop}"))
            };
            if let Err(e) = checked {
                pass.failures.push(format!("{label}: {e}"));
            }
            pass.fingerprint = fingerprint(
                pass.fingerprint,
                &label,
                &[warm_tally.insts, warm_tally.core_cycles],
                &report,
            );
            reports.push(report);
        }
        if let [ns, cs] = &reports[..] {
            slowdowns.push(cs.slowdown_vs(ns));
        }
    }
    pass.slowdown = geomean(&slowdowns);
    pass
}

/// Runs `sim` for up to `n` instructions per core from cycle `base`, with
/// the limits of `Simulator::run_insts`/`run_measure`, one timed slice of
/// [`SLICE_CORE_CYCLES`] core-cycles at a time. Each slice's host time is
/// added to `sim_ns`; the probe runs between slices, outside them. Slicing
/// changes nothing simulated: `System::run` keeps its progress and watchdog
/// markers in the system, so each call resumes the same run (the traced
/// run, which does not slice, must reproduce the fingerprint).
fn run_sliced(sim: &mut Simulator, base: u64, n: u64, sim_ns: &mut u64) -> StopReason {
    let cores = sim.system().mem().config().num_cores as u64;
    let step = (SLICE_CORE_CYCLES / cores).max(1);
    let cap = base + 400 * n + 1_000_000;
    loop {
        let end = cap.min(sim.system().now() + step);
        let t = Instant::now();
        let stop = sim.run(RunLimits {
            max_cycles: end,
            max_insts_per_core: n,
            ..RunLimits::default()
        });
        let ns = ns_since(t);
        *sim_ns += ns;
        calib::after(ns);
        if stop != StopReason::CycleLimit || end == cap {
            return stop;
        }
    }
}

/// `smith-campaign`, untraced: generate the plans, then judge every seed
/// with `fuzz::run_plan` at one thread. A seed passes only with a `Pass`
/// verdict. The fingerprint covers the squash count of every verdict; the
/// per-run statistics come from [`smith_mirror`].
fn smith_pass(start: u64) -> Pass {
    let mut pass = Pass {
        fingerprint: FNV_BASIS,
        ..Pass::default()
    };
    let plans: Vec<_> = (0..SMITH_SEEDS)
        .map(|i| {
            let t = Instant::now();
            let p = plan(start.wrapping_add(i));
            black_box(assemble_plan(&p));
            pass.setup_ns += ns_since(t);
            p
        })
        .collect();
    for p in &plans {
        pass.units += 1;
        let t = Instant::now();
        let verdict = catch_unwind(AssertUnwindSafe(|| run_plan(p)));
        let ns = ns_since(t);
        pass.sim_ns += ns;
        calib::after(ns);
        let squashes = match verdict {
            Ok(SeedVerdict::Pass { squashes }) => squashes,
            Ok(SeedVerdict::Fail(v)) => {
                pass.failures.push(format!("seed {:#x}: {}", p.seed, v[0]));
                u64::MAX
            }
            Err(e) => {
                pass.failures
                    .push(format!("seed {:#x}: panic: {}", p.seed, panic_message(&*e)));
                u64::MAX
            }
        };
        pass.seed_squashes.push(squashes);
        pass.fingerprint = fnv(pass.fingerprint, &squashes.to_le_bytes());
    }
    pass
}

/// The `fuzz::run_plan` runs of `smith-campaign`, repeated in the
/// benchmark's own tick loop: per seed, the reference interpreter, five
/// scheme runs with the commit-log, audit and episode sinks, and the
/// CleanupSpec checkpoint-resume replay from a `System` clone. It does not
/// judge the oracles (`run_plan` does); it checks every run's stop and CPI
/// stack, and reports the squash count `run_plan` must also see.
pub fn smith_mirror(start: u64) -> Pass {
    let mut pass = Pass {
        fingerprint: FNV_BASIS,
        ..Pass::default()
    };
    let mut slowdowns = Vec::new();
    for i in 0..SMITH_SEEDS {
        let seed = start.wrapping_add(i);
        pass.units += 1;
        let t = Instant::now();
        let p = span(Layer::WorkloadsBuild, || plan(seed));
        pass.setup_ns += ns_since(t);
        let t = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            span(Layer::RunPlan, || {
                mirror_seed(seed, &assemble_plan_timed(&p))
            })
        }));
        pass.sim_ns += ns_since(t);
        match run {
            Ok(s) => {
                // Judged outside the `run_plan` span, so the benchmark's
                // own bookkeeping does not count as fuzz time.
                let mut failure = None;
                let mut fp = FNV_BASIS;
                for (label, extra, report) in &s.runs {
                    if let Err(e) = check_run(report, None) {
                        failure.get_or_insert(format!("seed {seed:#x} {label}: {e}"));
                    }
                    fp = fingerprint(fp, label, extra, report);
                }
                pass.failures.extend(failure);
                pass.fingerprint = fnv(pass.fingerprint, &fp.to_le_bytes());
                pass.tally = pass.tally.plus(s.tally);
                pass.ref_steps += s.ref_steps;
                pass.seed_squashes.push(s.squashes);
                slowdowns.push(s.slowdown);
            }
            Err(e) => {
                pass.failures
                    .push(format!("seed {seed:#x}: panic: {}", panic_message(&*e)));
                pass.seed_squashes.push(u64::MAX);
            }
        }
    }
    pass.slowdown = geomean(&slowdowns);
    pass
}

fn assemble_plan_timed(p: &cleanupspec_workloads::smith::SmithPlan) -> Vec<Arc<Program>> {
    span(Layer::WorkloadsBuild, || {
        assemble_plan(p).into_iter().map(Arc::new).collect()
    })
}

/// One seed of [`smith_mirror`].
struct SeedMirror {
    tally: Tally,
    ref_steps: u64,
    squashes: u64,
    slowdown: f64,
    /// Every scheme run: label, extra fingerprint values, report.
    runs: Vec<(&'static str, [u64; 2], SimReport)>,
}

/// The three sinks `fuzz` attaches, each wrapped in its own span.
struct Sinks {
    commits: Shared<CommitLogSink>,
    audit: Shared<LeakageAuditSink>,
    episodes: Shared<EpisodeBuilder>,
}

impl Sinks {
    fn new() -> Self {
        Sinks {
            commits: Shared::new(CommitLogSink::new()),
            audit: Shared::new(LeakageAuditSink::new()),
            episodes: Shared::new(EpisodeBuilder::new()),
        }
    }

    fn observer(&self) -> Observer {
        Observer::new(vec![
            Box::new(TimedSink::new(
                Layer::SinkCommitLog,
                Box::new(self.commits.clone()),
            )),
            Box::new(TimedSink::new(
                Layer::SinkAudit,
                Box::new(self.audit.clone()),
            )),
            Box::new(TimedSink::new(
                Layer::SinkEpisode,
                Box::new(self.episodes.clone()),
            )),
        ])
    }
}

/// Runs `m` to the end of a fuzz run and drains it as `fuzz` does.
/// Returns the cycle the run stopped at.
fn finish_fuzz_run(m: &mut Machine, limits: RunLimits) -> u64 {
    m.run(limits);
    let stop_now = m.now();
    m.drain(DRAIN_CYCLES);
    stop_now
}

fn mirror_seed(seed: u64, progs: &[Arc<Program>]) -> SeedMirror {
    let mut out = SeedMirror {
        tally: Tally::default(),
        ref_steps: 0,
        squashes: 0,
        slowdown: 0.0,
        runs: Vec::new(),
    };
    for p in progs {
        let r = span(Layer::Reference, || interpret(p, REF_STEP_CAP));
        out.ref_steps += r.commits.len() as u64;
    }
    let limits = RunLimits {
        max_cycles: CYCLE_CAP,
        max_insts_per_core: u64::MAX,
        ..RunLimits::default()
    };
    let mut stop_cycles = [0u64; 2];
    for mode in FUZZ_MODES {
        let sinks = Sinks::new();
        let mut m = span(Layer::SimBuild, || {
            let mem = MemHierarchy::new(mode.apply_mem_config(fuzz_mem_config(progs.len(), seed)));
            let schemes = progs.iter().map(|_| mode.build_scheme()).collect();
            let mut sys = System::new(mem, CoreConfig::default(), schemes, progs.to_vec());
            sys.set_observer(sinks.observer());
            Machine::from_system(&sys)
        });
        let mut resumed = None;
        if mode == SecurityMode::CleanupSpec {
            m.run(RunLimits {
                max_cycles: RESUME_CHECKPOINT.min(CYCLE_CAP),
                ..limits
            });
            resumed = Some(span(Layer::SnapClone, || m.clone()));
        }
        let stop_now = finish_fuzz_run(&mut m, limits);
        let squashes = sinks.audit.with(|a| a.report().squashes);
        out.squashes += squashes;
        out.tally = out.tally.plus(m.tally());
        out.runs
            .push((mode.name(), [squashes, stop_now], m.report(mode)));
        match mode {
            SecurityMode::NonSecure => stop_cycles[0] = stop_now,
            SecurityMode::CleanupSpec => stop_cycles[1] = stop_now,
            _ => {}
        }
        if let Some(mut r) = resumed {
            let at = r.tally();
            r.set_observer(Sinks::new().observer());
            let stop_now = finish_fuzz_run(&mut r, limits);
            out.tally = out.tally.plus(r.tally().minus(at));
            out.runs.push(("resumed", [0, stop_now], r.report(mode)));
        }
    }
    out.slowdown = stop_cycles[1] as f64 / stop_cycles[0].max(1) as f64;
    out
}
