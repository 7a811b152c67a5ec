//! `cs-chaos` — the systematic fault-injection campaign driver.
//!
//! PR 2's planted `SkipRestore` bug proved the differential oracles have
//! teeth against *one* hand-picked failure. This module generalizes that
//! argument: every [`FaultKind`] the memory hierarchy and undo engine can
//! inject is driven against seeded smith programs until it (a) actually
//! fires and (b) is flagged by at least one detector, producing a
//! **fault-detection matrix** — the machine-checked claim that no fault
//! class escapes the safety net.
//!
//! Detectors (matrix columns):
//!
//! * `arch` / `cache` / `episode` — the three cs-smith oracles from
//!   [`crate::fuzz`] (architectural equivalence, cache-restoration
//!   membership + invariants, and the episode-granular undo-coverage
//!   ledger that pins each residue to the squash whose cleanup should
//!   have covered it).
//! * `watchdog` — the forward-progress watchdog: the run stopped with
//!   [`StopReason::Livelock`] (how `leak-mshr-slot` surfaces once the
//!   MSHR file exhausts).
//! * `witness` — the dual-run L1 victim witness: two runs that differ
//!   *only* in `repl_seed_salt` must pick different eviction victims; if
//!   the faulted pair agrees while the clean control pair diverges, the
//!   replacement policy has gone deterministic (`deterministic-l1-replacement`
//!   is invisible to the state oracles — the cache contents stay legal).
//!
//! Campaigns are **crash-isolated**: each seed runs inside
//! `catch_unwind`, a panicking engine is recorded as a `"panic"`-oracle
//! failure with full repro artifacts (seed, fault plan, shrunk `.s`
//! programs, ring-buffer event dump) instead of aborting the run, and the
//! driver ends with a triage summary.

use crate::fuzz::{self, exec_env, judge, merged_image, ExecEnv, ModeRun, SeedVerdict, Violation};
use crate::journal::{Journal, JournalHeader};
use crate::store::{shared_dir_store, ArtifactStore};
use cleanupspec::modes::SecurityMode;
use cleanupspec_asm::disassemble;
use cleanupspec_core::isa::Program;
use cleanupspec_core::pipeline::CoreConfig;
use cleanupspec_core::reference::{interpret, RefRun};
use cleanupspec_core::system::{RunLimits, StopReason, System};
use cleanupspec_mem::fault::{FaultInjector, FaultKind, FaultPlan};
use cleanupspec_mem::hierarchy::MemHierarchy;
use cleanupspec_mem::types::Cycle;
use cleanupspec_obs::{Observer, RingSink, Shared};
use cleanupspec_workloads::smith::{assemble_plan, plan, SmithPlan};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// MSHR file size for `leak-mshr-slot` probes: small enough that the leak
/// exhausts it within a few squash bursts.
const MSHR_SQUEEZE: usize = 8;

/// Watchdog used for chaos probes that are expected to livelock — tight,
/// so a stuck run is diagnosed in thousands of cycles, not millions.
const CHAOS_WATCHDOG: Cycle = 10_000;

/// Event ring capacity for repro artifacts (keeps the tail of the run,
/// which is where squash/cleanup activity concentrates).
const RING_CAP: usize = 4096;

/// Replacement-seed salt for the second run of a witness pair.
const WITNESS_SALT: u64 = 0x5A17_C0DE;

/// Minimum evictions per core before a witness digest is trusted: with
/// fewer victims, two honest random policies can agree by chance.
const WITNESS_MIN_VICTIMS: u64 = 8;

/// One fault probed on one seed: did it fire, and who noticed?
#[derive(Clone, Debug)]
pub struct FaultProbe {
    /// The injected fault.
    pub kind: FaultKind,
    /// Generating seed.
    pub seed: u64,
    /// Times the hook site was reached.
    pub opportunities: u64,
    /// Times the fault actually fired.
    pub fires: u64,
    /// Detector labels that flagged the run (one of [`DETECTORS`]).
    pub detectors: Vec<&'static str>,
    /// Oracle violations from the faulted run (empty for detections that
    /// are not oracle-shaped, e.g. the witness compare).
    pub violations: Vec<Violation>,
}

impl FaultProbe {
    /// Detected = the fault really fired *and* at least one detector saw it.
    pub fn detected(&self) -> bool {
        self.fires > 0 && !self.detectors.is_empty()
    }
}

/// One row of the fault-detection matrix.
#[derive(Clone, Debug)]
pub struct MatrixRow {
    /// The fault class this row proves (or fails to prove) detectable.
    pub kind: FaultKind,
    /// Seeds probed before detection (or the scan budget, if never).
    pub seeds_scanned: u64,
    /// The first detecting probe, if any.
    pub probe: Option<FaultProbe>,
}

impl MatrixRow {
    /// Whether this fault class was caught.
    pub fn detected(&self) -> bool {
        self.probe.is_some()
    }
}

/// Builds the per-kind [`ExecEnv`]; the caller keeps the returned injector
/// clone to read fire counters back after the run.
fn env_for(kind: FaultKind) -> (ExecEnv, FaultInjector) {
    let inj = FaultInjector::new(FaultPlan::single(kind));
    let mut env = ExecEnv {
        faults: inj.clone(),
        ..ExecEnv::default()
    };
    if kind == FaultKind::LeakMshrSlot {
        env.mshrs_per_core = Some(MSHR_SQUEEZE);
        env.watchdog = Some(CHAOS_WATCHDOG);
    }
    if kind == FaultKind::EarlyCoherenceDowngrade {
        // The fuzz default L1 holds 2 lines, so the sharer core's M lines
        // are evicted (losing directory ownership) before a wrong-path
        // load can find them. A roomier L1 keeps remote ownership alive
        // long enough for GetS-Safe refusals — the fault's opportunity —
        // to actually occur.
        env.l1_geometry = Some((8 * 1024, 4));
    }
    (env, inj)
}

/// True when every core with enough evictions in both runs produced the
/// same victim digest (and at least one core had enough).
fn witness_agree(a: &ModeRun, b: &ModeRun) -> bool {
    let mut any = false;
    for (wa, wb) in a.l1_victim_witness.iter().zip(&b.l1_victim_witness) {
        if wa.1 >= WITNESS_MIN_VICTIMS && wb.1 >= WITNESS_MIN_VICTIMS {
            if wa.0 != wb.0 {
                return false;
            }
            any = true;
        }
    }
    any
}

/// Probes one fault against one smith plan under CleanupSpec.
pub fn probe_plan(kind: FaultKind, p: &SmithPlan) -> FaultProbe {
    let mut probe = FaultProbe {
        kind,
        seed: p.seed,
        opportunities: 0,
        fires: 0,
        detectors: Vec::new(),
        violations: Vec::new(),
    };
    let progs: Vec<Arc<Program>> = assemble_plan(p).into_iter().map(Arc::new).collect();
    let refs: Vec<RefRun> = progs
        .iter()
        .map(|pr| interpret(pr, fuzz::REF_STEP_CAP))
        .collect();
    if refs.iter().any(|r| !r.halted) {
        return probe; // Generator bug; nothing to judge against.
    }
    let ref_mem_digest = merged_image(&refs).image_digest();
    let mode = SecurityMode::CleanupSpec;

    if kind == FaultKind::DeterministicL1Replacement {
        // This fault leaves every oracle-visible state legal — the caches
        // hold exactly the right lines, just chosen by a predictable
        // victim policy (the randomness CleanupSpec leans on to decouple
        // evictions from addresses). Detection is the dual-run witness:
        // re-salt the L1 replacement RNG and compare victim digests.
        let run_pair = |faulted: bool| -> (ModeRun, ModeRun, FaultInjector) {
            let one = |salt: u64| -> (ModeRun, FaultInjector) {
                let inj = if faulted {
                    FaultInjector::new(FaultPlan::single(kind))
                } else {
                    FaultInjector::disabled()
                };
                let env = ExecEnv {
                    faults: inj.clone(),
                    repl_seed_salt: salt,
                    ..ExecEnv::default()
                };
                (
                    exec_env(&progs, mode, p.seed, |_| mode.build_scheme(), &env),
                    inj,
                )
            };
            let (a, inj) = one(0);
            let (b, _) = one(WITNESS_SALT);
            (a, b, inj)
        };
        let (fa, fb, inj) = run_pair(true);
        probe.opportunities = inj.counters(kind).opportunities;
        probe.fires = inj.fires(kind);
        if probe.fires > 0 && witness_agree(&fa, &fb) {
            let (ca, cb, _) = run_pair(false);
            if !witness_agree(&ca, &cb) {
                probe.detectors.push("witness");
            }
        }
        return probe;
    }

    let (env, inj) = env_for(kind);
    let run = exec_env(&progs, mode, p.seed, |_| mode.build_scheme(), &env);
    probe.opportunities = inj.counters(kind).opportunities;
    probe.fires = inj.fires(kind);
    if matches!(run.stop, StopReason::Livelock(_)) {
        probe.detectors.push("watchdog");
    }
    probe.violations = judge(p.seed, mode, &refs, ref_mem_digest, &run);
    for v in &probe.violations {
        if !probe.detectors.contains(&v.oracle) {
            probe.detectors.push(v.oracle);
        }
    }
    probe
}

/// Probes one fault against one seed ([`probe_plan`] on the generated plan).
pub fn probe_fault(kind: FaultKind, seed: u64) -> FaultProbe {
    probe_plan(kind, &plan(seed))
}

/// Scans seeds from `start` until `kind` both fires and is detected, or
/// the budget of `max_seeds` runs out.
pub fn scan_fault(kind: FaultKind, start: u64, max_seeds: u64) -> MatrixRow {
    for i in 0..max_seeds {
        let probe = probe_fault(kind, start + i);
        if probe.detected() {
            return MatrixRow {
                kind,
                seeds_scanned: i + 1,
                probe: Some(probe),
            };
        }
    }
    MatrixRow {
        kind,
        seeds_scanned: max_seeds,
        probe: None,
    }
}

/// Builds the full fault-detection matrix: every [`FaultKind`], scanned
/// on the shared work-stealing pool (results are per-fault
/// deterministic, so threading cannot change a verdict; rows come back
/// in `FaultKind::ALL` order regardless of scheduling).
pub fn detection_matrix(start: u64, max_seeds: u64) -> Vec<MatrixRow> {
    let outcome = crate::exec::run_indexed(
        FaultKind::ALL.len(),
        &crate::exec::ExecConfig::default(),
        |i| scan_fault(FaultKind::ALL[i], start, max_seeds),
    );
    assert!(
        outcome.is_complete(),
        "matrix worker panicked: {:?}",
        outcome.failures
    );
    outcome.slots.into_iter().flatten().collect()
}

/// Detector labels, in matrix-column order.
pub const DETECTORS: [&str; 5] = ["arch", "cache", "episode", "watchdog", "witness"];

/// Renders the matrix as a fixed-width table plus a one-line verdict.
pub fn render_matrix(rows: &[MatrixRow]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{:<30} {:>8} {:>5} {:>6} {:>6}",
        "fault", "seed", "scan", "opps", "fires"
    );
    for d in DETECTORS {
        let _ = write!(out, " {d:>8}");
    }
    out.push('\n');
    for r in rows {
        match &r.probe {
            Some(p) => {
                let _ = write!(
                    out,
                    "{:<30} {:>8} {:>5} {:>6} {:>6}",
                    r.kind.name(),
                    format!("{:#x}", p.seed),
                    r.seeds_scanned,
                    p.opportunities,
                    p.fires
                );
                for d in DETECTORS {
                    let mark = if p.detectors.contains(&d) { "X" } else { "." };
                    let _ = write!(out, " {mark:>8}");
                }
                out.push('\n');
            }
            None => {
                let _ = writeln!(
                    out,
                    "{:<30} {:>8} {:>5} {:>6} {:>6}  NOT DETECTED",
                    r.kind.name(),
                    "-",
                    r.seeds_scanned,
                    "-",
                    "-"
                );
            }
        }
    }
    let caught = rows.iter().filter(|r| r.detected()).count();
    let _ = writeln!(out, "{caught}/{} fault classes detected", rows.len());
    out
}

/// Options for a crash-isolated chaos campaign.
#[derive(Clone, Debug, Default)]
pub struct ChaosOpts {
    /// First seed.
    pub start: u64,
    /// Number of seeds.
    pub count: u64,
    /// Fault to inject on every seed (`None` = clean differential fuzzing
    /// with crash isolation and artifacts on top).
    pub fault: Option<FaultKind>,
    /// Where to write per-failure repro artifact directories.
    pub artifact_dir: Option<PathBuf>,
    /// Shrink failing plans before exporting `.s` files.
    pub shrink: bool,
    /// Plant a deliberate panic at this seed — the isolation self-test:
    /// the campaign must record it and keep going.
    pub panic_at: Option<u64>,
    /// Campaign directory holding a crash-safe journal: seeds whose
    /// verdicts are already journaled are replayed instead of re-run, and
    /// fresh verdicts are journaled as they complete.
    pub resume_dir: Option<PathBuf>,
}

impl ChaosOpts {
    /// The journal identity for this campaign. Only verdict-determining
    /// knobs participate: the artifact directory and the resume directory
    /// itself change where results land, never what they are.
    pub fn journal_header(&self) -> JournalHeader {
        JournalHeader {
            campaign: "cs-chaos".to_string(),
            config: format!(
                "start={:#x} count={} fault={} shrink={} panic_at={}",
                self.start,
                self.count,
                self.fault.map_or("none", FaultKind::name),
                self.shrink,
                self.panic_at
                    .map_or("none".to_string(), |s| format!("{s:#x}")),
            ),
        }
    }
}

/// End-of-campaign triage summary.
#[derive(Clone, Debug, Default)]
pub struct ChaosSummary {
    /// Seeds run.
    pub seeds: u64,
    /// Seeds where every oracle held.
    pub passes: u64,
    /// Seeds with oracle violations.
    pub failures: u64,
    /// Seeds whose engine run panicked (caught, recorded, not fatal).
    pub panics: u64,
    /// Seeds replayed from the campaign journal instead of re-run.
    pub resumed: u64,
    /// Artifact directories written, one per recorded failure.
    pub artifacts: Vec<PathBuf>,
    /// One human-readable line per failure or panic.
    pub triage: Vec<String>,
}

/// Verdict for one plan under the campaign's fault setting.
fn chaos_plan_verdict(p: &SmithPlan, fault: Option<FaultKind>) -> SeedVerdict {
    match fault {
        None => fuzz::run_plan(p),
        Some(kind) => {
            let probe = probe_plan(kind, p);
            if probe.violations.is_empty() {
                SeedVerdict::Pass { squashes: 0 }
            } else {
                SeedVerdict::Fail(probe.violations)
            }
        }
    }
}

/// Cycle stride between silent cs-snap checkpoints in [`capture_events`]:
/// the replay runs unobserved up to the last checkpoint before the run
/// stops, then attaches the ring and resumes only the tail.
const CAPTURE_STRIDE: Cycle = 50_000;

/// Replays a plan with a [`RingSink`] attached and returns the event dump
/// (the run is deterministic, so the replay sees the failing execution).
///
/// The replay is two-phase: a silent pre-pass runs in
/// [`CAPTURE_STRIDE`]-cycle slices, cloning the whole system (cs-snap) at
/// the last slice boundary before the stop; the event capture then
/// resumes from that checkpoint instead of cycle 0. The ring only keeps
/// the run's tail anyway — this way the observer tax is only paid over
/// the window the artifact actually shows. Fault-injection counters are
/// rewound with the checkpoint so the tail re-fires the same faults.
fn capture_events(p: &SmithPlan, fault: Option<FaultKind>) -> String {
    let progs: Vec<Arc<Program>> = assemble_plan(p).into_iter().map(Arc::new).collect();
    let mode = SecurityMode::CleanupSpec;
    let (env, _inj) = match fault {
        Some(k) => env_for(k),
        None => (ExecEnv::default(), FaultInjector::disabled()),
    };
    let mut cfg = mode.apply_mem_config(fuzz::fuzz_mem_config(progs.len(), p.seed));
    cfg.repl_seed_salt = env.repl_seed_salt;
    if let Some(m) = env.mshrs_per_core {
        cfg.mshrs_per_core = m;
    }
    if let Some((cap, ways)) = env.l1_geometry {
        cfg.l1_capacity = cap;
        cfg.l1_ways = ways;
    }
    let mut mem = MemHierarchy::new(cfg);
    if env.faults.is_enabled() {
        mem.set_fault_injector(env.faults.clone());
    }
    let schemes: Vec<_> = (0..progs.len()).map(|_| mode.build_scheme()).collect();
    let mut sys = System::new(mem, CoreConfig::default(), schemes, progs);
    let mut limits = RunLimits {
        max_cycles: fuzz::CYCLE_CAP,
        max_insts_per_core: u64::MAX,
        ..RunLimits::default()
    };
    if let Some(wd) = env.watchdog {
        limits.watchdog = Some(wd);
    }

    // Silent pre-pass: advance slice by slice, keeping the last
    // checkpoint taken before the run stops for real.
    let mut ckpt = (sys.clone(), env.faults.counters_snapshot());
    loop {
        let mut slice = limits;
        slice.max_cycles = (sys.now() + CAPTURE_STRIDE).min(limits.max_cycles);
        let stop = sys.run(slice);
        let at_slice_boundary =
            matches!(stop, StopReason::CycleLimit) && sys.now() < limits.max_cycles;
        if !at_slice_boundary {
            break;
        }
        ckpt = (sys.clone(), env.faults.counters_snapshot());
    }

    let (mut tail, counters) = ckpt;
    let resumed_at = tail.now();
    env.faults.restore_counters(&counters);
    let ring = Shared::new(RingSink::new(RING_CAP));
    tail.set_observer(Observer::new(vec![Box::new(ring.clone())]));
    let stop = tail.run(limits);
    ring.with(|r| {
        format!(
            "; stop: {stop}\n; resumed from cs-snap checkpoint at cycle {resumed_at}\n\
             ; {} event(s) kept of {} recorded\n{}",
            r.to_vec().len(),
            r.total_recorded(),
            r.dump()
        )
    })
}

/// Writes one failure's repro artifacts under `dir` and returns the
/// artifact subdirectory: `repro.txt` (seed, fault plan, violations,
/// replay hint), `core<i>.s` (shrunk if requested), and `events.log`
/// (ring-buffer dump of the failing run; skipped for panicking seeds
/// unless the replay survives its own `catch_unwind`).
///
/// All writes go through the hardened [`ArtifactStore`] for `dir`
/// (atomic write + checksum sidecar + retry); an unwritable directory
/// degrades to in-memory artifacts with a one-line warning instead of
/// aborting the campaign, in which case the returned path will not
/// exist on disk.
pub fn write_artifacts(
    dir: &Path,
    seed: u64,
    fault: Option<FaultKind>,
    violations: &[Violation],
    do_shrink: bool,
) -> PathBuf {
    let store = shared_dir_store(dir);
    let put = |name: &str, bytes: &[u8]| {
        if let Err(e) = store.put(name, bytes) {
            eprintln!("warning: cs-chaos artifact {name} not stored: {e}");
        }
    };
    let panicked = violations.iter().any(|v| v.oracle == "panic");
    let tag = if panicked {
        "panic"
    } else {
        fault.map_or("clean", FaultKind::name)
    };
    let rel = format!("seed-{seed:#x}-{tag}");
    let sub = dir.join(&rel);
    let p = plan(seed);

    // Shrink while the failure persists. Panicking seeds are exported
    // unshrunk: re-running a crashing engine dozens of times in-process
    // is exactly what the isolation exists to avoid.
    let min = if do_shrink && !panicked {
        fuzz::shrink(&p, |cand| !chaos_plan_verdict(cand, fault).passed())
    } else {
        p.clone()
    };

    let mut repro = String::new();
    let _ = writeln!(repro, "cs-chaos repro: seed {seed:#x}");
    match fault {
        Some(k) => {
            let _ = writeln!(repro, "fault plan: {}", FaultPlan::single(k).describe());
            let _ = writeln!(repro, "  ({})", k.description());
        }
        None => {
            let _ = writeln!(repro, "fault plan: none (clean differential run)");
        }
    }
    let _ = writeln!(
        repro,
        "plan: {} op(s), {} iter(s), {} core(s){}",
        min.ops.len(),
        min.iters,
        min.cores,
        if do_shrink && !panicked {
            " [shrunk]"
        } else {
            ""
        }
    );
    for v in violations {
        let _ = writeln!(repro, "violation: {v}");
    }
    let replay_fault = fault
        .map(|k| format!(" --fault {}", k.name()))
        .unwrap_or_default();
    let _ = writeln!(repro, "replay: cs-chaos --replay {seed:#x}{replay_fault}");
    put(&format!("{rel}/repro.txt"), repro.as_bytes());

    for (i, prog) in assemble_plan(&min).iter().enumerate() {
        let asm = format!(
            "; cs-chaos seed {:#x} core {i}: {} plan ops, {} iterations, fault {}\n{}",
            min.seed,
            min.ops.len(),
            min.iters,
            fault.map_or("none", FaultKind::name),
            disassemble(prog)
        );
        put(&format!("{rel}/core{i}.s"), asm.as_bytes());
    }

    let events = std::panic::catch_unwind(|| capture_events(&min, fault));
    let dump = match events {
        Ok(dump) => dump,
        Err(payload) => format!(
            "; event replay itself panicked: {}\n",
            fuzz::panic_message(&*payload)
        ),
    };
    put(&format!("{rel}/events.log"), dump.as_bytes());
    sub
}

/// Runs a crash-isolated campaign: every seed in `catch_unwind`, panics
/// recorded as `"panic"`-oracle failures with artifacts, triage at the
/// end. With [`ChaosOpts::resume_dir`] set, journaled verdicts replay
/// instead of re-running, so a campaign killed mid-flight resumes with
/// an identical triage summary.
pub fn run_chaos_campaign(opts: &ChaosOpts) -> ChaosSummary {
    let journal = opts.resume_dir.as_deref().and_then(|dir| {
        let store = shared_dir_store(dir) as Arc<dyn ArtifactStore>;
        match Journal::open(store, &opts.journal_header()) {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("warning: cs-chaos running without a journal: {e}");
                None
            }
        }
    });
    let mut sum = ChaosSummary::default();
    for seed in opts.start..opts.start.saturating_add(opts.count) {
        sum.seeds += 1;
        let task_id = format!("seed-{seed:#x}");
        let replayed = journal
            .as_ref()
            .and_then(|j| j.completed(&task_id))
            .and_then(|payload| match fuzz::verdict_from_json(&payload) {
                Ok(v) => Some(v),
                Err(e) => {
                    eprintln!("warning: re-running {task_id}: journaled verdict unusable ({e})");
                    None
                }
            });
        let resumed = replayed.is_some();
        let verdict = replayed.unwrap_or_else(|| {
            let fault = opts.fault;
            let planted = opts.panic_at == Some(seed);
            let v = match std::panic::catch_unwind(move || {
                if planted {
                    panic!("cs-chaos planted panic (isolation self-test) at seed {seed:#x}");
                }
                chaos_plan_verdict(&plan(seed), fault)
            }) {
                Ok(v) => v,
                Err(payload) => SeedVerdict::Fail(vec![Violation {
                    seed,
                    scheme: "(crashed)",
                    oracle: "panic",
                    detail: fuzz::panic_message(&*payload),
                }]),
            };
            if let Some(j) = &journal {
                j.record(&task_id, &fuzz::verdict_to_json(&v));
            }
            v
        });
        sum.resumed += u64::from(resumed);
        let violations = match verdict {
            SeedVerdict::Pass { .. } => {
                sum.passes += 1;
                continue;
            }
            SeedVerdict::Fail(vs) => {
                // A `"panic"` oracle only ever comes from the isolation
                // net, so this split preserves the pre-journal counters.
                if vs.iter().any(|v| v.oracle == "panic") {
                    sum.panics += 1;
                } else {
                    sum.failures += 1;
                }
                vs
            }
        };
        sum.triage
            .push(format!("seed {seed:#x}: {}", violations[0]));
        if let Some(dir) = &opts.artifact_dir {
            if resumed {
                // The original run already exported artifacts; point at
                // them without re-running the failing engine.
                let panicked = violations.iter().any(|v| v.oracle == "panic");
                let tag = if panicked {
                    "panic"
                } else {
                    opts.fault.map_or("clean", FaultKind::name)
                };
                let sub = dir.join(format!("seed-{seed:#x}-{tag}"));
                if sub.exists() {
                    sum.artifacts.push(sub);
                }
            } else {
                sum.artifacts.push(write_artifacts(
                    dir,
                    seed,
                    opts.fault,
                    &violations,
                    opts.shrink,
                ));
            }
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_victim_restore_is_detected_within_a_few_seeds() {
        let row = scan_fault(FaultKind::SkipVictimRestore, 0, 16);
        let p = row.probe.expect("skip-victim-restore never detected");
        assert!(p.fires > 0);
        assert!(
            p.detectors.contains(&"episode"),
            "expected the episode ledger to flag the missing restore, got {:?}",
            p.detectors
        );
    }

    /// Every fault class that corrupts *undo state* (as opposed to
    /// starving resources, biasing randomness, or skewing indexing) must
    /// be caught by the episode detector — i.e. produce at least one
    /// `EpisodeLeak` pinned to a cleanup episode, not just global residue.
    #[test]
    fn undo_corrupting_faults_are_flagged_at_episode_granularity() {
        // (kind, seed-scan budget). Most classes trip within a handful of
        // seeds; early-coherence-downgrade needs remote M ownership to
        // line up with a wrong-path load and historically first fires
        // around seed 0xac, hence the wider budget.
        let undo_faults = [
            (FaultKind::SkipVictimRestore, 16),
            (FaultKind::SkipTransientInvalidate, 16),
            (FaultKind::DoubleUndo, 16),
            (FaultKind::DropSefeEntry, 16),
            (FaultKind::EarlyCoherenceDowngrade, 192),
        ];
        for (kind, budget) in undo_faults {
            let caught = (0..budget).map(|s| probe_fault(kind, s)).any(|p| {
                p.fires > 0
                    && p.detectors.contains(&"episode")
                    && p.violations.iter().any(|v| v.oracle == "episode")
            });
            assert!(
                caught,
                "{}: no seed in 0..{budget} produced an episode-ledger finding",
                kind.name()
            );
        }
    }

    #[test]
    fn planted_panic_is_isolated_and_leaves_artifacts() {
        let dir = std::env::temp_dir().join(format!("cs-chaos-selftest-{}", std::process::id()));
        let opts = ChaosOpts {
            start: 0,
            count: 3,
            fault: None,
            artifact_dir: Some(dir.clone()),
            shrink: false,
            panic_at: Some(1),
            resume_dir: None,
        };
        let sum = run_chaos_campaign(&opts);
        assert_eq!(sum.seeds, 3, "campaign must survive the planted panic");
        assert_eq!(sum.panics, 1);
        assert_eq!(sum.artifacts.len(), 1);
        let repro =
            std::fs::read_to_string(sum.artifacts[0].join("repro.txt")).expect("repro.txt written");
        assert!(repro.contains("planted panic"), "repro: {repro}");
        assert!(sum.artifacts[0].join("core0.s").exists());
        assert!(sum.artifacts[0].join("events.log").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journaled_campaign_resumes_with_identical_triage() {
        let dir = std::env::temp_dir().join(format!("cs-chaos-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ChaosOpts {
            start: 0,
            count: 3,
            fault: None,
            artifact_dir: None,
            shrink: false,
            panic_at: Some(1),
            resume_dir: Some(dir.clone()),
        };
        let first = run_chaos_campaign(&opts);
        assert_eq!(first.resumed, 0);
        assert_eq!(first.panics, 1);
        // Second run over the same journal: every verdict replays, the
        // planted panic is *not* re-triggered, and triage is identical.
        let second = run_chaos_campaign(&opts);
        assert_eq!(second.resumed, 3);
        assert_eq!(second.seeds, first.seeds);
        assert_eq!(second.passes, first.passes);
        assert_eq!(second.failures, first.failures);
        assert_eq!(second.panics, first.panics);
        assert_eq!(second.triage, first.triage);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
