//! `cs-chaos` fault injection and the seed-campaign driver shared with
//! `cs-smith`.
//!
//! Oracles that never fire prove nothing, so every [`FaultKind`] the
//! memory hierarchy and undo engine can inject is run as a seed campaign
//! until it (a) actually fires and (b) is flagged by at least one oracle,
//! producing a **fault-detection matrix** — the machine-checked claim
//! that no fault class escapes the safety net. The missing victim restore
//! (`skip-victim-restore`) is one such class.
//!
//! Oracles (matrix columns; every one is a [`Violation`] label from
//! [`fuzz::ORACLES`]):
//!
//! * `arch` / `cache` / `episode` — the three cs-smith oracles
//!   (architectural equivalence, cache-restoration membership +
//!   invariants, and the episode-granular undo-coverage ledger that pins
//!   each residue to the squash whose cleanup should have covered it).
//! * `watchdog` — the forward-progress watchdog: the run stopped with
//!   [`StopReason::Livelock`](cleanupspec_core::system::StopReason) (how
//!   `leak-mshr-slot` surfaces once the MSHR file exhausts).
//! * `witness` — the dual-run L1 victim witness: two runs that differ
//!   *only* in `repl_seed_salt` must pick different eviction victims; if
//!   the faulted pair agrees while the clean control pair diverges, the
//!   replacement policy has gone deterministic (`deterministic-l1-replacement`
//!   is invisible to the state oracles — the cache contents stay legal).
//!
//! [`run_campaign`] is the one loop that judges seeds: a plain
//! differential campaign (`cs-smith`, or `cs-chaos` without `--fault`),
//! a one-fault campaign and each row of the [`detection_matrix`] differ
//! only in [`CampaignOpts::fault`] and the seed window. Each
//! seed is a task on the shared executor ([`crate::exec::run_indexed`]),
//! so the result is the same at any thread count. Campaigns are
//! **crash-isolated**: each seed's verdict runs inside `catch_unwind`, a
//! panicking engine is recorded as a `"panic"`-oracle failure with full
//! repro artifacts (seed, fault plan, shrunk `.s` programs, ring-buffer
//! event dump) instead of aborting the run, and the result carries a
//! triage summary. With a `--resume` directory, verdicts are journaled
//! as they complete, keyed by `CampaignOpts::seed_key`, and served to
//! any later campaign that asks for the same seed under the same knobs.

use crate::fuzz::{self, exec_env, judge, ExecEnv, ModeRun, SeedVerdict, Violation};
use crate::journal::Journal;
use crate::store::{shared_dir_store, ArtifactStore};
use crate::target::trace_command;
use cleanupspec::modes::SecurityMode;
use cleanupspec_asm::disassemble;
use cleanupspec_core::isa::Program;
use cleanupspec_mem::fault::{FaultInjector, FaultKind, FaultPlan};
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

/// One fault probed on one seed: did it fire, and which oracles flagged it?
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
    /// Oracle violations of the faulted run, the seed's campaign verdict.
    pub violations: Vec<Violation>,
}

impl FaultProbe {
    /// Detected = the fault really fired *and* at least one oracle saw it.
    pub fn detected(&self) -> bool {
        self.fires > 0 && !self.violations.is_empty()
    }

    /// The oracles that flagged the run, in [`fuzz::ORACLES`] order.
    pub fn oracles(&self) -> Vec<&'static str> {
        let flagged = |o: &&str| self.violations.iter().any(|v| v.oracle == *o);
        fuzz::ORACLES.into_iter().filter(flagged).collect()
    }
}

/// One row of the fault-detection matrix: one fault class's campaign
/// over the seed window.
#[derive(Clone, Debug)]
pub struct MatrixRow {
    /// The fault class this row proves (or fails to prove) detectable.
    pub kind: FaultKind,
    /// Seeds in the window.
    pub window: u64,
    /// Seeds of the window the campaign flagged (panics not included).
    pub flagged: u64,
    /// The `--replay` probe of the first flagged seed that did not panic
    /// and on which the fault fired, if any.
    pub first: Option<FaultProbe>,
}

impl MatrixRow {
    /// Whether this fault class was caught.
    pub fn detected(&self) -> bool {
        self.first.is_some()
    }
}

/// The [`ExecEnv`] a campaign runs a seed in: the plain fuzz environment,
/// or with `fault` planted and the overrides its class needs. Read fire
/// counters back through `env.faults` after the run.
pub(crate) fn env_for(fault: Option<FaultKind>) -> ExecEnv {
    let Some(kind) = fault else {
        return ExecEnv::default();
    };
    let mut env = ExecEnv {
        faults: FaultInjector::new(FaultPlan::single(kind)),
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
    env
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
    let (progs, refs, ref_mem_digest) = fuzz::reference(p);
    let mode = SecurityMode::CleanupSpec;
    let mut probe = FaultProbe {
        kind,
        seed: p.seed,
        opportunities: 0,
        fires: 0,
        violations: Vec::new(),
    };

    if kind == FaultKind::DeterministicL1Replacement {
        // This fault leaves every oracle-visible state legal — the caches
        // hold exactly the right lines, just chosen by a predictable
        // victim policy (the randomness CleanupSpec leans on to decouple
        // evictions from addresses). Detection is the dual-run witness:
        // re-salt the L1 replacement RNG and compare victim digests.
        let run_pair = |faulted: bool| -> (ModeRun, ModeRun, FaultInjector) {
            let one = |salt: u64| -> (ModeRun, FaultInjector) {
                let env = ExecEnv {
                    repl_seed_salt: salt,
                    ..env_for(faulted.then_some(kind))
                };
                (exec_env(&progs, mode, p.seed, &env), env.faults)
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
                probe.violations.push(Violation {
                    seed: p.seed,
                    scheme: fa.scheme,
                    oracle: "witness",
                    detail: "L1 victims ignore the replacement salt".to_string(),
                });
            }
        }
        return probe;
    }

    let env = env_for(Some(kind));
    let run = exec_env(&progs, mode, p.seed, &env);
    probe.opportunities = env.faults.counters(kind).opportunities;
    probe.fires = env.faults.fires(kind);
    probe.violations = judge(p.seed, mode, &refs, ref_mem_digest, &run);
    probe
}

/// Probes one fault against one seed ([`probe_plan`] on the generated plan).
pub fn probe_fault(kind: FaultKind, seed: u64) -> FaultProbe {
    probe_plan(kind, &plan(seed))
}

/// Builds the full fault-detection matrix: one [`run_campaign`] per
/// [`FaultKind`] over the seed window `start..start + window`, each seed
/// a task on the shared executor, so a row is the same at any thread
/// count. Rows come back in `FaultKind::ALL` order.
pub fn detection_matrix(start: u64, window: u64) -> Vec<MatrixRow> {
    FaultKind::ALL
        .into_iter()
        .map(|kind| matrix_row(kind, start, window))
        .collect()
}

/// One matrix row: `kind`'s campaign over the window, and the
/// `--replay` probe of its first flagged seed that did not panic and on
/// which the fault fired.
fn matrix_row(kind: FaultKind, start: u64, window: u64) -> MatrixRow {
    let result = run_campaign(&CampaignOpts {
        start,
        count: window,
        threads: crate::exec::default_threads(),
        fault: Some(kind),
        ..CampaignOpts::default()
    });
    let first = result
        .triage()
        .filter(|v| v.oracle != "panic")
        .map(|v| probe_fault(kind, v.seed))
        .find(FaultProbe::detected);
    MatrixRow {
        kind,
        window,
        flagged: result.failures,
        first,
    }
}

/// Renders the matrix as a fixed-width table plus a one-line verdict:
/// each row's first detected seed, `flagged/window`, the fault's
/// opportunities and fires on that seed, and one column per oracle.
pub fn render_matrix(rows: &[MatrixRow]) -> String {
    let columns = &fuzz::ORACLES[..fuzz::ORACLES.len() - 1]; // all but "panic"
    let mut out = String::new();
    let _ = write!(
        out,
        "{:<30} {:>8} {:>9} {:>6} {:>6}",
        "fault", "seed", "flagged", "opps", "fires"
    );
    for o in columns {
        let _ = write!(out, " {o:>8}");
    }
    out.push('\n');
    for r in rows {
        let flagged = format!("{}/{}", r.flagged, r.window);
        let _ = write!(out, "{:<30}", r.kind.name());
        match &r.first {
            Some(p) => {
                let _ = write!(
                    out,
                    " {:>8} {flagged:>9} {:>6} {:>6}",
                    format!("{:#x}", p.seed),
                    p.opportunities,
                    p.fires
                );
                let oracles = p.oracles();
                for o in columns {
                    let mark = if oracles.contains(o) { "X" } else { "." };
                    let _ = write!(out, " {mark:>8}");
                }
                out.push('\n');
            }
            None => {
                let _ = writeln!(
                    out,
                    " {:>8} {flagged:>9} {:>6} {:>6}  NOT DETECTED",
                    "-", "-", "-"
                );
            }
        }
    }
    let caught = rows.iter().filter(|r| r.detected()).count();
    let _ = writeln!(out, "{caught}/{} fault classes detected", rows.len());
    out
}

/// Options for one seed campaign ([`run_campaign`]).
#[derive(Clone, Debug, Default)]
pub struct CampaignOpts {
    /// First seed.
    pub start: u64,
    /// Number of seeds; `start + count` must fit in a `u64` (the CLIs
    /// reject ranges that overflow, see `CommonCli::seed_range`).
    pub count: u64,
    /// Executor worker threads (execution-only: never changes a verdict).
    pub threads: usize,
    /// Fault to inject on every seed (`None` = clean differential fuzzing
    /// under every scheme of [`fuzz::FUZZ_MODES`]).
    pub fault: Option<FaultKind>,
    /// Where to write per-failure repro artifact directories.
    pub artifact_dir: Option<PathBuf>,
    /// Shrink failing plans before exporting `.s` files.
    pub shrink: bool,
    /// Plant a deliberate panic at this seed — the isolation self-test:
    /// the campaign must record it and keep going.
    pub panic_at: Option<u64>,
    /// `--resume` directory holding the result journal: seeds whose
    /// verdicts are already journaled are served instead of re-run, and
    /// fresh verdicts are journaled as they complete.
    pub resume_dir: Option<PathBuf>,
}

impl CampaignOpts {
    /// The journal id of one seed's verdict: the seed plus the knobs that
    /// determine its verdict and artifacts (the fault, shrinking, and
    /// whether the planted panic hits this seed). The seed range, thread
    /// count and directories change which seeds run and where results
    /// land, never what one seed's result is, so `cs-smith` and `cs-chaos`
    /// campaigns of any range share the verdicts they have in common.
    /// The `v2` prefix marks verdicts judged with the watchdog and witness
    /// oracles: a journal of older, witness-blind verdicts serves nothing.
    pub(crate) fn seed_key(&self, seed: u64) -> String {
        format!(
            "seed-campaign-v2/{seed:#x}/fault={}/shrink={}/panic={}",
            self.fault.map_or("none", FaultKind::name),
            self.shrink,
            self.panic_at == Some(seed)
        )
    }
}

/// Aggregate result of a seed campaign, summed in seed order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignResult {
    /// Seeds run.
    pub seeds: u64,
    /// Total squashes observed across passing seeds (sanity: > 0 or a
    /// differential campaign never exercised the undo paths; fault
    /// campaigns count none).
    pub squashes: u64,
    /// Seeds with oracle violations (panicking seeds not included).
    pub failures: u64,
    /// Seeds whose run panicked (caught and recorded as `"panic"`-oracle
    /// violations; the campaign itself keeps going).
    pub panics: u64,
    /// Seeds served from the result journal instead of re-run.
    pub resumed: u64,
    /// Every violation, in seed order.
    pub violations: Vec<Violation>,
    /// Artifact directories, one per failing or panicking seed, in seed
    /// order (empty without [`CampaignOpts::artifact_dir`]).
    pub artifacts: Vec<PathBuf>,
}

impl CampaignResult {
    /// Whether every seed passed.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Seeds where every oracle held.
    pub fn passes(&self) -> u64 {
        self.seeds - self.failures - self.panics
    }

    /// The first violation of each failing or panicking seed, in seed
    /// order — one triage line per seed.
    pub fn triage(&self) -> impl Iterator<Item = &Violation> {
        self.violations
            .chunk_by(|a, b| a.seed == b.seed)
            .map(|same_seed| &same_seed[0])
    }
}

/// Verdict for one plan under a campaign's fault setting: the full
/// differential [`fuzz::run_plan`] without a fault, else the faulted
/// CleanupSpec probe, failing on any oracle violation (the witness and
/// the watchdog included).
pub fn chaos_plan_verdict(p: &SmithPlan, fault: Option<FaultKind>) -> SeedVerdict {
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

/// Replays a plan under `mode` with a [`RingSink`] attached and returns
/// the event dump (the run is deterministic, so the replay sees the
/// failing execution). The system is built and finished like every
/// smith run ([`fuzz::smith_system`], [`fuzz::run_drained`]), so the
/// dump ends with the post-halt fills the ledger judged.
fn capture_events(p: &SmithPlan, fault: Option<FaultKind>, mode: SecurityMode) -> String {
    let progs: Vec<Arc<Program>> = assemble_plan(p).into_iter().map(Arc::new).collect();
    let env = env_for(fault);
    let ring = Shared::new(RingSink::new(RING_CAP));
    let obs = Observer::new(vec![Box::new(ring.clone())]);
    let mut sys = fuzz::smith_system(&progs, mode, p.seed, &env, obs);
    let stop = fuzz::run_drained(&mut sys, &env);
    ring.with(|r| {
        format!(
            "; scheme: {}\n; stop: {stop}\n; {} event(s) kept of {} recorded\n{}",
            mode.name(),
            r.to_vec().len(),
            r.total_recorded(),
            r.dump()
        )
    })
}

/// The artifact directory name of one failing seed, `seed-0x…-<tag>`,
/// tagged `panic`, the fault name, or `clean`.
fn artifact_name(seed: u64, fault: Option<FaultKind>, violations: &[Violation]) -> String {
    let tag = if violations.iter().any(|v| v.oracle == "panic") {
        "panic"
    } else {
        fault.map_or("clean", FaultKind::name)
    };
    format!("seed-{seed:#x}-{tag}")
}

/// Writes one failure's repro artifacts under `dir` and returns the
/// artifact subdirectory: `repro.txt` (seed, fault plan, violations,
/// replay hint), `core<i>.s` (shrunk if requested), and `events.log`
/// (ring-buffer dump of the failing run under the first violation's
/// scheme; for a panicking seed, of the CleanupSpec run, or the replay's
/// own panic message).
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
    // The first violation's scheme names the run `trace:` replays and
    // `events.log` dumps; a crash names none, so CleanupSpec stands in.
    let scheme = violations.first().map_or("", |v| v.scheme);
    let mode = SecurityMode::from_name(scheme).unwrap_or(SecurityMode::CleanupSpec);
    let rel = artifact_name(seed, fault, violations);
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
    let _ = writeln!(repro, "trace: {}", trace_command(seed, scheme, fault));
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

    let events = std::panic::catch_unwind(|| capture_events(&min, fault, mode));
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

/// The `"panic"`-oracle verdict of a seed whose run crashed.
fn crashed(seed: u64, message: String) -> SeedVerdict {
    SeedVerdict::Fail(vec![Violation {
        seed,
        scheme: "(crashed)",
        oracle: "panic",
        detail: message,
    }])
}

/// One seed of [`run_campaign`]: its verdict, whether the journal served
/// it, and its artifact directory.
type SeedOutcome = (SeedVerdict, bool, Option<PathBuf>);

/// Runs one campaign seed: serves a journaled verdict, or computes it
/// under `catch_unwind`, writes its artifacts and then journals it (a
/// seed killed mid-artifact therefore re-runs on resume).
fn campaign_seed(opts: &CampaignOpts, journal: Option<&Journal>, seed: u64) -> SeedOutcome {
    let key = opts.seed_key(seed);
    let replayed = journal.and_then(|j| j.completed(&key)).and_then(|payload| {
        match fuzz::verdict_from_json(&payload) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("warning: re-running {key}: journaled verdict unusable ({e})");
                None
            }
        }
    });
    if let Some(v) = replayed {
        // The original run already exported artifacts; point at them
        // without re-running the failing engine.
        let sub = match (&v, &opts.artifact_dir) {
            (SeedVerdict::Fail(vs), Some(dir)) => {
                Some(dir.join(artifact_name(seed, opts.fault, vs))).filter(|sub| sub.exists())
            }
            _ => None,
        };
        return (v, true, sub);
    }
    let fault = opts.fault;
    let planted = opts.panic_at == Some(seed);
    let verdict = std::panic::catch_unwind(move || {
        if planted {
            panic!("cs-chaos planted panic (isolation self-test) at seed {seed:#x}");
        }
        chaos_plan_verdict(&plan(seed), fault)
    })
    .unwrap_or_else(|payload| crashed(seed, fuzz::panic_message(&*payload)));
    let sub = match (&verdict, &opts.artifact_dir) {
        (SeedVerdict::Fail(vs), Some(dir)) => {
            Some(write_artifacts(dir, seed, fault, vs, opts.shrink))
        }
        _ => None,
    };
    if let Some(j) = journal {
        j.record(&key, &fuzz::verdict_to_json(&verdict));
    }
    (verdict, false, sub)
}

/// Runs a seed campaign over `opts.start..opts.start + opts.count` on
/// the shared executor: seed `start + i` is task `i`, and results are
/// summed in seed order, so the result (and every artifact byte) is the
/// same at any thread count. With [`CampaignOpts::resume_dir`] set,
/// journaled verdicts are served instead of re-running, so a campaign
/// killed mid-flight resumes with an identical result (up to
/// [`CampaignResult::resumed`]), and a wider range re-runs only the seeds
/// no earlier campaign in the directory ran.
pub fn run_campaign(opts: &CampaignOpts) -> CampaignResult {
    debug_assert!(
        opts.start.checked_add(opts.count).is_some(),
        "seed range overflows u64"
    );
    let journal = opts.resume_dir.as_deref().map(Journal::in_dir);
    let outcome = crate::exec::run_indexed(opts.count as usize, opts.threads, |i| {
        campaign_seed(opts, journal.as_deref(), opts.start + i as u64)
    });
    let mut result = CampaignResult::default();
    let mut failures = outcome.failures.into_iter().peekable();
    for (i, slot) in outcome.slots.into_iter().enumerate() {
        let seed = opts.start + i as u64;
        // A task that panicked outside the verdict's own isolation (say,
        // while shrinking for artifacts) still counts as a crashed seed.
        let (verdict, resumed, artifacts) = slot.unwrap_or_else(|| {
            let f = failures.next_if(|f| f.index == i).expect("empty slot");
            (crashed(seed, f.message), false, None)
        });
        result.seeds += 1;
        result.resumed += u64::from(resumed);
        result.artifacts.extend(artifacts);
        match verdict {
            SeedVerdict::Pass { squashes } => result.squashes += squashes,
            SeedVerdict::Fail(vs) => {
                // A `"panic"` oracle only ever comes from the isolation net.
                if vs.iter().any(|v| v.oracle == "panic") {
                    result.panics += 1;
                } else {
                    result.failures += 1;
                }
                result.violations.extend(vs);
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_victim_restore_is_detected_within_a_few_seeds() {
        let p = matrix_row(FaultKind::SkipVictimRestore, 0, 16)
            .first
            .expect("skip-victim-restore never detected");
        assert!(p.fires > 0);
        assert!(
            p.oracles().contains(&"episode"),
            "expected the episode ledger to flag the missing restore, got {:?}",
            p.oracles()
        );
    }

    /// Every fault class that corrupts *undo state* (as opposed to
    /// starving resources, biasing randomness, or skewing indexing) must
    /// be caught by the episode oracle — i.e. produce at least one
    /// `EpisodeLeak` pinned to a cleanup episode, not just global residue.
    #[test]
    fn undo_corrupting_faults_are_flagged_at_episode_granularity() {
        // (kind, seed window). Most classes trip within a handful of
        // seeds; early-coherence-downgrade needs remote M ownership to
        // line up with a wrong-path load and historically first fires
        // around seed 0xac, hence the wider window.
        let undo_faults = [
            (FaultKind::SkipVictimRestore, 16),
            (FaultKind::SkipTransientInvalidate, 16),
            (FaultKind::DoubleUndo, 16),
            (FaultKind::DropSefeEntry, 16),
            (FaultKind::EarlyCoherenceDowngrade, 192),
        ];
        for (kind, window) in undo_faults {
            let r = run_campaign(&CampaignOpts {
                fault: Some(kind),
                ..opts(0, window, 2)
            });
            let caught = r
                .triage()
                .map(|v| probe_fault(kind, v.seed))
                .any(|p| p.fires > 0 && p.oracles().contains(&"episode"));
            assert!(
                caught,
                "{}: no seed in 0..{window} produced an episode-ledger finding",
                kind.name()
            );
        }
    }

    /// The replacement witness is a campaign oracle: a
    /// `deterministic-l1-replacement` campaign flags seeds by itself, not
    /// only through the matrix.
    #[test]
    fn deterministic_replacement_campaign_is_flagged_by_the_witness() {
        let r = run_campaign(&CampaignOpts {
            fault: Some(FaultKind::DeterministicL1Replacement),
            ..opts(0, 8, 2)
        });
        assert!(r.failures > 0, "{r:?}");
        assert!(r.violations.iter().all(|v| v.oracle == "witness"), "{r:?}");
    }

    /// The matrix at `--start 0`: each class's first detected seed and the
    /// oracles that flagged it.
    #[test]
    fn matrix_pins_first_seeds_and_oracle_marks() {
        let want: [(FaultKind, u64, &[&str]); 8] = [
            (FaultKind::SkipVictimRestore, 0x9, &["episode"]),
            (FaultKind::DropSefeEntry, 0x0, &["cache", "episode"]),
            (
                FaultKind::SkipTransientInvalidate,
                0x0,
                &["cache", "episode"],
            ),
            (FaultKind::EarlyCoherenceDowngrade, 0xac, &["episode"]),
            (FaultKind::StaleCeaserIndex, 0x0, &["cache"]),
            (FaultKind::DeterministicL1Replacement, 0x0, &["witness"]),
            (FaultKind::LeakMshrSlot, 0x0, &["arch", "watchdog"]),
            (FaultKind::DoubleUndo, 0x0, &["episode"]),
        ];
        assert_eq!(want.map(|w| w.0), FaultKind::ALL);
        for (kind, seed, oracles) in want {
            let p = matrix_row(kind, 0, seed + 1)
                .first
                .unwrap_or_else(|| panic!("{} not detected", kind.name()));
            assert_eq!(
                (p.seed, &p.oracles()[..]),
                (seed, oracles),
                "{}",
                kind.name()
            );
        }
    }

    fn opts(start: u64, count: u64, threads: usize) -> CampaignOpts {
        CampaignOpts {
            start,
            count,
            threads,
            ..CampaignOpts::default()
        }
    }

    /// A fresh per-process scratch directory.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cs-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Every file under `dir` as (relative path, bytes), sorted by path.
    fn read_tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut out = Vec::new();
        let mut todo = vec![dir.to_path_buf()];
        while let Some(d) = todo.pop() {
            for entry in std::fs::read_dir(&d).expect("readable artifact dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    todo.push(path);
                } else {
                    let bytes = std::fs::read(&path).expect("readable artifact");
                    out.push((path.strip_prefix(dir).unwrap().to_path_buf(), bytes));
                }
            }
        }
        out.sort();
        out
    }

    /// The clean differential campaign: the same result at every thread
    /// count, and a rerun over its journal replays every seed — the
    /// planted panic included, which is not re-triggered — into an
    /// identical result.
    #[test]
    fn campaign_is_thread_count_invariant_and_resumes_from_its_journal() {
        let panicking = |threads| CampaignOpts {
            panic_at: Some(101),
            ..opts(100, 6, threads)
        };
        let fresh = run_campaign(&panicking(1));
        assert_eq!(fresh.seeds, 6);
        assert_eq!((fresh.panics, fresh.failures, fresh.resumed), (1, 0, 0));
        assert!(fresh.squashes > 0, "campaign exercised no squashes");
        assert_eq!(run_campaign(&panicking(3)), fresh);

        let dir = scratch_dir("resume");
        let journaled = CampaignOpts {
            resume_dir: Some(dir.clone()),
            ..panicking(2)
        };
        assert_eq!(run_campaign(&journaled), fresh);
        // Rerun as after a crash: every verdict replays, none re-runs.
        let second = run_campaign(&journaled);
        assert_eq!(second.resumed, 6);
        assert_eq!(
            CampaignResult {
                resumed: 0,
                ..second
            },
            fresh
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Verdicts are keyed by what determines them, not by the campaign's
    /// range: a wider campaign over the same directory is served the
    /// seeds an earlier one ran and sums to the fresh result.
    #[test]
    fn a_wider_campaign_is_served_the_seeds_an_earlier_one_ran() {
        let dir = scratch_dir("widen");
        let journaled = |count| CampaignOpts {
            resume_dir: Some(dir.clone()),
            ..opts(0, count, 2)
        };
        assert_eq!(run_campaign(&journaled(8)).resumed, 0);
        let wide = run_campaign(&journaled(16));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(wide.resumed, 8);
        assert_eq!(
            CampaignResult { resumed: 0, ..wide },
            run_campaign(&opts(0, 16, 2))
        );
    }

    /// A verdict is only served to a seed run under the same fault, the
    /// same shrink setting and the same planted-panic placement.
    #[test]
    fn changing_a_verdict_knob_serves_nothing() {
        let dir = scratch_dir("knobs");
        let base = CampaignOpts {
            resume_dir: Some(dir.clone()),
            ..opts(0, 4, 2)
        };
        assert_eq!(run_campaign(&base).resumed, 0);
        for other in [
            CampaignOpts {
                fault: Some(FaultKind::SkipVictimRestore),
                ..base.clone()
            },
            CampaignOpts {
                shrink: true,
                ..base.clone()
            },
        ] {
            assert_eq!(run_campaign(&other).resumed, 0, "{other:?}");
        }
        // The planted panic moves the key of its own seed only.
        let planted = run_campaign(&CampaignOpts {
            panic_at: Some(2),
            ..base.clone()
        });
        assert_eq!((planted.resumed, planted.panics), (3, 1));
        let again = run_campaign(&base);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!((again.resumed, again.panics), (4, 0));
    }

    /// Older logs key a verdict by `seed-0x…` alone, or by the full seed
    /// key under the `seed-campaign/` prefix of verdicts judged without
    /// the watchdog and witness oracles; neither is served.
    #[test]
    fn an_older_journal_serves_nothing() {
        let dir = scratch_dir("older");
        let passed = fuzz::verdict_to_json(&SeedVerdict::Pass { squashes: 0 });
        let journal = Journal::in_dir(&dir);
        journal.record("seed-0x3", &passed);
        journal.record(
            "seed-campaign/0x3/fault=none/shrink=false/panic=false",
            &passed,
        );
        let r = run_campaign(&CampaignOpts {
            resume_dir: Some(dir.clone()),
            ..opts(3, 1, 1)
        });
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(r.resumed, 0);
    }

    #[test]
    fn planted_panic_is_isolated_and_leaves_artifacts() {
        let dir = scratch_dir("selftest");
        let sum = run_campaign(&CampaignOpts {
            artifact_dir: Some(dir.clone()),
            panic_at: Some(1),
            ..opts(0, 3, 2)
        });
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

    /// `events.log` dumps the run `repro.txt`'s `trace:` line names: the
    /// ring tail of the `smith:` target under the first violation's
    /// scheme, and under CleanupSpec for a crash.
    #[test]
    fn events_log_traces_the_first_violations_scheme() {
        let seed = 0x44b;
        let ring_tail = |mode: SecurityMode| {
            let ring = Shared::new(RingSink::new(RING_CAP));
            crate::target::Target::resolve(&format!("smith:{seed:#x}"), None, None, None)
                .unwrap()
                .run(mode, vec![Box::new(ring.clone())]);
            ring.with(|r| r.dump())
        };
        let dir = scratch_dir("events");
        let mut dumps = Vec::new();
        for (scheme, oracle, mode) in [
            ("naive-invalidate", "episode", SecurityMode::NaiveInvalidate),
            ("cleanupspec", "episode", SecurityMode::CleanupSpec),
            ("(crashed)", "panic", SecurityMode::CleanupSpec),
        ] {
            let violation = Violation {
                seed,
                scheme,
                oracle,
                detail: "planted".to_string(),
            };
            let sub = write_artifacts(&dir, seed, None, &[violation], false);
            let log = std::fs::read_to_string(sub.join("events.log")).expect("events.log");
            assert!(
                log.starts_with(&format!("; scheme: {}\n", mode.name())),
                "{log}"
            );
            assert!(log.ends_with(&ring_tail(mode)), "{scheme}");
            let _ = std::fs::remove_dir_all(&sub);
            dumps.push(log);
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert_ne!(dumps[0], dumps[1], "both schemes dumped the same run");
    }

    /// A fault campaign with a planted panic and shrunk artifacts gives
    /// the same result and the same artifact bytes at 1 and 4 threads.
    #[test]
    fn fault_campaign_and_its_artifacts_are_thread_count_invariant() {
        let run = |threads| {
            let dir = scratch_dir(&format!("threads{threads}"));
            let mut r = run_campaign(&CampaignOpts {
                fault: Some(FaultKind::SkipVictimRestore),
                artifact_dir: Some(dir.clone()),
                shrink: true,
                panic_at: Some(10),
                ..opts(8, 4, threads)
            });
            for a in &mut r.artifacts {
                *a = a.strip_prefix(&dir).unwrap().to_path_buf();
            }
            let files = read_tree(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            (r, files)
        };
        let (one, files) = run(1);
        assert_eq!((one.failures, one.panics), (1, 1), "{one:?}");
        assert_eq!(one.artifacts.len(), 2);
        assert!(files.len() >= 6, "artifact files: {}", files.len());
        assert_eq!(run(4), (one, files));
    }
}
