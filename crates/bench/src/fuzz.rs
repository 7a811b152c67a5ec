//! `cs-smith` — the differential fuzzing harness.
//!
//! Runs seeded random micro-ISA programs (generated by
//! [`cleanupspec_workloads::smith`]) under several security schemes and
//! judges them by the six oracle labels of [`ORACLES`] (`arch`, `cache`,
//! `episode`, `watchdog`, `witness`, `panic`). The first three check each
//! run against the in-order reference interpreter:
//!
//! 1. **Architectural equivalence.** Final register files, the shared
//!    data-memory image, and the per-core committed-PC streams must match
//!    the reference exactly under *every* scheme. Speculation schemes may
//!    change timing and cache state, never architecture.
//! 2. **Cache restoration.** Under schemes that defend the install channel
//!    (CleanupSpec, NaiveInvalidate, InvisiSpec), every line resident in a
//!    cache after the run must have been touched by the *architectural*
//!    execution — wrong-path-only lines surviving a squash are exactly the
//!    transmitter a cache side channel reads. The hierarchy's structural
//!    invariants (inclusion, coherence, SEFE bookkeeping) must hold, and a
//!    same-seed replay must reproduce the cache digests bit for bit.
//! 3. **Episode ledger.** The [`EpisodeBuilder`]'s undo-coverage ledger
//!    must balance for CleanupSpec: every transient fill invalidated (or
//!    dropped in flight) and every displaced victim restored, *per
//!    cleanup episode*. NaiveInvalidate must leave no surviving install
//!    (its eviction channel is a documented non-goal). A violation names
//!    the squash that leaked, not just the residue line.
//!
//! A run the forward-progress watchdog stopped is flagged under
//! `watchdog`. cs-chaos's dual-run replacement witness flags under
//! `witness`, and a crashed run caught by the campaign's isolation under
//! `panic`.
//!
//! A failing seed can be [`shrink`]-minimized: the shrinker greedily drops
//! plan ops, trims wrong-path bodies, reduces loop iterations, and sheds
//! the sharer core while the failure persists, then the minimal plan can
//! be exported as replayable `.s` files via `cleanupspec_asm`.
//!
//! The harness drives [`System`] directly (not [`cleanupspec::sim::Simulator`])
//! so that an [`ExecEnv`] can reshape the hierarchy and attach a fault
//! injector: cs-chaos plants undo bugs (the missing victim restore among
//! them) through that hook to prove the oracles have teeth. Seed
//! campaigns over many seeds run through [`crate::chaos::run_campaign`].

use cleanupspec::modes::SecurityMode;
use cleanupspec_core::isa::{Program, Reg, NUM_REGS};
use cleanupspec_core::pipeline::CoreConfig;
use cleanupspec_core::reference::{interpret, RefRun};
use cleanupspec_core::system::{RunLimits, StopReason, System};
use cleanupspec_core::DataMem;
use cleanupspec_mem::fault::FaultInjector;
use cleanupspec_mem::hierarchy::{MemConfig, MemHierarchy};
use cleanupspec_mem::rng::mix64;
use cleanupspec_mem::types::{Addr, CoreId, Cycle, LineAddr};
use cleanupspec_obs::{CommitLogSink, EpisodeBuilder, EpisodeReport, LeakKind, Observer, Shared};
use cleanupspec_workloads::smith::{assemble_plan, plan, SmithOp, SmithPlan};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The schemes every seed is run under. `NonSecure` anchors the
/// architectural baseline; the rest differ only in *how* they keep
/// speculation out of the caches, so all five must agree architecturally.
pub const FUZZ_MODES: [SecurityMode; 5] = [
    SecurityMode::NonSecure,
    SecurityMode::CleanupSpec,
    SecurityMode::InvisiSpecInitial,
    SecurityMode::InvisiSpecRevised,
    SecurityMode::NaiveInvalidate,
];

/// Reference-interpreter step budget; generated programs are tiny, so
/// blowing this means the generator (not the engine) is broken.
pub(crate) const REF_STEP_CAP: usize = 1_000_000;

/// Simulated-cycle budget per scheme run.
pub(crate) const CYCLE_CAP: Cycle = 2_000_000;

/// Cycles of memory-only draining after halt, so in-flight fills land
/// before the ledger judges (the classic insecure-mode leak *is*
/// the orphan fill that completes after the squash).
const DRAIN_CYCLES: Cycle = 4_000;

/// Every oracle label a [`Violation`] can carry: the three state oracles
/// (`"arch"`, `"cache"`, `"episode"`), the forward-progress `"watchdog"`
/// (the run stopped with [`StopReason::Livelock`]), cs-chaos's dual-run
/// replacement `"witness"`, and `"panic"` for a crashed run caught by the
/// campaign's isolation.
pub const ORACLES: [&str; 6] = ["arch", "cache", "episode", "watchdog", "witness", "panic"];

/// One oracle violation on one seed under one scheme.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Generating seed.
    pub seed: u64,
    /// Scheme label (the scheme's `name`, or `"(crashed)"` for a panic).
    pub scheme: &'static str,
    /// Which oracle tripped: one of [`ORACLES`].
    pub oracle: &'static str,
    /// Human-readable mismatch description.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed {:#x} [{}] {} oracle: {}",
            self.seed, self.scheme, self.oracle, self.detail
        )
    }
}

/// Outcome of fuzzing one seed.
#[derive(Clone, Debug)]
pub enum SeedVerdict {
    /// All oracles held under all schemes.
    Pass {
        /// Squashes observed across the scheme runs — a campaign whose
        /// total stays 0 never exercised the undo logic and proves nothing.
        squashes: u64,
    },
    /// All violations found (never empty).
    Fail(Vec<Violation>),
}

impl SeedVerdict {
    /// Whether the seed passed.
    pub fn passed(&self) -> bool {
        matches!(self, SeedVerdict::Pass { .. })
    }
}

impl Violation {
    /// Whether `other` is the same failure: the same scheme and oracle and,
    /// for the episode oracle, the same leak class (the [`LeakKind`] label
    /// that ends the detail). Seed, line and episode may differ.
    pub fn same_failure(&self, other: &Violation) -> bool {
        fn leak_class(detail: &str) -> Option<&str> {
            detail.rsplit_once(": ").map(|(_, k)| k)
        }
        self.scheme == other.scheme
            && self.oracle == other.oracle
            && (self.oracle != "episode" || leak_class(&self.detail) == leak_class(&other.detail))
    }
}

/// Whether `verdict` still shows the failure `first` (see
/// [`Violation::same_failure`]). A shrinker that keeps only such candidates
/// cannot drift from the failure it started from to another one.
pub fn reproduces(first: &Violation, verdict: &SeedVerdict) -> bool {
    match verdict {
        SeedVerdict::Pass { .. } => false,
        SeedVerdict::Fail(vs) => vs.iter().any(|v| first.same_failure(v)),
    }
}

/// The fuzzing memory geometry: a deliberately tiny L1 (one set of 2
/// ways — a smith program touches many more distinct lines than that) so
/// speculative installs routinely evict architectural victims and the
/// restore path runs constantly, plus a small L2 (128 sets). Each mode's
/// own requirements (random replacement, CEASER, window protection) are
/// applied on top.
pub fn fuzz_mem_config(num_cores: usize, seed: u64) -> MemConfig {
    MemConfig {
        num_cores,
        l1_capacity: 128,
        l1_ways: 2,
        l2_capacity: 128 * 1024,
        seed: mix64(seed ^ 0xF0_2217),
        ..MemConfig::default()
    }
}

/// Environment knobs for one scheme run beyond the mode itself: the
/// fault-injection handle (cs-chaos), the replacement-seed salt used by the
/// victim-randomness witness, and overrides for the chaos campaigns.
#[derive(Clone, Debug, Default)]
pub struct ExecEnv {
    /// Fault injector attached to the hierarchy and schemes. The caller
    /// keeps a clone to read fire counters back after the run.
    pub faults: FaultInjector,
    /// Salt XORed into the per-core L1 replacement seeds only (CEASER keys
    /// and indexing are unchanged), for dual-run victim-witness compares.
    pub repl_seed_salt: u64,
    /// Override for `MemConfig::mshrs_per_core` (chaos shrinks the MSHR
    /// file so `LeakMshrSlot` exhausts it quickly).
    pub mshrs_per_core: Option<usize>,
    /// `(capacity_bytes, ways)` override for the L1 geometry. The fuzz
    /// default is a 2-line L1 that evicts constantly; chaos probes that
    /// need remote M/E ownership to *persist* (`EarlyCoherenceDowngrade`)
    /// grow it so the sharer's dirty lines stay resident.
    pub l1_geometry: Option<(usize, usize)>,
    /// Forward-progress watchdog override (`None` = RunLimits default).
    pub watchdog: Option<Cycle>,
}

/// What one scheme run left behind, reduced to oracle inputs.
#[derive(Clone, Debug)]
pub struct ModeRun {
    /// Scheme label.
    pub scheme: &'static str,
    /// Whether every core halted.
    pub halted: bool,
    /// How the run stopped (livelock carries the watchdog dump).
    pub stop: StopReason,
    /// Per-core `(victim_digest, victims)` L1 replacement witnesses.
    pub l1_victim_witness: Vec<(u64, u64)>,
    /// Per-core final register files.
    pub regs: Vec<Vec<u64>>,
    /// Per-core committed-PC streams.
    pub pcs: Vec<Vec<u64>>,
    /// Digest of the architectural memory image.
    pub mem_digest: u64,
    /// Raw line addresses resident in each core's L1.
    pub l1_lines: Vec<Vec<u64>>,
    /// Raw line addresses resident in the L2.
    pub l2_lines: Vec<u64>,
    /// Per-core L1 content digests (tags + MESI + dirty + data).
    pub l1_digests: Vec<u64>,
    /// L2 content digest.
    pub l2_digest: u64,
    /// Structural invariant check result.
    pub invariants: Result<(), String>,
    /// The episode builder's verdict: reconstructed cleanup episodes and
    /// the undo-coverage ledger, pinning each residue to the squash whose
    /// cleanup should have covered it.
    pub episodes: EpisodeReport,
}

/// Runs `progs` under `mode` (one scheme per core) in the environment
/// `env` — fault injector, replacement-seed salt, MSHR and L1 overrides —
/// and collects oracle inputs, including the stop reason and victim
/// witnesses.
pub fn exec_env(progs: &[Arc<Program>], mode: SecurityMode, seed: u64, env: &ExecEnv) -> ModeRun {
    let (obs, commits, episodes) = oracle_sinks();
    let mut sys = smith_system(progs, mode, seed, env, obs);
    let stop = run_drained(&mut sys, env);
    extract_run(sys, stop, &commits, &episodes)
}

/// Cycle at which [`exec_env_checkpoint_resume`] pauses to clone the
/// system. Early enough that smith programs (hundreds to tens of
/// thousands of cycles) are usually mid-flight — with wrong-path loads,
/// SEFE entries, and pending cleanups live in the clone.
pub const RESUME_CHECKPOINT: Cycle = 1_024;

/// Runs like [`exec_env`] with the default [`ExecEnv`], but pauses at
/// [`RESUME_CHECKPOINT`], clones the entire system there, finishes the
/// original run, then resumes the clone to completion. Returns
/// `(original, resumed)`.
///
/// Bit-exact resume means the two agree on every state-derived field:
/// registers, cache contents, and memory digests. The clone gets fresh
/// event sinks (the original's would double-count), so its commit log
/// and episode report only cover the tail — compare state, not
/// `pcs`/`episodes`.
pub fn exec_env_checkpoint_resume(
    progs: &[Arc<Program>],
    mode: SecurityMode,
    seed: u64,
) -> (ModeRun, ModeRun) {
    let env = ExecEnv::default();
    let (obs, commits, episodes) = oracle_sinks();
    let mut sys = smith_system(progs, mode, seed, &env, obs);
    let mut leg = exec_limits(&env);
    leg.max_cycles = RESUME_CHECKPOINT.min(leg.max_cycles);
    sys.run(leg);
    let mut resumed_sys = sys.clone();

    let stop = run_drained(&mut sys, &env);
    let original = extract_run(sys, stop, &commits, &episodes);

    // The resumed replay starts where the checkpoint left off — not at
    // cycle 0 — so it only pays for the post-checkpoint tail.
    let (obs, fresh_commits, fresh_episodes) = oracle_sinks();
    resumed_sys.set_observer(obs);
    let stop = run_drained(&mut resumed_sys, &env);
    let resumed = extract_run(resumed_sys, stop, &fresh_commits, &fresh_episodes);
    (original, resumed)
}

/// Fresh commit-log and episode-builder sinks (the oracles' inputs) and
/// the observer feeding both.
fn oracle_sinks() -> (Observer, Shared<CommitLogSink>, Shared<EpisodeBuilder>) {
    let commits = Shared::new(CommitLogSink::new());
    let episodes = Shared::new(EpisodeBuilder::new());
    let obs = Observer::new(vec![Box::new(commits.clone()), Box::new(episodes.clone())]);
    (obs, commits, episodes)
}

/// The system cs-smith judges for `progs` under `mode`: the fuzzing
/// hierarchy with `env`'s overrides (replacement salt, MSHR count, L1
/// geometry, fault injector) applied, observed by `obs`. Every smith run
/// is built here and run by [`run_drained`]: [`exec_env`], cs-chaos's
/// event capture and the `smith:<seed>` target of cs-trace and cs-report.
pub fn smith_system(
    progs: &[Arc<Program>],
    mode: SecurityMode,
    seed: u64,
    env: &ExecEnv,
    obs: Observer,
) -> System {
    let mut cfg = mode.apply_mem_config(fuzz_mem_config(progs.len(), seed));
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
    let schemes: Vec<_> = progs.iter().map(|_| mode.build_scheme()).collect();
    let mut sys = System::new(mem, CoreConfig::default(), schemes, progs.to_vec());
    sys.set_observer(obs);
    sys
}

/// The standard fuzz run limits for `env`.
pub(crate) fn exec_limits(env: &ExecEnv) -> RunLimits {
    let mut limits = RunLimits {
        max_cycles: CYCLE_CAP,
        max_insts_per_core: u64::MAX,
        ..RunLimits::default()
    };
    if let Some(wd) = env.watchdog {
        limits.watchdog = Some(wd);
    }
    limits
}

/// Runs a [`smith_system`] (from wherever it stands) to the fuzz limits
/// for `env`, then drains in-flight memory traffic for `DRAIN_CYCLES`
/// (4 000 cycles) so the fills the ledger judges have landed.
pub fn run_drained(sys: &mut System, env: &ExecEnv) -> StopReason {
    let stop = sys.run(exec_limits(env));
    sys.advance_mem_only(DRAIN_CYCLES);
    stop
}

/// Distills the final (drained) system state into a [`ModeRun`].
fn extract_run(
    sys: System,
    stop: StopReason,
    commits: &Shared<CommitLogSink>,
    episodes: &Shared<EpisodeBuilder>,
) -> ModeRun {
    let n = sys.mem().config().num_cores;
    let scheme_name = sys.scheme(0).name();
    let regs = (0..n)
        .map(|i| {
            (0..NUM_REGS)
                .map(|r| sys.core(i).reg(Reg(r as u8)))
                .collect()
        })
        .collect();
    let pcs = commits.with(|c| (0..n).map(|i| c.pcs(i)).collect());
    let mem_sys = sys.mem();
    let dmem = sys.dmem();
    let line_data = |l: LineAddr| dmem.read(Addr::new(l.raw() << 6));
    ModeRun {
        scheme: scheme_name,
        halted: sys.all_halted(),
        stop,
        l1_victim_witness: (0..n)
            .map(|i| mem_sys.l1_victim_witness(CoreId(i)))
            .collect(),
        regs,
        pcs,
        mem_digest: dmem.image_digest(),
        l1_lines: (0..n)
            .map(|i| {
                mem_sys
                    .l1_snapshot(CoreId(i))
                    .iter()
                    .map(|(l, _, _)| l.raw())
                    .collect()
            })
            .collect(),
        l2_lines: mem_sys
            .l2_snapshot()
            .iter()
            .map(|(l, _, _)| l.raw())
            .collect(),
        l1_digests: (0..n)
            .map(|i| mem_sys.l1_digest(CoreId(i), line_data))
            .collect(),
        l2_digest: mem_sys.l2_digest(line_data),
        invariants: mem_sys.check_invariants(),
        episodes: episodes.with(|e| e.report()),
    }
}

/// What every judged seed starts from, clean ([`run_plan`]) or faulted
/// ([`crate::chaos::probe_plan`]): the plan's programs, their reference
/// runs and the digest of the [`merged_image`]. A reference that does
/// not halt is a generator bug with nothing to judge against, so it
/// panics (a campaign records the seed as crashed).
pub(crate) fn reference(p: &SmithPlan) -> (Vec<Arc<Program>>, Vec<RefRun>, u64) {
    let progs: Vec<Arc<Program>> = assemble_plan(p).into_iter().map(Arc::new).collect();
    let refs: Vec<RefRun> = progs.iter().map(|p| interpret(p, REF_STEP_CAP)).collect();
    assert!(
        refs.iter().all(|r| r.halted),
        "smith seed {:#x} generated a non-terminating program",
        p.seed
    );
    let ref_mem_digest = merged_image(&refs).image_digest();
    (progs, refs, ref_mem_digest)
}

/// Merges per-core reference memory images. The smith keeps architectural
/// write sets disjoint across cores, so the merge is conflict-free and
/// must equal the simulator's shared data memory exactly.
fn merged_image(refs: &[RefRun]) -> DataMem {
    let mut m = DataMem::new();
    for r in refs {
        for (w, v) in r.mem.words() {
            m.write(Addr::new(w << 3), v);
        }
    }
    m
}

/// Applies the oracles to one scheme run.
pub(crate) fn judge(
    seed: u64,
    mode: SecurityMode,
    refs: &[RefRun],
    ref_mem_digest: u64,
    run: &ModeRun,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut fail = |oracle: &'static str, detail: String| {
        debug_assert!(ORACLES.contains(&oracle), "unlisted oracle {oracle}");
        out.push(Violation {
            seed,
            scheme: run.scheme,
            oracle,
            detail,
        });
    };

    if matches!(run.stop, StopReason::Livelock(_)) {
        fail("watchdog", run.stop.to_string());
    }
    // Oracle 1: architectural equivalence with the reference interpreter.
    if !run.halted {
        fail(
            "arch",
            format!(
                "did not halt within {CYCLE_CAP} cycles (reference halts); stop: {}",
                run.stop
            ),
        );
        return out; // Everything downstream would be noise.
    }
    for (i, r) in refs.iter().enumerate() {
        if run.regs[i] != r.regs {
            let diff: Vec<String> = (0..NUM_REGS)
                .filter(|&k| run.regs[i][k] != r.regs[k])
                .map(|k| format!("r{k}: sim={:#x} ref={:#x}", run.regs[i][k], r.regs[k]))
                .collect();
            fail(
                "arch",
                format!("core {i} register file: {}", diff.join(", ")),
            );
        }
        let ref_pcs: Vec<u64> = r.commits.iter().map(|c| c.pc as u64).collect();
        if run.pcs[i] != ref_pcs {
            let at = run.pcs[i]
                .iter()
                .zip(&ref_pcs)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| run.pcs[i].len().min(ref_pcs.len()));
            fail(
                "arch",
                format!(
                    "core {i} commit stream diverges at index {at} (sim {} commits, ref {})",
                    run.pcs[i].len(),
                    ref_pcs.len()
                ),
            );
        }
    }
    if run.mem_digest != ref_mem_digest {
        fail(
            "arch",
            format!(
                "memory image digest {:#x} != reference {:#x}",
                run.mem_digest, ref_mem_digest
            ),
        );
    }

    // Oracle 2: cache restoration / residue membership.
    if let Err(e) = &run.invariants {
        fail("cache", format!("hierarchy invariant violated: {e}"));
    }
    if mode.defends_install_channel() {
        // Per-core L1 check: a core's L1 can only hold lines that core
        // architecturally touched (its own loads, stores, and restored
        // victims). The shared L2 may hold any core's architectural lines.
        for (i, r) in refs.iter().enumerate() {
            for &l in &run.l1_lines[i] {
                if !r.touched_lines.contains(&l) {
                    fail(
                        "cache",
                        format!("core {i} L1 holds line {l:#x} never architecturally touched"),
                    );
                }
            }
        }
        let union: BTreeSet<u64> = refs
            .iter()
            .flat_map(|r| r.touched_lines.iter().copied())
            .collect();
        for &l in &run.l2_lines {
            if !union.contains(&l) {
                fail(
                    "cache",
                    format!("L2 holds line {l:#x} never architecturally touched"),
                );
            }
        }
    }

    // Oracle 3: the episode-granular undo-coverage ledger. Each finding
    // is pinned to the cleanup episode that should have covered it, so a
    // detection names the squash, not just the line.
    let leaks = &run.episodes.leaks;
    let detail = match mode {
        SecurityMode::CleanupSpec => leaks
            .first()
            .map(|l| format!("{} ledger imbalance(s); first: {l}", leaks.len())),
        // Its eviction channel is a documented leak (MissingRestore is
        // expected); surviving *installs* are not.
        SecurityMode::NaiveInvalidate => leaks
            .iter()
            .find(|l| {
                matches!(
                    l.kind,
                    LeakKind::TransientInstallL1
                        | LeakKind::TransientInstallL2
                        | LeakKind::OrphanInstall
                )
            })
            .map(|l| format!("surviving install: {l}")),
        _ => None,
    };
    if let Some(d) = detail {
        fail("episode", d);
    }
    out
}

/// Fuzzes one plan: reference run, all [`FUZZ_MODES`] judged by the
/// `arch`/`cache`/`episode`/`watchdog` oracles of `judge`, and a
/// CleanupSpec replay resumed from a mid-run clone as a determinism guard.
pub fn run_plan(p: &SmithPlan) -> SeedVerdict {
    let (progs, refs, ref_mem_digest) = reference(p);

    let mut violations = Vec::new();
    let mut squashes = 0;
    for mode in FUZZ_MODES {
        if mode == SecurityMode::CleanupSpec {
            // Determinism + resume-exactness guard: the CleanupSpec run is
            // cloned mid-flight and the replay resumes from that clone
            // instead of cycle 0. An undo scheme whose cleanup depends on
            // anything but the recorded side effects — or any state the
            // clone fails to copy — diverges here.
            let (run, resumed) = exec_env_checkpoint_resume(&progs, mode, p.seed);
            squashes += run.episodes.squashes;
            violations.extend(judge(p.seed, mode, &refs, ref_mem_digest, &run));
            if resumed.regs != run.regs
                || resumed.l1_digests != run.l1_digests
                || resumed.l2_digest != run.l2_digest
                || resumed.mem_digest != run.mem_digest
            {
                violations.push(Violation {
                    seed: p.seed,
                    scheme: run.scheme,
                    oracle: "cache",
                    detail: format!(
                        "resume from cycle-{RESUME_CHECKPOINT} checkpoint diverged from \
                         the uninterrupted run (cache/memory/register state)"
                    ),
                });
            }
        } else {
            let run = exec_env(&progs, mode, p.seed, &ExecEnv::default());
            squashes += run.episodes.squashes;
            violations.extend(judge(p.seed, mode, &refs, ref_mem_digest, &run));
        }
    }

    if violations.is_empty() {
        SeedVerdict::Pass { squashes }
    } else {
        SeedVerdict::Fail(violations)
    }
}

/// Fuzzes one seed (generate plan, then [`run_plan`]).
pub fn run_seed(seed: u64) -> SeedVerdict {
    run_plan(&plan(seed))
}

/// Greedily minimizes a failing plan while `fails` keeps returning true.
///
/// Passes, repeated to a fixed point: drop whole ops, trim wrong-path
/// bodies, shed the sharer core, and reduce loop iterations. Each
/// candidate is re-validated through `fails`, so the result is the
/// smallest plan (under this move set) that still reproduces the failure.
pub fn shrink(p: &SmithPlan, mut fails: impl FnMut(&SmithPlan) -> bool) -> SmithPlan {
    debug_assert!(fails(p), "shrink called on a passing plan");
    let mut cur = p.clone();
    loop {
        let mut progressed = false;

        // Drop whole ops (keep at least one so the program stays a loop).
        let mut i = 0;
        while cur.ops.len() > 1 && i < cur.ops.len() {
            let mut cand = cur.clone();
            cand.ops.remove(i);
            if fails(&cand) {
                cur = cand;
                progressed = true;
            } else {
                i += 1;
            }
        }

        // Trim wrong-path bodies op by op (an empty body keeps the
        // mispredicted branch but sheds its transient work).
        for i in 0..cur.ops.len() {
            let body_len = match &cur.ops[i] {
                SmithOp::WrongPath { body, .. } => body.len(),
                _ => continue,
            };
            for j in (0..body_len).rev() {
                let mut cand = cur.clone();
                if let SmithOp::WrongPath { body, .. } = &mut cand.ops[i] {
                    body.remove(j);
                }
                if fails(&cand) {
                    cur = cand;
                    progressed = true;
                }
            }
        }

        // Shed the sharer core.
        if cur.cores == 2 {
            let mut cand = cur.clone();
            cand.cores = 1;
            if fails(&cand) {
                cur = cand;
                progressed = true;
            }
        }

        // Reduce loop iterations.
        while cur.iters > 1 {
            let mut cand = cur.clone();
            cand.iters -= 1;
            if fails(&cand) {
                cur = cand;
                progressed = true;
            } else {
                break;
            }
        }

        if !progressed {
            return cur;
        }
    }
}

/// Serializes a verdict as the single-line JSON payload journaled per
/// seed (see [`crate::journal`]). Verdicts are deterministic facts about
/// a seed, so failures and panics are journaled too — a resumed campaign
/// reproduces the identical summary without re-running them.
pub fn verdict_to_json(v: &SeedVerdict) -> String {
    let mut w = cleanupspec_obs::JsonWriter::new();
    match v {
        SeedVerdict::Pass { squashes } => {
            w.open_object(None)
                .int("pass", 1)
                .int("squashes", *squashes)
                .close_object();
        }
        SeedVerdict::Fail(violations) => {
            w.open_object(None).int("pass", 0).open_array("violations");
            for viol in violations {
                w.open_object(None)
                    // Decimal-in-string: the JSON number parser is exact
                    // only to 2^53, seeds use the full u64 range.
                    .string("seed", &viol.seed.to_string())
                    .string("scheme", viol.scheme)
                    .string("oracle", viol.oracle)
                    .string("detail", &viol.detail)
                    .close_object();
            }
            w.close_array().close_object();
        }
    }
    w.finish()
}

/// Interns a journaled scheme label back to the `&'static str` the live
/// harness would have produced.
fn intern_scheme(name: &str) -> &'static str {
    for mode in SecurityMode::ALL {
        let s = mode.build_scheme().name();
        if s == name {
            return s;
        }
    }
    if name == "(crashed)" {
        return "(crashed)";
    }
    "(unknown-scheme)"
}

fn intern_oracle(name: &str) -> &'static str {
    ORACLES
        .into_iter()
        .find(|&s| s == name)
        .unwrap_or("(unknown-oracle)")
}

/// Parses a verdict journaled by [`verdict_to_json`].
pub fn verdict_from_json(text: &str) -> Result<SeedVerdict, String> {
    use cleanupspec_obs::JsonValue;
    let v = JsonValue::parse(text)?;
    let pass = v
        .get("pass")
        .and_then(JsonValue::as_u64)
        .ok_or("verdict missing \"pass\"")?;
    if pass == 1 {
        let squashes = v
            .get("squashes")
            .and_then(JsonValue::as_u64)
            .ok_or("pass verdict missing \"squashes\"")?;
        return Ok(SeedVerdict::Pass { squashes });
    }
    let arr = v
        .get("violations")
        .and_then(JsonValue::as_arr)
        .ok_or("fail verdict missing \"violations\"")?;
    let mut violations = Vec::with_capacity(arr.len());
    for item in arr {
        let field = |k: &str| {
            item.get(k)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("violation missing {k:?}"))
        };
        violations.push(Violation {
            seed: field("seed")?
                .parse::<u64>()
                .map_err(|e| format!("bad violation seed: {e}"))?,
            scheme: intern_scheme(field("scheme")?),
            oracle: intern_oracle(field("oracle")?),
            detail: field("detail")?.to_string(),
        });
    }
    if violations.is_empty() {
        return Err("fail verdict with zero violations".to_string());
    }
    Ok(SeedVerdict::Fail(violations))
}

/// Best-effort extraction of a panic payload's message (shared with the
/// `cs-exec` pool's per-task isolation).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    crate::exec::panic_message(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_keeps_scheme_oracle_and_leak_class() {
        let episode = |scheme, detail: &str| Violation {
            seed: 0x119d,
            scheme,
            oracle: "episode",
            detail: detail.to_string(),
        };
        let first = episode(
            "cleanupspec",
            "1 ledger imbalance(s); first: core0 episode16 line=0x1415: transient-install-l1",
        );
        let fail = |v: Violation| SeedVerdict::Fail(vec![v]);
        // Another episode and line, same class: still the same failure.
        let same = episode(
            "cleanupspec",
            "2 ledger imbalance(s); first: core0 episode3 line=0x20: transient-install-l1",
        );
        assert!(reproduces(&first, &fail(same.clone())));
        let other_scheme = episode(
            "naive-invalidate",
            "surviving install: core0 episode16 line=0x1415: transient-install-l1",
        );
        assert!(!reproduces(&first, &fail(other_scheme.clone())));
        let other_class = episode(
            "cleanupspec",
            "1 ledger imbalance(s); first: core0 episode16 line=0x1415: double-undo",
        );
        assert!(!reproduces(&first, &fail(other_class)));
        let other_oracle = Violation {
            oracle: "cache",
            ..same.clone()
        };
        assert!(!reproduces(&first, &fail(other_oracle)));
        assert!(!reproduces(&first, &SeedVerdict::Pass { squashes: 3 }));
        // Any matching violation among several is enough.
        assert!(reproduces(
            &first,
            &SeedVerdict::Fail(vec![other_scheme, same])
        ));
        // Outside the episode oracle the detail does not matter.
        let cache = |detail: &str| Violation {
            oracle: "cache",
            detail: detail.to_string(),
            ..first.clone()
        };
        assert!(reproduces(
            &cache("L2 holds line 0x1 never architecturally touched"),
            &fail(cache(
                "core 0 L1 holds line 0x2 never architecturally touched"
            ))
        ));
    }

    #[test]
    fn a_handful_of_seeds_pass_all_oracles() {
        let mut squashes = 0;
        for seed in 0..8 {
            match run_seed(seed) {
                SeedVerdict::Pass { squashes: s } => squashes += s,
                SeedVerdict::Fail(v) => {
                    panic!("seed {seed} failed: {}", v[0]);
                }
            }
        }
        assert!(squashes > 0, "no squashes in 8 seeds — generator too tame");
    }

    #[test]
    fn verdict_json_round_trips_including_full_range_seeds() {
        let pass = SeedVerdict::Pass { squashes: 17 };
        match verdict_from_json(&verdict_to_json(&pass)).unwrap() {
            SeedVerdict::Pass { squashes } => assert_eq!(squashes, 17),
            SeedVerdict::Fail(_) => panic!("pass verdict came back as fail"),
        }
        // Seed above 2^53: exact only because it travels as a string. One
        // violation per oracle label, so a resumed campaign's triage names
        // the same oracle as the uninterrupted run's.
        let fail = SeedVerdict::Fail(
            ORACLES
                .iter()
                .map(|&oracle| Violation {
                    seed: u64::MAX - 1,
                    scheme: "(crashed)",
                    oracle,
                    detail: "boom \"quoted\"".to_string(),
                })
                .collect(),
        );
        match verdict_from_json(&verdict_to_json(&fail)).unwrap() {
            SeedVerdict::Fail(v) => {
                assert_eq!(v.len(), ORACLES.len());
                for (got, want) in v.iter().zip(ORACLES) {
                    assert_eq!(got.seed, u64::MAX - 1);
                    assert_eq!(got.scheme, "(crashed)");
                    assert_eq!(got.oracle, want);
                    assert_eq!(got.detail, "boom \"quoted\"");
                }
            }
            SeedVerdict::Pass { .. } => panic!("fail verdict came back as pass"),
        }
        assert!(verdict_from_json("{\"pass\": 0}").is_err());
    }
}
