//! The out-of-order core pipeline.
//!
//! A cycle-stepped model of the Table-4 core: fetch (with tournament
//! branch prediction), dispatch into a 192-entry ROB with 32-entry load and
//! store queues, dataflow issue, execution, in-order commit — and, crucially
//! for this paper, **real wrong-path execution**: after a mispredicted
//! branch the front end keeps fetching and executing down the predicted
//! path, wrong-path loads access (and pollute) the cache hierarchy, and the
//! squash machinery hands the resulting side effects to the active
//! [`SpeculationScheme`] to retain (non-secure), drop (InvisiSpec), or undo
//! (CleanupSpec).

use crate::bpred::TournamentPredictor;
use crate::datamem::DataMem;
use crate::isa::{Inst, Pc, Program, Reg, LINK_REG, NUM_REGS};
use crate::scheme::{
    CommitAction, CommittedLoad, LoadIssue, LoadIssuePolicy, SpeculationScheme, SquashInfo,
    SquashedLoad, SquashedLoadState,
};
use crate::stats::{CoreStats, SquashedClass, StallCause};
use cleanupspec_mem::hierarchy::{MemHierarchy, MissProvenance};
use cleanupspec_mem::mshr::{LoadPath, MshrToken, SefeRecord};
use cleanupspec_mem::stats::MsgClass;
use cleanupspec_mem::types::{Addr, CoreId, Cycle, LineAddr, LoadId};
use cleanupspec_obs::{Observer, PathKind, SimEvent};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Core configuration (defaults follow Table 4).
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Reorder-buffer entries (192).
    pub rob_entries: usize,
    /// Load-queue entries (32).
    pub lq_entries: usize,
    /// Store-queue entries (32).
    pub sq_entries: usize,
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions issued per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Front-end refill penalty after a redirect, in cycles.
    pub redirect_penalty: Cycle,
    /// Branch execute latency.
    pub branch_latency: Cycle,
    /// Branch predictor configuration.
    pub bpred: crate::bpred::BpredConfig,
    /// Interval of speculation-window SEFE extension messages (200 cycles,
    /// Section 3.6).
    pub window_extend_interval: Cycle,
    /// Cycles between a faulting load becoming ready to retire and the
    /// deferred permission check actually raising the exception — the race
    /// window Meltdown-class attacks exploit.
    pub fault_check_latency: Cycle,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            rob_entries: 192,
            lq_entries: 32,
            sq_entries: 32,
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            redirect_penalty: 3,
            branch_latency: 1,
            bpred: crate::bpred::BpredConfig::default(),
            window_extend_interval: 200,
            fault_check_latency: 20,
        }
    }
}

/// A source operand captured at dispatch.
#[derive(Clone, Copy, Debug)]
enum Src {
    /// Value known at dispatch (architectural or immediate).
    Ready(u64),
    /// Produced by the in-flight instruction with this sequence number.
    Wait(u64),
}

/// Execution status of a ROB entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Waiting,
    Issued { done_at: Cycle },
    Done,
}

#[derive(Clone, Debug)]
struct RobEntry {
    seq: u64,
    pc: Pc,
    inst: Inst,
    status: Status,
    srcs: [Option<Src>; 2],
    result: Option<u64>,
    dst: Option<Reg>,
    // Control-flow bookkeeping.
    pred_taken: bool,
    pred_target: Pc,
    actual_taken: bool,
    actual_target: Pc,
    mispredict_pending: bool,
    lq: Option<usize>,
    sq: Option<usize>,
    commit_ready_at: Option<Cycle>,
    committed_scheme_done: bool,
    /// The load touches a protected range: faults when it reaches commit
    /// (Meltdown-style deferred permission check).
    faulting: bool,
    /// The in-flight producer this waiting entry sleeps on (an operand it
    /// lacks); it rejoins the waiting list when that producer is done.
    parked_on: Option<u64>,
}

/// Load-queue entry state.
#[derive(Clone, Copy, Debug)]
enum LqState {
    NotIssued,
    /// GetS-Safe refusal: waiting to become unsquashable (Section 3.5).
    Deferred {
        line: LineAddr,
    },
    Inflight {
        line: LineAddr,
        token: Option<MshrToken>,
        path: LoadPath,
        issued_spec: bool,
        /// Scheme-overhead attribution of the miss (cycle accounting).
        prov: Option<MissProvenance>,
    },
    Done {
        line: Option<LineAddr>,
        path: Option<LoadPath>,
        sefe: SefeRecord,
        load_id: Option<LoadId>,
        issued_spec: bool,
        completed_at: Cycle,
        /// Completion cycle of the visibility-point update load, if the
        /// scheme started one ([`SpeculationScheme::on_load_visible`]).
        exposed_until: Option<Cycle>,
        /// Whether the visibility hook already ran for this load.
        visible_done: bool,
    },
}

#[derive(Clone, Copy, Debug)]
struct LqEntry {
    seq: u64,
    state: LqState,
}

#[derive(Clone, Copy, Debug)]
struct SqEntry {
    seq: u64,
    addr: Option<Addr>,
    value: Option<u64>,
}

/// Squash-handling phase.
#[derive(Clone, Debug)]
enum SquashPhase {
    /// Normal operation.
    Running,
    /// Waiting for older correct-path inflight loads to complete before
    /// invoking the scheme's cleanup (Section 3.4 / Figure 14).
    WaitInflight {
        mispredict_at: Cycle,
        loads: Vec<SquashedLoad>,
        /// Cleanup episode id opened by the first squash of this phase.
        /// Squashes merging in while waiting share it: they widen one
        /// cleanup invocation, which is what an episode is.
        episode: u64,
        /// Sequence number of the squash that opened the episode (the
        /// "triggering squash" stamped on cleanup events).
        seq: u64,
    },
}

/// Sequence numbers of the ROB entries in one scheduling state, oldest
/// first.
///
/// Entries join at dispatch, so pushes arrive in ascending order. They
/// leave on the state change the list tracks, or when a squash truncates
/// the young end.
#[derive(Clone, Debug, Default)]
struct SeqList(VecDeque<u64>);

impl SeqList {
    fn push(&mut self, seq: u64) {
        debug_assert!(self.0.back().is_none_or(|&b| b < seq));
        self.0.push_back(seq);
    }

    fn remove(&mut self, seq: u64) {
        let found = self.0.binary_search(&seq);
        debug_assert!(found.is_ok(), "seq {seq} not in {:?}", self.0);
        if let Ok(k) = found {
            self.0.remove(k);
        }
    }

    /// Whether the list holds an entry older than `seq`.
    fn has_older(&self, seq: u64) -> bool {
        self.0.front().is_some_and(|&f| f < seq)
    }

    /// Drops every entry younger than `seq` (a squash).
    fn truncate_after(&mut self, seq: u64) {
        while self.0.back().is_some_and(|&b| b > seq) {
            self.0.pop_back();
        }
    }
}

/// A set of the positions `0..size`, one bit each.
///
/// Positions may also be read as a ring: [`Self::next_circular`] scans
/// from any position onwards and wraps from `size - 1` to 0.
#[derive(Clone, Debug, PartialEq, Eq)]
struct BitSet {
    words: Vec<u64>,
    size: usize,
}

impl BitSet {
    /// The empty set.
    fn new(size: usize) -> Self {
        BitSet {
            words: vec![0; size.div_ceil(64)],
            size,
        }
    }

    /// The set of every position.
    fn full(size: usize) -> Self {
        let mut s = BitSet::new(size);
        for pos in 0..size {
            s.insert(pos);
        }
        s
    }

    fn insert(&mut self, pos: usize) {
        debug_assert!(pos < self.size);
        self.words[pos / 64] |= 1 << (pos % 64);
    }

    fn remove(&mut self, pos: usize) {
        self.words[pos / 64] &= !(1 << (pos % 64));
    }

    /// Number of members.
    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The lowest member.
    fn first(&self) -> Option<usize> {
        let k = self.words.iter().position(|&w| w != 0)?;
        Some(k * 64 + self.words[k].trailing_zeros() as usize)
    }

    /// The least `d < n` for which position `(from + d) % size` is a
    /// member: the first member met walking the ring from `from` for `n`
    /// positions (`n <= size`).
    fn next_circular(&self, from: usize, n: usize) -> Option<usize> {
        debug_assert!(from < self.size && n <= self.size);
        let (mut pos, mut d) = (from, 0);
        while d < n {
            let bits = self.words[pos / 64] >> (pos % 64);
            if bits != 0 {
                // No member lies at or past `size`, so `bits` does not
                // run past the wrap.
                let hit = d + bits.trailing_zeros() as usize;
                return (hit < n).then_some(hit);
            }
            let step = (64 - pos % 64).min(self.size - pos);
            d += step;
            pos = if pos + step == self.size {
                0
            } else {
                pos + step
            };
        }
        None
    }
}

/// Per-core scheduling worklists, so each stage touches only the entries
/// an event concerns instead of walking the whole ROB every cycle. They
/// are maintained at dispatch, issue, complete, and squash (commit needs
/// nothing: a committing entry is in no list); debug builds recompute them
/// from the ROB/LQ/SQ after every tick (`Pipeline::check_worklists`).
#[derive(Clone, Debug)]
struct Worklists {
    /// `(done_at, seq)` of every issued entry, earliest first. Items of
    /// squashed seqs stay behind and are skipped when drained: the ROB
    /// slot is re-checked, so a reused seq is completed exactly once, at
    /// its own `done_at`.
    completions: BinaryHeap<Reverse<(Cycle, u64)>>,
    /// Seqs of the entries issued last tick with `done_at == lane_at`,
    /// the next cycle (one-cycle ALU ops, one-cycle L1 hits and branches,
    /// stores, jumps, nops): most completions, kept out of the heap.
    /// `issue` walks oldest-first, so the lane is in seq order; `complete`
    /// drains it in the tick it falls due, before the next `issue` refills
    /// it.
    lane: Vec<u64>,
    /// The cycle every seq in `lane` is due.
    lane_at: Cycle,
    /// Seqs drained from `completions` and `lane` this tick (reused
    /// scratch buffer).
    due: Vec<u64>,
    /// `Waiting` entries the issue stage examines: all but the parked
    /// ones, which wait for an operand that is not yet computed. A bit
    /// per ring position (`ring_pos`); the issue stage reads it in seq
    /// order from the ROB head.
    waiting: BitSet,
    /// Parked consumers of each producer (parked at dispatch, or when the
    /// issue stage finds an operand missing), indexed by the producer's
    /// ring position. A list is drained when its producer completes and
    /// dropped when it is squashed; consumer seqs squashed meanwhile are
    /// skipped by `parked_on`.
    wakeups: Vec<Vec<u64>>,
    /// `(LQ slot, load seq)` of every slot that may hold a completed load
    /// whose visibility hook has not run yet, ascending by slot. A pair is
    /// added (or its seq updated) when a load completes and dropped once
    /// the hook ran or the slot no longer holds such a load.
    visibility_pending: Vec<(usize, u64)>,
    /// Entries that can still squash everything younger: control not yet
    /// done, and loads not yet issued or faulting.
    squash_sources: SeqList,
    /// Fences not yet done.
    fences: SeqList,
    /// Stores whose address is still unknown.
    addrless_stores: SeqList,
    /// Oldest branch `complete` resolved as mispredicted this tick;
    /// `process_squash` consumes it in the same tick.
    mispredict: Option<u64>,
}

impl Worklists {
    fn new(rob_entries: usize) -> Self {
        Worklists {
            completions: BinaryHeap::new(),
            lane: Vec::new(),
            lane_at: 0,
            due: Vec::new(),
            waiting: BitSet::new(rob_entries.next_power_of_two()),
            wakeups: vec![Vec::new(); rob_entries.next_power_of_two()],
            visibility_pending: Vec::new(),
            squash_sources: SeqList::default(),
            fences: SeqList::default(),
            addrless_stores: SeqList::default(),
            mispredict: None,
        }
    }

    /// The ring position of `seq`: the seq modulo the ROB size rounded up
    /// to a power of two, unique among live entries.
    fn ring_pos(&self, seq: u64) -> usize {
        (seq & (self.wakeups.len() as u64 - 1)) as usize
    }

    fn wakeup_slot(&mut self, producer: u64) -> &mut Vec<u64> {
        let pos = self.ring_pos(producer);
        &mut self.wakeups[pos]
    }

    fn truncate_after(&mut self, seq: u64) {
        self.squash_sources.truncate_after(seq);
        self.fences.truncate_after(seq);
        self.addrless_stores.truncate_after(seq);
    }
}

/// Whether `e` can still squash everything younger than itself: an
/// unresolved control instruction, or a load that has not yet passed its
/// (deferred) permission check — the "all transient instructions are
/// unsafe until they cannot be squashed" threat model of the paper, which
/// covers both Spectre- and Meltdown-class events.
fn is_squash_source(e: &RobEntry) -> bool {
    (e.inst.is_control() && e.status != Status::Done)
        || (e.inst.is_load() && (e.status == Status::Waiting || e.faulting))
}

/// What one [`Pipeline::tick`] did, stage by stage: whether each stage
/// changed any state, plus the per-cycle charges the tick made.
///
/// A *quiet* tick changed nothing. Its only effects were charging
/// `cause` to the CPI stack and, when `fetch_stalled`, one
/// `fetch_stall_cycles`; every later tick repeats it exactly until
/// [`Pipeline::quiet_until`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TickActivity {
    /// A completion was popped, or a held LQ slot expired.
    pub complete: bool,
    /// A squash or a cleanup ran.
    pub squash: bool,
    /// A visibility hook ran, or a slot left the pending list.
    pub visibility: bool,
    /// Commit got past the head's `commit_ready_at` gate.
    pub commit: bool,
    /// An issue slot was charged or an entry was parked.
    pub issue: bool,
    /// An instruction was dispatched.
    pub fetch: bool,
    /// Instructions committed.
    pub committed: u64,
    /// Fetch was stalled (the tick charged `fetch_stall_cycles`).
    pub fetch_stalled: bool,
    /// The CPI-stack cause the tick charged.
    pub cause: StallCause,
}

impl Default for TickActivity {
    fn default() -> Self {
        TickActivity {
            complete: false,
            squash: false,
            visibility: false,
            commit: false,
            issue: false,
            fetch: false,
            committed: 0,
            fetch_stalled: false,
            cause: StallCause::Exec,
        }
    }
}

impl TickActivity {
    /// Whether no stage changed any state.
    pub fn is_quiet(&self) -> bool {
        !(self.complete
            || self.squash
            || self.visibility
            || self.commit
            || self.issue
            || self.fetch)
    }
}

/// One simulated out-of-order core.
///
/// `Clone` deep-copies the full microarchitectural state — ROB, LQ/SQ,
/// registers, predictor tables, in-flight squash phase — forming the
/// per-core half of a cs-snap snapshot. The `Program` stays `Arc`-shared
/// (immutable) and the observer handle is shared with the clone.
#[derive(Clone, Debug)]
pub struct Pipeline {
    core: CoreId,
    cfg: CoreConfig,
    program: Arc<Program>,
    pred: TournamentPredictor,
    regs: [u64; NUM_REGS],
    last_writer: [Option<u64>; NUM_REGS],
    rob: VecDeque<RobEntry>,
    lq: Vec<Option<LqEntry>>,
    sq: Vec<Option<SqEntry>>,
    lq_held: Vec<Cycle>,
    /// The free slots of `lq` and `sq` (a held LQ slot counts as free).
    lq_free: BitSet,
    sq_free: BitSet,
    next_seq: u64,
    fetch_pc: Pc,
    fetch_halted: bool,
    halted: bool,
    fetch_stall_until: Cycle,
    /// End of the scheme's post-squash cleanup stall (the slice of
    /// `fetch_stall_until` owed to cleanup rather than the plain redirect
    /// penalty) — cycle accounting charges it to `CleanupInProgress`.
    cleanup_stall_until: Cycle,
    /// A load failed to issue this cycle because the MSHR/SEFE file was
    /// full (reset at the top of every tick; cycle accounting reads it).
    mshr_blocked: bool,
    squash: SquashPhase,
    /// Cleanup episodes opened so far (monotonic; the id of the episode
    /// currently open or most recently closed). Incremented only when a
    /// squash arrives while `Running` — merged squashes share an id.
    episodes: u64,
    /// A fatal (unhandled) fault was raised: halt once its cleanup is done.
    halt_after_squash: bool,
    load_id_ctr: u64,
    sched: Worklists,
    /// What the last tick did (the system runner's quiet-cycle jump).
    last_tick: TickActivity,
    stats: CoreStats,
    obs: Observer,
}

impl Pipeline {
    /// Creates a core executing `program` from its entry point.
    pub fn new(core: CoreId, cfg: CoreConfig, program: Arc<Program>) -> Self {
        let mut regs = [0u64; NUM_REGS];
        for (r, v) in &program.init_regs {
            regs[r.index()] = *v;
        }
        Pipeline {
            pred: TournamentPredictor::new(cfg.bpred.clone()),
            regs,
            last_writer: [None; NUM_REGS],
            rob: VecDeque::with_capacity(cfg.rob_entries),
            lq: (0..cfg.lq_entries).map(|_| None).collect(),
            sq: (0..cfg.sq_entries).map(|_| None).collect(),
            lq_held: Vec::new(),
            lq_free: BitSet::full(cfg.lq_entries),
            sq_free: BitSet::full(cfg.sq_entries),
            next_seq: 1,
            fetch_pc: program.entry,
            fetch_halted: false,
            halted: false,
            fetch_stall_until: 0,
            cleanup_stall_until: 0,
            mshr_blocked: false,
            squash: SquashPhase::Running,
            episodes: 0,
            halt_after_squash: false,
            load_id_ctr: 0,
            sched: Worklists::new(cfg.rob_entries),
            last_tick: TickActivity::default(),
            stats: CoreStats::default(),
            obs: Observer::disabled(),
            core,
            cfg,
            program,
        }
    }

    /// Attaches the event-bus observer (structured [`SimEvent`]s).
    pub fn set_observer(&mut self, obs: Observer) {
        self.obs = obs;
    }

    /// Core identifier.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Whether the program has committed its `Halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Core statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Cleanup episodes opened so far (the per-core episode-id counter).
    pub fn episodes(&self) -> u64 {
        self.episodes
    }

    /// Overwrites the episode counter (cs-snap checkpoint load; episode
    /// ids must keep climbing from where the snapshot left off so a
    /// restored run re-emits the same ids as the uninterrupted one).
    pub fn set_episodes(&mut self, n: u64) {
        self.episodes = n;
    }

    /// Mutable stats access (the runner stamps total cycles).
    pub fn stats_mut(&mut self) -> &mut CoreStats {
        &mut self.stats
    }

    /// Clears the statistics (end-of-warm-up). Architectural and
    /// microarchitectural state (caches, predictor, queues) is preserved.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
    }

    /// Architectural value of a register (for tests and harnesses; only
    /// meaningful once the writer has committed).
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Number of live ROB entries (livelock diagnostics).
    pub fn rob_len(&self) -> usize {
        self.rob.len()
    }

    /// `(seq, pc)` of the ROB head instruction, if any (livelock
    /// diagnostics: the instruction the core is stuck behind).
    pub fn rob_head(&self) -> Option<(u64, u64)> {
        self.rob.front().map(|e| (e.seq, e.pc as u64))
    }

    /// Loads currently inflight in the load queue (livelock diagnostics).
    pub fn inflight_loads(&self) -> usize {
        self.lq
            .iter()
            .flatten()
            .filter(|l| matches!(l.state, LqState::Inflight { .. }))
            .count()
    }

    /// Advances the core by one cycle against the shared memory system.
    ///
    /// Every call charges exactly one cycle to the top-down CPI stack
    /// ([`CoreStats::cpi_stack`]): the per-core stack sums to the number
    /// of ticks, which the system runner keeps equal to elapsed cycles.
    ///
    /// A tick is a fixed sequence of stages: complete, squash, visibility
    /// scan, commit, issue, fetch and classify (a halted core only charges
    /// a `Halted` cycle). Each stage records whether it changed any state
    /// in [`Self::last_tick`].
    pub fn tick(
        &mut self,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        dmem: &mut DataMem,
        now: Cycle,
    ) {
        if self.halted {
            self.stage_halted();
            return;
        }
        self.stage_complete(mem, now);
        // Squash handling runs BEFORE the visibility scan: when a branch
        // resolves mispredicted, its wrong-path loads must be squashed in
        // the same cycle — never exposed (they would otherwise appear
        // unsquashable for one cycle).
        self.stage_squash(scheme, mem, now);
        self.stage_visibility(scheme, mem, now);
        self.stage_commit(scheme, mem, dmem, now);
        self.stage_issue(scheme, mem, dmem, now);
        self.stage_fetch(now);
        self.stage_classify(now);
    }

    /// The whole tick of a halted core: one `Halted` cycle, nothing else.
    fn stage_halted(&mut self) {
        self.last_tick = TickActivity {
            cause: StallCause::Halted,
            ..TickActivity::default()
        };
        self.stats.cpi_stack.charge(StallCause::Halted);
    }

    /// Tick stage 1: expires InvisiSpec-held LQ slots and finishes every
    /// issued entry whose `done_at` has arrived.
    fn stage_complete(&mut self, mem: &mut MemHierarchy, now: Cycle) {
        self.last_tick = TickActivity::default();
        self.mshr_blocked = false;
        let held = self.lq_held.len();
        if held > 0 {
            self.lq_held.retain(|&c| c > now);
        }
        let completed = self.complete(mem, now);
        self.last_tick.complete = completed || self.lq_held.len() < held;
    }

    /// Tick stage 2: squashes at a mispredict resolved this tick and runs
    /// a pending cleanup once it may.
    fn stage_squash(
        &mut self,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        now: Cycle,
    ) {
        self.last_tick.squash = self.process_squash(scheme, mem, now);
    }

    /// Tick stage 3: the visibility-point scan.
    fn stage_visibility(
        &mut self,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        now: Cycle,
    ) {
        self.last_tick.visibility = self.visibility_scan(scheme, mem, now);
    }

    /// Tick stage 4: in-order commit.
    fn stage_commit(
        &mut self,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        dmem: &mut DataMem,
        now: Cycle,
    ) {
        let before = self.stats.committed_insts;
        self.last_tick.commit = self.commit(scheme, mem, dmem, now);
        self.last_tick.committed = self.stats.committed_insts - before;
    }

    /// Tick stage 5: dataflow issue (skipped while a pending cleanup
    /// blocks issue).
    fn stage_issue(
        &mut self,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        dmem: &mut DataMem,
        now: Cycle,
    ) {
        let issue_blocked = matches!(self.squash, SquashPhase::WaitInflight { .. })
            && scheme.stalls_issue_during_cleanup();
        if !issue_blocked {
            self.last_tick.issue = self.issue(scheme, mem, dmem, now);
        }
    }

    /// Tick stage 6: fetch and dispatch.
    fn stage_fetch(&mut self, now: Cycle) {
        self.last_tick.fetch_stalled = now < self.fetch_stall_until;
        self.last_tick.fetch = self.fetch(now);
    }

    /// Tick stage 7: charges the cycle to its CPI-stack cause.
    fn stage_classify(&mut self, now: Cycle) {
        let cause = self.classify_cycle(now, self.last_tick.committed);
        self.last_tick.cause = cause;
        self.stats.cpi_stack.charge(cause);
        #[cfg(debug_assertions)]
        {
            self.check_worklists();
            self.check_quiet_bound(now);
        }
    }

    /// What the last [`Self::tick`] did.
    #[doc(hidden)]
    pub fn last_tick(&self) -> TickActivity {
        self.last_tick
    }

    /// The earliest cycle after `now` at which this core, having just
    /// ticked quietly at `now`, can change state or its stall cause:
    /// until then every tick repeats the quiet one. The bound is the
    /// soonest of the next completion (heap top or one-cycle lane), the
    /// next held LQ slot to expire, the head's commit gate, and the end of
    /// the fetch and cleanup stalls. `Cycle::MAX` for a halted core.
    pub fn quiet_until(&self, now: Cycle) -> Cycle {
        if self.halted {
            return Cycle::MAX;
        }
        let ahead = |c: Cycle| if c > now { c } else { Cycle::MAX };
        let mut wake = ahead(self.fetch_stall_until).min(ahead(self.cleanup_stall_until));
        if let Some(&Reverse((done_at, _))) = self.sched.completions.peek() {
            wake = wake.min(done_at);
        }
        if !self.sched.lane.is_empty() {
            wake = wake.min(self.sched.lane_at);
        }
        if let Some(&held) = self.lq_held.iter().min() {
            wake = wake.min(held);
        }
        if let Some(at) = self.rob.front().and_then(|e| e.commit_ready_at) {
            wake = wake.min(at);
        }
        wake
    }

    /// Replays the quiet tick of [`Self::last_tick`] `n` more times: the
    /// same CPI cause, and the fetch stall where fetch was stalled.
    #[doc(hidden)]
    pub fn repeat_quiet_tick(&mut self, n: u64) {
        debug_assert!(self.last_tick.is_quiet());
        self.stats.cpi_stack.charge_n(self.last_tick.cause, n);
        if self.last_tick.fetch_stalled {
            self.stats.fetch_stall_cycles += n;
        }
    }

    /// Charges one cycle to the `Harness` bucket: the system runner calls
    /// this for cycles it advances without ticking the cores (priming,
    /// probing, and draining phases), keeping the CPI-stack total equal to
    /// elapsed cycles.
    pub fn note_harness_cycle(&mut self) {
        self.note_harness_cycles(1);
    }

    /// [`Self::note_harness_cycle`] for `n` cycles at once.
    pub(crate) fn note_harness_cycles(&mut self, n: u64) {
        self.stats.cpi_stack.charge_n(StallCause::Harness, n);
    }

    /// Attributes one committless cycle to the single dominant cause, in
    /// top-down priority order: the squash/cleanup machinery first, then
    /// whatever the ROB head is waiting on.
    fn classify_cycle(&self, now: Cycle, committed: u64) -> StallCause {
        if committed > 0 {
            return StallCause::Commit;
        }
        if matches!(self.squash, SquashPhase::WaitInflight { .. }) {
            return StallCause::WaitInflight;
        }
        let Some(head) = self.rob.front() else {
            // Empty ROB: the front end owns the cycle — either the scheme's
            // post-squash cleanup stall or an ordinary fetch bubble.
            return if now < self.cleanup_stall_until {
                StallCause::CleanupInProgress
            } else {
                StallCause::Frontend
            };
        };
        if head.faulting {
            // Deferred permission check in flight (Meltdown race window).
            return StallCause::Exec;
        }
        if head.status == Status::Done {
            if head.commit_ready_at.is_some_and(|at| now < at) {
                return StallCause::SchemeCommitStall;
            }
            return StallCause::Exec;
        }
        if head.inst.is_load() {
            let lqe = head
                .lq
                .and_then(|li| self.lq[li])
                .filter(|l| l.seq == head.seq);
            return match lqe.map(|l| l.state) {
                Some(LqState::Inflight { prov, path, .. }) => match prov {
                    Some(MissProvenance::TransientInval) => StallCause::TransientInvalidate,
                    Some(MissProvenance::RandomRepl) => StallCause::RandomReplMiss,
                    None => match path {
                        LoadPath::Mem => StallCause::LoadMem,
                        LoadPath::L2Hit | LoadPath::RemoteL1 | LoadPath::DummyMiss => {
                            StallCause::LoadL2
                        }
                        LoadPath::L1Hit => StallCause::Exec,
                    },
                },
                Some(LqState::Deferred { .. }) => StallCause::SchemeDefer,
                _ if self.mshr_blocked => StallCause::SefePressure,
                _ => StallCause::Exec,
            };
        }
        if matches!(head.inst, Inst::Store { .. }) {
            return StallCause::StoreBuffer;
        }
        if self.rob.len() >= self.cfg.rob_entries {
            return StallCause::RobFull;
        }
        StallCause::Exec
    }

    // ------------------------------------------------------------------
    // Completion
    // ------------------------------------------------------------------

    /// ROB index of the live entry with sequence number `seq`, if any
    /// (seqs are dense in the ROB, so this is an offset from the head).
    fn rob_index(&self, seq: u64) -> Option<usize> {
        let head = self.rob.front()?.seq;
        let i = usize::try_from(seq.checked_sub(head)?).ok()?;
        (i < self.rob.len()).then_some(i)
    }

    /// Finishes every issued entry whose `done_at` has arrived, in seq
    /// order — the order `LoadId`s, SEFE collection and predictor training
    /// have always followed. Returns whether any item was due.
    fn complete(&mut self, mem: &mut MemHierarchy, now: Cycle) -> bool {
        let mut due = std::mem::take(&mut self.sched.due);
        if self.sched.lane_at <= now {
            due.append(&mut self.sched.lane);
        }
        while let Some(&Reverse((done_at, seq))) = self.sched.completions.peek() {
            if done_at > now {
                break;
            }
            self.sched.completions.pop();
            due.push(seq);
        }
        let popped = !due.is_empty();
        due.sort_unstable();
        for &seq in &due {
            // Skip items of squashed seqs: gone from the ROB, or reused by an
            // entry that is not (or no longer) due.
            let Some(i) = self.rob_index(seq) else {
                continue;
            };
            let (due, lq_idx, inst) = {
                let e = &self.rob[i];
                let due = matches!(e.status, Status::Issued { done_at } if done_at <= now);
                (due, e.lq, e.inst)
            };
            if !due {
                continue;
            }
            // Collect the load's SEFE if this entry owns an inflight load.
            if let Some(li) = lq_idx {
                if let Some(lqe) = self.lq[li] {
                    if lqe.seq == seq {
                        if let LqState::Inflight {
                            line,
                            token,
                            path,
                            issued_spec,
                            ..
                        } = lqe.state
                        {
                            let sefe = token.and_then(|t| mem.collect(t)).unwrap_or_default();
                            self.load_id_ctr += 1;
                            self.lq[li] = Some(LqEntry {
                                seq,
                                state: LqState::Done {
                                    line: Some(line),
                                    path: Some(path),
                                    sefe,
                                    load_id: Some(LoadId(self.load_id_ctr)),
                                    issued_spec,
                                    completed_at: now,
                                    exposed_until: None,
                                    visible_done: false,
                                },
                            });
                            let pending = &mut self.sched.visibility_pending;
                            match pending.binary_search_by_key(&li, |&(slot, _)| slot) {
                                Ok(k) => pending[k].1 = seq,
                                Err(k) => pending.insert(k, (li, seq)),
                            }
                        }
                    }
                }
            }
            let e = &mut self.rob[i];
            e.status = Status::Done;
            if inst.is_control() {
                self.sched.squash_sources.remove(seq);
                // Resolve: detect misprediction and train the predictor.
                let mispredicted =
                    e.pred_taken != e.actual_taken || e.pred_target != e.actual_target;
                if mispredicted && matches!(inst, Inst::Branch { .. } | Inst::Ret) {
                    self.stats.mispredicts += 1;
                    e.mispredict_pending = true;
                    // Seq order: the first one this tick is the oldest.
                    self.sched.mispredict.get_or_insert(seq);
                }
                match inst {
                    Inst::Branch { .. } => {
                        let (pc, taken) = (e.pc, e.actual_taken);
                        self.pred.update(pc, taken, mispredicted);
                    }
                    Inst::Ret => {
                        let (pc, tgt) = (e.pc, e.actual_target);
                        self.pred.btb_update(pc, tgt);
                    }
                    _ => {} // jumps and calls have static targets
                }
            } else if matches!(inst, Inst::Fence) {
                self.sched.fences.remove(seq);
            }
            self.wake_consumers(seq);
        }
        due.clear();
        self.sched.due = due;
        popped
    }

    /// Returns the entries parked on `producer` (now done) to the waiting
    /// list.
    fn wake_consumers(&mut self, producer: u64) {
        let mut woken = std::mem::take(self.sched.wakeup_slot(producer));
        for &c in &woken {
            // A consumer squashed since it parked is gone, or its seq now
            // belongs to an entry not parked on this producer.
            let Some(ci) = self.rob_index(c) else {
                continue;
            };
            if self.rob[ci].parked_on == Some(producer) {
                self.rob[ci].parked_on = None;
                let pos = self.sched.ring_pos(c);
                self.sched.waiting.insert(pos);
            }
        }
        woken.clear();
        *self.sched.wakeup_slot(producer) = woken;
    }

    /// Fires [`SpeculationScheme::on_load_visible`] for completed loads
    /// that have become unsquashable (InvisiSpec's visibility point), in
    /// LQ-slot order. Returns whether any slot left the pending list.
    ///
    /// While a squash source older than every pending load is in flight,
    /// every hook is blocked and the scan returns at once; slots of
    /// squashed loads then stay listed until a later scan drops them.
    fn visibility_scan(
        &mut self,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        now: Cycle,
    ) -> bool {
        let sources = &self.sched.squash_sources;
        if self
            .sched
            .visibility_pending
            .iter()
            .all(|&(_, seq)| sources.has_older(seq))
        {
            return false;
        }
        let mut pending = std::mem::take(&mut self.sched.visibility_pending);
        let before = pending.len();
        // The oldest LQ seq not yet `Done`, found at the first hook that
        // fires. A hook changes only its own entry, which stays `Done`, so
        // the value holds for the rest of the pass.
        let mut oldest_undone: Option<Option<u64>> = None;
        pending.retain(|&(li, _)| {
            let Some(lqe) = self.lq[li] else {
                return false;
            };
            let LqState::Done {
                line: Some(line),
                path,
                issued_spec,
                visible_done: false,
                ..
            } = lqe.state
            else {
                return false;
            };
            if self.sched.squash_sources.has_older(lqe.seq) {
                return true;
            }
            // TSO validation condition: an older load is still pending.
            let oldest = *oldest_undone.get_or_insert_with(|| {
                self.lq
                    .iter()
                    .flatten()
                    .filter(|e| !matches!(e.state, LqState::Done { .. }))
                    .map(|e| e.seq)
                    .min()
            });
            let needs_validation = oldest.is_some_and(|o| o < lqe.seq);
            let exposed = scheme.on_load_visible(
                mem,
                self.core,
                CommittedLoad {
                    line,
                    issued_spec,
                    path,
                    needs_validation,
                },
                now,
            );
            if let Some(LqEntry {
                state:
                    LqState::Done {
                        exposed_until,
                        visible_done,
                        ..
                    },
                ..
            }) = &mut self.lq[li]
            {
                *exposed_until = exposed;
                *visible_done = true;
            }
            false
        });
        let changed = pending.len() < before;
        self.sched.visibility_pending = pending;
        changed
    }

    // ------------------------------------------------------------------
    // Squash machinery
    // ------------------------------------------------------------------

    /// Returns whether a squash or a cleanup ran.
    fn process_squash(
        &mut self,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        now: Cycle,
    ) -> bool {
        let mut acted = false;
        // First: squash at the oldest mispredict resolved this tick.
        if let Some(branch_seq) = self.sched.mispredict.take() {
            acted = true;
            let pos = self.rob_index(branch_seq).expect("resolved this tick");
            let redirect = self.rob[pos].actual_target;
            self.rob[pos].mispredict_pending = false;
            self.stats.squashes += 1;
            let before = self.stats.squashed_insts;
            let new_loads = self.squash_younger(branch_seq);
            let n = self.stats.squashed_insts - before;
            // A squash while Running opens a fresh episode; one that lands
            // while a cleanup is already pending joins (widens) it.
            let episode = match &self.squash {
                SquashPhase::WaitInflight { episode, .. } => *episode,
                SquashPhase::Running => {
                    self.episodes += 1;
                    self.episodes
                }
            };
            self.obs.emit(
                now,
                SimEvent::Squash {
                    core: self.core.index(),
                    seq: branch_seq,
                    squashed: n,
                    episode,
                },
            );
            self.emit_squashed_loads(now, &new_loads, episode);
            self.fetch_pc = redirect;
            self.fetch_halted = false;
            match &mut self.squash {
                SquashPhase::WaitInflight { loads, .. } => {
                    // An older branch mispredicted while we were waiting:
                    // widen the pending squash.
                    loads.extend(new_loads);
                }
                SquashPhase::Running => {
                    self.squash = SquashPhase::WaitInflight {
                        mispredict_at: now,
                        loads: new_loads,
                        episode,
                        seq: branch_seq,
                    };
                }
            }
            // The front end is redirected in any case; the stall length is
            // decided when the scheme's cleanup completes (below).
            self.fetch_stall_until = self.fetch_stall_until.max(now + self.cfg.redirect_penalty);
        }

        // Second: if a squash is pending, run cleanup once older inflight
        // correct-path loads are done (or immediately if the scheme does
        // not wait).
        if let SquashPhase::WaitInflight { mispredict_at, .. } = self.squash {
            let must_wait = scheme.waits_for_older_inflight() && self.any_inflight_load();
            if !must_wait {
                acted = true;
                let (loads, episode, seq) =
                    match std::mem::replace(&mut self.squash, SquashPhase::Running) {
                        SquashPhase::WaitInflight {
                            loads,
                            episode,
                            seq,
                            ..
                        } => (loads, episode, seq),
                        SquashPhase::Running => unreachable!(),
                    };
                // Register the episode with the hierarchy before the scheme
                // runs: every cleanup event the undo emits (inval, restore,
                // epoch bump, dropped fill) is stamped with this id.
                mem.begin_cleanup_episode(self.core, episode, seq);
                let resp = scheme.on_squash(
                    mem,
                    SquashInfo {
                        core: self.core,
                        mispredict_at,
                        now,
                        loads: &loads,
                    },
                );
                let resume = resp.resume_at.max(now);
                self.stats.squash_wait_cycles += now - mispredict_at;
                self.stats.squash_cleanup_cycles += resume - now;
                self.stats.cleanup_duration.record(resume - now);
                self.stats.episode_duration.record(resume - mispredict_at);
                self.stats.episode_loads.record(loads.len() as u64);
                self.obs.emit(
                    now,
                    SimEvent::CleanupStart {
                        core: self.core.index(),
                        loads: loads.len() as u64,
                        stall: resume - now,
                        episode,
                    },
                );
                self.obs.emit(
                    resume,
                    SimEvent::CleanupEnd {
                        core: self.core.index(),
                        stall: resume - now,
                        episode,
                    },
                );
                self.fetch_stall_until = self.fetch_stall_until.max(resume);
                self.cleanup_stall_until = self.cleanup_stall_until.max(resume);
                if self.halt_after_squash {
                    self.halted = true;
                }
            }
        }
        acted
    }

    /// Emits one [`SimEvent::SquashedLoad`] per squashed load with a known
    /// line (the episode ledger correlates these with cleanup events).
    fn emit_squashed_loads(&mut self, now: Cycle, loads: &[SquashedLoad], episode: u64) {
        if !self.obs.is_enabled() {
            return;
        }
        for l in loads {
            if let Some(line) = l.line {
                self.obs.emit(
                    now,
                    SimEvent::SquashedLoad {
                        core: self.core.index(),
                        line: line.raw(),
                        issued: !matches!(l.state, SquashedLoadState::NotIssued),
                        episode,
                    },
                );
            }
        }
    }

    fn any_inflight_load(&self) -> bool {
        self.lq
            .iter()
            .flatten()
            .any(|e| matches!(e.state, LqState::Inflight { .. }))
    }

    /// Removes all ROB entries younger than `branch_seq`, returning squash
    /// records for their loads.
    fn squash_younger(&mut self, branch_seq: u64) -> Vec<SquashedLoad> {
        let mut loads = Vec::new();
        while let Some(back) = self.rob.back() {
            if back.seq <= branch_seq {
                break;
            }
            let e = self.rob.pop_back().expect("checked non-empty");
            self.stats.squashed_insts += 1;
            self.sched.wakeup_slot(e.seq).clear();
            let pos = self.sched.ring_pos(e.seq);
            self.sched.waiting.remove(pos);
            if let Some(li) = e.lq {
                if let Some(lqe) = self.lq[li] {
                    if lqe.seq == e.seq {
                        let rec = self.squash_record(&lqe);
                        loads.push(rec);
                        self.free_lq(li);
                    }
                }
            }
            if let Some(si) = e.sq {
                if let Some(sqe) = self.sq[si] {
                    if sqe.seq == e.seq {
                        self.free_sq(si);
                    }
                }
            }
        }
        // Sequence numbers are dense in the ROB (positions are computed as
        // seq offsets), so dispatch resumes right after the branch. Safe:
        // every consumer of a squashed seq was itself squashed. Completion
        // items and parked-consumer records of the squashed seqs stay
        // queued; `complete` and `wake_consumers` skip them.
        self.next_seq = branch_seq + 1;
        self.sched.truncate_after(branch_seq);
        // Loads were collected youngest-first; the scheme expects oldest
        // first.
        loads.reverse();
        // Rebuild the rename map from the surviving entries.
        self.last_writer = [None; NUM_REGS];
        for e in &self.rob {
            if let Some(d) = e.dst {
                self.last_writer[d.index()] = Some(e.seq);
            }
        }
        loads
    }

    fn squash_record(&mut self, lqe: &LqEntry) -> SquashedLoad {
        match lqe.state {
            LqState::NotIssued => {
                self.stats
                    .record_squashed_load(SquashedClass::NotIssued, false);
                SquashedLoad {
                    line: None,
                    load_id: None,
                    state: SquashedLoadState::NotIssued,
                }
            }
            LqState::Deferred { line } => {
                self.stats
                    .record_squashed_load(SquashedClass::NotIssued, false);
                SquashedLoad {
                    line: Some(line),
                    load_id: None,
                    state: SquashedLoadState::NotIssued,
                }
            }
            LqState::Inflight {
                line, token, path, ..
            } => {
                self.stats.record_squashed_load(Self::classify(path), true);
                SquashedLoad {
                    line: Some(line),
                    load_id: None,
                    state: SquashedLoadState::Inflight { path, token },
                }
            }
            LqState::Done {
                line,
                path,
                sefe,
                load_id,
                ..
            } => {
                let class = path.map(Self::classify).unwrap_or(SquashedClass::L1Hit);
                self.stats.record_squashed_load(class, false);
                SquashedLoad {
                    line,
                    load_id,
                    state: SquashedLoadState::Executed {
                        path: path.unwrap_or(LoadPath::L1Hit),
                        sefe,
                    },
                }
            }
        }
    }

    fn classify(path: LoadPath) -> SquashedClass {
        match path {
            LoadPath::L1Hit => SquashedClass::L1Hit,
            LoadPath::L2Hit | LoadPath::RemoteL1 | LoadPath::DummyMiss => SquashedClass::L2Hit,
            LoadPath::Mem => SquashedClass::L2Miss,
        }
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    /// Retires up to `commit_width` done entries from the ROB head.
    /// Returns whether commit got past the head's `commit_ready_at` gate
    /// (the only way it changes any state).
    fn commit(
        &mut self,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        dmem: &mut DataMem,
        now: Cycle,
    ) -> bool {
        let mut passed = false;
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else {
                return passed;
            };
            if head.status != Status::Done {
                return passed;
            }
            if let Some(at) = head.commit_ready_at {
                if now < at {
                    return passed;
                }
            }
            passed = true;
            let mut entry = self.rob.front().expect("checked").clone();
            // Capture the load's line for the commit event before the LQ
            // slot is freed below.
            let committed_line = if self.obs.is_enabled() {
                entry
                    .lq
                    .and_then(|li| self.lq[li])
                    .filter(|l| l.seq == entry.seq)
                    .and_then(|l| match l.state {
                        LqState::Done { line, .. } => line,
                        LqState::Inflight { line, .. } | LqState::Deferred { line } => Some(line),
                        LqState::NotIssued => None,
                    })
            } else {
                None
            };
            // Deferred exception: a faulting load never retires — it (and
            // everything younger) is squashed, and the active scheme
            // cleans up its transient cache changes exactly as for a
            // branch mis-speculation.
            if entry.faulting {
                if entry.commit_ready_at.is_none() {
                    // The permission check runs now; the exception lands
                    // `fault_check_latency` later — dependents execute
                    // transiently in that window (the Meltdown race).
                    self.rob.front_mut().expect("head").commit_ready_at =
                        Some(now + self.cfg.fault_check_latency);
                    return true;
                }
                self.raise_fault(now);
                return true;
            }
            // Scheme hook + memory side effects.
            match entry.inst {
                Inst::Load { .. } => {
                    let lqe = entry
                        .lq
                        .and_then(|li| self.lq[li])
                        .filter(|l| l.seq == entry.seq);
                    if !entry.committed_scheme_done {
                        let (line, path, issued_spec, completed_at, exposed_until) =
                            match lqe.map(|l| l.state) {
                                Some(LqState::Done {
                                    line,
                                    path,
                                    issued_spec,
                                    completed_at,
                                    exposed_until,
                                    ..
                                }) => (line, path, issued_spec, completed_at, exposed_until),
                                _ => (None, None, false, now, None),
                            };
                        // Retirement may not pass a pending visibility-point
                        // update load (InvisiSpec revised).
                        if let Some(at) = exposed_until {
                            if now < at {
                                self.rob.front_mut().expect("head").commit_ready_at = Some(at);
                                self.stats.commit_stall_cycles += at - now;
                                return true;
                            }
                        }
                        if let Some(line) = line {
                            let action = scheme.commit_load(
                                mem,
                                self.core,
                                CommittedLoad {
                                    line,
                                    issued_spec,
                                    path,
                                    needs_validation: false,
                                },
                                now,
                            );
                            // Window-extension messages for long-speculative
                            // loads (Section 3.6).
                            if scheme.uses_window_protection() && path.is_some() {
                                let age = now.saturating_sub(completed_at);
                                let msgs = age / self.cfg.window_extend_interval;
                                if msgs > 0 {
                                    self.stats.window_extend_msgs += msgs;
                                    mem.note_traffic(MsgClass::WindowExtend, msgs);
                                }
                            }
                            match action {
                                CommitAction::Proceed => {}
                                CommitAction::StallUntil(c) => {
                                    self.rob.front_mut().expect("head").commit_ready_at = Some(c);
                                    self.rob.front_mut().expect("head").committed_scheme_done =
                                        true;
                                    if now < c {
                                        self.stats.commit_stall_cycles += c - now;
                                        return true;
                                    }
                                }
                                CommitAction::HoldLqUntil(c) => {
                                    if let Some(li) = entry.lq {
                                        self.free_lq(li);
                                        self.lq_held.push(c);
                                        entry.lq = None;
                                        self.rob.front_mut().expect("head").lq = None;
                                    }
                                }
                            }
                        }
                    }
                    self.stats.committed_loads += 1;
                }
                Inst::Store { .. } => {
                    if let Some(si) = entry.sq {
                        if let Some(sqe) = self.sq[si].filter(|s| s.seq == entry.seq) {
                            let addr = sqe.addr.expect("store issued before commit");
                            dmem.write(addr, sqe.value.expect("store value ready"));
                            mem.store(self.core, addr.line(), now);
                        }
                    }
                    self.stats.committed_stores += 1;
                }
                Inst::Clflush { .. } => {
                    // Delayed until the correct path (Section 3.5, Table 2):
                    // commit is the correct path.
                    if let Some(v) = entry.result {
                        mem.clflush(self.core, Addr::new(v).line(), now);
                    }
                }
                Inst::Branch { .. } => {
                    self.stats.committed_branches += 1;
                }
                Inst::Halt => {
                    self.halted = true;
                }
                _ => {}
            }
            // Architectural register update.
            if let (Some(d), Some(v)) = (entry.dst, entry.result) {
                self.regs[d.index()] = v;
            }
            if let Some(d) = entry.dst {
                if self.last_writer[d.index()] == Some(entry.seq) {
                    self.last_writer[d.index()] = None;
                }
            }
            // Free queues.
            if let Some(li) = entry.lq {
                if self.lq[li].is_some_and(|l| l.seq == entry.seq) {
                    self.free_lq(li);
                }
            }
            if let Some(si) = entry.sq {
                if self.sq[si].is_some_and(|s| s.seq == entry.seq) {
                    self.free_sq(si);
                }
            }
            self.obs.emit_with(now, || SimEvent::Commit {
                core: self.core.index(),
                seq: entry.seq,
                pc: entry.pc as u64,
                line: committed_line.map(|l| l.raw()),
            });
            self.rob.pop_front();
            self.stats.committed_insts += 1;
            if self.halted {
                return true;
            }
        }
        passed
    }

    /// Raises the deferred fault of the ROB head: squashes the head and
    /// everything younger, redirects fetch to the fault handler (or halts
    /// the program), and hands the squashed loads to the scheme's squash
    /// path for cleanup on the next `process_squash`.
    fn raise_fault(&mut self, now: Cycle) {
        let head = self.rob.front().expect("fault needs a head");
        let (head_seq, head_pc) = (head.seq, head.pc);
        self.stats.faults += 1;
        self.stats.squashes += 1;
        self.obs.emit(
            now,
            SimEvent::Fault {
                core: self.core.index(),
                seq: head_seq,
                pc: head_pc as u64,
            },
        );
        let loads = self.squash_younger(head_seq - 1);
        // A fault while Running opens an episode exactly like a mispredict.
        let episode = match &self.squash {
            SquashPhase::WaitInflight { episode, .. } => *episode,
            SquashPhase::Running => {
                self.episodes += 1;
                self.episodes
            }
        };
        self.emit_squashed_loads(now, &loads, episode);
        match self.program.fault_handler {
            Some(h) => {
                self.fetch_pc = h;
                self.fetch_halted = false;
            }
            None => {
                // Fatal: stop fetching now, halt once the scheme's cleanup
                // of the transient state has completed.
                self.fetch_halted = true;
                self.halt_after_squash = true;
            }
        }
        match &mut self.squash {
            SquashPhase::WaitInflight { loads: l, .. } => l.extend(loads),
            SquashPhase::Running => {
                self.squash = SquashPhase::WaitInflight {
                    mispredict_at: now,
                    loads,
                    episode,
                    seq: head_seq,
                };
            }
        }
        self.fetch_stall_until = self.fetch_stall_until.max(now + self.cfg.redirect_penalty);
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    fn sq_forward(&self, seq: u64, addr: Addr) -> Option<u64> {
        let word = addr.raw() >> 3;
        self.sq
            .iter()
            .flatten()
            .filter(|s| s.seq < seq)
            .filter(|s| s.addr.is_some_and(|a| a.raw() >> 3 == word))
            .max_by_key(|s| s.seq)
            .and_then(|s| s.value)
    }

    /// Issues up to `issue_width` ready entries, oldest first, walking only
    /// the waiting list. An entry that issues leaves the waiting list at
    /// once, and the squash-source and address-less-store lists are updated
    /// before the next (younger) entry is considered, so same-cycle
    /// decisions see exactly the state a full in-order ROB walk would.
    /// Returns whether an issue slot was charged or an entry was parked.
    fn issue(
        &mut self,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        dmem: &mut DataMem,
        now: Cycle,
    ) -> bool {
        let Some(head) = self.rob.front().map(|e| e.seq) else {
            return false;
        };
        debug_assert!(self.sched.lane.is_empty(), "lane drained by complete");
        self.sched.lane_at = now + 1;
        let mut parked = false;
        let mut budget = self.cfg.issue_width;
        // `i` is the ROB index (and `head + i` the seq) the walk resumes at.
        let mut i = 0;
        while budget > 0 {
            let from = self.sched.ring_pos(head + i as u64);
            let Some(d) = self.sched.waiting.next_circular(from, self.rob.len() - i) else {
                break;
            };
            i += d;
            let seq = head + i as u64;
            let pos = self.sched.ring_pos(seq);
            self.issue_one(i, &mut budget, scheme, mem, dmem, now);
            let e = &self.rob[i];
            if e.status == Status::Waiting {
                // An entry missing an operand can do nothing until its
                // producer is done: park it there instead of re-examining
                // it every cycle.
                if let Some(p) = self.unready_producer(i) {
                    self.rob[i].parked_on = Some(p);
                    self.sched.wakeup_slot(p).push(seq);
                    self.sched.waiting.remove(pos);
                    parked = true;
                }
                i += 1;
                continue;
            }
            self.sched.waiting.remove(pos);
            i += 1;
            match e.status {
                Status::Issued { done_at } if done_at == now + 1 => self.sched.lane.push(seq),
                Status::Issued { done_at } => self.sched.completions.push(Reverse((done_at, seq))),
                _ => {}
            }
            // A load stops being a squash source once issued, unless it
            // faults; control stays one until it is done.
            if e.inst.is_load() && !is_squash_source(e) {
                self.sched.squash_sources.remove(seq);
            } else if matches!(e.inst, Inst::Store { .. }) {
                self.sched.addrless_stores.remove(seq);
            }
        }
        parked || budget < self.cfg.issue_width
    }

    /// Tries to issue the waiting ROB entry `i`, charging `budget` for
    /// every issue slot it uses (including a deferral or an MSHR-full
    /// retry, which leave the entry waiting).
    fn issue_one(
        &mut self,
        i: usize,
        budget: &mut usize,
        scheme: &mut dyn SpeculationScheme,
        mem: &mut MemHierarchy,
        dmem: &mut DataMem,
        now: Cycle,
    ) {
        let e = &self.rob[i];
        let seq = e.seq;
        match e.inst {
            Inst::Nop | Inst::Halt => {
                self.rob[i].status = Status::Issued { done_at: now + 1 };
                *budget -= 1;
            }
            Inst::Fence => {
                // Issue only as the oldest instruction.
                if i == 0 {
                    self.rob[i].status = Status::Issued { done_at: now + 1 };
                    *budget -= 1;
                }
            }
            Inst::Alu { op, latency, .. } => {
                let (Some(a), Some(b)) = (self.operand(i, 0), self.operand(i, 1)) else {
                    return;
                };
                let e = &mut self.rob[i];
                e.result = Some(op.apply(a, b));
                e.status = Status::Issued {
                    done_at: now + latency as Cycle,
                };
                *budget -= 1;
            }
            Inst::Load { offset, .. } => {
                // Memory operations may not issue past an incomplete older
                // fence. Disambiguation is conservative: a load may not
                // issue past an older store whose address is still unknown
                // (no store-set speculation — a memory-order
                // mis-speculation would need its own squash-and-undo path).
                if self.sched.fences.has_older(seq) || self.sched.addrless_stores.has_older(seq) {
                    return;
                }
                let Some(base) = self.operand(i, 0) else {
                    return;
                };
                let addr = Addr::new(base.wrapping_add(offset as u64));
                let unsquashable = !self.sched.squash_sources.has_older(seq);
                if scheme.issue_policy() == LoadIssuePolicy::WhenUnsquashable && !unsquashable {
                    return;
                }
                // Deferred (GetS-Safe) loads retry only when safe.
                let deferred_now = self.rob[i]
                    .lq
                    .and_then(|li| self.lq[li])
                    .is_some_and(|l| matches!(l.state, LqState::Deferred { .. }));
                if deferred_now && !unsquashable {
                    return;
                }
                // Store-to-load forwarding: serviced from the SQ with no
                // cache access (and therefore no side effects).
                if let Some(v) = self.sq_forward(seq, addr) {
                    let li = self.rob[i].lq.expect("loads own an LQ slot");
                    self.lq[li] = Some(LqEntry {
                        seq,
                        state: LqState::Done {
                            line: None,
                            path: None,
                            sefe: SefeRecord::default(),
                            load_id: None,
                            issued_spec: false,
                            completed_at: now,
                            exposed_until: None,
                            visible_done: true,
                        },
                    });
                    let e = &mut self.rob[i];
                    e.result = Some(v);
                    e.status = Status::Issued { done_at: now + 1 };
                    self.stats.forwarded_loads += 1;
                    *budget -= 1;
                    return;
                }
                let is_spec = !unsquashable;
                // Meltdown-style race: the permission check is deferred
                // to commit; the access itself proceeds and its data
                // flows to dependents transiently.
                if self.program.is_protected(addr) {
                    self.rob[i].faulting = true;
                }
                match scheme.issue_load(
                    mem,
                    LoadIssue {
                        core: self.core,
                        line: addr.line(),
                        now,
                        is_spec,
                    },
                ) {
                    Ok(out) if out.deferred => {
                        let li = self.rob[i].lq.expect("loads own an LQ slot");
                        if !deferred_now {
                            self.stats.deferred_loads += 1;
                        }
                        self.lq[li] = Some(LqEntry {
                            seq,
                            state: LqState::Deferred { line: addr.line() },
                        });
                        *budget -= 1;
                    }
                    Ok(out) => {
                        self.obs.emit_with(now, || SimEvent::LoadIssue {
                            core: self.core.index(),
                            seq,
                            line: addr.line().raw(),
                            path: PathKind::from(out.path),
                            spec: is_spec,
                            latency: out.complete_at - now,
                        });
                        let li = self.rob[i].lq.expect("loads own an LQ slot");
                        self.lq[li] = Some(LqEntry {
                            seq,
                            state: LqState::Inflight {
                                line: addr.line(),
                                token: out.token,
                                path: out.path,
                                issued_spec: is_spec,
                                prov: out.provenance,
                            },
                        });
                        if is_spec {
                            self.stats.spec_issued_loads += 1;
                        }
                        let e = &mut self.rob[i];
                        e.result = Some(dmem.read(addr));
                        e.status = Status::Issued {
                            done_at: out.complete_at,
                        };
                        *budget -= 1;
                    }
                    Err(_) => {
                        // MSHRs full: retry next cycle.
                        self.mshr_blocked = true;
                        *budget -= 1;
                    }
                }
            }
            Inst::Store { offset, .. } => {
                if self.sched.fences.has_older(seq) {
                    return;
                }
                let (Some(base), Some(val)) = (self.operand(i, 0), self.operand(i, 1)) else {
                    return;
                };
                let addr = Addr::new(base.wrapping_add(offset as u64));
                let si = self.rob[i].sq.expect("stores own an SQ slot");
                self.sq[si] = Some(SqEntry {
                    seq,
                    addr: Some(addr),
                    value: Some(val),
                });
                self.rob[i].status = Status::Issued { done_at: now + 1 };
                *budget -= 1;
            }
            Inst::Branch { cond, target, .. } => {
                let Some(v) = self.operand(i, 0) else {
                    return;
                };
                let taken = cond.taken(v);
                let e = &mut self.rob[i];
                e.actual_taken = taken;
                e.actual_target = if taken { target } else { e.pc + 1 };
                e.status = Status::Issued {
                    done_at: now + self.cfg.branch_latency,
                };
                *budget -= 1;
            }
            Inst::Jump { target } => {
                let e = &mut self.rob[i];
                e.actual_taken = true;
                e.actual_target = target;
                e.status = Status::Issued { done_at: now + 1 };
                *budget -= 1;
            }
            Inst::Call { target } => {
                let e = &mut self.rob[i];
                e.result = Some((e.pc + 1) as u64);
                e.actual_taken = true;
                e.actual_target = target;
                e.status = Status::Issued { done_at: now + 1 };
                *budget -= 1;
            }
            Inst::Ret => {
                let Some(link) = self.operand(i, 0) else {
                    return;
                };
                let e = &mut self.rob[i];
                e.actual_taken = true;
                e.actual_target = link as Pc;
                e.status = Status::Issued {
                    done_at: now + self.cfg.branch_latency,
                };
                *budget -= 1;
            }
            Inst::Clflush { offset, .. } => {
                let Some(base) = self.operand(i, 0) else {
                    return;
                };
                let e = &mut self.rob[i];
                // Address computed now; the flush itself happens at
                // commit (delayed to the correct path, Section 3.5).
                e.result = Some(base.wrapping_add(offset as u64));
                e.status = Status::Issued { done_at: now + 1 };
                *budget -= 1;
            }
        }
    }

    /// Resolves source operand `k` of ROB entry `i`: `None` until the
    /// producer is done. A producer that already committed left its value
    /// in the architectural register file — no younger writer of that
    /// register can commit before this consumer does.
    fn operand(&self, i: usize, k: usize) -> Option<u64> {
        let e = &self.rob[i];
        match e.srcs[k]? {
            Src::Ready(v) => Some(v),
            Src::Wait(seq) => match self.rob_index(seq) {
                Some(p) if self.rob[p].status == Status::Done => self.rob[p].result,
                Some(_) => None,
                None => Self::src_reg(e.inst, k).map(|r| self.regs[r.index()]),
            },
        }
    }

    /// The first in-flight producer, not yet done, whose result ROB entry
    /// `i` needs — exactly when [`Self::operand`] returns `None`.
    fn unready_producer(&self, i: usize) -> Option<u64> {
        self.rob[i].srcs.iter().find_map(|src| match *src {
            Some(Src::Wait(p)) => self
                .rob_index(p)
                .filter(|&pi| self.rob[pi].status != Status::Done)
                .map(|_| p),
            _ => None,
        })
    }

    fn src_reg(inst: Inst, k: usize) -> Option<Reg> {
        use crate::isa::Operand as Op;
        match (inst, k) {
            (
                Inst::Alu {
                    src1: Op::Reg(r), ..
                },
                0,
            ) => Some(r),
            (
                Inst::Alu {
                    src2: Op::Reg(r), ..
                },
                1,
            ) => Some(r),
            (Inst::Load { base, .. }, 0) => Some(base),
            (Inst::Store { base, .. }, 0) => Some(base),
            (Inst::Store { src, .. }, 1) => Some(src),
            (Inst::Branch { src, .. }, 0) => Some(src),
            (Inst::Ret, 0) => Some(LINK_REG),
            (Inst::Clflush { base, .. }, 0) => Some(base),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Fetch / dispatch
    // ------------------------------------------------------------------

    /// Fetches and dispatches up to `fetch_width` instructions. Returns
    /// whether any was dispatched.
    fn fetch(&mut self, now: Cycle) -> bool {
        if now < self.fetch_stall_until {
            self.stats.fetch_stall_cycles += 1;
            return false;
        }
        if self.fetch_halted || self.halted {
            return false;
        }
        let first = self.next_seq;
        for _ in 0..self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_entries {
                break;
            }
            let pc = self.fetch_pc;
            let inst = self.program.fetch(pc);
            // Queue slots.
            let lq = if inst.is_load() {
                match self.free_lq_slot() {
                    Some(s) => Some(s),
                    None => break,
                }
            } else {
                None
            };
            let sq = if matches!(inst, Inst::Store { .. }) {
                match self.free_slot_sq() {
                    Some(s) => Some(s),
                    None => break,
                }
            } else {
                None
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            // Dependency capture.
            let srcs = self.capture_srcs(inst);
            // Control-flow prediction and next fetch PC.
            let (pred_taken, pred_target, next_pc, halt_fetch) = match inst {
                Inst::Branch { target, .. } => {
                    let t = self.pred.predict(pc);
                    let tgt = if t { target } else { pc + 1 };
                    (t, tgt, tgt, false)
                }
                Inst::Jump { target } => (true, target, target, false),
                Inst::Call { target } => {
                    self.pred.ras_push(pc + 1);
                    (true, target, target, false)
                }
                Inst::Ret => {
                    let tgt = self
                        .pred
                        .ras_pop()
                        .or_else(|| self.pred.btb_lookup(pc))
                        .unwrap_or(pc + 1);
                    (true, tgt, tgt, false)
                }
                Inst::Halt => (false, pc + 1, pc + 1, true),
                _ => (false, pc + 1, pc + 1, false),
            };
            let dst = match inst {
                Inst::Alu { dst, .. } | Inst::Load { dst, .. } => Some(dst),
                Inst::Call { .. } => Some(LINK_REG),
                _ => None,
            };
            if let Some(li) = lq {
                self.lq[li] = Some(LqEntry {
                    seq,
                    state: LqState::NotIssued,
                });
                self.lq_free.remove(li);
            }
            if let Some(si) = sq {
                self.sq[si] = Some(SqEntry {
                    seq,
                    addr: None,
                    value: None,
                });
                self.sq_free.remove(si);
            }
            self.obs.emit_with(now, || SimEvent::Dispatch {
                core: self.core.index(),
                seq,
                pc: pc as u64,
            });
            self.rob.push_back(RobEntry {
                seq,
                pc,
                inst,
                status: Status::Waiting,
                srcs,
                result: None,
                dst,
                pred_taken,
                pred_target,
                actual_taken: false,
                actual_target: 0,
                mispredict_pending: false,
                lq,
                sq,
                commit_ready_at: None,
                committed_scheme_done: false,
                faulting: false,
                parked_on: None,
            });
            // A dependent whose producer is not done could only be parked
            // by the issue stage's first look at it: park it now.
            match self.unready_producer(self.rob.len() - 1) {
                Some(p) => {
                    self.rob.back_mut().expect("just pushed").parked_on = Some(p);
                    self.sched.wakeup_slot(p).push(seq);
                }
                None => {
                    let pos = self.sched.ring_pos(seq);
                    self.sched.waiting.insert(pos);
                }
            }
            if inst.is_control() || inst.is_load() {
                self.sched.squash_sources.push(seq);
            }
            match inst {
                Inst::Fence => self.sched.fences.push(seq),
                Inst::Store { .. } => self.sched.addrless_stores.push(seq),
                _ => {}
            }
            if let Some(d) = dst {
                self.last_writer[d.index()] = Some(seq);
            }
            self.fetch_pc = next_pc;
            if halt_fetch {
                self.fetch_halted = true;
                break;
            }
        }
        self.next_seq != first
    }

    fn capture_srcs(&self, inst: Inst) -> [Option<Src>; 2] {
        use crate::isa::Operand as Op;
        let cap_reg = |r: Reg| match self.last_writer[r.index()] {
            Some(seq) => Src::Wait(seq),
            None => Src::Ready(self.regs[r.index()]),
        };
        let cap_op = |o: Op| match o {
            Op::Reg(r) => cap_reg(r),
            Op::Imm(v) => Src::Ready(v as u64),
        };
        match inst {
            Inst::Alu { src1, src2, .. } => [Some(cap_op(src1)), Some(cap_op(src2))],
            Inst::Load { base, .. } => [Some(cap_reg(base)), None],
            Inst::Store { base, src, .. } => [Some(cap_reg(base)), Some(cap_reg(src))],
            Inst::Branch { src, .. } => [Some(cap_reg(src)), None],
            Inst::Ret => [Some(cap_reg(LINK_REG)), None],
            Inst::Clflush { base, .. } => [Some(cap_reg(base)), None],
            _ => [None, None],
        }
    }

    /// The first free LQ slot, if more slots are free than InvisiSpec
    /// update loads hold (a held slot is free in `lq` but still taken).
    fn free_lq_slot(&self) -> Option<usize> {
        let first = self.lq_free.first()?;
        (self.lq_free.count() > self.lq_held.len()).then_some(first)
    }

    fn free_slot_sq(&self) -> Option<usize> {
        self.sq_free.first()
    }

    fn free_lq(&mut self, li: usize) {
        self.lq[li] = None;
        self.lq_free.insert(li);
    }

    fn free_sq(&mut self, si: usize) {
        self.sq[si] = None;
        self.sq_free.insert(si);
    }

    /// Debug-build invariant check, run after every tick: recomputes each
    /// worklist and the pending-mispredict slot from the ROB/LQ/SQ with
    /// full scans and asserts they match, and checks that ROB seqs are
    /// dense (`rob[seq - head].seq == seq`), which `rob_index` relies on.
    #[cfg(debug_assertions)]
    fn check_worklists(&self) {
        let head = self.rob.front().map_or(self.next_seq, |e| e.seq);
        for (i, e) in self.rob.iter().enumerate() {
            assert_eq!(e.seq, head + i as u64, "ROB seqs are dense");
        }
        assert_eq!(head + self.rob.len() as u64, self.next_seq, "next seq");
        let scan = |keep: fn(&RobEntry) -> bool| -> Vec<u64> {
            self.rob.iter().filter(|e| keep(e)).map(|e| e.seq).collect()
        };
        let list = |l: &SeqList| l.0.iter().copied().collect::<Vec<u64>>();
        let w = &self.sched;
        // Ring positions are unique among live seqs, so set equality also
        // rules out a stray bit of a squashed or parked seq.
        let mut waiting = BitSet::new(w.waiting.size);
        for seq in scan(|e| e.status == Status::Waiting && e.parked_on.is_none()) {
            waiting.insert(w.ring_pos(seq));
        }
        assert_eq!(w.waiting, waiting, "waiting ring");
        fn free_slots<T>(q: &[Option<T>]) -> BitSet {
            let mut free = BitSet::new(q.len());
            for (i, _) in q.iter().enumerate().filter(|(_, x)| x.is_none()) {
                free.insert(i);
            }
            free
        }
        assert_eq!(self.lq_free, free_slots(&self.lq), "free LQ slots");
        assert_eq!(self.sq_free, free_slots(&self.sq), "free SQ slots");
        for e in &self.rob {
            let Some(p) = e.parked_on else { continue };
            assert_eq!(e.status, Status::Waiting, "parked seq {}", e.seq);
            let pi = self
                .rob_index(p)
                .expect("producer of a parked entry is live");
            assert_ne!(self.rob[pi].status, Status::Done, "producer {p} done");
            assert!(e
                .srcs
                .iter()
                .any(|s| matches!(s, Some(Src::Wait(q)) if *q == p)));
            let slot = &w.wakeups[(p & (w.wakeups.len() as u64 - 1)) as usize];
            assert!(
                slot.contains(&e.seq),
                "seq {} missing from wakeups of {p}",
                e.seq
            );
        }
        assert_eq!(list(&w.squash_sources), scan(is_squash_source));
        assert_eq!(
            list(&w.fences),
            scan(|e| matches!(e.inst, Inst::Fence) && e.status != Status::Done)
        );
        let mut addrless: Vec<u64> = self
            .sq
            .iter()
            .flatten()
            .filter(|s| s.addr.is_none())
            .map(|s| s.seq)
            .collect();
        addrless.sort_unstable();
        assert_eq!(list(&w.addrless_stores), addrless);
        // The lane holds only entries issued this tick, none of them
        // squashed since: each is live and due exactly at `lane_at`.
        assert!(w.lane.windows(2).all(|p| p[0] < p[1]), "lane in seq order");
        for &seq in &w.lane {
            let i = self.rob_index(seq).expect("lane seq is live");
            assert_eq!(
                self.rob[i].status,
                Status::Issued { done_at: w.lane_at },
                "lane seq {seq}"
            );
        }
        // Every issued entry has its completion item, in the lane or in
        // the heap. (The heap may also hold an item of a squashed entry
        // whose seq was reused, even one with the same `done_at`; it is
        // skipped when drained, once the live one completed.)
        let mut items: Vec<(Cycle, u64)> = w.completions.iter().map(|r| r.0).collect();
        items.sort_unstable();
        for e in &self.rob {
            if let Status::Issued { done_at } = e.status {
                let in_lane = done_at == w.lane_at && w.lane.binary_search(&e.seq).is_ok();
                let in_heap = items.binary_search(&(done_at, e.seq)).is_ok();
                assert!(
                    in_lane || in_heap,
                    "issued seq {} has no completion item at {done_at}",
                    e.seq
                );
            }
        }
        let pending = self
            .rob
            .iter()
            .find(|e| e.mispredict_pending && e.status == Status::Done)
            .map(|e| e.seq);
        assert_eq!(w.mispredict, pending, "pending mispredict");
        let pending = &w.visibility_pending;
        assert!(pending.windows(2).all(|p| p[0].0 < p[1].0));
        for (li, lqe) in self.lq.iter().enumerate() {
            if let Some(LqEntry {
                seq,
                state:
                    LqState::Done {
                        line: Some(_),
                        visible_done: false,
                        ..
                    },
            }) = *lqe
            {
                let k = pending.binary_search_by_key(&li, |&(slot, _)| slot);
                let k = k.unwrap_or_else(|_| panic!("LQ slot {li} not pending"));
                assert_eq!(pending[k].1, seq, "pending seq of LQ slot {li}");
            }
        }
    }

    /// Debug-build check of [`Self::quiet_until`], run after every tick:
    /// re-derives the earliest cycle a quiet core can act by a full ROB
    /// scan and asserts the worklist bound is not later. The scan's
    /// `Issued` entries cover both completion worklists, the heap and the
    /// one-cycle lane. After a quiet tick the bound must also lie ahead of
    /// `now`, or the tick would not have been quiet, and the lane must be
    /// empty: only a charged issue slot fills it.
    #[cfg(debug_assertions)]
    fn check_quiet_bound(&self, now: Cycle) {
        if self.halted {
            return;
        }
        let ahead = |c: Cycle| if c > now { c } else { Cycle::MAX };
        let issued = self.rob.iter().filter_map(|e| match e.status {
            Status::Issued { done_at } => Some(done_at),
            _ => None,
        });
        let gate = self
            .rob
            .front()
            .filter(|e| e.status == Status::Done)
            .and_then(|e| e.commit_ready_at);
        let scan = issued
            .chain(self.lq_held.iter().copied())
            .chain(gate)
            .chain([
                ahead(self.fetch_stall_until),
                ahead(self.cleanup_stall_until),
            ])
            .min()
            .unwrap_or(Cycle::MAX);
        let bound = self.quiet_until(now);
        assert!(
            bound <= scan,
            "core {}: quiet bound {bound} later than scanned wake {scan}",
            self.core.index()
        );
        if self.last_tick.is_quiet() {
            assert!(bound > now, "quiet tick at {now} with wake bound {bound}");
            assert!(
                self.sched.lane.is_empty(),
                "quiet tick at {now} filled the lane"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, BranchCond, Operand, ProgramBuilder};
    use cleanupspec_mem::error::SimError;
    use cleanupspec_mem::hierarchy::{LoadReq, MemConfig};
    use cleanupspec_obs::{RingSink, Shared};

    /// Minimal pass-through scheme used to unit-test the pipeline alone.
    #[derive(Clone, Debug)]
    struct Plain;

    impl SpeculationScheme for Plain {
        fn name(&self) -> &'static str {
            "plain"
        }
        fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
            Box::new(self.clone())
        }
        fn issue_load(
            &mut self,
            mem: &mut MemHierarchy,
            req: LoadIssue,
        ) -> Result<cleanupspec_mem::hierarchy::LoadOutcome, SimError> {
            mem.load(req.core, req.line, req.now, LoadReq::non_spec(LoadId(0)))
        }
        fn commit_load(
            &mut self,
            _mem: &mut MemHierarchy,
            _core: CoreId,
            _load: CommittedLoad,
            _now: Cycle,
        ) -> CommitAction {
            CommitAction::Proceed
        }
        fn on_squash(
            &mut self,
            mem: &mut MemHierarchy,
            info: SquashInfo<'_>,
        ) -> crate::scheme::SquashResponse {
            // Orphan inflight squashed loads like a non-secure core.
            for l in info.loads {
                if let SquashedLoadState::Inflight { token: Some(t), .. } = l.state {
                    let _ = t;
                }
            }
            let _ = mem;
            crate::scheme::SquashResponse {
                resume_at: info.now,
            }
        }
    }

    /// `Plain`, additionally recording every load issued to the cache
    /// (`(line, is_spec)`) and every visibility-point call (its line, and
    /// the cycle in `visible_at`).
    #[derive(Clone, Debug, Default)]
    struct Recorder {
        issued: Vec<(LineAddr, bool)>,
        visible: Vec<LineAddr>,
        visible_at: Vec<Cycle>,
    }

    impl SpeculationScheme for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
            Box::new(self.clone())
        }
        fn issue_load(
            &mut self,
            mem: &mut MemHierarchy,
            req: LoadIssue,
        ) -> Result<cleanupspec_mem::hierarchy::LoadOutcome, SimError> {
            self.issued.push((req.line, req.is_spec));
            Plain.issue_load(mem, req)
        }
        fn on_load_visible(
            &mut self,
            _mem: &mut MemHierarchy,
            _core: CoreId,
            load: CommittedLoad,
            now: Cycle,
        ) -> Option<Cycle> {
            self.visible.push(load.line);
            self.visible_at.push(now);
            None
        }
        fn commit_load(
            &mut self,
            _mem: &mut MemHierarchy,
            _core: CoreId,
            _load: CommittedLoad,
            _now: Cycle,
        ) -> CommitAction {
            CommitAction::Proceed
        }
        fn on_squash(
            &mut self,
            _mem: &mut MemHierarchy,
            info: SquashInfo<'_>,
        ) -> crate::scheme::SquashResponse {
            crate::scheme::SquashResponse {
                resume_at: info.now,
            }
        }
    }

    fn run_program(p: crate::isa::Program, max_cycles: Cycle) -> (Pipeline, MemHierarchy) {
        run_with(p, &mut Plain, Observer::disabled(), max_cycles)
    }

    fn run_with(
        p: crate::isa::Program,
        scheme: &mut dyn SpeculationScheme,
        obs: Observer,
        max_cycles: Cycle,
    ) -> (Pipeline, MemHierarchy) {
        let mut pipe = Pipeline::new(CoreId(0), CoreConfig::default(), Arc::new(p));
        pipe.set_observer(obs);
        let (mut mem, _, now) = run_watched(&mut pipe, scheme, max_cycles, |_, _| {});
        // Drain outstanding fills (e.g. orphaned wrong-path misses).
        mem.advance(now + 1_000);
        pipe.stats_mut().cycles = now;
        (pipe, mem)
    }

    /// Ticks `p` until it halts or `max_cycles` pass, calling `watch`
    /// after every tick; returns the memory system, the data memory and
    /// the last cycle.
    fn run_watched(
        p: &mut Pipeline,
        scheme: &mut dyn SpeculationScheme,
        max_cycles: Cycle,
        mut watch: impl FnMut(&Pipeline, Cycle),
    ) -> (MemHierarchy, DataMem, Cycle) {
        let mut mem = MemHierarchy::new(MemConfig::default());
        let mut dmem = DataMem::new();
        for (a, v) in &p.program.init_mem {
            dmem.write(*a, *v);
        }
        let mut now = 0;
        while !p.halted() && now < max_cycles {
            now += 1;
            mem.advance(now);
            p.tick(scheme, &mut mem, &mut dmem, now);
            watch(p, now);
        }
        (mem, dmem, now)
    }

    #[test]
    fn straight_line_alu_computes() {
        let mut b = ProgramBuilder::new("alu");
        b.movi(Reg(1), 10);
        b.movi(Reg(2), 32);
        b.alu(
            Reg(3),
            AluOp::Add,
            Operand::Reg(Reg(1)),
            Operand::Reg(Reg(2)),
        );
        b.halt();
        let (pipe, _) = run_program(b.build(), 1000);
        assert!(pipe.halted());
        assert_eq!(pipe.reg(Reg(3)), 42);
        assert_eq!(pipe.stats().committed_insts, 4);
    }

    #[test]
    fn load_reads_initialized_memory() {
        let mut b = ProgramBuilder::new("ld");
        b.movi(Reg(1), 0x1000);
        b.load(Reg(2), Reg(1), 8);
        b.halt();
        b.init_mem(Addr::new(0x1008), 777);
        let (pipe, mem) = run_program(b.build(), 1000);
        assert_eq!(pipe.reg(Reg(2)), 777);
        assert_eq!(mem.stats().total_loads(), 1);
    }

    #[test]
    fn store_then_load_forwards_and_commits() {
        let mut b = ProgramBuilder::new("st-ld");
        b.movi(Reg(1), 0x2000);
        b.movi(Reg(2), 99);
        b.store(Reg(2), Reg(1), 0);
        b.load(Reg(3), Reg(1), 0);
        b.halt();
        let (pipe, _) = run_program(b.build(), 1000);
        assert_eq!(pipe.reg(Reg(3)), 99);
        assert!(pipe.stats().forwarded_loads >= 1, "SQ forwarding used");
        assert_eq!(pipe.stats().committed_stores, 1);
    }

    #[test]
    fn taken_loop_executes_n_times() {
        // r1 = 5; loop: r1 -= 1; branch r1 != 0 -> loop; halt
        let mut b = ProgramBuilder::new("loop");
        b.movi(Reg(1), 5);
        let loop_top = b.here();
        b.alu(Reg(1), AluOp::Sub, Operand::Reg(Reg(1)), Operand::Imm(1));
        b.branch(Reg(1), BranchCond::NotZero, loop_top);
        b.halt();
        let (pipe, _) = run_program(b.build(), 5000);
        assert!(pipe.halted());
        assert_eq!(pipe.reg(Reg(1)), 0);
        assert_eq!(pipe.stats().committed_branches, 5);
        // The final not-taken iteration is typically mispredicted.
        assert!(pipe.stats().mispredicts >= 1);
        assert!(pipe.stats().squashes >= 1);
    }

    #[test]
    fn wrong_path_load_pollutes_cache_with_plain_scheme() {
        // Branch is actually TAKEN (skipping the load) but the predictor
        // starts not-taken, so the load runs transiently on the wrong path
        // and — with a non-secure scheme — stays in the cache.
        let secret_addr = 0x8000u64;
        let mut b = ProgramBuilder::new("wrongpath");
        b.movi(Reg(1), 1); // condition: non-zero -> taken
        b.movi(Reg(2), secret_addr);
        // Give the branch a data dependency so it resolves late enough for
        // the wrong path to issue the load.
        b.alu(Reg(3), AluOp::Mul, Operand::Reg(Reg(1)), Operand::Imm(1));
        b.alu(Reg(3), AluOp::Mul, Operand::Reg(Reg(3)), Operand::Imm(1));
        b.alu(Reg(3), AluOp::Mul, Operand::Reg(Reg(3)), Operand::Imm(1));
        let br = b.branch(Reg(3), BranchCond::NotZero, 0);
        b.load(Reg(4), Reg(2), 0); // wrong path
        let target = b.here();
        b.patch_branch(br, target);
        b.halt();
        let (pipe, mem) = run_program(b.build(), 2000);
        assert!(pipe.halted());
        assert!(pipe.stats().squashes >= 1, "branch mispredicted once");
        assert!(pipe.stats().squashed_insts >= 1);
        // The wrong-path line was fetched into the hierarchy (the Plain
        // scheme retains or at least initiated it).
        let line = Addr::new(secret_addr).line();
        let polluted = mem.l1(CoreId(0)).probe(line).is_some() || mem.l2().probe(line).is_some();
        assert!(polluted, "wrong-path install should be visible (insecure)");
        // And r4 must NOT be architecturally written.
        assert_eq!(pipe.reg(Reg(4)), 0);
    }

    #[test]
    fn call_ret_roundtrip() {
        let mut b = ProgramBuilder::new("callret");
        let call_at = b.call(0);
        b.movi(Reg(2), 7); // executed after return
        b.halt();
        let fun = b.here();
        b.movi(Reg(1), 5);
        b.ret();
        b.patch_branch(call_at, fun);
        let (pipe, _) = run_program(b.build(), 1000);
        assert!(pipe.halted());
        assert_eq!(pipe.reg(Reg(1)), 5);
        assert_eq!(pipe.reg(Reg(2)), 7);
    }

    #[test]
    fn fence_waits_for_oldest() {
        let mut b = ProgramBuilder::new("fence");
        b.movi(Reg(1), 0x3000);
        b.load(Reg(2), Reg(1), 0);
        b.fence();
        b.movi(Reg(3), 1);
        b.halt();
        let (pipe, _) = run_program(b.build(), 2000);
        assert!(pipe.halted());
        assert_eq!(pipe.reg(Reg(3)), 1);
    }

    #[test]
    fn squashed_loads_are_classified() {
        // Misprediction with a wrong-path load that misses: Table 5 classes
        // must be populated.
        let mut b = ProgramBuilder::new("classify");
        b.movi(Reg(1), 1);
        b.movi(Reg(2), 0x9000);
        b.alu(Reg(3), AluOp::Mul, Operand::Reg(Reg(1)), Operand::Imm(1));
        b.alu(Reg(3), AluOp::Mul, Operand::Reg(Reg(3)), Operand::Imm(1));
        let br = b.branch(Reg(3), BranchCond::NotZero, 0);
        b.load(Reg(4), Reg(2), 0);
        b.load(Reg(5), Reg(2), 4096);
        let t = b.here();
        b.patch_branch(br, t);
        b.halt();
        let (pipe, _) = run_program(b.build(), 2000);
        let s = pipe.stats();
        assert!(s.squashed_loads() >= 1, "wrong-path loads recorded");
    }

    #[test]
    fn load_waits_for_an_older_store_address() {
        // The store's address comes out of a long Mul chain; the younger
        // load's address is known at once. The load must wait for the
        // store's address, then forward from it without touching the cache
        // (an early issue would read the stale 11 from memory).
        let mut b = ProgramBuilder::new("st-addr-wait");
        b.movi(Reg(1), 0x2000);
        for _ in 0..8 {
            b.alu(Reg(1), AluOp::Mul, Operand::Reg(Reg(1)), Operand::Imm(1));
        }
        b.movi(Reg(2), 55);
        b.store(Reg(2), Reg(1), 0);
        b.movi(Reg(3), 0x2000);
        b.load(Reg(4), Reg(3), 0);
        b.halt();
        b.init_mem(Addr::new(0x2000), 11);
        let (pipe, mem) = run_program(b.build(), 2000);
        assert!(pipe.halted());
        assert_eq!(pipe.reg(Reg(4)), 55);
        assert_eq!(pipe.stats().forwarded_loads, 1);
        assert_eq!(
            mem.stats().total_loads(),
            0,
            "the load never reached the cache"
        );
    }

    #[test]
    fn stale_completion_of_a_squashed_seq_is_skipped() {
        // seq 1-3: movi; 4-5: mul chain; 6: branch, actually taken but
        // predicted not-taken. Wrong path: 7 and 8 DRAM-miss loads, 9 halt.
        // After the squash the correct path reuses 7-9: 7 a later DRAM-miss
        // load, 8 an add waiting on it, 9 halt. The wrong-path loads fall
        // due first; their completion items must neither finish load 7
        // before its own data arrives nor finish the still-waiting add.
        let mut b = ProgramBuilder::new("seq-reuse");
        b.movi(Reg(1), 1);
        b.movi(Reg(2), 0x9000);
        b.movi(Reg(6), 0xA000);
        b.alu(Reg(3), AluOp::Mul, Operand::Reg(Reg(1)), Operand::Imm(1));
        b.alu(Reg(3), AluOp::Mul, Operand::Reg(Reg(3)), Operand::Imm(1));
        let br = b.branch(Reg(3), BranchCond::NotZero, 0);
        b.load(Reg(4), Reg(2), 0);
        b.load(Reg(8), Reg(2), 0x40);
        b.halt();
        let target = b.here();
        b.patch_branch(br, target);
        b.load(Reg(5), Reg(6), 0);
        b.alu(Reg(7), AluOp::Add, Operand::Reg(Reg(5)), Operand::Imm(1));
        b.halt();
        b.init_mem(Addr::new(0x9000), 99);
        b.init_mem(Addr::new(0xA000), 41);
        let ring = Shared::new(RingSink::new(1024));
        let obs = Observer::single(Box::new(ring.clone()));
        let (pipe, _) = run_with(b.build(), &mut Plain, obs, 5000);
        // (seq, cycle the load is due) of every load, in issue order, and
        // the commit cycle of the correct-path load.
        let (loads, commit7): (Vec<(u64, Cycle)>, Vec<Cycle>) = ring.with(|r| {
            let loads = r
                .events()
                .filter_map(|rec| match rec.event {
                    SimEvent::LoadIssue { seq, latency, .. } => Some((seq, rec.cycle + latency)),
                    _ => None,
                })
                .collect();
            let commit7 = r
                .events()
                .filter(|rec| matches!(rec.event, SimEvent::Commit { seq: 7, .. }))
                .map(|rec| rec.cycle)
                .collect();
            (loads, commit7)
        });
        let [(7, wrong7), (8, wrong8), (7, right7)] = loads[..] else {
            panic!("wrong-path loads 7 and 8, then correct-path load 7: {loads:?}");
        };
        assert!(wrong7.max(wrong8) < right7, "{loads:?}");
        assert!(commit7[0] >= right7, "load 7 finished with its own data");
        assert!(pipe.halted());
        assert_eq!(pipe.reg(Reg(5)), 41);
        assert_eq!(pipe.reg(Reg(7)), 42, "the add completed with its operand");
        assert_eq!((pipe.reg(Reg(4)), pipe.reg(Reg(8))), (0, 0));
        assert_eq!(pipe.stats().committed_insts, 9);
        assert_eq!(pipe.stats().mispredicts, 1);
        assert_eq!(pipe.stats().squashes, 1);
    }

    #[test]
    fn faulting_load_keeps_younger_loads_squashable() {
        // A warm-up load brings the probe line into L1; the protected
        // load completes, then waits at the ROB head for its deferred
        // permission check. The probe load, whose address depends on the
        // protected value, issues and completes inside that window: it must
        // issue as speculative and never reach its visibility point.
        let secret = 0x8000u64;
        let mut b = ProgramBuilder::new("fault-window");
        b.protect(Addr::new(secret), Addr::new(secret + 64));
        b.movi(Reg(1), secret);
        b.movi(Reg(2), 0x5000);
        b.load(Reg(7), Reg(2), 0);
        b.load(Reg(3), Reg(1), 0);
        b.alu(Reg(5), AluOp::And, Operand::Reg(Reg(3)), Operand::Imm(0));
        b.alu(
            Reg(6),
            AluOp::Add,
            Operand::Reg(Reg(2)),
            Operand::Reg(Reg(5)),
        );
        b.load(Reg(4), Reg(6), 0);
        b.halt();
        b.init_mem(Addr::new(0x5000), 3);
        let mut rec = Recorder::default();
        let (pipe, _) = run_with(b.build(), &mut rec, Observer::disabled(), 5000);
        assert!(pipe.halted());
        assert_eq!(pipe.stats().faults, 1);
        assert_eq!(pipe.reg(Reg(7)), 3, "the warm-up load committed");
        assert_eq!(pipe.reg(Reg(4)), 0, "the probe load was squashed");
        let (probe, secret_line) = (Addr::new(0x5000).line(), Addr::new(secret).line());
        assert_eq!(
            rec.issued,
            vec![(probe, false), (secret_line, false), (probe, true)]
        );
        assert_eq!(
            rec.visible,
            vec![probe, secret_line],
            "probe load never visible"
        );
    }

    #[test]
    fn visibility_hooks_wait_for_the_older_branch_then_fire_in_slot_order() {
        // Warm-up loads bring lines A and B into L1; the fence holds every
        // later load until they committed and freed their LQ slots. Then: w0 misses to DRAM (LQ slot 0); a two-load pointer chase
        // (slots 1 and 2) feeds a branch, correctly predicted not-taken, that
        // resolves only after the second DRAM round trip. Under it, load A
        // hits L1 at once (slot 3). Nops fill the ROB, so load B dispatches
        // only when w0 commits, and takes the slot w0 freed (slot 0): B is
        // younger than A but sits in a lower slot.
        let (a, bb) = (0x5000u64, 0x6040u64);
        let mut b = ProgramBuilder::new("visibility-gate");
        b.movi(Reg(2), a);
        b.movi(Reg(3), bb);
        b.movi(Reg(1), 0x20000);
        b.movi(Reg(11), 0x7000);
        b.load(Reg(8), Reg(2), 0);
        b.load(Reg(9), Reg(3), 0);
        b.fence();
        b.load(Reg(7), Reg(11), 0);
        b.load(Reg(4), Reg(1), 0);
        b.load(Reg(10), Reg(4), 0);
        let br = b.branch(Reg(10), BranchCond::NotZero, 0);
        b.load(Reg(5), Reg(2), 0);
        for _ in 0..CoreConfig::default().rob_entries - 5 {
            b.emit(Inst::Nop);
        }
        b.load(Reg(6), Reg(3), 0);
        let end = b.halt();
        b.patch_branch(br, end);
        b.init_mem(Addr::new(0x20000), 0x30000);
        b.init_mem(Addr::new(0x30000), 0);
        b.init_mem(Addr::new(a), 1);
        b.init_mem(Addr::new(bb), 2);
        let ring = Shared::new(RingSink::new(4096));
        let obs = Observer::single(Box::new(ring.clone()));
        let mut rec = Recorder::default();
        let (pipe, _) = run_with(b.build(), &mut rec, obs, 5000);
        assert!(pipe.halted());
        assert_eq!(pipe.stats().mispredicts, 0);
        assert_eq!((pipe.reg(Reg(5)), pipe.reg(Reg(6))), (1, 2));
        // The cycle the branch resolved (it commits in the same tick) and
        // the cycles loads A and B (the last two issued) completed.
        let (resolved, loads) = ring.with(|r| {
            let resolved = r
                .events()
                .find_map(|rec| match rec.event {
                    SimEvent::Commit { pc, .. } if pc == br as u64 => Some(rec.cycle),
                    _ => None,
                })
                .expect("branch committed");
            let loads: Vec<Cycle> = r
                .events()
                .filter_map(|rec| match rec.event {
                    SimEvent::LoadIssue { latency, .. } => Some(rec.cycle + latency),
                    _ => None,
                })
                .collect();
            (resolved, loads)
        });
        let [.., done_a, done_b] = loads[..] else {
            panic!("loads A and B issued: {loads:?}");
        };
        assert!(
            done_a.max(done_b) < resolved,
            "A and B completed under the branch"
        );
        let (line_a, line_b) = (Addr::new(a).line(), Addr::new(bb).line());
        // Warm-up A and B, w0, the chase: all before the branch resolved.
        let (early, late) = rec.visible.split_at(5);
        assert_eq!(
            early,
            [
                line_a,
                line_b,
                Addr::new(0x7000).line(),
                Addr::new(0x20000).line(),
                Addr::new(0x30000).line()
            ]
        );
        assert!(rec.visible_at[..5].iter().all(|&c| c < resolved));
        // Then each of A and B exactly once, in LQ-slot order, in the tick
        // the branch resolved.
        assert_eq!(late, [line_b, line_a]);
        assert_eq!(rec.visible_at[5..], [resolved, resolved]);
    }

    /// The seqs in `from..end` whose ring positions are members of `set`,
    /// found by the issue stage's walk.
    fn ring_walk(set: &BitSet, from: u64, end: u64) -> Vec<u64> {
        let mut seqs = Vec::new();
        let mut seq = from;
        while let Some(d) =
            set.next_circular((seq % set.size as u64) as usize, (end - seq) as usize)
        {
            seq += d as u64;
            seqs.push(seq);
            seq += 1;
        }
        seqs
    }

    #[test]
    fn bit_set_walks_a_ring_in_seq_order() {
        let mut ring = BitSet::new(256);
        let pos = |seq: u64| (seq % 256) as usize;
        // Members straddling the wrap: positions 254, 255, 0, 1, 2.
        for seq in 254..=258 {
            ring.insert(pos(seq));
        }
        assert_eq!(ring_walk(&ring, 200, 300), [254, 255, 256, 257, 258]);
        assert_eq!(ring_walk(&ring, 256, 300), [256, 257, 258]);
        // The walk stops at its end bound, also across the wrap.
        assert_eq!(ring_walk(&ring, 200, 256), [254, 255]);
        assert_eq!(ring.next_circular(250, 4), None);
        assert_eq!(ring.next_circular(250, 5), Some(4));
        assert_eq!(ring.next_circular(3, 251), None);
        assert_eq!(ring.next_circular(3, 252), Some(251));
        // A squash removes the seqs it pops; their positions are reused.
        for seq in 256..=258 {
            ring.remove(pos(seq));
        }
        assert_eq!(ring_walk(&ring, 200, 300), [254, 255]);
        ring.insert(pos(257));
        assert_eq!(ring_walk(&ring, 200, 300), [254, 255, 257]);
        assert_eq!(ring.count(), 3);
    }

    #[test]
    fn bit_set_crosses_word_boundaries() {
        let mut set = BitSet::new(128);
        set.insert(63);
        set.insert(64);
        assert_eq!(set.first(), Some(63));
        assert_eq!(set.next_circular(0, 128), Some(63));
        assert_eq!(set.next_circular(0, 63), None);
        assert_eq!(set.next_circular(64, 64), Some(0));
        assert_eq!(ring_walk(&set, 60, 70), [63, 64]);
        set.remove(63);
        assert_eq!(set.first(), Some(64));
        assert_eq!(set.next_circular(65, 128), Some(127), "wraps to 64");
        // A size that is not a multiple of 64 (a 96-entry queue).
        let mut q = BitSet::full(96);
        assert_eq!((q.count(), q.first()), (96, Some(0)));
        for slot in (0..64).chain([95]) {
            q.remove(slot);
        }
        assert_eq!((q.count(), q.first()), (31, Some(64)));
        assert_eq!(
            q.next_circular(95, 96),
            Some(65),
            "95 and 0..64 are not members"
        );
        // A ring smaller than a word wraps at its own size.
        let mut small = BitSet::new(16);
        small.insert(1);
        small.insert(14);
        assert_eq!(small.next_circular(15, 16), Some(2));
        assert_eq!(ring_walk(&small, 12, 20), [14, 17]);
    }

    /// `Plain`, except that every committed load holds its LQ slot for
    /// `hold` cycles (InvisiSpec's update load).
    #[derive(Clone, Debug)]
    struct Holder {
        hold: Cycle,
    }

    impl SpeculationScheme for Holder {
        fn name(&self) -> &'static str {
            "holder"
        }
        fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
            Box::new(self.clone())
        }
        fn issue_load(
            &mut self,
            mem: &mut MemHierarchy,
            req: LoadIssue,
        ) -> Result<cleanupspec_mem::hierarchy::LoadOutcome, SimError> {
            Plain.issue_load(mem, req)
        }
        fn commit_load(
            &mut self,
            _mem: &mut MemHierarchy,
            _core: CoreId,
            _load: CommittedLoad,
            now: Cycle,
        ) -> CommitAction {
            CommitAction::HoldLqUntil(now + self.hold)
        }
        fn on_squash(
            &mut self,
            mem: &mut MemHierarchy,
            info: SquashInfo<'_>,
        ) -> crate::scheme::SquashResponse {
            Plain.on_squash(mem, info)
        }
    }

    #[test]
    fn held_lq_slots_are_refused_until_they_expire() {
        // Four loads fill a four-entry LQ; each commit frees its slot but
        // holds it. The fifth load may dispatch only once a hold expires,
        // and then takes the lowest slot.
        let mut b = ProgramBuilder::new("held-slots");
        b.movi(Reg(1), 0x4000);
        for k in 0..4 {
            b.load(Reg(2 + k as u8), Reg(1), 64 * k);
        }
        let fifth = b.load(Reg(6), Reg(1), 256);
        b.halt();
        b.init_mem(Addr::new(0x4100), 5);
        let cfg = CoreConfig {
            lq_entries: 4,
            ..CoreConfig::default()
        };
        let mut pipe = Pipeline::new(CoreId(0), cfg, Arc::new(b.build()));
        let mut refused = 0;
        let mut first_expiry = None;
        let mut dispatched = None;
        run_watched(&mut pipe, &mut Holder { hold: 50 }, 5000, |p, now| {
            let free = p.lq.iter().filter(|l| l.is_none()).count();
            let held = p.lq_held.len();
            if free > held {
                let lowest = p.lq.iter().position(|l| l.is_none());
                assert_eq!(p.free_lq_slot(), lowest, "cycle {now}");
            } else {
                assert_eq!(
                    p.free_lq_slot(),
                    None,
                    "cycle {now}: {free} free, {held} held"
                );
                refused += usize::from(held > 0);
            }
            if let Some(&c) = p.lq_held.iter().min() {
                first_expiry.get_or_insert(c);
            }
            if let Some(e) = p.rob.iter().find(|e| e.pc == fifth) {
                dispatched.get_or_insert((now, e.lq));
            }
        });
        assert!(pipe.halted());
        assert_eq!(pipe.reg(Reg(6)), 5);
        assert!(refused > 0, "no cycle had every free slot held");
        let expiry = first_expiry.expect("loads held their slots");
        let (at, slot) = dispatched.expect("the fifth load dispatched");
        assert!(
            at >= expiry,
            "dispatched at {at}, before the hold expired at {expiry}"
        );
        assert_eq!(slot, Some(0), "the lowest free slot");
    }

    #[test]
    fn large_queues_and_a_512_position_ring_match_the_reference() {
        // A pointer chase through lines 4 KiB apart misses on every hop,
        // so the ROB fills behind it with independent loads and stores
        // from later iterations: more than 64 of each in flight, and seqs
        // wrapping the 512-position ring. Debug builds check every
        // worklist after every tick.
        let mut b = ProgramBuilder::new("big-core");
        let iters = 40u64;
        b.movi(Reg(1), iters);
        b.movi(Reg(20), 0x10_0000);
        b.movi(Reg(2), 0x5000);
        let top = b.here();
        b.load(Reg(20), Reg(20), 0);
        for k in 0..4i64 {
            b.load(Reg(3 + k as u8), Reg(2), 8 * k);
            b.alu(
                Reg(3 + k as u8),
                AluOp::Add,
                Operand::Reg(Reg(3 + k as u8)),
                Operand::Reg(Reg(1)),
            );
            b.store(Reg(3 + k as u8), Reg(2), 0x200 + 8 * k);
        }
        b.alu(Reg(1), AluOp::Sub, Operand::Reg(Reg(1)), Operand::Imm(1));
        b.branch(Reg(1), BranchCond::NotZero, top);
        b.halt();
        for i in 0..iters {
            b.init_mem(
                Addr::new(0x10_0000 + i * 0x1000),
                0x10_0000 + (i + 1) * 0x1000,
            );
        }
        for k in 0..4 {
            b.init_mem(Addr::new(0x5000 + 8 * k), 100 * k);
        }
        let prog = b.build();
        let reference = crate::reference::interpret(&prog, 100_000);
        assert!(reference.halted);
        let cfg = CoreConfig {
            rob_entries: 300,
            lq_entries: 96,
            sq_entries: 96,
            ..CoreConfig::default()
        };
        let mut pipe = Pipeline::new(CoreId(0), cfg, Arc::new(prog));
        assert_eq!(pipe.sched.waiting.size, 512);
        let (mut rob, mut loads, mut stores) = (0, 0, 0);
        let (_, dmem, _) = run_watched(&mut pipe, &mut Plain, 200_000, |p, _| {
            rob = rob.max(p.rob.len());
            loads = loads.max(p.lq.iter().flatten().count());
            stores = stores.max(p.sq.iter().flatten().count());
        });
        assert!(pipe.halted());
        assert!(
            rob > 256 && loads > 64 && stores > 64,
            "{rob} {loads} {stores}"
        );
        assert!(pipe.next_seq > 512, "seqs wrapped the ring");
        assert_eq!(pipe.regs, reference.regs);
        assert_eq!(dmem.image_digest(), reference.mem.image_digest());
    }
}
