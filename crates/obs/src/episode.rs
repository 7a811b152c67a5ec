//! Speculation-episode forensics: online reconstruction of cleanup
//! *episodes* from the event stream, plus an undo-coverage ledger.
//!
//! An **episode** is one invocation of a scheme's cleanup: it opens with
//! the first [`SimEvent::Squash`] that finds no cleanup already pending
//! (squashes that merge into a wait-for-inflight phase share the episode
//! of the cleanup they widen), and closes with the matching
//! [`SimEvent::CleanupEnd`]. Every cleanup-related event carries the
//! episode id (see [`SimEvent::episode`]), so the builder can run either
//! live (attached as a sink) or offline over a replayed JSONL trace and
//! produce identical records.
//!
//! The **undo-coverage ledger** is the simulator's leakage oracle: it
//! checks the paper's "undo leaves no trace" invariant from events alone.
//! Every speculative load issue opens a watch on its line. Fills on a
//! watched line mark speculation-attributable *presence* per cache level;
//! evicts, back-invalidations, flushes and cleanup invalidations clear
//! it. A commit (or an architectural re-access) legitimizes the line.
//! When the load is squashed instead, every fill must be accounted for as
//! *invalidated* (possibly raced — the fill landed after the squash and
//! was still unwound) or *never installed* (epoch-dropped in flight).
//!
//! Symmetrically, a speculative install that evicts a victim puts the
//! victim on an *owed-restore* list, tagged with the evicting line. The
//! debt comes due only if the evictor is squashed — a speculative load
//! that retires keeps its eviction, as a non-speculative one would. A
//! cleanup restore, an L1 refill or an architectural re-access settles
//! it; a retire of the evictor forgives it.
//!
//! Anything left over becomes an [`EpisodeLeak`], pinned to the episode
//! whose cleanup should have covered it. The verdict is computed lazily
//! by [`EpisodeBuilder::report`], so orphan fills landing cycles after
//! the squash (the classic insecure-mode leak — drain the simulation
//! before asking) are still caught.

use crate::event::{CacheLevel, KindSet, SimEvent};
use crate::hash::IntMap;
use crate::observer::EventSink;

/// What a cleanup episode failed to undo.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum LeakKind {
    /// A transiently filled line survived in L1 past its episode.
    TransientInstallL1,
    /// A transiently filled line survived in L2 past its episode.
    TransientInstallL2,
    /// A victim of a speculative eviction was never restored.
    MissingRestore,
    /// A line was cleanup-invalidated twice with no fill in between.
    DoubleUndo,
    /// A speculative request downgraded a remote modified copy.
    SpeculativeDowngrade,
    /// A squashed load's fill installed anyway (orphan fill).
    OrphanInstall,
}

impl LeakKind {
    /// Stable kebab-case name (used by cs-report output).
    pub fn as_str(self) -> &'static str {
        match self {
            LeakKind::TransientInstallL1 => "transient-install-l1",
            LeakKind::TransientInstallL2 => "transient-install-l2",
            LeakKind::MissingRestore => "missing-restore",
            LeakKind::DoubleUndo => "double-undo",
            LeakKind::SpeculativeDowngrade => "speculative-downgrade",
            LeakKind::OrphanInstall => "orphan-install",
        }
    }
}

impl std::fmt::Display for LeakKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One ledger imbalance: undo state that outlived (or violated) its
/// episode.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct EpisodeLeak {
    /// The core whose speculation leaked.
    pub core: usize,
    /// The episode whose cleanup should have covered it (0 = the leak
    /// could not be attributed to any episode, e.g. a speculative
    /// downgrade whose requester never squashed).
    pub episode: u64,
    /// The affected cache line.
    pub line: u64,
    /// What leaked.
    pub kind: LeakKind,
}

impl std::fmt::Display for EpisodeLeak {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "core{} episode{} line=0x{:x}: {}",
            self.core, self.episode, self.line, self.kind
        )
    }
}

/// The reconstructed shape of one cleanup episode.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpisodeRecord {
    /// Squashing core.
    pub core: usize,
    /// Episode id (1-based, per-core monotonic).
    pub id: u64,
    /// Sequence number of the first squash that opened the episode.
    pub seq: u64,
    /// Cycle of the opening squash.
    pub start: u64,
    /// Cycle cleanup was handed to the scheme (0 until seen).
    pub cleanup_start: u64,
    /// Cycle issue resumed (0 while the episode is still open).
    pub end: u64,
    /// Squash events merged into the episode (>= 1).
    pub squashes: u64,
    /// Instructions squashed, summed over merged squashes.
    pub squashed_insns: u64,
    /// Squashed loads with a known line.
    pub loads: u64,
    /// Of those, loads that had issued to the hierarchy.
    pub loads_issued: u64,
    /// CleanupSpec invalidations performed.
    pub invals: u64,
    /// CleanupSpec victim restores performed.
    pub restores: u64,
    /// Fills epoch-dropped in flight (never installed).
    pub dropped_fills: u64,
    /// Invalidated fills that had landed *after* the squash — the race
    /// CleanupSpec's wait-for-inflight phase exists to unwind.
    pub raced_fills: u64,
    /// Window-protection dummy misses other cores took against this
    /// episode's transient lines (claimed from the prospective buffer
    /// when the episode opens).
    pub dummy_misses: u64,
    /// Epoch bumps (in-flight drop points) in the episode.
    pub epoch_bumps: u64,
    /// Issue-stall cycles the cleanup charged.
    pub stall: u64,
    /// High-water mark of live SEFE (speculative MSHR) entries while the
    /// episode was open.
    pub sefe_high: u64,
    /// Cycles the *next* squash on this core arrived before this
    /// episode's resume (0 = no overlap).
    pub overlap_next: u64,
    /// Whether the episode's CleanupEnd was seen.
    pub closed: bool,
}

impl EpisodeRecord {
    /// Full duration: opening squash to issue resume. 0 while open.
    pub fn duration(&self) -> u64 {
        if self.closed {
            self.end.saturating_sub(self.start)
        } else {
            0
        }
    }
}

/// The builder's verdict over a run (or a replayed trace).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpisodeReport {
    /// All reconstructed episodes, sorted by (core, id).
    pub episodes: Vec<EpisodeRecord>,
    /// Squash events across all episodes (the sum of
    /// [`EpisodeRecord::squashes`]).
    pub squashes: u64,
    /// All ledger imbalances, sorted.
    pub leaks: Vec<EpisodeLeak>,
}

impl EpisodeReport {
    /// Whether every episode closed with a balanced ledger.
    pub fn clean(&self) -> bool {
        self.leaks.is_empty()
    }

    /// Episodes still open when the run ended (truncation, livelock).
    pub fn open_episodes(&self) -> usize {
        self.episodes.iter().filter(|e| !e.closed).count()
    }
}

impl std::fmt::Display for EpisodeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "episodes: {} reconstructed ({} open at end of run), {} squashes",
            self.episodes.len(),
            self.open_episodes(),
            self.squashes
        )?;
        if self.clean() {
            write!(f, "episodes: BALANCED — every undo ledger closed clean")
        } else {
            writeln!(f, "episodes: LEAKY — {} finding(s):", self.leaks.len())?;
            for l in &self.leaks {
                writeln!(f, "  {l}")?;
            }
            Ok(())
        }
    }
}

/// Per-line speculative-fill watch.
#[derive(Clone, Copy, Default, Debug)]
struct Watch {
    /// Episode the line's squash joined (0 = not squashed yet).
    episode: u64,
    /// A load of the line was squashed: presence is now undo residue.
    squashed: bool,
    /// Cycle of the SquashedLoad event (valid when `squashed`).
    squashed_at: u64,
    present_l1: bool,
    present_l2: bool,
    /// Cycle of the most recent fill per level (valid when present).
    fill_l1_at: u64,
    fill_l2_at: u64,
    /// A cleanup-inval already ran with no fill since.
    cleaned: bool,
    /// Marked by OrphanFill: presence is a leak no matter what.
    orphan: bool,
}

/// A victim owed a restore if its evictor is squashed.
#[derive(Clone, Copy, Debug)]
struct Owed {
    evictor: u64,
    /// Episode of the evictor's squash (0 until due).
    episode: u64,
    due: bool,
    settled: bool,
}

#[derive(Default, Debug)]
struct CoreState {
    /// Episodes keyed by the id their events carry.
    episodes: IntMap<u64, EpisodeRecord>,
    /// Id of the currently open episode, if any.
    open: Option<u64>,
    watch: IntMap<u64, Watch>,
    owed: IntMap<u64, Owed>,
    /// Dummy misses carrying a *prospective* episode id (the protected
    /// window has not squashed yet): `(prospective_id, line)`. Claimed
    /// when the episode opens, discarded when the protected line retires.
    pending_dummy: Vec<(u64, u64)>,
    /// Live speculative MSHR entries (SEFEs), tracked from alloc/retire.
    sefe_live: u64,
}

impl CoreState {
    /// Forgives restores owed to `evictor`'s install: the line retired
    /// (or was re-accessed architecturally), so the eviction stands. This
    /// also covers debts marked due by a squashed *younger duplicate* of
    /// the same line — under MSHR merging several in-flight loads share
    /// one install, and only the install's own fate decides whether the
    /// victim is owed a restore.
    fn forgive_evictor(&mut self, evictor: u64) {
        self.owed.retain(|_, o| o.evictor != evictor);
    }

    fn rec(&mut self, id: u64, core: usize) -> &mut EpisodeRecord {
        self.episodes.entry(id).or_insert_with(|| EpisodeRecord {
            core,
            id,
            ..EpisodeRecord::default()
        })
    }
}

/// Online reconstruction of cleanup episodes + undo-coverage ledger.
///
/// Attach as a sink ([`crate::observer::Shared`] makes it retrievable
/// afterwards), or feed it a replayed trace event by event; call
/// [`EpisodeBuilder::report`] once the run has drained.
#[derive(Default, Debug)]
pub struct EpisodeBuilder {
    cores: Vec<CoreState>,
    /// Speculative downgrades awaiting attribution: `(line, owner)`.
    /// Claimed by the requester's SquashedLoad of the same line;
    /// reported unattributed (episode 0) otherwise.
    pending_downgrades: Vec<(u64, usize)>,
    eager: Vec<EpisodeLeak>,
}

impl EpisodeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        EpisodeBuilder::default()
    }

    fn core(&mut self, i: usize) -> &mut CoreState {
        if self.cores.len() <= i {
            self.cores.resize_with(i + 1, CoreState::default);
        }
        &mut self.cores[i]
    }

    /// Computes the verdict from the events seen so far. Call after the
    /// simulation has drained: late orphan fills are leaks too.
    pub fn report(&self) -> EpisodeReport {
        let mut leaks = self.eager.clone();
        for (ci, c) in self.cores.iter().enumerate() {
            for (&line, w) in &c.watch {
                if !w.squashed && !w.orphan {
                    continue; // in flight or committed — not undo residue
                }
                if w.present_l1 {
                    leaks.push(EpisodeLeak {
                        core: ci,
                        episode: w.episode,
                        line,
                        kind: if w.orphan {
                            LeakKind::OrphanInstall
                        } else {
                            LeakKind::TransientInstallL1
                        },
                    });
                }
                if w.present_l2 {
                    leaks.push(EpisodeLeak {
                        core: ci,
                        episode: w.episode,
                        line,
                        kind: LeakKind::TransientInstallL2,
                    });
                }
            }
            for (&line, o) in &c.owed {
                if o.due && !o.settled {
                    leaks.push(EpisodeLeak {
                        core: ci,
                        episode: o.episode,
                        line,
                        kind: LeakKind::MissingRestore,
                    });
                }
            }
        }
        for &(line, owner) in &self.pending_downgrades {
            leaks.push(EpisodeLeak {
                core: owner,
                episode: 0,
                line,
                kind: LeakKind::SpeculativeDowngrade,
            });
        }
        leaks.sort();
        leaks.dedup();
        let mut episodes: Vec<EpisodeRecord> = self
            .cores
            .iter()
            .flat_map(|c| c.episodes.values().cloned())
            .collect();
        episodes.sort_by_key(|e| (e.core, e.id));
        // Overlap: how far the next squash on the same core cut into this
        // episode's stall window.
        for i in 0..episodes.len().saturating_sub(1) {
            let (a, b) = (&episodes[i], &episodes[i + 1]);
            if a.core == b.core && a.closed && b.start < a.end {
                let overlap = a.end - b.start;
                episodes[i].overlap_next = overlap;
            }
        }
        let squashes = episodes.iter().map(|e| e.squashes).sum();
        EpisodeReport {
            episodes,
            squashes,
            leaks,
        }
    }
}

/// The kinds [`EpisodeBuilder`]'s `record` matches, in arm order.
const EPISODE_KINDS: KindSet = KindSet::of(&[
    "squash",
    "squashed-load",
    "cleanup-start",
    "cleanup-end",
    "cleanup-inval",
    "cleanup-restore",
    "dropped-fill",
    "epoch-bump",
    "dummy-miss",
    "load-issue",
    "fill",
    "orphan-fill",
    "evict",
    "back-inval",
    "clflush",
    "commit",
    "spec-retire",
    "downgrade",
    "mshr-alloc",
    "mshr-retire",
]);

impl EventSink for EpisodeBuilder {
    fn interest(&self) -> KindSet {
        EPISODE_KINDS
    }

    fn record(&mut self, cycle: u64, event: &SimEvent) {
        match *event {
            SimEvent::Squash {
                core,
                seq,
                squashed,
                episode,
            } if episode != 0 => {
                let c = self.core(core);
                let fresh = !c.episodes.contains_key(&episode);
                let r = c.rec(episode, core);
                if fresh {
                    r.seq = seq;
                    r.start = cycle;
                }
                r.squashes += 1;
                r.squashed_insns += squashed;
                c.open = Some(episode);
                // Claim window-protection dummies buffered under this
                // (previously prospective) episode id; ids that never
                // opened stay buffered until their line retires or the
                // run ends.
                let mut claimed = 0;
                c.pending_dummy.retain(|&(id, _)| {
                    if id == episode {
                        claimed += 1;
                        false
                    } else {
                        true
                    }
                });
                c.rec(episode, core).dummy_misses += claimed;
            }
            SimEvent::SquashedLoad {
                core,
                line,
                issued,
                episode,
            } => {
                let c = self.core(core);
                if episode != 0 {
                    let r = c.rec(episode, core);
                    r.loads += 1;
                    r.loads_issued += u64::from(issued);
                }
                let w = c.watch.entry(line).or_default();
                w.squashed = true;
                w.squashed_at = cycle;
                w.episode = episode;
                for o in c.owed.values_mut() {
                    if o.evictor == line {
                        o.due = true;
                        o.episode = episode;
                    }
                }
                // A speculative downgrade caused by this load's request
                // is now attributable: the requester squashed.
                let mut i = 0;
                while i < self.pending_downgrades.len() {
                    if self.pending_downgrades[i].0 == line {
                        self.pending_downgrades.swap_remove(i);
                        self.eager.push(EpisodeLeak {
                            core,
                            episode,
                            line,
                            kind: LeakKind::SpeculativeDowngrade,
                        });
                    } else {
                        i += 1;
                    }
                }
            }
            SimEvent::CleanupStart {
                core,
                stall,
                episode,
                ..
            } if episode != 0 => {
                let r = self.core(core).rec(episode, core);
                r.cleanup_start = cycle;
                r.stall = stall;
            }
            SimEvent::CleanupEnd {
                core,
                stall,
                episode,
            } if episode != 0 => {
                let c = self.core(core);
                let r = c.rec(episode, core);
                r.end = cycle;
                r.stall = stall;
                r.closed = true;
                if c.open == Some(episode) {
                    c.open = None;
                }
            }
            SimEvent::CleanupInval {
                core,
                line,
                l1,
                l2,
                episode,
                ..
            } => {
                let c = self.core(core);
                let mut raced = false;
                let mut double = false;
                if let Some(w) = c.watch.get_mut(&line) {
                    double = w.cleaned;
                    w.cleaned = true;
                    if w.squashed {
                        raced = (l1 && w.present_l1 && w.fill_l1_at > w.squashed_at)
                            || (l2 && w.present_l2 && w.fill_l2_at > w.squashed_at);
                    }
                    if l1 {
                        w.present_l1 = false;
                    }
                    if l2 {
                        w.present_l2 = false;
                    }
                }
                if episode != 0 {
                    let r = c.rec(episode, core);
                    r.invals += 1;
                    r.raced_fills += u64::from(raced);
                }
                if double {
                    self.eager.push(EpisodeLeak {
                        core,
                        episode,
                        line,
                        kind: LeakKind::DoubleUndo,
                    });
                }
            }
            SimEvent::CleanupRestore {
                core,
                line,
                episode,
                ..
            } => {
                let c = self.core(core);
                if episode != 0 {
                    c.rec(episode, core).restores += 1;
                }
                c.owed
                    .entry(line)
                    .or_insert(Owed {
                        evictor: line,
                        episode,
                        due: false,
                        settled: true,
                    })
                    .settled = true;
            }
            SimEvent::DroppedFill {
                core,
                line,
                episode,
            } => {
                let c = self.core(core);
                if episode != 0 {
                    c.rec(episode, core).dropped_fills += 1;
                }
                // The fill never installed: if nothing else is on the
                // books for the line, the watch is finished business.
                if let Some(w) = c.watch.get(&line) {
                    if w.squashed && !w.present_l1 && !w.present_l2 {
                        c.watch.remove(&line);
                    }
                }
            }
            SimEvent::EpochBump { core, episode, .. } if episode != 0 => {
                self.core(core).rec(episode, core).epoch_bumps += 1;
            }
            SimEvent::DummyMiss {
                line,
                owner,
                episode,
                ..
            } if episode != 0 => {
                // Prospective attribution: buffered under the episode id
                // the owner's squash *would* open.
                let c = self.core(owner);
                if c.episodes.contains_key(&episode) {
                    // The episode already opened (more squashes merged
                    // in while its cleanup waits): claim directly.
                    c.rec(episode, owner).dummy_misses += 1;
                } else {
                    c.pending_dummy.push((episode, line));
                }
            }
            SimEvent::LoadIssue {
                core, line, spec, ..
            } => {
                let c = self.core(core);
                if spec {
                    let w = c.watch.entry(line).or_default();
                    if w.squashed && !w.present_l1 && !w.present_l2 && !w.orphan {
                        *w = Watch::default();
                    }
                } else {
                    c.watch.remove(&line);
                    if let Some(o) = c.owed.get_mut(&line) {
                        o.settled = true;
                    }
                    c.forgive_evictor(line);
                }
            }
            SimEvent::Fill {
                core,
                line,
                level,
                spec,
            } => {
                let c = self.core(core);
                if let Some(w) = c.watch.get_mut(&line) {
                    if !w.squashed || spec {
                        // The speculative load's own fill (insecure modes
                        // install untagged, so an open watch claims any
                        // fill on its line, tagged or not).
                        w.cleaned = false;
                        match level {
                            CacheLevel::L1 => {
                                w.present_l1 = true;
                                w.fill_l1_at = cycle;
                            }
                            CacheLevel::L2 => {
                                w.present_l2 = true;
                                w.fill_l2_at = cycle;
                            }
                        }
                    } else {
                        // Untagged install after the squash was undone
                        // (restore, RFO, demand refill) — architectural.
                        // A squashed load's own late fill is re-flagged by
                        // the `OrphanFill` the MSHR emits right after.
                        c.watch.remove(&line);
                    }
                }
                if level == CacheLevel::L1 {
                    if let Some(o) = c.owed.get_mut(&line) {
                        o.settled = true;
                    }
                }
            }
            SimEvent::OrphanFill { core, line } => {
                let c = self.core(core);
                let last = c.open.or_else(|| c.episodes.keys().max().copied());
                let w = c.watch.entry(line).or_default();
                w.squashed = true;
                w.present_l1 = true;
                w.orphan = true;
                if w.episode == 0 {
                    w.episode = last.unwrap_or(0);
                }
            }
            SimEvent::Evict {
                core,
                line,
                level,
                evictor,
                ..
            } => {
                let c = self.core(core);
                if let Some(w) = c.watch.get_mut(&line) {
                    match level {
                        CacheLevel::L1 => w.present_l1 = false,
                        CacheLevel::L2 => w.present_l2 = false,
                    }
                }
                if let Some(evictor) = evictor {
                    if level == CacheLevel::L1 && !c.watch.contains_key(&line) {
                        c.owed.insert(
                            line,
                            Owed {
                                evictor,
                                episode: 0,
                                due: false,
                                settled: false,
                            },
                        );
                    }
                }
            }
            SimEvent::BackInval { core, line } => {
                if let Some(w) = self.core(core).watch.get_mut(&line) {
                    w.present_l1 = false;
                }
            }
            SimEvent::Clflush { line, .. } => {
                for c in &mut self.cores {
                    if let Some(w) = c.watch.get_mut(&line) {
                        w.present_l1 = false;
                        w.present_l2 = false;
                    }
                    c.owed.remove(&line);
                }
            }
            SimEvent::Commit {
                core,
                line: Some(line),
                ..
            } => {
                let c = self.core(core);
                c.watch.remove(&line);
                if let Some(o) = c.owed.get_mut(&line) {
                    o.settled = true;
                }
                c.forgive_evictor(line);
            }
            SimEvent::SpecRetire { core, line } => {
                let c = self.core(core);
                c.forgive_evictor(line);
                // The protected window retired without squashing: its
                // prospective dummy misses belong to no episode.
                c.pending_dummy.retain(|&(_, l)| l != line);
            }
            SimEvent::Downgrade { owner, line, spec } if spec => {
                self.pending_downgrades.push((line, owner));
            }
            SimEvent::MshrAlloc { core, spec, .. } => {
                let c = self.core(core);
                if spec {
                    c.sefe_live += 1;
                    if let Some(id) = c.open {
                        let live = c.sefe_live;
                        let r = c.rec(id, core);
                        r.sefe_high = r.sefe_high.max(live);
                    }
                }
            }
            SimEvent::MshrRetire { core, spec, .. } if spec => {
                let c = self.core(core);
                c.sefe_live = c.sefe_live.saturating_sub(1);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PathKind;

    fn issue(core: usize, line: u64, spec: bool) -> SimEvent {
        SimEvent::LoadIssue {
            core,
            seq: 0,
            line,
            path: PathKind::Mem,
            spec,
            latency: 100,
        }
    }

    fn fill(core: usize, line: u64, level: CacheLevel) -> SimEvent {
        SimEvent::Fill {
            core,
            line,
            level,
            spec: true,
        }
    }

    fn squash(core: usize, seq: u64, episode: u64) -> SimEvent {
        SimEvent::Squash {
            core,
            seq,
            squashed: 3,
            episode,
        }
    }

    fn squashed_load(core: usize, line: u64, episode: u64) -> SimEvent {
        SimEvent::SquashedLoad {
            core,
            line,
            issued: true,
            episode,
        }
    }

    fn inval(core: usize, line: u64, episode: u64) -> SimEvent {
        SimEvent::CleanupInval {
            core,
            line,
            l1: true,
            l2: true,
            seq: 1,
            episode,
        }
    }

    fn end(core: usize, episode: u64, stall: u64) -> SimEvent {
        SimEvent::CleanupEnd {
            core,
            stall,
            episode,
        }
    }

    /// Full clean episode: squash -> cleanup -> inval + restore -> end.
    #[test]
    fn clean_episode_reconstructs_and_balances() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 7, true));
        b.record(5, &fill(0, 7, CacheLevel::L2));
        b.record(5, &fill(0, 7, CacheLevel::L1));
        b.record(
            6,
            &SimEvent::Evict {
                core: 0,
                line: 5,
                level: CacheLevel::L1,
                dirty: false,
                evictor: Some(7),
            },
        );
        b.record(10, &squash(0, 1, 1));
        b.record(10, &squashed_load(0, 7, 1));
        b.record(
            11,
            &SimEvent::CleanupStart {
                core: 0,
                loads: 1,
                stall: 20,
                episode: 1,
            },
        );
        b.record(11, &inval(0, 7, 1));
        b.record(
            12,
            &SimEvent::CleanupRestore {
                core: 0,
                line: 5,
                evictor: 7,
                seq: 1,
                episode: 1,
            },
        );
        b.record(31, &end(0, 1, 20));
        let r = b.report();
        assert!(r.clean(), "{r}");
        assert_eq!(r.episodes.len(), 1);
        let e = &r.episodes[0];
        assert_eq!((e.core, e.id, e.seq), (0, 1, 1));
        assert_eq!((e.start, e.cleanup_start, e.end), (10, 11, 31));
        assert_eq!(e.duration(), 21);
        assert_eq!((e.loads, e.invals, e.restores), (1, 1, 1));
        assert_eq!(e.stall, 20);
        assert!(e.closed);
    }

    #[test]
    fn missing_restore_is_attributed_to_its_episode() {
        let mut b = EpisodeBuilder::new();
        b.record(
            0,
            &SimEvent::Evict {
                core: 0,
                line: 5,
                level: CacheLevel::L1,
                dirty: false,
                evictor: Some(9),
            },
        );
        b.record(1, &squash(0, 1, 4));
        b.record(1, &squashed_load(0, 9, 4));
        b.record(2, &end(0, 4, 5));
        let r = b.report();
        assert_eq!(r.leaks.len(), 1);
        assert_eq!(r.leaks[0].kind, LeakKind::MissingRestore);
        assert_eq!(r.leaks[0].episode, 4);
        assert_eq!(r.leaks[0].line, 5);
    }

    #[test]
    fn skipped_inval_leaks_transient_install_with_episode() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 7, true));
        b.record(1, &fill(0, 7, CacheLevel::L1));
        b.record(2, &squash(0, 1, 2));
        b.record(2, &squashed_load(0, 7, 2));
        b.record(3, &end(0, 2, 5));
        let r = b.report();
        assert_eq!(r.leaks.len(), 1);
        assert_eq!(r.leaks[0].kind, LeakKind::TransientInstallL1);
        assert_eq!(r.leaks[0].episode, 2);
    }

    #[test]
    fn double_undo_is_eager_and_episode_tagged() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 7, true));
        b.record(1, &fill(0, 7, CacheLevel::L1));
        b.record(2, &squash(0, 1, 1));
        b.record(2, &squashed_load(0, 7, 1));
        b.record(3, &inval(0, 7, 1));
        b.record(4, &inval(0, 7, 1));
        let r = b.report();
        assert!(r.leaks.contains(&EpisodeLeak {
            core: 0,
            episode: 1,
            line: 7,
            kind: LeakKind::DoubleUndo,
        }));
    }

    /// A fill landing after the squash but unwound by the cleanup is a
    /// raced fill, not a leak.
    #[test]
    fn raced_fill_is_counted_and_clean() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 7, true));
        b.record(5, &squash(0, 1, 1));
        b.record(5, &squashed_load(0, 7, 1));
        // Fill lands during the wait-for-inflight phase...
        b.record(8, &fill(0, 7, CacheLevel::L1));
        // ...and the cleanup still unwinds it.
        b.record(9, &inval(0, 7, 1));
        b.record(10, &end(0, 1, 5));
        let r = b.report();
        assert!(r.clean(), "{r}");
        assert_eq!(r.episodes[0].raced_fills, 1);
        assert_eq!(r.episodes[0].invals, 1);
    }

    #[test]
    fn dropped_fill_settles_the_ledger() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 3, true));
        b.record(1, &squash(0, 1, 1));
        b.record(1, &squashed_load(0, 3, 1));
        b.record(
            2,
            &SimEvent::EpochBump {
                core: 0,
                epoch: 1,
                dropped: 1,
                episode: 1,
            },
        );
        b.record(3, &end(0, 1, 5));
        b.record(
            40,
            &SimEvent::DroppedFill {
                core: 0,
                line: 3,
                episode: 1,
            },
        );
        let r = b.report();
        assert!(r.clean(), "{r}");
        assert_eq!(r.episodes[0].dropped_fills, 1);
        assert_eq!(r.episodes[0].epoch_bumps, 1);
    }

    #[test]
    fn orphan_fill_is_a_leak() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 9, true));
        b.record(1, &squash(0, 1, 1));
        b.record(1, &squashed_load(0, 9, 1));
        b.record(2, &end(0, 1, 0));
        b.record(50, &fill(0, 9, CacheLevel::L1));
        b.record(50, &SimEvent::OrphanFill { core: 0, line: 9 });
        let r = b.report();
        assert!(!r.clean());
        assert!(r
            .leaks
            .iter()
            .any(|l| l.kind == LeakKind::OrphanInstall && l.episode == 1));
    }

    /// Merged squashes (arriving while a cleanup waits on in-flight
    /// loads) widen the episode instead of opening a new one.
    #[test]
    fn merged_squashes_share_one_episode() {
        let mut b = EpisodeBuilder::new();
        b.record(10, &squash(0, 1, 1));
        b.record(10, &squashed_load(0, 7, 1));
        b.record(15, &squash(0, 2, 1));
        b.record(15, &squashed_load(0, 8, 1));
        b.record(30, &end(0, 1, 10));
        let r = b.report();
        assert_eq!(r.episodes.len(), 1);
        let e = &r.episodes[0];
        assert_eq!(e.squashes, 2);
        assert_eq!(r.squashes, 2, "report total sums the merged squashes");
        assert_eq!(e.loads, 2);
        assert_eq!(e.seq, 1, "episode keeps the opening squash's seq");
        assert_eq!(e.start, 10, "and its cycle");
    }

    /// Window-protection dummies carry a prospective episode id: claimed
    /// if that episode opens, dropped if the protected line retires.
    #[test]
    fn prospective_dummy_misses_claimed_on_open() {
        let mut b = EpisodeBuilder::new();
        let dummy = SimEvent::DummyMiss {
            core: 1,
            line: 7,
            owner: 0,
            episode: 1,
        };
        b.record(5, &dummy);
        b.record(6, &dummy);
        b.record(10, &squash(0, 1, 1));
        b.record(11, &end(0, 1, 0));
        let r = b.report();
        assert_eq!(r.episodes[0].dummy_misses, 2);
    }

    #[test]
    fn dummy_misses_for_retired_window_are_discarded() {
        let mut b = EpisodeBuilder::new();
        b.record(
            5,
            &SimEvent::DummyMiss {
                core: 1,
                line: 7,
                owner: 0,
                episode: 1,
            },
        );
        // The protected load retires: no episode 1 from this window.
        b.record(8, &SimEvent::SpecRetire { core: 0, line: 7 });
        // A later, unrelated squash opens episode 1.
        b.record(20, &squash(0, 9, 1));
        b.record(21, &end(0, 1, 0));
        let r = b.report();
        assert_eq!(r.episodes[0].dummy_misses, 0);
    }

    #[test]
    fn speculative_downgrade_attributed_via_squashed_load() {
        let mut b = EpisodeBuilder::new();
        b.record(
            0,
            &SimEvent::Downgrade {
                owner: 1,
                line: 3,
                spec: true,
            },
        );
        b.record(1, &squash(0, 1, 1));
        b.record(1, &squashed_load(0, 3, 1));
        b.record(2, &inval(0, 3, 1));
        b.record(3, &end(0, 1, 0));
        let r = b.report();
        assert_eq!(r.leaks.len(), 1);
        let l = r.leaks[0];
        assert_eq!(l.kind, LeakKind::SpeculativeDowngrade);
        assert_eq!((l.core, l.episode), (0, 1), "pinned to the requester");
    }

    #[test]
    fn unclaimed_downgrade_reports_unattributed() {
        let mut b = EpisodeBuilder::new();
        b.record(
            0,
            &SimEvent::Downgrade {
                owner: 1,
                line: 3,
                spec: true,
            },
        );
        let r = b.report();
        assert_eq!(r.leaks.len(), 1);
        assert_eq!(r.leaks[0].episode, 0);
        assert_eq!(r.leaks[0].core, 1, "falls back to the victim owner");
    }

    #[test]
    fn sefe_high_water_tracks_open_episode() {
        let mut b = EpisodeBuilder::new();
        let alloc = |occ| SimEvent::MshrAlloc {
            core: 0,
            line: occ,
            spec: true,
            occupancy: occ,
        };
        b.record(0, &alloc(1));
        b.record(1, &squash(0, 1, 1));
        b.record(2, &alloc(2));
        b.record(3, &alloc(3));
        b.record(
            4,
            &SimEvent::MshrRetire {
                core: 0,
                line: 1,
                spec: true,
                occupancy: 2,
            },
        );
        b.record(10, &end(0, 1, 0));
        let r = b.report();
        assert_eq!(r.episodes[0].sefe_high, 3);
    }

    #[test]
    fn overlap_with_next_squash_is_computed() {
        let mut b = EpisodeBuilder::new();
        b.record(10, &squash(0, 1, 1));
        b.record(30, &end(0, 1, 20));
        // Next squash lands 5 cycles before episode 1's resume would
        // have completed... (distinct episode: cleanup had finished its
        // wait phase, but the resume window still overlaps)
        b.record(25, &squash(0, 2, 2));
        b.record(40, &end(0, 2, 10));
        let r = b.report();
        assert_eq!(r.episodes[0].overlap_next, 5);
        assert_eq!(r.episodes[1].overlap_next, 0);
    }

    #[test]
    fn truncated_episode_stays_open_in_report() {
        let mut b = EpisodeBuilder::new();
        b.record(10, &squash(0, 1, 1));
        b.record(10, &squashed_load(0, 7, 1));
        // Run ends (max_cycles / livelock) before CleanupEnd.
        let r = b.report();
        assert_eq!(r.open_episodes(), 1);
        assert!(!r.episodes[0].closed);
        assert_eq!(r.episodes[0].duration(), 0);
    }

    fn evict(line: u64, evictor: Option<u64>) -> SimEvent {
        SimEvent::Evict {
            core: 0,
            line,
            level: CacheLevel::L1,
            dirty: false,
            evictor,
        }
    }

    fn commit(line: u64) -> SimEvent {
        SimEvent::Commit {
            core: 0,
            seq: 1,
            pc: 0,
            line: Some(line),
        }
    }

    #[test]
    fn committed_load_is_architectural() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 7, true));
        b.record(1, &fill(0, 7, CacheLevel::L1));
        b.record(2, &commit(7));
        assert!(b.report().clean());
    }

    #[test]
    fn retired_evictor_keeps_its_eviction() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 9, true));
        b.record(1, &evict(5, Some(9)));
        // The evicting load retires (correct path): no restore is owed,
        // even if line 9 is squashed in some *later* episode.
        b.record(2, &SimEvent::SpecRetire { core: 0, line: 9 });
        b.record(3, &commit(9));
        assert!(b.report().clean());
        b.record(4, &squash(0, 2, 1));
        b.record(4, &squashed_load(0, 9, 1));
        let r = b.report();
        assert!(r.clean(), "{r}");
    }

    /// MSHR merging: several in-flight loads of line 9 share one install.
    /// A younger duplicate is squashed (marking the owed restore due), but
    /// the oldest instance retires — the install, and the eviction it
    /// caused, are architectural.
    #[test]
    fn duplicate_squash_then_retire_forgives_the_debt() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 9, true));
        b.record(1, &evict(5, Some(9)));
        b.record(2, &squashed_load(0, 9, 1));
        assert!(!b.report().clean(), "due until the install's fate is known");
        b.record(3, &SimEvent::SpecRetire { core: 0, line: 9 });
        b.record(4, &commit(9));
        let r = b.report();
        assert!(r.clean(), "{r}");
    }

    #[test]
    fn non_spec_eviction_owes_nothing() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &evict(5, None));
        b.record(1, &squash(0, 1, 1));
        b.record(1, &squashed_load(0, 9, 1));
        assert!(b.report().clean());
    }

    /// Episode 1: a speculative load is squashed and its fill dropped in
    /// flight (never present). Episode 2: the same line is re-issued
    /// speculatively, fills, and is still unresolved when the run ends —
    /// not residue.
    #[test]
    fn cleaned_episode_reset_on_reissue() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 7, true));
        b.record(1, &squash(0, 1, 1));
        b.record(1, &squashed_load(0, 7, 1));
        b.record(
            2,
            &SimEvent::DroppedFill {
                core: 0,
                line: 7,
                episode: 1,
            },
        );
        b.record(3, &issue(0, 7, true));
        b.record(4, &fill(0, 7, CacheLevel::L1));
        let r = b.report();
        assert!(r.clean(), "{r}");
    }

    #[test]
    fn architectural_reaccess_legitimizes() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 7, true));
        b.record(1, &fill(0, 7, CacheLevel::L1));
        b.record(2, &squash(0, 1, 1));
        b.record(2, &squashed_load(0, 7, 1));
        // The correct path re-executes the same load non-speculatively.
        b.record(3, &issue(0, 7, false));
        assert!(b.report().clean());
    }

    #[test]
    fn architectural_downgrade_is_not_a_leak() {
        let mut b = EpisodeBuilder::new();
        b.record(
            0,
            &SimEvent::Downgrade {
                owner: 1,
                line: 3,
                spec: false,
            },
        );
        b.record(1, &squash(0, 1, 1));
        b.record(1, &squashed_load(0, 3, 1));
        let r = b.report();
        assert!(r.clean(), "{r}");
    }

    /// A fill between two invals of the same line resets the double-undo
    /// flag: two separate, correctly paired undo episodes.
    #[test]
    fn refill_between_invals_is_not_a_double_undo() {
        let mut b = EpisodeBuilder::new();
        b.record(0, &issue(0, 7, true));
        b.record(1, &fill(0, 7, CacheLevel::L1));
        b.record(2, &squash(0, 1, 1));
        b.record(2, &squashed_load(0, 7, 1));
        b.record(3, &inval(0, 7, 1));
        b.record(4, &end(0, 1, 1));
        b.record(5, &issue(0, 7, true));
        b.record(6, &fill(0, 7, CacheLevel::L1));
        b.record(7, &squash(0, 2, 2));
        b.record(7, &squashed_load(0, 7, 2));
        b.record(8, &inval(0, 7, 2));
        b.record(9, &end(0, 2, 1));
        let r = b.report();
        assert!(r.clean(), "{r}");
        assert_eq!(r.squashes, 2);
    }

    #[test]
    fn report_display_mentions_verdict() {
        let b = EpisodeBuilder::new();
        assert!(b.report().to_string().contains("BALANCED"));
    }

    #[test]
    fn kinds_outside_interest_leave_the_ledger_untouched() {
        let mut b = EpisodeBuilder::new();
        let interest = b.interest();
        let events = crate::event::sample_events();
        // Build up state first, so an ignored kind has something to
        // disturb.
        for (cycle, e) in (0..).zip(&events) {
            if interest.contains(e) {
                b.record(cycle, e);
            }
        }
        let (state, report) = (format!("{b:?}"), b.report());
        for (cycle, e) in (100..).zip(&events) {
            if !interest.contains(e) {
                b.record(cycle, e);
            }
        }
        assert_eq!(format!("{b:?}"), state);
        assert_eq!(b.report(), report);
        let ignored: Vec<_> = (0..)
            .zip(SimEvent::KINDS)
            .filter(|&(k, _)| !interest.contains_index(k))
            .map(|(_, name)| name)
            .collect();
        assert_eq!(
            ignored,
            [
                "dispatch",
                "fault",
                "livelock",
                "gets-safe-defer",
                "mshr-drop",
                "sefe-overflow",
                "ceaser-remap",
                "dram-read",
                "dram-writeback",
            ]
        );
    }
}
