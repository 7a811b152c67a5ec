//! Miss-status holding registers (MSHRs) extended with CleanupSpec's
//! Side-Effect Entry (SEFE) fields (Figure 7).
//!
//! Every outstanding miss carries the epoch in which it was issued. A
//! cleanup bumps the core's current epoch; fills whose epoch no longer
//! matches are *dropped*: the data returns from memory but no cache state is
//! changed, and the entry is then freed (Section 3.3). This is what makes
//! squashing still-inflight loads free.

use crate::types::{CoreId, Cycle, EpochId, LineAddr, LoadId};
use cleanupspec_obs::{Observer, PathKind, SimEvent};

/// Where a load was (or will be) serviced from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoadPath {
    /// Hit in the local L1 data cache.
    L1Hit,
    /// Missed L1, hit the shared L2.
    L2Hit,
    /// Hit a remote L1 holding the line in M/E (serviced via coherence).
    RemoteL1,
    /// Missed the whole hierarchy; serviced by DRAM.
    Mem,
    /// Serviced as a *dummy miss* by window protection (Section 3.6): the
    /// line was present but transiently installed by another core, so it is
    /// served with miss latency and no state change.
    DummyMiss,
}

impl LoadPath {
    /// True if the load needed a fill (i.e. it was an L1 miss with installs).
    pub fn is_l1_miss(self) -> bool {
        !matches!(self, LoadPath::L1Hit)
    }
}

impl std::fmt::Display for LoadPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LoadPath::L1Hit => "l1-hit",
            LoadPath::L2Hit => "l2-hit",
            LoadPath::RemoteL1 => "remote-l1",
            LoadPath::Mem => "mem",
            LoadPath::DummyMiss => "dummy-miss",
        };
        f.write_str(s)
    }
}

impl From<LoadPath> for PathKind {
    fn from(p: LoadPath) -> PathKind {
        match p {
            LoadPath::L1Hit => PathKind::L1Hit,
            LoadPath::L2Hit => PathKind::L2Hit,
            LoadPath::RemoteL1 => PathKind::RemoteHit,
            LoadPath::Mem => PathKind::Mem,
            LoadPath::DummyMiss => PathKind::Dummy,
        }
    }
}

/// The Side-Effect Entry contents returned with the load data and retained
/// in the load queue until retirement (Figure 7).
#[derive(Clone, Copy, Debug, Default)]
pub struct SefeRecord {
    /// The load installed a line in the L1 (`L1-Fill`).
    pub l1_fill: bool,
    /// The load installed a line in the L2 (`L2-Fill`).
    pub l2_fill: bool,
    /// Line evicted from the L1 by this load's install (`L1-Evict Lineaddr`).
    pub l1_evict: Option<LineAddr>,
    /// Whether the evicted victim held dirty data; the restore must
    /// reinstate the dirty bit (and pull ownership of the dirty data back
    /// from the L2) so the cleaned-up cache is byte-for-byte the
    /// pre-speculation one.
    pub l1_evict_dirty: bool,
}

impl SefeRecord {
    /// Whether cleanup has any work to do for this load.
    pub fn needs_cleanup(&self) -> bool {
        self.l1_fill || self.l2_fill
    }
}

/// Lifecycle of an MSHR entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MshrState {
    /// Miss outstanding; fill scheduled for `complete_at`.
    Pending,
    /// Fill performed; waiting for the core to collect the SEFE record.
    Filled,
    /// Squashed while inflight (epoch mismatch): the response will be
    /// dropped without changing cache state.
    Dropped,
}

/// One MSHR entry (plus its SEFE fields).
#[derive(Clone, Copy, Debug)]
pub struct MshrEntry {
    /// Missing line address.
    pub line: LineAddr,
    /// Requesting core.
    pub core: CoreId,
    /// Epoch at issue (SEFE `EpochID`).
    pub epoch: EpochId,
    /// Issuing load (SEFE `LoadID`).
    pub load: LoadId,
    /// Whether the load was speculative at issue (SEFE `isSpec`).
    pub is_spec: bool,
    /// Cycle at which the response arrives.
    pub complete_at: Cycle,
    /// Service path decided at issue.
    pub path: LoadPath,
    /// Whether the fill should install into the L2 as well (L2 miss).
    pub wants_l2_fill: bool,
    /// Entry lifecycle state.
    pub state: MshrState,
    /// SEFE produced by the fill (valid once `state == Filled`).
    pub record: SefeRecord,
    /// In insecure modes, a squashed load's fill still installs (the leak
    /// CleanupSpec closes). Set by the squash handler instead of `Dropped`.
    pub orphan: bool,
    /// Cleanup episode whose epoch bump dropped this entry (stamped by
    /// [`MshrFile::drop_pending`]; 0 while the entry is live). The fill
    /// lands cycles after the bump, so the `DroppedFill` event reads its
    /// episode from here rather than from the then-current registration.
    pub episode: u64,
    /// Allocation generation, to invalidate stale tokens.
    pub gen: u64,
}

/// Handle to an MSHR entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MshrToken {
    pub(crate) core: CoreId,
    pub(crate) idx: usize,
    pub(crate) gen: u64,
}

/// A fixed-capacity MSHR file for one core.
///
/// Besides the slots, the file keeps the counts of live and of
/// speculation-tagged entries, and `next_due`: a lower bound on the
/// `complete_at` of every entry that is not yet `Filled` (`Cycle::MAX`
/// when there is none). [`Self::alloc`] lowers the bound and the fill
/// pass (`take_due`) makes it exact; no other method adds an unfilled
/// entry or moves a `complete_at`, so the bound holds between fill passes
/// and the hierarchy skips a file whose bound lies in the future.
#[derive(Clone, Debug)]
pub struct MshrFile {
    core: CoreId,
    slots: Vec<Option<MshrEntry>>,
    live: usize,
    spec: usize,
    next_due: Cycle,
    gen: u64,
    high_water: usize,
    obs: Observer,
    // Entry lifecycle methods (alloc/free) lack a cycle parameter; the
    // hierarchy stamps the file each `advance` so emitted events carry the
    // current cycle without widening every public signature.
    now_hint: Cycle,
}

/// Error returned when the MSHR file is full (the core must stall the load).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MshrFullError;

impl std::fmt::Display for MshrFullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("all MSHR entries in use")
    }
}

impl std::error::Error for MshrFullError {}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    pub fn new(core: CoreId, capacity: usize) -> Self {
        MshrFile {
            core,
            slots: (0..capacity).map(|_| None).collect(),
            live: 0,
            spec: 0,
            next_due: Cycle::MAX,
            gen: 0,
            high_water: 0,
            obs: Observer::disabled(),
            now_hint: 0,
        }
    }

    /// Attaches the event observer (shared with the rest of the hierarchy).
    pub fn set_observer(&mut self, obs: Observer) {
        self.obs = obs;
    }

    /// Updates the cycle stamp used by emitted lifecycle events.
    #[inline]
    pub fn stamp(&mut self, now: Cycle) {
        self.now_hint = now;
    }

    /// Allocates an entry.
    ///
    /// # Errors
    /// Returns [`MshrFullError`] when no slot is free; the caller should
    /// retry the access on a later cycle.
    pub fn alloc(&mut self, entry: MshrEntry) -> Result<MshrToken, MshrFullError> {
        if self.live == self.slots.len() {
            return Err(MshrFullError);
        }
        let idx = self
            .slots
            .iter()
            .position(|s| s.is_none())
            .expect("a file below capacity has a free slot");
        self.gen += 1;
        let token = MshrToken {
            core: self.core,
            idx,
            gen: self.gen,
        };
        let (line, is_spec) = (entry.line, entry.is_spec);
        self.next_due = self.next_due.min(entry.complete_at);
        self.slots[idx] = Some(MshrEntry {
            gen: self.gen,
            ..entry
        });
        self.live += 1;
        self.spec += usize::from(is_spec);
        self.high_water = self.high_water.max(self.live);
        self.obs.emit_with(self.now_hint, || SimEvent::MshrAlloc {
            core: self.core.0,
            line: line.raw(),
            spec: is_spec,
            occupancy: self.live as u64,
        });
        Ok(token)
    }

    /// Looks up a live entry by token.
    pub fn get(&self, token: MshrToken) -> Option<&MshrEntry> {
        self.slots
            .get(token.idx)?
            .as_ref()
            .filter(|e| e.gen == token.gen)
    }

    /// Frees the entry addressed by `token` (no-op if stale).
    pub fn free(&mut self, token: MshrToken) {
        if self.get(token).is_some() {
            self.clear_slot(token.idx);
        }
    }

    /// Finds a pending entry for `line` (miss merging).
    pub fn find_pending(&self, line: LineAddr) -> Option<&MshrEntry> {
        self.slots
            .iter()
            .flatten()
            .find(|e| e.line == line && e.state == MshrState::Pending)
    }

    /// Iterates over live entries.
    pub fn iter(&self) -> impl Iterator<Item = &MshrEntry> {
        self.slots.iter().flatten()
    }

    /// Lower bound on the `complete_at` of every entry not yet `Filled`
    /// (`Cycle::MAX` when there is none).
    pub(crate) fn next_due(&self) -> Cycle {
        self.next_due
    }

    /// The earliest `complete_at` among entries not yet `Filled`, by a
    /// full scan (`Cycle::MAX` when there is none): what `next_due` bounds.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn min_unfilled_due(&self) -> Cycle {
        self.iter()
            .filter(|e| e.state != MshrState::Filled)
            .map(|e| e.complete_at)
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// Starts a fill pass at `now`: replaces `due` with the slots, in slot
    /// order, of every unfilled entry whose response has arrived, and sets
    /// `next_due` exactly for the rest. The caller then fills or clears
    /// every slot in `due` ([`Self::mark_filled`], [`Self::clear_slot`]).
    pub(crate) fn take_due(&mut self, now: Cycle, due: &mut Vec<usize>) {
        due.clear();
        let mut next_due = Cycle::MAX;
        for (i, e) in self.slots.iter().enumerate() {
            match e {
                Some(e) if e.state != MshrState::Filled => {
                    if e.complete_at <= now {
                        due.push(i);
                    } else {
                        next_due = next_due.min(e.complete_at);
                    }
                }
                _ => {}
            }
        }
        self.next_due = next_due;
    }

    /// The entry in slot `idx`, copied out (the fill pass reads it while
    /// it mutates the caches).
    pub(crate) fn slot(&self, idx: usize) -> Option<MshrEntry> {
        self.slots[idx]
    }

    /// Completes the fill of the entry in `idx`: it now waits for the core
    /// to collect `record`.
    pub(crate) fn mark_filled(&mut self, idx: usize, record: SefeRecord) {
        if let Some(e) = &mut self.slots[idx] {
            e.record = record;
            e.state = MshrState::Filled;
        }
    }

    /// Removes the entry in `idx` (used by the fill pass after dropping).
    pub(crate) fn clear_slot(&mut self, idx: usize) {
        if let Some(entry) = self.slots[idx].take() {
            self.live -= 1;
            self.spec -= usize::from(entry.is_spec);
            self.obs.emit_with(self.now_hint, || SimEvent::MshrRetire {
                core: self.core.0,
                line: entry.line.raw(),
                spec: entry.is_spec,
                occupancy: self.live as u64,
            });
        }
    }

    /// Live entry count.
    pub fn occupancy(&self) -> usize {
        self.live
    }

    /// Live speculation-tagged entry count (the SEFE occupancy).
    pub fn spec_occupancy(&self) -> usize {
        self.spec
    }

    /// Maximum simultaneous occupancy seen.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Marks the still-pending entries of this core as dropped (CleanupSpec
    /// epoch bump) and returns how many were dropped. Each dropped entry is
    /// stamped with the cleanup `episode` doing the dropping, so the
    /// `DroppedFill` emitted when the response lands is attributed to the
    /// episode that orphaned it, not whatever episode is current then.
    pub fn drop_pending(&mut self, episode: u64) -> usize {
        let mut n = 0;
        for e in self.slots.iter_mut().flatten() {
            if e.state == MshrState::Pending {
                e.state = MshrState::Dropped;
                e.episode = episode;
                n += 1;
            }
        }
        if n > 0 {
            self.obs.emit_with(self.now_hint, || SimEvent::MshrDrop {
                core: self.core.0,
                dropped: n as u64,
            });
        }
        n
    }

    /// Marks the still-pending entry addressed by `token` as an orphan: its
    /// fill will land untagged and the entry then self-frees (insecure
    /// baselines). No-op if the token is stale or the entry not pending.
    pub(crate) fn orphan(&mut self, token: MshrToken) {
        if self.get(token).is_some() {
            self.orphan_slot(token.idx);
        }
    }

    /// [`Self::orphan`]s every pending entry and returns how many there were.
    pub(crate) fn orphan_pending(&mut self) -> usize {
        (0..self.slots.len())
            .filter(|&i| self.orphan_slot(i))
            .count()
    }

    fn orphan_slot(&mut self, idx: usize) -> bool {
        match &mut self.slots[idx] {
            Some(e) if e.state == MshrState::Pending => {
                self.spec -= usize::from(e.is_spec);
                e.orphan = true;
                e.is_spec = false;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(line: u64, at: Cycle) -> MshrEntry {
        MshrEntry {
            line: LineAddr::new(line),
            core: CoreId(0),
            epoch: EpochId::zero(),
            load: LoadId(0),
            is_spec: true,
            complete_at: at,
            path: LoadPath::L2Hit,
            wants_l2_fill: false,
            state: MshrState::Pending,
            record: SefeRecord::default(),
            orphan: false,
            episode: 0,
            gen: 0,
        }
    }

    #[test]
    fn alloc_get_free_roundtrip() {
        let mut m = MshrFile::new(CoreId(0), 2);
        let t = m.alloc(entry(1, 10)).unwrap();
        assert_eq!(m.get(t).unwrap().line, LineAddr::new(1));
        assert_eq!(m.occupancy(), 1);
        m.free(t);
        assert_eq!(m.occupancy(), 0);
        assert!(m.get(t).is_none(), "token is stale after free");
    }

    #[test]
    fn capacity_limit_enforced() {
        let mut m = MshrFile::new(CoreId(0), 2);
        m.alloc(entry(1, 10)).unwrap();
        m.alloc(entry(2, 10)).unwrap();
        assert_eq!(m.alloc(entry(3, 10)), Err(MshrFullError));
        assert_eq!(m.high_water(), 2);
    }

    #[test]
    fn stale_token_does_not_alias_new_entry() {
        let mut m = MshrFile::new(CoreId(0), 1);
        let t1 = m.alloc(entry(1, 10)).unwrap();
        m.free(t1);
        let _t2 = m.alloc(entry(2, 20)).unwrap();
        assert!(m.get(t1).is_none(), "old token must not see the new entry");
    }

    #[test]
    fn find_pending_merges_only_pending() {
        let mut m = MshrFile::new(CoreId(0), 4);
        let t = m.alloc(entry(7, 10)).unwrap();
        assert!(m.find_pending(LineAddr::new(7)).is_some());
        m.mark_filled(t.idx, SefeRecord::default());
        assert!(m.find_pending(LineAddr::new(7)).is_none());
    }

    #[test]
    fn drop_pending_marks_all_pending() {
        let mut m = MshrFile::new(CoreId(0), 4);
        let t1 = m.alloc(entry(1, 10)).unwrap();
        let t2 = m.alloc(entry(2, 10)).unwrap();
        m.mark_filled(t2.idx, SefeRecord::default());
        assert_eq!(m.drop_pending(3), 1);
        assert_eq!(m.get(t1).unwrap().state, MshrState::Dropped);
        assert_eq!(m.get(t1).unwrap().episode, 3, "drop stamps the episode");
        assert_eq!(m.get(t2).unwrap().state, MshrState::Filled);
        assert_eq!(m.get(t2).unwrap().episode, 0, "filled entry untouched");
    }

    /// `next_due` must never exceed the true earliest unfilled
    /// `complete_at`, whatever the lifecycle step.
    fn assert_bound(m: &MshrFile) {
        assert!(
            m.next_due() <= m.min_unfilled_due(),
            "next_due {} above the earliest unfilled entry {}",
            m.next_due(),
            m.min_unfilled_due()
        );
    }

    #[test]
    fn alloc_lowers_next_due() {
        let mut m = MshrFile::new(CoreId(0), 4);
        assert_eq!(m.next_due(), Cycle::MAX, "empty file has nothing due");
        m.alloc(entry(1, 20)).unwrap();
        assert_eq!(m.next_due(), 20);
        m.alloc(entry(2, 30)).unwrap();
        assert_eq!(m.next_due(), 20, "a later entry leaves the bound");
        m.alloc(entry(3, 5)).unwrap();
        assert_eq!(m.next_due(), 5, "an earlier entry lowers it");
        assert_bound(&m);
    }

    #[test]
    fn fill_pass_makes_next_due_exact() {
        let mut m = MshrFile::new(CoreId(0), 4);
        let t1 = m.alloc(entry(1, 10)).unwrap();
        let t2 = m.alloc(entry(2, 30)).unwrap();
        let t3 = m.alloc(entry(3, 10)).unwrap();
        let mut due = vec![99];
        m.take_due(9, &mut due);
        assert!(due.is_empty(), "nothing is due before cycle 10");
        assert_eq!(m.next_due(), 10);
        m.take_due(10, &mut due);
        assert_eq!(due, vec![t1.idx, t3.idx], "due slots come in slot order");
        assert_eq!(m.next_due(), 30, "the bound skips the due entries");
        m.mark_filled(t1.idx, SefeRecord::default());
        m.clear_slot(t3.idx);
        assert_bound(&m);
        assert_eq!(m.min_unfilled_due(), 30);
        m.take_due(30, &mut due);
        assert_eq!(due, vec![t2.idx]);
        m.mark_filled(t2.idx, SefeRecord::default());
        assert_eq!(m.next_due(), Cycle::MAX, "only filled entries remain");
        assert_eq!(m.min_unfilled_due(), Cycle::MAX);
        m.take_due(40, &mut due);
        assert!(due.is_empty(), "filled entries are never due again");
    }

    #[test]
    fn drop_and_orphan_keep_entries_due() {
        let mut m = MshrFile::new(CoreId(0), 4);
        let t1 = m.alloc(entry(1, 10)).unwrap();
        let t2 = m.alloc(entry(2, 15)).unwrap();
        assert_eq!(m.drop_pending(1), 2);
        assert_eq!(m.next_due(), 10, "a dropped response still arrives");
        assert_bound(&m);

        let mut n = MshrFile::new(CoreId(0), 4);
        let o1 = n.alloc(entry(1, 10)).unwrap();
        n.alloc(entry(2, 15)).unwrap();
        n.orphan(o1);
        assert_eq!(n.next_due(), 10, "an orphan's fill still lands");
        assert_eq!(n.orphan_pending(), 2, "orphans stay pending until filled");
        assert_bound(&n);

        let mut due = Vec::new();
        m.take_due(15, &mut due);
        assert_eq!(due, vec![t1.idx, t2.idx]);
    }

    #[test]
    fn free_and_clear_leave_a_valid_bound() {
        let mut m = MshrFile::new(CoreId(0), 4);
        let t1 = m.alloc(entry(1, 10)).unwrap();
        let t2 = m.alloc(entry(2, 20)).unwrap();
        m.alloc(entry(3, 30)).unwrap();
        m.free(t1);
        assert_eq!(m.next_due(), 10, "freeing may leave the bound stale-low");
        assert_bound(&m);
        m.clear_slot(t2.idx);
        assert_bound(&m);
        let mut due = Vec::new();
        m.take_due(12, &mut due);
        assert!(due.is_empty());
        assert_eq!(m.next_due(), 30, "the next pass re-derives it exactly");
    }

    #[test]
    fn occupancy_counters_follow_the_lifecycle() {
        let mut m = MshrFile::new(CoreId(0), 4);
        let t1 = m.alloc(entry(1, 10)).unwrap();
        let t2 = m.alloc(entry(2, 10)).unwrap();
        let t3 = m
            .alloc(MshrEntry {
                is_spec: false,
                ..entry(3, 10)
            })
            .unwrap();
        assert_eq!((m.occupancy(), m.spec_occupancy()), (3, 2));
        m.orphan(t1);
        assert_eq!(
            (m.occupancy(), m.spec_occupancy()),
            (3, 1),
            "orphans are untagged"
        );
        m.orphan(t1);
        assert_eq!(m.spec_occupancy(), 1, "orphaning twice counts once");
        m.free(t2);
        assert_eq!((m.occupancy(), m.spec_occupancy()), (2, 0));
        m.free(t2);
        assert_eq!(m.occupancy(), 2, "a stale token frees nothing");
        m.clear_slot(t3.idx);
        m.clear_slot(t1.idx);
        assert_eq!((m.occupancy(), m.spec_occupancy()), (0, 0));
        assert_eq!(m.high_water(), 3);
    }

    #[test]
    fn sefe_needs_cleanup_logic() {
        assert!(!SefeRecord::default().needs_cleanup());
        assert!(SefeRecord {
            l1_fill: true,
            ..Default::default()
        }
        .needs_cleanup());
        assert!(SefeRecord {
            l2_fill: true,
            ..Default::default()
        }
        .needs_cleanup());
    }

    #[test]
    fn load_path_l1_miss_classification() {
        assert!(!LoadPath::L1Hit.is_l1_miss());
        assert!(LoadPath::L2Hit.is_l1_miss());
        assert!(LoadPath::Mem.is_l1_miss());
        assert!(LoadPath::RemoteL1.is_l1_miss());
    }
}
