//! The structured event vocabulary shared by every simulated layer.
//!
//! Events are plain data: primitive fields only, no references into
//! simulator state, so sinks can retain them past the emitting call and
//! across threads. `line` fields hold the cache-line number (byte address
//! divided by the line size), matching `LineAddr` in `cleanupspec-mem`.

use std::fmt;

/// Version tag of the event vocabulary + JSONL field layout. Written as
/// the first line of every JSONL trace (`{"schema": "cs-events-v3"}`) and
/// checked by `cs-report` before replaying a trace: a report built from a
/// trace with a different schema would silently mis-correlate episodes.
/// Bump when an event gains/loses/renames a field or a kind changes.
/// v3: the two snapshot kinds are gone (a run is forked by cloning it,
/// which emits nothing).
pub const EVENT_SCHEMA_VERSION: &str = "cs-events-v3";

/// Which layer of the machine emitted an event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Layer {
    /// Out-of-order core: fetch/dispatch, issue, commit, squash, fault.
    Pipeline,
    /// L1/L2 caches and coherence: fills, evictions, invalidations.
    Cache,
    /// MSHR file doubling as SEFE (speculative-entry) storage.
    Mshr,
    /// CleanupSpec undo engine: invalidate, restore, epoch bumps.
    Cleanup,
    /// DRAM backing store.
    Dram,
}

impl Layer {
    /// All layers, in emission-source order.
    pub const ALL: [Layer; 5] = [
        Layer::Pipeline,
        Layer::Cache,
        Layer::Mshr,
        Layer::Cleanup,
        Layer::Dram,
    ];

    /// Stable lowercase name (used for filtering and JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Pipeline => "pipeline",
            Layer::Cache => "cache",
            Layer::Mshr => "mshr",
            Layer::Cleanup => "cleanup",
            Layer::Dram => "dram",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Cache level an event refers to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CacheLevel {
    /// Per-core L1 data cache.
    L1,
    /// Shared L2 (the last-level cache in this model).
    L2,
}

impl CacheLevel {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheLevel::L1 => "l1",
            CacheLevel::L2 => "l2",
        }
    }
}

impl fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a load was serviced — mirrors `LoadPath` in `cleanupspec-mem`
/// without creating a dependency on it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PathKind {
    /// Hit in the requesting core's L1.
    L1Hit,
    /// Hit in the shared L2.
    L2Hit,
    /// Serviced by another core's cache (coherence transfer).
    RemoteHit,
    /// Went to DRAM.
    Mem,
    /// CleanupSpec window-protection dummy miss (DRAM latency, no fill).
    Dummy,
}

impl PathKind {
    /// All paths, fastest first. Indexes histogram arrays.
    pub const ALL: [PathKind; 5] = [
        PathKind::L1Hit,
        PathKind::L2Hit,
        PathKind::RemoteHit,
        PathKind::Mem,
        PathKind::Dummy,
    ];

    /// Stable name matching `LoadPath`'s `Display` form.
    pub fn as_str(self) -> &'static str {
        match self {
            PathKind::L1Hit => "l1-hit",
            PathKind::L2Hit => "l2-hit",
            PathKind::RemoteHit => "remote-hit",
            PathKind::Mem => "mem",
            PathKind::Dummy => "dummy",
        }
    }

    /// Dense index for per-path arrays (same order as [`PathKind::ALL`]).
    pub fn index(self) -> usize {
        match self {
            PathKind::L1Hit => 0,
            PathKind::L2Hit => 1,
            PathKind::RemoteHit => 2,
            PathKind::Mem => 3,
            PathKind::Dummy => 4,
        }
    }
}

impl fmt::Display for PathKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One simulation event. See [`Layer`] for the grouping; field semantics
/// are documented per variant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimEvent {
    // ------------------------------------------------------------ pipeline
    /// An instruction entered the window.
    Dispatch {
        /// Emitting core.
        core: usize,
        /// Dynamic sequence number.
        seq: u64,
        /// Static program counter.
        pc: u64,
    },
    /// A load left the load queue and probed the hierarchy.
    LoadIssue {
        /// Emitting core.
        core: usize,
        /// Dynamic sequence number.
        seq: u64,
        /// Requested cache line.
        line: u64,
        /// Where the load was serviced.
        path: PathKind,
        /// Whether the load was speculative (unresolved older branch).
        spec: bool,
        /// Cycles until the value returns.
        latency: u64,
    },
    /// An instruction retired architecturally. `line` is set for loads.
    Commit {
        /// Emitting core.
        core: usize,
        /// Dynamic sequence number.
        seq: u64,
        /// Static program counter.
        pc: u64,
        /// Cache line, for committed loads.
        line: Option<u64>,
    },
    /// A branch mispredict squashed the younger window.
    Squash {
        /// Emitting core.
        core: usize,
        /// Sequence number of the mispredicted branch.
        seq: u64,
        /// Instructions squashed.
        squashed: u64,
        /// Cleanup episode this squash opened or joined (1-based,
        /// monotonically increasing per core). Squashes that merge into a
        /// cleanup already waiting on in-flight loads share its episode.
        episode: u64,
    },
    /// One squashed load (one event per load with a known line).
    SquashedLoad {
        /// Emitting core.
        core: usize,
        /// The load's cache line.
        line: u64,
        /// Whether it had issued to the hierarchy before the squash.
        issued: bool,
        /// Cleanup episode the load's undo belongs to.
        episode: u64,
    },
    /// An architectural fault reached commit and flushed the window.
    Fault {
        /// Emitting core.
        core: usize,
        /// Dynamic sequence number.
        seq: u64,
        /// Static program counter.
        pc: u64,
    },
    /// The squash handler invoked the scheme's cleanup (duration known
    /// up front: the scheme returns its resume cycle).
    CleanupStart {
        /// Emitting core.
        core: usize,
        /// Squashed loads handed to the scheme.
        loads: u64,
        /// Cycles until issue resumes.
        stall: u64,
        /// Cleanup episode being executed.
        episode: u64,
    },
    /// Cleanup finished; stamped at the resume cycle.
    CleanupEnd {
        /// Emitting core.
        core: usize,
        /// Cycles the cleanup stalled issue.
        stall: u64,
        /// Cleanup episode that just closed.
        episode: u64,
    },

    // ------------------------------------------------------------ cache
    /// A line was installed.
    Fill {
        /// Requesting core.
        core: usize,
        /// Installed line.
        line: u64,
        /// Level installed into.
        level: CacheLevel,
        /// Whether the install is speculation-tagged (SEFE-tracked).
        spec: bool,
    },
    /// A line was evicted to make room.
    Evict {
        /// Core whose install caused the eviction (L2: requesting core).
        core: usize,
        /// Evicted line.
        line: u64,
        /// Level evicted from.
        level: CacheLevel,
        /// Whether the victim was dirty (writeback).
        dirty: bool,
        /// Line whose speculative install displaced it, if any
        /// (CleanupSpec owes this victim a restore if that load is
        /// squashed; if it retires, the eviction is architectural).
        evictor: Option<u64>,
    },
    /// Inclusion back-invalidation of an L1 copy after an L2 eviction.
    BackInval {
        /// Core whose L1 lost the line.
        core: usize,
        /// Invalidated line.
        line: u64,
    },
    /// Explicit `clflush`: the line left every cache level.
    Clflush {
        /// Core that executed the flush.
        core: usize,
        /// Flushed line.
        line: u64,
    },
    /// CleanupSpec window protection returned a dummy miss (DRAM latency,
    /// no state change).
    DummyMiss {
        /// Requesting core.
        core: usize,
        /// Requested line.
        line: u64,
        /// Core whose transient install is being hidden.
        owner: usize,
        /// The *prospective* cleanup episode of the owning core: the
        /// window being protected has not squashed yet, so the id names
        /// the episode that will open if it does (owner's last episode
        /// + 1).
        episode: u64,
    },
    /// GetS-Safe deferred a speculative request that would have downgraded
    /// another core's modified line.
    GetsSafeDefer {
        /// Requesting core.
        core: usize,
        /// Requested line.
        line: u64,
        /// Core owning the line in M state.
        owner: usize,
    },
    /// A demand access downgraded another core's modified copy (M -> S).
    Downgrade {
        /// Previous owner.
        owner: usize,
        /// Downgraded line.
        line: u64,
        /// Whether a *speculative* request forced the downgrade. Under
        /// GetS-Safe this must never happen — the episode ledger flags any
        /// `spec=true` downgrade as a leak.
        spec: bool,
    },
    /// The forward-progress watchdog fired: this core committed nothing
    /// for `stalled_for` cycles. One event per stuck core, mirroring the
    /// `DiagnosticDump` carried by `StopReason::Livelock`.
    Livelock {
        /// Stuck core.
        core: usize,
        /// Cycles since the last commit on any core.
        stalled_for: u64,
        /// Live ROB entries.
        rob: u64,
        /// PC of the ROB head (0 if the ROB is empty).
        head_pc: u64,
        /// Occupied MSHR entries.
        mshr: u64,
        /// Live speculation-tagged MSHR entries (pending SEFEs).
        sefes: u64,
    },

    // ------------------------------------------------------------ mshr
    /// An MSHR entry was allocated. `spec` entries double as SEFE
    /// allocations (the undo log of the speculative fill).
    MshrAlloc {
        /// Owning core.
        core: usize,
        /// Missing line.
        line: u64,
        /// Whether the entry is speculation-tagged (a SEFE allocation).
        spec: bool,
        /// Entries live after this allocation.
        occupancy: u64,
    },
    /// An MSHR entry was freed after its load was collected. `spec`
    /// entries double as SEFE frees.
    MshrRetire {
        /// Owning core.
        core: usize,
        /// The entry's line.
        line: u64,
        /// Whether the entry was speculation-tagged (a SEFE free).
        spec: bool,
        /// Entries live after this free.
        occupancy: u64,
    },
    /// An epoch bump marked pending entries as dropped.
    MshrDrop {
        /// Owning core.
        core: usize,
        /// Entries marked dropped.
        dropped: u64,
    },
    /// A speculative load found no free MSHR entry (SEFE overflow: the
    /// load retries rather than running unlogged).
    SefeOverflow {
        /// Requesting core.
        core: usize,
        /// Requested line.
        line: u64,
    },
    /// A dropped (epoch-stale) fill completed and was discarded without
    /// touching the caches.
    DroppedFill {
        /// Owning core.
        core: usize,
        /// The fill's line.
        line: u64,
        /// Cleanup episode whose epoch bump dropped the fill (stamped on
        /// the MSHR entry at drop time; the fill itself lands later).
        episode: u64,
    },
    /// An orphaned fill (owner squashed, entry kept alive in insecure
    /// modes) completed and installed anyway — the classic leak.
    OrphanFill {
        /// Owning core.
        core: usize,
        /// The fill's line.
        line: u64,
    },

    // ------------------------------------------------------------ cleanup
    /// CleanupSpec invalidated a transiently filled line.
    CleanupInval {
        /// Squashing core.
        core: usize,
        /// Invalidated (speculatively installed) line.
        line: u64,
        /// Whether the L1 copy was targeted.
        l1: bool,
        /// Whether the L2 copy was targeted.
        l2: bool,
        /// Sequence number of the squash that triggered the cleanup.
        seq: u64,
        /// Cleanup episode performing the undo.
        episode: u64,
    },
    /// CleanupSpec re-installed a victim displaced by a speculative fill.
    CleanupRestore {
        /// Squashing core.
        core: usize,
        /// Restored (victim) line.
        line: u64,
        /// The speculatively installed line whose eviction is being
        /// undone — the same line the paired [`SimEvent::CleanupInval`]
        /// targets.
        evictor: u64,
        /// Sequence number of the squash that triggered the cleanup.
        seq: u64,
        /// Cleanup episode performing the undo.
        episode: u64,
    },
    /// The core's load epoch advanced, orphan-dropping in-flight fills.
    EpochBump {
        /// Squashing core.
        core: usize,
        /// New epoch value.
        epoch: u64,
        /// Pending fills dropped by the bump.
        dropped: u64,
        /// Cleanup episode that bumped the epoch.
        episode: u64,
    },
    /// A speculative load committed; its SEFE/speculation tags cleared.
    SpecRetire {
        /// Committing core.
        core: usize,
        /// The load's line.
        line: u64,
    },
    /// A CEASER-randomized index function was (re)keyed.
    CeaserRemap {
        /// Randomized level.
        level: CacheLevel,
        /// Remap epoch (0 = initial keying).
        epoch: u64,
    },

    // ------------------------------------------------------------ dram
    /// A demand read reached DRAM.
    DramRead {
        /// Requesting core.
        core: usize,
        /// Read line.
        line: u64,
    },
    /// A dirty eviction wrote back to DRAM.
    DramWriteback {
        /// Written line.
        line: u64,
    },
}

/// A single typed field of an event, for generic rendering.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Boolean flag.
    Bool(bool),
    /// Static string (enum-like fields).
    Str(&'static str),
}

/// A set of event kinds: a bitset over [`SimEvent::KINDS`].
///
/// Sinks declare the kinds they read with it ([`EventSink::interest`]), so
/// the [`Observer`] delivers nothing else.
///
/// [`EventSink::interest`]: crate::EventSink::interest
/// [`Observer`]: crate::Observer
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KindSet(u32);

impl KindSet {
    /// Every kind.
    pub const ALL: KindSet = KindSet(u32::MAX >> (32 - SimEvent::KINDS.len()));

    /// No kind.
    pub const NONE: KindSet = KindSet(0);

    /// The kinds named in `names`.
    ///
    /// # Panics
    /// Panics on a name missing from [`SimEvent::KINDS`] — at compile time
    /// when evaluated in a `const`.
    pub const fn of(names: &[&str]) -> KindSet {
        let mut bits = 0;
        let mut n = 0;
        while n < names.len() {
            let mut k = 0;
            while !str_eq(SimEvent::KINDS[k], names[n]) {
                k += 1;
                assert!(k < SimEvent::KINDS.len(), "unknown event kind");
            }
            bits |= 1 << k;
            n += 1;
        }
        KindSet(bits)
    }

    /// Every kind in `self` or `other`.
    pub const fn union(self, other: KindSet) -> KindSet {
        KindSet(self.0 | other.0)
    }

    /// Whether `event`'s kind is in the set.
    #[inline]
    pub fn contains(self, event: &SimEvent) -> bool {
        self.contains_index(event.kind_index())
    }

    /// Whether the kind at `index` in [`SimEvent::KINDS`] is in the set.
    #[inline]
    pub fn contains_index(self, index: usize) -> bool {
        self.0 >> index & 1 == 1
    }
}

/// `a == b` in a `const fn`.
const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

impl SimEvent {
    /// Every kind name [`Self::kind`] can return, in declaration order.
    /// CLI filters (`cs-trace --filter`) validate against this list so a
    /// typo is an error instead of a silently empty trace.
    pub const KINDS: [&'static str; 29] = [
        "dispatch",
        "load-issue",
        "commit",
        "squash",
        "squashed-load",
        "fault",
        "cleanup-start",
        "cleanup-end",
        "fill",
        "evict",
        "back-inval",
        "clflush",
        "dummy-miss",
        "gets-safe-defer",
        "downgrade",
        "livelock",
        "mshr-alloc",
        "mshr-retire",
        "mshr-drop",
        "sefe-overflow",
        "dropped-fill",
        "orphan-fill",
        "cleanup-inval",
        "cleanup-restore",
        "epoch-bump",
        "spec-retire",
        "ceaser-remap",
        "dram-read",
        "dram-writeback",
    ];

    /// Stable kebab-case event name.
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }

    /// Position of [`Self::kind`] in [`Self::KINDS`] (the bit of the kind
    /// in a [`KindSet`]).
    pub fn kind_index(&self) -> usize {
        match self {
            SimEvent::Dispatch { .. } => 0,
            SimEvent::LoadIssue { .. } => 1,
            SimEvent::Commit { .. } => 2,
            SimEvent::Squash { .. } => 3,
            SimEvent::SquashedLoad { .. } => 4,
            SimEvent::Fault { .. } => 5,
            SimEvent::CleanupStart { .. } => 6,
            SimEvent::CleanupEnd { .. } => 7,
            SimEvent::Fill { .. } => 8,
            SimEvent::Evict { .. } => 9,
            SimEvent::BackInval { .. } => 10,
            SimEvent::Clflush { .. } => 11,
            SimEvent::DummyMiss { .. } => 12,
            SimEvent::GetsSafeDefer { .. } => 13,
            SimEvent::Downgrade { .. } => 14,
            SimEvent::Livelock { .. } => 15,
            SimEvent::MshrAlloc { .. } => 16,
            SimEvent::MshrRetire { .. } => 17,
            SimEvent::MshrDrop { .. } => 18,
            SimEvent::SefeOverflow { .. } => 19,
            SimEvent::DroppedFill { .. } => 20,
            SimEvent::OrphanFill { .. } => 21,
            SimEvent::CleanupInval { .. } => 22,
            SimEvent::CleanupRestore { .. } => 23,
            SimEvent::EpochBump { .. } => 24,
            SimEvent::SpecRetire { .. } => 25,
            SimEvent::CeaserRemap { .. } => 26,
            SimEvent::DramRead { .. } => 27,
            SimEvent::DramWriteback { .. } => 28,
        }
    }

    /// The layer that emits this event.
    pub fn layer(&self) -> Layer {
        match self {
            SimEvent::Dispatch { .. }
            | SimEvent::LoadIssue { .. }
            | SimEvent::Commit { .. }
            | SimEvent::Squash { .. }
            | SimEvent::SquashedLoad { .. }
            | SimEvent::Fault { .. }
            | SimEvent::CleanupStart { .. }
            | SimEvent::CleanupEnd { .. }
            | SimEvent::Livelock { .. } => Layer::Pipeline,
            SimEvent::Fill { .. }
            | SimEvent::Evict { .. }
            | SimEvent::BackInval { .. }
            | SimEvent::Clflush { .. }
            | SimEvent::DummyMiss { .. }
            | SimEvent::GetsSafeDefer { .. }
            | SimEvent::Downgrade { .. } => Layer::Cache,
            SimEvent::MshrAlloc { .. }
            | SimEvent::MshrRetire { .. }
            | SimEvent::MshrDrop { .. }
            | SimEvent::SefeOverflow { .. }
            | SimEvent::DroppedFill { .. }
            | SimEvent::OrphanFill { .. } => Layer::Mshr,
            SimEvent::CleanupInval { .. }
            | SimEvent::CleanupRestore { .. }
            | SimEvent::EpochBump { .. }
            | SimEvent::SpecRetire { .. }
            | SimEvent::CeaserRemap { .. } => Layer::Cleanup,
            SimEvent::DramRead { .. } | SimEvent::DramWriteback { .. } => Layer::Dram,
        }
    }

    /// The core most directly associated with the event, if any.
    pub fn core(&self) -> Option<usize> {
        match *self {
            SimEvent::Dispatch { core, .. }
            | SimEvent::LoadIssue { core, .. }
            | SimEvent::Commit { core, .. }
            | SimEvent::Squash { core, .. }
            | SimEvent::SquashedLoad { core, .. }
            | SimEvent::Fault { core, .. }
            | SimEvent::CleanupStart { core, .. }
            | SimEvent::CleanupEnd { core, .. }
            | SimEvent::Fill { core, .. }
            | SimEvent::Evict { core, .. }
            | SimEvent::BackInval { core, .. }
            | SimEvent::Clflush { core, .. }
            | SimEvent::DummyMiss { core, .. }
            | SimEvent::GetsSafeDefer { core, .. }
            | SimEvent::MshrAlloc { core, .. }
            | SimEvent::MshrRetire { core, .. }
            | SimEvent::MshrDrop { core, .. }
            | SimEvent::SefeOverflow { core, .. }
            | SimEvent::DroppedFill { core, .. }
            | SimEvent::OrphanFill { core, .. }
            | SimEvent::CleanupInval { core, .. }
            | SimEvent::CleanupRestore { core, .. }
            | SimEvent::EpochBump { core, .. }
            | SimEvent::SpecRetire { core, .. }
            | SimEvent::Livelock { core, .. }
            | SimEvent::DramRead { core, .. } => Some(core),
            SimEvent::Downgrade { owner, .. } => Some(owner),
            SimEvent::CeaserRemap { .. } | SimEvent::DramWriteback { .. } => None,
        }
    }

    /// The cache line the event refers to, if any.
    pub fn line(&self) -> Option<u64> {
        match *self {
            SimEvent::LoadIssue { line, .. }
            | SimEvent::SquashedLoad { line, .. }
            | SimEvent::Fill { line, .. }
            | SimEvent::Evict { line, .. }
            | SimEvent::BackInval { line, .. }
            | SimEvent::Clflush { line, .. }
            | SimEvent::DummyMiss { line, .. }
            | SimEvent::GetsSafeDefer { line, .. }
            | SimEvent::Downgrade { line, .. }
            | SimEvent::MshrAlloc { line, .. }
            | SimEvent::MshrRetire { line, .. }
            | SimEvent::SefeOverflow { line, .. }
            | SimEvent::DroppedFill { line, .. }
            | SimEvent::OrphanFill { line, .. }
            | SimEvent::CleanupInval { line, .. }
            | SimEvent::CleanupRestore { line, .. }
            | SimEvent::SpecRetire { line, .. }
            | SimEvent::DramRead { line, .. }
            | SimEvent::DramWriteback { line } => Some(line),
            SimEvent::Commit { line, .. } => line,
            _ => None,
        }
    }

    /// The cleanup episode the event belongs to, if it carries one.
    /// `0` means "outside any attributed episode" (e.g. a cleanup call
    /// issued directly by a unit test, before any squash registered an
    /// episode) and is mapped to `None` here.
    pub fn episode(&self) -> Option<u64> {
        let ep = match *self {
            SimEvent::Squash { episode, .. }
            | SimEvent::SquashedLoad { episode, .. }
            | SimEvent::CleanupStart { episode, .. }
            | SimEvent::CleanupEnd { episode, .. }
            | SimEvent::DummyMiss { episode, .. }
            | SimEvent::DroppedFill { episode, .. }
            | SimEvent::CleanupInval { episode, .. }
            | SimEvent::CleanupRestore { episode, .. }
            | SimEvent::EpochBump { episode, .. } => episode,
            _ => return None,
        };
        (ep != 0).then_some(ep)
    }

    /// Every field as `(name, value)` pairs, in declaration order. Generic
    /// renderers (JSONL, Perfetto args, `Display`) are built on this.
    pub fn fields(&self) -> Vec<(&'static str, FieldValue)> {
        use FieldValue::{Bool, Str, U64};
        match *self {
            SimEvent::Dispatch { core, seq, pc } => {
                vec![
                    ("core", U64(core as u64)),
                    ("seq", U64(seq)),
                    ("pc", U64(pc)),
                ]
            }
            SimEvent::LoadIssue {
                core,
                seq,
                line,
                path,
                spec,
                latency,
            } => vec![
                ("core", U64(core as u64)),
                ("seq", U64(seq)),
                ("line", U64(line)),
                ("path", Str(path.as_str())),
                ("spec", Bool(spec)),
                ("latency", U64(latency)),
            ],
            SimEvent::Commit {
                core,
                seq,
                pc,
                line,
            } => {
                let mut f = vec![
                    ("core", U64(core as u64)),
                    ("seq", U64(seq)),
                    ("pc", U64(pc)),
                ];
                if let Some(l) = line {
                    f.push(("line", U64(l)));
                }
                f
            }
            SimEvent::Squash {
                core,
                seq,
                squashed,
                episode,
            } => vec![
                ("core", U64(core as u64)),
                ("seq", U64(seq)),
                ("squashed", U64(squashed)),
                ("episode", U64(episode)),
            ],
            SimEvent::SquashedLoad {
                core,
                line,
                issued,
                episode,
            } => vec![
                ("core", U64(core as u64)),
                ("line", U64(line)),
                ("issued", Bool(issued)),
                ("episode", U64(episode)),
            ],
            SimEvent::Fault { core, seq, pc } => {
                vec![
                    ("core", U64(core as u64)),
                    ("seq", U64(seq)),
                    ("pc", U64(pc)),
                ]
            }
            SimEvent::CleanupStart {
                core,
                loads,
                stall,
                episode,
            } => vec![
                ("core", U64(core as u64)),
                ("loads", U64(loads)),
                ("stall", U64(stall)),
                ("episode", U64(episode)),
            ],
            SimEvent::CleanupEnd {
                core,
                stall,
                episode,
            } => vec![
                ("core", U64(core as u64)),
                ("stall", U64(stall)),
                ("episode", U64(episode)),
            ],
            SimEvent::Fill {
                core,
                line,
                level,
                spec,
            } => vec![
                ("core", U64(core as u64)),
                ("line", U64(line)),
                ("level", Str(level.as_str())),
                ("spec", Bool(spec)),
            ],
            SimEvent::Evict {
                core,
                line,
                level,
                dirty,
                evictor,
            } => {
                let mut f = vec![
                    ("core", U64(core as u64)),
                    ("line", U64(line)),
                    ("level", Str(level.as_str())),
                    ("dirty", Bool(dirty)),
                    ("by_spec", Bool(evictor.is_some())),
                ];
                if let Some(e) = evictor {
                    f.push(("evictor", U64(e)));
                }
                f
            }
            SimEvent::BackInval { core, line }
            | SimEvent::Clflush { core, line }
            | SimEvent::SefeOverflow { core, line }
            | SimEvent::OrphanFill { core, line }
            | SimEvent::SpecRetire { core, line }
            | SimEvent::DramRead { core, line } => {
                vec![("core", U64(core as u64)), ("line", U64(line))]
            }
            SimEvent::DummyMiss {
                core,
                line,
                owner,
                episode,
            } => vec![
                ("core", U64(core as u64)),
                ("line", U64(line)),
                ("owner", U64(owner as u64)),
                ("episode", U64(episode)),
            ],
            SimEvent::DroppedFill {
                core,
                line,
                episode,
            } => vec![
                ("core", U64(core as u64)),
                ("line", U64(line)),
                ("episode", U64(episode)),
            ],
            SimEvent::GetsSafeDefer { core, line, owner } => vec![
                ("core", U64(core as u64)),
                ("line", U64(line)),
                ("owner", U64(owner as u64)),
            ],
            SimEvent::Downgrade { owner, line, spec } => {
                vec![
                    ("owner", U64(owner as u64)),
                    ("line", U64(line)),
                    ("spec", Bool(spec)),
                ]
            }
            SimEvent::Livelock {
                core,
                stalled_for,
                rob,
                head_pc,
                mshr,
                sefes,
            } => vec![
                ("core", U64(core as u64)),
                ("stalled_for", U64(stalled_for)),
                ("rob", U64(rob)),
                ("head_pc", U64(head_pc)),
                ("mshr", U64(mshr)),
                ("sefes", U64(sefes)),
            ],
            SimEvent::MshrAlloc {
                core,
                line,
                spec,
                occupancy,
            }
            | SimEvent::MshrRetire {
                core,
                line,
                spec,
                occupancy,
            } => vec![
                ("core", U64(core as u64)),
                ("line", U64(line)),
                ("spec", Bool(spec)),
                ("occupancy", U64(occupancy)),
            ],
            SimEvent::MshrDrop { core, dropped } => {
                vec![("core", U64(core as u64)), ("dropped", U64(dropped))]
            }
            SimEvent::CleanupInval {
                core,
                line,
                l1,
                l2,
                seq,
                episode,
            } => vec![
                ("core", U64(core as u64)),
                ("line", U64(line)),
                ("l1", Bool(l1)),
                ("l2", Bool(l2)),
                ("seq", U64(seq)),
                ("episode", U64(episode)),
            ],
            SimEvent::CleanupRestore {
                core,
                line,
                evictor,
                seq,
                episode,
            } => vec![
                ("core", U64(core as u64)),
                ("line", U64(line)),
                ("evictor", U64(evictor)),
                ("seq", U64(seq)),
                ("episode", U64(episode)),
            ],
            SimEvent::EpochBump {
                core,
                epoch,
                dropped,
                episode,
            } => vec![
                ("core", U64(core as u64)),
                ("epoch", U64(epoch)),
                ("dropped", U64(dropped)),
                ("episode", U64(episode)),
            ],
            SimEvent::CeaserRemap { level, epoch } => {
                vec![("level", Str(level.as_str())), ("epoch", U64(epoch))]
            }
            SimEvent::DramWriteback { line } => vec![("line", U64(line))],
        }
    }
}

impl fmt::Display for SimEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.layer(), self.kind())?;
        for (name, value) in self.fields() {
            match value {
                // Lines and pcs read better in hex.
                FieldValue::U64(v) if name == "line" || name == "pc" || name == "evictor" => {
                    write!(f, " {name}=0x{v:x}")?
                }
                FieldValue::U64(v) => write!(f, " {name}={v}")?,
                FieldValue::Bool(v) => write!(f, " {name}={v}")?,
                FieldValue::Str(v) => write!(f, " {name}={v}")?,
            }
        }
        Ok(())
    }
}

/// One sample of every event variant, for exhaustiveness tests. Adding a
/// variant without extending this list fails the schema-pinning test
/// below, which is the point: every variant must be represented.
#[cfg(test)]
pub(crate) fn sample_events() -> Vec<SimEvent> {
    vec![
        SimEvent::Dispatch {
            core: 0,
            seq: 1,
            pc: 2,
        },
        SimEvent::LoadIssue {
            core: 0,
            seq: 1,
            line: 3,
            path: PathKind::Mem,
            spec: true,
            latency: 100,
        },
        SimEvent::Commit {
            core: 0,
            seq: 1,
            pc: 2,
            line: Some(3),
        },
        SimEvent::Squash {
            core: 0,
            seq: 1,
            squashed: 4,
            episode: 1,
        },
        SimEvent::SquashedLoad {
            core: 0,
            line: 3,
            issued: true,
            episode: 1,
        },
        SimEvent::Fault {
            core: 0,
            seq: 1,
            pc: 2,
        },
        SimEvent::CleanupStart {
            core: 0,
            loads: 2,
            stall: 20,
            episode: 1,
        },
        SimEvent::CleanupEnd {
            core: 0,
            stall: 20,
            episode: 1,
        },
        SimEvent::Fill {
            core: 0,
            line: 3,
            level: CacheLevel::L2,
            spec: false,
        },
        SimEvent::Evict {
            core: 0,
            line: 3,
            level: CacheLevel::L1,
            dirty: true,
            evictor: Some(9),
        },
        SimEvent::BackInval { core: 0, line: 3 },
        SimEvent::Clflush { core: 0, line: 3 },
        SimEvent::DummyMiss {
            core: 0,
            line: 3,
            owner: 1,
            episode: 2,
        },
        SimEvent::GetsSafeDefer {
            core: 0,
            line: 3,
            owner: 1,
        },
        SimEvent::Downgrade {
            owner: 1,
            line: 3,
            spec: false,
        },
        SimEvent::Livelock {
            core: 0,
            stalled_for: 200_000,
            rob: 4,
            head_pc: 0x10,
            mshr: 8,
            sefes: 8,
        },
        SimEvent::MshrAlloc {
            core: 0,
            line: 3,
            spec: true,
            occupancy: 1,
        },
        SimEvent::MshrRetire {
            core: 0,
            line: 3,
            spec: true,
            occupancy: 0,
        },
        SimEvent::MshrDrop {
            core: 0,
            dropped: 2,
        },
        SimEvent::SefeOverflow { core: 0, line: 3 },
        SimEvent::DroppedFill {
            core: 0,
            line: 3,
            episode: 1,
        },
        SimEvent::OrphanFill { core: 0, line: 3 },
        SimEvent::CleanupInval {
            core: 0,
            line: 3,
            l1: true,
            l2: false,
            seq: 1,
            episode: 1,
        },
        SimEvent::CleanupRestore {
            core: 0,
            line: 3,
            evictor: 9,
            seq: 1,
            episode: 1,
        },
        SimEvent::EpochBump {
            core: 0,
            epoch: 2,
            dropped: 1,
            episode: 1,
        },
        SimEvent::SpecRetire { core: 0, line: 3 },
        SimEvent::CeaserRemap {
            level: CacheLevel::L2,
            epoch: 0,
        },
        SimEvent::DramRead { core: 0, line: 3 },
        SimEvent::DramWriteback { line: 3 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique_and_kebab() {
        let events = sample_events();
        let mut kinds: Vec<_> = events.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        let before = kinds.len();
        kinds.dedup();
        assert_eq!(kinds.len(), before, "duplicate event kind");
        for k in kinds {
            assert!(
                k.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "bad kind {k}"
            );
        }
    }

    #[test]
    fn every_layer_is_represented() {
        let events = sample_events();
        for layer in Layer::ALL {
            assert!(
                events.iter().any(|e| e.layer() == layer),
                "no event for {layer}"
            );
        }
    }

    #[test]
    fn display_includes_layer_kind_and_hex_line() {
        let e = SimEvent::Fill {
            core: 1,
            line: 0xabc,
            level: CacheLevel::L1,
            spec: true,
        };
        let s = e.to_string();
        assert!(s.contains("[cache] fill"), "{s}");
        assert!(s.contains("line=0xabc"), "{s}");
        assert!(s.contains("spec=true"), "{s}");
    }

    #[test]
    fn path_index_matches_all_order() {
        for (i, p) in PathKind::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    /// The pinned `cs-events-v3` schema: every event kind and the exact
    /// JSONL field names it emits, in order. Changing any line here is a
    /// schema break — bump [`EVENT_SCHEMA_VERSION`] and update every
    /// consumer (`cs-report` refuses traces with a different version).
    const PINNED_SCHEMA: &[(&str, &str)] = &[
        ("back-inval", "core,line"),
        ("ceaser-remap", "level,epoch"),
        ("cleanup-end", "core,stall,episode"),
        ("cleanup-inval", "core,line,l1,l2,seq,episode"),
        ("cleanup-restore", "core,line,evictor,seq,episode"),
        ("cleanup-start", "core,loads,stall,episode"),
        ("clflush", "core,line"),
        ("commit", "core,seq,pc,line"),
        ("dispatch", "core,seq,pc"),
        ("downgrade", "owner,line,spec"),
        ("dram-read", "core,line"),
        ("dram-writeback", "line"),
        ("dropped-fill", "core,line,episode"),
        ("dummy-miss", "core,line,owner,episode"),
        ("epoch-bump", "core,epoch,dropped,episode"),
        ("evict", "core,line,level,dirty,by_spec,evictor"),
        ("fault", "core,seq,pc"),
        ("fill", "core,line,level,spec"),
        ("gets-safe-defer", "core,line,owner"),
        ("livelock", "core,stalled_for,rob,head_pc,mshr,sefes"),
        ("load-issue", "core,seq,line,path,spec,latency"),
        ("mshr-alloc", "core,line,spec,occupancy"),
        ("mshr-drop", "core,dropped"),
        ("mshr-retire", "core,line,spec,occupancy"),
        ("orphan-fill", "core,line"),
        ("sefe-overflow", "core,line"),
        ("spec-retire", "core,line"),
        ("squash", "core,seq,squashed,episode"),
        ("squashed-load", "core,line,issued,episode"),
    ];

    /// The `cs-events-v3` exhaustiveness test. Pins every
    /// `SimEvent::kind()` and its JSONL field layout against
    /// [`PINNED_SCHEMA`]; `sample_events()` must cover every variant
    /// (the count is asserted so a new variant cannot slip in unsampled).
    #[test]
    fn event_schema_is_pinned() {
        assert_eq!(EVENT_SCHEMA_VERSION, "cs-events-v3");
        let events = sample_events();
        let mut got: Vec<(String, String)> = events
            .iter()
            .map(|e| {
                let names: Vec<&str> = e.fields().iter().map(|(n, _)| *n).collect();
                (e.kind().to_string(), names.join(","))
            })
            .collect();
        got.sort();
        let want: Vec<(String, String)> = PINNED_SCHEMA
            .iter()
            .map(|(k, f)| (k.to_string(), f.to_string()))
            .collect();
        assert_eq!(
            got.len(),
            want.len(),
            "sample_events() covers {} kinds, pinned schema has {} — \
             a variant was added or removed without a schema decision",
            got.len(),
            want.len()
        );
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g, w, "event schema drifted; bump cs-events-v3 deliberately");
        }
    }

    #[test]
    fn kinds_list_matches_every_variant() {
        let mut from_samples: Vec<&str> = sample_events().iter().map(|e| e.kind()).collect();
        from_samples.sort_unstable();
        from_samples.dedup();
        let mut listed = SimEvent::KINDS.to_vec();
        listed.sort_unstable();
        assert_eq!(
            from_samples, listed,
            "SimEvent::KINDS drifted from the actual kind() names"
        );
    }

    #[test]
    fn episode_accessor_maps_zero_to_none() {
        let e = SimEvent::CleanupInval {
            core: 0,
            line: 3,
            l1: true,
            l2: false,
            seq: 7,
            episode: 4,
        };
        assert_eq!(e.episode(), Some(4));
        let unattributed = SimEvent::CleanupInval {
            core: 0,
            line: 3,
            l1: true,
            l2: false,
            seq: 0,
            episode: 0,
        };
        assert_eq!(unattributed.episode(), None);
        assert_eq!(SimEvent::DramWriteback { line: 1 }.episode(), None);
    }
}
