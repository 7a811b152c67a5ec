//! The structured event vocabulary shared by every simulated layer.
//!
//! Events are plain data: primitive fields only, no references into
//! simulator state, so sinks can retain them past the emitting call and
//! across threads. `line` fields hold the cache-line number (byte address
//! divided by the line size), matching `LineAddr` in `cleanupspec-mem`.

use crate::jsonparse::JsonValue;
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

/// Declares the event vocabulary: the one place an event kind is written
/// down. Each [`Layer`] lists its variants; each variant gives its
/// kebab-case kind and its typed fields, in JSONL order. From that list
/// the macro generates [`SimEvent`], [`SimEvent::KINDS`],
/// [`SimEvent::kind_index`], [`SimEvent::layer`], [`SimEvent::fields`] and
/// the JSONL decoder behind [`crate::event_from_json`].
///
/// A field's type picks its encoding through the private [`Field`] trait.
/// A field written `name: Option<T> [flag]` is encoded as the bool `flag`
/// (whether the value is present) followed by `name` when it is.
macro_rules! events {
    ($(
        $layer:ident {
            $(
                $(#[$doc:meta])*
                $variant:ident = $kind:literal {
                    $( $(#[$field_doc:meta])* $field:ident: $ty:ty $([$flag:ident])? ),* $(,)?
                }
            )*
        }
    )*) => {
        /// One simulation event. See [`Layer`] for the grouping; field
        /// semantics are documented per variant.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum SimEvent {
            $($(
                $(#[$doc])*
                $variant { $( $(#[$field_doc])* $field: $ty, )* },
            )*)*
        }

        /// The kinds of [`SimEvent`] without their fields: a kind's
        /// discriminant is its index in [`SimEvent::KINDS`].
        enum Kind {
            $($($variant,)*)*
        }

        impl SimEvent {
            /// Every kind name [`Self::kind`] can return, in declaration
            /// order. CLI filters (`cs-trace --filter`) validate against this
            /// list so a typo is an error instead of a silently empty trace.
            pub const KINDS: [&'static str; [$($($kind,)*)*].len()] = [$($($kind,)*)*];

            /// Position of [`Self::kind`] in [`Self::KINDS`] (the bit of the
            /// kind in a [`KindSet`]).
            pub fn kind_index(&self) -> usize {
                (match self {
                    $($(SimEvent::$variant { .. } => Kind::$variant,)*)*
                }) as usize
            }

            /// The layer that emits this event.
            pub fn layer(&self) -> Layer {
                match self {
                    $($(SimEvent::$variant { .. } => Layer::$layer,)*)*
                }
            }

            /// Calls `f` with every field as `(name, value)`, in declaration
            /// order: the one encoder, behind [`Self::fields`] and the field
            /// accessors.
            pub(crate) fn each_field(&self, mut f: impl FnMut(&'static str, FieldValue)) {
                match *self {
                    $($(SimEvent::$variant { $($field),* } => {
                        $(events!(@put f, $field $([$flag])?);)*
                    })*)*
                }
            }

            /// Reads one JSONL trace line back into `(cycle, event)`: the
            /// inverse of [`crate::event_to_json`].
            pub(crate) fn from_json(value: &JsonValue) -> Result<(u64, SimEvent), String> {
                let kind = value
                    .get("kind")
                    .and_then(JsonValue::as_str)
                    .ok_or("missing \"kind\"")?;
                let cycle = u64::take(value, kind, "cycle")?;
                let event = match kind {
                    $($($kind => SimEvent::$variant {
                        $($field: events!(@take value, kind, $field: $ty $([$flag])?),)*
                    },)*)*
                    other => return Err(format!("unknown event kind {other:?}")),
                };
                Ok((cycle, event))
            }
        }
    };
    (@put $f:ident, $field:ident [$flag:ident]) => {{
        $f(stringify!($flag), FieldValue::Bool($field.is_some()));
        $field.put(stringify!($field), &mut $f)
    }};
    (@put $f:ident, $field:ident) => {
        $field.put(stringify!($field), &mut $f)
    };
    (@take $value:ident, $kind:ident, $field:ident: $ty:ty [$flag:ident]) => {
        if bool::take($value, $kind, stringify!($flag))? {
            Some(Field::take($value, $kind, stringify!($field))?)
        } else {
            None
        }
    };
    (@take $value:ident, $kind:ident, $field:ident: $ty:ty) => {
        <$ty as Field>::take($value, $kind, stringify!($field))?
    };
}

events! {
    Pipeline {
        /// An instruction entered the window.
        Dispatch = "dispatch" {
            /// Emitting core.
            core: usize,
            /// Dynamic sequence number.
            seq: u64,
            /// Static program counter.
            pc: u64,
        }
        /// A load left the load queue and probed the hierarchy.
        LoadIssue = "load-issue" {
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
        }
        /// An instruction retired architecturally. `line` is set for loads.
        Commit = "commit" {
            /// Emitting core.
            core: usize,
            /// Dynamic sequence number.
            seq: u64,
            /// Static program counter.
            pc: u64,
            /// Cache line, for committed loads.
            line: Option<u64>,
        }
        /// A branch mispredict squashed the younger window.
        Squash = "squash" {
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
        }
        /// One squashed load (one event per load with a known line).
        SquashedLoad = "squashed-load" {
            /// Emitting core.
            core: usize,
            /// The load's cache line.
            line: u64,
            /// Whether it had issued to the hierarchy before the squash.
            issued: bool,
            /// Cleanup episode the load's undo belongs to.
            episode: u64,
        }
        /// An architectural fault reached commit and flushed the window.
        Fault = "fault" {
            /// Emitting core.
            core: usize,
            /// Dynamic sequence number.
            seq: u64,
            /// Static program counter.
            pc: u64,
        }
        /// The squash handler invoked the scheme's cleanup (duration known
        /// up front: the scheme returns its resume cycle).
        CleanupStart = "cleanup-start" {
            /// Emitting core.
            core: usize,
            /// Squashed loads handed to the scheme.
            loads: u64,
            /// Cycles until issue resumes.
            stall: u64,
            /// Cleanup episode being executed.
            episode: u64,
        }
        /// Cleanup finished; stamped at the resume cycle.
        CleanupEnd = "cleanup-end" {
            /// Emitting core.
            core: usize,
            /// Cycles the cleanup stalled issue.
            stall: u64,
            /// Cleanup episode that just closed.
            episode: u64,
        }
        /// The forward-progress watchdog fired: this core committed nothing
        /// for `stalled_for` cycles. One event per stuck core, mirroring the
        /// `DiagnosticDump` carried by `StopReason::Livelock`.
        Livelock = "livelock" {
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
        }
    }

    Cache {
        /// A line was installed.
        Fill = "fill" {
            /// Requesting core.
            core: usize,
            /// Installed line.
            line: u64,
            /// Level installed into.
            level: CacheLevel,
            /// Whether the install is speculation-tagged (SEFE-tracked).
            spec: bool,
        }
        /// A line was evicted to make room.
        Evict = "evict" {
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
            evictor: Option<u64> [by_spec],
        }
        /// Inclusion back-invalidation of an L1 copy after an L2 eviction.
        BackInval = "back-inval" {
            /// Core whose L1 lost the line.
            core: usize,
            /// Invalidated line.
            line: u64,
        }
        /// Explicit `clflush`: the line left every cache level.
        Clflush = "clflush" {
            /// Core that executed the flush.
            core: usize,
            /// Flushed line.
            line: u64,
        }
        /// CleanupSpec window protection returned a dummy miss (DRAM latency,
        /// no state change).
        DummyMiss = "dummy-miss" {
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
        }
        /// GetS-Safe deferred a speculative request that would have downgraded
        /// another core's modified line.
        GetsSafeDefer = "gets-safe-defer" {
            /// Requesting core.
            core: usize,
            /// Requested line.
            line: u64,
            /// Core owning the line in M state.
            owner: usize,
        }
        /// A demand access downgraded another core's modified copy (M -> S).
        Downgrade = "downgrade" {
            /// Previous owner.
            owner: usize,
            /// Downgraded line.
            line: u64,
            /// Whether a *speculative* request forced the downgrade. Under
            /// GetS-Safe this must never happen — the episode ledger flags any
            /// `spec=true` downgrade as a leak.
            spec: bool,
        }
    }

    Mshr {
        /// An MSHR entry was allocated. `spec` entries double as SEFE
        /// allocations (the undo log of the speculative fill).
        MshrAlloc = "mshr-alloc" {
            /// Owning core.
            core: usize,
            /// Missing line.
            line: u64,
            /// Whether the entry is speculation-tagged (a SEFE allocation).
            spec: bool,
            /// Entries live after this allocation.
            occupancy: u64,
        }
        /// An MSHR entry was freed after its load was collected. `spec`
        /// entries double as SEFE frees.
        MshrRetire = "mshr-retire" {
            /// Owning core.
            core: usize,
            /// The entry's line.
            line: u64,
            /// Whether the entry was speculation-tagged (a SEFE free).
            spec: bool,
            /// Entries live after this free.
            occupancy: u64,
        }
        /// An epoch bump marked pending entries as dropped.
        MshrDrop = "mshr-drop" {
            /// Owning core.
            core: usize,
            /// Entries marked dropped.
            dropped: u64,
        }
        /// A speculative load found no free MSHR entry (SEFE overflow: the
        /// load retries rather than running unlogged).
        SefeOverflow = "sefe-overflow" {
            /// Requesting core.
            core: usize,
            /// Requested line.
            line: u64,
        }
        /// A dropped (epoch-stale) fill completed and was discarded without
        /// touching the caches.
        DroppedFill = "dropped-fill" {
            /// Owning core.
            core: usize,
            /// The fill's line.
            line: u64,
            /// Cleanup episode whose epoch bump dropped the fill (stamped on
            /// the MSHR entry at drop time; the fill itself lands later).
            episode: u64,
        }
        /// An orphaned fill (owner squashed, entry kept alive in insecure
        /// modes) completed and installed anyway — the classic leak.
        OrphanFill = "orphan-fill" {
            /// Owning core.
            core: usize,
            /// The fill's line.
            line: u64,
        }
    }

    Cleanup {
        /// CleanupSpec invalidated a transiently filled line.
        CleanupInval = "cleanup-inval" {
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
        }
        /// CleanupSpec re-installed a victim displaced by a speculative fill.
        CleanupRestore = "cleanup-restore" {
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
        }
        /// The core's load epoch advanced, orphan-dropping in-flight fills.
        EpochBump = "epoch-bump" {
            /// Squashing core.
            core: usize,
            /// New epoch value.
            epoch: u64,
            /// Pending fills dropped by the bump.
            dropped: u64,
            /// Cleanup episode that bumped the epoch.
            episode: u64,
        }
        /// A speculative load committed; its SEFE/speculation tags cleared.
        SpecRetire = "spec-retire" {
            /// Committing core.
            core: usize,
            /// The load's line.
            line: u64,
        }
        /// A CEASER-randomized index function was (re)keyed.
        CeaserRemap = "ceaser-remap" {
            /// Randomized level.
            level: CacheLevel,
            /// Remap epoch (0 = initial keying).
            epoch: u64,
        }
    }

    Dram {
        /// A demand read reached DRAM.
        DramRead = "dram-read" {
            /// Requesting core.
            core: usize,
            /// Read line.
            line: u64,
        }
        /// A dirty eviction wrote back to DRAM.
        DramWriteback = "dram-writeback" {
            /// Written line.
            line: u64,
        }
    }
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

/// How one field type is written into [`SimEvent::fields`] and read back
/// from a JSONL object. The decoder's error messages name the event kind
/// and the field, because a mismatch is the symptom of reading a trace of
/// another schema version.
trait Field: Sized {
    fn put(self, name: &'static str, f: &mut impl FnMut(&'static str, FieldValue));
    fn take(value: &JsonValue, kind: &str, name: &str) -> Result<Self, String>;
}

impl Field for u64 {
    fn put(self, name: &'static str, f: &mut impl FnMut(&'static str, FieldValue)) {
        f(name, FieldValue::U64(self));
    }
    fn take(value: &JsonValue, kind: &str, name: &str) -> Result<Self, String> {
        value
            .get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("{kind}: missing or non-integer \"{name}\""))
    }
}

impl Field for usize {
    fn put(self, name: &'static str, f: &mut impl FnMut(&'static str, FieldValue)) {
        (self as u64).put(name, f);
    }
    fn take(value: &JsonValue, kind: &str, name: &str) -> Result<Self, String> {
        u64::take(value, kind, name).map(|v| v as usize)
    }
}

impl Field for bool {
    fn put(self, name: &'static str, f: &mut impl FnMut(&'static str, FieldValue)) {
        f(name, FieldValue::Bool(self));
    }
    fn take(value: &JsonValue, kind: &str, name: &str) -> Result<Self, String> {
        match value.get(name) {
            Some(JsonValue::Bool(v)) => Ok(*v),
            _ => Err(format!("{kind}: missing or non-bool \"{name}\"")),
        }
    }
}

/// Written only when `Some`; read as `None` when absent.
impl Field for Option<u64> {
    fn put(self, name: &'static str, f: &mut impl FnMut(&'static str, FieldValue)) {
        if let Some(v) = self {
            v.put(name, f);
        }
    }
    fn take(value: &JsonValue, _kind: &str, name: &str) -> Result<Self, String> {
        Ok(value.get(name).and_then(JsonValue::as_u64))
    }
}

impl Field for PathKind {
    fn put(self, name: &'static str, f: &mut impl FnMut(&'static str, FieldValue)) {
        f(name, FieldValue::Str(self.as_str()));
    }
    fn take(value: &JsonValue, kind: &str, name: &str) -> Result<Self, String> {
        take_named(value, kind, name, "path", &PathKind::ALL, PathKind::as_str)
    }
}

impl Field for CacheLevel {
    fn put(self, name: &'static str, f: &mut impl FnMut(&'static str, FieldValue)) {
        f(name, FieldValue::Str(self.as_str()));
    }
    fn take(value: &JsonValue, kind: &str, name: &str) -> Result<Self, String> {
        let all = &[CacheLevel::L1, CacheLevel::L2];
        take_named(value, kind, name, "cache level", all, CacheLevel::as_str)
    }
}

/// Reads the string field `name` as the member of `all` with that name.
fn take_named<T: Copy>(
    value: &JsonValue,
    kind: &str,
    name: &str,
    what: &str,
    all: &[T],
    as_str: fn(T) -> &'static str,
) -> Result<T, String> {
    let s = value
        .get(name)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{kind}: missing or non-string \"{name}\""))?;
    all.iter()
        .copied()
        .find(|&t| as_str(t) == s)
        .ok_or_else(|| format!("{kind}: unknown {what} {s:?}"))
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
    /// Stable kebab-case event name.
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }

    /// The core most directly associated with the event, if any: its
    /// `core` field, else its `owner` (a downgrade names only the owner).
    pub fn core(&self) -> Option<usize> {
        self.int_field("core")
            .or_else(|| self.int_field("owner"))
            .map(|c| c as usize)
    }

    /// The cleanup episode the event belongs to, if it carries one.
    /// `0` means "outside any attributed episode" (e.g. a cleanup call
    /// issued directly by a unit test, before any squash registered an
    /// episode) and is mapped to `None` here.
    pub fn episode(&self) -> Option<u64> {
        self.int_field("episode").filter(|&ep| ep != 0)
    }

    /// Every field as `(name, value)` pairs, in declaration order.
    /// Generic renderers (JSONL, Perfetto args, `Display`) are built on
    /// this.
    pub fn fields(&self) -> Vec<(&'static str, FieldValue)> {
        let mut out = Vec::with_capacity(6); // the widest event's field count
        self.each_field(|name, value| out.push((name, value)));
        out
    }

    /// The integer field `name`, if the event has it.
    fn int_field(&self, name: &str) -> Option<u64> {
        let mut found = None;
        self.each_field(|n, value| match value {
            FieldValue::U64(v) if n == name => found = Some(v),
            _ => {}
        });
        found
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

    /// The pinned `cs-events-v3` schema: every event kind, the layer every
    /// JSONL line of it carries, and the exact JSONL field names it emits,
    /// in order. Changing any line here is a schema break — bump
    /// [`EVENT_SCHEMA_VERSION`] and update every consumer (`cs-report`
    /// refuses traces with a different version).
    const PINNED_SCHEMA: &[(&str, &str, &str)] = &[
        ("back-inval", "cache", "core,line"),
        ("ceaser-remap", "cleanup", "level,epoch"),
        ("cleanup-end", "pipeline", "core,stall,episode"),
        ("cleanup-inval", "cleanup", "core,line,l1,l2,seq,episode"),
        (
            "cleanup-restore",
            "cleanup",
            "core,line,evictor,seq,episode",
        ),
        ("cleanup-start", "pipeline", "core,loads,stall,episode"),
        ("clflush", "cache", "core,line"),
        ("commit", "pipeline", "core,seq,pc,line"),
        ("dispatch", "pipeline", "core,seq,pc"),
        ("downgrade", "cache", "owner,line,spec"),
        ("dram-read", "dram", "core,line"),
        ("dram-writeback", "dram", "line"),
        ("dropped-fill", "mshr", "core,line,episode"),
        ("dummy-miss", "cache", "core,line,owner,episode"),
        ("epoch-bump", "cleanup", "core,epoch,dropped,episode"),
        ("evict", "cache", "core,line,level,dirty,by_spec,evictor"),
        ("fault", "pipeline", "core,seq,pc"),
        ("fill", "cache", "core,line,level,spec"),
        ("gets-safe-defer", "cache", "core,line,owner"),
        (
            "livelock",
            "pipeline",
            "core,stalled_for,rob,head_pc,mshr,sefes",
        ),
        ("load-issue", "pipeline", "core,seq,line,path,spec,latency"),
        ("mshr-alloc", "mshr", "core,line,spec,occupancy"),
        ("mshr-drop", "mshr", "core,dropped"),
        ("mshr-retire", "mshr", "core,line,spec,occupancy"),
        ("orphan-fill", "mshr", "core,line"),
        ("sefe-overflow", "mshr", "core,line"),
        ("spec-retire", "cleanup", "core,line"),
        ("squash", "pipeline", "core,seq,squashed,episode"),
        ("squashed-load", "pipeline", "core,line,issued,episode"),
    ];

    /// The `cs-events-v3` exhaustiveness test. Pins every
    /// `SimEvent::kind()`, its layer and its JSONL field layout against
    /// [`PINNED_SCHEMA`]; `sample_events()` must cover every variant
    /// (the count is asserted so a new variant cannot slip in unsampled).
    #[test]
    fn event_schema_is_pinned() {
        assert_eq!(EVENT_SCHEMA_VERSION, "cs-events-v3");
        let events = sample_events();
        let mut got: Vec<(&str, &str, String)> = events
            .iter()
            .map(|e| {
                let names: Vec<&str> = e.fields().iter().map(|(n, _)| *n).collect();
                (e.kind(), e.layer().as_str(), names.join(","))
            })
            .collect();
        got.sort();
        let want: Vec<(&str, &str, String)> = PINNED_SCHEMA
            .iter()
            .map(|&(k, l, f)| (k, l, f.to_string()))
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
    fn core_accessor_reads_core_then_owner() {
        let coreless: Vec<_> = sample_events()
            .iter()
            .filter(|e| e.core().is_none())
            .map(|e| e.kind())
            .collect();
        assert_eq!(coreless, ["ceaser-remap", "dram-writeback"]);
        let defer = SimEvent::GetsSafeDefer {
            core: 2,
            line: 3,
            owner: 1,
        };
        assert_eq!(defer.core(), Some(2));
        let downgrade = SimEvent::Downgrade {
            owner: 1,
            line: 3,
            spec: true,
        };
        assert_eq!(downgrade.core(), Some(1));
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
