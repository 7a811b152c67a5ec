//! Generic set-associative cache with MESI coherence state and the
//! speculative-install metadata CleanupSpec needs for window protection and
//! rollback.

use crate::ceaser::Indexer;
use crate::fault::{FaultInjector, FaultKind};
use crate::replacement::{ReplacementKind, ReplacementPolicy};
use crate::types::{LineAddr, SpecOwner};

/// MESI coherence state of a cached line.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mesi {
    /// Modified: exclusive and dirty.
    Modified,
    /// Exclusive: sole clean copy.
    Exclusive,
    /// Shared: one of possibly many clean copies.
    Shared,
    /// Invalid (not present).
    Invalid,
}

impl Mesi {
    /// Whether the state grants write permission without a coherence action.
    pub fn is_writable(self) -> bool {
        matches!(self, Mesi::Modified | Mesi::Exclusive)
    }
}

impl std::fmt::Display for Mesi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Mesi::Modified => "M",
            Mesi::Exclusive => "E",
            Mesi::Shared => "S",
            Mesi::Invalid => "I",
        };
        f.write_str(s)
    }
}

/// One cache line's tag-array entry.
#[derive(Clone, Debug)]
pub struct CacheLine {
    /// Full line address (the simulator stores the whole address as the tag).
    pub line: LineAddr,
    /// Coherence state; `Invalid` means the way is free.
    pub state: Mesi,
    /// Dirty bit (meaningful at the L2, where `Shared`+dirty can occur for
    /// lines written back from an L1).
    pub dirty: bool,
    /// The core whose still-speculative load installed the line
    /// (CleanupSpec window protection, Section 3.6). Cleared at load
    /// retirement or by cleanup.
    pub spec_owner: Option<SpecOwner>,
}

// Line address plus state, dirty bit and the one-byte owner: every tag
// array is built and cloned with each `System`, so its lines stay small.
const _: () = assert!(std::mem::size_of::<CacheLine>() == 16);

impl CacheLine {
    fn empty() -> Self {
        CacheLine {
            line: LineAddr::new(0),
            state: Mesi::Invalid,
            dirty: false,
            spec_owner: None,
        }
    }

    /// Whether the way holds valid data.
    pub fn is_valid(&self) -> bool {
        self.state != Mesi::Invalid
    }
}

/// A line evicted by an install.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Address of the victim line.
    pub line: LineAddr,
    /// Whether the victim was dirty (needs a writeback).
    pub dirty: bool,
    /// Coherence state the victim held.
    pub state: Mesi,
}

/// Geometry and policy configuration for one cache.
#[derive(Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Replacement policy.
    pub replacement: ReplacementKind,
    /// Index function (modulo or CEASER-randomized).
    pub indexer: Indexer,
    /// Skew partitions (Skewed-CEASER / CEASER-S): the ways are split into
    /// this many groups, each indexed by an independently keyed function.
    /// `1` = conventional set-associative. Must divide `ways`.
    pub skews: usize,
    /// Seed for stochastic policies.
    pub seed: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    /// Panics if the geometry does not divide into a power-of-two set count.
    pub fn num_sets(&self) -> usize {
        self.checked_num_sets().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validates the geometry and returns the set count.
    ///
    /// The set indexers mask with `num_sets - 1`, so a non-power-of-two set
    /// count would silently alias sets in release builds; this is the
    /// construction-time check that makes that impossible.
    ///
    /// # Errors
    /// Returns [`GeometryError`] if `ways` is zero, the capacity does not
    /// divide into whole sets, the set count is not a power of two, or
    /// `skews` does not divide `ways`.
    pub fn checked_num_sets(&self) -> Result<usize, GeometryError> {
        if self.ways == 0 {
            return Err(GeometryError(format!(
                "ways must be positive (capacity {} B)",
                self.capacity_bytes
            )));
        }
        if !self.capacity_bytes.is_multiple_of(64 * self.ways) {
            return Err(GeometryError(format!(
                "capacity {} B does not divide into whole sets of {} 64-B ways",
                self.capacity_bytes, self.ways
            )));
        }
        let sets = self.capacity_bytes / 64 / self.ways;
        if sets == 0 || !sets.is_power_of_two() {
            return Err(GeometryError(format!(
                "sets must be 2^k, got {sets} (capacity {} B, {} ways)",
                self.capacity_bytes, self.ways
            )));
        }
        if self.skews == 0 || !self.ways.is_multiple_of(self.skews) {
            return Err(GeometryError(format!(
                "skews ({}) must divide ways ({})",
                self.skews, self.ways
            )));
        }
        Ok(sets)
    }
}

/// Invalid cache geometry detected at construction time (non-power-of-two
/// set count, zero ways, skews not dividing ways, ...).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeometryError(String);

impl GeometryError {
    pub(crate) fn new(msg: String) -> Self {
        GeometryError(msg)
    }
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for GeometryError {}

/// A set-associative cache tag array.
///
/// Data values are *not* stored here: the simulator keeps architectural data
/// in a separate backing store, and the cache model only decides timing and
/// which side effects (installs, evictions, state changes) occur — exactly
/// the signals the attacks and CleanupSpec's undo machinery care about.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    lines: Vec<CacheLine>,
    repl: Box<dyn ReplacementPolicy>,
    /// One indexer per skew group (length = number of skews).
    indexers: Vec<Indexer>,
    /// Ways per skew group (`ways / indexers.len()`).
    group_ways: usize,
    skew_rng: crate::rng::SplitMix64,
    name: &'static str,
    faults: FaultInjector,
    /// Rolling digest over every (set, way) victim choice, plus the count.
    /// Two runs differing only in the replacement RNG seed diverge here
    /// quickly — unless replacement has (been faulted to become)
    /// deterministic. The chaos oracle for `DeterministicL1Replacement`
    /// compares this witness across salted runs.
    victim_digest: u64,
    victims: u64,
}

impl SetAssocCache {
    /// Builds a cache from a configuration.
    ///
    /// # Panics
    /// Panics if the geometry is invalid (see [`CacheConfig::checked_num_sets`]).
    pub fn new(name: &'static str, cfg: CacheConfig) -> Self {
        Self::try_new(name, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a cache, validating the geometry instead of panicking.
    ///
    /// # Errors
    /// Returns [`GeometryError`] for any geometry the indexers cannot
    /// address correctly (non-power-of-two sets, skews not dividing ways).
    pub fn try_new(name: &'static str, cfg: CacheConfig) -> Result<Self, GeometryError> {
        let sets = cfg.checked_num_sets()?;
        // Derive one indexer per skew group. For the CEASER indexer, the
        // groups get independently keyed ciphers (CEASER-S); a modulo
        // indexer is the same for every group (a plain cache).
        let indexers: Vec<Indexer> = (0..cfg.skews)
            .map(|g| match &cfg.indexer {
                Indexer::Modulo => Indexer::Modulo,
                Indexer::Ceaser(_) if g == 0 => cfg.indexer.clone(),
                Indexer::Ceaser(_) => {
                    Indexer::ceaser(cfg.seed ^ (0x5_CE_A5 + g as u64 * 0x9E37_79B9))
                }
            })
            .collect();
        Ok(SetAssocCache {
            sets,
            ways: cfg.ways,
            lines: vec![CacheLine::empty(); sets * cfg.ways],
            repl: cfg.replacement.build(sets, cfg.ways, cfg.seed),
            group_ways: cfg.ways / cfg.skews,
            skew_rng: crate::rng::SplitMix64::new(cfg.seed ^ 0x51ce),
            indexers,
            name,
            faults: FaultInjector::disabled(),
            victim_digest: 0,
            victims: 0,
        })
    }

    /// Cache name (for diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Arms fault injection for this cache (the hierarchy attaches the
    /// shared injector to the L1s, where `DeterministicL1Replacement` bites).
    pub fn set_fault_injector(&mut self, faults: FaultInjector) {
        self.faults = faults;
    }

    /// `(digest, count)` witness over all victim choices so far.
    pub fn victim_witness(&self) -> (u64, u64) {
        (self.victim_digest, self.victims)
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Whether the index function is randomized.
    pub fn is_randomized(&self) -> bool {
        self.indexers[0].is_randomized()
    }

    /// Number of skew groups.
    pub fn skews(&self) -> usize {
        self.indexers.len()
    }

    /// The set this line address maps to (in skew group 0; skewed caches
    /// have one candidate set per group — see [`set_of_group`]).
    ///
    /// [`set_of_group`]: SetAssocCache::set_of_group
    pub fn set_of(&self, line: LineAddr) -> usize {
        self.set_of_group(line, 0)
    }

    /// The candidate set of `line` in skew group `g`.
    pub fn set_of_group(&self, line: LineAddr, g: usize) -> usize {
        self.indexers[g].set_index(line, self.sets)
    }

    /// Locates `line`: (set, way) across all skew groups.
    fn find(&self, line: LineAddr) -> Option<(usize, usize)> {
        for g in 0..self.indexers.len() {
            let set = self.set_of_group(line, g);
            for w in g * self.group_ways..(g + 1) * self.group_ways {
                let l = self.slot(set, w);
                if l.is_valid() && l.line == line {
                    return Some((set, w));
                }
            }
        }
        None
    }

    fn slot(&self, set: usize, way: usize) -> &CacheLine {
        &self.lines[set * self.ways + way]
    }

    fn slot_mut(&mut self, set: usize, way: usize) -> &mut CacheLine {
        &mut self.lines[set * self.ways + way]
    }

    /// Looks up a line without changing any state (a *probe*).
    pub fn probe(&self, line: LineAddr) -> Option<&CacheLine> {
        let (set, way) = self.find(line)?;
        Some(self.slot(set, way))
    }

    /// Mutable lookup without replacement-state update.
    pub fn probe_mut(&mut self, line: LineAddr) -> Option<&mut CacheLine> {
        let (set, way) = self.find(line)?;
        Some(self.slot_mut(set, way))
    }

    /// Records a demand hit: updates replacement state (if the policy keeps
    /// any). Returns `false` if the line is not present.
    pub fn touch(&mut self, line: LineAddr) -> bool {
        match self.find(line) {
            Some((set, way)) => {
                self.repl.on_hit(set, way);
                true
            }
            None => false,
        }
    }

    /// Installs `line` with the given state, evicting a victim if the set is
    /// full. Returns the evicted line, if any.
    ///
    /// If the line is already present, its state/metadata are updated in
    /// place and no eviction occurs.
    pub fn install(
        &mut self,
        line: LineAddr,
        state: Mesi,
        dirty: bool,
        spec_owner: Option<SpecOwner>,
    ) -> Option<Evicted> {
        debug_assert!(state != Mesi::Invalid, "cannot install an invalid line");
        // Already present: refresh in place.
        if let Some((set, way)) = self.find(line) {
            let l = self.slot_mut(set, way);
            l.state = state;
            l.dirty = l.dirty || dirty;
            l.spec_owner = l.spec_owner.or(spec_owner);
            self.repl.on_install(set, way);
            return None;
        }
        // Free way in any skew group?
        let groups = self.indexers.len();
        let mut placement = None;
        for g in 0..groups {
            let set = self.set_of_group(line, g);
            if let Some(w) = (g * self.group_ways..(g + 1) * self.group_ways)
                .find(|&w| !self.slot(set, w).is_valid())
            {
                placement = Some((set, w, None));
                break;
            }
        }
        let (set, way, evicted) = placement.unwrap_or_else(|| {
            // Every candidate way is full: pick a victim. Skewed caches
            // choose a random group, then a random way within it; a
            // conventional cache consults its replacement policy.
            if groups == 1 {
                let set = self.set_of_group(line, 0);
                let w = if self
                    .faults
                    .should_fire(FaultKind::DeterministicL1Replacement)
                {
                    0
                } else {
                    self.repl.victim(set)
                };
                let v = self.slot(set, w);
                (
                    set,
                    w,
                    Some(Evicted {
                        line: v.line,
                        dirty: v.dirty,
                        state: v.state,
                    }),
                )
            } else {
                let g = self.skew_rng.below(groups as u64) as usize;
                let set = self.set_of_group(line, g);
                let w = g * self.group_ways + self.skew_rng.below(self.group_ways as u64) as usize;
                let v = self.slot(set, w);
                (
                    set,
                    w,
                    Some(Evicted {
                        line: v.line,
                        dirty: v.dirty,
                        state: v.state,
                    }),
                )
            }
        });
        if evicted.is_some() {
            self.victims += 1;
            self.victim_digest = crate::rng::mix64(
                self.victim_digest ^ crate::rng::mix64(((set as u64) << 16) ^ way as u64),
            );
        }
        *self.slot_mut(set, way) = CacheLine {
            line,
            state,
            dirty,
            spec_owner,
        };
        self.repl.on_install(set, way);
        evicted
    }

    /// Invalidates `line`. Returns the line's previous contents if present.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Evicted> {
        let (set, way) = self.find(line)?;
        let l = self.slot_mut(set, way);
        let out = Evicted {
            line: l.line,
            dirty: l.dirty,
            state: l.state,
        };
        *l = CacheLine::empty();
        Some(out)
    }

    /// Changes the coherence state of a present line. Returns the previous
    /// state, or `None` if absent.
    pub fn set_state(&mut self, line: LineAddr, state: Mesi) -> Option<Mesi> {
        let l = self.probe_mut(line)?;
        let prev = l.state;
        if state == Mesi::Invalid {
            self.invalidate(line);
        } else {
            l.state = state;
        }
        Some(prev)
    }

    /// Iterates over all valid lines (diagnostics and invariant tests).
    pub fn iter_valid(&self) -> impl Iterator<Item = &CacheLine> {
        self.lines.iter().filter(|l| l.is_valid())
    }

    /// Number of valid lines currently cached.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.is_valid()).count()
    }

    /// A canonical snapshot of (line, state, dirty) tuples, sorted — used by
    /// the rollback-exactness tests to compare cache states.
    pub fn snapshot(&self) -> Vec<(LineAddr, Mesi, bool)> {
        let mut v: Vec<_> = self
            .iter_valid()
            .map(|l| (l.line, l.state, l.dirty))
            .collect();
        v.sort();
        v
    }

    /// Order-independent digest of the cache contents: tags, MESI states,
    /// dirty bits, and — via the `data` closure — the data of each resident
    /// line. The cache stores no data itself (values live in the
    /// architectural memory), so the caller supplies a per-line data hash.
    /// Two caches with identical resident lines, states, dirty bits, and
    /// data hash to the same value regardless of way placement.
    pub fn content_digest(&self, mut data: impl FnMut(LineAddr) -> u64) -> u64 {
        let mut lines: Vec<u64> = self
            .iter_valid()
            .map(|l| {
                let mut h = crate::rng::mix64(l.line.raw() ^ 0xD16E_5700_0000_0000);
                h = crate::rng::mix64(h ^ l.state as u64);
                h = crate::rng::mix64(h ^ u64::from(l.dirty) << 1);
                crate::rng::mix64(h ^ data(l.line))
            })
            .collect();
        lines.sort_unstable();
        lines
            .into_iter()
            .fold(0x5EED_D16E_5700_0001, |acc, h| crate::rng::mix64(acc ^ h))
    }
}

// Mesi ordering needed for snapshot sorting.
impl PartialOrd for Mesi {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Mesi {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn rank(m: Mesi) -> u8 {
            match m {
                Mesi::Modified => 0,
                Mesi::Exclusive => 1,
                Mesi::Shared => 2,
                Mesi::Invalid => 3,
            }
        }
        rank(*self).cmp(&rank(*other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(repl: ReplacementKind) -> SetAssocCache {
        SetAssocCache::new(
            "test",
            CacheConfig {
                capacity_bytes: 4 * 64 * 2, // 4 sets x 2 ways
                ways: 2,
                replacement: repl,
                indexer: Indexer::Modulo,
                skews: 1,
                seed: 1,
            },
        )
    }

    #[test]
    fn install_then_probe_hits() {
        let mut c = small_cache(ReplacementKind::Lru);
        let l = LineAddr::new(0x40);
        assert!(c.probe(l).is_none());
        assert!(c.install(l, Mesi::Exclusive, false, None).is_none());
        let hit = c.probe(l).expect("line present");
        assert_eq!(hit.state, Mesi::Exclusive);
        assert!(!hit.dirty);
    }

    #[test]
    fn eviction_happens_when_set_full() {
        let mut c = small_cache(ReplacementKind::Lru);
        // Three lines mapping to set 0 (4 sets -> stride 4).
        let a = LineAddr::new(0);
        let b = LineAddr::new(4);
        let d = LineAddr::new(8);
        assert!(c.install(a, Mesi::Shared, false, None).is_none());
        assert!(c.install(b, Mesi::Shared, false, None).is_none());
        let ev = c.install(d, Mesi::Shared, false, None).expect("must evict");
        assert_eq!(ev.line, a, "LRU victim is the oldest line");
        assert!(c.probe(a).is_none());
        assert!(c.probe(b).is_some() && c.probe(d).is_some());
    }

    #[test]
    fn touch_changes_lru_victim() {
        let mut c = small_cache(ReplacementKind::Lru);
        let a = LineAddr::new(0);
        let b = LineAddr::new(4);
        c.install(a, Mesi::Shared, false, None);
        c.install(b, Mesi::Shared, false, None);
        assert!(c.touch(a)); // a becomes MRU; b is victim
        let ev = c
            .install(LineAddr::new(8), Mesi::Shared, false, None)
            .unwrap();
        assert_eq!(ev.line, b);
    }

    #[test]
    fn reinstall_does_not_evict() {
        let mut c = small_cache(ReplacementKind::Lru);
        let a = LineAddr::new(0);
        c.install(a, Mesi::Shared, false, None);
        assert!(c.install(a, Mesi::Modified, true, None).is_none());
        let l = c.probe(a).unwrap();
        assert_eq!(l.state, Mesi::Modified);
        assert!(l.dirty);
    }

    #[test]
    fn invalidate_returns_previous_contents() {
        let mut c = small_cache(ReplacementKind::Lru);
        let a = LineAddr::new(0);
        c.install(a, Mesi::Modified, true, None);
        let prev = c.invalidate(a).expect("was present");
        assert!(prev.dirty);
        assert_eq!(prev.state, Mesi::Modified);
        assert!(c.probe(a).is_none());
        assert!(c.invalidate(a).is_none(), "second invalidate is a no-op");
    }

    #[test]
    fn spec_owner_kept_on_refresh_and_cleared_by_invalidate() {
        use crate::types::CoreId;
        let mut c = small_cache(ReplacementKind::Lru);
        let a = LineAddr::new(0);
        let owner = |c: &SetAssocCache| c.probe(a).and_then(|l| l.spec_owner).map(SpecOwner::core);
        c.install(a, Mesi::Exclusive, false, Some(SpecOwner::new(CoreId(1))));
        assert_eq!(owner(&c), Some(CoreId(1)));
        // A refresh keeps the first owner, whoever refreshes.
        c.install(a, Mesi::Shared, false, Some(SpecOwner::new(CoreId(0))));
        assert_eq!(owner(&c), Some(CoreId(1)));
        c.install(a, Mesi::Shared, false, None);
        assert_eq!(owner(&c), Some(CoreId(1)));
        // An invalidate clears it: the next install starts untagged.
        c.invalidate(a);
        c.install(a, Mesi::Exclusive, false, None);
        assert_eq!(owner(&c), None);
    }

    #[test]
    fn set_state_transitions() {
        let mut c = small_cache(ReplacementKind::Lru);
        let a = LineAddr::new(0);
        c.install(a, Mesi::Exclusive, false, None);
        assert_eq!(c.set_state(a, Mesi::Shared), Some(Mesi::Exclusive));
        assert_eq!(c.probe(a).unwrap().state, Mesi::Shared);
        assert_eq!(c.set_state(a, Mesi::Invalid), Some(Mesi::Shared));
        assert!(c.probe(a).is_none());
        assert_eq!(c.set_state(a, Mesi::Modified), None);
    }

    #[test]
    fn snapshot_is_canonical() {
        let mut c = small_cache(ReplacementKind::Lru);
        c.install(LineAddr::new(5), Mesi::Shared, false, None);
        c.install(LineAddr::new(1), Mesi::Exclusive, false, None);
        let s = c.snapshot();
        assert_eq!(s.len(), 2);
        assert!(s[0].0 < s[1].0);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn random_repl_evicts_any_way_deterministically() {
        let mut a = small_cache(ReplacementKind::Random);
        let mut b = small_cache(ReplacementKind::Random);
        for i in 0..32u64 {
            let line = LineAddr::new(i * 4); // all map to set 0
            let ea = a.install(line, Mesi::Shared, false, None);
            let eb = b.install(line, Mesi::Shared, false, None);
            assert_eq!(
                ea.map(|e| e.line),
                eb.map(|e| e.line),
                "same seed, same victims"
            );
        }
    }

    #[test]
    fn skewed_cache_basic_roundtrip() {
        let mut c = SetAssocCache::new(
            "skewed",
            CacheConfig {
                capacity_bytes: 64 * 64 * 8, // 64 sets x 8 ways, 2 skews
                ways: 8,
                replacement: ReplacementKind::Random,
                indexer: Indexer::ceaser(0xABCD),
                skews: 2,
                seed: 9,
            },
        );
        assert_eq!(c.skews(), 2);
        for i in 0..1000u64 {
            c.install(LineAddr::new(i * 7), Mesi::Shared, false, None);
        }
        // Recently installed lines are findable; probe/invalidate agree.
        let probe_hits = (900..1000u64)
            .filter(|i| c.probe(LineAddr::new(i * 7)).is_some())
            .count();
        assert!(
            probe_hits > 50,
            "most recent installs resident: {probe_hits}"
        );
        let line = LineAddr::new(999 * 7);
        if c.probe(line).is_some() {
            assert!(c.invalidate(line).is_some());
            assert!(c.probe(line).is_none());
        }
        assert!(c.occupancy() <= 64 * 8);
    }

    #[test]
    fn skewed_groups_use_different_index_functions() {
        let c = SetAssocCache::new(
            "skewed",
            CacheConfig {
                capacity_bytes: 64 * 64 * 8,
                ways: 8,
                replacement: ReplacementKind::Random,
                indexer: Indexer::ceaser(0xABCD),
                skews: 2,
                seed: 9,
            },
        );
        let differing = (0..512u64)
            .filter(|&i| c.set_of_group(LineAddr::new(i), 0) != c.set_of_group(LineAddr::new(i), 1))
            .count();
        assert!(differing > 400, "groups must decorrelate ({differing}/512)");
    }

    #[test]
    fn skewed_cache_never_duplicates_a_line() {
        let mut c = SetAssocCache::new(
            "skewed",
            CacheConfig {
                capacity_bytes: 16 * 64 * 4, // small: heavy conflict
                ways: 4,
                replacement: ReplacementKind::Random,
                indexer: Indexer::ceaser(3),
                skews: 2,
                seed: 4,
            },
        );
        for round in 0..5 {
            for i in 0..64u64 {
                c.install(LineAddr::new(i), Mesi::Shared, false, None);
                let _ = round;
            }
        }
        // Count copies per line across the whole array.
        use std::collections::HashMap;
        let mut copies: HashMap<u64, usize> = HashMap::new();
        for l in c.iter_valid() {
            *copies.entry(l.line.raw()).or_default() += 1;
        }
        assert!(copies.values().all(|&n| n == 1), "duplicate lines present");
    }

    #[test]
    #[should_panic(expected = "must divide ways")]
    fn skews_must_divide_ways() {
        let _ = SetAssocCache::new(
            "bad",
            CacheConfig {
                capacity_bytes: 64 * 64 * 8,
                ways: 8,
                replacement: ReplacementKind::Random,
                indexer: Indexer::Modulo,
                skews: 3,
                seed: 0,
            },
        );
    }

    #[test]
    fn geometry_matches_table4() {
        // L1-D: 64 KB, 8-way => 128 sets. L2: 2 MB, 16-way => 2048 sets.
        let l1 = CacheConfig {
            capacity_bytes: 64 * 1024,
            ways: 8,
            replacement: ReplacementKind::Lru,
            indexer: Indexer::Modulo,
            skews: 1,
            seed: 0,
        };
        assert_eq!(l1.num_sets(), 128);
        let l2 = CacheConfig {
            capacity_bytes: 2 * 1024 * 1024,
            ways: 16,
            replacement: ReplacementKind::Lru,
            indexer: Indexer::Modulo,
            skews: 1,
            seed: 0,
        };
        assert_eq!(l2.num_sets(), 2048);
    }

    #[test]
    fn non_power_of_two_sets_is_a_construction_error() {
        // 3 sets x 4 ways: the masking indexers would silently alias sets.
        let cfg = CacheConfig {
            capacity_bytes: 3 * 64 * 4,
            ways: 4,
            replacement: ReplacementKind::Lru,
            indexer: Indexer::Modulo,
            skews: 1,
            seed: 0,
        };
        let err = cfg.checked_num_sets().unwrap_err();
        assert!(err.to_string().contains("2^k"), "got: {err}");
        assert!(SetAssocCache::try_new("bad", cfg).is_err());
    }

    #[test]
    fn ragged_capacity_is_a_construction_error() {
        let cfg = CacheConfig {
            capacity_bytes: 64 * 4 + 32, // not a whole number of lines
            ways: 4,
            replacement: ReplacementKind::Lru,
            indexer: Indexer::Modulo,
            skews: 1,
            seed: 0,
        };
        assert!(cfg.checked_num_sets().is_err());
        let zero_ways = CacheConfig { ways: 0, ..cfg };
        assert!(zero_ways.checked_num_sets().is_err());
    }

    #[test]
    fn deterministic_replacement_fault_pins_the_victim_choice() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan};
        // Two random-replacement caches with different seeds, both faulted:
        // victim choices collapse to way 0, so the witnesses agree despite
        // the differing RNG streams.
        let mk = |seed: u64| {
            let mut c = SetAssocCache::new(
                "test",
                CacheConfig {
                    capacity_bytes: 4 * 64 * 2,
                    ways: 2,
                    replacement: ReplacementKind::Random,
                    indexer: Indexer::Modulo,
                    skews: 1,
                    seed,
                },
            );
            c.set_fault_injector(FaultInjector::new(FaultPlan::single(
                FaultKind::DeterministicL1Replacement,
            )));
            for i in 0..32u64 {
                c.install(LineAddr::new(i * 4), Mesi::Shared, false, None);
            }
            c.victim_witness()
        };
        let (da, na) = mk(1);
        let (db, nb) = mk(999);
        assert_eq!(na, 30);
        assert_eq!(na, nb);
        assert_eq!(da, db, "faulted victim streams must be identical");
    }

    #[test]
    fn victim_witness_diverges_across_random_seeds() {
        let mk = |seed: u64| {
            let mut c = SetAssocCache::new(
                "test",
                CacheConfig {
                    capacity_bytes: 4 * 64 * 2,
                    ways: 2,
                    replacement: ReplacementKind::Random,
                    indexer: Indexer::Modulo,
                    skews: 1,
                    seed,
                },
            );
            for i in 0..32u64 {
                c.install(LineAddr::new(i * 4), Mesi::Shared, false, None);
            }
            c.victim_witness()
        };
        let (da, na) = mk(1);
        let (db, nb) = mk(999);
        assert_eq!(na, nb);
        assert_ne!(da, db, "independent RNG streams should diverge");
    }

    #[test]
    fn content_digest_is_placement_independent() {
        // Same lines installed in different orders (different LRU / way
        // placement) must produce identical digests.
        let mut a = small_cache(ReplacementKind::Lru);
        let mut b = small_cache(ReplacementKind::Lru);
        // 0 and 4 share a set; swapping install order swaps their ways.
        for l in [0u64, 4, 1] {
            a.install(LineAddr::new(l), Mesi::Shared, false, None);
        }
        for l in [4u64, 0, 1] {
            b.install(LineAddr::new(l), Mesi::Shared, false, None);
        }
        let data = |l: LineAddr| l.raw().wrapping_mul(0x9E37);
        assert_eq!(a.content_digest(data), b.content_digest(data));
    }

    #[test]
    fn content_digest_sees_state_dirty_and_data() {
        let mut a = small_cache(ReplacementKind::Lru);
        a.install(LineAddr::new(4), Mesi::Modified, true, None);
        let mut b = small_cache(ReplacementKind::Lru);
        b.install(LineAddr::new(4), Mesi::Modified, false, None);
        let data = |l: LineAddr| l.raw();
        assert_ne!(a.content_digest(data), b.content_digest(data), "dirty bit");
        let mut c = small_cache(ReplacementKind::Lru);
        c.install(LineAddr::new(4), Mesi::Shared, true, None);
        assert_ne!(a.content_digest(data), c.content_digest(data), "state");
        assert_ne!(
            a.content_digest(|l| l.raw()),
            a.content_digest(|l| l.raw() ^ 1),
            "data"
        );
    }
}
