//! Cache replacement policies.
//!
//! CleanupSpec requires a *random* replacement policy for the L1 data cache
//! so that replacement-state updates on hits carry no information
//! (Section 3.2 / Table 1). The L2 may use any policy because its
//! CEASER-randomized indexing already makes evictions benign; we default it
//! to LRU like the paper's baseline and also provide tree-PLRU.

use crate::rng::SplitMix64;

/// Chooses victims within cache sets and observes hits/installs.
///
/// Implementations keep their own per-set metadata, indexed by
/// `(set, way)`. The cache guarantees `set < num_sets` and `way < ways` as
/// configured at construction.
pub trait ReplacementPolicy: std::fmt::Debug {
    /// Deep-copies the policy, including RNG streams and per-set metadata,
    /// so a cloned cache replays victim choices bit-exactly.
    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy>;

    /// Records a demand hit on `(set, way)`.
    fn on_hit(&mut self, set: usize, way: usize);

    /// Records a fill into `(set, way)`.
    fn on_install(&mut self, set: usize, way: usize);

    /// Chooses a victim way in `set`. Called only when every way is valid.
    fn victim(&mut self, set: usize) -> usize;

    /// Human-readable policy name.
    fn name(&self) -> &'static str;

    /// Whether a hit mutates replacement state (and could therefore leak
    /// information through victim selection, as exploited by DAWG-style
    /// replacement attacks the paper cites).
    fn hit_updates_state(&self) -> bool;
}

impl Clone for Box<dyn ReplacementPolicy> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// True least-recently-used replacement, implemented with a per-line
/// last-touch timestamp.
#[derive(Clone, Debug)]
pub struct Lru {
    ways: usize,
    stamp: Vec<u64>,
    tick: u64,
}

impl Lru {
    /// Creates LRU metadata for `num_sets` sets of `ways` ways.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        Lru {
            ways,
            stamp: vec![0; num_sets * ways],
            tick: 0,
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.tick += 1;
        self.stamp[set * self.ways + way] = self.tick;
    }
}

impl ReplacementPolicy for Lru {
    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn on_install(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.ways;
        (0..self.ways)
            .min_by_key(|&w| self.stamp[base + w])
            .expect("cache sets have at least one way")
    }

    fn name(&self) -> &'static str {
        "lru"
    }

    fn hit_updates_state(&self) -> bool {
        true
    }
}

/// Random replacement: victim selection is independent of access history, so
/// hits carry no information (CleanupSpec's L1 policy, Section 3.2).
#[derive(Clone, Debug)]
pub struct RandomRepl {
    ways: usize,
    rng: SplitMix64,
}

impl RandomRepl {
    /// Creates a seeded random-replacement policy for sets of `ways` ways.
    pub fn new(ways: usize, seed: u64) -> Self {
        RandomRepl {
            ways,
            rng: SplitMix64::new(seed),
        }
    }
}

impl ReplacementPolicy for RandomRepl {
    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }

    fn on_hit(&mut self, _set: usize, _way: usize) {}

    fn on_install(&mut self, _set: usize, _way: usize) {}

    fn victim(&mut self, _set: usize) -> usize {
        self.rng.below(self.ways as u64) as usize
    }

    fn name(&self) -> &'static str {
        "random"
    }

    fn hit_updates_state(&self) -> bool {
        false
    }
}

/// Tree pseudo-LRU: a binary tree of direction bits per set.
///
/// Provided as the "intelligent replacement policy" that a randomized L2 can
/// safely keep using (Section 3.2: "intelligent replacement policies can be
/// freely used for the L2 cache").
#[derive(Clone, Debug)]
pub struct TreePlru {
    ways: usize,
    // ways-1 internal nodes per set, flattened.
    bits: Vec<bool>,
}

impl TreePlru {
    /// Creates tree-PLRU metadata. `ways` must be a power of two.
    ///
    /// # Panics
    /// Panics if `ways` is not a power of two or is zero.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(ways.is_power_of_two() && ways > 0, "ways must be 2^k");
        TreePlru {
            ways,
            bits: vec![false; num_sets * (ways - 1).max(1)],
        }
    }

    fn promote(&mut self, set: usize, way: usize) {
        if self.ways == 1 {
            return;
        }
        let base = set * (self.ways - 1);
        let mut node = 0usize; // root
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = way >= mid;
            // Point the bit AWAY from the touched way.
            self.bits[base + node] = !go_right;
            node = 2 * node + if go_right { 2 } else { 1 };
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
}

impl ReplacementPolicy for TreePlru {
    fn boxed_clone(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.promote(set, way);
    }

    fn on_install(&mut self, set: usize, way: usize) {
        self.promote(set, way);
    }

    fn victim(&mut self, set: usize) -> usize {
        if self.ways == 1 {
            return 0;
        }
        let base = set * (self.ways - 1);
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = self.bits[base + node];
            node = 2 * node + if go_right { 2 } else { 1 };
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn name(&self) -> &'static str {
        "tree-plru"
    }

    fn hit_updates_state(&self) -> bool {
        true
    }
}

/// Replacement policy selector used in configurations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReplacementKind {
    /// True LRU (baseline L1/L2 policy).
    #[default]
    Lru,
    /// Random replacement (CleanupSpec's L1 policy).
    Random,
    /// Tree pseudo-LRU.
    TreePlru,
}

impl ReplacementKind {
    /// Instantiates the policy for a cache geometry.
    pub fn build(self, num_sets: usize, ways: usize, seed: u64) -> Box<dyn ReplacementPolicy> {
        match self {
            ReplacementKind::Lru => Box::new(Lru::new(num_sets, ways)),
            ReplacementKind::Random => Box::new(RandomRepl::new(ways, seed)),
            ReplacementKind::TreePlru => Box::new(TreePlru::new(num_sets, ways)),
        }
    }
}

impl std::fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReplacementKind::Lru => "lru",
            ReplacementKind::Random => "random",
            ReplacementKind::TreePlru => "tree-plru",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_victim_is_least_recent() {
        let mut p = Lru::new(1, 4);
        for w in 0..4 {
            p.on_install(0, w);
        }
        p.on_hit(0, 0); // way 0 becomes MRU; way 1 is now LRU
        assert_eq!(p.victim(0), 1);
        p.on_hit(0, 1);
        assert_eq!(p.victim(0), 2);
    }

    #[test]
    fn lru_sets_are_independent() {
        let mut p = Lru::new(2, 2);
        p.on_install(0, 0);
        p.on_install(0, 1);
        p.on_install(1, 1);
        p.on_install(1, 0);
        assert_eq!(p.victim(0), 0);
        assert_eq!(p.victim(1), 1);
    }

    #[test]
    fn random_ignores_history() {
        // Two policies with the same seed but different hit histories must
        // produce the same victim sequence: that is the security property.
        let mut a = RandomRepl::new(8, 5);
        let mut b = RandomRepl::new(8, 5);
        for w in 0..8 {
            a.on_hit(0, w); // touch everything
        }
        for _ in 0..64 {
            assert_eq!(a.victim(0), b.victim(0));
        }
    }

    #[test]
    fn plru_victim_avoids_recent() {
        let mut p = TreePlru::new(1, 4);
        for w in 0..4 {
            p.on_install(0, w);
        }
        let hot = 3;
        p.on_hit(0, hot);
        assert_ne!(p.victim(0), hot);
    }

    #[test]
    fn plru_cycles_through_ways() {
        let mut p = TreePlru::new(1, 8);
        let mut seen = [false; 8];
        for _ in 0..8 {
            let v = p.victim(0);
            seen[v] = true;
            p.on_install(0, v);
        }
        assert!(seen.iter().all(|&s| s), "plru should rotate over all ways");
    }

    #[test]
    fn kind_builds_expected_policy() {
        assert_eq!(ReplacementKind::Lru.build(4, 2, 0).name(), "lru");
        assert_eq!(ReplacementKind::Random.build(4, 2, 0).name(), "random");
        assert_eq!(ReplacementKind::TreePlru.build(4, 2, 0).name(), "tree-plru");
        assert!(!ReplacementKind::Random.build(4, 2, 0).hit_updates_state());
        assert!(ReplacementKind::Lru.build(4, 2, 0).hit_updates_state());
    }
}
