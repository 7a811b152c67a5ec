//! A tiny deterministic RNG used inside timing-critical simulator structures
//! (random replacement, randomized victim selection).
//!
//! We use SplitMix64 rather than the `rand` crate here so that the cache
//! model's behaviour is a pure function of its seed, independent of `rand`
//! version changes, and cheap enough to call on every victim selection.

/// SplitMix64 pseudo-random generator.
///
/// ```
/// use cleanupspec_mem::rng::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit pseudo-random value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiplicative range reduction; bias is negligible for the small
        // bounds (cache ways) used here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

pub use cleanupspec_obs::hash::mix64;

/// Hashes a whole string to a 64-bit seed by folding every byte through
/// [`mix64`]. Use this (not the first byte or the length) to derive
/// per-workload seeds: names sharing a prefix still get distinct streams.
pub fn mix_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h = mix64(h ^ u64::from(b));
    }
    mix64(h ^ s.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(99);
        for _ in 0..1000 {
            assert!(r.below(16) < 16);
        }
    }

    #[test]
    fn below_covers_all_ways() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 ways should be selected");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        SplitMix64::new(0).below(0);
    }

    #[test]
    fn mix64_is_a_function() {
        assert_eq!(mix64(123), mix64(123));
        assert_ne!(mix64(123), mix64(124));
    }

    #[test]
    fn mix_str_distinguishes_similar_names() {
        // Same first byte AND same length — the cases a lazy hash of
        // `name[0]` or `name.len()` would collide on.
        assert_ne!(mix_str("astar"), mix_str("apple"));
        assert_ne!(mix_str("gcc"), mix_str("gap"));
        assert_eq!(mix_str("lbm"), mix_str("lbm"));
        assert_ne!(mix_str(""), mix_str("a"));
    }
}
