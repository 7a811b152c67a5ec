//! A deterministic hasher for the simulator's integer-keyed maps.
//!
//! The cache directory, the miss-provenance tables, the architectural data
//! memory and the episode ledger key their maps by a `u64` (a line or word
//! number) and touch them on almost every event. [`IntMap`] hashes such a
//! key with one SplitMix64 finalizer ([`mix64`]) instead of the standard
//! library's SipHash. The finalizer spreads every input bit into the low
//! bits the table indexes by, and it is a pure function of the key, so a
//! map's iteration order no longer varies from process to process (no
//! output may depend on it all the same). Unlike SipHash it is unkeyed:
//! the keys are addresses a simulated program computes, and a program
//! crafted to collide in it slows down only its own simulation.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A stateless 64-bit mixing hash (the SplitMix64 finalizer). Useful for
/// deriving per-object seeds and branch-outcome streams.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`Hasher`] that folds each written integer into its state through
/// [`mix64`]. Built for keys that write one `u64`.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = mix64(self.0 ^ n);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`IntHasher`]. Create one with
/// `IntMap::default()`.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(k: impl Hash) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(k)
    }

    #[test]
    fn a_u64_key_hashes_to_its_finalizer() {
        for k in [0u64, 1, 0x2005, u64::MAX] {
            assert_eq!(hash_of(k), mix64(k));
        }
    }

    #[test]
    fn consecutive_keys_spread_over_the_low_bits() {
        // hashbrown picks a bucket from the low bits: 1024 consecutive
        // line numbers must land in most of 1024 buckets, not a few.
        let buckets: std::collections::HashSet<u64> =
            (0x4000u64..0x4400).map(|k| hash_of(k) & 1023).collect();
        assert!(buckets.len() > 600, "only {} buckets", buckets.len());
    }

    #[test]
    fn maps_work_as_maps() {
        let mut m: IntMap<u64, u64> = IntMap::default();
        for k in 0..1000u64 {
            m.insert(k * 64, k);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u64).all(|k| m[&(k * 64)] == k));
    }
}
