//! Architectural data memory.
//!
//! The cache hierarchy (`cleanupspec-mem`) decides *timing and side
//! effects*; this module holds the actual data values so that register
//! dataflow — in particular the secret-dependent address computation at the
//! heart of Spectre — is real. Words are 8 bytes. Unwritten words read as a
//! pseudo-random pure function of their address, which lets workloads
//! stream over gigabytes of address space without materializing it.

use cleanupspec_mem::rng::mix64;
use cleanupspec_mem::types::Addr;
use cleanupspec_obs::hash::IntMap;

/// Sparse word-granular memory with hashed default contents.
#[derive(Clone, Debug, Default)]
pub struct DataMem {
    words: IntMap<u64, u64>,
}

impl DataMem {
    /// Empty memory (all addresses read their hashed default).
    pub fn new() -> Self {
        DataMem::default()
    }

    fn word_index(addr: Addr) -> u64 {
        addr.raw() >> 3
    }

    /// Reads the 8-byte word containing `addr`.
    pub fn read(&self, addr: Addr) -> u64 {
        let w = Self::word_index(addr);
        self.words
            .get(&w)
            .copied()
            .unwrap_or_else(|| mix64(w ^ 0xDA7A_0000_0000_0000))
    }

    /// Writes the 8-byte word containing `addr`.
    pub fn write(&mut self, addr: Addr, value: u64) {
        self.words.insert(Self::word_index(addr), value);
    }

    /// Number of explicitly written words.
    pub fn written_words(&self) -> usize {
        self.words.len()
    }

    /// Iterates the explicitly written words as `(word_index, value)`.
    /// Word index is `addr >> 3`; order is unspecified.
    pub fn words(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.words.iter().map(|(&w, &v)| (w, v))
    }

    /// Order-independent digest of the memory image.
    ///
    /// Words whose stored value equals the hashed default are normalized
    /// away, so an image that wrote a word back to its default value hashes
    /// the same as one that never touched it — the architectural contents
    /// are identical. Used by the cross-scheme equivalence oracle.
    pub fn image_digest(&self) -> u64 {
        let mut hs: Vec<u64> = self
            .words
            .iter()
            .filter(|&(&w, &v)| v != mix64(w ^ 0xDA7A_0000_0000_0000))
            .map(|(&w, &v)| mix64(mix64(w ^ 0x1A9E_0000_0000_0000) ^ v))
            .collect();
        hs.sort_unstable();
        hs.into_iter()
            .fold(0x5EED_DA7A_1A9E_0001, |acc, h| mix64(acc ^ h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read() {
        let mut m = DataMem::new();
        m.write(Addr::new(0x100), 42);
        assert_eq!(m.read(Addr::new(0x100)), 42);
        // Same word, different byte offset.
        assert_eq!(m.read(Addr::new(0x104)), 42);
    }

    #[test]
    fn default_values_deterministic_and_addr_dependent() {
        let m = DataMem::new();
        assert_eq!(m.read(Addr::new(0x40)), m.read(Addr::new(0x40)));
        assert_ne!(m.read(Addr::new(0x40)), m.read(Addr::new(0x48)));
        assert_eq!(m.written_words(), 0);
    }

    #[test]
    fn writes_do_not_bleed_across_words() {
        let mut m = DataMem::new();
        let before = m.read(Addr::new(0x208));
        m.write(Addr::new(0x200), 7);
        assert_eq!(m.read(Addr::new(0x208)), before);
    }
}
