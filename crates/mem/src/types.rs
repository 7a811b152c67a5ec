//! Fundamental newtypes shared by the whole simulator: addresses, cores,
//! cycles, and the identifiers used by CleanupSpec's side-effect tracking
//! (epoch and load identifiers).

use std::fmt;

/// Cache line size in bytes (fixed at 64 B, as in the paper's Table 4).
pub const LINE_BYTES: u64 = 64;

/// Log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;

/// A simulation cycle count.
pub type Cycle = u64;

/// A byte address in the simulated physical address space.
///
/// ```
/// use cleanupspec_mem::types::{Addr, LineAddr};
/// let a = Addr::new(0x1234);
/// assert_eq!(a.line(), LineAddr::new(0x48));
/// assert_eq!(a.line_offset(), 0x34);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates a byte address.
    pub const fn new(addr: u64) -> Self {
        Addr(addr)
    }

    /// Raw byte-address value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The cache line containing this address.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }

    /// Offset of this address within its cache line.
    pub const fn line_offset(self) -> u64 {
        self.0 & (LINE_BYTES - 1)
    }

    /// The address advanced by `bytes`.
    #[must_use]
    pub const fn offset(self, bytes: i64) -> Addr {
        Addr(self.0.wrapping_add(bytes as u64))
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// A cache-line address (byte address divided by the 64-B line size).
///
/// The paper tracks 40-bit line addresses in the SEFE; we store them in a
/// `u64`, while the SEFE storage accounting (`cleanupspec::sefe`) and the
/// CEASER cipher ([`crate::ceaser::CEASER_ADDR_BITS`]) use the
/// architectural 40 bits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a line number (not a byte address).
    pub const fn new(line: u64) -> Self {
        LineAddr(line)
    }

    /// Raw line-number value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// First byte address of this line.
    pub const fn base_addr(self) -> Addr {
        Addr(self.0 << LINE_SHIFT)
    }

    /// The line `n` lines after this one.
    #[must_use]
    pub const fn step(self, n: i64) -> LineAddr {
        LineAddr(self.0.wrapping_add(n as u64))
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Identifies one core in the simulated system.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CoreId(pub usize);

impl CoreId {
    /// Index usable for per-core vectors.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// CleanupSpec epoch identifier (5 bits in hardware, Figure 7).
///
/// The epoch uniquely identifies the phase of execution between two cleanups.
/// Requests carry the epoch at which they were issued; a fill whose epoch no
/// longer matches the core's current epoch is dropped without changing cache
/// state (Section 3.3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct EpochId(u8);

impl EpochId {
    /// Number of architectural bits (paper: 5).
    pub const BITS: u32 = 5;

    /// First epoch.
    pub const fn zero() -> Self {
        EpochId(0)
    }

    /// The next epoch, wrapping at 2^5 like the hardware counter.
    #[must_use]
    pub const fn next(self) -> Self {
        EpochId((self.0 + 1) % (1 << Self::BITS))
    }

    /// Raw counter value.
    pub const fn raw(self) -> u8 {
        self.0
    }
}

impl fmt::Display for EpochId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// CleanupSpec load identifier (8 bits in hardware, Figure 7).
///
/// Orders the cache-state changes made by loads so that cleanup can reverse
/// them in the opposite order (Section 3.4, "Squashing Re-ordered Loads").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LoadId(pub u64);

impl LoadId {
    /// The next load identifier.
    #[must_use]
    pub const fn next(self) -> Self {
        LoadId(self.0 + 1)
    }

    /// Architectural width (paper: 8 bits); the simulator uses a wider
    /// counter for convenience but charges storage for 8 bits.
    pub const BITS: u32 = 8;
}

impl fmt::Display for LoadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ld{}", self.0)
    }
}

/// Identifies the speculative installer of a cache line during the window of
/// speculation (Section 3.6): which core installed it and under which epoch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SpecTag {
    /// Core whose transient load installed the line.
    pub core: CoreId,
    /// Epoch in which the install happened.
    pub epoch: EpochId,
    /// The installing load.
    pub load: LoadId,
    /// Cycle of the install, for window-expiry bookkeeping.
    pub installed_at: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_roundtrip() {
        let a = Addr::new(0xdead_beef);
        assert_eq!(a.line().base_addr().raw(), 0xdead_beef & !63);
        assert_eq!(a.line_offset(), 0xdead_beef % 64);
    }

    #[test]
    fn line_step_wraps() {
        let l = LineAddr::new(10);
        assert_eq!(l.step(-3), LineAddr::new(7));
        assert_eq!(l.step(5).raw(), 15);
    }

    #[test]
    fn epoch_wraps_at_five_bits() {
        let mut e = EpochId::zero();
        for _ in 0..32 {
            e = e.next();
        }
        assert_eq!(e, EpochId::zero());
        assert_ne!(EpochId::zero().next(), EpochId::zero());
    }

    #[test]
    fn load_id_orders() {
        assert!(LoadId(3) < LoadId(4));
        assert_eq!(LoadId(3).next(), LoadId(4));
    }

    #[test]
    fn display_forms_are_nonempty() {
        assert_eq!(format!("{}", CoreId(2)), "core2");
        assert_eq!(format!("{}", EpochId::zero()), "e0");
        assert_eq!(format!("{}", LoadId(7)), "ld7");
        assert_eq!(format!("{}", Addr::new(64)), "0x40");
        assert_eq!(format!("{}", LineAddr::new(1)), "L0x1");
    }
}
