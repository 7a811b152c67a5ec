//! # cleanupspec
//!
//! A from-scratch reproduction of **CleanupSpec: An "Undo" Approach to Safe
//! Speculation** (Gururaj Saileshwar and Moinuddin K. Qureshi, MICRO 2019).
//!
//! CleanupSpec defends against transient-execution attacks that leak
//! secrets through the data caches. Where InvisiSpec makes speculative
//! loads invisible and *redoes* them at commit, CleanupSpec lets them
//! modify the caches normally and *undoes* the changes when a
//! mis-speculation squashes them:
//!
//! * transiently installed lines are invalidated from the levels they
//!   filled (tracked by Side-Effect Entries in the LQ and MSHRs);
//! * the lines they evicted from the L1 are restored from the L2;
//! * the L2 is CEASER-randomized so its evictions are information-free;
//! * the L1 uses random replacement so hits are information-free;
//! * coherence downgrades (remote M/E -> S) are delayed until the load is
//!   unsquashable (GetS-Safe);
//! * during the window of speculation, other cores' accesses to a
//!   transient line are serviced as dummy misses.
//!
//! The [`modes::SecurityMode`] enum selects between CleanupSpec, the
//! non-secure baseline, InvisiSpec (both variants), a naive
//! invalidate-only strawman, and a delay-based baseline; [`sim::SimBuilder`]
//! assembles a full system (out-of-order cores + MESI hierarchy) around a
//! mode.
//!
//! ```
//! use cleanupspec::prelude::*;
//!
//! let mut b = ProgramBuilder::new("quickstart");
//! b.movi(Reg(1), 0x1_0000);
//! b.load(Reg(2), Reg(1), 0);
//! b.halt();
//! let mut sim = SimBuilder::new(SecurityMode::CleanupSpec)
//!     .program(b.build())
//!     .build();
//! sim.run_to_completion();
//! println!("IPC = {:.2}", sim.report().ipc());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod modes;
pub mod schemes;
pub mod sefe;
pub mod sim;
pub mod snap;

pub use modes::SecurityMode;
pub use schemes::{
    CleanupSpec, CleanupStats, CleanupTiming, DelayOnMiss, DelaySpeculativeLoads, InvisiSpec,
    InvisiSpecVariant, NaiveInvalidate, NonSecure,
};
pub use sefe::{SefeLayout, SefeStorage};
pub use sim::{SimBuilder, SimReport, Simulator};

/// Convenient glob-import surface for examples and harnesses.
pub mod prelude {
    pub use crate::modes::SecurityMode;
    pub use crate::sim::{SimBuilder, SimReport, Simulator};
    pub use cleanupspec_core::isa::{
        AluOp, BranchCond, Inst, Operand, Pc, Program, ProgramBuilder, Reg,
    };
    pub use cleanupspec_core::system::{RunLimits, StopReason};
    pub use cleanupspec_mem::types::{Addr, CoreId, Cycle, LineAddr};
}
