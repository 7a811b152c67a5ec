//! # cleanupspec-core
//!
//! Out-of-order core substrate for the CleanupSpec reproduction
//! (Saileshwar & Qureshi, MICRO 2019).
//!
//! Models the paper's Table-4 core — 192-entry ROB, 32-entry LQ/SQ,
//! tournament branch predictor with BTB and RAS — over a small micro-ISA,
//! with **real wrong-path execution**: mispredicted branches cause the
//! front end to fetch and execute transient instructions whose loads access
//! the shared cache hierarchy of [`cleanupspec_mem`]. Security policies are
//! plugged in through the [`scheme::SpeculationScheme`] trait; the policies
//! themselves (CleanupSpec, InvisiSpec, non-secure, …) live in the
//! `cleanupspec` crate.
//!
//! ## Example
//!
//! ```
//! use cleanupspec_core::isa::{ProgramBuilder, Reg};
//! let mut b = ProgramBuilder::new("hello");
//! b.movi(Reg(1), 41);
//! b.alu(Reg(1), cleanupspec_core::isa::AluOp::Add,
//!       cleanupspec_core::isa::Operand::Reg(Reg(1)),
//!       cleanupspec_core::isa::Operand::Imm(1));
//! b.halt();
//! let program = b.build();
//! assert_eq!(program.len(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bpred;
pub mod datamem;
pub mod isa;
pub mod pipeline;
pub mod reference;
pub mod scheme;
pub mod stats;
pub mod system;

pub use datamem::DataMem;
pub use isa::{AluOp, BranchCond, Inst, Operand, Pc, Program, ProgramBuilder, Reg};
pub use pipeline::{CoreConfig, Pipeline};
pub use reference::{interpret, CommitRecord, RefRun};
pub use scheme::{
    CommitAction, CommittedLoad, LoadIssue, LoadIssuePolicy, SpeculationScheme, SquashInfo,
    SquashResponse, SquashedLoad, SquashedLoadState,
};
pub use stats::{CoreStats, SquashedClass};
pub use system::{RunLimits, StopReason, System};
