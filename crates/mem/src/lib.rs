//! # cleanupspec-mem
//!
//! Memory-hierarchy substrate for the CleanupSpec reproduction
//! (Saileshwar & Qureshi, *CleanupSpec: An "Undo" Approach to Safe
//! Speculation*, MICRO 2019).
//!
//! This crate models the paper's Table-4 memory system: per-core private
//! L1 data caches, a shared inclusive L2 with a MESI directory, MSHRs
//! extended with CleanupSpec's Side-Effect Entries, optional CEASER-style
//! randomized L2 indexing, and close-page DRAM. It provides the
//! *mechanisms* — deferred fills, epoch-dropped responses, cleanup
//! invalidation/restoration, GetS-Safe, and speculation-window dummy
//! misses — on top of which the `cleanupspec` crate builds the paper's
//! security schemes.
//!
//! ## Example
//!
//! ```
//! use cleanupspec_mem::hierarchy::{LoadReq, MemConfig, MemHierarchy};
//! use cleanupspec_mem::types::{CoreId, LineAddr, LoadId};
//!
//! let mut mem = MemHierarchy::new(MemConfig::default());
//! let line = LineAddr::new(0x40);
//! let out = mem
//!     .load(CoreId(0), line, 0, LoadReq::non_spec(LoadId(0)))
//!     .expect("MSHR available");
//! mem.advance(out.complete_at);
//! if let Some(token) = out.token {
//!     let sefe = mem.collect(token).expect("fill done");
//!     assert!(sefe.l1_fill);
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod ceaser;
pub mod dram;
pub mod error;
pub mod fault;
pub mod hierarchy;
pub mod mshr;
pub mod replacement;
pub mod rng;
pub mod stats;
pub mod types;

pub use cache::{CacheLine, GeometryError, Mesi, SetAssocCache};
pub use ceaser::{CeaserCipher, Indexer};
pub use error::SimError;
pub use fault::{FaultCounters, FaultInjector, FaultKind, FaultPlan, FaultSpec};
pub use hierarchy::{LoadKind, LoadOutcome, LoadReq, MemConfig, MemHierarchy, StoreOutcome};
pub use mshr::{LoadPath, MshrFullError, MshrToken, SefeRecord};
pub use replacement::ReplacementKind;
pub use stats::{LoadClass, MemStats, MsgClass, Traffic};
pub use types::{Addr, CoreId, Cycle, EpochId, LineAddr, LoadId, SpecOwner};
