//! `cs-exec` — the shared campaign executor.
//!
//! Every harness in this crate sweeps some matrix of independent,
//! deterministic simulations: workloads × security modes (`cs-bench`,
//! the figure binaries), fuzz seeds (`cs-smith`), fault classes
//! (`cs-chaos`). They all used to carry their own static-chunked
//! `thread::scope` pool, so a sweep's wall-clock was bounded by the
//! unluckiest chunk rather than the longest single task. This module
//! replaces those pools with one **work-stealing** executor:
//!
//! * a **bounded global injector** feeds task indices to the pool with
//!   backpressure (the producer blocks on a condvar when the queue is
//!   full), so arbitrarily large campaigns never materialize their whole
//!   schedule in the queue;
//! * **per-worker deques** absorb injector batches; an idle worker first
//!   drains its own deque, then pulls a fresh batch, then **steals half
//!   of the largest other deque** — so a straggler task delays only
//!   itself, never a chunk-mate;
//! * **indexed result slots**: the result of task `i` lands in slot `i`
//!   regardless of which worker ran it or when, so output order is input
//!   order and — because every task is seed-deterministic — the whole
//!   outcome is byte-identical at any `--threads` value (pinned by
//!   `tests/exec_invariance.rs`);
//! * per-task [`std::panic::catch_unwind`] isolation: a panicking task
//!   costs its own slot, is reported by index with its panic message,
//!   and (under [`PanicPolicy::FailFast`]) cooperatively cancels the
//!   tasks that have not started yet;
//! * per-task timing and queue-depth counters that flow into the
//!   existing [`MetricsRegistry`] host-profiling section.
//!
//! Everything is std-only (`Mutex`/`Condvar`, no extra dependencies),
//! respecting the hermetic no-registry build. See `docs/EXECUTOR.md` for
//! the design and the determinism guarantee.

mod pool;
mod sweep;

pub use pool::{
    default_threads, run_indexed, run_static_chunked, ExecConfig, ExecOutcome, ExecStats,
    PanicPolicy, TaskFailure,
};
pub use sweep::{ModeSweep, Sweep, SweepFailure, SweepResult, SweepRun};

pub(crate) use pool::panic_message;
#[cfg(test)]
pub(crate) use sweep::run_spec_once;
