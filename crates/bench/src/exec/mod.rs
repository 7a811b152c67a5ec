//! `cs-exec` — the shared campaign executor.
//!
//! Every harness in this crate sweeps some matrix of independent,
//! deterministic simulations: workloads × security modes (`cs-bench`,
//! the figure binaries), fuzz seeds (`cs-smith`), fault classes
//! (`cs-chaos`). The task set is always the index range `0..n`, known up
//! front, and each task is a whole simulation. They all run on one
//! executor:
//!
//! * **one shared next-index counter**: each worker `fetch_add`s the
//!   next unstarted index until the range is exhausted, so an idle
//!   worker always takes the next task and a straggler delays only
//!   itself; the whole schedule is one `AtomicUsize`, whatever `n` is;
//! * **indexed result slots**: the result of task `i` lands in slot `i`
//!   regardless of which worker ran it or when, so output order is input
//!   order and — because every task is seed-deterministic — the whole
//!   outcome is byte-identical at any `--threads` value (pinned by
//!   `tests/exec_invariance.rs`);
//! * per-task [`std::panic::catch_unwind`] isolation: a panicking task
//!   costs its own slot and is reported by index with its panic message;
//!   every other task still runs;
//! * per-task timing counters that flow into the existing
//!   [`cleanupspec_obs::MetricsRegistry`] host-profiling section.
//!
//! With one thread every task runs on the caller's thread and nothing is
//! spawned. See `docs/EXECUTOR.md` for the design and the determinism
//! guarantee.

mod pool;
mod sweep;

pub use pool::{default_threads, run_indexed, ExecOutcome, ExecStats, TaskFailure};
pub use sweep::{ModeSweep, Sweep, SweepFailure, SweepResult, SweepRun};

pub(crate) use pool::panic_message;
pub(crate) use sweep::run_spec_once;
