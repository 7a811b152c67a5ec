//! The executor itself: a shared next-index counter, per-task panic
//! isolation, and timing counters.
//!
//! This file is the **only** place in `crates/bench` that spawns scoped
//! threads; every harness sweep goes through [`run_indexed`].

use cleanupspec_obs::MetricsRegistry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

/// Worker-thread count honoring the `CLEANUPSPEC_THREADS` environment
/// override (documented next to `CLEANUPSPEC_INSTS` in the README):
/// `CLEANUPSPEC_THREADS` if set and positive, else the machine's
/// available parallelism, else 4. Every harness default routes through
/// here so `--threads` flags and env behave identically across CLIs.
pub fn default_threads() -> usize {
    std::env::var("CLEANUPSPEC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| thread::available_parallelism().map_or(4, |n| n.get()))
}

/// One panicked task: its input index and the panic message.
#[derive(Clone, Debug)]
pub struct TaskFailure {
    /// Index of the task in the input range.
    pub index: usize,
    /// Best-effort panic payload text.
    pub message: String,
}

/// Host-side counters for one [`run_indexed`] call. They may vary run
/// to run; the task results themselves are scheduling-invariant.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecStats {
    /// Tasks that ran to completion (including panicked ones).
    pub tasks_run: u64,
    /// Tasks that panicked (isolated by `catch_unwind`).
    pub panics: u64,
    /// Sum of per-task wall-clock seconds (CPU-side cost of the sweep).
    pub task_wall_secs: f64,
    /// Longest single task in wall-clock seconds (the floor of the
    /// sweep's wall-clock whatever the thread count).
    pub max_task_secs: f64,
    /// Worker threads actually used.
    pub threads: u64,
}

impl ExecStats {
    fn merge(&mut self, other: &ExecStats) {
        self.tasks_run += other.tasks_run;
        self.panics += other.panics;
        self.task_wall_secs += other.task_wall_secs;
        self.max_task_secs = self.max_task_secs.max(other.max_task_secs);
    }

    /// Flows the counters into a [`MetricsRegistry`] under `prefix`
    /// (`exec.tasks`, `exec.panics`, `exec.task_wall`,
    /// `exec.max_task_secs`, `exec.threads`), the same host-profiling
    /// section `BENCH_*.json` already carries.
    pub fn record_into(&self, host: &mut MetricsRegistry, prefix: &str) {
        host.add(&format!("{prefix}.tasks"), self.tasks_run);
        host.add(&format!("{prefix}.panics"), self.panics);
        host.add_timing(&format!("{prefix}.task_wall"), self.task_wall_secs);
        host.set_gauge(&format!("{prefix}.max_task_secs"), self.max_task_secs);
        host.set_gauge(&format!("{prefix}.threads"), self.threads as f64);
    }
}

/// Result of one [`run_indexed`] call. Slot `i` holds task `i`'s value
/// (input order, independent of scheduling); a `None` slot is explained
/// by an entry in `failures`.
#[derive(Debug)]
pub struct ExecOutcome<T> {
    /// Per-task results, indexed by input position.
    pub slots: Vec<Option<T>>,
    /// Panicked tasks, sorted by index.
    pub failures: Vec<TaskFailure>,
    /// Counters for the whole call.
    pub stats: ExecStats,
}

impl<T> ExecOutcome<T> {
    /// Whether every task produced a value.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The successful results in input order, dropping empty slots.
    pub fn into_ok(self) -> Vec<T> {
        self.slots.into_iter().flatten().collect()
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Everything one worker produced, scattered by the caller after join.
struct WorkerOut<T> {
    results: Vec<(usize, T)>,
    failures: Vec<TaskFailure>,
    stats: ExecStats,
}

/// Claims indices from `next` one at a time until the range `0..n` is
/// exhausted, running each claimed task under `catch_unwind`.
fn worker<T, F>(next: &AtomicUsize, n: usize, task: &F) -> WorkerOut<T>
where
    F: Fn(usize) -> T + Sync,
{
    let mut out = WorkerOut {
        results: Vec::new(),
        failures: Vec::new(),
        stats: ExecStats::default(),
    };
    loop {
        // Relaxed: the counter only hands out indices; results reach the
        // caller through the scope join, which orders everything.
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return out;
        }
        let start = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| task(i))) {
            Ok(v) => out.results.push((i, v)),
            Err(payload) => {
                out.failures.push(TaskFailure {
                    index: i,
                    message: panic_message(&*payload),
                });
                out.stats.panics += 1;
            }
        }
        let wall = start.elapsed().as_secs_f64();
        out.stats.tasks_run += 1;
        out.stats.task_wall_secs += wall;
        out.stats.max_task_secs = out.stats.max_task_secs.max(wall);
    }
}

/// Runs tasks `0..n` on up to `threads` workers and returns the results
/// in **input order**: slot `i` always holds `task(i)`'s value, whatever
/// worker ran it and whenever it finished. With a deterministic task
/// function the whole outcome (slots and failures) is therefore
/// identical at every thread count — the property
/// `tests/exec_invariance.rs` pins end to end for `cs-bench`.
///
/// Workers claim the next index from one shared counter, so an idle
/// worker always takes the next unstarted task and a straggler delays
/// only itself. With one worker (or one task) every task runs on the
/// caller's thread and nothing is spawned. Each task runs under
/// [`catch_unwind`]: a panic costs its own slot and is reported in
/// [`ExecOutcome::failures`]; every other task still runs.
pub fn run_indexed<T, F>(n: usize, threads: usize, task: F) -> ExecOutcome<T>
where
    F: Fn(usize) -> T + Sync,
    T: Send,
{
    let threads = threads.min(n).max(1);
    let next = AtomicUsize::new(0);
    let worker_outs: Vec<WorkerOut<T>> = if threads == 1 {
        vec![worker(&next, n, &task)]
    } else {
        thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| worker(&next, n, &task)))
                .collect();
            handles
                .into_iter()
                // Per-task panics were caught inside the worker; a join
                // error means the executor itself crashed.
                .map(|h| h.join().expect("cs-exec worker harness panicked"))
                .collect()
        })
    };

    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut failures = Vec::new();
    let mut stats = ExecStats {
        threads: threads as u64,
        ..ExecStats::default()
    };
    for out in worker_outs {
        stats.merge(&out.stats);
        for (i, v) in out.results {
            debug_assert!(slots[i].is_none(), "task {i} ran twice");
            slots[i] = Some(v);
        }
        failures.extend(out.failures);
    }
    failures.sort_by_key(|f| f.index);
    ExecOutcome {
        slots,
        failures,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_in_input_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let out = run_indexed(25, threads, |i| i * 10);
            assert!(out.is_complete(), "threads={threads}");
            assert_eq!(out.stats.threads, threads.min(25) as u64);
            let got: Vec<usize> = out.slots.into_iter().map(Option::unwrap).collect();
            assert_eq!(got, (0..25).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_tasks_is_a_clean_no_op() {
        let out = run_indexed(0, 4, |i| i);
        assert!(out.slots.is_empty());
        assert!(out.is_complete());
        assert_eq!(out.stats.tasks_run, 0);
    }

    #[test]
    fn single_thread_runs_every_task_on_the_callers_thread() {
        let caller = thread::current().id();
        let out = run_indexed(7, 1, |i| {
            assert_eq!(thread::current().id(), caller, "task {i} left the caller");
            i + 1
        });
        assert!(out.is_complete(), "{:?}", out.failures);
        assert_eq!(out.stats.tasks_run, 7);
        assert_eq!(out.stats.threads, 1);
        assert_eq!(out.into_ok(), vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn panicking_task_costs_only_its_slot() {
        let out = run_indexed(6, 3, |i| {
            if i == 2 {
                panic!("task {i} exploded");
            }
            i
        });
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].index, 2);
        assert!(out.failures[0].message.contains("task 2 exploded"));
        assert_eq!(out.stats.panics, 1);
        let survivors: Vec<usize> = out.into_ok();
        assert_eq!(survivors, vec![0, 1, 3, 4, 5]);
    }

    #[test]
    fn every_task_runs_despite_many_panics() {
        for threads in [1, 4] {
            let out = run_indexed(12, threads, |i| {
                if i % 2 == 0 {
                    panic!("even task");
                }
                i
            });
            let failed: Vec<usize> = out.failures.iter().map(|f| f.index).collect();
            assert_eq!(failed, vec![0, 2, 4, 6, 8, 10], "threads={threads}");
            assert_eq!(out.stats.tasks_run, 12);
            assert_eq!(out.into_ok(), vec![1, 3, 5, 7, 9, 11]);
        }
    }

    #[test]
    fn a_straggler_delays_only_itself() {
        // Task 0 waits until tasks 1..n have all completed. That can
        // only happen if the other worker keeps claiming indices while
        // task 0 runs; any up-front split of the range would leave some
        // of them queued behind the straggler (bounded by the time cap).
        let n = 8;
        let done = AtomicUsize::new(0);
        let out = run_indexed(n, 2, |i| {
            if i == 0 {
                let start = Instant::now();
                while done.load(Ordering::SeqCst) < n - 1 {
                    assert!(
                        start.elapsed().as_secs() < 30,
                        "tasks queued behind the straggler never ran"
                    );
                    thread::yield_now();
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert!(out.is_complete(), "{:?}", out.failures);
        assert_eq!(out.into_ok(), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn stats_flow_into_metrics_registry() {
        let out = run_indexed(5, 2, |i| i);
        let mut host = MetricsRegistry::new();
        out.stats.record_into(&mut host, "exec");
        assert_eq!(host.counter("exec.tasks"), 5);
        assert_eq!(host.gauge("exec.threads"), 2.0);
    }
}
