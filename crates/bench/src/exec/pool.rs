//! The work-stealing pool itself: bounded injector, per-worker deques,
//! panic isolation, cooperative cancellation, and scheduling counters.
//!
//! This file is the **only** place in `crates/bench` that spawns scoped
//! threads; every harness sweep goes through [`run_indexed`] (or the
//! [`run_static_chunked`] control arm kept for the skew benchmark).

use cleanupspec_obs::MetricsRegistry;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
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

/// What the pool does with the tasks that have not started yet once one
/// task panics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PanicPolicy {
    /// Run every task regardless; panicked slots are reported and the
    /// survivors are complete. The default.
    #[default]
    KeepGoing,
    /// Cooperatively cancel after the first panic: tasks already running
    /// finish, queued tasks are drained unrun and reported as cancelled.
    FailFast,
}

/// One panicked task: its input index and the panic message.
#[derive(Clone, Debug)]
pub struct TaskFailure {
    /// Index of the task in the input range.
    pub index: usize,
    /// Best-effort panic payload text.
    pub message: String,
}

/// Scheduling counters for one [`run_indexed`] call. Everything here
/// describes the *host-side* execution (and so may vary run to run);
/// the task results themselves are scheduling-invariant.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecStats {
    /// Tasks that ran to completion (including panicked ones).
    pub tasks_run: u64,
    /// Tasks a worker obtained by stealing from another worker's deque.
    pub tasks_stolen: u64,
    /// Batches pulled from the global injector into a local deque.
    pub injector_batches: u64,
    /// Tasks that panicked (isolated by `catch_unwind`).
    pub panics: u64,
    /// Tasks drained without running due to fail-fast cancellation.
    pub cancelled: u64,
    /// High-water mark of the bounded injector queue.
    pub max_injector_depth: u64,
    /// Sum of per-task wall-clock seconds (CPU-side cost of the sweep).
    pub task_wall_secs: f64,
    /// Longest single task in wall-clock seconds (the tail the stealing
    /// scheduler exists to hide).
    pub max_task_secs: f64,
    /// Worker threads actually used.
    pub threads: u64,
}

impl ExecStats {
    fn merge(&mut self, other: &ExecStats) {
        self.tasks_run += other.tasks_run;
        self.tasks_stolen += other.tasks_stolen;
        self.injector_batches += other.injector_batches;
        self.panics += other.panics;
        self.cancelled += other.cancelled;
        self.max_injector_depth = self.max_injector_depth.max(other.max_injector_depth);
        self.task_wall_secs += other.task_wall_secs;
        self.max_task_secs = self.max_task_secs.max(other.max_task_secs);
    }

    /// Flows the counters into a [`MetricsRegistry`] under `prefix`
    /// (e.g. `exec.tasks`, `exec.stolen`, `exec.task_wall` …), the same
    /// host-profiling section `BENCH_*.json` already carries.
    pub fn record_into(&self, host: &mut MetricsRegistry, prefix: &str) {
        host.add(&format!("{prefix}.tasks"), self.tasks_run);
        host.add(&format!("{prefix}.stolen"), self.tasks_stolen);
        host.add(&format!("{prefix}.injector_batches"), self.injector_batches);
        host.add(&format!("{prefix}.panics"), self.panics);
        host.add(&format!("{prefix}.cancelled"), self.cancelled);
        host.set_gauge(
            &format!("{prefix}.max_injector_depth"),
            self.max_injector_depth as f64,
        );
        host.add_timing(&format!("{prefix}.task_wall"), self.task_wall_secs);
        host.set_gauge(&format!("{prefix}.max_task_secs"), self.max_task_secs);
        host.set_gauge(&format!("{prefix}.threads"), self.threads as f64);
    }
}

/// Result of one [`run_indexed`] call. Slot `i` holds task `i`'s value
/// (input order, independent of scheduling); `None` slots are explained
/// by `failures` (panicked) or `cancelled` (drained under fail-fast).
#[derive(Debug)]
pub struct ExecOutcome<T> {
    /// Per-task results, indexed by input position.
    pub slots: Vec<Option<T>>,
    /// Panicked tasks, sorted by index.
    pub failures: Vec<TaskFailure>,
    /// Indices drained without running (fail-fast), sorted.
    pub cancelled: Vec<usize>,
    /// Scheduling counters for the whole call.
    pub stats: ExecStats,
}

impl<T> ExecOutcome<T> {
    /// Whether every task produced a value.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && self.cancelled.is_empty()
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

/// Pool sizing and policy knobs. `..ExecConfig::default()` is the
/// intended spelling for overriding one field.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Worker threads (capped at the task count; at least 1). Defaults
    /// to [`default_threads`].
    pub threads: usize,
    /// What to do with unstarted tasks after a panic.
    pub on_panic: PanicPolicy,
    /// Bound of the global injector queue; the producer blocks when it
    /// is full. `0` = auto (`8 × threads`, floored at 32).
    pub injector_capacity: usize,
    /// Tasks pulled from the injector per batch. `0` = adaptive
    /// (`queue_len / threads`, clamped to 1..=8), which front-loads
    /// work while leaving enough in the injector to balance.
    pub injector_batch: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: default_threads(),
            on_panic: PanicPolicy::KeepGoing,
            injector_capacity: 0,
            injector_batch: 0,
        }
    }
}

impl ExecConfig {
    /// Default policy with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig {
            threads,
            ..ExecConfig::default()
        }
    }

    /// Switches this configuration to fail-fast cancellation.
    pub fn fail_fast(mut self) -> Self {
        self.on_panic = PanicPolicy::FailFast;
        self
    }
}

/// The bounded global injector: producer side blocks on `not_full`,
/// worker side blocks on `not_empty` until tasks arrive or the producer
/// closes the queue. Lock poisoning is tolerated (a panicking *task*
/// never holds these locks, but a defensive executor should not turn a
/// poisoned mutex into a second crash).
struct Injector {
    state: Mutex<InjectorState>,
    not_full: Condvar,
    not_empty: Condvar,
}

struct InjectorState {
    buf: VecDeque<usize>,
    /// Producer finished (or gave up after cancellation); workers that
    /// find the buffer empty may stop waiting.
    closed: bool,
    max_depth: usize,
}

fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

enum Pull {
    /// A batch of task indices for the local deque.
    Tasks(Vec<usize>),
    /// The injector is closed and empty; move on to stealing.
    Drained,
}

impl Injector {
    fn new(prefill: impl Iterator<Item = usize>) -> Self {
        let buf: VecDeque<usize> = prefill.collect();
        let max_depth = buf.len();
        Injector {
            state: Mutex::new(InjectorState {
                buf,
                closed: false,
                max_depth,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Producer: enqueue `i`, blocking while the queue is at `capacity`.
    /// Returns `false` without enqueuing once `cancelled` is set.
    fn push_blocking(&self, i: usize, capacity: usize, cancelled: &AtomicBool) -> bool {
        let mut st = lock_tolerant(&self.state);
        loop {
            if cancelled.load(Ordering::Relaxed) {
                return false;
            }
            if st.buf.len() < capacity {
                st.buf.push_back(i);
                st.max_depth = st.max_depth.max(st.buf.len());
                self.not_empty.notify_one();
                return true;
            }
            st = self.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Producer: no more tasks will arrive; wake every waiter.
    fn close(&self) {
        lock_tolerant(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Fail-fast path: wake all waiters so they can observe `cancelled`.
    fn interrupt(&self) {
        let _guard = lock_tolerant(&self.state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Worker: block until a batch is available or the queue is drained.
    fn pull(&self, threads: usize, batch_override: usize) -> Pull {
        let mut st = lock_tolerant(&self.state);
        loop {
            if !st.buf.is_empty() {
                let batch = if batch_override > 0 {
                    batch_override
                } else {
                    (st.buf.len() / threads).clamp(1, 8)
                };
                let take = batch.min(st.buf.len());
                let tasks: Vec<usize> = st.buf.drain(..take).collect();
                self.not_full.notify_all();
                return Pull::Tasks(tasks);
            }
            if st.closed {
                return Pull::Drained;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn max_depth(&self) -> usize {
        lock_tolerant(&self.state).max_depth
    }
}

/// Everything one worker produced, merged by the caller after join.
struct WorkerOut<T> {
    results: Vec<(usize, T)>,
    failures: Vec<TaskFailure>,
    cancelled: Vec<usize>,
    stats: ExecStats,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop<T, F>(
    wid: usize,
    threads: usize,
    cfg: ExecConfig,
    injector: &Injector,
    deques: &[Mutex<VecDeque<usize>>],
    cancelled: &AtomicBool,
    task: &F,
) -> WorkerOut<T>
where
    F: Fn(usize) -> T + Sync,
    T: Send,
{
    let mut out = WorkerOut {
        results: Vec::new(),
        failures: Vec::new(),
        cancelled: Vec::new(),
        stats: ExecStats::default(),
    };
    let run_one = |i: usize, out: &mut WorkerOut<T>| {
        if cancelled.load(Ordering::Relaxed) {
            out.cancelled.push(i);
            out.stats.cancelled += 1;
            return;
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
                if cfg.on_panic == PanicPolicy::FailFast {
                    cancelled.store(true, Ordering::Relaxed);
                    injector.interrupt();
                }
            }
        }
        let wall = start.elapsed().as_secs_f64();
        out.stats.tasks_run += 1;
        out.stats.task_wall_secs += wall;
        out.stats.max_task_secs = out.stats.max_task_secs.max(wall);
    };
    loop {
        // 1. Own deque first: batches and stolen work land here.
        let own = lock_tolerant(&deques[wid]).pop_front();
        if let Some(i) = own {
            run_one(i, &mut out);
            continue;
        }
        // 2. Pull a fresh batch from the global injector (blocks while
        //    the producer is still feeding an empty queue).
        match injector.pull(threads, cfg.injector_batch) {
            Pull::Tasks(tasks) => {
                out.stats.injector_batches += 1;
                lock_tolerant(&deques[wid]).extend(tasks);
                continue;
            }
            Pull::Drained => {}
        }
        // 3. Injector drained: steal half of the first non-empty other
        //    deque. A task observed in a deque is always completed by
        //    whichever worker holds it, so a full empty scan here means
        //    every remaining task is already running on some worker.
        let mut stole = false;
        for v in (0..threads).filter(|&v| v != wid) {
            let mut victim = lock_tolerant(&deques[v]);
            let len = victim.len();
            if len == 0 {
                continue;
            }
            let take = len.div_ceil(2);
            let stolen: Vec<usize> = victim.split_off(len - take).into();
            drop(victim);
            out.stats.tasks_stolen += take as u64;
            lock_tolerant(&deques[wid]).extend(stolen);
            stole = true;
            break;
        }
        if !stole {
            return out;
        }
    }
}

/// Runs tasks `0..n` across a work-stealing pool and returns the results
/// in **input order**: slot `i` always holds `task(i)`'s value, whatever
/// worker ran it and whenever it finished. With a deterministic task
/// function the entire outcome (slots, failures, cancellation set) is
/// therefore identical at every thread count — the property
/// `tests/exec_invariance.rs` pins end to end for `cs-bench`.
///
/// Each task runs under [`catch_unwind`]: a panic costs its own slot
/// (reported in [`ExecOutcome::failures`]) and, under
/// [`PanicPolicy::FailFast`], cooperatively cancels all not-yet-started
/// tasks. The scheduler never re-runs or reorders a claimed task.
pub fn run_indexed<T, F>(n: usize, cfg: &ExecConfig, task: F) -> ExecOutcome<T>
where
    F: Fn(usize) -> T + Sync,
    T: Send,
{
    let mut stats = ExecStats::default();
    if n == 0 {
        return ExecOutcome {
            slots: Vec::new(),
            failures: Vec::new(),
            cancelled: Vec::new(),
            stats,
        };
    }
    let threads = cfg.threads.clamp(1, n);
    let capacity = if cfg.injector_capacity > 0 {
        cfg.injector_capacity
    } else {
        (threads * 8).max(32)
    };
    let cfg = ExecConfig { threads, ..*cfg };
    // Pre-fill before any worker exists so first pulls see full batches.
    let prefill = n.min(capacity);
    let injector = Injector::new(0..prefill);
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    let cancelled = AtomicBool::new(false);

    let mut producer_cancelled: Vec<usize> = Vec::new();
    let worker_outs: Vec<WorkerOut<T>> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|wid| {
                let (injector, deques, cancelled, task) = (&injector, &deques, &cancelled, &task);
                s.spawn(move || worker_loop(wid, threads, cfg, injector, deques, cancelled, task))
            })
            .collect();
        // This thread is the producer: feed the remainder with
        // backpressure from the bounded queue.
        for i in prefill..n {
            if !injector.push_blocking(i, capacity, &cancelled) {
                producer_cancelled.extend(i..n);
                break;
            }
        }
        injector.close();
        handles
            .into_iter()
            // Per-task panics were caught inside the worker; a join
            // error means the scheduler itself crashed.
            .map(|h| h.join().expect("cs-exec worker harness panicked"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut failures = Vec::new();
    let mut cancelled_ix = producer_cancelled;
    stats.cancelled += cancelled_ix.len() as u64;
    for out in worker_outs {
        stats.merge(&out.stats);
        for (i, v) in out.results {
            debug_assert!(slots[i].is_none(), "task {i} ran twice");
            slots[i] = Some(v);
        }
        failures.extend(out.failures);
        cancelled_ix.extend(out.cancelled);
    }
    stats.max_injector_depth = injector.max_depth() as u64;
    stats.threads = threads as u64;
    failures.sort_by_key(|f| f.index);
    cancelled_ix.sort_unstable();
    ExecOutcome {
        slots,
        failures,
        cancelled: cancelled_ix,
        stats,
    }
}

/// What one chunk worker hands back: `(index, result, task wall-clock)`.
type ChunkOut<T> = Vec<(usize, Result<T, TaskFailure>, f64)>;

/// The retired static-chunked scheduler, kept as the control arm of the
/// skew benchmark (`tests/exec_invariance.rs`) and for A/B measurements:
/// tasks are split into `threads` contiguous chunks up front and never
/// move, so one slow chunk bounds the sweep. Same result contract as
/// [`run_indexed`] (input-order slots, per-task panic isolation), no
/// stealing, no cancellation.
pub fn run_static_chunked<T, F>(n: usize, threads: usize, task: F) -> ExecOutcome<T>
where
    F: Fn(usize) -> T + Sync,
    T: Send,
{
    let mut stats = ExecStats::default();
    let threads = threads.clamp(1, n.max(1));
    stats.threads = threads as u64;
    let chunk = n.div_ceil(threads).max(1);
    let indices: Vec<usize> = (0..n).collect();
    let worker_outs: Vec<ChunkOut<T>> = thread::scope(|s| {
        let task = &task;
        let handles: Vec<_> = indices
            .chunks(chunk)
            .map(|ixs| {
                s.spawn(move || {
                    ixs.iter()
                        .map(|&i| {
                            let start = Instant::now();
                            let r = catch_unwind(AssertUnwindSafe(|| task(i))).map_err(|p| {
                                TaskFailure {
                                    index: i,
                                    message: panic_message(&*p),
                                }
                            });
                            (i, r, start.elapsed().as_secs_f64())
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cs-exec chunk worker harness panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut failures = Vec::new();
    for out in worker_outs {
        for (i, r, wall) in out {
            stats.tasks_run += 1;
            stats.task_wall_secs += wall;
            stats.max_task_secs = stats.max_task_secs.max(wall);
            match r {
                Ok(v) => slots[i] = Some(v),
                Err(f) => {
                    stats.panics += 1;
                    failures.push(f);
                }
            }
        }
    }
    failures.sort_by_key(|f| f.index);
    ExecOutcome {
        slots,
        failures,
        cancelled: Vec::new(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_land_in_input_order_at_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let out = run_indexed(25, &ExecConfig::with_threads(threads), |i| i * 10);
            assert!(out.is_complete(), "threads={threads}");
            let got: Vec<usize> = out.slots.into_iter().map(Option::unwrap).collect();
            assert_eq!(got, (0..25).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_tasks_is_a_clean_no_op() {
        let out = run_indexed(0, &ExecConfig::default(), |i| i);
        assert!(out.slots.is_empty());
        assert!(out.is_complete());
        assert_eq!(out.stats.tasks_run, 0);
    }

    #[test]
    fn single_thread_runs_everything_in_process() {
        let out = run_indexed(7, &ExecConfig::with_threads(1), |i| i + 1);
        assert!(out.is_complete());
        assert_eq!(out.stats.tasks_run, 7);
        assert_eq!(out.stats.tasks_stolen, 0, "one worker has nobody to rob");
        assert_eq!(out.into_ok(), vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn panicking_task_costs_only_its_slot() {
        let out = run_indexed(6, &ExecConfig::with_threads(3), |i| {
            if i == 2 {
                panic!("task {i} exploded");
            }
            i
        });
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].index, 2);
        assert!(out.failures[0].message.contains("task 2 exploded"));
        assert!(out.cancelled.is_empty());
        assert_eq!(out.stats.panics, 1);
        let survivors: Vec<usize> = out.into_ok();
        assert_eq!(survivors, vec![0, 1, 3, 4, 5]);
    }

    #[test]
    fn fail_fast_cancels_unstarted_tasks() {
        // One worker, so everything after the panicking task is
        // deterministically unstarted when the flag trips.
        let out = run_indexed(8, &ExecConfig::with_threads(1).fail_fast(), |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].index, 3);
        assert_eq!(out.cancelled, vec![4, 5, 6, 7]);
        assert_eq!(out.stats.cancelled, 4);
        assert_eq!(out.into_ok(), vec![0, 1, 2]);
    }

    #[test]
    fn keep_going_runs_everything_despite_many_panics() {
        let out = run_indexed(12, &ExecConfig::with_threads(4), |i| {
            if i % 2 == 0 {
                panic!("even task");
            }
            i
        });
        assert_eq!(out.failures.len(), 6);
        assert_eq!(out.stats.tasks_run, 12);
        assert_eq!(out.into_ok(), vec![1, 3, 5, 7, 9, 11]);
    }

    #[test]
    fn straggler_deque_mates_are_stolen_not_stuck() {
        // Force batches of 4 with everything pre-filled: some worker's
        // first batch contains task 0 plus three deque-mates. Task 0
        // spins until every other task completes, which is only possible
        // if the other worker steals those deque-mates. If stealing were
        // broken this would deadlock (bounded by the spin cap).
        let n = 8;
        let done = AtomicUsize::new(0);
        let cfg = ExecConfig {
            threads: 2,
            injector_capacity: n,
            injector_batch: 4,
            ..ExecConfig::default()
        };
        let out = run_indexed(n, &cfg, |i| {
            if i == 0 {
                let start = Instant::now();
                while done.load(Ordering::SeqCst) < n - 1 {
                    assert!(
                        start.elapsed().as_secs() < 30,
                        "deque-mates of the straggler were never stolen"
                    );
                    std::hint::spin_loop();
                }
            }
            done.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert!(out.is_complete());
        assert!(
            out.stats.tasks_stolen > 0,
            "completion required stealing, stats must show it"
        );
    }

    #[test]
    fn static_chunked_control_arm_matches_results() {
        let ws = run_indexed(10, &ExecConfig::with_threads(3), |i| i * i);
        let st = run_static_chunked(10, 3, |i| i * i);
        let a: Vec<_> = ws.slots.into_iter().map(Option::unwrap).collect();
        let b: Vec<_> = st.slots.into_iter().map(Option::unwrap).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn injector_bound_backpressures_instead_of_buffering_everything() {
        let cfg = ExecConfig {
            threads: 2,
            injector_capacity: 4,
            ..ExecConfig::default()
        };
        let out = run_indexed(64, &cfg, |i| i);
        assert!(out.is_complete());
        assert!(
            out.stats.max_injector_depth <= 4,
            "bounded injector exceeded its capacity: {}",
            out.stats.max_injector_depth
        );
    }

    #[test]
    fn stats_flow_into_metrics_registry() {
        let out = run_indexed(5, &ExecConfig::with_threads(2), |i| i);
        let mut host = MetricsRegistry::new();
        out.stats.record_into(&mut host, "exec");
        assert_eq!(host.counter("exec.tasks"), 5);
        assert!(host.gauge("exec.threads") > 0.0);
    }
}
