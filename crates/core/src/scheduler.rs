//! Morsel-driven parallel task execution over immutable chunks.
//!
//! The paper's layout makes every chunk independently scannable: chunk
//! dictionaries and element arrays are immutable after import, per-chunk
//! group states are mergeable (§4 relies on exactly this to aggregate
//! across machines). This module exploits the same property across cores:
//! a query's active chunks become a work queue, a **persistent worker
//! pool** pulls tasks off a shared atomic cursor (morsel-at-a-time, so
//! load imbalance between cheap and expensive chunks self-corrects), and
//! each worker's results are returned to the caller *in task order* so the
//! final fold is deterministic — parallel execution is bit-identical to
//! sequential execution regardless of thread count.
//!
//! The pool is spawned once and reused by every query, eliminating the
//! per-query thread spawn cost (~50 µs with `std::thread::scope`) that
//! dominates µs-scale cached queries. Its one caller is the chunk scan
//! ([`run_tasks_with`]), whose tasks scan chunks and submit nothing, so
//! no fan-out nests in another. A submitter never waits on helpers that
//! have not started: once its tasks are all claimed it takes those jobs
//! back out of the queue, then sleeps until the started ones finish.
//!
//! Waking a sleeping worker is the dear part of a hand-off (a futex
//! round trip each way, tens of microseconds on a small VM, and how long
//! it takes varies from one call to the next), so the chunk scan hands
//! off only when enough rows miss its cache to repay one
//! (`PARALLEL_SCAN_MIN_ROWS` in `exec.rs`); a tree's fan-out asks its
//! children in order on the calling thread and never reaches the pool.

use pd_common::sync::Mutex;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, OnceLock};
use std::time::Duration;

/// Number of worker threads for `threads = 0` (auto): the machine's
/// available parallelism.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Resolve the default thread count for `ExecContext::threads == 0`: the
/// `EXEC_THREADS` environment variable when set to a positive integer
/// (used by CI to force the concurrent paths), the machine's available
/// parallelism otherwise. Resolved once — it is launch-time configuration,
/// and reading the environment takes a process-global lock this would
/// otherwise put on every query's hot path.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| threads_from_env(std::env::var("EXEC_THREADS").ok().as_deref()))
}

fn threads_from_env(value: Option<&str>) -> usize {
    value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(available_threads)
}

/// A queued unit of work. Jobs are type-erased closures whose borrows are
/// guaranteed (by the submitting call, which blocks until every job it
/// queued has finished) to outlive the job.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    /// Each job is tagged with the fan-out that queued it (the address of
    /// its `TaskGroup`), so the submitter can take its own unstarted
    /// helpers back.
    queue: Mutex<VecDeque<(usize, Job)>>,
    /// Signaled when jobs are queued (workers sleep on this).
    available: Condvar,
    shutdown: AtomicBool,
}

/// A persistent pool of worker threads executing queued jobs.
///
/// Submission is *scoped*: [`WorkerPool::fan_out`] queues helper jobs
/// that borrow from the caller's stack and does not return until all of
/// them have completed, so the borrows stay valid — the classic scoped
/// thread-pool contract, amortizing thread spawns across queries.
struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// Create a pool with `initial` pre-spawned workers; the pool grows on
    /// demand when a fan-out requests more helpers than exist.
    fn new(initial: usize) -> WorkerPool {
        let pool = WorkerPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            workers: Mutex::new(Vec::new()),
        };
        pool.ensure_workers(initial);
        pool
    }

    /// The process-wide shared pool (lazily created, never torn down).
    fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::new(0))
    }

    /// Grow the pool to at least `n` workers.
    fn ensure_workers(&self, n: usize) {
        let mut workers = self.workers.lock();
        while workers.len() < n {
            let shared = self.shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("pd-worker-{}", workers.len()))
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
            workers.push(handle);
        }
    }

    /// The fan-out behind [`run_tasks_with`]: each thread that claims a
    /// task makes one state with `init` and runs every task it claims with
    /// it; the results come back in task order, and the states, one per
    /// thread that ran a task, in no particular order. Sleeping workers
    /// are woken for the helper jobs.
    fn fan_out<S, T, I, F>(
        &self,
        threads: usize,
        n_tasks: usize,
        init: I,
        run: F,
    ) -> pd_common::Result<(Vec<T>, Vec<S>)>
    where
        S: Send,
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> pd_common::Result<T> + Sync,
    {
        let threads = threads.max(1).min(n_tasks.max(1));
        if threads <= 1 || n_tasks <= 1 {
            let mut state = None;
            let results = (0..n_tasks).map(|i| run(state.get_or_insert_with(&init), i));
            let results = results.collect::<pd_common::Result<_>>()?;
            return Ok((results, state.into_iter().collect()));
        }

        let helpers = threads - 1;
        self.ensure_workers(helpers);
        let group: TaskGroup<S, T> = TaskGroup {
            cursor: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            n_tasks,
            results: Mutex::new(Vec::new()),
            states: Mutex::new(Vec::new()),
            error: Mutex::new(None),
            panic: Mutex::new(None),
            remaining: Mutex::new(helpers),
            done: Condvar::new(),
        };

        let tag = std::ptr::addr_of!(group) as usize;
        {
            let mut queue = self.shared.queue.lock();
            for _ in 0..helpers {
                let g: &TaskGroup<S, T> = &group;
                let (i, r): (&I, &F) = (&init, &run);
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || helper_job(g, i, r));
                // SAFETY: the transmute only erases the closure's lifetime
                // (`Box<dyn FnOnce + Send + '_>` -> `'static`); the vtable and
                // layout are unchanged. The borrows of `group`, `init` and `run` it
                // captures live on this stack frame, and this function cannot
                // return before every queued helper job has finished or been
                // dropped unrun: the wait below blocks until
                // `group.remaining == 0`, `helper_job` decrements `remaining`
                // only after its last use of those borrows, and the reclaim
                // step decrements it only for jobs it removed from the queue
                // (dropping a job touches neither borrow). A panic on this thread is caught by the
                // `catch_unwind` below, so no unwind can pop the frame while
                // a helper still borrows from it.
                let job: Job = unsafe { std::mem::transmute(job) };
                queue.push_back((tag, job));
            }
        }
        self.shared.available.notify_all();

        // The caller is the first worker; its panics are caught so the
        // latch below always gets to run before any unwind escapes (the
        // queued helper jobs borrow from this stack frame).
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            group.work(&init, &run);
        })) {
            group.record_panic(payload);
        }

        // The cursor is exhausted (or the group failed): a helper job still
        // sitting in the queue could only count itself off. Take those back
        // rather than wait for some worker to get around to popping them —
        // that wait stalls this fan-out behind whatever the workers are
        // busy with, and a submitter that waits only on started helpers
        // cannot deadlock the fixed-size pool, however its tasks nest.
        let reclaimed = {
            let mut queue = self.shared.queue.lock();
            let queued = queue.len();
            queue.retain(|(owner, _)| *owner != tag);
            queued - queue.len()
        };
        *group.remaining.lock() -= reclaimed;

        // Sleep until the helpers that did start have finished.
        let mut remaining = group.remaining.lock();
        while *remaining > 0 {
            remaining = group.done.wait(remaining).unwrap_or_else(|e| e.into_inner());
        }
        drop(remaining);

        if let Some(payload) = group.panic.lock().take() {
            std::panic::resume_unwind(payload);
        }
        if let Some(error) = group.error.lock().take() {
            return Err(error);
        }
        let mut slots: Vec<Option<T>> = (0..n_tasks).map(|_| None).collect();
        for (i, t) in group.results.lock().drain(..) {
            slots[i] = Some(t);
        }
        let results = slots
            .into_iter()
            .map(|s| s.expect("every task index was claimed exactly once"))
            .collect();
        let states = std::mem::take(&mut *group.states.lock());
        Ok((results, states))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // The store must happen under the queue lock: a worker that has
        // checked `shutdown` but not yet parked still holds that lock, so
        // storing under it orders the flag before every future park and
        // the notify below cannot be missed.
        {
            let _queue = self.shared.queue.lock();
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.available.notify_all();
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// Time this thread spent running other fan-outs' jobs while it waited
/// for its own: none, since a waiting submitter only sleeps. Kept at zero
/// for readers that subtract it from their wall clocks.
pub fn stolen_time() -> Duration {
    Duration::ZERO
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock();
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some((_, job)) = queue.pop_front() {
                    break job;
                }
                queue = shared.available.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        job();
    }
}

/// Shared state of one fan-out.
struct TaskGroup<S, T> {
    cursor: AtomicUsize,
    failed: AtomicBool,
    n_tasks: usize,
    results: Mutex<Vec<(usize, T)>>,
    /// The state of each thread that ran a task.
    states: Mutex<Vec<S>>,
    error: Mutex<Option<pd_common::Error>>,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Helper jobs not yet finished; guarded by a mutex so the submitter
    /// can sleep on `done`.
    remaining: Mutex<usize>,
    done: Condvar,
}

impl<S: Send, T: Send> TaskGroup<S, T> {
    /// Claim and run tasks until the cursor (or the group) is exhausted,
    /// with a state made on the first claim.
    fn work<I, F>(&self, init: &I, run: &F)
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> pd_common::Result<T> + Sync,
    {
        let mut local: Vec<(usize, T)> = Vec::new();
        let mut state = None;
        loop {
            if self.failed.load(Ordering::Relaxed) {
                break;
            }
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_tasks {
                break;
            }
            match run(state.get_or_insert_with(init), i) {
                Ok(t) => local.push((i, t)),
                Err(e) => {
                    self.failed.store(true, Ordering::Relaxed);
                    let mut slot = self.error.lock();
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    break;
                }
            }
        }
        if !local.is_empty() {
            self.results.lock().extend(local);
        }
        if let Some(state) = state {
            self.states.lock().push(state);
        }
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        self.failed.store(true, Ordering::Relaxed);
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
}

fn helper_job<S, T, I, F>(group: &TaskGroup<S, T>, init: &I, run: &F)
where
    S: Send,
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> pd_common::Result<T> + Sync,
{
    if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        group.work(init, run);
    })) {
        group.record_panic(payload);
    }
    let mut remaining = group.remaining.lock();
    *remaining -= 1;
    group.done.notify_all();
}

/// Run `n_tasks` tasks on up to `threads` workers of the process-wide pool
/// (the calling thread participates), with a state per thread: each thread
/// that claims a task makes one with `init` and hands it to every task it
/// runs, so work can accumulate per thread rather than per task. Returns
/// the results in task order and the states, one per thread that ran a
/// task, in no particular order.
///
/// `run` is invoked exactly once per task index. Errors short-circuit:
/// the first failing task's error is returned and the remaining queue
/// is abandoned (workers drain out at the next poll). Panics in `run`
/// propagate to the caller after all helpers have stopped. With
/// `threads <= 1` (or a single task) everything runs inline on the
/// caller's thread — no queueing, identical code path.
pub fn run_tasks_with<S, T, I, F>(
    threads: usize,
    n_tasks: usize,
    init: I,
    run: F,
) -> pd_common::Result<(Vec<T>, Vec<S>)>
where
    S: Send,
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> pd_common::Result<T> + Sync,
{
    WorkerPool::global().fan_out(threads, n_tasks, init, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_common::Error;
    use std::sync::atomic::AtomicUsize;

    impl WorkerPool {
        /// [`WorkerPool::fan_out`] without per-thread states.
        fn run_tasks<T, F>(
            &self,
            threads: usize,
            n_tasks: usize,
            run: F,
        ) -> pd_common::Result<Vec<T>>
        where
            T: Send,
            F: Fn(usize) -> pd_common::Result<T> + Sync,
        {
            self.fan_out(threads, n_tasks, || (), |_, i| run(i)).map(|(results, _)| results)
        }

        /// Number of worker threads currently alive.
        fn worker_count(&self) -> usize {
            self.workers.lock().len()
        }
    }

    /// [`WorkerPool::run_tasks`] on the process-wide pool.
    fn run_tasks<T, F>(threads: usize, n_tasks: usize, run: F) -> pd_common::Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize) -> pd_common::Result<T> + Sync,
    {
        WorkerPool::global().run_tasks(threads, n_tasks, run)
    }

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 4, 8] {
            let out = run_tasks(threads, 100, |i| Ok(i * i)).unwrap();
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = run_tasks(4, 1000, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(i)
        })
        .unwrap();
        assert_eq!(out.len(), 1000);
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn a_submitter_does_not_wait_on_helpers_that_never_started() {
        // The pool's only worker is stuck in a long task of another
        // fan-out. A second fan-out does all of its own tasks itself; its
        // queued helper never started, so it must take the helper back and
        // return — not wait for the worker to come round and pop it.
        let pool = WorkerPool::new(0);
        let busy = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                pool.run_tasks(2, 2, |i| {
                    busy.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(400));
                    Ok(i)
                })
                .unwrap();
            });
            // Both that submitter and the worker are now inside a task.
            while busy.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            let started = std::time::Instant::now();
            assert_eq!(pool.run_tasks(2, 4, Ok).unwrap(), vec![0, 1, 2, 3]);
            assert!(
                started.elapsed() < Duration::from_millis(200),
                "waited {:?} for a helper that had nothing to do",
                started.elapsed()
            );
        });
    }

    #[test]
    fn errors_propagate_and_stop_the_queue() {
        let calls = AtomicUsize::new(0);
        let result: pd_common::Result<Vec<usize>> = run_tasks(4, 10_000, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 17 {
                Err(Error::Internal("boom".into()))
            } else {
                Ok(i)
            }
        });
        assert!(result.is_err());
        assert!(
            calls.load(Ordering::Relaxed) < 10_000,
            "the failure flag should abandon most of the queue"
        );
    }

    #[test]
    fn zero_and_single_task_edge_cases() {
        assert!(run_tasks(8, 0, |_| Ok(())).unwrap().is_empty());
        assert_eq!(run_tasks(8, 1, Ok).unwrap(), vec![0]);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn env_knob_parses_positive_integers_only() {
        assert_eq!(threads_from_env(Some("2")), 2);
        assert_eq!(threads_from_env(Some(" 16 ")), 16);
        assert_eq!(threads_from_env(Some("0")), available_threads());
        assert_eq!(threads_from_env(Some("banana")), available_threads());
        assert_eq!(threads_from_env(None), available_threads());
    }

    #[test]
    fn pool_workers_persist_across_calls() {
        let pool = WorkerPool::new(0);
        pool.run_tasks(4, 64, Ok).unwrap();
        let after_first = pool.worker_count();
        assert_eq!(after_first, 3, "threads-1 helpers (the caller participates)");
        for _ in 0..10 {
            pool.run_tasks(4, 64, Ok).unwrap();
        }
        assert_eq!(pool.worker_count(), after_first, "no re-spawn on later queries");
        pool.run_tasks(8, 64, Ok).unwrap();
        assert_eq!(pool.worker_count(), 7, "the pool grows on demand");
    }

    #[test]
    fn nested_fan_out_does_not_deadlock() {
        // Shards on the outside, chunks on the inside, all on one shared
        // pool that is smaller than the total helper demand.
        let pool = WorkerPool::new(2);
        let out = pool
            .run_tasks(4, 8, |outer| {
                let inner = pool.run_tasks(4, 16, |i| Ok(outer * 100 + i))?;
                Ok(inner.iter().sum::<usize>())
            })
            .unwrap();
        let expect: Vec<usize> = (0..8).map(|o| (0..16).map(|i| o * 100 + i).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = WorkerPool::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = pool.run_tasks(4, 100, |i| {
                if i == 50 {
                    panic!("task exploded");
                }
                Ok(i)
            });
        }));
        assert!(result.is_err(), "the task panic must surface");
        // The pool must still be usable afterwards.
        assert_eq!(pool.run_tasks(4, 10, Ok).unwrap().len(), 10);
    }
}
