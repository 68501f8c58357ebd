//! Parallel execution of independent simulation runs.
//!
//! Tuning itself is sequential (each iteration depends on the last
//! observation), but the experiment harness runs many *independent*
//! simulations: replicas over seeds, the 3×3 matrix of Figure 4, the four
//! Table 4 methods — and the evaluation engine prefetches a tuner's
//! queued trials the same way (see `crate::eval`). Those fan out
//! across cores — no `unsafe`, no external crates, results returned in
//! input order.
//!
//! There is one batch primitive, [`WorkerPool::run_batch`] on the
//! process-wide [`shared_pool`], over *owned* items: prefetch of queued
//! trials, measurement replications, the experiment grids and the bench
//! sweeps all schedule onto the same workers instead of each call
//! spawning its own. An `AtomicUsize` hands each item index to exactly
//! one runner and results merge into an index-keyed slot vector, so
//! output order never depends on scheduling. The caller participates as
//! one of the `width` runners, so a batch submitted from inside a pool
//! job can never deadlock — the submitting thread drains the batch
//! itself if every pool worker is busy.
//!
//! Determinism: the result vector is a pure function of `(items, f)` —
//! width and scheduling affect only wall-clock time. The byte-identity
//! suite in `tests/eval.rs` holds seeded sessions to that contract at 1,
//! 2, and 8 threads.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Resolve a thread-count *request* to a concrete width: `0` (auto)
/// becomes the shared pool's size (one worker per core), anything else
/// is taken literally. Used by callers that need the width before they
/// know the work size (e.g. the wave length of a sequential-sampling
/// measurement).
pub(crate) fn resolved_threads(request: usize) -> usize {
    if request == 0 {
        shared_pool().size()
    } else {
        request
    }
}

/// A queued unit of pool work. Runner jobs catch panics from user
/// closures internally, so a pool worker thread never unwinds.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

fn lock_queue(shared: &PoolShared) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
    shared.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = lock_queue(shared);
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = shared
                    .work_ready
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

/// One result message per *claimed* index: the output, or the payload of
/// a panic caught inside the runner.
type Slot<O> = Result<O, Box<dyn std::any::Any + Send + 'static>>;

struct BatchCtx<T, O, F> {
    items: Vec<T>,
    f: F,
    next: AtomicUsize,
    tx: mpsc::Sender<(usize, Slot<O>)>,
}

impl<T, O, F> BatchCtx<T, O, F>
where
    F: Fn(&T) -> O,
{
    /// Claim-and-run loop shared by the caller and every pool runner.
    /// Every claimed index sends exactly one message (result or panic
    /// payload), so the collector always receives `items.len()`
    /// messages in total.
    fn drain(&self) {
        loop {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.items.len() {
                break;
            }
            let out = std::panic::catch_unwind(AssertUnwindSafe(|| (self.f)(&self.items[idx])));
            if self.tx.send((idx, out)).is_err() {
                break;
            }
        }
    }
}

/// A persistent worker pool: long-lived threads pulling boxed jobs off
/// one shared queue. The process-wide instance ([`shared_pool`]) is what
/// the evaluation engine, the replication measurers, and the figure
/// drivers schedule onto — one pool, however many call sites.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    size: usize,
}

impl WorkerPool {
    /// Spawn a pool with `size` worker threads (clamped to at least 1).
    pub(crate) fn new(size: usize) -> WorkerPool {
        let size = size.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..size)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            size,
        }
    }

    /// Number of worker threads.
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    fn submit(&self, job: Job) {
        lock_queue(&self.shared).push_back(job);
        self.shared.work_ready.notify_one();
    }

    /// Run `f` over every item of an owned batch with up to `width`
    /// concurrent runners (0 = the pool size), returning results in
    /// input order.
    ///
    /// Deterministic merge rule: results land in an index-keyed slot
    /// vector, so the output is a pure function of `(items, f)` — width,
    /// pool size, and scheduling change only wall-clock time. An
    /// explicit `width == 1` runs inline on the calling thread and
    /// queues nothing. For larger widths the caller becomes one of the
    /// `width` runners and `width - 1` runner jobs are queued; runners
    /// claim item indices from a shared cursor, so a batch makes
    /// progress (and terminates) even when every pool worker is busy —
    /// including when the batch is submitted from *inside* a pool job.
    ///
    /// A panic in `f` is caught in the runner (pool workers never die),
    /// re-raised on the calling thread after the whole batch settles;
    /// when several items panic, the lowest index wins (deterministic).
    pub fn run_batch<T, O, F>(&self, items: Vec<T>, width: usize, f: F) -> Vec<O>
    where
        T: Send + Sync + 'static,
        O: Send + 'static,
        F: Fn(&T) -> O + Send + Sync + 'static,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let width = if width == 0 { self.size } else { width }.min(items.len());
        if width <= 1 {
            let mut out = Vec::with_capacity(items.len());
            for item in &items {
                out.push(f(item));
            }
            return out;
        }
        let n = items.len();
        let (tx, rx) = mpsc::channel();
        let ctx = Arc::new(BatchCtx {
            items,
            f,
            next: AtomicUsize::new(0),
            tx,
        });
        for _ in 0..width - 1 {
            let ctx = Arc::clone(&ctx);
            self.submit(Box::new(move || ctx.drain()));
        }
        ctx.drain();
        let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
        let mut panic_payload: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
        for _ in 0..n {
            // Every index is claimed by exactly one runner and every
            // claimed index sends exactly one message; senders outlive
            // the loop via `ctx`, so `recv` cannot fail before `n`
            // messages arrive.
            let Ok((idx, res)) = rx.recv() else { break };
            match res {
                Ok(out) => slots[idx] = Some(out),
                Err(payload) => {
                    if panic_payload.as_ref().is_none_or(|(i, _)| idx < *i) {
                        panic_payload = Some((idx, payload));
                    }
                }
            }
        }
        if let Some((_, payload)) = panic_payload {
            std::panic::resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|o| {
                #[allow(clippy::expect_used)]
                o.expect("every index claimed exactly once and collected")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            // A worker that panicked outside a caught job is a bug, but
            // tearing down the pool must not double-panic.
            let _ = handle.join();
        }
    }
}

/// The process-wide worker pool, sized to the available cores on first
/// use. Every parallel subsystem — prefetch of queued trials,
/// measurement replications, scenario sweeps — shares these workers
/// instead of spawning its own.
pub fn shared_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        WorkerPool::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolved_threads_maps_zero_to_pool_size() {
        assert_eq!(resolved_threads(0), shared_pool().size());
        assert_eq!(resolved_threads(3), 3);
        assert_eq!(resolved_threads(1), 1);
    }

    #[test]
    fn pool_batch_preserves_order() {
        let pool = WorkerPool::new(4);
        // More items than runners, and more runners than items.
        for (n, width) in [(200u64, 4), (1, 64), (3, 16)] {
            let items: Vec<u64> = (0..n).collect();
            let out = pool.run_batch(items.clone(), width, |&x| x * 3);
            let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
            assert_eq!(out, expected, "{n} items at width {width}");
        }
    }

    #[test]
    fn pool_batch_empty_and_inline_paths() {
        let pool = WorkerPool::new(2);
        let out: Vec<u64> = pool.run_batch(Vec::new(), 4, |&x: &u64| x);
        assert!(out.is_empty());
        // Explicit width 1 runs inline on the caller.
        let caller = std::thread::current().id();
        let ids = pool.run_batch(vec![1, 2, 3], 1, move |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn pool_batch_width_zero_uses_pool_size() {
        let pool = WorkerPool::new(3);
        let items: Vec<u64> = (0..50).collect();
        let out = pool.run_batch(items, 0, |&x| x + 1);
        assert_eq!(out.len(), 50);
        assert_eq!(out[49], 50);
    }

    #[test]
    fn pool_batch_result_is_width_independent() {
        let pool = WorkerPool::new(4);
        let f = |&x: &u64| {
            let mut h = x;
            for _ in 0..5_000 {
                h = h.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17) ^ x;
            }
            h
        };
        let items: Vec<u64> = (0..64).collect();
        let w1 = pool.run_batch(items.clone(), 1, f);
        let w2 = pool.run_batch(items.clone(), 2, f);
        let w8 = pool.run_batch(items.clone(), 8, f);
        assert_eq!(w1, w2);
        assert_eq!(w1, w8);
    }

    #[test]
    fn pool_batch_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_batch((0..16u64).collect(), 4, |&x| {
                if x % 5 == 3 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        assert!(caught.is_err(), "panic must not be swallowed");
        // The pool's workers caught the panic internally and are still
        // serving jobs.
        let out = pool.run_batch(vec![1u64, 2, 3], 2, |&x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn nested_batch_from_inside_a_pool_job_completes() {
        // A batch submitted from inside a pool job must not deadlock
        // even when the pool has a single worker: the submitting job
        // participates as a runner and drains the batch itself.
        let pool = Arc::new(WorkerPool::new(1));
        let inner_pool = Arc::clone(&pool);
        let outer = pool.run_batch(vec![10u64, 20], 2, move |&x| {
            let inner = inner_pool.run_batch(vec![1u64, 2, 3], 2, |&y| y * 2);
            x + inner.iter().sum::<u64>()
        });
        assert_eq!(outer, vec![22, 32]);
    }

    #[test]
    fn shared_pool_is_process_wide() {
        let a = shared_pool() as *const WorkerPool;
        let b = shared_pool() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(shared_pool().size() >= 1);
        let out = shared_pool().run_batch(vec![4u64, 5], 2, |&x| x * x);
        assert_eq!(out, vec![16, 25]);
    }
}
