//! Parallel execution of independent simulation runs.
//!
//! Tuning itself is sequential (each iteration depends on the last
//! observation), but the experiment harness runs many *independent*
//! simulations: replicas over seeds, the 3×3 matrix of Figure 4, the four
//! Table 4 methods — and the evaluation engine prefetches a tuner's
//! queued trials the same way (see `crate::eval`). Those fan out
//! across cores — no `unsafe`, no leaked scoped threads, no external
//! crates, results returned in input order.
//!
//! Two execution fronts share the same claim/merge discipline (an
//! `AtomicUsize` hands each item index to exactly one worker; results
//! merge into an index-keyed slot vector, so output order never depends
//! on scheduling):
//!
//! * [`parallel_map`] — scoped threads for *borrowed* inputs and
//!   closures. Threads live only for the call; write-once [`OnceLock`]
//!   slots hold results without a lock per item.
//! * [`WorkerPool::run_batch`] / [`shared_pool`] — one persistent,
//!   process-wide pool for *owned* batches: prefetch of queued trials,
//!   measurement replications, and whole scenario sweeps
//!   all schedule onto the same workers instead of each call spawning
//!   its own. The caller participates as one of the `width` runners, so
//!   a batch submitted from inside a pool job can never deadlock — the
//!   submitting thread drains the batch itself if every pool worker is
//!   busy.
//!
//! Determinism: for both fronts the result vector is a pure function of
//! `(items, f)` — thread count and scheduling affect only wall-clock
//! time. The byte-identity suite in `tests/eval.rs` holds seeded
//! sessions to that contract at 1, 2, and 8 threads.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Map `f` over `items` in parallel, preserving order. Uses up to
/// `max_threads` worker threads (0 = number of available cores).
///
/// An explicit `max_threads == 1` never spawns: the mapping runs on the
/// calling thread. Memory is bounded by the output vector itself —
/// workers write each result straight into its write-once slot (no
/// channel, so a fast producer can never buffer the whole result set
/// twice; no per-item mutex, so storing a result is a single atomic
/// release).
///
/// A panic in `f` propagates to the caller when the scope joins.
pub fn parallel_map<I, O, F>(items: &[I], max_threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send + Sync,
    F: Fn(&I) -> O + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = effective_threads(max_threads, items.len());
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<O>> = (0..items.len()).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let next = &next;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= items.len() {
                    break;
                }
                let out = f(&items[idx]);
                // `idx` is claimed by exactly one worker, so this set
                // always wins; the Err arm (already set) is unreachable
                // and its value is simply dropped.
                let _ = slots[idx].set(out);
            });
        }
        // `std::thread::scope` joins every worker here and re-raises the
        // first panic, so a half-filled result can never be observed.
    });
    slots
        .into_iter()
        .map(OnceLock::into_inner)
        .map(|o| {
            #[allow(clippy::expect_used)]
            o.expect("every index processed: scope joined all workers")
        })
        .collect()
}

/// Worker-thread count for `work` independent tasks under a
/// `max_threads` request: an explicit request is honoured exactly (never
/// silently inflated), `0` means one thread per available core, and the
/// result is clamped to `[1, work]` — more workers than tasks would only
/// spawn idle threads. `available_parallelism` failure (exotic
/// platforms, restricted cgroups) degrades to sequential, never panics.
pub fn effective_threads(max_threads: usize, work: usize) -> usize {
    let cap = if max_threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        max_threads
    };
    cap.min(work).max(1)
}

/// Resolve a thread-count *request* to a concrete width: `0` (auto)
/// becomes the shared pool's size (one worker per core), anything else
/// is taken literally. Used by callers that need the width before they
/// know the work size (e.g. the wave length of a sequential-sampling
/// measurement).
pub fn resolved_threads(request: usize) -> usize {
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
    pub fn new(size: usize) -> WorkerPool {
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
    pub fn size(&self) -> usize {
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
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 8, |&x| x * x);
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = parallel_map(&Vec::<u64>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_path() {
        let items = vec![1, 2, 3];
        let out = parallel_map(&items, 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn single_thread_request_never_spawns() {
        // Regression: an explicit 1-thread request must run on the
        // calling thread, not on one spawned worker.
        let caller = std::thread::current().id();
        let items = vec![1, 2, 3];
        let ids = parallel_map(&items, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn explicit_thread_request_is_honoured() {
        // Regression: `effective_threads` must never inflate an explicit
        // request (e.g. to the core count) — only clamp it to the work.
        assert_eq!(effective_threads(3, 100), 3);
        assert_eq!(effective_threads(3, 2), 2);
        assert_eq!(effective_threads(1, 100), 1);
        assert_eq!(effective_threads(64, 1), 1);
        // 0 = auto: at least one thread, never more than the work.
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(0, 1), 1);
    }

    #[test]
    fn resolved_threads_maps_zero_to_pool_size() {
        assert_eq!(resolved_threads(0), shared_pool().size());
        assert_eq!(resolved_threads(3), 3);
        assert_eq!(resolved_threads(1), 1);
    }

    #[test]
    fn more_threads_than_items() {
        let items = vec![5];
        let out = parallel_map(&items, 64, |&x| x * 2);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn panic_in_worker_propagates() {
        let items: Vec<u64> = (0..32).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(&items, 4, |&x| {
                if x == 13 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        assert!(caught.is_err(), "panic must not be swallowed");
    }

    #[test]
    fn heavy_work_is_actually_parallel_safe() {
        // Hash chains: result must be independent of scheduling.
        let items: Vec<u64> = (0..64).collect();
        let f = |&x: &u64| {
            let mut h = x;
            for _ in 0..10_000 {
                h = h.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17) ^ x;
            }
            h
        };
        let seq: Vec<u64> = items.iter().map(f).collect();
        let par = parallel_map(&items, 0, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn write_once_slots_fill_under_contention() {
        // Regression for the OnceLock slot scheme: many tiny items and
        // more threads than cores maximize claim churn; every slot must
        // still be written exactly once and read back in order.
        let items: Vec<u64> = (0..500).collect();
        let out = parallel_map(&items, 16, |&x| x + 7);
        let expected: Vec<u64> = items.iter().map(|x| x + 7).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn pool_batch_preserves_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..200).collect();
        let out = pool.run_batch(items.clone(), 4, |&x| x * 3);
        let expected: Vec<u64> = items.iter().map(|x| x * 3).collect();
        assert_eq!(out, expected);
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
