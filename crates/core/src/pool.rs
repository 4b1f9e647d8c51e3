//! A persistent, lazily-spawned worker pool.
//!
//! Before this module, every parallel evaluation — candidate split
//! batches, parallel pairwise-EMD sums — paid for a fresh set of
//! `std::thread::scope` spawns, once per call, thousands of times per
//! audit and again every streaming epoch. The pool here is spawned once
//! (lazily, on the first parallel batch), parks between batches, and is
//! shared by every engine and every `fairjob-stream` epoch in the
//! process; [`WorkerPool::threads_spawned`] counts lifetime spawns so CI
//! can assert the "no per-call spawns" contract with a real counter.
//!
//! # Determinism
//!
//! The pool deliberately exposes *indexed* work only:
//! [`WorkerPool::run_chunks`] gives each chunk index its own result
//! slot, workers self-schedule chunk indices work-stealing style
//! (whoever is free claims the next index), and the caller reassembles
//! results in index order. Which worker ran which chunk varies run to
//! run; the returned `Vec` never does. Callers that need bit-identical
//! floating-point results across thread counts get them by reducing the
//! returned slots serially, in index order.
//!
//! # Panics
//!
//! A panic inside a chunk closure is caught on the worker, recorded,
//! and re-raised on the calling thread after the batch drains — the
//! same observable behaviour as `std::thread::scope`, without poisoning
//! the long-lived workers.
//!
//! Completion signalling is unwind-proof: each claimed invocation holds
//! a `TicketGuard` whose `Drop` marks the ticket finished and wakes
//! the submitter, so a panic anywhere on the worker's execution path —
//! the closure itself, a poisoned lock, even a panic payload whose own
//! `Drop` panics — can never leave [`WorkerPool::run`] waiting forever
//! on a ticket that will not complete. That matters doubly because the
//! submitter's stack frame owns the erased `*const dyn Fn`: a submitter
//! that returned early while a worker still ran would turn the pointer
//! into a dangling reference. Should a worker thread die outright
//! (double panic while unwinding), a scope guard hands its slot back so
//! the next batch respawns a replacement — [`WorkerPool::threads_spawned`]
//! keeps counting every spawn, replacements included, so the lifetime
//! counter stays honest.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Ceiling on global pool workers and on the default thread budget
/// (`thread_budget`), so large boxes never oversubscribe.
pub(crate) const MAX_GLOBAL_WORKERS: usize = 8;

/// The machine's available parallelism, read once per process.
///
/// `std::thread::available_parallelism` reads the affinity mask and the
/// cgroup CPU quota on every call — about 20 µs on Linux, ten times
/// the cost of splitting a few hundred rows — so every default thread
/// count in this crate comes from here. The global pool fixes
/// its size from this value at first use, so the engine's and the
/// context's defaults can never disagree with it.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The worker-thread budget of an audit: `threads` when configured,
/// else [`available_cores`] capped at 8; never zero. The one resolution
/// of [`crate::AuditConfig::threads`], shared by the context's per-row
/// passes and [`crate::EvalEngine`].
pub(crate) fn thread_budget(threads: Option<usize>) -> usize {
    threads
        .unwrap_or_else(|| available_cores().min(MAX_GLOBAL_WORKERS))
        .max(1)
}

/// One batch posted to the pool: a type-erased pointer to the caller's
/// work closure plus the rendezvous state the caller blocks on.
struct Job {
    /// `&(dyn Fn() + Sync)` borrowed from the submitting thread's
    /// stack, lifetime-erased. Only dereferenced while the submitting
    /// call frame is alive: claims happen under the queue lock, the
    /// submitter removes the job from the queue (stopping new claims)
    /// and then waits until `finished == taken` before returning.
    work: *const (dyn Fn() + Sync),
    /// Helper invocations still claimable by workers.
    tickets: usize,
    shared: Arc<JobShared>,
}

// SAFETY: `work` is only dereferenced under the protocol documented on
// the field — the pointee outlives every dereference — and the pointee
// is `Sync`, so concurrent invocation is allowed.
unsafe impl Send for Job {}

#[derive(Default)]
struct JobShared {
    state: Mutex<JobState>,
    done: Condvar,
}

#[derive(Default)]
struct JobState {
    taken: usize,
    finished: usize,
    panicked: bool,
}

/// A claimed worker invocation. Dropping the guard — normally or while
/// unwinding — marks the ticket finished and wakes the submitter; a
/// guard dropped before [`TicketGuard::complete`] records the job as
/// panicked. This is the deadlock fix: completion no longer depends on
/// the worker's happy path reaching the bookkeeping code.
struct TicketGuard {
    shared: Arc<JobShared>,
    completed: bool,
}

impl TicketGuard {
    fn complete(&mut self) {
        self.completed = true;
    }
}

impl Drop for TicketGuard {
    fn drop(&mut self) {
        let mut state = lock_ignore_poison(&self.shared.state);
        state.finished += 1;
        if !self.completed {
            state.panicked = true;
        }
        drop(state);
        self.shared.done.notify_all();
    }
}

/// Lock a mutex whose protected data stays valid across a panic (plain
/// counters and queues here — no invariant is half-updated when an
/// unwind happens outside the critical section). Poison must not turn
/// into a second panic on the completion path, or the submitter waits
/// forever.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct PoolInner {
    queue: Mutex<Vec<Job>>,
    available: Condvar,
    /// Workers currently alive. Decremented by a worker's scope guard
    /// if its thread dies (it can only die to a double panic while
    /// unwinding); [`WorkerPool::ensure_spawned`] compares against this,
    /// so the next batch replaces the casualty instead of silently
    /// running under-provisioned forever.
    live: Mutex<usize>,
}

/// Scope guard on each worker thread: gives the worker's slot back on
/// thread death so `ensure_spawned` can account for (and replace) it.
struct WorkerSlot {
    inner: Arc<PoolInner>,
}

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        *lock_ignore_poison(&self.inner.live) -= 1;
    }
}

/// The persistent pool. Use [`WorkerPool::global`] rather than
/// constructing one per call site — sharing is the whole point.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    max_workers: usize,
    /// Lifetime spawn counter (original spawns + replacements for dead
    /// workers), readable without a lock.
    threads_spawned: AtomicUsize,
}

impl WorkerPool {
    /// A pool that will lazily spawn at most `max_workers` workers.
    pub fn new(max_workers: usize) -> Self {
        WorkerPool {
            inner: Arc::new(PoolInner {
                queue: Mutex::new(Vec::new()),
                available: Condvar::new(),
                live: Mutex::new(0),
            }),
            max_workers,
            threads_spawned: AtomicUsize::new(0),
        }
    }

    /// The process-wide shared pool, sized to the machine (capped at
    /// 8 workers, like the default thread budget of an audit). Workers
    /// are only spawned once a batch actually asks for helpers.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            // The submitting thread participates too, so keep one core
            // for it.
            WorkerPool::new(available_cores().saturating_sub(1).min(MAX_GLOBAL_WORKERS))
        })
    }

    /// Workers ever spawned by this pool. Stays flat across batches —
    /// the counter CI uses to assert that per-call thread spawning is
    /// gone.
    pub fn threads_spawned(&self) -> usize {
        self.threads_spawned.load(Ordering::Relaxed)
    }

    /// Maximum number of helper workers this pool will ever run.
    pub fn max_workers(&self) -> usize {
        self.max_workers
    }

    fn ensure_spawned(&self, wanted: usize) {
        let wanted = wanted.min(self.max_workers);
        let mut live = lock_ignore_poison(&self.inner.live);
        while *live < wanted {
            let inner = Arc::clone(&self.inner);
            let serial = self.threads_spawned.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name(format!("fairjob-pool-{serial}"))
                .spawn(move || {
                    // Returns the slot (decrements `live`) if this
                    // thread ever dies, so it gets replaced.
                    let _slot = WorkerSlot {
                        inner: Arc::clone(&inner),
                    };
                    worker_loop(&inner);
                })
                .expect("spawn pool worker");
            *live += 1;
        }
    }

    /// Run `work` on the calling thread *and* up to `helpers` pool
    /// workers concurrently, returning once every started invocation
    /// has finished. `work` must partition its own input (e.g. by
    /// claiming indices from an atomic counter); extra invocations that
    /// find nothing to claim simply return.
    pub fn run(&self, helpers: usize, work: &(dyn Fn() + Sync)) {
        let helpers = helpers.min(self.max_workers);
        let shared = Arc::new(JobShared::default());
        if helpers > 0 {
            self.ensure_spawned(helpers);
            // SAFETY: erases the borrow's lifetime so the job can sit in
            // the 'static queue; `Job::work` documents why the pointer
            // is never dereferenced after this call returns.
            let work: *const (dyn Fn() + Sync) =
                unsafe { std::mem::transmute(work as *const (dyn Fn() + Sync + '_)) };
            lock_ignore_poison(&self.inner.queue).push(Job {
                work,
                tickets: helpers,
                shared: Arc::clone(&shared),
            });
            self.inner.available.notify_all();
        }
        let caller = catch_unwind(AssertUnwindSafe(&work));
        if helpers > 0 {
            // Remove any unclaimed tickets — no new claims can start
            // once the job is off the queue — then wait out the claimed
            // invocations. Every claimed ticket is finished by a
            // `TicketGuard` even if the worker unwinds, so this wait
            // always terminates.
            lock_ignore_poison(&self.inner.queue).retain(|job| !Arc::ptr_eq(&job.shared, &shared));
            let mut state = lock_ignore_poison(&shared.state);
            while state.finished < state.taken {
                state = shared
                    .done
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if state.panicked && caller.is_ok() {
                drop(state);
                panic!("worker pool task panicked");
            }
        }
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
    }

    /// Evaluate `f(0..chunks)` with up to `parallelism` concurrent
    /// threads (the caller plus pool helpers) and return the results in
    /// chunk order. `parallelism <= 1` runs everything inline on the
    /// caller — same results, no synchronisation.
    pub fn run_chunks<T, F>(&self, parallelism: usize, chunks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if chunks == 0 {
            return Vec::new();
        }
        let parallelism = parallelism.max(1).min(chunks);
        if parallelism == 1 {
            return (0..chunks).map(f).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= chunks {
                break;
            }
            let value = f(i);
            *slots[i].lock().expect("pool result slot") = Some(value);
        };
        self.run(parallelism - 1, &work);
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("pool result slot")
                    .expect("every chunk completed")
            })
            .collect()
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let (work, mut guard) = {
            let mut queue = lock_ignore_poison(&inner.queue);
            loop {
                if let Some(pos) = queue.iter().position(|job| job.tickets > 0) {
                    let job = &mut queue[pos];
                    job.tickets -= 1;
                    lock_ignore_poison(&job.shared.state).taken += 1;
                    // The guard is armed here, under the queue lock —
                    // from this point on the ticket is finished (and
                    // the submitter woken) no matter how this
                    // invocation ends.
                    let guard = TicketGuard {
                        shared: Arc::clone(&job.shared),
                        completed: false,
                    };
                    let claimed = (job.work, guard);
                    if job.tickets == 0 {
                        queue.remove(pos);
                    }
                    break claimed;
                }
                queue = inner
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: the claim above happened under the queue lock, before
        // the submitter could remove the job, so the submitter is still
        // blocked in `run` and the pointee is alive (see `Job::work`).
        // The submitter cannot stop waiting early: its wait condition
        // is `finished == taken`, and this invocation's `finished`
        // increment only happens in the guard drop below, after the
        // last dereference of `work`.
        let work = unsafe { &*work };
        // Run the closure AND dispose of any panic payload inside the
        // same catch: a payload whose own `Drop` panics must not unwind
        // through the loop and kill the worker.
        let ok = catch_unwind(AssertUnwindSafe(|| {
            let outcome = catch_unwind(AssertUnwindSafe(work));
            outcome.is_ok()
        }))
        .unwrap_or(false);
        if ok {
            guard.complete();
        }
        drop(guard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_chunks_returns_results_in_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run_chunks(4, 100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn inline_path_matches_parallel_path() {
        let pool = WorkerPool::new(4);
        let serial = pool.run_chunks(1, 37, |i| (i as f64).sqrt());
        let parallel = pool.run_chunks(4, 37, |i| (i as f64).sqrt());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn workers_are_reused_across_batches() {
        let pool = WorkerPool::new(3);
        for _ in 0..50 {
            let _ = pool.run_chunks(4, 16, |i| i + 1);
        }
        assert!(
            pool.threads_spawned() <= 3,
            "pool spawned {} threads for 50 batches",
            pool.threads_spawned()
        );
    }

    #[test]
    fn zero_helpers_runs_inline_without_spawning() {
        let pool = WorkerPool::new(0);
        let out = pool.run_chunks(8, 5, |i| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(pool.threads_spawned(), 0);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_chunks(3, 64, |i| {
                if i == 40 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(result.is_err());
        // The pool survives the panic and keeps serving batches.
        let out = pool.run_chunks(3, 8, |i| i * 2);
        assert_eq!(out[7], 14);
    }

    #[test]
    fn global_pool_is_shared_and_capped() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.max_workers() <= MAX_GLOBAL_WORKERS);
    }

    /// The deadlock regression: a job that panics on a pool worker (and
    /// only there) used to leave `finished < taken` forever, hanging
    /// the submitting thread. `run` must now return (by panicking) well
    /// within the timeout, and the pool must keep serving afterwards.
    #[test]
    fn panicking_worker_job_does_not_deadlock_run() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;
        use std::time::{Duration, Instant};

        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let pool = WorkerPool::new(2);
            let caller = std::thread::current().id();
            let worker_panicked = AtomicBool::new(false);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.run(2, &|| {
                    if std::thread::current().id() != caller {
                        worker_panicked.store(true, Ordering::SeqCst);
                        panic!("deliberate worker panic");
                    }
                    // Caller invocation: hold the batch open until a
                    // worker has actually claimed a ticket and blown
                    // up, so the panic provably happened off-caller.
                    let start = Instant::now();
                    while !worker_panicked.load(Ordering::SeqCst)
                        && start.elapsed() < Duration::from_secs(10)
                    {
                        std::thread::yield_now();
                    }
                })
            }));
            assert!(
                worker_panicked.load(Ordering::SeqCst),
                "test never exercised the worker path"
            );
            // The pool is still alive and usable after the panic.
            let out = pool.run_chunks(3, 8, |i| i + 1);
            tx.send((result.is_err(), out)).ok();
        });
        let (propagated, out) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("WorkerPool::run deadlocked on a panicking worker job");
        assert!(propagated, "worker panic must propagate to the caller");
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    /// A panic on the *calling* invocation resumes on the caller — the
    /// `std::thread::scope`-equivalent contract, spelled as the
    /// `#[should_panic]` face of the regression above.
    #[test]
    #[should_panic(expected = "caller boom")]
    fn panicking_caller_job_resumes_on_caller() {
        let pool = WorkerPool::new(1);
        pool.run(1, &|| {
            panic!("caller boom");
        });
    }

    /// A panic payload whose own `Drop` panics must not kill the worker
    /// or hang the submitter.
    #[test]
    fn panicking_payload_drop_is_contained() {
        use std::sync::mpsc;
        use std::time::Duration;

        struct Grenade;
        impl Drop for Grenade {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    return; // avoid double-panic aborts while unwinding
                }
                panic!("payload drop panic");
            }
        }

        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let pool = WorkerPool::new(2);
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.run_chunks(3, 32, |i| {
                    if i % 7 == 3 {
                        std::panic::panic_any(Grenade);
                    }
                    i
                })
            }));
            assert!(result.is_err());
            // Dispose of the caught grenade under its own catch — its
            // drop panics too.
            let _ = catch_unwind(AssertUnwindSafe(move || drop(result)));
            // Workers survived (or were replaced); the pool still runs.
            let out = pool.run_chunks(3, 4, |i| i * 3);
            tx.send(out).ok();
        });
        let out = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("pool hung after a panicking panic payload");
        assert_eq!(out, vec![0, 3, 6, 9]);
    }
}
