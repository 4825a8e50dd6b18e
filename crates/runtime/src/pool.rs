//! The pooled executor: P simulated processors multiplexed onto a fixed
//! pool of worker threads.
//!
//! Each processor runs as a stackful coroutine ([`crate::coro`]). Workers
//! pull runnable processors from per-worker run queues (plus a shared
//! injector) and resume them; a processor that blocks on an empty mailbox
//! lane suspends back into its worker, which moves on to other runnable
//! processors. A send to a parked processor re-enqueues it on the
//! *sender's* worker queue (locality: the message is hot in that core's
//! cache); idle workers steal from the back of their peers' queues.
//!
//! ## Processor scheduling states
//!
//! Each processor carries a one-byte atomic state:
//!
//! * `IDLE` — running on some worker, or sitting in a run queue.
//! * `BLOCKED` — parked on an empty mailbox lane; exactly one wake
//!   transitions it back to `IDLE` and enqueues it.
//! * `NOTIFIED` — a wake arrived while the processor was `IDLE` (still
//!   running, or already queued). The wake is latched: when the worker
//!   tries to commit the park (`IDLE → BLOCKED`), the CAS fails and the
//!   processor is re-enqueued instead of parked.
//!
//! The park commit happens on the *worker*, after the coroutine has fully
//! suspended (its registers are parked on its own stack and the `Coro`
//! handle is back in its slot) — so by the time any other worker can
//! observe `BLOCKED` and steal the processor, the coroutine is complete,
//! inert data. That ordering plus the latched `NOTIFIED` state makes lost
//! wakeups impossible without any per-lane condvar.
//!
//! ## Deadlock watchdog
//!
//! Threaded mode gets recv timeouts for free from `Condvar::wait_for`. A
//! parked coroutine has no thread to time out on, so the pool runs one
//! dedicated watchdog thread (within the "num_cpus + constant" budget)
//! that periodically scans parked processors' park timestamps. On
//! expiry it latches a `timed_out` flag and wakes the processor; the
//! processor itself re-checks its lane (progress wins over timeout) and
//! otherwise panics with the same diagnostic text as the threaded path,
//! so existing tooling and tests match either executor.
//!
//! ## Determinism
//!
//! Scheduling order affects host wall-clock only. Virtual time is
//! per-processor state advanced by local charges and by message
//! causality (`recv` takes `max(own clock, arrival)`), and message
//! matching is FIFO per `(src, tag)` with no wildcard receive — so the
//! virtual-time results are bit-identical to the threaded executor no
//! matter how processors interleave on workers.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::coro::{stack_bytes_from_env, Coro, YieldKind, Yielder};
use crate::ctx::{ExecCtx, ProcCtx, World};
use crate::run::{flight_text, ProcOutcome, RawOutcomes};
use crate::telemetry::Telemetry;

/// Running (on a worker) or waiting in a run queue.
const IDLE: u8 = 0;
/// Parked on an empty mailbox lane.
const BLOCKED: u8 = 1;
/// A wake arrived while `IDLE`; the next park attempt aborts.
const NOTIFIED: u8 = 2;

/// `blocked_at_ns` sentinel: not currently parked.
const NOT_BLOCKED: u64 = u64::MAX;

thread_local! {
    /// Index of the pool worker running on this thread (`usize::MAX` on
    /// non-worker threads). Used to route wakes to the waker's own queue.
    static CURRENT_WORKER: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Per-processor scheduling state, cache-line padded: `wake` from a
/// sender must not false-share with neighbouring processors' parks.
#[repr(align(64))]
struct ProcSched {
    state: AtomicU8,
    /// Latched by the watchdog when a park outlives the recv timeout.
    timed_out: AtomicBool,
    /// Nanoseconds since `Pool::epoch` when the park was committed
    /// (`NOT_BLOCKED` while runnable). Watchdog bookkeeping, keyed by
    /// processor id — not by thread identity, which is meaningless here.
    blocked_at_ns: AtomicU64,
}

/// Scheduler state shared by workers, mailboxes (for wakes) and the
/// watchdog. The coroutines themselves are *not* in here — they borrow
/// from the run's stack frame and live in `execute`'s locals.
pub(crate) struct Pool {
    /// Per-worker run queues: owner pops the front, thieves pop the back.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Shared injector: wakes from non-worker threads, cooperative yields.
    global: Mutex<VecDeque<usize>>,
    procs: Vec<ProcSched>,
    /// Workers park here when every queue is empty.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Processors that have not finished yet; 0 triggers shutdown.
    live: AtomicUsize,
    shutdown: AtomicBool,
    /// Watchdog park/wake (so run teardown does not wait out a scan period).
    wd_lock: Mutex<()>,
    wd_cv: Condvar,
    recv_timeout: Duration,
    epoch: Instant,
}

impl Pool {
    pub(crate) fn new(nprocs: usize, workers: usize, recv_timeout: Duration) -> Arc<Pool> {
        assert!(workers >= 1, "pooled executor needs at least one worker");
        Arc::new(Pool {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            global: Mutex::new(VecDeque::new()),
            procs: (0..nprocs)
                .map(|_| ProcSched {
                    state: AtomicU8::new(IDLE),
                    timed_out: AtomicBool::new(false),
                    blocked_at_ns: AtomicU64::new(NOT_BLOCKED),
                })
                .collect(),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            live: AtomicUsize::new(nprocs),
            shutdown: AtomicBool::new(false),
            wd_lock: Mutex::new(()),
            wd_cv: Condvar::new(),
            recv_timeout,
            epoch: Instant::now(),
        })
    }

    /// Make `proc` runnable (called by senders on deposit, by `poison`,
    /// and by the watchdog). Lost-wakeup-free: a park that races this is
    /// either already committed (`BLOCKED` → we enqueue) or not yet
    /// (`IDLE` → we latch `NOTIFIED` and the park commit aborts).
    pub(crate) fn wake(&self, proc: usize) {
        let ps = &self.procs[proc];
        loop {
            match ps.state.compare_exchange(BLOCKED, IDLE, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    ps.blocked_at_ns.store(NOT_BLOCKED, Ordering::Relaxed);
                    self.enqueue(proc);
                    return;
                }
                Err(NOTIFIED) => return, // wake already latched
                Err(_) => {
                    // IDLE: running or queued — latch the wake and let the
                    // park commit abort. CAS failure means the processor
                    // just parked; retry the outer loop.
                    if ps
                        .state
                        .compare_exchange(IDLE, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
            }
        }
    }

    /// Consume the watchdog's timeout latch for `proc`.
    pub(crate) fn take_timed_out(&self, proc: usize) -> bool {
        self.procs[proc].timed_out.swap(false, Ordering::AcqRel)
    }

    /// Drop a stale timeout latch (a message arrived after all).
    pub(crate) fn clear_timeout(&self, proc: usize) {
        self.procs[proc].timed_out.store(false, Ordering::Relaxed);
    }

    /// Push a runnable processor onto the waker's own queue (locality) or
    /// the shared injector when the waker is not a pool worker.
    fn enqueue(&self, proc: usize) {
        let w = CURRENT_WORKER.get();
        if w < self.queues.len() {
            self.queues[w].lock().push_back(proc);
        } else {
            self.global.lock().push_back(proc);
        }
        self.notify_one_worker();
    }

    /// Wake one parked worker. Taking `idle_lock` first closes the race
    /// with a worker that re-checked the queues and is about to wait: it
    /// is either pre-check (sees our push) or parked (gets the notify).
    fn notify_one_worker(&self) {
        drop(self.idle_lock.lock());
        self.idle_cv.notify_one();
    }

    /// Pop runnable work: own queue front, then the injector, then steal
    /// from the back of the other workers' queues.
    fn find_work(&self, widx: usize) -> Option<usize> {
        if let Some(p) = self.queues[widx].lock().pop_front() {
            return Some(p);
        }
        if let Some(p) = self.global.lock().pop_front() {
            return Some(p);
        }
        let n = self.queues.len();
        for off in 1..n {
            if let Some(p) = self.queues[(widx + off) % n].lock().pop_back() {
                return Some(p);
            }
        }
        None
    }

    fn has_work(&self) -> bool {
        if !self.global.lock().is_empty() {
            return true;
        }
        self.queues.iter().any(|q| !q.lock().is_empty())
    }

    /// Park this worker until new work is enqueued. The timeout is a
    /// belt-and-braces backstop; wakes normally arrive via the condvar.
    fn park(&self) {
        let mut g = self.idle_lock.lock();
        if self.shutdown.load(Ordering::Acquire) || self.has_work() {
            return;
        }
        self.idle_cv.wait_for(&mut g, Duration::from_millis(50));
    }

    /// Last processor finished (or a worker is unwinding): release every
    /// parked worker and the watchdog.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        drop(self.idle_lock.lock());
        self.idle_cv.notify_all();
        drop(self.wd_lock.lock());
        self.wd_cv.notify_all();
    }

    /// Watchdog body (runs on its own scoped thread): scan parked
    /// processors every fraction of the recv timeout; on expiry, latch
    /// `timed_out` and wake the processor so *it* raises the deadlock
    /// panic from its own context (where the diagnostic belongs).
    fn watchdog_loop(&self) {
        let period = (self.recv_timeout / 8)
            .clamp(Duration::from_millis(5), Duration::from_millis(250));
        let lim = self.recv_timeout.as_nanos() as u64;
        let mut g = self.wd_lock.lock();
        while !self.shutdown.load(Ordering::Acquire) {
            self.wd_cv.wait_for(&mut g, period);
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let now = self.epoch.elapsed().as_nanos() as u64;
            for (i, ps) in self.procs.iter().enumerate() {
                let b = ps.blocked_at_ns.load(Ordering::Relaxed);
                if b != NOT_BLOCKED && now.saturating_sub(b) >= lim {
                    ps.timed_out.store(true, Ordering::Release);
                    self.wake(i);
                }
            }
        }
    }
}

/// One worker: resume runnable processors until shutdown.
fn worker_loop(pool: &Pool, coros: &[Mutex<Option<Coro>>], widx: usize) {
    CURRENT_WORKER.set(widx);
    loop {
        if pool.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Some(p) = pool.find_work(widx) else {
            pool.park();
            continue;
        };
        let mut coro = coros[p].lock().take().expect("runnable processor has no coroutine");
        match coro.resume() {
            YieldKind::Done => {
                drop(coro); // free the stack eagerly: matters at P=4096
                if pool.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                    pool.begin_shutdown();
                }
            }
            YieldKind::Yielded => {
                // Cooperative yield (probe poll): go to the back of the
                // shared injector so peers on this worker are not starved.
                *coros[p].lock() = Some(coro);
                pool.global.lock().push_back(p);
                pool.notify_one_worker();
            }
            YieldKind::Blocked => {
                // Park commit. The coroutine is fully suspended; return it
                // to its slot *before* publishing BLOCKED, so a waker that
                // observes BLOCKED can immediately hand it to any worker.
                *coros[p].lock() = Some(coro);
                let ps = &pool.procs[p];
                ps.blocked_at_ns
                    .store(pool.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if ps
                    .state
                    .compare_exchange(IDLE, BLOCKED, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // NOTIFIED: a wake raced the park. Consume it and keep
                    // the processor runnable on this worker.
                    ps.state.store(IDLE, Ordering::Release);
                    ps.blocked_at_ns.store(NOT_BLOCKED, Ordering::Relaxed);
                    pool.queues[widx].lock().push_back(p);
                    pool.notify_one_worker();
                }
            }
        }
    }
}

/// Run the SPMD closure over all processors of `world` on this pool.
/// Mirrors the threaded executor's per-processor harness (catch panics,
/// poison mailboxes, dump the flight recorder) and returns the same
/// per-rank outcomes for the shared report-assembly code in `run`.
pub(crate) fn execute<R, F>(
    pool: &Arc<Pool>,
    world: &Arc<World>,
    telemetry: &Option<Arc<Telemetry>>,
    start: Instant,
    f: &F,
) -> RawOutcomes<R>
where
    R: Send,
    F: Fn(&mut ProcCtx) -> R + Send + Sync,
{
    let nprocs = world.nprocs;
    let workers = pool.queues.len();
    let stack_bytes = stack_bytes_from_env();
    type Slot<R> = Mutex<Option<Result<ProcOutcome<R>, Box<dyn Any + Send>>>>;
    // Outcome slots are declared before the coroutines: coroutines borrow
    // them, and drop order (reverse declaration) tears the borrowers down
    // first — the guarantee `Coro::new_scoped` requires.
    let slots: Vec<Slot<R>> = (0..nprocs).map(|_| Mutex::new(None)).collect();
    let coros: Vec<Mutex<Option<Coro>>> = (0..nprocs)
        .map(|rank| {
            let world = Arc::clone(world);
            let telemetry = telemetry.clone();
            let pool = Arc::clone(pool);
            let slot = &slots[rank];
            let entry = Box::new(move |y: &Yielder| {
                let exec = ExecCtx::Pooled { pool: Arc::clone(&pool), proc: rank, yielder: *y };
                let mut cx = ProcCtx::new_with_exec(rank, Arc::clone(&world), start, exec);
                let r = catch_unwind(AssertUnwindSafe(|| f(&mut cx)));
                let out = match r {
                    Ok(value) => Ok(cx.into_outcome(value)),
                    Err(payload) => {
                        // Unblock everyone else before reporting.
                        for mb in &world.mailboxes {
                            mb.poison();
                        }
                        if let Some(t) = &telemetry {
                            let secondary = payload
                                .downcast_ref::<String>()
                                .is_some_and(|s| s.contains("another processor panicked"));
                            if !secondary {
                                eprintln!(
                                    "[fx-telemetry] processor {rank} panicked; flight recorder:\n{}",
                                    flight_text(t, rank)
                                );
                            }
                        }
                        Err(payload)
                    }
                };
                *slot.lock() = Some(out);
            });
            Mutex::new(Some(unsafe { Coro::new_scoped(stack_bytes, entry) }))
        })
        .collect();
    // Seed the run queues round-robin before any worker starts.
    for rank in 0..nprocs {
        pool.queues[rank % workers].lock().push_back(rank);
    }
    std::thread::scope(|scope| {
        for w in 0..workers {
            let pool = Arc::clone(pool);
            let coros = &coros;
            scope.spawn(move || {
                // If a worker dies on a scheduler invariant, release the
                // others so the scope can join and propagate the panic
                // instead of hanging.
                struct ShutdownOnPanic<'p>(&'p Pool);
                impl Drop for ShutdownOnPanic<'_> {
                    fn drop(&mut self) {
                        if std::thread::panicking() {
                            self.0.begin_shutdown();
                        }
                    }
                }
                let _guard = ShutdownOnPanic(&pool);
                worker_loop(&pool, coros, w);
            });
        }
        let pool = Arc::clone(pool);
        scope.spawn(move || pool.watchdog_loop());
    });
    slots.into_iter().map(|m| m.into_inner()).collect()
}
