//! `hyppo-sched` — the work-stealing scheduler behind HYPPO's multi-tenant
//! serving actors (`hyppo-serve`).
//!
//! # Shape
//!
//! Work items of type `T` flow through two tiers:
//!
//! * **Per-worker queues** (one `Mutex<VecDeque<T>>` per worker): the
//!   owner pushes and pops at the back — LIFO, cache-hot, an uncontended
//!   lock in the common case — while idle workers *steal* the oldest item
//!   from the front under the victim's lock. Queues are unbounded, so a
//!   spawn never overflows.
//! * **A global injector** (`Mutex<VecDeque>`): external threads
//!   [`inject`](Scheduler::inject) here. Pushes and claims are numbered
//!   under its lock, so a claimer learns exactly how many injector claims
//!   fell between an item's push and its own
//!   ([`Worker::claims_ahead`]) — its queue position, whatever the OS
//!   scheduler did to the threads in between.
//!
//! An idle worker scans in order: own queue → injector → steal from each
//! sibling round-robin, holding at most one queue lock at a time. Only
//! when a full scan comes up empty does it park on a condvar, guarded by a
//! generation counter so a wakeup can never be lost between the failed
//! scan and the sleep.
//!
//! # Service mode
//!
//! Pools are long-lived (the serving actors' is), so an empty moment does
//! not mean "done". [`Worker::next_step`] claims one item or returns
//! [`Step::Idle`] with a generation token; the caller may do idle work
//! (flush durability, check drain conditions) and then
//! [`park`](Worker::park) on the token, waking on new work or
//! [`Scheduler::shutdown`].
//!
//! ```
//! use hyppo_sched::{Scheduler, Step};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! // Count down from 10: each task spawns its predecessor, so work
//! // migrates across workers through queue pushes and steals. The driver
//! // waits for all ten tasks; returning from it shuts the pool down.
//! let sched: Scheduler<u64> = Scheduler::new(2);
//! let (sum, done) = (AtomicU64::new(0), AtomicU64::new(0));
//! sched.run_with_driver(
//!     || {
//!         sched.inject(10);
//!         while done.load(Ordering::SeqCst) < 10 {
//!             std::thread::yield_now();
//!         }
//!     },
//!     |mut worker| loop {
//!         match worker.next_step() {
//!             Step::Task(n) => {
//!                 if n > 1 {
//!                     worker.spawn(n - 1);
//!                 }
//!                 sum.fetch_add(n, Ordering::SeqCst);
//!                 done.fetch_add(1, Ordering::SeqCst);
//!             }
//!             Step::Idle(token) => worker.park(token),
//!             Step::Shutdown => return,
//!         }
//!     },
//! );
//! assert_eq!(sum.load(Ordering::SeqCst), 55);
//! ```
//!
//! # Determinism
//!
//! The scheduler makes **no ordering promises** beyond per-queue LIFO and
//! injector FIFO; consumers that need deterministic *results* must be
//! correct under arbitrary interleavings. Serve is: it keys every tenant
//! turn off a per-tenant epoch — see DESIGN.md §16 for the full argument.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Panic message for a poisoned queue lock. Only `VecDeque` operations run
/// under these locks, so a poisoned one means a bug in this crate.
const QUEUE_POISONED: &str = "scheduler queue lock poisoned";

/// What [`Worker::next_step`] observed (service mode).
#[derive(Debug)]
pub enum Step<T> {
    /// A claimed work item; it is retired at the worker's next call.
    Task(T),
    /// A full scan (own queue, injector, every sibling) found nothing.
    /// The token parks the worker race-free via [`Worker::park`].
    Idle(IdleToken),
    /// [`Scheduler::shutdown`] was called; the worker should exit.
    Shutdown,
}

/// Proof of an empty scan, capturing the scheduler generation observed
/// *before* the scan. [`Worker::park`] sleeps only while the generation is
/// unchanged, so work published between the scan and the sleep — which
/// bumps the generation — makes the park return immediately instead of
/// losing the wakeup.
#[derive(Debug, Clone, Copy)]
pub struct IdleToken {
    generation: u64,
}

/// Monotonic counters describing scheduler traffic, snapshot via
/// [`Scheduler::stats`]. All values are lifetime totals across workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStats {
    /// Items entered via [`Worker::spawn`].
    pub spawned: u64,
    /// Items entered via [`Scheduler::inject`].
    pub injected: u64,
    /// Items retired (claimed and then completed by a worker).
    pub completed: u64,
    /// Items claimed from a worker's own queue (the hot path).
    pub local_pops: u64,
    /// Items claimed from the global injector.
    pub injector_claims: u64,
    /// Items obtained by stealing from a sibling's queue.
    pub steals: u64,
    /// Full scans (own queue + injector + all siblings) that found nothing.
    pub empty_scans: u64,
    /// Times a worker parked on the condvar.
    pub parks: u64,
}

#[derive(Default)]
struct Counters {
    spawned: AtomicU64,
    injected: AtomicU64,
    completed: AtomicU64,
    local_pops: AtomicU64,
    injector_claims: AtomicU64,
    steals: AtomicU64,
    empty_scans: AtomicU64,
    parks: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64, n: u64) {
        // hyppo-lint: allow(relaxed-ordering-justified) monotonic stats counter; readers only need an eventual total
        counter.fetch_add(n, Ordering::Relaxed);
    }

    fn read(counter: &AtomicU64) -> u64 {
        // hyppo-lint: allow(relaxed-ordering-justified) advisory stats snapshot; no synchronization decisions hang off it
        counter.load(Ordering::Relaxed)
    }
}

/// Work-stealing scheduler: per-worker locked queues plus a global
/// injector, run in service mode (see crate docs). `Scheduler<T>` is
/// `Sync` for `T: Send`; share it by reference
/// ([`run_with_driver`](Self::run_with_driver)) or `Arc`
/// ([`spawn_pool`](Self::spawn_pool)).
pub struct Scheduler<T> {
    /// One queue per worker: the owner works the back, thieves the front.
    queues: Vec<Mutex<VecDeque<T>>>,
    /// One flag per worker slot: a [`Worker`] handle is exclusive.
    handles: Vec<AtomicBool>,
    injector: Mutex<Injector<T>>,
    shutdown: AtomicBool,
    /// Bumped (SeqCst) on every publish and shutdown; parking
    /// re-checks it under the sleep lock so wakeups cannot be lost.
    generation: AtomicU64,
    sleepers: AtomicUsize,
    sleep: Mutex<()>,
    wake: Condvar,
    stats: Counters,
}

impl<T> std::fmt::Debug for Scheduler<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.queues.len())
            .field("shutdown", &self.is_shutdown())
            .finish()
    }
}

impl<T> Scheduler<T> {
    /// Scheduler with `workers` worker slots (minimum 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Scheduler {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            handles: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            injector: Mutex::new(Injector { queue: VecDeque::new(), claims: 0 }),
            shutdown: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            stats: Counters::default(),
        }
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Whether [`shutdown`](Self::shutdown) has been called.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            spawned: Counters::read(&self.stats.spawned),
            injected: Counters::read(&self.stats.injected),
            completed: Counters::read(&self.stats.completed),
            local_pops: Counters::read(&self.stats.local_pops),
            injector_claims: Counters::read(&self.stats.injector_claims),
            steals: Counters::read(&self.stats.steals),
            empty_scans: Counters::read(&self.stats.empty_scans),
            parks: Counters::read(&self.stats.parks),
        }
    }

    /// Push one item through the global injector (the cold path, for
    /// threads without a [`Worker`] handle) and wake a parked worker.
    pub fn inject(&self, item: T) {
        self.injector.lock().unwrap().push(item);
        Counters::bump(&self.stats.injected, 1);
        self.signal();
    }

    /// Tell every worker to exit: parked workers wake into
    /// [`Step::Shutdown`], and no further items are
    /// claimed (items still queued are dropped with the scheduler).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.signal();
    }

    /// Wake every parked worker for a fresh scan without publishing work —
    /// for consumers whose idle-exit condition lives outside the scheduler
    /// (e.g. serve's "shutdown requested and no turn in flight").
    pub fn wake_all(&self) {
        self.signal();
    }

    /// Claim worker slot `index` (0-based). Panics if out of range or if
    /// the slot already has a live [`Worker`] — a slot's queue has exactly
    /// one owner at a time. The handle is released on drop.
    pub fn worker(&self, index: usize) -> Worker<'_, T> {
        assert!(index < self.queues.len(), "worker index {index} out of range");
        assert!(
            !self.handles[index].swap(true, Ordering::SeqCst),
            "worker slot {index} is already claimed"
        );
        Worker { sched: self, index, in_flight: false, claims_ahead: None, _not_sync: PhantomData }
    }

    /// Run worker threads in **service mode** with a driver on the calling
    /// thread: spawns one scoped thread per slot running `worker_fn`
    /// (expected to loop on [`Worker::next_step`] until [`Step::Shutdown`]),
    /// runs `driver`, then calls [`shutdown`](Self::shutdown) — also on
    /// unwind, so a panicking driver cannot deadlock the join — and waits
    /// for the workers.
    pub fn run_with_driver<D, R, F>(&self, driver: D, worker_fn: F) -> R
    where
        T: Send,
        D: FnOnce() -> R,
        F: for<'w> Fn(Worker<'w, T>) + Sync,
    {
        std::thread::scope(|scope| {
            for i in 0..self.queues.len() {
                let f = &worker_fn;
                scope.spawn(move || f(self.worker(i)));
            }
            let _stop = ShutdownOnDrop(self);
            driver()
        })
    }

    fn signal(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Take the sleep lock so the notify cannot slip into the gap
            // between a sleeper's generation re-check and its wait.
            let _guard = self.sleep.lock().unwrap();
            self.wake.notify_all();
        }
    }

    /// Owner side: push `item` onto the back of worker `index`'s queue.
    fn push(&self, index: usize, item: T) {
        self.queues[index].lock().expect(QUEUE_POISONED).push_back(item);
    }

    /// Owner side: pop the newest item from the back of worker `index`'s
    /// queue.
    fn pop(&self, index: usize) -> Option<T> {
        self.queues[index].lock().expect(QUEUE_POISONED).pop_back()
    }

    /// Thief side: take the oldest item from the front of `victim`'s
    /// queue. Only the victim's lock is taken.
    fn steal(&self, victim: usize) -> Option<T> {
        self.queues[victim].lock().expect(QUEUE_POISONED).pop_front()
    }

    /// Sleep until the generation moves past `g0` or shutdown. `g0` must
    /// have been read *before* the scan that came up empty: any publish
    /// after that read bumps the generation, so the wait predicate is
    /// already false and we return without sleeping.
    fn park_until(&self, g0: u64) {
        Counters::bump(&self.stats.parks, 1);
        let mut guard = self.sleep.lock().unwrap();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == g0 && !self.shutdown.load(Ordering::SeqCst)
        {
            guard = self.wake.wait(guard).unwrap();
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<T: Send + 'static> Scheduler<T> {
    /// Spawn one **owned, named OS thread** per worker slot — for
    /// long-lived pools that outlive the caller's stack frame (serve's
    /// actor workers). Threads are named `{name}-{index}`. This is the one
    /// place in the workspace allowed to create detached service threads;
    /// everything else goes through the scoped
    /// [`run_with_driver`](Self::run_with_driver) (enforced by the
    /// `thread-spawn-outside-sched` lint rule).
    pub fn spawn_pool<F>(
        self: &Arc<Self>,
        name: &str,
        worker_fn: F,
    ) -> Vec<std::thread::JoinHandle<()>>
    where
        F: for<'w> Fn(Worker<'w, T>) + Send + Sync + 'static,
    {
        let worker_fn = Arc::new(worker_fn);
        (0..self.queues.len())
            .map(|i| {
                let sched = Arc::clone(self);
                let f = Arc::clone(&worker_fn);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || f(sched.worker(i)))
                    .expect("failed to spawn scheduler worker thread")
            })
            .collect()
    }
}

/// The global FIFO. Each queued item carries the claim count at its push;
/// both numbers change only under the injector lock.
struct Injector<T> {
    queue: VecDeque<(T, u64)>,
    /// Items claimed from the injector so far.
    claims: u64,
}

impl<T> Injector<T> {
    fn push(&mut self, item: T) {
        self.queue.push_back((item, self.claims));
    }

    /// Claim the oldest item with the number of claims made since its push.
    fn claim(&mut self) -> Option<(T, u64)> {
        let (item, claims_at_push) = self.queue.pop_front()?;
        let ahead = self.claims - claims_at_push;
        self.claims += 1;
        Some((item, ahead))
    }
}

/// Calls [`Scheduler::shutdown`] on drop (normal return *and* unwind).
struct ShutdownOnDrop<'s, T>(&'s Scheduler<T>);

impl<T> Drop for ShutdownOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Exclusive handle to one worker slot: the only owner of that slot's
/// queue. Obtained from [`Scheduler::worker`] (or the pool runners) and
/// released on drop. Deliberately `!Send`/`!Sync`, so a slot's claims are
/// made and retired on the one thread that holds the handle.
pub struct Worker<'s, T> {
    sched: &'s Scheduler<T>,
    index: usize,
    /// Whether the last [`next_step`](Self::next_step) claimed an item,
    /// which is retired at the next call.
    in_flight: bool,
    /// [`claims_ahead`](Self::claims_ahead) of the current claim.
    claims_ahead: Option<u64>,
    _not_sync: PhantomData<*const ()>,
}

impl<T> std::fmt::Debug for Worker<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("index", &self.index)
            .field("in_flight", &self.in_flight)
            .finish()
    }
}

impl<T> Worker<'_, T> {
    /// This worker's slot index (0-based).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The scheduler this worker belongs to.
    pub fn scheduler(&self) -> &Scheduler<T> {
        self.sched
    }

    /// Publish a new item onto the back of this worker's own queue.
    pub fn spawn(&mut self, item: T) {
        Counters::bump(&self.sched.stats.spawned, 1);
        self.sched.push(self.index, item);
        self.sched.signal();
    }

    /// Claim one item, or report [`Step::Idle`] after a full empty scan
    /// (the caller decides whether to [`park`](Self::park) or do idle
    /// work), or [`Step::Shutdown`]. Never blocks. Retires the previous
    /// claim first.
    pub fn next_step(&mut self) -> Step<T> {
        self.retire();
        let g0 = self.sched.generation.load(Ordering::SeqCst);
        if self.sched.shutdown.load(Ordering::SeqCst) {
            return Step::Shutdown;
        }
        match self.try_claim() {
            Some((t, ahead)) => {
                self.in_flight = true;
                self.claims_ahead = ahead;
                Step::Task(t)
            }
            None => Step::Idle(IdleToken { generation: g0 }),
        }
    }

    /// For the item the last [`next_step`](Self::next_step) claimed from
    /// the injector: how many injector claims, by any worker, fell between
    /// its push and its own claim. That is its position in the FIFO when it
    /// was pushed, counted under the injector lock, so thread preemption
    /// between a claim and whatever the claimer does next cannot skew it.
    /// `None` for an item taken from a worker queue.
    pub fn claims_ahead(&self) -> Option<u64> {
        self.claims_ahead
    }

    /// Sleep until work is published or the scheduler shuts down. The
    /// token must come from the [`Step::Idle`] whose scan failed; work
    /// published since then returns immediately (see [`IdleToken`]).
    pub fn park(&mut self, token: IdleToken) {
        self.sched.park_until(token.generation);
    }

    /// One scan: own queue first, then the injector, then steal from each
    /// sibling round-robin. Injector claims come with their claims ahead.
    fn try_claim(&self) -> Option<(T, Option<u64>)> {
        let sched = self.sched;
        if let Some(t) = sched.pop(self.index) {
            Counters::bump(&sched.stats.local_pops, 1);
            return Some((t, None));
        }
        let injected = sched.injector.lock().unwrap().claim();
        if let Some((t, ahead)) = injected {
            Counters::bump(&sched.stats.injector_claims, 1);
            return Some((t, Some(ahead)));
        }
        let workers = sched.queues.len();
        for k in 1..workers {
            if let Some(t) = sched.steal((self.index + k) % workers) {
                Counters::bump(&sched.stats.steals, 1);
                return Some((t, None));
            }
        }
        Counters::bump(&sched.stats.empty_scans, 1);
        None
    }

    /// Count the previous claim as completed.
    fn retire(&mut self) {
        if std::mem::take(&mut self.in_flight) {
            Counters::bump(&self.sched.stats.completed, 1);
        }
    }
}

impl<T> Drop for Worker<'_, T> {
    fn drop(&mut self) {
        // Count the last claim even on a panicking worker, then release
        // the slot.
        self.retire();
        self.sched.handles[self.index].store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests;
