//! `hyppo-sched` — the FIFO run queue behind HYPPO's multi-tenant serving
//! actors (`hyppo-serve`).
//!
//! # Shape
//!
//! Work items of type `T` flow through one global FIFO injector (a
//! `Mutex<VecDeque>`): any thread [`inject`](Scheduler::inject)s at the
//! back, and workers claim the oldest item from the front. Pushes and
//! claims are numbered under the injector lock, so every claim reports
//! exactly how many claims fell between the item's push and its own
//! ([`Step::Task`]'s `claims_ahead`) — its queue position, whatever the OS
//! scheduler did to the threads in between.
//!
//! A worker that finds the queue empty may park on a condvar, guarded by a
//! generation counter so a wakeup can never be lost between the failed
//! claim and the sleep.
//!
//! # Service mode
//!
//! Pools are long-lived (the serving actors' is), so an empty moment does
//! not mean "done". [`Scheduler::next_step`] claims one item or returns
//! [`Step::Idle`] with a generation token; the caller may do idle work
//! (flush durability, check drain conditions) and then
//! [`park`](Scheduler::park) on the token, waking on new work or
//! [`Scheduler::shutdown`].
//!
//! ```
//! use hyppo_sched::{Scheduler, Step};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! // Count down from 10: each task re-injects its predecessor, so the
//! // countdown moves between the workers through the FIFO. The task that
//! // reaches 1 shuts the pool down.
//! let sched: Arc<Scheduler<u64>> = Arc::new(Scheduler::new(2));
//! let sum = Arc::new(AtomicU64::new(0));
//! let total = Arc::clone(&sum);
//! let pool = sched.spawn_pool("countdown", move |sched| loop {
//!     match sched.next_step() {
//!         Step::Task { item: n, .. } => {
//!             total.fetch_add(n, Ordering::SeqCst);
//!             if n > 1 {
//!                 sched.inject(n - 1);
//!             } else {
//!                 sched.shutdown();
//!             }
//!         }
//!         Step::Idle(token) => sched.park(token),
//!         Step::Shutdown => return,
//!     }
//! });
//! sched.inject(10);
//! for worker in pool {
//!     worker.join().unwrap();
//! }
//! assert_eq!(sum.load(Ordering::SeqCst), 55);
//! ```
//!
//! # Determinism
//!
//! The scheduler promises FIFO claim order and nothing about which worker
//! claims an item or when; consumers that need deterministic *results*
//! must be correct under arbitrary interleavings. Serve is: it keys every
//! tenant turn off a per-tenant epoch — see DESIGN.md §16 for the full
//! argument.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Panic message for a poisoned scheduler lock. Only `VecDeque` operations,
/// counter arithmetic and condvar waits run under these locks, so a
/// poisoned one means a bug in this crate.
const POISONED: &str = "scheduler lock poisoned";

/// What [`Scheduler::next_step`] observed (service mode).
#[derive(Debug)]
pub enum Step<T> {
    /// The oldest queued item, now claimed by the caller.
    Task {
        /// The claimed work item.
        item: T,
        /// How many claims, by any worker, fell between this item's push
        /// and its own claim: its position in the FIFO when it was pushed,
        /// counted under the injector lock, so thread preemption between a
        /// claim and whatever the claimer does next cannot skew it.
        claims_ahead: u64,
    },
    /// The queue was empty. The token parks the worker race-free via
    /// [`Scheduler::park`].
    Idle(IdleToken),
    /// [`Scheduler::shutdown`] was called; the worker should exit.
    Shutdown,
}

/// Proof of an empty claim, capturing the scheduler generation observed
/// *before* the claim. [`Scheduler::park`] sleeps only while the
/// generation is unchanged, so work published between the claim and the
/// sleep — which bumps the generation — makes the park return immediately
/// instead of losing the wakeup.
#[derive(Debug, Clone, Copy)]
pub struct IdleToken {
    generation: u64,
}

/// Monotonic counters describing scheduler traffic, snapshot via
/// [`Scheduler::stats`]. All values are lifetime totals across workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedStats {
    /// Items entered via [`Scheduler::inject`].
    pub injected: u64,
    /// Items claimed from the injector.
    pub injector_claims: u64,
    /// Always 0: with one queue there is nothing to steal. Kept because
    /// perfbench reports it as `sched.steals_per_op`.
    pub steals: u64,
    /// Claims that found the queue empty ([`Step::Idle`]).
    pub empty_scans: u64,
    /// Times a worker parked on the condvar.
    pub parks: u64,
}

#[derive(Default)]
struct Counters {
    injected: AtomicU64,
    injector_claims: AtomicU64,
    empty_scans: AtomicU64,
    parks: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        // hyppo-lint: allow(relaxed-ordering-justified) monotonic stats counter; readers only need an eventual total
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn read(counter: &AtomicU64) -> u64 {
        // hyppo-lint: allow(relaxed-ordering-justified) advisory stats snapshot; no synchronization decisions hang off it
        counter.load(Ordering::Relaxed)
    }
}

/// FIFO run queue with lost-wakeup-free parking, run in service mode (see
/// crate docs). `Scheduler<T>` is `Sync` for `T: Send`; share it by
/// reference (scoped threads) or `Arc` ([`spawn_pool`](Self::spawn_pool)).
pub struct Scheduler<T> {
    /// Threads [`spawn_pool`](Self::spawn_pool) starts.
    workers: usize,
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
            .field("workers", &self.workers)
            .field("shutdown", &self.is_shutdown())
            .finish()
    }
}

impl<T> Scheduler<T> {
    /// Scheduler for a pool of `workers` threads (minimum 1).
    pub fn new(workers: usize) -> Self {
        Scheduler {
            workers: workers.max(1),
            injector: Mutex::new(Injector { queue: VecDeque::new(), claims: 0 }),
            shutdown: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            stats: Counters::default(),
        }
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            injected: Counters::read(&self.stats.injected),
            injector_claims: Counters::read(&self.stats.injector_claims),
            steals: 0,
            empty_scans: Counters::read(&self.stats.empty_scans),
            parks: Counters::read(&self.stats.parks),
        }
    }

    /// Push one item onto the back of the queue and wake a parked worker.
    pub fn inject(&self, item: T) {
        self.injector.lock().expect(POISONED).push(item);
        Counters::bump(&self.stats.injected);
        self.signal();
    }

    /// Tell every worker to exit: parked workers wake into
    /// [`Step::Shutdown`], and no further items are
    /// claimed (items still queued are dropped with the scheduler).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.signal();
    }

    /// Wake every parked worker for a fresh claim without publishing work —
    /// for consumers whose idle-exit condition lives outside the scheduler
    /// (e.g. serve's "shutdown requested and no turn in flight").
    pub fn wake_all(&self) {
        self.signal();
    }

    /// Claim the oldest item, or report [`Step::Idle`] when the queue is
    /// empty (the caller decides whether to [`park`](Self::park) or do idle
    /// work), or [`Step::Shutdown`]. Never blocks beyond the injector lock.
    pub fn next_step(&self) -> Step<T> {
        let g0 = self.generation.load(Ordering::SeqCst);
        if self.is_shutdown() {
            return Step::Shutdown;
        }
        let claimed = self.injector.lock().expect(POISONED).claim();
        match claimed {
            Some((item, claims_ahead)) => {
                Counters::bump(&self.stats.injector_claims);
                Step::Task { item, claims_ahead }
            }
            None => {
                Counters::bump(&self.stats.empty_scans);
                Step::Idle(IdleToken { generation: g0 })
            }
        }
    }

    /// Sleep until work is published, [`wake_all`](Self::wake_all) is
    /// called or the scheduler shuts down. The token must come from the
    /// [`Step::Idle`] whose claim failed: it holds the generation read
    /// *before* that claim, and any publish since bumped the generation, so
    /// the wait predicate is already false and the park returns at once.
    pub fn park(&self, token: IdleToken) {
        Counters::bump(&self.stats.parks);
        let mut guard = self.sleep.lock().expect(POISONED);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == token.generation && !self.is_shutdown() {
            guard = self.wake.wait(guard).expect(POISONED);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn signal(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Take the sleep lock so the notify cannot slip into the gap
            // between a sleeper's generation re-check and its wait.
            let _guard = self.sleep.lock().expect(POISONED);
            self.wake.notify_all();
        }
    }
}

impl<T: Send + 'static> Scheduler<T> {
    /// Spawn one **owned, named OS thread** per worker, each running
    /// `worker_fn` on this scheduler (expected to loop on
    /// [`next_step`](Self::next_step) until [`Step::Shutdown`]) — for
    /// long-lived pools that outlive the caller's stack frame (serve's actor
    /// workers). Threads are named `{name}-{index}`. This is the one place
    /// in the workspace allowed to create detached service threads; the
    /// `thread-spawn-outside-sched` lint rule enforces it.
    pub fn spawn_pool<F>(
        self: &Arc<Self>,
        name: &str,
        worker_fn: F,
    ) -> Vec<std::thread::JoinHandle<()>>
    where
        F: Fn(&Scheduler<T>) + Send + Sync + 'static,
    {
        let worker_fn = Arc::new(worker_fn);
        (0..self.workers)
            .map(|i| {
                let sched = Arc::clone(self);
                let f = Arc::clone(&worker_fn);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || f(&sched))
                    .expect("failed to spawn scheduler worker thread")
            })
            .collect()
    }
}

/// The FIFO. Each queued item carries the claim count at its push; both
/// numbers change only under the injector lock.
struct Injector<T> {
    queue: VecDeque<(T, u64)>,
    /// Items claimed so far.
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

#[cfg(test)]
mod tests;
