//! Scheduler-level tests: service-mode parking and shutdown, the
//! per-worker queue discipline (owner LIFO, thief FIFO), an owner-vs-thief
//! race harness, and empty-steal and worker-slot regressions.

use super::*;
use std::sync::atomic::{AtomicUsize, Ordering as O};

/// Service mode: with nothing queued, every worker's scan comes up empty
/// (the empty-steal path), they park, and `shutdown()` must wake them all
/// into `Step::Shutdown` — no worker may sleep through it.
#[test]
fn shutdown_wakes_parked_service_workers() {
    let sched: Scheduler<u32> = Scheduler::new(8);
    let exited = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..8 {
            let sched = &sched;
            let exited = &exited;
            scope.spawn(move || {
                let mut w = sched.worker(i);
                loop {
                    match w.next_step() {
                        Step::Task(_) => panic!("no work was ever published"),
                        Step::Idle(token) => w.park(token),
                        Step::Shutdown => {
                            exited.fetch_add(1, O::SeqCst);
                            return;
                        }
                    }
                }
            });
        }
        // Let workers reach the park before pulling the plug.
        std::thread::sleep(std::time::Duration::from_millis(30));
        sched.shutdown();
    });
    assert_eq!(exited.load(O::SeqCst), 8);
    assert!(sched.stats().empty_scans >= 8, "each worker scanned empty at least once");
}

/// Work published between a failed scan and the park must not be lost:
/// the IdleToken generation check turns the park into a no-op.
#[test]
fn service_mode_processes_injected_work_then_drains_on_shutdown() {
    let sched: Scheduler<u64> = Scheduler::new(4);
    let sum = std::sync::atomic::AtomicU64::new(0);
    let seen = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for i in 0..4 {
            let sched = &sched;
            let sum = &sum;
            let seen = &seen;
            scope.spawn(move || {
                let mut w = sched.worker(i);
                loop {
                    match w.next_step() {
                        Step::Task(v) => {
                            sum.fetch_add(v, O::SeqCst);
                            seen.fetch_add(1, O::SeqCst);
                        }
                        Step::Idle(token) => w.park(token),
                        Step::Shutdown => return,
                    }
                }
            });
        }
        for v in 1..=100u64 {
            sched.inject(v);
        }
        while seen.load(O::SeqCst) < 100 {
            std::thread::yield_now();
        }
        sched.shutdown();
    });
    assert_eq!(sum.load(O::SeqCst), 5050);
}

#[test]
fn run_with_driver_shuts_down_even_when_driver_panics() {
    let sched: Scheduler<u32> = Scheduler::new(2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sched.run_with_driver(
            || panic!("driver died"),
            |mut w| loop {
                match w.next_step() {
                    Step::Task(_) => {}
                    Step::Idle(token) => w.park(token),
                    Step::Shutdown => return,
                }
            },
        )
    }));
    // The panic propagates, but only after the workers were woken and
    // joined — reaching this line at all is the regression being tested.
    assert!(result.is_err());
    assert!(sched.is_shutdown());
}

#[test]
#[should_panic(expected = "already claimed")]
fn worker_slot_is_exclusive() {
    let sched: Scheduler<u32> = Scheduler::new(2);
    let _first = sched.worker(0);
    let _second = sched.worker(0);
}

#[test]
fn dropping_a_worker_releases_its_slot() {
    let sched: Scheduler<u32> = Scheduler::new(1);
    drop(sched.worker(0));
    let _again = sched.worker(0);
}

#[test]
fn injector_claims_count_the_claims_since_each_push() {
    let sched: Scheduler<u64> = Scheduler::new(1);
    let mut w = sched.worker(0);
    for i in 0..3 {
        sched.inject(i);
    }
    // Pushed together: the k-th claim had k claims ahead of it.
    for k in 0..3 {
        assert!(matches!(w.next_step(), Step::Task(t) if t == k));
        assert_eq!(w.claims_ahead(), Some(k));
    }
    // Pushed after those claims: nothing ahead.
    sched.inject(3);
    assert!(matches!(w.next_step(), Step::Task(3)));
    assert_eq!(w.claims_ahead(), Some(0));
    // A worker-queue item has no injector position.
    w.spawn(4);
    assert!(matches!(w.next_step(), Step::Task(4)));
    assert_eq!(w.claims_ahead(), None);
    let stats = sched.stats();
    assert_eq!(stats.injected, 4);
    assert_eq!(stats.injector_claims, 4, "every injected item claimed once, from the injector");
}

#[test]
fn owner_pops_newest_first() {
    let sched: Scheduler<u32> = Scheduler::new(1);
    for i in 0..3 {
        sched.push(0, i);
    }
    assert_eq!(sched.pop(0), Some(2), "LIFO from the back");
    assert_eq!(sched.pop(0), Some(1));
    assert_eq!(sched.pop(0), Some(0));
    assert_eq!(sched.pop(0), None, "empty queue pops nothing");
}

#[test]
fn steal_takes_the_oldest_item_from_the_front() {
    let sched: Scheduler<u32> = Scheduler::new(2);
    for i in 0..4 {
        sched.push(0, i);
    }
    assert_eq!(sched.steal(0), Some(0), "oldest item, FIFO from the front");
    assert_eq!(sched.steal(0), Some(1));
    assert_eq!(sched.pop(0), Some(3), "owner still pops newest");
    assert_eq!(sched.steal(0), Some(2));
    assert_eq!(sched.steal(0), None, "drained victim yields nothing");
    assert_eq!(sched.steal(1), None, "empty victim yields nothing");
}

/// The interleaving that broke the old lock-free deque: the owner pushes
/// three items and pops its queue empty while a thief steals from it, in
/// barrier-aligned rounds so the two race every round. Every item must be
/// claimed exactly once — by the owner or by the thief.
#[test]
fn owner_and_thief_race_claims_every_item_exactly_once() {
    use std::sync::Barrier;
    const ROUNDS: u32 = 100_000;
    let sched: Scheduler<u32> = Scheduler::new(2);
    let (start, end) = (Barrier::new(2), Barrier::new(2));
    let (popped, stolen) = std::thread::scope(|scope| {
        let thief = scope.spawn(|| {
            let mut stolen = Vec::with_capacity(ROUNDS as usize);
            for _ in 0..ROUNDS {
                start.wait();
                let out: Vec<u32> = sched.steal(0).into_iter().collect();
                end.wait();
                stolen.push(out);
            }
            stolen
        });
        let mut popped = Vec::with_capacity(ROUNDS as usize);
        for round in 0..ROUNDS {
            for i in 0..3 {
                sched.push(0, round * 3 + i);
            }
            let mut out = Vec::new();
            start.wait();
            while let Some(item) = sched.pop(0) {
                out.push(item);
            }
            end.wait();
            popped.push(out);
        }
        (popped, thief.join().unwrap())
    });
    for (round, (owner, thief)) in popped.iter().zip(&stolen).enumerate() {
        let mut claimed: Vec<u32> = owner.iter().chain(thief).copied().collect();
        claimed.sort_unstable();
        let base = round as u32 * 3;
        assert_eq!(
            claimed,
            vec![base, base + 1, base + 2],
            "round {round}: owner {owner:?} thief {thief:?}"
        );
    }
}
