//! Scheduler-level tests: service-mode parking and shutdown with real
//! threads, the injector's claim numbering, and single-thread checks of
//! the park protocol (no sleeps, no second thread).

use super::*;
use std::sync::atomic::{AtomicUsize, Ordering as O};

/// Service mode: with nothing queued, every worker's claim comes up empty,
/// they park, and `shutdown()` must wake them all into `Step::Shutdown` —
/// no worker may sleep through it.
#[test]
fn shutdown_wakes_parked_service_workers() {
    let sched: Scheduler<u32> = Scheduler::new(8);
    let exited = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let sched = &sched;
            let exited = &exited;
            scope.spawn(move || loop {
                match sched.next_step() {
                    Step::Task { .. } => panic!("no work was ever published"),
                    Step::Idle(token) => sched.park(token),
                    Step::Shutdown => {
                        exited.fetch_add(1, O::SeqCst);
                        return;
                    }
                }
            });
        }
        // Let workers reach the park before pulling the plug.
        std::thread::sleep(std::time::Duration::from_millis(30));
        sched.shutdown();
    });
    assert_eq!(exited.load(O::SeqCst), 8);
    assert!(sched.stats().empty_scans >= 8, "each worker found the queue empty at least once");
}

/// Work published between a failed claim and the park must not be lost:
/// the IdleToken generation check turns the park into a no-op.
#[test]
fn service_mode_processes_injected_work_then_drains_on_shutdown() {
    let sched: Scheduler<u64> = Scheduler::new(4);
    let sum = std::sync::atomic::AtomicU64::new(0);
    let seen = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let sched = &sched;
            let sum = &sum;
            let seen = &seen;
            scope.spawn(move || loop {
                match sched.next_step() {
                    Step::Task { item, .. } => {
                        sum.fetch_add(item, O::SeqCst);
                        seen.fetch_add(1, O::SeqCst);
                    }
                    Step::Idle(token) => sched.park(token),
                    Step::Shutdown => return,
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
fn injector_claims_count_the_claims_since_each_push() {
    let sched: Scheduler<u64> = Scheduler::new(1);
    for i in 0..3 {
        sched.inject(i);
    }
    // Pushed together: the k-th claim had k claims ahead of it.
    for k in 0..3 {
        assert!(matches!(
            sched.next_step(),
            Step::Task { item, claims_ahead } if item == k && claims_ahead == k
        ));
    }
    // Pushed after those claims: nothing ahead.
    sched.inject(3);
    assert!(matches!(sched.next_step(), Step::Task { item: 3, claims_ahead: 0 }));
    let stats = sched.stats();
    assert_eq!(stats.injected, 4);
    assert_eq!(stats.injector_claims, 4, "every injected item claimed once");
}

/// Each way to publish after an empty claim — new work, `wake_all`,
/// `shutdown` — bumps the generation past the token's, so parking on that
/// token returns at once. A lost wakeup would hang this single thread.
#[test]
fn park_on_a_token_older_than_a_publish_returns_at_once() {
    let publishes: [fn(&Scheduler<u32>); 3] = [|s| s.inject(7), |s| s.wake_all(), |s| s.shutdown()];
    for (case, publish) in publishes.into_iter().enumerate() {
        let sched = Scheduler::new(1);
        let Step::Idle(token) = sched.next_step() else {
            panic!("case {case}: nothing was queued yet");
        };
        publish(&sched);
        sched.park(token);
        assert_eq!(sched.stats().parks, 1, "case {case}");
        match (case, sched.next_step()) {
            (0, Step::Task { item: 7, claims_ahead: 0 })
            | (1, Step::Idle(_))
            | (2, Step::Shutdown) => {}
            (_, step) => panic!("case {case}: unexpected {step:?}"),
        }
    }
}

/// After a wakeup, a fresh claim with nothing published is `Idle` again,
/// and its token holds the current generation: a park on it would sleep
/// until the next publish, not spin.
#[test]
fn a_fresh_token_with_nothing_published_is_idle_again() {
    let sched: Scheduler<u32> = Scheduler::new(1);
    let Step::Idle(stale) = sched.next_step() else { panic!("nothing was queued") };
    sched.wake_all();
    sched.park(stale);
    let Step::Idle(fresh) = sched.next_step() else { panic!("wake_all publishes no work") };
    assert_ne!(fresh.generation, stale.generation);
    assert_eq!(fresh.generation, sched.generation.load(O::SeqCst));
    let stats = sched.stats();
    assert_eq!((stats.empty_scans, stats.parks, stats.injector_claims), (2, 1, 0));
}
