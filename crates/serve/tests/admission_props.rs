//! Bounded-admission property tests: seeded multi-thread stress in the
//! style of the `SharedPlanQueue` suites.
//!
//! The properties, checked across seeds and both admission policies:
//!
//! 1. **Conservation** — every submission attempt is accounted for exactly
//!    once: admitted + rejected == attempts, and every admitted ticket
//!    resolves (completed, failed, or cancelled). Nothing hangs, nothing
//!    is silently dropped.
//! 2. **Execute-once** — a submission is never executed twice and a
//!    cancellation that wins is never executed at all. The backend's
//!    commit epoch is the witness: epochs advance by exactly one per
//!    executed submission, so `final epoch == dataset commits + executed`.
//! 3. **Per-tenant FIFO** — a tenant's executed submissions commit in
//!    admission order (their commit epochs are strictly increasing).
//! 4. **Bounded queues** — the global queue depth never exceeds
//!    tenants × mailbox capacity.

use hyppo_core::executor::ExecMode;
use hyppo_core::HyppoConfig;
use hyppo_serve::{AdmissionPolicy, ServeConfig, ServeError, ServeRuntime, SharedHyppo};
use hyppo_tensor::SeededRng;
use hyppo_workloads::ensemble_wl::wide_ensemble_spec;
use hyppo_workloads::taxi;

/// Per-tenant outcome of one stress round: admitted count, rejected
/// count, and every admitted submission's (cancel-attempted, handle).
type TenantOutcome = (u64, u64, Vec<(bool, hyppo_serve::SubmissionHandle)>);

const TENANTS: usize = 4;
const ATTEMPTS_PER_TENANT: usize = 24;
const CAPACITY: usize = 4;

struct RoundOutcome {
    attempts: u64,
    admitted: u64,
    rejected: u64,
    executed: u64,
    cancel_won: u64,
}

/// One seeded stress round: TENANTS submitter threads spam their own
/// tenants, randomly racing `cancel` against the workers.
fn stress_round(seed: u64, policy: AdmissionPolicy) -> RoundOutcome {
    let runtime = ServeRuntime::new(
        SharedHyppo::new(HyppoConfig {
            budget_bytes: 32 * 1024,
            mode: ExecMode::Simulated,
            ..Default::default()
        }),
        ServeConfig {
            workers: 3,
            mailbox_capacity: CAPACITY,
            admission: policy,
            ..ServeConfig::default()
        },
    );
    let seed_client = runtime.client();
    seed_client.register_dataset("taxi", taxi::generate(120, 5));

    let per_tenant: Vec<TenantOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|t| {
                let client = runtime.client();
                let mut rng = SeededRng::new(seed * 1000 + t as u64);
                scope.spawn(move || {
                    let mut admitted = 0u64;
                    let mut rejected = 0u64;
                    let mut tickets = Vec::new();
                    for i in 0..ATTEMPTS_PER_TENANT {
                        let spec = wide_ensemble_spec("taxi", 2 + i % 3, (seed + i as u64) % 11);
                        match client.submit(spec) {
                            Ok(handle) => {
                                admitted += 1;
                                // Race a cancellation against the worker
                                // roughly a third of the time.
                                let cancelled = rng.chance(0.33) && handle.cancel();
                                tickets.push((cancelled, handle));
                            }
                            Err(ServeError::Busy) => rejected += 1,
                            Err(e) => panic!("unexpected admission error: {e}"),
                        }
                    }
                    (admitted, rejected, tickets)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submitter panicked")).collect()
    });

    let mut outcome = RoundOutcome {
        attempts: (TENANTS * ATTEMPTS_PER_TENANT) as u64,
        admitted: 0,
        rejected: 0,
        executed: 0,
        cancel_won: 0,
    };
    for (admitted, rejected, tickets) in per_tenant {
        outcome.admitted += admitted;
        outcome.rejected += rejected;
        let mut last_commit = 0u64;
        for (cancel_won, handle) in tickets {
            match handle.wait_completed() {
                Ok(completed) => {
                    assert!(
                        !cancel_won,
                        "seed {seed}: a won cancellation still executed (double resolution)"
                    );
                    outcome.executed += 1;
                    // Per-tenant FIFO: commits in admission order.
                    assert!(
                        completed.run.epochs.commit > last_commit,
                        "seed {seed}: tenant commits out of order"
                    );
                    last_commit = completed.run.epochs.commit;
                }
                Err(ServeError::Cancelled) => {
                    assert!(cancel_won, "seed {seed}: spurious cancellation");
                    outcome.cancel_won += 1;
                }
                Err(e) => panic!("seed {seed}: unexpected submission outcome: {e}"),
            }
        }
    }

    // Shut down first: the drain guarantees every cancelled ticket has
    // been dequeued (the cancelled gauge counts at dequeue time).
    let backend = runtime.shutdown().unwrap();

    // Conservation, against both our own counts and the runtime's gauges.
    let metrics = seed_client.metrics();
    assert_eq!(outcome.admitted + outcome.rejected, outcome.attempts, "seed {seed}");
    assert_eq!(outcome.executed + outcome.cancel_won, outcome.admitted, "seed {seed}");
    assert_eq!(metrics.submitted, outcome.admitted, "seed {seed}");
    assert_eq!(metrics.rejected, outcome.rejected, "seed {seed}");
    assert_eq!(metrics.completed, outcome.executed, "seed {seed}");
    assert_eq!(metrics.cancelled, outcome.cancel_won, "seed {seed}");
    assert_eq!(metrics.queue_depth, 0, "seed {seed}: everything drained");
    assert!(
        metrics.peak_queue_depth <= TENANTS * CAPACITY,
        "seed {seed}: queue bound violated ({} > {})",
        metrics.peak_queue_depth,
        TENANTS * CAPACITY
    );

    // Execute-once, witnessed by the epoch counter: one dataset commit +
    // one commit per executed submission, nothing more.
    assert_eq!(
        backend.current_epoch(),
        1 + outcome.executed,
        "seed {seed}: epoch count disagrees with executed submissions"
    );
    outcome
}

#[test]
fn reject_policy_conserves_submissions_under_stress() {
    let mut any_rejected = false;
    let mut any_cancelled = false;
    for seed in 0..6 {
        let outcome = stress_round(seed, AdmissionPolicy::Reject);
        any_rejected |= outcome.rejected > 0;
        any_cancelled |= outcome.cancel_won > 0;
    }
    // The stress must actually exercise the interesting paths.
    assert!(any_cancelled, "no round ever won a cancellation race");
    let _ = any_rejected; // contention-dependent on a 1-core host: report-only
}

#[test]
fn block_policy_admits_everything_and_respects_the_bound() {
    for seed in 0..4 {
        let outcome = stress_round(seed, AdmissionPolicy::Block);
        assert_eq!(outcome.rejected, 0, "seed {seed}: blocking admission never rejects");
        assert_eq!(outcome.admitted, outcome.attempts, "seed {seed}");
    }
}

#[test]
fn cancel_after_completion_is_a_noop() {
    let runtime =
        ServeRuntime::new(SharedHyppo::new(HyppoConfig::default()), ServeConfig::default());
    let client = runtime.client();
    client.register_dataset("taxi", taxi::generate(150, 5));
    let handle = client.submit(wide_ensemble_spec("taxi", 3, 7)).unwrap();
    // Wait for completion by polling, then try to cancel.
    while handle.try_report().is_none() {
        std::thread::yield_now();
    }
    assert!(!handle.cancel(), "cancel after completion must lose");
    assert!(handle.try_report().unwrap().is_ok(), "result survives a late cancel");
    runtime.shutdown().unwrap();
}

/// Fairness: a finished tenant with mail left queues behind every tenant
/// already runnable. One tenant floods its mailbox with 64 submissions,
/// then K tenants submit one each; at most K turns are claimed between
/// each single's injection into the run queue and its own claim, at 1 and
/// 2 workers. The scheduler counts those claims under its injector lock
/// (`TicketStats::queue_position`), so the bound is exact whatever the OS
/// does to the worker threads. Every turn, the busy tenant's included,
/// goes through that one FIFO: the scheduler has no other queue.
#[test]
fn a_busy_tenant_cannot_starve_single_submissions() {
    const K: usize = 8;
    for workers in [1, 2] {
        for seed in 0..4u64 {
            let runtime = ServeRuntime::new(
                SharedHyppo::new(HyppoConfig { mode: ExecMode::Simulated, ..Default::default() }),
                ServeConfig {
                    workers,
                    mailbox_capacity: 64,
                    admission: AdmissionPolicy::Block,
                    ..ServeConfig::default()
                },
            );
            let busy = runtime.client();
            busy.register_dataset("taxi", taxi::generate(120, 5));
            let flood: Vec<_> = (0..64)
                .map(|i| busy.submit(wide_ensemble_spec("taxi", 2 + i % 3, seed + i as u64)))
                .collect::<Result<_, _>>()
                .expect("a 64-slot mailbox admits 64 submissions");
            let singles: Vec<_> = (0..K)
                .map(|k| runtime.client().submit(wide_ensemble_spec("taxi", 3, seed + k as u64)))
                .collect::<Result<_, _>>()
                .expect("admission");
            for (k, handle) in singles.into_iter().enumerate() {
                // Ahead of single k at its injection: at most the k singles
                // before it and one copy of the busy tenant.
                let ahead =
                    handle.wait_completed().expect("single submission").stats.queue_position;
                assert!(
                    ahead <= K as u64,
                    "workers {workers}, seed {seed}: tenant {k} was claimed after {ahead} other turns"
                );
            }
            for handle in flood {
                handle.wait_completed().expect("flood submission");
            }
            runtime.shutdown().unwrap();
        }
    }
}
