//! FIFO run-queue throughput in the serving layer's traffic shape.
//!
//! Serving keeps one copy of each runnable tenant in the queue: a worker
//! claims a tenant's turn and, when mail remains, re-injects the tenant at
//! the back. Here K tokens (K = 16, `serve_sim`'s tenant count) circulate
//! the same way — inject → claim → re-inject — until N claims have been
//! made in total, at 1, 2 and 4 workers on scoped threads. A turn does
//! almost no work, so claims/s is the scheduler's own per-turn overhead:
//! one injector-lock claim, one injector-lock push and the wakeup signal.
//!
//! Run under `cargo bench --bench sched` for the full measurement, which
//! writes `BENCH_sched.json` (claims/second plus the `SchedStats` counters
//! per worker count). Without `--bench` in the arguments (e.g. when
//! `cargo test` smoke-runs harness-less bench targets) a few hundred claims
//! run and nothing is written. These numbers are reported, never asserted
//! (DESIGN.md §16).

use hyppo_sched::{SchedStats, Scheduler, Step};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Serialize)]
struct StatsOut {
    injected: u64,
    injector_claims: u64,
    steals: u64,
    empty_scans: u64,
    parks: u64,
}

impl From<SchedStats> for StatsOut {
    fn from(s: SchedStats) -> Self {
        StatsOut {
            injected: s.injected,
            injector_claims: s.injector_claims,
            steals: s.steals,
            empty_scans: s.empty_scans,
            parks: s.parks,
        }
    }
}

#[derive(Serialize)]
struct RunResult {
    workers: usize,
    wall_seconds: f64,
    claims_per_second: f64,
    stats: StatsOut,
}

#[derive(Serialize)]
struct BenchReport {
    benchmark: String,
    host_cpus: usize,
    tokens: u64,
    claims_per_run: u64,
    runs: Vec<RunResult>,
}

/// Circulate `tokens` items until `claims` claims have been made. Each
/// item carries the claims left on its own token, so exactly `claims`
/// items are ever pushed; the worker that makes the last claim shuts the
/// queue down.
fn circulate(sched: &Scheduler<u64>, workers: usize, tokens: u64, claims: u64) {
    let claimed = AtomicU64::new(0);
    for _ in 0..tokens {
        sched.inject(claims / tokens);
    }
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                match sched.next_step() {
                    Step::Task { item: left, .. } => {
                        if left > 1 {
                            sched.inject(left - 1);
                        }
                        if claimed.fetch_add(1, Ordering::SeqCst) + 1 == claims {
                            sched.shutdown();
                        }
                    }
                    Step::Idle(token) => sched.park(token),
                    Step::Shutdown => return,
                }
            });
        }
    });
}

fn main() {
    let full = std::env::args().any(|a| a == "--bench");
    let tokens = 16u64;
    let (claims, reps) = if full { (tokens << 18, 3) } else { (tokens << 4, 1) };

    let mut report = BenchReport {
        benchmark: "fifo_run_queue".to_string(),
        host_cpus: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        tokens,
        claims_per_run: claims,
        runs: Vec::new(),
    };

    for workers in [1usize, 2, 4] {
        let mut wall = f64::INFINITY;
        let mut stats = SchedStats::default();
        for _ in 0..reps {
            let sched: Scheduler<u64> = Scheduler::new(workers);
            let start = Instant::now();
            circulate(&sched, workers, tokens, claims);
            let elapsed = start.elapsed().as_secs_f64();
            let s = sched.stats();
            assert_eq!((s.injected, s.injector_claims), (claims, claims), "run ended short");
            if elapsed < wall {
                wall = elapsed;
                stats = s;
            }
        }
        println!(
            "sched: {workers} workers: {:.0} claims/s ({} empty claims, {} parks)",
            claims as f64 / wall,
            stats.empty_scans,
            stats.parks
        );
        report.runs.push(RunResult {
            workers,
            wall_seconds: wall,
            claims_per_second: claims as f64 / wall,
            stats: stats.into(),
        });
    }

    if full {
        let json = serde_json::to_string_pretty(&report).expect("serialize report");
        // Anchor at the workspace root regardless of cargo's bench CWD.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sched.json");
        std::fs::write(path, json).expect("write BENCH_sched.json");
        println!("sched: wrote {path}");
    }
}
