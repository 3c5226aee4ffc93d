//! Traffic benchmark for the serving layer: thousands of simulated users
//! replaying Xin-et-al edit-model sequences through the actor runtime.
//!
//! Run under `cargo bench --bench serving` for the full measurement
//! (1024 users), which writes `BENCH_serving.json`. Without `--bench` in
//! the arguments (e.g. when `cargo test` smoke-runs harness-less bench
//! targets) a tiny population runs and nothing is written.
//!
//! Two scenarios:
//!
//! * **closed_loop** — every user keeps exactly one submission in flight
//!   (submit, wait, edit, resubmit), blocking admission, group-commit WAL
//!   attached. This is the steady-state serving shape; it measures
//!   end-to-end latency percentiles, throughput, snapshot staleness, and
//!   the fsync-per-commit ratio of group commit.
//! * **burst** — every user fires its whole sequence at once against
//!   small mailboxes with `Reject` admission. This is the overload shape;
//!   it measures how many submissions bounded admission sheds.
//!
//! On a 1-core host wall-clock contention numbers are reported, not
//! asserted — the determinism suite (`crates/serve/tests/determinism.rs`)
//! is the correctness gate.

use hyppo_core::executor::ExecMode;
use hyppo_core::HyppoConfig;
use hyppo_persist::{GroupCommitWal, WalWriter};
use hyppo_pipeline::PipelineSpec;
use hyppo_serve::{
    AdmissionPolicy, Client, ServeConfig, ServeRuntime, SharedHyppo, SubmissionHandle, TicketStats,
};
use hyppo_workloads::generator::{generate_sequence, SequenceConfig, UseCase};
use hyppo_workloads::{higgs, taxi};
use serde::Serialize;
use std::collections::VecDeque;
use std::time::Instant;

#[derive(Serialize)]
struct LatencyStats {
    p50_seconds: f64,
    p99_seconds: f64,
    mean_seconds: f64,
    max_seconds: f64,
}

impl LatencyStats {
    fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty());
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pick = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        LatencyStats {
            p50_seconds: pick(0.50),
            p99_seconds: pick(0.99),
            mean_seconds: samples.iter().sum::<f64>() / samples.len() as f64,
            max_seconds: *samples.last().unwrap(),
        }
    }
}

#[derive(Serialize)]
struct GroupCommitReport {
    commits: u64,
    fsyncs: u64,
    events: u64,
    fsyncs_per_commit: f64,
}

#[derive(Serialize)]
struct ScenarioReport {
    scenario: String,
    users: usize,
    submissions_per_user: usize,
    workers: usize,
    mailbox_capacity: usize,
    admission: String,
    wall_seconds: f64,
    /// Completed submissions per wall-clock second.
    throughput_per_second: f64,
    submitted: u64,
    completed: u64,
    rejected: u64,
    /// Admitted submissions that resolved with an error (e.g. a planning
    /// failure) — reported, never fatal to the bench.
    failed: u64,
    latency: LatencyStats,
    mailbox_wait_mean_seconds: f64,
    service_mean_seconds: f64,
    /// Snapshot staleness: commits that landed between a submission's
    /// planning snapshot and its own commit.
    epoch_lag_mean: f64,
    epoch_lag_max: u64,
    peak_queue_depth: usize,
    /// `null` for scenarios that run without a WAL.
    group_commit: Option<GroupCommitReport>,
}

#[derive(Serialize)]
struct BenchReport {
    benchmark: String,
    /// Wall-clock contention figures are host-bound; on a 1-core host the
    /// interesting signals are the latency distribution shape, admission
    /// shedding, epoch lag, and the fsync ratio.
    host_cpus: usize,
    scenarios: Vec<ScenarioReport>,
}

/// One user's edit-model session: a seeded Xin-et-al sequence over one of
/// the two use cases.
fn user_sequence(user: usize, per_user: usize) -> Vec<PipelineSpec> {
    let use_case = if user.is_multiple_of(2) { UseCase::Taxi } else { UseCase::Higgs };
    let dataset_id = match use_case {
        UseCase::Taxi => "taxi",
        UseCase::Higgs => "higgs",
    };
    generate_sequence(&SequenceConfig {
        use_case,
        dataset_id: dataset_id.to_string(),
        n_pipelines: per_user,
        seed: user as u64,
    })
    .iter()
    .map(|t| t.to_spec())
    .collect()
}

fn fresh_runtime(config: ServeConfig) -> ServeRuntime {
    // Greedy search: after thousands of commits the shared history makes
    // the augmented graph large enough that exact search exhausts its
    // expansion budget — greedy is the planner a high-traffic server
    // would run. The budget is generous because under tight budgets the
    // augmenter can strand artifacts after eviction (tracked in
    // ROADMAP.md); submission failures are counted, not fatal.
    let backend = SharedHyppo::new(HyppoConfig {
        budget_bytes: 1 << 30,
        mode: ExecMode::Simulated,
        search: hyppo_core::Planner::greedy(),
        ..Default::default()
    });
    backend.register_dataset("taxi", taxi::generate(150, 5));
    backend.register_dataset("higgs", higgs::generate(150, 5));
    ServeRuntime::new(backend, config)
}

fn record(stats: &TicketStats, latencies: &mut Vec<f64>, waits: &mut f64, service: &mut f64) {
    latencies.push(stats.latency_seconds);
    *waits += stats.mailbox_wait_seconds;
    *service += stats.service_seconds;
}

/// Closed loop: one outstanding submission per user, driven by a polling
/// sweep so 1024 users do not need 1024 blocked threads.
fn closed_loop(users: usize, per_user: usize, workers: usize) -> ScenarioReport {
    let config = ServeConfig { workers, ..ServeConfig::default() };
    let mailbox_capacity = config.mailbox_capacity;
    let commit_group = config.commit_group;
    let runtime = fresh_runtime(config);

    // Group-commit WAL on a scratch file: the bench reports the fsync
    // amortization ratio the serving layer achieves.
    let wal_path = std::env::temp_dir().join("hyppo_bench_serving.wal");
    let _ = std::fs::remove_file(&wal_path);
    let (writer, _) = WalWriter::open(&wal_path).expect("open bench WAL");
    let wal = GroupCommitWal::new(writer);
    runtime.attach_durability(wal.clone());

    struct User {
        client: Client,
        specs: VecDeque<PipelineSpec>,
        outstanding: Option<SubmissionHandle>,
    }
    let mut population: Vec<User> = (0..users)
        .map(|u| User {
            client: runtime.client(),
            specs: user_sequence(u, per_user).into(),
            outstanding: None,
        })
        .collect();

    let total = users * per_user;
    let mut latencies = Vec::with_capacity(total);
    let (mut waits, mut service) = (0.0, 0.0);
    let mut done = 0usize;
    let mut failed = 0u64;
    let start = Instant::now();
    while done < total {
        let mut progressed = false;
        for user in population.iter_mut() {
            let finished = user.outstanding.as_ref().is_some_and(|h| h.try_report().is_some());
            if finished {
                let handle = user.outstanding.take().unwrap();
                match handle.wait_completed() {
                    Ok(completed) => {
                        record(&completed.stats, &mut latencies, &mut waits, &mut service)
                    }
                    Err(_) => failed += 1,
                }
                done += 1;
                progressed = true;
            }
            if user.outstanding.is_none() {
                if let Some(spec) = user.specs.pop_front() {
                    user.outstanding =
                        Some(user.client.submit(spec).expect("blocking admission never rejects"));
                    progressed = true;
                }
            }
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    let wall = start.elapsed().as_secs_f64();

    let metrics = runtime.metrics();
    let backend = runtime.shutdown().expect("shutdown flushes the WAL");
    let commits = backend.current_epoch() - 2; // minus the two dataset registrations
    let stats = wal.stats();
    ScenarioReport {
        scenario: "closed_loop".to_string(),
        users,
        submissions_per_user: per_user,
        workers,
        mailbox_capacity,
        admission: "block".to_string(),
        wall_seconds: wall,
        throughput_per_second: metrics.completed as f64 / wall,
        submitted: metrics.submitted,
        completed: metrics.completed,
        rejected: metrics.rejected,
        failed,
        mailbox_wait_mean_seconds: waits / latencies.len().max(1) as f64,
        service_mean_seconds: service / latencies.len().max(1) as f64,
        latency: LatencyStats::from_samples(latencies),
        epoch_lag_mean: metrics.epoch_lag_mean,
        epoch_lag_max: metrics.epoch_lag_max,
        peak_queue_depth: metrics.peak_queue_depth,
        group_commit: Some(GroupCommitReport {
            commits,
            fsyncs: stats.fsyncs,
            events: stats.events,
            fsyncs_per_commit: if commits == 0 {
                0.0
            } else {
                stats.fsyncs as f64 / commits as f64
            },
        }),
    }
    .tap_report(commit_group)
}

impl ScenarioReport {
    fn tap_report(self, commit_group: usize) -> Self {
        println!(
            "serving[{}]: {} users x {} subs, wall {:.3}s, {:.0}/s, p50 {:.4}s p99 {:.4}s, \
             lag mean {:.2} max {}, rejected {} failed {}{}",
            self.scenario,
            self.users,
            self.submissions_per_user,
            self.wall_seconds,
            self.throughput_per_second,
            self.latency.p50_seconds,
            self.latency.p99_seconds,
            self.epoch_lag_mean,
            self.epoch_lag_max,
            self.rejected,
            self.failed,
            match &self.group_commit {
                Some(g) =>
                    format!(", {:.2} fsyncs/commit (group {})", g.fsyncs_per_commit, commit_group),
                None => String::new(),
            }
        );
        self
    }
}

/// Burst: every user fires its whole sequence up front against small
/// `Reject` mailboxes; admission sheds the overload.
fn burst(users: usize, per_user: usize, workers: usize) -> ScenarioReport {
    let mailbox_capacity = 2;
    let runtime = fresh_runtime(ServeConfig {
        workers,
        mailbox_capacity,
        admission: AdmissionPolicy::Reject,
        ..ServeConfig::default()
    });

    let clients: Vec<Client> = (0..users).map(|_| runtime.client()).collect();
    let mut sequences: Vec<VecDeque<PipelineSpec>> =
        (0..users).map(|u| user_sequence(u, per_user).into()).collect();

    let mut handles: Vec<SubmissionHandle> = Vec::with_capacity(users * per_user);
    let mut rejected_here = 0u64;
    let start = Instant::now();
    // Round-robin across users so every tenant's burst interleaves.
    for _ in 0..per_user {
        for (client, specs) in clients.iter().zip(sequences.iter_mut()) {
            if let Some(spec) = specs.pop_front() {
                match client.submit(spec) {
                    Ok(handle) => handles.push(handle),
                    Err(hyppo_serve::ServeError::Busy) => rejected_here += 1,
                    Err(e) => panic!("unexpected admission error: {e}"),
                }
            }
        }
    }
    let mut latencies = Vec::with_capacity(handles.len());
    let (mut waits, mut service) = (0.0, 0.0);
    let mut failed = 0u64;
    for handle in handles {
        match handle.wait_completed() {
            Ok(completed) => record(&completed.stats, &mut latencies, &mut waits, &mut service),
            Err(_) => failed += 1,
        }
    }
    let wall = start.elapsed().as_secs_f64();

    let metrics = runtime.metrics();
    runtime.shutdown().expect("shutdown without durability");
    let completed = metrics.completed;
    ScenarioReport {
        scenario: "burst".to_string(),
        users,
        submissions_per_user: per_user,
        workers,
        mailbox_capacity,
        admission: "reject".to_string(),
        wall_seconds: wall,
        throughput_per_second: completed as f64 / wall,
        submitted: metrics.submitted,
        completed,
        rejected: rejected_here.max(metrics.rejected),
        failed,
        mailbox_wait_mean_seconds: waits / latencies.len().max(1) as f64,
        service_mean_seconds: service / latencies.len().max(1) as f64,
        latency: LatencyStats::from_samples(latencies),
        epoch_lag_mean: metrics.epoch_lag_mean,
        epoch_lag_max: metrics.epoch_lag_max,
        peak_queue_depth: metrics.peak_queue_depth,
        group_commit: None,
    }
    .tap_report(0)
}

fn main() {
    let full = std::env::args().any(|a| a == "--bench");
    let (users, per_user, workers) = if full { (1024, 3, 4) } else { (16, 2, 2) };

    let report = BenchReport {
        benchmark: "serving_traffic".to_string(),
        host_cpus: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        scenarios: vec![closed_loop(users, per_user, workers), burst(users, per_user, workers)],
    };

    if full {
        let json = serde_json::to_string_pretty(&report).expect("serialize report");
        // Anchor at the workspace root regardless of cargo's bench CWD.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
        std::fs::write(path, json).expect("write BENCH_serving.json");
        println!("serving: wrote {path}");
    }
}
