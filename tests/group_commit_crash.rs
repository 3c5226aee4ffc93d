//! Crash tests for WAL group commit at epoch boundaries.
//!
//! `GroupCommitWal` buffers the durable events every catalog commit drains
//! (in epoch order) and writes one framed batch — one fsync — per flush.
//! These tests prove the durability contract the serving layer relies on:
//! a crash loses at most the unflushed *suffix* of commit epochs, and what
//! survives is bit-identical to a reference run that stopped at the same
//! epoch boundary.

use hyppo::core::durable::replay_events;
use hyppo::core::executor::ExecMode;
use hyppo::core::persist::catalog_to_json;
use hyppo::core::{CostEstimator, History, HyppoConfig};
use hyppo::persist::{read_wal, GroupCommitWal, WalHook, WalWriter};
use hyppo::serve::SharedHyppo;
use hyppo::workloads::ensemble_wl::wide_ensemble_spec;
use hyppo::workloads::taxi;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hyppo_gc_crash_{}_{}", name, std::process::id()))
}

fn config() -> HyppoConfig {
    HyppoConfig { budget_bytes: 48 * 1024, mode: ExecMode::Simulated, ..Default::default() }
}

fn specs() -> Vec<hyppo::pipeline::PipelineSpec> {
    (0..6).map(|i| wide_ensemble_spec("taxi", 3 + i % 3, 7 + i as u64)).collect()
}

/// Run the first `flushed` submissions with a group flush after each
/// commit, then buffer the rest and "crash" (drop without flushing).
/// Returns the group-commit stats at crash time.
fn run_and_crash(wal_path: &PathBuf, flushed: usize) -> hyppo::persist::GroupCommitStats {
    let _ = std::fs::remove_file(wal_path);
    let (writer, _) = WalWriter::open(wal_path).unwrap();
    let hook = GroupCommitWal::new(writer);

    let shared = SharedHyppo::new(config());
    shared.attach_durability(Box::new(hook.clone()));
    shared.register_dataset("taxi", taxi::generate(200, 5));
    for (i, spec) in specs().into_iter().enumerate() {
        shared.submit_shared(spec).unwrap();
        if i < flushed {
            // Group boundary: everything up to and including this commit
            // epoch becomes durable with one fsync.
            hook.flush_group().unwrap();
        }
    }
    hook.stats()
    // `shared` and `hook` drop here with the tail still buffered — the crash.
}

/// Reference: same prefix of submissions against a per-submission-fsync
/// `WalHook`, which was already proven crash-correct by the §12 suite.
fn reference_wal(wal_path: &PathBuf, submissions: usize) {
    let _ = std::fs::remove_file(wal_path);
    let (writer, _) = WalWriter::open(wal_path).unwrap();
    if submissions == 0 {
        // Zero flushed groups durably commit zero epochs: the reference
        // log is empty (registration events ride with the first group).
        return;
    }
    let shared = SharedHyppo::new(config());
    shared.attach_durability(Box::new(WalHook::new(Arc::new(Mutex::new(writer)))));
    shared.register_dataset("taxi", taxi::generate(200, 5));
    for spec in specs().into_iter().take(submissions) {
        shared.submit_shared(spec).unwrap();
    }
    shared.flush_durability().unwrap();
}

#[test]
fn crash_at_epoch_boundary_loses_exactly_the_unflushed_suffix() {
    for flushed in [0usize, 2, 4, 6] {
        let crash_path = tmp(&format!("boundary_{flushed}"));
        let stats = run_and_crash(&crash_path, flushed);

        let reference_path = tmp(&format!("boundary_ref_{flushed}"));
        reference_wal(&reference_path, flushed);

        let crashed = read_wal(&crash_path).unwrap();
        let reference = read_wal(&reference_path).unwrap();
        assert_eq!(crashed.torn_bytes, 0, "a group boundary is a clean record boundary");
        assert_eq!(
            crashed.events, reference.events,
            "flushed={flushed}: surviving events must be exactly the \
             reference run stopped at the same epoch boundary"
        );

        // The replayed catalog is bit-identical to the reference's.
        let mut history = History::new();
        let mut estimator = CostEstimator::new();
        replay_events(&crashed.events, &mut history, &mut estimator);
        let mut ref_history = History::new();
        let mut ref_estimator = CostEstimator::new();
        replay_events(&reference.events, &mut ref_history, &mut ref_estimator);
        assert_eq!(
            catalog_to_json(&history, &estimator),
            catalog_to_json(&ref_history, &ref_estimator),
            "flushed={flushed}: recovered catalog diverged"
        );

        // One fsync per group boundary, not per submission (registration
        // events ride along with the first flushed group).
        assert_eq!(stats.fsyncs as usize, flushed, "flushed={flushed}");
        assert!(stats.appends > stats.fsyncs || flushed == 0);

        let _ = std::fs::remove_file(&crash_path);
        let _ = std::fs::remove_file(&reference_path);
    }
}

#[test]
fn torn_tail_inside_a_group_recovers_to_a_record_boundary() {
    // Flush everything as ONE group, then tear the file mid-batch: the
    // CRC framing must recover a clean per-event prefix even though the
    // whole batch went down in a single write.
    let path = tmp("midgroup");
    let _ = std::fs::remove_file(&path);
    let (writer, _) = WalWriter::open(&path).unwrap();
    let hook = GroupCommitWal::new(writer);
    let shared = SharedHyppo::new(config());
    shared.attach_durability(Box::new(hook.clone()));
    shared.register_dataset("taxi", taxi::generate(200, 5));
    for spec in specs().into_iter().take(3) {
        shared.submit_shared(spec).unwrap();
    }
    let flushed = hook.flush_group().unwrap();
    assert!(flushed > 3, "expected several events per submission");
    drop(shared);

    let full = read_wal(&path).unwrap();
    let k = full.events.len() / 2;
    let cut = full.boundaries[k] + (full.boundaries[k + 1] - full.boundaries[k]) / 2;
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(cut).unwrap();
    drop(file);

    // Reopening truncates the torn record; the surviving events are the
    // clean k-event prefix and the log accepts further groups.
    let (writer, contents) = WalWriter::open(&path).unwrap();
    assert_eq!(contents.events, full.events[..k]);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), contents.valid_bytes);
    let mut hook = GroupCommitWal::new(writer);
    use hyppo::core::durable::{DurabilityHook, DurableEvent};
    hook.append(&[DurableEvent::Touch { name: hyppo::pipeline::ArtifactName(9999) }]).unwrap();
    hook.flush_group().unwrap();
    assert_eq!(read_wal(&path).unwrap().events.len(), k + 1);
    let _ = std::fs::remove_file(&path);
}
