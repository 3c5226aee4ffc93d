//! [`DurableHyppo`]: a crash-recoverable [`Hyppo`] session.
//!
//! # Layout
//!
//! A durable session owns one directory:
//!
//! ```text
//! <dir>/snapshot.json   — last checkpoint (atomic write; may be absent)
//! <dir>/wal.log         — events since the checkpoint (see `wal`)
//! <dir>/artifacts/      — spilled payloads of materialized artifacts
//! ```
//!
//! # Recovery invariant
//!
//! [`DurableHyppo::open`] rebuilds the in-memory system as
//! `restore(snapshot)` + `replay(valid WAL prefix)` + payload
//! reconciliation, and DESIGN.md §12 argues this is *bit-identical* to the
//! state the crashed process had durably reached: events journal the calls
//! themselves, so replay re-runs the exact mutation sequence through the
//! same public APIs — same dense node/edge ids, same structure signatures,
//! same bounds-cache keys, same planner output bytes.
//!
//! The WAL is written *ahead* of the payload mirror, so a crash can leave
//! an artifact flagged materialized with no payload on disk. Recovery
//! resolves every such divergence toward the payload set: flags without
//! payloads are evicted (the history keeps the artifact and its
//! computational edges — only the load edge goes), payloads without flags
//! are deleted.

use crate::store::DiskArtifactStorage;
use crate::wal::{WalHook, WalWriter};
use bytes::Bytes;
use hyppo_core::durable::replay_events;
use hyppo_core::persist::{atomic_write, catalog_from_json, catalog_to_json};
use hyppo_core::system::{BatchRunReport, Hyppo, HyppoConfig, RunReport, SubmitError};
use hyppo_core::Session;
use hyppo_pipeline::{ArtifactName, PipelineSpec};
use hyppo_tensor::Dataset;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// What [`DurableHyppo::open`] found and rebuilt.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Whether a checkpoint snapshot was restored.
    pub snapshot_loaded: bool,
    /// Valid WAL events replayed on top of the snapshot.
    pub replayed_events: usize,
    /// Bytes truncated off the WAL as a torn/corrupt tail.
    pub torn_bytes: u64,
    /// Materialized artifacts whose payloads were reloaded from disk.
    pub artifacts_loaded: usize,
    /// Artifacts flagged materialized whose payloads were missing or
    /// corrupt: their load edges were evicted during reconciliation.
    pub artifacts_dropped: Vec<ArtifactName>,
}

/// A [`Hyppo`] system whose history, statistics, and materialized payloads
/// survive crashes.
#[derive(Debug)]
pub struct DurableHyppo {
    system: Hyppo,
    dir: PathBuf,
    wal: Arc<Mutex<WalWriter>>,
    disk: DiskArtifactStorage,
}

impl DurableHyppo {
    /// Open a durable session at `dir`, recovering whatever a previous
    /// session (cleanly closed or crashed) left there. Raw datasets are
    /// not persisted — re-register them after opening.
    pub fn open(dir: &Path, config: HyppoConfig) -> std::io::Result<(Self, RecoveryReport)> {
        std::fs::create_dir_all(dir)?;
        let mut system = Hyppo::new(config);
        let mut report = RecoveryReport::default();

        let snap_path = dir.join("snapshot.json");
        match std::fs::read_to_string(&snap_path) {
            Ok(json) => {
                let (history, estimator) = catalog_from_json(&json).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?;
                system.history = history;
                system.estimator = estimator;
                report.snapshot_loaded = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }

        let (writer, contents) = WalWriter::open(&dir.join("wal.log"))?;
        replay_events(&contents.events, &mut system.history, &mut system.estimator);
        report.replayed_events = contents.events.len();
        report.torn_bytes = contents.torn_bytes;

        // Reconcile materialization flags against the payloads that
        // actually reached disk (in name order, deterministically).
        let mut disk = DiskArtifactStorage::open(&dir.join("artifacts"), 0)?;
        let mut flagged: Vec<ArtifactName> = system.history.materialized().collect();
        flagged.sort();
        for name in flagged {
            let payload = disk.raw(name)?.filter(|b| hyppo_core::codec::decode(b).is_ok());
            match payload {
                Some(bytes) => {
                    system.store.insert_raw(name, bytes);
                    report.artifacts_loaded += 1;
                }
                None => {
                    disk.remove_raw(name)?;
                    system.history.evict(name);
                    report.artifacts_dropped.push(name);
                }
            }
        }
        for name in disk.artifact_names().collect::<Vec<_>>() {
            if !system.store.contains(name) {
                disk.remove_raw(name)?;
            }
        }

        let wal = Arc::new(Mutex::new(writer));
        system.attach_durability(Box::new(WalHook::new(Arc::clone(&wal))));
        Ok((DurableHyppo { system, dir: dir.to_path_buf(), wal, disk }, report))
    }

    /// The wrapped system (histories, reports, configuration).
    pub fn system(&self) -> &Hyppo {
        &self.system
    }

    /// Mutable access to the wrapped system. Mutations through here are
    /// journaled like any other — the WAL hook stays attached.
    pub fn system_mut(&mut self) -> &mut Hyppo {
        &mut self.system
    }

    /// The session directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The disk mirror of materialized payloads.
    pub fn disk(&self) -> &DiskArtifactStorage {
        &self.disk
    }

    /// Current WAL length in bytes.
    pub fn wal_len_bytes(&self) -> u64 {
        self.wal.lock().unwrap_or_else(|e| e.into_inner()).len_bytes()
    }

    /// Canonical JSON of the current catalog (history + estimator) — the
    /// bit-identity witness the recovery tests compare.
    pub fn snapshot_json(&self) -> String {
        catalog_to_json(&self.system.history, &self.system.estimator)
    }

    /// Register a raw dataset. The registration event becomes durable with
    /// the next submission's flush (or an explicit [`DurableHyppo::checkpoint`]);
    /// datasets themselves are never persisted.
    pub fn register_dataset(&mut self, id: &str, dataset: Dataset) {
        self.system.register_dataset(id, dataset);
    }

    /// Submit a pipeline; its events are fsynced to the WAL before this
    /// returns, then new payloads are mirrored to disk.
    pub fn submit(&mut self, spec: PipelineSpec) -> Result<RunReport, SubmitError> {
        let report = self.system.submit(spec)?;
        self.mirror().map_err(SubmitError::Durability)?;
        Ok(report)
    }

    /// Submit K pipelines as one jointly planned batch
    /// ([`Hyppo::submit_batch`]), durably: every item's events are in the
    /// WAL before this returns, then new payloads are mirrored to disk.
    pub fn submit_batch(
        &mut self,
        specs: Vec<PipelineSpec>,
    ) -> Result<BatchRunReport, SubmitError> {
        let batch = self.system.submit_batch(specs)?;
        self.mirror().map_err(SubmitError::Durability)?;
        Ok(batch)
    }

    /// Retrieve artifacts by name (paper Scenario 2), durably.
    pub fn retrieve(&mut self, names: &[ArtifactName]) -> Result<RunReport, SubmitError> {
        let report = self.system.retrieve(names)?;
        self.mirror().map_err(SubmitError::Durability)?;
        Ok(report)
    }

    /// Checkpoint: atomically write the snapshot, then truncate the WAL.
    /// Bounds recovery time — replay starts from here. Crash-safe at every
    /// step: before the snapshot rename commits, recovery replays the old
    /// snapshot + full WAL; after it, the WAL events are redundant with the
    /// snapshot (replaying both is idempotent) until the reset removes them.
    pub fn checkpoint(&mut self) -> std::io::Result<()> {
        self.system.flush_durability()?;
        let json = catalog_to_json(&self.system.history, &self.system.estimator);
        atomic_write(&self.dir.join("snapshot.json"), json.as_bytes())?;
        // hyppo-lint: allow(blocking-in-critical-section) the WAL mutex must
        // pin the log across truncate+fsync so no append lands between the
        // durable snapshot and the reset
        self.wal.lock().unwrap_or_else(|e| e.into_inner()).reset()
    }

    /// Mirror the in-memory store's payloads to the artifacts directory:
    /// write what appeared, delete what was evicted, refresh the gain
    /// statistics that rank disk eviction.
    fn mirror(&mut self) -> std::io::Result<()> {
        let mut live: Vec<(ArtifactName, Bytes)> =
            self.system.store.entries().map(|(n, b)| (n, b.clone())).collect();
        live.sort_by_key(|&(n, _)| n);
        for (name, bytes) in &live {
            if self.disk.artifact_size(*name) != Some(bytes.len() as u64) {
                self.disk.put_raw(*name, bytes)?;
            }
            let stats = self.system.history.stats_of(*name);
            self.disk.record_stats(*name, stats.freq, stats.compute_cost);
        }
        for name in self.disk.artifact_names().collect::<Vec<_>>() {
            if !self.system.store.contains(name) {
                self.disk.remove_raw(name)?;
            }
        }
        Ok(())
    }
}

impl Session for DurableHyppo {
    fn backend_name(&self) -> &'static str {
        "HYPPO-durable"
    }

    fn register_dataset(&mut self, id: &str, dataset: Dataset) {
        DurableHyppo::register_dataset(self, id, dataset);
    }

    fn submit(&mut self, spec: PipelineSpec) -> Result<RunReport, SubmitError> {
        DurableHyppo::submit(self, spec)
    }

    fn submit_batch(&mut self, specs: Vec<PipelineSpec>) -> Result<Vec<RunReport>, SubmitError> {
        DurableHyppo::submit_batch(self, specs).map(|b| b.reports)
    }

    fn retrieve(&mut self, names: &[ArtifactName]) -> Result<RunReport, SubmitError> {
        DurableHyppo::retrieve(self, names)
    }

    fn cumulative_seconds(&self) -> f64 {
        self.system.cumulative_seconds
    }

    fn budget_bytes(&self) -> u64 {
        self.system.config.budget_bytes
    }

    fn history_artifacts(&self) -> usize {
        self.system.history.artifact_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppo_ml::{Config, LogicalOp};
    use hyppo_tensor::{Matrix, SeededRng, TaskKind};

    fn dataset(n: usize) -> Dataset {
        let mut rng = SeededRng::new(3);
        let mut x = Matrix::zeros(n, 4);
        let mut y = Vec::new();
        for r in 0..n {
            for c in 0..4 {
                x.set(r, c, rng.uniform(-1.0, 1.0));
            }
            y.push(if x.get(r, 0) + x.get(r, 1) > 0.0 { 1.0 } else { 0.0 });
        }
        Dataset::new(x, y, (0..4).map(|i| format!("f{i}")).collect(), TaskKind::Classification)
    }

    fn spec(seed: i64) -> PipelineSpec {
        let mut spec = PipelineSpec::new();
        let d = spec.load("data");
        let (train, test) = spec.split(d, Config::new().with_i("seed", seed));
        let scaler = spec.fit(LogicalOp::StandardScaler, 0, Config::new(), &[train]);
        let train_s = spec.transform(LogicalOp::StandardScaler, 0, Config::new(), scaler, train);
        let test_s = spec.transform(LogicalOp::StandardScaler, 0, Config::new(), scaler, test);
        let model = spec.fit(LogicalOp::LinearSvm, 0, Config::new(), &[train_s]);
        let preds = spec.predict(LogicalOp::LinearSvm, 0, Config::new(), model, test_s);
        spec.evaluate(LogicalOp::Accuracy, preds, test_s);
        spec
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hyppo_durable_{}_{}", name, std::process::id()))
    }

    fn config() -> HyppoConfig {
        HyppoConfig { budget_bytes: 64 * 1024 * 1024, ..Default::default() }
    }

    #[test]
    fn reopen_recovers_bit_identical_state_and_enables_reuse() {
        let dir = tmp("reopen");
        let _ = std::fs::remove_dir_all(&dir);
        let (live_json, cold_seconds) = {
            let (mut session, report) = DurableHyppo::open(&dir, config()).unwrap();
            assert!(!report.snapshot_loaded);
            assert_eq!(report.replayed_events, 0);
            session.register_dataset("data", dataset(300));
            let cold = session.submit(spec(0)).unwrap();
            assert!(cold.execution_seconds > 0.0);
            (session.snapshot_json(), cold.execution_seconds)
        };

        let (mut session, report) = DurableHyppo::open(&dir, config()).unwrap();
        assert!(report.replayed_events > 0);
        assert_eq!(report.torn_bytes, 0);
        assert!(report.artifacts_dropped.is_empty());
        assert_eq!(session.snapshot_json(), live_json, "recovery must be bit-identical");
        session.register_dataset("data", dataset(300));
        let warm = session.submit(spec(0)).unwrap();
        assert!(warm.loads >= 1, "recovered payloads must be loadable");
        assert!(warm.execution_seconds < cold_seconds);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// In Simulated mode the live estimator learns nothing (virtual-clock
    /// costs are its own predictions), so the WAL must carry no
    /// observations and recovery must rebuild the same empty statistics.
    #[test]
    fn simulated_session_recovers_bit_identical_catalog_and_estimator() {
        use hyppo_core::executor::ExecMode;
        let dir = tmp("simulated");
        let _ = std::fs::remove_dir_all(&dir);
        let simulated = || HyppoConfig { mode: ExecMode::Simulated, ..config() };
        let live_json = {
            let (mut session, _) = DurableHyppo::open(&dir, simulated()).unwrap();
            session.register_dataset("data", dataset(300));
            for seed in 0..4 {
                session.submit(spec(seed)).unwrap();
            }
            session.snapshot_json()
        };
        let (session, report) = DurableHyppo::open(&dir, simulated()).unwrap();
        assert!(report.replayed_events > 0);
        assert_eq!(session.snapshot_json(), live_json, "recovery must be bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_is_truncated_and_survivors_recovered() {
        let dir = tmp("torn");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut session, _) = DurableHyppo::open(&dir, config()).unwrap();
            session.register_dataset("data", dataset(200));
            session.submit(spec(0)).unwrap();
        }
        // Simulate a crash mid-append: garbage after the valid prefix.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(dir.join("wal.log")).unwrap();
        f.write_all(&[0x13, 0x37, 0x00]).unwrap();
        drop(f);

        let (session, report) = DurableHyppo::open(&dir, config()).unwrap();
        assert_eq!(report.torn_bytes, 3);
        assert!(report.replayed_events > 0);
        assert!(session.system().history.artifact_count() > 0);
        // The truncation is physical: a third open sees a clean log.
        drop(session);
        let (_, report) = DurableHyppo::open(&dir, config()).unwrap();
        assert_eq!(report.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_wal_and_recovers_from_snapshot() {
        let dir = tmp("checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
        let live_json = {
            let (mut session, _) = DurableHyppo::open(&dir, config()).unwrap();
            session.register_dataset("data", dataset(200));
            session.submit(spec(0)).unwrap();
            let before = session.wal_len_bytes();
            session.checkpoint().unwrap();
            assert!(session.wal_len_bytes() < before, "checkpoint must shrink the WAL");
            session.submit(spec(1)).unwrap();
            session.snapshot_json()
        };
        let (session, report) = DurableHyppo::open(&dir, config()).unwrap();
        assert!(report.snapshot_loaded);
        assert!(report.replayed_events > 0, "post-checkpoint events replay on top");
        assert_eq!(session.snapshot_json(), live_json);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_payload_is_reconciled_by_evicting_the_flag() {
        let dir = tmp("reconcile");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut session, _) = DurableHyppo::open(&dir, config()).unwrap();
            session.register_dataset("data", dataset(200));
            let report = session.submit(spec(0)).unwrap();
            assert!(report.stored > 0, "test needs materialized artifacts");
        }
        // Crash window: WAL says materialized, payload never reached disk.
        let artifacts = dir.join("artifacts");
        let mut removed = 0;
        for entry in std::fs::read_dir(&artifacts).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "art") {
                std::fs::remove_file(&path).unwrap();
                removed += 1;
                break;
            }
        }
        assert_eq!(removed, 1);

        let (session, report) = DurableHyppo::open(&dir, config()).unwrap();
        assert_eq!(report.artifacts_dropped.len(), 1);
        let dropped = report.artifacts_dropped[0];
        assert!(!session.system().history.is_materialized(dropped));
        assert!(session.system().history.contains(dropped), "only the load edge goes");
        // And the recovered state is internally consistent: resubmitting
        // recomputes the dropped artifact instead of trying to load it.
        let (mut session, _) = {
            drop(session);
            DurableHyppo::open(&dir, config()).unwrap()
        };
        session.register_dataset("data", dataset(200));
        session.submit(spec(0)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pipeline whose model fit dominates everything else, so loading
    /// the materialized op-state beats re-fitting by a wide margin.
    fn forest_spec(seed: i64) -> PipelineSpec {
        let mut spec = PipelineSpec::new();
        let d = spec.load("data");
        let (train, test) = spec.split(d, Config::new().with_i("seed", seed));
        let fcfg = Config::new().with_i("n_trees", 40).with_i("max_depth", 8).with_i("seed", 7);
        let model = spec.fit(LogicalOp::RandomForest, 0, fcfg.clone(), &[train]);
        let preds = spec.predict(LogicalOp::RandomForest, 0, fcfg, model, test);
        spec.evaluate(LogicalOp::Accuracy, preds, test);
        spec
    }

    #[test]
    fn catalog_survives_a_restart() {
        let dir = tmp("restart");
        let _ = std::fs::remove_dir_all(&dir);
        let cold = {
            let (mut first, _) = DurableHyppo::open(&dir, config()).unwrap();
            first.register_dataset("data", dataset(2000));
            first.submit(forest_spec(0)).unwrap()
        };
        // A new session: the catalog is recovered, the dataset re-registered
        // (sources are not persisted).
        let (mut second, report) = DurableHyppo::open(&dir, config()).unwrap();
        assert!(report.artifacts_loaded >= 1, "materialized payloads must be recovered");
        second.register_dataset("data", dataset(2000));
        let warm = second.submit(forest_spec(0)).unwrap();
        assert!(warm.loads >= 1, "restored catalog must enable loads");
        assert!(
            warm.execution_seconds < 0.5 * cold.execution_seconds,
            "warm {} vs cold {}",
            warm.execution_seconds,
            cold.execution_seconds
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_submission_is_durable() {
        let dir = tmp("batch");
        let _ = std::fs::remove_dir_all(&dir);
        let live_json = {
            let (mut session, _) = DurableHyppo::open(&dir, config()).unwrap();
            session.register_dataset("data", dataset(200));
            let reports =
                Session::submit_batch(&mut session, vec![spec(0), spec(1), spec(0)]).unwrap();
            assert_eq!(reports.len(), 3);
            session.snapshot_json()
        };
        let (session, report) = DurableHyppo::open(&dir, config()).unwrap();
        assert!(report.artifacts_dropped.is_empty());
        assert_eq!(session.snapshot_json(), live_json, "every batch item reached the WAL");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_session_implements_the_session_trait() {
        let dir = tmp("trait");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut session, _) = DurableHyppo::open(&dir, config()).unwrap();
        assert_eq!(Session::backend_name(&session), "HYPPO-durable");
        Session::register_dataset(&mut session, "data", dataset(200));
        let report = Session::submit(&mut session, spec(0)).unwrap();
        assert!(report.execution_seconds > 0.0);
        assert!(Session::cumulative_seconds(&session) > 0.0);
        assert_eq!(Session::budget_bytes(&session), 64 * 1024 * 1024);
        assert!(Session::history_artifacts(&session) > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
