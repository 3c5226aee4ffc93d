//! The shared backend: one HYPPO state that many threads submit against.
//!
//! [`SharedHyppo`] is the thread-safe engine backend
//! ([`hyppo_core::engine`]) next to the serial [`Hyppo`](hyppo_core::Hyppo).
//! The catalog (history hypergraph + learned cost estimator) lives behind
//! an **epoch-versioned copy-on-write cell**: every commit produces a new
//! immutable [`CatalogVersion`] with the next epoch, and planners read an
//! `Arc` snapshot taken under a briefly held lock, for the plan search
//! only. A commit takes the write lock, clones the version only if a
//! snapshot is still outstanding (`Arc::make_mut`), applies the mutation,
//! bumps the epoch, and drains journaled events into the attached
//! [`DurabilityHook`] inside the critical section, so WAL order is epoch
//! order (DESIGN.md §14 states and proves the invariant).
//!
//! Artifacts live in a sharded [`SharedArtifactStore`], and every plan runs
//! on the engine's serial executor: concurrency comes from tenants running
//! side by side, not from inside one plan. A plan can still lose a race
//! with another session's eviction; the engine then replans from a fresh
//! snapshot. The serving runtime ([`ServeRuntime`](crate::ServeRuntime))
//! drives many tenants against one `SharedHyppo` through mailbox actors.

use crate::store::SharedArtifactStore;
use hyppo_core::durable::DurabilityHook;
pub use hyppo_core::engine::EpochStamp;
use hyppo_core::engine::{self, Backend, Run};
use hyppo_core::system::{BatchRunReport, HyppoConfig, RunReport, SubmitError};
use hyppo_core::{ArtifactStore, CostEstimator, History, PlannerBoundsCache, Session};
use hyppo_pipeline::{ArtifactName, PipelineSpec};
use hyppo_tensor::Dataset;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// One immutable committed version of the catalog.
///
/// Versions are produced by [`SharedHyppo`] commits and handed to readers
/// as `Arc<CatalogVersion>` snapshots. Once a version with a higher epoch
/// exists, this value never changes again — the commit path clones before
/// mutating whenever a snapshot is still held ([`Arc::make_mut`]), which
/// is exactly the copy-on-write discipline DESIGN.md §14's consistency
/// proof rests on.
#[derive(Clone, Debug)]
pub struct CatalogVersion {
    /// Commit epoch: the number of catalog mutations committed before and
    /// including this version. Strictly monotone across versions.
    pub epoch: u64,
    /// The history hypergraph `H` as of this epoch.
    pub history: History,
    /// The learned cost estimator as of this epoch.
    pub estimator: CostEstimator,
}

/// Everything one shared submission produced: its report and its
/// snapshot/commit epochs (staleness via [`EpochStamp::lag`]).
pub type SharedRun = Run;

/// Everything one shared *batch* submission produced.
#[derive(Clone, Debug)]
pub struct SharedBatchRun {
    /// The joint-planning batch report.
    pub batch: BatchRunReport,
    /// Snapshot epoch all items planned against, and the last item's
    /// commit epoch (each item commits its own epoch in order).
    pub epochs: EpochStamp,
}

/// Thread-safe HYPPO: epoch-versioned catalog and shared artifact store.
#[derive(Debug)]
pub struct SharedHyppo {
    /// Configuration (shared read-only across sessions).
    pub config: HyppoConfig,
    catalog: RwLock<Arc<CatalogVersion>>,
    store: SharedArtifactStore,
    cumulative_seconds: Mutex<f64>,
    /// Wall-clock nanos spent waiting on the catalog lock.
    lock_wait_nanos: AtomicU64,
    /// Commits that had to copy the catalog because a snapshot was held.
    catalog_clones: AtomicU64,
    /// Planner heuristic-bounds cache, shared across sessions — concurrent
    /// submissions over the same (unchanged) history reuse one bounds
    /// computation instead of recomputing per plan.
    bounds_cache: Arc<PlannerBoundsCache>,
    /// Durable-event sink. Drained while the catalog write lock is held,
    /// so the appended order is the commit (epoch) order.
    durability: Mutex<Option<Box<dyn DurabilityHook>>>,
}

impl SharedHyppo {
    /// Fresh shared system.
    pub fn new(config: HyppoConfig) -> Self {
        SharedHyppo::from_parts(config, History::new(), CostEstimator::new(), ArtifactStore::new())
    }

    /// Wrap existing state (typically moved out of a serial [`Hyppo`](hyppo_core::Hyppo)).
    pub fn from_parts(
        config: HyppoConfig,
        history: History,
        estimator: CostEstimator,
        store: ArtifactStore,
    ) -> Self {
        SharedHyppo {
            config,
            catalog: RwLock::new(Arc::new(CatalogVersion { epoch: 0, history, estimator })),
            store: SharedArtifactStore::from_store(store),
            cumulative_seconds: Mutex::new(0.0),
            lock_wait_nanos: AtomicU64::new(0),
            catalog_clones: AtomicU64::new(0),
            bounds_cache: Arc::new(PlannerBoundsCache::new()),
            durability: Mutex::new(None),
        }
    }

    /// The current catalog version — an immutable epoch-stamped snapshot.
    ///
    /// The lock is held only for the `Arc` clone; planning against the
    /// returned version proceeds with **no** lock held, and commits with a
    /// higher epoch never mutate it (copy-on-write).
    pub fn snapshot(&self) -> Arc<CatalogVersion> {
        let start = Instant::now();
        let snap = Arc::clone(&self.catalog.read().unwrap_or_else(|e| e.into_inner()));
        self.record_wait(start);
        snap
    }

    /// The latest committed epoch.
    pub fn current_epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Commit one catalog mutation: clone-on-write the current version,
    /// apply `mutate`, bump the epoch, and drain journaled events into the
    /// attached durability hook while the write lock is still held (WAL
    /// order = epoch order). Returns the mutation's result, the new epoch,
    /// and the durability outcome.
    fn commit<R>(
        &self,
        mutate: impl FnOnce(&mut History, &mut CostEstimator) -> R,
    ) -> (R, u64, std::io::Result<()>) {
        let ((result, epoch), durable) = self.write(|version| {
            let result = mutate(&mut version.history, &mut version.estimator);
            version.epoch += 1;
            (result, version.epoch)
        });
        (result, epoch, durable)
    }

    /// Run `f` on the current version under the catalog write lock, then
    /// drain the journal into the hook before the lock is released.
    fn write<R>(&self, f: impl FnOnce(&mut CatalogVersion) -> R) -> (R, std::io::Result<()>) {
        let start = Instant::now();
        let mut guard = self.catalog.write().unwrap_or_else(|e| e.into_inner());
        self.record_wait(start);
        let before = Arc::as_ptr(&guard);
        let version = Arc::make_mut(&mut guard);
        if !std::ptr::eq(before, version) {
            // hyppo-lint: allow(relaxed-ordering-justified) a gauge; it
            // orders nothing, and the write lock serializes the adds anyway
            self.catalog_clones.fetch_add(1, Ordering::Relaxed);
        }
        let result = f(version);
        // hyppo-lint: allow(blocking-in-critical-section) draining the WAL
        // inside the commit critical section is what makes WAL order equal
        // epoch order (DESIGN.md §14); moving it outside would reorder
        let durable = self.drain_events(&mut version.history);
        (result, durable)
    }

    /// Attach a durability hook and start journaling history mutations and
    /// estimator observations. Every commit drains its events into the
    /// hook inside the catalog write-lock critical section, so replaying
    /// the log serially rebuilds the state this concurrent system reached.
    pub fn attach_durability(&self, hook: Box<dyn DurabilityHook>) {
        *self.durability.lock().unwrap_or_else(|e| e.into_inner()) = Some(hook);
        let (_, _, durable) = self.commit(|history, _| history.enable_event_journal());
        debug_assert!(durable.is_ok(), "journal enablement emits no events");
    }

    /// Detach and return the durability hook, if any. Journaled events not
    /// yet flushed stay queued in the history journal.
    pub fn detach_durability(&self) -> Option<Box<dyn DurabilityHook>> {
        self.durability.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    /// Drain queued events (e.g. from [`SharedHyppo::register_dataset`])
    /// into the attached durability hook.
    ///
    /// An idle flush (nothing journaled) returns without touching the
    /// catalog, so it never copies a version a planner still holds.
    /// Events are journaled only under the write lock, so a version seen
    /// with none pending has nothing for this flush to drain.
    pub fn flush_durability(&self) -> std::io::Result<()> {
        if !self.snapshot().history.has_pending_events() {
            return Ok(());
        }
        self.write(|_| ()).1
    }

    /// Drain the history journal into the hook. Callers hold the catalog
    /// write lock (`history` proves it), which makes the append order the
    /// commit order.
    fn drain_events(&self, history: &mut History) -> std::io::Result<()> {
        let mut guard = self.durability.lock().unwrap_or_else(|e| e.into_inner());
        let Some(hook) = guard.as_mut() else {
            return Ok(());
        };
        let events = history.take_events();
        if events.is_empty() {
            return Ok(());
        }
        // hyppo-lint: allow(blocking-in-critical-section) appends must retire
        // in commit order, which the durability mutex guarantees; the hook's
        // IO (buffer or fsync) is the point of holding it
        hook.append(&events)
    }

    /// Tear down into `(history, estimator, store, cumulative_seconds)` —
    /// the inverse of [`SharedHyppo::from_parts`].
    pub fn into_parts(self) -> (History, CostEstimator, ArtifactStore, f64) {
        let version = self.catalog.into_inner().unwrap_or_else(|e| e.into_inner());
        let version = Arc::try_unwrap(version).unwrap_or_else(|arc| (*arc).clone());
        let cumulative = *self.cumulative_seconds.lock().unwrap_or_else(|e| e.into_inner());
        (version.history, version.estimator, self.store.into_store(), cumulative)
    }

    /// Register a raw dataset as loadable from the source.
    pub fn register_dataset(&self, id: &str, dataset: Dataset) {
        let size = dataset.size_bytes() as u64;
        self.store.register_dataset(id, dataset);
        let (_, _, durable) = self.commit(|history, _| history.record_dataset(id, size));
        // Registration events stay queued on hook failure; the next
        // successful submission re-drains them.
        let _ = durable;
    }

    /// Cumulative execution seconds across all submissions so far.
    pub fn cumulative_seconds(&self) -> f64 {
        *self.cumulative_seconds.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Bounds-cache counters across all sessions sharing this system:
    /// hits, from-scratch recomputes, and journal-repaired patch-forwards.
    pub fn bounds_stats(&self) -> hyppo_core::BoundsCacheStats {
        self.bounds_cache.stats()
    }

    /// Commits that found a snapshot of the current version still held
    /// and so copied the catalog (`Arc::make_mut` cloned) before mutating.
    pub fn catalog_clones(&self) -> u64 {
        // hyppo-lint: allow(relaxed-ordering-justified) a gauge read; it
        // orders nothing
        self.catalog_clones.load(Ordering::Relaxed)
    }

    /// Wall-clock seconds spent waiting on any lock (store shards plus the
    /// catalog cell).
    pub fn lock_wait_seconds(&self) -> f64 {
        // hyppo-lint: allow(relaxed-ordering-justified) contention gauge; a torn
        // sum across in-flight adds is acceptable for metrics
        self.store.lock_wait_seconds() + self.lock_wait_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    fn record_wait(&self, start: Instant) {
        let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        // hyppo-lint: allow(relaxed-ordering-justified) contention gauge only
        self.lock_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Submit one pipeline. Safe to call from many threads at once.
    pub fn submit_shared(&self, spec: PipelineSpec) -> Result<SharedRun, SubmitError> {
        engine::submit(&mut &*self, spec)
    }

    /// Retrieve previously computed artifacts by name (paper Scenario 2),
    /// planning over the shared history's alternatives only. Safe to call
    /// from many threads at once.
    pub fn retrieve_shared(&self, names: &[ArtifactName]) -> Result<SharedRun, SubmitError> {
        engine::retrieve(&mut &*self, names)
    }

    /// Submit K pipelines as one jointly planned batch (the concurrent
    /// counterpart of [`Hyppo::submit_batch`](hyppo_core::Hyppo::submit_batch)):
    /// augment and cost-annotate all K against one epoch snapshot, plan
    /// them together through the shared bounds cache, then execute and
    /// commit each item in order. An item that loses a race with eviction —
    /// its own batch's materialization or a concurrent session's — falls
    /// back to a full replan, counted in [`BatchRunReport::replans`].
    pub fn submit_batch_shared(
        &self,
        specs: Vec<PipelineSpec>,
    ) -> Result<SharedBatchRun, SubmitError> {
        engine::submit_batch(&mut &*self, specs)
            .map(|(batch, epochs)| SharedBatchRun { batch, epochs })
    }
}

/// [`SharedHyppo`] as an engine backend, by shared reference so many
/// threads submit at once: plans read an epoch snapshot (dropped as soon
/// as planning ends), and commits go through the catalog write lock.
impl Backend for &SharedHyppo {
    type Store = SharedArtifactStore;

    fn config(&self) -> &HyppoConfig {
        &self.config
    }

    fn bounds_cache(&self) -> &Arc<PlannerBoundsCache> {
        &self.bounds_cache
    }

    fn store(&self) -> &SharedArtifactStore {
        &self.store
    }

    fn plan_view<R>(&self, plan: impl FnOnce(&History, &CostEstimator) -> R) -> (R, u64) {
        let snap = self.snapshot();
        (plan(&snap.history, &snap.estimator), snap.epoch)
    }

    fn commit<R>(
        &mut self,
        mutate: impl FnOnce(&mut History, &mut CostEstimator, &mut SharedArtifactStore) -> R,
    ) -> (R, u64, std::io::Result<()>) {
        let mut store = self.store.clone();
        SharedHyppo::commit(self, |history, estimator| mutate(history, estimator, &mut store))
    }

    fn add_cumulative_seconds(&mut self, seconds: f64) {
        *self.cumulative_seconds.lock().unwrap_or_else(|e| e.into_inner()) += seconds;
    }
}

/// [`SharedHyppo`] behind the core [`Session`] trait, so harnesses written
/// against `Session` (the baselines crate's `SessionMethod`, benches,
/// examples) drive the shared backend exactly like the serial one. For
/// several sessions over one backend, open serve [`Client`](crate::Client)s.
impl Session for SharedHyppo {
    fn backend_name(&self) -> &'static str {
        "HYPPO-shared"
    }

    fn register_dataset(&mut self, id: &str, dataset: Dataset) {
        SharedHyppo::register_dataset(self, id, dataset);
    }

    fn submit(&mut self, spec: PipelineSpec) -> Result<RunReport, SubmitError> {
        self.submit_shared(spec).map(|run| run.report)
    }

    fn submit_batch(&mut self, specs: Vec<PipelineSpec>) -> Result<Vec<RunReport>, SubmitError> {
        self.submit_batch_shared(specs).map(|b| b.batch.reports)
    }

    fn retrieve(&mut self, names: &[ArtifactName]) -> Result<RunReport, SubmitError> {
        self.retrieve_shared(names).map(|run| run.report)
    }

    fn cumulative_seconds(&self) -> f64 {
        SharedHyppo::cumulative_seconds(self)
    }

    fn budget_bytes(&self) -> u64 {
        self.config.budget_bytes
    }

    fn history_artifacts(&self) -> usize {
        self.snapshot().history.artifact_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppo_core::executor::ExecMode;
    use hyppo_workloads::ensemble_wl::wide_ensemble_spec;
    use hyppo_workloads::taxi;

    fn config(budget: u64) -> HyppoConfig {
        HyppoConfig { budget_bytes: budget, ..Default::default() }
    }

    #[test]
    fn snapshots_are_epoch_stamped_and_immutable_under_commits() {
        let shared = SharedHyppo::new(config(64 * 1024 * 1024));
        shared.register_dataset("taxi", taxi::generate(200, 5));
        let before = shared.snapshot();
        let artifacts_before = before.history.artifact_count();

        let run = shared.submit_shared(wide_ensemble_spec("taxi", 3, 7)).unwrap();
        assert!(run.report.tasks_executed > 0);
        assert!(run.epochs.commit > before.epoch, "commit must bump the epoch");
        assert_eq!(run.epochs.snapshot, before.epoch, "planned against the old snapshot");
        assert_eq!(run.epochs.lag(), 0, "no other tenant committed in between");

        // The old snapshot is frozen: the commit went into a new version.
        assert_eq!(before.history.artifact_count(), artifacts_before);
        let after = shared.snapshot();
        assert!(after.history.artifact_count() > artifacts_before);
        assert_eq!(after.epoch, run.epochs.commit);
    }

    #[test]
    fn concurrent_submissions_interleave_and_observe_lag() {
        let shared = Arc::new(SharedHyppo::new(config(64 * 1024 * 1024)));
        shared.register_dataset("taxi", taxi::generate(300, 5));
        let runs: Vec<SharedRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    scope.spawn(move || {
                        shared
                            .submit_shared(wide_ensemble_spec("taxi", 3 + i % 2, 7 + i as u64 % 2))
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("submission panicked")).collect()
        });
        // Commit epochs are distinct (one commit each) and lag accounts for
        // exactly the commits that landed in between.
        let mut commits: Vec<u64> = runs.iter().map(|r| r.epochs.commit).collect();
        commits.sort_unstable();
        commits.dedup();
        assert_eq!(commits.len(), 4, "every submission commits its own epoch");
        for run in &runs {
            assert_eq!(
                run.epochs.lag(),
                runs.iter()
                    .filter(|o| o.epochs.commit > run.epochs.snapshot
                        && o.epochs.commit < run.epochs.commit)
                    .count() as u64
            );
        }

        // No lost materializations: every artifact the history believes is
        // materialized must actually be in the store.
        let shared = Arc::try_unwrap(shared).expect("all threads joined");
        let (history, _, store, cumulative) = shared.into_parts();
        for name in history.materialized() {
            assert!(store.contains(name), "history says {name} is materialized; store disagrees");
        }
        assert!(cumulative > 0.0);
    }

    #[test]
    fn budget_is_respected_under_concurrency() {
        let budget = 32 * 1024;
        let shared = Arc::new(SharedHyppo::new(config(budget)));
        shared.register_dataset("taxi", taxi::generate(200, 5));
        std::thread::scope(|scope| {
            for i in 0..4 {
                let shared = Arc::clone(&shared);
                scope.spawn(move || {
                    shared
                        .submit_shared(wide_ensemble_spec("taxi", 3 + i % 2, 7 + i as u64 % 2))
                        .unwrap();
                });
            }
        });
        let shared = Arc::try_unwrap(shared).expect("all threads joined");
        let (_, _, store, _) = shared.into_parts();
        assert!(
            store.used_bytes() <= budget,
            "store uses {} > budget {budget}",
            store.used_bytes()
        );
    }

    #[test]
    fn shared_hyppo_is_a_session() {
        let mut session = SharedHyppo::new(config(64 * 1024 * 1024));
        Session::register_dataset(&mut session, "taxi", taxi::generate(300, 5));
        let report = session.submit(wide_ensemble_spec("taxi", 3, 7)).unwrap();
        assert!(report.tasks_executed > 0);
        assert_eq!(session.backend_name(), "HYPPO-shared");
        assert!(Session::cumulative_seconds(&session) > 0.0);
        assert!(session.history_artifacts() > 0);

        // Scenario 2 against the shared backend: retrieve recorded value
        // artifacts by name.
        let names: Vec<ArtifactName> = {
            let snap = session.snapshot();
            snap.history
                .artifact_names()
                .filter(|&n| {
                    let node = snap.history.node_of(n).unwrap();
                    snap.history.graph.node(node).role == hyppo_pipeline::ArtifactRole::Value
                })
                .collect()
        };
        assert!(!names.is_empty());
        let report = session.retrieve(&names).unwrap();
        assert!(report.tasks_executed >= 1);
        assert_eq!(report.values.len(), names.len());
    }

    #[test]
    fn a_resubmission_reuses_the_first_submissions_artifacts() {
        let shared = SharedHyppo::new(config(64 * 1024 * 1024));
        shared.register_dataset("taxi", taxi::generate(300, 5));
        shared.submit_shared(wide_ensemble_spec("taxi", 3, 7)).unwrap();
        let run = shared.submit_shared(wide_ensemble_spec("taxi", 3, 7)).unwrap();
        assert!(run.report.loads >= 1, "the second submission should reuse the first's artifacts");
    }

    #[test]
    fn bounds_cache_is_shared_and_counters_account_for_every_lookup() {
        let shared = SharedHyppo::new(config(64 * 1024 * 1024));
        shared.register_dataset("taxi", taxi::generate(300, 5));
        shared.submit_shared(wide_ensemble_spec("taxi", 3, 7)).unwrap();
        shared.submit_shared(wide_ensemble_spec("taxi", 3, 7)).unwrap();
        let stats = shared.bounds_stats();
        // Every plan call consulted the shared cache: at least one lookup
        // ran the relaxations, and each lookup landed in exactly one bucket
        // (an identical resubmission over an unchanged history hits; a grown
        // history with unchanged costs on the old prefix repairs; estimator
        // drift recomputes — all three are legitimate here).
        assert!(stats.misses >= 1);
        assert!(stats.hits + stats.misses + stats.repairs >= 2);
    }

    #[test]
    fn batch_submission_plans_jointly_and_executes_in_order() {
        let shared = SharedHyppo::new(config(64 * 1024 * 1024));
        shared.register_dataset("taxi", taxi::generate(300, 5));
        // Duplicates in the batch: items 0 and 2 are the same spec, so the
        // joint planner collapses them into one group.
        let specs = vec![
            wide_ensemble_spec("taxi", 3, 7),
            wide_ensemble_spec("taxi", 4, 8),
            wide_ensemble_spec("taxi", 3, 7),
        ];
        let snapshot_before = shared.current_epoch();
        let run = shared.submit_batch_shared(specs).unwrap();
        let batch = run.batch;
        assert_eq!(batch.reports.len(), 3);
        assert_eq!(batch.batch.items, 3);
        assert_eq!(batch.batch.groups, 2, "duplicate specs dedup into one group");
        assert_eq!(batch.batch.deduped, 1);
        assert_eq!(
            batch.reports[0].planned_cost.to_bits(),
            batch.reports[2].planned_cost.to_bits(),
            "deduped items carry the identical plan"
        );
        assert!(batch.reports.iter().all(|r| r.tasks_executed > 0));
        // Each item committed one epoch, in order, from one snapshot.
        assert_eq!(run.epochs.snapshot, snapshot_before);
        assert_eq!(run.epochs.commit, snapshot_before + 3);
        // The per-batch delta never exceeds the cumulative counters.
        let total = shared.bounds_stats();
        assert!(batch.bounds_delta.misses <= total.misses);
        assert!(batch.bounds_delta.batch_leaf_repairs <= total.batch_leaf_repairs);
    }

    #[test]
    fn session_batch_submission_matches_sequential_plans() {
        // Same specs through both paths, against equally fresh backends:
        // planner bit-identity lifts to identical planned costs.
        let specs = || vec![wide_ensemble_spec("taxi", 3, 7), wide_ensemble_spec("taxi", 4, 8)];
        let seq: Vec<f64> = specs()
            .into_iter()
            .map(|s| {
                let fresh = SharedHyppo::new(config(0));
                fresh.register_dataset("taxi", taxi::generate(300, 5));
                fresh.submit_shared(s).unwrap().report.planned_cost
            })
            .collect();
        let mut batched = SharedHyppo::new(config(0));
        batched.register_dataset("taxi", taxi::generate(300, 5));
        let reports = Session::submit_batch(&mut batched, specs()).unwrap();
        assert_eq!(reports.len(), 2);
        for (r, s) in reports.iter().zip(&seq) {
            assert_eq!(r.planned_cost.to_bits(), s.to_bits());
        }
    }

    #[derive(Debug)]
    struct FailingHook;

    impl DurabilityHook for FailingHook {
        fn append(&mut self, _: &[hyppo_core::DurableEvent]) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn a_failed_durability_drain_still_counts_the_execution() {
        let shared = SharedHyppo::new(HyppoConfig { mode: ExecMode::Simulated, ..config(0) });
        shared.register_dataset("taxi", taxi::generate(100, 5));
        shared.attach_durability(Box::new(FailingHook));
        let before = shared.current_epoch();
        let err = shared.submit_shared(wide_ensemble_spec("taxi", 3, 7)).unwrap_err();
        assert!(matches!(err, SubmitError::Durability(_)), "{err}");
        assert_eq!(shared.current_epoch(), before + 1, "the commit applied");
        assert!(shared.cumulative_seconds() > 0.0, "so its execution time counts");
    }

    /// Counts the events appended to it.
    #[derive(Debug)]
    struct CountingHook(Arc<AtomicU64>);

    impl DurabilityHook for CountingHook {
        fn append(&mut self, events: &[hyppo_core::DurableEvent]) -> std::io::Result<()> {
            self.0.fetch_add(events.len() as u64, Ordering::SeqCst);
            Ok(())
        }
    }

    #[test]
    fn an_idle_flush_makes_no_catalog_copy() {
        let shared = SharedHyppo::new(HyppoConfig { mode: ExecMode::Simulated, ..config(0) });
        let appended = Arc::new(AtomicU64::new(0));
        shared.attach_durability(Box::new(CountingHook(Arc::clone(&appended))));
        shared.register_dataset("taxi", taxi::generate(100, 5));
        shared.submit_shared(wide_ensemble_spec("taxi", 3, 7)).unwrap();
        assert_eq!(shared.catalog_clones(), 0, "uncontended commits mutate in place");
        let drained = appended.load(Ordering::SeqCst);
        assert!(drained > 0);

        let held = shared.snapshot();
        shared.flush_durability().unwrap();
        shared.flush_durability().unwrap();
        assert!(Arc::ptr_eq(&held, &shared.snapshot()), "an idle flush leaves the version");
        assert_eq!(shared.catalog_clones(), 0);
        assert_eq!(appended.load(Ordering::SeqCst), drained, "and appends nothing");

        // A commit while the snapshot is held copies once.
        shared.submit_shared(wide_ensemble_spec("taxi", 3, 8)).unwrap();
        assert_eq!(shared.catalog_clones(), 1);
        assert!(!Arc::ptr_eq(&held, &shared.snapshot()));
    }

    #[test]
    fn simulated_mode_runs_on_the_virtual_clock() {
        let shared = SharedHyppo::new(HyppoConfig { mode: ExecMode::Simulated, ..config(0) });
        shared.register_dataset("taxi", taxi::generate(100, 5));
        let run = shared.submit_shared(wide_ensemble_spec("taxi", 3, 7)).unwrap();
        assert!(run.report.values.is_empty());
        assert!(run.report.execution_seconds > 0.0);
    }
}
