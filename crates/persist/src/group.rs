//! Group commit: one fsync per commit group instead of one per submission.
//!
//! [`WalHook`](crate::WalHook) fsyncs every drained batch — correct, but
//! under concurrent serving traffic each tenant submission pays a full
//! `sync_data` even when dozens of commits land within the same
//! millisecond. [`GroupCommitWal`] splits the hook into two halves:
//!
//! - [`DurabilityHook::append`] only *frames and buffers*: events drained
//!   inside the catalog write lock (commit order = epoch order) are
//!   serialized into WAL records on the committing thread and appended to
//!   an in-memory pending buffer, preserving that order. No IO, no fsync.
//! - [`GroupCommitWal::flush_group`] takes everything pending and hands it
//!   to the underlying [`WalWriter`] as **one** batch of framed records —
//!   one buffered write per delivery, one `sync_data`, regardless of how
//!   many submissions contributed. The flushing thread does IO only, so a
//!   dedicated log writer needs no CPU to speak of.
//!
//! The serving layer calls `flush_group` at commit-group boundaries (every
//! `commit_group` epochs, and whenever the runtime drains idle), making
//! the epoch boundary the WAL linearization point.
//!
//! # Durability contract
//!
//! Events are crash-durable only after the `flush_group` covering them
//! returns `Ok`. A crash before that loses the *suffix* of buffered
//! events, never a middle slice: the pending queue is drained in order and
//! the WAL's CRC framing truncates torn tails at a record boundary, so
//! recovery always replays a clean prefix of the committed epochs — the
//! crash test in `tests/group_commit_crash.rs` cuts exactly at an epoch
//! boundary and mid-group to prove both.

use crate::wal::{frame_records, WalWriter};
use hyppo_core::durable::{DurabilityHook, DurableEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counters describing how much fsync traffic group commit absorbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Hook deliveries buffered (one per draining commit).
    pub appends: u64,
    /// Individual events buffered across all deliveries.
    pub events: u64,
    /// `flush_group` calls that found work and paid one fsync each.
    pub fsyncs: u64,
}

/// Framed records not yet on disk, in commit (epoch) order.
#[derive(Debug, Default)]
struct Pending {
    /// One buffer per delivery. Kept apart rather than concatenated, so a
    /// flush that lags behind many commits holds many small buffers, not
    /// one large one that the allocator would have to map and unmap.
    records: Vec<Vec<u8>>,
    /// Events framed in `records`.
    events: usize,
}

#[derive(Debug)]
struct GroupInner {
    pending: Mutex<Pending>,
    /// The log itself. Locked only by `flush_group`, never while `pending`
    /// is held.
    writer: Mutex<WalWriter>,
    appends: AtomicU64,
    events: AtomicU64,
    fsyncs: AtomicU64,
}

/// A group-committing [`DurabilityHook`] over one [`WalWriter`].
///
/// Clonable handle: the serving runtime keeps one clone to flush on group
/// boundaries while the backend owns another as its attached hook.
#[derive(Clone, Debug)]
pub struct GroupCommitWal {
    inner: Arc<GroupInner>,
}

impl GroupCommitWal {
    /// Group-commit hook appending to `writer`.
    pub fn new(writer: WalWriter) -> Self {
        GroupCommitWal {
            inner: Arc::new(GroupInner {
                pending: Mutex::new(Pending::default()),
                writer: Mutex::new(writer),
                appends: AtomicU64::new(0),
                events: AtomicU64::new(0),
                fsyncs: AtomicU64::new(0),
            }),
        }
    }

    /// Durably write everything buffered so far as one batch — the framed
    /// records of each delivery in order, then one `sync_data`. Returns how
    /// many events were flushed (zero when nothing was pending, in which
    /// case no IO happens).
    pub fn flush_group(&self) -> std::io::Result<usize> {
        // Take the batch first and release `pending` before touching the
        // writer: appends from concurrent commits never wait on the fsync,
        // they just land in the next group.
        let batch = std::mem::take(&mut *self.lock_pending());
        if batch.events == 0 {
            return Ok(0);
        }
        let mut writer = self.inner.writer.lock().unwrap_or_else(|e| e.into_inner());
        // hyppo-lint: allow(blocking-in-critical-section) group-commit flush:
        // the writer mutex is the WAL serialization point, and holding it
        // across append+fsync is what makes the epoch group durable as a unit
        let result = writer.append_framed(&batch.records);
        drop(writer);
        match result {
            Ok(()) => {
                // hyppo-lint: allow(relaxed-ordering-justified) monotonic stats
                // counter; readers only ever see it via `stats()` snapshots
                self.inner.fsyncs.fetch_add(1, Ordering::Relaxed);
                Ok(batch.events)
            }
            Err(e) => {
                // Put the batch back at the *front* so a retry preserves
                // commit order relative to events buffered meanwhile.
                let mut pending = self.lock_pending();
                let tail = std::mem::replace(&mut *pending, batch);
                pending.records.extend(tail.records);
                pending.events += tail.events;
                Err(e)
            }
        }
    }

    /// Events buffered but not yet flushed.
    pub fn pending_events(&self) -> usize {
        self.lock_pending().events
    }

    /// Fsync-absorption counters so far.
    pub fn stats(&self) -> GroupCommitStats {
        GroupCommitStats {
            // hyppo-lint: allow(relaxed-ordering-justified) independent stats
            // gauges; a snapshot torn across concurrent flushes is acceptable
            appends: self.inner.appends.load(Ordering::Relaxed),
            // hyppo-lint: allow(relaxed-ordering-justified) stats gauge (see above)
            events: self.inner.events.load(Ordering::Relaxed),
            // hyppo-lint: allow(relaxed-ordering-justified) stats gauge (see above)
            fsyncs: self.inner.fsyncs.load(Ordering::Relaxed),
        }
    }

    /// Flush any remaining events and return the underlying writer, if
    /// this is the last handle. Call after detaching the hook from the
    /// backend so no further appends can race.
    pub fn into_writer(self) -> std::io::Result<Result<WalWriter, Self>> {
        self.flush_group()?;
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => Ok(Ok(inner.writer.into_inner().unwrap_or_else(|e| e.into_inner()))),
            Err(inner) => Ok(Err(GroupCommitWal { inner })),
        }
    }

    fn lock_pending(&self) -> std::sync::MutexGuard<'_, Pending> {
        self.inner.pending.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl DurabilityHook for GroupCommitWal {
    fn append(&mut self, events: &[DurableEvent]) -> std::io::Result<()> {
        // Serialize before taking the lock: the flushing thread only ever
        // waits on a copy of finished bytes.
        let mut records = Vec::new();
        frame_records(events, &mut records)?;
        let mut pending = self.lock_pending();
        pending.records.push(records);
        pending.events += events.len();
        drop(pending);
        // hyppo-lint: allow(relaxed-ordering-justified) monotonic stats
        // counters; ordering relative to the buffer is irrelevant
        self.inner.appends.fetch_add(1, Ordering::Relaxed);
        // hyppo-lint: allow(relaxed-ordering-justified) stats counter (see above)
        self.inner.events.fetch_add(events.len() as u64, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::read_wal;
    use hyppo_pipeline::ArtifactName;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hyppo_group_{}_{}", name, std::process::id()))
    }

    fn events(range: std::ops::Range<u64>) -> Vec<DurableEvent> {
        range.map(|i| DurableEvent::Touch { name: ArtifactName(i) }).collect()
    }

    #[test]
    fn appends_buffer_and_flush_writes_one_group() {
        let path = tmp("buffer");
        let _ = std::fs::remove_file(&path);
        let (writer, _) = WalWriter::open(&path).unwrap();
        let mut hook = GroupCommitWal::new(writer);

        hook.append(&events(0..3)).unwrap();
        hook.append(&events(3..5)).unwrap();
        assert_eq!(hook.pending_events(), 5);
        assert!(read_wal(&path).unwrap().events.is_empty(), "nothing on disk before flush");

        assert_eq!(hook.flush_group().unwrap(), 5);
        assert_eq!(hook.pending_events(), 0);
        assert_eq!(read_wal(&path).unwrap().events, events(0..5), "order preserved");

        let stats = hook.stats();
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.events, 5);
        assert_eq!(stats.fsyncs, 1, "two submissions, one fsync");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_group_flush_writes_the_bytes_of_one_direct_append() {
        let (grouped, direct) = (tmp("bytes_grouped"), tmp("bytes_direct"));
        for path in [&grouped, &direct] {
            let _ = std::fs::remove_file(path);
        }
        let mut hook = GroupCommitWal::new(WalWriter::open(&grouped).unwrap().0);
        hook.append(&events(0..3)).unwrap();
        hook.append(&[]).unwrap();
        hook.append(&events(3..7)).unwrap();
        assert_eq!(hook.flush_group().unwrap(), 7);
        let mut writer = WalWriter::open(&direct).unwrap().0;
        writer.append(&events(0..7)).unwrap();
        assert_eq!(std::fs::read(&grouped).unwrap(), std::fs::read(&direct).unwrap());
        for path in [&grouped, &direct] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn empty_flush_is_free() {
        let path = tmp("empty");
        let _ = std::fs::remove_file(&path);
        let (writer, _) = WalWriter::open(&path).unwrap();
        let hook = GroupCommitWal::new(writer);
        assert_eq!(hook.flush_group().unwrap(), 0);
        assert_eq!(hook.stats().fsyncs, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unflushed_suffix_is_lost_flushed_prefix_survives() {
        let path = tmp("crash");
        let _ = std::fs::remove_file(&path);
        let (writer, _) = WalWriter::open(&path).unwrap();
        let mut hook = GroupCommitWal::new(writer);

        hook.append(&events(0..4)).unwrap();
        hook.flush_group().unwrap();
        hook.append(&events(4..9)).unwrap();
        drop(hook); // crash: second group never flushed

        let back = read_wal(&path).unwrap();
        assert_eq!(back.events, events(0..4), "exactly the flushed prefix replays");
        assert_eq!(back.torn_bytes, 0, "group boundary is a clean record boundary");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_appends_during_flush_land_in_the_next_group() {
        let path = tmp("concurrent");
        let _ = std::fs::remove_file(&path);
        let (writer, _) = WalWriter::open(&path).unwrap();
        let hook = GroupCommitWal::new(writer);

        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let mut hook = hook.clone();
                scope.spawn(move || {
                    for i in 0..16 {
                        hook.append(&[DurableEvent::Touch { name: ArtifactName(t * 100 + i) }])
                            .unwrap();
                        if i % 5 == 0 {
                            hook.flush_group().unwrap();
                        }
                    }
                });
            }
        });
        hook.flush_group().unwrap();

        let back = read_wal(&path).unwrap();
        assert_eq!(back.events.len(), 64, "no event lost or duplicated");
        assert_eq!(hook.stats().events, 64);
        assert!(
            hook.stats().fsyncs <= 17,
            "at most one fsync per flush call, not per append: {:?}",
            hook.stats()
        );
        // Per-thread suborder is preserved (appends hold the pending lock).
        for t in 0..4u64 {
            let thread_events: Vec<u64> = back
                .events
                .iter()
                .filter_map(|e| match e {
                    DurableEvent::Touch { name } if name.0 / 100 == t => Some(name.0),
                    _ => None,
                })
                .collect();
            let mut sorted = thread_events.clone();
            sorted.sort_unstable();
            assert_eq!(thread_events, sorted, "thread {t} suborder broken");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn into_writer_flushes_the_tail() {
        let path = tmp("into");
        let _ = std::fs::remove_file(&path);
        let (writer, _) = WalWriter::open(&path).unwrap();
        let mut hook = GroupCommitWal::new(writer);
        hook.append(&events(0..3)).unwrap();
        let writer = hook.into_writer().unwrap().expect("sole handle unwraps");
        assert_eq!(read_wal(writer.path()).unwrap().events, events(0..3));
        let _ = std::fs::remove_file(&path);
    }
}
