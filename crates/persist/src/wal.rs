//! The write-ahead log: an append-only, length-prefixed + CRC-framed file
//! of [`DurableEvent`]s.
//!
//! # Format
//!
//! ```text
//! [b"HYPPOWAL"][version: u32 le]            — 12-byte header
//! [len: u32 le][crc32(payload): u32 le][payload]   — repeated records
//! ```
//!
//! The payload is the JSON serialization of one [`DurableEvent`]. A batch
//! append is one `write_all` + one `fsync`, so record order on disk is the
//! order hooks delivered events in — which, for `SharedHyppo`, is the
//! history write-lock linearization order.
//!
//! # Torn tails
//!
//! A crash mid-append leaves a *torn tail*: a trailing record whose length
//! prefix, checksum, or payload is incomplete. [`read_wal`] stops at the
//! first record that fails any check and reports everything after the last
//! valid record as torn; [`WalWriter::open`] physically truncates the torn
//! bytes so the next append starts at a record boundary. Only the magic
//! header is unforgiving — a file that exists but does not start with
//! `HYPPOWAL` is some other file, and overwriting it would destroy data we
//! do not own.

use hyppo_core::codec::crc32;
use hyppo_core::durable::{DurabilityHook, DurableEvent};
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"HYPPOWAL";
/// Current format version.
pub const WAL_VERSION: u32 = 1;
/// Header length: magic + version.
pub const WAL_HEADER_LEN: u64 = 12;
/// Upper bound on a single record's payload; a larger length prefix is
/// treated as a torn/corrupt tail rather than trusted.
const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// What [`read_wal`] found in a WAL file.
#[derive(Clone, Debug, Default)]
pub struct WalContents {
    /// Every valid event, in append order.
    pub events: Vec<DurableEvent>,
    /// Bytes of the valid prefix (header + whole records). Appends must
    /// resume here.
    pub valid_bytes: u64,
    /// Bytes after the valid prefix (a torn or corrupt tail). Zero for a
    /// cleanly closed log.
    pub torn_bytes: u64,
    /// Byte offset after the header and after each valid record —
    /// `boundaries[k]` is the file length holding exactly `k` events.
    /// Empty when the file is missing or its header is torn.
    pub boundaries: Vec<u64>,
}

/// Read and validate a WAL file. A missing file is an empty log; a present
/// file with a foreign header is an error (never silently overwritten).
pub fn read_wal(path: &Path) -> std::io::Result<WalContents> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalContents::default()),
        Err(e) => return Err(e),
    };
    if bytes.len() < WAL_HEADER_LEN as usize {
        // Crash during header creation: the whole file is a torn tail.
        return Ok(WalContents { torn_bytes: bytes.len() as u64, ..Default::default() });
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{} is not a HYPPO WAL (bad magic)", path.display()),
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("length checked"));
    if version > WAL_VERSION {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("WAL version {version} is newer than supported {WAL_VERSION}"),
        ));
    }
    let mut contents = WalContents { valid_bytes: WAL_HEADER_LEN, ..Default::default() };
    contents.boundaries.push(WAL_HEADER_LEN);
    let mut off = WAL_HEADER_LEN as usize;
    loop {
        if off + 8 > bytes.len() {
            break; // torn record header
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("length checked"));
        let stored_crc =
            u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("length checked"));
        if len > MAX_RECORD_LEN {
            break; // implausible length: torn or corrupt
        }
        let end = off + 8 + len as usize;
        if end > bytes.len() {
            break; // torn payload
        }
        let payload = &bytes[off + 8..end];
        if crc32(payload) != stored_crc {
            break; // corrupt payload
        }
        let Ok(text) = std::str::from_utf8(payload) else { break };
        let Ok(event) = serde_json::from_str::<DurableEvent>(text) else { break };
        contents.events.push(event);
        off = end;
        contents.valid_bytes = off as u64;
        contents.boundaries.push(off as u64);
    }
    contents.torn_bytes = bytes.len() as u64 - contents.valid_bytes;
    Ok(contents)
}

/// Frame each event as one WAL record (length, checksum, JSON payload)
/// onto `out`, in order.
pub(crate) fn frame_records(events: &[DurableEvent], out: &mut Vec<u8>) -> std::io::Result<()> {
    for event in events {
        let payload = serde_json::to_string(event)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let payload = payload.as_bytes();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    Ok(())
}

/// Append half of the WAL: owns the open file, truncates torn tails on
/// open, frames and fsyncs every batch.
#[derive(Debug)]
pub struct WalWriter {
    file: std::fs::File,
    path: PathBuf,
    len: u64,
}

impl WalWriter {
    /// Open (or create) the WAL at `path`, validating the existing
    /// contents and physically truncating any torn tail. Returns the
    /// writer positioned at the end of the valid prefix together with the
    /// validated contents for replay.
    pub fn open(path: &Path) -> std::io::Result<(Self, WalContents)> {
        let contents = read_wal(path)?;
        let mut file =
            OpenOptions::new().create(true).truncate(false).read(true).write(true).open(path)?;
        let len = if contents.valid_bytes < WAL_HEADER_LEN {
            // Fresh file, or a header torn mid-creation: (re)write it.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
            file.write_all(&WAL_VERSION.to_le_bytes())?;
            file.sync_all()?;
            WAL_HEADER_LEN
        } else {
            if contents.torn_bytes > 0 {
                file.set_len(contents.valid_bytes)?;
                file.sync_all()?;
            }
            file.seek(SeekFrom::Start(contents.valid_bytes))?;
            contents.valid_bytes
        };
        Ok((WalWriter { file, path: path.to_path_buf(), len }, contents))
    }

    /// Durably append a batch of events: one buffered write, one fsync.
    pub fn append(&mut self, events: &[DurableEvent]) -> std::io::Result<()> {
        if events.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        frame_records(events, &mut buf)?;
        self.append_framed(std::slice::from_ref(&buf))
    }

    /// Durably append buffers of records framed by [`frame_records`], in
    /// order: one buffered write per buffer, one fsync for all of them.
    pub(crate) fn append_framed(&mut self, buffers: &[Vec<u8>]) -> std::io::Result<()> {
        for records in buffers {
            self.file.write_all(records)?;
        }
        self.file.sync_data()?;
        self.len += buffers.iter().map(|b| b.len() as u64).sum::<u64>();
        Ok(())
    }

    /// Truncate the log back to an empty (header-only) state. Called after
    /// a checkpoint has made the logged events redundant — the snapshot
    /// must be durably on disk *before* this runs.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(WAL_HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(WAL_HEADER_LEN))?;
        self.file.sync_all()?;
        self.len = WAL_HEADER_LEN;
        Ok(())
    }

    /// Current file length in bytes (header + appended records).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The file path this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// [`DurabilityHook`] adapter: appends every drained batch to a shared
/// [`WalWriter`]. Clonable so the same log can back a serial `Hyppo` and
/// later a `SharedHyppo` without reopening the file.
#[derive(Clone, Debug)]
pub struct WalHook {
    writer: Arc<Mutex<WalWriter>>,
}

impl WalHook {
    /// Hook appending to `writer`.
    pub fn new(writer: Arc<Mutex<WalWriter>>) -> Self {
        WalHook { writer }
    }
}

impl DurabilityHook for WalHook {
    fn append(&mut self, events: &[DurableEvent]) -> std::io::Result<()> {
        // hyppo-lint: allow(blocking-in-critical-section) the writer mutex
        // exists to serialize append+fsync (DESIGN.md §12); holding it across
        // the IO is the durability contract, not an accident
        self.writer.lock().unwrap_or_else(|e| e.into_inner()).append(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyppo_pipeline::ArtifactName;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hyppo_wal_{}_{}", name, std::process::id()))
    }

    fn sample_events(n: usize) -> Vec<DurableEvent> {
        (0..n)
            .map(|i| match i % 3 {
                0 => DurableEvent::Dataset { id: format!("d{i}"), size_bytes: i as u64 },
                1 => DurableEvent::Touch { name: ArtifactName(i as u64) },
                _ => DurableEvent::Materialize { name: ArtifactName(i as u64) },
            })
            .collect()
    }

    #[test]
    fn append_then_read_roundtrips() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (mut w, contents) = WalWriter::open(&path).unwrap();
        assert!(contents.events.is_empty());
        let events = sample_events(7);
        w.append(&events[..3]).unwrap();
        w.append(&events[3..]).unwrap();
        let back = read_wal(&path).unwrap();
        assert_eq!(back.events, events);
        assert_eq!(back.torn_bytes, 0);
        assert_eq!(back.valid_bytes, w.len_bytes());
        assert_eq!(back.boundaries.len(), events.len() + 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_on_open() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let (mut w, _) = WalWriter::open(&path).unwrap();
        let events = sample_events(4);
        w.append(&events).unwrap();
        drop(w);
        let full = read_wal(&path).unwrap();
        // Cut mid-way through the last record.
        let cut = full.boundaries[events.len() - 1] + 3;
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let torn = read_wal(&path).unwrap();
        assert_eq!(torn.events, events[..events.len() - 1]);
        assert_eq!(torn.torn_bytes, 3);

        // Reopen truncates and can append again.
        let (mut w, contents) = WalWriter::open(&path).unwrap();
        assert_eq!(contents.events.len(), events.len() - 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), contents.valid_bytes);
        w.append(&events[events.len() - 1..]).unwrap();
        assert_eq!(read_wal(&path).unwrap().events, events);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_payload_truncates_from_the_corruption() {
        let path = tmp("corrupt");
        let _ = std::fs::remove_file(&path);
        let (mut w, _) = WalWriter::open(&path).unwrap();
        let events = sample_events(3);
        w.append(&events).unwrap();
        drop(w);
        // Flip one byte inside the second record's payload.
        let full = read_wal(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let off = full.boundaries[1] as usize + 8 + 1;
        bytes[off] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let back = read_wal(&path).unwrap();
        assert_eq!(back.events, events[..1], "only the prefix before the corruption survives");
        assert!(back.torn_bytes > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_file_is_an_error_not_overwritten() {
        let path = tmp("foreign");
        std::fs::write(&path, b"definitely not a wal, but longer than a header").unwrap();
        assert!(read_wal(&path).is_err());
        assert!(WalWriter::open(&path).is_err());
        // Contents untouched.
        assert!(std::fs::read(&path).unwrap().starts_with(b"definitely"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        let contents = read_wal(&path).unwrap();
        assert!(contents.events.is_empty());
        assert_eq!(contents.valid_bytes, 0);
        assert!(contents.boundaries.is_empty());
    }

    #[test]
    fn reset_empties_the_log() {
        let path = tmp("reset");
        let _ = std::fs::remove_file(&path);
        let (mut w, _) = WalWriter::open(&path).unwrap();
        w.append(&sample_events(5)).unwrap();
        w.reset().unwrap();
        assert_eq!(w.len_bytes(), WAL_HEADER_LEN);
        let back = read_wal(&path).unwrap();
        assert!(back.events.is_empty());
        assert_eq!(back.torn_bytes, 0);
        // Still appendable after reset.
        w.append(&sample_events(2)).unwrap();
        assert_eq!(read_wal(&path).unwrap().events.len(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
