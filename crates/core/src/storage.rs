//! Pluggable per-replica storage: the coherence write log and checkpoint
//! snapshots behind one narrow interface.
//!
//! A [`StoreReplica`](crate::StoreReplica) never touches its log
//! directly any more — every access goes through [`StoreBackend`]:
//! append a write, read the suffix past a logical index, checkpoint the
//! semantics snapshot at a version vector, truncate the prefix below an
//! all-peers-acked checkpoint. Two implementations ship:
//!
//! * [`MemoryBackend`] — the original RAM-only log, bit-for-bit the
//!   pre-refactor behavior (and still the default);
//! * [`DurableBackend`] — a write-ahead log plus periodic snapshot on
//!   the local filesystem ([`RuntimeConfig::durable_dir`]), so a
//!   restarted store recovers its state from its own disk and fetches
//!   only the missing log *suffix* from the home instead of a full
//!   state transfer.
//!
//! Log indices handed out by a backend are **logical**: they keep
//! counting across compaction, so `peer_sent` cursors held by the home
//! survive a truncation (compaction only ever drops entries below the
//! checkpoint every peer acknowledged, hence below every cursor).
//!
//! [`RuntimeConfig::durable_dir`]: crate::RuntimeConfig::durable_dir

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use globe_coherence::{PageKey, StoreId, VersionVector, WriteId};
use globe_naming::ObjectId;
use globe_wire::wire_record;

use crate::messages::LoggedWrite;

/// Storage knobs carried by [`RuntimeConfig`](crate::RuntimeConfig) and
/// threaded through the creation plan into every replica.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageSpec {
    /// Directory for write-ahead logs and checkpoint snapshots. `None`
    /// (the default) keeps every replica on the RAM-only
    /// [`MemoryBackend`].
    pub durable_dir: Option<PathBuf>,
    /// Take a checkpoint (and start the compaction handshake) every
    /// this many appended writes at the home store. `0` disables
    /// checkpointing — the pre-refactor behavior.
    pub checkpoint_every: usize,
}

impl StorageSpec {
    /// Builds the backend this spec asks for. Falls back to the
    /// in-memory backend (with a note on stderr) if the durable
    /// directory cannot be opened.
    pub(crate) fn make_backend(&self, object: ObjectId, store: StoreId) -> Box<dyn StoreBackend> {
        match &self.durable_dir {
            None => Box::new(MemoryBackend::new()),
            Some(dir) => match DurableBackend::open(dir, object, store) {
                Ok(backend) => Box::new(backend),
                Err(e) => {
                    eprintln!(
                        "globe-core: durable backend unavailable at {} ({e}); using memory",
                        dir.display()
                    );
                    Box::new(MemoryBackend::new())
                }
            },
        }
    }
}

/// Everything a checkpoint pins down: the semantics snapshot and the
/// coherence metadata needed to serve reads from it after recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointImage {
    /// The applied vector at the checkpoint.
    pub version: VersionVector,
    /// Marshalled semantics snapshot.
    pub state: Bytes,
    /// Last writer per page, so `sees` metadata survives recovery.
    pub writers: Vec<(PageKey, WriteId)>,
    /// Sequencer order height (sequential model).
    pub order_high: Option<u64>,
}

wire_record!(CheckpointImage {
    version,
    state,
    writers,
    order_high
});

/// What a durable backend salvaged from its local files at open time:
/// the last checkpoint (if one was written) plus every write-ahead-log
/// entry still on disk. The replica restores the snapshot, replays the
/// log entries past it, and then joins with a non-empty version vector
/// so the home ships only a delta.
#[derive(Debug)]
pub struct Recovery {
    /// The last checkpoint snapshot written before the restart.
    pub checkpoint: Option<CheckpointImage>,
    /// Write-ahead-log entries on disk, oldest first (may include
    /// entries already covered by the checkpoint; replay skips those).
    pub log: Vec<LoggedWrite>,
}

/// The replica-facing storage interface: an append-only write log with
/// logical (compaction-surviving) indices, plus checkpoint and
/// truncation hooks.
pub trait StoreBackend: std::fmt::Debug + Send {
    /// Appends one write to the log (and, for durable backends, to the
    /// write-ahead log on disk).
    fn append(&mut self, write: &LoggedWrite);
    /// Logical log length: `base() +` the number of retained entries.
    fn len(&self) -> usize;
    /// True when the log has never held an entry (or everything was
    /// compacted away and the base is still zero).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Logical index of the first retained entry (grows at each
    /// compaction).
    fn base(&self) -> usize;
    /// Entries from logical index `from` on; `from` below `base()` is
    /// clamped (those entries are gone — callers guard with the
    /// compaction floor before relying on completeness).
    fn suffix_from(&self, from: usize) -> &[LoggedWrite];
    /// Every retained entry, oldest first.
    fn retained(&self) -> &[LoggedWrite];
    /// Replaces the whole log (a lifecycle/fail-over state transfer):
    /// logical indices restart at zero and, for durable backends, the
    /// checkpoint image is written so local recovery reflects the
    /// transfer rather than the pre-transfer history.
    fn install(&mut self, image: &CheckpointImage, log: Vec<LoggedWrite>);
    /// Records a checkpoint at the image's version (durable backends
    /// persist the snapshot; the log is untouched until
    /// [`StoreBackend::truncate_covered`]).
    fn checkpoint(&mut self, image: &CheckpointImage);
    /// Drops the longest log *prefix* fully covered by `version` and
    /// bumps the base past it; returns how many entries went.
    fn truncate_covered(&mut self, version: &VersionVector) -> usize;
    /// Hands over (at most once) whatever state the backend recovered
    /// from local durable storage when it was opened.
    fn take_recovery(&mut self) -> Option<Recovery>;
}

/// How many leading retained entries `version` fully covers.
fn covered_prefix(entries: &[LoggedWrite], version: &VersionVector) -> usize {
    entries.iter().take_while(|w| version.covers(w.wid)).count()
}

/// The original RAM-only write log — the default backend.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    base: usize,
    entries: Vec<LoggedWrite>,
}

impl MemoryBackend {
    /// An empty in-memory log.
    pub fn new() -> Self {
        MemoryBackend::default()
    }
}

impl StoreBackend for MemoryBackend {
    fn append(&mut self, write: &LoggedWrite) {
        self.entries.push(write.clone());
    }
    fn len(&self) -> usize {
        self.base + self.entries.len()
    }
    fn base(&self) -> usize {
        self.base
    }
    fn suffix_from(&self, from: usize) -> &[LoggedWrite] {
        &self.entries[from.saturating_sub(self.base).min(self.entries.len())..]
    }
    fn retained(&self) -> &[LoggedWrite] {
        &self.entries
    }
    fn install(&mut self, _image: &CheckpointImage, log: Vec<LoggedWrite>) {
        self.base = 0;
        self.entries = log;
    }
    fn checkpoint(&mut self, _image: &CheckpointImage) {}
    fn truncate_covered(&mut self, version: &VersionVector) -> usize {
        let n = covered_prefix(&self.entries, version);
        if n > 0 {
            self.entries.drain(..n);
            self.base += n;
        }
        n
    }
    fn take_recovery(&mut self) -> Option<Recovery> {
        None
    }
}

/// Write-ahead log + periodic snapshot on the local filesystem.
///
/// Layout under the configured directory, one pair per replica
/// (`o<object>_s<store>.wal` / `.snap`):
///
/// * the WAL starts with the logical base index (`u64` little-endian)
///   and then holds length-prefixed wire-encoded [`LoggedWrite`]
///   records; a torn tail (crash mid-append) is detected and truncated
///   at open;
/// * the snapshot is one wire-encoded [`CheckpointImage`], written to a
///   temp file and atomically renamed in.
///
/// Appends go straight to the file descriptor; the WAL is rewritten
/// wholesale only on compaction and on state-transfer installs.
#[derive(Debug)]
pub struct DurableBackend {
    wal_path: PathBuf,
    snap_path: PathBuf,
    wal: File,
    base: usize,
    entries: Vec<LoggedWrite>,
    recovery: Option<Recovery>,
}

impl DurableBackend {
    /// Opens (creating if absent) the WAL + snapshot pair for one
    /// replica, salvaging any state a previous incarnation left behind.
    pub fn open(dir: &Path, object: ObjectId, store: StoreId) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let stem = format!("o{}_s{}", object.raw(), store.raw());
        let wal_path = dir.join(format!("{stem}.wal"));
        let snap_path = dir.join(format!("{stem}.snap"));

        let checkpoint = match fs::read(&snap_path) {
            Ok(bytes) => globe_wire::from_bytes::<CheckpointImage>(&bytes).ok(),
            Err(_) => None,
        };

        let mut base = 0usize;
        let mut entries = Vec::new();
        let mut good_end = 0u64;
        if let Ok(raw) = fs::read(&wal_path) {
            let mut cursor = &raw[..];
            if cursor.len() >= 8 {
                #[allow(clippy::unwrap_used)]
                // lint: allow(panic) — infallible: the slice is exactly 8 bytes by the length check above
                let stored_base = u64::from_le_bytes(cursor[..8].try_into().unwrap());
                base = stored_base as usize;
                cursor = &cursor[8..];
                good_end = 8;
                while cursor.len() >= 4 {
                    #[allow(clippy::unwrap_used)]
                    // lint: allow(panic) — infallible: the slice is exactly 4 bytes by the loop condition
                    let len = u32::from_le_bytes(cursor[..4].try_into().unwrap()) as usize;
                    if cursor.len() < 4 + len {
                        break;
                    }
                    match globe_wire::from_bytes::<LoggedWrite>(&cursor[4..4 + len]) {
                        Ok(write) => entries.push(write),
                        Err(_) => break,
                    }
                    cursor = &cursor[4 + len..];
                    good_end += 4 + len as u64;
                }
            }
        }

        let wal = if good_end == 0 {
            let mut f = File::create(&wal_path)?;
            f.write_all(&(base as u64).to_le_bytes())?;
            f
        } else {
            let f = OpenOptions::new().append(true).open(&wal_path)?;
            f.set_len(good_end)?; // drop any torn tail before appending
            f
        };

        let recovery = if checkpoint.is_some() || !entries.is_empty() {
            Some(Recovery {
                checkpoint,
                log: entries.clone(),
            })
        } else {
            None
        };

        Ok(DurableBackend {
            wal_path,
            snap_path,
            wal,
            base,
            entries,
            recovery,
        })
    }

    /// Rewrites the whole WAL file from the in-memory mirror (used on
    /// compaction and installs, never on the append path).
    fn rewrite_wal(&mut self) {
        let tmp = self.wal_path.with_extension("wal.tmp");
        let result = (|| -> std::io::Result<File> {
            let mut f = File::create(&tmp)?;
            f.write_all(&(self.base as u64).to_le_bytes())?;
            for write in &self.entries {
                let bytes = globe_wire::to_bytes(write);
                f.write_all(&(bytes.len() as u32).to_le_bytes())?;
                f.write_all(&bytes)?;
            }
            fs::rename(&tmp, &self.wal_path)?;
            OpenOptions::new().append(true).open(&self.wal_path)
        })();
        match result {
            Ok(f) => self.wal = f,
            Err(e) => eprintln!(
                "globe-core: WAL rewrite failed at {} ({e}); log kept in memory",
                self.wal_path.display()
            ),
        }
    }

    fn write_snapshot(&self, image: &CheckpointImage) {
        let tmp = self.snap_path.with_extension("snap.tmp");
        let result = (|| -> std::io::Result<()> {
            fs::write(&tmp, globe_wire::to_bytes(image))?;
            fs::rename(&tmp, &self.snap_path)
        })();
        if let Err(e) = result {
            eprintln!(
                "globe-core: checkpoint write failed at {} ({e})",
                self.snap_path.display()
            );
        }
    }
}

impl StoreBackend for DurableBackend {
    fn append(&mut self, write: &LoggedWrite) {
        let bytes = globe_wire::to_bytes(write);
        let mut frame = Vec::with_capacity(4 + bytes.len());
        frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        frame.extend_from_slice(&bytes);
        if let Err(e) = self.wal.write_all(&frame) {
            eprintln!(
                "globe-core: WAL append failed at {} ({e})",
                self.wal_path.display()
            );
        }
        self.entries.push(write.clone());
    }
    fn len(&self) -> usize {
        self.base + self.entries.len()
    }
    fn base(&self) -> usize {
        self.base
    }
    fn suffix_from(&self, from: usize) -> &[LoggedWrite] {
        &self.entries[from.saturating_sub(self.base).min(self.entries.len())..]
    }
    fn retained(&self) -> &[LoggedWrite] {
        &self.entries
    }
    fn install(&mut self, image: &CheckpointImage, log: Vec<LoggedWrite>) {
        self.base = 0;
        self.entries = log;
        self.write_snapshot(image);
        self.rewrite_wal();
    }
    fn checkpoint(&mut self, image: &CheckpointImage) {
        self.write_snapshot(image);
    }
    fn truncate_covered(&mut self, version: &VersionVector) -> usize {
        let n = covered_prefix(&self.entries, version);
        if n > 0 {
            self.entries.drain(..n);
            self.base += n;
            self.rewrite_wal();
        }
        n
    }
    fn take_recovery(&mut self) -> Option<Recovery> {
        self.recovery.take()
    }
}

static TEMP_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A uniquely named scratch directory removed on drop — the harness for
/// durable-backend tests and benches, so no run ever sees another
/// run's stale WAL files.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<system-temp>/globe_<prefix>_<pid>_<seq>`.
    pub fn new(prefix: &str) -> Self {
        let seq = TEMP_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("globe_{prefix}_{}_{seq}", std::process::id()));
        #[allow(clippy::expect_used)]
        // lint: allow(panic) — test/bench scaffolding: a temp-dir failure must abort the harness loudly, there is no replica to degrade
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InvocationMessage, MethodId};
    use globe_coherence::ClientId;

    fn write(client: u32, seq: u64) -> LoggedWrite {
        LoggedWrite {
            wid: WriteId::new(ClientId::new(client), seq),
            inv: InvocationMessage::new(MethodId::new(1), Bytes::from_static(b"x")),
            deps: VersionVector::new(),
            page: Some(format!("p{seq}")),
            order: Some(seq),
        }
    }

    fn vv(pairs: &[(u32, u64)]) -> VersionVector {
        pairs.iter().map(|&(c, s)| (ClientId::new(c), s)).collect()
    }

    #[test]
    fn memory_backend_logical_indices_survive_compaction() {
        let mut log = MemoryBackend::new();
        for seq in 1..=4 {
            log.append(&write(1, seq));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.suffix_from(2).len(), 2);
        let dropped = log.truncate_covered(&vv(&[(1, 2)]));
        assert_eq!(dropped, 2);
        assert_eq!(log.base(), 2);
        assert_eq!(log.len(), 4, "logical length keeps counting");
        assert_eq!(log.suffix_from(3).len(), 1);
        assert_eq!(log.suffix_from(0).len(), 2, "below-base reads clamp");
    }

    #[test]
    fn truncate_stops_at_first_uncovered_entry() {
        let mut log = MemoryBackend::new();
        log.append(&write(1, 1));
        log.append(&write(2, 1));
        log.append(&write(1, 2));
        // Covers client 1 fully but client 2 not at all: only the first
        // entry is a covered *prefix*.
        assert_eq!(log.truncate_covered(&vv(&[(1, 2)])), 1);
        assert_eq!(log.retained().len(), 2);
    }

    #[test]
    fn durable_backend_recovers_wal_and_snapshot() {
        let tmp = TempDir::new("storage_unit");
        let object = ObjectId::new(7);
        let store = StoreId::new(3);
        {
            let mut log = DurableBackend::open(tmp.path(), object, store).unwrap();
            assert!(
                log.take_recovery().is_none(),
                "fresh dir: nothing to recover"
            );
            log.append(&write(1, 1));
            log.append(&write(1, 2));
            log.checkpoint(&CheckpointImage {
                version: vv(&[(1, 2)]),
                state: Bytes::from_static(b"snap"),
                writers: vec![("p2".to_string(), WriteId::new(ClientId::new(1), 2))],
                order_high: Some(2),
            });
            log.append(&write(1, 3));
        }
        let mut reopened = DurableBackend::open(tmp.path(), object, store).unwrap();
        let recovery = reopened.take_recovery().expect("files were on disk");
        let image = recovery.checkpoint.expect("snapshot was written");
        assert_eq!(image.version, vv(&[(1, 2)]));
        assert_eq!(&image.state[..], b"snap");
        assert_eq!(recovery.log.len(), 3, "WAL kept every append");
        assert_eq!(recovery.log[2].wid, WriteId::new(ClientId::new(1), 3));
        assert_eq!(reopened.len(), 3);
    }

    #[test]
    fn durable_backend_truncates_torn_tail() {
        let tmp = TempDir::new("storage_torn");
        let object = ObjectId::new(1);
        let store = StoreId::new(0);
        {
            let mut log = DurableBackend::open(tmp.path(), object, store).unwrap();
            log.append(&write(1, 1));
        }
        let wal = tmp.path().join("o1_s0.wal");
        let mut raw = fs::read(&wal).unwrap();
        raw.extend_from_slice(&[9, 0, 0, 0, 1, 2]); // half a record
        fs::write(&wal, &raw).unwrap();
        let mut reopened = DurableBackend::open(tmp.path(), object, store).unwrap();
        assert_eq!(reopened.retained().len(), 1, "torn tail dropped");
        reopened.append(&write(1, 2));
        drop(reopened);
        let third = DurableBackend::open(tmp.path(), object, store).unwrap();
        assert_eq!(third.retained().len(), 2, "appends after salvage are clean");
    }

    #[test]
    fn durable_compaction_rewrites_the_wal() {
        let tmp = TempDir::new("storage_compact");
        let object = ObjectId::new(2);
        let store = StoreId::new(1);
        {
            let mut log = DurableBackend::open(tmp.path(), object, store).unwrap();
            for seq in 1..=6 {
                log.append(&write(1, seq));
            }
            assert_eq!(log.truncate_covered(&vv(&[(1, 4)])), 4);
            assert_eq!(log.base(), 4);
        }
        let mut reopened = DurableBackend::open(tmp.path(), object, store).unwrap();
        assert_eq!(reopened.base(), 4, "base survives the rewrite");
        assert_eq!(reopened.len(), 6);
        let recovered = reopened.take_recovery().unwrap();
        assert_eq!(recovered.log.len(), 2, "only the suffix is on disk");
    }

    #[test]
    fn install_resets_indices_and_recovery_matches_transfer() {
        let tmp = TempDir::new("storage_install");
        let object = ObjectId::new(3);
        let store = StoreId::new(2);
        {
            let mut log = DurableBackend::open(tmp.path(), object, store).unwrap();
            for seq in 1..=3 {
                log.append(&write(9, seq));
            }
            log.install(
                &CheckpointImage {
                    version: vv(&[(1, 5)]),
                    state: Bytes::from_static(b"transferred"),
                    writers: Vec::new(),
                    order_high: None,
                },
                vec![write(1, 5)],
            );
            assert_eq!(log.base(), 0);
            assert_eq!(log.len(), 1);
        }
        let mut reopened = DurableBackend::open(tmp.path(), object, store).unwrap();
        let recovery = reopened.take_recovery().unwrap();
        assert_eq!(&recovery.checkpoint.unwrap().state[..], b"transferred");
        assert_eq!(recovery.log.len(), 1, "pre-transfer history is gone");
    }

    #[test]
    fn temp_dirs_are_unique_and_cleaned() {
        let a = TempDir::new("uniq");
        let b = TempDir::new("uniq");
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        assert!(kept.is_dir());
        drop(a);
        assert!(!kept.exists(), "dropped temp dir is removed");
    }
}
