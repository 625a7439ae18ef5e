//! # pscc-store — durable per-graph snapshots + write-ahead delta log
//!
//! The engine's [`Catalog`] keeps graphs and indexes in memory; this crate
//! makes one graph survive restarts. A [`Store`] owns one directory:
//!
//! ```text
//! <dir>/snapshot-<seq>.pscc   checksummed binary snapshot (graph + metadata)
//! <dir>/wal.log               append-only framed delta log, fsynced per append
//! ```
//!
//! **Write path** — every applied delta batch is appended to the log
//! ([`Store::append`]) and fsynced *before* the in-memory graph swap
//! completes: once the caller's `apply_delta` returns, the batch is
//! durable.
//!
//! **Recovery** ([`Store::open`]) — load the newest valid snapshot, replay
//! the log suffix (records with sequence numbers past the snapshot), and
//! truncate any torn tail left by a crash mid-append. Replay hands the
//! decoded batches back to the caller ([`Recovery::replayed`]), who applies
//! them through its own merge path.
//!
//! **Compaction** ([`Store::compact`]) — when the log outgrows the
//! snapshot, write a fresh snapshot covering everything applied so far
//! (temp file + fsync + atomic rename) and truncate the log. The engine
//! schedules this on a background worker: queries never wait on it (they
//! take no lock compaction holds); concurrent updates to the *same*
//! graph wait for the snapshot write, updates to other graphs do not.
//!
//! The delta payload type ([`DeltaRecord`]) is deliberately plain edge
//! lists: this crate depends only on `pscc-graph`, and the engine converts
//! to and from its richer `Delta` type.
//!
//! [`Catalog`]: https://docs.rs/pscc-engine

pub mod inspect;
pub(crate) mod snapshot;
pub(crate) mod wal;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use pscc_graph::{DiGraph, V};

use snapshot::{read_snapshot, snapshot_file_name, snapshot_seqs, sync_dir, write_snapshot};
use wal::Wal;

/// Cached handle for the `pscc_store_compaction_nanos` histogram.
fn compaction_histogram() -> &'static std::sync::Arc<pscc_telemetry::Histogram> {
    static HIST: std::sync::OnceLock<std::sync::Arc<pscc_telemetry::Histogram>> =
        std::sync::OnceLock::new();
    HIST.get_or_init(|| pscc_telemetry::histogram("pscc_store_compaction_nanos"))
}

/// One durable delta batch: the effective edge insertions and deletions
/// of an applied update, exactly as merged into the graph.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaRecord {
    /// Edges added by the batch.
    pub insertions: Vec<(V, V)>,
    /// Edges removed by the batch.
    pub deletions: Vec<(V, V)>,
}

/// Catalog metadata persisted alongside the graph in every snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreMeta {
    /// The catalog's per-entry generation counter at capture time.
    pub generation: u64,
    /// `BatchOptions::memo_bits` of the entry.
    pub memo_bits: u32,
    /// `BatchOptions::grain` of the entry.
    pub grain: u64,
}

/// What [`Store::open`] recovered.
#[derive(Debug)]
pub struct Recovery {
    /// The graph as of the newest valid snapshot.
    pub graph: DiGraph,
    /// Metadata from that snapshot.
    pub meta: StoreMeta,
    /// Log records past the snapshot, in order; the caller replays these
    /// through its merge path to reach the durable state.
    pub replayed: Vec<DeltaRecord>,
    /// Bytes of torn log tail discarded (0 after a clean shutdown).
    pub torn_bytes: u64,
}

#[derive(Debug)]
struct Inner {
    wal: Wal,
    snapshot_seq: u64,
    snapshot_bytes: u64,
}

/// A durable store for one graph: a snapshot plus a write-ahead delta log
/// in one directory. See the [crate docs](self) for the formats and
/// guarantees.
///
/// All methods take `&self`; an internal mutex serializes file access, so
/// a store can be shared behind an `Arc` between the serving path and a
/// background compactor.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    inner: Mutex<Inner>,
    /// Advisory cross-process lock on `dir/LOCK`, held for the store's
    /// lifetime: two processes appending to one log would truncate each
    /// other's fsynced records.
    _lock: std::fs::File,
}

const WAL_FILE: &str = "wal.log";
const LOCK_FILE: &str = "LOCK";

/// Takes the store directory's advisory lock, failing with
/// [`io::ErrorKind::WouldBlock`] if another process (or another `Store`
/// in this one) already holds it.
fn acquire_dir_lock(dir: &Path) -> io::Result<std::fs::File> {
    let lock = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(dir.join(LOCK_FILE))?;
    lock.try_lock().map_err(|e| {
        io::Error::new(
            io::ErrorKind::WouldBlock,
            format!("{} is locked by another store instance ({e})", dir.display()),
        )
    })?;
    Ok(lock)
}

fn locked(inner: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    inner.lock().expect("store lock")
}

impl Store {
    /// Creates a fresh store in `dir` (created if missing, which must not
    /// already contain a store): writes an empty log and the initial
    /// snapshot of `g` + `meta` covering sequence 0, in that order — a
    /// crash in between leaves an [aborted creation](Store::is_aborted_create)
    /// (no acknowledged state) that a retry of `create` repairs in place.
    pub fn create(dir: impl AsRef<Path>, g: &DiGraph, meta: StoreMeta) -> io::Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let wal_path = dir.join(WAL_FILE);
        if Self::is_aborted_create(&dir)? {
            // A previous create crashed before its snapshot: nothing was
            // ever acknowledged, so start over.
            std::fs::remove_file(&wal_path)?;
        } else if wal_path.exists() || newest_snapshot(&dir)?.is_some() {
            // (the parse cost here is trivial: create() refuses occupied
            // directories, so a hit means an error path anyway)
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{} already holds a store", dir.display()),
            ));
        }
        let lock = acquire_dir_lock(&dir)?;
        // Log first: records can only ever exist once the snapshot they
        // follow does, so every crash window is classifiable.
        let wal = Wal::create(&wal_path)?;
        let (_, snapshot_bytes) = write_snapshot(&dir, 0, g, &meta)?;
        sync_dir(&dir);
        Ok(Store {
            dir,
            inner: Mutex::new(Inner { wal, snapshot_seq: 0, snapshot_bytes }),
            _lock: lock,
        })
    }

    /// True if `dir` holds the debris of a [`Store::create`] that crashed
    /// before writing its initial snapshot: a header-only log and no
    /// snapshot files. No state was ever acknowledged for such a
    /// directory (`create` had not returned), so callers may safely treat
    /// it as absent — [`Store::create`] repairs it in place, and the
    /// engine's recovery scan skips it instead of failing the whole data
    /// directory.
    pub fn is_aborted_create(dir: impl AsRef<Path>) -> io::Result<bool> {
        let dir = dir.as_ref();
        let wal_path = dir.join(WAL_FILE);
        let header_only = match std::fs::metadata(&wal_path) {
            Ok(m) => m.len() <= wal::WAL_MAGIC.len() as u64,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        // Snapshot *presence* (not validity!): an empty log next to a
        // snapshot file that merely fails validation is data loss and
        // must stay a loud recovery error, never "aborted, wipe it".
        Ok(header_only && snapshot_seqs(dir)?.is_empty())
    }

    /// True if `dir` holds store files — a write-ahead log or a file named
    /// like a snapshot — whether or not they validate. The "is this a
    /// store?" test for the subdirectories of a catalog data dir, so
    /// unrelated directories (`lost+found`, backups) can be told apart.
    /// Fails if `dir` cannot be listed.
    pub fn holds_store_files(dir: impl AsRef<Path>) -> io::Result<bool> {
        let dir = dir.as_ref();
        Ok(dir.join(WAL_FILE).exists() || !snapshot_seqs(dir)?.is_empty())
    }

    /// Opens an existing store: loads the newest valid snapshot, scans the
    /// log (truncating any torn tail in place), and returns the store plus
    /// everything the caller must replay.
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] if no snapshot validates
    /// or the log header is corrupt — those are lost data, not torn
    /// tails — and with [`io::ErrorKind::WouldBlock`] if another live
    /// store instance (this process or another) holds the directory.
    /// Stale `.tmp` files from interrupted snapshot writes are swept.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<(Store, Recovery)> {
        let dir = dir.as_ref().to_path_buf();
        let lock = acquire_dir_lock(&dir).map_err(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                // A missing directory is "not a store", same as an empty one.
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{} holds no valid snapshot", dir.display()),
                )
            } else {
                e
            }
        })?;
        remove_stale_tmp_files(&dir);
        // Recovery timing: the snapshot load plus the full log scan —
        // the restart cost the compaction policy exists to bound.
        let mut recovery_span = pscc_telemetry::span("store_recovery");
        let recovery_timer = pscc_telemetry::enabled().then(pscc_telemetry::Timer::start);
        let snap = newest_snapshot(&dir)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} holds no valid snapshot", dir.display()),
            )
        })?;
        let Snapshot { seq: snap_seq, path, graph, meta } = snap;
        let (wal, scan) = Wal::open(&dir.join(WAL_FILE), snap_seq)?;
        let snapshot_bytes = std::fs::metadata(&path)?.len();
        let recovery = Recovery {
            graph,
            meta,
            replayed: scan.records.into_iter().map(|(_, r)| r).collect(),
            torn_bytes: scan.torn_bytes,
        };
        recovery_span.set_attr("replayed", recovery.replayed.len());
        recovery_span.set_attr("torn_bytes", recovery.torn_bytes);
        if let Some(t) = recovery_timer {
            pscc_telemetry::histogram("pscc_store_recovery_replay_nanos").record(t.elapsed());
        }
        drop(recovery_span);
        let store = Store {
            dir,
            inner: Mutex::new(Inner { wal, snapshot_seq: snap_seq, snapshot_bytes }),
            _lock: lock,
        };
        Ok((store, recovery))
    }

    /// Appends one delta batch to the log and fsyncs it. When this
    /// returns, the batch is durable: a crash at any later point replays
    /// it on [`Store::open`]. Returns the batch's sequence number.
    pub fn append(&self, rec: &DeltaRecord) -> io::Result<u64> {
        locked(&self.inner).wal.append(rec)
    }

    /// Writes a fresh snapshot of `g` + `meta` covering every batch
    /// appended so far, then truncates the log. `g` must be the graph with
    /// exactly those batches applied — the engine guarantees this by
    /// holding its per-entry update lock across capture and compaction.
    ///
    /// Queries never wait on this (it touches no engine query lock);
    /// concurrent appends to this store are excluded by the caller's
    /// update lock and wait for the snapshot write.
    pub fn compact(&self, g: &DiGraph, meta: StoreMeta) -> io::Result<()> {
        let mut inner = locked(&self.inner);
        let seq = inner.wal.last_seq();
        if seq == inner.snapshot_seq {
            return Ok(()); // nothing new to cover
        }
        let mut span = pscc_telemetry::span("compaction");
        span.set_attr("covered_seq", seq);
        let timer = pscc_telemetry::enabled().then(pscc_telemetry::Timer::start);
        let old = self.dir.join(snapshot_file_name(inner.snapshot_seq));
        let (_, snapshot_bytes) = write_snapshot(&self.dir, seq, g, &meta)?;
        // Remove the old snapshot *before* truncating the log: were the
        // log emptied first, a crash in between would leave a fallback
        // snapshot whose records are gone — and if the new snapshot later
        // rotted, recovery would silently resume from the old one minus
        // its acknowledged batches. Without a fallback, that double fault
        // is a loud "no valid snapshot" error instead.
        std::fs::remove_file(old).ok();
        // Truncate the log before adopting the new bookkeeping: if the
        // reset fails, snapshot_seq stays behind wal.last_seq() and the
        // next compaction retries instead of no-opping forever. (A crash
        // here is fine too — recovery skips records the snapshot covers.)
        inner.wal.reset()?;
        inner.snapshot_seq = seq;
        inner.snapshot_bytes = snapshot_bytes;
        sync_dir(&self.dir);
        if let Some(t) = timer {
            compaction_histogram().record(t.elapsed());
        }
        pscc_telemetry::counter("pscc_store_compactions_total").inc();
        Ok(())
    }

    /// Current log size in bytes (grows with every append, resets on
    /// compaction).
    pub fn wal_bytes(&self) -> u64 {
        locked(&self.inner).wal.bytes()
    }

    /// Size in bytes of the current snapshot file.
    pub fn snapshot_bytes(&self) -> u64 {
        locked(&self.inner).snapshot_bytes
    }

    /// Sequence number of the most recently appended batch (0 if none
    /// since the initial snapshot).
    pub fn last_seq(&self) -> u64 {
        locked(&self.inner).wal.last_seq()
    }

    /// WAL sequence number the current snapshot covers.
    pub fn snapshot_seq(&self) -> u64 {
        locked(&self.inner).snapshot_seq
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Removes leftover `snapshot-*.tmp` files from snapshot writes that
/// never reached their rename (ENOSPC, crash): each is a full graph copy
/// and nothing ever reads them. Best-effort.
fn remove_stale_tmp_files(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("snapshot-") && name.ends_with(".tmp") {
            std::fs::remove_file(entry.path()).ok();
        }
    }
}

/// A parsed, validated snapshot candidate.
struct Snapshot {
    seq: u64,
    path: PathBuf,
    graph: DiGraph,
    meta: StoreMeta,
}

/// Newest snapshot in `dir` that *validates* (checksum and all): tries
/// candidates in descending sequence order, skipping corrupt ones, so a
/// damaged newer file falls back to an older intact snapshot when one
/// still exists. Returns the parsed result so recovery never reads the
/// winning file twice.
fn newest_snapshot(dir: &Path) -> io::Result<Option<Snapshot>> {
    let seqs = match snapshot_seqs(dir) {
        Ok(seqs) => seqs,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    for seq in seqs {
        let path = dir.join(snapshot_file_name(seq));
        if let Ok((graph, meta, snap_seq)) = read_snapshot(&path) {
            debug_assert_eq!(snap_seq, seq, "snapshot name disagrees with its header");
            return Ok(Some(Snapshot { seq, path, graph, meta }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pscc_store_test_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn demo_graph() -> DiGraph {
        DiGraph::from_edges(8, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 6)])
    }

    fn rec(ins: &[(V, V)], del: &[(V, V)]) -> DeltaRecord {
        DeltaRecord { insertions: ins.to_vec(), deletions: del.to_vec() }
    }

    #[test]
    fn create_append_open_replays_everything() {
        let dir = tmpdir("replay");
        let g = demo_graph();
        let meta = StoreMeta { generation: 0, memo_bits: 16, grain: 512 };
        let store = Store::create(&dir, &g, meta).unwrap();
        assert_eq!(store.append(&rec(&[(4, 5)], &[])).unwrap(), 1);
        assert_eq!(store.append(&rec(&[], &[(0, 1)])).unwrap(), 2);
        drop(store);
        let (store, recovery) = Store::open(&dir).unwrap();
        assert_eq!(recovery.graph.out_csr(), g.out_csr());
        assert_eq!(recovery.meta, meta);
        assert_eq!(recovery.replayed, vec![rec(&[(4, 5)], &[]), rec(&[], &[(0, 1)])]);
        assert_eq!(recovery.torn_bytes, 0);
        assert_eq!(store.last_seq(), 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn create_refuses_an_occupied_directory() {
        let dir = tmpdir("occupied");
        let g = demo_graph();
        Store::create(&dir, &g, StoreMeta::default()).unwrap();
        let err = Store::create(&dir, &g, StoreMeta::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn second_live_instance_is_locked_out() {
        let dir = tmpdir("locked");
        let g = demo_graph();
        let store = Store::create(&dir, &g, StoreMeta::default()).unwrap();
        // Two writers on one log would truncate each other's records.
        let err = Store::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        drop(store);
        assert!(Store::open(&dir).is_ok(), "lock released with the instance");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn aborted_create_is_repaired_by_retry() {
        // Simulate a create that crashed between Wal::create and the
        // initial snapshot: a header-only log, nothing else.
        let dir = tmpdir("aborted");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(WAL_FILE), b"PSCCWAL1").unwrap();
        assert!(Store::is_aborted_create(&dir).unwrap());
        // Nothing was acknowledged, so open() refusing is correct...
        assert!(Store::open(&dir).is_err());
        // ...and a retried create repairs the directory in place.
        let g = demo_graph();
        let store = Store::create(&dir, &g, StoreMeta::default()).unwrap();
        assert!(!Store::is_aborted_create(&dir).unwrap());
        store.append(&rec(&[(4, 5)], &[])).unwrap();
        drop(store);
        let (_, recovery) = Store::open(&dir).unwrap();
        assert_eq!(recovery.replayed, vec![rec(&[(4, 5)], &[])]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_log_next_to_an_invalid_snapshot_is_not_aborted() {
        // A compacted store whose only snapshot later rots: the empty log
        // must read as data loss, never as an aborted creation a create
        // could silently wipe.
        let dir = tmpdir("rotted");
        let g = demo_graph();
        let store = Store::create(&dir, &g, StoreMeta::default()).unwrap();
        store.append(&rec(&[(4, 5)], &[])).unwrap();
        store.compact(&g.with_delta(&[(4, 5)], &[]), StoreMeta::default()).unwrap();
        drop(store);
        let snap = dir.join(snapshot_file_name(1));
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();
        assert!(!Store::is_aborted_create(&dir).unwrap());
        assert!(Store::open(&dir).is_err());
        assert_eq!(
            Store::create(&dir, &g, StoreMeta::default()).unwrap_err().kind(),
            io::ErrorKind::AlreadyExists
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compaction_covers_the_log_and_survives_reopen() {
        let dir = tmpdir("compact");
        let g = demo_graph();
        let store = Store::create(&dir, &g, StoreMeta::default()).unwrap();
        store.append(&rec(&[(4, 5)], &[])).unwrap();
        store.append(&rec(&[(6, 7)], &[])).unwrap();
        let with_both = g.with_delta(&[(4, 5), (6, 7)], &[]);
        let wal_before = store.wal_bytes();
        store.compact(&with_both, StoreMeta { generation: 2, memo_bits: 16, grain: 512 }).unwrap();
        assert!(store.wal_bytes() < wal_before);
        assert_eq!(store.snapshot_seq(), 2);
        // Later appends land after the snapshot.
        store.append(&rec(&[(7, 0)], &[])).unwrap();
        drop(store);
        let (_, recovery) = Store::open(&dir).unwrap();
        assert_eq!(recovery.graph.out_csr(), with_both.out_csr());
        assert_eq!(recovery.meta.generation, 2);
        assert_eq!(recovery.replayed, vec![rec(&[(7, 0)], &[])]);
        // Exactly one snapshot file remains.
        assert_eq!(snapshot_seqs(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compact_with_empty_log_is_a_noop() {
        let dir = tmpdir("noopcompact");
        let g = demo_graph();
        let store = Store::create(&dir, &g, StoreMeta::default()).unwrap();
        let bytes = store.snapshot_bytes();
        store.compact(&g, StoreMeta::default()).unwrap();
        assert_eq!(store.snapshot_seq(), 0);
        assert_eq!(store.snapshot_bytes(), bytes);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_wal_tail_recovers_the_fsynced_prefix() {
        let dir = tmpdir("torn");
        let g = demo_graph();
        let store = Store::create(&dir, &g, StoreMeta::default()).unwrap();
        store.append(&rec(&[(4, 5)], &[])).unwrap();
        let good = store.wal_bytes();
        store.append(&rec(&[(6, 7)], &[])).unwrap();
        drop(store);
        // Tear the second record: keep 5 bytes of it.
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..good as usize + 5]).unwrap();
        let (store, recovery) = Store::open(&dir).unwrap();
        assert_eq!(recovery.replayed, vec![rec(&[(4, 5)], &[])]);
        assert_eq!(recovery.torn_bytes, 5);
        // The tail is gone from disk and appending resumes at seq 2.
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), good);
        assert_eq!(store.append(&rec(&[(6, 7)], &[])).unwrap(), 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupt_only_snapshot_fails_loudly() {
        let dir = tmpdir("fallback");
        let g = demo_graph();
        let store = Store::create(&dir, &g, StoreMeta::default()).unwrap();
        store.append(&rec(&[(4, 5)], &[])).unwrap();
        let newer = g.with_delta(&[(4, 5)], &[]);
        store.compact(&newer, StoreMeta { generation: 1, ..Default::default() }).unwrap();
        drop(store);
        // Corrupt the (only) snapshot: recovery must fail loudly, not
        // fabricate an empty graph.
        let snap = dir.join(snapshot_file_name(1));
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();
        let err = Store::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_directory_is_not_a_store() {
        let dir = tmpdir("missing");
        let err = Store::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
