//! Read-only introspection of a store directory, for `pscc-doctor`.
//!
//! [`Store::open`](crate::Store::open) is a *recovery* path: it takes the
//! directory's advisory `LOCK` and truncates torn WAL tails in place.
//! A post-mortem tool must do neither — the data dir under diagnosis may
//! belong to a live (or wedged) process, and the evidence must stay
//! byte-identical to what the crash left. Everything here opens files
//! read-only, ignores the lock, and reports damage instead of repairing
//! it.

use std::io;
use std::path::{Path, PathBuf};

use pscc_graph::DiGraph;

use crate::snapshot::{parse_snapshot_name, read_snapshot};
use crate::wal;
use crate::{DeltaRecord, StoreMeta};

/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE_NAME: &str = crate::WAL_FILE;

/// One snapshot file found in a store directory, validated but untouched.
#[derive(Debug)]
pub struct SnapshotInfo {
    /// The snapshot file.
    pub path: PathBuf,
    /// The WAL sequence its file name claims to cover.
    pub name_seq: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Full validation result: the parsed contents, or why the file is
    /// unusable (checksum mismatch, truncation, version skew, …).
    pub contents: Result<SnapshotContents, String>,
}

/// The parsed contents of a valid snapshot file.
#[derive(Debug)]
pub struct SnapshotContents {
    /// The WAL sequence the snapshot's header says it covers.
    pub seq: u64,
    /// Catalog metadata persisted with the graph.
    pub meta: StoreMeta,
    /// Vertex count of the embedded graph.
    pub nodes: usize,
    /// Edge count of the embedded graph.
    pub edges: usize,
}

/// Lists and validates every `snapshot-<seq>.pscc` in `dir`, newest
/// first. Each candidate is fully read (the trailing checksum covers the
/// whole file), but nothing is modified or deleted — unlike recovery,
/// which sweeps `.tmp` debris.
pub fn list_snapshots(dir: &Path) -> io::Result<Vec<SnapshotInfo>> {
    let mut seqs: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    let mut out = Vec::with_capacity(seqs.len());
    for seq in seqs {
        let path = dir.join(crate::snapshot::snapshot_file_name(seq));
        let bytes = std::fs::metadata(&path)?.len();
        let contents = match read_snapshot(&path) {
            Ok((graph, meta, header_seq)) => {
                if header_seq == seq {
                    Ok(SnapshotContents {
                        seq: header_seq,
                        meta,
                        nodes: graph.n(),
                        edges: graph.m(),
                    })
                } else {
                    Err(format!("header covers seq {header_seq} but file name claims {seq}"))
                }
            }
            Err(e) => Err(e.to_string()),
        };
        out.push(SnapshotInfo { path, name_seq: seq, bytes, contents });
    }
    Ok(out)
}

/// What a read-only WAL scan found.
#[derive(Debug, Default)]
pub struct WalInspect {
    /// Every checksum-valid record from the start of the log, in order,
    /// with its sequence number — including records a snapshot already
    /// covers (the caller cross-checks coverage itself).
    pub records: Vec<(u64, DeltaRecord)>,
    /// Bytes past the last valid record: a torn append, normal crash
    /// residue (recovery would truncate them; this scan does not).
    pub torn_bytes: u64,
    /// Damage that recovery would refuse to open: a bad or short header,
    /// or a sequence break between checksum-valid records.
    pub corruption: Option<String>,
}

/// Scans the WAL at `path` read-only: no lock, no truncation, the file
/// is left byte-identical. Contrast [`crate::Store::open`], which
/// truncates the torn tail it finds.
pub fn scan_wal(path: &Path) -> io::Result<WalInspect> {
    let bytes = std::fs::read(path)?;
    let Some(scan) = wal::scan_bytes(&bytes) else {
        return Ok(WalInspect {
            records: Vec::new(),
            torn_bytes: bytes.len() as u64,
            corruption: Some("bad or missing wal magic".to_string()),
        });
    };
    Ok(WalInspect {
        corruption: scan
            .seq_break
            .map(|(last, next)| format!("wal sequence break: record {next} follows {last}")),
        torn_bytes: (bytes.len() - scan.valid_len) as u64,
        records: scan.records,
    })
}

/// Loads the newest snapshot that validates, exactly as recovery would
/// pick it — but without the lock, the `.tmp` sweep, or the WAL scan.
/// Returns the covered WAL sequence, the graph, and its metadata; `None`
/// when no snapshot validates.
pub fn load_newest_snapshot(dir: &Path) -> io::Result<Option<(u64, DiGraph, StoreMeta)>> {
    for info in list_snapshots(dir)? {
        if info.contents.is_ok() {
            // Re-read for the graph: list_snapshots validated but did not
            // keep the (potentially large) graph alive for every entry.
            let (graph, meta, seq) = read_snapshot(&info.path)?;
            return Ok(Some((seq, graph, meta)));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Store;
    use pscc_graph::V;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pscc_inspect_test_{name}_{}", std::process::id()));
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
    fn inspect_sees_a_live_store_without_disturbing_it() {
        let dir = tmpdir("live");
        let g = demo_graph();
        let meta = StoreMeta { generation: 3, memo_bits: 16, grain: 512 };
        let store = Store::create(&dir, &g, meta).unwrap();
        store.append(&rec(&[(4, 5)], &[])).unwrap();
        store.append(&rec(&[], &[(0, 1)])).unwrap();
        // The store is still open (holding LOCK): inspection must work
        // anyway, read-only.
        let snaps = list_snapshots(&dir).unwrap();
        assert_eq!(snaps.len(), 1);
        let contents = snaps[0].contents.as_ref().unwrap();
        assert_eq!(contents.seq, 0);
        assert_eq!(contents.meta, meta);
        assert_eq!(contents.nodes, 8);
        let wal = scan_wal(&dir.join(WAL_FILE_NAME)).unwrap();
        assert!(wal.corruption.is_none());
        assert_eq!(wal.torn_bytes, 0);
        assert_eq!(wal.records.len(), 2);
        assert_eq!(wal.records[0], (1, rec(&[(4, 5)], &[])));
        let (seq, graph, _) = load_newest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(seq, 0);
        assert_eq!(graph.out_csr(), g.out_csr());
        drop(store);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_reported_but_never_truncated() {
        let dir = tmpdir("torn");
        let g = demo_graph();
        let store = Store::create(&dir, &g, StoreMeta::default()).unwrap();
        store.append(&rec(&[(4, 5)], &[])).unwrap();
        store.append(&rec(&[(6, 7)], &[])).unwrap();
        drop(store);
        let wal_path = dir.join(WAL_FILE_NAME);
        let full = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &full[..full.len() - 9]).unwrap();
        let before = std::fs::metadata(&wal_path).unwrap().len();
        let scan = scan_wal(&wal_path).unwrap();
        assert!(scan.corruption.is_none(), "a torn tail is not corruption");
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_bytes > 0);
        assert_eq!(
            std::fs::metadata(&wal_path).unwrap().len(),
            before,
            "inspection must leave the file byte-identical"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sequence_break_is_a_finding_here_and_an_error_on_open() {
        let dir = tmpdir("break");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE_NAME);
        let mut bytes = b"PSCCWAL1".to_vec();
        for seq in [1, 3] {
            pscc_telemetry::frame::encode(&mut bytes, seq, &[0; 8]);
        }
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.records, vec![(1, rec(&[], &[]))]);
        assert!(scan.corruption.unwrap().contains("sequence break: record 3 follows 1"));
        let err = crate::wal::Wal::open(&path, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "a break is never truncated");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn damaged_snapshot_and_wal_are_classified() {
        let dir = tmpdir("damage");
        let g = demo_graph();
        let store = Store::create(&dir, &g, StoreMeta::default()).unwrap();
        store.append(&rec(&[(4, 5)], &[])).unwrap();
        drop(store);
        // Flip a byte mid-snapshot: listed, but invalid.
        let snaps = list_snapshots(&dir).unwrap();
        let snap_path = snaps[0].path.clone();
        let mut bytes = std::fs::read(&snap_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap_path, &bytes).unwrap();
        let snaps = list_snapshots(&dir).unwrap();
        assert!(snaps[0].contents.is_err());
        assert!(load_newest_snapshot(&dir).unwrap().is_none());
        // Damage the WAL header: corruption, not a torn tail.
        let wal_path = dir.join(WAL_FILE_NAME);
        let mut wal_bytes = std::fs::read(&wal_path).unwrap();
        wal_bytes[0] ^= 0xff;
        std::fs::write(&wal_path, &wal_bytes).unwrap();
        let scan = scan_wal(&wal_path).unwrap();
        assert!(scan.corruption.is_some());
        std::fs::remove_dir_all(dir).ok();
    }
}
