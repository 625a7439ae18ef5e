//! The append-only write-ahead delta log.
//!
//! ## File format
//!
//! `"PSCCWAL1"` followed by one frame per applied delta batch, in the
//! framed-log layout [`pscc_telemetry::frame`] defines. Sequence numbers
//! start at 1 and are contiguous per log. The payload, little-endian, is
//!
//! ```text
//! ins_count: u32, del_count: u32, then (u, v) u32 pairs
//! ```
//!
//! with the insertions first. Appends are flushed with `fsync`
//! (`File::sync_data`) before returning, so a record the writer reported
//! durable survives a crash.
//!
//! ## Recovery
//!
//! [`Wal::open`] scans records from the start and stops at the first
//! frame that fails to decode — short, length past the end of the file,
//! checksum mismatch, or a payload whose counts disagree with its length
//! — and truncates the file there. A crash mid-append therefore loses
//! only the torn tail. A sequence break is an error instead.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
#[cfg(test)]
use std::path::PathBuf;

use pscc_graph::V;
use pscc_telemetry::frame;

use crate::DeltaRecord;

/// Cached handle for the `pscc_wal_append_nanos` histogram (whole append:
/// truncate + write + fsync).
fn append_histogram() -> &'static std::sync::Arc<pscc_telemetry::Histogram> {
    static HIST: std::sync::OnceLock<std::sync::Arc<pscc_telemetry::Histogram>> =
        std::sync::OnceLock::new();
    HIST.get_or_init(|| pscc_telemetry::histogram("pscc_wal_append_nanos"))
}

/// Cached handle for the `pscc_wal_fsync_nanos` histogram (the
/// `sync_data` call alone — the dominant, device-bound cost).
fn fsync_histogram() -> &'static std::sync::Arc<pscc_telemetry::Histogram> {
    static HIST: std::sync::OnceLock<std::sync::Arc<pscc_telemetry::Histogram>> =
        std::sync::OnceLock::new();
    HIST.get_or_init(|| pscc_telemetry::histogram("pscc_wal_fsync_nanos"))
}

/// Cached handle for the `pscc_wal_appends_total` counter.
fn appends_counter() -> &'static std::sync::Arc<pscc_telemetry::Counter> {
    static C: std::sync::OnceLock<std::sync::Arc<pscc_telemetry::Counter>> =
        std::sync::OnceLock::new();
    C.get_or_init(|| pscc_telemetry::counter("pscc_wal_appends_total"))
}

pub(crate) const WAL_MAGIC: &[u8; 8] = b"PSCCWAL1";

fn invalid<T>(msg: impl Into<String>) -> io::Result<T> {
    Err(io::Error::new(io::ErrorKind::InvalidData, msg.into()))
}

/// Serializes one delta batch as a WAL record payload.
fn encode_payload(rec: &DeltaRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 * (rec.insertions.len() + rec.deletions.len()));
    out.extend_from_slice(&(rec.insertions.len() as u32).to_le_bytes());
    out.extend_from_slice(&(rec.deletions.len() as u32).to_le_bytes());
    for &(u, v) in rec.insertions.iter().chain(&rec.deletions) {
        out.extend_from_slice(&u.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Parses a record payload back into a delta batch; `None` when its
/// length disagrees with its counts.
fn decode_payload(payload: &[u8]) -> Option<DeltaRecord> {
    let ins_count = u32::from_le_bytes(payload.get(0..4)?.try_into().ok()?) as usize;
    let del_count = u32::from_le_bytes(payload.get(4..8)?.try_into().ok()?) as usize;
    if payload.len() as u64 != 8 + 8 * (ins_count as u64 + del_count as u64) {
        return None;
    }
    let mut edges = payload[8..].chunks_exact(8).map(|c| {
        (
            // analyze: allow(panic): chunks_exact(8) guarantees the width
            V::from_le_bytes(c[0..4].try_into().expect("4 bytes")),
            // analyze: allow(panic): chunks_exact(8) guarantees the width
            V::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
        )
    });
    let insertions: Vec<(V, V)> = edges.by_ref().take(ins_count).collect();
    let deletions: Vec<(V, V)> = edges.collect();
    Some(DeltaRecord { insertions, deletions })
}

/// Scans a whole log held in `bytes` — `None` on a bad or missing magic.
/// Recovery and the read-only [`inspect`](crate::inspect) scan both read
/// through here, so they agree byte for byte on what a valid record is.
pub(crate) fn scan_bytes(bytes: &[u8]) -> Option<frame::Scan<DeltaRecord>> {
    frame::scan(bytes, WAL_MAGIC, decode_payload)
}

/// What scanning an existing log recovered.
#[derive(Debug)]
pub(crate) struct WalScan {
    /// Every valid record, in sequence order, with its sequence number.
    pub records: Vec<(u64, DeltaRecord)>,
    /// Bytes of torn tail discarded past the last valid record.
    pub torn_bytes: u64,
}

/// An open write-ahead log: an append handle plus bookkeeping.
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    /// Sequence number the next appended record receives.
    next_seq: u64,
    /// Current file length (header + valid records).
    bytes: u64,
}

impl Wal {
    /// Creates an empty log (header only, fsynced). Fails if `path`
    /// already exists.
    pub fn create(path: &Path) -> io::Result<Wal> {
        let mut file = OpenOptions::new().write(true).create_new(true).open(path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_data()?;
        Ok(Wal { file, next_seq: 1, bytes: WAL_MAGIC.len() as u64 })
    }

    /// Opens an existing log, scanning every record and truncating any
    /// torn tail in place. Records with `seq <= base_seq` (already covered
    /// by the snapshot being recovered against) are scanned for integrity
    /// but not returned.
    ///
    /// The record stream must be contiguous: the first record past
    /// `base_seq` must carry `base_seq + 1`, and each subsequent record
    /// must increment. A checksum-valid record with a broken sequence
    /// number means the snapshot and log disagree (e.g. recovery fell
    /// back to an older snapshot after the newer one rotted) — that is an
    /// error, **not** a torn tail: truncating would destroy fsynced
    /// records that a repaired snapshot could still replay. Only frames
    /// that fail validation (torn appends) are truncated. A corrupt
    /// header is likewise an error.
    pub fn open(path: &Path, base_seq: u64) -> io::Result<(Wal, WalScan)> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let Some(scan) = scan_bytes(&bytes) else {
            return invalid("bad or missing wal magic");
        };
        // A checksum-valid record out of sequence is unreplayable
        // history, not a torn append: refuse loudly rather than truncate
        // valid data.
        if let Some((last, next)) = scan.seq_break {
            return invalid(format!("wal sequence break: record {next} follows {last}"));
        }
        let next_seq = scan.records.last().map_or(base_seq + 1, |&(seq, _)| seq + 1);
        let records: Vec<(u64, DeltaRecord)> =
            scan.records.into_iter().filter(|&(seq, _)| seq > base_seq).collect();
        // The first replayable record must continue the snapshot.
        if let Some(&(first, _)) = records.first() {
            if first != base_seq + 1 {
                return invalid(format!(
                    "wal starts at record {first} but the snapshot covers only \
                     up to {base_seq}: unreplayable gap"
                ));
            }
        }
        let valid_len = scan.valid_len as u64;
        let torn_bytes = bytes.len() as u64 - valid_len;
        if torn_bytes > 0 {
            file.set_len(valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        let wal = Wal { file, next_seq, bytes: valid_len };
        Ok((wal, WalScan { records, torn_bytes }))
    }

    /// Appends one record and fsyncs it; returns its sequence number.
    /// The record is durable when this returns.
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] if the batch exceeds
    /// the frame's `u32` limits (more than `u32::MAX` insertions or
    /// deletions, or a payload past `u32::MAX` bytes) — silently wrapped
    /// counts would be discarded as corruption on recovery.
    ///
    /// A *failed* append (transient `ENOSPC`/`EIO` on the write or the
    /// fsync) leaves no trace: the next append truncates back to the last
    /// durable record before writing, so a leftover partial frame can
    /// never sit in front of — and on recovery swallow — a record that
    /// was later acknowledged as durable.
    pub fn append(&mut self, rec: &DeltaRecord) -> io::Result<u64> {
        let (ni, nd) = (rec.insertions.len() as u64, rec.deletions.len() as u64);
        if ni > u32::MAX as u64 || nd > u32::MAX as u64 || 8 + 8 * (ni + nd) > u32::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("delta batch too large for one wal record ({ni} ins, {nd} del)"),
            ));
        }
        let seq = self.next_seq;
        let mut framed = Vec::new();
        frame::encode(&mut framed, seq, &encode_payload(rec));
        // Re-anchor at the last durable record: a previously failed
        // append may have left partial bytes and an advanced cursor.
        let append_timer = pscc_telemetry::enabled().then(pscc_telemetry::Timer::start);
        self.file.set_len(self.bytes)?;
        self.file.seek(SeekFrom::Start(self.bytes))?;
        self.file.write_all(&framed)?;
        let fsync_timer = append_timer.map(|_| pscc_telemetry::Timer::start());
        self.file.sync_data()?;
        if let Some(t) = fsync_timer {
            fsync_histogram().record(t.elapsed());
        }
        if let Some(t) = append_timer {
            append_histogram().record(t.elapsed());
            appends_counter().inc();
        }
        self.next_seq = seq + 1;
        self.bytes += framed.len() as u64;
        Ok(seq)
    }

    /// Discards every record (the snapshot now covers them): truncates to
    /// the header and fsyncs. Sequence numbering continues from where it
    /// was, so the log stays contiguous with the snapshot.
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.sync_data()?;
        self.file.seek(SeekFrom::End(0))?;
        self.bytes = WAL_MAGIC.len() as u64;
        Ok(())
    }

    /// Sequence number of the most recently appended record (0 if none
    /// ever was).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Current log size in bytes (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pscc_wal_test_{name}_{}", std::process::id()));
        std::fs::remove_file(&p).ok();
        p
    }

    fn rec(ins: &[(V, V)], del: &[(V, V)]) -> DeltaRecord {
        DeltaRecord { insertions: ins.to_vec(), deletions: del.to_vec() }
    }

    #[test]
    fn append_scan_roundtrip() {
        let path = tmp("roundtrip");
        let mut wal = Wal::create(&path).unwrap();
        assert_eq!(wal.append(&rec(&[(0, 1), (2, 3)], &[])).unwrap(), 1);
        assert_eq!(wal.append(&rec(&[], &[(9, 9)])).unwrap(), 2);
        assert_eq!(wal.append(&rec(&[(5, 6)], &[(7, 8)])).unwrap(), 3);
        drop(wal);
        let (wal, scan) = Wal::open(&path, 0).unwrap();
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[0], (1, rec(&[(0, 1), (2, 3)], &[])));
        assert_eq!(scan.records[1], (2, rec(&[], &[(9, 9)])));
        assert_eq!(scan.records[2], (3, rec(&[(5, 6)], &[(7, 8)])));
        assert_eq!(wal.last_seq(), 3);
        std::fs::remove_file(path).ok();
    }

    /// The on-disk bytes of a three-record log, pinned so the format can
    /// only change on purpose: magic, then one `len ∥ seq ∥ payload ∥ crc`
    /// frame per record.
    #[rustfmt::skip]
    const GOLDEN: [u8; 132] = [
        b'P', b'S', b'C', b'C', b'W', b'A', b'L', b'1',
        // seq 1: ins (0,1), (2,3)
        0x18, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
        0x4e, 0xbd, 0x9c, 0xb9, 0x7b, 0xbb, 0x78, 0x5e,
        // seq 2: del (9,9)
        0x10, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
        0x09, 0x00, 0x00, 0x00,
        0x06, 0xe7, 0x7b, 0x87, 0x52, 0xcd, 0xf6, 0x52,
        // seq 3: ins (5,6), del (7,8)
        0x18, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
        0x06, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
        0xd2, 0xdf, 0xa3, 0x28, 0x1f, 0x2b, 0xd4, 0xa9,
    ];

    #[test]
    fn on_disk_bytes_match_the_golden_log() {
        let path = tmp("golden");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(&rec(&[(0, 1), (2, 3)], &[])).unwrap();
        wal.append(&rec(&[], &[(9, 9)])).unwrap();
        wal.append(&rec(&[(5, 6)], &[(7, 8)])).unwrap();
        drop(wal);
        assert_eq!(std::fs::read(&path).unwrap(), GOLDEN);
        let (_, scan) = Wal::open(&path, 0).unwrap();
        assert_eq!(scan.records.len(), 3);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn base_seq_skips_snapshotted_prefix() {
        let path = tmp("baseseq");
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..5u32 {
            wal.append(&rec(&[(i, i + 1)], &[])).unwrap();
        }
        drop(wal);
        let (_, scan) = Wal::open(&path, 3).unwrap();
        assert_eq!(scan.records.iter().map(|&(s, _)| s).collect::<Vec<_>>(), vec![4, 5]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp("torn");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(&rec(&[(1, 2)], &[])).unwrap();
        let good_len = wal.bytes();
        wal.append(&rec(&[(3, 4)], &[])).unwrap();
        drop(wal);
        // Chop the second record in half: a torn append.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..good_len as usize + 7]).unwrap();
        let (mut wal, scan) = Wal::open(&path, 0).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.torn_bytes, 7);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
        // Appending resumes with the lost record's sequence number.
        assert_eq!(wal.append(&rec(&[(3, 4)], &[])).unwrap(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_byte_stops_the_scan() {
        let path = tmp("flip");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(&rec(&[(1, 2)], &[])).unwrap();
        let one = wal.bytes();
        wal.append(&rec(&[(3, 4)], &[])).unwrap();
        wal.append(&rec(&[(5, 6)], &[])).unwrap();
        drop(wal);
        // Flip a byte inside record 2: records 2 *and* 3 are discarded
        // (recovery keeps only a prefix — replaying 3 without 2 would
        // reorder history).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[one as usize + 13] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (_, scan) = Wal::open(&path, 0).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), one);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bad_header_is_an_error_not_a_silent_reset() {
        let path = tmp("hdr");
        std::fs::write(&path, b"NOTAWAL!").unwrap();
        let err = Wal::open(&path, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::write(&path, b"PS").unwrap();
        assert!(Wal::open(&path, 0).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn append_truncates_the_leftovers_of_a_failed_append() {
        let path = tmp("leftover");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(&rec(&[(1, 2)], &[])).unwrap();
        // Simulate a failed append that got partial bytes to disk (the
        // bookkeeping was not advanced): garbage past the durable end.
        let mut raw = OpenOptions::new().append(true).open(&path).unwrap();
        raw.write_all(&[0xaa; 13]).unwrap();
        raw.sync_data().unwrap();
        drop(raw);
        // The next append must re-anchor at the durable boundary; the
        // garbage must not survive in front of the new record.
        wal.append(&rec(&[(3, 4)], &[])).unwrap();
        drop(wal);
        let (_, scan) = Wal::open(&path, 0).unwrap();
        assert_eq!(scan.torn_bytes, 0, "no garbage may remain");
        assert_eq!(
            scan.records,
            vec![(1, rec(&[(1, 2)], &[])), (2, rec(&[(3, 4)], &[]))],
            "both durable records recovered, in order"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn gap_after_fallback_snapshot_is_an_error_not_truncation() {
        // The fallback-recovery hazard: a log whose records start *past*
        // the snapshot's coverage (snapshot-5 rotted, recovery fell back
        // to snapshot-0, but compaction already dropped records 1..=5).
        // Refuse loudly; truncating would destroy valid fsynced records.
        let path = tmp("gap");
        let mut wal = Wal::create(&path).unwrap();
        for i in 0..3u32 {
            wal.append(&rec(&[(i, i + 1)], &[])).unwrap();
        }
        wal.reset().unwrap(); // snapshot now covers 1..=3
        wal.append(&rec(&[(7, 8)], &[])).unwrap(); // record 4
        drop(wal);
        let len = std::fs::metadata(&path).unwrap().len();
        let err = Wal::open(&path, 0).unwrap_err(); // older snapshot: base 0
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("gap"), "{err}");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            len,
            "a sequence gap must not truncate valid records"
        );
        // The matching snapshot still opens it fine.
        let (_, scan) = Wal::open(&path, 3).unwrap();
        assert_eq!(scan.records.iter().map(|&(s, _)| s).collect::<Vec<_>>(), vec![4]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reset_keeps_sequence_numbering() {
        let path = tmp("reset");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(&rec(&[(1, 2)], &[])).unwrap();
        wal.append(&rec(&[(3, 4)], &[])).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.bytes(), WAL_MAGIC.len() as u64);
        assert_eq!(wal.append(&rec(&[(5, 6)], &[])).unwrap(), 3);
        drop(wal);
        // Reopening against the covering snapshot's seq sees only rec 3.
        let (_, scan) = Wal::open(&path, 2).unwrap();
        assert_eq!(scan.records.iter().map(|&(s, _)| s).collect::<Vec<_>>(), vec![3]);
        std::fs::remove_file(path).ok();
    }
}
