//! Versioned, checksummed snapshot files.
//!
//! ## File format (version 1)
//!
//! ```text
//! "PSCCSNAP"          8-byte magic
//! version: u32        format version (1)
//! seq: u64            WAL sequence number this snapshot covers
//! generation: u64     catalog generation counter at capture
//! memo_bits: u32      BatchOptions.memo_bits
//! grain: u64          BatchOptions.grain
//! graph               pscc-graph binary CSR ("PSCCCSR1" framing)
//! crc: u64            Checksum64 over every preceding byte
//! ```
//!
//! All integers are little-endian. The embedded graph follows every rule
//! of the binary CSR format (`pscc_graph::io`), including that each
//! adjacency row is strictly increasing: a snapshot whose checksum holds
//! but whose rows do not is rejected, and a graph breaking the rule is
//! refused at write time. A snapshot is written to a temporary
//! file, fsynced, and renamed into place (`snapshot-<seq>.pscc`), with a
//! best-effort directory fsync after the rename — a crash mid-write
//! leaves either the old snapshot or the new one, never a half-written
//! file under the live name. The trailing checksum rejects bit rot and
//! torn renames on filesystems without atomic rename.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use pscc_graph::io::{binary_len, read_binary_from, write_binary_to, Checksum64};
use pscc_graph::DiGraph;

use crate::StoreMeta;

const SNAP_MAGIC: &[u8; 8] = b"PSCCSNAP";
const SNAP_VERSION: u32 = 1;
/// Bytes before the embedded graph: magic + version + seq + generation +
/// memo_bits + grain.
const HEADER_BYTES: u64 = 8 + 4 + 8 + 8 + 4 + 8;

fn invalid<T>(msg: impl Into<String>) -> io::Result<T> {
    Err(io::Error::new(io::ErrorKind::InvalidData, msg.into()))
}

/// A writer adapter folding everything written into a [`Checksum64`].
struct HashingWriter<W: Write> {
    inner: W,
    crc: Checksum64,
}

impl<W: Write> Write for HashingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.inner.write(buf)?;
        self.crc.update(&buf[..written]);
        Ok(written)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A reader adapter folding everything read into a [`Checksum64`].
struct HashingReader<R: Read> {
    inner: R,
    crc: Checksum64,
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let got = self.inner.read(buf)?;
        self.crc.update(&buf[..got]);
        Ok(got)
    }
}

/// The live filename of the snapshot covering WAL sequence `seq`.
pub(crate) fn snapshot_file_name(seq: u64) -> String {
    format!("snapshot-{seq:020}.pscc")
}

/// Parses `snapshot-<seq>.pscc` back into `seq`.
pub(crate) fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?.strip_suffix(".pscc")?.parse().ok()
}

/// Writes a snapshot of `g` + `meta` covering WAL sequence `seq` into
/// `dir`, atomically (temp file + fsync + rename + dir fsync). Returns
/// the live path and the file's size in bytes.
pub(crate) fn write_snapshot(
    dir: &Path,
    seq: u64,
    g: &DiGraph,
    meta: &StoreMeta,
) -> io::Result<(PathBuf, u64)> {
    let live = dir.join(snapshot_file_name(seq));
    let tmp = dir.join(format!("snapshot-{seq:020}.tmp"));
    let mut span = pscc_telemetry::span("snapshot_write");
    span.set_attr("seq", seq);
    let timer = pscc_telemetry::enabled().then(pscc_telemetry::Timer::start);
    let result = write_snapshot_tmp(&tmp, seq, g, meta).and_then(|()| {
        std::fs::rename(&tmp, &live)?;
        sync_dir(dir);
        Ok(())
    });
    if let Some(t) = timer {
        pscc_telemetry::histogram("pscc_store_snapshot_write_nanos").record(t.elapsed());
    }
    if let Err(e) = result {
        // Don't leak a graph-sized temp file on every failed attempt
        // (failures cluster exactly when disk space is short).
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    let bytes = HEADER_BYTES + binary_len(g) + 8;
    Ok((live, bytes))
}

/// The fallible body of [`write_snapshot`]: everything up to (not
/// including) the rename into the live name.
fn write_snapshot_tmp(tmp: &Path, seq: u64, g: &DiGraph, meta: &StoreMeta) -> io::Result<()> {
    let file = File::create(tmp)?;
    let mut w = HashingWriter { inner: BufWriter::new(file), crc: Checksum64::new() };
    w.write_all(SNAP_MAGIC)?;
    w.write_all(&SNAP_VERSION.to_le_bytes())?;
    w.write_all(&seq.to_le_bytes())?;
    w.write_all(&meta.generation.to_le_bytes())?;
    w.write_all(&meta.memo_bits.to_le_bytes())?;
    w.write_all(&meta.grain.to_le_bytes())?;
    write_binary_to(g, &mut w)?;
    let crc = w.crc.finish();
    let mut inner = w.inner;
    inner.write_all(&crc.to_le_bytes())?;
    inner.flush()?;
    inner.get_ref().sync_all()?;
    Ok(())
}

/// Reads and validates one snapshot file: magic, version, trailing
/// checksum, and the embedded graph's own header validation. Returns the
/// graph, its metadata, and the WAL sequence the snapshot covers.
pub(crate) fn read_snapshot(path: &Path) -> io::Result<(DiGraph, StoreMeta, u64)> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    if file_len < HEADER_BYTES + 8 {
        return invalid("snapshot shorter than its header");
    }
    let mut r = HashingReader { inner: BufReader::new(file), crc: Checksum64::new() };
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != SNAP_MAGIC {
        return invalid("bad snapshot magic");
    }
    let mut b4 = [0u8; 4];
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b4)?;
    let version = u32::from_le_bytes(b4);
    if version != SNAP_VERSION {
        return invalid(format!("unsupported snapshot version {version}"));
    }
    r.read_exact(&mut b8)?;
    let seq = u64::from_le_bytes(b8);
    r.read_exact(&mut b8)?;
    let generation = u64::from_le_bytes(b8);
    r.read_exact(&mut b4)?;
    let memo_bits = u32::from_le_bytes(b4);
    r.read_exact(&mut b8)?;
    let grain = u64::from_le_bytes(b8);
    // The graph may use at most what lies between the header and the
    // trailing checksum.
    let graph = read_binary_from(&mut r, file_len - HEADER_BYTES - 8)?;
    let want_crc = r.crc.finish();
    let mut trailer = [0u8; 8];
    r.inner.read_exact(&mut trailer)?;
    if u64::from_le_bytes(trailer) != want_crc {
        return invalid("snapshot checksum mismatch");
    }
    // The checksum must be the last bytes of the file: trailing garbage
    // (an interrupted overwrite, tooling artifacts) is corruption too.
    if r.inner.read(&mut [0u8; 1])? != 0 {
        return invalid("snapshot has trailing bytes past its checksum");
    }
    Ok((graph, StoreMeta { generation, memo_bits, grain }, seq))
}

/// Best-effort directory fsync so a rename survives a power cut. Errors
/// are swallowed: not every filesystem supports opening directories.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pscc_snap_test_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn demo_graph() -> DiGraph {
        DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)])
    }

    #[test]
    fn snapshot_roundtrip() {
        let dir = tmpdir("roundtrip");
        let g = demo_graph();
        let meta = StoreMeta { generation: 7, memo_bits: 12, grain: 256 };
        let (path, bytes) = write_snapshot(&dir, 3, &g, &meta).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);
        let (back, got_meta, seq) = read_snapshot(&path).unwrap();
        assert_eq!(back.out_csr(), g.out_csr());
        assert_eq!(seq, 3);
        assert_eq!(got_meta.generation, 7);
        assert_eq!(got_meta.memo_bits, 12);
        assert_eq!(got_meta.grain, 256);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn snapshot_name_roundtrip() {
        assert_eq!(parse_snapshot_name(&snapshot_file_name(42)), Some(42));
        assert_eq!(parse_snapshot_name("snapshot-00000000000000000000.tmp"), None);
        assert_eq!(parse_snapshot_name("wal.log"), None);
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let dir = tmpdir("flips");
        let g = demo_graph();
        let meta = StoreMeta { generation: 1, memo_bits: 16, grain: 512 };
        let (path, _) = write_snapshot(&dir, 1, &g, &meta).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert!(read_snapshot(&path).is_err(), "flip at byte {pos} accepted");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let dir = tmpdir("trailer");
        let g = demo_graph();
        let meta = StoreMeta { generation: 1, memo_bits: 16, grain: 512 };
        let (path, _) = write_snapshot(&dir, 1, &g, &meta).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0x00);
        std::fs::write(&path, &bytes).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    /// The slab writer's snapshot of a graph whose offsets and targets each
    /// span several slabs is, byte for byte and checksum included, the
    /// element-wise encoding of its header and graph.
    #[test]
    fn snapshot_bytes_equal_the_element_wise_encoding() {
        let dir = tmpdir("bytes");
        let g = pscc_graph::generators::random::gnm_digraph(20_011, 70_001, 3);
        let meta = StoreMeta { generation: 5, memo_bits: 14, grain: 128 };
        let (path, bytes) = write_snapshot(&dir, 9, &g, &meta).unwrap();
        let csr = g.out_csr();
        let mut want = SNAP_MAGIC.to_vec();
        want.extend(SNAP_VERSION.to_le_bytes());
        want.extend(9u64.to_le_bytes());
        want.extend(meta.generation.to_le_bytes());
        want.extend(meta.memo_bits.to_le_bytes());
        want.extend(meta.grain.to_le_bytes());
        want.extend(b"PSCCCSR1");
        want.extend((csr.n() as u64).to_le_bytes());
        want.extend((csr.m() as u64).to_le_bytes());
        csr.offsets().iter().for_each(|o| want.extend(o.to_le_bytes()));
        csr.targets().iter().for_each(|t| want.extend(t.to_le_bytes()));
        want.extend(Checksum64::of(&want).to_le_bytes());
        let got = std::fs::read(&path).unwrap();
        assert!(got == want, "snapshot bytes differ from the element-wise encoding");
        assert_eq!(bytes, want.len() as u64);
        let (back, _, seq) = read_snapshot(&path).unwrap();
        assert_eq!((back.out_csr(), back.in_csr(), seq), (g.out_csr(), g.in_csr(), 9));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_checksum_valid_snapshot_with_unsorted_rows_is_rejected() {
        let dir = tmpdir("rows");
        // Rows [1, 3] and [2, 3]; rewritten below to [3, 1] and [2, 2].
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 3), (1, 2), (1, 3)]);
        drop(crate::Store::create(&dir, &g, StoreMeta::default()).unwrap());
        let path = dir.join(snapshot_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        // The targets are the 16 bytes before the trailing checksum.
        let end = bytes.len() - 8;
        for (slot, t) in bytes[end - 16..end].chunks_exact_mut(4).zip([3u32, 1, 2, 2]) {
            slot.copy_from_slice(&t.to_le_bytes());
        }
        let crc = Checksum64::of(&bytes[..end]);
        bytes[end..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = read_snapshot(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("vertex 0 is not strictly increasing"), "{err}");
        let err = crate::Store::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn truncation_is_detected() {
        let dir = tmpdir("trunc");
        let g = demo_graph();
        let meta = StoreMeta { generation: 1, memo_bits: 16, grain: 512 };
        let (path, _) = write_snapshot(&dir, 1, &g, &meta).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for len in 0..bytes.len() {
            std::fs::write(&path, &bytes[..len]).unwrap();
            assert!(read_snapshot(&path).is_err(), "truncation to {len} accepted");
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
