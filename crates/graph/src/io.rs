//! Graph serialization: a human-readable edge-list text format and a
//! compact little-endian binary CSR format.
//!
//! Text format (one record per line):
//! ```text
//! # comments allowed
//! n m          <- header: vertex count, edge count
//! u v          <- one directed edge per line
//! ```
//!
//! Binary format (all integers little-endian):
//! ```text
//! "PSCCCSR1"             8-byte magic
//! n: u64                 vertex count, < 2³² − 1
//! m: u64                 edge count
//! offsets: u64 × (n + 1) offsets[0] = 0, non-decreasing, offsets[n] = m
//! targets: u32 × m       each < n; row v = targets[offsets[v]..offsets[v + 1]]
//!                        is strictly increasing (sorted, no duplicates)
//! ```
//! The reader checks every rule and the writer refuses a graph that breaks
//! one, so everything [`write_binary`] produces [`read_binary`] accepts.
//! Both move the arrays through one fixed 64 KiB slab: one `write_all` /
//! `read_exact` per slab, the reader's checks folded into the decode.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::csr::{Csr, DiGraph};
use crate::V;

/// Writes `g` as an edge-list text file.
pub fn write_edge_list<P: AsRef<Path>>(g: &DiGraph, path: P) -> io::Result<()> {
    // Refuse to produce a file read_edge_list would reject as a hostile
    // header (see TEXT_VERTEX_FLOOR): every edge record occupies at least
    // 4 bytes, so 4 * m lower-bounds the file size the reader will see.
    let min_len = 4 * g.m() as u64;
    if g.n() as u64 > TEXT_VERTEX_FLOOR.max(min_len.saturating_mul(TEXT_VERTEX_BYTES_FACTOR)) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "graph with {} vertices and {} edges is too sparse for the \
                 text format's vertex cap; use write_binary",
                g.n(),
                g.m()
            ),
        ));
    }
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "# parallel-scc edge list")?;
    writeln!(w, "{} {}", g.n(), g.m())?;
    for (u, v) in g.out_csr().edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()
}

fn invalid<T>(msg: impl Into<String>) -> io::Result<T> {
    Err(io::Error::new(io::ErrorKind::InvalidData, msg.into()))
}

/// Isolated vertices occupy no bytes in the text format, so the header's
/// vertex count cannot be bounded by record counting the way the edge
/// count is. Instead a hostile header is declared when `n` exceeds a
/// generous multiple of the file size (with a floor so small files
/// describing legitimately sparse graphs still roundtrip); graphs larger
/// or sparser than this belong in the binary format, whose header is
/// validated against the physical offset array. [`write_edge_list`]
/// enforces the same cap (conservatively, from the minimum possible
/// record size), so everything the writer produces the reader accepts.
pub const TEXT_VERTEX_FLOOR: u64 = 1 << 22;
/// See [`TEXT_VERTEX_FLOOR`].
pub const TEXT_VERTEX_BYTES_FACTOR: u64 = 16;

/// Reads an edge-list text file into a digraph.
///
/// Every record is validated against the header: endpoints must be
/// `< n`, the edge count must match `m`, and `n` must fit the `u32`
/// vertex-id space. Malformed input yields
/// [`io::ErrorKind::InvalidData`] — never a panic, and never an
/// allocation beyond a fixed multiple of the file size (edge storage is
/// bounded by the record count the file can hold, vertex storage by
/// [`TEXT_VERTEX_BYTES_FACTOR`] bytes-to-vertices with a
/// [`TEXT_VERTEX_FLOOR`] floor).
pub fn read_edge_list<P: AsRef<Path>>(path: P) -> io::Result<DiGraph> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let r = BufReader::new(file);
    let mut header: Option<(usize, usize)> = None;
    let mut edges: Vec<(V, V)> = Vec::new();
    for line in r.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let mut field = || -> io::Result<u64> {
            it.next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad record"))
        };
        let (a, b) = (field()?, field()?);
        match header {
            None => {
                if a >= u32::MAX as u64 {
                    return invalid(format!("vertex count {a} exceeds the u32 id space"));
                }
                let vertex_cap =
                    TEXT_VERTEX_FLOOR.max(file_len.saturating_mul(TEXT_VERTEX_BYTES_FACTOR));
                if a > vertex_cap {
                    return invalid(format!(
                        "header claims {a} vertices, beyond what a {file_len}-byte \
                         edge list plausibly describes (cap {vertex_cap}); \
                         use the binary format for graphs this large"
                    ));
                }
                // Each edge record costs at least 4 bytes ("u v\n"), so a
                // header whose edge count outruns the file is corrupt;
                // rejecting it here also bounds the reserve below.
                if b > file_len / 4 + 1 {
                    return invalid(format!(
                        "header claims {b} edges but the file only holds {file_len} bytes"
                    ));
                }
                header = Some((a as usize, b as usize));
                edges.reserve(b as usize);
            }
            Some((n, _)) => {
                if a >= n as u64 || b >= n as u64 {
                    return invalid(format!("edge ({a}, {b}) out of range (n={n})"));
                }
                edges.push((a as V, b as V));
            }
        }
    }
    let (n, m) = match header {
        Some(h) => h,
        None => return invalid("missing header"),
    };
    if edges.len() != m {
        return invalid(format!("header claims {m} edges, found {}", edges.len()));
    }
    Ok(DiGraph::from_edges(n, &edges))
}

const BIN_MAGIC: &[u8; 8] = b"PSCCCSR1";

/// Bytes per slab of the binary format's offsets and targets: a multiple
/// of both element widths, so no element straddles two slabs.
const SLAB_BYTES: usize = 1 << 16;

/// Writes the out-CSR of `g` in the binary format to an arbitrary writer
/// (the embeddable form of [`write_binary`]; `pscc-store` frames it inside
/// checksummed snapshot files).
///
/// Refuses, with [`io::ErrorKind::InvalidInput`] and before writing a byte,
/// a graph with a row that is not strictly increasing: the reader would
/// reject the file (see the [module docs](self)).
pub fn write_binary_to<W: Write>(g: &DiGraph, w: &mut W) -> io::Result<()> {
    let csr = g.out_csr();
    if let Some(v) = (0..csr.n() as V).find(|&v| !strictly_increasing(csr.neighbors(v))) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "row of vertex {v} is not strictly increasing; the binary reader would reject it"
            ),
        ));
    }
    w.write_all(BIN_MAGIC)?;
    w.write_all(&(csr.n() as u64).to_le_bytes())?;
    w.write_all(&(csr.m() as u64).to_le_bytes())?;
    let mut slab = vec![0u8; SLAB_BYTES];
    write_slabs(w, &mut slab, csr.offsets(), |o| o.to_le_bytes())?;
    write_slabs(w, &mut slab, csr.targets(), |t| t.to_le_bytes())
}

fn strictly_increasing(row: &[V]) -> bool {
    row.windows(2).all(|w| w[0] < w[1])
}

/// Encodes `items` into `slab` and writes each full or final slab with one
/// `write_all`.
fn write_slabs<W: Write, T: Copy, const N: usize>(
    w: &mut W,
    slab: &mut [u8],
    items: &[T],
    le_bytes: impl Fn(T) -> [u8; N],
) -> io::Result<()> {
    for chunk in items.chunks(slab.len() / N) {
        let bytes = &mut slab[..chunk.len() * N];
        for (dst, &x) in bytes.as_chunks_mut::<N>().0.iter_mut().zip(chunk) {
            *dst = le_bytes(x);
        }
        w.write_all(bytes)?;
    }
    Ok(())
}

/// Reads `len` bytes from `r` into `slab`, one `read_exact` per slab, and
/// hands each slab's bytes to `decode` (whole elements: `len` and the slab
/// are multiples of the element width).
fn read_slabs<R: Read>(
    r: &mut R,
    slab: &mut [u8],
    len: usize,
    mut decode: impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let (mut left, size) = (len, slab.len());
    while left > 0 {
        let bytes = &mut slab[..left.min(size)];
        r.read_exact(bytes)?;
        decode(bytes)?;
        left -= bytes.len();
    }
    Ok(())
}

/// Number of bytes [`write_binary_to`] emits for `g` (magic + header +
/// offsets + targets). Lets embedding formats reserve or validate space
/// without serializing twice.
pub fn binary_len(g: &DiGraph) -> u64 {
    24 + (g.n() as u64 + 1) * 8 + g.m() as u64 * 4
}

/// Writes the out-CSR of `g` in the binary format.
pub fn write_binary<P: AsRef<Path>>(g: &DiGraph, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    write_binary_to(g, &mut w)?;
    w.flush()
}

/// Reads a binary CSR file into a digraph.
///
/// The header is distrusted: the implied payload size is checked against
/// the actual file length *before* any allocation, offsets are checked
/// for `offsets[0] == 0`, monotonicity, and `offsets[n] == m`, every
/// target must be `< n`, and every row strictly increasing (an unsorted or
/// duplicated row would silently break the binary searches and merges
/// of later updates). A corrupt or truncated file yields
/// [`io::ErrorKind::InvalidData`] (or the underlying read error) — never
/// a panic and never a speculative multi-GB allocation.
pub fn read_binary<P: AsRef<Path>>(path: P) -> io::Result<DiGraph> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    read_binary_from(&mut r, file_len)
}

/// Reads one binary CSR graph from an arbitrary reader (the embeddable
/// form of [`read_binary`]; `pscc-store` uses it to parse snapshot files).
///
/// `limit` is the number of bytes the caller can vouch for (for a plain
/// file, its length): the distrusted header is validated against it before
/// any allocation, exactly like [`read_binary`]. Reads exactly the graph's
/// serialized bytes from `r`, leaving any trailing bytes unconsumed.
pub fn read_binary_from<R: Read>(r: &mut R, limit: u64) -> io::Result<DiGraph> {
    let file_len = limit;
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BIN_MAGIC {
        return invalid("bad magic");
    }
    let mut buf8 = [0u8; 8];
    r.read_exact(&mut buf8)?;
    let n64 = u64::from_le_bytes(buf8);
    r.read_exact(&mut buf8)?;
    let m64 = u64::from_le_bytes(buf8);
    if n64 >= u32::MAX as u64 {
        return invalid(format!("vertex count {n64} exceeds the u32 id space"));
    }
    // Bound allocations by what the file can actually hold: the payload is
    // (n + 1) offsets of 8 bytes and m targets of 4 bytes after the
    // 24-byte preamble.
    let payload = (n64 + 1)
        .checked_mul(8)
        .and_then(|o| m64.checked_mul(4).and_then(|t| o.checked_add(t)))
        .and_then(|p| p.checked_add(24));
    match payload {
        Some(want) if want <= file_len => {}
        _ => {
            return invalid(format!(
                "header claims n={n64} m={m64} but the file only holds {file_len} bytes"
            ))
        }
    }
    let (n, m) = (n64 as usize, m64 as usize);
    let mut slab = vec![0u8; SLAB_BYTES];
    let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
    read_slabs(r, &mut slab, (n + 1) * 8, |bytes| {
        for &word in bytes.as_chunks::<8>().0 {
            let o = u64::from_le_bytes(word);
            match offsets.last() {
                None if o != 0 => return invalid("offsets[0] must be 0"),
                Some(&prev) if prev > o => {
                    return invalid(format!("offsets not monotone at vertex {}", offsets.len() - 1))
                }
                _ => offsets.push(o),
            }
        }
        Ok(())
    })?;
    if offsets[n] != m64 {
        return invalid(format!("offsets[n] = {} disagrees with header m = {m}", offsets[n]));
    }
    let mut targets: Vec<V> = Vec::with_capacity(m);
    // Row v holds position targets.len(); rows end at offsets[v + 1] < m.
    let mut v = 0usize;
    read_slabs(r, &mut slab, m * 4, |bytes| {
        for &word in bytes.as_chunks::<4>().0 {
            let (t, i) = (u32::from_le_bytes(word), targets.len());
            if t as usize >= n {
                return invalid(format!("target {t} at position {i} out of range (n={n})"));
            }
            while offsets[v + 1] as usize <= i {
                v += 1;
            }
            if i > offsets[v] as usize && targets[i - 1] >= t {
                return invalid(format!(
                    "row of vertex {v} is not strictly increasing at position {i}"
                ));
            }
            targets.push(t);
        }
        Ok(())
    })?;
    Ok(DiGraph::from_out_csr(Csr::from_parts(offsets, targets)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random::gnm_digraph;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pscc_io_test_{name}_{}", std::process::id()));
        p
    }

    #[test]
    fn text_roundtrip() {
        let g = gnm_digraph(50, 200, 1);
        let path = tmp("text");
        write_edge_list(&g, &path).unwrap();
        let back = read_edge_list(&path).unwrap();
        assert_eq!(g.out_csr(), back.out_csr());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn binary_roundtrip() {
        let g = gnm_digraph(64, 500, 2);
        let path = tmp("bin");
        write_binary(&g, &path).unwrap();
        let back = read_binary(&path).unwrap();
        assert_eq!(g.out_csr(), back.out_csr());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn text_rejects_edge_count_mismatch() {
        let path = tmp("badcount");
        std::fs::write(&path, "2 3\n0 1\n").unwrap();
        assert!(read_edge_list(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn text_rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, "hello world\n").unwrap();
        assert!(read_edge_list(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn text_skips_comments_and_blank_lines() {
        let path = tmp("comments");
        std::fs::write(&path, "# hi\n\n3 2\n0 1\n# mid\n1 2\n").unwrap();
        let g = read_edge_list(&path).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn text_rejects_out_of_range_endpoints() {
        let path = tmp("oor");
        std::fs::write(&path, "3 2\n0 1\n1 7\n").unwrap();
        let err = read_edge_list(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("out of range"), "{err}");
        std::fs::write(&path, "3 1\n9 0\n").unwrap();
        assert!(read_edge_list(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn text_rejects_absurd_edge_count_without_allocating() {
        let path = tmp("hugem");
        // Header promises 2^60 edges in a 30-byte file; must fail fast
        // instead of reserving a petabyte.
        std::fs::write(&path, format!("4 {}\n0 1\n", 1u64 << 60)).unwrap();
        let err = read_edge_list(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn text_rejects_oversized_vertex_count() {
        let path = tmp("hugen");
        std::fs::write(&path, format!("{} 0\n", u64::MAX)).unwrap();
        assert!(read_edge_list(&path).is_err());
        // A valid-u32 vertex count a tiny file can't plausibly describe is
        // rejected too — *before* the ~GB-scale CSR build it would imply.
        std::fs::write(&path, "1000000000 0\n").unwrap();
        let err = read_edge_list(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("binary format"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn text_writer_refuses_graphs_the_reader_would_reject() {
        // 10M vertices, 2 edges: beyond the text vertex cap for any file
        // this graph can serialize to — the writer must say so up front.
        let g = DiGraph::from_edges(10_000_000, &[(0, 1), (5, 9_999_999)]);
        let path = tmp("toosparse");
        let err = write_edge_list(&g, &path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("write_binary"), "{err}");
        // The binary format handles it fine.
        write_binary(&g, &path).unwrap();
        let back = read_binary(&path).unwrap();
        assert_eq!(back.n(), 10_000_000);
        assert_eq!(back.m(), 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn text_accepts_sparse_graphs_under_the_floor() {
        // Isolated vertices occupy no bytes: a small file may still declare
        // a vertex count far above its edge count and must roundtrip.
        let path = tmp("sparse");
        std::fs::write(&path, "1000000 1\n7 999999\n").unwrap();
        let g = read_edge_list(&path).unwrap();
        assert_eq!(g.n(), 1_000_000);
        assert_eq!(g.m(), 1);
        std::fs::remove_file(path).ok();
    }

    /// A valid binary file as raw bytes, for corruption tests.
    fn binary_bytes(g: &DiGraph, name: &str) -> Vec<u8> {
        let path = tmp(name);
        write_binary(g, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(path).ok();
        bytes
    }

    fn read_binary_bytes(bytes: &[u8], name: &str) -> io::Result<DiGraph> {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        let out = read_binary(&path);
        std::fs::remove_file(path).ok();
        out
    }

    #[test]
    fn binary_rejects_header_larger_than_file() {
        let g = gnm_digraph(20, 50, 3);
        let mut bytes = binary_bytes(&g, "hdrbig");
        // Claim 2^40 vertices: the reader must reject before allocating
        // the 8 TiB offsets array the header implies.
        bytes[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = read_binary_bytes(&bytes, "hdrbig2").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // Same for an absurd edge count.
        let mut bytes = binary_bytes(&g, "hdrbig3");
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_binary_bytes(&bytes, "hdrbig4").is_err());
    }

    #[test]
    fn binary_rejects_truncation_at_every_length() {
        let g = gnm_digraph(12, 30, 4);
        let bytes = binary_bytes(&g, "trunc");
        for len in 0..bytes.len() {
            assert!(
                read_binary_bytes(&bytes[..len], "trunc_cut").is_err(),
                "truncation to {len} bytes must fail"
            );
        }
    }

    #[test]
    fn binary_rejects_non_monotone_offsets() {
        let g = gnm_digraph(10, 25, 5);
        let mut bytes = binary_bytes(&g, "mono");
        // offsets live at [24, 24 + (n+1)*8); swap two of them.
        let off = 24 + 2 * 8;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_binary_bytes(&bytes, "mono2").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("monotone"), "{err}");
    }

    #[test]
    fn binary_rejects_offset_sum_mismatch() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut bytes = binary_bytes(&g, "sum");
        // Zero the final offset so offsets[n] != m.
        let off = 24 + 4 * 8;
        bytes[off..off + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(read_binary_bytes(&bytes, "sum2").is_err());
    }

    #[test]
    fn binary_rejects_out_of_range_targets() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut bytes = binary_bytes(&g, "tgt");
        let targets_at = 24 + 5 * 8;
        bytes[targets_at..targets_at + 4].copy_from_slice(&99u32.to_le_bytes());
        let err = read_binary_bytes(&bytes, "tgt2").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOTMAGIC rest").unwrap();
        assert!(read_binary(&path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn streaming_binary_roundtrips_with_trailing_bytes() {
        // write_binary_to / read_binary_from embed a graph inside a larger
        // stream: trailing bytes must be left unconsumed.
        let g = gnm_digraph(40, 120, 9);
        let mut bytes = Vec::new();
        write_binary_to(&g, &mut bytes).unwrap();
        assert_eq!(bytes.len() as u64, binary_len(&g));
        bytes.extend_from_slice(b"TRAILER");
        let mut r = std::io::Cursor::new(&bytes[..]);
        let back = read_binary_from(&mut r, bytes.len() as u64).unwrap();
        assert_eq!(g.out_csr(), back.out_csr());
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"TRAILER");
    }

    /// The element-wise encoder the slab writer replaced (one call per
    /// integer, no row check), kept as its reference.
    fn element_wise_bytes(csr: &Csr) -> Vec<u8> {
        let mut out = BIN_MAGIC.to_vec();
        out.extend_from_slice(&(csr.n() as u64).to_le_bytes());
        out.extend_from_slice(&(csr.m() as u64).to_le_bytes());
        for &o in csr.offsets() {
            out.extend_from_slice(&o.to_le_bytes());
        }
        for &t in csr.targets() {
            out.extend_from_slice(&t.to_le_bytes());
        }
        out
    }

    #[test]
    fn slab_encoding_matches_the_element_wise_reference() {
        // Empty, one partial slab, and offsets and targets that each span
        // several slabs with a partial last one.
        for g in
            [DiGraph::from_edges(0, &[]), gnm_digraph(50, 200, 1), gnm_digraph(20_011, 70_001, 2)]
        {
            let want = element_wise_bytes(g.out_csr());
            let mut got = Vec::new();
            write_binary_to(&g, &mut got).unwrap();
            assert!(got == want, "n={} m={}: bytes differ", g.n(), g.m());
            let back = read_binary_from(&mut &got[..], got.len() as u64).unwrap();
            assert_eq!(back.out_csr(), g.out_csr());
            assert_eq!(back.in_csr(), g.in_csr());
        }
    }

    #[test]
    fn binary_rejects_rows_that_are_not_strictly_increasing() {
        let read = |csr: Csr| {
            let bytes = element_wise_bytes(&csr);
            read_binary_bytes(&bytes, "rows").map(|_| ()).unwrap_err()
        };
        // Rows [3, 1] and [2, 2]: the unsorted one is found first.
        let err = read(Csr::from_parts(vec![0, 2, 4, 4, 4], vec![3, 1, 2, 2]));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("vertex 0"), "{err}");
        let err = read(Csr::from_parts(vec![0, 2, 4, 4, 4], vec![1, 3, 2, 2]));
        assert!(err.to_string().contains("vertex 1 is not strictly increasing"), "{err}");
        // A duplicate straddling the first targets slab boundary.
        let mut row: Vec<V> = (0..20_000).collect();
        row[SLAB_BYTES / 4] = row[SLAB_BYTES / 4 - 1];
        let mut offsets = vec![20_000u64; 20_001];
        offsets[0] = 0;
        let err = read(Csr::from_parts(offsets, row));
        assert!(err.to_string().contains(&format!("position {}", SLAB_BYTES / 4)), "{err}");
    }

    #[test]
    fn binary_writer_refuses_rows_the_reader_would_reject() {
        let g = DiGraph::from_out_csr(Csr::from_parts(vec![0, 2, 4, 4, 4], vec![3, 1, 2, 2]));
        let mut bytes = Vec::new();
        let err = write_binary_to(&g, &mut bytes).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("vertex 0"), "{err}");
        assert!(bytes.is_empty(), "a refused graph writes nothing");
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = DiGraph::from_edges(5, &[]);
        let path = tmp("empty");
        write_binary(&g, &path).unwrap();
        let back = read_binary(&path).unwrap();
        assert_eq!(back.n(), 5);
        assert_eq!(back.m(), 0);
        std::fs::remove_file(path).ok();
    }
}
