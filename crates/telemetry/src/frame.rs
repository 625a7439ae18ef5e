//! The framed-log codec: the one definition of the bytes the store's
//! write-ahead log (`wal.log`) and the flight recorder's journal
//! (`flight-<seq>.fdr`) put on disk, and the one reader both scan with.
//!
//! ## Layout
//!
//! ```text
//! magic: [u8; 8]                   one per file; each file type has its own
//! frame*                           zero or more frames, back to back
//!
//! a frame starting at offset `at`:
//!   at + 0          len: u32       payload length in bytes
//!   at + 4          seq: u64       sequence number, +1 per frame
//!   at + 12         payload        `len` bytes; the file type owns their meaning
//!   at + 12 + len   crc: u64       Checksum64 over len ∥ seq ∥ payload
//! ```
//!
//! All integers are little-endian, so a frame costs 20 bytes beyond its
//! payload.
//!
//! ## Reading
//!
//! [`scan`] checks the magic, then decodes frames from the front. It
//! stops at the first frame that is short, whose length runs past the end
//! of the bytes, whose checksum fails, or whose payload the file type's
//! parser rejects: everything from there on is a torn tail. It also stops
//! at the first *sequence break* — a frame that passes all of that but
//! whose `seq` is not its predecessor's plus one — and reports it, since a
//! crash never leaves one behind. The caller decides what a break means:
//! an error when the WAL opens for recovery, a finding in the doctor's
//! read-only scans.

/// Bytes a frame adds around its payload: `len` (4) + `seq` (8) + `crc` (8).
const OVERHEAD: usize = 4 + 8 + 8;

/// Streaming 64-bit FNV-1a checksum: the frame `crc`, and the trailer of
/// graph snapshots. Not cryptographic: it guards against crashes and bit
/// rot, not adversaries.
///
/// ```
/// use pscc_telemetry::frame::Checksum64;
///
/// let mut c = Checksum64::new();
/// c.update(b"hello ");
/// c.update(b"world");
/// let mut whole = Checksum64::new();
/// whole.update(b"hello world");
/// assert_eq!(c.finish(), whole.finish());
/// ```
#[derive(Clone, Debug)]
pub struct Checksum64(u64);

impl Default for Checksum64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum64 {
    /// A fresh checksum (FNV-1a offset basis).
    pub fn new() -> Self {
        Checksum64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// One-shot checksum of a byte slice.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut c = Checksum64::new();
        c.update(bytes);
        c.finish()
    }
}

/// Appends one frame carrying `payload` as record `seq` to `out`.
///
/// # Panics
///
/// If the payload does not fit the `u32` length field; callers bound it.
pub fn encode(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    assert!(u32::try_from(payload.len()).is_ok(), "frame payload overflows its length field");
    let start = out.len();
    out.reserve(OVERHEAD + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = Checksum64::of(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// One decoded frame, borrowing its payload from the scanned bytes.
#[derive(Debug, PartialEq, Eq)]
struct Frame<'a> {
    /// The frame's sequence number.
    seq: u64,
    /// The payload bytes, checksum-verified but not parsed.
    payload: &'a [u8],
    /// Offset just past the frame: where the next one starts.
    end: usize,
}

/// Decodes the frame starting at `at`; `None` when it is short, its
/// length runs past the end of `bytes`, or its checksum fails. Every
/// access is bounds-checked: arbitrary bytes end a scan, never panic it.
fn decode(bytes: &[u8], at: usize) -> Option<Frame<'_>> {
    let rest = bytes.get(at..)?;
    let room = rest.len().checked_sub(OVERHEAD)?;
    let len = u32::from_le_bytes(rest.get(0..4)?.try_into().ok()?) as usize;
    if len > room {
        return None;
    }
    let seq = u64::from_le_bytes(rest.get(4..12)?.try_into().ok()?);
    let crc_at = 12 + len;
    let crc = u64::from_le_bytes(rest.get(crc_at..crc_at + 8)?.try_into().ok()?);
    if Checksum64::of(rest.get(..crc_at)?) != crc {
        return None;
    }
    Some(Frame { seq, payload: rest.get(12..crc_at)?, end: at + crc_at + 8 })
}

/// What [`scan`] read from one framed file.
#[derive(Debug)]
pub struct Scan<T> {
    /// Every accepted frame in file order: its `seq` and parsed payload.
    pub records: Vec<(u64, T)>,
    /// Length of the valid prefix: the magic plus every accepted frame.
    /// The bytes past it are a torn tail, or follow a sequence break.
    pub valid_len: usize,
    /// The sequence break the scan stopped at, as `(last accepted seq,
    /// the seq that followed it)`.
    pub seq_break: Option<(u64, u64)>,
}

/// Scans a whole framed file held in `bytes`: `None` when it does not
/// start with `magic`, otherwise its longest valid, contiguous prefix.
/// `parse` turns a checksum-valid payload into a record, or rejects it,
/// which ends the scan as a torn tail does. The first frame may carry any
/// `seq`.
pub fn scan<T>(
    bytes: &[u8],
    magic: &[u8; 8],
    mut parse: impl FnMut(&[u8]) -> Option<T>,
) -> Option<Scan<T>> {
    if !bytes.starts_with(magic) {
        return None;
    }
    let mut out = Scan { records: Vec::new(), valid_len: magic.len(), seq_break: None };
    while let Some(frame) = decode(bytes, out.valid_len) {
        let Some(record) = parse(frame.payload) else {
            break;
        };
        if let Some(&(last, _)) = out.records.last() {
            if last.checked_add(1) != Some(frame.seq) {
                out.seq_break = Some((last, frame.seq));
                break;
            }
        }
        out.records.push((frame.seq, record));
        out.valid_len = frame.end;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"TESTFRM1";

    fn file(frames: &[(u64, &[u8])]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        for &(seq, payload) in frames {
            encode(&mut out, seq, payload);
        }
        out
    }

    fn owned(p: &[u8]) -> Option<Vec<u8>> {
        Some(p.to_vec())
    }

    #[test]
    fn checksum_matches_the_published_fnv1a64_vectors() {
        assert_eq!(Checksum64::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Checksum64::of(b"foobar"), 0x8594_4171_f739_67e8);
        let mut c = Checksum64::new();
        c.update(b"foo");
        c.update(b"bar");
        assert_eq!(c.finish(), Checksum64::of(b"foobar"));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut bytes = Vec::new();
        encode(&mut bytes, 7, b"payload");
        assert_eq!(bytes.len(), OVERHEAD + 7);
        assert_eq!(
            decode(&bytes, 0),
            Some(Frame { seq: 7, payload: b"payload", end: bytes.len() })
        );
        encode(&mut bytes, 8, b"");
        let second = decode(&bytes, OVERHEAD + 7).unwrap();
        assert_eq!((second.seq, second.payload, second.end), (8, &b""[..], bytes.len()));
    }

    #[test]
    fn decode_rejects_short_overlong_and_flipped_frames() {
        let mut bytes = Vec::new();
        encode(&mut bytes, 1, b"abc");
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut], 0), None, "short by {}", bytes.len() - cut);
        }
        let mut overlong = bytes.clone();
        overlong[0] = 0xff;
        assert_eq!(decode(&overlong, 0), None);
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            assert_eq!(decode(&flipped, 0), None, "flip at {i}");
        }
        assert_eq!(decode(&bytes, bytes.len() + 5), None);
    }

    #[test]
    fn scan_stops_at_the_torn_tail() {
        let bytes = file(&[(3, b"x"), (4, b"yy"), (5, b"zzz")]);
        let whole = scan(&bytes, MAGIC, owned).unwrap();
        assert_eq!(whole.records.len(), 3);
        assert_eq!(whole.valid_len, bytes.len());
        assert_eq!(whole.seq_break, None);
        let torn = scan(&bytes[..bytes.len() - 1], MAGIC, owned).unwrap();
        assert_eq!(torn.records, vec![(3, b"x".to_vec()), (4, b"yy".to_vec())]);
        assert_eq!(torn.valid_len, MAGIC.len() + 2 * OVERHEAD + 3);
    }

    #[test]
    fn scan_stops_where_the_parser_refuses() {
        let bytes = file(&[(1, b"ok"), (2, b"no"), (3, b"ok")]);
        let s = scan(&bytes, MAGIC, |p| (p == b"ok").then_some(())).unwrap();
        assert_eq!(s.records, vec![(1, ())]);
        assert_eq!(s.valid_len, MAGIC.len() + OVERHEAD + 2);
        assert_eq!(s.seq_break, None);
    }

    #[test]
    fn scan_reports_the_first_sequence_break() {
        let bytes = file(&[(1, b"a"), (2, b"b"), (4, b"c"), (5, b"d")]);
        let s = scan(&bytes, MAGIC, owned).unwrap();
        assert_eq!(s.records.iter().map(|r| r.0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(s.seq_break, Some((2, 4)));
        assert_eq!(s.valid_len, MAGIC.len() + 2 * (OVERHEAD + 1));
        let wrapped = file(&[(u64::MAX, b"a"), (0, b"b")]);
        assert_eq!(scan(&wrapped, MAGIC, owned).unwrap().seq_break, Some((u64::MAX, 0)));
    }

    #[test]
    fn scan_requires_the_magic() {
        let bytes = file(&[(1, b"a")]);
        assert!(scan(&bytes[..5], MAGIC, owned).is_none());
        assert!(scan(&bytes, b"OTHERMG1", owned).is_none());
        assert!(scan(MAGIC, MAGIC, owned).unwrap().records.is_empty());
    }
}
