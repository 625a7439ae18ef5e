//! The flight recorder: a bounded, segment-rotated, crash-surviving
//! event journal for post-mortem diagnostics.
//!
//! Live telemetry (metrics, spans, exposition) evaporates with the
//! process; the interesting failures — a crash mid-compaction, a delta
//! that inexplicably fell to a full rebuild — are diagnosed *after the
//! fact* from the data dir. The recorder closes that gap: structured
//! events ([`FlightEvent`]) and finished tracing spans are buffered in a
//! small in-memory ring and flushed to `flight-<seq>.fdr` segment files,
//! which `pscc-doctor` reads back read-only to reconstruct the timeline.
//!
//! ## On-disk format
//!
//! Each segment is an 8-byte magic ([`FLIGHT_MAGIC`]) followed by frames
//! in the framed-log layout [`frame`] defines, the one the store's
//! write-ahead log uses too. A payload is one UTF-8 line of
//! tab-separated `key=value` fields (values escaped with
//! [`escape_field_value`]), always starting `ts=<ns>\tevent=<kind>`, so a
//! journal is greppable *and* machine parseable with [`parse_line`].
//! Sequence numbers increase by exactly 1 across the whole journal; a
//! segment file is named after its first record's seq
//! (`flight-<seq:020>.fdr`), rotation starts a fresh segment past
//! [`SEGMENT_ROTATE_BYTES`] and deletes the oldest past [`MAX_SEGMENTS`],
//! and a torn tail (the crash the recorder exists for) is tolerated by
//! every scan: a frame that fails to decode, or whose payload is not
//! UTF-8, ends the segment's scan, and writers never append to an old
//! segment, so a torn tail never corrupts later records.
//!
//! ## Process-global installation
//!
//! One recorder per process: [`install`] opens it, registers a
//! `std::panic` hook that best-effort dumps the ring (so the last seconds
//! before a crash are on disk even when nothing calls [`flush_active`]),
//! and makes [`record`] a cheap in-memory push from anywhere. The
//! engine's catalog records its delta/rebuild/compaction/recovery events
//! through this slot and schedules flushes on its background worker;
//! durability of the journal is best-effort by design — it is a
//! diagnostic artifact, not a source of truth, so nothing fsyncs on the
//! hot path.

use crate::frame;
use crate::metrics;
use crate::trace;
use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Once, OnceLock};

/// First 8 bytes of every segment file.
pub const FLIGHT_MAGIC: [u8; 8] = *b"PSCCFDR1";

/// A segment reaching this size is closed; the next flush starts a new one.
pub const SEGMENT_ROTATE_BYTES: u64 = 256 * 1024;

/// Maximum number of segment files kept on disk (oldest deleted first),
/// bounding the journal at roughly `MAX_SEGMENTS × SEGMENT_ROTATE_BYTES`.
pub const MAX_SEGMENTS: usize = 4;

/// Maximum events buffered in memory between flushes; the oldest are
/// dropped (and counted) past this.
pub const RING_CAPACITY: usize = 1024;

/// Hard cap on one record's payload; longer events are cut at the last
/// character boundary at or below it.
const MAX_PAYLOAD_BYTES: usize = 64 * 1024;

const SEGMENT_PREFIX: &str = "flight-";
const SEGMENT_SUFFIX: &str = ".fdr";

/// Cached handle for `pscc_flight_events_recorded_total`.
fn events_counter() -> &'static Arc<metrics::Counter> {
    static C: OnceLock<Arc<metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| metrics::counter("pscc_flight_events_recorded_total"))
}

/// Cached handle for `pscc_flight_events_dropped_total` (ring overflow
/// between flushes).
fn dropped_counter() -> &'static Arc<metrics::Counter> {
    static C: OnceLock<Arc<metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| metrics::counter("pscc_flight_events_dropped_total"))
}

/// Cached handle for `pscc_flight_flushes_total`.
fn flushes_counter() -> &'static Arc<metrics::Counter> {
    static C: OnceLock<Arc<metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| metrics::counter("pscc_flight_flushes_total"))
}

/// Cached handle for `pscc_flight_bytes_written_total`.
fn bytes_counter() -> &'static Arc<metrics::Counter> {
    static C: OnceLock<Arc<metrics::Counter>> = OnceLock::new();
    C.get_or_init(|| metrics::counter("pscc_flight_bytes_written_total"))
}

/// Escapes one field value for the tab-separated payload line: `\` →
/// `\\`, tab → `\t`, newline → `\n`, carriage return → `\r` (two
/// characters each), so the line survives grep, terminals, and
/// [`parse_line`].
pub fn escape_field_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_field_value`]; unknown escapes pass through.
pub fn unescape_field_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    let mut chars = value.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Splits one journal payload line into its `key=value` fields, with
/// values unescaped. Fields without `=` are skipped.
pub fn parse_line(line: &str) -> Vec<(String, String)> {
    line.split('\t')
        .filter_map(|field| field.split_once('='))
        .map(|(k, v)| (k.to_string(), unescape_field_value(v)))
        .collect()
}

/// One structured event headed for the journal. Build with
/// [`FlightEvent::new`], attach fields, hand to [`record`] (or a
/// [`Recorder`] directly).
#[derive(Clone, Debug)]
pub struct FlightEvent {
    kind: &'static str,
    fields: Vec<(&'static str, String)>,
}

impl FlightEvent {
    /// Starts an event of the given kind (`"delta"`, `"compaction"`, …).
    pub fn new(kind: &'static str) -> FlightEvent {
        FlightEvent { kind, fields: Vec::new() }
    }

    /// Appends one `key=value` field (value escaped at render time).
    pub fn field(mut self, key: &'static str, value: impl std::fmt::Display) -> FlightEvent {
        self.fields.push((key, value.to_string()));
        self
    }

    /// The payload line: `ts=<ns>\tevent=<kind>\tk=v…`.
    fn render(&self, ts_ns: u64) -> String {
        let mut line = format!("ts={ts_ns}\tevent={}", self.kind);
        for (k, v) in &self.fields {
            line.push('\t');
            line.push_str(k);
            line.push('=');
            line.push_str(&escape_field_value(v));
        }
        line
    }
}

/// The open segment a [`Recorder`] is appending to.
struct Segment {
    file: File,
    bytes: u64,
}

/// Everything behind the recorder's single mutex: the in-memory ring,
/// span/histogram high-water marks, and the open segment.
struct Journal {
    ring: VecDeque<String>,
    /// Ring evictions since the last flush (re-counted into the journal
    /// as a `dropped` field so the loss is visible post-mortem).
    dropped_since_flush: u64,
    /// Highest span id already flushed; the span sink is read
    /// non-destructively so other readers (tests, dumps) are unaffected.
    last_span_id: u64,
    /// Per-histogram count at the last flush, to emit `hist` events only
    /// when a histogram actually moved.
    hist_counts: std::collections::HashMap<String, u64>,
    next_seq: u64,
    segment: Option<Segment>,
}

struct Inner {
    dir: PathBuf,
    journal: Mutex<Journal>,
}

/// A flight-recorder instance writing segments into one directory.
///
/// Cloning shares the instance. Most code uses the process-global slot
/// ([`install`] / [`record`]) instead of holding a `Recorder` directly.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Recorder {
    /// Opens (or creates) the journal directory and positions the writer
    /// after the last valid record on disk. Existing segments are never
    /// appended to — recovery after a torn tail is a fresh segment — so
    /// opening is a read-only scan plus `create_dir_all`.
    pub fn open(dir: &Path) -> io::Result<Recorder> {
        fs::create_dir_all(dir)?;
        let scan = scan_dir(dir)?;
        let next_seq = scan
            .records
            .last()
            .map(|r| r.seq + 1)
            .or_else(|| scan.segments.last().map(|s| s.first_name_seq + 1))
            .unwrap_or(1);
        let journal = Journal {
            ring: VecDeque::with_capacity(RING_CAPACITY.min(64)),
            dropped_since_flush: 0,
            last_span_id: 0,
            hist_counts: std::collections::HashMap::new(),
            next_seq,
            segment: None,
        };
        Ok(Recorder {
            inner: Arc::new(Inner { dir: dir.to_path_buf(), journal: Mutex::new(journal) }),
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Buffers one event in the ring (cheap; no I/O). Past
    /// [`RING_CAPACITY`] the oldest pending event is dropped and counted.
    pub fn record(&self, event: &FlightEvent) {
        let line = event.render(trace::now_nanos());
        events_counter().inc();
        let mut j = self.inner.journal.lock().expect("flight recorder lock");
        if j.ring.len() >= RING_CAPACITY {
            j.ring.pop_front();
            j.dropped_since_flush += 1;
            dropped_counter().inc();
        }
        j.ring.push_back(line);
    }

    /// Drains the ring — plus any newly finished tracing spans and moved
    /// latency histograms — to the current segment, rotating past
    /// [`SEGMENT_ROTATE_BYTES`]. No fsync: pair with [`Recorder::force_dump`] at
    /// shutdown (the installed panic hook covers crashes).
    pub fn flush(&self) -> io::Result<()> {
        let mut j = self.inner.journal.lock().expect("flight recorder lock");
        self.inner.flush_locked(&mut j)
    }

    /// Flushes and fsyncs, best-effort: errors are swallowed because the
    /// callers (shutdown paths, drop impls) have nowhere to report them.
    pub fn force_dump(&self) {
        let mut j = self.inner.journal.lock().expect("flight recorder lock");
        let _ = self.inner.flush_locked(&mut j);
        if let Some(seg) = j.segment.as_ref() {
            let _ = seg.file.sync_data();
        }
    }

    /// Panic-hook variant of [`Recorder::force_dump`]: never blocks (a held or
    /// poisoned lock on the panicking thread must not deadlock or
    /// double-panic the unwind).
    fn try_force_dump(&self) {
        if let Ok(mut j) = self.inner.journal.try_lock() {
            let _ = self.inner.flush_locked(&mut j);
            if let Some(seg) = j.segment.as_ref() {
                let _ = seg.file.sync_data();
            }
        }
    }
}

impl Inner {
    /// Collects the pending lines (ring + new spans + moved histograms)
    /// and appends them as frames; see [`Recorder::flush`].
    fn flush_locked(&self, j: &mut Journal) -> io::Result<()> {
        let mut lines: Vec<(u64, String)> = Vec::with_capacity(j.ring.len());
        if j.dropped_since_flush > 0 {
            let ev = FlightEvent::new("ring_overflow").field("dropped", j.dropped_since_flush);
            lines.push((trace::now_nanos(), ev.render(trace::now_nanos())));
            j.dropped_since_flush = 0;
        }
        for line in j.ring.drain(..) {
            let ts = line
                .strip_prefix("ts=")
                .and_then(|rest| rest.split('\t').next())
                .and_then(|ts| ts.parse::<u64>().ok())
                .unwrap_or(0);
            lines.push((ts, line));
        }
        // Spans: read the global sink non-destructively and remember the
        // high-water id, so concurrent snapshot/drain users are unharmed.
        for span in trace::snapshot_spans() {
            if span.id <= j.last_span_id {
                continue;
            }
            j.last_span_id = j.last_span_id.max(span.id);
            let mut ev = FlightEvent::new("span")
                .field("name", span.name)
                .field("trace", span.trace)
                .field("span", span.id)
                .field("parent", span.parent)
                .field("start_ns", span.start_ns)
                .field("dur_ns", span.duration_nanos());
            for (k, v) in &span.attrs {
                ev.fields.push((*k, v.clone()));
            }
            lines.push((span.end_ns, ev.render(span.end_ns)));
        }
        // Histogram snapshots, only for histograms that moved since the
        // last flush: the doctor's health report reads the *last* `hist`
        // event per name for its fsync/batch percentiles.
        let mut hists: Vec<(String, metrics::HistogramSnapshot)> = Vec::new();
        metrics::visit(|_, _| {}, |_, _| {}, |name, h| hists.push((name.to_string(), h)));
        let now = trace::now_nanos();
        for (name, h) in hists {
            if h.count == 0 || j.hist_counts.get(&name).copied() == Some(h.count) {
                continue;
            }
            j.hist_counts.insert(name.clone(), h.count);
            let ev = FlightEvent::new("hist")
                .field("name", &name)
                .field("count", h.count)
                .field("sum", h.sum)
                .field("max", h.max)
                .field("p50", format!("{:.0}", h.quantile_nanos(0.5)))
                .field("p90", format!("{:.0}", h.quantile_nanos(0.9)))
                .field("p99", format!("{:.0}", h.quantile_nanos(0.99)));
            lines.push((now, ev.render(now)));
        }
        if lines.is_empty() {
            return Ok(());
        }
        lines.sort_by_key(|&(ts, _)| ts);

        // Frame everything into one buffer, then append with one write.
        let mut buf: Vec<u8> = Vec::new();
        for (_, line) in &lines {
            // Cut on a character boundary: a split character would fail
            // the reader's UTF-8 check and end the segment's scan there.
            let mut cut = line.len().min(MAX_PAYLOAD_BYTES);
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            frame::encode(&mut buf, j.next_seq, &line.as_bytes()[..cut]);
            j.next_seq += 1;
        }

        if j.segment.is_none() {
            j.segment = Some(self.open_segment(j.next_seq - lines.len() as u64)?);
        }
        // analyze: allow(panic): the segment was just created above if absent
        let seg = j.segment.as_mut().expect("segment open");
        // Re-anchor at the tracked length so the leftovers of a previous
        // failed append can never sit between two valid frames.
        seg.file.set_len(seg.bytes)?;
        seg.file.seek(SeekFrom::Start(seg.bytes))?;
        seg.file.write_all(&buf)?;
        seg.bytes += buf.len() as u64;
        bytes_counter().add(buf.len() as u64);
        flushes_counter().inc();
        if seg.bytes >= SEGMENT_ROTATE_BYTES {
            j.segment = None; // closed; the next flush starts a new segment
        }
        Ok(())
    }

    /// Creates the segment file named after its first record's seq and
    /// prunes the oldest segments past [`MAX_SEGMENTS`].
    fn open_segment(&self, first_seq: u64) -> io::Result<Segment> {
        let path = self.dir.join(segment_file_name(first_seq));
        let mut file =
            fs::OpenOptions::new().create(true).truncate(true).write(true).open(&path)?;
        file.write_all(&FLIGHT_MAGIC)?;
        let mut names = segment_seqs(&self.dir)?;
        names.sort_unstable();
        while names.len() > MAX_SEGMENTS {
            let oldest = names.remove(0);
            let _ = fs::remove_file(self.dir.join(segment_file_name(oldest)));
        }
        Ok(Segment { file, bytes: FLIGHT_MAGIC.len() as u64 })
    }
}

/// `flight-<seq:020>.fdr`.
pub fn segment_file_name(first_seq: u64) -> String {
    format!("{SEGMENT_PREFIX}{first_seq:020}{SEGMENT_SUFFIX}")
}

/// The first-record seq encoded in a segment file name, if it is one.
pub fn segment_name_seq(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?.strip_suffix(SEGMENT_SUFFIX)?.parse().ok()
}

/// Seqs of every segment file in `dir` (unsorted).
fn segment_seqs(dir: &Path) -> io::Result<Vec<u64>> {
    let mut seqs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(segment_name_seq) {
            seqs.push(seq);
        }
    }
    Ok(seqs)
}

// ---- Read-only scanning (the doctor's view) -------------------------------

/// One decoded journal record.
#[derive(Clone, Debug)]
pub struct FlightRecord {
    /// Journal-wide sequence number.
    pub seq: u64,
    /// The payload line (parse with [`parse_line`]).
    pub line: String,
}

/// A read-only scan of one segment file. Never truncates anything.
#[derive(Debug)]
pub struct SegmentScan {
    /// The scanned file.
    pub path: PathBuf,
    /// The seq its file name claims for the first record.
    pub first_name_seq: u64,
    /// Checksum-valid records, in order.
    pub records: Vec<FlightRecord>,
    /// Bytes past the last valid frame (torn tail or trailing garbage).
    pub trailing_bytes: u64,
    /// Corruption inside the segment: a missing or damaged magic (fatal
    /// for the whole segment), or a sequence break between two
    /// checksum-valid records (the scan stops there).
    pub error: Option<String>,
}

/// A read-only scan of a whole journal directory.
#[derive(Debug, Default)]
pub struct DirScan {
    /// Per-segment results, ordered by file-name seq.
    pub segments: Vec<SegmentScan>,
    /// Every valid record across all segments, in seq order.
    pub records: Vec<FlightRecord>,
    /// Bytes of torn tails across all segments. Tails are tolerated on
    /// *any* segment, not just the newest: a writer reopened after a
    /// crash starts a fresh segment, stranding the previous tear
    /// mid-journal. Crash residue is normal; see [`DirScan::corruption`]
    /// for what is not.
    pub torn_bytes: u64,
    /// Findings that make the journal *corrupt* rather than merely torn:
    /// damaged headers, name/seq mismatches, and sequence breaks or gaps
    /// between checksum-valid records — a byte flip inside recorded data
    /// always surfaces here (the damaged record fails its checksum, so
    /// the surviving neighbors no longer count in steps of one).
    pub corruption: Vec<String>,
}

/// Scans one segment read-only: validates the magic, then decodes frames
/// until the first one that fails to decode or is not UTF-8, or until a
/// sequence break.
pub fn scan_segment(path: &Path) -> io::Result<SegmentScan> {
    let first_name_seq =
        path.file_name().and_then(|n| n.to_str()).and_then(segment_name_seq).unwrap_or(0);
    let bytes = fs::read(path)?;
    let mut scan = SegmentScan {
        path: path.to_path_buf(),
        first_name_seq,
        records: Vec::new(),
        trailing_bytes: 0,
        error: None,
    };
    let utf8 = |payload: &[u8]| std::str::from_utf8(payload).ok().map(str::to_owned);
    let Some(frames) = frame::scan(&bytes, &FLIGHT_MAGIC, utf8) else {
        scan.error = Some(format!("{}: bad or missing segment magic", path.display()));
        return Ok(scan);
    };
    if let Some((last, next)) = frames.seq_break {
        scan.error =
            Some(format!("{}: sequence break: record {last} followed by {next}", path.display()));
    }
    scan.records =
        frames.records.into_iter().map(|(seq, line)| FlightRecord { seq, line }).collect();
    scan.trailing_bytes = (bytes.len() - frames.valid_len) as u64;
    Ok(scan)
}

/// Scans every segment in `dir` read-only, classifying damage: torn
/// tails (anywhere — restarts strand them mid-journal) are normal crash
/// residue reported via [`DirScan::torn_bytes`]; damaged headers,
/// name/seq mismatches, and sequence breaks between checksum-valid
/// records land in [`DirScan::corruption`].
pub fn scan_dir(dir: &Path) -> io::Result<DirScan> {
    let mut seqs = segment_seqs(dir)?;
    seqs.sort_unstable();
    let mut out = DirScan::default();
    for seq in &seqs {
        let scan = scan_segment(&dir.join(segment_file_name(*seq)))?;
        if let Some(err) = &scan.error {
            out.corruption.push(err.clone());
        }
        out.torn_bytes += scan.trailing_bytes;
        if let Some(first) = scan.records.first() {
            if first.seq != scan.first_name_seq {
                out.corruption.push(format!(
                    "{}: first record seq {} does not match file name seq {}",
                    scan.path.display(),
                    first.seq,
                    scan.first_name_seq
                ));
            }
        }
        out.records.extend(scan.records.iter().cloned());
        out.segments.push(scan);
    }
    for pair in out.records.windows(2) {
        if pair[1].seq != pair[0].seq + 1 {
            out.corruption.push(format!(
                "sequence break: record {} followed by {}",
                pair[0].seq, pair[1].seq
            ));
        }
    }
    Ok(out)
}

// ---- The process-global slot and panic hook -------------------------------

fn active_slot() -> &'static Mutex<Option<Recorder>> {
    static SLOT: OnceLock<Mutex<Option<Recorder>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Installs the process-global recorder writing into `dir`, replacing
/// (and force-dumping) any previous one; a no-op if a recorder for the
/// same directory is already active. Also installs, once, a `std::panic`
/// hook that records the panic message and best-effort dumps the ring,
/// so the journal survives crashes that never reach a shutdown path.
pub fn install(dir: &Path) -> io::Result<()> {
    {
        let slot = active_slot().lock().expect("flight recorder slot lock");
        if slot.as_ref().is_some_and(|r| r.dir() == dir) {
            return Ok(());
        }
    }
    let rec = Recorder::open(dir)?;
    install_panic_hook();
    let prev = active_slot().lock().expect("flight recorder slot lock").replace(rec);
    if let Some(prev) = prev {
        prev.force_dump();
    }
    Ok(())
}

/// Removes the active recorder after a final force-dump.
pub fn uninstall() {
    let prev = active_slot().lock().expect("flight recorder slot lock").take();
    if let Some(prev) = prev {
        prev.force_dump();
    }
}

/// Whether a process-global recorder is installed.
pub fn is_active() -> bool {
    active_slot().lock().expect("flight recorder slot lock").is_some()
}

/// The active recorder's journal directory, if one is installed.
pub fn active_dir() -> Option<PathBuf> {
    active_slot().lock().expect("flight recorder slot lock").as_ref().map(|r| r.dir().to_path_buf())
}

/// Records `event` through the active recorder; a cheap no-op when none
/// is installed.
pub fn record(event: FlightEvent) {
    let rec = active_slot().lock().expect("flight recorder slot lock").clone();
    if let Some(rec) = rec {
        rec.record(&event);
    }
}

/// Flushes the active recorder's ring to disk (no-op when none).
pub fn flush_active() -> io::Result<()> {
    let rec = active_slot().lock().expect("flight recorder slot lock").clone();
    match rec {
        Some(rec) => rec.flush(),
        None => Ok(()),
    }
}

/// Force-dumps (flush + fsync, best-effort) the active recorder.
pub fn force_dump_active() {
    let rec = active_slot().lock().expect("flight recorder slot lock").clone();
    if let Some(rec) = rec {
        rec.force_dump();
    }
}

fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Everything here is try-lock and best-effort: the panic may
            // hold any of these locks, and a second panic would abort.
            if let Ok(slot) = active_slot().try_lock() {
                if let Some(rec) = slot.as_ref() {
                    let ev = FlightEvent::new("panic").field("message", info);
                    if let Ok(mut j) = rec.inner.journal.try_lock() {
                        if j.ring.len() >= RING_CAPACITY {
                            j.ring.pop_front();
                        }
                        let line = ev.render(trace::now_nanos());
                        j.ring.push_back(line);
                    }
                    rec.try_force_dump();
                }
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pscc-recorder-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    fn ev(kind: &'static str, n: u64) -> FlightEvent {
        FlightEvent::new(kind).field("n", n)
    }

    #[test]
    fn record_flush_scan_roundtrip() {
        let dir = tmp("roundtrip");
        let rec = Recorder::open(&dir).expect("open");
        rec.record(&ev("delta", 1));
        rec.record(&FlightEvent::new("delta").field("graph", "g\t1\n2\\3"));
        rec.flush().expect("flush");
        let scan = scan_dir(&dir).expect("scan");
        assert!(scan.corruption.is_empty(), "{:?}", scan.corruption);
        assert_eq!(scan.torn_bytes, 0);
        let deltas: Vec<_> =
            scan.records.iter().filter(|r| r.line.contains("event=delta")).collect();
        assert_eq!(deltas.len(), 2);
        let fields = parse_line(&deltas[1].line);
        let graph = fields.iter().find(|(k, _)| k == "graph").expect("graph field");
        assert_eq!(graph.1, "g\t1\n2\\3", "adversarial value roundtrips");
        assert_eq!(scan.records.first().map(|r| r.seq), Some(1));
    }

    #[test]
    fn reopen_continues_the_sequence_in_a_new_segment() {
        let dir = tmp("reopen");
        {
            let rec = Recorder::open(&dir).expect("open");
            rec.record(&ev("delta", 1));
            rec.flush().expect("flush");
        }
        let rec = Recorder::open(&dir).expect("reopen");
        rec.record(&ev("delta", 2));
        rec.flush().expect("flush");
        let scan = scan_dir(&dir).expect("scan");
        assert!(scan.corruption.is_empty(), "{:?}", scan.corruption);
        assert!(scan.segments.len() >= 2, "reopen starts a fresh segment");
        let event_seqs: Vec<u64> =
            scan.records.iter().filter(|r| r.line.contains("event=delta")).map(|r| r.seq).collect();
        assert_eq!(event_seqs.len(), 2);
        assert!(event_seqs[1] > event_seqs[0]);
    }

    #[test]
    fn torn_tail_is_tolerated_and_reported() {
        let dir = tmp("torn");
        let rec = Recorder::open(&dir).expect("open");
        rec.record(&ev("delta", 1));
        rec.record(&ev("delta", 2));
        rec.flush().expect("flush");
        let mut seqs = segment_seqs(&dir).expect("list");
        seqs.sort_unstable();
        let path = dir.join(segment_file_name(*seqs.last().expect("one segment")));
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 5]).expect("tear");
        let scan = scan_dir(&dir).expect("scan");
        assert!(scan.corruption.is_empty(), "a torn tail is not corruption: {:?}", scan.corruption);
        assert!(scan.torn_bytes > 0);
        let before: Vec<_> =
            scan.records.iter().filter(|r| r.line.contains("event=delta")).collect();
        assert_eq!(before.len(), 1, "the record before the tear survives");
    }

    #[test]
    fn byte_flip_in_an_older_segment_breaks_the_sequence() {
        let dir = tmp("corrupt");
        {
            let rec = Recorder::open(&dir).expect("open");
            for i in 0..4 {
                rec.record(&ev("delta", i));
            }
            rec.flush().expect("flush");
        }
        // A reopened recorder puts newer records in a fresh segment, so a
        // byte flip inside the older segment's records leaves a hole in
        // the sequence instead of a plausible torn tail.
        let rec2 = Recorder::open(&dir).expect("reopen");
        rec2.record(&ev("delta", 9));
        rec2.flush().expect("flush");
        let mut seqs = segment_seqs(&dir).expect("list");
        seqs.sort_unstable();
        let path = dir.join(segment_file_name(seqs[0]));
        let mut bytes = fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).expect("corrupt");
        let scan = scan_dir(&dir).expect("scan");
        assert!(!scan.corruption.is_empty(), "byte flip mid-journal must be flagged");
    }

    #[test]
    fn rotation_bounds_the_segment_count() {
        let dir = tmp("rotate");
        let rec = Recorder::open(&dir).expect("open");
        let big = "x".repeat(8 * 1024);
        // Enough bulk to force several rotations past MAX_SEGMENTS.
        for round in 0..((MAX_SEGMENTS as u64 + 3) * (SEGMENT_ROTATE_BYTES / (8 * 1024))) {
            rec.record(&FlightEvent::new("bulk").field("pad", &big).field("round", round));
            if round % 8 == 0 {
                rec.flush().expect("flush");
            }
        }
        rec.flush().expect("flush");
        let seqs = segment_seqs(&dir).expect("list");
        assert!((1..=MAX_SEGMENTS).contains(&seqs.len()), "{} segments on disk", seqs.len());
        let scan = scan_dir(&dir).expect("scan");
        assert!(scan.corruption.is_empty(), "{:?}", scan.corruption);
    }

    #[test]
    fn header_damage_is_an_error() {
        let dir = tmp("header");
        let rec = Recorder::open(&dir).expect("open");
        rec.record(&ev("delta", 1));
        rec.flush().expect("flush");
        let mut seqs = segment_seqs(&dir).expect("list");
        seqs.sort_unstable();
        let path = dir.join(segment_file_name(seqs[0]));
        let mut bytes = fs::read(&path).expect("read");
        bytes[3] ^= 0xff;
        fs::write(&path, &bytes).expect("damage");
        let scan = scan_dir(&dir).expect("scan");
        assert!(!scan.corruption.is_empty(), "magic damage must be corruption");
    }

    #[test]
    fn over_long_payloads_are_cut_on_a_char_boundary() {
        let dir = tmp("utf8-cut");
        let rec = Recorder::open(&dir).expect("open");
        // Three-byte characters past the cap, shifted by 0, 1 and 2 bytes:
        // at least one cut lands inside a character.
        let euros = "€".repeat(MAX_PAYLOAD_BYTES / 3 + 1);
        for skew in 0..3 {
            let pad = format!("{}{euros}", "x".repeat(skew));
            rec.record(&FlightEvent::new("long").field("pad", pad));
        }
        rec.record(&ev("short", 1));
        rec.flush().expect("flush");
        let scan = scan_dir(&dir).expect("scan");
        assert!(scan.corruption.is_empty(), "{:?}", scan.corruption);
        assert_eq!(scan.torn_bytes, 0);
        let kinds: Vec<String> = scan
            .records
            .iter()
            .flat_map(|r| parse_line(&r.line))
            .filter(|(k, v)| k == "event" && (v == "long" || v == "short"))
            .map(|(_, v)| v)
            .collect();
        assert_eq!(kinds, ["long", "long", "long", "short"]);
        assert!(scan.records.iter().all(|r| r.line.len() <= MAX_PAYLOAD_BYTES));
    }

    /// A segment laid out by hand from the format description, without
    /// `frame::encode`: the magic, then per record `len: u32`, `seq: u64`,
    /// the payload and `crc: u64` over the three before it, little-endian.
    /// A third, checksum-valid record out of sequence is a finding.
    #[test]
    fn scan_reads_a_segment_laid_out_by_hand() {
        let dir = tmp("by-hand");
        let lines = ["ts=5\tevent=a", "ts=6\tevent=b\tk=v", "ts=7\tevent=c"];
        let mut bytes = b"PSCCFDR1".to_vec();
        let mut start = 0;
        for (seq, line) in [40u64, 41, 43].into_iter().zip(lines) {
            start = bytes.len();
            bytes.extend((line.len() as u32).to_le_bytes());
            bytes.extend(seq.to_le_bytes());
            bytes.extend(line.as_bytes());
            let crc = frame::Checksum64::of(&bytes[start..]);
            bytes.extend(crc.to_le_bytes());
        }
        let path = dir.join(segment_file_name(40));
        fs::write(&path, &bytes).expect("write segment");
        let scan = scan_segment(&path).expect("scan");
        let got: Vec<(u64, &str)> = scan.records.iter().map(|r| (r.seq, r.line.as_str())).collect();
        assert_eq!(got, [(40, lines[0]), (41, lines[1])]);
        assert!(scan.error.is_some_and(|e| e.contains("sequence break")));
        assert_eq!(scan.trailing_bytes, (bytes.len() - start) as u64, "the stray record");
    }

    #[test]
    fn escape_roundtrip_is_exact() {
        for s in ["plain", "a\tb", "x\\y", "line\nbreak\rret", "\\t not a tab", ""] {
            assert_eq!(unescape_field_value(&escape_field_value(s)), s, "{s:?}");
        }
    }
}
