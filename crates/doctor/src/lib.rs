//! # pscc-doctor — read-only post-mortem diagnostics for a catalog data dir
//!
//! After a crash (or against a live, possibly wedged process) the
//! question is always the same: *what is on disk, is it consistent, and
//! what was the process doing when it stopped?* This crate answers all
//! three without modifying a byte:
//!
//! * **Store integrity** — every graph subdirectory's snapshot lineage is
//!   validated (checksums, header-vs-name sequence) and its write-ahead
//!   log scanned exactly as recovery would read it, but read-only: no
//!   advisory lock is taken and torn tails are *reported*, never
//!   truncated (see [`pscc_store::inspect`]).
//! * **Flight-recorder timeline** — the `flight-<seq>.fdr` journal the
//!   serving stack writes (see [`pscc_telemetry::recorder`]) is scanned
//!   and the causal trace of the last deltas, rebuilds, compactions, and
//!   panics is reconstructed, including each delta's planner explain
//!   (chosen tier, rejected cheaper tiers).
//! * **Health report** — repair-tier mix, discarded builds, and the
//!   latency percentiles the process last journaled (fsync, delta,
//!   batch-query histograms).
//! * **EXPLAIN replay** ([`explain_queries`]) — rebuilds a graph from its
//!   newest valid snapshot plus the WAL suffix, builds a fresh index, and
//!   answers queries *with provenance*
//!   ([`pscc_engine::QueryExplain`]) — the same verdicts a recovered
//!   catalog would serve.
//!
//! Everything tolerates arbitrary corruption: damaged inputs become
//! findings in [`Diagnosis::corruption`] (the CLI exits nonzero), never
//! panics.

use std::io;
use std::path::{Path, PathBuf};

use pscc_engine::catalog::encode_name;
use pscc_engine::recovery::store_dirs;
use pscc_engine::{Index, QueryBatch};
use pscc_graph::{DiGraph, V};
use pscc_store::inspect;
use pscc_telemetry::recorder;

/// The outcome of one [`diagnose`] run.
#[derive(Debug)]
pub struct Diagnosis {
    /// The rendered multi-line report.
    pub report: String,
    /// Detected corruption, one finding per line; non-empty means the
    /// data dir cannot be trusted (the CLI exits 1).
    pub corruption: Vec<String>,
}

impl Diagnosis {
    /// True when no corruption was found.
    pub fn healthy(&self) -> bool {
        self.corruption.is_empty()
    }
}

/// One parsed flight-recorder event: the journal sequence, the recorded
/// timestamp, the event kind, and the remaining `key=value` fields.
#[derive(Debug)]
pub struct TimelineEvent {
    /// Journal sequence number of the record.
    pub seq: u64,
    /// Recorder timestamp (nanoseconds, process-monotonic).
    pub ts: u64,
    /// Event kind (`apply_delta`, `rebuild_swap`, `panic`, …).
    pub kind: String,
    /// The event's remaining fields, in recorded order.
    pub fields: Vec<(String, String)>,
}

impl TimelineEvent {
    /// The value of `key`, if the event recorded it.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Diagnoses `data_dir` read-only: store integrity per graph, flight
/// journal scan, timeline of the last `timeline` events, and health
/// tallies. Never modifies, locks, or truncates anything, and never
/// panics on damaged input — corruption becomes findings.
pub fn diagnose(data_dir: &Path, timeline: usize) -> io::Result<Diagnosis> {
    let mut out = String::new();
    let mut corruption: Vec<String> = Vec::new();
    out.push_str(&format!("pscc-doctor report for {}\n", data_dir.display()));

    out.push_str("\n== stores ==\n");
    let graphs = graph_dirs(data_dir)?;
    if graphs.is_empty() {
        out.push_str("  (no graph stores found)\n");
    }
    for (name, dir) in &graphs {
        inspect_store(name, dir, &mut out, &mut corruption)?;
    }

    out.push_str("\n== flight recorder ==\n");
    let events = scan_flight_journal(data_dir, &mut out, &mut corruption)?;

    out.push_str("\n== timeline ==\n");
    render_timeline(&events, timeline, &mut out);

    out.push_str("\n== health ==\n");
    render_health(&events, &mut out);

    if corruption.is_empty() {
        out.push_str("\nverdict: healthy\n");
    } else {
        out.push_str(&format!("\nverdict: {} corruption finding(s)\n", corruption.len()));
        for c in &corruption {
            out.push_str(&format!("  !! {c}\n"));
        }
    }
    Ok(Diagnosis { report: out, corruption })
}

/// The graph store subdirectories of `data_dir`, as
/// `(decoded name, path)` sorted by name — recovery's scan
/// ([`pscc_engine::recovery::store_dirs`]), except that an unreadable
/// subdirectory is an error and an undecodable name is labeled instead of
/// refused.
fn graph_dirs(data_dir: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out: Vec<(String, PathBuf)> = store_dirs(data_dir, false)?
        .into_iter()
        .map(|(path, name)| {
            let name = name.unwrap_or_else(|| {
                let raw = path.file_name().unwrap_or_default().to_string_lossy();
                format!("<undecodable: {raw}>")
            });
            (name, path)
        })
        .collect();
    out.sort();
    Ok(out)
}

/// Validates one graph store: snapshot lineage, WAL scan, and
/// snapshot-to-WAL coverage.
fn inspect_store(
    name: &str,
    dir: &Path,
    out: &mut String,
    corruption: &mut Vec<String>,
) -> io::Result<()> {
    out.push_str(&format!("graph {name:?} ({})\n", dir.display()));
    let snapshots = inspect::list_snapshots(dir)?;
    let mut newest_valid: Option<u64> = None;
    for info in &snapshots {
        match &info.contents {
            Ok(c) => {
                out.push_str(&format!(
                    "  snapshot seq {}: ok ({} nodes, {} edges, generation {}, {} bytes)\n",
                    c.seq, c.nodes, c.edges, c.meta.generation, info.bytes
                ));
                if newest_valid.is_none() {
                    newest_valid = Some(c.seq);
                }
            }
            Err(e) => {
                out.push_str(&format!("  snapshot seq {}: INVALID ({e})\n", info.name_seq));
                corruption.push(format!("graph {name:?}: snapshot seq {}: {e}", info.name_seq));
            }
        }
    }
    if snapshots.is_empty() {
        out.push_str("  no snapshots\n");
    }
    if newest_valid.is_none() && !snapshots.is_empty() {
        corruption.push(format!("graph {name:?}: no snapshot validates — unrecoverable"));
    }

    let wal_path = dir.join(inspect::WAL_FILE_NAME);
    let wal = match inspect::scan_wal(&wal_path) {
        Ok(scan) => scan,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            out.push_str("  wal: missing\n");
            return Ok(());
        }
        Err(e) => return Err(e),
    };
    let seq_span = match (wal.records.first(), wal.records.last()) {
        (Some((first, _)), Some((last, _))) => format!("seqs {first}..={last}"),
        _ => "empty".to_string(),
    };
    out.push_str(&format!(
        "  wal: {} record(s) ({seq_span}), {} torn byte(s)\n",
        wal.records.len(),
        wal.torn_bytes
    ));
    if wal.torn_bytes > 0 {
        out.push_str("    (a torn tail is normal crash residue; recovery would truncate it)\n");
    }
    if let Some(c) = &wal.corruption {
        out.push_str(&format!("  wal: CORRUPT ({c})\n"));
        corruption.push(format!("graph {name:?}: wal: {c}"));
    }
    // Coverage: recovery replays records after the snapshot's sequence,
    // so the log must reach back at least that far.
    if let (Some(base), Some(&(first, _))) = (newest_valid, wal.records.first()) {
        if first > base + 1 {
            let finding = format!(
                "graph {name:?}: wal starts at seq {first} but the newest valid snapshot \
                 covers {base} — unreplayable gap"
            );
            out.push_str(&format!("  wal: GAP (first record {first}, snapshot {base})\n"));
            corruption.push(finding);
        } else {
            let suffix = wal.records.iter().filter(|(seq, _)| *seq > base).count();
            out.push_str(&format!("  replay: {suffix} record(s) past the snapshot\n"));
        }
    }
    Ok(())
}

/// Scans the flight journal in `data_dir`, reporting segment layout and
/// collecting parsed events.
fn scan_flight_journal(
    data_dir: &Path,
    out: &mut String,
    corruption: &mut Vec<String>,
) -> io::Result<Vec<TimelineEvent>> {
    let scan = recorder::scan_dir(data_dir)?;
    if scan.segments.is_empty() {
        out.push_str("  (no flight journal — the recorder was not enabled)\n");
        return Ok(Vec::new());
    }
    for seg in &scan.segments {
        out.push_str(&format!(
            "  segment {}: {} record(s), {} trailing byte(s)\n",
            seg.path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default(),
            seg.records.len(),
            seg.trailing_bytes,
        ));
    }
    out.push_str(&format!(
        "  total: {} record(s), {} torn byte(s)\n",
        scan.records.len(),
        scan.torn_bytes
    ));
    for c in &scan.corruption {
        corruption.push(format!("flight journal: {c}"));
    }
    let mut events = Vec::with_capacity(scan.records.len());
    for rec in &scan.records {
        events.push(parse_event(rec.seq, &rec.line));
    }
    Ok(events)
}

/// Parses one journal line into a [`TimelineEvent`]. Damaged lines
/// (missing `ts`/`event` keys) still come back, with kind `"?"` — the
/// scan layer's checksums make this rare, but the doctor never drops
/// evidence silently.
fn parse_event(seq: u64, line: &str) -> TimelineEvent {
    let mut ts = 0u64;
    let mut kind = String::from("?");
    let mut fields = Vec::new();
    for (k, v) in recorder::parse_line(line) {
        match k.as_str() {
            "ts" => ts = v.parse().unwrap_or(0),
            "event" => kind = v,
            _ => fields.push((k, v)),
        }
    }
    TimelineEvent { seq, ts, kind, fields }
}

/// The event kinds worth a timeline line (spans and histogram snapshots
/// are health material, not causal steps).
fn is_timeline_kind(kind: &str) -> bool {
    matches!(
        kind,
        "apply_delta"
            | "rebuild_start"
            | "rebuild_swap"
            | "rebuild_discard"
            | "recovery_replay"
            | "compaction"
            | "panic"
            | "ring_overflow"
    )
}

/// Renders the causal trace of the last `limit` lifecycle events, oldest
/// first, timestamps relative to the first shown event.
fn render_timeline(events: &[TimelineEvent], limit: usize, out: &mut String) {
    let picked: Vec<&TimelineEvent> = events.iter().filter(|e| is_timeline_kind(&e.kind)).collect();
    if picked.is_empty() {
        out.push_str("  (no lifecycle events recorded)\n");
        return;
    }
    let start = picked.len().saturating_sub(limit);
    let base_ts = picked[start].ts;
    if start > 0 {
        out.push_str(&format!("  ... {start} earlier event(s) omitted\n"));
    }
    for ev in &picked[start..] {
        let rel_ms = ev.ts.saturating_sub(base_ts) / 1_000_000;
        let mut line = format!("  #{:<6} +{:>6}ms {}", ev.seq, rel_ms, ev.kind);
        for (k, v) in &ev.fields {
            if v.is_empty() {
                continue;
            }
            line.push_str(&format!(" {k}={v}"));
        }
        out.push_str(&line);
        out.push('\n');
    }
}

/// Renders repair-tier mix, discard/panic tallies, and the last
/// journaled percentile snapshot per histogram.
fn render_health(events: &[TimelineEvent], out: &mut String) {
    let mut outcomes: Vec<(String, u64)> = Vec::new();
    let mut discarded = 0u64;
    let mut panics = 0u64;
    let mut overflow_dropped = 0u64;
    let mut hists: Vec<(String, String)> = Vec::new(); // name -> rendered line (last wins)
    for ev in events {
        match ev.kind.as_str() {
            "apply_delta" => {
                let outcome = ev.field("outcome").unwrap_or("?").to_string();
                match outcomes.iter_mut().find(|(o, _)| *o == outcome) {
                    Some((_, n)) => *n += 1,
                    None => outcomes.push((outcome, 1)),
                }
            }
            "rebuild_discard" => discarded += 1,
            "panic" => panics += 1,
            "ring_overflow" => {
                overflow_dropped +=
                    ev.field("dropped").and_then(|v| v.parse::<u64>().ok()).unwrap_or(0)
            }
            "hist" => {
                if let Some(name) = ev.field("name") {
                    let line = format!(
                        "count={} p50={}ns p90={}ns p99={}ns max={}ns",
                        ev.field("count").unwrap_or("?"),
                        ev.field("p50").unwrap_or("?"),
                        ev.field("p90").unwrap_or("?"),
                        ev.field("p99").unwrap_or("?"),
                        ev.field("max").unwrap_or("?"),
                    );
                    let name = name.to_string();
                    match hists.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, l)) => *l = line,
                        None => hists.push((name, line)),
                    }
                }
            }
            _ => {}
        }
    }
    if outcomes.is_empty() {
        out.push_str("  deltas: none recorded\n");
    } else {
        outcomes.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let mix = outcomes.iter().map(|(o, n)| format!("{o}={n}")).collect::<Vec<_>>().join(", ");
        out.push_str(&format!("  repair-tier mix: {mix}\n"));
    }
    out.push_str(&format!("  discarded builds: {discarded}\n"));
    if panics > 0 {
        out.push_str(&format!("  PANICS RECORDED: {panics}\n"));
    }
    if overflow_dropped > 0 {
        out.push_str(&format!("  ring overflow dropped {overflow_dropped} event(s)\n"));
    }
    hists.sort();
    for (name, line) in &hists {
        out.push_str(&format!("  {name}: {line}\n"));
    }
}

// ---- EXPLAIN replay -------------------------------------------------------

/// Rebuilds graph `name` exactly as recovery would see it — newest valid
/// snapshot plus the WAL records past its sequence — but read-only.
/// `Ok(None)` when no snapshot validates.
pub fn replay_graph(data_dir: &Path, name: &str) -> io::Result<Option<DiGraph>> {
    let dir = data_dir.join(encode_name(name));
    if !dir.is_dir() {
        return Ok(None);
    }
    let Some((base, mut graph, _meta)) = inspect::load_newest_snapshot(&dir)? else {
        return Ok(None);
    };
    let wal = match inspect::scan_wal(&dir.join(inspect::WAL_FILE_NAME)) {
        Ok(scan) => scan,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Some(graph)),
        Err(e) => return Err(e),
    };
    for (seq, rec) in &wal.records {
        if *seq > base {
            graph = graph.with_delta(&rec.insertions, &rec.deletions);
        }
    }
    Ok(Some(graph))
}

/// Replays graph `name` from disk, builds a fresh index, and answers
/// `queries` with provenance — one [`describe`][pscc_engine::QueryExplain::describe]d
/// line per query. Out-of-range endpoints produce an explanatory line
/// instead of a panic.
pub fn explain_queries(data_dir: &Path, name: &str, queries: &[(V, V)]) -> io::Result<Vec<String>> {
    explain_queries_with_config(data_dir, name, queries, &pscc_engine::IndexConfig::default())
}

/// [`explain_queries`] with an explicit [`pscc_engine::IndexConfig`], so
/// the replayed index lands on the same summary tier the live process
/// used (e.g. a label-tier deployment replays with `label_intersect`
/// provenance rather than the default tier cascade).
pub fn explain_queries_with_config(
    data_dir: &Path,
    name: &str,
    queries: &[(V, V)],
    config: &pscc_engine::IndexConfig,
) -> io::Result<Vec<String>> {
    let Some(graph) = replay_graph(data_dir, name)? else {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("graph {name:?}: no valid snapshot under {}", data_dir.display()),
        ));
    };
    let n = graph.n();
    let index = Index::build_with_config(&graph, config);
    let batch = QueryBatch::new(&index);
    let mut out = Vec::with_capacity(queries.len());
    for &(u, v) in queries {
        if (u as usize) < n && (v as usize) < n {
            out.push(batch.explain(&[(u, v)]).swap_remove(0).describe());
        } else {
            out.push(format!("{u} -> {v} = invalid (vertex out of range, n={n})"));
        }
    }
    Ok(out)
}

/// Parses a queries file: one `<graph> <u> <v>` triple per line, blank
/// lines and `#` comments skipped.
pub fn parse_queries(text: &str) -> Result<Vec<(String, V, V)>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let parsed = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(g), Some(u), Some(v), None) => match (u.parse::<V>(), v.parse::<V>()) {
                (Ok(u), Ok(v)) => Some((g.to_string(), u, v)),
                _ => None,
            },
            _ => None,
        };
        match parsed {
            Some(q) => out.push(q),
            None => {
                return Err(format!(
                    "line {}: expected `<graph> <u> <v>`, got {line:?}",
                    lineno + 1
                ))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_engine::{Catalog, Delta};
    use pscc_graph::generators::simple::path_digraph;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pscc_doctor_test_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn populated_dir(name: &str) -> PathBuf {
        let dir = tmpdir(name);
        let cat = Catalog::new();
        cat.insert("g", path_digraph(6));
        cat.persist_to("g", &dir).unwrap();
        let mut d = Delta::new();
        d.insert(5, 0);
        cat.apply_delta("g", &d).unwrap();
        drop(cat);
        dir
    }

    #[test]
    fn healthy_dir_diagnoses_clean() {
        let dir = populated_dir("healthy");
        let diag = diagnose(&dir, 20).unwrap();
        assert!(diag.healthy(), "{:?}", diag.corruption);
        assert!(diag.report.contains("graph \"g\""), "{}", diag.report);
        assert!(diag.report.contains("verdict: healthy"), "{}", diag.report);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn replay_and_explain_match_recovery() {
        let dir = populated_dir("replay");
        let g = replay_graph(&dir, "g").unwrap().unwrap();
        assert_eq!(g.m(), 6, "path(6) edges plus the applied back edge");
        let lines = explain_queries(&dir, "g", &[(2, 1), (9, 0)]).unwrap();
        assert!(lines[0].contains("= true"), "{}", lines[0]);
        assert!(lines[1].contains("invalid"), "{}", lines[1]);
        assert!(replay_graph(&dir, "missing").unwrap().is_none());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn label_tier_explain_survives_snapshot_and_wal() {
        use pscc_engine::{BatchOptions, IndexConfig};
        let dir = tmpdir("label_replay");
        let cfg = IndexConfig {
            bitset_budget_bytes: 0,
            label_min_components: 0,
            ..IndexConfig::default()
        };
        // Sources 0..=2 feed hub 3, which fans out to sinks 4..=6; the
        // WAL carries one extra spoke applied after the snapshot.
        let g = DiGraph::from_edges(7, &[(0, 3), (1, 3), (2, 3), (3, 4), (3, 5)]);
        let cat = Catalog::new();
        cat.insert_with_config("g", g, cfg.clone(), BatchOptions::default());
        cat.persist_to("g", &dir).unwrap();
        let mut d = Delta::new();
        d.insert(3, 6);
        cat.apply_delta("g", &d).unwrap();
        drop(cat);

        // The replayed index must land on the label tier and attribute
        // the hub-witnessed verdicts — including one only the WAL suffix
        // makes true — to `label_intersect`.
        let lines =
            explain_queries_with_config(&dir, "g", &[(0, 5), (1, 6), (5, 0)], &cfg).unwrap();
        assert!(lines[0].contains("= true via label_intersect"), "{}", lines[0]);
        assert!(lines[1].contains("= true via label_intersect"), "{}", lines[1]);
        assert!(lines[2].contains("= false"), "{}", lines[2]);
        for line in &lines {
            assert!(!line.contains("pruned_dfs"), "label tier has no DFS fallback: {line}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn damaged_wal_is_a_finding_not_a_panic() {
        let dir = populated_dir("damage");
        let wal = dir.join(encode_name("g")).join(inspect::WAL_FILE_NAME);
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[0] ^= 0xff; // kill the magic
        std::fs::write(&wal, &bytes).unwrap();
        let diag = diagnose(&dir, 20).unwrap();
        assert!(!diag.healthy());
        assert!(diag.corruption.iter().any(|c| c.contains("wal")), "{:?}", diag.corruption);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_checksum_valid_snapshot_with_unsorted_rows_is_not_healthy() {
        let dir = tmpdir("rows");
        let cat = Catalog::new();
        cat.insert("g", DiGraph::from_edges(4, &[(0, 1), (0, 3), (1, 2), (1, 3)]));
        cat.persist_to("g", &dir).unwrap();
        drop(cat);
        // Rows [1, 3] and [2, 3] become [3, 1] and [2, 2] — the last 16
        // bytes before the trailing checksum — and the checksum is redone.
        let snap = inspect::list_snapshots(&dir.join(encode_name("g"))).unwrap().remove(0).path;
        let mut bytes = std::fs::read(&snap).unwrap();
        let end = bytes.len() - 8;
        for (slot, t) in bytes[end - 16..end].chunks_exact_mut(4).zip([3u32, 1, 2, 2]) {
            slot.copy_from_slice(&t.to_le_bytes());
        }
        let crc = pscc_telemetry::frame::Checksum64::of(&bytes[..end]);
        bytes[end..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&snap, &bytes).unwrap();
        let diag = diagnose(&dir, 20).unwrap();
        assert!(!diag.healthy(), "{}", diag.report);
        assert!(diag.corruption.iter().any(|c| c.contains("vertex 0")), "{:?}", diag.corruption);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn queries_file_parses_and_rejects() {
        let text = "# comment\n\ng 0 5\nother 3 4\n";
        let qs = parse_queries(text).unwrap();
        assert_eq!(qs.len(), 2);
        assert_eq!(qs[0], ("g".to_string(), 0, 5));
        assert!(parse_queries("g 0").is_err());
        assert!(parse_queries("g x y").is_err());
        assert!(parse_queries("g 0 1 2").is_err());
    }
}
