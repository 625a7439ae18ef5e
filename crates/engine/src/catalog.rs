//! A catalog of named graphs with lazily built indexes —
//! the multi-tenant face of the engine: register graphs up front, pay for
//! an index only when a query actually arrives, drop it when the graph
//! changes, mutate graphs in place with batched [`Delta`]s, and (since the
//! `pscc-store` integration) make any graph durable so the whole catalog
//! survives a restart.
//!
//! This file holds the name map, the public API, [`BatchSubmitter`] and
//! the maintenance worker. Each graph's entry, with the locking and
//! generation protocol that lets queries keep answering while a writer
//! rebuilds, is in [`crate::entry`]; opening a data directory, and its
//! durability model, in [`crate::recovery`].

use crate::batch::BatchOptions;
use crate::delta::{Delta, DeltaError, DeltaOutcome, DeltaReport};
use crate::entry::Entry;
use crate::explain::QueryExplain;
use crate::index::{Index, IndexConfig};
use pscc_graph::{DiGraph, V};
use pscc_runtime::Background;
use pscc_telemetry::recorder;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// When the background worker rewrites a store: once its write-ahead log
/// exceeds `max(min_wal_bytes, wal_factor × snapshot_bytes)`, a fresh
/// snapshot is written and the log truncated.
#[derive(Clone, Copy, Debug)]
pub struct CompactionPolicy {
    /// Log-to-snapshot size ratio that triggers compaction.
    pub wal_factor: u64,
    /// Floor below which the log is never compacted (small graphs would
    /// otherwise snapshot on every delta).
    pub min_wal_bytes: u64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy { wal_factor: 4, min_wal_bytes: 64 << 10 }
    }
}

/// Holds multiple named graphs, each with a lazily built reachability
/// index and optional durable backing. See the [`entry`](crate::entry)
/// and [`recovery`](crate::recovery) module docs for the locking and
/// durability model.
pub struct Catalog {
    entries: RwLock<HashMap<String, Arc<Entry>>>,
    policy: CompactionPolicy,
    /// Lazily spawned worker running store compactions; dropped (and
    /// joined, finishing queued jobs) with the catalog.
    maintenance: Mutex<Option<Background>>,
    /// True while a flight-recorder flush job is queued on the
    /// maintenance worker — per-delta flushes debounce on it, so a burst
    /// of deltas costs one background flush, not one per delta.
    flight_flush_queued: Arc<AtomicBool>,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::with_compaction(CompactionPolicy::default())
    }
}

impl Catalog {
    /// An empty catalog with the default [`CompactionPolicy`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty catalog with an explicit compaction policy.
    pub fn with_compaction(policy: CompactionPolicy) -> Self {
        Catalog {
            entries: RwLock::new(HashMap::new()),
            policy,
            maintenance: Mutex::new(None),
            flight_flush_queued: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Installs the process-global flight recorder under `dir` (see
    /// [`pscc_telemetry::recorder`]): from then on this process's deltas,
    /// rebuilds, compactions, spans, and histogram snapshots are journaled
    /// to bounded `flight-<seq>.fdr` segments for post-mortem analysis by
    /// `pscc-doctor`. An associated function so it can run *before*
    /// [`Catalog::open`] — recovery replay is then captured too.
    /// Idempotent for the same directory.
    pub fn enable_flight_recorder(dir: impl AsRef<Path>) -> io::Result<()> {
        recorder::install(dir.as_ref())
    }

    /// Registers (or replaces) a graph under `name` with the default index
    /// and batch configuration. Replacing drops any cached index — and any
    /// attached store (the files remain on disk; the new graph is not
    /// durable until [`Catalog::persist_to`] is called for it).
    pub fn insert(&self, name: &str, graph: DiGraph) {
        self.insert_with_config(name, graph, IndexConfig::default(), BatchOptions::default());
    }

    /// Registers (or replaces) a graph with explicit index and batch
    /// configurations. The [`BatchOptions`] are stored with the entry and
    /// honored by every subsequent [`Catalog::answer_batch`] (grain) and
    /// memo construction (capacity).
    pub fn insert_with_config(
        &self,
        name: &str,
        graph: DiGraph,
        config: IndexConfig,
        batch: BatchOptions,
    ) {
        self.register(name.to_string(), Entry::new(name, config, batch, Arc::new(graph), 0, None));
    }

    /// Removes a graph (and its index). Returns whether it existed. A
    /// durable entry's files are left on disk untouched.
    pub fn remove(&self, name: &str) -> bool {
        self.entries.write().expect("catalog lock").remove(name).is_some()
    }

    /// Registered graph names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.entries.read().expect("catalog lock").keys().cloned().collect();
        names.sort();
        names
    }

    /// The graph registered under `name`.
    pub fn graph(&self, name: &str) -> Option<Arc<DiGraph>> {
        self.entry(name).map(|e| e.graph())
    }

    /// True if `name` currently holds a built index.
    pub fn is_indexed(&self, name: &str) -> bool {
        self.entry(name).is_some_and(|e| e.is_indexed())
    }

    /// The generation counter of `name`: the number of graph swaps
    /// (applied deltas) since registration — or since the snapshot
    /// lineage began, for an entry recovered by [`Catalog::open`].
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.entry(name).map(|e| e.generation())
    }

    /// Off-lock index builds of `name` that were discarded because a
    /// delta swapped the graph mid-build (the build then retried against
    /// the new graph — the delta wins, never the stale index).
    pub fn discarded_builds(&self, name: &str) -> Option<u64> {
        self.entry(name).map(|e| e.discarded_builds())
    }

    /// The index for `name`, building it on first use.
    pub fn index(&self, name: &str) -> Option<Arc<Index>> {
        self.entry(name).map(|e| e.index_and_memo().0)
    }

    /// Answers one reachability query against `name`'s graph.
    pub fn reaches(&self, name: &str, u: V, v: V) -> Option<bool> {
        Some(self.index(name)?.reaches(u, v))
    }

    /// Answers a batch of queries against `name`'s graph in parallel,
    /// using the entry's stored [`BatchOptions`]. The memo is shared
    /// across calls, so repeated hot pairs are answered from cache even in
    /// later batches.
    pub fn answer_batch(&self, name: &str, queries: &[(V, V)]) -> Option<Vec<bool>> {
        let entry = self.entry(name)?;
        let mut span = pscc_telemetry::span("answer_batch");
        span.set_attr("graph", &entry.name);
        span.set_attr("queries", queries.len());
        Some(entry.query(queries.len(), |batch| batch.answer(queries)))
    }

    /// Applies a batched edge update to `name`'s graph, swapping in the
    /// merged graph ([`DiGraph::with_delta`]) and repairing the index
    /// through the cheapest provably correct tier of the planner
    /// ([`crate::planner`]); each [`DeltaOutcome`] variant documents one
    /// tier. If no index was built yet the graph is swapped and indexing
    /// stays lazy ([`DeltaOutcome::Deferred`]).
    ///
    /// Which tier ran is reported by the returned [`DeltaReport`], the
    /// `outcome` attribute of the `apply_delta` span and the flight
    /// journal's `apply_delta` event (with the plan explain); nothing else
    /// keeps it. Returns the path taken plus effective edge counts, or a
    /// [`DeltaError`] (nothing modified) for an unknown graph, an
    /// out-of-range endpoint, or a failed write-ahead append.
    ///
    /// The merge and any rebuild run **off-lock**: concurrent queries
    /// against the same graph keep answering from the current index for
    /// the whole duration and only wait for the final pointer swap.
    /// Concurrent `apply_delta` calls to one entry serialize on its
    /// update lock (other entries are unaffected). If the entry is
    /// durable, the effective delta is appended to its write-ahead log
    /// and fsynced before the swap — when this returns, the update is on
    /// disk.
    pub fn apply_delta(&self, name: &str, delta: &Delta) -> Result<DeltaReport, DeltaError> {
        let entry = self.entry(name).ok_or_else(|| DeltaError::UnknownGraph(name.to_string()))?;
        let report = entry.apply_delta(delta, true)?;
        if report.outcome != DeltaOutcome::NoOp {
            self.maybe_schedule_compaction(&entry);
            self.schedule_flight_flush();
        }
        Ok(report)
    }

    /// [`Catalog::answer_batch`] with per-query provenance: each verdict
    /// comes back with the [`crate::QueryTier`] that decided it and the
    /// work done ([`QueryExplain`]). Runs sequentially — EXPLAIN is a
    /// diagnostic path — but through the same shared memo and tier
    /// cascade, so verdicts always match [`Catalog::answer_batch`].
    pub fn answer_batch_explained(
        &self,
        name: &str,
        queries: &[(V, V)],
    ) -> Option<Vec<QueryExplain>> {
        let entry = self.entry(name)?;
        let mut span = pscc_telemetry::span("answer_batch_explained");
        span.set_attr("graph", &entry.name);
        span.set_attr("queries", queries.len());
        Some(entry.query(queries.len(), |batch| batch.explain(queries)))
    }

    /// A reusable submission handle for `name`, for front ends that
    /// assemble query batches *themselves* at high frequency (the
    /// `pscc-server` admission queue coalesces concurrent point queries
    /// into batches and pushes each one through this). See
    /// [`BatchSubmitter`] for what the handle does — and does not — pay
    /// for per call.
    pub fn submitter(&self, name: &str) -> Option<BatchSubmitter> {
        Some(BatchSubmitter { entry: self.entry(name)? })
    }

    /// Attaches a durable store to `name` under `data_dir` (the catalog's
    /// data directory; each graph gets its own subdirectory). Writes the
    /// initial snapshot; every subsequent [`Catalog::apply_delta`] on this
    /// entry is then write-ahead logged and fsynced before it returns.
    ///
    /// Fails with [`io::ErrorKind::NotFound`] for an unknown graph,
    /// [`io::ErrorKind::AlreadyExists`] if the entry already has a store
    /// or the subdirectory already holds one, and
    /// [`io::ErrorKind::InvalidInput`] for the empty name (it has no
    /// subdirectory to live in, so [`Catalog::open`] could never recover
    /// it).
    pub fn persist_to(&self, name: &str, data_dir: impl AsRef<Path>) -> io::Result<()> {
        if name.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the empty graph name cannot be persisted (no subdirectory to recover from)",
            ));
        }
        let entry = self.entry(name).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no graph registered as {name:?}"))
        })?;
        entry.persist_to(&data_dir.as_ref().join(encode_name(name)))
    }

    /// Blocks until every queued maintenance job (store compaction) has
    /// finished. Tests and orderly shutdowns use this; serving paths never
    /// need it.
    pub fn flush_maintenance(&self) {
        let guard = self.maintenance.lock().expect("maintenance lock");
        if let Some(worker) = guard.as_ref() {
            worker.flush();
        }
    }

    /// Queues `job` on the maintenance worker, spawning the worker on
    /// first use. False if the worker died (a job panicked fatally): the
    /// job was then dropped unrun.
    fn submit_maintenance(&self, job: impl FnOnce() + Send + 'static) -> bool {
        let mut guard = self.maintenance.lock().expect("maintenance lock");
        guard.get_or_insert_with(|| Background::spawn("pscc-catalog-maintenance")).submit(job)
    }

    /// Queues a compaction for `entry` if its log has outgrown the policy
    /// and none is already queued.
    fn maybe_schedule_compaction(&self, entry: &Arc<Entry>) {
        let Some(store) = entry.store() else { return };
        let threshold = self
            .policy
            .min_wal_bytes
            .max(self.policy.wal_factor.saturating_mul(store.snapshot_bytes()));
        if store.wal_bytes() <= threshold {
            return;
        }
        if entry.compaction_queued.swap(true, Ordering::AcqRel) {
            return; // already queued or running
        }
        /// Clears the entry's queued flag when dropped — including during
        /// a panic unwind inside the job, so one failed compaction never
        /// wedges the entry out of all future compactions.
        struct ClearQueued(Arc<Entry>);
        impl Drop for ClearQueued {
            fn drop(&mut self) {
                self.0.compaction_queued.store(false, Ordering::Release);
            }
        }
        let job = ClearQueued(entry.clone());
        if !self.submit_maintenance(move || job.0.compact()) {
            // The closure — and its flag-clearing guard — was dropped
            // unrun, so the flag is already clear; just surface the
            // condition.
            pscc_telemetry::counter("pscc_maintenance_failures_total").inc();
            pscc_telemetry::log!(Error, "maintenance worker is dead; compaction skipped");
        }
    }

    /// Queues one background flush of the flight recorder, debounced: a
    /// burst of deltas lands in the ring immediately and reaches disk on
    /// the next maintenance-worker turn. Durability stays best-effort by
    /// design — the WAL is the source of truth; the journal is evidence.
    fn schedule_flight_flush(&self) {
        if !recorder::is_active() {
            return;
        }
        if self.flight_flush_queued.swap(true, Ordering::AcqRel) {
            return; // a queued flush will pick this delta's events up
        }
        let queued = self.flight_flush_queued.clone();
        let submitted = self.submit_maintenance(move || {
            // Clear before flushing: events recorded mid-flush get the
            // *next* flush instead of being silently skipped.
            queued.store(false, Ordering::Release);
            if let Err(e) = recorder::flush_active() {
                pscc_telemetry::counter("pscc_flight_flush_failures_total").inc();
                pscc_telemetry::log!(Error, "flight recorder flush failed: {e}");
            }
        });
        if !submitted {
            // Worker died: the closure (and its flag reset) never ran.
            self.flight_flush_queued.store(false, Ordering::Release);
            pscc_telemetry::counter("pscc_flight_flush_failures_total").inc();
        }
    }

    /// Registers `entry` under `name`, replacing any entry of that name.
    pub(crate) fn register(&self, name: String, entry: Arc<Entry>) {
        self.entries.write().expect("catalog lock").insert(name, entry);
    }

    pub(crate) fn entry(&self, name: &str) -> Option<Arc<Entry>> {
        self.entries.read().expect("catalog lock").get(name).cloned()
    }
}

impl Drop for Catalog {
    fn drop(&mut self) {
        // Orderly shutdown completes the journal: whatever the ring still
        // holds (the maintenance worker's debounced flush may not have
        // run) reaches disk before the process's evidence goes quiet.
        recorder::force_dump_active();
    }
}

/// A pinned, reusable submission handle for one catalog entry, made by
/// [`Catalog::submitter`]. This is the lean path for front ends that
/// assemble [`QueryBatch`](crate::QueryBatch)-sized batches themselves at high frequency —
/// the per-call name lookup (catalog read-lock + hash probe) and the
/// tracing span of [`Catalog::answer_batch`] are paid once at creation
/// instead of per batch.
///
/// What [`submit`](BatchSubmitter::submit) still does per call: resolve
/// the entry's current index + memo (so the handle **follows deltas** —
/// an [`apply_delta`](Catalog::apply_delta) that swaps or invalidates
/// the index is picked up by the next submit, including triggering the
/// off-lock rebuild) and bump the entry's query counter.
///
/// What it does **not** follow: re-registration. The handle pins the
/// `Arc` of the entry it was created from; if the name is replaced via
/// [`Catalog::insert`] or removed, the handle keeps answering against
/// the graph it pinned. Create a fresh submitter after re-registering.
pub struct BatchSubmitter {
    entry: Arc<Entry>,
}

impl BatchSubmitter {
    /// Answer `queries[i] = (u, v)` as "is `v` reachable from `u`?",
    /// against the entry's current index (building it off-lock on first
    /// use, exactly like [`Catalog::answer_batch`]).
    pub fn submit(&self, queries: &[(V, V)]) -> Vec<bool> {
        self.entry.query(queries.len(), |batch| batch.answer(queries))
    }

    /// The registered name of the pinned graph.
    pub fn graph_name(&self) -> &str {
        &self.entry.name
    }

    /// Current vertex count of the pinned graph. Deltas never change a
    /// graph's vertex set, so front ends can validate query endpoints
    /// against this once and cache it.
    pub fn vertex_count(&self) -> usize {
        self.entry.graph().n()
    }
}

/// Encodes a graph name as a filesystem-safe directory name: ASCII
/// alphanumerics, `-`, and `_` pass through; every other byte becomes
/// `%XX`. Reversible via [`decode_name`]. Public so `pscc-doctor` can
/// map a catalog data dir's subdirectories back to graph names.
pub fn encode_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for &b in name.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Inverts [`encode_name`]; `None` if `encoded` is not a valid encoding.
pub fn decode_name(encoded: &str) -> Option<String> {
    let bytes = encoded.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = (*hex.first()? as char).to_digit(16)?;
                let lo = (*hex.get(1)? as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b @ (b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_') => {
                out.push(b);
                i += 1;
            }
            _ => return None,
        }
    }
    String::from_utf8(out).ok()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pscc_graph::generators::random::gnm_digraph;
    use pscc_graph::generators::simple::{cycle_digraph, path_digraph};

    pub(crate) fn tmpdir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pscc_catalog_test_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let cat = Catalog::new();
        cat.insert("p", path_digraph(10));
        cat.insert("c", cycle_digraph(10));
        assert_eq!(cat.names(), vec!["c".to_string(), "p".to_string()]);
        assert_eq!(cat.reaches("p", 0, 9), Some(true));
        assert_eq!(cat.reaches("p", 9, 0), Some(false));
        assert_eq!(cat.reaches("c", 7, 3), Some(true));
        assert_eq!(cat.reaches("missing", 0, 1), None);
        assert!(cat.remove("p"));
        assert!(!cat.remove("p"));
        assert_eq!(cat.reaches("p", 0, 9), None);
    }

    #[test]
    fn index_is_lazy() {
        let cat = Catalog::new();
        cat.insert("g", gnm_digraph(50, 120, 1));
        assert!(!cat.is_indexed("g"));
        assert_eq!(cat.graph("g").unwrap().n(), 50, "reading the graph builds nothing");
        assert!(!cat.is_indexed("g"));
        assert_eq!(cat.reaches("g", 0, 0), Some(true));
        assert!(cat.is_indexed("g"));
        assert!(!cat.is_indexed("missing"));
    }

    #[test]
    fn replacing_a_graph_drops_the_stale_index() {
        let cat = Catalog::new();
        cat.insert("g", path_digraph(5));
        assert_eq!(cat.reaches("g", 0, 4), Some(true));
        // Replace with the reverse orientation: old answer must flip.
        let rev = DiGraph::from_edges(5, &[(1, 0), (2, 1), (3, 2), (4, 3)]);
        cat.insert("g", rev);
        assert!(!cat.is_indexed("g"));
        assert_eq!(cat.reaches("g", 0, 4), Some(false));
        assert_eq!(cat.reaches("g", 4, 0), Some(true));
    }

    #[test]
    fn batch_through_catalog() {
        let cat = Catalog::new();
        cat.insert("p", path_digraph(20));
        let queries: Vec<(V, V)> = (0..19).map(|i| (i as V, (i + 1) as V)).collect();
        let ans = cat.answer_batch("p", &queries).unwrap();
        assert!(ans.iter().all(|&b| b));
        assert!(cat.answer_batch("missing", &queries).is_none());
    }

    #[test]
    fn same_index_instance_is_shared() {
        let cat = Catalog::new();
        cat.insert("g", gnm_digraph(30, 60, 2));
        let a = cat.index("g").unwrap();
        let b = cat.index("g").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn submitter_matches_answer_batch_and_follows_deltas() {
        let cat = Catalog::new();
        cat.insert("g", path_digraph(10));
        assert!(cat.submitter("missing").is_none());
        let sub = cat.submitter("g").unwrap();
        assert_eq!(sub.graph_name(), "g");
        assert_eq!(sub.vertex_count(), 10);
        let queries: Vec<(V, V)> = (0..10).map(|i| (0, i as V)).collect();
        assert_eq!(sub.submit(&queries), cat.answer_batch("g", &queries).unwrap());
        // Both paths share the same index instance.
        let before = cat.index("g").unwrap();
        sub.submit(&queries);
        assert!(Arc::ptr_eq(&before, &cat.index("g").unwrap()));
        // A delta through the catalog is visible to the pinned handle.
        let mut d = Delta::new();
        d.insert(9, 0); // close the path into a cycle
        cat.apply_delta("g", &d).unwrap();
        assert!(sub.submit(&[(9, 0)])[0]);
    }

    #[test]
    fn per_entry_batch_options_are_honored() {
        let cat = Catalog::new();
        // memo_bits = 0 disables the memo for this entry only.
        let opts = BatchOptions { memo_bits: 0, grain: 3 };
        cat.insert_with_config("g", path_digraph(30), IndexConfig::default(), opts);
        let queries: Vec<(V, V)> = (0..29).map(|i| (i as V, (i + 1) as V)).collect();
        let ans = cat.answer_batch("g", &queries).unwrap();
        assert!(ans.iter().all(|&b| b));
    }

    #[test]
    fn explained_batch_matches_the_plain_batch() {
        let cat = Catalog::new();
        cat.insert("g", path_digraph(5));
        let ex = cat.answer_batch_explained("g", &[(0, 4), (4, 0), (2, 2)]).unwrap();
        assert_eq!(ex.len(), 3);
        assert!(ex[0].reaches && !ex[1].reaches && ex[2].reaches);
        assert_eq!(ex[2].tier, crate::QueryTier::SameComponent);
        // Verdicts must match the plain batch path exactly.
        let plain = cat.answer_batch("g", &[(0, 4), (4, 0), (2, 2)]).unwrap();
        assert_eq!(ex.iter().map(|e| e.reaches).collect::<Vec<_>>(), plain);
        assert!(cat.answer_batch_explained("missing", &[]).is_none());
    }

    #[test]
    fn name_encoding_roundtrips() {
        for name in ["plain", "with space", "sl/ash", "döt", "%", "a%20b", ""] {
            let enc = encode_name(name);
            assert!(enc
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'%'));
            assert_eq!(decode_name(&enc).as_deref(), Some(name), "{name:?} via {enc:?}");
        }
        assert_eq!(decode_name("bad|char"), None);
        assert_eq!(decode_name("trailing%2"), None);
        assert_eq!(decode_name("%zz"), None);
    }

    #[test]
    fn persist_to_rejects_unknown_and_double_attach() {
        let dir = tmpdir("reject");
        let cat = Catalog::new();
        cat.insert("g", path_digraph(3));
        assert_eq!(cat.persist_to("missing", &dir).unwrap_err().kind(), io::ErrorKind::NotFound);
        // The empty name encodes to the data dir itself and could never
        // be recovered: refused up front.
        cat.insert("", path_digraph(3));
        assert_eq!(cat.persist_to("", &dir).unwrap_err().kind(), io::ErrorKind::InvalidInput);
        cat.persist_to("g", &dir).unwrap();
        assert_eq!(cat.persist_to("g", &dir).unwrap_err().kind(), io::ErrorKind::AlreadyExists);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compaction_truncates_an_outgrown_log() {
        let dir = tmpdir("compact");
        // Tiny thresholds: every delta overflows the policy.
        let cat = Catalog::with_compaction(CompactionPolicy { wal_factor: 0, min_wal_bytes: 0 });
        cat.insert("g", path_digraph(50));
        cat.persist_to("g", &dir).unwrap();
        for i in 0..10u32 {
            let mut d = Delta::new();
            d.insert(i + 10, i); // back edges, each effective
            cat.apply_delta("g", &d).unwrap();
        }
        cat.flush_maintenance();
        let wal = dir.join(encode_name("g")).join("wal.log");
        assert_eq!(std::fs::metadata(wal).unwrap().len(), 8, "compacted log holds only its header");
        drop(cat);
        // The compacted store still recovers the full state.
        let back = Catalog::open(&dir).unwrap();
        assert_eq!(back.graph("g").unwrap().m(), 49 + 10);
        assert_eq!(back.generation("g"), Some(10));
        std::fs::remove_dir_all(dir).ok();
    }
}
