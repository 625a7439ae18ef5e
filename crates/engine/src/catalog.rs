//! A catalog of named graphs with lazily built indexes —
//! the multi-tenant face of the engine: register graphs up front, pay for
//! an index only when a query actually arrives, drop it when the graph
//! changes, mutate graphs in place with batched [`Delta`]s, and (since the
//! `pscc-store` integration) make any graph durable so the whole catalog
//! survives a restart.
//!
//! ## Locking: queries never wait on a rebuild
//!
//! Every entry carries **three** locks, taken in the order `update` →
//! `store` → `state`, and a **generation counter**:
//!
//! * `state` — a short-hold mutex over the `(graph, index, generation)`
//!   triple. Queries take it only to clone `Arc`s; updates take it only to
//!   swap them. Nothing expensive ever runs under it.
//! * `update` — a long-hold mutex serializing *writers* of the same entry
//!   (delta application, store attachment, compaction). Queries never
//!   touch it.
//! * `store` — a short-hold mutex over the entry's durable store handle.
//!
//! Expensive work — the CSR merge, a multi-second index rebuild, the lazy
//! first-query build — runs **off-lock** against `Arc` clones. A finished
//! build re-locks `state` and installs its result only if the generation
//! it started from is still current; otherwise the result is discarded
//! (counted in [`Catalog::discarded_builds`]) and the build retries
//! against the new graph. Concretely: a query-triggered lazy build that
//! races a delta can never clobber the delta — the generation check
//! detects the swap and the build starts over.
//!
//! ## Durability
//!
//! [`Catalog::persist_to`] attaches a [`pscc_store::Store`] to an entry:
//! from then on [`Catalog::apply_delta`] is **write-ahead** — the
//! effective delta is appended to the store's log and fsynced *before*
//! the in-memory swap, so once `apply_delta` returns the update survives
//! a crash. [`Catalog::open`] recovers a whole catalog from such a
//! directory: newest valid snapshot per graph + log-suffix replay, torn
//! tails truncated. A background worker compacts stores whose log
//! outgrows their snapshot (see [`CompactionPolicy`]); queries never
//! wait on a compaction (it holds only the update lock), while writers
//! to that one entry wait for its snapshot write.

use crate::batch::{BatchOptions, MemoCache, QueryBatch};
use crate::delta::{Delta, DeltaError, DeltaOutcome, DeltaReport};
use crate::explain::{PlanExplain, QueryExplain};
use crate::index::{Index, IndexConfig};
use crate::planner::{plan_repair_explained, RepairPlan};
use pscc_graph::{DiGraph, V};
use pscc_runtime::Background;
use pscc_store::{DeltaRecord, Store, StoreMeta};
use pscc_telemetry::recorder::{self, FlightEvent};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// Per-entry metric handles, resolved once at entry construction: the
/// registry lookup takes a lock, so serving paths must never resolve a
/// metric name per call. Names follow the workspace's label-in-name
/// convention, e.g. `pscc_catalog_deltas_total{graph="g"}`.
struct EntryMetrics {
    /// Applied deltas (every non-noop outcome, including deferred).
    deltas: Arc<pscc_telemetry::Counter>,
    /// Queries submitted through [`Catalog::answer_batch`].
    queries: Arc<pscc_telemetry::Counter>,
    /// Full index builds: lazy first-query builds and delta rebuilds.
    rebuilds: Arc<pscc_telemetry::Counter>,
    /// Off-lock builds discarded because a delta swapped the graph
    /// mid-build (mirrors [`Catalog::discarded_builds`]).
    stale_builds_discarded: Arc<pscc_telemetry::Counter>,
    /// 1 while an off-lock index build for this entry is running — the
    /// observable witness that queries keep serving from the old index.
    rebuild_in_flight: Arc<pscc_telemetry::Gauge>,
    /// Wall time of each non-noop `apply_delta` (lock to swap).
    delta_nanos: Arc<pscc_telemetry::Histogram>,
    /// Wall time of each full index build.
    rebuild_nanos: Arc<pscc_telemetry::Histogram>,
}

/// `base{graph="<name>"}` with quotes, backslashes, and newlines in
/// `name` escaped ([`pscc_telemetry::escape_label_value`]), so arbitrary
/// graph names stay well-formed exposition labels.
fn graph_metric(base: &str, name: &str) -> String {
    format!("{base}{{graph=\"{}\"}}", pscc_telemetry::escape_label_value(name))
}

/// Stable telemetry name of a delta outcome (the `outcome` attribute of
/// the `apply_delta` span).
fn outcome_name(outcome: DeltaOutcome) -> &'static str {
    match outcome {
        DeltaOutcome::NoOp => "noop",
        DeltaOutcome::Absorbed => "absorbed",
        DeltaOutcome::DagSpliced => "dag_spliced",
        DeltaOutcome::RegionRecomputed => "region_recomputed",
        DeltaOutcome::ArcUnspliced => "arc_unspliced",
        DeltaOutcome::SccSplit => "scc_split",
        DeltaOutcome::Rebuilt => "rebuilt",
        DeltaOutcome::Deferred => "deferred",
    }
}

impl EntryMetrics {
    fn for_graph(name: &str) -> EntryMetrics {
        EntryMetrics {
            deltas: pscc_telemetry::counter(&graph_metric("pscc_catalog_deltas_total", name)),
            queries: pscc_telemetry::counter(&graph_metric("pscc_catalog_queries_total", name)),
            rebuilds: pscc_telemetry::counter(&graph_metric("pscc_catalog_rebuilds_total", name)),
            stale_builds_discarded: pscc_telemetry::counter(&graph_metric(
                "pscc_catalog_stale_builds_discarded_total",
                name,
            )),
            rebuild_in_flight: pscc_telemetry::gauge(&graph_metric(
                "pscc_catalog_rebuild_in_flight",
                name,
            )),
            delta_nanos: pscc_telemetry::histogram(&graph_metric("pscc_catalog_delta_nanos", name)),
            rebuild_nanos: pscc_telemetry::histogram(&graph_metric(
                "pscc_catalog_rebuild_nanos",
                name,
            )),
        }
    }
}

/// Mutable per-graph state, guarded by the short-hold `state` mutex: the
/// graph, its (lazily built) index, and the generation counter that
/// stamps every graph swap.
struct EntryState {
    graph: Arc<DiGraph>,
    /// Built on first use; `None` until then. The memo cache lives
    /// (and is invalidated) with the index so verdicts stay warm across
    /// batches — and across absorbed deltas.
    index: Option<(Arc<Index>, Arc<MemoCache>)>,
    /// Incremented on every graph swap. Off-lock builds capture it before
    /// starting and install only if it is unchanged, so a racing delta is
    /// detected rather than overwritten.
    generation: u64,
}

struct Entry {
    /// The graph's registered name (for span attributes).
    name: String,
    /// Cached metric handles for this entry's name.
    metrics: EntryMetrics,
    config: IndexConfig,
    batch: BatchOptions,
    /// Short-hold lock: clone/swap the state triple, nothing else.
    state: Mutex<EntryState>,
    /// Long-hold lock serializing writers of this entry (delta
    /// application, store attach/compaction). Queries never take it, so
    /// they keep answering from the current index while a writer merges
    /// and rebuilds off-lock.
    update: Mutex<()>,
    /// Durable backing, when attached ([`Catalog::persist_to`] /
    /// [`Catalog::open`]).
    store: Mutex<Option<Arc<Store>>>,
    /// Off-lock builds discarded because the generation moved mid-build.
    discarded_builds: AtomicU64,
    /// True while a compaction job for this entry is queued or running.
    compaction_queued: AtomicBool,
}

impl Entry {
    fn new(
        name: &str,
        config: IndexConfig,
        batch: BatchOptions,
        graph: Arc<DiGraph>,
        generation: u64,
        store: Option<Arc<Store>>,
    ) -> Arc<Entry> {
        Arc::new(Entry {
            name: name.to_string(),
            metrics: EntryMetrics::for_graph(name),
            config,
            batch,
            state: Mutex::new(EntryState { graph, index: None, generation }),
            update: Mutex::new(()),
            store: Mutex::new(store),
            discarded_builds: AtomicU64::new(0),
            compaction_queued: AtomicBool::new(false),
        })
    }

    fn store(&self) -> Option<Arc<Store>> {
        self.store.lock().expect("store lock").clone()
    }
}

/// Holds multiple named graphs, each with a lazily built reachability
/// index and optional durable backing. See the [module docs](self) for
/// the locking and durability model.
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
        let entry = Entry::new(name, config, batch, Arc::new(graph), 0, None);
        self.entries.write().expect("catalog lock").insert(name.to_string(), entry);
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
        self.entry(name).map(|e| e.state.lock().expect("entry lock").graph.clone())
    }

    /// True if `name` currently holds a built index.
    pub fn is_indexed(&self, name: &str) -> bool {
        self.entry(name)
            .map(|e| e.state.lock().expect("entry lock").index.is_some())
            .unwrap_or(false)
    }

    /// The generation counter of `name`: the number of graph swaps
    /// (applied deltas) since registration — or since the snapshot
    /// lineage began, for an entry recovered by [`Catalog::open`].
    pub fn generation(&self, name: &str) -> Option<u64> {
        self.entry(name).map(|e| e.state.lock().expect("entry lock").generation)
    }

    /// Off-lock index builds of `name` that were discarded because a
    /// delta swapped the graph mid-build (the build then retried against
    /// the new graph — the delta wins, never the stale index).
    pub fn discarded_builds(&self, name: &str) -> Option<u64> {
        self.entry(name).map(|e| e.discarded_builds.load(Ordering::Relaxed))
    }

    /// The index for `name`, building it on first use.
    pub fn index(&self, name: &str) -> Option<Arc<Index>> {
        self.index_and_memo(name).map(|(index, _)| index)
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
        entry.metrics.queries.add(queries.len() as u64);
        let (index, memo) = Self::entry_index_and_memo(&entry);
        let batch = QueryBatch::with_shared_memo(&index, memo, entry.batch.grain);
        Some(batch.answer(queries))
    }

    /// Applies a batched edge update to `name`'s graph, swapping in the
    /// merged graph ([`DiGraph::with_delta`]) and repairing the index
    /// through the tiered planner ([`crate::planner`]):
    ///
    /// * deltas whose every effective change provably keeps the
    ///   reachability relation (insertions inside one SCC or between
    ///   already-reachable component pairs) keep the existing index *and*
    ///   its warm memo ([`DeltaOutcome::Absorbed`]);
    /// * insertions that only add condensation arcs (no component merge)
    ///   splice them in, repairing levels and summary for affected
    ///   ancestors only ([`DeltaOutcome::DagSpliced`]);
    /// * insertions that merge components re-run SCC on just the affected
    ///   DAG region and contract the old condensation through the merge
    ///   map ([`DeltaOutcome::RegionRecomputed`]);
    /// * deletions of one of several parallel edge supports of a
    ///   condensation arc (or of a latent absorbed pair) are metadata-only
    ///   decrements of the index's arc-support table — index and memo
    ///   kept ([`DeltaOutcome::Absorbed`]);
    /// * deletions that take arcs' last support away remove exactly those
    ///   arcs in place ([`DeltaOutcome::ArcUnspliced`]);
    /// * intra-SCC deletions re-run SCC on just the affected components'
    ///   members and splice the sub-components back
    ///   ([`DeltaOutcome::SccSplit`] — or [`DeltaOutcome::Absorbed`] when
    ///   every component holds together);
    /// * deltas mixing structural deletions with insertions, and repairs
    ///   past the planner's [`crate::planner::RepairBudget`], rebuild the
    ///   index from scratch ([`DeltaOutcome::Rebuilt`]);
    /// * if no index was built yet the graph is swapped and indexing stays
    ///   lazy ([`DeltaOutcome::Deferred`]).
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
        let report = Self::apply_delta_entry(&entry, delta, true)?;
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
        entry.metrics.queries.add(queries.len() as u64);
        let (index, memo) = Self::entry_index_and_memo(&entry);
        let batch = QueryBatch::with_shared_memo(&index, memo, entry.batch.grain);
        Some(batch.explain(queries))
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

    /// The delta-application machinery, shared by the serving path
    /// (`log = true`: write-ahead through the entry's store) and recovery
    /// replay (`log = false`: the record is already durable).
    fn apply_delta_entry(
        entry: &Arc<Entry>,
        delta: &Delta,
        log: bool,
    ) -> Result<DeltaReport, DeltaError> {
        // Root span of the delta's causal trace: normalize → plan(tier) →
        // execute → fsync → swap, each a child span with its own duration.
        let mut root = pscc_telemetry::span("apply_delta");
        root.set_attr("graph", &entry.name);
        let delta_timer = pscc_telemetry::enabled().then(pscc_telemetry::Timer::start);
        // Serialize writers; queries proceed untouched.
        let _writer = entry.update.lock().expect("update lock");
        let (graph, generation, index_pair) = {
            let st = entry.state.lock().expect("entry lock");
            (st.graph.clone(), st.generation, st.index.clone())
        };
        let n = graph.n();
        for &edge in delta.insertions().iter().chain(delta.deletions()) {
            if edge.0 as usize >= n || edge.1 as usize >= n {
                return Err(DeltaError::EndpointOutOfRange { edge, n });
            }
        }

        // Normalize (dedupe within each list, drop deletions of edges the
        // same delta inserts), then reduce to the *effective* delta:
        // insertions of absent edges and deletions of present ones. The
        // graph cannot change under us — every swap happens under the
        // update lock we hold.
        let normalize_span = pscc_telemetry::span("normalize");
        let delta = delta.normalized();
        let has_edge = |&(u, v): &(V, V)| graph.out_neighbors(u).binary_search(&v).is_ok();
        let ins: Vec<(V, V)> =
            delta.insertions().iter().filter(|e| !has_edge(e)).copied().collect();
        let del: Vec<(V, V)> = delta.deletions().iter().filter(|e| has_edge(e)).copied().collect();
        drop(normalize_span);
        if ins.is_empty() && del.is_empty() {
            root.set_attr("outcome", "noop");
            return Ok(DeltaReport { outcome: DeltaOutcome::NoOp, inserted: 0, deleted: 0 });
        }

        // WRITE-AHEAD: the effective delta hits the fsynced log before any
        // in-memory mutation. A failed append changes nothing.
        if log {
            if let Some(store) = entry.store() {
                let _fsync_span = pscc_telemetry::span("fsync");
                let record = DeltaRecord { insertions: ins.clone(), deletions: del.clone() };
                store.append(&record).map_err(|e| DeltaError::Storage(e.to_string()))?;
            }
        }

        // Merge and (when needed) repair or rebuild off-lock: queries keep
        // answering from the current graph + index throughout. The planner
        // runs against the captured index — valid for the pre-merge graph,
        // which is exactly what the tier arguments are stated over.
        let execute_span = pscc_telemetry::span("execute");
        let merged = Arc::new(graph.with_delta(&ins, &del));
        enum Exec<'a> {
            Deferred,
            Keep(&'a Arc<Index>),
            Install(Arc<Index>, Arc<MemoCache>, DeltaOutcome),
        }
        let install = |index: Index, outcome: DeltaOutcome| {
            let memo = MemoCache::new(entry.batch.memo_bits, index.num_components());
            Exec::Install(Arc::new(index), Arc::new(memo), outcome)
        };
        let mut plan_ex: Option<PlanExplain> = None;
        let exec = match &index_pair {
            None => Exec::Deferred,
            Some((index, _)) => {
                let (plan, ex) = plan_repair_explained(index, &ins, &del, &entry.config.repair);
                plan_ex = Some(ex);
                match plan {
                    RepairPlan::Absorb => Exec::Keep(index),
                    RepairPlan::DagSplice { arcs } => install(
                        index.splice_dag_arcs(&arcs, &ins, &del, &entry.config),
                        DeltaOutcome::DagSpliced,
                    ),
                    RepairPlan::RegionRecompute { region, arcs } => install(
                        index.recompute_region(&region, &arcs, &ins, &del, &entry.config),
                        DeltaOutcome::RegionRecomputed,
                    ),
                    RepairPlan::ArcUnsplice { arcs } => install(
                        index.unsplice_dag_arcs(&arcs, &del, &entry.config),
                        DeltaOutcome::ArcUnspliced,
                    ),
                    RepairPlan::SccSplit { comps, dead_arcs } => {
                        match index.split_sccs(&merged, &comps, &dead_arcs, &del, &entry.config) {
                            Some(patched) => install(patched, DeltaOutcome::SccSplit),
                            // Every checked component held together and no
                            // arc died: reachability is unchanged — keep the
                            // index like any other metadata-only delta.
                            None => Exec::Keep(index),
                        }
                    }
                    RepairPlan::FullRebuild { .. } => {
                        let _in_flight = entry.metrics.rebuild_in_flight.inc_scoped();
                        let timer = pscc_telemetry::enabled().then(pscc_telemetry::Timer::start);
                        let index = Index::build_with_config(&merged, &entry.config);
                        if let Some(t) = timer {
                            entry.metrics.rebuild_nanos.record(t.elapsed());
                        }
                        entry.metrics.rebuilds.inc();
                        install(index, DeltaOutcome::Rebuilt)
                    }
                }
            }
        };
        drop(execute_span);

        // Re-lock only to swap. The graph is still the one we read (swaps
        // are update-lock-serialized), but the *index* slot may have moved:
        // a lazy first-query build can have installed an index for the old
        // graph. Only writers, which the update lock excludes, replace an
        // installed index.
        let swap_span = pscc_telemetry::span("swap");
        let mut st = entry.state.lock().expect("entry lock");
        debug_assert!(Arc::ptr_eq(&st.graph, &graph), "graph swapped without the update lock");
        debug_assert_eq!(st.generation, generation, "generation moved without the update lock");
        let outcome = match exec {
            Exec::Install(index, memo, outcome) => {
                st.index = Some((index, memo));
                outcome
            }
            Exec::Keep(index) => {
                // Only a writer replaces an installed index, so the captured
                // one is still installed; its support table takes this
                // delta's increments and decrements.
                debug_assert!(st.index.as_ref().is_some_and(|(kept, _)| Arc::ptr_eq(kept, index)));
                index.note_absorbed(&ins, &del);
                DeltaOutcome::Absorbed
            }
            Exec::Deferred => {
                // An index installed mid-flight describes the pre-delta
                // graph; keeping it past the swap would serve stale
                // answers. Drop it — the next query rebuilds lazily.
                if st.index.take().is_some() {
                    entry.discarded_builds.fetch_add(1, Ordering::Relaxed);
                    entry.metrics.stale_builds_discarded.inc();
                }
                DeltaOutcome::Deferred
            }
        };
        st.graph = merged;
        st.generation += 1;
        let generation_now = st.generation;
        drop(st);
        drop(swap_span);
        // Journal the delta — outside the state lock, so a slow flush can
        // never stall queries. The plan explain rides along in full: the
        // post-mortem trace shows not just which tier repaired the index
        // but which cheaper tiers were priced out and why.
        if recorder::is_active() {
            let mut ev = FlightEvent::new("apply_delta")
                .field("graph", &entry.name)
                .field("outcome", outcome_name(outcome))
                .field("generation", generation_now)
                .field("inserted", ins.len())
                .field("deleted", del.len())
                .field("replay", !log);
            if let Some(ex) = &plan_ex {
                for (key, value) in ex.journal_fields() {
                    ev = ev.field(key, value);
                }
            }
            recorder::record(ev);
        }
        root.set_attr("outcome", outcome_name(outcome));
        entry.metrics.deltas.inc();
        if let Some(t) = delta_timer {
            entry.metrics.delta_nanos.record(t.elapsed());
        }
        Ok(DeltaReport { outcome, inserted: ins.len(), deleted: del.len() })
    }

    // ---- Durability -----------------------------------------------------

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
        let _writer = entry.update.lock().expect("update lock");
        // The store slot is a short-hold mutex: check emptiness and drop
        // the guard before the slow snapshot write + fsync. The `update`
        // writer lock held above is what serializes this against
        // `apply_delta` and concurrent `persist_to` calls, so nobody can
        // fill the slot between the check and the reinstall below.
        {
            let slot = entry.store.lock().expect("store lock");
            if slot.is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("graph {name:?} already has a store"),
                ));
            }
        }
        let (graph, generation) = {
            let st = entry.state.lock().expect("entry lock");
            (st.graph.clone(), st.generation)
        };
        let meta = StoreMeta {
            generation,
            memo_bits: entry.batch.memo_bits,
            grain: entry.batch.grain as u64,
        };
        let store = Store::create(data_dir.as_ref().join(encode_name(name)), &graph, meta)?;
        *entry.store.lock().expect("store lock") = Some(Arc::new(store));
        Ok(())
    }

    /// Recovers a catalog from a data directory previously populated via
    /// [`Catalog::persist_to`]: every subdirectory that looks like a
    /// store (holds a `wal.log` or snapshot files) is opened — newest
    /// valid snapshot, write-ahead log suffix replayed through the
    /// regular merge path, torn tail truncated — and registered under its
    /// original name with its persisted [`BatchOptions`]. Indexes are not
    /// persisted; they rebuild lazily on first query.
    ///
    /// Unrelated directories (`lost+found`, operator backups — anything
    /// without store files) are skipped; a directory that *does* hold
    /// store files but cannot be recovered is an error, never silently
    /// dropped.
    ///
    /// Entries use the default [`IndexConfig`]; use
    /// [`Catalog::open_with_config`] to override it.
    pub fn open(data_dir: impl AsRef<Path>) -> io::Result<Catalog> {
        Self::open_with_config(data_dir, IndexConfig::default())
    }

    /// [`Catalog::open`] with an explicit per-entry [`IndexConfig`]
    /// (applied to every recovered graph).
    pub fn open_with_config(
        data_dir: impl AsRef<Path>,
        config: IndexConfig,
    ) -> io::Result<Catalog> {
        let catalog = Catalog::new();
        for dir_entry in std::fs::read_dir(data_dir.as_ref())? {
            let dir_entry = dir_entry?;
            if !dir_entry.file_type()?.is_dir() {
                continue;
            }
            if !looks_like_store(&dir_entry.path()) {
                continue; // lost+found, backups, ... — not ours
            }
            if Store::is_aborted_create(dir_entry.path())? {
                // A persist_to crashed before its initial snapshot:
                // nothing was ever acknowledged for this graph, so it is
                // absent, not corrupt.
                continue;
            }
            let file_name = dir_entry.file_name();
            // Canonical encodings only: decode + re-encode must roundtrip,
            // or two directories (e.g. "g" and "%67") could decode to the
            // same name and one would silently shadow the other.
            let name = file_name
                .to_str()
                .and_then(|fname| decode_name(fname).filter(|name| encode_name(name) == fname))
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "directory {:?} holds store files but its name is not a \
                             canonically encoded graph name",
                            dir_entry.path()
                        ),
                    )
                })?;
            let (store, recovery) = Store::open(dir_entry.path())?;
            let batch = BatchOptions {
                memo_bits: recovery.meta.memo_bits,
                grain: recovery.meta.grain as usize,
            };
            let entry = Entry::new(
                &name,
                config.clone(),
                batch,
                Arc::new(recovery.graph),
                recovery.meta.generation,
                Some(Arc::new(store)),
            );
            let replayed = recovery.replayed.len();
            if recorder::is_active() {
                recorder::record(
                    FlightEvent::new("recovery_replay")
                        .field("graph", &name)
                        .field("snapshot_generation", recovery.meta.generation)
                        .field("replayed_records", replayed),
                );
            }
            for record in recovery.replayed {
                let delta = Delta::from_parts(record.insertions, record.deletions);
                // `log = false`: the record came *from* the log.
                Self::apply_delta_entry(&entry, &delta, false).map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("replaying {name:?}: {e}"))
                })?;
            }
            catalog.entries.write().expect("catalog lock").insert(name, entry);
        }
        Ok(catalog)
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
        let mut guard = self.maintenance.lock().expect("maintenance lock");
        let worker = guard.get_or_insert_with(|| Background::spawn("pscc-catalog-maintenance"));
        if !worker.submit(move || Self::compact_entry(&job.0)) {
            // Worker died (a job panicked fatally): the closure — and its
            // flag-clearing guard — was dropped unrun, so the flag is
            // already clear; just surface the condition.
            pscc_telemetry::counter("pscc_maintenance_failures_total").inc();
            pscc_telemetry::log!(Error, "maintenance worker is dead; compaction skipped");
        }
    }

    /// Runs one compaction: under the entry's update lock (so the log is
    /// quiescent and the captured graph matches its last record), snapshot
    /// the current graph and truncate the log. Queries are unaffected —
    /// they only ever take the state lock, which is held just long enough
    /// to clone two `Arc`s.
    fn compact_entry(entry: &Arc<Entry>) {
        let _writer = entry.update.lock().expect("update lock");
        let Some(store) = entry.store() else { return };
        let (graph, generation) = {
            let st = entry.state.lock().expect("entry lock");
            (st.graph.clone(), st.generation)
        };
        let meta = StoreMeta {
            generation,
            memo_bits: entry.batch.memo_bits,
            grain: entry.batch.grain as u64,
        };
        let result = store.compact(&graph, meta);
        if recorder::is_active() {
            recorder::record(
                FlightEvent::new("compaction")
                    .field("graph", &entry.name)
                    .field("generation", generation)
                    .field("ok", result.is_ok()),
            );
        }
        if let Err(e) = result {
            pscc_telemetry::counter("pscc_maintenance_failures_total").inc();
            pscc_telemetry::log!(Error, "compaction of {} failed: {e}", store.dir().display());
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
        let mut guard = self.maintenance.lock().expect("maintenance lock");
        let worker = guard.get_or_insert_with(|| Background::spawn("pscc-catalog-maintenance"));
        let submitted = worker.submit(move || {
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

    // ---- Index plumbing -------------------------------------------------

    fn index_and_memo(&self, name: &str) -> Option<(Arc<Index>, Arc<MemoCache>)> {
        let entry = self.entry(name)?;
        Some(Self::entry_index_and_memo(&entry))
    }

    /// The entry's index + memo, built **off-lock** on first use: the
    /// state lock is taken only to read the graph (with its generation)
    /// and again to install the result. If a delta swapped the graph
    /// mid-build, the stale index is discarded and the build retries —
    /// the generation counter guarantees an installed index always
    /// describes the graph it is installed next to.
    fn entry_index_and_memo(entry: &Entry) -> (Arc<Index>, Arc<MemoCache>) {
        loop {
            let (graph, generation) = {
                let st = entry.state.lock().expect("entry lock");
                if let Some(pair) = st.index.clone() {
                    return pair;
                }
                (st.graph.clone(), st.generation)
            };
            if recorder::is_active() {
                recorder::record(
                    FlightEvent::new("rebuild_start")
                        .field("graph", &entry.name)
                        .field("generation", generation),
                );
            }
            let index = {
                // The gauge is the observable witness (used by the
                // concurrency stress suite) that queries keep serving
                // from the installed index while this build runs.
                let _in_flight = entry.metrics.rebuild_in_flight.inc_scoped();
                let _span = pscc_telemetry::span("index_build");
                let timer = pscc_telemetry::enabled().then(pscc_telemetry::Timer::start);
                let index = Arc::new(Index::build_with_config(&graph, &entry.config));
                if let Some(t) = timer {
                    entry.metrics.rebuild_nanos.record(t.elapsed());
                }
                entry.metrics.rebuilds.inc();
                index
            };
            let memo = Arc::new(MemoCache::new(entry.batch.memo_bits, index.num_components()));
            let mut st = entry.state.lock().expect("entry lock");
            if st.generation == generation {
                // A concurrent lazy builder may have won the install race;
                // share its instance instead of double-installing.
                let pair = st.index.get_or_insert((index, memo)).clone();
                drop(st);
                if recorder::is_active() {
                    recorder::record(
                        FlightEvent::new("rebuild_swap")
                            .field("graph", &entry.name)
                            .field("generation", generation)
                            .field("components", pair.0.num_components()),
                    );
                }
                return pair;
            }
            drop(st);
            entry.discarded_builds.fetch_add(1, Ordering::Relaxed);
            entry.metrics.stale_builds_discarded.inc();
            if recorder::is_active() {
                recorder::record(
                    FlightEvent::new("rebuild_discard")
                        .field("graph", &entry.name)
                        .field("generation", generation),
                );
            }
        }
    }

    fn entry(&self, name: &str) -> Option<Arc<Entry>> {
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
/// assemble [`QueryBatch`]-sized batches themselves at high frequency —
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
        self.entry.metrics.queries.add(queries.len() as u64);
        let (index, memo) = Catalog::entry_index_and_memo(&self.entry);
        let batch = QueryBatch::with_shared_memo(&index, memo, self.entry.batch.grain);
        batch.answer(queries)
    }

    /// The registered name of the pinned graph.
    pub fn graph_name(&self) -> &str {
        &self.entry.name
    }

    /// Current vertex count of the pinned graph. Deltas never change a
    /// graph's vertex set, so front ends can validate query endpoints
    /// against this once and cache it.
    pub fn vertex_count(&self) -> usize {
        self.entry.state.lock().expect("entry lock").graph.n()
    }
}

/// True if `dir` holds store files (a write-ahead log or snapshots) —
/// the recovery scan's "is this ours?" test, so unrelated directories in
/// a data dir never block [`Catalog::open`].
fn looks_like_store(dir: &Path) -> bool {
    if dir.join("wal.log").exists() {
        return true;
    }
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().any(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("snapshot-") && n.ends_with(".pscc"))
            })
        })
        .unwrap_or(false)
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
mod tests {
    use super::*;
    use pscc_graph::generators::random::gnm_digraph;
    use pscc_graph::generators::simple::{cycle_digraph, path_digraph};

    fn tmpdir(name: &str) -> std::path::PathBuf {
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
    fn delta_unknown_graph_and_out_of_range() {
        let cat = Catalog::new();
        cat.insert("g", path_digraph(4));
        let mut d = Delta::new();
        d.insert(0, 2);
        assert_eq!(
            cat.apply_delta("missing", &d),
            Err(DeltaError::UnknownGraph("missing".to_string()))
        );
        let mut bad = Delta::new();
        bad.delete(0, 9);
        assert_eq!(
            cat.apply_delta("g", &bad),
            Err(DeltaError::EndpointOutOfRange { edge: (0, 9), n: 4 })
        );
        // Nothing was modified by the failed applications.
        assert_eq!(cat.graph("g").unwrap().m(), 3);
    }

    #[test]
    fn redundant_delta_is_a_noop() {
        let cat = Catalog::new();
        cat.insert("g", path_digraph(4));
        let before = cat.index("g").unwrap();
        let mut d = Delta::new();
        d.insert(0, 1).delete(3, 0); // edge present / edge absent
        let report = cat.apply_delta("g", &d).unwrap();
        assert_eq!(report, DeltaReport { outcome: DeltaOutcome::NoOp, inserted: 0, deleted: 0 });
        assert!(Arc::ptr_eq(&before, &cat.index("g").unwrap()));
        assert_eq!(cat.generation("g"), Some(0), "noop must not bump the generation");
    }

    #[test]
    fn absorbable_insertion_keeps_the_index_instance() {
        // 0 <-> 1 (one SCC) -> 2 -> 3.
        let cat = Catalog::new();
        cat.insert("g", DiGraph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 3)]));
        let (before, memo_before) = cat.index_and_memo("g").unwrap();
        // In-SCC edge + already-reachable pair: both absorbable.
        let mut d = Delta::new();
        d.insert(0, 0).insert(0, 3);
        let report = cat.apply_delta("g", &d).unwrap();
        assert_eq!(report.outcome, DeltaOutcome::Absorbed);
        assert_eq!(report.inserted, 2);
        let (after, memo_after) = cat.index_and_memo("g").unwrap();
        assert!(Arc::ptr_eq(&before, &after), "absorbed delta must keep the index");
        assert!(Arc::ptr_eq(&memo_before, &memo_after), "absorbed delta must keep the memo");
        assert_eq!(cat.generation("g"), Some(1));
        // The graph itself did change.
        assert_eq!(cat.graph("g").unwrap().m(), 6);
        assert_eq!(cat.reaches("g", 0, 3), Some(true));
    }

    #[test]
    fn merging_delta_recomputes_the_region() {
        let cat = Catalog::new();
        cat.insert("g", path_digraph(5));
        let before = cat.index("g").unwrap();
        assert_eq!(before.num_components(), 5);
        // 4 -> 0 closes the path into one big cycle: components merge —
        // repaired by the region tier, not a rebuild.
        let mut d = Delta::new();
        d.insert(4, 0);
        let report = cat.apply_delta("g", &d).unwrap();
        assert_eq!(report.outcome, DeltaOutcome::RegionRecomputed);
        let after = cat.index("g").unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "merging delta must patch a new index");
        assert_eq!(after.num_components(), 1);
        assert_eq!(cat.reaches("g", 3, 1), Some(true));
        assert_eq!(cat.generation("g"), Some(1));
    }

    #[test]
    fn merging_delta_past_the_region_budget_rebuilds() {
        let cfg = IndexConfig {
            repair: crate::planner::RepairBudget {
                region_frac: 0.1,
                min_region: 2,
                ..crate::planner::RepairBudget::default()
            },
            ..IndexConfig::default()
        };
        let cat = Catalog::new();
        cat.insert_with_config("g", path_digraph(50), cfg, BatchOptions::default());
        let before = cat.index("g").unwrap();
        // Closing the whole 50-component path is past the 10% budget.
        let mut d = Delta::new();
        d.insert(49, 0);
        let report = cat.apply_delta("g", &d).unwrap();
        assert_eq!(report.outcome, DeltaOutcome::Rebuilt);
        let after = cat.index("g").unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "a rebuild installs a new index");
        assert_eq!(after.num_components(), 1);
    }

    #[test]
    fn cross_component_insertion_splices_the_dag() {
        // Two disjoint paths; an edge joining them adds a condensation
        // arc but merges nothing.
        let cat = Catalog::new();
        cat.insert("g", DiGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]));
        let before = cat.index("g").unwrap();
        assert_eq!(cat.reaches("g", 0, 5), Some(false));
        let mut d = Delta::new();
        d.insert(2, 3);
        let report = cat.apply_delta("g", &d).unwrap();
        assert_eq!(report.outcome, DeltaOutcome::DagSpliced);
        let after = cat.index("g").unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "splice patches a new index");
        assert_eq!(after.num_components(), 6, "no components may merge in a splice");
        assert_eq!(cat.reaches("g", 0, 5), Some(true));
    }

    #[test]
    fn deltas_walk_every_repair_tier() {
        let cat = Catalog::new();
        // {0,1} cycle -> 2 -> 3, plus isolated 4.
        cat.insert("g", DiGraph::from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 3)]));
        let _ = cat.index("g").unwrap();
        let mut absorb = Delta::new();
        absorb.insert(0, 3); // already reachable (a latent pair from now on)
        assert_eq!(cat.apply_delta("g", &absorb).unwrap().outcome, DeltaOutcome::Absorbed);
        let mut splice = Delta::new();
        splice.insert(3, 4); // new condensation arc, no merge
        assert_eq!(cat.apply_delta("g", &splice).unwrap().outcome, DeltaOutcome::DagSpliced);
        let mut merge = Delta::new();
        merge.insert(3, 2); // closes 2 <-> 3
        assert_eq!(cat.apply_delta("g", &merge).unwrap().outcome, DeltaOutcome::RegionRecomputed);
        let mut unsplice = Delta::new();
        unsplice.delete(3, 4); // the arc's only support: unspliced in place
        assert_eq!(cat.apply_delta("g", &unsplice).unwrap().outcome, DeltaOutcome::ArcUnspliced);
        let mut split = Delta::new();
        split.delete(3, 2); // intra-SCC: {2, 3} falls apart
        assert_eq!(cat.apply_delta("g", &split).unwrap().outcome, DeltaOutcome::SccSplit);
        let mut mixed = Delta::new();
        mixed.delete(1, 2).insert(4, 0); // structural deletion + insertion
        assert_eq!(cat.apply_delta("g", &mixed).unwrap().outcome, DeltaOutcome::Rebuilt);
        // Final edge set: (0,1), (1,0), (2,3), (0,3), (4,0).
        assert_eq!(cat.reaches("g", 4, 3), Some(true));
        assert_eq!(cat.reaches("g", 1, 3), Some(true), "via the absorbed (0, 3)");
        assert_eq!(cat.reaches("g", 0, 4), Some(false));
        assert_eq!(cat.reaches("g", 1, 2), Some(false));
    }

    #[test]
    fn effective_deletion_unsplices_and_flips_answers() {
        let cat = Catalog::new();
        cat.insert("g", path_digraph(5));
        assert_eq!(cat.reaches("g", 0, 4), Some(true));
        let mut d = Delta::new();
        d.delete(2, 3); // singleton comps: the arc's only support
        let report = cat.apply_delta("g", &d).unwrap();
        assert_eq!(report.outcome, DeltaOutcome::ArcUnspliced);
        assert_eq!(report.deleted, 1);
        assert_eq!(cat.reaches("g", 0, 4), Some(false));
        assert_eq!(cat.reaches("g", 0, 2), Some(true));
        assert_eq!(cat.reaches("g", 3, 4), Some(true));
    }

    #[test]
    fn parallel_support_deletion_keeps_the_index_instance() {
        // Two 2-cycles {0,1} and {2,3} joined by two parallel supports of
        // the same condensation arc: (1, 2) and (0, 3).
        let cat = Catalog::new();
        cat.insert("g", DiGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (0, 3)]));
        let before = cat.index("g").unwrap();
        assert_eq!(before.stats().supported_pairs, 1);
        let mut d = Delta::new();
        d.delete(1, 2); // (0, 3) still witnesses the arc
        let report = cat.apply_delta("g", &d).unwrap();
        assert_eq!(report.outcome, DeltaOutcome::Absorbed);
        assert_eq!(report.deleted, 1);
        let after = cat.index("g").unwrap();
        assert!(Arc::ptr_eq(&before, &after), "support decrement must keep the index");
        assert_eq!(cat.reaches("g", 0, 3), Some(true));
        // Deleting the second support kills the arc: unsplice, answers flip.
        let mut d2 = Delta::new();
        d2.delete(0, 3);
        assert_eq!(cat.apply_delta("g", &d2).unwrap().outcome, DeltaOutcome::ArcUnspliced);
        assert_eq!(cat.reaches("g", 0, 3), Some(false));
    }

    #[test]
    fn intra_scc_deletion_that_keeps_the_component_whole_is_absorbed() {
        // A 3-cycle with a chord: deleting the chord cannot split it.
        let cat = Catalog::new();
        cat.insert("g", DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0), (0, 2)]));
        let before = cat.index("g").unwrap();
        assert_eq!(before.num_components(), 1);
        let mut d = Delta::new();
        d.delete(0, 2);
        let report = cat.apply_delta("g", &d).unwrap();
        assert_eq!(report.outcome, DeltaOutcome::Absorbed, "split check found no split");
        assert!(Arc::ptr_eq(&before, &cat.index("g").unwrap()));
        // Deleting a cycle edge does split it: 3 singleton components.
        let mut d2 = Delta::new();
        d2.delete(1, 2);
        assert_eq!(cat.apply_delta("g", &d2).unwrap().outcome, DeltaOutcome::SccSplit);
        let after = cat.index("g").unwrap();
        assert_eq!(after.num_components(), 3);
        assert_eq!(cat.reaches("g", 0, 1), Some(true));
        assert_eq!(cat.reaches("g", 1, 0), Some(false));
    }

    #[test]
    fn split_delta_that_also_kills_a_latent_pair_stays_correct() {
        // A 3-cycle {0,1,2} plus a path 3 -> 4 -> 5. The shortcut (3, 5)
        // is absorbed (latent). One delta then deletes a cycle edge (an
        // SCC split) *and* the latent shortcut (metadata-only): the
        // split executor must drop the dying latent pair cleanly.
        let cat = Catalog::new();
        cat.insert("g", DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]));
        let _ = cat.index("g").unwrap();
        let mut shortcut = Delta::new();
        shortcut.insert(3, 5);
        assert_eq!(cat.apply_delta("g", &shortcut).unwrap().outcome, DeltaOutcome::Absorbed);
        assert_eq!(cat.index("g").unwrap().stats().latent_arcs, 1);
        let mut d = Delta::new();
        d.delete(1, 2).delete(3, 5);
        let report = cat.apply_delta("g", &d).unwrap();
        assert_eq!(report.outcome, DeltaOutcome::SccSplit);
        assert_eq!(report.deleted, 2);
        let after = cat.index("g").unwrap();
        assert_eq!(after.num_components(), 6, "the cycle split into singletons");
        assert_eq!(after.stats().latent_arcs, 0);
        assert_eq!(cat.reaches("g", 0, 2), Some(false));
        assert_eq!(cat.reaches("g", 2, 1), Some(true));
        assert_eq!(cat.reaches("g", 3, 5), Some(true), "still via 4");
    }

    #[test]
    fn oversized_split_component_falls_back_to_rebuild() {
        // One big cycle; a tiny region budget prices the split check out.
        let cfg = IndexConfig {
            repair: crate::planner::RepairBudget {
                region_frac: 0.05,
                min_region: 2,
                ..crate::planner::RepairBudget::default()
            },
            ..IndexConfig::default()
        };
        let cat = Catalog::new();
        cat.insert_with_config("g", cycle_digraph(100), cfg, BatchOptions::default());
        let before = cat.index("g").unwrap();
        let mut d = Delta::new();
        d.delete(40, 41);
        let report = cat.apply_delta("g", &d).unwrap();
        assert_eq!(report.outcome, DeltaOutcome::Rebuilt);
        assert!(!Arc::ptr_eq(&before, &cat.index("g").unwrap()), "a rebuild installs a new index");
        assert_eq!(cat.reaches("g", 39, 42), Some(false));
        assert_eq!(cat.reaches("g", 41, 40), Some(true), "the long way around survives");
    }

    #[test]
    fn delta_before_first_query_defers_indexing() {
        let cat = Catalog::new();
        cat.insert("g", path_digraph(4));
        let mut d = Delta::new();
        d.insert(3, 0);
        let report = cat.apply_delta("g", &d).unwrap();
        assert_eq!(report.outcome, DeltaOutcome::Deferred);
        assert!(!cat.is_indexed("g"));
        assert_eq!(cat.reaches("g", 2, 1), Some(true)); // lazy build sees the cycle
    }

    #[test]
    fn insertion_wins_when_delta_names_an_edge_twice() {
        let cat = Catalog::new();
        cat.insert("g", path_digraph(3));
        let mut d = Delta::new();
        d.insert(0, 1).delete(0, 1);
        let report = cat.apply_delta("g", &d).unwrap();
        assert_eq!(report.outcome, DeltaOutcome::NoOp);
        assert_eq!(cat.reaches("g", 0, 1), Some(true));
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
    fn persist_apply_reopen_roundtrip() {
        let dir = tmpdir("roundtrip");
        let cat = Catalog::new();
        cat.insert("g", path_digraph(6));
        cat.persist_to("g", &dir).unwrap();
        let mut d = Delta::new();
        d.insert(5, 0); // close the cycle (durable, write-ahead)
        cat.apply_delta("g", &d).unwrap();
        let mut d2 = Delta::new();
        d2.delete(2, 3);
        cat.apply_delta("g", &d2).unwrap();
        drop(cat);

        let back = Catalog::open(&dir).unwrap();
        assert_eq!(back.names(), vec!["g".to_string()]);
        assert_eq!(back.generation("g"), Some(2));
        // 5 -> 0 present, 2 -> 3 gone: 3 wraps around to 0, but 1 dead-ends at 2.
        assert_eq!(back.reaches("g", 3, 0), Some(true));
        assert_eq!(back.reaches("g", 1, 3), Some(false));
        let expected = path_digraph(6).with_delta(&[(5, 0)], &[(2, 3)]);
        assert_eq!(back.graph("g").unwrap().out_csr(), expected.out_csr());
        // The recovered entry is durable too: its next delta survives
        // another reopen.
        let mut d3 = Delta::new();
        d3.insert(1, 3);
        back.apply_delta("g", &d3).unwrap();
        drop(back);
        let again = Catalog::open(&dir).unwrap();
        assert_eq!(again.generation("g"), Some(3));
        assert_eq!(again.reaches("g", 1, 3), Some(true));
        std::fs::remove_dir_all(dir).ok();
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
    fn noop_deltas_skip_the_log_and_real_ones_hit_it() {
        let dir = tmpdir("walhits");
        let cat = Catalog::new();
        cat.insert("g", path_digraph(4));
        cat.persist_to("g", &dir).unwrap();
        let wal = dir.join(encode_name("g")).join("wal.log");
        let before = std::fs::metadata(&wal).unwrap().len();
        let mut noop = Delta::new();
        noop.insert(0, 1); // already present
        assert_eq!(cat.apply_delta("g", &noop).unwrap().outcome, DeltaOutcome::NoOp);
        assert_eq!(
            std::fs::metadata(&wal).unwrap().len(),
            before,
            "noop deltas must not hit the log"
        );
        let mut real = Delta::new();
        real.insert(3, 0);
        cat.apply_delta("g", &real).unwrap();
        assert!(std::fs::metadata(&wal).unwrap().len() > before);
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

    #[test]
    fn reopened_catalog_keeps_batch_options() {
        let dir = tmpdir("batchopts");
        let cat = Catalog::new();
        let opts = BatchOptions { memo_bits: 3, grain: 7 };
        cat.insert_with_config("g", path_digraph(10), IndexConfig::default(), opts);
        cat.persist_to("g", &dir).unwrap();
        drop(cat);
        let back = Catalog::open(&dir).unwrap();
        let entry = back.entry("g").unwrap();
        assert_eq!(entry.batch.memo_bits, 3);
        assert_eq!(entry.batch.grain, 7);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn open_on_an_empty_directory_is_an_empty_catalog() {
        let dir = tmpdir("empty");
        let cat = Catalog::open(&dir).unwrap();
        assert!(cat.names().is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn open_skips_unrelated_directories() {
        // Stray directories in a data dir (lost+found, backups) must not
        // block recovery of the real stores next to them.
        let dir = tmpdir("stray");
        let cat = Catalog::new();
        cat.insert("g", path_digraph(4));
        cat.persist_to("g", &dir).unwrap();
        std::fs::create_dir(dir.join("lost+found")).unwrap();
        std::fs::create_dir(dir.join("backups")).unwrap();
        std::fs::write(dir.join("backups").join("notes.txt"), "not a store").unwrap();
        drop(cat);
        let back = Catalog::open(&dir).unwrap();
        assert_eq!(back.names(), vec!["g".to_string()]);
        // But a directory that *does* hold store data (a log with
        // records, not just an aborted creation's header) under an
        // undecodable name is an error, not a silent skip.
        std::fs::create_dir(dir.join("bad|name")).unwrap();
        std::fs::write(dir.join("bad|name").join("wal.log"), b"PSCCWAL1 plus record bytes")
            .unwrap();
        assert!(Catalog::open(&dir).is_err());
        std::fs::remove_dir_all(dir).ok();
    }
}
