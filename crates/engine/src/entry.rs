//! One catalog entry and the generation protocol that serves it.
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
//! A write is two steps under `update`: *plan* (validate, normalize,
//! write ahead, merge, repair — all off-lock) and *commit* (install, keep
//! or drop the index and bump the generation under `state`, then journal).
//!
//! This file is the only one that takes these locks or reads or bumps the
//! generation. Each of its methods holds `state` only to clone or swap and
//! calls nothing while it does, so the `update → store → state` order
//! holds by construction.
//!
//! [`Catalog::discarded_builds`]: crate::Catalog::discarded_builds

use crate::batch::{BatchOptions, MemoCache, QueryBatch};
use crate::delta::{Delta, DeltaError, DeltaOutcome, DeltaReport};
use crate::explain::PlanExplain;
use crate::index::{Index, IndexConfig};
use crate::planner::{plan_repair_explained, RepairPlan};
use pscc_graph::{DiGraph, V};
use pscc_store::{DeltaRecord, Store, StoreMeta};
use pscc_telemetry::recorder::{self, FlightEvent};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An installed index with the memo that caches its verdicts.
pub(crate) type IndexPair = (Arc<Index>, Arc<MemoCache>);

/// Per-entry metric handles, resolved once at entry construction: the
/// registry lookup takes a lock, so serving paths must never resolve a
/// metric name per call. Names follow the workspace's label-in-name
/// convention, e.g. `pscc_catalog_deltas_total{graph="g"}`.
struct EntryMetrics {
    /// Applied deltas (every non-noop outcome, including deferred).
    deltas: Arc<pscc_telemetry::Counter>,
    /// Queries submitted through the catalog's batch paths.
    queries: Arc<pscc_telemetry::Counter>,
    /// Full index builds: lazy first-query builds and delta rebuilds.
    rebuilds: Arc<pscc_telemetry::Counter>,
    /// Off-lock builds discarded because a delta swapped the graph
    /// mid-build (mirrors `discarded_builds`).
    stale_builds_discarded: Arc<pscc_telemetry::Counter>,
    /// 1 while an off-lock index build for this entry is running — the
    /// observable witness that queries keep serving from the old index.
    rebuild_in_flight: Arc<pscc_telemetry::Gauge>,
    /// Wall time of each non-noop `apply_delta` (lock to swap).
    delta_nanos: Arc<pscc_telemetry::Histogram>,
    /// Wall time of each full index build.
    rebuild_nanos: Arc<pscc_telemetry::Histogram>,
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
    /// Resolves the handles of graph `name`, each named
    /// `base{graph="<name>"}` with quotes, backslashes and newlines in
    /// `name` escaped ([`pscc_telemetry::escape_label_value`]), so
    /// arbitrary graph names stay well-formed exposition labels.
    fn for_graph(name: &str) -> EntryMetrics {
        let label = pscc_telemetry::escape_label_value(name);
        let metric = |base: &str| format!("{base}{{graph=\"{label}\"}}");
        EntryMetrics {
            deltas: pscc_telemetry::counter(&metric("pscc_catalog_deltas_total")),
            queries: pscc_telemetry::counter(&metric("pscc_catalog_queries_total")),
            rebuilds: pscc_telemetry::counter(&metric("pscc_catalog_rebuilds_total")),
            stale_builds_discarded: pscc_telemetry::counter(&metric(
                "pscc_catalog_stale_builds_discarded_total",
            )),
            rebuild_in_flight: pscc_telemetry::gauge(&metric("pscc_catalog_rebuild_in_flight")),
            delta_nanos: pscc_telemetry::histogram(&metric("pscc_catalog_delta_nanos")),
            rebuild_nanos: pscc_telemetry::histogram(&metric("pscc_catalog_rebuild_nanos")),
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
    index: Option<IndexPair>,
    /// Incremented on every graph swap; an off-lock build installs only
    /// if the generation it started from is still current.
    generation: u64,
}

impl EntryState {
    /// The graph with the generation that stamps it: what an off-lock
    /// build, a write plan or a snapshot starts from.
    fn base(&self) -> (Arc<DiGraph>, u64) {
        (self.graph.clone(), self.generation)
    }
}

/// What [`Entry::commit`] does with the index slot.
enum Slot {
    /// No index was built before the write: drop one a lazy build
    /// installed meanwhile, which describes the pre-delta graph.
    Drop,
    /// Reachability is unchanged: keep the installed index and its warm
    /// memo.
    Keep,
    /// Install the repaired index with a fresh memo.
    Install(IndexPair),
}

/// A write prepared off-lock by [`Entry::plan`], for [`Entry::commit`] to
/// publish.
struct Plan {
    /// The tier and the effective edge counts.
    report: DeltaReport,
    /// The generation the write was planned from.
    generation: u64,
    merged: Arc<DiGraph>,
    slot: Slot,
    /// The planner's explain; `None` when no index was built yet.
    explain: Option<PlanExplain>,
}

pub(crate) struct Entry {
    /// The graph's registered name (for span attributes).
    pub(crate) name: String,
    /// Cached metric handles for this entry's name.
    metrics: EntryMetrics,
    config: IndexConfig,
    pub(crate) batch: BatchOptions,
    /// Short-hold lock: clone/swap the state triple, nothing else.
    state: Mutex<EntryState>,
    /// Long-hold lock serializing writers; queries never take it.
    update: Mutex<()>,
    /// Durable backing, when attached (`Catalog::persist_to` /
    /// `Catalog::open`).
    store: Mutex<Option<Arc<Store>>>,
    /// Off-lock builds discarded because the generation moved mid-build.
    discarded_builds: AtomicU64,
    /// True while a compaction job for this entry is queued or running.
    pub(crate) compaction_queued: AtomicBool,
}

impl Entry {
    pub(crate) fn new(
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

    pub(crate) fn store(&self) -> Option<Arc<Store>> {
        self.store.lock().expect("store lock").clone()
    }

    pub(crate) fn graph(&self) -> Arc<DiGraph> {
        self.state.lock().expect("entry lock").graph.clone()
    }

    pub(crate) fn is_indexed(&self) -> bool {
        self.state.lock().expect("entry lock").index.is_some()
    }

    pub(crate) fn generation(&self) -> u64 {
        self.state.lock().expect("entry lock").generation
    }

    pub(crate) fn discarded_builds(&self) -> u64 {
        self.discarded_builds.load(Ordering::Relaxed)
    }

    /// Counts `queries` against the entry, then runs `f` on a batch over
    /// the current index and its shared memo (building the index off-lock
    /// on first use).
    pub(crate) fn query<R>(&self, queries: usize, f: impl FnOnce(&QueryBatch<'_>) -> R) -> R {
        self.metrics.queries.add(queries as u64);
        let (index, memo) = self.index_and_memo();
        f(&QueryBatch::with_shared_memo(&index, memo, self.batch.grain))
    }

    /// The entry's index + memo, built **off-lock** on first use and
    /// rebuilt while a delta keeps superseding the generation the build
    /// started from.
    pub(crate) fn index_and_memo(&self) -> IndexPair {
        loop {
            let (graph, generation) = {
                let st = self.state.lock().expect("entry lock");
                match &st.index {
                    Some(pair) => return pair.clone(),
                    None => st.base(),
                }
            };
            if recorder::is_active() {
                recorder::record(
                    FlightEvent::new("rebuild_start")
                        .field("graph", &self.name)
                        .field("generation", generation),
                );
            }
            let index = {
                let _span = pscc_telemetry::span("index_build");
                self.build_index(&graph)
            };
            if let Some(pair) = self.install(generation, index) {
                return pair;
            }
        }
    }

    /// Offers an index built off-lock from the graph of `generation`: if
    /// that is still current, installs it (or shares the one a concurrent
    /// lazy builder installed first); otherwise discards and counts it and
    /// returns `None`, so the caller builds again against the new graph.
    fn install(&self, generation: u64, index: Index) -> Option<IndexPair> {
        let pair = self.with_memo(index);
        let installed = {
            let mut st = self.state.lock().expect("entry lock");
            (st.generation == generation).then(|| st.index.get_or_insert(pair).clone())
        };
        if installed.is_none() {
            self.count_discard();
        }
        if recorder::is_active() {
            let kind = if installed.is_some() { "rebuild_swap" } else { "rebuild_discard" };
            let mut ev =
                FlightEvent::new(kind).field("graph", &self.name).field("generation", generation);
            if let Some((index, _)) = &installed {
                ev = ev.field("components", index.num_components());
            }
            recorder::record(ev);
        }
        installed
    }

    /// `index` with a fresh memo sized for it.
    fn with_memo(&self, index: Index) -> IndexPair {
        let memo = MemoCache::new(self.batch.memo_bits, index.num_components());
        (Arc::new(index), Arc::new(memo))
    }

    /// A full index build of `graph` — the lazy first-query build and the
    /// [`DeltaOutcome::Rebuilt`] tier — with the in-flight gauge, the
    /// rebuild timer and the rebuild counter.
    fn build_index(&self, graph: &DiGraph) -> Index {
        // The gauge is the observable witness (used by the concurrency
        // stress suite) that queries keep serving from the installed
        // index while this build runs.
        let _in_flight = self.metrics.rebuild_in_flight.inc_scoped();
        let timer = pscc_telemetry::enabled().then(pscc_telemetry::Timer::start);
        let index = Index::build_with_config(graph, &self.config);
        if let Some(t) = timer {
            self.metrics.rebuild_nanos.record(t.elapsed());
        }
        self.metrics.rebuilds.inc();
        index
    }

    fn count_discard(&self) {
        self.discarded_builds.fetch_add(1, Ordering::Relaxed);
        self.metrics.stale_builds_discarded.inc();
    }

    /// Applies `delta` under the writer lock: [`Entry::plan`], then
    /// [`Entry::commit`]. Shared by the serving path (`log = true`:
    /// write-ahead through the entry's store) and recovery replay
    /// (`log = false`: the record is already durable).
    pub(crate) fn apply_delta(&self, delta: &Delta, log: bool) -> Result<DeltaReport, DeltaError> {
        // Root span of the delta's causal trace: normalize → plan(tier) →
        // execute → fsync → swap, each a child span with its own duration.
        let mut root = pscc_telemetry::span("apply_delta");
        root.set_attr("graph", &self.name);
        let delta_timer = pscc_telemetry::enabled().then(pscc_telemetry::Timer::start);
        // Serialize writers; queries proceed untouched.
        let _writer = self.update.lock().expect("update lock");
        let Some(plan) = self.plan(delta, log)? else {
            root.set_attr("outcome", "noop");
            return Ok(DeltaReport { outcome: DeltaOutcome::NoOp, inserted: 0, deleted: 0 });
        };
        let report = self.commit(plan, log);
        root.set_attr("outcome", outcome_name(report.outcome));
        self.metrics.deltas.inc();
        if let Some(t) = delta_timer {
            self.metrics.delta_nanos.record(t.elapsed());
        }
        Ok(report)
    }

    /// The off-lock half of a write; the caller holds the writer lock.
    /// Validates `delta`, normalizes it and reduces it to the effective
    /// delta (`None` if that is empty), appends it to the write-ahead log
    /// when `log` and the entry is durable, merges the graph and runs the
    /// repair tier the planner picks against the installed index.
    fn plan(&self, delta: &Delta, log: bool) -> Result<Option<Plan>, DeltaError> {
        let (graph, generation, index) = {
            let st = self.state.lock().expect("entry lock");
            let (graph, generation) = st.base();
            (graph, generation, st.index.as_ref().map(|(index, _)| index.clone()))
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
        // update lock our caller holds.
        let normalize_span = pscc_telemetry::span("normalize");
        let delta = delta.normalized();
        let has_edge = |&(u, v): &(V, V)| graph.out_neighbors(u).binary_search(&v).is_ok();
        let ins: Vec<(V, V)> =
            delta.insertions().iter().filter(|e| !has_edge(e)).copied().collect();
        let del: Vec<(V, V)> = delta.deletions().iter().filter(|e| has_edge(e)).copied().collect();
        drop(normalize_span);
        if ins.is_empty() && del.is_empty() {
            return Ok(None);
        }

        // WRITE-AHEAD: the effective delta hits the fsynced log before any
        // in-memory mutation. A failed append changes nothing.
        if log {
            if let Some(store) = self.store() {
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
        let mut explain = None;
        let (outcome, slot) = match &index {
            None => (DeltaOutcome::Deferred, Slot::Drop),
            Some(index) => {
                let cfg = &self.config;
                let (repair, ex) = plan_repair_explained(index, &ins, &del);
                explain = Some(ex);
                let repaired = match repair {
                    RepairPlan::Absorb => None,
                    RepairPlan::DagSplice { arcs } => {
                        Some((index.splice_dag_arcs(&arcs, &ins, &del), DeltaOutcome::DagSpliced))
                    }
                    RepairPlan::RegionRecompute { region, arcs } => Some((
                        index.recompute_region(&region, &arcs, &ins, &del, cfg),
                        DeltaOutcome::RegionRecomputed,
                    )),
                    RepairPlan::ArcUnsplice { arcs } => Some((
                        index.unsplice_dag_arcs(&arcs, &del, cfg),
                        DeltaOutcome::ArcUnspliced,
                    )),
                    // `None`: every checked component held together and no
                    // arc died — reachability is unchanged, so the index is
                    // kept like any other metadata-only delta.
                    RepairPlan::SccSplit { comps, dead_arcs } => index
                        .split_sccs(&merged, &comps, &dead_arcs, &del, cfg)
                        .map(|patched| (patched, DeltaOutcome::SccSplit)),
                    RepairPlan::FullRebuild { .. } => {
                        Some((self.build_index(&merged), DeltaOutcome::Rebuilt))
                    }
                };
                match repaired {
                    Some((patched, outcome)) => (outcome, Slot::Install(self.with_memo(patched))),
                    None => {
                        // Only a writer replaces an installed index, so the
                        // captured one stays installed through the commit;
                        // its support table takes this delta's increments
                        // and decrements.
                        index.note_absorbed(&ins, &del);
                        (DeltaOutcome::Absorbed, Slot::Keep)
                    }
                }
            }
        };
        drop(execute_span);
        let report = DeltaReport { outcome, inserted: ins.len(), deleted: del.len() };
        Ok(Some(Plan { report, generation, merged, slot, explain }))
    }

    /// Publishes a planned write: under `state`, installs, keeps or drops
    /// the index, swaps in the merged graph and bumps the generation; then
    /// journals the write. The replaced graph and index are freed off-lock.
    fn commit(&self, plan: Plan, log: bool) -> DeltaReport {
        let Plan { report, generation, merged, slot, explain } = plan;
        // Re-lock only to swap. The graph is still the one the plan read
        // (swaps are update-lock-serialized), but the *index* slot may
        // have moved: a lazy first-query build can have installed an index
        // for the old graph. Only writers, which the update lock excludes,
        // replace an installed index.
        let swap_span = pscc_telemetry::span("swap");
        let dropping = matches!(slot, Slot::Drop);
        let (_old_graph, old_index) = {
            let mut st = self.state.lock().expect("entry lock");
            debug_assert_eq!(st.generation, generation, "generation moved without the update lock");
            let old_index = match slot {
                Slot::Install(pair) => st.index.replace(pair),
                Slot::Keep => None,
                Slot::Drop => st.index.take(),
            };
            st.generation += 1;
            (std::mem::replace(&mut st.graph, merged), old_index)
        };
        drop(swap_span);
        // An index installed mid-flight describes the pre-delta graph;
        // keeping it past the swap would serve stale answers. It was
        // dropped — the next query rebuilds lazily.
        if dropping && old_index.is_some() {
            self.count_discard();
        }
        // Journal the delta — outside the state lock, so a slow flush can
        // never stall queries. The plan explain rides along in full: the
        // post-mortem trace shows not just which tier repaired the index
        // but which cheaper tiers were priced out and why.
        if recorder::is_active() {
            let mut ev = FlightEvent::new("apply_delta")
                .field("graph", &self.name)
                .field("outcome", outcome_name(report.outcome))
                .field("generation", generation + 1)
                .field("inserted", report.inserted)
                .field("deleted", report.deleted)
                .field("replay", !log);
            if let Some(ex) = &explain {
                for (key, value) in ex.journal_fields() {
                    ev = ev.field(key, value);
                }
            }
            recorder::record(ev);
        }
        report
    }

    /// The current graph and the [`StoreMeta`] a snapshot of it records.
    fn snapshot(&self) -> (Arc<DiGraph>, StoreMeta) {
        let (graph, generation) = self.state.lock().expect("entry lock").base();
        let meta = StoreMeta {
            generation,
            memo_bits: self.batch.memo_bits,
            grain: self.batch.grain as u64,
        };
        (graph, meta)
    }

    /// Attaches a new store in `dir` holding the current graph. Fails with
    /// [`io::ErrorKind::AlreadyExists`] if the entry already has a store.
    pub(crate) fn persist_to(&self, dir: &Path) -> io::Result<()> {
        // The `update` writer lock serializes this against `apply_delta`
        // and concurrent `persist_to` calls, so nobody can fill the store
        // slot between the emptiness check and the install below — and
        // the short-hold slot lock need not be held across the slow
        // snapshot write + fsync.
        let _writer = self.update.lock().expect("update lock");
        if self.store().is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("graph {:?} already has a store", self.name),
            ));
        }
        let (graph, meta) = self.snapshot();
        let store = Store::create(dir, &graph, meta)?;
        *self.store.lock().expect("store lock") = Some(Arc::new(store));
        Ok(())
    }

    /// Runs one compaction: under the writer lock (so the log is quiescent
    /// and the captured graph matches its last record), snapshot the
    /// current graph and truncate the log. Queries are unaffected — they
    /// only ever take the state lock, which is held just long enough to
    /// clone two `Arc`s.
    pub(crate) fn compact(&self) {
        let _writer = self.update.lock().expect("update lock");
        let Some(store) = self.store() else { return };
        let (graph, meta) = self.snapshot();
        let result = store.compact(&graph, meta);
        if recorder::is_active() {
            recorder::record(
                FlightEvent::new("compaction")
                    .field("graph", &self.name)
                    .field("generation", meta.generation)
                    .field("ok", result.is_ok()),
            );
        }
        if let Err(e) = result {
            pscc_telemetry::counter("pscc_maintenance_failures_total").inc();
            pscc_telemetry::log!(Error, "compaction of {} failed: {e}", store.dir().display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::tests::tmpdir;
    use crate::catalog::{encode_name, Catalog};
    use pscc_graph::generators::simple::{cycle_digraph, path_digraph};

    #[test]
    fn a_build_from_a_superseded_generation_is_discarded_and_retried() {
        // The generation check without racing threads: capture a
        // generation, apply a delta, then offer the install step a build
        // made from the captured graph.
        let graph = Arc::new(path_digraph(4));
        let entry =
            Entry::new("g", IndexConfig::default(), BatchOptions::default(), graph, 0, None);
        let (graph, generation) = (entry.graph(), entry.generation());
        let stale = entry.build_index(&graph);
        assert!(!stale.reaches(3, 0));
        let mut d = Delta::new();
        d.insert(3, 0); // closes the path into a cycle
        assert_eq!(entry.apply_delta(&d, true).unwrap().outcome, DeltaOutcome::Deferred);
        assert!(entry.install(generation, stale).is_none(), "a stale build must not install");
        assert_eq!(entry.discarded_builds(), 1);
        assert!(!entry.is_indexed());
        // The retry builds from the new graph and installs.
        let (index, _) = entry.index_and_memo();
        assert!(index.reaches(3, 0));
        assert!(entry.is_indexed());
        assert_eq!(entry.discarded_builds(), 1);
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
        let (before, memo_before) = cat.entry("g").unwrap().index_and_memo();
        // In-SCC edge + already-reachable pair: both absorbable.
        let mut d = Delta::new();
        d.insert(0, 0).insert(0, 3);
        let report = cat.apply_delta("g", &d).unwrap();
        assert_eq!(report.outcome, DeltaOutcome::Absorbed);
        assert_eq!(report.inserted, 2);
        let (after, memo_after) = cat.entry("g").unwrap().index_and_memo();
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
        let cat = Catalog::new();
        cat.insert("g", path_digraph(100));
        let before = cat.index("g").unwrap();
        // Closing the whole 100-component path is past max(100 / 4, 32).
        let mut d = Delta::new();
        d.insert(99, 0);
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
        // One 200-vertex cycle: past max(200 / 4, 32), so the split check
        // is priced out.
        let cat = Catalog::new();
        cat.insert("g", cycle_digraph(200));
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
}
