//! The reachability index: SCC labels + condensation DAG + per-component
//! descendant summaries, assembled from composable layers (SCC labeling,
//! topological levels, descendant summary) that each support partial
//! invalidation.
//!
//! ## Query tiers
//!
//! [`Index::reaches`] answers `u ⇝ v` through a cascade of increasingly
//! expensive checks, stopping at the first decisive one:
//!
//! 1. **Same SCC** — `comp(u) == comp(v)` ⇒ reachable (and `u == v`
//!    trivially). O(1).
//! 2. **Level prune** — components carry longest-path topological levels;
//!    every DAG path strictly increases the level, so
//!    `level(cu) ≥ level(cv)` ⇒ unreachable. O(1).
//! 3. **Descendant summary** — depends on the DAG size (chosen at build
//!    time, see [`SummaryTier`]):
//!    * *Bitset tier* (small DAGs): one descendant bitset row per
//!      component; the answer is a single bit test. O(1).
//!    * *Label tier* (large DAGs whose pruned 2-hop labeling fits the
//!      label budget): sorted hub arrays per component, built by pruned
//!      landmark labeling over the condensation DAG; the answer is one
//!      merge-intersection of `label_out(cu)` and `label_in(cv)` — no
//!      DFS fallback, O(label length).
//!    * *Interval tier* (large DAGs past the label budget): GRAIL-style
//!      pruned-DFS interval
//!      labels (d independent randomized post-order labelings; reachable ⇒
//!      the target's interval nests inside the source's in *every*
//!      labeling), plus exact *exception lists* — components whose strict
//!      descendant set is small carry it verbatim, answering exactly.
//!      Queries that survive every prune fall back to an interval- and
//!      level-pruned DFS over the condensation DAG. O(log) typical,
//!      DAG-bounded worst case.
//!
//! ## Repair, not just rebuild
//!
//! The index is immutable after construction and all query paths take
//! `&self`, so batches can share it across threads freely. Deltas are
//! therefore applied by *producing a patched index* next to the live one:
//! besides the full [`Index::build`], the repair planner
//! ([`crate::planner`]) drives four incremental constructors —
//! `Index::splice_dag_arcs` (new condensation arcs, no component
//! changes), `Index::recompute_region` (component merges confined to a
//! DAG region), `Index::unsplice_dag_arcs` (arcs whose last support a
//! deletion took) and `Index::split_sccs` (components an intra-SCC
//! deletion may split) — each of which reuses every layer a delta
//! provably cannot have touched.

use crate::explain::QueryTier;
use crate::layers::{LevelLayer, SccLayer, SummaryConfig, SummaryLayer, SupportLayer};
use pscc_apps::{condense_scc, topological_order, Condensation};
use pscc_core::{dense_components, parallel_scc, parallel_scc_induced, SccConfig};
use pscc_graph::{csr_from_weighted_arcs, merge_csr, Csr, DiGraph, V};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use crate::layers::SummaryTier;

/// Build-time configuration for an [`Index`].
#[derive(Clone, Debug)]
pub struct IndexConfig {
    /// Configuration of the underlying parallel SCC run.
    pub scc: SccConfig,
    /// Ceiling (in bytes) on the bitset tier; DAGs whose full descendant
    /// bitsets would exceed it use the label or interval tier instead.
    pub bitset_budget_bytes: usize,
    /// Ceiling (in bytes) on the pruned 2-hop label tier: when the bitset
    /// budget overflows, labels are built as long as their total footprint
    /// stays under this; past it (or at 0, which disables the tier) the
    /// interval tier takes over.
    pub label_budget_bytes: usize,
    /// Minimum DAG size (in components) before the label tier is
    /// considered, so small graphs keep the exact bitset/interval
    /// behavior unchanged.
    pub label_min_components: usize,
    /// Number of independent interval labelings in the interval tier
    /// (more labelings prune more, cost more memory).
    pub labelings: usize,
    /// Components with at most this many strict descendants store them as
    /// an exact exception list in the interval tier (0 disables).
    pub exception_cap: usize,
    /// Seed for the randomized labeling orders.
    pub seed: u64,
    /// Cost bounds of the delta repair planner (see
    /// [`crate::planner::RepairBudget`]).
    pub repair: crate::planner::RepairBudget,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            scc: SccConfig::default(),
            bitset_budget_bytes: 64 << 20,
            label_budget_bytes: 64 << 20,
            label_min_components: 4096,
            labelings: 2,
            exception_cap: 16,
            seed: 0x5cc_1dec5,
            repair: crate::planner::RepairBudget::default(),
        }
    }
}

impl IndexConfig {
    fn summary(&self) -> SummaryConfig {
        SummaryConfig {
            bitset_budget_bytes: self.bitset_budget_bytes,
            label_budget_bytes: self.label_budget_bytes,
            label_min_components: self.label_min_components,
            labelings: self.labelings,
            exception_cap: self.exception_cap,
            seed: self.seed,
        }
    }
}

/// Build-cost breakdown and shape of one [`Index`] (the benchmark's
/// `engine.index.*` figures).
#[derive(Clone, Debug, Default)]
pub struct IndexStats {
    /// Seconds in the parallel SCC run (of the last full build this index
    /// was patched from, or its own).
    pub scc_seconds: f64,
    /// Seconds deriving component ids and contracting into the
    /// condensation DAG and its arc-support counts (last full build).
    pub condense_seconds: f64,
    /// Seconds computing topological levels (last assembly).
    pub levels_seconds: f64,
    /// Seconds building the descendant summary (last assembly, or the
    /// label tier's relabel on an arc unsplice).
    pub summary_seconds: f64,
    /// Number of strongly connected components.
    pub num_components: usize,
    /// Arcs in the condensation DAG.
    pub dag_arcs: usize,
    /// Bytes held by the descendant summary.
    pub summary_bytes: usize,
    /// Components carrying an exact exception list (interval tier only).
    pub exception_components: usize,
    /// Hub entries across both label sides (label tier only, else 0);
    /// `summary_bytes` is the byte form of the same footprint.
    pub label_entries: usize,
    /// Distinct cross-component pairs in the arc-support table — the
    /// certificate behind the deletion tiers.
    pub supported_pairs: usize,
    /// Supported pairs currently absent from the DAG: insertions absorbed
    /// without a repair, to be spliced in by the next structural removal.
    pub latent_arcs: usize,
}

/// An immutable reachability index over one digraph.
///
/// "Immutable" covers everything queries read; one bookkeeping field is
/// interior-mutable because kept indexes are shared as `Arc<Index>`: the
/// arc-support table (only the catalog's update-lock-serialized writers
/// touch it — queries never do).
pub struct Index {
    /// Shared by the repairs that keep every component (splice, unsplice).
    scc: Arc<SccLayer>,
    levels: LevelLayer,
    dag: DiGraph,
    summary: SummaryLayer,
    stats: IndexStats,
    /// Direct-edge multiplicities per cross-component pair plus latent
    /// pairs — the deletion planner's certificate, aligned with `dag`.
    support: Mutex<SupportLayer>,
}

impl Index {
    /// Builds an index for `g` with default configuration.
    pub fn build(g: &DiGraph) -> Index {
        Self::build_with_config(g, &IndexConfig::default())
    }

    /// Builds an index for `g`, running SCC + condensation + summaries.
    pub fn build_with_config(g: &DiGraph, cfg: &IndexConfig) -> Index {
        let t = Instant::now();
        let scc = parallel_scc(g, &cfg.scc);
        let scc_seconds = t.elapsed().as_secs_f64();

        // Freeing the kernel's labels is charged to the condense stage.
        let t = Instant::now();
        let cond = condense_scc(g, &scc.labels);
        drop(scc);
        let condense_seconds = t.elapsed().as_secs_f64();

        let mut index = Self::from_condensation(cond, cfg);
        index.stats.scc_seconds = scc_seconds;
        index.stats.condense_seconds = condense_seconds;
        index
    }

    /// Builds an index from an existing condensation (skips the SCC run;
    /// useful when labels were computed elsewhere). The condensation's arc
    /// multiplicities become the arc-support table, so such an index plans
    /// deletions like any other.
    pub fn from_condensation(cond: Condensation, cfg: &IndexConfig) -> Index {
        let Condensation { comp_of, dag, sizes, arc_support } = cond;
        // A fresh condensation has every supported pair as a real arc.
        let support = SupportLayer::new(arc_support);
        Self::assemble(SccLayer { comp_of, sizes }, dag, support, cfg, IndexStats::default())
    }

    /// Assembles an index from an SCC layer and its condensation DAG:
    /// computes the topological order once, then levels and the summary.
    /// `support` must be aligned with `dag`; `base` carries the SCC and
    /// condense timings from the caller.
    fn assemble(
        scc: SccLayer,
        dag: DiGraph,
        support: SupportLayer,
        cfg: &IndexConfig,
        base: IndexStats,
    ) -> Index {
        let t = Instant::now();
        // analyze: allow(panic): the dag argument is always a freshly condensed graph
        let order = topological_order(&dag).expect("condensation must be a DAG");
        let levels = LevelLayer::build(&dag, &order);
        let levels_seconds = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let (summary, summary_bytes, exception_components) =
            SummaryLayer::build(&dag, &order, &cfg.summary());
        let summary_seconds = t.elapsed().as_secs_f64();

        let mut stats = IndexStats {
            levels_seconds,
            num_components: scc.sizes.len(),
            dag_arcs: dag.m(),
            summary_bytes,
            exception_components,
            label_entries: summary.label_entries(),
            ..base
        };
        Self::record_summary_build(&mut stats, &summary, summary_seconds);
        Index { scc: Arc::new(scc), levels, dag, summary, stats, support: Mutex::new(support) }
    }

    /// Charges one from-scratch summary build to `stats`, whose footprint
    /// fields must already describe `summary`, and on the label tier to the
    /// build telemetry: the `pscc_label_bytes` and `pscc_label_entries`
    /// gauges and the `pscc_label_build_nanos` histogram. A fresh assembly
    /// and the label tier's relabel on an arc unsplice both record here.
    fn record_summary_build(stats: &mut IndexStats, summary: &SummaryLayer, seconds: f64) {
        stats.summary_seconds = seconds;
        if summary.tier() == SummaryTier::Labels {
            pscc_telemetry::gauge("pscc_label_bytes").set(stats.summary_bytes as i64);
            pscc_telemetry::gauge("pscc_label_entries").set(stats.label_entries as i64);
            pscc_telemetry::histogram("pscc_label_build_nanos")
                .record(std::time::Duration::from_secs_f64(seconds));
        }
    }

    // ---- Arc-support bookkeeping ----------------------------------------

    /// The arc-support table, aligned with [`Index::dag`].
    pub(crate) fn support_table(&self) -> std::sync::MutexGuard<'_, SupportLayer> {
        self.support.lock().expect("support lock")
    }

    /// Applies one delta's effective edges to a support table aligned with
    /// `dag`, the out-CSR of the DAG *after* this repair (ids of `comp_of`).
    fn patch_support(
        support: &mut SupportLayer,
        comp_of: &[u32],
        dag: &Csr,
        ins: &[(V, V)],
        del: &[(V, V)],
    ) {
        let cross = |&(u, v): &(V, V)| {
            let pair = (comp_of[u as usize], comp_of[v as usize]);
            (pair.0 != pair.1).then_some(pair)
        };
        del.iter().filter_map(cross).for_each(|pair| support.record_delete(dag, pair));
        ins.iter().filter_map(cross).for_each(|pair| support.record_insert(dag, pair));
    }

    // ---- Incremental repair constructors --------------------------------

    /// Tier-1 repair: splice new condensation arcs (old component id
    /// endpoints) into the DAG. Sound **only** when the planner proved the
    /// arcs cannot create a cycle among components — then the SCC layer is
    /// untouched, levels are relaxed from the new arcs, and the summary is
    /// patched (see `SummaryLayer::splice_arcs`). `ins`/`del` are the
    /// delta's effective edges, used solely to keep the arc-support table
    /// in lockstep (any deletions riding along were proven metadata-only
    /// by the planner).
    pub(crate) fn splice_dag_arcs(
        &self,
        arcs: &[(u32, u32)],
        ins: &[(V, V)],
        del: &[(V, V)],
        cfg: &IndexConfig,
    ) -> Index {
        let mut arcs: Vec<(V, V)> = arcs.to_vec();
        pscc_graph::dedup_edges(&mut arcs);
        let dag = self.dag.with_delta(&arcs, &[]);
        let mut levels = self.levels.clone();
        levels.splice(&dag, &arcs);
        // Bitsets and intervals repair the new DAG's ancestors of the arcs'
        // sources; the label tier patches from the arcs alone.
        let summary = self.summary.splice_arcs(&dag, &arcs, &levels.levels, &cfg.summary());

        let mut support = self.support_table().realigned(self.dag.out_csr(), dag.out_csr(), &arcs);
        Self::patch_support(&mut support, &self.scc.comp_of, dag.out_csr(), ins, del);

        let mut stats = self.stats.clone();
        stats.dag_arcs = dag.m();
        stats.summary_bytes = summary.bytes(dag.n());
        stats.exception_components = summary.exception_count();
        stats.label_entries = summary.label_entries();
        Index {
            scc: Arc::clone(&self.scc),
            levels,
            dag,
            summary,
            stats,
            support: Mutex::new(support),
        }
    }

    /// Tier-2 repair: collapse the SCCs a cycle-forming delta created by
    /// re-running the SCC algorithm on the **induced affected region** of
    /// the condensation DAG (old component ids; `region` must be closed
    /// over every possible merge — the planner's `t ⇝ C ⇝ s` cone), then
    /// contract the *old DAG* (never the graph) through the merge map and
    /// reassemble levels + summary.
    pub(crate) fn recompute_region(
        &self,
        region: &[u32],
        arcs: &[(u32, u32)],
        ins: &[(V, V)],
        del: &[(V, V)],
        cfg: &IndexConfig,
    ) -> Index {
        let k_old = self.num_components();
        let mut in_region = vec![false; k_old];
        let mut region_pos = vec![usize::MAX; k_old];
        for (i, &c) in region.iter().enumerate() {
            in_region[c as usize] = true;
            region_pos[c as usize] = i;
        }
        // Sub-SCC over the region plus every new arc contained in it (the
        // cycle-forming ones are, by the region's closure; pure splice
        // arcs that happen to fall inside are harmless extra arcs).
        let inner: Vec<(V, V)> = arcs
            .iter()
            .copied()
            .filter(|&(s, t)| in_region[s as usize] && in_region[t as usize])
            .collect();
        let labels = parallel_scc_induced(&self.dag, region, &inner, &cfg.scc);
        let (groups, group_sizes) = dense_components(&labels);

        // Old component id -> new component id, numbered by ascending old
        // id so the remap is deterministic.
        let mut group_new = vec![u32::MAX; group_sizes.len()];
        let mut map = vec![u32::MAX; k_old];
        let mut next = 0u32;
        for (c, slot) in map.iter_mut().enumerate() {
            if in_region[c] {
                let g = groups[region_pos[c]] as usize;
                if group_new[g] == u32::MAX {
                    group_new[g] = next;
                    next += 1;
                }
                *slot = group_new[g];
            } else {
                *slot = next;
                next += 1;
            }
        }
        let k_new = next as usize;

        let scc = self.scc.remapped(&map, k_new);
        // The delta's arcs join the old DAG (old ids, cyclic for the
        // moment) and its edges the support table aligned with it; one
        // weighted contraction through the merge map then yields the new
        // condensation *and* its support counts.
        let mut arcs: Vec<(V, V)> = arcs.to_vec();
        pscc_graph::dedup_edges(&mut arcs);
        let spliced = merge_csr(self.dag.out_csr(), &arcs, &[]);
        let mut support = self.support_table().realigned(self.dag.out_csr(), &spliced, &arcs);
        Self::patch_support(&mut support, &self.scc.comp_of, &spliced, ins, del);
        let (out, support) = support.contracted(&spliced, &map, k_new);

        Self::assemble(scc, DiGraph::from_out_csr(out), support, cfg, self.stats.clone())
    }

    /// Tier-3 repair (deletions): remove condensation arcs whose last
    /// direct-edge support the delta deleted. Sound **only** when the
    /// planner proved every structural deletion is such a dead arc (no
    /// intra-SCC deletion, so the SCC layer is untouched). Before the
    /// arcs go, every **latent** pair is spliced into the DAG — a latent
    /// pair's reachability was witnessed by DAG paths that may run
    /// through exactly the arcs being removed. Levels are then relaxed
    /// exactly from the changed arcs and the summary is repaired (see
    /// `SummaryLayer::unsplice_arcs`).
    pub(crate) fn unsplice_dag_arcs(
        &self,
        dead: &[(u32, u32)],
        del: &[(V, V)],
        cfg: &IndexConfig,
    ) -> Index {
        let mut support = self.support_table().clone();
        Self::patch_support(&mut support, &self.scc.comp_of, self.dag.out_csr(), &[], del);
        // Latent pairs the delta deleted outright left the table above;
        // realigning to the new DAG moves the survivors' counts onto their
        // new arcs and drops the dead arcs' (zero) counts.
        let latent: Vec<(V, V)> = support.latent_pairs();
        let mut dead: Vec<(V, V)> = dead.to_vec();
        pscc_graph::dedup_edges(&mut dead);
        let dag = self.dag.with_delta(&latent, &dead);
        let changed: Vec<(V, V)> = latent.iter().chain(&dead).copied().collect();
        let support = support.realigned(self.dag.out_csr(), dag.out_csr(), &changed);

        let mut levels = self.levels.clone();
        levels.unsplice(&dag, &changed);

        // Bitset/interval tiers repair a copy over the new DAG's ancestors
        // of every changed arc's source; the label tier relabels against
        // the new DAG (exact certificates cannot be narrowed locally) —
        // see `SummaryLayer::unsplice_arcs`.
        let relabel = self.summary.tier() == SummaryTier::Labels;
        let t_summary = Instant::now();
        let summary = self.summary.unsplice_arcs(&dag, &changed, &levels.levels, &cfg.summary());
        let summary_seconds = t_summary.elapsed().as_secs_f64();

        let mut stats = self.stats.clone();
        stats.dag_arcs = dag.m();
        stats.summary_bytes = summary.bytes(dag.n());
        stats.exception_components = summary.exception_count();
        stats.label_entries = summary.label_entries();
        if relabel {
            Self::record_summary_build(&mut stats, &summary, summary_seconds);
        }
        Index {
            scc: Arc::clone(&self.scc),
            levels,
            dag,
            summary,
            stats,
            support: Mutex::new(support),
        }
    }

    /// Tier-4 repair (deletions): an intra-SCC deletion may have split
    /// its component — re-run SCC on **only that component's members**
    /// over `merged` (the post-deletion graph) and splice the resulting
    /// sub-components back into the DAG. `comps` are the components with
    /// an intra-SCC deletion; `dead` are condensation arcs the same delta
    /// killed (their pairs' support hit zero); `del` is the full
    /// effective deletion list (the plan admits no insertions).
    ///
    /// Returns `None` when no component actually split and no arc died —
    /// the reachability relation is then provably unchanged and the
    /// caller keeps the live index (support decrements applied through
    /// [`Index::note_absorbed`]).
    ///
    /// Arcs incident to a split component are re-derived (with support
    /// counts) from the members' adjacency in `merged` — a boundary scan
    /// bounded by the component's volume, never a whole-graph traversal;
    /// all other arcs carry over from the old DAG, minus the dead ones,
    /// plus every latent pair (drained for the same witness reason as in
    /// the unsplice tier). Levels and summary are reassembled over the
    /// patched condensation.
    pub(crate) fn split_sccs(
        &self,
        merged: &DiGraph,
        comps: &[u32],
        dead: &[(u32, u32)],
        del: &[(V, V)],
        cfg: &IndexConfig,
    ) -> Option<Index> {
        let k_old = self.num_components();
        let mut split_pos = vec![usize::MAX; k_old];
        for (i, &c) in comps.iter().enumerate() {
            split_pos[c as usize] = i;
        }
        // Members per split component, in ascending vertex order (one
        // O(n) label scan — linear in vertices, far from a rebuild's
        // SCC + summary cost over the whole graph).
        let mut members: Vec<Vec<V>> = vec![Vec::new(); comps.len()];
        for (v, &c) in self.scc.comp_of.iter().enumerate() {
            if split_pos[c as usize] != usize::MAX {
                members[split_pos[c as usize]].push(v as V);
            }
        }
        // Sub-SCC per component over the post-deletion graph; labels
        // normalized to first-occurrence order for determinism.
        let (groups, group_counts): (Vec<Vec<u32>>, Vec<usize>) = members
            .iter()
            .map(|m| dense_components(&parallel_scc_induced(merged, m, &[], &cfg.scc)))
            .map(|(group_of, sizes)| (group_of, sizes.len()))
            .unzip();
        if group_counts.iter().all(|&c| c <= 1) && dead.is_empty() {
            return None; // every component held together: metadata only
        }

        // Renumber: old ids in order, split components expanding to their
        // group count (deterministic: groups are first-occurrence over
        // ascending member vertex ids).
        let mut map_whole = vec![u32::MAX; k_old]; // non-split comps only
        let mut group_base = vec![u32::MAX; comps.len()];
        let mut next = 0u32;
        for c in 0..k_old {
            match split_pos[c] {
                usize::MAX => {
                    map_whole[c] = next;
                    next += 1;
                }
                i => {
                    group_base[i] = next;
                    next += group_counts[i] as u32;
                }
            }
        }
        let k_new = next as usize;

        let mut comp_of = vec![u32::MAX; self.n()];
        for (v, &c) in self.scc.comp_of.iter().enumerate() {
            if split_pos[c as usize] == usize::MAX {
                comp_of[v] = map_whole[c as usize];
            }
        }
        for (i, m) in members.iter().enumerate() {
            for (j, &v) in m.iter().enumerate() {
                comp_of[v as usize] = group_base[i] + groups[i][j];
            }
        }
        let mut sizes = vec![0usize; k_new];
        for &c in &comp_of {
            sizes[c as usize] += 1;
        }
        let scc = SccLayer { comp_of, sizes };

        // New condensation arcs with their support counts, all in one
        // weighted list. Re-derived (ground truth over `merged`): every
        // edge incident to a split component's members — the out scan
        // covers edges leaving members, the in scan edges arriving from
        // non-split components (member-to-member edges are some member's
        // out edge, counted exactly once).
        let is_split = |c: u32| split_pos[c as usize] != usize::MAX;
        let mut boundary: std::collections::HashMap<(u32, u32), u64> =
            std::collections::HashMap::new();
        for m in &members {
            for &u in m {
                let cu = scc.comp_of[u as usize];
                for &w in merged.out_neighbors(u) {
                    let cw = scc.comp_of[w as usize];
                    if cu != cw {
                        *boundary.entry((cu, cw)).or_insert(0) += 1;
                    }
                }
                for &w in merged.in_neighbors(u) {
                    if !is_split(self.scc.comp_of[w as usize]) {
                        let cw = scc.comp_of[w as usize];
                        if cw != cu {
                            *boundary.entry((cw, cu)).or_insert(0) += 1;
                        }
                    }
                }
            }
        }
        let mut arcs: Vec<((V, V), u64)> = boundary.into_iter().collect();

        // Kept: old entries with the delta's decrements applied, remapped —
        // arcs and latent pairs alike, the latter all become arcs (drained
        // for the same witness reason as in the unsplice tier) — unless
        // incident to a split component or decremented to zero: those are
        // the `dead` arcs (a latent pair that died has left the table).
        let mut old = self.support_table().clone();
        Self::patch_support(&mut old, &self.scc.comp_of, self.dag.out_csr(), &[], del);
        for ((a, b), count) in old.entries(self.dag.out_csr()) {
            debug_assert!(count > 0 || dead.contains(&(a, b)), "arc ({a}, {b}) died unplanned");
            if count > 0 && !is_split(a) && !is_split(b) {
                arcs.push(((map_whole[a as usize], map_whole[b as usize]), count));
            }
        }
        let (out, arc_counts) = csr_from_weighted_arcs(k_new, arcs);

        let support = SupportLayer::new(arc_counts);
        Some(Self::assemble(scc, DiGraph::from_out_csr(out), support, cfg, self.stats.clone()))
    }

    /// Records one absorbed delta: the index is kept because every
    /// effective change provably preserves the reachability relation —
    /// but the arc-support table still moves (inserted cross edges add
    /// support or latent pairs, metadata-only deletions decrement it).
    pub(crate) fn note_absorbed(&self, ins: &[(V, V)], del: &[(V, V)]) {
        let mut support = self.support_table();
        Self::patch_support(&mut support, &self.scc.comp_of, self.dag.out_csr(), ins, del);
    }

    /// Number of vertices of the indexed graph.
    pub fn n(&self) -> usize {
        self.scc.comp_of.len()
    }

    /// Number of strongly connected components.
    pub fn num_components(&self) -> usize {
        self.scc.sizes.len()
    }

    /// Component id of vertex `u` (ids are `0..num_components`).
    #[inline]
    pub fn comp(&self, u: V) -> u32 {
        self.scc.comp_of[u as usize]
    }

    /// Size (vertex count) of component `c`.
    pub fn component_size(&self, c: u32) -> usize {
        self.scc.sizes[c as usize]
    }

    /// Topological level of component `c` (every DAG arc strictly
    /// increases the level).
    #[inline]
    pub fn level(&self, c: u32) -> u32 {
        self.levels.levels[c as usize]
    }

    /// The condensation DAG.
    pub fn dag(&self) -> &DiGraph {
        &self.dag
    }

    /// Which summary representation this index built.
    pub fn tier(&self) -> SummaryTier {
        self.summary.tier()
    }

    /// Build-cost and shape statistics (a snapshot: the arc-support
    /// figures advance as the catalog absorbs deltas into this index).
    pub fn stats(&self) -> IndexStats {
        let mut s = self.stats.clone();
        let support = self.support_table();
        s.supported_pairs = support.supported_pairs();
        s.latent_arcs = support.latent_arcs();
        s
    }

    /// The arc-support table as `(pair, multiplicity, latent)` rows (DAG
    /// arcs in CSR order, then latent pairs): diagnostics, lockstep tests.
    pub fn support_entries(&self) -> Vec<((u32, u32), u64, bool)> {
        let support = self.support_table();
        let rows = support.entries(self.dag.out_csr());
        rows.map(|(pair, count)| (pair, count, support.is_latent(pair))).collect()
    }

    /// True if a directed path `u ⇝ v` exists (trivially true for
    /// `u == v`).
    pub fn reaches(&self, u: V, v: V) -> bool {
        let (cu, cv) = (self.comp(u) as usize, self.comp(v) as usize);
        self.comp_reaches(cu, cv)
    }

    /// Component-level reachability `cu ⇝ cv` on the condensation DAG.
    pub fn comp_reaches(&self, cu: usize, cv: usize) -> bool {
        if cu == cv {
            return true;
        }
        if self.levels.levels[cu] >= self.levels.levels[cv] {
            return false;
        }
        self.summary.comp_reaches(cu, cv, &self.dag, &self.levels.levels)
    }

    /// [`Self::comp_reaches`] with provenance: the verdict, the
    /// [`QueryTier`] that decided it, and the components visited when the
    /// pruned-DFS fallback ran (0 otherwise).
    pub fn comp_reaches_explained(&self, cu: usize, cv: usize) -> (bool, QueryTier, usize) {
        if cu == cv {
            return (true, QueryTier::SameComponent, 0);
        }
        if self.levels.levels[cu] >= self.levels.levels[cv] {
            return (false, QueryTier::LevelPrune, 0);
        }
        self.summary.comp_reaches_explained(cu, cv, &self.dag, &self.levels.levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_graph::generators::random::gnm_digraph;
    use pscc_graph::generators::simple::{cycle_digraph, path_digraph};

    /// Brute-force vertex-level reachability oracle.
    fn bfs_reaches(g: &DiGraph, u: V, v: V) -> bool {
        let mut seen = vec![false; g.n()];
        let mut stack = vec![u];
        seen[u as usize] = true;
        while let Some(x) = stack.pop() {
            if x == v {
                return true;
            }
            for &w in g.out_neighbors(x) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        false
    }

    fn check_all_pairs(g: &DiGraph, cfg: &IndexConfig) {
        let idx = Index::build_with_config(g, cfg);
        for u in 0..g.n() as V {
            for v in 0..g.n() as V {
                assert_eq!(
                    idx.reaches(u, v),
                    bfs_reaches(g, u, v),
                    "({u}, {v}) tier {:?}",
                    idx.tier()
                );
            }
        }
    }

    fn tiny_budget() -> IndexConfig {
        // Forces the interval tier even on tiny DAGs (the label tier needs
        // an explicit opt-in via `label_min_components`, so it stays off).
        IndexConfig { bitset_budget_bytes: 0, ..IndexConfig::default() }
    }

    fn label_forcing() -> IndexConfig {
        // Forces the 2-hop label tier even on tiny DAGs.
        IndexConfig { bitset_budget_bytes: 0, label_min_components: 0, ..IndexConfig::default() }
    }

    /// One config per summary tier, for the per-tier repair test loops.
    fn tier_configs() -> [IndexConfig; 3] {
        [IndexConfig::default(), label_forcing(), tiny_budget()]
    }

    #[test]
    fn path_reachability_all_tiers() {
        let g = path_digraph(40);
        for cfg in tier_configs() {
            check_all_pairs(&g, &cfg);
        }
    }

    #[test]
    fn cycle_collapses_to_single_component() {
        let g = cycle_digraph(30);
        let idx = Index::build(&g);
        assert_eq!(idx.num_components(), 1);
        assert!(idx.reaches(3, 17) && idx.reaches(17, 3));
    }

    #[test]
    fn random_graphs_match_oracle_bitset_tier() {
        for seed in 0..4u64 {
            let g = gnm_digraph(60, 150, seed);
            check_all_pairs(&g, &IndexConfig::default());
        }
    }

    #[test]
    fn random_graphs_match_oracle_interval_tier() {
        for seed in 0..4u64 {
            let g = gnm_digraph(60, 150, seed + 100);
            check_all_pairs(&g, &tiny_budget());
        }
    }

    #[test]
    fn random_graphs_match_oracle_label_tier() {
        for seed in 0..4u64 {
            let g = gnm_digraph(60, 150, seed + 300);
            let cfg = label_forcing();
            assert_eq!(Index::build_with_config(&g, &cfg).tier(), SummaryTier::Labels);
            check_all_pairs(&g, &cfg);
        }
    }

    #[test]
    fn interval_tier_without_exceptions_matches_oracle() {
        let cfg = IndexConfig { exception_cap: 0, ..tiny_budget() };
        for seed in 0..3u64 {
            check_all_pairs(&gnm_digraph(50, 120, seed + 200), &cfg);
        }
    }

    #[test]
    fn tier_selection_follows_budget() {
        let g = gnm_digraph(100, 200, 7);
        assert_eq!(Index::build(&g).tier(), SummaryTier::Bitset);
        assert_eq!(Index::build_with_config(&g, &tiny_budget()).tier(), SummaryTier::Intervals);
        assert_eq!(Index::build_with_config(&g, &label_forcing()).tier(), SummaryTier::Labels);
        // Label tier declined when the labeling cannot fit its budget.
        let starved = IndexConfig { label_budget_bytes: 64, ..label_forcing() };
        assert_eq!(Index::build_with_config(&g, &starved).tier(), SummaryTier::Intervals);
        // ... and when the DAG is below the size floor.
        let floor = IndexConfig { label_min_components: 1 << 20, ..label_forcing() };
        assert_eq!(Index::build_with_config(&g, &floor).tier(), SummaryTier::Intervals);
    }

    #[test]
    fn label_tier_stats_are_populated() {
        let g = gnm_digraph(80, 160, 11);
        let idx = Index::build_with_config(&g, &label_forcing());
        assert_eq!(idx.tier(), SummaryTier::Labels);
        let s = idx.stats();
        assert!(s.label_entries >= 2 * s.num_components, "every component self-labels twice");
        assert!(s.num_components > 0);
        assert!(s.summary_bytes >= s.label_entries * 4);
        assert_eq!(s.exception_components, 0);
    }

    /// The label tier's canonical form: the checksum of its five arrays on
    /// two benchmark-shaped graphs, recorded before the flat-pass build
    /// replaced the per-component one, at every pool width. A build that
    /// reorders hubs or entries (a parallel labeling, say) must re-record
    /// these on purpose.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "sized for release builds; CI runs it with --release")]
    fn label_checksums_are_pinned_at_every_width() {
        use pscc_graph::generators::{lattice::lattice_sqr, rmat::rmat_digraph};
        let graphs = [
            ("rmat-14", rmat_digraph(14, 120_000, 1), 0xc088_72f0_7761_0f8e_u64),
            ("lattice 200x200", lattice_sqr(200, 200, 1), 0x83dd_c5cc_ffff_9ab7),
        ];
        for (name, g, want) in &graphs {
            for width in [1, 2, 8] {
                let idx = pscc_runtime::with_threads(width, || {
                    Index::build_with_config(g, &label_forcing())
                });
                let SummaryLayer::Labels(labels) = &idx.summary else {
                    panic!("{name}: not on the label tier");
                };
                assert_eq!(labels.checksum(), *want, "{name} at width {width}: the labels moved");
            }
        }
    }

    #[test]
    fn levels_strictly_increase_along_dag_arcs() {
        let g = gnm_digraph(120, 300, 3);
        let idx = Index::build(&g);
        for (a, b) in idx.dag().out_csr().edges() {
            assert!(idx.level(a) < idx.level(b), "arc {a}->{b}");
        }
    }

    #[test]
    fn stats_are_populated() {
        let g = gnm_digraph(80, 160, 5);
        let idx = Index::build(&g);
        let s = idx.stats();
        assert_eq!(s.num_components, idx.num_components());
        assert!(s.summary_bytes > 0);
        assert!(s.scc_seconds >= 0.0 && s.summary_seconds >= 0.0);
    }

    /// The four stage timers own the build: nothing between the kernel
    /// and the served index (component ids, support counts, layer
    /// assembly, drops) runs outside one of them.
    #[test]
    fn stage_timers_cover_the_build_wall_time() {
        let g = pscc_graph::generators::rmat::rmat_digraph(16, 6 << 16, 1);
        let t = Instant::now();
        let idx = Index::build_with_config(&g, &IndexConfig::default());
        let wall = t.elapsed().as_secs_f64();
        let s = idx.stats();
        let charged = s.scc_seconds + s.condense_seconds + s.levels_seconds + s.summary_seconds;
        assert!(charged >= 0.95 * wall, "stages sum to {charged:.4}s of {wall:.4}s");
        assert_eq!(s.supported_pairs, idx.dag().m(), "a fresh build has no latent pair");
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = DiGraph::from_edges(0, &[]);
        let idx = Index::build(&g);
        assert_eq!(idx.num_components(), 0);
        let g1 = DiGraph::from_edges(1, &[]);
        let idx1 = Index::build(&g1);
        assert!(idx1.reaches(0, 0));
    }

    #[test]
    fn self_loops_are_single_vertex_components() {
        let g = DiGraph::from_edges(3, &[(0, 0), (0, 1), (1, 2)]);
        let idx = Index::build(&g);
        assert!(idx.reaches(0, 2) && !idx.reaches(2, 0));
        assert_eq!(idx.num_components(), 3);
    }

    /// `splice_dag_arcs` on a path's condensation must answer exactly
    /// like a from-scratch build on the spliced graph.
    #[test]
    fn splice_matches_scratch_build_all_tiers() {
        for cfg in tier_configs() {
            // Two parallel paths sharing nothing: 0->1->2, 3->4->5.
            let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
            let idx = Index::build_with_config(&g, &cfg);
            // Insert 2 -> 3 (components are vertex-labeled singletons here,
            // so comp arcs mirror vertex arcs).
            let arcs = vec![(idx.comp(2), idx.comp(3))];
            let patched = idx.splice_dag_arcs(&arcs, &[(2, 3)], &[], &cfg);
            let merged = g.with_delta(&[(2, 3)], &[]);
            for u in 0..6 {
                for v in 0..6 {
                    assert_eq!(patched.reaches(u, v), bfs_reaches(&merged, u, v), "({u}, {v})");
                }
            }
        }
    }

    /// A repair that keeps every component shares the SCC layer with the
    /// index it patches instead of copying it.
    #[test]
    fn repairs_that_keep_components_share_the_scc_layer() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2)]);
        let cfg = label_forcing();
        let idx = Index::build_with_config(&g, &cfg);
        let spliced = idx.splice_dag_arcs(&[(idx.comp(2), idx.comp(3))], &[(2, 3)], &[], &cfg);
        assert!(Arc::ptr_eq(&idx.scc, &spliced.scc));
        let dead = [(spliced.comp(0), spliced.comp(1))];
        let unspliced = spliced.unsplice_dag_arcs(&dead, &[(0, 1)], &cfg);
        assert!(Arc::ptr_eq(&idx.scc, &unspliced.scc));
        assert!(!unspliced.reaches(0, 2) && unspliced.reaches(1, 3));
    }

    /// The label tier's arc unsplice relabels from scratch, so the patched
    /// index reports that relabel's seconds, not its parent's build time.
    #[test]
    fn label_relabel_on_arc_unsplice_reports_its_own_summary_time() {
        let g = gnm_digraph(2_000, 4_000, 17);
        let arcs: Vec<(V, V)> = g.out_csr().edges().filter(|&(a, b)| a < b).collect();
        let g = DiGraph::from_edges(2_000, &arcs);
        let cfg = label_forcing();
        let idx = Index::build_with_config(&g, &cfg);
        assert_eq!(idx.tier(), SummaryTier::Labels);
        let (u, v) = arcs[arcs.len() / 2];
        let patched = idx.unsplice_dag_arcs(&[(idx.comp(u), idx.comp(v))], &[(u, v)], &cfg);
        assert_eq!(patched.tier(), SummaryTier::Labels);
        let (before, after) = (idx.stats().summary_seconds, patched.stats().summary_seconds);
        assert_ne!(after.to_bits(), before.to_bits(), "the relabel reports the old build's time");
        assert!(after > 0.0);
    }

    /// `unsplice_dag_arcs` on a dead arc must answer exactly like a
    /// from-scratch build on the post-deletion graph — including when a
    /// previously absorbed (latent) pair is the only surviving witness.
    #[test]
    fn unsplice_matches_scratch_build_all_tiers() {
        for cfg in tier_configs() {
            // 0 -> 1 -> 2 with a shortcut 0 -> 2 absorbed post-build.
            let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
            let idx = Index::build_with_config(&g, &cfg);
            let with_shortcut = g.with_delta(&[(0, 2)], &[]);
            idx.note_absorbed(&[(0, 2)], &[]); // (0, 2) is latent now
            assert_eq!(idx.stats().latent_arcs, 1);
            // Delete 1 -> 2: arc (c1, c2) dies; the latent (c0, c2) must
            // be spliced in or 0 ⇝ 2 would be lost.
            let dead = vec![(idx.comp(1), idx.comp(2))];
            let patched = idx.unsplice_dag_arcs(&dead, &[(1, 2)], &cfg);
            assert_eq!(patched.stats().latent_arcs, 0, "latent pairs drain on unsplice");
            let merged = with_shortcut.with_delta(&[], &[(1, 2)]);
            for u in 0..3 {
                for v in 0..3 {
                    assert_eq!(patched.reaches(u, v), bfs_reaches(&merged, u, v), "({u}, {v})");
                }
            }
            // Levels narrowed exactly: 2 is now a direct child of 0 only.
            assert!(patched.level(patched.comp(0)) < patched.level(patched.comp(2)));
        }
    }

    /// The unsplice repair region is one walk over the new DAG from every
    /// changed arc's source. Two dead arcs on one chain, a latent pair the
    /// unsplice drains, and an ancestor (0) that reaches the second dead
    /// arc's source only through the first dead arc: the exact bitset
    /// tier, like the others, must answer every pair like a scratch build.
    #[test]
    fn unsplice_region_covers_dead_and_latent_sources() {
        for cfg in tier_configs() {
            // 0 -> 1 -> 2 -> 3 -> 4, with a shortcut 2 -> 4 absorbed.
            let g = path_digraph(5);
            let idx = Index::build_with_config(&g, &cfg);
            idx.note_absorbed(&[(2, 4)], &[]);
            assert_eq!(idx.stats().latent_arcs, 1);
            // Deleting 1 -> 2 and 3 -> 4 kills both arcs; the latent
            // (2, 4) keeps 2 ⇝ 4.
            let del = [(1, 2), (3, 4)];
            let dead: Vec<(u32, u32)> =
                del.iter().map(|&(u, v)| (idx.comp(u), idx.comp(v))).collect();
            let patched = idx.unsplice_dag_arcs(&dead, &del, &cfg);
            assert_eq!(patched.stats().latent_arcs, 0);
            let merged = g.with_delta(&[(2, 4)], &del);
            for u in 0..5 {
                for v in 0..5 {
                    let want = bfs_reaches(&merged, u, v);
                    assert_eq!(patched.reaches(u, v), want, "{:?} ({u}, {v})", idx.tier());
                }
            }
        }
    }

    /// An arc unsplice on the label tier relabels from scratch, and a
    /// relabel past `label_budget_bytes` downgrades the index to the
    /// interval tier. With the budget set to the fresh labeling's own size,
    /// every dead-arc deletion whose relabel is larger takes that branch;
    /// a seeded family of small DAGs must hold at least one, and each
    /// downgraded index must answer every pair like BFS.
    #[test]
    fn unsplice_past_the_label_budget_downgrades_to_intervals() {
        const N: usize = 24;
        let mut downgrades = 0;
        for seed in 0..16u64 {
            // Every vertex its own component, every edge its arc's only
            // support: deleting any edge kills its arc.
            let mut edges: Vec<(V, V)> = gnm_digraph(N, 60, seed)
                .out_csr()
                .edges()
                .filter(|&(a, b)| a != b)
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            let g = DiGraph::from_edges(N, &edges);
            let fresh = Index::build_with_config(&g, &label_forcing());
            let cfg =
                IndexConfig { label_budget_bytes: fresh.stats().summary_bytes, ..label_forcing() };
            let idx = Index::build_with_config(&g, &cfg);
            assert_eq!(idx.tier(), SummaryTier::Labels);
            for &(u, v) in &edges {
                let dead = [(idx.comp(u), idx.comp(v))];
                let patched = idx.unsplice_dag_arcs(&dead, &[(u, v)], &cfg);
                if patched.tier() != SummaryTier::Intervals {
                    continue;
                }
                downgrades += 1;
                let merged = g.with_delta(&[], &[(u, v)]);
                for a in 0..N as V {
                    for b in 0..N as V {
                        let want = bfs_reaches(&merged, a, b);
                        assert_eq!(
                            patched.reaches(a, b),
                            want,
                            "seed {seed} -({u}, {v}): ({a}, {b})"
                        );
                    }
                }
            }
        }
        assert!(downgrades > 0, "no dead-arc deletion in the family outgrew its labeling");
    }

    /// `split_sccs` must detect a component that stays whole (`None`) and
    /// otherwise answer like a from-scratch build on the split graph.
    #[test]
    fn split_sccs_matches_scratch_build_all_tiers() {
        for cfg in tier_configs() {
            // A 4-cycle {1,2,3,4} with a chord 1 -> 3, entered from 0 and
            // leaving to 5.
            let g =
                DiGraph::from_edges(6, &[(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (0, 1), (4, 5)]);
            let idx = Index::build_with_config(&g, &cfg);
            assert_eq!(idx.num_components(), 3);
            let c = idx.comp(1);
            // Deleting the chord keeps the cycle strongly connected.
            let still_whole = g.with_delta(&[], &[(1, 3)]);
            assert!(idx.split_sccs(&still_whole, &[c], &[], &[(1, 3)], &cfg).is_none());
            // Deleting 2 -> 3 splits the cycle: the chord 1 -> 3 keeps
            // {1, 3, 4} strongly connected, 2 falls out.
            let merged = g.with_delta(&[], &[(2, 3)]);
            let patched =
                idx.split_sccs(&merged, &[c], &[], &[(2, 3)], &cfg).expect("the cycle splits");
            assert_eq!(patched.num_components(), 4);
            assert_eq!(patched.comp(1), patched.comp(3));
            assert_eq!(patched.comp(1), patched.comp(4));
            assert_ne!(patched.comp(1), patched.comp(2));
            for u in 0..6 {
                for v in 0..6 {
                    assert_eq!(patched.reaches(u, v), bfs_reaches(&merged, u, v), "({u}, {v})");
                }
            }
        }
    }

    /// `recompute_region` must merge exactly the components on the cycle
    /// and answer like a from-scratch build.
    #[test]
    fn region_recompute_matches_scratch_build_all_tiers() {
        for cfg in tier_configs() {
            // A path 0->1->2->3->4 plus an off-path sibling 1->5.
            let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]);
            let idx = Index::build_with_config(&g, &cfg);
            // Insert 3 -> 1: merges comps of {1, 2, 3}.
            let (c3, c1) = (idx.comp(3), idx.comp(1));
            let mut region: Vec<u32> = vec![idx.comp(1), idx.comp(2), idx.comp(3)];
            region.sort_unstable();
            let patched = idx.recompute_region(&region, &[(c3, c1)], &[(3, 1)], &[], &cfg);
            assert_eq!(patched.num_components(), 4);
            assert_eq!(patched.comp(1), patched.comp(3));
            let merged = g.with_delta(&[(3, 1)], &[]);
            for u in 0..6 {
                for v in 0..6 {
                    assert_eq!(patched.reaches(u, v), bfs_reaches(&merged, u, v), "({u}, {v})");
                }
            }
        }
    }
}
