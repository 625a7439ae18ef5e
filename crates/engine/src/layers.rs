//! The composable layers of a reachability [`Index`](crate::index::Index):
//! SCC labeling, topological levels, and the descendant summary — each
//! buildable from scratch *and* partially invalidatable, so the repair
//! planner ([`crate::planner`]) can patch exactly the layers a delta
//! touches instead of rebuilding the whole index.
//!
//! | layer | full build | partial invalidation |
//! |---|---|---|
//! | [`SccLayer`] | BGSS SCC over the graph | [`SccLayer::remapped`] — merge components through an old→new id map |
//! | condensation DAG | `condense_scc` over all edges | `DiGraph::with_delta` arc splice/unsplice, or contraction of the *old DAG* (never the graph) |
//! | [`LevelLayer`] | sweep in topological order | [`LevelLayer::splice`] — worklist relaxation from new arcs; [`LevelLayer::unsplice`] — exact recompute from changed-arc targets |
//! | [`SummaryLayer`] | bitsets, 2-hop hub labels ([`LabelLayer::build`]: one sequential flat pass, hubs by a counting sort on degree, pruning by a mark array over ranks), or interval labels | [`SummaryLayer::splice_arcs`] — bitsets/intervals recompute/widen only the ancestors of the new arcs' sources (hub labels: extend coverage over each new arc's `anc × desc` region, both walks of every arc on one [`Walker`]); [`SummaryLayer::unsplice_arcs`] — bitsets/intervals the same over the new DAG's ancestors of every changed arc's source, one walk (sound for arc removal), hub labels relabel from scratch (exact certificates are not over-approximations) |
//! | [`SupportLayer`] | the condensation's own arc multiplicities (`contract_csr`) | per-edge increments/decrements, [`SupportLayer::realigned`] after an arc splice/unsplice, [`SupportLayer::contracted`] after merges |
//!
//! The DAG itself has no wrapper type: `DiGraph` already supports the two
//! partial updates the repair tiers need (arc splicing via `with_delta`,
//! and contraction through a merge map via `contract_csr`, which also
//! carries the support counts along). Every reachability set a repair
//! collects over it comes from one [`Walker`].

use crate::explain::QueryTier;
use pscc_graph::{contract_csr, merge_rows, splice_values, Csr, DiGraph, V};
use pscc_runtime::SplitMix64;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which descendant-summary representation an
/// [`Index`](crate::index::Index) holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SummaryTier {
    /// Full per-component descendant bitsets (small DAGs).
    Bitset,
    /// Pruned landmark (2-hop) hub labels: a point query is one sorted-set
    /// merge-intersection, no DFS fallback (large DAGs whose total label
    /// size fits the label budget).
    Labels,
    /// Interval labels + exception lists + pruned DFS (large DAGs where
    /// the label budget overflowed or the tier is disabled).
    Intervals,
}

// ---- SCC labeling ---------------------------------------------------------

/// The SCC labeling layer: which component each vertex belongs to and how
/// many vertices each component holds.
#[derive(Clone)]
pub(crate) struct SccLayer {
    /// Component id of each original vertex (`0..sizes.len()`).
    pub comp_of: Vec<u32>,
    /// Vertex count per component.
    pub sizes: Vec<usize>,
}

impl SccLayer {
    /// Partial invalidation after a region merge: pushes every vertex and
    /// size through `map` (old component id → new component id over
    /// `k_new` components). Only the labeling is touched — no SCC run,
    /// no graph traversal.
    pub fn remapped(&self, map: &[u32], k_new: usize) -> SccLayer {
        let comp_of: Vec<u32> = self.comp_of.iter().map(|&c| map[c as usize]).collect();
        let mut sizes = vec![0usize; k_new];
        for (c, &s) in self.sizes.iter().enumerate() {
            sizes[map[c] as usize] += s;
        }
        SccLayer { comp_of, sizes }
    }
}

// ---- Arc support ----------------------------------------------------------

/// The arc-support layer: how many graph edges contract to each
/// cross-component pair, plus which supported pairs are **latent** —
/// absorbed by the repair planner without ever becoming a DAG arc.
///
/// This is the certificate that makes deletions plannable:
///
/// * a cross-component edge whose pair keeps support `> 0` can be deleted
///   as a pure metadata decrement (another parallel edge witnesses the
///   same arc, so the reachability relation is provably unchanged);
/// * a pair whose support hits `0` kills its DAG arc — the arc-unsplice
///   tier removes it and, crucially, **drains every latent pair into the
///   DAG first**: a latent pair's reachability was witnessed by DAG paths
///   when it was absorbed, and arcs have only been *added* since (any
///   structural removal drains the latent set), but the arcs being
///   removed right now may be exactly that witness;
/// * a latent pair whose support hits `0` is metadata-only too — by the
///   same invariant, the current DAG still witnesses its endpoints'
///   reachability without it.
///
/// Intra-component edges and self loops are not tracked: deleting them
/// can never remove a condensation arc (the SCC-split check is
/// graph-driven instead).
///
/// **Representation and invariants.** Arcs carry no keys: `arc_counts[i]`
/// belongs to the `i`-th arc of the **index DAG's out-CSR**
/// (`dag.out_csr().targets()[i]`), so a fresh build is the condensation's
/// own run lengths, a clone is a `memcpy`, and a lookup is a binary search
/// in `dag.out_neighbors(a)`. Every method that touches an arc takes that
/// out-CSR, and whoever replaces the DAG realigns the counts with it:
/// [`SupportLayer::realigned`] after an arc splice/unsplice,
/// [`SupportLayer::contracted`] after a region merge, a fresh
/// [`SupportLayer::new`] after an SCC split. Supported pairs that are *not*
/// arcs live in `latent`, an ordered map every structural removal drains:
/// `latent ∩ DAG arcs = ∅`, every stored count is positive, and the DAG
/// witnesses every latent pair's reachability without it.
#[derive(Clone)]
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct SupportLayer {
    arc_counts: Vec<u64>,
    latent: BTreeMap<(u32, u32), u64>,
}

impl SupportLayer {
    /// The table of a DAG whose every supported pair is an arc.
    pub fn new(arc_counts: Vec<u64>) -> SupportLayer {
        SupportLayer { arc_counts, latent: BTreeMap::new() }
    }

    /// Position of arc `a → b` in `dag`'s target array, if it is an arc.
    fn arc_slot(dag: &Csr, (a, b): (u32, u32)) -> Option<usize> {
        dag.neighbors(a).binary_search(&b).ok().map(|i| dag.offsets()[a as usize] as usize + i)
    }

    /// Direct-edge multiplicity of the pair (0 when untracked).
    pub fn support(&self, dag: &Csr, pair: (u32, u32)) -> u64 {
        match Self::arc_slot(dag, pair) {
            Some(slot) => self.arc_counts[slot],
            None => self.latent.get(&pair).copied().unwrap_or(0),
        }
    }

    /// True if the pair is supported but absent from the DAG.
    pub fn is_latent(&self, pair: (u32, u32)) -> bool {
        self.latent.contains_key(&pair)
    }

    /// Records one inserted cross-component edge against `dag`, the DAG
    /// *after* this delta's repair: a pair that is no arc of it is latent.
    pub fn record_insert(&mut self, dag: &Csr, pair: (u32, u32)) {
        match Self::arc_slot(dag, pair) {
            Some(slot) => self.arc_counts[slot] += 1,
            None => *self.latent.entry(pair).or_insert(0) += 1,
        }
    }

    /// Records one deleted cross-component edge. A latent pair decremented
    /// to zero leaves the table; an arc decremented to zero is dead, and
    /// the caller unsplices it before the table is served.
    pub fn record_delete(&mut self, dag: &Csr, pair: (u32, u32)) {
        if let Some(slot) = Self::arc_slot(dag, pair) {
            debug_assert!(self.arc_counts[slot] > 0, "deleting an unsupported arc {pair:?}");
            self.arc_counts[slot] = self.arc_counts[slot].saturating_sub(1);
        } else if let Some(count) = self.latent.get_mut(&pair) {
            *count -= 1;
            if *count == 0 {
                self.latent.remove(&pair);
            }
        } else {
            debug_assert!(false, "deleting an unsupported cross pair {pair:?}");
        }
    }

    /// Every latent pair, for the arc-unsplice tier to splice into the DAG.
    pub fn latent_pairs(&self) -> Vec<(u32, u32)> {
        self.latent.keys().copied().collect()
    }

    /// The same table aligned with `new`, the out-CSR that replaces `old`
    /// after an arc splice/unsplice: surviving arcs keep their counts, a
    /// new arc takes its latent count (leaving the latent set) or starts at
    /// zero for the caller's `record_insert`s, removed arcs drop out.
    ///
    /// `changed` must hold every arc in which `old` and `new` differ (the
    /// spliced, dead and drained latent arcs, in any order): only their
    /// source rows are walked, every other row's counts are copied run-wise
    /// ([`splice_values`], which asserts that no other row changed length).
    pub fn realigned(&self, old: &Csr, new: &Csr, changed: &[(u32, u32)]) -> SupportLayer {
        let mut rows: Vec<u32> = changed.iter().map(|&(a, _)| a).collect();
        rows.sort_unstable();
        rows.dedup();
        let arc_counts =
            splice_values(old.offsets(), &self.arc_counts, &rows, new.offsets(), |i, emit| {
                let a = rows[i];
                let (kept, first) = (old.neighbors(a), old.offsets()[a as usize] as usize);
                let mut j = 0usize;
                for &b in new.neighbors(a) {
                    while j < kept.len() && kept[j] < b {
                        j += 1;
                    }
                    emit(match kept.get(j) {
                        Some(&kept_b) if kept_b == b => self.arc_counts[first + j],
                        _ => self.latent.get(&(a, b)).copied().unwrap_or(0),
                    });
                }
            });
        // A latent pair that became an arc handed it its count above.
        let mut latent = self.latent.clone();
        for pair in changed {
            if Self::arc_slot(new, *pair).is_some() {
                latent.remove(pair);
            }
        }
        SupportLayer { arc_counts, latent }
    }

    /// Partial invalidation after a region merge: contracts `dag` (the
    /// out-CSR this table is aligned with) through `map` (old → new ids
    /// over `k_new` components). Multiplicities of merging arcs sum, pairs
    /// whose endpoints merged drop out, and a latent pair that became a real
    /// arc hands it its count. Returns the contracted out-CSR and its table.
    pub fn contracted(&self, dag: &Csr, map: &[u32], k_new: usize) -> (Csr, SupportLayer) {
        let (out, arc_counts) = contract_csr(dag, Some(&self.arc_counts), map, k_new);
        let mut merged = SupportLayer::new(arc_counts);
        for (&(a, b), &count) in &self.latent {
            let pair = (map[a as usize], map[b as usize]);
            match Self::arc_slot(&out, pair) {
                Some(slot) => merged.arc_counts[slot] += count,
                None if pair.0 != pair.1 => *merged.latent.entry(pair).or_insert(0) += count,
                None => {} // the endpoints merged
            }
        }
        (out, merged)
    }

    /// Number of distinct supported cross-component pairs.
    pub fn supported_pairs(&self) -> usize {
        self.arc_counts.len() + self.latent.len()
    }

    /// Number of latent pairs.
    pub fn latent_arcs(&self) -> usize {
        self.latent.len()
    }

    /// Iterates `(pair, multiplicity)`: the arcs of `dag` in CSR order,
    /// then the latent pairs in ascending order.
    pub fn entries<'a>(&'a self, dag: &'a Csr) -> impl Iterator<Item = ((u32, u32), u64)> + 'a {
        let arcs = dag.edges().zip(self.arc_counts.iter().copied());
        arcs.chain(self.latent.iter().map(|(&p, &c)| (p, c)))
    }
}

// ---- Topological levels ---------------------------------------------------

/// Longest-path topological levels of the condensation DAG: every arc
/// strictly increases the level, so `level(cu) >= level(cv)` refutes
/// `cu ⇝ cv` in O(1).
#[derive(Clone)]
pub(crate) struct LevelLayer {
    pub levels: Vec<u32>,
}

impl LevelLayer {
    /// Full build: one sweep over the DAG in topological order (the same
    /// sweep `Condensation::topo_levels` uses).
    pub fn build(dag: &DiGraph, order: &[V]) -> LevelLayer {
        LevelLayer { levels: pscc_apps::topo_levels_of(dag, order) }
    }

    /// Partial invalidation after an arc splice: worklist relaxation from
    /// the new arcs re-establishes the strict-increase invariant, touching
    /// only components whose longest incoming path actually grew (on a
    /// typical splice: none, because the new arc already points downhill).
    ///
    /// Levels only ever grow, so the old values stay valid lower bounds
    /// and the relaxation converges to the new longest-path levels.
    pub fn splice(&mut self, dag: &DiGraph, new_arcs: &[(V, V)]) {
        let mut work: Vec<V> = Vec::new();
        for &(a, b) in new_arcs {
            if self.levels[b as usize] <= self.levels[a as usize] {
                self.levels[b as usize] = self.levels[a as usize] + 1;
                work.push(b);
            }
        }
        while let Some(c) = work.pop() {
            for &d in dag.out_neighbors(c) {
                if self.levels[d as usize] <= self.levels[c as usize] {
                    self.levels[d as usize] = self.levels[c as usize] + 1;
                    work.push(d);
                }
            }
        }
    }

    /// Partial invalidation after arcs were **removed** (and possibly
    /// others added in the same repair): exact per-component recompute
    /// from the in-neighbors of the *new* DAG, seeded at the target of
    /// every `changed` arc and propagated to successors while values move.
    ///
    /// Unlike [`LevelLayer::splice`] this handles levels that shrink: a
    /// removed arc can have been the unique longest incoming path of its
    /// target. Levels depend only on predecessors, so the worklist
    /// converges to the unique longest-path fixpoint of the new DAG (a
    /// component recomputed against a predecessor that later moves is
    /// simply re-pushed by that predecessor's change).
    pub fn unsplice(&mut self, dag: &DiGraph, changed: &[(V, V)]) {
        let mut work: Vec<V> = changed.iter().map(|&(_, b)| b).collect();
        while let Some(c) = work.pop() {
            let want =
                dag.in_neighbors(c).iter().map(|&p| self.levels[p as usize] + 1).max().unwrap_or(0);
            if self.levels[c as usize] != want {
                self.levels[c as usize] = want;
                work.extend_from_slice(dag.out_neighbors(c));
            }
        }
    }
}

// ---- Descendant summary ---------------------------------------------------

/// One GRAIL-style labeling: a post-order rank and the subtree-minimum
/// rank per component, giving the containment invariant
/// `u ⇝ v ⇒ low[u] ≤ low[v] ∧ rank[v] ≤ rank[u]`.
#[derive(Clone)]
pub(crate) struct IntervalLabeling {
    low: Vec<u32>,
    rank: Vec<u32>,
}

impl IntervalLabeling {
    /// True if `v`'s interval nests inside `u`'s (necessary for `u ⇝ v`).
    #[inline]
    fn may_reach(&self, u: usize, v: usize) -> bool {
        self.low[u] <= self.low[v] && self.rank[v] <= self.rank[u]
    }
}

/// Pruned landmark (2-hop) hub labels over the condensation DAG.
///
/// Components are processed as hubs in degree-descending order; hub `h`'s
/// forward traversal adds `h` to `label_in(v)` for every component it can
/// reach (backward symmetric into `label_out`), *pruning* any visit whose
/// pair is already answered by earlier hubs' labels — the classic pruned
/// landmark labeling, which yields exactly the same query results as the
/// unpruned 2-hop cover. A point query `cu ⇝ cv` is then one
/// merge-intersection of two sorted hub arrays: non-empty iff some hub
/// `h` has `cu ⇝ h` and `h ⇝ cv`. Entries are stored as hub *ranks*
/// (position in the processing order), so every array is sorted and the
/// highest-coverage hubs sit first — intersections hit early.
#[derive(Clone)]
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct LabelLayer {
    /// Hub rank of each component (inverse of the degree-descending
    /// processing order); needed when a splice introduces a new hub entry.
    /// Shared by every spliced descendant of one build.
    rank_of: Arc<[u32]>,
    /// CSR offsets into `out_hubs`: `label_out(c)` = hubs `h` with `c ⇝ h`.
    out_offsets: Vec<u32>,
    out_hubs: Vec<u32>,
    /// CSR offsets into `in_hubs`: `label_in(c)` = hubs `h` with `h ⇝ c`.
    in_offsets: Vec<u32>,
    in_hubs: Vec<u32>,
}

impl LabelLayer {
    /// Full pruned-landmark build. Returns `None` when the total label
    /// footprint would exceed `budget_bytes` — the caller falls back to
    /// the interval tier. The budget is checked after every hub, so an
    /// overflowing build stops at the first hub that proves it.
    ///
    /// **Hub order.** Descending `out + in` degree, ties by ascending id:
    /// one stable counting sort over the degrees ([`hubs_by_degree`]).
    ///
    /// **Storage.** The lists under construction are flat: each side keeps
    /// one `[len, e0, e1, first overflow block]` record per component, and
    /// longer lists continue in one pool of [`BLOCK`]-entry blocks that
    /// both sides share, linked by index and never freed one by one. One
    /// pass at the end turns each side into its CSR. Entries are appended
    /// in hub-rank order, so every list stays sorted ascending, and the
    /// build allocates a handful of arrays however many components it
    /// labels.
    ///
    /// **Pruning.** Hub `h`'s forward sweep reaches `t` and asks whether
    /// an earlier hub already answers `h ⇝ t`, i.e. whether `label_out(h)`
    /// and `label_in(t)` share a rank. Instead of merging the two lists,
    /// the sweep marks the ranks of `label_out(h)` once and prunes `t` iff
    /// some rank of `label_in(t)` is marked. That is the same test because
    /// `label_out(h)` cannot change during the forward sweep, which appends
    /// to `label_in` lists only. The backward sweep mirrors it: it marks
    /// `label_in(h)`, complete once the forward sweep is done and untouched
    /// by a sweep that appends to `label_out` lists only, and prunes `s`
    /// iff some rank of `label_out(s)` is marked. A sweep visits each
    /// component once and tests it before its own append, so every test
    /// sees the lists a merge-intersection would see, and the output is the
    /// pruned landmark labeling entry for entry.
    ///
    /// Sequential. `seen` and the marks are `u32` epochs, two per hub, so
    /// the DAG must have fewer than 2³¹ components.
    pub fn build(dag: &DiGraph, budget_bytes: usize) -> Option<LabelLayer> {
        let k = dag.n();
        // Fixed overhead: rank_of + both offset arrays, 4 bytes each.
        let fixed = (k + 2 * (k + 1)) * 4;
        if fixed > budget_bytes {
            return None;
        }
        let max_entries = (budget_bytes - fixed) / 4;
        assert!(k < 1 << 31, "{k} components: the label build's u32 epochs need fewer than 2^31");
        let order = hubs_by_degree(dag);
        let mut rank_of = vec![0u32; k];
        for (rank, &c) in order.iter().enumerate() {
            rank_of[c as usize] = rank as u32;
        }
        // What the layer keeps is allocated before the scratch, and the
        // scratch is freed before the hub arrays are, so the build leaves
        // no hole under its own output.
        let rank_of: Arc<[u32]> = rank_of.into();
        let mut out_offsets = Vec::with_capacity(k + 1);
        let mut in_offsets = Vec::with_capacity(k + 1);
        let mut build = LabelBuild::new(k);
        let (mut in_entries, mut out_entries) = (0usize, 0usize);
        for (rank, &h) in order.iter().enumerate() {
            let rank = rank as u32;
            in_entries += build.sweep::<true>(dag, h, rank, 2 * rank + 1);
            out_entries += build.sweep::<false>(dag, h, rank, 2 * rank + 2);
            if in_entries + out_entries > max_entries {
                return None;
            }
        }
        drop(order);
        let LabelBuild { out, inn, pool, seen, marks, work } = build;
        drop((seen, marks, work));
        let out_hubs = lists_csr(&out, &pool, out_entries, &mut out_offsets);
        drop(out);
        let in_hubs = lists_csr(&inn, &pool, in_entries, &mut in_offsets);
        Some(LabelLayer { rank_of, out_offsets, out_hubs, in_offsets, in_hubs })
    }

    /// The merge-intersection point query: true iff `label_out(cu)` and
    /// `label_in(cv)` share a hub. Also returns the number of merge steps
    /// taken — the "work done" figure EXPLAIN and the intersection-length
    /// histogram report.
    #[inline]
    pub fn intersects(&self, cu: usize, cv: usize) -> (bool, usize) {
        let a = &self.out_hubs[self.out_offsets[cu] as usize..self.out_offsets[cu + 1] as usize];
        let b = &self.in_hubs[self.in_offsets[cv] as usize..self.in_offsets[cv + 1] as usize];
        sorted_intersect(a, b)
    }

    /// FNV-1a-64 over the little-endian bytes of the five label arrays, in
    /// declaration order: the canonical-form pin of the tests.
    #[cfg(test)]
    pub fn checksum(&self) -> u64 {
        let mut sum = pscc_telemetry::frame::Checksum64::new();
        for part in
            [&self.rank_of[..], &self.out_offsets, &self.out_hubs, &self.in_offsets, &self.in_hubs]
        {
            part.iter().for_each(|x| sum.update(&x.to_le_bytes()));
        }
        sum.finish()
    }

    /// Total hub entries across both label sides.
    pub fn entries(&self) -> usize {
        self.out_hubs.len() + self.in_hubs.len()
    }

    /// Byte footprint (hub entries, CSR offsets, and the rank map).
    pub fn bytes(&self) -> usize {
        (self.entries() + self.out_offsets.len() + self.in_offsets.len() + self.rank_of.len()) * 4
    }

    /// Exact patch after an arc **splice** (insertions only). For each new
    /// arc `a → b`, every ancestor of `a` now reaches every descendant of
    /// `b`, and `b` itself witnesses all of those pairs: adding hub `b` to
    /// `label_out` across `anc(a)` and to `label_in` across `desc(b)`
    /// covers exactly the `anc × desc` region the arc opened. Every added
    /// entry is a true reachability fact in the post-splice DAG, and any
    /// newly reachable pair routes through some new arc, so soundness and
    /// completeness both hold; pre-existing entries remain true because
    /// insertion only grows reachability. `dag` must be the post-splice
    /// DAG.
    ///
    /// Returns the patched labeling; only the components that gain a hub
    /// are merged, every other label is copied run-wise ([`merge_rows`]).
    /// Both walks of every arc share one [`Walker`].
    pub fn spliced(&self, dag: &DiGraph, new_arcs: &[(V, V)]) -> LabelLayer {
        let mut add_out: Vec<(V, u32)> = Vec::new();
        let mut add_in: Vec<(V, u32)> = Vec::new();
        let mut walker = Walker::new(dag.n());
        for &(a, b) in new_arcs {
            let hub = self.rank_of[b as usize];
            walker.walk(dag.in_csr(), &[a], |u| {
                add_out.push((u, hub));
                Step::Expand
            });
            walker.walk(dag.out_csr(), &[b], |v| {
                add_in.push((v, hub));
                Step::Expand
            });
        }
        pscc_graph::dedup_edges(&mut add_out);
        pscc_graph::dedup_edges(&mut add_in);
        let (out_offsets, out_hubs) = merge_rows(&self.out_offsets, &self.out_hubs, &add_out, &[]);
        let (in_offsets, in_hubs) = merge_rows(&self.in_offsets, &self.in_hubs, &add_in, &[]);
        LabelLayer {
            rank_of: Arc::clone(&self.rank_of),
            out_offsets,
            out_hubs,
            in_offsets,
            in_hubs,
        }
    }
}

/// Merge-intersection of two sorted rank arrays: whether they share an
/// element, plus the number of merge steps taken. This is the label tier's
/// entire query path, so it stays branch-light and allocation-free.
#[inline]
fn sorted_intersect(a: &[u32], b: &[u32]) -> (bool, usize) {
    let (mut i, mut j, mut steps) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        steps += 1;
        let (x, y) = (a[i], b[j]);
        if x == y {
            return (true, steps);
        }
        if x < y {
            i += 1;
        } else {
            j += 1;
        }
    }
    (false, steps)
}

/// Components in descending `out + in` degree, ties by ascending id (the
/// order a stable sort by descending degree gives), by one counting sort.
fn hubs_by_degree(dag: &DiGraph) -> Vec<V> {
    let comps = 0..dag.n() as V;
    let degree = |c: V| dag.out_neighbors(c).len() + dag.in_neighbors(c).len();
    // start[d]: the first slot of degree d, higher degrees first.
    let mut start = vec![0usize; comps.clone().map(degree).max().map_or(0, |d| d + 1)];
    for c in comps.clone() {
        start[degree(c)] += 1;
    }
    let mut next = 0usize;
    for slot in start.iter_mut().rev() {
        (*slot, next) = (next, next + *slot);
    }
    let mut order = vec![0 as V; dag.n()];
    for c in comps {
        let d = degree(c);
        order[start[d]] = c;
        start[d] += 1;
    }
    order
}

/// Hub entries per overflow block of the label build's pool. A block's
/// last word links the next block of its list; 0 means none, so block 0
/// is a placeholder that is never handed out.
const BLOCK: usize = 7;

/// The working state of [`LabelLayer::build`]: both sides' flat lists,
/// their shared overflow pool, and the sweeps' epoch arrays.
struct LabelBuild {
    /// `[len, e0, e1, first overflow block]` of `label_out`, per component.
    out: Vec<[u32; 4]>,
    /// The same records for `label_in`.
    inn: Vec<[u32; 4]>,
    /// Overflow blocks of both sides: `BLOCK` entries, then the next link.
    pool: Vec<[u32; BLOCK + 1]>,
    /// The epoch of the sweep that last reached each component.
    seen: Vec<u32>,
    /// The epoch of the sweep that last marked each hub rank.
    marks: Vec<u32>,
    work: Vec<V>,
}

impl LabelBuild {
    fn new(k: usize) -> LabelBuild {
        LabelBuild {
            out: vec![[0; 4]; k],
            inn: vec![[0; 4]; k],
            pool: vec![[0; BLOCK + 1]],
            seen: vec![0; k],
            marks: vec![0; k],
            work: Vec::new(),
        }
    }

    /// Hub `h`'s sweep at `epoch`. Forward, it adds `rank` to `label_in`
    /// of every component `h` reaches that no rank of `label_out(h)`
    /// already covers; backward, to `label_out` of every component
    /// reaching `h` that no rank of `label_in(h)` covers. Returns the
    /// entries added.
    fn sweep<const FORWARD: bool>(&mut self, dag: &DiGraph, h: V, rank: u32, epoch: u32) -> usize {
        let (hub, lists) =
            if FORWARD { (&self.out, &mut self.inn) } else { (&self.inn, &mut self.out) };
        let marks = &mut self.marks;
        scan(&hub[h as usize], &self.pool, |r| {
            marks[r as usize] = epoch;
            false
        });
        let mut added = 0usize;
        self.seen[h as usize] = epoch;
        self.work.push(h);
        while let Some(t) = self.work.pop() {
            let own = t == h;
            let covered = |r: u32| !own && marks[r as usize] == epoch;
            let Some(tail) = scan(&lists[t as usize], &self.pool, covered) else {
                continue; // pair already covered by an earlier hub
            };
            push(&mut lists[t as usize], tail, &mut self.pool, rank);
            added += 1;
            let next = if FORWARD { dag.out_neighbors(t) } else { dag.in_neighbors(t) };
            for &d in next {
                if self.seen[d as usize] != epoch {
                    self.seen[d as usize] = epoch;
                    self.work.push(d);
                }
            }
        }
        added
    }
}

/// Calls `hit` on the ranks of one flat list in order and stops at the
/// first it returns true for: `None` then, else `Some` of the list's last
/// overflow block (0 when it has none), where [`push`] appends.
#[inline]
fn scan(
    rec: &[u32; 4],
    pool: &[[u32; BLOCK + 1]],
    mut hit: impl FnMut(u32) -> bool,
) -> Option<u32> {
    let len = rec[0] as usize;
    if rec[1..1 + len.min(2)].iter().any(|&r| hit(r)) {
        return None;
    }
    let (mut block, mut left) = (rec[3], len.saturating_sub(2));
    while left > 0 {
        let entries = &pool[block as usize];
        let here = left.min(BLOCK);
        if entries[..here].iter().any(|&r| hit(r)) {
            return None;
        }
        left -= here;
        if left > 0 {
            block = entries[BLOCK];
        }
    }
    Some(block)
}

/// Appends `rank` to the flat list `rec` whose last overflow block is
/// `tail` (as [`scan`] returned it), opening a pool block when the list's
/// inline slots or its last block are full.
fn push(rec: &mut [u32; 4], tail: u32, pool: &mut Vec<[u32; BLOCK + 1]>, rank: u32) {
    let len = rec[0] as usize;
    rec[0] += 1;
    if len < 2 {
        rec[1 + len] = rank;
        return;
    }
    let at = (len - 2) % BLOCK;
    if at > 0 {
        pool[tail as usize][at] = rank;
        return;
    }
    assert!(pool.len() < u32::MAX as usize, "the label pool outgrew u32 block indices");
    let fresh = pool.len() as u32;
    let mut block = [0; BLOCK + 1];
    block[0] = rank;
    pool.push(block);
    if len == 2 {
        rec[3] = fresh;
    } else {
        pool[tail as usize][BLOCK] = fresh;
    }
}

/// One side's flat lists as a CSR of `total` entries: appends the row
/// offsets to `offsets` and returns the hubs.
fn lists_csr(
    recs: &[[u32; 4]],
    pool: &[[u32; BLOCK + 1]],
    total: usize,
    offsets: &mut Vec<u32>,
) -> Vec<u32> {
    let mut hubs = Vec::with_capacity(total);
    offsets.push(0u32);
    for rec in recs {
        scan(rec, pool, |r| {
            hubs.push(r);
            false
        });
        offsets.push(hubs.len() as u32);
    }
    hubs
}

/// The descendant-summary layer: answers `cu ⇝ cv` for component pairs
/// that survive the same-component and level prunes.
#[derive(Clone)]
pub(crate) enum SummaryLayer {
    /// Flat row-major bitset: row `c` holds one bit per component.
    Bitset { words_per_row: usize, rows: Vec<u64> },
    /// Pruned landmark (2-hop) hub labels — see [`LabelLayer`].
    Labels(LabelLayer),
    Intervals {
        labelings: Vec<IntervalLabeling>,
        /// Strict descendants, sorted, for components under the cap.
        exceptions: Vec<Option<Box<[V]>>>,
    },
}

/// Build-time knobs of the summary layer (a slice of
/// [`crate::index::IndexConfig`], so the layer does not depend on the
/// index module).
pub(crate) struct SummaryConfig {
    pub bitset_budget_bytes: usize,
    /// Byte ceiling for the 2-hop label tier; `0` disables it.
    pub label_budget_bytes: usize,
    /// Minimum DAG size (components) before the label tier is considered —
    /// small DAGs keep the bitset/interval behavior unchanged.
    pub label_min_components: usize,
    pub labelings: usize,
    pub exception_cap: usize,
    pub seed: u64,
}

impl SummaryLayer {
    /// Full build over a condensation DAG. Returns the layer plus its
    /// byte footprint and exception-list count (for stats).
    ///
    /// Tier selection: bitsets whenever they fit the bitset budget (small
    /// DAGs are unchanged); otherwise 2-hop hub labels when the DAG has at
    /// least `label_min_components` components and the pruned labeling
    /// fits the label budget; interval labels as the final fallback.
    pub fn build(dag: &DiGraph, order: &[V], cfg: &SummaryConfig) -> (SummaryLayer, usize, usize) {
        let k = dag.n();
        let words_per_row = k.div_ceil(64);
        let bitset_bytes = k.saturating_mul(words_per_row).saturating_mul(8);
        if bitset_bytes <= cfg.bitset_budget_bytes {
            let rows = build_bitsets(dag, order, words_per_row);
            return (SummaryLayer::Bitset { words_per_row, rows }, bitset_bytes, 0);
        }
        if k >= cfg.label_min_components && cfg.label_budget_bytes > 0 {
            if let Some(labels) = LabelLayer::build(dag, cfg.label_budget_bytes) {
                let bytes = labels.bytes();
                return (SummaryLayer::Labels(labels), bytes, 0);
            }
        }
        let labelings = build_labelings(dag, order, cfg.labelings.max(1), cfg.seed);
        let exceptions = build_exceptions(dag, order, cfg.exception_cap);
        let layer = SummaryLayer::Intervals { labelings, exceptions };
        let bytes = layer.bytes(k);
        let exc = layer.exception_count();
        (layer, bytes, exc)
    }

    /// Which representation this layer holds.
    pub fn tier(&self) -> SummaryTier {
        match self {
            SummaryLayer::Bitset { .. } => SummaryTier::Bitset,
            SummaryLayer::Labels(_) => SummaryTier::Labels,
            SummaryLayer::Intervals { .. } => SummaryTier::Intervals,
        }
    }

    /// Byte footprint of the layer (`k` = number of components).
    pub fn bytes(&self, k: usize) -> usize {
        match self {
            SummaryLayer::Bitset { words_per_row, .. } => k * words_per_row * 8,
            SummaryLayer::Labels(labels) => labels.bytes(),
            SummaryLayer::Intervals { labelings, exceptions } => {
                labelings.len() * k * 8
                    + exceptions
                        .iter()
                        .map(|e| e.as_ref().map_or(0, |s| s.len() * 4 + 16))
                        .sum::<usize>()
            }
        }
    }

    /// The label tier's hub-entry count (0 for the other tiers).
    pub fn label_entries(&self) -> usize {
        match self {
            SummaryLayer::Labels(labels) => labels.entries(),
            _ => 0,
        }
    }

    /// Number of components carrying an exact exception list.
    pub fn exception_count(&self) -> usize {
        match self {
            SummaryLayer::Bitset { .. } | SummaryLayer::Labels(_) => 0,
            SummaryLayer::Intervals { exceptions, .. } => {
                exceptions.iter().filter(|e| e.is_some()).count()
            }
        }
    }

    /// Summary verdict for `cu ⇝ cv` (`cu != cv`, level prune already
    /// passed). `dag` and `levels` back the interval tier's pruned DFS.
    pub fn comp_reaches(&self, cu: usize, cv: usize, dag: &DiGraph, levels: &[u32]) -> bool {
        self.comp_reaches_explained(cu, cv, dag, levels).0
    }

    /// [`Self::comp_reaches`] with provenance: the verdict, which tier of
    /// the summary decided it, and how many components the pruned DFS
    /// visited (0 on every short-circuit path). Backs the EXPLAIN API;
    /// the boolean query path calls through it, so the two can never
    /// disagree.
    pub fn comp_reaches_explained(
        &self,
        cu: usize,
        cv: usize,
        dag: &DiGraph,
        levels: &[u32],
    ) -> (bool, QueryTier, usize) {
        match self {
            SummaryLayer::Bitset { words_per_row, rows } => {
                let hit = rows[cu * words_per_row + cv / 64] >> (cv % 64) & 1 == 1;
                (hit, QueryTier::BitsetRow, 0)
            }
            SummaryLayer::Labels(labels) => {
                let (hit, steps) = labels.intersects(cu, cv);
                (hit, QueryTier::LabelIntersect, steps)
            }
            SummaryLayer::Intervals { labelings, exceptions } => {
                if let Some(desc) = &exceptions[cu] {
                    let hit = desc.binary_search(&(cv as V)).is_ok();
                    return (hit, QueryTier::ExceptionList, 0);
                }
                if !labelings.iter().all(|l| l.may_reach(cu, cv)) {
                    return (false, QueryTier::IntervalRefute, 0);
                }
                let (hit, visited) = pruned_dfs(cu, cv, dag, levels, labelings, exceptions);
                (hit, QueryTier::PrunedDfs, visited)
            }
        }
    }

    /// Partial invalidation after an arc **splice** (insertions only),
    /// returning the repaired layer. `new_arcs` are the spliced arcs, `dag`
    /// the post-splice DAG and `levels` its levels.
    ///
    /// * Bitset tier: the rows of the components whose descendant set
    ///   grew, the ancestors in `dag` of the new arcs' sources, are
    ///   recomputed from their (final) child rows; other rows are untouched.
    /// * Label tier: exact hub-coverage extension over each new arc's
    ///   `anc × desc` region — see [`LabelLayer::spliced`] (the arcs
    ///   themselves drive the patch; no ancestor set, nothing cloned first).
    /// * Interval tier: the same ancestors' intervals are *widened* over
    ///   their children (`low` down, `rank` up), which keeps nesting a
    ///   necessary condition for reachability while never touching
    ///   unaffected labels; their exception lists are recomputed from
    ///   the child lists and dropped to `None` when they overflow the cap
    ///   (the pruned DFS then simply descends — exactness is preserved
    ///   because a present list is always recomputed, never stale).
    pub fn splice_arcs(
        &self,
        dag: &DiGraph,
        new_arcs: &[(V, V)],
        levels: &[u32],
        cfg: &SummaryConfig,
    ) -> SummaryLayer {
        if let SummaryLayer::Labels(labels) = self {
            return SummaryLayer::Labels(labels.spliced(dag, new_arcs));
        }
        self.recompute_affected(dag, new_arcs, levels, cfg.exception_cap)
    }

    /// Partial invalidation after arcs were **removed** (and possibly
    /// others added in the same repair): `changed` are the removed and
    /// added arcs, `dag` the new DAG and `levels` its levels. For bitsets
    /// the rows of the components whose descendant set changed are
    /// recomputed from final children, which is exact under removal too;
    /// for intervals the widen-only pass stays *sound* because shrinking
    /// reachability makes an over-approximation strictly looser, never
    /// wrong. The 2-hop label tier has no such slack — its entries are
    /// exact reachability certificates, and a removed arc can falsify
    /// them — so it invalidates and relabels from scratch against the new
    /// DAG (still far cheaper than a full index rebuild: SCCs, the DAG,
    /// and levels are all kept). If the relabel overflows the label
    /// budget, the layer downgrades to the interval tier. Returns the
    /// repaired layer; only the bitset/interval tiers clone this one.
    ///
    /// The components whose descendant set changed are the old DAG's
    /// ancestors of the removed arcs' sources plus the new DAG's ancestors
    /// of the added arcs' sources. That union is one walk over the new DAG
    /// from every changed arc's source. With `D` the old DAG and
    /// `D' = D − removed + added`:
    /// * a `D'`-path to a removed arc's source either uses no added arc,
    ///   so it is a `D`-path, or it passes an added arc's source;
    /// * a `D`-path `z ⇝ s` to a removed arc's source either is already a
    ///   `D'`-path, or its first removed arc `(a, b)` gives a removal-free
    ///   prefix `z ⇝ a`, a `D'`-path that ends at a removed arc's source.
    pub fn unsplice_arcs(
        &self,
        dag: &DiGraph,
        changed: &[(V, V)],
        levels: &[u32],
        cfg: &SummaryConfig,
    ) -> SummaryLayer {
        if matches!(self, SummaryLayer::Labels(_)) {
            if let Some(labels) = LabelLayer::build(dag, cfg.label_budget_bytes) {
                return SummaryLayer::Labels(labels);
            }
            // Relabel overflowed the budget (possible when the repair also
            // spliced latent arcs in): downgrade to the interval tier.
            // analyze: allow(panic): an index DAG is acyclic by construction
            let order = pscc_apps::topological_order(dag).expect("index DAG must stay acyclic");
            return SummaryLayer::Intervals {
                labelings: build_labelings(dag, &order, cfg.labelings.max(1), cfg.seed),
                exceptions: build_exceptions(dag, &order, cfg.exception_cap),
            };
        }
        self.recompute_affected(dag, changed, levels, cfg.exception_cap)
    }

    /// The shared bitset/interval repair pass (see [`Self::splice_arcs`]) on
    /// a copy: over the ancestors in `dag` of the `arcs`' sources,
    /// children-first (descending `levels`), so every component is repaired
    /// after all of its affected out-neighbors. The label tier never
    /// reaches it.
    fn recompute_affected(
        &self,
        dag: &DiGraph,
        arcs: &[(V, V)],
        levels: &[u32],
        exception_cap: usize,
    ) -> SummaryLayer {
        let sources: Vec<V> = arcs.iter().map(|&(s, _)| s).collect();
        let mut affected = Vec::new();
        Walker::new(dag.n()).walk(dag.in_csr(), &sources, |c| {
            affected.push(c);
            Step::Expand
        });
        affected.sort_unstable_by_key(|&c| std::cmp::Reverse(levels[c as usize]));
        let mut repaired = self.clone();
        match &mut repaired {
            SummaryLayer::Labels(_) => {
                debug_assert!(false, "label tier uses splice/relabel, not affected recompute");
            }
            SummaryLayer::Bitset { words_per_row, rows } => {
                let words = *words_per_row;
                for &c in &affected {
                    let c = c as usize;
                    rows[c * words..(c + 1) * words].fill(0);
                    for &d in dag.out_neighbors(c as V) {
                        let d = d as usize;
                        or_row(rows, words, c, d);
                        rows[c * words + d / 64] |= 1u64 << (d % 64);
                    }
                }
            }
            SummaryLayer::Intervals { labelings, exceptions } => {
                for &c in &affected {
                    let c = c as usize;
                    for l in labelings.iter_mut() {
                        for &d in dag.out_neighbors(c as V) {
                            let d = d as usize;
                            l.low[c] = l.low[c].min(l.low[d]);
                            l.rank[c] = l.rank[c].max(l.rank[d]);
                        }
                    }
                    if exceptions[c].is_some() {
                        exceptions[c] =
                            merge_child_exceptions(dag, exceptions, c as V, exception_cap);
                    }
                }
            }
        }
        repaired
    }
}

/// Interval- and level-pruned DFS over the condensation DAG; the slow
/// path of the interval tier for queries every prune lets through.
/// Returns the verdict and the number of components visited — the "work
/// done" figure EXPLAIN reports for fallback-path queries.
fn pruned_dfs(
    cu: usize,
    cv: usize,
    dag: &DiGraph,
    levels: &[u32],
    labelings: &[IntervalLabeling],
    exceptions: &[Option<Box<[V]>>],
) -> (bool, usize) {
    let mut visited = std::collections::HashSet::new();
    let mut stack = vec![cu];
    visited.insert(cu);
    while let Some(c) = stack.pop() {
        for &d in dag.out_neighbors(c as V) {
            let d = d as usize;
            if d == cv {
                return (true, visited.len());
            }
            if levels[d] >= levels[cv] || !visited.insert(d) {
                continue;
            }
            if let Some(desc) = &exceptions[d] {
                // Exact list: membership decides this whole subtree.
                if desc.binary_search(&(cv as V)).is_ok() {
                    return (true, visited.len());
                }
                continue;
            }
            if labelings.iter().all(|l| l.may_reach(d, cv)) {
                stack.push(d);
            }
        }
    }
    (false, visited.len())
}

/// Full descendant bitsets, one row per component, built in reverse
/// topological order so every child row is final before it is merged.
fn build_bitsets(dag: &DiGraph, order: &[V], words_per_row: usize) -> Vec<u64> {
    let k = dag.n();
    let mut rows = vec![0u64; k * words_per_row];
    for &c in order.iter().rev() {
        let c = c as usize;
        for &d in dag.out_neighbors(c as V) {
            let d = d as usize;
            or_row(&mut rows, words_per_row, c, d);
            rows[c * words_per_row + d / 64] |= 1u64 << (d % 64);
        }
    }
    rows
}

/// `rows[dst] |= rows[src]` for the flat row-major bitset.
fn or_row(rows: &mut [u64], words: usize, dst: usize, src: usize) {
    debug_assert_ne!(dst, src);
    let (d0, s0) = (dst * words, src * words);
    if d0 < s0 {
        let (a, b) = rows.split_at_mut(s0);
        let (d, s) = (&mut a[d0..d0 + words], &b[..words]);
        for (dw, sw) in d.iter_mut().zip(s) {
            *dw |= *sw;
        }
    } else {
        let (a, b) = rows.split_at_mut(d0);
        let (s, d) = (&a[s0..s0 + words], &mut b[..words]);
        for (dw, sw) in d.iter_mut().zip(s) {
            *dw |= *sw;
        }
    }
}

/// `count` randomized GRAIL labelings. Each is a DFS over the DAG from its
/// source components with a per-labeling pseudo-random neighbour order;
/// `rank` is the post-order number, `low` the minimum rank seen in the
/// DFS-reachable set, computed in reverse topological order.
fn build_labelings(dag: &DiGraph, order: &[V], count: usize, seed: u64) -> Vec<IntervalLabeling> {
    (0..count)
        .map(|li| {
            let mut rng = SplitMix64::new(seed ^ (li as u64).wrapping_mul(0x9e37_79b9));
            let rank = random_postorder(dag, &mut rng);
            // low[c] = min(rank[c], min over out-neighbours of low[d]),
            // processed in reverse topological order so neighbours are done.
            let mut low = rank.clone();
            for &c in order.iter().rev() {
                let c = c as usize;
                for &d in dag.out_neighbors(c as V) {
                    low[c] = low[c].min(low[d as usize]);
                }
            }
            IntervalLabeling { low, rank }
        })
        .collect()
}

/// Post-order ranks of one randomized iterative DFS covering every
/// component (roots and neighbour lists visited in shuffled order).
fn random_postorder(dag: &DiGraph, rng: &mut SplitMix64) -> Vec<u32> {
    let k = dag.n();
    let mut rank = vec![u32::MAX; k];
    let mut visited = vec![false; k];
    let mut next_rank = 0u32;
    // Shuffled root order (roots = all components; non-sources are skipped
    // as already-visited when their turn comes).
    let mut roots: Vec<V> = (0..k as V).collect();
    shuffle(&mut roots, rng);
    // Explicit DFS frames: (component, shuffled out-neighbours, cursor).
    let mut stack: Vec<(V, Vec<V>, usize)> = Vec::new();
    let frame = |c: V, rng: &mut SplitMix64| {
        let mut ns: Vec<V> = dag.out_neighbors(c).to_vec();
        shuffle(&mut ns, rng);
        (c, ns, 0usize)
    };
    for &r in &roots {
        if visited[r as usize] {
            continue;
        }
        visited[r as usize] = true;
        stack.push(frame(r, rng));
        while let Some(top) = stack.len().checked_sub(1) {
            let advance = {
                let (_, ns, i) = &mut stack[top];
                if *i < ns.len() {
                    let d = ns[*i];
                    *i += 1;
                    Some(d)
                } else {
                    None
                }
            };
            match advance {
                Some(d) if !visited[d as usize] => {
                    visited[d as usize] = true;
                    stack.push(frame(d, rng));
                }
                Some(_) => {}
                None => {
                    // analyze: allow(panic): the None arm is only reachable with a frame on the stack
                    let (c, _, _) = stack.pop().expect("non-empty stack");
                    rank[c as usize] = next_rank;
                    next_rank += 1;
                }
            }
        }
    }
    debug_assert!(rank.iter().all(|&r| r != u32::MAX));
    rank
}

/// Fisher–Yates shuffle driven by the workspace PRNG.
fn shuffle(v: &mut [V], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Exact strict-descendant lists for components with at most `cap`
/// descendants, built bottom-up in reverse topological order (a component
/// overflows if any child overflows or the merged set exceeds `cap`).
fn build_exceptions(dag: &DiGraph, order: &[V], cap: usize) -> Vec<Option<Box<[V]>>> {
    let k = dag.n();
    let mut out: Vec<Option<Box<[V]>>> = vec![None; k];
    if cap == 0 {
        return out;
    }
    for &c in order.iter().rev() {
        out[c as usize] = merge_child_exceptions(dag, &out, c, cap);
    }
    out
}

/// The exact strict-descendant list of `c` merged from its children's
/// (final) lists: `∪ {d} ∪ descendants(d)` over out-neighbors `d`; `None`
/// if any child overflowed or the union exceeds `cap`.
fn merge_child_exceptions(
    dag: &DiGraph,
    lists: &[Option<Box<[V]>>],
    c: V,
    cap: usize,
) -> Option<Box<[V]>> {
    if cap == 0 {
        return None;
    }
    let mut set: Vec<V> = Vec::new();
    for &d in dag.out_neighbors(c) {
        match &lists[d as usize] {
            Some(desc) if set.len() + desc.len() < 2 * cap + 2 => {
                set.push(d);
                set.extend_from_slice(desc);
            }
            _ => return None,
        }
    }
    set.sort_unstable();
    set.dedup();
    if set.len() <= cap {
        Some(set.into_boxed_slice())
    } else {
        None
    }
}

// ---- DAG walk -------------------------------------------------------------

/// What [`Walker::walk`]'s visit callback makes of a component it reached.
pub(crate) enum Step {
    /// Go on through the component's arcs.
    Expand,
    /// Keep the walk from passing through the component.
    Prune,
    /// End the walk here.
    Stop,
}

/// The repair tiers' one reachability walk over a DAG. Its `seen` array
/// is sized once for the whole repair and is all false between walks: each
/// walk clears what it marked through its own queue, so a walk costs what
/// it reaches, not the DAG's size, whether it ran out or was stopped.
pub(crate) struct Walker {
    seen: Vec<bool>,
    /// The running walk's components in the order reached.
    queue: Vec<V>,
}

impl Walker {
    /// A walker over DAGs of `k` components.
    pub fn new(k: usize) -> Walker {
        Walker { seen: vec![false; k], queue: Vec::new() }
    }

    /// Breadth-first from `sources` along `arcs` (a DAG's out-CSR walks to
    /// descendants, its in-CSR to ancestors). `visit` sees every component
    /// reached exactly once, sources first, and decides with a [`Step`].
    /// Returns false iff `visit` stopped the walk.
    pub fn walk(&mut self, arcs: &Csr, sources: &[V], mut visit: impl FnMut(V) -> Step) -> bool {
        let (mut head, mut next) = (0, sources);
        let ran_out = loop {
            for &d in next {
                if !std::mem::replace(&mut self.seen[d as usize], true) {
                    self.queue.push(d);
                }
            }
            let Some(&c) = self.queue.get(head) else { break true };
            head += 1;
            next = match visit(c) {
                Step::Expand => arcs.neighbors(c),
                Step::Prune => &[],
                Step::Stop => break false,
            };
        };
        self.queue.drain(..).for_each(|c| self.seen[c as usize] = false);
        ran_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_apps::topological_order;
    use pscc_graph::generators::random::gnm_digraph;

    fn dag_of(edges: &[(V, V)], n: usize) -> DiGraph {
        DiGraph::from_edges(n, edges)
    }

    #[test]
    fn level_splice_matches_full_rebuild() {
        // A diamond with a long arm: 0 -> 1 -> 2 -> 3, 0 -> 3.
        let dag = dag_of(&[(0, 1), (1, 2), (2, 3), (0, 3)], 5);
        let order = topological_order(&dag).unwrap();
        let mut levels = LevelLayer::build(&dag, &order);
        // Splice 4 -> 0: levels of 0..3 all shift by one.
        let spliced = dag.with_delta(&[(4, 0)], &[]);
        levels.splice(&spliced, &[(4, 0)]);
        let want = LevelLayer::build(&spliced, &topological_order(&spliced).unwrap());
        assert_eq!(levels.levels, want.levels);
    }

    #[test]
    fn level_splice_downhill_arc_is_free() {
        let dag = dag_of(&[(0, 1), (1, 2)], 4);
        let order = topological_order(&dag).unwrap();
        let mut levels = LevelLayer::build(&dag, &order);
        let before = levels.levels.clone();
        // 0 -> 2 already points strictly downhill: no level moves.
        let spliced = dag.with_delta(&[(0, 2)], &[]);
        levels.splice(&spliced, &[(0, 2)]);
        assert_eq!(levels.levels, before);
    }

    #[test]
    fn scc_remap_merges_sizes() {
        let layer = SccLayer { comp_of: vec![0, 0, 1, 2, 3], sizes: vec![2, 1, 1, 1] };
        // Merge components 1 and 2 into one, renumber compactly.
        let merged = layer.remapped(&[0, 1, 1, 2], 3);
        assert_eq!(merged.comp_of, vec![0, 0, 1, 1, 2]);
        assert_eq!(merged.sizes, vec![2, 2, 1]);
    }

    /// A table over `arcs` (with counts) plus latent pairs, built through
    /// the public moves: every latent pair is recorded as an insert.
    fn support_of(dag: &DiGraph, counts: &[u64], latent: &[((u32, u32), u64)]) -> SupportLayer {
        let mut support = SupportLayer::new(counts.to_vec());
        for &(pair, count) in latent {
            (0..count).for_each(|_| support.record_insert(dag.out_csr(), pair));
        }
        support
    }

    #[test]
    fn support_realign_moves_latent_counts_onto_new_arcs_and_drops_dead_ones() {
        let dag = dag_of(&[(0, 1), (1, 2), (2, 3)], 4);
        let mut support = support_of(&dag, &[2, 1, 4], &[((0, 2), 3), ((0, 3), 1)]);
        assert_eq!(support.support(dag.out_csr(), (0, 2)), 3);
        assert!(support.is_latent((0, 3)) && !support.is_latent((0, 1)));
        // Delete the only (1, 2) edge and the latent (0, 3): the arc is
        // dead (count 0, still aligned), the latent pair leaves the table.
        support.record_delete(dag.out_csr(), (1, 2));
        support.record_delete(dag.out_csr(), (0, 3));
        assert_eq!(support.latent_pairs(), vec![(0, 2)]);
        // Unsplice (1, 2) and splice in the surviving latent pair, plus a
        // brand-new arc (1, 3) whose edges the caller records afterwards.
        let next = dag.with_delta(&[(0, 2), (1, 3)], &[(1, 2)]);
        let aligned = support.realigned(dag.out_csr(), next.out_csr(), &[(0, 2), (1, 3), (1, 2)]);
        assert_eq!(aligned, realigned_reference(&support, dag.out_csr(), next.out_csr()));
        let rows: Vec<_> = aligned.entries(next.out_csr()).collect();
        assert_eq!(rows, vec![((0, 1), 2), ((0, 2), 3), ((1, 3), 0), ((2, 3), 4)]);
        assert_eq!(aligned.latent_arcs(), 0);
    }

    #[test]
    fn support_contraction_sums_merged_arcs_and_folds_latent_pairs() {
        let dag = dag_of(&[(0, 1), (0, 2), (1, 2), (3, 4)], 6);
        let latent = [((0, 4), 7), ((1, 4), 2), ((4, 5), 1), ((0, 3), 3)];
        let support = support_of(&dag, &[2, 5, 1, 4], &latent);
        // Merge {1, 2} and {4, 5}; 3 keeps to itself.
        let map = [0, 1, 1, 2, 3, 3];
        let (out, merged) = support.contracted(dag.out_csr(), &map, 4);
        assert_eq!(&out, dag_of(&[(0, 1), (2, 3)], 4).out_csr());
        // (0,1)+(0,2) sum; (1,2) and the latent (4,5) became intra-component;
        // latent (0,4) and (1,4) stay latent under their new ids; latent
        // (0,3) keeps its id and stays latent too.
        let rows: Vec<_> = merged.entries(&out).collect();
        assert_eq!(rows, vec![((0, 1), 7), ((2, 3), 4), ((0, 2), 3), ((0, 3), 7), ((1, 3), 2)]);
        // A latent pair the contraction turns into a real arc hands it its
        // count: merge 3 into 0's side so (0, 4) lands on arc (3, 4).
        let (out, merged) = support.contracted(dag.out_csr(), &[0, 1, 2, 0, 3, 4], 5);
        assert_eq!(merged.support(&out, (0, 3)), 4 + 7);
        assert!(!merged.is_latent((0, 3)) && merged.is_latent((1, 3)));
    }

    /// One forcing config per summary tier, for the three-way test loops.
    fn tier_configs() -> [(SummaryTier, SummaryConfig); 3] {
        let base = |bitset, label| SummaryConfig {
            bitset_budget_bytes: bitset,
            label_budget_bytes: label,
            label_min_components: 0,
            labelings: 2,
            exception_cap: 4,
            seed: 7,
        };
        [
            (SummaryTier::Bitset, base(usize::MAX, 0)),
            (SummaryTier::Labels, base(0, usize::MAX)),
            (SummaryTier::Intervals, base(0, 0)),
        ]
    }

    /// A 40-node random DAG: random edges oriented low -> high.
    fn random_dag(seed: u64) -> DiGraph {
        let g = gnm_digraph(40, 120, seed);
        let arcs: Vec<(V, V)> =
            g.out_csr().edges().map(|(a, b)| if a < b { (a, b) } else { (b, a) }).collect();
        let arcs: Vec<(V, V)> = arcs.into_iter().filter(|&(a, b)| a != b).collect();
        dag_of(&arcs, 40)
    }

    /// The pruned 2-hop labeling must answer every pair exactly like the
    /// full descendant bitsets.
    #[test]
    fn label_build_matches_bitset_oracle() {
        for seed in 0..8u64 {
            let dag = random_dag(seed);
            let order = topological_order(&dag).unwrap();
            let labels = LabelLayer::build(&dag, usize::MAX).unwrap();
            let rows = build_bitsets(&dag, &order, 1);
            for (cu, row) in rows.iter().enumerate() {
                for cv in 0..40usize {
                    if cu == cv {
                        continue;
                    }
                    let want = row >> cv & 1 == 1;
                    assert_eq!(labels.intersects(cu, cv).0, want, "seed {seed} pair ({cu}, {cv})");
                }
            }
        }
    }

    /// An impossible budget must refuse the label tier instead of building
    /// a truncated (unsound) labeling.
    #[test]
    fn label_build_respects_budget() {
        let dag = random_dag(1);
        assert!(LabelLayer::build(&dag, 64).is_none());
    }

    /// Splicing arcs into a random DAG and patching in place must answer
    /// exactly like a from-scratch summary build, in all three tiers.
    #[test]
    fn summary_splice_matches_full_rebuild_all_tiers() {
        for seed in 0..6u64 {
            let dag = random_dag(seed);
            let order = topological_order(&dag).unwrap();
            // New forward arcs (low -> high keeps it acyclic).
            let new_arcs = splice_arcs_for(&dag, seed);
            let spliced = dag.with_delta(&new_arcs, &[]);
            let sorder = topological_order(&spliced).unwrap();
            let mut levels = LevelLayer::build(&dag, &order);
            levels.splice(&spliced, &new_arcs);

            for (tier, cfg) in tier_configs() {
                let (summary, _, _) = SummaryLayer::build(&dag, &order, &cfg);
                assert_eq!(summary.tier(), tier, "seed {seed}: forcing config picked wrong tier");
                let summary = summary.splice_arcs(&spliced, &new_arcs, &levels.levels, &cfg);

                let (want, _, _) = SummaryLayer::build(&spliced, &sorder, &cfg);
                for cu in 0..40usize {
                    for cv in 0..40usize {
                        if cu == cv || levels.levels[cu] >= levels.levels[cv] {
                            continue;
                        }
                        assert_eq!(
                            summary.comp_reaches(cu, cv, &spliced, &levels.levels),
                            want.comp_reaches(cu, cv, &spliced, &levels.levels),
                            "seed {seed} tier {tier:?} pair ({cu}, {cv})"
                        );
                    }
                }
            }
        }
    }

    /// Removing arcs and running the unsplice repair must answer exactly
    /// like a from-scratch summary build, in all three tiers (the label
    /// tier relabels; the others recompute affected ancestors).
    #[test]
    fn summary_unsplice_matches_full_rebuild_all_tiers() {
        for seed in 0..6u64 {
            let dag = random_dag(seed);
            let order = topological_order(&dag).unwrap();
            let all: Vec<(V, V)> = dag.out_csr().edges().collect();
            if all.len() < 4 {
                continue;
            }
            let dead: Vec<(V, V)> = vec![all[seed as usize % all.len()], all[all.len() / 2]];
            let shrunk = dag.with_delta(&[], &dead);
            let sorder = topological_order(&shrunk).unwrap();
            let mut levels = LevelLayer::build(&dag, &order);
            levels.unsplice(&shrunk, &dead);

            for (tier, cfg) in tier_configs() {
                let (summary, _, _) = SummaryLayer::build(&dag, &order, &cfg);
                assert_eq!(summary.tier(), tier);
                let summary = summary.unsplice_arcs(&shrunk, &dead, &levels.levels, &cfg);

                let (want, _, _) = SummaryLayer::build(&shrunk, &sorder, &cfg);
                for cu in 0..40usize {
                    for cv in 0..40usize {
                        if cu == cv || levels.levels[cu] >= levels.levels[cv] {
                            continue;
                        }
                        assert_eq!(
                            summary.comp_reaches(cu, cv, &shrunk, &levels.levels),
                            want.comp_reaches(cu, cv, &shrunk, &levels.levels),
                            "seed {seed} tier {tier:?} pair ({cu}, {cv})"
                        );
                    }
                }
            }
        }
    }

    /// The full-walk label merge [`LabelLayer::spliced`] replaced, kept as
    /// its reference: rebuilds a label CSR with `adds` = `(component, hub rank)` entries
    /// merged in (duplicates of existing entries are dropped, so the arrays
    /// stay sorted and strictly deduplicated).
    fn merge_into_csr(offsets: &mut Vec<u32>, hubs: &mut Vec<u32>, mut adds: Vec<(V, u32)>) {
        if adds.is_empty() {
            return;
        }
        adds.sort_unstable();
        adds.dedup();
        let k = offsets.len() - 1;
        let mut new_offsets = Vec::with_capacity(offsets.len());
        let mut new_hubs = Vec::with_capacity(hubs.len() + adds.len());
        new_offsets.push(0u32);
        let mut a = 0usize;
        for c in 0..k {
            let old = &hubs[offsets[c] as usize..offsets[c + 1] as usize];
            let mut i = 0usize;
            while a < adds.len() && adds[a].0 as usize == c {
                let hub = adds[a].1;
                while i < old.len() && old[i] < hub {
                    new_hubs.push(old[i]);
                    i += 1;
                }
                if i < old.len() && old[i] == hub {
                    i += 1; // already present
                }
                new_hubs.push(hub);
                a += 1;
            }
            new_hubs.extend_from_slice(&old[i..]);
            new_offsets.push(new_hubs.len() as u32);
        }
        *offsets = new_offsets;
        *hubs = new_hubs;
    }

    /// The old splice body over [`merge_into_csr`], on a clone.
    fn spliced_reference(labels: &LabelLayer, dag: &DiGraph, new_arcs: &[(V, V)]) -> LabelLayer {
        let mut out = labels.clone();
        let mut add_out: Vec<(V, u32)> = Vec::new();
        let mut add_in: Vec<(V, u32)> = Vec::new();
        for &(a, b) in new_arcs {
            let hub = out.rank_of[b as usize];
            add_out.extend(reach_reference(dag.in_csr(), &[a]).into_iter().map(|u| (u, hub)));
            add_in.extend(reach_reference(dag.out_csr(), &[b]).into_iter().map(|v| (v, hub)));
        }
        merge_into_csr(&mut out.out_offsets, &mut out.out_hubs, add_out);
        merge_into_csr(&mut out.in_offsets, &mut out.in_hubs, add_in);
        out
    }

    /// Every component `sources` reach along `arcs` (sources included),
    /// sorted: the plain search [`Walker`] must agree with.
    fn reach_reference(arcs: &Csr, sources: &[V]) -> Vec<V> {
        let mut seen: std::collections::BTreeSet<V> = sources.iter().copied().collect();
        let mut stack: Vec<V> = seen.iter().copied().collect();
        while let Some(c) = stack.pop() {
            stack.extend(arcs.neighbors(c).iter().filter(|&&d| seen.insert(d)));
        }
        seen.into_iter().collect()
    }

    /// The full-walk realign [`SupportLayer::realigned`] replaced, kept as
    /// its reference: every row of `new` merged against `old`.
    fn realigned_reference(support: &SupportLayer, old: &Csr, new: &Csr) -> SupportLayer {
        let mut latent = support.latent.clone();
        let mut arc_counts = Vec::with_capacity(new.m());
        for a in 0..new.n() as u32 {
            let (kept, first) = (old.neighbors(a), old.offsets()[a as usize] as usize);
            let mut i = 0usize;
            for &b in new.neighbors(a) {
                while i < kept.len() && kept[i] < b {
                    i += 1;
                }
                arc_counts.push(match kept.get(i) {
                    Some(&kept_b) if kept_b == b => support.arc_counts[first + i],
                    _ => latent.remove(&(a, b)).unwrap_or(0),
                });
            }
        }
        SupportLayer { arc_counts, latent }
    }

    /// The splice deltas of `summary_splice_matches_full_rebuild_all_tiers`.
    fn splice_arcs_for(dag: &DiGraph, seed: u64) -> Vec<(V, V)> {
        [(seed as V, 30 + seed as V), (2, 39)]
            .into_iter()
            .filter(|&(a, b)| dag.out_neighbors(a).binary_search(&b).is_err())
            .collect()
    }

    /// On the random DAGs' splice and unsplice deltas, with latent pairs
    /// that do and do not become arcs, the run-copy realign equals the
    /// full walk: same counts, same latent map.
    #[test]
    fn support_realign_matches_the_full_walk_reference() {
        for seed in 0..6u64 {
            let dag = random_dag(seed);
            let counts: Vec<u64> = (1..=dag.m() as u64).collect();
            let new_arcs = splice_arcs_for(&dag, seed);
            // Latent: one of the arcs about to be spliced, and pairs that stay latent.
            let mut latent: Vec<((u32, u32), u64)> =
                new_arcs.iter().take(1).map(|&p| (p, 5)).collect();
            latent.extend(
                [((0, 38), 2), ((1, 37), 1)].into_iter().filter(|&(p, _)| !new_arcs.contains(&p)),
            );
            latent.retain(|&((a, b), _)| dag.out_neighbors(a).binary_search(&b).is_err());
            let support = support_of(&dag, &counts, &latent);

            let spliced = dag.with_delta(&new_arcs, &[]);
            let got = support.realigned(dag.out_csr(), spliced.out_csr(), &new_arcs);
            let want = realigned_reference(&support, dag.out_csr(), spliced.out_csr());
            assert_eq!(got, want, "seed {seed}: splice");

            let all: Vec<(V, V)> = dag.out_csr().edges().collect();
            let dead = vec![all[seed as usize % all.len()], all[all.len() / 2]];
            let drained = support.latent_pairs();
            let shrunk = dag.with_delta(&drained, &dead);
            let changed: Vec<(V, V)> = drained.iter().chain(&dead).copied().collect();
            let got = support.realigned(dag.out_csr(), shrunk.out_csr(), &changed);
            let want = realigned_reference(&support, dag.out_csr(), shrunk.out_csr());
            assert_eq!(got, want, "seed {seed}: unsplice");
            assert_eq!(got.latent_arcs(), 0, "seed {seed}: every latent pair drained");
        }
    }

    /// On the same splice deltas, the run-copy label patch yields the same
    /// hub CSRs as the full-walk merge.
    #[test]
    fn label_splice_matches_the_full_walk_reference() {
        for seed in 0..6u64 {
            let dag = random_dag(seed);
            let labels = LabelLayer::build(&dag, usize::MAX).unwrap();
            let new_arcs = splice_arcs_for(&dag, seed);
            let spliced = dag.with_delta(&new_arcs, &[]);
            let got = labels.spliced(&spliced, &new_arcs);
            assert_eq!(got, spliced_reference(&labels, &spliced, &new_arcs), "seed {seed}");
            // An empty splice is an exact copy.
            assert_eq!(labels.spliced(&dag, &[]), labels);
        }
    }

    /// The per-component-vector build [`LabelLayer::build`] replaced, kept
    /// verbatim as its byte-identity reference: one `Vec<u32>` per
    /// component and side, a sort with a degree key closure, and a
    /// merge-intersection per visit.
    fn build_reference(dag: &DiGraph, budget_bytes: usize) -> Option<LabelLayer> {
        let k = dag.n();
        // Fixed overhead: rank_of + both offset arrays, 4 bytes each.
        let fixed = (k + 2 * (k + 1)) * 4;
        if fixed > budget_bytes {
            return None;
        }
        let max_entries = (budget_bytes - fixed) / 4;
        // Hubs in degree-descending order (stable sort: ties by id).
        let mut order: Vec<V> = (0..k as V).collect();
        order.sort_by_key(|&c| {
            std::cmp::Reverse(dag.out_neighbors(c).len() + dag.in_neighbors(c).len())
        });
        let mut rank_of = vec![0u32; k];
        for (rank, &c) in order.iter().enumerate() {
            rank_of[c as usize] = rank as u32;
        }
        // Build-time labels: per-component hub-rank vectors, appended in
        // processing order, so they stay sorted ascending throughout and
        // the pruning intersections below work on sorted input.
        let mut label_out: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut label_in: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut entries = 0usize;
        let mut seen = vec![u64::MAX; k];
        let mut work: Vec<V> = Vec::new();
        for (rank, &h) in order.iter().enumerate() {
            let rank = rank as u32;
            let hc = h as usize;
            // Forward sweep: h into label_in of everything h still covers.
            let epoch = 2 * rank as u64;
            seen[hc] = epoch;
            work.push(h);
            while let Some(t) = work.pop() {
                let t = t as usize;
                if t != hc && sorted_intersect(&label_out[hc], &label_in[t]).0 {
                    continue; // pair already covered by an earlier hub
                }
                label_in[t].push(rank);
                entries += 1;
                for &d in dag.out_neighbors(t as V) {
                    if seen[d as usize] != epoch {
                        seen[d as usize] = epoch;
                        work.push(d);
                    }
                }
            }
            // Backward sweep: h into label_out of everything still reaching h.
            let epoch = epoch + 1;
            seen[hc] = epoch;
            work.push(h);
            while let Some(s) = work.pop() {
                let s = s as usize;
                if s != hc && sorted_intersect(&label_out[s], &label_in[hc]).0 {
                    continue;
                }
                label_out[s].push(rank);
                entries += 1;
                for &p in dag.in_neighbors(s as V) {
                    if seen[p as usize] != epoch {
                        seen[p as usize] = epoch;
                        work.push(p);
                    }
                }
            }
            if entries > max_entries {
                return None;
            }
        }
        let (out_offsets, out_hubs) = flatten_labels(&label_out);
        let (in_offsets, in_hubs) = flatten_labels(&label_in);
        Some(LabelLayer { rank_of: rank_of.into(), out_offsets, out_hubs, in_offsets, in_hubs })
    }

    /// Flattens per-component hub vectors into a CSR (offsets, values) pair.
    fn flatten_labels(labels: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
        let mut offsets = Vec::with_capacity(labels.len() + 1);
        let total = labels.iter().map(Vec::len).sum();
        let mut hubs = Vec::with_capacity(total);
        offsets.push(0u32);
        for l in labels {
            hubs.extend_from_slice(l);
            offsets.push(hubs.len() as u32);
        }
        (offsets, hubs)
    }

    /// A random DAG over `k` components with about `m` arcs, oriented along
    /// a random permutation so that ids, degrees and depth are unrelated.
    fn shuffled_dag(k: usize, m: usize, rng: &mut SplitMix64) -> DiGraph {
        if k < 2 {
            return dag_of(&[], k);
        }
        let mut pos: Vec<V> = (0..k as V).collect();
        shuffle(&mut pos, rng);
        let mut arcs: Vec<(V, V)> = (0..m)
            .filter_map(|_| {
                let a = rng.next_below(k as u64) as V;
                let b = rng.next_below(k as u64) as V;
                match pos[a as usize].cmp(&pos[b as usize]) {
                    std::cmp::Ordering::Less => Some((a, b)),
                    std::cmp::Ordering::Greater => Some((b, a)),
                    std::cmp::Ordering::Equal => None,
                }
            })
            .collect();
        pscc_graph::dedup_edges(&mut arcs);
        dag_of(&arcs, k)
    }

    /// The flat-pass build emits the reference's five arrays byte for
    /// byte on random DAGs from empty to 3 000 components, sparse to dense.
    #[test]
    fn label_build_equals_the_reference_on_random_dags() {
        let mut rng = SplitMix64::new(0x1abe1);
        for i in 0..200usize {
            let k = match i % 10 {
                0 => i / 10,
                1..=6 => 1 + rng.next_below(300) as usize,
                7 | 8 => 300 + rng.next_below(1_200) as usize,
                _ => 3_000,
            };
            let per = [0.5, 1.0, 2.0, 4.0, 8.0][i % 5];
            let dag = shuffled_dag(k, (k as f64 * per) as usize, &mut rng);
            let want = build_reference(&dag, usize::MAX);
            assert_eq!(LabelLayer::build(&dag, usize::MAX), want, "dag {i}: k={k} m={}", dag.m());
        }
    }

    /// Components without arcs label only themselves, on both sides.
    #[test]
    fn label_build_equals_the_reference_on_isolated_components() {
        let dag = dag_of(&[], 5_000);
        let got = LabelLayer::build(&dag, usize::MAX);
        assert_eq!(got, build_reference(&dag, usize::MAX));
        assert_eq!(got.map(|l| l.entries()), Some(2 * 5_000));
    }

    /// 25 hubs, each made heavy by 30 private children, all feed one sink
    /// and are fed by one source: the sink's `label_in` and the source's
    /// `label_out` collect an entry per hub, 26 with their own, so both
    /// lists run from the inline record through three pool blocks.
    #[test]
    fn label_build_equals_the_reference_across_overflow_blocks() {
        let (hubs, leaves) = (25 as V, 30 as V);
        let (sink, source) = (hubs * (leaves + 1), hubs * (leaves + 1) + 1);
        let mut arcs = Vec::new();
        for h in 0..hubs {
            let hub = h * (leaves + 1);
            arcs.extend((1..=leaves).map(|l| (hub, hub + l)));
            arcs.extend([(hub, sink), (source, hub)]);
        }
        let dag = dag_of(&arcs, source as usize + 1);
        let got = LabelLayer::build(&dag, usize::MAX).unwrap();
        assert_eq!(Some(&got), build_reference(&dag, usize::MAX).as_ref());
        let len = |offsets: &[u32], c: V| (offsets[c as usize + 1] - offsets[c as usize]) as usize;
        assert!(len(&got.in_offsets, sink) >= 20, "the sink's label_in stays short");
        assert!(len(&got.out_offsets, source) >= 20, "the source's label_out stays short");
    }

    /// Around the exact footprint, and on a coarse sweep below it, both
    /// builds refuse the same budgets and accept the same ones.
    #[test]
    fn label_build_refuses_the_same_budgets_as_the_reference() {
        let mut rng = SplitMix64::new(0xb0d9e7);
        for i in 0..12usize {
            let k = [0, 1, 40, 200, 700, 1_500][i % 6];
            let dag = shuffled_dag(k, k * (1 + i % 4), &mut rng);
            let exact = build_reference(&dag, usize::MAX).map_or(0, |l| l.bytes());
            assert!(LabelLayer::build(&dag, exact).is_some(), "dag {i}: the exact footprint fits");
            if exact > 0 {
                assert!(
                    LabelLayer::build(&dag, exact - 1).is_none(),
                    "dag {i}: one byte short fits"
                );
            }
            let near = exact.saturating_sub(64)..exact + 64;
            let coarse = (0..exact).step_by(exact / 50 + 1);
            for budget in near.chain(coarse) {
                let want = build_reference(&dag, budget);
                assert_eq!(LabelLayer::build(&dag, budget), want, "dag {i}: budget {budget}");
            }
        }
    }

    /// Walks on one walker, alternating directions, each reach exactly the
    /// reference set, also right after a walk its callback stopped: a stop
    /// still clears every mark the walk made.
    #[test]
    fn walker_stays_exact_across_consecutive_and_stopped_walks() {
        let mut rng = SplitMix64::new(0x3a1c);
        for i in 0..12u64 {
            let dag = if i % 2 == 0 { random_dag(i) } else { shuffled_dag(300, 900, &mut rng) };
            let mut walker = Walker::new(dag.n());
            for round in 0..4 {
                let sources: Vec<V> =
                    (0..1 + round % 3).map(|_| rng.next_below(dag.n() as u64) as V).collect();
                for (walk, arcs) in
                    [dag.out_csr(), dag.in_csr(), dag.out_csr()].into_iter().enumerate()
                {
                    let at = format!("dag {i} round {round} walk {walk}");
                    let want = reach_reference(arcs, &sources);
                    let mut got = Vec::new();
                    let ran_out = walker.walk(arcs, &sources, |c| {
                        got.push(c);
                        Step::Expand
                    });
                    got.sort_unstable();
                    assert!(ran_out && got == want, "{at}: {got:?} != {want:?}");
                    // The same walk again, stopped halfway.
                    let (mut visits, stop_after) = (0usize, want.len() / 2);
                    let ran_out = walker.walk(arcs, &sources, |_| {
                        visits += 1;
                        if visits > stop_after {
                            Step::Stop
                        } else {
                            Step::Expand
                        }
                    });
                    assert!(!ran_out && visits == stop_after + 1, "{at}: no stop");
                }
            }
        }
    }

    /// Ancestors of `sources` (sources included) in `dag`.
    fn ancestors_of(dag: &DiGraph, sources: &[V]) -> Vec<V> {
        let mut out = Vec::new();
        Walker::new(dag.n()).walk(dag.in_csr(), sources, |c| {
            out.push(c);
            Step::Expand
        });
        out
    }

    #[test]
    fn ancestors_of_includes_sources_and_stops_at_sinks() {
        let dag = dag_of(&[(0, 1), (1, 2), (3, 1)], 5);
        let mut anc = ancestors_of(&dag, &[1]);
        anc.sort_unstable();
        assert_eq!(anc, vec![0, 1, 3]);
        assert_eq!(ancestors_of(&dag, &[4]), vec![4]);
    }
}
