//! The tiered delta-repair planner: given a live [`Index`] and an
//! effective edge delta, decide the *cheapest provably correct* way to
//! bring the index up to date, from "do nothing" to "rebuild everything".
//!
//! ## The tiers
//!
//! [`plan_repair`] classifies every effective change against the current
//! index and returns one [`RepairPlan`]:
//!
//! 1. **Absorb** ([`RepairPlan::Absorb`]) — every insertion `u → v` stays
//!    inside one SCC (`comp(u) == comp(v)`) or joins an already-reachable
//!    component pair (`comp(u) ⇝ comp(v)`). *Correctness:* `u` already
//!    reaches `v` through the old graph, so by induction every path using
//!    new edges reroutes over old ones — the reachability relation is
//!    unchanged and no cycle can form (that would need `comp(v) ⇝
//!    comp(u)`, contradicting DAG acyclicity). The index and its warm
//!    memo survive untouched. Absorbable edges are checked independently:
//!    individual absorbability implies joint absorbability because every
//!    absorbable edge's endpoints were already connected in the *old*
//!    graph.
//! 2. **DAG-edge splice** ([`RepairPlan::DagSplice`]) — the
//!    non-absorbable insertions, contracted to component arcs, provably
//!    create no cycle among components (see the supergraph argument
//!    below). *Correctness:* the SCC partition of a graph changes iff a
//!    new cycle appears across components, so the SCC layer is exactly
//!    preserved; the condensation gains precisely the new arcs; levels
//!    and the descendant summary are repaired only where the splice
//!    invalidated them (descendant sets grow exactly for ancestors of the
//!    new arcs' sources — see the engine's `layers` module). On the
//!    2-hop label tier the splice is an exact label patch: each new arc
//!    `a → b` extends hub `b`'s coverage over `anc(a) × desc(b)`, which
//!    is precisely the region the arc opened.
//! 3. **Region recompute** ([`RepairPlan::RegionRecompute`]) — some new
//!    arcs close a cycle. Every component that merges lies on a DAG path
//!    `t ⇝ C ⇝ s` for cycle-forming arcs `(s, t)` (a cycle alternates
//!    new arcs with old DAG paths, and `C` sits on one of those paths),
//!    so the *region* `descendants(targets) ∩ ancestors(sources)` is
//!    closed over all merges. The SCC algorithm re-runs on just the
//!    induced region (+ the new arcs inside it), the old DAG is
//!    contracted through the resulting merge map, and levels/summary are
//!    reassembled over the patched condensation — the graph itself is
//!    never re-traversed.
//! 4. **Deletion: support decrement** (classified into the plan of the
//!    remaining insertions, down to [`RepairPlan::Absorb`]) — the index
//!    carries an **arc-support table** (see the engine's `layers`
//!    module): direct-edge multiplicities per cross-component pair.
//!    Deleting one of several parallel supports of a pair — or the last
//!    support of a *latent* pair (absorbed, never became a DAG arc) — is
//!    a metadata-only decrement. *Correctness:* a cross-component edge
//!    lies on no cycle (that would need `comp(v) ⇝ comp(u)`), so SCCs
//!    cannot change; any path through the deleted edge reroutes over a
//!    surviving parallel support (endpoints share the same component
//!    pair), or — for a latent pair — over the DAG paths that witnessed
//!    the pair when it was absorbed, which still exist because arcs have
//!    only been added since (every structural removal drains the latent
//!    set into the DAG).
//! 5. **Deletion: DAG-arc unsplice** ([`RepairPlan::ArcUnsplice`]) — the
//!    delta takes some DAG arcs' support to zero and splits nothing:
//!    the dead arcs are removed (latent pairs spliced in first), levels
//!    are worklist-relaxed exactly, and summaries are narrowed for the
//!    affected ancestors only. Label entries are exact reachability
//!    certificates that a removed arc can falsify, and a partial
//!    re-prune is order-dependent, so the label tier prices deletion as
//!    rebuild-this-layer: the labeling is reconstructed from scratch
//!    over the post-unsplice DAG (SCCs, DAG, and levels are still
//!    repaired incrementally — only the summary layer pays).
//! 6. **Deletion: SCC split check** ([`RepairPlan::SccSplit`]) — an
//!    intra-SCC deletion can split its component: SCC re-runs on **only
//!    that component's members** in the post-deletion graph and the
//!    sub-components are spliced back into the DAG (a component that
//!    holds together leaves the index untouched). The graph is never
//!    re-traversed beyond the affected members' adjacency.
//! 7. **Cost-bounded fallback** ([`RepairPlan::FullRebuild`]) — deltas
//!    mixing structural deletions with insertions, deltas with more than
//!    128 distinct new (or dead) arcs, merge regions of more than
//!    `max(k / 4, 32)` of the `k` components, and split checks over more
//!    than `max(n / 4, 32)` of the `n` vertices all fall back to the
//!    catalog's off-lock full rebuild: past that size, a localized repair
//!    would not beat rebuilding. These bounds are constants of this
//!    module, not settings.
//!
//! ## The supergraph cycle test
//!
//! Whether jointly adding arc set `A` to the condensation DAG `D`
//! creates a cycle is decided exactly on a *supergraph* over the distinct
//! endpoint components of `A`: its edges are `A` itself plus `x → y`
//! whenever `x ⇝ y` in `D` (an O(1)–O(log) index query per ordered
//! pair). Any cycle in `D ∪ A` decomposes into new arcs joined by old
//! `D`-paths, each of which is a supergraph edge — and conversely every
//! supergraph cycle expands into a real cycle (a cycle of only `⇝`-edges
//! is impossible because `D` is acyclic). So `D ∪ A` is cyclic iff the
//! supergraph is, and an arc of `A` participates in a cycle iff its
//! endpoints share a supergraph SCC. A plan reaches this test only with
//! `|A| ≤ 128`, so the supergraph has at most 256 nodes and takes at most
//! 256² index queries: running the workspace SCC algorithm on it is
//! trivially cheap.

use crate::explain::PlanExplain;
use crate::index::Index;
use crate::layers::{Step, Walker};
use pscc_core::{parallel_scc, SccConfig};
use pscc_graph::{DiGraph, V};

/// Deltas contracting to more distinct new (or dead) condensation arcs
/// than this are priced straight to a full rebuild; it bounds the
/// supergraph analysis to `O(MAX_PLANNED_ARCS²)` index queries.
const MAX_PLANNED_ARCS: usize = 128;

/// The largest repair the planner runs in place, out of `size`: a merge
/// region in components (`size` = the index's components) or a split
/// check's members in vertices (`size` = its vertices). A quarter of the
/// index, and never fewer than 32, so small graphs still repair locally.
fn max_region(size: usize) -> usize {
    (size / 4).max(32)
}

/// Why the planner fell back to a full rebuild.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildReason {
    /// The delta mixes a *structural* deletion (a dead DAG arc or a
    /// possible SCC split) with insertions — the deletion tiers are
    /// proven for pure-deletion deltas only.
    Deletion,
    /// More than 128 distinct new (or dead) condensation arcs.
    PlannerOverflow,
    /// The cycle-merge region holds more than `max(k / 4, 32)` of the
    /// index's `k` components.
    RegionOverBudget,
    /// The components an intra-SCC deletion may split hold more than
    /// `max(n / 4, 32)` of the graph's `n` vertices — re-running SCC on
    /// them would not beat rebuilding.
    SplitOverBudget,
}

/// The repair tier [`plan_repair`] chose, with everything the executor
/// needs. Arc endpoints and region members are **old component ids** of
/// the index the plan was made against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairPlan {
    /// Every effective change provably preserves the reachability
    /// relation: keep the index and its warm memo.
    Absorb,
    /// Splice these (deduplicated) arcs into the condensation DAG; no
    /// components merge (`Index::splice_dag_arcs`).
    DagSplice {
        /// New condensation arcs `(comp(u), comp(v))`.
        arcs: Vec<(u32, u32)>,
    },
    /// Re-run SCC on the induced `region` of the condensation DAG and
    /// contract (`Index::recompute_region`).
    RegionRecompute {
        /// Components possibly involved in a merge (sorted), closed over
        /// every cycle the delta can create.
        region: Vec<u32>,
        /// All new condensation arcs (cycle-forming and splice alike).
        arcs: Vec<(u32, u32)>,
    },
    /// Remove these DAG arcs — the delta deleted their last direct-edge
    /// support — splicing latent pairs in first
    /// (`Index::unsplice_dag_arcs`). Planned only for pure-deletion
    /// deltas that provably split no component.
    ArcUnsplice {
        /// Dead condensation arcs `(comp(u), comp(v))`, deduplicated.
        arcs: Vec<(u32, u32)>,
    },
    /// Re-run SCC on the members of these components — an intra-SCC
    /// deletion may have split them — and splice the sub-components back
    /// into the DAG (`Index::split_sccs`). Planned only for
    /// pure-deletion deltas.
    SccSplit {
        /// Components with an intra-SCC deletion (sorted, deduplicated).
        comps: Vec<u32>,
        /// DAG arcs the same delta killed (support reached zero).
        dead_arcs: Vec<(u32, u32)>,
    },
    /// A localized repair would not win: rebuild off-lock.
    FullRebuild {
        /// What priced the delta out of the localized tiers.
        reason: RebuildReason,
    },
}

impl RepairPlan {
    /// The tier's stable telemetry name, as recorded in the `tier`
    /// attribute of the planner's `plan` span and rendered in trace
    /// dumps.
    pub fn tier_name(&self) -> &'static str {
        match self {
            RepairPlan::Absorb => "absorb",
            RepairPlan::DagSplice { .. } => "dag_splice",
            RepairPlan::RegionRecompute { .. } => "region_recompute",
            RepairPlan::ArcUnsplice { .. } => "arc_unsplice",
            RepairPlan::SccSplit { .. } => "scc_split",
            RepairPlan::FullRebuild { .. } => "full_rebuild",
        }
    }
}

/// Chooses the cheapest provably correct repair for applying the
/// effective insertions `ins` and deletions `del` to the graph behind
/// `index` (see the [module docs](self) for the tier definitions and
/// correctness arguments).
///
/// `ins`/`del` must already be reduced against the graph: insertions of
/// absent edges and deletions of present ones only (the catalog's
/// effective-delta computation guarantees this).
pub fn plan_repair(index: &Index, ins: &[(V, V)], del: &[(V, V)]) -> RepairPlan {
    plan_repair_explained(index, ins, del).0
}

/// [`plan_repair`] with provenance: the plan plus a [`PlanExplain`]
/// recording the cost-model inputs the planner measured and every
/// cheaper tier it priced out on the way to its decision. The boolean
/// entry point calls through here, so plan and explain can never
/// diverge.
pub fn plan_repair_explained(
    index: &Index,
    ins: &[(V, V)],
    del: &[(V, V)],
) -> (RepairPlan, PlanExplain) {
    let mut span = pscc_telemetry::span("plan");
    let mut ex = PlanExplain {
        insertions: ins.len(),
        deletions: del.len(),
        deletion_class: "none",
        max_region: max_region(index.num_components()),
        ..PlanExplain::default()
    };
    let plan = plan_repair_inner(index, ins, del, &mut ex);
    ex.chosen = plan.tier_name();
    span.set_attr("tier", plan.tier_name());
    (plan, ex)
}

fn plan_repair_inner(
    index: &Index,
    ins: &[(V, V)],
    del: &[(V, V)],
    ex: &mut PlanExplain,
) -> RepairPlan {
    if !del.is_empty() {
        match classify_deletions(index, del) {
            // Every deletion is a metadata-only support decrement: the
            // reachability relation is untouched, so the remaining
            // insertions are planned against the unchanged index exactly
            // as if the delta held no deletions.
            DeletionClass::Metadata => {
                ex.deletion_class = "metadata";
            }
            DeletionClass::Structural { dead_arcs, splits } => {
                ex.deletion_class = "structural";
                ex.dead_arcs = dead_arcs.len();
                ex.split_comps = splits.len();
                ex.reject("absorb", "deletions are structural, not metadata-only");
                if !ins.is_empty() {
                    // The deletion tiers are proven for pure-deletion
                    // deltas; mixing in insertions prices out.
                    ex.reject("arc_unsplice", "structural deletions mixed with insertions");
                    ex.reject("scc_split", "structural deletions mixed with insertions");
                    return RepairPlan::FullRebuild { reason: RebuildReason::Deletion };
                }
                if dead_arcs.len() > MAX_PLANNED_ARCS {
                    ex.reject("arc_unsplice", "more dead arcs than max_planned_arcs");
                    return RepairPlan::FullRebuild { reason: RebuildReason::PlannerOverflow };
                }
                if !splits.is_empty() {
                    let vertices: usize = splits.iter().map(|&c| index.component_size(c)).sum();
                    ex.split_vertices = vertices;
                    ex.max_region = max_region(index.n());
                    if vertices > ex.max_region {
                        ex.reject(
                            "scc_split",
                            "split components hold more vertices than the region budget",
                        );
                        return RepairPlan::FullRebuild { reason: RebuildReason::SplitOverBudget };
                    }
                    ex.reject("arc_unsplice", "an intra-component deletion may split its SCC");
                    return RepairPlan::SccSplit { comps: splits, dead_arcs };
                }
                return RepairPlan::ArcUnsplice { arcs: dead_arcs };
            }
        }
    }
    // Contract the non-absorbable insertions to new condensation arcs.
    let mut arcs: Vec<(u32, u32)> = ins
        .iter()
        .map(|&(u, v)| (index.comp(u), index.comp(v)))
        .filter(|&(cu, cv)| cu != cv && !index.comp_reaches(cu as usize, cv as usize))
        .collect();
    pscc_graph::dedup_edges(&mut arcs);
    ex.new_arcs = arcs.len();
    if arcs.is_empty() {
        return RepairPlan::Absorb;
    }
    ex.reject("absorb", "insertions contract to new condensation arcs");
    if arcs.len() > MAX_PLANNED_ARCS {
        ex.reject("dag_splice", "more new arcs than max_planned_arcs");
        return RepairPlan::FullRebuild { reason: RebuildReason::PlannerOverflow };
    }

    // Supergraph cycle test over the distinct endpoint components.
    let mut nodes: Vec<u32> = arcs.iter().flat_map(|&(s, t)| [s, t]).collect();
    nodes.sort_unstable();
    nodes.dedup();
    // analyze: allow(panic): nodes was built from exactly these arc endpoints
    let local = |c: u32| nodes.binary_search(&c).expect("endpoint is a node") as V;
    let mut sedges: Vec<(V, V)> = arcs.iter().map(|&(s, t)| (local(s), local(t))).collect();
    for (i, &x) in nodes.iter().enumerate() {
        for (j, &y) in nodes.iter().enumerate() {
            if i != j && index.comp_reaches(x as usize, y as usize) {
                sedges.push((i as V, j as V));
            }
        }
    }
    let supergraph = DiGraph::from_edges(nodes.len(), &sedges);
    let labels = parallel_scc(&supergraph, &SccConfig::default()).labels;
    let cyclic: Vec<(u32, u32)> = arcs
        .iter()
        .copied()
        .filter(|&(s, t)| labels[local(s) as usize] == labels[local(t) as usize])
        .collect();
    ex.cyclic_arcs = cyclic.len();
    if cyclic.is_empty() {
        return RepairPlan::DagSplice { arcs };
    }
    ex.reject("dag_splice", "some new arcs close a cycle among components");

    // Merge region: descendants(cycle targets) ∩ ancestors(cycle
    // sources), estimated with early exit once it cannot fit the budget.
    let cap = max_region(index.num_components());
    let targets: Vec<V> = cyclic.iter().map(|&(_, t)| t).collect();
    let sources: Vec<V> = cyclic.iter().map(|&(s, _)| s).collect();
    let Some(region) = bounded_region(index.dag(), &targets, &sources, cap) else {
        ex.reject("region_recompute", "merge region exceeds the budget");
        return RepairPlan::FullRebuild { reason: RebuildReason::RegionOverBudget };
    };
    ex.region_size = region.len();
    RepairPlan::RegionRecompute { region, arcs }
}

/// How a delta's effective deletions bear on the index structure.
enum DeletionClass {
    /// Every deletion is a support decrement (parallel support survives,
    /// or the pair is latent / a self loop): the reachability relation is
    /// provably unchanged.
    Metadata,
    /// Some deletions change the index: DAG arcs whose support hit zero
    /// and/or components an intra-SCC deletion may split.
    Structural { dead_arcs: Vec<(u32, u32)>, splits: Vec<u32> },
}

/// Classifies the effective deletions `del` against `index`'s arc-support
/// table (see the [module docs](self), tiers 4–6).
fn classify_deletions(index: &Index, del: &[(V, V)]) -> DeletionClass {
    let support = index.support_table();
    let mut splits: Vec<u32> = Vec::new();
    let mut pending: std::collections::HashMap<(u32, u32), u64> = std::collections::HashMap::new();
    for &(u, v) in del {
        if u == v {
            continue; // a self loop never changes reachability or SCCs
        }
        let (a, b) = (index.comp(u), index.comp(v));
        if a == b {
            // Intra-SCC deletion: only re-running SCC on the component's
            // members can tell whether it split.
            splits.push(a);
        } else {
            *pending.entry((a, b)).or_insert(0) += 1;
        }
    }
    splits.sort_unstable();
    splits.dedup();
    let mut dead_arcs: Vec<(u32, u32)> = Vec::new();
    for (&pair, &deleted) in &pending {
        let have = support.support(index.dag().out_csr(), pair);
        debug_assert!(have >= deleted, "deleting more edges than pair {pair:?} supports");
        if have <= deleted && !support.is_latent(pair) {
            // The pair's last direct edge is going away and it is a real
            // DAG arc. (A dying *latent* pair is metadata-only: the DAG
            // witnesses its endpoints' reachability without it.)
            dead_arcs.push(pair);
        }
    }
    dead_arcs.sort_unstable();
    if splits.is_empty() && dead_arcs.is_empty() {
        DeletionClass::Metadata
    } else {
        DeletionClass::Structural { dead_arcs, splits }
    }
}

/// `descendants(targets) ∩ ancestors(sources)` over `dag`, or `None` as
/// soon as the result provably exceeds `cap`. The forward cone is
/// collected first (bailing past `cap·8` components — the cone bounds the
/// intersection, and a loose factor keeps a big cone from spuriously
/// failing a small region; the region holds every target, so more than
/// `cap·8` targets fail it either way); the backward sweep then walks
/// only inside it, so its cost is bounded by the cone, not the whole DAG.
fn bounded_region(dag: &DiGraph, targets: &[V], sources: &[V], cap: usize) -> Option<Vec<u32>> {
    let mut walker = Walker::new(dag.n());
    let mut in_cone = vec![false; dag.n()];
    let (cone_cap, mut cone) = (cap.saturating_mul(8).max(cap), 0usize);
    let cone_fits = walker.walk(dag.out_csr(), targets, |c| {
        in_cone[c as usize] = true;
        cone += 1;
        if cone > cone_cap {
            Step::Stop
        } else {
            Step::Expand
        }
    });
    if !cone_fits {
        return None;
    }
    debug_assert!(
        sources.iter().all(|&s| in_cone[s as usize]),
        "a cycle source is reachable from its target"
    );
    // Backward from the sources, never leaving the cone.
    let mut region: Vec<u32> = Vec::new();
    let region_fits = walker.walk(dag.in_csr(), sources, |c| {
        if !in_cone[c as usize] {
            return Step::Prune;
        }
        region.push(c);
        if region.len() > cap {
            Step::Stop
        } else {
            Step::Expand
        }
    });
    region.sort_unstable();
    region_fits.then_some(region)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(n: usize, edges: &[(V, V)]) -> Index {
        Index::build(&DiGraph::from_edges(n, edges))
    }

    #[test]
    fn absorbable_insertions_plan_absorb() {
        // {0,1} is an SCC; 1 -> 2 -> 3 is a tail.
        let idx = index_of(4, &[(0, 1), (1, 0), (1, 2), (2, 3)]);
        let plan = plan_repair(&idx, &[(1, 0), (0, 3), (1, 3)], &[]);
        assert_eq!(plan, RepairPlan::Absorb);
    }

    #[test]
    fn structural_deletion_mixed_with_insertions_plans_full_rebuild() {
        // Deleting (1, 2) kills its arc (support 1); the insertion riding
        // along prices the delta out of the pure-deletion tiers.
        let idx = index_of(3, &[(0, 1), (1, 2)]);
        let plan = plan_repair(&idx, &[(0, 2)], &[(1, 2)]);
        assert_eq!(plan, RepairPlan::FullRebuild { reason: RebuildReason::Deletion });
    }

    #[test]
    fn parallel_support_deletion_plans_absorb() {
        // Two 2-cycles joined by two parallel supports of one arc.
        let idx = index_of(4, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (0, 3)]);
        let plan = plan_repair(&idx, &[], &[(1, 2)]);
        assert_eq!(plan, RepairPlan::Absorb, "a parallel support survives");
        // Deleting both supports at once kills the arc.
        let plan = plan_repair(&idx, &[], &[(1, 2), (0, 3)]);
        let arcs = vec![(idx.comp(1), idx.comp(2))];
        assert_eq!(plan, RepairPlan::ArcUnsplice { arcs });
    }

    #[test]
    fn self_loop_deletion_plans_absorb() {
        let idx = index_of(3, &[(0, 0), (0, 1), (1, 2)]);
        let plan = plan_repair(&idx, &[], &[(0, 0)]);
        assert_eq!(plan, RepairPlan::Absorb);
    }

    #[test]
    fn last_support_deletion_plans_unsplice() {
        let idx = index_of(3, &[(0, 1), (1, 2)]);
        let plan = plan_repair(&idx, &[], &[(1, 2)]);
        assert_eq!(plan, RepairPlan::ArcUnsplice { arcs: vec![(idx.comp(1), idx.comp(2))] });
    }

    #[test]
    fn latent_pair_deletion_plans_absorb() {
        // 0 -> 1 -> 2, then absorb a shortcut 0 -> 2 (never becomes an
        // arc). Deleting the shortcut is metadata-only: the DAG path
        // through 1 still witnesses 0 ⇝ 2.
        let idx = index_of(3, &[(0, 1), (1, 2)]);
        idx.note_absorbed(&[(0, 2)], &[]);
        let plan = plan_repair(&idx, &[], &[(0, 2)]);
        assert_eq!(plan, RepairPlan::Absorb);
    }

    #[test]
    fn intra_scc_deletion_plans_split_check() {
        // A 3-cycle feeding a tail; deleting a cycle edge needs the
        // split check over the cycle's component only.
        let idx = index_of(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let plan = plan_repair(&idx, &[], &[(1, 2)]);
        assert_eq!(plan, RepairPlan::SccSplit { comps: vec![idx.comp(1)], dead_arcs: vec![] });
    }

    #[test]
    fn split_and_dead_arc_combine_into_one_split_plan() {
        // Deleting a cycle edge *and* the tail arc in one delta.
        let idx = index_of(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let plan = plan_repair(&idx, &[], &[(1, 2), (2, 3)]);
        assert_eq!(
            plan,
            RepairPlan::SccSplit {
                comps: vec![idx.comp(1)],
                dead_arcs: vec![(idx.comp(2), idx.comp(3))],
            }
        );
    }

    #[test]
    fn oversized_split_component_falls_back() {
        use pscc_graph::generators::simple::cycle_digraph;
        // 200 vertices in one component: past max(200 / 4, 32) = 50.
        let idx = Index::build(&cycle_digraph(200));
        let plan = plan_repair(&idx, &[], &[(5, 6)]);
        assert_eq!(plan, RepairPlan::FullRebuild { reason: RebuildReason::SplitOverBudget });
        // A 32-cycle sits exactly at the floor: the split check runs.
        let idx = Index::build(&cycle_digraph(32));
        let plan = plan_repair(&idx, &[], &[(5, 6)]);
        assert_eq!(plan, RepairPlan::SccSplit { comps: vec![idx.comp(5)], dead_arcs: vec![] });
    }

    #[test]
    fn index_from_a_bare_condensation_plans_deletions_like_any_other() {
        // The condensation carries the arc multiplicities, so the index
        // never has to see the graph: (0, 2) has two supports, (2, 3) one.
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 0), (0, 2), (1, 2), (2, 3)]);
        let scc = parallel_scc(&g, &SccConfig::default());
        let cond = pscc_apps::condense(&g, &scc.labels);
        let idx = Index::from_condensation(cond, &crate::IndexConfig::default());
        assert_eq!(idx.stats().supported_pairs, 2);
        let plan = plan_repair(&idx, &[], &[(0, 2)]);
        assert_eq!(plan, RepairPlan::Absorb, "a parallel support survives");
        let plan = plan_repair(&idx, &[], &[(2, 3)]);
        assert_eq!(plan, RepairPlan::ArcUnsplice { arcs: vec![(idx.comp(2), idx.comp(3))] });
    }

    #[test]
    fn cross_component_forward_edge_plans_splice() {
        // Two disconnected paths: 0 -> 1 and 2 -> 3.
        let idx = index_of(4, &[(0, 1), (2, 3)]);
        let plan = plan_repair(&idx, &[(1, 2)], &[]);
        let arcs = vec![(idx.comp(1), idx.comp(2))];
        assert_eq!(plan, RepairPlan::DagSplice { arcs });
    }

    #[test]
    fn back_edge_plans_region_recompute_over_the_path() {
        // 0 -> 1 -> 2 -> 3 -> 4; inserting 3 -> 1 merges {1, 2, 3}.
        let idx = index_of(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let plan = plan_repair(&idx, &[(3, 1)], &[]);
        match plan {
            RepairPlan::RegionRecompute { region, arcs } => {
                let mut want: Vec<u32> = vec![idx.comp(1), idx.comp(2), idx.comp(3)];
                want.sort_unstable();
                assert_eq!(region, want);
                assert_eq!(arcs, vec![(idx.comp(3), idx.comp(1))]);
            }
            other => panic!("expected RegionRecompute, got {other:?}"),
        }
    }

    #[test]
    fn jointly_cyclic_splices_are_detected() {
        // Two paths: 0 -> 1 and 2 -> 3. Inserting 1 -> 2 AND 3 -> 0 is
        // individually acyclic but jointly closes a cycle through all
        // four components — the supergraph test must catch it.
        let idx = index_of(4, &[(0, 1), (2, 3)]);
        let plan = plan_repair(&idx, &[(1, 2), (3, 0)], &[]);
        match plan {
            RepairPlan::RegionRecompute { region, .. } => {
                let mut want: Vec<u32> = (0..4).map(|v| idx.comp(v)).collect();
                want.sort_unstable();
                assert_eq!(region, want, "all four components are on the joint cycle");
            }
            other => panic!("expected RegionRecompute, got {other:?}"),
        }
    }

    /// The pairs `(2i, 2i + 1)` for `i < count`: distinct condensation
    /// arcs between singleton components.
    fn disjoint_pairs(count: usize) -> Vec<(V, V)> {
        (0..count as V).map(|i| (2 * i, 2 * i + 1)).collect()
    }

    #[test]
    fn oversized_arc_sets_fall_back() {
        // 129 new arcs between isolated vertices overflow the planner; 128
        // splice in place.
        let idx = index_of(258, &[]);
        let plan = plan_repair(&idx, &disjoint_pairs(129), &[]);
        assert_eq!(plan, RepairPlan::FullRebuild { reason: RebuildReason::PlannerOverflow });
        let plan = plan_repair(&idx, &disjoint_pairs(128), &[]);
        assert!(matches!(plan, RepairPlan::DagSplice { ref arcs } if arcs.len() == 128));
        // The same bound on dead arcs: deleting 129 lone supports
        // overflows, 128 unsplice in place.
        let idx = index_of(258, &disjoint_pairs(129));
        let plan = plan_repair(&idx, &[], &disjoint_pairs(129));
        assert_eq!(plan, RepairPlan::FullRebuild { reason: RebuildReason::PlannerOverflow });
        let plan = plan_repair(&idx, &[], &disjoint_pairs(128));
        assert!(matches!(plan, RepairPlan::ArcUnsplice { ref arcs } if arcs.len() == 128));
    }

    /// A path of `n` components closed end to end by the back edge
    /// `(n - 1, 0)`: the whole path is the merge region.
    fn closed_path(n: usize) -> (Index, (V, V)) {
        let edges: Vec<(V, V)> = (0..n as V - 1).map(|i| (i, i + 1)).collect();
        (index_of(n, &edges), (n as V - 1, 0))
    }

    #[test]
    fn oversized_region_falls_back() {
        // 100 components: past max(100 / 4, 32) = 32.
        let (idx, back) = closed_path(100);
        let plan = plan_repair(&idx, &[back], &[]);
        assert_eq!(plan, RepairPlan::FullRebuild { reason: RebuildReason::RegionOverBudget });
        // 32 components sit exactly at the floor: repaired in place.
        let (idx, back) = closed_path(32);
        let plan = plan_repair(&idx, &[back], &[]);
        assert!(
            matches!(plan, RepairPlan::RegionRecompute { ref region, .. } if region.len() == 32)
        );
    }

    #[test]
    fn explain_records_inputs_and_rejections() {
        // 0 -> 1 -> 2 -> 3 -> 4; the back edge 3 -> 1 merges {1, 2, 3},
        // so the planner must reject absorb and dag_splice on the way to
        // region_recompute.
        let idx = index_of(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let (plan, ex) = plan_repair_explained(&idx, &[(3, 1)], &[]);
        assert_eq!(ex.chosen, plan.tier_name());
        assert_eq!(ex.chosen, "region_recompute");
        assert_eq!(ex.insertions, 1);
        assert_eq!(ex.deletions, 0);
        assert_eq!(ex.deletion_class, "none");
        assert_eq!(ex.new_arcs, 1);
        assert_eq!(ex.cyclic_arcs, 1);
        assert_eq!(ex.region_size, 3);
        assert!(ex.rejected.iter().any(|&(t, _)| t == "absorb"), "{:?}", ex.rejected);
        assert!(ex.rejected.iter().any(|&(t, _)| t == "dag_splice"), "{:?}", ex.rejected);
        let fields = ex.journal_fields();
        assert!(fields.iter().any(|(k, v)| *k == "chosen" && v == "region_recompute"));
        assert!(fields.iter().any(|(k, v)| *k == "region_size" && v == "3"));
        assert!(fields.iter().any(|(k, v)| *k == "rejected" && v.contains("dag_splice:")));
    }

    #[test]
    fn explain_classifies_deletions_and_budget_price_outs() {
        // A structural deletion (last support of the 1 -> 2 arc).
        let idx = index_of(3, &[(0, 1), (1, 2)]);
        let (plan, ex) = plan_repair_explained(&idx, &[], &[(1, 2)]);
        assert_eq!(plan, RepairPlan::ArcUnsplice { arcs: vec![(idx.comp(1), idx.comp(2))] });
        assert_eq!(ex.deletion_class, "structural");
        assert_eq!(ex.dead_arcs, 1);
        assert_eq!(ex.split_comps, 0);
        // An over-budget merge region prices region_recompute out.
        let (long, back) = closed_path(100);
        let (plan, ex) = plan_repair_explained(&long, &[back], &[]);
        assert_eq!(plan, RepairPlan::FullRebuild { reason: RebuildReason::RegionOverBudget });
        assert_eq!(ex.chosen, "full_rebuild");
        assert_eq!(ex.max_region, 32, "max(100 / 4, 32) components");
        assert_eq!(ex.region_size, 0);
        assert!(ex.rejected.iter().any(|&(t, _)| t == "region_recompute"), "{:?}", ex.rejected);
        // A split check prices its members in vertices, not components.
        let ring = Index::build(&pscc_graph::generators::simple::cycle_digraph(200));
        let (plan, ex) = plan_repair_explained(&ring, &[], &[(5, 6)]);
        assert_eq!(plan, RepairPlan::FullRebuild { reason: RebuildReason::SplitOverBudget });
        assert_eq!((ex.split_vertices, ex.max_region), (200, 50), "max(200 / 4, 32) vertices");
    }

    #[test]
    fn absorbability_follows_the_summary() {
        // {0,1} is an SCC; 1 -> 2 -> 3 is a tail.
        let idx = index_of(4, &[(0, 1), (1, 0), (1, 2), (2, 3)]);
        // A back edge merges components: not absorbable, and one bad edge
        // taints the whole batch out of the absorb tier.
        let plan = plan_repair(&idx, &[(0, 3), (3, 0)], &[]);
        assert!(!matches!(plan, RepairPlan::Absorb), "got {plan:?}");
    }
}
