//! Recursive forward-backward (FW-BW) SCC decomposition
//! (Fleischer–Hendrickson–Pınar / Coppersmith et al.) — the ancestor of
//! iSpan-style algorithms.
//!
//! Pick a pivot, compute its forward set `F` and backward set `B` inside
//! the current partition; `F ∩ B` is an SCC, and every other SCC lies
//! entirely within `F∖B`, `B∖F`, or the remainder — recurse on those three.
//! Parallelism comes from the reachability searches and from processing
//! independent partitions; the recursion depth (number of SCCs found
//! serially along one chain) is what makes FW-BW slow when there are many
//! small SCCs.

use std::sync::atomic::Ordering;

use pscc_core::config::ReachParams;
use pscc_core::reach::single_reach;
use pscc_core::scc::trim_once;
use pscc_core::state::SccState;
use pscc_core::verify::component_stats;
use pscc_core::SccResult;
use pscc_graph::{DiGraph, V};
use pscc_runtime::rng::hash_combine;
use pscc_runtime::{par_for, AtomicBits};

use crate::tarjan::tarjan_scc;

/// Partitions smaller than this are finished sequentially with Tarjan —
/// the standard FW-BW engineering cutoff.
const SEQ_CUTOFF: usize = 64;

/// Computes SCCs by recursive FW-BW decomposition.
pub fn fwbw_scc(g: &DiGraph, reach: &ReachParams) -> SccResult {
    let n = g.n();
    if n == 0 {
        return SccResult { labels: Vec::new(), num_sccs: 0, largest_scc: 0 };
    }
    let state = SccState::new(n);
    trim_once(g, &state);

    // Work list of partitions, each a (partition label, member candidates).
    let initial: Vec<V> = (0..n as V).filter(|&v| !state.is_done(v)).collect();
    let mut work: Vec<(u64, Vec<V>)> = vec![(0, initial)];

    while let Some((plabel, verts)) = work.pop() {
        // Keep only the vertices still in this partition.
        let verts: Vec<V> =
            verts.into_iter().filter(|&v| !state.is_done(v) && state.label(v) == plabel).collect();
        if verts.is_empty() {
            continue;
        }
        if verts.len() <= SEQ_CUTOFF {
            finish_small_partition(g, &state, &verts);
            continue;
        }
        let pivot = verts[0];
        let fvis = AtomicBits::new(n);
        let bvis = AtomicBits::new(n);
        single_reach(g, pivot, true, &state.labels, reach, &fvis);
        single_reach(g, pivot, false, &state.labels, reach, &bvis);

        // Split into SCC / F∖B / B∖F / rest, relabelling the three
        // surviving groups with fresh partition labels.
        let lab_f = hash_combine(plabel, 1) & !pscc_core::FINAL_TAG;
        let lab_b = hash_combine(plabel, 2) & !pscc_core::FINAL_TAG;
        let lab_r = hash_combine(plabel, 3) & !pscc_core::FINAL_TAG;
        par_for(verts.len(), |i| {
            let v = verts[i];
            let (inf, inb) = (fvis.get(v as usize), bvis.get(v as usize));
            if inf && inb {
                state.finish(v, pivot);
            } else {
                let lab = if inf {
                    lab_f
                } else if inb {
                    lab_b
                } else {
                    lab_r
                };
                state.labels[v as usize].store(lab, Ordering::Relaxed);
            }
        });
        let mut group_f = Vec::new();
        let mut group_b = Vec::new();
        let mut group_r = Vec::new();
        for &v in &verts {
            if state.is_done(v) {
                continue;
            }
            let l = state.label(v);
            if l == lab_f {
                group_f.push(v);
            } else if l == lab_b {
                group_b.push(v);
            } else {
                group_r.push(v);
            }
        }
        for (lab, group) in [(lab_f, group_f), (lab_b, group_b), (lab_r, group_r)] {
            if !group.is_empty() {
                work.push((lab, group));
            }
        }
    }

    let labels = state.into_labels();
    let (num_sccs, largest_scc) = component_stats(&labels);
    SccResult { labels, num_sccs, largest_scc }
}

/// Runs Tarjan on the subgraph induced by `verts` and finishes them.
fn finish_small_partition(g: &DiGraph, state: &SccState, verts: &[V]) {
    // Build a compact induced subgraph.
    let mut local_id = std::collections::HashMap::with_capacity(verts.len());
    for (i, &v) in verts.iter().enumerate() {
        local_id.insert(v, i as V);
    }
    let mut edges: Vec<(V, V)> = Vec::new();
    for (i, &v) in verts.iter().enumerate() {
        let lv = state.label(v);
        for &u in g.out_neighbors(v) {
            if state.label(u) == lv {
                if let Some(&j) = local_id.get(&u) {
                    edges.push((i as V, j));
                }
            }
        }
    }
    let sub = DiGraph::from_edges(verts.len(), &edges);
    let sub_labels = tarjan_scc(&sub);
    // Representative per local component: the first member (stable).
    let mut rep: Vec<Option<V>> = vec![None; verts.len()];
    for (i, &l) in sub_labels.iter().enumerate() {
        let r = rep[l as usize].get_or_insert(verts[i]);
        state.finish(verts[i], *r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_core::verify::{partition_groups, same_partition};
    use pscc_graph::fixtures::{fig2_graph, fig2_sccs};
    use pscc_graph::generators::lattice::lattice_sqr;
    use pscc_graph::generators::random::gnm_digraph;
    use pscc_graph::generators::simple::{bowtie_web, cycle_digraph, path_digraph};

    fn plain() -> ReachParams {
        ReachParams { vgc: false, ..ReachParams::default() }
    }

    fn check(g: &DiGraph) {
        let got = fwbw_scc(g, &plain());
        assert!(same_partition(&got.labels, &tarjan_scc(g)));
    }

    #[test]
    fn fig2_partition() {
        let got = fwbw_scc(&fig2_graph(), &plain());
        assert_eq!(partition_groups(&got.labels), fig2_sccs());
    }

    #[test]
    fn simple_shapes() {
        check(&cycle_digraph(200));
        check(&path_digraph(200));
        check(&bowtie_web(150, 0.4, 2, 3));
    }

    #[test]
    fn random_graphs_match_tarjan() {
        for seed in 0..5u64 {
            check(&gnm_digraph(300, 1000, seed));
        }
    }

    #[test]
    fn lattice_matches_tarjan() {
        check(&lattice_sqr(15, 15, 1));
    }

    #[test]
    fn works_with_vgc_reachability_too() {
        let g = gnm_digraph(300, 1000, 42);
        let got = fwbw_scc(&g, &ReachParams::default());
        assert!(same_partition(&got.labels, &tarjan_scc(&g)));
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_edges(0, &[]);
        assert_eq!(fwbw_scc(&g, &plain()).num_sccs, 0);
    }
}
