//! The Multi-step SCC algorithm (Slota, Rajamanickam, Madduri — IPDPS'14).
//!
//! Three phases:
//! 1. **Trim** — iteratively remove zero-in/out-degree vertices;
//! 2. **FW-BW** — one forward + one backward BFS from a high-degree pivot
//!    finds the giant SCC (the algorithm's bet: one SCC dominates);
//! 3. **Coloring** — repeated max-color propagation; each color root's
//!    backward reach inside its color class is an SCC (`O(m′·D)` work in
//!    the worst case, which is why Multi-step struggles on large-diameter /
//!    many-SCC graphs — Tab. 2's k-NN and lattice rows).

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use pscc_core::config::ReachParams;
use pscc_core::reach::single_reach;
use pscc_core::scc::trim;
use pscc_core::state::SccState;
use pscc_core::verify::component_stats;
use pscc_core::SccResult;
use pscc_graph::{DiGraph, V};
use pscc_runtime::{atomic_max_u32, pack_index, par_for, AtomicBits};

/// Computes SCCs with the Multi-step algorithm. `reach` controls the
/// FW-BW searches; pass [`ReachParams::plain`]-style settings for a
/// faithful baseline (its BFS had no VGC).
pub fn multistep_scc(g: &DiGraph, reach: &ReachParams) -> SccResult {
    let n = g.n();
    if n == 0 {
        return SccResult { labels: Vec::new(), num_sccs: 0, largest_scc: 0 };
    }
    let state = SccState::new(n);

    // Phase 1: complete trim.
    trim(g, &state);

    // Phase 2: FW-BW from the pivot with max degree product.
    if state.unfinished() > 0 {
        let pivot = (0..n as V)
            .filter(|&v| !state.is_done(v))
            .max_by_key(|&v| g.in_degree(v) as u64 * g.out_degree(v) as u64)
            // analyze: allow(panic): guarded by the unfinished() > 0 check above
            .expect("unfinished vertex must exist");
        let fvis = AtomicBits::new(n);
        let bvis = AtomicBits::new(n);
        single_reach(g, pivot, true, &state.labels, reach, &fvis);
        single_reach(g, pivot, false, &state.labels, reach, &bvis);
        par_for(n, |v| {
            if !state.is_done(v as V) && fvis.get(v) && bvis.get(v) {
                state.finish(v as V, pivot);
            }
        });
    }

    // Phase 3: coloring rounds on whatever is left.
    let colors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    while state.unfinished() > 0 {
        // Reset colors of alive vertices to their own ids.
        par_for(n, |v| colors[v].store(v as u32, Ordering::Relaxed));

        // Propagate max color along alive edges to a fixed point.
        loop {
            let changed = AtomicUsize::new(0);
            par_for(n, |v| {
                if state.is_done(v as V) {
                    return;
                }
                let cv = colors[v].load(Ordering::Relaxed);
                for &u in g.out_neighbors(v as V) {
                    if !state.is_done(u) && atomic_max_u32(&colors[u as usize], cv) {
                        changed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            if changed.load(Ordering::Relaxed) == 0 {
                break;
            }
        }

        // Roots: alive vertices whose color is their own id. The SCC of a
        // root r is its backward reach within its color class.
        let roots = pack_index(n, |v| {
            !state.is_done(v as V) && colors[v].load(Ordering::Relaxed) == v as u32
        });
        par_for(roots.len(), |i| {
            let r = roots[i] as V;
            // Sequential backward BFS per root; roots' classes are disjoint
            // so these run embarrassingly parallel across roots.
            let mut stack = vec![r];
            state.finish(r, r);
            while let Some(v) = stack.pop() {
                for &u in g.in_neighbors(v) {
                    if !state.is_done(u) && colors[u as usize].load(Ordering::Relaxed) == r as u32 {
                        state.finish(u, r);
                        stack.push(u);
                    }
                }
            }
        });
    }

    let labels = state.into_labels();
    let (num_sccs, largest_scc) = component_stats(&labels);
    SccResult { labels, num_sccs, largest_scc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tarjan::tarjan_scc;
    use pscc_core::verify::{partition_groups, same_partition};
    use pscc_graph::fixtures::{fig2_graph, fig2_sccs};
    use pscc_graph::generators::lattice::{lattice_sqr, lattice_sqr_prime};
    use pscc_graph::generators::random::gnm_digraph;
    use pscc_graph::generators::simple::bowtie_web;

    fn plain() -> ReachParams {
        ReachParams { vgc: false, ..ReachParams::default() }
    }

    fn check(g: &DiGraph) {
        let got = multistep_scc(g, &plain());
        assert!(same_partition(&got.labels, &tarjan_scc(g)));
    }

    #[test]
    fn fig2_partition() {
        let got = multistep_scc(&fig2_graph(), &plain());
        assert_eq!(partition_groups(&got.labels), fig2_sccs());
    }

    #[test]
    fn finds_giant_scc_on_bowtie() {
        let g = bowtie_web(200, 0.5, 2, 1);
        let got = multistep_scc(&g, &plain());
        assert_eq!(got.largest_scc, 100);
        check(&g);
    }

    #[test]
    fn random_graphs_match_tarjan() {
        for seed in 0..5u64 {
            check(&gnm_digraph(200, 700, seed));
        }
    }

    #[test]
    fn lattices_match_tarjan() {
        check(&lattice_sqr(15, 15, 2));
        check(&lattice_sqr_prime(20, 20, 2));
    }

    #[test]
    fn empty_and_singleton() {
        let g = DiGraph::from_edges(0, &[]);
        assert_eq!(multistep_scc(&g, &plain()).num_sccs, 0);
        let g1 = DiGraph::from_edges(1, &[]);
        assert_eq!(multistep_scc(&g1, &plain()).num_sccs, 1);
    }
}
