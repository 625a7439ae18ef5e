//! Trimming (§4.1): vertices with zero in- or out-degree are singleton
//! SCCs and are finished immediately. The paper trims once up front; the
//! iterative variant (used by Multi-step-style algorithms and available as
//! an extension) repeats against the *alive* subgraph to a fixed point.

use pscc_graph::{DiGraph, V};
use pscc_runtime::{pack_index, par_for};

use crate::state::SccState;

/// Trims `g`, finishing every trimmed vertex as its own SCC. Returns the
/// number of vertices trimmed.
pub fn trim(g: &DiGraph, state: &SccState, iterative: bool) -> usize {
    let n = g.n();
    let mut total = 0usize;

    // First pass uses static graph degrees.
    let first: Vec<usize> = pack_index(n, |v| {
        !state.is_done(v as V) && (g.out_degree(v as V) == 0 || g.in_degree(v as V) == 0)
    });
    par_for(first.len(), |i| {
        let v = first[i] as V;
        state.finish(v, v);
    });
    total += first.len();

    if !iterative {
        return total;
    }

    // Iterative passes: a vertex dies when all of its in- or all of its
    // out-neighbours (excluding itself) are dead.
    loop {
        let next: Vec<usize> = pack_index(n, |v| {
            if state.is_done(v as V) {
                return false;
            }
            let vv = v as V;
            let no_in = g.in_neighbors(vv).iter().all(|&u| u == vv || state.is_done(u));
            let no_out = g.out_neighbors(vv).iter().all(|&u| u == vv || state.is_done(u));
            no_in || no_out
        });
        if next.is_empty() {
            break;
        }
        par_for(next.len(), |i| {
            let v = next[i] as V;
            state.finish(v, v);
        });
        total += next.len();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_graph::generators::simple::{cycle_digraph, path_digraph, star_digraph};

    #[test]
    fn cycle_trims_nothing() {
        let g = cycle_digraph(10);
        let state = SccState::new(10);
        assert_eq!(trim(&g, &state, false), 0);
        assert_eq!(state.unfinished(), 10);
    }

    #[test]
    fn path_single_pass_trims_endpoints() {
        let g = path_digraph(5);
        let state = SccState::new(5);
        assert_eq!(trim(&g, &state, false), 2);
        assert!(state.is_done(0) && state.is_done(4));
        assert!(!state.is_done(2));
    }

    #[test]
    fn path_iterative_trims_everything() {
        let g = path_digraph(6);
        let state = SccState::new(6);
        assert_eq!(trim(&g, &state, true), 6);
        assert_eq!(state.unfinished(), 0);
    }

    #[test]
    fn star_trims_all() {
        let g = star_digraph(8);
        let state = SccState::new(8);
        // Leaves have no out-degree, center then loses all out-neighbours —
        // but single-pass already kills everyone (center has in-degree 0).
        assert_eq!(trim(&g, &state, false), 8);
    }

    #[test]
    fn trimmed_vertices_get_singleton_labels() {
        let g = path_digraph(3);
        let state = SccState::new(3);
        trim(&g, &state, true);
        let labels = state.into_labels();
        // All distinct: each vertex its own SCC.
        assert_ne!(labels[0], labels[1]);
        assert_ne!(labels[1], labels[2]);
    }

    #[test]
    fn self_loop_vertex_survives_iterative_trim() {
        // v=1 has a self loop; trimming must not kill it even though it has
        // no other neighbours... actually in/out neighbours are only itself,
        // so the "excluding itself" rule trims it as a singleton — which is
        // correct: a self-looping vertex IS a singleton SCC.
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 1), (1, 2)]);
        let state = SccState::new(3);
        let t = trim(&g, &state, true);
        assert_eq!(t, 3);
    }

    #[test]
    fn trim_respects_already_done() {
        let g = path_digraph(4);
        let state = SccState::new(4);
        state.finish(0, 0);
        // Vertex 0 already done; only 3 is freshly trimmable in one pass.
        assert_eq!(trim(&g, &state, false), 1);
    }
}
