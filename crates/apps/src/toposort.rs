//! Topological ordering (Kahn's algorithm) and SCC-based topological
//! ordering of arbitrary digraphs.

use pscc_core::{parallel_scc, SccConfig};
use pscc_graph::{DiGraph, V};

use crate::condensation::{condense_scc, Condensation};

/// Returns a topological order of `g`'s vertices, or `None` if `g` has a
/// cycle.
pub fn topological_order(g: &DiGraph) -> Option<Vec<V>> {
    let n = g.n();
    let mut indeg: Vec<usize> = (0..n).map(|v| g.in_degree(v as V)).collect();
    // Self loops are cycles (adjacency lists are sorted).
    if (0..n as V).any(|v| g.out_neighbors(v).binary_search(&v).is_ok()) {
        return None;
    }
    let mut order = Vec::with_capacity(n);
    let mut queue: Vec<V> = (0..n as V).filter(|&v| indeg[v as usize] == 0).collect();
    while let Some(v) = queue.pop() {
        order.push(v);
        for &u in g.out_neighbors(v) {
            indeg[u as usize] -= 1;
            if indeg[u as usize] == 0 {
                queue.push(u);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Computes SCCs of `g` and a topological order of the condensation:
/// returns the condensation and `rank` where `rank[c]` is the position of
/// component `c` (every original edge goes from lower to equal-or-higher
/// rank). The classic "topological sort of a cyclic graph".
pub fn scc_topological_order(g: &DiGraph, cfg: &SccConfig) -> (Condensation, Vec<u32>) {
    let res = parallel_scc(g, cfg);
    let cond = condense_scc(g, &res.labels);
    // analyze: allow(panic): condensing an SCC labelling cannot leave a cycle
    let order = topological_order(&cond.dag).expect("condensation is a DAG by construction");
    let mut rank = vec![0u32; cond.num_components()];
    for (pos, &c) in order.iter().enumerate() {
        rank[c as usize] = pos as u32;
    }
    (cond, rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_graph::generators::random::gnm_digraph;
    use pscc_graph::generators::simple::{cycle_digraph, dag_layers, path_digraph};

    #[test]
    fn path_orders_left_to_right() {
        let g = path_digraph(10);
        let order = topological_order(&g).unwrap();
        let mut pos = [0usize; 10];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i;
        }
        for v in 0..9 {
            assert!(pos[v] < pos[v + 1]);
        }
    }

    #[test]
    fn cycle_has_no_order() {
        assert!(topological_order(&cycle_digraph(5)).is_none());
    }

    #[test]
    fn self_loop_has_no_order() {
        let g = DiGraph::from_edges(2, &[(0, 0), (0, 1)]);
        assert!(topological_order(&g).is_none());
    }

    #[test]
    fn dag_order_respects_all_edges() {
        let g = dag_layers(10, 20, 3, 2);
        let order = topological_order(&g).unwrap();
        let mut pos = vec![0usize; g.n()];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i;
        }
        for (u, v) in g.out_csr().edges() {
            assert!(pos[u as usize] < pos[v as usize], "edge {u}->{v}");
        }
    }

    #[test]
    fn scc_topo_rank_monotone_along_edges() {
        for seed in 0..4u64 {
            let g = gnm_digraph(200, 600, seed);
            let (cond, rank) = scc_topological_order(&g, &SccConfig::default());
            for (u, v) in g.out_csr().edges() {
                let (cu, cv) = (cond.comp_of[u as usize], cond.comp_of[v as usize]);
                if cu != cv {
                    assert!(
                        rank[cu as usize] < rank[cv as usize],
                        "edge {u}->{v} violates component order (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_graph_has_empty_order() {
        let g = DiGraph::from_edges(0, &[]);
        assert_eq!(topological_order(&g), Some(vec![]));
    }
}
