//! Graph contraction by SCC: the condensation DAG.

use pscc_core::{dense_components, normalize_labels};
use pscc_graph::{contract_csr, DiGraph, V};

/// The condensation of a digraph: one vertex per SCC, one arc per pair of
/// components joined by at least one original edge. Always a DAG.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// Component id of each original vertex (`0..num_components`, numbered
    /// by first appearance).
    pub comp_of: Vec<u32>,
    /// The contracted DAG (deduplicated arcs, no self loops).
    pub dag: DiGraph,
    /// Number of original vertices in each component.
    pub sizes: Vec<usize>,
    /// How many original edges contract to each arc, aligned with
    /// `dag.out_csr().targets()`.
    pub arc_support: Vec<u64>,
}

impl Condensation {
    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.sizes.len()
    }

    /// A topological order of the condensation DAG: every arc goes from an
    /// earlier to a later position.
    pub fn topo_order(&self) -> Vec<V> {
        crate::toposort::topological_order(&self.dag)
            // analyze: allow(panic): condensing an SCC labelling cannot leave a cycle
            .expect("condensation is a DAG by construction")
    }

    /// Longest-path levels of the condensation DAG: `levels[c]` is the
    /// length of the longest path from any source component to `c`, so
    /// every arc (and hence every path) strictly increases the level —
    /// the pruning invariant reachability indexes rely on.
    pub fn topo_levels(&self) -> Vec<u32> {
        topo_levels_of(&self.dag, &self.topo_order())
    }
}

/// Longest-path levels of any DAG given one of its topological orders
/// (the sweep behind [`Condensation::topo_levels`], reusable by callers
/// that already hold an order — e.g. incremental index assembly).
pub fn topo_levels_of(dag: &DiGraph, order: &[V]) -> Vec<u32> {
    let mut levels = vec![0u32; dag.n()];
    for &c in order {
        for &d in dag.out_neighbors(c) {
            levels[d as usize] = levels[d as usize].max(levels[c as usize] + 1);
        }
    }
    levels
}

/// Contracts `g` using precomputed SCC `labels` (any label type that marks
/// components, e.g. another algorithm's output).
pub fn condense<T: Copy + Eq + std::hash::Hash>(g: &DiGraph, labels: &[T]) -> Condensation {
    assert_eq!(labels.len(), g.n());
    let comp_of = normalize_labels(labels);
    let k = comp_of.iter().copied().max().map(|m| m as usize + 1).unwrap_or(0);
    let mut sizes = vec![0usize; k];
    for &c in &comp_of {
        sizes[c as usize] += 1;
    }
    contract(g, comp_of, sizes)
}

/// [`condense`] for the labels of [`pscc_core::parallel_scc`] itself: their
/// representative invariant gives the same numbering, and the sizes, by
/// direct addressing ([`dense_components`]) — parallel, no label hashed.
pub fn condense_scc(g: &DiGraph, labels: &[u64]) -> Condensation {
    assert_eq!(labels.len(), g.n());
    let (comp_of, sizes) = dense_components(labels);
    contract(g, comp_of, sizes)
}

fn contract(g: &DiGraph, comp_of: Vec<u32>, sizes: Vec<usize>) -> Condensation {
    let (out, arc_support) = contract_csr(g.out_csr(), None, &comp_of, sizes.len());
    Condensation { comp_of, dag: DiGraph::from_out_csr(out), sizes, arc_support }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_core::{parallel_scc, SccConfig};
    use pscc_graph::fixtures::fig2_graph;
    use pscc_graph::generators::random::gnm_digraph;

    fn condensation_of(g: &DiGraph) -> Condensation {
        let res = parallel_scc(g, &SccConfig::default());
        condense(g, &res.labels)
    }

    #[test]
    fn fig2_condensation_shape() {
        let g = fig2_graph();
        let c = condensation_of(&g);
        assert_eq!(c.num_components(), 6);
        let mut sizes = c.sizes.clone();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 1, 2, 3, 4]);
        // Condensation must have fewer edges than the graph and no
        // self-loops.
        assert!(c.dag.m() <= g.m());
        for (u, v) in c.dag.out_csr().edges() {
            assert_ne!(u, v);
        }
    }

    #[test]
    fn condensation_is_acyclic() {
        for seed in 0..5u64 {
            let g = gnm_digraph(200, 800, seed);
            let c = condensation_of(&g);
            assert!(
                crate::toposort::topological_order(&c.dag).is_some(),
                "condensation has a cycle (seed {seed})"
            );
        }
    }

    #[test]
    fn kernel_labels_condense_like_any_other_labels() {
        let g = gnm_digraph(400, 1100, 4);
        let res = parallel_scc(&g, &SccConfig::default());
        let (fast, generic) = (condense_scc(&g, &res.labels), condense(&g, &res.labels));
        assert_eq!(fast.comp_of, generic.comp_of);
        assert_eq!(fast.sizes, generic.sizes);
        assert_eq!(fast.dag.out_csr(), generic.dag.out_csr());
        assert_eq!(fast.arc_support, generic.arc_support);
        let cross = g
            .out_csr()
            .edges()
            .filter(|&(u, v)| fast.comp_of[u as usize] != fast.comp_of[v as usize]);
        assert_eq!(fast.arc_support.iter().sum::<u64>(), cross.count() as u64);
    }

    #[test]
    fn sizes_sum_to_n() {
        let g = gnm_digraph(300, 900, 9);
        let c = condensation_of(&g);
        assert_eq!(c.sizes.iter().sum::<usize>(), g.n());
    }

    #[test]
    fn single_scc_condenses_to_point() {
        let g = pscc_graph::generators::simple::cycle_digraph(50);
        let c = condensation_of(&g);
        assert_eq!(c.num_components(), 1);
        assert_eq!(c.dag.m(), 0);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_edges(0, &[]);
        let c = condense(&g, &Vec::<u64>::new());
        assert_eq!(c.num_components(), 0);
    }

    #[test]
    fn topo_order_respects_arcs() {
        let g = gnm_digraph(250, 700, 17);
        let c = condensation_of(&g);
        let order = c.topo_order();
        assert_eq!(order.len(), c.num_components());
        let mut pos = vec![0usize; c.num_components()];
        for (i, &comp) in order.iter().enumerate() {
            pos[comp as usize] = i;
        }
        for (a, b) in c.dag.out_csr().edges() {
            assert!(pos[a as usize] < pos[b as usize], "arc {a}->{b}");
        }
    }

    #[test]
    fn topo_levels_strictly_increase_along_arcs() {
        let g = gnm_digraph(250, 700, 18);
        let c = condensation_of(&g);
        let levels = c.topo_levels();
        for (a, b) in c.dag.out_csr().edges() {
            assert!(levels[a as usize] < levels[b as usize], "arc {a}->{b}");
        }
        // Source components sit at level 0.
        for comp in 0..c.num_components() as u32 {
            if c.dag.in_degree(comp) == 0 {
                assert_eq!(levels[comp as usize], 0);
            }
        }
    }
}
