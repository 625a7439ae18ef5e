//! Compressed-sparse-row graph representations.
//!
//! [`Csr`] is a read-only adjacency structure: an offsets array of length
//! `n + 1` into a flat targets array. [`DiGraph`] pairs the out-adjacency
//! CSR with its transpose (in-adjacency), which backward reachability
//! searches (Alg. 1 line 7) and the dense mode of §4.2 both need.
//! [`UnGraph`] is a symmetric CSR for connectivity and LE-lists.

use crate::V;

/// A static compressed-sparse-row adjacency structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    offsets: Box<[u64]>,
    targets: Box<[V]>,
}

impl Csr {
    /// Builds a CSR from raw parts. `offsets` must be monotone with
    /// `offsets[0] == 0` and `offsets[n] == targets.len()`.
    pub fn from_parts(offsets: Vec<u64>, targets: Vec<V>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have length n+1");
        assert_eq!(offsets[0], 0);
        assert_eq!(offsets.last().copied(), Some(targets.len() as u64));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self { offsets: offsets.into_boxed_slice(), targets: targets.into_boxed_slice() }
    }

    /// An empty graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Self::from_parts(vec![0; n + 1], Vec::new())
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (directed) edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: V) -> usize {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Neighbors of `v` as a slice.
    #[inline]
    pub fn neighbors(&self, v: V) -> &[V] {
        let v = v as usize;
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Iterates all edges `(src, dst)` sequentially.
    pub fn edges(&self) -> impl Iterator<Item = (V, V)> + '_ {
        (0..self.n() as V).flat_map(move |v| self.neighbors(v).iter().map(move |&u| (v, u)))
    }

    /// The raw offsets array (length `n + 1`).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw targets array (length `m`).
    #[inline]
    pub fn targets(&self) -> &[V] {
        &self.targets
    }

    /// Builds the transpose (reversed-edge) CSR via parallel counting sort.
    pub fn transpose(&self) -> Csr {
        use pscc_runtime::{par_range, scan_exclusive};
        use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

        let n = self.n();
        let m = self.m();
        // Count in-degrees.
        let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        par_range(0..n, 256, &|r| {
            for v in r {
                for &u in self.neighbors(v as V) {
                    counts[u as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        let mut offsets: Vec<u64> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        offsets.push(0);
        // Exclusive scan turns counts into offsets; the pushed 0 becomes m.
        let total = scan_exclusive(&mut offsets[..n]);
        debug_assert_eq!(total as usize, m);
        offsets[n] = total;

        // Scatter edges to their transposed positions.
        let cursors: Vec<AtomicU64> = offsets[..n].iter().map(|&o| AtomicU64::new(o)).collect();
        let targets: Vec<AtomicU32> = (0..m).map(|_| AtomicU32::new(0)).collect();
        par_range(0..n, 256, &|r| {
            for v in r {
                for &u in self.neighbors(v as V) {
                    let pos = cursors[u as usize].fetch_add(1, Ordering::Relaxed) as usize;
                    targets[pos].store(v as V, Ordering::Relaxed);
                }
            }
        });
        let mut targets: Vec<V> = targets.into_iter().map(|a| a.into_inner()).collect();
        // Sort each in-neighbor list for deterministic layout.
        let tptr = TargetsPtr(targets.as_mut_ptr());
        par_range(0..n, 64, &|r| {
            for v in r {
                let lo = offsets[v] as usize;
                let hi = offsets[v + 1] as usize;
                // SAFETY: [offsets[v], offsets[v+1]) is vertex v's
                // exclusive segment of `targets`; segments tile the
                // buffer without overlap, so each task sorts private
                // memory.
                unsafe {
                    let seg = std::slice::from_raw_parts_mut(tptr.get().add(lo), hi - lo);
                    seg.sort_unstable();
                }
            }
        });
        Csr::from_parts(offsets, targets)
    }
}

struct TargetsPtr(*mut V);
// SAFETY: TargetsPtr is only shared with the per-vertex segment sort
// above, where tasks mutate disjoint CSR segments.
unsafe impl Sync for TargetsPtr {}
// SAFETY: see Sync above — plain memory, no thread affinity.
unsafe impl Send for TargetsPtr {}
impl TargetsPtr {
    fn get(&self) -> *mut V {
        self.0
    }
}

/// A directed graph storing both the out-adjacency and in-adjacency CSR.
#[derive(Clone, Debug)]
pub struct DiGraph {
    out: Csr,
    inn: Csr,
}

impl DiGraph {
    /// Builds from an out-adjacency CSR, computing the transpose.
    pub fn from_out_csr(out: Csr) -> Self {
        let inn = out.transpose();
        Self { out, inn }
    }

    /// Builds from a (possibly duplicated, possibly self-looped) edge list.
    /// Duplicates are removed; self loops are kept (they are harmless for
    /// reachability and SCC).
    pub fn from_edges(n: usize, edges: &[(V, V)]) -> Self {
        Self::from_out_csr(crate::builder::build_csr(n, edges))
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.out.n()
    }

    /// Number of directed edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.out.m()
    }

    /// Out-neighbors of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: V) -> &[V] {
        self.out.neighbors(v)
    }

    /// In-neighbors of `v`.
    #[inline]
    pub fn in_neighbors(&self, v: V) -> &[V] {
        self.inn.neighbors(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: V) -> usize {
        self.out.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: V) -> usize {
        self.inn.degree(v)
    }

    /// The out-adjacency CSR.
    #[inline]
    pub fn out_csr(&self) -> &Csr {
        &self.out
    }

    /// The in-adjacency (transpose) CSR.
    #[inline]
    pub fn in_csr(&self) -> &Csr {
        &self.inn
    }

    /// Neighbors in the given direction (`true` = forward/out).
    #[inline]
    pub fn neighbors_dir(&self, v: V, forward: bool) -> &[V] {
        if forward {
            self.out.neighbors(v)
        } else {
            self.inn.neighbors(v)
        }
    }

    /// The CSR for a search direction (`true` = forward/out).
    #[inline]
    pub fn csr_dir(&self, forward: bool) -> &Csr {
        if forward {
            &self.out
        } else {
            &self.inn
        }
    }

    /// Returns the same graph with every edge reversed (swaps the two CSRs —
    /// O(1)).
    pub fn reversed(self) -> Self {
        Self { out: self.inn, inn: self.out }
    }

    /// Applies a batched edge update, producing
    /// `(self ∖ deletions) ∪ insertions` over the same vertex set.
    ///
    /// The inputs need not be sorted or duplicate-free; an edge appearing
    /// in both lists ends up **present** (insertions win). Inserting an
    /// edge that already exists or deleting one that doesn't is a no-op.
    /// Both adjacency structures are updated by the run-copy splice of
    /// [`crate::builder::merge_csr`]: only the rows the delta touches (its
    /// sources in the out-CSR, its targets in the in-CSR) are merged, and
    /// every run of untouched rows is copied in one piece, in parallel over
    /// row chunks. Cost: O(|δ| log |δ| + Σ deg(touched)) merge work plus a
    /// bandwidth-bound copy of `(n + 1)·8 + m·4` bytes per direction.
    ///
    /// Panics if an endpoint is `>= self.n()`, matching [`DiGraph::from_edges`].
    pub fn with_delta(&self, insertions: &[(V, V)], deletions: &[(V, V)]) -> DiGraph {
        let mut ins = insertions.to_vec();
        let mut del = deletions.to_vec();
        crate::builder::dedup_edges(&mut ins);
        crate::builder::dedup_edges(&mut del);
        let out = crate::builder::merge_csr(&self.out, &ins, &del);
        // The transpose is merged directly with the reversed delta instead
        // of being recomputed from the merged out-CSR.
        let reverse = |edges: &mut Vec<(V, V)>| {
            for e in edges.iter_mut() {
                *e = (e.1, e.0);
            }
            crate::builder::dedup_edges(edges);
        };
        reverse(&mut ins);
        reverse(&mut del);
        let inn = crate::builder::merge_csr(&self.inn, &ins, &del);
        debug_assert_eq!(out.m(), inn.m());
        DiGraph { out, inn }
    }

    /// Symmetrizes into an undirected graph: keeps an edge `{u, v}` if
    /// either direction exists.
    pub fn symmetrize(&self) -> UnGraph {
        let mut edges: Vec<(V, V)> = Vec::with_capacity(self.m() * 2);
        for (u, v) in self.out.edges() {
            if u != v {
                edges.push((u, v));
                edges.push((v, u));
            }
        }
        UnGraph::from_undirected_edges(self.n(), &edges)
    }
}

/// An undirected graph stored as a symmetric CSR.
#[derive(Clone, Debug)]
pub struct UnGraph {
    adj: Csr,
}

impl UnGraph {
    /// Builds from a directed edge list that is already symmetric
    /// (contains both `(u,v)` and `(v,u)`); duplicates are removed.
    pub fn from_undirected_edges(n: usize, edges: &[(V, V)]) -> Self {
        // Ensure symmetry regardless of input discipline.
        let mut sym: Vec<(V, V)> = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            if u != v {
                sym.push((u, v));
                sym.push((v, u));
            }
        }
        Self { adj: crate::builder::build_csr(n, &sym) }
    }

    /// Wraps an existing symmetric CSR without checking symmetry.
    pub fn from_symmetric_csr(adj: Csr) -> Self {
        Self { adj }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.adj.n()
    }

    /// Number of directed edge slots (twice the undirected edge count).
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.m()
    }

    /// Neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: V) -> &[V] {
        self.adj.neighbors(v)
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: V) -> usize {
        self.adj.degree(v)
    }

    /// The underlying CSR.
    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.adj
    }

    /// Views this undirected graph as a digraph (each undirected edge is a
    /// pair of arcs; out and in adjacency coincide).
    pub fn as_digraph(&self) -> DiGraph {
        DiGraph { out: self.adj.clone(), inn: self.adj.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        crate::builder::build_csr(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn csr_basic_accessors() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[] as &[V]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn csr_empty_graph() {
        let g = Csr::empty(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        for v in 0..5 {
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn csr_edges_iterator_roundtrip() {
        let g = diamond();
        let edges: Vec<(V, V)> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(0), &[] as &[V]);
        assert_eq!(t.m(), g.m());
    }

    #[test]
    fn transpose_twice_is_identity() {
        let g = crate::generators::random::gnm_digraph(200, 1000, 42);
        let tt = g.out_csr().transpose().transpose();
        assert_eq!(&tt, g.out_csr());
    }

    #[test]
    fn digraph_in_out_consistency() {
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(3), 0);
        // Each edge appears exactly once in each direction structure.
        assert_eq!(g.out_csr().m(), g.in_csr().m());
    }

    #[test]
    fn digraph_reversed_swaps() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let r = g.clone().reversed();
        assert_eq!(r.out_neighbors(2), &[1]);
        assert_eq!(r.out_neighbors(1), &[0]);
        assert_eq!(r.in_neighbors(0), &[1]);
    }

    #[test]
    fn digraph_dedups_edges() {
        let g = DiGraph::from_edges(3, &[(0, 1), (0, 1), (1, 2), (0, 1)]);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn digraph_keeps_self_loops_once() {
        let g = DiGraph::from_edges(2, &[(0, 0), (0, 0), (0, 1)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.out_neighbors(0), &[0, 1]);
        assert_eq!(g.in_neighbors(0), &[0]);
    }

    #[test]
    fn symmetrize_makes_both_directions() {
        let g = DiGraph::from_edges(3, &[(0, 1), (2, 1)]);
        let u = g.symmetrize();
        assert_eq!(u.neighbors(1), &[0, 2]);
        assert_eq!(u.neighbors(0), &[1]);
        assert_eq!(u.m(), 4);
    }

    #[test]
    fn symmetrize_drops_self_loops() {
        let g = DiGraph::from_edges(2, &[(0, 0), (0, 1)]);
        let u = g.symmetrize();
        assert_eq!(u.neighbors(0), &[1]);
    }

    #[test]
    fn ungraph_as_digraph_is_symmetric() {
        let u = UnGraph::from_undirected_edges(3, &[(0, 1), (1, 2)]);
        let d = u.as_digraph();
        assert_eq!(d.out_neighbors(1), d.in_neighbors(1));
        assert_eq!(d.m(), 4);
    }

    #[test]
    fn with_delta_matches_from_edges() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
        let upd = g.with_delta(&[(4, 0), (1, 3), (1, 2)], &[(2, 3), (0, 4)]);
        let want = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 0), (1, 3)]);
        assert_eq!(upd.out_csr(), want.out_csr());
        assert_eq!(upd.in_csr(), want.in_csr());
    }

    #[test]
    fn with_delta_transpose_stays_consistent() {
        let g = crate::generators::random::gnm_digraph(120, 400, 5);
        let ins: Vec<(V, V)> = (0..60).map(|i| (i as V, (i * 2 % 120) as V)).collect();
        let del: Vec<(V, V)> = g.out_csr().edges().step_by(5).collect();
        let upd = g.with_delta(&ins, &del);
        assert_eq!(&upd.out_csr().transpose(), upd.in_csr());
        assert_eq!(&upd.in_csr().transpose(), upd.out_csr());
    }

    #[test]
    fn with_delta_empty_is_identity() {
        let g = crate::generators::random::gnm_digraph(40, 100, 8);
        let upd = g.with_delta(&[], &[]);
        assert_eq!(upd.out_csr(), g.out_csr());
        assert_eq!(upd.in_csr(), g.in_csr());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_delta_rejects_out_of_range() {
        let g = DiGraph::from_edges(3, &[(0, 1)]);
        let _ = g.with_delta(&[], &[(0, 7)]);
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_bad_offsets() {
        let _ = Csr::from_parts(vec![0, 5], vec![1, 2]);
    }

    #[test]
    fn neighbors_dir_selects_direction() {
        let g = DiGraph::from_edges(2, &[(0, 1)]);
        assert_eq!(g.neighbors_dir(0, true), &[1]);
        assert_eq!(g.neighbors_dir(0, false), &[] as &[V]);
        assert_eq!(g.neighbors_dir(1, false), &[0]);
    }
}
