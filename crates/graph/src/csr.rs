//! Compressed-sparse-row graph representations.
//!
//! [`Csr`] is a read-only adjacency structure: an offsets array of length
//! `n + 1` into a flat targets array. [`DiGraph`] pairs the out-adjacency
//! CSR with its transpose (in-adjacency), which backward reachability
//! searches (Alg. 1 line 7) and the dense mode of §4.2 both need.
//! [`UnGraph`] is a symmetric CSR for connectivity and LE-lists.
//!
//! Every in-CSR in the system is built by one kernel, [`Csr::transpose`]:
//! a stable blocked counting sort, O(B·n + m) for `B` ≤ workers blocks of
//! source rows, with no atomics. Its in-lists are sorted by construction,
//! and it accepts out-rows that are unsorted or hold duplicates.

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

    /// Builds the transpose (reversed-edge) CSR by a stable blocked
    /// counting sort.
    ///
    /// The source rows are cut into `B = min(workers, max(1, m / n))`
    /// contiguous blocks of about `m / B` edges (block boundaries are row
    /// boundaries). Each block counts its targets into its own row of one
    /// `B × n` matrix of `u32` counters; one parallel pass over the columns
    /// sums each column into an in-degree, which [`scan_exclusive`] turns
    /// into the offsets, and rewrites the column as per-block ranks; then
    /// every block scatters its sources in ascending order. Every in-list
    /// is therefore sorted by construction — no atomic read-modify-write,
    /// no per-list sort — and the output does not depend on `B`.
    ///
    /// Input rows may be unsorted or hold duplicates: each in-list is the
    /// ascending multiset of the sources naming it. Every in-degree must
    /// stay below 2³² (a graph without duplicate edges always does).
    ///
    /// Cost: O(B·n + m) work; the output's `(n + 1)·8 + m·4` bytes plus
    /// `B·n·4` bytes of counters, all allocated by the calling thread.
    ///
    /// [`scan_exclusive`]: pscc_runtime::scan_exclusive
    pub fn transpose(&self) -> Csr {
        use crate::builder::SendPtr;
        use pscc_runtime::{num_workers, par_range, scan_exclusive};

        let (n, m) = (self.n(), self.m());
        let (src_offsets, src_targets) = (self.offsets(), self.targets());
        let blocks = num_workers().min((m / n.max(1)).max(1));
        // Block b owns source rows row(b)..row(b + 1): from the first row
        // starting at or past its share b·m/B of the edges.
        let row = |b: usize| {
            if b == blocks {
                n
            } else {
                src_offsets.partition_point(|&o| (o as usize) < b * m / blocks)
            }
        };
        let edges = |b: usize| src_offsets[row(b)] as usize..src_offsets[row(b + 1)] as usize;

        // Count: block b tallies its targets into matrix row b.
        let mut ranks = vec![0u32; blocks * n];
        let ranks_at = SendPtr(ranks.as_mut_ptr());
        let block_row = |b: usize| {
            // SAFETY: matrix row b, ranks[b·n..(b + 1)·n], is only ever
            // touched by the task running block b, in the count and the
            // scatter; the column pass runs between them, not beside them.
            unsafe { std::slice::from_raw_parts_mut(ranks_at.get().add(b * n), n) }
        };
        par_range(0..blocks, 1, &|bs| {
            for b in bs {
                let counts = block_row(b);
                for &u in &src_targets[edges(b)] {
                    counts[u as usize] += 1;
                }
            }
        });

        // Columns: in-degree of v = Σ_b counts[b][v]; counts[b][v] becomes
        // block b's rank inside v's in-list (the counts of blocks < b).
        let mut offsets = vec![0u64; n + 1];
        let degree_at = SendPtr(offsets.as_mut_ptr());
        par_range(0..n, COLUMN_GRAIN, &|vs| {
            for v in vs {
                let mut degree = 0u32;
                for b in 0..blocks {
                    // SAFETY: column v — slot b·n + v of every matrix row —
                    // belongs to the task holding v, and no block task runs.
                    unsafe {
                        let slot = ranks_at.get().add(b * n + v);
                        let count = *slot;
                        *slot = degree;
                        degree += count;
                    }
                }
                // SAFETY: offsets[v] is written by the task holding v only.
                unsafe { degree_at.get().add(v).write(degree as u64) };
            }
        });
        let total = scan_exclusive(&mut offsets[..n]);
        debug_assert_eq!(total as usize, m);
        offsets[n] = total;

        // Scatter: block b walks its sources in ascending order, so each
        // in-list receives block 0's sources, then block 1's, …, sorted.
        let mut targets: Vec<V> = Vec::with_capacity(m);
        let target_at = SendPtr(targets.as_mut_ptr());
        par_range(0..blocks, 1, &|bs| {
            for b in bs {
                let rank = block_row(b);
                for src in row(b)..row(b + 1) {
                    for &u in self.neighbors(src as V) {
                        let pos = offsets[u as usize] as usize + rank[u as usize] as usize;
                        rank[u as usize] += 1;
                        // SAFETY: block b owns slots offsets[u] + (its rank
                        // .. its rank + its count) of in-list u, a range the
                        // column pass made disjoint from every other block's
                        // and inside 0..m; count and scatter read the same
                        // immutable edges, so no slot is written twice.
                        unsafe { target_at.get().add(pos).write(src as V) };
                    }
                }
            }
        });
        // SAFETY: the blocks' ranges tile every in-list, and the in-lists
        // tile 0..m, so all m slots are initialized; a panic unwinds past
        // this with length 0.
        unsafe { targets.set_len(m) };
        Csr::from_parts(offsets, targets)
    }
}

/// Columns per task of the column pass in [`Csr::transpose`].
const COLUMN_GRAIN: usize = 1 << 12;

/// A directed graph storing both the out-adjacency and in-adjacency CSR.
#[derive(Clone, Debug)]
pub struct DiGraph {
    out: Csr,
    inn: Csr,
}

impl DiGraph {
    /// Builds from an out-adjacency CSR, computing the transpose.
    ///
    /// Cost: one [`Csr::transpose`] — O(B·n + m) work with `B` ≤ workers,
    /// and `B·n·4` bytes of counters beside the in-CSR's own
    /// `(n + 1)·8 + m·4`. This is what loading a snapshot or building a
    /// graph from edges pays on top of reading or sorting the out-CSR.
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
    fn transpose_sorts_unsorted_and_duplicated_rows() {
        // Rows [3, 1], [2, 2], [], [0, 3, 0]: in-lists are the ascending
        // multisets of their sources.
        let g = Csr::from_parts(vec![0, 2, 4, 4, 7], vec![3, 1, 2, 2, 0, 3, 0]);
        for width in [1, 2, 8] {
            let t = pscc_runtime::with_threads(width, || g.transpose());
            assert_eq!(t.offsets(), &[0, 2, 3, 5, 7], "width {width}");
            assert_eq!(t.targets(), &[3, 3, 0, 1, 1, 0, 3], "width {width}");
        }
    }

    #[test]
    fn transpose_of_a_hub_leaves_blocks_empty() {
        // Row 0 holds every edge, so every block past the first is empty.
        let g = Csr::from_parts(vec![0, 6, 6, 6], vec![2, 1, 0, 2, 1, 0]);
        let t = pscc_runtime::with_threads(8, || g.transpose());
        assert_eq!(t, Csr::from_parts(vec![0, 2, 4, 6], vec![0, 0, 0, 0, 0, 0]));
        assert_eq!(Csr::empty(0).transpose(), Csr::empty(0));
        assert_eq!(Csr::empty(3).transpose(), Csr::empty(3));
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
