//! Parallel CSR construction from edge lists, and parallel CSR *merging*
//! for batched edge updates.
//!
//! Edges are sorted (parallel), deduplicated, and packed into offsets +
//! targets. Self loops are preserved (SCC/reachability treat them as
//! no-ops); duplicates are removed so degree-based heuristics stay honest.
//!
//! [`merge_csr`] applies a sorted insertion/deletion delta to an existing
//! CSR with one counting pass and one filling pass, both parallel over
//! vertices — O(n/P + m/P + |delta|) instead of a from-scratch edge-list
//! rebuild.

use crate::csr::Csr;
use crate::V;

/// Sorts and removes duplicate edges (in place + truncate semantics).
pub fn dedup_edges(edges: &mut Vec<(V, V)>) {
    pscc_runtime::par_sort_unstable(&mut edges[..]);
    edges.dedup();
}

/// Builds an out-adjacency CSR with `n` vertices from `edges`.
///
/// Panics if an endpoint is out of range.
pub fn build_csr(n: usize, edges: &[(V, V)]) -> Csr {
    assert!(n < u32::MAX as usize, "graph too large for u32 vertex ids");
    let mut sorted: Vec<(V, V)> = edges.to_vec();
    dedup_edges(&mut sorted);
    if let Some(&(u, v)) = sorted.last() {
        assert!((u as usize) < n, "edge source {u} out of range (n={n})");
        let maxv = sorted.iter().map(|&(_, v)| v).max().unwrap_or(0);
        assert!((maxv as usize) < n, "edge target {maxv} out of range (n={n})");
        let _ = v;
    }
    let m = sorted.len();
    let mut offsets = vec![0u64; n + 1];
    // Count degrees sequentially over the sorted list (cheap, cache-friendly;
    // the sort dominates).
    for &(u, _) in &sorted {
        offsets[u as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let targets: Vec<V> = sorted.into_iter().map(|(_, v)| v).collect();
    debug_assert_eq!(offsets[n] as usize, m);
    Csr::from_parts(offsets, targets)
}

/// Merges a sorted, deduplicated edge delta into `base`, producing
/// `(base ∖ deletions) ∪ insertions`.
///
/// `insertions` and `deletions` must be sorted lexicographically with no
/// duplicates (use [`dedup_edges`]) and every endpoint must be `< base.n()`.
/// An edge present in both lists ends up **present**: insertions win.
///
/// Both passes (degree counting and adjacency filling) run in parallel
/// over vertices; each vertex merges its already-sorted adjacency list
/// with its slice of the delta, so the whole merge is
/// O(n/P + m/P + |delta|) and the output keeps the sorted,
/// duplicate-free adjacency invariant of [`build_csr`].
pub fn merge_csr(base: &Csr, insertions: &[(V, V)], deletions: &[(V, V)]) -> Csr {
    // Real asserts, not debug: unsorted input would make the binary
    // searches silently return wrong slices and corrupt the output. The
    // O(|delta|) scans are noise next to the merge itself.
    assert!(insertions.windows(2).all(|w| w[0] < w[1]), "insertions must be sorted+deduped");
    assert!(deletions.windows(2).all(|w| w[0] < w[1]), "deletions must be sorted+deduped");
    let n = base.n();
    let check = |edges: &[(V, V)]| {
        if let Some(&(u, v)) = edges.last() {
            assert!((u as usize) < n, "delta source {u} out of range (n={n})");
            let maxv = edges.iter().map(|&(_, v)| v).max().unwrap_or(0);
            assert!((maxv as usize) < n, "delta target {maxv} out of range (n={n})");
            let _ = v;
        }
    };
    check(insertions);
    check(deletions);

    // The delta slice owned by vertex u starts where edges with source >= u
    // do; found by binary search per vertex inside the parallel passes.
    fn slice_of(edges: &[(V, V)], u: V) -> &[(V, V)] {
        let lo = edges.partition_point(|&(s, _)| s < u);
        let hi = lo + edges[lo..].partition_point(|&(s, _)| s == u);
        &edges[lo..hi]
    }

    // Pass 1: new per-vertex degrees.
    let mut offsets = vec![0u64; n + 1];
    {
        let off = SendPtr(offsets.as_mut_ptr());
        pscc_runtime::par_range(0..n, 1024, &|r| {
            for u in r {
                let ins = slice_of(insertions, u as V);
                let del = slice_of(deletions, u as V);
                let mut count = 0u64;
                merge_adjacency(base.neighbors(u as V), ins, del, |_| count += 1);
                // SAFETY: offsets has n+1 slots and each task writes
                // only its own vertex slot u < n, exactly once.
                unsafe { *off.get().add(u) = count };
            }
        });
    }
    let m = pscc_runtime::scan_exclusive(&mut offsets[..n]) as usize;
    offsets[n] = m as u64;

    // Pass 2: fill each (disjoint) adjacency segment.
    let mut targets = vec![0 as V; m];
    {
        let tgt = SendPtr(targets.as_mut_ptr());
        let offsets = &offsets;
        pscc_runtime::par_range(0..n, 1024, &|r| {
            for u in r {
                let ins = slice_of(insertions, u as V);
                let del = slice_of(deletions, u as V);
                let mut pos = offsets[u] as usize;
                merge_adjacency(base.neighbors(u as V), ins, del, |v| {
                    // SAFETY: pos walks [offsets[u], offsets[u+1]),
                    // vertex u's exclusive segment of `targets`; segments
                    // tile the buffer without overlap and the scan sized
                    // it to exactly m entries.
                    unsafe { *tgt.get().add(pos) = v };
                    pos += 1;
                });
                debug_assert_eq!(pos, offsets[u + 1] as usize);
            }
        });
    }
    Csr::from_parts(offsets, targets)
}

/// Contracts `g` through `labels` (dense ids in `0..k`): the CSR with one
/// arc per ordered pair of **distinct** labels joined by an edge — exactly
/// [`build_csr`] of the contracted edge list — plus each arc's multiplicity,
/// aligned with the result's `targets()`: the number of edges mapping to
/// the pair or, given `weights` (aligned with `g.targets()`), the sum of
/// their weights, which re-contracts a contraction through a merge map.
///
/// The multiplicities are a condensation's arc-support table: deleting an
/// edge removes its arc only when the count reaches zero. Cross arcs are
/// extracted by a parallel count → scan → scatter, sorted in parallel and
/// run-length merged.
pub fn contract_csr(g: &Csr, weights: Option<&[u64]>, labels: &[u32], k: usize) -> (Csr, Vec<u64>) {
    assert_eq!(labels.len(), g.n(), "one label per vertex");
    match weights {
        None => {
            let mut arcs = cross_arcs(g, labels, |a, b, _| (a as u64) << 32 | b as u64);
            pscc_runtime::par_sort_unstable(&mut arcs);
            csr_from_runs(k, &arcs, |&key| (((key >> 32) as V, key as V), 1))
        }
        Some(w) => {
            assert_eq!(w.len(), g.m(), "one weight per edge");
            csr_from_weighted_arcs(k, cross_arcs(g, labels, |a, b, i| ((a, b), w[i])))
        }
    }
}

/// The `k`-vertex CSR of a weighted arc list in any order, repeated arcs'
/// weights summed into one multiplicity per arc (aligned with `targets()`).
pub fn csr_from_weighted_arcs(k: usize, mut arcs: Vec<((V, V), u64)>) -> (Csr, Vec<u64>) {
    pscc_runtime::par_sort_unstable(&mut arcs);
    csr_from_runs(k, &arcs, |&arc| arc)
}

/// `make(labels[u], labels[v], edge index)` for every edge `u → v` of `csr`
/// whose endpoints carry different labels, in edge order.
fn cross_arcs<T: Copy + Send + Sync>(
    csr: &Csr,
    labels: &[u32],
    make: impl Fn(u32, u32, usize) -> T + Sync,
) -> Vec<T> {
    let n = csr.n();
    let crosses = |u: usize, v: V| labels[v as usize] != labels[u];
    let mut starts: Vec<u64> = pscc_runtime::tabulate(n, |u| {
        csr.neighbors(u as V).iter().filter(|&&v| crosses(u, v)).count() as u64
    });
    let total = pscc_runtime::scan_exclusive(&mut starts) as usize;
    let mut out: Vec<T> = Vec::with_capacity(total);
    let (ptr, starts) = (SendPtr(out.as_mut_ptr()), &starts);
    pscc_runtime::par_range(0..n, 1024, &|r| {
        for u in r {
            let (first, mut pos) = (csr.offsets()[u] as usize, starts[u] as usize);
            for (i, &v) in csr.neighbors(u as V).iter().enumerate().filter(|e| crosses(u, *e.1)) {
                // SAFETY: pos walks vertex u's exclusive segment, its
                // cross degree past starts[u]; the scan of those degrees
                // sized the buffer, so segments tile it without overlap.
                unsafe { ptr.get().add(pos).write(make(labels[u], labels[v as usize], first + i)) };
                pos += 1;
            }
        }
    });
    // SAFETY: counting and scattering apply the same predicate to the same
    // immutable inputs, so exactly the first `total` slots are initialized.
    unsafe { out.set_len(total) };
    out
}

/// The CSR of a **sorted** arc list (`entry` = arc and weight): each run of
/// equal arcs becomes one arc carrying the run's total weight.
fn csr_from_runs<T: Sync>(
    k: usize,
    sorted: &[T],
    entry: impl Fn(&T) -> ((V, V), u64) + Sync,
) -> (Csr, Vec<u64>) {
    let arc = |i: usize| entry(&sorted[i]).0;
    let distinct = pscc_runtime::par_count(sorted.len(), |i| i == 0 || arc(i) != arc(i - 1));
    let mut offsets = vec![0u64; k + 1];
    let (mut targets, mut counts) = (Vec::with_capacity(distinct), Vec::with_capacity(distinct));
    for (i, t) in sorted.iter().enumerate() {
        let ((a, b), w) = entry(t);
        if i > 0 && arc(i - 1) == (a, b) {
            counts[targets.len() - 1] += w;
        } else {
            assert!((a as usize) < k && (b as usize) < k, "arc {a} -> {b} out of range (k={k})");
            offsets[a as usize + 1] += 1;
            targets.push(b);
            counts.push(w);
        }
    }
    for c in 0..k {
        offsets[c + 1] += offsets[c];
    }
    (Csr::from_parts(offsets, targets), counts)
}

/// Emits the sorted union of `nb` and `ins` minus the members of `del`
/// that are not in `ins` (insertions win over deletions). All three
/// inputs are sorted and duplicate-free; each surviving target is emitted
/// exactly once, in ascending order.
fn merge_adjacency(nb: &[V], ins: &[(V, V)], del: &[(V, V)], mut emit: impl FnMut(V)) {
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i < nb.len() || j < ins.len() {
        let take_ins = j < ins.len() && (i >= nb.len() || ins[j].1 <= nb[i]);
        let v = if take_ins { ins[j].1 } else { nb[i] };
        let also_in_base = i < nb.len() && nb[i] == v;
        if take_ins {
            j += 1;
        }
        if also_in_base {
            i += 1;
        }
        while k < del.len() && del[k].1 < v {
            k += 1;
        }
        let deleted = k < del.len() && del[k].1 == v;
        if take_ins || !deleted {
            emit(v);
        }
    }
}

/// Raw-pointer wrapper letting disjoint parallel writers share one buffer.
struct SendPtr<T>(*mut T);
// SAFETY: SendPtr is only handed to the per-vertex passes above, where
// every task writes a disjoint slot or segment.
unsafe impl<T> Sync for SendPtr<T> {}
// SAFETY: see Sync above — plain memory, no thread affinity.
unsafe impl<T> Send for SendPtr<T> {}
impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn builds_sorted_adjacency() {
        let g = build_csr(3, &[(2, 0), (0, 2), (0, 1), (1, 0)]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn dedup_removes_duplicates_only() {
        let mut edges = vec![(1, 2), (0, 1), (1, 2), (0, 1), (2, 0)];
        dedup_edges(&mut edges);
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn empty_edge_list() {
        let g = build_csr(4, &[]);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn zero_vertices() {
        let g = build_csr(0, &[]);
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_source() {
        let _ = build_csr(2, &[(5, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_target() {
        let _ = build_csr(2, &[(0, 5)]);
    }

    #[test]
    fn isolated_vertices_have_empty_lists() {
        let g = build_csr(10, &[(0, 9)]);
        for v in 1..9 {
            assert!(g.neighbors(v).is_empty());
        }
        assert_eq!(g.neighbors(0), &[9]);
    }

    /// Oracle for merge_csr: rebuild from the merged edge list.
    fn merge_oracle(base: &Csr, ins: &[(V, V)], del: &[(V, V)]) -> Csr {
        let mut edges: Vec<(V, V)> = base.edges().filter(|e| !del.contains(e)).collect();
        edges.extend_from_slice(ins);
        dedup_edges(&mut edges);
        build_csr(base.n(), &edges)
    }

    #[test]
    fn merge_inserts_and_deletes() {
        let base = build_csr(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let ins = vec![(0, 3), (3, 0)];
        let del = vec![(0, 2), (1, 3)];
        let merged = merge_csr(&base, &ins, &del);
        assert_eq!(merged, merge_oracle(&base, &ins, &del));
        assert_eq!(merged.neighbors(0), &[1, 3]);
        assert_eq!(merged.neighbors(1), &[] as &[V]);
        assert_eq!(merged.neighbors(3), &[0]);
    }

    #[test]
    fn merge_empty_delta_is_identity() {
        let base = build_csr(5, &[(0, 1), (2, 4), (4, 4)]);
        assert_eq!(merge_csr(&base, &[], &[]), base);
    }

    #[test]
    fn merge_insert_wins_over_delete() {
        let base = build_csr(3, &[(0, 1)]);
        // Same edge inserted and deleted: present afterwards.
        let merged = merge_csr(&base, &[(0, 1)], &[(0, 1)]);
        assert_eq!(merged.neighbors(0), &[1]);
        // And for an edge absent from the base, too.
        let merged = merge_csr(&base, &[(2, 0)], &[(2, 0)]);
        assert_eq!(merged.neighbors(2), &[0]);
    }

    #[test]
    fn merge_ignores_redundant_operations() {
        let base = build_csr(3, &[(0, 1), (1, 2)]);
        // Inserting a present edge and deleting an absent one: no change.
        let merged = merge_csr(&base, &[(0, 1)], &[(2, 0)]);
        assert_eq!(merged, base);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn merge_rejects_out_of_range_insertion() {
        let base = build_csr(2, &[(0, 1)]);
        let _ = merge_csr(&base, &[(0, 5)], &[]);
    }

    #[test]
    fn merge_random_matches_rebuild_oracle() {
        use pscc_runtime::SplitMix64;
        let n = 300usize;
        let mut rng = SplitMix64::new(0xde17a);
        let pair =
            |rng: &mut SplitMix64| (rng.next_below(n as u64) as V, rng.next_below(n as u64) as V);
        let mut base_edges: Vec<(V, V)> = (0..3000).map(|_| pair(&mut rng)).collect();
        dedup_edges(&mut base_edges);
        let base = build_csr(n, &base_edges);
        for _ in 0..10 {
            let mut ins: Vec<(V, V)> = (0..200).map(|_| pair(&mut rng)).collect();
            dedup_edges(&mut ins);
            // Deletions: a mix of real edges and absent ones.
            let mut del: Vec<(V, V)> = base_edges.iter().step_by(7).copied().collect();
            del.extend((0..50).map(|_| pair(&mut rng)));
            dedup_edges(&mut del);
            assert_eq!(merge_csr(&base, &ins, &del), merge_oracle(&base, &ins, &del));
        }
    }

    /// The hash-map recount [`contract_csr`] replaced, kept as its oracle.
    fn contracted_support(csr: &Csr, labels: &[u32]) -> HashMap<(u32, u32), u64> {
        let mut support = HashMap::new();
        for (u, v) in csr.edges() {
            let (a, b) = (labels[u as usize], labels[v as usize]);
            if a != b {
                *support.entry((a, b)).or_insert(0u64) += 1;
            }
        }
        support
    }

    /// `(pair, multiplicity)` entries of a contraction, as an oracle-shaped map.
    fn entries((csr, counts): &(Csr, Vec<u64>)) -> HashMap<(u32, u32), u64> {
        csr.edges().zip(counts.iter().copied()).collect()
    }

    #[test]
    fn contraction_counts_cross_label_multiplicities() {
        // Labels: {0,1} -> 0, {2} -> 1, {3} -> 2.
        let labels = vec![0u32, 0, 1, 2];
        let g = build_csr(4, &[(0, 1), (1, 0), (0, 2), (1, 2), (2, 3), (3, 3)]);
        let (dag, counts) = contract_csr(&g, None, &labels, 3);
        // Intra-label edges (0,1), (1,0) and the self loop (3,3) vanish;
        // the two parallel supports of (0 -> 1) are both counted.
        assert_eq!(dag, build_csr(3, &[(0, 1), (1, 2)]));
        assert_eq!(counts, vec![2, 1]);
    }

    #[test]
    fn contraction_stays_in_lockstep_with_merge() {
        let labels = vec![0u32, 0, 1];
        let base = build_csr(3, &[(0, 2), (1, 2)]);
        let merged = merge_csr(&base, &[], &[(1, 2)]);
        let (_, mut counts) = contract_csr(&base, None, &labels, 2);
        // The caller-side decrement matches a recount over the merged CSR.
        counts[0] -= 1;
        assert_eq!(counts, contract_csr(&merged, None, &labels, 2).1);
    }

    #[test]
    fn contraction_matches_the_hash_map_oracle_and_recontracts_with_weights() {
        use pscc_runtime::SplitMix64;
        let (n, k) = (2000usize, 300usize);
        let mut rng = SplitMix64::new(0xc0a7);
        let edges: Vec<(V, V)> = (0..30_000)
            .map(|_| (rng.next_below(n as u64) as V, rng.next_below(n as u64) as V))
            .collect();
        let g = build_csr(n, &edges);
        let labels: Vec<u32> = (0..n).map(|_| rng.next_below(k as u64) as u32).collect();
        let first = contract_csr(&g, None, &labels, k);
        let oracle = contracted_support(&g, &labels);
        assert_eq!(entries(&first), oracle);
        let arcs: Vec<(V, V)> = oracle.keys().copied().collect();
        assert_eq!(first.0, build_csr(k, &arcs));
        // Merging labels once more through a map equals contracting the
        // graph through the composed labeling.
        let map: Vec<u32> = (0..k).map(|_| rng.next_below(40) as u32).collect();
        let composed: Vec<u32> = labels.iter().map(|&l| map[l as usize]).collect();
        let again = contract_csr(&first.0, Some(&first.1), &map, 40);
        assert_eq!(entries(&again), contracted_support(&g, &composed));
        assert_eq!(again.0, contract_csr(&g, None, &composed, 40).0);
    }

    #[test]
    fn weighted_arc_list_sums_repeats() {
        let (csr, counts) =
            csr_from_weighted_arcs(3, vec![((2, 0), 4), ((0, 1), 1), ((2, 0), 3), ((0, 2), 5)]);
        assert_eq!(csr, build_csr(3, &[(0, 1), (0, 2), (2, 0)]));
        assert_eq!(counts, vec![1, 5, 7]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn contraction_rejects_labels_out_of_range() {
        let _ = contract_csr(&build_csr(2, &[(0, 1)]), None, &[0, 5], 2);
    }

    #[test]
    fn large_random_build_consistent() {
        use pscc_runtime::hash64;
        let n = 1000usize;
        let edges: Vec<(V, V)> = (0..20_000u64)
            .map(|i| {
                let h = hash64(i);
                (((h >> 32) % n as u64) as V, (h % n as u64) as V)
            })
            .collect();
        let g = build_csr(n, &edges);
        // Every adjacency list is sorted and duplicate-free.
        for v in 0..n as V {
            let ns = g.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "v={v}");
        }
        // Edge count equals the number of distinct pairs.
        let mut uniq = edges.clone();
        dedup_edges(&mut uniq);
        assert_eq!(g.m(), uniq.len());
    }
}
