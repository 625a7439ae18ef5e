//! Parallel CSR construction from edge lists, and parallel CSR *merging*
//! for batched edge updates.
//!
//! Edges are sorted (parallel), deduplicated, and packed into offsets +
//! targets. Self loops are preserved (SCC/reachability treat them as
//! no-ops); duplicates are removed so degree-based heuristics stay honest.
//!
//! [`merge_csr`] applies a sorted insertion/deletion delta to an existing
//! CSR by the **run-copy splice** ([`splice_rows`]): only the rows the
//! delta touches are merged, every run of untouched rows between them is
//! one memory copy with its offsets shifted by the running size change,
//! in parallel over fixed-size row chunks. A one-edge write costs
//! O(|δ| log |δ| + Σ deg(touched)) merge work plus a bandwidth-bound copy
//! of `(n + 1)·8 + m·4` bytes per direction — no per-vertex merge, no
//! per-vertex search into the delta. The same kernel realigns the engine's
//! arc-support table ([`splice_values`]) and patches its hub labels
//! ([`merge_rows`] on `u32` offsets).

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
/// Only the rows the delta touches — the sources of `insertions ∪
/// deletions` — are merged (see [`merge_rows`]); every other row is copied
/// run-wise by [`splice_rows`]. The cost is O(|δ| + Σ deg(touched)) merge
/// work plus a bandwidth-bound copy of `(n + 1)·8 + m·4` bytes, and the
/// output keeps the sorted, duplicate-free adjacency invariant of
/// [`build_csr`].
pub fn merge_csr(base: &Csr, insertions: &[(V, V)], deletions: &[(V, V)]) -> Csr {
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
    let (offsets, targets) = merge_rows(base.offsets(), base.targets(), insertions, deletions);
    Csr::from_parts(offsets, targets)
}

/// Merges a delta into the sorted, duplicate-free rows of a CSR-shaped
/// array (`offsets`, `values`): row `r` becomes its old values minus the
/// `v` of every `(r, v)` in `deletions`, plus the `v` of every `(r, v)` in
/// `insertions` (insertions win), still sorted and duplicate-free.
///
/// Both lists must be sorted with no duplicates and name rows `< n`. One
/// walk over them finds the touched rows and each one's slice of both
/// lists; pass 1 sizes only those rows, pass 2 ([`splice_rows`]) merges
/// them and copies everything else run-wise.
pub fn merge_rows<O: RowOffset>(
    offsets: &[O],
    values: &[V],
    insertions: &[(V, V)],
    deletions: &[(V, V)],
) -> (Vec<O>, Vec<V>) {
    // Real asserts, not debug: unsorted input would hand a row the wrong
    // slice of the delta and corrupt the output. The O(|delta|) scans are
    // noise next to the copy.
    assert!(insertions.windows(2).all(|w| w[0] < w[1]), "insertions must be sorted+deduped");
    assert!(deletions.windows(2).all(|w| w[0] < w[1]), "deletions must be sorted+deduped");
    // touched[i]'s edges are ins[ins_at[i]..ins_at[i + 1]] and likewise del.
    let (mut touched, mut ins_at, mut del_at) = (Vec::new(), vec![0], vec![0]);
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        let u = match (insertions.get(i), deletions.get(j)) {
            (Some(a), Some(b)) => a.0.min(b.0),
            (Some(a), None) => a.0,
            (None, Some(b)) => b.0,
            (None, None) => break,
        };
        while insertions.get(i).is_some_and(|e| e.0 == u) {
            i += 1;
        }
        while deletions.get(j).is_some_and(|e| e.0 == u) {
            j += 1;
        }
        touched.push(u);
        ins_at.push(i);
        del_at.push(j);
    }
    let row = |i: usize| {
        let u = touched[i] as usize;
        assert!(u + 1 < offsets.len(), "delta row {u} out of range (n={})", offsets.len() - 1);
        let old = &values[offsets[u].get()..offsets[u + 1].get()];
        (old, &insertions[ins_at[i]..ins_at[i + 1]], &deletions[del_at[i]..del_at[i + 1]])
    };
    let new_len = pscc_runtime::tabulate(touched.len(), |i| {
        let (old, ins, del) = row(i);
        let mut count = 0usize;
        merge_adjacency(old, ins, del, |_| count += 1);
        count
    });
    splice_rows(offsets, values, &touched, &new_len, |i, emit| {
        let (old, ins, del) = row(i);
        merge_adjacency(old, ins, del, emit);
    })
}

/// An offset type of a CSR-shaped array (`offsets[r]..offsets[r + 1]` is
/// row `r`'s slice of the values): `u64` for graph CSRs, `u32` for the
/// label tier's hub arrays.
pub trait RowOffset: Copy + Send + Sync {
    /// Largest representable offset.
    const MAX: usize;
    /// The offset as an index.
    fn get(self) -> usize;
    /// An index `<= Self::MAX` as an offset.
    fn of(i: usize) -> Self;
}

impl RowOffset for u64 {
    const MAX: usize = usize::MAX;
    #[inline]
    fn get(self) -> usize {
        self as usize
    }
    #[inline]
    fn of(i: usize) -> Self {
        i as u64
    }
}

impl RowOffset for u32 {
    const MAX: usize = u32::MAX as usize;
    #[inline]
    fn get(self) -> usize {
        self as usize
    }
    #[inline]
    fn of(i: usize) -> Self {
        i as u32
    }
}

/// Rows per task of [`splice_rows`] / [`splice_values`]: one worker copies
/// a chunk, starting from the prefix shift of the touched rows before it.
pub const SPLICE_CHUNK: usize = 1 << 12;

/// The run-copy splice: row `touched[i]` of the CSR-shaped array
/// (`offsets`, `values`) becomes the `new_len[i]` values `fill(i, emit)`
/// emits; every other row keeps its values. Returns the new offsets and
/// values.
///
/// Untouched rows are never visited one by one: each run of them between
/// two touched rows is one `copy_nonoverlapping` of its values, and its
/// offsets are shifted by the running size change. Rows are cut into
/// chunks of [`SPLICE_CHUNK`], copied in parallel, each chunk starting
/// from the prefix shift of the touched rows before it. The cost is the
/// fill work of the touched rows plus a bandwidth-bound copy of both
/// arrays, whatever the number of touched rows.
///
/// `touched` must be strictly ascending and `< n`, and `fill(i, _)` must
/// emit exactly `new_len[i]` values; both are asserted.
pub fn splice_rows<O: RowOffset, T: Copy + Send + Sync>(
    offsets: &[O],
    values: &[T],
    touched: &[V],
    new_len: &[usize],
    fill: impl Fn(usize, &mut dyn FnMut(T)) + Sync,
) -> (Vec<O>, Vec<T>) {
    assert_eq!(touched.len(), new_len.len(), "one new length per touched row");
    let n = check_rows(offsets, values, touched);
    // shift[i]: size change of the rows touched[..i] (wrapping; offsets
    // past a shrunken row are reached by adding it back).
    let mut shift = Vec::with_capacity(touched.len() + 1);
    shift.push(0usize);
    for (&t, &len) in touched.iter().zip(new_len) {
        let old_len = offsets[t as usize + 1].get().wrapping_sub(offsets[t as usize].get());
        shift.push(shift[shift.len() - 1].wrapping_add(len).wrapping_sub(old_len));
    }
    let new_at = |r: usize| {
        let before = touched.partition_point(|&t| (t as usize) < r);
        offsets[r].get().wrapping_add(shift[before])
    };
    let m = new_at(n);
    assert!(m <= O::MAX, "spliced array of {m} values overflows its offset type");
    let mut new_offsets: Vec<O> = Vec::with_capacity(n + 1);
    let out = splice(
        offsets,
        values,
        touched,
        |i| new_len[i],
        new_at,
        Some(SendPtr(new_offsets.as_mut_ptr())),
        fill,
    );
    // SAFETY: `splice` returned, so its chunks wrote every row offset in
    // 0..n; slot n is the one written here, inside the n + 1 capacity.
    unsafe {
        new_offsets.as_mut_ptr().add(n).write(O::of(m));
        new_offsets.set_len(n + 1);
    }
    (new_offsets, out)
}

/// [`splice_rows`] when the new offsets are already known (a table aligned
/// with a CSR whose new version exists): the new values only, row
/// `touched[i]` filled with `new_offsets[t + 1] - new_offsets[t]` values,
/// every other row copied run-wise from `values`. Asserts that untouched
/// rows keep their lengths.
pub fn splice_values<O: RowOffset, T: Copy + Send + Sync>(
    offsets: &[O],
    values: &[T],
    touched: &[V],
    new_offsets: &[O],
    fill: impl Fn(usize, &mut dyn FnMut(T)) + Sync,
) -> Vec<T> {
    let n = check_rows(offsets, values, touched);
    assert_eq!(new_offsets.len(), n + 1, "new offsets must cover the same rows");
    let len = |i: usize| {
        let t = touched[i] as usize;
        new_offsets[t + 1].get().wrapping_sub(new_offsets[t].get())
    };
    splice(offsets, values, touched, len, |r| new_offsets[r].get(), None, fill)
}

/// Checks the shape shared by both splice entries and returns `n`.
fn check_rows<O: RowOffset, T>(offsets: &[O], values: &[T], touched: &[V]) -> usize {
    assert!(!offsets.is_empty(), "offsets must have length n+1");
    let n = offsets.len() - 1;
    assert_eq!(offsets[0].get(), 0, "offsets must start at 0");
    assert_eq!(offsets[n].get(), values.len(), "offsets must end at the value count");
    assert!(touched.windows(2).all(|w| w[0] < w[1]), "touched rows must be strictly ascending");
    assert!(touched.last().is_none_or(|&t| (t as usize) < n), "touched row out of range (n={n})");
    n
}

/// The chunked walk behind [`splice_rows`] and [`splice_values`].
/// `new_at(r)` is row `r`'s new offset (asked at chunk boundaries only),
/// `new_len(i)` touched row `i`'s new length; row offsets are written to
/// `new_offsets` when given. Every chunk owns the output range
/// `new_at(lo)..new_at(hi)` of its rows `lo..hi`, checks that its runs and
/// rows tile exactly that range, and writes nowhere else.
fn splice<O: RowOffset, T: Copy + Send + Sync>(
    offsets: &[O],
    values: &[T],
    touched: &[V],
    new_len: impl Fn(usize) -> usize + Sync,
    new_at: impl Fn(usize) -> usize + Sync,
    new_offsets: Option<SendPtr<O>>,
    fill: impl Fn(usize, &mut dyn FnMut(T)) + Sync,
) -> Vec<T> {
    let n = offsets.len() - 1;
    let m = new_at(n);
    assert_eq!(new_at(0), 0, "new offsets must start at 0");
    let mut out: Vec<T> = Vec::with_capacity(m);
    let dst = SendPtr(out.as_mut_ptr());
    pscc_runtime::par_range(0..n.div_ceil(SPLICE_CHUNK), 1, &|chunks| {
        for c in chunks {
            let (lo, hi) = (c * SPLICE_CHUNK, ((c + 1) * SPLICE_CHUNK).min(n));
            let (mut pos, end) = (new_at(lo), new_at(hi));
            assert!(pos <= end && end <= m, "rows {lo}..{hi} map outside the output");
            let mut i = touched.partition_point(|&t| (t as usize) < lo);
            let mut r = lo;
            loop {
                // The untouched run r..next: one copy, offsets shifted.
                let next = touched.get(i).map_or(hi, |&t| (t as usize).min(hi));
                let run = &values[offsets[r].get()..offsets[next].get()];
                assert!(run.len() <= end - pos, "an untouched row changed length");
                if let Some(off) = &new_offsets {
                    let shift = pos.wrapping_sub(offsets[r].get());
                    for (x, o) in (r..next).zip(&offsets[r..next]) {
                        // SAFETY: x is a row of this chunk's lo..hi, and
                        // each chunk writes only its own rows' offsets.
                        unsafe { off.get().add(x).write(O::of(o.get().wrapping_add(shift))) };
                    }
                }
                // SAFETY: pos..pos + run.len() lies in this chunk's own
                // output range new_at(lo)..new_at(hi) (asserted above),
                // which no other chunk writes; the source is a live slice.
                unsafe {
                    std::ptr::copy_nonoverlapping(run.as_ptr(), dst.get().add(pos), run.len())
                };
                pos += run.len();
                if next == hi {
                    break;
                }
                // The touched row `next`: filled in place.
                let len = new_len(i);
                assert!(len <= end - pos, "touched row {next} overflows its chunk");
                if let Some(off) = &new_offsets {
                    // SAFETY: `next` is a row of this chunk's lo..hi.
                    unsafe { off.get().add(next).write(O::of(pos)) };
                }
                let mut written = 0usize;
                fill(i, &mut |v| {
                    assert!(written < len, "fill emitted more than {len} values for row {next}");
                    // SAFETY: pos + written < pos + len <= end, inside this
                    // chunk's own output range.
                    unsafe { dst.get().add(pos + written).write(v) };
                    written += 1;
                });
                assert_eq!(written, len, "fill emitted too few values for row {next}");
                pos += len;
                r = next + 1;
                i += 1;
            }
            assert_eq!(pos, end, "an untouched row in {lo}..{hi} changed length");
        }
    });
    // SAFETY: the chunks' ranges new_at(lo)..new_at(hi) tile 0..m (new_at
    // is one pure function, new_at(0) == 0), and each chunk asserted that
    // it wrote its whole range; a panic unwinds past this with length 0.
    unsafe { out.set_len(m) };
    out
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
pub(crate) struct SendPtr<T>(pub(crate) *mut T);
// SAFETY: SendPtr is only handed to the parallel passes above and to
// `Csr::transpose`, where every task writes a disjoint slot, segment,
// chunk, block row or column.
unsafe impl<T> Sync for SendPtr<T> {}
// SAFETY: see Sync above — plain memory, no thread affinity.
unsafe impl<T> Send for SendPtr<T> {}
impl<T> SendPtr<T> {
    pub(crate) fn get(&self) -> *mut T {
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
        let mut edges: Vec<(V, V)> =
            base.edges().filter(|e| del.binary_search(e).is_err()).collect();
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

    /// Deltas on the first and last rows, on the rows around every chunk
    /// boundary and on every row at once, over a graph of more than two
    /// chunks, at widths 1, 2 and 8.
    #[test]
    fn merge_random_matches_rebuild_oracle() {
        use pscc_runtime::SplitMix64;
        let (n, chunk) = (3 * SPLICE_CHUNK + 17, SPLICE_CHUNK as V);
        let mut rng = SplitMix64::new(0xde17a);
        let target = |rng: &mut SplitMix64| rng.next_below(n as u64) as V;
        let mut base_edges: Vec<(V, V)> =
            (0..8 * n).map(|_| (target(&mut rng), target(&mut rng))).collect();
        dedup_edges(&mut base_edges);
        let base = build_csr(n, &base_edges);
        let last = n as V - 1;
        let edge_rows = [0, last, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk, 3 * chunk];
        type Edges = Vec<(V, V)>;
        let mut deltas: Vec<(Edges, Edges)> = Vec::new();
        // One row at a time: insert, delete a present edge, delete the
        // whole row, and insert plus delete on the same row.
        for &u in &edge_rows {
            let row: Vec<(V, V)> = base.neighbors(u).iter().map(|&v| (u, v)).collect();
            deltas.push((vec![(u, target(&mut rng))], Vec::new()));
            deltas.push((Vec::new(), row.iter().take(1).copied().collect()));
            deltas.push((Vec::new(), row.clone()));
            deltas.push((
                vec![(u, target(&mut rng)), (u, last)],
                row.iter().step_by(2).copied().collect(),
            ));
        }
        // All boundary rows together.
        let ins: Vec<(V, V)> = edge_rows.iter().map(|&u| (u, target(&mut rng))).collect();
        deltas.push((ins, edge_rows.iter().map(|&u| (u, 0)).collect()));
        // Every row at once, with present and absent deletions.
        let ins: Vec<(V, V)> = (0..n as V).map(|u| (u, target(&mut rng))).collect();
        let mut del: Vec<(V, V)> = base_edges.iter().step_by(3).copied().collect();
        del.extend((0..n as V).map(|u| (u, target(&mut rng))));
        deltas.push((ins, del));
        for (mut ins, mut del) in deltas {
            dedup_edges(&mut ins);
            dedup_edges(&mut del);
            let want = merge_oracle(&base, &ins, &del);
            for width in [1, 2, 8] {
                let got = pscc_runtime::with_threads(width, || merge_csr(&base, &ins, &del));
                assert_eq!(got, want, "width {width}, {} ins, {} del", ins.len(), del.len());
            }
        }
    }

    #[test]
    fn splice_rows_works_on_u32_offsets_and_empty_rows() {
        // Rows: [1, 2], [], [3], [] -> row 1 gains [7, 8], row 2 empties.
        let (offsets, values) = (vec![0u32, 2, 2, 3, 3], vec![1u32, 2, 3]);
        let (o, v) = splice_rows(&offsets, &values, &[1, 2], &[2, 0], |i, emit| {
            if i == 0 {
                emit(7);
                emit(8);
            }
        });
        assert_eq!((o, v), (vec![0u32, 2, 4, 4, 4], vec![1, 2, 7, 8]));
        // No touched row: an exact copy.
        let (o, v) = splice_rows(&offsets, &values, &[], &[], |_, _| {});
        assert_eq!((o, v), (offsets, values));
    }

    #[test]
    fn splice_values_follows_known_offsets() {
        let old = build_csr(5, &[(0, 1), (0, 2), (3, 4)]);
        let new = merge_csr(&old, &[(3, 0)], &[(0, 2)]);
        let counts: Vec<u64> = vec![10, 20, 30];
        let got = splice_values(old.offsets(), &counts, &[0, 3], new.offsets(), |i, emit| {
            for k in 0..new.degree([0, 3][i]) {
                emit(100 + k as u64);
            }
        });
        assert_eq!(got, vec![100, 100, 101]);
    }

    #[test]
    #[should_panic(expected = "changed length")]
    fn splice_values_rejects_an_untouched_row_that_moved() {
        let old = build_csr(3, &[(0, 1), (1, 2)]);
        let new = merge_csr(&old, &[(1, 0)], &[]);
        let _ = splice_values(old.offsets(), old.targets(), &[], new.offsets(), |_, _| {});
    }

    #[test]
    #[should_panic(expected = "fill emitted more")]
    fn splice_rejects_a_fill_longer_than_its_row() {
        let _ = splice_rows(&[0u64, 1], &[5u32], &[0], &[1], |_, emit| {
            emit(1);
            emit(2);
        });
    }

    #[test]
    #[should_panic(expected = "too few")]
    fn splice_rejects_a_fill_shorter_than_its_row() {
        let _ = splice_rows(&[0u64, 1], &[5u32], &[0], &[2], |_, emit| emit(1));
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
