//! Single-source reachability with VGC local search and the dense-mode
//! direction optimization (§3.1, §4.2).
//!
//! The search explores the subgraph induced by vertices whose label equals
//! the source's label (cross edges are skipped, Alg. 1 comment on line 5).
//! Finished vertices carry `FINAL_TAG`-tagged labels, so the label check
//! also excludes them.

use std::sync::atomic::{AtomicU64, Ordering};

use pscc_bag::HashBag;
use pscc_graph::{DiGraph, V};
use pscc_runtime::{pack_index, par_range, par_range_with, AtomicBits};

use crate::config::ReachParams;

/// Statistics of one single-reachability search.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SingleReachOutcome {
    /// Number of frontier rounds (synchronization barriers).
    pub rounds: usize,
    /// How many of those ran in dense (bottom-up) mode.
    pub dense_rounds: usize,
    /// Vertices visited (including the source).
    pub visited: usize,
    /// Edge inspections performed (both successful and unsuccessful).
    pub edges_scanned: u64,
}

/// Frontiers at most this large are processed sequentially without the
/// hash bag (the bag's per-round extract cost dominates tiny rounds); the
/// peel of `scc::trim` draws the same line for its fork-joins.
pub(crate) const SEQ_FRONTIER: usize = 64;

/// Dense-mode switch (§4.2): a round goes bottom-up when
/// `|F| + edges(F) > m / DENSE_THRESHOLD`.
const DENSE_THRESHOLD: usize = 20;

/// VGC local search from frontier vertex `v` (§3.2): a sequential multi-hop
/// exploration of the vertices labelled like `v`, bounded by `tau` neighbour
/// visits. Newly visited vertices queue up in `queue`; whatever the search
/// has no room or no budget left for goes to `emit` — the next frontier.
/// Returns the number of neighbour visits.
fn local_search(
    csr: &pscc_graph::Csr,
    labels: &[AtomicU64],
    visited: &AtomicBits,
    v: V,
    tau: usize,
    queue: &mut Vec<V>,
    mut emit: impl FnMut(V),
) -> u64 {
    let lv = labels[v as usize].load(Ordering::Relaxed);
    queue.clear();
    queue.push(v);
    let mut head = 0usize;
    let mut t = 0usize;
    while head < queue.len() {
        let x = queue[head];
        head += 1;
        for &u in csr.neighbors(x) {
            t += 1;
            if labels[u as usize].load(Ordering::Relaxed) == lv && visited.test_and_set(u as usize)
            {
                if queue.len() < tau {
                    queue.push(u);
                } else {
                    emit(u);
                }
            }
        }
        if t >= tau {
            break;
        }
    }
    queue[head..].iter().for_each(|&u| emit(u));
    t as u64
}

/// One sequential sparse round: expands `frontier` into the next frontier,
/// honouring the same label restriction and VGC local search as the
/// parallel path.
fn sparse_round_seq(
    csr: &pscc_graph::Csr,
    labels: &[AtomicU64],
    params: &ReachParams,
    visited: &AtomicBits,
    frontier: &[V],
    scanned: &mut u64,
) -> Vec<V> {
    let tau = params.tau;
    let mut next: Vec<V> = Vec::new();
    let mut queue: Vec<V> = Vec::new();
    for &v in frontier {
        if params.vgc && csr.degree(v) < tau {
            *scanned += local_search(csr, labels, visited, v, tau, &mut queue, |u| next.push(u));
        } else {
            let lv = labels[v as usize].load(Ordering::Relaxed);
            *scanned += csr.degree(v) as u64;
            for &u in csr.neighbors(v) {
                if labels[u as usize].load(Ordering::Relaxed) == lv
                    && visited.test_and_set(u as usize)
                {
                    next.push(u);
                }
            }
        }
    }
    next
}

/// Runs a reachability search from `src` following out-edges if `forward`
/// (in-edges otherwise), restricted to vertices labelled like `src`.
///
/// `visited` must be all-clear on entry and has `visited[v]` set for every
/// reached vertex (including `src`) on exit.
pub fn single_reach(
    g: &DiGraph,
    src: V,
    forward: bool,
    labels: &[AtomicU64],
    params: &ReachParams,
    visited: &AtomicBits,
) -> SingleReachOutcome {
    let bag = HashBag::with_config(g.n(), params.bag);
    single_reach_in(g, src, forward, labels, params, visited, &bag)
}

/// [`single_reach`] with the sparse frontier kept in the caller's `bag`
/// (empty on entry and on return), which must have room for every vertex
/// labelled like `src`. The slots are 64-bit whatever the item, so this is
/// the bag the run's multi-reach searches keep their pairs in.
pub(crate) fn single_reach_in(
    g: &DiGraph,
    src: V,
    forward: bool,
    labels: &[AtomicU64],
    params: &ReachParams,
    visited: &AtomicBits,
    bag: &HashBag<u64>,
) -> SingleReachOutcome {
    let n = g.n();
    let m = g.m().max(1);
    debug_assert_eq!(visited.count_ones(), 0, "visited must start clear");
    visited.set(src as usize);

    let mut out = SingleReachOutcome::default();
    let mut frontier: Vec<V> = vec![src];
    let csr = g.csr_dir(forward);
    let rev = g.csr_dir(!forward);
    let src_label = labels[src as usize].load(Ordering::Relaxed);
    // Frontier bitset reused across dense rounds.
    let cur_bits = AtomicBits::new(n);

    while !frontier.is_empty() {
        out.rounds += 1;
        let frontier_edges: u64 =
            pscc_runtime::par_sum_u64(frontier.len(), |i| csr.degree(frontier[i]) as u64);
        let go_dense = params.use_dense
            && frontier.len() as u64 + frontier_edges > m.div_ceil(DENSE_THRESHOLD) as u64;

        if !go_dense && frontier.len() <= SEQ_FRONTIER {
            // Tiny frontier: a sequential round into a plain Vec. Skipping
            // the hash bag here is what keeps high-diameter searches (one
            // vertex per round for thousands of rounds) from paying the
            // per-round bag extract cost — FW-BW on a path was cubic
            // without it.
            frontier =
                sparse_round_seq(csr, labels, params, visited, &frontier, &mut out.edges_scanned);
        } else if go_dense {
            out.dense_rounds += 1;
            // Mark the current frontier in a bitset.
            cur_bits.clear_all();
            par_range(0..frontier.len(), 2048, &|r| {
                for i in r {
                    cur_bits.set(frontier[i] as usize);
                }
            });
            // Bottom-up: every unvisited vertex u of the source's
            // subproblem checks its *reverse*-direction neighbours for one
            // in the frontier; one hit suffices (early exit — the work
            // saving that makes dense mode pay off). The label is compared
            // before the list is touched: a finished vertex, or one of
            // another subproblem, costs one load per dense round, not its
            // degree. Frontier vertices are labelled like the source, so
            // the neighbours need no label check of their own.
            let next_bits = AtomicBits::new(n);
            let scanned = par_range_with(0..n, 1024, &|| 0u64, &|scanned, r| {
                for u in r {
                    if visited.get(u) || labels[u].load(Ordering::Relaxed) != src_label {
                        continue;
                    }
                    for &w in rev.neighbors(u as V) {
                        *scanned += 1;
                        if cur_bits.get(w as usize) {
                            visited.set(u);
                            next_bits.set(u);
                            break;
                        }
                    }
                }
            });
            out.edges_scanned += scanned.into_iter().sum::<u64>();
            frontier = pack_index(n, |u| next_bits.get(u)).into_iter().map(|u| u as V).collect();
        } else {
            // Sparse round: hash-bag frontier, optional VGC local search.
            // Queue and edge tally are per worker, not per frontier vertex.
            let tau = params.tau;
            let init = || (Vec::<V>::with_capacity(tau.min(1 << 14)), 0u64);
            let workers = par_range_with(0..frontier.len(), 1, &init, &|(queue, scanned), r| {
                for i in r {
                    let v = frontier[i];
                    let deg = csr.degree(v);
                    if params.vgc && deg < tau {
                        *scanned += local_search(csr, labels, visited, v, tau, queue, |u| {
                            bag.insert(u as u64)
                        });
                    } else {
                        // Standard neighbour scan. The inner par_range runs
                        // sequentially when this round is already parallel
                        // (the runtime keeps nested regions on one worker);
                        // huge-frontier rounds are dense-mode's job instead.
                        *scanned += deg as u64;
                        let lv = labels[v as usize].load(Ordering::Relaxed);
                        let ns = csr.neighbors(v);
                        par_range(0..ns.len(), 2048, &|rr| {
                            for &u in &ns[rr] {
                                if labels[u as usize].load(Ordering::Relaxed) == lv
                                    && visited.test_and_set(u as usize)
                                {
                                    bag.insert(u as u64);
                                }
                            }
                        });
                    }
                }
            });
            out.edges_scanned += workers.into_iter().map(|(_, scanned)| scanned).sum::<u64>();
            frontier = bag.extract_map(|u| u as V);
        }
    }
    out.visited = visited.count_ones();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_graph::generators::random::gnm_digraph;
    use pscc_graph::generators::simple::{cycle_digraph, path_digraph};

    fn fresh_labels(n: usize) -> Vec<AtomicU64> {
        (0..n).map(|_| AtomicU64::new(0)).collect()
    }

    fn reach_set(g: &DiGraph, src: V, forward: bool, params: &ReachParams) -> Vec<bool> {
        let labels = fresh_labels(g.n());
        let visited = AtomicBits::new(g.n());
        single_reach(g, src, forward, &labels, params, &visited);
        (0..g.n()).map(|v| visited.get(v)).collect()
    }

    fn seq_reach(g: &DiGraph, src: V, forward: bool) -> Vec<bool> {
        let mut vis = vec![false; g.n()];
        let mut stack = vec![src];
        vis[src as usize] = true;
        while let Some(v) = stack.pop() {
            for &u in g.neighbors_dir(v, forward) {
                if !vis[u as usize] {
                    vis[u as usize] = true;
                    stack.push(u);
                }
            }
        }
        vis
    }

    #[test]
    fn path_forward_reaches_suffix() {
        let g = path_digraph(10);
        let got = reach_set(&g, 4, true, &ReachParams::default());
        for (v, &reached) in got.iter().enumerate() {
            assert_eq!(reached, v >= 4, "v={v}");
        }
    }

    #[test]
    fn path_backward_reaches_prefix() {
        let g = path_digraph(10);
        let got = reach_set(&g, 4, false, &ReachParams::default());
        for (v, &reached) in got.iter().enumerate() {
            assert_eq!(reached, v <= 4, "v={v}");
        }
    }

    #[test]
    fn cycle_reaches_everything() {
        let g = cycle_digraph(100);
        let got = reach_set(&g, 13, true, &ReachParams::default());
        assert!(got.iter().all(|&b| b));
    }

    #[test]
    fn vgc_reduces_rounds_on_long_path() {
        let g = path_digraph(2000);
        let labels = fresh_labels(g.n());

        let vis_plain = AtomicBits::new(g.n());
        let plain = single_reach(&g, 0, true, &labels, &ReachParams::plain(), &vis_plain);

        let vis_vgc = AtomicBits::new(g.n());
        let p = ReachParams { use_dense: false, ..ReachParams::default() };
        let vgc = single_reach(&g, 0, true, &labels, &p, &vis_vgc);

        assert_eq!(plain.visited, 2000);
        assert_eq!(vgc.visited, 2000);
        assert!(
            vgc.rounds * 10 <= plain.rounds,
            "VGC rounds {} vs plain {}",
            vgc.rounds,
            plain.rounds
        );
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        for seed in 0..5u64 {
            let g = gnm_digraph(300, 900, seed);
            for &vgc in &[false, true] {
                for &dense in &[false, true] {
                    let params = ReachParams { vgc, use_dense: dense, ..ReachParams::default() };
                    let got = reach_set(&g, 0, true, &params);
                    let want = seq_reach(&g, 0, true);
                    assert_eq!(got, want, "seed={seed} vgc={vgc} dense={dense}");
                }
            }
        }
    }

    #[test]
    fn backward_matches_sequential() {
        let g = gnm_digraph(200, 800, 9);
        let got = reach_set(&g, 5, false, &ReachParams::default());
        let want = seq_reach(&g, 5, false);
        assert_eq!(got, want);
    }

    #[test]
    fn respects_label_boundaries() {
        // 0 -> 1 -> 2, but vertex 2 has a different label: unreachable.
        let g = path_digraph(3);
        let labels = fresh_labels(3);
        labels[2].store(99, Ordering::Relaxed);
        let visited = AtomicBits::new(3);
        single_reach(&g, 0, true, &labels, &ReachParams::default(), &visited);
        assert!(visited.get(0) && visited.get(1));
        assert!(!visited.get(2));
    }

    #[test]
    fn tau_one_equals_plain_visits() {
        let g = gnm_digraph(150, 600, 3);
        let p = ReachParams { tau: 1, ..ReachParams::default() };
        let got = reach_set(&g, 0, true, &p);
        let want = seq_reach(&g, 0, true);
        assert_eq!(got, want);
    }

    #[test]
    fn isolated_source_visits_only_itself() {
        let g = DiGraph::from_edges(5, &[(1, 2)]);
        let got = reach_set(&g, 0, true, &ReachParams::default());
        assert_eq!(got, vec![true, false, false, false, false]);
    }

    #[test]
    fn dense_mode_triggers_on_bushy_graph() {
        // A star from the source forces a huge frontier immediately.
        let n = 5000;
        let mut edges: Vec<(V, V)> = (1..n as V).map(|v| (0, v)).collect();
        // Add a second layer so dense mode has something to do.
        edges.extend((1..n as V).map(|v| (v, (v % 7) + 1)));
        let g = DiGraph::from_edges(n, &edges);
        let labels = fresh_labels(n);
        let visited = AtomicBits::new(n);
        let outcome = single_reach(&g, 0, true, &labels, &ReachParams::default(), &visited);
        assert_eq!(outcome.visited, n);
        assert!(outcome.dense_rounds >= 1, "expected a dense round");
        // Dense result must still match sequential reachability.
        let want = seq_reach(&g, 0, true);
        for (v, &w) in want.iter().enumerate() {
            assert_eq!(visited.get(v), w);
        }
    }

    #[test]
    fn a_dense_round_does_not_read_the_edges_of_finished_vertices() {
        // Live part: k triangles s → a_i → b_i → s through one source — the
        // a's make a frontier wide enough to go dense. Finished part: a
        // star of 30·k leaves into one center, ten times the live edges.
        let k: V = 1000;
        let (center, leaves) = (2 * k + 1, 30 * k);
        let mut edges: Vec<(V, V)> =
            (1..=k).flat_map(|i| [(0, i), (i, k + i), (k + i, 0)]).collect();
        edges.extend((1..=leaves).map(|j| (center + j, center)));
        let n = (center + leaves + 1) as usize;
        let g = DiGraph::from_edges(n, &edges);
        let labels = fresh_labels(n);
        for (v, label) in labels.iter().enumerate().skip(center as usize) {
            label.store(crate::FINAL_TAG | v as u64, Ordering::Relaxed);
        }

        let search = |use_dense| {
            let visited = AtomicBits::new(n);
            let params = ReachParams { use_dense, ..ReachParams::default() };
            let outcome = single_reach(&g, 0, true, &labels, &params, &visited);
            (outcome, (0..n).map(|v| visited.get(v)).collect::<Vec<bool>>())
        };
        let (dense, dense_set) = search(true);
        let (sparse, sparse_set) = search(false);
        assert!(dense.dense_rounds >= 1 && sparse.dense_rounds == 0);
        assert!(dense_set == sparse_set, "dense mode changed the reach set");
        assert_eq!(dense.visited, center as usize, "the live part, and only it");
        // Without the label check each dense round walked the center's
        // 30·k in-edges looking for a frontier vertex.
        assert!(
            dense.edges_scanned <= 3 * k as u64,
            "{} edges scanned for {} live ones",
            dense.edges_scanned,
            3 * k
        );
    }

    #[test]
    fn self_loops_are_harmless() {
        let g = DiGraph::from_edges(3, &[(0, 0), (0, 1), (1, 1), (1, 2)]);
        let got = reach_set(&g, 0, true, &ReachParams::default());
        assert_eq!(got, vec![true, true, true]);
    }
}
