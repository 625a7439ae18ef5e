//! The BGSS SCC driver (Alg. 1) assembled from trimming, single- and
//! multi-reachability searches, and labeling.
//!
//! The phases run in the order §4 gives them, as straight-line code:
//!
//! 1. **trim** (§4.1) finishes the vertices with no in- or no out-edge,
//!    then those left without one by that, and so on to the fixed point
//!    ([`trim()`]: worklist peeling, O(n + m)) — every vertex that is on no
//!    cycle's way in and out is gone before a search starts, and the rest
//!    of the run (permutation, bag, tables) is sized by the survivors;
//! 2. **first SCC** (§4.2): the first survivor in a random permutation is
//!    searched forward and backward with *single*-source reachability —
//!    bitmaps and dense bottom-up rounds, no pair table — which peels a
//!    giant SCC at the cost of two BFS;
//! 3. **batches** (§4.3): the rest of the survivors' permutation in
//!    prefix-doubling slices of 2, 3, 5, … positions ([`Schedule`]), each
//!    searched both ways with multi-reachability into pair tables sized by
//!    §4.5;
//! 4. after every pair of searches, **labeling** (§4.4, [`label`])
//!    finishes the vertices strongly connected to a source and folds the
//!    rest's reachability into their labels, in place.

pub mod components;
pub mod label;
mod schedule;
pub mod trim;

use std::sync::atomic::Ordering;
use std::time::Duration;

use pscc_bag::HashBag;
use pscc_graph::{DiGraph, V};
use pscc_runtime::{par_count, par_max, AtomicBits, Timer};
use pscc_table::{next_table_capacity, PairTable};

use crate::config::SccConfig;
use crate::reach::multi::multi_reach_in;
use crate::reach::single::single_reach_in;
use crate::state::{SccState, FINAL_TAG};
use crate::stats::{SccStats, SearchRecord};
pub use components::dense_components;
pub use label::{label_from_multi, label_from_single};
pub use schedule::Schedule;
pub use trim::{trim, trim_once};

/// The result of an SCC computation.
#[derive(Clone, Debug)]
pub struct SccResult {
    /// Per-vertex component label: `labels[u] == labels[v]` iff `u` and `v`
    /// are strongly connected. The kernel's labels also satisfy the
    /// [representative invariant](components).
    pub labels: Vec<u64>,
    /// Number of strongly connected components.
    pub num_sccs: usize,
    /// Size of the largest SCC.
    pub largest_scc: usize,
}

/// Computes the strongly connected components of `g`.
pub fn parallel_scc(g: &DiGraph, cfg: &SccConfig) -> SccResult {
    parallel_scc_with_stats(g, cfg).0
}

/// Everything one SCC run allocates for its reachability searches beside
/// the first-SCC phase's two visited bitmaps: one hash bag for every
/// search's frontier and the forward and backward pair tables. Allocated
/// (and first touched in parallel) once per run, re-sized only when a
/// table outgrows its allocation, and emptied after each use at the cost
/// of what was used. Labeling allocates nothing: it works on the labels.
struct Workspace {
    bag: HashBag<u64>,
    t_out: PairTable,
    t_in: PairTable,
}

impl Workspace {
    /// Workspace for a graph of which `unfinished` vertices survive
    /// trimming: the bag can take a single-source frontier of all of them,
    /// which also covers the first batches' tables.
    fn new(unfinished: usize, cfg: &SccConfig) -> Self {
        Self {
            bag: HashBag::with_config(unfinished, cfg.bag),
            t_out: PairTable::with_capacity(0),
            t_in: PairTable::with_capacity(0),
        }
    }
}

/// Computes SCCs and returns detailed instrumentation ([`SccStats`]).
pub fn parallel_scc_with_stats(g: &DiGraph, cfg: &SccConfig) -> (SccResult, SccStats) {
    let n = g.n();
    let mut stats = SccStats::default();
    let total = Timer::start();
    if n == 0 {
        return (SccResult { labels: Vec::new(), num_sccs: 0, largest_scc: 0 }, stats);
    }

    let state = stats.breakdown.run("other", || SccState::new(n));

    // Phase 1: trimming (§4.1) to the fixed point.
    stats.trimmed = stats.breakdown.run("trim", || trim(g, &state));
    let mut unfinished = n - stats.trimmed;

    // The source schedule (Alg. 1 line 2) and the run's workspace, both
    // over what trimming left. Set-up, source picking, per-batch clearing
    // and the final count are "other".
    let (mut schedule, mut ws) = stats
        .breakdown
        .run("other", || (Schedule::new(&state, cfg), Workspace::new(unfinished, cfg)));
    // Pairs of the previous batch that are still unfinished: `a` of §4.5.
    let mut prev_pairs = 0usize;

    // Phase 2: first SCC via single-reachability with dense mode (§4.2).
    if let Some(s0) = stats.breakdown.run("other", || schedule.first_source(&state)) {
        stats.num_batches = 1;
        let params = cfg.single_params();
        let (fvis, bvis) =
            stats.breakdown.run("other", || (AtomicBits::new(n), AtomicBits::new(n)));
        let t = Timer::start();
        let fo = single_reach_in(g, s0, true, &state.labels, &params, &fvis, &ws.bag);
        let bo = single_reach_in(g, s0, false, &state.labels, &params, &bvis, &ws.bag);
        stats.breakdown.add("first_scc", t.elapsed());
        for (forward, o) in [(true, &fo), (false, &bo)] {
            stats.searches.push(SearchRecord {
                batch: 1,
                sources: 1,
                forward,
                multi: false,
                rounds: o.rounds,
                dense_rounds: o.dense_rounds,
                reached: o.visited,
            });
        }
        let newly = stats.breakdown.run("labeling", || label_from_single(&state, s0, &fvis, &bvis));
        unfinished -= newly;
        // The SCC was in both searches and needs no table slot again.
        prev_pairs = fo.visited + bo.visited - 2 * newly;
    }

    // Phase 3: multi-reachability batches (§4.3).
    while unfinished > 0 {
        let Some(sources) = stats.breakdown.run("other", || schedule.next_batch(&state)) else {
            break;
        };
        stats.num_batches += 1;
        let cap = next_table_capacity(prev_pairs, unfinished);
        stats.breakdown.run("other", || {
            ws.t_out.reset(cap);
            ws.t_in.reset(cap);
        });
        let params = cfg.multi_params();
        let labels = &state.labels;
        let t = Timer::start();
        let fo = multi_reach_in(g, &sources, true, labels, &params, &mut ws.t_out, &mut ws.bag);
        let bo = multi_reach_in(g, &sources, false, labels, &params, &mut ws.t_in, &mut ws.bag);
        let elapsed = t.seconds();
        let resize = fo.resize_seconds + bo.resize_seconds;
        stats.breakdown.add("multi_search", Duration::from_secs_f64((elapsed - resize).max(0.0)));
        stats.breakdown.add("table_resize", Duration::from_secs_f64(resize));
        for (forward, o) in [(true, &fo), (false, &bo)] {
            stats.searches.push(SearchRecord {
                batch: stats.num_batches,
                sources: sources.len(),
                forward,
                multi: true,
                rounds: o.rounds,
                dense_rounds: 0,
                reached: o.pairs_added,
            });
        }
        let newly =
            stats.breakdown.run("labeling", || label_from_multi(&state, &ws.t_out, &ws.t_in));
        unfinished -= newly;
        prev_pairs = fo.pairs_added + bo.pairs_added;
    }

    assert_eq!(unfinished, 0, "BGSS must finish every vertex");
    state.debug_assert_all_done();

    let (labels, (num_sccs, largest_scc)) = stats.breakdown.run("other", || {
        // Free the workspace before the component count allocates.
        drop((ws, schedule));
        let labels = state.into_labels();
        // A component is counted at its self-labeled representative.
        let sizes = components::sizes_by_representative(&labels);
        let num_sccs = par_count(n, |v| labels[v] == FINAL_TAG | v as u64);
        let largest = par_max(n, |v| sizes[v].load(Ordering::Relaxed) as u64).unwrap_or(0);
        (labels, (num_sccs, largest as usize))
    });
    stats.total_seconds = total.seconds();
    (SccResult { labels, num_sccs, largest_scc }, stats)
}

/// Computes SCCs of the subgraph of `g` induced by `vertices`, overlaid
/// with `extra_arcs` (global endpoints, both inside `vertices`).
///
/// Returns one label per view vertex, aligned with `vertices`: positions
/// `i` and `j` share a label iff `vertices[i]` and `vertices[j]` are
/// strongly connected **within** the overlaid induced subgraph (paths
/// through vertices outside the view do not count).
///
/// This is the subgraph entry point the incremental condensation repair
/// in `pscc-engine` drives: when a delta merges components, the full BGSS
/// machinery runs on just the affected region of the condensation DAG
/// plus the freshly inserted arcs, not on the whole graph.
pub fn parallel_scc_induced(
    g: &DiGraph,
    vertices: &[V],
    extra_arcs: &[(V, V)],
    cfg: &SccConfig,
) -> Vec<u64> {
    let view = pscc_graph::SubgraphView::new(g, vertices);
    let sub = view.extract_with_arcs(extra_arcs);
    parallel_scc(&sub, cfg).labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{component_stats, partition_groups, same_partition};
    use pscc_graph::fixtures::{fig2_graph, fig2_sccs, two_triangles_and_isolated};
    use pscc_graph::generators::random::{gnm_digraph, gnp_digraph};
    use pscc_graph::generators::simple::{bowtie_web, cycle_digraph, dag_layers, path_digraph};

    /// Sequential Tarjan oracle (iterative) for verification.
    fn tarjan_labels(g: &DiGraph) -> Vec<u32> {
        let n = g.n();
        let mut index = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut labels = vec![0u32; n];
        let mut next_index = 0u32;
        let mut next_label = 0u32;
        // Explicit DFS state machine: (vertex, neighbor cursor).
        let mut call: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if index[root as usize] != u32::MAX {
                continue;
            }
            call.push((root, 0));
            index[root as usize] = next_index;
            low[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;
            while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
                let ns = g.out_neighbors(v);
                if *cursor < ns.len() {
                    let u = ns[*cursor];
                    *cursor += 1;
                    if index[u as usize] == u32::MAX {
                        index[u as usize] = next_index;
                        low[u as usize] = next_index;
                        next_index += 1;
                        stack.push(u);
                        on_stack[u as usize] = true;
                        call.push((u, 0));
                    } else if on_stack[u as usize] {
                        low[v as usize] = low[v as usize].min(index[u as usize]);
                    }
                } else {
                    call.pop();
                    if let Some(&mut (p, _)) = call.last_mut() {
                        low[p as usize] = low[p as usize].min(low[v as usize]);
                    }
                    if low[v as usize] == index[v as usize] {
                        loop {
                            let w = stack.pop().unwrap();
                            on_stack[w as usize] = false;
                            labels[w as usize] = next_label;
                            if w == v {
                                break;
                            }
                        }
                        next_label += 1;
                    }
                }
            }
        }
        labels
    }

    fn check(g: &DiGraph, cfg: &SccConfig) {
        let got = parallel_scc(g, cfg);
        let want = tarjan_labels(g);
        assert!(
            same_partition(&got.labels, &want),
            "partition mismatch (n={}, m={})",
            g.n(),
            g.m()
        );
    }

    #[test]
    fn fig2_example_partition() {
        let g = fig2_graph();
        let got = parallel_scc(&g, &SccConfig::default());
        assert_eq!(partition_groups(&got.labels), fig2_sccs());
        assert_eq!(got.num_sccs, 6);
        assert_eq!(got.largest_scc, 4);
    }

    #[test]
    fn cycle_is_one_scc() {
        let got = parallel_scc(&cycle_digraph(500), &SccConfig::default());
        assert_eq!(got.num_sccs, 1);
        assert_eq!(got.largest_scc, 500);
    }

    #[test]
    fn path_is_all_singletons() {
        let got = parallel_scc(&path_digraph(200), &SccConfig::default());
        assert_eq!(got.num_sccs, 200);
        assert_eq!(got.largest_scc, 1);
    }

    #[test]
    fn dag_is_all_singletons() {
        let g = dag_layers(8, 20, 3, 1);
        let got = parallel_scc(&g, &SccConfig::default());
        assert_eq!(got.num_sccs, g.n());
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_edges(0, &[]);
        let got = parallel_scc(&g, &SccConfig::default());
        assert_eq!(got.num_sccs, 0);
    }

    #[test]
    fn edgeless_graph_is_singletons() {
        let g = DiGraph::from_edges(7, &[]);
        let got = parallel_scc(&g, &SccConfig::default());
        assert_eq!(got.num_sccs, 7);
    }

    #[test]
    fn disjoint_triangles() {
        let g = two_triangles_and_isolated();
        let got = parallel_scc(&g, &SccConfig::default());
        assert_eq!(got.num_sccs, 3);
        assert_eq!(got.largest_scc, 3);
    }

    #[test]
    fn matches_tarjan_on_random_graphs_all_variants() {
        for seed in 0..6u64 {
            let g = gnm_digraph(250, 1000, seed);
            for cfg in [
                SccConfig::default(),
                SccConfig::plain(),
                SccConfig::vgc1(),
                SccConfig::default().with_tau(4),
            ] {
                check(&g, &cfg);
            }
        }
    }

    #[test]
    fn matches_tarjan_on_sparse_random() {
        // Sub-critical density: many medium SCCs.
        for seed in 0..4u64 {
            check(&gnm_digraph(400, 480, seed), &SccConfig::default());
        }
    }

    #[test]
    fn matches_tarjan_on_dense_random() {
        check(&gnp_digraph(120, 0.08, 3), &SccConfig::default());
    }

    #[test]
    fn matches_tarjan_on_bowtie() {
        let g = bowtie_web(300, 0.4, 2, 9);
        check(&g, &SccConfig::default());
        let got = parallel_scc(&g, &SccConfig::default());
        assert_eq!(got.largest_scc, 120, "core is the giant SCC");
    }

    #[test]
    fn deterministic_labels_for_fixed_seed() {
        let g = gnm_digraph(300, 1200, 11);
        let a = parallel_scc(&g, &SccConfig::default());
        let b = parallel_scc(&g, &SccConfig::default());
        assert_eq!(a.labels, b.labels, "XOR/max labeling must be deterministic");
    }

    #[test]
    fn different_seeds_same_partition() {
        let g = gnm_digraph(300, 1200, 13);
        let a = parallel_scc(&g, &SccConfig { seed: 1, ..SccConfig::default() });
        let b = parallel_scc(&g, &SccConfig { seed: 2, ..SccConfig::default() });
        assert!(same_partition(&a.labels, &b.labels));
    }

    #[test]
    fn stats_are_populated() {
        let g = gnm_digraph(400, 900, 5);
        let (res, stats) = parallel_scc_with_stats(&g, &SccConfig::default());
        assert!(res.num_sccs > 0);
        assert!(stats.num_batches >= 1);
        assert!(!stats.searches.is_empty());
        assert!(stats.total_seconds > 0.0);
        // Breakdown phases should cover most of the total.
        assert!(stats.breakdown.total_seconds() <= stats.total_seconds + 0.1);

        // On a run long enough to time, every step is charged to a phase:
        // set-up, per-batch clearing and the final count are "other".
        let g = pscc_graph::generators::lattice::lattice_sqr(300, 300, 1);
        let (_, stats) = parallel_scc_with_stats(&g, &SccConfig::default());
        let charged: f64 = crate::stats::PHASES.iter().map(|p| stats.phase_seconds(p)).sum();
        assert!(
            charged >= 0.97 * stats.total_seconds,
            "phases sum to {charged:.4}s of {:.4}s",
            stats.total_seconds
        );
    }

    #[test]
    fn vgc_uses_fewer_rounds_than_plain() {
        // Large-diameter lattice: the Fig. 10 effect.
        let g = pscc_graph::generators::lattice::lattice_sqr(40, 40, 3);
        let (_, vgc) = parallel_scc_with_stats(&g, &SccConfig::default());
        let (_, plain) = parallel_scc_with_stats(&g, &SccConfig::plain());
        assert!(
            vgc.total_rounds() * 2 <= plain.total_rounds(),
            "vgc {} rounds vs plain {}",
            vgc.total_rounds(),
            plain.total_rounds()
        );
    }

    #[test]
    fn lattice_partition_matches_tarjan() {
        let g = pscc_graph::generators::lattice::lattice_sqr_prime(25, 25, 7);
        check(&g, &SccConfig::default());
        check(&g, &SccConfig::plain());
    }

    #[test]
    fn knn_partition_matches_tarjan() {
        let pts = pscc_graph::generators::knn::uniform_points(400, 21);
        let g = pscc_graph::generators::knn::knn_digraph(&pts, 3);
        check(&g, &SccConfig::default());
    }

    #[test]
    fn the_first_scc_is_searched_from_the_first_permuted_survivor() {
        // perm[0] is isolated and perm[40..] a tail, both trimmed; perm[1..=30]
        // is a cycle with an arc into a second cycle, perm[31..40].
        let n = 50;
        let perm = pscc_runtime::random_permutation(n, SccConfig::default().seed);
        let cycle = |lo: usize, hi: usize| {
            (lo..=hi).map(move |i| (i, if i == hi { lo } else { i + 1 })).collect::<Vec<_>>()
        };
        let mut edges = cycle(1, 30);
        edges.extend(cycle(31, 39));
        edges.push((30, 31));
        edges.extend((39..n - 1).map(|i| (i, i + 1)));
        let edges: Vec<(V, V)> = edges.into_iter().map(|(a, b)| (perm[a], perm[b])).collect();
        let g = DiGraph::from_edges(n, &edges);

        let (res, stats) = parallel_scc_with_stats(&g, &SccConfig::default());
        assert!(same_partition(&res.labels, &tarjan_labels(&g)));
        assert_eq!(stats.trimmed, 11, "the isolated vertex and the whole tail");
        for (record, forward) in stats.searches[..2].iter().zip([true, false]) {
            assert_eq!((record.batch, record.sources, record.forward), (1, 1, forward));
            assert!(!record.multi, "the first SCC goes through single-reach: {record:?}");
        }
        assert!(stats.searches.len() > 2, "the second cycle is left for a batch");
        assert!(stats.searches[2..].iter().all(|r| r.multi && r.batch > 1));
        assert!(stats.phase_seconds("first_scc") > 0.0);
        // Batch 1 finished the first cycle, at its source.
        assert_eq!(stats.searches[1].reached, 30);
        for &v in &perm[1..=30] {
            assert_eq!(res.labels[v as usize], FINAL_TAG | perm[1] as u64);
        }
        assert_eq!(res.largest_scc, 30);
    }

    #[test]
    fn an_acyclic_graph_is_finished_by_trimming_alone() {
        for g in [dag_layers(8, 20, 3, 1), path_digraph(3000)] {
            let (res, stats) = parallel_scc_with_stats(&g, &SccConfig::default());
            assert_eq!((res.num_sccs, stats.trimmed), (g.n(), g.n()));
            assert!(stats.searches.is_empty(), "{} searches on a DAG", stats.searches.len());
            assert_eq!(stats.num_batches, 0);
        }
    }

    #[test]
    fn a_sparse_rmat_needs_no_multi_reach_batch_for_its_acyclic_part() {
        let g = pscc_graph::generators::rmat::rmat_digraph(14, 120_000, 1);
        let (res, stats) = parallel_scc_with_stats(&g, &SccConfig::default());
        assert!(same_partition(&res.labels, &tarjan_labels(&g)));
        assert!(stats.num_batches <= 2, "{} batches", stats.num_batches);
    }

    #[test]
    fn induced_scc_matches_tarjan_on_the_extracted_subgraph() {
        let g = gnm_digraph(200, 700, 31);
        // An arbitrary subset: every third vertex.
        let vertices: Vec<V> = (0..200).step_by(3).map(|v| v as V).collect();
        let labels = parallel_scc_induced(&g, &vertices, &[], &SccConfig::default());
        let view = pscc_graph::SubgraphView::new(&g, &vertices);
        let want = tarjan_labels(&view.extract());
        assert_eq!(labels.len(), vertices.len());
        assert!(same_partition(&labels, &want));
    }

    #[test]
    fn induced_scc_sees_extra_arcs() {
        // A path 0 -> 1 -> 2 -> 3: no cycles anywhere.
        let g = path_digraph(4);
        let vertices = vec![1, 2, 3];
        let plain = parallel_scc_induced(&g, &vertices, &[], &SccConfig::default());
        assert_eq!(component_stats(&plain).0, 3);
        // Overlaying the back arc 3 -> 1 collapses the view to one SCC.
        let closed = parallel_scc_induced(&g, &vertices, &[(3, 1)], &SccConfig::default());
        assert_eq!(component_stats(&closed).0, 1);
    }

    #[test]
    fn induced_scc_ignores_paths_through_outside_vertices() {
        // 0 <-> 1 via 2: 1 -> 2 -> 0 and 0 -> 1. With 2 outside the view,
        // 0 and 1 are *not* strongly connected in the induced subgraph.
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let labels = parallel_scc_induced(&g, &[0, 1], &[], &SccConfig::default());
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn self_loops_everywhere() {
        let edges: Vec<(V, V)> = (0..50).map(|v| (v, v)).collect();
        let g = DiGraph::from_edges(50, &edges);
        let got = parallel_scc(&g, &SccConfig::default());
        assert_eq!(got.num_sccs, 50);
    }
}
