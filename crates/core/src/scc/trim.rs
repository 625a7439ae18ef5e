//! Trimming (§4.1), carried to its fixed point: a vertex with no in- or no
//! out-neighbour other than itself is a singleton SCC and is finished
//! before any search runs. The paper applies the rule once ([`trim_once`]);
//! [`trim`] applies it until nothing qualifies — the complete trimming of
//! Multistep (Slota et al., IPDPS 2014) — so nothing acyclic is left for
//! the searches and their pair tables.
//!
//! **Peeling, O(n + m).** Every vertex carries two counters, its live in-
//! and out-neighbours, filled from the CSR offsets without looking at an
//! edge. The vertices with a zero counter are the first frontier. A dead
//! vertex takes its edges with it: one that died for want of in-neighbours
//! lowers the in-counter of each live out-neighbour (its in-neighbours are
//! dead already, so that list is not read), and the other way round. A
//! neighbour whose counter reaches zero is finished and followed at once
//! in a τ-bounded local queue — the VGC local search of §3.2 applied to
//! trimming, so a chain of k vertices peels in k/τ rounds — and what the
//! queue has no budget for is the next frontier. Each edge is read at most
//! once from either end.
//!
//! **Why counters.** Asking "are all my in-neighbours dead?" again after
//! every death is the per-pass sweep this replaces, O((n + m) · passes). A
//! counter is lowered by an atomic read-modify-write, so of the decrements
//! racing on one vertex exactly one sees it reach zero: no wake-up is lost
//! and none is doubled whatever the interleaving. The trimmed set is the
//! rule's unique fixed point and the count returned is exact at any width.
//!
//! **Self-loops** count in both degrees and never die before their vertex.
//! Finding them up front would read every edge, so a counter that reaches
//! *one* makes its vertex search the shorter of its lists for itself, once:
//! a self-loop there is the last live edge, and the vertex is dead.
//! (Adjacency built by `Csr::from_parts` need not be sorted, hence no binary
//! search; nor duplicate-free, and a self-loop stored twice keeps its
//! vertex for the searches — sound, just not trimmed.)

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

use pscc_graph::{Csr, DiGraph, V};
use pscc_runtime::{pack_index, par_for, par_range_with, tabulate};

use crate::reach::single::SEQ_FRONTIER;
use crate::state::SccState;

/// Neighbour visits one local queue makes before it hands the rest of the
/// chain to the next frontier: τ of Tab. 1.
const LOCAL_BUDGET: usize = 512;

/// Frontier vertices per block of a parallel round; each may go on to
/// [`LOCAL_BUDGET`] visits.
const GRAIN: usize = 64;

/// The paper's single pass: finishes every unfinished vertex with no in- or
/// no out-edge as its own SCC and returns how many. What the baselines
/// that reproduce single-pass systems (GBBS-like, FW-BW) call.
pub fn trim_once(g: &DiGraph, state: &SccState) -> usize {
    let dead = pack_index(g.n(), |v| {
        !state.is_done(v as V) && (g.out_degree(v as V) == 0 || g.in_degree(v as V) == 0)
    });
    par_for(dead.len(), |i| state.finish(dead[i] as V, dead[i] as V));
    dead.len()
}

/// Trims `g` to a fixed point, finishing every trimmed vertex as its own
/// SCC, and returns how many: afterwards every unfinished vertex has an
/// unfinished in- and an unfinished out-neighbour other than itself.
///
/// `state` must be fresh (asserted in debug builds). A vertex finished
/// beforehand would count as live — nothing is trimmed wrongly, but the
/// fixed point is that of the whole graph, not of what `state` left.
pub fn trim(g: &DiGraph, state: &SccState) -> usize {
    debug_assert_eq!(state.unfinished(), g.n(), "trim starts from a fresh state");
    let peel =
        Peel { g, state, live_in: live_degrees(g.in_csr()), live_out: live_degrees(g.out_csr()) };
    // The first frontier: what the single pass finishes. Packed, not
    // gathered in per-worker vectors: it can be most of the graph, and
    // megabytes allocated on worker threads stay resident in their arenas.
    let seeds = pack_index(g.n(), |v| is_zero(&peel.live_in[v]) || is_zero(&peel.live_out[v]));
    par_for(seeds.len(), |i| state.finish(seeds[i] as V, seeds[i] as V));
    let mut frontier: Vec<V> = seeds.into_iter().map(|v| v as V).collect();
    let mut trimmed = frontier.len();
    while !frontier.is_empty() {
        let round = |w: &mut Worker, r: Range<usize>| {
            frontier[r].iter().for_each(|&v| peel.follow(v, w));
        };
        // As in `single_reach`: a fork-join per round would dominate the
        // long thin tail of a peel (a path is two vertices per round).
        let workers = if frontier.len() <= SEQ_FRONTIER {
            let mut w = Worker::default();
            round(&mut w, 0..frontier.len());
            vec![w]
        } else {
            par_range_with(0..frontier.len(), GRAIN, &Worker::default, &round)
        };
        trimmed += workers.iter().map(|w| w.trimmed).sum::<usize>();
        frontier = workers.into_iter().flat_map(|w| w.next).collect();
    }
    trimmed
}

/// What one worker keeps across the vertices of a round.
#[derive(Default)]
struct Worker {
    /// The local queue of [`Peel::follow`].
    queue: Vec<V>,
    /// Dead vertices whose edges are still to be dropped: its share of the
    /// next frontier.
    next: Vec<V>,
    /// Vertices this worker finished.
    trimmed: usize,
}

/// The counters of one [`trim`].
///
/// All their accesses are `Relaxed`: a counter publishes nothing but its
/// own value, its decrements are read-modify-writes (so they see distinct
/// values on the way down under any interleaving), a vertex is claimed by
/// the read-modify-write of its done bit, and a stale read of that bit only
/// lowers the counter of a vertex that no longer needs one. Rounds are
/// separated by the fork-join barrier.
struct Peel<'a> {
    g: &'a DiGraph,
    state: &'a SccState,
    /// Per vertex, the in-neighbours other than itself not yet dropped —
    /// plus one for a self-loop not yet looked for.
    live_in: Vec<AtomicU32>,
    /// The same for out-neighbours.
    live_out: Vec<AtomicU32>,
}

impl Peel<'_> {
    /// Drops the edges of the dead vertex `v`, then those of the vertices
    /// that kills, and so on along the chain for [`LOCAL_BUDGET`] neighbour
    /// visits; the dead vertices not reached by then go to `w.next`.
    fn follow(&self, v: V, w: &mut Worker) {
        w.queue.clear();
        w.queue.push(v);
        let (mut head, mut visits) = (0, 0);
        while head < w.queue.len() && visits < LOCAL_BUDGET {
            let x = w.queue[head];
            head += 1;
            // With no live in-neighbour, what `x` still holds up are the
            // in-counters of its out-neighbours; otherwise it died for want
            // of out-neighbours, and it is its in-neighbours that lose one.
            let (csr, side) = if is_zero(&self.live_in[x as usize]) {
                (self.g.out_csr(), &self.live_in)
            } else {
                (self.g.in_csr(), &self.live_out)
            };
            for &u in csr.neighbors(x) {
                visits += 1;
                // Both counters of `u` can run out on different threads.
                if !self.state.is_done(u) && self.drop_edge(side, u) && self.state.try_finish(u, u)
                {
                    w.trimmed += 1;
                    if w.queue.len() < LOCAL_BUDGET {
                        w.queue.push(u);
                    } else {
                        w.next.push(u);
                    }
                }
            }
        }
        w.next.extend_from_slice(&w.queue[head..]);
    }

    /// One live neighbour fewer for `u` on `side`; true if that leaves it
    /// none but itself, in which case the counter reads zero afterwards.
    fn drop_edge(&self, side: &[AtomicU32], u: V) -> bool {
        match side[u as usize].fetch_sub(1, Ordering::Relaxed) {
            1 => true,
            2 if has_self_loop(self.g, u) => {
                // Nothing else lowers this counter again: every other edge
                // it counted is gone, and `u` skips itself once it is done.
                side[u as usize].store(0, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

/// The counters of one direction before anything died.
fn live_degrees(csr: &Csr) -> Vec<AtomicU32> {
    tabulate(csr.n(), |v| {
        let ns = csr.neighbors(v as V);
        // A lone self-loop is no neighbour; one beside other edges is
        // found when the counter comes down to it.
        let live = if *ns == [v as V] { 0 } else { ns.len() };
        assert!(live <= u32::MAX as usize, "vertex {v} has {live} neighbours: not a u32");
        AtomicU32::new(live as u32)
    })
}

fn is_zero(counter: &AtomicU32) -> bool {
    counter.load(Ordering::Relaxed) == 0
}

fn has_self_loop(g: &DiGraph, v: V) -> bool {
    let (ins, outs) = (g.in_neighbors(v), g.out_neighbors(v));
    (if ins.len() <= outs.len() { ins } else { outs }).contains(&v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::trimmed_by_peeling;
    use pscc_graph::generators::lattice::lattice_sqr;
    use pscc_graph::generators::random::gnm_digraph;
    use pscc_graph::generators::rmat::rmat_digraph;
    use pscc_graph::generators::simple::{cycle_digraph, dag_layers, path_digraph, star_digraph};
    use pscc_runtime::with_threads;

    /// Holds `trim` to the sequential reference at widths 1, 2 and 8 — the
    /// same set, counted right — and checks that the set is a fixed point.
    /// Returns how many vertices it trims.
    fn check(g: &DiGraph, name: &str) -> usize {
        let want = trimmed_by_peeling(g);
        let total = want.iter().filter(|&&dead| dead).count();
        for width in [1, 2, 8] {
            let state = SccState::new(g.n());
            let count = with_threads(width, || trim(g, &state));
            let got: Vec<bool> = (0..g.n() as V).map(|v| state.is_done(v)).collect();
            assert!(got == want, "{name}: width {width} trims another set than the reference");
            assert_eq!(count, total, "{name}: width {width}");
        }
        for v in (0..g.n() as V).filter(|&v| !want[v as usize]) {
            for ns in [g.in_neighbors(v), g.out_neighbors(v)] {
                assert!(
                    ns.iter().any(|&u| u != v && !want[u as usize]),
                    "{name}: survivor {v} has no live neighbour on one side"
                );
            }
        }
        total
    }

    #[test]
    fn cycle_trims_nothing() {
        let g = cycle_digraph(10);
        let state = SccState::new(10);
        assert_eq!(trim_once(&g, &state), 0);
        assert_eq!(trim(&g, &state), 0);
        assert_eq!(state.unfinished(), 10);
    }

    #[test]
    fn path_single_pass_trims_endpoints() {
        let g = path_digraph(5);
        let state = SccState::new(5);
        assert_eq!(trim_once(&g, &state), 2);
        assert!(state.is_done(0) && state.is_done(4));
        assert!(!state.is_done(2));
    }

    #[test]
    fn a_path_is_peeled_from_both_ends_across_many_local_queues() {
        assert_eq!(check(&path_digraph(6), "path-6"), 6);
        let n = 20 * LOCAL_BUDGET + 7;
        assert_eq!(check(&path_digraph(n), "long path"), n);
    }

    #[test]
    fn star_trims_all() {
        let g = star_digraph(8);
        let state = SccState::new(8);
        // The single pass already kills everyone: leaves have no out-edge,
        // the center no in-edge.
        assert_eq!(trim_once(&g, &state), 8);
        assert_eq!(check(&g, "star"), 8);
    }

    #[test]
    fn trimmed_vertices_get_singleton_labels() {
        let g = path_digraph(3);
        let state = SccState::new(3);
        trim(&g, &state);
        let labels = state.into_labels();
        // All distinct: each vertex its own SCC.
        assert_ne!(labels[0], labels[1]);
        assert_ne!(labels[1], labels[2]);
    }

    #[test]
    fn a_self_loop_is_no_neighbour() {
        // A self-looping vertex IS a singleton SCC: alone, …
        assert_eq!(check(&DiGraph::from_edges(1, &[(0, 0)]), "lone loop"), 1);
        assert_eq!(check(&DiGraph::from_edges(3, &[(1, 1)]), "loop among isolated"), 3);
        // … on a chain, where its counters come down to the loop, …
        assert_eq!(check(&DiGraph::from_edges(3, &[(0, 1), (1, 1), (1, 2)]), "loop on chain"), 3);
        let fan_in = [(0, 3), (1, 3), (2, 3), (3, 3), (3, 4), (3, 5)];
        assert_eq!(check(&DiGraph::from_edges(6, &fan_in), "loop under a fan"), 6);
        // … but not on a cycle, nor between two.
        let mut edges: Vec<(V, V)> = cycle_digraph(5).out_csr().edges().collect();
        edges.push((2, 2));
        assert_eq!(check(&DiGraph::from_edges(5, &edges), "loop on cycle"), 0);
        let bridge = [(0, 1), (1, 0), (1, 2), (2, 2), (2, 3), (3, 4), (4, 3), (5, 2)];
        assert_eq!(check(&DiGraph::from_edges(6, &bridge), "loop between cycles"), 1);
    }

    #[test]
    fn a_wide_fan_overflows_the_local_queue_into_the_next_frontier() {
        // One dead root kills 3 · LOCAL_BUDGET children in a single local
        // search; each child has three leaves of its own.
        let fan = 3 * LOCAL_BUDGET as V;
        let mut edges: Vec<(V, V)> = (1..=fan).map(|c| (0, c)).collect();
        edges.extend((1..=fan).flat_map(|c| (0..3).map(move |l| (c, fan + 3 * (c - 1) + l + 1))));
        let n = 1 + 4 * fan as usize;
        assert_eq!(check(&DiGraph::from_edges(n, &edges), "fan"), n);
    }

    #[test]
    fn several_components_keep_their_cycles_and_what_lies_between() {
        // Two 5-cycles joined by the path 4 → 10 → 11 → 5 (kept: it is on
        // the way from one cycle to the other), a tail 9 → 12 → 13 and a
        // source 15 → 0 (peeled), and 14 isolated.
        let mut edges: Vec<(V, V)> = (0..5).map(|i| (i, (i + 1) % 5)).collect();
        edges.extend((0..5).map(|i| (5 + i, 5 + (i + 1) % 5)));
        edges.extend([(4, 10), (10, 11), (11, 5), (9, 12), (12, 13), (15, 0)]);
        assert_eq!(check(&DiGraph::from_edges(16, &edges), "two cycles"), 4);
    }

    #[test]
    fn matches_the_reference_on_the_paper_families() {
        for seed in 0..4 {
            // Around the critical density: trees hanging off small cycles.
            check(&gnm_digraph(3000, 3600, seed), "gnm sparse");
            check(&gnm_digraph(1500, 6000, seed), "gnm dense");
        }
        check(&rmat_digraph(12, 20_000, 1), "rmat-12");
        check(&lattice_sqr(60, 60, 1), "lattice 60x60");
        let dag = dag_layers(8, 20, 3, 1);
        assert_eq!(check(&dag, "dag"), dag.n(), "a DAG is trimmed whole");
    }

    #[test]
    fn trim_once_skips_finished_vertices() {
        let g = path_digraph(4);
        let state = SccState::new(4);
        state.finish(0, 0);
        // Vertex 0 already done; only 3 is freshly trimmable in one pass.
        assert_eq!(trim_once(&g, &state), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "fresh state")]
    fn trim_refuses_a_used_state() {
        let state = SccState::new(4);
        state.finish(0, 0);
        trim(&path_digraph(4), &state);
    }
}
