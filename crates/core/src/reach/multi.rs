//! Multi-source reachability producing `(vertex, source)` pairs (§4.3).
//!
//! The frontier is a set of *pairs*: `(v, s)` means "the search from source
//! `s` reached `v` this round". Pairs are deduplicated globally by the
//! phase-concurrent [`PairTable`]; newly added pairs form the next frontier
//! via the hash bag (or a VGC local queue first). Dense mode is not
//! applicable here (§4.2): finding one in-neighbor in the frontier says
//! nothing about the *other* sources that may reach a vertex.
//!
//! ## What a search shares, and what it owns
//!
//! Between the workers of a round: the table's slots and the bag's slots —
//! nothing else. The VGC queue, the list of pairs a full table refused and
//! the `pairs_added` / `edges_scanned` tallies are per-worker state
//! ([`par_range_with`]), summed up once per round. A search owns none of
//! its memory: table and bag belong to the run that calls it (the SCC
//! driver's workspace) and are re-sized only when a table outgrows them,
//! so a search costs time proportional to the pairs it finds.
//! [`multi_reach`] is the stand-alone entry that brings a bag of its own.

use std::sync::atomic::{AtomicU64, Ordering};

use pscc_bag::HashBag;
use pscc_graph::{DiGraph, V};
use pscc_runtime::{par_range_with, Timer};
use pscc_table::{pack_pair, pair_source, pair_vertex, Insert, PairTable};

use crate::config::ReachParams;

/// Statistics of one multi-reachability search.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MultiReachOutcome {
    /// Number of frontier rounds.
    pub rounds: usize,
    /// Pairs added to the table by this search (including the seeds).
    pub pairs_added: usize,
    /// Seconds spent growing/rehashing the pair table (the Fig. 9
    /// "hash table resizing" category).
    pub resize_seconds: f64,
    /// Edge inspections performed: every pair found is expanded once, so
    /// this is the sum of their vertices' degrees.
    pub edges_scanned: u64,
}

/// What one worker counts and collects during a round.
#[derive(Default)]
struct Tally {
    /// Pairs this worker added to the table.
    added: usize,
    /// Edge inspections.
    scanned: u64,
    /// Pairs whose insert hit the table's probe limit; retried after the
    /// round, once the table has grown.
    refused: Vec<u64>,
}

impl Tally {
    /// Inserts `key` into `table`; true if this call added it.
    #[inline]
    fn add(&mut self, table: &PairTable, key: u64) -> bool {
        match table.insert(key) {
            Insert::Added => {
                self.added += 1;
                true
            }
            Insert::Present => false,
            Insert::Full => {
                self.refused.push(key);
                false
            }
        }
    }

    fn absorb(&mut self, mut other: Tally) {
        self.added += other.added;
        self.scanned += other.scanned;
        self.refused.append(&mut other.refused);
    }
}

/// Grows `table`, makes sure `bag` (empty) can take a round's worth of its
/// pairs, and charges the time to `out.resize_seconds`.
fn grow(table: &mut PairTable, bag: &mut HashBag<u64>, out: &mut MultiReachOutcome) {
    let t = Timer::start();
    table.grow();
    bag.reserve(table.slot_count() / 2);
    out.resize_seconds += t.seconds();
}

/// Runs a multi-reachability search from `sources` following out-edges if
/// `forward` (in-edges otherwise), restricted to same-label subgraphs.
/// Reachable pairs accumulate in `table` (which must be empty on entry and
/// may be grown by this call).
pub fn multi_reach(
    g: &DiGraph,
    sources: &[V],
    forward: bool,
    labels: &[AtomicU64],
    params: &ReachParams,
    table: &mut PairTable,
) -> MultiReachOutcome {
    let mut bag = HashBag::with_config(table.slot_count() / 2, params.bag);
    multi_reach_in(g, sources, forward, labels, params, table, &mut bag)
}

/// [`multi_reach`] with the frontier kept in the caller's `bag` (empty on
/// entry and on return; re-allocated only if `table` outgrows it).
pub(crate) fn multi_reach_in(
    g: &DiGraph,
    sources: &[V],
    forward: bool,
    labels: &[AtomicU64],
    params: &ReachParams,
    table: &mut PairTable,
    bag: &mut HashBag<u64>,
) -> MultiReachOutcome {
    let mut out = MultiReachOutcome::default();
    let csr = g.csr_dir(forward);
    bag.reserve(table.slot_count() / 2);

    // Seed (s, s) for every source.
    let mut frontier: Vec<u64> = Vec::with_capacity(sources.len());
    for &s in sources {
        let key = pack_pair(s, s);
        loop {
            match table.insert(key) {
                Insert::Added => {
                    frontier.push(key);
                    break;
                }
                Insert::Present => break,
                Insert::Full => grow(table, bag, &mut out),
            }
        }
    }
    out.pairs_added = frontier.len();

    while !frontier.is_empty() {
        out.rounds += 1;

        // Proactive growth keeps the load factor reasonable so Full events
        // (which force a mid-search rebuild) stay rare.
        if out.pairs_added * 2 >= table.slot_count() {
            grow(table, bag, &mut out);
        }

        let mut round = Tally::default();
        {
            // Sharing &PairTable across tasks is safe: insert/contains are
            // phase-concurrent.
            let (table, bag) = (&*table, &*bag);
            let tau = params.tau;
            let init = || (Vec::<u64>::with_capacity(tau.min(1 << 14)), Tally::default());
            let workers = par_range_with(0..frontier.len(), 1, &init, &|(queue, tally), r| {
                for i in r {
                    let pair = frontier[i];
                    let (x0, s) = (pair_vertex(pair), pair_source(pair));
                    let lx = labels[x0 as usize].load(Ordering::Relaxed);
                    let deg = csr.degree(x0);
                    if params.vgc && deg < tau {
                        // VGC local search over pairs from (x0, s).
                        queue.clear();
                        queue.push(pair);
                        let mut head = 0usize;
                        let mut t = 0usize;
                        while head < queue.len() {
                            let x = pair_vertex(queue[head]);
                            head += 1;
                            for &u in csr.neighbors(x) {
                                t += 1;
                                if labels[u as usize].load(Ordering::Relaxed) == lx {
                                    let key = pack_pair(u, s);
                                    if tally.add(table, key) {
                                        if queue.len() < tau {
                                            queue.push(key);
                                        } else {
                                            bag.insert(key);
                                        }
                                    }
                                }
                            }
                            if t >= tau {
                                break;
                            }
                        }
                        tally.scanned += t as u64;
                        for &key in &queue[head..] {
                            bag.insert(key);
                        }
                    } else {
                        // Standard scan; parallel over a heavy vertex's
                        // neighbours when this round has a single task.
                        tally.scanned += deg as u64;
                        let ns = csr.neighbors(x0);
                        let scan = |inner: &mut Tally, rr: std::ops::Range<usize>| {
                            for &u in &ns[rr] {
                                if labels[u as usize].load(Ordering::Relaxed) == lx {
                                    let key = pack_pair(u, s);
                                    if inner.add(table, key) {
                                        bag.insert(key);
                                    }
                                }
                            }
                        };
                        for inner in par_range_with(0..ns.len(), 2048, &Tally::default, &scan) {
                            tally.absorb(inner);
                        }
                    }
                }
            });
            for (_, tally) in workers {
                round.absorb(tally);
            }
        }
        out.pairs_added += round.added;
        out.edges_scanned += round.scanned;

        let mut next = bag.extract_all();
        // Resolve refused inserts: grow, retry, and splice the winners
        // into the next frontier. Loops until the table absorbs everything.
        let from_bag = next.len();
        let mut refused = round.refused;
        while !refused.is_empty() {
            grow(table, bag, &mut out);
            refused.retain(|&key| match table.insert(key) {
                Insert::Added => {
                    next.push(key);
                    false
                }
                Insert::Present => false,
                Insert::Full => true,
            });
        }
        out.pairs_added += next.len() - from_bag;
        frontier = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_graph::generators::random::gnm_digraph;
    use pscc_graph::generators::simple::{cycle_digraph, path_digraph};
    use std::collections::HashSet;

    fn fresh_labels(n: usize) -> Vec<AtomicU64> {
        (0..n).map(|_| AtomicU64::new(0)).collect()
    }

    /// Sequential oracle: the set of (v, s) pairs with s ⇝ v.
    fn seq_pairs(g: &DiGraph, sources: &[V], forward: bool) -> HashSet<(V, V)> {
        let mut pairs = HashSet::new();
        for &s in sources {
            let mut vis = vec![false; g.n()];
            let mut stack = vec![s];
            vis[s as usize] = true;
            while let Some(v) = stack.pop() {
                pairs.insert((v, s));
                for &u in g.neighbors_dir(v, forward) {
                    if !vis[u as usize] {
                        vis[u as usize] = true;
                        stack.push(u);
                    }
                }
            }
        }
        pairs
    }

    fn run(
        g: &DiGraph,
        sources: &[V],
        forward: bool,
        params: &ReachParams,
    ) -> (HashSet<(V, V)>, MultiReachOutcome) {
        let labels = fresh_labels(g.n());
        let mut table = PairTable::with_capacity(1024);
        let outcome = multi_reach(g, sources, forward, &labels, params, &mut table);
        let got: HashSet<(V, V)> =
            table.keys().into_iter().map(|k| (pair_vertex(k), pair_source(k))).collect();
        (got, outcome)
    }

    #[test]
    fn single_source_path() {
        let g = path_digraph(6);
        let (got, outcome) = run(&g, &[2], true, &ReachParams::default());
        let want = seq_pairs(&g, &[2], true);
        assert_eq!(got, want);
        assert_eq!(outcome.pairs_added, 4); // vertices 2..=5
    }

    #[test]
    fn two_sources_on_cycle_cover_everything_twice() {
        let g = cycle_digraph(50);
        let (got, _) = run(&g, &[0, 25], true, &ReachParams::default());
        assert_eq!(got.len(), 100);
        let want = seq_pairs(&g, &[0, 25], true);
        assert_eq!(got, want);
    }

    #[test]
    fn matches_oracle_on_random_graphs_all_modes() {
        for seed in 0..4u64 {
            let g = gnm_digraph(200, 700, seed);
            let sources: Vec<V> = vec![0, 7, 42, 99];
            let want_f = seq_pairs(&g, &sources, true);
            let want_b = seq_pairs(&g, &sources, false);
            for &vgc in &[false, true] {
                let params = ReachParams { vgc, ..ReachParams::default() };
                let (got_f, _) = run(&g, &sources, true, &params);
                assert_eq!(got_f, want_f, "fwd seed={seed} vgc={vgc}");
                let (got_b, _) = run(&g, &sources, false, &params);
                assert_eq!(got_b, want_b, "bwd seed={seed} vgc={vgc}");
            }
        }
    }

    #[test]
    fn empty_sources_is_noop() {
        let g = path_digraph(5);
        let (got, outcome) = run(&g, &[], true, &ReachParams::default());
        assert!(got.is_empty());
        assert_eq!(outcome.rounds, 0);
    }

    #[test]
    fn vgc_reduces_rounds_on_long_paths() {
        let g = path_digraph(3000);
        let (_, plain) = run(&g, &[0], true, &ReachParams::plain());
        let (_, vgc) = run(&g, &[0], true, &ReachParams::default());
        assert!(vgc.rounds * 10 <= plain.rounds, "vgc {} vs plain {}", vgc.rounds, plain.rounds);
    }

    #[test]
    fn tiny_table_forces_growth_but_stays_correct() {
        let g = gnm_digraph(300, 1500, 7);
        let sources: Vec<V> = (0..20).collect();
        let labels = fresh_labels(g.n());
        let mut table = PairTable::with_capacity(1); // pathological start
        let outcome = multi_reach(&g, &sources, true, &labels, &ReachParams::default(), &mut table);
        let got: HashSet<(V, V)> =
            table.keys().into_iter().map(|k| (pair_vertex(k), pair_source(k))).collect();
        assert_eq!(got, seq_pairs(&g, &sources, true));
        assert!(outcome.resize_seconds >= 0.0);
        assert_eq!(outcome.pairs_added, got.len());
    }

    #[test]
    fn tallies_are_exact_at_width_one() {
        // Every pair found is added once and expanded once, so the
        // per-worker tallies must add up to the oracle's pair count and to
        // the degree sum over those pairs — also when a one-slot-short
        // table refuses inserts and the search has to grow and retry.
        for seed in 0..4u64 {
            let g = gnm_digraph(200, 700, seed);
            let sources: Vec<V> = vec![0, 7, 42, 99];
            for forward in [true, false] {
                let want = seq_pairs(&g, &sources, forward);
                let degrees: u64 =
                    want.iter().map(|&(v, _)| g.neighbors_dir(v, forward).len() as u64).sum();
                for (vgc, capacity) in [(true, 1024), (false, 1024), (true, 1)] {
                    let params = ReachParams { vgc, ..ReachParams::default() };
                    let labels = fresh_labels(g.n());
                    let mut table = PairTable::with_capacity(capacity);
                    let outcome = pscc_runtime::with_threads(1, || {
                        multi_reach(&g, &sources, forward, &labels, &params, &mut table)
                    });
                    let case = format!("seed={seed} forward={forward} vgc={vgc} cap={capacity}");
                    assert_eq!(outcome.pairs_added, want.len(), "{case}");
                    assert_eq!(table.len(), want.len(), "{case}");
                    assert_eq!(outcome.edges_scanned, degrees, "{case}");
                }
            }
        }
    }

    #[test]
    fn refused_inserts_are_retried_and_counted() {
        // One round offers a 16-slot table far more pairs than it has
        // slots, so most inserts are refused (pigeonhole) and must come
        // back through grow-and-retry: a star scanned by the heavy-vertex
        // path, and a fan-out-40 tree explored by VGC local search.
        let star: Vec<(V, V)> = (1..5001).map(|v| (0, v)).collect();
        let tree: Vec<(V, V)> = (1..1641).map(|v| ((v - 1) / 40, v)).collect();
        for (n, edges) in [(5001, star), (1641, tree)] {
            let g = DiGraph::from_edges(n, &edges);
            for width in [1, 4] {
                let labels = fresh_labels(n);
                let mut table = PairTable::with_capacity(1);
                let outcome = pscc_runtime::with_threads(width, || {
                    multi_reach(&g, &[0], true, &labels, &ReachParams::default(), &mut table)
                });
                assert_eq!(outcome.pairs_added, n, "n={n} width={width}");
                assert_eq!(table.len(), n, "n={n} width={width}");
                assert_eq!(outcome.edges_scanned, g.m() as u64, "n={n} width={width}");
            }
        }
    }

    #[test]
    fn label_boundaries_cut_searches() {
        // path 0->1->2->3 with label change at 2: sources {0} reach {0,1}.
        let g = path_digraph(4);
        let labels = fresh_labels(4);
        labels[2].store(5, Ordering::Relaxed);
        labels[3].store(5, Ordering::Relaxed);
        let mut table = PairTable::with_capacity(64);
        multi_reach(&g, &[0], true, &labels, &ReachParams::default(), &mut table);
        let got: HashSet<(V, V)> =
            table.keys().into_iter().map(|k| (pair_vertex(k), pair_source(k))).collect();
        let want: HashSet<(V, V)> = [(0, 0), (1, 0)].into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sources_in_same_label_region_share_pairs() {
        // Complete bipartite-ish overlap: both sources reach the whole
        // strongly connected cycle, giving 2n pairs.
        let g = cycle_digraph(40);
        let (got, outcome) = run(&g, &[3, 17], true, &ReachParams::default());
        assert_eq!(got.len(), 80);
        assert_eq!(outcome.pairs_added, 80);
    }
}
