//! The parallel BGSS LE-lists algorithm (Alg. 5) with hash-bag frontiers.
//!
//! Vertices are permuted and processed in prefix-doubling batches. Each
//! batch runs a simultaneous multi-BFS from all its sources, pruned by the
//! tentative distances `δ(·)` of *previous* batches; round `r` of the BFS
//! reaches pairs at distance exactly `r`, so distances never need storing
//! in the frontier. After a batch, the collected `(u, src, d)` triples
//! update `δ` and are filtered per vertex in priority order to extend the
//! LE-lists.
//!
//! The frontier is a set of `(u, src)` pairs maintained either by the
//! parallel hash bag ("ours") or by a per-round table whose packed keys are
//! the next frontier (the edge-revisit-style baseline matching ParlayLib's
//! two-visit multi-BFS). VGC is not used: it would break the round =
//! distance invariant (§5.2).

use std::sync::atomic::{AtomicU32, Ordering};

use pscc_bag::{BagConfig, HashBag};
use pscc_graph::{UnGraph, V};
use pscc_runtime::{atomic_min_u32, par_range, random_permutation};
use pscc_table::{pack_pair, pair_source, pair_vertex, Insert, PairTable};

use crate::LeEntry;

/// Frontier engine for the multi-BFS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontierMode {
    /// Parallel hash bag (ours).
    HashBag,
    /// Per-round table + pack (ParlayLib-like baseline).
    EdgeRevisit,
}

/// LE-lists configuration.
#[derive(Clone, Copy, Debug)]
pub struct LeListsConfig {
    /// Batch growth multiplier (Alg. 5 uses 2).
    pub beta: f64,
    /// Permutation seed.
    pub seed: u64,
    /// Frontier engine.
    pub mode: FrontierMode,
    /// Hash-bag parameters.
    pub bag: BagConfig,
}

impl Default for LeListsConfig {
    fn default() -> Self {
        Self { beta: 2.0, seed: 0x1e1, mode: FrontierMode::HashBag, bag: BagConfig::default() }
    }
}

/// Output of the parallel LE-list computation.
#[derive(Clone, Debug)]
pub struct LeListsResult {
    /// Per-vertex LE-lists (decreasing distance / increasing priority).
    pub lists: Vec<Vec<LeEntry>>,
    /// The priority order used (`priority[0]` = highest priority).
    pub priority: Vec<V>,
    /// Total BFS rounds across batches.
    pub rounds: usize,
    /// Total LE-list entries.
    pub total_size: usize,
}

/// Computes all LE-lists of `g` under a seeded random priority order.
pub fn le_lists(g: &UnGraph, cfg: &LeListsConfig) -> LeListsResult {
    let n = g.n();
    let priority = random_permutation(n, cfg.seed);
    let lists = le_lists_with_priority(g, &priority, cfg);
    let total_size = lists.0.iter().map(|l| l.len()).sum();
    LeListsResult { lists: lists.0, priority, rounds: lists.1, total_size }
}

/// Computes LE-lists for an explicit priority order; returns
/// `(lists, rounds)`. Exposed so tests can share a permutation with the
/// Cohen oracle.
pub fn le_lists_with_priority(
    g: &UnGraph,
    priority: &[V],
    cfg: &LeListsConfig,
) -> (Vec<Vec<LeEntry>>, usize) {
    let n = g.n();
    assert_eq!(priority.len(), n);
    if n == 0 {
        return (Vec::new(), 0);
    }
    // rank[v] = position of v in the priority order.
    let mut rank = vec![0u32; n];
    for (i, &v) in priority.iter().enumerate() {
        rank[v as usize] = i as u32;
    }
    let delta: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    let mut lists: Vec<Vec<LeEntry>> = vec![Vec::new(); n];
    let mut rounds = 0usize;

    // One pair table and one hash bag for the whole run: each batch resets
    // the table, and the bag is re-allocated only if a table outgrows it.
    let mut table = PairTable::with_capacity(1024);
    let mut bag: HashBag<u64> = HashBag::with_config(table.slot_count() / 2, cfg.bag);

    let mut cursor = 0usize;
    let mut batch = 1usize;
    while cursor < n {
        let end = (cursor + batch).min(n);
        let sources = &priority[cursor..end];
        cursor = end;
        batch = ((batch as f64 * cfg.beta).ceil() as usize).max(batch + 1);

        // ---- multi-BFS for this batch ----
        table.reset((sources.len() * 8).max(1024));
        // Triples (u, src, d) collected this batch.
        let mut triples: Vec<(V, V, u32)> = Vec::new();
        let mut frontier: Vec<u64> = Vec::new();
        for &s in sources {
            if delta[s as usize].load(Ordering::Relaxed) > 0 {
                let key = pack_pair(s, s);
                force_insert(&mut table, key);
                frontier.push(key);
                triples.push((s, s, 0));
            }
        }
        // The table keeps no count; every pair it holds went through a
        // frontier, so the frontier sizes add up to it.
        let mut pairs = frontier.len();
        // Keys whose global insert hit the probe limit (rare): re-inserted
        // after a grow at the end of the round.
        let overflow: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());
        // Keys that are in the global table but could not be recorded in
        // the round structure (EdgeRevisit only).
        let missed: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());
        let mut d = 0u32;
        while !frontier.is_empty() {
            rounds += 1;
            d += 1;
            // Grow proactively so mid-round Full events stay rare (§4.5).
            while pairs * 4 >= table.slot_count() {
                table.grow();
            }
            // A round adds at most what the table has room for.
            bag.reserve(table.slot_count() / 2);
            let mut next: Vec<u64> = match cfg.mode {
                FrontierMode::HashBag => {
                    let bag_ref = &bag;
                    expand(g, &frontier, &delta, &table, d, &overflow, |key| bag_ref.insert(key));
                    bag.extract_all()
                }
                FrontierMode::EdgeRevisit => {
                    let round = PairTable::with_capacity(table.slot_count());
                    let round_ref = &round;
                    let missed_ref = &missed;
                    expand(g, &frontier, &delta, &table, d, &overflow, |key| {
                        if round_ref.insert(key) == Insert::Full {
                            missed_ref.lock().expect("missed lock").push(key);
                        }
                    });
                    let mut keys = round.keys();
                    keys.append(&mut missed.lock().expect("missed lock"));
                    keys
                }
            };
            // Resolve overflowed global inserts: grow, retry, splice.
            loop {
                let pending = std::mem::take(&mut *overflow.lock().expect("overflow lock"));
                if pending.is_empty() {
                    break;
                }
                table.grow();
                for key in pending {
                    match table.insert(key) {
                        Insert::Added => next.push(key),
                        Insert::Present => {}
                        Insert::Full => overflow.lock().expect("overflow lock").push(key),
                    }
                }
            }
            triples.extend(next.iter().map(|&key| (pair_vertex(key), pair_source(key), d)));
            pairs += next.len();
            frontier = next;
        }

        // ---- δ update + per-vertex filtering (Alg. 5 lines 5–7) ----
        par_range(0..triples.len(), 2048, &|r| {
            for &(u, _, d) in &triples[r] {
                atomic_min_u32(&delta[u as usize], d);
            }
        });
        // Sort by (vertex, priority rank): each vertex's candidates in
        // priority order.
        {
            let rank = &rank;
            pscc_runtime::par_sort_unstable_by_key(&mut triples[..], |&(u, s, _)| {
                ((u as u64) << 32) | rank[s as usize] as u64
            });
        }
        // Group boundaries, then filter each vertex's run independently.
        let bounds: Vec<usize> = {
            let t = &triples;
            let mut b: Vec<usize> =
                pscc_runtime::pack_index(t.len(), |i| i == 0 || t[i].0 != t[i - 1].0);
            b.push(t.len());
            b
        };
        {
            struct P(*mut Vec<LeEntry>);
            // SAFETY: P is only shared with the loop below; triples are
            // grouped by vertex and each group (hence each lists[u]) is
            // handled by exactly one task.
            unsafe impl Sync for P {}
            impl P {
                fn get(&self) -> *mut Vec<LeEntry> {
                    self.0
                }
            }
            let lptr = P(lists.as_mut_ptr());
            let triples = &triples;
            par_range(0..bounds.len().saturating_sub(1), 8, &|r| {
                for gi in r {
                    let (lo, hi) = (bounds[gi], bounds[gi + 1]);
                    let u = triples[lo].0 as usize;
                    // Keep a candidate iff strictly closer than everything
                    // kept before it (all of higher priority).
                    let mut run_min = u32::MAX;
                    // SAFETY: u is group gi's vertex and groups have
                    // distinct vertices, so this &mut to lists[u] is the
                    // only live reference to it.
                    let list = unsafe { &mut *lptr.get().add(u) };
                    for &(_, s, d) in &triples[lo..hi] {
                        if d < run_min {
                            run_min = d;
                            list.push((s, d));
                        }
                    }
                }
            });
        }
    }
    (lists, rounds)
}

/// One BFS round: expand every frontier pair to distance `d`, inserting
/// unseen pairs that beat `δ` into the global table and forwarding them via
/// `emit`. Probe-limit overflows are collected into `overflow` for the
/// caller to resolve after the round.
fn expand<F>(
    g: &UnGraph,
    frontier: &[u64],
    delta: &[AtomicU32],
    table: &PairTable,
    d: u32,
    overflow: &std::sync::Mutex<Vec<u64>>,
    emit: F,
) where
    F: Fn(u64) + Sync,
{
    par_range(0..frontier.len(), 1, &|r| {
        for i in r {
            let pair = frontier[i];
            let (v, s) = (pair_vertex(pair), pair_source(pair));
            for &u in g.neighbors(v) {
                if d < delta[u as usize].load(Ordering::Relaxed) {
                    let key = pack_pair(u, s);
                    match table.insert(key) {
                        Insert::Added => emit(key),
                        Insert::Present => {}
                        Insert::Full => overflow.lock().expect("overflow lock").push(key),
                    }
                }
            }
        }
    });
}

/// Insert that grows on demand (used only for seeding, outside parallel
/// sections).
fn force_insert(table: &mut PairTable, key: u64) {
    loop {
        match table.insert(key) {
            Insert::Added | Insert::Present => return,
            Insert::Full => table.grow(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohen::cohen_le_lists;
    use pscc_graph::generators::random::gnm_digraph;

    fn path_graph(n: usize) -> UnGraph {
        let edges: Vec<(V, V)> = (0..n as V - 1).map(|v| (v, v + 1)).collect();
        UnGraph::from_undirected_edges(n, &edges)
    }

    fn check_against_cohen(g: &UnGraph, seed: u64) {
        let perm = random_permutation(g.n(), seed);
        let want = cohen_le_lists(g, &perm);
        for mode in [FrontierMode::HashBag, FrontierMode::EdgeRevisit] {
            let cfg = LeListsConfig { mode, ..LeListsConfig::default() };
            let (got, _) = le_lists_with_priority(g, &perm, &cfg);
            assert_eq!(got, want, "mode {mode:?} seed {seed}");
        }
    }

    #[test]
    fn matches_cohen_on_path() {
        check_against_cohen(&path_graph(50), 1);
    }

    #[test]
    fn matches_cohen_on_random_graphs() {
        for seed in 0..4u64 {
            let g = gnm_digraph(120, 360, seed).symmetrize();
            check_against_cohen(&g, seed + 10);
        }
    }

    #[test]
    fn matches_cohen_on_disconnected_graph() {
        let g = gnm_digraph(200, 120, 5).symmetrize();
        check_against_cohen(&g, 3);
    }

    #[test]
    fn matches_cohen_on_grid() {
        let mut edges = Vec::new();
        let w = 12;
        for y in 0..w {
            for x in 0..w {
                let v = (y * w + x) as V;
                if x + 1 < w {
                    edges.push((v, v + 1));
                }
                if y + 1 < w {
                    edges.push((v, v + w as V));
                }
            }
        }
        let g = UnGraph::from_undirected_edges(w * w, &edges);
        check_against_cohen(&g, 8);
    }

    #[test]
    fn list_sizes_are_logarithmic() {
        let g = gnm_digraph(2000, 8000, 2).symmetrize();
        let res = le_lists(&g, &LeListsConfig::default());
        let max_len = res.lists.iter().map(|l| l.len()).max().unwrap();
        // O(log n) whp: ln(2000) ≈ 7.6; allow generous constant.
        assert!(max_len <= 40, "max LE-list length {max_len}");
        assert!(res.total_size >= g.n(), "every vertex has itself");
    }

    #[test]
    fn result_is_deterministic_for_seed() {
        let g = gnm_digraph(300, 900, 4).symmetrize();
        let a = le_lists(&g, &LeListsConfig::default());
        let b = le_lists(&g, &LeListsConfig::default());
        assert_eq!(a.lists, b.lists);
        assert_eq!(a.priority, b.priority);
    }

    #[test]
    fn empty_graph() {
        let g = UnGraph::from_undirected_edges(0, &[]);
        let res = le_lists(&g, &LeListsConfig::default());
        assert!(res.lists.is_empty());
        assert_eq!(res.total_size, 0);
    }

    #[test]
    fn single_vertex() {
        let g = UnGraph::from_undirected_edges(1, &[]);
        let res = le_lists(&g, &LeListsConfig::default());
        assert_eq!(res.lists, vec![vec![(0, 0)]]);
    }
}
