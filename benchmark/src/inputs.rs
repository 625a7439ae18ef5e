//! Everything a run feeds the program, made from `--seed` alone: the graph,
//! the query stream, the delta stream — and the benchmark's own oracles,
//! which share no code with the layers they check (own CSR, own BFS).

use pscc_graph::generators::{lattice::lattice_sqr, rmat::rmat_digraph};
use pscc_graph::{DiGraph, V};
use pscc_runtime::{hash64, SplitMix64};
use std::collections::HashSet;

/// Graph family and size; fixed per workload, only the seed varies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// `lattice_sqr(side, side)`: the paper's large-diameter torus.
    Lattice { side: usize },
    /// RMAT with `8·n` edges plus the reverse of a hashed half of them
    /// (as `pscc-bench`'s `LJ*`): low diameter, one giant SCC.
    Social { scale: u32 },
    /// RMAT with `6·n` edges: many small components, a deep sparse DAG.
    Rmat { scale: u32 },
}

/// How query pairs repeat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Uniform pairs that never repeat on purpose (memo hit ratio ≈ 0).
    Fresh,
    /// Zipf(`s`) over a fixed pool of `pool` pairs (pool ≪ memo).
    Zipf { pool: usize, s: f64 },
}

/// The graph of `shape` for `seed`.
pub fn generate(shape: Shape, seed: u64) -> DiGraph {
    match shape {
        Shape::Lattice { side } => lattice_sqr(side, side, seed),
        Shape::Rmat { scale } => rmat_digraph(scale, 6usize << scale, seed),
        Shape::Social { scale } => {
            let base = rmat_digraph(scale, 8usize << scale, seed);
            let salt = hash64(seed ^ 0x1111);
            let mut edges: Vec<(V, V)> = base.out_csr().edges().collect();
            let forward = edges.len();
            for i in 0..forward {
                let (u, v) = edges[i];
                if hash64(((u as u64) << 32 | v as u64) ^ salt) < u64::MAX / 2 {
                    edges.push((v, u));
                }
            }
            DiGraph::from_edges(base.n(), &edges)
        }
    }
}

/// The benchmark's own adjacency: a counting-sort CSR over an edge list.
pub struct OwnCsr {
    offsets: Vec<u32>,
    targets: Vec<V>,
}

impl OwnCsr {
    pub fn from_edges(n: usize, edges: impl Iterator<Item = (V, V)> + Clone) -> OwnCsr {
        let mut offsets = vec![0u32; n + 1];
        for (u, _) in edges.clone() {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as V; offsets[n] as usize];
        for (u, v) in edges {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
        }
        OwnCsr { offsets, targets }
    }

    fn neighbors(&self, u: V) -> &[V] {
        &self.targets[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// Reachability from a few seeded sources by sequential BFS — the answers
/// every checked query is compared against.
pub struct Oracle {
    sources: Vec<V>,
    /// `slot[u]` = index into `sources`/`reach`, or `NONE`.
    slot: Vec<u8>,
    /// One bitset over the vertices per source.
    reach: Vec<Vec<u64>>,
}

const NONE: u8 = u8::MAX;

impl Oracle {
    /// BFS from `count` (≤ 254) distinct seeded sources; the searches are
    /// independent, so they are split over `threads` plain threads.
    pub fn build(csr: &OwnCsr, count: usize, seed: u64, threads: usize) -> Oracle {
        let n = csr.n();
        assert!(count < NONE as usize && count <= n);
        let mut rng = SplitMix64::new(seed ^ 0x0a4c1e);
        let mut slot = vec![NONE; n];
        let mut sources = Vec::with_capacity(count);
        while sources.len() < count {
            let u = rng.next_below(n as u64) as V;
            if slot[u as usize] == NONE {
                slot[u as usize] = sources.len() as u8;
                sources.push(u);
            }
        }
        let mut reach: Vec<Vec<u64>> = vec![Vec::new(); count];
        let chunk = count.div_ceil(threads.max(1));
        std::thread::scope(|scope| {
            for (srcs, outs) in sources.chunks(chunk).zip(reach.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (&s, out) in srcs.iter().zip(outs) {
                        *out = bfs(csr, s);
                    }
                });
            }
        });
        Oracle { sources, slot, reach }
    }

    pub fn sources(&self) -> &[V] {
        &self.sources
    }

    /// The true answer to `u ⇝ v` if `u` is an oracle source.
    pub fn expected(&self, u: V, v: V) -> Option<bool> {
        let slot = self.slot[u as usize];
        (slot != NONE).then(|| self.reach[slot as usize][v as usize / 64] >> (v % 64) & 1 == 1)
    }

    /// How many of `answers` contradict the oracle, over the queries it
    /// can judge; also returns how many it judged.
    pub fn check(&self, queries: &[(V, V)], answers: impl Iterator<Item = bool>) -> (u64, u64) {
        let (mut judged, mut wrong) = (0, 0);
        for (&(u, v), got) in queries.iter().zip(answers) {
            if let Some(want) = self.expected(u, v) {
                judged += 1;
                wrong += (got != want) as u64;
            }
        }
        (judged, wrong)
    }
}

fn bfs(csr: &OwnCsr, src: V) -> Vec<u64> {
    let mut seen = vec![0u64; csr.n().div_ceil(64)];
    seen[src as usize / 64] |= 1 << (src % 64);
    let mut queue = vec![src];
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for &v in csr.neighbors(u) {
            let (word, bit) = (v as usize / 64, 1u64 << (v % 64));
            if seen[word] & bit == 0 {
                seen[word] |= bit;
                queue.push(v);
            }
        }
    }
    seen
}

/// The benchmark's own copy of the edge set: the generated edges (sorted,
/// as the CSR yields them) plus what the delta stream did to them.
pub struct EdgeSet {
    n: usize,
    base: Vec<(V, V)>,
    deleted: HashSet<(V, V)>,
    inserted: HashSet<(V, V)>,
}

impl EdgeSet {
    pub fn of(g: &DiGraph) -> EdgeSet {
        let base: Vec<(V, V)> = g.out_csr().edges().collect();
        debug_assert!(base.windows(2).all(|w| w[0] < w[1]));
        EdgeSet { n: g.n(), base, deleted: HashSet::new(), inserted: HashSet::new() }
    }

    fn contains(&self, e: (V, V)) -> bool {
        self.inserted.contains(&e)
            || (self.base.binary_search(&e).is_ok() && !self.deleted.contains(&e))
    }

    pub fn edges(&self) -> impl Iterator<Item = (V, V)> + Clone + '_ {
        self.base.iter().filter(|e| !self.deleted.contains(e)).chain(self.inserted.iter()).copied()
    }

    pub fn csr(&self) -> OwnCsr {
        OwnCsr::from_edges(self.n, self.edges())
    }
}

/// One edge written per delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    Insert(V, V),
    Delete(V, V),
}

/// The write stream: three random insertions of absent edges, then one
/// deletion of a present edge, repeating. Every delta is effective (never
/// a no-op), so the benchmark's edge set and the program's stay in step.
pub struct DeltaStream {
    rng: SplitMix64,
    issued: u64,
}

impl DeltaStream {
    pub fn new(seed: u64) -> DeltaStream {
        DeltaStream { rng: SplitMix64::new(seed ^ 0xde17a), issued: 0 }
    }

    pub fn next(&mut self, edges: &mut EdgeSet) -> Change {
        let n = edges.n as u64;
        self.issued += 1;
        if self.issued.is_multiple_of(4) {
            loop {
                let e = edges.base[self.rng.next_below(edges.base.len() as u64) as usize];
                if edges.deleted.insert(e) {
                    return Change::Delete(e.0, e.1);
                }
            }
        }
        loop {
            let e = (self.rng.next_below(n) as V, self.rng.next_below(n) as V);
            if e.0 != e.1 && !edges.contains(e) {
                edges.inserted.insert(e);
                return Change::Insert(e.0, e.1);
            }
        }
    }
}

/// The read stream. One query in [`ORACLE_EVERY`] starts at an oracle
/// source, so every batch and every wire window carries answers that are
/// checked; the rest are uniform pairs.
pub struct QueryGen {
    rng: SplitMix64,
    n: u64,
    sources: Vec<V>,
    /// Zipf workloads draw from this fixed pool through `cdf`.
    pool: Vec<(V, V)>,
    cdf: Vec<f64>,
}

pub const ORACLE_EVERY: usize = 16;

impl QueryGen {
    /// `stream` separates the generators of one run (one per client
    /// thread or phase); the Zipf pool depends on `seed` only, so every
    /// stream of a run repeats the same keys.
    pub fn new(dist: Dist, n: usize, oracle: &Oracle, seed: u64, stream: u64) -> QueryGen {
        let mut gen = QueryGen {
            rng: SplitMix64::new(seed ^ 0x9e27),
            n: n as u64,
            sources: oracle.sources().to_vec(),
            pool: Vec::new(),
            cdf: Vec::new(),
        };
        if let Dist::Zipf { pool, s } = dist {
            gen.pool = (0..pool).map(|i| gen.fresh_pair(i)).collect();
            gen.cdf = zipf_cdf(pool, s);
        }
        gen.rng = SplitMix64::new(hash64(seed ^ 0x9e27) ^ hash64(stream + 1));
        gen
    }

    fn fresh_pair(&mut self, i: usize) -> (V, V) {
        let v = self.rng.next_below(self.n) as V;
        let u = if i.is_multiple_of(ORACLE_EVERY) {
            self.sources[self.rng.next_below(self.sources.len() as u64) as usize]
        } else {
            self.rng.next_below(self.n) as V
        };
        (u, v)
    }

    /// Replaces `out` with the next `len` queries.
    pub fn fill(&mut self, out: &mut Vec<(V, V)>, len: usize) {
        out.clear();
        for i in 0..len {
            let q = if self.pool.is_empty() {
                self.fresh_pair(i)
            } else {
                self.pool[zipf_rank(&self.cdf, self.rng.next_f64())]
            };
            out.push(q);
        }
    }
}

/// Cumulative Zipf(`s`) weights over ranks `1..=len`, ending at 1.
pub fn zipf_cdf(len: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=len).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    cdf
}

/// 0-based rank whose CDF interval holds `x ∈ [0, 1)`.
pub fn zipf_rank(cdf: &[f64], x: f64) -> usize {
    cdf.partition_point(|&c| c <= x).min(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DiGraph {
        // 0 -> 1 -> 2 -> 0 cycle, 2 -> 3, 4 isolated.
        DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn oracle_is_a_plain_bfs() {
        let edges = EdgeSet::of(&tiny());
        let oracle = Oracle::build(&edges.csr(), 5, 1, 2);
        for &(u, v, want) in &[(0, 3, true), (3, 0, false), (4, 4, true), (1, 0, true)] {
            assert_eq!(oracle.expected(u, v), Some(want), "{u}->{v}");
        }
        let queries = [(0, 3), (3, 0), (4, 0)];
        assert_eq!(oracle.check(&queries, [true, true, false].into_iter()), (3, 1));
    }

    #[test]
    fn zipf_sampler_is_skewed_and_in_range() {
        let cdf = zipf_cdf(8192, 1.1);
        assert_eq!(cdf.len(), 8192);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(zipf_rank(&cdf, 0.0), 0);
        assert_eq!(zipf_rank(&cdf, 0.999_999_999), 8191);
        // Rank 1 of Zipf(1.1) over 8192 keys carries ~15 % of the mass.
        assert!(cdf[0] > 0.12 && cdf[0] < 0.2, "{}", cdf[0]);
        let mut rng = SplitMix64::new(3);
        let mut top16 = 0;
        for _ in 0..10_000 {
            top16 += (zipf_rank(&cdf, rng.next_f64()) < 16) as usize;
        }
        assert!(top16 > 4_000, "head of the distribution must dominate: {top16}");
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let g = generate(Shape::Rmat { scale: 10 }, 5);
        let oracle = Oracle::build(&EdgeSet::of(&g).csr(), 8, 5, 1);
        let run = |seed: u64, dist: Dist| {
            let mut edges = EdgeSet::of(&g);
            let mut deltas = DeltaStream::new(seed);
            let changes: Vec<Change> = (0..40).map(|_| deltas.next(&mut edges)).collect();
            let mut gen = QueryGen::new(dist, g.n(), &oracle, seed, 0);
            let mut queries = Vec::new();
            gen.fill(&mut queries, 256);
            (changes, queries)
        };
        for dist in [Dist::Fresh, Dist::Zipf { pool: 512, s: 1.1 }] {
            assert_eq!(run(7, dist), run(7, dist));
            assert_ne!(run(7, dist), run(8, dist));
        }
        // Two streams of one Zipf run share the pool but not the draws.
        let zipf = Dist::Zipf { pool: 512, s: 1.1 };
        let (a, b) =
            (QueryGen::new(zipf, g.n(), &oracle, 7, 0), QueryGen::new(zipf, g.n(), &oracle, 7, 1));
        assert_eq!(a.pool, b.pool);
    }

    #[test]
    fn deltas_are_always_effective_and_mix_three_to_one() {
        let g = generate(Shape::Lattice { side: 16 }, 2);
        let mut edges = EdgeSet::of(&g);
        let before: HashSet<(V, V)> = edges.edges().collect();
        let mut deltas = DeltaStream::new(9);
        let (mut inserts, mut deletes) = (0, 0);
        let mut now = before.clone();
        for _ in 0..100 {
            match deltas.next(&mut edges) {
                Change::Insert(u, v) => {
                    assert!(now.insert((u, v)), "insert of a present edge");
                    inserts += 1;
                }
                Change::Delete(u, v) => {
                    assert!(now.remove(&(u, v)), "delete of an absent edge");
                    deletes += 1;
                }
            }
        }
        assert_eq!((inserts, deletes), (75, 25));
        assert_eq!(edges.edges().collect::<HashSet<_>>(), now);
    }

    #[test]
    fn one_query_in_sixteen_is_checkable() {
        let g = generate(Shape::Rmat { scale: 10 }, 5);
        let oracle = Oracle::build(&EdgeSet::of(&g).csr(), 8, 5, 1);
        let mut gen = QueryGen::new(Dist::Fresh, g.n(), &oracle, 1, 0);
        let mut queries = Vec::new();
        gen.fill(&mut queries, 256);
        let judged = queries.iter().filter(|&&(u, v)| oracle.expected(u, v).is_some()).count();
        assert!(judged >= 256 / ORACLE_EVERY);
    }

    #[test]
    fn shapes_have_the_stated_sizes() {
        let lattice = generate(Shape::Lattice { side: 20 }, 1);
        assert_eq!((lattice.n(), lattice.m()), (400, 800));
        let social = generate(Shape::Social { scale: 10 }, 1);
        let rmat = generate(Shape::Rmat { scale: 10 }, 1);
        assert_eq!(social.n(), 1024);
        assert!(social.m() > rmat.m());
    }
}
