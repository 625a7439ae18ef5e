//! Property-based tests on the core data structures: the parallel hash
//! bag, the phase-concurrent pair table, concurrent union-find, the
//! run-copy CSR merge behind `DiGraph::with_delta`, and the blocked
//! counting sort behind `Csr::transpose`.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};

use parallel_scc::bag::{BagConfig, HashBag};
use parallel_scc::cc::ConcurrentUnionFind;
use parallel_scc::graph::{Csr, DiGraph, SPLICE_CHUNK, V};
use parallel_scc::runtime::{par_for, with_threads};
use parallel_scc::table::{Insert, PairTable};

/// The in-CSR by a sequential counting sort: count, prefix-sum, then
/// place every edge in source order.
fn reference_transpose(g: &Csr) -> Csr {
    let n = g.n();
    let mut offsets = vec![0u64; n + 1];
    for &v in g.targets() {
        offsets[v as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let (mut next, mut targets) = (offsets.clone(), vec![0; g.m()]);
    for (u, v) in g.edges() {
        targets[next[v as usize] as usize] = u;
        next[v as usize] += 1;
    }
    Csr::from_parts(offsets, targets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn bag_extract_returns_exactly_what_was_inserted(
        items in proptest::collection::hash_set(0u32..1_000_000, 0..400),
        lambda_exp in 1usize..8,
        sigma in 2usize..64,
    ) {
        let cfg = BagConfig { lambda: 1 << lambda_exp, sigma, ..BagConfig::default() };
        let bag: HashBag<u32> = HashBag::with_config(items.len().max(1), cfg);
        let vec: Vec<u32> = items.iter().copied().collect();
        par_for(vec.len(), |i| bag.insert(vec[i]));
        let got: HashSet<u32> = bag.extract_all().into_iter().collect();
        prop_assert_eq!(got, items);
    }

    #[test]
    fn bag_multiple_extract_cycles(
        rounds in proptest::collection::vec(
            proptest::collection::hash_set(0u32..100_000, 1..100), 1..6),
    ) {
        let max = rounds.iter().map(|r| r.len()).max().unwrap_or(1);
        let bag: HashBag<u32> = HashBag::new(max);
        for round in rounds {
            let vec: Vec<u32> = round.iter().copied().collect();
            par_for(vec.len(), |i| bag.insert(vec[i]));
            let got: HashSet<u32> = bag.extract_all().into_iter().collect();
            prop_assert_eq!(got, round);
        }
    }

    #[test]
    fn table_membership_matches_reference_set(
        keys in proptest::collection::vec(0u64..1_000_000, 0..500),
        probes in proptest::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let mut t = PairTable::with_capacity(keys.len().max(8));
        let mut reference = HashSet::new();
        for &k in &keys {
            loop {
                match t.insert(k) {
                    Insert::Added => { prop_assert!(reference.insert(k)); break; }
                    Insert::Present => { prop_assert!(reference.contains(&k)); break; }
                    Insert::Full => t.grow(),
                }
            }
        }
        prop_assert_eq!(t.len(), reference.len());
        for &p in &probes {
            prop_assert_eq!(t.contains(p), reference.contains(&p));
        }
        let got: HashSet<u64> = t.keys().into_iter().collect();
        prop_assert_eq!(got, reference);
    }

    #[test]
    fn union_find_matches_sequential_dsu(
        n in 2usize..200,
        unions in proptest::collection::vec((0usize..200, 0usize..200), 0..300),
    ) {
        let unions: Vec<(u32, u32)> = unions
            .into_iter()
            .map(|(a, b)| ((a % n) as u32, (b % n) as u32))
            .collect();
        let uf = ConcurrentUnionFind::new(n);
        par_for(unions.len(), |i| { uf.unite(unions[i].0, unions[i].1); });

        // Sequential reference.
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(p: &mut [u32], mut x: u32) -> u32 {
            while p[x as usize] != x { p[x as usize] = p[p[x as usize] as usize]; x = p[x as usize]; }
            x
        }
        for &(a, b) in &unions {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb { let (lo, hi) = (ra.min(rb), ra.max(rb)); parent[hi as usize] = lo; }
        }
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                prop_assert_eq!(
                    uf.same_set(a, b),
                    find(&mut parent, a) == find(&mut parent, b),
                    "pair ({}, {})", a, b
                );
            }
        }
    }

    #[test]
    fn bag_survives_any_config(
        n in 1usize..2000,
        lambda_exp in 1usize..6,
        sigma in 1usize..16,
        kappa in 1usize..8,
    ) {
        // Failure injection: degenerate parameters must never lose items.
        let cfg = BagConfig { lambda: 1 << lambda_exp, sigma, kappa, alpha: 0.5 };
        let bag: HashBag<u32> = HashBag::with_config(n, cfg);
        par_for(n, |i| bag.insert(i as u32));
        prop_assert_eq!(bag.extract_all().len(), n);
    }

    /// `g.with_delta(I, D)` is `DiGraph::from_edges((E ∖ D) ∪ I)` in both
    /// directions, on graphs up to three splice chunks long: `I` re-inserts
    /// present edges, `D` deletes absent ones, and the pairs in both lists
    /// must end up present.
    #[test]
    fn with_delta_equals_a_rebuild_of_the_merged_edge_list(
        n in 1usize..3 * SPLICE_CHUNK,
        edges in proptest::collection::vec((0usize..1 << 16, 0usize..1 << 16), 0..1500),
        fresh in proptest::collection::vec((0usize..1 << 16, 0usize..1 << 16), 0..60),
        picks in proptest::collection::vec(0usize..1500, 0..60),
    ) {
        let pair = |(a, b): (usize, usize)| ((a % n) as u32, (b % n) as u32);
        let edges: Vec<(u32, u32)> = edges.into_iter().map(pair).collect();
        let fresh: Vec<(u32, u32)> = fresh.into_iter().map(pair).collect();
        let present: Vec<(u32, u32)> =
            picks.iter().filter_map(|&k| edges.get(k % edges.len().max(1)).copied()).collect();
        let (both, absent) = fresh.split_at(fresh.len() / 2);
        let (reinserted, deleted) = present.split_at(present.len() / 2);
        let ins: Vec<(u32, u32)> = both.iter().chain(reinserted).copied().collect();
        let del: Vec<(u32, u32)> = both.iter().chain(absent).chain(deleted).copied().collect();

        let g = DiGraph::from_edges(n, &edges);
        let got = g.with_delta(&ins, &del);
        let mut want: BTreeSet<(u32, u32)> = edges.iter().copied().collect();
        del.iter().for_each(|e| { want.remove(e); });
        want.extend(&ins);
        let want = DiGraph::from_edges(n, &want.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(got.out_csr(), want.out_csr());
        prop_assert_eq!(got.in_csr(), want.in_csr());
    }

    /// `Csr::transpose` equals the sequential counting sort, byte for byte,
    /// at widths 1, 2 and 8, on rows that are unsorted, hold duplicates,
    /// self-loops or nothing, or on one hub row holding every edge (so
    /// some blocks are empty), down to n = 0 and m = 0.
    #[test]
    fn transpose_equals_a_sequential_counting_sort_at_every_width(
        size in 0usize..6,
        shape in 0usize..4,
        lens in proptest::collection::vec(0usize..24, 0..1500),
        raw in proptest::collection::vec(0u32..u32::MAX, 0..4000),
    ) {
        let n = [0, 1, 2, 37, 300, 1500][size];
        // shape 0: no edges; 1: every edge in one hub row; else rows of
        // `lens` lengths. Every fifth edge is a self-loop.
        let hub = raw.first().map_or(0, |&x| x as usize % n.max(1));
        let (mut offsets, mut targets) = (vec![0u64], Vec::<V>::new());
        for v in 0..n {
            let len = match shape {
                0 => 0,
                1 if v == hub => raw.len(),
                1 => 0,
                _ => lens.get(v).copied().unwrap_or(0),
            };
            for _ in 0..len {
                let i = targets.len();
                let x = raw.get(i % raw.len().max(1)).copied().unwrap_or(0);
                targets.push(if i % 5 == 4 { v as V } else { x % n as u32 });
            }
            offsets.push(targets.len() as u64);
        }
        let g = Csr::from_parts(offsets, targets);
        let want = reference_transpose(&g);
        for width in [1, 2, 8] {
            let got = with_threads(width, || g.transpose());
            prop_assert!(got == want, "n={} m={} width {}", g.n(), g.m(), width);
        }
    }
}
