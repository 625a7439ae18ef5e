//! Acceptance test for the catalog's delta-ingestion path on an RMAT
//! graph: random edge-insertion deltas applied through
//! `Catalog::apply_delta` must answer a 10 000-query batch identically to
//! a from-scratch index over the merged graph — and the tiered repair
//! planner must provably take the right path (an in-SCC/already-reachable
//! delta keeps the very same `Arc<Index>` instance, a component-merging
//! delta is repaired by the region tier without an SCC run over the
//! whole graph).

use parallel_scc::engine::{Delta, DeltaOutcome};
use parallel_scc::prelude::*;
use std::sync::Arc;

fn random_queries(n: usize, count: usize, seed: u64) -> Vec<(V, V)> {
    let mut rng = pscc_runtime::SplitMix64::new(seed);
    (0..count).map(|_| (rng.next_below(n as u64) as V, rng.next_below(n as u64) as V)).collect()
}

#[test]
fn rmat_deltas_match_from_scratch_rebuild() {
    // 2^15 = 32 768 vertices keeps the double index build fast while the
    // graph still has a rich SCC structure.
    let g = parallel_scc::graph::generators::rmat::rmat_digraph(15, 98_304, 0xde17a);
    let n = g.n();

    let catalog = Catalog::new();
    catalog.insert("g", g.clone());

    // Random insertion delta (sources/targets anywhere in the graph).
    let mut rng = pscc_runtime::SplitMix64::new(0x0dd5);
    let inserted: Vec<(V, V)> =
        (0..2000).map(|_| (rng.next_below(n as u64) as V, rng.next_below(n as u64) as V)).collect();
    let report =
        catalog.apply_delta("g", &Delta::from_parts(inserted.clone(), Vec::new())).unwrap();
    assert!(report.inserted > 0);

    // From-scratch oracle: rebuild the graph and a fresh index.
    let mut edges: Vec<(V, V)> = g.out_csr().edges().collect();
    edges.extend_from_slice(&inserted);
    let merged = DiGraph::from_edges(n, &edges);
    assert_eq!(catalog.graph("g").unwrap().out_csr(), merged.out_csr());
    let scratch = ReachIndex::build(&merged);

    let queries = random_queries(n, 10_000, 0xbeef);
    let got = catalog.answer_batch("g", &queries).unwrap();
    for (i, &(u, v)) in queries.iter().enumerate() {
        assert_eq!(got[i], scratch.reaches(u, v), "query ({u}, {v})");
    }
}

#[test]
fn rmat_absorbable_delta_keeps_index_merging_delta_repairs_in_place() {
    let g = parallel_scc::graph::generators::rmat::rmat_digraph(14, 65_536, 0xcafe);
    let n = g.n();
    let catalog = Catalog::new();
    catalog.insert("g", g);
    let before = catalog.index("g").unwrap();

    // Harvest pairs from answered queries: reachable ones make an
    // absorbable delta; a one-way pair reversed makes a merging delta.
    let queries = random_queries(n, 4_000, 0x5eed);
    let answers = catalog.answer_batch("g", &queries).unwrap();
    let absorbable: Vec<(V, V)> = queries
        .iter()
        .zip(&answers)
        .filter(|&(&(u, v), &a)| a && u != v)
        .map(|(&q, _)| q)
        .take(100)
        .collect();
    assert!(!absorbable.is_empty(), "RMAT batch should contain reachable pairs");
    let merging = queries
        .iter()
        .zip(&answers)
        .find(|&(&(u, v), &a)| a && u != v && !before.reaches(v, u))
        .map(|(&(u, v), _)| (v, u))
        .expect("RMAT batch should contain a one-way pair");

    // Absorbable delta: same Arc<Index> instance, no rebuild.
    let report = catalog.apply_delta("g", &Delta::from_parts(absorbable, Vec::new())).unwrap();
    assert_eq!(report.outcome, DeltaOutcome::Absorbed);
    let kept = catalog.index("g").unwrap();
    assert!(Arc::ptr_eq(&before, &kept), "absorbed delta must keep the index instance");

    // Component-merging delta: a patched index from the region tier (or,
    // if the merge region outgrows the planner budget on this graph, the
    // cost-bounded full rebuild) — never a silent wrong answer.
    let mut d = Delta::new();
    d.insert(merging.0, merging.1);
    let report = catalog.apply_delta("g", &d).unwrap();
    let repaired = catalog.index("g").unwrap();
    assert!(!Arc::ptr_eq(&before, &repaired), "merging delta must produce a new index");
    assert!(
        matches!(report.outcome, DeltaOutcome::RegionRecomputed | DeltaOutcome::Rebuilt),
        "merging delta took an impossible path: {:?}",
        report.outcome
    );
    // Components did merge: strictly fewer than before.
    assert!(repaired.num_components() < before.num_components());
    // The merge is visible: the reversed pair became mutually reachable.
    assert_eq!(catalog.reaches("g", merging.1, merging.0), Some(true));
    assert_eq!(catalog.reaches("g", merging.0, merging.1), Some(true));
}

/// The region tier must answer the same 10k-query batch as a from-scratch
/// index after a cycle-merging insertion on RMAT.
#[test]
fn rmat_region_recompute_matches_from_scratch_rebuild() {
    let g = parallel_scc::graph::generators::rmat::rmat_digraph(14, 65_536, 0x4e610);
    let n = g.n();
    let catalog = Catalog::new();
    catalog.insert("g", g.clone());
    let before = catalog.index("g").unwrap();

    // Reverse an existing cross-component edge: guaranteed to close at
    // least one cycle through the two endpoint components.
    let queries = random_queries(n, 4_000, 0x7ea);
    let answers = catalog.answer_batch("g", &queries).unwrap();
    let (u, v) = queries
        .iter()
        .zip(&answers)
        .find(|&(&(u, v), &a)| a && u != v && !before.reaches(v, u))
        .map(|(&q, _)| q)
        .expect("RMAT batch should contain a one-way pair");

    let mut d = Delta::new();
    d.insert(v, u);
    let report = catalog.apply_delta("g", &d).unwrap();
    assert!(
        matches!(report.outcome, DeltaOutcome::RegionRecomputed | DeltaOutcome::Rebuilt),
        "unexpected outcome {:?}",
        report.outcome
    );

    let mut edges: Vec<(V, V)> = g.out_csr().edges().collect();
    edges.push((v, u));
    let scratch = ReachIndex::build(&DiGraph::from_edges(n, &edges));
    let check = random_queries(n, 10_000, 0xc4ec4);
    let got = catalog.answer_batch("g", &check).unwrap();
    for (i, &(a, b)) in check.iter().enumerate() {
        assert_eq!(got[i], scratch.reaches(a, b), "query ({a}, {b})");
    }
}
