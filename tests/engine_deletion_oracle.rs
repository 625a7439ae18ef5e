//! The deletion planner's end-to-end oracle. Three layers of proof:
//!
//! 1. the shared **scenario suite** (`tests/common/scenarios.rs`) drives
//!    scripted workloads over several graph families through
//!    `Catalog::apply_delta`, asserting after every step that all-pairs
//!    answers equal a from-scratch `Index::build` — and that each
//!    scripted step took exactly the repair tier it was constructed to
//!    provoke (support decrement, arc unsplice, SCC split, rebuild, and
//!    the insertion tiers alike);
//! 2. seeded random **mixed insert+delete sequences** with per-tier
//!    coverage assertions, so no deletion tier is silently unreachable;
//! 3. **proptest fuzz** of deletion-heavy delta sequences against a BFS
//!    oracle after every step.
//!
//! All three also hold the served index's **arc-support table** in
//! lockstep after every applied delta (`assert_support_in_lockstep`):
//! arcs ∪ latent pairs equal a from-scratch recount of the merged graph
//! under the served component ids, and no latent pair is a DAG arc.
//!
//! A durable variant replays delete-bearing deltas through a store
//! write-ahead log and `Catalog::open`, proving recovery takes the same
//! tiered path (this test is also wired into CI's persistence-smoke
//! job).

use parallel_scc::engine::{BatchOptions, Delta, DeltaOutcome, IndexConfig as EngineIndexConfig};
use parallel_scc::prelude::*;
use pscc_runtime::SplitMix64;
use std::collections::BTreeSet;

type EdgePair = (Vec<(V, V)>, Vec<(V, V)>);

mod common;
use common::scenarios::{replay_against_oracle, scenario_suite, OutcomeTally};
use common::{assert_support_in_lockstep, bfs_reaches};

fn interval_cfg() -> EngineIndexConfig {
    EngineIndexConfig { bitset_budget_bytes: 0, ..EngineIndexConfig::default() }
}

/// Every scenario of the suite, in both summary tiers, with scripted
/// per-step tier expectations enforced — and the suite as a whole must
/// cover every outcome, deletion tiers included.
#[test]
fn scenario_suite_hits_every_tier_by_construction() {
    let mut total = OutcomeTally::default();
    for cfg in [EngineIndexConfig::default(), interval_cfg()] {
        for scenario in scenario_suite(0xdec0de) {
            let tally = replay_against_oracle(&scenario, cfg.clone(), true, true);
            total.absorb(&tally);
        }
    }
    assert!(total.noop > 0, "NoOp never observed");
    assert!(total.absorbed > 0, "Absorb tier never observed");
    assert!(total.absorbed_deletions > 0, "support-decrement deletions never observed");
    assert!(total.dag_spliced > 0, "DagSplice tier never observed");
    assert!(total.region_recomputed > 0, "RegionRecompute tier never observed");
    assert!(total.arc_unspliced > 0, "ArcUnsplice tier never observed");
    assert!(total.scc_split > 0, "SccSplit tier never observed");
    assert!(total.rebuilt > 0, "full-rebuild fallback never observed");
}

/// The same suite without a pre-built index: the first effective delta
/// defers, the index appears lazily mid-sequence, and answers still
/// match the oracle after every step.
#[test]
fn scenario_suite_matches_oracle_with_lazy_index() {
    let mut total = OutcomeTally::default();
    for scenario in scenario_suite(0x1a2b) {
        let tally = replay_against_oracle(&scenario, EngineIndexConfig::default(), false, true);
        total.absorb(&tally);
    }
    assert!(total.deferred > 0, "lazy-index runs must defer at least one delta");
}

/// Random mixed insert+delete sequences: every step checked against a
/// from-scratch build, and the deletion tiers must all be reached.
#[test]
fn random_mixed_sequences_cover_all_deletion_tiers() {
    let mut outcomes = OutcomeTally::default();
    for seed in 0..16u64 {
        let mut rng = SplitMix64::new(0xde1e7e ^ (seed * 0x9e37));
        let n = 20 + (seed as usize % 4) * 8;
        let g = parallel_scc::graph::generators::random::gnm_digraph(n, n * 3, seed);
        let mut edges: BTreeSet<(V, V)> = g.out_csr().edges().collect();

        let mut cfg = EngineIndexConfig::default();
        if seed % 2 == 1 {
            cfg.bitset_budget_bytes = 0; // interval tier
        }
        let catalog = Catalog::new();
        catalog.insert_with_config("g", g, cfg, BatchOptions::default());
        let _ = catalog.index("g").unwrap();

        for step in 0..12u64 {
            let idx = catalog.index("g").expect("registered");
            // Group present edges by component pair so deletions can be
            // aimed at parallel supports, lone supports, or intra-SCC
            // edges deliberately.
            let mut by_pair: std::collections::HashMap<(u32, u32), Vec<(V, V)>> =
                std::collections::HashMap::new();
            let mut intra: Vec<(V, V)> = Vec::new();
            for &(u, v) in edges.iter() {
                let (a, b) = (idx.comp(u), idx.comp(v));
                if a == b {
                    if u != v {
                        intra.push((u, v));
                    }
                } else {
                    by_pair.entry((a, b)).or_default().push((u, v));
                }
            }
            let (ins, del): EdgePair = match step % 6 {
                // Support decrement: one of a multi-edge pair.
                0 => match by_pair.values().find(|v| v.len() >= 2) {
                    Some(v) => (vec![], vec![v[0]]),
                    None => continue,
                },
                // Arc unsplice: the only support of a pair.
                1 => match by_pair.values().find(|v| v.len() == 1) {
                    Some(v) => (vec![], vec![v[0]]),
                    None => continue,
                },
                // Split check: an intra-SCC edge.
                2 => match intra.first() {
                    Some(&e) => (vec![], vec![e]),
                    None => continue,
                },
                // Mixed structural: deletion + insertion.
                3 => {
                    let Some(&e) = intra
                        .first()
                        .or_else(|| by_pair.values().find(|v| v.len() == 1).map(|v| &v[0]))
                    else {
                        continue;
                    };
                    let ins = vec![(rng.next_below(n as u64) as V, rng.next_below(n as u64) as V)];
                    (ins, vec![e])
                }
                // Random insertions.
                4 => {
                    let ins: Vec<(V, V)> = (0..3)
                        .map(|_| (rng.next_below(n as u64) as V, rng.next_below(n as u64) as V))
                        .collect();
                    (ins, vec![])
                }
                // Random deletions of present edges.
                _ => {
                    let mut del = Vec::new();
                    for _ in 0..2 {
                        if let Some(&e) =
                            edges.iter().nth(rng.next_below(edges.len().max(1) as u64) as usize)
                        {
                            del.push(e);
                        }
                    }
                    (vec![], del)
                }
            };
            let had_deletions = !del.is_empty();
            let delta = Delta::from_parts(ins.clone(), del.clone());
            let report = catalog.apply_delta("g", &delta).unwrap();
            match report.outcome {
                DeltaOutcome::NoOp => outcomes.noop += 1,
                DeltaOutcome::Deferred => outcomes.deferred += 1,
                DeltaOutcome::Absorbed => {
                    outcomes.absorbed += 1;
                    if had_deletions {
                        outcomes.absorbed_deletions += 1;
                    }
                }
                DeltaOutcome::DagSpliced => outcomes.dag_spliced += 1,
                DeltaOutcome::RegionRecomputed => outcomes.region_recomputed += 1,
                DeltaOutcome::ArcUnspliced => outcomes.arc_unspliced += 1,
                DeltaOutcome::SccSplit => outcomes.scc_split += 1,
                DeltaOutcome::Rebuilt => outcomes.rebuilt += 1,
            }
            let del_effective: Vec<(V, V)> =
                del.iter().filter(|e| !ins.contains(e)).copied().collect();
            for e in &del_effective {
                edges.remove(e);
            }
            edges.extend(ins.iter().copied());

            let edge_list: Vec<(V, V)> = edges.iter().copied().collect();
            let oracle = DiGraph::from_edges(n, &edge_list);
            assert_eq!(
                catalog.graph("g").unwrap().out_csr(),
                oracle.out_csr(),
                "seed {seed} step {step}: stored graph diverged"
            );
            let scratch = ReachIndex::build(&oracle);
            for u in 0..n as V {
                for v in 0..n as V {
                    assert_eq!(
                        catalog.reaches("g", u, v),
                        Some(scratch.reaches(u, v)),
                        "seed {seed} step {step}: ({u}, {v})"
                    );
                }
            }
            let served = catalog.index("g").expect("registered");
            assert_support_in_lockstep(&served, &edge_list, &format!("seed {seed} step {step}"));
        }
    }
    assert!(outcomes.absorbed_deletions > 0, "support-decrement deletions never taken");
    assert!(outcomes.arc_unspliced > 0, "ArcUnsplice tier never taken");
    assert!(outcomes.scc_split > 0, "SccSplit tier never taken");
    assert!(outcomes.rebuilt > 0, "fallback rebuild never taken");
}

/// Delete-bearing deltas through the write-ahead log: a durable catalog
/// applies a scenario's scripted deltas (every tier, deletions
/// included), is dropped, and `Catalog::open` must recover the exact
/// graph and answers by replaying the log through the same planner.
#[test]
fn wal_replay_recovers_deletion_deltas_end_to_end() {
    let dir = {
        let mut p = std::env::temp_dir();
        p.push(format!("pscc_deletion_oracle_wal_{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        p
    };
    for scenario in scenario_suite(0x0a11) {
        let g = DiGraph::from_edges(scenario.n, &scenario.edges);
        let mut edges: BTreeSet<(V, V)> = g.out_csr().edges().collect();
        let catalog = Catalog::new();
        catalog.insert("g", g);
        catalog.persist_to("g", &dir).unwrap();
        let _ = catalog.index("g").unwrap();
        for step in &scenario.steps {
            let delta = Delta::from_parts(step.insertions.clone(), step.deletions.clone());
            catalog.apply_delta("g", &delta).unwrap();
            for e in step.deletions.iter().filter(|e| !step.insertions.contains(e)) {
                edges.remove(e);
            }
            edges.extend(step.insertions.iter().copied());
        }
        drop(catalog);

        let back = Catalog::open(&dir).unwrap();
        let edge_list: Vec<(V, V)> = edges.iter().copied().collect();
        let oracle = DiGraph::from_edges(scenario.n, &edge_list);
        assert_eq!(
            back.graph("g").unwrap().out_csr(),
            oracle.out_csr(),
            "{}: recovered graph diverged",
            scenario.name
        );
        let scratch = ReachIndex::build(&oracle);
        for u in 0..scenario.n as V {
            for v in 0..scenario.n as V {
                assert_eq!(
                    back.reaches("g", u, v),
                    Some(scratch.reaches(u, v)),
                    "{}: recovered answer ({u}, {v})",
                    scenario.name
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Proptest fuzz of the deletion planner: deletion-heavy delta
/// sequences over arbitrary graphs, answers checked against BFS on the
/// tracked edge set after every step.
mod fuzz {
    use super::*;
    use proptest::prelude::*;

    type EdgeList = Vec<(V, V)>;

    fn arb_graph() -> impl Strategy<Value = (usize, Vec<(V, V)>)> {
        (4usize..32).prop_flat_map(|n| {
            let edge = (0..n as u32, 0..n as u32);
            proptest::collection::vec(edge, 0..(n * 4)).prop_map(move |edges| (n, edges))
        })
    }

    /// Deletion-heavy scripts: deletions are drawn as *indexes into the
    /// current edge set*, so most of them name present edges and
    /// actually exercise the deletion tiers (uniform random pairs
    /// mostly miss).
    fn arb_deltas() -> impl Strategy<Value = Vec<(EdgeList, Vec<u32>)>> {
        let one = (
            proptest::collection::vec((0u32..64, 0u32..64), 0..3),
            proptest::collection::vec(0u32..4096, 0..6),
        );
        proptest::collection::vec(one, 1..6)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn deletion_heavy_sequences_match_bfs_after_every_step(
            graph_spec in arb_graph(),
            seq in arb_deltas(),
            interval_tier in any::<bool>(),
        ) {
            let (n, base) = graph_spec;
            let base: Vec<(V, V)> = base.into_iter()
                .map(|(u, v)| (u % n as V, v % n as V)).collect();
            let g = DiGraph::from_edges(n, &base);
            let mut edges: BTreeSet<(V, V)> = g.out_csr().edges().collect();
            let cfg = if interval_tier {
                EngineIndexConfig { bitset_budget_bytes: 0, ..EngineIndexConfig::default() }
            } else {
                EngineIndexConfig::default()
            };
            let catalog = Catalog::new();
            catalog.insert_with_config("g", g, cfg, BatchOptions::default());
            let _ = catalog.index("g").unwrap();
            for (ins, del_picks) in seq {
                let ins: Vec<(V, V)> = ins.into_iter()
                    .map(|(u, v)| (u % n as V, v % n as V)).collect();
                let del: Vec<(V, V)> = del_picks
                    .iter()
                    .filter(|_| !edges.is_empty())
                    .map(|&k| *edges.iter().nth(k as usize % edges.len()).unwrap())
                    .collect();
                let delta = Delta::from_parts(ins.clone(), del.clone());
                catalog.apply_delta("g", &delta).unwrap();
                for e in del.iter().filter(|e| !ins.contains(e)) {
                    edges.remove(e);
                }
                edges.extend(ins.iter().copied());
                let edge_list: Vec<(V, V)> = edges.iter().copied().collect();
                let oracle = DiGraph::from_edges(n, &edge_list);
                for u in 0..n as V {
                    for v in 0..n as V {
                        prop_assert_eq!(
                            catalog.reaches("g", u, v),
                            Some(bfs_reaches(&oracle, u, v)),
                            "({}, {})", u, v
                        );
                    }
                }
                let served = catalog.index("g").unwrap();
                assert_support_in_lockstep(&served, &edge_list, "fuzz");
            }
        }
    }
}
