//! The repair planner's end-to-end oracle: random delta *sequences*
//! driven through `Catalog::apply_delta` must answer every vertex pair
//! exactly like a from-scratch `Index::build` over the merged graph
//! after **every** step — whichever repair tier each delta took — and
//! the run must exercise every tier at least once, so none of them is
//! silently unreachable.

use parallel_scc::engine::{BatchOptions, Delta, DeltaOutcome, IndexConfig as EngineIndexConfig};
use parallel_scc::prelude::*;
use pscc_runtime::SplitMix64;
use std::collections::BTreeSet;

mod common;
use common::bfs_reaches;
use common::scenarios::{replay_against_oracle, scenario_suite};

/// One side of a delta: a plain edge list.
type EdgeList = Vec<(V, V)>;

/// Applies the delta semantics to a plain edge set:
/// `(edges ∖ deletions) ∪ insertions`.
fn apply_to_edge_set(edges: &mut BTreeSet<(V, V)>, ins: &[(V, V)], del: &[(V, V)]) {
    for e in del {
        if !ins.contains(e) {
            edges.remove(e);
        }
    }
    edges.extend(ins.iter().copied());
}

/// Asserts the catalog's stored graph and all-pairs answers equal a
/// from-scratch build over the tracked edge set.
fn check_against_scratch(catalog: &Catalog, n: usize, edges: &BTreeSet<(V, V)>, ctx: &str) {
    let edge_list: Vec<(V, V)> = edges.iter().copied().collect();
    let oracle_graph = DiGraph::from_edges(n, &edge_list);
    let stored = catalog.graph("g").expect("registered");
    assert_eq!(stored.out_csr(), oracle_graph.out_csr(), "{ctx}: stored graph diverged");
    let scratch = ReachIndex::build(&oracle_graph);
    for u in 0..n as V {
        for v in 0..n as V {
            assert_eq!(
                catalog.reaches("g", u, v),
                Some(scratch.reaches(u, v)),
                "{ctx}: answer ({u}, {v}) diverged from the from-scratch oracle"
            );
        }
    }
}

fn random_pair(rng: &mut SplitMix64, n: usize) -> (V, V) {
    (rng.next_below(n as u64) as V, rng.next_below(n as u64) as V)
}

/// Hunts for a pair satisfying `want` against the current index; `None`
/// after a bounded number of tries (the caller just skips the case).
fn find_pair(rng: &mut SplitMix64, n: usize, want: impl Fn(V, V) -> bool) -> Option<(V, V)> {
    for _ in 0..400 {
        let (u, v) = random_pair(rng, n);
        if want(u, v) {
            return Some((u, v));
        }
    }
    None
}

/// The shared scenario suite (the same harness the deletion oracle
/// uses, see `tests/common/scenarios.rs`) replayed with per-step tier
/// expectations: the insertion tiers are exercised by construction on
/// graph families beyond random G(n, m).
#[test]
fn scenario_suite_matches_oracle_with_scripted_tiers() {
    for scenario in scenario_suite(0x9e99) {
        let _ = replay_against_oracle(
            &scenario,
            parallel_scc::engine::IndexConfig::default(),
            true,
            true,
        );
    }
}

#[test]
fn random_delta_sequences_hit_every_tier_and_match_the_oracle() {
    // NoOp, Deferred, Absorbed, DagSpliced, RegionRecomputed,
    // ArcUnspliced, SccSplit, Rebuilt
    let mut outcomes = [0u64; 8];
    let tally = |outcomes: &mut [u64; 8], o: DeltaOutcome| {
        outcomes[match o {
            DeltaOutcome::NoOp => 0,
            DeltaOutcome::Deferred => 1,
            DeltaOutcome::Absorbed => 2,
            DeltaOutcome::DagSpliced => 3,
            DeltaOutcome::RegionRecomputed => 4,
            DeltaOutcome::ArcUnspliced => 5,
            DeltaOutcome::SccSplit => 6,
            DeltaOutcome::Rebuilt => 7,
        }] += 1;
    };

    for seed in 0..24u64 {
        let mut rng = SplitMix64::new(0x91a_0e12 ^ seed);
        let n = 24 + (seed as usize % 3) * 12;
        let g = parallel_scc::graph::generators::random::gnm_digraph(n, n * 2, seed);
        let mut edges: BTreeSet<(V, V)> = g.out_csr().edges().collect();

        // Alternate summary tiers: a zero bitset budget forces the
        // interval tier.
        let mut cfg = EngineIndexConfig::default();
        if seed % 2 == 1 {
            cfg.bitset_budget_bytes = 0;
        }
        let catalog = Catalog::new();
        catalog.insert_with_config("g", g, cfg, BatchOptions::default());

        // First delta lands before any query: always Deferred.
        let (u, v) = random_pair(&mut rng, n);
        let mut d = Delta::new();
        d.insert(u, v).delete(u, v); // normalization keeps the insertion
        let report = catalog.apply_delta("g", &d).unwrap();
        tally(&mut outcomes, report.outcome);
        apply_to_edge_set(&mut edges, &[(u, v)], &[]);
        check_against_scratch(&catalog, n, &edges, &format!("seed {seed} deferred"));

        for step in 0..10u64 {
            let idx = catalog.index("g").expect("registered");
            let present = |u: V, v: V| edges.contains(&(u, v));
            let (ins, del): (EdgeList, EdgeList) = match step % 6 {
                // A no-op: re-insert a present edge, delete an absent one.
                0 => {
                    let Some(&(u, v)) = edges.iter().next() else { continue };
                    let absent = find_pair(&mut rng, n, |a, b| !present(a, b));
                    (vec![(u, v)], absent.into_iter().collect())
                }
                // Absorbable: an absent edge between a reachable pair.
                1 => match find_pair(&mut rng, n, |a, b| {
                    a != b && !present(a, b) && idx.reaches(a, b)
                }) {
                    Some(p) => (vec![p], vec![]),
                    None => continue,
                },
                // Splice: an absent edge with no reachability either way.
                2 => match find_pair(&mut rng, n, |a, b| {
                    !present(a, b) && !idx.reaches(a, b) && !idx.reaches(b, a)
                }) {
                    Some(p) => (vec![p], vec![]),
                    None => continue,
                },
                // Merge: reverse of a one-way reachable pair.
                3 => match find_pair(&mut rng, n, |a, b| {
                    !present(a, b) && !idx.reaches(a, b) && idx.reaches(b, a)
                }) {
                    Some(p) => (vec![p], vec![]),
                    None => continue,
                },
                // Deletion of a present edge (plus a random insertion).
                4 => {
                    if edges.is_empty() {
                        continue;
                    }
                    let doomed = *edges
                        .iter()
                        .nth(rng.next_below(edges.len() as u64) as usize)
                        .expect("checked non-empty");
                    (vec![random_pair(&mut rng, n)], vec![doomed])
                }
                // A fistful of arbitrary insertions.
                _ => {
                    let ins: Vec<(V, V)> = (0..4).map(|_| random_pair(&mut rng, n)).collect();
                    (ins, vec![])
                }
            };
            let delta = Delta::from_parts(ins.clone(), del.clone());
            let report = catalog.apply_delta("g", &delta).unwrap();
            tally(&mut outcomes, report.outcome);
            // Oracle semantics match the documented ends-up-present rule.
            let ins_set: Vec<(V, V)> = ins.clone();
            let del_effective: Vec<(V, V)> =
                del.iter().filter(|e| !ins_set.contains(e)).copied().collect();
            apply_to_edge_set(&mut edges, &ins, &del_effective);
            check_against_scratch(&catalog, n, &edges, &format!("seed {seed} step {step}"));
        }
    }

    let [noop, deferred, absorbed, spliced, region, unspliced, split, rebuilt] = outcomes;
    assert!(noop > 0, "NoOp never taken");
    assert!(deferred > 0, "Deferred never taken");
    assert!(absorbed > 0, "Absorbed tier never taken");
    assert!(spliced > 0, "DagSplice tier never taken");
    assert!(region > 0, "RegionRecompute tier never taken");
    // Step 4 deletes present edges: on these random graphs they land in
    // the unsplice or split tier (or, with an insertion riding along,
    // the rebuild fallback) — all three must stay reachable.
    assert!(unspliced + split > 0, "no deletion repaired in place");
    assert!(rebuilt > 0, "full-rebuild tier never taken");
}

/// The same oracle under unconstrained fuzz: arbitrary graphs, arbitrary
/// delta sequences, answers checked against BFS on the merged edge set
/// after every step.
mod fuzz {
    use super::*;
    use proptest::prelude::*;

    fn arb_graph() -> impl Strategy<Value = (usize, Vec<(V, V)>)> {
        (4usize..40).prop_flat_map(|n| {
            let edge = (0..n as u32, 0..n as u32);
            proptest::collection::vec(edge, 0..(n * 3)).prop_map(move |edges| (n, edges))
        })
    }

    fn arb_deltas(n: usize) -> impl Strategy<Value = Vec<(EdgeList, EdgeList)>> {
        let edge = (0..n as u32, 0..n as u32);
        let one =
            (proptest::collection::vec(edge.clone(), 0..8), proptest::collection::vec(edge, 0..6));
        proptest::collection::vec(one, 1..5)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn delta_sequences_match_bfs_after_every_step(
            graph_spec in arb_graph(),
            seq in (4usize..40).prop_flat_map(arb_deltas),
            interval_tier in any::<bool>(),
            build_first in any::<bool>(),
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
            if build_first {
                let _ = catalog.index("g").unwrap();
            }
            for (ins, del) in seq {
                let ins: Vec<(V, V)> = ins.into_iter()
                    .map(|(u, v)| (u % n as V, v % n as V)).collect();
                let del: Vec<(V, V)> = del.into_iter()
                    .map(|(u, v)| (u % n as V, v % n as V)).collect();
                let delta = Delta::from_parts(ins.clone(), del.clone());
                catalog.apply_delta("g", &delta).unwrap();
                let del_effective: Vec<(V, V)> =
                    del.iter().filter(|e| !ins.contains(e)).copied().collect();
                apply_to_edge_set(&mut edges, &ins, &del_effective);
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
            }
        }
    }
}
