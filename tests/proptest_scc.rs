//! Property-based tests: random digraphs → the parallel SCC partition must
//! equal Tarjan's, and structural invariants must hold for arbitrary
//! inputs.

use proptest::prelude::*;

use parallel_scc::prelude::*;
use parallel_scc::scc::scc::trim;
use parallel_scc::scc::verify::{
    component_stats, normalize_labels, same_partition, trimmed_by_peeling,
};
use parallel_scc::scc::SccState;

/// Arbitrary edge list over n vertices.
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (2usize..80).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..(n * 4))
            .prop_map(move |edges| DiGraph::from_edges(n, &edges))
    })
}

/// Sparse enough to be mostly trees hanging off a few cycles, and wide
/// enough for the peel's frontiers to outgrow one sequential round.
fn arb_sparse_graph() -> impl Strategy<Value = DiGraph> {
    (100usize..600).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        proptest::collection::vec(edge, 0..(n * 2))
            .prop_map(move |edges| DiGraph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trim_peels_exactly_the_reference_set_at_every_width(g in arb_sparse_graph()) {
        let want = trimmed_by_peeling(&g);
        for width in [1, 2, 8] {
            let state = SccState::new(g.n());
            let count = with_threads(width, || trim(&g, &state));
            let got: Vec<bool> = (0..g.n() as V).map(|v| state.is_done(v)).collect();
            prop_assert_eq!(&got, &want, "width {}", width);
            prop_assert_eq!(count, want.iter().filter(|&&dead| dead).count());
        }
        let tarjan = tarjan_scc(&g);
        let mut size = vec![0usize; g.n()];
        tarjan.iter().for_each(|&c| size[c as usize] += 1);
        for v in 0..g.n() as V {
            if want[v as usize] {
                prop_assert_eq!(size[tarjan[v as usize] as usize], 1, "trimmed {} is on a cycle", v);
            } else {
                for ns in [g.in_neighbors(v), g.out_neighbors(v)] {
                    prop_assert!(
                        ns.iter().any(|&u| u != v && !want[u as usize]),
                        "survivor {} has no live neighbour on one side", v
                    );
                }
            }
        }
    }

    #[test]
    fn scc_matches_tarjan(g in arb_graph()) {
        let got = parallel_scc(&g, &SccConfig::default());
        let want = tarjan_scc(&g);
        prop_assert!(same_partition(&got.labels, &want));
    }

    #[test]
    fn scc_plain_matches_tarjan(g in arb_graph()) {
        let got = parallel_scc(&g, &SccConfig::plain());
        let want = tarjan_scc(&g);
        prop_assert!(same_partition(&got.labels, &want));
    }

    #[test]
    fn gbbs_baseline_matches_tarjan(g in arb_graph()) {
        let (got, _) = gbbs_scc(&g, &SccConfig::default());
        let want = tarjan_scc(&g);
        prop_assert!(same_partition(&got.labels, &want));
    }

    #[test]
    fn multistep_matches_tarjan(g in arb_graph()) {
        let got = multistep_scc(&g, &ReachParams::default());
        let want = tarjan_scc(&g);
        prop_assert!(same_partition(&got.labels, &want));
    }

    #[test]
    fn fwbw_matches_tarjan(g in arb_graph()) {
        let got = fwbw_scc(&g, &ReachParams::default());
        let want = tarjan_scc(&g);
        prop_assert!(same_partition(&got.labels, &want));
    }

    #[test]
    fn result_stats_are_consistent(g in arb_graph()) {
        let got = parallel_scc(&g, &SccConfig::default());
        let (k, largest) = component_stats(&got.labels);
        prop_assert_eq!(got.num_sccs, k);
        prop_assert_eq!(got.largest_scc, largest);
        prop_assert_eq!(got.labels.len(), g.n());
        // Component count bounds.
        prop_assert!(k >= 1 && k <= g.n());
        prop_assert!(largest >= 1 && largest <= g.n());
    }

    #[test]
    fn every_cycle_edge_stays_within_a_component(g in arb_graph()) {
        // For each edge (u,v): if v can reach u (i.e. the edge closes a
        // cycle), then u and v must share a component.
        let got = parallel_scc(&g, &SccConfig::default());
        let norm = normalize_labels(&got.labels);
        for (u, v) in g.out_csr().edges() {
            // Sequential reachability from v to u.
            let mut seen = vec![false; g.n()];
            let mut stack = vec![v];
            seen[v as usize] = true;
            let mut reaches = false;
            while let Some(x) = stack.pop() {
                if x == u { reaches = true; break; }
                for &w in g.out_neighbors(x) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
            prop_assert_eq!(reaches, norm[u as usize] == norm[v as usize],
                "edge ({}, {})", u, v);
        }
    }

    #[test]
    fn seed_does_not_change_partition(g in arb_graph(), s1 in 0u64..100, s2 in 0u64..100) {
        let a = parallel_scc(&g, &SccConfig { seed: s1, ..SccConfig::default() });
        let b = parallel_scc(&g, &SccConfig { seed: s2, ..SccConfig::default() });
        prop_assert!(same_partition(&a.labels, &b.labels));
    }

    #[test]
    fn tau_does_not_change_partition(g in arb_graph(), tau in 1usize..64) {
        let a = parallel_scc(&g, &SccConfig::default());
        let b = parallel_scc(&g, &SccConfig::default().with_tau(tau));
        prop_assert!(same_partition(&a.labels, &b.labels));
    }
}
