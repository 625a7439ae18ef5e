//! The sort-based condensation against the code it replaced, kept here as
//! oracles: `normalize_labels` (a hash map keyed by label), the sequential
//! cross-arc loop into `DiGraph::from_edges`, and the hash-map recount of
//! arc multiplicities. For every graph and width the new pipeline must give
//! the **same component numbering, the same DAG and the same counts**, and
//! a weighted re-contraction through a random merge map must equal a
//! recount of the graph under the merged labeling.
//!
//! The RMAT-14 and lattice 200² cases are release-sized: CI runs them in
//! its `cargo test --release` step.

use parallel_scc::apps::{condense, condense_scc};
use parallel_scc::graph::generators::lattice::lattice_sqr;
use parallel_scc::graph::generators::random::gnm_digraph;
use parallel_scc::graph::generators::rmat::rmat_digraph;
use parallel_scc::graph::{contract_csr, Csr};
use parallel_scc::prelude::*;
use parallel_scc::scc::{dense_components, normalize_labels};
use pscc_runtime::SplitMix64;
use std::collections::HashMap;

/// The hash-map recount `contract_csr` replaced.
fn support_oracle(csr: &Csr, labels: &[u32]) -> HashMap<(u32, u32), u64> {
    let mut support = HashMap::new();
    for (u, v) in csr.edges() {
        let (a, b) = (labels[u as usize], labels[v as usize]);
        if a != b {
            *support.entry((a, b)).or_insert(0u64) += 1;
        }
    }
    support
}

fn rows(csr: &Csr, counts: &[u64]) -> HashMap<(u32, u32), u64> {
    assert_eq!(csr.m(), counts.len(), "one multiplicity per arc");
    csr.edges().zip(counts.iter().copied()).collect()
}

fn check(g: &DiGraph, name: &str) {
    for width in [1, 2, 8] {
        let ctx = format!("{name} width {width}");
        with_threads(width, || {
            let labels = parallel_scc(g, &SccConfig::default()).labels;

            // Component numbering: first appearance, as the hash map gave it.
            let want_comp = normalize_labels(&labels);
            let (comp_of, sizes) = dense_components(&labels);
            assert_eq!(comp_of, want_comp, "{ctx}: comp_of");
            let k = sizes.len();
            let mut want_sizes = vec![0usize; k];
            want_comp.iter().for_each(|&c| want_sizes[c as usize] += 1);
            assert_eq!(sizes, want_sizes, "{ctx}: sizes");

            // The DAG: the old sequential arc loop into the edge-list builder.
            let cond = condense_scc(g, &labels);
            let old_arcs: Vec<(V, V)> = g
                .out_csr()
                .edges()
                .map(|(u, v)| (want_comp[u as usize], want_comp[v as usize]))
                .filter(|&(a, b)| a != b)
                .collect();
            let want_dag = DiGraph::from_edges(k, &old_arcs);
            assert_eq!(cond.comp_of, want_comp, "{ctx}: condensation comp_of");
            assert_eq!(cond.sizes, want_sizes, "{ctx}: condensation sizes");
            assert_eq!(cond.dag.out_csr(), want_dag.out_csr(), "{ctx}: DAG out-CSR");
            assert_eq!(cond.dag.in_csr(), want_dag.in_csr(), "{ctx}: DAG in-CSR");

            // Multiplicities: the hash-map recount; they sum to the number
            // of cross-component edges.
            let oracle = support_oracle(g.out_csr(), &want_comp);
            assert_eq!(rows(cond.dag.out_csr(), &cond.arc_support), oracle, "{ctx}: support");
            assert_eq!(cond.arc_support.iter().sum::<u64>(), old_arcs.len() as u64, "{ctx}: Σ");

            // The generic entry point is the same primitive behind a
            // hash-map numbering.
            let generic = condense(g, &labels);
            assert_eq!(generic.dag.out_csr(), cond.dag.out_csr(), "{ctx}: generic DAG");
            assert_eq!(generic.arc_support, cond.arc_support, "{ctx}: generic support");

            // Weighted re-contraction through a random merge map (not
            // acyclic, which the primitive does not care about).
            let k2 = (k / 3).max(1);
            let mut rng = SplitMix64::new(0x3e79e ^ width as u64);
            let map: Vec<u32> = (0..k).map(|_| rng.next_below(k2 as u64) as u32).collect();
            let merged: Vec<u32> = want_comp.iter().map(|&c| map[c as usize]).collect();
            let (csr2, counts2) =
                contract_csr(cond.dag.out_csr(), Some(&cond.arc_support), &map, k2);
            let oracle2 = support_oracle(g.out_csr(), &merged);
            assert_eq!(rows(&csr2, &counts2), oracle2, "{ctx}: re-contracted support");
            let arcs2: Vec<(V, V)> = oracle2.keys().copied().collect();
            assert_eq!(&csr2, DiGraph::from_edges(k2, &arcs2).out_csr(), "{ctx}: re-contracted");
        });
    }
}

#[test]
fn random_digraphs_contract_like_the_hash_map_pipeline() {
    for seed in 0..4u64 {
        check(&gnm_digraph(600, 1500 + 300 * seed as usize, seed), &format!("gnm seed {seed}"));
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sized for release builds; CI runs it with --release")]
fn rmat_14_contracts_like_the_hash_map_pipeline() {
    check(&rmat_digraph(14, 120_000, 1), "rmat-14");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sized for release builds; CI runs it with --release")]
fn lattice_200_contracts_like_the_hash_map_pipeline() {
    check(&lattice_sqr(200, 200, 1), "lattice 200x200");
}
