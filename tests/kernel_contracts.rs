//! The kernel reuses one workspace (hash bag, pair tables) across all the
//! searches of a run and relabels its vertices in place. Nothing may leak from one search, or
//! one run, into the next: consecutive runs in one process — whole-graph
//! and induced, narrow and oversubscribed — must all agree with Tarjan.
//!
//! Every run must also keep the **representative invariant** the hash-free
//! condensation addresses by: a label is `FINAL_TAG | s` for a vertex `s`
//! that carries the very same label (so, the partition being right, a
//! member of that SCC), and the kernel's `num_sccs` / `largest_scc`, now
//! counted through it, equal the generic hash-map `component_stats`.
//!
//! Two more contracts ride along. **The schedule is pinned:** at width 1
//! the round, search, batch and trim counts on two graphs are exact — the
//! trim count is that of the fixed point, and the batches are slices of
//! the survivors' permutation, so a change to trimming or to the schedule
//! shows here before it shows in a timing. **Labels do not depend on the
//! width:** the trimmed set is a fixed point, finishing is a max,
//! signatures are an XOR, so 1, 2 and 8 workers produce the very same
//! label vector — and at the default configuration that vector is pinned
//! by checksum, so a change that claims to leave the default path alone
//! can be held to it. **The in-CSR does not depend on the width either:**
//! `Csr::transpose` is a stable counting sort over blocks of source rows,
//! so 1, 2 and 8 workers (1, 2 and 8 blocks) produce the very same bytes,
//! and those are the sorted reversal of the out-CSR.
//!
//! Release-only: CI runs this file in its `cargo test --release` step.

use parallel_scc::graph::generators::lattice::lattice_sqr;
use parallel_scc::graph::generators::rmat::rmat_digraph;
use parallel_scc::graph::{build_csr, SubgraphView};
use parallel_scc::prelude::*;
use parallel_scc::runtime::hash64;
use parallel_scc::scc::verify::{component_stats, same_partition};
use parallel_scc::scc::{parallel_scc_induced, FINAL_TAG};
use parallel_scc::telemetry::frame::Checksum64;

fn assert_representatives(labels: &[u64], ctx: &str) {
    for (v, &label) in labels.iter().enumerate() {
        assert_ne!(label & FINAL_TAG, 0, "{ctx}: vertex {v} carries no final label");
        let rep = (label & !FINAL_TAG) as usize;
        assert!(rep < labels.len(), "{ctx}: vertex {v} names {rep}, not a vertex");
        assert_eq!(labels[rep], label, "{ctx}: vertex {v}'s representative labels something else");
    }
}

fn run_twice_then_induced(g: &DiGraph, name: &str) {
    let want = tarjan_scc(g);
    // The induced run: every vertex but each seventh, plus two overlay arcs.
    let vertices: Vec<V> = (0..g.n() as V).filter(|v| v % 7 != 0).collect();
    let arcs = [(vertices[1], vertices[0]), (vertices[vertices.len() - 1], vertices[2])];
    let want_induced = tarjan_scc(&SubgraphView::new(g, &vertices).extract_with_arcs(&arcs));
    let cfg = SccConfig::default();
    for width in [1, 2, 8] {
        with_threads(width, || {
            for run in 0..2 {
                let got = parallel_scc(g, &cfg);
                let ctx = format!("{name} width {width} run {run}");
                assert!(same_partition(&got.labels, &want), "{ctx}");
                assert_representatives(&got.labels, &ctx);
                assert_eq!((got.num_sccs, got.largest_scc), component_stats(&got.labels), "{ctx}");
            }
            let got = parallel_scc_induced(g, &vertices, &arcs, &cfg);
            assert!(same_partition(&got, &want_induced), "{name} width {width} induced");
            assert_representatives(&got, &format!("{name} width {width} induced"));
        });
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sized for release builds; CI runs it with --release")]
fn consecutive_runs_on_a_lattice_agree_with_tarjan() {
    run_twice_then_induced(&lattice_sqr(200, 200, 1), "lattice 200x200");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sized for release builds; CI runs it with --release")]
fn consecutive_runs_on_rmat_agree_with_tarjan() {
    run_twice_then_induced(&rmat_digraph(14, 120_000, 1), "rmat-14");
}

/// `(total_rounds, searches, batches, trimmed)` of a width-1 run at the
/// default configuration.
fn schedule_counts(g: &DiGraph) -> (usize, usize, usize, usize) {
    let (_, stats) = with_threads(1, || parallel_scc_with_stats(g, &SccConfig::default()));
    assert!(!stats.searches[0].multi && !stats.searches[1].multi);
    (stats.total_rounds(), stats.searches.len(), stats.num_batches, stats.trimmed)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sized for release builds; CI runs it with --release")]
fn the_schedule_over_the_survivors_of_complete_trimming_is_pinned() {
    // While trimming was one pass and the permutation covered every vertex
    // these were (109, 48, 24, 5020) and, at permutation seed 6,
    // (52, 42, 21, 13470): RMAT-14's acyclic part took twenty batches.
    assert_eq!(schedule_counts(&lattice_sqr(200, 200, 1)), (111, 46, 23, 11716));
    assert_eq!(schedule_counts(&rmat_digraph(14, 120_000, 1)), (11, 2, 1, 14889));
}

/// FNV-1a-64 over the little-endian bytes of the label vector.
fn label_checksum(labels: &[u64]) -> u64 {
    let mut sum = Checksum64::new();
    labels.iter().for_each(|label| sum.update(&label.to_le_bytes()));
    sum.finish()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sized for release builds; CI runs it with --release")]
fn labels_are_the_same_at_every_width() {
    let cfg = SccConfig::default();
    // Re-recorded when the batches became slices of the survivors: the
    // lattice's moved (a label names the source that found its SCC);
    // RMAT-14's did not — one SCC, found from the same first survivor, and
    // singletons, which name themselves whoever finishes them.
    for (name, g, checksum) in [
        ("lattice 200x200", lattice_sqr(200, 200, 1), 0xe545_9f22_9d97_ea52),
        ("rmat-14", rmat_digraph(14, 120_000, 1), 0xdf16_aaa9_07f9_246d),
    ] {
        let narrow = with_threads(1, || parallel_scc(&g, &cfg)).labels;
        assert_eq!(label_checksum(&narrow), checksum, "{name}: width-1 labels moved");
        for width in [2, 8] {
            let wide = with_threads(width, || parallel_scc(&g, &cfg)).labels;
            assert!(wide == narrow, "{name}: labels at width {width} differ from width 1");
        }
    }
}

/// RMAT-`scale` with `8·n` edges plus a hashed half of them reversed: the
/// shape `benchmark/src/inputs.rs` builds for `scc-social`.
fn social_graph(scale: u32, seed: u64) -> DiGraph {
    let base = rmat_digraph(scale, 8usize << scale, seed);
    let salt = hash64(seed ^ 0x1111);
    let mut edges: Vec<(V, V)> = base.out_csr().edges().collect();
    for i in 0..edges.len() {
        let (u, v) = edges[i];
        if hash64(((u as u64) << 32 | v as u64) ^ salt) < u64::MAX / 2 {
            edges.push((v, u));
        }
    }
    DiGraph::from_edges(base.n(), &edges)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sized for release builds; CI runs it with --release")]
fn the_in_csr_is_the_same_at_every_width() {
    for (name, g) in
        [("social rmat-16", social_graph(16, 1)), ("lattice 300x300", lattice_sqr(300, 300, 1))]
    {
        let reversed: Vec<(V, V)> = g.out_csr().edges().map(|(u, v)| (v, u)).collect();
        assert!(g.in_csr() == &build_csr(g.n(), &reversed), "{name}: not the sorted reversal");
        for width in [1, 2, 8] {
            let t = with_threads(width, || g.out_csr().transpose());
            assert!(&t == g.in_csr(), "{name}: the transpose at width {width} differs");
        }
    }
}
