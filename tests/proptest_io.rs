//! Property-based fuzzing of the graph IO readers: on arbitrarily
//! mutated, truncated, or garbage byte streams, `read_edge_list` and
//! `read_binary` must either parse successfully or return `Err` — never
//! panic, and never trust a corrupt header into a huge allocation.

use proptest::prelude::*;

use parallel_scc::graph::build_csr;
use parallel_scc::graph::generators::random::gnm_digraph;
use parallel_scc::graph::io::{read_binary, read_edge_list, write_binary, write_edge_list};
use parallel_scc::prelude::*;

/// Unique temp path per call: tests run on parallel threads of one
/// process, so a global counter (not just pid + caller tag) keeps
/// concurrently running properties off each other's files.
fn tmp(name: &str, tag: u64) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let serial = UNIQUE.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("pscc_fuzz_{name}_{tag}_{serial}_{}", std::process::id()));
    p
}

/// Runs `read` on `bytes` written to a temp file; the only requirement is
/// that it returns (Ok or Err) instead of panicking or aborting.
fn must_not_panic<T>(
    name: &str,
    tag: u64,
    bytes: &[u8],
    read: impl Fn(&std::path::Path) -> std::io::Result<T>,
) {
    let path = tmp(name, tag);
    std::fs::write(&path, bytes).unwrap();
    let _ = read(&path);
    std::fs::remove_file(path).ok();
}

/// A valid serialized graph to corrupt, as raw bytes.
fn serialized(binary: bool, n: usize, m: usize, seed: u64) -> Vec<u8> {
    let g = gnm_digraph(n, m, seed);
    let path = tmp(if binary { "base_bin" } else { "base_txt" }, seed);
    if binary {
        write_binary(&g, &path).unwrap();
    } else {
        write_edge_list(&g, &path).unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(path).ok();
    bytes
}

/// Applies `flips` random byte overwrites and an optional truncation.
fn mutate(mut bytes: Vec<u8>, flips: &[(usize, u8)], truncate_to: usize) -> Vec<u8> {
    for &(pos, val) in flips {
        if !bytes.is_empty() {
            let idx = pos % bytes.len();
            bytes[idx] = val;
        }
    }
    if truncate_to < bytes.len() {
        bytes.truncate(truncate_to);
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn binary_reader_never_panics_on_mutations(
        seed in 0u64..1_000_000,
        flips in proptest::collection::vec((0usize..4096, 0u8..255), 0..12),
        truncate_to in 0usize..4096,
    ) {
        let bytes = mutate(serialized(true, 40, 120, seed), &flips, truncate_to);
        must_not_panic("bin", seed, &bytes, |p| read_binary(p));
    }

    #[test]
    fn text_reader_never_panics_on_mutations(
        seed in 0u64..1_000_000,
        flips in proptest::collection::vec((0usize..4096, 0u8..255), 0..12),
        truncate_to in 0usize..4096,
    ) {
        let bytes = mutate(serialized(false, 40, 120, seed), &flips, truncate_to);
        must_not_panic("txt", seed, &bytes, |p| read_edge_list(p));
    }

    #[test]
    fn both_readers_survive_pure_garbage(
        bytes in proptest::collection::vec(0u8..255, 0..600),
        seed in 0u64..1_000_000,
    ) {
        must_not_panic("garbage_bin", seed, &bytes, |p| read_binary(p));
        must_not_panic("garbage_txt", seed, &bytes, |p| read_edge_list(p));
    }

    #[test]
    fn unmutated_roundtrip_still_parses(seed in 0u64..1_000_000) {
        let g = gnm_digraph(30, 90, seed);
        let bp = tmp("round_bin", seed);
        let tp = tmp("round_txt", seed);
        write_binary(&g, &bp).unwrap();
        write_edge_list(&g, &tp).unwrap();
        let from_bin = read_binary(&bp).unwrap();
        let from_txt = read_edge_list(&tp).unwrap();
        prop_assert_eq!(g.out_csr(), from_bin.out_csr());
        prop_assert_eq!(g.out_csr(), from_txt.out_csr());
        std::fs::remove_file(bp).ok();
        std::fs::remove_file(tp).ok();
    }

    /// Corrupt headers specifically: every field combination must be
    /// rejected or parsed, and rejection must happen before the reader
    /// commits to header-sized allocations (the test would OOM/abort
    /// otherwise — `n`/`m` here imply terabytes).
    #[test]
    fn binary_reader_rejects_hostile_headers(
        n in proptest::collection::vec(0u8..255, 8..9),
        m in proptest::collection::vec(0u8..255, 8..9),
        seed in 0u64..1_000_000,
    ) {
        let mut bytes = serialized(true, 10, 20, seed);
        bytes[8..16].copy_from_slice(&n);
        bytes[16..24].copy_from_slice(&m);
        must_not_panic("hostile", seed, &bytes, |p| read_binary(p));
    }
}

/// The DiGraph invariants must hold on anything the readers accept, even
/// mutated input: whatever parses must be a structurally valid graph.
#[test]
fn accepted_mutants_are_structurally_valid() {
    let base = serialized(true, 25, 70, 7);
    for i in 0..base.len() {
        for val in [0u8, 1, 0x7f, 0xff] {
            let mut bytes = base.clone();
            bytes[i] = val;
            let path = tmp("valid_mut", (i as u64) << 8 | val as u64);
            std::fs::write(&path, &bytes).unwrap();
            if let Ok(g) = read_binary(&path) {
                // Offsets/targets invariants: n()/m() consistent, all
                // adjacency slices in bounds (neighbors would panic
                // otherwise), every row strictly increasing, and the
                // in-CSR is the reversal of the edges sorted sequentially.
                for v in 0..g.n() as V {
                    let row = g.out_neighbors(v);
                    assert!(row.iter().all(|&w| (w as usize) < g.n()));
                    assert!(
                        row.windows(2).all(|w| w[0] < w[1]),
                        "byte {i} = {val}: row {v} {row:?}"
                    );
                }
                let mut reversed: Vec<(V, V)> = g.out_csr().edges().map(|(u, v)| (v, u)).collect();
                reversed.sort_unstable();
                let reference = with_threads(1, || build_csr(g.n(), &reversed));
                assert!(g.in_csr() == &reference, "byte {i} = {val}: in-CSR differs");
            }
            std::fs::remove_file(path).ok();
        }
    }
}
