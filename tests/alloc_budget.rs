//! Allocation budget of one SCC run: the deterministic guard for "a search
//! costs what it finds, not what the graph could hold".
//!
//! A counting global allocator (hence a test binary of its own, with a
//! single test so nothing else allocates meanwhile) measures
//! `parallel_scc` on a 300×300 lattice. The run's workspace — one hash
//! bag, two pair tables, the label scratch — is allocated once, so
//!
//! * the bytes allocated in total stay within a small multiple of the
//!   graph's own `(n + m) · 8`, and
//! * the number of large (≥ 1 MiB) allocations does not depend on how
//!   many searches the run makes.
//!
//! Release-only: CI runs this file in its `cargo test --release` step.

use parallel_scc::graph::generators::lattice::lattice_sqr;
use parallel_scc::prelude::*;
use parallel_scc::scc::parallel_scc_with_stats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGE: AtomicU64 = AtomicU64::new(0);
const LARGE_BYTES: usize = 1 << 20;

struct Counting;

fn count(size: usize) {
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if size >= LARGE_BYTES {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `alloc` contract, passed through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `System` through this allocator with this
    // `layout` — the caller's `dealloc` contract, passed through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: the caller's `realloc` contract, passed through to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// (bytes allocated, allocations ≥ 1 MiB, searches made) of one run.
fn measure(g: &DiGraph, cfg: &SccConfig) -> (u64, u64, usize) {
    let (bytes, large) = (BYTES.load(Ordering::Relaxed), LARGE.load(Ordering::Relaxed));
    let (result, stats) = with_threads(2, || parallel_scc_with_stats(g, cfg));
    let used = (BYTES.load(Ordering::Relaxed) - bytes, LARGE.load(Ordering::Relaxed) - large);
    assert!(result.num_sccs > 0);
    (used.0, used.1, stats.searches.len())
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sized for release builds; CI runs it with --release")]
fn one_run_allocates_its_workspace_once() {
    let g = lattice_sqr(300, 300, 1);
    let graph_bytes = ((g.n() + g.m()) * 8) as u64;

    // β = 1.5 (the default) against β = 1.15: smaller batches, so several
    // times as many searches over the same graph.
    let few = measure(&g, &SccConfig::default());
    let many = measure(&g, &SccConfig { beta: 1.15, ..SccConfig::default() });
    eprintln!("graph {graph_bytes} B; (bytes, large, searches): {few:?} {many:?}");
    assert!(many.2 >= 2 * few.2, "β = 1.15 should at least double the searches");

    for (bytes, _, searches) in [few, many] {
        assert!(
            bytes <= 16 * graph_bytes,
            "{bytes} B allocated over {searches} searches: more than 16 × (n + m) · 8 = {} B",
            16 * graph_bytes
        );
    }
    assert!(
        many.1 <= few.1,
        "{} large allocations over {} searches, {} over {}: they grow with the search count",
        many.1,
        many.2,
        few.1,
        few.2
    );
}
