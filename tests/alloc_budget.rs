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
//! A second test holds the **index build after the kernel** to the same
//! kind of budget: component ids, condensation, arc-support counts, levels
//! and labels together allocate a small multiple of `(k + m_dag) · 4`
//! bytes, and nothing in there is one allocation the size of a hash table
//! over the DAG's arcs.
//!
//! Release-only: CI runs this file in its `cargo test --release` step.

use parallel_scc::graph::generators::lattice::lattice_sqr;
use parallel_scc::graph::generators::rmat::rmat_digraph;
use parallel_scc::prelude::*;
use parallel_scc::scc::parallel_scc_with_stats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

static BYTES: AtomicU64 = AtomicU64::new(0);
/// Allocations of at least `WIDE_BYTES` bytes, a size each test picks.
static WIDE: AtomicU64 = AtomicU64::new(0);
static WIDE_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);
/// The counters are process-wide: one measuring test at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

struct Counting;

fn count(size: usize) {
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if size >= WIDE_BYTES.load(Ordering::Relaxed) {
        WIDE.fetch_add(1, Ordering::Relaxed);
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

/// (bytes allocated, allocations of at least `WIDE_BYTES`) at width 2
/// while `f` runs, and what it returned.
fn allocated_by<T: Send>(f: impl FnOnce() -> T + Send) -> (u64, u64, T) {
    let (bytes, wide) = (BYTES.load(Ordering::Relaxed), WIDE.load(Ordering::Relaxed));
    let out = with_threads(2, f);
    (BYTES.load(Ordering::Relaxed) - bytes, WIDE.load(Ordering::Relaxed) - wide, out)
}

/// (bytes allocated, allocations ≥ 1 MiB, searches made) of one run.
fn measure(g: &DiGraph, cfg: &SccConfig) -> (u64, u64, usize) {
    let (bytes, large, (result, stats)) = allocated_by(|| parallel_scc_with_stats(g, cfg));
    assert!(result.num_sccs > 0);
    (bytes, large, stats.searches.len())
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sized for release builds; CI runs it with --release")]
fn one_run_allocates_its_workspace_once() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    WIDE_BYTES.store(1 << 20, Ordering::Relaxed);
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

#[test]
#[cfg_attr(debug_assertions, ignore = "sized for release builds; CI runs it with --release")]
fn index_build_after_the_kernel_allocates_in_proportion_to_the_dag() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let g = rmat_digraph(16, 6 << 16, 1);
    let cfg = IndexConfig::default();
    let shape = ReachIndex::build_with_config(&g, &cfg).stats();
    let (k, m_dag) = (shape.num_components, shape.dag_arcs);
    assert!(k >= 4096 && m_dag >= k, "expected a label-tier DAG, got k={k} m_dag={m_dag}");

    // A hash table over the DAG's arcs keyed by (u32, u32) with a u64 count
    // is one allocation of more than 17 · m_dag bytes; no array the build
    // needs after the kernel is that wide.
    WIDE_BYTES.store(16 * m_dag, Ordering::Relaxed);
    let (kernel_bytes, kernel_wide, _) = allocated_by(|| parallel_scc(&g, &cfg.scc));
    let (build_bytes, build_wide, _) = allocated_by(|| ReachIndex::build_with_config(&g, &cfg));

    let after = build_bytes.saturating_sub(kernel_bytes);
    let unit = ((k + m_dag) * 4) as u64;
    eprintln!(
        "n={} m={} k={k} m_dag={m_dag}: kernel {kernel_bytes} B, build {build_bytes} B, \
         after the kernel {after} B = {:.1} × (k + m_dag)·4; wide allocations {kernel_wide} → {build_wide}",
        g.n(),
        g.m(),
        after as f64 / unit as f64
    );
    assert!(
        after <= 28 * unit,
        "{after} B allocated after the kernel: more than 28 × (k + m_dag) · 4 = {} B",
        28 * unit
    );
    assert_eq!(
        build_wide,
        kernel_wide,
        "an allocation of at least 16 · m_dag = {} B after the kernel",
        16 * m_dag
    );
}
