//! Allocation budget of one SCC run: the deterministic guard for "a search
//! costs what it finds, not what the graph could hold".
//!
//! A counting global allocator (hence a test binary of its own, with a
//! single test so nothing else allocates meanwhile) measures
//! `parallel_scc` on a 300×300 lattice. The run's workspace — one hash
//! bag, two pair tables; labeling works on the label words and allocates
//! nothing — is allocated once, so
//!
//! * the bytes allocated in total stay within a small multiple of the
//!   graph's own `(n + m) · 8`, and
//! * the number of large (≥ 1 MiB) allocations does not depend on how
//!   many searches the run makes.
//!
//! A second case is the shape that used to defeat this: a social graph
//! whose first permuted vertex is trimmed. Its giant SCC must still be
//! peeled by the two single-source searches of the first-SCC phase
//! (bitmaps), so the run allocates no pair table sized for it.
//!
//! A third test holds the **index build after the kernel** to the same
//! kind of budget, on an RMAT graph and on a lattice: component ids,
//! condensation, arc-support counts, levels and labels together allocate a
//! small multiple of `(k + m_dag) · 4` bytes in a bounded number of
//! allocation calls, whatever the number of components (nothing allocates
//! per component), and nothing in there is one allocation the size of a
//! hash table over the DAG's arcs.
//!
//! A fourth holds **`Csr::transpose`**, which builds every in-CSR, to its
//! output plus one `B × n` counter matrix, all of it allocated by the
//! calling thread: counters allocated inside worker tasks stay in those
//! threads' malloc arenas and raise the served RSS.
//!
//! A fifth holds a **label-tier arc splice** through `Catalog::apply_delta`
//! on a DAG of over 2¹⁶ components: one-, 16- and 64-arc splices make
//! nearly the same number of allocations of at least `k` bytes, because
//! every walk of every arc shares one seen array.
//!
//! Release-only: CI runs this file in its `cargo test --release` step.

use parallel_scc::graph::generators::lattice::lattice_sqr;
use parallel_scc::graph::generators::rmat::rmat_digraph;
use parallel_scc::prelude::*;
use parallel_scc::runtime::{hash64, random_permutation};
use parallel_scc::scc::parallel_scc_with_stats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

static BYTES: AtomicU64 = AtomicU64::new(0);
/// Allocation calls (`alloc` and `realloc`), whatever their size.
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Allocations of at least `WIDE_BYTES` bytes, a size each test picks.
static WIDE: AtomicU64 = AtomicU64::new(0);
static WIDE_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Of those, the ones made off the thread that runs the measured closure.
static WIDE_ELSEWHERE: AtomicU64 = AtomicU64::new(0);
/// The counters are process-wide: one measuring test at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

thread_local! {
    /// Set on the thread running [`allocated_by`]'s closure.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn count(size: usize) {
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
    if size >= WIDE_BYTES.load(Ordering::Relaxed) {
        WIDE.fetch_add(1, Ordering::Relaxed);
        if !MEASURED.try_with(Cell::get).unwrap_or(false) {
            WIDE_ELSEWHERE.fetch_add(1, Ordering::Relaxed);
        }
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

/// One lattice run may allocate this many times the graph's `(n + m) · 8`:
/// 8.5× and 8.8× measured for the two runs below — trimming's two counter
/// arrays (8 B per vertex, freed before the workspace exists) came in, the
/// permutation's sort words (16 B per survivor, buffer included) replaced
/// 32 B per vertex, and the batches, now slices of the survivors, size
/// their tables differently; 7.8× and 8.1× before that, 9.0× and 9.3× while
/// labeling kept 20 B per vertex of scratch and the result was a copy of
/// the label array.
const BUDGET: u64 = 9;
/// One social-shaped run may allocate this many bytes per vertex: 68
/// measured (84 while the permutation was sorted over every vertex), 669
/// when a multi-reach batch peeled the giant SCC.
const SOCIAL_BUDGET: u64 = 96;
/// Allocation calls the index build may make after the kernel, on a DAG
/// of any size: about 190 measured on each of the two graphs below,
/// against 120 918 and 79 490 while the label build kept a vector per
/// component and side.
const AFTER_KERNEL_CALLS: u64 = 1_024;
/// Bytes `Csr::transpose` may allocate beyond its output and its counter
/// matrix at width 2: 1.3 KiB measured, nearly all of it the spawn of one
/// worker thread for each of its five parallel regions.
const TRANSPOSE_SMALL_CHANGE: u64 = 2 << 10;

/// (bytes allocated, allocations of at least `WIDE_BYTES`, allocation
/// calls) at width 2 while `f` runs, and what it returned.
fn allocated_by<T: Send>(f: impl FnOnce() -> T + Send) -> (u64, u64, u64, T) {
    let load = || [&BYTES, &WIDE, &CALLS].map(|counter| counter.load(Ordering::Relaxed));
    let before = load();
    MEASURED.with(|m| m.set(true));
    let out = with_threads(2, f);
    MEASURED.with(|m| m.set(false));
    let [bytes, wide, calls] = load();
    (bytes - before[0], wide - before[1], calls - before[2], out)
}

/// (bytes allocated, allocations ≥ 1 MiB, searches made) of one run.
fn measure(g: &DiGraph, cfg: &SccConfig) -> (u64, u64, usize) {
    let (bytes, large, _, (result, stats)) = allocated_by(|| parallel_scc_with_stats(g, cfg));
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
            bytes <= BUDGET * graph_bytes,
            "{bytes} B allocated over {searches} searches: more than {BUDGET} × (n + m) · 8 = {} B",
            BUDGET * graph_bytes
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
fn a_giant_scc_is_peeled_without_a_pair_table() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    WIDE_BYTES.store(1 << 20, Ordering::Relaxed);
    let g = social_graph(16, 1);
    let n = g.n() as u64;
    // The default permutation starts at a vertex this shape never trims
    // (graph seeds 1..=11 tried); permutation seed 0 starts at one it does.
    let cfg = SccConfig { seed: 0, ..SccConfig::default() };
    let first = random_permutation(g.n(), cfg.seed)[0];
    assert!(
        g.out_neighbors(first).is_empty() || g.in_neighbors(first).is_empty(),
        "perm[0] = {first} survives trimming: pick a seed where it does not"
    );

    let (bytes, large, _, (result, stats)) = allocated_by(|| parallel_scc_with_stats(&g, &cfg));
    eprintln!(
        "n={n} m={} trimmed={} giant={}: {bytes} B = {:.1} × n, {large} large",
        g.m(),
        stats.trimmed,
        result.largest_scc,
        bytes as f64 / n as f64
    );
    assert!(2 * result.largest_scc > g.n() - stats.trimmed, "expected a giant SCC");
    // Two pair tables and a bag for 2 × giant pairs are ≥ 96 B per vertex
    // of the giant SCC on their own.
    assert!(
        bytes <= SOCIAL_BUDGET * n,
        "{bytes} B allocated: more than {SOCIAL_BUDGET} × n = {} B — a giant-SCC pair table?",
        SOCIAL_BUDGET * n
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sized for release builds; CI runs it with --release")]
fn transpose_allocates_its_output_and_one_counter_matrix() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    WIDE_BYTES.store(1 << 10, Ordering::Relaxed);
    for (name, g) in
        [("lattice 300x300", lattice_sqr(300, 300, 1)), ("social rmat-16", social_graph(16, 1))]
    {
        let (n, m) = (g.n() as u64, g.m() as u64);
        let elsewhere = WIDE_ELSEWHERE.load(Ordering::Relaxed);
        let (bytes, wide, _, t) = allocated_by(|| g.out_csr().transpose());
        let elsewhere = WIDE_ELSEWHERE.load(Ordering::Relaxed) - elsewhere;
        assert!(&t == g.in_csr(), "{name}: the transpose changed");
        // Output, the 2 × n matrix of width 2, and the small change of five
        // parallel regions (thread spawns, the scan's block sums).
        let budget = (n + 1) * 8 + m * 4 + 2 * n * 4 + TRANSPOSE_SMALL_CHANGE;
        eprintln!("{name}: n={n} m={m}: {bytes} B of {budget}, {wide} ≥ 1 KiB, {elsewhere} off the caller");
        assert!(bytes <= budget, "{name}: {bytes} B allocated, budget {budget} B");
        assert!(wide <= 6, "{name}: {wide} allocations of at least 1 KiB");
        assert_eq!(elsewhere, 0, "{name}: a worker allocated counters of its own");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sized for release builds; CI runs it with --release")]
fn index_build_after_the_kernel_allocates_in_proportion_to_the_dag() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = IndexConfig::default();
    for (name, g) in
        [("rmat-16", rmat_digraph(16, 6 << 16, 1)), ("lattice 300x300", lattice_sqr(300, 300, 1))]
    {
        let shape = ReachIndex::build_with_config(&g, &cfg).stats();
        let (k, m_dag) = (shape.num_components, shape.dag_arcs);
        assert!(
            k >= 4096 && m_dag >= k,
            "{name}: expected a label-tier DAG, got k={k} m_dag={m_dag}"
        );

        // A hash table over the DAG's arcs keyed by (u32, u32) with a u64
        // count is one allocation of more than 17 · m_dag bytes; no array
        // the build needs after the kernel is that wide.
        WIDE_BYTES.store(16 * m_dag, Ordering::Relaxed);
        let (kernel_bytes, kernel_wide, kernel_calls, _) =
            allocated_by(|| parallel_scc(&g, &SccConfig::default()));
        let (build_bytes, build_wide, build_calls, _) =
            allocated_by(|| ReachIndex::build_with_config(&g, &cfg));

        let after = build_bytes.saturating_sub(kernel_bytes);
        let calls = build_calls.saturating_sub(kernel_calls);
        let unit = ((k + m_dag) * 4) as u64;
        eprintln!(
            "{name}: n={} m={} k={k} m_dag={m_dag}: kernel {kernel_bytes} B, build {build_bytes} B, \
             after the kernel {after} B = {:.1} × (k + m_dag)·4 in {calls} calls; \
             wide allocations {kernel_wide} → {build_wide}",
            g.n(),
            g.m(),
            after as f64 / unit as f64
        );
        assert!(
            after <= 28 * unit,
            "{name}: {after} B allocated after the kernel: more than 28 × (k + m_dag) · 4 = {} B",
            28 * unit
        );
        assert!(
            calls <= AFTER_KERNEL_CALLS,
            "{name}: {calls} allocation calls after the kernel, more than {AFTER_KERNEL_CALLS}: \
             something allocates per component"
        );
        assert_eq!(
            build_wide,
            kernel_wide,
            "{name}: an allocation of at least 16 · m_dag = {} B after the kernel",
            16 * m_dag
        );
    }
}

/// Allocations of at least `k` bytes a 16- or 64-arc label-tier splice may
/// make beyond a one-arc splice on the same entry: 5 and 11 measured. They
/// grow with the size of the label patch, not with the arc count: the
/// doublings of the two lists that collect the walks' hub entries and of
/// the merge's touched-row lists, and the scratch of one sort per side.
/// The walker's seen array is one per splice; each arc used to add two
/// `k`-byte arrays of its own, 30 more at 16 arcs and 126 more at 64.
const SPLICE_WIDE_SLACK: u64 = 16;

#[test]
#[cfg_attr(debug_assertions, ignore = "sized for release builds; CI runs it with --release")]
fn a_label_splice_allocates_one_walk_array_whatever_its_arc_count() {
    use parallel_scc::engine::{BatchOptions, DeltaOutcome};
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = IndexConfig { bitset_budget_bytes: 0, label_min_components: 0, ..Default::default() };
    let g = rmat_digraph(17, 2 << 17, 1);
    let n = g.n() as u64;
    let catalog = Catalog::new();
    catalog.insert_with_config("g", g, cfg, BatchOptions::default());
    let k = catalog.index("g").map_or(0, |idx| idx.num_components());
    assert!(k >= 1 << 16, "expected at least 2^16 components, got {k}");
    WIDE_BYTES.store(k, Ordering::Relaxed);

    // `arcs` new edges, each climbing in level between two components the
    // index does not connect yet: a splice that closes no cycle.
    let mut next = 0u64;
    let mut splice = |arcs: usize| {
        let idx = catalog.index("g").expect("indexed");
        let mut delta = Delta::new();
        let mut picked = 0;
        while picked < arcs {
            next += 1;
            let (u, v) = ((hash64(next) % n) as V, (hash64(next ^ 0x5eed) % n) as V);
            let (cu, cv) = (idx.comp(u), idx.comp(v));
            if idx.level(cu) < idx.level(cv) && !idx.reaches(u, v) {
                delta.insert(u, v);
                picked += 1;
            }
        }
        let (_, wide, _, report) = allocated_by(|| catalog.apply_delta("g", &delta));
        assert_eq!(report.map(|r| r.outcome), Ok(DeltaOutcome::DagSpliced), "{arcs} arcs");
        wide
    };
    let wide = [1, 16, 64].map(&mut splice);
    eprintln!("k={k}: allocations of at least k bytes for 1 / 16 / 64 arcs: {wide:?}");
    for (arcs, w) in [16, 64].into_iter().zip(&wide[1..]) {
        assert!(
            *w <= wide[0] + SPLICE_WIDE_SLACK,
            "{arcs} arcs: {w} allocations of at least {k} B, against {} for one arc",
            wide[0]
        );
    }
}
