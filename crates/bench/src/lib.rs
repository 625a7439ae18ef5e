//! # pscc-bench — shared benchmark harness utilities
//!
//! The `benches/` targets of this crate regenerate every table and figure
//! of the paper's evaluation (§6). This library provides the pieces they
//! share: the graph suite (a laptop-scale analogue of the paper's 18
//! graphs, same four families and regimes), adaptive timing, and aligned
//! table printing.
//!
//! Scale with `PSCC_SCALE` (default 1.0): e.g.
//! `PSCC_SCALE=4 cargo bench -p pscc-bench --bench tab2_scc` quadruples
//! every vertex count.

use pscc_graph::generators::knn::{clustered_points, knn_digraph, trajectory_points};
use pscc_graph::generators::lattice::{lattice_sqr, lattice_sqr_prime};
use pscc_graph::generators::rmat::rmat_digraph;
use pscc_graph::generators::simple::bowtie_web;
use pscc_graph::{DiGraph, V};
use pscc_runtime::{hash64, Timer};

/// One graph of the benchmark suite.
pub struct BenchGraph {
    /// Short name echoing the paper's (LJ, TW, SD, …).
    pub name: &'static str,
    /// Family: "social", "web", "knn", or "lattice".
    pub family: &'static str,
    /// The graph itself.
    pub graph: DiGraph,
}

/// Reads the `PSCC_SCALE` multiplier (default 1.0, clamped to [0.05, 100]).
pub fn scale() -> f64 {
    std::env::var("PSCC_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.05, 100.0)
}

fn sc(n: usize) -> usize {
    ((n as f64 * scale()) as usize).max(64)
}

/// Builds the full graph suite — the laptop-scale analogue of Tab. 2's 18
/// graphs. Two graphs per paper family at least; names indicate the
/// original they stand in for.
pub fn suite() -> Vec<BenchGraph> {
    suite_selected(&[])
}

/// Builds the suite restricted to the given names (empty = all).
pub fn suite_selected(only: &[&str]) -> Vec<BenchGraph> {
    let want = |name: &str| only.is_empty() || only.contains(&name);
    let mut graphs = Vec::new();
    let mut push = |name: &'static str, family: &'static str, g: DiGraph| {
        graphs.push(BenchGraph { name, family, graph: g });
    };

    // Social: power-law, low diameter, high reciprocity -> giant SCC
    // (LJ / TW analogues; their largest SCC covers ~80% of vertices).
    if want("LJ*") {
        push("LJ*", "social", reciprocal(rmat_digraph(15, sc(500_000), 0x11), 0.5, 0x1111));
    }
    if want("TW*") {
        push("TW*", "social", reciprocal(rmat_digraph(14, sc(700_000), 0x22), 0.5, 0x2222));
    }
    // Web: bowtie with a giant core (SD / CW analogues).
    if want("SD*") {
        push("SD*", "web", bowtie_web(sc(60_000), 0.5, 4, 0x33));
    }
    if want("CW*") {
        push("CW*", "web", bowtie_web(sc(120_000), 0.6, 3, 0x44));
    }
    // k-NN: large diameter, many medium SCCs (HH5/CH5/GL*/COS5 analogues).
    if want("HH5*") {
        let pts = clustered_points(sc(40_000), 8, 0x55);
        push("HH5*", "knn", knn_digraph(&pts, 5));
    }
    if want("CH5*") {
        let pts = clustered_points(sc(30_000), 60, 0x66);
        push("CH5*", "knn", knn_digraph(&pts, 5));
    }
    if want("GL2*") {
        let pts = trajectory_points(sc(50_000), 50, 0x77);
        push("GL2*", "knn", knn_digraph(&pts, 2));
    }
    if want("GL5*") {
        let pts = trajectory_points(sc(50_000), 50, 0x88);
        push("GL5*", "knn", knn_digraph(&pts, 5));
    }
    if want("GL10*") {
        let pts = trajectory_points(sc(40_000), 40, 0x99);
        push("GL10*", "knn", knn_digraph(&pts, 10));
    }
    if want("COS5*") {
        // Cosmology simulation points: strongly clustered halos.
        let pts = clustered_points(sc(50_000), 5, 0xaa);
        push("COS5*", "knn", knn_digraph(&pts, 5));
    }
    // Lattices: exactly the paper's models, downscaled tori.
    if want("SQR") {
        let side = (sc(62_500) as f64).sqrt() as usize;
        push("SQR", "lattice", lattice_sqr(side, side, 0xbb));
    }
    if want("REC") {
        let h = ((sc(64_000) / 10) as f64).sqrt() as usize;
        push("REC", "lattice", lattice_sqr(10 * h, h, 0xcc));
    }
    if want("SQR'") {
        let side = (sc(62_500) as f64).sqrt() as usize;
        push("SQR'", "lattice", lattice_sqr_prime(side, side, 0xdd));
    }
    if want("REC'") {
        let h = ((sc(64_000) / 10) as f64).sqrt() as usize;
        push("REC'", "lattice", lattice_sqr_prime(10 * h, h, 0xee));
    }
    graphs
}

/// Adds the reverse of a pseudo-random `frac` of the edges — the
/// reciprocity that gives social graphs their giant SCC.
fn reciprocal(g: DiGraph, frac: f64, salt: u64) -> DiGraph {
    let threshold = (frac * u64::MAX as f64) as u64;
    let mut edges: Vec<(V, V)> = g.out_csr().edges().collect();
    let extra: Vec<(V, V)> = edges
        .iter()
        .filter(|&&(u, v)| hash64(((u as u64) << 32 | v as u64) ^ salt) < threshold)
        .map(|&(u, v)| (v, u))
        .collect();
    edges.extend(extra);
    DiGraph::from_edges(g.n(), &edges)
}

/// A small representative subset (one per family) for the expensive
/// sweeps (Fig. 7/11).
pub fn small_suite() -> Vec<BenchGraph> {
    suite_selected(&["TW*", "SD*", "GL5*", "SQR'"])
}

/// Times `f`, adaptively repeating fast runs: one warm-up-free call, then
/// if it took under `budget` seconds, two more; returns the minimum.
pub fn time_adaptive<R>(budget: f64, mut f: impl FnMut() -> R) -> (f64, R) {
    let t = Timer::start();
    let mut out = f();
    let mut best = t.seconds();
    if best < budget {
        for _ in 0..2 {
            let t = Timer::start();
            out = f();
            best = best.min(t.seconds());
        }
    }
    (best, out)
}

/// Prints a row of fixed-width cells.
pub fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{:>width$} ", c, width = w));
    }
    // analyze: allow(logging): bench tables are the tool's product, not diagnostics
    println!("{}", line.trim_end());
}

/// Formats seconds with ms precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_has_four_families() {
        let s = small_suite();
        assert_eq!(s.len(), 4);
        let fams: std::collections::HashSet<&str> = s.iter().map(|g| g.family).collect();
        assert_eq!(fams.len(), 4);
    }

    #[test]
    fn suite_selected_filters() {
        let s = suite_selected(&["SQR"]);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].name, "SQR");
    }

    #[test]
    fn scale_default_is_one() {
        // (Assumes the test environment does not set PSCC_SCALE.)
        if std::env::var("PSCC_SCALE").is_err() {
            assert_eq!(scale(), 1.0);
        }
    }

    #[test]
    fn time_adaptive_returns_result() {
        let (secs, v) = time_adaptive(10.0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.0123), "12.3ms");
    }
}
