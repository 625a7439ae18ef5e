//! **Fig. 10** — number of reachability-search rounds with and without VGC.
//!
//! For every reachability search inside the SCC computation we record the
//! round count under plain BFS (`y`) and under VGC (`x`); the paper plots
//! the (x, y) points per graph and reports the average ratio `avg = y/x`
//! (3–200x in the paper). Both runs share the permutation seed, so search
//! `i` of one run corresponds to search `i` of the other.
//!
//! Run: `cargo bench -p pscc-bench --bench fig10_rounds`

use pscc_bench::{row, suite};
use pscc_core::{parallel_scc_with_stats, SccConfig};

fn main() {
    println!("== Fig. 10: reachability rounds, VGC vs plain BFS ==\n");
    let widths = [7, 10, 10, 10, 10, 8];
    row(
        &["graph", "searches", "rounds", "rounds", "max y/x", "avg y/x"].map(String::from),
        &widths,
    );
    row(&["", "", "(VGC)", "(plain)", "", ""].map(String::from), &widths);

    for bg in suite() {
        let g = &bg.graph;
        let (_, with_vgc) = parallel_scc_with_stats(g, &SccConfig::default());
        let (_, without) = parallel_scc_with_stats(g, &SccConfig::plain());

        let n = with_vgc.searches.len().min(without.searches.len());
        let mut ratios = Vec::with_capacity(n);
        for i in 0..n {
            let x = with_vgc.searches[i].rounds.max(1) as f64;
            let y = without.searches[i].rounds.max(1) as f64;
            ratios.push(y / x);
        }
        let avg = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        let max = ratios.iter().cloned().fold(0.0f64, f64::max);
        row(
            &[
                bg.name.to_string(),
                n.to_string(),
                with_vgc.total_rounds().to_string(),
                without.total_rounds().to_string(),
                format!("{max:.1}"),
                format!("{avg:.1}"),
            ],
            &widths,
        );
    }
    println!(
        "\n(paper: avg ratios 3–202 depending on graph; k-NN/lattice graphs sit at \
         the high end, social/web at the low end)"
    );
}
