//! **Fig. 9** — per-phase running-time breakdown: Trimming / First-SCC /
//! Multi-search / Hash-table-resizing / Labeling / Other, for the four
//! implementations GBBS-like, Plain (bags, no VGC), VGC1 (VGC in the first
//! SCC only), and Final (VGC everywhere).
//!
//! Run: `cargo bench -p pscc-bench --bench fig9_breakdown`

use pscc_baselines::gbbs_scc;
use pscc_bench::{row, suite};
use pscc_core::stats::{SccStats, PHASES};
use pscc_core::{parallel_scc_with_stats, SccConfig};

fn main() {
    println!("== Fig. 9: SCC phase breakdown (seconds) ==\n");
    let widths = [7, 7, 9, 9, 9, 9, 9, 9, 9];
    row(
        &["graph", "variant", "trim", "first_scc", "multi", "resize", "label", "other", "TOTAL"]
            .map(String::from),
        &widths,
    );

    for bg in suite() {
        let g = &bg.graph;
        let runs: Vec<(&str, SccStats)> = vec![
            ("gbbs", gbbs_scc(g, &SccConfig::default()).1),
            ("plain", parallel_scc_with_stats(g, &SccConfig::plain()).1),
            ("vgc1", parallel_scc_with_stats(g, &SccConfig::vgc1()).1),
            ("final", parallel_scc_with_stats(g, &SccConfig::default()).1),
        ];
        let gbbs_total = runs[0].1.total_seconds;
        for (variant, stats) in &runs {
            let mut cells = vec![bg.name.to_string(), variant.to_string()];
            for phase in PHASES {
                let p = match phase {
                    "multi_search" => "multi",
                    "table_resize" => "resize",
                    "labeling" => "label",
                    other => other,
                };
                let _ = p;
                cells.push(format!("{:.4}", stats.phase_seconds(phase)));
            }
            cells.push(format!(
                "{:.4} ({:.2}x)",
                stats.total_seconds,
                gbbs_total / stats.total_seconds
            ));
            row(&cells, &widths);
        }
        println!();
    }
    println!("(x-factor = speedup over the GBBS-like baseline, as annotated atop Fig. 9's bars)");
}
