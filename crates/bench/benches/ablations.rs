//! **Ablations** — isolating the design choices the paper credits for
//! performance:
//!
//! 1. the dense (direction-optimizing) mode of the first SCC (§4.2);
//! 2. the prefix-doubling multiplier β (Tab. 1 default 1.5);
//! 3. the hash-bag first-chunk size λ (paper: insensitive in 2⁸..2¹⁶).
//!
//! Run: `cargo bench -p pscc-bench --bench ablations`

use pscc_bag::BagConfig;
use pscc_bench::{fmt_secs, row, small_suite, time_adaptive};
use pscc_core::{parallel_scc, SccConfig};

fn main() {
    println!("== Ablation 1: dense mode ==\n");
    let widths = [7, 10, 10];
    row(&["graph", "final", "no-dense"].map(String::from), &widths);
    for bg in small_suite() {
        let g = &bg.graph;
        let (t_final, _) = time_adaptive(1.0, || parallel_scc(g, &SccConfig::default()));
        let nodense_cfg = SccConfig { use_dense: false, ..SccConfig::default() };
        let (t_nodense, _) = time_adaptive(1.0, || parallel_scc(g, &nodense_cfg));
        row(&[bg.name.to_string(), fmt_secs(t_final), fmt_secs(t_nodense)], &widths);
    }

    println!("\n== Ablation 2: batch multiplier β ==\n");
    let betas = [1.2f64, 1.5, 2.0, 3.0, 4.0];
    let mut widths = vec![7usize];
    widths.extend(std::iter::repeat_n(9, betas.len()));
    let mut header = vec!["graph".to_string()];
    header.extend(betas.iter().map(|b| format!("β={b}")));
    row(&header, &widths);
    for bg in small_suite() {
        let g = &bg.graph;
        let mut cells = vec![bg.name.to_string()];
        for &beta in &betas {
            let cfg = SccConfig { beta, ..SccConfig::default() };
            let (t, _) = time_adaptive(1.0, || parallel_scc(g, &cfg));
            cells.push(fmt_secs(t));
        }
        row(&cells, &widths);
    }

    println!("\n== Ablation 3: hash-bag first-chunk size λ ==\n");
    let lambdas: Vec<usize> = (6..=16).step_by(2).map(|e| 1usize << e).collect();
    let mut widths = vec![7usize];
    widths.extend(std::iter::repeat_n(9, lambdas.len()));
    let mut header = vec!["graph".to_string()];
    header.extend(lambdas.iter().map(|l| format!("λ=2^{}", l.trailing_zeros())));
    row(&header, &widths);
    for bg in small_suite() {
        let g = &bg.graph;
        let mut cells = vec![bg.name.to_string()];
        for &lambda in &lambdas {
            let cfg = SccConfig {
                bag: BagConfig { lambda, ..BagConfig::default() },
                ..SccConfig::default()
            };
            let (t, _) = time_adaptive(1.0, || parallel_scc(g, &cfg));
            cells.push(fmt_secs(t));
        }
        row(&cells, &widths);
    }
    println!(
        "\n(expectations: no-dense hurts \
         graphs with a giant SCC; β and λ should be flat across a wide range — \
         the paper's Tab. 1/§3.3 insensitivity claims)"
    );
}
