//! Neighborhood-size estimation with LE-lists (§5.2) — Cohen's classic
//! application: from each vertex's least-element list one can estimate the
//! number of vertices within distance `d` without running n BFSs.
//!
//! The estimator: under a uniform random priority order, the minimum
//! priority rank `r` among the vertices within distance `d` of `v` has
//! expectation ≈ `n / (|ball(v,d)| + 1)`. Averaging the observed minimum
//! rank over several permutations and inverting gives
//! `|ball| ≈ n / r̄ − 1` (Cohen 1997's size-estimation framework).
//!
//! Run with: `cargo run --release --example lelists_estimation`

use parallel_scc::prelude::*;

fn main() {
    // A toroidal grid: balls have predictable sizes ~ 2d(d+1)+1.
    let g = parallel_scc::graph::generators::lattice::lattice_sqr(120, 120, 1).symmetrize();
    let n = g.n();
    println!("torus graph: n = {n}, m = {}\n", g.m());

    // Average the single-permutation estimator over several seeds.
    let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut rank_sums = [0.0f64; 10];
    let probe = 777usize; // vertex whose neighborhood we size up

    for &seed in &seeds {
        let cfg = LeListsConfig { seed, ..LeListsConfig::default() };
        let res = le_lists(&g, &cfg);
        // rank of each vertex in this permutation
        let mut rank = vec![0u32; n];
        for (i, &v) in res.priority.iter().enumerate() {
            rank[v as usize] = i as u32;
        }
        for d in 0..10u32 {
            // minimum priority rank among entries with distance <= d
            let best = res.lists[probe]
                .iter()
                .filter(|&&(_, dist)| dist <= d)
                .map(|&(v, _)| rank[v as usize])
                .min();
            if let Some(r) = best {
                rank_sums[d as usize] += (r as f64 + 1.0) / seeds.len() as f64;
            }
        }
    }

    // Ground truth via one BFS.
    let mut dist = vec![u32::MAX; n];
    dist[probe] = 0;
    let mut queue = std::collections::VecDeque::from([probe as V]);
    while let Some(u) = queue.pop_front() {
        for &w in g.neighbors(u) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dist[u as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    println!("{:>4} {:>12} {:>12} {:>8}", "d", "true |ball|", "estimate", "ratio");
    for d in 0..10u32 {
        let truth = dist.iter().filter(|&&x| x <= d).count();
        let est = n as f64 / rank_sums[d as usize] - 1.0;
        println!("{:>4} {:>12} {:>12.1} {:>8.2}", d, truth, est, est / truth as f64);
    }
    println!(
        "\n(One LE-list per permutation gives a coarse unbiased estimate; \
         the paper's applications average many, exactly as done here.)"
    );
}
