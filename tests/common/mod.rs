//! Shared helpers for the integration-test targets that declare
//! `mod common;` (a directory module, so cargo does not treat it as a
//! test target of its own).

// Each test target compiles `common` independently and uses a different
// slice of it — unused items in one target are not dead code.
#[allow(dead_code)]
pub mod scenarios;

use parallel_scc::prelude::*;

/// Brute-force reachability oracle: iterative DFS over the out-CSR.
pub fn bfs_reaches(g: &DiGraph, u: V, v: V) -> bool {
    let mut seen = vec![false; g.n()];
    let mut stack = vec![u];
    seen[u as usize] = true;
    while let Some(x) = stack.pop() {
        if x == v {
            return true;
        }
        for &w in g.out_neighbors(x) {
            if !seen[w as usize] {
                seen[w as usize] = true;
                stack.push(w);
            }
        }
    }
    false
}

/// The served index's arc-support table must equal a from-scratch recount
/// of `edges` (the merged graph) under the served component ids: same
/// pairs, same multiplicities, every non-latent row a DAG arc and no
/// latent row one.
pub fn assert_support_in_lockstep(index: &ReachIndex, edges: &[(V, V)], ctx: &str) {
    let mut recount: std::collections::BTreeMap<(u32, u32), u64> = Default::default();
    for &(u, v) in edges {
        let pair = (index.comp(u), index.comp(v));
        if pair.0 != pair.1 {
            *recount.entry(pair).or_insert(0) += 1;
        }
    }
    let rows = index.support_entries();
    let mut served: std::collections::BTreeMap<(u32, u32), u64> = Default::default();
    for &((a, b), count, latent) in &rows {
        let is_arc = index.dag().out_neighbors(a).binary_search(&b).is_ok();
        assert_ne!(is_arc, latent, "{ctx}: pair ({a}, {b}) arc={is_arc} latent={latent}");
        assert!(served.insert((a, b), count).is_none(), "{ctx}: pair ({a}, {b}) listed twice");
    }
    assert_eq!(rows.len() - index.stats().latent_arcs, index.dag().m(), "{ctx}: arc rows");
    assert_eq!(served, recount, "{ctx}: support table diverged from a recount");
}
