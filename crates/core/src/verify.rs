//! Partition utilities: SCC label vectors are only meaningful up to
//! renaming, so comparisons and statistics go through a canonical form.
//! Also the sequential reference the trimming phase is tested against.

use std::collections::{HashMap, VecDeque};

use pscc_graph::{DiGraph, V};

/// Canonicalizes a label vector: components are renumbered `0..k` in order
/// of first appearance, so two label vectors describe the same partition
/// iff their canonical forms are equal.
pub fn normalize_labels<T: Copy + Eq + std::hash::Hash>(labels: &[T]) -> Vec<u32> {
    let mut map: HashMap<T, u32> = HashMap::with_capacity(labels.len() / 4 + 16);
    let mut out = Vec::with_capacity(labels.len());
    for &l in labels {
        let next = map.len() as u32;
        out.push(*map.entry(l).or_insert(next));
    }
    out
}

/// True if two label vectors induce the same partition of `0..n`.
pub fn same_partition<A, B>(a: &[A], b: &[B]) -> bool
where
    A: Copy + Eq + std::hash::Hash,
    B: Copy + Eq + std::hash::Hash,
{
    a.len() == b.len() && normalize_labels(a) == normalize_labels(b)
}

/// Number of components and the size of the largest one.
pub fn component_stats<T: Copy + Eq + std::hash::Hash>(labels: &[T]) -> (usize, usize) {
    let mut counts: HashMap<T, usize> = HashMap::new();
    for &l in labels {
        *counts.entry(l).or_insert(0) += 1;
    }
    let largest = counts.values().copied().max().unwrap_or(0);
    (counts.len(), largest)
}

/// Which vertices complete trimming removes from a duplicate-free `g`, by
/// sequential queue peeling: the reference [`scc::trim`](crate::scc::trim())
/// is held to. A vertex dies once it has no live in- or no live
/// out-neighbour other than itself, and takes all its edges with it.
pub fn trimmed_by_peeling(g: &DiGraph) -> Vec<bool> {
    let n = g.n();
    let others = |ns: &[V], v: V| ns.iter().filter(|&&u| u != v).count();
    let mut live_in: Vec<usize> = (0..n as V).map(|v| others(g.in_neighbors(v), v)).collect();
    let mut live_out: Vec<usize> = (0..n as V).map(|v| others(g.out_neighbors(v), v)).collect();
    let mut queue: VecDeque<V> =
        (0..n as V).filter(|&v| live_in[v as usize] == 0 || live_out[v as usize] == 0).collect();
    let mut dead = vec![false; n];
    queue.iter().for_each(|&v| dead[v as usize] = true);
    while let Some(v) = queue.pop_front() {
        for (ns, live) in [(g.out_neighbors(v), &mut live_in), (g.in_neighbors(v), &mut live_out)] {
            for &u in ns.iter().filter(|&&u| u != v) {
                live[u as usize] -= 1;
                if live[u as usize] == 0 && !dead[u as usize] {
                    dead[u as usize] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    dead
}

/// Groups vertex ids by label, each group sorted, groups sorted by their
/// smallest member — a stable representation for test assertions.
pub fn partition_groups<T: Copy + Eq + std::hash::Hash>(labels: &[T]) -> Vec<Vec<u32>> {
    let mut map: HashMap<T, Vec<u32>> = HashMap::new();
    for (v, &l) in labels.iter().enumerate() {
        map.entry(l).or_default().push(v as u32);
    }
    let mut groups: Vec<Vec<u32>> = map.into_values().collect();
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort_by_key(|g| g[0]);
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_is_first_appearance_order() {
        assert_eq!(normalize_labels(&[7u64, 7, 3, 7, 3]), vec![0, 0, 1, 0, 1]);
    }

    #[test]
    fn same_partition_ignores_names() {
        assert!(same_partition(&[10u64, 10, 20], &[1u32, 1, 5]));
        assert!(!same_partition(&[10u64, 10, 20], &[1u32, 2, 5]));
    }

    #[test]
    fn same_partition_rejects_length_mismatch() {
        assert!(!same_partition(&[1u32, 1], &[1u32, 1, 1]));
    }

    #[test]
    fn component_stats_counts() {
        let (k, largest) = component_stats(&[5u32, 5, 5, 9, 9, 1]);
        assert_eq!(k, 3);
        assert_eq!(largest, 3);
    }

    #[test]
    fn component_stats_empty() {
        let labels: [u32; 0] = [];
        assert_eq!(component_stats(&labels), (0, 0));
    }

    #[test]
    fn groups_are_sorted() {
        let groups = partition_groups(&[2u32, 1, 2, 3, 1]);
        assert_eq!(groups, vec![vec![0, 2], vec![1, 4], vec![3]]);
    }
}
