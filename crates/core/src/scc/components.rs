//! Component ids, counts and sizes straight from kernel labels, by direct
//! addressing.
//!
//! **The representative invariant.** Every label [`parallel_scc`] returns is
//! `FINAL_TAG | s` for a *member* `s` of the labeled vertex's SCC that
//! **labels itself**: trimming labels a vertex with its own id, the
//! first-SCC step with its source, a multi-reach batch with the maximum
//! source strongly connected to the vertex (Alg. 1 line 11), which that
//! source shares with its whole SCC. So `rep(v) = labels[v] & !FINAL_TAG`
//! indexes per-component arrays over `0..n` — no hashing.
//!
//! [`parallel_scc`]: super::parallel_scc

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use pscc_runtime::{atomic_min_u32, pack_index, par_for, par_range, tabulate};

use crate::state::FINAL_TAG;

/// The representative vertex a final label names.
fn rep(label: u64) -> usize {
    (label & !FINAL_TAG) as usize
}

/// `sizes[s]` = number of vertices whose representative is `s`. Panics
/// unless `labels` satisfies the [representative invariant](self).
pub(super) fn sizes_by_representative(labels: &[u64]) -> Vec<AtomicU32> {
    let n = labels.len();
    let sizes: Vec<AtomicU32> = tabulate(n, |_| AtomicU32::new(0));
    par_range(0..n, 4096, &|r| {
        // Neighbouring ids often share a component (a giant SCC above all):
        // one add per run of equal representatives, not one per vertex.
        let mut run_start = r.start;
        for v in r.clone() {
            let s = rep(labels[v]);
            assert!(
                labels[v] & FINAL_TAG != 0 && s < n && labels[s] == labels[v],
                "label of vertex {v} names no self-labeled representative"
            );
            if v + 1 == r.end || rep(labels[v + 1]) != s {
                sizes[s].fetch_add((v + 1 - run_start) as u32, Relaxed);
                run_start = v + 1;
            }
        }
    });
    sizes
}

/// Dense component ids of a kernel labeling: `(comp_of, sizes)`, components
/// numbered **by first appearance** (ascending smallest member, as
/// [`normalize_labels`](crate::verify::normalize_labels) numbers them).
/// Parallel and hash-free; panics unless `labels` satisfies the
/// [representative invariant](self), as every `SccResult::labels` does.
pub fn dense_components(labels: &[u64]) -> (Vec<u32>, Vec<usize>) {
    let n = labels.len();
    let sizes = sizes_by_representative(labels);
    // One slot per representative: first the smallest member of its
    // component, then — once those are ranked — the component's id. Every
    // phase is its own fork-join region, so Relaxed accesses suffice.
    let slots: Vec<AtomicU32> = tabulate(n, |_| AtomicU32::new(u32::MAX));
    let slot = |v: usize| &slots[rep(labels[v])];
    par_for(n, |v| {
        atomic_min_u32(slot(v), v as u32);
    });
    let firsts = pack_index(n, |v| slot(v).load(Relaxed) == v as u32);
    par_for(firsts.len(), |c| slot(firsts[c]).store(c as u32, Relaxed));
    let comp_of = tabulate(n, |v| slot(v).load(Relaxed));
    let size_of = |c: usize| sizes[rep(labels[firsts[c]])].load(Relaxed) as usize;
    (comp_of, tabulate(firsts.len(), size_of))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::normalize_labels;

    fn tagged(reps: &[u64]) -> Vec<u64> {
        reps.iter().map(|&s| FINAL_TAG | s).collect()
    }

    #[test]
    fn dense_ids_follow_first_appearance() {
        // Components {0, 3} (rep 3), {1} (rep 1), {2, 4} (rep 2).
        let labels = tagged(&[3, 1, 2, 3, 2]);
        let (comp_of, sizes) = dense_components(&labels);
        assert_eq!(comp_of, normalize_labels(&labels));
        assert_eq!(comp_of, vec![0, 1, 2, 0, 2]);
        assert_eq!(sizes, vec![2, 1, 2]);
    }

    #[test]
    fn empty_labeling() {
        assert_eq!(dense_components(&[]), (Vec::new(), Vec::new()));
    }

    #[test]
    #[should_panic(expected = "self-labeled representative")]
    fn a_representative_that_labels_something_else_is_rejected() {
        // Vertex 0 names 1, but 1 names 2.
        let _ = dense_components(&tagged(&[1, 2, 2]));
    }

    #[test]
    #[should_panic(expected = "self-labeled representative")]
    fn an_unfinished_signature_label_is_rejected() {
        let _ = dense_components(&[0, FINAL_TAG | 1]);
    }
}
