//! Labeling (§4.4): after each batch of reachability searches, finish the
//! vertices strongly connected to a source and refresh the signature labels
//! of everyone else.
//!
//! A vertex `v` is finished when some source `s` both reaches and is
//! reached by it — i.e. the pair `(v, s)` appears in both direction tables.
//! Its final label is the **maximum** such source (Alg. 1 line 11), which
//! is identical for every member of the SCC because the set of strongly
//! connected sources is an SCC invariant.
//!
//! Unfinished vertices get `L[v] ← hash(L[v], R1, R2)` (line 12), realized
//! as a commutative XOR accumulation of per-source hashes (so the parallel
//! accumulation order does not matter) folded into the previous label.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use pscc_runtime::rng::{hash64, hash_combine};
use pscc_runtime::{atomic_max_u32, par_sum_u64, tabulate, AtomicBits};
use pscc_table::{pair_source, pair_vertex, PairTable};

use crate::state::{SccState, FINAL_TAG};

/// Scratch arrays reused across the batches of one run by
/// [`label_from_multi`], which finds the entries of every unfinished vertex
/// zero and leaves them zero (finished vertices are never looked at again).
pub struct LabelScratch {
    fwd_sig: Vec<AtomicU64>,
    bwd_sig: Vec<AtomicU64>,
    /// `winner[v] = s + 1` for the max source `s` strongly connected to `v`
    /// this batch (0 = none).
    winner: Vec<AtomicU32>,
}

impl LabelScratch {
    /// Allocates scratch for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        Self {
            fwd_sig: tabulate(n, |_| AtomicU64::new(0)),
            bwd_sig: tabulate(n, |_| AtomicU64::new(0)),
            winner: tabulate(n, |_| AtomicU32::new(0)),
        }
    }
}

/// Labeling after the first-SCC single-reachability searches: `fvis`/`bvis`
/// are the forward/backward visited sets from source `s0`. Returns the
/// number of newly finished vertices.
pub fn label_from_single(state: &SccState, s0: u32, fvis: &AtomicBits, bvis: &AtomicBits) -> usize {
    par_sum_u64(state.n(), |v| {
        if state.is_done(v as u32) {
            return 0;
        }
        let in_f = fvis.get(v);
        let in_b = bvis.get(v);
        if in_f && in_b {
            state.finish(v as u32, s0);
            1
        } else {
            let sig = in_f as u64 | (in_b as u64) << 1;
            let old = state.labels[v].load(Ordering::Relaxed);
            state.labels[v].store(hash_combine(old, sig) & !FINAL_TAG, Ordering::Relaxed);
            0
        }
    }) as usize
}

/// Labeling after a batch of multi-reachability searches with forward pair
/// table `t_out` and backward table `t_in`. Returns the number of newly
/// finished vertices.
pub fn label_from_multi(
    state: &SccState,
    t_out: &PairTable,
    t_in: &PairTable,
    scratch: &LabelScratch,
) -> usize {
    // Forward pairs: accumulate signatures and detect strong connections.
    t_out.for_each(|key| {
        let v = pair_vertex(key) as usize;
        let s = pair_source(key);
        scratch.fwd_sig[v].fetch_xor(hash64((s as u64) << 1 | 1), Ordering::Relaxed);
        if t_in.contains(key) {
            atomic_max_u32(&scratch.winner[v], s + 1);
        }
    });
    // Backward pairs: signature only.
    t_in.for_each(|key| {
        let v = pair_vertex(key) as usize;
        let s = pair_source(key);
        scratch.bwd_sig[v].fetch_xor(hash64((s as u64) << 1), Ordering::Relaxed);
    });

    // One pass reads each unfinished vertex's scratch, zeroes what the
    // batch wrote there, and counts the vertices it finishes.
    par_sum_u64(state.n(), |v| {
        if state.is_done(v as u32) {
            return 0;
        }
        let w = scratch.winner[v].load(Ordering::Relaxed);
        let f = scratch.fwd_sig[v].load(Ordering::Relaxed);
        let b = scratch.bwd_sig[v].load(Ordering::Relaxed);
        if w != 0 || f != 0 || b != 0 {
            scratch.winner[v].store(0, Ordering::Relaxed);
            scratch.fwd_sig[v].store(0, Ordering::Relaxed);
            scratch.bwd_sig[v].store(0, Ordering::Relaxed);
        }
        if w > 0 {
            state.finish(v as u32, w - 1);
            1
        } else {
            let old = state.labels[v].load(Ordering::Relaxed);
            let new = hash_combine(hash_combine(old, f), b) & !FINAL_TAG;
            state.labels[v].store(new, Ordering::Relaxed);
            0
        }
    }) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_table::pack_pair;

    #[test]
    fn single_labeling_finishes_intersection() {
        let state = SccState::new(4);
        let f = AtomicBits::new(4);
        let b = AtomicBits::new(4);
        // 0 reaches {0,1,2}; {0,3} reach 0.
        f.set(0);
        f.set(1);
        f.set(2);
        b.set(0);
        b.set(3);
        let newly = label_from_single(&state, 0, &f, &b);
        assert_eq!(newly, 1);
        assert!(state.is_done(0));
        assert_eq!(state.label(0), FINAL_TAG);
        // 1 and 2 share a signature (forward only) => same label;
        // 3 (backward only) differs.
        assert_eq!(state.label(1), state.label(2));
        assert_ne!(state.label(1), state.label(3));
    }

    #[test]
    fn multi_labeling_uses_max_strongly_connected_source() {
        let state = SccState::new(3);
        let scratch = LabelScratch::new(3);
        let t_out = PairTable::with_capacity(64);
        let t_in = PairTable::with_capacity(64);
        // Vertex 0 strongly connected to sources 1 and 2 (and others only
        // one-directionally).
        for s in [1u32, 2] {
            t_out.insert(pack_pair(0, s));
            t_in.insert(pack_pair(0, s));
        }
        t_out.insert(pack_pair(1, 1));
        t_in.insert(pack_pair(1, 1));
        let newly = label_from_multi(&state, &t_out, &t_in, &scratch);
        assert_eq!(newly, 2);
        assert_eq!(state.label(0), FINAL_TAG | 2, "max source wins");
        assert_eq!(state.label(1), FINAL_TAG | 1);
    }

    #[test]
    fn multi_labeling_signatures_distinguish_reach_sets() {
        let state = SccState::new(4);
        let scratch = LabelScratch::new(4);
        let t_out = PairTable::with_capacity(64);
        let t_in = PairTable::with_capacity(64);
        // v1 and v2 reached by source 5 forward; v3 backward only.
        t_out.insert(pack_pair(1, 5));
        t_out.insert(pack_pair(2, 5));
        t_in.insert(pack_pair(3, 5));
        let newly = label_from_multi(&state, &t_out, &t_in, &scratch);
        assert_eq!(newly, 0);
        assert_eq!(state.label(1), state.label(2));
        assert_ne!(state.label(1), state.label(3));
        // Untouched vertex 0 differs from all touched ones.
        assert_ne!(state.label(0), state.label(1));
        assert_ne!(state.label(0), state.label(3));
    }

    #[test]
    fn scratch_is_left_clean_for_the_next_batch() {
        // Batch 1 leaves a forward-only signature on vertex 1 and finishes
        // vertex 0; batch 2, with empty tables on the same scratch, must
        // relabel 1 and the untouched 2 by the same rule (they were equal
        // before, so they stay equal) and finish nothing.
        let state = SccState::new(3);
        let scratch = LabelScratch::new(3);
        let (t_out, t_in) = (PairTable::with_capacity(8), PairTable::with_capacity(8));
        t_out.insert(pack_pair(0, 0));
        t_in.insert(pack_pair(0, 0));
        t_out.insert(pack_pair(1, 0));
        assert_eq!(label_from_multi(&state, &t_out, &t_in, &scratch), 1);
        assert_ne!(state.label(1), state.label(2));
        state.labels[1].store(state.label(2), Ordering::Relaxed);
        t_out.clear();
        t_in.clear();
        assert_eq!(label_from_multi(&state, &t_out, &t_in, &scratch), 0);
        assert_eq!(state.label(1), state.label(2), "stale signature from batch 1");
    }

    #[test]
    fn labeling_skips_done_vertices() {
        let state = SccState::new(2);
        state.finish(0, 0);
        let scratch = LabelScratch::new(2);
        let t_out = PairTable::with_capacity(8);
        let t_in = PairTable::with_capacity(8);
        t_out.insert(pack_pair(0, 1));
        t_in.insert(pack_pair(0, 1));
        let newly = label_from_multi(&state, &t_out, &t_in, &scratch);
        assert_eq!(newly, 0);
        assert_eq!(state.label(0), FINAL_TAG, "done label untouched");
    }

    #[test]
    fn signature_accumulation_is_order_independent() {
        // Two scratch runs inserting pairs in different orders must agree.
        let mk = |order: &[(u32, u32)]| {
            let state = SccState::new(2);
            let scratch = LabelScratch::new(2);
            let t_out = PairTable::with_capacity(64);
            let t_in = PairTable::with_capacity(64);
            for &(v, s) in order {
                t_out.insert(pack_pair(v, s));
            }
            label_from_multi(&state, &t_out, &t_in, &scratch);
            state.label(0)
        };
        let a = mk(&[(0, 1), (0, 2), (0, 3)]);
        let b = mk(&[(0, 3), (0, 1), (0, 2)]);
        assert_eq!(a, b);
    }
}
