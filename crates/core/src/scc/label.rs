//! Labeling (§4.4): after each batch of reachability searches, finish the
//! vertices strongly connected to a source and refresh the signature labels
//! of everyone else — in place, one word per vertex, at the cost of the
//! pairs the searches found.
//!
//! **Finishing.** A vertex `v` is finished when some source `s` both
//! reaches and is reached by it — the pair `(v, s)` is in both direction
//! tables. Its final label is the **maximum** such source (Alg. 1 line
//! 11), identical for every member of the SCC because the set of strongly
//! connected sources is an SCC invariant: `fetch_max(FINAL_TAG | s)` on
//! the label word, once per such pair.
//!
//! **Signatures.** Alg. 1 line 12 is `L[v] ← hash(L[v], R1, R2)`. Here an
//! unfinished label *is* the fingerprint of everything that ever reached
//! the vertex: `L[v] ^= hash64(s ≪ 1 | dir) & !FINAL_TAG` for every pair
//! `(v, s)` of direction `dir`. XOR commutes, so the label depends neither
//! on the order nor on the number of workers the pairs arrive in, and a
//! vertex no search touched keeps its label for free. A source serves one
//! batch, so no term is folded in twice and two vertices share a label
//! exactly when the same sources reached them the same ways in every batch
//! so far — unless two different term sets XOR to the same 63 bits, the
//! `2⁻⁶³` bet the `hash_combine` chain this replaces made as well.
//!
//! **Two race rules.** The passes of [`label_from_multi`] share the label
//! word, and several pairs of one batch name the same vertex:
//!
//! 1. A signature term must never land on a label another pair of the
//!    *same* batch has already made final, so the forward pass XORs under
//!    a compare-and-swap that gives up on a final label. (A term landing
//!    *before* the `fetch_max` is overwritten: final labels compare above
//!    every signature.)
//! 2. A vertex is finished concurrently by each of its strongly connected
//!    sources and must end at their maximum, or its representative would
//!    not label itself. "Already finished" therefore never gates the
//!    `fetch_max`: the backward pass sets the done bits, after every
//!    `fetch_max` of the batch, and [`SccState::is_done`] keeps meaning
//!    "finished by an earlier batch".
//!
//! Each pass is its own fork-join region, so `Relaxed` accesses suffice.

use std::sync::atomic::Ordering::Relaxed;

use pscc_runtime::rng::hash64;
use pscc_runtime::{par_sum_u64, AtomicBits};
use pscc_table::{pair_source, pair_vertex, PairTable};

use crate::state::{SccState, FINAL_TAG};

/// The signature term of "source `s` reached the vertex" in one direction.
#[inline]
fn term(s: u32, forward: bool) -> u64 {
    hash64((s as u64) << 1 | forward as u64) & !FINAL_TAG
}

/// Labeling after the first-SCC single-reachability searches: `fvis`/`bvis`
/// are the forward/backward visited sets from source `s0`. Returns the
/// number of newly finished vertices.
pub fn label_from_single(state: &SccState, s0: u32, fvis: &AtomicBits, bvis: &AtomicBits) -> usize {
    par_sum_u64(state.n(), |v| {
        let (in_f, in_b) = (fvis.get(v), bvis.get(v));
        if !(in_f || in_b) || state.is_done(v as u32) {
            return 0;
        }
        if in_f && in_b {
            state.finish(v as u32, s0);
            return 1;
        }
        state.labels[v].fetch_xor(term(s0, in_f), Relaxed);
        0
    }) as usize
}

/// Labeling after a batch of multi-reachability searches with forward pair
/// table `t_out` and backward table `t_in`: one pass over each, at most two
/// random accesses per pair. Returns the number of newly finished vertices.
pub fn label_from_multi(state: &SccState, t_out: &PairTable, t_in: &PairTable) -> usize {
    let labels = &state.labels;
    // Forward pairs: finish the strongly connected ones, fold the rest
    // into the signature. A vertex counts where its label turns final.
    let newly = t_out.sum(|key| {
        let (v, s) = (pair_vertex(key), pair_source(key));
        let label = &labels[v as usize];
        if state.is_done(v) {
            0
        } else if t_in.contains(key) {
            (label.fetch_max(FINAL_TAG | s as u64, Relaxed) & FINAL_TAG == 0) as u64
        } else {
            let fold = |l: u64| (l & FINAL_TAG == 0).then_some(l ^ term(s, true));
            let _ = label.fetch_update(Relaxed, Relaxed, fold);
            0
        }
    });
    // Backward pairs: every label is now final or not for good.
    t_in.for_each(|key| {
        let v = pair_vertex(key) as usize;
        if labels[v].load(Relaxed) & FINAL_TAG == 0 {
            labels[v].fetch_xor(term(pair_source(key), false), Relaxed);
        } else {
            state.done.set(v);
        }
    });
    newly as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_runtime::rng::SplitMix64;
    use pscc_runtime::with_threads;
    use pscc_table::pack_pair;
    use std::collections::BTreeSet;

    fn tables(capacity: usize) -> (PairTable, PairTable) {
        (PairTable::with_capacity(capacity), PairTable::with_capacity(capacity))
    }

    #[test]
    fn single_labeling_finishes_intersection() {
        let state = SccState::new(5);
        let f = AtomicBits::new(5);
        let b = AtomicBits::new(5);
        // 0 reaches {0,1,2}; {0,3} reach 0; 4 is out of both searches.
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
        // 3 (backward only) and the untouched 4 differ from them and from
        // each other.
        assert_eq!(state.label(1), state.label(2));
        assert_ne!(state.label(1), state.label(3));
        assert_ne!(state.label(1), state.label(4));
        assert_ne!(state.label(3), state.label(4));
    }

    #[test]
    fn multi_labeling_uses_max_strongly_connected_source() {
        let state = SccState::new(3);
        let (t_out, t_in) = tables(64);
        // Vertex 0 strongly connected to sources 1 and 2 (and others only
        // one-directionally).
        for s in [1u32, 2] {
            t_out.insert(pack_pair(0, s));
            t_in.insert(pack_pair(0, s));
        }
        t_out.insert(pack_pair(1, 1));
        t_in.insert(pack_pair(1, 1));
        let newly = label_from_multi(&state, &t_out, &t_in);
        assert_eq!(newly, 2);
        assert_eq!(state.label(0), FINAL_TAG | 2, "max source wins");
        assert_eq!(state.label(1), FINAL_TAG | 1);
        assert!(state.is_done(0) && state.is_done(1) && !state.is_done(2));
    }

    #[test]
    fn multi_labeling_signatures_distinguish_reach_sets() {
        let state = SccState::new(4);
        let (t_out, t_in) = tables(64);
        // v1 and v2 reached by source 5 forward; v3 backward only.
        t_out.insert(pack_pair(1, 5));
        t_out.insert(pack_pair(2, 5));
        t_in.insert(pack_pair(3, 5));
        let newly = label_from_multi(&state, &t_out, &t_in);
        assert_eq!(newly, 0);
        assert_eq!(state.label(1), state.label(2));
        assert_ne!(state.label(1), state.label(3));
        // Untouched vertex 0 differs from all touched ones.
        assert_ne!(state.label(0), state.label(1));
        assert_ne!(state.label(0), state.label(3));
    }

    #[test]
    fn labeling_skips_done_vertices() {
        let state = SccState::new(2);
        state.finish(0, 0);
        let (t_out, t_in) = tables(8);
        t_out.insert(pack_pair(0, 1));
        t_in.insert(pack_pair(0, 1));
        let newly = label_from_multi(&state, &t_out, &t_in);
        assert_eq!(newly, 0);
        assert_eq!(state.label(0), FINAL_TAG, "done label untouched");
    }

    #[test]
    fn signature_accumulation_is_order_independent() {
        // Two runs inserting pairs in different orders must agree.
        let mk = |order: &[(u32, u32)]| {
            let state = SccState::new(2);
            let (t_out, t_in) = tables(64);
            for &(v, s) in order {
                t_out.insert(pack_pair(v, s));
            }
            label_from_multi(&state, &t_out, &t_in);
            state.label(0)
        };
        let a = mk(&[(0, 1), (0, 2), (0, 3)]);
        let b = mk(&[(0, 3), (0, 1), (0, 2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn multi_labeling_refines_exactly_by_reach_sets() {
        // The oracle: a vertex is finished iff some source is in both of
        // its sets, at the largest such source; two unfinished vertices
        // share a label afterwards iff they shared one before and have
        // equal forward and equal backward source sets.
        const N: usize = 64;
        let pool = [0u64, 0x1234_5678, 0x0fed_cba9_8765_4321];
        let mut rng = SplitMix64::new(20);
        for _ in 0..200 {
            let state = SccState::new(N);
            let prior: Vec<u64> = (0..N).map(|_| pool[rng.next_below(3) as usize]).collect();
            for (label, &l) in state.labels.iter().zip(&prior) {
                label.store(l, Relaxed);
            }
            let (t_out, t_in) = tables(1024);
            let mut sets = vec![(BTreeSet::new(), BTreeSet::new()); N];
            for _ in 0..rng.next_below(300) {
                let (v, s) = (rng.next_below(N as u64) as u32, rng.next_below(8) as u32);
                if rng.next_bool(0.5) {
                    t_out.insert(pack_pair(v, s));
                    sets[v as usize].0.insert(s);
                } else {
                    t_in.insert(pack_pair(v, s));
                    sets[v as usize].1.insert(s);
                }
            }
            let newly = label_from_multi(&state, &t_out, &t_in);
            let winner = |v: usize| sets[v].0.intersection(&sets[v].1).max().copied();
            assert_eq!(newly, (0..N).filter(|&v| winner(v).is_some()).count());
            for v in 0..N {
                match winner(v) {
                    Some(s) => {
                        assert_eq!(state.label(v as u32), FINAL_TAG | s as u64);
                        assert!(state.is_done(v as u32));
                    }
                    None => assert!(!state.is_done(v as u32)),
                }
                for u in (0..v).filter(|&u| winner(u).is_none() && winner(v).is_none()) {
                    assert_eq!(
                        state.label(u as u32) == state.label(v as u32),
                        prior[u] == prior[v] && sets[u] == sets[v],
                        "vertices {u} and {v}: prior {:x}/{:x}, sets {:?} / {:?}",
                        prior[u],
                        prior[v],
                        sets[u],
                        sets[v]
                    );
                }
            }
        }
    }

    #[test]
    fn max_source_wins_under_contention() {
        // Vertex 0 is strongly connected to 4096 sources and reached
        // forward-only by 4096 more: whichever order the pairs are visited
        // in, no signature term may land on the final label, the maximum
        // strongly connected source must win and the vertex count once.
        const K: u32 = 4096;
        for width in [1, 2, 8] {
            let state = SccState::new(2 * K as usize + 1);
            let (t_out, t_in) = tables(4 * K as usize);
            for s in 1..=K {
                t_out.insert(pack_pair(0, s));
                t_in.insert(pack_pair(0, s));
                t_out.insert(pack_pair(0, K + s));
            }
            let newly = with_threads(width, || label_from_multi(&state, &t_out, &t_in));
            assert_eq!(newly, 1, "width {width}");
            assert_eq!(state.label(0), FINAL_TAG | K as u64, "width {width}");
            assert!(state.is_done(0), "width {width}");
        }
    }
}
