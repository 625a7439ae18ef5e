//! Shared per-vertex SCC state: labels and done flags.
//!
//! Labels play two roles (Alg. 1):
//!
//! 1. For a *finished* vertex, the label is the final SCC id — a vertex id
//!    tagged with [`FINAL_TAG`] so it can never collide with a signature.
//! 2. For an *unfinished* vertex, the label is the fingerprint of its
//!    reachability **signature**: the XOR of one hashed term per `(source,
//!    direction)` that ever reached it ([`scc::label`](crate::scc::label)).
//!    Two vertices in the same SCC always share the signature, hence the
//!    label; an edge whose endpoints have different labels is a *cross
//!    edge* and is skipped in later searches (§4.4).

use std::sync::atomic::{AtomicU64, Ordering};

use pscc_runtime::{tabulate, AtomicBits};

/// High bit tagging a final SCC label. Signature labels always have it
/// clear, final labels always have it set.
pub const FINAL_TAG: u64 = 1 << 63;

/// The initial signature label shared by every vertex.
pub const INIT_LABEL: u64 = 0;

/// Mutable per-vertex state of an SCC computation.
pub struct SccState {
    /// Per-vertex label (signature hash or tagged final SCC id).
    pub labels: Vec<AtomicU64>,
    /// Finished flags.
    pub done: AtomicBits,
}

impl SccState {
    /// Fresh state for an `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        Self { labels: tabulate(n, |_| AtomicU64::new(INIT_LABEL)), done: AtomicBits::new(n) }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.labels.len()
    }

    /// Loads vertex `v`'s label.
    #[inline]
    pub fn label(&self, v: u32) -> u64 {
        self.labels[v as usize].load(Ordering::Relaxed)
    }

    /// Marks `v` finished with final SCC representative `rep`.
    #[inline]
    pub fn finish(&self, v: u32, rep: u32) {
        self.labels[v as usize].store(FINAL_TAG | rep as u64, Ordering::Relaxed);
        self.done.set(v as usize);
    }

    /// [`finish`](Self::finish) for a vertex several threads may try to
    /// finish at once: exactly one call wins the done bit, labels `v` and
    /// returns `true`.
    #[inline]
    pub fn try_finish(&self, v: u32, rep: u32) -> bool {
        let won = self.done.test_and_set(v as usize);
        if won {
            self.labels[v as usize].store(FINAL_TAG | rep as u64, Ordering::Relaxed);
        }
        won
    }

    /// True if `v` has its final SCC label.
    #[inline]
    pub fn is_done(&self, v: u32) -> bool {
        self.done.get(v as usize)
    }

    /// Number of unfinished vertices (parallel).
    pub fn unfinished(&self) -> usize {
        self.n() - self.done.count_ones()
    }

    /// The labels, consuming the state: the array the run worked on, not a
    /// copy (`AtomicU64` and `u64` share a layout: the collect is in place).
    pub fn into_labels(self) -> Vec<u64> {
        self.labels.into_iter().map(AtomicU64::into_inner).collect()
    }

    /// Asserts every vertex is finished (debug builds only).
    pub fn debug_assert_all_done(&self) {
        debug_assert_eq!(self.done.count_ones(), self.n(), "unfinished vertices remain");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_is_unfinished() {
        let s = SccState::new(10);
        assert_eq!(s.unfinished(), 10);
        assert!(!s.is_done(3));
        assert_eq!(s.label(3), INIT_LABEL);
    }

    #[test]
    fn finish_tags_label() {
        let s = SccState::new(4);
        s.finish(2, 7);
        assert!(s.is_done(2));
        assert_eq!(s.label(2), FINAL_TAG | 7);
        assert_eq!(s.unfinished(), 3);
    }

    #[test]
    fn try_finish_wins_once() {
        let s = SccState::new(4);
        assert!(s.try_finish(1, 1));
        assert!(!s.try_finish(1, 3), "already finished");
        assert_eq!(s.label(1), FINAL_TAG | 1);
        s.finish(2, 0);
        assert!(!s.try_finish(2, 2));
        assert_eq!(s.label(2), FINAL_TAG);
    }

    #[test]
    fn final_labels_never_collide_with_signatures() {
        // Signature updates mask out FINAL_TAG; check the invariant holds.
        let sig = pscc_runtime::rng::hash_combine(123, 456) & !FINAL_TAG;
        assert_eq!(sig & FINAL_TAG, 0);
        assert_ne!(sig, FINAL_TAG);
    }

    #[test]
    fn into_labels_hands_over_the_label_array() {
        let s = SccState::new(5);
        s.finish(0, 0);
        s.labels[3].store(42, Ordering::Relaxed);
        let array = s.labels.as_ptr() as usize;
        let labels = s.into_labels();
        assert_eq!(labels, vec![FINAL_TAG, INIT_LABEL, INIT_LABEL, 42, INIT_LABEL]);
        assert_eq!(labels.as_ptr() as usize, array, "the labels were copied");
    }
}
