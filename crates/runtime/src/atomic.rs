//! Atomic helpers: CAS-loop max/min and a concurrent bit vector.
//!
//! The paper's computational model (§2) assumes a unit-cost
//! `compare_and_swap`; everything here is built from that primitive.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::parfor::par_range;

/// Atomically sets `a = max(a, v)`. Returns `true` if `a` was updated.
#[inline]
pub fn atomic_max_u64(a: &AtomicU64, v: u64) -> bool {
    let mut cur = a.load(Ordering::Relaxed);
    while v > cur {
        match a.compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
    false
}

/// Atomically sets `a = max(a, v)`. Returns `true` if `a` was updated.
#[inline]
pub fn atomic_max_u32(a: &AtomicU32, v: u32) -> bool {
    let mut cur = a.load(Ordering::Relaxed);
    while v > cur {
        match a.compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
    false
}

/// Atomically sets `a = min(a, v)`. Returns `true` if `a` was updated.
#[inline]
pub fn atomic_min_u32(a: &AtomicU32, v: u32) -> bool {
    let mut cur = a.load(Ordering::Relaxed);
    while v < cur {
        match a.compare_exchange_weak(cur, v, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
    false
}

/// A fixed-size concurrent bit vector.
///
/// This is the `visit[·]` array of Alg. 3: `test_and_set` is the
/// `compare_and_swap(&visit[u], false, true)` idiom that ensures each vertex
/// enters a frontier exactly once.
pub struct AtomicBits {
    words: Box<[AtomicU64]>,
    len: usize,
}

impl AtomicBits {
    /// Creates a bit vector of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        let nwords = len.div_ceil(64);
        let words = (0..nwords).map(|_| AtomicU64::new(0)).collect();
        Self { words, len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = self.words[i >> 6].load(Ordering::Relaxed);
        (w >> (i & 63)) & 1 != 0
    }

    /// Sets bit `i` (idempotent).
    #[inline]
    pub fn set(&self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6].fetch_or(1 << (i & 63), Ordering::Relaxed);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6].fetch_and(!(1 << (i & 63)), Ordering::Relaxed);
    }

    /// Atomically sets bit `i`; returns `true` iff this call flipped it from
    /// clear to set (i.e. the caller "won" the vertex).
    #[inline]
    pub fn test_and_set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i & 63);
        let prev = self.words[i >> 6].fetch_or(mask, Ordering::Relaxed);
        prev & mask == 0
    }

    /// Clears every bit (parallel).
    pub fn clear_all(&self) {
        par_range(0..self.words.len(), 4096, &|r| {
            for w in &self.words[r] {
                w.store(0, Ordering::Relaxed);
            }
        });
    }

    /// Number of set bits (parallel).
    pub fn count_ones(&self) -> usize {
        use std::sync::atomic::AtomicUsize;
        let total = AtomicUsize::new(0);
        par_range(0..self.words.len(), 4096, &|r| {
            let s: usize =
                self.words[r].iter().map(|w| w.load(Ordering::Relaxed).count_ones() as usize).sum();
            total.fetch_add(s, Ordering::Relaxed);
        });
        total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parfor::par_for;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn max_u64_updates_monotonically() {
        let a = AtomicU64::new(5);
        assert!(atomic_max_u64(&a, 10));
        assert!(!atomic_max_u64(&a, 7));
        assert_eq!(a.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn max_u64_equal_value_is_not_update() {
        let a = AtomicU64::new(10);
        assert!(!atomic_max_u64(&a, 10));
    }

    #[test]
    fn min_u32_updates_monotonically() {
        let a = AtomicU32::new(100);
        assert!(atomic_min_u32(&a, 50));
        assert!(!atomic_min_u32(&a, 60));
        assert_eq!(a.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn concurrent_max_finds_global_max() {
        let a = AtomicU64::new(0);
        par_for(100_000, |i| {
            atomic_max_u64(&a, crate::rng::hash64(i as u64) % 1_000_000);
        });
        let expected = (0..100_000u64).map(|i| crate::rng::hash64(i) % 1_000_000).max().unwrap();
        assert_eq!(a.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn bits_set_get_clear() {
        let bits = AtomicBits::new(130);
        assert!(!bits.get(129));
        bits.set(129);
        assert!(bits.get(129));
        bits.clear(129);
        assert!(!bits.get(129));
    }

    #[test]
    fn bits_test_and_set_wins_once() {
        let bits = AtomicBits::new(1000);
        let wins = AtomicUsize::new(0);
        par_for(10_000, |i| {
            if bits.test_and_set(i % 1000) {
                wins.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1000);
        assert_eq!(bits.count_ones(), 1000);
    }

    #[test]
    fn bits_clear_all_resets() {
        let bits = AtomicBits::new(500);
        for i in 0..500 {
            bits.set(i);
        }
        assert_eq!(bits.count_ones(), 500);
        bits.clear_all();
        assert_eq!(bits.count_ones(), 0);
    }

    #[test]
    fn bits_word_boundaries() {
        let bits = AtomicBits::new(64);
        bits.set(63);
        assert!(bits.get(63));
        assert_eq!(bits.count_ones(), 1);
    }

    #[test]
    fn bits_empty() {
        let bits = AtomicBits::new(0);
        assert!(bits.is_empty());
        assert_eq!(bits.count_ones(), 0);
    }
}
