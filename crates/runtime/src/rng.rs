//! Deterministic pseudo-random utilities.
//!
//! The algorithms in this workspace need cheap, branch-free randomness in
//! hot loops (hash-bag slot selection, sampling decisions) and reproducible
//! randomness in setup code (vertex permutations, generators). Both are
//! served by the SplitMix64 stream and the `hash64` finalizer, which is the
//! standard murmur-style 64-bit bit-mixer: a bijective function with good
//! avalanche behaviour, so distinct inputs give effectively independent
//! outputs.

/// A 64-bit bit-mixing hash (splitmix64 finalizer). Bijective on `u64`.
#[inline(always)]
pub fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Combines two 64-bit values into one hash. Used for the partition labels
/// of the FW-BW baseline.
#[inline(always)]
pub fn hash_combine(a: u64, b: u64) -> u64 {
    hash64(a ^ b.rotate_left(31).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Deterministic splittable PRNG (SplitMix64).
///
/// Cheap enough for hot loops and fully reproducible from its seed. `split`
/// derives an independent stream, which lets parallel tasks own disjoint
/// generators without synchronization.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: hash64(seed ^ 0x5851_f42d_4c95_7f2d) }
    }

    /// Next 64 random bits.
    #[inline(always)]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        hash64(self.state)
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    #[inline(always)]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift trick (Lemire); bias is negligible for our uses.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline(always)]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline(always)]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Derives an independent generator; `self` advances.
    pub fn split(&mut self) -> Self {
        Self::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hash64_is_injective_on_small_domain() {
        let outputs: HashSet<u64> = (0u64..100_000).map(hash64).collect();
        assert_eq!(outputs.len(), 100_000);
    }

    #[test]
    fn hash64_differs_from_identity() {
        assert_ne!(hash64(0), 0);
        assert_ne!(hash64(1), 1);
    }

    #[test]
    fn hash_combine_is_order_sensitive() {
        assert_ne!(hash_combine(1, 2), hash_combine(2, 1));
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_streams_differ_by_seed() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(rng.next_below(10) < 10);
        }
    }

    #[test]
    fn next_below_covers_all_residues() {
        let mut rng = SplitMix64::new(9);
        let seen: HashSet<u64> = (0..1_000).map(|_| rng.next_below(8)).collect();
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bernoulli_rate_is_roughly_p() {
        let mut rng = SplitMix64::new(11);
        let hits = (0..100_000).filter(|_| rng.next_bool(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn split_produces_independent_stream() {
        let mut parent = SplitMix64::new(5);
        let mut child = parent.split();
        // The two streams should not be identical over a window.
        let same = (0..64).filter(|_| parent.next_u64() == child.next_u64()).count();
        assert!(same < 4);
    }
}
