//! Parallel random permutations.
//!
//! The BGSS SCC / LE-list algorithms (Alg. 1 and Alg. 5) first randomly
//! permute the vertex set and then process exponentially growing prefixes.
//! We generate a permutation by sorting indices by a keyed hash — a
//! parallel, deterministic equivalent of a Fisher–Yates shuffle.

use crate::rng::hash64;

/// Returns a pseudo-random permutation of `0..n` determined by `seed`.
pub fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    assert!(n <= u32::MAX as usize, "vertex ids are u32");
    random_permutation_of(0..n as u32, seed)
}

/// The distinct `ids` in the order [`random_permutation`] lists them for
/// the same `seed`: an id's key does not depend on which others are
/// present, so permuting a subset keeps its members' relative order.
pub fn random_permutation_of(ids: impl IntoIterator<Item = u32>, seed: u64) -> Vec<u32> {
    // One word per id: the top half of its keyed hash, then the id itself,
    // which breaks ties and is what is left once the word is sorted.
    let mut keyed: Vec<u64> = ids
        .into_iter()
        .map(|i| {
            let key = hash64(seed ^ ((i as u64) << 1 | 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            key & !(u32::MAX as u64) | i as u64
        })
        .collect();
    crate::sort::par_sort_unstable(&mut keyed[..]);
    keyed.into_iter().map(|word| word as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_a_permutation() {
        let p = random_permutation(10_000, 1);
        let mut seen = vec![false; 10_000];
        for &x in &p {
            assert!(!seen[x as usize]);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn deterministic_for_seed() {
        assert_eq!(random_permutation(1000, 7), random_permutation(1000, 7));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(random_permutation(1000, 1), random_permutation(1000, 2));
    }

    #[test]
    fn not_identity_for_nontrivial_n() {
        let p = random_permutation(1000, 3);
        let identity: Vec<u32> = (0..1000).collect();
        assert_ne!(p, identity);
    }

    #[test]
    fn a_subset_keeps_the_order_of_the_whole() {
        let whole = random_permutation(5000, 9);
        let thirds: Vec<u32> = whole.iter().copied().filter(|i| i % 3 == 0).collect();
        assert_eq!(random_permutation_of((0..5000).step_by(3), 9), thirds);
        assert!(random_permutation_of([], 9).is_empty());
    }

    #[test]
    fn empty_and_singleton() {
        assert!(random_permutation(0, 1).is_empty());
        assert_eq!(random_permutation(1, 1), vec![0]);
    }

    #[test]
    fn permutation_is_roughly_uniform() {
        // The average displacement of elements should be ~n/3 for a uniform
        // permutation; check it is at least n/6.
        let n = 10_000usize;
        let p = random_permutation(n, 11);
        let total_disp: u64 =
            p.iter().enumerate().map(|(i, &x)| (i as i64 - x as i64).unsigned_abs()).sum();
        let avg = total_disp as f64 / n as f64;
        assert!(avg > n as f64 / 6.0, "avg displacement {avg}");
    }
}
