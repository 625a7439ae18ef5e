//! Parallel reductions over index ranges.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::atomic::atomic_max_u64;
use crate::parfor::{par_range, par_range_with};

/// Parallel sum of `f(i)` over `0..n`: one partial sum per worker, added
/// up by the caller.
pub fn par_sum_u64<F>(n: usize, f: F) -> u64
where
    F: Fn(usize) -> u64 + Sync,
{
    par_range_with(0..n, 2048, &|| 0u64, &|acc, r| *acc += r.map(&f).sum::<u64>()).into_iter().sum()
}

/// Parallel count of indices in `0..n` satisfying `pred`.
pub fn par_count<F>(n: usize, pred: F) -> usize
where
    F: Fn(usize) -> bool + Sync,
{
    par_sum_u64(n, |i| pred(i) as u64) as usize
}

/// Parallel max of `f(i)` over `0..n`; returns `None` for an empty range.
pub fn par_max<F>(n: usize, f: F) -> Option<u64>
where
    F: Fn(usize) -> u64 + Sync,
{
    if n == 0 {
        return None;
    }
    let best = AtomicU64::new(f(0));
    par_range(0..n, 2048, &|r| {
        if let Some(local) = r.map(&f).max() {
            atomic_max_u64(&best, local);
        }
    });
    Some(best.load(Ordering::Relaxed))
}

/// Generic associative parallel reduce of `f(i)` over `0..n` with identity
/// `id` and combiner `combine`.
pub fn par_reduce<T, F, C>(n: usize, id: T, f: F, combine: C) -> T
where
    T: Copy + Send + Sync,
    F: Fn(usize) -> T + Sync,
    C: Fn(T, T) -> T + Sync,
{
    const GRAIN: usize = 2048;
    let fold = |lo: usize, hi: usize| {
        let mut acc = id;
        for i in lo..hi {
            acc = combine(acc, f(i));
        }
        acc
    };
    let width = crate::pool::region_width().min(n.div_ceil(GRAIN).max(1));
    if width <= 1 {
        return fold(0, n);
    }
    // One contiguous segment per worker; combine left-to-right, which equals
    // any tree order because `combine` is associative by contract.
    let seg = n.div_ceil(width);
    let fold = &fold;
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..width)
            .map(|w| {
                let (lo, hi) = (w * seg, ((w + 1) * seg).min(n));
                s.spawn(move || crate::pool::enter_region(|| fold(lo, hi)))
            })
            .collect();
        let mut acc = fold(0, seg.min(n));
        for h in handles {
            // analyze: allow(panic): deliberately propagates a worker panic to the caller
            acc = combine(acc, h.join().expect("reduce worker panicked"));
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_sequential() {
        let got = par_sum_u64(100_000, |i| i as u64);
        assert_eq!(got, (0..100_000u64).sum::<u64>());
    }

    #[test]
    fn sum_empty_is_zero() {
        assert_eq!(par_sum_u64(0, |_| 1), 0);
    }

    #[test]
    fn count_matches_filter() {
        let got = par_count(100_000, |i| i % 3 == 0);
        assert_eq!(got, (0..100_000).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn max_matches_sequential() {
        let f = |i: usize| crate::rng::hash64(i as u64) % 999_983;
        assert_eq!(par_max(50_000, f), (0..50_000).map(f).max());
    }

    #[test]
    fn max_empty_is_none() {
        assert_eq!(par_max(0, |i| i as u64), None);
    }

    #[test]
    fn reduce_min() {
        let f = |i: usize| crate::rng::hash64(i as u64 + 7);
        let got = par_reduce(10_000, u64::MAX, f, u64::min);
        assert_eq!(got, (0..10_000).map(f).min().unwrap());
    }

    #[test]
    fn reduce_empty_returns_identity() {
        let got = par_reduce(0, 42u64, |i| i as u64, u64::wrapping_add);
        assert_eq!(got, 42);
    }
}
