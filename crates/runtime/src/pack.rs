//! Parallel compaction (pack).
//!
//! `pack` gathers the elements of a slice that satisfy a predicate into a
//! dense output vector, preserving order, using the standard
//! count → scan → write scheme (JáJá 1992). This is the primitive behind
//! the hash bag's `extract_all` (§3.3) and the edge-revisit frontier
//! generation of the GBBS-like baseline. [`tabulate`] is the degenerate
//! case that keeps everything: a parallel, first-touch array fill.

use crate::parfor::par_range;
use crate::scan::scan_exclusive;

const BLOCK: usize = 4096;

/// Returns the elements `x` of `data` with `keep(&x) == true`, in order.
pub fn pack<T, F>(data: &[T], keep: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> bool + Sync,
{
    pack_map(data, |x| if keep(x) { Some(*x) } else { None })
}

/// Returns the indices `i` with `keep(i) == true`, in increasing order.
pub fn pack_index<F>(n: usize, keep: F) -> Vec<usize>
where
    F: Fn(usize) -> bool + Sync,
{
    let nblocks = n.div_ceil(BLOCK).max(1);
    let mut counts = vec![0u64; nblocks];
    {
        let counts_ptr = SyncPtr(counts.as_mut_ptr());
        let keep = &keep;
        par_range(0..nblocks, 1, &|r| {
            for b in r {
                let lo = b * BLOCK;
                let hi = (lo + BLOCK).min(n);
                let c = (lo..hi).filter(|&i| keep(i)).count() as u64;
                // SAFETY: counts has nblocks slots and each task writes
                // only its own index b < nblocks; blocks are disjoint.
                unsafe { *counts_ptr.get().add(b) = c };
            }
        });
    }
    let total = scan_exclusive(&mut counts) as usize;
    let mut out: Vec<usize> = Vec::with_capacity(total);
    {
        let out_ptr = SyncPtr(out.as_mut_ptr());
        let counts = &counts;
        let keep = &keep;
        par_range(0..nblocks, 1, &|r| {
            for b in r {
                let lo = b * BLOCK;
                let hi = (lo + BLOCK).min(n);
                let mut pos = counts[b] as usize;
                for i in lo..hi {
                    if keep(i) {
                        // SAFETY: pos walks [counts[b], counts[b+1]), the
                        // slice of `out` owned exclusively by block b; the
                        // exclusive scan sized `out` to hold every kept
                        // index, so pos < total <= capacity.
                        unsafe { *out_ptr.get().add(pos) = i };
                        pos += 1;
                    }
                }
            }
        });
    }
    // SAFETY: the block writes above initialized exactly the first
    // `total` slots (the scan's grand total), with no gaps.
    unsafe { out.set_len(total) };
    out
}

/// Map-then-pack: applies `f` to each element and keeps the `Some` results,
/// in order. The workhorse behind [`pack`].
pub fn pack_map<T, U, F>(data: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Copy + Send + Sync,
    F: Fn(&T) -> Option<U> + Sync,
{
    let n = data.len();
    let nblocks = n.div_ceil(BLOCK).max(1);
    let mut counts = vec![0u64; nblocks];
    {
        let counts_ptr = SyncPtr(counts.as_mut_ptr());
        let f = &f;
        par_range(0..nblocks, 1, &|r| {
            for b in r {
                let lo = b * BLOCK;
                let hi = (lo + BLOCK).min(n);
                let c = data[lo..hi].iter().filter(|x| f(x).is_some()).count() as u64;
                // SAFETY: counts has nblocks slots and each task writes
                // only its own index b < nblocks; blocks are disjoint.
                unsafe { *counts_ptr.get().add(b) = c };
            }
        });
    }
    let total = scan_exclusive(&mut counts) as usize;
    let mut out: Vec<U> = Vec::with_capacity(total);
    {
        let out_ptr = SyncPtr(out.as_mut_ptr());
        let counts = &counts;
        let f = &f;
        par_range(0..nblocks, 1, &|r| {
            for b in r {
                let lo = b * BLOCK;
                let hi = (lo + BLOCK).min(n);
                let mut pos = counts[b] as usize;
                for x in &data[lo..hi] {
                    if let Some(v) = f(x) {
                        // SAFETY: pos walks [counts[b], counts[b+1]), the
                        // slice of `out` owned exclusively by block b; the
                        // exclusive scan sized `out` for every Some result.
                        unsafe { *out_ptr.get().add(pos) = v };
                        pos += 1;
                    }
                }
            }
        });
    }
    // SAFETY: the block writes above initialized exactly the first
    // `total` slots (the scan's grand total), with no gaps.
    unsafe { out.set_len(total) };
    out
}

/// Builds `[f(0), f(1), …, f(n-1)]` in parallel. Each block of the vector
/// is first touched by the worker that computes it, so a large array's page
/// faults are spread over the workers instead of serialised on the caller.
pub fn tabulate<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<T> = Vec::with_capacity(n);
    {
        let out_ptr = SyncPtr(out.as_mut_ptr());
        par_range(0..n, BLOCK, &|r| {
            for i in r {
                // SAFETY: i < n <= capacity, and par_range hands every
                // index to exactly one task, so each slot is written once
                // and never read before set_len below.
                unsafe { out_ptr.get().add(i).write(f(i)) };
            }
        });
    }
    // SAFETY: the loop above initialized every slot in 0..n. (If `f`
    // panics the unwind skips this line and `out` drops with length 0.)
    unsafe { out.set_len(n) };
    out
}

struct SyncPtr<T>(*mut T);
// SAFETY: SyncPtr is a raw-pointer capability handed to disjoint-write
// parallel loops; every use site guarantees its own non-overlapping
// index range, so sharing the pointer across threads is sound.
unsafe impl<T> Sync for SyncPtr<T> {}
// SAFETY: see Sync above — the wrapped pointer targets plain memory and
// carries no thread affinity.
unsafe impl<T> Send for SyncPtr<T> {}
impl<T> SyncPtr<T> {
    #[inline(always)]
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_keeps_order() {
        let data: Vec<u32> = (0..50_000).collect();
        let evens = pack(&data, |x| x % 2 == 0);
        let expected: Vec<u32> = (0..50_000).filter(|x| x % 2 == 0).collect();
        assert_eq!(evens, expected);
    }

    #[test]
    fn pack_empty_input() {
        let data: Vec<u32> = vec![];
        assert!(pack(&data, |_| true).is_empty());
    }

    #[test]
    fn pack_none_kept() {
        let data: Vec<u32> = (0..10_000).collect();
        assert!(pack(&data, |_| false).is_empty());
    }

    #[test]
    fn pack_all_kept() {
        let data: Vec<u32> = (0..10_000).collect();
        assert_eq!(pack(&data, |_| true), data);
    }

    #[test]
    fn pack_index_matches_filter() {
        let keep = |i: usize| crate::rng::hash64(i as u64).is_multiple_of(3);
        let got = pack_index(30_000, keep);
        let expected: Vec<usize> = (0..30_000).filter(|&i| keep(i)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn pack_index_zero_len() {
        assert!(pack_index(0, |_| true).is_empty());
    }

    #[test]
    fn pack_map_transforms() {
        let data: Vec<u32> = (0..20_000).collect();
        let got = pack_map(&data, |&x| if x % 5 == 0 { Some(x * 2) } else { None });
        let expected: Vec<u32> = (0..20_000).filter(|x| x % 5 == 0).map(|x| x * 2).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn tabulate_fills_every_slot_in_order() {
        for n in [0, 1, super::BLOCK, super::BLOCK * 3 + 5] {
            let got = crate::with_threads(4, || tabulate(n, |i| (i as u64, vec![i])));
            assert_eq!(got.len(), n);
            assert!(got.iter().enumerate().all(|(i, x)| x.0 == i as u64 && x.1 == [i]));
        }
    }

    #[test]
    fn pack_block_boundary_sizes() {
        for n in [super::BLOCK - 1, super::BLOCK, super::BLOCK + 1, super::BLOCK * 2 + 17] {
            let data: Vec<u32> = (0..n as u32).collect();
            let got = pack(&data, |x| x % 7 == 0);
            let expected: Vec<u32> = (0..n as u32).filter(|x| x % 7 == 0).collect();
            assert_eq!(got, expected, "n={n}");
        }
    }
}
