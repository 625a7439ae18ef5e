//! Blocked parallel for-loops with explicit granularity control.
//!
//! These are the "horizontal granularity control" primitives of §3.1: the
//! index range is cut into blocks of at most `grain` indices, and scoped
//! worker threads claim blocks from a shared atomic cursor until the range
//! is exhausted. Dynamic claiming gives the same load balance as the
//! classic divide-and-conquer fork-join without requiring a work-stealing
//! runtime; nested parallel calls inside a block run sequentially.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::pool;

/// Default sequential base-case size. The paper notes (§3.2) that a base
/// case of around a thousand operations is enough to hide scheduling
/// overhead; 1024 matches that guidance.
pub const DEFAULT_GRAIN: usize = 1024;

/// Runs `f(i)` for every `i` in `0..n` in parallel with the default grain.
pub fn par_for<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    par_range(0..n, DEFAULT_GRAIN, &|r: Range<usize>| {
        for i in r {
            f(i);
        }
    });
}

/// Runs `f` over disjoint subranges of `range` in parallel.
///
/// Each invocation of `f` receives a contiguous subrange of at most `grain`
/// indices (except that a `grain` of zero is treated as one). The union of
/// all subranges is exactly `range` and they never overlap, so `f` may
/// freely write to per-index slots of a shared structure.
pub fn par_range<F>(range: Range<usize>, grain: usize, f: &F)
where
    F: Fn(Range<usize>) + Sync,
{
    par_range_with(range, grain, &|| (), &|_, r| f(r));
}

/// [`par_range`] with per-worker state: every worker that takes part calls
/// `init` once, passes the result to each of its `f` calls, and hands it
/// back when the range is exhausted. Scratch buffers and tallies kept there
/// cost one allocation and no shared cache line per *worker*, not per
/// block. Returns the states of the workers that ran (none for an empty
/// range), in no particular order.
pub fn par_range_with<S, I, F>(range: Range<usize>, grain: usize, init: &I, f: &F) -> Vec<S>
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Range<usize>) + Sync,
{
    let grain = grain.max(1);
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return Vec::new();
    }
    let blocks = len.div_ceil(grain);
    let width = pool::region_width().min(blocks);
    let block_range = |b: usize| {
        let lo = range.start + b * grain;
        lo..(lo + grain).min(range.end)
    };
    if width <= 1 {
        let mut state = init();
        for b in 0..blocks {
            f(&mut state, block_range(b));
        }
        return vec![state];
    }
    let cursor = AtomicUsize::new(0);
    // Telemetry: workers inherit the spawning thread's trace context (so
    // spans opened inside `f` stay in the caller's causal chain) and are
    // counted in the live-worker gauge for the duration of the region.
    let telemetry_on = pscc_telemetry::enabled();
    let ctx = if telemetry_on { pscc_telemetry::current_context() } else { None };
    let work = || {
        let _active = telemetry_on.then(|| active_workers_gauge().inc_scoped());
        pscc_telemetry::with_context(ctx, || {
            pool::enter_region(|| {
                let mut state = init();
                loop {
                    let b = cursor.fetch_add(1, Ordering::Relaxed);
                    if b >= blocks {
                        break state;
                    }
                    f(&mut state, block_range(b));
                }
            })
        })
    };
    std::thread::scope(|s| {
        let spawned: Vec<_> = (1..width).map(|_| s.spawn(work)).collect();
        let mut states = Vec::with_capacity(width);
        states.push(work());
        for handle in spawned {
            match handle.join() {
                Ok(state) => states.push(state),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        states
    })
}

/// Cached handle for the `pscc_pool_active_workers` gauge (the registry
/// lookup takes a lock, so hot loops must not resolve the name per call).
fn active_workers_gauge() -> &'static std::sync::Arc<pscc_telemetry::Gauge> {
    static GAUGE: std::sync::OnceLock<std::sync::Arc<pscc_telemetry::Gauge>> =
        std::sync::OnceLock::new();
    GAUGE.get_or_init(|| pscc_telemetry::gauge("pscc_pool_active_workers"))
}

/// Runs `f(i)` for every `i` in `0..n` in parallel with a custom grain.
pub fn par_for_grain<F>(n: usize, grain: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    par_range(0..n, grain, &|r: Range<usize>| {
        for i in r {
            f(i);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn par_for_touches_every_index_exactly_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_empty_range_is_noop() {
        let count = AtomicUsize::new(0);
        par_for(0, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn par_range_subranges_partition_the_input() {
        let total = AtomicU64::new(0);
        let calls = AtomicUsize::new(0);
        par_range(7..10_007, 64, &|r| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert!(r.end - r.start <= 64);
            total.fetch_add(r.map(|i| i as u64).sum::<u64>(), Ordering::Relaxed);
        });
        let expected: u64 = (7u64..10_007).sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
        assert!(calls.load(Ordering::Relaxed) >= (10_000 / 64));
    }

    #[test]
    fn par_range_with_hands_each_worker_one_state() {
        for width in [1, 2, 8] {
            let inits = AtomicUsize::new(0);
            let states = crate::with_threads(width, || {
                par_range_with(
                    3..10_003,
                    16,
                    &|| {
                        inits.fetch_add(1, Ordering::Relaxed);
                        (0u64, 0usize)
                    },
                    &|(sum, blocks), r| {
                        *sum += r.map(|i| i as u64).sum::<u64>();
                        *blocks += 1;
                    },
                )
            });
            assert_eq!(states.len(), inits.load(Ordering::Relaxed), "width {width}");
            assert!((1..=width).contains(&states.len()), "width {width}");
            assert_eq!(states.iter().map(|s| s.0).sum::<u64>(), (3u64..10_003).sum::<u64>());
            assert_eq!(states.iter().map(|s| s.1).sum::<usize>(), 10_000usize.div_ceil(16));
        }
        let none = par_range_with(5..5, 1, &|| 1u8, &|_, _| ());
        assert!(none.is_empty(), "an empty range starts no worker");
    }

    #[test]
    fn par_range_with_propagates_a_worker_panic() {
        let caught = std::panic::catch_unwind(|| {
            crate::with_threads(4, || {
                par_range_with(0..64, 1, &|| (), &|_, r| assert_ne!(r.start, 40, "block 40"))
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn par_range_grain_zero_behaves_like_grain_one() {
        let count = AtomicUsize::new(0);
        par_range(0..17, 0, &|r| {
            assert_eq!(r.end - r.start, 1);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 17);
    }

    #[test]
    fn par_for_grain_respects_large_grain() {
        // With grain >= n the loop must degrade to a single sequential call.
        let n = 100;
        let sum = AtomicU64::new(0);
        par_for_grain(n, n * 2, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..n as u64).sum::<u64>());
    }
}
