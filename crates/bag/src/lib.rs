//! # pscc-bag — the parallel hash bag (§3.3 of the paper)
//!
//! An unordered concurrent set ("bag") supporting
//!
//! * [`HashBag::insert`] — concurrent, lock-free; callers guarantee no
//!   duplicates (the SCC/CC/LE-list frontiers do this with a CAS on a
//!   per-vertex visited flag before inserting, Alg. 3 line 9);
//! * [`HashBag::extract_all`] — pack all elements into a vector and clear;
//! * [`HashBag::for_all`] — apply a function to all elements in parallel.
//!
//! The structure is a single pre-allocated flat array split into chunks of
//! exponentially growing sizes λ, 2λ, 4λ, …. Insertions go to a uniformly
//! random slot of the *current* chunk with linear probing; "resizing" is a
//! single CAS advancing the current-chunk cursor — **no copying ever
//! happens**. A sampling scheme (rate σ∕(α·chunk) per insert) detects when
//! the chunk's load factor passes α and triggers the advance. `extract_all`
//! and `for_all` touch only the used prefix, so their cost is proportional
//! to the number of elements plus λ (Theorem 3.1).
//!
//! ## Ownership and sharing
//!
//! The array is allocated (and first touched, in parallel) once and then
//! reused: `extract_all` leaves the bag empty at a cost of the prefix it
//! used, so a bag belongs to a whole *run* — one SCC computation, one
//! LE-lists computation — not to one search or one round of it.
//! [`HashBag::reserve`] re-allocates only when the run outgrows it. Slots
//! are `AtomicU64` whatever `T` is, so a `HashBag<u64>` also serves a
//! frontier of vertex ids ([`HashBag::extract_map`] narrows them on the
//! way out). Between workers, `insert` shares the slots, the chunk cursor
//! (read-mostly) and the sample counters (touched once per `α·chunk∕σ`
//! inserts) — nothing is written per element except the element's slot.

pub mod config;
pub mod item;

pub use config::BagConfig;
pub use item::BagItem;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use pscc_runtime::{hash64, pack_map, par_range, tabulate};

/// The parallel hash bag. See the crate docs for the design.
pub struct HashBag<T: BagItem> {
    /// Flat element storage; `T::EMPTY_BITS` marks free slots.
    slots: Box<[AtomicU64]>,
    /// `tails[i]` = end index (exclusive) of chunk `i`.
    tails: Box<[usize]>,
    /// Per-chunk sample counters.
    samples: Box<[AtomicUsize]>,
    /// Current chunk id.
    cur: AtomicUsize,
    /// Per-chunk sampling denominators: an insert into chunk `i` is sampled
    /// when `hash(x) % denom[i] == 0`, with `denom[i] ≈ α·size_i∕σ`.
    denoms: Box<[u64]>,
    /// A salt decorrelating slot choice and sampling across bags.
    salt: u64,
    /// The `max_elems` this bag was sized for.
    max_elems: usize,
    cfg: BagConfig,
    _marker: std::marker::PhantomData<T>,
}

impl<T: BagItem> HashBag<T> {
    /// Creates a bag that can hold up to `max_elems` elements (e.g. `n`
    /// when maintaining a frontier of vertices) with default parameters.
    pub fn new(max_elems: usize) -> Self {
        Self::with_config(max_elems, BagConfig::default())
    }

    /// Creates a bag with explicit parameters.
    pub fn with_config(max_elems: usize, cfg: BagConfig) -> Self {
        assert!(cfg.lambda >= 2 && cfg.sigma >= 1 && cfg.alpha > 0.0 && cfg.alpha < 1.0);
        // Chunks of sizes λ, 2λ, 4λ, … until the usable capacity (α of the
        // total) covers max_elems.
        let needed = ((max_elems.max(1) as f64) / cfg.alpha).ceil() as usize + cfg.lambda;
        let mut tails = Vec::new();
        let mut size = cfg.lambda;
        let mut total = 0usize;
        while total < needed {
            total += size;
            tails.push(total);
            size *= 2;
        }
        let nchunks = tails.len();
        let slots = tabulate(total, |_| AtomicU64::new(T::EMPTY_BITS)).into_boxed_slice();
        let samples: Box<[AtomicUsize]> = (0..nchunks).map(|_| AtomicUsize::new(0)).collect();
        let mut denoms = Vec::with_capacity(nchunks);
        let mut start = 0usize;
        for &end in &tails {
            let chunk = end - start;
            let denom = ((cfg.alpha * chunk as f64) / cfg.sigma as f64).ceil().max(1.0) as u64;
            denoms.push(denom);
            start = end;
        }
        Self {
            slots,
            tails: tails.into_boxed_slice(),
            samples,
            cur: AtomicUsize::new(0),
            denoms: denoms.into_boxed_slice(),
            salt: hash64(max_elems as u64 ^ 0xba6),
            max_elems,
            cfg,
            _marker: std::marker::PhantomData,
        }
    }

    /// Makes room for `max_elems` elements, keeping the allocation when it
    /// is already large enough. The bag must be empty.
    pub fn reserve(&mut self, max_elems: usize) {
        debug_assert!(self.is_empty_slow(), "reserve on a non-empty bag");
        if max_elems > self.max_elems {
            // The old slots go first, so the new ones can take their place.
            self.slots = Box::default();
            *self = Self::with_config(max_elems, self.cfg);
        }
    }

    /// Total slot capacity (all chunks).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Index of the chunk currently receiving inserts.
    pub fn current_chunk(&self) -> usize {
        self.cur.load(Ordering::Relaxed)
    }

    /// End index of the used prefix (slots that `extract_all` will touch).
    pub fn used_prefix(&self) -> usize {
        self.tails[self.cur.load(Ordering::Relaxed)]
    }

    /// The configuration in effect.
    pub fn config(&self) -> &BagConfig {
        &self.cfg
    }

    #[inline]
    fn chunk_bounds(&self, r: usize) -> (usize, usize) {
        let start = if r == 0 { 0 } else { self.tails[r - 1] };
        (start, self.tails[r])
    }

    /// Attempts to advance the current chunk from `r` to `r + 1`
    /// (Fig. 5 `try_resize`). Lock-free; losing the CAS means someone else
    /// already resized, which is equally fine.
    fn try_resize(&self, r: usize) {
        if r + 1 < self.tails.len() {
            let _ = self.cur.compare_exchange(r, r + 1, Ordering::Relaxed, Ordering::Relaxed);
        }
    }

    /// Inserts `x`. Concurrent-safe. The caller must guarantee `x` is not
    /// already in the bag (deduplicate with a visited-flag CAS first) and
    /// that the total number of elements stays within `max_elems`. (Past
    /// `max_elems` inserts get slower, not wrong: the last chunk's probe
    /// wraps over the whole array, so one terminates as long as fewer than
    /// [`HashBag::capacity`] elements are stored.)
    pub fn insert(&self, x: T) {
        debug_assert!(x.to_bits() != T::EMPTY_BITS, "cannot insert the sentinel");
        let bits = x.to_bits();
        // Per-call pseudo-randomness: elements are unique per round, so a
        // hash of the element (salted) is an adequate random source.
        let mut rnd = hash64(bits ^ self.salt);
        loop {
            let r = self.cur.load(Ordering::Relaxed);
            let (start, end) = self.chunk_bounds(r);
            let chunk = end - start;

            // Sampling: estimate chunk fill; resize when samples hit σ.
            if rnd.is_multiple_of(self.denoms[r]) {
                let s = self.samples[r].fetch_add(1, Ordering::Relaxed);
                if s >= self.cfg.sigma {
                    self.try_resize(r);
                    rnd = hash64(rnd);
                    continue;
                }
            }

            // Random slot in the current chunk, then linear probe.
            let mut i = start + (rnd >> 16) as usize % chunk;
            let mut probes = 0usize;
            loop {
                if self.slots[i]
                    .compare_exchange(T::EMPTY_BITS, bits, Ordering::Release, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
                i += 1;
                if i == end {
                    // The last chunk wraps to slot 0, not to its own start:
                    // an overfull round spills into the earlier chunks'
                    // free slots (the used prefix covers them all).
                    i = if r + 1 < self.tails.len() { start } else { 0 };
                }
                probes += 1;
                if probes > self.cfg.kappa {
                    // Chunk (locally) too dense — resize and retry, unless
                    // this is the last chunk, where we keep probing: by
                    // construction capacity exceeds max_elems/α, so a free
                    // slot exists.
                    if r + 1 < self.tails.len() {
                        self.try_resize(r);
                        break;
                    }
                }
            }
            if probes > self.cfg.kappa {
                rnd = hash64(rnd);
                continue;
            }
        }
    }

    /// Packs all elements into a vector and empties the bag
    /// (Alg. 3 line 11). Not concurrent with `insert`.
    pub fn extract_all(&self) -> Vec<T> {
        self.extract_map(|x| x)
    }

    /// [`HashBag::extract_all`] with `f` applied to every element on the
    /// way out.
    pub fn extract_map<U, F>(&self, f: F) -> Vec<U>
    where
        U: Copy + Send + Sync,
        F: Fn(T) -> U + Sync,
    {
        let used = self.used_prefix();
        let out = pack_map(&self.slots[..used], |slot| {
            let bits = slot.load(Ordering::Acquire);
            (bits != T::EMPTY_BITS).then(|| f(T::from_bits(bits)))
        });
        // Reset used prefix and counters.
        par_range(0..used, 4096, &|range| {
            for i in range {
                self.slots[i].store(T::EMPTY_BITS, Ordering::Relaxed);
            }
        });
        for s in self.samples.iter() {
            s.store(0, Ordering::Relaxed);
        }
        self.cur.store(0, Ordering::Relaxed);
        out
    }

    /// Applies `f` to every element in parallel without removing anything.
    /// Not concurrent with `insert`.
    pub fn for_all<F>(&self, f: F)
    where
        F: Fn(T) + Sync,
    {
        let used = self.used_prefix();
        par_range(0..used, 2048, &|range| {
            for i in range {
                let bits = self.slots[i].load(Ordering::Acquire);
                if bits != T::EMPTY_BITS {
                    f(T::from_bits(bits));
                }
            }
        });
    }

    /// Exact element count (parallel scan of the used prefix).
    pub fn len_slow(&self) -> usize {
        use pscc_runtime::par_count;
        let used = self.used_prefix();
        par_count(used, |i| self.slots[i].load(Ordering::Relaxed) != T::EMPTY_BITS)
    }

    /// True if no elements are stored (exact, parallel scan).
    pub fn is_empty_slow(&self) -> bool {
        self.len_slow() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_runtime::par_for;
    use std::collections::HashSet;

    #[test]
    fn insert_then_extract_roundtrip() {
        let bag: HashBag<u32> = HashBag::new(10_000);
        for x in 0..5000u32 {
            bag.insert(x);
        }
        let mut got = bag.extract_all();
        got.sort_unstable();
        let expected: Vec<u32> = (0..5000).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn extract_empties_the_bag() {
        let bag: HashBag<u32> = HashBag::new(100);
        bag.insert(7);
        assert_eq!(bag.extract_all(), vec![7]);
        assert!(bag.extract_all().is_empty());
        assert_eq!(bag.current_chunk(), 0);
    }

    #[test]
    fn parallel_inserts_preserve_set() {
        let n = 200_000u32;
        let bag: HashBag<u32> = HashBag::new(n as usize);
        par_for(n as usize, |i| bag.insert(i as u32));
        let got = bag.extract_all();
        assert_eq!(got.len(), n as usize);
        let set: HashSet<u32> = got.into_iter().collect();
        assert_eq!(set.len(), n as usize);
    }

    #[test]
    fn reuse_after_extract() {
        let bag: HashBag<u32> = HashBag::new(50_000);
        for round in 0..5u32 {
            let lo = round * 10_000;
            par_for(10_000, |i| bag.insert(lo + i as u32));
            let got = bag.extract_all();
            assert_eq!(got.len(), 10_000, "round {round}");
            assert!(got.iter().all(|&x| x >= lo && x < lo + 10_000));
        }
    }

    #[test]
    fn a_thousand_cycles_on_one_bag_leak_nothing() {
        // The reuse contract a run-wide bag leans on: every cycle returns
        // exactly what went in and leaves the bag as new.
        let lambda = BagConfig::default().lambda;
        let bag: HashBag<u64> = HashBag::new(3 * lambda);
        pscc_runtime::with_threads(4, || {
            for cycle in 0..1000usize {
                let size = cycle * 3 * lambda / 999;
                let base = (cycle as u64) << 32;
                par_for(size, |i| bag.insert(base | i as u64));
                let mut got = bag.extract_all();
                got.sort_unstable();
                assert!(
                    got.iter().copied().eq((0..size as u64).map(|i| base | i)),
                    "cycle {cycle}"
                );
                assert_eq!(bag.current_chunk(), 0, "cycle {cycle}");
                assert_eq!(bag.len_slow(), 0, "stale slot after cycle {cycle}");
            }
        });
    }

    #[test]
    fn overfull_bag_spills_into_earlier_chunks() {
        // Past max_elems the last chunk wraps over the whole array: every
        // slot but one can be filled, and everything comes back out.
        let cfg = BagConfig { lambda: 8, ..BagConfig::default() };
        let bag: HashBag<u32> = HashBag::with_config(100, cfg);
        let n = bag.capacity() - 1;
        assert!(n > 2 * 100);
        par_for(n, |i| bag.insert(i as u32));
        let mut got = bag.extract_all();
        got.sort_unstable();
        assert!(got.iter().copied().eq(0..n as u32));
        assert_eq!(bag.len_slow(), 0);
    }

    #[test]
    fn reserve_keeps_a_large_enough_allocation() {
        let mut bag: HashBag<u64> = HashBag::new(10_000);
        let capacity = bag.capacity();
        bag.reserve(5_000);
        bag.reserve(10_000);
        assert_eq!(bag.capacity(), capacity);
        bag.reserve(10_001);
        assert!(bag.capacity() as f64 >= 10_001.0 / bag.config().alpha);
        bag.insert(7);
        assert_eq!(bag.extract_map(|x| x as u32), vec![7u32]);
    }

    #[test]
    fn resize_advances_chunks_under_load() {
        let cfg = BagConfig { lambda: 64, ..BagConfig::default() };
        let bag: HashBag<u32> = HashBag::with_config(100_000, cfg);
        par_for(50_000, |i| bag.insert(i as u32));
        assert!(bag.current_chunk() > 0, "expected chunk advance");
        assert_eq!(bag.len_slow(), 50_000);
    }

    #[test]
    fn tiny_lambda_failure_injection() {
        // Pathologically small first chunk: correctness must survive many
        // forced resizes and probe storms.
        let cfg = BagConfig { lambda: 2, sigma: 2, kappa: 2, ..BagConfig::default() };
        let bag: HashBag<u32> = HashBag::with_config(5_000, cfg);
        par_for(5_000, |i| bag.insert(i as u32));
        let got = bag.extract_all();
        assert_eq!(got.len(), 5_000);
    }

    #[test]
    fn fill_to_declared_capacity() {
        // Insert exactly max_elems: the last chunk must absorb everything.
        let n = 4096;
        let bag: HashBag<u32> = HashBag::new(n);
        par_for(n, |i| bag.insert(i as u32));
        assert_eq!(bag.len_slow(), n);
    }

    #[test]
    fn for_all_visits_every_element() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let bag: HashBag<u32> = HashBag::new(1000);
        for x in 0..1000u32 {
            bag.insert(x);
        }
        let sum = AtomicU64::new(0);
        bag.for_all(|x| {
            sum.fetch_add(x as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..1000u64).sum::<u64>());
        // for_all must not remove elements.
        assert_eq!(bag.len_slow(), 1000);
    }

    #[test]
    fn u64_items_work() {
        let bag: HashBag<u64> = HashBag::new(1000);
        for x in 0..500u64 {
            bag.insert(x << 32 | x);
        }
        let mut got = bag.extract_all();
        got.sort_unstable();
        assert_eq!(got.len(), 500);
        assert_eq!(got[0], 0);
        assert_eq!(got[499], 499u64 << 32 | 499);
    }

    #[test]
    fn used_prefix_is_proportional_to_size() {
        // Theorem 3.1: listing s elements touches O(s + λ) slots. With
        // default α = 0.5 the used prefix should stay within a small
        // multiple of the element count.
        let bag: HashBag<u32> = HashBag::new(1 << 20);
        par_for(10_000, |i| bag.insert(i as u32));
        let used = bag.used_prefix();
        assert!(
            used <= 8 * 10_000 + bag.config().lambda * 4,
            "used prefix {used} too large for 10k elements"
        );
    }

    #[test]
    fn capacity_covers_max_elems_over_alpha() {
        let bag: HashBag<u32> = HashBag::new(1000);
        assert!(bag.capacity() as f64 >= 1000.0 / bag.config().alpha);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    #[cfg(debug_assertions)]
    fn inserting_u64_sentinel_panics_in_debug() {
        // Only u64::MAX collides with the slot sentinel; u32 items are
        // widened to u64, so even u32::MAX is storable.
        let bag: HashBag<u64> = HashBag::new(10);
        bag.insert(u64::MAX);
    }

    #[test]
    fn u32_max_is_a_legal_item() {
        // u32 items never collide with the u64 sentinel.
        let bag: HashBag<u32> = HashBag::new(10);
        bag.insert(u32::MAX);
        assert_eq!(bag.extract_all(), vec![u32::MAX]);
    }
}
