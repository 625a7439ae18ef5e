//! # pscc-table — phase-concurrent hash table for reachability pairs
//!
//! The multi-reachability searches of the BGSS SCC algorithm maintain the
//! set of pairs `(v, s)` — "vertex `v` is reachable from source `s`" — in a
//! hash table supporting concurrent `insert` and `contains` within a phase
//! (Shun–Blelloch phase-concurrent table, ref. \[95\] in the paper). Keys are 64-bit packed
//! pairs; open addressing with linear probing over a power-of-two slot
//! array of `AtomicU64`.
//!
//! An insert writes nothing but the slot it claims — no shared counter —
//! so workers share the slot array and nothing else.
//!
//! The table does not grow during concurrent insertion. Instead the SCC
//! driver sizes it up front with the paper's heuristic (§4.5,
//! [`heuristic::next_table_capacity`]) and, if an insert still hits the
//! probe limit, rebuilds into a doubled table between operations
//! ([`PairTable::grow`]) — that rebuild time is exactly the green
//! "hash table resizing" cost of Fig. 9.

pub mod heuristic;
pub mod pair;

pub use heuristic::next_table_capacity;
pub use pair::{pack_pair, pair_source, pair_vertex};

use std::sync::atomic::{AtomicU64, Ordering};

use pscc_runtime::{hash64, pack_map, par_count, par_range, par_range_with, tabulate};

/// Slot sentinel for "empty".
const EMPTY: u64 = u64::MAX;

/// Result of an insertion attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Insert {
    /// The key was inserted by this call.
    Added,
    /// The key was already present.
    Present,
    /// The probe limit was hit; the caller must [`PairTable::grow`] (not
    /// concurrently) and retry.
    Full,
}

/// A phase-concurrent open-addressing hash set of `u64` keys.
///
/// `u64::MAX` is reserved as the empty sentinel and cannot be stored.
///
/// The table hashes into the first `slot_count()` slots of its allocation
/// and every slot beyond them is empty, so one allocation serves a run of
/// searches with different capacities ([`PairTable::reset`]) at a cost
/// proportional to the slots each one used.
pub struct PairTable {
    slots: Box<[AtomicU64]>,
    /// `slot_count() - 1`.
    mask: usize,
    /// Probe limit before reporting [`Insert::Full`].
    probe_limit: usize,
}

/// Slots for about `capacity` keys: a power of two with 2× headroom.
fn slots_for(capacity: usize) -> usize {
    (capacity.max(8) * 2).next_power_of_two()
}

/// Probes an insert into a table of `slots` slots makes before giving up.
fn probe_limit(slots: usize) -> usize {
    128 + slots.trailing_zeros() as usize * 8
}

impl PairTable {
    /// Creates a table able to hold about `capacity` keys (rounded up to a
    /// power of two with 2× headroom).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_slots(slots_for(capacity))
    }

    /// A fresh table of `slots` slots, first touched in parallel.
    fn with_slots(slots: usize) -> Self {
        Self {
            slots: tabulate(slots, |_| AtomicU64::new(EMPTY)).into_boxed_slice(),
            mask: slots - 1,
            probe_limit: probe_limit(slots),
        }
    }

    /// Empties the table and makes it hash into `slots` slots, allocating
    /// only when it owns fewer.
    fn redimension(&mut self, slots: usize) {
        if slots > self.slots.len() {
            // The old slots go first, so the new ones can take their place.
            self.slots = Box::default();
            *self = Self::with_slots(slots);
        } else {
            self.clear();
            self.mask = slots - 1;
            self.probe_limit = probe_limit(slots);
        }
    }

    /// Empties the table and re-dimensions it for about `capacity` keys,
    /// keeping the allocation whenever it is large enough.
    pub fn reset(&mut self, capacity: usize) {
        self.redimension(slots_for(capacity));
    }

    /// Number of slots in use (always a power of two).
    pub fn slot_count(&self) -> usize {
        self.mask + 1
    }

    fn active(&self) -> &[AtomicU64] {
        &self.slots[..=self.mask]
    }

    /// Number of stored keys: a parallel count over the slots, exact
    /// whenever no insert is in flight. `insert` keeps no counter — that
    /// would be one cache line every worker writes per pair — so a search
    /// that needs the count every round keeps its own tally of `Added`s.
    pub fn len(&self) -> usize {
        let slots = self.active();
        par_count(slots.len(), |i| slots[i].load(Ordering::Relaxed) != EMPTY)
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `key`; returns whether it was added, already present, or the
    /// table needs growing. Concurrent-safe with other `insert`/`contains`;
    /// writes nothing but the slot it claims.
    pub fn insert(&self, key: u64) -> Insert {
        debug_assert_ne!(key, EMPTY, "u64::MAX is the empty sentinel");
        let mut i = (hash64(key) as usize) & self.mask;
        for _ in 0..self.probe_limit {
            let cur = self.slots[i].load(Ordering::Relaxed);
            if cur == key {
                return Insert::Present;
            }
            if cur == EMPTY {
                match self.slots[i].compare_exchange(
                    EMPTY,
                    key,
                    Ordering::Release,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Insert::Added,
                    Err(now) => {
                        if now == key {
                            return Insert::Present;
                        }
                        // Lost the race to a different key: fall through to
                        // probe the next slot.
                    }
                }
            }
            i = (i + 1) & self.mask;
        }
        Insert::Full
    }

    /// Membership test. Concurrent-safe with `insert`.
    ///
    /// Note: under the phase-concurrent discipline a `contains` racing an
    /// in-flight `insert` of the same key may return either answer; once
    /// the insert returns, `contains` is guaranteed `true`.
    pub fn contains(&self, key: u64) -> bool {
        debug_assert_ne!(key, EMPTY);
        let mut i = (hash64(key) as usize) & self.mask;
        for _ in 0..self.probe_limit {
            let cur = self.slots[i].load(Ordering::Acquire);
            if cur == key {
                return true;
            }
            if cur == EMPTY {
                return false;
            }
            i = (i + 1) & self.mask;
        }
        false
    }

    /// All stored keys, packed in slot order. Not concurrent with `insert`.
    pub fn keys(&self) -> Vec<u64> {
        pack_map(self.active(), |s| {
            let v = s.load(Ordering::Relaxed);
            (v != EMPTY).then_some(v)
        })
    }

    /// Applies `f` to every stored key in parallel. Not concurrent with
    /// `insert`.
    pub fn for_each<F>(&self, f: F)
    where
        F: Fn(u64) + Sync,
    {
        self.sum(|key| {
            f(key);
            0
        });
    }

    /// Sum of `f(key)` over every stored key, in parallel with one partial
    /// sum per worker. Not concurrent with `insert`.
    pub fn sum<F>(&self, f: F) -> u64
    where
        F: Fn(u64) -> u64 + Sync,
    {
        let slots = self.active();
        let partial = par_range_with(0..slots.len(), 2048, &|| 0u64, &|acc, r| {
            for s in &slots[r] {
                let v = s.load(Ordering::Relaxed);
                if v != EMPTY {
                    *acc += f(v);
                }
            }
        });
        partial.into_iter().sum()
    }

    /// Rehashes all keys (parallel) into at least double the slots — in
    /// place when the allocation has room. This is the copy cost the §4.5
    /// heuristic avoids.
    pub fn grow(&mut self) {
        let keys = self.keys();
        let mut slots = self.slot_count();
        loop {
            slots *= 2;
            self.redimension(slots);
            // Extremely unlikely to refuse a key: double again.
            if par_count(keys.len(), |i| self.insert(keys[i]) == Insert::Full) == 0 {
                break;
            }
        }
    }

    /// Clears all keys (parallel), keeping the allocation.
    pub fn clear(&self) {
        let slots = self.active();
        par_range(0..slots.len(), 4096, &|r| {
            for s in &slots[r] {
                s.store(EMPTY, Ordering::Relaxed);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_runtime::par_for;
    use std::collections::HashSet;

    #[test]
    fn insert_and_contains() {
        let t = PairTable::with_capacity(100);
        assert_eq!(t.insert(42), Insert::Added);
        assert_eq!(t.insert(42), Insert::Present);
        assert!(t.contains(42));
        assert!(!t.contains(43));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn parallel_inserts_count_unique_keys() {
        let t = PairTable::with_capacity(100_000);
        // Each key inserted twice; Added must fire exactly once per key.
        use std::sync::atomic::AtomicUsize;
        let added = AtomicUsize::new(0);
        par_for(200_000, |i| {
            let key = (i / 2) as u64;
            if t.insert(key) == Insert::Added {
                added.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(added.load(Ordering::Relaxed), 100_000);
        assert_eq!(t.len(), 100_000);
    }

    /// Eight workers, released together, each insert their own eighth of
    /// `keys` and their neighbour's: every key is inserted by two workers.
    /// Returns how many inserts reported `Added`.
    fn insert_twice_from_eight_workers(t: &PairTable, keys: &[u64]) -> usize {
        let per = keys.len() / 8;
        let barrier = std::sync::Barrier::new(8);
        let added = pscc_runtime::with_threads(8, || {
            pscc_runtime::par_range_with(0..8, 1, &|| 0usize, &|added, r| {
                // Workers block here until all eight hold a block, so each
                // of the eight blocks runs on its own thread.
                barrier.wait();
                for seg in [r.start, (r.start + 1) % 8] {
                    for &k in &keys[seg * per..(seg + 1) * per] {
                        match t.insert(k) {
                            Insert::Added => *added += 1,
                            Insert::Present => {}
                            Insert::Full => panic!("table sized for the keys"),
                        }
                    }
                }
            })
        });
        added.into_iter().sum()
    }

    #[test]
    fn added_fires_once_per_key_and_len_is_exact() {
        let keys: Vec<u64> = (0..80_000u64).map(|k| hash64(k) >> 1).collect();
        let unique: HashSet<u64> = keys.iter().copied().collect();
        let mut t = PairTable::with_capacity(keys.len());
        assert_eq!(insert_twice_from_eight_workers(&t, &keys), unique.len());
        assert_eq!(t.len(), unique.len());
        assert_eq!(t.keys().len(), unique.len());

        t.grow();
        assert_eq!(t.len(), unique.len());
        assert_eq!(t.keys().into_iter().collect::<HashSet<u64>>(), unique);
        assert_eq!(insert_twice_from_eight_workers(&t, &keys), 0, "all present after grow");

        t.clear();
        assert_eq!(t.len(), 0);
        assert!(t.keys().is_empty());
        assert_eq!(insert_twice_from_eight_workers(&t, &keys), unique.len());
        assert_eq!(t.len(), t.keys().len());
    }

    #[test]
    fn reset_reuses_the_allocation_and_leaves_nothing_behind() {
        let mut t = PairTable::with_capacity(4096);
        let big = t.slot_count();
        for k in 0..3000u64 {
            assert_eq!(t.insert(k), Insert::Added);
        }
        // A smaller table in the same allocation: empty, and only its own
        // slots are visible.
        t.reset(100);
        assert!(t.slot_count() < big);
        assert!(t.is_empty());
        assert!(!t.contains(7));
        for k in 0..100u64 {
            assert_eq!(t.insert(k), Insert::Added);
        }
        // Growing back fits the allocation; the keys survive.
        while t.slot_count() < big {
            t.grow();
        }
        assert_eq!(t.keys().into_iter().collect::<HashSet<u64>>(), (0..100u64).collect());
        // Back to full size: the 3000 keys of the first use are gone.
        t.reset(4096);
        assert_eq!(t.slot_count(), big);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn keys_returns_exact_set() {
        let t = PairTable::with_capacity(1000);
        for k in 0..500u64 {
            t.insert(k * 3);
        }
        let got: HashSet<u64> = t.keys().into_iter().collect();
        let expected: HashSet<u64> = (0..500u64).map(|k| k * 3).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn grow_preserves_contents() {
        let mut t = PairTable::with_capacity(8);
        for k in 0..16u64 {
            // May report Full on a tiny table; grow and retry like the
            // driver does.
            while t.insert(k) == Insert::Full {
                t.grow();
            }
        }
        for k in 0..16u64 {
            assert!(t.contains(k), "lost key {k} after grow");
        }
        assert_eq!(t.len(), 16);
    }

    #[test]
    fn overfill_reports_full_eventually() {
        // Saturate a minimum-size table; at some point Full must appear.
        let t = PairTable::with_capacity(1);
        let mut got_full = false;
        for k in 0..100_000u64 {
            if t.insert(k) == Insert::Full {
                got_full = true;
                break;
            }
        }
        assert!(got_full);
    }

    #[test]
    fn clear_resets() {
        let t = PairTable::with_capacity(100);
        for k in 0..50u64 {
            t.insert(k);
        }
        t.clear();
        assert!(t.is_empty());
        assert!(!t.contains(7));
        assert_eq!(t.insert(7), Insert::Added);
    }

    #[test]
    fn for_each_visits_all() {
        use std::sync::atomic::AtomicU64;
        let t = PairTable::with_capacity(1000);
        for k in 1..=100u64 {
            t.insert(k);
        }
        let sum = AtomicU64::new(0);
        t.for_each(|k| {
            sum.fetch_add(k, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (1..=100u64).sum::<u64>());
        assert_eq!(t.sum(|k| k), (1..=100u64).sum::<u64>());
        // Only the slots in use count, whatever a larger past use left.
        let mut t = PairTable::with_capacity(100_000);
        t.reset(16);
        t.insert(7);
        assert_eq!(t.sum(|k| k), 7);
    }

    #[test]
    fn slot_count_is_power_of_two() {
        for cap in [1, 7, 100, 1000, 12345] {
            let t = PairTable::with_capacity(cap);
            assert!(t.slot_count().is_power_of_two());
            assert!(t.slot_count() >= cap);
        }
    }

    #[test]
    fn adversarial_colliding_keys() {
        // Keys engineered to collide in low bits still disperse via hash64.
        let t = PairTable::with_capacity(4096);
        let stride = t.slot_count() as u64;
        for k in 0..2000u64 {
            assert_ne!(t.insert(k * stride), Insert::Full);
        }
        assert_eq!(t.len(), 2000);
    }
}
