//! Batched query execution: answer thousands of `(u, v)` reachability
//! queries in parallel over one shared [`Index`].
//!
//! Queries are distributed over workers with [`pscc_runtime::par_for`]
//! (blocked, dynamically claimed), writing into disjoint slots of the
//! result vector. A fixed-capacity concurrent memo caches component-pair
//! verdicts so hot pairs — repeated sources hitting the interval tier's
//! DFS fallback — are answered once; entries are evicted by overwrite
//! (LRU-style: the freshest verdict for a slot always wins, stale ones
//! simply fall out).

use crate::index::Index;
use pscc_graph::V;
use pscc_runtime::par_for_grain;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Cached handle for the `pscc_batch_query_nanos` histogram (wall time
/// of each `answer` / `answer_sequential` call).
fn batch_histogram() -> &'static Arc<pscc_telemetry::Histogram> {
    static HIST: OnceLock<Arc<pscc_telemetry::Histogram>> = OnceLock::new();
    HIST.get_or_init(|| pscc_telemetry::histogram("pscc_batch_query_nanos"))
}

/// Cached handle for the `pscc_batch_queries_total` counter.
fn queries_counter() -> &'static Arc<pscc_telemetry::Counter> {
    static C: OnceLock<Arc<pscc_telemetry::Counter>> = OnceLock::new();
    C.get_or_init(|| pscc_telemetry::counter("pscc_batch_queries_total"))
}

/// Cached handle for the `pscc_batch_memo_hits_total` counter.
fn memo_hits_counter() -> &'static Arc<pscc_telemetry::Counter> {
    static C: OnceLock<Arc<pscc_telemetry::Counter>> = OnceLock::new();
    C.get_or_init(|| pscc_telemetry::counter("pscc_batch_memo_hits_total"))
}

/// Cached handle for the `pscc_batch_memo_misses_total` counter.
fn memo_misses_counter() -> &'static Arc<pscc_telemetry::Counter> {
    static C: OnceLock<Arc<pscc_telemetry::Counter>> = OnceLock::new();
    C.get_or_init(|| pscc_telemetry::counter("pscc_batch_memo_misses_total"))
}

/// Cached handle for the `pscc_label_intersect_len` histogram: merge
/// steps per label-tier verdict, recorded on the EXPLAIN path (the
/// boolean serving path skips the record so the label hot loop stays free
/// of shared-counter traffic).
fn label_intersect_histogram() -> &'static Arc<pscc_telemetry::Histogram> {
    static HIST: OnceLock<Arc<pscc_telemetry::Histogram>> = OnceLock::new();
    HIST.get_or_init(|| pscc_telemetry::histogram("pscc_label_intersect_len"))
}

/// Options for [`QueryBatch`].
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// log2 of the memo capacity (0 disables the memo).
    pub memo_bits: u32,
    /// Queries per worker block.
    pub grain: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions { memo_bits: 16, grain: 512 }
    }
}

/// Running tallies of one batch execution.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Queries answered.
    pub queries: usize,
    /// Memo hits among them.
    pub memo_hits: usize,
}

/// A reusable batch executor bound to one index.
pub struct QueryBatch<'a> {
    index: &'a Index,
    memo: std::sync::Arc<MemoCache>,
    queries: AtomicUsize,
    grain: usize,
}

impl<'a> QueryBatch<'a> {
    /// Creates an executor with default options.
    pub fn new(index: &'a Index) -> Self {
        Self::with_options(index, &BatchOptions::default())
    }

    /// Creates an executor with explicit options.
    pub fn with_options(index: &'a Index, opts: &BatchOptions) -> Self {
        let memo = std::sync::Arc::new(MemoCache::new(opts.memo_bits, index.num_components()));
        Self::with_shared_memo(index, memo, opts.grain)
    }

    /// Creates an executor over an existing memo (the catalog uses this to
    /// keep verdicts warm across batches against the same index).
    pub(crate) fn with_shared_memo(
        index: &'a Index,
        memo: std::sync::Arc<MemoCache>,
        grain: usize,
    ) -> Self {
        QueryBatch { index, memo, queries: AtomicUsize::new(0), grain: grain.max(1) }
    }

    /// The index this executor queries.
    pub fn index(&self) -> &Index {
        self.index
    }

    /// Answers one query through the memo.
    pub fn reaches(&self, u: V, v: V) -> bool {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut hits = 0usize;
        let ans = self.reaches_counted(u, v, &mut hits);
        if hits > 0 {
            self.memo.record_hit();
        }
        ans
    }

    /// The tally-free query core: memo hits accumulate into the caller's
    /// local counter instead of the shared atomic, so batch loops pay one
    /// `fetch_add` per *block* rather than per query (per-query traffic on
    /// a shared cache line was the warm-batch throughput ceiling).
    #[inline]
    fn reaches_counted(&self, u: V, v: V, hits: &mut usize) -> bool {
        let (cu, cv) = (self.index.comp(u) as usize, self.index.comp(v) as usize);
        if cu == cv {
            return true;
        }
        if let Some(hit) = self.memo.get(cu, cv) {
            *hits += 1;
            return hit;
        }
        let ans = self.index.comp_reaches(cu, cv);
        self.memo.put(cu, cv, ans);
        ans
    }

    /// Answers every query *with provenance*: the verdict plus the
    /// [`QueryTier`](crate::QueryTier) that decided it and the work done.
    /// Runs sequentially (EXPLAIN is a diagnostic path, not a serving
    /// path) but goes through the same memo and the same tier cascade as
    /// [`Self::answer`], so `explain(q)[i].reaches == answer(q)[i]`
    /// always — the only divergence possible is `Memo` appearing where a
    /// cold run would have consulted the summary.
    pub fn explain(&self, queries: &[(V, V)]) -> Vec<crate::explain::QueryExplain> {
        use crate::explain::{QueryExplain, QueryTier};
        queries
            .iter()
            .map(|&(u, v)| {
                self.queries.fetch_add(1, Ordering::Relaxed);
                let (cu, cv) = (self.index.comp(u) as usize, self.index.comp(v) as usize);
                if cu == cv {
                    return QueryExplain {
                        u,
                        v,
                        reaches: true,
                        tier: QueryTier::SameComponent,
                        dfs_visited: 0,
                    };
                }
                if let Some(hit) = self.memo.get(cu, cv) {
                    self.memo.record_hit();
                    return QueryExplain {
                        u,
                        v,
                        reaches: hit,
                        tier: QueryTier::Memo,
                        dfs_visited: 0,
                    };
                }
                let (ans, tier, visited) = self.index.comp_reaches_explained(cu, cv);
                if tier == QueryTier::LabelIntersect && pscc_telemetry::enabled() {
                    label_intersect_histogram().record_nanos(visited as u64);
                }
                self.memo.put(cu, cv, ans);
                QueryExplain { u, v, reaches: ans, tier, dfs_visited: visited }
            })
            .collect()
    }

    /// Answers every query in parallel; `out[i]` corresponds to
    /// `queries[i]`.
    pub fn answer(&self, queries: &[(V, V)]) -> Vec<bool> {
        self.instrumented(queries, || {
            if pscc_runtime::num_workers() <= 1 {
                // One worker: the atomic result bitmap buys nothing.
                return self.sequential_core(queries);
            }
            // The grain is rounded up to whole 64-bit result words, so
            // every block owns its words exclusively: verdicts accumulate
            // in a plain local word and land with one relaxed store per
            // word, and the query/memo-hit tallies fold into one atomic
            // add per block. The per-query `fetch_add`/`fetch_or` this
            // replaces serialized warm batches on two shared cache lines.
            let len = queries.len();
            let grain = self.grain.div_ceil(64) * 64;
            let words: Vec<AtomicU64> = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
            par_for_grain(len.div_ceil(grain), 1, |b| {
                let start = b * grain;
                let end = (start + grain).min(len);
                let mut hits = 0usize;
                let mut word = 0u64;
                for i in start..end {
                    if i % 64 == 0 && i != start {
                        if word != 0 {
                            words[i / 64 - 1].store(word, Ordering::Relaxed);
                        }
                        word = 0;
                    }
                    let (u, v) = queries[i];
                    if self.reaches_counted(u, v, &mut hits) {
                        word |= 1 << (i % 64);
                    }
                }
                if word != 0 {
                    words[(end - 1) / 64].store(word, Ordering::Relaxed);
                }
                self.queries.fetch_add(end - start, Ordering::Relaxed);
                if hits > 0 {
                    self.memo.hits.fetch_add(hits, Ordering::Relaxed);
                }
            });
            (0..len).map(|i| words[i / 64].load(Ordering::Relaxed) >> (i % 64) & 1 == 1).collect()
        })
    }

    /// Answers every query one at a time on the calling thread (the
    /// baseline behind the ledger's `engine.batch.seq_qps`).
    pub fn answer_sequential(&self, queries: &[(V, V)]) -> Vec<bool> {
        self.instrumented(queries, || self.sequential_core(queries))
    }

    fn sequential_core(&self, queries: &[(V, V)]) -> Vec<bool> {
        let mut hits = 0usize;
        let out: Vec<bool> =
            queries.iter().map(|&(u, v)| self.reaches_counted(u, v, &mut hits)).collect();
        self.queries.fetch_add(queries.len(), Ordering::Relaxed);
        if hits > 0 {
            self.memo.hits.fetch_add(hits, Ordering::Relaxed);
        }
        out
    }

    /// Runs `f` (the batch body over `queries`), recording the batch's
    /// wall time into `pscc_batch_query_nanos` and its query / memo-hit /
    /// memo-miss counts into the global counters. Per-query hot paths pay
    /// nothing for this: the hit count is a before/after diff of the
    /// memo's existing tally, which is exact for this batch unless
    /// another batch shares the same memo concurrently (then the split
    /// between the two is approximate; the totals still add up).
    fn instrumented(&self, queries: &[(V, V)], f: impl FnOnce() -> Vec<bool>) -> Vec<bool> {
        if !pscc_telemetry::enabled() || queries.is_empty() {
            return f();
        }
        let hits_before = self.memo.hits.load(Ordering::Relaxed);
        let timer = pscc_telemetry::Timer::start();
        let out = f();
        batch_histogram().record(timer.elapsed());
        let hits = self.memo.hits.load(Ordering::Relaxed).saturating_sub(hits_before);
        let total = queries.len();
        queries_counter().add(total as u64);
        memo_hits_counter().add(hits.min(total) as u64);
        memo_misses_counter().add(total.saturating_sub(hits) as u64);
        out
    }

    /// Tallies: queries answered by this executor, and hits of its memo
    /// (cumulative across executors when the memo is shared).
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            queries: self.queries.load(Ordering::Relaxed),
            memo_hits: self.memo.hits.load(Ordering::Relaxed),
        }
    }
}

/// Fixed-capacity concurrent verdict cache: open-addressed, one atomic
/// u64 per slot packing `(cu, cv, verdict, occupied)`; collisions simply
/// overwrite.
pub(crate) struct MemoCache {
    slots: Vec<AtomicU64>,
    mask: usize,
    enabled: bool,
    hits: AtomicUsize,
}

/// Component ids must fit 31 bits each to pack into a slot.
const PACK_LIMIT: usize = 1 << 31;

impl MemoCache {
    pub(crate) fn new(bits: u32, num_components: usize) -> Self {
        let enabled = bits > 0 && num_components < PACK_LIMIT;
        let cap = if enabled { 1usize << bits.min(28) } else { 0 };
        MemoCache {
            slots: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            mask: cap.saturating_sub(1),
            enabled,
            hits: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn pack(cu: usize, cv: usize, verdict: bool) -> u64 {
        // [cu:31][cv:31][verdict:1][occupied:1]
        (cu as u64) << 33 | (cv as u64) << 2 | (verdict as u64) << 1 | 1
    }

    #[inline]
    fn slot_of(&self, cu: usize, cv: usize) -> usize {
        let h = pscc_runtime::hash64((cu as u64) << 32 | cv as u64);
        h as usize & self.mask
    }

    fn get(&self, cu: usize, cv: usize) -> Option<bool> {
        if !self.enabled {
            return None;
        }
        let e = self.slots[self.slot_of(cu, cv)].load(Ordering::Relaxed);
        if e & 1 == 1 && e >> 33 == cu as u64 && (e >> 2) & 0x7fff_ffff == cv as u64 {
            Some(e >> 1 & 1 == 1)
        } else {
            None
        }
    }

    fn put(&self, cu: usize, cv: usize, verdict: bool) {
        if self.enabled {
            self.slots[self.slot_of(cu, cv)].store(Self::pack(cu, cv, verdict), Ordering::Relaxed);
        }
    }

    fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use pscc_graph::generators::random::gnm_digraph;
    use pscc_graph::DiGraph;
    use pscc_runtime::SplitMix64;

    fn bfs_reaches(g: &DiGraph, u: V, v: V) -> bool {
        let mut seen = vec![false; g.n()];
        let mut stack = vec![u];
        seen[u as usize] = true;
        while let Some(x) = stack.pop() {
            if x == v {
                return true;
            }
            for &w in g.out_neighbors(x) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        false
    }

    fn random_queries(n: usize, count: usize, seed: u64) -> Vec<(V, V)> {
        let mut rng = SplitMix64::new(seed);
        (0..count).map(|_| (rng.next_below(n as u64) as V, rng.next_below(n as u64) as V)).collect()
    }

    #[test]
    fn batch_matches_oracle_and_sequential() {
        let g = gnm_digraph(200, 500, 1);
        let idx = Index::build(&g);
        let batch = QueryBatch::new(&idx);
        let queries = random_queries(200, 2000, 42);
        let par = batch.answer(&queries);
        let seq = batch.answer_sequential(&queries);
        assert_eq!(par, seq);
        for (i, &(u, v)) in queries.iter().enumerate() {
            assert_eq!(par[i], bfs_reaches(&g, u, v), "query ({u}, {v})");
        }
    }

    #[test]
    fn batch_matches_oracle_interval_tier() {
        let g = gnm_digraph(150, 350, 2);
        let cfg = IndexConfig { bitset_budget_bytes: 0, ..IndexConfig::default() };
        let idx = Index::build_with_config(&g, &cfg);
        let batch = QueryBatch::new(&idx);
        let queries = random_queries(150, 3000, 7);
        for (i, ans) in batch.answer(&queries).into_iter().enumerate() {
            let (u, v) = queries[i];
            assert_eq!(ans, bfs_reaches(&g, u, v), "query ({u}, {v})");
        }
    }

    #[test]
    fn memo_hits_on_repeated_queries() {
        let g = gnm_digraph(100, 220, 3);
        let cfg = IndexConfig { bitset_budget_bytes: 0, ..IndexConfig::default() };
        let idx = Index::build_with_config(&g, &cfg);
        let batch = QueryBatch::new(&idx);
        // Cross-component pairs repeated many times must mostly hit.
        let queries: Vec<(V, V)> =
            (0..1000).map(|i| (1 + (i % 3) as V, 90 + (i % 4) as V)).collect();
        let _ = batch.answer_sequential(&queries);
        let stats = batch.stats();
        assert_eq!(stats.queries, 1000);
        // At most 12 distinct cross-component pairs exist, so nearly every
        // non-same-component query after the first dozen hits the memo.
        let distinct_cross = queries
            .iter()
            .map(|&(u, v)| (idx.comp(u), idx.comp(v)))
            .filter(|(a, b)| a != b)
            .collect::<std::collections::HashSet<_>>()
            .len();
        let same_comp = queries.iter().filter(|&&(u, v)| idx.comp(u) == idx.comp(v)).count();
        assert_eq!(stats.memo_hits, 1000 - same_comp - distinct_cross, "stats {stats:?}");
    }

    #[test]
    fn memo_disabled_still_correct() {
        let g = gnm_digraph(80, 200, 4);
        let idx = Index::build(&g);
        let opts = BatchOptions { memo_bits: 0, ..BatchOptions::default() };
        let batch = QueryBatch::with_options(&idx, &opts);
        let queries = random_queries(80, 500, 9);
        for (i, ans) in batch.answer(&queries).into_iter().enumerate() {
            let (u, v) = queries[i];
            assert_eq!(ans, bfs_reaches(&g, u, v));
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let g = gnm_digraph(10, 20, 5);
        let idx = Index::build(&g);
        let batch = QueryBatch::new(&idx);
        assert!(batch.answer(&[]).is_empty());
    }

    #[test]
    fn explain_agrees_with_answer_and_reports_tiers() {
        use crate::explain::QueryTier;
        let g = gnm_digraph(150, 350, 2);
        // Interval tier: exercises exception lists, refutes, and the DFS.
        let cfg = IndexConfig { bitset_budget_bytes: 0, ..IndexConfig::default() };
        let idx = Index::build_with_config(&g, &cfg);
        let batch = QueryBatch::new(&idx);
        let queries = random_queries(150, 2000, 13);
        let answers = batch.answer_sequential(&queries);
        // Fresh executor so no memo entries mask the real tiers.
        let cold = QueryBatch::new(&idx);
        let explains = cold.explain(&queries);
        assert_eq!(explains.len(), answers.len());
        let mut tiers = std::collections::HashSet::new();
        for (ex, &ans) in explains.iter().zip(&answers) {
            assert_eq!(ex.reaches, ans, "explain({}, {}) disagrees with answer", ex.u, ex.v);
            if ex.tier != QueryTier::PrunedDfs {
                assert_eq!(ex.dfs_visited, 0);
            }
            tiers.insert(ex.tier.name());
        }
        assert!(tiers.contains("same_component"), "tiers seen: {tiers:?}");
        assert!(tiers.contains("level_prune"), "tiers seen: {tiers:?}");
        // Re-explaining the same queries on the same executor hits the memo.
        let warm = cold.explain(&queries);
        assert!(
            warm.iter().any(|ex| ex.tier == QueryTier::Memo),
            "repeated cross-component queries must report memo provenance"
        );
        for (w, ex) in warm.iter().zip(&explains) {
            assert_eq!(w.reaches, ex.reaches);
        }
    }

    #[test]
    fn explain_reports_bitset_rows_on_the_bitset_tier() {
        use crate::explain::QueryTier;
        let g = gnm_digraph(100, 220, 3);
        let idx = Index::build(&g);
        assert_eq!(idx.tier(), crate::SummaryTier::Bitset);
        let batch = QueryBatch::new(&idx);
        let explains = batch.explain(&random_queries(100, 500, 17));
        assert!(
            explains.iter().any(|ex| ex.tier == QueryTier::BitsetRow),
            "bitset-tier index must answer some queries via its rows"
        );
        assert!(explains.iter().all(|ex| ex.tier != QueryTier::PrunedDfs));
    }

    #[test]
    fn label_tier_batch_matches_oracle_and_explains_intersections() {
        use crate::explain::QueryTier;
        let g = gnm_digraph(150, 350, 2);
        let cfg = IndexConfig {
            bitset_budget_bytes: 0,
            label_min_components: 0,
            ..IndexConfig::default()
        };
        let idx = Index::build_with_config(&g, &cfg);
        assert_eq!(idx.tier(), crate::SummaryTier::Labels);
        let batch = QueryBatch::new(&idx);
        let queries = random_queries(150, 3000, 21);
        for (i, ans) in batch.answer(&queries).into_iter().enumerate() {
            let (u, v) = queries[i];
            assert_eq!(ans, bfs_reaches(&g, u, v), "query ({u}, {v})");
        }
        // A cold executor must attribute summary verdicts to the label
        // tier — the label path has no DFS fallback to leak into.
        let cold = QueryBatch::new(&idx);
        let explains = cold.explain(&queries);
        assert!(
            explains.iter().any(|ex| ex.tier == QueryTier::LabelIntersect),
            "label-tier index must answer some queries via intersections"
        );
        assert!(explains.iter().all(|ex| ex.tier != QueryTier::PrunedDfs
            && ex.tier != QueryTier::BitsetRow
            && ex.tier != QueryTier::ExceptionList
            && ex.tier != QueryTier::IntervalRefute));
    }

    #[test]
    fn explain_describe_mentions_the_tier() {
        let g = gnm_digraph(50, 120, 4);
        let idx = Index::build(&g);
        let batch = QueryBatch::new(&idx);
        let ex = &batch.explain(&[(0, 1)])[0];
        let line = ex.describe();
        assert!(line.contains("0 -> 1"), "{line}");
        assert!(line.contains(ex.tier.name()), "{line}");
    }

    #[test]
    fn oversubscribed_batch_agrees() {
        let g = gnm_digraph(300, 900, 6);
        let idx = Index::build(&g);
        let batch = QueryBatch::with_options(&idx, &BatchOptions { grain: 16, memo_bits: 8 });
        let queries = random_queries(300, 4000, 11);
        let seq = batch.answer_sequential(&queries);
        let par = pscc_runtime::with_threads(8, || batch.answer(&queries));
        assert_eq!(seq, par);
    }
}
