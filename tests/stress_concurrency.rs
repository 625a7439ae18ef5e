//! Concurrency stress tests: run the concurrent structures and algorithms
//! under oversubscribed thread pools (more workers than cores) so genuine
//! interleavings occur even on narrow CI hosts.

use parallel_scc::engine::Delta;
use parallel_scc::prelude::*;
use parallel_scc::runtime::{par_for, with_threads};
use parallel_scc::scc::verify::same_partition;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn bag_under_oversubscribed_pool() {
    with_threads(8, || {
        let n = 300_000;
        let bag: HashBag<u32> = HashBag::new(n);
        for round in 0..3 {
            par_for(n, |i| bag.insert(i as u32));
            let got = bag.extract_all();
            assert_eq!(got.len(), n, "round {round}");
        }
    });
}

#[test]
fn bag_interleaved_sizes_stress() {
    // Alternate tiny and large rounds to exercise chunk-cursor resets.
    with_threads(4, || {
        let bag: HashBag<u32> = HashBag::new(100_000);
        for round in 0..20 {
            let k = if round % 2 == 0 { 17 } else { 60_000 };
            par_for(k, |i| bag.insert(i as u32));
            assert_eq!(bag.extract_all().len(), k, "round {round}");
        }
    });
}

#[test]
fn table_concurrent_insert_contains_mix() {
    use parallel_scc::table::{Insert, PairTable};
    with_threads(8, || {
        let t = PairTable::with_capacity(200_000);
        let added = AtomicUsize::new(0);
        // Each key contended by 4 workers; membership probes interleave.
        par_for(400_000, |i| {
            let key = (i / 4) as u64;
            if t.insert(key) == Insert::Added {
                added.fetch_add(1, Ordering::Relaxed);
            }
            // Reads racing writes must never see phantom keys.
            assert!(!t.contains(1_000_000 + key));
        });
        assert_eq!(added.load(Ordering::Relaxed), 100_000);
        assert_eq!(t.len(), 100_000);
    });
}

#[test]
fn union_find_oversubscribed_agrees_with_oracle() {
    use parallel_scc::cc::ConcurrentUnionFind;
    with_threads(8, || {
        let n = 50_000;
        let uf = ConcurrentUnionFind::new(n);
        // Star unions from many threads at once.
        par_for(n - 1, |i| {
            uf.unite(0, i as u32 + 1);
        });
        let labels = uf.labels();
        assert!(labels.iter().all(|&l| l == 0));
    });
}

#[test]
fn scc_partition_stable_across_pool_widths() {
    let g = parallel_scc::graph::generators::random::gnm_digraph(2_000, 8_000, 77);
    let want = tarjan_scc(&g);
    for threads in [1usize, 2, 4, 8] {
        let got = with_threads(threads, || parallel_scc(&g, &SccConfig::default()));
        assert!(same_partition(&got.labels, &want), "threads={threads}");
        // Deterministic labeling must hold regardless of pool width.
        let again = with_threads(threads, || parallel_scc(&g, &SccConfig::default()));
        assert_eq!(got.labels, again.labels, "threads={threads} nondeterministic");
    }
}

#[test]
fn lelists_exact_under_oversubscription() {
    let g = parallel_scc::graph::generators::random::gnm_digraph(400, 1600, 5).symmetrize();
    let perm = parallel_scc::runtime::random_permutation(g.n(), 9);
    let want = cohen_le_lists(&g, &perm);
    for threads in [2usize, 8] {
        let got = with_threads(threads, || {
            parallel_scc::lelists::bgss::le_lists_with_priority(
                &g,
                &perm,
                &LeListsConfig::default(),
            )
            .0
        });
        assert_eq!(got, want, "threads={threads}");
    }
}

/// An IndexConfig that makes index builds take long enough for another
/// thread to reliably land work mid-build: force the interval tier (no
/// bitset shortcut) with many randomized labelings over a large DAG.
fn slow_build_config(labelings: usize) -> IndexConfig {
    IndexConfig { bitset_budget_bytes: 0, labelings, exception_cap: 0, ..IndexConfig::default() }
}

/// Closes the ROADMAP open item, part 1: while `apply_delta` is merging
/// and rebuilding **off-lock**, queries against the same graph keep being
/// answered from the old index instead of stalling for the rebuild.
#[test]
fn queries_answered_from_old_index_during_delta_rebuild() {
    // Sparse digraph -> a DAG with ~n components, so the forced interval
    // tier rebuild costs a long, measurable time.
    let n = 200_000usize;
    let g = parallel_scc::graph::generators::random::gnm_digraph(n, 300_000, 42);
    // An edge absent from the graph, so the insertion is effective.
    let absent_edge = (0..n as V)
        .map(|k| ((k.wrapping_mul(7919)) % n as V, (k.wrapping_mul(104_729) + 1) % n as V))
        .find(|&(u, v)| u != v && g.out_neighbors(u).binary_search(&v).is_err())
        .expect("a sparse graph has absent pairs");
    let cat = Arc::new(Catalog::new());
    cat.insert_with_config(
        "g",
        g,
        slow_build_config(10),
        parallel_scc::engine::BatchOptions::default(),
    );
    let index = cat.index("g").expect("eager first build");
    // An intra-SCC edge is always a *structural* deletion (only the
    // split check could classify it) — mixed with the insertion below,
    // the planner must price the delta out to a full rebuild.
    let doomed_edge = cat
        .graph("g")
        .expect("registered")
        .out_csr()
        .edges()
        .find(|&(u, v)| u != v && index.comp(u) == index.comp(v))
        .expect("gnm(200k, 300k) has a giant SCC with intra edges");
    drop(index);

    let rebuild_done = Arc::new(AtomicBool::new(false));
    let writer = {
        let cat = cat.clone();
        let done = rebuild_done.clone();
        std::thread::spawn(move || {
            // A structural deletion mixed with an effective insertion is
            // priced out of every localized tier (deletions alone now
            // repair in place): a full (slow) rebuild, guaranteed.
            let mut d = Delta::new();
            d.delete(doomed_edge.0, doomed_edge.1).insert(absent_edge.0, absent_edge.1);
            let report = cat.apply_delta("g", &d).expect("valid delta");
            done.store(true, Ordering::Release);
            report
        })
    };

    // While the writer merges + rebuilds off-lock, queries must keep
    // flowing. The witness is the entry's `rebuild_in_flight` telemetry
    // gauge (1 exactly while the off-lock `Index::build` runs): a batch
    // that starts *and* finishes with the gauge raised was served in its
    // entirety from the old index, with no timing heuristics involved.
    let in_flight = parallel_scc::telemetry::gauge("pscc_catalog_rebuild_in_flight{graph=\"g\"}");
    let queries: Vec<(V, V)> = (0..256).map(|i| (i as V, (i * 7 + 1) as V)).collect();
    let mut batches_during_rebuild = 0u64;
    while !rebuild_done.load(Ordering::Acquire) {
        let raised_before = in_flight.get() > 0;
        let answers = cat.answer_batch("g", &queries).expect("registered");
        assert_eq!(answers.len(), queries.len());
        if raised_before && in_flight.get() > 0 {
            batches_during_rebuild += 1;
        }
    }
    let report = writer.join().expect("writer thread");
    assert_eq!(report.outcome, parallel_scc::engine::DeltaOutcome::Rebuilt);
    assert!(
        batches_during_rebuild > 0,
        "no batch was served while the rebuild gauge was raised \
         (old behavior: merge under the entry mutex)"
    );
    assert_eq!(in_flight.get(), 0, "the gauge must drop once the rebuild installs");
    // After the swap, answers reflect the deletion-rebuilt index.
    assert_eq!(
        cat.index("g").unwrap().stats().built_by,
        parallel_scc::engine::BuildCause::DeltaRebuild
    );
}

/// Closes the ROADMAP open item, part 2: an `apply_delta` racing an
/// off-lock (lazy first-query) index build is detected via the
/// generation counter — the stale build is discarded and retried, and
/// the delta is never lost.
#[test]
fn racing_delta_during_off_lock_build_is_detected_not_lost() {
    let n = 200_000usize;
    let mut raced = false;
    for attempt in 0..10u64 {
        let name = format!("g{attempt}");
        let g = parallel_scc::graph::generators::random::gnm_digraph(n, 300_000, 100 + attempt);
        // An edge absent from the graph: the delta is always effective.
        let mut rng = pscc_runtime::SplitMix64::new(0x5eed ^ attempt);
        let new_edge = loop {
            let (u, v) = (rng.next_below(n as u64) as V, rng.next_below(n as u64) as V);
            if u != v && g.out_neighbors(u).binary_search(&v).is_err() {
                break (u, v);
            }
        };
        let cat = Arc::new(Catalog::new());
        cat.insert_with_config(
            &name,
            g,
            slow_build_config(8),
            parallel_scc::engine::BatchOptions::default(),
        );

        // Thread 1: first query triggers the lazy off-lock build.
        let builder = {
            let (cat, name) = (cat.clone(), name.clone());
            std::thread::spawn(move || cat.index(&name).expect("registered"))
        };
        // Thread 2 (here): land a delta mid-build.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut d = Delta::new();
        d.insert(new_edge.0, new_edge.1);
        cat.apply_delta(&name, &d).expect("valid delta");
        let _ = builder.join().expect("builder thread");

        // The delta must never be lost, raced or not. (The builder's own
        // return value may legitimately be the pre-delta index — if it
        // installed just before the swap, the *delta's* Deferred branch
        // discards it — so the authoritative check goes through the
        // catalog, which always reflects the post-delta graph.)
        assert!(
            cat.graph(&name).unwrap().out_neighbors(new_edge.0).contains(&new_edge.1),
            "attempt {attempt}: inserted edge vanished"
        );
        assert_eq!(cat.reaches(&name, new_edge.0, new_edge.1), Some(true));
        if cat.discarded_builds(&name) == Some(0) {
            continue; // delta landed before/after the build window; retry
        }
        // The race happened: the generation counter detected the swap and
        // the stale index was discarded instead of shadowing the delta.
        assert_eq!(cat.generation(&name), Some(1));
        // The discard is also visible through the entry's telemetry
        // counter, which mirrors `discarded_builds` exactly.
        let discarded = parallel_scc::telemetry::counter(&format!(
            "pscc_catalog_stale_builds_discarded_total{{graph=\"{name}\"}}"
        ));
        assert_eq!(Some(discarded.get()), cat.discarded_builds(&name));
        raced = true;
        break;
    }
    assert!(raced, "no attempt raced the delta against the off-lock build");
}

#[test]
fn repeated_runs_shake_out_races() {
    // Same computation many times under a wide pool: any latent race shows
    // up as a partition difference eventually.
    let g = parallel_scc::graph::generators::lattice::lattice_sqr(25, 25, 3);
    let want = tarjan_scc(&g);
    with_threads(8, || {
        for run in 0..25 {
            let got = parallel_scc(&g, &SccConfig::default());
            assert!(same_partition(&got.labels, &want), "run {run}");
        }
    });
}
