//! The traced pass: the same workload input, taken apart layer by layer.
//!
//! Nothing inside the program is instrumented here; every number is a
//! timed call to a layer's public function, or a count that function
//! returns, wrapped in a span (`<layer>.<function>`). Tight loops are one
//! span around the loop (a span per 30 ns parse would measure the span).
//! Layer names are the crate names. The end-to-end pass never runs with
//! this on; `trace.overhead_ratio` says what it would have cost.

use crate::inputs::{Change, DeltaStream, EdgeSet, Oracle, QueryGen};
use crate::run::{
    batch_qps, delta_count, final_check, final_queries, initial_oracle, kernel_phase, mixed_phase,
    outcome_counts, read_phase, record_reads, rtts_us, setup, snake_case, tarjan, Ack, Ledger,
    MixedLog, Options, Outcome, Phases, Shares, BATCH, ORACLE_SOURCES, WINDOW,
};
use crate::spec::{DELTA_OUTCOMES, GRAPH_SEED, PER_LAYER};
use crate::stats::{median, Summary};
use crate::trace::{self_times, Tracer};
use crate::wire::{Client, GRAPH};
use pscc_bag::HashBag;
use pscc_core::reach::{multi_reach, single_reach};
use pscc_core::stats::PHASES;
use pscc_core::{SccConfig, SccState};
use pscc_engine::{BatchOptions, Catalog, Delta, Index, IndexConfig, QueryBatch, SummaryTier};
use pscc_graph::{DiGraph, V};
use pscc_runtime::{with_threads, AtomicBits, SplitMix64};
use pscc_server::http::{
    parse_point_get_fast, parse_request, write_response, RESP_FALSE, RESP_TRUE,
};
use pscc_server::{CoalesceConfig, Lane};
use pscc_store::{DeltaRecord, Store, StoreMeta};
use pscc_table::{next_table_capacity, Insert, PairTable};
use std::hint::black_box;
use std::time::{Duration, Instant};

const MILLION: usize = 1 << 20;

/// Collects the per-layer metrics of one traced run.
struct Probe<'a> {
    opts: &'a Options,
    tracer: Tracer,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    ledger: Ledger,
    phases: Phases,
}

impl Probe<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Seconds of `reps` calls of `f`, each its own span.
    fn calls<R>(&mut self, span: &'static str, reps: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
        (0..reps).map(|rep| self.tracer.call(span, rep as u64, || black_box(f())).1).collect()
    }

    /// Seconds per call over one span around `iters` calls of `f`.
    fn tight_loop<R>(
        &mut self,
        span: &'static str,
        iters: usize,
        mut f: impl FnMut(usize) -> R,
    ) -> f64 {
        let ((), secs) = self.tracer.call(span, iters as u64, || {
            for i in 0..iters {
                black_box(f(i));
            }
        });
        secs / iters as f64
    }
}

/// `runtime`: the fork-join and the three primitives the kernel's rounds
/// are made of. An empty region is the floor under every round.
fn runtime_layer(p: &mut Probe) {
    let t = Instant::now();
    let width = p.opts.width;
    // Grain 1 over `width` indices: one block per worker, so a real fork.
    let forkjoin = p.tight_loop("runtime.par_for_grain", 2000, |_| {
        pscc_runtime::par_for_grain(width, 1, |_| ())
    });
    p.set("runtime.forkjoin_empty_us", forkjoin * 1e6);
    let pack =
        p.calls("runtime.pack_index", 15, || pscc_runtime::pack_index(MILLION, |i| i % 3 == 0));
    p.set("runtime.pack_index_1m_us", median(&pack) * 1e6);
    let mut rng = SplitMix64::new(p.opts.seed);
    let keys: Vec<u64> = (0..MILLION).map(|_| rng.next_u64()).collect();
    let sum = p
        .calls("runtime.par_sum_u64", 15, || pscc_runtime::par_sum_u64(MILLION, |i| keys[i] >> 60));
    p.set("runtime.par_sum_1m_us", median(&sum) * 1e6);
    let sort = p.calls("runtime.par_sort_unstable", 5, || {
        let mut v = keys.clone();
        pscc_runtime::par_sort_unstable(&mut v);
        v
    });
    p.set("runtime.sort_1m_ms", median(&sort) * 1e3);
    p.phases.add("runtime", t, 2000 + 15 + 15 + 5);
}

/// `bag` and `table`: the frontier and the pair set of a reachability
/// round, at the size a million-vertex graph gives them.
fn bag_and_table_layers(p: &mut Probe) {
    let t = Instant::now();
    let bag: HashBag<u32> = HashBag::new(MILLION);
    // The fixed cost of a round: a frontier of 64 in a bag sized for n.
    let small = p.tight_loop("bag.small_round", 2000, |round| {
        for i in 0..64u32 {
            bag.insert(round as u32 * 64 + i);
        }
        bag.extract_all().len()
    });
    p.set("bag.small_round_us", small * 1e6);
    let bulk = p.calls("bag.bulk_round", 5, || {
        pscc_runtime::par_for(MILLION, |i| bag.insert(i as u32));
        bag.extract_all().len()
    });
    p.set("bag.bulk_mops", MILLION as f64 / median(&bulk) / 1e6);

    let key = |i: usize| pscc_runtime::hash64(i as u64) >> 1;
    let mut tables = Vec::new();
    let insert = p.calls("table.insert", 3, || {
        let table = PairTable::with_capacity(MILLION);
        pscc_runtime::par_for(MILLION, |i| {
            assert!(table.insert(key(i)) != Insert::Full, "table sized for the keys");
        });
        tables.push(table);
    });
    p.set("table.insert_mops", MILLION as f64 / median(&insert) / 1e6);
    let mut grow = Vec::new();
    for (rep, mut table) in tables.into_iter().enumerate() {
        grow.push(p.tracer.call("table.grow", rep as u64, || table.grow()).1);
    }
    p.set("table.grow_ms", median(&grow) * 1e3);
    p.phases.add("bag_table", t, 2000 + 5 + 3 + 3);
}

/// `core` and `baselines`: the kernel on the workload's graph — phase
/// breakdown at full width, exact counts at width 1, the no-VGC variant,
/// and the two searches called directly.
fn core_layer(p: &mut Probe, g: &DiGraph, tarjan_labels: &[u32], tarjan_s: f64) {
    let t = Instant::now();
    let opts = p.opts;
    let cfg = SccConfig::default();
    let budget = Duration::from_secs_f64(opts.seconds * Shares::KERNEL / 2.0);
    let reps =
        kernel_phase(g, tarjan_labels, &cfg, opts.width, 1, budget, &mut p.tracer, &mut p.ledger);
    let scc_s = median(&reps.iter().map(|r| r.secs).collect::<Vec<_>>());
    p.set("core.scc_s", scc_s);
    for phase in PHASES {
        let mean =
            reps.iter().map(|r| r.stats.phase_seconds(phase)).sum::<f64>() / reps.len() as f64;
        p.metrics.push((metric_name(&format!("core.phase.{phase}_s")), mean));
    }

    // Width 1: no interleaving, so rounds and searches repeat exactly.
    let one =
        kernel_phase(g, tarjan_labels, &cfg, 1, 1, Duration::ZERO, &mut p.tracer, &mut p.ledger);
    let (w1_s, stats) = (&one[0].secs, &one[0].stats);
    p.set("core.rounds", stats.total_rounds() as f64);
    p.set("core.searches", stats.searches.len() as f64);
    p.set("core.batches", stats.num_batches as f64);
    p.set("core.trimmed", stats.trimmed as f64);
    p.set("core.per_round_us", scc_s * 1e6 / stats.total_rounds().max(1) as f64);
    p.set("core.scc_w1_s", *w1_s);
    p.set("core.self_speedup", w1_s / scc_s);

    let plain = SccConfig::plain();
    let novgc =
        kernel_phase(g, tarjan_labels, &plain, 1, 1, Duration::ZERO, &mut p.tracer, &mut p.ledger);
    p.set("core.novgc_s", novgc[0].secs);
    p.set("core.novgc_rounds", novgc[0].stats.total_rounds() as f64);

    // One search from inside the largest SCC, one batch from 8 seeded
    // sources, on untouched labels (every vertex in one subproblem).
    let state = SccState::new(g.n());
    let pivot = largest_component_member(tarjan_labels);
    let visited = AtomicBits::new(g.n());
    let (single, single_s) = p.tracer.call("core.single_reach", 0, || {
        single_reach(g, pivot, true, &state.labels, &cfg.single_params(), &visited)
    });
    p.set("core.single_reach_s", single_s);
    p.set("core.single_reach_rounds", single.rounds as f64);
    let mut rng = SplitMix64::new(opts.seed ^ 0x5eed);
    let sources: Vec<V> = (0..8).map(|_| rng.next_below(g.n() as u64) as V).collect();
    let mut table = PairTable::with_capacity(next_table_capacity(0, g.n()));
    let (multi, multi_s) = p.tracer.call("core.multi_reach", 0, || {
        multi_reach(g, &sources, true, &state.labels, &cfg.multi_params(), &mut table)
    });
    p.set("core.multi_reach_s", multi_s);
    p.set("core.multi_reach_edges_per_us", multi.edges_scanned as f64 / (multi_s * 1e6));

    p.set("baselines.tarjan_s", tarjan_s);
    p.set("baselines.scc_vs_seq", tarjan_s / scc_s);
    p.notes.push(format!(
        "kernel: {} reps at width {}, first search {}; single_reach visited {} in {} rounds ({} dense); \
         multi_reach {} pairs, {} edges, {:.3}s resizing",
        reps.len(),
        opts.width,
        if stats.searches.first().is_some_and(|s| s.multi) { "multi-source" } else { "single-source" },
        single.visited,
        single.rounds,
        single.dense_rounds,
        multi.pairs_added,
        multi.edges_scanned,
        multi.resize_seconds,
    ));
    p.phases.add("core", t, reps.len() + 4);
}

/// The table's own `&'static str` for a metric name built at run time.
fn metric_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not in spec::PER_LAYER"))
        .name
}

fn largest_component_member(labels: &[u32]) -> V {
    let mut sizes = vec![0u32; labels.len()];
    for &l in labels {
        sizes[l as usize] += 1;
    }
    let biggest = (0..sizes.len()).max_by_key(|&l| sizes[l]).expect("non-empty graph") as u32;
    labels.iter().position(|&l| l == biggest).expect("label in use") as V
}

/// `graph`: CSR construction and the one-edge merge every delta pays.
fn graph_layer(p: &mut Probe, g: &DiGraph, generate_s: f64) {
    let t = Instant::now();
    p.set("graph.generate_s", generate_s);
    let edges: Vec<(V, V)> = g.out_csr().edges().collect();
    let from_edges = p.calls("graph.DiGraph.from_edges", 1, || DiGraph::from_edges(g.n(), &edges));
    p.set("graph.from_edges_s", from_edges[0]);
    let last = g.n() as V - 1;
    let merge = p.calls("graph.DiGraph.with_delta", 5, || g.with_delta(&[(0, last)], &[]));
    p.set("graph.with_delta_ms", median(&merge) * 1e3);
    p.phases.add("graph", t, 6);
}

/// `engine`, read side: index build stages, one query through each
/// summary tier, the batch executor with and without its memo, and the
/// memo hit ratio this workload's read mix actually gets.
fn engine_read_layer(
    p: &mut Probe,
    g: &DiGraph,
    index: &Index,
    tarjan_labels: &[u32],
    oracle: &Oracle,
) {
    let t = Instant::now();
    let opts = p.opts;
    let stats = index.stats();
    p.set("engine.index.scc_s", stats.scc_seconds);
    p.set("engine.index.condense_s", stats.condense_seconds);
    p.set("engine.index.levels_s", stats.levels_seconds);
    p.set("engine.index.summary_s", stats.summary_seconds);
    p.set("engine.index.components", stats.num_components as f64);
    p.set("engine.index.summary_bytes", stats.summary_bytes as f64);
    p.set("engine.index.label_entries", stats.label_entries as f64);

    // Tier-forced indexes over the same condensation (Tarjan's labels, so
    // no second kernel run): labels unless the default index already is.
    let forced = |labels: bool| {
        let cfg = IndexConfig {
            bitset_budget_bytes: 0,
            label_min_components: 0,
            label_budget_bytes: if labels { usize::MAX } else { 0 },
            ..IndexConfig::default()
        };
        Index::from_condensation(pscc_apps::condense(g, tarjan_labels), &cfg)
    };
    let mut fresh = QueryGen::new(crate::inputs::Dist::Fresh, g.n(), oracle, opts.seed, 5000);
    let mut queries = Vec::new();
    fresh.fill(&mut queries, 100_000);
    let reach_ns = |p: &mut Probe, span, index: &Index, want: SummaryTier, count: usize| {
        assert_eq!(index.tier(), want, "tier was forced");
        let mut hits = 0usize;
        let per_call = p.tight_loop(span, count, |i| {
            hits += index.reaches(queries[i].0, queries[i].1) as usize
        });
        (per_call * 1e9, hits as f64 / count as f64)
    };
    let labels_forced;
    let labels_index = if index.tier() == SummaryTier::Labels {
        index
    } else {
        labels_forced = p.tracer.call("engine.Index.from_condensation", 0, || forced(true)).0;
        &labels_forced
    };
    let (labels_ns, positive) = reach_ns(
        p,
        "engine.Index.reaches.labels",
        labels_index,
        SummaryTier::Labels,
        queries.len(),
    );
    let (intervals_index, _) = p.tracer.call("engine.Index.from_condensation", 1, || forced(false));
    // A pruned-DFS fallback can cost tens of microseconds: a tenth of the
    // sample keeps this probe under a second on the lattice.
    let (intervals_ns, _) = reach_ns(
        p,
        "engine.Index.reaches.intervals",
        &intervals_index,
        SummaryTier::Intervals,
        queries.len() / 10,
    );
    p.set("engine.reach_ns.labels", labels_ns);
    p.set("engine.reach_ns.intervals", intervals_ns);

    // The executor on fresh 512-query batches: default, memo off, and
    // sequential; then the hit ratio on the workload's own read mix.
    let batches: Vec<Vec<(V, V)>> = queries.chunks(BATCH).take(128).map(<[_]>::to_vec).collect();
    let executors = [
        ("engine.QueryBatch.answer", QueryBatch::new(index), false),
        (
            "engine.QueryBatch.answer.memo_off",
            QueryBatch::with_options(
                index,
                &BatchOptions { memo_bits: 0, ..BatchOptions::default() },
            ),
            false,
        ),
        ("engine.QueryBatch.answer_sequential", QueryBatch::new(index), true),
    ];
    let mut secs = Vec::new();
    for (span, executor, sequential) in &executors {
        let mut rep = 0;
        secs.push(p.calls(span, batches.len(), || {
            rep += 1;
            if *sequential {
                executor.answer_sequential(&batches[rep - 1])
            } else {
                executor.answer(&batches[rep - 1])
            }
        }));
    }
    p.set("engine.batch512_us", median(&secs[0]) * 1e6);
    p.set("engine.batch.memo_off_qps", batch_qps(&secs[1]));
    p.set("engine.batch.seq_qps", batch_qps(&secs[2]));
    let executor = QueryBatch::new(index);
    let mut mix = QueryGen::new(opts.workload.dist, g.n(), oracle, opts.seed, 5001);
    for _ in 0..128 {
        mix.fill(&mut queries, BATCH);
        let answers = executor.answer(&queries);
        let (judged, wrong) = oracle.check(&queries, answers.into_iter());
        p.ledger.record("engine_answers", judged, wrong);
    }
    let memo = executor.stats();
    p.set("engine.memo.hit_ratio", memo.memo_hits as f64 / memo.queries.max(1) as f64);
    p.notes.push(format!(
        "engine: default tier {:?}, {} components, {:.1} % of fresh pairs reachable",
        index.tier(),
        stats.num_components,
        positive * 100.0
    ));
    p.phases.add("engine_read", t, 110_000 + 4 * 128);
}

/// `store`: the snapshot a `persist_to` writes, the fsynced append every
/// durable delta waits for, and the reopen a recovery starts with.
fn store_layer(p: &mut Probe, g: &DiGraph) {
    let t = Instant::now();
    let dir = p.opts.out_dir.join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (store, create_s) =
        p.tracer.call("store.Store.create", 0, || Store::create(&dir, g, StoreMeta::default()));
    let store = store.expect("create a store under benchmark/out");
    p.set("store.create_ms", create_s * 1e3);
    p.set("store.snapshot_bytes_per_edge", store.snapshot_bytes() as f64 / g.m() as f64);
    let appends = 200;
    let fsync = p.calls("store.Store.append", appends, || {
        let record = DeltaRecord { insertions: vec![(0, 1)], deletions: Vec::new() };
        store.append(&record).expect("append to the WAL")
    });
    p.set("store.append_fsync_us", median(&fsync) * 1e6);
    p.set("store.wal_bytes_per_delta", store.wal_bytes() as f64 / appends as f64);
    drop(store);
    let (reopened, open_s) = p.tracer.call("store.Store.open", 0, || Store::open(&dir));
    let (_, recovery) = reopened.expect("reopen the store");
    assert_eq!(recovery.replayed.len(), appends, "every fsynced append is replayed");
    p.set("store.open_ms", open_s * 1e3);
    let _ = std::fs::remove_dir_all(&dir);
    p.phases.add("store", t, appends + 2);
}

/// `server`, without sockets: the parser and formatter over a prebuilt
/// window, and the admission lane called directly.
/// Returns `(parse, format, engine, lane_window, lane1)` microseconds per window.
fn server_offline_layer(p: &mut Probe, catalog: &Catalog, oracle: &Oracle, n: usize) -> [f64; 5] {
    let t = Instant::now();
    let opts = p.opts;
    let mut gen = QueryGen::new(crate::inputs::Dist::Fresh, n, oracle, opts.seed, 6000);
    let mut queries = Vec::new();
    gen.fill(&mut queries, WINDOW);
    let mut window = Vec::new();
    let mut starts = Vec::new();
    for &(u, v) in &queries {
        starts.push(window.len());
        window.extend_from_slice(
            format!("GET /reach/{GRAPH}?u={u}&v={v} HTTP/1.1\r\n\r\n").as_bytes(),
        );
    }
    let iters = 400 * WINDOW;
    let fast = p.tight_loop("server.http.parse_point_get_fast", iters, |i| {
        parse_point_get_fast(&window[starts[i % WINDOW]..]).expect("a point GET").3
    });
    let slow = p.tight_loop("server.http.parse_request", iters, |i| {
        parse_request(&window[starts[i % WINDOW]..]).expect("well-formed").expect("complete").1
    });
    let mut out = Vec::with_capacity(64 * WINDOW);
    let general = p.tight_loop("server.http.write_response", iters, |i| {
        if i % WINDOW == 0 {
            out.clear();
        }
        write_response(&mut out, 200, "OK", b"1");
    });
    // What the hot path really appends per answer: a preformatted reply.
    let format = p.tight_loop("server.http.preformatted", iters, |i| {
        if i % WINDOW == 0 {
            out.clear();
        }
        out.extend_from_slice(if i % 2 == 0 { RESP_TRUE } else { RESP_FALSE });
    });
    p.set("server.http.parse_fast_ns", fast * 1e9);
    p.set("server.http.parse_ns", slow * 1e9);
    p.set("server.http.write_response_ns", general * 1e9);

    // A window is one full lane batch, so its engine stage is one submit
    // of `WINDOW` queries; the lane is probed by `conns` submitters at
    // once, as on the wire.
    let submitter = catalog.submitter(GRAPH).expect("graph exists");
    let engine = p.calls("engine.BatchSubmitter.submit", 400, || {
        gen.fill(&mut queries, WINDOW);
        submitter.submit(&queries)
    });
    let lane =
        Lane::start(catalog.submitter(GRAPH).expect("graph exists"), CoalesceConfig::default())
            .expect("start a lane");
    let timeout = Duration::from_secs(5);
    let (lane_window, _) = p.tracer.scope("server.Lane.submit_wait", 0, |tracer| {
        let children: Vec<(Vec<f64>, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..opts.conns as u64)
                .map(|c| {
                    let mut tracer = tracer.fork();
                    let mut gen =
                        QueryGen::new(crate::inputs::Dist::Fresh, n, oracle, opts.seed, 6100 + c);
                    let lane = &lane;
                    scope.spawn(move || {
                        let mut queries = Vec::new();
                        let secs = (0..400)
                            .map(|rep| {
                                gen.fill(&mut queries, WINDOW);
                                let call =
                                    || lane.submit_wait(&queries, timeout).expect("lane answers");
                                tracer.call("server.Lane.submit_wait.group", rep, call).1
                            })
                            .collect();
                        (secs, tracer)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("submitter thread")).collect()
        });
        let mut all = Vec::new();
        for (secs, child) in children {
            tracer.adopt(child);
            all.extend(secs);
        }
        all
    });
    let lane1 = p.calls("server.Lane.submit_wait.single", 400, || {
        gen.fill(&mut queries, 1);
        lane.submit_wait(&queries, timeout).expect("lane answers")
    });
    drop(lane);
    p.set("server.lane.submit_window_us", median(&lane_window) * 1e6);
    p.set("server.lane.submit1_us", median(&lane1) * 1e6);
    p.phases.add("server_offline", t, 4 * iters + (2 + opts.conns) * 400);
    let per_window = WINDOW as f64 * 1e6;
    [
        fast * per_window,
        format * per_window,
        median(&engine) * 1e6,
        median(&lane_window) * 1e6,
        median(&lane1) * 1e6,
    ]
}

/// Runs the traced pass, every direct call into the program at
/// `opts.width`.
pub fn per_layer(opts: &Options) -> Outcome {
    with_threads(opts.width, || per_layer_at_width(opts))
}

fn per_layer_at_width(opts: &Options) -> Outcome {
    let mut probe = Probe {
        opts,
        tracer: Tracer::new(true),
        metrics: Vec::new(),
        notes: Vec::new(),
        ledger: Ledger::default(),
        phases: Phases::default(),
    };
    let p = &mut probe;
    let w = opts.workload;

    let t = Instant::now();
    let (stack, setup_times) = setup(opts, 0, &mut p.tracer);
    p.phases.add("setup", t, 1);
    p.set("engine.persist_ms", setup_times.persist * 1e3);
    let g = stack.graph.clone();
    let n = g.n();
    let index = stack.catalog.index(GRAPH).expect("graph exists");

    let t = Instant::now();
    let mut edges = EdgeSet::of(&g);
    let oracle = initial_oracle(&edges, opts);
    let (tarjan_labels, tarjan_s) = tarjan(&g, &mut p.tracer);
    p.phases.add("oracles", t, ORACLE_SOURCES + 1);

    runtime_layer(p);
    bag_and_table_layers(p);
    core_layer(p, &g, &tarjan_labels, tarjan_s);
    graph_layer(p, &g, setup_times.generate);
    engine_read_layer(p, &g, &index, &tarjan_labels, &oracle);
    drop(index);
    store_layer(p, &g);
    let [parse_us, format_us, engine_us, lane_window_us, lane1_us] =
        server_offline_layer(p, &stack.catalog, &oracle, n);

    // `server`, on the wire: the same load as the end-to-end pass, half of
    // it with spans on and half with them off, which is the overhead. The
    // order on, off, off, on keeps warm-up and drift out of the ratio.
    let t = Instant::now();
    let before = stack.server.port_stats(GRAPH).expect("the warm-up window opened the lane");
    let budget = Duration::from_secs_f64(opts.seconds * Shares::WIRE / 8.0);
    let mut halves = [Vec::new(), Vec::new()];
    for (quarter, traced) in [true, false, false, true].into_iter().enumerate() {
        p.tracer.set_on(traced);
        let make_gen =
            |c: u64| QueryGen::new(w.dist, n, &oracle, opts.seed, 2000 + quarter as u64 * 64 + c);
        let logs = read_phase(
            stack.addr(),
            "phase.wire",
            &make_gen,
            Some(&oracle),
            opts.conns,
            WINDOW,
            budget,
            false,
            &mut p.tracer,
        );
        record_reads(&mut p.ledger, &logs);
        halves[!traced as usize].extend(rtts_us(&logs));
    }
    p.tracer.set_on(true);
    let after = stack.server.port_stats(GRAPH).expect("lane exists");
    let (traced_us, untraced_us) = (Summary::of(&halves[0]), Summary::of(&halves[1]));
    let batches = after.batches_formed - before.batches_formed;
    p.set("server.batches_formed", batches as f64);
    p.set(
        "server.mean_batch",
        (after.queries_coalesced - before.queries_coalesced) as f64 / batches.max(1) as f64,
    );
    p.set("server.window_p50_us", untraced_us.p50);
    p.set("server.window_p99_us", untraced_us.at(99.0));
    p.set("trace.overhead_ratio", traced_us.p50 / untraced_us.p50);
    p.notes.push(describe("window round trip (spans off)", &untraced_us));
    p.phases.add("wire", t, traced_us.n + untraced_us.n);

    let t = Instant::now();
    let make_gen = |c: u64| QueryGen::new(w.dist, n, &oracle, opts.seed, 3000 + c);
    let budget = Duration::from_secs_f64(opts.seconds * Shares::POINT / 4.0);
    let logs = read_phase(
        stack.addr(),
        "phase.point",
        &make_gen,
        Some(&oracle),
        1,
        1,
        budget,
        false,
        &mut p.tracer,
    );
    record_reads(&mut p.ledger, &logs);
    let point = Summary::of(&rtts_us(&logs));
    p.set("server.point_p50_us", point.p50);
    p.set("server.point_p99_us", point.at(99.0));
    p.set("server.point_lane_share", lane1_us / point.p50);
    p.notes.push(describe("point round trip", &point));
    p.phases.add("point", t, point.n);

    let (lane_wait_us, wire_us) =
        stage_budget(parse_us, format_us, engine_us, lane_window_us, untraced_us.p50);
    p.set("server.stage.parse_us", parse_us);
    p.set("server.stage.lane_wait_us", lane_wait_us);
    p.set("server.stage.engine_us", engine_us);
    p.set("server.stage.format_us", format_us);
    p.set("server.stage.wire_us", wire_us);

    // `engine`, write side: the workload's write phase with each delta
    // applied in process (durably: the fsync inside is
    // `store.append_fsync_us`) while the read windows go over the wire.
    let t = Instant::now();
    let mut deltas = DeltaStream::new(GRAPH_SEED);
    let mut gen = QueryGen::new(w.dist, n, &oracle, opts.seed, 4000);
    let catalog = stack.catalog.clone();
    let mut apply_in_process = |_: &mut Client, tracer: &mut Tracer, op: u64, change: Change| {
        let mut delta = Delta::new();
        match change {
            Change::Insert(u, v) => delta.insert(u, v),
            Change::Delete(u, v) => delta.delete(u, v),
        };
        let (report, secs) =
            tracer.call("engine.Catalog.apply_delta", op, || catalog.apply_delta(GRAPH, &delta));
        let outcome = report
            .as_ref()
            .map_or("error".to_string(), |r| snake_case(&format!("{:?}", r.outcome)));
        Ack { outcome, applied: report.is_ok_and(|r| r.inserted + r.deleted == 1), secs }
    };
    let MixedLog { acks, after_delta_us } = mixed_phase(
        stack.addr(),
        &mut gen,
        &mut deltas,
        &mut edges,
        delta_count(opts.seconds),
        &mut p.tracer,
        &mut p.ledger,
        &mut apply_in_process,
    );
    drop(catalog);
    for outcome in DELTA_OUTCOMES {
        let ms: Vec<f64> = acks.iter().filter(|a| a.0 == outcome).map(|a| a.1 * 1e3).collect();
        p.set(
            metric_name(&format!("engine.delta.{outcome}_ms")),
            if ms.is_empty() { 0.0 } else { median(&ms) },
        );
        p.set(metric_name(&format!("engine.delta.{outcome}_n")), ms.len() as f64);
    }
    p.set("server.window_after_delta_us", median(&after_delta_us));
    p.notes.push(format!("delta outcomes: {:?}", outcome_counts(&acks)));
    p.phases.add("writes", t, acks.len());

    let t = Instant::now();
    let post = Oracle::build(&edges.csr(), ORACLE_SOURCES / 4, opts.seed ^ 1, opts.conns);
    let queries = final_queries(&post, n, opts.seed);
    final_check(stack.addr(), &post, &queries, &mut p.ledger);
    p.phases.add("post_delta_check", t, queries.len());
    let overloads = stack.server.port_stats(GRAPH).map_or(0, |s| s.overloads);
    p.set("server.overloads", overloads as f64);
    drop(g);
    let dir = stack.stop();
    let _ = std::fs::remove_dir_all(dir);

    // Flush the spans and say where each name's time went.
    p.set("trace.spans", p.tracer.spans().len() as f64);
    let path = opts.out_dir.join(format!("trace-{}.json", w.name));
    if let Err(e) = std::fs::write(&path, p.tracer.to_json().compact()) {
        eprintln!("pscc-benchmark: cannot write {}: {e}", path.display());
    }
    for (name, totals) in self_times(p.tracer.spans()) {
        p.notes.push(format!(
            "span {name:<40} n={:<6} total {:>10.3} ms  self {:>10.3} ms",
            totals.count,
            totals.total_ns as f64 / 1e6,
            totals.self_ns as f64 / 1e6
        ));
    }
    p.notes.push(format!(
        "stage budget of a {WINDOW}-GET window: parse {parse_us:.1} + lane wait {lane_wait_us:.1} + engine \
         {engine_us:.1} + format {format_us:.1} + wire (rest) = window p50 {:.1} us; a lone GET waits \
         {lane1_us:.1} us in the lane of {:.1} us round trip",
        untraced_us.p50, point.p50
    ));
    Outcome {
        metrics: std::mem::take(&mut p.metrics),
        extras: Vec::new(),
        ledger: std::mem::take(&mut p.ledger),
        phases: std::mem::take(&mut p.phases).0,
        notes: std::mem::take(&mut p.notes),
    }
}

/// A latency sample as the report quotes it: median, and the highest
/// percentile with at least ten samples beyond it.
fn describe(what: &str, s: &Summary) -> String {
    let tail = s.tail.map_or("no tail supported".to_string(), |(p, v)| format!("p{p} {v:.1} us"));
    format!(
        "{what}: n={} p50 {:.1} us, p99 {:.1} us, highest supported tail {tail}",
        s.n,
        s.p50,
        s.at(99.0)
    )
}

/// The stage budget of one pipelined window. Parse, engine and format are
/// measured alone; lane wait is the lane call minus the engine call inside
/// it; wire is what is left of the observed round trip (socket writes and
/// reads, wake-ups, queueing behind the other connection) — negative if
/// the stages measured alone overlap on the wire. Returns `(lane_wait,
/// wire)`; the five stages always sum to `window`.
fn stage_budget(parse: f64, format: f64, engine: f64, lane_window: f64, window: f64) -> (f64, f64) {
    let lane_wait = (lane_window - engine).max(0.0);
    (lane_wait, window - parse - lane_wait - engine - format)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_outcome_and_phase_has_its_metric() {
        for outcome in DELTA_OUTCOMES {
            metric_name(&format!("engine.delta.{outcome}_ms"));
            metric_name(&format!("engine.delta.{outcome}_n"));
        }
        for phase in PHASES {
            metric_name(&format!("core.phase.{phase}_s"));
        }
        // The program's own spelling of every repair outcome maps onto them.
        use pscc_engine::DeltaOutcome::*;
        let spelled: Vec<String> =
            [Absorbed, DagSpliced, RegionRecomputed, ArcUnspliced, SccSplit, Rebuilt]
                .iter()
                .map(|o| snake_case(&format!("{o:?}")))
                .collect();
        assert_eq!(spelled, DELTA_OUTCOMES);
    }

    #[test]
    fn stage_budget_leaves_wire_as_the_rest() {
        let (parse, format, engine, lane_window, window) = (8.0, 3.0, 40.0, 95.0, 220.0);
        let (lane_wait, wire) = stage_budget(parse, format, engine, lane_window, window);
        assert_eq!((lane_wait, wire), (55.0, 114.0));
        assert_eq!(parse + lane_wait + engine + format + wire, window);
        // A lane call faster than the engine call alone (noise) waits 0,
        // and the budget still sums to the window.
        let (lane_wait, wire) = stage_budget(8.0, 3.0, 40.0, 35.0, 100.0);
        assert_eq!((lane_wait, wire), (0.0, 49.0));
    }
}
