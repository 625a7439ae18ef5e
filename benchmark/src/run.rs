//! The end-to-end pass: one workload's input pushed through the whole
//! stack — kernel, index build, batch executor, server, durable writes,
//! recovery — with tracing off, every answer checked against an oracle.
//!
//! Load comes from this process, closed loop: each client sends its next
//! request only after the previous reply, and there are never more client
//! threads than cores. The read phases split `--seconds` by the fixed
//! shares in [`Shares`], in a dozen short slices over three separately set
//! up instances of the stack; the write phase is a fixed sequence of
//! operations; set-up and recovery repeat a fixed number of times.

use crate::inputs::{generate, Change, DeltaStream, Dist, EdgeSet, Oracle, QueryGen, ORACLE_EVERY};
use crate::spec::{Better, Workload, GRAPH_SEED};
use crate::stats::{best_quartile, median};
use crate::trace::Tracer;
use crate::wire::{Client, GRAPH};
use pscc_core::{parallel_scc_with_stats, same_partition, SccConfig, SccStats};
use pscc_engine::{BatchSubmitter, Catalog};
use pscc_graph::{DiGraph, V};
use pscc_server::{ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Single-query GETs per pipelined window: one full lane batch (the lane
/// dispatches at 512 pending queries), so a window never waits for the other
/// connection or for the 150 us deadline. With 256, two closed-loop
/// connections fall in and out of lock-step — both windows in one batch
/// (140 us) or alternating and waiting for each other (220 us) — and every
/// wire metric was bimodal slice by slice. The deadline path is what the
/// point phase measures.
pub const WINDOW: usize = 512;
/// Queries per in-process engine batch.
pub const BATCH: usize = 512;
/// Read windows between two writes in the write phase.
pub const WINDOWS_PER_DELTA: usize = 8;
/// Timed kernel calls per round at least, however long one takes: on the
/// two kernel workloads a call outlasts the round's share of `--seconds`.
pub const KERNEL_REPS_PER_ROUND: usize = 2;
/// BFS sources of the oracle.
pub const ORACLE_SOURCES: usize = 64;

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    /// `pscc_runtime::with_threads` width for every call the benchmark makes
    /// into the program; the server's own threads take none and run at nproc.
    pub width: usize,
    /// Client connections of the wire phase.
    pub conns: usize,
    /// Rounds: set-ups (each loaded with its slices of the read phases),
    /// and recoveries at the end.
    pub repeats: usize,
    /// Test hook: flip one received answer, so that the oracle must object.
    pub corrupt: bool,
    /// Scratch directory inside the checkout (durable graphs live here).
    pub out_dir: PathBuf,
}

/// Shares of `--seconds` given to the time-bounded read phases. The rest
/// is nominally the write phase's, which is bounded by operations instead
/// ([`delta_count`]).
pub struct Shares;

impl Shares {
    pub const KERNEL: f64 = 0.30;
    pub const ENGINE: f64 = 0.10;
    pub const WIRE: f64 = 0.30;
    pub const POINT: f64 = 0.15;
}

/// Writes of the write phase, 1.6 per second asked for: a fixed prefix of
/// the workload's delta stream, so that every run of a workload times the
/// same operations (the repair outcomes cost from 10 ms to seconds; a
/// time-bounded sample of them would change its mix, and its median, with
/// the machine's speed).
pub fn delta_count(seconds: f64) -> usize {
    ((seconds * 1.6).round() as usize).max(4)
}

/// Operations whose outcome was checked, and how many were wrong.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// `(what, attempted, failed)` per kind of check, for the report.
    pub kinds: Vec<(&'static str, u64, u64)>,
}

impl Ledger {
    pub fn record(&mut self, what: &'static str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        match self.kinds.iter_mut().find(|k| k.0 == what) {
            Some(kind) => {
                kind.1 += attempted;
                kind.2 += failed;
            }
            None => self.kinds.push((what, attempted, failed)),
        }
    }
}

/// CPU time the hypervisor gave to other guests, from `/proc/stat`: every
/// run prints the stolen share of its busy time, so a disturbed run can be
/// told from a slow program (0.05 % when this box is quiet, 5-25 % in
/// episodes that last seconds to minutes).
pub struct StealMeter {
    busy: u64,
    steal: u64,
}

impl StealMeter {
    pub fn start() -> StealMeter {
        let (busy, steal) = cpu_jiffies().unwrap_or((0, 0));
        StealMeter { busy, steal }
    }

    /// Stolen share of the busy CPU time since `start` (0 if unreadable).
    pub fn share(&self) -> f64 {
        let (busy, steal) = cpu_jiffies().unwrap_or((self.busy, self.steal));
        (steal - self.steal) as f64 / (busy - self.busy).max(1) as f64
    }
}

/// `(busy, steal)` jiffies of all CPUs since boot.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal
    let steal = *fields.get(7)?;
    Some((fields[0] + fields[1] + fields[2] + fields[5] + fields[6] + steal, steal))
}

/// Wall time and sample count of one phase, for the result file.
pub struct PhaseNote {
    pub name: &'static str,
    pub seconds: f64,
    pub samples: usize,
}

/// What a pass hands back to `main`.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    /// Measured on the way but not part of the pass's contract; kept in the
    /// run file for the relations a full pass derives.
    pub extras: Vec<(&'static str, f64)>,
    pub ledger: Ledger,
    pub phases: Vec<PhaseNote>,
    /// Human-readable lines about the samples behind the metrics.
    pub notes: Vec<String>,
}

/// A served, durable graph: what set-up builds and the phases load.
pub struct Stack {
    pub catalog: Arc<Catalog>,
    pub server: ServerHandle,
    pub graph: Arc<DiGraph>,
    pub dir: PathBuf,
}

impl Stack {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the server and drops the catalog; the data directory stays.
    pub fn stop(self) -> PathBuf {
        self.server.shutdown();
        drop(self.catalog);
        self.dir
    }
}

/// Seconds of one set-up and of the stages inside it.
pub struct SetupTimes {
    pub total: f64,
    pub generate: f64,
    pub index_build: f64,
    pub persist: f64,
}

/// Set-up as a user pays it: generate the graph, register it, build the
/// first index, make it durable (snapshot + fsync), start the server, and
/// push one window through so the graph's lane exists.
pub fn setup(opts: &Options, nth: usize, tracer: &mut Tracer) -> (Stack, SetupTimes) {
    let dir = opts.out_dir.join(format!("data-{}-{nth}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir inside the checkout");
    let op = nth as u64;
    let ((stack, generate_s, index_s, persist_s), total) = tracer.scope("setup", op, |t| {
        let shape = opts.workload.shape;
        let (g, generate_s) = t.call("graph.generate", op, || generate(shape, GRAPH_SEED));
        let catalog = Arc::new(Catalog::new());
        t.call("engine.Catalog.insert", op, || catalog.insert(GRAPH, g));
        let (_, index_s) = t.call("engine.Catalog.index", op, || {
            pscc_runtime::with_threads(opts.width, || catalog.index(GRAPH).expect("graph exists"))
        });
        let (persisted, persist_s) =
            t.call("engine.Catalog.persist_to", op, || catalog.persist_to(GRAPH, &dir));
        persisted.expect("persist the graph under benchmark/out");
        let (server, _) = t.call("server.start", op, || {
            pscc_server::start(catalog.clone(), ServerConfig::default()).expect("bind 127.0.0.1:0")
        });
        t.call("server.warmup_window", op, || {
            let mut client = Client::connect(server.local_addr()).expect("connect");
            let queries: Vec<(V, V)> = (0..WINDOW as V).map(|i| (i, i)).collect();
            client.window(&queries, &mut Vec::new()).expect("warm-up window");
        });
        let graph = catalog.graph(GRAPH).expect("graph exists");
        (Stack { catalog, server, graph, dir: dir.clone() }, generate_s, index_s, persist_s)
    });
    (stack, SetupTimes { total, generate: generate_s, index_build: index_s, persist: persist_s })
}

/// One timed kernel call.
pub struct KernelRep {
    pub secs: f64,
    pub stats: SccStats,
}

/// Timed `parallel_scc` calls at `width` until `budget` is spent, and at
/// least `min_reps` of them. No call is thrown away as a warm-up: the index
/// build of set-up has run the kernel in this process already. Each result
/// is checked against Tarjan's partition outside the timed region.
#[allow(clippy::too_many_arguments)]
pub fn kernel_phase(
    g: &DiGraph,
    tarjan: &[u32],
    cfg: &SccConfig,
    width: usize,
    min_reps: usize,
    budget: Duration,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Vec<KernelRep> {
    let deadline = Instant::now() + budget;
    let mut reps = Vec::new();
    loop {
        // `parallel_scc` is `parallel_scc_with_stats(..).0`: same work,
        // and the traced pass wants the phase breakdown it returns.
        let ((result, stats), secs) = tracer.call("core.parallel_scc", reps.len() as u64, || {
            pscc_runtime::with_threads(width, || parallel_scc_with_stats(g, cfg))
        });
        ledger.record("scc_partition", 1, !same_partition(&result.labels, tarjan) as u64);
        reps.push(KernelRep { secs, stats });
        if reps.len() >= min_reps && Instant::now() >= deadline {
            return reps;
        }
    }
}

/// Fresh `BATCH`-query batches through `BatchSubmitter::submit` for
/// `budget`. Only the submit calls are timed; generating and checking the
/// queries is the generator's cost. Returns per-batch seconds.
pub fn engine_phase(
    submitter: &BatchSubmitter,
    gen: &mut QueryGen,
    oracle: &Oracle,
    width: usize,
    budget: Duration,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Vec<f64> {
    let deadline = Instant::now() + budget;
    let mut queries = Vec::new();
    let mut secs = Vec::new();
    let (mut judged, mut wrong) = (0, 0);
    while Instant::now() < deadline {
        gen.fill(&mut queries, BATCH);
        let (answers, s) = tracer.call("engine.BatchSubmitter.submit", secs.len() as u64, || {
            pscc_runtime::with_threads(width, || submitter.submit(&queries))
        });
        secs.push(s);
        let (j, w) = oracle.check(&queries, answers.into_iter());
        judged += j;
        wrong += w;
    }
    ledger.record("engine_answers", judged, wrong);
    secs
}

/// What one client connection saw in a read phase.
#[derive(Default)]
pub struct ClientLog {
    /// Round trip of each window, seconds.
    pub rtts: Vec<f64>,
    pub answered: u64,
    pub judged: u64,
    pub wrong: u64,
    pub refused: u64,
    pub elapsed: f64,
}

/// `conns` closed-loop clients, each sending pipelined windows of `window`
/// GETs for `budget`. With an oracle, every window's checkable answers are
/// checked; a non-200 always counts as failed.
#[allow(clippy::too_many_arguments)]
pub fn read_phase(
    addr: SocketAddr,
    span: &'static str,
    make_gen: &(dyn Fn(u64) -> QueryGen + Sync),
    oracle: Option<&Oracle>,
    conns: usize,
    window: usize,
    budget: Duration,
    corrupt: bool,
    tracer: &mut Tracer,
) -> Vec<ClientLog> {
    let barrier = Barrier::new(conns);
    let (logs, _) = tracer.scope(span, 0, |tracer| {
        let results: Vec<(ClientLog, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    let mut tracer = tracer.fork();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let mut gen = make_gen(c as u64);
                        let mut log = ClientLog::default();
                        let (mut queries, mut answers) = (Vec::new(), Vec::new());
                        barrier.wait();
                        let started = Instant::now();
                        while started.elapsed() < budget {
                            gen.fill(&mut queries, window);
                            let op = (c as u64) << 32 | log.rtts.len() as u64;
                            let (rtt, _) = tracer.call("client.window", op, || {
                                client.window(&queries, &mut answers).expect("window round trip")
                            });
                            log.rtts.push(rtt.as_secs_f64());
                            if corrupt && c == 0 && log.rtts.len() == 1 {
                                flip_a_checked_answer(&queries, &mut answers, oracle);
                            }
                            log.answered += answers.iter().flatten().count() as u64;
                            log.refused += answers.iter().filter(|a| a.is_none()).count() as u64;
                            if let Some(oracle) = oracle {
                                let bits = answers.iter().map(|a| a.unwrap_or(false));
                                let (j, w) = oracle.check(&queries, bits);
                                log.judged += j;
                                log.wrong += w;
                            }
                        }
                        log.elapsed = started.elapsed().as_secs_f64();
                        (log, tracer)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        results
            .into_iter()
            .map(|(log, child)| {
                tracer.adopt(child);
                log
            })
            .collect::<Vec<_>>()
    });
    logs
}

/// The `--corrupt` hook: invert the first answer the oracle can judge.
fn flip_a_checked_answer(
    queries: &[(V, V)],
    answers: &mut [Option<bool>],
    oracle: Option<&Oracle>,
) {
    let Some(oracle) = oracle else { return };
    if let Some(i) = queries.iter().position(|&(u, v)| oracle.expected(u, v).is_some()) {
        answers[i] = answers[i].map(|bit| !bit);
    }
}

pub fn record_reads(ledger: &mut Ledger, logs: &[ClientLog]) {
    for log in logs {
        ledger.record("wire_status", log.answered + log.refused, log.refused);
        ledger.record("wire_answers", log.judged, log.wrong);
    }
}

/// All clients' window round trips, in microseconds.
pub fn rtts_us(logs: &[ClientLog]) -> Vec<f64> {
    logs.iter().flat_map(|l| l.rtts.iter().map(|s| s * 1e6)).collect()
}

/// Answered GETs per second of wall time, over the slowest client's clock.
pub fn qps(logs: &[ClientLog]) -> f64 {
    let wall = logs.iter().map(|l| l.elapsed).fold(0.0, f64::max);
    logs.iter().map(|l| l.answered).sum::<u64>() as f64 / wall
}

/// What the single connection of the write phase saw.
#[derive(Default)]
pub struct MixedLog {
    /// `(outcome, ack seconds)` per write.
    pub acks: Vec<(String, f64)>,
    /// Round trips of the first window after each write, microseconds.
    pub after_delta_us: Vec<f64>,
}

/// One applied write: the repair outcome the program reported, whether it
/// acknowledged exactly the one edge, and the seconds until it did.
pub struct Ack {
    pub outcome: String,
    pub applied: bool,
    pub secs: f64,
}

/// Writes beside reads on one connection: `writes` cycles of
/// [`WINDOWS_PER_DELTA`] read windows and one one-edge write through
/// `write` (over the wire in the end-to-end pass, in process in the traced
/// one). The oracle is stale once writes start, so windows are checked for
/// status only; [`final_check`] judges the state the writes leave behind.
#[allow(clippy::too_many_arguments)]
pub fn mixed_phase(
    addr: SocketAddr,
    gen: &mut QueryGen,
    deltas: &mut DeltaStream,
    edges: &mut EdgeSet,
    writes: usize,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    write: &mut dyn FnMut(&mut Client, &mut Tracer, u64, Change) -> Ack,
) -> MixedLog {
    let mut client = Client::connect(addr).expect("connect");
    let mut log = MixedLog::default();
    let (mut queries, mut answers) = (Vec::new(), Vec::new());
    tracer.scope("phase.mixed", 0, |tracer| {
        for op in 0..writes as u64 {
            for k in 0..WINDOWS_PER_DELTA {
                gen.fill(&mut queries, WINDOW);
                let (rtt, _) = tracer.call("client.window", op, || {
                    client.window(&queries, &mut answers).expect("window round trip")
                });
                let refused = answers.iter().filter(|a| a.is_none()).count() as u64;
                ledger.record("wire_status", WINDOW as u64, refused);
                if k == 0 && op > 0 {
                    log.after_delta_us.push(rtt.as_secs_f64() * 1e6);
                }
            }
            let ack = write(&mut client, tracer, op, deltas.next(edges));
            ledger.record("delta_acks", 1, !ack.applied as u64);
            log.acks.push((ack.outcome, ack.secs));
        }
    });
    log
}

/// A write as a client sends it: `POST /delta`, acknowledged (for a durable
/// graph) after the WAL fsync.
pub fn write_over_the_wire(
    client: &mut Client,
    tracer: &mut Tracer,
    op: u64,
    change: Change,
) -> Ack {
    let ((reply, rtt), _) =
        tracer.call("client.delta", op, || client.delta(change).expect("delta round trip"));
    let body = String::from_utf8_lossy(&reply.body);
    let applied = reply.status == 200
        && body.contains(match change {
            Change::Insert(..) => "1 inserted, 0 deleted",
            Change::Delete(..) => "0 inserted, 1 deleted",
        });
    // `outcome DagSpliced: 1 inserted, 0 deleted`
    let word = body.strip_prefix("outcome ").and_then(|b| b.split(':').next()).unwrap_or("Unknown");
    Ack { outcome: snake_case(word), applied, secs: rtt.as_secs_f64() }
}

/// `DagSpliced` → `dag_spliced`: a `DeltaOutcome` as the metric names spell it.
pub fn snake_case(camel: &str) -> String {
    let mut snake = String::new();
    for c in camel.chars() {
        if c.is_ascii_uppercase() && !snake.is_empty() {
            snake.push('_');
        }
        snake.push(c.to_ascii_lowercase());
    }
    snake
}

/// Queries used to judge the state after the last write: every one starts
/// at a source of `oracle` (rebuilt over the benchmark's own edge set).
pub fn final_queries(oracle: &Oracle, n: usize, seed: u64) -> Vec<(V, V)> {
    let mut rng = pscc_runtime::SplitMix64::new(seed ^ 0xf17a1);
    (0..BATCH * 4)
        .map(|i| (oracle.sources()[i % oracle.sources().len()], rng.next_below(n as u64) as V))
        .collect()
}

/// After the last delta: the served answers must match BFS over the
/// benchmark's own edge set.
pub fn final_check(addr: SocketAddr, oracle: &Oracle, queries: &[(V, V)], ledger: &mut Ledger) {
    let mut client = Client::connect(addr).expect("connect");
    let mut answers = Vec::new();
    for window in queries.chunks(WINDOW) {
        client.window(window, &mut answers).expect("window round trip");
        let refused = answers.iter().filter(|a| a.is_none()).count() as u64;
        let (judged, wrong) = oracle.check(window, answers.iter().map(|a| a.unwrap_or(false)));
        ledger.record("wire_status", window.len() as u64, refused);
        ledger.record("post_delta_answers", judged, wrong);
    }
}

/// `Catalog::open` on the data directory plus the first answered query,
/// `repeats` times; each recovered catalog must give the oracle's answers.
pub fn recover_phase(
    dir: &Path,
    oracle: &Oracle,
    queries: &[(V, V)],
    opts: &Options,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Vec<f64> {
    let mut secs = Vec::new();
    for rep in 0..opts.repeats as u64 {
        let (catalog, s) = tracer.scope("recover", rep, |t| {
            let (catalog, _) = t.call("engine.Catalog.open", rep, || Catalog::open(dir));
            let catalog = catalog.expect("reopen the data dir");
            let (first, _) = t.call("engine.Catalog.answer_batch", rep, || {
                pscc_runtime::with_threads(opts.width, || {
                    catalog.answer_batch(GRAPH, &queries[..1])
                })
            });
            assert!(first.is_some(), "recovered catalog lost the graph");
            catalog
        });
        secs.push(s);
        let answers =
            pscc_runtime::with_threads(opts.width, || catalog.answer_batch(GRAPH, queries))
                .expect("graph recovered");
        let (judged, wrong) = oracle.check(queries, answers.into_iter());
        ledger.record("recovered_answers", judged, wrong);
    }
    secs
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The oracle over the edge set as generated.
pub fn initial_oracle(edges: &EdgeSet, opts: &Options) -> Oracle {
    Oracle::build(&edges.csr(), ORACLE_SOURCES, opts.seed, opts.conns)
}

/// Tarjan's partition of `g`, the kernel's oracle, and its seconds.
pub fn tarjan(g: &DiGraph, tracer: &mut Tracer) -> (Vec<u32>, f64) {
    tracer.call("baselines.tarjan_scc", 0, || pscc_baselines::tarjan_scc(g))
}

/// Wall time and samples per phase, merged over the rounds.
#[derive(Default)]
pub struct Phases(pub Vec<PhaseNote>);

impl Phases {
    pub fn add(&mut self, name: &'static str, started: Instant, samples: usize) {
        let seconds = started.elapsed().as_secs_f64();
        match self.0.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.seconds += seconds;
                p.samples += samples;
            }
            None => self.0.push(PhaseNote { name, seconds, samples }),
        }
    }
}

/// Queries answered per second of submit time.
pub fn batch_qps(batch_secs: &[f64]) -> f64 {
    (batch_secs.len() * BATCH) as f64 / batch_secs.iter().sum::<f64>()
}

/// How often each repair outcome was acknowledged.
pub fn outcome_counts(acks: &[(String, f64)]) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for (outcome, _) in acks {
        match counts.iter_mut().find(|o| &o.0 == outcome) {
            Some(o) => o.1 += 1,
            None => counts.push((outcome.clone(), 1)),
        }
    }
    counts
}

/// Sub-slices of each read phase per round.
pub const SUB_SLICES: usize = 4;

/// Runs the end-to-end pass.
pub fn end_to_end(opts: &Options) -> Outcome {
    let mut tracer = Tracer::new(false);
    let tracer = &mut tracer;
    let mut ledger = Ledger::default();
    let mut phases = Phases::default();
    let mut notes = Vec::new();
    let w = opts.workload;

    // One round per set-up: each builds its own catalog, index and server,
    // is loaded with slices of every read phase, and is torn down again
    // (the last one stays for the writes). A run thus measures separately
    // allocated instances of the stack, a few seconds apart, in a dozen
    // short slices per metric — see `stats::best_quartile` for why.
    let rounds = opts.repeats;
    let slices = (rounds * SUB_SLICES) as f64;
    let slice = |share: f64| Duration::from_secs_f64(opts.seconds * share / slices);
    let cfg = SccConfig::default();
    let mut setup_times = Vec::new();
    let (mut scc, mut engine_qps, mut serve_qps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut window_p50, mut point_p50) = (Vec::new(), Vec::new());
    let (mut windows, mut points) = (0, 0);
    let mut oracles = None;
    let mut serve_rss = f64::NAN;
    let mut kept: Option<Stack> = None;
    for round in 0..rounds as u64 {
        if let Some(previous) = kept.take() {
            let _ = std::fs::remove_dir_all(previous.stop());
        }
        let t = Instant::now();
        let (stack, times) = setup(opts, round as usize, tracer);
        phases.add("setup", t, 1);
        setup_times.push(times);
        let g = stack.graph.clone();
        let n = g.n();
        if oracles.is_none() {
            // The graph is the same in every round; its oracles are made once.
            let t = Instant::now();
            let edges = EdgeSet::of(&g);
            let oracle = initial_oracle(&edges, opts);
            let (tarjan_labels, _) = tarjan(&g, tracer);
            phases.add("oracles", t, ORACLE_SOURCES + 1);
            oracles = Some((edges, oracle, tarjan_labels));
        }
        let (_, oracle, tarjan_labels) = oracles.as_ref().expect("made in the first round");

        let t = Instant::now();
        let budget = slice(Shares::KERNEL) * SUB_SLICES as u32;
        let reps = kernel_phase(
            &g,
            tarjan_labels,
            &cfg,
            opts.width,
            KERNEL_REPS_PER_ROUND,
            budget,
            tracer,
            &mut ledger,
        );
        phases.add("kernel", t, reps.len());
        scc.extend(reps.iter().map(|r| r.secs));

        let submitter = stack.catalog.submitter(GRAPH).expect("graph exists");
        for sub in 0..SUB_SLICES as u64 {
            let stream = (round * SUB_SLICES as u64 + sub) * 64;
            let t = Instant::now();
            let make_gen = |c: u64| QueryGen::new(w.dist, n, oracle, opts.seed, 2000 + stream + c);
            let wire = read_phase(
                stack.addr(),
                "phase.wire",
                &make_gen,
                Some(oracle),
                opts.conns,
                WINDOW,
                slice(Shares::WIRE),
                opts.corrupt && stream == 0,
                tracer,
            );
            record_reads(&mut ledger, &wire);
            let rtts = rtts_us(&wire);
            phases.add("wire", t, rtts.len());
            windows += rtts.len();
            serve_qps.push(qps(&wire));
            window_p50.push(median(&rtts));

            let t = Instant::now();
            let make_gen =
                |c: u64| QueryGen::new(w.dist, n, oracle, opts.seed, 30_000 + stream + c);
            let point = read_phase(
                stack.addr(),
                "phase.point",
                &make_gen,
                Some(oracle),
                1,
                1,
                slice(Shares::POINT),
                false,
                tracer,
            );
            record_reads(&mut ledger, &point);
            let rtts = rtts_us(&point);
            phases.add("point", t, rtts.len());
            points += rtts.len();
            point_p50.push(median(&rtts));

            // After the wire slices the index is as warm in cache as a
            // serving process's; straight after a kernel call it is not.
            let t = Instant::now();
            let mut gen = QueryGen::new(w.dist, n, oracle, opts.seed, 1000 + stream);
            let budget = slice(Shares::ENGINE);
            let batch_secs =
                engine_phase(&submitter, &mut gen, oracle, opts.width, budget, tracer, &mut ledger);
            phases.add("engine", t, batch_secs.len());
            engine_qps.push(batch_qps(&batch_secs));
        }
        drop(submitter);
        if round == 0 {
            // Graph, first index, server, kernel calls and reads in a fresh
            // process: what a serving process holds. It repeats to 1 %; the
            // whole-run peak below is set by the write phase (two index
            // generations alive) and by recovery beside the heap the earlier
            // instances left behind, and moves by 15 % from run to run.
            serve_rss = peak_rss_mib();
        }
        kept = Some(stack);
    }
    let stack = kept.expect("at least one round");
    let (mut edges, oracle, _) = oracles.expect("made in the first round");
    let g = stack.graph.clone();
    let n = g.n();

    let t = Instant::now();
    let mut deltas = DeltaStream::new(GRAPH_SEED);
    let mut gen = QueryGen::new(w.dist, n, &oracle, opts.seed, 4000);
    let writes = delta_count(opts.seconds);
    let mixed = mixed_phase(
        stack.addr(),
        &mut gen,
        &mut deltas,
        &mut edges,
        writes,
        tracer,
        &mut ledger,
        &mut write_over_the_wire,
    );
    let ack_ms: Vec<f64> = mixed.acks.iter().map(|a| a.1 * 1e3).collect();
    phases.add("mixed", t, ack_ms.len());

    let t = Instant::now();
    let after = Oracle::build(&edges.csr(), ORACLE_SOURCES / 4, opts.seed ^ 1, opts.conns);
    let queries = final_queries(&after, n, opts.seed);
    final_check(stack.addr(), &after, &queries, &mut ledger);
    phases.add("post_delta_check", t, queries.len());

    let t = Instant::now();
    drop(g);
    let dir = stack.stop();
    let recover = recover_phase(&dir, &after, &queries, opts, tracer, &mut ledger);
    let _ = std::fs::remove_dir_all(&dir);
    phases.add("recover", t, recover.len());

    let setup_s: Vec<f64> = setup_times.iter().map(|s| s.total).collect();
    let index_s: Vec<f64> = setup_times.iter().map(|s| s.index_build).collect();
    notes.push(format!("setup_s (median of): {setup_s:.3?}"));
    notes.push(format!("index_build_s: {index_s:.3?}"));
    notes.push(format!("scc_s: {scc:.3?}"));
    notes.push(format!("engine_qps per slice: {engine_qps:.0?} (batches of {BATCH})"));
    notes.push(format!("serve_qps per slice: {serve_qps:.0?}"));
    notes.push(format!(
        "window round trip, median per slice: {window_p50:.0?} us ({windows} windows; a per-layer \
         metric, see server.window_p50_us)"
    ));
    notes.push(format!("point_rtt_p50_us per slice: {point_p50:.0?} ({points} GETs)"));
    notes.push(format!("delta_ack ms: {ack_ms:.1?}"));
    notes.push(format!(
        "delta outcomes: {:?}; fsync per append (the store's default)",
        outcome_counts(&mixed.acks)
    ));
    notes.push(format!("recover_s: {recover:.3?}"));
    notes.push(format!(
        "closed loop, {rounds} rounds (one per set-up) x {SUB_SLICES} slices: {} connections x \
         {WINDOW}-GET windows, 1 oracle-sourced query in {ORACLE_EVERY}; point phase 1 connection x \
         1 GET; write phase 1 connection, {WINDOWS_PER_DELTA} windows per delta; reads {}; \
         per-slice and per-call values are reduced to their best quartile, set-up and writes to \
         their median",
        opts.conns,
        match w.dist {
            Dist::Fresh => "uniform, never repeated".to_string(),
            Dist::Zipf { pool, s } => format!("Zipf({s}) over {pool} pairs"),
        }
    ));

    let metrics = vec![
        ("setup_s", median(&setup_s)),
        ("scc_s", best_quartile(&scc, Better::Lower)),
        ("index_build_s", best_quartile(&index_s, Better::Lower)),
        ("engine_qps", best_quartile(&engine_qps, Better::Higher)),
        ("serve_qps", best_quartile(&serve_qps, Better::Higher)),
        ("point_rtt_p50_us", best_quartile(&point_p50, Better::Lower)),
        ("delta_ack_p50_ms", median(&ack_ms)),
        ("delta_ack_mean_ms", ack_ms.iter().sum::<f64>() / ack_ms.len() as f64),
        ("recover_s", best_quartile(&recover, Better::Lower)),
        ("serve_rss_mib", serve_rss),
        ("peak_rss_mib", peak_rss_mib()),
    ];
    let extras = vec![("serve_window_p50_us", best_quartile(&window_p50, Better::Lower))];
    Outcome { metrics, extras, ledger, phases: phases.0, notes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_and_phases_merge_by_name() {
        let mut ledger = Ledger::default();
        ledger.record("wire_answers", 10, 0);
        ledger.record("delta_acks", 1, 1);
        ledger.record("wire_answers", 5, 2);
        assert_eq!((ledger.attempted, ledger.failed), (16, 3));
        assert_eq!(ledger.kinds, vec![("wire_answers", 15, 2), ("delta_acks", 1, 1)]);

        let mut phases = Phases::default();
        phases.add("wire", Instant::now(), 3);
        phases.add("point", Instant::now(), 1);
        phases.add("wire", Instant::now(), 4);
        let seen: Vec<_> = phases.0.iter().map(|p| (p.name, p.samples)).collect();
        assert_eq!(seen, vec![("wire", 7), ("point", 1)]);
    }

    #[test]
    fn the_write_phase_is_bounded_by_operations() {
        assert_eq!(delta_count(10.0), 16);
        assert_eq!(delta_count(20.0), 32);
        // Never so few that a median means nothing.
        assert_eq!(delta_count(2.0), 4);
        assert_eq!(delta_count(0.1), 4);
    }

    #[test]
    fn throughput_counts_answers_over_the_slowest_clock() {
        let log = |answered, elapsed| ClientLog { answered, elapsed, ..ClientLog::default() };
        assert_eq!(qps(&[log(1000, 0.5), log(3000, 1.0)]), 4000.0);
        assert_eq!(batch_qps(&[0.001, 0.003]), 2.0 * BATCH as f64 / 0.004);
        assert_eq!(snake_case("ArcUnspliced"), "arc_unspliced");
        assert_eq!(snake_case("Rebuilt"), "rebuilt");
    }
}
