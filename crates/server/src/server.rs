//! The TCP front end: accepts connections, parses HTTP/1.1-lite
//! requests, and routes every query through the per-graph admission
//! lane ([`Lane`]) so concurrent connections coalesce into engine
//! batches — the one path from a socket to the engine. Writes go
//! through [`Catalog::apply_delta`] — the serving path and the update
//! path share the catalog's locking model, so queries keep answering
//! from the installed index while a delta repairs off-lock.
//!
//! ## Protocol
//!
//! | Request | Response |
//! |---|---|
//! | `GET /reach/<graph>?u=U&v=V` | `1` / `0` — is V reachable from U |
//! | `POST /reach/<graph>` (body: `u v` per line) | one `1`/`0` per query |
//! | `POST /delta/<graph>` (body: `+ u v` / `- u v` per line) | repair outcome |
//! | `GET /metrics` | telemetry registry, Prometheus-style text |
//! | `GET /stats` | per-graph coalescing stats, JSON |
//! | `GET /healthz` | `ok` |
//!
//! Unknown graphs answer 404, malformed queries 400, and an admission
//! queue at capacity answers **503** — backpressure is an explicit
//! signal, never an unbounded buffer or a hang.
//!
//! ## Pipelining and run collection
//!
//! Connections are persistent and pipelined: a client may write many
//! requests before reading any response. The handler peels every
//! complete request off its read buffer and groups **contiguous runs of
//! single-query GETs to the same graph** into one lane submission, so a
//! pipelined client contributes a whole run to the shared batch — or,
//! on an idle lane, runs it as its own batch on the connection's
//! thread. Responses are emitted strictly in request order.
//!
//! One thread serves each connection. The acceptor reaps the handles of
//! finished ones on every accept and publishes how many it still tracks
//! as the `pscc_server_open_connections{addr="<listen addr>"}` gauge.

use crate::coalesce::{CoalesceConfig, Lane, SubmitError};
use crate::http::{
    parse_point_get_fast, parse_request, query_param, write_response, Request, RESP_FALSE,
    RESP_TRUE,
};
use pscc_engine::{Catalog, Delta, DeltaError};
use pscc_graph::V;
use pscc_telemetry::recorder::{self, FlightEvent};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub listen: String,
    /// Every graph's lane is opened with this.
    pub coalesce: CoalesceConfig,
    /// Upper bound a handler waits on a lane before answering 503 —
    /// the guarantee that overload degrades loudly instead of hanging.
    pub submit_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            coalesce: CoalesceConfig::default(),
            submit_timeout: Duration::from_secs(5),
        }
    }
}

/// Point-in-time coalescing stats of one graph's port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortStats {
    pub batches_formed: u64,
    pub queries_coalesced: u64,
    pub overloads: u64,
}

/// One served graph: its validated vertex count plus its lane.
struct GraphPort {
    name: String,
    vertex_count: usize,
    lane: Lane,
}

struct Shared {
    catalog: Arc<Catalog>,
    config: ServerConfig,
    ports: RwLock<HashMap<String, Arc<GraphPort>>>,
    stop: AtomicBool,
}

impl Shared {
    /// The graph's port, created on first use. `None` = unknown graph.
    fn port(&self, graph: &str) -> Option<Arc<GraphPort>> {
        if let Some(port) = self.ports.read().expect("ports lock").get(graph) {
            return Some(port.clone());
        }
        let mut ports = self.ports.write().expect("ports lock");
        if let Some(port) = ports.get(graph) {
            return Some(port.clone()); // lost the creation race
        }
        let submitter = self.catalog.submitter(graph)?;
        let vertex_count = submitter.vertex_count();
        let lane = Lane::start(submitter, self.config.coalesce).ok()?;
        let port = Arc::new(GraphPort { name: graph.to_string(), vertex_count, lane });
        ports.insert(graph.to_string(), port.clone());
        Some(port)
    }
}

/// A running server. Dropping (or [`shutdown`](ServerHandle::shutdown))
/// stops the acceptor, joins every connection thread, and drains the
/// lanes.
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

/// Bind and start serving `catalog` per `config`.
pub fn start(catalog: Arc<Catalog>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.listen)?;
    let local_addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        catalog,
        config,
        ports: RwLock::new(HashMap::new()),
        stop: AtomicBool::new(false),
    });
    if recorder::is_active() {
        recorder::record(FlightEvent::new("server_start").field("addr", local_addr.to_string()));
    }
    pscc_telemetry::log!(Info, "pscc-server listening on {local_addr}");
    let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let acceptor = {
        let shared = shared.clone();
        let conns = conns.clone();
        let conn_seq = AtomicU64::new(0);
        let open_conns = pscc_telemetry::gauge(&format!(
            "pscc_server_open_connections{{addr=\"{local_addr}\"}}"
        ));
        std::thread::Builder::new().name("pscc-acceptor".to_string()).spawn(move || {
            for stream in listener.incoming() {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                let shared = shared.clone();
                let id = conn_seq.fetch_add(1, Ordering::Relaxed);
                let handle = std::thread::Builder::new()
                    .name(format!("pscc-conn-{id}"))
                    .spawn(move || handle_connection(stream, &shared));
                if let Ok(handle) = handle {
                    // Reap finished connections here, so short-lived
                    // clients cannot grow the list without bound.
                    let mut conns = conns.lock().expect("conns lock");
                    conns.retain(|conn| !conn.is_finished());
                    conns.push(handle);
                    open_conns.set(conns.len() as i64);
                }
            }
        })?
    };
    Ok(ServerHandle { shared, local_addr, acceptor: Some(acceptor), conns })
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Coalescing stats for `graph`'s port, if it has served anything.
    pub fn port_stats(&self, graph: &str) -> Option<PortStats> {
        let ports = self.shared.ports.read().expect("ports lock");
        let lane = &ports.get(graph)?.lane;
        Some(PortStats {
            batches_formed: lane.batches_formed(),
            queries_coalesced: lane.queries_coalesced(),
            overloads: lane.overloads(),
        })
    }

    /// Stop accepting, join every connection, drain the lanes.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.shared.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        // Unblock the acceptor's blocking accept with a throwaway
        // connection; it re-checks the stop flag first thing.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let handles = std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for handle in handles {
            let _ = handle.join();
        }
        let ports = std::mem::take(&mut *self.shared.ports.write().expect("ports lock"));
        for port in ports.values() {
            port.lane.shutdown();
        }
        if recorder::is_active() {
            recorder::record(
                FlightEvent::new("server_stop").field("addr", self.local_addr.to_string()),
            );
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A contiguous run of single-query GETs to one graph, dispatched as
/// one lane submission.
struct Run {
    port: Arc<GraphPort>,
    queries: Vec<(V, V)>,
}

/// How often a parked connection re-checks the server stop flag.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut stream = stream;
    let mut inbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut consumed = 0usize;
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    'conn: loop {
        // Peel every complete request off the buffer, grouping runs.
        let mut run: Option<Run> = None;
        let mut close_after = false;
        loop {
            // Hot shape first: a bare single-query GET parses in one
            // byte scan and joins the open run with no header work.
            if let Some((graph, u, v, used)) = parse_point_get_fast(&inbuf[consumed..]) {
                let to_vertex = |x: u64| if x <= V::MAX as u64 { Ok(x as V) } else { Err(()) };
                let (u, v) = (to_vertex(u), to_vertex(v));
                route_point_query(graph, u, v, &mut run, shared, &mut out);
                consumed += used;
                continue;
            }
            let (request, used) = match parse_request(&inbuf[consumed..]) {
                Ok(Some(hit)) => hit,
                Ok(None) => break,
                Err(bad) => {
                    flush_run(&mut run, shared, &mut out);
                    write_response(&mut out, 400, "Bad Request", bad.0.as_bytes());
                    let _ = stream.write_all(&out);
                    return;
                }
            };
            if !request.keep_alive {
                close_after = true;
            }
            match classify(&request) {
                Routed::PointQuery { graph, u, v } => {
                    route_point_query(graph, u, v, &mut run, shared, &mut out)
                }
                other => {
                    flush_run(&mut run, shared, &mut out);
                    respond_slow_path(other, &request, shared, &mut out);
                }
            }
            consumed += used;
            if close_after {
                break;
            }
        }
        // No more complete requests buffered: dispatch the trailing run
        // and flush everything before blocking on the socket again.
        flush_run(&mut run, shared, &mut out);
        if !out.is_empty() {
            if stream.write_all(&out).is_err() {
                return;
            }
            out.clear();
        }
        if close_after {
            return;
        }
        if consumed > 0 {
            inbuf.drain(..consumed);
            consumed = 0;
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => {
                    inbuf.extend_from_slice(&chunk[..n]);
                    continue 'conn;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if shared.stop.load(Ordering::Relaxed) {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
    }
}

/// Routes one point query: extends the open run when it targets the
/// same graph, otherwise flushes the run and opens a new one (or
/// answers 404 for an unknown graph).
fn route_point_query(
    graph: &str,
    u: Result<V, ()>,
    v: Result<V, ()>,
    run: &mut Option<Run>,
    shared: &Shared,
    out: &mut Vec<u8>,
) {
    if run.as_ref().is_none_or(|r| r.port.name != graph) {
        flush_run(run, shared, out);
        match shared.port(graph) {
            Some(port) => *run = Some(Run { port, queries: Vec::new() }),
            None => return write_response(out, 404, "Not Found", b"unknown graph\n"),
        }
    }
    push_point_query(run.as_mut(), u, v, shared, out);
}

/// Validates and appends one point query to the open run, or answers
/// its error inline (order is preserved: the run so far was flushed or
/// is still pending ahead of this response only if the query joins it).
fn push_point_query(
    run: Option<&mut Run>,
    u: Result<V, ()>,
    v: Result<V, ()>,
    shared: &Shared,
    out: &mut Vec<u8>,
) {
    let Some(run) = run else { return };
    let n = run.port.vertex_count;
    match (u, v) {
        (Ok(u), Ok(v)) if (u as usize) < n && (v as usize) < n => {
            run.queries.push((u, v));
        }
        _ => {
            // The error answer must slot into request order, so the
            // queries already in the run dispatch first.
            let mut pending =
                Some(Run { port: run.port.clone(), queries: std::mem::take(&mut run.queries) });
            flush_run(&mut pending, shared, out);
            write_response(out, 400, "Bad Request", b"u and v must be vertex ids\n");
        }
    }
}

/// Dispatches an open run as one lane submission. Appends one response
/// per query in order.
fn flush_run(run: &mut Option<Run>, shared: &Shared, out: &mut Vec<u8>) {
    let Some(run) = run.take() else { return };
    match run.port.lane.submit_wait(&run.queries, shared.config.submit_timeout) {
        Ok(answers) => {
            for answer in answers {
                out.extend_from_slice(if answer { RESP_TRUE } else { RESP_FALSE });
            }
        }
        Err(err) => {
            for _ in &run.queries {
                write_submit_error(out, err);
            }
        }
    }
}

/// The lane refused or lost a group: backpressure and shutdown are 503s
/// (retry later), a batch whose engine call died is a 500.
fn write_submit_error(out: &mut Vec<u8>, err: SubmitError) {
    let (status, reason, body): (u16, &str, &[u8]) = match err {
        SubmitError::Overloaded => (503, "Service Unavailable", b"overloaded\n"),
        SubmitError::Timeout => (503, "Service Unavailable", b"timed out\n"),
        SubmitError::ShuttingDown => (503, "Service Unavailable", b"shutting down\n"),
        SubmitError::Failed => (500, "Internal Server Error", b"batch failed\n"),
    };
    write_response(out, status, reason, body);
}

/// Routing decision for one request.
enum Routed<'a> {
    PointQuery { graph: &'a str, u: Result<V, ()>, v: Result<V, ()> },
    BatchQuery { graph: &'a str },
    DeltaWrite { graph: &'a str },
    Metrics,
    Stats,
    Health,
    NotFound,
}

fn classify<'a>(request: &Request<'a>) -> Routed<'a> {
    let parse = |key: &str| -> Result<V, ()> {
        query_param(request.query, key).and_then(|raw| raw.parse().ok()).ok_or(())
    };
    match (request.method, request.path) {
        ("GET", "/healthz") => Routed::Health,
        ("GET", "/metrics") => Routed::Metrics,
        ("GET", "/stats") => Routed::Stats,
        ("GET", path) => match path.strip_prefix("/reach/") {
            Some(graph) if !graph.is_empty() => {
                Routed::PointQuery { graph, u: parse("u"), v: parse("v") }
            }
            _ => Routed::NotFound,
        },
        ("POST", path) => {
            if let Some(graph) = path.strip_prefix("/reach/") {
                Routed::BatchQuery { graph }
            } else if let Some(graph) = path.strip_prefix("/delta/") {
                Routed::DeltaWrite { graph }
            } else {
                Routed::NotFound
            }
        }
        _ => Routed::NotFound,
    }
}

/// Everything that is not a coalescable point query.
fn respond_slow_path(
    routed: Routed<'_>,
    request: &Request<'_>,
    shared: &Shared,
    out: &mut Vec<u8>,
) {
    match routed {
        Routed::Health => write_response(out, 200, "OK", b"ok\n"),
        Routed::Metrics => write_response(out, 200, "OK", pscc_telemetry::render_text().as_bytes()),
        Routed::Stats => write_response(out, 200, "OK", stats_json(shared).as_bytes()),
        Routed::BatchQuery { graph } => respond_batch_query(graph, request, shared, out),
        Routed::DeltaWrite { graph } => respond_delta(graph, request, shared, out),
        Routed::NotFound => write_response(out, 404, "Not Found", b"no such endpoint\n"),
        Routed::PointQuery { .. } => {
            // Unreachable by construction (point queries join runs);
            // answer harmlessly rather than assert in the serving path.
            write_response(out, 404, "Not Found", b"no such endpoint\n")
        }
    }
}

/// `POST /reach/<graph>`: body is one `u v` pair per line; the whole
/// request is one group (it is already a batch — it skips run
/// collection but still coalesces with concurrent traffic).
fn respond_batch_query(graph: &str, request: &Request<'_>, shared: &Shared, out: &mut Vec<u8>) {
    let Some(port) = shared.port(graph) else {
        return write_response(out, 404, "Not Found", b"unknown graph\n");
    };
    let Ok(body) = std::str::from_utf8(request.body) else {
        return write_response(out, 400, "Bad Request", b"body must be UTF-8\n");
    };
    let mut queries: Vec<(V, V)> = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let pair = (
            it.next().and_then(|t| t.parse::<V>().ok()),
            it.next().and_then(|t| t.parse::<V>().ok()),
        );
        match pair {
            (Some(u), Some(v))
                if (u as usize) < port.vertex_count && (v as usize) < port.vertex_count =>
            {
                queries.push((u, v))
            }
            _ => {
                return write_response(
                    out,
                    400,
                    "Bad Request",
                    b"each line must be `u v` with valid vertex ids\n",
                )
            }
        }
    }
    let answers = match port.lane.submit_wait(&queries, shared.config.submit_timeout) {
        Ok(answers) => answers,
        Err(err) => return write_submit_error(out, err),
    };
    let mut body: Vec<u8> = answers.iter().map(|&b| if b { b'1' } else { b'0' }).collect();
    body.push(b'\n');
    write_response(out, 200, "OK", &body);
}

/// `POST /delta/<graph>`: body is `+ u v` / `- u v` per line, applied
/// as one delta through the catalog (WAL-logged first when the graph is
/// durable). Responds with the repair outcome.
fn respond_delta(graph: &str, request: &Request<'_>, shared: &Shared, out: &mut Vec<u8>) {
    let Ok(body) = std::str::from_utf8(request.body) else {
        return write_response(out, 400, "Bad Request", b"body must be UTF-8\n");
    };
    let mut delta = Delta::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parts = (
            it.next(),
            it.next().and_then(|t| t.parse::<V>().ok()),
            it.next().and_then(|t| t.parse::<V>().ok()),
        );
        match parts {
            (Some("+"), Some(u), Some(v)) => delta.insert(u, v),
            (Some("-"), Some(u), Some(v)) => delta.delete(u, v),
            _ => {
                return write_response(
                    out,
                    400,
                    "Bad Request",
                    b"each line must be `+ u v` or `- u v`\n",
                )
            }
        };
    }
    match shared.catalog.apply_delta(graph, &delta) {
        Ok(report) => {
            let body = format!(
                "outcome {:?}: {} inserted, {} deleted\n",
                report.outcome, report.inserted, report.deleted
            );
            write_response(out, 200, "OK", body.as_bytes());
        }
        Err(DeltaError::UnknownGraph(_)) => {
            write_response(out, 404, "Not Found", b"unknown graph\n")
        }
        Err(err) => write_response(out, 400, "Bad Request", format!("{err}\n").as_bytes()),
    }
}

/// `GET /stats`: the coalescing counters per served graph, as JSON.
fn stats_json(shared: &Shared) -> String {
    let ports = shared.ports.read().expect("ports lock");
    let mut graphs: Vec<String> = Vec::new();
    for (name, port) in ports.iter() {
        graphs.push(format!(
            "\"{}\":{{\"vertex_count\":{},\"batches_formed\":{},\
             \"queries_coalesced\":{},\"overloads\":{}}}",
            pscc_telemetry::escape_label_value(name),
            port.vertex_count,
            port.lane.batches_formed(),
            port.lane.queries_coalesced(),
            port.lane.overloads(),
        ));
    }
    graphs.sort();
    format!("{{\"graphs\":{{{}}}}}\n", graphs.join(","))
}
