//! End-to-end concurrency tests for the `pscc-server` TCP front end:
//! many client threads fire mixed point queries and edge deltas at a
//! live server and every answer is checked against a client-side BFS
//! oracle. The concurrent phase only applies **reachability-preserving**
//! deltas (edges between already-reachable pairs — the engine absorbs
//! them) so the oracle stays valid while queries race the writes; a
//! structural delta is then applied in a sequential phase and the
//! changed answers re-verified. Separate tests send runs longer than a
//! deliberately tiny admission queue and assert backpressure arrives as
//! explicit 503s, never as a hang; check that a lone query waits for
//! nobody; and check that short-lived connections are reaped.

use parallel_scc::engine::Catalog;
use parallel_scc::graph::{DiGraph, V};
use parallel_scc::runtime::SplitMix64;
use parallel_scc::server::{start, CoalesceConfig, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

const N: usize = 512;
const EDGES: usize = 1200;

/// Deterministic sparse digraph plus its adjacency for the BFS oracle.
fn test_graph(seed: u64) -> (DiGraph, Vec<Vec<usize>>) {
    let mut rng = SplitMix64::new(seed);
    let mut edges = Vec::with_capacity(EDGES);
    while edges.len() < EDGES {
        let u = rng.next_below(N as u64) as V;
        let v = rng.next_below(N as u64) as V;
        if u != v {
            edges.push((u, v));
        }
    }
    let g = DiGraph::from_edges(N, &edges);
    let mut adj = vec![Vec::new(); N];
    for &(u, v) in &edges {
        adj[u as usize].push(v as usize);
    }
    (g, adj)
}

fn bfs_reaches(adj: &[Vec<usize>], u: usize, v: usize) -> bool {
    if u == v {
        return true;
    }
    let mut seen = vec![false; adj.len()];
    let mut queue = std::collections::VecDeque::from([u]);
    seen[u] = true;
    while let Some(x) = queue.pop_front() {
        for &y in &adj[x] {
            if y == v {
                return true;
            }
            if !seen[y] {
                seen[y] = true;
                queue.push_back(y);
            }
        }
    }
    false
}

/// Reads one HTTP/1.1 response off `stream`, returning `(status, body)`.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, Vec<u8>) {
    loop {
        if let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..head_len]).expect("UTF-8 head");
            let status: u16 = head
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .expect("status code in response line");
            let content_length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.parse().ok())
                .expect("Content-Length header");
            let body_start = head_len + 4;
            while buf.len() < body_start + content_length {
                read_more(stream, buf);
            }
            let body = buf[body_start..body_start + content_length].to_vec();
            buf.drain(..body_start + content_length);
            return (status, body);
        }
        read_more(stream, buf);
    }
}

fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) {
    let mut chunk = [0u8; 4096];
    let n = stream.read(&mut chunk).expect("readable response");
    assert!(n > 0, "server closed the connection mid-response");
    buf.extend_from_slice(&chunk[..n]);
}

/// Sends a pipelined window of point queries on one connection and
/// returns the answers (asserting every response is a 200).
fn query_window(stream: &mut TcpStream, graph: &str, queries: &[(usize, usize)]) -> Vec<bool> {
    let mut out = Vec::new();
    for &(u, v) in queries {
        out.extend_from_slice(
            format!("GET /reach/{graph}?u={u}&v={v} HTTP/1.1\r\n\r\n").as_bytes(),
        );
    }
    stream.write_all(&out).expect("writable request");
    let mut buf = Vec::new();
    queries
        .iter()
        .map(|&(u, v)| {
            let (status, body) = read_response(stream, &mut buf);
            assert_eq!(
                status,
                200,
                "query ({u}, {v}) failed: {:?}",
                String::from_utf8_lossy(&body)
            );
            assert!(body == b"1" || body == b"0", "unexpected body {body:?}");
            body == b"1"
        })
        .collect()
}

#[test]
fn concurrent_queries_and_deltas_match_bfs_oracle() {
    let (g, adj) = test_graph(0xc0c0a);
    let catalog = Catalog::new();
    catalog.insert("conc", g);
    let config = ServerConfig::default();
    let handle = start(Arc::new(catalog), config).expect("server starts");
    let addr = handle.local_addr();

    // Reachable pairs for the delta writers: inserting u -> v where
    // u already reaches v is absorbed by the engine, so the oracle
    // adjacency never needs updating while queries race these writes.
    let mut absorbable = Vec::new();
    'outer: for u in 0..N {
        for &v in &adj[u] {
            for &w in &adj[v] {
                if w != u {
                    absorbable.push((u, w)); // u -> v -> w, insert u -> w
                    if absorbable.len() >= 64 {
                        break 'outer;
                    }
                }
            }
        }
    }
    assert!(absorbable.len() >= 16, "graph too sparse for delta pairs");

    const CLIENTS: usize = 8;
    const WINDOWS: usize = 12;
    const WINDOW: usize = 16;
    let total_queries = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..CLIENTS {
            let adj = &adj;
            let absorbable = &absorbable;
            workers.push(scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connectable");
                let mut rng = SplitMix64::new(0x5eed + t as u64);
                let mut asked = 0usize;
                for round in 0..WINDOWS {
                    let queries: Vec<(usize, usize)> = (0..WINDOW)
                        .map(|_| {
                            (rng.next_below(N as u64) as usize, rng.next_below(N as u64) as usize)
                        })
                        .collect();
                    let answers = query_window(&mut stream, "conc", &queries);
                    for (&(u, v), got) in queries.iter().zip(answers) {
                        assert_eq!(got, bfs_reaches(adj, u, v), "query ({u}, {v})");
                    }
                    asked += WINDOW;
                    // Half the clients interleave an absorbable delta
                    // between windows, racing everyone else's queries.
                    if t % 2 == 0 {
                        let (u, v) = absorbable[(t * WINDOWS + round) % absorbable.len()];
                        let body = format!("+ {u} {v}\n");
                        let req = format!(
                            "POST /delta/conc HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                            body.len()
                        );
                        stream.write_all(req.as_bytes()).expect("writable delta");
                        let mut buf = Vec::new();
                        let (status, reply) = read_response(&mut stream, &mut buf);
                        assert_eq!(status, 200, "{:?}", String::from_utf8_lossy(&reply));
                    }
                }
                asked
            }));
        }
        workers.into_iter().map(|w| w.join().expect("client thread")).sum::<usize>()
    });

    let stats = handle.port_stats("conc").expect("lane exists after first query");
    assert_eq!(stats.queries_coalesced, total_queries as u64);
    assert!(
        stats.batches_formed < stats.queries_coalesced / 2,
        "coalescing must have grouped queries: {} batches for {} queries",
        stats.batches_formed,
        stats.queries_coalesced
    );
    assert_eq!(stats.overloads, 0, "the default queue must not overload at this load");

    // ---- Sequential phase: a structural delta, then re-verify. ----
    // Find a pair with no path either way; inserting that edge splices
    // the condensation DAG and flips the answer.
    let (su, sv) = (0..N)
        .flat_map(|u| [(u, (u + N / 2) % N), (u, (u + N / 3) % N)])
        .find(|&(u, v)| u != v && !bfs_reaches(&adj, u, v) && !bfs_reaches(&adj, v, u))
        .expect("a mutually unreachable pair exists in a sparse digraph");
    let mut stream = TcpStream::connect(addr).expect("connectable");
    assert!(!query_window(&mut stream, "conc", &[(su, sv)])[0]);
    let body = format!("+ {su} {sv}\n");
    let req = format!("POST /delta/conc HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
    stream.write_all(req.as_bytes()).expect("writable delta");
    let mut buf = Vec::new();
    let (status, _) = read_response(&mut stream, &mut buf);
    assert_eq!(status, 200);
    let mut adj2 = adj.clone();
    adj2[su].push(sv);
    let mut rng = SplitMix64::new(0xafe);
    let recheck: Vec<(usize, usize)> = std::iter::once((su, sv))
        .chain(
            (0..64).map(|_| (rng.next_below(N as u64) as usize, rng.next_below(N as u64) as usize)),
        )
        .collect();
    let answers = query_window(&mut stream, "conc", &recheck);
    for (&(u, v), got) in recheck.iter().zip(answers) {
        assert_eq!(got, bfs_reaches(&adj2, u, v), "post-delta query ({u}, {v})");
    }

    handle.shutdown();
}

#[test]
fn overload_returns_503_instead_of_hanging() {
    let (g, adj) = test_graph(0xbad);
    let catalog = Catalog::new();
    catalog.insert("backpressure", g);
    // A queue of four: a pipelined run of eight can never be admitted,
    // whoever else is in flight, and must be shed as 503s at once; a run
    // of two fits unless enough other clients are already queued.
    let config =
        ServerConfig { coalesce: CoalesceConfig { queue_cap: 4 }, ..ServerConfig::default() };
    let handle = start(Arc::new(catalog), config).expect("server starts");
    let addr = handle.local_addr();

    const CLIENTS: usize = 12;
    const WINDOWS: usize = 6;
    const LONG: usize = 8;
    const SHORT: usize = 2;
    let (oks, overloads) = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..CLIENTS {
            let adj = &adj;
            workers.push(scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connectable");
                let mut rng = SplitMix64::new(0xd05 + t as u64);
                let mut buf = Vec::new();
                let (mut oks, mut overloads) = (0usize, 0usize);
                for w in 0..WINDOWS {
                    let window = if w % 2 == 0 { LONG } else { SHORT };
                    let queries: Vec<(usize, usize)> = (0..window)
                        .map(|_| {
                            (rng.next_below(N as u64) as usize, rng.next_below(N as u64) as usize)
                        })
                        .collect();
                    // One write, so the server reads the window as one run.
                    let mut out = Vec::new();
                    for &(u, v) in &queries {
                        out.extend_from_slice(
                            format!("GET /reach/backpressure?u={u}&v={v} HTTP/1.1\r\n\r\n")
                                .as_bytes(),
                        );
                    }
                    stream.write_all(&out).expect("writable request");
                    for &(u, v) in &queries {
                        let (status, body) = read_response(&mut stream, &mut buf);
                        match status {
                            200 => {
                                assert_eq!(
                                    body == b"1",
                                    bfs_reaches(adj, u, v),
                                    "query ({u}, {v})"
                                );
                                oks += 1;
                            }
                            503 => overloads += 1,
                            other => panic!("unexpected status {other}"),
                        }
                    }
                }
                (oks, overloads)
            }));
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    });

    assert_eq!(
        oks + overloads,
        CLIENTS * WINDOWS / 2 * (LONG + SHORT),
        "every request got a response"
    );
    assert!(overloads > 0, "runs of {LONG} against a 4-slot queue must be shed");
    assert!(oks > 0, "admission control must still serve in-capacity windows");
    // The server counts rejected *submissions* (one per shed run, up to
    // LONG queries each); the clients count per-query 503s.
    let stats = handle.port_stats("backpressure").expect("lane exists");
    assert!(
        stats.overloads > 0
            && stats.overloads <= overloads as u64
            && overloads as u64 <= stats.overloads * LONG as u64,
        "server-side overload counter must agree with the {} client 503s \
         (counted {} shed submissions of up to {LONG} queries)",
        overloads,
        stats.overloads
    );
    handle.shutdown();
}

#[test]
fn lone_queries_wait_for_nobody() {
    let (g, adj) = test_graph(0x10e);
    let catalog = Catalog::new();
    catalog.insert("lone", g);
    let handle = start(Arc::new(catalog), ServerConfig::default()).expect("server starts");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connectable");

    // Un-pipelined GETs, one at a time: each finds the lane idle and must
    // be dispatched as its own batch, not held back for company.
    const QUERIES: usize = 40;
    let mut rng = SplitMix64::new(0x501e);
    for _ in 0..QUERIES {
        let (u, v) = (rng.next_below(N as u64) as usize, rng.next_below(N as u64) as usize);
        assert_eq!(query_window(&mut stream, "lone", &[(u, v)])[0], bfs_reaches(&adj, u, v));
    }
    stream.write_all(b"GET /stats HTTP/1.1\r\n\r\n").expect("writable request");
    let (status, body) = read_response(&mut stream, &mut Vec::new());
    assert_eq!(status, 200);
    let stats = String::from_utf8(body).expect("UTF-8 stats");
    assert!(
        stats.contains(&format!("\"batches_formed\":{QUERIES},\"queries_coalesced\":{QUERIES},")),
        "{QUERIES} sequential queries must be {QUERIES} batches: {stats}"
    );
    handle.shutdown();
}

#[test]
fn finished_connections_are_reaped() {
    let (g, _) = test_graph(0x2ea9);
    let catalog = Catalog::new();
    catalog.insert("reap", g);
    let handle = start(Arc::new(catalog), ServerConfig::default()).expect("server starts");
    let addr = handle.local_addr();
    let tracked =
        parallel_scc::telemetry::gauge(&format!("pscc_server_open_connections{{addr=\"{addr}\"}}"));

    let connect_and_ask = || {
        let mut stream = TcpStream::connect(addr).expect("connectable");
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").expect("writable request");
        assert_eq!(read_response(&mut stream, &mut Vec::new()).0, 200);
    };
    for _ in 0..300 {
        connect_and_ask();
    }
    // Each accept reaps the connections that have finished by then, so
    // what the server still tracks is the last few, not all 300. Their
    // threads exit on their own schedule: keep knocking until they have.
    let settled = (0..300).any(|_| {
        connect_and_ask();
        (1..=4).contains(&tracked.get())
    });
    assert!(settled, "server still tracks {} connection handles", tracked.get());
    handle.shutdown();
}
