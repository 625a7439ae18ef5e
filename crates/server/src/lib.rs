//! # pscc-server — a batch-coalescing reachability front end
//!
//! The engine answers reachability queries hundreds of times faster in
//! batches than one at a time — the paper's batched multi-source
//! reachability is the unit of work everything in this workspace is
//! built around. This crate puts a network in front of that fact
//! without giving the win back: a hand-rolled TCP HTTP/1.1-lite server
//! (std networking only) whose core is the [`coalesce::Lane`] admission
//! lane — concurrent in-flight point queries from independent
//! connections are coalesced into engine
//! [`QueryBatch`](pscc_engine::QueryBatch)es via the catalog's lean
//! [`BatchSubmitter`](pscc_engine::BatchSubmitter) path. The lane is a
//! leader/follower combiner with no thread of its own: a query that
//! finds the lane idle runs as its own batch at once, queries that
//! arrive during an engine call leave together as the next batch, and
//! per-graph backpressure is explicit (bounded queue, HTTP 503 on
//! overload).
//!
//! Layers, bottom up:
//!
//! | module | role |
//! |---|---|
//! | [`args`] | shared `--flag VALUE` parser for the workspace's front-end binaries |
//! | [`http`] | HTTP/1.1-lite request parsing and response formatting, pipelining-aware |
//! | [`coalesce`] | the admission lane: leader/follower batching, backpressure, telemetry |
//! | [`server`] | TCP accept loop, run collection, routing, the delta write path |
//!
//! One binary rides along: `pscc-server`, the standalone daemon.
//!
//! ```no_run
//! use std::sync::Arc;
//! use pscc_engine::Catalog;
//! use pscc_server::{start, ServerConfig};
//!
//! let catalog = Arc::new(Catalog::new());
//! catalog.insert("g", pscc_graph::generators::simple::cycle_digraph(8));
//! let handle = start(catalog, ServerConfig::default()).unwrap();
//! println!("serving on {}", handle.local_addr());
//! // GET /reach/g?u=0&v=5  ->  "1"
//! handle.shutdown();
//! ```

pub mod args;
pub mod coalesce;
pub mod http;
pub mod server;

pub use coalesce::{CoalesceConfig, Lane, SubmitError};
pub use server::{start, PortStats, ServerConfig, ServerHandle};
