//! # parallel-scc
//!
//! A Rust reproduction of *"Parallel Strong Connectivity Based on Faster
//! Reachability"* (Wang, Dong, Gu, Sun — SIGMOD 2023): parallel strongly
//! connected components via the BGSS algorithm with **vertical granularity
//! control** reachability searches and the **parallel hash bag**, plus the
//! paper's two companion applications (graph connectivity and
//! least-element lists) and every baseline it evaluates against.
//!
//! ## Quick start
//!
//! ```
//! use parallel_scc::prelude::*;
//!
//! // A 4-cycle plus a tail: {0,1,2,3} is one SCC, 4 is a singleton.
//! let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]);
//! let result = parallel_scc(&g, &SccConfig::default());
//! assert_eq!(result.num_sccs, 2);
//! assert_eq!(result.largest_scc, 4);
//! assert_eq!(result.labels[0], result.labels[3]);
//! assert_ne!(result.labels[0], result.labels[4]);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`runtime`] | `pscc-runtime` | fork-join primitives, scan/pack, PRNG, atomics |
//! | [`graph`] | `pscc-graph` | CSR graphs, builders, I/O, generators |
//! | [`bag`] | `pscc-bag` | the parallel hash bag (§3.3) |
//! | [`table`] | `pscc-table` | phase-concurrent pair table + §4.5 heuristic |
//! | [`scc`] | `pscc-core` | VGC reachability + BGSS SCC (the contribution) |
//! | [`baselines`] | `pscc-baselines` | Tarjan, Kosaraju, GBBS-like, Multi-step, FW-BW |
//! | [`cc`] | `pscc-cc` | LDD-UF-JTB connectivity (§5.1) |
//! | [`lelists`] | `pscc-lelists` | BGSS least-element lists (§5.2) |
//! | [`apps`] | `pscc-apps` | condensation, topological sort |
//! | [`engine`] | `pscc-engine` | batched reachability queries over the condensation DAG |
//! | [`store`] | `pscc-store` | durable snapshots + write-ahead delta log with crash recovery |
//! | [`telemetry`] | `pscc-telemetry` | zero-dependency metrics, tracing spans, exposition, logging |
//! | [`server`] | `pscc-server` | TCP front end with batch-coalescing admission queue |
//!
//! ## Serving reachability queries
//!
//! The [`engine`] module answers `u ⇝ v` queries over any digraph after a
//! one-time index build (SCC → condensation → descendant summaries), and
//! registered graphs accept batched edge updates ([`engine::Delta`])
//! with incremental index repair:
//!
//! ```
//! use parallel_scc::prelude::*;
//!
//! let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
//! let index = ReachIndex::build(&g);
//! let batch = QueryBatch::new(&index);
//! assert_eq!(batch.answer(&[(0, 4), (4, 0), (1, 0)]), vec![true, false, true]);
//!
//! let catalog = Catalog::new();
//! catalog.insert("g", g);
//! let mut delta = Delta::new();
//! delta.insert(4, 2); // close 2 -> 3 -> 4 back into a cycle
//! catalog.apply_delta("g", &delta).unwrap();
//! assert_eq!(catalog.reaches("g", 4, 0), Some(true));
//! ```
//!
//! Registered graphs can also be made **durable**
//! ([`engine::Catalog::persist_to`]): deltas are then write-ahead logged
//! and fsynced before they return, and [`engine::Catalog::open`] recovers
//! the whole catalog — newest valid snapshot plus log replay, torn tails
//! truncated — after a crash or restart. See [`store`].
//!
//! For serving over the network, [`server`] wraps a catalog in a TCP
//! front end whose admission queue coalesces concurrent point queries
//! into engine batches (the `pscc-server` binary is its daemon form).

pub use pscc_apps as apps;
pub use pscc_bag as bag;
pub use pscc_baselines as baselines;
pub use pscc_cc as cc;
pub use pscc_core as scc;
pub use pscc_engine as engine;
pub use pscc_graph as graph;
pub use pscc_lelists as lelists;
pub use pscc_runtime as runtime;
pub use pscc_server as server;
pub use pscc_store as store;
pub use pscc_table as table;
pub use pscc_telemetry as telemetry;

/// The most common imports in one place.
pub mod prelude {
    pub use pscc_apps::{condense, scc_topological_order, topological_order};
    pub use pscc_bag::{BagConfig, HashBag};
    pub use pscc_baselines::{fwbw_scc, gbbs_scc, kosaraju_scc, multistep_scc, tarjan_scc};
    pub use pscc_cc::{connected_components, CcConfig, LddConfig, LddMode};
    pub use pscc_core::{parallel_scc, parallel_scc_with_stats, ReachParams, SccConfig, SccResult};
    pub use pscc_engine::{Catalog, Delta, Index as ReachIndex, IndexConfig, QueryBatch};
    pub use pscc_graph::{DiGraph, UnGraph, V};
    pub use pscc_lelists::{cohen_le_lists, le_lists, FrontierMode, LeListsConfig};
    pub use pscc_runtime::{num_workers, with_threads};
}
