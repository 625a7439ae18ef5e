//! # pscc-core — parallel SCC via faster reachability
//!
//! The primary contribution of *"Parallel Strong Connectivity Based on
//! Faster Reachability"* (SIGMOD 2023): the BGSS strongly-connected-
//! components algorithm (Blelloch–Gu–Shun–Sun, J. ACM 2020) driven by
//! reachability searches that use
//!
//! * **vertical granularity control (VGC, §3.1–3.2)** — each frontier
//!   vertex runs a sequential multi-hop *local search* of up to `τ` visited
//!   neighbours in a stack-local queue, collapsing many BFS rounds into one
//!   and hiding scheduling overhead on sparse, large-diameter graphs;
//! * the **parallel hash bag** (`pscc-bag`) for frontier maintenance
//!   without the edge-revisit scheme;
//! * the **phase-concurrent pair table** (`pscc-table`) with the §4.5
//!   sizing heuristic for reachability pairs.
//!
//! Entry point: [`scc::parallel_scc`] / [`scc::parallel_scc_with_stats`]
//! configured by [`config::SccConfig`] (the `plain` / `vgc1` / `final`
//! variants of Fig. 9 are `SccConfig::plain()`, `SccConfig::vgc1()`, and
//! `SccConfig::default()`).
//!
//! **Labels are representatives:** every label in [`SccResult::labels`] is
//! `FINAL_TAG | s` for a vertex `s` of that very SCC which labels itself
//! (see [`scc::components`]), so [`dense_components`] derives dense
//! first-appearance component ids and sizes with no hash map.

pub mod config;
pub mod reach;
pub mod scc;
pub mod state;
pub mod stats;
pub mod verify;

pub use config::{ReachParams, SccConfig};
pub use scc::{
    dense_components, parallel_scc, parallel_scc_induced, parallel_scc_with_stats, SccResult,
};
pub use state::{SccState, FINAL_TAG};
pub use stats::{SccStats, SearchRecord};
pub use verify::{component_stats, normalize_labels, same_partition};
