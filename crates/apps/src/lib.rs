//! # pscc-apps — applications built on parallel SCC
//!
//! The paper's introduction motivates SCC as a primitive for downstream
//! problems — "graph matching, topological sort, graph contraction, and
//! code analysis" (§1). This crate implements the classic ones on top of
//! `pscc-core`:
//!
//! * [`condensation`] — contract every SCC into a single vertex, yielding
//!   the condensation DAG (graph contraction);
//! * [`toposort`] — topological ordering of a DAG and, composed with
//!   condensation, of an arbitrary digraph's components;
//! * [`twosat`] — a complete 2-SAT solver: satisfiability and a model via
//!   SCCs of the implication graph;
//! * [`kcore`] — k-core decomposition with hash-bag wake-up frontiers
//!   (the §8 "wake-up strategy" application);
//! * [`sssp`] — weighted shortest paths with relaxation re-queuing (the
//!   §8 "revisiting for relaxation" design).

pub mod condensation;
pub mod kcore;
pub mod sssp;
pub mod toposort;
pub mod twosat;

pub use condensation::{condense, condense_scc, topo_levels_of, Condensation};
pub use kcore::{core_numbers, core_numbers_sequential};
pub use sssp::{dijkstra, parallel_sssp, SsspResult};
pub use toposort::{scc_topological_order, topological_order};
pub use twosat::{Lit, TwoSat};
