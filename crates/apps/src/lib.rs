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
//!   condensation, of an arbitrary digraph's components.

pub mod condensation;
pub mod toposort;

pub use condensation::{condense, condense_scc, topo_levels_of, Condensation};
pub use toposort::{scc_topological_order, topological_order};
