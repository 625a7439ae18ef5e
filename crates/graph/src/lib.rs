//! # pscc-graph
//!
//! Graph substrate for the parallel-scc workspace: compressed-sparse-row
//! digraphs and undirected graphs, parallel builders from edge lists,
//! text/binary I/O, structural statistics, and deterministic generators for
//! every graph family in the paper's evaluation (§6): social-style RMAT
//! graphs, web-style bowtie digraphs, k-NN graphs from synthetic point
//! clouds, and the four circular-lattice models SQR/REC/SQR'/REC'.

pub mod builder;
pub mod csr;
pub mod fixtures;
pub mod generators;
pub mod io;
pub mod stats;
pub mod view;

pub use builder::{
    build_csr, contract_csr, csr_from_weighted_arcs, dedup_edges, merge_csr, merge_rows,
    splice_rows, splice_values, RowOffset, SPLICE_CHUNK,
};
pub use csr::{Csr, DiGraph, UnGraph};
pub use view::SubgraphView;

/// Vertex identifier. Graphs are capped at `u32::MAX - 1` vertices;
/// `u32::MAX` serves as an EMPTY sentinel in the concurrent structures.
pub type V = u32;

/// Sentinel "no vertex" value.
pub const NONE_V: V = u32::MAX;
