//! # pscc-engine — a batched reachability query engine on the condensation DAG
//!
//! The paper computes SCCs because strong connectivity underlies
//! reachability answering at scale: two vertices reach each other iff they
//! share an SCC, and general `u ⇝ v` reachability factors through the
//! (acyclic) condensation. This crate turns the workspace's SCC pipeline
//! (`parallel_scc` → `condense`) into a serving layer:
//!
//! * [`Index`] — an immutable per-graph reachability index. Construction
//!   runs the paper's BGSS SCC, contracts to the condensation DAG, assigns
//!   longest-path topological levels, and precomputes a descendant summary
//!   whose representation adapts to the DAG size ([`SummaryTier`]):
//!   full per-component **bitsets** when they fit a memory budget,
//!   **pruned 2-hop labels** (sorted hub arrays; a point query is one
//!   merge-intersection, no DFS fallback) when the DAG is large but the
//!   labeling fits its own byte budget, and GRAIL-style randomized
//!   **DFS interval labels with exception lists** (exact small
//!   descendant sets) plus a pruned-DFS fallback otherwise. Queries
//!   short-circuit in order: same SCC → level prune → summary.
//! * [`QueryBatch`] — answers query batches in parallel via the runtime's
//!   blocked `par_for`, with a concurrent fixed-capacity memo for hot
//!   component-pair verdicts.
//! * [`Catalog`] — named graphs with lazily built, invalidatable indexes,
//!   across three modules: [`catalog`] (the name map, the public API,
//!   [`BatchSubmitter`] and the maintenance worker), [`entry`] (one
//!   graph's entry and its generation protocol: merges and index builds
//!   run **off-lock**, queries keep answering from the current index
//!   during a multi-second rebuild, and a racing delta is detected, never
//!   lost) and [`recovery`] ([`Catalog::open`] recovers a catalog whose
//!   entries [`Catalog::persist_to`] made durable with a `pscc-store`
//!   snapshot + write-ahead log; background compaction runs under a
//!   [`CompactionPolicy`]).
//! * [`Delta`] — batched edge updates applied through
//!   [`Catalog::apply_delta`]: normalized ([`Delta::normalized`]), merged
//!   into the graph in parallel (`DiGraph::with_delta`), and repaired
//!   *incrementally* by the cheapest provably correct tier of the
//!   [`planner`]; the full rebuild is left for mixed structural deltas and
//!   repairs past the planner's fixed bounds (128 new or dead arcs, a
//!   quarter of the index). Which tier ran comes back in the
//!   [`DeltaReport`].
//!
//! [`IndexConfig`] holds the index's only settings, the three budgets that
//! pick its summary tier; the SCC kernel runs at `SccConfig::default()`.
//!
//! ```
//! use pscc_engine::{Catalog, Index, QueryBatch};
//! use pscc_graph::DiGraph;
//!
//! // {0,1,2} is a cycle feeding a tail 3 -> 4.
//! let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]);
//! let index = Index::build(&g);
//! assert!(index.reaches(0, 4));     // through the cycle, down the tail
//! assert!(index.reaches(2, 1));     // same SCC
//! assert!(!index.reaches(4, 0));    // tails don't flow back
//!
//! let batch = QueryBatch::new(&index);
//! assert_eq!(batch.answer(&[(0, 4), (4, 0)]), vec![true, false]);
//!
//! let catalog = Catalog::new();
//! catalog.insert("demo", g);
//! assert_eq!(catalog.reaches("demo", 1, 3), Some(true));
//! ```

pub mod batch;
pub mod catalog;
pub mod delta;
pub mod entry;
pub mod explain;
pub mod index;
mod layers;
pub mod planner;
pub mod recovery;

pub use batch::{BatchOptions, BatchStats, QueryBatch};
pub use catalog::{BatchSubmitter, Catalog, CompactionPolicy};
pub use delta::{Delta, DeltaError, DeltaOutcome, DeltaReport};
pub use explain::{PlanExplain, QueryExplain, QueryTier};
pub use index::{Index, IndexConfig, IndexStats, SummaryTier};
pub use planner::{plan_repair_explained, RebuildReason, RepairPlan};
pub use pscc_telemetry as telemetry;
