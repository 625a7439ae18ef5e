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
//! * [`Catalog`] — named graphs with lazily built, invalidatable indexes.
//!   Merges and index builds run **off-lock** with a generation counter
//!   (queries keep answering from the current index during a multi-second
//!   rebuild; a racing delta is detected, never lost — see
//!   [`catalog`]), and any entry can be made durable: [`Catalog::persist_to`]
//!   attaches a `pscc-store` snapshot + write-ahead log, after which
//!   deltas are fsynced before they return and [`Catalog::open`] recovers
//!   the whole catalog after a restart (torn log tails truncated), with
//!   background compaction under a [`CompactionPolicy`].
//! * [`Delta`] — batched edge updates applied through
//!   [`Catalog::apply_delta`]: the delta is normalized
//!   ([`Delta::normalized`]), the graph merged in parallel
//!   (`DiGraph::with_delta`), and the index repaired *incrementally* by
//!   the tiered planner ([`planner`]). Insertions: absorb (answers
//!   provably unchanged, index kept) → condensation arc splice (SCC
//!   labels kept, levels/summary patched for affected ancestors) →
//!   region SCC recompute (the SCC algorithm re-runs on just the
//!   affected DAG region). Deletions, against a per-arc edge-support
//!   table: support decrement (a parallel edge or the DAG still
//!   witnesses the arc — metadata only, index kept) → DAG-arc unsplice
//!   (the last support died: drop the arc, relax levels, narrow
//!   summaries for affected ancestors) → SCC split check (an intra-SCC
//!   deletion: SCC re-runs on just that component's members and the
//!   sub-components are spliced back). The cost-bounded full rebuild
//!   remains only for mixed structural deltas and repairs past the
//!   [`RepairBudget`]. Which tier ran comes back in the
//!   [`DeltaReport`].
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
pub mod explain;
pub mod index;
mod layers;
pub mod planner;

pub use batch::{BatchOptions, BatchStats, QueryBatch};
pub use catalog::{BatchSubmitter, Catalog, CompactionPolicy};
pub use delta::{Delta, DeltaError, DeltaOutcome, DeltaReport};
pub use explain::{PlanExplain, QueryExplain, QueryTier};
pub use index::{Index, IndexConfig, IndexStats, SummaryTier};
pub use planner::{plan_repair_explained, RebuildReason, RepairBudget, RepairPlan};
pub use pscc_telemetry as telemetry;
