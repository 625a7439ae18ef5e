//! Query and planner provenance: *which* path answered, and *why*.
//!
//! The engine can answer a reachability query seven different ways (same
//! SCC, level prune, memo, bitset row, 2-hop label intersection, exception
//! list, interval labels with a pruned-DFS fallback) and repair an index
//! six different ways
//! (absorb through full rebuild). The serving API only returns booleans
//! and delta outcomes — fine for throughput, useless for "why was *this* query
//! slow" or "why did *that* delta fall to a full rebuild". This module
//! carries the provenance:
//!
//! * [`QueryExplain`] — per-query: the verdict, the [`QueryTier`] that
//!   decided it, and the work done (DFS nodes visited on the fallback
//!   path). Produced by [`QueryBatch::explain`](crate::QueryBatch::explain)
//!   and [`Catalog::answer_batch_explained`](crate::Catalog::answer_batch_explained).
//! * [`PlanExplain`] — per-delta: the cost-model inputs the planner saw
//!   (deletion classification, support-table state, contracted arc
//!   counts, region size, region bound) and every cheaper tier it rejected,
//!   with the reason. Produced by
//!   [`plan_repair_explained`](crate::planner::plan_repair_explained)
//!   and journaled with its delta by [`Catalog::apply_delta`](crate::Catalog::apply_delta)
//!   (the flight recorder's `apply_delta` event).

/// The decision path that produced one query verdict, ordered roughly
/// cheapest-first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryTier {
    /// `u` and `v` share an SCC: `true` in O(1) from the component map.
    SameComponent,
    /// `level(cu) >= level(cv)`: `false` in O(1) — every DAG arc strictly
    /// increases the topological level, so no path can exist.
    LevelPrune,
    /// The component-pair verdict was already in the batch memo.
    Memo,
    /// One bit test in the bitset tier's descendant row.
    BitsetRow,
    /// One merge-intersection of the 2-hop label tier's sorted hub arrays
    /// (`label_out(u)` against `label_in(v)`) — the label path never falls
    /// back to a DFS.
    LabelIntersect,
    /// The source component carries an exact exception list; binary
    /// search decided.
    ExceptionList,
    /// The interval labelings refuted reachability without any traversal
    /// (`may_reach` failed for some labeling).
    IntervalRefute,
    /// Every prune let the query through: the interval tier ran its
    /// pruned DFS over the condensation DAG.
    PrunedDfs,
}

impl QueryTier {
    /// Stable lower-snake name, as printed in EXPLAIN output and journal
    /// events.
    pub fn name(&self) -> &'static str {
        match self {
            QueryTier::SameComponent => "same_component",
            QueryTier::LevelPrune => "level_prune",
            QueryTier::Memo => "memo",
            QueryTier::BitsetRow => "bitset_row",
            QueryTier::LabelIntersect => "label_intersect",
            QueryTier::ExceptionList => "exception_list",
            QueryTier::IntervalRefute => "interval_refute",
            QueryTier::PrunedDfs => "pruned_dfs",
        }
    }
}

/// Provenance of one answered query.
#[derive(Clone, Debug)]
pub struct QueryExplain {
    /// Source vertex.
    pub u: pscc_graph::V,
    /// Target vertex.
    pub v: pscc_graph::V,
    /// The verdict, identical to what `answer` would return.
    pub reaches: bool,
    /// The tier that decided it.
    pub tier: QueryTier,
    /// Work done on the summary's slow-ish paths: condensation components
    /// visited by the pruned DFS when `tier` is [`QueryTier::PrunedDfs`],
    /// or merge steps taken by the sorted-hub intersection when `tier` is
    /// [`QueryTier::LabelIntersect`]; 0 everywhere else.
    pub dfs_visited: usize,
}

impl QueryExplain {
    /// One human-readable line, e.g. `0 -> 4 = true via pruned_dfs (7 visited)`.
    pub fn describe(&self) -> String {
        let mut out =
            format!("{} -> {} = {} via {}", self.u, self.v, self.reaches, self.tier.name());
        if self.tier == QueryTier::PrunedDfs {
            out.push_str(&format!(" ({} visited)", self.dfs_visited));
        }
        out
    }
}

/// The planner's cost-model inputs and decisions for one delta: what it
/// measured, which cheaper tiers it rejected and why, and what it chose.
///
/// Counts refer to the *contracted* view (condensation arcs and
/// components), not raw edges, matching the quantities the planner's
/// bounds price; `split_vertices` and a split check's `max_region` are
/// the exception, in vertices.
#[derive(Clone, Debug, Default)]
pub struct PlanExplain {
    /// Effective edge insertions in the delta.
    pub insertions: usize,
    /// Effective edge deletions in the delta.
    pub deletions: usize,
    /// How the deletions classified: `"none"`, `"metadata"`, or
    /// `"structural"`.
    pub deletion_class: &'static str,
    /// DAG arcs whose last direct-edge support the delta kills.
    pub dead_arcs: usize,
    /// Components an intra-SCC deletion may split.
    pub split_comps: usize,
    /// Total vertices in those components (what a split check's `max_region` bounds).
    pub split_vertices: usize,
    /// Distinct non-absorbable new condensation arcs.
    pub new_arcs: usize,
    /// How many of those close a cycle among components.
    pub cyclic_arcs: usize,
    /// Size of the computed merge region in components (0 when no region
    /// was computed or it overran `max_region`).
    pub region_size: usize,
    /// The largest repair the planner runs in place, `max(size / 4, 32)`:
    /// in components (`size` = the index's components) for a merge region,
    /// in vertices (`size` = the graph's vertices) once a split check is
    /// priced. The other bound, 128 new or dead arcs, is a constant.
    pub max_region: usize,
    /// Cheaper tiers rejected on the way down, as `(tier, why)` pairs in
    /// rejection order.
    pub rejected: Vec<(&'static str, &'static str)>,
    /// Tier name of the chosen plan
    /// ([`RepairPlan::tier_name`](crate::RepairPlan::tier_name)).
    pub chosen: &'static str,
}

impl PlanExplain {
    pub(crate) fn reject(&mut self, tier: &'static str, why: &'static str) {
        self.rejected.push((tier, why));
    }

    /// The explain as flat `key=value` fields for the flight-recorder
    /// journal (rejections joined as `tier:why` with `;`).
    pub fn journal_fields(&self) -> Vec<(&'static str, String)> {
        let rejected = self
            .rejected
            .iter()
            .map(|(tier, why)| format!("{tier}:{why}"))
            .collect::<Vec<_>>()
            .join("; ");
        vec![
            ("chosen", self.chosen.to_string()),
            ("insertions", self.insertions.to_string()),
            ("deletions", self.deletions.to_string()),
            ("deletion_class", self.deletion_class.to_string()),
            ("dead_arcs", self.dead_arcs.to_string()),
            ("split_comps", self.split_comps.to_string()),
            ("split_vertices", self.split_vertices.to_string()),
            ("new_arcs", self.new_arcs.to_string()),
            ("cyclic_arcs", self.cyclic_arcs.to_string()),
            ("region_size", self.region_size.to_string()),
            ("max_region", self.max_region.to_string()),
            ("rejected", rejected),
        ]
    }
}
