//! Deterministic, seeded workload scenarios shared by the engine's
//! oracle tests: graph families beyond RMAT (cycle chains, layered DAGs,
//! grids, star hubs, random digraphs) × scripted insert/delete/mixed
//! delta sequences, constructed so that **every repair tier of the
//! planner is exercised by construction rather than by luck** — each
//! scripted step can carry the exact [`DeltaOutcome`] it was built to
//! provoke, and the replay driver checks it.
//!
//! The driver ([`replay_against_oracle`]) pushes a scenario through a
//! live [`Catalog`] while maintaining a plain edge-set oracle, and after
//! **every** step asserts that the stored graph and all-pairs
//! reachability answers are identical to a from-scratch
//! [`ReachIndex::build`] over the oracle edges.

use parallel_scc::engine::{BatchOptions, Delta, DeltaOutcome, IndexConfig};
use parallel_scc::prelude::*;
use pscc_runtime::SplitMix64;
use std::collections::BTreeSet;

/// One scripted delta of a scenario.
pub struct Step {
    pub insertions: Vec<(V, V)>,
    pub deletions: Vec<(V, V)>,
    /// The outcome this step was constructed to provoke (checked by the
    /// driver whenever an index was live before the step); `None` for
    /// free-form steps.
    pub expect: Option<DeltaOutcome>,
}

impl Step {
    fn new(ins: &[(V, V)], del: &[(V, V)], expect: DeltaOutcome) -> Step {
        Step { insertions: ins.to_vec(), deletions: del.to_vec(), expect: Some(expect) }
    }

    fn free(ins: Vec<(V, V)>, del: Vec<(V, V)>) -> Step {
        Step { insertions: ins, deletions: del, expect: None }
    }
}

/// A named starting graph plus its scripted delta sequence.
pub struct Scenario {
    pub name: String,
    pub n: usize,
    pub edges: Vec<(V, V)>,
    pub steps: Vec<Step>,
}

/// Per-outcome tallies of one or more replays.
#[derive(Clone, Copy, Default, Debug)]
pub struct OutcomeTally {
    pub noop: u64,
    pub deferred: u64,
    pub absorbed: u64,
    pub dag_spliced: u64,
    pub region_recomputed: u64,
    pub arc_unspliced: u64,
    pub scc_split: u64,
    pub rebuilt: u64,
    /// `Absorbed` outcomes of delete-bearing deltas specifically: the
    /// support-decrement / latent-dead / no-split metadata tier.
    pub absorbed_deletions: u64,
}

impl OutcomeTally {
    fn record(&mut self, outcome: DeltaOutcome, had_deletions: bool) {
        match outcome {
            DeltaOutcome::NoOp => self.noop += 1,
            DeltaOutcome::Deferred => self.deferred += 1,
            DeltaOutcome::Absorbed => {
                self.absorbed += 1;
                if had_deletions {
                    self.absorbed_deletions += 1;
                }
            }
            DeltaOutcome::DagSpliced => self.dag_spliced += 1,
            DeltaOutcome::RegionRecomputed => self.region_recomputed += 1,
            DeltaOutcome::ArcUnspliced => self.arc_unspliced += 1,
            DeltaOutcome::SccSplit => self.scc_split += 1,
            DeltaOutcome::Rebuilt => self.rebuilt += 1,
        }
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: &OutcomeTally) {
        self.noop += other.noop;
        self.deferred += other.deferred;
        self.absorbed += other.absorbed;
        self.dag_spliced += other.dag_spliced;
        self.region_recomputed += other.region_recomputed;
        self.arc_unspliced += other.arc_unspliced;
        self.scc_split += other.scc_split;
        self.rebuilt += other.rebuilt;
        self.absorbed_deletions += other.absorbed_deletions;
    }
}

/// Applies the documented delta semantics (`(E ∖ del) ∪ ins`,
/// ends-up-present) to a plain edge set.
fn apply_to_edge_set(edges: &mut BTreeSet<(V, V)>, ins: &[(V, V)], del: &[(V, V)]) {
    for e in del {
        if !ins.contains(e) {
            edges.remove(e);
        }
    }
    edges.extend(ins.iter().copied());
}

/// Replays `scenario` through a fresh catalog, asserting after every
/// step that the stored graph and all-pairs answers match a from-scratch
/// index over the tracked edge set — and, when `check_expectations`,
/// that each step took exactly the repair tier it was scripted to
/// provoke. `build_first` controls whether an index exists before the
/// first delta (otherwise it appears lazily at the first check).
pub fn replay_against_oracle(
    scenario: &Scenario,
    cfg: IndexConfig,
    build_first: bool,
    check_expectations: bool,
) -> OutcomeTally {
    let g = DiGraph::from_edges(scenario.n, &scenario.edges);
    let mut edges: BTreeSet<(V, V)> = g.out_csr().edges().collect();
    let catalog = Catalog::new();
    catalog.insert_with_config("g", g, cfg, BatchOptions::default());
    if build_first {
        let _ = catalog.index("g").expect("registered");
    }
    let mut tally = OutcomeTally::default();
    for (i, step) in scenario.steps.iter().enumerate() {
        let ctx = format!("scenario {} step {i}", scenario.name);
        let was_indexed = catalog.is_indexed("g");
        let delta = Delta::from_parts(step.insertions.clone(), step.deletions.clone());
        let report = catalog.apply_delta("g", &delta).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        tally.record(report.outcome, !step.deletions.is_empty());
        if check_expectations {
            if let Some(expect) = step.expect {
                // Without a live index every non-noop delta defers.
                let expect = if was_indexed || expect == DeltaOutcome::NoOp {
                    expect
                } else {
                    DeltaOutcome::Deferred
                };
                assert_eq!(report.outcome, expect, "{ctx}: scripted tier not taken");
            }
        }
        apply_to_edge_set(&mut edges, &step.insertions, &step.deletions);

        // Oracle: stored graph and all answers equal a from-scratch build.
        let edge_list: Vec<(V, V)> = edges.iter().copied().collect();
        let oracle_graph = DiGraph::from_edges(scenario.n, &edge_list);
        let stored = catalog.graph("g").expect("registered");
        assert_eq!(stored.out_csr(), oracle_graph.out_csr(), "{ctx}: stored graph diverged");
        let scratch = ReachIndex::build(&oracle_graph);
        for u in 0..scenario.n as V {
            for v in 0..scenario.n as V {
                assert_eq!(
                    catalog.reaches("g", u, v),
                    Some(scratch.reaches(u, v)),
                    "{ctx}: answer ({u}, {v}) diverged from the from-scratch oracle"
                );
            }
        }
        if catalog.is_indexed("g") {
            let index = catalog.index("g").expect("registered");
            super::assert_support_in_lockstep(&index, &edge_list, &ctx);
        }
    }
    tally
}

/// The full scenario suite: every structured family plus seeded random
/// mixed workloads.
pub fn scenario_suite(seed: u64) -> Vec<Scenario> {
    vec![
        cycle_chain(3, 5),
        layered_dag(4, 3),
        grid(4, 4),
        star_hubs(3, 2),
        random_mixed(24, 48, 10, seed),
        random_mixed(32, 96, 10, seed ^ 0x5eed),
        random_mixed(16, 20, 12, seed ^ 0xfeed),
    ]
}

/// Hub-heavy scenarios for the 2-hop label tier: graphs whose
/// reachability concentrates through a few high-degree vertices, so the
/// degree-descending labeling picks real hubs and the label arrays carry
/// genuine coverage (rather than degenerating to self-labels). Replayed
/// under a label-forcing config by `tests/engine_label_oracle.rs`.
pub fn label_scenario_suite(seed: u64) -> Vec<Scenario> {
    vec![
        hub_fanout(4, 3, 4),
        hub_fanout(3, 2, 6),
        star_hubs(4, 3),
        layered_dag(6, 4),
        random_mixed(40, 110, 10, seed ^ 0x1ab),
    ]
}

/// A three-rank fanout DAG: `sources` × `hubs` × `sinks`, every source
/// feeding every hub and every hub feeding every sink. The hubs carry
/// degree `sources + sinks` — far above everything else — so the pruned
/// labeling processes them first and one or two hub entries per vertex
/// cover the whole reachability relation. Steps exercise every repair
/// tier against that labeling: absorb (hub-witnessed shortcut), arc
/// unsplice + re-splice of a spoke, a sink→source back edge (region
/// merge) and the split that prices through the merged component, a
/// mixed structural rebuild, and a no-op.
pub fn hub_fanout(sources: usize, hubs: usize, sinks: usize) -> Scenario {
    let n = sources + hubs + sinks;
    let src = |i: usize| i as V;
    let hub = |j: usize| (sources + j) as V;
    let sink = |k: usize| (sources + hubs + k) as V;
    let mut edges: Vec<(V, V)> = Vec::new();
    for i in 0..sources {
        for j in 0..hubs {
            edges.push((src(i), hub(j)));
        }
    }
    for j in 0..hubs {
        for k in 0..sinks {
            edges.push((hub(j), sink(k)));
        }
    }
    let steps = vec![
        // Source-to-sink shortcut: already witnessed by every hub.
        Step::new(&[(src(0), sink(0))], &[], DeltaOutcome::Absorbed),
        // A single spoke is one support of its condensation arc.
        Step::new(&[], &[(src(0), hub(0))], DeltaOutcome::ArcUnspliced),
        // Neither endpoint reaches the other now: a pure re-splice.
        Step::new(&[(src(0), hub(0))], &[], DeltaOutcome::DagSpliced),
        // Sink-to-source back edge closes a cycle through the hubs.
        Step::new(&[(sink(0), src(0))], &[], DeltaOutcome::RegionRecomputed),
        // An intra-SCC spoke of the merged component: the split check.
        Step::new(&[], &[(src(0), hub(1))], DeltaOutcome::SccSplit),
        // A structural deletion (the sole spoke from src 1 to hub 1)
        // mixed with an insertion: priced out.
        Step::new(&[(sink(1), sink(2))], &[(src(1), hub(1))], DeltaOutcome::Rebuilt),
        // Redundant operations only.
        Step::new(&[(src(2), hub(0))], &[(sink(2), sink(0))], DeltaOutcome::NoOp),
    ];
    Scenario { name: format!("hub_fanout_{sources}x{hubs}x{sinks}"), n, edges, steps }
}

/// `cycles` directed cycles of length `len` linked in a chain, each link
/// carried by **two parallel edges** (two direct supports of one
/// condensation arc). Exercises: support decrement, arc unsplice,
/// re-splice, latent absorb + latent-dead delete, SCC split, region
/// re-merge, mixed rebuild, noop.
pub fn cycle_chain(cycles: usize, len: usize) -> Scenario {
    let n = cycles * len;
    let at = |c: usize, j: usize| (c * len + j) as V;
    let mut edges: Vec<(V, V)> = Vec::new();
    for c in 0..cycles {
        for j in 0..len {
            edges.push((at(c, j), at(c, (j + 1) % len)));
        }
        if c + 1 < cycles {
            edges.push((at(c, 0), at(c + 1, 0)));
            edges.push((at(c, 1), at(c + 1, 1)));
        }
    }
    let steps = vec![
        // One of two parallel supports: metadata-only decrement.
        Step::new(&[], &[(at(0, 0), at(1, 0))], DeltaOutcome::Absorbed),
        // The last support: the condensation arc dies.
        Step::new(&[], &[(at(0, 1), at(1, 1))], DeltaOutcome::ArcUnspliced),
        // Relink the mutually unreachable cycles: a pure arc splice.
        Step::new(&[(at(0, 0), at(1, 0))], &[], DeltaOutcome::DagSpliced),
        // A shortcut over two hops: absorbable, becomes a latent pair.
        Step::new(&[(at(0, 0), at(2, 0))], &[], DeltaOutcome::Absorbed),
        // Deleting the latent shortcut: the DAG still witnesses it.
        Step::new(&[], &[(at(0, 0), at(2, 0))], DeltaOutcome::Absorbed),
        // A cycle edge: the middle cycle shatters into singletons.
        Step::new(&[], &[(at(1, 0), at(1, 1))], DeltaOutcome::SccSplit),
        // Putting it back re-merges the region.
        Step::new(&[(at(1, 0), at(1, 1))], &[], DeltaOutcome::RegionRecomputed),
        // Structural deletion + insertion in one delta: priced out.
        Step::new(&[(at(0, 2), at(2, 2))], &[(at(0, 0), at(1, 0))], DeltaOutcome::Rebuilt),
        // Redundant operations only.
        Step::new(&[(at(0, 1), at(0, 2))], &[(at(0, 0), at(2, 4))], DeltaOutcome::NoOp),
    ];
    Scenario { name: format!("cycle_chain_{cycles}x{len}"), n, edges, steps }
}

/// A layered DAG (`layers` × `width`, fanout 2, all singleton
/// components). Exercises: absorb-to-latent, an unsplice whose only
/// surviving witness is the drained latent arc, a cross-layer back edge
/// (region merge), and the split that undoes it.
pub fn layered_dag(layers: usize, width: usize) -> Scenario {
    let n = layers * width;
    let at = |l: usize, w: usize| (l * width + w) as V;
    let mut edges: Vec<(V, V)> = Vec::new();
    for l in 0..layers - 1 {
        for w in 0..width {
            for k in 0..2 {
                edges.push((at(l, w), at(l + 1, (w + k) % width)));
            }
        }
    }
    let steps = vec![
        // Skip edge over one layer: already reachable, goes latent.
        Step::new(&[(at(0, 0), at(2, 0))], &[], DeltaOutcome::Absorbed),
        // The only graph path from (0,0) to (2,0) runs through this arc:
        // after the unsplice the drained latent arc is the sole witness.
        Step::new(&[], &[(at(1, 0), at(2, 0))], DeltaOutcome::ArcUnspliced),
        // Bottom-to-top back edge: merges the components on the cycle.
        Step::new(&[(at(layers - 1, 0), at(0, 0))], &[], DeltaOutcome::RegionRecomputed),
        // Undo it: an intra-SCC deletion, the merged component splits.
        Step::new(&[], &[(at(layers - 1, 0), at(0, 0))], DeltaOutcome::SccSplit),
        // Redundant insertion of a base edge.
        Step::new(&[(at(0, 0), at(1, 0))], &[], DeltaOutcome::NoOp),
    ];
    Scenario { name: format!("layered_dag_{layers}x{width}"), n, edges, steps }
}

/// A `w × h` directed grid (arcs increase x or y — a DAG). Exercises:
/// absorbed diagonal, unsplice of a uniquely supporting arc, a
/// back-diagonal merge, the split check (both splitting and
/// holding-together), and a mixed rebuild.
pub fn grid(w: usize, h: usize) -> Scenario {
    let n = w * h;
    let at = |x: usize, y: usize| (y * w + x) as V;
    let mut edges: Vec<(V, V)> = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((at(x, y), at(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((at(x, y), at(x, y + 1)));
            }
        }
    }
    let steps = vec![
        // A diagonal shortcut: reachable via two corners, goes latent.
        Step::new(&[(at(0, 0), at(1, 1))], &[], DeltaOutcome::Absorbed),
        // (1,0) was reachable from (0,0) only through this arc.
        Step::new(&[], &[(at(0, 0), at(1, 0))], DeltaOutcome::ArcUnspliced),
        // Back-diagonal closes a cycle over {origin, (0,1), (1,1)}.
        Step::new(&[(at(1, 1), at(0, 0))], &[], DeltaOutcome::RegionRecomputed),
        // (0,1) falls out of the merged component; the diagonal pair
        // (origin ↔ (1,1)) stays strongly connected.
        Step::new(&[], &[(at(0, 1), at(1, 1))], DeltaOutcome::SccSplit),
        // Structural deletion + insertion: priced out to a rebuild.
        Step::new(&[(at(2, 2), at(0, 0))], &[(at(0, 0), at(1, 1))], DeltaOutcome::Rebuilt),
    ];
    Scenario { name: format!("grid_{w}x{h}"), n, edges, steps }
}

/// `hubs` two-vertex strongly connected hubs, each fanning out to
/// `leaves` leaves over **two parallel spokes** (one per hub vertex),
/// hubs chained by single links. Exercises: spoke decrement + unsplice,
/// hub split and re-merge, chain-link unsplice and re-splice.
pub fn star_hubs(hubs: usize, leaves: usize) -> Scenario {
    let n = hubs * 2 + hubs * leaves;
    let hub = |i: usize, side: usize| (i * 2 + side) as V;
    let leaf = |i: usize, j: usize| (hubs * 2 + i * leaves + j) as V;
    let mut edges: Vec<(V, V)> = Vec::new();
    for i in 0..hubs {
        edges.push((hub(i, 0), hub(i, 1)));
        edges.push((hub(i, 1), hub(i, 0)));
        for j in 0..leaves {
            edges.push((hub(i, 0), leaf(i, j)));
            edges.push((hub(i, 1), leaf(i, j)));
        }
        if i + 1 < hubs {
            edges.push((hub(i, 0), hub(i + 1, 0)));
        }
    }
    let steps = vec![
        // One of two parallel spokes to leaf 0.
        Step::new(&[], &[(hub(0, 0), leaf(0, 0))], DeltaOutcome::Absorbed),
        // The other one: the spoke arc dies.
        Step::new(&[], &[(hub(0, 1), leaf(0, 0))], DeltaOutcome::ArcUnspliced),
        // Half the hub cycle: the two-vertex hub splits.
        Step::new(&[], &[(hub(0, 0), hub(0, 1))], DeltaOutcome::SccSplit),
        // Put it back: the two singletons re-merge.
        Step::new(&[(hub(0, 0), hub(0, 1))], &[], DeltaOutcome::RegionRecomputed),
        // The only link to the next hub.
        Step::new(&[], &[(hub(0, 0), hub(1, 0))], DeltaOutcome::ArcUnspliced),
        // Relink: a pure splice (no cycle possible).
        Step::new(&[(hub(0, 0), hub(1, 0))], &[], DeltaOutcome::DagSpliced),
        // Redundant both ways.
        Step::new(&[(hub(1, 0), hub(1, 1))], &[(leaf(0, 0), hub(0, 0))], DeltaOutcome::NoOp),
    ];
    Scenario { name: format!("star_hubs_{hubs}x{leaves}"), n, edges, steps }
}

/// A seeded `G(n, m)` digraph with `steps` scripted pseudo-random deltas
/// (pure deletions, pure insertions, and mixed batches), generated
/// against a simulated edge set so deletions always name present edges.
/// No per-step expectations — this family provides breadth, the
/// structured families provide tier coverage by construction.
pub fn random_mixed(n: usize, m: usize, steps: usize, seed: u64) -> Scenario {
    let g = parallel_scc::graph::generators::random::gnm_digraph(n, m, seed);
    let edges: Vec<(V, V)> = g.out_csr().edges().collect();
    let mut sim: BTreeSet<(V, V)> = edges.iter().copied().collect();
    let mut rng = SplitMix64::new(seed ^ 0x5ce9a410);
    let pick_present = |sim: &BTreeSet<(V, V)>, rng: &mut SplitMix64| -> Option<(V, V)> {
        if sim.is_empty() {
            return None;
        }
        sim.iter().nth(rng.next_below(sim.len() as u64) as usize).copied()
    };
    let mut script = Vec::with_capacity(steps);
    for s in 0..steps {
        let mut ins: Vec<(V, V)> = Vec::new();
        let mut del: Vec<(V, V)> = Vec::new();
        let mode = s % 3;
        if mode != 1 {
            // Deletions of present edges (1–3 of them).
            for _ in 0..1 + rng.next_below(3) {
                if let Some(e) = pick_present(&sim, &mut rng) {
                    del.push(e);
                }
            }
        }
        if mode != 0 {
            for _ in 0..1 + rng.next_below(3) {
                ins.push((rng.next_below(n as u64) as V, rng.next_below(n as u64) as V));
            }
        }
        apply_to_edge_set(&mut sim, &ins, &del);
        script.push(Step::free(ins, del));
    }
    Scenario { name: format!("random_mixed_n{n}_m{m}_s{seed:x}"), n, edges, steps: script }
}
