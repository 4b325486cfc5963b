//! Lemma 4.2 — reducing slack-1 (list size `deg(e)+1`) instances to
//! slack-β instances.
//!
//! One *sweep* implements steps 2–3 of the Lemma 4.2 algorithm:
//!
//! 1. compute a `deg(e)/2β`-defective edge coloring with `O(β²)` classes;
//! 2. iterate over the classes; in class `i`, every member edge removes the
//!    colors already used by its neighbors from its list, marks itself
//!    *active* if more than `deg(e)/2` colors remain, and the active
//!    subgraph — whose defective degree is ≤ `deg(e)/2β`, so every active
//!    list has slack > β — is handed to the slack-β solver;
//! 3. edges left uncolored are returned to the caller, which recurses on
//!    the residual instance ([`residual_after_sweep`]); the residual maximum
//!    edge degree provably halves.
//!
//! The caller (the Theorem 4.1 solver) loops sweeps until everything is
//! colored, giving
//! `T(Δ̄,1,C) ≤ O(β²·log Δ̄)·T(Δ̄,β,C) + O(log Δ̄·log* X)`.
//!
//! ## Class order
//!
//! [`sweep`] handles the defective classes one after another, in ascending
//! class order, as step 2 does: a class's residual lists read the colors
//! that earlier classes gave its members' neighbors. The cost tree charges
//! the classes in sequence.
//!
//! ## Residual lists at the endpoints
//!
//! An edge's line-graph neighbours are the other edges at its two
//! endpoints, so the colors its colored neighbours use are the colors used
//! at `u` plus those used at `v`. The sweep keeps one palette bit row per
//! endpoint and sets a color's bit at both endpoints when a class writes
//! it back; a member's residual list is its list AND-NOT `(row(u) | row(v))`
//! ([`ColorList::without`]), with no walk over its `deg(e)` neighbours.
//! [`residual_after_sweep`] builds its lists the same way.

use crate::defective::{defective_edge_coloring, defective_palette};
use crate::instance::ListInstance;
use crate::lists::{bit_of, word_of, ColorList};
use crate::solver::{SolveBranch, SolveError, SolveStats};
use deco_graph::coloring::Color;
use deco_graph::{EdgeId, EdgeSubgraph, Graph, NodeId};
use deco_local::CostNode;
use deco_runtime::Runtime;

/// The inner solver a sweep hands active classes to. Receives a slack-β
/// instance together with its restricted initial `X`-edge-coloring, and must
/// return a complete valid coloring plus its cost and recursion stats
/// ([`SolveBranch`]); errors propagate through the sweep.
pub type InnerSolver<'a> = dyn Fn(&ListInstance, &[u32]) -> Result<SolveBranch, SolveError> + 'a;

/// Statistics of one Lemma 4.2 sweep, used by the experiment harness to
/// verify the lemma's inequalities empirically.
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// Defective palette size (total classes, empty or not) — the `O(β²)`.
    pub classes_total: u64,
    /// Classes that actually contained uncolored edges.
    pub classes_nonempty: u64,
    /// Edges colored by inner solvers during the sweep.
    pub colored: usize,
    /// Edges that were members of a processed class but inactive.
    pub inactive: usize,
    /// Minimum observed slack `|L′_e| / deg′(e)` among active edges with
    /// positive active degree (must exceed β; ∞ if none).
    pub min_active_slack: f64,
    /// Messages delivered by the sweep's own protocol runs (the defective
    /// coloring's conflict-path 3-coloring; the inner solves report theirs
    /// through [`SweepOutcome::inner_stats`]). Identical on every engine.
    pub messages: u64,
}

/// Result of one sweep over the defective classes.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Per-edge colors assigned during this sweep (`None` = still open).
    pub colors: Vec<Option<Color>>,
    /// Round cost of the sweep (defective coloring + per-class work).
    pub cost: CostNode,
    /// Verification statistics.
    pub stats: SweepStats,
    /// Recursion stats of the inner (slack-β) solves, merged in class
    /// order — the caller folds these into its own frame.
    pub inner_stats: SolveStats,
}

/// The colors in use at the nodes that carry an edge of one graph: one
/// palette bit row of `⌈C/64⌉` words per node, in the layout of a
/// [`ColorList`]. Only nodes with edges get a row, found by binary search
/// among them once per edge: the graphs of the recursion keep their
/// parent's whole node set, and most of it carries no edge.
struct EndpointPalettes {
    /// Per edge, the row of each endpoint.
    ends: Vec<[usize; 2]>,
    /// Words per row.
    width: usize,
    rows: Vec<u64>,
}

impl EndpointPalettes {
    /// Empty rows for the endpoints of `g`'s edges, over palette `C`.
    fn new(g: &Graph, palette: u32) -> EndpointPalettes {
        let mut nodes: Vec<NodeId> = g.edge_list().iter().flatten().copied().collect();
        nodes.sort_unstable();
        nodes.dedup();
        let row = |v: NodeId| nodes.binary_search(&v).expect("an endpoint has a row");
        let ends = g
            .edge_list()
            .iter()
            .map(|&[u, v]| [row(u), row(v)])
            .collect();
        let width = palette.div_ceil(u64::BITS) as usize;
        EndpointPalettes {
            ends,
            width,
            rows: vec![0; nodes.len() * width],
        }
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.rows[r * self.width..(r + 1) * self.width]
    }

    /// Records that edge `e` took color `c`: its bit is set at both
    /// endpoints.
    fn mark(&mut self, e: EdgeId, c: Color) {
        debug_assert!(word_of(c) < self.width, "color {c} outside the palette");
        for r in self.ends[e.index()] {
            self.rows[r * self.width + word_of(c)] |= bit_of(c);
        }
    }

    /// `list` without the colors used at either endpoint of `e`.
    fn residual(&self, e: EdgeId, list: &ColorList) -> ColorList {
        let [a, b] = self.ends[e.index()];
        list.without(self.row(a), self.row(b))
    }
}

/// Runs one Lemma 4.2 sweep on `inst` with parameter `beta`, using `inner`
/// to solve each active class (a slack-β instance), in class order.
///
/// # Errors
///
/// Propagates the first inner-solver error in class order.
///
/// # Panics
///
/// Panics if an invariant of the lemma fails: an active class without
/// slack > β, or an inner solution that is improper or off-list.
pub fn sweep(
    inst: &ListInstance,
    x_coloring: &[u32],
    x_palette: u32,
    beta: u32,
    rt: &Runtime,
    inner: &InnerSolver<'_>,
) -> Result<SweepOutcome, SolveError> {
    let _sweep_span = deco_trace::span(deco_trace::Phase::Sweep);
    let g = inst.graph();
    let m = g.num_edges();
    let defective = defective_edge_coloring(g, beta, x_coloring, x_palette, rt);
    let num_classes = defective_palette(beta);

    // Bucket edges by defective class; the ascending class order is the
    // processing order that defines the observable behavior (empty classes
    // cost schedule rounds but no work — the budget side is accounted in
    // `budget.rs`). Buckets are sparse: with the paper's β the palette is
    // far larger than the edge count.
    let mut buckets: std::collections::BTreeMap<u32, Vec<EdgeId>> =
        std::collections::BTreeMap::new();
    for e in g.edges() {
        buckets
            .entry(defective.colors[e.index()])
            .or_default()
            .push(e);
    }

    let mut colors: Vec<Option<Color>> = vec![None; m];
    let mut used = EndpointPalettes::new(g, inst.palette());
    let mut stats = SweepStats {
        classes_total: u64::from(num_classes),
        min_active_slack: f64::INFINITY,
        messages: defective.messages,
        ..SweepStats::default()
    };
    let mut inner_stats = SolveStats::default();
    let mut costs: Vec<CostNode> = vec![defective.cost];

    for (class, members) in buckets {
        // Step 3(a)+(b): residual lists against already-colored neighbors;
        // actives have |L′| > deg(e)/2. Learning neighbor colors costs one
        // round.
        stats.classes_nonempty += 1;
        let mut active: Vec<EdgeId> = Vec::new();
        let mut active_lists: Vec<ColorList> = Vec::new();
        for e in members {
            let list = used.residual(e, inst.list(e));
            if list.len() as f64 > g.edge_degree(e) as f64 / 2.0 {
                active.push(e);
                active_lists.push(list);
            } else {
                stats.inactive += 1;
            }
        }
        if active.is_empty() {
            costs.push(CostNode::leaf(format!("class {class}: learn colors"), 1));
            continue;
        }

        let (sub_graph, edge_map) = EdgeSubgraph::from_edge_ids(g, &active).into_parts();
        let sub_inst = ListInstance::new_unchecked(sub_graph, active_lists, inst.palette());
        // Invariant (paper, "Enough slack"): |L′_e| > β·deg′(e).
        for se in sub_inst.graph().edges() {
            let deg_sub = sub_inst.graph().edge_degree(se);
            let len = sub_inst.list(se).len();
            assert!(
                len as f64 > beta as f64 * deg_sub as f64,
                "active edge lost its slack: |L'|={len}, β·deg'={}",
                beta as usize * deg_sub
            );
            if deg_sub > 0 {
                stats.min_active_slack = stats.min_active_slack.min(len as f64 / deg_sub as f64);
            }
        }
        let sub_x: Vec<u32> = edge_map.iter().map(|pe| x_coloring[pe.index()]).collect();
        stats.colored += active.len();

        // Step 3(c): solve P(Δ̄/2β, β, C) on the active subgraph.
        let branch = {
            let _span = deco_trace::span(deco_trace::Phase::SolverBranch);
            inner(&sub_inst, &sub_x)?
        };
        debug_assert!(
            sub_inst
                .check_solution(&deco_graph::coloring::EdgeColoring::from_complete(
                    branch.colors.clone()
                ))
                .is_ok(),
            "inner solver returned an invalid coloring"
        );
        for (&pe, &c) in edge_map.iter().zip(&branch.colors) {
            colors[pe.index()] = Some(c);
            used.mark(pe, c);
        }
        inner_stats.merge(&branch.stats);
        costs.push(CostNode::seq(
            format!("class {class}: learn + solve slack-β"),
            vec![CostNode::leaf("learn neighbor colors", 1), branch.cost],
        ));
    }

    debug_assert!(
        deco_graph::coloring::check_partial_edge_coloring(
            g,
            &deco_graph::coloring::EdgeColoring::from_vec(colors.clone())
        )
        .is_ok(),
        "sweep produced adjacent same-colored edges"
    );

    let cost = CostNode::seq(format!("lemma-4.2 sweep(β={beta})"), costs);
    Ok(SweepOutcome {
        colors,
        cost,
        stats,
        inner_stats,
    })
}

/// Residual instance after a sweep: the uncolored subgraph with lists
/// reduced by the colors of colored neighbors.
#[derive(Debug, Clone)]
pub struct Residual {
    /// The residual instance (again a (deg+1)-list instance).
    pub instance: ListInstance,
    /// Map from residual edge ids to the swept instance's edge ids.
    pub edge_map: Vec<EdgeId>,
    /// The initial `X`-coloring restricted to the residual edges.
    pub x_coloring: Vec<u32>,
}

/// Builds the residual instance from a partial coloring of `inst`.
///
/// The returned instance satisfies the (deg+1)-list property: a colored
/// neighbor removes at most one list color *and* one unit of degree.
///
/// # Panics
///
/// Panics if the residual violates the (deg+1)-list property (which would
/// indicate the partial coloring was not produced honestly).
pub fn residual_after_sweep(
    inst: &ListInstance,
    x_coloring: &[u32],
    colors: &[Option<Color>],
) -> Residual {
    let g = inst.graph();
    let mut used = EndpointPalettes::new(g, inst.palette());
    for (e, c) in g.edges().zip(colors) {
        if let Some(c) = *c {
            used.mark(e, c);
        }
    }
    let open: Vec<EdgeId> = g.edges().filter(|e| colors[e.index()].is_none()).collect();
    let lists = open
        .iter()
        .map(|&e| used.residual(e, inst.list(e)))
        .collect();
    let (graph, edge_map) = EdgeSubgraph::from_edge_ids(g, &open).into_parts();
    let instance = ListInstance::new_unchecked(graph, lists, inst.palette());
    assert!(
        instance.validate_slack(1.0).is_ok(),
        "residual instance must remain a (deg+1)-list instance"
    );
    let x_restricted: Vec<u32> = edge_map.iter().map(|pe| x_coloring[pe.index()]).collect();
    Residual {
        instance,
        edge_map,
        x_coloring: x_restricted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance;
    use deco_algos::edge_adapter;
    use deco_graph::generators;

    fn x_for(g: &deco_graph::Graph) -> (Vec<u32>, u32) {
        let ids: Vec<u64> = (1..=g.num_nodes() as u64).collect();
        let res = edge_adapter::linial_edge_coloring(g, &ids, &Runtime::serial()).unwrap();
        (
            g.edges().map(|e| res.coloring.get(e).unwrap()).collect(),
            res.palette as u32,
        )
    }

    /// An inner "solver" that greedily colors the slack-β instance — valid
    /// for tests because slack > β ≥ 1 implies (deg+1)-lists.
    fn greedy_inner(inst: &ListInstance, _x: &[u32]) -> Result<SolveBranch, SolveError> {
        let lists: Vec<Vec<Color>> = inst.lists().iter().map(|l| l.to_vec()).collect();
        let coloring = deco_algos::greedy::greedy_list_edge_coloring(
            inst.graph(),
            &lists,
            deco_algos::greedy::EdgeOrder::ById,
        )
        .expect("slack-β instances are greedily solvable");
        let colors: Vec<Color> = inst
            .graph()
            .edges()
            .map(|e| coloring.get(e).unwrap())
            .collect();
        Ok(SolveBranch {
            colors,
            cost: CostNode::leaf("greedy-inner", 1),
            stats: SolveStats {
                base_cases: 1,
                ..SolveStats::default()
            },
        })
    }

    #[test]
    fn sweep_colors_edges_and_respects_invariants() {
        let g = generators::random_regular(30, 6, 1);
        let inst = instance::two_delta_minus_one(&g);
        let (xc, xp) = x_for(&g);
        let out = sweep(&inst, &xc, xp, 1, &Runtime::serial(), &greedy_inner).unwrap();
        // Inner stats merged once per class that reached the inner solver.
        assert!(out.inner_stats.base_cases > 0);
        assert!(out.inner_stats.base_cases <= out.stats.classes_nonempty);
        assert!(out.stats.colored > 0, "a sweep must make progress");
        assert!(out.stats.min_active_slack > 1.0);
        assert_eq!(out.stats.classes_total, u64::from(defective_palette(1)));
        // Partial coloring is proper and on-list.
        for e in g.edges() {
            if let Some(c) = out.colors[e.index()] {
                assert!(inst.list(e).contains(c));
            }
        }
    }

    #[test]
    fn residual_degree_halves() {
        let g = generators::random_regular(40, 8, 2);
        let inst = instance::two_delta_minus_one(&g);
        let (xc, xp) = x_for(&g);
        let out = sweep(&inst, &xc, xp, 1, &Runtime::serial(), &greedy_inner).unwrap();
        let res = residual_after_sweep(&inst, &xc, &out.colors);
        let dbar = inst.max_edge_degree();
        assert!(
            res.instance.max_edge_degree() <= dbar / 2,
            "residual Δ̄ {} must be ≤ Δ̄/2 = {}",
            res.instance.max_edge_degree(),
            dbar / 2
        );
    }

    #[test]
    fn repeated_sweeps_terminate() {
        let g = generators::gnp(40, 0.25, 3);
        let mut inst = instance::two_delta_minus_one(&g);
        let (mut xc, xp) = x_for(&g);
        let mut final_colors: Vec<Option<Color>> = vec![None; g.num_edges()];
        let mut maps: Vec<EdgeId> = g.edges().collect();
        let mut sweeps = 0;
        while inst.graph().num_edges() > 0 {
            let out = sweep(&inst, &xc, xp, 1, &Runtime::serial(), &greedy_inner).unwrap();
            for (local, &orig) in maps.iter().enumerate() {
                if let Some(c) = out.colors[local] {
                    final_colors[orig.index()] = Some(c);
                }
            }
            let res = residual_after_sweep(&inst, &xc, &out.colors);
            maps = res.edge_map.iter().map(|&le| maps[le.index()]).collect();
            inst = res.instance;
            xc = res.x_coloring;
            sweeps += 1;
            assert!(sweeps <= 2 + (g.max_edge_degree() as f64).log2().ceil() as u32 + 1);
        }
        // Full coloring is proper and on-list.
        let full = deco_graph::coloring::EdgeColoring::from_vec(final_colors);
        let orig_inst = instance::two_delta_minus_one(&g);
        orig_inst
            .check_solution(&full)
            .expect("complete proper list coloring");
    }

    #[test]
    fn sweep_on_empty_graph() {
        let g = deco_graph::Graph::empty(3);
        let inst = instance::two_delta_minus_one(&g);
        let out = sweep(&inst, &[], 2, 1, &Runtime::serial(), &greedy_inner).unwrap();
        assert_eq!(out.stats.classes_nonempty, 0);
        assert_eq!(out.colors.len(), 0);
    }

    #[test]
    fn endpoint_rows_match_the_neighbour_walk_as_classes_color() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        // Nodes 5 and 8 carry no edge and get no row.
        let g = deco_graph::Graph::from_edges(
            9,
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 1), (6, 7)],
        )
        .unwrap();
        let palette = 130;
        let inst = instance::random_deg_plus_one(&g, palette, 3);
        let mut used = EndpointPalettes::new(&g, palette);
        let mut colors: Vec<Option<Color>> = vec![None; g.num_edges()];
        let mut order: Vec<EdgeId> = g.edges().collect();
        order.shuffle(&mut rng);
        // Color one edge at a time, as a class writes its colors back, with
        // colors from the whole palette, its last word included.
        for e in order {
            for f in g.edges().filter(|f| colors[f.index()].is_none()) {
                let mut walk = inst.list(f).clone();
                let near: Vec<Color> = g
                    .edge_neighbors(f)
                    .filter_map(|h| colors[h.index()])
                    .collect();
                walk.remove_all(&near);
                assert_eq!(used.residual(f, inst.list(f)), walk, "edge {f}");
            }
            let c = rng.gen_range(0..palette);
            colors[e.index()] = Some(c);
            used.mark(e, c);
        }
    }

    #[test]
    fn residual_lists_shrink_with_neighbors() {
        // Path of 3 edges; color the middle edge, residual lists of the two
        // outer edges must drop that color.
        let g = generators::path(4);
        let inst = instance::two_delta_minus_one(&g);
        let colors = vec![None, Some(1), None];
        let res = residual_after_sweep(&inst, &[0, 1, 2], &colors);
        assert_eq!(res.instance.graph().num_edges(), 2);
        for e in res.instance.graph().edges() {
            assert!(!res.instance.list(e).contains(1));
        }
    }
}
