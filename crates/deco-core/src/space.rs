//! Lemma 4.3 — list color space reduction, the paper's main technical
//! contribution.
//!
//! Given an instance over a palette of size `C` and a parameter `p`, the
//! palette is partitioned into `q ≤ 2p` subspaces of size ≤ `C/p`
//! ([`SubspacePartition`]), and every edge is assigned one subspace, its
//! list shrinking to the intersection. The assignment guarantees Eq. (2):
//!
//! ```text
//! deg′(e) ≤ 24·H_q·log p · (|L′_e| / |L_e|) · deg(e)
//! ```
//!
//! so the per-subspace residual instances lose slack by a factor of at most
//! `24·H_{2p}·log p`, and can be solved *in parallel* (distinct subspaces
//! use disjoint colors).
//!
//! Assignment procedure (paper, §4.2):
//! * every edge computes its *level* `ℓ(e)` (Lemma 4.4 guarantees one
//!   exists);
//! * edges with `ℓ(e) ≤ 3` take the subspace with the largest intersection;
//! * edges with `ℓ(e) > 3` and `deg(e) ≥ 2^{ℓ}` (the set `E⁽¹⁾`) are
//!   processed in phases `ℓ = 4, …, ⌊log q⌋`: each builds its candidate set
//!   `J_e` (large intersection + not overloaded by earlier choices), nodes
//!   split into *virtual copies* of degree ≤ `2^{ℓ−2}`, and the subspace
//!   assignment becomes a (deg+1)-list edge coloring instance on the virtual
//!   graph with palette `{1..q}`, solved recursively;
//! * edges with `ℓ(e) > 3` and `deg(e) < 2^{ℓ}` (the set `E⁽²⁾`) have more
//!   candidate subspaces than neighbors and finish with a conflict-free
//!   recursive list coloring of their own.

use crate::instance::ListInstance;
use crate::lists::{level_of, ColorList, LevelInfo, SubspacePartition};
use crate::solver::SolveError;
use deco_graph::coloring::Color;
use deco_graph::{EdgeId, EdgeSubgraph, Graph, GraphBuilder, NodeId};
use deco_local::math::{floor_log2, harmonic};
use deco_local::CostNode;
use std::collections::HashMap;

/// Solver callback for the small recursive assignment instances
/// ((deg+1)-list edge coloring with palette ≤ 2p). Receives the instance and
/// its restricted initial `X`-edge-coloring. The assignment phases are
/// inherently sequential (phase ℓ reads the assignments of phases < ℓ), so
/// this stays a single-threaded `FnMut`; errors abort the reduction.
pub type AssignSolver<'a> =
    dyn FnMut(&ListInstance, &[u32]) -> Result<(Vec<Color>, CostNode), SolveError> + 'a;

/// One per-subspace residual instance produced by the reduction.
#[derive(Debug, Clone)]
pub struct SubInstance {
    /// Index of the subspace in the partition.
    pub subspace: u32,
    /// The residual instance; colors are remapped to `0..(hi−lo)`.
    pub instance: ListInstance,
    /// Offset to map local colors back: global = local + offset.
    pub color_offset: Color,
    /// Map from the sub-instance's edge ids to the parent instance's.
    pub edge_map: Vec<EdgeId>,
    /// Initial `X`-coloring restricted to the sub-instance's edges.
    pub x_coloring: Vec<u32>,
}

/// Statistics verifying the Lemma 4.3/4.4 invariants, reported by the
/// experiment harness.
#[derive(Debug, Clone, Default)]
pub struct SpaceStats {
    /// Number of subspaces `q`.
    pub q: u32,
    /// Edges assigned by the argmax rule (`ℓ(e) ≤ 3`).
    pub argmax_edges: usize,
    /// Edges in `E⁽¹⁾` (phased assignment).
    pub e1_edges: usize,
    /// Edges in `E⁽²⁾` (conflict-free assignment).
    pub e2_edges: usize,
    /// Phases that actually ran.
    pub phases_run: u32,
    /// Max over edges of `deg′(e)·|L_e| / (|L′_e|·deg(e))`; Eq. (2) asserts
    /// this is ≤ `24·H_q·log p`.
    pub eq2_max_ratio: f64,
    /// The Eq. (2) bound `24·H_q·log p` for this run.
    pub eq2_bound: f64,
    /// Minimum observed `|J_e|` slack over `2^{ℓ−1}` (≥ 0 per the lemma).
    pub min_je_surplus: i64,
}

/// Result of one color space reduction.
#[derive(Debug, Clone)]
pub struct SpaceReduction {
    /// Subspace index per parent edge.
    pub assignment: Vec<u32>,
    /// Non-empty per-subspace residual instances (solvable in parallel).
    pub sub_instances: Vec<SubInstance>,
    /// Round cost of the assignment (phases + E⁽²⁾ round).
    pub cost: CostNode,
    /// Invariant statistics.
    pub stats: SpaceStats,
}

/// Runs the Lemma 4.3 subspace assignment on `inst` with parameter `p`.
///
/// `assign_solver` is invoked on the recursive assignment instances (virtual
/// graphs and the `E⁽²⁾` subgraph); all have maximum edge degree ≤ `2p−1`
/// and palette ≤ `2p`.
///
/// # Errors
///
/// Propagates the first `assign_solver` error.
///
/// # Panics
///
/// Panics if a proven invariant fails (`|J_e| ≥ 2^{ℓ−1}`, virtual instances
/// not (deg+1), Eq. (2) violated) or if `p` is out of range `[2, C]`.
pub fn reduce_color_space(
    inst: &ListInstance,
    p: u32,
    x_coloring: &[u32],
    assign_solver: &mut AssignSolver<'_>,
) -> Result<SpaceReduction, SolveError> {
    let g = inst.graph();
    let m = g.num_edges();
    let partition = SubspacePartition::new(inst.palette(), p);
    let q = partition.num_subspaces();
    let hq = harmonic(u64::from(q));
    let log_p = (f64::from(p)).log2().max(1.0);
    let eq2_bound = 24.0 * hq * log_p;

    let levels: Vec<LevelInfo> = g
        .edges()
        .map(|e| level_of(inst.list(e), &partition))
        .collect();

    let mut assignment: Vec<Option<u32>> = vec![None; m];
    let mut stats = SpaceStats {
        q,
        eq2_bound,
        min_je_surplus: i64::MAX,
        ..SpaceStats::default()
    };
    let mut cost_children: Vec<CostNode> = Vec::new();

    // --- Edges with ℓ(e) ≤ 3: argmax subspace (0 rounds, purely local). ---
    for e in g.edges() {
        if levels[e.index()].level <= 3 {
            assignment[e.index()] = Some(levels[e.index()].indices[0]);
            stats.argmax_edges += 1;
        }
    }
    cost_children.push(CostNode::leaf("argmax assignment (ℓ ≤ 3)", 0));

    // --- Split the rest into E⁽¹⁾ and E⁽²⁾. ---
    let mut e1: Vec<EdgeId> = Vec::new();
    let mut e2: Vec<EdgeId> = Vec::new();
    for e in g.edges() {
        let l = levels[e.index()].level;
        if l > 3 {
            if g.edge_degree(e) >= (1usize << l) {
                e1.push(e);
            } else {
                e2.push(e);
            }
        }
    }
    stats.e1_edges = e1.len();
    stats.e2_edges = e2.len();

    // Count, per edge, how many neighbors already chose each subspace.
    let assigned_counts = |g: &Graph, assignment: &[Option<u32>], e: EdgeId| {
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for f in g.edge_neighbors(e) {
            if let Some(i) = assignment[f.index()] {
                *counts.entry(i).or_insert(0) += 1;
            }
        }
        counts
    };

    // --- E⁽¹⁾ phases ℓ = 4..⌊log q⌋. ---
    let max_level = floor_log2(u64::from(q));
    for l in 4..=max_level {
        let active: Vec<EdgeId> = e1
            .iter()
            .copied()
            .filter(|e| levels[e.index()].level == l)
            .collect();
        if active.is_empty() {
            continue;
        }
        stats.phases_run += 1;

        // J_e: subspaces with a large intersection that at most
        // deg(e)/2^{ℓ−1} neighbors already chose. 1 round to learn the
        // neighbors' assignments.
        let mut je_lists: Vec<ColorList> = Vec::with_capacity(active.len());
        for &e in &active {
            let counts = assigned_counts(g, &assignment, e);
            let cap = g.edge_degree(e) as f64 / 2f64.powi(l as i32 - 1);
            let je: Vec<Color> = levels[e.index()]
                .indices
                .iter()
                .copied()
                .filter(|&i| counts.get(&i).copied().unwrap_or(0) as f64 <= cap)
                .collect();
            let need = 1i64 << (l - 1);
            stats.min_je_surplus = stats.min_je_surplus.min(je.len() as i64 - need);
            assert!(
                je.len() as i64 >= need,
                "|J_e| = {} below 2^(ℓ−1) = {need} in phase {l}",
                je.len()
            );
            je_lists.push(ColorList::new(je));
        }

        // Virtual graph: each node splits its active edges into groups of
        // ≤ 2^{ℓ−2}; the group becomes a virtual copy of the node, so the
        // virtual line-graph degree is ≤ 2^{ℓ−1} − 2 < |J_e|.
        let group_cap = 1usize << (l - 2);
        let vgraph = build_virtual_graph(g, &active, group_cap);
        let vinst = ListInstance::new_unchecked(vgraph, je_lists, q);
        vinst
            .validate_slack(1.0)
            .expect("virtual instance must be a (deg+1)-list instance");
        let vx: Vec<u32> = active.iter().map(|e| x_coloring[e.index()]).collect();
        let (vcolors, vcost) = assign_solver(&vinst, &vx)?;
        debug_assert!(
            vinst
                .check_solution(&deco_graph::coloring::EdgeColoring::from_complete(
                    vcolors.clone()
                ))
                .is_ok(),
            "assignment solver returned an invalid virtual coloring"
        );
        for (idx, &e) in active.iter().enumerate() {
            assignment[e.index()] = Some(vcolors[idx]);
        }
        cost_children.push(CostNode::seq(
            format!("phase ℓ={l}: assign E(1) via virtual graph"),
            vec![CostNode::leaf("determine J_e", 1), vcost],
        ));
    }

    // --- E⁽²⁾: more candidates than neighbors → conflict-free assignment. ---
    if !e2.is_empty() {
        let in_e2: Vec<bool> = {
            let mut v = vec![false; m];
            for &e in &e2 {
                v[e.index()] = true;
            }
            v
        };
        let mut lists2: Vec<ColorList> = Vec::with_capacity(e2.len());
        for &e in &e2 {
            // Candidates: large-intersection subspaces minus those taken by
            // already-assigned (non-E⁽²⁾) neighbors. 1 round to learn them.
            let taken: Vec<Color> = g
                .edge_neighbors(e)
                .filter(|f| !in_e2[f.index()])
                .filter_map(|f| assignment[f.index()])
                .collect();
            let mut cands = ColorList::new(levels[e.index()].indices.clone());
            cands.remove_all(&taken);
            lists2.push(cands);
        }
        let (graph2, _) = EdgeSubgraph::from_edge_ids(g, &e2).into_parts();
        let inst2 = ListInstance::new_unchecked(graph2, lists2, q);
        inst2
            .validate_slack(1.0)
            .expect("E(2) instance must be a (deg+1)-list instance");
        let x2: Vec<u32> = e2.iter().map(|e| x_coloring[e.index()]).collect();
        let (colors2, cost2) = assign_solver(&inst2, &x2)?;
        for (idx, &e) in e2.iter().enumerate() {
            assignment[e.index()] = Some(colors2[idx]);
        }
        // E⁽²⁾ edges end with deg′ = 0 (distinct from *all* neighbors).
        for &e in &e2 {
            let mine = assignment[e.index()];
            debug_assert!(
                g.edge_neighbors(e).all(|f| assignment[f.index()] != mine),
                "E(2) edge {e} must be conflict-free"
            );
        }
        cost_children.push(CostNode::seq(
            "assign E(2) conflict-free".to_string(),
            vec![CostNode::leaf("learn free subspaces", 1), cost2],
        ));
    }

    let assignment: Vec<u32> = assignment
        .into_iter()
        .map(|a| a.expect("every edge assigned"))
        .collect();

    // --- Verify Eq. (2) for every edge. ---
    for e in g.edges() {
        let ie = assignment[e.index()];
        let (lo, hi) = partition.range(ie);
        let l_new = inst.list(e).count_in_range(lo, hi);
        assert!(l_new >= 1, "assigned subspace must intersect the list");
        let deg = g.edge_degree(e);
        if deg == 0 {
            continue;
        }
        let deg_new = g
            .edge_neighbors(e)
            .filter(|f| assignment[f.index()] == ie)
            .count();
        let ratio = deg_new as f64 * inst.list(e).len() as f64 / (l_new as f64 * deg as f64);
        stats.eq2_max_ratio = stats.eq2_max_ratio.max(ratio);
        assert!(
            ratio <= eq2_bound + 1e-9,
            "Eq. (2) violated at {e}: ratio {ratio:.2} > bound {eq2_bound:.2}"
        );
    }

    // --- Build the per-subspace residual instances. ---
    let mut sub_instances = Vec::new();
    for i in 0..q {
        let members: Vec<EdgeId> = g.edges().filter(|e| assignment[e.index()] == i).collect();
        if members.is_empty() {
            continue;
        }
        let (lo, hi) = partition.range(i);
        let (graph, edge_map) = EdgeSubgraph::from_edge_ids(g, &members).into_parts();
        let lists: Vec<ColorList> = members
            .iter()
            .map(|&e| {
                ColorList::new(
                    inst.list(e)
                        .restrict_to_range(lo, hi)
                        .iter()
                        .map(|c| c - lo)
                        .collect(),
                )
            })
            .collect();
        let instance = ListInstance::new_unchecked(graph, lists, hi - lo);
        let x_sub: Vec<u32> = members.iter().map(|&e| x_coloring[e.index()]).collect();
        sub_instances.push(SubInstance {
            subspace: i,
            instance,
            color_offset: lo,
            edge_map,
            x_coloring: x_sub,
        });
    }

    let cost = CostNode::seq(format!("lemma-4.3 space reduction(p={p})"), cost_children);
    Ok(SpaceReduction {
        assignment,
        sub_instances,
        cost,
        stats,
    })
}

/// Builds the phase-ℓ virtual graph: nodes are (real node, group) pairs
/// where each group holds at most `group_cap` of the node's active edges
/// (in port order); edges are the active edges.
///
/// The returned graph's edge `i` corresponds to `active[i]`. Exposed so the
/// Figure 6 experiment can reproduce the construction in isolation.
pub fn build_virtual_graph(g: &Graph, active: &[EdgeId], group_cap: usize) -> Graph {
    let active_set: HashMap<EdgeId, usize> =
        active.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    // Virtual endpoint of each active edge at each side (0 = smaller node).
    let mut vid_of = vec![[u32::MAX; 2]; active.len()];
    let mut next_vid = 0u32;
    for v in g.nodes() {
        let mut count = 0usize;
        let mut current_vid = u32::MAX;
        for adj in g.adjacent(v) {
            let Some(&ai) = active_set.get(&adj.edge) else {
                continue;
            };
            if count.is_multiple_of(group_cap) {
                current_vid = next_vid;
                next_vid += 1;
            }
            count += 1;
            let side = usize::from(g.endpoints(adj.edge)[1] == v);
            vid_of[ai][side] = current_vid;
        }
    }
    let mut builder = GraphBuilder::new(next_vid as usize);
    for ve in &vid_of {
        debug_assert!(ve[0] != u32::MAX && ve[1] != u32::MAX);
        builder.add_edge(NodeId(ve[0]), NodeId(ve[1]));
    }
    builder.build().expect("virtual copies keep edges distinct")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance;
    use deco_algos::greedy;
    use deco_graph::generators;

    /// Greedy assignment solver — valid because the recursive instances are
    /// (deg+1)-list instances.
    fn greedy_assign(
        inst: &ListInstance,
        _x: &[u32],
    ) -> Result<(Vec<Color>, CostNode), SolveError> {
        let lists: Vec<Vec<Color>> = inst.lists().iter().map(|l| l.to_vec()).collect();
        let coloring =
            greedy::greedy_list_edge_coloring(inst.graph(), &lists, greedy::EdgeOrder::ById)
                .expect("(deg+1)-list instances are greedily solvable");
        let colors = inst
            .graph()
            .edges()
            .map(|e| coloring.get(e).unwrap())
            .collect();
        Ok((colors, CostNode::leaf("greedy-assign", 1)))
    }

    fn x_for(g: &Graph) -> Vec<u32> {
        // Tests may use any proper edge coloring; greedy suffices.
        let c = greedy::greedy_edge_coloring(g, greedy::EdgeOrder::ById);
        g.edges().map(|e| c.get(e).unwrap()).collect()
    }

    #[test]
    fn reduction_covers_all_edges_and_satisfies_eq2() {
        let g = generators::random_regular(40, 8, 1);
        // Plenty of slack so the sub-instances stay feasible.
        let inst = instance::random_with_slack(&g, 4000, 60.0, 2);
        let x = x_for(&g);
        let red = reduce_color_space(&inst, 4, &x, &mut greedy_assign).unwrap();
        assert_eq!(red.assignment.len(), g.num_edges());
        assert!(red.stats.eq2_max_ratio <= red.stats.eq2_bound);
        // Every edge appears in exactly one sub-instance.
        let total: usize = red.sub_instances.iter().map(|s| s.edge_map.len()).sum();
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn sub_instance_lists_match_intersections() {
        let g = generators::complete(10);
        let inst = instance::random_with_slack(&g, 2000, 40.0, 3);
        let x = x_for(&g);
        let red = reduce_color_space(&inst, 4, &x, &mut greedy_assign).unwrap();
        let partition = SubspacePartition::new(inst.palette(), 4);
        for sub in &red.sub_instances {
            let (lo, hi) = partition.range(sub.subspace);
            assert_eq!(sub.color_offset, lo);
            assert!(sub.instance.palette() == hi - lo);
            for (idx, &pe) in sub.edge_map.iter().enumerate() {
                let local = sub.instance.list(deco_graph::EdgeId::from(idx));
                let expected = inst.list(pe).restrict_to_range(lo, hi);
                assert_eq!(local.len(), expected.len());
                for (a, b) in local.iter().zip(expected.iter()) {
                    assert_eq!(a + lo, b);
                }
            }
        }
    }

    #[test]
    fn sub_instances_keep_deg_plus_one_when_slack_suffices() {
        let g = generators::random_regular(30, 6, 5);
        let p = 3u32;
        let q = SubspacePartition::new(3000, p).num_subspaces();
        let required = 24.0 * harmonic(u64::from(q)) * (f64::from(p)).log2();
        let inst = instance::random_with_slack(&g, 3000, required + 1.0, 7);
        let x = x_for(&g);
        let red = reduce_color_space(&inst, p, &x, &mut greedy_assign).unwrap();
        for sub in &red.sub_instances {
            sub.instance
                .validate_slack(1.0)
                .expect("slack ≥ 24·H_q·log p preserves (deg+1) feasibility");
        }
    }

    #[test]
    fn assignments_use_subspaces_with_nonempty_intersection() {
        let g = generators::gnp(30, 0.3, 9);
        let inst = instance::random_with_slack(&g, 5000, 80.0, 11);
        let x = x_for(&g);
        let red = reduce_color_space(&inst, 5, &x, &mut greedy_assign).unwrap();
        let partition = SubspacePartition::new(inst.palette(), 5);
        for e in g.edges() {
            let (lo, hi) = partition.range(red.assignment[e.index()]);
            assert!(inst.list(e).count_in_range(lo, hi) >= 1);
        }
    }

    #[test]
    fn virtual_graph_respects_group_cap() {
        let g = generators::star(10);
        let active: Vec<EdgeId> = g.edges().collect();
        let vg = build_virtual_graph(&g, &active, 4);
        assert_eq!(vg.num_edges(), 10);
        assert!(
            vg.max_degree() <= 4,
            "virtual degree {} > cap",
            vg.max_degree()
        );
        // Star center splits into ⌈10/4⌉ = 3 virtual copies + 10 leaves.
        assert_eq!(vg.num_nodes(), 13);
    }

    #[test]
    fn e1_phase_machinery_runs_with_q16() {
        // q ≥ 16 enables levels ≥ 4; Δ̄ = 32 ≥ 2^4 puts spread-out edges in
        // E⁽¹⁾, so the virtual-graph phase path executes.
        let g = generators::complete(18);
        let inst = instance::random_with_slack(&g, 16384, 330.0, 21);
        let x = x_for(&g);
        let red = reduce_color_space(&inst, 16, &x, &mut greedy_assign).unwrap();
        assert!(
            red.stats.e1_edges > 0,
            "E(1) must be nonempty: {:?}",
            red.stats
        );
        assert!(
            red.stats.phases_run >= 1,
            "phases must run: {:?}",
            red.stats
        );
        assert!(red.stats.min_je_surplus >= 0, "|J_e| ≥ 2^(ℓ−1) violated");
        assert!(red.stats.eq2_max_ratio <= red.stats.eq2_bound);
        for sub in &red.sub_instances {
            sub.instance.validate_slack(1.0).expect("(deg+1) residuals");
        }
    }

    #[test]
    fn large_p_forces_singleton_subspaces() {
        let g = generators::path(5);
        let inst = instance::two_delta_minus_one(&g); // palette 3
        let x = x_for(&g);
        let red = reduce_color_space(&inst, 3, &x, &mut greedy_assign).unwrap();
        assert_eq!(red.stats.q, 3);
        // With singleton subspaces, Eq. (2) still holds (trivially bounded).
        assert!(red.stats.eq2_max_ratio <= red.stats.eq2_bound);
    }
}
