//! List coloring by iterating over the classes of an initial proper
//! coloring — the classic "one color class per round" reduction.
//!
//! Given a conflict graph `H`, per-node color lists with `|L_v| > deg_H(v)`,
//! and a proper initial coloring with `X` classes, process classes
//! `0, 1, …, X−1` sequentially: in its class's round, a node picks the
//! smallest list color not already finalized by a neighbor. A class is an
//! independent set, so same-round choices never conflict; earlier classes
//! are avoided explicitly; later classes avoid us. Total: `X` rounds.
//!
//! Combined with Linial's `O(Δ̄²)`-coloring this yields the classic
//! `O(Δ̄² + log* n)` baseline \[Lin87\], and — crucially for the paper — the
//! base case `T(O(1), S, C) = O(log* X)` used throughout Section 4: when
//! the degree is constant, `X = O(1)` classes suffice after an `O(log* n)`
//! initial coloring.
//!
//! Two implementations with identical output and round charge:
//! * [`list_color_by_classes`] — edge coloring of a graph `G`, decided at
//!   the endpoints: `H` is the line graph, and an edge's neighbours in it
//!   are the other edges at its two endpoints ([`Graph::edge_neighbors`]).
//!   The solver's base case and the related-work baseline run it; `L(G)`
//!   is never built.
//! * [`ByClassesProtocol`] — faithful message passing on any network. On
//!   `LineGraph::of(g)` it is the oracle the endpoint sweep is held to.

use deco_graph::{EdgeId, Graph};
use deco_local::{Network, NodeCtx, NodeProgram, Protocol, RunError};
use deco_runtime::Runtime;
use std::collections::HashSet;

/// Validates the precondition `|lists[v]| ≥ deg(v) + 1` for all nodes of
/// the conflict network `h`.
///
/// Returns the index of the first violating node, if any.
pub fn find_list_too_small(h: &Network<'_>, lists: &[Vec<u32>]) -> Option<usize> {
    (0..h.num_nodes()).find(|&v| lists[v].len() <= h.degree(v.into()))
}

/// List edge coloring of `g` by class sweep: what [`ByClassesProtocol`]
/// computes on the line graph of `g`, decided at the endpoints.
///
/// Processes the edges in class order (edge order within a class); each
/// edge takes the first color in its list that no already-colored edge at
/// either endpoint holds. Charges `num_classes` rounds (each class costs
/// one synchronous round in the message-passing version, whether or not it
/// is empty — nodes cannot know).
///
/// # Panics
///
/// Panics if some list is not larger than its edge's degree, or if
/// `initial` is not a proper edge coloring with values `< num_classes`.
pub fn list_color_by_classes(
    g: &Graph,
    lists: &[Vec<u32>],
    initial: &[u32],
    num_classes: u32,
) -> (Vec<u32>, u64) {
    assert_eq!(lists.len(), g.num_edges());
    assert_eq!(initial.len(), g.num_edges());
    assert!(
        g.edges().all(|e| lists[e.index()].len() > g.edge_degree(e)),
        "every list must exceed the edge's degree"
    );
    assert!(
        initial.iter().all(|&c| c < num_classes),
        "initial colors must be < num_classes"
    );

    // Edges sorted by class; stable order within a class is irrelevant for
    // correctness (classes are independent sets) but we keep edge order for
    // determinism.
    let mut order: Vec<usize> = (0..g.num_edges()).collect();
    order.sort_by_key(|&e| initial[e]);

    let mut colors: Vec<Option<u32>> = vec![None; g.num_edges()];
    let mut forbidden: HashSet<u32> = HashSet::new();
    for &e in &order {
        let neighbours = || g.edge_neighbors(EdgeId::from(e));
        forbidden.clear();
        forbidden.extend(neighbours().filter_map(|f| colors[f.index()]));
        debug_assert!(
            neighbours().all(|f| initial[f.index()] != initial[e]),
            "initial coloring must be proper"
        );
        let pick = lists[e]
            .iter()
            .copied()
            .find(|c| !forbidden.contains(c))
            .expect("list larger than degree always has a free color");
        colors[e] = Some(pick);
    }
    (
        colors
            .into_iter()
            .map(|c| c.expect("all edges colored"))
            .collect(),
        u64::from(num_classes),
    )
}

/// Message-passing protocol for list coloring by class sweep.
#[derive(Debug, Clone)]
pub struct ByClassesProtocol {
    /// Per-node color lists (`|lists[v]| > deg(v)`).
    pub lists: Vec<Vec<u32>>,
    /// Proper initial coloring with `num_classes` classes.
    pub initial: Vec<u32>,
    /// Number of classes (= rounds of the fixed schedule).
    pub num_classes: u32,
}

/// Node program for [`ByClassesProtocol`].
#[derive(Debug)]
pub struct ByClassesProgram {
    list: Vec<u32>,
    class: u32,
    num_classes: u32,
    round: u32,
    forbidden: HashSet<u32>,
    chosen: Option<u32>,
}

impl NodeProgram for ByClassesProgram {
    type Msg = u32;
    type Output = u32;

    fn send(&mut self, _ctx: &NodeCtx) -> Option<u32> {
        // Broadcast the finalized color; nothing before finalizing.
        self.chosen
    }

    fn receive(&mut self, _ctx: &NodeCtx, inbox: &[Option<u32>]) {
        for c in inbox.iter().flatten() {
            self.forbidden.insert(*c);
        }
        // Round t (1-based) finalizes class t−1.
        if self.round == self.class && self.chosen.is_none() {
            let pick = self
                .list
                .iter()
                .copied()
                .find(|c| !self.forbidden.contains(c))
                .expect("list larger than degree always has a free color");
            self.chosen = Some(pick);
        }
        self.round += 1;
    }

    fn output(&self, _ctx: &NodeCtx) -> Option<u32> {
        // All nodes run the full schedule: num_classes rounds to finalize
        // every class, plus one round so the last class's colors are
        // broadcast (keeps schedules uniform; the extra round carries the
        // final announcements).
        (self.round > self.num_classes).then(|| self.chosen.expect("finalized by schedule"))
    }
}

impl Protocol for ByClassesProtocol {
    type Program = ByClassesProgram;

    fn spawn(&self, ctx: &NodeCtx) -> ByClassesProgram {
        ByClassesProgram {
            list: self.lists[ctx.node.index()].clone(),
            class: self.initial[ctx.node.index()],
            num_classes: self.num_classes,
            round: 0,
            forbidden: HashSet::new(),
            chosen: None,
        }
    }
}

/// Runs the message-passing class sweep on `net`, on whatever engine `rt`
/// carries.
///
/// # Errors
///
/// Propagates [`RunError`] from the executor.
///
/// # Panics
///
/// Panics if some list is not larger than the node's degree.
pub fn list_color_by_classes_mp(
    net: &Network<'_>,
    lists: Vec<Vec<u32>>,
    initial: Vec<u32>,
    num_classes: u32,
    rt: &Runtime,
) -> Result<(Vec<u32>, u64), RunError> {
    assert!(
        find_list_too_small(net, &lists).is_none(),
        "every list must exceed the node's degree"
    );
    let protocol = ByClassesProtocol {
        lists,
        initial,
        num_classes,
    };
    let outcome = rt.execute(net, &protocol, u64::from(num_classes) + 2)?;
    Ok((outcome.outputs, outcome.rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::coloring::{self, EdgeColoring};
    use deco_graph::{generators, LineGraph};
    use deco_local::IdAssignment;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Random (deg(e)+1)-lists over palette `c_max`, plus a proper initial
    /// edge coloring (greedy by edge index — fine for tests).
    fn random_instance(g: &Graph, c_max: u32, seed: u64) -> (Vec<Vec<u32>>, Vec<u32>, u32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lists = g
            .edges()
            .map(|e| {
                let need = g.edge_degree(e) + 1;
                let mut all: Vec<u32> = (0..c_max.max(need as u32)).collect();
                all.shuffle(&mut rng);
                let mut l: Vec<u32> = all.into_iter().take(need).collect();
                l.sort_unstable();
                l
            })
            .collect();
        // Greedy proper initial edge coloring with ≤ Δ̄+1 classes.
        let mut initial = vec![u32::MAX; g.num_edges()];
        for e in g.edges() {
            let used: HashSet<u32> = g.edge_neighbors(e).map(|f| initial[f.index()]).collect();
            initial[e.index()] = (0..).find(|c| !used.contains(c)).unwrap();
        }
        let num_classes = initial.iter().max().copied().unwrap_or(0) + 1;
        (lists, initial, num_classes)
    }

    fn graphs() -> Vec<Graph> {
        vec![
            generators::random_regular(40, 5, 1),
            generators::gnp(60, 0.1, 2),
            generators::complete(7),
            generators::star(6),
            Graph::from_edges(9, [(1, 3), (3, 4), (4, 1), (4, 7), (6, 8)]).unwrap(),
        ]
    }

    #[test]
    fn centralized_sweep_is_proper_and_in_list() {
        for (seed, g) in graphs().into_iter().enumerate() {
            let (lists, initial, k) = random_instance(&g, 64, seed as u64);
            let (colors, rounds) = list_color_by_classes(&g, &lists, &initial, k);
            let coloring = EdgeColoring::from_complete(colors.clone());
            coloring::check_edge_coloring(&g, &coloring).expect("proper");
            for e in g.edges() {
                assert!(lists[e.index()].contains(&colors[e.index()]));
            }
            assert_eq!(rounds, u64::from(k));
        }
    }

    #[test]
    fn first_deg_plus_one_colors_decide_the_coloring() {
        // Each edge picks its smallest color that no finalized neighbour
        // holds; at most deg(e) are held, so that color is among the list's
        // first deg(e)+1 and cutting every list there changes nothing.
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnp(30, 0.15, seed);
            let (_, initial, k) = random_instance(&g, 8, seed);
            let c_max = 3 * g.max_edge_degree() as u32 + 8;
            let full: Vec<Vec<u32>> = g
                .edges()
                .map(|e| {
                    let mut all: Vec<u32> = (0..c_max).collect();
                    all.shuffle(&mut rng);
                    all.truncate(rng.gen_range(g.edge_degree(e) + 1..=c_max as usize));
                    all.sort_unstable();
                    all
                })
                .collect();
            let cut: Vec<Vec<u32>> = g
                .edges()
                .map(|e| full[e.index()][..=g.edge_degree(e)].to_vec())
                .collect();
            assert_eq!(
                list_color_by_classes(&g, &full, &initial, k),
                list_color_by_classes(&g, &cut, &initial, k),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn message_passing_on_the_line_graph_matches_the_endpoint_sweep() {
        for (seed, g) in graphs().into_iter().enumerate() {
            let (lists, initial, k) = random_instance(&g, 32, 21 + seed as u64);
            let (fast, _) = list_color_by_classes(&g, &lists, &initial, k);
            let lg = LineGraph::of(&g);
            let net = Network::new(lg.graph(), IdAssignment::Shuffled(3));
            let (mp, rounds) =
                list_color_by_classes_mp(&net, lists, initial, k, &Runtime::serial()).unwrap();
            assert_eq!(
                fast, mp,
                "graph {seed}: the endpoint sweep must equal the protocol"
            );
            assert_eq!(rounds, u64::from(k) + 1);
        }
    }

    #[test]
    fn works_with_tight_lists() {
        // Exactly deg(e)+1 colors everywhere, shared palette: all five edges
        // of a star meet at the center, so they take five distinct colors.
        let g = generators::star(5);
        let lists: Vec<Vec<u32>> = g.edges().map(|_| (0..5).collect()).collect();
        let initial: Vec<u32> = (0..5).collect();
        let (colors, _) = list_color_by_classes(&g, &lists, &initial, 5);
        coloring::check_edge_coloring(&g, &EdgeColoring::from_complete(colors)).expect("proper");
    }

    #[test]
    #[should_panic(expected = "exceed the edge's degree")]
    fn rejects_small_lists() {
        let g = generators::star(4);
        let lists: Vec<Vec<u32>> = g.edges().map(|_| vec![0, 1]).collect();
        let initial: Vec<u32> = (0..4).collect();
        let _ = list_color_by_classes(&g, &lists, &initial, 4);
    }

    #[test]
    fn edgeless_graph_still_charges_its_classes() {
        let (colors, rounds) = list_color_by_classes(&Graph::empty(3), &[], &[], 1);
        assert!(colors.is_empty());
        assert_eq!(rounds, 1);
    }
}
