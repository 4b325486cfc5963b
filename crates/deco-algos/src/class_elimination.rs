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
//! Two interchangeable implementations:
//! * [`ByClassesProtocol`] — faithful message passing (used by tests),
//! * [`list_color_by_classes`] — a centralized sweep producing *identical*
//!   output with the same round charge (used at scale).

use deco_graph::Graph;
use deco_local::{Executor, Network, NodeCtx, NodeProgram, Protocol, RunError};
use deco_runtime::Runtime;
use std::collections::HashSet;

/// Validates the precondition `|lists[v]| ≥ deg(v) + 1` for all nodes.
///
/// Returns the index of the first violating node, if any.
pub fn find_list_too_small(h: &Graph, lists: &[Vec<u32>]) -> Option<usize> {
    h.nodes()
        .find(|&v| lists[v.index()].len() <= h.degree(v))
        .map(|v| v.index())
}

/// Centralized sweep equivalent of [`ByClassesProtocol`].
///
/// Processes initial classes in increasing order; each node picks the
/// smallest color in its list unused by already-finalized neighbors. Charges
/// `num_classes` rounds (each class costs one synchronous round in the
/// message-passing version, whether or not it is empty — nodes cannot know).
///
/// # Panics
///
/// Panics if some list is not larger than the node's degree, or if `initial`
/// is not a proper coloring with values `< num_classes`.
pub fn list_color_by_classes(
    h: &Graph,
    lists: &[Vec<u32>],
    initial: &[u32],
    num_classes: u32,
) -> (Vec<u32>, u64) {
    assert_eq!(lists.len(), h.num_nodes());
    assert_eq!(initial.len(), h.num_nodes());
    assert!(
        find_list_too_small(h, lists).is_none(),
        "every list must exceed the node's degree"
    );
    assert!(
        initial.iter().all(|&c| c < num_classes),
        "initial colors must be < num_classes"
    );

    // Nodes sorted by class; stable order within a class is irrelevant for
    // correctness (classes are independent sets) but we keep node order for
    // determinism.
    let mut order: Vec<usize> = (0..h.num_nodes()).collect();
    order.sort_by_key(|&v| initial[v]);

    let mut colors: Vec<Option<u32>> = vec![None; h.num_nodes()];
    for &v in &order {
        let vid = deco_graph::NodeId::from(v);
        let forbidden: HashSet<u32> = h.neighbors(vid).filter_map(|w| colors[w.index()]).collect();
        debug_assert!(
            h.neighbors(vid).all(|w| initial[w.index()] != initial[v]),
            "initial coloring must be proper"
        );
        let pick = lists[v]
            .iter()
            .copied()
            .find(|c| !forbidden.contains(c))
            .expect("list larger than degree always has a free color");
        colors[v] = Some(pick);
    }
    (
        colors
            .into_iter()
            .map(|c| c.expect("all nodes colored"))
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

    fn send(&mut self, _ctx: &NodeCtx<'_>) -> Option<u32> {
        // Broadcast the finalized color; nothing before finalizing.
        self.chosen
    }

    fn receive(&mut self, _ctx: &NodeCtx<'_>, inbox: &[Option<u32>]) {
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

    fn output(&self, _ctx: &NodeCtx<'_>) -> Option<u32> {
        // All nodes run the full schedule: num_classes rounds to finalize
        // every class, plus one round so the last class's colors are
        // broadcast (keeps schedules uniform; the extra round carries the
        // final announcements).
        (self.round > self.num_classes).then(|| self.chosen.expect("finalized by schedule"))
    }
}

impl Protocol for ByClassesProtocol {
    type Program = ByClassesProgram;

    fn spawn(&self, ctx: &NodeCtx<'_>) -> ByClassesProgram {
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
        find_list_too_small(net.graph(), &lists).is_none(),
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
    use deco_graph::{coloring, generators};
    use deco_local::IdAssignment;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Random (deg+1)-lists over palette `c_max`, plus a proper initial
    /// coloring (greedy by index — fine for tests).
    fn random_instance(h: &Graph, c_max: u32, seed: u64) -> (Vec<Vec<u32>>, Vec<u32>, u32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lists = h
            .nodes()
            .map(|v| {
                let need = h.degree(v) + 1;
                let mut all: Vec<u32> = (0..c_max.max(need as u32)).collect();
                all.shuffle(&mut rng);
                let mut l: Vec<u32> = all.into_iter().take(need).collect();
                l.sort_unstable();
                l
            })
            .collect();
        // Greedy proper initial coloring with ≤ Δ+1 classes.
        let mut initial = vec![u32::MAX; h.num_nodes()];
        for v in h.nodes() {
            let used: HashSet<u32> = h.neighbors(v).map(|w| initial[w.index()]).collect();
            initial[v.index()] = (0..).find(|c| !used.contains(c)).unwrap();
        }
        let num_classes = initial.iter().max().copied().unwrap_or(0) + 1;
        (lists, initial, num_classes)
    }

    #[test]
    fn centralized_sweep_is_proper_and_in_list() {
        for (g, seed) in [
            (generators::random_regular(40, 5, 1), 11u64),
            (generators::gnp(60, 0.1, 2), 12),
            (generators::complete(7), 13),
        ] {
            let (lists, initial, k) = random_instance(&g, 64, seed);
            let (colors, rounds) = list_color_by_classes(&g, &lists, &initial, k);
            coloring::check_vertex_coloring(&g, &colors).expect("proper");
            for v in g.nodes() {
                assert!(lists[v.index()].contains(&colors[v.index()]));
            }
            assert_eq!(rounds, u64::from(k));
        }
    }

    #[test]
    fn first_deg_plus_one_colors_decide_the_coloring() {
        // Each node picks its smallest color that no finalized neighbour
        // holds; at most deg(v) are held, so that color is among the list's
        // first deg(v)+1 and cutting every list there changes nothing.
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnp(40, 0.2, seed);
            let (_, initial, k) = random_instance(&g, 8, seed);
            let c_max = 3 * g.max_degree() as u32 + 8;
            let full: Vec<Vec<u32>> = g
                .nodes()
                .map(|v| {
                    let mut all: Vec<u32> = (0..c_max).collect();
                    all.shuffle(&mut rng);
                    all.truncate(rng.gen_range(g.degree(v) + 1..=c_max as usize));
                    all.sort_unstable();
                    all
                })
                .collect();
            let cut: Vec<Vec<u32>> = g
                .nodes()
                .map(|v| full[v.index()][..=g.degree(v)].to_vec())
                .collect();
            assert_eq!(
                list_color_by_classes(&g, &full, &initial, k),
                list_color_by_classes(&g, &cut, &initial, k),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn message_passing_matches_centralized() {
        let g = generators::random_regular(30, 4, 7);
        let (lists, initial, k) = random_instance(&g, 32, 21);
        let (fast, _) = list_color_by_classes(&g, &lists, &initial, k);
        let net = Network::new(&g, IdAssignment::Shuffled(3));
        let (mp, rounds) =
            list_color_by_classes_mp(&net, lists.clone(), initial.clone(), k, &Runtime::serial())
                .unwrap();
        assert_eq!(fast, mp, "centralized sweep must equal the distributed run");
        assert_eq!(rounds, u64::from(k) + 1);
    }

    #[test]
    fn works_with_tight_lists() {
        // Exactly deg+1 colors everywhere, shared palette: classic greedy case.
        let g = generators::complete(5);
        let lists: Vec<Vec<u32>> = g.nodes().map(|_| (0..5).collect()).collect();
        let initial: Vec<u32> = (0..5).collect();
        let (colors, _) = list_color_by_classes(&g, &lists, &initial, 5);
        coloring::check_vertex_coloring(&g, &colors).expect("proper");
    }

    #[test]
    #[should_panic(expected = "exceed the node's degree")]
    fn rejects_small_lists() {
        let g = generators::complete(4);
        let lists: Vec<Vec<u32>> = g.nodes().map(|_| vec![0, 1]).collect();
        let initial: Vec<u32> = (0..4).collect();
        let _ = list_color_by_classes(&g, &lists, &initial, 4);
    }

    #[test]
    fn empty_graph_zero_classes() {
        let g = Graph::empty(3);
        let lists: Vec<Vec<u32>> = vec![vec![0]; 3];
        let (colors, rounds) = list_color_by_classes(&g, &lists, &[0, 0, 0], 1);
        assert_eq!(colors, vec![0, 0, 0]);
        assert_eq!(rounds, 1);
    }
}
