//! Named graph workloads shared by the experiments and Criterion benches.
//!
//! The paper's claims quantify over all graphs; the measured experiments
//! sample the standard families: random regular (the homogeneous-degree
//! stress case), Erdős–Rényi, bipartite left-regular (switch scheduling),
//! power-law (skewed degrees), and structured extremes (torus, complete).

use deco_core::instance::ListInstance;
use deco_core::solver::SolveError;
use deco_graph::coloring::Color;
use deco_graph::{generators, Graph};
use deco_local::CostNode;

/// A named, reproducible workload graph.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name used in experiment tables.
    pub name: String,
    /// The graph.
    pub graph: Graph,
}

impl Workload {
    fn new(name: impl Into<String>, graph: Graph) -> Workload {
        Workload {
            name: name.into(),
            graph,
        }
    }
}

/// Sequential node IDs `1..=n` for a graph (the experiments' default).
pub fn ids_for(g: &Graph) -> Vec<u64> {
    (1..=g.num_nodes() as u64).collect()
}

/// Greedy [`deco_core::space::AssignSolver`] used by experiments that
/// exercise the Lemma 4.3 reduction in isolation — valid because the
/// recursive assignment instances are (deg+1)-list instances.
pub fn greedy_assign(
    inst: &ListInstance,
    _x: &[u32],
) -> Result<(Vec<Color>, CostNode), SolveError> {
    let lists: Vec<Vec<Color>> = inst.lists().iter().map(|l| l.to_vec()).collect();
    let coloring = deco_algos::greedy::greedy_list_edge_coloring(
        inst.graph(),
        &lists,
        deco_algos::greedy::EdgeOrder::ById,
    )
    .expect("assignment instances are (deg+1)-list");
    Ok((
        inst.graph()
            .edges()
            .map(|e| coloring.get(e).unwrap())
            .collect(),
        CostNode::leaf("g", 1),
    ))
}

/// The standard mixed suite at a given scale (`n` ≈ nodes per graph).
pub fn mixed_suite(n: usize, seed: u64) -> Vec<Workload> {
    let d = 8.min(n - 1);
    vec![
        Workload::new(
            format!("regular(n={n},d={d})"),
            generators::random_regular(n, d, seed),
        ),
        Workload::new(
            format!("gnp(n={n},p=8/n)"),
            generators::gnp(n, (8.0 / n as f64).min(1.0), seed + 1),
        ),
        Workload::new(
            format!("bipartite(n={n},d=6)"),
            generators::random_bipartite_left_regular(n / 2, n / 2, 6.min(n / 2), seed + 2),
        ),
        Workload::new(
            format!("powerlaw(n={n})"),
            generators::power_law(n, 2.5, (n as f64).sqrt().min(64.0), seed + 3),
        ),
        Workload::new(format!("tree(n={n})"), generators::random_tree(n, seed + 4)),
    ]
}

/// Cycle graphs of increasing size — the `log* n` flatness suite.
pub fn cycle_sweep(sizes: &[usize]) -> Vec<Workload> {
    sizes
        .iter()
        .map(|&n| Workload::new(format!("cycle(n={n})"), generators::cycle(n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_suite_has_expected_families() {
        let suite = mixed_suite(64, 1);
        assert_eq!(suite.len(), 5);
        for w in &suite {
            assert!(w.graph.num_nodes() > 0, "{} empty", w.name);
        }
    }

    #[test]
    fn ids_are_sequential() {
        let g = generators::path(5);
        assert_eq!(ids_for(&g), vec![1, 2, 3, 4, 5]);
    }
}
