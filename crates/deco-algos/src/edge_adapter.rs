//! Running vertex-coloring algorithms on the line graph to color edges.
//!
//! In the LOCAL model, one round of an algorithm on the line graph `L(G)` is
//! simulated by a constant number of rounds on `G`: two adjacent edges share
//! a node, and that node relays. The adapter here derives unique *edge*
//! identifiers from the endpoints' node identifiers (every node can compute
//! them locally), runs Linial's reduction on `L(G)` with every step decided
//! at the endpoints ([`linial::color_line_from_initial`]), which is the
//! relay made explicit, and maps the result back to edges. `L(G)` is never
//! built.

use crate::linial;
use deco_graph::coloring::EdgeColoring;
use deco_graph::Graph;
use deco_local::RunError;
use deco_runtime::Runtime;

/// Unique edge IDs computable locally from endpoint node IDs: the pairing
/// `a·(B+1) + b` for endpoint ids `a < b` with global bound `B`. Values are
/// distinct across edges and bounded by `(B+1)²` — still `n^{O(1)}`.
///
/// # Panics
///
/// Panics if `(B+1)²` overflows `u64` (use a denser ID assignment).
pub fn edge_ids_by_pairing(g: &Graph, node_ids: &[u64]) -> Vec<u64> {
    assert_eq!(node_ids.len(), g.num_nodes(), "one ID per node");
    let bound = node_ids.iter().copied().max().unwrap_or(1);
    bound
        .checked_add(1)
        .and_then(|b| b.checked_mul(b))
        .expect("(B+1)^2 must fit in u64; use denser node IDs");
    g.edges()
        .map(|e| {
            let [u, v] = g.endpoints(e);
            let (a, b) = {
                let (x, y) = (node_ids[u.index()], node_ids[v.index()]);
                if x < y {
                    (x, y)
                } else {
                    (y, x)
                }
            };
            a * (bound + 1) + b
        })
        .collect()
}

/// Result of the Linial edge-coloring adapter.
#[derive(Debug, Clone)]
pub struct LinialEdgeResult {
    /// Proper edge coloring with `palette` colors.
    pub coloring: EdgeColoring,
    /// Palette size (`O(Δ̄²)`).
    pub palette: u64,
    /// Line-graph rounds used (`O(log* n)`); each costs O(1) rounds on `G`.
    pub rounds: u64,
    /// Messages delivered over the run (identical on every engine).
    pub messages: u64,
}

/// Computes an `O(Δ̄²)`-edge coloring of `g` in `O(log* n)` line-graph
/// rounds by running Linial's reduction on `L(g)` from pairing-derived
/// edge IDs, every step decided at the endpoints. This is the "initial
/// edge coloring with X colors" every Section-4 construction of the paper
/// starts from. Colors, palette, rounds and messages are those of
/// [`linial::LinialProtocol`] run on `LineGraph::of(g)`.
///
/// `rt` is unused: no engine runs, so every runtime gives the same result
/// at the same cost. The parameter keeps the signature every other
/// algorithm entry point has.
///
/// # Errors
///
/// None: the call cannot fail. The `Result` keeps the signature of the
/// engine-run protocols.
pub fn linial_edge_coloring(
    g: &Graph,
    node_ids: &[u64],
    _rt: &Runtime,
) -> Result<LinialEdgeResult, RunError> {
    let eids = edge_ids_by_pairing(g, node_ids);
    if g.num_edges() == 0 {
        return Ok(LinialEdgeResult {
            coloring: EdgeColoring::uncolored(0),
            palette: 1,
            rounds: 0,
            messages: 0,
        });
    }
    let bound = node_ids.iter().copied().max().unwrap_or(1);
    let m0 = (bound + 1) * (bound + 1);
    let res = linial::color_line_from_initial(g, eids, m0);
    Ok(LinialEdgeResult {
        coloring: EdgeColoring::from_complete(res.colors),
        palette: res.palette,
        rounds: res.rounds,
        messages: res.messages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::{coloring, generators};

    #[test]
    fn pairing_ids_are_distinct() {
        let g = generators::gnp(40, 0.2, 1);
        let ids: Vec<u64> = (1..=40).collect();
        let eids = edge_ids_by_pairing(&g, &ids);
        let mut sorted = eids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), g.num_edges(), "edge ids must be distinct");
    }

    #[test]
    fn linial_edge_coloring_is_proper_and_small() {
        for g in [
            generators::random_regular(40, 4, 2),
            generators::petersen(),
            generators::complete_bipartite(5, 5),
        ] {
            let ids: Vec<u64> = (1..=g.num_nodes() as u64).collect();
            let res = linial_edge_coloring(&g, &ids, &Runtime::serial()).unwrap();
            coloring::check_edge_coloring(&g, &res.coloring).expect("proper edge coloring");
            let dbar = g.max_edge_degree() as u64;
            assert!(
                res.palette <= 4 * dbar * dbar + 50 * dbar + 100,
                "palette {} not O(Δ̄²) for Δ̄={dbar}",
                res.palette
            );
        }
    }

    #[test]
    fn empty_graph_short_circuits() {
        let g = deco_graph::Graph::empty(5);
        let res = linial_edge_coloring(&g, &[1, 2, 3, 4, 5], &Runtime::serial()).unwrap();
        assert_eq!(res.rounds, 0);
    }

    #[test]
    fn rounds_flat_in_n() {
        let ids_small: Vec<u64> = (1..=60).collect();
        let ids_large: Vec<u64> = (1..=600).collect();
        let small =
            linial_edge_coloring(&generators::cycle(60), &ids_small, &Runtime::serial()).unwrap();
        let large =
            linial_edge_coloring(&generators::cycle(600), &ids_large, &Runtime::serial()).unwrap();
        assert!(large.rounds <= small.rounds + 2, "log* growth only");
    }
}
