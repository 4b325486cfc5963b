//! Line-graph construction.
//!
//! The line graph `L(G)` has one node per edge of `G`, with two nodes
//! adjacent iff the corresponding edges of `G` share an endpoint. Edge
//! coloring `G` is exactly vertex coloring `L(G)`; the paper's quantity
//! `deg(e)` is the degree of `e` in `L(G)` and `Δ̄` is `L(G)`'s maximum
//! degree.
//!
//! In the LOCAL model a round of an algorithm on `L(G)` is simulated by a
//! constant number of rounds on `G` (adjacent edges share a node that can
//! relay), which is why vertex-coloring algorithms color edges when run on
//! line graphs. No solve builds `L(G)`: an edge's neighbourhood in it is
//! the other edges at its two endpoints, and the solver's Linial runs,
//! class elimination and residual lists read those off `G`.
//! [`LineGraph::of`] materializes `L(G)`, with `Θ(Σ_v deg(v)²)` edges, for
//! the randomized Luby baseline, for the message-passing oracles the
//! endpoint computations are tested against, and for measuring that cost.
//! Node `i` is edge `EdgeId(i)`, and node `i`'s ports list the other edges
//! at `i`'s smaller endpoint, then those at its larger one.

use crate::{EdgeId, Graph, GraphBuilder, NodeId};

/// The line graph of a graph, with the node↔edge correspondence.
#[derive(Debug, Clone)]
pub struct LineGraph {
    graph: Graph,
}

impl LineGraph {
    /// Constructs `L(G)`.
    ///
    /// Node `NodeId(i)` of the line graph corresponds to edge `EdgeId(i)` of
    /// `g`. Runs in `O(Σ_v deg(v)²)` time.
    pub fn of(g: &Graph) -> LineGraph {
        let mut builder = GraphBuilder::new(g.num_edges());
        // Two edges are adjacent iff they share a node; enumerate unordered
        // pairs of edges incident to each node. Simple graphs guarantee two
        // edges share at most one node, so no pair is produced twice.
        for v in g.nodes() {
            let inc = g.adjacent(v);
            for i in 0..inc.len() {
                for j in (i + 1)..inc.len() {
                    builder.add_edge(NodeId(inc[i].edge.0), NodeId(inc[j].edge.0));
                }
            }
        }
        let graph = builder
            .build()
            .expect("line graph of a simple graph is simple");
        LineGraph { graph }
    }

    /// The line graph as a plain [`Graph`].
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The edge of the base graph corresponding to line-graph node `v`.
    #[inline]
    pub fn base_edge(&self, v: NodeId) -> EdgeId {
        EdgeId(v.0)
    }

    /// The line-graph node corresponding to base-graph edge `e`.
    #[inline]
    pub fn line_node(&self, e: EdgeId) -> NodeId {
        NodeId(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_graph_of_path() {
        // P4: 0-1-2-3, edges e0={0,1}, e1={1,2}, e2={2,3}.
        // L(P4) is the path e0-e1-e2.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let lg = LineGraph::of(&g);
        assert_eq!(lg.graph().num_nodes(), 3);
        assert_eq!(lg.graph().num_edges(), 2);
        assert_eq!(lg.graph().degree(NodeId(1)), 2);
        assert_eq!(lg.graph().degree(NodeId(0)), 1);
    }

    #[test]
    fn line_graph_of_triangle_is_triangle() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
        let lg = LineGraph::of(&g);
        assert_eq!(lg.graph().num_nodes(), 3);
        assert_eq!(lg.graph().num_edges(), 3);
    }

    #[test]
    fn line_graph_of_star_is_complete() {
        // K_{1,4}: line graph is K_4.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let lg = LineGraph::of(&g);
        assert_eq!(lg.graph().num_nodes(), 4);
        assert_eq!(lg.graph().num_edges(), 6);
    }

    #[test]
    fn degrees_match_edge_degree() {
        let g = Graph::from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let lg = LineGraph::of(&g);
        for e in g.edges() {
            assert_eq!(lg.graph().degree(lg.line_node(e)), g.edge_degree(e));
        }
        assert_eq!(lg.graph().max_degree(), g.max_edge_degree());
    }

    #[test]
    fn correspondence_roundtrip() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        let lg = LineGraph::of(&g);
        for e in g.edges() {
            assert_eq!(lg.base_edge(lg.line_node(e)), e);
        }
    }
}
