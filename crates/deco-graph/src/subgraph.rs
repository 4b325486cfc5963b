//! Edge-induced subgraphs with provenance back to the parent graph.
//!
//! The recursive algorithms in this workspace constantly restrict attention
//! to a subset of edges (a defective color class, the still-uncolored edges,
//! the edges assigned to one color subspace, …) and then need to translate
//! results back to the original instance. [`EdgeSubgraph`] materializes the
//! restriction as a fresh [`Graph`] over the *same node set* and keeps the
//! map from subgraph edge ids back to parent edge ids.

use crate::{EdgeId, Graph, GraphBuilder};

/// A subgraph of a parent [`Graph`] induced by a subset of its edges.
///
/// Nodes are preserved 1:1 (same `NodeId` space as the parent); only edges
/// are filtered, so node-indexed state can be shared between parent and
/// subgraph. Edge ids are re-densified; [`EdgeSubgraph::parent_edge`] and
/// [`EdgeSubgraph::edge_map`] translate them back.
///
/// # Examples
///
/// ```
/// use deco_graph::{EdgeSubgraph, Graph, EdgeId};
///
/// # fn main() -> Result<(), deco_graph::BuildGraphError> {
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let sub = EdgeSubgraph::new(&g, |e| e != EdgeId(1));
/// assert_eq!(sub.graph().num_edges(), 2);
/// assert_eq!(sub.parent_edge(EdgeId(1)), EdgeId(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EdgeSubgraph {
    graph: Graph,
    to_parent: Vec<EdgeId>,
}

impl EdgeSubgraph {
    /// Builds the subgraph containing exactly the parent edges for which
    /// `keep` returns `true`.
    pub fn new<F>(parent: &Graph, mut keep: F) -> EdgeSubgraph
    where
        F: FnMut(EdgeId) -> bool,
    {
        let kept: Vec<EdgeId> = parent.edges().filter(|&e| keep(e)).collect();
        EdgeSubgraph::from_edge_ids(parent, &kept)
    }

    /// Builds the subgraph containing exactly `edges` (parent edge ids).
    ///
    /// # Panics
    ///
    /// Panics if `edges` contains duplicates (the builder's
    /// [`BuildGraphError::DuplicateEdge`](crate::BuildGraphError::DuplicateEdge))
    /// or out-of-range ids.
    pub fn from_edge_ids(parent: &Graph, edges: &[EdgeId]) -> EdgeSubgraph {
        let mut builder = GraphBuilder::with_capacity(parent.num_nodes(), edges.len());
        for &pe in edges {
            let [u, v] = parent.endpoints(pe);
            builder.add_edge(u, v);
        }
        let graph = builder
            .build()
            .expect("subgraph edges must be distinct edges of the parent");
        EdgeSubgraph {
            graph,
            to_parent: edges.to_vec(),
        }
    }

    /// The materialized subgraph (same node set as the parent).
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Translates a subgraph edge id back to the parent edge id.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range for the subgraph.
    #[inline]
    pub fn parent_edge(&self, e: EdgeId) -> EdgeId {
        self.to_parent[e.index()]
    }

    /// The full sub→parent edge mapping, indexed by subgraph edge id.
    #[inline]
    pub fn edge_map(&self) -> &[EdgeId] {
        &self.to_parent
    }

    /// Takes the subgraph apart without copying: the materialized graph
    /// and the sub→parent edge mapping.
    pub fn into_parts(self) -> (Graph, Vec<EdgeId>) {
        (self.graph, self.to_parent)
    }
}

/// Degree of `e` counted only against neighbors inside `mask`
/// (`mask[f] == true` means `f` is in the subgraph). The edge `e` itself does
/// not need to be in the mask.
pub fn edge_degree_within(parent: &Graph, mask: &[bool], e: EdgeId) -> usize {
    parent.edge_neighbors(e).filter(|f| mask[f.index()]).count()
}

/// Maximum, over edges in `mask`, of [`edge_degree_within`]; 0 if the mask is
/// empty.
pub fn max_edge_degree_within(parent: &Graph, mask: &[bool]) -> usize {
    parent
        .edges()
        .filter(|e| mask[e.index()])
        .map(|e| edge_degree_within(parent, mask, e))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path5() -> Graph {
        Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn keeps_selected_edges() {
        let g = path5();
        let sub = EdgeSubgraph::new(&g, |e| e.index() % 2 == 0);
        assert_eq!(sub.graph().num_edges(), 2);
        assert_eq!(sub.parent_edge(EdgeId(0)), EdgeId(0));
        assert_eq!(sub.parent_edge(EdgeId(1)), EdgeId(2));
        assert_eq!(sub.edge_map(), [EdgeId(0), EdgeId(2)]);
    }

    #[test]
    fn node_set_is_preserved() {
        let g = path5();
        let sub = EdgeSubgraph::new(&g, |_| false);
        assert_eq!(sub.graph().num_nodes(), 5);
        assert_eq!(sub.graph().num_edges(), 0);
    }

    #[test]
    fn degree_within_mask() {
        let g = path5();
        // Keep edges e0 and e1 (sharing node 1).
        let mask = vec![true, true, false, false];
        assert_eq!(edge_degree_within(&g, &mask, EdgeId(0)), 1);
        assert_eq!(edge_degree_within(&g, &mask, EdgeId(1)), 1);
        assert_eq!(edge_degree_within(&g, &mask, EdgeId(2)), 1); // neighbor e1 in mask
        assert_eq!(max_edge_degree_within(&g, &mask), 1);
    }

    #[test]
    fn subgraph_degrees_match_mask_degrees() {
        let g = Graph::from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (4, 5), (3, 4)]).unwrap();
        let mask: Vec<bool> = g.edges().map(|e| e.index() != 3).collect();
        let kept: Vec<EdgeId> = g.edges().filter(|e| mask[e.index()]).collect();
        let sub = EdgeSubgraph::from_edge_ids(&g, &kept);
        for se in sub.graph().edges() {
            let pe = sub.parent_edge(se);
            assert_eq!(
                sub.graph().edge_degree(se),
                edge_degree_within(&g, &mask, pe),
                "edge degree mismatch for {pe}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "DuplicateEdge")]
    fn rejects_duplicate_edge_ids() {
        let g = path5();
        let _ = EdgeSubgraph::from_edge_ids(&g, &[EdgeId(0), EdgeId(0)]);
    }
}
