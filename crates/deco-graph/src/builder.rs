//! Bulk CSR builder for large edge lists.
//!
//! [`Builder`] is the million-edge path into [`Graph`]: endpoints are
//! validated and normalized *as they are added* (one branch per edge, no
//! deferred re-scan), storage is pre-sized via [`Builder::with_capacity`],
//! and [`Builder::build`] runs the shared degree-count → prefix-sum →
//! scatter core in O(n + m) with duplicate detection by a stamp sweep over
//! the scattered adjacency lists — no per-edge re-sorting anywhere.
//!
//! The incremental [`GraphBuilder`](crate::GraphBuilder) remains the
//! convenient API for small, hand-written graphs; both builders feed the
//! same assembly core and produce bit-identical [`Graph`]s for the same
//! edge sequence.

use crate::graph::{assemble_csr, validate_edge};
use crate::{BuildGraphError, Graph, NodeId};

/// Pre-sized, validate-on-insert builder for large graphs.
///
/// # Examples
///
/// ```
/// use deco_graph::Builder;
///
/// # fn main() -> Result<(), deco_graph::BuildGraphError> {
/// let mut b = Builder::with_capacity(4, 3);
/// b.add_edge(0, 1)?;
/// b.add_edge(2, 1)?; // endpoint order is irrelevant
/// b.add_edge(2, 3)?;
/// let g = b.build()?;
/// assert_eq!(g.num_nodes(), 4);
/// assert_eq!(g.num_edges(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Builder {
    n: usize,
    /// Normalized (smaller endpoint first), range- and loop-checked edges;
    /// index order is the final [`EdgeId`](crate::EdgeId) order.
    edges: Vec<[NodeId; 2]>,
}

impl Builder {
    /// A builder for a graph on `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Builder {
            n,
            edges: Vec::new(),
        }
    }

    /// A builder for `n` nodes with room for `m` edges before reallocating.
    ///
    /// The single up-front allocation is what keeps bulk construction at one
    /// `memcpy`-class pass instead of amortized doubling over 10^6 pushes.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        Builder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}`, validating and normalizing it
    /// immediately.
    ///
    /// Duplicate detection is global and stays deferred to
    /// [`Builder::build`] (it falls out of the O(n + m) stamp sweep there);
    /// everything local to the edge — self-loops, range — is rejected here,
    /// so a bad edge is reported at its insertion site, not at the end of a
    /// million-edge load.
    ///
    /// # Errors
    ///
    /// [`BuildGraphError::SelfLoop`] if `u == v`,
    /// [`BuildGraphError::NodeOutOfRange`] if an endpoint is outside `0..n`.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), BuildGraphError> {
        let edge = validate_edge(self.n, NodeId::from(u), NodeId::from(v))?;
        self.edges.push(edge);
        Ok(())
    }

    /// Freezes the builder into an immutable [`Graph`] in O(n + m).
    ///
    /// # Errors
    ///
    /// [`BuildGraphError::DuplicateEdge`] if the same undirected pair was
    /// added twice.
    pub fn build(self) -> Result<Graph, BuildGraphError> {
        assemble_csr(self.n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn matches_graph_builder_output_exactly() {
        let pairs = [(0usize, 3usize), (1, 2), (3, 1), (0, 2), (4, 0)];
        let mut bulk = Builder::with_capacity(5, pairs.len());
        let mut push = GraphBuilder::new(5);
        for (u, v) in pairs {
            bulk.add_edge(u, v).unwrap();
            push.add_edge(NodeId::from(u), NodeId::from(v));
        }
        assert_eq!(bulk.build().unwrap(), push.build().unwrap());
    }

    #[test]
    fn rejects_self_loop_at_insertion() {
        let mut b = Builder::new(3);
        assert!(matches!(
            b.add_edge(1, 1),
            Err(BuildGraphError::SelfLoop { node: NodeId(1) })
        ));
    }

    #[test]
    fn rejects_out_of_range_at_insertion() {
        let mut b = Builder::new(3);
        assert!(matches!(
            b.add_edge(0, 7),
            Err(BuildGraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_duplicates_at_build() {
        let mut b = Builder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap();
        assert!(matches!(
            b.build(),
            Err(BuildGraphError::DuplicateEdge {
                u: NodeId(0),
                v: NodeId(1)
            })
        ));
    }

    #[test]
    fn capacity_is_a_hint_not_a_cap() {
        let mut b = Builder::with_capacity(4, 1);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.add_edge(2, 3).unwrap();
        assert_eq!(b.num_edges(), 3);
        assert_eq!(b.build().unwrap().num_edges(), 3);
    }

    #[test]
    fn empty_builder_builds_isolated_nodes() {
        let g = Builder::new(6).build().unwrap();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 0);
    }
}
