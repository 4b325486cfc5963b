//! The core undirected simple-graph representation.
//!
//! [`Graph`] is an immutable, densely indexed, undirected simple graph stored
//! in CSR (compressed sparse row) form. It is built once via [`GraphBuilder`]
//! and then queried; all the algorithms in this workspace treat graphs as
//! read-only communication topologies.
//!
//! Edge coloring works in the *line graph*: the degree of an edge
//! `e = {u, v}` is `deg(e) = deg(u) + deg(v) − 2` — the number of edges that
//! share an endpoint with `e`. [`Graph::edge_degree`] and
//! [`Graph::max_edge_degree`] expose that directly so callers do not have to
//! materialize the line graph for bookkeeping.

use crate::{EdgeId, NodeId};
use std::fmt;

/// Error produced when [`GraphBuilder::build`] rejects an invalid graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildGraphError {
    /// An edge `{u, u}` was added; simple graphs have no self-loops.
    SelfLoop {
        /// The node carrying the self-loop.
        node: NodeId,
    },
    /// The same undirected pair was added twice.
    DuplicateEdge {
        /// Smaller endpoint of the duplicated edge.
        u: NodeId,
        /// Larger endpoint of the duplicated edge.
        v: NodeId,
    },
    /// An endpoint index is outside `0..n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// The node count of the graph under construction.
        n: usize,
    },
}

impl fmt::Display for BuildGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildGraphError::SelfLoop { node } => {
                write!(f, "self-loop at {node} is not allowed in a simple graph")
            }
            BuildGraphError::DuplicateEdge { u, v } => {
                write!(f, "duplicate edge {{{u}, {v}}}")
            }
            BuildGraphError::NodeOutOfRange { node, n } => {
                write!(f, "endpoint {node} out of range for graph with {n} nodes")
            }
        }
    }
}

impl std::error::Error for BuildGraphError {}

/// The one edge-validation rule every construction surface shares: rejects
/// self-loops and out-of-range endpoints, and returns the edge normalized
/// (smaller endpoint first). Duplicate detection is *not* done here — it is
/// global, and each surface decides where to pay for it (the builders defer
/// it to the O(n + m) stamp sweep in [`assemble_csr`]; the mutable overlay
/// checks its live index on insert).
pub(crate) fn validate_edge(
    n: usize,
    u: NodeId,
    v: NodeId,
) -> Result<[NodeId; 2], BuildGraphError> {
    if u == v {
        return Err(BuildGraphError::SelfLoop { node: u });
    }
    for w in [u, v] {
        if w.index() >= n {
            return Err(BuildGraphError::NodeOutOfRange { node: w, n });
        }
    }
    Ok(if u.0 <= v.0 { [u, v] } else { [v, u] })
}

/// Incrementally collects nodes and edges, then validates and freezes them
/// into a [`Graph`].
///
/// # Examples
///
/// ```
/// use deco_graph::{GraphBuilder, NodeId};
///
/// # fn main() -> Result<(), deco_graph::BuildGraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(2));
/// let g = b.build()?;
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.max_degree(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<[NodeId; 2]>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder for `n` nodes with room for `m` edges, so bulk
    /// loaders (the edge-list readers) avoid amortized reallocation.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Grows the node count to at least `n`.
    pub fn ensure_nodes(&mut self, n: usize) -> &mut Self {
        self.n = self.n.max(n);
        self
    }

    /// Adds the undirected edge `{u, v}`. Order of endpoints is irrelevant.
    ///
    /// This is the *lenient* path: it accepts anything, and all validation
    /// (self-loops, duplicates, range) is deferred to
    /// [`GraphBuilder::build`], so callers can add edges in bulk and get
    /// one error at the end. When an invalid edge should be reported at its
    /// insertion site instead — the contract the bulk
    /// [`Builder`](crate::Builder) and
    /// [`MutableGraph`](crate::MutableGraph) already enforce — use
    /// [`GraphBuilder::try_add_edge`].
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        self.edges.push([u, v]);
        self
    }

    /// Adds the undirected edge `{u, v}`, validating everything local to
    /// the edge immediately through the same shared rule as the bulk
    /// [`Builder`](crate::Builder) (duplicate detection remains global and
    /// stays at [`GraphBuilder::build`]).
    ///
    /// # Errors
    ///
    /// [`BuildGraphError::SelfLoop`] if `u == v`,
    /// [`BuildGraphError::NodeOutOfRange`] if an endpoint is outside `0..n`.
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId) -> Result<&mut Self, BuildGraphError> {
        let edge = validate_edge(self.n, u, v)?;
        self.edges.push(edge);
        Ok(self)
    }

    /// Adds every edge from an iterator of endpoint pairs.
    pub fn extend_edges<I>(&mut self, iter: I) -> &mut Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
        self
    }

    /// Validates and freezes the builder into an immutable [`Graph`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildGraphError`] if any edge is a self-loop, a duplicate,
    /// or references a node outside `0..n`.
    pub fn build(self) -> Result<Graph, BuildGraphError> {
        let n = self.n;
        let mut normalized: Vec<[NodeId; 2]> = Vec::with_capacity(self.edges.len());
        for &[u, v] in &self.edges {
            normalized.push(validate_edge(n, u, v)?);
        }
        assemble_csr(n, normalized)
    }
}

/// The shared CSR assembly core: degree count → prefix sum → scatter, then a
/// stamp-based duplicate sweep over the finished adjacency lists.
///
/// `normalized` must hold edges with validated endpoints (`u < v`, both in
/// `0..n`); edge ids are assigned in slice order. Runs in O(n + m) with no
/// per-edge re-sorting — duplicate detection rides on the scattered lists: a
/// node id appearing twice in one adjacency list *is* a duplicate edge, so a
/// single last-seen stamp array replaces the old `sort_unstable` pass.
pub(crate) fn assemble_csr(
    n: usize,
    normalized: Vec<[NodeId; 2]>,
) -> Result<Graph, BuildGraphError> {
    let mut degree = vec![0u32; n];
    for [u, v] in &normalized {
        degree[u.index()] += 1;
        degree[v.index()] += 1;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for d in &degree {
        acc += *d as usize;
        offsets.push(acc);
    }
    let mut cursor: Vec<usize> = offsets[..n].to_vec();
    let mut adjacency = vec![
        Adjacent {
            neighbor: NodeId(0),
            edge: EdgeId(0)
        };
        normalized.len() * 2
    ];
    // Mirror-port table, built alongside the adjacency lists: slot k of
    // the CSR arena (node v, port j, edge e) stores the port index of e
    // at the *other* endpoint.
    let mut back_ports = vec![0u32; normalized.len() * 2];
    for (idx, [u, v]) in normalized.iter().enumerate() {
        let e = EdgeId::from(idx);
        let u_slot = cursor[u.index()];
        adjacency[u_slot] = Adjacent {
            neighbor: *v,
            edge: e,
        };
        cursor[u.index()] += 1;
        let v_slot = cursor[v.index()];
        adjacency[v_slot] = Adjacent {
            neighbor: *u,
            edge: e,
        };
        cursor[v.index()] += 1;
        let u_port = u_slot - offsets[u.index()];
        let v_port = v_slot - offsets[v.index()];
        back_ports[u_slot] = u32::try_from(v_port).expect("degree fits u32");
        back_ports[v_slot] = u32::try_from(u_port).expect("degree fits u32");
    }
    // Duplicate sweep: `stamp[w] == v` iff `w` already appeared in `v`'s
    // list during this scan (node ids are strictly increasing across outer
    // iterations, so stamps never need resetting; u32::MAX is the never-seen
    // sentinel and node ids stay below it because degrees fit u32).
    let mut stamp = vec![u32::MAX; n];
    for v in 0..n {
        for a in &adjacency[offsets[v]..offsets[v + 1]] {
            let w = a.neighbor.index();
            if stamp[w] == v as u32 {
                let (lo, hi) = if v < w { (v, w) } else { (w, v) };
                return Err(BuildGraphError::DuplicateEdge {
                    u: NodeId::from(lo),
                    v: NodeId::from(hi),
                });
            }
            stamp[w] = v as u32;
        }
    }
    Ok(Graph {
        edges: normalized,
        offsets,
        adjacency,
        back_ports,
    })
}

/// One entry of a node's adjacency list: the neighbor and the connecting edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Adjacent {
    /// The node at the other end of [`Adjacent::edge`].
    pub neighbor: NodeId,
    /// The edge connecting the list owner to [`Adjacent::neighbor`].
    pub edge: EdgeId,
}

/// Borrowed views of the four CSR arrays, in declaration order:
/// `(edges, offsets, adjacency, back_ports)`.
pub(crate) type CsrParts<'a> = (&'a [[NodeId; 2]], &'a [usize], &'a [Adjacent], &'a [u32]);

/// An immutable undirected simple graph in CSR form.
///
/// Nodes are `NodeId(0..n)`, edges are `EdgeId(0..m)` in insertion order.
/// Endpoints of each edge are stored with the smaller node id first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    edges: Vec<[NodeId; 2]>,
    offsets: Vec<usize>,
    adjacency: Vec<Adjacent>,
    /// `back_ports[offsets[v] + j]` is the port index of edge
    /// `adjacent(v)[j].edge` at the other endpoint (the "mirror port").
    back_ports: Vec<u32>,
}

impl Graph {
    /// Builds a graph directly from `(u, v)` index pairs over `n` nodes.
    ///
    /// Convenience wrapper over [`GraphBuilder`].
    ///
    /// # Errors
    ///
    /// Same as [`GraphBuilder::build`].
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Graph, BuildGraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(NodeId::from(u), NodeId::from(v));
        }
        b.build()
    }

    /// An empty graph on `n` isolated nodes.
    pub fn empty(n: usize) -> Graph {
        GraphBuilder::new(n)
            .build()
            .expect("empty graph is always valid")
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId::from)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.num_edges()).map(EdgeId::from)
    }

    /// The two endpoints of `e`, smaller node id first.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> [NodeId; 2] {
        self.edges[e.index()]
    }

    /// Given one endpoint of `e`, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: NodeId) -> NodeId {
        let [a, b] = self.endpoints(e);
        if v == a {
            b
        } else if v == b {
            a
        } else {
            panic!("{v} is not an endpoint of {e}");
        }
    }

    /// Degree of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// Adjacency list of `v`: neighbors together with the connecting edges.
    #[inline]
    pub fn adjacent(&self, v: NodeId) -> &[Adjacent] {
        &self.adjacency[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Iterator over the neighbors of `v`.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacent(v).iter().map(|a| a.neighbor)
    }

    /// Iterator over the edges incident to `v`.
    pub fn incident_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.adjacent(v).iter().map(|a| a.edge)
    }

    /// Mirror ports of `v`, aligned with [`Graph::adjacent`]: entry `j` is
    /// the port index of `adjacent(v)[j].edge` at the neighboring endpoint
    /// (the edge that leaves `v` through port `j` enters
    /// `adjacent(v)[j].neighbor` through port `back_ports(v)[j]`).
    ///
    /// Precomputed at build time. The `.snap` v1 format stores the table,
    /// and loading a snapshot validates it against the adjacency.
    #[inline]
    pub fn back_ports(&self, v: NodeId) -> &[u32] {
        &self.back_ports[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// The port index at which `adjacent(v)[port].neighbor` sees the edge
    /// `adjacent(v)[port].edge`. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree(v)`.
    #[inline]
    pub fn back_port(&self, v: NodeId, port: usize) -> usize {
        assert!(port < self.degree(v), "port {port} out of range for {v}");
        self.back_ports[self.offsets[v.index()] + port] as usize
    }

    /// Looks up the edge `{u, v}` if it exists.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        // Scan the smaller adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adjacent(a)
            .iter()
            .find(|x| x.neighbor == b)
            .map(|x| x.edge)
    }

    /// Maximum node degree Δ (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Degree of edge `e` in the line graph: `deg(u) + deg(v) − 2`.
    ///
    /// This is the number of edges sharing an endpoint with `e`, the quantity
    /// the paper calls `deg(e)`.
    #[inline]
    pub fn edge_degree(&self, e: EdgeId) -> usize {
        let [u, v] = self.endpoints(e);
        self.degree(u) + self.degree(v) - 2
    }

    /// Maximum edge degree Δ̄ = max_e deg(e) (0 for an edgeless graph).
    ///
    /// Always satisfies Δ̄ ≤ 2Δ − 2 whenever the graph has at least one edge.
    pub fn max_edge_degree(&self) -> usize {
        self.edges().map(|e| self.edge_degree(e)).max().unwrap_or(0)
    }

    /// Iterator over the line-graph neighbors of `e`: every edge `f ≠ e`
    /// sharing an endpoint with `e`.
    ///
    /// Yields each neighbor exactly once (simple graphs: two distinct edges
    /// share at most one node).
    pub fn edge_neighbors(&self, e: EdgeId) -> impl Iterator<Item = EdgeId> + '_ {
        let [u, v] = self.endpoints(e);
        self.incident_edges(u)
            .chain(self.incident_edges(v))
            .filter(move |&f| f != e)
    }

    /// Sum of degrees = 2m; sanity-check helper.
    pub fn degree_sum(&self) -> usize {
        self.adjacency.len()
    }

    /// All edges as endpoint pairs, in edge-id order.
    pub fn edge_list(&self) -> &[[NodeId; 2]] {
        &self.edges
    }

    /// The raw CSR arrays `(edges, offsets, adjacency, back_ports)`, for the
    /// binary snapshot writer. Internal: the layout is an implementation
    /// detail of this module.
    pub(crate) fn csr_parts(&self) -> CsrParts<'_> {
        (
            &self.edges,
            &self.offsets,
            &self.adjacency,
            &self.back_ports,
        )
    }

    /// Reassembles a graph from raw CSR arrays without re-deriving them.
    ///
    /// Internal, for the binary snapshot reader, which structurally
    /// validates every array (monotone offsets, endpoint/adjacency
    /// coherence, back-port involution, duplicate-freeness) before calling
    /// this. Feeding unvalidated arrays here would break `Graph`'s
    /// invariants silently.
    pub(crate) fn from_csr_parts(
        edges: Vec<[NodeId; 2]>,
        offsets: Vec<usize>,
        adjacency: Vec<Adjacent>,
        back_ports: Vec<u32>,
    ) -> Graph {
        Graph {
            edges,
            offsets,
            adjacency,
            back_ports,
        }
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, Δ={}, Δ̄={})",
            self.num_nodes(),
            self.num_edges(),
            self.max_degree(),
            self.max_edge_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn builds_triangle() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.max_edge_degree(), 2);
        assert_eq!(g.degree_sum(), 6);
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(2, [(1, 1)]).unwrap_err();
        assert_eq!(err, BuildGraphError::SelfLoop { node: NodeId(1) });
    }

    #[test]
    fn rejects_duplicate_even_if_reversed() {
        let err = Graph::from_edges(2, [(0, 1), (1, 0)]).unwrap_err();
        assert!(matches!(err, BuildGraphError::DuplicateEdge { .. }));
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(2, [(0, 5)]).unwrap_err();
        assert!(matches!(err, BuildGraphError::NodeOutOfRange { .. }));
    }

    #[test]
    fn endpoints_are_normalized() {
        let g = Graph::from_edges(3, [(2, 0)]).unwrap();
        assert_eq!(g.endpoints(EdgeId(0)), [NodeId(0), NodeId(2)]);
    }

    #[test]
    fn other_endpoint_works() {
        let g = triangle();
        let e = g.edge_between(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(g.other_endpoint(e, NodeId(0)), NodeId(2));
        assert_eq!(g.other_endpoint(e, NodeId(2)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "is not an endpoint")]
    fn other_endpoint_panics_for_non_endpoint() {
        let g = triangle();
        let e = g.edge_between(NodeId(0), NodeId(2)).unwrap();
        let _ = g.other_endpoint(e, NodeId(1));
    }

    #[test]
    fn edge_between_finds_edges_both_ways() {
        let g = triangle();
        assert!(g.edge_between(NodeId(0), NodeId(1)).is_some());
        assert!(g.edge_between(NodeId(1), NodeId(0)).is_some());
        assert_eq!(g.edge_between(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn edge_neighbors_of_star_center_edges() {
        // Star K_{1,3}: edges all share node 0.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let nbrs: Vec<EdgeId> = g.edge_neighbors(EdgeId(0)).collect();
        assert_eq!(nbrs.len(), 2);
        assert_eq!(g.edge_degree(EdgeId(0)), 2);
        assert_eq!(g.max_edge_degree(), 2);
    }

    #[test]
    fn edge_degree_matches_neighbor_count_on_path() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        for e in g.edges() {
            assert_eq!(g.edge_degree(e), g.edge_neighbors(e).count());
        }
    }

    #[test]
    fn back_ports_mirror_the_adjacency() {
        // On several shapes: following port j from v and then the recorded
        // back port from the neighbor must land back on (v, j).
        for g in [
            triangle(),
            Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap(),
            Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]).unwrap(),
        ] {
            for v in g.nodes() {
                for (j, adj) in g.adjacent(v).iter().enumerate() {
                    let back = g.back_port(v, j);
                    let mirror = g.adjacent(adj.neighbor)[back];
                    assert_eq!(mirror.edge, adj.edge, "same edge through the mirror port");
                    assert_eq!(mirror.neighbor, v, "mirror port points back");
                    assert_eq!(g.back_port(adj.neighbor, back), j, "involution");
                }
            }
        }
    }

    #[test]
    fn back_ports_agree_with_linear_scan() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 1), (4, 2)]).unwrap();
        for v in g.nodes() {
            for (j, adj) in g.adjacent(v).iter().enumerate() {
                let scanned = g
                    .adjacent(adj.neighbor)
                    .iter()
                    .position(|a| a.edge == adj.edge)
                    .expect("edge appears at both endpoints");
                assert_eq!(g.back_port(v, j), scanned);
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.max_edge_degree(), 0);
    }

    #[test]
    fn display_format() {
        let g = triangle();
        assert!(g.to_string().contains("n=3"));
    }
}
