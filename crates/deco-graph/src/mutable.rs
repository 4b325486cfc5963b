//! Mutable graphs for churn workloads: edge insert/remove with
//! CSR-compatible views.
//!
//! Every engine in this workspace executes over the immutable CSR
//! [`Graph`] — flat arenas, dense edge ids. A production scheduler, though,
//! faces link arrivals and removals every second, and rebuilding the CSR
//! per update only to answer "what are `v`'s neighbors now?" wastes the
//! locality the paper's machinery buys. [`MutableGraph`] splits the two
//! concerns:
//!
//! * **The live overlay** answers adjacency queries in O(deg): a live edge
//!   vector (whose order *is* the edge-id order of the next snapshot), a
//!   per-node neighbor overlay, an endpoint-keyed index for O(1) membership,
//!   and a degree histogram for O(1) amortized Δ tracking. Inserts append;
//!   removals swap-remove — both O(deg) and deterministic, so a replayed
//!   trace reproduces the same overlay bit for bit.
//! * **The CSR view** is rebuilt on demand through [`GraphBuilder`]
//!   (degree-count → prefix-sum → scatter) and cached until the next
//!   mutation: [`MutableGraph::snapshot`] is O(n + m) after a mutation and
//!   O(1) until the next one.
//!
//! Edge validation is the *shared* rule of the builder
//! ([`BuildGraphError`]): self-loops and out-of-range endpoints are rejected
//! at the mutation site, and duplicates — global by nature — are rejected
//! against the live index instead of a deferred sweep.
//!
//! ```
//! use deco_graph::{EdgeUpdate, Graph, MutableGraph};
//!
//! # fn main() -> Result<(), deco_graph::MutateError> {
//! let g = Graph::from_edges(4, [(0, 1), (1, 2)]).unwrap();
//! let mut m = MutableGraph::from_graph(&g);
//! m.apply(EdgeUpdate::insert(2usize, 3usize))?;
//! m.apply(EdgeUpdate::remove(0usize, 1usize))?;
//! assert_eq!(m.num_edges(), 2);
//! assert!(m.has_edge(2u32.into(), 3u32.into()));
//! let snap = m.snapshot(); // CSR view, cached until the next mutation
//! assert_eq!(snap.num_edges(), 2);
//! # Ok(())
//! # }
//! ```

use crate::graph::validate_edge;
use crate::hashing::DetHashMap;
use crate::{BuildGraphError, Graph, GraphBuilder, NodeId};
use std::fmt;

/// One edge mutation, the unit a churn trace replays and a
/// [`Session`](https://docs.rs/deco) applies. Endpoints are stored
/// normalized (smaller node id first) so an update compares and hashes
/// independently of the order the caller named them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeUpdate {
    /// Insert the undirected edge `{u, v}`.
    Insert {
        /// Smaller endpoint.
        u: NodeId,
        /// Larger endpoint.
        v: NodeId,
    },
    /// Remove the undirected edge `{u, v}`.
    Remove {
        /// Smaller endpoint.
        u: NodeId,
        /// Larger endpoint.
        v: NodeId,
    },
}

impl EdgeUpdate {
    /// An insert of `{u, v}`, endpoints normalized.
    pub fn insert(u: impl Into<NodeId>, v: impl Into<NodeId>) -> EdgeUpdate {
        let (u, v) = ordered(u.into(), v.into());
        EdgeUpdate::Insert { u, v }
    }

    /// A removal of `{u, v}`, endpoints normalized.
    pub fn remove(u: impl Into<NodeId>, v: impl Into<NodeId>) -> EdgeUpdate {
        let (u, v) = ordered(u.into(), v.into());
        EdgeUpdate::Remove { u, v }
    }

    /// The affected endpoints, smaller first.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            EdgeUpdate::Insert { u, v } | EdgeUpdate::Remove { u, v } => (u, v),
        }
    }

    /// Whether this update is an insertion.
    pub fn is_insert(&self) -> bool {
        matches!(self, EdgeUpdate::Insert { .. })
    }

    /// The inverse update: the one that undoes this one.
    pub fn inverse(&self) -> EdgeUpdate {
        match *self {
            EdgeUpdate::Insert { u, v } => EdgeUpdate::Remove { u, v },
            EdgeUpdate::Remove { u, v } => EdgeUpdate::Insert { u, v },
        }
    }
}

impl fmt::Display for EdgeUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeUpdate::Insert { u, v } => write!(f, "+{{{u}, {v}}}"),
            EdgeUpdate::Remove { u, v } => write!(f, "-{{{u}, {v}}}"),
        }
    }
}

fn ordered(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u.0 <= v.0 {
        (u, v)
    } else {
        (v, u)
    }
}

/// Error produced when a mutation is rejected. The graph is unchanged
/// whenever a mutation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutateError {
    /// The edge failed the shared builder validation: a self-loop, an
    /// out-of-range endpoint, or (for inserts) a duplicate of a live edge.
    Invalid(BuildGraphError),
    /// A removal named an edge that is not in the graph.
    MissingEdge {
        /// Smaller endpoint of the missing edge.
        u: NodeId,
        /// Larger endpoint of the missing edge.
        v: NodeId,
    },
}

impl fmt::Display for MutateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutateError::Invalid(e) => e.fmt(f),
            MutateError::MissingEdge { u, v } => {
                write!(f, "edge {{{u}, {v}}} is not in the graph")
            }
        }
    }
}

impl std::error::Error for MutateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutateError::Invalid(e) => Some(e),
            MutateError::MissingEdge { .. } => None,
        }
    }
}

impl From<BuildGraphError> for MutateError {
    fn from(e: BuildGraphError) -> MutateError {
        MutateError::Invalid(e)
    }
}

/// An undirected simple graph that supports edge insertion and removal,
/// with a cached CSR snapshot for everything downstream that consumes
/// [`Graph`] (engines, validators, the solver). See the module docs for
/// the overlay/view split.
#[derive(Debug, Clone)]
pub struct MutableGraph {
    n: usize,
    /// Live edges in snapshot edge-id order: inserts append, removals
    /// swap-remove (deterministic, O(1) position fix-up via `index`).
    edges: Vec<[NodeId; 2]>,
    /// Normalized endpoints → position in `edges`.
    index: DetHashMap<(u32, u32), usize>,
    /// Per-node live neighbor overlay (unordered within a node).
    adj: Vec<Vec<NodeId>>,
    /// `degree_hist[d]` = number of nodes with degree `d`; tracks Δ in
    /// O(1) amortized without an O(n) rescan per update.
    degree_hist: Vec<usize>,
    max_degree: usize,
    /// Cached CSR view; invalidated by every successful mutation.
    snapshot: Option<Graph>,
    version: u64,
}

impl MutableGraph {
    /// A mutable graph on `n` isolated nodes.
    pub fn new(n: usize) -> MutableGraph {
        MutableGraph {
            n,
            edges: Vec::new(),
            index: DetHashMap::default(),
            adj: vec![Vec::new(); n],
            degree_hist: vec![n],
            max_degree: 0,
            snapshot: None,
            version: 0,
        }
    }

    /// Builds the overlay from an existing CSR graph. The first
    /// [`MutableGraph::snapshot`] after no mutations reproduces `g`'s CSR
    /// digest exactly (same edge-id order, same port order).
    pub fn from_graph(g: &Graph) -> MutableGraph {
        let mut m = MutableGraph::new(g.num_nodes());
        for &[u, v] in g.edge_list() {
            m.insert_edge(u, v).expect("a valid Graph has valid edges");
        }
        m.snapshot = Some(g.clone());
        m.version = 0; // the seeding replay is not part of the history
        m
    }

    /// Number of nodes `n` (fixed for the life of the graph).
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of live edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Degree of `v` in the live overlay.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Maximum degree Δ of the live overlay (0 for an edgeless graph).
    /// O(1): maintained through the degree histogram.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Whether the edge `{u, v}` is live. O(1).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = ordered(u, v);
        self.index.contains_key(&(a.0, b.0))
    }

    /// The live neighbors of `v` (overlay order: insertion order with
    /// swap-remove holes — deterministic for a given mutation sequence,
    /// but not sorted).
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v.index()]
    }

    /// The live edges in snapshot edge-id order.
    pub fn edge_list(&self) -> &[[NodeId; 2]] {
        &self.edges
    }

    /// Counts each successful mutation; two overlays with equal histories
    /// have equal versions.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Inserts the edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// [`MutateError::Invalid`] via the shared builder validation
    /// (self-loop, out-of-range) or when the edge is already live
    /// ([`BuildGraphError::DuplicateEdge`]).
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), MutateError> {
        let [a, b] = validate_edge(self.n, u, v)?;
        if self.index.contains_key(&(a.0, b.0)) {
            return Err(BuildGraphError::DuplicateEdge { u: a, v: b }.into());
        }
        self.index.insert((a.0, b.0), self.edges.len());
        self.edges.push([a, b]);
        for (x, y) in [(a, b), (b, a)] {
            let d = self.adj[x.index()].len();
            self.adj[x.index()].push(y);
            self.bump_degree(d, d + 1);
        }
        self.touch();
        Ok(())
    }

    /// Removes the edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// [`MutateError::Invalid`] if the endpoints fail the shared
    /// validation, [`MutateError::MissingEdge`] if the edge is not live.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), MutateError> {
        let [a, b] = validate_edge(self.n, u, v)?;
        let Some(pos) = self.index.remove(&(a.0, b.0)) else {
            return Err(MutateError::MissingEdge { u: a, v: b });
        };
        self.edges.swap_remove(pos);
        if let Some(&[su, sv]) = self.edges.get(pos) {
            self.index.insert((su.0, sv.0), pos);
        }
        for (x, y) in [(a, b), (b, a)] {
            let list = &mut self.adj[x.index()];
            let at = list
                .iter()
                .position(|&w| w == y)
                .expect("index and adjacency agree");
            list.swap_remove(at);
            let d = list.len();
            self.bump_degree(d + 1, d);
        }
        self.touch();
        Ok(())
    }

    /// Applies one [`EdgeUpdate`].
    ///
    /// # Errors
    ///
    /// Same as [`MutableGraph::insert_edge`] / [`MutableGraph::remove_edge`].
    pub fn apply(&mut self, update: EdgeUpdate) -> Result<(), MutateError> {
        match update {
            EdgeUpdate::Insert { u, v } => self.insert_edge(u, v),
            EdgeUpdate::Remove { u, v } => self.remove_edge(u, v),
        }
    }

    /// The CSR view of the live overlay, rebuilt through [`GraphBuilder`]
    /// on the first call after a mutation and cached until the next one.
    /// Edge ids follow [`MutableGraph::edge_list`] order.
    pub fn snapshot(&mut self) -> &Graph {
        if self.snapshot.is_none() {
            self.snapshot = Some(self.build_csr());
        }
        self.snapshot.as_ref().expect("just built")
    }

    /// A freshly built CSR view, ignoring (and not touching) the cache.
    pub fn to_graph(&self) -> Graph {
        self.build_csr()
    }

    /// Consumes the overlay, returning the final CSR view (the cached
    /// snapshot when it is current).
    pub fn into_graph(mut self) -> Graph {
        match self.snapshot.take() {
            Some(g) => g,
            None => self.build_csr(),
        }
    }

    fn build_csr(&self) -> Graph {
        let mut b = GraphBuilder::with_capacity(self.n, self.edges.len());
        for &[u, v] in &self.edges {
            b.add_edge(u, v);
        }
        b.build()
            .expect("live edges are validated and duplicate-free")
    }

    fn bump_degree(&mut self, from: usize, to: usize) {
        if self.degree_hist.len() <= from.max(to) {
            self.degree_hist.resize(from.max(to) + 1, 0);
        }
        self.degree_hist[from] -= 1;
        self.degree_hist[to] += 1;
        if to > self.max_degree {
            self.max_degree = to;
        } else {
            while self.max_degree > 0 && self.degree_hist[self.max_degree] == 0 {
                self.max_degree -= 1;
            }
        }
    }

    fn touch(&mut self) {
        self.snapshot = None;
        self.version += 1;
    }
}

impl From<Graph> for MutableGraph {
    fn from(g: Graph) -> MutableGraph {
        MutableGraph::from_graph(&g)
    }
}

impl fmt::Display for MutableGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MutableGraph(n={}, m={}, Δ={}, v{})",
            self.n,
            self.num_edges(),
            self.max_degree(),
            self.version
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    type Digest = (Vec<[u32; 2]>, Vec<Vec<(u32, u32)>>);

    fn digest(g: &Graph) -> Digest {
        let edges = g.edge_list().iter().map(|[u, v]| [u.0, v.0]).collect();
        let adjacency = g
            .nodes()
            .map(|v| {
                g.adjacent(v)
                    .iter()
                    .map(|a| (a.neighbor.0, a.edge.0))
                    .collect()
            })
            .collect();
        (edges, adjacency)
    }

    #[test]
    fn from_graph_round_trips_without_mutations() {
        let g = generators::random_regular(24, 4, 3);
        let mut m = MutableGraph::from_graph(&g);
        assert_eq!(m.num_edges(), g.num_edges());
        assert_eq!(m.max_degree(), g.max_degree());
        assert_eq!(digest(m.snapshot()), digest(&g));
        assert_eq!(
            digest(&MutableGraph::from_graph(&g).into_graph()),
            digest(&g)
        );
    }

    #[test]
    fn insert_then_remove_restores_the_csr_digest() {
        let g = generators::gnp(20, 0.2, 5);
        let before = digest(&g);
        let mut m = MutableGraph::from_graph(&g);
        // Find a non-edge deterministically.
        let (u, v) = (0..20u32)
            .flat_map(|u| (u + 1..20u32).map(move |v| (u, v)))
            .find(|&(u, v)| !m.has_edge(NodeId(u), NodeId(v)))
            .expect("gnp(0.2) is not complete");
        m.insert_edge(NodeId(u), NodeId(v)).unwrap();
        assert_ne!(digest(m.snapshot()), before);
        m.remove_edge(NodeId(v), NodeId(u)).unwrap(); // reversed endpoints fine
        assert_eq!(digest(m.snapshot()), before);
        assert_eq!(m.version(), 2);
    }

    #[test]
    fn shared_validation_rejects_loops_range_and_duplicates() {
        let mut m = MutableGraph::new(3);
        assert_eq!(
            m.insert_edge(NodeId(1), NodeId(1)),
            Err(MutateError::Invalid(BuildGraphError::SelfLoop {
                node: NodeId(1)
            }))
        );
        assert!(matches!(
            m.insert_edge(NodeId(0), NodeId(9)),
            Err(MutateError::Invalid(BuildGraphError::NodeOutOfRange { .. }))
        ));
        m.insert_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(
            m.insert_edge(NodeId(1), NodeId(0)),
            Err(MutateError::Invalid(BuildGraphError::DuplicateEdge {
                u: NodeId(0),
                v: NodeId(1)
            }))
        );
        assert_eq!(
            m.remove_edge(NodeId(0), NodeId(2)),
            Err(MutateError::MissingEdge {
                u: NodeId(0),
                v: NodeId(2)
            })
        );
        // Errors leave the graph unchanged.
        assert_eq!(m.num_edges(), 1);
        assert_eq!(m.version(), 1);
    }

    #[test]
    fn degree_and_max_degree_track_mutations() {
        let mut m = MutableGraph::new(5);
        m.insert_edge(NodeId(0), NodeId(1)).unwrap();
        m.insert_edge(NodeId(0), NodeId(2)).unwrap();
        m.insert_edge(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(m.degree(NodeId(0)), 3);
        assert_eq!(m.max_degree(), 3);
        m.remove_edge(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(m.max_degree(), 2);
        m.remove_edge(NodeId(0), NodeId(1)).unwrap();
        m.remove_edge(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(m.max_degree(), 0);
        assert_eq!(m.num_edges(), 0);
    }

    #[test]
    fn apply_and_inverse_compose_to_identity() {
        let g = generators::cycle(8);
        let before = digest(&g);
        let mut m = MutableGraph::from_graph(&g);
        let up = EdgeUpdate::insert(0usize, 4usize);
        m.apply(up).unwrap();
        m.apply(up.inverse()).unwrap();
        assert_eq!(digest(&m.to_graph()), before);
        assert_eq!(up.inverse().inverse(), up);
        assert!(up.is_insert() && !up.inverse().is_insert());
        assert_eq!(up.endpoints(), (NodeId(0), NodeId(4)));
    }

    #[test]
    fn snapshot_is_cached_until_the_next_mutation() {
        let mut m = MutableGraph::from_graph(&generators::path(4));
        let a = m.snapshot() as *const Graph;
        let b = m.snapshot() as *const Graph;
        assert_eq!(a, b, "no mutation, no rebuild");
        m.insert_edge(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(m.snapshot().num_edges(), 4);
    }

    #[test]
    fn update_display_and_errors_format() {
        assert_eq!(EdgeUpdate::insert(3usize, 1usize).to_string(), "+{v1, v3}");
        assert_eq!(EdgeUpdate::remove(1usize, 3usize).to_string(), "-{v1, v3}");
        let e = MutateError::MissingEdge {
            u: NodeId(1),
            v: NodeId(3),
        };
        assert!(e.to_string().contains("not in the graph"));
        let w: MutateError = BuildGraphError::SelfLoop { node: NodeId(2) }.into();
        assert!(w.to_string().contains("self-loop"));
    }

    #[test]
    fn heavy_churn_stays_coherent_with_a_rebuilt_reference() {
        // Replay a long deterministic trace and cross-check the overlay's
        // queries against a from-scratch CSR rebuild at checkpoints.
        let mut m = MutableGraph::new(12);
        let mut reference: Vec<(u32, u32)> = Vec::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 33) % 12;
            let v = (state >> 13) % 12;
            if u == v {
                continue;
            }
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            let (a, b) = (a as u32, b as u32);
            if reference.contains(&(a, b)) {
                m.remove_edge(NodeId(a), NodeId(b)).unwrap();
                reference.retain(|&e| e != (a, b));
            } else {
                m.insert_edge(NodeId(a), NodeId(b)).unwrap();
                reference.push((a, b));
            }
            if step % 50 == 0 {
                let snap = m.to_graph();
                assert_eq!(snap.num_edges(), reference.len());
                assert_eq!(snap.max_degree(), m.max_degree());
                for &(a, b) in &reference {
                    assert!(snap.edge_between(NodeId(a), NodeId(b)).is_some());
                }
            }
        }
        assert_eq!(m.num_edges(), reference.len());
    }
}
