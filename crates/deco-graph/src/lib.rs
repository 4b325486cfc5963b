//! # deco-graph — graph substrate for distributed edge coloring
//!
//! Undirected simple graphs in CSR form, plus everything the LOCAL-model
//! edge-coloring stack needs around them: line graphs, edge-induced
//! subgraphs with provenance, deterministic seeded generators, traversal
//! utilities, coloring validators, and lightweight I/O.
//!
//! Built from scratch rather than on an external graph crate: the coloring
//! algorithms need line graphs, masked edge-degree queries, and subgraph
//! back-mappings as first-class, cheap operations.
//!
//! ## Quick tour
//!
//! ```
//! use deco_graph::{generators, coloring::EdgeColoring, coloring};
//!
//! let g = generators::cycle(6);
//! assert_eq!(g.max_degree(), 2);
//! assert_eq!(g.max_edge_degree(), 2); // deg(e) = deg(u) + deg(v) − 2
//!
//! // A proper 2-edge-coloring of an even cycle.
//! let c = EdgeColoring::from_complete(vec![0, 1, 0, 1, 0, 1]);
//! assert!(coloring::check_edge_coloring(&g, &c).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod dot;
pub mod generators;
mod graph;
pub mod hashing;
mod ids;
pub mod io;
mod line_graph;
mod mutable;
mod subgraph;
pub mod traversal;

pub use graph::{Adjacent, BuildGraphError, Graph, GraphBuilder};
pub use ids::{EdgeId, NodeId};
pub use line_graph::LineGraph;
pub use mutable::{EdgeUpdate, MutableGraph, MutateError};
pub use subgraph::{edge_degree_within, max_edge_degree_within, EdgeSubgraph};
