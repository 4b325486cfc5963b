//! # deco-local — the LOCAL model of distributed computing, executable
//!
//! This crate implements the model from §2.2 of Balliu–Kuhn–Olivetti
//! (PODC 2020): a synchronous message-passing network where nodes know `n`,
//! `Δ`, and a unique ID from `{1, …, n^{O(1)}}`, exchange arbitrarily large
//! messages with neighbors each round, and must eventually output their part
//! of the solution.
//!
//! Three layers:
//!
//! * [`network`] / [`runner`] — a faithful port-numbered synchronous
//!   executor for per-node state machines ([`runner::NodeProgram`]) on a
//!   CSR graph with IDs. [`run`] is the reference every faster engine is
//!   held to.
//! * [`cost`] — round accounting for *phase-structured* algorithms: cost
//!   trees with sequential (sum) and parallel (max) composition, carrying
//!   both the actually-used rounds and the fixed-schedule budget.
//! * [`locality`] — an operational verifier that a claimed `T`-round
//!   algorithm's outputs really only depend on radius-`T` balls.
//!
//! Plus [`math`]: `log*`, harmonic numbers, and prime utilities used by the
//! round-complexity formulas throughout the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod locality;
pub mod math;
pub mod network;
pub mod runner;

pub use cost::{Compose, CostNode};
pub use network::{IdAssignment, Network, NodeCtx};
pub use runner::{run, NodeProgram, Protocol, RunError, RunOutcome};
