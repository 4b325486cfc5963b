//! # deco — distributed edge coloring, quasi-polylogarithmic in Δ
//!
//! Facade over the workspace crates reproducing Balliu–Kuhn–Olivetti
//! (PODC 2020):
//!
//! * [`graph`] — CSR graphs, line graphs, seeded generators, colorings,
//!   and [`MutableGraph`] for edge churn with CSR snapshots on demand.
//! * [`local`] — the LOCAL model: networks and the serial reference
//!   runner [`local::run`], whose outputs, rounds, messages and errors
//!   every engine must reproduce.
//! * [`engine`] — the multi-threaded round-execution engine (one
//!   broadcast slot per node, deterministic threading, scenario matrix).
//! * [`runtime`] — the unified [`Runtime`] facade: one handle over both
//!   engines ([`Runtime::execute`] matches on [`Engine`]: serial or
//!   barrier), built explicitly via [`RuntimeBuilder`] or from the
//!   `DECO_ENGINE_THREADS` environment variable via [`Runtime::from_env`].
//! * [`algos`] — Linial, Cole–Vishkin, class elimination, Luby, greedy;
//!   every protocol entry point takes `&Runtime`.
//! * [`core_alg`] — the Theorem 4.1 solver; pipeline entry points return
//!   a structured [`core_alg::RunReport`], and [`Session`] keeps a live
//!   coloring under [`EdgeUpdate`] churn via incremental repair.
//! * [`serve`] — coloring as a service: the `deco-serve` daemon speaks a
//!   newline-delimited line-JSON protocol over TCP, Unix sockets, or
//!   in-process pipes ([`serve::Request`] covers one-shot solves, churn
//!   sessions, status, and drain-on-shutdown), with [`serve::Client`] as
//!   the typed companion.
//! * [`trace`] — zero-cost-when-off tracing and metrics shared by every
//!   engine: set `DECO_TRACE=jsonl` (or `ring`) and `RunReport.metrics`
//!   carries a per-phase [`trace::MetricsReport`]; unset, the
//!   instrumentation is a single relaxed atomic load.
//!
//! ## Quickstart
//!
//! A [`Session`] holds a live coloring over a mutable graph: open it once
//! (the full pipeline runs, on whichever engine the runtime carries), then
//! apply edge updates — each repaired incrementally in O(deg(e)) instead of
//! a pipeline re-run. The one-shot solve is the zero-update special case.
//!
//! ```
//! use deco::core_alg::solver::SolverConfig;
//! use deco::graph::generators;
//! use deco::{EdgeUpdate, Runtime, Session};
//!
//! // Honors DECO_ENGINE_THREADS / DECO_TRACE; a clean environment means
//! // the serial reference engine.
//! // Malformed variables are structured errors, never silent fallbacks.
//! let rt = Runtime::from_env().expect("engine environment parses");
//!
//! let g = generators::random_regular(40, 6, 7);
//! let ids: Vec<u64> = (1..=40).collect();
//! let mut session = Session::open(&g, &ids, SolverConfig::default(), &rt)
//!     .expect("solver succeeds");
//!
//! // One edge arrives. The repair is greedy and local: exactly one edge
//! // recolored, the 2Δ−1 palette bound intact — no pipeline re-run.
//! let update = session
//!     .apply(EdgeUpdate::insert(0usize, 2usize))
//!     .expect("repair succeeds");
//! assert_eq!(update.recolored, 1);
//! assert!(update.palette_max <= update.palette_bound);
//! println!(
//!     "update {}: {} recolored, {} messages, palette {}/{}, {:?}",
//!     update.update, update.recolored, update.messages,
//!     update.palette_max, update.palette_bound, update.wall_time,
//! );
//!
//! // The session report covers the base solve plus every repair, with the
//! // same invariants the one-shot report has.
//! let report = session.report();
//! assert!(report.colors.is_complete());
//! assert_eq!(report.rounds, report.x_rounds + report.cost.actual_rounds());
//! assert!(report.messages > 0);
//! println!(
//!     "{}: {} rounds, {} messages, {:?}",
//!     report.engine_descriptor, report.rounds, report.messages, report.wall_time,
//! );
//! ```

pub use deco_algos as algos;
pub use deco_core as core_alg;
pub use deco_engine as engine;
pub use deco_graph as graph;
pub use deco_local as local;
pub use deco_runtime as runtime;
pub use deco_serve as serve;
pub use deco_trace as trace;

pub use deco_core::{Session, UpdateReport};
pub use deco_graph::{EdgeUpdate, MutableGraph, MutateError};
pub use deco_runtime::{Engine, Runtime, RuntimeBuilder};
