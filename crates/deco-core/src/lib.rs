//! # deco-core — distributed (deg(e)+1)-list edge coloring in
//! quasi-polylogarithmic-in-Δ rounds
//!
//! Executable reproduction of *Distributed Edge Coloring in Time
//! Quasi-Polylogarithmic in Delta* (Balliu, Kuhn, Olivetti; PODC 2020):
//! a deterministic LOCAL algorithm solving (deg(e)+1)-list edge coloring —
//! and therefore (2Δ−1)-edge coloring — in `log^{O(log log Δ)} Δ + O(log* n)`
//! rounds.
//!
//! Module map (paper section → module):
//!
//! | Paper | Module |
//! |---|---|
//! | §4.1 defective edge coloring | [`defective`] |
//! | Lemma 4.2 (slack reduction) | [`slack`] |
//! | Lemma 4.4 (harmonic partition bound) | [`lists`] |
//! | Lemma 4.3 (color space reduction) | [`space`] |
//! | Theorem 4.1 (the solver) | [`solver`] |
//! | Round-complexity recurrences | [`budget`] |
//!
//! ## Quickstart
//!
//! ```
//! use deco_core::solver::{solve_two_delta_minus_one, SolverConfig};
//! use deco_graph::generators;
//! use deco_runtime::Runtime;
//!
//! let g = generators::random_regular(40, 6, 7);
//! let ids: Vec<u64> = (1..=40).collect();
//! let rt = Runtime::serial(); // or Runtime::from_env() / Runtime::builder()
//! let report = solve_two_delta_minus_one(&g, &ids, SolverConfig::default(), &rt)
//!     .expect("solver succeeds");
//! assert!(report.colors.distinct_colors() <= 2 * 6 - 1);
//! assert_eq!(report.engine_descriptor, "serial");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod defective;
pub mod instance;
pub mod jsonl;
pub mod lists;
pub mod repair;
pub mod session;
pub mod slack;
pub mod solver;
pub mod space;

pub use instance::ListInstance;
pub use jsonl::{RunReportLine, UpdateReportLine};
pub use lists::{ColorList, SubspacePartition};
pub use session::{Session, UpdateReport};
pub use solver::{RunReport, SolveBranch, SolveError, SolveStats, Solver, SolverConfig, Strategy};
