//! # deco-engine — high-throughput round execution for LOCAL protocols
//!
//! The serial runner in `deco-local` defines the model; this crate makes it
//! fast without changing a single observable bit:
//!
//! * [`engine`] — [`ParallelExecutor`], which runs the send and receive
//!   phases across threads over degree-balanced node ranges (one outbox
//!   slot per node, since every node broadcasts or stays silent). A network
//!   below [`par::MIN_PARALLEL_SLOTS`] ports runs on the serial runner
//!   itself whatever thread count was requested, so the Theorem 4.1
//!   recursion's many small executions spawn nothing. Parallelism is
//!   observationally invisible: outputs, round counts, message counts, and
//!   errors are identical to the serial runner for every protocol, network,
//!   and thread count (enforced by the differential suite in `tests/`).
//! * [`scenario`] — the scenario matrix: graph families × sizes ×
//!   ID-assignment flavors enumerated from one base seed, with per-scenario
//!   named RNG streams (ixa-style), so sweeps and benchmarks share one
//!   declared source of workloads.
//! * [`protocols`] — stock substrate-stressing protocols used by the
//!   differential suite and the benches.
//! * [`config`] — the names and pure parsers of the `DECO_ENGINE_THREADS`
//!   / `DECO_TRACE` environment variables CI pins its executor matrix with
//!   (read by `deco_runtime::RuntimeBuilder::from_env`); malformed values
//!   are [`config::EngineEnvError`] values, never silent fallbacks.
//!
//! Threading is built on `std::thread::scope` (the build environment has no
//! crates.io access, so `rayon` is unavailable). The barrier engine's
//! phases spawn through one helper, `par::fan_out`, which is the swap-in
//! point if that changes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod par;
pub mod protocols;
pub mod scenario;

pub use config::EngineEnvError;
pub use engine::ParallelExecutor;
pub use scenario::{GraphSpec, IdFlavor, Scenario, ScenarioMatrix};
