//! # deco-bench — experiment harness and benchmarks
//!
//! Regenerates every figure and quantitative claim of the paper. Run
//! `cargo run -p deco-bench --release --bin experiments -- all` to print
//! every report, or pass an experiment id (`fig5`, `thm41-budget`, …) for
//! a single one; with no argument the binary lists the ids, and the
//! README's experiments table says what each report shows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;
pub mod workloads;
