//! # deco-algos — classical distributed coloring building blocks
//!
//! The subroutines and baselines the PODC 2020 edge-coloring construction
//! stands on, each implemented as a real message-passing protocol on the
//! [`deco_local`] runtime:
//!
//! * [`linial`] — Linial's `O(Δ²)`-coloring in `O(log* n)` rounds \[Lin87\],
//!   via polynomial cover-free set families; on a line graph each step is
//!   decided at the endpoints, which supplies the paper's initial
//!   `X`-edge-coloring through [`edge_adapter::linial_edge_coloring`].
//! * [`deg2`] — deterministic 3-coloring of disjoint paths/cycles in
//!   `O(log* X)` rounds (used inside the §4.1 defective edge coloring).
//! * [`class_elimination`] — list coloring by sweeping the classes of an
//!   initial coloring: the `O(Δ̄² + log* n)` baseline and the paper's
//!   `T(O(1), S, C) = O(log* X)` base case.
//! * [`cv`] — Cole–Vishkin 3-coloring of rooted forests in `O(log* n)`
//!   rounds (the classic bit trick, with shift-down elimination).
//! * [`greedy`] — the centralized sequential oracle.
//! * [`luby`] — the randomized `O(log n)`-round baseline [ABI86, Lub86].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod class_elimination;
pub mod cv;
pub mod deg2;
pub mod edge_adapter;
pub mod greedy;
pub mod linial;
pub mod luby;

/// Narrows a `u64` color array (palettes are always `n^{O(1)}`-bounded but
/// intermediate Linial colors travel as `u64`) into the workspace-standard
/// `u32` colors.
///
/// # Panics
///
/// Panics if a color exceeds `u32::MAX`.
pub fn palette_u64_to_u32(colors: &[u64]) -> Vec<u32> {
    colors
        .iter()
        .map(|&c| u32::try_from(c).expect("final palettes fit in u32"))
        .collect()
}
