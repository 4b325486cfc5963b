//! Experiment implementations — one module per artifact of the paper
//! (figure or quantitative claim). Each exposes
//! `run(rt: &Runtime) -> String`, returning the report the `experiments`
//! binary prints (`experiments <id>`; the README's experiments table lists
//! the ids).
//!
//! The [`Runtime`] is the *ambient* engine — the one the harness was
//! launched with (`Runtime::from_env()` in the binary) — and single-engine
//! experiments run on it, attributing their tables to
//! [`Runtime::descriptor`]. Experiments whose *subject* is an executor
//! comparison (`trace-profile`, `graph-scale`'s engine table) construct
//! their own fixed lineups on top, so their results stay comparable across
//! CI legs.

pub mod churn;
pub mod defcol;
pub mod fig_partition;
pub mod fig_slack_walkthrough;
pub mod fig_virtual;
pub mod graph_scale;
pub mod lem42;
pub mod lem43;
pub mod lem44;
pub mod lem45;
pub mod linial_exp;
pub mod related_work;
pub mod serve_load;
pub mod thm41_budget;
pub mod thm41_measured;
pub mod trace_profile;

use deco_runtime::Runtime;

/// An experiment runner: produces the report text on the ambient runtime.
pub type Runner = fn(&Runtime) -> String;

/// All experiment ids in canonical order, with their runners.
pub fn all() -> Vec<(&'static str, Runner)> {
    vec![
        ("fig1-4", fig_slack_walkthrough::run as Runner),
        ("fig5", fig_partition::run),
        ("fig6", fig_virtual::run),
        ("thm41-budget", thm41_budget::run),
        ("thm41-measured", thm41_measured::run),
        ("lem42", lem42::run),
        ("lem43", lem43::run),
        ("lem44", lem44::run),
        ("lem45", lem45::run),
        ("def-col", defcol::run),
        ("linial", linial_exp::run),
        ("related-work", related_work::run),
        ("graph-scale", graph_scale::run),
        ("churn", churn::run),
        ("serve-load", serve_load::run),
        ("trace-profile", trace_profile::run),
    ]
}

/// Looks up an experiment by id.
pub fn by_id(id: &str) -> Option<Runner> {
    all()
        .into_iter()
        .find(|(name, _)| *name == id)
        .map(|(_, f)| f)
}
