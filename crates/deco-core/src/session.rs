//! Session-style solving: open once, apply edge updates, read live reports.
//!
//! A [`Session`] is the dynamic-graph entry point. [`Session::open`] runs
//! the full Theorem 4.1 pipeline once to establish a base coloring, then
//! every [`Session::apply`] routes through the incremental repair path
//! ([`crate::repair`]) instead of re-running the pipeline: an insert costs
//! one greedy probe of the edge's ball, a removal at most a palette-shrink
//! sweep. At the `2Δ − 1` bound the greedy step always finds a free color
//! (the repair module's docs carry the proof sketch), so an update never
//! re-solves and can fail only on an invalid mutation.
//!
//! The one-shot [`solve_two_delta_minus_one`](crate::solver::solve_two_delta_minus_one)
//! is a thin wrapper over open + report, so static and dynamic callers
//! exercise the same pipeline.
//!
//! ```
//! use deco_core::session::Session;
//! use deco_core::solver::SolverConfig;
//! use deco_graph::{generators, EdgeUpdate};
//! use deco_runtime::Runtime;
//!
//! let g = generators::random_regular(20, 4, 3);
//! let ids: Vec<u64> = (1..=20).collect();
//! let mut session = Session::open(&g, &ids, SolverConfig::default(), &Runtime::serial())
//!     .expect("solver succeeds");
//! let up = session.apply(EdgeUpdate::insert(0usize, 2usize)).expect("repair succeeds");
//! assert_eq!(up.recolored, 1); // one greedy recolor, no pipeline re-run
//! let report = session.report();
//! assert_eq!(report.colors.uncolored_count(), 0);
//! ```

use crate::repair::{self, LiveColoring};
use crate::solver::{solve_pipeline, RunReport, SolveError, SolverConfig};
use deco_graph::{EdgeUpdate, Graph, MutableGraph, MutateError};
use deco_local::CostNode;
use deco_runtime::Runtime;
use std::time::{Duration, Instant};

/// What one [`Session::apply`] did.
///
/// Everything except [`UpdateReport::wall_time`] is deterministic and
/// engine-independent — replaying the same trace on any engine yields the
/// same sequence of [`UpdateReport::observables`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateReport {
    /// The update that was applied.
    pub update: EdgeUpdate,
    /// Edges whose color changed (1 for a plain insert, 0 for a removal
    /// that did not shrink the palette bound).
    pub recolored: u64,
    /// The live coloring's palette high-water mark after the update
    /// (smallest `C` with every color `< C`).
    pub palette_max: u32,
    /// The `2Δ − 1` palette bound of the post-update graph. Always
    /// `≥ palette_max`.
    pub palette_bound: u32,
    /// Always `false`: the greedy single-edge step cannot fail at the
    /// `2Δ − 1` bound. Kept because the wire's `UpdateReportLine` carries it.
    pub escalated: bool,
    /// Color-probe messages the repair delivered (engine-independent).
    pub messages: u64,
    /// Wall-clock duration of the update. The only nondeterministic field.
    pub wall_time: Duration,
}

impl UpdateReport {
    /// The deterministic fields, for replay-equality assertions: everything
    /// but `wall_time`.
    pub fn observables(&self) -> (EdgeUpdate, u64, u32, u32, bool, u64) {
        (
            self.update,
            self.recolored,
            self.palette_max,
            self.palette_bound,
            self.escalated,
            self.messages,
        )
    }
}

/// A live `(2Δ − 1)`-edge-coloring session over a mutable graph. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct Session {
    graph: MutableGraph,
    live: LiveColoring,
    base: RunReport,
    updates: u64,
    repair_rounds: u64,
    repair_messages: u64,
    recolored_total: u64,
    repair_wall: Duration,
}

impl Session {
    /// Opens a session: solves the static instance once on `rt` and adopts
    /// the coloring as live state. `node_ids` are the distinct node
    /// identifiers the pipeline's Linial stage uses; the node set is fixed
    /// for the session's lifetime (churn is on edges).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] when the base solve fails structurally.
    pub fn open(
        g: &Graph,
        node_ids: &[u64],
        config: SolverConfig,
        rt: &Runtime,
    ) -> Result<Session, SolveError> {
        let inst = crate::instance::two_delta_minus_one(g);
        let base = solve_pipeline(g, inst, node_ids, config, rt)?;
        let live = LiveColoring::from_graph(g, &base.colors);
        Ok(Session {
            graph: MutableGraph::from_graph(g),
            live,
            base,
            updates: 0,
            repair_rounds: 0,
            repair_messages: 0,
            recolored_total: 0,
            repair_wall: Duration::ZERO,
        })
    }

    /// Applies one edge update and repairs the live coloring incrementally.
    ///
    /// # Errors
    ///
    /// [`MutateError`] when the update is invalid; the session is then
    /// unchanged.
    pub fn apply(&mut self, update: EdgeUpdate) -> Result<UpdateReport, MutateError> {
        let start = Instant::now();
        let rep = match update {
            EdgeUpdate::Insert { u, v } => {
                self.graph.insert_edge(u, v)?;
                repair::repair_insert(&self.graph, &mut self.live, u, v)
            }
            EdgeUpdate::Remove { u, v } => {
                self.graph.remove_edge(u, v)?;
                self.live.clear(u, v);
                repair::repair_shrink(&self.graph, &mut self.live)
            }
        };
        self.updates += 1;
        self.recolored_total += rep.recolored;
        self.repair_messages += rep.messages;
        // Round accounting: each greedy recoloring is one sequential LOCAL
        // step in the worst case — deterministic, merged into the session
        // cost tree by `report`.
        self.repair_rounds += rep.recolored;
        let wall_time = start.elapsed();
        self.repair_wall += wall_time;
        Ok(UpdateReport {
            update,
            recolored: rep.recolored,
            palette_max: self.live.palette_max(),
            palette_bound: repair::palette_bound(self.graph.max_degree()),
            escalated: false,
            messages: rep.messages,
            wall_time,
        })
    }

    /// A [`RunReport`] describing the session so far: the base solve plus
    /// every incremental repair, with the live coloring projected onto the
    /// current snapshot's edge ids. With zero updates this is exactly the
    /// base solve's report — which is what makes the one-shot solve a thin
    /// wrapper over open + report.
    pub fn report(&mut self) -> RunReport {
        let colors = self.live.to_coloring(self.graph.snapshot());
        let mut report = self.base.clone();
        report.colors = colors;
        if self.updates > 0 {
            report.rounds = self.base.rounds + self.repair_rounds;
            report.messages = self.base.messages + self.repair_messages;
            report.wall_time = self.base.wall_time + self.repair_wall;
            report.cost = CostNode::seq(
                format!("session({} updates)", self.updates),
                vec![
                    self.base.cost.clone(),
                    CostNode::leaf("incremental repairs", self.repair_rounds),
                ],
            );
        }
        report
    }

    /// The current CSR snapshot (rebuilt on demand, cached between updates).
    pub fn graph(&mut self) -> &Graph {
        self.graph.snapshot()
    }

    /// Number of updates applied so far.
    pub fn num_updates(&self) -> u64 {
        self.updates
    }

    /// Total edges recolored across all updates.
    pub fn recolored_total(&self) -> u64 {
        self.recolored_total
    }

    /// The live palette high-water mark.
    pub fn palette_max(&self) -> u32 {
        self.live.palette_max()
    }

    /// The `2Δ − 1` bound of the current graph.
    pub fn palette_bound(&self) -> u32 {
        repair::palette_bound(self.graph.max_degree())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve_two_delta_minus_one;
    use deco_graph::coloring::check_edge_coloring;
    use deco_graph::generators;
    use deco_graph::NodeId;

    fn ids_for(g: &Graph) -> Vec<u64> {
        (1..=g.num_nodes() as u64).collect()
    }

    #[test]
    fn zero_update_report_matches_the_one_shot_solve() {
        let g = generators::random_regular(24, 6, 13);
        let rt = Runtime::serial();
        let one_shot =
            solve_two_delta_minus_one(&g, &ids_for(&g), SolverConfig::default(), &rt).unwrap();
        let mut s = Session::open(&g, &ids_for(&g), SolverConfig::default(), &rt).unwrap();
        let report = s.report();
        assert_eq!(report.colors, one_shot.colors);
        assert_eq!(report.rounds, one_shot.rounds);
        assert_eq!(report.messages, one_shot.messages);
        assert_eq!(report.cost, one_shot.cost);
        assert_eq!(report.solve_stats, one_shot.solve_stats);
    }

    #[test]
    fn applies_inserts_and_removes_keeping_the_coloring_proper() {
        let g = generators::gnp(20, 0.2, 5);
        let rt = Runtime::serial();
        let mut s = Session::open(&g, &ids_for(&g), SolverConfig::default(), &rt).unwrap();
        let missing = (0..20u32)
            .flat_map(|u| (u + 1..20u32).map(move |v| (u, v)))
            .find(|&(u, v)| {
                s.graph
                    .to_graph()
                    .edge_between(NodeId(u), NodeId(v))
                    .is_none()
            })
            .unwrap();
        let up = s
            .apply(EdgeUpdate::insert(missing.0, missing.1))
            .expect("insert repairs");
        assert_eq!(up.recolored, 1);
        assert!(!up.escalated);
        assert!(up.palette_max <= up.palette_bound);
        let existing = *s.graph.edge_list().first().unwrap();
        let down = s
            .apply(EdgeUpdate::remove(existing[0], existing[1]))
            .expect("remove repairs");
        assert!(down.palette_max <= down.palette_bound);
        let report = s.report();
        let snap = s.graph().clone();
        check_edge_coloring(&snap, &report.colors).expect("proper after churn");
        assert_eq!(s.num_updates(), 2);
    }

    #[test]
    fn session_report_keeps_the_rounds_cost_invariant() {
        let g = generators::random_regular(20, 4, 7);
        let rt = Runtime::serial();
        let mut s = Session::open(&g, &ids_for(&g), SolverConfig::default(), &rt).unwrap();
        s.apply(EdgeUpdate::insert(0u32, 2u32)).ok();
        s.apply(EdgeUpdate::insert(0u32, 5u32)).ok();
        let report = s.report();
        assert_eq!(report.rounds, report.x_rounds + report.cost.actual_rounds());
        assert!(report.cost.render().contains("incremental repairs"));
    }

    #[test]
    fn invalid_updates_leave_the_session_unchanged() {
        let g = generators::cycle(6);
        let rt = Runtime::serial();
        let mut s = Session::open(&g, &ids_for(&g), SolverConfig::default(), &rt).unwrap();
        let before = s.report();
        assert!(matches!(
            s.apply(EdgeUpdate::insert(3u32, 3u32)),
            Err(MutateError::Invalid(_))
        ));
        assert!(matches!(
            s.apply(EdgeUpdate::remove(0u32, 3u32)),
            Err(MutateError::MissingEdge { .. })
        ));
        assert_eq!(s.num_updates(), 0);
        assert_eq!(s.report().colors, before.colors);
    }

    #[test]
    fn update_observables_are_deterministic_across_replays() {
        let g = generators::random_regular(18, 4, 21);
        let trace = [
            EdgeUpdate::insert(0u32, 9u32),
            EdgeUpdate::remove(0u32, 9u32),
            EdgeUpdate::insert(1u32, 11u32),
            EdgeUpdate::insert(2u32, 12u32),
            EdgeUpdate::remove(1u32, 11u32),
        ];
        let rt = Runtime::serial();
        let run = |rt: &Runtime| {
            let mut s = Session::open(&g, &ids_for(&g), SolverConfig::default(), rt).unwrap();
            trace
                .iter()
                .map(|&u| s.apply(u).map(|r| r.observables()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&rt), run(&rt));
    }
}
