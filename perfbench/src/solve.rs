//! The in-process workloads (`kron-solve`, `small-batch`): one closed-loop
//! caller solves the workload's graphs in turn through
//! `solve_two_delta_minus_one` and, every few solves, applies a burst of
//! churn updates to a live `Session`.

use crate::alloc;
use crate::check::{self, Reference};
use crate::inputs::{self, Churn, Inputs};
use crate::report::{self, ms, Slice, Sliced, Tally};
use deco::core_alg::solver::{solve_two_delta_minus_one, SolverConfig};
use deco::runtime::Runtime;
use deco::Session;
use std::time::{Duration, Instant};

/// A workload ready to measure: its inputs and its open session.
pub struct Prepared {
    pub inputs: Inputs,
    pub session: Session,
    pub churn: Churn,
}

/// Generates the inputs and opens the session `reps` times; returns the
/// last set-up and every set-up's wall time in seconds.
pub fn prepare(
    make: impl Fn() -> Inputs,
    rt: &Runtime,
    churn_seed: u64,
    reps: usize,
) -> Result<(Prepared, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let inputs = make();
        let g = &inputs.session_graph;
        let session = Session::open(g, &inputs::ids(g), SolverConfig::default(), rt)
            .map_err(|e| format!("session open failed: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        let churn = Churn::new(g, churn_seed);
        last = Some(Prepared {
            inputs,
            session,
            churn,
        });
    }
    Ok((last.expect("at least one set-up"), times))
}

/// What the measured loop saw.
pub struct LoopResult {
    /// Solve and update latencies (ms), slice by slice.
    pub solves: Vec<Slice>,
    pub updates: Vec<Slice>,
    pub solved: usize,
    pub wall: Duration,
    /// Peak RSS (MiB) at the end of the measured window.
    pub peak_rss_mib: f64,
    /// MiB allocated per solve call (all threads).
    pub alloc_per_solve: f64,
    /// The first solve of each graph, which every repeat matched.
    pub refs: Vec<Reference>,
    pub tally: Tally,
}

/// How often the loop applies updates, and how many at a time.
#[derive(Debug, Clone, Copy)]
pub struct Churning {
    pub every_solves: usize,
    pub burst: usize,
}

/// Runs the closed loop on `rt` until `seconds` have passed and every
/// graph has been solved at least once; latencies are kept in `slices`
/// slices.
pub fn run(
    prep: &mut Prepared,
    rt: &Runtime,
    churning: Churning,
    seconds: f64,
    slices: usize,
) -> LoopResult {
    let graphs = &prep.inputs.solves;
    let ids: Vec<Vec<u64>> = graphs.iter().map(inputs::ids).collect();
    let mut refs: Vec<Option<Reference>> = vec![None; graphs.len()];
    let mut solves = Sliced::new(seconds, slices);
    let mut updates = Sliced::new(seconds, slices);
    let mut solved = 0usize;
    let mut tally = Tally::default();
    let mut alloc_bytes = 0u64;
    let limit = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut i, mut passes) = (0, 0);
    while passes == 0 || start.elapsed() < limit {
        let g = &graphs[i];
        let a0 = alloc::allocated();
        let t = Instant::now();
        let res = solve_two_delta_minus_one(g, &ids[i], SolverConfig::default(), rt);
        solves.push(start.elapsed().as_secs_f64(), ms(t.elapsed()));
        solved += 1;
        alloc_bytes += alloc::allocated() - a0;
        tally.check(
            res.map_err(|e| format!("solve failed: {e}"))
                .and_then(|rep| check::solve(g, &rep, &mut refs[i])),
        );
        let burst = if solved.is_multiple_of(churning.every_solves) {
            churning.burst
        } else {
            0
        };
        for _ in 0..burst {
            let u = prep.churn.next_update();
            let t = Instant::now();
            let res = prep.session.apply(u);
            updates.push(start.elapsed().as_secs_f64(), ms(t.elapsed()));
            tally.check(
                res.map_err(|e| format!("update {u} failed: {e}"))
                    .and_then(|r| check::update(&r)),
            );
        }
        i += 1;
        if i == graphs.len() {
            i = 0;
            passes += 1;
        }
    }
    let wall = start.elapsed();
    let peak_rss_mib = report::peak_rss_mib();
    // The live coloring after the whole trace must still be a valid
    // 2Δ−1 coloring of the current graph.
    let colors = prep.session.report().colors;
    tally.check(check::coloring(prep.session.graph(), &colors));
    LoopResult {
        alloc_per_solve: alloc::mib(alloc_bytes) / solved as f64,
        refs: refs.into_iter().flatten().collect(),
        solves: solves.finish(),
        updates: updates.finish(),
        solved,
        wall,
        peak_rss_mib,
        tally,
    }
}
