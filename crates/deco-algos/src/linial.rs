//! Linial's O(Δ²)-coloring in O(log* n) rounds \[Lin87\], as a real
//! message-passing protocol.
//!
//! One color-reduction round maps a proper `m`-coloring to a proper
//! `q²`-coloring, where `q` is a prime with `q > Δ·d` and `q^{d+1} ≥ m`:
//! every color `c < m` is read as a polynomial `p_c` of degree ≤ `d` over
//! `F_q` (its base-`q` digits are the coefficients). Two distinct
//! polynomials agree on at most `d` points, so a node with ≤ Δ neighbors can
//! always pick an evaluation point `x` where its polynomial differs from all
//! neighbors' (`Δ·d < q` candidates are excluded at most). The new color is
//! the pair `(x, p_c(x)) ∈ [q²]`.
//!
//! Iterating from the ID space `{1..N}` reaches the fixpoint palette in
//! `O(log* N)` rounds. The fixpoint has `q_* ²` colors where `q_*` is
//! a prime in `(Δ, 2Δ]`-ish territory, i.e. O(Δ²) colors total.
//!
//! The schedule (the `(q, d)` pair per round) is computed deterministically
//! from the globally known `Δ` and ID bound, so every node runs the same
//! number of rounds — a fixed LOCAL schedule, no termination detection.
//!
//! On a line graph `L(G)` the step is decided at the endpoints
//! ([`color_line_from_initial`]): the neighbourhood of an edge `e = {u, v}`
//! is two cliques, the other edges at `u` and the other edges at `v`. So
//! at a point `x`, `e`'s value `p_e(x)` clashes with no neighbour exactly
//! when it occurs once among the values at `u` and once among those at
//! `v`. Every vertex counts the values of its incident edges, and each
//! edge takes the first point at which both counts are 1 — the point
//! [`reduce_color`] picks from the full inbox. Each tried point costs
//! `O(m·d)` instead of `O(Σ_v deg(v)²·d)`.

use crate::palette_u64_to_u32;
use deco_graph::{EdgeId, Graph, NodeId};
use deco_local::math::next_prime;
use deco_local::runner::count_execution;
use deco_local::{Network, NodeCtx, NodeProgram, Protocol, RunError};
use deco_runtime::Runtime;
use std::sync::Arc;

/// One round of the reduction schedule: reduce from `m` colors to `q²`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionStep {
    /// Prime modulus of the polynomial family.
    pub q: u64,
    /// Degree bound of the polynomials (needs `q^{d+1} ≥ m` and `q > Δ·d`).
    pub d: u64,
    /// Number of colors before this step.
    pub m_before: u64,
    /// Number of colors after this step (`= q²`).
    pub m_after: u64,
}

/// The full fixed schedule for reducing an `m₀`-coloring on a graph of
/// maximum degree `Δ` down to the fixpoint palette.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinialSchedule {
    /// The reduction steps, in execution order, shared by every node's
    /// program.
    pub steps: Arc<[ReductionStep]>,
    /// Palette size after running all steps.
    pub final_palette: u64,
}

impl LinialSchedule {
    /// Number of communication rounds (= number of steps).
    pub fn rounds(&self) -> u64 {
        self.steps.len() as u64
    }
}

/// Chooses, for current palette `m` and degree bound `delta`, the reduction
/// step minimizing the resulting palette `q²`, or `None` if no step shrinks
/// the palette.
fn best_step(m: u64, delta: u64) -> Option<ReductionStep> {
    debug_assert!(m >= 2);
    let mut best: Option<ReductionStep> = None;
    // d beyond log2(m) cannot help: q^{d+1} ≥ 2^{d+1} ≥ m already at
    // d = log2(m), and q grows with d.
    let d_max = 64 - m.leading_zeros() as u64 + 1;
    for d in 1..=d_max {
        let q = next_prime(delta.max(1) * d);
        // Check q^{d+1} >= m without overflow.
        let mut pow = 1u128;
        let mut enough = false;
        for _ in 0..=d {
            pow = pow.saturating_mul(q as u128);
            if pow >= m as u128 {
                enough = true;
                break;
            }
        }
        if !enough {
            continue;
        }
        let m_after = q * q;
        if m_after < m && best.as_ref().is_none_or(|b| m_after < b.m_after) {
            best = Some(ReductionStep {
                q,
                d,
                m_before: m,
                m_after,
            });
        }
    }
    best
}

/// Computes the fixed reduction schedule from `m0` initial colors on a graph
/// of maximum degree `delta`. Runs `O(log* m0)` steps until no step shrinks
/// the palette.
pub fn schedule(m0: u64, delta: u64) -> LinialSchedule {
    let mut steps = Vec::new();
    let mut m = m0.max(2);
    while let Some(step) = best_step(m, delta) {
        m = step.m_after;
        steps.push(step);
    }
    LinialSchedule {
        steps: steps.into(),
        final_palette: m.min(m0.max(2)),
    }
}

/// The Linial color-reduction protocol. Input: a proper `m0`-coloring
/// supplied per node (commonly the IDs). Output: a proper coloring with
/// [`LinialSchedule::final_palette`] colors.
#[derive(Debug, Clone)]
pub struct LinialProtocol {
    /// Initial proper coloring, one color per node, all `< m0`.
    pub initial: Vec<u64>,
    /// The fixed schedule all nodes follow.
    pub schedule: LinialSchedule,
}

impl LinialProtocol {
    /// Builds the protocol from initial colors and the graph's max degree.
    ///
    /// # Panics
    ///
    /// `initial` must be a proper coloring with every color below `m0`.
    /// This is not checked here; a node whose color breaks it panics in
    /// [`reduce_color`] when no conflict-free evaluation point exists, or
    /// trips a debug assertion.
    pub fn new(initial: Vec<u64>, m0: u64, delta: u64) -> LinialProtocol {
        LinialProtocol {
            initial,
            schedule: schedule(m0, delta),
        }
    }
}

/// Per-node state machine for [`LinialProtocol`].
#[derive(Debug)]
pub struct LinialProgram {
    color: u64,
    step_idx: usize,
    schedule: LinialSchedule,
}

/// Evaluates the polynomial encoded by `color`'s base-`q` digits at `x`
/// (Horner on the digit sequence).
fn poly_eval(color: u64, q: u64, d: u64, x: u64) -> u64 {
    // coefficients: digits of color in base q, c = Σ a_i q^i, i = 0..=d.
    // p(x) = Σ a_i x^i mod q, evaluated by Horner from the top digit.
    let mut digits = [0u64; 66];
    let mut c = color;
    for digit in digits.iter_mut().take(d as usize + 1) {
        *digit = c % q;
        c /= q;
    }
    debug_assert_eq!(c, 0, "color must fit in d+1 base-q digits");
    let mut acc = 0u64;
    for i in (0..=d as usize).rev() {
        acc = (acc * x + digits[i]) % q;
    }
    acc
}

/// One Linial reduction step for a single node: given its current color and
/// the inbox of its neighbors' colors (a silent port, `None`, constrains
/// nothing), returns the new color in `[0, q²)`.
///
/// # Panics
///
/// Panics if no conflict-free evaluation point exists, which cannot happen
/// when `step.q > Δ·step.d` and the input coloring is proper.
pub fn reduce_color(color: u64, inbox: &[Option<u64>], step: ReductionStep) -> u64 {
    let (q, d) = (step.q, step.d);
    debug_assert!(
        inbox.iter().flatten().all(|&nc| nc != color),
        "input coloring for Linial step must be proper"
    );
    for x in 0..q {
        let own = poly_eval(color, q, d, x);
        let clash = inbox
            .iter()
            .flatten()
            .any(|&nc| nc != color && poly_eval(nc, q, d, x) == own);
        if !clash {
            let new_color = x * q + own;
            debug_assert!(new_color < step.m_after);
            return new_color;
        }
    }
    panic!("q > Δ·d guarantees a conflict-free evaluation point");
}

impl NodeProgram for LinialProgram {
    type Msg = u64;
    type Output = u64;

    fn send(&mut self, _ctx: &NodeCtx) -> Option<u64> {
        Some(self.color)
    }

    fn receive(&mut self, _ctx: &NodeCtx, inbox: &[Option<u64>]) {
        let step = self.schedule.steps[self.step_idx];
        debug_assert!(
            inbox.iter().all(Option::is_some),
            "all neighbors must report"
        );
        self.color = reduce_color(self.color, inbox, step);
        self.step_idx += 1;
    }

    fn output(&self, _ctx: &NodeCtx) -> Option<u64> {
        (self.step_idx >= self.schedule.steps.len()).then_some(self.color)
    }
}

impl Protocol for LinialProtocol {
    type Program = LinialProgram;

    fn spawn(&self, ctx: &NodeCtx) -> LinialProgram {
        LinialProgram {
            color: self.initial[ctx.node.index()],
            step_idx: 0,
            schedule: self.schedule.clone(),
        }
    }
}

/// Result of running Linial's protocol.
#[derive(Debug, Clone)]
pub struct LinialResult {
    /// Proper coloring with `palette` colors, indexed by node.
    pub colors: Vec<u32>,
    /// Palette size of the output (`colors[v] < palette`).
    pub palette: u64,
    /// Communication rounds used (= schedule length).
    pub rounds: u64,
    /// Messages delivered over the run (identical on every engine).
    pub messages: u64,
}

/// Runs Linial's reduction on `net` starting from the node IDs as the
/// initial coloring (`m0 = id_bound + 1`), on whatever engine `rt`
/// carries.
///
/// # Errors
///
/// Propagates [`RunError`] from the executor (cannot happen with the fixed
/// schedule unless the schedule itself is wrong).
pub fn color_from_ids(net: &Network<'_>, rt: &Runtime) -> Result<LinialResult, RunError> {
    let protocol = LinialProtocol::new(
        net.ids().to_vec(),
        net.max_id() + 1,
        net.max_degree() as u64,
    );
    let sched_rounds = protocol.schedule.rounds();
    let outcome = rt.execute(net, &protocol, sched_rounds + 1)?;
    debug_assert_eq!(outcome.rounds, sched_rounds);
    Ok(LinialResult {
        colors: palette_u64_to_u32(&outcome.outputs),
        palette: protocol.schedule.final_palette,
        rounds: outcome.rounds,
        messages: outcome.messages,
    })
}

/// Runs Linial's reduction on the line graph `L(g)` from a proper initial
/// edge coloring with palette `m0`, every step decided at the endpoints.
/// Returns what [`LinialProtocol`] returns when an engine runs it on
/// `LineGraph::of(g)`: the same colors and palette, and the rounds
/// and messages the runner charges — the schedule's length (0 without
/// edges), and in every round one message per port of `L(g)`,
/// `Σ_e (deg(u) + deg(v) − 2)`. Reports the run to the trace layer as an
/// engine execution does ([`count_execution`]).
///
/// # Panics
///
/// Panics (in debug builds) if an initial color is not below `m0` or the
/// initial coloring is improper.
pub fn color_line_from_initial(g: &Graph, initial: Vec<u64>, m0: u64) -> LinialResult {
    assert_eq!(initial.len(), g.num_edges(), "one initial color per edge");
    debug_assert!(
        initial.iter().all(|&c| c < m0),
        "initial colors must be < m0"
    );
    let schedule = schedule(m0, g.max_edge_degree() as u64);
    let mut colors = initial;
    let rounds = if g.num_edges() == 0 {
        0
    } else {
        for &step in schedule.steps.iter() {
            colors = reduce_line_colors(g, &colors, step);
        }
        schedule.rounds()
    };
    let ports: u64 = g.edges().map(|e| g.edge_degree(e) as u64).sum();
    let messages = rounds * ports;
    count_execution(rounds, messages);
    LinialResult {
        colors: palette_u64_to_u32(&colors),
        palette: schedule.final_palette,
        rounds,
        messages,
    }
}

/// One Linial reduction step on the line graph `L(g)`, decided at the
/// endpoints: edge `e` takes `x·q + p_e(x)` for the smallest point `x` at
/// which its value occurs once among the values of the edges at each of
/// its endpoints. On a proper coloring that is [`reduce_color`] of `e`'s
/// color against its line-graph neighbours' colors.
///
/// Each point tried evaluates the edges at the endpoints of the edges
/// still open, once each, and counts their values per endpoint in a
/// `q`-entry table. Nothing is indexed by node.
///
/// # Panics
///
/// Panics if some edge finds no conflict-free point, which cannot happen
/// when `step.q > Δ̄·step.d` and `colors` is a proper edge coloring
/// (checked in debug builds).
fn reduce_line_colors(g: &Graph, colors: &[u64], step: ReductionStep) -> Vec<u64> {
    let (q, d) = (step.q, step.d);
    let m = g.num_edges();
    debug_assert!(
        proper_at_endpoints(g, colors),
        "input coloring for Linial step must be proper"
    );
    let mut next = vec![0u64; m];
    let mut open: Vec<EdgeId> = g.edges().collect();
    // The endpoints of the open edges: the only counts a point can settle.
    let mut hubs: Vec<NodeId> = Vec::with_capacity(2 * m);
    // `value[f]` is `p_f(point[f])`; `clash[f]` is set once an endpoint of
    // `f` holds its value twice at the current point.
    let mut value = vec![0u64; m];
    let mut point = vec![u64::MAX; m];
    let mut clash = vec![false; m];
    let mut count = vec![0u32; q as usize];
    for x in 0..q {
        if open.is_empty() {
            break;
        }
        hubs.clear();
        hubs.extend(open.iter().flat_map(|&e| g.endpoints(e)));
        hubs.sort_unstable();
        hubs.dedup();
        for &u in &hubs {
            let ports = g.adjacent(u);
            for a in ports {
                let f = a.edge.index();
                if point[f] != x {
                    value[f] = poly_eval(colors[f], q, d, x);
                    point[f] = x;
                }
                count[value[f] as usize] += 1;
            }
            for a in ports {
                let f = a.edge.index();
                clash[f] |= count[value[f] as usize] > 1;
            }
            for a in ports {
                count[value[a.edge.index()] as usize] = 0;
            }
        }
        open.retain(|&e| {
            let i = e.index();
            if clash[i] {
                clash[i] = false;
                true
            } else {
                next[i] = x * q + value[i];
                false
            }
        });
    }
    assert!(
        open.is_empty(),
        "q > Δ·d guarantees a conflict-free evaluation point"
    );
    next
}

/// Whether no two edges sharing an endpoint have the same color.
fn proper_at_endpoints(g: &Graph, colors: &[u64]) -> bool {
    let mut at: Vec<u64> = Vec::new();
    g.nodes().all(|u| {
        at.clear();
        at.extend(g.incident_edges(u).map(|f| colors[f.index()]));
        at.sort_unstable();
        at.windows(2).all(|w| w[0] != w[1])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::{coloring, generators};
    use deco_local::IdAssignment;

    #[test]
    fn poly_eval_linear() {
        // color 7 in base 5 with d=1: digits [2, 1] -> p(x) = 2 + x.
        assert_eq!(poly_eval(7, 5, 1, 0), 2);
        assert_eq!(poly_eval(7, 5, 1, 1), 3);
        assert_eq!(poly_eval(7, 5, 1, 4), 1); // 2 + 4 = 6 mod 5
    }

    #[test]
    fn schedule_shrinks_monotonically() {
        let s = schedule(1_000_000, 10);
        assert!(!s.steps.is_empty());
        for w in s.steps.windows(2) {
            assert!(w[1].m_before == w[0].m_after);
            assert!(w[1].m_after < w[1].m_before);
        }
        // O(Δ²): fixpoint is q² for a prime q ≤ 2·(2Δ) by Bertrand.
        assert!(
            s.final_palette <= 16 * 10 * 10 + 200,
            "got {}",
            s.final_palette
        );
    }

    #[test]
    fn schedule_steps_are_valid() {
        for (m0, delta) in [(100u64, 3u64), (1_000_000, 2), (50_000, 126), (10, 4)] {
            let s = schedule(m0, delta);
            for st in s.steps.iter() {
                assert!(st.q > delta * st.d, "q > Δd violated: {st:?}");
                let pow = (0..=st.d).try_fold(1u128, |a, _| a.checked_mul(st.q as u128));
                assert!(pow.is_none() || pow.unwrap() >= st.m_before as u128);
            }
        }
    }

    #[test]
    fn rounds_grow_very_slowly() {
        // log*-type behavior: even from 2^60 colors only a handful of steps.
        let s = schedule(1u64 << 60, 8);
        assert!(
            s.rounds() <= 8,
            "expected O(log*) steps, got {}",
            s.rounds()
        );
    }

    fn run_and_check(g: &deco_graph::Graph, assignment: IdAssignment) -> LinialResult {
        let net = Network::new(g, assignment);
        let res = color_from_ids(&net, &Runtime::serial()).expect("fixed schedule terminates");
        coloring::check_vertex_coloring(g, &res.colors).expect("proper coloring");
        for &c in &res.colors {
            assert!((c as u64) < res.palette);
        }
        res
    }

    #[test]
    fn colors_cycle_properly() {
        let g = generators::cycle(50);
        let res = run_and_check(&g, IdAssignment::Sequential);
        assert!(
            res.palette <= 25,
            "Δ=2 fixpoint is 25 colors, got {}",
            res.palette
        );
    }

    #[test]
    fn colors_random_regular_graph() {
        let g = generators::random_regular(60, 6, 3);
        let res = run_and_check(&g, IdAssignment::Shuffled(1));
        // Fixpoint q for Δ=6: next_prime(6·2)=13 with d=2 etc. Palette O(Δ²).
        assert!(
            res.palette <= 4 * 36 + 120,
            "palette {} too large",
            res.palette
        );
    }

    #[test]
    fn sparse_ids_still_work() {
        let g = generators::grid(6, 6);
        let res = run_and_check(&g, IdAssignment::SparseRandom(7));
        assert!(res.rounds <= 6);
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let g = generators::complete(8);
        let res = run_and_check(&g, IdAssignment::Reversed);
        assert!(
            res.colors
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
                == 8
        );
    }

    #[test]
    fn line_step_is_reduce_color_of_every_edge() {
        let g = generators::random_regular(30, 5, 4);
        let colors: Vec<u64> = g.edges().map(|e| 7 * e.index() as u64 + 3).collect();
        let m0 = 7 * g.num_edges() as u64 + 3;
        let s = schedule(m0, g.max_edge_degree() as u64);
        let step = s.steps[0];
        let inbox = |e: EdgeId| -> Vec<Option<u64>> {
            g.edge_neighbors(e)
                .map(|f| Some(colors[f.index()]))
                .collect()
        };
        let expected: Vec<u64> = g
            .edges()
            .map(|e| reduce_color(colors[e.index()], &inbox(e), step))
            .collect();
        assert_eq!(reduce_line_colors(&g, &colors, step), expected);
    }

    #[test]
    fn star_high_degree_center() {
        let g = generators::star(9);
        let res = run_and_check(&g, IdAssignment::Shuffled(2));
        assert!(res.palette <= 4 * 81 + 200);
    }
}
