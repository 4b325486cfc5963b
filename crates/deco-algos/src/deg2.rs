//! Deterministic 3-coloring of graphs with maximum degree ≤ 2 (disjoint
//! paths and cycles) in `O(log* X)` rounds from an initial `X`-coloring.
//!
//! This is the subroutine the paper's defective edge coloring (§4.1) uses to
//! "3-color the edges of these paths and cycles independently in O(log* X)
//! rounds". Strategy: run Linial color reduction down to its fixpoint
//! palette (25 colors for Δ = 2), then eliminate the remaining classes one
//! per round — a node of the currently-eliminated class picks a free color
//! in `{0, 1, 2}`, which exists because it has at most 2 neighbors and the
//! class is an independent set.

use crate::linial::{self, LinialSchedule};
use deco_local::{Network, NodeCtx, NodeProgram, Protocol, RunError};
use deco_runtime::Runtime;

/// Protocol: 3-color a max-degree-≤2 graph from a proper initial coloring.
#[derive(Debug, Clone)]
pub struct ThreeColorDeg2 {
    /// Proper initial coloring (`< m0`), one entry per node.
    pub initial: Vec<u64>,
    schedule: LinialSchedule,
}

impl ThreeColorDeg2 {
    /// Builds the protocol. `m0` is the palette bound of `initial`.
    pub fn new(initial: Vec<u64>, m0: u64) -> ThreeColorDeg2 {
        let schedule = linial::schedule(m0, 2);
        ThreeColorDeg2 { initial, schedule }
    }

    /// Total fixed schedule length in rounds.
    pub fn rounds(&self) -> u64 {
        self.schedule.rounds() + self.schedule.final_palette.saturating_sub(3)
    }
}

/// Node program for [`ThreeColorDeg2`]: Linial phase then elimination phase.
#[derive(Debug)]
pub struct ThreeColorDeg2Program {
    color: u64,
    round: u64,
    schedule: LinialSchedule,
}

impl NodeProgram for ThreeColorDeg2Program {
    type Msg = u64;
    type Output = u8;

    fn send(&mut self, _ctx: &NodeCtx) -> Option<u64> {
        Some(self.color)
    }

    fn receive(&mut self, ctx: &NodeCtx, inbox: &[Option<u64>]) {
        let linial_rounds = self.schedule.rounds();
        debug_assert!(ctx.degree <= 2, "ThreeColorDeg2 requires max degree 2");
        if self.round < linial_rounds {
            let step = self.schedule.steps[self.round as usize];
            self.color = linial::reduce_color(self.color, inbox, step);
        } else {
            // Elimination phase: round `linial_rounds + k` (k ≥ 0) removes
            // color class `palette − 1 − k`.
            let k = self.round - linial_rounds;
            let target = self.schedule.final_palette - 1 - k;
            if self.color == target && target >= 3 {
                let free = (0u64..3)
                    .find(|&c| !inbox.contains(&Some(c)))
                    .expect("≤ 2 neighbors leave a free color in {0,1,2}");
                self.color = free;
            }
        }
        self.round += 1;
    }

    fn output(&self, _ctx: &NodeCtx) -> Option<u8> {
        let total = self.schedule.rounds() + self.schedule.final_palette.saturating_sub(3);
        (self.round >= total).then(|| {
            debug_assert!(self.color < 3, "color {} not reduced to 3", self.color);
            self.color as u8
        })
    }
}

impl Protocol for ThreeColorDeg2 {
    type Program = ThreeColorDeg2Program;

    fn spawn(&self, ctx: &NodeCtx) -> ThreeColorDeg2Program {
        ThreeColorDeg2Program {
            color: self.initial[ctx.node.index()],
            round: 0,
            schedule: self.schedule.clone(),
        }
    }
}

/// Result of [`three_color_max_deg2`].
#[derive(Debug, Clone)]
pub struct ThreeColoring {
    /// Proper coloring with colors in `{0, 1, 2}`, indexed by node.
    pub colors: Vec<u8>,
    /// Rounds used by the fixed schedule.
    pub rounds: u64,
    /// Messages delivered over the run (identical on every engine).
    pub messages: u64,
}

/// 3-colors a graph of maximum degree ≤ 2 from a proper initial coloring
/// with palette `m0`, in `O(log* m0)` rounds, on whatever engine `rt`
/// carries.
///
/// # Errors
///
/// Propagates [`RunError`] (cannot occur with a correct fixed schedule).
///
/// # Panics
///
/// Panics if the graph has a node of degree > 2.
pub fn three_color_max_deg2(
    net: &Network<'_>,
    initial: Vec<u64>,
    m0: u64,
    rt: &Runtime,
) -> Result<ThreeColoring, RunError> {
    assert!(net.max_degree() <= 2, "graph must have max degree <= 2");
    let protocol = ThreeColorDeg2::new(initial, m0);
    let budget = protocol.rounds();
    let outcome = rt.execute(net, &protocol, budget + 1)?;
    debug_assert_eq!(outcome.rounds, budget);
    Ok(ThreeColoring {
        colors: outcome.outputs,
        rounds: outcome.rounds,
        messages: outcome.messages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::{coloring, generators};
    use deco_local::IdAssignment;

    fn check(g: &deco_graph::Graph, assignment: IdAssignment) -> ThreeColoring {
        let net = Network::new(g, assignment);
        let initial = net.ids().to_vec();
        let m0 = net.max_id() + 1;
        let res = three_color_max_deg2(&net, initial, m0, &Runtime::serial())
            .expect("schedule terminates");
        let as_u32: Vec<u32> = res.colors.iter().map(|&c| u32::from(c)).collect();
        coloring::check_vertex_coloring(g, &as_u32).expect("proper 3-coloring");
        assert!(res.colors.iter().all(|&c| c < 3));
        res
    }

    #[test]
    fn colors_long_path() {
        check(&generators::path(101), IdAssignment::Sequential);
    }

    #[test]
    fn colors_even_and_odd_cycles() {
        check(&generators::cycle(64), IdAssignment::Shuffled(3));
        check(&generators::cycle(65), IdAssignment::Shuffled(4));
        check(&generators::cycle(3), IdAssignment::Sequential);
    }

    #[test]
    fn colors_disjoint_paths_and_cycles() {
        let g = generators::disjoint_union(&[
            generators::path(17),
            generators::cycle(12),
            generators::path(2),
            generators::cycle(5),
        ]);
        check(&g, IdAssignment::SparseRandom(8));
    }

    #[test]
    fn rounds_are_logstar_small() {
        let g = generators::cycle(1000);
        let res = check(&g, IdAssignment::Shuffled(5));
        // Linial steps from 1000 ids: a handful; elimination: 25-3 = 22.
        assert!(res.rounds <= 30, "rounds {} too large", res.rounds);
    }

    #[test]
    fn rounds_insensitive_to_n() {
        let r_small = check(&generators::cycle(50), IdAssignment::Sequential).rounds;
        let r_large = check(&generators::cycle(5000), IdAssignment::Sequential).rounds;
        // The log* n term moves by at most a couple of rounds.
        assert!(
            r_large <= r_small + 3,
            "rounds grew: {r_small} -> {r_large}"
        );
    }

    #[test]
    #[should_panic(expected = "max degree <= 2")]
    fn rejects_high_degree() {
        let g = generators::star(3);
        let net = Network::new(&g, IdAssignment::Sequential);
        let _ = three_color_max_deg2(&net, vec![1, 2, 3, 4], 5, &Runtime::serial());
    }

    #[test]
    fn isolated_nodes_are_fine() {
        let g = deco_graph::Graph::empty(4);
        let net = Network::new(&g, IdAssignment::Sequential);
        let res = three_color_max_deg2(&net, vec![1, 2, 3, 4], 5, &Runtime::serial()).unwrap();
        assert!(res.colors.iter().all(|&c| c < 3));
    }
}
