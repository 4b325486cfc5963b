//! Randomized distributed list (edge) coloring in the style of
//! [ABI86, Lub86]: every uncolored element repeatedly proposes a uniformly
//! random available color and keeps it unless a conflicting neighbor with a
//! larger ID proposed the same color. Terminates in `O(log n)` rounds with
//! high probability.
//!
//! This is the randomized baseline the paper's introduction compares
//! against. Runs as a real message-passing protocol on the conflict graph
//! (for edge coloring: the line graph), with per-node RNGs seeded
//! deterministically from `(seed, id)` so simulations are reproducible.

use deco_local::{Executor, Network, NodeCtx, NodeProgram, Protocol, RunError};
use deco_runtime::Runtime;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashSet;

/// Messages of the Luby-style protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LubyMsg {
    /// "I propose this color this round" (sender id, color).
    Proposal {
        /// Sender's unique ID (for the priority tie-break).
        id: u64,
        /// Proposed color.
        color: u32,
    },
    /// "I have finalized this color."
    Final {
        /// Finalized color.
        color: u32,
    },
}

/// Protocol: randomized list vertex coloring of the network's graph.
/// For (2Δ̄+1)-style edge coloring, run it on the line graph.
#[derive(Debug, Clone)]
pub struct LubyListColoring {
    /// Per-node lists; must satisfy `|lists[v]| > deg(v)`.
    pub lists: Vec<Vec<u32>>,
    /// Global seed; per-node RNG is seeded with `(seed, id)`.
    pub seed: u64,
}

/// Node program for [`LubyListColoring`].
#[derive(Debug)]
pub struct LubyProgram {
    available: Vec<u32>,
    removed: HashSet<u32>,
    rng: StdRng,
    proposal: Option<u32>,
    finalized: Option<u32>,
    announced: bool,
}

impl LubyProgram {
    fn refresh_available(&mut self) {
        if !self.removed.is_empty() {
            self.available.retain(|c| !self.removed.contains(c));
            self.removed.clear();
        }
    }
}

impl NodeProgram for LubyProgram {
    type Msg = LubyMsg;
    type Output = u32;

    fn send(&mut self, ctx: &NodeCtx<'_>) -> Option<LubyMsg> {
        if let Some(c) = self.finalized {
            // Announce once, then the runner will see our output and halt us
            // next round.
            self.announced = true;
            return Some(LubyMsg::Final { color: c });
        }
        self.refresh_available();
        debug_assert!(
            !self.available.is_empty(),
            "list exceeds degree, cannot empty"
        );
        let pick = self.available[self.rng.gen_range(0..self.available.len())];
        self.proposal = Some(pick);
        Some(LubyMsg::Proposal {
            id: ctx.id,
            color: pick,
        })
    }

    fn receive(&mut self, ctx: &NodeCtx<'_>, inbox: &[Option<LubyMsg>]) {
        if self.finalized.is_some() {
            return;
        }
        // Finals first: these colors are permanently unavailable.
        for msg in inbox.iter().flatten() {
            if let LubyMsg::Final { color } = msg {
                self.removed.insert(*color);
            }
        }
        let mine = self.proposal.take().expect("proposed this round");
        if self.removed.contains(&mine) {
            return; // a neighbor already owns this color
        }
        // Keep the proposal unless a strictly higher-id neighbor proposed
        // the same color.
        let beaten = inbox.iter().flatten().any(
            |msg| matches!(msg, LubyMsg::Proposal { id, color } if *color == mine && *id > ctx.id),
        );
        if !beaten {
            self.finalized = Some(mine);
        }
    }

    fn output(&self, _ctx: &NodeCtx<'_>) -> Option<u32> {
        // Halt only after the final color has been announced to neighbors.
        self.finalized.filter(|_| self.announced)
    }
}

impl Protocol for LubyListColoring {
    type Program = LubyProgram;

    fn spawn(&self, ctx: &NodeCtx<'_>) -> LubyProgram {
        let mut hasher_seed = self.seed ^ ctx.id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if hasher_seed == 0 {
            hasher_seed = 1;
        }
        LubyProgram {
            available: self.lists[ctx.node.index()].clone(),
            removed: HashSet::new(),
            rng: StdRng::seed_from_u64(hasher_seed),
            proposal: None,
            finalized: None,
            announced: false,
        }
    }
}

/// Result of a Luby-style run.
#[derive(Debug, Clone)]
pub struct LubyResult {
    /// Proper list coloring, indexed by node of the conflict graph.
    pub colors: Vec<u32>,
    /// Rounds until every node halted.
    pub rounds: u64,
    /// Messages delivered over the run (identical on every engine).
    pub messages: u64,
}

/// Runs randomized list coloring on `net`, on whatever engine `rt`
/// carries. The protocol is open-ended (no fixed schedule), so the round
/// budget is the runtime's [`Runtime::max_rounds`] policy.
///
/// # Errors
///
/// Returns [`RunError`] if the run exceeds the runtime's round budget
/// (vanishingly unlikely for sane budgets: expected O(log n) rounds).
///
/// # Panics
///
/// Panics if some list is not larger than the node's degree.
pub fn luby_list_coloring(
    net: &Network<'_>,
    lists: Vec<Vec<u32>>,
    seed: u64,
    rt: &Runtime,
) -> Result<LubyResult, RunError> {
    for v in net.graph().nodes() {
        assert!(
            lists[v.index()].len() > net.graph().degree(v),
            "list of node {v} must exceed its degree"
        );
    }
    let protocol = LubyListColoring { lists, seed };
    let outcome = rt.execute(net, &protocol, rt.max_rounds())?;
    Ok(LubyResult {
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

    fn lists_for(g: &deco_graph::Graph, palette: u32) -> Vec<Vec<u32>> {
        g.nodes().map(|_| (0..palette).collect()).collect()
    }

    #[test]
    fn colors_properly_with_2delta_palette() {
        let g = generators::random_regular(80, 6, 1);
        let net = Network::new(&g, IdAssignment::Shuffled(2));
        let palette = 2 * g.max_degree() as u32 + 1;
        let res = luby_list_coloring(&net, lists_for(&g, palette), 42, &Runtime::serial()).unwrap();
        coloring::check_vertex_coloring(&g, &res.colors).expect("proper");
        assert!(res.colors.iter().all(|&c| c < palette));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::gnp(50, 0.15, 3);
        let net = Network::new(&g, IdAssignment::Sequential);
        let palette = 2 * g.max_degree() as u32 + 1;
        let a = luby_list_coloring(&net, lists_for(&g, palette), 7, &Runtime::serial()).unwrap();
        let b = luby_list_coloring(&net, lists_for(&g, palette), 7, &Runtime::serial()).unwrap();
        assert_eq!(a.colors, b.colors);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn rounds_are_logarithmic_in_practice() {
        let g = generators::random_regular(400, 8, 9);
        let net = Network::new(&g, IdAssignment::Shuffled(4));
        let palette = 2 * g.max_degree() as u32 + 1;
        let res = luby_list_coloring(&net, lists_for(&g, palette), 13, &Runtime::serial()).unwrap();
        assert!(res.rounds <= 60, "rounds {} unexpectedly large", res.rounds);
    }

    #[test]
    fn heterogeneous_lists() {
        let g = generators::cycle(30);
        let net = Network::new(&g, IdAssignment::Shuffled(5));
        // Each node gets a distinct 3-color window: still > deg = 2.
        let lists: Vec<Vec<u32>> = g.nodes().map(|v| (v.0..v.0 + 3).collect()).collect();
        let res = luby_list_coloring(&net, lists.clone(), 3, &Runtime::serial()).unwrap();
        coloring::check_vertex_coloring(&g, &res.colors).expect("proper");
        for v in g.nodes() {
            assert!(lists[v.index()].contains(&res.colors[v.index()]));
        }
    }

    #[test]
    #[should_panic(expected = "must exceed its degree")]
    fn rejects_small_lists() {
        let g = generators::complete(4);
        let net = Network::new(&g, IdAssignment::Sequential);
        let _ = luby_list_coloring(&net, lists_for(&g, 2), 1, &Runtime::serial());
    }
}
