//! Cole–Vishkin 3-coloring of rooted forests in `O(log* n)` rounds.
//!
//! The classic bit-trick protocol [CV86, GPS88]: every non-root node
//! compares its color with its parent's; writing `i` for the lowest bit
//! index where they differ, the new color is `2i + bit_i(own)`. One step
//! maps `L`-bit colors to `O(log L)`-bit colors, so `O(log* n)` steps reach
//! the 6-color fixpoint; three shift-down + recolor phases finish at 3.
//!
//! Used here as an independently tested classical building block (rooted
//! forests arise from any acyclic orientation); the degree-2 subroutine the
//! defective coloring needs lives in [`crate::deg2`] because the paper's
//! conflict components are unrooted paths *and cycles*.

use deco_graph::{Graph, NodeId};
use deco_local::{Network, NodeCtx, NodeProgram, Protocol, RunError};
use deco_runtime::Runtime;

/// Number of Cole–Vishkin halving steps needed from `bits`-bit colors to
/// reach the 6-color (3-bit) fixpoint.
fn cv_steps(mut bits: u32) -> u32 {
    let mut steps = 0;
    while bits > 3 {
        // L-bit colors -> colors of value < 2·L, i.e. ⌈log₂ L⌉+1 bits.
        bits = 32 - (bits - 1).leading_zeros() + 1;
        steps += 1;
        if steps > 64 {
            break;
        }
    }
    steps
}

/// One Cole–Vishkin step: the new color `2i + bit_i(own)` for the lowest
/// differing bit `i` against the reference color.
fn cv_step(own: u64, reference: u64) -> u64 {
    debug_assert_ne!(own, reference, "CV requires distinct colors");
    let i = (own ^ reference).trailing_zeros() as u64;
    2 * i + ((own >> i) & 1)
}

/// The message: this node's current color.
type Msg = u64;

/// Protocol state machine phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Iterated CV reduction (fixed number of steps).
    Reduce(u32),
    /// Shift-down + eliminate color class `c` (c = 5, 4, 3).
    Eliminate(u64),
    /// Finished.
    Done,
}

/// Cole–Vishkin 3-coloring protocol for a rooted forest.
///
/// Each node knows the port its parent sits behind (`None` for roots).
#[derive(Debug, Clone)]
pub struct CvForestColoring {
    /// Port of each node's parent (`None` = root).
    parent_port: Vec<Option<usize>>,
    steps: u32,
}

impl CvForestColoring {
    /// Builds the protocol on `net`, where `parent[v]` is the parent of `v`
    /// (`None` for roots); `id_bits` is the bit-length of the initial
    /// colors (the IDs).
    ///
    /// # Panics
    ///
    /// Panics if some parent is not a neighbor of its child in `net`.
    pub fn new(net: &Network<'_>, parent: &[Option<NodeId>], id_bits: u32) -> CvForestColoring {
        let parent_port = parent
            .iter()
            .enumerate()
            .map(|(v, p)| {
                p.map(|p| {
                    net.neighbors(v.into())
                        .position(|u| u == p)
                        .expect("parent must be a neighbor")
                })
            })
            .collect();
        // cv_steps reaches 3-bit colors (< 8); one extra step lands in the
        // true CV fixpoint {0..5}, which the three elimination phases need.
        CvForestColoring {
            parent_port,
            steps: cv_steps(id_bits.max(4)) + 1,
        }
    }

    /// Rounds of the fixed schedule: CV steps + 3 elimination phases of 2
    /// rounds each (shift-down, then recolor).
    pub fn rounds(&self) -> u64 {
        u64::from(self.steps) + 3 * 2
    }
}

/// Node program for [`CvForestColoring`].
#[derive(Debug)]
pub struct CvForestProgram {
    color: u64,
    parent_port: Option<usize>,
    phase: Phase,
    shifted: bool,
}

impl NodeProgram for CvForestProgram {
    type Msg = Msg;
    type Output = u8;

    fn send(&mut self, _ctx: &NodeCtx) -> Option<Msg> {
        Some(self.color)
    }

    fn receive(&mut self, _ctx: &NodeCtx, inbox: &[Option<Msg>]) {
        let parent_color = self
            .parent_port
            .map(|p| inbox[p].expect("parent always sends"));
        match self.phase {
            Phase::Reduce(remaining) => {
                // Roots fabricate a reference that differs in bit 0.
                let reference = parent_color.unwrap_or(self.color ^ 1);
                self.color = cv_step(self.color, reference);
                self.phase = if remaining > 1 {
                    Phase::Reduce(remaining - 1)
                } else {
                    self.shifted = false;
                    Phase::Eliminate(5)
                };
            }
            Phase::Eliminate(target) => {
                if !self.shifted {
                    // Shift-down: adopt the parent's color; roots pick a
                    // fresh color in {0,1,2} different from their own
                    // (children will adopt the *old* root color, which they
                    // received this round — hence shift-down first).
                    self.color = match parent_color {
                        Some(pc) => pc,
                        None => (self.color + 1) % 3,
                    };
                    self.shifted = true;
                } else {
                    // After shift-down all children of a node share its old
                    // color, so a node's neighbors use at most 2 colors:
                    // parent's (received) and its own former color now on
                    // every child. Nodes of the eliminated class pick a
                    // free color from {0,1,2}.
                    if self.color == target {
                        // After shift-down every child holds this node's
                        // pre-shift color, so the inbox contains at most two
                        // distinct forbidden values: the parent's color and
                        // the (uniform) children's color.
                        let mut forbidden: Vec<u64> = Vec::with_capacity(2);
                        if let Some(pc) = parent_color {
                            forbidden.push(pc);
                        }
                        for (port, msg) in inbox.iter().enumerate() {
                            if Some(port) != self.parent_port {
                                if let Some(c) = msg {
                                    if !forbidden.contains(c) {
                                        forbidden.push(*c);
                                    }
                                }
                            }
                        }
                        // After shift-down children are monochromatic, so
                        // forbidden has ≤ 2 distinct entries.
                        debug_assert!(forbidden.len() <= 2, "children must be uniform");
                        self.color = (0..3u64)
                            .find(|c| !forbidden.contains(c))
                            .expect("≤ 2 forbidden colors in {0,1,2}");
                    }
                    self.shifted = false;
                    self.phase = if target > 3 {
                        Phase::Eliminate(target - 1)
                    } else {
                        Phase::Done
                    };
                }
            }
            Phase::Done => {}
        }
    }

    fn output(&self, _ctx: &NodeCtx) -> Option<u8> {
        matches!(self.phase, Phase::Done).then(|| {
            debug_assert!(self.color < 3);
            self.color as u8
        })
    }
}

impl Protocol for CvForestColoring {
    type Program = CvForestProgram;

    fn spawn(&self, ctx: &NodeCtx) -> CvForestProgram {
        CvForestProgram {
            color: ctx.id,
            parent_port: self.parent_port[ctx.node.index()],
            phase: Phase::Reduce(self.steps.max(1)),
            shifted: false,
        }
    }
}

/// Result of [`three_color_rooted_forest`].
#[derive(Debug, Clone)]
pub struct ForestColoring {
    /// Proper 3-coloring of the forest's nodes.
    pub colors: Vec<u8>,
    /// Rounds used by the fixed schedule.
    pub rounds: u64,
    /// Messages delivered over the run (identical on every engine).
    pub messages: u64,
}

/// 3-colors the nodes of a rooted forest in `O(log* n)` rounds, on
/// whatever engine `rt` carries.
///
/// # Errors
///
/// Propagates [`RunError`] from the executor.
///
/// # Panics
///
/// Panics if `parent` is inconsistent with the graph (a parent that is not
/// a neighbor) or contains a cycle (detected via output validation in debug
/// builds).
pub fn three_color_rooted_forest(
    net: &Network<'_>,
    parent: Vec<Option<NodeId>>,
    rt: &Runtime,
) -> Result<ForestColoring, RunError> {
    let id_bits = 64 - net.max_id().leading_zeros();
    let protocol = CvForestColoring::new(net, &parent, id_bits);
    let budget = protocol.rounds();
    let outcome = rt.execute(net, &protocol, budget + 2)?;
    Ok(ForestColoring {
        colors: outcome.outputs,
        rounds: outcome.rounds,
        messages: outcome.messages,
    })
}

/// Derives a parent assignment for a forest graph by rooting every
/// component at its smallest node id (BFS). Utility for tests/examples.
///
/// # Panics
///
/// Panics if `g` contains a cycle.
pub fn root_forest(g: &Graph) -> Vec<Option<NodeId>> {
    let mut parent: Vec<Option<NodeId>> = vec![None; g.num_nodes()];
    let mut seen = vec![false; g.num_nodes()];
    for s in g.nodes() {
        if seen[s.index()] {
            continue;
        }
        seen[s.index()] = true;
        let mut queue = std::collections::VecDeque::from([s]);
        let mut edges_seen = 0usize;
        let mut nodes_seen = 1usize;
        while let Some(v) = queue.pop_front() {
            for w in g.neighbors(v) {
                edges_seen += 1;
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    parent[w.index()] = Some(v);
                    nodes_seen += 1;
                    queue.push_back(w);
                }
            }
        }
        assert!(edges_seen / 2 == nodes_seen - 1, "graph contains a cycle");
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::{coloring, generators};
    use deco_local::IdAssignment;

    fn check(g: &Graph, assignment: IdAssignment) -> ForestColoring {
        let net = Network::new(g, assignment);
        let parent = root_forest(g);
        let res = three_color_rooted_forest(&net, parent.clone(), &Runtime::serial())
            .expect("terminates");
        let as_u32: Vec<u32> = res.colors.iter().map(|&c| u32::from(c)).collect();
        coloring::check_vertex_coloring(g, &as_u32).expect("proper 3-coloring");
        assert!(res.colors.iter().all(|&c| c < 3));
        res
    }

    #[test]
    fn colors_paths_and_binary_trees() {
        check(&generators::path(50), IdAssignment::Sequential);
        check(&generators::binary_tree(6), IdAssignment::Shuffled(3));
    }

    #[test]
    fn colors_random_trees() {
        for seed in 0..5 {
            check(
                &generators::random_tree(200, seed),
                IdAssignment::Shuffled(seed),
            );
        }
    }

    #[test]
    fn colors_star_forest() {
        // Stars: every leaf is a child of the center — the sibling-heavy
        // case the shift-down phase exists for.
        let g = generators::disjoint_union(&[generators::star(20), generators::star(7)]);
        check(&g, IdAssignment::SparseRandom(9));
    }

    #[test]
    fn rounds_are_logstar() {
        let res = check(&generators::random_tree(5000, 7), IdAssignment::Shuffled(7));
        assert!(res.rounds <= 20, "O(log* n) expected, got {}", res.rounds);
    }

    #[test]
    fn rounds_flat_in_n() {
        let small = check(&generators::path(64), IdAssignment::Sequential).rounds;
        let large = check(&generators::path(16384), IdAssignment::Sequential).rounds;
        assert!(large <= small + 2);
    }

    #[test]
    fn cv_step_separates_parent_chains() {
        // Direct unit check of the bit trick: distinct (own, parent) pairs
        // with own != parent map to colors that differ whenever the pair is
        // chained: cv(a,b) != cv(b,c) for a != b, b != c.
        for a in 0..32u64 {
            for b in 0..32u64 {
                if a == b {
                    continue;
                }
                for c in 0..32u64 {
                    if b == c {
                        continue;
                    }
                    assert_ne!(cv_step(a, b), cv_step(b, c), "a={a} b={b} c={c}");
                }
            }
        }
    }

    #[test]
    fn cv_steps_schedule_is_logstar() {
        assert_eq!(cv_steps(3), 0);
        assert!(cv_steps(64) <= 5);
        assert!(cv_steps(4) >= 1);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn root_forest_rejects_cycles() {
        let _ = root_forest(&generators::cycle(5));
    }
}
