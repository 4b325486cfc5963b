//! Stock [`NodeProgram`]s for exercising executors.
//!
//! These protocols are deliberately simple and deterministic — they exist
//! to stress the *substrate* (delivery, halting, round accounting), not to
//! solve interesting problems. The differential suite and the benchmarks
//! run them across the scenario matrix on every executor.
//!
//! Note how every program keys its state transitions off its **own local
//! round counter** (`self.round`), never off any global notion of time —
//! that is all the LOCAL model ever promises (a round-`r` state is a
//! function of the radius-`r` ball). [`StaggeredSum`] is the sharpest
//! stressor here: its nodes halt at ID-dependent local rounds.

use deco_local::network::NodeCtx;
use deco_local::runner::{NodeProgram, Protocol};

/// Every node floods the maximum ID it has seen; halts after `radius`
/// rounds, outputting the maximum ID within distance `radius`.
#[derive(Debug, Clone, Copy)]
pub struct FloodMax {
    /// Rounds to flood (the ball radius the output depends on).
    pub radius: u64,
}

/// Program of [`FloodMax`].
#[derive(Debug)]
pub struct FloodMaxProgram {
    best: u64,
    round: u64,
    radius: u64,
}

impl NodeProgram for FloodMaxProgram {
    type Msg = u64;
    type Output = u64;

    fn send(&mut self, _ctx: &NodeCtx<'_>) -> Option<u64> {
        Some(self.best)
    }

    fn receive(&mut self, _ctx: &NodeCtx<'_>, inbox: &[Option<u64>]) {
        for m in inbox.iter().flatten() {
            self.best = self.best.max(*m);
        }
        self.round += 1;
    }

    fn output(&self, _ctx: &NodeCtx<'_>) -> Option<u64> {
        (self.round >= self.radius).then_some(self.best)
    }
}

impl Protocol for FloodMax {
    type Program = FloodMaxProgram;
    fn spawn(&self, ctx: &NodeCtx<'_>) -> FloodMaxProgram {
        FloodMaxProgram {
            best: ctx.id,
            round: 0,
            radius: self.radius,
        }
    }
}

/// Port-consistency check: each node broadcasts its id every round; each
/// node outputs an order-sensitive digest of `(receiving port, sender id)`
/// over everything it heard. Any delivery bug — an inbox out of port
/// order, a message from the wrong neighbor, a dropped or duplicated
/// message — changes some digest.
#[derive(Debug, Clone, Copy)]
pub struct PortEcho {
    /// Number of echo rounds (every round re-checks delivery).
    pub rounds: u64,
}

/// Program of [`PortEcho`].
#[derive(Debug)]
pub struct PortEchoProgram {
    digest: u64,
    round: u64,
    limit: u64,
}

/// One step of [`PortEcho`]'s rolling digest: folds in what arrived
/// through `port` from the node with id `sender`.
fn echo_step(digest: u64, port: usize, sender: u64) -> u64 {
    [port as u64 + 1, sender].into_iter().fold(digest, |d, x| {
        (d.rotate_left(7) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    })
}

impl NodeProgram for PortEchoProgram {
    type Msg = u64;
    type Output = u64;

    fn send(&mut self, ctx: &NodeCtx<'_>) -> Option<u64> {
        Some(ctx.id)
    }

    fn receive(&mut self, _ctx: &NodeCtx<'_>, inbox: &[Option<u64>]) {
        for (port, slot) in inbox.iter().enumerate() {
            let sender = slot.expect("every neighbor sends every round");
            self.digest = echo_step(self.digest, port, sender);
        }
        self.round += 1;
    }

    fn output(&self, _ctx: &NodeCtx<'_>) -> Option<u64> {
        (self.round >= self.limit).then_some(self.digest)
    }
}

impl Protocol for PortEcho {
    type Program = PortEchoProgram;
    fn spawn(&self, _ctx: &NodeCtx<'_>) -> PortEchoProgram {
        PortEchoProgram {
            digest: 0,
            round: 0,
            limit: self.rounds,
        }
    }
}

/// Staggered halting: node `v` halts after `(id mod spread) + 1` rounds,
/// outputting the sum of everything it received while alive. A node
/// broadcasts only on rounds whose parity matches its id's, so inboxes mix
/// messages and silent (`None`) ports. Exercises the halted-nodes-stay-silent
/// rule — executors that keep delivering stale slots from silent or halted
/// senders, or that miscount messages once some nodes stop, diverge
/// immediately.
#[derive(Debug, Clone, Copy)]
pub struct StaggeredSum {
    /// Halting times are spread over `1..=spread` rounds.
    pub spread: u64,
}

/// Program of [`StaggeredSum`].
#[derive(Debug)]
pub struct StaggeredSumProgram {
    acc: u64,
    round: u64,
    deadline: u64,
}

impl NodeProgram for StaggeredSumProgram {
    type Msg = u64;
    type Output = u64;

    fn send(&mut self, ctx: &NodeCtx<'_>) -> Option<u64> {
        (self.round % 2 == ctx.id % 2).then_some(self.acc)
    }

    fn receive(&mut self, _ctx: &NodeCtx<'_>, inbox: &[Option<u64>]) {
        self.acc = self
            .acc
            .wrapping_add(inbox.iter().flatten().fold(0u64, |a, &m| a.wrapping_add(m)));
        self.round += 1;
    }

    fn output(&self, _ctx: &NodeCtx<'_>) -> Option<u64> {
        (self.round >= self.deadline).then_some(self.acc)
    }
}

impl Protocol for StaggeredSum {
    type Program = StaggeredSumProgram;
    fn spawn(&self, ctx: &NodeCtx<'_>) -> StaggeredSumProgram {
        StaggeredSumProgram {
            acc: ctx.id,
            round: 0,
            deadline: (ctx.id % self.spread) + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::generators;
    use deco_local::network::{IdAssignment, Network};
    use deco_local::runner::run;

    #[test]
    fn flood_max_converges_to_global_max_on_connected_graphs() {
        let g = generators::cycle(9);
        let net = Network::new(&g, IdAssignment::Reversed);
        let out = run(&net, &FloodMax { radius: 9 }, 20).unwrap();
        assert!(out.outputs.iter().all(|&o| o == 9));
    }

    #[test]
    fn port_echo_digest_follows_port_order() {
        let g = generators::star(3);
        let net = Network::new(&g, IdAssignment::Sequential);
        let out = run(&net, &PortEcho { rounds: 2 }, 10).unwrap();
        // The center (node 0) hears leaf `port + 1`, id `port + 2`, through
        // each port, twice. An inbox filled in any other order, or from
        // the wrong neighbors, changes its digest.
        let senders: Vec<u64> = g.neighbors(0usize.into()).map(|u| net.id(u)).collect();
        assert_eq!(senders, [2, 3, 4]);
        let digest = |order: &[u64]| {
            let round = |d| {
                order
                    .iter()
                    .enumerate()
                    .fold(d, |d, (p, &s)| echo_step(d, p, s))
            };
            round(round(0))
        };
        assert_eq!(out.outputs[0], digest(&senders));
        assert_ne!(out.outputs[0], digest(&[4, 3, 2]));
        // Each leaf hears the center (id 1) through its only port.
        assert!(out.outputs[1..].iter().all(|&d| d == digest(&[1])));
    }

    #[test]
    fn staggered_sum_mixes_silent_ports() {
        // Path 1-2-3 with deadlines 2, 3, 1. Round 0: only id 2 (even)
        // broadcasts, over 2 ports; id 3 halts. Round 1: only id 1 is odd
        // and running, over 1 port; it halts. Round 2: id 2 again, over 2
        // ports, one of them to a halted node — messages count the
        // sender's degree.
        let g = generators::path(3);
        let net = Network::new(&g, IdAssignment::Sequential);
        let out = run(&net, &StaggeredSum { spread: 3 }, 10).unwrap();
        assert_eq!(out.rounds, 3);
        assert_eq!(out.messages, 2 + 1 + 2);
        assert_eq!(out.outputs, vec![1 + 2, 2 + (1 + 2), 3 + 2]);
    }

    #[test]
    fn staggered_sum_halts_at_different_times() {
        let g = generators::cycle(10);
        let net = Network::new(&g, IdAssignment::Sequential);
        let out = run(&net, &StaggeredSum { spread: 4 }, 20).unwrap();
        assert_eq!(out.rounds, 4, "slowest node halts after spread rounds");
    }
}
