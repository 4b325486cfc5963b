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

    fn send(&mut self, ctx: &NodeCtx<'_>) -> Vec<Option<u64>> {
        vec![Some(self.best); ctx.degree()]
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

/// Port-consistency check: each node announces `(its id, the port it sends
/// through)` on every port; each node outputs a digest of everything it
/// heard, *keyed by receiving port*. Any delivery bug — wrong mirror port,
/// wrong neighbor, dropped or duplicated message — changes some digest.
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

impl NodeProgram for PortEchoProgram {
    type Msg = (u64, u64);
    type Output = u64;

    fn send(&mut self, ctx: &NodeCtx<'_>) -> Vec<Option<(u64, u64)>> {
        (0..ctx.degree())
            .map(|p| Some((ctx.id, p as u64)))
            .collect()
    }

    fn receive(&mut self, _ctx: &NodeCtx<'_>, inbox: &[Option<(u64, u64)>]) {
        for (port, slot) in inbox.iter().enumerate() {
            let (sender, sender_port) = slot.expect("every neighbor sends every round");
            // Order-sensitive rolling digest over (receiving port, sender,
            // sender's port): any permutation or corruption shows up.
            for x in [port as u64 + 1, sender, sender_port + 1] {
                self.digest = (self.digest.rotate_left(7) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
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
/// outputting the sum of everything it received while alive. Exercises the
/// halted-nodes-stay-silent rule — executors that keep delivering stale
/// slots from halted senders, or that miscount messages once some nodes
/// stop, diverge immediately.
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

    fn send(&mut self, ctx: &NodeCtx<'_>) -> Vec<Option<u64>> {
        // Odd ports stay silent on odd rounds: exercises None slots.
        (0..ctx.degree())
            .map(|p| {
                (p as u64 + self.round)
                    .is_multiple_of(2)
                    .then_some(self.acc + p as u64)
            })
            .collect()
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
    fn port_echo_digest_depends_on_ports() {
        let g = generators::star(3);
        let net = Network::new(&g, IdAssignment::Sequential);
        let out = run(&net, &PortEcho { rounds: 2 }, 10).unwrap();
        // Leaves have one port each but different neighbors' ports: the
        // center's ports 0..3 are distinguished, so digests differ.
        assert_ne!(out.outputs[1], out.outputs[2]);
    }

    #[test]
    fn staggered_sum_halts_at_different_times() {
        let g = generators::cycle(10);
        let net = Network::new(&g, IdAssignment::Sequential);
        let out = run(&net, &StaggeredSum { spread: 4 }, 20).unwrap();
        assert_eq!(out.rounds, 4, "slowest node halts after spread rounds");
    }
}
