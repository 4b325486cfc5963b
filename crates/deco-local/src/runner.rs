//! The synchronous round executor for message-passing node programs.
//!
//! A [`NodeProgram`] is the per-node state machine of a LOCAL algorithm. In
//! every round the runner (1) asks each non-halted node for its broadcast,
//! (2) lets each node process the broadcasts of its neighbors, in port
//! order. A node halts by returning `Some(output)` from
//! [`NodeProgram::output`]; the execution stops when all nodes have halted.
//!
//! The runner enforces the model: a node's state can only change through
//! `receive`, and all communication flows through ports. Locality tests
//! (`locality.rs`) exploit this to verify that outputs depend only on
//! radius-T balls.

use crate::network::{Network, NodeCtx};
use deco_graph::NodeId;

/// Per-node state machine of a synchronous message-passing algorithm.
pub trait NodeProgram {
    /// Message payload broadcast to neighbors.
    type Msg: Clone;
    /// Final output of the node.
    type Output: Clone;

    /// This round's broadcast: `Some(msg)` goes out through every port,
    /// `None` sends nothing. A protocol that needs per-neighbor content
    /// broadcasts a payload keyed by neighbor id, and each receiver reads
    /// its own entry.
    fn send(&mut self, ctx: &NodeCtx<'_>) -> Option<Self::Msg>;

    /// Processes the messages received this round: `inbox[i]` arrived
    /// through port `i` (i.e. from the neighbor behind port `i`).
    fn receive(&mut self, ctx: &NodeCtx<'_>, inbox: &[Option<Self::Msg>]);

    /// The node's output once it has halted; `None` while still running.
    fn output(&self, ctx: &NodeCtx<'_>) -> Option<Self::Output>;
}

/// Factory creating one [`NodeProgram`] per node. Implementations typically
/// hold the per-node inputs (initial colors, lists, …).
pub trait Protocol {
    /// The node state machine this protocol spawns.
    type Program: NodeProgram;

    /// Creates the program for node `ctx.node`.
    fn spawn(&self, ctx: &NodeCtx<'_>) -> Self::Program;
}

/// Outcome of running a protocol to completion.
#[derive(Debug, Clone)]
pub struct RunOutcome<O> {
    /// Output of each node, indexed by node id.
    pub outputs: Vec<O>,
    /// Number of communication rounds executed (send+receive pairs).
    pub rounds: u64,
    /// Total number of messages delivered: `deg(v)` for each broadcast of
    /// each node `v`.
    pub messages: u64,
}

/// Error from [`run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Not every node halted within the round limit.
    RoundLimitExceeded {
        /// The limit that was hit.
        limit: u64,
        /// How many nodes were still running.
        still_running: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::RoundLimitExceeded {
                limit,
                still_running,
            } => write!(
                f,
                "round limit {limit} exceeded with {still_running} node(s) still running"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Runs `protocol` on `net` until every node halts or `max_rounds` is hit.
///
/// # Errors
///
/// Returns [`RunError::RoundLimitExceeded`] if some node has not produced an
/// output after `max_rounds` rounds.
pub fn run<P: Protocol>(
    net: &Network<'_>,
    protocol: &P,
    max_rounds: u64,
) -> Result<RunOutcome<<P::Program as NodeProgram>::Output>, RunError> {
    let g = net.graph();
    let n = g.num_nodes();
    let mut programs: Vec<P::Program> = (0..n)
        .map(|v| protocol.spawn(&net.ctx(NodeId::from(v))))
        .collect();
    let mut outputs: Vec<Option<<P::Program as NodeProgram>::Output>> = vec![None; n];
    let mut rounds = 0u64;
    let mut messages = 0u64;

    // Collect initial outputs (0-round algorithms are allowed).
    for v in 0..n {
        outputs[v] = programs[v].output(&net.ctx(NodeId::from(v)));
    }

    // One outbox slot per node, rewritten every send phase, and one inbox
    // scratch buffer, both reused for the whole run.
    let mut outbox: Vec<Option<<P::Program as NodeProgram>::Msg>> = vec![None; n];
    let mut inbox: Vec<Option<<P::Program as NodeProgram>::Msg>> = Vec::new();

    while outputs.iter().any(Option::is_none) {
        if rounds >= max_rounds {
            return Err(RunError::RoundLimitExceeded {
                limit: max_rounds,
                still_running: outputs.iter().filter(|o| o.is_none()).count(),
            });
        }
        let round_span = deco_trace::round_span(deco_trace::Phase::Round, rounds);
        // Send phase: gather every broadcast first (synchronous semantics:
        // everything sent this round is based on last round's state).
        // Halted nodes stay silent.
        let send_span = deco_trace::round_span(deco_trace::Phase::Send, rounds);
        for v in 0..n {
            let ctx = net.ctx(NodeId::from(v));
            outbox[v] = if outputs[v].is_none() {
                programs[v].send(&ctx)
            } else {
                None
            };
            if outbox[v].is_some() {
                messages += ctx.degree() as u64;
            }
        }
        drop(send_span);
        // Receive phase: inbox entry `i` is the outbox slot of the neighbor
        // behind port `i`.
        let receive_span = deco_trace::round_span(deco_trace::Phase::Receive, rounds);
        for v in 0..n {
            if outputs[v].is_none() {
                let v_id = NodeId::from(v);
                let ctx = net.ctx(v_id);
                inbox.clear();
                inbox.extend(g.neighbors(v_id).map(|u| outbox[u.index()].clone()));
                programs[v].receive(&ctx, &inbox);
                outputs[v] = programs[v].output(&ctx);
            }
        }
        drop(receive_span);
        rounds += 1;
        drop(round_span);
    }

    if deco_trace::enabled() {
        deco_trace::count(deco_trace::Counter::Messages, messages);
        deco_trace::count(deco_trace::Counter::Rounds, rounds);
    }

    Ok(RunOutcome {
        outputs: outputs
            .into_iter()
            .map(|o| o.expect("loop exits when all halted"))
            .collect(),
        rounds,
        messages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::IdAssignment;
    use deco_graph::generators;

    /// Each node outputs the maximum ID within distance `radius` by flooding.
    struct MaxIdFlood {
        radius: u64,
    }

    struct MaxIdProgram {
        best: u64,
        round: u64,
        radius: u64,
    }

    impl NodeProgram for MaxIdProgram {
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

    impl Protocol for MaxIdFlood {
        type Program = MaxIdProgram;
        fn spawn(&self, ctx: &NodeCtx<'_>) -> MaxIdProgram {
            MaxIdProgram {
                best: ctx.id,
                round: 0,
                radius: self.radius,
            }
        }
    }

    #[test]
    fn flood_reaches_radius() {
        let g = generators::path(5);
        let net = Network::new(&g, IdAssignment::Sequential); // ids 1..5
        let out = run(&net, &MaxIdFlood { radius: 2 }, 100).unwrap();
        assert_eq!(out.rounds, 2);
        // Node 0 sees ids within distance 2: {1,2,3} -> 3.
        assert_eq!(out.outputs, vec![3, 4, 5, 5, 5]);
    }

    #[test]
    fn zero_round_algorithm() {
        let g = generators::path(3);
        let net = Network::new(&g, IdAssignment::Sequential);
        let out = run(&net, &MaxIdFlood { radius: 0 }, 10).unwrap();
        assert_eq!(out.rounds, 0);
        assert_eq!(out.messages, 0);
        assert_eq!(out.outputs, vec![1, 2, 3]);
    }

    #[test]
    fn round_limit_enforced() {
        let g = generators::path(3);
        let net = Network::new(&g, IdAssignment::Sequential);
        let err = run(&net, &MaxIdFlood { radius: 50 }, 5).unwrap_err();
        assert_eq!(
            err,
            RunError::RoundLimitExceeded {
                limit: 5,
                still_running: 3
            }
        );
    }

    #[test]
    fn message_count_matches_degree_sum() {
        let g = generators::cycle(4);
        let net = Network::new(&g, IdAssignment::Sequential);
        let out = run(&net, &MaxIdFlood { radius: 3 }, 10).unwrap();
        // Every node sends over both ports every round: 8 msgs * 3 rounds.
        assert_eq!(out.messages, 24);
    }

    #[test]
    fn flood_on_disconnected_graph_stays_within_component() {
        let g = generators::disjoint_union(&[generators::path(2), generators::path(2)]);
        let net = Network::new(&g, IdAssignment::Sequential); // ids 1,2,3,4
        let out = run(&net, &MaxIdFlood { radius: 4 }, 10).unwrap();
        assert_eq!(out.outputs, vec![2, 2, 4, 4]);
    }
}
