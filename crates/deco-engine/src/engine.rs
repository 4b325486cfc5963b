//! The parallel round executor.
//!
//! [`ParallelExecutor`] runs the same synchronous schedule as the serial
//! reference runner — send, receive, repeat — but split over threads:
//!
//! * **One outbox slot per node.** Every node broadcasts or stays silent,
//!   so the send phase writes one slot per node, and the receive phase
//!   fills inbox entry `i` from the slot of the neighbor behind port `i`.
//!   The outbox is allocated once per execution and rewritten every round.
//! * **Phase parallelism.** Nodes are partitioned into contiguous ranges
//!   balanced by degree; each phase runs the ranges concurrently over
//!   disjoint `&mut` slices (`par::fan_out`), with the join as the barrier
//!   between phases. The partition is a pure function of the graph and
//!   thread count, so results are bit-identical for every thread count and
//!   identical to [`deco_local::runner::run`].
//! * **Serial below the threshold.** The thread count follows
//!   `par::thread_count`: a network with fewer than
//!   [`MIN_PARALLEL_SLOTS`](crate::par::MIN_PARALLEL_SLOTS) ports gets one
//!   thread whatever was requested, and one range is the serial schedule,
//!   so such a network runs on [`deco_local::runner::run`] itself.
//!
//! Determinism is not best-effort here; it is the contract. The
//! differential suite in `tests/` runs every scenario of the matrix on both
//! executors and demands equal outputs, round counts, and message counts.

use crate::par::{fan_out, split_by_weight, split_mut_by_ranges, thread_count};
use deco_local::network::Network;
use deco_local::runner::{NodeProgram, Protocol, RunError, RunOutcome};
use std::ops::Range;

/// The barrier engine: [`deco_local::runner::run`]'s schedule with each
/// phase split over worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelExecutor {
    threads: usize,
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        ParallelExecutor::auto()
    }
}

impl ParallelExecutor {
    /// Uses all available hardware parallelism on work at or above
    /// [`MIN_PARALLEL_SLOTS`](crate::par::MIN_PARALLEL_SLOTS), and the
    /// calling thread below it.
    pub fn auto() -> ParallelExecutor {
        ParallelExecutor { threads: 0 }
    }

    /// Uses at most `threads` worker threads. The count is a cap under
    /// the engine's thread-count rule: work below
    /// [`MIN_PARALLEL_SLOTS`](crate::par::MIN_PARALLEL_SLOTS) runs on the
    /// calling thread, and 1 runs every network on the serial runner.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 (use [`ParallelExecutor::auto`]).
    pub fn with_threads(threads: usize) -> ParallelExecutor {
        assert!(
            threads > 0,
            "thread count must be positive; use auto() for hardware default"
        );
        ParallelExecutor { threads }
    }

    /// The requested worker thread count (0 = [`ParallelExecutor::auto`]'s
    /// hardware default); the thread-count rule caps it per execution.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `protocol` on `net` until every node halts or `max_rounds` is
    /// hit, observationally identical to [`deco_local::runner::run`].
    ///
    /// # Errors
    ///
    /// Returns [`RunError::RoundLimitExceeded`] exactly when the serial
    /// runner would.
    pub fn execute<P>(
        &self,
        net: &Network<'_>,
        protocol: &P,
        max_rounds: u64,
    ) -> Result<RunOutcome<<P::Program as NodeProgram>::Output>, RunError>
    where
        P: Protocol,
        P::Program: Send,
        <P::Program as NodeProgram>::Msg: Send + Sync,
        <P::Program as NodeProgram>::Output: Send,
    {
        let n = net.num_nodes();
        let ranges = match thread_count(self.threads, net.num_ports(), n) {
            1 => Vec::new(),
            threads => {
                let weights: Vec<usize> = (0..n).map(|v| net.degree(v.into())).collect();
                split_by_weight(&weights, threads)
            }
        };
        // One range is the serial schedule without the fan-out: run it on
        // the reference runner, with no thread to spawn.
        if ranges.len() <= 1 {
            return deco_local::runner::run(net, protocol, max_rounds);
        }

        let mut programs: Vec<P::Program> =
            (0..n).map(|v| protocol.spawn(&net.ctx(v.into()))).collect();
        let mut outputs: Vec<Option<<P::Program as NodeProgram>::Output>> = (0..n)
            .map(|v| programs[v].output(&net.ctx(v.into())))
            .collect();
        // Halting state mirrored into plain bools so the send phase can
        // share it across threads without requiring `Output: Sync`.
        let mut halted: Vec<bool> = outputs.iter().map(Option::is_some).collect();

        // One outbox slot per node for the whole run: every send phase
        // rewrites every slot, so a receive phase only ever reads its round.
        let mut outbox: Vec<Option<<P::Program as NodeProgram>::Msg>> = vec![None; n];
        let mut rounds = 0u64;
        let mut messages = 0u64;

        while halted.iter().any(|h| !h) {
            if rounds >= max_rounds {
                return Err(RunError::RoundLimitExceeded {
                    limit: max_rounds,
                    still_running: halted.iter().filter(|h| !**h).count(),
                });
            }
            let round_span = deco_trace::round_span(deco_trace::Phase::Round, rounds);
            let send_span = deco_trace::round_span(deco_trace::Phase::Send, rounds);
            messages += send_phase::<P>(net, &ranges, &halted, &mut programs, &mut outbox);
            drop(send_span);
            let receive_span = deco_trace::round_span(deco_trace::Phase::Receive, rounds);
            receive_phase::<P>(
                net,
                &ranges,
                &outbox,
                &mut programs,
                &mut outputs,
                &mut halted,
            );
            drop(receive_span);
            rounds += 1;
            drop(round_span);
        }

        deco_local::runner::count_execution(rounds, messages);

        Ok(RunOutcome {
            outputs: outputs
                .into_iter()
                .map(|o| o.expect("loop exits when all nodes have halted"))
                .collect(),
            rounds,
            messages,
        })
    }
}

/// Send phase: every active node writes its broadcast into its own outbox
/// slot; halted nodes' slots are cleared. Each worker owns its range's
/// chunk of the outbox. Returns the number of messages sent: `deg(v)` for
/// every broadcasting node `v`.
fn send_phase<P>(
    net: &Network<'_>,
    ranges: &[Range<usize>],
    halted: &[bool],
    programs: &mut [P::Program],
    outbox: &mut [Option<<P::Program as NodeProgram>::Msg>],
) -> u64
where
    P: Protocol,
    P::Program: Send,
    <P::Program as NodeProgram>::Msg: Send + Sync,
{
    let parts = ranges
        .iter()
        .cloned()
        .zip(split_mut_by_ranges(programs, ranges))
        .zip(split_mut_by_ranges(outbox, ranges));
    fan_out(parts, |((range, progs), slots)| {
        let mut sent = 0u64;
        for (i, v) in range.enumerate() {
            let ctx = net.ctx(v.into());
            slots[i] = if halted[v] { None } else { progs[i].send(&ctx) };
            if slots[i].is_some() {
                sent += ctx.degree as u64;
            }
        }
        sent
    })
    .into_iter()
    .sum()
}

/// Receive phase: every active node gathers its inbox from its neighbors'
/// outbox slots in port order, processes it, and re-evaluates its output.
fn receive_phase<P>(
    net: &Network<'_>,
    ranges: &[Range<usize>],
    outbox: &[Option<<P::Program as NodeProgram>::Msg>],
    programs: &mut [P::Program],
    outputs: &mut [Option<<P::Program as NodeProgram>::Output>],
    halted: &mut [bool],
) where
    P: Protocol,
    P::Program: Send,
    <P::Program as NodeProgram>::Msg: Send + Sync,
    <P::Program as NodeProgram>::Output: Send,
{
    let parts = ranges
        .iter()
        .cloned()
        .zip(split_mut_by_ranges(programs, ranges))
        .zip(split_mut_by_ranges(outputs, ranges))
        .zip(split_mut_by_ranges(halted, ranges));
    fan_out(parts, |(((range, progs), outs), halts)| {
        // One inbox scratch buffer per worker, reused across its nodes.
        let mut inbox: Vec<Option<<P::Program as NodeProgram>::Msg>> = Vec::new();
        for (i, v) in range.enumerate() {
            if halts[i] {
                continue;
            }
            let ctx = net.ctx(v.into());
            inbox.clear();
            inbox.extend(net.neighbors(v.into()).map(|u| outbox[u.index()].clone()));
            progs[i].receive(&ctx, &inbox);
            outs[i] = progs[i].output(&ctx);
            halts[i] = outs[i].is_some();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_local::network::IdAssignment;
    use deco_local::runner;

    use crate::par::MIN_PARALLEL_SLOTS;
    use crate::protocols::FloodMax;
    use deco_graph::generators;

    fn assert_identical<O: PartialEq + std::fmt::Debug>(a: &RunOutcome<O>, b: &RunOutcome<O>) {
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn matches_serial_on_a_cycle() {
        // One cycle on each side of the threshold: the serial runner below
        // it, the threaded phases at and above it.
        for n in [50, MIN_PARALLEL_SLOTS / 2] {
            let g = generators::cycle(n);
            let net = Network::new(&g, IdAssignment::Shuffled(3));
            let serial = runner::run(&net, &FloodMax { radius: 7 }, 100).unwrap();
            for threads in [1, 2, 5] {
                let engine = ParallelExecutor::with_threads(threads)
                    .execute(&net, &FloodMax { radius: 7 }, 100)
                    .unwrap();
                assert_identical(&serial, &engine);
            }
        }
    }

    #[test]
    fn zero_round_protocols_short_circuit() {
        let g = generators::path(4);
        let net = Network::new(&g, IdAssignment::Sequential);
        let out = ParallelExecutor::auto()
            .execute(&net, &FloodMax { radius: 0 }, 5)
            .unwrap();
        assert_eq!(out.rounds, 0);
        assert_eq!(out.messages, 0);
        assert_eq!(out.outputs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn round_limit_error_matches_serial() {
        for n in [3, MIN_PARALLEL_SLOTS] {
            let g = generators::path(n);
            let net = Network::new(&g, IdAssignment::Sequential);
            let serial = runner::run(&net, &FloodMax { radius: 50 }, 5).unwrap_err();
            let engine = ParallelExecutor::with_threads(2)
                .execute(&net, &FloodMax { radius: 50 }, 5)
                .unwrap_err();
            assert_eq!(serial, engine, "path({n})");
        }
    }

    #[test]
    fn empty_graph_executes() {
        let g = deco_graph::Graph::empty(3);
        let net = Network::new(&g, IdAssignment::Sequential);
        let out = ParallelExecutor::auto()
            .execute(&net, &FloodMax { radius: 2 }, 5)
            .unwrap();
        // Radius > 0 on isolated nodes: rounds pass without messages.
        assert_eq!(out.messages, 0);
        assert_eq!(out.outputs, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threads_rejected() {
        let _ = ParallelExecutor::with_threads(0);
    }
}
