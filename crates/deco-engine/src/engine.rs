//! The parallel round executor.
//!
//! [`ParallelExecutor`] runs the same synchronous schedule as the serial
//! reference runner — send, deliver, receive, repeat — but on a different
//! substrate:
//!
//! * **Flat mailboxes.** All ports live in one CSR-packed arena
//!   ([`MailboxPlan`]); the send phase writes each node's outgoing messages
//!   directly into its slot range, and the receive phase reads each inbox
//!   entry from the sender's slot through the precomputed mirror table —
//!   O(1) per message, no per-round allocation, no adjacency scans.
//! * **Phase parallelism.** Nodes are partitioned into contiguous ranges
//!   balanced by degree; each phase runs one scoped thread per range over
//!   disjoint `&mut` slices, with the scope join as the barrier between
//!   phases. The partition is a pure function of the graph and thread
//!   count, so results are bit-identical for every thread count — including
//!   one — and identical to [`deco_local::runner::run`].
//!
//! Determinism is not best-effort here; it is the contract. The
//! differential suite in `tests/` runs every scenario of the matrix on both
//! executors and demands equal outputs, round counts, and message counts.

use crate::mailbox::{DoubleBuffer, MailboxPlan};
use crate::par::{split_by_weight, split_mut_by_ranges};
use deco_local::arena::PortArena;
use deco_local::network::Network;
use deco_local::runner::{NodeProgram, Protocol, RunError, RunOutcome};
use deco_local::Executor;
use std::ops::Range;

/// Arena slots below which [`ParallelExecutor::auto`] degrades to one range
/// (the spawn/join cost of a phase dwarfs the work; the flat mailbox fast
/// path still applies). An explicit [`ParallelExecutor::with_threads`]
/// request is always honored, so tests can force the threaded path on
/// arbitrarily small graphs. Outputs are identical either way. Shared with
/// the async engine, whose auto mode degrades on the same boundary.
pub(crate) const MIN_PARALLEL_SLOTS: usize = 4096;

/// Which round-execution substrate a [`ParallelExecutor`] dispatches to.
/// Both modes are observationally identical to the serial runner; they
/// differ only in how rounds are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Phase-parallel: global send/receive phases with a scope-join barrier
    /// between them (this file).
    #[default]
    Barrier,
    /// Barrier-free: component-local round clocks with a work-stealing
    /// ready queue ([`crate::async_engine::AsyncExecutor`]).
    Async,
}

/// Multi-threaded, flat-mailbox implementation of [`Executor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelExecutor {
    threads: usize,
    mode: EngineMode,
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        ParallelExecutor::auto()
    }
}

impl ParallelExecutor {
    /// Uses all available hardware parallelism.
    pub fn auto() -> ParallelExecutor {
        ParallelExecutor {
            threads: 0,
            mode: EngineMode::Barrier,
        }
    }

    /// Uses exactly `threads` worker threads (1 = single-threaded engine,
    /// still on the flat-mailbox fast path). Unlike
    /// [`ParallelExecutor::auto`], the request is honored even on tiny
    /// graphs — this is what lets the differential suite drive the threaded
    /// path on every scenario of the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 (use [`ParallelExecutor::auto`]).
    pub fn with_threads(threads: usize) -> ParallelExecutor {
        assert!(
            threads > 0,
            "thread count must be positive; use auto() for hardware default"
        );
        ParallelExecutor {
            threads,
            mode: EngineMode::Barrier,
        }
    }

    /// This executor with its round substrate switched to `mode`; the
    /// thread request is unchanged. `Async` dispatches every
    /// [`Executor::execute`] to the barrier-free
    /// [`AsyncExecutor`](crate::async_engine::AsyncExecutor) — same
    /// observable behavior, component-local scheduling.
    pub fn with_mode(self, mode: EngineMode) -> ParallelExecutor {
        ParallelExecutor { mode, ..self }
    }

    /// The round substrate this executor dispatches to.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// The requested worker thread count (0 = [`ParallelExecutor::auto`]'s
    /// hardware default).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The barrier-free executor carrying this executor's thread request,
    /// used by the [`EngineMode::Async`] dispatch.
    fn async_twin(&self) -> crate::async_engine::AsyncExecutor {
        if self.threads == 0 {
            crate::async_engine::AsyncExecutor::auto()
        } else {
            crate::async_engine::AsyncExecutor::with_threads(self.threads)
        }
    }

    fn effective_threads(&self, slots: usize, n: usize) -> usize {
        if self.threads != 0 {
            return self.threads.min(n.max(1));
        }
        if slots < MIN_PARALLEL_SLOTS {
            1
        } else {
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .min(n.max(1))
        }
    }
}

impl Executor for ParallelExecutor {
    fn execute<P>(
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
        if self.mode == EngineMode::Async {
            return self.async_twin().execute(net, protocol, max_rounds);
        }
        let g = net.graph();
        let n = g.num_nodes();
        let plan = MailboxPlan::new(g);
        let weights: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
        let threads = self.effective_threads(plan.num_slots(), n);
        let ranges = split_by_weight(&weights, threads);

        let mut programs: Vec<P::Program> =
            (0..n).map(|v| protocol.spawn(&net.ctx(v.into()))).collect();
        let mut outputs: Vec<Option<<P::Program as NodeProgram>::Output>> = (0..n)
            .map(|v| programs[v].output(&net.ctx(v.into())))
            .collect();
        // Halting state mirrored into plain bools so the send phase can
        // share it across threads without requiring `Output: Sync`.
        let mut halted: Vec<bool> = outputs.iter().map(Option::is_some).collect();

        let mut bufs: DoubleBuffer<<P::Program as NodeProgram>::Msg> =
            DoubleBuffer::new(plan.num_slots());
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
            messages += send_phase::<P>(
                net,
                &plan,
                &ranges,
                &halted,
                &mut programs,
                bufs.current_mut(),
            );
            drop(send_span);
            let receive_span = deco_trace::round_span(deco_trace::Phase::Receive, rounds);
            receive_phase::<P>(
                net,
                &plan,
                &ranges,
                bufs.current(),
                &mut programs,
                &mut outputs,
                &mut halted,
            );
            drop(receive_span);
            bufs.swap();
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
                .map(|o| o.expect("loop exits when all nodes have halted"))
                .collect(),
            rounds,
            messages,
        })
    }

    /// Branch fan-out on scoped worker threads: branches are packed into
    /// contiguous weight-balanced ranges ([`split_by_weight`]) and each
    /// range runs on its own thread, writing results into its disjoint
    /// chunk of the index-ordered result vector. Assembly by index makes
    /// the output independent of scheduling, so this is observationally
    /// identical to the serial default for every thread count. Branches may
    /// recurse into the executor (nested scopes are fine); an explicit
    /// [`ParallelExecutor::with_threads`] request is honored even for tiny
    /// batches so tests can force the threaded path.
    fn execute_branches<T, F>(&self, weights: &[usize], run: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let n = weights.len();
        if n <= 1 {
            return (0..n).map(run).collect();
        }
        let total: usize = weights.iter().sum();
        let threads = self.effective_threads(total, n);
        let ranges = split_by_weight(weights, threads);
        if ranges.len() <= 1 {
            return (0..n).map(run).collect();
        }
        let mut results: Vec<Option<T>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        std::thread::scope(|scope| {
            for (range, chunk) in ranges
                .iter()
                .zip(split_mut_by_ranges(&mut results, &ranges))
            {
                let run = &run;
                let range = range.clone();
                scope.spawn(move || {
                    for (slot, i) in chunk.iter_mut().zip(range) {
                        *slot = Some(run(i));
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every branch in a range is executed"))
            .collect()
    }
}

/// Send phase: every active node writes its outgoing messages into its own
/// arena slot range; halted nodes' ranges are cleared. Returns the number
/// of messages sent (= delivered, since every written `Some` is read).
///
/// Workers get exclusive payload-slot chunks via
/// [`PortArena::split_writers`]; presence bits go through the shared atomic
/// bitmap, which is what keeps the per-thread slot ranges degree-aligned
/// instead of word-aligned.
fn send_phase<P>(
    net: &Network<'_>,
    plan: &MailboxPlan,
    ranges: &[Range<usize>],
    halted: &[bool],
    programs: &mut [P::Program],
    arena: &mut PortArena<<P::Program as NodeProgram>::Msg>,
) -> u64
where
    P: Protocol,
    P::Program: Send,
    <P::Program as NodeProgram>::Msg: Send + Sync,
{
    let slot_ranges: Vec<Range<usize>> = ranges
        .iter()
        .map(|r| plan.offsets()[r.start]..plan.offsets()[r.end])
        .collect();
    let prog_chunks = split_mut_by_ranges(programs, ranges);
    let writers = arena.split_writers(&slot_ranges);

    let run_chunk =
        |range: Range<usize>,
         progs: &mut [P::Program],
         writer: &mut deco_local::arena::ArenaWriter<'_, <P::Program as NodeProgram>::Msg>|
         -> u64 {
            let mut sent = 0u64;
            for v in range.clone() {
                let ctx = net.ctx(v.into());
                let deg = ctx.degree();
                let base = plan.offset(v.into());
                if halted[v] {
                    for k in base..base + deg {
                        writer.clear(k);
                    }
                    continue;
                }
                let out = progs[v - range.start].send(&ctx);
                let mut it = out.into_iter();
                for k in base..base + deg {
                    // Matches the serial runner: missing entries become vacant,
                    // surplus entries are dropped.
                    let msg = it.next().flatten();
                    if msg.is_some() {
                        sent += 1;
                    }
                    writer.write(k, msg);
                }
            }
            sent
        };

    if ranges.len() <= 1 {
        return match (prog_chunks.into_iter().next(), writers.into_iter().next()) {
            (Some(progs), Some(mut writer)) => run_chunk(ranges[0].clone(), progs, &mut writer),
            _ => 0,
        };
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .zip(prog_chunks)
            .zip(writers)
            .map(|((range, progs), mut writer)| {
                let range = range.clone();
                let run_chunk = &run_chunk;
                scope.spawn(move || run_chunk(range, progs, &mut writer))
            })
            .collect();
        // Join in spawn order: the total is a sum, so the count is
        // deterministic regardless of completion order.
        handles
            .into_iter()
            .map(|h| h.join().expect("send worker panicked"))
            .sum()
    })
}

/// Receive phase: every active node gathers its inbox by reading the
/// mirror slot of each port from the send arena, processes it, and
/// re-evaluates its output.
fn receive_phase<P>(
    net: &Network<'_>,
    plan: &MailboxPlan,
    ranges: &[Range<usize>],
    arena: &PortArena<<P::Program as NodeProgram>::Msg>,
    programs: &mut [P::Program],
    outputs: &mut [Option<<P::Program as NodeProgram>::Output>],
    halted: &mut [bool],
) where
    P: Protocol,
    P::Program: Send,
    <P::Program as NodeProgram>::Msg: Send + Sync,
    <P::Program as NodeProgram>::Output: Send,
{
    let prog_chunks = split_mut_by_ranges(programs, ranges);
    let out_chunks = split_mut_by_ranges(outputs, ranges);
    let halted_chunks = split_mut_by_ranges(halted, ranges);

    let run_chunk = |range: Range<usize>,
                     progs: &mut [P::Program],
                     outs: &mut [Option<<P::Program as NodeProgram>::Output>],
                     halts: &mut [bool]| {
        // One inbox scratch buffer per worker, reused across its nodes.
        let mut inbox: Vec<Option<<P::Program as NodeProgram>::Msg>> = Vec::new();
        for v in range.clone() {
            let i = v - range.start;
            if halts[i] {
                continue;
            }
            let ctx = net.ctx(v.into());
            inbox.clear();
            inbox.extend(
                plan.slots(v.into())
                    .map(|k| arena.clone_out(plan.mirror(k))),
            );
            progs[i].receive(&ctx, &inbox);
            outs[i] = progs[i].output(&ctx);
            halts[i] = outs[i].is_some();
        }
    };

    if ranges.len() <= 1 {
        if let (Some(progs), Some(outs), Some(halts)) = (
            prog_chunks.into_iter().next(),
            out_chunks.into_iter().next(),
            halted_chunks.into_iter().next(),
        ) {
            run_chunk(ranges[0].clone(), progs, outs, halts);
        }
        return;
    }
    std::thread::scope(|scope| {
        for (((range, progs), outs), halts) in ranges
            .iter()
            .zip(prog_chunks)
            .zip(out_chunks)
            .zip(halted_chunks)
        {
            let range = range.clone();
            let run_chunk = &run_chunk;
            scope.spawn(move || run_chunk(range, progs, outs, halts));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_local::network::IdAssignment;
    use deco_local::SerialExecutor;

    use crate::protocols::FloodMax;
    use deco_graph::generators;

    fn assert_identical<O: PartialEq + std::fmt::Debug>(a: &RunOutcome<O>, b: &RunOutcome<O>) {
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn matches_serial_on_a_cycle() {
        let g = generators::cycle(50);
        let net = Network::new(&g, IdAssignment::Shuffled(3));
        let serial = SerialExecutor
            .execute(&net, &FloodMax { radius: 7 }, 100)
            .unwrap();
        for threads in [1, 2, 5] {
            let engine = ParallelExecutor::with_threads(threads)
                .execute(&net, &FloodMax { radius: 7 }, 100)
                .unwrap();
            assert_identical(&serial, &engine);
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
        let g = generators::path(3);
        let net = Network::new(&g, IdAssignment::Sequential);
        let serial = SerialExecutor
            .execute(&net, &FloodMax { radius: 50 }, 5)
            .unwrap_err();
        let engine = ParallelExecutor::with_threads(2)
            .execute(&net, &FloodMax { radius: 50 }, 5)
            .unwrap_err();
        assert_eq!(serial, engine);
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

    #[test]
    fn branch_execution_matches_serial_default() {
        let weights: Vec<usize> = (0..37).map(|i| (i * 13) % 7 + 1).collect();
        let job = |i: usize| (i, (i as u64) * (i as u64) % 101);
        let serial = SerialExecutor.execute_branches(&weights, job);
        for threads in [1, 2, 3, 8, 64] {
            let par = ParallelExecutor::with_threads(threads).execute_branches(&weights, job);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn branch_execution_recurses_through_nested_scopes() {
        // Each outer branch fans out again on the same executor; results
        // must still come back in index order at both levels.
        let exec = ParallelExecutor::with_threads(3);
        let outer = exec.execute_branches(&[1, 1, 1, 1], |i| {
            let inner = exec.execute_branches(&[1, 1, 1], |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        assert_eq!(outer, vec![3, 33, 63, 93]);
    }

    #[test]
    fn branch_execution_handles_empty_and_singleton() {
        let exec = ParallelExecutor::with_threads(4);
        let empty: Vec<u32> = exec.execute_branches(&[], |_| unreachable!());
        assert!(empty.is_empty());
        assert_eq!(exec.execute_branches(&[5], |i| i + 1), vec![1]);
    }

    #[test]
    fn async_mode_dispatches_to_the_barrier_free_engine() {
        let g = generators::cycle(30);
        let net = Network::new(&g, IdAssignment::Shuffled(8));
        let barrier = ParallelExecutor::with_threads(2)
            .execute(&net, &FloodMax { radius: 5 }, 50)
            .unwrap();
        let asynch = ParallelExecutor::with_threads(2)
            .with_mode(EngineMode::Async)
            .execute(&net, &FloodMax { radius: 5 }, 50)
            .unwrap();
        assert_identical(&barrier, &asynch);
        assert_eq!(
            ParallelExecutor::auto().with_mode(EngineMode::Async).mode(),
            EngineMode::Async
        );
    }

    #[test]
    fn mode_knob_parses_like_the_thread_knob() {
        // The parsers are pure (std::env is process-global, so the test
        // drives them directly rather than mutating the environment under
        // concurrently running tests). Whitespace and the two canonical
        // values are accepted; anything else is a structured error naming
        // the variable — it must never silently un-pin the CI matrix.
        use crate::config::parse_mode;
        assert_eq!(parse_mode("").unwrap(), EngineMode::Barrier);
        assert_eq!(parse_mode("0").unwrap(), EngineMode::Barrier);
        assert_eq!(parse_mode(" 0 ").unwrap(), EngineMode::Barrier);
        assert_eq!(parse_mode("1").unwrap(), EngineMode::Async);
        assert_eq!(parse_mode("1\n").unwrap(), EngineMode::Async);
        let err = parse_mode("yes").unwrap_err();
        assert!(err.to_string().contains("must be 0 or 1"));
    }
}
