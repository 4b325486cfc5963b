//! Sharded execution: the network partitioned into degree-balanced shards
//! with a cross-shard mailbox exchange.
//!
//! A [`ShardPlan`] cuts the node space into contiguous shards (same
//! `split_by_weight` balance as the thread engines), every shard runs its
//! own programs against its own slice of the mailbox arena, and only the
//! **cut edges** — edges whose endpoints live in different shards — ever
//! cross a boundary. Each cut edge surfaces in both shards as a *ghost
//! port*: the local port whose mirror slot is remote, fed once per round by
//! the **cut exchange** instead of by a local arena read. In the LOCAL
//! model this is all a shard boundary can ever be: only round-`r` messages
//! cross edges, so the cut traffic per round is exactly the cut ports, and
//! everything else is shard-private.
//!
//! [`ShardedExecutor`] is the in-process sharded engine, a drop-in
//! [`Executor`]: one worker thread per shard, boundary messages swapped
//! through two-round parity buffers, and shard progress coordinated by a
//! shard-level round clock with the same depth-1 lookahead invariant the
//! barrier-free engine uses per node (a shard publishes round `r` only
//! after every other unfinished shard consumed round `r − 2`, so adjacent
//! shards drift by at most one completed round and two parity buffers per
//! boundary suffice). Because every entry point in the algorithm stack
//! takes the unified runtime handle (whose engine is an [`Executor`]), the
//! whole pipeline — Linial, Luby, the Theorem 4.1 solver — runs sharded
//! unchanged, and the four-way differential suite holds it to the serial
//! runner's outputs, rounds, messages, and errors bit for bit.

pub mod plan;
mod worker;

pub use plan::ShardPlan;

use deco_local::arena::PortArena;
use deco_local::network::Network;
use deco_local::runner::{NodeProgram, Protocol, RunError, RunOutcome};
use deco_local::Executor;
use std::panic::AssertUnwindSafe;
use std::sync::{Condvar, Mutex};
use worker::ShardWorker;

/// Panic payload used when a shard worker aborts because a *sibling*
/// panicked first; the join loop prefers the original payload over this.
const SIBLING_PANIC: &str = "sharded sibling worker panicked";

/// The message type of protocol `P`.
type MsgOf<P> = <<P as Protocol>::Program as NodeProgram>::Msg;

/// Two-round parity buffers of one shard's cut-out arenas:
/// `ring[r % 2]` holds the round-`r` boundary messages (one dense
/// [`PortArena`] slot per cut port, ghost-index order), safe because the
/// shard clock's capacity predicate keeps shard drift within one round.
type ParityRing<M> = Mutex<[PortArena<M>; 2]>;

/// Sharded, multi-worker implementation of [`Executor`]: the graph is
/// partitioned by a [`ShardPlan`], each shard runs on its own worker
/// thread, and boundary messages cross through the clock-driven cut
/// exchange. Observationally identical to the serial runner for every
/// protocol, shard count, and thread count — enforced by the four-way
/// differential suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedExecutor {
    shards: usize,
    threads_per_shard: usize,
}

impl ShardedExecutor {
    /// An executor over `shards` shards (degrading gracefully when the
    /// graph has fewer nodes than shards), one thread per shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn new(shards: usize) -> ShardedExecutor {
        assert!(shards > 0, "shard count must be positive");
        ShardedExecutor {
            shards,
            threads_per_shard: 1,
        }
    }

    /// This executor with each shard's send/receive phases fanned out over
    /// `threads` intra-shard threads (1 = each shard is single-threaded).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    pub fn with_threads_per_shard(self, threads: usize) -> ShardedExecutor {
        assert!(threads > 0, "thread count must be positive");
        ShardedExecutor {
            threads_per_shard: threads,
            ..self
        }
    }

    /// The requested shard count.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Intra-shard phase threads per shard.
    #[inline]
    pub fn threads_per_shard(&self) -> usize {
        self.threads_per_shard
    }
}

/// Shard-level round clock: `sent[s]` / `recv[s]` count the rounds shard
/// `s` has published into / consumed from the exchange, `finished[s]` marks
/// shards whose nodes have all halted (or been capped at the round limit).
/// The predicates mirror the node-level async clock one granularity up:
///
/// * **capacity** — shard `s` may publish round `r` once every unfinished
///   shard has consumed round `r − 2` (the parity buffer round `r`
///   overwrites is then dead everywhere);
/// * **availability** — shard `s` may consume round `r` once every other
///   shard has published round `r` or finished before it (a finished
///   shard's nodes are all halted, i.e. silent forever).
///
/// Both predicates are monotone, so the standard minimal-shard argument
/// gives deadlock-freedom, and any schedule respecting them reproduces the
/// synchronous execution bit for bit.
struct ShardClock {
    state: Mutex<ClockState>,
    changed: Condvar,
}

struct ClockState {
    sent: Vec<u64>,
    recv: Vec<u64>,
    finished: Vec<bool>,
    /// Set when a worker panicked: all waiters abort instead of hanging.
    poisoned: bool,
}

impl ShardClock {
    /// Locks the clock state, recovering from std poisoning: a worker that
    /// panics inside a wait poisons the mutex, but the `poisoned` flag (set
    /// by the panicking worker's unwind hook) is the real signal — the
    /// state itself is plain counters and always consistent.
    fn lock(&self) -> std::sync::MutexGuard<'_, ClockState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn new(shards: usize) -> ShardClock {
        ShardClock {
            state: Mutex::new(ClockState {
                sent: vec![0; shards],
                recv: vec![0; shards],
                finished: vec![false; shards],
                poisoned: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Blocks until shard `s` may publish round `r` (capacity predicate).
    fn wait_capacity(&self, s: usize, r: u64) {
        let mut st = self.lock();
        loop {
            if st.poisoned {
                drop(st);
                panic!("{SIBLING_PANIC}");
            }
            let ok = (0..st.sent.len()).all(|t| t == s || st.finished[t] || st.recv[t] + 2 >= r);
            if ok {
                return;
            }
            st = self
                .changed
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Blocks until shard `s` may consume round `r` (availability
    /// predicate).
    fn wait_available(&self, s: usize, r: u64) {
        let mut st = self.lock();
        loop {
            if st.poisoned {
                drop(st);
                panic!("{SIBLING_PANIC}");
            }
            let ok = (0..st.sent.len()).all(|t| t == s || st.finished[t] || st.sent[t] >= r);
            if ok {
                return;
            }
            st = self
                .changed
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn mark_sent(&self, s: usize, r: u64) {
        self.lock().sent[s] = r;
        self.changed.notify_all();
    }

    fn mark_recv(&self, s: usize, r: u64) {
        self.lock().recv[s] = r;
        self.changed.notify_all();
    }

    fn mark_finished(&self, s: usize) {
        self.lock().finished[s] = true;
        self.changed.notify_all();
    }

    /// One-lock snapshot of every shard's published-round counter, used by
    /// the gather step to decide between a parity-buffer read and
    /// halted-silence per source shard. Sound to act on after release:
    /// the counters are monotone, and a shard that stopped below a round
    /// (finished) never publishes again.
    fn sent_snapshot(&self) -> Vec<u64> {
        self.lock().sent.clone()
    }

    fn poison(&self) {
        self.lock().poisoned = true;
        self.changed.notify_all();
    }
}

/// What one shard worker reports back after its loop ends.
struct ShardReport<O> {
    outputs: Vec<O>,
    messages: u64,
    max_halt: u64,
    /// Nodes still active when the shard hit the round limit (0 when the
    /// shard finished cleanly).
    capped: usize,
}

impl Executor for ShardedExecutor {
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
        let g = net.graph();
        let n = g.num_nodes();
        if n == 0 {
            if deco_trace::enabled() {
                deco_trace::count(deco_trace::Counter::Messages, 0);
                deco_trace::count(deco_trace::Counter::Rounds, 0);
            }
            return Ok(RunOutcome {
                outputs: Vec::new(),
                rounds: 0,
                messages: 0,
            });
        }
        let execute_span = deco_trace::span(deco_trace::Phase::Execute);
        let plan = ShardPlan::new(g, self.shards);
        let k = plan.shards();

        // Spawn every program on the caller thread (the protocol value
        // itself never crosses threads), then hand each shard its chunk.
        let mut programs: Vec<P::Program> =
            (0..n).map(|v| protocol.spawn(&net.ctx(v.into()))).collect();
        let mut chunks: Vec<Vec<P::Program>> = Vec::with_capacity(k);
        for s in (0..k).rev() {
            chunks.push(programs.split_off(plan.node_range(s).start));
        }
        chunks.reverse();

        let clock = ShardClock::new(k);
        // Two-round parity buffers per shard: `rings[s][r % 2]` holds shard
        // `s`'s round-`r` cut-out arena. Depth 1 of shard drift is exactly
        // what two parities cover (see ShardClock).
        let rings: Vec<ParityRing<MsgOf<P>>> = (0..k)
            .map(|_| Mutex::new([PortArena::new(0), PortArena::new(0)]))
            .collect();

        let reports: Vec<ShardReport<<P::Program as NodeProgram>::Output>> = if k == 1 {
            let worker = ShardWorker::<P>::with_programs(
                net,
                &plan,
                0,
                self.threads_per_shard,
                chunks.pop().expect("one chunk per shard"),
            );
            vec![run_shard(worker, 0, &clock, &rings, &plan, max_rounds)]
        } else {
            let threads_per_shard = self.threads_per_shard;
            let plan = &plan;
            let clock = &clock;
            let rings = &rings;
            std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .enumerate()
                    .map(|(s, chunk)| {
                        scope.spawn(move || {
                            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                let worker = ShardWorker::<P>::with_programs(
                                    net,
                                    plan,
                                    s,
                                    threads_per_shard,
                                    chunk,
                                );
                                run_shard(worker, s, clock, rings, plan, max_rounds)
                            }));
                            match run {
                                Ok(report) => report,
                                Err(payload) => {
                                    // Wake sleeping siblings before unwinding
                                    // or they would hang the scope join.
                                    clock.poison();
                                    std::panic::resume_unwind(payload);
                                }
                            }
                        })
                    })
                    .collect();
                let mut reports = Vec::with_capacity(k);
                let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
                for h in handles {
                    match h.join() {
                        Ok(r) => reports.push(r),
                        Err(payload) => {
                            // Prefer the original panic over the sibling
                            // echoes it triggers through the poisoned clock.
                            let is_echo = payload
                                .downcast_ref::<String>()
                                .is_some_and(|m| m.contains(SIBLING_PANIC));
                            if panic_payload.is_none() || !is_echo {
                                panic_payload = Some(payload);
                            }
                        }
                    }
                }
                if let Some(payload) = panic_payload {
                    std::panic::resume_unwind(payload);
                }
                reports
            })
        };

        let still_running: usize = reports.iter().map(|r| r.capped).sum();
        if still_running > 0 {
            execute_span.cancel();
            return Err(RunError::RoundLimitExceeded {
                limit: max_rounds,
                still_running,
            });
        }
        let rounds = reports.iter().map(|r| r.max_halt).max().unwrap_or(0);
        let messages = reports.iter().map(|r| r.messages).sum();
        drop(execute_span);
        if deco_trace::enabled() {
            deco_trace::count(deco_trace::Counter::Messages, messages);
            deco_trace::count(deco_trace::Counter::Rounds, rounds);
        }
        Ok(RunOutcome {
            outputs: reports.into_iter().flat_map(|r| r.outputs).collect(),
            rounds,
            messages,
        })
    }

    /// Branch fan-out is round-free, so shard boundaries buy nothing
    /// there: branches fan out over at most `shards × threads_per_shard`
    /// threads through the phase-parallel engine, under its thread-count
    /// rule (`par::thread_count`), index-ordered like every
    /// executor.
    fn execute_branches<T, F>(&self, weights: &[usize], run: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        crate::engine::ParallelExecutor::with_threads(self.shards * self.threads_per_shard)
            .execute_branches(weights, run)
    }
}

/// One shard's whole execution: alternate [`ShardWorker::send_phase`] and
/// [`ShardWorker::receive_phase`] under the clock predicates until every
/// local node halts or the round limit caps the shard. See [`ShardClock`]
/// for why this reproduces the synchronous execution exactly.
fn run_shard<P>(
    mut worker: ShardWorker<'_, '_, P>,
    s: usize,
    clock: &ShardClock,
    rings: &[ParityRing<MsgOf<P>>],
    plan: &ShardPlan,
    max_rounds: u64,
) -> ShardReport<<P::Program as NodeProgram>::Output>
where
    P: Protocol,
    P::Program: Send,
    <P::Program as NodeProgram>::Msg: Send + Sync,
    <P::Program as NodeProgram>::Output: Send,
{
    let mut messages = 0u64;
    let mut capped = 0usize;
    while worker.active() > 0 {
        let r = worker.completed_rounds();
        if r >= max_rounds {
            capped = worker.active();
            break;
        }
        let rr = r + 1;
        clock.wait_capacity(s, rr);
        let (cut_out, sent) = worker.send_phase();
        messages += sent;
        rings[s]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)[(rr % 2) as usize] = cut_out;
        clock.mark_sent(s, rr);
        clock.wait_available(s, rr);
        // Gather: one clock snapshot and at most one ring lock per *source
        // shard*, not per cut port — on dense graphs the cut approaches
        // (k−1)/k of the edges, and per-port locking would put thousands
        // of mutex round-trips on the hot exchange path. The snapshot is
        // sound because `sent` is monotone and finished shards never send
        // again: a source below `rr` now stays below `rr` forever (its
        // nodes all halted earlier → silence), and a source at `rr` keeps
        // its parity slot alive until we mark this round received.
        let route = plan.route(s);
        let sent = clock.sent_snapshot();
        let mut ghost_in: PortArena<<P::Program as NodeProgram>::Msg> = PortArena::new(route.len());
        for (t, ring) in rings.iter().enumerate() {
            if t == s || sent[t] < rr {
                continue;
            }
            let ring = ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let slot = &ring[(rr % 2) as usize];
            for (i, &(rt, j)) in route.iter().enumerate() {
                if rt as usize == t {
                    ghost_in.write(i, slot.clone_out(j as usize));
                }
            }
        }
        worker.receive_phase(&ghost_in);
        clock.mark_recv(s, rr);
    }
    clock.mark_finished(s);
    ShardReport {
        max_halt: worker.max_halt_round(),
        capped,
        messages,
        outputs: if capped == 0 {
            worker.into_outputs()
        } else {
            Vec::new()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{FloodMax, PortEcho, StaggeredSum};
    use deco_graph::generators;
    use deco_local::network::IdAssignment;
    use deco_local::SerialExecutor;

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
        for shards in [1, 2, 4, 7] {
            for threads in [1, 2] {
                let sharded = ShardedExecutor::new(shards)
                    .with_threads_per_shard(threads)
                    .execute(&net, &FloodMax { radius: 7 }, 100)
                    .unwrap();
                assert_identical(&serial, &sharded);
            }
        }
    }

    #[test]
    fn port_delivery_is_exact_across_cuts() {
        let g = generators::random_regular(48, 5, 11);
        let net = Network::new(&g, IdAssignment::SparseRandom(5));
        let serial = SerialExecutor
            .execute(&net, &PortEcho { rounds: 4 }, 10)
            .unwrap();
        for shards in [2, 3, 4] {
            let sharded = ShardedExecutor::new(shards)
                .execute(&net, &PortEcho { rounds: 4 }, 10)
                .unwrap();
            assert_identical(&serial, &sharded);
        }
    }

    #[test]
    fn staggered_halting_crosses_shards() {
        let g = generators::disjoint_union(&[
            generators::cycle(17),
            generators::star(6),
            generators::complete(5),
            deco_graph::Graph::empty(3),
        ]);
        let net = Network::new(&g, IdAssignment::Shuffled(9));
        let serial = SerialExecutor
            .execute(&net, &StaggeredSum { spread: 6 }, 20)
            .unwrap();
        for shards in [2, 4] {
            for threads in [1, 2] {
                let sharded = ShardedExecutor::new(shards)
                    .with_threads_per_shard(threads)
                    .execute(&net, &StaggeredSum { spread: 6 }, 20)
                    .unwrap();
                assert_identical(&serial, &sharded);
            }
        }
    }

    #[test]
    fn round_limit_error_matches_serial() {
        let g = generators::path(9);
        let net = Network::new(&g, IdAssignment::Sequential);
        let serial = SerialExecutor
            .execute(&net, &FloodMax { radius: 50 }, 5)
            .unwrap_err();
        for shards in [1, 2, 3] {
            let sharded = ShardedExecutor::new(shards)
                .execute(&net, &FloodMax { radius: 50 }, 5)
                .unwrap_err();
            assert_eq!(serial, sharded);
        }
    }

    #[test]
    fn zero_round_budget_errors_like_serial() {
        let g = generators::cycle(6);
        let net = Network::new(&g, IdAssignment::Sequential);
        let serial = SerialExecutor
            .execute(&net, &FloodMax { radius: 2 }, 0)
            .unwrap_err();
        let sharded = ShardedExecutor::new(2)
            .execute(&net, &FloodMax { radius: 2 }, 0)
            .unwrap_err();
        assert_eq!(serial, sharded);
    }

    #[test]
    fn zero_round_protocols_short_circuit() {
        let g = generators::path(8);
        let net = Network::new(&g, IdAssignment::Sequential);
        let out = ShardedExecutor::new(3)
            .execute(&net, &FloodMax { radius: 0 }, 5)
            .unwrap();
        assert_eq!(out.rounds, 0);
        assert_eq!(out.messages, 0);
        assert_eq!(out.outputs, (1..=8).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_tiny_graphs_execute() {
        let empty = deco_graph::Graph::empty(0);
        let net = Network::new(&empty, IdAssignment::Sequential);
        let out = ShardedExecutor::new(4)
            .execute(&net, &FloodMax { radius: 3 }, 5)
            .unwrap();
        assert!(out.outputs.is_empty());

        let single = deco_graph::Graph::empty(1);
        let net = Network::new(&single, IdAssignment::Sequential);
        let out = ShardedExecutor::new(4)
            .execute(&net, &FloodMax { radius: 2 }, 5)
            .unwrap();
        assert_eq!(out.outputs, vec![1]);
        assert_eq!(out.rounds, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_shards_rejected() {
        let _ = ShardedExecutor::new(0);
    }

    #[test]
    fn branch_execution_matches_serial_default() {
        let weights: Vec<usize> = (0..19).map(|i| ((i * 5) % 4 + 1) * 128).collect();
        assert!(weights.iter().sum::<usize>() >= crate::par::MIN_PARALLEL_SLOTS);
        let job = |i: usize| (i, (i as u64).pow(2) % 13);
        let serial = SerialExecutor.execute_branches(&weights, job);
        for shards in [1, 2, 4] {
            let sharded = ShardedExecutor::new(shards)
                .with_threads_per_shard(2)
                .execute_branches(&weights, job);
            assert_eq!(serial, sharded, "shards={shards}");
        }
    }

    #[test]
    fn worker_panic_propagates_without_hanging() {
        struct PanicAtRound2;
        struct PanicProgram {
            round: u64,
        }
        impl NodeProgram for PanicProgram {
            type Msg = u64;
            type Output = u64;
            fn send(&mut self, ctx: &deco_local::network::NodeCtx<'_>) -> Vec<Option<u64>> {
                // Only the first node panics; the other shard's worker must
                // still be released from its clock waits.
                if self.round == 2 && ctx.node.index() == 0 {
                    panic!("protocol exploded");
                }
                vec![Some(1); ctx.degree()]
            }
            fn receive(&mut self, _: &deco_local::network::NodeCtx<'_>, _: &[Option<u64>]) {
                self.round += 1;
            }
            fn output(&self, _: &deco_local::network::NodeCtx<'_>) -> Option<u64> {
                (self.round >= 100).then_some(0)
            }
        }
        impl Protocol for PanicAtRound2 {
            type Program = PanicProgram;
            fn spawn(&self, _: &deco_local::network::NodeCtx<'_>) -> PanicProgram {
                PanicProgram { round: 0 }
            }
        }
        let g = generators::cycle(12);
        let net = Network::new(&g, IdAssignment::Sequential);
        let result = std::panic::catch_unwind(|| {
            let _ = ShardedExecutor::new(3).execute(&net, &PanicAtRound2, 200);
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("protocol exploded"), "got: {msg}");
    }
}
