//! The barrier-free round executor.
//!
//! [`AsyncExecutor`] runs the same LOCAL-model protocols as the serial
//! runner and the phase-parallel [`ParallelExecutor`](crate::engine), but
//! with **no global barrier at all**: every node carries its own local
//! round counter ([`RoundClock`]) and advances the instant its inputs are
//! ready. Disconnected components drift arbitrarily far apart; within a
//! component, frontier nodes run ahead of laggards by up to one round
//! (the depth-1 lookahead invariant — see below). The scenario matrix's
//! disconnected families are where this visibly pays off: a tiny component
//! finishes its whole execution while a large one is still in round 1,
//! instead of idling through every global round.
//!
//! # Why outputs stay deterministic without a barrier
//!
//! A synchronous execution is a dataflow DAG: the state of node `v` after
//! local round `r` is a pure function of `v`'s initial state and exactly
//! the round-`r` inboxes, which are in turn the round-`r` sends of its
//! neighbors — nothing else. The async engine executes *that same DAG*,
//! merely in a different topological order:
//!
//! * a node **receives** local round `r` only once every neighbor has
//!   either published its round-`r` messages or halted before round `r`
//!   (availability — halted nodes are silent forever, exactly as under
//!   the barrier);
//! * a node **sends** local round `r` only once every active neighbor has
//!   consumed round `r - 2` (capacity), so the two-parity ring slot it
//!   overwrites is dead. This bounds the drift between *adjacent* nodes
//!   to one completed round — the depth-1 lookahead invariant — which is
//!   why a [`RingBuffer`] with exactly two rounds per port suffices.
//!
//! Both predicates are monotone, so any scheduler that respects them —
//! including this one's work-stealing ready queue, under any thread count
//! and any interleaving — feeds every `receive` call the bit-identical
//! inbox the serial runner would have built. Outputs, per-node halting
//! rounds (hence the global round count, their maximum), and message
//! counts are therefore equal to the serial runner's on every protocol and
//! every network; the three-way differential suite enforces this. The only
//! schedule-dependent quantities are the *measurements* in [`AsyncStats`],
//! which exist to show the asynchrony, not to define semantics.
//!
//! Deadlock-freedom: order nodes by `(received, sent)`. A minimally
//! advanced non-finished node can always act — its capacity predicate only
//! consults neighbors at least as advanced as itself, and if it waits on
//! availability, the neighbor it waits on can send (by the same minimality
//! argument). So some ready node always exists until all nodes finish.

use crate::clock::RoundClock;
use crate::engine::{EngineMode, ParallelExecutor};
use crate::mailbox::{MailboxPlan, RingBuffer};
use crate::par::{split_by_weight, WorkQueue};
use deco_graph::Graph;
use deco_local::network::Network;
use deco_local::runner::{NodeProgram, Protocol, RunError, RunOutcome};
use deco_local::Executor;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Scheduler state of a node: blocked on a clock predicate, awaiting a
/// worker, on a worker, or finished. Only `IDLE -> QUEUED` is contended
/// (any neighbor's worker may perform it, via compare-exchange); all other
/// transitions are made by the worker currently running the node.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const DONE: u8 = 3;

/// Barrier-free, component-local-clock implementation of [`Executor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncExecutor {
    threads: usize,
}

impl Default for AsyncExecutor {
    fn default() -> Self {
        AsyncExecutor::auto()
    }
}

/// Schedule-dependent measurements of one barrier-free execution. These
/// quantify the asynchrony; they are deliberately *outside* the
/// determinism contract (outputs, rounds, messages), except where noted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncStats {
    /// Mean over all receive events of "how many rounds the globally
    /// furthest node was ahead of the receiving node, plus one". Under a
    /// global barrier this is pinned to 1; values above 1 are rounds that
    /// genuinely overlapped. Schedule-dependent.
    pub mean_rounds_in_flight: f64,
    /// Maximum of the same sample. Schedule-dependent.
    pub max_rounds_in_flight: u64,
    /// Number of receive events sampled (= total node-rounds executed).
    /// Deterministic.
    pub samples: u64,
    /// The global round count a barrier engine would report (maximum
    /// halting round). Deterministic and equal to the serial runner's.
    pub global_rounds: u64,
    /// Σ over nodes of `global_rounds - halt_round(v)`: the idle
    /// node-rounds a barrier engine would have spent marching every
    /// early-halted node through the remaining global rounds. This is the
    /// barrier wait the async engine eliminates. Deterministic.
    pub barrier_wait_eliminated: u64,
}

/// Per-worker accumulator, merged after the scope joins.
#[derive(Debug, Default, Clone, Copy)]
struct WorkerTally {
    messages: u64,
    sample_sum: u64,
    sample_count: u64,
    sample_min: u64,
    sample_max: u64,
}

impl WorkerTally {
    fn record(&mut self, sample: u64) {
        self.sample_sum += sample;
        if self.sample_count == 0 {
            self.sample_min = sample;
        } else {
            self.sample_min = self.sample_min.min(sample);
        }
        self.sample_count += 1;
        self.sample_max = self.sample_max.max(sample);
    }

    fn merge(&mut self, other: WorkerTally) {
        self.messages += other.messages;
        self.sample_sum += other.sample_sum;
        if other.sample_count > 0 {
            self.sample_min = if self.sample_count == 0 {
                other.sample_min
            } else {
                self.sample_min.min(other.sample_min)
            };
        }
        self.sample_count += other.sample_count;
        self.sample_max = self.sample_max.max(other.sample_max);
    }
}

/// Per-node mutable state: the program and its eventual output, behind one
/// mutex so whichever worker runs (or steals) the node gets exclusive
/// access. Uncontended by construction — a node is RUNNING on at most one
/// worker — the mutex is the safe-Rust handoff between quanta.
#[derive(Debug)]
struct NodeCell<Prog, Out> {
    program: Prog,
    output: Option<Out>,
}

/// The per-node cell of protocol `P` (program + output behind the mutex).
type CellOf<P> =
    Mutex<NodeCell<<P as Protocol>::Program, <<P as Protocol>::Program as NodeProgram>::Output>>;

/// A run's outcome paired with its asynchrony measurements.
type OutcomeWithStats<P> = (
    RunOutcome<<<P as Protocol>::Program as NodeProgram>::Output>,
    AsyncStats,
);

impl AsyncExecutor {
    /// Uses all available hardware parallelism (degrading to one worker on
    /// tiny graphs, where scheduler overhead would dominate).
    pub fn auto() -> AsyncExecutor {
        AsyncExecutor { threads: 0 }
    }

    /// Uses exactly `threads` workers, honored even on tiny graphs so the
    /// differential suite can force multi-worker scheduling everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 (use [`AsyncExecutor::auto`]).
    pub fn with_threads(threads: usize) -> AsyncExecutor {
        assert!(
            threads > 0,
            "thread count must be positive; use auto() for hardware default"
        );
        AsyncExecutor { threads }
    }

    fn effective_threads(&self, slots: usize, n: usize) -> usize {
        if self.threads != 0 {
            return self.threads.min(n.max(1));
        }
        crate::par::thread_count(0, slots, n)
    }

    /// Runs `protocol` barrier-free and additionally returns the
    /// [`AsyncStats`] measurements. [`Executor::execute`] is this minus
    /// the stats.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::RoundLimitExceeded`] exactly when the serial
    /// runner would: some node completes `max_rounds` local rounds without
    /// halting.
    pub fn execute_with_stats<P>(
        &self,
        net: &Network<'_>,
        protocol: &P,
        max_rounds: u64,
    ) -> Result<OutcomeWithStats<P>, RunError>
    where
        P: Protocol,
        P::Program: Send,
        <P::Program as NodeProgram>::Msg: Send + Sync,
        <P::Program as NodeProgram>::Output: Send,
    {
        let execute_span = deco_trace::span(deco_trace::Phase::Execute);
        let g = net.graph();
        let n = g.num_nodes();
        let plan = MailboxPlan::new(g);
        let clock = RoundClock::new(n, max_rounds);
        let rings: RingBuffer<<P::Program as NodeProgram>::Msg> = RingBuffer::new(plan.num_slots());
        let status: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(IDLE)).collect();

        // Spawn programs and collect round-0 outputs (0-round algorithms
        // halt here, before any communication, exactly as under the serial
        // runner). Nodes that survive round 0 but face a zero round budget
        // are capped immediately.
        let cells: Vec<CellOf<P>> = (0..n)
            .map(|v| {
                let ctx = net.ctx(v.into());
                let program = protocol.spawn(&ctx);
                let output = program.output(&ctx);
                if output.is_some() {
                    clock.mark_halted(v, 0);
                } else if max_rounds == 0 {
                    clock.mark_capped(v);
                }
                Mutex::new(NodeCell { program, output })
            })
            .collect();

        let mut tally = WorkerTally::default();
        if clock.finished_count() < n {
            let weights: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
            let threads = self.effective_threads(plan.num_slots(), n);
            let ranges = split_by_weight(&weights, threads);
            let queue = WorkQueue::new(&ranges, n);
            for (v, st) in status.iter().enumerate() {
                if clock.finished(v) {
                    // Nodes halted (or capped) during setup must be DONE
                    // before any worker starts: a neighbor's progress
                    // notification CASes IDLE -> QUEUED, and re-running a
                    // finished program would break the silent-halt rule.
                    st.store(DONE, Ordering::SeqCst);
                } else {
                    st.store(QUEUED, Ordering::SeqCst);
                    queue.push(v);
                }
            }
            let shared = Shared {
                g,
                net,
                plan: &plan,
                clock: &clock,
                rings: &rings,
                status: &status,
                cells: &cells,
                queue: &queue,
                n,
            };
            if ranges.len() <= 1 {
                tally = worker_loop::<P>(&shared, 0);
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..ranges.len())
                        .map(|w| {
                            let shared = &shared;
                            scope.spawn(move || {
                                // A panicking worker (a protocol panicked)
                                // must close the queue on the way out, or
                                // sleeping siblings would hang the join.
                                let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                    worker_loop::<P>(shared, w)
                                }));
                                match out {
                                    Ok(t) => t,
                                    Err(payload) => {
                                        shared.queue.close();
                                        std::panic::resume_unwind(payload);
                                    }
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        match h.join() {
                            Ok(t) => tally.merge(t),
                            Err(payload) => std::panic::resume_unwind(payload),
                        }
                    }
                });
            }
        }

        let still_running = (0..n).filter(|&v| !clock.halted(v)).count();
        if still_running > 0 {
            execute_span.cancel();
            return Err(RunError::RoundLimitExceeded {
                limit: max_rounds,
                still_running,
            });
        }

        let mut global_rounds = 0u64;
        let mut halt_sum = 0u64;
        for v in 0..n {
            let h = clock.halt_round(v).expect("all nodes halted");
            global_rounds = global_rounds.max(h);
            halt_sum += h;
        }
        let outputs = cells
            .into_iter()
            .map(|cell| {
                cell.into_inner()
                    .expect("no worker panicked")
                    .output
                    .expect("all nodes halted with an output")
            })
            .collect();
        let stats = AsyncStats {
            mean_rounds_in_flight: if tally.sample_count == 0 {
                1.0
            } else {
                tally.sample_sum as f64 / tally.sample_count as f64
            },
            max_rounds_in_flight: tally.sample_max,
            samples: tally.sample_count,
            global_rounds,
            barrier_wait_eliminated: global_rounds * n as u64 - halt_sum,
        };
        drop(execute_span);
        if deco_trace::enabled() {
            deco_trace::count(deco_trace::Counter::Messages, tally.messages);
            deco_trace::count(deco_trace::Counter::Rounds, global_rounds);
            deco_trace::count(
                deco_trace::Counter::BarrierWaitEliminated,
                stats.barrier_wait_eliminated,
            );
            deco_trace::sample_summary(
                deco_trace::Counter::RoundsInFlight,
                tally.sample_count,
                tally.sample_sum,
                tally.sample_min,
                tally.sample_max,
            );
        }
        Ok((
            RunOutcome {
                outputs,
                rounds: global_rounds,
                messages: tally.messages,
            },
            stats,
        ))
    }
}

/// Everything a worker needs, bundled so the scoped closures stay small.
struct Shared<'a, 'g, P: Protocol> {
    g: &'g Graph,
    net: &'a Network<'g>,
    plan: &'a MailboxPlan,
    clock: &'a RoundClock,
    rings: &'a RingBuffer<<P::Program as NodeProgram>::Msg>,
    status: &'a [AtomicU8],
    cells: &'a [CellOf<P>],
    queue: &'a WorkQueue,
    n: usize,
}

/// Capacity predicate: node `v` may publish round `r` once no active
/// neighbor still needs the parity slot round `r` overwrites (i.e. every
/// active neighbor has completed round `r - 2`). Halted neighbors never
/// read again, so they impose no constraint.
fn can_send<P: Protocol>(s: &Shared<'_, '_, P>, v: usize, r: u64) -> bool {
    s.g.adjacent(v.into()).iter().all(|adj| {
        let u = adj.neighbor.index();
        s.clock.halted(u) || s.clock.received(u) + 2 >= r
    })
}

/// Availability predicate: node `v` may consume round `r` once every
/// neighbor has published round `r` or halted before it.
fn can_receive<P: Protocol>(s: &Shared<'_, '_, P>, v: usize, r: u64) -> bool {
    s.g.adjacent(v.into()).iter().all(|adj| {
        let u = adj.neighbor.index();
        s.clock.halted_before(u, r) || s.clock.sent(u) >= r
    })
}

/// Whether node `v` could act right now. Pure clock reads — used by the
/// lost-wakeup re-check and by neighbor notification.
fn is_ready<P: Protocol>(s: &Shared<'_, '_, P>, v: usize) -> bool {
    if s.clock.finished(v) {
        return false;
    }
    let c = s.clock.received(v);
    if s.clock.sent(v) == c {
        can_send(s, v, c + 1)
    } else {
        can_receive(s, v, c + 1)
    }
}

/// Enqueues `v` unless it is already queued, running, or done. Spurious
/// enqueues (node turns out blocked when popped) are harmless; *missing*
/// one would strand the dataflow, so notification over-approximates.
fn try_enqueue<P: Protocol>(s: &Shared<'_, '_, P>, v: usize) {
    if s.status[v]
        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
    {
        s.queue.push(v);
    }
}

/// One worker: pop a node, run it as far as the clock predicates allow,
/// notify neighbors of the progress, repeat until the queue closes.
fn worker_loop<P>(s: &Shared<'_, '_, P>, worker: usize) -> WorkerTally
where
    P: Protocol,
    P::Program: Send,
    <P::Program as NodeProgram>::Msg: Send + Sync,
    <P::Program as NodeProgram>::Output: Send,
{
    let mut tally = WorkerTally::default();
    let mut inbox: Vec<Option<<P::Program as NodeProgram>::Msg>> = Vec::new();
    while let Some(v) = s.queue.pop(worker) {
        s.status[v].store(RUNNING, Ordering::SeqCst);
        let progressed = run_node(s, v, &mut tally, &mut inbox);
        if s.clock.finished(v) {
            s.status[v].store(DONE, Ordering::SeqCst);
            if s.clock.finished_count() == s.n {
                s.queue.close();
            }
        } else {
            s.status[v].store(IDLE, Ordering::SeqCst);
        }
        if progressed {
            // This node's clock moved: neighbors blocked on availability
            // (our sends) or capacity (our receives) may be ready now.
            for adj in s.g.adjacent(v.into()) {
                try_enqueue(s, adj.neighbor.index());
            }
        }
        // Close the lost-wakeup race: a neighbor that progressed while we
        // were RUNNING skipped notifying us (it saw RUNNING, not IDLE), so
        // after stepping back to IDLE we must re-check and requeue
        // ourselves. SeqCst ordering makes the re-check see any progress
        // that the skipped notification would have announced.
        if !s.clock.finished(v) && is_ready(s, v) {
            try_enqueue(s, v);
        }
    }
    tally
}

/// Runs node `v`'s micro-steps — alternating `send(r)` / `receive(r)` —
/// until a clock predicate blocks it or it finishes. Returns whether any
/// step ran. The quantum is naturally short: the capacity predicate stops
/// a node one round past its slowest active neighbor, so no node can
/// monopolize a worker (isolated nodes, with no neighbors to wait on, run
/// to completion in one quantum — that is the showcase, not a bug).
fn run_node<P>(
    s: &Shared<'_, '_, P>,
    v: usize,
    tally: &mut WorkerTally,
    inbox: &mut Vec<Option<<P::Program as NodeProgram>::Msg>>,
) -> bool
where
    P: Protocol,
    P::Program: Send,
{
    let mut cell = s.cells[v].lock().expect("node cell poisoned");
    let mut progressed = false;
    loop {
        let c = s.clock.received(v);
        debug_assert!(!s.clock.finished(v), "finished nodes are never queued");
        let r = c + 1;
        if s.clock.sent(v) == c {
            // Next micro-step: publish round r.
            if !can_send(s, v, r) {
                break;
            }
            let ctx = s.net.ctx(v.into());
            let deg = ctx.degree();
            let out = cell.program.send(&ctx);
            let mut it = out.into_iter();
            let base = s.plan.offset(v.into());
            for j in 0..deg {
                // Matches the serial runner's `resize_with(degree)`:
                // missing entries are silence, surplus entries are dropped.
                let msg = it.next().flatten();
                if msg.is_some() {
                    tally.messages += 1;
                }
                s.rings.publish(s.plan.mirror(base + j), r, msg);
            }
            s.clock.mark_sent(v, r);
        } else {
            // Next micro-step: consume round r.
            if !can_receive(s, v, r) {
                break;
            }
            let ctx = s.net.ctx(v.into());
            let base = s.plan.offset(v.into());
            inbox.clear();
            for (j, adj) in s.g.adjacent(v.into()).iter().enumerate() {
                let u = adj.neighbor.index();
                if s.clock.halted_before(u, r) {
                    inbox.push(None);
                } else {
                    inbox.push(s.rings.take(base + j, r));
                }
            }
            cell.program.receive(&ctx, inbox);
            let output = cell.program.output(&ctx);
            tally.record(s.clock.mark_received(v, r));
            if let Some(o) = output {
                cell.output = Some(o);
                s.clock.mark_halted(v, r);
                progressed = true;
                break;
            }
            if r >= s.clock.limit() {
                s.clock.mark_capped(v);
                progressed = true;
                break;
            }
        }
        progressed = true;
    }
    progressed
}

impl Executor for AsyncExecutor {
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
        self.execute_with_stats(net, protocol, max_rounds)
            .map(|(outcome, _)| outcome)
    }

    /// Branch fan-out is round-free, so asynchrony buys nothing there: the
    /// async executor delegates to the phase-parallel engine's
    /// weight-balanced scoped-thread fan-out with the same thread request.
    fn execute_branches<T, F>(&self, weights: &[usize], run: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.barrier_twin().execute_branches(weights, run)
    }
}

impl AsyncExecutor {
    /// The phase-parallel executor with the same thread request, for the
    /// operations where a barrier engine is the right tool.
    fn barrier_twin(&self) -> ParallelExecutor {
        if self.threads == 0 {
            ParallelExecutor::auto()
        } else {
            ParallelExecutor::with_threads(self.threads)
        }
    }

    /// The [`EngineMode`] this executor embodies (always
    /// [`EngineMode::Async`]); parallels
    /// [`ParallelExecutor`]'s mode-dispatch surface.
    pub fn mode(&self) -> EngineMode {
        EngineMode::Async
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
        for threads in [1, 2, 5] {
            let engine = AsyncExecutor::with_threads(threads)
                .execute(&net, &FloodMax { radius: 7 }, 100)
                .unwrap();
            assert_identical(&serial, &engine);
        }
    }

    #[test]
    fn matches_serial_with_staggered_halting() {
        let g = generators::random_regular(48, 4, 11);
        let net = Network::new(&g, IdAssignment::SparseRandom(5));
        let serial = SerialExecutor
            .execute(&net, &StaggeredSum { spread: 6 }, 20)
            .unwrap();
        for threads in [1, 3] {
            let engine = AsyncExecutor::with_threads(threads)
                .execute(&net, &StaggeredSum { spread: 6 }, 20)
                .unwrap();
            assert_identical(&serial, &engine);
        }
    }

    #[test]
    fn port_delivery_is_exact_without_a_barrier() {
        let g = generators::disjoint_union(&[
            generators::star(4),
            generators::cycle(5),
            generators::complete(4),
        ]);
        let net = Network::new(&g, IdAssignment::Reversed);
        let serial = SerialExecutor
            .execute(&net, &PortEcho { rounds: 4 }, 10)
            .unwrap();
        let engine = AsyncExecutor::with_threads(2)
            .execute(&net, &PortEcho { rounds: 4 }, 10)
            .unwrap();
        assert_identical(&serial, &engine);
    }

    #[test]
    fn zero_round_protocols_short_circuit() {
        let g = generators::path(4);
        let net = Network::new(&g, IdAssignment::Sequential);
        let out = AsyncExecutor::auto()
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
        for threads in [1, 2] {
            let engine = AsyncExecutor::with_threads(threads)
                .execute(&net, &FloodMax { radius: 50 }, 5)
                .unwrap_err();
            assert_eq!(serial, engine);
        }
    }

    #[test]
    fn zero_round_budget_errors_like_serial() {
        let g = generators::cycle(4);
        let net = Network::new(&g, IdAssignment::Sequential);
        let serial = SerialExecutor
            .execute(&net, &FloodMax { radius: 2 }, 0)
            .unwrap_err();
        let engine = AsyncExecutor::with_threads(2)
            .execute(&net, &FloodMax { radius: 2 }, 0)
            .unwrap_err();
        assert_eq!(serial, engine);
    }

    #[test]
    fn empty_graph_executes() {
        let g = Graph::empty(3);
        let net = Network::new(&g, IdAssignment::Sequential);
        let (out, stats) = AsyncExecutor::auto()
            .execute_with_stats(&net, &FloodMax { radius: 2 }, 5)
            .unwrap();
        assert_eq!(out.messages, 0);
        assert_eq!(out.outputs, vec![1, 2, 3]);
        // Isolated nodes still execute their local rounds.
        assert_eq!(out.rounds, 2);
        assert_eq!(stats.global_rounds, 2);
    }

    #[test]
    fn no_nodes_at_all() {
        let g = Graph::empty(0);
        let net = Network::new(&g, IdAssignment::Sequential);
        let out = AsyncExecutor::with_threads(2)
            .execute(&net, &FloodMax { radius: 3 }, 5)
            .unwrap();
        assert!(out.outputs.is_empty());
        assert_eq!(out.rounds, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threads_rejected() {
        let _ = AsyncExecutor::with_threads(0);
    }

    /// Even-ID nodes halt at spawn (round 0) while their odd-ID neighbors
    /// keep flooding — the sharpest test of the silent-halt rule under the
    /// async scheduler. Regression: setup-halted nodes used to be left
    /// IDLE, so a neighbor's progress notification could re-enqueue and
    /// re-run a finished program.
    struct EvenIdsHaltAtSpawn;
    struct EvenHaltProgram {
        inner: crate::protocols::FloodMaxProgram,
        spawn_halted: bool,
    }

    impl deco_local::runner::NodeProgram for EvenHaltProgram {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, ctx: &deco_local::network::NodeCtx<'_>) -> Vec<Option<u64>> {
            assert!(!self.spawn_halted, "halted node asked to send");
            self.inner.send(ctx)
        }
        fn receive(&mut self, ctx: &deco_local::network::NodeCtx<'_>, inbox: &[Option<u64>]) {
            assert!(!self.spawn_halted, "halted node asked to receive");
            self.inner.receive(ctx, inbox);
        }
        fn output(&self, ctx: &deco_local::network::NodeCtx<'_>) -> Option<u64> {
            if self.spawn_halted {
                Some(0)
            } else {
                self.inner.output(ctx)
            }
        }
    }

    impl Protocol for EvenIdsHaltAtSpawn {
        type Program = EvenHaltProgram;
        fn spawn(&self, ctx: &deco_local::network::NodeCtx<'_>) -> EvenHaltProgram {
            EvenHaltProgram {
                inner: FloodMax { radius: 3 }.spawn(ctx),
                spawn_halted: ctx.id.is_multiple_of(2),
            }
        }
    }

    #[test]
    fn nodes_halted_at_spawn_stay_silent_and_unscheduled() {
        for g in [
            generators::path(9),
            generators::cycle(12),
            generators::disjoint_union(&[generators::star(4), generators::path(6)]),
        ] {
            let net = Network::new(&g, IdAssignment::Sequential);
            let serial = SerialExecutor
                .execute(&net, &EvenIdsHaltAtSpawn, 20)
                .unwrap();
            for threads in [1, 2, 4] {
                let engine = AsyncExecutor::with_threads(threads)
                    .execute(&net, &EvenIdsHaltAtSpawn, 20)
                    .unwrap();
                assert_identical(&serial, &engine);
            }
        }
    }

    #[test]
    fn stats_show_asynchrony_on_skewed_components() {
        // A long cycle next to isolated nodes: the isolated nodes halt in
        // their own time while the cycle grinds through all its rounds.
        let g = generators::disjoint_union(&[generators::cycle(40), Graph::empty(5)]);
        let net = Network::new(&g, IdAssignment::Sequential);
        let serial = SerialExecutor
            .execute(&net, &StaggeredSum { spread: 9 }, 20)
            .unwrap();
        let (out, stats) = AsyncExecutor::with_threads(2)
            .execute_with_stats(&net, &StaggeredSum { spread: 9 }, 20)
            .unwrap();
        assert_identical(&serial, &out);
        assert_eq!(stats.global_rounds, out.rounds);
        // Barrier-wait elimination is deterministic: every node that halts
        // before the last one stops burning rounds.
        let expected: u64 = (0..g.num_nodes())
            .map(|v| out.rounds - ((net.id(v.into()) % 9) + 1).min(out.rounds))
            .sum();
        assert_eq!(stats.barrier_wait_eliminated, expected);
        assert!(stats.samples > 0);
        assert!(stats.mean_rounds_in_flight >= 1.0);
    }

    #[test]
    fn branch_execution_matches_serial_default() {
        let weights: Vec<usize> = (0..23).map(|i| (i * 7) % 5 + 1).collect();
        let job = |i: usize| (i, (i as u64) * 3 % 17);
        let serial = SerialExecutor.execute_branches(&weights, job);
        for threads in [1, 2, 4] {
            let par = AsyncExecutor::with_threads(threads).execute_branches(&weights, job);
            assert_eq!(serial, par, "threads={threads}");
        }
    }
}
