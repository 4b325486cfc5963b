//! The per-shard round worker: one shard's programs, arena, and ghost
//! ports, advanced one `send`/`receive` pair at a time.
//!
//! A [`ShardWorker`] owns everything private to its shard — the programs
//! and halting state of its node range and the shard's contiguous slice of
//! the mailbox arena — and borrows only immutable topology (`Network`,
//! [`ShardPlan`]). It never waits and never talks to other shards; it
//! exposes exactly two steps per round,
//!
//! 1. [`ShardWorker::send_phase`] — every active local node writes its
//!    outgoing messages into the local arena; the worker returns the
//!    *cut-out arena* (one slot per cut port, in plan ghost-index order)
//!    for the exchange;
//! 2. [`ShardWorker::receive_phase`] — given the *ghost-in arena* routed
//!    from the other shards, every active local node assembles its inbox
//!    (shard-internal ports read the local arena through the mirror table,
//!    ghost ports read the ghost-in arena), processes it, and re-evaluates
//!    its output.
//!
//! The clock-driven [`ShardedExecutor`](super::ShardedExecutor) owns the
//! waiting and the exchange between the two steps. Phases optionally fan
//! out over `threads` scoped threads (degree-balanced sub-ranges, the same
//! machinery as the barrier engine), and the thread count can never change
//! observable behavior.

use super::plan::ShardPlan;
use crate::par::{fan_out, split_by_weight, split_mut_by_ranges};
use deco_local::arena::PortArena;
use deco_local::network::Network;
use deco_local::runner::{NodeProgram, Protocol};
use std::ops::Range;

/// One shard's mutable execution state. See the module docs.
pub(crate) struct ShardWorker<'a, 'g, P: Protocol> {
    net: &'a Network<'g>,
    plan: &'a ShardPlan,
    shard: usize,
    /// Degree-balanced sub-ranges of the local node indices, one per
    /// intra-shard phase thread.
    sub: Vec<Range<usize>>,
    programs: Vec<P::Program>,
    outputs: Vec<Option<<P::Program as NodeProgram>::Output>>,
    halted: Vec<bool>,
    /// The shard's slice of the mailbox arena, indexed by
    /// `global slot - slot_range.start`.
    arena: PortArena<<P::Program as NodeProgram>::Msg>,
    /// Completed local rounds.
    completed: u64,
    /// Highest local round at which a node of this shard halted.
    max_halt: u64,
    /// Local nodes that have not halted yet.
    active: usize,
}

impl<'a, 'g, P> ShardWorker<'a, 'g, P>
where
    P: Protocol,
    P::Program: Send,
    <P::Program as NodeProgram>::Msg: Send + Sync,
    <P::Program as NodeProgram>::Output: Send,
{
    /// A worker over already-spawned `programs` (one per node of the shard
    /// range, in node order). The executor spawns all programs on the
    /// caller thread, so the protocol value itself never crosses threads.
    /// Round-0 outputs are collected immediately (zero-round programs halt
    /// here, before any communication, exactly as under the serial runner).
    pub fn with_programs(
        net: &'a Network<'g>,
        plan: &'a ShardPlan,
        shard: usize,
        threads: usize,
        programs: Vec<P::Program>,
    ) -> ShardWorker<'a, 'g, P> {
        let range = plan.node_range(shard);
        assert_eq!(programs.len(), range.len(), "one program per shard node");
        let outputs: Vec<Option<<P::Program as NodeProgram>::Output>> = programs
            .iter()
            .zip(range.clone())
            .map(|(p, v)| p.output(&net.ctx(v.into())))
            .collect();
        let halted: Vec<bool> = outputs.iter().map(Option::is_some).collect();
        let active = halted.iter().filter(|h| !**h).count();
        let weights: Vec<usize> = range.map(|v| net.graph().degree(v.into())).collect();
        let slots = plan.slot_range(shard).len();
        ShardWorker {
            net,
            plan,
            shard,
            sub: split_by_weight(&weights, threads),
            programs,
            outputs,
            halted,
            arena: PortArena::new(slots),
            completed: 0,
            max_halt: 0,
            active,
        }
    }

    /// Local nodes still running.
    #[inline]
    pub fn active(&self) -> usize {
        self.active
    }

    /// Completed local rounds.
    #[inline]
    pub fn completed_rounds(&self) -> u64 {
        self.completed
    }

    /// Highest local round at which one of this shard's nodes halted
    /// (0 when every node halted at spawn, or none halted yet).
    #[inline]
    pub fn max_halt_round(&self) -> u64 {
        self.max_halt
    }

    /// Runs the send half of the next round: active nodes write their
    /// outgoing messages into the local arena (halted nodes' slots are
    /// cleared — the silent-halt rule), then the cut ports are copied out
    /// in ghost-index order for the exchange. Returns `(cut_out, sent)`
    /// where `sent` counts the present messages written, matching the
    /// serial runner's accounting.
    pub fn send_phase(&mut self) -> (PortArena<<P::Program as NodeProgram>::Msg>, u64) {
        let range = self.plan.node_range(self.shard);
        let slo = self.plan.slot_range(self.shard).start;
        let net = self.net;
        let plan = self.plan;
        let halted = &self.halted;
        let offsets = plan.mailbox().offsets();
        let slot_sub: Vec<Range<usize>> = self
            .sub
            .iter()
            .map(|r| offsets[range.start + r.start] - slo..offsets[range.start + r.end] - slo)
            .collect();
        let parts = self
            .sub
            .iter()
            .cloned()
            .zip(split_mut_by_ranges(&mut self.programs, &self.sub))
            .zip(self.arena.split_writers(&slot_sub));
        let sent: u64 = fan_out(parts, |((chunk, progs), mut writer)| {
            // `chunk` is in local node indices; the writer covers exactly the
            // chunk's shard-local slot range.
            let mut sent = 0u64;
            for i in chunk.clone() {
                let v = range.start + i;
                let ctx = net.ctx(v.into());
                let deg = ctx.degree();
                let base = plan.mailbox().offset(v.into()) - slo;
                if halted[i] {
                    for k in base..base + deg {
                        writer.clear(k);
                    }
                    continue;
                }
                let out = progs[i - chunk.start].send(&ctx);
                let mut it = out.into_iter();
                for k in base..base + deg {
                    // Matches the serial runner's `resize_with(degree)`:
                    // missing entries become None, surplus entries drop.
                    let msg = it.next().flatten();
                    if msg.is_some() {
                        sent += 1;
                    }
                    writer.write(k, msg);
                }
            }
            sent
        })
        .into_iter()
        .sum();

        let cut_ports = self.plan.cut_ports(self.shard);
        let mut cut_out = PortArena::new(cut_ports.len());
        for (i, &k) in cut_ports.iter().enumerate() {
            cut_out.write(i, self.arena.clone_out(k - slo));
        }
        (cut_out, sent)
    }

    /// Runs the receive half of the round whose sends [`ShardWorker::send_phase`]
    /// just published: every active node assembles its inbox — internal
    /// ports through the mirror table, ghost ports from `ghost_in` (one
    /// slot per cut port, ghost-index order) — processes it, and
    /// re-evaluates its output. Returns the number of still-active nodes.
    pub fn receive_phase(
        &mut self,
        ghost_in: &PortArena<<P::Program as NodeProgram>::Msg>,
    ) -> usize {
        let range = self.plan.node_range(self.shard);
        let slot_range = self.plan.slot_range(self.shard);
        let slo = slot_range.start;
        let net = self.net;
        let plan = self.plan;
        let shard = self.shard;
        let arena = &self.arena;
        assert_eq!(
            ghost_in.len(),
            plan.cut_ports(shard).len(),
            "one ghost entry per cut port"
        );

        let parts = self
            .sub
            .iter()
            .cloned()
            .zip(split_mut_by_ranges(&mut self.programs, &self.sub))
            .zip(split_mut_by_ranges(&mut self.outputs, &self.sub))
            .zip(split_mut_by_ranges(&mut self.halted, &self.sub));
        let newly_halted: usize = fan_out(parts, |(((chunk, progs), outs), halts)| {
            let mut inbox: Vec<Option<<P::Program as NodeProgram>::Msg>> = Vec::new();
            let mut newly_halted = 0usize;
            for i in chunk.clone() {
                let c = i - chunk.start;
                if halts[c] {
                    continue;
                }
                let v = range.start + i;
                let ctx = net.ctx(v.into());
                inbox.clear();
                for k in plan.mailbox().slots(v.into()) {
                    let mk = plan.mailbox().mirror(k);
                    if slot_range.contains(&mk) {
                        inbox.push(arena.clone_out(mk - slo));
                    } else {
                        let g = plan
                            .ghost_index(shard, k)
                            .expect("a slot with a remote mirror is a cut port");
                        inbox.push(ghost_in.clone_out(g));
                    }
                }
                progs[c].receive(&ctx, &inbox);
                outs[c] = progs[c].output(&ctx);
                if outs[c].is_some() {
                    halts[c] = true;
                    newly_halted += 1;
                }
            }
            newly_halted
        })
        .into_iter()
        .sum();

        self.completed += 1;
        if newly_halted > 0 {
            self.max_halt = self.completed;
            self.active -= newly_halted;
        }
        self.active
    }

    /// The shard's outputs in node order, once every local node halted.
    ///
    /// # Panics
    ///
    /// Panics if some node is still active.
    pub fn into_outputs(self) -> Vec<<P::Program as NodeProgram>::Output> {
        self.outputs
            .into_iter()
            .map(|o| o.expect("shard finished with every node halted"))
            .collect()
    }
}
