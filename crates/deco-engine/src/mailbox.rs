//! Flat CSR-packed mailbox arenas.
//!
//! The engine lays every port of every node out in one flat arena — slot
//! `offset(v) + j` is node `v`'s port `j` — and precomputes, once per
//! execution, the *mirror* of each slot: the arena index of the same edge at
//! the other endpoint. Delivery then needs no data movement at all: the
//! inbox of `(v, j)` *is* the outbox slot `mirror[offset(v) + j]`, read in
//! O(1).
//!
//! Message storage is the dense
//! [`PortArena`](deco_local::arena::PortArena) (payload slots plus bitmap
//! presence words — see [`deco_local::arena`]) rather than `Vec<Option<M>>`:
//! a port costs `size_of::<M>()` bytes plus one bit, and the deliver path
//! checks a presence bit instead of branching on an `Option` discriminant.
//!
//! The barrier engine keeps one arena for a whole execution: its phases
//! alternate strictly and every send phase rewrites or clears every slot,
//! so a receive phase only ever reads its own round's messages.
//!
//! ```
//! use deco_engine::MailboxPlan;
//! use deco_graph::generators;
//!
//! let g = generators::cycle(4);
//! let plan = MailboxPlan::new(&g);
//! // One slot per port: 2m in total.
//! assert_eq!(plan.num_slots(), g.degree_sum());
//! // The mirror table is a fixed-point-free involution: following it
//! // twice from any slot returns to the same slot, and delivery is the
//! // single lookup `arena[plan.mirror(k)]`.
//! for k in 0..plan.num_slots() {
//!     assert_ne!(plan.mirror(k), k);
//!     assert_eq!(plan.mirror(plan.mirror(k)), k);
//! }
//! ```

use deco_graph::{Graph, NodeId};
use std::sync::Mutex;

/// Precomputed arena geometry for one graph: per-node slot offsets and the
/// slot-level mirror table.
#[derive(Debug, Clone)]
pub struct MailboxPlan {
    /// `offsets[v] .. offsets[v+1]` is node `v`'s slot range (CSR prefix
    /// sums over degrees); `offsets[n]` is the arena length `2m`.
    offsets: Vec<usize>,
    /// `mirror[offsets[v] + j]` is the arena slot of the same edge at the
    /// other endpoint. An involution without fixed points.
    mirror: Vec<usize>,
}

impl MailboxPlan {
    /// Builds the plan for `g` in O(n + m) from the graph's precomputed
    /// CSR offsets and mirror-port table.
    pub fn new(g: &Graph) -> MailboxPlan {
        let n = g.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        for v in g.nodes() {
            offsets.push(g.adjacency_offset(v));
        }
        offsets.push(g.degree_sum());
        let mut mirror = vec![0usize; offsets[n]];
        for v in g.nodes() {
            let base = offsets[v.index()];
            for (j, (adj, &back)) in g.adjacent(v).iter().zip(g.back_ports(v)).enumerate() {
                mirror[base + j] = offsets[adj.neighbor.index()] + back as usize;
            }
        }
        MailboxPlan { offsets, mirror }
    }

    /// Total number of slots (`2m`).
    #[inline]
    pub fn num_slots(&self) -> usize {
        *self.offsets.last().expect("offsets always has n+1 entries")
    }

    /// First slot of node `v`.
    #[inline]
    pub fn offset(&self, v: NodeId) -> usize {
        self.offsets[v.index()]
    }

    /// Slot range of node `v`.
    #[inline]
    pub fn slots(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v.index()]..self.offsets[v.index() + 1]
    }

    /// The mirror slot of arena slot `k` (same edge, other endpoint).
    #[inline]
    pub fn mirror(&self, k: usize) -> usize {
        self.mirror[k]
    }

    /// The raw offsets array (`n + 1` prefix sums).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

/// Per-port two-round ring buffers for the barrier-free engine.
///
/// Slot `k` of the [`MailboxPlan`] names a directed port: node `v`'s port
/// `j` at `offset(v) + j`, read by `v` and written by the neighbor behind
/// it (through [`MailboxPlan::mirror`]). The async engine drops the global
/// barrier, so one arena entry per port is no longer enough — a sender may
/// already be publishing round `r + 1` while the receiver is still reading
/// round `r`. It *is* enough to keep exactly two entries per port, indexed
/// by round parity, because of the depth-1 lookahead invariant enforced by
/// the scheduler's capacity predicate (see [`crate::clock`]): a node may
/// publish round `r` only when every active neighbor has consumed round
/// `r - 2`, so the parity slot being overwritten is always dead.
///
/// Each entry is a tiny mutex-protected cell: exactly one sender writes it
/// and one receiver reads it, and the lock/unlock pair is what hands the
/// message across threads (the clock's atomics only *announce* presence —
/// see the module docs of [`crate::clock`]). The mutexes are uncontended by
/// construction except for the momentary overlap of a sender's round
/// `r + 2` write with a receiver's round-`r` read on the *other* parity.
#[derive(Debug)]
pub struct RingBuffer<M> {
    /// `slots[k]` holds the two-round ring of plan slot `k`: payload
    /// `vals[r % 2]` plus a two-bit presence mask, the per-port shape of
    /// the same dense-arena diet
    /// [`PortArena`](deco_local::arena::PortArena) applies globally (an
    /// `[Option<M>; 2]` would pay the niche tag twice per port).
    slots: Vec<Mutex<ParityCell<M>>>,
}

/// One port's two-round ring: dense payloads plus a presence bit per
/// parity. A vacant parity may hold a stale payload from round `r - 2`;
/// the mask bit is authoritative.
#[derive(Debug, Default)]
struct ParityCell<M> {
    vals: [M; 2],
    mask: u8,
}

impl<M: Clone + Default> RingBuffer<M> {
    /// Allocates rings for `slots` ports (the plan's
    /// [`MailboxPlan::num_slots`]), all empty.
    pub fn new(slots: usize) -> RingBuffer<M> {
        RingBuffer {
            slots: (0..slots)
                .map(|_| Mutex::new(ParityCell::default()))
                .collect(),
        }
    }

    /// Publishes the round-`r` message for plan slot `k`, overwriting the
    /// (dead, by the depth-1 invariant) round-`r - 2` entry. `None` is a
    /// real value — "this port is silent in round `r`" — and must be
    /// written too, or the stale `r - 2` message would resurface.
    pub fn publish(&self, k: usize, r: u64, msg: Option<M>) {
        let p = (r % 2) as usize;
        let mut cell = self.slots[k].lock().expect("ring slot poisoned");
        match msg {
            Some(m) => {
                cell.vals[p] = m;
                cell.mask |= 1 << p;
            }
            None => cell.mask &= !(1 << p),
        }
    }

    /// Takes the round-`r` message of plan slot `k`. Callers must have
    /// observed the sender's round-`r` publication through the clock first.
    /// Taking (rather than cloning) keeps the slot clean for halted-sender
    /// ports, whose rings are never written again.
    pub fn take(&self, k: usize, r: u64) -> Option<M> {
        let p = (r % 2) as usize;
        let mut cell = self.slots[k].lock().expect("ring slot poisoned");
        if cell.mask & (1 << p) != 0 {
            cell.mask &= !(1 << p);
            Some(std::mem::take(&mut cell.vals[p]))
        } else {
            None
        }
    }

    /// Number of port rings.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Heap bytes of the ring storage: one mutex-protected two-parity dense
    /// cell per port.
    pub fn heap_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Mutex<ParityCell<M>>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::generators;

    #[test]
    fn mirror_is_a_fixed_point_free_involution() {
        for g in [
            generators::cycle(7),
            generators::complete(6),
            generators::star(5),
            generators::random_regular(24, 5, 3),
            generators::disjoint_union(&[generators::path(4), generators::cycle(3)]),
        ] {
            let plan = MailboxPlan::new(&g);
            assert_eq!(plan.num_slots(), g.degree_sum());
            for k in 0..plan.num_slots() {
                assert_ne!(plan.mirror(k), k, "a slot never mirrors itself");
                assert_eq!(plan.mirror(plan.mirror(k)), k, "mirror is an involution");
            }
        }
    }

    #[test]
    fn mirror_connects_the_two_endpoints_of_each_edge() {
        let g = generators::random_regular(16, 4, 9);
        let plan = MailboxPlan::new(&g);
        for v in g.nodes() {
            for (j, adj) in g.adjacent(v).iter().enumerate() {
                let k = plan.offset(v) + j;
                let mk = plan.mirror(k);
                // The mirror slot lies in the neighbor's range and names the
                // same edge from the other side.
                assert!(plan.slots(adj.neighbor).contains(&mk));
                let back_port = mk - plan.offset(adj.neighbor);
                assert_eq!(g.adjacent(adj.neighbor)[back_port].edge, adj.edge);
            }
        }
    }

    #[test]
    fn ring_buffer_keeps_two_rounds_by_parity() {
        let ring: RingBuffer<u32> = RingBuffer::new(2);
        assert_eq!(ring.num_slots(), 2);
        ring.publish(0, 1, Some(10));
        ring.publish(0, 2, Some(20));
        // Both rounds coexist (different parity)…
        assert_eq!(ring.take(0, 1), Some(10));
        assert_eq!(ring.take(0, 2), Some(20));
        // …and taking empties the slot.
        assert_eq!(ring.take(0, 1), None);
    }

    #[test]
    fn ring_buffer_publishes_silence_over_stale_rounds() {
        let ring: RingBuffer<u32> = RingBuffer::new(1);
        ring.publish(0, 3, Some(7));
        // Round 5 is silent on this port; it must mask round 3's entry.
        ring.publish(0, 5, None);
        assert_eq!(ring.take(0, 5), None);
    }

    #[test]
    fn ring_buffer_stale_parity_is_unobservable() {
        // A round-r+2 silence must fully mask the round-r payload even
        // though the dense cell still physically holds the stale bytes.
        let ring: RingBuffer<u32> = RingBuffer::new(1);
        ring.publish(0, 4, Some(9));
        ring.publish(0, 6, None);
        assert_eq!(ring.take(0, 6), None);
    }
}
