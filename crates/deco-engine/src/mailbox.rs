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
}
