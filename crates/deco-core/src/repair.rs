//! Incremental repair of a live `(2Δ−1)`-edge coloring under churn.
//!
//! The paper's palette guarantee is what makes dynamic updates cheap. The
//! line-graph degree of any edge `e = {u, v}` is
//! `deg(e) = deg(u) + deg(v) − 2 ≤ 2Δ − 2`, strictly below the `2Δ − 1`
//! palette — so as long as the rest of the coloring is proper and within
//! bound, *one* uncolored edge can always take the smallest color its
//! neighborhood does not use. That single inequality carries the whole
//! repair path:
//!
//! * **Insert**: only the new edge needs a color; every existing color stays
//!   proper (removing constraints never creates conflicts, and the bound can
//!   only have grown). One greedy probe of the ball around the edge —
//!   O(deg(e)) messages, never a full re-solve.
//! * **Remove**: dropping a color cannot break properness. If Δ shrank, the
//!   palette bound shrinks with it and edges colored `≥ 2Δ' − 1` are swept:
//!   uncolored, then greedily recolored in decreasing edge-degree order —
//!   each succeeds by the same inequality.
//!
//! Both repairs compute the bound from the current graph
//! ([`palette_bound`]), so the greedy step cannot run out of colors.
//!
//! Everything here is deterministic: probe orders are fixed by the overlay,
//! sweep orders are explicitly sorted, and message counts are functions of
//! the graph alone — so replayed traces produce bit-identical repair
//! reports on every engine.

use deco_graph::coloring::{Color, EdgeColoring};
use deco_graph::hashing::DetHashMap;
use deco_graph::{Graph, MutableGraph, NodeId};

/// The `(2Δ − 1)`-palette bound for a graph of maximum degree `max_degree`,
/// floored at 1 so the empty and single-edge graphs stay colorable.
pub fn palette_bound(max_degree: usize) -> u32 {
    (2 * max_degree).saturating_sub(1).max(1) as u32
}

fn key(u: NodeId, v: NodeId) -> (u32, u32) {
    if u.0 <= v.0 {
        (u.0, v.0)
    } else {
        (v.0, u.0)
    }
}

/// A live edge coloring keyed by endpoints, so colors survive the edge-id
/// renumbering that edge churn causes in CSR snapshots. Tracks the palette
/// high-water mark in O(1) amortized through a per-color histogram.
#[derive(Debug, Clone, Default)]
pub struct LiveColoring {
    colors: DetHashMap<(u32, u32), Color>,
    /// `hist[c]` = number of edges currently colored `c`.
    hist: Vec<u64>,
    /// Smallest `C` with every live color `< C` (0 when nothing is colored).
    palette_max: u32,
}

impl LiveColoring {
    /// Adopts a complete coloring of `g`, re-keying it by endpoints.
    pub fn from_graph(g: &Graph, coloring: &EdgeColoring) -> LiveColoring {
        let mut live = LiveColoring::default();
        for (e, &[u, v]) in g.edges().zip(g.edge_list()) {
            let c = coloring.get(e).expect("session colorings are complete");
            live.set(u, v, c);
        }
        live
    }

    /// The color of `{u, v}`, if assigned. Endpoint order is irrelevant.
    pub fn get(&self, u: NodeId, v: NodeId) -> Option<Color> {
        self.colors.get(&key(u, v)).copied()
    }

    /// Colors `{u, v}` (overwrites).
    pub fn set(&mut self, u: NodeId, v: NodeId, c: Color) {
        if let Some(old) = self.colors.insert(key(u, v), c) {
            self.forget(old);
        }
        if self.hist.len() <= c as usize {
            self.hist.resize(c as usize + 1, 0);
        }
        self.hist[c as usize] += 1;
        self.palette_max = self.palette_max.max(c + 1);
    }

    /// Uncolors `{u, v}`, returning the color it had.
    pub fn clear(&mut self, u: NodeId, v: NodeId) -> Option<Color> {
        let old = self.colors.remove(&key(u, v));
        if let Some(c) = old {
            self.forget(c);
        }
        old
    }

    fn forget(&mut self, c: Color) {
        self.hist[c as usize] -= 1;
        while self.palette_max > 0 && self.hist[self.palette_max as usize - 1] == 0 {
            self.palette_max -= 1;
        }
    }

    /// Number of colored edges.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// Whether no edge is colored.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// Smallest `C` such that every live color is `< C` (0 when empty). The
    /// session's palette high-water mark; always `≤` the repair bound.
    pub fn palette_max(&self) -> u32 {
        self.palette_max
    }

    /// Projects the live coloring onto `g`'s edge-id order.
    pub fn to_coloring(&self, g: &Graph) -> EdgeColoring {
        EdgeColoring::from_vec(g.edge_list().iter().map(|&[u, v]| self.get(u, v)).collect())
    }
}

/// What one repair did: the counters a session folds into its
/// `UpdateReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Repair {
    /// Edges whose color was (re)assigned.
    pub recolored: u64,
    /// Color probes delivered: one message per adjacent colored edge
    /// consulted. A function of the graph alone — engine-independent.
    pub messages: u64,
}

/// The line-graph degree of `{u, v}` in the live overlay:
/// `deg(u) + deg(v) − 2`.
fn edge_degree(g: &MutableGraph, u: NodeId, v: NodeId) -> u64 {
    (g.degree(u) + g.degree(v) - 2) as u64
}

/// The smallest color `< bound` not used by any colored edge sharing an
/// endpoint with `{u, v}`. `None` iff the neighborhood saturates the bound.
fn smallest_free(
    g: &MutableGraph,
    live: &LiveColoring,
    u: NodeId,
    v: NodeId,
    bound: u32,
) -> Option<Color> {
    let mut used = vec![false; bound as usize];
    for (a, b) in [(u, v), (v, u)] {
        for &w in g.neighbors(a) {
            if w == b {
                continue; // the edge being colored is not its own neighbor
            }
            if let Some(c) = live.get(a, w) {
                if c < bound {
                    used[c as usize] = true;
                }
            }
        }
    }
    used.iter().position(|&taken| !taken).map(|c| c as u32)
}

/// The smallest color below the `2Δ−1` bound of `g` that no colored edge
/// at `u` or `v` holds. At most `deg(u) + deg(v) − 2 ≤ 2Δ − 2` of them are
/// colored, so one is always free.
fn free_color(g: &MutableGraph, live: &LiveColoring, u: NodeId, v: NodeId) -> Color {
    smallest_free(g, live, u, v, palette_bound(g.max_degree()))
        .expect("deg(e) ≤ 2Δ − 2 leaves a color free below 2Δ − 1")
}

/// Repairs the coloring after `{u, v}` was inserted into `g`: the new edge
/// takes the smallest color its neighbourhood does not use, below the
/// post-insert `2Δ−1` bound.
pub fn repair_insert(g: &MutableGraph, live: &mut LiveColoring, u: NodeId, v: NodeId) -> Repair {
    live.set(u, v, free_color(g, live, u, v));
    Repair {
        recolored: 1,
        messages: edge_degree(g, u, v),
    }
}

/// Repairs the coloring after a removal from `g`: if the `2Δ−1` bound
/// shrank below the palette high-water mark, every edge colored at or above
/// it is uncolored, then greedily recolored in decreasing edge-degree order
/// (ties broken by normalized endpoints, so the order is a fixed total
/// order). A no-op otherwise.
pub fn repair_shrink(g: &MutableGraph, live: &mut LiveColoring) -> Repair {
    let mut out = Repair::default();
    let bound = palette_bound(g.max_degree());
    if live.palette_max() <= bound {
        return out;
    }
    let mut over: Vec<(u32, u32)> = g
        .edge_list()
        .iter()
        .filter(|&&[a, b]| live.get(a, b).is_some_and(|c| c >= bound))
        .map(|&[a, b]| key(a, b))
        .collect();
    for &(a, b) in &over {
        live.clear(NodeId(a), NodeId(b));
    }
    over.sort_by_key(|&(a, b)| {
        (
            std::cmp::Reverse(edge_degree(g, NodeId(a), NodeId(b))),
            a,
            b,
        )
    });
    for (a, b) in over {
        let (a, b) = (NodeId(a), NodeId(b));
        out.messages += edge_degree(g, a, b);
        live.set(a, b, free_color(g, live, a, b));
        out.recolored += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_graph::coloring::check_partial_edge_coloring;
    use deco_graph::{generators, EdgeUpdate};

    /// Oracle: the live coloring is complete, proper, and within `bound` on
    /// the current snapshot.
    fn assert_proper(g: &MutableGraph, live: &LiveColoring, bound: u32) {
        let snap = g.to_graph();
        let coloring = live.to_coloring(&snap);
        assert_eq!(coloring.uncolored_count(), 0, "complete");
        check_partial_edge_coloring(&snap, &coloring).expect("proper");
        assert!(coloring.max_color().is_none_or(|c| c < bound));
    }

    /// Greedy-colors a whole graph from scratch (valid because each edge is
    /// the "one uncolored edge" in turn).
    fn greedy_seed(g: &MutableGraph, live: &mut LiveColoring, bound: u32) {
        for &[u, v] in g.edge_list() {
            let c = smallest_free(g, live, u, v, bound).expect("2Δ−1 suffices");
            live.set(u, v, c);
        }
    }

    #[test]
    fn insert_repair_never_escalates_at_the_true_bound() {
        let base = generators::gnp(30, 0.15, 11);
        let mut g = MutableGraph::from_graph(&base);
        let mut live = LiveColoring::default();
        greedy_seed(&g, &mut live, palette_bound(g.max_degree()));
        // Insert every missing edge of a deterministic batch.
        let mut inserted = 0;
        for u in 0..30u32 {
            for v in (u + 1..30u32).step_by(7) {
                if g.has_edge(NodeId(u), NodeId(v)) {
                    continue;
                }
                g.insert_edge(NodeId(u), NodeId(v)).unwrap();
                let rep = repair_insert(&g, &mut live, NodeId(u), NodeId(v));
                assert_eq!(rep.recolored, 1);
                let c = live.get(NodeId(u), NodeId(v)).expect("colored");
                assert!(c < palette_bound(g.max_degree()));
                assert_eq!(rep.messages, edge_degree(&g, NodeId(u), NodeId(v)));
                inserted += 1;
            }
        }
        assert!(inserted > 20);
        assert_proper(&g, &live, palette_bound(g.max_degree()));
    }

    #[test]
    fn shrink_sweep_restores_the_tighter_bound() {
        // A star has Δ = n−1; deleting leaves shrinks the bound sharply.
        let star = generators::star(8); // center 0, Δ = 8, bound 15
        let mut g = MutableGraph::from_graph(&star);
        let mut live = LiveColoring::default();
        // Color the star with deliberately high colors near the bound.
        for (i, &[u, v]) in g.edge_list().to_vec().iter().enumerate() {
            live.set(u, v, 7 + i as u32); // colors 7..15, proper (star)
        }
        assert_eq!(live.palette_max(), 15);
        for leaf in [8u32, 7, 6, 5] {
            g.remove_edge(NodeId(0), NodeId(leaf)).unwrap();
            live.clear(NodeId(0), NodeId(leaf));
            repair_shrink(&g, &mut live);
            assert_proper(&g, &live, palette_bound(g.max_degree()));
        }
        // Δ is now 4: every color must sit under 7.
        assert!(live.palette_max() <= palette_bound(4));
    }

    #[test]
    fn ball_escalation_reshuffles_a_blocked_neighborhood() {
        // Star K_{1,3} colored {1,2,3}, leaving color 0 free: the insert of
        // a 4th leaf edge (Δ = 4, bound 7) sees {1,2,3} used at the center
        // and takes 0 directly, with nothing else recolored.
        let mut g = MutableGraph::new(5);
        for leaf in 1..=3u32 {
            g.insert_edge(NodeId(0), NodeId(leaf)).unwrap();
        }
        let mut live = LiveColoring::default();
        live.set(NodeId(0), NodeId(1), 1);
        live.set(NodeId(0), NodeId(2), 2);
        live.set(NodeId(0), NodeId(3), 3);
        g.insert_edge(NodeId(0), NodeId(4)).unwrap();
        let rep = repair_insert(&g, &mut live, NodeId(0), NodeId(4));
        assert_eq!(rep.recolored, 1);
        assert_eq!(live.get(NodeId(0), NodeId(4)), Some(0));
        assert_eq!(live.palette_max(), 4);
    }

    #[test]
    fn live_coloring_tracks_palette_high_water_mark() {
        let mut live = LiveColoring::default();
        assert_eq!(live.palette_max(), 0);
        assert!(live.is_empty());
        live.set(NodeId(0), NodeId(1), 4);
        live.set(NodeId(1), NodeId(2), 2);
        assert_eq!(live.palette_max(), 5);
        live.set(NodeId(0), NodeId(1), 1); // overwrite drops the old count
        assert_eq!(live.palette_max(), 3);
        assert_eq!(live.clear(NodeId(2), NodeId(1)), Some(2)); // reversed ok
        assert_eq!(live.palette_max(), 2);
        assert_eq!(live.len(), 1);
        assert_eq!(live.clear(NodeId(0), NodeId(1)), Some(1));
        assert_eq!(live.palette_max(), 0);
        assert_eq!(live.clear(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn churn_trace_stays_proper_under_repair() {
        // A longer randomized-but-seeded trace driving both repair paths,
        // with the full oracle after every update.
        let base = generators::random_regular(24, 4, 17);
        let mut g = MutableGraph::from_graph(&base);
        let mut live = LiveColoring::default();
        greedy_seed(&g, &mut live, palette_bound(g.max_degree()));
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..300 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 33) % 24) as u32;
            let v = ((state >> 13) % 24) as u32;
            if u == v {
                continue;
            }
            let (u, v) = (NodeId(u), NodeId(v));
            let update = if g.has_edge(u, v) {
                EdgeUpdate::remove(u, v)
            } else {
                EdgeUpdate::insert(u, v)
            };
            if update.is_insert() {
                g.insert_edge(u, v).unwrap();
                repair_insert(&g, &mut live, u, v);
            } else {
                g.remove_edge(u, v).unwrap();
                live.clear(u, v);
                repair_shrink(&g, &mut live);
            }
            assert_proper(&g, &live, palette_bound(g.max_degree()));
        }
    }

    #[test]
    fn palette_bound_floors_at_one() {
        assert_eq!(palette_bound(0), 1);
        assert_eq!(palette_bound(1), 1);
        assert_eq!(palette_bound(2), 3);
        assert_eq!(palette_bound(5), 9);
    }
}
