//! Breadth-first traversal utilities: distances, components, balls.
//!
//! The locality verifier in `deco-local` needs radius-`r` balls (a `T`-round
//! LOCAL algorithm's output at `v` is a function of the ball `B(v, T)`), and
//! several tests need connectivity/bipartiteness checks.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// BFS distances from `source`; unreachable nodes get `usize::MAX`.
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        for w in g.neighbors(v) {
            if dist[w.index()] == usize::MAX {
                dist[w.index()] = dist[v.index()] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Connected components; returns `(component_id_per_node, component_count)`.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let mut comp = vec![usize::MAX; g.num_nodes()];
    let mut count = 0;
    for s in g.nodes() {
        if comp[s.index()] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        comp[s.index()] = count;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for w in g.neighbors(v) {
                if comp[w.index()] == usize::MAX {
                    comp[w.index()] = count;
                    queue.push_back(w);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

/// Whether `g` is connected (vacuously true for `n ≤ 1`).
pub fn is_connected(g: &Graph) -> bool {
    g.num_nodes() <= 1 || connected_components(g).1 == 1
}

/// Whether `g` is bipartite; if so, returns one valid two-sided partition.
pub fn bipartition(g: &Graph) -> Option<Vec<bool>> {
    let mut side = vec![None; g.num_nodes()];
    for s in g.nodes() {
        if side[s.index()].is_some() {
            continue;
        }
        side[s.index()] = Some(false);
        let mut queue = VecDeque::new();
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            let sv = side[v.index()].expect("queued nodes are assigned");
            for w in g.neighbors(v) {
                match side[w.index()] {
                    None => {
                        side[w.index()] = Some(!sv);
                        queue.push_back(w);
                    }
                    Some(sw) if sw == sv => return None,
                    Some(_) => {}
                }
            }
        }
    }
    Some(side.into_iter().map(|s| s.unwrap_or(false)).collect())
}

/// The set of nodes within distance `r` of `center` (includes `center`).
pub fn ball_nodes(g: &Graph, center: NodeId, r: usize) -> Vec<NodeId> {
    let dist = bfs_distances(g, center);
    g.nodes().filter(|v| dist[v.index()] <= r).collect()
}

/// Diameter of a connected graph; `None` if disconnected or `n == 0`.
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.num_nodes() == 0 || !is_connected(g) {
        return None;
    }
    let mut best = 0;
    for v in g.nodes() {
        let d = bfs_distances(g, v);
        let far = d.into_iter().max().expect("nonempty");
        best = best.max(far);
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn components_of_union() {
        let g = generators::disjoint_union(&[generators::path(3), generators::cycle(4)]);
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[2]);
        assert_ne!(comp[0], comp[3]);
        assert!(!is_connected(&g));
        assert!(is_connected(&generators::cycle(4)));
    }

    #[test]
    fn bipartite_detection() {
        assert!(bipartition(&generators::cycle(4)).is_some());
        assert!(bipartition(&generators::cycle(5)).is_none());
        assert!(bipartition(&generators::complete_bipartite(3, 3)).is_some());
        assert!(bipartition(&generators::complete(3)).is_none());
        let side = bipartition(&generators::grid(3, 3)).expect("grids are bipartite");
        let g = generators::grid(3, 3);
        for e in g.edges() {
            let [u, v] = g.endpoints(e);
            assert_ne!(side[u.index()], side[v.index()]);
        }
    }

    #[test]
    fn balls_grow_with_radius() {
        let g = generators::path(7);
        assert_eq!(ball_nodes(&g, NodeId(3), 0), vec![NodeId(3)]);
        assert_eq!(ball_nodes(&g, NodeId(3), 1).len(), 3);
        assert_eq!(ball_nodes(&g, NodeId(3), 2).len(), 5);
    }

    #[test]
    fn diameter_of_cycle() {
        assert_eq!(diameter(&generators::cycle(8)), Some(4));
        assert_eq!(diameter(&generators::path(5)), Some(4));
        let disconnected = generators::disjoint_union(&[generators::path(2), generators::path(2)]);
        assert_eq!(diameter(&disconnected), None);
    }
}
