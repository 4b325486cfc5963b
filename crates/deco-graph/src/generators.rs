//! Deterministic, seeded graph generators.
//!
//! Every random generator takes an explicit `seed` and uses
//! [`rand::rngs::StdRng`], so workloads are reproducible across runs and
//! platforms. The structured families (paths, cycles, grids, hypercubes,
//! complete and bipartite graphs) exercise the extremes the paper's claims
//! quantify over: bounded-degree graphs for the `O(log* n)` term, dense
//! graphs for the `Δ` dependency, and bipartite graphs for the
//! switch-scheduling example.

use crate::hashing::DetHashSet;
use crate::{Graph, GraphBuilder, NodeId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Path `P_n` on `n` nodes (`n − 1` edges).
pub fn path(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|i| (i - 1, i))).expect("path is simple")
}

/// Cycle `C_n` on `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle requires n >= 3, got {n}");
    Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).expect("cycle is simple")
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let edges = (0..n).flat_map(|i| ((i + 1)..n).map(move |j| (i, j)));
    Graph::from_edges(n, edges).expect("complete graph is simple")
}

/// Complete bipartite graph `K_{a,b}`; left side is `0..a`, right `a..a+b`.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let edges = (0..a).flat_map(move |i| (0..b).map(move |j| (i, a + j)));
    Graph::from_edges(a + b, edges).expect("complete bipartite graph is simple")
}

/// Star `K_{1,k}` with center node `0`.
pub fn star(k: usize) -> Graph {
    Graph::from_edges(k + 1, (1..=k).map(|i| (0, i))).expect("star is simple")
}

/// `w × h` grid graph (4-neighborhood).
pub fn grid(w: usize, h: usize) -> Graph {
    let id = |x: usize, y: usize| y * w + x;
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    Graph::from_edges(w * h, edges).expect("grid is simple")
}

/// `w × h` torus (grid with wraparound); requires `w, h ≥ 3` so the wrapped
/// edges stay simple.
///
/// # Panics
///
/// Panics if `w < 3` or `h < 3`.
pub fn torus(w: usize, h: usize) -> Graph {
    assert!(w >= 3 && h >= 3, "torus requires w, h >= 3, got {w}x{h}");
    let id = |x: usize, y: usize| y * w + x;
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            edges.push((id(x, y), id((x + 1) % w, y)));
            edges.push((id(x, y), id(x, (y + 1) % h)));
        }
    }
    Graph::from_edges(w * h, edges).expect("torus is simple")
}

/// `d`-dimensional hypercube `Q_d` on `2^d` nodes.
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut edges = Vec::new();
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if v < u {
                edges.push((v, u));
            }
        }
    }
    Graph::from_edges(n, edges).expect("hypercube is simple")
}

/// The Petersen graph (3-regular, 10 nodes, girth 5). A classic adversarial
/// instance for greedy colorers.
pub fn petersen() -> Graph {
    let mut edges = Vec::new();
    for i in 0..5 {
        edges.push((i, (i + 1) % 5)); // outer cycle
        edges.push((i, i + 5)); // spokes
        edges.push((i + 5, (i + 2) % 5 + 5)); // inner pentagram
    }
    Graph::from_edges(10, edges).expect("petersen is simple")
}

/// Caterpillar: a spine path of `spine` nodes with `legs` pendant nodes
/// attached to every spine node. Maximum degree `legs + 2`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine + spine * legs;
    let mut edges = Vec::new();
    for i in 1..spine {
        edges.push((i - 1, i));
    }
    for s in 0..spine {
        for l in 0..legs {
            edges.push((s, spine + s * legs + l));
        }
    }
    Graph::from_edges(n, edges).expect("caterpillar is simple")
}

/// Complete binary tree with `depth` levels of edges (`2^(depth+1) − 1`
/// nodes).
pub fn binary_tree(depth: u32) -> Graph {
    let n = (1usize << (depth + 1)) - 1;
    let edges = (1..n).map(|i| ((i - 1) / 2, i));
    Graph::from_edges(n, edges).expect("tree is simple")
}

/// Erdős–Rényi `G(n, p)` with geometric edge skipping (O(n + m) expected
/// time).
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    if p > 0.0 {
        if (p - 1.0).abs() < f64::EPSILON {
            return complete(n);
        }
        // Iterate over the n*(n-1)/2 potential edges in row-major order,
        // skipping ahead geometrically.
        let log_q = (1.0 - p).ln();
        let mut v: usize = 1;
        let mut w: i64 = -1;
        while v < n {
            let r: f64 = rng.gen_range(0.0..1.0f64);
            let skip = ((1.0 - r).ln() / log_q).floor() as i64;
            w += 1 + skip;
            while w >= v as i64 && v < n {
                w -= v as i64;
                v += 1;
            }
            if v < n {
                edges.push((w as usize, v));
            }
        }
    }
    Graph::from_edges(n, edges).expect("gnp produces distinct pairs")
}

/// Uniform random graph with exactly `m` edges (`G(n, m)`), sampled without
/// replacement.
///
/// # Panics
///
/// Panics if `m` exceeds the number of possible edges.
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    let max_m = n * n.saturating_sub(1) / 2;
    assert!(m <= max_m, "m={m} exceeds max possible edges {max_m}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = DetHashSet::with_capacity_and_hasher(m * 2, Default::default());
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if chosen.insert(key) {
            edges.push(key);
        }
    }
    Graph::from_edges(n, edges).expect("gnm produces distinct pairs")
}

/// Random `d`-regular simple graph on `n` nodes via a seeded circulant
/// start followed by `10·m` double-edge swaps (degree-preserving Markov
/// chain). Requires `n·d` even, `d < n`.
///
/// # Panics
///
/// Panics if `d ≥ n` or `n·d` is odd.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!(d < n, "degree d={d} must be < n={n}");
    assert!((n * d).is_multiple_of(2), "n*d must be even (n={n}, d={d})");
    if d == 0 {
        return Graph::empty(n);
    }
    // Circulant base graph: connect i to i±1, …, i±⌊d/2⌋; if d is odd also
    // to the antipode i + n/2 (n is even in that case since n·d is even).
    let mut edge_set: DetHashSet<(usize, usize)> = DetHashSet::default();
    let key = |u: usize, v: usize| if u < v { (u, v) } else { (v, u) };
    for i in 0..n {
        for off in 1..=(d / 2) {
            edge_set.insert(key(i, (i + off) % n));
        }
        if d % 2 == 1 {
            edge_set.insert(key(i, (i + n / 2) % n));
        }
    }
    let mut edges: Vec<(usize, usize)> = edge_set.iter().copied().collect();
    edges.sort_unstable();
    let m = edges.len();
    debug_assert_eq!(m, n * d / 2, "circulant base must be exactly d-regular");

    // Randomize with double-edge swaps: pick edges (a,b),(c,e), replace with
    // (a,c),(b,e) when the result stays simple. Preserves all degrees.
    let mut rng = StdRng::seed_from_u64(seed);
    let swaps = 10 * m;
    for _ in 0..swaps {
        let i = rng.gen_range(0..m);
        let j = rng.gen_range(0..m);
        if i == j {
            continue;
        }
        let (mut a, mut b) = edges[i];
        let (mut c, mut e) = edges[j];
        // Randomize orientation of both edges.
        if rng.gen_bool(0.5) {
            std::mem::swap(&mut a, &mut b);
        }
        if rng.gen_bool(0.5) {
            std::mem::swap(&mut c, &mut e);
        }
        if a == c || a == e || b == c || b == e {
            continue; // shares a node; swap would create a loop
        }
        let new1 = key(a, c);
        let new2 = key(b, e);
        if edge_set.contains(&new1) || edge_set.contains(&new2) {
            continue;
        }
        edge_set.remove(&key(a, b));
        edge_set.remove(&key(c, e));
        edge_set.insert(new1);
        edge_set.insert(new2);
        edges[i] = new1;
        edges[j] = new2;
    }
    Graph::from_edges(n, edges).expect("double-edge swaps preserve simplicity")
}

/// Random bipartite graph where every left node has degree exactly `d`
/// (right degrees are random). Left side `0..a`, right side `a..a+b`.
///
/// # Panics
///
/// Panics if `d > b`.
pub fn random_bipartite_left_regular(a: usize, b: usize, d: usize, seed: u64) -> Graph {
    assert!(d <= b, "left degree d={d} must be <= right side size b={b}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut right: Vec<usize> = (0..b).collect();
    let mut edges = Vec::with_capacity(a * d);
    for u in 0..a {
        // Partial Fisher–Yates: only the d-prefix needs to be a uniformly
        // random ordered sample, so stop the shuffle after d swaps — O(a·d)
        // total instead of the O(a·b) full re-shuffle per left node. The
        // prefix is uniform regardless of the array's prior permutation, so
        // `right` carries over between iterations without a reset.
        for i in 0..d {
            let j = rng.gen_range(i..b);
            right.swap(i, j);
        }
        for &r in right.iter().take(d) {
            edges.push((u, a + r));
        }
    }
    Graph::from_edges(a + b, edges).expect("bipartite construction is simple")
}

/// RMAT/Kronecker-style random graph on `2^scale` nodes, targeting
/// `edge_factor · 2^scale` distinct edges (Graph500 quadrant probabilities
/// a = 0.57, b = c = 0.19, d = 0.05).
///
/// Each sample picks one of the four adjacency-matrix quadrants per bit
/// level, producing the skewed, scale-free degree profile that makes this
/// the standard million-edge stress family. Self-loops are resampled and
/// duplicates dropped through a deterministic hash set, so the result is
/// simple; in pathological corners (tiny `scale`, huge `edge_factor`) the
/// sampler gives up after a bounded number of attempts and returns the
/// distinct edges found, keeping the generator total.
///
/// Deterministic in `(scale, edge_factor, seed)`.
///
/// # Panics
///
/// Panics if `scale` is 0 or exceeds 31 (node ids must fit `u32`).
pub fn kronecker(scale: u32, edge_factor: usize, seed: u64) -> Graph {
    assert!(
        (1..=31).contains(&scale),
        "kronecker scale must be in 1..=31, got {scale}"
    );
    let n = 1usize << scale;
    let target = edge_factor * n;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chosen = DetHashSet::with_capacity_and_hasher(target * 2, Default::default());
    let mut builder = GraphBuilder::with_capacity(n, target);
    let mut attempts = 0usize;
    let max_attempts = target.saturating_mul(32).max(1024);
    while builder.num_edges() < target && attempts < max_attempts {
        attempts += 1;
        let mut u = 0usize;
        let mut v = 0usize;
        for _ in 0..scale {
            let r: f64 = rng.gen_range(0.0..1.0f64);
            // Quadrant cut points: a, a+b, a+b+c.
            let (du, dv) = if r < 0.57 {
                (0, 0)
            } else if r < 0.76 {
                (0, 1)
            } else if r < 0.95 {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | du;
            v = (v << 1) | dv;
        }
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if chosen.insert(key) {
            builder.add_edge(NodeId::from(u), NodeId::from(v));
        }
    }
    builder.build().expect("kronecker edges are deduplicated")
}

/// Chung–Lu power-law random graph with exponent `gamma > 2` and average
/// weight scaled so maximum expected degree ≈ `max_weight`.
///
/// Uses the Miller–Hagberg skipping sampler: expected `O(n + m)` time.
pub fn power_law(n: usize, gamma: f64, max_weight: f64, seed: u64) -> Graph {
    assert!(gamma > 2.0, "power law exponent must be > 2, got {gamma}");
    let mut rng = StdRng::seed_from_u64(seed);
    // Weights w_i = max_weight · (i+1)^(−1/(γ−1)), sorted descending.
    let alpha = 1.0 / (gamma - 1.0);
    let weights: Vec<f64> = (0..n)
        .map(|i| max_weight * ((i + 1) as f64).powf(-alpha))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut edges = Vec::new();
    for i in 0..n.saturating_sub(1) {
        let mut j = i + 1;
        let mut p = (weights[i] * weights[j] / total).min(1.0);
        while j < n && p > 0.0 {
            if p < 1.0 {
                let r: f64 = rng.gen_range(0.0..1.0f64);
                let skip = ((1.0 - r).ln() / (1.0 - p).ln()).floor() as usize;
                j += skip;
            }
            if j >= n {
                break;
            }
            let q = (weights[i] * weights[j] / total).min(1.0);
            if rng.gen_range(0.0..1.0f64) < q / p {
                edges.push((i, j));
            }
            p = q;
            j += 1;
        }
    }
    Graph::from_edges(n, edges).expect("power law pairs are distinct")
}

/// Uniform random labelled tree on `n` nodes via a random Prüfer sequence.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    if n <= 1 {
        return Graph::empty(n);
    }
    if n == 2 {
        return Graph::from_edges(2, [(0, 1)]).expect("single edge");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &p in &prufer {
        degree[p] += 1;
    }
    let mut edges = Vec::with_capacity(n - 1);
    // Min-heap of current leaves.
    let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &p in &prufer {
        let std::cmp::Reverse(leaf) = leaves.pop().expect("prufer invariant");
        edges.push((leaf, p));
        degree[p] -= 1;
        if degree[p] == 1 {
            leaves.push(std::cmp::Reverse(p));
        }
    }
    let std::cmp::Reverse(u) = leaves.pop().expect("two leaves remain");
    let std::cmp::Reverse(v) = leaves.pop().expect("two leaves remain");
    edges.push((u, v));
    Graph::from_edges(n, edges).expect("prufer decoding yields a tree")
}

/// Disjoint union of graphs, re-indexing nodes consecutively.
pub fn disjoint_union(parts: &[Graph]) -> Graph {
    let n: usize = parts.iter().map(|g| g.num_nodes()).sum();
    let mut builder = GraphBuilder::new(n);
    let mut base = 0usize;
    for g in parts {
        for e in g.edges() {
            let [u, v] = g.endpoints(e);
            builder.add_edge(
                NodeId::from(base + u.index()),
                NodeId::from(base + v.index()),
            );
        }
        base += g.num_nodes();
    }
    builder.build().expect("union of simple graphs is simple")
}

/// Isomorphic copy of `g` under the node permutation `perm`
/// (`perm[old] = new`). Edge ids follow the original edge order.
///
/// Useful for testing that algorithms depend only on structure + ids, not on
/// internal storage order.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..n`.
pub fn relabel(g: &Graph, perm: &[usize]) -> Graph {
    assert_eq!(perm.len(), g.num_nodes(), "permutation length mismatch");
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        assert!(p < perm.len() && !seen[p], "perm is not a permutation");
        seen[p] = true;
    }
    let edges = g
        .edge_list()
        .iter()
        .map(|[u, v]| (perm[u.index()], perm[v.index()]));
    Graph::from_edges(g.num_nodes(), edges).expect("relabelling preserves simplicity")
}

/// A uniformly random permutation of `0..n`, for use with [`relabel`].
pub fn random_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut rng);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structured_families_have_expected_shape() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(cycle(5).max_degree(), 2);
        assert_eq!(complete(6).num_edges(), 15);
        assert_eq!(complete(6).max_degree(), 5);
        assert_eq!(complete_bipartite(3, 4).num_edges(), 12);
        assert_eq!(star(7).max_degree(), 7);
        assert_eq!(grid(4, 3).num_nodes(), 12);
        assert_eq!(grid(4, 3).num_edges(), 3 * 3 + 4 * 2);
        assert_eq!(torus(4, 4).num_edges(), 32);
        assert!(torus(4, 4).nodes().all(|v| torus(4, 4).degree(v) == 4));
        assert_eq!(hypercube(4).num_nodes(), 16);
        assert_eq!(hypercube(4).max_degree(), 4);
        assert_eq!(petersen().num_edges(), 15);
        assert!(petersen().nodes().all(|v| petersen().degree(v) == 3));
        assert_eq!(binary_tree(3).num_nodes(), 15);
        assert_eq!(binary_tree(3).num_edges(), 14);
        assert_eq!(caterpillar(4, 2).num_edges(), 3 + 8);
    }

    #[test]
    fn kronecker_is_deterministic_and_simple() {
        let a = kronecker(8, 4, 11);
        let b = kronecker(8, 4, 11);
        let c = kronecker(8, 4, 12);
        assert_eq!(a, b);
        assert_ne!(a.edge_list(), c.edge_list());
        assert_eq!(a.num_nodes(), 256);
        assert_eq!(a.num_edges(), 4 * 256, "ample id space: target reached");
        // RMAT skew: the max degree should clearly exceed the average.
        assert!(a.max_degree() > 2 * 4 * 2);
    }

    #[test]
    fn kronecker_saturated_corner_stays_total() {
        // scale 1 has one possible edge; an absurd edge factor must not hang.
        let g = kronecker(1, 1000, 3);
        assert_eq!(g.num_nodes(), 2);
        assert!(g.num_edges() <= 1);
    }

    #[test]
    fn gnp_is_deterministic_per_seed() {
        let a = gnp(100, 0.05, 42);
        let b = gnp(100, 0.05, 42);
        let c = gnp(100, 0.05, 43);
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.edge_list(), b.edge_list());
        assert_ne!(a.edge_list(), c.edge_list());
    }

    #[test]
    fn gnp_density_roughly_matches_p() {
        let n = 400;
        let p = 0.1;
        let g = gnp(n, p, 7);
        let expected = (n * (n - 1) / 2) as f64 * p;
        let m = g.num_edges() as f64;
        assert!(
            (m - expected).abs() < 4.0 * expected.sqrt() + 40.0,
            "m={m} far from expected {expected}"
        );
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(20, 0.0, 1).num_edges(), 0);
        assert_eq!(gnp(20, 1.0, 1).num_edges(), 190);
    }

    #[test]
    fn gnm_has_exactly_m_edges() {
        let g = gnm(50, 100, 3);
        assert_eq!(g.num_edges(), 100);
    }

    #[test]
    fn random_regular_is_regular() {
        for (n, d, seed) in [(16, 3, 1), (20, 4, 2), (31, 6, 3), (10, 9, 4)] {
            let g = random_regular(n, d, seed);
            assert_eq!(g.num_edges(), n * d / 2);
            for v in g.nodes() {
                assert_eq!(g.degree(v), d, "node {v} in {n}-node {d}-regular");
            }
        }
    }

    #[test]
    fn random_regular_seeds_differ() {
        let a = random_regular(24, 3, 1);
        let b = random_regular(24, 3, 2);
        assert_ne!(a.edge_list(), b.edge_list());
    }

    #[test]
    fn random_regular_zero_degree() {
        let g = random_regular(8, 0, 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn bipartite_left_regular_degrees() {
        let g = random_bipartite_left_regular(10, 15, 4, 9);
        for u in 0..10usize {
            assert_eq!(g.degree(NodeId::from(u)), 4);
        }
        // Right nodes only connect to left nodes.
        for r in 10..25usize {
            for w in g.neighbors(NodeId::from(r)) {
                assert!(w.index() < 10);
            }
        }
    }

    #[test]
    fn power_law_is_simple_and_skewed() {
        let g = power_law(300, 2.5, 30.0, 11);
        assert!(g.num_edges() > 0);
        // Max degree should exceed the mean degree noticeably.
        let mean = 2.0 * g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(g.max_degree() as f64 > mean, "power law should be skewed");
    }

    #[test]
    fn random_tree_is_tree() {
        for n in [2usize, 3, 10, 100] {
            let g = random_tree(n, 5);
            assert_eq!(g.num_edges(), n - 1);
            // Connected: BFS from 0 reaches all.
            let mut seen = vec![false; n];
            let mut stack = vec![NodeId(0)];
            seen[0] = true;
            while let Some(v) = stack.pop() {
                for w in g.neighbors(v) {
                    if !seen[w.index()] {
                        seen[w.index()] = true;
                        stack.push(w);
                    }
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "tree on {n} nodes must be connected"
            );
        }
    }

    #[test]
    fn disjoint_union_offsets_nodes() {
        let g = disjoint_union(&[path(3), cycle(3)]);
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 2 + 3);
        assert!(g.edge_between(NodeId(2), NodeId(3)).is_none());
    }

    #[test]
    fn relabel_is_isomorphic() {
        let g = cycle(6);
        let perm = random_permutation(6, 99);
        let h = relabel(&g, &perm);
        assert_eq!(h.num_edges(), g.num_edges());
        for v in g.nodes() {
            assert_eq!(h.degree(NodeId::from(perm[v.index()])), g.degree(v));
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabel_rejects_non_permutation() {
        let g = path(3);
        let _ = relabel(&g, &[0, 0, 1]);
    }
}
