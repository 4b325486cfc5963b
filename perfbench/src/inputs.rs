//! Seeded inputs. The graphs a workload solves are fixed (generated from
//! [`GRAPH_SEED`]), so rounds and messages are the same on every run and
//! must repeat exactly; `--seed` drives everything else: the order of the
//! solves, the churn streams and which graph each served request carries.
//! The program under test only ever sees the generated inputs.

use deco::graph::{generators, EdgeUpdate, Graph};

/// SplitMix64: a tiny, fully specified generator, so input streams do not
/// depend on any library's random number implementation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seed of every solved graph.
pub const GRAPH_SEED: u64 = 2020;

/// Input scale: the real workload, or a tiny one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// What a workload feeds the program: the graphs it solves and the graph
/// its churn sessions live on.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub solves: Vec<Graph>,
    pub session_graph: Graph,
}

/// `kron-solve`: one RMAT/Kronecker graph, solved over and over; its
/// session churns the same graph.
pub fn kron(size: Size) -> Inputs {
    let (scale, edge_factor) = match size {
        Size::Full => (12, 8),
        Size::Smoke => (7, 4),
    };
    let g = generators::kronecker(scale, edge_factor, GRAPH_SEED);
    Inputs {
        solves: vec![g.clone()],
        session_graph: g,
    }
}

/// `small-batch`: for each of 40 seeds drawn from [`GRAPH_SEED`], one
/// `random_regular(n, 8)` graph plus the five families of the experiments'
/// mixed suite at the same `n`, solved in an order drawn from `seed`. The
/// session churns the first regular graph.
pub fn batch(seed: u64, size: Size) -> Inputs {
    let (n, groups) = match size {
        Size::Full => (96, 40),
        Size::Smoke => (24, 2),
    };
    let mut rng = Rng::new(GRAPH_SEED);
    let mut solves = Vec::with_capacity(groups * 6);
    for _ in 0..groups {
        // The suite offsets its family seeds by +1..+4; stay clear of them.
        let s = rng.next_u64() >> 8;
        solves.push(generators::random_regular(n, 8, s));
        solves.extend(
            deco_bench::workloads::mixed_suite(n, s)
                .into_iter()
                .map(|w| w.graph),
        );
    }
    let session_graph = solves[0].clone();
    let mut order = Rng::new(seed);
    for i in (1..solves.len()).rev() {
        solves.swap(i, order.below(i + 1));
    }
    Inputs {
        solves,
        session_graph,
    }
}

/// `serve-mixed`: a pool of small 4-regular graphs the clients send as
/// inline solves, and the 6-regular graph their sessions churn.
pub fn serve(size: Size) -> Inputs {
    let (pool, base_n, session_n, session_d) = match size {
        Size::Full => (32, 40, 200, 6),
        Size::Smoke => (4, 12, 30, 4),
    };
    let mut rng = Rng::new(GRAPH_SEED);
    let solves = (0..pool)
        .map(|k| generators::random_regular(base_n + 2 * (k % 4), 4, rng.next_u64()))
        .collect();
    Inputs {
        solves,
        session_graph: generators::random_regular(session_n, session_d, rng.next_u64()),
    }
}

/// Node ids `1..=n`, the assignment the daemon uses for inline graphs, so
/// in-process and served solves of one graph are the same computation.
pub fn ids(g: &Graph) -> Vec<u64> {
    (1..=g.num_nodes() as u64).collect()
}

/// A seeded edge-churn stream over a pool of node-disjoint pairs covering
/// half the nodes: each update toggles one pair (insert if absent, remove
/// if present), so the graph stays within `n/4` edges of where it started
/// for any trace length. When enough nodes lie below the maximum degree,
/// pairs use only those, so no update moves Δ. The pool is large so that
/// no single pair's cost sets the tail latency of a run.
#[derive(Debug, Clone)]
pub struct Churn {
    pairs: Vec<(u32, u32)>,
    present: Vec<bool>,
    rng: Rng,
}

impl Churn {
    pub fn new(g: &Graph, seed: u64) -> Churn {
        let pool = (g.num_nodes() / 4).max(1);
        let mut rng = Rng::new(seed);
        let dmax = g.max_degree();
        let mut nodes: Vec<u32> = g
            .nodes()
            .filter(|&v| g.degree(v) < dmax)
            .map(|v| v.0)
            .collect();
        if nodes.len() < 2 * pool {
            nodes = g.nodes().map(|v| v.0).collect();
        }
        for i in (1..nodes.len()).rev() {
            nodes.swap(i, rng.below(i + 1));
        }
        let pairs: Vec<(u32, u32)> = nodes
            .chunks_exact(2)
            .take(pool)
            .map(|p| (p[0], p[1]))
            .collect();
        let present = pairs
            .iter()
            .map(|&(u, v)| g.edge_between(u.into(), v.into()).is_some())
            .collect();
        Churn {
            pairs,
            present,
            rng,
        }
    }

    /// The next update of the stream.
    pub fn next_update(&mut self) -> EdgeUpdate {
        let i = self.rng.below(self.pairs.len());
        let (u, v) = self.pairs[i];
        self.present[i] = !self.present[i];
        if self.present[i] {
            EdgeUpdate::insert(u, v)
        } else {
            EdgeUpdate::remove(u, v)
        }
    }
}
