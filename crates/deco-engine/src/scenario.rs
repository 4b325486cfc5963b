//! The scenario matrix: one declared source of truth for workloads.
//!
//! Correctness sweeps and benchmarks used to each hand-roll their own
//! `(graph family, size, ID assignment, seed)` combinations, which made
//! coverage impossible to audit. A [`Scenario`] bundles those choices; a
//! [`ScenarioMatrix`] enumerates the cross product of graph families ×
//! sizes × ID-assignment flavors from a single base seed.
//!
//! Seeding follows the design of ixa's random module: every random
//! quantity draws from a *named stream* ([`Scenario::stream`]) whose seed
//! is derived deterministically from `(base seed, scenario name, stream
//! label)`. Two scenarios never share a stream, adding a stream never
//! shifts an existing one, and rerunning the matrix reproduces every graph
//! and ID assignment bit for bit — on any platform (the generators and
//! hashers underneath are deterministic by construction).
//!
//! ```
//! use deco_engine::ScenarioMatrix;
//!
//! let matrix = ScenarioMatrix::smoke(7);
//! let scenario = matrix.iter().next().unwrap();
//! // Building twice reproduces the same workload bit for bit…
//! let (a, b) = (scenario.graph(), scenario.graph());
//! assert_eq!(a.edge_list(), b.edge_list());
//! assert_eq!(scenario.network(&a).ids(), scenario.network(&b).ids());
//! // …and every scenario name is unique across the matrix.
//! assert_eq!(
//!     matrix.iter().map(|s| &s.name).collect::<std::collections::HashSet<_>>().len(),
//!     matrix.len(),
//! );
//! ```

use deco_graph::{generators, Graph};
use deco_local::network::{IdAssignment, Network};
use rand::prelude::*;

/// A graph family + size, buildable from a seed.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// Path `P_n`.
    Path {
        /// Number of nodes.
        n: usize,
    },
    /// Cycle `C_n`.
    Cycle {
        /// Number of nodes (≥ 3).
        n: usize,
    },
    /// Complete graph `K_n`.
    Complete {
        /// Number of nodes.
        n: usize,
    },
    /// Complete bipartite `K_{a,b}`.
    CompleteBipartite {
        /// Left side size.
        a: usize,
        /// Right side size.
        b: usize,
    },
    /// `w × h` grid.
    Grid {
        /// Width.
        w: usize,
        /// Height.
        h: usize,
    },
    /// `d`-dimensional hypercube.
    Hypercube {
        /// Dimension.
        d: u32,
    },
    /// Random `d`-regular graph on `n` nodes.
    RandomRegular {
        /// Number of nodes.
        n: usize,
        /// Degree.
        d: usize,
    },
    /// Erdős–Rényi `G(n, p)`.
    Gnp {
        /// Number of nodes.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// Chung–Lu power-law graph.
    PowerLaw {
        /// Number of nodes.
        n: usize,
    },
    /// RMAT/Kronecker graph on `2^scale` nodes — the scale-out family the
    /// million-edge substrate targets; heavy-tailed degrees stress the
    /// degree-balanced chunking of every parallel engine.
    Kronecker {
        /// Log2 of the node count.
        scale: u32,
        /// Distinct-edge target per node (`edge_factor << scale` edges).
        edge_factor: usize,
    },
    /// Uniform random labelled tree.
    RandomTree {
        /// Number of nodes.
        n: usize,
    },
    /// Disconnected stress case: two independent random-regular components
    /// plus a sprinkling of isolated nodes.
    TwoClusters {
        /// Nodes per cluster.
        n: usize,
        /// Degree within each cluster.
        d: usize,
    },
    /// Disconnected stress case: a disjoint union of many small components
    /// of mixed shapes (paths, cycles, stars, cliques) and mixed sizes,
    /// plus isolated nodes. Every component halts on its own schedule,
    /// which makes this a delivery-correctness and halting stress for
    /// every executor.
    ManySmallComponents {
        /// Number of non-trivial components (isolated nodes come extra).
        components: usize,
        /// Largest component size; sizes are drawn from `2..=max_size`.
        max_size: usize,
    },
}

impl GraphSpec {
    /// Canonical label, used in scenario names and reports.
    pub fn label(&self) -> String {
        match self {
            GraphSpec::Path { n } => format!("path(n={n})"),
            GraphSpec::Cycle { n } => format!("cycle(n={n})"),
            GraphSpec::Complete { n } => format!("complete(n={n})"),
            GraphSpec::CompleteBipartite { a, b } => format!("bipartite(a={a},b={b})"),
            GraphSpec::Grid { w, h } => format!("grid({w}x{h})"),
            GraphSpec::Hypercube { d } => format!("hypercube(d={d})"),
            GraphSpec::RandomRegular { n, d } => format!("regular(n={n},d={d})"),
            GraphSpec::Gnp { n, p } => format!("gnp(n={n},p={p})"),
            GraphSpec::PowerLaw { n } => format!("powerlaw(n={n})"),
            GraphSpec::Kronecker { scale, edge_factor } => {
                format!("kronecker(s={scale},ef={edge_factor})")
            }
            GraphSpec::RandomTree { n } => format!("tree(n={n})"),
            GraphSpec::TwoClusters { n, d } => format!("two-clusters(n={n},d={d})"),
            GraphSpec::ManySmallComponents {
                components,
                max_size,
            } => format!("many-components(k={components},s={max_size})"),
        }
    }

    /// Builds the graph; `seed` feeds the random families and is ignored by
    /// the structured ones.
    pub fn build(&self, seed: u64) -> Graph {
        match *self {
            GraphSpec::Path { n } => generators::path(n),
            GraphSpec::Cycle { n } => generators::cycle(n),
            GraphSpec::Complete { n } => generators::complete(n),
            GraphSpec::CompleteBipartite { a, b } => generators::complete_bipartite(a, b),
            GraphSpec::Grid { w, h } => generators::grid(w, h),
            GraphSpec::Hypercube { d } => generators::hypercube(d),
            GraphSpec::RandomRegular { n, d } => generators::random_regular(n, d, seed),
            GraphSpec::Gnp { n, p } => generators::gnp(n, p, seed),
            GraphSpec::PowerLaw { n } => {
                generators::power_law(n, 2.5, (n as f64).sqrt().min(64.0), seed)
            }
            GraphSpec::Kronecker { scale, edge_factor } => {
                generators::kronecker(scale, edge_factor, seed)
            }
            GraphSpec::RandomTree { n } => generators::random_tree(n, seed),
            GraphSpec::TwoClusters { n, d } => generators::disjoint_union(&[
                generators::random_regular(n, d, seed),
                generators::random_regular(n, d, seed ^ 0xA5A5_A5A5),
                Graph::empty(3),
            ]),
            GraphSpec::ManySmallComponents {
                components,
                max_size,
            } => many_small_components(components, max_size, seed),
        }
    }
}

/// Builds the [`GraphSpec::ManySmallComponents`] family: `components`
/// small graphs of seed-drawn shape and size, one isolated node appended
/// after every third component. Deterministic: depends only on the
/// arguments (the generated topology is pinned by a digest regression
/// test, in the style of the SparseRandom ID pin — shifting it silently
/// would shift every differential sweep that covers the family).
fn many_small_components(components: usize, max_size: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_size = max_size.max(2);
    let mut parts = Vec::with_capacity(components + components / 3);
    for i in 0..components {
        let size = rng.gen_range(2..=max_size);
        let part = match rng.gen_range(0..4u32) {
            0 => generators::path(size),
            1 if size >= 3 => generators::cycle(size),
            2 => generators::star(size - 1),
            _ => generators::complete(size.min(5)),
        };
        parts.push(part);
        if i % 3 == 2 {
            parts.push(Graph::empty(1));
        }
    }
    generators::disjoint_union(&parts)
}

/// ID-assignment flavor, the matrix axis; concrete seeds are derived per
/// scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdFlavor {
    /// `IdAssignment::Sequential`.
    Sequential,
    /// `IdAssignment::Reversed`.
    Reversed,
    /// `IdAssignment::Shuffled` with a scenario-derived seed.
    Shuffled,
    /// `IdAssignment::SparseRandom` with a scenario-derived seed.
    SparseRandom,
}

impl IdFlavor {
    /// All flavors, in canonical order.
    pub const ALL: [IdFlavor; 4] = [
        IdFlavor::Sequential,
        IdFlavor::Reversed,
        IdFlavor::Shuffled,
        IdFlavor::SparseRandom,
    ];

    fn label(self) -> &'static str {
        match self {
            IdFlavor::Sequential => "seq",
            IdFlavor::Reversed => "rev",
            IdFlavor::Shuffled => "shuf",
            IdFlavor::SparseRandom => "sparse",
        }
    }
}

/// One fully specified workload: graph family × size × ID flavor, plus the
/// matrix base seed all of its random streams derive from.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Unique name: `<spec label>/<id flavor>`.
    pub name: String,
    /// The graph family and size.
    pub spec: GraphSpec,
    /// The ID-assignment flavor.
    pub id_flavor: IdFlavor,
    base_seed: u64,
}

impl Scenario {
    /// Creates a scenario; `base_seed` is normally supplied by the matrix.
    pub fn new(spec: GraphSpec, id_flavor: IdFlavor, base_seed: u64) -> Scenario {
        Scenario {
            name: format!("{}/{}", spec.label(), id_flavor.label()),
            spec,
            id_flavor,
            base_seed,
        }
    }

    /// The seed of this scenario's named stream `label` — an FNV-1a hash of
    /// `(base seed, scenario name, label)`. Stable across platforms and
    /// insertion orders (ixa-style named streams).
    pub fn stream_seed(&self, label: &str) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = OFFSET;
        for b in self
            .base_seed
            .to_le_bytes()
            .iter()
            .chain(self.name.as_bytes())
            .chain([0xFFu8].iter())
            .chain(label.as_bytes())
        {
            h = (h ^ u64::from(*b)).wrapping_mul(PRIME);
        }
        h
    }

    /// A fresh RNG on this scenario's named stream `label`.
    pub fn stream(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(self.stream_seed(label))
    }

    /// Builds the scenario's graph (stream `"graph"`).
    pub fn graph(&self) -> Graph {
        self.spec.build(self.stream_seed("graph"))
    }

    /// The concrete ID assignment (stream `"ids"` for the seeded flavors).
    pub fn id_assignment(&self) -> IdAssignment {
        match self.id_flavor {
            IdFlavor::Sequential => IdAssignment::Sequential,
            IdFlavor::Reversed => IdAssignment::Reversed,
            IdFlavor::Shuffled => IdAssignment::Shuffled(self.stream_seed("ids")),
            IdFlavor::SparseRandom => IdAssignment::SparseRandom(self.stream_seed("ids")),
        }
    }

    /// Builds the network over an already-built `graph` of this scenario.
    pub fn network<'g>(&self, graph: &'g Graph) -> Network<'g> {
        Network::new(graph, self.id_assignment())
    }
}

/// An enumerated set of scenarios — the declared coverage of a sweep.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    scenarios: Vec<Scenario>,
}

impl ScenarioMatrix {
    /// The standard matrix: every structured and random family at small and
    /// medium sizes, crossed with every ID flavor.
    pub fn standard(base_seed: u64) -> ScenarioMatrix {
        let specs = vec![
            GraphSpec::Path { n: 2 },
            GraphSpec::Path { n: 33 },
            GraphSpec::Cycle { n: 48 },
            GraphSpec::Complete { n: 13 },
            GraphSpec::CompleteBipartite { a: 7, b: 9 },
            GraphSpec::Grid { w: 8, h: 5 },
            GraphSpec::Hypercube { d: 5 },
            GraphSpec::RandomRegular { n: 64, d: 8 },
            GraphSpec::RandomRegular { n: 120, d: 16 },
            GraphSpec::Gnp { n: 80, p: 0.08 },
            GraphSpec::PowerLaw { n: 100 },
            GraphSpec::Kronecker {
                scale: 7,
                edge_factor: 4,
            },
            GraphSpec::RandomTree { n: 90 },
            GraphSpec::TwoClusters { n: 24, d: 4 },
            GraphSpec::ManySmallComponents {
                components: 18,
                max_size: 7,
            },
        ];
        ScenarioMatrix::cross(specs, base_seed)
    }

    /// A small matrix for fast smoke tests: one size per family, all ID
    /// flavors.
    pub fn smoke(base_seed: u64) -> ScenarioMatrix {
        let specs = vec![
            GraphSpec::Path { n: 6 },
            GraphSpec::Cycle { n: 9 },
            GraphSpec::Complete { n: 6 },
            GraphSpec::RandomRegular { n: 20, d: 4 },
            GraphSpec::RandomTree { n: 15 },
            GraphSpec::Kronecker {
                scale: 5,
                edge_factor: 3,
            },
            GraphSpec::TwoClusters { n: 8, d: 2 },
            GraphSpec::ManySmallComponents {
                components: 6,
                max_size: 5,
            },
        ];
        ScenarioMatrix::cross(specs, base_seed)
    }

    fn cross(specs: Vec<GraphSpec>, base_seed: u64) -> ScenarioMatrix {
        let scenarios = specs
            .into_iter()
            .flat_map(|spec| {
                IdFlavor::ALL
                    .into_iter()
                    .map(move |flavor| Scenario::new(spec.clone(), flavor, base_seed))
            })
            .collect();
        ScenarioMatrix { scenarios }
    }

    /// Iterates the scenarios in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.scenarios.iter()
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    #[test]
    fn names_are_unique() {
        let m = ScenarioMatrix::standard(7);
        let mut names: Vec<&str> = m.iter().map(|s| s.name.as_str()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "scenario names must be unique");
    }

    #[test]
    fn streams_are_independent_and_reproducible() {
        let m = ScenarioMatrix::smoke(11);
        let s = m.iter().next().unwrap();
        assert_eq!(s.stream_seed("graph"), s.stream_seed("graph"));
        assert_ne!(s.stream_seed("graph"), s.stream_seed("ids"));
        // Different scenarios get different streams for the same label.
        let t = m.iter().nth(5).unwrap();
        assert_ne!(s.stream_seed("graph"), t.stream_seed("graph"));
        // Different base seeds shift every stream.
        let m2 = ScenarioMatrix::smoke(12);
        let s2 = m2.iter().next().unwrap();
        assert_ne!(s.stream_seed("graph"), s2.stream_seed("graph"));
    }

    #[test]
    fn graphs_rebuild_identically() {
        let m = ScenarioMatrix::smoke(3);
        for s in m.iter() {
            let a = s.graph();
            let b = s.graph();
            assert_eq!(a.edge_list(), b.edge_list(), "{}", s.name);
            let na = s.network(&a);
            let nb = s.network(&b);
            assert_eq!(na.ids(), nb.ids(), "{}", s.name);
        }
    }

    #[test]
    fn two_clusters_is_disconnected_with_isolated_nodes() {
        let spec = GraphSpec::TwoClusters { n: 8, d: 2 };
        let g = spec.build(5);
        assert_eq!(g.num_nodes(), 19);
        // The three trailing nodes are isolated.
        for v in 16..19usize {
            assert_eq!(g.degree(deco_graph::NodeId::from(v)), 0);
        }
    }

    #[test]
    fn many_small_components_is_deterministic_and_disconnected() {
        let spec = GraphSpec::ManySmallComponents {
            components: 9,
            max_size: 6,
        };
        let a = spec.build(11);
        let b = spec.build(11);
        assert_eq!(a.edge_list(), b.edge_list(), "seed determines topology");
        assert_ne!(
            a.edge_list(),
            spec.build(12).edge_list(),
            "different seeds differ"
        );
        // One isolated node per three components, by construction.
        let isolated = a.nodes().filter(|&v| a.degree(v) == 0).count();
        assert_eq!(isolated, 3);
        // 9 drawn components + 3 isolated nodes.
        let (_, count) = deco_graph::traversal::connected_components(&a);
        assert_eq!(count, 12);
        // The topology itself is pinned, like the SparseRandom ID pin in
        // deco-local: bump the digest deliberately, never by accident.
        let mut h = deco_graph::hashing::DetHasher::default();
        h.write_u64(a.num_nodes() as u64);
        for [u, v] in a.edge_list() {
            h.write_u64(u.index() as u64);
            h.write_u64(v.index() as u64);
        }
        assert_eq!(
            h.finish(),
            14497121669631131190,
            "many-small-components topology shifted"
        );
    }

    #[test]
    fn standard_matrix_covers_all_flavors() {
        let m = ScenarioMatrix::standard(1);
        assert_eq!(m.len() % IdFlavor::ALL.len(), 0);
        assert!(m.len() >= 40, "matrix should be broad, got {}", m.len());
        assert!(!m.is_empty());
    }
}
