//! Oracles for the computations that decide at an edge's endpoints instead
//! of walking its line-graph neighbours.
//!
//! * Linial on `L(G)` ([`linial::color_line_from_initial`]) must return
//!   what the message-passing [`LinialProtocol`] returns when the serial
//!   runner executes it on [`LineGraph::of`]: the same colors, palette,
//!   rounds and messages. Covered: every scenario of the standard matrix
//!   (its sparse-random ids give multi-step schedules), edgeless,
//!   isolated-node, star and single-edge graphs, and leaf-sized subgraphs
//!   that keep a large node set, seeded from a restricted X-coloring as the
//!   solver's base case is.
//! * Class elimination on `G` ([`class_elimination::list_color_by_classes`])
//!   must return the colors [`class_elimination::ByClassesProtocol`]
//!   returns on `L(G)`, over every scenario and the leaf-sized subgraphs.
//! * The Lemma 4.2 residual lists ([`slack::residual_after_sweep`]), built
//!   from endpoint palette rows, must equal each list with the colors of
//!   its colored neighbours removed one by one, over seeded random partial
//!   colorings whose colors reach into the palette's last word.

use deco::algos::class_elimination;
use deco::algos::edge_adapter::{edge_ids_by_pairing, linial_edge_coloring};
use deco::algos::greedy::{greedy_edge_coloring, EdgeOrder};
use deco::algos::linial::{self, LinialProtocol};
use deco::core_alg::instance::{self, ListInstance};
use deco::core_alg::slack;
use deco::engine::ScenarioMatrix;
use deco::graph::coloring::Color;
use deco::graph::{generators, EdgeId, EdgeSubgraph, Graph, LineGraph};
use deco::local::runner;
use deco::local::{IdAssignment, Network};
use deco::Runtime;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Runs Linial from `initial` (palette `m0`) both ways on `L(g)` and
/// demands identical observables. Returns the schedule length.
fn linial_oracle(name: &str, g: &Graph, ids: Vec<u64>, initial: Vec<u64>, m0: u64) -> u64 {
    let lg = LineGraph::of(g);
    let net = Network::with_ids(lg.graph(), ids);
    let protocol = LinialProtocol::new(initial.clone(), m0, net.max_degree() as u64);
    let steps = protocol.schedule.rounds();
    let expected = runner::run(&net, &protocol, steps + 1).expect("fixed schedule halts");
    let got = linial::color_line_from_initial(g, initial, m0);
    let expected_colors: Vec<u32> = expected.outputs.iter().map(|&c| c as u32).collect();
    assert_eq!(got.colors, expected_colors, "[{name}] colors diverge");
    assert_eq!(
        got.palette, protocol.schedule.final_palette,
        "[{name}] palettes diverge"
    );
    assert_eq!(got.rounds, expected.rounds, "[{name}] rounds diverge");
    assert_eq!(got.messages, expected.messages, "[{name}] messages diverge");
    steps
}

/// The X-coloring's inputs: pairing-derived edge ids, used as both the
/// network ids and the initial coloring.
fn x_coloring_oracle(name: &str, g: &Graph, node_ids: &[u64]) -> u64 {
    let eids = edge_ids_by_pairing(g, node_ids);
    let bound = node_ids.iter().copied().max().unwrap_or(1);
    linial_oracle(name, g, eids.clone(), eids, (bound + 1) * (bound + 1))
}

fn sequential_ids(n: usize) -> Vec<u64> {
    (1..=n as u64).collect()
}

#[test]
fn linial_on_the_line_graph_matches_the_protocol_on_every_scenario() {
    let mut multi_step = 0;
    for s in ScenarioMatrix::standard(17).iter() {
        let g = s.graph();
        let node_ids = s.network(&g).ids().to_vec();
        if g.num_edges() > 0 && x_coloring_oracle(&s.name, &g, &node_ids) >= 2 {
            multi_step += 1;
        }
    }
    assert!(multi_step > 0, "no scenario ran a multi-step schedule");
}

#[test]
fn linial_on_the_line_graph_matches_the_protocol_on_degenerate_graphs() {
    let isolated = Graph::from_edges(7, [(0, 1), (1, 2), (4, 5)]).unwrap();
    let single = Graph::from_edges(5, [(1, 3)]).unwrap();
    for (name, g) in [
        ("edgeless", Graph::empty(5)),
        ("isolated nodes", isolated),
        ("star", generators::star(9)),
        ("single edge", single),
    ] {
        x_coloring_oracle(name, &g, &sequential_ids(g.num_nodes()));
    }
    // The edgeless graph charges nothing, whatever the schedule.
    let none = linial::color_line_from_initial(&Graph::empty(5), Vec::new(), 100);
    assert_eq!((none.rounds, none.messages), (0, 0));
}

#[test]
fn linial_on_the_line_graph_matches_the_protocol_with_sparse_random_ids() {
    let g = generators::random_regular(60, 6, 8);
    let mut rng = StdRng::seed_from_u64(31);
    let n = g.num_nodes() as u64;
    // Distinct ids scattered over {1, …, n²}.
    let mut node_ids: Vec<u64> = Vec::new();
    while node_ids.len() < g.num_nodes() {
        let id = rng.gen_range(1..=n * n);
        if !node_ids.contains(&id) {
            node_ids.push(id);
        }
    }
    let steps = x_coloring_oracle("regular(60,6) sparse ids", &g, &node_ids);
    assert!(
        steps >= 2,
        "sparse ids give a multi-step schedule, got {steps}"
    );
}

/// Seeded edge subsets of `g` with maximum degree 3 (edge degree ≤ 4),
/// the size of a base-case leaf, each kept on `g`'s whole node set.
fn leaves(g: &Graph, seed: u64) -> Vec<EdgeSubgraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..6)
        .map(|_| {
            let mut order: Vec<EdgeId> = g.edges().collect();
            order.shuffle(&mut rng);
            let mut degree = vec![0usize; g.num_nodes()];
            let keep = rng.gen_range(1..=40usize);
            let mut kept = Vec::new();
            for e in order {
                let [u, v] = g.endpoints(e);
                if kept.len() < keep && degree[u.index()] < 3 && degree[v.index()] < 3 {
                    degree[u.index()] += 1;
                    degree[v.index()] += 1;
                    kept.push(e);
                }
            }
            EdgeSubgraph::from_edge_ids(g, &kept)
        })
        .collect()
}

#[test]
fn linial_on_leaf_subgraphs_matches_the_protocol() {
    let g = generators::kronecker(9, 8, 5);
    let node_ids = sequential_ids(g.num_nodes());
    let x = linial_edge_coloring(&g, &node_ids, &Runtime::serial()).unwrap();
    for (i, leaf) in leaves(&g, 12).iter().enumerate() {
        assert_eq!(leaf.graph().num_nodes(), g.num_nodes());
        let initial: Vec<u64> = leaf
            .edge_map()
            .iter()
            .map(|&pe| u64::from(x.coloring.get(pe).unwrap()))
            .collect();
        let ids = sequential_ids(leaf.graph().num_edges());
        linial_oracle(&format!("leaf {i}"), leaf.graph(), ids, initial, x.palette);
    }
}

/// Class elimination from the proper edge coloring `initial` with seeded
/// (deg(e)+1)-lists, both ways: at the endpoints on `g`, and as the
/// protocol on `L(g)`.
fn class_elimination_oracle(name: &str, g: &Graph, initial: Vec<u32>, classes: u32, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let c_max = 2 * g.max_edge_degree() as u32 + 2;
    let lists: Vec<Vec<u32>> = g
        .edges()
        .map(|e| {
            let mut all: Vec<u32> = (0..c_max).collect();
            all.shuffle(&mut rng);
            all.truncate(g.edge_degree(e) + 1);
            all
        })
        .collect();
    let (colors, rounds) = class_elimination::list_color_by_classes(g, &lists, &initial, classes);
    let lg = LineGraph::of(g);
    let net = Network::new(lg.graph(), IdAssignment::Sequential);
    let (expected, mp_rounds) = class_elimination::list_color_by_classes_mp(
        &net,
        lists,
        initial,
        classes,
        &Runtime::serial(),
    )
    .expect("fixed schedule halts");
    assert_eq!(colors, expected, "[{name}] colors diverge");
    if g.num_edges() > 0 {
        // The protocol spends one more round announcing the last class.
        assert_eq!(rounds + 1, mp_rounds, "[{name}] rounds diverge");
    }
}

#[test]
fn class_elimination_at_the_endpoints_matches_the_protocol() {
    // Every scenario, from a greedy edge coloring (at most 2Δ − 1 classes).
    for (i, s) in ScenarioMatrix::standard(23).iter().enumerate() {
        let g = s.graph();
        let greedy = greedy_edge_coloring(&g, EdgeOrder::ById);
        let initial: Vec<u32> = g.edges().map(|e| greedy.get(e).unwrap()).collect();
        let classes = initial.iter().max().map_or(1, |&c| c + 1);
        class_elimination_oracle(&s.name, &g, initial, classes, i as u64);
    }
    // Leaves as the base case runs them: Linial from the restricted
    // X-coloring, then one round per class.
    let g = generators::kronecker(9, 8, 5);
    let x = linial_edge_coloring(&g, &sequential_ids(g.num_nodes()), &Runtime::serial()).unwrap();
    for (i, leaf) in leaves(&g, 13).iter().enumerate() {
        let restricted: Vec<u64> = leaf
            .edge_map()
            .iter()
            .map(|&pe| u64::from(x.coloring.get(pe).unwrap()))
            .collect();
        let lin = linial::color_line_from_initial(leaf.graph(), restricted, x.palette);
        let classes = u32::try_from(lin.palette).unwrap();
        class_elimination_oracle(
            &format!("leaf {i}"),
            leaf.graph(),
            lin.colors,
            classes,
            40 + i as u64,
        );
    }
}

/// The residual lists by definition: each open edge's list with the colors
/// of its colored line-graph neighbours removed.
fn residual_by_walk(inst: &ListInstance, colors: &[Option<Color>]) -> Vec<Vec<Color>> {
    let g = inst.graph();
    g.edges()
        .filter(|e| colors[e.index()].is_none())
        .map(|e| {
            let mut list = inst.list(e).clone();
            let used: Vec<Color> = g
                .edge_neighbors(e)
                .filter_map(|f| colors[f.index()])
                .collect();
            list.remove_all(&used);
            list.to_vec()
        })
        .collect()
}

#[test]
fn endpoint_residual_lists_match_the_neighbour_walk() {
    let mut rng = StdRng::seed_from_u64(77);
    for (i, g) in [
        generators::random_regular(60, 8, 3),
        generators::gnp(70, 0.12, 4),
        generators::kronecker(7, 4, 6),
    ]
    .into_iter()
    .enumerate()
    {
        // Two full words and a partial last one.
        let palette = 165.max(g.max_edge_degree() as u32 + 1);
        let inst = instance::random_deg_plus_one(&g, palette, 90 + i as u64);
        for round in 0..8 {
            let colors: Vec<Option<Color>> = g
                .edges()
                .map(|_| rng.gen_bool(0.5).then(|| rng.gen_range(0..palette)))
                .collect();
            let x: Vec<u32> = g.edges().map(|e| e.index() as u32).collect();
            let res = slack::residual_after_sweep(&inst, &x, &colors);
            let got: Vec<Vec<Color>> = res.instance.lists().iter().map(|l| l.to_vec()).collect();
            assert_eq!(
                got,
                residual_by_walk(&inst, &colors),
                "graph {i} round {round}"
            );
            let last_word = 64 * (palette / 64);
            assert!(
                colors.iter().flatten().any(|&c| c >= last_word),
                "no color reached the palette's last word"
            );
        }
    }
}
