//! Pinned digests of what the pipeline computes.
//!
//! The differential suites compare each engine against the serial runner,
//! so a change that moves both the same way passes them. This test pins
//! the observables themselves: colors, rounds, messages, the initial
//! X-coloring's palette and rounds, `SolveStats` and the cost tree of a
//! fixed set of solves, three solves through the slack-S path, plus one
//! run each of Luby, Cole–Vishkin and the max-degree-2 3-coloring. Each suite's `Debug` rendering is folded into
//! one [`DetHasher`] digest, and every runtime of the lineup (serial and
//! barrier with 2 threads) must reproduce the pinned constant.
//!
//! The constants change only when what the pipeline computes changes. A
//! refactor of the engines must leave them alone.

use deco::algos::edge_adapter::linial_edge_coloring;
use deco::algos::{cv, deg2, luby};
use deco::core_alg::instance;
use deco::core_alg::solver::{solve_two_delta_minus_one, Solver, SolverConfig};
use deco::engine::ParallelExecutor;
use deco::graph::hashing::DetHasher;
use deco::graph::{generators, Graph};
use deco::local::{CostNode, IdAssignment, Network};
use deco::Runtime;
use std::fmt::Debug;
use std::hash::Hasher;

const KRONECKER_DIGEST: u64 = 0xa6b9_1266_0043_363e;
const SMALL_GRAPHS_DIGEST: u64 = 0x0869_320d_7278_8ec5;
const PROTOCOLS_DIGEST: u64 = 0x9301_7e0f_9c74_f103;
const SLACK_PATH_DIGEST: u64 = 0x4d31_9197_28ab_f25d;

fn lineup() -> [Runtime; 2] {
    [
        Runtime::serial(),
        Runtime::from(ParallelExecutor::with_threads(2)),
    ]
}

fn fold(h: &mut DetHasher, value: impl Debug) {
    h.write(format!("{value:?}").as_bytes());
}

/// Folds the deterministic fields of one end-to-end solve of `g`.
fn fold_solve(h: &mut DetHasher, g: &Graph, rt: &Runtime) {
    let ids: Vec<u64> = (1..=g.num_nodes() as u64).collect();
    let rep = solve_two_delta_minus_one(g, &ids, SolverConfig::default(), rt).expect("solves");
    fold(h, &rep.colors);
    fold(h, (rep.rounds, rep.messages, rep.x_palette, rep.x_rounds));
    fold(h, &rep.solve_stats);
    fold(h, &rep.cost);
}

/// Ten each of random regular, G(n, p) and power-law graphs on 96 nodes.
fn small_graphs() -> Vec<Graph> {
    (0..10u64)
        .flat_map(|s| {
            [
                generators::random_regular(96, 4 + 2 * (s as usize % 4), s),
                generators::gnp(96, 0.05 + 0.01 * s as f64, 100 + s),
                generators::power_law(96, 2.5, 9.0, 200 + s),
            ]
        })
        .collect()
}

fn assert_pinned(name: &str, pinned: u64, digest: impl Fn(&Runtime) -> u64) {
    for rt in lineup() {
        let got = digest(&rt);
        assert_eq!(
            got,
            pinned,
            "{name} on {}: digest {got:#018x} moved from the pinned {pinned:#018x}",
            rt.descriptor()
        );
    }
}

#[test]
fn kronecker_solve_digest_is_pinned() {
    let g = generators::kronecker(10, 8, 42);
    assert_pinned("kronecker(10,8)", KRONECKER_DIGEST, |rt| {
        let mut h = DetHasher::default();
        fold_solve(&mut h, &g, rt);
        h.finish()
    });
}

#[test]
fn small_graph_solve_digest_is_pinned() {
    let graphs = small_graphs();
    assert_eq!(graphs.len(), 30);
    assert_pinned("96-node graphs", SMALL_GRAPHS_DIGEST, |rt| {
        let mut h = DetHasher::default();
        for g in &graphs {
            fold_solve(&mut h, g, rt);
        }
        h.finish()
    });
}

fn has_node(cost: &CostNode, label: &str) -> bool {
    cost.label == label || cost.children.iter().any(|c| has_node(c, label))
}

/// The slack-S entry point with uncapped β and p, which no default-config
/// solve reaches: the first two instances carry enough slack for Lemma 4.3
/// space reductions, the third overclaims its slack and falls back to the
/// slack-1 path.
#[test]
fn slack_path_digest_is_pinned() {
    let cfg = SolverConfig {
        beta_cap: None,
        p_cap: None,
        small_palette: 8,
        base_dbar: 6,
        ..SolverConfig::default()
    };
    let dense = generators::random_regular(36, 12, 7);
    let sparse = generators::random_regular(24, 8, 7);
    let cases = [
        (
            instance::random_with_slack(&dense, 20000, 600.0, 8),
            600.0,
            true,
        ),
        (
            instance::random_with_slack(&sparse, 12000, 500.0, 8),
            500.0,
            true,
        ),
        (instance::random_deg_plus_one(&dense, 6000, 8), 1e6, false),
    ];
    assert_pinned("slack-S path", SLACK_PATH_DIGEST, |rt| {
        let mut h = DetHasher::default();
        for (inst, slack, reduces) in &cases {
            let g = inst.graph();
            let ids: Vec<u64> = (1..=g.num_nodes() as u64).collect();
            let x = linial_edge_coloring(g, &ids, rt).expect("linial halts");
            let xc: Vec<u32> = g.edges().map(|e| x.coloring.get(e).unwrap()).collect();
            let sol = Solver::with_runtime(cfg, *rt)
                .solve_slack_instance(inst, &xc, x.palette as u32, *slack)
                .expect("solves");
            if *reduces {
                assert!(sol.stats.space_reductions >= 1, "{:?}", sol.stats);
                assert!(has_node(&sol.cost, "parallel subspace instances"));
            }
            fold(&mut h, &sol.colors);
            fold(&mut h, &sol.cost);
            fold(&mut h, &sol.stats);
        }
        h.finish()
    });
}

#[test]
fn protocol_digest_is_pinned() {
    // Each network has at least `MIN_PARALLEL_SLOTS` ports, so the barrier
    // leg runs its threaded phases.
    let regular = generators::random_regular(1024, 6, 5);
    let tree = generators::random_tree(4096, 6);
    let cycle = generators::cycle(4096);
    assert_pinned("luby + cv + deg2", PROTOCOLS_DIGEST, |rt| {
        let mut h = DetHasher::default();
        let net = Network::new(&regular, IdAssignment::Shuffled(5));
        let lists = regular
            .nodes()
            .map(|v| (0..=regular.degree(v) as u32).collect())
            .collect();
        let res = luby::luby_list_coloring(&net, lists, 11, rt).expect("luby halts");
        fold(&mut h, (&res.colors, res.rounds, res.messages));

        let net = Network::new(&tree, IdAssignment::SparseRandom(6));
        let res = cv::three_color_rooted_forest(&net, cv::root_forest(&tree), rt)
            .expect("cole-vishkin halts");
        fold(&mut h, (&res.colors, res.rounds, res.messages));

        let net = Network::new(&cycle, IdAssignment::Shuffled(7));
        let initial = net.ids().to_vec();
        let m0 = net.max_id() + 1;
        let res = deg2::three_color_max_deg2(&net, initial, m0, rt).expect("deg2 halts");
        fold(&mut h, (&res.colors, res.rounds, res.messages));
        h.finish()
    });
}
