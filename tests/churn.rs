//! Dynamic-graph invariants through the facade: update inverses restore
//! the full CSR digest bit for bit, and replayed churn traces produce
//! identical `UpdateReport` sequences on every engine arm.

use deco::core_alg::solver::SolverConfig;
use deco::engine::ParallelExecutor;
use deco::graph::coloring::check_edge_coloring;
use deco::graph::{generators, Graph, MutableGraph, NodeId};
use deco::{EdgeUpdate, Runtime, Session};

/// Everything CSR: edge list and per-port adjacency (neighbor and edge id
/// per port). Two graphs with equal digests are indistinguishable to every
/// engine.
type Digest = (Vec<[u32; 2]>, Vec<Vec<(u32, u32)>>);

fn digest(g: &Graph) -> Digest {
    let edges = g.edge_list().iter().map(|[u, v]| [u.0, v.0]).collect();
    let adjacency = g
        .nodes()
        .map(|v| {
            g.adjacent(v)
                .iter()
                .map(|a| (a.neighbor.0, a.edge.0))
                .collect()
        })
        .collect();
    (edges, adjacency)
}

fn ids(g: &Graph) -> Vec<u64> {
    (1..=g.num_nodes() as u64).collect()
}

/// Splitmix-style step for seeded trace generation without pulling a full
/// RNG into the property loop.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 16
}

/// A seeded toggle trace over `n` nodes: each step picks a pair and flips
/// its existence against the mirror, so the trace is valid by construction.
fn toggle_trace(base: &Graph, len: usize, seed: u64) -> Vec<EdgeUpdate> {
    let n = base.num_nodes();
    let mut mirror = MutableGraph::from_graph(base);
    let mut state = seed;
    let mut trace = Vec::with_capacity(len);
    while trace.len() < len {
        let u = (lcg(&mut state) % n as u64) as u32;
        let v = (lcg(&mut state) % n as u64) as u32;
        if u == v {
            continue;
        }
        let (u, v) = (NodeId(u), NodeId(v));
        let up = if mirror.has_edge(u, v) {
            EdgeUpdate::remove(u, v)
        } else {
            EdgeUpdate::insert(u, v)
        };
        mirror.apply(up).expect("toggle traces are valid");
        trace.push(up);
    }
    trace
}

#[test]
fn insert_then_remove_restores_the_full_csr_digest() {
    // Seeded property loop over several families: for a batch of non-edges
    // e, remove_edge(insert_edge(G, e), e) must restore the digest exactly —
    // adjacency port order and back-port mirrors included.
    for (g, seed) in [
        (generators::gnp(26, 0.15, 3), 11u64),
        (generators::random_regular(24, 4, 5), 12),
        (generators::cycle(17), 13),
        (generators::star(7), 14),
    ] {
        let before = digest(&g);
        let mut m = MutableGraph::from_graph(&g);
        let n = g.num_nodes() as u64;
        let mut state = seed;
        let mut checked = 0;
        while checked < 25 {
            let u = NodeId((lcg(&mut state) % n) as u32);
            let v = NodeId((lcg(&mut state) % n) as u32);
            if u == v || m.has_edge(u, v) {
                continue;
            }
            let e = EdgeUpdate::insert(u, v);
            m.apply(e).expect("non-edge inserts");
            assert_ne!(digest(&m.to_graph()), before, "insert must be visible");
            m.apply(e.inverse()).expect("fresh edge removes");
            assert_eq!(
                digest(&m.to_graph()),
                before,
                "insert∘remove must be the identity on the CSR digest"
            );
            checked += 1;
        }
    }
}

#[test]
fn reversed_traces_unwind_to_the_original_edge_set() {
    // The batch generalization: replay a whole toggle trace, then its
    // inverses in reverse order. Removal uses swap_remove, so a long trace
    // may permute edge enumeration order — the guarantee here is the edge
    // *set* (and hence every degree), not CSR slot assignment. The exact
    // full-digest identity for a single insert∘remove is covered above.
    let canon = |g: &Graph| {
        let mut edges: Vec<[u32; 2]> = g.edge_list().iter().map(|[u, v]| [u.0, v.0]).collect();
        edges.sort_unstable();
        edges
    };
    let g = generators::gnp(20, 0.2, 9);
    let before = canon(&g);
    let mut m = MutableGraph::from_graph(&g);
    let trace = toggle_trace(&g, 60, 0xDEC0);
    for &up in &trace {
        m.apply(up).expect("trace is valid");
    }
    for &up in trace.iter().rev() {
        m.apply(up.inverse()).expect("inverse trace is valid");
    }
    assert_eq!(canon(&m.to_graph()), before);
    assert_eq!(m.num_edges(), before.len());
}

/// The engine lineup sessions replay on: every engine arm of the runtime.
fn runtime_lineup() -> Vec<(String, Runtime)> {
    let runtimes = vec![
        Runtime::serial(),
        Runtime::from(ParallelExecutor::with_threads(2)),
    ];
    runtimes
        .into_iter()
        .map(|rt| (rt.descriptor(), rt))
        .collect()
}

#[test]
fn replayed_traces_report_identically_on_every_engine() {
    let g = generators::random_regular(28, 4, 41);
    let node_ids = ids(&g);
    let trace = toggle_trace(&g, 40, 0xC0FFEE);

    let replay = |rt: &Runtime| {
        let mut session =
            Session::open(&g, &node_ids, SolverConfig::default(), rt).expect("base solve succeeds");
        let observables: Vec<_> = trace
            .iter()
            .map(|&up| {
                session
                    .apply(up)
                    .expect("repair succeeds at the true bound")
                    .observables()
            })
            .collect();
        let report = session.report();
        (observables, report)
    };

    let (serial_obs, serial_report) = replay(&Runtime::serial());
    // The final coloring is proper on the final snapshot.
    let mut final_graph = MutableGraph::from_graph(&g);
    for &up in &trace {
        final_graph.apply(up).unwrap();
    }
    let final_snapshot = final_graph.to_graph();
    check_edge_coloring(&final_snapshot, &serial_report.colors).expect("proper after the trace");

    for (label, rt) in runtime_lineup() {
        // Twice on each engine: replay determinism within an engine…
        let (first, first_report) = replay(&rt);
        let (second, second_report) = replay(&rt);
        assert_eq!(first, second, "[{label}] replays diverge");
        assert_eq!(
            first_report.colors, second_report.colors,
            "[{label}] colors diverge between replays"
        );
        // …and against the serial reference across engines.
        assert_eq!(first, serial_obs, "[{label}] diverges from serial");
        assert_eq!(
            first_report.colors, serial_report.colors,
            "[{label}] final coloring diverges from serial"
        );
        assert_eq!(
            first_report.rounds, serial_report.rounds,
            "[{label}] charged rounds diverge from serial"
        );
        assert_eq!(
            first_report.messages, serial_report.messages,
            "[{label}] message totals diverge from serial"
        );
    }
}

#[test]
fn one_shot_solve_is_the_zero_update_session() {
    use deco::core_alg::solver::solve_two_delta_minus_one;
    let g = generators::random_regular(20, 4, 77);
    let node_ids = ids(&g);
    let rt = Runtime::serial();
    let one_shot = solve_two_delta_minus_one(&g, &node_ids, SolverConfig::default(), &rt).unwrap();
    let mut session = Session::open(&g, &node_ids, SolverConfig::default(), &rt).unwrap();
    let report = session.report();
    assert_eq!(one_shot.colors, report.colors);
    assert_eq!(one_shot.rounds, report.rounds);
    assert_eq!(one_shot.messages, report.messages);
    assert_eq!(one_shot.cost, report.cost);
}
