//! Differential suite: the barrier engine must be observationally
//! identical to the serial reference runner — same outputs, same round
//! count, same message count, same errors — on every scenario of the
//! matrix, for every protocol, at 1, 2 and 4 threads, on both sides of
//! [`MIN_PARALLEL_SLOTS`].
//!
//! This is what makes the engine safe to substitute anywhere: parallelism
//! is pure implementation detail.

use deco_engine::par::MIN_PARALLEL_SLOTS;
use deco_engine::protocols::{FloodMax, PortEcho, StaggeredSum};
use deco_engine::{Executor, GraphSpec, ParallelExecutor, ScenarioMatrix, SerialExecutor};
use deco_local::network::{IdAssignment, Network};
use deco_local::runner::{NodeProgram, Protocol, RunError, RunOutcome};

/// The barrier engine at each thread count the CI engine matrix pins.
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Demands that one engine run matches the serial run: identical outcomes,
/// or identical errors.
fn assert_identical<O>(
    name: &str,
    serial: &Result<RunOutcome<O>, RunError>,
    engine: &Result<RunOutcome<O>, RunError>,
) where
    O: PartialEq + std::fmt::Debug,
{
    match (serial, engine) {
        (Ok(s), Ok(e)) => {
            assert_eq!(s.outputs, e.outputs, "[{name}] outputs diverge");
            assert_eq!(s.rounds, e.rounds, "[{name}] round counts diverge");
            assert_eq!(s.messages, e.messages, "[{name}] message counts diverge");
        }
        (Err(se), Err(ee)) => assert_eq!(se, ee, "[{name}] errors diverge"),
        (s, e) => panic!(
            "[{name}] one executor failed: serial ok={} engine ok={}",
            s.is_ok(),
            e.is_ok()
        ),
    }
}

/// Runs one protocol on one network under serial and the barrier engine at
/// every thread count and demands identical observable behavior.
fn differential<P>(name: &str, net: &Network<'_>, protocol: &P, max_rounds: u64)
where
    P: Protocol,
    P::Program: Send,
    <P::Program as NodeProgram>::Msg: Send + Sync,
    <P::Program as NodeProgram>::Output: Send + PartialEq + std::fmt::Debug,
{
    let serial = SerialExecutor.execute(net, protocol, max_rounds);
    for t in THREAD_COUNTS {
        let engine = ParallelExecutor::with_threads(t).execute(net, protocol, max_rounds);
        assert_identical(&format!("{name} barrier/t={t}"), &serial, &engine);
    }
}

#[test]
fn full_matrix_flood_max() {
    let matrix = ScenarioMatrix::standard(2026);
    assert!(matrix.len() >= 40);
    for s in matrix.iter() {
        let g = s.graph();
        let net = s.network(&g);
        differential(
            &format!("{}/flood", s.name),
            &net,
            &FloodMax { radius: 5 },
            50,
        );
    }
}

#[test]
fn full_matrix_port_echo() {
    let matrix = ScenarioMatrix::standard(99);
    for s in matrix.iter() {
        let g = s.graph();
        let net = s.network(&g);
        differential(
            &format!("{}/echo", s.name),
            &net,
            &PortEcho { rounds: 3 },
            10,
        );
    }
}

#[test]
fn full_matrix_staggered_halting() {
    let matrix = ScenarioMatrix::standard(7);
    for s in matrix.iter() {
        let g = s.graph();
        let net = s.network(&g);
        differential(
            &format!("{}/staggered", s.name),
            &net,
            &StaggeredSum { spread: 6 },
            20,
        );
    }
}

#[test]
fn zero_round_programs_across_matrix() {
    let matrix = ScenarioMatrix::smoke(41);
    for s in matrix.iter() {
        let g = s.graph();
        let net = s.network(&g);
        differential(
            &format!("{}/zero-round", s.name),
            &net,
            &FloodMax { radius: 0 },
            5,
        );
    }
}

#[test]
fn round_limit_errors_across_matrix() {
    let matrix = ScenarioMatrix::smoke(17);
    for s in matrix.iter() {
        let g = s.graph();
        let net = s.network(&g);
        // Radius far beyond the limit: both executors must fail identically.
        differential(
            &format!("{}/limit", s.name),
            &net,
            &FloodMax { radius: 1000 },
            4,
        );
    }
}

#[test]
fn disconnected_graph_with_isolated_nodes() {
    let g = GraphSpec::TwoClusters { n: 10, d: 3 }.build(5);
    for assignment in [
        IdAssignment::Sequential,
        IdAssignment::Reversed,
        IdAssignment::Shuffled(3),
        IdAssignment::SparseRandom(4),
    ] {
        let net = Network::new(&g, assignment);
        differential("two-clusters/flood", &net, &FloodMax { radius: 6 }, 50);
        differential(
            "two-clusters/staggered",
            &net,
            &StaggeredSum { spread: 4 },
            20,
        );
    }
}

/// A real randomized protocol from the algorithm stack: Luby list coloring
/// carries per-node RNG state, dynamic halting, and message-dependent
/// control flow — the hardest stock protocol to get delivery right for.
#[test]
fn luby_protocol_differential() {
    use deco_algos::luby::LubyListColoring;
    use deco_graph::generators;

    let g = generators::random_regular(60, 6, 13);
    let lists: Vec<Vec<u32>> = g.nodes().map(|_| (0..12).collect()).collect();
    let net = Network::new(&g, IdAssignment::Shuffled(5));
    let protocol = LubyListColoring { lists, seed: 21 };
    differential("luby/regular(60,6)", &net, &protocol, 10_000);
}

/// Engine-at-scale sanity: a graph large enough to cross the threading
/// threshold, so multi-threaded chunks genuinely interleave. Below it the
/// barrier engine runs every thread count on the serial runner.
#[test]
fn large_graph_crosses_parallel_threshold() {
    use deco_graph::generators;
    let g = generators::random_regular(4000, 16, 3);
    assert!(
        g.degree_sum() >= MIN_PARALLEL_SLOTS,
        "must exercise the threaded path"
    );
    let net = Network::new(&g, IdAssignment::SparseRandom(8));
    differential("large-regular/flood", &net, &FloodMax { radius: 4 }, 10);
    differential("large-regular/echo", &net, &PortEcho { rounds: 3 }, 10);
    // Mid-run halting across genuinely threaded chunks: nodes halt at
    // different rounds, so chunk-local halted bookkeeping is exercised.
    differential(
        "large-regular/staggered",
        &net,
        &StaggeredSum { spread: 7 },
        20,
    );
}

/// The scenario matrix and the Luby case above run on networks below
/// [`MIN_PARALLEL_SLOTS`], where the barrier engine's t=2/t=4 legs take the
/// serial runner. These repeat the zero-round, round-limit and Luby cases
/// at or above it, so the threaded send/receive phases meet them too.
#[test]
fn edge_cases_above_parallel_threshold() {
    use deco_algos::luby::LubyListColoring;
    use deco_graph::generators;

    let g = generators::random_regular(600, 8, 17);
    assert!(
        g.degree_sum() >= MIN_PARALLEL_SLOTS,
        "must exercise the threaded path"
    );
    let net = Network::new(&g, IdAssignment::Shuffled(9));
    differential("large/zero-round", &net, &FloodMax { radius: 0 }, 5);
    differential("large/limit", &net, &FloodMax { radius: 1000 }, 4);
    let lists: Vec<Vec<u32>> = g.nodes().map(|_| (0..16).collect()).collect();
    let protocol = LubyListColoring { lists, seed: 21 };
    differential("large/luby", &net, &protocol, 10_000);
}

/// Two large clusters plus isolated nodes, above the threshold: the
/// threaded ranges hold degree-0 nodes next to degree-6 ones, and
/// `StaggeredSum` halts nodes of one range at different rounds.
#[test]
fn large_disconnected_graph_with_isolated_nodes() {
    let g = GraphSpec::TwoClusters { n: 400, d: 6 }.build(5);
    assert!(
        g.degree_sum() >= MIN_PARALLEL_SLOTS,
        "must exercise the threaded path"
    );
    assert!(g.nodes().any(|v| g.degree(v) == 0), "has isolated nodes");
    for assignment in [IdAssignment::Reversed, IdAssignment::SparseRandom(4)] {
        let net = Network::new(&g, assignment);
        differential(
            "large-two-clusters/flood",
            &net,
            &FloodMax { radius: 6 },
            50,
        );
        differential(
            "large-two-clusters/staggered",
            &net,
            &StaggeredSum { spread: 4 },
            20,
        );
    }
}
