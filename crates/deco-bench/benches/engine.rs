//! Engine-vs-serial substrate benchmarks: the same protocols on the same
//! large networks, executed by the serial reference runner and the engine
//! at pinned thread counts and at hardware parallelism (at one thread the
//! engine is the serial runner). Outputs are asserted identical inside
//! each iteration, so the numbers can never drift apart from a correctness
//! bug silently.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deco_engine::protocols::{FloodMax, PortEcho};
use deco_engine::ParallelExecutor;
use deco_graph::generators;
use deco_local::{runner, IdAssignment, Network};

/// The headline workload from the acceptance bar: random regular with
/// n = 10⁴, Δ = 32.
fn large_graph() -> deco_graph::Graph {
    generators::random_regular(10_000, 32, 41)
}

fn bench_flood_engine_vs_serial(c: &mut Criterion) {
    let g = large_graph();
    let net = Network::new(&g, IdAssignment::Shuffled(9));
    let protocol = FloodMax { radius: 4 };
    let mut group = c.benchmark_group("flood/regular(10k,32)");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| runner::run(&net, &protocol, 50).unwrap().messages)
    });
    group.bench_function("engine-auto", |b| {
        b.iter(|| {
            ParallelExecutor::auto()
                .execute(&net, &protocol, 50)
                .unwrap()
                .messages
        })
    });
    group.finish();
}

fn bench_port_echo_thread_scaling(c: &mut Criterion) {
    let g = large_graph();
    let net = Network::new(&g, IdAssignment::Sequential);
    let protocol = PortEcho { rounds: 4 };
    let baseline = runner::run(&net, &protocol, 10).unwrap();
    let mut group = c.benchmark_group("port-echo/regular(10k,32)");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| runner::run(&net, &protocol, 10).unwrap().messages)
    });
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("engine", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let out = ParallelExecutor::with_threads(threads)
                        .execute(&net, &protocol, 10)
                        .unwrap();
                    assert_eq!(out.outputs, baseline.outputs);
                    out.messages
                })
            },
        );
    }
    group.finish();
}

fn bench_solver_pipeline_on_engine(c: &mut Criterion) {
    use deco_core::solver::{solve_two_delta_minus_one, SolverConfig};
    use deco_runtime::Runtime;
    let g = generators::random_regular(512, 16, 23);
    let ids: Vec<u64> = (1..=g.num_nodes() as u64).collect();
    let mut group = c.benchmark_group("solver/regular(512,16)");
    group.sample_size(10);
    let serial_rt = Runtime::serial();
    group.bench_function(serial_rt.descriptor(), |b| {
        b.iter(|| {
            solve_two_delta_minus_one(&g, &ids, SolverConfig::default(), &serial_rt)
                .expect("solver succeeds")
                .cost
                .actual_rounds()
        })
    });
    let engine_rt = Runtime::from(ParallelExecutor::auto());
    group.bench_function(engine_rt.descriptor(), |b| {
        b.iter(|| {
            solve_two_delta_minus_one(&g, &ids, SolverConfig::default(), &engine_rt)
                .expect("solver succeeds")
                .cost
                .actual_rounds()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_flood_engine_vs_serial,
    bench_port_echo_thread_scaling,
    bench_solver_pipeline_on_engine
);
criterion_main!(benches);
