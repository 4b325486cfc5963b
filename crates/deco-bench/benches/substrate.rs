//! Substrate benchmarks: the building blocks underneath the solver —
//! Linial's protocol (the `linial` experiment), the Luby baseline, class
//! elimination, generators, and line-graph construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deco_algos::{class_elimination, edge_adapter, luby};
use deco_graph::{generators, LineGraph};
use deco_local::{IdAssignment, Network};
use deco_runtime::Runtime;

fn ids(n: usize) -> Vec<u64> {
    (1..=n as u64).collect()
}

fn bench_linial_edge(c: &mut Criterion) {
    let mut group = c.benchmark_group("linial-edge-coloring");
    group.sample_size(10);
    for n in [256usize, 1024] {
        let g = generators::random_regular(n, 8, 13);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                edge_adapter::linial_edge_coloring(g, &ids(g.num_nodes()), &Runtime::serial())
                    .expect("terminates")
                    .palette
            });
        });
    }
    group.finish();
}

fn bench_luby(c: &mut Criterion) {
    let mut group = c.benchmark_group("luby-edge-coloring");
    group.sample_size(10);
    let g = generators::random_regular(512, 8, 17);
    let bound = (2 * g.max_degree() - 1) as u32;
    let lists: Vec<Vec<u32>> = g.edges().map(|_| (0..bound).collect()).collect();
    let lg = LineGraph::of(&g);
    group.bench_function("regular(512,8)", |b| {
        b.iter(|| {
            let net = Network::new(lg.graph(), IdAssignment::Shuffled(3));
            luby::luby_list_coloring(&net, lists.clone(), 7, &Runtime::serial())
                .expect("terminates")
                .rounds
        });
    });
    group.finish();
}

fn bench_class_elimination(c: &mut Criterion) {
    let g = generators::random_regular(512, 8, 19);
    let x = edge_adapter::linial_edge_coloring(&g, &ids(g.num_nodes()), &Runtime::serial())
        .expect("terminates");
    let initial: Vec<u32> = g.edges().map(|e| x.coloring.get(e).unwrap()).collect();
    let bound = (2 * g.max_degree() - 1) as u32;
    let lists: Vec<Vec<u32>> = g.edges().map(|_| (0..bound).collect()).collect();
    c.bench_function("class-elimination regular(512,8)", |b| {
        b.iter(|| {
            class_elimination::list_color_by_classes(&g, &lists, &initial, x.palette as u32).1
        });
    });
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.bench_function("random_regular(2048,8)", |b| {
        b.iter(|| generators::random_regular(2048, 8, 7).num_edges());
    });
    group.bench_function("gnp(4096,0.002)", |b| {
        b.iter(|| generators::gnp(4096, 0.002, 7).num_edges());
    });
    group.bench_function("power_law(4096)", |b| {
        b.iter(|| generators::power_law(4096, 2.5, 64.0, 7).num_edges());
    });
    group.finish();
}

fn bench_line_graph(c: &mut Criterion) {
    let g = generators::random_regular(2048, 8, 29);
    c.bench_function("line-graph regular(2048,8)", |b| {
        b.iter(|| LineGraph::of(&g).graph().num_edges());
    });
}

criterion_group!(
    benches,
    bench_linial_edge,
    bench_luby,
    bench_class_elimination,
    bench_generators,
    bench_line_graph
);
criterion_main!(benches);
