//! Component benchmarks: one Criterion target per paper artifact —
//! defective coloring (§4.1 / def-col), space reduction (Lemma 4.3 /
//! lem43), sweep (Lemma 4.2 / lem42), partition levels (Lemma 4.4 / fig5),
//! and budget evaluation (thm41-budget).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use deco_algos::greedy;
use deco_core::budget::{BudgetEvaluator, BudgetParams};
use deco_core::defective::defective_edge_coloring;
use deco_core::instance::{self, ListInstance};
use deco_core::lists::{level_of, ColorList, SubspacePartition};
use deco_core::solver::{SolveBranch, SolveError, SolveStats};
use deco_core::{slack, space};
use deco_graph::coloring::Color;
use deco_graph::generators;
use deco_local::CostNode;
use deco_runtime::Runtime;
use rand::prelude::*;
use rand::rngs::StdRng;

fn x_coloring(g: &deco_graph::Graph) -> Vec<u32> {
    let c = greedy::greedy_edge_coloring(g, greedy::EdgeOrder::ById);
    g.edges().map(|e| c.get(e).unwrap()).collect()
}

fn x_palette(x: &[u32]) -> u32 {
    x.iter().max().map_or(2, |m| m + 1)
}

fn greedy_colors(inst: &ListInstance) -> Vec<Color> {
    let lists: Vec<Vec<Color>> = inst.lists().iter().map(|l| l.to_vec()).collect();
    let coloring = greedy::greedy_list_edge_coloring(inst.graph(), &lists, greedy::EdgeOrder::ById)
        .expect("feasible");
    inst.graph()
        .edges()
        .map(|e| coloring.get(e).unwrap())
        .collect()
}

fn greedy_inner(inst: &ListInstance, _x: &[u32]) -> Result<SolveBranch, SolveError> {
    Ok(SolveBranch {
        colors: greedy_colors(inst),
        cost: CostNode::leaf("g", 1),
        stats: SolveStats::default(),
    })
}

fn greedy_assign(inst: &ListInstance, _x: &[u32]) -> Result<(Vec<Color>, CostNode), SolveError> {
    Ok((greedy_colors(inst), CostNode::leaf("g", 1)))
}

fn bench_defective(c: &mut Criterion) {
    let mut group = c.benchmark_group("defective-coloring");
    for beta in [1u32, 2, 4] {
        let g = generators::random_regular(400, 12, 3);
        let x = x_coloring(&g);
        let xp = x_palette(&x);
        group.bench_with_input(BenchmarkId::from_parameter(beta), &beta, |b, &beta| {
            b.iter(|| defective_edge_coloring(&g, beta, &x, xp, &Runtime::serial()).num_colors);
        });
    }
    group.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let g = generators::random_regular(200, 10, 5);
    let inst = instance::two_delta_minus_one(&g);
    let x = x_coloring(&g);
    let xp = x_palette(&x);
    c.bench_function("lemma42-sweep", |b| {
        b.iter(|| {
            slack::sweep(&inst, &x, xp, 1, &Runtime::serial(), &greedy_inner)
                .expect("sweep succeeds")
                .stats
                .colored
        });
    });
}

fn bench_space_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("lemma43-space-reduction");
    for p in [4u32, 8] {
        let g = generators::random_regular(120, 10, 7);
        let inst = instance::random_with_slack(&g, 4000, 120.0, 9);
        let x = x_coloring(&g);
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                let mut assign = greedy_assign;
                let assign: &mut space::AssignSolver<'_> = &mut assign;
                space::reduce_color_space(&inst, p, &x, assign)
                    .expect("reduction succeeds")
                    .sub_instances
                    .len()
            });
        });
    }
    group.finish();
}

fn bench_levels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let part = SubspacePartition::new(4096, 32);
    let lists: Vec<ColorList> = (0..256)
        .map(|_| {
            let len = rng.gen_range(1..=2048usize);
            let mut cs: Vec<u32> = (0..4096).collect();
            cs.shuffle(&mut rng);
            cs.truncate(len);
            ColorList::new(cs)
        })
        .collect();
    c.bench_function("lemma44-level-of-256-lists", |b| {
        b.iter(|| {
            lists
                .iter()
                .map(|l| level_of(l, &part).level)
                .max()
                .expect("nonempty")
        });
    });
}

fn bench_budget_eval(c: &mut Criterion) {
    c.bench_function("thm41-budget-eval-2^64", |b| {
        b.iter(|| {
            let mut ev = BudgetEvaluator::new(BudgetParams::default());
            ev.t_deg1(2f64.powi(64), 2f64.powi(65))
        });
    });
}

criterion_group!(
    benches,
    bench_defective,
    bench_sweep,
    bench_space_reduction,
    bench_levels,
    bench_budget_eval
);
criterion_main!(benches);
