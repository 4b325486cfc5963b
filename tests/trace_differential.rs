//! Differential suite for the trace layer's observational neutrality: the
//! same pipeline run with tracing off and with tracing on (JSONL sink) on
//! every engine arm must produce byte-identical observables — same colors,
//! same rounds, same message totals. With tracing on, `RunReport.metrics`
//! must be populated (pipeline span present, the traced `messages` counter
//! equal to `RunReport.messages`) and every line of the JSONL file must
//! parse back into the event enum. Concurrent solves on different threads
//! each get their own metrics. Runs as its own process, so installing
//! sinks here cannot race with other test binaries; the test fns serialize
//! on a local mutex because the dispatch is process-global.

use deco::core_alg::solver::{solve_two_delta_minus_one, RunReport, SolverConfig};
use deco::engine::{GraphSpec, IdFlavor, ParallelExecutor, Scenario};
use deco::graph::Graph;
use deco::trace::{Counter, Phase, TraceConfig, TraceEvent};
use deco::Runtime;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// The dispatch is process-global; every test fn takes this first.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn ids(g: &Graph) -> Vec<u64> {
    (1..=g.num_nodes() as u64).collect()
}

/// Both engine arms: serial reference and barrier.
fn lineup() -> Vec<(&'static str, Runtime)> {
    vec![
        ("serial", Runtime::serial()),
        (
            "barrier(t=2)",
            Runtime::from(ParallelExecutor::with_threads(2)),
        ),
    ]
}

fn solve(rt: &Runtime, g: &Graph, node_ids: &[u64]) -> RunReport {
    solve_two_delta_minus_one(g, node_ids, SolverConfig::default(), rt).expect("solver succeeds")
}

fn temp_trace_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "deco-trace-diff-{tag}-{}.jsonl",
        std::process::id()
    ))
}

#[test]
fn tracing_on_is_observationally_invisible_on_every_engine() {
    let _g = guard();
    let g = Scenario::new(
        GraphSpec::RandomRegular { n: 96, d: 8 },
        IdFlavor::Shuffled,
        5,
    )
    .graph();
    let node_ids = ids(&g);

    // Leg 1: tracing off — the zero-cost path; no metrics in the report.
    deco::trace::install(TraceConfig::off()).unwrap();
    let baselines: Vec<(&str, RunReport)> = lineup()
        .into_iter()
        .map(|(name, rt)| (name, solve(&rt, &g, &node_ids)))
        .collect();
    for (name, report) in &baselines {
        assert!(
            report.metrics.is_none(),
            "{name}: tracing off must leave RunReport.metrics empty"
        );
    }

    // Leg 2: tracing on (JSONL) — observables byte-identical, metrics
    // populated, every emitted line parseable.
    for ((name, rt), (_, baseline)) in lineup().into_iter().zip(&baselines) {
        let path = temp_trace_path(name.split('(').next().unwrap());
        deco::trace::install(TraceConfig::jsonl(&path)).unwrap();
        let traced = solve(&rt, &g, &node_ids);
        deco::trace::install(TraceConfig::off()).unwrap();

        assert_eq!(baseline.colors, traced.colors, "{name}: colors diverge");
        assert_eq!(baseline.rounds, traced.rounds, "{name}: rounds diverge");
        assert_eq!(
            baseline.messages, traced.messages,
            "{name}: messages diverge"
        );
        assert_eq!(
            baseline.solve_stats, traced.solve_stats,
            "{name}: solve stats diverge"
        );

        let metrics = traced
            .metrics
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: tracing on must populate RunReport.metrics"));
        assert!(
            metrics.phase(Phase::Pipeline).is_some(),
            "{name}: pipeline span missing"
        );
        // Every engine emits exactly one messages count per protocol
        // execution, and the pipeline's message total is the sum of its
        // executions — so the traced counter reproduces the report total.
        assert_eq!(
            metrics.counter(Counter::Messages),
            Some(traced.messages),
            "{name}: traced message total must match RunReport.messages"
        );
        // Rounds are counted per engine execution; the report's round
        // total is pipeline-level (x_rounds + the cost tree), so the
        // traced counter is present but intentionally not equal to it.
        assert!(
            metrics.counter(Counter::Rounds).is_some(),
            "{name}: traced round counter missing"
        );

        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: trace file unreadable: {e}"));
        assert!(!text.is_empty(), "{name}: trace file is empty");
        for (idx, line) in text.lines().enumerate() {
            TraceEvent::from_jsonl(line)
                .unwrap_or_else(|e| panic!("{name}: line {} does not parse: {e}\n{line}", idx + 1));
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn ring_mode_matches_jsonl_mode_observables() {
    let _g = guard();
    let g = Scenario::new(GraphSpec::Gnp { n: 60, p: 0.1 }, IdFlavor::Shuffled, 9).graph();
    let node_ids = ids(&g);
    let rt = Runtime::from(ParallelExecutor::with_threads(2));

    deco::trace::install(TraceConfig::off()).unwrap();
    let off = solve(&rt, &g, &node_ids);

    deco::trace::install(TraceConfig::ring()).unwrap();
    let ring = solve(&rt, &g, &node_ids);
    deco::trace::install(TraceConfig::off()).unwrap();

    assert_eq!(off.colors, ring.colors);
    assert_eq!(off.rounds, ring.rounds);
    assert_eq!(off.messages, ring.messages);
    let metrics = ring.metrics.expect("ring mode populates metrics");
    assert_eq!(metrics.counter(Counter::Messages), Some(ring.messages));
}

#[test]
fn concurrent_solves_each_trace_their_own_messages() {
    let _g = guard();
    let g = Scenario::new(
        GraphSpec::RandomRegular { n: 96, d: 8 },
        IdFlavor::Shuffled,
        5,
    )
    .graph();
    let node_ids = ids(&g);
    let _measure = deco::trace::measure();
    let matched: usize = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    (0..20)
                        .filter(|_| {
                            let report = solve(&Runtime::serial(), &g, &node_ids);
                            let metrics = report.metrics.as_ref().expect("tracing is on");
                            metrics.counter(Counter::Messages) == Some(report.messages)
                        })
                        .count()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert_eq!(
        matched, 80,
        "every run's traced messages must equal its RunReport.messages"
    );
}
