//! The traced run's per-layer ledger. The benchmark calls each layer's
//! public entry point on the workload's own inputs and times it from the
//! outside, and digests the spans and counters the program already emits
//! under a ring sink. No span or counter is added inside the program.

use crate::alloc;
use crate::check::{self, Reference};
use crate::inputs::{self, Churn, Inputs};
use crate::report::{mean, median, ms, over_slices, us, Metrics, Slice, Tally};
use crate::serve::{self, Stop, TrafficResult};
use deco::algos::edge_adapter::linial_edge_coloring;
use deco::core_alg::instance;
use deco::core_alg::solver::{solve_two_delta_minus_one, RunReport, Solver, SolverConfig};
use deco::core_alg::{RunReportLine, UpdateReportLine};
use deco::graph::coloring::EdgeColoring;
use deco::graph::LineGraph;
use deco::runtime::{Engine, Runtime};
use deco::serve::wire::{GraphSource, Request, RequestFrame, Response, ResponseFrame};
use deco::trace::{Counter, MetricsReport, Phase, TraceConfig};
use deco::Session;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The engine the barrier-over-serial ratio compares with the serial one.
pub const BARRIER: &str = "barrier(threads=2)";

/// Parses an engine descriptor into a runtime.
pub fn runtime(descriptor: &str) -> Runtime {
    let engine: Engine = descriptor
        .parse()
        .expect("the benchmark names valid engines");
    Runtime::new(engine)
}

/// Runs `f` with a ring sink installed inside one run scope; returns its
/// value and the digested spans and counters.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, MetricsReport) {
    deco::trace::install(TraceConfig::ring()).expect("ring sink installs");
    let scope = deco::trace::run_scope();
    let value = f();
    let report = scope.finish().unwrap_or_default();
    let _ = deco::trace::ring_events();
    deco::trace::install(TraceConfig::off()).expect("tracing turns off");
    (value, report)
}

/// Records the engine and solver span totals of a traced window that ran
/// `solves` pipeline solves.
pub fn spans(report: &MetricsReport, solves: usize, m: &mut Metrics) {
    let per = |phase| {
        report
            .phase(phase)
            .map_or(0.0, |p| p.total_nanos as f64 / 1e6 / solves.max(1) as f64)
    };
    m.set("engine.round_ms", per(Phase::Round));
    m.set("engine.send_ms", per(Phase::Send));
    m.set("engine.receive_ms", per(Phase::Receive));
    m.set("solver.sweep_ms", per(Phase::Sweep));
    m.set("solver.branch_ms", per(Phase::SolverBranch));
    m.set(
        "engine.rounds",
        report.counter(Counter::Rounds).unwrap_or(0) as f64 / solves.max(1) as f64,
    );
}

/// Everything else: per-layer probes over the workload's solve set on its
/// engine `rt`, and the serve layer from `traffic` — or, when the workload
/// is not served, from a short probe of `probe_requests` requests per
/// connection against a fresh daemon.
pub fn probes(
    inputs: &Inputs,
    rt: &Runtime,
    seed: u64,
    traffic: Option<TrafficResult>,
    probe_requests: usize,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let (serial_ms, reports) = engines(inputs, m, tally)?;
    trace_overhead(inputs, rt, m);
    layers(inputs, rt, &reports, m, tally);
    let refs: Vec<Reference> = reports.iter().map(Reference::of).collect();
    let traffic = match traffic {
        Some(t) => t,
        None => {
            let daemon = serve::start(inputs)?;
            serve::traffic(daemon, inputs, &refs, seed, Stop::Requests(probe_requests))
        }
    };
    serve_layer(inputs, rt, &traffic, median(&serial_ms), m, tally);
    wire(inputs, &reports, seed, m, tally);
    Ok(())
}

/// Solves every graph on the serial engine and on [`BARRIER`]; both must
/// agree exactly. Returns the serial times and reports.
fn engines(
    inputs: &Inputs,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(Vec<f64>, Vec<RunReport>), String> {
    let serial = Runtime::serial();
    let barrier = runtime(BARRIER);
    let (mut serial_ms, mut barrier_ms, mut reports) = (Vec::new(), Vec::new(), Vec::new());
    for g in &inputs.solves {
        let ids = inputs::ids(g);
        let t = Instant::now();
        let s = solve_two_delta_minus_one(g, &ids, SolverConfig::default(), &serial);
        serial_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let b = solve_two_delta_minus_one(g, &ids, SolverConfig::default(), &barrier);
        barrier_ms.push(ms(t.elapsed()));
        let s = s.map_err(|e| format!("serial solve failed: {e}"))?;
        let b = b.map_err(|e| format!("barrier solve failed: {e}"))?;
        let mut reference = None;
        tally.check(check::solve(g, &s, &mut reference));
        tally.check(check::solve(g, &b, &mut reference));
        reports.push(s);
    }
    m.set(
        "engine.barrier_over_serial",
        barrier_ms.iter().sum::<f64>() / serial_ms.iter().sum::<f64>(),
    );
    Ok((serial_ms, reports))
}

/// Times the solve set on `rt` with tracing off and with a ring sink, two
/// alternations each, and records the best traced pass over the best
/// untraced one, minus one.
fn trace_overhead(inputs: &Inputs, rt: &Runtime, m: &mut Metrics) {
    let pass = || {
        let t = Instant::now();
        for g in &inputs.solves {
            let _ = std::hint::black_box(solve_two_delta_minus_one(
                g,
                &inputs::ids(g),
                SolverConfig::default(),
                rt,
            ));
        }
        t.elapsed()
    };
    let (mut off, mut on) = (Duration::MAX, Duration::MAX);
    for _ in 0..2 {
        off = off.min(pass());
        on = on.min(traced(pass).0);
    }
    m.set(
        "trace.overhead_frac",
        on.as_secs_f64() / off.as_secs_f64() - 1.0,
    );
}

/// The pipeline's stages called one by one, as `solve_pipeline` chains
/// them: `LineGraph::of` standalone (the X-coloring builds its own), the
/// instance lists, the X-coloring, the solver recursion and the check.
fn layers(
    inputs: &Inputs,
    rt: &Runtime,
    reports: &[RunReport],
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |name, value| *sums.entry(name).or_default() += value;
    let (mut nonempty, mut classes) = (0u64, 0u64);
    for (g, rep) in inputs.solves.iter().zip(reports) {
        let (lg, t, a) = timed(|| LineGraph::of(g));
        add("graph.line_graph_ms", t);
        add("graph.line_graph_alloc_mib", a);
        add("graph.line_graph_edges", lg.graph().num_edges() as f64);
        drop(lg);

        let (inst, t, a) = timed(|| instance::two_delta_minus_one(g));
        add("instance.build_ms", t);
        add("instance.alloc_mib", a);
        let entries: usize = inst.lists().iter().map(|l| l.len()).sum();
        add("instance.list_entries", entries as f64);

        let (x, t, a) = timed(|| linial_edge_coloring(g, &inputs::ids(g), rt));
        add("xcolor.ms", t);
        add("xcolor.alloc_mib", a);
        let x = match x {
            Ok(x) => x,
            Err(e) => {
                tally.check(Err(format!("X-coloring failed: {e}")));
                continue;
            }
        };
        add("xcolor.messages", x.messages as f64);
        let x_colors: Vec<u32> = g.edges().map(|e| x.coloring.get(e).unwrap_or(0)).collect();
        let x_palette = u32::try_from(x.palette).unwrap_or(u32::MAX);

        let solver = Solver::with_runtime(SolverConfig::default(), *rt);
        let (sol, t, a) = timed(|| solver.solve_instance(&inst, &x_colors, x_palette));
        add("solver.ms", t);
        add("solver.alloc_mib", a);
        let sol = match sol {
            Ok(sol) => sol,
            Err(e) => {
                tally.check(Err(format!("solver failed: {e}")));
                continue;
            }
        };
        let st = &sol.stats;
        add("solver.messages", st.messages as f64);
        add("solver.sweeps", st.sweeps as f64);
        add("solver.base_cases", st.base_cases as f64);
        add("solver.space_reductions", st.space_reductions as f64);
        nonempty += st.classes_nonempty;
        classes += st.classes_total;

        let coloring = EdgeColoring::from_complete(sol.colors);
        let (checked, t, _) = timed(|| inst.check_solution(&coloring));
        add("instance.check_ms", t);
        tally.check(checked.and_then(|()| {
            // Stage by stage must reproduce the one-shot pipeline exactly.
            Reference::of(rep).matches(coloring.as_slice(), rep.rounds, x.messages + st.messages)
        }));
    }
    let k = inputs.solves.len() as f64;
    for (name, total) in sums {
        m.set(name, total / k);
    }
    let yield_ = if classes == 0 {
        0.0
    } else {
        nonempty as f64 / classes as f64
    };
    m.set("solver.class_yield", yield_);
}

/// Runs `f`; returns its value, wall time in ms and MiB allocated.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let t = Instant::now();
    let (value, mib) = alloc::measure(f);
    (value, ms(t.elapsed()), mib)
}

/// The session and serve layers: in-process open and apply against the
/// wire latencies of the same traffic, and the daemon's own counters.
fn serve_layer(
    inputs: &Inputs,
    rt: &Runtime,
    traffic: &TrafficResult,
    serial_solve_ms: f64,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let g = &inputs.session_graph;
    let t = Instant::now();
    let opened = Session::open(g, &inputs::ids(g), SolverConfig::default(), rt);
    m.set("session.open_ms", ms(t.elapsed()));
    tally.check(
        opened
            .map(drop)
            .map_err(|e| format!("session open failed: {e}")),
    );

    let apply_us = median(&traffic.replay_apply_us);
    m.set("session.apply_us", apply_us);
    m.set("session.recolored_per_update", traffic.replay_recolored);

    let st = &traffic.status;
    m.set("serve.max_queue_depth", st.max_queue_depth as f64);
    m.set("serve.errors", st.errors as f64);
    m.set(
        "serve.bytes_per_req",
        (st.bytes_in + st.bytes_out) as f64 / st.frames_in.max(1) as f64,
    );
    let wire_p50 = |per_conn: &[Vec<Slice>]| {
        let sources: Vec<&[Slice]> = per_conn.iter().map(Vec::as_slice).collect();
        over_slices(&sources, |s| s.p50)
    };
    m.set(
        "serve.update_overhead_us",
        wire_p50(&traffic.updates) * 1e3 - apply_us,
    );
    m.set(
        "serve.solve_overhead_ms",
        wire_p50(&traffic.solves) - serial_solve_ms,
    );
    tally.merge(traffic.tally);
}

/// `RequestFrame::parse` and `ResponseFrame::encode` on the workload's own
/// frames, mixed as the traffic mixes them: nine updates per solve.
fn wire(inputs: &Inputs, reports: &[RunReport], seed: u64, m: &mut Metrics, tally: &mut Tally) {
    let g = &inputs.session_graph;
    let mut session = match Session::open(
        g,
        &inputs::ids(g),
        SolverConfig::default(),
        &Runtime::serial(),
    ) {
        Ok(s) => s,
        Err(e) => {
            tally.check(Err(format!("session open failed: {e}")));
            return;
        }
    };
    let mut churn = Churn::new(g, serve::conn_seed(seed, 0));
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for (i, (solved, rep)) in inputs.solves.iter().zip(reports).enumerate() {
        requests.push(RequestFrame {
            id: format!("c{i}"),
            req: Request::Solve {
                graph: GraphSource::from_graph(solved),
                engine: None,
                progress: false,
            },
        });
        responses.push(ResponseFrame {
            id: format!("c{i}"),
            resp: Response::Report {
                queue_ns: 0,
                line: RunReportLine::from_report(rep),
            },
        });
        for j in 0..9 {
            let update = churn.next_update();
            let id = format!("c{i}u{j}");
            requests.push(RequestFrame {
                id: id.clone(),
                req: Request::Update {
                    session: "bench-0".into(),
                    update,
                },
            });
            match session.apply(update) {
                Ok(r) => responses.push(ResponseFrame {
                    id,
                    resp: Response::Updated {
                        session: "bench-0".into(),
                        queue_ns: 0,
                        line: UpdateReportLine::from_report(&r),
                    },
                }),
                Err(e) => tally.check(Err(format!("update failed: {e}"))),
            }
        }
    }
    let lines: Vec<String> = requests.iter().map(RequestFrame::encode).collect();
    for (line, frame) in lines.iter().zip(&requests) {
        tally.check(match RequestFrame::parse(line) {
            Ok(back) if &back == frame => Ok(()),
            other => Err(format!("request frame does not round-trip: {other:?}")),
        });
    }
    for frame in &responses {
        tally.check(match ResponseFrame::parse(&frame.encode()) {
            Ok(back) if &back == frame => Ok(()),
            _ => Err("response frame does not round-trip".into()),
        });
    }
    m.set(
        "wire.parse_us",
        per_item_us(lines.len(), || {
            for line in &lines {
                let _ = std::hint::black_box(RequestFrame::parse(line));
            }
        }),
    );
    m.set(
        "wire.encode_us",
        per_item_us(responses.len(), || {
            for frame in &responses {
                std::hint::black_box(frame.encode());
            }
        }),
    );
}

/// Mean µs per item of `pass` over `items` items, repeated until at least
/// 50 ms have been measured.
fn per_item_us(items: usize, mut pass: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.is_empty() || start.elapsed() < Duration::from_millis(50) {
        let t = Instant::now();
        pass();
        times.push(us(t.elapsed()) / items.max(1) as f64);
    }
    mean(&times)
}
