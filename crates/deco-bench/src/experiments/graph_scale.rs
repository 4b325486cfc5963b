//! `graph-scale` — the million-edge substrate end to end: bulk CSR build
//! vs per-edge insertion, binary snapshot load vs text parse, the serial
//! and barrier engines' wall clock on a Kronecker graph, the solver
//! pipeline at scale, and the process's peak RSS.
//!
//! Size is controlled by `DECO_SCALE_EDGES` (target distinct edge count,
//! default 100 000; CI's scale-smoke leg pins it, the acceptance run
//! raises it to 10^6). When `DECO_BENCH_JSON` is set, the build and load
//! times are appended to the same line-JSON file the criterion shim
//! writes, so `bench-trend` tracks them across runs.

use crate::records::append_trend_records;
use crate::table::Table;
use deco_engine::protocols::FloodMax;
use deco_engine::{Executor, GraphSpec, IdFlavor, ParallelExecutor, Scenario, SerialExecutor};
use deco_graph::{generators, io, Builder, GraphBuilder, NodeId};
use deco_runtime::Runtime;
use std::fmt::Write as _;
use std::time::Instant;

/// Default distinct-edge target when `DECO_SCALE_EDGES` is unset.
const DEFAULT_EDGES: usize = 100_000;

/// Per-node distinct-edge target handed to the Kronecker generator.
const EDGE_FACTOR: usize = 8;

/// Reads the `DECO_SCALE_EDGES` knob.
///
/// # Panics
///
/// Panics on a malformed value — a mistyped size must not silently run the
/// default-sized experiment.
fn target_edges() -> usize {
    match std::env::var("DECO_SCALE_EDGES") {
        Ok(v) if !v.is_empty() => v
            .parse()
            .unwrap_or_else(|_| panic!("DECO_SCALE_EDGES must be an edge count, got {v:?}")),
        _ => DEFAULT_EDGES,
    }
}

/// Runs the experiment and returns the report.
pub fn run(rt: &Runtime) -> String {
    let target = target_edges();
    // `edge_factor << scale` distinct edges; pick the scale whose target is
    // closest to the request from below-or-equal of the doubling ladder.
    let scale = (target / EDGE_FACTOR).max(2).ilog2();
    let mut out = String::from("# graph-scale — million-edge substrate\n\n");

    // Part 1: generate, then rebuild the same edge set through both
    // construction paths.
    let (t_gen, g) = time(|| generators::kronecker(scale, EDGE_FACTOR, 42));
    let pairs: Vec<(usize, usize)> = g
        .edge_list()
        .iter()
        .map(|[u, v]| (u.index(), v.index()))
        .collect();
    let n = g.num_nodes();
    let m = g.num_edges();
    let _ = writeln!(
        out,
        "kronecker(scale={scale}, edge_factor={EDGE_FACTOR}, seed=42): \
         n={n}, m={m} (target ~{} via DECO_SCALE_EDGES), max degree {}, \
         generated in {t_gen:.1?}.\n",
        target,
        g.max_degree(),
    );

    out.push_str("## build: per-edge insertion vs bulk CSR assembly\n\n");
    let (t_push, g_push) = time(|| {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &pairs {
            b.add_edge(NodeId::from(u), NodeId::from(v));
        }
        b.build().expect("valid edge set")
    });
    let (t_bulk, g_bulk) = time(|| {
        let mut b = Builder::with_capacity(n, pairs.len());
        for &(u, v) in &pairs {
            b.add_edge(u, v).expect("edges are simple");
        }
        b.build().expect("valid edge set")
    });
    assert_eq!(
        g_push.edge_list(),
        g_bulk.edge_list(),
        "same CSR either way"
    );
    let mut t = Table::new(["path", "time", "edges/s"]);
    t.row([
        "per-edge GraphBuilder".into(),
        format!("{t_push:.1?}"),
        rate(m, t_push),
    ]);
    t.row([
        "bulk Builder".into(),
        format!("{t_bulk:.1?}"),
        rate(m, t_bulk),
    ]);
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nBoth paths produce identical CSR (asserted); the bulk builder runs \
         degree-count → prefix-sum → scatter in O(n+m), {:.2}x the per-edge path here.\n",
        t_push.as_secs_f64() / t_bulk.as_secs_f64(),
    );

    // Part 2: text round-trip vs binary snapshot round-trip.
    out.push_str("## load: edge-list text vs binary snapshot\n\n");
    let (t_txt_w, text) = time(|| io::to_edge_list(&g));
    let (t_txt_r, g_txt) = time(|| io::read_edge_list(text.as_bytes()).expect("own text parses"));
    let mut snap = Vec::new();
    let (t_snap_w, ()) = time(|| io::write_snapshot(&g, &mut snap).expect("vec write"));
    let (t_snap_r, g_snap) = time(|| io::read_snapshot(&snap[..]).expect("own snapshot loads"));
    assert_eq!(g_txt.edge_list(), g.edge_list());
    assert_eq!(g_snap.edge_list(), g.edge_list());
    let mut t = Table::new(["format", "bytes", "write", "read", "read edges/s"]);
    t.row([
        "edge-list text".into(),
        text.len().to_string(),
        format!("{t_txt_w:.1?}"),
        format!("{t_txt_r:.1?}"),
        rate(m, t_txt_r),
    ]);
    t.row([
        "snapshot v1".into(),
        snap.len().to_string(),
        format!("{t_snap_w:.1?}"),
        format!("{t_snap_r:.1?}"),
        rate(m, t_snap_r),
    ]);
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nSnapshot load is {:.2}x text parse (no re-tokenizing, no re-sorting: \
         arrays are read and structurally validated in O(n+m)).\n",
        t_txt_r.as_secs_f64() / t_snap_r.as_secs_f64(),
    );

    // Part 3: both engines on the Kronecker graph.
    out.push_str("## engine lineup: wall clock\n\n");
    let scenario = Scenario::new(
        GraphSpec::Kronecker {
            scale,
            edge_factor: EDGE_FACTOR,
        },
        IdFlavor::Shuffled,
        2026,
    );
    let gk = scenario.graph();
    let net = scenario.network(&gk);
    let proto = FloodMax { radius: 2 };
    let (t_serial, serial) = time(|| SerialExecutor.execute(&net, &proto, 50).unwrap());
    let (t_engine, engine) = time(|| ParallelExecutor::auto().execute(&net, &proto, 50).unwrap());
    assert_eq!(serial.outputs, engine.outputs, "engine-auto");
    assert_eq!(serial.rounds, engine.rounds, "engine-auto");
    assert_eq!(serial.messages, engine.messages, "engine-auto");
    let mut t = Table::new(["engine", "time", "rounds", "messages"]);
    for (label, dur, run) in [
        ("serial", t_serial, &serial),
        ("engine-auto", t_engine, &engine),
    ] {
        t.row([
            label.to_string(),
            format!("{dur:.1?}"),
            run.rounds.to_string(),
            run.messages.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // Part 4: the solver pipeline at scale on the ambient engine.
    out.push_str("## solver pipeline\n\n");
    let ids: Vec<u64> = net.ids().to_vec();
    let cfg = deco_core::solver::SolverConfig::default();
    let (t_solve, rep) = time(|| {
        deco_core::solver::solve_two_delta_minus_one(&gk, &ids, cfg, rt).expect("solver succeeds")
    });
    let _ = writeln!(
        out,
        "solve_two_delta_minus_one on kronecker(n={}, m={}): {} colors, \
         {} rounds charged, {} messages, {t_solve:.1?} on {}.\n",
        gk.num_nodes(),
        gk.num_edges(),
        rep.colors.distinct_colors(),
        rep.cost.actual_rounds(),
        rep.messages,
        rep.engine_descriptor,
    );

    // Part 5: peak RSS of the whole process so far — the budget CI's
    // scale-smoke leg asserts on.
    out.push_str("## memory\n\n");
    match deco_trace::peak_rss_bytes() {
        Some(rss) => {
            let _ = writeln!(
                out,
                "peak-rss-bytes: {rss} ({:.1} MiB) for the full experiment, \
                 m={m} edges.",
                rss as f64 / (1024.0 * 1024.0),
            );
        }
        None => out.push_str("peak-rss-bytes: unavailable on this platform.\n"),
    }

    // Machine-readable trend records (same file the criterion shim appends
    // to): build/load wall times in nanoseconds.
    append_trend_records(&[
        ("graph-scale/build-push", t_push.as_nanos() as u64),
        ("graph-scale/build-bulk", t_bulk.as_nanos() as u64),
        ("graph-scale/load-text", t_txt_r.as_nanos() as u64),
        ("graph-scale/load-snapshot", t_snap_r.as_nanos() as u64),
    ]);

    out
}

fn rate(edges: usize, d: std::time::Duration) -> String {
    if d.as_secs_f64() == 0.0 {
        return "-".into();
    }
    format!("{:.1}M", edges as f64 / d.as_secs_f64() / 1e6)
}

fn time<T>(f: impl FnOnce() -> T) -> (std::time::Duration, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed(), value)
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_covers_build_load_engines_and_memory() {
        // Shrink the workload so the debug-mode test stays fast.
        std::env::set_var("DECO_SCALE_EDGES", "4000");
        let r = super::run(&deco_runtime::Runtime::serial());
        assert!(r.contains("bulk Builder"));
        assert!(r.contains("snapshot v1"));
        assert!(r.contains("engine lineup"));
        assert!(r.contains("solver pipeline"));
        assert!(r.contains("peak-rss-bytes"));
    }
}
