//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <kron-solve|small-batch|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One run sets a workload up several times (reporting the median set-up
//! time), measures it for `--seconds`, checks every output, and prints one
//! JSON line last: the end-to-end metrics with `--trace 0`, the per-layer
//! ledger with `--trace 1`. `--smoke` shrinks the inputs for the self-test.
//! See `README.md` for the workloads and what each metric should move.

mod alloc;
mod check;
mod inputs;
mod ledger;
mod report;
mod serve;
mod solve;

use inputs::{Inputs, Size};
use report::{count, median, over_slices, Metrics, Slice, Tally};
use serve::Stop;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <kron-solve|small-batch|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 3;
const SERVE_SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut size) =
        (None, None, None, false, Size::Full);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            size = Size::Smoke;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["kron-solve", "small-batch", "serve-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        size,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let (seed, size) = (args.seed, args.size);
    let serial = deco::runtime::Runtime::serial();
    let run = match args.workload.as_str() {
        // Large Δ: lists, L(G) and the solver's sweeps dominate; engine
        // dispatch is negligible.
        "kron-solve" => {
            let churning = solve::Churning {
                every_solves: 1,
                burst: 1000,
            };
            // About fifteen solves a run: one slice.
            in_process(&args, || inputs::kron(size), serial, churning, 1, 20)
        }
        // Many tiny solves on the barrier engine: per-execution overhead
        // dominates.
        "small-batch" => in_process(
            &args,
            || inputs::batch(seed, size),
            ledger::runtime(ledger::BARRIER),
            solve::Churning {
                every_solves: 24,
                burst: 100,
            },
            report::SLICES,
            200,
        ),
        _ => served(&args),
    };
    let (tally, metrics) = run.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    let spec: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    println!("{}", report::result_line(tally, spec, &metrics));
}

/// `kron-solve` and `small-batch`: repeated one-shot solves on `rt` with
/// bursts of session updates in between.
fn in_process(
    args: &Args,
    make: impl Fn() -> Inputs,
    rt: deco::runtime::Runtime,
    churning: solve::Churning,
    slices: usize,
    probe_requests: usize,
) -> Result<(Tally, Metrics), String> {
    let (mut prep, setup) = solve::prepare(make, &rt, args.seed, SETUP_REPS)?;
    if args.trace {
        let mut m = Metrics::default();
        let (r, spans) =
            ledger::traced(|| solve::run(&mut prep, &rt, churning, args.seconds, slices));
        let mut tally = r.tally;
        ledger::spans(&spans, r.solved, &mut m);
        ledger::probes(
            &prep.inputs,
            &rt,
            args.seed,
            None,
            probe_requests,
            &mut m,
            &mut tally,
        )?;
        return Ok((tally, m));
    }
    let r = solve::run(&mut prep, &rt, churning, args.seconds, slices);
    let e2e = EndToEnd {
        setup: &setup,
        solves: vec![&r.solves],
        updates: vec![&r.updates],
        wall: r.wall.as_secs_f64(),
        peak_rss_mib: r.peak_rss_mib,
        alloc_mib: r.alloc_per_solve,
        ok_frac: r.tally.ok_frac(),
        refs: &r.refs,
    };
    Ok((r.tally, e2e.metrics()))
}

/// `serve-mixed`: daemon traffic from two closed-loop connections.
fn served(args: &Args) -> Result<(Tally, Metrics), String> {
    let mut setup = Vec::with_capacity(SERVE_SETUP_REPS);
    let mut last = None;
    for _ in 0..SERVE_SETUP_REPS {
        drop(last.take());
        let t = std::time::Instant::now();
        let inputs = inputs::serve(args.size);
        let daemon = serve::start(&inputs)?;
        setup.push(t.elapsed().as_secs_f64());
        last = Some((inputs, daemon));
    }
    let (inputs, daemon) = last.expect("at least one set-up");

    // The in-process solve every served solve of a graph must equal.
    let mut tally = Tally::default();
    let mut refs = Vec::with_capacity(inputs.solves.len());
    for g in &inputs.solves {
        let rep = deco::core_alg::solver::solve_two_delta_minus_one(
            g,
            &inputs::ids(g),
            deco::core_alg::solver::SolverConfig::default(),
            &deco::runtime::Runtime::serial(),
        )
        .map_err(|e| format!("reference solve failed: {e}"))?;
        tally.check(check::coloring(g, &rep.colors));
        refs.push(check::Reference::of(&rep));
    }

    let stop = Stop::After(Duration::from_secs_f64(args.seconds));
    if args.trace {
        let mut m = Metrics::default();
        let (r, spans) = ledger::traced(|| serve::traffic(daemon, &inputs, &refs, args.seed, stop));
        ledger::spans(&spans, r.solved, &mut m);
        let serial = deco::runtime::Runtime::serial();
        ledger::probes(&inputs, &serial, args.seed, Some(r), 0, &mut m, &mut tally)?;
        return Ok((tally, m));
    }
    let r = serve::traffic(daemon, &inputs, &refs, args.seed, stop);
    tally.merge(r.tally);
    let e2e = EndToEnd {
        setup: &setup,
        solves: r.solves.iter().map(Vec::as_slice).collect(),
        updates: r.updates.iter().map(Vec::as_slice).collect(),
        wall: r.wall.as_secs_f64(),
        peak_rss_mib: r.peak_rss_mib,
        alloc_mib: r.alloc_per_req,
        ok_frac: tally.ok_frac(),
        refs: &refs,
    };
    Ok((tally, e2e.metrics()))
}

/// The measurements every workload reduces to its end-to-end metrics.
struct EndToEnd<'a> {
    setup: &'a [f64],
    /// Latency slices per source (one per connection when served).
    solves: Vec<&'a [Slice]>,
    updates: Vec<&'a [Slice]>,
    wall: f64,
    peak_rss_mib: f64,
    alloc_mib: f64,
    ok_frac: f64,
    /// One reference solve per workload graph: rounds and messages are
    /// their means.
    refs: &'a [check::Reference],
}

impl EndToEnd<'_> {
    fn metrics(&self) -> Metrics {
        let mean_of = |f: fn(&check::Reference) -> u64| {
            report::mean(&self.refs.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
        };
        let mut m = Metrics::default();
        m.set("setup_s", median(self.setup));
        let (solves, updates) = (&self.solves, &self.updates);
        m.set("solve_p50_ms", over_slices(solves, |s| s.p50));
        m.set("solve_p99_ms", over_slices(solves, |s| s.p99));
        m.set("solves_per_s", count(solves) as f64 / self.wall);
        let requests = count(solves) + count(updates);
        m.set("req_per_s", requests as f64 / self.wall);
        m.set("update_p50_ms", over_slices(updates, |s| s.p50));
        m.set("update_p99_ms", over_slices(updates, |s| s.p99));
        m.set("peak_rss_mib", self.peak_rss_mib);
        m.set("alloc_mib", self.alloc_mib);
        m.set("ok_frac", self.ok_frac);
        m.set("rounds", mean_of(|r| r.rounds));
        m.set("messages", mean_of(|r| r.messages));
        m
    }
}
