//! Metric names and units, small statistics helpers, and the one JSON line
//! a run prints last.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: a trace-off run prints every [`END_TO_END`] metric and
//! a traced run every [`PER_LAYER`] metric, each with the unit listed here.
//! The self-test (`tests/smoke.rs`) checks that the file and the printed
//! lines agree.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics: what a caller of the library or the daemon sees.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("solve_p50_ms", "ms"),
    ("solve_p99_ms", "ms"),
    ("solves_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("update_p50_ms", "ms"),
    ("update_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("alloc_mib", "MiB"),
    ("ok_frac", "fraction"),
    ("rounds", "count"),
    ("messages", "count"),
];

/// Per-layer metrics: one traced run times the calls into each layer's
/// public functions and digests the spans the program emits on its own.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("graph.line_graph_ms", "ms"),
    ("graph.line_graph_edges", "count"),
    ("graph.line_graph_alloc_mib", "MiB"),
    ("instance.build_ms", "ms"),
    ("instance.alloc_mib", "MiB"),
    ("instance.list_entries", "count"),
    ("instance.check_ms", "ms"),
    ("xcolor.ms", "ms"),
    ("xcolor.messages", "count"),
    ("xcolor.alloc_mib", "MiB"),
    ("solver.ms", "ms"),
    ("solver.alloc_mib", "MiB"),
    ("solver.sweeps", "count"),
    ("solver.base_cases", "count"),
    ("solver.space_reductions", "count"),
    ("solver.class_yield", "fraction"),
    ("solver.messages", "count"),
    ("solver.sweep_ms", "ms"),
    ("solver.branch_ms", "ms"),
    ("engine.round_ms", "ms"),
    ("engine.send_ms", "ms"),
    ("engine.receive_ms", "ms"),
    ("engine.rounds", "count"),
    ("engine.barrier_over_serial", "ratio"),
    ("session.open_ms", "ms"),
    ("session.apply_us", "us"),
    ("session.recolored_per_update", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.errors", "count"),
    ("serve.bytes_per_req", "bytes"),
    ("serve.update_overhead_us", "us"),
    ("serve.solve_overhead_ms", "ms"),
    ("wire.parse_us", "us"),
    ("wire.encode_us", "us"),
    ("trace.overhead_frac", "fraction"),
];

/// Metric values by name, filled in by the workloads.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name` (overwriting an earlier value).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// Checked operations of one run: everything attempted, and what failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one checked operation; prints the reason when it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: check failed: {why}");
            }
        }
    }

    /// Marks `n` already attempted operations as failed.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed = (self.failed + n).min(self.attempted);
        eprintln!("perfbench: check failed: {why}");
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Share of attempted operations that passed their checks.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// Renders the result line for `spec`, whose every metric must be present
/// in `metrics` with a finite value.
///
/// # Panics
///
/// Panics on a missing or non-finite metric: the workload code forgot to
/// record it, which is a bug in the benchmark.
pub fn result_line(tally: Tally, spec: &[(&str, &str)], metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
    );
    for (i, (name, unit)) in spec.iter().enumerate() {
        let value = *metrics
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not recorded"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// The `q`-quantile of `samples` (linear interpolation between order
/// statistics); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = (sorted.len() - 1) as f64 * q;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Slices of a timed window for the workloads with many short requests.
pub const SLICES: usize = 10;

/// Latency samples folded slice by slice. A measured window is cut into
/// equal slices and only the open slice's samples are kept, so memory does
/// not grow with the number of requests a run completes. Reporting the
/// median over slices keeps a burst of machine noise in one slice from
/// moving a run's figure.
#[derive(Debug, Clone)]
pub struct Sliced {
    slice_seconds: f64,
    slices: usize,
    open: Vec<f64>,
    closed: Vec<Slice>,
}

/// One closed slice: how many samples completed in it, and their median
/// and 99th percentile.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
}

impl Sliced {
    /// `slices` slices over a window of `seconds` (samples completing
    /// later land in the last slice). An infinite window is one slice.
    pub fn new(seconds: f64, slices: usize) -> Sliced {
        Sliced {
            slice_seconds: seconds / slices as f64,
            slices,
            open: Vec::new(),
            closed: Vec::with_capacity(slices),
        }
    }

    /// Adds a sample completing `t` seconds into the window.
    pub fn push(&mut self, t: f64, value: f64) {
        let slice = ((t / self.slice_seconds) as usize).min(self.slices - 1);
        while self.closed.len() < slice {
            self.close();
        }
        self.open.push(value);
    }

    fn close(&mut self) {
        self.closed.push(Slice {
            count: self.open.len(),
            p50: median(&self.open),
            p99: quantile(&self.open, 0.99),
        });
        self.open.clear();
    }

    /// Closes the remaining slices.
    pub fn finish(mut self) -> Vec<Slice> {
        while self.closed.len() < self.slices {
            self.close();
        }
        self.closed
    }
}

/// The median over every nonempty slice of every source of `pick(slice)`.
pub fn over_slices(sources: &[&[Slice]], pick: fn(&Slice) -> f64) -> f64 {
    let values: Vec<f64> = sources
        .iter()
        .flat_map(|s| s.iter())
        .filter(|s| s.count > 0)
        .map(pick)
        .collect();
    median(&values)
}

/// Samples across every slice of every source.
pub fn count(sources: &[&[Slice]]) -> usize {
    sources.iter().flat_map(|s| s.iter()).map(|s| s.count).sum()
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples`; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`). Each run is
/// its own process, so this is the workload's peak, set-up included.
pub fn peak_rss_mib() -> f64 {
    deco::trace::peak_rss_bytes().map_or(0.0, crate::alloc::mib)
}
