//! Offline, API-compatible subset of the `criterion` benchmark harness.
//!
//! The workspace builds without access to crates.io, so the bench targets
//! link against this shim instead. It implements exactly the surface the
//! `deco-bench` targets use — [`Criterion`], [`criterion_group!`],
//! [`criterion_main!`], [`BenchmarkId`], benchmark groups, and
//! [`Bencher::iter`] — with a simple measurement loop: warm up, then run
//! batches until a wall-clock budget is spent, and report the mean, minimum,
//! and iteration count per benchmark.
//!
//! It produces honest wall-clock numbers suitable for A/B comparisons within
//! one run (e.g. engine vs serial runner); it does not do outlier analysis
//! or regression tracking. Set `DECO_BENCH_MS` to change the per-benchmark
//! measurement budget (default 300 ms).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level harness handle, mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F>(&mut self, name: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&name.to_string(), &mut f);
        self
    }
}

/// Parameterized benchmark identifier, mirroring `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id rendered from a parameter value alone.
    pub fn from_parameter(p: impl Display) -> BenchmarkId {
        BenchmarkId { id: p.to_string() }
    }

    /// An id with a function name and a parameter value.
    pub fn new(name: impl Display, p: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{name}/{p}"),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// A named group of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim's measurement loop is
    /// budget-driven rather than sample-count-driven.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility (throughput annotation is ignored).
    pub fn throughput(&mut self, _elements: u64) -> &mut Self {
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{}/{}", self.name, id), &mut f);
        self
    }

    /// Benchmarks `f` with a borrowed input under `id` within this group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(&format!("{}/{}", self.name, id), &mut |b| f(b, input));
        self
    }

    /// Ends the group (no-op; reports are printed eagerly).
    pub fn finish(self) {}
}

/// Timing loop handle passed to benchmark closures.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`, running it `self.iters` times back to back.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn budget() -> Duration {
    let ms = std::env::var("DECO_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300);
    Duration::from_millis(ms)
}

fn run_benchmark(name: &str, f: &mut dyn FnMut(&mut Bencher)) {
    // Warm-up / calibration run.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let once = b.elapsed.max(Duration::from_nanos(1));
    let budget = budget();
    // Batch size: aim for ~10 batches inside the budget.
    let per_batch = (budget.as_nanos() / 10 / once.as_nanos()).clamp(1, 1 << 20) as u64;

    let mut total_iters = 0u64;
    let mut total_time = Duration::ZERO;
    let mut best = once;
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        let mut b = Bencher {
            iters: per_batch,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        total_iters += per_batch;
        total_time += b.elapsed;
        let per_iter = b.elapsed / u32::try_from(per_batch).expect("clamped to 2^20");
        best = best.min(per_iter);
    }
    if total_iters == 0 {
        total_iters = 1;
        total_time = once;
    }
    let mean = total_time / u32::try_from(total_iters.min(u64::from(u32::MAX))).unwrap();
    println!("bench {name:<50} mean {mean:>12?}  min {best:>12?}  ({total_iters} iters)");
}

/// Declares a benchmark group function, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_runs_and_reports() {
        std::env::set_var("DECO_BENCH_MS", "5");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim-selftest");
        group.sample_size(10);
        let mut calls = 0u64;
        group.bench_function("count", |b| b.iter(|| calls += 1));
        group.bench_with_input(BenchmarkId::from_parameter(3), &3u64, |b, &x| {
            b.iter(|| x * 2)
        });
        group.finish();
        assert!(calls > 0);
    }
}
