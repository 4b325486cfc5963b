//! Zero-cost-when-off tracing, metrics, and per-round profiling shared by
//! every execution engine in the workspace.
//!
//! # Design
//!
//! One process-global dispatch (in the style of the `log` crate) holds the
//! active [`TraceSink`]. Instrumentation points call [`enabled`] — a single
//! relaxed atomic load — before doing *anything* else: when tracing is off,
//! no clock is read, no event is built, no lock is taken. The differential
//! suites pin this observational neutrality by re-running every engine with
//! tracing on and asserting bit-identical outputs.
//!
//! Metrics are per thread. A [`run_scope`] opens a window on the calling
//! thread's own [`Aggregator`], and every event that thread emits while the
//! window is open is folded into it. Nested scopes on one thread share the
//! window; scopes on different threads never see each other's events, so
//! concurrent runs (the daemon's workers, parallel tests) each get their
//! own report. Every span and count of a run is emitted on the thread that
//! called it: the barrier engine's worker threads emit nothing.
//!
//! Three sinks ship in [`sink`]: [`NoopSink`] (default), [`RingSink`]
//! (in-memory, for tests and experiments), and [`JsonlSink`] (one JSON line
//! per event, parseable back via [`TraceEvent::from_jsonl`]). Selection
//! normally happens through `deco-runtime`'s `RuntimeBuilder` or the
//! `DECO_TRACE` env var (`off` / `ring` / `jsonl`, path via
//! `DECO_TRACE_PATH`).
//!
//! # Example
//!
//! Install a ring sink, time a phase inside a run scope, and digest the
//! emissions into a [`MetricsReport`]:
//!
//! ```
//! use deco_trace::{Counter, Phase, TraceConfig};
//!
//! deco_trace::install(TraceConfig::ring()).unwrap();
//! let scope = deco_trace::run_scope();
//! {
//!     let _span = deco_trace::span(Phase::Round);
//!     deco_trace::count(Counter::Messages, 42);
//! } // span emits its wall time here
//! let metrics = scope.finish().expect("tracing is on");
//! assert_eq!(metrics.counter(Counter::Messages), Some(42));
//! assert_eq!(metrics.phase(Phase::Round).unwrap().count, 1);
//!
//! // Every emitted event is retained by the ring and parses back.
//! for event in deco_trace::ring_events() {
//!     let line = event.to_jsonl();
//!     assert_eq!(deco_trace::TraceEvent::from_jsonl(&line).unwrap(), event);
//! }
//! deco_trace::install(TraceConfig::off()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod summary;

pub use event::{Counter, Phase, TraceEvent};
pub use metrics::{Aggregator, CounterStat, MetricsReport, PhaseStat, SampleStat};
pub use sink::{JsonlSink, NoopSink, RingSink, TraceSink};

use std::cell::RefCell;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Which sink a [`TraceConfig`] selects. `Off` is the default everywhere;
/// parsing of the `DECO_TRACE` env var into this lives in
/// `deco_engine::config` next to the other env parsers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Tracing disabled (the zero-cost path).
    #[default]
    Off,
    /// In-memory ring buffer of recent events.
    Ring,
    /// JSONL file, one event per line.
    Jsonl,
}

impl TraceMode {
    /// The stable descriptor name (matches what `parse_trace` accepts).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Ring => "ring",
            TraceMode::Jsonl => "jsonl",
        }
    }
}

impl std::fmt::Display for TraceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Env var naming the JSONL output path (consumed at [`install`] time).
pub const ENV_TRACE_PATH: &str = "DECO_TRACE_PATH";

/// Default JSONL output path when neither [`TraceConfig::path`] nor
/// [`ENV_TRACE_PATH`] is set.
pub const DEFAULT_JSONL_PATH: &str = "trace.jsonl";

/// Full sink selection passed to [`install`].
#[derive(Debug, Clone, Default)]
pub struct TraceConfig {
    /// Which sink.
    pub mode: TraceMode,
    /// JSONL output path override (mode [`TraceMode::Jsonl`] only). When
    /// `None`, [`ENV_TRACE_PATH`] is consulted, then
    /// [`DEFAULT_JSONL_PATH`].
    pub path: Option<PathBuf>,
}

impl TraceConfig {
    /// Tracing disabled.
    pub fn off() -> Self {
        Self::default()
    }

    /// In-memory ring sink.
    pub fn ring() -> Self {
        Self {
            mode: TraceMode::Ring,
            path: None,
        }
    }

    /// JSONL sink writing to `path`.
    pub fn jsonl(path: impl Into<PathBuf>) -> Self {
        Self {
            mode: TraceMode::Jsonl,
            path: Some(path.into()),
        }
    }

    /// Config for `mode` with no path override.
    pub fn from_mode(mode: TraceMode) -> Self {
        Self { mode, path: None }
    }
}

struct Dispatch {
    sink: Box<dyn TraceSink>,
}

/// One thread's metrics window: the aggregator its run scopes read, and
/// how many of them are open. The aggregator resets when the first one
/// opens, so nested scopes share one accumulation window.
struct Window {
    agg: Aggregator,
    depth: u64,
}

thread_local! {
    static WINDOW: RefCell<Window> = RefCell::new(Window {
        agg: Aggregator::new(),
        depth: 0,
    });
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn state() -> &'static RwLock<Option<Arc<Dispatch>>> {
    static STATE: OnceLock<RwLock<Option<Arc<Dispatch>>>> = OnceLock::new();
    STATE.get_or_init(|| RwLock::new(None))
}

fn with_dispatch<R>(f: impl FnOnce(&Dispatch) -> R) -> Option<R> {
    let guard = state().read().ok()?;
    guard.as_deref().map(f)
}

/// True when a sink is installed. A single relaxed atomic load; every
/// instrumentation point checks this first so the disabled path reads no
/// clock, builds no event, and takes no lock.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs the sink selected by `config`, replacing any previous one
/// (flushed first). `TraceMode::Off` uninstalls and restores the zero-cost
/// path. JSONL mode truncates the target file.
///
/// # Errors
///
/// Propagates the I/O error if the JSONL file cannot be created.
pub fn install(config: TraceConfig) -> std::io::Result<()> {
    let new: Option<Arc<Dispatch>> = match config.mode {
        TraceMode::Off => None,
        TraceMode::Ring => Some(Arc::new(Dispatch {
            sink: Box::new(RingSink::new()),
        })),
        TraceMode::Jsonl => {
            let path = config
                .path
                .or_else(|| std::env::var_os(ENV_TRACE_PATH).map(PathBuf::from))
                .unwrap_or_else(|| PathBuf::from(DEFAULT_JSONL_PATH));
            Some(Arc::new(Dispatch {
                sink: Box::new(JsonlSink::create(Path::new(&path))?),
            }))
        }
    };
    let enabled = new.is_some();
    if let Ok(mut guard) = state().write() {
        if let Some(old) = guard.take() {
            old.sink.flush();
        }
        *guard = new;
    }
    ENABLED.store(enabled, Ordering::Relaxed);
    Ok(())
}

/// Emits one event to the active sink and, inside a [`run_scope`], folds
/// it into the calling thread's aggregator. No-op when tracing is off.
pub fn emit(event: TraceEvent) {
    if !enabled() {
        return;
    }
    WINDOW.with_borrow_mut(|w| {
        if w.depth > 0 {
            w.agg.observe(&event);
        }
    });
    with_dispatch(|d| d.sink.record(&event));
}

/// Emits a [`TraceEvent::Count`]. No-op when tracing is off.
#[inline]
pub fn count(counter: Counter, value: u64) {
    if enabled() {
        emit(TraceEvent::Count { counter, value });
    }
}

/// Emits a [`TraceEvent::Sample`]. No-op when tracing is off.
#[inline]
pub fn sample(counter: Counter, value: u64) {
    if enabled() {
        emit(TraceEvent::Sample { counter, value });
    }
}

/// An in-flight phase measurement; emits a [`TraceEvent::Span`] with its
/// wall time when dropped. Inert (no clock read) when tracing was off at
/// construction.
#[derive(Debug)]
#[must_use = "a span measures until dropped"]
pub struct Span {
    phase: Phase,
    round: Option<u64>,
    start: Option<Instant>,
}

impl Span {
    /// Discards the span without emitting (for error paths that should not
    /// be attributed wall time).
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            emit(TraceEvent::Span {
                phase: self.phase,
                round: self.round,
                nanos,
            });
        }
    }
}

/// Starts timing `phase`; the returned guard emits on drop. Inert when
/// tracing is off.
#[inline]
pub fn span(phase: Phase) -> Span {
    Span {
        phase,
        round: None,
        start: enabled().then(Instant::now),
    }
}

/// Like [`span`], with a round attribution.
#[inline]
pub fn round_span(phase: Phase, round: u64) -> Span {
    Span {
        phase,
        round: Some(round),
        start: enabled().then(Instant::now),
    }
}

/// An open metrics accumulation window on the calling thread; see
/// [`run_scope`]. It reads that thread's aggregator, so it cannot move to
/// another thread:
///
/// ```compile_fail
/// fn send<T: Send>(_: T) {}
/// send(deco_trace::run_scope());
/// ```
#[derive(Debug)]
#[must_use = "call finish() to obtain the MetricsReport"]
pub struct RunScope {
    open: bool,
    _thread_bound: PhantomData<*const ()>,
}

impl RunScope {
    /// Closes the scope and returns the digested metrics, or `None` when
    /// tracing is off (or was off when the scope opened).
    pub fn finish(mut self) -> Option<MetricsReport> {
        if !self.open {
            return None;
        }
        // Snapshot peak RSS before reading the aggregator so it lands in
        // this scope's report.
        if let Some(rss) = peak_rss_bytes() {
            sample(Counter::PeakRssBytes, rss);
        }
        self.open = false;
        let report = WINDOW.with_borrow_mut(|w| {
            w.depth -= 1;
            w.agg.report()
        });
        with_dispatch(|d| d.sink.flush()).map(|()| report)
    }
}

impl Drop for RunScope {
    fn drop(&mut self) {
        if self.open {
            WINDOW.with_borrow_mut(|w| w.depth -= 1);
        }
    }
}

/// Opens a metrics accumulation window on the calling thread. The
/// thread's outermost scope resets its aggregator, so each top-level run
/// (e.g. one `solve_pipeline` call) gets a fresh [`MetricsReport`]; nested
/// scopes share the outer window. Returns an inert scope when tracing is
/// off.
pub fn run_scope() -> RunScope {
    let open = enabled();
    if open {
        WINDOW.with_borrow_mut(|w| {
            if w.depth == 0 {
                w.agg.reset();
            }
            w.depth += 1;
        });
    }
    RunScope {
        open,
        _thread_bound: PhantomData,
    }
}

/// Drains the ring sink's retained events (empty when the active sink does
/// not retain events or tracing is off).
pub fn ring_events() -> Vec<TraceEvent> {
    with_dispatch(|d| d.sink.take_events())
        .flatten()
        .unwrap_or_default()
}

/// Flushes the active sink, if any.
pub fn flush() {
    with_dispatch(|d| d.sink.flush());
}

/// Current peak resident set size of the process in bytes (Linux `VmHWM`
/// from `/proc/self/status`); `None` off-Linux or if unreadable.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Temporarily ensures a sink is installed (a ring, if tracing was off) so
/// metrics can be collected. Guards are counted process-wide: the sink
/// stays installed while any guard is alive, and `Off` is restored when the
/// last one drops if the first one did the installing. Used by experiments
/// that want metrics regardless of env.
#[derive(Debug)]
pub struct MeasureGuard {
    _private: (),
}

/// Live [`MeasureGuard`]s, and whether the first of them installed the ring.
static MEASURING: Mutex<(usize, bool)> = Mutex::new((0, false));

fn measuring() -> std::sync::MutexGuard<'static, (usize, bool)> {
    // Plain counters, consistent at every step: a poisoned lock is usable.
    MEASURING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Drop for MeasureGuard {
    fn drop(&mut self) {
        let mut m = measuring();
        m.0 -= 1;
        if m.0 == 0 && m.1 {
            let _ = install(TraceConfig::off());
        }
    }
}

/// See [`MeasureGuard`].
pub fn measure() -> MeasureGuard {
    let mut m = measuring();
    if m.0 == 0 {
        m.1 = !enabled() && install(TraceConfig::ring()).is_ok();
    }
    m.0 += 1;
    MeasureGuard { _private: () }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dispatch is process-global; tests in this file serialize on
    /// this lock so installs don't race.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_path_emits_nothing_and_scope_yields_none() {
        let _g = guard();
        install(TraceConfig::off()).unwrap();
        assert!(!enabled());
        let scope = run_scope();
        {
            let _span = span(Phase::Round);
            count(Counter::Messages, 7);
            sample(Counter::PeakRssBytes, 3);
        }
        assert_eq!(scope.finish(), None);
        assert!(ring_events().is_empty());
    }

    #[test]
    fn ring_mode_collects_spans_counts_and_rss() {
        let _g = guard();
        install(TraceConfig::ring()).unwrap();
        let scope = run_scope();
        {
            let _span = round_span(Phase::Send, 4);
            count(Counter::Messages, 11);
        }
        sample(Counter::PeakRssBytes, 2);
        sample(Counter::PeakRssBytes, 4);
        let metrics = scope.finish().expect("tracing on");
        assert_eq!(metrics.counter(Counter::Messages), Some(11));
        let send = metrics.phase(Phase::Send).expect("send span recorded");
        assert_eq!(send.count, 1);
        // The samples merge with the RSS snapshot `finish` takes.
        let snapshot = peak_rss_bytes().is_some();
        let rss = metrics.sample(Counter::PeakRssBytes).unwrap();
        assert_eq!((rss.count, rss.min), (2 + u64::from(snapshot), 2));
        assert!(rss.sum >= 6);
        if cfg!(target_os = "linux") {
            assert!(snapshot);
        }
        let events = ring_events();
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Span {
                phase: Phase::Send,
                round: Some(4),
                ..
            }
        )));
        install(TraceConfig::off()).unwrap();
    }

    #[test]
    fn outermost_scope_resets_and_nested_scopes_share_a_window() {
        let _g = guard();
        install(TraceConfig::ring()).unwrap();
        {
            let scope = run_scope();
            count(Counter::Messages, 5);
            let _ = scope.finish();
        }
        let outer = run_scope();
        count(Counter::Messages, 1);
        {
            let inner = run_scope();
            count(Counter::Messages, 2);
            let inner_metrics = inner.finish().unwrap();
            // Inner scope sees the shared window, not a fresh one.
            assert_eq!(inner_metrics.counter(Counter::Messages), Some(3));
        }
        let metrics = outer.finish().unwrap();
        // The earlier finished run (value 5) was reset away.
        assert_eq!(metrics.counter(Counter::Messages), Some(3));
        install(TraceConfig::off()).unwrap();
    }

    #[test]
    fn scopes_on_different_threads_keep_separate_windows() {
        let _g = guard();
        install(TraceConfig::ring()).unwrap();
        let outer = run_scope();
        count(Counter::Messages, 1);
        std::thread::scope(|s| {
            for value in [10, 100] {
                s.spawn(move || {
                    let scope = run_scope();
                    count(Counter::Messages, value);
                    let metrics = scope.finish().unwrap();
                    assert_eq!(metrics.counter(Counter::Messages), Some(value));
                });
            }
        });
        let metrics = outer.finish().unwrap();
        assert_eq!(metrics.counter(Counter::Messages), Some(1));
        install(TraceConfig::off()).unwrap();
    }

    #[test]
    fn span_cancel_suppresses_emission() {
        let _g = guard();
        install(TraceConfig::ring()).unwrap();
        let scope = run_scope();
        span(Phase::Sweep).cancel();
        let metrics = scope.finish().unwrap();
        assert!(metrics.phase(Phase::Sweep).is_none());
        install(TraceConfig::off()).unwrap();
    }

    #[test]
    fn jsonl_mode_writes_parseable_lines() {
        let _g = guard();
        let path =
            std::env::temp_dir().join(format!("deco-trace-lib-test-{}.jsonl", std::process::id()));
        install(TraceConfig::jsonl(&path)).unwrap();
        let scope = run_scope();
        count(Counter::Messages, 3);
        {
            let _span = span(Phase::Round);
        }
        let metrics = scope.finish().unwrap();
        assert_eq!(metrics.counter(Counter::Messages), Some(3));
        install(TraceConfig::off()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() >= 2);
        for line in text.lines() {
            TraceEvent::from_jsonl(line).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn measure_guard_installs_ring_and_restores_off() {
        let _g = guard();
        install(TraceConfig::off()).unwrap();
        {
            let _m = measure();
            assert!(enabled());
            let scope = run_scope();
            count(Counter::Rounds, 9);
            assert_eq!(scope.finish().unwrap().counter(Counter::Rounds), Some(9));
        }
        assert!(!enabled());
    }

    #[test]
    fn overlapping_measure_guards_keep_the_sink_until_the_last_drops() {
        let _g = guard();
        install(TraceConfig::off()).unwrap();
        let first = measure();
        let second = measure();
        drop(first);
        assert!(enabled(), "a live guard keeps tracing on");
        drop(second);
        assert!(!enabled());
    }
}
