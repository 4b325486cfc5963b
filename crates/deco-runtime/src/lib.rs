//! # deco-runtime — one engine handle for both executors
//!
//! The two executors in this workspace are observationally identical —
//! the serial reference runner and the barrier engine promise the same
//! outputs, rounds, messages, and errors for every protocol. This crate
//! puts them behind one value, so no algorithm names a concrete executor
//! type:
//!
//! * [`Engine`] — which executor runs: the serial runner or the barrier
//!   engine.
//! * [`Runtime`] — the handle algorithms take (`fn(..., rt: &Runtime)`):
//!   an [`Engine`] plus cross-cutting run policy (the round budget for
//!   open-ended protocols). [`Runtime::execute`] is the one dispatch, a
//!   `match` on the engine.
//! * [`RuntimeBuilder`] — explicit settings (threads / max-rounds / trace)
//!   layered over the `DECO_ENGINE_THREADS` / `DECO_TRACE` environment:
//!   builder settings always win, unset ones fall back to the
//!   environment ([`RuntimeBuilder::from_env`] is the one place that reads
//!   it, through the pure parsers in [`deco_engine::config`]), and a clean
//!   slate selects the serial reference executor.
//!
//! ```
//! use deco_runtime::{Engine, Runtime};
//!
//! // Explicit: two barrier worker threads.
//! let rt = Runtime::builder().threads(2).build();
//! assert_eq!(rt.descriptor(), "barrier(threads=2)");
//!
//! // A clean builder (and a clean environment) is the serial reference.
//! assert_eq!(*Runtime::builder().build().engine(), Engine::Serial);
//! ```
//!
//! The facade is pure selection — it never changes what runs. The
//! differential suites hold every [`Engine`] arm to bit-identical
//! observables, so swapping arms (or letting the environment pick) is
//! always safe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use deco_engine::config::{self, parse_threads, parse_trace};
use deco_engine::ParallelExecutor;
use deco_local::network::Network;
use deco_local::runner::{self, NodeProgram, Protocol, RunError, RunOutcome};

/// The structured error of a malformed environment variable, returned by
/// [`RuntimeBuilder::from_env`].
pub use deco_engine::config::EngineEnvError;

/// Default round budget for open-ended protocols run through a [`Runtime`]
/// (fixed-schedule protocols compute their own). Far above any plausible
/// run — randomized baselines halt in `O(log n)` expected rounds — while
/// still turning a diverging protocol into a structured
/// [`RunError::RoundLimitExceeded`] instead of a hang.
pub const DEFAULT_MAX_ROUNDS: u64 = 1 << 20;

/// One value that is whichever executor the caller (or the environment)
/// picked; [`Runtime::execute`] dispatches on it — no generics, no trait
/// objects, no `_with` variants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// The serial reference runner ([`deco_local::runner::run`]) — always
    /// available, always correct, and the oracle every other arm is
    /// differentially tested against.
    #[default]
    Serial,
    /// The barrier engine: phase-parallel rounds over degree-balanced
    /// node ranges.
    Parallel(ParallelExecutor),
}

impl From<ParallelExecutor> for Engine {
    fn from(e: ParallelExecutor) -> Engine {
        Engine::Parallel(e)
    }
}

/// The stable one-line engine descriptor, embedded in run reports and
/// experiment table headers and parsed back by the [`std::str::FromStr`]
/// impl:
///
/// * `serial` — the reference executor;
/// * `barrier(threads=2)` / `barrier(threads=auto)` — the barrier engine
///   (`threads=auto` is the hardware default).
///
/// The format is an API: tooling that attributes measurements to engines
/// keys on these strings, and the round-trip test pins them.
impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Serial => f.write_str("serial"),
            Engine::Parallel(e) => match e.threads() {
                0 => f.write_str("barrier(threads=auto)"),
                t => write!(f, "barrier(threads={t})"),
            },
        }
    }
}

/// Error parsing an engine descriptor back into an [`Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescriptorParseError {
    /// The descriptor that failed to parse, verbatim.
    pub descriptor: String,
}

impl std::fmt::Display for DescriptorParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unrecognized engine descriptor {:?} (expected serial or barrier(threads=N))",
            self.descriptor
        )
    }
}

impl std::error::Error for DescriptorParseError {}

impl std::str::FromStr for Engine {
    type Err = DescriptorParseError;

    fn from_str(s: &str) -> Result<Engine, DescriptorParseError> {
        let err = || DescriptorParseError {
            descriptor: s.to_string(),
        };
        if s == "serial" {
            return Ok(Engine::Serial);
        }
        let threads = s
            .strip_prefix("barrier(threads=")
            .and_then(|rest| rest.strip_suffix(')'))
            .ok_or_else(err)?;
        if threads == "auto" {
            return Ok(Engine::Parallel(ParallelExecutor::auto()));
        }
        let threads = threads.parse().ok().filter(|&t| t > 0).ok_or_else(err)?;
        Ok(Engine::Parallel(ParallelExecutor::with_threads(threads)))
    }
}

/// The handle every algorithm and pipeline entry point takes: an
/// [`Engine`] plus cross-cutting run policy. Plain `Copy` data — share it,
/// store it, pass it by reference; it holds no threads or other resources
/// (workers are scoped to each execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runtime {
    engine: Engine,
    max_rounds: u64,
}

impl Runtime {
    /// A runtime on the serial reference executor with default policy.
    pub fn serial() -> Runtime {
        Runtime::new(Engine::Serial)
    }

    /// A runtime on `engine` with default policy.
    pub fn new(engine: Engine) -> Runtime {
        Runtime {
            engine,
            max_rounds: DEFAULT_MAX_ROUNDS,
        }
    }

    /// A fresh [`RuntimeBuilder`] with nothing set.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// The runtime the `DECO_ENGINE_THREADS` / `DECO_TRACE` variables
    /// select — shorthand for `Runtime::builder().from_env()?.build()`. On
    /// a clean environment (none of the variables set) this is the serial
    /// default.
    ///
    /// # Errors
    ///
    /// The [`EngineEnvError`] of the first malformed variable, carrying
    /// the variable name and the offending value verbatim — report it and
    /// bail rather than running on an engine the caller did not pin.
    pub fn from_env() -> Result<Runtime, EngineEnvError> {
        Ok(Runtime::builder().from_env()?.build())
    }

    /// The engine this runtime executes on.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The round budget for open-ended protocols run through this runtime
    /// (randomized baselines and other protocols without a fixed
    /// schedule). Exceeding it is [`RunError::RoundLimitExceeded`].
    pub fn max_rounds(&self) -> u64 {
        self.max_rounds
    }

    /// The stable one-line engine descriptor (see the [`Engine`]
    /// `Display`): embed it in reports and table headers so measurements
    /// stay attributable to the engine that produced them.
    pub fn descriptor(&self) -> String {
        self.engine.to_string()
    }

    /// Runs `protocol` on `net` on this runtime's engine until every node
    /// halts or `max_rounds` is hit. Every engine returns what
    /// [`deco_local::runner::run`] returns.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::RoundLimitExceeded`] exactly when the serial
    /// runner would.
    pub fn execute<P>(
        &self,
        net: &Network<'_>,
        protocol: &P,
        max_rounds: u64,
    ) -> Result<RunOutcome<<P::Program as NodeProgram>::Output>, RunError>
    where
        P: Protocol,
        P::Program: Send,
        <P::Program as NodeProgram>::Msg: Send + Sync,
        <P::Program as NodeProgram>::Output: Send,
    {
        match self.engine {
            Engine::Serial => runner::run(net, protocol, max_rounds),
            Engine::Parallel(e) => e.execute(net, protocol, max_rounds),
        }
    }
}

impl Default for Runtime {
    fn default() -> Runtime {
        Runtime::serial()
    }
}

impl From<Engine> for Runtime {
    fn from(engine: Engine) -> Runtime {
        Runtime::new(engine)
    }
}

impl From<ParallelExecutor> for Runtime {
    fn from(e: ParallelExecutor) -> Runtime {
        Runtime::new(e.into())
    }
}

/// Builds a [`Runtime`] from explicit settings layered over the
/// environment. Each knob is independently tri-state: set by the builder
/// (always wins), set by its environment variable (used when the builder
/// left it unset and [`RuntimeBuilder::from_env`] ran), or absent. A
/// present `threads` selects the barrier engine (0 = hardware auto); an
/// absent one selects the serial reference executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeBuilder {
    threads: Option<usize>,
    max_rounds: Option<u64>,
    trace: Option<deco_trace::TraceMode>,
}

impl RuntimeBuilder {
    /// Requests a worker thread count (0 = hardware auto), selecting the
    /// barrier engine.
    pub fn threads(mut self, threads: usize) -> RuntimeBuilder {
        self.threads = Some(threads);
        self
    }

    /// Sets the round budget for open-ended protocols
    /// ([`Runtime::max_rounds`]).
    pub fn max_rounds(mut self, max_rounds: u64) -> RuntimeBuilder {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Selects the trace sink [`build`](RuntimeBuilder::build) installs
    /// process-globally: [`deco_trace::TraceMode::Off`] (the default — the
    /// zero-cost path), `Ring`, or `Jsonl` (path from `DECO_TRACE_PATH`,
    /// default `trace.jsonl`). Unset builders fall back to the `DECO_TRACE`
    /// environment variable via [`RuntimeBuilder::from_env`].
    pub fn trace(mut self, mode: deco_trace::TraceMode) -> RuntimeBuilder {
        self.trace = Some(mode);
        self
    }

    /// Fills every knob the builder has *not* set from its environment
    /// variable, parsing with the pure parsers of [`deco_engine::config`]:
    /// `DECO_ENGINE_THREADS` and `DECO_TRACE`. This is the only reader of
    /// those variables in the workspace.
    /// Explicit builder settings take precedence variable by variable —
    /// `.threads(4).from_env()` honors `DECO_TRACE` while ignoring
    /// `DECO_ENGINE_THREADS`.
    ///
    /// # Errors
    ///
    /// The [`EngineEnvError`] of the first malformed *consulted* variable
    /// (a variable overridden by the builder is never read, so it cannot
    /// fail the build).
    pub fn from_env(mut self) -> Result<RuntimeBuilder, EngineEnvError> {
        fn fill<T>(
            slot: &mut Option<T>,
            var: &'static str,
            parse: impl Fn(&str) -> Result<T, EngineEnvError>,
        ) -> Result<(), EngineEnvError> {
            if slot.is_none() {
                if let Some(raw) = std::env::var_os(var) {
                    *slot = Some(parse(&raw.to_string_lossy())?);
                }
            }
            Ok(())
        }
        fill(&mut self.threads, config::ENV_THREADS, parse_threads)?;
        fill(&mut self.trace, config::ENV_TRACE, parse_trace)?;
        Ok(self)
    }

    /// Builds the runtime (see the type-level docs for the selection
    /// rules).
    pub fn build(self) -> Runtime {
        // The one place that turns the thread request into a concrete
        // executor.
        let engine = match self.threads {
            None => Engine::Serial,
            Some(0) => Engine::Parallel(ParallelExecutor::auto()),
            Some(t) => Engine::Parallel(ParallelExecutor::with_threads(t)),
        };
        // Tracing is a process-global sink, not per-runtime state (the
        // Runtime stays Copy). Only an *explicit* selection touches the
        // global — a builder with no trace knob leaves whatever sink a
        // caller installed directly via deco_trace::install in place.
        if let Some(mode) = self.trace {
            if let Err(err) = deco_trace::install(deco_trace::TraceConfig::from_mode(mode)) {
                eprintln!("warning: could not install {mode} trace sink: {err}");
            }
        }
        Runtime {
            engine,
            max_rounds: self.max_rounds.unwrap_or(DEFAULT_MAX_ROUNDS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_is_the_serial_default() {
        let rt = Runtime::builder().build();
        assert_eq!(rt, Runtime::serial());
        assert_eq!(rt.descriptor(), "serial");
        assert_eq!(rt.max_rounds(), DEFAULT_MAX_ROUNDS);
    }

    #[test]
    fn builder_selects_engines_from_present_knobs() {
        assert_eq!(
            *Runtime::builder().threads(3).build().engine(),
            Engine::Parallel(ParallelExecutor::with_threads(3))
        );
        // threads=0 is an explicit request for the parallel auto engine,
        // not the serial default.
        assert_eq!(
            *Runtime::builder().threads(0).build().engine(),
            Engine::Parallel(ParallelExecutor::auto())
        );
    }

    #[test]
    fn builder_installs_and_uninstalls_the_trace_sink() {
        // Process-global: this test owns the sink for its duration (the
        // other tests in this file never set a trace knob, so they don't
        // touch it).
        assert!(!deco_trace::enabled());
        let rt = Runtime::builder()
            .trace(deco_trace::TraceMode::Ring)
            .build();
        assert!(deco_trace::enabled());
        assert_eq!(rt.descriptor(), "serial"); // trace knob never selects an engine
        let _ = Runtime::builder().build();
        assert!(
            deco_trace::enabled(),
            "trace-less builder leaves the sink alone"
        );
        let _ = Runtime::builder().trace(deco_trace::TraceMode::Off).build();
        assert!(!deco_trace::enabled());
    }

    #[test]
    fn descriptors_are_stable() {
        assert_eq!(Engine::Serial.to_string(), "serial");
        assert_eq!(
            Engine::Parallel(ParallelExecutor::auto()).to_string(),
            "barrier(threads=auto)"
        );
        assert_eq!(
            Engine::Parallel(ParallelExecutor::with_threads(2)).to_string(),
            "barrier(threads=2)"
        );
    }

    #[test]
    fn descriptors_round_trip() {
        let lineup = [
            Engine::Serial,
            Engine::Parallel(ParallelExecutor::auto()),
            Engine::Parallel(ParallelExecutor::with_threads(1)),
            Engine::Parallel(ParallelExecutor::with_threads(2)),
            Engine::Parallel(ParallelExecutor::with_threads(4)),
        ];
        for engine in lineup {
            let descriptor = engine.to_string();
            let parsed: Engine = descriptor.parse().expect("descriptor parses");
            assert_eq!(parsed, engine, "{descriptor} must round-trip");
        }
    }

    #[test]
    fn malformed_descriptors_are_errors() {
        for bad in [
            "",
            "Serial",
            "serial()",
            "barrier",
            "barrier()",
            "barrier(threads=0)",
            "barrier(threads=two)",
            "turbo(threads=2)",
            "sharded(threads=2)",
            "sharded(shards=0,threads=1)",
            "sharded(shards=2,threads=0)",
            "sharded(threads=1,shards=2)",
            "sharded(shards=2,threads=1,transport=channel)",
            "sharded(shards=2,threads=1)",
            "async(threads=2)",
            "async(threads=auto)",
        ] {
            let err = bad.parse::<Engine>().unwrap_err();
            assert_eq!(err.descriptor, bad);
            assert!(err.to_string().contains("descriptor"), "{err}");
            assert!(
                err.to_string()
                    .ends_with("(expected serial or barrier(threads=N))"),
                "{err}"
            );
        }
    }

    #[test]
    fn runtime_from_concrete_executors() {
        assert_eq!(Runtime::from(Engine::Serial), Runtime::serial());
        assert_eq!(
            *Runtime::from(ParallelExecutor::with_threads(2)).engine(),
            Engine::Parallel(ParallelExecutor::with_threads(2))
        );
    }

    #[test]
    fn runtime_executes_on_every_arm() {
        use deco_engine::protocols::FloodMax;
        use deco_graph::generators;
        use deco_local::network::IdAssignment;

        let g = generators::cycle(24);
        let net = Network::new(&g, IdAssignment::Shuffled(3));
        let oracle = runner::run(&net, &FloodMax { radius: 3 }, 20).unwrap();
        for rt in [
            Runtime::serial(),
            Runtime::from(ParallelExecutor::with_threads(2)),
        ] {
            let out = rt.execute(&net, &FloodMax { radius: 3 }, 20).unwrap();
            assert_eq!(out.outputs, oracle.outputs, "{}", rt.descriptor());
            assert_eq!(out.rounds, oracle.rounds, "{}", rt.descriptor());
            assert_eq!(out.messages, oracle.messages, "{}", rt.descriptor());
        }
    }
}
