//! Daemon configuration from the environment.
//!
//! Follows the `DECO_ENGINE_*` discipline exactly: every variable has a
//! pure parser, malformed values are [`EngineEnvError`]s (variable name,
//! offending value, accepted forms) rather than silent fallbacks, and the
//! `deco-serve` binary turns them into a stderr line and exit code 2.
//!
//! | variable | values | meaning |
//! |---|---|---|
//! | `DECO_SERVE_ADDR` | `tcp:host:port`, `host:port`, `uds:/path`, `inproc` (default `tcp:127.0.0.1:7401`) | where the daemon listens |
//! | `DECO_SERVE_WORKERS` | unset/empty/`0` = auto, else a worker count | size of the solving worker pool |
//! | `DECO_SERVE_QUEUE` | unset/empty = 64, else a bound ≥ 1 | request queue capacity; excess requests get `queue_full` |
//! | `DECO_SERVE_PROGRESS_MS` | unset/empty = 1000, `0` = off, else milliseconds | period of streamed `progress` frames |
//!
//! The daemon's default engine comes from the `DECO_ENGINE_*` variables
//! through [`Runtime::from_env`]; per-request `engine` descriptors
//! override it.

use crate::transport::ServeAddr;
use deco_runtime::{EngineEnvError, Runtime};
use std::time::Duration;

/// `DECO_SERVE_ADDR` — where the daemon listens.
pub const ENV_ADDR: &str = "DECO_SERVE_ADDR";
/// `DECO_SERVE_WORKERS` — worker pool size (0 = auto).
pub const ENV_WORKERS: &str = "DECO_SERVE_WORKERS";
/// `DECO_SERVE_QUEUE` — request queue bound.
pub const ENV_QUEUE: &str = "DECO_SERVE_QUEUE";
/// `DECO_SERVE_PROGRESS_MS` — progress frame period (0 = off).
pub const ENV_PROGRESS: &str = "DECO_SERVE_PROGRESS_MS";

/// Listen address when `DECO_SERVE_ADDR` is unset.
pub const DEFAULT_ADDR: &str = "tcp:127.0.0.1:7401";
/// Queue bound when `DECO_SERVE_QUEUE` is unset.
pub const DEFAULT_QUEUE: usize = 64;
/// Progress period when `DECO_SERVE_PROGRESS_MS` is unset.
pub const DEFAULT_PROGRESS_MS: u64 = 1_000;

/// Parses `DECO_SERVE_ADDR`.
///
/// # Errors
///
/// [`EngineEnvError`] naming the variable and the accepted forms.
pub fn parse_addr(raw: &str) -> Result<ServeAddr, EngineEnvError> {
    let raw = if raw.is_empty() { DEFAULT_ADDR } else { raw };
    ServeAddr::parse(raw).map_err(|_| EngineEnvError {
        var: ENV_ADDR,
        value: raw.to_string(),
        expected: "tcp:host:port, host:port, uds:/path, or inproc",
    })
}

/// Parses `DECO_SERVE_WORKERS` (`0`/empty = auto).
///
/// # Errors
///
/// [`EngineEnvError`] naming the variable and the accepted forms.
pub fn parse_workers(raw: &str) -> Result<usize, EngineEnvError> {
    if raw.is_empty() {
        return Ok(0);
    }
    raw.parse::<usize>().map_err(|_| EngineEnvError {
        var: ENV_WORKERS,
        value: raw.to_string(),
        expected: "a worker count (0 = auto)",
    })
}

/// Parses `DECO_SERVE_QUEUE` (empty = 64; must be ≥ 1).
///
/// # Errors
///
/// [`EngineEnvError`] naming the variable and the accepted forms.
pub fn parse_queue(raw: &str) -> Result<usize, EngineEnvError> {
    if raw.is_empty() {
        return Ok(DEFAULT_QUEUE);
    }
    match raw.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(EngineEnvError {
            var: ENV_QUEUE,
            value: raw.to_string(),
            expected: "a queue bound >= 1",
        }),
    }
}

/// Parses `DECO_SERVE_PROGRESS_MS` (empty = 1000; `0` = off).
///
/// # Errors
///
/// [`EngineEnvError`] naming the variable and the accepted forms.
pub fn parse_progress_ms(raw: &str) -> Result<u64, EngineEnvError> {
    if raw.is_empty() {
        return Ok(DEFAULT_PROGRESS_MS);
    }
    raw.parse::<u64>().map_err(|_| EngineEnvError {
        var: ENV_PROGRESS,
        value: raw.to_string(),
        expected: "a period in milliseconds (0 = no periodic progress)",
    })
}

/// Everything a [`Server`](crate::server::Server) needs to start.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Where to listen.
    pub addr: ServeAddr,
    /// Worker pool size (`0` = auto: available parallelism, capped at 8).
    pub workers: usize,
    /// Request queue bound (≥ 1).
    pub queue_bound: usize,
    /// Default runtime for requests without an `engine` descriptor.
    pub runtime: Runtime,
    /// Period of streamed `progress` frames (`ZERO` = off).
    pub progress_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: ServeAddr::InProc,
            workers: 0,
            queue_bound: DEFAULT_QUEUE,
            runtime: Runtime::serial(),
            progress_interval: Duration::from_millis(DEFAULT_PROGRESS_MS),
        }
    }
}

impl ServeConfig {
    /// Reads the full configuration from the environment: the
    /// `DECO_SERVE_*` knobs above plus the engine default through
    /// [`Runtime::from_env`].
    ///
    /// # Errors
    ///
    /// The first malformed variable, as a structured [`EngineEnvError`].
    pub fn from_env() -> Result<ServeConfig, EngineEnvError> {
        let get = |var: &'static str| std::env::var(var).unwrap_or_default();
        Ok(ServeConfig {
            addr: parse_addr(&get(ENV_ADDR))?,
            workers: parse_workers(&get(ENV_WORKERS))?,
            queue_bound: parse_queue(&get(ENV_QUEUE))?,
            runtime: Runtime::from_env()?,
            progress_interval: Duration::from_millis(parse_progress_ms(&get(ENV_PROGRESS))?),
        })
    }

    /// The effective worker count: `workers`, or the auto rule when zero.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsers_accept_the_documented_forms() {
        assert_eq!(parse_addr("").unwrap().to_string(), DEFAULT_ADDR);
        assert_eq!(parse_addr("inproc").unwrap(), ServeAddr::InProc);
        assert_eq!(parse_workers("").unwrap(), 0);
        assert_eq!(parse_workers("3").unwrap(), 3);
        assert_eq!(parse_queue("").unwrap(), DEFAULT_QUEUE);
        assert_eq!(parse_queue("1").unwrap(), 1);
        assert_eq!(parse_progress_ms("").unwrap(), DEFAULT_PROGRESS_MS);
        assert_eq!(parse_progress_ms("0").unwrap(), 0);
    }

    #[test]
    fn malformed_values_name_the_variable() {
        let err = parse_addr("gopher:hole").unwrap_err();
        assert_eq!(err.var, ENV_ADDR);
        assert_eq!(err.value, "gopher:hole");
        let err = parse_workers("many").unwrap_err();
        assert_eq!(err.var, ENV_WORKERS);
        let err = parse_queue("0").unwrap_err();
        assert_eq!(err.var, ENV_QUEUE);
        assert_eq!(err.value, "0");
        let err = parse_progress_ms("fast").unwrap_err();
        assert_eq!(err.var, ENV_PROGRESS);
    }

    #[test]
    fn auto_worker_count_is_positive_and_bounded() {
        let cfg = ServeConfig::default();
        let n = cfg.effective_workers();
        assert!((1..=8).contains(&n), "auto workers {n} out of range");
        let pinned = ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        };
        assert_eq!(pinned.effective_workers(), 3);
    }
}
