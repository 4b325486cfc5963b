//! Pure parsers for the engine environment variables.
//!
//! CI pins its executor matrix through these variables; the one reader of
//! the environment is `deco_runtime::RuntimeBuilder::from_env`, which
//! layers them under explicit builder settings. This module only names the
//! variables and parses their values:
//!
//! | variable | values | meaning |
//! |---|---|---|
//! | `DECO_ENGINE_THREADS` | unset/empty/`0` = auto, else a thread count | worker threads of the barrier engine |
//! | `DECO_TRACE` | unset/empty/`0`/`off`, `ring`, `jsonl` | trace sink ([`deco_trace`]); `jsonl` writes to `DECO_TRACE_PATH` (default `trace.jsonl`) |
//!
//! Malformed values are **structured errors**, never silent fallbacks and
//! never bare panics: a typo in a CI matrix cell must fail the run with
//! the variable name and the offending value, not quietly un-pin the
//! matrix (the historical behavior was a panic mid-parse; callers now get
//! an [`EngineEnvError`] they can report or escalate themselves).
//!
//! ```
//! use deco_engine::config::parse_threads;
//!
//! // Pure parsers back every variable; malformed input is a value.
//! assert_eq!(parse_threads("4").unwrap(), 4);
//! let err = parse_threads("many").unwrap_err();
//! assert_eq!(err.var, "DECO_ENGINE_THREADS");
//! assert_eq!(err.value, "many");
//! ```

/// `DECO_ENGINE_THREADS` — worker thread count (0 = auto).
pub const ENV_THREADS: &str = "DECO_ENGINE_THREADS";
/// `DECO_TRACE` — trace sink selection (`off` / `ring` / `jsonl`).
pub const ENV_TRACE: &str = "DECO_TRACE";
/// `DECO_TRACE_PATH` — JSONL output path (consumed by `deco-trace` at
/// install time; re-exported here so the env-var surface is listed in one
/// place).
pub const ENV_TRACE_PATH: &str = deco_trace::ENV_TRACE_PATH;

/// A malformed engine environment variable: which variable, what it held,
/// and what it accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineEnvError {
    /// The environment variable that failed to parse.
    pub var: &'static str,
    /// The offending value, verbatim.
    pub value: String,
    /// Human-readable description of the accepted values.
    pub expected: &'static str,
}

impl std::fmt::Display for EngineEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} must be {}, got {:?}",
            self.var, self.expected, self.value
        )
    }
}

impl std::error::Error for EngineEnvError {}

/// Parses a `DECO_ENGINE_THREADS` value: unset callers pass `""`; empty or
/// `0` means auto (returned as 0).
///
/// # Errors
///
/// [`EngineEnvError`] when the value is not a number.
pub fn parse_threads(raw: &str) -> Result<usize, EngineEnvError> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Ok(0);
    }
    raw.parse().map_err(|_| EngineEnvError {
        var: ENV_THREADS,
        value: raw.to_string(),
        expected: "a thread count (0 or empty = auto)",
    })
}

/// Parses a `DECO_TRACE` value: empty, `0`, or `off` = tracing disabled,
/// `ring` = in-memory ring sink, `jsonl` = JSONL file sink.
///
/// # Errors
///
/// [`EngineEnvError`] on anything else.
pub fn parse_trace(raw: &str) -> Result<deco_trace::TraceMode, EngineEnvError> {
    match raw.trim() {
        "" | "0" | "off" => Ok(deco_trace::TraceMode::Off),
        "ring" => Ok(deco_trace::TraceMode::Ring),
        "jsonl" => Ok(deco_trace::TraceMode::Jsonl),
        other => Err(EngineEnvError {
            var: ENV_TRACE,
            value: other.to_string(),
            expected: "off, ring, or jsonl (empty = off)",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_parsing_accepts_auto_spellings() {
        assert_eq!(parse_threads("").unwrap(), 0);
        assert_eq!(parse_threads(" 0 ").unwrap(), 0);
        assert_eq!(parse_threads("8").unwrap(), 8);
    }

    #[test]
    fn malformed_threads_is_an_error_value_not_a_panic() {
        let err = parse_threads("three").unwrap_err();
        assert_eq!(err.var, ENV_THREADS);
        assert_eq!(
            err.to_string(),
            "DECO_ENGINE_THREADS must be a thread count (0 or empty = auto), got \"three\""
        );
    }

    #[test]
    fn trace_parsing_accepts_every_documented_spelling() {
        assert_eq!(parse_trace("").unwrap(), deco_trace::TraceMode::Off);
        assert_eq!(parse_trace("0").unwrap(), deco_trace::TraceMode::Off);
        assert_eq!(parse_trace(" off ").unwrap(), deco_trace::TraceMode::Off);
        assert_eq!(parse_trace("ring").unwrap(), deco_trace::TraceMode::Ring);
        assert_eq!(
            parse_trace("jsonl\n").unwrap(),
            deco_trace::TraceMode::Jsonl
        );
    }

    #[test]
    fn malformed_trace_values_are_structured_errors() {
        // Every malformed shape: wrong word, case drift, numbers other
        // than 0, trailing garbage, file-path-like values.
        for bad in [
            "on",
            "1",
            "true",
            "JSONL",
            "Ring",
            "jsonl,ring",
            "jsonl trace.jsonl",
        ] {
            let err = parse_trace(bad).unwrap_err();
            assert_eq!(err.var, ENV_TRACE, "{bad}");
            assert_eq!(err.value, bad.trim(), "{bad}");
            assert_eq!(err.expected, "off, ring, or jsonl (empty = off)");
            assert_eq!(
                err.to_string(),
                format!(
                    "DECO_TRACE must be off, ring, or jsonl (empty = off), got {:?}",
                    bad.trim()
                )
            );
        }
    }
}
