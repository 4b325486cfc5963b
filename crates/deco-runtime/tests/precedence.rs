//! Builder-vs-environment precedence: explicit [`RuntimeBuilder`] settings
//! must override each `DECO_ENGINE_THREADS` / `DECO_TRACE` variable
//! *individually*, and a clean environment must select the serial default.
//!
//! Environment variables are process-global, and the test harness runs
//! tests on concurrent threads, so every test that touches the engine
//! variables goes through [`with_env`], which serializes on one mutex and
//! restores the prior environment on exit — including variables the CI
//! matrix itself pins (these tests must pass identically on every CI leg).

use deco_engine::config::{ENV_THREADS, ENV_TRACE};
use deco_engine::ParallelExecutor;
use deco_runtime::{Engine, Runtime, DEFAULT_MAX_ROUNDS};
use std::sync::{Mutex, MutexGuard};

static ENV_LOCK: Mutex<()> = Mutex::new(());

const VARS: [&str; 2] = [ENV_THREADS, ENV_TRACE];

/// Runs `body` with the engine environment set to exactly `vars` (every
/// other engine variable removed), restoring the prior environment after.
fn with_env<T>(vars: &[(&str, &str)], body: impl FnOnce() -> T) -> T {
    let guard: MutexGuard<'_, ()> = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved: Vec<(&str, Option<std::ffi::OsString>)> =
        VARS.iter().map(|&v| (v, std::env::var_os(v))).collect();
    for &v in &VARS {
        std::env::remove_var(v);
    }
    for &(k, val) in vars {
        std::env::set_var(k, val);
    }
    let out = body();
    for (v, val) in saved {
        match val {
            Some(val) => std::env::set_var(v, val),
            None => std::env::remove_var(v),
        }
    }
    drop(guard);
    out
}

#[test]
fn clean_env_selects_the_serial_default() {
    let rt = with_env(&[], || Runtime::from_env().expect("clean env parses"));
    assert_eq!(rt, Runtime::serial());
    assert_eq!(rt.descriptor(), "serial");
    assert_eq!(rt.max_rounds(), DEFAULT_MAX_ROUNDS);
}

#[test]
fn env_alone_selects_each_engine() {
    let rt = with_env(&[(ENV_THREADS, "2")], || Runtime::from_env().unwrap());
    assert_eq!(
        *rt.engine(),
        Engine::Parallel(ParallelExecutor::with_threads(2))
    );
    // An explicitly empty / zero variable still opts into the parallel
    // engine at the hardware-auto width.
    let rt = with_env(&[(ENV_THREADS, "0")], || Runtime::from_env().unwrap());
    assert_eq!(*rt.engine(), Engine::Parallel(ParallelExecutor::auto()));
}

#[test]
fn builder_threads_overrides_env_threads() {
    let rt = with_env(&[(ENV_THREADS, "2")], || {
        Runtime::builder()
            .threads(4)
            .from_env()
            .expect("env parses")
            .build()
    });
    assert_eq!(
        *rt.engine(),
        Engine::Parallel(ParallelExecutor::with_threads(4))
    );
}

#[test]
fn builder_never_reads_an_overridden_malformed_variable() {
    // The overridden variable is malformed, but the builder set it
    // explicitly, so from_env must not even read it…
    let rt = with_env(&[(ENV_THREADS, "three")], || {
        Runtime::builder()
            .threads(2)
            .from_env()
            .expect("overridden variable is never consulted")
            .build()
    });
    assert_eq!(
        *rt.engine(),
        Engine::Parallel(ParallelExecutor::with_threads(2))
    );
    // …while an unset knob with a malformed variable is a structured
    // error naming the variable and the offending value.
    let err = with_env(&[(ENV_THREADS, "three")], || {
        Runtime::builder().from_env().unwrap_err()
    });
    assert_eq!(err.var, ENV_THREADS);
    assert_eq!(err.value, "three");
}

#[test]
fn builder_trace_overrides_env_trace() {
    // The builder pins tracing off, so a malformed DECO_TRACE is never
    // read; the environment still picks the engine.
    let rt = with_env(&[(ENV_TRACE, "verbose"), (ENV_THREADS, "2")], || {
        Runtime::builder()
            .trace(deco_trace::TraceMode::Off)
            .from_env()
            .expect("overridden variable is never consulted")
            .build()
    });
    assert_eq!(
        *rt.engine(),
        Engine::Parallel(ParallelExecutor::with_threads(2))
    );
    // Left to the environment, the same value is a structured error
    // naming the variable (which the binaries turn into exit status 2).
    let err = with_env(&[(ENV_TRACE, "verbose")], || {
        Runtime::from_env().unwrap_err()
    });
    assert_eq!(err.var, ENV_TRACE);
    assert_eq!(err.value, "verbose");
}

#[test]
fn max_rounds_is_builder_policy_not_env() {
    let rt = with_env(&[(ENV_THREADS, "2")], || {
        Runtime::builder()
            .max_rounds(77)
            .from_env()
            .expect("env parses")
            .build()
    });
    assert_eq!(rt.max_rounds(), 77);
    assert_eq!(
        *rt.engine(),
        Engine::Parallel(ParallelExecutor::with_threads(2))
    );
}
