//! Schema validator for trace JSONL files.
//!
//! Parses every line of the given file back into the [`TraceEvent`] enum
//! and prints per-kind counts. Exit 0 when every line validates, exit 1 on
//! the first invalid line (named by line number) or an empty file, exit 2
//! on usage or I/O errors. CI's `trace-smoke` job runs this against the
//! `TRACE_<sha>.jsonl` artifact.

use deco_trace::TraceEvent;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(path), None) = (args.next(), args.next()) else {
        eprintln!("usage: trace-validate <trace.jsonl>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("trace-validate: cannot read {path}: {err}");
            return ExitCode::from(2);
        }
    };
    let mut total = 0u64;
    let mut spans = 0u64;
    let mut counts = 0u64;
    let mut samples = 0u64;
    for (i, line) in text.lines().enumerate() {
        match TraceEvent::from_jsonl(line) {
            Ok(TraceEvent::Span { .. }) => spans += 1,
            Ok(TraceEvent::Count { .. }) => counts += 1,
            Ok(TraceEvent::Sample { .. }) => samples += 1,
            Err(err) => {
                eprintln!("trace-validate: {path}:{}: {err}", i + 1);
                return ExitCode::from(1);
            }
        }
        total += 1;
    }
    if total == 0 {
        eprintln!("trace-validate: {path} is empty (no events emitted)");
        return ExitCode::from(1);
    }
    println!("{path}: {total} events valid ({spans} spans, {counts} counts, {samples} samples)");
    ExitCode::SUCCESS
}
