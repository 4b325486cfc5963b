//! `trace-profile` — where each engine's wall time goes, per phase: the
//! same pipeline run on both engines (serial, barrier) under the trace
//! layer, rendered as one cross-engine per-phase wall-time matrix and one
//! counter matrix from `deco-trace::summary`. Colors, rounds, and messages
//! are re-asserted identical across the lineup inline, so the profile can
//! never drift from a correctness bug silently.

use crate::workloads::ids_for;
use deco_core::solver::{solve_two_delta_minus_one, RunReport, SolverConfig};
use deco_engine::{GraphSpec, IdFlavor, ParallelExecutor, Scenario};
use deco_runtime::Runtime;
use deco_trace::{summary, Counter, Phase};
use std::fmt::Write as _;

/// The fixed engine lineup the profile sweeps.
fn lineup() -> Vec<(&'static str, Runtime)> {
    vec![
        ("serial", Runtime::serial()),
        (
            "barrier(t=2)",
            Runtime::from(ParallelExecutor::with_threads(2)),
        ),
    ]
}

/// Runs the experiment and returns the report.
pub fn run(_rt: &Runtime) -> String {
    let mut out = String::from(
        "# trace-profile — per-phase wall-time breakdown across both engines\n\n\
         One pipeline (Linial + the Theorem 4.1 solver, regular(96,8)) per engine,\n\
         traced end to end; every span, counter, and sample below comes from the\n\
         shared deco-trace layer — no engine carries bespoke stat plumbing.\n\n",
    );
    let _measure = deco_trace::measure();

    let scenario = Scenario::new(
        GraphSpec::RandomRegular { n: 96, d: 8 },
        IdFlavor::Shuffled,
        5,
    );
    let g = scenario.graph();
    let ids = ids_for(&g);
    let cfg = SolverConfig::default();

    let mut runs: Vec<(String, deco_trace::MetricsReport)> = Vec::new();
    let mut baseline: Option<RunReport> = None;
    for (name, rt) in lineup() {
        let report =
            solve_two_delta_minus_one(&g, &ids, cfg, &rt).unwrap_or_else(|e| panic!("{name}: {e}"));
        let metrics = report
            .metrics
            .clone()
            .expect("tracing on: RunReport carries metrics");
        assert!(
            metrics.phase(Phase::Pipeline).is_some(),
            "{name}: pipeline span missing"
        );
        if let Some(serial) = &baseline {
            assert_eq!(serial.colors, report.colors, "{name}: colors diverge");
            assert_eq!(serial.rounds, report.rounds, "{name}: rounds diverge");
            assert_eq!(serial.messages, report.messages, "{name}: messages diverge");
            // The traced message total is engine-uniform too: every engine
            // emits exactly one messages count per execution.
            assert_eq!(
                metrics.counter(Counter::Messages),
                serial.metrics.as_ref().unwrap().counter(Counter::Messages),
                "{name}: traced message totals diverge"
            );
        } else {
            baseline = Some(report);
        }
        runs.push((name.to_string(), metrics));
    }

    out.push_str("## per-phase wall time\n\n");
    out.push_str(&summary::phase_matrix(&runs));
    out.push_str(
        "\nPhases nest (`pipeline` contains everything; `round` contains `send`,\n\
         `deliver`, `receive`) — compare within a level. `—` marks phases an\n\
         engine never enters. `deliver` is the serial runner's own phase; the\n\
         barrier engine shows it too because it hands networks below its\n\
         threading threshold to that runner.\n\n",
    );

    out.push_str("## counters and samples\n\n");
    out.push_str(&summary::counter_matrix(&runs));
    let base = baseline.expect("lineup is non-empty");
    let _ = writeln!(
        out,
        "\nBoth engines agree on colors, rounds ({}), and messages ({}) — the\n\
         profile varies, the observables don't. Wall times are this host's only;\n\
         the structure (which phases dominate) is the portable signal.",
        base.rounds, base.messages
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_covers_both_engines() {
        let r = run(&Runtime::serial());
        assert!(r.contains("per-phase wall time"), "{r}");
        for engine in ["serial", "barrier(t=2)"] {
            assert!(r.contains(engine), "missing {engine}:\n{r}");
        }
        assert!(r.contains("pipeline"), "{r}");
        assert!(r.contains("messages"), "{r}");
    }
}
