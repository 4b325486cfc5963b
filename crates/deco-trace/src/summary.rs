//! Rendering of [`MetricsReport`]s into aligned text tables.
//!
//! The `trace-profile` experiment's cross-engine matrices render here. The
//! aligner is internal (deco-trace sits below deco-bench and cannot use its
//! `Table`).

use crate::event::{Counter, Phase};
use crate::metrics::MetricsReport;

/// Formats nanoseconds with an adaptive unit (ns / µs / ms / s).
pub fn fmt_nanos(nanos: u64) -> String {
    if nanos < 10_000 {
        format!("{nanos} ns")
    } else if nanos < 10_000_000 {
        format!("{:.1} µs", nanos as f64 / 1e3)
    } else if nanos < 10_000_000_000 {
        format!("{:.1} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

/// Renders rows as a markdown-pipe table with aligned columns; the first
/// row is the header.
fn render(rows: &[Vec<String>]) -> String {
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        out.push('|');
        for (i, width) in widths.iter().enumerate() {
            let cell = row.get(i).map(String::as_str).unwrap_or("");
            let pad = width - cell.chars().count();
            out.push(' ');
            out.push_str(cell);
            out.extend(std::iter::repeat_n(' ', pad + 1));
            out.push('|');
        }
        out.push('\n');
        if r == 0 {
            out.push('|');
            for width in &widths {
                out.push_str(&"-".repeat(width + 2));
                out.push('|');
            }
            out.push('\n');
        }
    }
    out
}

/// Renders a cross-engine per-phase wall-time matrix: one row per phase
/// that any run touched, one column per named run. This is the
/// `trace-profile` experiment's main table.
pub fn phase_matrix(runs: &[(String, MetricsReport)]) -> String {
    let mut header = vec!["phase".to_string()];
    header.extend(runs.iter().map(|(name, _)| name.clone()));
    let mut rows = vec![header];
    for phase in Phase::ALL {
        if !runs.iter().any(|(_, m)| m.phase(phase).is_some()) {
            continue;
        }
        let mut row = vec![phase.to_string()];
        for (_, metrics) in runs {
            row.push(match metrics.phase(phase) {
                Some(stat) => fmt_nanos(stat.total_nanos),
                None => "—".to_string(),
            });
        }
        rows.push(row);
    }
    render(&rows)
}

/// Renders a cross-engine counter matrix: one row per counter that any run
/// touched (totals, and sample means shown as `mean (max)`).
pub fn counter_matrix(runs: &[(String, MetricsReport)]) -> String {
    let mut header = vec!["counter".to_string()];
    header.extend(runs.iter().map(|(name, _)| name.clone()));
    let mut rows = vec![header];
    for counter in Counter::ALL {
        let touched = runs
            .iter()
            .any(|(_, m)| m.counter(counter).is_some() || m.sample(counter).is_some());
        if !touched {
            continue;
        }
        let mut row = vec![counter.to_string()];
        for (_, metrics) in runs {
            row.push(if let Some(total) = metrics.counter(counter) {
                total.to_string()
            } else if let Some(stat) = metrics.sample(counter) {
                format!("{:.2} (max {})", stat.mean(), stat.max)
            } else {
                "—".to_string()
            });
        }
        rows.push(row);
    }
    render(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CounterStat, PhaseStat, SampleStat};

    fn sample_report() -> MetricsReport {
        MetricsReport {
            phases: vec![
                PhaseStat {
                    phase: Phase::Round,
                    count: 4,
                    total_nanos: 40_000,
                },
                PhaseStat {
                    phase: Phase::Send,
                    count: 4,
                    total_nanos: 8_000,
                },
            ],
            counters: vec![CounterStat {
                counter: Counter::Messages,
                value: 128,
            }],
            samples: vec![SampleStat {
                counter: Counter::PeakRssBytes,
                count: 10,
                sum: 25,
                min: 1,
                max: 4,
            }],
        }
    }

    #[test]
    fn fmt_nanos_picks_units() {
        assert_eq!(fmt_nanos(999), "999 ns");
        assert_eq!(fmt_nanos(40_000), "40.0 µs");
        assert_eq!(fmt_nanos(12_000_000), "12.0 ms");
        assert_eq!(fmt_nanos(12_000_000_000), "12.00 s");
    }

    #[test]
    fn matrices_align_runs_side_by_side() {
        let runs = vec![
            ("serial".to_string(), sample_report()),
            ("barrier".to_string(), MetricsReport::default()),
        ];
        let phases = phase_matrix(&runs);
        assert!(phases.contains("serial"), "{phases}");
        assert!(phases.contains("barrier"), "{phases}");
        assert!(phases.contains('—'), "{phases}");
        let counters = counter_matrix(&runs);
        assert!(counters.contains("messages"), "{counters}");
        assert!(counters.contains("2.50 (max 4)"), "{counters}");
    }
}
