//! Stable line-JSON encodings for run artifacts: [`RunReport`],
//! [`UpdateReport`], and [`SolveError`] as single flat JSON lines that
//! parse back, in the `deco-trace::json` style (hand-rolled writer, flat
//! objects, canonical field order).
//!
//! This is the report half of the serving wire protocol (`deco-serve`
//! embeds these fields in its response frames), but it stands alone: a
//! report line written to a file reads back with the same codec.
//!
//! A [`RunReport`] is not fully reconstructible from a flat line (the
//! [`CostNode`](deco_local::CostNode) tree and optional trace metrics are
//! nested), so the codec round-trips through explicit wire structs —
//! [`RunReportLine`] and [`UpdateReportLine`] — that carry every
//! *observable* field: colors, rounds, messages, palettes, solver
//! counters, engine attribution, wall time. Two runs are
//! observable-identical iff their lines are equal (modulo the `wall_ns`
//! timing fields, the one legitimately nondeterministic part).
//!
//! ```
//! use deco_core::jsonl::RunReportLine;
//! use deco_core::solver::{solve_two_delta_minus_one, SolverConfig};
//! use deco_graph::generators;
//! use deco_runtime::Runtime;
//!
//! let g = generators::random_regular(20, 4, 3);
//! let ids: Vec<u64> = (1..=20).collect();
//! let report =
//!     solve_two_delta_minus_one(&g, &ids, SolverConfig::default(), &Runtime::serial()).unwrap();
//! let line = RunReportLine::from_report(&report).encode();
//! let parsed = RunReportLine::parse(&line).expect("round-trips");
//! assert_eq!(parsed, RunReportLine::from_report(&report));
//! assert_eq!(parsed.coloring().as_slice(), report.colors.as_slice());
//! ```

use crate::session::UpdateReport;
use crate::solver::{RunReport, SolveError, SolveStats};
use deco_graph::coloring::EdgeColoring;
use deco_graph::EdgeUpdate;
use deco_trace::json::{Fields, ObjectWriter};
use std::time::Duration;

/// The `kind` tag of an encoded [`RunReportLine`].
pub const KIND_RUN_REPORT: &str = "run_report";
/// The `kind` tag of an encoded [`UpdateReportLine`].
pub const KIND_UPDATE_REPORT: &str = "update_report";
/// The `kind` tag of an encoded [`SolveError`].
pub const KIND_SOLVE_ERROR: &str = "solve_error";

/// Every observable field of a [`RunReport`], as flat line-JSON data. The
/// nested cost tree is represented by its total
/// ([`RunReportLine::cost_rounds`]), which together with
/// [`RunReportLine::x_rounds`] preserves the `rounds = x_rounds +
/// cost.actual_rounds()` invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReportLine {
    /// One entry per edge: the color, or `None` for an uncolored edge
    /// (complete solves have none).
    pub colors: Vec<Option<u32>>,
    /// Total charged LOCAL rounds.
    pub rounds: u64,
    /// Total messages delivered (engine-independent).
    pub messages: u64,
    /// The engine descriptor the run is attributed to.
    pub engine: String,
    /// Wall-clock nanoseconds — the only nondeterministic field.
    pub wall_ns: u64,
    /// Palette of the initial `X`-edge-coloring.
    pub x_palette: u32,
    /// Rounds of the initial coloring.
    pub x_rounds: u64,
    /// `actual_rounds()` of the solve's cost tree.
    pub cost_rounds: u64,
    /// Counters of the solver recursion.
    pub stats: SolveStats,
}

impl RunReportLine {
    /// Projects a [`RunReport`] onto its wire line.
    pub fn from_report(report: &RunReport) -> RunReportLine {
        RunReportLine {
            colors: report.colors.as_slice().to_vec(),
            rounds: report.rounds,
            messages: report.messages,
            engine: report.engine_descriptor.clone(),
            wall_ns: duration_ns(report.wall_time),
            x_palette: report.x_palette,
            x_rounds: report.x_rounds,
            cost_rounds: report.cost.actual_rounds(),
            stats: report.solve_stats.clone(),
        }
    }

    /// The colors as an [`EdgeColoring`] (edge ids are positions).
    pub fn coloring(&self) -> EdgeColoring {
        EdgeColoring::from_vec(self.colors.clone())
    }

    /// Writes the fields into an in-progress object, so a wire protocol
    /// can prepend its own framing fields to the same line.
    pub fn write_fields(&self, w: &mut ObjectWriter) {
        w.string("colors", &encode_colors(&self.colors))
            .u64("rounds", self.rounds)
            .u64("messages", self.messages)
            .string("engine", &self.engine)
            .u64("wall_ns", self.wall_ns)
            .u64("x_palette", u64::from(self.x_palette))
            .u64("x_rounds", self.x_rounds)
            .u64("cost_rounds", self.cost_rounds);
        write_stats(w, &self.stats);
    }

    /// Encodes the standalone line: `{"kind":"run_report",...}`.
    pub fn encode(&self) -> String {
        let mut w = ObjectWriter::new();
        w.string("kind", KIND_RUN_REPORT);
        self.write_fields(&mut w);
        w.finish()
    }

    /// Reads the fields back from a parsed object (framing fields from an
    /// embedding protocol are ignored).
    ///
    /// # Errors
    ///
    /// A description naming the missing or mistyped field.
    pub fn from_fields(fields: &Fields) -> Result<RunReportLine, String> {
        Ok(RunReportLine {
            colors: parse_colors(fields.str("colors")?)?,
            rounds: fields.u64("rounds")?,
            messages: fields.u64("messages")?,
            engine: fields.str("engine")?.to_string(),
            wall_ns: fields.u64("wall_ns")?,
            x_palette: parse_u32(fields, "x_palette")?,
            x_rounds: fields.u64("x_rounds")?,
            cost_rounds: fields.u64("cost_rounds")?,
            stats: parse_stats(fields)?,
        })
    }

    /// Parses a standalone line produced by [`RunReportLine::encode`].
    ///
    /// # Errors
    ///
    /// A description of the first syntax or schema problem.
    pub fn parse(line: &str) -> Result<RunReportLine, String> {
        let fields = Fields::parse(line)?;
        expect_kind(&fields, KIND_RUN_REPORT)?;
        RunReportLine::from_fields(&fields)
    }
}

/// An [`UpdateReport`] as flat line-JSON data. Unlike [`RunReportLine`]
/// this is lossless: [`UpdateReportLine::to_report`] rebuilds the exact
/// [`UpdateReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateReportLine {
    /// The applied update.
    pub update: EdgeUpdate,
    /// Edges whose color changed.
    pub recolored: u64,
    /// Palette high-water mark after the update.
    pub palette_max: u32,
    /// The `2Δ − 1` bound of the post-update graph.
    pub palette_bound: u32,
    /// Always `false` (see `UpdateReport::escalated`); kept on the wire.
    pub escalated: bool,
    /// Color-probe messages delivered by the repair.
    pub messages: u64,
    /// Wall-clock nanoseconds — the only nondeterministic field.
    pub wall_ns: u64,
}

impl UpdateReportLine {
    /// Projects an [`UpdateReport`] onto its wire line.
    pub fn from_report(report: &UpdateReport) -> UpdateReportLine {
        UpdateReportLine {
            update: report.update,
            recolored: report.recolored,
            palette_max: report.palette_max,
            palette_bound: report.palette_bound,
            escalated: report.escalated,
            messages: report.messages,
            wall_ns: duration_ns(report.wall_time),
        }
    }

    /// Rebuilds the [`UpdateReport`].
    pub fn to_report(&self) -> UpdateReport {
        UpdateReport {
            update: self.update,
            recolored: self.recolored,
            palette_max: self.palette_max,
            palette_bound: self.palette_bound,
            escalated: self.escalated,
            messages: self.messages,
            wall_time: Duration::from_nanos(self.wall_ns),
        }
    }

    /// Writes the fields into an in-progress object (see
    /// [`RunReportLine::write_fields`]).
    pub fn write_fields(&self, w: &mut ObjectWriter) {
        let (u, v) = self.update.endpoints();
        let op = if self.update.is_insert() {
            "insert"
        } else {
            "remove"
        };
        w.string("op", op)
            .u64("u", u64::from(u.0))
            .u64("v", u64::from(v.0))
            .u64("recolored", self.recolored)
            .u64("palette_max", u64::from(self.palette_max))
            .u64("palette_bound", u64::from(self.palette_bound))
            .bool("escalated", self.escalated)
            .u64("messages", self.messages)
            .u64("wall_ns", self.wall_ns);
    }

    /// Encodes the standalone line: `{"kind":"update_report",...}`.
    pub fn encode(&self) -> String {
        let mut w = ObjectWriter::new();
        w.string("kind", KIND_UPDATE_REPORT);
        self.write_fields(&mut w);
        w.finish()
    }

    /// Reads the fields back from a parsed object.
    ///
    /// # Errors
    ///
    /// A description naming the missing or mistyped field.
    pub fn from_fields(fields: &Fields) -> Result<UpdateReportLine, String> {
        let u = parse_u32(fields, "u")?;
        let v = parse_u32(fields, "v")?;
        let update = match fields.str("op")? {
            "insert" => EdgeUpdate::insert(u, v),
            "remove" => EdgeUpdate::remove(u, v),
            other => return Err(format!("unknown update op {other:?}")),
        };
        Ok(UpdateReportLine {
            update,
            recolored: fields.u64("recolored")?,
            palette_max: parse_u32(fields, "palette_max")?,
            palette_bound: parse_u32(fields, "palette_bound")?,
            escalated: fields.bool("escalated")?,
            messages: fields.u64("messages")?,
            wall_ns: fields.u64("wall_ns")?,
        })
    }

    /// Parses a standalone line produced by [`UpdateReportLine::encode`].
    ///
    /// # Errors
    ///
    /// A description of the first syntax or schema problem.
    pub fn parse(line: &str) -> Result<UpdateReportLine, String> {
        let fields = Fields::parse(line)?;
        expect_kind(&fields, KIND_UPDATE_REPORT)?;
        UpdateReportLine::from_fields(&fields)
    }
}

/// Encodes a [`SolveError`] as `{"kind":"solve_error",...}` — lossless;
/// [`parse_solve_error`] rebuilds the exact value.
pub fn encode_solve_error(err: &SolveError) -> String {
    let mut w = ObjectWriter::new();
    w.string("kind", KIND_SOLVE_ERROR);
    write_solve_error_fields(&mut w, err);
    w.finish()
}

/// Writes a [`SolveError`]'s fields into an in-progress object (see
/// [`RunReportLine::write_fields`]).
pub fn write_solve_error_fields(w: &mut ObjectWriter, err: &SolveError) {
    match *err {
        SolveError::DepthExceeded { depth, limit } => {
            w.string("error", "depth_exceeded")
                .u64("depth", u64::from(depth))
                .u64("limit", u64::from(limit));
        }
    }
}

/// Reads a [`SolveError`] back from a parsed object.
///
/// # Errors
///
/// A description naming the missing or mistyped field.
pub fn solve_error_from_fields(fields: &Fields) -> Result<SolveError, String> {
    match fields.str("error")? {
        "depth_exceeded" => Ok(SolveError::DepthExceeded {
            depth: parse_u32(fields, "depth")?,
            limit: parse_u32(fields, "limit")?,
        }),
        other => Err(format!("unknown solve error {other:?}")),
    }
}

/// Parses a standalone line produced by [`encode_solve_error`].
///
/// # Errors
///
/// A description of the first syntax or schema problem.
pub fn parse_solve_error(line: &str) -> Result<SolveError, String> {
    let fields = Fields::parse(line)?;
    expect_kind(&fields, KIND_SOLVE_ERROR)?;
    solve_error_from_fields(&fields)
}

/// Colors as a compact string: one token per edge, `-` for uncolored,
/// comma-separated (`"3,1,-,0"`); the empty coloring is the empty string.
fn encode_colors(colors: &[Option<u32>]) -> String {
    let mut out = String::with_capacity(colors.len() * 2);
    for (i, c) in colors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match c {
            Some(c) => {
                use std::fmt::Write as _;
                let _ = write!(out, "{c}");
            }
            None => out.push('-'),
        }
    }
    out
}

fn parse_colors(raw: &str) -> Result<Vec<Option<u32>>, String> {
    if raw.is_empty() {
        return Ok(Vec::new());
    }
    raw.split(',')
        .map(|tok| match tok {
            "-" => Ok(None),
            _ => tok
                .parse::<u32>()
                .map(Some)
                .map_err(|_| format!("bad color token {tok:?}")),
        })
        .collect()
}

fn write_stats(w: &mut ObjectWriter, stats: &SolveStats) {
    w.u64("stats_sweeps", stats.sweeps)
        .u64("stats_classes_nonempty", stats.classes_nonempty)
        .u64("stats_classes_total", stats.classes_total)
        .u64("stats_space_reductions", stats.space_reductions)
        .u64("stats_assign_solves", stats.assign_solves)
        .u64("stats_slack_fallbacks", stats.slack_fallbacks)
        .u64("stats_base_cases", stats.base_cases)
        .f64("stats_eq2_worst_ratio", stats.eq2_worst_ratio)
        .u64("stats_max_depth_seen", u64::from(stats.max_depth_seen))
        .u64("stats_messages", stats.messages);
}

fn parse_stats(fields: &Fields) -> Result<SolveStats, String> {
    Ok(SolveStats {
        sweeps: fields.u64("stats_sweeps")?,
        classes_nonempty: fields.u64("stats_classes_nonempty")?,
        classes_total: fields.u64("stats_classes_total")?,
        space_reductions: fields.u64("stats_space_reductions")?,
        assign_solves: fields.u64("stats_assign_solves")?,
        slack_fallbacks: fields.u64("stats_slack_fallbacks")?,
        base_cases: fields.u64("stats_base_cases")?,
        eq2_worst_ratio: fields.f64("stats_eq2_worst_ratio")?,
        max_depth_seen: parse_u32(fields, "stats_max_depth_seen")?,
        messages: fields.u64("stats_messages")?,
    })
}

fn parse_u32(fields: &Fields, key: &str) -> Result<u32, String> {
    u32::try_from(fields.u64(key)?).map_err(|_| format!("field {key:?} out of u32 range"))
}

fn expect_kind(fields: &Fields, kind: &str) -> Result<(), String> {
    let got = fields.str("kind")?;
    if got == kind {
        Ok(())
    } else {
        Err(format!("expected kind {kind:?}, got {got:?}"))
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve_two_delta_minus_one, SolverConfig};
    use deco_graph::generators;
    use deco_runtime::Runtime;

    fn sample_report() -> RunReport {
        let g = generators::random_regular(24, 4, 9);
        let ids: Vec<u64> = (1..=24).collect();
        solve_two_delta_minus_one(&g, &ids, SolverConfig::default(), &Runtime::serial()).unwrap()
    }

    #[test]
    fn run_report_line_round_trips() {
        let report = sample_report();
        let line = RunReportLine::from_report(&report);
        let encoded = line.encode();
        assert!(encoded.starts_with("{\"kind\":\"run_report\""));
        let parsed = RunReportLine::parse(&encoded).unwrap();
        assert_eq!(parsed, line);
        assert_eq!(parsed.coloring().as_slice(), report.colors.as_slice());
        assert_eq!(parsed.rounds, parsed.x_rounds + parsed.cost_rounds);
        // Re-encoding the parsed line is byte-identical: one canonical
        // encoding per report.
        assert_eq!(parsed.encode(), encoded);
    }

    #[test]
    fn run_report_line_keeps_uncolored_edges() {
        let report = sample_report();
        let mut line = RunReportLine::from_report(&report);
        line.colors[3] = None;
        let parsed = RunReportLine::parse(&line.encode()).unwrap();
        assert_eq!(parsed.colors[3], None);
        assert_eq!(parsed, line);
    }

    #[test]
    fn update_report_line_round_trips_losslessly() {
        let reports = [
            UpdateReport {
                update: EdgeUpdate::insert(3u32, 7u32),
                recolored: 1,
                palette_max: 5,
                palette_bound: 7,
                escalated: false,
                messages: 12,
                wall_time: Duration::from_nanos(987_654_321),
            },
            UpdateReport {
                update: EdgeUpdate::remove(0u32, 1u32),
                recolored: 0,
                palette_max: 3,
                palette_bound: 3,
                escalated: true,
                messages: 0,
                wall_time: Duration::ZERO,
            },
        ];
        for report in reports {
            let line = UpdateReportLine::from_report(&report);
            let parsed = UpdateReportLine::parse(&line.encode()).unwrap();
            assert_eq!(parsed, line);
            assert_eq!(parsed.to_report(), report);
        }
    }

    #[test]
    fn solve_errors_round_trip_exactly() {
        let errors = [
            SolveError::DepthExceeded { depth: 9, limit: 8 },
            SolveError::DepthExceeded { depth: 0, limit: 0 },
            SolveError::DepthExceeded {
                depth: u32::MAX,
                limit: 256,
            },
        ];
        for err in errors {
            let line = encode_solve_error(&err);
            assert_eq!(parse_solve_error(&line).unwrap(), err, "{line}");
        }
    }

    #[test]
    fn malformed_lines_are_named_errors() {
        type Parser = fn(&str) -> Option<String>;
        let run: Parser = |l| RunReportLine::parse(l).err();
        let upd: Parser = |l| UpdateReportLine::parse(l).err();
        let sol: Parser = |l| parse_solve_error(l).err();
        for (parse, line, needle) in [
            (run, "nonsense", "expected a JSON object"),
            (run, "{\"kind\":\"other\"}", "expected kind"),
            (run, "{\"kind\":\"run_report\"}", "missing field"),
            (
                upd,
                "{\"kind\":\"update_report\",\"op\":\"warp\",\"u\":0,\"v\":1}",
                "unknown update op",
            ),
            (
                sol,
                "{\"kind\":\"solve_error\",\"error\":\"gremlins\"}",
                "unknown solve error",
            ),
            (
                sol,
                "{\"kind\":\"solve_error\",\"error\":\"shard_failed\",\"shard\":1}",
                "unknown solve error",
            ),
        ] {
            let err = parse(line).expect("parse must fail");
            assert!(err.contains(needle), "line {line:?}: {err}");
        }
    }

    #[test]
    fn colors_codec_handles_empty_and_rejects_garbage() {
        assert_eq!(encode_colors(&[]), "");
        assert_eq!(parse_colors("").unwrap(), Vec::<Option<u32>>::new());
        assert_eq!(parse_colors("1,-,0").unwrap(), vec![Some(1), None, Some(0)]);
        assert!(parse_colors("1,x").unwrap_err().contains("bad color"));
    }
}
