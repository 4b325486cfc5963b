//! The serving wire protocol: newline-delimited flat JSON frames.
//!
//! Every frame is one line, one flat JSON object, round-trip parseable by
//! `deco_trace::json::parse_object` — the same discipline as the trace
//! sink and the bench record files, so any line a daemon ever emits can be
//! re-read by the tools already in the repo. Requests carry a
//! client-chosen `id` that the daemon echoes on every frame it emits for
//! that request, which is what lets one connection interleave progress
//! events with terminal responses.
//!
//! Request lines (`"req"` discriminator): `solve`, `open_session`,
//! `update`, `close_session`, `status`, `ping`, `shutdown`. Response
//! lines (`"resp"` discriminator): `report`, `session_opened`, `updated`,
//! `session_closed`, `status`, `pong`, `progress`, `error`,
//! `shutting_down`. Reports embed the [`RunReportLine`] /
//! [`UpdateReportLine`] fields flat in the frame (the codecs tolerate the
//! extra framing keys), so a response line minus its framing fields *is*
//! a valid report artifact line.
//!
//! ## Logical frame accounting
//!
//! [`ResponseFrame::wire_cost`] is the length of the frame's *canonical*
//! encoding — the encoding with the volatile fields (wall times, queue
//! waits, progress elapsed, live queue depths) zeroed. Both ends count
//! frames once per logical line and bytes at canonical cost, which makes
//! the accounting bit-identical whether a request travels over TCP, a
//! Unix socket, or the in-process test transport.

use deco_core::jsonl::{
    solve_error_from_fields, write_solve_error_fields, RunReportLine, UpdateReportLine,
};
use deco_core::SolveError;
use deco_graph::{EdgeUpdate, Graph, GraphBuilder};
use deco_trace::json::{Fields, ObjectWriter};
use std::path::PathBuf;

/// Where a request's graph comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSource {
    /// An inline edge list on `nodes` nodes; node ids are `1..=nodes`.
    Inline {
        /// Number of nodes (isolated nodes allowed).
        nodes: usize,
        /// Endpoint pairs, in the edge order the report's colors index.
        edges: Vec<(u32, u32)>,
    },
    /// A `DECOSNAP` binary snapshot on the daemon's filesystem.
    Snapshot(PathBuf),
}

impl GraphSource {
    /// Captures a built graph as an inline source (edge-id order is
    /// preserved, so the daemon rebuilds the identical graph).
    pub fn from_graph(g: &Graph) -> GraphSource {
        GraphSource::Inline {
            nodes: g.num_nodes(),
            edges: g
                .edges()
                .map(|e| {
                    let [u, v] = g.endpoints(e);
                    (u.0, v.0)
                })
                .collect(),
        }
    }

    /// Materializes the graph: builds the inline edge list or reads the
    /// snapshot file.
    ///
    /// # Errors
    ///
    /// A description of the invalid edge or unreadable snapshot.
    pub fn load(&self) -> Result<Graph, String> {
        match self {
            GraphSource::Inline { nodes, edges } => {
                let mut b = GraphBuilder::with_capacity(*nodes, edges.len());
                for &(u, v) in edges {
                    b.try_add_edge(u.into(), v.into())
                        .map_err(|e| format!("bad edge ({u}, {v}): {e}"))?;
                }
                b.build().map_err(|e| e.to_string())
            }
            GraphSource::Snapshot(path) => deco_graph::io::read_snapshot_file(path)
                .map_err(|e| format!("cannot read snapshot {}: {e}", path.display())),
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// One-shot solve of a graph; the terminal response is `report`.
    Solve {
        /// The graph to color.
        graph: GraphSource,
        /// Per-request engine descriptor (`"serial"`,
        /// `"barrier(threads=2)"`, …); `None` uses the daemon default.
        engine: Option<String>,
        /// Ask for streamed `progress` frames while the solve runs.
        progress: bool,
    },
    /// Opens a named churn session (solves the base graph); terminal
    /// response is `session_opened`.
    OpenSession {
        /// Client-chosen session name, unique per daemon.
        session: String,
        /// The base graph.
        graph: GraphSource,
        /// Per-session engine descriptor; `None` uses the daemon default.
        engine: Option<String>,
    },
    /// Applies one edge update to an open session; terminal response is
    /// `updated`.
    Update {
        /// The session to update.
        session: String,
        /// The update to apply.
        update: EdgeUpdate,
    },
    /// Closes a session; terminal response is `session_closed`.
    CloseSession {
        /// The session to close.
        session: String,
    },
    /// Asks for a `status` snapshot (answered inline, never queued).
    Status,
    /// Liveness probe; the worker sleeps `delay_ms` before answering
    /// `pong` — the artificial-load knob the queue tests use.
    Ping {
        /// Milliseconds the worker holds the request.
        delay_ms: u64,
    },
    /// Asks the daemon to drain in-flight work and exit; terminal
    /// response is `shutting_down`, sent after the queue is empty.
    Shutdown,
}

/// A request line: client-chosen `id` plus the request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFrame {
    /// Echoed verbatim on every response frame for this request.
    pub id: String,
    /// The request itself.
    pub req: Request,
}

impl RequestFrame {
    /// Encodes the frame as its canonical single line (no newline).
    pub fn encode(&self) -> String {
        let mut w = ObjectWriter::new();
        w.string("id", &self.id);
        match &self.req {
            Request::Solve {
                graph,
                engine,
                progress,
            } => {
                w.string("req", "solve");
                write_graph(&mut w, graph);
                if let Some(engine) = engine {
                    w.string("engine", engine);
                }
                if *progress {
                    w.bool("progress", true);
                }
            }
            Request::OpenSession {
                session,
                graph,
                engine,
            } => {
                w.string("req", "open_session").string("session", session);
                write_graph(&mut w, graph);
                if let Some(engine) = engine {
                    w.string("engine", engine);
                }
            }
            Request::Update { session, update } => {
                let (u, v) = update.endpoints();
                w.string("req", "update")
                    .string("session", session)
                    .string(
                        "op",
                        if update.is_insert() {
                            "insert"
                        } else {
                            "remove"
                        },
                    )
                    .u64("u", u64::from(u.0))
                    .u64("v", u64::from(v.0));
            }
            Request::CloseSession { session } => {
                w.string("req", "close_session").string("session", session);
            }
            Request::Status => {
                w.string("req", "status");
            }
            Request::Ping { delay_ms } => {
                w.string("req", "ping");
                if *delay_ms > 0 {
                    w.u64("delay_ms", *delay_ms);
                }
            }
            Request::Shutdown => {
                w.string("req", "shutdown");
            }
        }
        w.finish()
    }

    /// Parses a request line.
    ///
    /// # Errors
    ///
    /// A description of the first syntax or schema problem — the daemon
    /// wraps it in a `malformed` error frame.
    pub fn parse(line: &str) -> Result<RequestFrame, String> {
        let fields = Fields::parse(line)?;
        let id = fields.str("id")?.to_string();
        let req = match fields.str("req")? {
            "solve" => Request::Solve {
                graph: parse_graph(&fields)?,
                engine: fields.opt_str("engine")?.map(str::to_string),
                progress: opt_bool(&fields, "progress")?,
            },
            "open_session" => Request::OpenSession {
                session: fields.str("session")?.to_string(),
                graph: parse_graph(&fields)?,
                engine: fields.opt_str("engine")?.map(str::to_string),
            },
            "update" => {
                let u = u32_field(&fields, "u")?;
                let v = u32_field(&fields, "v")?;
                let update = match fields.str("op")? {
                    "insert" => EdgeUpdate::insert(u, v),
                    "remove" => EdgeUpdate::remove(u, v),
                    other => return Err(format!("unknown update op {other:?}")),
                };
                Request::Update {
                    session: fields.str("session")?.to_string(),
                    update,
                }
            }
            "close_session" => Request::CloseSession {
                session: fields.str("session")?.to_string(),
            },
            "status" => Request::Status,
            "ping" => Request::Ping {
                delay_ms: fields.opt_u64("delay_ms")?.unwrap_or(0),
            },
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown request {other:?}")),
        };
        Ok(RequestFrame { id, req })
    }
}

/// Structured error category of an `error` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line did not parse or failed schema validation.
    Malformed,
    /// The bounded request queue was full; retry later.
    QueueFull,
    /// The daemon is draining for shutdown and accepts no new work.
    Draining,
    /// The named session does not exist on this connection.
    UnknownSession,
    /// The solver failed; the frame embeds the [`SolveError`] fields.
    Solve,
    /// The request's graph could not be built or read.
    Graph,
    /// A worker panicked; the daemon survived and the request did not.
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::Draining => "draining",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::Solve => "solve",
            ErrorCode::Graph => "graph",
            ErrorCode::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> Result<ErrorCode, String> {
        Ok(match s {
            "malformed" => ErrorCode::Malformed,
            "queue_full" => ErrorCode::QueueFull,
            "draining" => ErrorCode::Draining,
            "unknown_session" => ErrorCode::UnknownSession,
            "solve" => ErrorCode::Solve,
            "graph" => ErrorCode::Graph,
            "internal" => ErrorCode::Internal,
            other => return Err(format!("unknown error code {other:?}")),
        })
    }
}

/// A `status` snapshot of the daemon.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaemonStatus {
    /// Worker pool size.
    pub workers: u64,
    /// Request queue bound.
    pub queue_bound: u64,
    /// Requests queued right now (volatile; canonically zero).
    pub queued: u64,
    /// Requests executing right now (volatile; canonically zero).
    pub active: u64,
    /// Open sessions.
    pub sessions: u64,
    /// Terminal responses sent — completed requests, including
    /// error-refused ones.
    pub served: u64,
    /// Error frames emitted.
    pub errors: u64,
    /// Deepest the queue has been (volatile; canonically zero).
    pub max_queue_depth: u64,
    /// Logical request frames received.
    pub frames_in: u64,
    /// Logical response frames sent.
    pub frames_out: u64,
    /// Request bytes received (actual line bytes + newline).
    pub bytes_in: u64,
    /// Response bytes sent, at canonical cost (see module docs).
    pub bytes_out: u64,
    /// The daemon's default engine descriptor.
    pub engine: String,
    /// Whether a shutdown drain is in progress.
    pub draining: bool,
}

/// A daemon response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Terminal response to `solve`.
    Report {
        /// Nanoseconds the request waited in the queue (volatile).
        queue_ns: u64,
        /// The run report.
        line: RunReportLine,
    },
    /// Terminal response to `open_session`: the base solve's report.
    SessionOpened {
        /// The session name, echoed.
        session: String,
        /// Nanoseconds the request waited in the queue (volatile).
        queue_ns: u64,
        /// The base solve's report.
        line: RunReportLine,
    },
    /// Terminal response to `update`.
    Updated {
        /// The session name, echoed.
        session: String,
        /// Nanoseconds the request waited in the queue (volatile).
        queue_ns: u64,
        /// The update report.
        line: UpdateReportLine,
    },
    /// Terminal response to `close_session`.
    SessionClosed {
        /// The session name, echoed.
        session: String,
        /// Updates the session applied over its lifetime.
        updates: u64,
    },
    /// Terminal response to `status`.
    Status(DaemonStatus),
    /// Terminal response to `ping`.
    Pong,
    /// Streamed while a `progress: true` solve runs; never terminal.
    Progress {
        /// What the worker is doing (`"solve"`, `"open_session"`, …).
        phase: String,
        /// Milliseconds since execution started (volatile).
        elapsed_ms: u64,
    },
    /// Terminal response to any failed request.
    Error {
        /// The category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// The structured solver failure, when `code` is
        /// [`ErrorCode::Solve`].
        solve: Option<SolveError>,
    },
    /// Terminal response to `shutdown`, sent after the drain completes.
    ShuttingDown {
        /// Requests served over the daemon's lifetime.
        served: u64,
    },
}

impl Response {
    /// Extracts the run report from a `report` or `session_opened`
    /// response.
    ///
    /// # Errors
    ///
    /// The error frame's message, or a description of the unexpected
    /// response.
    pub fn into_report(self) -> Result<RunReportLine, String> {
        match self {
            Response::Report { line, .. } | Response::SessionOpened { line, .. } => Ok(line),
            Response::Error { code, message, .. } => Err(format!("{}: {message}", code.as_str())),
            other => Err(format!("expected a report response, got {other:?}")),
        }
    }

    /// Extracts the update report from an `updated` response.
    ///
    /// # Errors
    ///
    /// The error frame's message, or a description of the unexpected
    /// response.
    pub fn into_update(self) -> Result<UpdateReportLine, String> {
        match self {
            Response::Updated { line, .. } => Ok(line),
            Response::Error { code, message, .. } => Err(format!("{}: {message}", code.as_str())),
            other => Err(format!("expected an updated response, got {other:?}")),
        }
    }
}

/// A response line: the echoed request `id` plus the response.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// The request id this frame answers (empty when the request line was
    /// too malformed to carry one).
    pub id: String,
    /// The response itself.
    pub resp: Response,
}

impl ResponseFrame {
    /// Whether this frame completes its request (everything except
    /// `progress`).
    pub fn is_terminal(&self) -> bool {
        !matches!(self.resp, Response::Progress { .. })
    }

    /// Encodes the frame as its canonical single line (no newline).
    pub fn encode(&self) -> String {
        let mut w = ObjectWriter::new();
        w.string("id", &self.id);
        match &self.resp {
            Response::Report { queue_ns, line } => {
                w.string("resp", "report").u64("queue_ns", *queue_ns);
                line.write_fields(&mut w);
            }
            Response::SessionOpened {
                session,
                queue_ns,
                line,
            } => {
                w.string("resp", "session_opened")
                    .string("session", session)
                    .u64("queue_ns", *queue_ns);
                line.write_fields(&mut w);
            }
            Response::Updated {
                session,
                queue_ns,
                line,
            } => {
                w.string("resp", "updated")
                    .string("session", session)
                    .u64("queue_ns", *queue_ns);
                line.write_fields(&mut w);
            }
            Response::SessionClosed { session, updates } => {
                w.string("resp", "session_closed")
                    .string("session", session)
                    .u64("updates", *updates);
            }
            Response::Status(s) => {
                w.string("resp", "status")
                    .u64("workers", s.workers)
                    .u64("queue_bound", s.queue_bound)
                    .u64("queued", s.queued)
                    .u64("active", s.active)
                    .u64("sessions", s.sessions)
                    .u64("served", s.served)
                    .u64("errors", s.errors)
                    .u64("max_queue_depth", s.max_queue_depth)
                    .u64("frames_in", s.frames_in)
                    .u64("frames_out", s.frames_out)
                    .u64("bytes_in", s.bytes_in)
                    .u64("bytes_out", s.bytes_out)
                    .string("engine", &s.engine)
                    .bool("draining", s.draining);
            }
            Response::Pong => {
                w.string("resp", "pong");
            }
            Response::Progress { phase, elapsed_ms } => {
                w.string("resp", "progress")
                    .string("phase", phase)
                    .u64("elapsed_ms", *elapsed_ms);
            }
            Response::Error {
                code,
                message,
                solve,
            } => {
                w.string("resp", "error")
                    .string("code", code.as_str())
                    .string("message", message);
                if let Some(err) = solve {
                    write_solve_error_fields(&mut w, err);
                }
            }
            Response::ShuttingDown { served } => {
                w.string("resp", "shutting_down").u64("served", *served);
            }
        }
        w.finish()
    }

    /// Parses a response line.
    ///
    /// # Errors
    ///
    /// A description of the first syntax or schema problem.
    pub fn parse(line: &str) -> Result<ResponseFrame, String> {
        let fields = Fields::parse(line)?;
        let id = fields.str("id")?.to_string();
        let resp = match fields.str("resp")? {
            "report" => Response::Report {
                queue_ns: fields.u64("queue_ns")?,
                line: RunReportLine::from_fields(&fields)?,
            },
            "session_opened" => Response::SessionOpened {
                session: fields.str("session")?.to_string(),
                queue_ns: fields.u64("queue_ns")?,
                line: RunReportLine::from_fields(&fields)?,
            },
            "updated" => Response::Updated {
                session: fields.str("session")?.to_string(),
                queue_ns: fields.u64("queue_ns")?,
                line: UpdateReportLine::from_fields(&fields)?,
            },
            "session_closed" => Response::SessionClosed {
                session: fields.str("session")?.to_string(),
                updates: fields.u64("updates")?,
            },
            "status" => Response::Status(DaemonStatus {
                workers: fields.u64("workers")?,
                queue_bound: fields.u64("queue_bound")?,
                queued: fields.u64("queued")?,
                active: fields.u64("active")?,
                sessions: fields.u64("sessions")?,
                served: fields.u64("served")?,
                errors: fields.u64("errors")?,
                max_queue_depth: fields.u64("max_queue_depth")?,
                frames_in: fields.u64("frames_in")?,
                frames_out: fields.u64("frames_out")?,
                bytes_in: fields.u64("bytes_in")?,
                bytes_out: fields.u64("bytes_out")?,
                engine: fields.str("engine")?.to_string(),
                draining: fields.bool("draining")?,
            }),
            "pong" => Response::Pong,
            "progress" => Response::Progress {
                phase: fields.str("phase")?.to_string(),
                elapsed_ms: fields.u64("elapsed_ms")?,
            },
            "error" => Response::Error {
                code: ErrorCode::from_str(fields.str("code")?)?,
                message: fields.str("message")?.to_string(),
                solve: if fields.get("error").is_some() {
                    Some(solve_error_from_fields(&fields)?)
                } else {
                    None
                },
            },
            "shutting_down" => Response::ShuttingDown {
                served: fields.u64("served")?,
            },
            other => return Err(format!("unknown response {other:?}")),
        };
        Ok(ResponseFrame { id, resp })
    }

    /// The frame with every volatile field zeroed — the encoding both
    /// ends charge to the byte counters (see module docs).
    pub fn canonical(&self) -> ResponseFrame {
        let mut c = self.clone();
        match &mut c.resp {
            Response::Report { queue_ns, line } => {
                *queue_ns = 0;
                line.wall_ns = 0;
            }
            Response::SessionOpened { queue_ns, line, .. } => {
                *queue_ns = 0;
                line.wall_ns = 0;
            }
            Response::Updated { queue_ns, line, .. } => {
                *queue_ns = 0;
                line.wall_ns = 0;
            }
            Response::Progress { elapsed_ms, .. } => *elapsed_ms = 0,
            Response::Status(s) => {
                s.queued = 0;
                s.active = 0;
                s.max_queue_depth = 0;
            }
            Response::SessionClosed { .. }
            | Response::Pong
            | Response::Error { .. }
            | Response::ShuttingDown { .. } => {}
        }
        c
    }

    /// Canonical wire bytes of this frame: canonical encoding plus the
    /// newline delimiter.
    pub fn wire_cost(&self) -> u64 {
        self.canonical().encode().len() as u64 + 1
    }
}

fn write_graph(w: &mut ObjectWriter, graph: &GraphSource) {
    match graph {
        GraphSource::Inline { nodes, edges } => {
            let mut s = String::with_capacity(edges.len() * 6);
            for (i, (u, v)) in edges.iter().enumerate() {
                if i > 0 {
                    s.push(';');
                }
                use std::fmt::Write as _;
                let _ = write!(s, "{u} {v}");
            }
            w.u64("nodes", *nodes as u64).string("edges", &s);
        }
        GraphSource::Snapshot(path) => {
            w.string("snapshot", &path.display().to_string());
        }
    }
}

fn parse_graph(fields: &Fields) -> Result<GraphSource, String> {
    if let Some(path) = fields.opt_str("snapshot")? {
        return Ok(GraphSource::Snapshot(PathBuf::from(path)));
    }
    let nodes = usize::try_from(fields.u64("nodes")?)
        .map_err(|_| "field \"nodes\" out of range".to_string())?;
    let raw = fields.str("edges")?;
    let mut edges = Vec::new();
    if !raw.is_empty() {
        for pair in raw.split(';') {
            let mut it = pair.split_whitespace();
            let (Some(u), Some(v), None) = (it.next(), it.next(), it.next()) else {
                return Err(format!("bad edge token {pair:?}"));
            };
            let u = u
                .parse::<u32>()
                .map_err(|_| format!("bad endpoint {u:?}"))?;
            let v = v
                .parse::<u32>()
                .map_err(|_| format!("bad endpoint {v:?}"))?;
            edges.push((u, v));
        }
    }
    Ok(GraphSource::Inline { nodes, edges })
}

fn opt_bool(fields: &Fields, key: &str) -> Result<bool, String> {
    match fields.get(key) {
        None => Ok(false),
        Some(_) => fields.bool(key),
    }
}

fn u32_field(fields: &Fields, key: &str) -> Result<u32, String> {
    u32::try_from(fields.u64(key)?).map_err(|_| format!("field {key:?} out of u32 range"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_core::SolveStats;
    use deco_graph::generators;

    fn sample_run_line() -> RunReportLine {
        RunReportLine {
            colors: vec![Some(3), None, Some(0)],
            rounds: 41,
            messages: 1234,
            engine: "serial".to_string(),
            wall_ns: 987_654,
            x_palette: 17,
            x_rounds: 9,
            cost_rounds: 32,
            stats: SolveStats {
                sweeps: 2,
                eq2_worst_ratio: 0.25,
                ..SolveStats::default()
            },
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            RequestFrame {
                id: "a-1".to_string(),
                req: Request::Solve {
                    graph: GraphSource::Inline {
                        nodes: 5,
                        edges: vec![(1, 2), (0, 4)],
                    },
                    engine: Some("barrier(threads=2)".to_string()),
                    progress: true,
                },
            },
            RequestFrame {
                id: "a-2".to_string(),
                req: Request::Solve {
                    graph: GraphSource::Snapshot(PathBuf::from("/tmp/g.snap")),
                    engine: None,
                    progress: false,
                },
            },
            RequestFrame {
                id: "s".to_string(),
                req: Request::OpenSession {
                    session: "churn-0".to_string(),
                    graph: GraphSource::Inline {
                        nodes: 3,
                        edges: vec![],
                    },
                    engine: None,
                },
            },
            RequestFrame {
                id: "u".to_string(),
                req: Request::Update {
                    session: "churn-0".to_string(),
                    update: EdgeUpdate::insert(1u32, 2u32),
                },
            },
            RequestFrame {
                id: "c".to_string(),
                req: Request::CloseSession {
                    session: "churn-0".to_string(),
                },
            },
            RequestFrame {
                id: "q".to_string(),
                req: Request::Status,
            },
            RequestFrame {
                id: "p".to_string(),
                req: Request::Ping { delay_ms: 250 },
            },
            RequestFrame {
                id: "z".to_string(),
                req: Request::Shutdown,
            },
        ];
        for frame in requests {
            let line = frame.encode();
            let parsed = RequestFrame::parse(&line).unwrap();
            assert_eq!(parsed, frame, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Report {
                queue_ns: 5_000,
                line: sample_run_line(),
            },
            Response::SessionOpened {
                session: "s1".to_string(),
                queue_ns: 0,
                line: sample_run_line(),
            },
            Response::Updated {
                session: "s1".to_string(),
                queue_ns: 77,
                line: UpdateReportLine {
                    update: EdgeUpdate::remove(4u32, 9u32),
                    recolored: 1,
                    palette_max: 6,
                    palette_bound: 9,
                    escalated: false,
                    messages: 4,
                    wall_ns: 1_000,
                },
            },
            Response::SessionClosed {
                session: "s1".to_string(),
                updates: 12,
            },
            Response::Status(DaemonStatus {
                workers: 4,
                queue_bound: 64,
                engine: "serial".to_string(),
                ..DaemonStatus::default()
            }),
            Response::Pong,
            Response::Progress {
                phase: "solve".to_string(),
                elapsed_ms: 1500,
            },
            Response::Error {
                code: ErrorCode::Malformed,
                message: "no \"req\" field".to_string(),
                solve: None,
            },
            Response::Error {
                code: ErrorCode::Solve,
                message: "solver failed".to_string(),
                solve: Some(SolveError::DepthExceeded { depth: 9, limit: 8 }),
            },
            Response::ShuttingDown { served: 42 },
        ];
        for resp in responses {
            let frame = ResponseFrame {
                id: "r-7".to_string(),
                resp,
            };
            let line = frame.encode();
            let parsed = ResponseFrame::parse(&line).unwrap();
            assert_eq!(parsed, frame, "{line}");
        }
    }

    #[test]
    fn canonical_cost_ignores_volatile_fields() {
        let mut a = ResponseFrame {
            id: "x".to_string(),
            resp: Response::Report {
                queue_ns: 1,
                line: sample_run_line(),
            },
        };
        let mut b = a.clone();
        if let (
            Response::Report {
                queue_ns: qa,
                line: la,
            },
            Response::Report {
                queue_ns: qb,
                line: lb,
            },
        ) = (&mut a.resp, &mut b.resp)
        {
            *qa = 7;
            la.wall_ns = 123;
            *qb = 123_456_789_012;
            lb.wall_ns = 999_999_999_999;
        }
        assert_ne!(a.encode().len(), b.encode().len());
        assert_eq!(a.wire_cost(), b.wire_cost());
    }

    #[test]
    fn graph_source_round_trips_a_real_graph() {
        let g = generators::random_regular(16, 4, 3);
        let src = GraphSource::from_graph(&g);
        let rebuilt = src.load().unwrap();
        assert_eq!(rebuilt.num_nodes(), g.num_nodes());
        assert_eq!(rebuilt.num_edges(), g.num_edges());
        for e in g.edges() {
            assert_eq!(rebuilt.endpoints(e), g.endpoints(e));
        }
    }

    #[test]
    fn malformed_requests_are_named_errors() {
        for (line, needle) in [
            ("[]", "expected"),
            ("{\"id\":\"x\"}", "missing field"),
            ("{\"id\":\"x\",\"req\":\"warp\"}", "unknown request"),
            (
                "{\"id\":\"x\",\"req\":\"solve\",\"nodes\":3,\"edges\":\"1 2;bad\"}",
                "bad edge token",
            ),
            (
                "{\"id\":\"x\",\"req\":\"update\",\"session\":\"s\",\"op\":\"swap\",\"u\":1,\"v\":2}",
                "unknown update op",
            ),
        ] {
            let err = RequestFrame::parse(line).unwrap_err();
            assert!(err.contains(needle), "line {line:?}: {err}");
        }
    }
}
