//! Integration suite for the serving layer: the end-to-end acceptance
//! run (concurrent clients bit-identical to direct `Runtime` runs), the
//! daemon's failure surface, drain semantics, and the cross-transport
//! accounting agreement.

use deco_core::jsonl::{RunReportLine, UpdateReportLine};
use deco_core::solver::{solve_two_delta_minus_one, SolverConfig};
use deco_core::Session;
use deco_graph::{generators, EdgeUpdate, Graph};
use deco_runtime::Runtime;
use deco_serve::client::Client;
use deco_serve::config::ServeConfig;
use deco_serve::server::{Server, ServerHandle};
use deco_serve::transport::ServeAddr;
use deco_serve::wire::{DaemonStatus, ErrorCode, GraphSource, Request, RequestFrame, Response};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn start(config: ServeConfig) -> ServerHandle {
    Server::start(config).expect("daemon starts")
}

fn inproc() -> ServeConfig {
    ServeConfig::default()
}

fn seq_ids(g: &Graph) -> Vec<u64> {
    (1..=g.num_nodes() as u64).collect()
}

fn direct_run_line(g: &Graph) -> RunReportLine {
    let report =
        solve_two_delta_minus_one(g, &seq_ids(g), SolverConfig::default(), &Runtime::serial())
            .expect("direct solve succeeds");
    RunReportLine::from_report(&report)
}

/// Zeroes the one nondeterministic field so lines compare bit-identically.
fn canon_run(mut line: RunReportLine) -> RunReportLine {
    line.wall_ns = 0;
    line
}

fn canon_update(mut line: UpdateReportLine) -> UpdateReportLine {
    line.wall_ns = 0;
    line
}

/// A small churn trace that is valid on any graph with at least one
/// edge: remove the first edge, re-insert it, remove it again.
fn churn_trace(g: &Graph) -> Vec<EdgeUpdate> {
    let [u, v] = g.endpoints(deco_graph::EdgeId::from(0usize));
    vec![
        EdgeUpdate::remove(u, v),
        EdgeUpdate::insert(u, v),
        EdgeUpdate::remove(u, v),
    ]
}

fn direct_session_lines(g: &Graph) -> (RunReportLine, Vec<UpdateReportLine>) {
    let mut s = Session::open(g, &seq_ids(g), SolverConfig::default(), &Runtime::serial())
        .expect("direct session opens");
    let base = RunReportLine::from_report(&s.report());
    let updates = churn_trace(g)
        .into_iter()
        .map(|u| UpdateReportLine::from_report(&s.apply(u).expect("direct update succeeds")))
        .collect();
    (base, updates)
}

fn tmp_path(tag: &str, ext: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "deco-serve-test-{tag}-{}-{}.{ext}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

// ---------------------------------------------------------------- E2E --

/// The acceptance run: one daemon, 8 concurrent clients — evens one-shot
/// solves, odds full churn sessions — every report bit-identical in
/// colors/rounds/messages to the same workload run directly through
/// `Runtime`.
#[test]
fn eight_concurrent_clients_match_direct_runs() {
    let handle = start(ServeConfig {
        workers: 4,
        ..inproc()
    });
    std::thread::scope(|scope| {
        for i in 0..8usize {
            let handle = &handle;
            scope.spawn(move || {
                let g = generators::random_regular(16 + 2 * i, 4, 40 + i as u64);
                let mut client = handle.connect().expect("client connects");
                if i % 2 == 0 {
                    let served = client
                        .solve(GraphSource::from_graph(&g), None, false)
                        .expect("solve request completes")
                        .into_report()
                        .expect("solve succeeds");
                    assert_eq!(
                        canon_run(served),
                        canon_run(direct_run_line(&g)),
                        "client {i}"
                    );
                } else {
                    let name = format!("churn-{i}");
                    let (direct_base, direct_updates) = direct_session_lines(&g);
                    let base = client
                        .open_session(&name, GraphSource::from_graph(&g), None)
                        .expect("open_session completes")
                        .into_report()
                        .expect("session opens");
                    assert_eq!(canon_run(base), canon_run(direct_base), "client {i} base");
                    for (k, update) in churn_trace(&g).into_iter().enumerate() {
                        let served = client
                            .update(&name, update)
                            .expect("update completes")
                            .into_update()
                            .expect("update succeeds");
                        assert_eq!(
                            canon_update(served),
                            canon_update(direct_updates[k].clone()),
                            "client {i} update {k}"
                        );
                    }
                    match client.close_session(&name).expect("close completes") {
                        Response::SessionClosed { updates, .. } => assert_eq!(updates, 3),
                        other => panic!("expected session_closed, got {other:?}"),
                    }
                }
            });
        }
    });
    let status = handle.status();
    assert_eq!(status.sessions, 0, "all sessions closed");
    // 4 solves + 4 * (open + 3 updates + close) = 24 worker requests.
    assert_eq!(status.served, 24);
    assert_eq!(status.errors, 0);
    handle.stop();
}

// ---------------------------------------------------- failure surface --

#[test]
fn malformed_frames_get_structured_errors_and_the_daemon_survives() {
    let handle = start(inproc());
    let mut client = handle.connect().unwrap();

    let cases: Vec<(String, ErrorCode, &str)> = vec![
        // Not JSON at all: no id to echo.
        ("garbage".to_string(), ErrorCode::Malformed, ""),
        // Valid JSON, missing the request discriminator.
        ("{\"id\":\"x1\"}".to_string(), ErrorCode::Malformed, "x1"),
        // Nested JSON is rejected by the flat-object parser.
        (
            "{\"id\":\"x2\",\"req\":\"solve\",\"nodes\":{\"n\":3}}".to_string(),
            ErrorCode::Malformed,
            "x2",
        ),
        // Unknown request verb.
        (
            "{\"id\":\"x3\",\"req\":\"teleport\"}".to_string(),
            ErrorCode::Malformed,
            "x3",
        ),
        // Parseable request, endpoint outside the node range.
        (
            RequestFrame {
                id: "x4".to_string(),
                req: Request::Solve {
                    graph: GraphSource::Inline {
                        nodes: 2,
                        edges: vec![(0, 5)],
                    },
                    engine: None,
                    progress: false,
                },
            }
            .encode(),
            ErrorCode::Graph,
            "x4",
        ),
        // Unreadable snapshot path.
        (
            RequestFrame {
                id: "x5".to_string(),
                req: Request::Solve {
                    graph: GraphSource::Snapshot(tmp_path("missing", "snap")),
                    engine: None,
                    progress: false,
                },
            }
            .encode(),
            ErrorCode::Graph,
            "x5",
        ),
        // Bad engine descriptor.
        (
            RequestFrame {
                id: "x6".to_string(),
                req: Request::Solve {
                    graph: GraphSource::Inline {
                        nodes: 2,
                        edges: vec![(0, 1)],
                    },
                    engine: Some("warp(drive=9)".to_string()),
                    progress: false,
                },
            }
            .encode(),
            ErrorCode::Malformed,
            "x6",
        ),
        // Only serial and barrier descriptors parse.
        (
            RequestFrame {
                id: "x7".to_string(),
                req: Request::Solve {
                    graph: GraphSource::Inline {
                        nodes: 2,
                        edges: vec![(0, 1)],
                    },
                    engine: Some("async(threads=2)".to_string()),
                    progress: false,
                },
            }
            .encode(),
            ErrorCode::Malformed,
            "x7",
        ),
    ];
    for (line, want_code, want_id) in cases {
        client.send_line(&line).unwrap();
        let frame = client.recv().unwrap();
        assert_eq!(frame.id, want_id, "line {line}");
        match frame.resp {
            Response::Error { code, message, .. } => {
                assert_eq!(code, want_code, "line {line}: {message}");
                assert!(!message.is_empty());
            }
            other => panic!("line {line}: expected an error frame, got {other:?}"),
        }
    }

    // Updates against a session that was never opened.
    match client
        .update("nope", EdgeUpdate::insert(0u32, 1u32))
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected unknown_session, got {other:?}"),
    }

    // After all of that the daemon still serves.
    assert!(matches!(client.ping(0).unwrap(), Response::Pong));
    let g = generators::random_regular(16, 4, 1);
    let line = client
        .solve(GraphSource::from_graph(&g), None, false)
        .unwrap()
        .into_report()
        .unwrap();
    assert_eq!(canon_run(line), canon_run(direct_run_line(&g)));
    handle.stop();
}

#[test]
fn disconnect_mid_request_does_not_wedge_the_worker() {
    let handle = start(ServeConfig {
        workers: 1,
        ..inproc()
    });
    // Park the only worker on a slow request, then vanish.
    let mut doomed = handle.connect().unwrap();
    doomed
        .send_line(
            &RequestFrame {
                id: "slow".to_string(),
                req: Request::Ping { delay_ms: 300 },
            }
            .encode(),
        )
        .unwrap();
    drop(doomed);

    // The worker's response write fails into the void; the worker must
    // come back and serve the next client.
    let mut client = handle.connect().unwrap();
    let start = Instant::now();
    assert!(matches!(client.ping(0).unwrap(), Response::Pong));
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "worker wedged after client disconnect"
    );
    let g = generators::random_regular(16, 4, 2);
    let line = client
        .solve(GraphSource::from_graph(&g), None, false)
        .unwrap()
        .into_report()
        .unwrap();
    assert_eq!(canon_run(line), canon_run(direct_run_line(&g)));
    handle.stop();
}

#[test]
fn sessions_are_isolated_and_die_with_their_connection() {
    let handle = start(ServeConfig {
        workers: 2,
        ..inproc()
    });
    let g1 = generators::random_regular(16, 4, 5);
    let g2 = generators::random_regular(20, 4, 6);
    let mut a = handle.connect().unwrap();
    let mut b = handle.connect().unwrap();

    a.open_session("s", GraphSource::from_graph(&g1), None)
        .unwrap()
        .into_report()
        .unwrap();

    // Session names are daemon-global: a second open is refused…
    match b
        .open_session("s", GraphSource::from_graph(&g2), None)
        .unwrap()
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected an error, got {other:?}"),
    }
    // …and access is connection-local: B cannot touch A's session.
    let [u, v] = g1.endpoints(deco_graph::EdgeId::from(0usize));
    match b.update("s", EdgeUpdate::remove(u, v)).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected unknown_session, got {other:?}"),
    }
    match b.close_session("s").unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected unknown_session, got {other:?}"),
    }

    // Interleaved updates on two sessions stay independent: both match
    // their direct single-session traces.
    b.open_session("t", GraphSource::from_graph(&g2), None)
        .unwrap()
        .into_report()
        .unwrap();
    let (_, direct_a) = direct_session_lines(&g1);
    let (_, direct_b) = direct_session_lines(&g2);
    let trace_a = churn_trace(&g1);
    let trace_b = churn_trace(&g2);
    for k in 0..trace_a.len() {
        let got_a = a.update("s", trace_a[k]).unwrap().into_update().unwrap();
        let got_b = b.update("t", trace_b[k]).unwrap().into_update().unwrap();
        assert_eq!(canon_update(got_a), canon_update(direct_a[k].clone()));
        assert_eq!(canon_update(got_b), canon_update(direct_b[k].clone()));
    }
    a.close_session("s").unwrap();

    // A dropped connection closes its sessions, freeing the name.
    drop(b);
    let mut c = handle.connect().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match c
            .open_session("t", GraphSource::from_graph(&g1), None)
            .unwrap()
        {
            Response::SessionOpened { .. } => break,
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            } => {
                assert!(
                    Instant::now() < deadline,
                    "session of a dead connection never cleaned up"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    handle.stop();
}

#[test]
fn queue_overflow_is_refused_not_blocked() {
    let handle = start(ServeConfig {
        workers: 1,
        queue_bound: 2,
        ..inproc()
    });
    let mut client = handle.connect().unwrap();
    // Pipeline five slow pings at a one-worker, two-slot daemon: at most
    // one executing + two queued can survive; at least two must be
    // refused — immediately, by the reader, while the worker sleeps.
    for k in 0..5 {
        client
            .send_line(
                &RequestFrame {
                    id: format!("p{k}"),
                    req: Request::Ping { delay_ms: 250 },
                }
                .encode(),
            )
            .unwrap();
    }
    let mut pongs = 0;
    let mut refused = 0;
    for _ in 0..5 {
        match client.recv().unwrap().resp {
            Response::Pong => pongs += 1,
            Response::Error { code, .. } => {
                assert_eq!(code, ErrorCode::QueueFull);
                refused += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(pongs + refused, 5);
    assert!((2..=3).contains(&pongs), "pongs = {pongs}");
    assert!(refused >= 2, "refused = {refused}");
    assert!(handle.status().max_queue_depth <= 2);
    handle.stop();
}

// ------------------------------------------------------------- drain --

#[test]
fn shutdown_drains_in_flight_requests_before_stopping() {
    let handle = start(ServeConfig {
        workers: 2,
        ..inproc()
    });
    let mut client = handle.connect().unwrap();
    client
        .send_line(
            &RequestFrame {
                id: "slow".to_string(),
                req: Request::Ping { delay_ms: 300 },
            }
            .encode(),
        )
        .unwrap();
    client
        .send_line(
            &RequestFrame {
                id: "bye".to_string(),
                req: Request::Shutdown,
            }
            .encode(),
        )
        .unwrap();
    // The in-flight ping completes (and its pong is on the wire) before
    // the daemon acknowledges the shutdown.
    let first = client.recv().unwrap();
    assert_eq!(first.id, "slow");
    assert!(matches!(first.resp, Response::Pong), "{first:?}");
    let second = client.recv().unwrap();
    assert_eq!(second.id, "bye");
    match second.resp {
        Response::ShuttingDown { served } => assert!(served >= 1),
        other => panic!("expected shutting_down, got {other:?}"),
    }
    handle.join();
}

#[test]
fn requests_after_shutdown_are_refused_as_draining() {
    // Two connections: one parks the only worker and shuts down; the
    // other tries to submit work while the drain is in progress.
    let handle = start(ServeConfig {
        workers: 1,
        ..inproc()
    });
    let mut closer = handle.connect().unwrap();
    let mut late = handle.connect().unwrap();
    closer
        .send_line(
            &RequestFrame {
                id: "slow".to_string(),
                req: Request::Ping { delay_ms: 400 },
            }
            .encode(),
        )
        .unwrap();
    closer
        .send_line(
            &RequestFrame {
                id: "bye".to_string(),
                req: Request::Shutdown,
            }
            .encode(),
        )
        .unwrap();
    // Give the drain a moment to latch, then submit late work.
    std::thread::sleep(Duration::from_millis(100));
    match late.ping(0).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Draining),
        // The drain may already have finished and closed the pipe — that
        // surfaces as an io error, which Client::request reports; both
        // outcomes mean "no new work after shutdown".
        other => panic!("expected a draining error, got {other:?}"),
    }
    assert!(matches!(closer.recv().unwrap().resp, Response::Pong));
    assert!(matches!(
        closer.recv().unwrap().resp,
        Response::ShuttingDown { .. }
    ));
    handle.join();
}

// ----------------------------------------- cross-transport agreement --

/// One deterministic mixed workload, returning the client's counters and
/// the daemon's status as the client observed it.
fn accounting_workload(client: &mut Client, g: &Graph) -> (deco_serve::FrameStats, DaemonStatus) {
    client
        .solve(GraphSource::from_graph(g), None, false)
        .unwrap()
        .into_report()
        .unwrap();
    client
        .open_session("acct", GraphSource::from_graph(g), None)
        .unwrap()
        .into_report()
        .unwrap();
    for update in churn_trace(g) {
        client
            .update("acct", update)
            .unwrap()
            .into_update()
            .unwrap();
    }
    client.close_session("acct").unwrap();
    client.ping(0).unwrap();
    // One malformed line so error frames are part of the agreement too.
    client.send_line("not json").unwrap();
    match client.recv().unwrap().resp {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected malformed, got {other:?}"),
    }
    let before = client.stats();
    let status = client.status().unwrap();
    let after = client.stats();
    // Server-side counters agree with this client's view of the same
    // traffic: everything the client sent (including the status request)
    // was counted in, everything the client had received before the
    // status round-trip was counted out.
    assert_eq!(status.frames_in, after.frames_out);
    assert_eq!(status.bytes_in, after.bytes_out);
    assert_eq!(status.frames_out, before.frames_in);
    assert_eq!(status.bytes_out, before.bytes_in);
    (after, status)
}

/// Zeroes the live-load fields that legitimately vary run to run.
fn canon_status(mut s: DaemonStatus) -> DaemonStatus {
    s.queued = 0;
    s.active = 0;
    s.max_queue_depth = 0;
    s
}

#[test]
fn frame_and_byte_accounting_agree_across_transports() {
    let g = generators::random_regular(18, 4, 11);
    let mut observed: Vec<(String, deco_serve::FrameStats, DaemonStatus)> = Vec::new();

    // In-process pipes.
    let handle = start(inproc());
    let mut client = handle.connect().unwrap();
    let (stats, status) = accounting_workload(&mut client, &g);
    observed.push(("inproc".to_string(), stats, canon_status(status)));
    drop(client);
    handle.stop();

    // TCP on an ephemeral loopback port.
    let handle = start(ServeConfig {
        addr: ServeAddr::Tcp("127.0.0.1:0".to_string()),
        ..inproc()
    });
    let mut client = handle.connect().unwrap();
    let (stats, status) = accounting_workload(&mut client, &g);
    observed.push(("tcp".to_string(), stats, canon_status(status)));
    drop(client);
    handle.stop();

    // Unix-domain socket.
    #[cfg(unix)]
    {
        let path = tmp_path("acct", "sock");
        let handle = start(ServeConfig {
            addr: ServeAddr::Uds(path.clone()),
            ..inproc()
        });
        let mut client = handle.connect().unwrap();
        let (stats, status) = accounting_workload(&mut client, &g);
        observed.push(("uds".to_string(), stats, canon_status(status)));
        drop(client);
        handle.stop();
        assert!(!path.exists(), "socket path unlinked on stop");
    }

    let (_, first_stats, first_status) = &observed[0];
    for (name, stats, status) in &observed[1..] {
        assert_eq!(stats, first_stats, "client counters diverge on {name}");
        assert_eq!(status, first_status, "daemon counters diverge on {name}");
    }
}

// ------------------------------------------------------------- modes --

#[test]
fn per_request_engine_override_is_attributed_and_identical() {
    let handle = start(inproc());
    let mut client = handle.connect().unwrap();
    let g = generators::random_regular(20, 4, 13);
    let line = client
        .solve(
            GraphSource::from_graph(&g),
            Some("barrier(threads=2)"),
            false,
        )
        .unwrap()
        .into_report()
        .unwrap();
    assert_eq!(line.engine, "barrier(threads=2)");
    // Engines are observable-identical: same colors, rounds, messages as
    // the serial direct run — only the attribution differs.
    let direct = direct_run_line(&g);
    let mut canon = canon_run(line);
    canon.engine = "serial".to_string();
    assert_eq!(canon, canon_run(direct));
    handle.stop();
}

#[test]
fn snapshot_solves_match_inline_solves() {
    let g = generators::random_regular(22, 4, 17);
    let path = tmp_path("solve", "snap");
    deco_graph::io::write_snapshot_file(&g, &path).unwrap();
    let handle = start(inproc());
    let mut client = handle.connect().unwrap();
    let from_snapshot = client
        .solve(GraphSource::Snapshot(path.clone()), None, false)
        .unwrap()
        .into_report()
        .unwrap();
    let from_inline = client
        .solve(GraphSource::from_graph(&g), None, false)
        .unwrap()
        .into_report()
        .unwrap();
    assert_eq!(canon_run(from_snapshot), canon_run(from_inline.clone()));
    assert_eq!(canon_run(from_inline), canon_run(direct_run_line(&g)));
    let _ = std::fs::remove_file(&path);
    handle.stop();
}

#[test]
fn progress_frames_stream_while_a_solve_runs() {
    let handle = start(ServeConfig {
        progress_interval: Duration::from_millis(50),
        ..inproc()
    });
    let mut client = handle.connect().unwrap();
    let g = generators::random_regular(24, 4, 19);
    let line = client
        .solve(GraphSource::from_graph(&g), None, true)
        .unwrap()
        .into_report()
        .unwrap();
    assert_eq!(canon_run(line), canon_run(direct_run_line(&g)));
    let progress = client.take_progress();
    assert!(
        !progress.is_empty(),
        "a progress-requesting solve streams at least the initial frame"
    );
    for frame in &progress {
        match &frame.resp {
            Response::Progress { phase, .. } => assert_eq!(phase, "solve"),
            other => panic!("expected progress, got {other:?}"),
        }
    }
    handle.stop();
}
