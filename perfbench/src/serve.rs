//! Daemon traffic: an in-process `deco-serve` daemon on TCP loopback and
//! closed-loop client connections, each with its own churn session. Every
//! tenth request of a connection is an inline `Solve` of a graph from the
//! workload's solve set; the rest are session `Update`s.

use crate::alloc;
use crate::check::{self, Reference};
use crate::inputs::{self, Churn, Inputs, Rng};
use crate::report::{self, ms, us, Slice, Sliced, Tally};
use deco::core_alg::solver::SolverConfig;
use deco::runtime::Runtime;
use deco::serve::client::Client;
use deco::serve::config::ServeConfig;
use deco::serve::server::{Server, ServerHandle};
use deco::serve::transport::ServeAddr;
use deco::serve::wire::{DaemonStatus, GraphSource};
use deco::Session;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Client connections (each one closed loop) and daemon workers.
pub const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
/// One request in this many is a solve.
const SOLVE_EVERY: usize = 10;
/// Updates per digest chunk when served and replayed traces are compared.
const CHUNK: usize = 256;

/// When a connection stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    Requests(usize),
}

/// A daemon with one open session per connection. Fields drop in order:
/// the clients hang up before the daemon stops.
pub struct Daemon {
    clients: Vec<Client>,
    handle: ServerHandle,
    sources: Vec<GraphSource>,
}

/// Starts the daemon (serial engine) on an ephemeral loopback port, dials
/// the connections and opens their sessions.
pub fn start(inputs: &Inputs) -> Result<Daemon, String> {
    let handle = Server::start(ServeConfig {
        addr: ServeAddr::parse("tcp:127.0.0.1:0")?,
        workers: WORKERS,
        runtime: Runtime::serial(),
        progress_interval: Duration::ZERO,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon start failed: {e}"))?;
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for c in 0..CONNECTIONS {
        let mut client = handle
            .connect()
            .map_err(|e| format!("connect failed: {e}"))?;
        client
            .open_session(
                &session_name(c),
                GraphSource::from_graph(&inputs.session_graph),
                None,
            )
            .map_err(|e| format!("open_session transport error: {e}"))?
            .into_report()
            .map_err(|e| format!("open_session refused: {e}"))?;
        clients.push(client);
    }
    Ok(Daemon {
        handle,
        clients,
        sources: inputs.solves.iter().map(GraphSource::from_graph).collect(),
    })
}

fn session_name(conn: usize) -> String {
    format!("bench-{conn}")
}

/// The seed of connection `conn`'s churn stream and request order.
pub fn conn_seed(seed: u64, conn: usize) -> u64 {
    seed ^ (0xC0FF_EE00 + conn as u64)
}

/// What one traffic window saw.
pub struct TrafficResult {
    /// Wire latencies (ms) of solves and updates, slice by slice, per
    /// connection.
    pub solves: Vec<Vec<Slice>>,
    pub updates: Vec<Vec<Slice>>,
    pub solved: usize,
    pub wall: Duration,
    /// Peak RSS (MiB) at the end of the measured window.
    pub peak_rss_mib: f64,
    /// MiB allocated per request, daemon and clients together.
    pub alloc_per_req: f64,
    pub status: DaemonStatus,
    /// In-process `Session::apply` times (µs) of connection 0's trace,
    /// replayed to check the served updates.
    pub replay_apply_us: Vec<f64>,
    /// Edges recolored per update in that replay.
    pub replay_recolored: f64,
    pub tally: Tally,
}

struct ConnLog {
    solves: Sliced,
    updates: Sliced,
    solved: usize,
    updated: usize,
    digests: Vec<u64>,
    tally: Tally,
}

/// Drives every connection until `stop`, then checks the served traces
/// against in-process replays and stops the daemon. `refs[i]` is the
/// in-process solve of `inputs.solves[i]` that every served solve of it
/// must equal.
pub fn traffic(
    daemon: Daemon,
    inputs: &Inputs,
    refs: &[Reference],
    seed: u64,
    stop: Stop,
) -> TrafficResult {
    let Daemon {
        handle,
        clients,
        sources,
    } = daemon;
    let gate = Barrier::new(clients.len());
    let a0 = alloc::allocated();
    let start = Instant::now();
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let (gate, sources) = (&gate, &sources);
                s.spawn(move || {
                    gate.wait();
                    drive(client, c, inputs, sources, refs, seed, stop, start)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread finishes"))
            .collect()
    });
    let wall = start.elapsed();
    let peak_rss_mib = report::peak_rss_mib();
    let requests: usize = logs.iter().map(|l| l.solved + l.updated).sum();
    let alloc_per_req = alloc::mib(alloc::allocated() - a0) / requests.max(1) as f64;
    let status = handle.status();
    handle.stop();

    let mut tally = Tally::default();
    let mut replay_apply_us = Vec::new();
    let mut replay_recolored = 0.0;
    for (c, log) in logs.iter().enumerate() {
        tally.merge(log.tally);
        let (apply_us, recolored) = replay(inputs, seed, c, log, &mut tally);
        if c == 0 {
            replay_apply_us = apply_us;
            replay_recolored = recolored;
        }
    }
    tally.check(if status.errors == 0 {
        Ok(())
    } else {
        Err(format!("daemon reported {} error frames", status.errors))
    });
    let solved = logs.iter().map(|l| l.solved).sum();
    let (mut solves, mut updates) = (Vec::new(), Vec::new());
    for log in logs {
        solves.push(log.solves.finish());
        updates.push(log.updates.finish());
    }
    TrafficResult {
        solves,
        updates,
        solved,
        wall,
        peak_rss_mib,
        alloc_per_req,
        status,
        replay_apply_us,
        replay_recolored,
        tally,
    }
}

#[allow(clippy::too_many_arguments)]
fn drive(
    mut client: Client,
    conn: usize,
    inputs: &Inputs,
    sources: &[GraphSource],
    refs: &[Reference],
    seed: u64,
    stop: Stop,
    start: Instant,
) -> ConnLog {
    let name = session_name(conn);
    let mut rng = Rng::new(conn_seed(seed, conn));
    let mut churn = Churn::new(&inputs.session_graph, conn_seed(seed, conn));
    let (seconds, slices) = match stop {
        Stop::After(d) => (d.as_secs_f64(), report::SLICES),
        Stop::Requests(_) => (f64::INFINITY, 1),
    };
    let mut log = ConnLog {
        solves: Sliced::new(seconds, slices),
        updates: Sliced::new(seconds, slices),
        solved: 0,
        updated: 0,
        digests: Vec::new(),
        tally: Tally::default(),
    };
    let mut digest = 0u64;
    for k in 0.. {
        let done = match stop {
            Stop::After(d) => start.elapsed() >= d,
            Stop::Requests(n) => k >= n,
        };
        if done {
            break;
        }
        if k % SOLVE_EVERY == SOLVE_EVERY - 1 {
            let i = rng.below(sources.len());
            let t = Instant::now();
            let resp = client.solve(sources[i].clone(), None, false);
            log.solves
                .push(start.elapsed().as_secs_f64(), ms(t.elapsed()));
            log.solved += 1;
            log.tally.check(
                resp.map_err(|e| format!("solve transport error: {e}"))
                    .and_then(|r| r.into_report())
                    .and_then(|line| {
                        check::coloring(&inputs.solves[i], &line.coloring())?;
                        refs[i].matches(&line.colors, line.rounds, line.messages)
                    }),
            );
        } else {
            let u = churn.next_update();
            let t = Instant::now();
            let resp = client.update(&name, u);
            log.updates
                .push(start.elapsed().as_secs_f64(), ms(t.elapsed()));
            log.updated += 1;
            let report = resp
                .map_err(|e| format!("update transport error: {e}"))
                .and_then(|r| r.into_update())
                .map(|line| line.to_report());
            log.tally.check(
                report
                    .as_ref()
                    .map_err(Clone::clone)
                    .and_then(check::update),
            );
            if let Ok(r) = report {
                digest = check::fold_update(digest, &r);
            }
            if log.updated.is_multiple_of(CHUNK) {
                log.digests.push(digest);
            }
        }
    }
    if !log.updated.is_multiple_of(CHUNK) {
        log.digests.push(digest);
    }
    log
}

/// Replays connection `conn`'s update trace through an in-process session
/// and checks every digest chunk against the served one. Returns the
/// replay's apply times (µs) and mean edges recolored per update.
fn replay(
    inputs: &Inputs,
    seed: u64,
    conn: usize,
    log: &ConnLog,
    tally: &mut Tally,
) -> (Vec<f64>, f64) {
    let g = &inputs.session_graph;
    let mut session = match Session::open(
        g,
        &inputs::ids(g),
        SolverConfig::default(),
        &Runtime::serial(),
    ) {
        Ok(s) => s,
        Err(e) => {
            tally.check(Err(format!("replay session open failed: {e}")));
            return (Vec::new(), 0.0);
        }
    };
    let mut churn = Churn::new(g, conn_seed(seed, conn));
    let updates = log.updated;
    let mut apply_us = Vec::with_capacity(if conn == 0 { updates } else { 0 });
    let mut recolored = 0u64;
    let mut digest = 0u64;
    let mut chunks = log.digests.iter();
    let mut checked = 0;
    for n in 1..=updates {
        let u = churn.next_update();
        let t = Instant::now();
        let res = session.apply(u);
        if conn == 0 {
            apply_us.push(us(t.elapsed()));
        }
        if let Ok(r) = res {
            recolored += r.recolored;
            digest = check::fold_update(digest, &r);
        }
        if n % CHUNK == 0 || n == updates {
            if chunks.next() != Some(&digest) {
                tally.fail(
                    (n - checked) as u64,
                    format!(
                        "served updates {}..={n} differ from the in-process replay",
                        checked + 1
                    ),
                );
            }
            checked = n;
        }
    }
    (apply_us, recolored as f64 / updates.max(1) as f64)
}
