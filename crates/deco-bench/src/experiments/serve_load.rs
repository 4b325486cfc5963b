//! `serve-load` — throughput and latency of the serving daemon under
//! concurrent clients.
//!
//! For each fleet size N ∈ {1, 4, 16} the experiment starts a fresh
//! in-process daemon (serial engine, so the solve work per request is
//! deterministic and the figures stay comparable across CI legs)
//! and drives N client threads against it. Every client runs the same
//! mixed workload the protocol was built for: a batch of one-shot
//! solves over small random-regular graphs plus one full churn session
//! (open, a short update trace, close). Each terminal request is timed
//! individually; the sweep reports requests/sec, p50/p95 latency, and
//! the deepest the daemon's queue ever got ([`DaemonStatus`]'s
//! `max_queue_depth`).
//!
//! `DECO_SERVE_LOAD_ADDR` redirects the fleet at an already-running
//! external daemon instead (the CI `serve-smoke` job points it at the
//! daemon it booted over TCP); queue depth is then the daemon's
//! lifetime high-water mark, and the engine is whatever the daemon was
//! started with. `DECO_SERVE_SMOKE=1` shrinks the per-client workload
//! for the smoke legs.

use crate::table::Table;
use deco_graph::{generators, EdgeId, EdgeUpdate, Graph};
use deco_runtime::Runtime;
use deco_serve::client::Client;
use deco_serve::config::ServeConfig;
use deco_serve::server::{Server, ServerHandle};
use deco_serve::transport::ServeAddr;
use deco_serve::wire::{DaemonStatus, GraphSource};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The fleet sizes the acceptance bar names.
const FLEETS: [usize; 3] = [1, 4, 16];
/// Worker threads for the in-process daemon — fixed (not num_cpus) so
/// rps/latency figures compare across machines and CI legs.
const WORKERS: usize = 4;
/// One-shot solves per client in the standard run.
const SOLVES_STANDARD: usize = 6;
/// Session updates per client in the standard run.
const UPDATES_STANDARD: usize = 4;
/// Node count of the per-request graphs (degree stays 4).
const NODES_STANDARD: usize = 40;

fn smoke_mode() -> bool {
    std::env::var("DECO_SERVE_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Where a sweep's clients connect: a daemon this process owns, or an
/// external one named by `DECO_SERVE_LOAD_ADDR`.
enum Target {
    InProc(ServerHandle),
    Remote(ServeAddr),
}

impl Target {
    fn connect(&self) -> Client {
        match self {
            Target::InProc(handle) => handle.connect().expect("in-process connect"),
            Target::Remote(addr) => Client::connect(addr).expect("dial external daemon"),
        }
    }

    fn status(&self) -> DaemonStatus {
        match self {
            Target::InProc(handle) => handle.status(),
            Target::Remote(_) => self.connect().status().expect("status request"),
        }
    }
}

/// One client's workload: `solves` one-shot solves, then a churn
/// session (open, `updates` alternating remove/insert updates on the
/// first edge, close). Returns the latency of every terminal request.
fn client_workload(
    target: &Target,
    fleet: usize,
    cid: usize,
    solves: usize,
    updates: usize,
    nodes: usize,
) -> Vec<Duration> {
    let mut client = target.connect();
    let mut lat = Vec::with_capacity(solves + updates + 2);
    let timed = |client: &mut Client, f: &mut dyn FnMut(&mut Client)| {
        let t0 = Instant::now();
        f(client);
        t0.elapsed()
    };
    for r in 0..solves {
        // Vary size and seed per request so the daemon never sees the
        // exact same frame twice from one client.
        let g = generators::random_regular(nodes + 2 * (r % 4), 4, (cid * 31 + r) as u64 + 1);
        let d = timed(&mut client, &mut |c| {
            c.solve(GraphSource::from_graph(&g), None, false)
                .expect("solve request completes")
                .into_report()
                .expect("solve succeeds");
        });
        lat.push(d);
    }

    let g = generators::random_regular(nodes, 4, cid as u64 + 101);
    let name = format!("load-n{fleet}-c{cid}");
    let d = timed(&mut client, &mut |c| {
        c.open_session(&name, GraphSource::from_graph(&g), None)
            .expect("open_session completes")
            .into_report()
            .expect("session opens");
    });
    lat.push(d);
    for k in 0..updates {
        let upd = toggle(&g, k);
        let d = timed(&mut client, &mut |c| {
            c.update(&name, upd)
                .expect("update completes")
                .into_update()
                .expect("update succeeds");
        });
        lat.push(d);
    }
    let d = timed(&mut client, &mut |c| {
        c.close_session(&name).expect("close_session completes");
    });
    lat.push(d);
    lat
}

/// The k-th update of the session trace: the first edge toggled out and
/// back in, so the trace is valid from any starting graph.
fn toggle(g: &Graph, k: usize) -> EdgeUpdate {
    let [u, v] = g.endpoints(EdgeId::from(0usize));
    if k.is_multiple_of(2) {
        EdgeUpdate::remove(u, v)
    } else {
        EdgeUpdate::insert(u, v)
    }
}

struct Sweep {
    fleet: usize,
    requests: u64,
    wall: Duration,
    /// Sorted ascending.
    latencies: Vec<Duration>,
    max_queue_depth: u64,
    errors: u64,
}

impl Sweep {
    fn rps(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.requests as f64 / self.wall.as_secs_f64()
        }
    }

    fn percentile(&self, q: f64) -> Duration {
        match self.latencies.len() {
            0 => Duration::ZERO,
            n => self.latencies[((n - 1) as f64 * q).round() as usize],
        }
    }
}

/// Drives one fleet of `fleet` clients and gathers the sweep numbers.
fn run_sweep(fleet: usize, solves: usize, updates: usize, nodes: usize) -> Sweep {
    let external = std::env::var("DECO_SERVE_LOAD_ADDR")
        .ok()
        .filter(|v| !v.is_empty());
    let target = match &external {
        Some(raw) => Target::Remote(
            ServeAddr::parse(raw).expect("DECO_SERVE_LOAD_ADDR parses as a serve address"),
        ),
        None => Target::InProc(
            Server::start(ServeConfig {
                workers: WORKERS,
                runtime: Runtime::serial(),
                ..ServeConfig::default()
            })
            .expect("in-process daemon starts"),
        ),
    };

    let t0 = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..fleet)
            .map(|cid| {
                let target = &target;
                scope.spawn(move || client_workload(target, fleet, cid, solves, updates, nodes))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread completes"))
            .collect()
    });
    let wall = t0.elapsed();
    let status = target.status();
    latencies.sort_unstable();
    if let Target::InProc(handle) = target {
        handle.stop();
    }
    Sweep {
        fleet,
        requests: latencies.len() as u64,
        wall,
        latencies,
        max_queue_depth: status.max_queue_depth,
        errors: status.errors,
    }
}

/// Runs the experiment and returns the report.
pub fn run(rt: &Runtime) -> String {
    let smoke = smoke_mode();
    let (solves, updates, nodes) = if smoke {
        (2, 2, 16)
    } else {
        (SOLVES_STANDARD, UPDATES_STANDARD, NODES_STANDARD)
    };
    let external = std::env::var("DECO_SERVE_LOAD_ADDR")
        .ok()
        .filter(|v| !v.is_empty());
    let mut out = String::from("# serve-load — daemon throughput under concurrent clients\n\n");
    let _ = writeln!(
        out,
        "{} workload: per client {solves} solves (random 4-regular, ~{nodes} \
         nodes) + 1 session ({updates} updates); fleets of {FLEETS:?} clients; \
         target: {}. Ambient engine {} is not used — the daemon solves on its \
         own engine so the series stay comparable.\n",
        if smoke { "smoke" } else { "standard" },
        match &external {
            Some(addr) => format!("external daemon at {addr} (lifetime queue high-water)"),
            None => format!("fresh in-process daemon per fleet (serial engine, {WORKERS} workers)"),
        },
        rt.descriptor(),
    );

    let mut t = Table::new([
        "clients",
        "requests",
        "wall",
        "req/s",
        "p50",
        "p95",
        "max queue",
        "errors",
    ]);
    for fleet in FLEETS {
        let sweep = run_sweep(fleet, solves, updates, nodes);
        assert_eq!(
            sweep.requests,
            (fleet * (solves + updates + 2)) as u64,
            "every request of every client must get a terminal response"
        );
        t.row([
            sweep.fleet.to_string(),
            sweep.requests.to_string(),
            format!("{:.1?}", sweep.wall),
            format!("{:.0}", sweep.rps()),
            format!("{:.1?}", sweep.percentile(0.50)),
            format!("{:.1?}", sweep.percentile(0.95)),
            sweep.max_queue_depth.to_string(),
            sweep.errors.to_string(),
        ]);
    }
    out.push_str(&t.render());

    let _ = writeln!(
        out,
        "\nEvery request above is one newline-delimited frame and one terminal \
         response; latency is measured request-out to terminal-in at the \
         client, so it includes queue wait — watch p95 diverge from p50 as the \
         fleet outgrows the worker pool.",
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke_sweep_serves_every_fleet() {
        std::env::set_var("DECO_SERVE_SMOKE", "1");
        let r = super::run(&deco_runtime::Runtime::serial());
        for fleet in super::FLEETS {
            assert!(
                r.contains(&format!("| {fleet} ")),
                "fleet {fleet} row missing:\n{r}"
            );
        }
        assert!(r.contains("p95"), "report:\n{r}");
    }
}
