//! The daemon: acceptor, bounded request queue, worker pool, sessions,
//! progress monitor, and drain-on-shutdown.
//!
//! ## Request lifecycle
//!
//! A detached reader thread per connection parses request lines.
//! `status` is answered inline (it must work while every worker is busy);
//! `shutdown` runs the drain; everything else is enqueued on the bounded
//! queue, where a pool of workers — each executing requests through a
//! [`Runtime`] — picks it up. The worker sends the terminal response
//! frame (report, update report, or structured error) over the
//! connection's shared writer; a `progress: true` solve additionally gets
//! an immediate `progress` frame when execution starts plus periodic ones
//! from the monitor thread while it runs.
//!
//! Nothing a client does can crash or wedge the daemon: malformed lines
//! become `malformed` error frames, a full queue answers `queue_full`
//! without blocking the reader, worker panics are caught and answered
//! with `internal`, and a client that disconnects mid-solve merely makes
//! the worker's response write fail — the worker moves on. Sessions are
//! owned by the connection that opened them: other connections get
//! `unknown_session`, and a disconnect closes the connection's sessions.
//!
//! ## Drain semantics
//!
//! `shutdown` flips the daemon into draining mode: new work is refused
//! with `draining`, already-queued and in-flight requests run to
//! completion, and only when the queue is empty and every worker idle
//! does the daemon send `shutting_down` and stop its threads.

use crate::client::Client;
use crate::config::ServeConfig;
use crate::transport::{dial, InProcConnector, Listener, ServeAddr};
use crate::wire::{
    DaemonStatus, ErrorCode, GraphSource, Request, RequestFrame, Response, ResponseFrame,
};
use deco_core::jsonl::{RunReportLine, UpdateReportLine};
use deco_core::solver::{solve_two_delta_minus_one, SolverConfig};
use deco_core::Session;
use deco_graph::{EdgeUpdate, Graph};
use deco_runtime::{Engine, Runtime};
use deco_trace::json::Fields;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks through poison: a panicking worker must not take the daemon's
/// shared state down with it (the panic itself is already caught and
/// answered; the data under these locks stays consistent because every
/// critical section completes its writes before running fallible code).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The write half of one client connection, shared by the reader thread,
/// the workers, and the progress monitor.
struct ConnOut {
    id: u64,
    w: Mutex<Box<dyn Write + Send>>,
}

type Conn = Arc<ConnOut>;

/// One queued request.
struct Job {
    conn: Conn,
    id: String,
    enqueued: Instant,
    work: Work,
}

/// The queueable requests (status and shutdown never queue).
enum Work {
    Solve {
        graph: GraphSource,
        engine: Option<String>,
        progress: bool,
    },
    OpenSession {
        session: String,
        graph: GraphSource,
        engine: Option<String>,
    },
    Update {
        session: String,
        update: EdgeUpdate,
    },
    CloseSession {
        session: String,
    },
    Ping {
        delay_ms: u64,
    },
}

/// Queue state guarded by one mutex so "queue empty and no worker busy"
/// is a single observable condition for the drain.
struct QueueState {
    jobs: VecDeque<Job>,
    active: usize,
}

/// An open session: the connection that owns it, the session behind its
/// own mutex (updates to one session serialize; distinct sessions run in
/// parallel), and its update counter.
#[derive(Clone)]
struct SessionHandle {
    owner: u64,
    session: Arc<Mutex<Session>>,
    updates: Arc<AtomicU64>,
}

/// A solve currently executing, for the progress monitor.
struct ActiveSolve {
    conn: Conn,
    id: String,
    phase: &'static str,
    started: Instant,
    progress: bool,
}

struct Shared {
    runtime: Runtime,
    workers: usize,
    queue_bound: usize,
    progress_interval: Duration,
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    idle: Condvar,
    stop: AtomicBool,
    draining: AtomicBool,
    sessions: Mutex<HashMap<String, SessionHandle>>,
    actives: Mutex<Vec<ActiveSolve>>,
    conn_counter: AtomicU64,
    served: AtomicU64,
    errors: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    max_queue_depth: AtomicU64,
}

impl Shared {
    fn status(&self) -> DaemonStatus {
        let q = lock(&self.queue);
        let sessions = lock(&self.sessions).len() as u64;
        DaemonStatus {
            workers: self.workers as u64,
            queue_bound: self.queue_bound as u64,
            queued: q.jobs.len() as u64,
            active: q.active as u64,
            sessions,
            served: self.served.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            engine: self.runtime.descriptor(),
            draining: self.draining.load(Ordering::Relaxed),
        }
    }
}

/// Sends one response frame: counts it at canonical cost (see
/// [`crate::wire`]), then writes the real encoding. A failed write means
/// the client is gone; the daemon does not care.
fn send(shared: &Shared, conn: &ConnOut, frame: &ResponseFrame) {
    shared.frames_out.fetch_add(1, Ordering::Relaxed);
    shared
        .bytes_out
        .fetch_add(frame.wire_cost(), Ordering::Relaxed);
    if matches!(frame.resp, Response::Error { .. }) {
        shared.errors.fetch_add(1, Ordering::Relaxed);
    }
    // Counters are bumped before the write so that by the time a client
    // holds a terminal response, a status snapshot already reflects it.
    if frame.is_terminal() {
        shared.served.fetch_add(1, Ordering::Relaxed);
    }
    let line = frame.encode();
    let mut w = lock(&conn.w);
    let _ = w
        .write_all(line.as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .and_then(|()| w.flush());
}

fn send_error(shared: &Shared, conn: &ConnOut, id: &str, code: ErrorCode, message: String) {
    send(
        shared,
        conn,
        &ResponseFrame {
            id: id.to_string(),
            resp: Response::Error {
                code,
                message,
                solve: None,
            },
        },
    );
}

/// The daemon. [`Server::start`] binds, spawns the thread complement, and
/// returns a [`ServerHandle`].
pub struct Server;

/// A running daemon: its resolved address, a way to connect, and its
/// thread handles.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: ServeAddr,
    connector: Option<InProcConnector>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts the acceptor, the worker pool, and
    /// (when enabled) the progress monitor.
    ///
    /// # Errors
    ///
    /// Bind and thread-spawn failures.
    pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
        let workers = config.effective_workers();
        let (listener, addr, connector) = Listener::bind(&config.addr)?;
        let shared = Arc::new(Shared {
            runtime: config.runtime,
            workers,
            queue_bound: config.queue_bound,
            progress_interval: config.progress_interval,
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                active: 0,
            }),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
            actives: Mutex::new(Vec::new()),
            conn_counter: AtomicU64::new(0),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
        });
        let mut threads = Vec::with_capacity(workers + 2);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("deco-serve-worker-{i}"))
                    .spawn(move || worker(&shared))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("deco-serve-accept".to_string())
                    .spawn(move || acceptor(&shared, &listener))?,
            );
        }
        if !shared.progress_interval.is_zero() {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("deco-serve-progress".to_string())
                    .spawn(move || monitor(&shared))?,
            );
        }
        Ok(ServerHandle {
            shared,
            addr,
            connector,
            threads,
        })
    }
}

impl ServerHandle {
    /// The resolved listen address (ephemeral TCP ports materialized).
    pub fn addr(&self) -> &ServeAddr {
        &self.addr
    }

    /// Opens a client connection to this daemon — through the in-process
    /// connector for [`ServeAddr::InProc`], by dialing otherwise.
    ///
    /// # Errors
    ///
    /// Connect failures.
    pub fn connect(&self) -> io::Result<Client> {
        let duplex = match &self.connector {
            Some(c) => c.connect()?,
            None => dial(&self.addr)?,
        };
        Ok(Client::from_duplex(duplex))
    }

    /// A status snapshot straight off the shared state (no wire round
    /// trip) — what the load harness samples for queue depth.
    pub fn status(&self) -> DaemonStatus {
        self.shared.status()
    }

    /// Whether the daemon has fully stopped (a drained shutdown
    /// completed or [`ServerHandle::stop`] ran).
    pub fn stopped(&self) -> bool {
        self.shared.stop.load(Ordering::Relaxed)
    }

    /// Waits until a client-initiated `shutdown` (or [`Self::stop`])
    /// stops the daemon — the `deco-serve` binary's whole foreground.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Hard stop for tests: refuses new work, abandons queued jobs
    /// (in-flight requests still finish), and joins the threads.
    pub fn stop(mut self) {
        self.shared.draining.store(true, Ordering::Relaxed);
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.work_ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.draining.store(true, Ordering::Relaxed);
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.work_ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn acceptor(shared: &Arc<Shared>, listener: &Listener) {
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.poll_accept() {
            Ok(Some(duplex)) => {
                let conn_id = shared.conn_counter.fetch_add(1, Ordering::Relaxed);
                let conn = Arc::new(ConnOut {
                    id: conn_id,
                    w: Mutex::new(duplex.writer),
                });
                let shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("deco-serve-conn-{conn_id}"))
                    .spawn(move || serve_conn(&shared, &conn, duplex.reader));
                if spawned.is_err() {
                    // Out of threads: the connection is dropped; the
                    // client sees EOF and can retry.
                    continue;
                }
            }
            Ok(None) | Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn monitor(shared: &Arc<Shared>) {
    let interval = shared.progress_interval;
    let mut last = Instant::now();
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(25));
        if last.elapsed() < interval {
            continue;
        }
        last = Instant::now();
        let ticks: Vec<(Conn, String, &'static str, Instant)> = lock(&shared.actives)
            .iter()
            .filter(|a| a.progress)
            .map(|a| (Arc::clone(&a.conn), a.id.clone(), a.phase, a.started))
            .collect();
        for (conn, id, phase, started) in ticks {
            send(
                shared,
                &conn,
                &ResponseFrame {
                    id,
                    resp: Response::Progress {
                        phase: phase.to_string(),
                        elapsed_ms: started.elapsed().as_millis() as u64,
                    },
                },
            );
        }
    }
}

/// Reader loop for one connection. Runs on a detached thread; exits on
/// EOF or a read error, then closes the connection's sessions.
fn serve_conn(shared: &Arc<Shared>, conn: &Conn, reader: Box<dyn Read + Send>) {
    let mut reader = BufReader::new(reader);
    let mut buf = String::new();
    loop {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = buf.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            continue;
        }
        shared.frames_in.fetch_add(1, Ordering::Relaxed);
        shared
            .bytes_in
            .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
        let frame = match RequestFrame::parse(line) {
            Ok(f) => f,
            Err(msg) => {
                send_error(
                    shared,
                    conn,
                    &best_effort_id(line),
                    ErrorCode::Malformed,
                    msg,
                );
                continue;
            }
        };
        match frame.req {
            Request::Status => {
                send(
                    shared,
                    conn,
                    &ResponseFrame {
                        id: frame.id,
                        resp: Response::Status(shared.status()),
                    },
                );
            }
            Request::Shutdown => {
                drain_and_stop(shared, conn, &frame.id);
                break;
            }
            Request::Solve {
                graph,
                engine,
                progress,
            } => enqueue(
                shared,
                conn,
                frame.id,
                Work::Solve {
                    graph,
                    engine,
                    progress,
                },
            ),
            Request::OpenSession {
                session,
                graph,
                engine,
            } => enqueue(
                shared,
                conn,
                frame.id,
                Work::OpenSession {
                    session,
                    graph,
                    engine,
                },
            ),
            Request::Update { session, update } => {
                enqueue(shared, conn, frame.id, Work::Update { session, update });
            }
            Request::CloseSession { session } => {
                enqueue(shared, conn, frame.id, Work::CloseSession { session });
            }
            Request::Ping { delay_ms } => {
                enqueue(shared, conn, frame.id, Work::Ping { delay_ms });
            }
        }
    }
    // Sessions die with the connection that owns them.
    lock(&shared.sessions).retain(|_, h| h.owner != conn.id);
}

/// Pulls an `id` out of a line that failed full parsing, so even a
/// malformed request gets an attributable error frame: first the strict
/// parser (the line may be schema-invalid but syntactically fine), then
/// a plain-text scan for `"id":"…"` (the line may be syntactically
/// broken further along). Escaped ids are only recovered by the strict
/// path; the scan stops at the first quote.
fn best_effort_id(line: &str) -> String {
    if let Ok(fields) = Fields::parse(line) {
        if let Ok(id) = fields.str("id") {
            return id.to_string();
        }
    }
    line.split_once("\"id\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .map(|(id, _)| id.to_string())
        .filter(|id| !id.contains('\\'))
        .unwrap_or_default()
}

fn enqueue(shared: &Arc<Shared>, conn: &Conn, id: String, work: Work) {
    let mut q = lock(&shared.queue);
    if shared.draining.load(Ordering::Relaxed) {
        drop(q);
        send_error(
            shared,
            conn,
            &id,
            ErrorCode::Draining,
            "daemon is draining for shutdown".to_string(),
        );
        return;
    }
    if q.jobs.len() >= shared.queue_bound {
        drop(q);
        send_error(
            shared,
            conn,
            &id,
            ErrorCode::QueueFull,
            format!("request queue is full ({} queued)", shared.queue_bound),
        );
        return;
    }
    q.jobs.push_back(Job {
        conn: Arc::clone(conn),
        id,
        enqueued: Instant::now(),
        work,
    });
    shared
        .max_queue_depth
        .fetch_max(q.jobs.len() as u64, Ordering::Relaxed);
    drop(q);
    shared.work_ready.notify_one();
}

/// The drain: refuse new work, wait for queue-empty-and-all-idle, answer
/// `shutting_down`, stop the threads.
fn drain_and_stop(shared: &Arc<Shared>, conn: &Conn, id: &str) {
    shared.draining.store(true, Ordering::Relaxed);
    let mut q = lock(&shared.queue);
    while !(q.jobs.is_empty() && q.active == 0) {
        q = shared.idle.wait(q).unwrap_or_else(|p| p.into_inner());
    }
    drop(q);
    send(
        shared,
        conn,
        &ResponseFrame {
            id: id.to_string(),
            resp: Response::ShuttingDown {
                served: shared.served.load(Ordering::Relaxed),
            },
        },
    );
    shared.stop.store(true, Ordering::Relaxed);
    shared.work_ready.notify_all();
}

fn worker(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = q.jobs.pop_front() {
                    q.active += 1;
                    break job;
                }
                q = shared.work_ready.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        };
        let queue_ns = job.enqueued.elapsed().as_nanos() as u64;
        let outcome = catch_unwind(AssertUnwindSafe(|| run_work(shared, &job, queue_ns)));
        if outcome.is_err() {
            // The request died; the daemon did not.
            send_error(
                shared,
                &job.conn,
                &job.id,
                ErrorCode::Internal,
                "worker panicked executing the request".to_string(),
            );
        }
        let mut q = lock(&shared.queue);
        q.active -= 1;
        if q.jobs.is_empty() && q.active == 0 {
            shared.idle.notify_all();
        }
    }
}

/// Registers a running solve with the progress monitor for the guard's
/// lifetime.
struct ActiveGuard<'a> {
    shared: &'a Shared,
    conn_id: u64,
    id: String,
}

impl<'a> ActiveGuard<'a> {
    fn register(
        shared: &'a Shared,
        job: &Job,
        phase: &'static str,
        progress: bool,
    ) -> ActiveGuard<'a> {
        let started = Instant::now();
        lock(&shared.actives).push(ActiveSolve {
            conn: Arc::clone(&job.conn),
            id: job.id.clone(),
            phase,
            started,
            progress,
        });
        if progress {
            // One deterministic progress frame at execution start; the
            // monitor adds periodic ones while the solve runs.
            send(
                shared,
                &job.conn,
                &ResponseFrame {
                    id: job.id.clone(),
                    resp: Response::Progress {
                        phase: phase.to_string(),
                        elapsed_ms: 0,
                    },
                },
            );
        }
        ActiveGuard {
            shared,
            conn_id: job.conn.id,
            id: job.id.clone(),
        }
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        lock(&self.shared.actives).retain(|a| !(a.conn.id == self.conn_id && a.id == self.id));
    }
}

fn resolve_runtime(shared: &Shared, engine: &Option<String>) -> Result<Runtime, String> {
    match engine {
        None => Ok(shared.runtime),
        Some(desc) => desc
            .parse::<Engine>()
            .map(Runtime::new)
            .map_err(|e| format!("bad engine descriptor {desc:?}: {e}")),
    }
}

fn node_ids(g: &Graph) -> Vec<u64> {
    (1..=g.num_nodes() as u64).collect()
}

fn run_work(shared: &Shared, job: &Job, queue_ns: u64) {
    match &job.work {
        Work::Solve {
            graph,
            engine,
            progress,
        } => {
            let rt = match resolve_runtime(shared, engine) {
                Ok(rt) => rt,
                Err(msg) => {
                    return send_error(shared, &job.conn, &job.id, ErrorCode::Malformed, msg)
                }
            };
            let g = match graph.load() {
                Ok(g) => g,
                Err(msg) => return send_error(shared, &job.conn, &job.id, ErrorCode::Graph, msg),
            };
            let _active = ActiveGuard::register(shared, job, "solve", *progress);
            match solve_two_delta_minus_one(&g, &node_ids(&g), SolverConfig::default(), &rt) {
                Ok(report) => send(
                    shared,
                    &job.conn,
                    &ResponseFrame {
                        id: job.id.clone(),
                        resp: Response::Report {
                            queue_ns,
                            line: RunReportLine::from_report(&report),
                        },
                    },
                ),
                Err(e) => send(
                    shared,
                    &job.conn,
                    &ResponseFrame {
                        id: job.id.clone(),
                        resp: Response::Error {
                            code: ErrorCode::Solve,
                            message: e.to_string(),
                            solve: Some(e),
                        },
                    },
                ),
            }
        }
        Work::OpenSession {
            session,
            graph,
            engine,
        } => {
            let rt = match resolve_runtime(shared, engine) {
                Ok(rt) => rt,
                Err(msg) => {
                    return send_error(shared, &job.conn, &job.id, ErrorCode::Malformed, msg)
                }
            };
            let g = match graph.load() {
                Ok(g) => g,
                Err(msg) => return send_error(shared, &job.conn, &job.id, ErrorCode::Graph, msg),
            };
            if lock(&shared.sessions).contains_key(session) {
                return send_error(
                    shared,
                    &job.conn,
                    &job.id,
                    ErrorCode::Malformed,
                    format!("session {session:?} is already open"),
                );
            }
            let _active = ActiveGuard::register(shared, job, "open_session", false);
            match Session::open(&g, &node_ids(&g), SolverConfig::default(), &rt) {
                Ok(mut s) => {
                    let line = RunReportLine::from_report(&s.report());
                    // A racing open of the same name may have landed
                    // while we solved; first insert wins.
                    let mut sessions = lock(&shared.sessions);
                    if sessions.contains_key(session) {
                        drop(sessions);
                        return send_error(
                            shared,
                            &job.conn,
                            &job.id,
                            ErrorCode::Malformed,
                            format!("session {session:?} is already open"),
                        );
                    }
                    sessions.insert(
                        session.clone(),
                        SessionHandle {
                            owner: job.conn.id,
                            session: Arc::new(Mutex::new(s)),
                            updates: Arc::new(AtomicU64::new(0)),
                        },
                    );
                    drop(sessions);
                    send(
                        shared,
                        &job.conn,
                        &ResponseFrame {
                            id: job.id.clone(),
                            resp: Response::SessionOpened {
                                session: session.clone(),
                                queue_ns,
                                line,
                            },
                        },
                    );
                }
                Err(e) => send(
                    shared,
                    &job.conn,
                    &ResponseFrame {
                        id: job.id.clone(),
                        resp: Response::Error {
                            code: ErrorCode::Solve,
                            message: e.to_string(),
                            solve: Some(e),
                        },
                    },
                ),
            }
        }
        Work::Update { session, update } => {
            let Some(handle) = owned_session(shared, session, job.conn.id) else {
                return send_error(
                    shared,
                    &job.conn,
                    &job.id,
                    ErrorCode::UnknownSession,
                    format!("no session {session:?} on this connection"),
                );
            };
            let result = lock(&handle.session).apply(*update);
            match result {
                Ok(report) => {
                    handle.updates.fetch_add(1, Ordering::Relaxed);
                    send(
                        shared,
                        &job.conn,
                        &ResponseFrame {
                            id: job.id.clone(),
                            resp: Response::Updated {
                                session: session.clone(),
                                queue_ns,
                                line: UpdateReportLine::from_report(&report),
                            },
                        },
                    );
                }
                Err(e) => send_error(shared, &job.conn, &job.id, ErrorCode::Graph, e.to_string()),
            }
        }
        Work::CloseSession { session } => {
            let mut sessions = lock(&shared.sessions);
            let owned = sessions
                .get(session)
                .is_some_and(|h| h.owner == job.conn.id);
            if !owned {
                drop(sessions);
                return send_error(
                    shared,
                    &job.conn,
                    &job.id,
                    ErrorCode::UnknownSession,
                    format!("no session {session:?} on this connection"),
                );
            }
            let handle = sessions.remove(session).expect("checked above");
            drop(sessions);
            send(
                shared,
                &job.conn,
                &ResponseFrame {
                    id: job.id.clone(),
                    resp: Response::SessionClosed {
                        session: session.clone(),
                        updates: handle.updates.load(Ordering::Relaxed),
                    },
                },
            );
        }
        Work::Ping { delay_ms } => {
            if *delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(*delay_ms));
            }
            send(
                shared,
                &job.conn,
                &ResponseFrame {
                    id: job.id.clone(),
                    resp: Response::Pong,
                },
            );
        }
    }
}

fn owned_session(shared: &Shared, name: &str, conn_id: u64) -> Option<SessionHandle> {
    lock(&shared.sessions)
        .get(name)
        .filter(|h| h.owner == conn_id)
        .cloned()
}
