//! The daemon: TCP accept loop, per-connection protocol handling, and the
//! graceful-shutdown state machine.
//!
//! Request lifecycle for `sweep`:
//!
//! ```text
//! decode canonical instance ──► fingerprint ──► quarantine check
//!     quarantined → `internal` (poisoned fingerprint, never re-solved)
//! ──► cache claim
//!     Hit        → answer from cache, no solve
//!     Coalesced  → block on the in-flight leader's publication
//!     Leader     → persistent store lookup (hit → answer + warm the cache)
//!                  else admit to the bounded queue
//!                    Full   → shed: `overloaded` + retry_after_ms
//!                    Closed → `shutting_down`
//!                    Ok     → worker solves (warm ctx per scope), publishes
//!                             deadline blown mid-solve → answer the
//!                             degraded floor now; the worker still
//!                             fulfills the cache for everyone else
//! ```
//!
//! Shutdown (`shutdown` op or [`Server::shutdown`]): the accept loop stops,
//! new sweeps are refused with `shutting_down`, the queue closes, and the
//! workers drain every admitted job — leaders and their coalesced followers
//! all receive real responses before the process exits. No accepted job is
//! dropped. The post-drain wait for connection threads is bounded by
//! [`ServerConfig::drain_deadline_ms`].
//!
//! Fault injection: [`ServerConfig::fault_plan`] (or the `PCAP_FAULT_PLAN`
//! environment variable) arms the process-wide [`FaultInjector`] that the
//! solve path, the store, and the connection handler consult.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use pcap_core::{Instance, SweepOptions};

use crate::cache::{Claim, ResultCache};
use crate::fault::{FaultInjector, FaultPoint};
use crate::metrics::Metrics;
use crate::pool::{
    abandon_job, degraded_reply, Job, JobQueue, PushError, Quarantine, SweepReply, WorkerEnv,
    WorkerPool,
};
use crate::protocol::{
    error_response, parse_request, render_object, ErrorCode, ProtoError, Request, MAX_LINE_BYTES,
};
use crate::store::Store;

/// Fixed retry hint carried by `overloaded` responses, milliseconds.
pub const SHED_RETRY_MS: u64 = 250;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (tests, CI).
    pub addr: String,
    /// Solver worker threads.
    pub workers: usize,
    /// Admission queue capacity; beyond it, requests are shed.
    pub queue_cap: usize,
    /// Ready-entry capacity of the result cache (LRU beyond it).
    pub cache_cap: usize,
    /// Per-request line size cap, bytes.
    pub max_line_bytes: usize,
    /// Certify every warm-started solve against a cold re-solve.
    pub certify: bool,
    /// Bound on the post-drain wait for connection threads during
    /// [`Server::wait`], milliseconds.
    pub drain_deadline_ms: u64,
    /// Solver panics from one fingerprint before it is quarantined.
    pub quarantine_strikes: u32,
    /// Root of the persistent result store; `None` disables persistence.
    pub store_path: Option<PathBuf>,
    /// Fault plan text; `None` falls back to `PCAP_FAULT_PLAN` (unset ⇒
    /// injection disabled, the production default).
    pub fault_plan: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 64,
            cache_cap: 256,
            max_line_bytes: MAX_LINE_BYTES,
            certify: false,
            drain_deadline_ms: 10_000,
            quarantine_strikes: 2,
            store_path: None,
            fault_plan: None,
        }
    }
}

struct Shared {
    cfg: ServerConfig,
    shutting_down: AtomicBool,
    cache: Arc<ResultCache>,
    metrics: Arc<Metrics>,
    queue: Arc<JobQueue>,
    injector: Arc<FaultInjector>,
    quarantine: Arc<Quarantine>,
    store: Option<Arc<Store>>,
    active_conns: AtomicUsize,
    local_addr: SocketAddr,
}

/// A running daemon. Dropping without [`Server::wait`] detaches the
/// threads; the intended lifecycle is `start` → (`shutdown`) → `wait`.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    pool: Option<WorkerPool>,
}

impl Server {
    /// Binds, spawns the worker pool and accept loop, and returns
    /// immediately. Fails on an unparseable fault plan or an unusable
    /// store path.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let plan_text = cfg.fault_plan.clone().or_else(|| std::env::var("PCAP_FAULT_PLAN").ok());
        let injector =
            FaultInjector::from_plan_text(plan_text.as_deref()).map(Arc::new).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("fault plan: {e}"))
            })?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let cache = Arc::new(ResultCache::new(cfg.cache_cap));
        let metrics = Arc::new(Metrics::new());
        let quarantine = Arc::new(Quarantine::new(cfg.quarantine_strikes));
        let store = match &cfg.store_path {
            Some(path) => {
                let store = Store::open(path.clone(), Arc::clone(&injector))?;
                let report = store.recovery();
                metrics.store_recovered.store(report.recovered, Ordering::Relaxed);
                metrics.store_quarantined.store(report.quarantined, Ordering::Relaxed);
                Some(Arc::new(store))
            }
            None => None,
        };
        let sweep_opts = SweepOptions {
            workers: 1, // each pool worker solves its grid sequentially
            certify: cfg.certify,
            ..SweepOptions::default()
        };
        let env = WorkerEnv {
            cache: Arc::clone(&cache),
            metrics: Arc::clone(&metrics),
            opts: sweep_opts,
            injector: Arc::clone(&injector),
            quarantine: Arc::clone(&quarantine),
            store: store.clone(),
        };
        let pool = WorkerPool::start(cfg.workers, cfg.queue_cap, env);
        let shared = Arc::new(Shared {
            cfg,
            shutting_down: AtomicBool::new(false),
            cache,
            metrics,
            queue: Arc::clone(pool.queue()),
            injector,
            quarantine,
            store,
            active_conns: AtomicUsize::new(0),
            local_addr,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("pcap-acceptor".into())
                .spawn(move || accept_loop(listener, shared))?
        };
        Ok(Server { shared, acceptor: Some(acceptor), pool: Some(pool) })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Shared metrics handle (tests, embedding).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.shared.metrics
    }

    /// The process-wide fault injector (tests assert plan drain).
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.shared.injector
    }

    /// The persistent store, when configured.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.shared.store.as_ref()
    }

    /// Triggers graceful shutdown; idempotent, returns immediately.
    /// [`Server::wait`] performs the actual drain.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.shared);
    }

    /// Blocks until shutdown is triggered (by [`Server::shutdown`] or a
    /// client `shutdown` op), then drains: closes admission, lets workers
    /// finish every admitted job, and joins all server threads.
    pub fn wait(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
        // Connection threads exit on their next read-timeout tick (or as
        // soon as their drained reply is written); give them a bounded
        // window rather than joining detached handles.
        let deadline = Instant::now() + Duration::from_millis(self.shared.cfg.drain_deadline_ms);
        while self.shared.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
    }

    /// Convenience: trigger shutdown and drain.
    pub fn stop(self) {
        self.shutdown();
        self.wait();
    }
}

fn trigger_shutdown(shared: &Shared) {
    if !shared.shutting_down.swap(true, Ordering::SeqCst) {
        // Unblock the accept loop; the flag is already set, so this dummy
        // connection is observed only as "time to exit".
        let _ = TcpStream::connect(shared.local_addr);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                shared.active_conns.fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(&shared);
                let _ = thread::Builder::new().name("pcap-conn".into()).spawn(move || {
                    handle_conn(stream, &shared);
                    shared.active_conns.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

enum ReadOutcome {
    Line(String),
    TooLarge,
    Closed,
}

/// Reads one `\n`-terminated line with a hard size cap. An oversized line
/// is consumed to its end (O(1) memory) and reported as [`ReadOutcome::TooLarge`]
/// so the connection stays usable. Read timeouts double as shutdown-poll
/// ticks.
fn read_line_capped(
    reader: &mut BufReader<TcpStream>,
    max: usize,
    shutting_down: &AtomicBool,
) -> ReadOutcome {
    let mut buf: Vec<u8> = Vec::new();
    let mut discarding = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if shutting_down.load(Ordering::SeqCst) {
                    return ReadOutcome::Closed;
                }
                continue;
            }
            Err(_) => return ReadOutcome::Closed,
        };
        if chunk.is_empty() {
            return ReadOutcome::Closed; // EOF
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if !discarding {
                    buf.extend_from_slice(&chunk[..pos]);
                }
                reader.consume(pos + 1);
                if discarding || buf.len() > max {
                    return ReadOutcome::TooLarge;
                }
                let mut line = String::from_utf8_lossy(&buf).into_owned();
                if line.ends_with('\r') {
                    line.pop();
                }
                return ReadOutcome::Line(line);
            }
            None => {
                let len = chunk.len();
                if !discarding {
                    buf.extend_from_slice(chunk);
                    if buf.len() > max {
                        discarding = true;
                        buf.clear();
                    }
                }
                reader.consume(len);
            }
        }
    }
}

fn handle_conn(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_line_capped(&mut reader, shared.cfg.max_line_bytes, &shared.shutting_down) {
            ReadOutcome::Closed => break,
            ReadOutcome::TooLarge => {
                shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                let err = ProtoError::new(
                    ErrorCode::TooLarge,
                    format!("request exceeds {} bytes", shared.cfg.max_line_bytes),
                );
                record_error(shared, &err);
                if write_line(&mut writer, &error_response(&err)).is_err() {
                    break;
                }
            }
            ReadOutcome::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                // Injected connection drop: close without a response, the
                // exact failure a crashed peer or flaky network produces.
                // Clients must survive it via retry.
                if shared.injector.fire(FaultPoint::DropConn).is_some() {
                    shared.metrics.injected_disconnects.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                let (response, shutdown_after) = handle_line(shared, &line);
                if write_line(&mut writer, &response).is_err() {
                    break;
                }
                if shutdown_after {
                    trigger_shutdown(shared);
                    break;
                }
            }
        }
    }
}

fn write_line(w: &mut TcpStream, line: &str) -> std::io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Bumps the per-code rejection counter.
fn record_error(shared: &Shared, err: &ProtoError) {
    let counter = match err.code {
        ErrorCode::Parse => &shared.metrics.parse_errors,
        ErrorCode::TooLarge => &shared.metrics.too_large,
        ErrorCode::BadInstance => &shared.metrics.bad_instance,
        ErrorCode::Overloaded => &shared.metrics.shed,
        ErrorCode::ShuttingDown => &shared.metrics.rejected_shutdown,
        ErrorCode::Internal => return,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Parses and executes one request line; returns the response line and
/// whether to trigger shutdown afterwards.
fn handle_line(shared: &Shared, line: &str) -> (String, bool) {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(err) => {
            record_error(shared, &err);
            return (error_response(&err), false);
        }
    };
    match request {
        Request::Ping => (render_object(&[("ok", "true".into()), ("op", "ping".into())]), false),
        Request::Stats => {
            // Store quarantines can happen on any read; refresh the gauge
            // from the store's own lifetime counter.
            if let Some(store) = &shared.store {
                shared.metrics.store_quarantined.store(store.quarantines(), Ordering::Relaxed);
            }
            let mut pairs = vec![("ok".to_string(), "true".into()), ("op".into(), "stats".into())];
            pairs.extend(shared.metrics.snapshot(shared.queue.depth(), shared.cache.len()));
            (render_object(&pairs), false)
        }
        Request::Shutdown => (
            render_object(&[
                ("ok", "true".into()),
                ("op", "shutdown".into()),
                ("draining", "true".into()),
            ]),
            true,
        ),
        Request::Sweep { instance, deadline_ms } => {
            let response = handle_sweep(shared, &instance, deadline_ms);
            (response, false)
        }
    }
}

fn handle_sweep(shared: &Shared, instance_text: &str, deadline_ms: Option<u64>) -> String {
    // Clamp the deadline clock to arrival: queueing and solving both count
    // against the client's budget.
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    if shared.shutting_down.load(Ordering::SeqCst) {
        let err = ProtoError::new(ErrorCode::ShuttingDown, "server is draining");
        record_error(shared, &err);
        return error_response(&err);
    }
    let instance = match Instance::decode(instance_text) {
        Ok(i) => i,
        Err(e) => {
            let err = ProtoError::new(ErrorCode::BadInstance, e.to_string());
            record_error(shared, &err);
            return error_response(&err);
        }
    };
    let fp = instance.fingerprint();
    let scope = instance.scope_fingerprint();

    // Poisoned fingerprints never reach the solver again.
    if shared.quarantine.is_quarantined(fp) {
        shared.metrics.quarantine_rejected.fetch_add(1, Ordering::Relaxed);
        return error_response(&shared.quarantine.rejection());
    }

    match shared.cache.claim(fp) {
        Claim::Hit(reply) => {
            shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            sweep_ok_response(&reply, "hit")
        }
        Claim::Coalesced(Ok(reply)) => {
            shared.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
            sweep_ok_response(&reply, "coalesced")
        }
        Claim::Coalesced(Err(err)) => {
            shared.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
            record_error(shared, &err);
            error_response(&err)
        }
        Claim::Leader => {
            shared.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
            // The persistent store extends the in-memory cache across
            // restarts. Read errors (flaky disk, injected faults) degrade
            // to a plain miss — persistence never blocks a request.
            if let Some(store) = &shared.store {
                if let Ok(Some(reply)) = store.get(fp) {
                    shared.metrics.store_hits.fetch_add(1, Ordering::Relaxed);
                    shared.cache.fulfill(fp, Arc::clone(&reply));
                    return sweep_ok_response(&reply, "disk");
                }
            }
            let fallback = instance.clone();
            let (tx, rx) = mpsc::channel();
            let job = Job { fingerprint: fp, scope, instance, deadline, done: tx };
            match shared.queue.try_push(job) {
                Ok(()) => wait_for_leader(shared, &rx, deadline, &fallback, fp, scope),
                Err((job, PushError::Full)) => {
                    let err = ProtoError::overloaded(
                        format!("admission queue full ({} jobs)", shared.cfg.queue_cap),
                        SHED_RETRY_MS,
                    );
                    record_error(shared, &err);
                    abandon_job(job, &shared.cache, err.clone());
                    error_response(&err)
                }
                Err((job, PushError::Closed)) => {
                    let err = ProtoError::new(ErrorCode::ShuttingDown, "server is draining");
                    record_error(shared, &err);
                    abandon_job(job, &shared.cache, err.clone());
                    error_response(&err)
                }
            }
        }
    }
}

/// Blocks on the admitted leader job's reply, bounded by the client's
/// deadline. On timeout the connection answers the degraded floor
/// immediately — without touching the cache entry, because the worker is
/// still solving and will publish the exact result for coalesced waiters
/// and future hits.
fn wait_for_leader(
    shared: &Shared,
    rx: &mpsc::Receiver<Result<Arc<SweepReply>, ProtoError>>,
    deadline: Option<Instant>,
    instance: &Instance,
    fp: u64,
    scope: u64,
) -> String {
    let received = match deadline {
        None => rx.recv().ok(),
        Some(dl) => match rx.recv_timeout(dl.saturating_duration_since(Instant::now())) {
            Ok(r) => Some(r),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                return match degraded_reply(instance, fp, scope) {
                    Ok(reply) => {
                        shared.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                        sweep_ok_response(&reply, "degraded")
                    }
                    Err(err) => {
                        record_error(shared, &err);
                        error_response(&err)
                    }
                };
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => None,
        },
    };
    match received {
        Some(Ok(reply)) => sweep_ok_response(&reply, "miss"),
        Some(Err(err)) => {
            record_error(shared, &err);
            error_response(&err)
        }
        None => {
            // Worker vanished without publishing; release any coalesced
            // waiters before answering.
            let err = crate::pool::lost_leader();
            shared.cache.fail(fp, err.clone());
            error_response(&err)
        }
    }
}

fn sweep_ok_response(reply: &SweepReply, cached: &str) -> String {
    render_object(&[
        ("ok", "true".into()),
        ("op", "sweep".into()),
        ("fingerprint", format!("{:016x}", reply.fingerprint)),
        ("scope", format!("{:016x}", reply.scope)),
        ("cached", cached.into()),
        ("degraded", reply.degraded.to_string()),
        ("feasible", reply.feasible.to_string()),
        ("infeasible", reply.infeasible.to_string()),
        ("solver_errors", reply.solver_errors.to_string()),
        ("lp_solves", reply.lp.solves.to_string()),
        ("lp_iterations", reply.lp.iterations.to_string()),
        ("lp_certified", reply.lp.certified.to_string()),
        ("solve_ms", format!("{:.3}", reply.solve_wall_s * 1e3)),
        ("results", reply.results.clone()),
    ])
}
