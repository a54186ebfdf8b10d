//! The daemon: one warm [`TraceStore`], a bounded worker pool, and the
//! connection machinery around them.
//!
//! The execution path is the same [`Experiment`](waymem_sim::Experiment)
//! builder every other driver uses — the server adds the *sharing*
//! mechanics a multi-client front door needs:
//!
//! - **Single-flight dedup.** Concurrent requests with the same
//!   [fingerprint](crate::proto::RunRequest::fingerprint) share one
//!   execution: the first becomes the leader and enqueues, the rest
//!   attach as followers and wait on the same flight. Combined with the
//!   store's own exactly-once `get_or_record`, N cold clients cost one
//!   recording and one replay.
//! - **Admission control.** A bounded [`mpsc::sync_channel`] is the run
//!   queue; when it is full the server answers `Overloaded` immediately
//!   instead of queueing unboundedly.
//! - **Per-request timeouts.** Waiters give up with a `Timeout` reply
//!   after the configured budget; the flight itself keeps running and
//!   warms the store for the retry.
//! - **Graceful drain.** A `Shutdown` frame stops admission, lets
//!   queued and in-flight work finish, then joins every worker — the
//!   daemon exits with nothing half-done.
//!
//! Everything is observable: `serve.*` counters/gauges/histograms land
//! in the same registry the snapshot freezes, and every request runs
//! under a span.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use waymem_obs::json::Json;
use waymem_obs::{counter, gauge, histogram, span};
use waymem_sim::{full_dschemes, full_ischemes, DScheme, IScheme};
use waymem_trace::TraceStore;

use crate::proto::{
    self, ProtoError, Request, Response, RunRequest, SchemeSet, Status,
};

/// The one [`SimResult`](waymem_sim::SimResult) encoding, which every
/// `RunOk` reply embeds under `"result"`. Equal results render
/// byte-equal — the property the dedup test pins end to end.
pub use waymem_sim::result_json;

/// How the daemon is sized. Every knob has an environment override so
/// the binary stays flag-light.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, `host:port`. Port 0 binds an ephemeral port —
    /// the bound address is in [`ServerHandle::local_addr`].
    pub addr: String,
    /// Worker threads executing experiments.
    pub workers: usize,
    /// Admission queue depth; a full queue answers `Overloaded`.
    pub queue_depth: usize,
    /// Per-request wait budget before a `Timeout` reply.
    pub request_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: cores.clamp(1, 4),
            queue_depth: 64,
            request_timeout: Duration::from_secs(60),
        }
    }
}

impl ServeConfig {
    /// Defaults overridden by `WAYMEM_SERVE_ADDR`,
    /// `WAYMEM_SERVE_WORKERS`, `WAYMEM_SERVE_QUEUE`, and
    /// `WAYMEM_SERVE_TIMEOUT_MS`. Unparseable values keep the default.
    #[must_use]
    pub fn from_env() -> Self {
        let mut cfg = ServeConfig::default();
        if let Ok(v) = std::env::var("WAYMEM_SERVE_ADDR") {
            if !v.trim().is_empty() {
                cfg.addr = v.trim().to_owned();
            }
        }
        if let Some(n) = env_usize("WAYMEM_SERVE_WORKERS") {
            cfg.workers = n.max(1);
        }
        if let Some(n) = env_usize("WAYMEM_SERVE_QUEUE") {
            cfg.queue_depth = n.max(1);
        }
        if let Some(ms) = env_usize("WAYMEM_SERVE_TIMEOUT_MS") {
            cfg.request_timeout = Duration::from_millis(ms as u64);
        }
        cfg
    }
}

fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key).ok().and_then(|v| v.trim().parse().ok())
}

/// What one flight resolves to: the deterministic result JSON or a
/// stringified failure. Shared by the leader and every follower.
type FlightResult = Result<Arc<String>, String>;

/// One in-flight experiment all equal requests attach to.
struct Flight {
    slot: Mutex<Option<FlightResult>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight { slot: Mutex::new(None), done: Condvar::new() }
    }

    fn publish(&self, result: FlightResult) {
        *self.slot.lock().expect("flight slot poisoned") = Some(result);
        self.done.notify_all();
    }

    fn wait(&self, budget: Duration) -> Option<FlightResult> {
        let deadline = Instant::now() + budget;
        let mut slot = self.slot.lock().expect("flight slot poisoned");
        loop {
            if let Some(result) = slot.as_ref() {
                return Some(result.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, timed_out) = self
                .done
                .wait_timeout(slot, deadline - now)
                .expect("flight slot poisoned");
            slot = next;
            if timed_out.timed_out() && slot.is_none() {
                return None;
            }
        }
    }
}

/// One unit of queued work: the request plus the flight its result
/// lands in.
struct Job {
    fingerprint: u64,
    request: RunRequest,
    flight: Arc<Flight>,
}

/// State shared by the accept loop, connection handlers, and workers.
struct Shared {
    store: TraceStore,
    cfg: ServeConfig,
    /// Master sender; `take()`n at drain time so workers see the
    /// channel close once every connection's clone is gone too.
    queue: Mutex<Option<SyncSender<Job>>>,
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    draining: AtomicBool,
    queued: AtomicUsize,
    connections: AtomicUsize,
}

impl Shared {
    fn queue_sender(&self) -> Option<SyncSender<Job>> {
        self.queue.lock().expect("queue sender poisoned").clone()
    }
}

/// A started daemon. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::join`] after a drain, or leak it in tests.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound listen address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a drain without a protocol frame — the test/embedder
    /// equivalent of sending `Shutdown`.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has begun.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// The daemon store's counters — how tests prove "N concurrent cold
    /// clients, one recording".
    #[must_use]
    pub fn store_stats(&self) -> waymem_trace::StoreStats {
        self.shared.store.stats()
    }

    /// Waits for the drain to complete: the accept loop exits, live
    /// connections wind down, queued and in-flight work finishes, and
    /// every worker joins. Call only after [`ServerHandle::begin_drain`]
    /// (or a client's `Shutdown`) — joining a serving daemon blocks
    /// forever by design.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept loop has exited; once the last connection drops its
        // queue clone and the master sender is taken, workers run the
        // queue dry and see the channel close.
        let deadline = Instant::now() + self.shared.cfg.request_timeout;
        while self.shared.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(self.shared.queue.lock().expect("queue sender poisoned").take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        waymem_obs::info!("serve.drained", addr = self.addr);
    }
}

/// Binds `cfg.addr`, spawns the worker pool and accept loop, and
/// returns the handle. `store` is the daemon's one warm trace store.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn start(cfg: ServeConfig, store: TraceStore) -> std::io::Result<ServerHandle> {
    let listener = bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let (sender, receiver) = mpsc::sync_channel::<Job>(cfg.queue_depth);
    let shared = Arc::new(Shared {
        store,
        cfg,
        queue: Mutex::new(Some(sender)),
        inflight: Mutex::new(HashMap::new()),
        draining: AtomicBool::new(false),
        queued: AtomicUsize::new(0),
        connections: AtomicUsize::new(0),
    });

    let receiver = Arc::new(Mutex::new(receiver));
    let workers = (0..shared.cfg.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            let receiver = Arc::clone(&receiver);
            std::thread::Builder::new()
                .name(format!("waymem-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared, &receiver))
                .expect("spawn worker")
        })
        .collect();

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("waymem-serve-accept".to_owned())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("spawn accept loop")
    };

    waymem_obs::info!("serve.listening", addr = addr);
    Ok(ServerHandle { addr, shared, accept: Some(accept), workers })
}

fn bind(addr: &str) -> std::io::Result<TcpListener> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    TcpListener::bind(&addrs[..])
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                counter!("serve.connections").inc();
                shared.connections.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("waymem-serve-conn".to_owned())
                    .spawn(move || {
                        connection_loop(stream, &conn_shared);
                        conn_shared.connections.fetch_sub(1, Ordering::SeqCst);
                    });
                if let Err(e) = spawned {
                    shared.connections.fetch_sub(1, Ordering::SeqCst);
                    waymem_obs::warn!("serve.conn_spawn_failed", peer = peer, error = e);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                waymem_obs::warn!("serve.accept_failed", error = e);
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Serves one connection: frames in, frames out, until EOF, a
/// malformed frame, or drain. The socket read times out in short slices
/// so an idle connection notices a drain instead of pinning it.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut reader = stream.try_clone().expect("clone stream");
    let mut writer = stream;
    loop {
        let request = match proto::read_request(&mut reader) {
            Ok(req) => req,
            Err(ProtoError::Closed) => return,
            Err(ProtoError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(e) if e.is_peer_fault() => {
                counter!("serve.bad_frames").inc();
                let reply = Response::Refused {
                    status: Status::BadRequest,
                    message: e.to_string(),
                };
                let _ = proto::write_response(&mut writer, &reply);
                // Framing may be out of sync; close rather than guess.
                return;
            }
            Err(_) => return,
        };
        counter!("serve.requests").inc();
        let _span = span!("serve.request");
        let reply = match request {
            Request::Ping => Response::Pong,
            Request::Stats => {
                // Publish the store's counters as gauges first, so the
                // snapshot carries `store.*` alongside `serve.*`.
                shared.store.stats().publish();
                Response::StatsOk {
                    snapshot_json: waymem_obs::snapshot::take().to_json().to_string(),
                }
            }
            Request::Shutdown => {
                shared.draining.store(true, Ordering::SeqCst);
                waymem_obs::info!("serve.drain_begun", reason = "shutdown frame");
                Response::ShutdownOk
            }
            Request::Run(run) => handle_run(shared, run),
        };
        let draining_ack = matches!(reply, Response::ShutdownOk);
        if proto::write_response(&mut writer, &reply).is_err() {
            return;
        }
        if draining_ack {
            return;
        }
    }
}

/// Admission + single-flight for one `Run` request. Returns the reply
/// to write, never panics into the connection thread.
fn handle_run(shared: &Arc<Shared>, run: RunRequest) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        counter!("serve.draining_rejects").inc();
        return Response::Refused {
            status: Status::Draining,
            message: "server is draining".to_owned(),
        };
    }
    let started = Instant::now();
    let fingerprint = run.fingerprint();
    let _span = span!("serve.run", workload = run.workload, fp = format!("{fingerprint:016x}"));

    // Single-flight: attach to an existing flight or lead a new one.
    // The map lock covers only the lookup/insert, never the execution.
    let (flight, leader) = {
        let mut inflight = shared.inflight.lock().expect("inflight map poisoned");
        if let Some(existing) = inflight.get(&fingerprint) {
            (Arc::clone(existing), false)
        } else {
            let fresh = Arc::new(Flight::new());
            inflight.insert(fingerprint, Arc::clone(&fresh));
            (fresh, true)
        }
    };

    if leader {
        let job = Job { fingerprint, request: run, flight: Arc::clone(&flight) };
        let sender = shared.queue_sender();
        let admitted = match sender {
            // Count the job *before* it becomes visible to workers —
            // the worker's decrement must never beat this increment.
            Some(sender) => {
                let depth = shared.queued.fetch_add(1, Ordering::SeqCst) + 1;
                gauge!("serve.queue_depth").set(depth as f64);
                match sender.try_send(job) {
                    Ok(()) => true,
                    Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                        let depth = shared.queued.fetch_sub(1, Ordering::SeqCst) - 1;
                        gauge!("serve.queue_depth").set(depth as f64);
                        false
                    }
                }
            }
            None => false,
        };
        if !admitted {
            shared.inflight.lock().expect("inflight map poisoned").remove(&fingerprint);
            counter!("serve.overload_rejects").inc();
            return Response::Refused {
                status: Status::Overloaded,
                message: format!(
                    "admission queue full ({} deep); retry later",
                    shared.cfg.queue_depth
                ),
            };
        }
    } else {
        counter!("serve.dedup_hits").inc();
    }

    match flight.wait(shared.cfg.request_timeout) {
        Some(Ok(json)) => {
            let micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            histogram!("serve.request_latency_us").record(micros);
            Response::RunOk { shared: !leader, result_json: (*json).clone() }
        }
        Some(Err(message)) => Response::Refused { status: Status::Error, message },
        None => {
            counter!("serve.timeouts").inc();
            Response::Refused {
                status: Status::Timeout,
                message: format!(
                    "no result within {:?}; the run continues and warms the store",
                    shared.cfg.request_timeout
                ),
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, receiver: &Mutex<Receiver<Job>>) {
    loop {
        let job = {
            let guard = receiver.lock().expect("job receiver poisoned");
            guard.recv()
        };
        let Ok(job) = job else { return };
        let depth = shared.queued.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);
        gauge!("serve.queue_depth").set(depth as f64);
        counter!("serve.runs").inc();
        let started = Instant::now();
        let result = execute(shared, &job.request);
        let micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        histogram!("serve.run_us").record(micros);
        job.flight.publish(result);
        shared.inflight.lock().expect("inflight map poisoned").remove(&job.fingerprint);
    }
}

/// Runs one experiment through the shared store and renders the result.
/// Panics inside the builder are caught by `catch_worker`, so a hostile
/// workload answers `Error` instead of killing a pool thread.
fn execute(shared: &Arc<Shared>, run: &RunRequest) -> FlightResult {
    let (dschemes, ischemes): (Vec<DScheme>, Vec<IScheme>) = match run.schemes {
        SchemeSet::Paper => (
            vec![DScheme::Original, DScheme::paper_way_memo()],
            vec![IScheme::Original, IScheme::paper_way_memo()],
        ),
        SchemeSet::Full => (full_dschemes(), full_ischemes()),
        SchemeSet::Baseline => (vec![DScheme::Original], vec![IScheme::Original]),
    };
    let outcome = waymem_sim::catch_worker(|| {
        waymem_sim::Experiment::workload(run.workload)
            .geometry(run.geometry)
            .technology(run.technology)
            .dschemes(dschemes)
            .ischemes(ischemes)
            .store(&shared.store)
            .run()
    });
    match outcome {
        Ok(result) => {
            let reply = Json::object(vec![
                ("schema", Json::from("waymem/serve-result/v2")),
                ("result", result_json(&result)),
            ]);
            Ok(Arc::new(reply.to_string()))
        }
        Err(e) => Err(e.to_string()),
    }
}
