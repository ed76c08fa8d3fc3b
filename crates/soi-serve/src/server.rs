//! The serve scheduler: accept/reader threads feed a bounded admission
//! queue; one executor thread drains it in batches.
//!
//! Threading model:
//!
//! * **Accept thread** — blocks on the [`ServiceListener`], spawns one
//!   detached reader thread per connection, exits when the shutdown
//!   token fires.
//! * **Reader threads** (one per connection) — decode frames, do all
//!   *semantic* validation and admission control, and push accepted jobs
//!   onto the shared queue. Rejections (malformed, out-of-range,
//!   overloaded) are answered right here with a typed [`Reject`]; the
//!   queue only ever holds executable work. An idle connection times out
//!   and is closed; a vanished client is counted and released.
//! * **Executor thread** (exactly one) — drains up to `MAX_DRAIN`
//!   jobs at a time and answers them in arrival order, each through the
//!   cached [`Engine`](crate::engine::Engine) for its `(N, P, digits)`,
//!   so requests of one geometry share plans, window coefficients, and
//!   workspace arenas. One executor answers each connection's admitted
//!   requests in the order they were sent; concurrency inside a request
//!   comes from the worker pool of each transform, not from racing
//!   executors.
//!
//! Deadlines are relative budgets from arrival. The admission queue
//! re-checks them at execute time: a request that expired while queued
//! gets a typed [`RejectCode::Expired`] and is never partially computed.

use crate::engine::EngineCache;
use crate::proto::{
    Reject, RejectCode, Request, RequestKind, StatsSnapshot, TAG_BYE, TAG_REJECT, TAG_REQUEST,
    TAG_RESPONSE, TAG_SHUTDOWN, TAG_STATS, TAG_STATS_REQUEST,
};
use crate::stats::Registry;
use soi_core::ThreadPool;
use soi_wire::{ServiceConn, ServiceListener, ServiceWriter, ShutdownToken, WireError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:0` picks a free port).
    pub addr: String,
    /// Worker threads inside each transform.
    pub threads: usize,
    /// Admission queue capacity; a request arriving past it is shed with
    /// a typed `Overloaded` reject.
    pub queue_cap: usize,
    /// Resident engine (geometry) cap for the executor cache.
    pub engine_cap: usize,
    /// Reader-side idle deadline: a connection silent this long is
    /// closed and its thread released.
    pub idle_timeout: Duration,
    /// Per-frame write deadline.
    pub op_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            queue_cap: 64,
            engine_cap: 8,
            idle_timeout: Duration::from_secs(30),
            op_timeout: Duration::from_secs(20),
        }
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok().filter(|&v| v > 0)
}

impl ServeConfig {
    /// Defaults overridden by the environment: `SOI_SERVE_QUEUE`,
    /// `SOI_SERVE_ENGINES` and `SOI_SERVE_IDLE_MS`.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(v) = env_usize("SOI_SERVE_QUEUE") {
            cfg.queue_cap = v;
        }
        if let Some(v) = env_usize("SOI_SERVE_ENGINES") {
            cfg.engine_cap = v;
        }
        if let Some(v) = env_usize("SOI_SERVE_IDLE_MS") {
            cfg.idle_timeout = Duration::from_millis(v as u64);
        }
        cfg
    }
}

/// One admitted request waiting for the executor.
struct Job {
    req: Request,
    arrival: Instant,
    writer: ServiceWriter,
}

/// State shared by the accept, reader, and executor threads.
struct Shared {
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    stop: AtomicBool,
    stats: Registry,
}

impl Shared {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A running server. Dropping the handle does *not* stop it; call
/// [`Server::shutdown`] (or send a SHUTDOWN frame) then [`Server::join`].
pub struct Server {
    addr: String,
    shared: Arc<Shared>,
    token: ShutdownToken,
    accept: Option<std::thread::JoinHandle<()>>,
    executor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start the accept + executor threads.
    pub fn start(cfg: ServeConfig) -> Result<Server, WireError> {
        let listener = ServiceListener::bind(&cfg.addr, cfg.op_timeout)?;
        let addr = listener.local_addr();
        let token = listener.shutdown_token();
        let shared = Arc::new(Shared {
            cfg,
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            stats: Registry::new(),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            let token = token.clone();
            std::thread::Builder::new()
                .name("soi-serve-accept".into())
                .spawn(move || accept_loop(listener, shared, token))
                .map_err(|e| WireError::Io(format!("spawn accept thread: {e}")))?
        };
        let executor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("soi-serve-exec".into())
                .spawn(move || executor_loop(shared))
                .map_err(|e| WireError::Io(format!("spawn executor thread: {e}")))?
        };

        Ok(Server {
            addr,
            shared,
            token,
            accept: Some(accept),
            executor: Some(executor),
        })
    }

    /// The bound address (resolved port included).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Point-in-time stats snapshot (same contents as the STATS frame).
    pub fn stats(&self) -> StatsSnapshot {
        let depth = self.shared.queue.lock().expect("serve queue poisoned").len() as u64;
        self.shared.stats.snapshot(depth)
    }

    /// Stop accepting, let the executor drain the queue, wake everyone.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.token.fire();
        self.shared.cv.notify_all();
    }

    /// Wait for the accept and executor threads to exit. Reader threads
    /// are detached; they exit on disconnect or at their idle deadline.
    pub fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.executor.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: ServiceListener, shared: Arc<Shared>, token: ShutdownToken) {
    loop {
        match listener.accept() {
            Ok(Some(conn)) => {
                let shared = Arc::clone(&shared);
                let token = token.clone();
                // Detached: a reader thread's lifetime is its
                // connection's, bounded by the idle deadline.
                let _ = std::thread::Builder::new()
                    .name("soi-serve-conn".into())
                    .spawn(move || reader_loop(conn, shared, token));
            }
            Ok(None) => return, // shutdown token fired
            Err(_) if shared.stopped() => return,
            Err(_) => continue, // transient accept error; keep serving
        }
    }
}

/// Semantic validation: everything the pipeline would reject deeper,
/// checked before the request is queued, so it never reaches the
/// executor. Returns the reject message on failure.
fn validate(req: &Request) -> Result<(), String> {
    if req.n == 0 || req.p == 0 {
        return Err(format!("N = {} and P = {} must be positive", req.n, req.p));
    }
    if req.n % req.p != 0 {
        return Err(format!("P = {} does not divide N = {}", req.p, req.n));
    }
    if req.kind.is_real() && req.p % 2 != 0 {
        return Err(format!(
            "real-input kinds need an even segment count, got P = {}",
            req.p
        ));
    }
    match req.kind {
        RequestKind::Segment | RequestKind::RealSegment if req.arg >= req.p => Err(format!(
            "segment {} out of range (P = {})",
            req.arg, req.p
        )),
        RequestKind::Band | RequestKind::RealBand if req.arg >= req.n => Err(format!(
            "band start {} out of range (N = {})",
            req.arg, req.n
        )),
        _ => Ok(()),
    }
}

fn reject(writer: &ServiceWriter, id: u64, code: RejectCode, message: String) {
    let _ = writer.send(TAG_REJECT, &Reject { id, code, message }.encode());
}

fn reader_loop(mut conn: ServiceConn, shared: Arc<Shared>, token: ShutdownToken) {
    shared.stats.connection_opened();
    let writer = conn.writer();
    loop {
        if shared.stopped() {
            break;
        }
        match conn.read(shared.cfg.idle_timeout) {
            Ok((TAG_REQUEST, payload)) => {
                let bytes_in = payload.len() as u64;
                let req = match Request::decode(payload) {
                    Ok(r) => r,
                    Err(e) => {
                        // Undecodable: no trustworthy id or tenant.
                        reject(&writer, 0, RejectCode::BadRequest, e.to_string());
                        continue;
                    }
                };
                shared.stats.record_request(&req.tenant, bytes_in);
                if let Err(msg) = validate(&req) {
                    shared.stats.record_bad(&req.tenant);
                    reject(&writer, req.id, RejectCode::BadRequest, msg);
                    continue;
                }
                let mut q = shared.queue.lock().expect("serve queue poisoned");
                if q.len() >= shared.cfg.queue_cap {
                    drop(q);
                    shared.stats.record_shed(&req.tenant);
                    reject(
                        &writer,
                        req.id,
                        RejectCode::Overloaded,
                        format!("admission queue full ({} queued)", shared.cfg.queue_cap),
                    );
                    continue;
                }
                q.push_back(Job {
                    req,
                    arrival: Instant::now(),
                    writer: writer.clone(),
                });
                drop(q);
                shared.cv.notify_one();
            }
            Ok((TAG_STATS_REQUEST, _)) => {
                let depth = shared.queue.lock().expect("serve queue poisoned").len() as u64;
                let _ = writer.send(TAG_STATS, &shared.stats.snapshot(depth).encode());
            }
            Ok((TAG_SHUTDOWN, _)) => {
                let _ = writer.send(TAG_BYE, &[]);
                shared.stop.store(true, Ordering::SeqCst);
                token.fire();
                shared.cv.notify_all();
                break;
            }
            Ok((TAG_BYE, _)) => break, // clean client goodbye
            Ok((tag, _)) => {
                reject(
                    &writer,
                    0,
                    RejectCode::BadRequest,
                    format!("unexpected frame tag {tag:#04x} on a serve connection"),
                );
                break;
            }
            Err(WireError::Timeout { .. }) => {
                // A shutdown poke can look like idle if it lands between
                // frames; don't count those.
                if !shared.stopped() {
                    shared.stats.idle_closed();
                }
                break;
            }
            Err(WireError::PeerLost { .. }) => {
                shared.stats.peer_lost();
                break;
            }
            Err(_) => break,
        }
    }
    shared.stats.connection_closed();
}

/// Most jobs the executor takes off the admission queue per pass. Each
/// is answered alone, in arrival order. Drained jobs free their queue
/// slots, so up to `queue_cap + MAX_DRAIN - 1` admitted jobs can be
/// waiting at once; the stats frame reports the passes as batches.
const MAX_DRAIN: usize = 32;

fn executor_loop(shared: Arc<Shared>) {
    let pool = Arc::new(ThreadPool::new(shared.cfg.threads));
    let mut engines = EngineCache::new(shared.cfg.engine_cap, pool);
    let mut batch: Vec<Job> = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    loop {
        {
            let mut q = shared.queue.lock().expect("serve queue poisoned");
            while q.is_empty() && !shared.stopped() {
                q = shared.cv.wait(q).expect("serve queue poisoned");
            }
            if q.is_empty() {
                // Stopped with nothing left: every admitted request has
                // been answered.
                return;
            }
            let take = MAX_DRAIN.min(q.len());
            batch.extend(q.drain(..take));
        }
        shared.stats.record_batch(batch.len() as u64);
        for job in &batch {
            answer(job, &mut engines, &shared, &mut payload);
        }
        batch.clear();
    }
}

fn deadline_expired(job: &Job) -> bool {
    job.req.deadline_ms > 0
        && job.arrival.elapsed() >= Duration::from_millis(job.req.deadline_ms)
}

fn answer(
    job: &Job,
    engines: &mut EngineCache,
    shared: &Shared,
    payload: &mut Vec<u8>,
) {
    if deadline_expired(job) {
        shared.stats.record_expired(&job.req.tenant);
        reject(
            &job.writer,
            job.req.id,
            RejectCode::Expired,
            format!(
                "deadline of {} ms expired after {} ms in queue",
                job.req.deadline_ms,
                job.arrival.elapsed().as_millis()
            ),
        );
        return;
    }
    // One cache lookup builds (or fetches) the engine and computes; the
    // cache counters are mirrored into the registry *before* any reply
    // leaves, so a client that sees its response and immediately
    // snapshots stats observes consistent accounting.
    let (b0, e0) = (engines.builds(), engines.evictions());
    let result = engines
        .get(job.req.n, job.req.p, job.req.digits)
        .and_then(|engine| {
            let t0 = Instant::now();
            let bins = engine.execute(&job.req)?;
            let compute_ns = t0.elapsed().as_nanos() as u64;
            crate::proto::encode_response_into(job.req.id, compute_ns, bins, payload);
            Ok(compute_ns)
        });
    for _ in b0..engines.builds() {
        shared.stats.record_engine_build();
    }
    for _ in e0..engines.evictions() {
        shared.stats.record_engine_eviction();
    }
    match result {
        Ok(compute_ns) => {
            // Account before sending (same consistency argument); a send
            // failure means the client vanished mid-reply, which the
            // reader thread records as a lost peer.
            shared.stats.record_ok(&job.req.tenant, payload.len() as u64, compute_ns);
            let _ = job.writer.send(TAG_RESPONSE, payload);
        }
        Err(e) => {
            shared.stats.record_bad(&job.req.tenant);
            reject(&job.writer, job.req.id, RejectCode::BadRequest, e.to_string());
        }
    }
}
