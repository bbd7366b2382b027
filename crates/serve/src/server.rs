//! The resident daemon: accept loop, bounded admission, handler pool,
//! request dispatch and the streaming evaluation path.
//!
//! # Concurrency shape
//!
//! The crate introduces **no new atomics**. Admission and the
//! connection queue are one `Mutex<Admit>` + `Condvar` (a bounded
//! hand-off between the accept loop and the handler pool), and the
//! actual evaluation fan-out reuses `core::fan`'s audited claim queue
//! *inside* [`Engine::evaluate_stream`] — the daemon budgets workers,
//! the engine claims work. That is the "reuse the claim queue" arm of
//! the atomics policy: `clippy.toml` keeps atomics disallowed anywhere
//! in this crate.
//!
//! # Admission and backpressure
//!
//! The accept loop admits a connection only while
//! `active < handlers + queue_depth` (`active` counts admitted, not-yet
//! -finished connections). Beyond that the daemon *sheds* the
//! connection immediately — `503` with a `Retry-After` header — instead
//! of queueing unboundedly or hanging the client. Admission state
//! changes only under the one mutex, so the saturation threshold is
//! exact, not heuristic.
//!
//! # Worker budgeting
//!
//! The daemon owns one worker budget (`engine_workers`, default one per
//! core). Each evaluation request gets `max(1, budget / evaluating)`
//! workers, where `evaluating` is the number of requests inside the
//! engine at that moment — one lone client uses the whole pool,
//! concurrent clients split it. Results are bit-identical for every
//! worker count (the engine's guarantee), so the split affects latency
//! only, never bytes on the wire.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use memx_core::cache::{CacheStats, EvalCache};
use memx_core::engine::{auto_workers, Engine};
use memx_memlib::MemLibrary;

use crate::http::{self, ChunkedWriter, ReadLimits, Request};
use crate::json::Json;
use crate::telemetry::Telemetry;
use crate::wire::{self, WireLimits};

/// Everything the daemon is configured with. All of it comes from CLI
/// arguments (or a test's struct literal) — the serve crate never reads
/// environment variables, so request handling stays
/// `no-ambient-state`-clean by construction.
#[derive(Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Connection-handler threads: requests served concurrently.
    pub handlers: usize,
    /// Admitted-but-waiting connections beyond the handlers; above
    /// `handlers + queue_depth` the daemon sheds with 503.
    pub queue_depth: usize,
    /// Total evaluation worker budget shared by all in-flight requests
    /// (`0` = one per available core).
    pub engine_workers: usize,
    /// Per-request body size cap.
    pub read_limits: ReadLimits,
    /// Per-request shape caps (groups, points).
    pub wire_limits: WireLimits,
    /// `Retry-After` seconds advertised on 503.
    pub retry_after_secs: u32,
    /// Socket read timeout; an idle or stalled connection is dropped
    /// after this long. `None` waits forever (tests only).
    pub read_timeout: Option<Duration>,
    /// Persistent evaluation cache shared by every request.
    pub cache: Option<Arc<EvalCache>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            handlers: 4,
            queue_depth: 16,
            engine_workers: 0,
            read_limits: ReadLimits {
                max_body_bytes: 1 << 20,
            },
            wire_limits: WireLimits::default(),
            retry_after_secs: 1,
            read_timeout: Some(Duration::from_secs(10)),
            cache: None,
        }
    }
}

/// Why the daemon could not start.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listen address failed.
    Bind {
        /// The configured address.
        addr: String,
        /// The socket error.
        source: std::io::Error,
    },
    /// The configuration is unusable.
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            ServeError::Config(msg) => write!(f, "bad configuration: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Admission state: the connection hand-off queue and the in-flight
/// counters. One mutex owns all of it, so the 503 threshold and the
/// worker split are computed against consistent counts.
#[derive(Debug, Default)]
struct Admit {
    queue: VecDeque<TcpStream>,
    /// Admitted connections not yet finished (queued + being served).
    active: usize,
    /// Requests currently inside the engine.
    evaluating: usize,
}

#[derive(Debug)]
struct Shared {
    lib: MemLibrary,
    handlers: usize,
    queue_depth: usize,
    engine_workers: usize,
    read_limits: ReadLimits,
    wire_limits: WireLimits,
    retry_after_secs: u32,
    read_timeout: Option<Duration>,
    cache: Option<Arc<EvalCache>>,
    telemetry: Telemetry,
    admit: Mutex<Admit>,
    ready: Condvar,
}

/// Recovers a poisoned guard: every structure behind these locks is a
/// plain value (queue, counters), valid at every instruction boundary.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A bound daemon, ready to [`Server::run`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listen socket and prepares the shared state.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when the address cannot be bound or the
    /// configuration is unusable.
    pub fn bind(lib: MemLibrary, cfg: ServeConfig) -> Result<Server, ServeError> {
        if cfg.handlers == 0 {
            return Err(ServeError::Config("handlers must be >= 1".to_string()));
        }
        let listener = TcpListener::bind(&cfg.addr).map_err(|source| ServeError::Bind {
            addr: cfg.addr.clone(),
            source,
        })?;
        let local_addr = listener.local_addr().map_err(|source| ServeError::Bind {
            addr: cfg.addr.clone(),
            source,
        })?;
        let shared = Arc::new(Shared {
            lib,
            handlers: cfg.handlers,
            queue_depth: cfg.queue_depth,
            engine_workers: match cfg.engine_workers {
                0 => auto_workers(),
                n => n,
            },
            read_limits: cfg.read_limits,
            wire_limits: cfg.wire_limits,
            retry_after_secs: cfg.retry_after_secs,
            read_timeout: cfg.read_timeout,
            cache: cfg.cache,
            telemetry: Telemetry::new(),
            admit: Mutex::new(Admit::default()),
            ready: Condvar::new(),
        });
        Ok(Server {
            listener,
            local_addr,
            shared,
        })
    }

    /// The bound address (read it before [`Server::run`] to learn an
    /// ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Runs the daemon: spawns the handler pool and serves the accept
    /// loop on the calling thread, forever. The process exits by
    /// signal, like any resident service.
    pub fn run(self) {
        for _ in 0..self.shared.handlers {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handler_loop(&shared));
        }
        for stream in self.listener.incoming() {
            let stream = match stream {
                Ok(s) => s,
                // Transient accept failures (EMFILE, aborted handshake)
                // must not take the daemon down.
                Err(_) => continue,
            };
            let shared = &self.shared;
            let mut admit = lock(&shared.admit);
            if admit.active >= shared.handlers + shared.queue_depth {
                drop(admit);
                shared.telemetry.note_rejected();
                shed(stream, shared.retry_after_secs);
                continue;
            }
            admit.active += 1;
            admit.queue.push_back(stream);
            drop(admit);
            shared.ready.notify_one();
        }
    }
}

/// Writes the 503 shed response; best-effort (a client gone before the
/// bytes land was shedding itself).
fn shed(mut stream: TcpStream, retry_after_secs: u32) {
    let body = wire::render_error(503, "server saturated; retry shortly");
    let _ = http::write_response(
        &mut stream,
        503,
        &[
            ("retry-after", retry_after_secs.to_string()),
            ("connection", "close".to_string()),
        ],
        &body,
    );
}

fn handler_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut admit = lock(&shared.admit);
            loop {
                if let Some(stream) = admit.queue.pop_front() {
                    break stream;
                }
                admit = shared.ready.wait(admit).unwrap_or_else(|p| p.into_inner());
            }
        };
        serve_connection(shared, stream);
        lock(&shared.admit).active -= 1;
    }
}

/// Serves one connection: requests in sequence until the client closes,
/// errors, or asks to. Any framing error gets a best-effort error
/// response and closes the connection (the byte stream is no longer
/// trustworthy after a framing violation); the daemon itself stays
/// serviceable either way.
///
/// Every response frame is one write, and `TCP_NODELAY` sends each at
/// once: with Nagle on, a keep-alive request's answer would wait for the
/// delayed ACK of the previous one.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(shared.read_timeout);
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(&stream);
    loop {
        let request = match http::read_request(&mut reader, shared.read_limits) {
            Ok(None) => return,
            Ok(Some(request)) => request,
            Err(e) => {
                let body = wire::render_error(e.status(), &e.to_string());
                let _ = http::write_response(
                    &mut &stream,
                    e.status(),
                    &[("connection", "close".to_string())],
                    &body,
                );
                return;
            }
        };
        let close = request
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let served = dispatch(shared, &request, &stream);
        if close || served.is_err() {
            return;
        }
    }
}

/// Routes one request. `Err` means the connection is no longer usable
/// (mid-stream write failure); protocol-level rejections are `Ok` —
/// they got a well-formed error response.
fn dispatch(shared: &Shared, request: &Request, mut writer: &TcpStream) -> Result<(), ()> {
    match (request.method.as_str(), request.target.as_str()) {
        ("POST", "/v1/evaluate") => serve_evaluate(shared, request, writer),
        ("GET", "/v1/stats") => {
            let body = stats_body(shared);
            http::write_response(&mut writer, 200, &[], &body).map_err(|_| ())
        }
        (_, "/v1/evaluate") | (_, "/v1/stats") => {
            let body = wire::render_error(405, "method not allowed");
            http::write_response(&mut writer, 405, &[], &body).map_err(|_| ())
        }
        _ => {
            let body = wire::render_error(404, "unknown endpoint");
            http::write_response(&mut writer, 404, &[], &body).map_err(|_| ())
        }
    }
}

/// The per-kind cache-stat trailer values for one request: deltas of
/// the shared counters across the request. Under concurrent load a
/// sibling request's hits can land in the window, so the deltas are
/// attribution-approximate; the `/v1/stats` totals are exact.
fn cache_delta(before: &CacheStats, after: &CacheStats) -> [(&'static str, String); 3] {
    let line = |hits_after: u64, hits_before: u64, miss_after: u64, miss_before: u64| {
        format!(
            "{} hits / {} misses",
            hits_after.saturating_sub(hits_before),
            miss_after.saturating_sub(miss_before)
        )
    };
    [
        (
            "x-memx-cache-scbd",
            line(
                after.scbd_hits,
                before.scbd_hits,
                after.scbd_misses,
                before.scbd_misses,
            ),
        ),
        (
            "x-memx-cache-alloc",
            line(
                after.alloc_hits,
                before.alloc_hits,
                after.alloc_misses,
                before.alloc_misses,
            ),
        ),
        (
            "x-memx-cache-blocks",
            line(
                after.blocks_hits,
                before.blocks_hits,
                after.blocks_misses,
                before.blocks_misses,
            ),
        ),
    ]
}

fn serve_evaluate(shared: &Shared, request: &Request, mut writer: &TcpStream) -> Result<(), ()> {
    let parsed = match crate::json::parse(&request.body) {
        Ok(v) => v,
        Err(e) => {
            let body = wire::render_error(400, &e.to_string());
            return http::write_response(&mut writer, 400, &[], &body).map_err(|_| ());
        }
    };
    let decoded = match wire::decode_evaluate(&parsed, shared.wire_limits) {
        Ok(d) => d,
        Err(e) => {
            let status = e.status();
            let body = wire::render_error(status, &e.to_string());
            return http::write_response(&mut writer, status, &[], &body).map_err(|_| ());
        }
    };

    // Split the worker budget over the requests currently evaluating
    // (including this one); the client's `workers` ask only ever
    // narrows its own share.
    let workers = {
        let mut admit = lock(&shared.admit);
        admit.evaluating += 1;
        let share = (shared.engine_workers / admit.evaluating).max(1);
        match decoded.workers {
            Some(asked) if asked >= 1 => share.min(asked),
            _ => share,
        }
    };
    let before = shared
        .cache
        .as_deref()
        .map(|c| c.stats())
        .unwrap_or_default();

    let engine = Engine::builder(&shared.lib)
        .workers(workers)
        .eval_cache(shared.cache.clone())
        .build();
    let points = decoded.design_points();
    let trailer_names = [
        "x-memx-rows",
        "x-memx-cache-scbd",
        "x-memx-cache-alloc",
        "x-memx-cache-blocks",
    ];
    let mut sink = ChunkedWriter::start(writer, 200, &trailer_names);
    let mut rows_written = 0u64;
    let mut broken = false;
    engine.evaluate_stream(&points, |i, result| {
        // After a client disconnect the engine still completes the
        // claimed batch (the visitor cannot cancel it); rows just stop
        // going to the wire.
        if broken {
            return;
        }
        let row = wire::render_row(i, &points[i].label, &result);
        match sink.chunk(row.as_bytes()) {
            Ok(()) => rows_written += 1,
            Err(_) => broken = true,
        }
    });
    lock(&shared.admit).evaluating -= 1;

    let after = shared
        .cache
        .as_deref()
        .map(|c| c.stats())
        .unwrap_or_default();
    let delta = cache_delta(&before, &after);
    let mut trailers = vec![("x-memx-rows", rows_written.to_string())];
    trailers.extend(delta);
    // Counted before the final chunk goes out, so a client that has
    // read the whole response already sees it in `/v1/stats`.
    shared.telemetry.note_request(rows_written);
    let finished = !broken && sink.finish(&trailers).is_ok();
    if finished {
        Ok(())
    } else {
        Err(())
    }
}

/// The `/v1/stats` body: cumulative service counters plus the per-kind
/// cache totals (exact, unlike the per-request trailer deltas).
fn stats_body(shared: &Shared) -> String {
    let t = shared.telemetry.snapshot();
    let cache = shared
        .cache
        .as_deref()
        .map(|c| c.stats())
        .unwrap_or_default();
    let kind = |hits: u64, misses: u64, write_failures: u64| {
        Json::Obj(vec![
            ("hits".to_string(), Json::Num(hits as f64)),
            ("misses".to_string(), Json::Num(misses as f64)),
            (
                "write_failures".to_string(),
                Json::Num(write_failures as f64),
            ),
        ])
    };
    Json::Obj(vec![
        ("uptime_seconds".to_string(), Json::Num(t.uptime_seconds)),
        ("requests".to_string(), Json::Num(t.requests as f64)),
        (
            "rows_streamed".to_string(),
            Json::Num(t.rows_streamed as f64),
        ),
        (
            "rejected_requests".to_string(),
            Json::Num(t.rejected_requests as f64),
        ),
        (
            "cache".to_string(),
            Json::Obj(vec![
                (
                    "scbd".to_string(),
                    kind(
                        cache.scbd_hits,
                        cache.scbd_misses,
                        cache.scbd_write_failures,
                    ),
                ),
                (
                    "alloc".to_string(),
                    kind(
                        cache.alloc_hits,
                        cache.alloc_misses,
                        cache.alloc_write_failures,
                    ),
                ),
                (
                    "blocks".to_string(),
                    kind(
                        cache.blocks_hits,
                        cache.blocks_misses,
                        cache.blocks_write_failures,
                    ),
                ),
            ]),
        ),
    ])
    .encode()
}
