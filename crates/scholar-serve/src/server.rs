//! Starting and stopping a server, the portable blocking driver, and the
//! pure reference router.
//!
//! The blocking driver: one acceptor thread pulls connections off the
//! listener and `try_send`s them into a `sync_channel` of depth
//! [`ServeConfig::queue_depth`]. If the queue is full the acceptor writes
//! a `503` itself and drops the connection — load is shed at the door
//! instead of growing an unbounded backlog. Workers block on the queue
//! and run each connection through the shared request path
//! ([`crate::conn`]): blocking read under the socket timeout → core →
//! `write_all`, one request per connection. It is the only driver that
//! runs off Linux; on Linux the default is the event loop (`epoll.rs`)
//! over the same core.
//!
//! Shutdown is graceful: [`ServerHandle::shutdown`] flips a flag, nudges
//! the acceptor awake with a self-connection, closes the queue, and joins
//! every worker — each finishes the request it holds before exiting.

use crate::conn::{self, Conn, Ctx};
use crate::http::{self, Request};
use crate::index::{ScoreIndex, TopQuery};
use crate::metrics::Metrics;
use crate::record::Recorder;
use crate::swap::SharedIndex;
use scholar_corpus::ArticleId;
use sjson::{ObjectBuilder, Value};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Which serving backend to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Pick automatically: epoll on Linux, the blocking pool everywhere
    /// else.
    Auto,
    /// The nonblocking epoll event loop (Linux only; starting it
    /// elsewhere is an `Unsupported` error).
    Epoll,
    /// The original blocking acceptor + fixed worker pool.
    Blocking,
}

impl Backend {
    /// Resolve `Auto` against the platform.
    pub fn resolve(self) -> Backend {
        match self {
            Backend::Auto if cfg!(target_os = "linux") => Backend::Epoll,
            Backend::Auto => Backend::Blocking,
            resolved => resolved,
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (0 = any free port).
    pub addr: String,
    /// Worker threads answering requests (blocking backend), or event
    /// loop shards, each with its own `SO_REUSEPORT` listener (epoll
    /// backend).
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker before the
    /// acceptor starts shedding with `503` (blocking backend only).
    pub queue_depth: usize,
    /// Per-connection read timeout while waiting for the request head;
    /// a slowloris client is cut off with `408` after this long, and an
    /// *idle keep-alive* connection (epoll backend) is closed silently.
    pub read_timeout: Duration,
    /// Which backend to run. [`Backend::Auto`] picks epoll on Linux.
    pub backend: Backend,
    /// Concurrent connections one epoll shard will hold before shedding
    /// new ones with `503` (the event-loop analog of `queue_depth`).
    pub max_conns: usize,
    /// Optional request recorder (see [`crate::record`]): both backends
    /// offer every answered request to it after the response is written.
    /// Recording is sampled and never blocks or fails the live path.
    pub recorder: Option<Arc<Recorder>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            backend: Backend::Auto,
            max_conns: 1024,
            recorder: None,
        }
    }
}

/// Default number of ranking neighbors in an `/article/{id}` response.
pub(crate) const DETAIL_NEIGHBORS: usize = 3;
/// Cap on `k` so a single request cannot ask for the whole corpus
/// serialized a million times over.
const MAX_K: usize = 10_000;

/// A running server: owns its serving threads (acceptor + worker pool
/// for the blocking backend; event-loop shards for epoll).
pub struct ServerHandle {
    addr: SocketAddr,
    backend: Backend,
    metrics: Arc<Metrics>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// What a driver hands back once its listener is bound and every one of
/// its threads is running.
pub(crate) type Started = std::io::Result<(SocketAddr, Vec<JoinHandle<()>>)>;

/// Start serving `shared` on `config.addr` with the configured backend.
/// Returns once the listener is bound and every thread is running; bind
/// and thread-spawn failures surface as the `Err` they are.
pub fn serve(
    shared: Arc<SharedIndex>,
    metrics: Arc<Metrics>,
    config: &ServeConfig,
) -> std::io::Result<ServerHandle> {
    let backend = config.backend.resolve();
    let stop = Arc::new(AtomicBool::new(false));
    let (addr, threads) = match backend {
        Backend::Epoll => start_epoll(shared, Arc::clone(&metrics), config, Arc::clone(&stop))?,
        _ => start_pool(shared, Arc::clone(&metrics), config, Arc::clone(&stop))?,
    };
    Ok(ServerHandle { addr, backend, metrics, stop, threads })
}

#[cfg(target_os = "linux")]
use crate::epoll::start as start_epoll;

#[cfg(not(target_os = "linux"))]
fn start_epoll(
    _: Arc<SharedIndex>,
    _: Arc<Metrics>,
    _: &ServeConfig,
    _: Arc<AtomicBool>,
) -> Started {
    Err(std::io::Error::new(
        ErrorKind::Unsupported,
        "the epoll backend requires Linux; use Backend::Blocking (or Auto)",
    ))
}

fn start_pool(
    shared: Arc<SharedIndex>,
    metrics: Arc<Metrics>,
    config: &ServeConfig,
    stop: Arc<AtomicBool>,
) -> Started {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));

    // Spawn failures propagate as the io::Error they are. On an early
    // return, dropping `tx` closes the queue, so any workers already
    // spawned see a disconnected channel and exit on their own.
    let mut threads: Vec<JoinHandle<()>> = Vec::with_capacity(config.workers.max(1) + 1);
    for i in 0..config.workers.max(1) {
        let rx = Arc::clone(&rx);
        let ctx = Ctx::new(Arc::clone(&shared), Arc::clone(&metrics), config.recorder.clone());
        let read_timeout = config.read_timeout;
        let worker = std::thread::Builder::new()
            .name(format!("scholar-serve-{i}"))
            .spawn(move || worker_loop(rx, ctx, read_timeout))?;
        threads.push(worker);
    }
    let acceptor = std::thread::Builder::new()
        .name("scholar-accept".to_string())
        .spawn(move || accept_loop(listener, tx, stop, metrics))?;
    threads.push(acceptor);
    Ok((addr, threads))
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` asked for `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Which backend this server is actually running (resolved from the
    /// config's, which may have been [`Backend::Auto`]).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Stop accepting, drain queued and in-flight requests, join every
    /// thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The pool's acceptor may be parked in `accept()`; a throwaway
        // local connection wakes it so it can observe the stop flag. It
        // drops the queue sender on exit, which in turn ends every
        // worker once the queue drains.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: SyncSender<TcpStream>,
    stop: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        if conn::accept_failpoint() {
            continue;
        }
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                // Queue full: shed at the door. The write is best-effort —
                // a client that already gave up is not our problem.
                let _ = stream.write_all(&conn::shed_response(&metrics));
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping `tx` here closes the queue: workers drain what's left and
    // then see `Err(RecvError)` and exit.
}

fn worker_loop(rx: Arc<Mutex<Receiver<TcpStream>>>, mut ctx: Ctx, read_timeout: Duration) {
    loop {
        // Hold the lock only long enough to dequeue one connection. A
        // poisoned lock just means a sibling worker panicked while
        // holding it; the receiver has no invariants a panic can break,
        // so take the guard and keep serving.
        let stream = match rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner).recv() {
            Ok(s) => s,
            Err(_) => return, // queue closed and drained: shutdown
        };
        // Last-resort isolation: a bug while driving one connection must
        // not kill this worker (each death would silently shrink the
        // pool until nothing serves). The core already turns handler
        // panics into recorded 500s; anything reaching here is outside a
        // request, so the connection is simply dropped. `AssertUnwindSafe`
        // is sound: the stream and its `Conn` are consumed, and `ctx`
        // holds only scratch that every use clears first, a cache whose
        // entries are replaced whole, and atomic or lock-guarded shared
        // state.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(stream, &mut ctx, read_timeout)
        }));
        if let Err(cause) = caught {
            ctx.metrics.record_panic();
            log_panic("handling a connection", cause.as_ref());
        }
    }
}

pub(crate) fn log_panic(stage: &str, cause: &(dyn std::any::Any + Send)) {
    let msg = cause
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| cause.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>");
    eprintln!("scholar-serve: worker caught a panic while {stage}: {msg}");
}

/// The pool's readiness: one blocking read under the socket timeout per
/// core event, then one `write_all` of whatever the core rendered.
fn handle_connection(mut stream: TcpStream, ctx: &mut Ctx, read_timeout: Duration) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    // Reuse off: every response says `Connection: close`, so the loop
    // ends after one response and the write cap never pauses the core.
    let mut conn = Conn::new(ctx, false);
    let mut tmp = [0u8; 4096];
    while !conn.finished() {
        if conn::read_failpoint() {
            return;
        }
        match stream.read(&mut tmp) {
            Ok(0) => _ = conn.on_eof(ctx),
            Ok(n) => {
                conn.buf.extend_from_slice(tmp.get(..n).unwrap_or_default());
                _ = conn.on_bytes(ctx);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                conn.on_timeout(ctx, read_timeout)
            }
            Err(_) => return,
        }
        let n = conn.pending().len();
        if n > 0 && (conn::write_failpoint() || stream.write_all(conn.pending()).is_err()) {
            return;
        }
        conn.advance(n);
    }
}

/// Where a request goes — the one routing table. The reference router,
/// the core's byte-assembled `/top` and `/article` paths and the shadow
/// status oracle all consume it, so the 400-vs-404 rules exist once.
pub(crate) enum Route<'a> {
    Shadow,
    Health,
    Metrics,
    /// The parsed query, or the `400` message naming the bad parameter.
    Top(Result<TopQuery, String>),
    /// The id, or the text that is not a `u32` (a `400`).
    Article(Result<u32, &'a str>),
    /// Anything else: `404`.
    NotFound,
}

/// Decide the [`Route`] for a parsed request against `index` (which
/// resolves `/top`'s venue and author names).
pub(crate) fn route<'a>(req: &'a Request, index: &ScoreIndex) -> Route<'a> {
    match req.path.as_str() {
        "/shadow" => Route::Shadow,
        "/health" => Route::Health,
        "/metrics" => Route::Metrics,
        "/top" => Route::Top(parse_top_query(req, index)),
        path => match path.strip_prefix("/article/") {
            Some(rest) => Route::Article(rest.parse::<u32>().map_err(|_| rest)),
            None => Route::NotFound,
        },
    }
}

impl Route<'_> {
    /// Bump this route's endpoint hit counter.
    pub(crate) fn count(&self, metrics: &Metrics) {
        let endpoints = &metrics.endpoints;
        let counter = match self {
            Route::Shadow => &endpoints.shadow,
            Route::Health => &endpoints.health,
            Route::Metrics => &endpoints.metrics,
            Route::Top(_) => &endpoints.top,
            Route::Article(_) => &endpoints.article,
            Route::NotFound => return,
        };
        // ORDERING: endpoint hit counters are independent monotone
        // statistics — see the module-level note in metrics.rs.
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Route one parsed request. Pure: index snapshot in, `(status, body)`
/// out, which is what makes the endpoints unit-testable without sockets.
/// It builds every body as a [`Value`] tree, independently of the
/// connection core's byte-assembled `/top` and `/article` answers, and
/// is the oracle those are checked against byte for byte.
/// `/shadow` needs the serving cell itself and answers 404 here; use
/// [`respond_full`] on paths that have one.
pub fn respond(req: &Request, index: &ScoreIndex, metrics: &Metrics) -> (u16, Value) {
    respond_full(req, index, None, metrics)
}

/// [`respond`] with access to the [`SharedIndex`], which is what the
/// `/shadow` endpoint reports on (the staged candidate and its report
/// live on the cell, not on any one index snapshot).
pub fn respond_full(
    req: &Request,
    index: &ScoreIndex,
    shared: Option<&SharedIndex>,
    metrics: &Metrics,
) -> (u16, Value) {
    let route = route(req, index);
    route.count(metrics);
    respond_route(route, req, index, shared, metrics)
}

/// Build the `(status, body)` for an already decided (and counted)
/// [`Route`].
pub(crate) fn respond_route(
    route: Route<'_>,
    req: &Request,
    index: &ScoreIndex,
    shared: Option<&SharedIndex>,
    metrics: &Metrics,
) -> (u16, Value) {
    match route {
        Route::Shadow => match shared {
            Some(s) => (200, s.shadow_json()),
            None => (404, http::error_body(404, "no shadow state on this serving path")),
        },
        Route::Health => (
            200,
            ObjectBuilder::new()
                .field("status", "ok")
                .field("articles", index.num_articles() as i64)
                .field("generation", index.generation() as i64)
                .build(),
        ),
        Route::Metrics => (200, metrics.to_json()),
        Route::Top(Ok(q)) => match top_body(index, &q) {
            Some(body) => (200, body),
            None => (500, broken_index_body()),
        },
        Route::Top(Err(msg)) => (400, http::error_body(400, &msg)),
        Route::Article(Ok(id)) => match index.detail(ArticleId(id), DETAIL_NEIGHBORS) {
            Some(d) => match detail_body(index, &d) {
                Some(body) => (200, body),
                None => (500, broken_index_body()),
            },
            None => (404, http::error_body(404, &format!("no article with id {id}"))),
        },
        Route::Article(Err(rest)) => {
            (400, http::error_body(400, &format!("article id {rest:?} is not a u32")))
        }
        Route::NotFound => (404, http::error_body(404, &format!("no route for {}", req.path))),
    }
}

/// The `500` body for an index that returned an article id outside its
/// own corpus — an invariant breach the client should see as a server
/// error (and the 5xx counter should record), never as a panic.
fn broken_index_body() -> Value {
    http::error_body(500, "index returned an article outside the corpus")
}

/// Build a [`TopQuery`] from `/top` parameters, resolving venue/author
/// names through the index. Every malformed value is a `400` with the
/// offending parameter named.
fn parse_top_query(req: &Request, index: &ScoreIndex) -> Result<TopQuery, String> {
    let mut q = TopQuery { k: 10, ..Default::default() };
    if let Some(raw) = req.param("k") {
        q.k = raw
            .parse::<usize>()
            .map_err(|_| format!("parameter k={raw:?} is not a non-negative integer"))?;
        if q.k > MAX_K {
            return Err(format!("parameter k={raw} exceeds the maximum of {MAX_K}"));
        }
    }
    if let Some(name) = req.param("venue") {
        q.venue = Some(index.venue_id(name).ok_or_else(|| format!("unknown venue {name:?}"))?);
    }
    if let Some(name) = req.param("author") {
        q.author = Some(index.author_id(name).ok_or_else(|| format!("unknown author {name:?}"))?);
    }
    for (key, slot) in [("year_min", &mut q.year_min), ("year_max", &mut q.year_max)] {
        if let Some(raw) = req.param(key) {
            *slot = Some(
                raw.parse::<i32>().map_err(|_| format!("parameter {key}={raw:?} is not a year"))?,
            );
        }
    }
    if let (Some(lo), Some(hi)) = (q.year_min, q.year_max) {
        if lo > hi {
            return Err(format!("year range is inverted: year_min={lo} > year_max={hi}"));
        }
    }
    Ok(q)
}

/// `None` when the hit's id falls outside the corpus (a broken index);
/// the caller turns that into a 500.
pub(crate) fn hit_json(index: &ScoreIndex, h: &crate::index::Hit) -> Option<Value> {
    let art = index.corpus().articles().get(h.id.index())?;
    Some(
        ObjectBuilder::new()
            .field("rank", h.rank as i64)
            .field("id", h.id.0 as i64)
            .field("score", h.score)
            .field("title", art.title.as_str())
            .field("year", art.year)
            .field("venue", index.corpus().venue(art.venue).name.as_str())
            .build(),
    )
}

fn top_body(index: &ScoreIndex, q: &TopQuery) -> Option<Value> {
    let hits = index.top(q);
    let results = hits.iter().map(|h| hit_json(index, h)).collect::<Option<Vec<_>>>()?;
    Some(
        ObjectBuilder::new()
            .field("generation", index.generation() as i64)
            .field("count", hits.len() as i64)
            .field("results", Value::Array(results))
            .build(),
    )
}

fn detail_body(index: &ScoreIndex, d: &crate::index::ArticleDetail) -> Option<Value> {
    let art = index.corpus().articles().get(d.id.index())?;
    let neighbors = d.neighbors.iter().map(|h| hit_json(index, h)).collect::<Option<Vec<_>>>()?;
    ObjectBuilder::new()
        .field("generation", index.generation() as i64)
        .field("id", d.id.0 as i64)
        .field("title", art.title.as_str())
        .field("year", art.year)
        .field("venue", index.corpus().venue(art.venue).name.as_str())
        .field(
            "authors",
            Value::Array(
                art.authors
                    .iter()
                    .map(|&u| Value::from(index.corpus().author(u).name.as_str()))
                    .collect(),
            ),
        )
        .field("rank", d.rank as i64)
        .field("score", d.score)
        .field("percentile", d.percentile)
        .field("references", art.references.len() as i64)
        .field("neighbors", Value::Array(neighbors))
        .build()
        .into()
}
