//! Starting and stopping a server, and the pure reference router.
//!
//! The server is the epoll event loop (`epoll.rs`) feeding the shared
//! request path ([`crate::conn`]). It needs Linux: elsewhere [`serve`]
//! is an `Unsupported` error, while ranking, the corpus and the mmap
//! layer stay portable.
//!
//! Shutdown is graceful: [`ServerHandle::shutdown`] flips a flag every
//! shard checks at least once per `epoll_wait` tick and joins them; a
//! shard finishes the connection it is driving and makes a last flush of
//! the responses it already rendered before closing.

use crate::http::{self, Request};
use crate::index::{ScoreIndex, TopQuery};
use crate::metrics::Metrics;
use crate::record::Recorder;
use crate::swap::SharedIndex;
use scholar_corpus::ArticleId;
use sjson::{ObjectBuilder, Value};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The serving backend. The epoll event loop is the only one; this enum
/// and [`ServeConfig::backend`] are kept solely because the perf ledger
/// (`benchmark/`) names `Backend::Epoll`, and go with its next change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The nonblocking epoll event loop (Linux only; starting it
    /// elsewhere is an `Unsupported` error).
    Epoll,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (0 = any free port).
    pub addr: String,
    /// Event-loop shards, each a thread with its own `SO_REUSEPORT`
    /// listener.
    pub workers: usize,
    /// Per-connection read timeout while waiting for the request head;
    /// a slowloris client is cut off with `408` after this long, and an
    /// idle keep-alive connection is closed silently.
    pub read_timeout: Duration,
    /// Always [`Backend::Epoll`]; kept only because the perf ledger
    /// (`benchmark/`) sets it (see [`Backend`]).
    pub backend: Backend,
    /// Concurrent connections one shard will hold before shedding new
    /// ones with `503`.
    pub max_conns: usize,
    /// Optional request recorder (see [`crate::record`]), offered every
    /// answered request after the response is written. Recording is
    /// sampled and never blocks or fails the live path.
    pub recorder: Option<Arc<Recorder>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            read_timeout: Duration::from_secs(5),
            backend: Backend::Epoll,
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

/// A running server: owns its event-loop shard threads.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics: Arc<Metrics>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

/// What the event loop hands back once its listeners are bound and every
/// shard is running.
pub(crate) type Started = std::io::Result<(SocketAddr, Vec<JoinHandle<()>>)>;

/// Start serving `shared` on `config.addr`. Returns once the listeners
/// are bound and every shard is running; bind and thread-spawn failures
/// surface as the `Err` they are.
pub fn serve(
    shared: Arc<SharedIndex>,
    metrics: Arc<Metrics>,
    config: &ServeConfig,
) -> std::io::Result<ServerHandle> {
    let stop = Arc::new(AtomicBool::new(false));
    let (addr, threads) = start(shared, Arc::clone(&metrics), config, Arc::clone(&stop))?;
    Ok(ServerHandle { addr, metrics, stop, threads })
}

#[cfg(target_os = "linux")]
use crate::epoll::start;

#[cfg(not(target_os = "linux"))]
fn start(_: Arc<SharedIndex>, _: Arc<Metrics>, _: &ServeConfig, _: Arc<AtomicBool>) -> Started {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "scholar-serve serves through epoll, which requires Linux",
    ))
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` asked for `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Stop accepting, flush what is already rendered, join every shard.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
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

pub(crate) fn log_panic(stage: &str, cause: &(dyn std::any::Any + Send)) {
    let msg = cause
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| cause.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>");
    eprintln!("scholar-serve: worker caught a panic while {stage}: {msg}");
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
