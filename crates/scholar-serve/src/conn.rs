//! The one request path: a sans-IO HTTP connection core under the epoll
//! event loop (DESIGN.md §2.15).
//!
//! A [`Conn`] holds no socket. The driver appends the bytes it read to
//! [`Conn::buf`], writes out [`Conn::pending`] and reports progress with
//! [`Conn::advance`]; exactly three events drive everything in between:
//!
//! - **bytes arrived** ([`Conn::on_bytes`]) — peel complete request heads
//!   off the buffer with [`http::try_parse_head`], rendering each
//!   response into the output buffer. Several heads in one buffer are
//!   pipelined requests: all are answered, in order, in one pass. A
//!   request without `Connection: keep-alive` marks the connection
//!   close-after-flush and stops the pipeline. A malformed head is
//!   answered (`400`/`405`/`414`) and poisons the byte stream: close.
//! - **peer EOF** ([`Conn::on_eof`]) — EOF before a head completed, or
//!   before a single byte was sent, is a `400`; EOF between requests is
//!   a plain close.
//! - **idle past the read timeout** ([`Conn::on_timeout`]) — a stalled
//!   started request gets a `408` (slowloris); an idle keep-alive
//!   connection closes silently, as keep-alive clients expect.
//!
//! Accounting lives here and nowhere else: every response the core
//! renders is counted, attributed to a generation and offered to the
//! recorder exactly once, and a handler panic becomes a recorded `500`.
//! The driver, `epoll.rs`, adds only readiness — nonblocking fill/flush
//! on edge-triggered wake-ups — plus the accept-side `503` shed.
//!
//! ## Cache invalidation on swap
//!
//! The per-thread response cache keys on the raw request-target bytes
//! and stamps each entry with the generation of the index snapshot that
//! rendered it. A lookup only returns an entry whose stamp equals the
//! *current* snapshot's generation — publishing a new generation
//! therefore invalidates every entry at once without touching the
//! cache, because the stamp comparison fails. Stale entries are simply
//! overwritten on the next miss or evicted by LRU order.

use crate::http::{self, ParsedHead};
use crate::index::{Placement, TopQuery};
use crate::metrics::{Metrics, OpenConn};
use crate::record::{Recorder, ReqRecord};
use crate::server::{self, Route};
use crate::swap::SharedIndex;
use crate::ScoreIndex;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stop rendering pipelined responses once this much output is pending
/// flush — bounds memory against a client that pipelines requests but
/// never reads answers. Processing resumes as the client drains.
pub(crate) const WRITE_LIMIT: usize = 256 * 1024;
/// Rendered-response cache: entries per thread.
const CACHE_CAP: usize = 256;
/// Largest body the cache will hold (a `/top?k=10000` answer is ~1.5MB;
/// caching those would blow the per-thread memory budget).
const CACHE_MAX_BODY: usize = 64 * 1024;

/// Per-thread request context: everything the render path needs, kept
/// apart from the connections so a connection and the context can be
/// borrowed mutably at the same time. One per event-loop shard; all
/// scratch is reused across requests, so steady-state
/// `/top` and `/article/{id}` answers perform no allocations at all.
pub struct Ctx {
    shared: Arc<SharedIndex>,
    pub(crate) metrics: Arc<Metrics>,
    /// Scratch for [`ScoreIndex::top_ids_into`].
    ids: Vec<u32>,
    /// Body staging arena (bodies are built here so their length is
    /// known before the head is written).
    body: Vec<u8>,
    cache: TopCache,
    /// Optional request recorder shared by every serving thread.
    recorder: Option<Arc<Recorder>>,
}

impl Ctx {
    /// A fresh context (cold scratch, empty cache) serving `shared`.
    pub fn new(
        shared: Arc<SharedIndex>,
        metrics: Arc<Metrics>,
        recorder: Option<Arc<Recorder>>,
    ) -> Ctx {
        Ctx {
            shared,
            metrics,
            ids: Vec::new(),
            body: Vec::new(),
            cache: TopCache::new(CACHE_CAP),
            recorder,
        }
    }

    /// Route one request, appending the complete response (head + body)
    /// to `out`. `target` is the raw request-target bytes (the cache
    /// key). `/top` and an in-corpus `/article/{id}` take the zero-alloc
    /// byte path: bodies assembled from pre-rendered fragments and
    /// sjson's byte writers in the staging arena (`/top` behind a cache
    /// probe on the raw target). Everything else goes through the shared
    /// pure router, which is also the oracle the byte path must equal.
    pub fn write_answer(
        &mut self,
        req: &http::Request,
        target: &[u8],
        index: &ScoreIndex,
        keep: bool,
        out: &mut Vec<u8>,
    ) -> u16 {
        // Chaos site: a buggy or slow handler. An injected panic here
        // must come back as a recorded `500`, never as a lost response
        // or a dead shard.
        failpoint!("serve.respond");
        let route = server::route(req, index);
        route.count(&self.metrics);
        match route {
            Route::Top(Ok(q)) => self.write_top(&q, target, index, keep, out),
            Route::Article(Ok(id)) => match index.placement(id, server::DETAIL_NEIGHBORS) {
                Some(at) => self.write_article(id, at, index, keep, out),
                // Not in this corpus: the router's 404.
                None => self.write_cold(Route::Article(Ok(id)), req, index, keep, out),
            },
            cold => self.write_cold(cold, req, index, keep, out),
        }
    }

    /// The cold endpoints (/health, /metrics, /shadow, every 4xx): the
    /// router's per-request `Value` and serialization are fine here.
    fn write_cold(
        &mut self,
        route: Route<'_>,
        req: &http::Request,
        index: &ScoreIndex,
        keep: bool,
        out: &mut Vec<u8>,
    ) -> u16 {
        let (status, body) =
            server::respond_route(route, req, index, Some(&self.shared), &self.metrics);
        let rendered = body.to_string_compact();
        http::write_response_head(out, status, rendered.len(), keep);
        out.extend_from_slice(rendered.as_bytes());
        status
    }

    /// `/top`: a cache hit is a memcpy; a miss is ids from the posting
    /// lists and their fragments between pre-built punctuation.
    fn write_top(
        &mut self,
        q: &TopQuery,
        target: &[u8],
        index: &ScoreIndex,
        keep: bool,
        out: &mut Vec<u8>,
    ) -> u16 {
        if let Some(body) = self.cache.get(target, index.generation()) {
            http::write_response_head(out, 200, body.len(), keep);
            out.extend_from_slice(body);
            return 200;
        }
        index.top_ids_into(q, &mut self.ids);
        let body = &mut self.body;
        body.clear();
        body.extend_from_slice(b"{\"generation\":");
        sjson::write_number(body, index.generation() as f64);
        body.extend_from_slice(b",\"count\":");
        sjson::write_number(body, self.ids.len() as f64);
        body.extend_from_slice(b",\"results\":[");
        if !push_fragments(body, index, &self.ids) {
            return self.broken_index(keep, out);
        }
        body.extend_from_slice(b"]}");
        http::write_response_head(out, 200, body.len(), keep);
        out.extend_from_slice(body);
        self.cache.insert(target, index.generation(), &self.body);
        200
    }

    /// `/article/{id}` for an article in the corpus, in the router's
    /// field order. Only `generation` is not fixed at publish time; the
    /// neighbours are fragment memcpys. Not cached: on a cold mix a
    /// probe plus insert costs about as much as this render, and hits
    /// are rare (DESIGN.md §2.9).
    fn write_article(
        &mut self,
        id: u32,
        at: Placement<'_>,
        index: &ScoreIndex,
        keep: bool,
        out: &mut Vec<u8>,
    ) -> u16 {
        let corpus = index.corpus();
        let Some(art) = corpus.articles().get(id as usize) else {
            return self.broken_index(keep, out);
        };
        let body = &mut self.body;
        body.clear();
        body.extend_from_slice(b"{\"generation\":");
        sjson::write_number(body, index.generation() as f64);
        body.extend_from_slice(b",\"id\":");
        sjson::write_number(body, f64::from(id));
        body.extend_from_slice(b",\"title\":");
        sjson::write_str(body, &art.title);
        body.extend_from_slice(b",\"year\":");
        sjson::write_number(body, f64::from(art.year));
        body.extend_from_slice(b",\"venue\":");
        sjson::write_str(body, &corpus.venue(art.venue).name);
        body.extend_from_slice(b",\"authors\":[");
        for (i, &u) in art.authors.iter().enumerate() {
            if i > 0 {
                body.push(b',');
            }
            sjson::write_str(body, &corpus.author(u).name);
        }
        body.extend_from_slice(b"],\"rank\":");
        sjson::write_number(body, at.rank as f64);
        body.extend_from_slice(b",\"score\":");
        sjson::write_number(body, at.score);
        body.extend_from_slice(b",\"percentile\":");
        sjson::write_number(body, at.percentile);
        body.extend_from_slice(b",\"references\":");
        sjson::write_number(body, art.references.len() as f64);
        body.extend_from_slice(b",\"neighbors\":[");
        if !push_fragments(body, index, at.neighbors) {
            return self.broken_index(keep, out);
        }
        body.extend_from_slice(b"]}");
        http::write_response_head(out, 200, body.len(), keep);
        out.extend_from_slice(body);
        200
    }

    /// The `500` for an index that handed out an article outside its own
    /// corpus — the router's answer to the same breach.
    fn broken_index(&mut self, keep: bool, out: &mut Vec<u8>) -> u16 {
        let message = "index returned an article outside the corpus";
        http::write_error_response(out, &mut self.body, 500, message, keep);
        500
    }

    /// Post-response hook: offer the answered request to the recorder,
    /// and mirror it to a staged shadow candidate.
    ///
    /// Recording and mirroring are *coupled*: with a recorder configured,
    /// only requests that were actually stored in the ring are mirrored.
    /// That makes the flushed RLOGv1 log exactly the mirrored workload, so
    /// [`crate::shadow::replay_mirror`] over the log reproduces the online
    /// `ShadowReport` drift numbers bit for bit. Without a recorder, every
    /// request is mirrored.
    fn observe_request(
        &self,
        live: &ScoreIndex,
        target: &str,
        conn: u64,
        seq: u64,
        status: u16,
        latency_us: u64,
    ) {
        let mirror = match &self.recorder {
            Some(r) => {
                r.sample()
                    && r.store(ReqRecord {
                        conn,
                        seq,
                        generation: live.generation(),
                        status,
                        latency_us,
                        target: target.to_owned(),
                    })
            }
            None => true,
        };
        if mirror && self.shared.mirror_if_shadowing(live, target, latency_us).is_some() {
            // This mirror's auto-decision just promoted the candidate.
            self.metrics.record_swap();
        }
    }
}

/// Append the pre-rendered hit objects of `ids` to `body`, comma
/// separated. `false` on an id the index has no fragment for.
fn push_fragments(body: &mut Vec<u8>, index: &ScoreIndex, ids: &[u32]) -> bool {
    for (i, &a) in ids.iter().enumerate() {
        let frag = index.hit_fragment(a);
        if frag.is_empty() {
            return false;
        }
        if i > 0 {
            body.push(b',');
        }
        body.extend_from_slice(frag);
    }
    true
}

/// One connection's protocol state between events.
pub struct Conn {
    /// Unparsed request bytes (the per-connection read arena); the driver
    /// appends what it reads, the core drains what it parsed.
    pub buf: Vec<u8>,
    /// Rendered-but-unflushed response bytes.
    out: Vec<u8>,
    /// How much of `out` has been written so far.
    out_pos: usize,
    /// Requests completed on this connection (keep-alive accounting).
    served: u64,
    /// Close once `out` is fully flushed (response said close, or a
    /// parse error poisoned the byte stream).
    close_after_flush: bool,
    /// Peer EOF seen: flush what we owe, read nothing more.
    peer_gone: bool,
    /// Recorder-assigned connection id (0 without a recorder); recorded
    /// requests carry it so replay can preserve per-connection order.
    id: u64,
    _open: OpenConn,
}

impl Conn {
    /// A freshly accepted connection, counted open until it drops.
    pub fn new(ctx: &Ctx) -> Conn {
        Conn {
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            served: 0,
            close_after_flush: false,
            peer_gone: false,
            id: ctx.recorder.as_ref().map(|r| r.conn_id()).unwrap_or(0),
            _open: ctx.metrics.conn_open(),
        }
    }

    /// Response bytes rendered and not yet written out.
    pub fn pending(&self) -> &[u8] {
        self.out.get(self.out_pos..).unwrap_or_default()
    }

    /// The driver wrote the first `n` bytes of [`Conn::pending`].
    pub fn advance(&mut self, n: usize) {
        self.out_pos += n;
        if self.out_pos >= self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Whether the driver should read more request bytes: not after EOF
    /// or a closing response, and not while the client owes us a drain.
    pub fn wants_bytes(&self) -> bool {
        !self.peer_gone && !self.close_after_flush && self.pending().len() < WRITE_LIMIT
    }

    /// Everything owed is flushed and nothing more can arrive or be
    /// answered: the driver closes the socket.
    pub fn finished(&self) -> bool {
        self.pending().is_empty()
            && (self.close_after_flush || (self.peer_gone && self.buf.is_empty()))
    }

    /// Event: the peer closed its sending side.
    pub fn on_eof(&mut self, ctx: &mut Ctx) -> bool {
        self.peer_gone = true;
        self.on_bytes(ctx)
    }

    /// Event: bytes arrived in `buf` (or flushing freed output space).
    /// Peel complete heads off the buffer and render their responses.
    /// Returns `true` when it paused on the write cap with parseable
    /// bytes still buffered (the driver calls again once flushing frees
    /// space).
    pub fn on_bytes(&mut self, ctx: &mut Ctx) -> bool {
        // Chaos site: a slow or dying driver thread, outside any one
        // request — a panic here reaches the driver's last-resort guard.
        failpoint!("serve.handle");
        let mut parsed = 0;
        let mut backpressured = false;
        while !self.close_after_flush {
            let rest = self.buf.get(parsed..).unwrap_or_default();
            if rest.is_empty() {
                break;
            }
            if self.pending().len() >= WRITE_LIMIT {
                backpressured = true;
                break;
            }
            match http::try_parse_head(rest) {
                Ok(None) => break,
                Ok(Some(head)) => {
                    if self.served > 0 {
                        ctx.metrics.record_keepalive_reuse();
                    }
                    self.answer(ctx, &head, parsed);
                    self.served += 1;
                    parsed += head.consumed;
                    self.close_after_flush = !head.keep_alive;
                }
                Err(e) => {
                    self.early_error(ctx, e.status(), &e.message(), None);
                    break;
                }
            }
        }
        // EOF with a head still incomplete, or before a single byte was
        // sent: nothing can complete it any more.
        let incomplete = parsed < self.buf.len() || self.served == 0;
        if self.peer_gone && incomplete && !backpressured && !self.close_after_flush {
            self.early_error(ctx, 400, "connection closed before end of request head", None);
        }
        self.buf.drain(..parsed);
        backpressured
    }

    /// Event: the driver saw no activity for `idle`, past its read
    /// timeout. A mid-request stall (bytes buffered, or nothing ever
    /// served) with nothing else owed answers `408`; an idle keep-alive
    /// connection closes silently. Either way the connection is over:
    /// the driver makes one best-effort flush and closes — the client
    /// was the slow side, so an unflushed remainder is its loss.
    pub fn on_timeout(&mut self, ctx: &mut Ctx, idle: Duration) {
        let mid_request = !self.buf.is_empty() || self.served == 0;
        if mid_request && self.pending().is_empty() {
            self.early_error(ctx, 408, "timed out waiting for request", Some(idle));
        }
        self.close_after_flush = true;
    }

    /// Render a pre-request failure (parse error, EOF mid-head, timeout)
    /// and mark the connection for close — the byte stream is not
    /// trustworthy past this point. `waited` is the latency to record
    /// when the failure *is* a wait; otherwise the render is timed.
    fn early_error(&mut self, ctx: &mut Ctx, status: u16, message: &str, waited: Option<Duration>) {
        let _gauge = ctx.metrics.begin();
        let started = Instant::now();
        http::write_error_response(&mut self.out, &mut ctx.body, status, message, false);
        ctx.metrics.record(status, waited.unwrap_or_else(|| started.elapsed()));
        // No index was consulted; attribute to the currently published
        // generation so per-generation requests still sum to `requests`.
        ctx.metrics.record_generation(ctx.shared.generation(), status);
        self.close_after_flush = true;
    }

    /// Answer one parsed request into the output buffer.
    fn answer(&mut self, ctx: &mut Ctx, head: &ParsedHead, head_offset: usize) {
        let metrics = Arc::clone(&ctx.metrics);
        let _gauge = metrics.begin();
        let started = Instant::now();
        // Snapshot the index once per request: the whole answer comes
        // from one immutable generation even if a swap lands mid-answer,
        // and `/metrics` attributes the response to exactly that one.
        let index = ctx.shared.load();
        // The raw target bytes, shifted by where this head sits in the
        // buffer (pipelined requests parse at nonzero offsets).
        let target = head_offset + head.target.start..head_offset + head.target.end;
        let rollback = self.out.len();
        let status = catch_unwind(AssertUnwindSafe(|| {
            let target = self.buf.get(target.clone()).unwrap_or_default();
            ctx.write_answer(&head.req, target, &index, head.keep_alive, &mut self.out)
        }));
        let status = match status {
            Ok(s) => s,
            Err(cause) => {
                // Narrow per-request isolation: a handler bug becomes a
                // recorded 500, the client still gets a whole response,
                // and accounting stays exact.
                ctx.metrics.record_panic();
                server::log_panic("answering a request", cause.as_ref());
                self.out.truncate(rollback);
                http::write_error_response(
                    &mut self.out,
                    &mut ctx.body,
                    500,
                    "internal error while answering the request",
                    head.keep_alive,
                );
                500
            }
        };
        let took = started.elapsed();
        ctx.metrics.record(status, took);
        ctx.metrics.record_generation(index.generation(), status);
        // Record + mirror after the response is rendered and accounted:
        // `took` (what `/metrics` reports) never includes shadow work, and a
        // mirror fault can only degrade recording, never the answer already
        // sitting in the output buffer.
        let target = String::from_utf8_lossy(self.buf.get(target).unwrap_or_default());
        let us = took.as_micros().min(u128::from(u64::MAX)) as u64;
        ctx.observe_request(&index, &target, self.id, self.served, status, us);
    }
}

/// One cached rendered `/top` body.
struct CacheEntry {
    generation: u64,
    last_used: u64,
    body: Vec<u8>,
}

/// A tiny per-thread LRU of rendered `/top` bodies keyed by raw request
/// target. Single-threaded (owned by one [`Ctx`]), so no locks; see the
/// module docs for the generation-stamp invalidation scheme.
struct TopCache {
    cap: usize,
    tick: u64,
    entries: HashMap<Vec<u8>, CacheEntry>,
}

impl TopCache {
    fn new(cap: usize) -> TopCache {
        TopCache { cap, tick: 0, entries: HashMap::with_capacity(cap) }
    }

    /// The cached body for `target`, only if it was rendered from the
    /// generation being served right now.
    fn get(&mut self, target: &[u8], generation: u64) -> Option<&[u8]> {
        self.tick += 1;
        let entry = self.entries.get_mut(target)?;
        if entry.generation != generation {
            return None;
        }
        entry.last_used = self.tick;
        Some(&entry.body)
    }

    fn insert(&mut self, target: &[u8], generation: u64, body: &[u8]) {
        if body.len() > CACHE_MAX_BODY {
            return;
        }
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(target) {
            entry.generation = generation;
            entry.last_used = self.tick;
            entry.body.clear();
            entry.body.extend_from_slice(body);
            return;
        }
        if self.entries.len() >= self.cap {
            // O(cap) eviction scan, but only on a miss that inserts
            // into a full cache — the hot steady state never pays it.
            if let Some(victim) =
                self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(
            target.to_vec(),
            CacheEntry { generation, last_used: self.tick, body: body.to_vec() },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar_corpus::generator::Preset;
    use std::sync::atomic::Ordering::SeqCst;

    fn ctx() -> Ctx {
        let corpus = Arc::new(Preset::Tiny.generate(3));
        let scores = vec![1.0; corpus.num_articles()];
        let shared = Arc::new(SharedIndex::new(ScoreIndex::build(corpus, scores)));
        Ctx::new(shared, Arc::new(Metrics::new()), None)
    }

    /// The status of the one response `conn` owes, which must also close
    /// the connection.
    fn closing_status(conn: &Conn) -> u16 {
        let text = String::from_utf8_lossy(conn.pending()).into_owned();
        assert!(conn.close_after_flush && text.contains("Connection: close"), "{text}");
        assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "{text}");
        text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line")
    }

    /// A keep-alive connection with one request answered and flushed.
    fn between_requests(ctx: &mut Ctx) -> Conn {
        let mut conn = Conn::new(ctx);
        conn.buf.extend_from_slice(b"GET /health HTTP/1.1\r\nConnection: keep-alive\r\n\r\n");
        conn.on_bytes(ctx);
        conn.advance(conn.pending().len());
        assert!(!conn.finished() && conn.wants_bytes());
        conn
    }

    #[test]
    fn missing_terminator_is_400() {
        let mut ctx = ctx();
        let mut conn = Conn::new(&ctx);
        conn.buf.extend_from_slice(b"GET /top HTTP/1.1\r\nHost: x\r\n");
        conn.on_bytes(&mut ctx);
        assert!(conn.pending().is_empty(), "a partial head is not an error yet");
        conn.on_eof(&mut ctx);
        assert_eq!(closing_status(&conn), 400);
        assert!(String::from_utf8_lossy(conn.pending()).contains("before end of request head"));
        // Connect-and-close is the same 400; EOF between requests is not.
        let mut silent = Conn::new(&ctx);
        silent.on_eof(&mut ctx);
        assert_eq!(closing_status(&silent), 400);
        let mut polite = between_requests(&mut ctx);
        polite.on_eof(&mut ctx);
        assert!(polite.finished());
        assert_eq!(ctx.metrics.client_errors.load(SeqCst), 2);
    }

    #[test]
    fn slow_trickle_hits_timeout_408() {
        let mut ctx = ctx();
        let idle = Duration::from_millis(300);
        // Slowloris: a started request that stalls is answered 408 …
        let mut stalled = Conn::new(&ctx);
        stalled.buf.extend_from_slice(b"GET /top?k=");
        stalled.on_bytes(&mut ctx);
        stalled.on_timeout(&mut ctx, idle);
        assert_eq!(closing_status(&stalled), 408);
        // … as is a connection that never sent anything …
        let mut mute = Conn::new(&ctx);
        mute.on_timeout(&mut ctx, idle);
        assert_eq!(closing_status(&mute), 408);
        // … but an idle keep-alive connection just closes.
        let mut reusable = between_requests(&mut ctx);
        reusable.on_timeout(&mut ctx, idle);
        assert!(reusable.finished());
        assert_eq!(ctx.metrics.client_errors.load(SeqCst), 2);
        assert_eq!(ctx.metrics.connections_active.load(SeqCst), 3);
        drop((stalled, mute, reusable));
        assert_eq!(ctx.metrics.connections_active.load(SeqCst), 0);
    }

    #[test]
    fn cache_validates_generation_and_evicts_lru() {
        let mut c = TopCache::new(2);
        c.insert(b"/top?k=1", 1, b"one");
        assert_eq!(c.get(b"/top?k=1", 1), Some(b"one".as_slice()));
        // Wrong generation: entry exists but must not be served.
        assert_eq!(c.get(b"/top?k=1", 2), None);
        // Overwriting re-stamps in place.
        c.insert(b"/top?k=1", 2, b"two");
        assert_eq!(c.get(b"/top?k=1", 2), Some(b"two".as_slice()));

        // Fill to cap, touch the first, insert a third: the untouched
        // second entry is the LRU victim.
        c.insert(b"/top?k=9", 2, b"nine");
        assert_eq!(c.get(b"/top?k=1", 2), Some(b"two".as_slice()));
        c.insert(b"/top?k=5", 2, b"five");
        assert_eq!(c.get(b"/top?k=9", 2), None);
        assert_eq!(c.get(b"/top?k=1", 2), Some(b"two".as_slice()));
        assert_eq!(c.get(b"/top?k=5", 2), Some(b"five".as_slice()));
    }

    #[test]
    fn cache_refuses_oversized_bodies() {
        let mut c = TopCache::new(4);
        let big = vec![b'x'; CACHE_MAX_BODY + 1];
        c.insert(b"/top?k=10000", 1, &big);
        assert_eq!(c.get(b"/top?k=10000", 1), None);
    }
}
