//! Keep-alive protocol edge cases against the event loop, driven by
//! byte-level clients: pipelining, requests split mid-header across
//! writes, connection reuse across a generation swap, explicit
//! `Connection: close`, and idle/slow-loris eviction from the event
//! loop. Linux-only, like the server.
#![cfg(target_os = "linux")]

use scholar_corpus::generator::Preset;
use scholar_corpus::model::{Article, ArticleId, AuthorId, VenueId};
use scholar_serve::{serve, Metrics, Reindexer, ServeConfig, SharedIndex};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start(seed: u64) -> (Arc<SharedIndex>, Reindexer, scholar_serve::ServerHandle) {
    let corpus = Preset::Tiny.generate(seed);
    let (shared, reindexer) = Reindexer::start(qrank::QRankConfig::default(), corpus, |_| {});
    let metrics = Arc::new(Metrics::new());
    let config =
        ServeConfig { workers: 2, read_timeout: Duration::from_millis(300), ..Default::default() };
    let server = serve(Arc::clone(&shared), metrics, &config).expect("bind");
    (shared, reindexer, server)
}

/// A GET that asks the server to keep the connection open.
fn keep_alive_get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n").into_bytes()
}

/// Read exactly one framed response off a keep-alive connection:
/// head until `\r\n\r\n`, then `Content-Length` body bytes. `buf`
/// carries leftover bytes between calls — with pipelining, one socket
/// read may legitimately pull in the start of the *next* response.
/// Returns `(status, head, body)`.
fn read_response_buffered(s: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, String, Vec<u8>) {
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        match s.read(&mut chunk) {
            Ok(0) => panic!("connection closed mid-head: {:?}", String::from_utf8_lossy(buf)),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read error mid-head: {e}"),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {head:?}"));
    let len: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_owned))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no content-length in {head:?}"));
    while buf.len() < head_end + len {
        let n = s.read(&mut chunk).expect("read body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = buf[head_end..head_end + len].to_vec();
    buf.drain(..head_end + len);
    (status, head, body)
}

/// One-response-per-connection-state convenience for tests that never
/// pipeline: asserts nothing was left over from an earlier response.
fn read_response(s: &mut TcpStream) -> (u16, String, Vec<u8>) {
    let mut buf = Vec::new();
    let out = read_response_buffered(s, &mut buf);
    assert!(buf.is_empty(), "unexpected trailing bytes: {:?}", String::from_utf8_lossy(&buf));
    out
}

fn parse_json(body: &[u8]) -> sjson::Value {
    sjson::parse(std::str::from_utf8(body).expect("utf8 body")).expect("well-formed JSON body")
}

#[test]
fn pipelined_requests_answer_in_order_on_one_connection() {
    let (_shared, reindexer, server) = start(41);
    let mut s = TcpStream::connect(server.addr()).unwrap();

    // Three requests in a single write; responses must come back whole,
    // in order, each individually framed.
    let mut batch = Vec::new();
    batch.extend_from_slice(&keep_alive_get("/top?k=3"));
    batch.extend_from_slice(&keep_alive_get("/health"));
    batch.extend_from_slice(&keep_alive_get("/top?k=5"));
    s.write_all(&batch).unwrap();

    let mut carry = Vec::new();
    let (status, head, body) = read_response_buffered(&mut s, &mut carry);
    assert_eq!(status, 200);
    assert!(head.to_ascii_lowercase().contains("connection: keep-alive"), "{head:?}");
    assert_eq!(parse_json(&body).get("count").unwrap().as_i64(), Some(3));
    let (status, _, body) = read_response_buffered(&mut s, &mut carry);
    assert_eq!(status, 200);
    assert_eq!(parse_json(&body).get("status").unwrap().as_str(), Some("ok"));
    let (status, _, body) = read_response_buffered(&mut s, &mut carry);
    assert_eq!(status, 200);
    assert_eq!(parse_json(&body).get("count").unwrap().as_i64(), Some(5));
    assert!(carry.is_empty(), "bytes past the third response: {carry:?}");

    // Requests #2 and #3 rode an already-used connection.
    assert!(server.metrics().keepalive_reuses.load(SeqCst) >= 2);
    drop(server);
    reindexer.shutdown();
}

#[test]
fn request_split_mid_header_is_reassembled_and_the_connection_reused() {
    let (_shared, reindexer, server) = start(42);
    let mut s = TcpStream::connect(server.addr()).unwrap();

    // Dribble one request a few bytes at a time, splitting inside the
    // request line and inside a header name — the event loop must
    // buffer partial heads across readiness cycles.
    let raw = keep_alive_get("/top?k=4");
    for piece in raw.chunks(7) {
        s.write_all(piece).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, _, body) = read_response(&mut s);
    assert_eq!(status, 200);
    assert_eq!(parse_json(&body).get("count").unwrap().as_i64(), Some(4));

    // The same connection still serves a whole request afterwards.
    s.write_all(&keep_alive_get("/health")).unwrap();
    assert_eq!(read_response(&mut s).0, 200);
    assert!(server.metrics().keepalive_reuses.load(SeqCst) >= 1);
    drop(server);
    reindexer.shutdown();
}

#[test]
fn keep_alive_connection_survives_generation_swaps_untorn() {
    let (shared, reindexer, server) = start(43);
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let first_gen = shared.generation();

    // One long-lived connection querying while the index is republished
    // under it. Every response must be whole and internally consistent,
    // and the generations it observes must be monotone — the response
    // cache may serve stale-but-valid entries never, because entries
    // are stamped with the generation that rendered them.
    let mut seen = Vec::new();
    for batch in 0..3u32 {
        reindexer
            .submit(vec![Article {
                id: ArticleId(0),
                title: format!("swap-{batch}"),
                year: 2012,
                venue: VenueId(0),
                authors: vec![AuthorId(0)],
                references: vec![ArticleId(batch)],
                merit: None,
            }])
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while reindexer.batches_published() < (batch + 1) as u64 {
            assert!(Instant::now() < deadline, "publish {batch} never landed");
            s.write_all(&keep_alive_get("/top?k=6")).unwrap();
            let (status, _, body) = read_response(&mut s);
            assert_eq!(status, 200);
            let top = parse_json(&body);
            let results = top.get("results").unwrap().as_array().unwrap();
            assert_eq!(results.len(), 6, "torn result list");
            for w in results.windows(2) {
                assert!(w[0].get("rank").unwrap().as_u64() < w[1].get("rank").unwrap().as_u64());
            }
            seen.push(top.get("generation").unwrap().as_u64().unwrap());
        }
    }
    // A final request must observe the last published generation — a
    // cache that failed to invalidate on swap would pin an old one.
    s.write_all(&keep_alive_get("/top?k=6")).unwrap();
    let (_, _, body) = read_response(&mut s);
    seen.push(parse_json(&body).get("generation").unwrap().as_u64().unwrap());
    assert!(seen.windows(2).all(|w| w[0] <= w[1]), "generation went backwards: {seen:?}");
    assert_eq!(*seen.last().unwrap(), shared.generation());
    assert!(shared.generation() > first_gen);
    drop(server);
    reindexer.shutdown();
}

#[test]
fn connection_close_anywhere_in_the_option_list_wins() {
    let (_shared, reindexer, server) = start(44);
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\nConnection: keep-alive, close\r\n\r\n")
        .unwrap();
    let (status, head, _) = read_response(&mut s);
    assert_eq!(status, 200);
    assert!(head.to_ascii_lowercase().contains("connection: close"), "{head:?}");
    // And the server actually closes: the next read is EOF.
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "bytes after a Connection: close response: {rest:?}");
    drop(server);
    reindexer.shutdown();
}

#[test]
fn idle_keep_alive_connections_are_evicted_silently() {
    let (_shared, reindexer, server) = start(45);
    let metrics = Arc::clone(server.metrics());
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(&keep_alive_get("/health")).unwrap();
    assert_eq!(read_response(&mut s).0, 200);
    assert_eq!(metrics.connections_active.load(SeqCst), 1);

    // Sit idle past the read timeout. Between requests there is no
    // request to time out, so the eviction is a silent close — EOF, not
    // a 408 (that status is reserved for a *started* request stalling).
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut rest = Vec::new();
    match s.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "idle eviction leaked bytes: {rest:?}"),
        Err(e) => panic!("expected silent EOF, got {e}"),
    }
    assert_eq!(metrics.connections_active.load(SeqCst), 0);

    // A request *started* and then stalled on a reused connection still
    // earns the 408, exactly like a fresh connection would.
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(&keep_alive_get("/health")).unwrap();
    assert_eq!(read_response(&mut s).0, 200);
    s.write_all(b"GET /top?k=").unwrap();
    let (status, _, _) = read_response(&mut s);
    assert_eq!(status, 408, "a stalled mid-request head on a reused connection");
    drop(server);
    reindexer.shutdown();
}

#[test]
fn idle_eviction_fires_near_the_deadline_not_a_tick_late() {
    let (_shared, reindexer, server) = start(47);
    let timeout = Duration::from_millis(300);
    let mut s = TcpStream::connect(server.addr()).unwrap();

    // Measure from before the request: the server's idle clock restarts
    // on the request's arrival, which is at or after this instant, so
    // EOF strictly before `t0 + timeout` would be a premature eviction.
    let t0 = Instant::now();
    s.write_all(&keep_alive_get("/health")).unwrap();
    assert_eq!(read_response(&mut s).0, 200);

    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut rest = Vec::new();
    s.read_to_end(&mut rest).expect("expected silent EOF");
    let elapsed = t0.elapsed();
    assert!(rest.is_empty(), "idle eviction leaked bytes: {rest:?}");
    assert!(elapsed >= timeout, "evicted {elapsed:?} in, before the {timeout:?} idle deadline");
    // The wait timeout is deadline-driven, so the eviction lands close
    // to the deadline — the slack here covers request latency and CI
    // scheduling noise, not an eviction cadence.
    assert!(
        elapsed <= timeout + Duration::from_millis(150),
        "eviction landed {:?} past the {timeout:?} deadline",
        elapsed - timeout
    );
    drop(server);
    reindexer.shutdown();
}

#[test]
fn plain_requests_still_close_and_pipelined_leftovers_are_discarded() {
    let (_shared, reindexer, server) = start(46);
    // No Connection header: HTTP semantics here are opt-in keep-alive
    // (read-to-EOF clients predate the event loop), so the server must
    // answer the first request, close, and *not* answer the second.
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let mut batch = Vec::new();
    batch.extend_from_slice(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
    batch.extend_from_slice(b"GET /top?k=3 HTTP/1.1\r\nHost: t\r\n\r\n");
    // The second request may race the close and die as an RST; the
    // response to the first must arrive either way.
    let _ = s.write_all(&batch);
    let (status, head, _) = read_response(&mut s);
    assert_eq!(status, 200);
    assert!(head.to_ascii_lowercase().contains("connection: close"), "{head:?}");
    let mut rest = Vec::new();
    match s.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "server answered past Connection: close: {rest:?}"),
        // An RST after the full first response is a legal outcome of
        // closing with unread pipelined bytes in the receive buffer.
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted),
            "unexpected error after close: {e}"
        ),
    }
    drop(server);
    reindexer.shutdown();
}
