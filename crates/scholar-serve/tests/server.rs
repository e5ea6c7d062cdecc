//! End-to-end tests against a live server on a real socket: routing,
//! defensive parsing over TCP, the no-torn-response guarantee while the
//! index is hot-swapped under load, a byte-script table pinning each
//! script's status and `Connection:` header, and the `503` shed. One
//! socket-free property rides along: the connection core's output does
//! not depend on how its input was split.

use scholar_corpus::generator::Preset;
use scholar_corpus::model::{Article, ArticleId, AuthorId, VenueId};
use scholar_serve::conn::{Conn, Ctx};
use scholar_serve::{serve, Metrics, Reindexer, ScoreIndex, ServeConfig, SharedIndex, TopQuery};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server(seed: u64) -> (Arc<SharedIndex>, Reindexer, scholar_serve::ServerHandle) {
    let corpus = Preset::Tiny.generate(seed);
    let (shared, reindexer) = Reindexer::start(qrank::QRankConfig::default(), corpus, |_| {});
    let metrics = Arc::new(Metrics::new());
    let config =
        ServeConfig { workers: 2, read_timeout: Duration::from_millis(300), ..Default::default() };
    let server = serve(Arc::clone(&shared), metrics, &config).expect("bind");
    (shared, reindexer, server)
}

/// One raw HTTP exchange: write `raw`, read to EOF, return the response.
///
/// Tolerates the server resetting the connection after responding to an
/// oversized request (unread bytes in its receive buffer turn the close
/// into an RST): whatever arrived before the reset is the response.
fn raw_roundtrip(addr: SocketAddr, raw: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    let _ = s.write_all(raw);
    String::from_utf8_lossy(&read_to_eof(&mut s)).into_owned()
}

fn read_to_eof(s: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(_) if !out.is_empty() => break,
            Err(e) => panic!("read failed before any response arrived: {e}"),
        }
    }
    out
}

fn get(addr: SocketAddr, target: &str) -> (u16, sjson::Value) {
    let raw = raw_roundtrip(addr, format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes());
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    (status, sjson::parse(body).unwrap_or_else(|e| panic!("bad JSON body {body:?}: {e:?}")))
}

#[test]
fn endpoints_answer_over_real_sockets() {
    let (shared, reindexer, server) = start_server(31);
    let addr = server.addr();

    let (status, health) = get(addr, "/health");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("generation").unwrap().as_i64(), Some(1));

    let (status, top) = get(addr, "/top?k=5");
    assert_eq!(status, 200);
    let results = top.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 5);
    // The HTTP answer is exactly the index answer, rank for rank.
    let expect = shared.load().top(&TopQuery { k: 5, ..Default::default() });
    for (r, h) in results.iter().zip(&expect) {
        assert_eq!(r.get("id").unwrap().as_u64(), Some(h.id.0 as u64));
        assert_eq!(r.get("rank").unwrap().as_usize(), Some(h.rank));
    }

    // Filter by a real venue name (URL-encoded).
    let venue = shared.load().corpus().venues()[0].name.clone();
    let encoded: String = venue
        .bytes()
        .map(|b| if b == b' ' { "+".to_string() } else { (b as char).to_string() })
        .collect();
    let (status, filtered) = get(addr, &format!("/top?k=3&venue={encoded}"));
    assert_eq!(status, 200, "venue {venue:?}");
    for r in filtered.get("results").unwrap().as_array().unwrap() {
        assert_eq!(r.get("venue").unwrap().as_str(), Some(venue.as_str()));
    }

    let (status, detail) = get(addr, "/article/0");
    assert_eq!(status, 200);
    assert_eq!(detail.get("id").unwrap().as_i64(), Some(0));
    assert!(detail.get("percentile").unwrap().as_f64().unwrap() > 0.0);
    assert!(!detail.get("neighbors").unwrap().as_array().unwrap().is_empty());

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.get("requests").unwrap().as_i64().unwrap() >= 4);

    drop(server);
    reindexer.shutdown();
}

#[test]
fn malformed_requests_get_defensive_statuses_over_tcp() {
    let (_shared, reindexer, server) = start_server(32);
    let addr = server.addr();

    // 404 unknown route / unknown article, 400 bad id and bad query values.
    assert_eq!(get(addr, "/nope").0, 404);
    assert_eq!(get(addr, "/article/999999").0, 404);
    assert_eq!(get(addr, "/article/banana").0, 400);
    let (status, body) = get(addr, "/top?k=banana");
    assert_eq!(status, 400);
    assert!(body.get("message").unwrap().as_str().unwrap().contains("k=\"banana\""));
    assert_eq!(get(addr, "/top?k=999999999").0, 400); // over MAX_K
    assert_eq!(get(addr, "/top?year_min=MMXII").0, 400);
    assert_eq!(get(addr, "/top?venue=No+Such+Venue").0, 400);

    // Regression: an inverted year range used to panic in merge_years,
    // permanently killing a worker per request. It must be a 400, and
    // the server must keep answering on every worker afterwards.
    let (status, body) = get(addr, "/top?year_min=2010&year_max=2000");
    assert_eq!(status, 400);
    assert!(body.get("message").unwrap().as_str().unwrap().contains("inverted"));
    for _ in 0..4 {
        assert_eq!(get(addr, "/health").0, 200, "a worker died on the inverted-range request");
    }

    // 405 non-GET, 400 garbage request line.
    assert!(raw_roundtrip(addr, b"POST /top HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
    assert!(raw_roundtrip(addr, b"GARBAGE\r\n\r\n").starts_with("HTTP/1.1 400"));

    // 414 oversized request line.
    let long = format!("GET /top?pad={} HTTP/1.1\r\n\r\n", "x".repeat(8192));
    assert!(raw_roundtrip(addr, long.as_bytes()).starts_with("HTTP/1.1 414"));

    // 400 missing terminator: half a head then FIN.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /top HTTP/1.1\r\nHost: t\r\n").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out:?}");
    }

    // 408 slowloris: trickle bytes slower than the read timeout allows.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /top?k=").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap(); // server cuts us off
        assert!(out.starts_with("HTTP/1.1 408"), "{out:?}");
    }

    drop(server);
    reindexer.shutdown();
}

/// The `/metrics` accounting is exact, not approximate: under a
/// concurrent mix of 2xx and 4xx traffic, every request lands in exactly
/// one status class and exactly one histogram bucket, so the class
/// counters and the bucket counts both sum to the request counter.
#[test]
fn metrics_accounting_is_exact_under_concurrent_load() {
    let (_shared, reindexer, server) = start_server(34);
    let addr = server.addr();

    const CLIENTS: u64 = 4;
    const PER_CLIENT: u64 = 24;
    let threads: Vec<_> = (0..CLIENTS)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..PER_CLIENT {
                    match (t + i) % 4 {
                        0 => assert_eq!(get(addr, "/top?k=3").0, 200),
                        1 => assert_eq!(get(addr, "/nope").0, 404),
                        2 => assert_eq!(get(addr, "/top?k=banana").0, 400),
                        _ => assert_eq!(get(addr, "/health").0, 200),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client panicked");
    }

    let metrics = Arc::clone(server.metrics());
    drop(server); // graceful drain: every admitted request completes
    reindexer.shutdown();

    let requests = metrics.requests.load(SeqCst);
    let ok = metrics.ok.load(SeqCst);
    let client_errors = metrics.client_errors.load(SeqCst);
    let server_errors = metrics.server_errors.load(SeqCst);
    assert_eq!(requests, CLIENTS * PER_CLIENT);
    assert_eq!(ok + client_errors + server_errors, requests, "a request escaped classification");
    assert_eq!(ok, CLIENTS * PER_CLIENT / 2);
    assert_eq!(client_errors, CLIENTS * PER_CLIENT / 2);
    assert_eq!(server_errors, 0);
    assert_eq!(metrics.panics.load(SeqCst), 0);
    assert_eq!(metrics.in_flight.load(SeqCst), 0);

    // The histogram holds exactly one sample per request.
    let hist_sum: i64 = metrics
        .to_json()
        .get("latency")
        .and_then(|l| l.get("histogram"))
        .and_then(|h| h.as_array())
        .expect("histogram array")
        .iter()
        .map(|b| b.get("count").and_then(|c| c.as_i64()).unwrap())
        .sum();
    assert_eq!(hist_sum as u64, requests, "histogram mass diverged from the request counter");
}

/// Hammer the server from client threads while the reindexer publishes new
/// generations. Every response must be complete, well-formed JSON whose
/// rows are internally consistent with a single generation — no torn or
/// dropped responses.
#[test]
fn no_torn_responses_during_hot_swap() {
    let (shared, reindexer, server) = start_server(33);
    let addr = server.addr();
    let base_n = shared.load().num_articles();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut generations = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let (status, top) = get(addr, "/top?k=8");
                    assert_eq!(status, 200);
                    let gen = top.get("generation").unwrap().as_u64().unwrap();
                    let results = top.get("results").unwrap().as_array().unwrap();
                    assert_eq!(results.len(), 8, "torn result list");
                    // Ranks must be strictly increasing and scores
                    // non-increasing — a response mixing two indexes
                    // would violate one of these.
                    for w in results.windows(2) {
                        assert!(
                            w[0].get("rank").unwrap().as_u64() < w[1].get("rank").unwrap().as_u64()
                        );
                        assert!(
                            w[0].get("score").unwrap().as_f64()
                                >= w[1].get("score").unwrap().as_f64()
                        );
                    }
                    generations.push(gen);
                    served += 1;
                }
                // Generations are monotone: a client can never observe
                // the index going backwards.
                assert!(generations.windows(2).all(|w| w[0] <= w[1]));
                served
            })
        })
        .collect();

    // Publish several generations while the clients hammer away.
    for batch in 0..3 {
        reindexer
            .submit(vec![Article {
                id: ArticleId(0),
                title: format!("hot-{batch}"),
                year: 2012,
                venue: VenueId(0),
                authors: vec![AuthorId(0)],
                references: vec![ArticleId(batch as u32)],
                merit: None,
            }])
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while reindexer.batches_published() < batch + 1 {
            assert!(Instant::now() < deadline, "publish {batch} never landed");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert_eq!(shared.load().num_articles(), base_n + 3);

    // Let the clients observe the final generation, then stop them.
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let total: u64 = clients.into_iter().map(|c| c.join().expect("client panicked")).sum();
    assert!(total > 0, "clients never got a response");

    // Drift check: the published index must equal a fresh build from the
    // same corpus + scores, hit for hit.
    let published = shared.load();
    let fresh = ScoreIndex::build(
        Arc::new(published.corpus().as_ref().clone()),
        published.scores().to_vec(),
    );
    let q = TopQuery { k: published.num_articles(), ..Default::default() };
    assert_eq!(published.top(&q), fresh.top(&q), "published index drifted from fresh build");

    // Graceful shutdown drains: zero dropped requests end-to-end.
    let metrics = Arc::clone(server.metrics());
    drop(server);
    reindexer.shutdown();
    assert_eq!(metrics.in_flight.load(SeqCst), 0);
}

/// How a scripted connection ends once its bytes are written.
#[derive(Clone, Copy)]
enum End {
    /// Leave the socket open and read whatever the server sends.
    Wait,
    /// Half-close the sending side first.
    Fin,
}

/// Play one byte script on a fresh connection — `chunks` written with
/// a pause between them, so they arrive as separate reads — and return
/// the `(status, body)` of every response until EOF, plus every
/// `Connection:` header value seen.
fn play(addr: SocketAddr, chunks: &[Vec<u8>], end: End) -> (Vec<(u16, String)>, Vec<String>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    for (i, chunk) in chunks.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(Duration::from_millis(20));
        }
        // The server may answer an over-long head and close before the
        // last of it is written.
        let _ = s.write_all(chunk);
    }
    if let End::Fin = end {
        let _ = s.shutdown(Shutdown::Write);
    }
    let mut text = String::from_utf8(read_to_eof(&mut s)).expect("responses are UTF-8");
    let (mut responses, mut connection) = (Vec::new(), Vec::new());
    while !text.is_empty() {
        let (head, rest) = text.split_once("\r\n\r\n").expect("a whole response head");
        let header = |name: &str| {
            head.lines().find_map(|l| l.strip_prefix(name)).unwrap_or_else(|| panic!("{head:?}"))
        };
        let status: u16 = head.split_whitespace().nth(1).and_then(|t| t.parse().ok()).unwrap();
        let len: usize = header("Content-Length: ").parse().unwrap();
        connection.push(header("Connection: ").to_owned());
        assert!(rest.len() >= len, "torn body after {head:?}");
        sjson::parse(&rest[..len]).expect("every body is JSON");
        responses.push((status, rest[..len].to_owned()));
        text = rest[len..].to_owned();
    }
    (responses, connection)
}

/// Every byte script gets exactly the one response it is owed: its
/// status, and the `Connection:` header that says whether the server
/// keeps the connection — `keep-alive` only where the request asked for
/// it, `close` after every other answer and every error.
#[test]
fn every_byte_script_gets_its_status_and_connection_header() {
    let get = |target: &str| format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").into_bytes();
    // A complete head of exactly `total` bytes.
    let head_of = |total: usize| {
        let fixed = "GET /health HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
        format!("GET /health HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "p".repeat(total - fixed)).into_bytes()
    };
    // name, the pieces written, how the client ends, the one status and
    // `Connection:` header owed
    let script = |name, chunks: &[&[u8]], end, status: u16, connection| {
        (name, chunks.iter().map(|c| c.to_vec()).collect::<Vec<_>>(), end, status, connection)
    };
    let mut scripts = vec![
        script("well-formed", &[&get("/top?k=3")], End::Wait, 200, "close"),
        script(
            "keep-alive then FIN",
            &[b"GET /article/1 HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"],
            End::Fin,
            200,
            "keep-alive",
        ),
        // Neither request asks for keep-alive: the first closes, the
        // second is discarded.
        script(
            "two pipelined",
            &[&[get("/health"), get("/top?k=2")].concat()],
            End::Wait,
            200,
            "close",
        ),
        script(
            "split mid-header",
            &[b"GET /top?k=2&year_min=1990 HTTP/1.1\r\nHo", b"st: t\r\n\r\n"],
            End::Wait,
            200,
            "close",
        ),
        script("POST", &[b"POST /top HTTP/1.1\r\n\r\n"], End::Wait, 405, "close"),
        script(
            "4,097-byte line",
            &[format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(4097 - 15)).as_bytes()],
            End::Wait,
            414,
            "close",
        ),
        script("largest head", &[&head_of(16 * 1024)], End::Wait, 200, "close"),
        script("EOF mid-head", &[b"GET /top HTTP/1.1\r\nHost: t\r\n"], End::Fin, 400, "close"),
        script("connect-and-close", &[], End::Fin, 400, "close"),
        script("trickle past the timeout", &[b"GET /top?k="], End::Wait, 408, "close"),
    ];
    // Past MAX_HEAD by one byte, by a little, by a kilobyte: each is a
    // 400 whatever the read chunking.
    for total in [16_385, 17_000, 17_408] {
        scripts.push(script("over-long head", &[&head_of(total)], End::Wait, 400, "close"));
    }

    let (_shared, reindexer, server) = start_server(35);
    for (name, chunks, end, status, header) in &scripts {
        let (responses, connection) = play(server.addr(), chunks, *end);
        let statuses: Vec<u16> = responses.iter().map(|r| r.0).collect();
        assert_eq!(statuses, [*status], "{name}: {responses:?}");
        assert_eq!(connection, [*header], "{name}: wrong Connection header");
    }
    assert_eq!(server.metrics().connections_active.load(SeqCst), 0);
    drop(server);
    reindexer.shutdown();
}

/// "Degrades by shedding, never by wedging": with room for two held
/// connections, every surplus one gets one whole `503` and is counted,
/// and the server answers again once the held ones go away.
#[test]
fn surplus_connections_are_shed_with_a_whole_503() {
    let corpus = Arc::new(Preset::Tiny.generate(36));
    let scores = vec![1.0; corpus.num_articles()];
    let shared = Arc::new(SharedIndex::new(ScoreIndex::build(corpus, scores)));
    let metrics = Arc::new(Metrics::new());
    // One shard with room for two connections in its slab.
    let config = ServeConfig { workers: 1, max_conns: 2, ..Default::default() };
    let server = serve(shared, Arc::clone(&metrics), &config).expect("bind");
    let addr = server.addr();

    let first = TcpStream::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.connections_active.load(SeqCst) == 0 {
        assert!(Instant::now() < deadline, "first connection never reached the shard");
        std::thread::sleep(Duration::from_millis(1));
    }
    let second = TcpStream::connect(addr).expect("connect");

    const SURPLUS: u64 = 3;
    for _ in 0..SURPLUS {
        let (responses, connection) = play(addr, &[], End::Wait);
        assert_eq!(connection, ["close"]);
        let [(503, body)] = &responses[..] else { panic!("not one 503: {responses:?}") };
        let body = sjson::parse(body).unwrap();
        assert_eq!(body.get("status").unwrap().as_i64(), Some(503));
        assert!(body.get("message").unwrap().as_str().unwrap().contains("capacity"));
    }
    assert_eq!(metrics.shed.load(SeqCst), SURPLUS);
    // Sheds never reach the request path.
    assert_eq!(metrics.requests.load(SeqCst), 0);

    drop((first, second));
    let deadline = Instant::now() + Duration::from_secs(10);
    while get(addr, "/health").0 != 200 {
        assert!(Instant::now() < deadline, "still shedding after the held connections left");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(server);
    assert_eq!(metrics.connections_active.load(SeqCst), 0);
}

/// The core alone, no sockets: a stream of pipelined keep-alive requests
/// ending in a malformed one yields byte-identical output however the
/// stream is cut into arrivals.
#[test]
fn core_output_does_not_depend_on_how_input_is_split() {
    let corpus = Arc::new(Preset::Tiny.generate(37));
    let scores: Vec<f64> = (0..corpus.num_articles()).map(|i| 1.0 / (i + 1) as f64).collect();
    let shared = Arc::new(SharedIndex::new(ScoreIndex::build(corpus, scores)));
    let metrics = Arc::new(Metrics::new());
    let mut ctx = Ctx::new(shared, Arc::clone(&metrics), None);

    let mut stream = Vec::new();
    for target in ["/top?k=4", "/health", "/article/2", "/top?k=banana", "/nope", "/top?k=4"] {
        stream.extend_from_slice(
            format!("GET {target} HTTP/1.1\r\nConnection: keep-alive\r\n\r\n").as_bytes(),
        );
    }
    stream.extend_from_slice(b"POST /top HTTP/1.1\r\n\r\nGET /ignored HTTP/1.1\r\n\r\n");

    let mut feed = |cuts: &[usize]| {
        let mut conn = Conn::new(&ctx);
        let (mut wire, mut from) = (Vec::new(), 0);
        for &to in cuts.iter().chain([&stream.len()]) {
            conn.buf.extend_from_slice(&stream[from..to]);
            from = to;
            conn.on_bytes(&mut ctx);
            wire.extend_from_slice(conn.pending());
            conn.advance(conn.pending().len());
        }
        assert!(conn.finished(), "the malformed head must close the connection");
        wire
    };
    let whole = feed(&[]);
    assert_eq!(whole.windows(9).filter(|w| w == b"HTTP/1.1 ").count(), 7);
    assert!(whole.ends_with(b"\"message\":\"method POST not allowed (only GET)\"}"));

    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    for round in 0..64 {
        let mut cuts: Vec<usize> = (0..1 + round % 12)
            .map(|_| {
                // xorshift64: seeded, so a failing round replays.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % stream.len() as u64) as usize
            })
            .collect();
        cuts.sort_unstable();
        assert_eq!(feed(&cuts), whole, "round {round}: cuts {cuts:?} changed the output");
    }
    assert_eq!(metrics.requests.load(SeqCst), 65 * 7);
    assert_eq!(metrics.connections_active.load(SeqCst), 0);
}
