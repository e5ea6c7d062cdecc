//! The chaos suite: deterministic fault injection and model-based
//! checking for the serve/reindex pipeline.
//!
//! Compiled only with the `failpoints` feature — the default test build
//! carries none of this (and none of the failpoint overhead):
//!
//! ```text
//! cargo test -p scholar --features failpoints --test chaos
//! ```
//!
//! Three pillars, all driven through `scholar_testkit`:
//!
//! 1. **Failpoint schedules** — seeded fault mixes armed at the named
//!    sites inside scholar-serve, the corpus loaders, and the incremental
//!    ranker. Every schedule is a pure function of its seed.
//! 2. **Model-based checking** — the brute-force `ModelIndex` re-derives
//!    the query contract independently; the real `ScoreIndex` and the
//!    hot-swap layer must agree with it under adversarial queries and
//!    seeded publish interleavings.
//! 3. **Byte-level HTTP chaos** — split writes, truncations, disconnects,
//!    and garbage against a live server, with the server proven to still
//!    answer and `/metrics` accounting proven exact afterwards.
//!
//! Every failing case prints a `CHAOS-SEED <label> seed=<n>` line; re-run
//! exactly that case with `SCHOLAR_CHAOS_REPLAY=<label>:<n>`.

#![cfg(feature = "failpoints")]

use scholar::core::incremental::{grow_corpus, IncrementalRanker};
use scholar::corpus::model::{Article, ArticleId, AuthorId, VenueId};
use scholar::corpus::{Corpus, CorpusBuilder};
use scholar::serve::{
    read_rlog, serve, DurableOptions, Metrics, Recorder, Reindexer, ReqRecord, ScoreIndex,
    ServeConfig, SharedIndex, StateError, TopQuery,
};
use scholar::QRankConfig;
use scholar_testkit::chaos;
use scholar_testkit::fp::{self, Action, FaultMix, Scenario};
use scholar_testkit::model::{
    arb_query, assert_monotone_generations, ModelArticle, ModelIndex, ModelQuery,
};
use scholar_testkit::seeds::for_seeds;
use srand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------- helpers

/// Every site a scenario armed must actually have fired — an armed site
/// the server never evaluates would pass its battery vacuously.
fn assert_fired(sites: &[&str]) {
    for site in sites {
        assert!(fp::fired(site) > 0, "{site} was armed but never fired");
    }
}

/// A small random corpus plus a tie-heavy score vector: scores come from
/// a tiny palette so every query exercises the tie-breaking contract.
fn arb_indexed(rng: &mut SmallRng) -> (Arc<Corpus>, Vec<f64>) {
    let n = rng.gen_range(5usize..40);
    let nv = rng.gen_range(1u32..5);
    let na = rng.gen_range(1u32..6);
    let mut b = CorpusBuilder::new();
    for v in 0..nv {
        b.venue(&format!("V{v}"));
    }
    for a in 0..na {
        b.author(&format!("A{a}"));
    }
    for i in 0..n {
        let year = rng.gen_range(1990i32..2015);
        let venue = VenueId(rng.gen_range(0u32..nv));
        let mut authors: Vec<AuthorId> =
            (0..rng.gen_range(0usize..3)).map(|_| AuthorId(rng.gen_range(0u32..na))).collect();
        authors.sort();
        authors.dedup();
        let refs: Vec<ArticleId> = (0..rng.gen_range(0usize..4))
            .map(|_| rng.gen_range(0usize..n))
            .filter(|&r| r != i)
            .map(|r| ArticleId(r as u32))
            .collect();
        b.add_article(&format!("c{i}"), year, venue, authors, refs, None);
    }
    let corpus = Arc::new(b.finish().expect("arbitrary corpus must build"));
    let palette = [0.0, 0.1, 0.1 + f64::EPSILON, 0.25, 0.5];
    let scores = (0..n).map(|_| palette[rng.gen_range(0usize..palette.len())]).collect();
    (corpus, scores)
}

/// The same `(corpus, scores)` pair in the model's plain-typed terms.
fn model_rows(corpus: &Corpus, scores: &[f64]) -> Vec<ModelArticle> {
    corpus
        .articles()
        .iter()
        .map(|a| ModelArticle {
            id: a.id.0,
            year: a.year,
            venue: a.venue.0,
            authors: a.authors.iter().map(|u| u.0).collect(),
            score: scores[a.id.index()],
        })
        .collect()
}

fn to_top_query(q: &ModelQuery) -> TopQuery {
    TopQuery {
        k: q.k,
        venue: q.venue,
        author: q.author,
        year_min: q.year_min,
        year_max: q.year_max,
    }
}

fn batch_article(i: usize, refs: Vec<ArticleId>) -> Article {
    Article {
        id: ArticleId(0),
        title: format!("chaos-batch-{i}"),
        year: 2012,
        venue: VenueId(0),
        authors: vec![AuthorId(0)],
        references: refs,
        merit: None,
    }
}

/// A tiny fixed corpus for the reindexer scenarios (cheap to re-rank).
fn small_corpus(seed: u64) -> Corpus {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0de);
    let mut b = CorpusBuilder::new();
    b.venue("V0");
    b.author("A0");
    for i in 0..25usize {
        let refs: Vec<ArticleId> = (0..rng.gen_range(0usize..3))
            .map(|_| rng.gen_range(0usize..25))
            .filter(|&r| r < i)
            .map(|r| ArticleId(r as u32))
            .collect();
        b.add_article(
            &format!("s{i}"),
            1990 + (i as i32 % 20),
            VenueId(0),
            vec![AuthorId(0)],
            refs,
            None,
        );
    }
    b.finish().unwrap()
}

// ---------------------------------------------- pillar 2: model checking

#[test]
fn score_index_agrees_with_model_under_adversarial_queries() {
    let _s = Scenario::begin();
    for_seeds("model.query", 64, |_seed, rng| {
        let (corpus, scores) = arb_indexed(rng);
        let n = corpus.num_articles();
        let nv = corpus.num_venues() as u32;
        let na = corpus.num_authors() as u32;
        let years = corpus.year_range().unwrap();
        let index = ScoreIndex::build(Arc::clone(&corpus), scores.clone());
        let model = ModelIndex::new(model_rows(&corpus, &scores));
        for _ in 0..30 {
            let mq = arb_query(rng, n, nv, na, years);
            let got = index.top(&to_top_query(&mq));
            let want = model.top(&mq);
            assert_eq!(got.len(), want.len(), "hit count diverged for {mq:?}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.rank, g.id.0), (w.rank, w.id), "hit diverged for {mq:?}");
                assert_eq!(g.score.to_bits(), w.score.to_bits(), "score diverged for {mq:?}");
            }
            ModelIndex::assert_well_ordered(&want);
        }
        // `detail` agrees too, including out-of-range ids.
        for _ in 0..8 {
            let id = rng.gen_range(0u32..n as u32 + 3);
            let want = rng.gen_range(0usize..4);
            match (index.detail(ArticleId(id), want), model.detail(id, want)) {
                (None, None) => {}
                (Some(d), Some((rank, pct, neighbors))) => {
                    assert_eq!(d.rank, rank, "rank diverged for article {id}");
                    assert!((d.percentile - pct).abs() < 1e-15);
                    assert_eq!(d.neighbors.len(), neighbors.len());
                    for (g, w) in d.neighbors.iter().zip(&neighbors) {
                        assert_eq!((g.rank, g.id.0), (w.rank, w.id));
                    }
                }
                (got, want) => {
                    panic!("detail presence diverged for article {id}: {got:?} vs {want:?}")
                }
            }
        }
    });
}

#[test]
fn chaos_cases_replay_byte_identically() {
    // The reproduction story end to end: the same seed must produce the
    // same corpus, the same queries, and bit-for-bit the same answers.
    let _s = Scenario::begin();
    let run = |seed: u64| -> Vec<(usize, u32, u64)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (corpus, scores) = arb_indexed(&mut rng);
        let index = ScoreIndex::build(Arc::clone(&corpus), scores);
        let years = corpus.year_range().unwrap();
        let mut out = Vec::new();
        for _ in 0..20 {
            let mq = arb_query(
                &mut rng,
                corpus.num_articles(),
                corpus.num_venues() as u32,
                corpus.num_authors() as u32,
                years,
            );
            for h in index.top(&to_top_query(&mq)) {
                out.push((h.rank, h.id.0, h.score.to_bits()));
            }
        }
        out
    };
    for seed in [0u64, 17, 0x5eed] {
        assert_eq!(run(seed), run(seed), "seed {seed} did not replay identically");
    }
}

#[test]
fn swap_layer_agrees_with_model_under_seeded_interleavings() {
    let _s = Scenario::begin();
    for_seeds("swap.race", 32, |seed, rng| {
        let (corpus, scores) = arb_indexed(rng);
        let shared =
            Arc::new(SharedIndex::new(ScoreIndex::build(Arc::clone(&corpus), scores.clone())));
        // Stretch the publish critical section so racing publishers pile
        // up on the write lock in seed-dependent orders.
        fp::seeded("swap.publish", seed, FaultMix::delays(0.7, 4));

        const PUBLISHERS: usize = 3;
        const PER_PUBLISHER: u64 = 3;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let stop = Arc::clone(&stop);
                let model = ModelIndex::new(model_rows(&corpus, &scores));
                std::thread::spawn(move || {
                    let mut observed = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        // The counter a reader sees before loading can
                        // never run ahead of what it then loads.
                        let before = shared.generation();
                        let snap = shared.load();
                        assert!(
                            snap.generation() >= before,
                            "generation counter ({before}) ran ahead of the loadable \
                             index ({})",
                            snap.generation()
                        );
                        observed.push(snap.generation());
                        // Every snapshot answers queries like a fresh
                        // model of itself: no torn index is ever visible.
                        let hits = snap.top(&TopQuery { k: 5, ..Default::default() });
                        let want = model.top(&ModelQuery { k: 5, ..Default::default() });
                        assert_eq!(hits.len(), want.len());
                        for (g, w) in hits.iter().zip(&want) {
                            assert_eq!((g.rank, g.id.0), (w.rank, w.id));
                        }
                    }
                    observed
                })
            })
            .collect();

        let publishers: Vec<_> = (0..PUBLISHERS)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let corpus = Arc::clone(&corpus);
                let scores = scores.clone();
                std::thread::spawn(move || {
                    for _ in 0..PER_PUBLISHER {
                        shared.publish(ScoreIndex::build(Arc::clone(&corpus), scores.clone()));
                    }
                })
            })
            .collect();
        for p in publishers {
            p.join().expect("publisher panicked");
        }
        stop.store(true, Ordering::SeqCst);
        for r in readers {
            let observed = r.join().expect("reader panicked");
            assert_monotone_generations(&observed);
        }
        // Exactly one generation per publish, in a contiguous sequence.
        assert_eq!(shared.generation(), 1 + PUBLISHERS as u64 * PER_PUBLISHER);
        assert_eq!(shared.load().generation(), shared.generation());
        fp::clear("swap.publish");
    });
}

// ------------------------------------------------ pillar 3: HTTP chaos

#[test]
fn byte_chaos_keeps_the_server_live_and_metrics_exact() {
    let _s = Scenario::begin();
    let mut setup = SmallRng::seed_from_u64(0xbeef);
    let (corpus, scores) = arb_indexed(&mut setup);
    let shared = Arc::new(SharedIndex::new(ScoreIndex::build(corpus, scores)));
    let metrics = Arc::new(Metrics::new());
    let config =
        ServeConfig { workers: 3, read_timeout: Duration::from_millis(300), ..Default::default() };
    let mut server = serve(shared, Arc::clone(&metrics), &config).expect("bind");
    let addr = server.addr();

    for_seeds("serve.chaos", 48, |seed, rng| {
        // Faults on every serve-side site the harness owns: dropped
        // accepts, slow shards, panicking handlers.
        fp::seeded("serve.accept", seed, FaultMix::errors(0.10));
        fp::seeded("serve.handle", seed ^ 1, FaultMix::delays(0.30, 3));
        fp::seeded("serve.respond", seed ^ 2, FaultMix::panics(0.20));
        for _ in 0..6 {
            let _ = chaos::strike(addr, rng);
        }
        // Well-formed requests while the handler still panics at random:
        // every one must come back whole, as 200 or as a recorded 500.
        fp::clear("serve.accept");
        for _ in 0..4 {
            let (status, body) = chaos::http_get(addr, "/top?k=5");
            assert!(
                status == 200 || status == 500,
                "well-formed request got unexpected status {status}: {body:?}"
            );
        }
        // With all faults off, the server must still answer.
        fp::clear("serve.handle");
        fp::clear("serve.respond");
        chaos::assert_server_live(addr, config.workers);
    });

    // Quiescent point: every connection above has completed. The
    // accounting must balance to the request — histogram mass equals the
    // request counter, and every request is classified exactly once.
    std::thread::sleep(Duration::from_millis(50));
    let (status, m) = chaos::http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let field = |name: &str| -> i64 {
        m.get(name).and_then(|v| v.as_i64()).unwrap_or_else(|| panic!("missing metric {name}"))
    };
    let requests = field("requests");
    // The /metrics request that produced this snapshot records itself
    // only after rendering, so the snapshot is self-consistent.
    assert!(requests > 0);
    assert_eq!(
        field("ok") + field("client_errors") + field("server_errors"),
        requests,
        "every request must be classified exactly once"
    );
    let hist: i64 = m
        .get("latency")
        .and_then(|l| l.get("histogram"))
        .and_then(|h| h.as_array())
        .expect("histogram array")
        .iter()
        .map(|b| b.get("count").and_then(|c| c.as_i64()).unwrap())
        .sum();
    assert_eq!(hist, requests, "histogram bucket counts must sum to the request counter");
    // Every injected respond-panic was converted into a recorded 500 by
    // the inner catch — none leaked to the outer per-connection catch, which
    // would count a panic without a response.
    assert_eq!(field("panics"), field("server_errors"), "panic path lost a 500");
    assert_eq!(metrics.in_flight.load(Ordering::SeqCst), 0);
    assert_fired(&["serve.accept", "serve.handle", "serve.respond"]);
    server.shutdown();
}

/// Torn socket I/O in the event loop's read/write paths: an injected read
/// or write error must kill exactly that connection — the client sees a
/// short or absent response, never a corrupt one — and the server must
/// keep serving with exact accounting afterwards.
#[test]
fn torn_socket_io_closes_the_connection_not_the_server() {
    let _s = Scenario::begin();
    let mut setup = SmallRng::seed_from_u64(0x10f4);
    let (corpus, scores) = arb_indexed(&mut setup);
    let shared = Arc::new(SharedIndex::new(ScoreIndex::build(corpus, scores)));
    let metrics = Arc::new(Metrics::new());
    let config =
        ServeConfig { workers: 2, read_timeout: Duration::from_millis(300), ..Default::default() };
    let mut server = serve(shared, Arc::clone(&metrics), &config).expect("bind");
    let addr = server.addr();

    for_seeds("serve.io", 16, |seed, rng| {
        fp::seeded("serve.io.read", seed, FaultMix::errors(0.3));
        fp::seeded("serve.io.write", seed ^ 3, FaultMix::errors(0.3));
        for _ in 0..6 {
            use std::io::{Read, Write};
            let mut s = std::net::TcpStream::connect(addr).expect("connect");
            let _ = s.write_all(b"GET /top?k=4 HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut out = Vec::new();
            let _ = s.read_to_end(&mut out); // EOF or RST are both fine
            if !out.is_empty() {
                // Whatever does arrive is a prefix of a real response.
                assert!(
                    out.starts_with(b"HTTP/1.1 "),
                    "torn I/O corrupted the stream: {:?}",
                    String::from_utf8_lossy(&out)
                );
            }
        }
        fp::clear("serve.io.read");
        fp::clear("serve.io.write");
        chaos::assert_server_live(addr, config.workers);
        let _ = rng; // schedules are driven purely by the seeded sites
    });
    assert_fired(&["serve.io.read", "serve.io.write"]);

    // Quiescent invariants survive connection-level carnage: every
    // *recorded* request classified exactly once, nothing in flight, no
    // leaked connection slots.
    std::thread::sleep(Duration::from_millis(50));
    let requests = metrics.requests.load(Ordering::SeqCst);
    let classified = metrics.ok.load(Ordering::SeqCst)
        + metrics.client_errors.load(Ordering::SeqCst)
        + metrics.server_errors.load(Ordering::SeqCst);
    assert_eq!(classified, requests);
    assert_eq!(metrics.in_flight.load(Ordering::SeqCst), 0);
    assert_eq!(metrics.connections_active.load(Ordering::SeqCst), 0);
    server.shutdown();
}

// -------------------------------------------- pillar 1: fault schedules

#[test]
fn loader_fault_schedules_fail_clean_or_load_whole() {
    let _s = Scenario::begin();
    // Baseline: a valid jsonl dump the loader reads happily when no
    // fault fires.
    let mut setup = SmallRng::seed_from_u64(0xfeed);
    let (corpus, _) = arb_indexed(&mut setup);
    let mut jsonl = Vec::new();
    scholar::corpus::loader::jsonl::write_jsonl(&corpus, &mut jsonl).unwrap();
    let opts = scholar::corpus::loader::LoadOptions::default();
    let n = corpus.num_articles();
    let cites = corpus.num_citations();

    let outcomes = std::sync::Mutex::new((0u32, 0u32, 0u32)); // ok, io, parse
    for_seeds("corpus.faults", 48, |seed, rng| {
        let p_io = rng.gen_range(0.0f64..0.02);
        let p_parse = rng.gen_range(0.0f64..0.02);
        fp::seeded("corpus.jsonl.io", seed, FaultMix::errors(p_io));
        fp::seeded("corpus.jsonl.parse", seed ^ 7, FaultMix::errors(p_parse));
        for _ in 0..6 {
            match scholar::corpus::loader::jsonl::read_jsonl(&jsonl[..], &opts) {
                // All-or-nothing: a load that survives the schedule must
                // be the *whole* corpus, never a silent prefix.
                Ok(c) => {
                    assert_eq!(c.num_articles(), n, "partial corpus leaked through");
                    assert_eq!(c.num_citations(), cites);
                    outcomes.lock().unwrap().0 += 1;
                }
                Err(scholar::corpus::CorpusError::Io(e)) => {
                    assert!(e.to_string().contains("corpus.jsonl.io"));
                    outcomes.lock().unwrap().1 += 1;
                }
                Err(scholar::corpus::CorpusError::Parse { line, message }) => {
                    assert!(message.contains("corpus.jsonl.parse"), "unexpected parse: {message}");
                    assert!(line >= 1 && line <= n, "injected parse fault lost its line number");
                    outcomes.lock().unwrap().2 += 1;
                }
                Err(other) => panic!("unexpected error shape: {other}"),
            }
        }
        fp::clear("corpus.jsonl.io");
        fp::clear("corpus.jsonl.parse");
    });
    let (ok, io, parse) = *outcomes.lock().unwrap();
    assert!(ok > 0, "no schedule let a load through");
    assert!(io > 0, "no schedule exercised the I/O fault");
    assert!(parse > 0, "no schedule exercised the parse fault");
}

#[test]
fn aan_and_mag_fault_sites_surface_as_parse_errors() {
    let _s = Scenario::begin();
    let opts = scholar::corpus::loader::LoadOptions::default();
    fp::set("corpus.aan.parse", Action::Trigger);
    let err = scholar::corpus::loader::aan::read_aan(
        "id\tA paper\t2001\n".as_bytes(),
        "".as_bytes(),
        &opts,
    )
    .unwrap_err();
    assert!(err.to_string().contains("corpus.aan.parse"), "{err}");
    fp::clear("corpus.aan.parse");

    fp::set("corpus.mag.parse", Action::Trigger);
    let err = scholar::corpus::loader::mag::read_mag(
        "1\t2001\tV\tT\n".as_bytes(),
        "".as_bytes(),
        "".as_bytes(),
        &opts,
    )
    .unwrap_err();
    assert!(err.to_string().contains("corpus.mag.parse"), "{err}");
}

// --------------------------------------- PR 3 regression scenarios

#[test]
fn regression_inverted_year_range_is_rejected_not_fatal() {
    // The remotely-triggerable merge_years panic from PR 3: the server
    // must answer 400 and keep every shard.
    let _s = Scenario::begin();
    let mut setup = SmallRng::seed_from_u64(0x1237);
    let (corpus, scores) = arb_indexed(&mut setup);
    let shared = Arc::new(SharedIndex::new(ScoreIndex::build(corpus, scores)));
    let config = ServeConfig { workers: 2, ..Default::default() };
    let mut server = serve(shared, Arc::new(Metrics::new()), &config).expect("bind");
    let (status, body) = chaos::http_get(server.addr(), "/top?year_min=2010&year_max=1990");
    assert_eq!(status, 400);
    assert!(body.get("message").unwrap().as_str().unwrap().contains("inverted"));
    chaos::assert_server_live(server.addr(), config.workers);
    server.shutdown();
}

#[test]
fn regression_panic_storm_does_not_kill_a_shard() {
    // PR 3's worker-drain review finding, now driven through the failpoint
    // registry instead of a hand-rolled poisoned index: a burst of
    // handler panics must not kill a single shard, and each panic must
    // surface as a counted 500.
    let _s = Scenario::begin();
    let mut setup = SmallRng::seed_from_u64(0x900d);
    let (corpus, scores) = arb_indexed(&mut setup);
    let shared = Arc::new(SharedIndex::new(ScoreIndex::build(corpus, scores)));
    let metrics = Arc::new(Metrics::new());
    let config = ServeConfig { workers: 2, ..Default::default() };
    let mut server = serve(shared, Arc::clone(&metrics), &config).expect("bind");
    let addr = server.addr();

    for_seeds("serve.drain", 8, |seed, rng| {
        let storm = rng.gen_range(1usize..5);
        let before = metrics.panics.load(Ordering::SeqCst);
        fp::script("serve.respond", vec![Action::Panic; storm]);
        for i in 0..storm {
            let (status, body) = chaos::http_get(addr, "/top?k=3");
            assert_eq!(status, 500, "storm request {i} (seed {seed}) was not a clean 500");
            assert!(body.get("message").is_some());
        }
        fp::clear("serve.respond");
        chaos::assert_server_live(addr, config.workers);
        assert_eq!(
            metrics.panics.load(Ordering::SeqCst),
            before + storm as u64,
            "every injected panic must be counted"
        );
    });
    assert_eq!(
        metrics.server_errors.load(Ordering::SeqCst),
        metrics.panics.load(Ordering::SeqCst),
        "every caught panic must have produced a recorded 500"
    );
    assert_fired(&["serve.respond"]);
    server.shutdown();
}

/// A panic outside any one request — scripted at `serve.handle`, past
/// the core's per-request isolation — lands in the event loop's
/// last-resort guard. That connection is lost, but nothing else may be:
/// the open-connections gauge must come back to 0.
#[test]
fn regression_driver_level_panic_releases_the_connection_gauge() {
    use std::io::{Read, Write};
    let _s = Scenario::begin();
    let mut setup = SmallRng::seed_from_u64(0x6a06);
    let (corpus, scores) = arb_indexed(&mut setup);
    let shared = Arc::new(SharedIndex::new(ScoreIndex::build(corpus, scores)));
    let metrics = Arc::new(Metrics::new());
    let config = ServeConfig { workers: 2, ..Default::default() };
    let mut server = serve(shared, Arc::clone(&metrics), &config).expect("bind");
    let addr = server.addr();

    fp::script("serve.handle", vec![Action::Panic]);
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n").expect("write");
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out); // EOF or RST: the connection died
    assert!(out.is_empty(), "answered through a driver-level panic");
    assert_fired(&["serve.handle"]);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while metrics.panics.load(Ordering::SeqCst) == 0 {
        assert!(std::time::Instant::now() < deadline, "never counted the panic");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(metrics.connections_active.load(Ordering::SeqCst), 0, "leaked the connection");
    assert_eq!(metrics.in_flight.load(Ordering::SeqCst), 0);
    assert_eq!(metrics.requests.load(Ordering::SeqCst), 0);
    chaos::assert_server_live(addr, config.workers);
    server.shutdown();
}

#[test]
fn regression_mid_coalesce_shutdown_still_publishes() {
    // PR 3's finish-the-batch guarantee, made deterministic: a delay at
    // the coalesce site guarantees the Stop lands while a batch is in
    // hand, for every seed, instead of relying on thread timing.
    let _s = Scenario::begin();
    for_seeds("swap.stop", 16, |_seed, rng| {
        fp::set("reindex.coalesce", Action::DelayMs(rng.gen_range(5u64..40)));
        let corpus = small_corpus(rng.next_u64());
        let n0 = corpus.num_articles();
        let (shared, reindexer) = Reindexer::start(QRankConfig::default(), corpus, |_| {});
        let batches = rng.gen_range(1usize..3);
        for i in 0..batches {
            reindexer.submit(vec![batch_article(i, vec![ArticleId(i as u32)])]).unwrap();
        }
        let ranker = reindexer.shutdown();
        assert_eq!(
            ranker.corpus().num_articles(),
            n0 + batches,
            "an accepted batch was dropped on shutdown"
        );
        let idx = shared.load();
        assert_eq!(idx.num_articles(), n0 + batches);
        assert!(idx.generation() >= 2, "the batch in hand was never published");
        fp::clear("reindex.coalesce");
    });
}

#[test]
fn reindexer_death_leaves_the_published_index_serving() {
    // A fault inside the incremental solve kills the reindex thread, not
    // the serving path: queries keep answering from the last published
    // generation, and the failure surfaces on join, not silently.
    let _s = Scenario::begin();
    fp::script("incremental.extend", vec![Action::Panic]);
    let corpus = small_corpus(1);
    let n0 = corpus.num_articles();
    let (shared, reindexer) = Reindexer::start(QRankConfig::default(), corpus, |_| {});
    reindexer.submit(vec![batch_article(0, vec![ArticleId(0)])]).unwrap();

    // Wait for the injected death, bounded.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while fp::fired("incremental.extend") == 0 {
        assert!(std::time::Instant::now() < deadline, "extend site never hit");
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(20));
    // Readers still get the old generation, whole and consistent.
    let snap = shared.load();
    assert_eq!(snap.generation(), 1);
    assert_eq!(snap.num_articles(), n0);
    assert_eq!(snap.top(&TopQuery { k: 5, ..Default::default() }).len(), 5);
    // Submitting into the dead reindexer must NOT panic the caller (the
    // control plane): it reports the dead thread as a typed error.
    // Regression for the old `expect("reindexer thread is alive")`.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match reindexer.submit(vec![batch_article(1, vec![ArticleId(1)])]) {
            Err(scholar::serve::SubmitError::ThreadDead { journaled }) => {
                assert!(!journaled, "no state dir was configured");
                break;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
            // The channel closes when the unwinding thread drops the
            // receiver; a submit racing ahead of the unwind can still
            // win. Retry until the death is observable.
            Ok(()) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "submit never observed the dead reindexer"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    // The death is loud at shutdown, not swallowed.
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reindexer.shutdown()))
        .expect_err("a dead reindexer must fail the join");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or("");
    assert!(msg.contains("reindexer thread panicked"), "unexpected panic payload: {msg}");
}

#[test]
fn reindex_publish_delay_never_tears_a_reader() {
    // Delay between solve and publish (the widest reader-visible window):
    // readers must see only complete generations throughout.
    let _s = Scenario::begin();
    fp::set("reindex.publish", Action::DelayMs(15));
    let corpus = small_corpus(2);
    let n0 = corpus.num_articles();
    let (shared, reindexer) = Reindexer::start(QRankConfig::default(), corpus, |_| {});
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut observed = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let snap = shared.load();
                observed.push(snap.generation());
                // A snapshot's article count must match its generation:
                // gen 1 has the base corpus, anything later has grown.
                if snap.generation() == 1 {
                    assert_eq!(snap.num_articles(), n0);
                } else {
                    assert!(snap.num_articles() > n0);
                }
            }
            observed
        })
    };
    for i in 0..2 {
        reindexer.submit(vec![batch_article(i, vec![ArticleId(i as u32)])]).unwrap();
    }
    reindexer.shutdown();
    stop.store(true, Ordering::SeqCst);
    assert_monotone_generations(&reader.join().expect("reader panicked"));
    assert!(shared.load().num_articles() > n0);
}

#[test]
fn a_slow_retire_never_blocks_a_reader() {
    // The swap releases its write lock before the outgoing generation is
    // let go: a teardown stretched to 500 ms by `swap.retire` must leave
    // a concurrent `load` answering at once, with the new generation.
    let _s = Scenario::begin();
    fp::set("swap.retire", Action::DelayMs(500));
    let corpus = Arc::new(small_corpus(3));
    let scores = vec![1.0 / corpus.num_articles() as f64; corpus.num_articles()];
    let shared = Arc::new(SharedIndex::new(ScoreIndex::build(Arc::clone(&corpus), scores.clone())));
    let publisher = {
        let (shared, next) = (Arc::clone(&shared), ScoreIndex::build(corpus, scores));
        std::thread::spawn(move || {
            let started = std::time::Instant::now();
            shared.publish(next);
            started.elapsed()
        })
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while shared.generation() < 2 {
        assert!(std::time::Instant::now() < deadline, "the publish never stamped generation 2");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The publisher is now in (or at) the retire delay.
    let asked = std::time::Instant::now();
    let snap = shared.load();
    let waited = asked.elapsed();
    assert_eq!(snap.generation(), 2);
    assert!(waited < Duration::from_millis(100), "load waited {waited:?} on a retiring generation");
    let took = publisher.join().expect("publisher panicked");
    assert!(took >= Duration::from_millis(500), "the retire delay never ran ({took:?})");
    assert_fired(&["swap.retire"]);
}

// ------------------------------------- pillar 1b: colstore write chaos

/// A small fixed corpus for the colstore kill-during-write sweep (few
/// enough I/O steps that the sweep can cover every one of them,
/// including the per-file renames and the final meta commit).
fn colstore_corpus() -> Corpus {
    let mut b = CorpusBuilder::new();
    let v0 = b.venue("V0");
    let v1 = b.venue("V1");
    let u0 = b.author("U0");
    let u1 = b.author("U1");
    let a0 = b.add_article("a0", 1999, v0, vec![u0], vec![], None);
    let a1 = b.add_article("a1", 2004, v1, vec![u0, u1], vec![a0], None);
    b.add_article("a2", 2010, v0, vec![u1], vec![a0, a1], None);
    b.finish().expect("fixed corpus must build")
}

/// Kill a colstore build at *every* I/O step in turn (create, column
/// writes, seals, per-file renames, meta commit). The contract is
/// all-or-nothing: a killed write must never leave an openable store,
/// and a disarmed retry into the same directory must publish the full
/// store with the identical content-derived generation.
#[test]
fn colstore_kill_during_write_is_all_or_nothing() {
    let _s = Scenario::begin();
    let corpus = colstore_corpus();
    let base = std::env::temp_dir().join(format!("scholar-chaos-colstore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let clean = base.join("clean");
    let generation = corpus.write_colstore(&clean).expect("fault-free write");

    let mut steps = 0usize;
    loop {
        let dir = base.join(format!("kill-{steps}"));
        let mut script = vec![Action::Off; steps];
        script.push(Action::Trigger);
        fp::script("corpus.colstore.io", script);
        let res = corpus.write_colstore(&dir);
        fp::clear("corpus.colstore.io");
        match res {
            Err(e) => {
                assert!(e.to_string().contains("corpus.colstore.io"), "{e}");
                assert!(
                    scholar::corpus::colstore::ColStore::open(&dir).is_err(),
                    "write killed at I/O step {steps} left an openable store"
                );
                // Disarmed retry into the same directory heals fully.
                let regen = corpus.write_colstore(&dir).expect("disarmed retry");
                assert_eq!(regen, generation, "retry must stamp the identical generation");
                let store = scholar::corpus::colstore::ColStore::open(&dir).unwrap();
                store.verify().unwrap();
                assert_eq!(store.num_articles(), corpus.num_articles());
            }
            // The trigger landed past the last I/O step: the write ran
            // fault-free, so the sweep has covered every step. Done.
            Ok(regen) => {
                assert_eq!(regen, generation);
                break;
            }
        }
        steps += 1;
    }
    // 6 column creates + per-article writes + 7 fsyncs + 7 renames must
    // all have been individually killed; a tiny count means the sweep
    // silently stopped short of the publish phase.
    assert!(steps > 20, "sweep covered only {steps} I/O steps");
    std::fs::remove_dir_all(&base).unwrap();
}

// --------------------- pillar 1c: durable-state kill-and-recover chaos
//
// The crash-safety contract of DESIGN.md §2.11, swept at every injected
// I/O step of the snapshot and journal paths: a kill at any point must
// be all-or-nothing on disk, and a disarmed restart must serve exactly
// the batches `submit` acknowledged — bit for bit against the
// deterministic pipeline rebuild, never merely "close".

/// Fold `batches` through the pipeline the journal is a log of (cold
/// rank of the base, one extend per batch). A correct recovery serves
/// exactly these bit patterns.
fn oracle_scores(corpus: &Corpus, batches: &[Vec<Article>]) -> Vec<f64> {
    let mut ranker = IncrementalRanker::new(QRankConfig::default(), corpus.clone());
    for b in batches {
        let grown = grow_corpus(ranker.corpus(), b.clone());
        ranker.extend(grown);
    }
    ranker.result().article_scores.clone()
}

fn assert_serves_exactly(shared: &SharedIndex, want: &[f64]) {
    let snap = shared.load();
    assert_eq!(snap.num_articles(), want.len(), "recovered corpus has the wrong article count");
    for (i, w) in want.iter().enumerate() {
        assert_eq!(
            snap.scores()[i].to_bits(),
            w.to_bits(),
            "recovered score {i} diverged from the pipeline rebuild"
        );
    }
}

fn durable_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("scholar-chaos-durable-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn one_batch(i: usize) -> Vec<Article> {
    vec![batch_article(i, vec![ArticleId(i as u32)])]
}

fn await_published(reindexer: &Reindexer, n: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while reindexer.batches_published() < n {
        assert!(std::time::Instant::now() < deadline, "publish of batch {n} never landed");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A script that lets `steps` evaluations pass and kills the next one.
fn kill_at(steps: usize) -> Vec<Action> {
    let mut script = vec![Action::Off; steps];
    script.push(Action::Trigger);
    script
}

/// The entries of a directory, sorted.
fn listing(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// After any publish a state directory holds exactly `snapshot.snap`,
/// `wal.log` and one `corpus-<tag>/` store: whatever a kill left behind
/// is gone.
fn assert_one_store(dir: &std::path::Path, context: &str) {
    let names = listing(dir);
    let stores = names.iter().filter(|n| n.starts_with("corpus-")).count();
    assert!(
        stores == 1 && names.len() == 3 && names.contains(&"snapshot.snap".to_owned()),
        "{context}: state directory holds {names:?}"
    );
}

/// Copy a state directory, its store included.
fn copy_state(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_state(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), dst).unwrap();
        }
    }
}

/// Kill a cold durable start at every step of both artifacts in turn:
/// every `corpus.colstore.io` step of the store write, and every
/// `snapshot.io` step of the `snapshot.snap` publish after it. A killed
/// start must fail loudly, leaving neither a published snapshot nor tmp
/// debris, and a disarmed retry into the same directory must come up
/// serving the exact cold-rank scores, with the store a kill left
/// behind written over or removed.
#[test]
fn cold_start_kill_sweep_never_publishes_a_torn_snapshot() {
    let _s = Scenario::begin();
    let corpus = small_corpus(11);
    let want = oracle_scores(&corpus, &[]);
    let base = durable_dir("cold");
    // (site, floor on the steps its sweep must kill one by one)
    for (site, floor) in [("snapshot.io", 6), ("corpus.colstore.io", 300)] {
        let mut steps = 0usize;
        loop {
            let dir = base.join(format!("{site}-{steps}"));
            fp::script(site, kill_at(steps));
            let res = Reindexer::start_durable(
                QRankConfig::default(),
                corpus.clone(),
                DurableOptions::new(&dir),
                |_| {},
            );
            fp::clear(site);
            match res {
                Err(e) => {
                    assert!(e.to_string().contains(site), "{e}");
                    assert!(
                        !scholar::serve::snapshot::snapshot_path(&dir).exists(),
                        "kill at {site} step {steps} left a published snapshot"
                    );
                    assert!(
                        !dir.join("snapshot.snap.tmp").exists(),
                        "kill at {site} step {steps} leaked the tmp file"
                    );
                    let (shared, reindexer, report) = Reindexer::start_durable(
                        QRankConfig::default(),
                        corpus.clone(),
                        DurableOptions::new(&dir),
                        |_| {},
                    )
                    .expect("disarmed retry");
                    assert!(!report.restored_from_snapshot, "a killed start left restorable state");
                    assert_serves_exactly(&shared, &want);
                    reindexer.shutdown();
                    assert_one_store(&dir, &format!("retry after {site} step {steps}"));
                }
                // Trigger landed past the last I/O step: the start ran
                // fault-free, so every step has been individually killed.
                Ok((shared, reindexer, report)) => {
                    assert!(!report.restored_from_snapshot);
                    assert_serves_exactly(&shared, &want);
                    reindexer.shutdown();
                    assert_one_store(&dir, &format!("{site} sweep end"));
                    break;
                }
            }
            steps += 1;
        }
        assert!(steps >= floor, "{site} sweep covered only {steps} I/O steps");
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// Kill the journal at every `wal.append` I/O step across a run of
/// submits. A faulted submit must not acknowledge; every acknowledged
/// submit must survive restart — `replayed_batches` equals the acked
/// count exactly (no lost batch, no invented batch, no torn tail) and
/// the recovered scores match the pipeline rebuild of the acked batches.
#[test]
fn wal_append_kill_sweep_loses_no_acknowledged_batch() {
    let _s = Scenario::begin();
    let corpus = small_corpus(12);
    let all: Vec<Vec<Article>> = (0..4).map(one_batch).collect();
    let base = durable_dir("append");
    let mut steps = 0usize;
    let mut faulted_runs = 0usize;
    loop {
        let dir = base.join(format!("kill-{steps}"));
        let (_shared, reindexer, _report) = Reindexer::start_durable(
            QRankConfig::default(),
            corpus.clone(),
            DurableOptions::new(&dir),
            |_| {},
        )
        .expect("fault-free cold start");
        let mut script = vec![Action::Off; steps];
        script.push(Action::Trigger);
        fp::script("wal.append", script);
        let mut acked = Vec::new();
        let mut faulted = false;
        for (i, b) in all.iter().enumerate() {
            match reindexer.submit(b.clone()) {
                Ok(()) => acked.push(i),
                Err(scholar::serve::SubmitError::Journal(e)) => {
                    assert!(e.to_string().contains("wal.append"), "{e}");
                    faulted = true;
                }
                Err(other) => panic!("unexpected submit error: {other}"),
            }
        }
        fp::clear("wal.append");
        await_published(&reindexer, acked.len() as u64);
        reindexer.shutdown();

        let (shared, r2, report) = Reindexer::start_durable(
            QRankConfig::default(),
            corpus.clone(),
            DurableOptions::new(&dir),
            |_| {},
        )
        .expect("restart after journal faults");
        assert!(report.restored_from_snapshot);
        assert_eq!(
            report.replayed_batches,
            acked.len(),
            "journal lost or invented an acknowledged batch (kill at step {steps})"
        );
        assert!(!report.torn_tail, "failed-append rollback left a torn tail (step {steps})");
        let want: Vec<Vec<Article>> = acked.iter().map(|&i| all[i].clone()).collect();
        assert_serves_exactly(&shared, &oracle_scores(&corpus, &want));
        r2.shutdown();
        if !faulted {
            break;
        }
        faulted_runs += 1;
        steps += 1;
    }
    // 4 submits × 2 journal I/O steps each: every one individually killed.
    assert_eq!(faulted_runs, 8, "sweep coverage changed — update the floor");
    std::fs::remove_dir_all(&base).unwrap();
}

/// Kill a journal *rotation* at every `wal.append` step it takes (tmp
/// create, fsync, rename). A killed rotation must leave the old journal
/// — every record still replays — and no `wal.log.tmp`; the disarmed
/// retry drops exactly the records the snapshot covers.
#[test]
fn wal_rotate_kill_sweep_keeps_the_old_journal_and_no_tmp() {
    let _s = Scenario::begin();
    let dir = durable_dir("rotate");
    let mut journal = scholar::serve::Wal::create(&dir, 0).expect("create journal");
    for i in 0..3 {
        journal.append(&one_batch(i)).expect("append");
    }
    drop(journal);
    let seqs = |after: u64| -> Vec<u64> {
        let r = scholar::serve::wal::replay(&dir, after).expect("replay");
        assert!(!r.torn_tail);
        r.records.iter().map(|r| r.seq).collect()
    };
    let mut steps = 0usize;
    loop {
        let mut script = vec![Action::Off; steps];
        script.push(Action::Trigger);
        fp::script("wal.append", script);
        let res = scholar::serve::wal::rotate(&dir, 2);
        fp::clear("wal.append");
        match res {
            Err(e) => {
                assert!(e.to_string().contains("wal.append"), "{e}");
                assert_eq!(seqs(0), [1, 2, 3], "kill at step {steps} damaged the old journal");
                assert!(!dir.join("wal.log.tmp").exists(), "kill at step {steps} leaked the tmp");
            }
            Ok(_) => break,
        }
        steps += 1;
    }
    assert_eq!(steps, 3, "tmp create, fsync, rename");
    assert_eq!(seqs(0), [3], "rotation must keep only the uncovered suffix");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill a *restart* at every I/O step of every durable-state site — the
/// load, the journal replay, the re-snapshot's store write and its
/// `snapshot.snap` publish, and the journal rotation. A killed restart
/// must fail cleanly (never serve state of unknown provenance) and leave
/// on disk either the old state or the new one, never a third; a
/// disarmed retry must serve every journaled batch bit-identically, and
/// its publish must leave one store.
#[test]
fn restart_kill_sweep_fails_clean_and_recovers_disarmed() {
    let _s = Scenario::begin();
    let corpus = small_corpus(13);
    let all: Vec<Vec<Article>> = (0..3).map(one_batch).collect();
    let want = oracle_scores(&corpus, &all);
    let base = durable_dir("restart");
    let pristine = base.join("pristine");
    {
        let (_shared, reindexer, _report) = Reindexer::start_durable(
            QRankConfig::default(),
            corpus.clone(),
            DurableOptions::new(&pristine),
            |_| {},
        )
        .expect("seed run");
        for b in &all {
            reindexer.submit(b.clone()).expect("seed submit");
        }
        await_published(&reindexer, all.len() as u64);
        reindexer.shutdown();
    }
    // The two states a kill may leave: the pristine snapshot, and the one
    // a fault-free restart re-snapshots after its replay.
    let old = scholar::serve::load_snapshot(&pristine).expect("pristine state").generation;
    let new = {
        let dir = base.join("fault-free");
        copy_state(&pristine, &dir);
        let (_shared, r, report) = Reindexer::start_durable(
            QRankConfig::default(),
            corpus.clone(),
            DurableOptions::new(&dir),
            |_| {},
        )
        .expect("fault-free restart");
        r.shutdown();
        report.snapshot_generation
    };
    assert_ne!(old, new);

    let mut total_kills = 0usize;
    for site in ["snapshot.io", "corpus.colstore.io", "wal.replay", "wal.append"] {
        let mut steps = 0usize;
        loop {
            let dir = base.join(format!("{site}-{steps}"));
            copy_state(&pristine, &dir);
            fp::script(site, kill_at(steps));
            let res = Reindexer::start_durable(
                QRankConfig::default(),
                corpus.clone(),
                DurableOptions::new(&dir),
                |_| {},
            );
            fp::clear(site);
            match res {
                Err(e) => {
                    assert!(
                        e.to_string().contains(site),
                        "kill at {site} step {steps} surfaced the wrong error: {e}"
                    );
                    total_kills += 1;
                    let left = scholar::serve::load_snapshot(&dir)
                        .expect("a killed restart must leave a loadable state")
                        .generation;
                    assert!(
                        left == old || left == new,
                        "kill at {site} step {steps} left a third state {left:016x}"
                    );
                    // Whatever the kill interrupted (load, re-snapshot,
                    // journal rotation), the state on disk must still
                    // restore completely once the fault clears.
                    let (shared, r2, report) = Reindexer::start_durable(
                        QRankConfig::default(),
                        corpus.clone(),
                        DurableOptions::new(&dir),
                        |_| {},
                    )
                    .expect("disarmed retry");
                    assert!(report.restored_from_snapshot, "retry after {site} kill re-ranked");
                    assert_serves_exactly(&shared, &want);
                    r2.shutdown();
                    assert_one_store(&dir, &format!("retry after {site} step {steps}"));
                }
                Ok((shared, r2, report)) => {
                    assert!(report.restored_from_snapshot);
                    assert_eq!(report.replayed_batches, all.len());
                    assert_eq!(report.snapshot_generation, new);
                    assert!(!report.torn_tail);
                    assert_serves_exactly(&shared, &want);
                    r2.shutdown();
                    assert_one_store(&dir, &format!("{site} sweep end"));
                    break;
                }
            }
            steps += 1;
        }
    }
    assert!(total_kills >= 340, "sweep covered only {total_kills} restart I/O steps");
    std::fs::remove_dir_all(&base).unwrap();
}

/// A failing background snapshot must degrade restart *speed*, never
/// durability or serving, whichever artifact it dies in. Two schedules
/// per site (the store's `corpus.colstore.io`, `snapshot.snap`'s
/// `snapshot.io`): every snapshot attempt dies, and publishes keep
/// landing while a later restart replays every journaled batch; then the
/// first snapshot-on-publish is killed at each step in turn, which must
/// leave the old state or the new one on disk, never a third, and the
/// next publish must leave one store.
#[test]
fn snapshot_publish_failure_keeps_serving_and_durability() {
    let _s = Scenario::begin();
    let corpus = small_corpus(14);
    let all: Vec<Vec<Article>> = (0..2).map(one_batch).collect();
    let want = oracle_scores(&corpus, &all);
    let every_publish = |dir: &std::path::Path| {
        let mut opts = DurableOptions::new(dir);
        opts.snapshot_every = 1;
        opts
    };
    for site in ["snapshot.io", "corpus.colstore.io"] {
        let dir = durable_dir(&format!("degrade-{site}"));
        let (shared, reindexer, _report) = Reindexer::start_durable(
            QRankConfig::default(),
            corpus.clone(),
            every_publish(&dir),
            |_| {},
        )
        .expect("cold start");
        // Every snapshot-on-publish attempt from here on dies.
        fp::set(site, Action::Trigger);
        for b in &all {
            reindexer.submit(b.clone()).expect("submit must not depend on snapshots");
        }
        await_published(&reindexer, all.len() as u64);
        assert!(shared.load().generation() >= 2, "publishes stopped with the snapshot path down");
        // Keep the fault armed through shutdown: the final snapshot attempt
        // must fail too, so the restart below really exercises full replay.
        reindexer.shutdown();
        assert!(fp::fired(site) > 0, "no snapshot attempt ever ran");
        fp::clear(site);

        let (shared2, r2, report) = Reindexer::start_durable(
            QRankConfig::default(),
            corpus.clone(),
            DurableOptions::new(&dir),
            |_| {},
        )
        .expect("restart");
        assert!(report.restored_from_snapshot);
        assert_eq!(report.replayed_batches, all.len(), "a failed snapshot cost a journaled batch");
        assert_serves_exactly(&shared2, &want);
        r2.shutdown();
        assert_one_store(&dir, &format!("restart after failing {site}"));
        std::fs::remove_dir_all(&dir).unwrap();

        let mut steps = 0usize;
        loop {
            let dir = durable_dir(&format!("publish-{site}-{steps}"));
            let (_shared, reindexer, report) = Reindexer::start_durable(
                QRankConfig::default(),
                corpus.clone(),
                every_publish(&dir),
                |_| {},
            )
            .expect("cold start");
            let old = report.snapshot_generation;
            fp::script(site, kill_at(steps));
            reindexer.submit(all[0].clone()).expect("submit");
            await_published(&reindexer, 1);
            // Joining the reindex thread ends its snapshot attempt.
            reindexer.shutdown();
            fp::clear(site);
            let left = scholar::serve::load_snapshot(&dir)
                .expect("a killed publish must leave a loadable state");
            let killed = left.wal_seq == 0;
            if killed {
                assert_eq!(left.generation, old, "kill at {site} step {steps} left a third state");
            } else {
                assert_eq!(left.wal_seq, 1);
            }
            // Either way the next start serves exactly the journal, and
            // the next publish leaves one store.
            let (shared, r2, report) = Reindexer::start_durable(
                QRankConfig::default(),
                corpus.clone(),
                every_publish(&dir),
                |_| {},
            )
            .expect("restart");
            assert_eq!(report.replayed_batches, usize::from(killed));
            r2.submit(all[1].clone()).expect("submit");
            await_published(&r2, 1);
            assert_serves_exactly(&shared, &want);
            r2.shutdown();
            assert_one_store(&dir, &format!("publish after {site} step {steps}"));
            std::fs::remove_dir_all(&dir).unwrap();
            if !killed {
                break;
            }
            steps += 1;
        }
        let floor = if site == "snapshot.io" { 6 } else { 300 };
        assert!(steps >= floor, "{site} publish sweep covered only {steps} I/O steps");
    }
}

/// Rewriting a state at the sequence number its live snapshot already
/// covers (`scholar snapshot` over an existing state directory) must not
/// write over the live store: killed at every step of either artifact,
/// the rewrite leaves the old state loadable, and a disarmed retry
/// publishes the new one with one store left.
#[test]
fn a_rewrite_at_the_live_sequence_number_never_tears_the_live_store() {
    let _s = Scenario::begin();
    let ranked = |seed| {
        let ranker = IncrementalRanker::new(QRankConfig::default(), small_corpus(seed));
        (ranker.corpus().clone(), ranker.result().clone())
    };
    let ((old_corpus, old_result), (new_corpus, new_result)) = (ranked(15), ranked(16));
    let base = durable_dir("rewrite");
    for site in ["corpus.colstore.io", "snapshot.io"] {
        let mut steps = 0usize;
        loop {
            let dir = base.join(format!("{site}-{steps}"));
            let old = scholar::serve::write_snapshot(&dir, &old_corpus, &old_result, 0).unwrap();
            fp::script(site, kill_at(steps));
            let res = scholar::serve::write_snapshot(&dir, &new_corpus, &new_result, 0);
            fp::clear(site);
            let left = scholar::serve::load_snapshot(&dir).expect("a loadable state");
            match res {
                Err(e) => {
                    assert!(e.to_string().contains(site), "{e}");
                    assert_eq!(left.generation, old, "kill at {site} step {steps} tore the state");
                    assert!(left.corpus == old_corpus);
                    let new = scholar::serve::write_snapshot(&dir, &new_corpus, &new_result, 0)
                        .expect("disarmed retry");
                    assert_eq!(scholar::serve::load_snapshot(&dir).unwrap().generation, new);
                }
                Ok(new) => {
                    assert_eq!(left.generation, new);
                    assert!(left.corpus == new_corpus);
                    break;
                }
            }
            let stores = listing(&dir).iter().filter(|n| n.starts_with("corpus-")).count();
            assert_eq!(stores, 1, "retry after {site} step {steps}: {:?}", listing(&dir));
            steps += 1;
        }
        assert!(steps >= 6, "{site} sweep covered only {steps} I/O steps");
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// An unmappable column file must fail `ColStore::open` with a clean
/// `Corrupt` error (never a panic or a half-open store), and the same
/// directory must open fine once the fault clears.
#[test]
fn colstore_map_fault_fails_open_cleanly() {
    let _s = Scenario::begin();
    let corpus = colstore_corpus();
    let dir = std::env::temp_dir().join(format!("scholar-chaos-map-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    corpus.write_colstore(&dir).expect("fault-free write");

    fp::set("corpus.colstore.map", Action::Trigger);
    let err = match scholar::corpus::colstore::ColStore::open(&dir) {
        Ok(_) => panic!("open must fail while the map fault is armed"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("injected map failure"), "{err}");
    fp::clear("corpus.colstore.map");

    let store = scholar::corpus::colstore::ColStore::open(&dir).expect("fault cleared");
    store.verify().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------------------------------ pillar 1b: record chaos

fn chaos_record(seq: u64) -> ReqRecord {
    ReqRecord {
        conn: 1,
        seq,
        generation: 1,
        status: 200,
        latency_us: 100 + seq,
        target: format!("/top?k={}", 1 + seq),
    }
}

/// `replay.record.io` kill sweep: the RLOGv1 flush dies at each of its
/// I/O steps (tmp create, write+fsync, rename) in turn. The published
/// file is all-or-nothing — it keeps decoding as the *previous* complete
/// log — the recorder degrades itself loudly, and the live serving path
/// neither blocks nor loses a single request.
#[test]
fn record_flush_kill_sweep_degrades_recording_never_serving() {
    let _s = Scenario::begin();
    let path = std::env::temp_dir().join(format!("scholar-chaos-rlog-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Publish one complete log fault-free; every faulty re-flush below
    // must leave exactly this on disk.
    let first = Recorder::new(&path, 1, 64);
    assert!(first.record(chaos_record(0)));
    first.flush().expect("fault-free flush");
    let want = read_rlog(&path).expect("baseline log").records;
    assert_eq!(want.len(), 1);

    for step in 0..3usize {
        let r = Recorder::new(&path, 1, 64);
        for seq in 0..4 {
            assert!(r.record(chaos_record(seq)));
        }
        let mut script = vec![Action::Off; step];
        script.push(Action::Trigger);
        fp::script("replay.record.io", script);
        let err = r.flush().expect_err("armed flush must fail");
        assert!(matches!(err, StateError::Io(_)), "step {step}: {err}");
        assert!(r.degraded(), "step {step}: failed flush must degrade the recorder");
        // Degraded recording is a cheap no-op, not an error storm.
        assert!(!r.record(chaos_record(99)), "degraded recorder must stop sampling");
        fp::clear("replay.record.io");
        let log = read_rlog(&path).expect("step {step}: the published log must survive");
        assert!(!log.torn_tail, "step {step}: tmp-then-rename published a tear");
        assert_eq!(log.records, want, "step {step}: a dead flush mutated the published log");
        // `path` has no extension, so this is exactly `<path>.tmp`.
        assert!(!path.with_extension("tmp").exists(), "step {step}: a dead flush leaked its tmp");
    }

    // Live path: a server whose recorder's disk is dead keeps serving.
    let corpus = Arc::new(small_corpus(55));
    let scores = IncrementalRanker::new(QRankConfig::default(), corpus.as_ref().clone())
        .result()
        .article_scores
        .clone();
    let recorder = Arc::new(Recorder::new(&path, 1, 64));
    let shared = Arc::new(SharedIndex::new(ScoreIndex::build(Arc::clone(&corpus), scores)));
    let metrics = Arc::new(Metrics::new());
    let config =
        ServeConfig { workers: 2, recorder: Some(Arc::clone(&recorder)), ..Default::default() };
    let mut server = serve(Arc::clone(&shared), Arc::clone(&metrics), &config).expect("bind");
    let addr = server.addr();

    for _ in 0..6 {
        let (status, _) = chaos::http_get(addr, "/top?k=5");
        assert_eq!(status, 200);
    }
    fp::set("replay.record.io", Action::Trigger);
    recorder.flush().expect_err("armed flush must fail");
    assert!(recorder.degraded());
    fp::clear("replay.record.io");
    // Recording is down; serving must not notice.
    for _ in 0..6 {
        let (status, _) = chaos::http_get(addr, "/top?k=5");
        assert_eq!(status, 200, "a degraded recorder leaked into the live path");
    }
    chaos::assert_server_live(addr, config.workers);
    let (status, m) = chaos::http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let field = |name: &str| m.get(name).and_then(|v| v.as_i64()).unwrap();
    assert_eq!(
        field("ok") + field("client_errors") + field("server_errors"),
        field("requests"),
        "request accounting drifted while recording was degraded"
    );
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
