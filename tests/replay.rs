//! Workload record/replay and shadow-gated promotion (DESIGN.md §2.12).
//!
//! Three contracts, stacked:
//!
//! 1. **RLOGv1 round-trip** — a recorded request log encodes and
//!    decodes byte-identically; any truncation decodes to a clean
//!    prefix; bit rot inside a complete file is a typed error, never a
//!    panic. Same discipline as SNAPv1/WALv1.
//! 2. **Deterministic replay** — a recorded log re-issued against a
//!    fresh server produces byte-identical responses, proven by
//!    per-endpoint digests that are a pure function of (log, server
//!    state): identical across replay widths, kept-alive or
//!    close-per-request connections, and fresh server instances. The
//!    checked-in fixture under `tests/fixtures/` pins this across
//!    processes and machines (CI replays it against a freshly built
//!    release server).
//! 3. **Shadow-gated promotion** — a staged candidate index answers
//!    mirrored live traffic; a drifted candidate is rejected with the
//!    old generation still serving and a loud report, an equivalent one
//!    is promoted, and replaying the recorded mirror log offline
//!    reproduces the online drift numbers exactly, integer for integer.
//!
//! Recording in these tests drives one connection at a time: `store` is
//! deliberately `try_lock` (the live path never blocks on recording),
//! so concurrent traffic may *drop* samples by design. Serial traffic
//! makes `dropped == 0` a certainty instead of a race, which is what
//! lets the tests pin exact record counts.
//!
//! Regenerate the fixture (after an intentional response-shape change):
//! `SCHOLAR_REGEN_FIXTURES=1 cargo test -p scholar --test replay -- fixture`

use scholar::core::incremental::IncrementalRanker;
use scholar::corpus::{Corpus, CorpusGenerator, Preset};
use scholar::serve::record::{decode_rlog, encode_rlog};
use scholar::serve::shadow::{replay_mirror, Decision};
use scholar::serve::{
    read_rlog, serve, Metrics, Recorder, ReqRecord, ScoreIndex, ServeConfig, ServerHandle,
    ShadowReport, ShadowThresholds, SharedIndex, StateError, TopQuery,
};
use scholar::{GeneratorConfig, QRankConfig};
use scholar_loadgen::ReplayConfig;
use scholar_testkit::chaos;
use scholar_testkit::model::arb_query;
use scholar_testkit::seeds::for_seeds;
use srand::{rngs::SmallRng, Rng, SeedableRng};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ranked_scores(corpus: &Corpus) -> Vec<f64> {
    IncrementalRanker::new(QRankConfig::default(), corpus.clone()).result().article_scores.clone()
}

fn start_server(
    corpus: &Arc<Corpus>,
    scores: &[f64],
    recorder: Option<Arc<Recorder>>,
) -> (ServerHandle, Arc<SharedIndex>, Arc<Metrics>) {
    let shared = Arc::new(SharedIndex::new(ScoreIndex::build(Arc::clone(corpus), scores.to_vec())));
    let metrics = Arc::new(Metrics::new());
    let config = ServeConfig { workers: 2, recorder, ..Default::default() };
    let server = serve(Arc::clone(&shared), Arc::clone(&metrics), &config).expect("bind server");
    (server, shared, metrics)
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("scholar-replay-{}-{name}", std::process::id()))
}

// ------------------------------------------------ 1. RLOGv1 round-trip

/// Render an adversarial `/top` target from the model-query generator —
/// the same query shapes the serving layer is checked against.
fn top_target(rng: &mut SmallRng) -> String {
    let q = arb_query(rng, 40, 5, 6, (1990, 2012));
    let mut t = format!("/top?k={}", q.k);
    if let Some(v) = q.venue {
        t.push_str(&format!("&venue={v}"));
    }
    if let Some(a) = q.author {
        t.push_str(&format!("&author={a}"));
    }
    if let Some(y) = q.year_min {
        t.push_str(&format!("&year_min={y}"));
    }
    if let Some(y) = q.year_max {
        t.push_str(&format!("&year_max={y}"));
    }
    t
}

fn arb_record(rng: &mut SmallRng) -> ReqRecord {
    let target = match rng.gen_range(0u32..6) {
        0 | 1 => top_target(rng),
        2 => format!("/article/{}", rng.gen_range(0u32..50)),
        3 => "/metrics".to_string(),
        // Adversarial bytes: percent junk, non-ascii, and the RLOGv1
        // footer magic itself embedded in a target — a truncation
        // landing near it must still decode as a clean prefix or typed
        // corruption, never a false "complete" file and never a panic.
        4 => "/top?venue=%zz&☃=RLOGend\0".to_string(),
        _ => String::new(),
    };
    ReqRecord {
        conn: if rng.gen_range(0u32..8) == 0 { u64::MAX } else { rng.gen_range(0u64..100) },
        seq: rng.gen_range(0u64..1000),
        generation: if rng.gen_range(0u32..8) == 0 { u64::MAX } else { rng.gen_range(1u64..9) },
        status: rng.gen_range(0u32..1000) as u16,
        latency_us: if rng.gen_range(0u32..8) == 0 {
            u64::MAX
        } else {
            rng.gen_range(0u64..10_000)
        },
        target,
    }
}

#[test]
fn rlog_round_trips_byte_identically_and_truncates_cleanly() {
    for_seeds("rlog.prop", 24, |_seed, rng| {
        let n = rng.gen_range(1usize..16);
        let records: Vec<_> = (0..n).map(|_| arb_record(rng)).collect();
        let sample_every = rng.gen_range(1u64..5);
        let bytes = encode_rlog(&records, sample_every);

        // Round trip: decoded records equal, re-encoding byte-identical.
        let log = decode_rlog(&bytes).expect("fault-free decode");
        assert_eq!(log.records, records);
        assert_eq!(log.sample_every, sample_every);
        assert!(!log.torn_tail);
        assert_eq!(encode_rlog(&log.records, log.sample_every), bytes, "re-encode drifted");

        // Every truncation: a clean prefix (torn) or a typed Corrupt
        // error — and never, at any cut, a panic or a false "complete".
        for cut in 0..bytes.len() {
            match decode_rlog(&bytes[..cut]) {
                Ok(torn) => {
                    assert!(torn.torn_tail, "cut at {cut} of {} claims completeness", bytes.len());
                    assert!(torn.records.len() <= records.len());
                    assert_eq!(
                        torn.records[..],
                        records[..torn.records.len()],
                        "truncation at {cut} decoded a non-prefix"
                    );
                }
                Err(StateError::Corrupt { .. }) => {}
                Err(other) => panic!("truncation at {cut} surfaced a non-typed error: {other}"),
            }
        }

        // Bit rot inside the complete file: flip one byte anywhere in
        // the record region and the checksummed decode must reject it
        // as typed corruption (the footer says "complete", so a bad
        // record is rot, not a tear and not a crash).
        let record_region = 16..bytes.len() - 16;
        let pos = rng.gen_range(record_region.start..record_region.end);
        let mut rotted = bytes.clone();
        rotted[pos] ^= 0x40;
        match decode_rlog(&rotted) {
            Err(StateError::Corrupt { .. }) => {}
            Ok(log) => {
                panic!("bit rot at {pos} decoded fine ({} records)", log.records.len())
            }
            Err(other) => panic!("bit rot at {pos} surfaced a non-typed error: {other}"),
        }
    });
}

// --------------------------------------------- 2. deterministic replay

const FIXTURE_RLOG: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/dblp_like.rlog");
const FIXTURE_DIGESTS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/dblp_like.digests");
const FIXTURE_REQUESTS: u64 = 96;

/// The fixture's corpus: DBLP-shaped (venue skew, citation tail, year
/// span of the DBLP preset) scaled down so ranking takes well under a
/// second. Fully determined by the seed — every machine rebuilds the
/// same corpus, scores, and response bytes.
fn fixture_corpus() -> Corpus {
    CorpusGenerator::new(GeneratorConfig {
        initial_articles_per_year: 10.0,
        ..Preset::DblpLike.config(0xdb1f)
    })
    .generate()
}

fn fixture_targets(n_articles: usize) -> Vec<String> {
    let mut t = vec![
        "/top?k=10".to_string(),
        "/top?k=50".to_string(),
        "/top?k=5&venue=3".to_string(),
        "/top?k=25&year_min=1995".to_string(),
        "/top?k=25&venue=1&year_max=2005".to_string(),
        "/top?k=8&author=17".to_string(),
        "/top?k=12&year_min=1990&year_max=2010".to_string(),
        "/top?k=0".to_string(),
        "/health".to_string(),
    ];
    for id in [1usize, 42, 137, n_articles - 1, n_articles + 50] {
        t.push(format!("/article/{id}"));
    }
    t
}

/// Seeded traffic through the replay driver: one keep-alive connection
/// per seed, issued one after another, each carrying `per_seed` targets
/// drawn uniformly from `targets` by `SmallRng::seed_from_u64(seed)`.
/// The synthesised records' statuses are placeholders; the server's
/// recorder, when one is attached, logs the real ones.
fn drive_seeded(addr: SocketAddr, seeds: &[u64], per_seed: u64, targets: &[String]) {
    let mut records = Vec::new();
    for (conn, &seed) in (0u64..).zip(seeds) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for seq in 0..per_seed {
            let target = targets[rng.gen_range(0..targets.len())].clone();
            records.push(ReqRecord { conn, seq, generation: 0, status: 0, latency_us: 0, target });
        }
    }
    let report =
        scholar_loadgen::replay(&records, &ReplayConfig { addr, connections: 1, keep_alive: true })
            .expect("seeded replay");
    assert_eq!(report.replayed, records.len() as u64, "the driver lost requests");
    assert_eq!(report.transport_errors, 0);
}

/// Drive seeded traffic at a recording server and return the flushed
/// log. Two serial single-connection runs: serial traffic cannot
/// contend the recorder ring (`dropped` stays 0 by construction), and
/// the two runs give the log two connection groups, so replay's
/// per-connection ordering is actually exercised.
fn record_workload(corpus: &Arc<Corpus>, scores: &[f64], rlog: &Path) -> scholar::serve::RecordLog {
    let recorder = Arc::new(Recorder::new(rlog, 1, 1 << 16));
    let (mut server, _shared, _metrics) = start_server(corpus, scores, Some(Arc::clone(&recorder)));
    drive_seeded(
        server.addr(),
        &[0x5eed_0001, 0x5eed_0002],
        FIXTURE_REQUESTS / 2,
        &fixture_targets(corpus.num_articles()),
    );
    assert_eq!(recorder.dropped(), 0, "serial traffic must never contend the ring");
    recorder.flush().expect("flush record log");
    server.shutdown();
    let log = read_rlog(rlog).expect("read back record log");
    assert!(!log.torn_tail);
    assert_eq!(log.records.len() as u64, FIXTURE_REQUESTS);
    log
}

fn replay_against(
    corpus: &Arc<Corpus>,
    scores: &[f64],
    records: &[ReqRecord],
    connections: usize,
    keep_alive: bool,
) -> scholar_loadgen::ReplayReport {
    let (mut server, _, _) = start_server(corpus, scores, None);
    let report = scholar_loadgen::replay(
        records,
        &ReplayConfig { addr: server.addr(), connections, keep_alive },
    )
    .expect("replay");
    server.shutdown();
    assert_eq!(report.transport_errors, 0, "keep_alive={keep_alive}");
    report
}

#[test]
fn fixture_replays_byte_identically_with_and_without_keep_alive() {
    let corpus = Arc::new(fixture_corpus());
    let scores = ranked_scores(&corpus);

    if std::env::var_os("SCHOLAR_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(Path::new(FIXTURE_RLOG).parent().unwrap()).unwrap();
        let log = record_workload(&corpus, &scores, Path::new(FIXTURE_RLOG));
        // Digest the fixture against a fresh server and persist the
        // sidecar the regression gate compares against.
        let report = replay_against(&corpus, &scores, &log.records, 2, true);
        std::fs::write(FIXTURE_DIGESTS, report.format_digests()).unwrap();
        eprintln!("regenerated {FIXTURE_RLOG} and {FIXTURE_DIGESTS}");
    }

    let log = read_rlog(Path::new(FIXTURE_RLOG)).expect("checked-in fixture must decode");
    assert!(!log.torn_tail, "fixture has a torn tail");
    assert_eq!(log.records.len() as u64, FIXTURE_REQUESTS);
    let expected = scholar_loadgen::parse_digests(
        &std::fs::read_to_string(FIXTURE_DIGESTS).expect("checked-in digest sidecar"),
    )
    .expect("sidecar parses");

    // Two fresh server instances, two replay widths, kept-alive
    // connections and a reconnect after every response: every digest
    // must equal the checked-in sidecar.
    for (connections, keep_alive) in [(2usize, true), (1, false)] {
        let run = format!("{connections} connections, keep_alive={keep_alive}");
        let report = replay_against(&corpus, &scores, &log.records, connections, keep_alive);
        assert_eq!(report.replayed, FIXTURE_REQUESTS, "{run}");
        assert_eq!(
            report.status_mismatches, 0,
            "{run}: answered different statuses than the recording server"
        );
        let drift = report.diff_digests(&expected);
        assert!(
            drift.is_empty(),
            "{run}: response bytes drifted from the fixture:\n  {}",
            drift.join("\n  ")
        );
    }
}

#[test]
fn recorded_traffic_replays_identically_on_a_second_fresh_server() {
    // End-to-end: record live traffic on one server, replay the log on
    // two *other* fresh servers at different widths, digests must agree
    // — the portable-fixture property for logs recorded right now, not
    // just the checked-in one.
    let corpus = Arc::new(Preset::Tiny.generate(29));
    let scores = ranked_scores(&corpus);
    let rlog = tmp_path("roundtrip.rlog");
    let log = record_workload(&corpus, &scores, &rlog);
    assert_eq!(log.sample_every, 1);

    let mut digests = Vec::new();
    for connections in [1usize, 4] {
        let report = replay_against(&corpus, &scores, &log.records, connections, true);
        assert_eq!(report.status_mismatches, 0);
        digests.push(report.format_digests());
    }
    assert_eq!(digests[0], digests[1], "replay width changed the digests");
    std::fs::remove_file(&rlog).unwrap();
}

// ------------------------------------- 3. shadow-gated promotion e2e

fn await_decision(shared: &SharedIndex) -> ShadowReport {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let report = shared.shadow_report().expect("shadow slot vanished");
        if report.decision != Decision::Pending {
            return report;
        }
        assert!(Instant::now() < deadline, "shadow decision never landed");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn shadow_gate_rejects_drift_promotes_equivalence_and_replays_exactly() {
    let corpus = Arc::new(Preset::Tiny.generate(31));
    let scores = ranked_scores(&corpus);
    let rlog = tmp_path("mirror.rlog");
    let recorder = Arc::new(Recorder::new(&rlog, 1, 1 << 16));
    let (mut server, shared, _metrics) =
        start_server(&corpus, &scores, Some(Arc::clone(&recorder)));
    let addr = server.addr();

    // Exactly min_mirrored serial requests per phase: every request is
    // stored (serial traffic never contends the ring) and recording and
    // mirroring are coupled, so the flushed log *is* the mirrored
    // workload — which is what makes the offline replay below
    // integer-identical to the online report.
    const MIRRORS: u64 = 32;
    let thresholds = ShadowThresholds { min_mirrored: MIRRORS, ..Default::default() };
    let traffic =
        |seed: u64| drive_seeded(addr, &[seed], MIRRORS, &fixture_targets(corpus.num_articles()));

    // Phase 1: a drifted candidate (scores reversed — wrong order,
    // wrong values) must be REJECTED, loudly, with the old generation
    // still serving.
    let mut reversed = scores.clone();
    reversed.reverse();
    let cand_gen = shared
        .stage_shadow(ScoreIndex::build(Arc::clone(&corpus), reversed.clone()), thresholds.clone());
    assert_eq!(cand_gen, 2);
    traffic(0xd21f7);
    let online = await_decision(&shared);
    // Flush before any further HTTP touches the server, so the log
    // holds exactly the mirrored workload and nothing else.
    recorder.flush().expect("flush mirror log");
    assert_eq!(online.decision, Decision::Rejected);
    assert_eq!(shared.generation(), 1, "a rejected candidate must never publish");
    assert_eq!(online.mirrored, MIRRORS);
    assert_eq!(online.mirror_errors, 0);

    // Loud over HTTP: /shadow shows the staged report with its reasons.
    let (status, body) = chaos::http_get(addr, "/shadow");
    assert_eq!(status, 200);
    assert_eq!(body.get("active").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(body.get("decision").and_then(|v| v.as_str()), Some("rejected"));
    let failures = body.get("failures").and_then(|f| f.as_array()).expect("failures array");
    assert!(!failures.is_empty(), "a rejection must name its reasons");
    // Live answers still come from generation 1.
    let (status, top) = chaos::http_get(addr, "/top?k=3");
    assert_eq!(status, 200);
    assert_eq!(top.get("generation").and_then(|v| v.as_i64()), Some(1));

    // The recorded mirror log, replayed offline against the same two
    // index builds, reproduces the online drift integers exactly.
    let log = read_rlog(&rlog).expect("read mirror log");
    assert_eq!(log.records.len() as u64, MIRRORS, "log must cover the mirrored set exactly");
    let live = shared.load();
    let candidate = ScoreIndex::build(Arc::clone(&corpus), reversed);
    let offline = replay_mirror(&log.records, &live, &candidate).report(1, 2);
    assert_eq!(offline.mirrored, online.mirrored);
    assert_eq!(offline.status_mismatches, online.status_mismatches);
    assert_eq!(offline.top_compared, online.top_compared);
    assert_eq!(offline.overlap_hits, online.overlap_hits);
    assert_eq!(offline.overlap_slots, online.overlap_slots);
    assert_eq!(offline.concordant, online.concordant);
    assert_eq!(offline.discordant, online.discordant);
    assert_eq!(offline.pairs, online.pairs);
    assert_eq!(offline.score_l1_nanos, online.score_l1_nanos);
    assert_eq!(offline.score_pairs, online.score_pairs);
    assert_eq!(offline.endpoint_mirrored, online.endpoint_mirrored);
    assert_eq!(offline.endpoint_status_mismatches, online.endpoint_status_mismatches);
    // And the decision it implies is the decision that was taken.
    assert!(!offline.failures(&thresholds).is_empty());

    // Phase 2: an equivalent candidate (identical scores) must be
    // PROMOTED once it has answered enough mirrored traffic.
    let cand_gen =
        shared.stage_shadow(ScoreIndex::build(Arc::clone(&corpus), scores.clone()), thresholds);
    assert_eq!(cand_gen, 2);
    traffic(0xa11ce);
    let deadline = Instant::now() + Duration::from_secs(30);
    while shared.generation() < 2 {
        assert!(Instant::now() < deadline, "equivalent candidate never promoted");
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = shared.shadow_report().expect("report stays up after promotion");
    assert_eq!(report.decision, Decision::Promoted);
    assert_eq!(report.status_mismatches, 0);
    assert_eq!(report.overlap_hits, report.overlap_slots, "identical scores must overlap fully");
    // The promoted generation serves immediately.
    let (status, top) = chaos::http_get(addr, "/top?k=3");
    assert_eq!(status, 200);
    assert_eq!(top.get("generation").and_then(|v| v.as_i64()), Some(2));
    assert_eq!(shared.load().top(&TopQuery { k: 3, ..Default::default() }).len(), 3);

    // Metrics exactness with shadowing on: every request classified
    // exactly once, and the per-generation breakdown sums back to the
    // total — nothing double-counted by the mirror path.
    let (status, m) = chaos::http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let field = |v: &sjson::Value, name: &str| -> i64 {
        v.get(name).and_then(|x| x.as_i64()).unwrap_or_else(|| panic!("missing metric {name}"))
    };
    let requests = field(&m, "requests");
    assert_eq!(
        field(&m, "ok") + field(&m, "client_errors") + field(&m, "server_errors"),
        requests,
        "class counters must sum exactly to requests with shadowing on"
    );
    let generations = m.get("generations").and_then(|g| g.as_array()).expect("generations array");
    assert!(generations.len() >= 2, "both generations must appear: {generations:?}");
    let mut by_generation = 0i64;
    for g in generations {
        assert_eq!(
            field(g, "ok") + field(g, "client_errors") + field(g, "server_errors"),
            field(g, "requests"),
            "per-generation classes must sum exactly"
        );
        by_generation += field(g, "requests");
    }
    assert_eq!(by_generation, requests, "generation breakdown must sum to the request counter");

    server.shutdown();
    std::fs::remove_file(&rlog).unwrap();
}

#[test]
fn early_manual_promotion_rejects_an_under_mirrored_candidate() {
    // try_promote_shadow before the evidence bar is a statement that no
    // more evidence is coming: the under-mirrored candidate is rejected,
    // not promoted on faith.
    let corpus = Arc::new(Preset::Tiny.generate(33));
    let scores = ranked_scores(&corpus);
    let shared = Arc::new(SharedIndex::new(ScoreIndex::build(Arc::clone(&corpus), scores.clone())));
    let thresholds = ShadowThresholds { min_mirrored: 64, ..Default::default() };
    shared.stage_shadow(ScoreIndex::build(Arc::clone(&corpus), scores), thresholds.clone());
    assert_eq!(shared.try_promote_shadow(), None);
    let report = shared.shadow_report().expect("slot stays up");
    assert_eq!(report.decision, Decision::Rejected);
    assert!(report.failures(&thresholds).iter().any(|f| f.contains("min_mirrored")));
    assert_eq!(shared.generation(), 1);
}
