//! Restart-equivalence conformance for the crash-safe serving state
//! (DESIGN.md §2.11).
//!
//! A server restored from `snapshot.snap` + `wal.log` replay must be
//! indistinguishable over HTTP from a server built by the deterministic
//! pipeline rebuild — a cold rank of the base corpus followed by one
//! `extend` per journaled batch, which is exactly the arithmetic the
//! original process performed. "Indistinguishable" here is literal:
//! byte-identical response bytes for `/top` and `/article/{id}`,
//! including the bit patterns of every serialized score.

use scholar::core::incremental::{grow_corpus, IncrementalRanker};
use scholar::corpus::model::{Article, ArticleId, AuthorId, VenueId};
use scholar::corpus::Preset;
use scholar::serve::{
    load_snapshot, serve, write_snapshot, DurableOptions, Metrics, Reindexer, ScoreIndex,
    ServeConfig, SharedIndex, StateError, Wal,
};
use scholar::QRankConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod oracle;

fn state_dir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("scholar-restart-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A submit batch citing already-ranked articles (the growth contract).
fn batch(tag: u32) -> Vec<Article> {
    (0..2)
        .map(|j| Article {
            id: ArticleId(0),
            title: format!("restart-batch-{tag}-{j}"),
            year: 2013 + tag as i32,
            venue: VenueId(0),
            authors: vec![AuthorId(0)],
            references: vec![ArticleId(tag * 2 + j)],
            merit: None,
        })
        .collect()
}

/// One whole HTTP exchange, raw bytes out.
fn http_get(addr: SocketAddr, target: &str) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(s, "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").expect("send");
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).expect("read response");
    buf
}

fn config() -> ServeConfig {
    ServeConfig { workers: 2, ..Default::default() }
}

#[test]
fn restarted_server_is_byte_identical_to_a_cold_pipeline_rebuild() {
    let dir = state_dir("conformance");
    let qconfig = QRankConfig::default();
    let base = Preset::Tiny.generate(7);
    let batches: Vec<Vec<Article>> = (0..3).map(batch).collect();

    // First life of the server: cold durable start, accept every batch
    // (waiting out each publish so every batch is its own extend, like
    // a low-traffic production trickle), then go down.
    {
        let (_shared, reindexer, report) = Reindexer::start_durable(
            qconfig.clone(),
            base.clone(),
            DurableOptions::new(&dir),
            |_| {},
        )
        .expect("cold durable start");
        assert!(!report.restored_from_snapshot);
        for (i, b) in batches.iter().enumerate() {
            reindexer.submit(b.clone()).expect("submit");
            let deadline = Instant::now() + Duration::from_secs(30);
            while reindexer.batches_published() < (i + 1) as u64 {
                assert!(Instant::now() < deadline, "publish {i} never landed");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        reindexer.shutdown();
    }

    // Second life: restore from disk.
    let (restored, reindexer, report) =
        Reindexer::start_durable(qconfig.clone(), base.clone(), DurableOptions::new(&dir), |_| {})
            .expect("restart from state dir");
    assert!(report.restored_from_snapshot, "restart must not re-rank");
    assert_eq!(report.replayed_batches, batches.len());

    // The oracle: rank the base cold and fold each accepted batch as its
    // own extend — the canonical pipeline the journal is a log of. Serve
    // it at the same generation (1) every fresh `SharedIndex` starts at.
    let mut oracle = IncrementalRanker::new(qconfig, base);
    for b in &batches {
        let grown = grow_corpus(oracle.corpus(), b.clone());
        oracle.extend(grown);
    }
    let oracle_shared = Arc::new(SharedIndex::new(ScoreIndex::build(
        Arc::new(oracle.corpus().clone()),
        oracle.result().article_scores.clone(),
    )));

    let restored_srv =
        serve(Arc::clone(&restored), Arc::new(Metrics::new()), &config()).expect("bind restored");
    let oracle_srv =
        serve(oracle_shared, Arc::new(Metrics::new()), &config()).expect("bind oracle");

    let n = restored.load().num_articles();
    let mut targets = vec![
        "/top?k=10".to_string(),
        format!("/top?k={n}"),
        "/top?k=5&year_min=2000".to_string(),
        "/top?k=7&year_max=2013".to_string(),
        "/top?k=0".to_string(),
    ];
    // Every article detail, plus ids past the corpus (404 parity).
    for id in 0..n as u32 + 2 {
        targets.push(format!("/article/{id}"));
    }
    for target in &targets {
        let got = http_get(restored_srv.addr(), target);
        let want = http_get(oracle_srv.addr(), target);
        assert!(
            got == want,
            "restarted response diverged from the pipeline rebuild for {target}:\n \
             restored: {:?}\n rebuilt:  {:?}",
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want)
        );
    }

    drop(restored_srv);
    drop(oracle_srv);
    reindexer.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_third_life_replays_nothing_and_still_serves_identically() {
    // Restart-of-a-restart: the second restore re-snapshots at the
    // journal high-water mark, so a third start finds a snapshot already
    // covering everything and an empty (rotated) journal.
    let dir = state_dir("third-life");
    let qconfig = QRankConfig::default();
    let base = Preset::Tiny.generate(9);

    let first =
        Reindexer::start_durable(qconfig.clone(), base.clone(), DurableOptions::new(&dir), |_| {})
            .expect("cold start");
    first.1.submit(batch(0)).expect("submit");
    let deadline = Instant::now() + Duration::from_secs(30);
    while first.1.batches_published() < 1 {
        assert!(Instant::now() < deadline, "publish never landed");
        std::thread::sleep(Duration::from_millis(2));
    }
    first.1.shutdown();

    let second =
        Reindexer::start_durable(qconfig.clone(), base.clone(), DurableOptions::new(&dir), |_| {})
            .expect("second start");
    assert_eq!(second.2.replayed_batches, 1);
    let second_top = {
        let srv = serve(Arc::clone(&second.0), Arc::new(Metrics::new()), &config()).unwrap();
        http_get(srv.addr(), "/top?k=20")
    };
    second.1.shutdown();

    let third = Reindexer::start_durable(qconfig, base, DurableOptions::new(&dir), |_| {})
        .expect("third start");
    assert!(third.2.restored_from_snapshot);
    assert_eq!(third.2.replayed_batches, 0, "second restore must have re-snapshotted");
    let third_top = {
        let srv = serve(Arc::clone(&third.0), Arc::new(Metrics::new()), &config()).unwrap();
        http_get(srv.addr(), "/top?k=20")
    };
    assert_eq!(second_top, third_top, "a replay-free restart changed the serving bytes");
    third.1.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The entries of a directory with their bytes, recursively and sorted:
/// what "left alone" is checked against.
fn contents(dir: &std::path::Path) -> Vec<(std::path::PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(contents(&path));
        } else {
            out.push((path.clone(), std::fs::read(&path).unwrap()));
        }
    }
    out.sort();
    out
}

/// A state directory in an older layout is refused with an error naming
/// its version — a SNAPv1 `snapshot.snap` (written by the codec kept in
/// `tests/oracle`), or an SCOLv1 store under a SNAPv2 one — and a durable
/// start over it fails with that error instead of cold-starting over the
/// old state.
#[test]
fn a_version_1_state_directory_is_refused_by_name_and_left_alone() {
    let qconfig = QRankConfig::default();
    let corpus = Preset::Tiny.generate(12);
    let result = IncrementalRanker::new(qconfig.clone(), corpus.clone()).result().clone();

    let v1 = state_dir("snap-v1");
    oracle::snapv1::write_snapshot(&v1, &corpus, &result, 0).unwrap();
    drop(Wal::create(&v1, 0).unwrap());
    let store_v1 = state_dir("scol-v1");
    write_snapshot(&store_v1, &corpus, &result, 0).unwrap();
    drop(Wal::create(&store_v1, 0).unwrap());
    let store = store_v1.join("corpus-0000000000000000");
    for entry in std::fs::read_dir(&store).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        let footer = bytes.len() - 32;
        bytes[footer..footer + 8].copy_from_slice(b"SCOLv1\0\0");
        std::fs::write(&path, &bytes).unwrap();
    }

    for (dir, found, message) in [
        (&v1, "SNAPv1", "state file snapshot.snap is SNAPv1; this build reads only SNAPv2"),
        (
            &store_v1,
            "SCOLv1",
            "state file corpus-0000000000000000/meta.col is SCOLv1; this build reads only SCOLv2",
        ),
    ] {
        let err = load_snapshot(dir).unwrap_err();
        assert!(matches!(&err, StateError::Unsupported { found: f, .. } if f == found), "{err}");
        assert_eq!(err.to_string(), message);
        let before = contents(dir);
        let err = match Reindexer::start_durable(
            qconfig.clone(),
            corpus.clone(),
            DurableOptions::new(dir),
            |_| {},
        ) {
            Ok(_) => panic!("a durable start over a {found} state must fail"),
            Err(e) => e,
        };
        assert_eq!(err.to_string(), message);
        assert!(contents(dir) == before, "a refused {found} state was written over");
        let _ = std::fs::remove_dir_all(dir);
    }
}
