//! Cross-format integration: a corpus survives every serialization path
//! and produces identical rankings afterwards.

use scholar::corpus::loader::{aan, jsonl, mag, LoadOptions, MissingYearPolicy};
use scholar::{PageRank, Preset, QRank, Ranker};

fn l1(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

#[test]
fn jsonl_roundtrip_preserves_rankings() {
    let original = Preset::Tiny.generate(17);
    let mut buf = Vec::new();
    jsonl::write_jsonl(&original, &mut buf).unwrap();
    let loaded = jsonl::read_jsonl(&buf[..], &LoadOptions::default()).unwrap();

    let pr_a = PageRank::default().rank(&original);
    let pr_b = PageRank::default().rank(&loaded);
    assert!(l1(&pr_a, &pr_b) < 1e-12, "PageRank must survive the JSONL roundtrip");

    let qr_a = QRank::default().rank(&original);
    let qr_b = QRank::default().rank(&loaded);
    assert!(l1(&qr_a, &qr_b) < 1e-12, "QRank must survive the JSONL roundtrip");
}

#[test]
fn aan_roundtrip_preserves_rankings() {
    let original = Preset::Tiny.generate(18);
    let loaded = aan::roundtrip(&original).unwrap();
    let qr_a = QRank::default().rank(&original);
    let qr_b = QRank::default().rank(&loaded);
    assert!(l1(&qr_a, &qr_b) < 1e-12, "QRank must survive the AAN roundtrip");
}

#[test]
fn mag_tables_load_into_equivalent_corpus() {
    // Render a corpus into MAG-style TSV by hand, reload, compare graphs.
    let original = Preset::Tiny.generate(19);
    let mut papers = String::new();
    let mut auth = String::new();
    let mut refs = String::new();
    for a in original.articles() {
        papers.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            a.id,
            a.year,
            original.venue(a.venue).name,
            a.title
        ));
        for (pos, &u) in a.authors.iter().enumerate() {
            auth.push_str(&format!("{}\t{}\t{}\n", a.id, original.author(u).name, pos + 1));
        }
        for &r in &a.references {
            refs.push_str(&format!("{}\t{}\n", a.id, r));
        }
    }
    let loaded =
        mag::read_mag(papers.as_bytes(), auth.as_bytes(), refs.as_bytes(), &LoadOptions::default())
            .unwrap();

    assert_eq!(loaded.num_articles(), original.num_articles());
    assert_eq!(loaded.num_citations(), original.num_citations());
    assert_eq!(loaded.num_authors(), original.num_authors());
    assert_eq!(loaded.num_venues(), original.num_venues());
    for (a, b) in original.articles().iter().zip(loaded.articles()) {
        assert_eq!(a.year, b.year);
        assert_eq!(a.references, b.references);
        assert_eq!(a.authors.len(), b.authors.len());
    }
    let qr_a = QRank::default().rank(&original);
    let qr_b = QRank::default().rank(&loaded);
    assert!(l1(&qr_a, &qr_b) < 1e-12, "QRank must survive the MAG roundtrip");
}

#[test]
fn loaders_tolerate_messy_real_world_data() {
    // Unknown references, missing years, missing venues — all at once.
    let messy = r#"
{"id": "A", "year": 1999, "references": ["MISSING-1", "B"]}
{"id": "B", "venue": "", "authors": ["X", "X"], "references": []}
{"id": "C", "year": 2005, "references": ["A", "B", "C-NOT-THERE"]}
"#;
    // A yearless record is a hard error unless the caller picks a policy:
    // the year-0 sentinel used to silently make articles ~2000 years old.
    let err = jsonl::read_jsonl(messy.as_bytes(), &LoadOptions::default()).unwrap_err();
    assert!(err.to_string().contains("no publication year"), "{err}");

    let opts = LoadOptions { missing_year: MissingYearPolicy::Impute(2000), ..Default::default() };
    let corpus = jsonl::read_jsonl(messy.as_bytes(), &opts).unwrap();
    assert_eq!(corpus.num_articles(), 3);
    assert_eq!(corpus.articles()[1].year, 2000);
    // Rankers must not panic on the messy corpus.
    for ranker in scholar::evaluation_rankers() {
        let scores = ranker.rank(&corpus);
        assert_eq!(scores.len(), 3);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    // Dropping instead renumbers around the yearless record.
    let opts = LoadOptions { missing_year: MissingYearPolicy::Drop, ..Default::default() };
    let dropped = jsonl::read_jsonl(messy.as_bytes(), &opts).unwrap();
    assert_eq!(dropped.num_articles(), 2);
    assert!(dropped.articles().iter().all(|a| a.year != 0));
}

/// "No on-disk byte changes" as a test: every durable format, written
/// for one fixed `Preset::Tiny` seed, hashes to the constant captured at
/// the commit that last changed that format — the column files and
/// `snapshot.snap` at SCOLv2/SNAPv2, `graph.scsr` at its bump to SCSRv4,
/// the rest when they moved onto `sgraph::sfile`. A failure here is a
/// format change — it needs a version bump, not a new constant.
#[test]
fn golden_bytes_of_all_five_formats() {
    const GOLDEN: [(&str, u64); 20] = [
        ("years.col", 0x54bec687249a6fad),
        ("venues.col", 0x2c2ba5a58915be1b),
        ("authors.idx", 0x588b1e260a3e3b71),
        ("authors.dat", 0x23ae3b6fdc6c80d3),
        ("refs.idx", 0x3458468b07751a68),
        ("refs.dat", 0x0a291728fd0c4a9d),
        ("titles.idx", 0x285a736fdf6424f4),
        ("titles.dat", 0x26789e49ed10521c),
        ("merit_mask.col", 0x64aaf87211b5a936),
        ("merit.col", 0xee937400b3b62de8),
        ("venue_names.idx", 0x2e37146092ea957c),
        ("venue_names.dat", 0x79f93e6a6a2a7d08),
        ("author_names.idx", 0x73b1b3df53f030f4),
        ("author_names.dat", 0x61aca865bd8e16f1),
        ("meta.col", 0xc5af64acd24382fa),
        ("graph.scsr", 0x287f352054c38e4a),
        ("snapshot.snap", 0x856f50abcafb522d),
        ("wal.log", 0x45906d22aa2b7d7c),
        ("wal.log (rotated)", 0x0b3df91a0d596ec2),
        ("golden.rlog", 0x5479891b1e5509b5),
    ];
    use scholar::corpus::model::{Article, ArticleId, AuthorId, VenueId};
    use scholar::rank::Diagnostics;
    use scholar::serve::{wal, write_rlog, write_snapshot, ReqRecord, Wal};

    let dir = std::env::temp_dir().join(format!("scholar-golden-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = Preset::Tiny.generate(20);
    let mut got: Vec<(&str, u64)> = Vec::new();
    let mut hash = |name: &'static str, path: &std::path::Path| {
        got.push((name, scholar::graph::sfile::fnv64(&std::fs::read(path).unwrap())));
    };

    // SCOLv2: fifteen column files.
    let col = dir.join("col");
    corpus.write_colstore(&col).unwrap();
    for &(name, _) in &GOLDEN[..15] {
        hash(name, &col.join(name));
    }
    // `graph.scsr` and `golden.rlog` carry a store generation and nothing
    // else of the store. They are stamped with the SCOLv1 store's, so
    // their constants show that their own formats did not move.
    let generation = 0x7754_4f55_51cc_f373;

    // SCSRv4: several shards, tagged with the colstore generation.
    let scsr = dir.join("graph.scsr");
    scholar::graph::mmap_csr::build_from_graph(&corpus.citation_graph(), &scsr, 64, generation)
        .unwrap();
    hash("graph.scsr", &scsr);

    // SNAPv2 over synthetic scores: the test pins the file format, not
    // the solver's floating point. Its store is a second copy of the
    // column files above, so only `snapshot.snap` itself is hashed.
    let falling = |n: usize| (0..n).map(|i| 1.0 / (i + 1) as f64).collect::<Vec<f64>>();
    let result = scholar::QRankResult {
        article_scores: falling(corpus.num_articles()),
        venue_scores: falling(corpus.num_venues()),
        author_scores: falling(corpus.num_authors()),
        twpr_scores: falling(corpus.num_articles()).into_iter().rev().collect(),
        twpr_diagnostics: Diagnostics::closed_form(),
        outer: Diagnostics::closed_form(),
    };
    write_snapshot(&dir, &corpus, &result, 7).unwrap();
    hash("snapshot.snap", &scholar::serve::snapshot::snapshot_path(&dir));

    // WALv1: appended records, then the rotated journal.
    let article = |i: u32| Article {
        id: ArticleId(0),
        title: format!("golden-{i}"),
        year: 2019 + i as i32,
        venue: VenueId(i % 2),
        authors: vec![AuthorId(i), AuthorId(i + 1)],
        references: vec![ArticleId(i), ArticleId(i + 3)],
        merit: i.is_multiple_of(2).then_some(0.5),
    };
    let mut journal = Wal::create(&dir, 7).unwrap();
    journal.append(&[article(0), article(1)]).unwrap();
    journal.append(&[article(2)]).unwrap();
    drop(journal);
    hash("wal.log", &wal::wal_path(&dir));
    drop(wal::rotate(&dir, 8).unwrap());
    hash("wal.log (rotated)", &wal::wal_path(&dir));

    // RLOGv1.
    let records: Vec<ReqRecord> = (0..5u64)
        .map(|i| ReqRecord {
            conn: 1 + i % 2,
            seq: i / 2,
            generation,
            status: if i == 3 { 404 } else { 200 },
            latency_us: 90 + 7 * i,
            target: format!("/top?k={}", i + 1),
        })
        .collect();
    let rlog = dir.join("golden.rlog");
    write_rlog(&rlog, &records, 4).unwrap();
    hash("golden.rlog", &rlog);

    std::fs::remove_dir_all(&dir).unwrap();
    for (got, want) in got.iter().zip(&GOLDEN) {
        assert_eq!(got.0, want.0);
        assert_eq!(got.1, want.1, "{}: {:#018x} != golden {:#018x}", got.0, got.1, want.1);
    }
    assert_eq!(got.len(), GOLDEN.len());
}
