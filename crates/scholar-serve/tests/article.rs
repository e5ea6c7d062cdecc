//! `/article/{id}` is answered from bytes: [`Ctx::write_answer`] splices
//! the article's fields through sjson's byte writers and its neighbours'
//! pre-rendered fragments. The router ([`respond`]) still builds a
//! `Value` tree per request and is the oracle: every article's whole
//! response — status, head and body — must be the same bytes either way,
//! and so must the 404/400 answers the byte path hands back to it.

use scholar_corpus::generator::Preset;
use scholar_corpus::{Corpus, CorpusBuilder};
use scholar_rank::Ranker;
use scholar_serve::conn::Ctx;
use scholar_serve::http::{parse_target, write_response_head};
use scholar_serve::{respond, Metrics, ScoreIndex, SharedIndex};
use std::sync::Arc;

/// Answer `target` through the core and through the router; assert the
/// two responses are byte-identical and return the status and body.
fn answer_both_ways(ctx: &mut Ctx, index: &ScoreIndex, target: &str) -> (u16, sjson::Value) {
    let req = parse_target(target);
    let mut got = Vec::new();
    let status = ctx.write_answer(&req, target.as_bytes(), index, false, &mut got);
    let (want_status, body) = respond(&req, index, &Metrics::new());
    let rendered = body.to_string_compact();
    let mut want = Vec::new();
    write_response_head(&mut want, want_status, rendered.len(), false);
    want.extend_from_slice(rendered.as_bytes());
    assert_eq!(status, want_status, "{target}: status");
    assert!(
        got == want,
        "{target}: bodies differ\n core:   {}\n router: {}",
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(&want)
    );
    (status, body)
}

/// Serve `scores` over `corpus` at a stamped generation (`publishes`
/// publishes after the first), then check every article, the first- and
/// last-ranked ones' truncated neighbour lists, and status parity just
/// past the corpus. Returns the context and index it checked.
fn every_article_matches_the_router(
    corpus: Corpus,
    scores: Vec<f64>,
    publishes: usize,
) -> (Ctx, Arc<ScoreIndex>) {
    let corpus = Arc::new(corpus);
    let shared = Arc::new(SharedIndex::new(ScoreIndex::build(Arc::clone(&corpus), scores.clone())));
    for _ in 0..publishes {
        shared.publish(ScoreIndex::build(Arc::clone(&corpus), scores.clone()));
    }
    let index = shared.load();
    assert_eq!(index.generation(), 1 + publishes as u64);
    let mut ctx = Ctx::new(shared, Arc::new(Metrics::new()), None);
    let n = index.num_articles();
    for id in 0..n {
        let (status, body) = answer_both_ways(&mut ctx, &index, &format!("/article/{id}"));
        assert_eq!(status, 200);
        assert_eq!(body.get("generation").and_then(sjson::Value::as_u64), Some(index.generation()));
    }
    // Rank 1 has no one above it, the last-ranked no one below: both get
    // themselves plus three.
    let order = index.placement(0, usize::MAX).unwrap().neighbors;
    for (end, id) in [("first", order.first()), ("last", order.last())] {
        let id = *id.unwrap();
        let (_, body) = answer_both_ways(&mut ctx, &index, &format!("/article/{id}"));
        let neighbors = body.get("neighbors").and_then(sjson::Value::as_array).unwrap();
        assert_eq!(neighbors.len(), n.min(4), "{end}-ranked article {id}");
    }
    // Not in the corpus, not a u32, not an id: the router's own answers.
    for (target, status) in [
        (format!("/article/{n}"), 404),
        (format!("/article/{}", u32::MAX), 404),
        ("/article/banana".to_string(), 400),
        ("/article/".to_string(), 400),
        ("/article/-1".to_string(), 400),
        (format!("/article/{}", u64::from(u32::MAX) + 1), 400),
    ] {
        assert_eq!(answer_both_ways(&mut ctx, &index, &target).0, status, "{target}");
    }
    (ctx, index)
}

fn page_rank(corpus: Corpus) -> (Corpus, Vec<f64>) {
    let scores = scholar_rank::PageRank::default().rank(&corpus);
    (corpus, scores)
}

#[test]
fn tiny_article_bodies_match_the_router() {
    let (corpus, scores) = page_rank(Preset::Tiny.generate(61));
    every_article_matches_the_router(corpus, scores, 0);
}

#[test]
fn aan_like_article_bodies_match_the_router() {
    let (corpus, scores) = page_rank(Preset::AanLike.generate(62));
    every_article_matches_the_router(corpus, scores, 2);
}

/// Names and titles built to break a hand-kept escaper: quotes,
/// backslashes, every control character (backspace and form feed
/// included), DEL, multi-byte UTF-8, an empty title, an empty byline and
/// an empty name; scores that take every branch of the number writer.
#[test]
fn adversarial_strings_and_scores_match_the_router() {
    let controls: String = (0u8..0x20).map(char::from).collect();
    let mut b = CorpusBuilder::new();
    let venues = [
        b.venue("Proc. \"Quoted\" \\ Venue\t\u{8}\u{c}\u{7f}"),
        b.venue("Ünïcødé Sympósium — 学会 🎓"),
        b.venue(&controls),
        b.venue(""),
    ];
    let authors = [
        b.author("O'Brien, \"Pat\""),
        b.author("back\\slash\\"),
        b.author("Zoë Ødegård 李"),
        b.author(""),
        b.author("\u{8}\u{c}\n\r\t\u{0}\u{7f}"),
    ];
    let titles = [
        "",
        "A \"quoted\" title",
        "trailing backslash \\",
        "tab\tnewline\ncarriage\rreturn",
        controls.as_str(),
        "DEL \u{7f} and NUL \u{0}",
        "ünïcode 🎓 € 李 \u{10ffff}",
        "</script><b>&amp;",
        "plain",
        "\\u0041 is not an escape",
    ];
    let bylines: [&[usize]; 5] = [&[], &[0], &[0, 1, 2, 3, 4], &[3], &[4, 2]];
    for (i, title) in titles.iter().enumerate() {
        let refs = (0..i as u32).step_by(3).map(scholar_corpus::ArticleId).collect();
        let byline = bylines[i % bylines.len()].iter().map(|&u| authors[u]).collect();
        b.add_article(title, 1990 + i as i32, venues[i % venues.len()], byline, refs, None);
    }
    let corpus = b.finish().unwrap();
    let scores = vec![
        0.1,
        1.0 / 3.0,
        1e-300,
        f64::from_bits(1), // the smallest subnormal
        -0.0,
        0.0,
        1e15,
        42.0,
        1e15 - 1.0,
        1.0 / 3.0, // a tie, broken by id
    ];
    let (mut ctx, index) = every_article_matches_the_router(corpus, scores, 1);
    // The strings really did go through the escaper.
    let (_, body) = answer_both_ways(&mut ctx, &index, "/article/4");
    assert!(body.to_string_compact().contains(r#""title":"\u0000\u0001"#));
    assert!(body.to_string_compact().contains(r#"\b\t\n\u000b\f\r"#));
    let (_, body) = answer_both_ways(&mut ctx, &index, "/article/0");
    assert!(body.to_string_compact().contains(r#""title":"","year":1990"#));
    assert!(body.to_string_compact().contains(r#""authors":[],"#));
}

/// One article: it is rank 1 of 1, so score `1.0` and percentile `1.0`
/// both print as the integer `1`, and it is its own only neighbour.
#[test]
fn a_one_article_corpus_matches_the_router() {
    let mut b = CorpusBuilder::new();
    let v = b.venue("Solo");
    let u = b.author("Only Author");
    b.add_article("The only article", 2001, v, vec![u], vec![], None);
    let corpus = b.finish().unwrap();
    let (mut ctx, index) = every_article_matches_the_router(corpus, vec![1.0], 3);
    let (_, body) = answer_both_ways(&mut ctx, &index, "/article/0");
    let text = body.to_string_compact();
    assert!(text.contains(r#""rank":1,"score":1,"percentile":1,"references":0,"#), "{text}");
    assert!(text.starts_with(r#"{"generation":4,"id":0,"#), "{text}");
}

/// The same check on the DBLP-like preset (~90k articles): minutes in a
/// debug build, seconds in release. CI runs it with
/// `cargo test --release -p scholar-serve --test article -- --ignored`.
#[test]
#[ignore = "large preset; run in release builds"]
fn dblp_like_article_bodies_match_the_router() {
    let (corpus, scores) = page_rank(Preset::DblpLike.generate(63));
    every_article_matches_the_router(corpus, scores, 1);
}
