//! Proof that the serving hot path is allocation-free: a counting
//! global allocator (test binary only — production builds keep plain
//! `System`) wraps every render primitive and the request path's own
//! `/top` and `/article/{id}` renders ([`Ctx::write_answer`] — routing,
//! cache probe, fragment assembly, sjson's byte writers, head),
//! asserting **zero** heap allocations once buffers are warm. This is the regression fence for the arena-writer work: a
//! stray `format!` or `to_string` in `http.rs`, the router or the
//! fragment path turns the count nonzero and fails here, not in a
//! benchmark three PRs later.

use scholar_corpus::generator::Preset;
use scholar_serve::conn::Ctx;
use scholar_serve::http::{parse_target, write_error_response, write_u64};
use scholar_serve::{Metrics, ScoreIndex, SharedIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// `System`, plus a per-thread allocation counter. Thread-local so the
/// test-harness thread's own allocations can't pollute a measurement;
/// const-initialized so reading it never itself allocates.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter bump has no effect on layout or
// pointer validity.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made *by this thread* while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn warm_response_rendering_never_allocates() {
    // Build everything that legitimately allocates up front: two
    // generations of one index, the context, the parsed request.
    let corpus = Arc::new(Preset::Tiny.generate(51));
    let n = corpus.num_articles();
    let scores: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    let shared = Arc::new(SharedIndex::new(ScoreIndex::build(Arc::clone(&corpus), scores.clone())));
    let first = shared.load();
    shared.publish(ScoreIndex::build(Arc::clone(&corpus), scores));
    let second = shared.load();
    assert_ne!(first.generation(), second.generation());
    let mut ctx = Ctx::new(shared, Arc::new(Metrics::new()), None);
    // Unfiltered, and venue- and author-filtered: the filtered answers
    // scan one flat posting list each.
    let venue = &corpus.venues()[0].name;
    let author = &corpus.author(corpus.articles()[0].authors[0]).name;
    let targets = [
        "/top?k=25".to_string(),
        format!("/top?k=25&venue={venue}"),
        format!("/top?k=10&author={author}"),
    ];
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    for target in &targets {
        let req = parse_target(target);
        let mut render = |index: &ScoreIndex, out: &mut Vec<u8>| {
            out.clear();
            assert_eq!(
                ctx.write_answer(&req, target.as_bytes(), index, true, out),
                200,
                "{target}"
            );
        };

        // Warm passes: every buffer reaches its high-water capacity and
        // the cache holds this target, last stamped with the first
        // generation.
        render(&first, &mut out);
        render(&second, &mut out);
        render(&first, &mut out);
        let rendered = out.clone();
        assert!(rendered.windows(7).any(|w| w == b"\"rank\":"), "{target}: no hit rendered");

        // A cache hit: route, probe, head, memcpy.
        let hit = allocations(|| render(&first, &mut out));
        assert_eq!(hit, 0, "a warm cache hit on {target} allocated {hit} time(s)");
        assert_eq!(out, rendered);
        // A generation miss: the stamp is stale, so the body is
        // re-rendered from fragments and the entry re-stamped in place.
        let miss = allocations(|| render(&second, &mut out));
        assert_eq!(
            miss, 0,
            "a warm generation-miss re-render of {target} allocated {miss} time(s)"
        );
        assert_ne!(out, rendered);
    }

    // Error rendering and escaping, as the 4xx/5xx arms use them.
    let mut scratch: Vec<u8> = Vec::with_capacity(4 * 1024);
    let mut errors = |out: &mut Vec<u8>| {
        out.clear();
        write_error_response(out, &mut scratch, 400, "bad value k=\"banana\"\n", false);
        sjson::write_str(out, "quote\" slash\\ tab\t ctrl\u{1} bs\u{8} é 🎓");
        sjson::write_number(out, 0.123_456_789);
        sjson::write_number(out, f64::NAN);
        write_u64(out, u64::MAX);
    };
    errors(&mut out);
    let count = allocations(|| errors(&mut out));
    assert_eq!(count, 0, "warm error rendering allocated {count} time(s)");
}

#[test]
fn warm_article_rendering_never_allocates() {
    // `/article` is not cached: every answer is a fresh assembly of the
    // byline, the escaped strings, the shortest-round-trip floats and
    // the neighbour fragments.
    let corpus = Arc::new(Preset::Tiny.generate(52));
    let n = corpus.num_articles();
    let scores: Vec<f64> = (0..n).map(|i| 1.0 / (i + 3) as f64).collect();
    let shared = Arc::new(SharedIndex::new(ScoreIndex::build(corpus, scores)));
    let index = shared.load();
    let mut ctx = Ctx::new(shared, Arc::new(Metrics::new()), None);
    // The best, a middle and the last-ranked article: truncated and full
    // neighbour lists.
    let targets = [0, n / 2, n - 1].map(|id| format!("/article/{id}"));
    let reqs = targets.clone().map(|t| parse_target(&t));
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    for (target, req) in targets.iter().zip(&reqs) {
        let mut render = |out: &mut Vec<u8>| {
            out.clear();
            assert_eq!(ctx.write_answer(req, target.as_bytes(), &index, true, out), 200);
        };
        render(&mut out);
        let rendered = out.clone();
        let count = allocations(|| render(&mut out));
        assert_eq!(count, 0, "a warm {target} render allocated {count} time(s)");
        assert_eq!(out, rendered);
    }
}
