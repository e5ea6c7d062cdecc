//! Cross-crate property-based tests: invariants of the whole stack under
//! randomly generated corpora (not just the generator's well-behaved
//! output — these corpora include time-travel citations, empty bylines,
//! and single-venue degenerate cases).
//!
//! Cases come from a seeded in-repo generator; failures print the seed.

use scholar::corpus::model::{ArticleId, AuthorId, VenueId};
use scholar::corpus::{Corpus, CorpusBuilder};
use scholar::{QRank, QRankConfig, Ranker};
use srand::{rngs::SmallRng, Rng, SeedableRng};

mod oracle;

const CASES: u64 = 64;

/// An arbitrary (possibly messy) corpus: 2..40 articles over 1..8 authors
/// and 1..5 venues, with random bylines and (possibly time-travel) refs.
fn arb_corpus(rng: &mut SmallRng) -> Corpus {
    let n = rng.gen_range(2usize..40);
    let na = rng.gen_range(1u32..8);
    let nv = rng.gen_range(1u32..5);
    let mut b = CorpusBuilder::new();
    for v in 0..nv {
        b.venue(&format!("V{v}"));
    }
    for a in 0..na {
        b.author(&format!("A{a}"));
    }
    for i in 0..n {
        let year = rng.gen_range(1950i32..2020);
        let venue = rng.gen_range(0u32..nv);
        let num_authors = rng.gen_range(0usize..4);
        let mut dedup_authors: Vec<AuthorId> =
            (0..num_authors).map(|_| AuthorId(rng.gen_range(0u32..na))).collect();
        dedup_authors.sort();
        dedup_authors.dedup();
        let num_refs = rng.gen_range(0usize..6);
        let refs: Vec<ArticleId> = (0..num_refs)
            .map(|_| rng.gen_range(0usize..n))
            .filter(|&r| r != i)
            .map(|r| ArticleId(r as u32))
            .collect();
        b.add_article(&format!("art{i}"), year, VenueId(venue), dedup_authors, refs, None);
    }
    b.finish().expect("arbitrary corpus must build")
}

fn for_corpora(body: impl Fn(&Corpus, &mut SmallRng)) {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x2545f4914f6cdd1d) ^ 0x5eed);
        let corpus = arb_corpus(&mut rng);
        let res =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&corpus, &mut rng)));
        if let Err(e) = res {
            eprintln!("property failed for seed {seed} ({} articles)", corpus.num_articles());
            std::panic::resume_unwind(e);
        }
    }
}

#[test]
fn every_ranker_emits_valid_distributions() {
    for_corpora(|corpus, _| {
        for ranker in scholar::evaluation_rankers() {
            let scores = ranker.rank(corpus);
            assert_eq!(scores.len(), corpus.num_articles());
            let sum: f64 = scores.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "{} scores must sum to 1, got {}",
                ranker.name(),
                sum
            );
            assert!(
                scores.iter().all(|&s| s >= 0.0 && s.is_finite()),
                "{} produced an invalid score",
                ranker.name()
            );
        }
    });
}

#[test]
fn qrank_result_is_internally_consistent() {
    for_corpora(|corpus, _| {
        let res = QRank::default().run(corpus);
        assert_eq!(res.article_scores.len(), corpus.num_articles());
        assert_eq!(res.venue_scores.len(), corpus.num_venues());
        assert_eq!(res.author_scores.len(), corpus.num_authors());
        // Venue scores of venues with no articles are derived from the
        // structural walk only; all scores must still be finite.
        for v in res.venue_scores.iter().chain(&res.author_scores) {
            assert!(v.is_finite() && *v >= 0.0);
        }
    });
}

#[test]
fn snapshot_then_rank_never_panics() {
    for_corpora(|corpus, rng| {
        let frac = rng.gen_range(0.0f64..1.0);
        let (first, last) = corpus.year_range().unwrap();
        let cutoff = first + ((last - first) as f64 * frac) as i32;
        let snap = scholar::corpus::snapshot_until(corpus, cutoff);
        if snap.corpus.num_articles() > 0 {
            let scores = QRank::default().rank(&snap.corpus);
            let full = snap.scatter_scores(&scores, 0.0);
            assert_eq!(full.len(), corpus.num_articles());
        }
    });
}

#[test]
fn citation_graph_agrees_with_corpus() {
    for_corpora(|corpus, _| {
        let g = corpus.citation_graph();
        assert_eq!(g.len(), corpus.num_articles());
        assert_eq!(g.num_edges(), corpus.num_citations());
        let counts = corpus.citation_counts();
        for a in corpus.articles() {
            assert_eq!(g.in_degree(scholar::graph::NodeId(a.id.0)), counts[a.id.index()] as usize);
        }
    });
}

#[test]
fn lambda_mixture_interpolates_continuously() {
    // Moving a little mass between lambda components must not produce
    // wildly different rankings (continuity of the framework).
    for_corpora(|corpus, _| {
        let base = QRank::new(QRankConfig::default().with_lambdas(0.8, 0.1, 0.1)).rank(corpus);
        let nudged = QRank::new(QRankConfig::default().with_lambdas(0.78, 0.12, 0.1)).rank(corpus);
        let l1: f64 = base.iter().zip(&nudged).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 < 0.2, "2% lambda nudge moved the distribution by {l1}");
    });
}

#[test]
fn jsonl_roundtrip_on_arbitrary_corpora() {
    for_corpora(|corpus, _| {
        let mut buf = Vec::new();
        scholar::corpus::loader::jsonl::write_jsonl(corpus, &mut buf).unwrap();
        let loaded = scholar::corpus::loader::jsonl::read_jsonl(
            &buf[..],
            &scholar::corpus::loader::LoadOptions::default(),
        )
        .unwrap();
        assert_eq!(loaded.num_articles(), corpus.num_articles());
        assert_eq!(loaded.num_citations(), corpus.num_citations());
        for (a, b) in corpus.articles().iter().zip(loaded.articles()) {
            assert_eq!(a.year, b.year);
            assert_eq!(&a.references, &b.references);
        }
    });
}

#[test]
fn decayed_teleport_composition_preserves_row_sums() {
    // The full ranking operator — exp(-ρ·age) edge decay composed with
    // damping and a recency-weighted teleport — must stay row-stochastic
    // to near machine precision: each basis vector pushed through it
    // comes back with total mass 1 ± 1e-12. This is the stack-level
    // analogue of sgraph's operator test, exercised through RankContext
    // so the cached decayed graph is what gets probed.
    for_corpora(|corpus, rng| {
        let ctx = scholar::rank::RankContext::new(corpus);
        let rho = rng.gen_range(0.01f64..0.5);
        let tau = rng.gen_range(0.0f64..0.3);
        let damping = rng.gen_range(0.0f64..1.0);
        let now = corpus.year_range().map(|(_, last)| last).unwrap_or(2020);
        let decayed = ctx.decayed_citation(rho);
        let op = sgraph::RowStochastic::new(&decayed.graph);
        let jump = ctx.recency_jump(tau, now);
        let n = corpus.num_articles();
        let mut y = vec![0.0; n];
        for i in 0..n.min(8) {
            let mut e = vec![0.0; n];
            e[i] = 1.0;
            op.apply(&e, &mut y, damping, &jump);
            let sum: f64 = y.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-12,
                "row {i} sums to {sum} (rho {rho}, tau {tau}, damping {damping})"
            );
        }
    });
}

#[test]
fn top_k_agrees_with_full_sort_under_adversarial_ties() {
    // Scores drawn from a tiny value set force massive tie blocks; the
    // documented order (score desc, index asc) must match an
    // independently computed full sort for every prefix length.
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e3779b97f4a7c15) ^ 0x7135);
        let n = rng.gen_range(1usize..80);
        let palette = [0.0f64, 1e-300, 0.25, 0.25 + f64::EPSILON, 0.5, 1.0];
        let scores: Vec<f64> =
            (0..n).map(|_| palette[rng.gen_range(0usize..palette.len())]).collect();
        let mut expected: Vec<usize> = (0..n).collect();
        expected.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
        for k in [0, 1, n / 2, n, n + 5] {
            let got = scholar::rank::scores::top_k(&scores, k);
            assert_eq!(
                got,
                expected[..k.min(n)].to_vec(),
                "seed {seed}: top_k({k}) diverged from full sort (n={n})"
            );
        }
    }
}

// ---- Loader robustness: arbitrary junk must produce Err or a valid
// corpus, never a panic. ----

fn random_printable(rng: &mut SmallRng, max_len: usize, allow_newline: bool) -> String {
    let len = rng.gen_range(0usize..max_len.max(1));
    (0..len)
        .map(|_| {
            if allow_newline && rng.gen_range(0usize..20) == 0 {
                '\n'
            } else {
                // Printable ASCII: 0x20..=0x7e.
                char::from(rng.gen_range(0x20u32..0x7f) as u8)
            }
        })
        .collect()
}

fn arb_jsonl_text(rng: &mut SmallRng) -> String {
    let lines = rng.gen_range(0usize..12);
    (0..lines)
        .map(|_| match rng.gen_range(0usize..3) {
            // Valid-ish records with random fields.
            0 => {
                let id: u32 = rng.gen_range(0u32..u32::MAX);
                let refs: Vec<String> = (0..rng.gen_range(0usize..3))
                    .map(|_| format!("\"{}\"", rng.gen_range(0u32..u32::MAX)))
                    .collect();
                if rng.gen() {
                    let y = rng.gen_range(1900i32..2100);
                    format!(
                        "{{\"id\": \"{id}\", \"year\": {y}, \"references\": [{}]}}",
                        refs.join(",")
                    )
                } else {
                    format!("{{\"id\": \"{id}\", \"references\": [{}]}}", refs.join(","))
                }
            }
            // Plain junk lines.
            1 => random_printable(rng, 40, false),
            // Truncated JSON.
            _ => "{\"id\": \"x\"".to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn jsonl_loader_never_panics() {
    for seed in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x10ad);
        let text = arb_jsonl_text(&mut rng);
        let opts = scholar::corpus::loader::LoadOptions::default();
        match scholar::corpus::loader::jsonl::read_jsonl(text.as_bytes(), &opts) {
            Ok(corpus) => {
                scholar::corpus::validate::validate(&corpus).unwrap();
                // And ranking the result must not panic either.
                let _ = scholar::PageRank::default().rank(&corpus);
            }
            Err(e) => {
                // Errors must render (no panic in Display).
                let _ = e.to_string();
            }
        }
    }
}

#[test]
fn jsonl_scanner_agrees_with_the_oracle_on_arbitrary_text() {
    // Every text, and every line of it on its own, loads to an equal
    // corpus or fails with equal error text under every load policy.
    for seed in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ca1);
        let text = arb_jsonl_text(&mut rng);
        oracle::jsonl::assert_same_load(text.as_bytes());
        for line in text.lines() {
            oracle::jsonl::assert_same_load(line.as_bytes());
        }
    }
}

#[test]
fn aan_loader_never_panics() {
    for seed in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xaa4);
        let meta = random_printable(&mut rng, 200, true);
        let cites = random_printable(&mut rng, 200, true);
        let opts = scholar::corpus::loader::LoadOptions::default();
        match scholar::corpus::loader::aan::read_aan(meta.as_bytes(), cites.as_bytes(), &opts) {
            Ok(corpus) => {
                scholar::corpus::validate::validate(&corpus).unwrap();
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
}

// ---- The counting-scatter build kernel against the sorting builds it
// replaced (tests/oracle/scsr.rs), bit for bit. ----

/// An arbitrary weighted graph: 0..30 nodes with dangling ones (no
/// out-edge, or only zero-weight ones), zero weights and self-loops. Half
/// the time targets stay in a prefix, so trailing shards get no edges.
/// One draw in eight is wide instead: 40..60 nodes, every target
/// reachable and 24 edges drawn per node, so its stored edges carry
/// hundreds of distinct weights — more than a one-byte code can index.
fn arb_graph(rng: &mut SmallRng) -> sgraph::CsrGraph {
    let wide = rng.gen_range(0u32..8) == 0;
    let n = if wide { rng.gen_range(40u32..60) } else { rng.gen_range(0u32..30) };
    let mut b = sgraph::GraphBuilder::new(n);
    if n > 0 {
        let reach = if wide || rng.gen() { n } else { rng.gen_range(1..n + 1) };
        let silent = rng.gen_range(2u32..6);
        let edges = if wide { 24 * n } else { rng.gen_range(0..4 * n) };
        for _ in 0..edges {
            let u = rng.gen_range(0..n);
            if u % silent == 0 {
                continue;
            }
            let w = if rng.gen_range(0u32..4) == 0 { 0.0 } else { rng.gen_range(0.1f64..4.0) };
            b.add_edge(sgraph::NodeId(u), sgraph::NodeId(rng.gen_range(0..reach)), w);
        }
    }
    b.build()
}

#[test]
fn scsr_shard_files_match_the_sorting_writer() {
    let dir = std::env::temp_dir().join(format!("scholar-prop-scsr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (got, want) = (dir.join("kernel.scsr"), dir.join("oracle.scsr"));
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5c5e);
        let g = arb_graph(&mut rng);
        let n = g.len();
        for shard_size in [1, 2, 7, n.saturating_sub(1), n, n + 5] {
            if shard_size == 0 {
                continue;
            }
            sgraph::mmap_csr::build_from_graph(&g, &got, shard_size, seed).unwrap();
            oracle::scsr::build_scsr(&g, &want, shard_size, seed).unwrap();
            assert!(
                std::fs::read(&got).unwrap() == std::fs::read(&want).unwrap(),
                "seed {seed}: {n} nodes, {} edges, shard size {shard_size}",
                g.num_edges()
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Distinct positive weights of `g`, by bit pattern: what a shard file's
/// weight table holds at most.
fn distinct_weights(g: &sgraph::CsrGraph) -> usize {
    let positive = g.nodes().flat_map(|v| g.in_edge_weights(v)).filter(|&&w| w > 0.0);
    positive.map(|w| w.to_bits()).collect::<std::collections::HashSet<_>>().len()
}

/// The mmap sweep against the dense walk it mirrors: at every shard size
/// and worker count, the same stationary bits in the same iterations. Some
/// graph carries more than 256 distinct weights, so a code narrower than
/// a `u16` fails here.
#[test]
fn mmap_stationary_is_the_dense_one_at_every_shard_size_and_thread_count() {
    use sgraph::stochastic::PowerIterationOpts;
    let dir = std::env::temp_dir().join(format!("scholar-prop-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.scsr");
    let mut widest = 0;
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eeb);
        let g = arb_graph(&mut rng);
        let n = g.len();
        widest = widest.max(distinct_weights(&g));
        let opts = PowerIterationOpts {
            damping: rng.gen_range(0.5f64..0.95),
            threads: 1,
            ..PowerIterationOpts::default()
        };
        let dense = sgraph::RowStochastic::new(&g).stationary(&opts);
        for shard_size in [1, 2, 7, n.saturating_sub(1), n, n + 5] {
            if shard_size == 0 {
                continue;
            }
            let mc = sgraph::mmap_csr::build_from_graph(&g, &path, shard_size, seed).unwrap();
            for threads in [1, 2, 8] {
                let swept =
                    sgraph::stationary_store(&mc, &PowerIterationOpts { threads, ..opts.clone() });
                let case =
                    format!("seed {seed}: {n} nodes, shard size {shard_size}, {threads} threads");
                assert!(swept.scores == dense.scores, "{case}: scores differ");
                assert_eq!(swept.iterations, dense.iterations, "{case}");
            }
        }
    }
    assert!(widest > 256, "the widest graph carries only {widest} distinct weights");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The reverse sweep on arbitrary graphs, which are full of back edges
/// (cycles, self-loops, edges from smaller ids): run to the floor it lands
/// ≤ 1e-12 L1 from the power iteration's floor, and the shard file sweeps
/// to the dense graph's bits and passes at every shard size and worker
/// count.
#[test]
fn reverse_sweep_is_the_power_iteration_floor_on_graphs_with_back_edges() {
    use sgraph::stochastic::{l1_distance, PowerIterationOpts};
    let dir = std::env::temp_dir().join(format!("scholar-prop-reverse-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.scsr");
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7e5e);
        let g = arb_graph(&mut rng);
        let n = g.len();
        let opts = PowerIterationOpts {
            damping: rng.gen_range(0.5f64..0.95),
            tol: 1e-15,
            max_iter: 1000,
            threads: 1,
            ..PowerIterationOpts::default()
        };
        let op = sgraph::RowStochastic::new(&g);
        let (floor, dense) = (op.stationary(&opts), sgraph::reverse_sweep(&op, &opts));
        let l1 = l1_distance(&floor.scores, &dense.scores);
        assert!(l1 <= 1e-12, "seed {seed}: {n} nodes, L1 {l1:e} from the floor");
        for shard_size in [1, 2, 7, n.saturating_sub(1), n, n + 5] {
            if shard_size == 0 {
                continue;
            }
            let mc = sgraph::mmap_csr::build_from_graph(&g, &path, shard_size, seed).unwrap();
            for threads in [1, 2, 8] {
                let swept =
                    sgraph::reverse_sweep(&mc, &PowerIterationOpts { threads, ..opts.clone() });
                let case =
                    format!("seed {seed}: {n} nodes, shard size {shard_size}, {threads} threads");
                assert!(swept.scores == dense.scores, "{case}: scores differ");
                assert_eq!(swept.residuals, dense.residuals, "{case}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn graph_builds_match_the_sorting_builder_under_every_policy() {
    use sgraph::{GraphBuilder, NodeId};
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xb11d);
        let n = rng.gen_range(0u32..20);
        // Pairs drawn from a small pool, so most recur, staged out of order.
        let mut staged = Vec::new();
        if n > 0 {
            let pool: Vec<(u32, u32)> = (0..rng.gen_range(1usize..12))
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            for _ in 0..rng.gen_range(0usize..40) {
                let (s, d) = pool[rng.gen_range(0..pool.len())];
                let w = if rng.gen_range(0u32..5) == 0 { 0.0 } else { rng.gen_range(0.0f64..3.0) };
                staged.push((s, d, w));
            }
        }
        // Now and then an edge every build must refuse.
        match rng.gen_range(0u32..8) {
            0 => staged.push((n, 0, 1.0)),
            1 if n > 0 => staged.push((0, n - 1, -1.0)),
            _ => {}
        }
        let split = rng.gen_range(0..staged.len() + 1);
        for self_loops in [true, false] {
            let label = format!("seed {seed}, self-loops {self_loops}");
            let builder = |edges: &[(u32, u32, f64)]| {
                let mut b = GraphBuilder::new(n).self_loops(self_loops);
                for &(s, d, w) in edges {
                    b.add_edge(NodeId(s), NodeId(d), w);
                }
                b
            };
            let want = oracle::scsr::SortingGraphBuilder {
                num_nodes: n,
                edges: staged.clone(),
                allow_self_loops: self_loops,
            }
            .try_build();
            match (builder(&staged).try_build(), &want) {
                (Ok(got), Ok(want)) => oracle::scsr::assert_same_graph(&got, want),
                (got, want) => assert_eq!(
                    format!("{:?}", got.err()),
                    format!("{:?}", want.as_ref().err()),
                    "{label}"
                ),
            }
            // Growing a build in place lands on the same graph; a refused
            // grow leaves the base as it was.
            if let Ok(mut grown) = builder(&staged[..split]).try_build() {
                let before = grown.clone();
                match (builder(&staged[split..]).try_build_onto(&mut grown), &want) {
                    (Ok(()), Ok(want)) => oracle::scsr::assert_same_graph(&grown, want),
                    (got, want) => {
                        assert_eq!(got.is_err(), want.is_err(), "{label}: build_onto at {split}");
                        assert_eq!(grown, before, "{label}: a refused grow moved the base");
                    }
                }
            }
        }
    }
}
