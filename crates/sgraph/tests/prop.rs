//! Property-based tests for the sgraph substrate.
//!
//! Each property is checked against a battery of deterministic random
//! graphs drawn from a seeded generator (no external fuzzing framework:
//! the cases are reproducible by seed, and a failing seed is printed in
//! the panic message via the `for_cases` helper).

use sgraph::stochastic::{l1_distance, normalize_l1, PowerIterationOpts};
use sgraph::{
    Bipartite, BipartiteBuilder, CsrGraph, GraphBuilder, JumpVector, NodeId, RowStochastic,
};
use srand::{rngs::SmallRng, Rng, SeedableRng};

const CASES: u64 = 48;

/// A random directed graph as (num_nodes, edge list), matching the old
/// proptest strategy: 2..60 nodes, 0..200 weighted edges in (0.01, 10).
fn random_case(seed: u64) -> (u32, Vec<(u32, u32, f64)>) {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e3779b97f4a7c15) ^ 0xc0ffee);
    let n = rng.gen_range(2u32..60);
    let m = rng.gen_range(0usize..200);
    let edges = (0..m)
        .map(|_| (rng.gen_range(0u32..n), rng.gen_range(0u32..n), rng.gen_range(0.01f64..10.0)))
        .collect();
    (n, edges)
}

/// Run `body` over the full case battery, labelling failures by seed.
fn for_cases(body: impl Fn(u32, &[(u32, u32, f64)], &mut SmallRng)) {
    for seed in 0..CASES {
        let (n, edges) = random_case(seed);
        let mut aux = SmallRng::seed_from_u64(seed ^ 0xabcd_1234);
        let res =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(n, &edges, &mut aux)));
        if let Err(e) = res {
            eprintln!("property failed for seed {seed} (n={n}, m={})", edges.len());
            std::panic::resume_unwind(e);
        }
    }
}

/// The in-CSR's invariants: every row's sources strictly ascending and in
/// range, every weight finite and non-negative, the rows holding every edge.
fn assert_canonical(g: &CsrGraph) {
    let mut edges = 0;
    for v in g.nodes() {
        let sources = g.in_neighbors(v);
        assert!(sources.windows(2).all(|p| p[0] < p[1]), "in-row of {v} not strictly ascending");
        assert!(sources.iter().all(|u| u.0 < g.num_nodes()), "in-row of {v} out of range");
        assert!(g.in_edge_weights(v).iter().all(|w| w.is_finite() && *w >= 0.0), "weights of {v}");
        edges += g.in_degree(v);
    }
    assert_eq!(edges, g.num_edges());
}

#[test]
fn build_never_panics_and_validates() {
    for_cases(|n, edges, _| {
        let g = GraphBuilder::from_weighted_edges(n, edges);
        assert_canonical(&g);
        let pairs: std::collections::HashSet<(u32, u32)> =
            edges.iter().map(|&(s, d, _)| (s, d)).collect();
        assert_eq!(g.num_edges(), pairs.len());
    });
}

#[test]
fn in_rows_match_has_edge() {
    for_cases(|n, edges, _| {
        let g = GraphBuilder::from_weighted_edges(n, edges);
        for v in g.nodes() {
            for (&u, &w) in g.in_neighbors(v).iter().zip(g.in_edge_weights(v)) {
                assert!(g.has_edge(u, v));
                assert_eq!(g.edge_weight(u, v), Some(w));
            }
        }
        for &(s, d, _) in edges {
            assert!(g.has_edge(NodeId(s), NodeId(d)), "staged {s} -> {d} missing");
        }
    });
}

#[test]
fn duplicate_weights_sum() {
    for_cases(|n, edges, _| {
        let g = GraphBuilder::from_weighted_edges(n, edges);
        let expected: f64 = edges.iter().map(|e| e.2).sum();
        let total: f64 = g.out_weight_sums().iter().sum();
        assert!((total - expected).abs() < 1e-9 * (1.0 + expected.abs()));
    });
}

#[test]
fn stochastic_step_conserves_mass() {
    for_cases(|n, edges, rng| {
        let damping = rng.gen_range(0.0f64..1.0);
        let g = GraphBuilder::from_weighted_edges(n, edges);
        let op = RowStochastic::new(&g);
        let mut x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        normalize_l1(&mut x);
        let mut y = vec![0.0; n as usize];
        op.apply(&x, &mut y, damping, &JumpVector::Uniform);
        let sum: f64 = y.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "mass {sum} not conserved");
        assert!(y.iter().all(|&v| v >= 0.0));
    });
}

#[test]
fn composed_operator_rows_sum_to_one() {
    // The decay/teleport composition `y = d·xP + (1-d)·j + leaked·j` is a
    // row-stochastic operator: pushing each basis vector through it must
    // return exactly unit mass (1 ± 1e-12), for uniform and for arbitrary
    // weighted teleport vectors alike. Basis vectors probe individual
    // rows, so this is strictly stronger than mass conservation on one
    // blended distribution.
    for_cases(|n, edges, rng| {
        let damping = rng.gen_range(0.0f64..1.0);
        let g = GraphBuilder::from_weighted_edges(n, edges);
        let op = RowStochastic::new(&g);
        let jumps = [
            JumpVector::Uniform,
            JumpVector::weighted((0..n).map(|i| 0.01 + (i % 5) as f64).collect()),
        ];
        let mut y = vec![0.0; n as usize];
        for jump in &jumps {
            for i in 0..(n as usize).min(8) {
                let mut e = vec![0.0; n as usize];
                e[i] = 1.0;
                op.apply(&e, &mut y, damping, jump);
                let sum: f64 = y.iter().sum();
                assert!(
                    (sum - 1.0).abs() < 1e-12,
                    "row {i} of composed operator sums to {sum} (damping {damping})"
                );
                assert!(y.iter().all(|&v| v >= 0.0 && v.is_finite()));
            }
        }
    });
}

#[test]
fn stationary_is_fixed_point() {
    for_cases(|n, edges, _| {
        let g = GraphBuilder::from_weighted_edges(n, edges);
        let op = RowStochastic::new(&g);
        let res =
            op.stationary(&PowerIterationOpts { tol: 1e-12, max_iter: 500, ..Default::default() });
        if res.converged {
            let mut y = vec![0.0; n as usize];
            op.apply(&res.scores, &mut y, 0.85, &JumpVector::Uniform);
            assert!(l1_distance(&res.scores, &y) < 1e-9);
        }
    });
}

#[test]
fn parallel_apply_matches_sequential() {
    for_cases(|n, edges, rng| {
        let threads = rng.gen_range(2usize..6);
        let g = GraphBuilder::from_weighted_edges(n, edges);
        let op = RowStochastic::new(&g);
        let mut x: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
        normalize_l1(&mut x);
        let mut y1 = vec![0.0; n as usize];
        let mut y2 = vec![0.0; n as usize];
        op.apply(&x, &mut y1, 0.85, &JumpVector::Uniform);
        op.apply_parallel(&x, &mut y2, 0.85, &JumpVector::Uniform, threads);
        assert!(l1_distance(&y1, &y2) < 1e-12);
    });
}

/// Arbitrary graphs are full of back edges (cycles, self-loops, edges from
/// smaller ids), so the sweep runs its Gauss–Seidel passes: it must land
/// where the power iteration does.
#[test]
fn reverse_sweep_agrees_with_power_iteration() {
    for_cases(|n, edges, _| {
        let g = GraphBuilder::from_weighted_edges(n, edges);
        let op = RowStochastic::new(&g);
        let opts = PowerIterationOpts { tol: 1e-14, max_iter: 3000, ..Default::default() };
        let (power, swept) = (op.stationary(&opts), sgraph::reverse_sweep(&op, &opts));
        assert!(swept.residuals.len() >= 2 && swept.iterations == swept.residuals.len());
        let l1 = l1_distance(&power.scores, &swept.scores);
        assert!(l1 < 1e-11, "solvers disagree by {l1}");
    });
}

type Staged = Vec<(u32, u32, f64)>;

/// A base staging list and a delta staged after it, as
/// `(base_nodes, base, grown_nodes, delta)`. Few nodes, so pairs repeat
/// inside the base, inside the delta and across both on their own; on top
/// of that some delta edges are re-staged verbatim, self-loops are forced
/// in, the delta may bring new nodes or be empty, and the weights mix the
/// ordinary with zeros, denormals and 1e300. One delta in six stages an
/// edge every build must refuse: an out-of-range node, or a negative or
/// NaN weight.
fn random_base_and_delta(seed: u64) -> (u32, Staged, u32, Staged) {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e3779b97f4a7c15) ^ 0xde17a);
    let weight = |rng: &mut SmallRng| match rng.gen_range(0u32..10) {
        0 => 0.0,
        1 => f64::from_bits(rng.gen_range(1u64..1 << 20)), // denormal
        2 => 1e300,
        _ => rng.gen_range(0.01f64..10.0),
    };
    let stage = |rng: &mut SmallRng, n: u32, m: usize| -> Staged {
        let mut edges = Staged::new();
        for _ in 0..m {
            let edge = match rng.gen_range(0u32..8) {
                0 if !edges.is_empty() => edges[rng.gen_range(0..edges.len())],
                1 => {
                    let v = rng.gen_range(0..n);
                    (v, v, weight(rng))
                }
                _ => (rng.gen_range(0..n), rng.gen_range(0..n), weight(rng)),
            };
            edges.push(edge);
        }
        edges
    };
    let base_nodes = rng.gen_range(2u32..24);
    let base_len = rng.gen_range(0usize..160);
    let base = stage(&mut rng, base_nodes, base_len);
    let grown_nodes = base_nodes + [0, 0, 1, 5][rng.gen_range(0usize..4)];
    let delta_len = if rng.gen_range(0u32..6) == 0 { 0 } else { rng.gen_range(1usize..60) };
    let mut delta = stage(&mut rng, grown_nodes, delta_len);
    // Contributions to pairs the base already holds.
    for _ in 0..delta_len.min(base.len()) / 4 {
        let (s, d, _) = base[rng.gen_range(0..base.len())];
        let at = rng.gen_range(0..delta.len() + 1);
        delta.insert(at, (s, d, weight(&mut rng)));
    }
    if rng.gen_range(0u32..6) == 0 {
        let (s, d) = (rng.gen_range(0..grown_nodes), rng.gen_range(0..grown_nodes));
        let invalid = match rng.gen_range(0u32..3) {
            0 => (s, grown_nodes, 1.0),
            1 => (s, d, -1.0),
            _ => (s, d, f64::NAN),
        };
        let at = rng.gen_range(0..delta.len() + 1);
        delta.insert(at, invalid);
    }
    (base_nodes, base, grown_nodes, delta)
}

fn assert_bit_identical(whole: &CsrGraph, patched: &CsrGraph, what: &str) {
    assert_eq!(whole, patched, "{what}");
    let bits = |ws: &[f64]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    for v in whole.nodes() {
        assert_eq!(
            bits(whole.in_edge_weights(v)),
            bits(patched.in_edge_weights(v)),
            "{what}: in-weights of {v}"
        );
    }
    assert_canonical(patched);
}

#[test]
fn build_onto_equals_building_the_concatenation() {
    // build(base ++ delta) == build(base).then(build_onto(delta)), in
    // every offset, id and weight bit, under both self-loop settings; a
    // refused delta leaves the base untouched.
    let mut refused = 0;
    for seed in 0..4 * CASES {
        let (base_nodes, base, grown_nodes, delta) = random_base_and_delta(seed);
        for self_loops in [true, false] {
            let what = format!("seed {seed}, self_loops {self_loops}");
            let staged = |nodes: u32, edges: &[(u32, u32, f64)]| {
                let mut b = GraphBuilder::new(nodes).self_loops(self_loops);
                for &(s, d, w) in edges {
                    b.add_edge(NodeId(s), NodeId(d), w);
                }
                b
            };
            let mut patched = staged(base_nodes, &base).build();
            let before = patched.clone();
            let outcome = staged(grown_nodes, &delta).try_build_onto(&mut patched);
            match staged(grown_nodes, &[base.clone(), delta.clone()].concat()).try_build() {
                Ok(whole) => {
                    outcome.unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_bit_identical(&whole, &patched, &what);
                }
                Err(_) => {
                    assert!(outcome.is_err(), "{what}: the concatenation is refused");
                    assert_bit_identical(&before, &patched, &what);
                    refused += 1;
                }
            }
        }
    }
    assert!(refused > 0, "no seed staged an edge the build refuses");
}

#[test]
fn build_onto_sums_in_staging_order_not_by_subtotal() {
    // (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3) in f64: a delta that hits one
    // pair twice must add its contributions one at a time.
    let (a, b, c) = (0.1f64, 0.2f64, 0.3f64);
    assert_ne!(((a + b) + c).to_bits(), (a + (b + c)).to_bits());
    let mut g = GraphBuilder::from_weighted_edges(2, &[(0, 1, a)]);
    let mut delta = GraphBuilder::new(2);
    delta.add_edge(NodeId(0), NodeId(1), b);
    delta.add_edge(NodeId(0), NodeId(1), c);
    delta.build_onto(&mut g);
    let whole = GraphBuilder::from_weighted_edges(2, &[(0, 1, a), (0, 1, b), (0, 1, c)]);
    assert_bit_identical(&whole, &g, "one pair hit twice");
    assert_eq!(g.edge_weight(NodeId(0), NodeId(1)).unwrap().to_bits(), ((a + b) + c).to_bits());
}

/// An append-shaped bipartite base and delta:
/// `(left, right, base, grown_left, grown_right, delta)`. The delta's right
/// nodes are all new — a batch's own articles — and its left nodes old or
/// new; pairs repeat inside the base and inside the delta (re-staged
/// verbatim), and the weights mix the ordinary with zeros, denormals and
/// 1e300. One delta in six is empty.
fn random_bipartite_base_and_delta(seed: u64) -> (u32, u32, Staged, u32, u32, Staged) {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e3779b97f4a7c15) ^ 0xb1a7);
    let weight = |rng: &mut SmallRng| match rng.gen_range(0u32..10) {
        0 => 0.0,
        1 => f64::from_bits(rng.gen_range(1u64..1 << 20)), // denormal
        2 => 1e300,
        _ => rng.gen_range(0.01f64..10.0),
    };
    let stage = |rng: &mut SmallRng, left: u32, right: std::ops::Range<u32>, m: usize| {
        let mut edges = Staged::new();
        for _ in 0..m {
            let edge = match rng.gen_range(0u32..6) {
                0 if !edges.is_empty() => edges[rng.gen_range(0..edges.len())],
                _ => (rng.gen_range(0..left), rng.gen_range(right.clone()), weight(rng)),
            };
            edges.push(edge);
        }
        edges
    };
    let (left, right) = (rng.gen_range(1u32..16), rng.gen_range(1u32..30));
    let base_len = rng.gen_range(0usize..120);
    let base = stage(&mut rng, left, 0..right, base_len);
    let grown_left = left + [0, 0, 1, 4][rng.gen_range(0usize..4)];
    let grown_right = right + rng.gen_range(1u32..10);
    let delta_len = if rng.gen_range(0u32..6) == 0 { 0 } else { rng.gen_range(1usize..40) };
    let delta = stage(&mut rng, grown_left, right..grown_right, delta_len);
    (left, right, base, grown_left, grown_right, delta)
}

fn staged_bipartite(left: u32, right: u32, edges: &[(u32, u32, f64)]) -> BipartiteBuilder {
    let mut b = BipartiteBuilder::new(left, right);
    for &(l, r, w) in edges {
        b.add_edge(l, r, w);
    }
    b
}

/// Equal structure, and every weight of both orientations equal by bits.
fn assert_bipartites_bit_identical(whole: &Bipartite, patched: &Bipartite, what: &str) {
    assert_eq!(whole, patched, "{what}");
    let bits = |ws: &[f64]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    for l in 0..whole.num_left() {
        assert_eq!(
            bits(whole.right_weights_of(l)),
            bits(patched.right_weights_of(l)),
            "{what}: weights of left node {l}"
        );
    }
    for r in 0..whole.num_right() {
        assert_eq!(
            bits(whole.left_weights_of(r)),
            bits(patched.left_weights_of(r)),
            "{what}: weights of right node {r}"
        );
    }
}

#[test]
fn bipartite_build_onto_equals_building_the_concatenation() {
    // build(base ++ delta) == build(base).then(build_onto(delta)) for every
    // delta whose right nodes are all new, in every offset, id and weight
    // bit of both orientations.
    let (mut duplicated, mut new_left, mut empty) = (0, 0, 0);
    for seed in 0..4 * CASES {
        let (left, right, base, grown_left, grown_right, delta) =
            random_bipartite_base_and_delta(seed);
        let what = format!("seed {seed}");
        let mut patched = staged_bipartite(left, right, &base).build();
        staged_bipartite(grown_left, grown_right, &delta).build_onto(&mut patched);
        let whole = staged_bipartite(grown_left, grown_right, &[base, delta.clone()].concat());
        assert_bipartites_bit_identical(&whole.build(), &patched, &what);
        let pairs: std::collections::HashSet<(u32, u32)> =
            delta.iter().map(|&(l, r, _)| (l, r)).collect();
        duplicated += usize::from(pairs.len() < delta.len());
        new_left += usize::from(delta.iter().any(|&(l, _, _)| l >= left));
        empty += usize::from(delta.is_empty());
    }
    assert!(duplicated > 0 && new_left > 0 && empty > 0, "{duplicated} {new_left} {empty}");
}

#[test]
fn bipartite_build_onto_sums_in_staging_order() {
    // One new pair hit three times: (a + b) + c, not a + (b + c).
    let (a, b, c) = (0.1f64, 0.2f64, 0.3f64);
    assert_ne!(((a + b) + c).to_bits(), (a + (b + c)).to_bits());
    let mut patched = staged_bipartite(1, 1, &[(0, 0, 1.0)]).build();
    staged_bipartite(2, 2, &[(1, 1, a), (0, 1, 1.0), (1, 1, b), (1, 1, c)])
        .build_onto(&mut patched);
    let whole =
        staged_bipartite(2, 2, &[(0, 0, 1.0), (1, 1, a), (0, 1, 1.0), (1, 1, b), (1, 1, c)]);
    assert_bipartites_bit_identical(&whole.build(), &patched, "one pair hit three times");
    assert_eq!(patched.right_weights_of(1)[0].to_bits(), ((a + b) + c).to_bits());
}

#[test]
#[should_panic(expected = "reaches right node 2")]
fn bipartite_build_onto_refuses_a_delta_that_reaches_an_old_right_node() {
    let mut base = staged_bipartite(2, 3, &[(0, 0, 1.0), (1, 2, 1.0)]).build();
    staged_bipartite(2, 4, &[(0, 3, 1.0), (1, 2, 0.5)]).build_onto(&mut base);
}
