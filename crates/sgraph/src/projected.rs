//! The walk over a graph projected through a bipartite, never materialised.
//!
//! Given a weighted graph `W` over the *right* nodes of a [`Bipartite`]
//! `B` (rows = left nodes), the projection `A = B·W·Bᵀ` is the graph over
//! the left nodes in which `u → v` weighs `Σ_{i→r} B[u,i]·w(i,r)·B[v,r]` —
//! the author citation graph, when `W` is the citation graph and `B` the
//! authorship. `A` has up to `|byline|²` edges per edge of `W`, and a
//! random walk needs none of them: [`ProjectedWalk`] applies
//! `x ↦ (row-normalised A)ᵀ·x` as three sparse passes over the borrowed
//! factors and keeps three vectors over the left nodes of its own.
//!
//! With `drop_diagonal` the walk is over `A − diag(A)` (self-citations
//! dropped): the diagonal is computed once and its share subtracted after
//! the third pass.
//!
//! ## Contract
//!
//! A [`CsrStore`] like any other — same fixpoint, same pre-scale
//! `z = x / row_sum`, same pull over `W`'s in-CSR, same dangling rule (a
//! left node whose off-diagonal row sum is zero or subnormal re-emits
//! through the jump vector) — but **not** bit-identical to the
//! [`RowStochastic`](crate::RowStochastic) of the materialised product:
//! the sum over a row of `A` is re-associated into sums over the factors.
//! What it promises instead: every pass writes each output slot by one
//! fixed-order loop, so iterates are bit-identical at any thread count;
//! and against the materialised form the stationary agrees to ≤ 1e-12 L1
//! with the same iteration count (the conformance row in this module's
//! tests, and `tests/conformance.rs` on whole corpora).

use crate::bipartite::Bipartite;
use crate::csr::{CsrGraph, NodeId};
use crate::stochastic::{dangles, per_weight, pull, JumpVector, PAR_THRESHOLD};
use crate::store::CsrStore;

/// The row-stochastic walk over `B·W·Bᵀ` (optionally minus its diagonal),
/// applied factorised over borrowed `W` and `B`. See the module docs.
#[derive(Debug)]
pub struct ProjectedWalk<'a> {
    graph: &'a CsrGraph,
    sides: &'a Bipartite,
    /// Off-diagonal out-weight of each left node in the projection.
    row_sums: Vec<f64>,
    /// `A[u,u]` when the diagonal is dropped, all zero when it is kept.
    diagonal: Vec<f64>,
    /// Left nodes whose off-diagonal out-weight dangles, ascending.
    dangling: Vec<u32>,
}

impl<'a> ProjectedWalk<'a> {
    /// Prepare the walk: one pass over `graph`'s out-edges that, per edge
    /// `i → r`, merge-intersects the two (ascending) left-neighbour lists
    /// and accumulates each left node's row sum and diagonal share.
    ///
    /// The row sum is accumulated off-diagonal — `B[u,i]·w·(Σ_v B[v,r] −
    /// B[u,r])` — not as `total − diagonal`: a left node whose every edge
    /// lands on itself alone then sums exact zeros and is dangling, as it
    /// is in the materialised graph, instead of dividing by a rounding
    /// residue.
    ///
    /// # Panics
    /// Panics if `sides`' right nodes are not `graph`'s nodes.
    pub fn new(graph: &'a CsrGraph, sides: &'a Bipartite, drop_diagonal: bool) -> Self {
        assert_eq!(sides.num_right(), graph.num_nodes(), "the bipartite's right side is the graph");
        let nl = sides.num_left() as usize;
        let mut row_sums = vec![0.0f64; nl];
        let mut diagonal = vec![0.0f64; nl];
        for i in 0..graph.num_nodes() {
            let (us, bs) = (sides.left_of(i), sides.left_weights_of(i));
            if us.is_empty() {
                continue;
            }
            let node = NodeId(i);
            for (r, &w) in graph.out_neighbors(node).iter().zip(graph.out_edge_weights(node)) {
                let (vs, cs) = (sides.left_of(r.0), sides.left_weights_of(r.0));
                let total: f64 = cs.iter().sum();
                let mut k = 0;
                for (&u, &b) in us.iter().zip(bs) {
                    let mut own = 0.0;
                    if drop_diagonal {
                        while k < vs.len() && vs[k] < u {
                            k += 1;
                        }
                        if k < vs.len() && vs[k] == u {
                            own = cs[k];
                        }
                    }
                    row_sums[u as usize] += b * w * (total - own);
                    diagonal[u as usize] += b * w * own;
                }
            }
        }
        let dangling = (0..nl as u32).filter(|&u| dangles(row_sums[u as usize])).collect();
        ProjectedWalk { graph, sides, row_sums, diagonal, dangling }
    }

    /// Off-diagonal out-weight of each left node in the projection.
    pub fn row_sums(&self) -> &[f64] {
        &self.row_sums
    }

    /// `A[u,u]` per left node when the diagonal is dropped (the mass a step
    /// subtracts), all zero when it is kept.
    pub fn diagonal(&self) -> &[f64] {
        &self.diagonal
    }

    /// The dangling left nodes (row sum zero or subnormal), ascending.
    pub fn dangling(&self) -> &[u32] {
        &self.dangling
    }
}

impl CsrStore for ProjectedWalk<'_> {
    fn num_nodes(&self) -> usize {
        self.row_sums.len()
    }

    /// `z = x / row_sum` → `m = Bᵀ·z` → `t = Wᵀ·m` (one pull over the
    /// graph's in-CSR) → `y = d·(B·t − z·diagonal) + jump share`; each pass
    /// partitioned by output index.
    fn apply_step(
        &self,
        x: &[f64],
        y: &mut [f64],
        damping: f64,
        jump: &JumpVector,
        threads: usize,
    ) {
        let (nl, nr) = (self.row_sums.len(), self.graph.len());
        assert_eq!(x.len(), nl, "input vector length mismatch");
        assert_eq!(y.len(), nl, "output vector length mismatch");
        let (g, b) = (self.graph, self.sides);
        let threads = if nr + g.num_edges() < PAR_THRESHOLD { 1 } else { threads.max(1) };
        let dangling_mass: f64 = self.dangling.iter().map(|&u| x[u as usize]).sum();
        let share = jump.shares(damping * dangling_mass + (1.0 - damping), nl);

        let z: Vec<f64> = x.iter().zip(&self.row_sums).map(|(&x, &s)| per_weight(x, s)).collect();
        let mut m = vec![0.0; nr];
        b.sum_to_right_into_par(&z, &mut m, &b.right_ranges(threads));
        let mut t = vec![0.0; nr];
        pull(g, &m, &mut t, threads, |_, acc| acc);
        b.sum_to_left_into_par(&t, y, &b.left_ranges(threads));

        for (u, slot) in y.iter_mut().enumerate() {
            // A node fed by itself alone gathers exactly what it subtracts;
            // rounding may leave that difference a hair below zero.
            let pulled = (*slot - z[u] * self.diagonal[u]).max(0.0);
            *slot = damping * pulled + share(u);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stochastic::{l1_distance, PowerIterationOpts};
    use crate::{stationary_store, BipartiteBuilder, GraphBuilder, RowStochastic};

    /// `B·W·Bᵀ` edge by edge, the way the product is defined.
    fn materialised(g: &CsrGraph, b: &Bipartite, drop_diagonal: bool) -> CsrGraph {
        let mut out = GraphBuilder::new(b.num_left()).self_loops(!drop_diagonal);
        for e in g.edges() {
            for (&u, &bu) in b.left_of(e.src.0).iter().zip(b.left_weights_of(e.src.0)) {
                for (&v, &bv) in b.left_of(e.dst.0).iter().zip(b.left_weights_of(e.dst.0)) {
                    if !(drop_diagonal && u == v) {
                        out.add_edge(NodeId(u), NodeId(v), bu * e.weight * bv);
                    }
                }
            }
        }
        out.build()
    }

    /// A seeded graph over `nr` right nodes and a bipartite from `nl` left
    /// nodes onto them (one to three per right node, some right nodes bare).
    fn random_factors(nl: u32, nr: u32, edges: usize, seed: u64) -> (CsrGraph, Bipartite) {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let mut g = GraphBuilder::new(nr).self_loops(false);
        for _ in 0..edges {
            let (s, d) = (next() % nr, next() % nr);
            g.add_edge(NodeId(s), NodeId(d), 0.1 + (next() % 10) as f64 / 7.0);
        }
        let mut b = BipartiteBuilder::new(nl, nr);
        for r in 0..nr {
            let k = next() % 4;
            for pos in 0..k {
                b.add_edge(next() % nl, r, 1.0 / (pos + 1) as f64 / k as f64);
            }
        }
        (g.build(), b.build())
    }

    /// The conformance row of a kernel that changes summation order:
    /// ≤ 1e-12 L1 against the materialised product, equal iteration counts,
    /// the same dangling set.
    #[test]
    fn matches_the_walk_over_the_materialised_product() {
        for (seed, drop_diagonal) in [(1, true), (1, false), (2, true), (3, false)] {
            let (g, b) = random_factors(40, 120, 600, seed);
            let walk = ProjectedWalk::new(&g, &b, drop_diagonal);
            let product = materialised(&g, &b, drop_diagonal);
            let oracle = RowStochastic::new(&product);
            assert_eq!(walk.dangling(), oracle.dangling(), "seed {seed}");
            let opts = PowerIterationOpts { threads: 1, ..Default::default() };
            let (got, want) = (stationary_store(&walk, &opts), oracle.stationary(&opts));
            assert_eq!(got.iterations, want.iterations, "seed {seed}");
            let l1 = l1_distance(&got.scores, &want.scores);
            assert!(l1 <= 1e-12, "seed {seed}, drop {drop_diagonal}: L1 {l1:e}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "three 12k-edge solves; the partitioning is plain safe code")]
    fn thread_count_does_not_change_a_bit() {
        // Past the parallel gate, so the partitions really differ.
        let (g, b) = random_factors(900, 3000, 12_000, 9);
        let walk = ProjectedWalk::new(&g, &b, true);
        let solve = |threads| {
            let res =
                stationary_store(&walk, &PowerIterationOpts { threads, ..Default::default() });
            (res.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(), res.residuals)
        };
        let sequential = solve(1);
        for threads in [2, 8] {
            assert!(solve(threads) == sequential, "iterates changed at {threads} threads");
        }
    }

    #[test]
    fn a_node_that_only_cites_itself_is_exactly_dangling() {
        // Right nodes 0 and 1 belong to left node 0 alone; 1 → 0 is a pure
        // self-citation. Left node 1 owns right node 2, which cites 0.
        let mut g = GraphBuilder::new(3);
        g.add_edge(NodeId(1), NodeId(0), 0.3);
        g.add_edge(NodeId(2), NodeId(0), 0.7);
        let g = g.build();
        let mut b = BipartiteBuilder::new(2, 3);
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let b = b.build();

        let dropped = ProjectedWalk::new(&g, &b, true);
        assert_eq!(dropped.row_sums()[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(dropped.diagonal(), &[0.3, 0.0]);
        assert_eq!(dropped.dangling(), &[0]);
        let kept = ProjectedWalk::new(&g, &b, false);
        assert_eq!(kept.row_sums(), &[0.3, 0.7]);
        assert_eq!(kept.diagonal(), &[0.0, 0.0]);
        assert!(kept.dangling().is_empty());

        let scores = stationary_store(&dropped, &PowerIterationOpts::default()).scores;
        assert!(scores.iter().all(|s| s.is_finite() && *s > 0.0), "{scores:?}");
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_edgeless_factors() {
        let (g, b) = (CsrGraph::empty(0), BipartiteBuilder::new(0, 0).build());
        let res = stationary_store(&ProjectedWalk::new(&g, &b, true), &Default::default());
        assert!(res.converged && res.scores.is_empty());

        // No edges in `W`: everyone dangles, the walk is the jump vector.
        let (g, b) = (CsrGraph::empty(2), {
            let mut b = BipartiteBuilder::new(3, 2);
            b.add_edge(0, 0, 1.0);
            b.add_edge(2, 1, 1.0);
            b.build()
        });
        let walk = ProjectedWalk::new(&g, &b, true);
        assert_eq!(walk.dangling(), &[0, 1, 2]);
        let res = stationary_store(&walk, &Default::default());
        assert_eq!(res.scores, vec![1.0 / 3.0; 3]);
    }
}
