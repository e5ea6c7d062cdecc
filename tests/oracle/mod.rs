//! Test-side oracles for structures and kernels the stack no longer
//! has, or computes another way. [`author_prior`] counts the author prior
//! from reference lists and bylines, where the plan gathers the decayed
//! citation graph's in-weights through the authorship bipartite.
//! [`RowStochastic`] is the walk operator as it was
//! before it borrowed its graph: a private copy of the in-CSR with every
//! weight divided by its source's out-weight sum; the borrowing operator,
//! which pre-scales the iterate instead, is held to it. [`jsonl`] keeps
//! the tree-building JSONL reader and writer the same way, [`scsr`]
//! the sort-based shard writer (writing SCSRv4) and
//! `GraphBuilder::try_build`, and [`snapv1`] the single-file SNAPv1
//! snapshot codec that carried the corpus before the state directory
//! kept it as an SCOLv2 store.
#![allow(dead_code)] // each suite that includes this uses its own subset

pub mod jsonl;
pub mod scsr;
pub mod snapv1;

use scholar::corpus::model::author_position_weights;
use scholar::{QRankConfig, Rows, TimeWeightedPageRank};
use sgraph::par;
use sgraph::stochastic::{normalize_l1, PowerIterationOpts, PowerIterationResult};
use sgraph::{stationary_store, CsrGraph, CsrStore, JumpVector};

/// The structural author prior a QRank plan under `cfg` holds (DESIGN.md
/// §2.2), counted the naive way: each article's decayed citations tallied
/// from every reference list, each article's tally credited to every
/// author on its byline at the author's harmonic weight there (summed over
/// the positions of an author named twice), one smoothing count per
/// author, normalised to sum 1.
pub fn author_prior<V: Rows + ?Sized>(rows: &V, cfg: &QRankConfig) -> Vec<f64> {
    let decay = TimeWeightedPageRank::decay(cfg.twpr.rho);
    let n = rows.num_articles();
    let (mut cited, mut buf) = (vec![0.0; n], Vec::new());
    for i in 0..n {
        for &r in rows.refs(i, &mut buf) {
            cited[r as usize] += decay(rows.year(i), rows.year(r as usize));
        }
    }
    let mut counts = vec![0.0; rows.num_authors()];
    for (p, &c) in cited.iter().enumerate() {
        let byline = rows.byline(p, &mut buf);
        let weights = author_position_weights(byline.len());
        for (k, &u) in byline.iter().enumerate() {
            if byline[..k].contains(&u) {
                continue;
            }
            let w: f64 = (k..byline.len()).filter(|&j| byline[j] == u).map(|j| weights[j]).sum();
            counts[u as usize] += w * c;
        }
    }
    let mut su: Vec<f64> = counts.iter().map(|c| 1.0 + c).collect();
    normalize_l1(&mut su);
    su
}

/// `g`'s edges as `(source, target, weight)` in `(source, target)` order:
/// the in-rows, target-ascending, stably sorted by source — the graph's
/// out-rows, transposed here rather than read from the graph.
pub fn edges_by_source(g: &CsrGraph) -> Vec<(u32, u32, f64)> {
    let mut edges = Vec::with_capacity(g.num_edges());
    for v in g.nodes() {
        for (&u, &w) in g.in_neighbors(v).iter().zip(g.in_edge_weights(v)) {
            edges.push((u.0, v.0, w));
        }
    }
    edges.sort_by_key(|e| e.0);
    edges
}

// ---- The copying walk operator, as it was (sgraph::stochastic) ----

/// Precomputed pull-form transition structure for a graph.
#[derive(Debug, Clone)]
pub struct RowStochastic {
    n: usize,
    /// in-CSR offsets (length n+1).
    in_offsets: Vec<usize>,
    /// in-CSR sources.
    in_sources: Vec<u32>,
    /// Normalized transition probability of each in-edge:
    /// `p[u → v] = w(u,v) / Σ_t w(u,t)`.
    in_probs: Vec<f64>,
    /// Nodes with zero out-weight (dangling).
    dangling: Vec<u32>,
}

impl RowStochastic {
    /// Build the operator from a weighted graph. O(V + E).
    pub fn new(g: &CsrGraph) -> Self {
        let n = g.len();
        // Out-weight sums per node, each added in ascending target.
        let mut out_sum = vec![0.0f64; n];
        for (u, _, w) in edges_by_source(g) {
            out_sum[u as usize] += w;
        }
        let dangling: Vec<u32> = (0..n as u32).filter(|&u| out_sum[u as usize] <= 0.0).collect();

        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_sources = Vec::with_capacity(g.num_edges());
        let mut in_probs = Vec::with_capacity(g.num_edges());
        in_offsets.push(0);
        for v in g.nodes() {
            for (&u, &w) in g.in_neighbors(v).iter().zip(g.in_edge_weights(v)) {
                let s = out_sum[u.index()];
                if s > 0.0 && w > 0.0 {
                    in_sources.push(u.0);
                    in_probs.push(w / s);
                }
            }
            in_offsets.push(in_sources.len());
        }
        RowStochastic { n, in_offsets, in_sources, in_probs, dangling }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The dangling node ids (no outgoing probability).
    pub fn dangling(&self) -> &[u32] {
        &self.dangling
    }

    /// Total probability mass currently sitting on dangling nodes.
    #[inline]
    pub fn dangling_mass(&self, x: &[f64]) -> f64 {
        self.dangling.iter().map(|&u| x[u as usize]).sum()
    }

    #[inline(always)]
    fn gather(&self, v: usize, x: &[f64]) -> f64 {
        let r = self.in_offsets[v]..self.in_offsets[v + 1];
        let mut acc = 0.0;
        for (s, p) in self.in_sources[r.clone()].iter().zip(&self.in_probs[r]) {
            acc += x[*s as usize] * p;
        }
        acc
    }

    /// One damped power-iteration step, sequential.
    ///
    /// `y` must have length `num_nodes`. `x` should sum to 1 for the
    /// probabilistic interpretation to hold (not enforced).
    pub fn apply(&self, x: &[f64], y: &mut [f64], damping: f64, jump: &JumpVector) {
        assert_eq!(x.len(), self.n, "input vector length mismatch");
        assert_eq!(y.len(), self.n, "output vector length mismatch");
        let residual = damping * self.dangling_mass(x) + (1.0 - damping);
        match jump {
            JumpVector::Uniform => {
                let base = residual / self.n as f64;
                for (v, slot) in y.iter_mut().enumerate() {
                    *slot = damping * self.gather(v, x) + base;
                }
            }
            JumpVector::Weighted(w) => {
                assert_eq!(w.len(), self.n, "jump vector length mismatch");
                for (v, slot) in y.iter_mut().enumerate() {
                    *slot = damping * self.gather(v, x) + residual * w[v];
                }
            }
        }
    }

    /// One damped power-iteration step across `threads` workers. Work is
    /// balanced by in-edge count so power-law hubs don't serialize.
    pub fn apply_parallel(
        &self,
        x: &[f64],
        y: &mut [f64],
        damping: f64,
        jump: &JumpVector,
        threads: usize,
    ) {
        if threads <= 1 || self.n < 4096 {
            return self.apply(x, y, damping, jump);
        }
        assert_eq!(x.len(), self.n, "input vector length mismatch");
        assert_eq!(y.len(), self.n, "output vector length mismatch");
        let residual = damping * self.dangling_mass(x) + (1.0 - damping);
        let ranges = par::balanced_ranges(&self.in_offsets, threads);
        let dense_jump;
        let jump_slice: Option<&[f64]> = match jump {
            JumpVector::Uniform => None,
            JumpVector::Weighted(w) => {
                assert_eq!(w.len(), self.n, "jump vector length mismatch");
                dense_jump = w;
                Some(dense_jump)
            }
        };
        let base = residual / self.n as f64;
        par::for_each_range_mut(y, &ranges, |range, chunk| {
            for (v, slot) in range.clone().zip(chunk.iter_mut()) {
                let jp = match jump_slice {
                    None => base,
                    Some(w) => residual * w[v],
                };
                *slot = damping * self.gather(v, x) + jp;
            }
        });
    }

    /// Run damped power iteration to a fixpoint.
    ///
    /// Starts from `jump`, iterates until the L1 residual drops below
    /// `tol` or `max_iter` steps elapse, and returns the final vector plus
    /// per-iteration residual history.
    pub fn stationary(&self, opts: &PowerIterationOpts) -> PowerIterationResult {
        stationary_store(self, opts)
    }
}

impl CsrStore for RowStochastic {
    fn num_nodes(&self) -> usize {
        RowStochastic::num_nodes(self)
    }

    fn apply_step(
        &self,
        x: &[f64],
        y: &mut [f64],
        damping: f64,
        jump: &JumpVector,
        threads: usize,
    ) {
        self.apply_parallel(x, y, damping, jump, threads);
    }
}
