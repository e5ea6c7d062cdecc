//! Test-side oracles for structures and kernels the stack no longer
//! has. The materialised author citation graph — what the engine built,
//! held three times over and walked before the author walk went
//! factorised (`sgraph::ProjectedWalk`) — is the oracle the factorised
//! walk is held to. [`RowStochastic`] is the walk operator as it was
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

use scholar::corpus::model::{author_position_weights, Year};
use scholar::{QRankConfig, Rows, TimeWeightedPageRank};
use sgraph::par;
use sgraph::stochastic::{PowerIterationOpts, PowerIterationResult};
use sgraph::{stationary_store, CsrGraph, CsrStore, GraphBuilder, JumpVector, NodeId};
use std::ops::Range;

/// The contributions of the articles in `citing` to the author-aggregated
/// citation graph: edge `A(u) → A(v)` summed over article citations, the
/// citing byline weight times the cited byline weight, scaled by `f`.
/// Self-citations (same author both sides) are dropped when
/// `drop_self_citations` is true.
pub fn author_edges<V: Rows + ?Sized>(
    rows: &V,
    citing: Range<usize>,
    mut f: impl FnMut(Year, Year) -> f64,
    drop_self_citations: bool,
) -> GraphBuilder {
    let mut b = GraphBuilder::new(rows.num_authors() as u32).self_loops(!drop_self_citations);
    let (mut citing_buf, mut refs_buf, mut cited_buf) = (Vec::new(), Vec::new(), Vec::new());
    for i in citing {
        let byline = rows.byline(i, &mut citing_buf);
        if byline.is_empty() {
            continue;
        }
        let wa = author_position_weights(byline.len());
        let year = rows.year(i);
        for &r in rows.refs(i, &mut refs_buf) {
            let cited = rows.byline(r as usize, &mut cited_buf);
            if cited.is_empty() {
                continue;
            }
            let wc = author_position_weights(cited.len());
            let base = f(year, rows.year(r as usize));
            if base <= 0.0 {
                continue;
            }
            for (&ua, &pa) in byline.iter().zip(&wa) {
                for (&uc, &pc) in cited.iter().zip(&wc) {
                    if drop_self_citations && ua == uc {
                        continue;
                    }
                    b.add_edge(NodeId(ua), NodeId(uc), base * pa * pc);
                }
            }
        }
    }
    b
}

/// The whole author graph of `rows` under `cfg`'s decay and self-citation
/// rule.
pub fn author_graph<V: Rows + ?Sized>(rows: &V, cfg: &QRankConfig) -> CsrGraph {
    let decay = TimeWeightedPageRank::decay(cfg.twpr.rho);
    author_edges(rows, 0..rows.num_articles(), decay, cfg.drop_self_citations).build()
}

/// The options every structural walk of a plan under `cfg` runs with.
pub fn structural_opts(cfg: &QRankConfig) -> PowerIterationOpts {
    let pr = &cfg.twpr.pagerank;
    PowerIterationOpts {
        damping: pr.damping,
        jump: JumpVector::Uniform,
        tol: pr.tol,
        max_iter: pr.max_iter,
        threads: pr.threads,
    }
}

/// The structural author walk over the materialised `graph`: its
/// operator (for the dangling set) and its un-normalised stationary.
pub fn author_walk(graph: &CsrGraph, cfg: &QRankConfig) -> (RowStochastic, PowerIterationResult) {
    let op = RowStochastic::new(graph);
    let res = op.stationary(&structural_opts(cfg));
    (op, res)
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
        // Out-weight sums per node.
        let mut out_sum = vec![0.0f64; n];
        for u in g.nodes() {
            out_sum[u.index()] = g.out_weight_sum(u);
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
