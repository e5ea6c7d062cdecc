//! The row-stochastic random-walk operator.
//!
//! Every PageRank-family algorithm in this stack is a fixpoint of
//!
//! ```text
//! y = d · Pᵀ x  +  (d · dangling_mass(x) + (1 − d)) · j
//! ```
//!
//! where `P` is the row-stochastic transition matrix derived from the edge
//! weights, `j` is the jump (teleportation) distribution, and dangling
//! nodes (no out-edges, or all-zero out-weights) re-emit their mass through
//! `j`. `P` is never stored: a step pre-scales the iterate once,
//! `z[u] = x[u] / out_sum[u]`, and pulls the graph's own in-weights
//! against `z`, sequentially or across threads.
//!
//! The operator conserves probability mass exactly up to floating-point
//! rounding: if `Σx = 1` then `Σy = 1`.

use crate::csr::CsrGraph;
use crate::par;
use crate::store::{Pass, PassSums, ReverseSweep};

/// `true` when a node with out-weight sum `out_sum` is dangling: the sum
/// is zero, or so small (subnormal) that `x / out_sum` could overflow.
#[inline]
pub(crate) fn dangles(out_sum: f64) -> bool {
    out_sum < f64::MIN_POSITIVE
}

/// The pre-scale every pull-form step takes once: `x / out_sum` per node,
/// 0 on a dangling one, so the pull can read raw edge weights.
#[inline]
pub(crate) fn per_weight(x: f64, out_sum: f64) -> f64 {
    if dangles(out_sum) {
        0.0
    } else {
        x / out_sum
    }
}

/// `out[v] = finish(v, Σ_{u→v} w(u,v)·z[u])` for every node `v` of `g`:
/// one pull over its in-CSR, partitioned across `threads` by in-edge
/// count. Each row is summed by one loop in ascending source order, so
/// `out` is the same bits at any thread count — and the same bits as any
/// store that sums the same products in the same order.
pub(crate) fn pull(
    g: &CsrGraph,
    z: &[f64],
    out: &mut [f64],
    threads: usize,
    finish: impl Fn(usize, f64) -> f64 + Sync,
) {
    par::for_each_range_mut(out, &par::balanced_ranges(&g.in_offsets, threads), |range, chunk| {
        for (v, slot) in range.zip(chunk.iter_mut()) {
            let row = g.in_offsets[v]..g.in_offsets[v + 1];
            let mut acc = 0.0;
            for (&u, &w) in g.in_sources[row.clone()].iter().zip(&g.in_weights[row]) {
                acc += w * z[u as usize];
            }
            *slot = finish(v, acc);
        }
    });
}

/// A teleportation distribution over nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum JumpVector {
    /// Uniform over all nodes.
    Uniform,
    /// An arbitrary non-negative vector; normalized to sum 1 on
    /// construction via [`JumpVector::weighted`].
    Weighted(Vec<f64>),
}

impl JumpVector {
    /// A weighted jump vector; weights must be non-negative and finite
    /// with a positive sum (they are normalized here).
    ///
    /// # Panics
    /// Panics if any weight is negative/non-finite or if all are zero.
    pub fn weighted(mut weights: Vec<f64>) -> Self {
        let mut sum = 0.0;
        for &w in &weights {
            assert!(w.is_finite() && w >= 0.0, "jump weight must be finite and >= 0, got {w}");
            sum += w;
        }
        assert!(sum > 0.0, "jump vector must have positive total mass");
        for w in &mut weights {
            *w /= sum;
        }
        JumpVector::Weighted(weights)
    }

    /// Materialize as a dense vector of length `n`.
    pub fn to_dense(&self, n: usize) -> Vec<f64> {
        match self {
            JumpVector::Uniform => vec![1.0 / n as f64; n],
            JumpVector::Weighted(w) => {
                assert_eq!(w.len(), n, "jump vector length mismatch");
                w.clone()
            }
        }
    }

    /// `v ↦ residual·j(v)`: each of `n` nodes' share when `residual` mass
    /// teleports — the jump term of every store's step.
    ///
    /// # Panics
    /// Panics if a weighted vector is not `n` long.
    pub(crate) fn shares(&self, residual: f64, n: usize) -> impl Fn(usize) -> f64 + Sync + '_ {
        if let JumpVector::Weighted(w) = self {
            assert_eq!(w.len(), n, "jump vector length mismatch");
        }
        let base = residual / n as f64;
        move |v| match self {
            JumpVector::Uniform => base,
            JumpVector::Weighted(w) => residual * w[v],
        }
    }
}

/// The row-stochastic walk over a borrowed graph: the graph, each node's
/// out-weight sum and the dangling set — nothing per edge.
#[derive(Debug, Clone)]
pub struct RowStochastic<'g> {
    graph: &'g CsrGraph,
    out_sums: Vec<f64>,
    /// Nodes whose out-weight sum is zero or subnormal, ascending.
    dangling: Vec<u32>,
}

impl<'g> RowStochastic<'g> {
    /// Prepare the walk over `g`: one pass over its in-rows for the
    /// out-weight sums ([`CsrGraph::out_weight_sums`]). O(V + E).
    pub fn new(g: &'g CsrGraph) -> Self {
        let out_sums = g.out_weight_sums();
        let dangling = (0..g.num_nodes()).filter(|&u| dangles(out_sums[u as usize])).collect();
        RowStochastic { graph: g, out_sums, dangling }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.len()
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

    /// One damped power-iteration step, sequential.
    ///
    /// `y` must have length `num_nodes`. `x` should sum to 1 for the
    /// probabilistic interpretation to hold (not enforced).
    pub fn apply(&self, x: &[f64], y: &mut [f64], damping: f64, jump: &JumpVector) {
        self.apply_parallel(x, y, damping, jump, 1);
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
        let n = self.num_nodes();
        assert_eq!(x.len(), n, "input vector length mismatch");
        assert_eq!(y.len(), n, "output vector length mismatch");
        let residual = damping * self.dangling_mass(x) + (1.0 - damping);
        let share = jump.shares(residual, n);
        let z: Vec<f64> = x.iter().zip(&self.out_sums).map(|(&x, &s)| per_weight(x, s)).collect();
        let threads = if n < par::PAR_THRESHOLD { 1 } else { threads.max(1) };
        pull(self.graph, &z, y, threads, |v, acc| damping * acc + share(v));
    }

    /// Run damped power iteration to a fixpoint.
    ///
    /// Starts from `jump`, iterates until the L1 residual drops below
    /// `tol` or `max_iter` steps elapse, and returns the final vector plus
    /// per-iteration residual history.
    pub fn stationary(&self, opts: &PowerIterationOpts) -> PowerIterationResult {
        crate::store::stationary_store(self, opts)
    }
}

impl ReverseSweep for RowStochastic<'_> {
    /// One reverse pass over the in-CSR, rows in descending id.
    fn reverse_pass(&self, y: &mut [f64], z: &mut [f64], damping: f64, jump: &JumpVector) -> Pass {
        let (g, n) = (self.graph, self.num_nodes());
        assert!(y.len() == n && z.len() == n, "iterate length mismatch");
        let share = jump.shares(1.0, n);
        let mut sums = PassSums::default();
        for v in (0..n).rev() {
            let row = g.in_offsets[v]..g.in_offsets[v + 1];
            let sources = &g.in_sources[row.clone()];
            // Sources ascend, so the back edges are a prefix of the row;
            // one of weight 0 or from a dangling source carries nothing.
            if sources.first().is_some_and(|&u| u as usize <= v) {
                let back = sources.partition_point(|&u| u as usize <= v);
                let carries =
                    |(&u, &w): (&u32, &f64)| w > 0.0 && !dangles(self.out_sums[u as usize]);
                let weights = &g.in_weights[row.start..row.start + back];
                sums.back_edges +=
                    sources[..back].iter().zip(weights).filter(|&e| carries(e)).count() as u64;
            }
            let mut acc = 0.0;
            for (&u, &w) in sources.iter().zip(&g.in_weights[row]) {
                acc += w * z[u as usize];
            }
            sums.settle(v, damping * acc + share(v), self.out_sums[v], y, z);
        }
        sums.finish()
    }
}

/// Options for both walk solvers, [`RowStochastic::stationary`] (any
/// [`crate::store::stationary_store`]) and [`crate::store::reverse_sweep`].
#[derive(Debug, Clone)]
pub struct PowerIterationOpts {
    /// Damping factor `d` ∈ [0, 1); the canonical PageRank value is 0.85.
    pub damping: f64,
    /// Teleportation distribution.
    pub jump: JumpVector,
    /// L1 convergence tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Worker threads (1 = sequential). Defaults to
    /// [`crate::par::default_threads`]; set `SCHOLAR_THREADS=1` (or pass
    /// 1 explicitly) to force sequential execution.
    pub threads: usize,
}

impl Default for PowerIterationOpts {
    fn default() -> Self {
        PowerIterationOpts {
            damping: 0.85,
            jump: JumpVector::Uniform,
            tol: 1e-10,
            max_iter: 200,
            threads: crate::par::default_threads(),
        }
    }
}

/// Result of either walk solver.
#[derive(Debug, Clone)]
pub struct PowerIterationResult {
    /// The stationary (or last-iterate) distribution; sums to 1.
    pub scores: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether `tol` was reached before `max_iter`.
    pub converged: bool,
    /// L1 residual after each iteration.
    pub residuals: Vec<f64>,
}

/// Run a generic fixpoint iteration with ping-pong buffers.
///
/// `step(x, y)` must write the next iterate into `y` given the current
/// iterate `x` (both of length `x0.len()`). The driver alternates two
/// preallocated buffers — no per-iteration allocation — records the L1
/// residual after every step, and stops once it drops below `tol` or
/// `max_iter` steps elapse. This generalizes
/// [`RowStochastic::stationary`] to fixpoints that are not plain damped
/// walks (mutual-reinforcement schemes, multi-term blends, packed
/// two-vector systems), so every iterative ranker can share one driver
/// and one diagnostics shape.
pub fn fixpoint(
    x0: Vec<f64>,
    tol: f64,
    max_iter: usize,
    mut step: impl FnMut(&[f64], &mut [f64]),
) -> PowerIterationResult {
    let n = x0.len();
    if n == 0 {
        return PowerIterationResult {
            scores: Vec::new(),
            iterations: 0,
            converged: true,
            residuals: Vec::new(),
        };
    }
    let mut x = x0;
    let mut y = vec![0.0; n];
    let mut residuals = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    while iterations < max_iter {
        step(&x, &mut y);
        iterations += 1;
        let r = l1_distance(&x, &y);
        residuals.push(r);
        std::mem::swap(&mut x, &mut y);
        if r < tol {
            converged = true;
            break;
        }
    }
    PowerIterationResult { scores: x, iterations, converged, residuals }
}

/// L1 distance between two equal-length vectors.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// `out = mu·a + (1-mu)·b`, renormalized to sum 1 (inputs are
/// distributions). In-place counterpart of the convex-blend-then-normalize
/// step used by mutual-reinforcement fixpoints, so a solve loop can reuse
/// one buffer instead of allocating per iteration.
pub fn blend_into(a: &[f64], b: &[f64], mu: f64, out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for ((slot, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *slot = mu * x + (1.0 - mu) * y;
    }
    normalize_l1(out);
}

/// Normalize `v` to sum 1 in place. No-op when the sum is not positive.
pub fn normalize_l1(v: &mut [f64]) {
    let s: f64 = v.iter().sum();
    if s > 0.0 {
        for e in v {
            *e /= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn assert_close(a: f64, b: f64, eps: f64) {
        assert!((a - b).abs() < eps, "{a} != {b} (eps {eps})");
    }

    fn cycle3() -> CsrGraph {
        GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn uniform_stationary_on_cycle() {
        let g = cycle3();
        let res = RowStochastic::new(&g).stationary(&PowerIterationOpts::default());
        assert!(res.converged);
        for &s in &res.scores {
            assert_close(s, 1.0 / 3.0, 1e-9);
        }
    }

    #[test]
    fn mass_is_conserved_per_step() {
        let g = GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (3, 1)]); // 2,4 dangling
        let op = RowStochastic::new(&g);
        let x = vec![0.2; 5];
        let mut y = vec![0.0; 5];
        op.apply(&x, &mut y, 0.85, &JumpVector::Uniform);
        assert_close(y.iter().sum::<f64>(), 1.0, 1e-12);
    }

    #[test]
    fn dangling_nodes_detected() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2)]);
        let op = RowStochastic::new(&g);
        assert_eq!(op.dangling(), &[2, 3]);
        assert_close(op.dangling_mass(&[0.1, 0.2, 0.3, 0.4]), 0.7, 1e-12);
    }

    #[test]
    fn zero_weight_out_edges_mean_dangling() {
        let g = GraphBuilder::from_weighted_edges(2, &[(0, 1, 0.0)]);
        let op = RowStochastic::new(&g);
        assert_eq!(op.dangling(), &[0, 1]);
    }

    /// `x / out_sum` overflows to infinity once the sum is subnormal, so a
    /// node with only such weight re-emits through the jump instead.
    #[test]
    fn subnormal_out_weight_sums_dangle() {
        let g = GraphBuilder::from_weighted_edges(3, &[(0, 1, 1e-310), (2, 1, 1e-300)]);
        let op = RowStochastic::new(&g);
        assert_eq!(op.dangling(), &[0, 1]);
        let res = op.stationary(&PowerIterationOpts::default());
        assert!(res.scores.iter().all(|s| s.is_finite() && *s > 0.0), "{:?}", res.scores);
        assert_close(res.scores.iter().sum::<f64>(), 1.0, 1e-12);
    }

    #[test]
    fn weighted_edges_split_proportionally() {
        // 0 -> 1 with weight 3, 0 -> 2 with weight 1: stationary mass of 1
        // should be ~3x that of 2 contributed from 0's push.
        let g = GraphBuilder::from_weighted_edges(3, &[(0, 1, 3.0), (0, 2, 1.0)]);
        let op = RowStochastic::new(&g);
        let x = vec![1.0, 0.0, 0.0];
        let mut y = vec![0.0; 3];
        op.apply(&x, &mut y, 1.0, &JumpVector::Uniform);
        assert_close(y[1], 0.75, 1e-12);
        assert_close(y[2], 0.25, 1e-12);
    }

    #[test]
    fn damping_zero_returns_jump() {
        let g = cycle3();
        let op = RowStochastic::new(&g);
        let jump = JumpVector::weighted(vec![1.0, 0.0, 1.0]);
        let x = vec![1.0 / 3.0; 3];
        let mut y = vec![0.0; 3];
        op.apply(&x, &mut y, 0.0, &jump);
        assert_close(y[0], 0.5, 1e-12);
        assert_close(y[1], 0.0, 1e-12);
        assert_close(y[2], 0.5, 1e-12);
    }

    #[test]
    fn weighted_jump_normalizes() {
        let j = JumpVector::weighted(vec![2.0, 2.0, 4.0]);
        let dense = j.to_dense(3);
        assert_close(dense[2], 0.5, 1e-12);
        assert_close(dense.iter().sum::<f64>(), 1.0, 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive total mass")]
    fn all_zero_jump_panics() {
        let _ = JumpVector::weighted(vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_jump_panics() {
        let _ = JumpVector::weighted(vec![f64::NAN]);
    }

    #[test]
    fn parallel_matches_sequential() {
        // Random-ish graph, big enough to cross the parallel threshold.
        let n = 5000u32;
        let mut edges = Vec::new();
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..30_000 {
            let s = next() % n;
            let d = next() % n;
            let w = 1.0 + (next() % 10) as f64;
            edges.push((s, d, w));
        }
        let g = GraphBuilder::from_weighted_edges(n, &edges);
        let op = RowStochastic::new(&g);
        let x: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let x = {
            let mut v = x;
            normalize_l1(&mut v);
            v
        };
        let mut y_seq = vec![0.0; n as usize];
        let mut y_par = vec![0.0; n as usize];
        op.apply(&x, &mut y_seq, 0.85, &JumpVector::Uniform);
        op.apply_parallel(&x, &mut y_par, 0.85, &JumpVector::Uniform, 4);
        for (a, b) in y_seq.iter().zip(&y_par) {
            assert_close(*a, *b, 1e-14);
        }
    }

    #[test]
    fn stationary_sums_to_one_with_dangling() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 0)]);
        let op = RowStochastic::new(&g);
        let res = op.stationary(&PowerIterationOpts::default());
        assert!(res.converged);
        assert_close(res.scores.iter().sum::<f64>(), 1.0, 1e-9);
        assert!(res.iterations > 0);
        assert_eq!(res.residuals.len(), res.iterations);
    }

    #[test]
    fn residuals_decrease_monotonically_ish() {
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let op = RowStochastic::new(&g);
        let res = op.stationary(&PowerIterationOpts::default());
        // Power iteration on a damped chain must contract overall.
        assert!(res.residuals.last().unwrap() < &res.residuals[0]);
    }

    #[test]
    fn max_iter_reached_reports_not_converged() {
        let g = cycle3();
        let op = RowStochastic::new(&g);
        let res = op.stationary(&PowerIterationOpts {
            tol: 0.0, // unattainable
            max_iter: 5,
            ..Default::default()
        });
        assert!(!res.converged);
        assert_eq!(res.iterations, 5);
    }

    #[test]
    fn empty_graph_stationary() {
        let g = CsrGraph::empty(0);
        let op = RowStochastic::new(&g);
        let res = op.stationary(&PowerIterationOpts::default());
        assert!(res.converged);
        assert!(res.scores.is_empty());
    }

    #[test]
    fn single_node_absorbs_everything() {
        let g = CsrGraph::empty(1);
        let op = RowStochastic::new(&g);
        let res = op.stationary(&PowerIterationOpts::default());
        assert_close(res.scores[0], 1.0, 1e-12);
    }

    #[test]
    fn l1_helpers() {
        assert_close(l1_distance(&[1.0, 2.0], &[0.5, 1.0]), 1.5, 1e-12);
        let mut v = vec![1.0, 3.0];
        normalize_l1(&mut v);
        assert_close(v[0], 0.25, 1e-12);
        let mut z = vec![0.0, 0.0];
        normalize_l1(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn blend_into_matches_convex_combination() {
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        let mut out = vec![f64::MAX; 2];
        blend_into(&a, &b, 1.0, &mut out);
        assert_eq!(out, a);
        blend_into(&a, &b, 0.0, &mut out);
        assert_eq!(out, b);
        blend_into(&a, &b, 0.5, &mut out);
        assert_close(out[0], 0.5, 1e-12);
        // Unnormalized inputs are renormalized to sum 1.
        blend_into(&[2.0, 2.0], &[0.0, 4.0], 0.5, &mut out);
        assert_close(out.iter().sum::<f64>(), 1.0, 1e-12);
        assert_close(out[0], 0.25, 1e-12);
    }

    #[test]
    fn fixpoint_driver_matches_stationary() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (0, 5)]);
        let op = RowStochastic::new(&g);
        let opts = PowerIterationOpts::default();
        let direct = op.stationary(&opts);
        let generic = fixpoint(opts.jump.to_dense(6), opts.tol, opts.max_iter, |x, y| {
            op.apply(x, y, opts.damping, &opts.jump)
        });
        assert!(generic.converged);
        assert_eq!(generic.iterations, direct.iterations);
        assert!(l1_distance(&generic.scores, &direct.scores) < 1e-14);
    }

    #[test]
    fn fixpoint_driver_respects_max_iter() {
        let res = fixpoint(vec![1.0, 0.0], 0.0, 7, |x, y| {
            y[0] = x[1];
            y[1] = x[0];
        });
        assert!(!res.converged);
        assert_eq!(res.iterations, 7);
        assert_eq!(res.residuals.len(), 7);
    }

    #[test]
    fn fixpoint_driver_empty_input() {
        let res = fixpoint(Vec::new(), 1e-10, 10, |_, _| {});
        assert!(res.converged);
        assert!(res.scores.is_empty());
    }

    #[test]
    fn personalized_jump_concentrates_mass() {
        // Star: 1..=4 all point at 0; jump only at node 0.
        let g = GraphBuilder::from_edges(5, &[(1, 0), (2, 0), (3, 0), (4, 0)]);
        let op = RowStochastic::new(&g);
        let mut w = vec![0.0; 5];
        w[0] = 1.0;
        let res = op.stationary(&PowerIterationOpts {
            jump: JumpVector::weighted(w),
            ..Default::default()
        });
        assert!(res.scores[0] > 0.5, "personalization target should dominate");
        for i in 1..5 {
            assert!(res.scores[i] < res.scores[0]);
        }
    }
}
