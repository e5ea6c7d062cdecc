//! The backing-store abstraction under the two walk solvers.
//!
//! Every damped walk in the stack is the same fixpoint
//! `y = d·Pᵀx + (d·dangling_mass(x) + (1−d))·j`; what varies is where
//! the graph under `P` *lives*. [`CsrStore`] abstracts that: the in-RAM
//! [`RowStochastic`] implements it over a borrowed [`crate::CsrGraph`],
//! and the out-of-core [`crate::mmap_csr::MmapCsr`] implements it by
//! sweeping mmap-backed node shards.
//!
//! Two solvers run over it. [`stationary_store`] is the power iteration,
//! the generic [`fixpoint`] loop over `apply_step`: the solver of every
//! cyclic walk (venue, HITS-like and multi-term fixpoints). Its
//! iterates depend on nothing but `apply_step`, so a store whose step
//! matches the dense kernel bit-for-bit produces bit-identical residual
//! sequences, iteration counts, and stationaries.
//!
//! [`reverse_sweep`] solves a *citation* walk, whose edges point back in
//! time. Dangling mass and the teleport both go to `j`, so the
//! stationary is exactly `x = y / Σy` with `y = j + d·Pᵀy`; with node ids
//! in publication order every edge runs from a larger id to a smaller
//! one, and one pass in descending id order is a back substitution that
//! finishes each `y[v]` once its citers, all newer, are final. An edge
//! from a smaller (or the same) id — a same-year citation, a time-travel
//! citation, a forward reference — is a *back edge*: it reads its source
//! from the previous pass, which is Gauss–Seidel in the direction the
//! mass flows, and converges because `I − d·Pᵀ` is an M-matrix. Both
//! stores implement the pass ([`ReverseSweep`]) and sum each row in the
//! stored order, so their passes are the same bits.

use crate::stochastic::{
    fixpoint, l1_distance, normalize_l1, per_weight, JumpVector, PowerIterationOpts,
    PowerIterationResult, RowStochastic,
};

/// A pull-form row-stochastic transition structure, wherever it lives.
///
/// Every implementation makes `apply_step` compute
/// `y[v] = d·Σ_u p(u→v)·x[u] + (d·Σ_{u dangling} x[u] + (1−d))·j(v)`,
/// writes each output slot by one loop whose summation order does not
/// depend on `threads`, and accumulates the dangling sum in ascending node
/// order — so its iterates are the same bits at any thread count.
///
/// Each step pre-scales the iterate once, `z[u] = x[u] / out_sum[u]` (0
/// where the sum is zero or subnormal: the node dangles), and accumulates
/// each node's gather of raw weights, `Σ w(u,v)·z[u]`, in ascending source
/// order — so that every store of the same graph ([`RowStochastic`],
/// [`crate::mmap_csr::MmapCsr`]) yields bit-identical iterates. A store
/// may leave out a zero-weight edge or one from a dangling source: it adds
/// an exact `+0.0`.
pub trait CsrStore {
    /// Number of nodes (length of the iterate vectors).
    fn num_nodes(&self) -> usize;

    /// One damped power-iteration step: read `x`, write `y`.
    ///
    /// Both stores split the step across up to `threads` workers (the
    /// results are bitwise identical at any thread count because each
    /// output slot's gather order is fixed). The in-RAM store stays
    /// sequential below a size threshold; [`crate::mmap_csr::MmapCsr`]
    /// does not.
    fn apply_step(&self, x: &[f64], y: &mut [f64], damping: f64, jump: &JumpVector, threads: usize);
}

impl CsrStore for RowStochastic<'_> {
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

/// Run damped power iteration to a fixpoint over any [`CsrStore`].
///
/// The loop behind [`RowStochastic::stationary`] (which delegates here):
/// [`fixpoint`] over `apply_step`, started from the jump distribution.
pub fn stationary_store<S: CsrStore + ?Sized>(
    store: &S,
    opts: &PowerIterationOpts,
) -> PowerIterationResult {
    let x0 = opts.jump.to_dense(store.num_nodes());
    fixpoint(x0, opts.tol, opts.max_iter, |x, y| {
        store.apply_step(x, y, opts.damping, &opts.jump, opts.threads)
    })
}

/// What one [`ReverseSweep::reverse_pass`] saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pass {
    /// `Σ|y_new − y_old| / Σ y_new`: the pass-to-pass change, relative.
    pub change: f64,
    /// Edges whose source id is not larger than their target's, counting
    /// only those that carry mass (positive weight, non-dangling source),
    /// as a shard file stores them: each read its source from the previous
    /// pass.
    pub back_edges: u64,
}

/// A materialised store that can take one reverse-chronological pass.
pub trait ReverseSweep: CsrStore {
    /// One Gauss–Seidel pass over `y = j + d·Pᵀy`, in descending node id.
    ///
    /// Each row sets `y[v] = d·Σ_u w(u,v)·z[u] + j(v)`, summing raw
    /// weights in ascending source order as [`CsrStore`]'s materialised
    /// contract fixes it, and then writes `z[v] = y[v] / out_sum[v]` (0
    /// where `v` dangles) at once, so the rows after it read this pass's
    /// value. A source id ≤ `v` reads the previous pass's `z`. The pass is
    /// sequential, so its bits do not depend on any thread count.
    fn reverse_pass(&self, y: &mut [f64], z: &mut [f64], damping: f64, jump: &JumpVector) -> Pass;
}

/// The running sums of one pass, and the row epilogue both stores share.
#[derive(Default)]
pub(crate) struct PassSums {
    change: f64,
    total: f64,
    pub(crate) back_edges: u64,
}

impl PassSums {
    /// Store row `v`'s new `y_v` and its pre-scaled `z[v]`.
    #[inline]
    pub(crate) fn settle(
        &mut self,
        v: usize,
        y_v: f64,
        out_sum: f64,
        y: &mut [f64],
        z: &mut [f64],
    ) {
        self.change += (y_v - y[v]).abs();
        self.total += y_v;
        y[v] = y_v;
        z[v] = per_weight(y_v, out_sum);
    }

    pub(crate) fn finish(self) -> Pass {
        Pass { change: self.change / self.total, back_edges: self.back_edges }
    }
}

/// Solve a citation walk by reverse sweeps over a [`ReverseSweep`] store.
///
/// Passes start from `y = z = 0` and repeat until one reads no back edge
/// (it is then exact) or changes `y` by less than `opts.tol` relative, or
/// `opts.max_iter − 1` passes (at least one) have run. Then `x = y / Σy`,
/// and one parallel `apply_step` from `x` gives the returned scores and
/// the reported residual `‖step(x) − x‖₁`. `iterations` counts the passes
/// plus that step; `residuals` holds each pass's change, then the step's
/// residual; `converged` is that residual below `opts.tol`. It allocates
/// the two vectors `y` and `z` (the step's output reuses `z`), as the
/// power iteration allocates its two iterates.
pub fn reverse_sweep<S: ReverseSweep + ?Sized>(
    store: &S,
    opts: &PowerIterationOpts,
) -> PowerIterationResult {
    let n = store.num_nodes();
    if n == 0 {
        return fixpoint(Vec::new(), opts.tol, opts.max_iter, |_, _| {});
    }
    let (mut y, mut z) = (vec![0.0; n], vec![0.0; n]);
    let mut residuals = Vec::new();
    let max_passes = opts.max_iter.saturating_sub(1).max(1);
    while residuals.len() < max_passes {
        let pass = store.reverse_pass(&mut y, &mut z, opts.damping, &opts.jump);
        residuals.push(pass.change);
        if pass.back_edges == 0 || pass.change < opts.tol {
            break;
        }
    }
    normalize_l1(&mut y);
    store.apply_step(&y, &mut z, opts.damping, &opts.jump, opts.threads);
    let residual = l1_distance(&y, &z);
    residuals.push(residual);
    PowerIterationResult {
        scores: z,
        iterations: residuals.len(),
        converged: residual < opts.tol,
        residuals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrGraph, GraphBuilder};

    /// The loop `stationary_store` is, spelled out: its result must be
    /// this loop's, bit for bit.
    #[test]
    fn store_driver_is_the_stationary_loop() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (0, 5)]);
        let op = RowStochastic::new(&g);
        let opts = PowerIterationOpts::default();
        let mut x = opts.jump.to_dense(6);
        let (mut y, mut residuals) = (vec![0.0; 6], Vec::new());
        while residuals.len() < opts.max_iter {
            op.apply_step(&x, &mut y, opts.damping, &opts.jump, opts.threads);
            residuals.push(crate::stochastic::l1_distance(&x, &y));
            std::mem::swap(&mut x, &mut y);
            if residuals[residuals.len() - 1] < opts.tol {
                break;
            }
        }
        let via_store = stationary_store(&op, &opts);
        assert_eq!(via_store.scores, x, "must be the same loop, bit for bit");
        assert_eq!(via_store.residuals, residuals);
        assert_eq!(via_store.iterations, residuals.len());
        assert!(via_store.converged);
        assert_eq!(op.stationary(&opts).scores, x);
    }

    /// The power iteration run to its floor: the oracle of the sweep.
    fn floor(op: &RowStochastic, jump: JumpVector) -> PowerIterationResult {
        op.stationary(&PowerIterationOpts {
            jump,
            tol: 1e-15,
            max_iter: 5000,
            threads: 1,
            ..Default::default()
        })
    }

    /// Edges from larger ids only (a chronological citation graph, with a
    /// dangling root and an isolated node): one exact pass plus the step.
    #[test]
    fn a_chronological_graph_is_one_pass() {
        let g = GraphBuilder::from_weighted_edges(
            6,
            &[(5, 3, 1.0), (5, 1, 0.5), (4, 3, 2.0), (3, 0, 1.0), (3, 1, 1.0), (2, 0, 0.25)],
        );
        let op = RowStochastic::new(&g);
        for jump in [JumpVector::Uniform, JumpVector::weighted(vec![1.0, 0.0, 2.0, 0.0, 3.0, 5.0])]
        {
            let swept = reverse_sweep(
                &op,
                &PowerIterationOpts { jump: jump.clone(), ..Default::default() },
            );
            assert_eq!(swept.iterations, 2, "one pass plus the residual step");
            assert_eq!(swept.residuals[0], 1.0, "the first pass moves all of y");
            assert!(swept.converged && swept.residuals[1] < 1e-15, "{:?}", swept.residuals);
            let l1 = l1_distance(&swept.scores, &floor(&op, jump).scores);
            assert!(l1 < 1e-15, "L1 {l1:e} from the power iteration's floor");
        }
    }

    /// Back edges (a self-loop, a two-cycle, an edge from a smaller id)
    /// take more passes, and land on the power iteration's floor.
    #[test]
    fn back_edges_take_gauss_seidel_passes() {
        let g = GraphBuilder::from_weighted_edges(
            5,
            &[(4, 2, 1.0), (2, 2, 3.0), (2, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (3, 0, 2.0)],
        );
        let op = RowStochastic::new(&g);
        let opts = PowerIterationOpts { tol: 1e-15, max_iter: 1000, ..Default::default() };
        let swept = reverse_sweep(&op, &opts);
        assert!(swept.iterations > 2, "{:?}", swept.residuals);
        let pass = op.reverse_pass(&mut [0.0; 5], &mut [0.0; 5], 0.85, &JumpVector::Uniform);
        assert_eq!(pass.back_edges, 3, "the self-loop, 1 -> 2 and 0 -> 3");
        let l1 = l1_distance(&swept.scores, &floor(&op, JumpVector::Uniform).scores);
        assert!(l1 < 1e-13, "L1 {l1:e} from the power iteration's floor");
    }

    /// The pass cap: `max_iter − 1` passes, at least one, plus the step.
    #[test]
    fn passes_stop_at_max_iter() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let op = RowStochastic::new(&g);
        for (max_iter, iterations) in [(1, 2), (2, 2), (7, 7)] {
            let opts = PowerIterationOpts { tol: 0.0, max_iter, ..Default::default() };
            let swept = reverse_sweep(&op, &opts);
            assert_eq!((swept.iterations, swept.converged), (iterations, false));
        }
        let empty =
            reverse_sweep(&RowStochastic::new(&CsrGraph::empty(0)), &PowerIterationOpts::default());
        assert!(empty.converged && empty.scores.is_empty() && empty.iterations == 0);
    }

    #[test]
    fn dyn_store_works() {
        let g = GraphBuilder::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let op = RowStochastic::new(&g);
        let store: &dyn CsrStore = &op;
        let res = stationary_store(store, &PowerIterationOpts::default());
        assert!(res.converged);
        assert!((res.scores.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
