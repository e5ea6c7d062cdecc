//! The backing-store abstraction under the power-iteration driver.
//!
//! Every damped walk in the stack is the same fixpoint
//! `y = d·Pᵀx + (d·dangling_mass(x) + (1−d))·j`; what varies is where
//! the pull-form transition structure *lives*. [`CsrStore`] abstracts
//! that: the in-RAM [`RowStochastic`] operator implements it by
//! delegating to its dense gather kernels, the out-of-core
//! [`crate::mmap_csr::MmapCsr`] implements it by sweeping mmap-backed
//! node shards, and [`crate::projected::ProjectedWalk`] implements it
//! over a graph that is never stored at all — a product of two
//! structures it borrows. [`stationary_store`] is the one driver all
//! three run under — it is the exact loop [`RowStochastic::stationary`]
//! has always used (which now delegates here), so a store whose
//! `apply_step` matches the dense kernel bit-for-bit produces
//! bit-identical residual sequences, iteration counts, and stationaries.

use crate::stochastic::{
    l1_distance, JumpVector, PowerIterationOpts, PowerIterationResult, RowStochastic,
};

/// A pull-form row-stochastic transition structure, wherever it lives.
///
/// Every implementation makes `apply_step` compute
/// `y[v] = d·Σ_u p(u→v)·x[u] + (d·Σ_{u dangling} x[u] + (1−d))·j(v)`,
/// writes each output slot by one loop whose summation order does not
/// depend on `threads`, and accumulates the dangling sum in ascending node
/// order — so its iterates are the same bits at any thread count.
///
/// Beyond that there are two contracts, by what the store holds:
///
/// * A store of a **materialised** graph ([`RowStochastic`],
///   [`crate::mmap_csr::MmapCsr`]) accumulates each per-node gather in
///   ascending source order — the order [`RowStochastic`] uses — so that
///   every such store of the same graph yields bit-identical iterates.
/// * A store that applies the graph **factorised**
///   ([`crate::projected::ProjectedWalk`]) re-associates the gather into
///   sums over its factors and cannot match those bits. It declares its own
///   name and tolerance instead: against the store of the materialised
///   product, ≤ 1e-12 L1 on the stationary with an equal iteration count,
///   held by a conformance row beside the kernel
///   (`projected::tests::matches_the_walk_over_the_materialised_product`,
///   and `tests/conformance.rs` on whole corpora).
pub trait CsrStore {
    /// Number of nodes (length of the iterate vectors).
    fn num_nodes(&self) -> usize;

    /// One damped power-iteration step: read `x`, write `y`.
    ///
    /// `threads` is a parallelism *hint*; implementations may run
    /// sequentially (results are bitwise identical at any thread count
    /// because each output slot's gather order is fixed).
    fn apply_step(&self, x: &[f64], y: &mut [f64], damping: f64, jump: &JumpVector, threads: usize);
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

/// Run damped power iteration to a fixpoint over any [`CsrStore`].
///
/// This is the canonical loop behind [`RowStochastic::stationary`]
/// (which delegates here): start from the jump distribution or a
/// normalized warm start, step until the L1 residual drops below
/// `opts.tol` or `opts.max_iter` steps elapse, and report the final
/// iterate with the per-iteration residual history.
pub fn stationary_store<S: CsrStore + ?Sized>(
    store: &S,
    opts: &PowerIterationOpts,
) -> PowerIterationResult {
    let n = store.num_nodes();
    if n == 0 {
        return PowerIterationResult {
            scores: Vec::new(),
            iterations: 0,
            converged: true,
            residuals: Vec::new(),
        };
    }
    let mut x = match &opts.warm_start {
        Some(v) => {
            assert_eq!(v.len(), n, "warm start length mismatch");
            let s: f64 = v.iter().sum();
            assert!(s > 0.0, "warm start must have positive mass");
            v.iter().map(|&e| e / s).collect()
        }
        None => opts.jump.to_dense(n),
    };
    let mut y = vec![0.0; n];
    let mut residuals = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    while iterations < opts.max_iter {
        store.apply_step(&x, &mut y, opts.damping, &opts.jump, opts.threads);
        iterations += 1;
        let r = l1_distance(&x, &y);
        residuals.push(r);
        std::mem::swap(&mut x, &mut y);
        if r < opts.tol {
            converged = true;
            break;
        }
    }
    PowerIterationResult { scores: x, iterations, converged, residuals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn store_driver_is_the_stationary_loop() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (0, 5)]);
        let op = RowStochastic::new(&g);
        let opts = PowerIterationOpts::default();
        let direct = op.stationary(&opts);
        let via_store = stationary_store(&op, &opts);
        assert_eq!(direct.scores, via_store.scores, "must be the same loop, bit for bit");
        assert_eq!(direct.iterations, via_store.iterations);
        assert_eq!(direct.residuals, via_store.residuals);
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
