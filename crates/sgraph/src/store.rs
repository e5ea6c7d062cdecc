//! The backing-store abstraction under the power-iteration driver.
//!
//! Every damped walk in the stack is the same fixpoint
//! `y = d·Pᵀx + (d·dangling_mass(x) + (1−d))·j`; what varies is where
//! the graph under `P` *lives*. [`CsrStore`] abstracts that: the in-RAM
//! [`RowStochastic`] implements it over a borrowed [`crate::CsrGraph`],
//! the out-of-core [`crate::mmap_csr::MmapCsr`] implements it by
//! sweeping mmap-backed node shards, and
//! [`crate::projected::ProjectedWalk`] implements it over a graph that is
//! never stored at all — a product of two structures it borrows.
//! [`stationary_store`] is the one driver all three run under — the
//! generic [`fixpoint`] loop over `apply_step` — so a store whose
//! `apply_step` matches the dense kernel bit-for-bit produces
//! bit-identical residual sequences, iteration counts, and stationaries.

use crate::stochastic::{
    fixpoint, JumpVector, PowerIterationOpts, PowerIterationResult, RowStochastic,
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
///   [`crate::mmap_csr::MmapCsr`]) pre-scales the iterate once per step,
///   `z[u] = x[u] / out_sum[u]` (0 where the sum is zero or subnormal:
///   the node dangles), and accumulates each node's gather of raw weights,
///   `Σ w(u,v)·z[u]`, in ascending source order — so that every such store
///   of the same graph yields bit-identical iterates. A store may leave
///   out a zero-weight edge or one from a dangling source: it adds an
///   exact `+0.0`.
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
/// [`fixpoint`] over `apply_step`, started from the jump distribution or
/// a normalized warm start.
pub fn stationary_store<S: CsrStore + ?Sized>(
    store: &S,
    opts: &PowerIterationOpts,
) -> PowerIterationResult {
    let n = store.num_nodes();
    let x0 = match &opts.warm_start {
        _ if n == 0 => Vec::new(),
        Some(v) => {
            assert_eq!(v.len(), n, "warm start length mismatch");
            let s: f64 = v.iter().sum();
            assert!(s > 0.0, "warm start must have positive mass");
            v.iter().map(|&e| e / s).collect()
        }
        None => opts.jump.to_dense(n),
    };
    fixpoint(x0, opts.tol, opts.max_iter, |x, y| {
        store.apply_step(x, y, opts.damping, &opts.jump, opts.threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// The loop `stationary_store` is, spelled out: its result must be
    /// this loop's, bit for bit, cold and warm.
    #[test]
    fn store_driver_is_the_stationary_loop() {
        let g = GraphBuilder::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (0, 5)]);
        let op = RowStochastic::new(&g);
        for warm_start in [None, Some(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])] {
            let opts = PowerIterationOpts { warm_start, ..Default::default() };
            let mut x = match &opts.warm_start {
                Some(v) => v.iter().map(|e| e / 21.0).collect(),
                None => opts.jump.to_dense(6),
            };
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
