//! Gauss–Seidel PageRank solver.
//!
//! Power iteration updates every score from the *previous* iterate;
//! Gauss–Seidel sweeps update in place, so later nodes in a sweep already
//! see this sweep's earlier updates — classically cutting the iteration
//! count roughly in half on link graphs (Arasu et al. 2002). The repro
//! harness compares the two solvers (R-Fig 9); both converge to the same
//! fixpoint (tested to 1e-8).
//!
//! Implementation notes:
//!
//! * The linear system is `x = d·Pᵀx + (d·D(x) + (1−d))·j`, where `D(x)`
//!   is the dangling mass. The dangling term couples every unknown, which
//!   would break the sparse triangular structure Gauss–Seidel wants, so
//!   the dangling mass is *lagged*: within a sweep it is taken from the
//!   running estimate and refreshed after the sweep (a standard hybrid —
//!   Jacobi on the rank-1 part, Gauss–Seidel on the sparse part).
//! * Self-loops make the diagonal entry `P_vv` nonzero; the update solves
//!   the 1×1 equation exactly: `x_v = rhs / (1 − d·p_vv)`.

use crate::csr::CsrGraph;
use crate::stochastic::{l1_distance, JumpVector, PowerIterationResult, RowStochastic};

/// Options for [`gauss_seidel`].
#[derive(Debug, Clone)]
pub struct GaussSeidelOpts {
    /// Damping factor `d` ∈ [0, 1).
    pub damping: f64,
    /// Teleportation distribution.
    pub jump: JumpVector,
    /// L1 tolerance between consecutive sweeps.
    pub tol: f64,
    /// Sweep cap.
    pub max_sweeps: usize,
}

impl Default for GaussSeidelOpts {
    fn default() -> Self {
        GaussSeidelOpts { damping: 0.85, jump: JumpVector::Uniform, tol: 1e-10, max_sweeps: 200 }
    }
}

/// Solve for the damped stationary distribution by Gauss–Seidel sweeps.
///
/// Returns the same structure as power iteration so diagnostics are
/// directly comparable; `iterations` counts sweeps.
pub fn gauss_seidel(g: &CsrGraph, opts: &GaussSeidelOpts) -> PowerIterationResult {
    assert!((0.0..1.0).contains(&opts.damping), "damping must be in [0, 1)");
    assert!(opts.max_sweeps > 0, "need at least one sweep");
    let n = g.len();
    if n == 0 {
        return PowerIterationResult {
            scores: Vec::new(),
            iterations: 0,
            converged: true,
            residuals: Vec::new(),
        };
    }
    let d = opts.damping;
    // Dangling set and out-weight sums, exactly as the power iteration's.
    let op = RowStochastic::new(g);
    let (dangling, out_sum) = (op.dangling(), op.out_sums());
    let mut is_dangling = vec![false; n];
    for &u in dangling {
        is_dangling[u as usize] = true;
    }

    // Materialize the jump distribution once (like power iteration does)
    // instead of calling `JumpVector::prob` per node per sweep.
    let jump_dense = opts.jump.to_dense(n);
    let mut x = jump_dense.clone();
    let mut prev = vec![0.0f64; n];
    let mut residuals = Vec::new();
    let mut converged = false;
    let mut sweeps = 0;
    // Lagged dangling mass.
    let mut dangling_mass: f64 = dangling.iter().map(|&u| x[u as usize]).sum();

    while sweeps < opts.max_sweeps {
        prev.copy_from_slice(&x);
        for v in 0..n {
            let vu = v as u32;
            let jp = jump_dense[v];
            let mut acc = 0.0;
            let mut diag = 0.0;
            let node = crate::NodeId(vu);
            for (&u, &w) in g.in_neighbors(node).iter().zip(g.in_edge_weights(node)) {
                if is_dangling[u.index()] || w <= 0.0 {
                    continue;
                }
                let p = w / out_sum[u.index()];
                if u.index() == v {
                    diag = p;
                } else {
                    acc += p * x[u.index()];
                }
            }
            let rhs = d * acc + (d * dangling_mass + (1.0 - d)) * jp;
            let new_v = rhs / (1.0 - d * diag);
            if is_dangling[v] {
                // Keep the lagged dangling mass roughly current within
                // the sweep (cheap running correction).
                dangling_mass += new_v - x[v];
            }
            x[v] = new_v;
        }
        // Renormalize: the lagged dangling term lets total mass drift
        // slightly within a sweep; project back onto the simplex.
        crate::stochastic::normalize_l1(&mut x);
        dangling_mass = dangling.iter().map(|&u| x[u as usize]).sum();

        sweeps += 1;
        let r = l1_distance(&prev, &x);
        residuals.push(r);
        if r < opts.tol {
            converged = true;
            break;
        }
    }
    PowerIterationResult { scores: x, iterations: sweeps, converged, residuals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stochastic::PowerIterationOpts;
    use crate::GraphBuilder;

    fn random_graph(n: u32, m: usize, seed: u64) -> CsrGraph {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        let edges: Vec<(u32, u32, f64)> =
            (0..m).map(|_| (next() % n, next() % n, 1.0 + (next() % 4) as f64)).collect();
        GraphBuilder::from_weighted_edges(n, &edges)
    }

    fn power(g: &CsrGraph) -> PowerIterationResult {
        RowStochastic::new(g).stationary(&PowerIterationOpts {
            tol: 1e-12,
            max_iter: 2000,
            ..Default::default()
        })
    }

    #[test]
    fn agrees_with_power_iteration() {
        let g = random_graph(400, 2500, 17);
        let exact = power(&g);
        let gs = gauss_seidel(&g, &GaussSeidelOpts { tol: 1e-12, ..Default::default() });
        assert!(gs.converged);
        let l1 = l1_distance(&exact.scores, &gs.scores);
        assert!(l1 < 1e-8, "solvers disagree by {l1}");
    }

    #[test]
    fn agrees_with_dangling_nodes_present() {
        // Half the nodes dangle.
        let g = GraphBuilder::from_edges(6, &[(0, 3), (1, 3), (1, 4), (2, 5), (0, 4)]);
        assert_eq!(g.nodes().filter(|&u| g.out_degree(u) == 0).count(), 3);
        let exact = power(&g);
        let gs = gauss_seidel(&g, &GaussSeidelOpts { tol: 1e-13, ..Default::default() });
        assert!(l1_distance(&exact.scores, &gs.scores) < 1e-9);
        assert!((gs.scores.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn handles_self_loops() {
        let g = GraphBuilder::from_weighted_edges(
            3,
            &[(0, 0, 3.0), (0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
        );
        let exact = power(&g);
        let gs = gauss_seidel(&g, &GaussSeidelOpts { tol: 1e-13, ..Default::default() });
        assert!(l1_distance(&exact.scores, &gs.scores) < 1e-9);
    }

    #[test]
    fn converges_in_fewer_sweeps_than_power_iterations() {
        let g = random_graph(2000, 14_000, 23);
        let pw = RowStochastic::new(&g)
            .stationary(&PowerIterationOpts { tol: 1e-10, ..Default::default() });
        let gs = gauss_seidel(&g, &GaussSeidelOpts::default());
        assert!(pw.converged && gs.converged);
        assert!(
            gs.iterations < pw.iterations,
            "Gauss-Seidel ({}) should need fewer sweeps than power iteration ({})",
            gs.iterations,
            pw.iterations
        );
    }

    #[test]
    fn weighted_jump_supported() {
        let g = random_graph(100, 500, 29);
        let mut w = vec![0.0; 100];
        w[3] = 1.0;
        w[7] = 3.0;
        let jump = JumpVector::weighted(w);
        let exact = RowStochastic::new(&g).stationary(&PowerIterationOpts {
            jump: jump.clone(),
            tol: 1e-13,
            max_iter: 2000,
            ..Default::default()
        });
        let gs = gauss_seidel(&g, &GaussSeidelOpts { jump, tol: 1e-13, ..Default::default() });
        assert!(l1_distance(&exact.scores, &gs.scores) < 1e-8);
    }

    #[test]
    fn empty_graph() {
        let res = gauss_seidel(&CsrGraph::empty(0), &GaussSeidelOpts::default());
        assert!(res.converged);
        assert!(res.scores.is_empty());
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn bad_damping_panics() {
        gauss_seidel(&CsrGraph::empty(1), &GaussSeidelOpts { damping: 1.5, ..Default::default() });
    }
}
