//! Convergence diagnostics shared by all iterative rankers.

/// How an iterative ranker's fixpoint computation went.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostics {
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was reached before the iteration cap.
    pub converged: bool,
    /// L1 residual after each iteration (length = `iterations`).
    pub residuals: Vec<f64>,
}

impl Diagnostics {
    /// Diagnostics for a non-iterative (closed-form) ranker.
    pub fn closed_form() -> Self {
        Diagnostics { iterations: 0, converged: true, residuals: Vec::new() }
    }
}

impl From<sgraph::stochastic::PowerIterationResult> for Diagnostics {
    fn from(r: sgraph::stochastic::PowerIterationResult) -> Self {
        Diagnostics { iterations: r.iterations, converged: r.converged, residuals: r.residuals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_is_converged() {
        let d = Diagnostics::closed_form();
        assert!(d.converged);
        assert_eq!(d.iterations, 0);
        assert!(d.residuals.is_empty());
    }
}
