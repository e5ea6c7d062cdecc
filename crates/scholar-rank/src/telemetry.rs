//! Unified per-solve observability shared by every ranker.
//!
//! [`SolveTelemetry`] extends the bare convergence [`Diagnostics`] with
//! the wall-clock split every caller wants: how long was spent preparing
//! inputs (graph builds not already cached in the
//! [`crate::context::RankContext`]) versus iterating to the fixpoint. One
//! shape for every method means the evaluation tables and the CLI can
//! report solver behaviour without knowing which ranker produced it.

use crate::diagnostics::Diagnostics;
use std::time::Instant;

/// The one sanctioned wall-clock source in the score-producing crates.
///
/// Timing never influences scores — it only fills the observability
/// fields of [`SolveTelemetry`] — but scattering `Instant::now()` across
/// rankers makes that impossible to audit. Every ranker times itself
/// through this wrapper instead, so scholar-lint's DETERMINISM rule has
/// exactly one allowlisted clock read to point at.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        // lint: allow(DETERMINISM) sole clock read in the score crates; feeds telemetry only, never scores
        Stopwatch(Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`], as the `f64` the
    /// telemetry fields carry.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// What one ranker solve did: convergence trajectory plus wall-clock
/// split between input preparation and iteration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveTelemetry {
    /// Iterations performed (0 for closed-form scores).
    pub iterations: usize,
    /// Whether the tolerance was reached before the iteration cap
    /// (vacuously true for closed-form scores).
    pub converged: bool,
    /// L1 residual after each iteration (length = `iterations`).
    pub residuals: Vec<f64>,
    /// Seconds spent building graphs/operators that were not already
    /// cached (0 when every input came from the shared context).
    pub build_secs: f64,
    /// Seconds spent in the fixpoint iteration itself.
    pub solve_secs: f64,
}

impl SolveTelemetry {
    /// Telemetry for a non-iterative (closed-form) ranker.
    pub fn closed_form() -> Self {
        SolveTelemetry { converged: true, ..Default::default() }
    }

    /// Telemetry carrying a solve's convergence diagnostics; timing
    /// fields start at zero and are filled in by the caller.
    pub fn from_diagnostics(d: &Diagnostics) -> Self {
        SolveTelemetry {
            iterations: d.iterations,
            converged: d.converged,
            residuals: d.residuals.clone(),
            ..Default::default()
        }
    }

    /// Diagnostics plus the measured wall-clock split — the one-liner
    /// every context-aware ranker ends its solve with.
    pub fn timed(d: &Diagnostics, build_secs: f64, solve_secs: f64) -> Self {
        SolveTelemetry { build_secs, solve_secs, ..SolveTelemetry::from_diagnostics(d) }
    }

    /// The final L1 residual, if any iteration ran.
    pub fn final_residual(&self) -> Option<f64> {
        self.residuals.last().copied()
    }
}

/// One ranker solve: the normalized article scores plus how the solve
/// went. Returned by [`crate::ranker::Ranker::solve_ctx`].
#[derive(Debug, Clone, PartialEq)]
pub struct RankOutput {
    /// One non-negative score per article, normalized to sum 1.
    pub scores: Vec<f64>,
    /// Unified solver telemetry for this run.
    pub telemetry: SolveTelemetry,
}

impl RankOutput {
    /// Closed-form output: scores with trivially-converged telemetry.
    pub fn closed_form(scores: Vec<f64>) -> Self {
        RankOutput { scores, telemetry: SolveTelemetry::closed_form() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_is_converged_with_no_iterations() {
        let t = SolveTelemetry::closed_form();
        assert!(t.converged);
        assert_eq!(t.iterations, 0);
        assert_eq!(t.final_residual(), None);
    }

    #[test]
    fn diagnostics_roundtrip() {
        let d = Diagnostics { iterations: 3, converged: true, residuals: vec![0.5, 0.1, 0.01] };
        let t = SolveTelemetry::from_diagnostics(&d);
        assert_eq!(t.iterations, 3);
        assert_eq!(t.final_residual(), Some(0.01));
        assert_eq!((t.converged, &t.residuals), (d.converged, &d.residuals));
    }
}
