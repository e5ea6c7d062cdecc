//! The five workloads. Each takes the run's [`Env`] and a recorder and
//! returns an [`Outcome`]: operations attempted and failed, the five
//! end-to-end metrics, and (traced) the per-layer metrics it can see.

pub mod outofcore;
pub mod publish;
pub mod serve;

use crate::report::Outcome;
use crate::trace::Tracer;
use std::path::PathBuf;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Env {
    pub seed: u64,
    /// Measured seconds (`--seconds`).
    pub seconds: f64,
    /// `--trace 1`: record spans and run the per-layer probes.
    pub traced: bool,
    /// Tiny corpora and two segments; every check still runs.
    pub smoke: bool,
    /// The `scholar` CLI binary built from the root workspace.
    pub scholar_bin: PathBuf,
    /// Scratch space (`benchmark/work`); each run removes what it made.
    pub work_dir: PathBuf,
}

/// Run one workload by name.
pub fn run(name: &str, env: &Env, tracer: &mut Tracer) -> Result<Outcome, String> {
    match name {
        "publish" => publish::run(env, tracer),
        "outofcore" => outofcore::run(env, tracer),
        "serve-hot" => serve::run(serve::Mix::Hot, env, tracer),
        "serve-cold" => serve::run(serve::Mix::Cold, env, tracer),
        "serve-churn" => serve::run(serve::Mix::Churn, env, tracer),
        other => Err(format!(
            "unknown workload '{other}' (one of: {})",
            crate::report::WORKLOADS.join(", ")
        )),
    }
}

/// The distribution contract every ranker output must meet: finite,
/// non-negative, summing to 1 within 1e-9.
pub fn check_distribution(scores: &[f64]) -> Result<(), String> {
    if scores.is_empty() {
        return Err("empty score vector".to_string());
    }
    if let Some((i, s)) = scores.iter().enumerate().find(|(_, s)| !s.is_finite() || **s < 0.0) {
        return Err(format!("score[{i}] = {s} is not a finite non-negative number"));
    }
    let sum: f64 = scores.iter().sum();
    if (sum - 1.0).abs() > 1e-9 {
        return Err(format!("scores sum to {sum}, not 1 ± 1e-9"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_contract() {
        assert!(check_distribution(&[0.25, 0.75]).is_ok());
        assert!(check_distribution(&[0.0, 1.0]).is_ok());
        assert!(check_distribution(&[]).is_err());
        assert!(check_distribution(&[0.5, 0.6]).is_err());
        assert!(check_distribution(&[1.5, -0.5]).is_err());
        assert!(check_distribution(&[f64::NAN, 1.0]).is_err());
    }
}
