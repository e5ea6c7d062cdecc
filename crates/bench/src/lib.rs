#![warn(missing_docs)]

//! Shared experiment machinery for the `repro` and `tune` binaries.
//! Every R-Table / R-Figure of DESIGN.md §4 has one function here that
//! produces its rendered form; `repro` dispatches on the command line
//! and writes results under `results/`. Performance claims live in the
//! `benchmark/` ledger, not here.

pub mod experiments;

use scholar::corpus::Snapshot;
use scholar::{Corpus, Preset};

/// Fixed seed used by every experiment so EXPERIMENTS.md numbers are
/// exactly reproducible.
pub const SEED: u64 = 20180416; // ICDE 2018 main-conference date

/// Generate the corpus for a preset with the experiment seed.
pub fn corpus(preset: Preset) -> Corpus {
    preset.generate(SEED)
}

/// Snapshot a corpus at a fraction of its year span (0.8 = last 20% of
/// the timeline held out).
pub fn snapshot_at_frac(corpus: &Corpus, frac: f64) -> Snapshot {
    assert!((0.0..=1.0).contains(&frac), "fraction must be in [0, 1]");
    let (first, last) = corpus.year_range().expect("non-empty corpus");
    let cutoff = first + ((last - first) as f64 * frac).round() as i32;
    scholar::corpus::snapshot_until(corpus, cutoff)
}

/// The held-out future window (years) used by the future-citation ground
/// truth throughout the evaluation.
pub const FUTURE_WINDOW_YEARS: i32 = 5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_fraction_math() {
        let c = corpus(Preset::Tiny);
        let snap = snapshot_at_frac(&c, 0.8);
        let (first, last) = c.year_range().unwrap();
        assert!(snap.cutoff > first && snap.cutoff < last);
        assert!(snap.corpus.num_articles() < c.num_articles());
        let all = snapshot_at_frac(&c, 1.0);
        assert_eq!(all.corpus.num_articles(), c.num_articles());
    }
}
