//! Corpus perturbations for robustness experiments.
//!
//! [`sample_citations`] keeps each citation independently with a given
//! probability (the link-sparsity experiment, R-Fig 7): it simulates an
//! incomplete crawl.
//!
//! It is deterministic given the seed, and nested across fractions
//! (an edge dropped at keep = 0.8 is also dropped at keep = 0.5), which
//! makes degradation curves monotone by construction rather than noisy.

use crate::corpus::Corpus;

/// Deterministic per-citation hash in [0, 1): splitmix64 of
/// `(seed, src, dst)`. A citation compares the same unit against every
/// fraction, so samples drawn with one seed are nested.
fn edge_unit(seed: u64, src: u32, dst: u32) -> f64 {
    let mut z = seed ^ ((src as u64) << 32 | dst as u64).wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Keep each citation independently with probability `keep_fraction`.
/// Articles, authors, and venues are untouched.
pub fn sample_citations(corpus: &Corpus, keep_fraction: f64, seed: u64) -> Corpus {
    assert!(
        (0.0..=1.0).contains(&keep_fraction),
        "keep fraction must be a probability, got {keep_fraction}"
    );
    let mut out = corpus.clone();
    for a in &mut out.articles {
        let src = a.id.0;
        a.references.retain(|r| edge_unit(seed, src, r.0) < keep_fraction);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Preset;
    use crate::validate::validate;

    #[test]
    fn edge_unit_is_pinned() {
        // R-Fig 7's samples are these bits; a change here moves the figure.
        let unit = |k: u64| k as f64 / (1u64 << 53) as f64;
        assert_eq!(edge_unit(0, 0, 0), 0.0);
        assert_eq!(edge_unit(42, 7, 3), unit(2872231593355694));
        assert_eq!(edge_unit(0xdeadbeef, 123456, 654321), unit(7273913375714405));
        assert_eq!(edge_unit(u64::MAX, u32::MAX, 1), unit(6209197776128108));
    }

    #[test]
    fn keep_fraction_is_respected() {
        let c = Preset::Tiny.generate(30);
        let total = c.num_citations() as f64;
        for &f in &[0.3, 0.7] {
            let s = sample_citations(&c, f, 4);
            validate(&s).unwrap();
            let kept = s.num_citations() as f64 / total;
            assert!((kept - f).abs() < 0.05, "asked {f}, kept {kept}");
            assert_eq!(s.num_articles(), c.num_articles());
        }
        assert_eq!(sample_citations(&c, 1.0, 4), c);
        assert_eq!(sample_citations(&c, 0.0, 4).num_citations(), 0);
    }

    #[test]
    fn samples_are_nested() {
        let c = Preset::Tiny.generate(31);
        let small = sample_citations(&c, 0.3, 9);
        let large = sample_citations(&c, 0.7, 9);
        for (a_small, a_large) in small.articles().iter().zip(large.articles()) {
            for r in &a_small.references {
                assert!(a_large.references.contains(r), "nested sampling violated");
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_and_seed_sensitive() {
        let c = Preset::Tiny.generate(34);
        assert_eq!(sample_citations(&c, 0.5, 42), sample_citations(&c, 0.5, 42));
        assert_ne!(sample_citations(&c, 0.5, 42), sample_citations(&c, 0.5, 43));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_fraction_panics() {
        sample_citations(&Preset::Tiny.generate(35), 1.5, 0);
    }
}
