//! Degree statistics and power-law diagnostics.
//!
//! The synthetic corpus generator is validated against these statistics
//! (heavy-tailed in-degree with exponent ~3 for preferential attachment),
//! and R-Table 1 reports them per dataset preset.

use crate::csr::CsrGraph;

/// Summary statistics of a degree sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Median degree.
    pub median: f64,
    /// Gini coefficient of the degree distribution (0 = equal, →1 =
    /// concentrated on few nodes).
    pub gini: f64,
    /// Fraction of nodes with degree zero.
    pub zero_fraction: f64,
}

fn degree_stats(mut degrees: Vec<usize>) -> DegreeStats {
    if degrees.is_empty() {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            median: 0.0,
            gini: 0.0,
            zero_fraction: 0.0,
        };
    }
    degrees.sort_unstable();
    let n = degrees.len();
    let sum: usize = degrees.iter().sum();
    let mean = sum as f64 / n as f64;
    let median = if n % 2 == 1 {
        degrees[n / 2] as f64
    } else {
        (degrees[n / 2 - 1] + degrees[n / 2]) as f64 / 2.0
    };
    let zero_fraction = degrees.iter().take_while(|&&d| d == 0).count() as f64 / n as f64;
    // Gini from the sorted sequence: G = (2·Σ i·x_i)/(n·Σ x) − (n+1)/n.
    let gini = if sum == 0 {
        0.0
    } else {
        let weighted: f64 =
            degrees.iter().enumerate().map(|(i, &d)| (i as f64 + 1.0) * d as f64).sum();
        (2.0 * weighted) / (n as f64 * sum as f64) - (n as f64 + 1.0) / n as f64
    };
    DegreeStats { min: degrees[0], max: degrees[n - 1], mean, median, gini, zero_fraction }
}

/// In-degree statistics of `g`.
pub fn in_degree_stats(g: &CsrGraph) -> DegreeStats {
    degree_stats(g.nodes().map(|v| g.in_degree(v)).collect())
}

/// Maximum-likelihood estimate of a discrete power-law exponent α for the
/// tail `degree >= x_min`, using the standard continuous approximation
/// (Clauset–Shalizi–Newman eq. 3.7 with the ½ offset):
///
/// ```text
/// α ≈ 1 + n · [ Σ ln( x_i / (x_min − ½) ) ]⁻¹
/// ```
///
/// Returns `None` if fewer than `min_tail` observations reach `x_min`.
pub fn power_law_alpha_mle(
    degrees: impl Iterator<Item = usize>,
    x_min: usize,
    min_tail: usize,
) -> Option<f64> {
    assert!(x_min >= 1, "x_min must be at least 1");
    let shift = x_min as f64 - 0.5;
    let mut n = 0usize;
    let mut log_sum = 0.0f64;
    for d in degrees {
        if d >= x_min {
            n += 1;
            log_sum += (d as f64 / shift).ln();
        }
    }
    if n < min_tail || log_sum <= 0.0 {
        None
    } else {
        Some(1.0 + n as f64 / log_sum)
    }
}

/// Estimate the power-law exponent of `g`'s in-degree tail.
pub fn in_degree_power_law_alpha(g: &CsrGraph, x_min: usize) -> Option<f64> {
    power_law_alpha_mle(g.nodes().map(|v| g.in_degree(v)), x_min, 25)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn star(n: u32) -> CsrGraph {
        // 1..n all point at 0.
        let edges: Vec<(u32, u32)> = (1..n).map(|i| (i, 0)).collect();
        GraphBuilder::from_edges(n, &edges)
    }

    #[test]
    fn star_in_degree_stats() {
        let g = star(11);
        let s = in_degree_stats(&g);
        assert_eq!(s.max, 10);
        assert_eq!(s.min, 0);
        assert!((s.mean - 10.0 / 11.0).abs() < 1e-12);
        assert_eq!(s.median, 0.0);
        assert!((s.zero_fraction - 10.0 / 11.0).abs() < 1e-12);
        assert!(s.gini > 0.85, "star should be maximally unequal, got {}", s.gini);
    }

    #[test]
    fn regular_graph_gini_zero() {
        // Cycle: every in-degree is 1.
        let g = GraphBuilder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let s = in_degree_stats(&g);
        assert!(s.gini.abs() < 1e-12);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1);
        assert_eq!(s.median, 1.0);
    }

    #[test]
    fn empty_graph_stats() {
        let g = CsrGraph::empty(0);
        let s = in_degree_stats(&g);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn alpha_mle_recovers_planted_exponent() {
        // Sample from a discrete power law P(X = x) ∝ x^-2.5 by inverse
        // transform on the continuous approximation.
        let alpha = 2.5f64;
        let x_min = 2usize;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut degrees = Vec::new();
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let x = (x_min as f64 - 0.5) * (1.0 - u).powf(-1.0 / (alpha - 1.0));
            degrees.push(x.round() as usize);
        }
        let est = power_law_alpha_mle(degrees.into_iter(), x_min, 100).unwrap();
        assert!((est - alpha).abs() < 0.1, "estimated {est}, wanted ~{alpha}");
    }

    #[test]
    fn alpha_mle_requires_tail() {
        assert_eq!(power_law_alpha_mle([1usize, 1, 1].into_iter(), 2, 1), None);
        assert_eq!(power_law_alpha_mle([5usize; 3].into_iter(), 2, 10), None);
    }
}
