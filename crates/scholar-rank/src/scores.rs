//! Score-vector utilities shared by rankers and the evaluation harness.

/// Normalize `v` to sum 1 in place; leaves an all-zero vector untouched.
pub fn normalize(v: &mut [f64]) {
    sgraph::stochastic::normalize_l1(v);
}

/// Normalize `v` to sum 1, falling back to the uniform distribution when
/// the vector carries no mass ("no evidence" ⇒ every article equally
/// plausible). This keeps the [`crate::Ranker`] contract — scores always
/// form a distribution — even on degenerate corpora with zero citations.
pub fn normalize_or_uniform(v: &mut [f64]) {
    let s: f64 = v.iter().sum();
    if s > 0.0 {
        for e in v.iter_mut() {
            *e /= s;
        }
    } else if !v.is_empty() {
        let u = 1.0 / v.len() as f64;
        for e in v.iter_mut() {
            *e = u;
        }
    }
}

/// Indices of the `k` largest scores, descending; ties broken by smaller
/// index first (deterministic).
pub fn top_k(scores: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
}

/// Dense competition ranks (1 = best). Ties share the smallest rank of the
/// tied block ("1224" ranking), matching how published rankings report
/// tied citation counts.
pub fn competition_ranks(scores: &[f64]) -> Vec<usize> {
    let order = top_k(scores, scores.len());
    let mut ranks = vec![0usize; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        for &item in &order[i..=j] {
            ranks[item] = i + 1;
        }
        i = j + 1;
    }
    ranks
}

/// Fractional ranks (average rank within each tie block), the form needed
/// by Spearman correlation.
pub fn fractional_ranks(scores: &[f64]) -> Vec<f64> {
    let order = top_k(scores, scores.len());
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg = (i + 1 + j + 1) as f64 / 2.0;
        for &item in &order[i..=j] {
            ranks[item] = avg;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_orders_descending_with_stable_ties() {
        let s = [0.1, 0.5, 0.5, 0.3];
        assert_eq!(top_k(&s, 4), vec![1, 2, 3, 0]);
        assert_eq!(top_k(&s, 2), vec![1, 2]);
        assert_eq!(top_k(&s, 0), Vec::<usize>::new());
        assert_eq!(top_k(&s, 99).len(), 4);
    }

    #[test]
    fn competition_ranks_share_min_rank() {
        let s = [0.1, 0.5, 0.5, 0.3];
        // 0.5s rank 1, 0.3 ranks 3, 0.1 ranks 4.
        assert_eq!(competition_ranks(&s), vec![4, 1, 1, 3]);
    }

    #[test]
    fn fractional_ranks_average_ties() {
        let s = [0.1, 0.5, 0.5, 0.3];
        assert_eq!(fractional_ranks(&s), vec![4.0, 1.5, 1.5, 3.0]);
    }

    #[test]
    fn normalize_and_scale() {
        let mut v = vec![1.0, 3.0];
        normalize(&mut v);
        assert!((v[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_vectors() {
        assert!(top_k(&[], 3).is_empty());
        assert!(competition_ranks(&[]).is_empty());
        assert!(fractional_ranks(&[]).is_empty());
    }
}
