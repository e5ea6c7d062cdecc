//! Weighted bipartite graphs (author↔article, venue↔article).
//!
//! A [`Bipartite`] stores both orientations in CSR form so that
//! left-to-right aggregation (an author's score from their articles) and
//! right-to-left aggregation (an article's score from its authors) are
//! both sequential scans. FutureRank's author↔paper propagation and
//! QRank's mutual-reinforcement steps are built on these.

use crate::builder::{absorb, locate};
use crate::scatter::{by_row_then_col, scatter};

/// Builder for a [`Bipartite`] graph.
#[derive(Debug, Clone)]
pub struct BipartiteBuilder {
    num_left: u32,
    num_right: u32,
    edges: Vec<(u32, u32, f64)>,
}

impl BipartiteBuilder {
    /// A builder for `num_left` left nodes and `num_right` right nodes.
    pub fn new(num_left: u32, num_right: u32) -> Self {
        BipartiteBuilder { num_left, num_right, edges: Vec::new() }
    }

    /// Stage an undirected weighted edge between left node `l` and right
    /// node `r`. Duplicate `(l, r)` pairs have their weights summed.
    ///
    /// # Panics
    /// Panics on out-of-bounds endpoints or invalid weight.
    pub fn add_edge(&mut self, l: u32, r: u32, weight: f64) {
        assert!(l < self.num_left, "left node {l} out of bounds ({})", self.num_left);
        assert!(r < self.num_right, "right node {r} out of bounds ({})", self.num_right);
        assert!(weight.is_finite() && weight >= 0.0, "invalid bipartite weight {weight}");
        self.edges.push((l, r, weight));
    }

    /// Build the immutable bipartite structure: both orientations through
    /// the crate's one counting-scatter kernel, like [`crate::GraphBuilder`].
    pub fn build(self) -> Bipartite {
        let BipartiteBuilder { num_left, num_right, edges } = self;
        let (nl, nr) = (num_left as usize, num_right as usize);
        let ordered = by_row_then_col(nl, &edges);
        drop(edges);
        let mut dedup: Vec<(u32, u32, f64)> = Vec::with_capacity(ordered.len());
        for (l, r, w) in ordered {
            match dedup.last_mut() {
                Some(last) if last.0 == l && last.1 == r => last.2 += w,
                _ => dedup.push((l, r, w)),
            }
        }
        let m = dedup.len();
        let (mut lr_targets, mut lr_weights) = (vec![0u32; m], vec![0f64; m]);
        let lr_offsets = scatter(
            nl,
            &dedup,
            |e| e.0 as usize,
            |slot, &(_, r, w)| {
                lr_targets[slot] = r;
                lr_weights[slot] = w;
            },
        );
        let (mut rl_targets, mut rl_weights) = (vec![0u32; m], vec![0f64; m]);
        let rl_offsets = scatter(
            nr,
            &dedup,
            |e| e.1 as usize,
            |slot, &(l, _, w)| {
                rl_targets[slot] = l;
                rl_weights[slot] = w;
            },
        );

        Bipartite {
            num_left,
            num_right,
            lr_offsets,
            lr_targets,
            lr_weights,
            rl_offsets,
            rl_targets,
            rl_weights,
        }
    }

    /// Build the staged edges *onto* an existing bipartite, in place:
    /// `base` becomes what [`Self::build`] would have produced had `base`'s
    /// own staged edges come first in one builder,
    ///
    /// ```text
    /// build(base ++ delta) == build(base).then(build_onto(delta))
    /// ```
    ///
    /// bit for bit in every offset, id and weight, both node counts growing
    /// to the larger of the two — the law of
    /// [`GraphBuilder::build_onto`](crate::GraphBuilder::build_onto), and
    /// its rule: a pair staged more than once sums its contributions one at
    /// a time, in staging order.
    ///
    /// Only a delta whose right nodes are all new is taken: the shape of an
    /// append, where the right nodes are articles and a batch stages edges
    /// of its own articles only. No stored pair is then ever hit, each left
    /// row gains its new entries at its end, and the new right rows go
    /// after the old ones — one backward pass per orientation moves each
    /// stored entry at most once.
    ///
    /// # Panics
    /// If a staged edge reaches a right node `base` already has.
    pub fn build_onto(self, base: &mut Bipartite) {
        let BipartiteBuilder { num_left, num_right, edges } = self;
        if let Some(&(l, r, _)) = edges.iter().find(|e| e.1 < base.num_right) {
            panic!(
                "build_onto: edge ({l}, {r}) reaches right node {r} of the base's {}",
                base.num_right
            );
        }
        let (nl, nr) = (num_left.max(base.num_left), num_right.max(base.num_right));
        let by_left = by_row_then_col(nl as usize, &edges);
        drop(edges);
        let landings = locate(&base.lr_offsets, &base.lr_targets, &by_left);
        let (offsets, ids, weights) =
            (&mut base.lr_offsets, &mut base.lr_targets, &mut base.lr_weights);
        absorb(offsets, ids, weights, nl as usize, &by_left, &landings);
        // Scattering the (l, r)-ordered edges by r leaves each new right
        // row left-ascending, a pair's contributions still in staging order.
        let mut by_right = vec![(0, 0, 0.0); by_left.len()];
        scatter(
            nr as usize,
            &by_left,
            |e| e.1 as usize,
            |slot, &(l, r, w)| by_right[slot] = (r, l, w),
        );
        let landings = locate(&base.rl_offsets, &base.rl_targets, &by_right);
        let (offsets, ids, weights) =
            (&mut base.rl_offsets, &mut base.rl_targets, &mut base.rl_weights);
        absorb(offsets, ids, weights, nr as usize, &by_right, &landings);
        base.num_left = nl;
        base.num_right = nr;
    }
}

/// What the weighted-mean kernels make of one node's gather: the mean, 0
/// for an isolated node.
fn weighted_mean(acc: f64, wsum: f64) -> f64 {
    if wsum > 0.0 {
        acc / wsum
    } else {
        0.0
    }
}

/// An immutable weighted bipartite graph with both orientations.
#[derive(Debug, Clone, PartialEq)]
pub struct Bipartite {
    num_left: u32,
    num_right: u32,
    lr_offsets: Vec<usize>,
    lr_targets: Vec<u32>,
    lr_weights: Vec<f64>,
    rl_offsets: Vec<usize>,
    rl_targets: Vec<u32>,
    rl_weights: Vec<f64>,
}

impl Bipartite {
    /// Number of left nodes.
    pub fn num_left(&self) -> u32 {
        self.num_left
    }

    /// Number of right nodes.
    pub fn num_right(&self) -> u32 {
        self.num_right
    }

    /// Number of (deduplicated) edges.
    pub fn num_edges(&self) -> usize {
        self.lr_targets.len()
    }

    /// Right neighbors of left node `l`, sorted ascending.
    pub fn right_of(&self, l: u32) -> &[u32] {
        &self.lr_targets[self.lr_offsets[l as usize]..self.lr_offsets[l as usize + 1]]
    }

    /// Weights parallel to [`Self::right_of`].
    pub fn right_weights_of(&self, l: u32) -> &[f64] {
        &self.lr_weights[self.lr_offsets[l as usize]..self.lr_offsets[l as usize + 1]]
    }

    /// Left neighbors of right node `r`, sorted ascending.
    pub fn left_of(&self, r: u32) -> &[u32] {
        &self.rl_targets[self.rl_offsets[r as usize]..self.rl_offsets[r as usize + 1]]
    }

    /// Weights parallel to [`Self::left_of`].
    pub fn left_weights_of(&self, r: u32) -> &[f64] {
        &self.rl_weights[self.rl_offsets[r as usize]..self.rl_offsets[r as usize + 1]]
    }

    /// Weighted-mean aggregation from right scores to left nodes:
    /// `out[l] = Σ_r w(l,r)·score[r] / Σ_r w(l,r)`, 0 for isolated `l`.
    pub fn aggregate_to_left(&self, right_scores: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.num_left as usize];
        self.aggregate_to_left_into(right_scores, &mut out);
        out
    }

    /// Weighted-mean aggregation from left scores to right nodes.
    pub fn aggregate_to_right(&self, left_scores: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.num_right as usize];
        self.aggregate_to_right_into(left_scores, &mut out);
        out
    }

    /// [`Self::aggregate_to_left`] into a caller-provided buffer, so
    /// solve-many loops can run allocation-free. Isolated left nodes are
    /// written as 0 (the buffer need not be pre-zeroed).
    pub fn aggregate_to_left_into(&self, right_scores: &[f64], out: &mut [f64]) {
        assert_eq!(right_scores.len(), self.num_right as usize, "score length mismatch");
        assert_eq!(out.len(), self.num_left as usize, "output length mismatch");
        self.gather_left_range(right_scores, 0..self.num_left as usize, out, weighted_mean);
    }

    /// [`Self::aggregate_to_right`] into a caller-provided buffer.
    /// Isolated right nodes are written as 0.
    pub fn aggregate_to_right_into(&self, left_scores: &[f64], out: &mut [f64]) {
        assert_eq!(left_scores.len(), self.num_left as usize, "score length mismatch");
        assert_eq!(out.len(), self.num_right as usize, "output length mismatch");
        self.gather_right_range(left_scores, 0..self.num_right as usize, out, weighted_mean);
    }

    /// Parallel [`Self::aggregate_to_left_into`] over precomputed ranges
    /// (see [`Self::left_ranges`]). Each worker gathers into a disjoint
    /// chunk of `out`; the result is bitwise identical to the sequential
    /// path for any partition, because every output element is produced by
    /// the same per-node loop.
    pub fn aggregate_to_left_into_par(
        &self,
        right_scores: &[f64],
        out: &mut [f64],
        ranges: &[std::ops::Range<usize>],
    ) {
        assert_eq!(right_scores.len(), self.num_right as usize, "score length mismatch");
        assert_eq!(out.len(), self.num_left as usize, "output length mismatch");
        crate::par::for_each_range_mut(out, ranges, |range, chunk| {
            self.gather_left_range(right_scores, range, chunk, weighted_mean);
        });
    }

    /// Parallel [`Self::aggregate_to_right_into`] over precomputed ranges
    /// (see [`Self::right_ranges`]).
    pub fn aggregate_to_right_into_par(
        &self,
        left_scores: &[f64],
        out: &mut [f64],
        ranges: &[std::ops::Range<usize>],
    ) {
        assert_eq!(left_scores.len(), self.num_left as usize, "score length mismatch");
        assert_eq!(out.len(), self.num_right as usize, "output length mismatch");
        crate::par::for_each_range_mut(out, ranges, |range, chunk| {
            self.gather_right_range(left_scores, range, chunk, weighted_mean);
        });
    }

    /// Contiguous left-node ranges balanced by edge count, for
    /// [`Self::aggregate_to_left_into_par`]. Compute once per
    /// `(graph, threads)` pair and reuse across iterations.
    pub fn left_ranges(&self, threads: usize) -> Vec<std::ops::Range<usize>> {
        crate::par::balanced_ranges(&self.lr_offsets, threads)
    }

    /// Contiguous right-node ranges balanced by edge count, for
    /// [`Self::aggregate_to_right_into_par`].
    pub fn right_ranges(&self, threads: usize) -> Vec<std::ops::Range<usize>> {
        crate::par::balanced_ranges(&self.rl_offsets, threads)
    }

    /// Weighted-**sum** counterpart of [`Self::aggregate_to_left_into_par`]:
    /// `out[l] = Σ_r w(l,r)·score[r]`, the plain product with the weight
    /// matrix. Same per-node loop, so the same bitwise independence of the
    /// partition.
    pub fn sum_to_left_into_par(
        &self,
        right_scores: &[f64],
        out: &mut [f64],
        ranges: &[std::ops::Range<usize>],
    ) {
        assert_eq!(right_scores.len(), self.num_right as usize, "score length mismatch");
        assert_eq!(out.len(), self.num_left as usize, "output length mismatch");
        crate::par::for_each_range_mut(out, ranges, |range, chunk| {
            self.gather_left_range(right_scores, range, chunk, |acc, _| acc);
        });
    }

    /// The one gather for left nodes in `range`: `chunk` is the `out[range]`
    /// slice (chunk[i] corresponds to left node range.start+i) and receives
    /// `finish(Σ_r w(l,r)·score[r], Σ_r w(l,r))` — [`weighted_mean`] or the
    /// bare sum.
    fn gather_left_range(
        &self,
        right_scores: &[f64],
        range: std::ops::Range<usize>,
        chunk: &mut [f64],
        finish: impl Fn(f64, f64) -> f64,
    ) {
        for (slot, l) in range.enumerate() {
            let rs = &self.lr_targets[self.lr_offsets[l]..self.lr_offsets[l + 1]];
            let ws = &self.lr_weights[self.lr_offsets[l]..self.lr_offsets[l + 1]];
            let mut acc = 0.0;
            let mut wsum = 0.0;
            for (&r, &w) in rs.iter().zip(ws) {
                acc += w * right_scores[r as usize];
                wsum += w;
            }
            chunk[slot] = finish(acc, wsum);
        }
    }

    /// Mirror of [`Self::gather_left_range`] for right nodes.
    fn gather_right_range(
        &self,
        left_scores: &[f64],
        range: std::ops::Range<usize>,
        chunk: &mut [f64],
        finish: impl Fn(f64, f64) -> f64,
    ) {
        for (slot, r) in range.enumerate() {
            let ls = &self.rl_targets[self.rl_offsets[r]..self.rl_offsets[r + 1]];
            let ws = &self.rl_weights[self.rl_offsets[r]..self.rl_offsets[r + 1]];
            let mut acc = 0.0;
            let mut wsum = 0.0;
            for (&l, &w) in ls.iter().zip(ws) {
                acc += w * left_scores[l as usize];
                wsum += w;
            }
            chunk[slot] = finish(acc, wsum);
        }
    }

    /// Sum-propagation from right to left with per-edge normalization over
    /// the *right* node's degree: `out[l] = Σ_r score[r]·w(l,r)/W(r)` where
    /// `W(r)` is `r`'s total weight. This is the HITS/FutureRank-style
    /// "split your mass among your endpoints" step; it conserves the total
    /// mass of scores sitting on non-isolated right nodes.
    pub fn distribute_to_left(&self, right_scores: &[f64]) -> Vec<f64> {
        assert_eq!(right_scores.len(), self.num_right as usize, "score length mismatch");
        let mut out = vec![0.0; self.num_left as usize];
        for r in 0..self.num_right {
            let ls = self.left_of(r);
            let ws = self.left_weights_of(r);
            let wsum: f64 = ws.iter().sum();
            if wsum <= 0.0 {
                continue;
            }
            let s = right_scores[r as usize] / wsum;
            for (&l, &w) in ls.iter().zip(ws) {
                out[l as usize] += s * w;
            }
        }
        out
    }

    /// Sum-propagation from left to right with per-edge normalization over
    /// the *left* node's degree. Mirror of [`Self::distribute_to_left`].
    pub fn distribute_to_right(&self, left_scores: &[f64]) -> Vec<f64> {
        assert_eq!(left_scores.len(), self.num_left as usize, "score length mismatch");
        let mut out = vec![0.0; self.num_right as usize];
        for l in 0..self.num_left {
            let rs = self.right_of(l);
            let ws = self.right_weights_of(l);
            let wsum: f64 = ws.iter().sum();
            if wsum <= 0.0 {
                continue;
            }
            let s = left_scores[l as usize] / wsum;
            for (&r, &w) in rs.iter().zip(ws) {
                out[r as usize] += s * w;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    /// 2 authors, 3 articles. Author 0 wrote articles 0,1; author 1 wrote
    /// articles 1,2. Article 1 is co-authored.
    fn authors_articles() -> Bipartite {
        let mut b = BipartiteBuilder::new(2, 3);
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 1, 0.5);
        b.add_edge(1, 1, 0.5);
        b.add_edge(1, 2, 1.0);
        b.build()
    }

    #[test]
    fn shape_and_adjacency() {
        let bp = authors_articles();
        assert_eq!(bp.num_left(), 2);
        assert_eq!(bp.num_right(), 3);
        assert_eq!(bp.num_edges(), 4);
        assert_eq!(bp.right_of(0), &[0, 1]);
        assert_eq!(bp.left_of(1), &[0, 1]);
        assert_eq!(bp.left_of(2), &[1]);
        assert_eq!(bp.right_weights_of(0), &[1.0, 0.5]);
        assert_eq!(bp.left_weights_of(1), &[0.5, 0.5]);
    }

    #[test]
    fn into_variants_match_allocating_and_reset_stale_buffers() {
        let bp = authors_articles();
        let right_scores = [0.1, 0.6, 0.3];
        let left_scores = [0.7, 0.3];
        // Poisoned buffers: `_into` must overwrite every slot, including
        // isolated nodes (the allocating path relies on a fresh zeroed vec).
        let mut left_out = vec![f64::MAX; 2];
        bp.aggregate_to_left_into(&right_scores, &mut left_out);
        assert_eq!(left_out, bp.aggregate_to_left(&right_scores));
        let mut right_out = vec![f64::MAX; 3];
        bp.aggregate_to_right_into(&left_scores, &mut right_out);
        assert_eq!(right_out, bp.aggregate_to_right(&left_scores));

        // Isolated nodes are explicitly zeroed.
        let mut b = BipartiteBuilder::new(3, 2);
        b.add_edge(0, 0, 1.0);
        let sparse = b.build();
        let mut out = vec![9.9; 3];
        sparse.aggregate_to_left_into(&[1.0, 1.0], &mut out);
        assert_eq!(out[1], 0.0);
        assert_eq!(out[2], 0.0);
    }

    #[test]
    fn parallel_aggregation_is_bitwise_sequential() {
        // Big enough to produce several ranges; skewed degrees so the
        // balanced partition is non-trivial.
        let (nl, nr) = (500u32, 300u32);
        let mut b = BipartiteBuilder::new(nl, nr);
        let mut state = 0x9e3779b9u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for _ in 0..4000 {
            let l = next() % nl;
            let r = next() % nr;
            let w = 0.5 + (next() % 8) as f64;
            b.add_edge(l, r, w);
        }
        let bp = b.build();
        let right_scores: Vec<f64> = (0..nr).map(|i| 1.0 / (i + 1) as f64).collect();
        let left_scores: Vec<f64> = (0..nl).map(|i| (i % 7) as f64 + 0.25).collect();
        let seq_l = bp.aggregate_to_left(&right_scores);
        let seq_r = bp.aggregate_to_right(&left_scores);
        for threads in [1usize, 2, 8] {
            let mut par_l = vec![f64::MAX; nl as usize];
            bp.aggregate_to_left_into_par(&right_scores, &mut par_l, &bp.left_ranges(threads));
            assert_eq!(par_l, seq_l, "left aggregation differs at {threads} threads");
            let mut par_r = vec![f64::MAX; nr as usize];
            bp.aggregate_to_right_into_par(&left_scores, &mut par_r, &bp.right_ranges(threads));
            assert_eq!(par_r, seq_r, "right aggregation differs at {threads} threads");
        }
    }

    #[test]
    fn duplicate_edges_merge() {
        let mut b = BipartiteBuilder::new(1, 1);
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 0, 2.0);
        let bp = b.build();
        assert_eq!(bp.num_edges(), 1);
        assert_eq!(bp.right_weights_of(0), &[3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_left_panics() {
        let mut b = BipartiteBuilder::new(1, 1);
        b.add_edge(1, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid bipartite weight")]
    fn nan_weight_panics() {
        let mut b = BipartiteBuilder::new(1, 1);
        b.add_edge(0, 0, f64::NAN);
    }

    #[test]
    fn aggregate_to_left_is_weighted_mean() {
        let bp = authors_articles();
        let article_scores = [0.9, 0.6, 0.3];
        let a = bp.aggregate_to_left(&article_scores);
        // Author 0: (1.0*0.9 + 0.5*0.6) / 1.5 = 0.8
        assert_close(a[0], 0.8);
        // Author 1: (0.5*0.6 + 1.0*0.3) / 1.5 = 0.4
        assert_close(a[1], 0.4);
    }

    #[test]
    fn aggregate_to_right_is_weighted_mean() {
        let bp = authors_articles();
        let author_scores = [1.0, 0.0];
        let s = bp.aggregate_to_right(&author_scores);
        assert_close(s[0], 1.0); // only author 0
        assert_close(s[1], 0.5); // equal-weight mix
        assert_close(s[2], 0.0); // only author 1
    }

    #[test]
    fn isolated_nodes_score_zero() {
        let mut b = BipartiteBuilder::new(2, 2);
        b.add_edge(0, 0, 1.0);
        let bp = b.build();
        let left = bp.aggregate_to_left(&[1.0, 1.0]);
        assert_close(left[1], 0.0);
        let right = bp.aggregate_to_right(&[1.0, 1.0]);
        assert_close(right[1], 0.0);
    }

    #[test]
    fn distribute_conserves_mass() {
        let bp = authors_articles();
        let article_scores = [0.9, 0.6, 0.3];
        let left = bp.distribute_to_left(&article_scores);
        assert_close(left.iter().sum::<f64>(), article_scores.iter().sum::<f64>());
        let back = bp.distribute_to_right(&left);
        assert_close(back.iter().sum::<f64>(), article_scores.iter().sum::<f64>());
    }

    #[test]
    fn distribute_splits_by_weight() {
        let mut b = BipartiteBuilder::new(2, 1);
        b.add_edge(0, 0, 3.0);
        b.add_edge(1, 0, 1.0);
        let bp = b.build();
        let left = bp.distribute_to_left(&[1.0]);
        assert_close(left[0], 0.75);
        assert_close(left[1], 0.25);
    }

    #[test]
    fn empty_bipartite() {
        let bp = BipartiteBuilder::new(0, 0).build();
        assert_eq!(bp.num_edges(), 0);
        assert!(bp.aggregate_to_left(&[]).is_empty());
        assert!(bp.distribute_to_right(&[]).is_empty());
    }
}
