//! The materialised author citation graph — what the engine built, held
//! three times over and walked before the author walk went factorised
//! (`sgraph::ProjectedWalk`). It survives here, in test code only, as the
//! oracle the factorised walk is held to. [`jsonl`] keeps the
//! tree-building JSONL reader and writer the same way.
#![allow(dead_code)] // each suite that includes this uses its own subset

pub mod jsonl;

use scholar::corpus::model::{author_position_weights, Year};
use scholar::{QRankConfig, Rows, TimeWeightedPageRank};
use sgraph::stochastic::{PowerIterationOpts, PowerIterationResult};
use sgraph::{CsrGraph, GraphBuilder, JumpVector, NodeId, RowStochastic};
use std::ops::Range;

/// The contributions of the articles in `citing` to the author-aggregated
/// citation graph: edge `A(u) → A(v)` summed over article citations, the
/// citing byline weight times the cited byline weight, scaled by `f`.
/// Self-citations (same author both sides) are dropped when
/// `drop_self_citations` is true.
pub fn author_edges<V: Rows + ?Sized>(
    rows: &V,
    citing: Range<usize>,
    mut f: impl FnMut(Year, Year) -> f64,
    drop_self_citations: bool,
) -> GraphBuilder {
    let mut b = GraphBuilder::new(rows.num_authors() as u32).self_loops(!drop_self_citations);
    let (mut citing_buf, mut refs_buf, mut cited_buf) = (Vec::new(), Vec::new(), Vec::new());
    for i in citing {
        let byline = rows.byline(i, &mut citing_buf);
        if byline.is_empty() {
            continue;
        }
        let wa = author_position_weights(byline.len());
        let year = rows.year(i);
        for &r in rows.refs(i, &mut refs_buf) {
            let cited = rows.byline(r as usize, &mut cited_buf);
            if cited.is_empty() {
                continue;
            }
            let wc = author_position_weights(cited.len());
            let base = f(year, rows.year(r as usize));
            if base <= 0.0 {
                continue;
            }
            for (&ua, &pa) in byline.iter().zip(&wa) {
                for (&uc, &pc) in cited.iter().zip(&wc) {
                    if drop_self_citations && ua == uc {
                        continue;
                    }
                    b.add_edge(NodeId(ua), NodeId(uc), base * pa * pc);
                }
            }
        }
    }
    b
}

/// The whole author graph of `rows` under `cfg`'s decay and self-citation
/// rule.
pub fn author_graph<V: Rows + ?Sized>(rows: &V, cfg: &QRankConfig) -> CsrGraph {
    let decay = TimeWeightedPageRank::decay(cfg.twpr.rho);
    author_edges(rows, 0..rows.num_articles(), decay, cfg.drop_self_citations).build()
}

/// The options every structural walk of a plan under `cfg` runs with.
pub fn structural_opts(cfg: &QRankConfig) -> PowerIterationOpts {
    let pr = &cfg.twpr.pagerank;
    PowerIterationOpts {
        damping: pr.damping,
        jump: JumpVector::Uniform,
        tol: pr.tol,
        max_iter: pr.max_iter,
        threads: pr.threads,
        warm_start: None,
    }
}

/// The structural author walk over the materialised `graph`: its
/// operator (for the dangling set) and its un-normalised stationary.
pub fn author_walk(graph: &CsrGraph, cfg: &QRankConfig) -> (RowStochastic, PowerIterationResult) {
    let op = RowStochastic::new(graph);
    let res = op.stationary(&structural_opts(cfg));
    (op, res)
}
