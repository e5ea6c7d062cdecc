//! HITS (Kleinberg 1999) on the citation graph.
//!
//! In citation terms: an article is a good **authority** when cited by
//! good hubs (e.g. surveys), and a good **hub** when it cites good
//! authorities. The authority score is the article ranking.

use crate::context::RankContext;
use crate::diagnostics::Diagnostics;
use crate::ranker::Ranker;
use crate::telemetry::Stopwatch;
use crate::telemetry::{RankOutput, SolveTelemetry};
use sgraph::{CsrGraph, NodeId};

/// HITS parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HitsConfig {
    /// L1 convergence tolerance on the authority vector.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for HitsConfig {
    fn default() -> Self {
        HitsConfig { tol: 1e-10, max_iter: 200 }
    }
}

/// Hub and authority vectors plus convergence info.
#[derive(Debug, Clone)]
pub struct HitsResult {
    /// Authority scores (normalized to sum 1).
    pub authorities: Vec<f64>,
    /// Hub scores (normalized to sum 1).
    pub hubs: Vec<f64>,
    /// Convergence diagnostics.
    pub diagnostics: Diagnostics,
}

/// Run HITS on an arbitrary directed graph.
pub fn hits_on_graph(g: &CsrGraph, config: &HitsConfig) -> HitsResult {
    let n = g.len();
    if n == 0 {
        return HitsResult {
            authorities: Vec::new(),
            hubs: Vec::new(),
            diagnostics: Diagnostics::closed_form(),
        };
    }
    // Pack [authority | hub] into one 2n state vector so the shared
    // sgraph fixpoint driver runs the mutual reinforcement with
    // ping-pong buffers; its L1 residual over the packed vector equals
    // the auth-residual + hub-residual the hand-rolled loop tracked.
    let res =
        sgraph::stochastic::fixpoint(vec![1.0 / n as f64; 2 * n], config.tol, config.max_iter, {
            |x, y| {
                let x_hub = &x[n..];
                let (y_auth, y_hub) = y.split_at_mut(n);
                // auth(v) = Σ_{u → v} hub(u)
                for (v, slot) in y_auth.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for &u in g.in_neighbors(NodeId(v as u32)) {
                        acc += x_hub[u.index()];
                    }
                    *slot = acc;
                }
                sgraph::stochastic::normalize_l1(y_auth);
                // hub(u) = Σ_{u → v} auth(v), from this round's authorities,
                // scattered over the in-rows in ascending v: each hub adds
                // its terms in the order a pull over its out-row would.
                y_hub.fill(0.0);
                for (v, &a) in y_auth.iter().enumerate() {
                    for &u in g.in_neighbors(NodeId(v as u32)) {
                        y_hub[u.index()] += a;
                    }
                }
                sgraph::stochastic::normalize_l1(y_hub);
            }
        });
    // Degenerate graphs (no edges reaching the iteration) zero the
    // vectors out; fall back to uniform so scores stay a distribution.
    let mut auth = res.scores[..n].to_vec();
    let mut hub = res.scores[n..].to_vec();
    crate::scores::normalize_or_uniform(&mut auth);
    crate::scores::normalize_or_uniform(&mut hub);
    HitsResult {
        authorities: auth,
        hubs: hub,
        diagnostics: Diagnostics {
            iterations: res.iterations,
            converged: res.converged,
            residuals: res.residuals,
        },
    }
}

/// HITS-authority article ranker.
#[derive(Debug, Clone, Default)]
pub struct Hits {
    /// Parameters.
    pub config: HitsConfig,
}

impl Hits {
    /// HITS with the given configuration.
    pub fn new(config: HitsConfig) -> Self {
        Hits { config }
    }
}

impl Ranker for Hits {
    fn name(&self) -> String {
        "HITS".into()
    }

    fn solve_ctx(&self, ctx: &RankContext) -> RankOutput {
        let built = Stopwatch::start();
        let g = ctx.citation_graph();
        let build_secs = built.secs();
        let solved = Stopwatch::start();
        let res = hits_on_graph(&g.graph, &self.config);
        let telemetry = SolveTelemetry::timed(&res.diagnostics, build_secs, solved.secs());
        RankOutput { scores: res.authorities, telemetry }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgraph::GraphBuilder;

    #[test]
    fn authority_goes_to_the_cited() {
        // Hubs 0,1 both cite authorities 2,3; 3 also cited by 2? Keep a
        // clean bipartite citation pattern.
        let g = GraphBuilder::from_edges(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]);
        let res = hits_on_graph(&g, &HitsConfig::default());
        assert!(res.diagnostics.converged);
        assert!(res.authorities[2] > 0.4 && res.authorities[3] > 0.4);
        assert!(res.authorities[0] < 1e-9 && res.authorities[1] < 1e-9);
        assert!(res.hubs[0] > 0.4 && res.hubs[1] > 0.4);
        assert!((res.authorities.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((res.hubs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_authority() {
        // 2 is cited by both hubs, 3 by one: auth(2) > auth(3).
        let g = GraphBuilder::from_edges(4, &[(0, 2), (1, 2), (1, 3)]);
        let res = hits_on_graph(&g, &HitsConfig::default());
        assert!(res.authorities[2] > res.authorities[3]);
        // 1 cites two authorities, 0 one: hub(1) > hub(0).
        assert!(res.hubs[1] > res.hubs[0]);
    }

    #[test]
    fn empty_graph() {
        let res = hits_on_graph(&sgraph::CsrGraph::empty(0), &HitsConfig::default());
        assert!(res.authorities.is_empty());
        assert!(res.diagnostics.converged);
    }

    #[test]
    fn edgeless_graph_stays_put() {
        let res = hits_on_graph(&sgraph::CsrGraph::empty(3), &HitsConfig::default());
        // All-zero updates normalize to zero vectors; no panic, converges
        // after one round (residual = distance from uniform start).
        assert_eq!(res.authorities.len(), 3);
    }

    #[test]
    fn ranker_interface() {
        let c = scholar_corpus::generator::Preset::Tiny.generate(3);
        let r = Hits::default();
        let s = r.rank(&c);
        assert_eq!(s.len(), c.num_articles());
        assert_eq!(r.name(), "HITS");
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }
}
