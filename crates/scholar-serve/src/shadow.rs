//! The promotion gate: prove a candidate index on recorded traffic
//! before it serves.
//!
//! The ranking is query-independent, so swapping the index silently
//! changes what *every* client sees. The WSDM-Cup systems validated each
//! ranking variant against held-out data before shipping it; this module
//! is the production analogue, and it runs offline. A server started
//! with a [`crate::Recorder`] logs what the live index answered (RLOGv1,
//! [`crate::record`]); [`replay_mirror`] re-asks every recorded request
//! of the live index and of a candidate, and folds the drift between the
//! two answers — top-k overlap, Kendall tau, score L1, status mismatches
//! — into a [`ShadowReport`]. The candidate may be published only when
//! [`ShadowReport::failures`] against [`ShadowThresholds`] is empty.
//!
//! Every drift statistic is an integer (hit counts, concordant/discordant
//! pair counts, score L1 in rounded nanos), and both sides' statuses come
//! from the same pure `status_for` routing, so the report is a pure
//! function of the *set* of recorded targets and the two indexes: the
//! order the records are folded in cannot change a single field.

use crate::http::{self, Request};
use crate::index::{Hit, ScoreIndex};
use crate::record::ReqRecord;
use crate::server::{self, Route};
use scholar_corpus::ArticleId;

/// Gates a candidate's promotion: it may serve only when its
/// [`ShadowReport`] has no [`ShadowReport::failures`] against these.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowThresholds {
    /// Minimum replayed requests before the report is decision-worthy;
    /// a shorter log is a failure, not a pass on thin evidence.
    pub min_mirrored: u64,
    /// Minimum mean top-k overlap (`|live ∩ candidate| / slots`) across
    /// replayed `/top` requests, in `[0, 1]`.
    pub min_topk_overlap: f64,
    /// Minimum Kendall tau over ids both sides ranked, in `[-1, 1]`.
    pub min_kendall_tau: f64,
    /// Maximum mean absolute score difference per compared article.
    pub max_score_l1: f64,
    /// Maximum tolerated status mismatches (the candidate would answer a
    /// replayed request with a different status than the live index).
    pub max_status_mismatches: u64,
}

impl Default for ShadowThresholds {
    fn default() -> Self {
        ShadowThresholds {
            min_mirrored: 64,
            min_topk_overlap: 0.95,
            min_kendall_tau: 0.9,
            max_score_l1: 1e-3,
            max_status_mismatches: 0,
        }
    }
}

/// Endpoint classes drift is attributed to. Public so the replay driver
/// labels its per-endpoint digests with the same names.
pub const ENDPOINTS: [&str; 5] = ["top", "article", "health", "metrics", "other"];

/// Map a request path (query string already split off) to its index in
/// [`ENDPOINTS`].
pub fn endpoint_class(path: &str) -> usize {
    match path {
        "/top" => 0,
        "/health" => 2,
        "/metrics" => 3,
        _ if path.starts_with("/article/") => 1,
        _ => 4,
    }
}

/// Drift between the two answers to one request — all integers, so a
/// report's totals do not depend on the order requests are folded in.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Drift {
    top_compared: u64,
    overlap_hits: u64,
    overlap_slots: u64,
    concordant: u64,
    discordant: u64,
    pairs: u64,
    score_l1_nanos: u64,
    score_pairs: u64,
    status_mismatch: bool,
}

/// Pure routing-status oracle: the status this index would answer the
/// request with, plus the ranked hits for `/top`. It consumes the same
/// [`server::route`] decision the live router does, without building
/// bodies — both sides of a comparison go through it, which is what
/// makes status mismatches a statement about the *indexes* rather than
/// about which code path happened to answer.
pub(crate) fn status_for(req: &Request, index: &ScoreIndex) -> (u16, Option<Vec<Hit>>) {
    match server::route(req, index) {
        Route::Health | Route::Metrics => (200, None),
        Route::Top(Ok(q)) => (200, Some(index.top(&q))),
        Route::Article(Ok(id)) if index.detail(ArticleId(id), 0).is_some() => (200, None),
        Route::Top(Err(_)) | Route::Article(Err(_)) => (400, None),
        Route::Article(Ok(_)) | Route::NotFound => (404, None),
    }
}

/// Compare one request across the live and candidate indexes.
fn drift_for(req: &Request, live: &ScoreIndex, candidate: &ScoreIndex) -> Drift {
    let (live_status, live_hits) = status_for(req, live);
    let (cand_status, cand_hits) = status_for(req, candidate);
    let mut d = Drift { status_mismatch: live_status != cand_status, ..Drift::default() };
    if let (Some(l), Some(c)) = (live_hits, cand_hits) {
        d.top_compared = 1;
        let slots = l.len().max(c.len()) as u64;
        d.overlap_slots = slots;
        // Rank of each id on the candidate side, for overlap + tau.
        let cand_rank: Vec<(u32, usize)> = c.iter().enumerate().map(|(i, h)| (h.id.0, i)).collect();
        let rank_in_cand = |id: u32| cand_rank.iter().find(|&&(cid, _)| cid == id).map(|&(_, r)| r);
        // Ids both sides ranked, in live order, with their candidate rank.
        let mut common: Vec<(usize, usize)> = Vec::new();
        for (li, h) in l.iter().enumerate() {
            if let Some(ci) = rank_in_cand(h.id.0) {
                d.overlap_hits += 1;
                let dv = (live.score(h.id) - candidate.score(h.id)).abs();
                // Stationary scores are probabilities (≤ 1), so the
                // per-pair nano count fits u64 with room for ~1e10 pairs.
                d.score_l1_nanos += (dv * 1e9).round() as u64;
                d.score_pairs += 1;
                common.push((li, ci));
            }
        }
        // Kendall tau over the common ids: concordant iff live order and
        // candidate order agree on the pair. `common` is sorted by live
        // rank, so a pair is concordant exactly when candidate ranks are
        // increasing too.
        for i in 0..common.len() {
            for j in i + 1..common.len() {
                d.pairs += 1;
                // lint: allow(HOTPATH-PANIC) i < j < common.len() by the loop bounds
                if common[j].1 > common[i].1 {
                    d.concordant += 1;
                } else {
                    d.discordant += 1;
                }
            }
        }
    }
    d
}

/// The evidence for or against a candidate: every field is a raw integer
/// total over the replayed requests, and the ratios
/// ([`ShadowReport::topk_overlap`] etc.) are derived from them, so two
/// reports with equal integers are equal, full stop.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ShadowReport {
    /// Requests replayed against both indexes.
    pub mirrored: u64,
    /// Requests the two indexes would answer with different statuses.
    pub status_mismatches: u64,
    /// Replayed `/top` requests whose rankings were compared.
    pub top_compared: u64,
    /// Σ |top-k(live) ∩ top-k(candidate)| over compared requests.
    pub overlap_hits: u64,
    /// Σ max(|top-k(live)|, |top-k(candidate)|) over compared requests.
    pub overlap_slots: u64,
    /// Kendall concordant pairs over commonly-ranked ids.
    pub concordant: u64,
    /// Kendall discordant pairs.
    pub discordant: u64,
    /// Total compared pairs (`concordant + discordant`).
    pub pairs: u64,
    /// Σ |score_live − score_candidate| in rounded nanos, over ids both
    /// sides ranked.
    pub score_l1_nanos: u64,
    /// Number of score pairs behind `score_l1_nanos`.
    pub score_pairs: u64,
    /// Requests attributed to each of [`ENDPOINTS`].
    pub endpoint_mirrored: [u64; ENDPOINTS.len()],
    /// Status mismatches attributed to each of [`ENDPOINTS`].
    pub endpoint_status_mismatches: [u64; ENDPOINTS.len()],
}

impl ShadowReport {
    /// Fold one request's drift into the totals.
    fn add(&mut self, class: usize, d: Drift) {
        self.mirrored += 1;
        self.top_compared += d.top_compared;
        self.overlap_hits += d.overlap_hits;
        self.overlap_slots += d.overlap_slots;
        self.concordant += d.concordant;
        self.discordant += d.discordant;
        self.pairs += d.pairs;
        self.score_l1_nanos += d.score_l1_nanos;
        self.score_pairs += d.score_pairs;
        let mismatch = u64::from(d.status_mismatch);
        self.status_mismatches += mismatch;
        if let Some(n) = self.endpoint_mirrored.get_mut(class) {
            *n += 1;
        }
        if let Some(n) = self.endpoint_status_mismatches.get_mut(class) {
            *n += mismatch;
        }
    }

    /// Mean top-k overlap in `[0, 1]` (1 when nothing was compared).
    pub fn topk_overlap(&self) -> f64 {
        if self.overlap_slots == 0 {
            1.0
        } else {
            self.overlap_hits as f64 / self.overlap_slots as f64
        }
    }

    /// Kendall tau in `[-1, 1]` (1 when no pairs were compared).
    pub fn kendall_tau(&self) -> f64 {
        if self.pairs == 0 {
            1.0
        } else {
            (self.concordant as f64 - self.discordant as f64) / self.pairs as f64
        }
    }

    /// Mean absolute score difference per compared article.
    pub fn score_l1_mean(&self) -> f64 {
        if self.score_pairs == 0 {
            0.0
        } else {
            self.score_l1_nanos as f64 / 1e9 / self.score_pairs as f64
        }
    }

    /// Every threshold this report fails, as human-readable reasons. An
    /// empty list means the candidate may promote.
    pub fn failures(&self, t: &ShadowThresholds) -> Vec<String> {
        let mut out = Vec::new();
        if self.mirrored < t.min_mirrored {
            out.push(format!("mirrored {} < min_mirrored {}", self.mirrored, t.min_mirrored));
        }
        if self.topk_overlap() < t.min_topk_overlap {
            out.push(format!(
                "topk_overlap {:.4} < min_topk_overlap {:.4}",
                self.topk_overlap(),
                t.min_topk_overlap
            ));
        }
        if self.kendall_tau() < t.min_kendall_tau {
            out.push(format!(
                "kendall_tau {:.4} < min_kendall_tau {:.4}",
                self.kendall_tau(),
                t.min_kendall_tau
            ));
        }
        if self.score_l1_mean() > t.max_score_l1 {
            out.push(format!(
                "score_l1_mean {:.3e} > max_score_l1 {:.3e}",
                self.score_l1_mean(),
                t.max_score_l1
            ));
        }
        if self.status_mismatches > t.max_status_mismatches {
            out.push(format!(
                "status_mismatches {} > max_status_mismatches {}",
                self.status_mismatches, t.max_status_mismatches
            ));
        }
        out
    }
}

/// Replay a recorded workload against `live` and `candidate`: every
/// record's target is answered by both indexes and the drift between
/// the answers is folded into one report. This is the whole gate — a
/// recorded log plus two index builds give a reproducible promotion
/// decision, with no server running.
pub fn replay_mirror(
    records: &[ReqRecord],
    live: &ScoreIndex,
    candidate: &ScoreIndex,
) -> ShadowReport {
    let mut report = ShadowReport::default();
    for r in records {
        let req = http::parse_target(&r.target);
        report.add(endpoint_class(&req.path), drift_for(&req, live, candidate));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn indexes() -> (ScoreIndex, ScoreIndex, ScoreIndex) {
        let corpus = Arc::new(scholar_corpus::generator::Preset::Tiny.generate(7));
        let n = corpus.articles().len();
        let scores: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 2.0)).collect();
        let mut drifted = scores.clone();
        // Swap the top two scores and dampen a band: real rank movement.
        drifted.swap(0, 1);
        for s in drifted.iter_mut().take(n / 2).skip(2) {
            *s *= 0.5;
        }
        let live = ScoreIndex::build(Arc::clone(&corpus), scores.clone());
        let twin = ScoreIndex::build(Arc::clone(&corpus), scores);
        let cand = ScoreIndex::build(corpus, drifted);
        (live, twin, cand)
    }

    fn records(targets: &[&str]) -> Vec<ReqRecord> {
        (0u64..)
            .zip(targets)
            .map(|(seq, t)| ReqRecord {
                conn: 1,
                seq,
                generation: 1,
                status: 200,
                latency_us: 10,
                target: (*t).to_owned(),
            })
            .collect()
    }

    #[test]
    fn identical_candidate_has_zero_drift() {
        let (live, twin, _) = indexes();
        let log = records(&["/top?k=10", "/top?k=25", "/article/3", "/health", "/nope"]);
        let r = replay_mirror(&log, &live, &twin);
        assert_eq!(r.mirrored, 5);
        assert_eq!(r.status_mismatches, 0);
        assert_eq!(r.topk_overlap(), 1.0);
        assert_eq!(r.kendall_tau(), 1.0);
        assert_eq!(r.score_l1_nanos, 0);
        assert_eq!(r.endpoint_mirrored, [2, 1, 1, 0, 1]);
        assert!(r.failures(&ShadowThresholds { min_mirrored: 5, ..Default::default() }).is_empty());
    }

    #[test]
    fn drifted_candidate_is_caught_and_named() {
        let (live, _, cand) = indexes();
        let r = replay_mirror(&records(&["/top?k=20"; 8]), &live, &cand);
        assert!(r.kendall_tau() < 1.0, "swapped ranks must cost tau, got {}", r.kendall_tau());
        assert!(r.score_l1_mean() > 0.0);
        let fails = r.failures(&ShadowThresholds {
            min_mirrored: 8,
            min_topk_overlap: 0.0,
            min_kendall_tau: 1.0,
            max_score_l1: 0.0,
            max_status_mismatches: 0,
        });
        assert!(
            fails.iter().any(|f| f.contains("kendall_tau")),
            "rejection must name the failed threshold: {fails:?}"
        );
    }

    #[test]
    fn status_for_matches_respond_statuses() {
        let (live, _, _) = indexes();
        let metrics = crate::Metrics::new();
        for t in [
            "/top?k=5",
            "/top?venue=missing",
            "/article/2",
            "/article/x",
            "/article/99999",
            "/no",
            "/health",
            "/metrics",
        ] {
            let req = http::parse_target(t);
            let (status, _) = status_for(&req, &live);
            let (expected, _) = server::respond(&req, &live, &metrics);
            assert_eq!(status, expected, "status oracle diverged on {t}");
        }
    }
}
