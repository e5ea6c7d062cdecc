//! Shadow evaluation: prove a candidate index on live traffic before
//! the swap.
//!
//! The ranking is query-independent, so swapping the index silently
//! changes what *every* client sees. The WSDM-Cup systems validated each
//! ranking variant against held-out relevance data before shipping it;
//! this module is the production analogue. A candidate [`ScoreIndex`] is
//! *staged* next to the live one (see `SharedIndex::stage_shadow`),
//! live requests are *mirrored* — answered again, invisibly, by the
//! candidate — and the accumulated [`ShadowReport`] (top-k overlap,
//! Kendall tau, score L1, status mismatches, mirror latency) must pass
//! [`ShadowThresholds`] before the candidate is promoted to serve.
//!
//! Two invariants make the report trustworthy:
//!
//! 1. **Mirroring never touches the live answer.** The mirror runs after
//!    the response is written, inside its own `catch_unwind`; a panic in
//!    the candidate poisons the shadow slot (which then can never
//!    promote) and a `shadow.mirror` fault only bumps `mirror_errors`.
//!    Live latency, status, and throughput are computed before the
//!    mirror ever runs.
//! 2. **The report is replayable.** Every drift statistic is accumulated
//!    as integers (hit counts, concordant/discordant pair counts, score
//!    L1 in rounded nanos) whose sum is order-independent, and both
//!    sides' statuses come from the same pure `status_for` routing —
//!    so re-running the recorded mirror log offline through
//!    [`replay_mirror`] reproduces the online drift numbers *exactly*,
//!    not approximately. (Latency fields are measurements, not
//!    replayable facts, and are excluded from that guarantee.)

use crate::http::{self, Request};
use crate::index::{Hit, ScoreIndex};
use crate::metrics::LATENCY_BUCKETS_US;
use crate::server::{self, Route};
use scholar_corpus::ArticleId;
use sjson::{ObjectBuilder, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Gates a shadow candidate's promotion. A candidate is promoted only
/// when the accumulated [`ShadowReport`] has no [`ShadowReport::failures`]
/// against these thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowThresholds {
    /// Minimum mirrored requests before the report is decision-worthy.
    /// The auto-decision (taken by the mirror path itself) waits for
    /// this; until then the candidate keeps accumulating evidence.
    pub min_mirrored: u64,
    /// Minimum mean top-k overlap (`|live ∩ candidate| / slots`) across
    /// mirrored `/top` requests, in `[0, 1]`.
    pub min_topk_overlap: f64,
    /// Minimum Kendall tau over ids both sides ranked, in `[-1, 1]`.
    pub min_kendall_tau: f64,
    /// Maximum mean absolute score difference per compared article.
    pub max_score_l1: f64,
    /// Maximum tolerated status mismatches (candidate answered a
    /// mirrored request with a different status than the live index).
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

/// What the shadow slot has concluded about its candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Still accumulating evidence; mirroring continues.
    Pending,
    /// Thresholds passed; the candidate was (or is about to be)
    /// published as the live generation.
    Promoted,
    /// Thresholds failed; the old generation keeps serving and the
    /// report stays up at `/shadow` as the loud explanation.
    Rejected,
}

impl Decision {
    fn as_str(self) -> &'static str {
        match self {
            Decision::Pending => "pending",
            Decision::Promoted => "promoted",
            Decision::Rejected => "rejected",
        }
    }
}

const DECIDED_PENDING: u64 = 0;
const DECIDED_PROMOTED: u64 = 1;
const DECIDED_REJECTED: u64 = 2;

/// Endpoint classes the mirror attributes drift to. Public so the
/// replay driver labels its per-endpoint digests with the same names.
pub const ENDPOINTS: [&str; 6] = ["top", "article", "health", "metrics", "shadow", "other"];

/// Map a request path (query string already split off) to its index in
/// [`ENDPOINTS`].
pub fn endpoint_class(path: &str) -> usize {
    match path {
        "/top" => 0,
        "/health" => 2,
        "/metrics" => 3,
        "/shadow" => 4,
        _ if path.starts_with("/article/") => 1,
        _ => 5,
    }
}

/// Drift extracted from mirroring one request — all integers, so the
/// accumulated totals are independent of mirror interleaving and
/// bit-identical between the online path and offline [`replay_mirror`].
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
/// bodies — both the live and the candidate side of a mirror go through
/// it, which is what makes status mismatches a statement about the
/// *indexes* rather than about which code path happened to answer.
pub(crate) fn status_for(req: &Request, index: &ScoreIndex) -> (u16, Option<Vec<Hit>>) {
    match server::route(req, index) {
        Route::Health | Route::Metrics | Route::Shadow => (200, None),
        Route::Top(Ok(q)) => (200, Some(index.top(&q))),
        Route::Article(Ok(id)) if index.detail(ArticleId(id), 0).is_some() => (200, None),
        Route::Top(Err(_)) | Route::Article(Err(_)) => (400, None),
        Route::Article(Ok(_)) | Route::NotFound => (404, None),
    }
}

/// Compare one mirrored request across the live and candidate indexes.
fn drift_for(target: &str, live: &ScoreIndex, candidate: &ScoreIndex) -> Drift {
    let req = http::parse_target(target);
    let (live_status, live_hits) = status_for(&req, live);
    let (cand_status, cand_hits) = status_for(&req, candidate);
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

/// Per-endpoint mirror attribution.
#[derive(Debug, Default)]
struct EndpointDrift {
    mirrored: AtomicU64,
    status_mismatches: AtomicU64,
}

/// Accumulated shadow evidence. Lives in the shadow slot on
/// `SharedIndex`; every field is an atomic so both backends mirror
/// without locks, and every *drift* field is an integer so accumulation
/// order cannot change the totals.
#[derive(Debug)]
pub struct ShadowState {
    mirrored: AtomicU64,
    mirror_errors: AtomicU64,
    poisoned: AtomicBool,
    decided: AtomicU64,
    status_mismatches: AtomicU64,
    top_compared: AtomicU64,
    overlap_hits: AtomicU64,
    overlap_slots: AtomicU64,
    concordant: AtomicU64,
    discordant: AtomicU64,
    pairs: AtomicU64,
    score_l1_nanos: AtomicU64,
    score_pairs: AtomicU64,
    endpoints: [EndpointDrift; ENDPOINTS.len()],
    // Latency is measurement, not evidence: reported, never replayed.
    mirror_latency: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    mirror_latency_total_us: AtomicU64,
    live_latency_total_us: AtomicU64,
    live_latency_count: AtomicU64,
}

impl Default for ShadowState {
    fn default() -> Self {
        Self::new()
    }
}

impl ShadowState {
    /// A fresh, empty accumulator.
    pub fn new() -> ShadowState {
        ShadowState {
            mirrored: AtomicU64::new(0),
            mirror_errors: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            decided: AtomicU64::new(DECIDED_PENDING),
            status_mismatches: AtomicU64::new(0),
            top_compared: AtomicU64::new(0),
            overlap_hits: AtomicU64::new(0),
            overlap_slots: AtomicU64::new(0),
            concordant: AtomicU64::new(0),
            discordant: AtomicU64::new(0),
            pairs: AtomicU64::new(0),
            score_l1_nanos: AtomicU64::new(0),
            score_pairs: AtomicU64::new(0),
            endpoints: Default::default(),
            mirror_latency: Default::default(),
            mirror_latency_total_us: AtomicU64::new(0),
            live_latency_total_us: AtomicU64::new(0),
            live_latency_count: AtomicU64::new(0),
        }
    }

    /// Mirror one request target across `live` and `candidate`,
    /// accumulating its drift. Returns `false` when the `shadow.mirror`
    /// chaos site injected a fault — the caller counts a mirror error
    /// and moves on; the live response has already been sent either way.
    pub fn mirror_one(&self, target: &str, live: &ScoreIndex, candidate: &ScoreIndex) -> bool {
        failpoint!("shadow.mirror", return false);
        let d = drift_for(target, live, candidate);
        // ORDERING: drift accumulators are independent monotone sums; the
        // promotion decision reads them only after `claim_decision`'s
        // SeqCst RMW has already won, and exact totals (not cross-field
        // consistency) are all the report needs.
        let rel = Ordering::Relaxed;
        self.mirrored.fetch_add(1, rel);
        self.top_compared.fetch_add(d.top_compared, rel);
        self.overlap_hits.fetch_add(d.overlap_hits, rel);
        self.overlap_slots.fetch_add(d.overlap_slots, rel);
        self.concordant.fetch_add(d.concordant, rel);
        self.discordant.fetch_add(d.discordant, rel);
        self.pairs.fetch_add(d.pairs, rel);
        self.score_l1_nanos.fetch_add(d.score_l1_nanos, rel);
        self.score_pairs.fetch_add(d.score_pairs, rel);
        let class = endpoint_class(&http::parse_target(target).path);
        // lint: allow(HOTPATH-PANIC) endpoint_class returns 0..ENDPOINTS.len() by construction
        let ep = &self.endpoints[class];
        ep.mirrored.fetch_add(1, rel);
        if d.status_mismatch {
            self.status_mismatches.fetch_add(1, rel);
            ep.status_mismatches.fetch_add(1, rel);
        }
        true
    }

    /// Record how long one mirror took, and the live latency it shadows.
    pub fn note_latency(&self, mirror_us: u64, live_us: u64) {
        // ORDERING: latency histogram buckets and sums are statistics;
        // nothing gates on them, so relaxed is enough.
        let rel = Ordering::Relaxed;
        let bucket = LATENCY_BUCKETS_US.partition_point(|&b| b < mirror_us);
        // lint: allow(HOTPATH-PANIC) partition_point <= len and the array has len+1 slots
        self.mirror_latency[bucket].fetch_add(1, rel);
        self.mirror_latency_total_us.fetch_add(mirror_us, rel);
        self.live_latency_total_us.fetch_add(live_us, rel);
        self.live_latency_count.fetch_add(1, rel);
    }

    /// Count a mirror that failed without panicking (injected fault).
    pub fn note_mirror_error(&self) {
        // ORDERING: monotone error count, read only for reporting.
        self.mirror_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark the slot poisoned: the candidate panicked while answering a
    /// mirror. A poisoned candidate can never promote.
    pub fn poison(&self) {
        // ORDERING: a one-way boolean flag; the promotion gate re-checks
        // it after winning the SeqCst `claim_decision` race, which
        // orders the flag before any publication that matters.
        self.poisoned.store(true, Ordering::Relaxed);
    }

    /// Whether a mirror panic has poisoned the slot.
    pub fn poisoned(&self) -> bool {
        // ORDERING: see `poison` — a stale read can only delay the
        // rejection by one evaluation round, never promote a poisoned
        // candidate past the SeqCst decision fence.
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Requests mirrored so far.
    pub fn mirrored(&self) -> u64 {
        // ORDERING: monotone progress counter used for threshold checks;
        // undercounting momentarily only defers the decision.
        self.mirrored.load(Ordering::Relaxed)
    }

    /// The slot's decision so far.
    pub fn decision(&self) -> Decision {
        // ORDERING: Acquire pairs with the SeqCst success of
        // `claim_decision` — a reader that observes Promoted/Rejected
        // must also observe everything the winner wrote before deciding.
        match self.decided.load(Ordering::Acquire) {
            DECIDED_PROMOTED => Decision::Promoted,
            DECIDED_REJECTED => Decision::Rejected,
            _ => Decision::Pending,
        }
    }

    /// Atomically move Pending → `to`. Returns whether *this* caller won
    /// the transition (exactly one does; the winner performs the
    /// promotion or keeps the rejection report up).
    pub(crate) fn claim_decision(&self, to: Decision) -> bool {
        let code = match to {
            Decision::Promoted => DECIDED_PROMOTED,
            Decision::Rejected => DECIDED_REJECTED,
            Decision::Pending => return false,
        };
        self.decided
            .compare_exchange(DECIDED_PENDING, code, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    fn latency_quantile_us(&self, q: f64) -> u64 {
        // ORDERING: quantiles over a live histogram are approximate by
        // nature; relaxed reads only add noise within one request.
        let total: u64 = self.mirror_latency.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        if total == 0 {
            return 0;
        }
        let want = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.mirror_latency.iter().enumerate() {
            // ORDERING: same approximate-snapshot argument as above.
            seen += c.load(Ordering::Relaxed);
            if seen >= want {
                return LATENCY_BUCKETS_US.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Snapshot the accumulated evidence as a report.
    pub fn report(&self, live_generation: u64, candidate_generation: u64) -> ShadowReport {
        // ORDERING: the report is a statistical snapshot; each field is
        // independently exact, and cross-field skew of a request or two
        // is inherent to sampling a live system.
        let rel = Ordering::Relaxed;
        ShadowReport {
            live_generation,
            candidate_generation,
            decision: self.decision(),
            poisoned: self.poisoned(),
            mirrored: self.mirrored.load(rel),
            mirror_errors: self.mirror_errors.load(rel),
            status_mismatches: self.status_mismatches.load(rel),
            top_compared: self.top_compared.load(rel),
            overlap_hits: self.overlap_hits.load(rel),
            overlap_slots: self.overlap_slots.load(rel),
            concordant: self.concordant.load(rel),
            discordant: self.discordant.load(rel),
            pairs: self.pairs.load(rel),
            score_l1_nanos: self.score_l1_nanos.load(rel),
            score_pairs: self.score_pairs.load(rel),
            // lint: allow(HOTPATH-PANIC) from_fn indexes 0..N into same-length arrays
            endpoint_mirrored: std::array::from_fn(|i| self.endpoints[i].mirrored.load(rel)),
            endpoint_status_mismatches: std::array::from_fn(|i| {
                // lint: allow(HOTPATH-PANIC) from_fn indexes 0..N into same-length arrays
                self.endpoints[i].status_mismatches.load(rel)
            }),
            mirror_p50_us: self.latency_quantile_us(0.50),
            mirror_p99_us: self.latency_quantile_us(0.99),
            mirror_latency_total_us: self.mirror_latency_total_us.load(rel),
            live_latency_total_us: self.live_latency_total_us.load(rel),
            live_latency_count: self.live_latency_count.load(rel),
            // lint: allow(HOTPATH-PANIC) from_fn indexes 0..N into a same-length array
            mirror_latency_histogram: std::array::from_fn(|i| self.mirror_latency[i].load(rel)),
        }
    }
}

/// A point-in-time snapshot of shadow evidence, served at `/shadow` and
/// evaluated against [`ShadowThresholds`] to gate promotion. All drift
/// fields are the raw integer accumulators; the derived ratios
/// ([`ShadowReport::topk_overlap`] etc.) are computed from them, so two
/// reports with equal integers are equal, full stop.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowReport {
    /// Generation serving live traffic when the report was taken.
    pub live_generation: u64,
    /// The staged candidate's (provisional) generation.
    pub candidate_generation: u64,
    /// Promote/reject/pending, as decided so far.
    pub decision: Decision,
    /// A mirror panicked; the candidate can never promote.
    pub poisoned: bool,
    /// Requests mirrored to the candidate.
    pub mirrored: u64,
    /// Mirrors that failed without evidence (injected faults).
    pub mirror_errors: u64,
    /// Mirrors where live and candidate answered different statuses.
    pub status_mismatches: u64,
    /// Mirrored `/top` requests whose rankings were compared.
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
    /// Mirrors attributed to each of [`ENDPOINTS`].
    pub endpoint_mirrored: [u64; ENDPOINTS.len()],
    /// Status mismatches attributed to each of [`ENDPOINTS`].
    pub endpoint_status_mismatches: [u64; ENDPOINTS.len()],
    /// Mirror service-time p50 (bucket upper bound, like `/metrics`).
    pub mirror_p50_us: u64,
    /// Mirror service-time p99.
    pub mirror_p99_us: u64,
    /// Total mirror service time.
    pub mirror_latency_total_us: u64,
    /// Total live service time of the mirrored requests.
    pub live_latency_total_us: u64,
    /// Count behind the live total (equals latency-tracked mirrors).
    pub live_latency_count: u64,
    /// Mirror service-time histogram over `LATENCY_BUCKETS_US` + overflow.
    pub mirror_latency_histogram: [u64; LATENCY_BUCKETS_US.len() + 1],
}

impl ShadowReport {
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

    /// Mean mirror − live latency delta in microseconds (signed).
    pub fn latency_delta_mean_us(&self) -> i64 {
        if self.live_latency_count == 0 {
            return 0;
        }
        let mirror = (self.mirror_latency_total_us / self.live_latency_count) as i64;
        let live = (self.live_latency_total_us / self.live_latency_count) as i64;
        mirror - live
    }

    /// Every threshold this report fails, as human-readable reasons. An
    /// empty list means the candidate may promote. This is the single
    /// gate both the auto-decision and manual promotion consult.
    pub fn failures(&self, t: &ShadowThresholds) -> Vec<String> {
        let mut out = Vec::new();
        if self.poisoned {
            out.push("candidate panicked while answering a mirror (slot poisoned)".to_owned());
        }
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

    /// The report as the `/shadow` JSON body.
    pub fn to_json(&self, thresholds: &ShadowThresholds) -> Value {
        let mut endpoints = ObjectBuilder::new();
        for (i, name) in ENDPOINTS.iter().enumerate() {
            endpoints = endpoints.field(
                name,
                ObjectBuilder::new()
                    // lint: allow(HOTPATH-PANIC) i < ENDPOINTS.len() == both array lengths
                    .field("mirrored", self.endpoint_mirrored[i] as i64)
                    // lint: allow(HOTPATH-PANIC) i < ENDPOINTS.len() == both array lengths
                    .field("status_mismatches", self.endpoint_status_mismatches[i] as i64)
                    .build(),
            );
        }
        let failures = self.failures(thresholds);
        ObjectBuilder::new()
            .field("active", true)
            .field("live_generation", self.live_generation as i64)
            .field("candidate_generation", self.candidate_generation as i64)
            .field("decision", self.decision.as_str())
            .field("poisoned", self.poisoned)
            .field("mirrored", self.mirrored as i64)
            .field("mirror_errors", self.mirror_errors as i64)
            .field("status_mismatches", self.status_mismatches as i64)
            .field(
                "drift",
                ObjectBuilder::new()
                    .field("top_compared", self.top_compared as i64)
                    .field("overlap_hits", self.overlap_hits as i64)
                    .field("overlap_slots", self.overlap_slots as i64)
                    .field("topk_overlap", self.topk_overlap())
                    .field("concordant", self.concordant as i64)
                    .field("discordant", self.discordant as i64)
                    .field("pairs", self.pairs as i64)
                    .field("kendall_tau", self.kendall_tau())
                    .field("score_l1_nanos", self.score_l1_nanos as i64)
                    .field("score_pairs", self.score_pairs as i64)
                    .field("score_l1_mean", self.score_l1_mean())
                    .build(),
            )
            .field(
                "latency",
                ObjectBuilder::new()
                    .field("mirror_p50_us", self.mirror_p50_us as i64)
                    .field("mirror_p99_us", self.mirror_p99_us as i64)
                    .field("delta_mean_us", self.latency_delta_mean_us())
                    .field(
                        "histogram",
                        Value::Array(
                            self.mirror_latency_histogram
                                .iter()
                                .map(|&c| Value::from(c as i64))
                                .collect(),
                        ),
                    )
                    .build(),
            )
            .field("endpoints", endpoints.build())
            .field(
                "thresholds",
                ObjectBuilder::new()
                    .field("min_mirrored", thresholds.min_mirrored as i64)
                    .field("min_topk_overlap", thresholds.min_topk_overlap)
                    .field("min_kendall_tau", thresholds.min_kendall_tau)
                    .field("max_score_l1", thresholds.max_score_l1)
                    .field("max_status_mismatches", thresholds.max_status_mismatches as i64)
                    .build(),
            )
            .field("failures", Value::Array(failures.into_iter().map(Value::from).collect()))
            .build()
    }
}

/// Re-run a recorded mirror workload offline: fold every record's target
/// through the same [`ShadowState::mirror_one`] the live path uses and
/// return the resulting state. Because drift accumulation is integer and
/// order-independent, the returned state's report carries *exactly* the
/// drift numbers the online shadow accumulated over the same targets —
/// this is what turns a recorded log plus two index builds into a
/// reproducible promotion decision.
pub fn replay_mirror(
    records: &[crate::record::ReqRecord],
    live: &ScoreIndex,
    candidate: &ScoreIndex,
) -> ShadowState {
    let state = ShadowState::new();
    for r in records {
        state.mirror_one(&r.target, live, candidate);
    }
    state
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

    #[test]
    fn identical_candidate_has_zero_drift() {
        let (live, twin, _) = indexes();
        let state = ShadowState::new();
        for t in ["/top?k=10", "/top?k=25", "/article/3", "/health", "/nope"] {
            assert!(state.mirror_one(t, &live, &twin));
        }
        let r = state.report(1, 2);
        assert_eq!(r.mirrored, 5);
        assert_eq!(r.status_mismatches, 0);
        assert_eq!(r.topk_overlap(), 1.0);
        assert_eq!(r.kendall_tau(), 1.0);
        assert_eq!(r.score_l1_nanos, 0);
        assert!(r.failures(&ShadowThresholds { min_mirrored: 5, ..Default::default() }).is_empty());
    }

    #[test]
    fn drifted_candidate_is_caught_and_named() {
        let (live, _, cand) = indexes();
        let state = ShadowState::new();
        for _ in 0..8 {
            state.mirror_one("/top?k=20", &live, &cand);
        }
        let r = state.report(1, 2);
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
    fn replay_reproduces_online_drift_exactly() {
        let (live, _, cand) = indexes();
        let targets =
            ["/top?k=15", "/top?k=3", "/article/1", "/top?venue=nope", "/top?k=40", "/health"];
        let online = ShadowState::new();
        let mut records = Vec::new();
        for (i, t) in targets.iter().enumerate() {
            online.mirror_one(t, &live, &cand);
            records.push(crate::record::ReqRecord {
                conn: 1,
                seq: i as u64,
                generation: 1,
                status: 200,
                latency_us: 10,
                target: (*t).to_owned(),
            });
        }
        let offline = replay_mirror(&records, &live, &cand);
        let a = online.report(1, 2);
        let b = offline.report(1, 2);
        assert_eq!(
            (a.mirrored, a.status_mismatches, a.overlap_hits, a.overlap_slots),
            (b.mirrored, b.status_mismatches, b.overlap_hits, b.overlap_slots)
        );
        assert_eq!(
            (a.concordant, a.discordant, a.pairs, a.score_l1_nanos, a.score_pairs),
            (b.concordant, b.discordant, b.pairs, b.score_l1_nanos, b.score_pairs)
        );
    }

    #[test]
    fn status_for_matches_respond_statuses() {
        let (live, _, _) = indexes();
        let metrics = crate::Metrics::new();
        for t in
            ["/top?k=5", "/top?venue=missing", "/article/2", "/article/x", "/article/99999", "/no"]
        {
            let req = http::parse_target(t);
            let (status, _) = status_for(&req, &live);
            let (expected, _) = server::respond(&req, &live, &metrics);
            assert_eq!(status, expected, "status oracle diverged on {t}");
        }
    }

    #[test]
    fn decision_claims_exactly_once() {
        let s = ShadowState::new();
        assert_eq!(s.decision(), Decision::Pending);
        assert!(s.claim_decision(Decision::Rejected));
        assert!(!s.claim_decision(Decision::Promoted));
        assert_eq!(s.decision(), Decision::Rejected);
    }
}
