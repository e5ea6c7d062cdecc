//! Lock-free server metrics: request counters, an in-flight gauge, and a
//! log-spaced latency histogram, all plain atomics so the hot path never
//! takes a lock. Rendered as JSON for `GET /metrics`.

use sjson::{ObjectBuilder, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// ORDERING: every counter and gauge in this module is an independent
/// monotone statistic — no thread reads one to decide whether another
/// atomic's data is visible, so relaxed suffices for all of them. The
/// one true publish/consume pair (generation slot `tag` claiming) uses
/// Acquire/AcqRel at its sites instead of this alias.
const RELAXED: Ordering = Ordering::Relaxed;

/// Histogram bucket upper bounds in microseconds, log-spaced. The last
/// bucket is open-ended. The sub-100µs region is deliberately fine
/// (5/10/25/50/75µs): the event-loop serve path answers cached requests
/// in single-digit microseconds, and a histogram whose first bucket is
/// 50µs cannot distinguish a 4µs cache hit from a 40µs full render.
pub const LATENCY_BUCKETS_US: [u64; 16] = [
    5, 10, 25, 50, 75, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 100_000, 500_000,
    2_000_000,
];

/// Distinct index generations `/metrics` can attribute requests to
/// before falling back to the shared "other" bucket (reported as
/// generation 0). Slots are claimed first-come and never recycled, so a
/// long-lived server attributes its most recent restarts-worth of
/// generations precisely and lumps the ancient tail together — the sums
/// stay exact either way.
const GENERATION_SLOTS: usize = 8;

/// Request counters attributed to one index generation. Without this
/// breakdown a shadow mismatch is unattributable: `/metrics` could say
/// *that* 500s happened but not *which generation* answered them.
#[derive(Debug, Default)]
pub struct GenerationCounters {
    /// Generation label; 0 marks an unclaimed slot (live generations
    /// start at 1) and, on the overflow bucket, "older generations".
    tag: AtomicU64,
    /// Requests answered by this generation.
    pub requests: AtomicU64,
    /// 2xx responses from this generation.
    pub ok: AtomicU64,
    /// 4xx responses from this generation.
    pub client_errors: AtomicU64,
    /// 5xx responses from this generation.
    pub server_errors: AtomicU64,
}

impl GenerationCounters {
    fn bump(&self, status: u16) {
        self.requests.fetch_add(1, RELAXED);
        if (200..300).contains(&status) {
            self.ok.fetch_add(1, RELAXED);
        } else if (400..500).contains(&status) {
            self.client_errors.fetch_add(1, RELAXED);
        } else if (500..600).contains(&status) {
            self.server_errors.fetch_add(1, RELAXED);
        }
    }

    fn json(&self, generation: u64) -> Value {
        ObjectBuilder::new()
            .field("generation", generation as i64)
            .field("requests", self.requests.load(RELAXED) as i64)
            .field("ok", self.ok.load(RELAXED) as i64)
            .field("client_errors", self.client_errors.load(RELAXED) as i64)
            .field("server_errors", self.server_errors.load(RELAXED) as i64)
            .build()
    }
}

/// Per-endpoint request counters.
#[derive(Debug, Default)]
pub struct EndpointCounters {
    /// `GET /top` requests served.
    pub top: AtomicU64,
    /// `GET /article/{id}` requests served.
    pub article: AtomicU64,
    /// `GET /health` requests served.
    pub health: AtomicU64,
    /// `GET /metrics` requests served.
    pub metrics: AtomicU64,
    /// `GET /shadow` requests served.
    pub shadow: AtomicU64,
}

/// All server metrics. One instance lives in an `Arc` shared by every
/// worker; every field is an atomic, so recording is wait-free.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Total requests that produced a response (any status).
    pub requests: AtomicU64,
    /// Responses with a 2xx status.
    pub ok: AtomicU64,
    /// Responses with a 4xx status (bad request, not found, timeout...).
    pub client_errors: AtomicU64,
    /// Responses with a 5xx status (handler panics surfaced as `500`).
    /// Excludes `503` sheds, which never reach the request path — see
    /// `shed`.
    pub server_errors: AtomicU64,
    /// Connections shed with `503` at the door because their shard
    /// already held `max_conns` connections.
    pub shed: AtomicU64,
    /// Panics caught (and survived) by the event-loop shards: a handler
    /// panic answered as a recorded `500`, or a panic driving one
    /// connection, which drops only that connection. Any non-zero value
    /// is a bug worth investigating.
    pub panics: AtomicU64,
    /// Requests currently being parsed or answered.
    pub in_flight: AtomicU64,
    /// Open client connections the event-loop shards hold (see
    /// [`OpenConn`]), idle keep-alive sessions included.
    pub connections_active: AtomicU64,
    /// Requests served on an already-used keep-alive connection (the
    /// second and later request of each session). The ratio
    /// `keepalive_reuses / requests` is the fraction of requests that
    /// skipped a TCP handshake.
    pub keepalive_reuses: AtomicU64,
    /// Index swaps observed by the serving layer.
    pub index_swaps: AtomicU64,
    /// Per-endpoint counters.
    pub endpoints: EndpointCounters,
    /// Per-generation attribution (see [`GenerationCounters`]).
    generations: [GenerationCounters; GENERATION_SLOTS],
    /// Requests from generations beyond the slot budget, labelled 0.
    generation_overflow: GenerationCounters,
    latency: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    latency_total_us: AtomicU64,
}

/// RAII guard for the in-flight gauge: increments on creation, decrements
/// on drop, so early returns and panics can't leak a stuck gauge.
pub struct InFlight<'a>(&'a Metrics);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, RELAXED);
    }
}

/// RAII guard for the open-connections gauge, owned by the connection
/// it counts: whatever ends the connection — close, error, eviction, a
/// panic unwinding through its driver — drops the guard with it.
pub struct OpenConn(Arc<Metrics>);

impl Drop for OpenConn {
    fn drop(&mut self) {
        self.0.connections_active.fetch_sub(1, RELAXED);
    }
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Mark a request as in flight; the gauge drops when the guard does.
    pub fn begin(&self) -> InFlight<'_> {
        self.in_flight.fetch_add(1, RELAXED);
        InFlight(self)
    }

    /// Record a completed response with its status and service time.
    pub fn record(&self, status: u16, took: Duration) {
        self.requests.fetch_add(1, RELAXED);
        if (200..300).contains(&status) {
            self.ok.fetch_add(1, RELAXED);
        } else if (400..500).contains(&status) {
            self.client_errors.fetch_add(1, RELAXED);
        } else if (500..600).contains(&status) {
            self.server_errors.fetch_add(1, RELAXED);
        }
        let us = took.as_micros().min(u64::MAX as u128) as u64;
        // partition_point ranges over 0..=buckets and `latency` has one
        // overflow slot past the bucket bounds; fall back to the last
        // slot rather than trust the arithmetic with a panic.
        let bucket = LATENCY_BUCKETS_US.partition_point(|&b| b < us);
        if let Some(counter) = self.latency.get(bucket).or_else(|| self.latency.last()) {
            counter.fetch_add(1, RELAXED);
        }
        self.latency_total_us.fetch_add(us, RELAXED);
    }

    /// Attribute a completed response to the index generation that
    /// answered it. Called alongside [`Metrics::record`] wherever the
    /// generation is known (which is every answered request — error
    /// paths attribute to the currently published generation), so per-
    /// generation requests sum exactly to the global `requests` counter
    /// and each slot's class counters sum exactly to its `requests`.
    pub fn record_generation(&self, generation: u64, status: u16) {
        self.generation_slot(generation).bump(status);
    }

    fn generation_slot(&self, generation: u64) -> &GenerationCounters {
        if generation != 0 {
            for slot in &self.generations {
                if slot.tag.load(Ordering::Acquire) == generation {
                    return slot;
                }
                if slot
                    .tag
                    .compare_exchange(0, generation, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return slot;
                }
                // Lost the claim race — if the winner claimed it for the
                // same generation, this slot is still the right one.
                if slot.tag.load(Ordering::Acquire) == generation {
                    return slot;
                }
            }
        }
        &self.generation_overflow
    }

    /// Snapshot the per-generation counters: `(generation, requests, ok,
    /// client_errors, server_errors)` for every claimed slot, with the
    /// overflow bucket (if used) labelled generation 0.
    pub fn generation_counts(&self) -> Vec<(u64, u64, u64, u64, u64)> {
        let mut out = Vec::new();
        for slot in &self.generations {
            let tag = slot.tag.load(Ordering::Acquire);
            if tag != 0 {
                out.push((
                    tag,
                    slot.requests.load(RELAXED),
                    slot.ok.load(RELAXED),
                    slot.client_errors.load(RELAXED),
                    slot.server_errors.load(RELAXED),
                ));
            }
        }
        let overflow = &self.generation_overflow;
        if overflow.requests.load(RELAXED) != 0 {
            out.push((
                0,
                overflow.requests.load(RELAXED),
                overflow.ok.load(RELAXED),
                overflow.client_errors.load(RELAXED),
                overflow.server_errors.load(RELAXED),
            ));
        }
        out
    }

    /// Record a connection shed with `503` before it reached a worker.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, RELAXED);
    }

    /// Count a client connection as open (accepted into the serving
    /// layer, past any shed decision) until the guard drops.
    pub fn conn_open(self: &Arc<Self>) -> OpenConn {
        self.connections_active.fetch_add(1, RELAXED);
        OpenConn(Arc::clone(self))
    }

    /// Record a request arriving on an already-used keep-alive
    /// connection.
    pub fn record_keepalive_reuse(&self) {
        self.keepalive_reuses.fetch_add(1, RELAXED);
    }

    /// Record a panic caught by a worker while handling a request.
    pub fn record_panic(&self) {
        self.panics.fetch_add(1, RELAXED);
    }

    /// Record an index swap becoming visible to queries.
    pub fn record_swap(&self) {
        self.index_swaps.fetch_add(1, RELAXED);
    }

    /// Approximate latency quantile (0.0..=1.0) in microseconds, read from
    /// the histogram: the upper bound of the bucket holding the quantile.
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        let total: u64 = self.latency.iter().map(|c| c.load(RELAXED)).sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.latency.iter().enumerate() {
            seen += c.load(RELAXED);
            if seen >= target {
                return LATENCY_BUCKETS_US.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Snapshot every counter into the `/metrics` JSON document.
    pub fn to_json(&self) -> Value {
        let lat: Vec<Value> = self
            .latency
            .iter()
            .enumerate()
            .map(|(i, c)| {
                ObjectBuilder::new()
                    .field(
                        "le_us",
                        match LATENCY_BUCKETS_US.get(i) {
                            Some(&b) => Value::from(b as i64),
                            None => Value::String("inf".to_string()),
                        },
                    )
                    .field("count", c.load(RELAXED) as i64)
                    .build()
            })
            .collect();
        let requests = self.requests.load(RELAXED);
        let total_us = self.latency_total_us.load(RELAXED);
        ObjectBuilder::new()
            .field("requests", requests as i64)
            .field("ok", self.ok.load(RELAXED) as i64)
            .field("client_errors", self.client_errors.load(RELAXED) as i64)
            .field("server_errors", self.server_errors.load(RELAXED) as i64)
            .field("shed", self.shed.load(RELAXED) as i64)
            .field("panics", self.panics.load(RELAXED) as i64)
            .field("in_flight", self.in_flight.load(RELAXED) as i64)
            .field("connections_active", self.connections_active.load(RELAXED) as i64)
            .field("keepalive_reuses", self.keepalive_reuses.load(RELAXED) as i64)
            .field("index_swaps", self.index_swaps.load(RELAXED) as i64)
            .field(
                "endpoints",
                ObjectBuilder::new()
                    .field("top", self.endpoints.top.load(RELAXED) as i64)
                    .field("article", self.endpoints.article.load(RELAXED) as i64)
                    .field("health", self.endpoints.health.load(RELAXED) as i64)
                    .field("metrics", self.endpoints.metrics.load(RELAXED) as i64)
                    .field("shadow", self.endpoints.shadow.load(RELAXED) as i64)
                    .build(),
            )
            .field(
                "generations",
                Value::Array({
                    let mut gens: Vec<Value> = self
                        .generations
                        .iter()
                        .filter(|s| s.tag.load(Ordering::Acquire) != 0)
                        .map(|s| s.json(s.tag.load(Ordering::Acquire)))
                        .collect();
                    if self.generation_overflow.requests.load(RELAXED) != 0 {
                        gens.push(self.generation_overflow.json(0));
                    }
                    gens
                }),
            )
            .field(
                "latency",
                ObjectBuilder::new()
                    .field(
                        "mean_us",
                        if requests == 0 { 0.0 } else { total_us as f64 / requests as f64 },
                    )
                    .field("p50_us", self.latency_quantile_us(0.50) as i64)
                    .field("p99_us", self.latency_quantile_us(0.99) as i64)
                    .field("histogram", Value::Array(lat))
                    .build(),
            )
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_classifies_statuses_and_buckets_latency() {
        let m = Metrics::new();
        m.record(200, Duration::from_micros(80));
        m.record(200, Duration::from_micros(80));
        m.record(404, Duration::from_micros(3_000));
        m.record(500, Duration::from_micros(120));
        m.record_shed();
        assert_eq!(m.requests.load(RELAXED), 4);
        assert_eq!(m.ok.load(RELAXED), 2);
        assert_eq!(m.client_errors.load(RELAXED), 1);
        assert_eq!(m.server_errors.load(RELAXED), 1);
        assert_eq!(m.shed.load(RELAXED), 1);
        // Two of four requests landed in the <=100us bucket.
        assert_eq!(m.latency_quantile_us(0.5), 100);
        assert_eq!(m.latency_quantile_us(0.99), 5_000);
    }

    #[test]
    fn in_flight_gauge_is_raii() {
        let m = Metrics::new();
        {
            let _a = m.begin();
            let _b = m.begin();
            assert_eq!(m.in_flight.load(RELAXED), 2);
        }
        assert_eq!(m.in_flight.load(RELAXED), 0);
    }

    #[test]
    fn json_snapshot_has_all_sections() {
        let m = Metrics::new();
        m.record(200, Duration::from_micros(10));
        let v = m.to_json();
        assert_eq!(v.get("requests").and_then(|x| x.as_i64()), Some(1));
        let lat = v.get("latency").unwrap();
        assert!(lat.get("p50_us").is_some());
        let hist = lat.get("histogram").and_then(|h| h.as_array()).unwrap();
        assert_eq!(hist.len(), LATENCY_BUCKETS_US.len() + 1);
        // The open-ended bucket labels itself "inf".
        assert_eq!(hist.last().unwrap().get("le_us").and_then(|x| x.as_str()), Some("inf"));
    }

    #[test]
    fn sub_100us_latencies_resolve_to_fine_buckets() {
        // The event-loop regime: cached responses land in single-digit
        // microseconds and must not all pile into one coarse bucket.
        let m = Metrics::new();
        m.record(200, Duration::from_micros(3));
        m.record(200, Duration::from_micros(8));
        m.record(200, Duration::from_micros(20));
        m.record(200, Duration::from_micros(60));
        assert_eq!(m.latency_quantile_us(0.25), 5);
        assert_eq!(m.latency_quantile_us(0.50), 10);
        assert_eq!(m.latency_quantile_us(0.75), 25);
        assert_eq!(m.latency_quantile_us(1.00), 75);
    }

    #[test]
    fn connection_and_keepalive_counters() {
        let m = Arc::new(Metrics::new());
        let _held = m.conn_open();
        drop(m.conn_open());
        m.record_keepalive_reuse();
        assert_eq!(m.connections_active.load(RELAXED), 1);
        assert_eq!(m.keepalive_reuses.load(RELAXED), 1);
        let v = m.to_json();
        assert_eq!(v.get("connections_active").and_then(|x| x.as_i64()), Some(1));
        assert_eq!(v.get("keepalive_reuses").and_then(|x| x.as_i64()), Some(1));
    }

    #[test]
    fn overflow_latency_lands_in_open_bucket() {
        let m = Metrics::new();
        m.record(200, Duration::from_secs(30));
        assert_eq!(m.latency_quantile_us(0.5), u64::MAX);
    }

    #[test]
    fn generation_counters_attribute_and_sum_exactly() {
        let m = Metrics::new();
        m.record_generation(1, 200);
        m.record_generation(1, 404);
        m.record_generation(2, 200);
        m.record_generation(2, 500);
        m.record_generation(2, 200);
        let counts = m.generation_counts();
        assert_eq!(counts.len(), 2);
        assert_eq!(counts[0], (1, 2, 1, 1, 0));
        assert_eq!(counts[1], (2, 3, 2, 0, 1));
        // Class counters sum exactly to each slot's requests.
        for &(_, req, ok, ce, se) in &counts {
            assert_eq!(ok + ce + se, req);
        }
        let v = m.to_json();
        let gens = v.get("generations").and_then(|g| g.as_array()).unwrap();
        assert_eq!(gens.len(), 2);
        assert_eq!(gens[1].get("generation").and_then(|x| x.as_i64()), Some(2));
        assert_eq!(gens[1].get("requests").and_then(|x| x.as_i64()), Some(3));
    }

    #[test]
    fn generation_slots_overflow_to_the_other_bucket() {
        let m = Metrics::new();
        // Claim every slot, then two more generations: both must land in
        // the shared overflow bucket (generation 0) so sums stay exact.
        for g in 1..=(GENERATION_SLOTS as u64 + 2) {
            m.record_generation(g, 200);
        }
        let counts = m.generation_counts();
        assert_eq!(counts.len(), GENERATION_SLOTS + 1);
        let total: u64 = counts.iter().map(|&(_, req, ..)| req).sum();
        assert_eq!(total, GENERATION_SLOTS as u64 + 2);
        let overflow = counts.last().unwrap();
        assert_eq!(overflow.0, 0);
        assert_eq!(overflow.1, 2);
    }
}
