//! `serve-hot`, `serve-cold`, `serve-churn`: an in-process server and one
//! closed-loop client.
//!
//! **Load model.** `serve()` with one epoll shard; one client thread, one
//! keep-alive connection — the caller of a static-rank service is a
//! search backend that waits for its reply. Threads are pinned (see
//! [`Placement`]), because unpinned the same code measures the VM's
//! scheduler: 18.7k–30.2k req/s run to run. A run that cannot pin says
//! `pinned=0` and carries on.
//!
//! On hot and cold the client has a CPU of its own and busy-polls: one
//! that sleeps while it waits would put its own wake-up into every
//! sample (see `client.rs`). Two phases of 100 ms segments, value = best
//! segment (see `stats::best`): *latency*, one request in flight;
//! *capacity*, eight pipelined per write, which keeps the shard busy so
//! the number is the program's CPU cost per request rather than the
//! wake-up latency of a 2-vCPU guest.
//!
//! Under churn the box is split in two: client and shard take turns on
//! one CPU, the reindexer and its solver workers have the other, and a
//! writer submits batch after batch. Publish lag and write-side CPU are
//! medians over the run's publishes.

use super::Env;
use crate::client::{request_bytes, Conn};
use crate::guard::TempDir;
use crate::os::{self, CpuMask};
use crate::report::Outcome;
use crate::stats::{best, highest_supported_tail, iqr_share, median, percentile_sorted};
use crate::targets::{cold_pool, hot_pool, LruSim, RequestOrder, Target, SERVER_CACHE_ENTRIES};
use crate::trace::Tracer;
use scholar::core::{grow_corpus, IncrementalRanker};
use scholar::corpus::model::{Article, ArticleId, AuthorId, VenueId};
use scholar::serve::http::{parse_target, try_parse_head};
use scholar::serve::{
    respond, serve, write_snapshot, Backend, DurableOptions, Metrics, Reindexer, ScoreIndex,
    ServeConfig, ServerHandle, SharedIndex,
};
use scholar::{Corpus, Preset, QRank, QRankConfig};
use srand::rngs::SmallRng;
use srand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which traffic a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Four targets: working set far below the response cache.
    Hot,
    /// Thousands of targets: working set far above it.
    Cold,
    /// The cold mix while a writer publishes batch after batch.
    Churn,
}

/// Requests pipelined per write in the capacity phase.
const CAPACITY_DEPTH: usize = 8;
/// Every n-th body is compared with the router's in-process answer.
const VERIFY_EVERY: u64 = 64;
/// Articles per churn batch.
const BATCH_ARTICLES: usize = 8;
/// Snapshot cadence under churn. Four rather than the CLI's eight: a run
/// sees only a handful of publishes, and the cadence must both put the
/// snapshot + journal rotation on the measured write path and bound the
/// journal the recovery check has to replay.
const CHURN_SNAPSHOT_EVERY: u64 = 4;
/// Requests the in-process layer probes replay.
const PROBE_REQUESTS: usize = 20_000;
const PUBLISH_DEADLINE: Duration = Duration::from_secs(60);

// ------------------------------------------------------------------ server

struct Served {
    handle: ServerHandle,
    /// Threads `serve()` left running: the shard.
    shard_tids: Vec<u32>,
    pinned: bool,
}

/// Which CPU each side of the load model runs on.
struct Placement {
    client: CpuMask,
    shard: CpuMask,
    /// Churn only: the reindexer, its solver workers and the writer.
    write_side: CpuMask,
}

impl Placement {
    /// Hot and cold: the busy-polling client on the first allowed CPU,
    /// the shard on the second. Churn: client and shard share the second
    /// CPU — at depth 1 with a client that sleeps in `read` they take
    /// turns anyway, and on one CPU a turn is a context switch, not an
    /// inter-processor interrupt to a vCPU the host may have descheduled
    /// — and the write side has the first to itself. No more runnable
    /// threads than CPUs: unpartitioned, the same run measured the
    /// scheduler (p50 0.06 -> 0.9 ms and lag 2.3 -> 7.5 s whenever the
    /// host was busy; partitioned, 0.03 ms and 2.2-2.4 s either way).
    /// The write side gets the *first* CPU because the guest's block
    /// interrupts land there: with the two readers saturating that CPU
    /// the completion of a snapshot's `fsync` was held up for as long
    /// as the reads went on (a publish in four runs never landed).
    /// `None` with fewer than two CPUs: the run goes on unpinned.
    fn of(mix: Mix, allowed: Option<&CpuMask>) -> Option<Placement> {
        let cpus = allowed.map(CpuMask::cpus).unwrap_or_default();
        let (first, second) = match cpus.as_slice() {
            [first, second, ..] => (CpuMask::single(*first)?, CpuMask::single(*second)?),
            _ => return None,
        };
        Some(match mix {
            Mix::Churn => Placement { client: second.clone(), shard: second, write_side: first },
            _ => Placement { client: first, shard: second.clone(), write_side: second },
        })
    }
}

/// Start the server with the load model's placement: the shard inherits
/// the mask set around the `serve()` call, then the calling (client)
/// thread takes its own.
fn start_pinned(
    shared: Arc<SharedIndex>,
    metrics: Arc<Metrics>,
    placement: Option<&Placement>,
) -> Result<Served, String> {
    let before = os::thread_ids();
    let shard_pinned = placement.is_some_and(|p| os::set_affinity(&p.shard));
    let config = ServeConfig { workers: 1, backend: Backend::Epoll, ..ServeConfig::default() };
    let handle = serve(shared, metrics, &config).map_err(|e| format!("serve(): {e}"))?;
    let shard_tids = os::appeared(&before, &os::thread_ids());
    let pinned = shard_pinned && placement.is_some_and(|p| os::set_affinity(&p.client));
    Ok(Served { handle, shard_tids, pinned })
}

// ------------------------------------------------------------------ client

/// What the client knows about one pool entry.
struct Prepared {
    target: Target,
    path: String,
    request: Vec<u8>,
}

/// The response checks that run on every exchange.
struct Checker<'a> {
    shared: &'a SharedIndex,
    /// A registry of its own, so reference answers never touch the
    /// server's request counters.
    reference_metrics: Metrics,
    responses: u64,
    bytes: u64,
    last_generation: u64,
    verified: u64,
    failures: Vec<String>,
    failed: u64,
}

impl<'a> Checker<'a> {
    fn new(shared: &'a SharedIndex) -> Checker<'a> {
        Checker {
            shared,
            reference_metrics: Metrics::new(),
            responses: 0,
            bytes: 0,
            last_generation: 0,
            verified: 0,
            failures: Vec::new(),
            failed: 0,
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(why);
        }
    }

    fn on_response(&mut self, sent: &Prepared, status: u16, body: &[u8]) {
        self.responses += 1;
        self.bytes += body.len() as u64;
        if status != 200 {
            return self.fail(format!("{} answered {status}", sent.path));
        }
        let Some(generation) = body_generation(body) else {
            return self.fail(format!("{} body does not start with a generation", sent.path));
        };
        // One connection is answered by one shard from one snapshot at a
        // time, so generations along it can only move forward.
        if generation < self.last_generation {
            return self.fail(format!(
                "{} answered from generation {generation} after {}",
                sent.path, self.last_generation
            ));
        }
        self.last_generation = generation;
        if self.responses.is_multiple_of(VERIFY_EVERY) {
            let index = self.shared.load();
            // Mid-swap the snapshot in hand may already be newer than
            // the one that answered; only a same-generation pair is
            // comparable.
            if index.generation() == generation {
                let (ref_status, ref_body) =
                    respond(&parse_target(&sent.path), &index, &self.reference_metrics);
                self.verified += 1;
                if ref_status != 200 || ref_body.to_string_compact().as_bytes() != body {
                    self.fail(format!("{} differs from the router's in-process answer", sent.path));
                }
            }
        }
    }
}

/// The `N` of a body that starts `{"generation":N,`.
fn body_generation(body: &[u8]) -> Option<u64> {
    let rest = body.strip_prefix(b"{\"generation\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// `body` without its leading generation field — what must be equal
/// between two servers that number their generations differently.
fn without_generation(body: &[u8]) -> &[u8] {
    let start = body.iter().position(|&b| b == b',').map_or(0, |p| p + 1);
    &body[start..]
}

/// One segment's measurements.
#[derive(Debug, Default, Clone)]
struct Segment {
    responses: u64,
    wall_s: f64,
    shard_cpu_ns: u64,
    client_cpu_ns: u64,
    /// Sorted request latencies, depth 1 only.
    latencies_ns: Vec<u32>,
    /// Latencies of requests sent while a publish was in flight (churn).
    during_publish_ns: Vec<u32>,
}

impl Segment {
    fn p50_us(&self) -> Option<f64> {
        percentile_sorted(&self.latencies_ns, 0.5).map(|ns| f64::from(ns) / 1000.0)
    }
}

struct Driver<'a> {
    conn: Conn,
    pool: &'a [Prepared],
    order: RequestOrder,
    checker: Checker<'a>,
    shard_tids: &'a [u32],
    client_tid: Option<u32>,
    /// Set by the churn writer between submit and visibility.
    publish_in_flight: Option<&'a AtomicBool>,
    /// The simulated server cache, fed in traced runs only.
    cache: Option<LruSim>,
    transport_failures: u64,
    batch: Vec<u8>,
    sent: Vec<usize>,
    next_op: u64,
}

impl Driver<'_> {
    /// Drive requests at `depth` for `len`, closed loop.
    fn segment(&mut self, depth: usize, len: Duration, tr: &mut Tracer) -> Result<Segment, String> {
        let mut seg = Segment::default();
        let shard_cpu = os::threads_cpu_ns(self.shard_tids);
        let client_cpu = self.client_tid.and_then(os::thread_cpu_ns).unwrap_or(0);
        let started = Instant::now();
        let mut last = started;
        while last.duration_since(started) < len {
            self.batch.clear();
            self.sent.clear();
            for _ in 0..depth {
                let i = self.order.next().unwrap_or(0);
                self.batch.extend_from_slice(&self.pool[i].request);
                self.sent.push(i);
                if let Some(cache) = &mut self.cache {
                    if self.pool[i].target.is_top() {
                        cache.access(i);
                    } else {
                        cache.bypass();
                    }
                }
            }
            let publishing = self.publish_in_flight.is_some_and(|f| f.load(Ordering::Relaxed));
            self.next_op += 1;
            let span = tr.begin("serve.exchange", self.next_op);
            let sent_at = Instant::now();
            let (checker, pool, sent) = (&mut self.checker, self.pool, &self.sent);
            let mut answered = 0;
            let exchanged = self.conn.exchange(&self.batch, depth, |status, body| {
                checker.on_response(&pool[sent[answered]], status, body);
                answered += 1;
            });
            last = Instant::now();
            tr.end(span);
            if let Err(e) = exchanged {
                // The byte stream is gone; nothing after this can be
                // framed, so the run ends here with the failure counted.
                self.transport_failures += (depth - answered) as u64;
                return Err(format!("exchange failed: {e}"));
            }
            seg.responses += depth as u64;
            if depth == 1 {
                let ns = last.duration_since(sent_at).as_nanos().min(u128::from(u32::MAX)) as u32;
                seg.latencies_ns.push(ns);
                if publishing {
                    seg.during_publish_ns.push(ns);
                }
            }
        }
        seg.wall_s = last.duration_since(started).as_secs_f64();
        seg.shard_cpu_ns = os::threads_cpu_ns(self.shard_tids).saturating_sub(shard_cpu);
        seg.client_cpu_ns =
            self.client_tid.and_then(os::thread_cpu_ns).unwrap_or(0).saturating_sub(client_cpu);
        seg.latencies_ns.sort_unstable();
        Ok(seg)
    }

    fn phase(
        &mut self,
        name: &'static str,
        depth: usize,
        segments: usize,
        len: Duration,
        tr: &mut Tracer,
    ) -> Result<Vec<Segment>, String> {
        let span = tr.begin(name, 0);
        let result = (0..segments).map(|_| self.segment(depth, len, tr)).collect();
        tr.end(span);
        result
    }

    /// One extra request outside the seeded stream (checks, `/metrics`).
    fn get(&mut self, target: &str) -> Result<Vec<u8>, String> {
        match self.conn.get(target) {
            Ok((200, body)) => {
                self.checker.responses += 1;
                Ok(body)
            }
            Ok((status, _)) => Err(format!("{target} answered {status}")),
            Err(e) => Err(format!("{target}: {e}")),
        }
    }
}

// ------------------------------------------------------------------ churn writer

struct WriterReport {
    /// Batches accepted and seen published.
    publishes: u64,
    /// Submit → visible, one per publish.
    lag_ms: Vec<f64>,
    /// Write-side CPU over the same intervals.
    cpu_ms: Vec<f64>,
    append_ms: Vec<f64>,
    failures: Vec<String>,
    tracer: Tracer,
}

/// A seeded batch of new articles citing the base corpus.
fn churn_batch(rng: &mut SmallRng, base: &CorpusShape, tag: usize) -> Vec<Article> {
    (0..BATCH_ARTICLES)
        .map(|j| {
            let refs: BTreeSet<u32> =
                (0..5).map(|_| rng.gen_range(0..base.articles) as u32).collect();
            Article {
                id: ArticleId(0),
                title: format!("churn-{tag}-{j}"),
                year: base.last_year,
                venue: VenueId(rng.gen_range(0..base.venues) as u32),
                authors: vec![AuthorId(rng.gen_range(0..base.authors) as u32)],
                references: refs.into_iter().map(ArticleId).collect(),
                merit: None,
            }
        })
        .collect()
}

/// The dimensions a batch needs of the corpus it extends.
#[derive(Debug, Clone, Copy)]
struct CorpusShape {
    articles: usize,
    authors: usize,
    venues: usize,
    last_year: i32,
}

impl CorpusShape {
    fn of(corpus: &Corpus) -> CorpusShape {
        CorpusShape {
            articles: corpus.num_articles(),
            authors: corpus.num_authors(),
            venues: corpus.num_venues(),
            last_year: corpus.year_range().map_or(2000, |(_, hi)| hi),
        }
    }
}

/// What the churn writer shares with the run that spawned it.
struct ChurnWriter<'a> {
    reindexer: &'a Reindexer,
    shared: &'a SharedIndex,
    /// Set by the reader when its window ends; it reads on until the
    /// publish in flight has landed.
    stop: &'a AtomicBool,
    /// Raised from submit until the batch's generation is visible.
    in_flight: &'a AtomicBool,
    /// The write side's CPU, which the reindexer this writer feeds is on.
    write_side: Option<&'a CpuMask>,
    /// The client and shard threads, whose CPU is not a publish's.
    readers: &'a [u32],
    seed: u64,
    shape: CorpusShape,
}

/// CPU milliseconds the process has spent outside the `readers` threads:
/// the reindexer, its solver workers and this writer.
fn write_side_cpu_ms(readers: &[u32]) -> f64 {
    os::process_cpu_ms(None).unwrap_or(0.0) - os::threads_cpu_ns(readers) as f64 / 1e6
}

impl ChurnWriter<'_> {
    /// Submit a batch, wait until its generation is visible, repeat until
    /// told to stop.
    fn run(self, mut tracer: Tracer) -> WriterReport {
        let ChurnWriter { reindexer, shared, stop, in_flight, write_side, readers, seed, shape } =
            self;
        if let Some(mask) = write_side {
            os::set_affinity(mask);
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6368_7572_6e00); // "churn"
        let (mut lag_ms, mut cpu_ms, mut append_ms, mut failures) =
            (vec![], vec![], vec![], vec![]);
        let (mut tag, mut publishes) = (0, 0);
        while !stop.load(Ordering::SeqCst) {
            tag += 1;
            let batch = churn_batch(&mut rng, &shape, tag);
            let before = shared.generation();
            let op = (1 << 40) + tag as u64;
            let span = tracer.begin("reindex.publish_lag", op);
            in_flight.store(true, Ordering::Relaxed);
            let cpu_before = write_side_cpu_ms(readers);
            let submitted = Instant::now();
            let (accepted, append_s) = tracer.timed("wal.append", op, |_| reindexer.submit(batch));
            if let Err(e) = accepted {
                failures.push(format!("batch {tag} not accepted: {e}"));
                in_flight.store(false, Ordering::Relaxed);
                tracer.end(span);
                break;
            }
            append_ms.push(append_s * 1000.0);
            let mut visible = true;
            while shared.generation() == before {
                if submitted.elapsed() > PUBLISH_DEADLINE {
                    failures.push(format!("batch {tag} not visible after {PUBLISH_DEADLINE:?}"));
                    visible = false;
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            let lag = submitted.elapsed();
            in_flight.store(false, Ordering::Relaxed);
            tracer.end(span);
            if !visible {
                break;
            }
            publishes += 1;
            lag_ms.push(lag.as_secs_f64() * 1000.0);
            // Process CPU comes in clock ticks: a publish shorter than one
            // (smoke) still cost something, so the floor is the
            // resolution, not zero or less.
            let tick = os::clock_tick_ms().unwrap_or(0.0);
            cpu_ms.push((write_side_cpu_ms(readers) - cpu_before).max(tick));
        }
        WriterReport { publishes, lag_ms, cpu_ms, append_ms, failures, tracer }
    }
}

// ------------------------------------------------------------------ the run

pub fn run(mix: Mix, env: &Env, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let label = match mix {
        Mix::Hot => "serve-hot",
        Mix::Cold => "serve-cold",
        Mix::Churn => "serve-churn",
    };
    let config = QRankConfig::default();
    // Short segments, many of them: interference on the sandbox comes in
    // bursts of a second or more, and the best segment has to fall
    // between two bursts.
    let seg_len = Duration::from_millis(100);
    let warm_up = Duration::from_millis(if env.smoke { 200 } else { 1000 });
    // Hot and cold split the measured seconds between the two phases;
    // churn spends them all at depth 1 beside the writer.
    let total_segments = ((env.seconds / seg_len.as_secs_f64()).round() as usize).max(4);
    let (latency_segments, capacity_segments) = match mix {
        Mix::Churn => (total_segments, 0),
        _ => (total_segments / 2, total_segments / 2),
    };

    // ---- set-up: corpus, initial publish, server, pool, warm-up ----
    let setup = Instant::now();
    let setup_span = tr.begin("setup", 0);
    let dir = TempDir::create(&env.work_dir, label).map_err(|e| format!("work dir: {e}"))?;
    let preset = if env.smoke { Preset::Tiny } else { Preset::DblpLike };
    let corpus = preset.generate(env.seed);
    let shape = CorpusShape::of(&corpus);
    out.note(format!(
        "corpus {} seed {}: {} articles, {} citations",
        preset.name(),
        env.seed,
        corpus.num_articles(),
        corpus.num_citations()
    ));
    let state_dir = dir.path().join("state");
    let durable =
        DurableOptions { state_dir: state_dir.clone(), snapshot_every: CHURN_SNAPSHOT_EVERY };
    let original = os::current_affinity();
    let placement = Placement::of(mix, original.as_ref());
    let (shared, reindexer) = match mix {
        Mix::Churn => {
            std::fs::create_dir_all(&state_dir).map_err(|e| format!("state dir: {e}"))?;
            // The reindexer thread, and the solver workers it spawns,
            // inherit the mask in force around this call.
            if let Some(p) = &placement {
                os::set_affinity(&p.write_side);
            }
            let (shared, reindexer, _) =
                Reindexer::start_durable(config.clone(), corpus, durable.clone(), |_| {})
                    .map_err(|e| format!("start_durable: {e}"))?;
            (shared, Some(reindexer))
        }
        _ => {
            let (scores, _) = tr
                .timed("qrank.run", 0, |_| QRank::new(config.clone()).run(&corpus).article_scores);
            let (index, _) =
                tr.timed("index.build", 0, |_| ScoreIndex::build(Arc::new(corpus), scores));
            (Arc::new(SharedIndex::new(index)), None)
        }
    };
    let first_index = shared.load();
    let targets = match mix {
        Mix::Hot => hot_pool(),
        Mix::Cold | Mix::Churn => cold_pool(first_index.corpus(), env.seed),
    };
    let pool: Vec<Prepared> = targets
        .into_iter()
        .map(|target| {
            let path = target.path();
            Prepared { request: request_bytes(&path), target, path }
        })
        .collect();
    let top_targets = pool.iter().filter(|p| p.target.is_top()).count();

    let metrics = Arc::new(Metrics::new());
    let Served { handle, shard_tids, pinned } =
        start_pinned(Arc::clone(&shared), Arc::clone(&metrics), placement.as_ref())?;
    // Hot and cold give client and shard a CPU each, so a polling client
    // costs the server nothing. Under churn client and shard share one
    // CPU, where a spinning client would starve the shard: there it
    // sleeps in `read`.
    let conn = Conn::connect(handle.addr())
        .and_then(|conn| if mix == Mix::Churn { Ok(conn) } else { conn.busy_poll() })
        .map_err(|e| format!("connect: {e}"))?;
    let in_flight = AtomicBool::new(false);
    let mut driver = Driver {
        conn,
        pool: &pool,
        order: RequestOrder::new(env.seed, pool.len()),
        checker: Checker::new(&shared),
        shard_tids: &shard_tids,
        client_tid: os::current_tid(),
        publish_in_flight: (mix == Mix::Churn).then_some(&in_flight),
        cache: env.traced.then(|| LruSim::new(SERVER_CACHE_ENTRIES)),
        transport_failures: 0,
        batch: Vec::new(),
        sent: Vec::new(),
        next_op: 0,
    };
    let initial_generation = shared.generation();
    driver.segment(1, warm_up, &mut Tracer::new(false))?;
    tr.end(setup_span);
    let setup_s = setup.elapsed().as_secs_f64();
    out.note(format!(
        "load: closed loop, 1 connection, depth 1 then {CAPACITY_DEPTH}, {} targets ({top_targets} /top), pinned={}",
        pool.len(),
        u8::from(pinned)
    ));

    // ---- measured ----
    let stop = AtomicBool::new(false);
    let readers: Vec<u32> = shard_tids.iter().copied().chain(os::current_tid()).collect();
    let (latency, capacity, written) = std::thread::scope(|scope| {
        let writer = reindexer.as_ref().map(|reindexer| {
            let writer = ChurnWriter {
                reindexer,
                shared: &shared,
                stop: &stop,
                in_flight: &in_flight,
                write_side: placement.as_ref().map(|p| &p.write_side),
                readers: &readers,
                seed: env.seed,
                shape,
            };
            let tracer = tr.sibling();
            scope.spawn(move || writer.run(tracer))
        });
        let mut latency = driver.phase("serve.latency_phase", 1, latency_segments, seg_len, tr);
        // Churn: no new publish starts, and the reads go on until the
        // one in flight lands, so every lag is taken beside reads.
        stop.store(true, Ordering::SeqCst);
        while let (Ok(segments), Some(w)) = (&mut latency, &writer) {
            if w.is_finished() {
                break;
            }
            match driver.segment(1, seg_len, tr) {
                Ok(segment) => segments.push(segment),
                Err(e) => latency = Err(e),
            }
        }
        let capacity = match &latency {
            Ok(_) => {
                driver.phase("serve.capacity_phase", CAPACITY_DEPTH, capacity_segments, seg_len, tr)
            }
            Err(_) => Ok(Vec::new()),
        };
        let written = writer.map(|w| w.join().expect("writer thread panicked"));
        (latency, capacity, written)
    });
    // Read before the checks below: the recovery check builds a second
    // reindexer, which is the harness's memory, not the served system's.
    let peak_rss_mib = os::peak_rss_mib(None).unwrap_or(0.0);
    // The caller gets its original CPUs back: threads it spawns from here
    // on (solver workers of the recovery and replay) inherit them.
    if let Some(mask) = &original {
        os::set_affinity(mask);
    }
    let (latency, capacity) = match (latency, capacity) {
        (Ok(l), Ok(c)) => (l, c),
        (Err(e), _) | (_, Err(e)) => {
            out.attempted += driver.checker.responses + driver.transport_failures;
            out.failed += driver.checker.failed + driver.transport_failures;
            out.failures.push(e);
            return Ok(out);
        }
    };

    // ---- output checks after the run ----
    let live_top = driver.get("/top?k=100");
    let metrics_body = driver.get("/metrics");
    let client_requests = driver.checker.responses;
    out.attempted += client_requests;
    out.failed += driver.checker.failed;
    out.failures.append(&mut driver.checker.failures);
    let server_requests = metrics_body
        .as_ref()
        .ok()
        .and_then(|b| sjson::parse(std::str::from_utf8(b).ok()?).ok())
        .and_then(|v| v.get("requests")?.as_u64());
    // `/metrics` renders before its own request is counted.
    out.check(match server_requests {
        Some(n) if n + 1 == client_requests => Ok(()),
        Some(n) => Err(format!(
            "/metrics counted {n} requests before itself, client completed {}",
            client_requests - 1
        )),
        None => Err(format!("/metrics unreadable: {:?}", metrics_body.as_ref().err())),
    });
    out.check(if driver.checker.verified > 0 {
        Ok(())
    } else {
        Err("no body was compared with the in-process reference".to_string())
    });

    // ---- end-to-end metrics ----
    let seg_p50: Vec<f64> = latency.iter().filter_map(Segment::p50_us).collect();
    let p50_us = best(&seg_p50).unwrap_or(0.0);
    let measured_cpu = if mix == Mix::Churn { &latency } else { &capacity };
    let cpu_us: Vec<f64> = measured_cpu
        .iter()
        .filter(|s| s.responses > 0)
        .map(|s| s.shard_cpu_ns as f64 / 1000.0 / s.responses as f64)
        .collect();
    let per_req_us: Vec<f64> = capacity
        .iter()
        .filter(|s| s.responses > 0)
        .map(|s| s.wall_s * 1e6 / s.responses as f64)
        .collect();
    out.measured(
        "primary_ms",
        p50_us / 1000.0,
        seg_p50.len(),
        "request p50 at depth 1: written -> response fully read and checked",
    );
    match (mix, &written) {
        (Mix::Churn, Some(w)) => out.measured(
            "secondary_ms",
            median(&w.lag_ms).unwrap_or(0.0),
            w.lag_ms.len(),
            "publish lag: Reindexer::submit called -> SharedIndex::generation() advanced",
        ),
        _ => out.measured(
            "secondary_ms",
            best(&per_req_us).unwrap_or(0.0) / 1000.0,
            per_req_us.len(),
            "wall time per correct response at depth 8 (1000 / rps)",
        ),
    }
    match &written {
        // What a publish costs the box, wall time aside. Median, like the
        // lag: batches differ in the iterations they take to converge, so
        // the best of a run would be its luckiest batch.
        Some(w) => out.measured(
            "cpu_ms_per_op",
            median(&w.cpu_ms).unwrap_or(0.0),
            w.cpu_ms.len(),
            "process CPU outside the client and shard threads per publish (reindexer + solver workers)",
        ),
        None => out.measured(
            "cpu_ms_per_op",
            best(&cpu_us).unwrap_or(0.0) / 1000.0,
            cpu_us.len(),
            "shard-thread CPU per response at depth 8 (schedstat run time)",
        ),
    }

    // ---- churn: every accepted batch is published and survives ----
    let recovered = match (reindexer, &written) {
        (Some(reindexer), Some(w)) => {
            out.attempted += w.publishes + w.failures.len() as u64;
            out.failed += w.failures.len() as u64;
            out.failures.extend(w.failures.iter().cloned());
            out.check(if shared.generation() == initial_generation + w.publishes {
                Ok(())
            } else {
                Err(format!(
                    "generation {} after {} publishes from {initial_generation}",
                    shared.generation(),
                    w.publishes
                ))
            });
            out.check(if w.publishes > 0 {
                Ok(())
            } else {
                Err("no batch was published".to_string())
            });
            drop(handle);
            drop(reindexer.shutdown());
            check_recovery(&mut out, tr, &config, durable, &live_top)
        }
        _ => {
            out.check(live_top.map(|_| ()));
            drop(handle);
            None
        }
    };

    out.measured(
        "peak_rss_mb",
        peak_rss_mib,
        1,
        "VmHWM of the benchmark process (server + client + reference) when the reads end",
    );
    out.measured(
        "setup_s",
        setup_s,
        1,
        "generate corpus, initial rank + index build (+ snapshot under churn), bind, warm up",
    );

    // ---- the human report's view of the segments ----
    let mut all: Vec<u32> = latency.iter().flat_map(|s| s.latencies_ns.iter().copied()).collect();
    all.sort_unstable();
    if let Some(tail) = highest_supported_tail(all.len()) {
        out.note(format!(
            "depth-1 latency: p50 {:.1} us, p{} {:.1} us over {} samples",
            ns_to_us(percentile_sorted(&all, 0.5)),
            tail * 100.0,
            ns_to_us(percentile_sorted(&all, tail)),
            all.len()
        ));
    }
    // Best / median / worst segment: how far interference moved the
    // segments apart in this run.
    let range = |values: &[f64]| {
        format!(
            "{:.2} / {:.2} / {:.2}",
            best(values).unwrap_or(0.0),
            median(values).unwrap_or(0.0),
            values.iter().copied().fold(0.0, f64::max)
        )
    };
    out.note(format!("segments best/median/worst: depth-1 p50 {} us", range(&seg_p50)));
    if !per_req_us.is_empty() {
        out.note(format!(
            "segments best/median/worst: depth-8 wall {} us/response",
            range(&per_req_us)
        ));
    }
    out.note(format!("segments best/median/worst: shard CPU {} us/response", range(&cpu_us)));
    if let Some(w) = &written {
        let lags: Vec<String> = w.lag_ms.iter().take(32).map(|v| format!("{v:.0}")).collect();
        out.note(format!(
            "publish lag ms: {}{}",
            lags.join(" "),
            if w.lag_ms.len() > lags.len() { " ..." } else { "" }
        ));
    }

    // ---- the traced run's layers ----
    if env.traced {
        out.layer("run.pinned", f64::from(u8::from(pinned)));
        out.layer("metrics.requests", server_requests.map_or(0.0, |n| n as f64));
        out.layer(
            "serve.resp_bytes_per_req",
            driver.checker.bytes as f64 / client_requests.max(1) as f64,
        );
        out.layer("serve.seg_iqr_share", iqr_share(&seg_p50).unwrap_or(0.0));
        client_layers(&mut out, &latency, &capacity, &all);
        let seen = SeenFromOutside {
            p50_us,
            cpu_us_per_req: best(&cpu_us).unwrap_or(0.0),
            miss_share: driver.cache.as_ref().map_or(0.0, LruSim::miss_share),
            top_miss_rate: driver.cache.as_ref().map_or(0.0, LruSim::top_miss_rate),
        };
        request_path_layers(env, tr, &first_index, &pool, &seen, &mut out);
        if let Some(w) = &written {
            out.layer("wal.append_ms", median(&w.append_ms).unwrap_or(0.0));
            out.layer("reindex.publishes", w.publishes as f64);
            let mut during: Vec<u32> =
                latency.iter().flat_map(|s| s.during_publish_ns.iter().copied()).collect();
            during.sort_unstable();
            out.layer(
                "reindex.read_p50_during_publish_us",
                ns_to_us(percentile_sorted(&during, 0.5)),
            );
            out.layer("reindex.read_p50_idle_us", ns_to_us(idle_median(&all, &during)));
        }
        if let Some(Recovered { ranker, restart_s, replayed_batches }) = recovered {
            out.layer("recovery.restart_s", restart_s);
            out.layer("recovery.replayed_batches", replayed_batches as f64);
            reindex_layers(env, tr, ranker, dir.path(), &mut out)?;
        }
    }
    if let Some(w) = written {
        tr.absorb(w.tracer);
    }
    Ok(out)
}

fn ns_to_us(ns: Option<u32>) -> f64 {
    ns.map_or(0.0, |v| f64::from(v) / 1000.0)
}

/// What a second `start_durable` on the run's state directory gave back.
struct Recovered {
    ranker: IncrementalRanker,
    restart_s: f64,
    replayed_batches: usize,
}

/// A fresh process would find only the state directory: start from it,
/// and hold its `/top?k=100` against the live server's last answer.
fn check_recovery(
    out: &mut Outcome,
    tr: &mut Tracer,
    config: &QRankConfig,
    durable: DurableOptions,
    live_top: &Result<Vec<u8>, String>,
) -> Option<Recovered> {
    // The cold-start corpus is ignored when a snapshot exists; a tiny one
    // makes a recovery that re-ranked instead fail the comparison below.
    let (restarted, restart_s) = tr.timed("recovery.restart", 1 << 41, |_| {
        Reindexer::start_durable(config.clone(), Preset::Tiny.generate(1), durable, |_| {})
    });
    let (shared, reindexer, report) = match restarted {
        Ok(restarted) => restarted,
        Err(e) => {
            out.check(Err(format!("start_durable on the run's state dir: {e}")));
            return None;
        }
    };
    let (_, body) = respond(&parse_target("/top?k=100"), &shared.load(), &Metrics::new());
    let body = body.to_string_compact();
    out.check(match live_top {
        Ok(live) if without_generation(live) == without_generation(body.as_bytes()) => Ok(()),
        Ok(_) => Err("recovered /top?k=100 differs from the live server's".to_string()),
        Err(e) => Err(format!("live /top?k=100: {e}")),
    });
    out.check(if report.restored_from_snapshot {
        Ok(())
    } else {
        Err("recovery re-ranked instead of restoring the snapshot".to_string())
    });
    Some(Recovered {
        ranker: reindexer.shutdown(),
        restart_s,
        replayed_batches: report.replayed_batches,
    })
}

/// Per-layer metrics the client's own samples give: tails, rates, its CPU.
fn client_layers(out: &mut Outcome, latency: &[Segment], capacity: &[Segment], all: &[u32]) {
    let total = |segments: &[Segment]| {
        segments.iter().fold((0u64, 0.0f64), |(n, s), seg| (n + seg.responses, s + seg.wall_s))
    };
    let (depth1_responses, depth1_wall) = total(latency);
    let (depth8_responses, depth8_wall) = total(capacity);
    let client_cpu_ns: u64 = latency.iter().chain(capacity).map(|s| s.client_cpu_ns).sum();
    out.layer("serve.samples", all.len() as f64);
    out.layer("serve.p99_us", ns_to_us(percentile_sorted(all, 0.99)));
    out.layer("serve.p999_us", ns_to_us(percentile_sorted(all, 0.999)));
    if depth1_responses > 0 {
        out.layer("serve.rps_depth1", depth1_responses as f64 / depth1_wall);
    }
    if depth8_responses > 0 {
        out.layer("serve.rps_depth8", depth8_responses as f64 / depth8_wall);
    }
    out.layer(
        "serve.client_cpu_us_per_req",
        client_cpu_ns as f64 / 1000.0 / (depth1_responses + depth8_responses).max(1) as f64,
    );
}

/// Median of the sorted multiset `all` minus the sorted multiset `sub`.
fn idle_median(all: &[u32], sub: &[u32]) -> Option<u32> {
    let mut idle = Vec::with_capacity(all.len().saturating_sub(sub.len()));
    let mut j = 0;
    for &v in all {
        if sub.get(j) == Some(&v) {
            j += 1;
        } else {
            idle.push(v);
        }
    }
    percentile_sorted(&idle, 0.5)
}

/// What the client measured or computed about the server, which the
/// in-process layer timings are set against.
struct SeenFromOutside {
    p50_us: f64,
    cpu_us_per_req: f64,
    /// Simulated cache: requests it did not answer ÷ all requests.
    miss_share: f64,
    /// Simulated cache: misses ÷ the `/top` lookups it saw.
    top_miss_rate: f64,
}

/// The request path's layers, timed in-process over the first
/// [`PROBE_REQUESTS`] requests of the run's own seeded sequence: head
/// parse for every request; lookup and fragment render for the `/top`
/// share; detail, router and JSON serialisation for the `/article` share.
fn request_path_layers(
    env: &Env,
    tr: &mut Tracer,
    index: &ScoreIndex,
    pool: &[Prepared],
    seen: &SeenFromOutside,
    out: &mut Outcome,
) {
    const OP: u64 = 1 << 42;
    let sequence: Vec<usize> =
        RequestOrder::new(env.seed, pool.len()).take(PROBE_REQUESTS).collect();
    let parent = tr.begin("probe.request_path", OP);
    let per_call_ns =
        |secs: f64, calls: usize| if calls == 0 { 0.0 } else { secs * 1e9 / calls as f64 };

    let ((), secs) = tr.timed("http.parse", OP, |tr| {
        for &i in &sequence {
            black_box(try_parse_head(black_box(&pool[i].request)).ok());
        }
        tr.count("calls", sequence.len() as f64);
    });
    let parse_ns = per_call_ns(secs, sequence.len());
    out.layer("http.parse_ns", parse_ns);

    // `/top` share: posting-list lookup, then fragment assembly into a
    // reused buffer, exactly the two steps a cache miss pays.
    let queries: Vec<_> = pool.iter().map(|p| p.target.top_query(index)).collect();
    let tops: Vec<usize> = sequence.iter().copied().filter(|&i| queries[i].is_some()).collect();
    let mut ids = Vec::new();
    let ((), secs) = tr.timed("index.top", OP, |tr| {
        for &i in &tops {
            if let Some(q) = &queries[i] {
                index.top_ids_into(black_box(q), &mut ids);
                black_box(&ids);
            }
        }
        tr.count("calls", tops.len() as f64);
    });
    let top_ns = per_call_ns(secs, tops.len());
    out.layer("index.top_ns", top_ns);
    // The same answers again, untimed, kept for the render loop.
    let found: Vec<Vec<u32>> = tops
        .iter()
        .filter_map(|&i| queries[i].as_ref())
        .map(|q| {
            index.top_ids_into(q, &mut ids);
            ids.clone()
        })
        .collect();
    let mut body = Vec::new();
    let ((), secs) = tr.timed("index.render", OP, |tr| {
        for ids in &found {
            body.clear();
            body.extend_from_slice(b"{\"generation\":1,\"count\":");
            body.extend_from_slice(ids.len().to_string().as_bytes());
            body.extend_from_slice(b",\"results\":[");
            for (n, &a) in ids.iter().enumerate() {
                if n > 0 {
                    body.push(b',');
                }
                body.extend_from_slice(index.hit_fragment(a));
            }
            body.extend_from_slice(b"]}");
            black_box(&body);
        }
        tr.count("calls", found.len() as f64);
    });
    let render_ns = per_call_ns(secs, found.len());
    out.layer("index.render_ns", render_ns);

    // `/article` share.
    let articles: Vec<u32> = sequence
        .iter()
        .filter_map(|&i| match pool[i].target {
            Target::Article(id) => Some(id),
            Target::Top(_) => None,
        })
        .collect();
    let ((), secs) = tr.timed("index.detail", OP, |tr| {
        for &id in &articles {
            black_box(index.detail(ArticleId(black_box(id)), 3));
        }
        tr.count("calls", articles.len() as f64);
    });
    out.layer("index.detail_ns", per_call_ns(secs, articles.len()));
    let requests: Vec<_> =
        articles.iter().map(|id| parse_target(&format!("/article/{id}"))).collect();
    let metrics = Metrics::new();
    let mut values = Vec::with_capacity(requests.len());
    let ((), secs) = tr.timed("router.respond", OP, |tr| {
        for req in &requests {
            values.push(respond(black_box(req), index, &metrics).1);
        }
        tr.count("calls", requests.len() as f64);
    });
    let respond_ns = per_call_ns(secs, requests.len());
    out.layer("router.respond_ns", respond_ns);
    let ((), secs) = tr.timed("sjson.render", OP, |tr| {
        for v in &values {
            black_box(v.to_string_compact());
        }
        tr.count("calls", values.len() as f64);
    });
    let sjson_ns = per_call_ns(secs, values.len());
    out.layer("sjson.render_ns", sjson_ns);
    tr.end(parent);

    // Computed from the emitted sequence, not measured in the server.
    out.layer("serve.cache_miss_share", seen.miss_share);
    let n = sequence.len().max(1) as f64;
    let paid_ns = tops.len() as f64 / n * seen.top_miss_rate * (top_ns + render_ns)
        + articles.len() as f64 / n * (respond_ns + sjson_ns);
    if seen.cpu_us_per_req > 0.0 {
        out.layer("serve.lookup_render_share", paid_ns / 1000.0 / seen.cpu_us_per_req);
    }
    // Remainder: what of a depth-1 round trip is neither parse nor
    // lookup/render — syscalls, epoll, loopback, the client's own read.
    out.layer("serve.loop_us", seen.p50_us - (parse_ns + paid_ns) / 1000.0);
}

/// The reindexer's public-call sequence, replayed with the server gone
/// so each step's cost is its own: grow → extend → index build → publish
/// → snapshot, on fresh seeded batches over the recovered ranker.
fn reindex_layers(
    env: &Env,
    tr: &mut Tracer,
    mut ranker: IncrementalRanker,
    dir: &std::path::Path,
    out: &mut Outcome,
) -> Result<(), String> {
    const OP: u64 = 1 << 43;
    let replay_dir = dir.join("replay-state");
    std::fs::create_dir_all(&replay_dir).map_err(|e| format!("replay state dir: {e}"))?;
    let shape = CorpusShape::of(ranker.corpus());
    let mut rng = SmallRng::seed_from_u64(env.seed ^ 0x7265_706c_6179); // "replay"
    let parent = tr.begin("probe.reindex_replay", OP);
    let batch = churn_batch(&mut rng, &shape, 0);
    let (grown, secs) =
        tr.timed("reindex.grow_corpus", OP, |_| grow_corpus(ranker.corpus(), batch));
    out.layer("reindex.grow_corpus_s", secs);
    let (_, secs) = tr.timed("reindex.extend", OP, |_| ranker.extend(grown));
    out.layer("reindex.extend_s", secs);
    let (index, secs) = tr.timed("index.build", OP, |_| {
        ScoreIndex::build(Arc::new(ranker.corpus().clone()), ranker.result().article_scores.clone())
    });
    out.layer("index.build_s", secs);
    // Something to publish over: the cost of a swap does not depend on
    // the index being replaced.
    let placeholder = Preset::Tiny.generate(1);
    let uniform = vec![1.0 / placeholder.num_articles() as f64; placeholder.num_articles()];
    let shared = SharedIndex::new(ScoreIndex::build(Arc::new(placeholder), uniform));
    let (_, secs) = tr.timed("swap.publish", OP, |_| shared.publish(index));
    out.layer("swap.publish_us", secs * 1e6);
    let (written, secs) = tr.timed("snapshot.write", OP, |_| {
        write_snapshot(&replay_dir, ranker.corpus(), ranker.result(), 0)
    });
    written.map_err(|e| format!("replay snapshot: {e}"))?;
    out.layer("snapshot.write_s", secs);
    tr.end(parent);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_prefix_parsing() {
        let body = br#"{"generation":17,"count":0,"results":[]}"#;
        assert_eq!(body_generation(body), Some(17));
        assert_eq!(without_generation(body), br#""count":0,"results":[]}"#);
        assert_eq!(body_generation(br#"{"error":"x"}"#), None);
        assert_eq!(body_generation(b""), None);
    }

    #[test]
    fn idle_median_is_the_multiset_difference() {
        let all = [1, 2, 2, 3, 9, 9];
        let during = [2, 9];
        // idle = 1 2 3 9 -> nearest-rank median 2
        assert_eq!(idle_median(&all, &during), Some(2));
        assert_eq!(idle_median(&all, &[]), Some(2));
        assert_eq!(idle_median(&[5], &[5]), None);
    }

    #[test]
    fn churn_batches_are_seeded_and_well_formed() {
        let shape = CorpusShape { articles: 100, authors: 10, venues: 3, last_year: 2010 };
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        let (x, y) = (churn_batch(&mut a, &shape, 1), churn_batch(&mut b, &shape, 1));
        assert_eq!(x, y);
        assert_eq!(x.len(), BATCH_ARTICLES);
        for art in &x {
            assert!(art.year == 2010 && art.venue.0 < 3 && art.authors[0].0 < 10);
            assert!(!art.references.is_empty() && art.references.iter().all(|r| r.0 < 100));
        }
    }
}
