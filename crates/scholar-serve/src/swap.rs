//! Zero-downtime index publication.
//!
//! [`SharedIndex`] is the single mutable cell of the serving stack: an
//! `RwLock<Arc<ScoreIndex>>`. Readers clone the `Arc` (a refcount bump
//! under a read lock held for nanoseconds) and then answer the whole
//! request against that immutable snapshot — a swap mid-request can never
//! tear a response. [`Reindexer`] is the producer side: a background
//! thread that folds corpus batches through
//! [`qrank::IncrementalRanker`] and, after each batch, publishes an index
//! [grown](ScoreIndex::grow) from the one it published last.

use crate::index::ScoreIndex;
use crate::snapshot::{self, StateError};
use crate::wal::{self, Wal};
use qrank::incremental::{grow_corpus, IncrementalRanker};
use qrank::QRankConfig;
use scholar_corpus::model::Article;
use scholar_corpus::Corpus;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;

/// The atomically swappable published index.
///
/// `load()` is the only read path and `publish()` the only write path;
/// both are O(1) and neither blocks on index construction, which always
/// happens off to the side on a private `ScoreIndex` value.
#[derive(Debug)]
pub struct SharedIndex {
    current: RwLock<Arc<ScoreIndex>>,
    generation: AtomicU64,
}

impl SharedIndex {
    /// Publish `index` as generation 1 and start serving it.
    pub fn new(mut index: ScoreIndex) -> Self {
        index.set_generation(1);
        SharedIndex { current: RwLock::new(Arc::new(index)), generation: AtomicU64::new(1) }
    }

    /// Snapshot the currently published index. The returned `Arc` stays
    /// valid (and immutable) even if a new index is published while the
    /// caller is still using it.
    pub fn load(&self) -> Arc<ScoreIndex> {
        // A poisoned lock only means some thread panicked while holding
        // it; the cell holds a bare `Arc` that is either the old or the
        // new index — never a torn value — so keep serving.
        // lint: allow(BLOCKING-IN-EVENT-LOOP) read lock over an Arc clone; the only writer is the rare generation publish, which holds it for one pointer swap
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Atomically replace the published index, stamping the next
    /// generation. In-flight requests keep their old snapshot; new
    /// requests see the new index.
    pub fn publish(&self, index: ScoreIndex) -> u64 {
        let (published, retired) = self.swap(index);
        // If no reader holds it any more, this frees the retired index —
        // after the write lock is released, so no `load` waits on it.
        drop(retired);
        published.generation()
    }

    /// Install `index` as the next generation and hand back both the
    /// installed index and the one it replaced. The write lock covers the
    /// stamp and one pointer swap only: whatever frees the retired
    /// generation runs after it is released.
    fn swap(&self, mut index: ScoreIndex) -> (Arc<ScoreIndex>, Arc<ScoreIndex>) {
        // Chaos site: stretch the window between taking the write lock
        // and installing the index, to let racing publishers pile up.
        failpoint!("swap.publish");
        // Stamp the generation while holding the write lock: concurrent
        // publishers then install indexes in generation order, so the
        // winning index always carries the highest generation and
        // `generation()` never runs ahead of what readers can load.
        // Same poisoning argument as `load`: the `Arc` swap below is the
        // only write and cannot be observed half-done.
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let g = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        index.set_generation(g);
        let published = Arc::new(index);
        let retired = std::mem::replace(&mut *current, Arc::clone(&published));
        drop(current);
        // Chaos site: a slow teardown of the retired generation, which
        // must not hold up a concurrent `load`.
        failpoint!("swap.retire");
        (published, retired)
    }

    /// Generation of the most recently published index.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }
}

/// A batch submitted to the [`Reindexer`]. `seq` is the WAL sequence
/// number (0 when running without a state directory); the journal lock
/// is held across append **and** send, so channel order equals sequence
/// order and "everything folded so far" is always a WAL prefix.
enum Job {
    Batch { batch: Vec<Article>, seq: u64 },
    Stop,
}

/// Why [`Reindexer::submit`] rejected a batch.
#[derive(Debug)]
pub enum SubmitError {
    /// The write-ahead journal could not durably record the batch; it
    /// was **not** accepted and will not be ranked.
    Journal(StateError),
    /// The reindex thread is gone (it panicked or was shut down). With a
    /// state directory the batch **is** durably journaled and will be
    /// folded in on the next restart; without one it was dropped.
    ThreadDead {
        /// Whether the batch survives in the journal.
        journaled: bool,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Journal(e) => write!(f, "batch not accepted: {e}"),
            SubmitError::ThreadDead { journaled: true } => {
                write!(f, "reindex thread is dead; batch journaled for next restart")
            }
            SubmitError::ThreadDead { journaled: false } => {
                write!(f, "reindex thread is dead; batch dropped")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Configuration for the durable restart path
/// ([`Reindexer::start_durable`]).
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Directory holding `snapshot.snap` and `wal.log`.
    pub state_dir: PathBuf,
    /// Publish a fresh snapshot (and rotate the journal) after this many
    /// folded batches. Restart replay cost is bounded by this window.
    pub snapshot_every: u64,
}

impl DurableOptions {
    /// Durable state under `dir` with the default snapshot cadence.
    pub fn new(dir: impl Into<PathBuf>) -> DurableOptions {
        DurableOptions { state_dir: dir.into(), snapshot_every: 8 }
    }
}

/// What [`Reindexer::start_durable`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether serving state was restored from a snapshot (otherwise
    /// this was a cold start: full rank, then initial snapshot).
    pub restored_from_snapshot: bool,
    /// Content-derived generation of the snapshot that was loaded or —
    /// on a cold start — written.
    pub snapshot_generation: u64,
    /// Journal batches replayed on top of the snapshot.
    pub replayed_batches: usize,
    /// Articles across those batches.
    pub replayed_articles: usize,
    /// Whether the journal had a torn tail (a crash mid-append; the torn
    /// record was never acknowledged and is discarded).
    pub torn_tail: bool,
}

/// Shared durable-state plumbing between `submit` (journal-then-send)
/// and the reindex thread (snapshot-on-publish + journal rotation).
struct Durable {
    dir: PathBuf,
    wal: Mutex<Wal>,
    snapshot_every: u64,
}

/// Background re-ranking thread: owns an [`IncrementalRanker`], consumes
/// article batches from a channel, and publishes a fresh [`ScoreIndex`]
/// into the [`SharedIndex`] after each batch. Serving never pauses — the
/// expensive solve and index build happen entirely off the read path.
pub struct Reindexer {
    tx: Sender<Job>,
    handle: JoinHandle<IncrementalRanker>,
    batches_published: Arc<AtomicU64>,
    durable: Option<Arc<Durable>>,
}

impl Reindexer {
    /// Rank `corpus` from scratch, publish generation 1 into a fresh
    /// [`SharedIndex`], and start the background thread. No durability:
    /// accepted batches live only in memory (see
    /// [`Reindexer::start_durable`] for the crash-safe path).
    ///
    /// `on_publish` runs on the background thread after every successful
    /// publication (e.g. to bump a swap metric).
    pub fn start(
        config: QRankConfig,
        corpus: Corpus,
        on_publish: impl Fn(u64) + Send + 'static,
    ) -> (Arc<SharedIndex>, Reindexer) {
        let ranker = IncrementalRanker::new(config, corpus);
        Self::spawn(ranker, None, on_publish)
    }

    /// Start with a durable state directory: restore from
    /// `dir/snapshot.snap` if present (replaying `dir/wal.log` on top),
    /// otherwise rank `corpus` cold and write the initial snapshot. In
    /// both cases generation 1 of the [`SharedIndex`] covers every
    /// durably journaled batch, and every subsequent
    /// [`Reindexer::submit`] journals its batch before the reindex
    /// thread ever sees it.
    ///
    /// `corpus` is the cold-start corpus; when a snapshot exists it is
    /// ignored (the snapshot is authoritative) and the start is
    /// [`Reindexer::restore_durable`], which a caller that can see the
    /// snapshot calls directly to skip loading a corpus at all. `config`
    /// must match the config the snapshot was ranked under — it is part
    /// of the deployment, not the durable state.
    ///
    /// Errors during recovery (unreadable snapshot, unwritable journal)
    /// fail startup cleanly rather than serving state of unknown
    /// provenance.
    pub fn start_durable(
        config: QRankConfig,
        corpus: Corpus,
        opts: DurableOptions,
        on_publish: impl Fn(u64) + Send + 'static,
    ) -> snapshot::Result<(Arc<SharedIndex>, Reindexer, RecoveryReport)> {
        let dir = &opts.state_dir;
        if snapshot::snapshot_path(dir).exists() {
            return Self::restore_durable(config, opts, on_publish);
        }
        let ranker = IncrementalRanker::new(config, corpus);
        let generation = snapshot::write_snapshot(dir, ranker.corpus(), ranker.result(), 0)?;
        let wal = Wal::create(dir, 0)?;
        let report = RecoveryReport {
            restored_from_snapshot: false,
            snapshot_generation: generation,
            replayed_batches: 0,
            replayed_articles: 0,
            torn_tail: false,
        };
        Ok(Self::spawn_durable(ranker, wal, opts, on_publish, report))
    }

    /// The restart half of [`Reindexer::start_durable`]: restore from
    /// `dir/snapshot.snap`, replaying `dir/wal.log` on top. There is no
    /// cold-start fallback — a snapshot that is missing or unreadable is
    /// an error, returned before anything in `dir` is written.
    pub fn restore_durable(
        config: QRankConfig,
        opts: DurableOptions,
        on_publish: impl Fn(u64) + Send + 'static,
    ) -> snapshot::Result<(Arc<SharedIndex>, Reindexer, RecoveryReport)> {
        let dir = &opts.state_dir;
        let restored = snapshot::load_snapshot(dir)?;
        let replayed = wal::replay(dir, restored.wal_seq)?;
        let mut ranker = IncrementalRanker::restore(config, restored.corpus, restored.result);
        let replayed_batches = replayed.records.len();
        let replayed_articles: usize = replayed.records.iter().map(|r| r.batch.len()).sum();
        let mut generation = restored.generation;
        let wal = if replayed_batches > 0 {
            // Fold every replayed record as its own extend — the
            // same deterministic pipeline a rebuild from the journal
            // inputs would run, batch for batch, so the recovered
            // scores are bit-identical to that rebuild (not merely
            // within solver tolerance). Generation 1 then already
            // covers the whole journal.
            for rec in &replayed.records {
                let grown = grow_corpus(ranker.corpus(), rec.batch.clone());
                ranker.extend(grown);
            }
            // Re-snapshot so the next restart skips the replay (and
            // the journal rotates down to empty).
            let seq = replayed.high_water();
            generation = snapshot::write_snapshot(dir, ranker.corpus(), ranker.result(), seq)?;
            wal::rotate(dir, seq)?
        } else {
            Wal::resume(dir, &replayed)?
        };
        let report = RecoveryReport {
            restored_from_snapshot: true,
            snapshot_generation: generation,
            replayed_batches,
            replayed_articles,
            torn_tail: replayed.torn_tail,
        };
        Ok(Self::spawn_durable(ranker, wal, opts, on_publish, report))
    }

    fn spawn_durable(
        ranker: IncrementalRanker,
        wal: Wal,
        opts: DurableOptions,
        on_publish: impl Fn(u64) + Send + 'static,
        report: RecoveryReport,
    ) -> (Arc<SharedIndex>, Reindexer, RecoveryReport) {
        let durable = Arc::new(Durable {
            dir: opts.state_dir.clone(),
            wal: Mutex::new(wal),
            snapshot_every: opts.snapshot_every.max(1),
        });
        let (shared, reindexer) = Self::spawn(ranker, Some(durable), on_publish);
        (shared, reindexer, report)
    }

    fn spawn(
        ranker: IncrementalRanker,
        durable: Option<Arc<Durable>>,
        on_publish: impl Fn(u64) + Send + 'static,
    ) -> (Arc<SharedIndex>, Reindexer) {
        let first =
            ScoreIndex::build(ranker.shared_corpus(), ranker.result().article_scores.clone());
        let shared = Arc::new(SharedIndex::new(first));
        // The index the thread published last: generation 1, for now.
        let last = shared.load();
        let (tx, rx) = mpsc::channel::<Job>();
        let published = Arc::new(AtomicU64::new(0));
        let handle = {
            let shared = Arc::clone(&shared);
            let published = Arc::clone(&published);
            let durable = durable.clone();
            std::thread::Builder::new()
                .name("scholar-reindex".into())
                .spawn(move || Self::run(ranker, last, rx, shared, published, on_publish, durable))
                // lint: allow(HOTPATH-PANIC) producer-side startup, before any request is accepted; no counter exists yet to record into
                .expect("spawn reindexer thread")
        };
        (Arc::clone(&shared), Reindexer { tx, handle, batches_published: published, durable })
    }

    /// The thread's loop. `last` is the index it published last: the next
    /// one grows from it, and this thread is the one that lets it go.
    fn run(
        mut ranker: IncrementalRanker,
        mut last: Arc<ScoreIndex>,
        rx: Receiver<Job>,
        shared: Arc<SharedIndex>,
        published: Arc<AtomicU64>,
        on_publish: impl Fn(u64),
        durable: Option<Arc<Durable>>,
    ) -> IncrementalRanker {
        // Batches folded since the last snapshot; at `snapshot_every`
        // the thread re-snapshots and rotates the journal.
        let mut since_snapshot = 0u64;
        while let Ok(Job::Batch { mut batch, mut seq }) = rx.recv() {
            // Coalesce any batches that queued up while the last solve
            // ran: one solve over the union beats one per batch. A
            // Stop seen here still processes the batch in hand first —
            // shutdown() promises the accepted work gets published.
            let mut stopping = false;
            let mut coalesced = 1u64;
            // Chaos site: hold the thread mid-coalesce so a Stop (or more
            // batches) reliably lands while a batch is already in hand.
            failpoint!("reindex.coalesce");
            loop {
                match rx.try_recv() {
                    Ok(Job::Batch { batch: more, seq: s }) => {
                        batch.extend(more);
                        seq = s;
                        coalesced += 1;
                    }
                    Ok(Job::Stop) | Err(TryRecvError::Disconnected) => {
                        stopping = true;
                        break;
                    }
                    Err(TryRecvError::Empty) => break,
                }
            }
            let grown = grow_corpus(ranker.corpus(), batch);
            ranker.extend(grown);
            // Chaos site: delay between solve and publish, widening the
            // window where readers still see the previous generation.
            failpoint!("reindex.publish");
            let next = ScoreIndex::grow(
                &last,
                ranker.shared_corpus(),
                ranker.result().article_scores.clone(),
            );
            let (installed, retired) = shared.swap(next);
            let g = installed.generation();
            // Retire the outgoing generation here, off the write lock: when
            // no reader still holds it, this is where it is freed.
            drop(retired);
            drop(std::mem::replace(&mut last, installed));
            published.fetch_add(coalesced, Ordering::SeqCst);
            on_publish(g);
            if let Some(d) = &durable {
                since_snapshot += coalesced;
                if since_snapshot >= d.snapshot_every {
                    // `seq` is the last journal record folded into this
                    // publish; channel order equals sequence order, so
                    // the snapshot covers the journal prefix `..=seq`.
                    // Failure here must not take serving down — the
                    // journal still holds everything, so durability is
                    // intact and only restart speed degrades.
                    match Self::snapshot_and_rotate(d, &ranker, seq) {
                        Ok(()) => since_snapshot = 0,
                        Err(e) => eprintln!("scholar-serve: snapshot failed (will retry): {e}"),
                    }
                }
            }
            if stopping {
                break;
            }
        }
        ranker
    }

    /// Publish a snapshot covering journal prefix `..=seq`, then rotate
    /// the journal down to the unfolded suffix. Ordering matters: the
    /// snapshot must be durable under its final name **before** any
    /// journal record it covers is dropped; a crash between the two
    /// steps leaves a longer journal than necessary, never a gap.
    fn snapshot_and_rotate(
        d: &Durable,
        ranker: &IncrementalRanker,
        seq: u64,
    ) -> snapshot::Result<()> {
        snapshot::write_snapshot(&d.dir, ranker.corpus(), ranker.result(), seq)?;
        let mut wal = d.wal.lock().unwrap_or_else(PoisonError::into_inner);
        *wal = wal::rotate(&d.dir, seq)?;
        Ok(())
    }

    /// Durably journal (when running with a state directory) and queue a
    /// batch of new articles for ranking and publication. Returns as soon
    /// as the batch is accepted — journaled and enqueued; the publish
    /// happens asynchronously.
    ///
    /// `Err(SubmitError::Journal)` means the batch was **not** accepted.
    /// `Err(SubmitError::ThreadDead)` means the reindex thread is gone;
    /// the error says whether the batch survives in the journal (it will
    /// be folded in on the next restart) or was dropped. Either way the
    /// caller's thread — typically the control plane — stays alive.
    pub fn submit(&self, batch: Vec<Article>) -> Result<(), SubmitError> {
        match &self.durable {
            Some(d) => {
                let mut wal = d.wal.lock().unwrap_or_else(PoisonError::into_inner);
                let seq = wal.append(&batch).map_err(SubmitError::Journal)?;
                // Send while still holding the journal lock: sequence
                // order must equal channel order for "folded so far" to
                // stay a journal prefix.
                self.tx
                    .send(Job::Batch { batch, seq })
                    .map_err(|_| SubmitError::ThreadDead { journaled: true })
            }
            None => self
                .tx
                .send(Job::Batch { batch, seq: 0 })
                .map_err(|_| SubmitError::ThreadDead { journaled: false }),
        }
    }

    /// Number of batches ranked and published so far.
    pub fn batches_published(&self) -> u64 {
        self.batches_published.load(Ordering::SeqCst)
    }

    /// Stop the thread after it finishes the batch in hand, returning the
    /// final ranker state (corpus + scores).
    pub fn shutdown(self) -> IncrementalRanker {
        let _ = self.tx.send(Job::Stop);
        // lint: allow(HOTPATH-PANIC) control-plane join: re-raising a background panic at shutdown is the contract, not a request-path hazard
        self.handle.join().expect("reindexer thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::TopQuery;
    use scholar_corpus::generator::Preset;
    use scholar_corpus::model::{ArticleId, AuthorId, VenueId};
    use std::time::{Duration, Instant};

    fn batch_article(i: usize, refs: Vec<ArticleId>) -> Article {
        Article {
            id: ArticleId(0),
            title: format!("swap-batch-{i}"),
            year: 2012,
            venue: VenueId(0),
            authors: vec![AuthorId(0)],
            references: refs,
            merit: None,
        }
    }

    #[test]
    fn publish_bumps_generation_and_readers_keep_snapshots() {
        let corpus = Arc::new(Preset::Tiny.generate(21));
        let scores = vec![1.0 / corpus.num_articles() as f64; corpus.num_articles()];
        let shared = SharedIndex::new(ScoreIndex::build(Arc::clone(&corpus), scores.clone()));
        let old = shared.load();
        assert_eq!(old.generation(), 1);

        let g = shared.publish(ScoreIndex::build(Arc::clone(&corpus), scores));
        assert_eq!(g, 2);
        assert_eq!(shared.generation(), 2);
        // The old snapshot is still fully usable.
        assert_eq!(old.generation(), 1);
        assert_eq!(old.num_articles(), corpus.num_articles());
        assert_eq!(shared.load().generation(), 2);
    }

    #[test]
    fn reindexer_publishes_grown_corpus() {
        let corpus = Preset::Tiny.generate(22);
        let n0 = corpus.num_articles();
        let (shared, reindexer) = Reindexer::start(QRankConfig::default(), corpus, |_| {});
        assert_eq!(shared.load().num_articles(), n0);

        reindexer
            .submit(vec![
                batch_article(0, vec![ArticleId(0), ArticleId(3)]),
                batch_article(1, vec![ArticleId(1)]),
            ])
            .unwrap();
        // Wait for the asynchronous publish (bounded, normally instant).
        let deadline = Instant::now() + Duration::from_secs(30);
        while reindexer.batches_published() < 1 {
            assert!(Instant::now() < deadline, "reindexer never published");
            std::thread::sleep(Duration::from_millis(5));
        }
        let idx = shared.load();
        assert_eq!(idx.num_articles(), n0 + 2);
        assert!(idx.generation() >= 2);
        // The published index answers queries over the grown corpus.
        let hits = idx.top(&TopQuery { k: 5, ..Default::default() });
        assert_eq!(hits.len(), 5);

        let ranker = reindexer.shutdown();
        assert_eq!(ranker.corpus().num_articles(), n0 + 2);
    }

    #[test]
    fn shutdown_publishes_the_batch_in_hand() {
        // Regression: a Stop that arrived while the reindexer was
        // coalescing used to discard the batch already dequeued,
        // breaking shutdown()'s finish-the-batch guarantee. Submitting
        // and immediately shutting down queues [Batch, Stop] before the
        // thread wakes, so the Stop is (almost always) seen mid-coalesce
        // — and the batch must still be ranked and published.
        let corpus = Preset::Tiny.generate(24);
        let n0 = corpus.num_articles();
        let (shared, reindexer) = Reindexer::start(QRankConfig::default(), corpus, |_| {});
        reindexer.submit(vec![batch_article(0, vec![ArticleId(1)])]).unwrap();
        let ranker = reindexer.shutdown();
        assert_eq!(ranker.corpus().num_articles(), n0 + 1, "accepted batch was dropped");
        let idx = shared.load();
        assert_eq!(idx.num_articles(), n0 + 1);
        assert_eq!(idx.generation(), 2);
    }

    fn state_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("scholar-swap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_restart_recovers_journaled_batches() {
        let dir = state_dir("restart");
        let corpus = Preset::Tiny.generate(25);
        let n0 = corpus.num_articles();

        // Nothing to restore is an error, not a cold start of nothing,
        // and it leaves the directory as it found it.
        std::fs::create_dir_all(&dir).unwrap();
        let err =
            Reindexer::restore_durable(QRankConfig::default(), DurableOptions::new(&dir), |_| {})
                .err()
                .expect("no snapshot to restore");
        assert!(matches!(err, snapshot::StateError::Io(_)), "{err}");
        assert!(std::fs::read_dir(&dir).unwrap().next().is_none(), "restore wrote something");

        // Cold start: full rank, initial snapshot, fresh journal.
        let (shared, reindexer, report) = Reindexer::start_durable(
            QRankConfig::default(),
            corpus.clone(),
            DurableOptions::new(&dir),
            |_| {},
        )
        .unwrap();
        assert!(!report.restored_from_snapshot);
        assert_eq!(shared.load().num_articles(), n0);
        reindexer.submit(vec![batch_article(0, vec![ArticleId(0)])]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while reindexer.batches_published() < 1 {
            assert!(Instant::now() < deadline, "reindexer never published");
            std::thread::sleep(Duration::from_millis(5));
        }
        reindexer.shutdown();

        // Restart: the batch outlived the process via the journal, and
        // generation 1 of the restarted server already covers it.
        let (shared, reindexer, report) = Reindexer::start_durable(
            QRankConfig::default(),
            corpus.clone(),
            DurableOptions::new(&dir),
            |_| {},
        )
        .unwrap();
        assert!(report.restored_from_snapshot);
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(report.replayed_articles, 1);
        let idx = shared.load();
        assert_eq!(idx.generation(), 1);
        assert_eq!(idx.num_articles(), n0 + 1);
        // Replayed state is bit-identical to rebuilding from the same
        // inputs through the same pipeline (cold rank of the base, then
        // one extend per journaled batch).
        let mut oracle = IncrementalRanker::new(QRankConfig::default(), corpus.clone());
        let grown = grow_corpus(oracle.corpus(), vec![batch_article(0, vec![ArticleId(0)])]);
        oracle.extend(grown);
        assert_eq!(
            idx.scores(),
            oracle.result().article_scores.as_slice(),
            "replayed scores must equal the pipeline rebuild bit for bit"
        );
        reindexer.shutdown();

        // Replay re-snapshots: a third start replays nothing — and a
        // restart needs no corpus.
        let (shared, reindexer, report) =
            Reindexer::restore_durable(QRankConfig::default(), DurableOptions::new(&dir), |_| {})
                .unwrap();
        assert!(report.restored_from_snapshot);
        assert_eq!(report.replayed_batches, 0);
        assert_eq!(shared.load().num_articles(), n0 + 1);
        reindexer.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_cadence_rotates_the_journal() {
        let dir = state_dir("cadence");
        let corpus = Preset::Tiny.generate(26);
        let opts = DurableOptions { state_dir: dir.clone(), snapshot_every: 1 };
        let (_shared, reindexer, _) =
            Reindexer::start_durable(QRankConfig::default(), corpus, opts, |_| {}).unwrap();
        reindexer.submit(vec![batch_article(0, vec![ArticleId(0)])]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while reindexer.batches_published() < 1 {
            assert!(Instant::now() < deadline, "reindexer never published");
            std::thread::sleep(Duration::from_millis(5));
        }
        let ranker = reindexer.shutdown();
        // snapshot_every = 1 → the publish snapshotted and rotated; the
        // journal now starts at the folded high-water mark and is empty.
        let replayed = crate::wal::replay(&dir, 0).unwrap();
        assert_eq!(replayed.base_seq, 1, "journal must have rotated past seq 1");
        assert!(replayed.records.is_empty());
        // And the rotated snapshot alone reproduces the final state.
        let restored = crate::snapshot::load_snapshot(&dir).unwrap();
        assert_eq!(restored.wal_seq, 1);
        assert_eq!(&restored.corpus, ranker.corpus());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn published_scores_match_fresh_rank_of_same_corpus() {
        // Zero drift: what the swap layer publishes must equal a from-
        // scratch rank of the identical grown corpus.
        let corpus = Preset::Tiny.generate(23);
        let (shared, reindexer) = Reindexer::start(QRankConfig::default(), corpus, |_| {});
        reindexer.submit(vec![batch_article(0, vec![ArticleId(2)])]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while reindexer.batches_published() < 1 {
            assert!(Instant::now() < deadline, "reindexer never published");
            std::thread::sleep(Duration::from_millis(5));
        }
        let idx = shared.load();
        let cold = qrank::QRank::default().run(idx.corpus());
        let drift: f64 = idx
            .scores()
            .iter()
            .zip(&cold.article_scores)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(drift < 1e-9, "published scores drifted {drift} from cold rank");
        reindexer.shutdown();
    }
}
