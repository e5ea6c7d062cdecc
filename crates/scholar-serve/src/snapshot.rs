//! SNAPv2: the durable serving state — one SCOLv2 corpus store and the
//! four score vectors ranked over it.
//!
//! The serving stack's crash-safe restart path (DESIGN.md §2.11). A state
//! directory holds everything [`crate::Reindexer`] needs to resume
//! serving without a solve, in two artifacts:
//!
//! - `corpus-<tag>/` — the corpus (articles, bylines, references,
//!   titles, merit, names) as a `scholar_corpus::colstore` SCOLv2 store,
//!   written by [`Corpus::write_colstore`]: every column checksummed and
//!   stamped with the store's content-derived generation;
//! - `snapshot.snap` — a thin file that names the store and carries the
//!   four score vectors of the current [`qrank::QRankResult`].
//!
//! ## `snapshot.snap` layout (little-endian)
//!
//! | bytes      | field                                                  |
//! |------------|--------------------------------------------------------|
//! | 0..8       | magic `SNAPv2\0\0`                                     |
//! | 8..16      | generation                                             |
//! | 16..24     | `wal_seq`, the WAL high-water mark the snapshot covers |
//! | 24..32     | store tag: the store is `corpus-<tag, 16 hex digits>/` |
//! | 32..40     | the store's generation                                 |
//! | 40..64     | n_articles, n_authors, n_venues                        |
//! | 64..       | f64 scores: article × n, venue × n_venues, author × n_authors, TWPR × n |
//! | last 16    | end magic `SNAPend\0`, generation echo                 |
//!
//! The generation is content-derived: the FNV-1a 64 of every byte from
//! `wal_seq` up to the footer. It is the file's checksum too — a flipped
//! bit anywhere surfaces as a typed [`StateError::Corrupt`] — two
//! snapshots of identical state agree, and any difference in state (the
//! corpus through the store's generation) changes it. A file in an
//! older layout (`SNAPv1`, which carried the corpus itself) is refused
//! with [`StateError::Unsupported`], which names its version.
//!
//! ## Publish and load
//!
//! [`write_snapshot`] writes the store first, under a name fixed before
//! it is written, then publishes `snapshot.snap` through
//! [`sgraph::sfile::TmpFile`] (DESIGN.md §2.14). That rename is the
//! commit point: a crash before it leaves the old snapshot naming the
//! old store, both intact; after it, the new pair. Then every other
//! `corpus-*` — the old store, and any stray a killed publish left — is
//! removed. [`load_snapshot`] checks the file, opens the store it names,
//! checks the store's generation, re-hashes every column
//! (`ColStore::verify`, since `open` skips payloads) and materializes
//! the corpus through `Corpus::assemble`.
//!
//! Every `snapshot.snap` I/O step, and the restart-side map, funnels
//! through the `snapshot.io` failpoint, and every store write step
//! through `corpus.colstore.io`, so the chaos suite can kill a publish
//! (or a restart's load) at any step of either artifact and assert the
//! all-or-nothing contract.

use qrank::QRankResult;
use scholar_corpus::colstore::ColStore;
use scholar_corpus::{Corpus, CorpusError};
use scholar_rank::Diagnostics;
use sgraph::mmap::Mmap;
use sgraph::sfile::{fnv64, Fnv, TmpFile};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Errors from the durable-state layer (snapshot + WAL).
#[derive(Debug)]
pub enum StateError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A state file failed validation (bad magic, checksum, bounds, or
    /// internal structure).
    Corrupt {
        /// The offending file name.
        file: String,
        /// Description of the problem.
        message: String,
    },
    /// A state file is in an on-disk layout this build does not read:
    /// an older version of the format, named by its magic.
    Unsupported {
        /// The offending file name.
        file: String,
        /// The version the file's magic names, e.g. `SNAPv1`.
        found: String,
        /// The version this build reads.
        want: &'static str,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Io(e) => write!(f, "state io error: {e}"),
            StateError::Corrupt { file, message } => {
                write!(f, "corrupt state file {file}: {message}")
            }
            StateError::Unsupported { file, found, want } => {
                write!(f, "state file {file} is {found}; this build reads only {want}")
            }
        }
    }
}

impl std::error::Error for StateError {}

impl From<std::io::Error> for StateError {
    fn from(e: std::io::Error) -> Self {
        StateError::Io(e)
    }
}

/// Result alias for the durable-state layer.
pub type Result<T> = std::result::Result<T, StateError>;

const MAGIC: &[u8; 8] = b"SNAPv2\0\0";
const END_MAGIC: &[u8; 8] = b"SNAPend\0";
const SNAP_FILE: &str = "snapshot.snap";

/// Header: magic, generation, wal_seq, store tag, store generation,
/// n_articles, n_authors, n_venues.
const HEADER_BYTES: usize = 64;
/// Footer: end magic + generation echo (truncation tripwire).
const FOOTER_BYTES: usize = 16;
/// Where the bytes the generation hashes start: right after it.
const HASHED_FROM: usize = 16;

/// Chaos site, and the snapshot's `sfile` step hook: every snapshot I/O
/// step (tmp create, chunk writes, fsync, the rename publish, and the
/// restart-side mmap) funnels through this one check, so a `fp::Script`
/// over `snapshot.io` can kill a snapshot publish or load at any step.
fn snapshot_io_check() -> std::io::Result<()> {
    failpoint!(
        "snapshot.io",
        return Err(std::io::Error::other("injected I/O fault at snapshot.io"))
    );
    Ok(())
}

fn corrupt(message: impl Into<String>) -> StateError {
    StateError::Corrupt { file: SNAP_FILE.to_owned(), message: message.into() }
}

/// Path of the published snapshot inside a state directory.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAP_FILE)
}

/// The directory name of the store with `tag`.
fn store_name(tag: u64) -> String {
    format!("corpus-{tag:016x}")
}

/// Whether `name` has the shape of [`store_name`]'s output.
fn is_store_name(name: &str) -> bool {
    name.strip_prefix("corpus-")
        .is_some_and(|tag| tag.len() == 16 && tag.bytes().all(|b| b.is_ascii_hexdigit()))
}

/// The store tag of the snapshot published in `dir`, if there is a
/// readable one.
fn live_tag(dir: &Path) -> Option<u64> {
    let mut head = [0u8; 32];
    std::fs::File::open(snapshot_path(dir)).and_then(|mut f| f.read_exact(&mut head)).ok()?;
    let tag = head.get(24..32)?.try_into().ok().map(u64::from_le_bytes)?;
    head.starts_with(MAGIC).then_some(tag)
}

/// A store error as a state error: I/O stays I/O (with the failpoint
/// that injected it, if any, in its message) and a refused version stays
/// typed.
fn store_error(store: &str, e: CorpusError) -> StateError {
    match e {
        CorpusError::Io(e) => StateError::Io(e),
        CorpusError::Unsupported { file, found, want } => {
            StateError::Unsupported { file: format!("{store}/{file}"), found, want }
        }
        other => StateError::Corrupt { file: store.to_owned(), message: other.to_string() },
    }
}

/// Write a snapshot of `(corpus, result)` into `dir`: the corpus as the
/// store `dir/corpus-<tag>/`, then `dir/snapshot.snap`, recording
/// `wal_seq` as the WAL high-water mark it covers (replay resumes after
/// this sequence number). Atomic: `snapshot.snap` appears under its
/// final name only complete and fsynced, naming a store that is already
/// published, and `Ok` means the rename itself is durable (the directory
/// fsync error is returned, not dropped). Returns the content-derived
/// snapshot generation.
pub fn write_snapshot(
    dir: &Path,
    corpus: &Corpus,
    result: &QRankResult,
    wal_seq: u64,
) -> Result<u64> {
    std::fs::create_dir_all(dir)?;
    // The store's name is fixed before it is written: the WAL high-water
    // mark — unless the live snapshot already names that store (a state
    // rewritten at the sequence number it covers), which must never be
    // written over.
    let tag = if live_tag(dir) == Some(wal_seq) { wal_seq.wrapping_add(1) } else { wal_seq };
    let store = store_name(tag);
    let store_generation =
        corpus.write_colstore(&dir.join(&store)).map_err(|e| store_error(&store, e))?;

    let counts = [corpus.num_articles(), corpus.num_authors(), corpus.num_venues()];
    let mut words = Vec::with_capacity(HEADER_BYTES - HASHED_FROM);
    for word in [wal_seq, tag, store_generation].into_iter().chain(counts.map(|c| c as u64)) {
        words.extend_from_slice(&word.to_le_bytes());
    }
    let vectors =
        [&result.article_scores, &result.venue_scores, &result.author_scores, &result.twpr_scores];
    let mut scores = Vec::with_capacity(vectors.iter().map(|v| v.len() * 8).sum());
    for x in vectors.into_iter().flatten() {
        scores.extend_from_slice(&x.to_le_bytes());
    }
    let mut hash = Fnv::new();
    hash.update(&words);
    hash.update(&scores);
    let generation = hash.finish();

    let mut header = Vec::with_capacity(HEADER_BYTES);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&generation.to_le_bytes());
    header.extend_from_slice(&words);
    let mut footer = Vec::with_capacity(FOOTER_BYTES);
    footer.extend_from_slice(END_MAGIC);
    footer.extend_from_slice(&generation.to_le_bytes());

    let mut tmp = TmpFile::create(&snapshot_path(dir), snapshot_io_check)?;
    for chunk in [header.as_slice(), scores.as_slice(), footer.as_slice()] {
        snapshot_io_check()?;
        tmp.write_all(chunk)?;
    }
    // The commit point. The state-directory fsync this publish ends
    // with, after the rename, is also what makes the `corpus-<tag>`
    // directory entry durable: the store's own publish fsynced the
    // store directory, not the state directory that names it.
    tmp.publish(snapshot_io_check)?;
    remove_other_stores(dir, &store);
    Ok(generation)
}

/// Remove every store in `dir` but `keep`: the one the previous snapshot
/// named, and strays from publishes killed before their commit. Best
/// effort — the snapshot has committed, and a store left behind here is
/// removed by the next publish.
fn remove_other_stores(dir: &Path, keep: &str) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if is_store_name(&name) && name != keep {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Everything a restart recovers from a snapshot.
#[derive(Debug)]
pub struct RestoredState {
    /// The corpus as of the snapshot.
    pub corpus: Corpus,
    /// The ranking as of the snapshot. Convergence diagnostics are
    /// [`Diagnostics::closed_form`] — the snapshot stores the fixpoint,
    /// not the path to it.
    pub result: QRankResult,
    /// WAL sequence number the snapshot covers; replay resumes after it.
    pub wal_seq: u64,
    /// Content-derived snapshot generation.
    pub generation: u64,
}

/// Map and validate `dir/snapshot.snap` and the store it names, decoding
/// them back into the corpus and ranking they were written from. Every
/// byte of both is checked against its checksum before any is trusted;
/// structural errors come back as [`StateError::Corrupt`], an older
/// layout as [`StateError::Unsupported`].
pub fn load_snapshot(dir: &Path) -> Result<RestoredState> {
    snapshot_io_check()?;
    let map = Mmap::map_file(&snapshot_path(dir))?;
    let bytes = map.bytes();
    if bytes.len() < HEADER_BYTES + FOOTER_BYTES {
        return Err(corrupt(format!("file is {} bytes, shorter than any snapshot", bytes.len())));
    }
    // Every offset read is inside the length-checked header or footer.
    let word = |at: usize| {
        bytes.get(at..at + 8).and_then(|b| b.try_into().ok()).map_or(0, u64::from_le_bytes)
    };
    let magic = bytes.get(..8).unwrap_or_default();
    if magic != MAGIC {
        if magic.starts_with(b"SNAPv") {
            let found = String::from_utf8_lossy(magic).trim_end_matches('\0').to_owned();
            return Err(StateError::Unsupported {
                file: SNAP_FILE.to_owned(),
                found,
                want: "SNAPv2",
            });
        }
        return Err(corrupt("bad magic"));
    }
    let generation = word(8);
    let (wal_seq, tag, store_generation) = (word(16), word(24), word(32));
    let (n, n_authors, n_venues) = (word(40), word(48), word(56));
    // Widened so that no count in a corrupt header can overflow.
    let floats = 2 * n as u128 + n_authors as u128 + n_venues as u128;
    if (HEADER_BYTES + FOOTER_BYTES) as u128 + 8 * floats != bytes.len() as u128 {
        return Err(corrupt(format!(
            "file is {} bytes, but its counts ({n} articles, {n_authors} authors, \
             {n_venues} venues) need {}",
            bytes.len(),
            (HEADER_BYTES + FOOTER_BYTES) as u128 + 8 * floats
        )));
    }
    let footer_at = bytes.len() - FOOTER_BYTES;
    if bytes.get(footer_at..footer_at + 8) != Some(END_MAGIC) {
        return Err(corrupt("missing end marker (truncated file)"));
    }
    if word(footer_at + 8) != generation {
        return Err(corrupt("footer generation does not echo the header"));
    }
    if fnv64(bytes.get(HASHED_FROM..footer_at).unwrap_or_default()) != generation {
        return Err(corrupt("generation does not match content"));
    }

    let store_dir = store_name(tag);
    let store_corrupt = |message: String| StateError::Corrupt { file: store_dir.clone(), message };
    let store = ColStore::open(&dir.join(&store_dir)).map_err(|e| store_error(&store_dir, e))?;
    if store.generation() != store_generation {
        return Err(store_corrupt(format!(
            "store generation {:016x}, but the snapshot names {store_generation:016x}",
            store.generation()
        )));
    }
    let (n, n_authors, n_venues) = (n as usize, n_authors as usize, n_venues as usize);
    if (store.num_articles(), store.num_authors(), store.num_venues()) != (n, n_authors, n_venues) {
        return Err(store_corrupt("store counts disagree with the snapshot's".to_owned()));
    }
    store.verify().map_err(|e| store_error(&store_dir, e))?;
    let corpus = store.materialize().map_err(|e| store_error(&store_dir, e))?;

    // The score vectors, in file order (struct fields evaluate in the
    // order written).
    let mut at = HEADER_BYTES;
    let mut scores = |count: usize| {
        let v = map.as_f64s(at, count).to_vec();
        at += count * 8;
        v
    };
    let result = QRankResult {
        article_scores: scores(n),
        venue_scores: scores(n_venues),
        author_scores: scores(n_authors),
        twpr_scores: scores(n),
        twpr_diagnostics: Diagnostics::closed_form(),
        outer: Diagnostics::closed_form(),
    };
    Ok(RestoredState { corpus, result, wal_seq, generation })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrank::QRank;
    use scholar_corpus::generator::Preset;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scholar-snap-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ranked(seed: u64) -> (Corpus, QRankResult) {
        let corpus = Preset::Tiny.generate(seed);
        let result = QRank::default().run(&corpus);
        (corpus, result)
    }

    #[test]
    fn round_trip_preserves_corpus_and_scores() {
        let dir = tmpdir("roundtrip");
        let (corpus, result) = ranked(71);
        let wrote = write_snapshot(&dir, &corpus, &result, 42).unwrap();
        let restored = load_snapshot(&dir).unwrap();
        assert_eq!(restored.generation, wrote);
        assert_eq!(restored.wal_seq, 42);
        assert_eq!(restored.corpus, corpus);
        assert_eq!(restored.result.article_scores, result.article_scores);
        assert_eq!(restored.result.venue_scores, result.venue_scores);
        assert_eq!(restored.result.author_scores, result.author_scores);
        assert_eq!(restored.result.twpr_scores, result.twpr_scores);
        // Names survive verbatim (fragments are rendered from them).
        assert_eq!(restored.corpus.venues()[0].name, corpus.venues()[0].name);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generation_is_content_derived() {
        let dir_a = tmpdir("gen-a");
        let dir_b = tmpdir("gen-b");
        let (corpus, result) = ranked(72);
        let a = write_snapshot(&dir_a, &corpus, &result, 7).unwrap();
        let b = write_snapshot(&dir_b, &corpus, &result, 7).unwrap();
        assert_eq!(a, b, "identical state must produce identical generations");
        let c = write_snapshot(&dir_b, &corpus, &result, 8).unwrap();
        assert_ne!(a, c, "a different WAL high-water mark is different state");
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn tampered_snapshot_fails_with_typed_error() {
        let dir = tmpdir("tamper");
        let (corpus, result) = ranked(73);
        write_snapshot(&dir, &corpus, &result, 0).unwrap();
        let path = snapshot_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one score bit past the header.
        let at = super::HEADER_BYTES + 5;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match load_snapshot(&dir) {
            Err(StateError::Corrupt { .. }) => {}
            other => panic!("tampered snapshot must fail Corrupt, got {other:?}"),
        }
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        load_snapshot(&dir).unwrap();

        // Flip one bit of a store column: `open` skips payloads, so the
        // load's `verify` is what must refuse it.
        let column = dir.join(store_name(0)).join("titles.dat");
        let mut bytes = std::fs::read(&column).unwrap();
        bytes[0] ^= 0x40;
        std::fs::write(&column, &bytes).unwrap();
        match load_snapshot(&dir) {
            Err(StateError::Corrupt { file, message }) => {
                assert_eq!(file, store_name(0));
                assert!(message.contains("titles.dat"), "{message}");
            }
            other => panic!("tampered store must fail Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_snapshot_fails_with_typed_error() {
        let dir = tmpdir("truncate");
        let (corpus, result) = ranked(74);
        write_snapshot(&dir, &corpus, &result, 0).unwrap();
        let path = snapshot_path(&dir);
        let bytes = std::fs::read(&path).unwrap();
        for keep in [bytes.len() - 3, bytes.len() / 2, super::HEADER_BYTES, 5] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            match load_snapshot(&dir) {
                Err(StateError::Corrupt { .. }) | Err(StateError::Io(_)) => {}
                other => panic!("truncated snapshot ({keep} bytes) must fail, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The entries of a state directory, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn every_publish_leaves_one_store_and_never_writes_over_the_live_one() {
        let dir = tmpdir("one-store");
        let (corpus, result) = ranked(75);
        let (other, other_result) = ranked(76);
        // A stray from a publish killed before its commit.
        std::fs::create_dir_all(dir.join(store_name(9))).unwrap();
        // (state, wal_seq, tag the store must get): a rewrite at the live
        // snapshot's own sequence number moves to the next tag.
        let steps =
            [(&corpus, &result, 0, 0), (&other, &other_result, 0, 1), (&corpus, &result, 4, 4)];
        for (corpus, result, wal_seq, tag) in steps {
            let generation = write_snapshot(&dir, corpus, result, wal_seq).unwrap();
            assert_eq!(listing(&dir), [store_name(tag).as_str(), SNAP_FILE]);
            let restored = load_snapshot(&dir).unwrap();
            assert_eq!((restored.generation, restored.wal_seq), (generation, wal_seq));
            assert_eq!(&restored.corpus, corpus);
            assert_eq!(restored.result.article_scores, result.article_scores);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_older_layout_is_refused_by_name() {
        let dir = tmpdir("v1");
        let mut bytes = b"SNAPv1\0\0".to_vec();
        bytes.resize(1024, 0);
        std::fs::write(snapshot_path(&dir), &bytes).unwrap();
        match load_snapshot(&dir) {
            Err(e @ StateError::Unsupported { .. }) => {
                assert_eq!(
                    e.to_string(),
                    "state file snapshot.snap is SNAPv1; this build reads only SNAPv2"
                );
            }
            other => panic!("a SNAPv1 file must be Unsupported, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_is_io_not_corrupt() {
        let dir = tmpdir("missing");
        match load_snapshot(&dir) {
            Err(StateError::Io(_)) => {}
            other => panic!("missing snapshot must be Io, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
