//! Binary columnar corpus store for out-of-core ranking.
//!
//! The JSONL/AAN/MAG loaders and [`Corpus`] itself hold
//! every article — title strings, byline `Vec`s, reference `Vec`s — in
//! RAM, which tops out around a few million articles. The colstore is
//! the out-of-core alternative: a directory of flat column files that a
//! streaming writer produces one article at a time and that
//! [`ColStore::open`] serves back through read-only memory maps, so
//! neither producing nor ranking a 10M+-article corpus ever materializes
//! it.
//!
//! ## Layout (`SCOLv1`, little-endian)
//!
//! A store directory holds seven files:
//!
//! | file          | payload                                            |
//! |---------------|----------------------------------------------------|
//! | `meta.col`    | u64 × 4: num_articles, num_authors, num_venues, num_citations |
//! | `years.col`   | i32 × n — publication year per article             |
//! | `venues.col`  | u32 × n — venue id per article                     |
//! | `authors.idx` | u64 × (n+1) — byte offsets into `authors.dat`      |
//! | `authors.dat` | per article: varint count, then varint author ids in byline order |
//! | `refs.idx`    | u64 × (n+1) — byte offsets into `refs.dat`         |
//! | `refs.dat`    | per article: varint count, then delta-varint cited ids (strictly ascending) |
//!
//! Varints are LEB128. Reference lists are stored as deltas between
//! consecutive ids, which is what makes a MAG-scale citation column a
//! few bytes per edge.
//!
//! Every file ends in a 32-byte footer: magic `SCOLv1\0\0`, `rows: u64`
//! (= num_articles), `checksum: u64` (FNV-1a 64 of the payload bytes),
//! and `generation: u64`. The generation is *content-derived* — an
//! FNV-1a hash of the entity counts and the six data-file checksums —
//! so identical corpora always stamp identical generations (no clocks),
//! and derived caches keyed by generation (the mmap CSR shard files) can
//! detect staleness.
//!
//! ## Atomicity
//!
//! The writer streams every column to a `*.tmp` sibling, appends
//! footers once all checksums are known, and publishes all seven as one
//! [`sgraph::sfile::publish_all`] group — `meta.col` strictly last.
//! Readers require `meta.col`, so a crash anywhere mid-write leaves
//! either the complete old store or no visible store at all
//! (all-or-nothing; exercised by the kill-during-write chaos schedules
//! via the `corpus.colstore.io` failpoint).

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use sgraph::mmap::Mmap;
use sgraph::sfile::{self, fnv64, push_varint, read_varint, Fnv, TmpFile};

use crate::model::{Article, ArticleId, Author, AuthorId, Venue, VenueId, Year};
use crate::rows::Rows;
use crate::{Corpus, CorpusError, Result};

const MAGIC: &[u8; 8] = b"SCOLv1\0\0";
const FOOTER_BYTES: usize = 32;

/// The column files of a store directory, in footer-hash order.
const FILES: [&str; 7] =
    ["years.col", "venues.col", "authors.idx", "authors.dat", "refs.idx", "refs.dat", "meta.col"];

/// A column file being streamed out: buffered writes with a running
/// payload checksum and length.
struct HashedFile {
    w: BufWriter<TmpFile>,
    hash: Fnv,
    len: u64,
}

impl HashedFile {
    /// Start the column that will be published as `path`.
    fn create(path: &Path) -> Result<HashedFile> {
        let tmp = TmpFile::create(path, colstore_io_check)?;
        Ok(HashedFile { w: BufWriter::new(tmp), hash: Fnv::new(), len: 0 })
    }

    fn write(&mut self, bytes: &[u8]) -> Result<()> {
        colstore_io_check()?;
        self.w.write_all(bytes)?;
        self.hash.update(bytes);
        self.len += bytes.len() as u64;
        Ok(())
    }

    /// Append the footer and flush, handing back the complete tmp file
    /// for the group publish (which fsyncs it).
    fn seal(mut self, rows: u64, generation: u64) -> Result<TmpFile> {
        let mut footer = [0u8; FOOTER_BYTES];
        footer[..8].copy_from_slice(MAGIC);
        footer[8..16].copy_from_slice(&rows.to_le_bytes());
        footer[16..24].copy_from_slice(&self.hash.finish().to_le_bytes());
        footer[24..32].copy_from_slice(&generation.to_le_bytes());
        self.w.write_all(&footer)?;
        Ok(self.w.into_inner().map_err(|e| e.into_error())?)
    }
}

/// Chaos site, and the store's [`sfile`] step hook: every write-path I/O
/// step (create, buffered write, the per-file fsyncs and renames, and
/// the final meta commit) funnels through this one check, so a
/// `fp::Script` over `corpus.colstore.io` can kill a store build at any
/// step and the all-or-nothing publish contract is what the chaos suite
/// exercises.
fn colstore_io_check() -> std::io::Result<()> {
    failpoint!(
        "corpus.colstore.io",
        return Err(std::io::Error::other("injected I/O fault at corpus.colstore.io"))
    );
    Ok(())
}

/// Streaming writer for a colstore directory.
///
/// Feed articles in ascending id order via [`ColWriter::push`], then
/// call [`ColWriter::finish`]. Nothing is visible to readers until
/// `finish` returns `Ok`; a dropped or failed writer removes its `*.tmp`
/// files (each column is an [`sfile::TmpFile`]), never leaving a partial
/// store.
pub struct ColWriter {
    dir: PathBuf,
    files: Vec<HashedFile>,
    scratch: Vec<u8>,
    n: u64,
    citations: u64,
}

/// Indices into `ColWriter::files` (same order as [`FILES`] minus meta,
/// which is produced at finish time).
const F_YEARS: usize = 0;
const F_VENUES: usize = 1;
const F_AUTHORS_IDX: usize = 2;
const F_AUTHORS_DAT: usize = 3;
const F_REFS_IDX: usize = 4;
const F_REFS_DAT: usize = 5;

impl ColWriter {
    /// Start writing a store into `dir` (created if missing).
    pub fn create(dir: &Path) -> Result<ColWriter> {
        std::fs::create_dir_all(dir)?;
        let mut files = Vec::with_capacity(6);
        for name in &FILES[..6] {
            files.push(HashedFile::create(&dir.join(name))?);
        }
        Ok(ColWriter { dir: dir.to_path_buf(), files, scratch: Vec::new(), n: 0, citations: 0 })
    }

    /// Append one article. `refs` must be strictly ascending and cite
    /// only already-pushed articles (`<` the current id) — the same
    /// DAG discipline the generator and [`Corpus`] enforce.
    pub fn push(&mut self, year: Year, venue: u32, authors: &[u32], refs: &[u32]) -> Result<()> {
        let id = self.n;
        for w in refs.windows(2) {
            if w[1] <= w[0] {
                return Err(CorpusError::Parse {
                    line: id as usize + 1,
                    message: format!("reference list not strictly ascending at article {id}"),
                });
            }
        }
        if let Some(&last) = refs.last() {
            if last as u64 >= id {
                return Err(CorpusError::Parse {
                    line: id as usize + 1,
                    message: format!("article {id} cites a not-yet-written article {last}"),
                });
            }
        }

        let (files, scratch) = (&mut self.files, &mut self.scratch);
        files[F_YEARS].write(&year.to_le_bytes())?;
        files[F_VENUES].write(&venue.to_le_bytes())?;

        let authors_off = files[F_AUTHORS_DAT].len;
        files[F_AUTHORS_IDX].write(&authors_off.to_le_bytes())?;
        scratch.clear();
        push_varint(scratch, authors.len() as u64);
        for &a in authors {
            push_varint(scratch, a as u64);
        }
        files[F_AUTHORS_DAT].write(scratch)?;

        let refs_off = files[F_REFS_DAT].len;
        files[F_REFS_IDX].write(&refs_off.to_le_bytes())?;
        scratch.clear();
        push_varint(scratch, refs.len() as u64);
        let mut prev = 0u64;
        for (k, &r) in refs.iter().enumerate() {
            let delta = if k == 0 { r as u64 } else { r as u64 - prev };
            push_varint(scratch, delta);
            prev = r as u64;
        }
        files[F_REFS_DAT].write(scratch)?;

        self.n += 1;
        self.citations += refs.len() as u64;
        Ok(())
    }

    /// Seal every column, stamp the content-derived generation, and
    /// atomically publish the store. Returns the generation.
    pub fn finish(mut self, num_authors: u64, num_venues: u64) -> Result<u64> {
        // Terminal index entries so every record is offset-delimited.
        let authors_end = self.files[F_AUTHORS_DAT].len;
        self.files[F_AUTHORS_IDX].write(&authors_end.to_le_bytes())?;
        let refs_end = self.files[F_REFS_DAT].len;
        self.files[F_REFS_IDX].write(&refs_end.to_le_bytes())?;

        // Meta column (written last, renamed last: the commit point).
        let mut meta = HashedFile::create(&self.dir.join("meta.col"))?;
        for v in [self.n, num_authors, num_venues, self.citations] {
            meta.write(&v.to_le_bytes())?;
        }

        // Generation: FNV over the counts and the data-file checksums,
        // in FILES order. Content-derived — no clocks (the workspace
        // determinism rule), so equal corpora stamp equal generations.
        let mut gen = Fnv::new();
        for v in [self.n, num_authors, num_venues, self.citations] {
            gen.update(&v.to_le_bytes());
        }
        for f in &self.files {
            gen.update(&f.hash.finish().to_le_bytes());
        }
        let generation = gen.finish();

        // Publish: data files first, meta.col last. A reader needs
        // meta.col, so until the final rename the store does not exist;
        // the one directory fsync after it makes the whole group durable.
        let mut sealed = Vec::with_capacity(FILES.len());
        for f in self.files.into_iter().chain([meta]) {
            sealed.push(f.seal(self.n, generation)?);
        }
        sfile::publish_all(sealed, colstore_io_check)?;
        Ok(generation)
    }
}

/// One mapped column file with its validated footer stripped off.
struct Column {
    map: Mmap,
    payload: usize,
    checksum: u64,
}

impl Column {
    fn open(dir: &Path, name: &str, generation: Option<u64>) -> Result<Column> {
        let path = dir.join(name);
        failpoint!("corpus.colstore.map", return Err(corrupt(name, "injected map failure")));
        let map = Mmap::map_file(&path).map_err(CorpusError::Io)?;
        if map.len() < FOOTER_BYTES {
            return Err(corrupt(name, "shorter than footer"));
        }
        let payload = map.len() - FOOTER_BYTES;
        let footer = &map.bytes()[payload..];
        if &footer[..8] != MAGIC {
            return Err(corrupt(name, "bad magic"));
        }
        let checksum = u64::from_le_bytes(footer[16..24].try_into().unwrap());
        let file_gen = u64::from_le_bytes(footer[24..32].try_into().unwrap());
        if let Some(want) = generation {
            if file_gen != want {
                return Err(corrupt(name, "generation disagrees with meta.col"));
            }
        }
        Ok(Column { map, payload, checksum })
    }

    fn rows(&self) -> u64 {
        let footer = &self.map.bytes()[self.payload..];
        u64::from_le_bytes(footer[8..16].try_into().unwrap())
    }

    fn generation(&self) -> u64 {
        let footer = &self.map.bytes()[self.payload..];
        u64::from_le_bytes(footer[24..32].try_into().unwrap())
    }

    fn payload_bytes(&self) -> &[u8] {
        &self.map.bytes()[..self.payload]
    }
}

fn corrupt(file: &str, message: &str) -> CorpusError {
    CorpusError::Corrupt { file: file.to_string(), message: message.to_string() }
}

/// An opened, mmap-backed columnar corpus.
///
/// All accessors are zero-copy over the maps except the varint-coded
/// byline/reference lists, which decode into a caller-supplied scratch
/// buffer so a full scan allocates nothing per article.
pub struct ColStore {
    dir: PathBuf,
    n: usize,
    num_authors: usize,
    num_venues: usize,
    num_citations: u64,
    generation: u64,
    years: Column,
    venues: Column,
    authors_idx: Column,
    authors_dat: Column,
    refs_idx: Column,
    refs_dat: Column,
}

impl ColStore {
    /// Open and validate the store in `dir`.
    ///
    /// Footers are checked for magic, row counts, and cross-file
    /// generation agreement; payload sizes are checked against the
    /// entity counts. Payload *checksums* are not recomputed here (that
    /// would fault in every page of a MAG-scale store) — run
    /// [`ColStore::verify`] for the full integrity pass.
    pub fn open(dir: &Path) -> Result<ColStore> {
        let meta = Column::open(dir, "meta.col", None)?;
        if meta.payload != 32 {
            return Err(corrupt("meta.col", "payload must be exactly four counters"));
        }
        let counts = meta.payload_bytes();
        let at = |i: usize| u64::from_le_bytes(counts[i * 8..i * 8 + 8].try_into().unwrap());
        let (n64, num_authors, num_venues, num_citations) = (at(0), at(1), at(2), at(3));
        let generation = meta.generation();
        let n = usize::try_from(n64).map_err(|_| corrupt("meta.col", "article count overflow"))?;

        let col = |name: &str| Column::open(dir, name, Some(generation));
        let years = col("years.col")?;
        let venues = col("venues.col")?;
        let authors_idx = col("authors.idx")?;
        let authors_dat = col("authors.dat")?;
        let refs_idx = col("refs.idx")?;
        let refs_dat = col("refs.dat")?;
        for (c, name) in [
            (&years, "years.col"),
            (&venues, "venues.col"),
            (&authors_idx, "authors.idx"),
            (&authors_dat, "authors.dat"),
            (&refs_idx, "refs.idx"),
            (&refs_dat, "refs.dat"),
        ] {
            if c.rows() != n64 {
                return Err(corrupt(name, "row count disagrees with meta.col"));
            }
        }
        if years.payload != n * 4 || venues.payload != n * 4 {
            return Err(corrupt("years.col", "fixed-width column has wrong size"));
        }
        if authors_idx.payload != (n + 1) * 8 || refs_idx.payload != (n + 1) * 8 {
            return Err(corrupt("authors.idx", "offset column has wrong size"));
        }
        let store = ColStore {
            dir: dir.to_path_buf(),
            n,
            num_authors: num_authors as usize,
            num_venues: num_venues as usize,
            num_citations,
            generation,
            years,
            venues,
            authors_idx,
            authors_dat,
            refs_idx,
            refs_dat,
        };
        let last = |c: &Column| c.map.as_u64s(n * 8, 1)[0] as usize;
        if last(&store.authors_idx) != store.authors_dat.payload
            || last(&store.refs_idx) != store.refs_dat.payload
        {
            return Err(corrupt("refs.idx", "terminal offset disagrees with data payload"));
        }
        Ok(store)
    }

    /// Recompute every payload checksum against the footers — the full
    /// (page-faulting) integrity check skipped by [`ColStore::open`].
    pub fn verify(&self) -> Result<()> {
        for (c, name) in [
            (&self.years, "years.col"),
            (&self.venues, "venues.col"),
            (&self.authors_idx, "authors.idx"),
            (&self.authors_dat, "authors.dat"),
            (&self.refs_idx, "refs.idx"),
            (&self.refs_dat, "refs.dat"),
        ] {
            if fnv64(c.payload_bytes()) != c.checksum {
                return Err(corrupt(name, "payload checksum mismatch"));
            }
        }
        Ok(())
    }

    /// The store directory (derived caches, e.g. mmap CSR shard files,
    /// live alongside the columns).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of articles.
    pub fn num_articles(&self) -> usize {
        self.n
    }

    /// Number of distinct authors.
    pub fn num_authors(&self) -> usize {
        self.num_authors
    }

    /// Number of distinct venues.
    pub fn num_venues(&self) -> usize {
        self.num_venues
    }

    /// Total number of citation edges.
    pub fn num_citations(&self) -> u64 {
        self.num_citations
    }

    /// The content-derived generation stamp shared by every column.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// All publication years, zero-copy from the map.
    pub fn years(&self) -> &[i32] {
        self.years.map.as_i32s(0, self.n)
    }

    /// The byte range of record `i`, bounds-checked against the data
    /// payload. [`ColStore::open`] validates only the *terminal* index
    /// offset, so interior offsets are untrusted bytes here: a flipped
    /// bit must surface as [`CorpusError::Corrupt`], never a panic.
    fn record<'a>(
        &self,
        name: &'static str,
        idx: &Column,
        dat: &'a Column,
        i: usize,
    ) -> Result<&'a [u8]> {
        if i >= self.n {
            return Err(corrupt(
                name,
                &format!("record {i} out of range (store has {} rows)", self.n),
            ));
        }
        let offs = idx.map.as_u64s(i * 8, 2);
        let payload = dat.payload_bytes();
        let lo = usize::try_from(offs[0]).map_err(|_| corrupt(name, "record offset overflow"))?;
        let hi = usize::try_from(offs[1]).map_err(|_| corrupt(name, "record offset overflow"))?;
        if lo > hi || hi > payload.len() {
            return Err(corrupt(name, &format!("record {i} offsets {lo}..{hi} out of bounds")));
        }
        Ok(&payload[lo..hi])
    }

    /// Decode article `i`'s byline (author ids, byline order) into `out`.
    /// Truncated or malformed bytes come back as
    /// [`CorpusError::Corrupt`] — this path reads mmap-backed disk bytes
    /// whose checksums [`ColStore::open`] deliberately skipped.
    pub fn authors_of(&self, i: usize, out: &mut Vec<u32>) -> Result<()> {
        out.clear();
        let bytes = self.record("authors.dat", &self.authors_idx, &self.authors_dat, i)?;
        let mut pos = 0;
        let count = read_varint(bytes, &mut pos).ok_or_else(|| {
            corrupt("authors.dat", &format!("truncated byline count in record {i}"))
        })?;
        // Every author id is at least one byte, so a count beyond the
        // remaining bytes is corruption — checked before the reserve so
        // a corrupt count cannot drive a huge allocation.
        if count > (bytes.len() - pos) as u64 {
            return Err(corrupt(
                "authors.dat",
                &format!("byline count {count} exceeds record {i}"),
            ));
        }
        out.reserve(count as usize);
        for _ in 0..count {
            let v = read_varint(bytes, &mut pos).ok_or_else(|| {
                corrupt("authors.dat", &format!("truncated byline varint in record {i}"))
            })?;
            let a = u32::try_from(v).map_err(|_| {
                corrupt("authors.dat", &format!("author id {v} overflows u32 in record {i}"))
            })?;
            out.push(a);
        }
        Ok(())
    }

    /// Decode article `i`'s reference list (strictly ascending cited
    /// ids) into `out`. Corrupt bytes surface as
    /// [`CorpusError::Corrupt`], like [`ColStore::authors_of`] — and so
    /// does anything [`ColWriter::push`] refuses: a repeated id (a zero
    /// delta) or a cited id that is not an earlier article (`≥ i`, which
    /// covers a self-citation and an id past the row count).
    pub fn refs_of(&self, i: usize, out: &mut Vec<u32>) -> Result<()> {
        out.clear();
        let bytes = self.record("refs.dat", &self.refs_idx, &self.refs_dat, i)?;
        let mut pos = 0;
        let count = read_varint(bytes, &mut pos).ok_or_else(|| {
            corrupt("refs.dat", &format!("truncated reference count in record {i}"))
        })?;
        if count > (bytes.len() - pos) as u64 {
            return Err(corrupt(
                "refs.dat",
                &format!("reference count {count} exceeds record {i}"),
            ));
        }
        out.reserve(count as usize);
        let mut prev = 0u64;
        for k in 0..count {
            let delta = read_varint(bytes, &mut pos).ok_or_else(|| {
                corrupt("refs.dat", &format!("truncated reference varint in record {i}"))
            })?;
            let v = if k == 0 {
                delta
            } else if delta == 0 {
                return Err(corrupt(
                    "refs.dat",
                    &format!("repeated cited id {prev} in record {i}"),
                ));
            } else {
                prev.checked_add(delta).ok_or_else(|| {
                    corrupt("refs.dat", &format!("reference delta overflow in record {i}"))
                })?
            };
            if v >= i as u64 {
                return Err(corrupt(
                    "refs.dat",
                    &format!("record {i} cites {v}, not an earlier article"),
                ));
            }
            out.push(v as u32);
            prev = v;
        }
        Ok(())
    }

    /// Materialize the store as an in-RAM [`Corpus`] with synthetic
    /// entity names (the columnar format stores structure, not strings,
    /// and no planted merit). Intended for small stores — tests, chaos
    /// round-trips, and explain tooling — not for MAG scale.
    pub fn materialize(&self) -> Result<Corpus> {
        let mut articles = Vec::with_capacity(self.n);
        let mut byline = Vec::new();
        let mut refs = Vec::new();
        for i in 0..self.n {
            self.authors_of(i, &mut byline)?;
            self.refs_of(i, &mut refs)?;
            articles.push(Article {
                id: ArticleId(i as u32),
                title: format!("article-{i}"),
                year: self.year(i),
                venue: VenueId(self.venue(i)),
                authors: byline.iter().map(|&a| AuthorId(a)).collect(),
                references: refs.iter().map(|&r| ArticleId(r)).collect(),
                merit: None,
            });
        }
        let authors = (0..self.num_authors)
            .map(|i| Author { id: AuthorId(i as u32), name: format!("author-{i}") })
            .collect();
        let venues = (0..self.num_venues)
            .map(|i| Venue { id: VenueId(i as u32), name: format!("venue-{i}") })
            .collect();
        Ok(Corpus::from_parts(articles, authors, venues))
    }
}

/// The mmap view. [`Rows`] is infallible — rankers consume stores that
/// were already opened and validated — while the list decoders under it
/// stay fallible and typed, because [`ColStore::open`] skips payload
/// checksums. A corrupt record surfacing mid-scan has no recovery at this
/// layer, so it aborts here, once, with the decoder's diagnosis instead
/// of a bare index panic.
impl Rows for ColStore {
    fn num_articles(&self) -> usize {
        self.n
    }

    fn num_authors(&self) -> usize {
        self.num_authors
    }

    fn num_venues(&self) -> usize {
        self.num_venues
    }

    fn num_citations(&self) -> usize {
        self.num_citations as usize
    }

    fn year(&self, i: usize) -> Year {
        self.years()[i]
    }

    fn venue(&self, i: usize) -> u32 {
        self.venues.map.as_u32s(0, self.n)[i]
    }

    fn byline<'a>(&'a self, i: usize, scratch: &'a mut Vec<u32>) -> &'a [u32] {
        decoded(self.authors_of(i, scratch));
        scratch
    }

    fn refs<'a>(&'a self, i: usize, scratch: &'a mut Vec<u32>) -> &'a [u32] {
        decoded(self.refs_of(i, scratch));
        scratch
    }
}

fn decoded(r: Result<()>) {
    r.unwrap_or_else(|e| panic!("column store decode failed: {e}"))
}

impl Corpus {
    /// Write this corpus out as a columnar store (strings and planted
    /// merit are not representable and are dropped). Returns the
    /// store's generation stamp.
    pub fn write_colstore(&self, dir: &Path) -> Result<u64> {
        let mut w = ColWriter::create(dir)?;
        let (mut byline, mut refs) = (Vec::new(), Vec::new());
        for (i, a) in self.articles().iter().enumerate() {
            w.push(a.year, a.venue.0, self.byline(i, &mut byline), self.refs(i, &mut refs))?;
        }
        w.finish(self.authors().len() as u64, self.venues().len() as u64)
    }
}

#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::generator::Preset;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("colstore-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let corpus = Preset::Tiny.generate(11);
        let dir = tmpdir("roundtrip");
        let generation = corpus.write_colstore(&dir).unwrap();
        let store = ColStore::open(&dir).unwrap();
        assert_eq!(store.generation(), generation);
        assert_eq!(store.num_articles(), corpus.articles().len());
        assert_eq!(store.num_authors(), corpus.authors().len());
        assert_eq!(store.num_venues(), corpus.venues().len());
        assert_eq!(store.num_citations() as usize, corpus.num_citations());
        assert_eq!(crate::rows::year_range(&store), corpus.year_range());
        store.verify().unwrap();

        let mut byline = Vec::new();
        let mut refs = Vec::new();
        for a in corpus.articles() {
            let i = a.id.0 as usize;
            assert_eq!(store.year(i), a.year);
            assert_eq!(store.venue(i), a.venue.0);
            store.authors_of(i, &mut byline).unwrap();
            assert_eq!(byline, a.authors.iter().map(|x| x.0).collect::<Vec<_>>());
            store.refs_of(i, &mut refs).unwrap();
            assert_eq!(refs, a.references.iter().map(|x| x.0).collect::<Vec<_>>());
        }

        let back = store.materialize().unwrap();
        assert_eq!(back.articles().len(), corpus.articles().len());
        for (a, b) in corpus.articles().iter().zip(back.articles()) {
            assert_eq!(
                (a.year, &a.venue, &a.authors, &a.references),
                (b.year, &b.venue, &b.authors, &b.references)
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn identical_corpora_stamp_identical_generations() {
        let corpus = Preset::Tiny.generate(3);
        let (d1, d2) = (tmpdir("gen1"), tmpdir("gen2"));
        let g1 = corpus.write_colstore(&d1).unwrap();
        let g2 = corpus.write_colstore(&d2).unwrap();
        assert_eq!(g1, g2, "generation must be content-derived");
        let other = Preset::Tiny.generate(4);
        let d3 = tmpdir("gen3");
        let g3 = other.write_colstore(&d3).unwrap();
        assert_ne!(g1, g3, "different corpora must stamp different generations");
        for d in [d1, d2, d3] {
            std::fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn empty_corpus_roundtrips() {
        let dir = tmpdir("empty");
        let w = ColWriter::create(&dir).unwrap();
        w.finish(0, 0).unwrap();
        let store = ColStore::open(&dir).unwrap();
        assert_eq!(store.num_articles(), 0);
        assert_eq!(crate::rows::year_range(&store), None);
        assert!(store.materialize().unwrap().articles().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsorted_refs_rejected() {
        let dir = tmpdir("unsorted");
        let mut w = ColWriter::create(&dir).unwrap();
        w.push(2000, 0, &[0], &[]).unwrap();
        w.push(2001, 0, &[0], &[]).unwrap();
        assert!(w.push(2002, 0, &[0], &[1, 0]).is_err());
        let mut w2 = ColWriter::create(&dir).unwrap();
        w2.push(2000, 0, &[0], &[]).unwrap();
        assert!(w2.push(2001, 0, &[0], &[1]).is_err(), "forward citation must be rejected");
        drop(w2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_column_fails_open_or_verify() {
        let corpus = Preset::Tiny.generate(5);
        let dir = tmpdir("tamper");
        corpus.write_colstore(&dir).unwrap();

        // Flip a payload byte: open (footer-only) succeeds, verify fails.
        let path = dir.join("years.col");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let store = ColStore::open(&dir).unwrap();
        assert!(store.verify().is_err(), "checksum must catch payload tampering");
        drop(store);

        // Truncate a column below its footer: open fails.
        std::fs::write(&path, &bytes[..8]).unwrap();
        assert!(ColStore::open(&dir).is_err());

        // Remove the commit point: the store does not exist.
        std::fs::remove_file(dir.join("meta.col")).unwrap();
        assert!(ColStore::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_bytes_surface_as_typed_errors_not_panics() {
        let dir = tmpdir("corrupt-bytes");
        let mut w = ColWriter::create(&dir).unwrap();
        w.push(2000, 0, &[1, 2], &[]).unwrap();
        w.push(2001, 1, &[0], &[0]).unwrap();
        w.finish(3, 2).unwrap();
        let mut out = Vec::new();

        // Open skips payload checksums by design, so every tampered
        // store below opens fine — the *decode* must refuse, with a
        // typed Corrupt error, never a panic or a bogus huge reserve.

        // Record 0 of authors.dat is [count=2, 1, 2]. A count claiming
        // more entries than the record holds:
        let dat = dir.join("authors.dat");
        let good = std::fs::read(&dat).unwrap();
        let mut bytes = good.clone();
        bytes[0] = 0x7f;
        std::fs::write(&dat, &bytes).unwrap();
        let store = ColStore::open(&dir).unwrap();
        let err = store.authors_of(0, &mut out).unwrap_err();
        assert!(matches!(err, CorpusError::Corrupt { .. }), "{err}");

        // A varint truncated by the record boundary (continuation bit
        // set on the record's last byte):
        let mut bytes = good.clone();
        bytes[2] = 0x80;
        std::fs::write(&dat, &bytes).unwrap();
        let store = ColStore::open(&dir).unwrap();
        let err = store.authors_of(0, &mut out).unwrap_err();
        assert!(matches!(err, CorpusError::Corrupt { .. }), "{err}");
        std::fs::write(&dat, &good).unwrap();

        // An interior index offset pointing past the data payload —
        // open only validates the terminal offset:
        let idx = dir.join("refs.idx");
        let mut bytes = std::fs::read(&idx).unwrap();
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&idx, &bytes).unwrap();
        let store = ColStore::open(&dir).unwrap();
        let err = store.refs_of(0, &mut out).unwrap_err();
        assert!(matches!(err, CorpusError::Corrupt { .. }), "{err}");

        // A record id past the row count (a corrupt reference chased
        // into `authors_of`) is typed, not an index panic.
        let err = store.authors_of(99, &mut out).unwrap_err();
        assert!(matches!(err, CorpusError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overlong_varint_is_corrupt_not_id_zero() {
        // Article 11 has ten one-byte authors and ten one-byte reference
        // deltas, so both of its records are 11 bytes: room for a count
        // of 1 followed by the 10-byte varint `80×9 02` (bit 64 set).
        // The decoder this store used to carry returned id 0 for it.
        let dir = tmpdir("overlong");
        let mut w = ColWriter::create(&dir).unwrap();
        for i in 0..11 {
            w.push(2000 + i, 0, &[0], &[]).unwrap();
        }
        let ten: Vec<u32> = (0..10).collect();
        w.push(2011, 0, &ten, &ten).unwrap();
        w.finish(10, 1).unwrap();

        let mut record = vec![1u8];
        record.extend([0x80u8; 9]);
        record.push(0x02);
        for name in ["authors.dat", "refs.dat"] {
            let path = dir.join(name);
            let mut bytes = std::fs::read(&path).unwrap();
            let end = bytes.len() - FOOTER_BYTES;
            bytes[end - record.len()..end].copy_from_slice(&record);
            std::fs::write(&path, &bytes).unwrap();
        }
        let store = ColStore::open(&dir).unwrap();
        let mut out = Vec::new();
        let err = store.authors_of(11, &mut out).unwrap_err();
        assert!(matches!(err, CorpusError::Corrupt { .. }), "{err}");
        let err = store.refs_of(11, &mut out).unwrap_err();
        assert!(matches!(err, CorpusError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refs_the_writer_refuses_are_corrupt_not_edges() {
        // Article 2 cites [0, 1], so its refs.dat record is the last three
        // payload bytes: count 2, then deltas 0 and 1. Open skips payload
        // checksums, so each patched store opens and the decode must refuse.
        let dir = tmpdir("refused-refs");
        let mut w = ColWriter::create(&dir).unwrap();
        w.push(2000, 0, &[0], &[]).unwrap();
        w.push(2001, 0, &[0], &[0]).unwrap();
        w.push(2002, 0, &[0], &[0, 1]).unwrap();
        w.finish(1, 1).unwrap();
        let path = dir.join("refs.dat");
        let good = std::fs::read(&path).unwrap();
        let end = good.len() - FOOTER_BYTES;
        assert_eq!(good[end - 3..end], [2, 0, 1]);
        let mut out = Vec::new();
        for (patch, what) in [
            ([2, 0, 0], "a zero delta repeats id 0"),
            ([2, 0, 2], "id 2 cites itself"),
            ([2, 0, 0x7f], "id 127 is past the 3 rows"),
            ([2, 3, 1], "a first id past the record"),
        ] {
            let mut bytes = good.clone();
            bytes[end - 3..end].copy_from_slice(&patch);
            std::fs::write(&path, &bytes).unwrap();
            let store = ColStore::open(&dir).unwrap();
            let err = store.refs_of(2, &mut out).unwrap_err();
            assert!(matches!(err, CorpusError::Corrupt { .. }), "{what}: {err}");
            assert!(err.to_string().contains("record 2"), "{what}: {err}");
        }
        std::fs::write(&path, &good).unwrap();
        ColStore::open(&dir).unwrap().refs_of(2, &mut out).unwrap();
        assert_eq!(out, [0, 1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unfinished_writer_leaves_no_store() {
        let dir = tmpdir("unfinished");
        let mut w = ColWriter::create(&dir).unwrap();
        w.push(2000, 0, &[0], &[]).unwrap();
        drop(w);
        assert!(ColStore::open(&dir).is_err(), "unfinished write must not be visible");
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "dropped writer must clean up its temp files"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
