//! Binary columnar corpus store: the one on-disk encoding of a corpus.
//!
//! The JSONL/AAN/MAG loaders and [`Corpus`] itself hold
//! every article — title strings, byline `Vec`s, reference `Vec`s — in
//! RAM, which tops out around a few million articles. The colstore is
//! the out-of-core alternative: a directory of flat column files that a
//! streaming writer produces one article at a time and that
//! [`ColStore::open`] serves back through read-only memory maps, so
//! neither producing nor ranking a 10M+-article corpus ever materializes
//! it. It carries the whole corpus — titles, planted merit and both name
//! tables included — so it is also the corpus half of a serving state
//! directory (DESIGN.md §2.11), and [`ColStore::materialize`] gives back
//! exactly the [`Corpus`] that [`Corpus::write_colstore`] wrote.
//!
//! ## Layout (`SCOLv2`, little-endian)
//!
//! A store directory holds fifteen files:
//!
//! | file               | payload                                            |
//! |--------------------|----------------------------------------------------|
//! | `meta.col`         | u64 × 4: num_articles, num_authors, num_venues, num_citations |
//! | `years.col`        | i32 × n — publication year per article             |
//! | `venues.col`       | u32 × n — venue id per article                     |
//! | `authors.idx`      | u64 × (n+1) — byte offsets into `authors.dat`      |
//! | `authors.dat`      | per article: varint count, then varint author ids in byline order |
//! | `refs.idx`         | u64 × (n+1) — byte offsets into `refs.dat`         |
//! | `refs.dat`         | per article: varint count, then delta-varint cited ids (strictly ascending) |
//! | `titles.idx`       | u64 × (n+1) — byte offsets into `titles.dat`       |
//! | `titles.dat`       | per article: the title's UTF-8 bytes               |
//! | `merit_mask.col`   | u8 × n — 1 where the article has a planted merit   |
//! | `merit.col`        | f64 × n — the merit, 0.0 where the mask is 0       |
//! | `venue_names.idx`  | u64 × (num_venues+1) — byte offsets into `venue_names.dat` |
//! | `venue_names.dat`  | per venue: the name's UTF-8 bytes                  |
//! | `author_names.idx` | u64 × (num_authors+1) — byte offsets into `author_names.dat` |
//! | `author_names.dat` | per author: the name's UTF-8 bytes                 |
//!
//! Varints are LEB128. Reference lists are stored as deltas between
//! consecutive ids, which is what makes a MAG-scale citation column a
//! few bytes per edge. Every venue, author and cited id is inside its
//! table's count, and no article cites itself: [`ColWriter`] refuses a
//! store that breaks this and [`ColStore::verify`] reports one.
//!
//! Every file ends in a 32-byte footer: magic `SCOLv2\0\0`, `rows: u64`
//! (= num_articles), `checksum: u64` (FNV-1a 64 of the payload bytes),
//! and `generation: u64`. The generation is *content-derived* — an
//! FNV-1a hash of the entity counts and the fourteen data-file checksums —
//! so identical corpora always stamp identical generations (no clocks),
//! and derived caches keyed by generation (the mmap CSR shard files) can
//! detect staleness. A store written in an older layout (`SCOLv1`, which
//! had no strings and no merit) is refused with
//! [`CorpusError::Unsupported`], which names its version.
//!
//! ## Atomicity
//!
//! The writer streams every column to a `*.tmp` sibling, appends
//! footers once all checksums are known, and publishes all fifteen as one
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

const MAGIC: &[u8; 8] = b"SCOLv2\0\0";
const FOOTER_BYTES: usize = 32;

/// The column files of a store directory, in footer-hash order: the
/// data columns, then `meta.col`, the commit point.
const FILES: [&str; 15] = [
    "years.col",
    "venues.col",
    "authors.idx",
    "authors.dat",
    "refs.idx",
    "refs.dat",
    "titles.idx",
    "titles.dat",
    "merit_mask.col",
    "merit.col",
    "venue_names.idx",
    "venue_names.dat",
    "author_names.idx",
    "author_names.dat",
    "meta.col",
];
/// The number of data columns (every file but `meta.col`).
const DATA: usize = FILES.len() - 1;

/// Indices into [`FILES`]. An idx+dat pair is named by its `.idx`
/// column; its `.dat` column is the next one.
const F_YEARS: usize = 0;
const F_VENUES: usize = 1;
const F_AUTHORS: usize = 2;
const F_REFS: usize = 4;
const F_TITLES: usize = 6;
const F_MERIT_MASK: usize = 8;
const F_MERIT: usize = 9;
const F_VENUE_NAMES: usize = 10;
const F_AUTHOR_NAMES: usize = 12;
const PAIRS: [usize; 5] = [F_AUTHORS, F_REFS, F_TITLES, F_VENUE_NAMES, F_AUTHOR_NAMES];

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

/// Append one record to the idx+dat pair at `idx`: its start offset
/// into the data column, then its bytes.
fn push_record(files: &mut [HashedFile], idx: usize, bytes: &[u8]) -> Result<()> {
    let offset = files[idx + 1].len;
    files[idx].write(&offset.to_le_bytes())?;
    files[idx + 1].write(bytes)
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
/// call [`ColWriter::finish`] with the name tables. Nothing is visible
/// to readers until `finish` returns `Ok`; a dropped or failed writer
/// removes its `*.tmp` files (each column is an [`sfile::TmpFile`]),
/// never leaving a partial store.
pub struct ColWriter {
    dir: PathBuf,
    files: Vec<HashedFile>,
    scratch: Vec<u8>,
    n: u64,
    citations: u64,
    /// The largest venue, author and cited id pushed so far, each with
    /// the first article that named it. Only `finish` knows the counts
    /// they must stay inside.
    highest: [Option<(u32, u32)>; 3],
}

impl ColWriter {
    /// Start writing a store into `dir` (created if missing).
    pub fn create(dir: &Path) -> Result<ColWriter> {
        std::fs::create_dir_all(dir)?;
        let mut files = Vec::with_capacity(DATA);
        for name in &FILES[..DATA] {
            files.push(HashedFile::create(&dir.join(name))?);
        }
        Ok(ColWriter {
            dir: dir.to_path_buf(),
            files,
            scratch: Vec::new(),
            n: 0,
            citations: 0,
            highest: [None; 3],
        })
    }

    /// Append one article. `refs` must be strictly ascending and must not
    /// cite the article itself; [`ColWriter::finish`] checks that every
    /// cited id names an article of the finished store, and that the
    /// venue and byline ids are inside the name tables.
    pub fn push(
        &mut self,
        year: Year,
        venue: u32,
        authors: &[u32],
        refs: &[u32],
        title: &str,
        merit: Option<f64>,
    ) -> Result<()> {
        let id = self.n;
        for w in refs.windows(2) {
            if w[1] <= w[0] {
                return Err(CorpusError::Parse {
                    line: id as usize + 1,
                    message: format!("reference list not strictly ascending at article {id}"),
                });
            }
        }
        if refs.iter().any(|&r| r as u64 == id) {
            return Err(CorpusError::Parse {
                line: id as usize + 1,
                message: format!("article {id} cites itself"),
            });
        }
        let tops = [Some(venue), authors.iter().copied().max(), refs.last().copied()];
        for (slot, top) in self.highest.iter_mut().zip(tops) {
            if let Some(top) = top {
                if slot.is_none_or(|(seen, _)| top > seen) {
                    *slot = Some((top, id as u32));
                }
            }
        }

        let (files, scratch) = (&mut self.files, &mut self.scratch);
        files[F_YEARS].write(&year.to_le_bytes())?;
        files[F_VENUES].write(&venue.to_le_bytes())?;

        scratch.clear();
        push_varint(scratch, authors.len() as u64);
        for &a in authors {
            push_varint(scratch, a as u64);
        }
        push_record(files, F_AUTHORS, scratch)?;

        scratch.clear();
        push_varint(scratch, refs.len() as u64);
        let mut prev = 0u64;
        for (k, &r) in refs.iter().enumerate() {
            let delta = if k == 0 { r as u64 } else { r as u64 - prev };
            push_varint(scratch, delta);
            prev = r as u64;
        }
        push_record(files, F_REFS, scratch)?;

        push_record(files, F_TITLES, title.as_bytes())?;
        files[F_MERIT_MASK].write(&[merit.is_some() as u8])?;
        files[F_MERIT].write(&merit.unwrap_or(0.0).to_le_bytes())?;

        self.n += 1;
        self.citations += refs.len() as u64;
        Ok(())
    }

    /// Write the name tables (author and venue names in id order; their
    /// lengths are the store's author and venue counts), seal every
    /// column, stamp the content-derived generation, and atomically
    /// publish the store. Returns the generation.
    ///
    /// A venue, author or cited id outside its table is a
    /// [`CorpusError::DanglingReference`], and nothing is published.
    pub fn finish<'a>(
        mut self,
        authors: impl IntoIterator<Item = &'a str>,
        venues: impl IntoIterator<Item = &'a str>,
    ) -> Result<u64> {
        let mut num_authors = 0u64;
        for name in authors {
            push_record(&mut self.files, F_AUTHOR_NAMES, name.as_bytes())?;
            num_authors += 1;
        }
        let mut num_venues = 0u64;
        for name in venues {
            push_record(&mut self.files, F_VENUE_NAMES, name.as_bytes())?;
            num_venues += 1;
        }
        let bounds = [("venue", num_venues), ("author", num_authors), ("article", self.n)];
        for ((kind, count), top) in bounds.into_iter().zip(self.highest) {
            if let Some((id, article)) = top.filter(|&(id, _)| id as u64 >= count) {
                return Err(CorpusError::DanglingReference { kind, id, article });
            }
        }

        // Terminal index entries so every record is offset-delimited.
        for idx in PAIRS {
            let end = self.files[idx + 1].len;
            self.files[idx].write(&end.to_le_bytes())?;
        }

        // Meta column (written last, renamed last: the commit point).
        let counts = [self.n, num_authors, num_venues, self.citations];
        let mut meta = HashedFile::create(&self.dir.join("meta.col"))?;
        for v in counts {
            meta.write(&v.to_le_bytes())?;
        }

        // Generation: FNV over the counts and the data-file checksums,
        // in FILES order. Content-derived — no clocks (the workspace
        // determinism rule), so equal corpora stamp equal generations.
        let mut gen = Fnv::new();
        for v in counts {
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
        let magic = &footer[..8];
        if magic != MAGIC {
            if magic.starts_with(b"SCOLv") {
                let found = String::from_utf8_lossy(magic).trim_end_matches('\0').to_owned();
                return Err(CorpusError::Unsupported {
                    file: name.to_owned(),
                    found,
                    want: "SCOLv2",
                });
            }
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
    /// The data columns, in [`FILES`] order.
    cols: [Column; DATA],
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
        let count =
            |v: u64| usize::try_from(v).map_err(|_| corrupt("meta.col", "entity count overflow"));
        let (n, num_authors, num_venues) = (count(n64)?, count(num_authors)?, count(num_venues)?);

        // The payload size of data column `col` (`None`: a variable-width
        // data column, delimited by its index instead). Widened so that no
        // count in a corrupt meta.col can overflow.
        let (rows, authors, venues) = (n as u128, num_authors as u128, num_venues as u128);
        let size = |col: usize| match col {
            F_YEARS | F_VENUES => Some(rows * 4),
            F_MERIT_MASK => Some(rows),
            F_MERIT => Some(rows * 8),
            F_VENUE_NAMES => Some((venues + 1) * 8),
            F_AUTHOR_NAMES => Some((authors + 1) * 8),
            idx if PAIRS.contains(&idx) => Some((rows + 1) * 8),
            _ => None,
        };
        let mut cols = Vec::with_capacity(DATA);
        for (col, name) in FILES[..DATA].iter().enumerate() {
            let c = Column::open(dir, name, Some(generation))?;
            if c.rows() != n64 {
                return Err(corrupt(name, "row count disagrees with meta.col"));
            }
            if size(col).is_some_and(|size| size != c.payload as u128) {
                return Err(corrupt(name, "payload size disagrees with the counts in meta.col"));
            }
            cols.push(c);
        }
        for idx in PAIRS {
            let (index, data) = (&cols[idx], &cols[idx + 1]);
            if index.map.as_u64s(index.payload - 8, 1)[0] != data.payload as u64 {
                return Err(corrupt(FILES[idx], "terminal offset disagrees with data payload"));
            }
        }
        let cols = cols.try_into().unwrap_or_else(|_| unreachable!("one column per data file"));
        Ok(ColStore {
            dir: dir.to_path_buf(),
            n,
            num_authors,
            num_venues,
            num_citations,
            generation,
            cols,
        })
    }

    /// Recompute every payload checksum against the footers — the full
    /// (page-faulting) integrity check skipped by [`ColStore::open`] —
    /// and check that every venue and byline id is inside its table: a
    /// checksum vouches for the bytes the writer wrote, not for the ids
    /// in them.
    pub fn verify(&self) -> Result<()> {
        for (c, name) in self.cols.iter().zip(FILES) {
            if fnv64(c.payload_bytes()) != c.checksum {
                return Err(corrupt(name, "payload checksum mismatch"));
            }
        }
        let mut venues = self.venue_ids().iter().enumerate();
        if let Some((i, v)) = venues.find(|&(_, &v)| v as usize >= self.num_venues) {
            let message = format!("record {i} names venue {v} of {}", self.num_venues);
            return Err(corrupt("venues.col", &message));
        }
        let mut byline = Vec::new();
        for i in 0..self.n {
            self.authors_of(i, &mut byline)?;
            if let Some(a) = byline.iter().find(|&&a| a as usize >= self.num_authors) {
                let message = format!("record {i} names author {a} of {}", self.num_authors);
                return Err(corrupt("authors.dat", &message));
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
        self.cols[F_YEARS].map.as_i32s(0, self.n)
    }

    /// All venue ids, zero-copy from the map.
    fn venue_ids(&self) -> &[u32] {
        self.cols[F_VENUES].map.as_u32s(0, self.n)
    }

    /// The bytes of record `i` of the idx+dat pair at `idx`, which holds
    /// `rows` records, bounds-checked against the data payload.
    /// [`ColStore::open`] validates only the *terminal* index offset, so
    /// interior offsets are untrusted bytes here: a flipped bit must
    /// surface as [`CorpusError::Corrupt`], never a panic.
    fn record(&self, idx: usize, i: usize, rows: usize) -> Result<&[u8]> {
        let name = FILES[idx + 1];
        if i >= rows {
            return Err(corrupt(
                name,
                &format!("record {i} out of range (column has {rows} rows)"),
            ));
        }
        let offs = self.cols[idx].map.as_u64s(i * 8, 2);
        let payload = self.cols[idx + 1].payload_bytes();
        let lo = usize::try_from(offs[0]).map_err(|_| corrupt(name, "record offset overflow"))?;
        let hi = usize::try_from(offs[1]).map_err(|_| corrupt(name, "record offset overflow"))?;
        if lo > hi || hi > payload.len() {
            return Err(corrupt(name, &format!("record {i} offsets {lo}..{hi} out of bounds")));
        }
        Ok(&payload[lo..hi])
    }

    /// Record `i` of the string pair at `idx` (titles or names) as text.
    fn text(&self, idx: usize, i: usize, rows: usize) -> Result<String> {
        let bytes = self.record(idx, i, rows)?;
        let text = std::str::from_utf8(bytes)
            .map_err(|_| corrupt(FILES[idx + 1], &format!("record {i} is not UTF-8")))?;
        Ok(text.to_owned())
    }

    /// Decode article `i`'s byline (author ids, byline order) into `out`.
    /// Truncated or malformed bytes come back as
    /// [`CorpusError::Corrupt`] — this path reads mmap-backed disk bytes
    /// whose checksums [`ColStore::open`] deliberately skipped.
    pub fn authors_of(&self, i: usize, out: &mut Vec<u32>) -> Result<()> {
        out.clear();
        let bytes = self.record(F_AUTHORS, i, self.n)?;
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
    /// does anything [`ColWriter`] refuses: a repeated id (a zero delta),
    /// a self-citation, or a cited id past the row count.
    pub fn refs_of(&self, i: usize, out: &mut Vec<u32>) -> Result<()> {
        out.clear();
        let bytes = self.record(F_REFS, i, self.n)?;
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
            if v >= self.n as u64 || v == i as u64 {
                return Err(corrupt(
                    "refs.dat",
                    &format!("record {i} cites {v}, not another article of the store"),
                ));
            }
            out.push(v as u32);
            prev = v;
        }
        Ok(())
    }

    /// Materialize the store as the in-RAM [`Corpus`] it was written
    /// from: titles, merit and names included, through
    /// [`Corpus::assemble`]'s structural checks. Intended for stores that
    /// fit in RAM — a state directory's corpus, tests, explain tooling —
    /// not for MAG scale.
    pub fn materialize(&self) -> Result<Corpus> {
        let mask = self.cols[F_MERIT_MASK].payload_bytes();
        let merit = self.cols[F_MERIT].map.as_f64s(0, self.n);
        let mut articles = Vec::with_capacity(self.n);
        let (mut byline, mut refs) = (Vec::new(), Vec::new());
        for i in 0..self.n {
            self.authors_of(i, &mut byline)?;
            self.refs_of(i, &mut refs)?;
            articles.push(Article {
                id: ArticleId(i as u32),
                title: self.text(F_TITLES, i, self.n)?,
                year: self.year(i),
                venue: VenueId(self.venue(i)),
                authors: byline.iter().map(|&a| AuthorId(a)).collect(),
                references: refs.iter().map(|&r| ArticleId(r)).collect(),
                merit: (mask[i] != 0).then_some(merit[i]),
            });
        }
        let authors = (0..self.num_authors)
            .map(|i| {
                let name = self.text(F_AUTHOR_NAMES, i, self.num_authors)?;
                Ok(Author { id: AuthorId(i as u32), name })
            })
            .collect::<Result<_>>()?;
        let venues = (0..self.num_venues)
            .map(|i| {
                let name = self.text(F_VENUE_NAMES, i, self.num_venues)?;
                Ok(Venue { id: VenueId(i as u32), name })
            })
            .collect::<Result<_>>()?;
        Corpus::assemble(articles, authors, venues)
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
        self.venue_ids()[i]
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
    /// Write this corpus out as a columnar store — every article field,
    /// titles and planted merit included, and both name tables — so
    /// [`ColStore::materialize`] gives back an equal corpus. Returns the
    /// store's generation stamp.
    pub fn write_colstore(&self, dir: &Path) -> Result<u64> {
        let mut w = ColWriter::create(dir)?;
        let (mut byline, mut refs) = (Vec::new(), Vec::new());
        for (i, a) in self.articles().iter().enumerate() {
            let (byline, refs) = (self.byline(i, &mut byline), self.refs(i, &mut refs));
            w.push(a.year, a.venue.0, byline, refs, &a.title, a.merit)?;
        }
        w.finish(
            self.authors().iter().map(|u| u.name.as_str()),
            self.venues().iter().map(|v| v.name.as_str()),
        )
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

    /// `count` empty names: the tests below care about structure only.
    fn names(count: usize) -> impl Iterator<Item = &'static str> {
        std::iter::repeat_n("", count)
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

        // Titles, merit and both name tables come back too.
        assert_eq!(store.materialize().unwrap(), corpus);
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
        w.finish(names(0), names(0)).unwrap();
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
        w.push(2000, 0, &[0], &[], "", None).unwrap();
        w.push(2001, 0, &[0], &[], "", None).unwrap();
        assert!(w.push(2002, 0, &[0], &[1, 0], "", None).is_err());
        let mut w2 = ColWriter::create(&dir).unwrap();
        w2.push(2000, 0, &[0], &[], "", None).unwrap();
        assert!(w2.push(2001, 0, &[0], &[1], "", None).is_err(), "self-citation must be rejected");
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
        w.push(2000, 0, &[1, 2], &[], "", None).unwrap();
        w.push(2001, 1, &[0], &[0], "", None).unwrap();
        w.finish(names(3), names(2)).unwrap();
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
            w.push(2000 + i, 0, &[0], &[], "", None).unwrap();
        }
        let ten: Vec<u32> = (0..10).collect();
        w.push(2011, 0, &ten, &ten, "", None).unwrap();
        w.finish(names(10), names(1)).unwrap();

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
        w.push(2000, 0, &[0], &[], "", None).unwrap();
        w.push(2001, 0, &[0], &[0], "", None).unwrap();
        w.push(2002, 0, &[0], &[0, 1], "", None).unwrap();
        w.finish(names(1), names(1)).unwrap();
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
        w.push(2000, 0, &[0], &[], "", None).unwrap();
        drop(w);
        assert!(ColStore::open(&dir).is_err(), "unfinished write must not be visible");
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "dropped writer must clean up its temp files"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Re-stamp `name`'s footer checksum after a payload patch, so the
    /// store passes every checksum and only the ids inside are wrong —
    /// what a writer without range checks used to publish.
    fn patch(dir: &Path, name: &str, at: usize, byte: u8) {
        let path = dir.join(name);
        let mut bytes = std::fs::read(&path).unwrap();
        let payload = bytes.len() - FOOTER_BYTES;
        bytes[at] = byte;
        let checksum = fnv64(&bytes[..payload]);
        bytes[payload + 16..payload + 24].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
    }

    /// One article by author 0 at venue 0, with one author and one venue:
    /// then `venues.col` patched to venue 7, or the byline to author 3.
    fn out_of_range_store(name: &str, column: &str) -> PathBuf {
        let dir = tmpdir(name);
        let mut w = ColWriter::create(&dir).unwrap();
        w.push(2000, 0, &[0], &[], "t", None).unwrap();
        w.finish(["a"], ["v"]).unwrap();
        match column {
            "venues.col" => patch(&dir, column, 0, 7),
            // authors.dat record 0 is [count 1, author 0].
            "authors.dat" => patch(&dir, column, 1, 3),
            _ => unreachable!(),
        }
        dir
    }

    #[test]
    fn finish_refuses_ids_beyond_the_counts_and_publishes_nothing() {
        type Case = (&'static str, u32, &'static [u32], &'static [u32], u32);
        let cases: [Case; 3] = [
            ("venue", 7, &[0], &[], 7),
            ("author", 0, &[3], &[], 3),
            // A forward reference is legal; one past the last row is not.
            ("article", 0, &[0], &[2], 2),
        ];
        for (kind, venue, byline, refs, id) in cases {
            let dir = tmpdir(&format!("range-{kind}"));
            let mut w = ColWriter::create(&dir).unwrap();
            w.push(2000, 0, &[0], &[], "", None).unwrap();
            w.push(2001, venue, byline, refs, "", None).unwrap();
            let err = w.finish(["a"], ["v"]).unwrap_err();
            assert!(
                matches!(err, CorpusError::DanglingReference { kind: k, id: i, article: 1 }
                    if k == kind && i == id),
                "{kind}: {err}"
            );
            assert!(ColStore::open(&dir).is_err(), "{kind}: a refused store opened");
            assert!(std::fs::read_dir(&dir).unwrap().next().is_none(), "{kind}: debris");
            std::fs::remove_dir_all(&dir).unwrap();
        }
        // In range, a forward reference is an edge like any other.
        let dir = tmpdir("range-forward");
        let mut w = ColWriter::create(&dir).unwrap();
        w.push(2000, 0, &[0], &[1], "", None).unwrap();
        w.push(2001, 0, &[0], &[], "", None).unwrap();
        w.finish(["a"], ["v"]).unwrap();
        let (store, mut out) = (ColStore::open(&dir).unwrap(), Vec::new());
        store.refs_of(0, &mut out).unwrap();
        assert_eq!(out, [1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_range_checks_venue_and_byline_ids() {
        for (column, what) in [("venues.col", "venue 7 of 1"), ("authors.dat", "author 3 of 1")] {
            let dir = out_of_range_store(&format!("verify-{column}"), column);
            let store = ColStore::open(&dir).unwrap();
            let err = store.verify().unwrap_err();
            assert!(matches!(&err, CorpusError::Corrupt { file, .. } if file == column), "{err}");
            assert!(err.to_string().contains(what), "{err}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn materialize_refuses_ids_beyond_the_counts() {
        for (column, kind, id) in [("venues.col", "venue", 7), ("authors.dat", "author", 3)] {
            let dir = out_of_range_store(&format!("materialize-{column}"), column);
            let err = ColStore::open(&dir).unwrap().materialize().unwrap_err();
            assert!(
                matches!(err, CorpusError::DanglingReference { kind: k, id: i, article: 0 }
                    if k == kind && i == id),
                "{column}: {err}"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn an_scol_v1_store_is_refused_by_name() {
        let dir = tmpdir("v1");
        Preset::Tiny.generate(6).write_colstore(&dir).unwrap();
        for name in FILES {
            let path = dir.join(name);
            let mut bytes = std::fs::read(&path).unwrap();
            let footer = bytes.len() - FOOTER_BYTES;
            bytes[footer..footer + 8].copy_from_slice(b"SCOLv1\0\0");
            std::fs::write(&path, &bytes).unwrap();
        }
        let err = ColStore::open(&dir).err().expect("an SCOLv1 store must not open");
        assert!(
            matches!(&err, CorpusError::Unsupported { found, want: "SCOLv2", .. } if found == "SCOLv1"),
            "{err}"
        );
        assert!(err.to_string().contains("SCOLv1"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
