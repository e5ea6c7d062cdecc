//! SNAPv1, the snapshot codec from before a state directory kept its
//! corpus as an SCOLv2 store: one file holding the corpus — years,
//! venues, titles, bylines, references, merit and names, sections 0–10 —
//! and the four score vectors, sections 11–14, each section checksummed.
//! Its writer and reader survive here, in test code only, as the oracle
//! the SCOLv2 store + SNAPv2 pair is held to: from one state, both must
//! restore the same corpus and the same score bits. [`write_snapshot`]
//! also makes the v1 state directories the refusal tests feed the
//! current loader.

use scholar::corpus::model::{Article, ArticleId, Author, AuthorId, Venue, VenueId};
use scholar::corpus::Corpus;
use scholar::rank::Diagnostics;
use scholar::QRankResult;
use sgraph::mmap::Mmap;
use sgraph::sfile::{fnv64, no_step, push_varint, read_varint, Fnv, TmpFile};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Errors are the message the SNAPv1 loader gave.
type Result<T> = std::result::Result<T, String>;

const MAGIC: &[u8; 8] = b"SNAPv1\0\0";
const END_MAGIC: &[u8; 8] = b"SNAPend\0";
const SNAP_FILE: &str = "snapshot.snap";

/// Header: magic, generation, wal_seq, n_articles, n_authors, n_venues,
/// section count.
const HEADER_BYTES: usize = 56;
/// Section-table entry: offset, length, checksum.
const ENTRY_BYTES: usize = 24;
/// Footer: end magic + generation echo (truncation tripwire).
const FOOTER_BYTES: usize = 16;

// Section ids, in file order. All sections start 8-byte aligned.
const S_YEARS: usize = 0; // i32 × n
const S_VENUES: usize = 1; // u32 × n
const S_TITLES_IDX: usize = 2; // u64 × (n+1)
const S_TITLES_DAT: usize = 3; // utf8 bytes
const S_AUTHORS_IDX: usize = 4; // u64 × (n+1)
const S_AUTHORS_DAT: usize = 5; // varint author ids
const S_REFS_IDX: usize = 6; // u64 × (n+1)
const S_REFS_DAT: usize = 7; // delta varints (refs are sorted)
const S_MERIT_MASK: usize = 8; // u8 × n
const S_MERIT_VAL: usize = 9; // f64 × n (0.0 where mask is 0)
const S_NAMES: usize = 10; // varint-len strings: venues then authors
const S_SCORE_ARTICLE: usize = 11; // f64 × n
const S_SCORE_VENUE: usize = 12; // f64 × n_venues
const S_SCORE_AUTHOR: usize = 13; // f64 × n_authors
const S_SCORE_TWPR: usize = 14; // f64 × n
const SECTIONS: usize = 15;

const TABLE_OFF: usize = HEADER_BYTES;
const DATA_OFF: usize = TABLE_OFF + SECTIONS * ENTRY_BYTES;

fn corrupt(message: impl Into<String>) -> String {
    format!("corrupt state file {SNAP_FILE}: {}", message.into())
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAP_FILE)
}

fn pad8(buf: &mut Vec<u8>) {
    while !buf.len().is_multiple_of(8) {
        buf.push(0);
    }
}

/// Encode the sections for `(corpus, result)`. Returns the concatenated
/// 8-aligned section bytes (relative to [`DATA_OFF`]) and the per-section
/// `(offset, length, checksum)` table.
fn encode_sections(
    corpus: &Corpus,
    result: &QRankResult,
) -> (Vec<u8>, [(u64, u64, u64); SECTIONS]) {
    let n = corpus.num_articles();
    let mut body = Vec::new();
    let mut table = [(0u64, 0u64, 0u64); SECTIONS];
    let mut section = |id: usize, body: &mut Vec<u8>, bytes: &[u8]| {
        debug_assert_eq!(body.len() % 8, 0);
        table[id] = ((DATA_OFF + body.len()) as u64, bytes.len() as u64, fnv64(bytes));
        body.extend_from_slice(bytes);
        pad8(body);
    };

    let mut scratch = Vec::with_capacity(n * 4);
    for a in corpus.articles() {
        scratch.extend_from_slice(&a.year.to_le_bytes());
    }
    section(S_YEARS, &mut body, &scratch);

    scratch.clear();
    for a in corpus.articles() {
        scratch.extend_from_slice(&a.venue.0.to_le_bytes());
    }
    section(S_VENUES, &mut body, &scratch);

    // Ragged payloads share one encoding: an (n+1)-entry u64 index of
    // byte offsets into a data section.
    let ragged = |items: &mut dyn Iterator<Item = Vec<u8>>| {
        let mut idx = Vec::with_capacity((n + 1) * 8);
        let mut dat = Vec::new();
        idx.extend_from_slice(&0u64.to_le_bytes());
        for item in items {
            dat.extend_from_slice(&item);
            idx.extend_from_slice(&(dat.len() as u64).to_le_bytes());
        }
        (idx, dat)
    };

    let (idx, dat) = ragged(&mut corpus.articles().iter().map(|a| a.title.as_bytes().to_vec()));
    section(S_TITLES_IDX, &mut body, &idx);
    section(S_TITLES_DAT, &mut body, &dat);

    let (idx, dat) = ragged(&mut corpus.articles().iter().map(|a| {
        let mut b = Vec::new();
        for &u in &a.authors {
            push_varint(&mut b, u.0 as u64);
        }
        b
    }));
    section(S_AUTHORS_IDX, &mut body, &idx);
    section(S_AUTHORS_DAT, &mut body, &dat);

    let (idx, dat) = ragged(&mut corpus.articles().iter().map(|a| {
        // References are sorted and strictly increasing (a `Corpus`
        // invariant), so delta encoding keeps most of them one byte.
        let mut b = Vec::new();
        let mut prev = 0u64;
        for &r in &a.references {
            push_varint(&mut b, r.0 as u64 - prev);
            prev = r.0 as u64;
        }
        b
    }));
    section(S_REFS_IDX, &mut body, &idx);
    section(S_REFS_DAT, &mut body, &dat);

    scratch.clear();
    for a in corpus.articles() {
        scratch.push(a.merit.is_some() as u8);
    }
    section(S_MERIT_MASK, &mut body, &scratch);

    scratch.clear();
    for a in corpus.articles() {
        scratch.extend_from_slice(&a.merit.unwrap_or(0.0).to_le_bytes());
    }
    section(S_MERIT_VAL, &mut body, &scratch);

    scratch.clear();
    for v in corpus.venues() {
        push_varint(&mut scratch, v.name.len() as u64);
        scratch.extend_from_slice(v.name.as_bytes());
    }
    for u in corpus.authors() {
        push_varint(&mut scratch, u.name.len() as u64);
        scratch.extend_from_slice(u.name.as_bytes());
    }
    section(S_NAMES, &mut body, &scratch);

    let f64s = |xs: &[f64]| {
        let mut b = Vec::with_capacity(xs.len() * 8);
        for x in xs {
            b.extend_from_slice(&x.to_le_bytes());
        }
        b
    };
    section(S_SCORE_ARTICLE, &mut body, &f64s(&result.article_scores));
    section(S_SCORE_VENUE, &mut body, &f64s(&result.venue_scores));
    section(S_SCORE_AUTHOR, &mut body, &f64s(&result.author_scores));
    section(S_SCORE_TWPR, &mut body, &f64s(&result.twpr_scores));

    (body, table)
}

/// The content-derived generation: FNV-1a over the counts, the WAL
/// high-water mark, and every section checksum.
fn derive_generation(
    counts: (u64, u64, u64),
    wal_seq: u64,
    table: &[(u64, u64, u64); SECTIONS],
) -> u64 {
    let mut h = Fnv::new();
    h.update(&counts.0.to_le_bytes());
    h.update(&counts.1.to_le_bytes());
    h.update(&counts.2.to_le_bytes());
    h.update(&wal_seq.to_le_bytes());
    for &(_, _, checksum) in table {
        h.update(&checksum.to_le_bytes());
    }
    h.finish()
}

/// Write a snapshot of `(corpus, result)` into `dir/snapshot.snap`,
/// recording `wal_seq` as the WAL high-water mark it covers (replay
/// resumes after this sequence number). Atomic: the file appears under
/// its final name only complete and fsynced, and `Ok` means the rename
/// itself is durable (the directory fsync error is returned, not
/// dropped). Returns the content-derived snapshot generation.
pub fn write_snapshot(
    dir: &Path,
    corpus: &Corpus,
    result: &QRankResult,
    wal_seq: u64,
) -> io::Result<u64> {
    let counts =
        (corpus.num_articles() as u64, corpus.num_authors() as u64, corpus.num_venues() as u64);
    let (body, table) = encode_sections(corpus, result);
    let generation = derive_generation(counts, wal_seq, &table);

    let mut header = Vec::with_capacity(DATA_OFF);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&generation.to_le_bytes());
    header.extend_from_slice(&wal_seq.to_le_bytes());
    header.extend_from_slice(&counts.0.to_le_bytes());
    header.extend_from_slice(&counts.1.to_le_bytes());
    header.extend_from_slice(&counts.2.to_le_bytes());
    header.extend_from_slice(&(SECTIONS as u64).to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_BYTES);
    for &(off, len, checksum) in &table {
        header.extend_from_slice(&off.to_le_bytes());
        header.extend_from_slice(&len.to_le_bytes());
        header.extend_from_slice(&checksum.to_le_bytes());
    }
    debug_assert_eq!(header.len(), DATA_OFF);

    let mut footer = Vec::with_capacity(FOOTER_BYTES);
    footer.extend_from_slice(END_MAGIC);
    footer.extend_from_slice(&generation.to_le_bytes());

    std::fs::create_dir_all(dir)?;
    let mut tmp = TmpFile::create(&snapshot_path(dir), no_step)?;
    for chunk in [&header[..], &body[..], &footer[..]] {
        tmp.write_all(chunk)?;
    }
    tmp.publish(no_step)?;
    Ok(generation)
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

/// A validated section view into the mapped snapshot.
struct Sections<'a> {
    map: &'a Mmap,
    table: [(u64, u64, u64); SECTIONS],
}

impl<'a> Sections<'a> {
    fn bytes(&self, id: usize) -> &'a [u8] {
        let (off, len, _) = self.table[id];
        &self.map.bytes()[off as usize..(off + len) as usize]
    }

    /// Expect section `id` to hold exactly `count` little-endian i32s.
    fn i32s(&self, id: usize, count: usize) -> Result<&'a [i32]> {
        let (off, len, _) = self.table[id];
        if len as usize != count * 4 {
            return Err(corrupt(format!("section {id} has {len} bytes, want {}", count * 4)));
        }
        Ok(self.map.as_i32s(off as usize, count))
    }

    fn u32s(&self, id: usize, count: usize) -> Result<&'a [u32]> {
        let (off, len, _) = self.table[id];
        if len as usize != count * 4 {
            return Err(corrupt(format!("section {id} has {len} bytes, want {}", count * 4)));
        }
        Ok(self.map.as_u32s(off as usize, count))
    }

    fn u64s(&self, id: usize, count: usize) -> Result<&'a [u64]> {
        let (off, len, _) = self.table[id];
        if len as usize != count * 8 {
            return Err(corrupt(format!("section {id} has {len} bytes, want {}", count * 8)));
        }
        Ok(self.map.as_u64s(off as usize, count))
    }

    fn f64s(&self, id: usize, count: usize) -> Result<Vec<f64>> {
        let (off, len, _) = self.table[id];
        if len as usize != count * 8 {
            return Err(corrupt(format!("section {id} has {len} bytes, want {}", count * 8)));
        }
        Ok(self.map.as_f64s(off as usize, count).to_vec())
    }

    /// The byte range of ragged item `i` within data section `dat`,
    /// bounds-checked against the index section.
    fn ragged(&self, idx: &[u64], dat: usize, i: usize) -> Result<&'a [u8]> {
        let bytes = self.bytes(dat);
        let (lo, hi) = (idx[i] as usize, idx[i + 1] as usize);
        if lo > hi || hi > bytes.len() {
            return Err(corrupt(format!("ragged index {i} out of bounds ({lo}..{hi})")));
        }
        Ok(&bytes[lo..hi])
    }
}

/// Map and validate `dir/snapshot.snap`, decoding it back into the
/// corpus and ranking it was written from. Every section checksum is
/// verified before any byte is interpreted; all structural errors come
/// back as an error.
pub fn load_snapshot(dir: &Path) -> Result<RestoredState> {
    let path = snapshot_path(dir);
    let map = Mmap::map_file(&path).map_err(|e| e.to_string())?;
    let bytes = map.bytes();
    if bytes.len() < DATA_OFF + FOOTER_BYTES {
        return Err(corrupt(format!("file is {} bytes, shorter than any snapshot", bytes.len())));
    }
    if &bytes[..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let generation = word(8);
    let wal_seq = word(16);
    let n = word(24) as usize;
    let n_authors = word(32) as usize;
    let n_venues = word(40) as usize;
    if word(48) != SECTIONS as u64 {
        return Err(corrupt(format!("section count {} != {SECTIONS}", word(48))));
    }
    let footer_at = bytes.len() - FOOTER_BYTES;
    if &bytes[footer_at..footer_at + 8] != END_MAGIC {
        return Err(corrupt("missing end marker (truncated file)"));
    }
    if word(footer_at + 8) != generation {
        return Err(corrupt("footer generation does not echo the header"));
    }

    let mut table = [(0u64, 0u64, 0u64); SECTIONS];
    for (id, entry) in table.iter_mut().enumerate() {
        let at = TABLE_OFF + id * ENTRY_BYTES;
        *entry = (word(at), word(at + 8), word(at + 16));
        let (off, len, checksum) = *entry;
        let end = off.checked_add(len).ok_or_else(|| corrupt("section bounds overflow"))?;
        if off % 8 != 0 || (off as usize) < DATA_OFF || end as usize > footer_at {
            return Err(corrupt(format!("section {id} out of bounds ({off}+{len})")));
        }
        if fnv64(&bytes[off as usize..end as usize]) != checksum {
            return Err(corrupt(format!("section {id} checksum mismatch")));
        }
    }
    let counts = (n as u64, n_authors as u64, n_venues as u64);
    if derive_generation(counts, wal_seq, &table) != generation {
        return Err(corrupt("generation does not match content"));
    }

    let s = Sections { map: &map, table };
    let years = s.i32s(S_YEARS, n)?;
    let venues = s.u32s(S_VENUES, n)?;
    let titles_idx = s.u64s(S_TITLES_IDX, n + 1)?;
    let authors_idx = s.u64s(S_AUTHORS_IDX, n + 1)?;
    let refs_idx = s.u64s(S_REFS_IDX, n + 1)?;
    let merit_mask = s.bytes(S_MERIT_MASK);
    if merit_mask.len() != n {
        return Err(corrupt("merit mask length mismatch"));
    }
    let merit_val = s.f64s(S_MERIT_VAL, n)?;

    let id32 = |v: u64, what: &str| -> Result<u32> {
        u32::try_from(v).map_err(|_| corrupt(format!("{what} id {v} overflows u32")))
    };

    let mut articles = Vec::with_capacity(n);
    for i in 0..n {
        let title = std::str::from_utf8(s.ragged(titles_idx, S_TITLES_DAT, i)?)
            .map_err(|_| corrupt(format!("title {i} is not utf-8")))?
            .to_owned();
        let byline = s.ragged(authors_idx, S_AUTHORS_DAT, i)?;
        let mut pos = 0;
        let mut authors = Vec::new();
        while pos < byline.len() {
            let v = read_varint(byline, &mut pos)
                .ok_or_else(|| corrupt(format!("truncated byline varint in article {i}")))?;
            authors.push(AuthorId(id32(v, "author")?));
        }
        let refs = s.ragged(refs_idx, S_REFS_DAT, i)?;
        let mut pos = 0;
        let mut references = Vec::new();
        let mut prev = 0u64;
        while pos < refs.len() {
            let d = read_varint(refs, &mut pos)
                .ok_or_else(|| corrupt(format!("truncated reference varint in article {i}")))?;
            prev = prev
                .checked_add(d)
                .ok_or_else(|| corrupt(format!("reference delta overflow in article {i}")))?;
            references.push(ArticleId(id32(prev, "article")?));
        }
        articles.push(Article {
            id: ArticleId(i as u32),
            title,
            year: years[i],
            venue: VenueId(venues[i]),
            authors,
            references,
            merit: (merit_mask[i] != 0).then(|| merit_val[i]),
        });
    }

    let names = s.bytes(S_NAMES);
    let mut pos = 0;
    let mut next_name = |what: &str, i: usize| -> Result<String> {
        let len = read_varint(names, &mut pos)
            .ok_or_else(|| corrupt(format!("truncated {what} name length at {i}")))?
            as usize;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= names.len())
            .ok_or_else(|| corrupt(format!("{what} name {i} overruns the names section")))?;
        let name = std::str::from_utf8(&names[pos..end])
            .map_err(|_| corrupt(format!("{what} name {i} is not utf-8")))?
            .to_owned();
        pos = end;
        Ok(name)
    };
    let mut venue_table = Vec::with_capacity(n_venues);
    for i in 0..n_venues {
        venue_table.push(Venue { id: VenueId(i as u32), name: next_name("venue", i)? });
    }
    let mut author_table = Vec::with_capacity(n_authors);
    for i in 0..n_authors {
        author_table.push(Author { id: AuthorId(i as u32), name: next_name("author", i)? });
    }
    if pos != names.len() {
        return Err(corrupt("trailing bytes after the last name"));
    }

    let corpus = Corpus::assemble(articles, author_table, venue_table)
        .map_err(|e| corrupt(format!("decoded corpus failed validation: {e}")))?;
    let result = QRankResult {
        article_scores: s.f64s(S_SCORE_ARTICLE, n)?,
        venue_scores: s.f64s(S_SCORE_VENUE, n_venues)?,
        author_scores: s.f64s(S_SCORE_AUTHOR, n_authors)?,
        twpr_scores: s.f64s(S_SCORE_TWPR, n)?,
        twpr_diagnostics: Diagnostics::closed_form(),
        outer: Diagnostics::closed_form(),
    };
    Ok(RestoredState { corpus, result, wal_seq, generation })
}
