//! WALv1: the write-ahead journal for accepted article batches.
//!
//! [`crate::Reindexer`] with a state directory appends every accepted
//! batch here **before** handing it to the reindex thread, so a crash at
//! any point — before the solve, mid-solve, mid-publish, mid-snapshot —
//! loses nothing that `submit` acknowledged. Restart replays the journal
//! on top of the newest snapshot and resumes at a generation that covers
//! every durably journaled batch (DESIGN.md §2.11).
//!
//! Format: a 16-byte header (`WALv1\0\0\0` + the sequence number the
//! journal starts after), then records of
//!
//! ```text
//! len: u32 | seq: u64 | checksum: u64 (FNV-1a of payload) | payload
//! ```
//!
//! — an [`sgraph::sfile`] frame whose format-owned header bytes are the
//! sequence number.
//!
//! The payload encodes one batch of [`Article`]s (varint-packed). Records
//! are appended with a single `write` and fsynced before `append`
//! returns; replay stops cleanly at the first torn or corrupt record —
//! the journal is **prefix-consistent**: a crash mid-append can only lose
//! the record being written, which was never acknowledged.
//!
//! Batches reference existing venue/author ids only (the
//! [`qrank::incremental::grow_corpus`] contract), so no name tables
//! travel in the journal.

use crate::snapshot::{Result, StateError};
use scholar_corpus::model::{Article, ArticleId, AuthorId, VenueId};
use sgraph::sfile::{push_frame, push_varint, read_frame, read_varint, TmpFile};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"WALv1\0\0\0";
const HEADER_BYTES: usize = 16;
/// len + seq + checksum.
const RECORD_HEADER: usize = 4 + 8 + 8;
/// A record larger than this is treated as torn (a real batch payload is
/// bounded by the submit path; a huge length is a corrupt length field).
const MAX_RECORD: u32 = 1 << 30;
const WAL_FILE: &str = "wal.log";

/// Path of the journal inside a state directory.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

fn corrupt(message: impl Into<String>) -> StateError {
    StateError::Corrupt { file: WAL_FILE.to_owned(), message: message.into() }
}

/// Chaos site, and rotation's `sfile` step hook: every journal write
/// step (create, record append, fsync, rotate) funnels through this
/// check, so a `fp::Script` over `wal.append` can kill the durability
/// path at any step; `submit` must then surface the error without
/// acknowledging the batch.
fn wal_append_check() -> std::io::Result<()> {
    failpoint!("wal.append", return Err(std::io::Error::other("injected I/O fault at wal.append")));
    Ok(())
}

fn encode_article(buf: &mut Vec<u8>, a: &Article) {
    push_varint(buf, a.title.len() as u64);
    buf.extend_from_slice(a.title.as_bytes());
    // Years are i32; zigzag keeps negatives (ancient texts) one byte-ish.
    let zz = ((a.year as i64) << 1) ^ ((a.year as i64) >> 63);
    push_varint(buf, zz as u64);
    push_varint(buf, a.venue.0 as u64);
    push_varint(buf, a.authors.len() as u64);
    for &u in &a.authors {
        push_varint(buf, u.0 as u64);
    }
    push_varint(buf, a.references.len() as u64);
    for &r in &a.references {
        push_varint(buf, r.0 as u64);
    }
    match a.merit {
        None => buf.push(0),
        Some(m) => {
            buf.push(1);
            buf.extend_from_slice(&m.to_le_bytes());
        }
    }
}

fn decode_article(bytes: &[u8], pos: &mut usize) -> Option<Article> {
    let title_len = read_varint(bytes, pos)? as usize;
    let end = pos.checked_add(title_len).filter(|&e| e <= bytes.len())?;
    // lint: allow(HOTPATH-PANIC) pos <= end <= bytes.len() by the filter above
    let title = std::str::from_utf8(&bytes[*pos..end]).ok()?.to_owned();
    *pos = end;
    let zz = read_varint(bytes, pos)?;
    let year = ((zz >> 1) as i64 ^ -((zz & 1) as i64)) as i32;
    let venue = VenueId(u32::try_from(read_varint(bytes, pos)?).ok()?);
    let n_authors = read_varint(bytes, pos)? as usize;
    if n_authors > bytes.len() - *pos {
        return None;
    }
    let mut authors = Vec::with_capacity(n_authors);
    for _ in 0..n_authors {
        authors.push(AuthorId(u32::try_from(read_varint(bytes, pos)?).ok()?));
    }
    let n_refs = read_varint(bytes, pos)? as usize;
    if n_refs > bytes.len() - *pos {
        return None;
    }
    let mut references = Vec::with_capacity(n_refs);
    for _ in 0..n_refs {
        references.push(ArticleId(u32::try_from(read_varint(bytes, pos)?).ok()?));
    }
    let merit = match bytes.get(*pos)? {
        0 => {
            *pos += 1;
            None
        }
        1 => {
            *pos += 1;
            let end = pos.checked_add(8).filter(|&e| e <= bytes.len())?;
            // lint: allow(HOTPATH-PANIC) pos <= end <= bytes.len() by the filter above
            let m = f64::from_le_bytes(bytes[*pos..end].try_into().ok()?);
            *pos = end;
            Some(m)
        }
        _ => return None,
    };
    Some(Article { id: ArticleId(0), title, year, venue, authors, references, merit })
}

fn encode_batch(batch: &[Article]) -> Vec<u8> {
    let mut buf = Vec::new();
    push_varint(&mut buf, batch.len() as u64);
    for a in batch {
        encode_article(&mut buf, a);
    }
    buf
}

fn decode_batch(payload: &[u8]) -> Option<Vec<Article>> {
    let mut pos = 0;
    let count = read_varint(payload, &mut pos)? as usize;
    if count > payload.len() {
        return None;
    }
    let mut batch = Vec::with_capacity(count);
    for _ in 0..count {
        batch.push(decode_article(payload, &mut pos)?);
    }
    (pos == payload.len()).then_some(batch)
}

/// Append-side handle on the journal. One writer at a time (the
/// `Reindexer` serializes appends behind a mutex).
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    /// Set when a failed append could not be rolled back; the journal
    /// tail is then in an unknown state and further appends must refuse
    /// rather than acknowledge batches behind it.
    poisoned: bool,
}

impl Wal {
    /// Create a fresh journal at `dir/wal.log` that starts after
    /// `base_seq` (the snapshot's high-water mark). Truncates any
    /// existing journal — callers rotate by writing a snapshot first.
    pub fn create(dir: &Path, base_seq: u64) -> Result<Wal> {
        std::fs::create_dir_all(dir).map_err(StateError::Io)?;
        wal_append_check()?;
        let path = wal_path(dir);
        let mut file = File::create(&path)?;
        let mut header = Vec::with_capacity(HEADER_BYTES);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&base_seq.to_le_bytes());
        wal_append_check()?;
        file.write_all(&header)?;
        file.sync_all()?;
        Ok(Wal { file, path, next_seq: base_seq + 1, poisoned: false })
    }

    /// Resume appending after a [`replay`]: truncate any torn tail (its
    /// record was never acknowledged, and appending behind it would
    /// strand the new records past the tear), then continue after the
    /// highest durable sequence number. A journal torn inside its own
    /// header is recreated from scratch.
    pub fn resume(dir: &Path, replayed: &Replay) -> Result<Wal> {
        if replayed.durable_len < HEADER_BYTES as u64 {
            return Wal::create(dir, replayed.high_water());
        }
        wal_append_check()?;
        let path = wal_path(dir);
        let file = OpenOptions::new().append(true).open(&path)?;
        if replayed.torn_tail {
            wal_append_check()?;
            file.set_len(replayed.durable_len)?;
            file.sync_all()?;
        }
        Ok(Wal { file, path, next_seq: replayed.high_water() + 1, poisoned: false })
    }

    /// Durably append one batch. Returns its sequence number once the
    /// record is written **and fsynced** — only then may the caller
    /// acknowledge the batch. On error the sequence number is not
    /// consumed and the partial record is truncated away, so the journal
    /// stays appendable: without the rollback, a record that reached the
    /// file but failed its fsync would sit there checksum-valid, and the
    /// retried sequence number would replay as a hard sequence-jump
    /// corruption. If even the rollback fails the handle poisons itself —
    /// every later append reports the journal broken instead of stacking
    /// records behind an unacknowledged tail.
    pub fn append(&mut self, batch: &[Article]) -> Result<u64> {
        if self.poisoned {
            return Err(StateError::Io(std::io::Error::other(
                "journal poisoned by an earlier failed rollback",
            )));
        }
        let before = self.file.metadata()?.len();
        match self.append_inner(batch) {
            Ok(seq) => Ok(seq),
            Err(e) => {
                if self.file.sync_all().is_err() || self.rollback_to(before).is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    fn append_inner(&mut self, batch: &[Article]) -> Result<u64> {
        wal_append_check()?;
        let payload = encode_batch(batch);
        let seq = self.next_seq;
        let mut record = Vec::with_capacity(RECORD_HEADER + payload.len());
        push_frame(&mut record, &seq.to_le_bytes(), &payload);
        self.file.write_all(&record)?;
        wal_append_check()?;
        self.file.sync_all()?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Truncate the file back to `len` and park the cursor there, undoing
    /// however much of a failed append reached the file. Append-mode
    /// handles ignore the cursor and write at the (new) end; non-append
    /// handles need the seek so the next record does not leave a hole.
    fn rollback_to(&mut self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        self.file.sync_all()
    }

    /// The journal file path (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Atomically replace the journal with one that starts after `base_seq`,
/// carrying over every durable record with `seq > base_seq`. Called
/// after publishing a snapshot covering `base_seq`: the replaced journal
/// drops only batches the snapshot already holds. Published through
/// [`sgraph::sfile`], so a crash at any step leaves either the old
/// journal (still consistent with the new snapshot — replay skips
/// `seq <= base_seq`) or the new one, never a tear, and an error return
/// leaves no `wal.log.tmp` behind.
pub fn rotate(dir: &Path, base_seq: u64) -> Result<Wal> {
    let kept = replay(dir, base_seq)?;
    let mut bytes = Vec::new();
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&base_seq.to_le_bytes());
    for rec in &kept.records {
        push_frame(&mut bytes, &rec.seq.to_le_bytes(), &encode_batch(&rec.batch));
    }
    let path = wal_path(dir);
    let mut tmp = TmpFile::create(&path, wal_append_check)?;
    tmp.write_all(&bytes)?;
    tmp.publish(wal_append_check)?;
    let file = OpenOptions::new().append(true).open(&path)?;
    Ok(Wal { file, path, next_seq: kept.high_water() + 1, poisoned: false })
}

/// One replayed journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The batch's journal sequence number.
    pub seq: u64,
    /// The batch itself.
    pub batch: Vec<Article>,
}

/// What a journal replay recovered.
#[derive(Debug)]
pub struct Replay {
    /// Sequence number the journal starts after (its base snapshot's
    /// high-water mark).
    pub base_seq: u64,
    /// Every durable record with `seq > after_seq`, in order.
    pub records: Vec<WalRecord>,
    /// Whether a torn or corrupt tail record was discarded. Expected
    /// after a crash mid-append; anything before the tear replays fine.
    pub torn_tail: bool,
    /// Byte length of the durable prefix (everything up to and including
    /// the last valid record). [`Wal::resume`] truncates to this.
    pub durable_len: u64,
}

impl Replay {
    /// The highest durable sequence number (the base if no records).
    pub fn high_water(&self) -> u64 {
        self.records.last().map_or(self.base_seq, |r| r.seq)
    }
}

/// Replay `dir/wal.log`, returning every durable batch with
/// `seq > after_seq` in append order. Stops cleanly at the first torn or
/// corrupt record — everything before it is prefix-consistent state, and
/// everything after it was never acknowledged. A missing journal replays
/// as empty (a snapshot with no journal is complete state).
pub fn replay(dir: &Path, after_seq: u64) -> Result<Replay> {
    failpoint!(
        "wal.replay",
        return Err(StateError::Io(std::io::Error::other("injected I/O fault at wal.replay")))
    );
    let path = wal_path(dir);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Replay {
                base_seq: after_seq,
                records: Vec::new(),
                torn_tail: false,
                durable_len: 0,
            });
        }
        Err(e) => return Err(StateError::Io(e)),
    }
    if bytes.len() < HEADER_BYTES {
        // A journal torn inside its own header never acknowledged
        // anything: replay as empty.
        return Ok(Replay {
            base_seq: after_seq,
            records: Vec::new(),
            torn_tail: true,
            durable_len: 0,
        });
    }
    // lint: allow(HOTPATH-PANIC) bytes.len() >= HEADER_BYTES checked above
    if &bytes[..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    // lint: allow(HOTPATH-PANIC) HEADER_BYTES is 16 and the length was checked; try_into is an exact 8-byte slice
    let base_seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let mut records = Vec::new();
    let mut torn_tail = false;
    let mut pos = HEADER_BYTES;
    let mut prev_seq = base_seq;
    while pos < bytes.len() {
        // WALv1's policy: whatever the frame decoder refuses — short
        // header, impossible length, bad checksum — is the torn tail.
        let Ok(frame) = read_frame::<8>(&bytes, pos, MAX_RECORD) else {
            torn_tail = true;
            break;
        };
        let seq = u64::from_le_bytes(frame.extra);
        // A checksum-valid record with a non-consecutive sequence number
        // is not a torn tail — it is a journal that disagrees with
        // itself, which replay must refuse rather than skip.
        if seq != prev_seq + 1 {
            return Err(corrupt(format!("record sequence jumped {prev_seq} -> {seq}")));
        }
        let batch = decode_batch(frame.payload)
            .ok_or_else(|| corrupt(format!("record {seq} payload does not decode")))?;
        prev_seq = seq;
        pos = frame.end;
        if seq > after_seq {
            records.push(WalRecord { seq, batch });
        }
    }
    Ok(Replay { base_seq, records, torn_tail, durable_len: pos as u64 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scholar-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn article(i: usize) -> Article {
        Article {
            id: ArticleId(0),
            title: format!("wal-{i}"),
            year: 2000 + i as i32,
            venue: VenueId(0),
            authors: vec![AuthorId(1), AuthorId(2)],
            references: vec![ArticleId(3)],
            merit: i.is_multiple_of(2).then_some(0.25),
        }
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = tmpdir("roundtrip");
        let mut wal = Wal::create(&dir, 10).unwrap();
        assert_eq!(wal.append(&[article(0), article(1)]).unwrap(), 11);
        assert_eq!(wal.append(&[article(2)]).unwrap(), 12);
        let replay = replay(&dir, 10).unwrap();
        assert_eq!(replay.base_seq, 10);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0].seq, 11);
        assert_eq!(replay.records[0].batch.len(), 2);
        assert_eq!(replay.records[0].batch[0].title, "wal-0");
        assert_eq!(replay.records[0].batch[0].merit, Some(0.25));
        assert_eq!(replay.records[1].batch[0].year, 2002);
        // Replay after the high-water mark sees nothing.
        assert!(replay_after(&dir, 12).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn replay_after(dir: &Path, seq: u64) -> Vec<WalRecord> {
        replay(dir, seq).unwrap().records
    }

    #[test]
    fn torn_tail_is_discarded_and_prefix_survives() {
        let dir = tmpdir("torn");
        let mut wal = Wal::create(&dir, 0).unwrap();
        wal.append(&[article(0)]).unwrap();
        wal.append(&[article(1)]).unwrap();
        drop(wal);
        // Tear the last record at every possible byte boundary; the first
        // record must survive every cut.
        let bytes = std::fs::read(wal_path(&dir)).unwrap();
        let first_end = {
            let len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
            16 + RECORD_HEADER + len
        };
        for cut in first_end + 1..bytes.len() {
            std::fs::write(wal_path(&dir), &bytes[..cut]).unwrap();
            let r = replay(&dir, 0).unwrap();
            assert!(r.torn_tail, "cut at {cut} must report a torn tail");
            assert_eq!(r.records.len(), 1, "prefix record must survive cut at {cut}");
            assert_eq!(r.high_water(), 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_payload_bit_stops_replay_at_the_tear() {
        let dir = tmpdir("flip");
        let mut wal = Wal::create(&dir, 0).unwrap();
        wal.append(&[article(0)]).unwrap();
        wal.append(&[article(1)]).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(wal_path(&dir)).unwrap();
        let second_payload = {
            let len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
            16 + RECORD_HEADER + len + RECORD_HEADER
        };
        bytes[second_payload] ^= 0x01;
        std::fs::write(wal_path(&dir), &bytes).unwrap();
        let r = replay(&dir, 0).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_wal_continues_the_sequence() {
        let dir = tmpdir("reopen");
        let mut wal = Wal::create(&dir, 0).unwrap();
        wal.append(&[article(0)]).unwrap();
        drop(wal);
        let r = replay(&dir, 0).unwrap();
        let mut wal = Wal::resume(&dir, &r).unwrap();
        assert_eq!(wal.append(&[article(1)]).unwrap(), 2);
        let r = replay(&dir, 0).unwrap();
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.high_water(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_truncates_a_torn_tail_so_new_appends_replay() {
        let dir = tmpdir("resume-torn");
        let mut wal = Wal::create(&dir, 0).unwrap();
        wal.append(&[article(0)]).unwrap();
        wal.append(&[article(1)]).unwrap();
        drop(wal);
        // Tear the second record, then resume and append a third batch:
        // replay must see records 1 and 2 (the new one renumbered), with
        // nothing stranded behind the tear.
        let bytes = std::fs::read(wal_path(&dir)).unwrap();
        std::fs::write(wal_path(&dir), &bytes[..bytes.len() - 3]).unwrap();
        let r = replay(&dir, 0).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.high_water(), 1);
        let mut wal = Wal::resume(&dir, &r).unwrap();
        assert_eq!(wal.append(&[article(9)]).unwrap(), 2);
        let r = replay(&dir, 0).unwrap();
        assert!(!r.torn_tail, "resume must have truncated the tear");
        assert_eq!(r.records.len(), 2);
        assert_eq!(r.records[1].batch[0].title, "wal-9");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotate_keeps_only_unfolded_records() {
        let dir = tmpdir("rotate");
        let mut wal = Wal::create(&dir, 0).unwrap();
        wal.append(&[article(0)]).unwrap(); // seq 1
        wal.append(&[article(1)]).unwrap(); // seq 2
        wal.append(&[article(2)]).unwrap(); // seq 3
        drop(wal);
        // Snapshot covered seq 2; rotation must carry only seq 3 over.
        let mut wal = rotate(&dir, 2).unwrap();
        let r = replay(&dir, 0).unwrap();
        assert_eq!(r.base_seq, 2);
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].seq, 3);
        assert_eq!(r.records[0].batch[0].title, "wal-2");
        assert_eq!(wal.append(&[article(3)]).unwrap(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_replays_empty() {
        let dir = tmpdir("empty");
        let r = replay(&dir, 5).unwrap();
        assert_eq!(r.base_seq, 5);
        assert!(r.records.is_empty());
        assert!(!r.torn_tail);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
