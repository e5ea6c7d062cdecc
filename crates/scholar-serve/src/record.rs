//! RLOGv1: sampled request-log recording for live traffic.
//!
//! Production proof of a candidate index starts with knowing what the
//! live one actually served. The connection core offers every answered
//! request to a [`Recorder`]: a sampled, bounded ring of [`ReqRecord`]s
//! behind a `try_lock` — the hot path **never blocks** on recording (a
//! contended tick is counted in `dropped` and skipped), and a recording
//! failure only degrades recording, never serving.
//!
//! [`Recorder::flush`] publishes the ring as an RLOGv1 file through
//! [`sgraph::sfile`] like SNAPv2/SCOLv2, so the file either exists
//! completely or not at all. Records are `sfile` frames with no
//! format-owned header bytes. Format:
//!
//! ```text
//! RLOGv1\0\0 | sample_every: u64            (16-byte header)
//! len: u32 | checksum: u64 (FNV-1a) | payload   (per record)
//! RLOGend\0 | count: u64                    (16-byte footer)
//! ```
//!
//! The footer is the truncation tripwire (same trick as SNAPv2's end
//! magic): a file with a valid footer is *complete*, and any bad record
//! inside it is a typed [`StateError::Corrupt`] — bit rot, not a crash.
//! A file without the footer is *torn* (killed mid-write before the
//! rename, or truncated after the fact): decode returns the valid record
//! prefix and flags `torn_tail`, mirroring the WALv1 contract.
//!
//! A decoded log replays through `scholar-loadgen`'s replay driver, which
//! re-issues the records against a server preserving per-connection order
//! and digests the responses — turning any recorded log into a portable
//! regression fixture — and through [`crate::shadow::replay_mirror`],
//! which answers them from a live and a candidate index and is the gate
//! a candidate must pass before it is published.

use crate::snapshot::{Result, StateError};
use sgraph::sfile::{push_frame, push_varint, read_frame, read_varint, TmpFile};
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

const MAGIC: &[u8; 8] = b"RLOGv1\0\0";
const END_MAGIC: &[u8; 8] = b"RLOGend\0";
const HEADER_BYTES: usize = 16;
const FOOTER_BYTES: usize = 16;
/// A record larger than this is a corrupt length field, not a request (a
/// request target is bounded by `http::MAX_REQUEST_LINE`).
const MAX_RECORD: u32 = 1 << 20;

fn corrupt(message: impl Into<String>) -> StateError {
    StateError::Corrupt { file: "request log".to_owned(), message: message.into() }
}

/// Chaos site, and the flush's `sfile` step hook: every flush I/O step
/// (tmp create, fsync, rename) funnels through this check, so a
/// `fp::Script` over `replay.record.io` can kill the flush at any step;
/// the recorder must then degrade — flag itself, surface the error to
/// its caller — while the live request path keeps serving untouched.
fn record_io_check() -> std::io::Result<()> {
    failpoint!(
        "replay.record.io",
        return Err(std::io::Error::other("injected I/O fault at replay.record.io"))
    );
    Ok(())
}

/// One recorded request: everything replay and the promotion gate need
/// to re-issue it and attribute its outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqRecord {
    /// Recorder-assigned connection id; requests sharing one client
    /// connection share it, and replay preserves order within it.
    pub conn: u64,
    /// 0-based request ordinal within the connection.
    pub seq: u64,
    /// Generation of the index snapshot that answered.
    pub generation: u64,
    /// Response status.
    pub status: u16,
    /// Service time in microseconds.
    pub latency_us: u64,
    /// Raw request target as it appeared on the wire (e.g. `/top?k=5`).
    pub target: String,
}

fn encode_record(buf: &mut Vec<u8>, r: &ReqRecord) {
    push_varint(buf, r.conn);
    push_varint(buf, r.seq);
    push_varint(buf, r.generation);
    push_varint(buf, u64::from(r.status));
    push_varint(buf, r.latency_us);
    push_varint(buf, r.target.len() as u64);
    buf.extend_from_slice(r.target.as_bytes());
}

fn decode_record(payload: &[u8]) -> Option<ReqRecord> {
    let mut pos = 0;
    let conn = read_varint(payload, &mut pos)?;
    let seq = read_varint(payload, &mut pos)?;
    let generation = read_varint(payload, &mut pos)?;
    let status = u16::try_from(read_varint(payload, &mut pos)?).ok()?;
    let latency_us = read_varint(payload, &mut pos)?;
    let target_len = read_varint(payload, &mut pos)? as usize;
    let end = pos.checked_add(target_len).filter(|&e| e <= payload.len())?;
    // lint: allow(HOTPATH-PANIC) pos <= end <= payload.len() by the filter above
    let target = std::str::from_utf8(&payload[pos..end]).ok()?.to_owned();
    (end == payload.len()).then_some(ReqRecord {
        conn,
        seq,
        generation,
        status,
        latency_us,
        target,
    })
}

/// Serialize a complete RLOGv1 file (header, records, footer).
pub fn encode_rlog(records: &[ReqRecord], sample_every: u64) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_BYTES + FOOTER_BYTES + records.len() * 48);
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&sample_every.to_le_bytes());
    let mut payload = Vec::new();
    for r in records {
        payload.clear();
        encode_record(&mut payload, r);
        push_frame(&mut bytes, &[], &payload);
    }
    bytes.extend_from_slice(END_MAGIC);
    bytes.extend_from_slice(&(records.len() as u64).to_le_bytes());
    bytes
}

/// A decoded request log.
#[derive(Debug)]
pub struct RecordLog {
    /// The recorder's sampling stride when the log was captured (1 =
    /// every request).
    pub sample_every: u64,
    /// The recorded requests, in capture order.
    pub records: Vec<ReqRecord>,
    /// Whether the file was torn (no valid footer): the records are the
    /// clean prefix that survived. A complete file with a bad record
    /// inside is *not* torn — that is [`StateError::Corrupt`].
    pub torn_tail: bool,
}

/// Decode an RLOGv1 byte image. See the module docs for the
/// complete-vs-torn distinction the footer draws.
pub fn decode_rlog(bytes: &[u8]) -> Result<RecordLog> {
    if bytes.len() < HEADER_BYTES {
        // Torn inside the header: nothing was durably recorded.
        return Ok(RecordLog { sample_every: 1, records: Vec::new(), torn_tail: true });
    }
    // lint: allow(HOTPATH-PANIC) bytes.len() >= HEADER_BYTES checked above
    if &bytes[..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    // lint: allow(HOTPATH-PANIC) HEADER_BYTES is 16 and the length was checked; try_into is an exact 8-byte slice
    let sample_every = u64::from_le_bytes(bytes[8..16].try_into().unwrap()).max(1);
    let footer_at = bytes.len().saturating_sub(FOOTER_BYTES);
    let complete = footer_at >= HEADER_BYTES
        && bytes.get(footer_at..footer_at + 8).is_some_and(|m| m == END_MAGIC);
    // The record region: up to the footer when there is one, else
    // whatever survived.
    let (region, expected) = match bytes.split_at_checked(footer_at) {
        Some((region, footer)) if complete => {
            let count = footer.get(8..).and_then(|b| b.try_into().ok()).map(u64::from_le_bytes);
            (region, count.unwrap_or(0))
        }
        _ => (bytes, 0),
    };
    let mut records = Vec::new();
    // A file without a footer is torn by definition: flush publishes the
    // footer atomically with the rename, so its absence means truncation.
    let torn_tail = !complete;
    let mut pos = HEADER_BYTES;
    while pos < region.len() {
        let frame = match read_frame::<0>(region, pos, MAX_RECORD) {
            Ok(frame) => frame,
            // RLOGv1's policy: the footer proves the writer finished, so
            // a bad frame inside a complete file is corruption, never a
            // tear.
            Err(e) if complete => return Err(corrupt(format!("record {}: {e}", records.len()))),
            // Torn: the record being written when the crash hit.
            Err(_) => break,
        };
        let record = decode_record(frame.payload)
            .ok_or_else(|| corrupt(format!("record {} payload does not decode", records.len())))?;
        records.push(record);
        pos = frame.end;
    }
    if complete && records.len() as u64 != expected {
        return Err(corrupt(format!(
            "footer promises {expected} records, file holds {}",
            records.len()
        )));
    }
    Ok(RecordLog { sample_every, records, torn_tail })
}

/// Read and decode `path` as RLOGv1.
pub fn read_rlog(path: &Path) -> Result<RecordLog> {
    let bytes = std::fs::read(path).map_err(StateError::Io)?;
    decode_rlog(&bytes)
}

/// Write a complete RLOGv1 file at `path` through [`sgraph::sfile`]: the
/// file at `path` is either the previous log or the new one, never a
/// tear; `Ok` means the new one is durable, and an error leaves no
/// `.tmp` behind.
pub fn write_rlog(path: &Path, records: &[ReqRecord], sample_every: u64) -> Result<()> {
    let mut tmp = TmpFile::create(path, record_io_check)?;
    tmp.write_all(&encode_rlog(records, sample_every))?;
    tmp.publish(record_io_check)?;
    Ok(())
}

/// Sampled, non-blocking request recording shared by every event-loop
/// shard. One instance lives in an `Arc` inside [`crate::ServeConfig`].
#[derive(Debug)]
pub struct Recorder {
    path: PathBuf,
    sample_every: u64,
    capacity: usize,
    /// Global request tick driving the sampling stride.
    tick: AtomicU64,
    /// Sampled ticks skipped because the ring was contended. The live
    /// path never waits: a missed sample is a statistic, not a stall.
    dropped: AtomicU64,
    /// Set on the first flush failure; recording stops (cheaply) and
    /// [`Recorder::degraded`] reports it, but serving is unaffected.
    degraded: AtomicBool,
    /// Connection-id allocator shared by every shard.
    next_conn: AtomicU64,
    ring: Mutex<VecDeque<ReqRecord>>,
}

impl Recorder {
    /// A recorder flushing to `path`, keeping every `sample_every`-th
    /// request (1 = all) among the most recent `capacity` samples.
    pub fn new(path: impl Into<PathBuf>, sample_every: u64, capacity: usize) -> Recorder {
        Recorder {
            path: path.into(),
            sample_every: sample_every.max(1),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Allocate a connection id for a newly accepted connection.
    pub fn conn_id(&self) -> u64 {
        // ORDERING: a pure id allocator — uniqueness comes from the RMW
        // itself; no data is published under the returned id.
        self.next_conn.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Advance the sampling tick for one answered request. Returns
    /// whether this request is on-stride and the recorder is healthy —
    /// the caller then builds the [`ReqRecord`] (its only allocation)
    /// and [`Recorder::store`]s it. Split from `store` so off-stride
    /// requests cost one atomic increment and nothing else.
    pub fn sample(&self) -> bool {
        // ORDERING: `degraded` is an advisory kill switch — reading it
        // stale costs at most a few extra samples that the degraded
        // flush then discards; nothing is published under the flag.
        if self.degraded.load(Ordering::Relaxed) {
            return false;
        }
        // ORDERING: the tick is a stride counter; each thread only needs
        // a unique value, which the RMW guarantees on its own.
        let t = self.tick.fetch_add(1, Ordering::Relaxed);
        t.is_multiple_of(self.sample_every)
    }

    /// Push one sampled record into the ring without blocking. Returns
    /// `false` when the ring was contended (the sample is counted in
    /// `dropped` and lost — a statistic, never a stall).
    pub fn store(&self, record: ReqRecord) -> bool {
        match self.ring.try_lock() {
            Ok(mut ring) => {
                if ring.len() >= self.capacity {
                    ring.pop_front();
                }
                ring.push_back(record);
                true
            }
            Err(_) => {
                // Contended (a flush holds the lock, or another shard's
                // store is mid-push) or poisoned: drop the sample.
                // ORDERING: an independent monotone statistic; no reader
                // uses it to infer visibility of other data.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Offer one answered request: [`Recorder::sample`] then
    /// [`Recorder::store`]. Returns whether it was sampled *and* stored.
    pub fn record(&self, record: ReqRecord) -> bool {
        self.sample() && self.store(record)
    }

    /// Publish the ring's current contents as an RLOGv1 file (see
    /// [`write_rlog`]), returning how many records it holds. On failure
    /// the recorder flags itself degraded: later [`Recorder::record`]
    /// calls become cheap no-ops, and serving continues untouched.
    pub fn flush(&self) -> Result<u64> {
        let records: Vec<ReqRecord> = {
            let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
            ring.iter().cloned().collect()
        };
        match write_rlog(&self.path, &records, self.sample_every) {
            Ok(()) => Ok(records.len() as u64),
            Err(e) => {
                // ORDERING: advisory kill switch (see `sample`); the flag
                // guards no associated data, so there is nothing for a
                // Release store to publish.
                self.degraded.store(true, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Whether a flush failure has disabled recording.
    pub fn degraded(&self) -> bool {
        // ORDERING: advisory kill switch (see `sample`) — a stale read
        // is harmless and the flag publishes no data.
        self.degraded.load(Ordering::Relaxed)
    }

    /// Sampled requests lost to ring contention.
    pub fn dropped(&self) -> u64 {
        // ORDERING: independent monotone statistic, read for reporting
        // only — no data visibility depends on it.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records currently buffered in the ring.
    pub fn buffered(&self) -> u64 {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner).len() as u64
    }

    /// The file this recorder flushes to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(conn: u64, seq: u64, target: &str) -> ReqRecord {
        ReqRecord {
            conn,
            seq,
            generation: 3,
            status: 200,
            latency_us: 120 + seq,
            target: target.to_owned(),
        }
    }

    #[test]
    fn encode_decode_round_trips_byte_identically() {
        let records =
            vec![rec(1, 0, "/top?k=5"), rec(1, 1, "/article/17"), rec(2, 0, "/top?venue=V%200")];
        let bytes = encode_rlog(&records, 4);
        let log = decode_rlog(&bytes).unwrap();
        assert_eq!(log.sample_every, 4);
        assert!(!log.torn_tail);
        assert_eq!(log.records, records);
        // Re-encode: byte-identical.
        assert_eq!(encode_rlog(&log.records, log.sample_every), bytes);
    }

    #[test]
    fn empty_log_is_valid_and_complete() {
        let bytes = encode_rlog(&[], 1);
        let log = decode_rlog(&bytes).unwrap();
        assert!(log.records.is_empty());
        assert!(!log.torn_tail);
    }

    #[test]
    fn every_truncation_yields_a_clean_prefix() {
        let records = vec![rec(1, 0, "/top?k=5"), rec(1, 1, "/health"), rec(2, 0, "/top")];
        let bytes = encode_rlog(&records, 1);
        for cut in 0..bytes.len() {
            let log = decode_rlog(&bytes[..cut]).unwrap_or_else(|e| {
                panic!("cut at {cut} must decode as torn, got error: {e}");
            });
            assert!(log.torn_tail, "cut at {cut} lost the footer and must be torn");
            assert!(log.records.len() <= records.len());
            // Whatever survived is a prefix, record for record.
            for (i, r) in log.records.iter().enumerate() {
                assert_eq!(r, &records[i], "cut at {cut}");
            }
        }
    }

    #[test]
    fn checksum_flip_in_complete_file_is_a_typed_error() {
        let records = vec![rec(1, 0, "/top?k=5"), rec(1, 1, "/health")];
        let mut bytes = encode_rlog(&records, 1);
        // Flip one payload byte of the first record (payload starts right
        // after the 16-byte header + 12-byte frame header).
        bytes[HEADER_BYTES + 12] ^= 0x01;
        match decode_rlog(&bytes) {
            Err(StateError::Corrupt { message, .. }) => {
                assert!(message.contains("checksum"), "{message}");
            }
            other => panic!("flip must be Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn footer_count_mismatch_is_a_typed_error() {
        let bytes = encode_rlog(&[rec(1, 0, "/top")], 1);
        let mut lying = bytes.clone();
        let at = lying.len() - 8;
        lying[at..].copy_from_slice(&9u64.to_le_bytes());
        assert!(matches!(decode_rlog(&lying), Err(StateError::Corrupt { .. })));
    }

    #[test]
    fn recorder_samples_every_nth_and_caps_the_ring() {
        let dir = std::env::temp_dir();
        let r = Recorder::new(dir.join("rlog-sample-test.rlog"), 3, 4);
        let mut stored = 0;
        for i in 0..30u64 {
            if r.record(rec(1, i, "/top")) {
                stored += 1;
            }
        }
        assert_eq!(stored, 10, "stride 3 keeps every third of 30");
        assert_eq!(r.buffered(), 4, "ring keeps only the most recent capacity");
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn concurrent_stores_and_flushes_account_for_every_sample() {
        // Threads sample and store while another flushes repeatedly: the
        // try_lock ring may drop a contended sample, but every on-stride
        // tick is either stored or counted dropped, the ring never grows
        // past its capacity, and every flushed log decodes whole.
        let path =
            std::env::temp_dir().join(format!("rlog-concurrent-test-{}.rlog", std::process::id()));
        let (threads, ticks, stride, cap) = (4u64, 3_000u64, 3u64, 64usize);
        let r = Recorder::new(&path, stride, cap);
        let stop = AtomicBool::new(false);
        let stored = AtomicU64::new(0);
        let start = std::sync::Barrier::new(threads as usize + 1);
        std::thread::scope(|scope| {
            let flusher = scope.spawn(|| {
                start.wait();
                let mut flushes = 0u32;
                while !stop.load(Ordering::Acquire) || flushes == 0 {
                    let n = r.flush().expect("flush");
                    assert!(n <= cap as u64, "ring held {n} > capacity {cap}");
                    let log = read_rlog(&path).expect("a flushed log decodes");
                    assert!(!log.torn_tail);
                    assert_eq!(log.records.len() as u64, n);
                    flushes += 1;
                }
            });
            let writers: Vec<_> = (0..threads)
                .map(|t| {
                    let (r, stored, start) = (&r, &stored, &start);
                    scope.spawn(move || {
                        start.wait();
                        for seq in 0..ticks {
                            if r.sample() && r.store(rec(t, seq, "/top?k=3")) {
                                stored.fetch_add(1, Ordering::SeqCst);
                            }
                            assert!(r.buffered() <= cap as u64);
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            stop.store(true, Ordering::Release);
            flusher.join().unwrap();
        });
        let on_stride = (threads * ticks).div_ceil(stride);
        assert_eq!(stored.load(Ordering::SeqCst) + r.dropped(), on_stride);
        assert!(r.buffered() <= cap as u64);
        assert!(!r.degraded());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_round_trips_through_the_file() {
        let path =
            std::env::temp_dir().join(format!("rlog-flush-test-{}.rlog", std::process::id()));
        let r = Recorder::new(&path, 1, 64);
        assert_eq!(r.conn_id(), 1);
        assert_eq!(r.conn_id(), 2);
        r.record(rec(1, 0, "/top?k=2"));
        r.record(rec(2, 0, "/article/3"));
        assert_eq!(r.flush().unwrap(), 2);
        let log = read_rlog(&path).unwrap();
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.records[1].target, "/article/3");
        assert!(!r.degraded());
        let _ = std::fs::remove_file(&path);
    }
}
