//! sfile: the one durable-file kit under SCOLv2, SCSRv4, SNAPv2, WALv1
//! and RLOGv1 (DESIGN.md §2.14).
//!
//! Every on-disk format in the workspace needs the same four things, and
//! this module is the only place any of them is implemented:
//!
//! 1. **Atomic publish** — [`TmpFile`] + [`publish_all`]: write under
//!    `<final>.tmp`, fsync the file, rename it into place, fsync the
//!    parent directory, and remove the tmp on every error path. A reader
//!    sees the complete old file or the complete new one, never a tear.
//! 2. **One checksum** — [`Fnv`] / [`fnv64`], FNV-1a 64.
//! 3. **One varint** — [`push_varint`] / [`read_varint`], strict LEB128.
//! 4. **One record frame** — [`push_frame`] / [`read_frame`]:
//!    `len: u32 | extra: [u8; N] | fnv64(payload): u64 | payload`. WALv1
//!    (`N = 8`, its sequence number) and RLOGv1 (`N = 0`) both drive it;
//!    what a bad frame *means* — torn tail or corruption — stays the
//!    caller's policy.
//!
//! ## The step hook
//!
//! Every publish entry point takes a `step` closure and evaluates it
//! before each I/O step it owns (tmp create, file fsync, rename). An
//! `Err` from the hook aborts the publish exactly as a failed syscall
//! would. Formats pass their failpoint check (`snapshot.io`, …) so the
//! chaos suite can kill a publish at any step; formats without one pass
//! [`no_step`]. The hook is never evaluated between the last rename and
//! the directory fsync: once a file is visible, making it durable cannot
//! be interrupted by an injected fault.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The step hook of a format with no failpoint site.
pub fn no_step() -> io::Result<()> {
    Ok(())
}

/// A file being written under `<final>.tmp`, not yet visible under its
/// final name.
///
/// Write through [`TmpFile::file`] (a plain [`File`], so seeking back to
/// rewrite a header works) or through the [`Write`] impl, then
/// [`TmpFile::publish`]. Dropping an unpublished `TmpFile` removes the
/// tmp file, so every error path — the caller's or the kit's — leaves
/// the directory as it found it.
#[derive(Debug)]
pub struct TmpFile {
    file: File,
    tmp: PathBuf,
    dst: PathBuf,
    published: bool,
}

impl TmpFile {
    /// Create `<dst>.tmp` (truncating a stale one) for a file that will
    /// be published as `dst`.
    pub fn create(dst: &Path, mut step: impl FnMut() -> io::Result<()>) -> io::Result<TmpFile> {
        step()?;
        let mut tmp = dst.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let file = File::create(&tmp)?;
        Ok(TmpFile { file, tmp, dst: dst.to_path_buf(), published: false })
    }

    /// The open tmp file.
    pub fn file(&mut self) -> &mut File {
        &mut self.file
    }

    /// Fsync, rename into place, fsync the parent directory — see
    /// [`publish_all`].
    pub fn publish(self, step: impl FnMut() -> io::Result<()>) -> io::Result<()> {
        publish_all(vec![self], step)
    }
}

impl Write for TmpFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl Drop for TmpFile {
    fn drop(&mut self) {
        if !self.published {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// The publish protocol: fsync every file, rename each into place **in
/// the order given**, then fsync the parent directory once.
///
/// All files must share one parent directory. With several files the
/// last one is the commit point (SCOLv2 passes `meta.col` last): until
/// its rename, readers that require it see no new state. On any error
/// every file not yet renamed has its tmp removed, and the error —
/// including a failed directory fsync, after which the renames may not
/// survive a crash — is returned.
pub fn publish_all(
    files: Vec<TmpFile>,
    mut step: impl FnMut() -> io::Result<()>,
) -> io::Result<()> {
    let Some(first) = files.first() else { return Ok(()) };
    let dir = parent_dir(&first.dst).to_path_buf();
    assert!(
        files.iter().all(|f| parent_dir(&f.dst) == dir),
        "publish_all: files must share one parent directory"
    );
    for f in &files {
        step()?;
        f.file.sync_all()?;
    }
    for mut f in files {
        step()?;
        std::fs::rename(&f.tmp, &f.dst)?;
        f.published = true;
    }
    fsync_dir(&dir)
}

/// The directory whose entry names `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Fsync a directory so renames into it survive a crash.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// FNV-1a 64-bit streaming hasher: the workspace's on-disk checksum and
/// content-derived generation hash. Dependency-free, no tables, and
/// bit-for-bit reproducible across platforms.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of `bytes` in one call.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

/// Append `v` as a LEB128 varint (1–10 bytes).
pub fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decode a LEB128 varint at `*pos`, advancing it. `None` on truncation
/// or on an encoding wider than 64 bits — an 11th byte, or a 10th byte
/// carrying more than the one bit a `u64` has left.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return None;
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Append one frame: `len: u32 | extra | fnv64(payload): u64 | payload`.
///
/// `extra` is header bytes the format owns (WALv1's sequence number);
/// the checksum covers the payload only.
pub fn push_frame(buf: &mut Vec<u8>, extra: &[u8], payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds the u32 length field");
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(extra);
    buf.extend_from_slice(&fnv64(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Why [`read_frame`] refused the bytes at a position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes remain than a frame header.
    TruncatedHeader,
    /// The length field exceeds the caller's bound or the bytes that
    /// remain.
    BadLength,
    /// The payload does not hash to the stored checksum.
    Checksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FrameError::TruncatedHeader => "frame header is truncated",
            FrameError::BadLength => "frame length field is corrupt",
            FrameError::Checksum => "frame checksum mismatch",
        })
    }
}

/// One decoded frame borrowed from the stream.
#[derive(Debug)]
pub struct Frame<'a, const N: usize> {
    /// The format-owned header bytes.
    pub extra: [u8; N],
    /// The checksum-verified payload.
    pub payload: &'a [u8],
    /// Offset one past the frame: where the next frame starts.
    pub end: usize,
}

/// Decode the frame that starts at `bytes[pos]`, whose header carries
/// `N` format-owned bytes and whose payload may not exceed `max_len`.
pub fn read_frame<const N: usize>(
    bytes: &[u8],
    pos: usize,
    max_len: u32,
) -> Result<Frame<'_, N>, FrameError> {
    let rest = bytes.get(pos..).unwrap_or(&[]);
    let (len, rest) = rest.split_first_chunk::<4>().ok_or(FrameError::TruncatedHeader)?;
    let (extra, rest) = rest.split_first_chunk::<N>().ok_or(FrameError::TruncatedHeader)?;
    let (checksum, rest) = rest.split_first_chunk::<8>().ok_or(FrameError::TruncatedHeader)?;
    let len = u32::from_le_bytes(*len);
    if len > max_len {
        return Err(FrameError::BadLength);
    }
    let payload = rest.get(..len as usize).ok_or(FrameError::BadLength)?;
    if fnv64(payload) != u64::from_le_bytes(*checksum) {
        return Err(FrameError::Checksum);
    }
    Ok(Frame { extra: *extra, payload, end: pos + 4 + N + 8 + payload.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use srand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn fnv64_matches_the_published_test_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"), "streaming must equal one-shot");
    }

    #[test]
    fn varint_round_trips_at_every_width() {
        let mut values = vec![0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX - 1, u64::MAX];
        values.extend((0..64).map(|s| 1u64 << s));
        for v in values {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
            // Every proper prefix is a truncation, never a value.
            for cut in 0..buf.len() {
                assert_eq!(read_varint(&buf[..cut], &mut 0), None, "{v} cut at {cut}");
            }
        }
    }

    #[test]
    fn varint_refuses_encodings_wider_than_64_bits() {
        // Nine continuation bytes then 0x02: bit 64. The decoder SCOLv1
        // used to carry returned Some(0) here.
        let mut over = vec![0x80u8; 9];
        over.push(0x02);
        assert_eq!(read_varint(&over, &mut 0), None);
        // Ten continuation bytes: an 11th byte can never be valid.
        let mut long = vec![0x80u8; 10];
        long.push(0x00);
        assert_eq!(read_varint(&long, &mut 0), None);
        // The widest legal encoding still decodes.
        let mut max = vec![0xffu8; 9];
        max.push(0x01);
        assert_eq!(read_varint(&max, &mut 0), Some(u64::MAX));
    }

    fn random_bytes(rng: &mut SmallRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// `(extra, payload)` of each frame in a stream.
    type Frames<const N: usize> = Vec<([u8; N], Vec<u8>)>;

    /// Decode frames from the start of `bytes` until the first refusal.
    fn decode_all<const N: usize>(bytes: &[u8]) -> (Frames<N>, Option<FrameError>) {
        let mut frames = Vec::new();
        let mut pos = 0;
        while pos < bytes.len() {
            match read_frame::<N>(bytes, pos, 1 << 20) {
                Ok(f) => {
                    frames.push((f.extra, f.payload.to_vec()));
                    pos = f.end;
                }
                Err(e) => return (frames, Some(e)),
            }
        }
        (frames, None)
    }

    /// The frame contract both record formats lean on, for one header
    /// shape: round trip, every truncation decodes to the clean record
    /// prefix, and no single-bit flip decodes silently.
    fn frame_property<const N: usize>() {
        // Miri interprets the pure codec tests; three seeds keep that
        // job in seconds.
        for seed in 0..if cfg!(miri) { 3 } else { 24u64 } {
            let mut rng = SmallRng::seed_from_u64(seed);
            let want: Frames<N> = (0..1 + seed as usize % 5)
                .map(|i| {
                    let extra = random_bytes(&mut rng, N).try_into().expect("N bytes requested");
                    // Lengths 0..40, empty included: a zero-length frame
                    // is legal.
                    (extra, random_bytes(&mut rng, (seed as usize * 7 + i * 13) % 40))
                })
                .collect();
            let mut stream = Vec::new();
            let mut ends = Vec::new();
            for (extra, payload) in &want {
                push_frame(&mut stream, extra, payload);
                ends.push(stream.len());
            }

            let (got, err) = decode_all::<N>(&stream);
            assert_eq!(got, want, "seed {seed}: round trip");
            assert_eq!(err, None);

            for cut in 0..stream.len() {
                let whole = ends.iter().filter(|&&e| e <= cut).count();
                let (got, err) = decode_all::<N>(&stream[..cut]);
                assert_eq!(got[..], want[..whole], "seed {seed}: cut at {cut} is not a prefix");
                let mid_frame = !(cut == 0 || ends.contains(&cut));
                assert_eq!(err.is_some(), mid_frame, "seed {seed}: cut at {cut}");
            }

            for bit in 0..stream.len() * 8 {
                let mut rotted = stream.clone();
                rotted[bit / 8] ^= 1 << (bit % 8);
                let hit = ends.iter().filter(|&&e| e <= bit / 8).count();
                let (got, err) = decode_all::<N>(&rotted);
                assert_eq!(
                    got[..hit],
                    want[..hit],
                    "seed {seed}: bit {bit} damaged an earlier frame"
                );
                // The flipped frame is refused — or, when the flip sits
                // in the format-owned `extra` bytes the checksum does
                // not cover, handed back visibly different for the
                // format's own check (WALv1: sequence continuity).
                let start = if hit == 0 { 0 } else { ends[hit - 1] };
                let in_extra = (start + 4..start + 4 + N).contains(&(bit / 8));
                match got.get(hit) {
                    None => assert!(err.is_some(), "seed {seed}: bit {bit} vanished"),
                    Some(frame) => {
                        assert!(in_extra, "seed {seed}: bit {bit} decoded silently");
                        assert_ne!(frame.0, want[hit].0);
                        assert_eq!(frame.1, want[hit].1);
                    }
                }
            }
        }
    }

    #[test]
    fn frames_truncate_to_a_clean_prefix_and_report_every_bit_flip() {
        frame_property::<0>(); // RLOGv1: len | sum | payload
        frame_property::<8>(); // WALv1: len | seq | sum | payload
    }

    #[test]
    fn frame_length_is_bounded_before_it_is_trusted() {
        let mut stream = Vec::new();
        push_frame(&mut stream, &[], &[7u8; 32]);
        assert!(read_frame::<0>(&stream, 0, 32).is_ok());
        assert_eq!(read_frame::<0>(&stream, 0, 31).unwrap_err(), FrameError::BadLength);
        assert_eq!(
            read_frame::<0>(&stream, stream.len() + 9, 32).unwrap_err(),
            FrameError::TruncatedHeader
        );
    }

    #[cfg(not(miri))]
    mod fs {
        use super::super::*;
        use std::cell::Cell;

        fn tmpdir(name: &str) -> PathBuf {
            let dir =
                std::env::temp_dir().join(format!("sgraph-sfile-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            dir
        }

        fn names(dir: &Path) -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        }

        /// A step hook that fails its `fail_at`-th evaluation (0-based).
        fn killer(fail_at: usize) -> impl FnMut() -> io::Result<()> {
            let seen = Cell::new(0usize);
            move || {
                let k = seen.get();
                seen.set(k + 1);
                if k == fail_at {
                    return Err(io::Error::other("killed"));
                }
                Ok(())
            }
        }

        fn write_one(
            dst: &Path,
            bytes: &[u8],
            mut step: impl FnMut() -> io::Result<()>,
        ) -> io::Result<()> {
            let mut tmp = TmpFile::create(dst, &mut step)?;
            tmp.file().write_all(bytes)?;
            tmp.publish(&mut step)
        }

        #[test]
        fn publish_kill_sweep_leaves_the_old_bytes_or_nothing() {
            for old in [None, Some(&b"old bytes"[..])] {
                let dir = tmpdir(if old.is_some() { "sweep-old" } else { "sweep-absent" });
                let dst = dir.join("data.bin");
                let mut steps = 0;
                loop {
                    let _ = std::fs::remove_file(&dst);
                    if let Some(old) = old {
                        write_one(&dst, old, no_step).unwrap();
                    }
                    match write_one(&dst, b"new bytes", killer(steps)) {
                        Err(e) => {
                            assert_eq!(e.to_string(), "killed");
                            assert_eq!(
                                std::fs::read(&dst).ok().as_deref(),
                                old,
                                "kill at step {steps} changed the published file"
                            );
                        }
                        // The kill landed past the last step: done.
                        Ok(()) => break,
                    }
                    let expect: &[&str] = if old.is_some() { &["data.bin"] } else { &[] };
                    assert_eq!(names(&dir), expect, "kill at step {steps} left debris");
                    write_one(&dst, b"new bytes", no_step).expect("disarmed retry");
                    assert_eq!(std::fs::read(&dst).unwrap(), b"new bytes");
                    steps += 1;
                }
                assert_eq!(steps, 3, "create, fsync, rename");
                assert_eq!(std::fs::read(&dst).unwrap(), b"new bytes");
                assert_eq!(names(&dir), ["data.bin"]);
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }

        #[test]
        fn group_publish_renames_in_order_and_commits_on_the_last_file() {
            let dir = tmpdir("group");
            let paths = [dir.join("a.col"), dir.join("b.col"), dir.join("meta.col")];
            let stage = || -> Vec<TmpFile> {
                paths
                    .iter()
                    .map(|p| {
                        let mut f = TmpFile::create(p, no_step).unwrap();
                        f.write_all(b"x").unwrap();
                        f
                    })
                    .collect()
            };
            // Steps 0..3 are the fsyncs, 3..6 the renames in order.
            for fail_at in 0..6 {
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).unwrap();
                publish_all(stage(), killer(fail_at)).unwrap_err();
                let renamed = fail_at.saturating_sub(3);
                let expect: Vec<&str> = ["a.col", "b.col"][..renamed].to_vec();
                assert_eq!(names(&dir), expect, "kill at step {fail_at}");
            }
            publish_all(stage(), no_step).unwrap();
            assert_eq!(names(&dir), ["a.col", "b.col", "meta.col"]);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn dropped_tmp_file_is_removed() {
            let dir = tmpdir("drop");
            let tmp = TmpFile::create(&dir.join("f"), no_step).unwrap();
            assert_eq!(names(&dir), ["f.tmp"]);
            drop(tmp);
            assert!(names(&dir).is_empty());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
