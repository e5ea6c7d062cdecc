//! Mmap-backed, node-sharded pull CSR for out-of-core walks.
//!
//! [`MmapCsr`] stores what [`RowStochastic`](crate::RowStochastic) walks
//! — per-target in-edge lists with their raw weights (each coded as an
//! index into one per-file weight table), each node's out-weight sum,
//! and the global dangling set — but on disk, partitioned into
//! contiguous node shards that are served zero-copy through
//! [`crate::mmap::Mmap`]. It runs both walk solvers of
//! [`crate::store`]: the citation walks' reverse sweep
//! ([`ReverseSweep::reverse_pass`], sequential, shards from last to first
//! and each shard's rows from last to first) and the power-iteration step
//! ([`CsrStore::apply_step`], on every worker), which also gives the
//! sweep its residual. Either touches one shard's arrays at a time per
//! worker, so peak resident memory is two iterate vectors, the
//! step's pre-scaled `z`, the out-sum column, and one shard per worker —
//! not the whole graph.
//!
//! ## Bit identity with the dense operator
//!
//! The damped step `y = d·Pᵀx + (d·dangling_mass(x) + (1−d))·j` is a
//! sum per output slot, and floating-point addition is order-sensitive;
//! the dense kernel pre-scales `z[u] = x[u] / out_sum[u]` and fixes the
//! order as *ascending global source id per target* and *ascending node
//! id for the dangling mass* (the materialised-store contract of
//! [`crate::store::CsrStore`]). [`MmapCsrBuilder`] stores the same
//! out-sums, summed in the same order, and preserves exactly those
//! orders (sources arrive ascending because `add_source` must be called
//! for node 0, 1, …, n−1; each shard is assembled by a stable counting
//! scatter by target — rows counted in one pass over the shard's spill,
//! every edge placed at its row's next free slot in spill order in a
//! second — which keeps them ascending per row), and
//! [`MmapCsr::apply_step`] and [`MmapCsr::reverse_pass`] pre-scale the
//! same way and accumulate `table[code]·z[source]`, the same `w·z[u]`
//! product, in stored order. Node partitioning never reorders a per-slot
//! sum — each target's whole row lives in its own shard — so shard size
//! and worker count are pure layout knobs: residuals, iteration and pass
//! counts, and stationaries are bit-identical to the dense solve at any
//! `shard_size` and any `threads`.
//!
//! ## File format (`SCSRv4`, little-endian, 8-byte-aligned sections)
//!
//! ```text
//! header   : magic "SCSRv4\0\0" · n · m · shard_size · num_shards
//!            · sums_off · dangling_off · dangling_len · table_off
//!            · table_len · tag                          (11 × u64)
//! directory: per shard { offsets_off, sources_off, codes_off, edges }
//!                                                       (4 × u64)
//! sums     : f64[n]              out-weight sum of every node
//! dangling : u32[dangling_len]   ascending global ids
//! table    : f64[table_len]      the distinct raw edge weights (w > 0,
//!                                from a non-dangling source) in the
//!                                order `add_source` first met them;
//!                                table_len ≤ 65,536
//! per shard:
//!   offsets : u64[shard_len + 1] row starts, relative to the shard
//!   sources : u32[edges]         each edge's global source id
//!   codes   : u16[edges]         each edge's raw weight, as its index
//!                                into the table
//! ```
//!
//! A decayed citation weight depends only on the citation's age, so a
//! whole graph carries a few dozen distinct weights, and a 2-byte code
//! per edge replaces the 8-byte weight `SCSRv2` stored. The sweep
//! multiplies `table[code]`, the same `f64` the edge was built with, so
//! the file's bytes shrink and no product changes. A graph with more
//! distinct weights than a `u16` can index is refused at build time with
//! [`io::ErrorKind::InvalidInput`]; nothing is clamped or rounded.
//!
//! `SCSRv1` stored `w / out_sum` per edge, `SCSRv2` the raw `f64`, and
//! `SCSRv3` each shard's out-of-shard sources in a list of its own, coding
//! a source by its place in the shard or in that list; a file with any of
//! these magics is refused on open, so a cache left by an older build is
//! rebuilt. The `tag` is caller-supplied (the colstore layer passes its
//! content generation) and is validated on open, so a stale shard file
//! built from an older corpus cannot be silently reused either.
//!
//! Every row reads the one pre-scaled iterate `z` at its global source
//! ids, as the dense kernel does. Workers sweep contiguous shard groups
//! balanced by edge count, each writing its own run of the output.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::mmap::Mmap;
use crate::par;
use crate::scatter::{Cursors, RowCounts};
use crate::sfile::{no_step, TmpFile};
use crate::stochastic::{dangles, per_weight, JumpVector};
use crate::store::{CsrStore, Pass, PassSums, ReverseSweep};
use crate::CsrGraph;

const MAGIC: &[u8; 8] = b"SCSRv4\0\0";
const HEADER_BYTES: usize = 88;
const DIR_FIELDS: usize = 4;
/// One spilled edge: target `u32`, source `u32`, weight code `u16`.
const SPILL_RECORD: usize = 10;
/// Distinct weights one file can hold: every value of a `u16` code.
const TABLE_CAP: usize = 1 << 16;
/// Slots of the builder's cache of recently coded weights.
const RECENT: usize = 256;
/// Bytes per spill read and per bulk section write.
const SPILL_CHUNK: usize = 1 << 20;

/// Round `off` up to the next multiple of 8.
fn align8(off: u64) -> u64 {
    (off + 7) & !7
}

#[derive(Clone, Copy)]
struct ShardMeta {
    offsets_off: u64,
    sources_off: u64,
    codes_off: u64,
    edges: u64,
}

/// Streaming writer for the [`MmapCsr`] shard file.
///
/// Call [`MmapCsrBuilder::add_source`] once per node in ascending id
/// order with that node's out-edges (targets and raw weights, in the
/// same order the dense CSR stores them), then
/// [`MmapCsrBuilder::finish`]. Each stored weight is interned by its bit
/// pattern into the file's weight table, in first-seen order, and the
/// edge is spilled to a per-shard temp file as it arrives (one 10-byte
/// record: target, source, weight code); the out-weight sums go to one
/// more, so neither the edge set nor a per-node column is held in memory.
/// `finish` assembles one shard at a time in two streaming passes over its
/// spill — count rows, then scatter — holding 6 bytes per edge and 8 per
/// node of that shard, and publishes the result through [`crate::sfile`].
/// A spill that is not whole records,
/// changes between the passes or comes up short of the edges `add_source`
/// wrote is [`io::ErrorKind::InvalidData`], never a short shard. The spill
/// files are removed when the builder is dropped, finished or not.
pub struct MmapCsrBuilder {
    path: PathBuf,
    n: usize,
    shard_size: usize,
    num_shards: usize,
    next: u32,
    m: u64,
    dangling: Vec<u32>,
    /// One edge spill per shard, then the out-weight sums' spill.
    spills: Vec<BufWriter<File>>,
    spill_paths: Vec<PathBuf>,
    /// The distinct stored weights, in first-seen order: a weight's code
    /// is its index here.
    table: Vec<f64>,
    /// `table` inverted, keyed by each weight's bit pattern.
    code_of: BTreeMap<u64, u16>,
    /// A direct-mapped cache in front of `code_of`, of `(bits, code)`:
    /// edges repeat a few dozen weights, and a probe here costs less than
    /// a tree search. An empty slot holds the bits of `+0.0`, never stored.
    recent: [(u64, u16); RECENT],
    /// The codes of the node `add_source` is storing, in edge order.
    node_codes: Vec<u16>,
}

impl MmapCsrBuilder {
    /// Start building a shard file at `path` for an `n`-node graph with
    /// `shard_size` nodes per shard.
    pub fn new(path: &Path, n: usize, shard_size: usize) -> io::Result<MmapCsrBuilder> {
        assert!(shard_size > 0, "shard_size must be positive");
        assert!(n < u32::MAX as usize, "node count must fit in u32");
        let num_shards = n.div_ceil(shard_size).max(1);
        // Built first so a failed create below still cleans up the
        // spill files already made.
        let mut b = MmapCsrBuilder {
            path: path.to_path_buf(),
            n,
            shard_size,
            num_shards,
            next: 0,
            m: 0,
            dangling: Vec::new(),
            spills: Vec::with_capacity(num_shards + 1),
            spill_paths: Vec::with_capacity(num_shards + 1),
            table: Vec::new(),
            code_of: BTreeMap::new(),
            recent: [(0, 0); RECENT],
            node_codes: Vec::new(),
        };
        for s in 0..=num_shards {
            let sp = path.with_extension(format!("spill{s}"));
            b.spill_paths.push(sp.clone());
            b.spills.push(BufWriter::new(File::create(&sp)?));
        }
        Ok(b)
    }

    /// Feed the out-edges of the next node (ids must arrive 0, 1, …).
    ///
    /// `targets`/`weights` must be ascending in target, with no
    /// duplicates, so the out-weight sum is summed as
    /// [`CsrGraph::out_weight_sums`] sums it. A
    /// node whose sum is zero or subnormal is dangling, exactly as there;
    /// otherwise each edge with `w > 0` is stored with its raw weight's
    /// code.
    ///
    /// A weight that would be the file's 65,537th distinct value is
    /// [`io::ErrorKind::InvalidInput`]; the refused call changes nothing.
    pub fn add_source(&mut self, targets: &[u32], weights: &[f64]) -> io::Result<()> {
        assert_eq!(targets.len(), weights.len(), "targets/weights length mismatch");
        assert!((self.next as usize) < self.n, "add_source called more than n times");
        let out_sum: f64 = weights.iter().sum();
        let dangling = dangles(out_sum);
        self.node_codes.clear();
        if !dangling {
            let interned = self.table.len();
            for (&t, &w) in targets.iter().zip(weights) {
                assert!((t as usize) < self.n, "target {t} out of bounds");
                if w > 0.0 {
                    let Some(code) = self.code(w) else {
                        for w in self.table.drain(interned..) {
                            self.code_of.remove(&w.to_bits());
                        }
                        self.recent = [(0, 0); RECENT];
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            format!("more than {TABLE_CAP} distinct edge weights"),
                        ));
                    };
                    self.node_codes.push(code);
                }
            }
        }
        let u = self.next;
        self.next += 1;
        self.spills[self.num_shards].write_all(&out_sum.to_le_bytes())?;
        if dangling {
            self.dangling.push(u);
            return Ok(());
        }
        let stored = targets.iter().zip(weights).filter(|&(_, &w)| w > 0.0);
        for ((&t, _), &code) in stored.zip(&self.node_codes) {
            let mut record = [0u8; SPILL_RECORD];
            record[0..4].copy_from_slice(&t.to_le_bytes());
            record[4..8].copy_from_slice(&u.to_le_bytes());
            record[8..10].copy_from_slice(&code.to_le_bytes());
            self.spills[t as usize / self.shard_size].write_all(&record)?;
            self.m += 1;
        }
        Ok(())
    }

    /// `w`'s code, interning it if it is new; `None` once every code is
    /// taken.
    fn code(&mut self, w: f64) -> Option<u16> {
        let bits = w.to_bits();
        let slot = &mut self.recent[(bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as usize];
        if slot.0 == bits {
            return Some(slot.1);
        }
        let next = self.table.len();
        let code = match self.code_of.entry(bits) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let code = u16::try_from(next).ok()?;
                self.table.push(w);
                *e.insert(code)
            }
        };
        *slot = (bits, code);
        Some(code)
    }

    /// Assemble the shard file and atomically publish it, stamping `tag`
    /// into the header for staleness detection on open.
    pub fn finish(mut self, tag: u64) -> io::Result<()> {
        assert_eq!(self.next as usize, self.n, "add_source must be called exactly n times");
        for sp in &mut self.spills {
            sp.flush()?;
        }
        self.spills.clear();

        let mut tmp = TmpFile::create(&self.path, no_step)?;
        let mut out = BufWriter::new(tmp.file());
        let dir_bytes = (self.num_shards * DIR_FIELDS * 8) as u64;
        let sums_off = HEADER_BYTES as u64 + dir_bytes;
        let dangling_off = sums_off + (self.n * 8) as u64;
        // Header + directory are rewritten at the end once section
        // offsets are known; reserve their bytes now.
        out.write_all(&vec![0u8; sums_off as usize])?;
        io::copy(&mut File::open(&self.spill_paths[self.num_shards])?, &mut out)?;
        write_le(&mut out, &self.dangling, |u| u.to_le_bytes())?;
        let mut cursor = dangling_off + (self.dangling.len() * 4) as u64;

        let mut dir = Vec::with_capacity(self.num_shards);
        let pad = |out: &mut BufWriter<&mut File>, cursor: &mut u64| -> io::Result<()> {
            let aligned = align8(*cursor);
            if aligned > *cursor {
                out.write_all(&vec![0u8; (aligned - *cursor) as usize])?;
                *cursor = aligned;
            }
            Ok(())
        };

        pad(&mut out, &mut cursor)?;
        let table_off = cursor;
        write_le(&mut out, &self.table, |w| w.to_le_bytes())?;
        cursor += (self.table.len() * 8) as u64;

        for shard in 0..self.num_shards {
            let start = shard * self.shard_size;
            let shard_len = self.shard_size.min(self.n - start.min(self.n));
            let spill = &self.spill_paths[shard];
            let row_of = |t: u32| {
                (t as usize)
                    .checked_sub(start)
                    .filter(|&row| row < shard_len)
                    .ok_or_else(|| bad_spill("target outside its shard"))
            };

            // Pass 1: count each row. Spill order is ascending source
            // (add_source id order), which the scatter keeps in every row.
            let mut rows = RowCounts::new(shard_len);
            let mut last_source = 0;
            let edges = for_each_record(spill, |t, u, _| {
                rows.add(row_of(t)?);
                if u < last_source {
                    return Err(bad_spill("sources out of order"));
                }
                last_source = u;
                Ok(())
            })?;
            let offsets = rows.offsets();

            pad(&mut out, &mut cursor)?;
            let offsets_off = cursor;
            write_le(&mut out, &offsets, |&o| (o as u64).to_le_bytes())?;
            cursor += (offsets.len() * 8) as u64;

            // Pass 2: stable counting scatter. Each row fills in spill
            // order, so it stays source-ascending.
            let (mut sources, mut codes) = (vec![0u32; edges], vec![0u16; edges]);
            let mut slots = Cursors::new(offsets);
            let seen = for_each_record(spill, |t, u, weight_code| {
                if usize::from(weight_code) >= self.table.len() {
                    return Err(bad_spill("weight code outside the table"));
                }
                let slot = slots.place(row_of(t)?);
                if slot >= edges {
                    return Err(bad_spill("spill grew between passes"));
                }
                sources[slot] = u;
                codes[slot] = weight_code;
                Ok(())
            })?;
            if seen != edges {
                return Err(bad_spill("spill changed length between passes"));
            }

            pad(&mut out, &mut cursor)?;
            let sources_off = cursor;
            write_le(&mut out, &sources, |u| u.to_le_bytes())?;
            cursor += (edges * 4) as u64;

            pad(&mut out, &mut cursor)?;
            let codes_off = cursor;
            write_le(&mut out, &codes, |c| c.to_le_bytes())?;
            cursor += (edges * 2) as u64;

            dir.push(ShardMeta { offsets_off, sources_off, codes_off, edges: edges as u64 });
        }
        if dir.iter().map(|d| d.edges).sum::<u64>() != self.m {
            return Err(bad_spill("edge count disagrees with add_source"));
        }
        out.flush()?;
        drop(out);

        // Now rewrite the reserved header and directory.
        let file = tmp.file();
        file.seek(SeekFrom::Start(0))?;
        let mut head = Vec::with_capacity(HEADER_BYTES);
        head.extend_from_slice(MAGIC);
        for v in [
            self.n as u64,
            self.m,
            self.shard_size as u64,
            self.num_shards as u64,
            sums_off,
            dangling_off,
            self.dangling.len() as u64,
            table_off,
            self.table.len() as u64,
            tag,
        ] {
            head.extend_from_slice(&v.to_le_bytes());
        }
        file.write_all(&head)?;
        let mut dir_buf = Vec::with_capacity(dir.len() * DIR_FIELDS * 8);
        for d in &dir {
            for v in [d.offsets_off, d.sources_off, d.codes_off, d.edges] {
                dir_buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        file.write_all(&dir_buf)?;
        tmp.publish(no_step)
    }
}

impl Drop for MmapCsrBuilder {
    fn drop(&mut self) {
        for sp in &self.spill_paths {
            let _ = std::fs::remove_file(sp);
        }
    }
}

fn bad_spill(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt spill file: {what}"))
}

/// Stream `path`'s `(target, source, weight code)` records through `f`, in
/// file order, a chunk at a time. Returns the record count; a length that is
/// not a whole number of records is [`io::ErrorKind::InvalidData`].
fn for_each_record(
    path: &Path,
    mut f: impl FnMut(u32, u32, u16) -> io::Result<()>,
) -> io::Result<usize> {
    let mut file = File::open(path)?;
    let mut buf = vec![0u8; SPILL_CHUNK];
    let (mut filled, mut records) = (0, 0);
    loop {
        let got = match file.read(&mut buf[filled..]) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            got => got?,
        };
        filled += got;
        let whole = filled - filled % SPILL_RECORD;
        for r in buf[..whole].chunks_exact(SPILL_RECORD) {
            f(
                u32::from_le_bytes(r[0..4].try_into().expect("4-byte field")),
                u32::from_le_bytes(r[4..8].try_into().expect("4-byte field")),
                u16::from_le_bytes(r[8..10].try_into().expect("2-byte field")),
            )?;
        }
        records += whole / SPILL_RECORD;
        buf.copy_within(whole..filled, 0);
        filled -= whole;
        if got == 0 {
            break;
        }
    }
    if filled != 0 {
        return Err(bad_spill("length is not a whole number of records"));
    }
    Ok(records)
}

/// Write `items` little-endian as one run of bytes, a chunk at a time.
fn write_le<T, const N: usize>(
    out: &mut impl Write,
    items: &[T],
    to_le: impl Fn(&T) -> [u8; N],
) -> io::Result<()> {
    let mut buf = Vec::new();
    for chunk in items.chunks(SPILL_CHUNK / N) {
        buf.resize(chunk.len() * N, 0);
        for (bytes, item) in buf.chunks_exact_mut(N).zip(chunk) {
            bytes.copy_from_slice(&to_le(item));
        }
        out.write_all(&buf)?;
    }
    Ok(())
}

/// An opened, validated shard file serving pull-CSR rows zero-copy.
pub struct MmapCsr {
    map: Mmap,
    n: usize,
    m: u64,
    shard_size: usize,
    sums_off: usize,
    dangling_off: usize,
    dangling_len: usize,
    tag: u64,
    /// The file's weight table, zero-padded to every `u16` code, so the
    /// sweep's `table[code]` needs no bounds check and cannot panic.
    table: Box<[f64; TABLE_CAP]>,
    dir: Vec<ShardMeta>,
    /// Prefix sums of each shard's edge count (`num_shards + 1`
    /// entries): what the shard groups are balanced by.
    work: Vec<usize>,
}

impl MmapCsr {
    /// Open `path`, validating magic, header invariants, section bounds
    /// and alignment, and — when `expected_tag` is given — the builder's
    /// generation stamp. O(shards) plus a copy of the weight table: section
    /// *contents* are not validated (the file is a cache derived from the
    /// checksummed SCOLv2 columns and rebuilt on any tag mismatch, see
    /// DESIGN.md §2.14).
    pub fn open(path: &Path, expected_tag: Option<u64>) -> io::Result<MmapCsr> {
        let map = Mmap::map_file(path)?;
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        if map.len() < HEADER_BYTES {
            return Err(bad("shard file shorter than header"));
        }
        if &map.bytes()[..8] != MAGIC {
            return Err(bad("bad shard file magic"));
        }
        let h = map.as_u64s(8, 10);
        let (n, m, shard_size, num_shards, sums_off, dangling_off, dangling_len) =
            (h[0], h[1], h[2], h[3], h[4], h[5], h[6]);
        let (table_off, table_len, tag) = (h[7], h[8], h[9]);
        if let Some(want) = expected_tag {
            if tag != want {
                return Err(bad("shard file generation tag mismatch (stale cache?)"));
            }
        }
        let n = usize::try_from(n).map_err(|_| bad("node count overflow"))?;
        let shard_size = usize::try_from(shard_size).map_err(|_| bad("shard size overflow"))?;
        if shard_size == 0 || num_shards != n.div_ceil(shard_size).max(1) as u64 {
            return Err(bad("inconsistent shard geometry"));
        }
        (num_shards as usize)
            .checked_mul(DIR_FIELDS * 8)
            .and_then(|dir_bytes| dir_bytes.checked_add(HEADER_BYTES))
            .filter(|&dir_end| dir_end <= map.len())
            .ok_or_else(|| bad("shard file shorter than directory"))?;
        let num_shards = num_shards as usize;
        // The typed views below are served straight from the map, whose
        // base is page-aligned: a misaligned offset must be refused here
        // or it panics the solver later.
        let mut dir = Vec::with_capacity(num_shards);
        let mut work = Vec::with_capacity(num_shards + 1);
        work.push(0usize);
        let mut edges_total = 0u64;
        for s in 0..num_shards {
            let d = map.as_u64s(HEADER_BYTES + s * DIR_FIELDS * 8, DIR_FIELDS);
            let meta =
                ShardMeta { offsets_off: d[0], sources_off: d[1], codes_off: d[2], edges: d[3] };
            let shard_len = shard_size.min(n - (s * shard_size).min(n));
            let file_len = map.len() as u128;
            let fits = |off: u64, count: u128, size: u128| off as u128 + count * size <= file_len;
            if !fits(meta.codes_off, meta.edges as u128, 2)
                || !fits(meta.sources_off, meta.edges as u128, 4)
                || !fits(meta.offsets_off, shard_len as u128 + 1, 8)
            {
                return Err(bad("shard section out of bounds"));
            }
            if !meta.codes_off.is_multiple_of(2)
                || !meta.offsets_off.is_multiple_of(8)
                || !meta.sources_off.is_multiple_of(4)
            {
                return Err(bad("shard section misaligned"));
            }
            edges_total += meta.edges;
            // Bounded by the file length above.
            work.push(work[s] + meta.edges as usize);
            dir.push(meta);
        }
        if edges_total != m {
            return Err(bad("edge count disagrees with shard directory"));
        }
        if sums_off as u128 + n as u128 * 8 > map.len() as u128 || !sums_off.is_multiple_of(8) {
            return Err(bad("out-sum section out of bounds or misaligned"));
        }
        if dangling_off as u128 + dangling_len as u128 * 4 > map.len() as u128
            || !dangling_off.is_multiple_of(4)
        {
            return Err(bad("dangling list out of bounds or misaligned"));
        }
        if table_len > TABLE_CAP as u64
            || table_off as u128 + table_len as u128 * 8 > map.len() as u128
            || !table_off.is_multiple_of(8)
        {
            return Err(bad("weight table too long, out of bounds or misaligned"));
        }
        let table_len = table_len as usize;
        let mut table: Box<[f64; TABLE_CAP]> =
            vec![0.0; TABLE_CAP].into_boxed_slice().try_into().expect("TABLE_CAP entries");
        table[..table_len].copy_from_slice(map.as_f64s(table_off as usize, table_len));
        let sums_off = sums_off as usize;
        let dangling_len = usize::try_from(dangling_len).map_err(|_| bad("dangling overflow"))?;
        let dangling_off = usize::try_from(dangling_off).map_err(|_| bad("dangling overflow"))?;
        Ok(MmapCsr {
            map,
            n,
            m,
            shard_size,
            sums_off,
            dangling_off,
            dangling_len,
            tag,
            table,
            dir,
            work,
        })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of stored transition edges.
    pub fn num_edges(&self) -> u64 {
        self.m
    }

    /// Number of node shards.
    pub fn num_shards(&self) -> usize {
        self.dir.len()
    }

    /// Nodes per shard (the last shard may be shorter).
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// The generation tag stamped at build time.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// The ascending global ids of dangling nodes.
    pub fn dangling(&self) -> &[u32] {
        self.map.as_u32s(self.dangling_off, self.dangling_len)
    }

    /// `Σ x[u]` over dangling `u`, in ascending id order — the same
    /// summation as the dense operator's.
    pub fn dangling_mass(&self, x: &[f64]) -> f64 {
        self.dangling().iter().map(|&u| x[u as usize]).sum()
    }
}

impl CsrStore for MmapCsr {
    fn num_nodes(&self) -> usize {
        self.n
    }

    /// Damped step over contiguous shard groups on up to `threads`
    /// workers, every row gathering from one pre-scaled iterate.
    ///
    /// `z = x / out_sum` is filled once per step, split evenly across the
    /// workers. The shards are then cut into groups of near-equal edge
    /// counts and each group's worker writes its own run of `y`, its rows
    /// reading `z` at their sources' global ids. Every `y[v]` is the same
    /// sequential sum in stored order whichever worker runs it, so the
    /// iterate is the same bits at any thread count.
    fn apply_step(
        &self,
        x: &[f64],
        y: &mut [f64],
        damping: f64,
        jump: &JumpVector,
        threads: usize,
    ) {
        assert_eq!(x.len(), self.n, "input vector length mismatch");
        assert_eq!(y.len(), self.n, "output vector length mismatch");
        let threads = threads.max(1);
        let residual = damping * self.dangling_mass(x) + (1.0 - damping);
        let share = jump.shares(residual, self.n);
        let sums = self.map.as_f64s(self.sums_off, self.n);
        let mut z = vec![0.0; self.n];
        par::for_each_range_mut(&mut z, &par::uniform_ranges(self.n, threads), |nodes, out| {
            for ((slot, &xu), &s) in out.iter_mut().zip(&x[nodes.clone()]).zip(&sums[nodes]) {
                *slot = per_weight(xu, s);
            }
        });
        let groups: Vec<Range<usize>> = par::balanced_ranges(&self.work, threads)
            .into_iter()
            .map(|g| g.start * self.shard_size..(g.end * self.shard_size).min(self.n))
            .collect();
        let table: &[f64; TABLE_CAP] = &self.table;
        par::for_each_range_mut(y, &groups, |nodes, out| {
            for si in nodes.start / self.shard_size..nodes.end.div_ceil(self.shard_size) {
                let meta = &self.dir[si];
                let start = si * self.shard_size;
                let shard_len = self.shard_size.min(self.n - start);
                let offsets = self.map.as_u64s(meta.offsets_off as usize, shard_len + 1);
                let sources = self.map.as_u32s(meta.sources_off as usize, meta.edges as usize);
                let codes = self.map.as_u16s(meta.codes_off as usize, meta.edges as usize);
                let rows = &mut out[start - nodes.start..][..shard_len];
                for (v_local, slot) in rows.iter_mut().enumerate() {
                    let (lo, hi) = (offsets[v_local] as usize, offsets[v_local + 1] as usize);
                    let mut acc = 0.0;
                    for (&u, &k) in sources[lo..hi].iter().zip(&codes[lo..hi]) {
                        acc += table[k as usize] * z[u as usize];
                    }
                    *slot = damping * acc + share(start + v_local);
                }
            }
        });
    }
}

impl ReverseSweep for MmapCsr {
    /// The shards from last to first, each shard's rows from last to
    /// first, every row reading and then writing the one `z`.
    fn reverse_pass(&self, y: &mut [f64], z: &mut [f64], damping: f64, jump: &JumpVector) -> Pass {
        assert!(y.len() == self.n && z.len() == self.n, "iterate length mismatch");
        let share = jump.shares(1.0, self.n);
        let out_sums = self.map.as_f64s(self.sums_off, self.n);
        let table: &[f64; TABLE_CAP] = &self.table;
        let mut sums = PassSums::default();
        for (si, meta) in self.dir.iter().enumerate().rev() {
            let start = si * self.shard_size;
            let shard_len = self.shard_size.min(self.n - start);
            let offsets = self.map.as_u64s(meta.offsets_off as usize, shard_len + 1);
            let sources = self.map.as_u32s(meta.sources_off as usize, meta.edges as usize);
            let codes = self.map.as_u16s(meta.codes_off as usize, meta.edges as usize);
            for v_local in (0..shard_len).rev() {
                let v = start + v_local;
                let (lo, hi) = (offsets[v_local] as usize, offsets[v_local + 1] as usize);
                let row = &sources[lo..hi];
                // Stored sources ascend: back edges lead.
                if row.first().is_some_and(|&u| u as usize <= v) {
                    sums.back_edges += row.partition_point(|&u| u as usize <= v) as u64;
                }
                let mut acc = 0.0;
                for (&u, &k) in row.iter().zip(&codes[lo..hi]) {
                    acc += table[k as usize] * z[u as usize];
                }
                sums.settle(v, damping * acc + share(v), out_sums[v], y, z);
            }
        }
        sums.finish()
    }
}

/// Build a shard file from an in-RAM [`CsrGraph`] — the conformance
/// bridge between the dense and out-of-core paths (the MAG-scale path
/// streams straight from the columnar store instead).
pub fn build_from_graph(
    g: &CsrGraph,
    path: &Path,
    shard_size: usize,
    tag: u64,
) -> io::Result<MmapCsr> {
    let mut b = MmapCsrBuilder::new(path, g.num_nodes() as usize, shard_size)?;
    add_sources(&mut b, g)?;
    b.finish(tag)?;
    MmapCsr::open(path, Some(tag))
}

/// `g`'s edges as `(source, target, weight)` in `(source, target)` order:
/// its in-edges, target-ascending as stored, stably sorted by source.
fn edges_by_source(g: &CsrGraph) -> Vec<(u32, u32, f64)> {
    let mut edges: Vec<(u32, u32, f64)> = g
        .nodes()
        .flat_map(|v| {
            let row = g.in_neighbors(v).iter().zip(g.in_edge_weights(v));
            row.map(move |(&u, &w)| (u.0, v.0, w))
        })
        .collect();
    edges.sort_by_key(|e| e.0);
    edges
}

/// Feed every node of `g` to `b` as a source, its out-row transposed from
/// the in-rows.
fn add_sources(b: &mut MmapCsrBuilder, g: &CsrGraph) -> io::Result<()> {
    let edges = edges_by_source(g);
    let (mut targets, mut weights) = (Vec::new(), Vec::new());
    let mut rest = &edges[..];
    for u in 0..g.num_nodes() {
        let (row, tail) = rest.split_at(rest.partition_point(|e| e.0 == u));
        targets.clear();
        targets.extend(row.iter().map(|e| e.1));
        weights.clear();
        weights.extend(row.iter().map(|e| e.2));
        b.add_source(&targets, &weights)?;
        rest = tail;
    }
    Ok(())
}

#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::stochastic::{PowerIterationOpts, RowStochastic};
    use crate::store::{reverse_sweep, stationary_store};
    use crate::{GraphBuilder, NodeId};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sgraph-scsr-{}-{}.scsr", std::process::id(), name));
        p
    }

    /// A small graph with dangling nodes, zero-weight edges, and skewed
    /// in-degrees, exercised at several shard sizes.
    fn test_graph() -> CsrGraph {
        let mut b = GraphBuilder::new(23).with_edge_capacity(64);
        let mut s = 17u64;
        for i in 0..60u64 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((s >> 33) % 23) as u32;
            let v = ((s >> 13) % 23) as u32;
            if u == v {
                continue;
            }
            let w = if i % 9 == 0 { 0.0 } else { 0.25 + (i % 7) as f64 };
            b.add_edge(NodeId(u), NodeId(v), w);
        }
        b.build()
    }

    /// Worker counts every sweep test runs at, passed explicitly rather
    /// than taken from the machine: from shard size 4 up, 8 is more
    /// workers than the file has shards.
    const THREADS: [usize; 4] = [1, 2, 3, 8];

    /// Shard sizes 1 (one node per shard), 4 and 7 (several shards), 23
    /// (exactly one shard) and 1000 (one shard holding fewer nodes than its
    /// size). The shard counts are asserted, and so is a multi-shard file
    /// with a shard that stores no edge, so the coverage cannot drift with
    /// the graph.
    #[test]
    fn bit_identical_to_dense_at_every_shard_size() {
        let g = test_graph();
        let op = RowStochastic::new(&g);
        let mut split_with_an_edgeless_shard = false;
        for (i, shard_size) in [1usize, 4, 7, 23, 1000].into_iter().enumerate() {
            let path = tmp(&format!("bits{i}"));
            let mc = build_from_graph(&g, &path, shard_size, 42).unwrap();
            assert_eq!(mc.num_nodes(), g.num_nodes() as usize);
            assert_eq!(mc.num_shards(), 23usize.div_ceil(shard_size));
            split_with_an_edgeless_shard |=
                mc.num_shards() > 1 && mc.dir.iter().any(|d| d.edges == 0);
            for opts in [
                PowerIterationOpts::default(),
                PowerIterationOpts {
                    jump: crate::JumpVector::weighted(
                        (0..23).map(|v| 1.0 + (v % 5) as f64).collect(),
                    ),
                    damping: 0.7,
                    ..PowerIterationOpts::default()
                },
            ] {
                let dense = op.stationary(&PowerIterationOpts { threads: 1, ..opts.clone() });
                for threads in THREADS {
                    let sharded =
                        stationary_store(&mc, &PowerIterationOpts { threads, ..opts.clone() });
                    let case = format!("shard_size {shard_size}, threads {threads}");
                    assert_eq!(
                        dense.scores, sharded.scores,
                        "{case}: scores must be bit-identical"
                    );
                    assert_eq!(dense.iterations, sharded.iterations, "{case}");
                    assert_eq!(dense.residuals, sharded.residuals, "{case}");
                }
            }
            assert_eq!(
                mc.dangling(),
                op.dangling(),
                "dangling sets must agree (shard_size {shard_size})"
            );
            std::fs::remove_file(&path).unwrap();
        }
        assert!(split_with_an_edgeless_shard, "no multi-shard file has a shard without edges");
    }

    /// The reverse sweep over the shards is the dense sweep, bit for bit —
    /// passes, residuals and scores — at every shard size and thread
    /// count: on `test_graph` (back edges in every direction, so it takes
    /// Gauss–Seidel passes) and on its chronological half (edges from
    /// larger ids only, one exact pass).
    #[test]
    fn reverse_sweep_matches_dense_at_every_shard_size() {
        let cyclic = test_graph();
        let mut b = GraphBuilder::new(23);
        for (u, t, w) in edges_by_source(&cyclic).into_iter().filter(|&(u, t, _)| t < u) {
            b.add_edge(NodeId(u), NodeId(t), w);
        }
        let chronological = b.build();
        for (name, g, passes) in
            [("cyclic", &cyclic, None), ("chronological", &chronological, Some(1))]
        {
            let op = RowStochastic::new(g);
            let opts = PowerIterationOpts {
                jump: crate::JumpVector::weighted((0..23).map(|v| 1.0 + (v % 5) as f64).collect()),
                threads: 1,
                ..PowerIterationOpts::default()
            };
            let dense = reverse_sweep(&op, &opts);
            assert!(dense.converged, "{name}");
            if let Some(passes) = passes {
                assert_eq!(dense.iterations, passes + 1, "{name}");
            } else {
                assert!(dense.iterations > 2, "{name}: back edges take more than one pass");
            }
            for (i, shard_size) in [1usize, 4, 7, 23, 1000].into_iter().enumerate() {
                let path = tmp(&format!("sweep-{name}{i}"));
                let mc = build_from_graph(g, &path, shard_size, 42).unwrap();
                for threads in THREADS {
                    let sharded =
                        reverse_sweep(&mc, &PowerIterationOpts { threads, ..opts.clone() });
                    let case = format!("{name}, shard_size {shard_size}, threads {threads}");
                    assert_eq!(
                        dense.scores, sharded.scores,
                        "{case}: scores must be bit-identical"
                    );
                    assert_eq!(dense.residuals, sharded.residuals, "{case}");
                    assert_eq!(dense.iterations, sharded.iterations, "{case}");
                }
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    /// One `reverse_pass` on the shard file is the dense pass from the same
    /// iterate: the same `y` and `z` bits and the same [`Pass`], its change
    /// bits and its back-edge count. The graph has back edges that carry
    /// mass, the self-loop 1 → 1 among them, and two kinds that do not,
    /// which the dense pass skips and the file never stores: the
    /// zero-weight 1 → 12, and 0 → 5 and 0 → 9 from node 0, which dangles
    /// because both its weights are zero.
    #[test]
    fn reverse_pass_is_the_dense_pass_at_every_shard_size() {
        let base = test_graph();
        let mut b = GraphBuilder::new(23).self_loops(true);
        for (u, t, w) in edges_by_source(&base).into_iter().filter(|&(u, _, _)| u > 1) {
            b.add_edge(NodeId(u), NodeId(t), w);
        }
        let extra =
            [(0, 5, 0.0), (0, 9, 0.0), (1, 0, 2.0), (1, 1, 0.5), (1, 12, 0.0), (1, 20, 1.5)];
        for (u, v, w) in extra {
            b.add_edge(NodeId(u), NodeId(v), w);
        }
        let g = b.build();
        let op = RowStochastic::new(&g);
        assert_eq!(op.dangling().first(), Some(&0), "node 0 dangles");
        let all_back: usize =
            g.nodes().map(|v| g.in_neighbors(v).iter().filter(|u| u.0 <= v.0).count()).sum();
        let jump = crate::JumpVector::weighted((0..23).map(|v| 1.0 + (v % 5) as f64).collect());
        // Three passes from y = z = 0, so the later two read their back
        // edges from the pass before.
        let passes = |store: &dyn ReverseSweep| {
            let (mut y, mut z) = (vec![0.0; 23], vec![0.0; 23]);
            (0..3)
                .map(|_| {
                    let pass = store.reverse_pass(&mut y, &mut z, 0.85, &jump);
                    (pass.change.to_bits(), pass.back_edges, y.clone(), z.clone())
                })
                .collect::<Vec<_>>()
        };
        let dense = passes(&op);
        let back = dense[0].1;
        assert!(back > 0 && back as usize + 3 <= all_back, "{back} of {all_back} back edges");
        for (i, shard_size) in [1usize, 4, 7, 23, 1000].into_iter().enumerate() {
            let path = tmp(&format!("pass{i}"));
            let mc = build_from_graph(&g, &path, shard_size, 42).unwrap();
            assert_eq!(passes(&mc), dense, "shard_size {shard_size}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn tag_mismatch_rejected() {
        let g = test_graph();
        let path = tmp("tag");
        build_from_graph(&g, &path, 8, 7).unwrap();
        let err = match MmapCsr::open(&path, Some(8)) {
            Err(e) => e,
            Ok(_) => panic!("stale tag must be rejected"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(MmapCsr::open(&path, Some(7)).is_ok());
        assert!(MmapCsr::open(&path, None).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_rejected() {
        let g = test_graph();
        let path = tmp("trunc");
        build_from_graph(&g, &path, 8, 7).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(MmapCsr::open(&path, None).is_err());
        std::fs::write(&path, &bytes[..40]).unwrap();
        assert!(MmapCsr::open(&path, None).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn misaligned_section_offsets_are_rejected_at_open() {
        let g = test_graph();
        let path = tmp("align");
        let mc = build_from_graph(&g, &path, 8, 7).unwrap();
        let shards = mc.num_shards();
        drop(mc);
        let good = std::fs::read(&path).unwrap();
        // Byte offsets of the low byte of every section-offset field:
        // the header's sums_off, dangling_off and table_off, then
        // offsets_off, sources_off and codes_off of each directory entry.
        let mut fields = vec![8 + 4 * 8, 8 + 5 * 8, 8 + 7 * 8];
        for s in 0..shards {
            let entry = HEADER_BYTES + s * DIR_FIELDS * 8;
            fields.extend([0, 1, 2].map(|f| entry + f * 8));
        }
        for at in fields {
            let mut bytes = good.clone();
            bytes[at] ^= 1;
            std::fs::write(&path, &bytes).unwrap();
            let err = match MmapCsr::open(&path, Some(7)) {
                Err(e) => e,
                // Before the alignment check this opened fine and the
                // first `apply_step` panicked in the typed-slice view.
                Ok(_) => panic!("flipped offset bit at byte {at} must not open"),
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {at}: {err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_finish_leaves_no_tmp_or_spill_files() {
        let dir = tmp("debris").with_extension("d");
        let _ = std::fs::remove_dir_all(&dir);
        // The publish target is an existing directory, so the final
        // rename fails after the tmp and spill files were all written.
        let path = dir.join("graph.scsr");
        std::fs::create_dir_all(&path).unwrap();
        let g = test_graph();
        assert!(build_from_graph(&g, &path, 8, 7).is_err());
        let left: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, ["graph.scsr"], "a failed build must clean up after itself");
        // A builder abandoned before `finish` cleans up too.
        let mut b = MmapCsrBuilder::new(&dir.join("other.scsr"), 2, 1).unwrap();
        b.add_source(&[1], &[1.0]).unwrap();
        drop(b);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_truncated_spill_is_invalid_data_and_publishes_nothing() {
        let g = test_graph();
        // Cut mid-record, then by exactly one record: neither may panic or
        // publish a shard that is short of edges.
        for cut in [SPILL_RECORD / 2, SPILL_RECORD] {
            let path = tmp(&format!("short-spill{cut}"));
            let mut b = MmapCsrBuilder::new(&path, g.num_nodes() as usize, 8).unwrap();
            add_sources(&mut b, &g).unwrap();
            for sp in &mut b.spills {
                sp.flush().unwrap();
            }
            let spill = File::options().write(true).open(&b.spill_paths[1]).unwrap();
            let len = spill.metadata().unwrap().len();
            assert!(len >= 2 * SPILL_RECORD as u64, "shard 1 must spill at least two edges");
            spill.set_len(len - cut as u64).unwrap();
            let err = b.finish(7).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut {cut}: {err}");
            assert!(!path.exists(), "cut {cut}: nothing may be published");
        }
    }

    /// The widest table a file holds: 65,536 distinct weights, every code
    /// of a `u16` in use, swept bit for bit as the dense walk.
    #[test]
    fn a_full_weight_table_builds_and_sweeps_as_the_dense_walk() {
        let mut b = GraphBuilder::new(257).with_edge_capacity(TABLE_CAP);
        for k in 0..TABLE_CAP as u32 {
            let (u, v) = (k / 256, k % 256);
            b.add_edge(NodeId(u), NodeId(v + u32::from(v >= u)), 1.0 + k as f64 / 1024.0);
        }
        let g = b.build();
        let distinct: std::collections::HashSet<u64> =
            g.nodes().flat_map(|v| g.in_edge_weights(v)).map(|w| w.to_bits()).collect();
        assert_eq!(distinct.len(), TABLE_CAP);
        let path = tmp("full-table");
        let mc = build_from_graph(&g, &path, 64, 3).unwrap();
        let opts = PowerIterationOpts { threads: 1, ..PowerIterationOpts::default() };
        let dense = RowStochastic::new(&g).stationary(&opts);
        for threads in [1, 3] {
            let swept = stationary_store(&mc, &PowerIterationOpts { threads, ..opts.clone() });
            assert_eq!(dense.scores, swept.scores, "threads {threads}");
            assert_eq!(dense.residuals, swept.residuals, "threads {threads}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// One distinct weight past the table's capacity is refused as input,
    /// the refused call changes nothing, and no shard, tmp or spill file
    /// survives the builder.
    #[test]
    fn a_65537th_distinct_weight_is_refused_and_leaves_nothing_behind() {
        let dir = tmp("wide").with_extension("d");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // 258 nodes, each citing the 257 others with a weight of its own.
        let n = 258u32;
        let mut b = MmapCsrBuilder::new(&dir.join("graph.scsr"), n as usize, 64).unwrap();
        let mut refused = None;
        for u in 0..n {
            let targets: Vec<u32> = (0..n).filter(|&v| v != u).collect();
            let weights: Vec<f64> =
                (0..n - 1).map(|i| 1.0 + f64::from(u * (n - 1) + i) / 1024.0).collect();
            if let Err(e) = b.add_source(&targets, &weights) {
                refused = Some((u, e));
                break;
            }
        }
        let (node, err) = refused.expect("66,306 distinct weights must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        // Nodes 0 to 254 bring 65,535 weights; node 255's first edge brings
        // the 65,536th and its second the 65,537th.
        assert_eq!(node, 255);
        assert_eq!(b.next, 255, "the refused node was not taken");
        assert_eq!(b.table.len(), 255 * 257, "the refused node's weights were rolled back");
        assert_eq!(b.code_of.len(), b.table.len());
        let cached = |&(bits, code): &(u64, u16)| bits == 0 || usize::from(code) < b.table.len();
        assert!(b.recent.iter().all(cached), "no cached code outlives the rollback");
        drop(b);
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert!(left.is_empty(), "a refused build leaves nothing behind: {left:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_graph_roundtrips() {
        let path = tmp("empty");
        let b = MmapCsrBuilder::new(&path, 0, 16).unwrap();
        b.finish(0).unwrap();
        let mc = MmapCsr::open(&path, Some(0)).unwrap();
        assert_eq!(mc.num_nodes(), 0);
        assert_eq!(mc.num_edges(), 0);
        let res = stationary_store(&mc, &PowerIterationOpts::default());
        assert!(res.converged);
        assert!(res.scores.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
