//! Mmap-backed, node-sharded pull CSR for out-of-core power iteration.
//!
//! [`MmapCsr`] stores what [`RowStochastic`](crate::RowStochastic) walks
//! — per-target in-edge lists with their raw weights, each node's
//! out-weight sum, and the global dangling set — but on disk, partitioned
//! into contiguous node shards that are served zero-copy through
//! [`crate::mmap::Mmap`]. Each worker of a sweep touches one shard's
//! arrays at a time, so peak resident memory is two iterate vectors, the
//! pre-scaled `z`, the out-sum column, and one shard plus one frontier
//! buffer per worker — not the whole graph.
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
//! [`MmapCsr::apply_step`] pre-scales the same way and accumulates `w·z`
//! in stored order. Node partitioning never reorders a per-slot sum —
//! each target's whole row lives in its own shard — so shard size and
//! worker count are pure layout knobs: residuals, iteration counts, and
//! stationaries are bit-identical to the dense solve at any `shard_size`
//! and any `threads`.
//!
//! ## File format (`SCSRv2`, little-endian, 8-byte-aligned sections)
//!
//! ```text
//! header   : magic "SCSRv2\0\0" · n · m · shard_size · num_shards
//!            · sums_off · dangling_off · dangling_len · tag (9 × u64)
//! directory: per shard { boundary_off, boundary_len, offsets_off,
//!            sources_off, weights_off, edges }            (6 × u64)
//! sums     : f64[n]              out-weight sum of every node
//! dangling : u32[dangling_len]   ascending global ids
//! per shard:
//!   boundary: u32[boundary_len]  sorted global ids of sources that
//!                                live OUTSIDE this shard's node range
//!   offsets : u64[shard_len + 1] row starts, relative to the shard
//!   sources : u32[edges]         local codes: code < shard_len is the
//!                                in-shard node (global = start + code),
//!                                else boundary[code − shard_len]
//!   weights : f64[edges]         raw edge weights (w > 0, from a
//!                                non-dangling source)
//! ```
//!
//! `SCSRv1` stored `w / out_sum` per edge; a file with that magic is
//! refused on open, so a v1 cache left by an older build is rebuilt.
//! The `tag` is caller-supplied (the colstore layer passes its content
//! generation) and is validated on open, so a stale shard file built
//! from an older corpus cannot be silently reused either.
//!
//! The boundary list is the *frontier exchange*: a step pre-scales the
//! whole iterate once into `z`, and before sweeping a shard its worker
//! gathers `z` at the shard's own nodes and then at each boundary id into
//! one dense buffer that the local source codes index directly, so row
//! gathers never read a random global offset per edge. Workers sweep
//! contiguous shard groups balanced by edges plus boundary ids, each
//! writing its own run of the output.

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::mmap::Mmap;
use crate::par;
use crate::scatter::{Cursors, RowCounts};
use crate::sfile::{no_step, TmpFile};
use crate::stochastic::{dangles, per_weight, JumpVector};
use crate::store::CsrStore;
use crate::CsrGraph;

const MAGIC: &[u8; 8] = b"SCSRv2\0\0";
const HEADER_BYTES: usize = 72;
const DIR_FIELDS: usize = 6;
/// One spilled edge: target `u32`, source `u32`, weight `f64`.
const SPILL_RECORD: usize = 16;
/// Bytes per spill read and per bulk section write.
const SPILL_CHUNK: usize = 1 << 20;

/// Round `off` up to the next multiple of 8.
fn align8(off: u64) -> u64 {
    (off + 7) & !7
}

#[derive(Clone, Copy)]
struct ShardMeta {
    boundary_off: u64,
    boundary_len: u64,
    offsets_off: u64,
    sources_off: u64,
    weights_off: u64,
    edges: u64,
}

/// Streaming writer for the [`MmapCsr`] shard file.
///
/// Call [`MmapCsrBuilder::add_source`] once per node in ascending id
/// order with that node's out-edges (targets and raw weights, in the
/// same order the dense CSR stores them), then
/// [`MmapCsrBuilder::finish`]. Edges are spilled to per-shard temp
/// files as they arrive (one 16-byte record each) and the out-weight sums
/// to one more, so neither the edge set nor a per-node column is held in
/// memory. `finish` assembles one shard at a time in two streaming passes
/// over its spill — count rows and collect the boundary, then scatter —
/// holding 12 bytes per edge and 8 per node of that shard, and publishes
/// the result through [`crate::sfile`]. A spill that is not whole records,
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
    /// `targets`/`weights` must be in the dense CSR's storage order
    /// (ascending target, no duplicates), so the out-weight sum is summed
    /// as [`RowStochastic::new`](crate::RowStochastic::new) sums it. A
    /// node whose sum is zero or subnormal is dangling, exactly as there;
    /// otherwise each edge with `w > 0` is stored with its raw weight.
    pub fn add_source(&mut self, targets: &[u32], weights: &[f64]) -> io::Result<()> {
        assert_eq!(targets.len(), weights.len(), "targets/weights length mismatch");
        assert!((self.next as usize) < self.n, "add_source called more than n times");
        let u = self.next;
        self.next += 1;
        let out_sum: f64 = weights.iter().sum();
        self.spills[self.num_shards].write_all(&out_sum.to_le_bytes())?;
        if dangles(out_sum) {
            self.dangling.push(u);
            return Ok(());
        }
        for (&t, &w) in targets.iter().zip(weights) {
            assert!((t as usize) < self.n, "target {t} out of bounds");
            if w > 0.0 {
                let mut record = [0u8; SPILL_RECORD];
                record[0..4].copy_from_slice(&t.to_le_bytes());
                record[4..8].copy_from_slice(&u.to_le_bytes());
                record[8..16].copy_from_slice(&w.to_le_bytes());
                self.spills[t as usize / self.shard_size].write_all(&record)?;
                self.m += 1;
            }
        }
        Ok(())
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

        for shard in 0..self.num_shards {
            let start = shard * self.shard_size;
            let shard_len = self.shard_size.min(self.n - start.min(self.n));
            let spill = &self.spill_paths[shard];
            let local = |id: u32| (id as usize).checked_sub(start).filter(|&l| l < shard_len);
            let row_of = |t: u32| local(t).ok_or_else(|| bad_spill("target outside its shard"));

            // Pass 1: count each row, and collect the out-of-shard sources.
            // Spill order is ascending source (add_source id order), so
            // they arrive sorted and only adjacent repeats need dropping.
            let mut rows = RowCounts::new(shard_len);
            let mut boundary: Vec<u32> = Vec::new();
            let mut last_source = 0;
            let edges = for_each_record(spill, |t, u, _| {
                rows.add(row_of(t)?);
                if u < last_source {
                    return Err(bad_spill("sources out of order"));
                }
                last_source = u;
                if local(u).is_none() && boundary.last() != Some(&u) {
                    boundary.push(u);
                }
                Ok(())
            })?;
            let offsets = rows.offsets();

            pad(&mut out, &mut cursor)?;
            let boundary_off = cursor;
            write_le(&mut out, &boundary, |b| b.to_le_bytes())?;
            cursor += (boundary.len() * 4) as u64;

            pad(&mut out, &mut cursor)?;
            let offsets_off = cursor;
            write_le(&mut out, &offsets, |&o| (o as u64).to_le_bytes())?;
            cursor += (offsets.len() * 8) as u64;

            // Pass 2: stable counting scatter. Each row fills in spill
            // order, so it stays source-ascending; a cursor that only moves
            // forward through the sorted boundary codes each outside source.
            let (mut sources, mut weights) = (vec![0u32; edges], vec![0f64; edges]);
            let mut slots = Cursors::new(offsets);
            let mut next_boundary = 0;
            let seen = for_each_record(spill, |t, u, w| {
                let code = match local(u) {
                    Some(l) => l,
                    None => {
                        while boundary.get(next_boundary).is_some_and(|&b| b < u) {
                            next_boundary += 1;
                        }
                        if boundary.get(next_boundary) != Some(&u) {
                            return Err(bad_spill("source missing from the boundary"));
                        }
                        shard_len + next_boundary
                    }
                };
                let slot = slots.place(row_of(t)?);
                if slot >= edges {
                    return Err(bad_spill("spill grew between passes"));
                }
                sources[slot] = code as u32;
                weights[slot] = w;
                Ok(())
            })?;
            if seen != edges {
                return Err(bad_spill("spill changed length between passes"));
            }

            pad(&mut out, &mut cursor)?;
            let sources_off = cursor;
            write_le(&mut out, &sources, |c| c.to_le_bytes())?;
            cursor += (edges * 4) as u64;

            pad(&mut out, &mut cursor)?;
            let weights_off = cursor;
            write_le(&mut out, &weights, |w| w.to_le_bytes())?;
            cursor += (edges * 8) as u64;

            dir.push(ShardMeta {
                boundary_off,
                boundary_len: boundary.len() as u64,
                offsets_off,
                sources_off,
                weights_off,
                edges: edges as u64,
            });
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
            tag,
        ] {
            head.extend_from_slice(&v.to_le_bytes());
        }
        file.write_all(&head)?;
        let mut dir_buf = Vec::with_capacity(dir.len() * DIR_FIELDS * 8);
        for d in &dir {
            for v in [
                d.boundary_off,
                d.boundary_len,
                d.offsets_off,
                d.sources_off,
                d.weights_off,
                d.edges,
            ] {
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

/// Stream `path`'s `(target, source, weight)` records through `f`, in file
/// order, a chunk at a time. Returns the record count; a length that is not
/// a whole number of records is [`io::ErrorKind::InvalidData`].
fn for_each_record(
    path: &Path,
    mut f: impl FnMut(u32, u32, f64) -> io::Result<()>,
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
                f64::from_le_bytes(r[8..16].try_into().expect("8-byte field")),
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
    dir: Vec<ShardMeta>,
    /// Prefix sums of each shard's sweep work, `edges + boundary_len`
    /// (`num_shards + 1` entries): what the shard groups are balanced by.
    work: Vec<usize>,
}

impl MmapCsr {
    /// Open `path`, validating magic, header invariants, section bounds
    /// and alignment, and — when `expected_tag` is given — the builder's
    /// generation stamp. O(shards): section *contents* are not read (the
    /// file is a cache derived from the checksummed SCOLv2 columns and
    /// rebuilt on any tag mismatch, see DESIGN.md §2.14).
    pub fn open(path: &Path, expected_tag: Option<u64>) -> io::Result<MmapCsr> {
        let map = Mmap::map_file(path)?;
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        if map.len() < HEADER_BYTES {
            return Err(bad("shard file shorter than header"));
        }
        if &map.bytes()[..8] != MAGIC {
            return Err(bad("bad shard file magic"));
        }
        let h = map.as_u64s(8, 8);
        let (n, m, shard_size, num_shards, sums_off, dangling_off, dangling_len, tag) =
            (h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]);
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
            let meta = ShardMeta {
                boundary_off: d[0],
                boundary_len: d[1],
                offsets_off: d[2],
                sources_off: d[3],
                weights_off: d[4],
                edges: d[5],
            };
            let shard_len = shard_size.min(n - (s * shard_size).min(n));
            let file_len = map.len() as u128;
            let fits = |off: u64, count: u128, size: u128| off as u128 + count * size <= file_len;
            if !fits(meta.weights_off, meta.edges as u128, 8)
                || !fits(meta.sources_off, meta.edges as u128, 4)
                || !fits(meta.offsets_off, shard_len as u128 + 1, 8)
                || !fits(meta.boundary_off, meta.boundary_len as u128, 4)
            {
                return Err(bad("shard section out of bounds"));
            }
            if !meta.weights_off.is_multiple_of(8)
                || !meta.offsets_off.is_multiple_of(8)
                || !meta.sources_off.is_multiple_of(4)
                || !meta.boundary_off.is_multiple_of(4)
            {
                return Err(bad("shard section misaligned"));
            }
            edges_total += meta.edges;
            // Both counts were bounded by the file length above.
            work.push(work[s] + (meta.edges + meta.boundary_len) as usize);
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
        let sums_off = sums_off as usize;
        let dangling_len = usize::try_from(dangling_len).map_err(|_| bad("dangling overflow"))?;
        let dangling_off = usize::try_from(dangling_off).map_err(|_| bad("dangling overflow"))?;
        Ok(MmapCsr { map, n, m, shard_size, sums_off, dangling_off, dangling_len, tag, dir, work })
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
    /// workers, with the frontier exchange gathered from one pre-scaled
    /// iterate.
    ///
    /// `z = x / out_sum` is filled once per step, split evenly across the
    /// workers. The shards are then cut into groups of near-equal work
    /// (edges plus boundary ids) and each group's worker writes its own
    /// run of `y`, copying a shard's own `z` slice and then its boundary
    /// ids' `z` into one buffer that the rows gather from. Every `y[v]` is
    /// the same sequential sum in stored order whichever worker runs it, so
    /// the iterate is the same bits at any thread count.
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
        par::for_each_range_mut(y, &groups, |nodes, out| {
            // `z` over the shard's own nodes, then over its boundary.
            let mut zs: Vec<f64> = Vec::new();
            for si in nodes.start / self.shard_size..nodes.end.div_ceil(self.shard_size) {
                let meta = &self.dir[si];
                let start = si * self.shard_size;
                let shard_len = self.shard_size.min(self.n - start);
                let boundary =
                    self.map.as_u32s(meta.boundary_off as usize, meta.boundary_len as usize);
                zs.clear();
                zs.extend_from_slice(&z[start..start + shard_len]);
                zs.extend(boundary.iter().map(|&u| z[u as usize]));
                let offsets = self.map.as_u64s(meta.offsets_off as usize, shard_len + 1);
                let sources = self.map.as_u32s(meta.sources_off as usize, meta.edges as usize);
                let weights = self.map.as_f64s(meta.weights_off as usize, meta.edges as usize);
                let rows = &mut out[start - nodes.start..][..shard_len];
                for (v_local, slot) in rows.iter_mut().enumerate() {
                    let (lo, hi) = (offsets[v_local] as usize, offsets[v_local + 1] as usize);
                    let mut acc = 0.0;
                    for (&c, &w) in sources[lo..hi].iter().zip(&weights[lo..hi]) {
                        acc += w * zs[c as usize];
                    }
                    *slot = damping * acc + share(start + v_local);
                }
            }
        });
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
    let mut targets: Vec<u32> = Vec::new();
    for u in g.nodes() {
        targets.clear();
        targets.extend(g.out_neighbors(u).iter().map(|t| t.0));
        b.add_source(&targets, g.out_edge_weights(u))?;
    }
    b.finish(tag)?;
    MmapCsr::open(path, Some(tag))
}

#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::stochastic::{PowerIterationOpts, RowStochastic};
    use crate::store::stationary_store;
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
    /// with an empty-boundary shard, so the coverage cannot drift with the
    /// graph.
    #[test]
    fn bit_identical_to_dense_at_every_shard_size() {
        let g = test_graph();
        let op = RowStochastic::new(&g);
        let mut split_with_an_empty_boundary = false;
        for (i, shard_size) in [1usize, 4, 7, 23, 1000].into_iter().enumerate() {
            let path = tmp(&format!("bits{i}"));
            let mc = build_from_graph(&g, &path, shard_size, 42).unwrap();
            assert_eq!(mc.num_nodes(), g.num_nodes() as usize);
            assert_eq!(mc.num_shards(), 23usize.div_ceil(shard_size));
            split_with_an_empty_boundary |=
                mc.num_shards() > 1 && mc.dir.iter().any(|d| d.boundary_len == 0);
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
        assert!(split_with_an_empty_boundary, "no multi-shard file has an empty-boundary shard");
    }

    #[test]
    fn warm_start_matches_dense() {
        let g = test_graph();
        let op = RowStochastic::new(&g);
        let path = tmp("warm");
        let mc = build_from_graph(&g, &path, 5, 1).unwrap();
        let opts = PowerIterationOpts {
            warm_start: Some((0..23).map(|v| 1.0 + v as f64).collect()),
            threads: 1,
            ..PowerIterationOpts::default()
        };
        let dense = op.stationary(&opts);
        for threads in THREADS {
            let sharded = stationary_store(&mc, &PowerIterationOpts { threads, ..opts.clone() });
            assert_eq!(dense.scores, sharded.scores, "threads {threads}");
            assert_eq!(dense.iterations, sharded.iterations, "threads {threads}");
            assert_eq!(dense.residuals, sharded.residuals, "threads {threads}");
        }
        std::fs::remove_file(&path).unwrap();
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
        // the header's sums_off and dangling_off, then boundary_off,
        // offsets_off, sources_off and weights_off of each directory entry.
        let mut fields = vec![8 + 4 * 8, 8 + 5 * 8];
        for s in 0..shards {
            let entry = HEADER_BYTES + s * DIR_FIELDS * 8;
            fields.extend([0, 2, 3, 4].map(|f| entry + f * 8));
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
        for cut in [5u64, 16] {
            let path = tmp(&format!("short-spill{cut}"));
            let mut b = MmapCsrBuilder::new(&path, g.num_nodes() as usize, 8).unwrap();
            for u in g.nodes() {
                let targets: Vec<u32> = g.out_neighbors(u).iter().map(|t| t.0).collect();
                b.add_source(&targets, g.out_edge_weights(u)).unwrap();
            }
            for sp in &mut b.spills {
                sp.flush().unwrap();
            }
            let spill = File::options().write(true).open(&b.spill_paths[1]).unwrap();
            let len = spill.metadata().unwrap().len();
            assert!(len >= 32, "shard 1 must spill at least two edges");
            spill.set_len(len - cut).unwrap();
            let err = b.finish(7).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut {cut}: {err}");
            assert!(!path.exists(), "cut {cut}: nothing may be published");
        }
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
