//! The two CSR builds as they were before the counting-scatter kernel
//! (`sgraph`'s `scatter` module): the shard writer that sorted each
//! shard's spilled records by target through an index permutation (now
//! writing SCSRv4, each weight coded by a linear search of the weight
//! table), and
//! `GraphBuilder::try_build`, which sorted the whole staged edge list by
//! `(src, dst)`. Both survive here, in test code only, as the oracles the
//! kernel is held to: [`SortingScsrBuilder`] must write the same file
//! bytes as `sgraph::MmapCsrBuilder`, and [`SortingGraphBuilder`] the same
//! graph as `sgraph::GraphBuilder`, bit for bit.

use sgraph::sfile::{no_step, TmpFile};
use sgraph::{CsrGraph, GraphError, NodeId};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// `sgraph::stochastic`'s dangling rule: a zero or subnormal out-sum.
fn dangles(out_sum: f64) -> bool {
    out_sum < f64::MIN_POSITIVE
}

// ---- The sort-based shard writer, as it was (sgraph::mmap_csr), in SCSRv4 ----

const MAGIC: &[u8; 8] = b"SCSRv4\0\0";
const HEADER_BYTES: usize = 88;
const DIR_FIELDS: usize = 4;

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

/// The sort-based shard writer, `sgraph::MmapCsrBuilder`'s API.
pub struct SortingScsrBuilder {
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
    /// The distinct stored weights, in the order `add_source` met them.
    table: Vec<f64>,
}

impl SortingScsrBuilder {
    /// Start building a shard file at `path` for an `n`-node graph with
    /// `shard_size` nodes per shard.
    pub fn new(path: &Path, n: usize, shard_size: usize) -> io::Result<SortingScsrBuilder> {
        assert!(shard_size > 0, "shard_size must be positive");
        assert!(n < u32::MAX as usize, "node count must fit in u32");
        let num_shards = n.div_ceil(shard_size).max(1);
        // Built first so a failed create below still cleans up the
        // spill files already made.
        let mut b = SortingScsrBuilder {
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
    /// as `sgraph::RowStochastic::new` sums it. A
    /// node whose sum is zero or subnormal is dangling, exactly as there;
    /// otherwise each edge with `w > 0` is stored with its raw weight's
    /// index in the table, which grows by each weight not in it yet.
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
                if self.code(w).is_none() {
                    self.table.push(w);
                }
                let shard = t as usize / self.shard_size;
                let sp = &mut self.spills[shard];
                sp.write_all(&t.to_le_bytes())?;
                sp.write_all(&u.to_le_bytes())?;
                sp.write_all(&w.to_le_bytes())?;
                self.m += 1;
            }
        }
        Ok(())
    }

    /// The index of the weight with `w`'s bits in the table, if any.
    fn code(&self, w: f64) -> Option<u16> {
        let at = self.table.iter().position(|t| t.to_bits() == w.to_bits())?;
        Some(u16::try_from(at).expect("at most 65,536 distinct weights"))
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
        for u in &self.dangling {
            out.write_all(&u.to_le_bytes())?;
        }
        let mut cursor = dangling_off + (self.dangling.len() * 4) as u64;
        let table_off = align8(cursor);
        out.write_all(&vec![0u8; (table_off - cursor) as usize])?;
        for w in &self.table {
            out.write_all(&w.to_le_bytes())?;
        }
        cursor = table_off + (self.table.len() * 8) as u64;

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
            let records = read_spill(&self.spill_paths[shard])?;
            let mut order: Vec<u32> = (0..records.len() as u32).collect();
            // Stable sort by target: spill order is ascending source
            // (add_source id order), so each row stays source-ascending.
            order.sort_by_key(|&i| records[i as usize].0);

            let mut offsets = vec![0u64; shard_len + 1];
            for r in &records {
                offsets[(r.0 as usize - start) + 1] += 1;
            }
            for i in 1..offsets.len() {
                offsets[i] += offsets[i - 1];
            }

            pad(&mut out, &mut cursor)?;
            let offsets_off = cursor;
            for &o in &offsets {
                out.write_all(&o.to_le_bytes())?;
            }
            cursor += (offsets.len() * 8) as u64;

            pad(&mut out, &mut cursor)?;
            let sources_off = cursor;
            for &i in &order {
                out.write_all(&records[i as usize].1.to_le_bytes())?;
            }
            cursor += (order.len() * 4) as u64;

            pad(&mut out, &mut cursor)?;
            let codes_off = cursor;
            for &i in &order {
                let code = self.code(records[i as usize].2).expect("every stored weight is coded");
                out.write_all(&code.to_le_bytes())?;
            }
            cursor += (order.len() * 2) as u64;

            dir.push(ShardMeta {
                offsets_off,
                sources_off,
                codes_off,
                edges: records.len() as u64,
            });
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

impl Drop for SortingScsrBuilder {
    fn drop(&mut self) {
        for sp in &self.spill_paths {
            let _ = std::fs::remove_file(sp);
        }
    }
}

fn read_spill(path: &Path) -> io::Result<Vec<(u32, u32, f64)>> {
    let file = File::open(path)?;
    let len = file.metadata()?.len() as usize;
    assert_eq!(len % 16, 0, "corrupt spill file");
    let mut reader = BufReader::new(file);
    let mut records = Vec::with_capacity(len / 16);
    let mut buf = [0u8; 16];
    for _ in 0..len / 16 {
        reader.read_exact(&mut buf)?;
        records.push((
            u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            f64::from_le_bytes(buf[8..16].try_into().unwrap()),
        ));
    }
    Ok(records)
}

/// Write `g`'s shard file at `path` the way `mmap_csr::build_from_graph`
/// feeds the builder.
pub fn build_scsr(g: &CsrGraph, path: &Path, shard_size: usize, tag: u64) -> io::Result<()> {
    let mut b = SortingScsrBuilder::new(path, g.num_nodes() as usize, shard_size)?;
    let edges = super::edges_by_source(g);
    let mut rest = &edges[..];
    for u in 0..g.num_nodes() {
        let (row, tail) = rest.split_at(rest.partition_point(|e| e.0 == u));
        let targets: Vec<u32> = row.iter().map(|e| e.1).collect();
        let weights: Vec<f64> = row.iter().map(|e| e.2).collect();
        b.add_source(&targets, &weights)?;
        rest = tail;
    }
    b.finish(tag)
}

/// The out-weight sums the SCSRv4 file at `path` stores, one per node, read
/// at the section offset its header names.
pub fn stored_out_sums(path: &Path) -> io::Result<Vec<f64>> {
    let bytes = std::fs::read(path)?;
    let field = |i: usize| {
        let at = MAGIC.len() + 8 * i;
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
    };
    let (n, sums_off) = (field(0), field(4));
    let sums = bytes[sums_off..sums_off + 8 * n].chunks_exact(8);
    Ok(sums.map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect())
}

// ---- The sort-based GraphBuilder::try_build, as it was (sgraph::builder) ----

/// The in-CSR `try_build` produced, as plain arrays.
#[derive(Debug)]
pub struct SortedCsr {
    pub num_nodes: u32,
    pub in_offsets: Vec<usize>,
    pub in_sources: Vec<u32>,
    pub in_weights: Vec<f64>,
}

/// `sgraph::GraphBuilder`'s staging state.
pub struct SortingGraphBuilder {
    pub num_nodes: u32,
    pub edges: Vec<(u32, u32, f64)>,
    pub allow_self_loops: bool,
}

type Result<T> = std::result::Result<T, GraphError>;

impl SortingGraphBuilder {
    /// Build, validating node bounds and weights.
    pub fn try_build(mut self) -> Result<SortedCsr> {
        let n = self.num_nodes as usize;
        self.check_and_sort()?;

        // Sum each pair's contributions, left to right.
        let mut deduped: Vec<(u32, u32, f64)> = Vec::with_capacity(self.edges.len());
        for (s, d, w) in self.edges.drain(..) {
            match deduped.last_mut() {
                Some(last) if last.0 == s && last.1 == d => last.2 += w,
                _ => deduped.push((s, d, w)),
            }
        }

        let m = deduped.len();
        // Derive in-CSR with a counting pass + placement pass.
        let mut in_offsets = vec![0usize; n + 1];
        for &(_, d, _) in &deduped {
            in_offsets[d as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = vec![0u32; m];
        let mut in_weights = vec![0f64; m];
        let mut cursor = in_offsets[..n].to_vec();
        // deduped is sorted by (src, dst), so within each target bucket the
        // sources arrive in ascending order — the in-adjacency comes out
        // sorted for free.
        for &(s, d, w) in &deduped {
            let slot = cursor[d as usize];
            in_sources[slot] = s;
            in_weights[slot] = w;
            cursor[d as usize] += 1;
        }

        Ok(SortedCsr { num_nodes: self.num_nodes, in_offsets, in_sources, in_weights })
    }

    /// Validate node bounds and weights, drop self-loops when they are
    /// disallowed, and sort the staged edges by `(src, dst)` — stably, so
    /// the contributions to one pair stay in staging order.
    fn check_and_sort(&mut self) -> Result<()> {
        for &(s, d, w) in &self.edges {
            if s >= self.num_nodes {
                return Err(GraphError::NodeOutOfBounds { node: s, num_nodes: self.num_nodes });
            }
            if d >= self.num_nodes {
                return Err(GraphError::NodeOutOfBounds { node: d, num_nodes: self.num_nodes });
            }
            if !w.is_finite() || w < 0.0 {
                return Err(GraphError::InvalidWeight { src: s, dst: d, weight: w });
            }
        }
        if !self.allow_self_loops {
            self.edges.retain(|&(s, d, _)| s != d);
        }
        self.edges.sort_by_key(|&(s, d, _)| (s, d));
        Ok(())
    }
}

/// `got` holds exactly `want`'s nodes, in-rows, ids and weight bits.
pub fn assert_same_graph(got: &CsrGraph, want: &SortedCsr) {
    assert_eq!(got.num_nodes(), want.num_nodes, "node count");
    assert_eq!(got.num_edges(), want.in_sources.len(), "edge count");
    let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let ids = |v: &[NodeId]| v.iter().map(|x| x.0).collect::<Vec<_>>();
    for u in got.nodes() {
        let (i, inn) = (u.index(), &want.in_offsets);
        assert_eq!(ids(got.in_neighbors(u)), want.in_sources[inn[i]..inn[i + 1]], "in of {i}");
        assert_eq!(
            bits(got.in_edge_weights(u)),
            bits(&want.in_weights[inn[i]..inn[i + 1]]),
            "in weights of {i}"
        );
    }
}
