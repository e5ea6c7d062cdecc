//! Minimal data-parallel helpers built on scoped threads.
//!
//! The PageRank-family kernels are embarrassingly parallel over disjoint
//! output ranges, so a full work-stealing runtime is unnecessary: we
//! partition the output index space into contiguous chunks, one per
//! worker, and join. Chunks are balanced by *edge count* when the caller
//! provides a prefix-sum of per-index work, which matters for power-law
//! graphs where a uniform node split can leave one thread with most of
//! the edges.

/// Below this much work (nodes, or nodes plus edges) a kernel stays
/// sequential: spawning and joining scoped threads costs more than the
/// step itself.
pub const PAR_THRESHOLD: usize = 4096;

/// Number of workers to use by default: the available parallelism, capped
/// at 16 (diminishing returns for memory-bound SpMV beyond that).
///
/// The `SCHOLAR_THREADS` environment variable overrides the probe when it
/// is set to a positive integer — `SCHOLAR_THREADS=1` forces every
/// default-configured kernel sequential, the CLI `--threads` flag does
/// the same per invocation.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("SCHOLAR_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16)
}

/// Split `0..len` into at most `threads` contiguous ranges of near-equal
/// length. Returns fewer ranges when `len < threads`. Empty when `len == 0`.
pub fn uniform_ranges(len: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 || threads == 0 {
        return Vec::new();
    }
    let threads = threads.min(len);
    let chunk = len / threads;
    let rem = len % threads;
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0;
    for i in 0..threads {
        let extra = usize::from(i < rem);
        let end = start + chunk + extra;
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Split `0..prefix.len()-1` into ranges that each carry roughly
/// `total_work / threads` units, where `prefix` is a monotone prefix-sum of
/// per-index work (e.g. CSR offsets: `prefix[i+1] - prefix[i]` edges at
/// index `i`).
pub fn balanced_ranges(prefix: &[usize], threads: usize) -> Vec<std::ops::Range<usize>> {
    let len = prefix.len().saturating_sub(1);
    if len == 0 || threads == 0 {
        return Vec::new();
    }
    let total = prefix[len] - prefix[0];
    if total == 0 {
        return uniform_ranges(len, threads);
    }
    let threads = threads.min(len);
    let mut ranges = Vec::with_capacity(threads);
    let mut start = 0usize;
    for i in 0..threads {
        if start >= len {
            break;
        }
        let target = prefix[0] + (total as u128 * (i as u128 + 1) / threads as u128) as usize;
        // First index whose prefix value reaches the target.
        let mut end = match prefix[start + 1..=len].binary_search(&target) {
            Ok(pos) => start + 1 + pos,
            Err(pos) => start + 1 + pos,
        };
        end = end.min(len).max(start + 1);
        if i == threads - 1 {
            end = len;
        }
        ranges.push(start..end);
        start = end;
    }
    if let Some(last) = ranges.last_mut() {
        last.end = len;
    }
    ranges
}

/// Run `f` on each output range in parallel, giving each invocation a
/// disjoint `&mut` view of `out`. `f(range, out_chunk)` receives the global
/// index range and the slice `&mut out[range]`.
///
/// Falls back to a sequential loop when only one range is produced, so
/// callers can use it unconditionally.
pub fn for_each_range_mut<T, F>(out: &mut [T], ranges: &[std::ops::Range<usize>], f: F)
where
    T: Send,
    F: Fn(std::ops::Range<usize>, &mut [T]) + Sync,
{
    debug_assert!(ranges_cover_disjoint(ranges, out.len()), "ranges must be disjoint ascending");
    if ranges.len() <= 1 {
        if let Some(r) = ranges.first() {
            f(r.clone(), &mut out[r.clone()]);
        }
        return;
    }
    // Split `out` into the disjoint chunks described by `ranges`.
    let mut chunks: Vec<(std::ops::Range<usize>, &mut [T])> = Vec::with_capacity(ranges.len());
    let mut rest = out;
    let mut offset = 0usize;
    for r in ranges {
        let (skip, tail) = rest.split_at_mut(r.start - offset);
        debug_assert!(skip.is_empty() || r.start > offset);
        let (chunk, tail) = tail.split_at_mut(r.end - r.start);
        chunks.push((r.clone(), chunk));
        rest = tail;
        offset = r.end;
    }
    std::thread::scope(|scope| {
        for (range, chunk) in chunks {
            let f = &f;
            scope.spawn(move || f(range, chunk));
        }
    });
}

fn ranges_cover_disjoint(ranges: &[std::ops::Range<usize>], len: usize) -> bool {
    let mut prev = 0usize;
    for r in ranges {
        if r.start < prev || r.end < r.start || r.end > len {
            return false;
        }
        prev = r.end;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_ranges_cover_everything() {
        for len in [0usize, 1, 5, 16, 17, 1000] {
            for threads in [1usize, 2, 3, 8, 64] {
                let rs = uniform_ranges(len, threads);
                let covered: usize = rs.iter().map(|r| r.len()).sum();
                assert_eq!(covered, len, "len={len} threads={threads}");
                let mut prev = 0;
                for r in &rs {
                    assert_eq!(r.start, prev);
                    prev = r.end;
                }
                if len > 0 {
                    let max = rs.iter().map(|r| r.len()).max().unwrap();
                    let min = rs.iter().map(|r| r.len()).min().unwrap();
                    assert!(max - min <= 1, "uniform ranges should differ by at most 1");
                }
            }
        }
    }

    #[test]
    fn zero_threads_yields_no_ranges() {
        assert!(uniform_ranges(10, 0).is_empty());
        assert!(balanced_ranges(&[0, 1, 2], 0).is_empty());
    }

    #[test]
    fn balanced_ranges_split_by_work() {
        // Index 0 carries 100 units, indices 1..=4 carry 1 each.
        let prefix = vec![0usize, 100, 101, 102, 103, 104];
        let rs = balanced_ranges(&prefix, 2);
        assert_eq!(rs.iter().map(|r| r.len()).sum::<usize>(), 5);
        // First range should be just the heavy index.
        assert_eq!(rs[0], 0..1);
        assert_eq!(rs.last().unwrap().end, 5);
    }

    #[test]
    fn balanced_ranges_handle_zero_work() {
        let prefix = vec![0usize; 6]; // five indices, no work
        let rs = balanced_ranges(&prefix, 3);
        let covered: usize = rs.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 5);
    }

    #[test]
    fn balanced_ranges_are_contiguous_and_complete() {
        let prefix: Vec<usize> = (0..=97).map(|i| i * i).collect();
        for threads in [1, 2, 3, 7, 16] {
            let rs = balanced_ranges(&prefix, threads);
            let mut prev = 0;
            for r in &rs {
                assert_eq!(r.start, prev);
                assert!(r.end > r.start);
                prev = r.end;
            }
            assert_eq!(prev, 97);
        }
    }

    #[test]
    fn for_each_range_mut_writes_disjoint_chunks() {
        let mut data = vec![0usize; 100];
        let ranges = uniform_ranges(100, 4);
        for_each_range_mut(&mut data, &ranges, |range, chunk| {
            for (i, slot) in range.clone().zip(chunk.iter_mut()) {
                *slot = i * 2;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i * 2);
        }
    }

    #[test]
    fn for_each_range_mut_sequential_fallback() {
        let mut data = vec![0u32; 5];
        #[allow(clippy::single_range_in_vec_init)] // one range, not vec![0..5]
        let single: [std::ops::Range<usize>; 1] = [0..5];
        for_each_range_mut(&mut data, &single, |_, chunk| {
            for v in chunk {
                *v = 7;
            }
        });
        assert_eq!(data, vec![7; 5]);
        // Empty ranges: no-op.
        let mut data2 = vec![1u32; 3];
        for_each_range_mut(&mut data2, &[], |_, _| unreachable!());
        assert_eq!(data2, vec![1; 3]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert!(default_threads() <= 16);
    }
}
