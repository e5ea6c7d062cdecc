//! The one CSR build kernel: count → prefix sum → stable scatter.
//!
//! Every compressed-row structure in the crate is assembled the same way:
//! count the items of each row, turn the counts into row offsets, then
//! drop each item into its row's next free slot in arrival order. The
//! placement is stable, so input already ordered by a secondary key stays
//! ordered inside every row, and no comparison sort over the whole edge
//! set is needed. [`GraphBuilder`](crate::GraphBuilder) and
//! [`BipartiteBuilder`](crate::BipartiteBuilder) run it over edges held in
//! RAM ([`scatter`], and `(row, col)` ordering on top of it);
//! [`MmapCsrBuilder`](crate::MmapCsrBuilder) runs [`RowCounts`] and
//! [`Cursors`] as two streaming passes over each shard's spill file, and
//! the serving index fills its posting lists with them.

/// Pass 1: the number of items in each row.
pub struct RowCounts(Vec<usize>);

impl RowCounts {
    /// `rows` empty rows.
    pub fn new(rows: usize) -> RowCounts {
        RowCounts(vec![0; rows + 1])
    }

    /// Count one more item in `row`.
    #[inline]
    pub fn add(&mut self, row: usize) {
        self.0[row + 1] += 1;
    }

    /// The row offsets: `rows + 1` prefix sums, row `r` owning the slots
    /// `offsets[r]..offsets[r + 1]`.
    pub fn offsets(self) -> Vec<usize> {
        let mut offsets = self.0;
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        offsets
    }
}

/// Pass 2: each row's next free slot.
pub struct Cursors(Vec<usize>);

impl Cursors {
    /// Cursors at the start of every row of `offsets`, reusing its memory.
    pub fn new(mut offsets: Vec<usize>) -> Cursors {
        offsets.pop();
        Cursors(offsets)
    }

    /// The slot of `row`'s next item. Items placed in arrival order keep
    /// that order within their row.
    #[inline]
    pub fn place(&mut self, row: usize) -> usize {
        let slot = self.0[row];
        self.0[row] += 1;
        slot
    }

    /// The row offsets again, once every item has been placed: each
    /// cursor then sits at its row's end, the next row's start.
    pub fn finish(self) -> Vec<usize> {
        let mut offsets = self.0;
        offsets.insert(0, 0);
        offsets
    }
}

/// Stably scatter `items` into `rows` rows by `row_of`, handing each item
/// and its slot to `put` in arrival order. Returns the row offsets.
pub fn scatter<T>(
    rows: usize,
    items: &[T],
    row_of: impl Fn(&T) -> usize,
    mut put: impl FnMut(usize, &T),
) -> Vec<usize> {
    let mut counts = RowCounts::new(rows);
    for item in items {
        counts.add(row_of(item));
    }
    let mut cursors = Cursors::new(counts.offsets());
    for item in items {
        put(cursors.place(row_of(item)), item);
    }
    cursors.finish()
}

/// `edges` — `(row, col, weight)` with every `row < rows` — in stable
/// `(row, col)` order: scattered by row, then each (short) row stably
/// sorted by column, so the entries of one pair keep their arrival order.
pub(crate) fn by_row_then_col(rows: usize, edges: &[(u32, u32, f64)]) -> Vec<(u32, u32, f64)> {
    let mut ordered = vec![(0, 0, 0.0); edges.len()];
    let offsets = scatter(rows, edges, |e| e.0 as usize, |slot, &e| ordered[slot] = e);
    for row in offsets.windows(2).filter(|row| row[1] - row[0] > 1) {
        ordered[row[0]..row[1]].sort_by_key(|e| e.1);
    }
    ordered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_is_stable_within_rows() {
        let items = [(2, 'a'), (0, 'b'), (2, 'c'), (1, 'd'), (0, 'e')];
        let mut placed = [' '; 5];
        let offsets = scatter(4, &items, |it| it.0, |slot, it| placed[slot] = it.1);
        assert_eq!(offsets, [0, 2, 3, 5, 5]);
        assert_eq!(placed, ['b', 'e', 'd', 'a', 'c']);
    }

    #[test]
    fn by_row_then_col_matches_a_stable_sort() {
        let mut s = 5u64;
        let edges: Vec<(u32, u32, f64)> = (0..200)
            .map(|i| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as u32 % 9, (s >> 17) as u32 % 4, i as f64)
            })
            .collect();
        let mut want = edges.clone();
        want.sort_by_key(|&(r, c, _)| (r, c));
        assert_eq!(by_row_then_col(9, &edges), want);
        assert!(by_row_then_col(0, &[]).is_empty());
    }
}
