//! The query-ready [`ScoreIndex`]: an immutable, precomputed view of one
//! ranking over one corpus.
//!
//! The paper's scores are query-independent, which makes the serving
//! problem an indexing problem: sort once at publish time, answer every
//! request by slicing. The index holds the globally score-sorted article
//! order plus per-venue / per-author / per-year posting lists, each
//! pre-sorted by the *same* comparator as
//! [`scholar_rank::scores::top_k`] (score descending, dense id ascending
//! on ties), so a filtered answer is a prefix scan of the smallest
//! applicable posting list instead of an O(n log n) re-sort per request.
//!
//! A publish appends articles and re-scores all of them, so each
//! generation is [grown](ScoreIndex::grow) from the one before: what does
//! not depend on the scores — the attribute columns, the name maps, the
//! title/year/venue tail of every pre-rendered hit — is carried forward
//! and appended to, and the sort starts from the outgoing order. A grown
//! index equals the one [`ScoreIndex::build`] makes from scratch, array
//! for array; `build` is a grow from the empty index.

use scholar_corpus::model::{Article, Year};
use scholar_corpus::{ArticleId, Corpus};
use sgraph::scatter::{scatter, Cursors, RowCounts};
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Compare two articles the way the published ranking does: higher score
/// first, ties broken by smaller dense id (the [`top_k`] contract).
///
/// [`top_k`]: scholar_rank::scores::top_k
#[inline]
fn ranking_cmp(scores: &[f64], a: u32, b: u32) -> std::cmp::Ordering {
    // lint: allow(HOTPATH-PANIC) comparator ids are drawn from 0..scores.len() ranges built in grow()
    let (sa, sb) = (scores[a as usize], scores[b as usize]);
    sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
}

/// A top-k request against the index. `None` filters match everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopQuery {
    /// How many results to return (fewer if the filter matches fewer).
    pub k: usize,
    /// Restrict to one venue (dense id).
    pub venue: Option<u32>,
    /// Restrict to articles with this author on the byline (dense id).
    pub author: Option<u32>,
    /// Earliest publication year, inclusive.
    pub year_min: Option<Year>,
    /// Latest publication year, inclusive.
    pub year_max: Option<Year>,
}

/// One result row of a [`TopQuery`].
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Global rank (1 = best article of the whole corpus, not of the
    /// filtered subset).
    pub rank: usize,
    /// The article.
    pub id: ArticleId,
    /// Its score in the published ranking.
    pub score: f64,
}

/// Everything the index knows about one article: the `explain`-style
/// per-article lookup.
#[derive(Debug, Clone)]
pub struct ArticleDetail {
    /// The article.
    pub id: ArticleId,
    /// Global rank, 1-based.
    pub rank: usize,
    /// Score in the published ranking.
    pub score: f64,
    /// Fraction of articles ranked at or below this one (1.0 = best).
    pub percentile: f64,
    /// Ranking neighbors: up to `want` articles directly above and below
    /// in the global order, including this one, in rank order.
    pub neighbors: Vec<Hit>,
}

/// Lists of article or author ids, flat: list `r` is
/// `ids[offsets[r]..offsets[r + 1]]`. A facet's posting lists are sorted
/// by `ranking_cmp`.
#[derive(Debug, Default, PartialEq)]
struct Postings {
    offsets: Vec<usize>,
    ids: Vec<u32>,
}

impl Postings {
    /// List `r`; empty for a row the facet does not have.
    #[inline]
    fn list(&self, r: usize) -> &[u32] {
        match (self.offsets.get(r), self.offsets.get(r + 1)) {
            (Some(&lo), Some(&hi)) => self.ids.get(lo..hi).unwrap_or_default(),
            _ => &[],
        }
    }

    /// Each article of `order` on the list of the one row `row_of` names:
    /// one stable counting scatter, so every list keeps `order`'s order.
    fn scatter(rows: usize, order: &[u32], row_of: impl Fn(u32) -> usize) -> Postings {
        let mut ids = vec![0u32; order.len()];
        let offsets = scatter(
            rows,
            order,
            |&a| row_of(a),
            |slot, &a| {
                // lint: allow(HOTPATH-PANIC) the scatter hands out each slot of 0..order.len() once
                ids[slot] = a;
            },
        );
        Postings { offsets, ids }
    }

    /// Each article of `order` on the list of every author of its byline,
    /// by the same two counting passes.
    fn scatter_bylines(rows: usize, order: &[u32], columns: &Columns) -> Postings {
        let mut counts = RowCounts::new(rows);
        for &a in order {
            columns.bylines.list(a as usize).iter().for_each(|&u| counts.add(u as usize));
        }
        let mut cursors = Cursors::new(counts.offsets());
        let mut ids = vec![0u32; columns.bylines.ids.len()];
        for &a in order {
            for &u in columns.bylines.list(a as usize) {
                // lint: allow(HOTPATH-PANIC) the cursors hand out each slot of 0..(byline entries) once
                ids[cursors.place(u as usize)] = a;
            }
        }
        Postings { offsets: cursors.finish(), ids }
    }
}

/// What the filters read of each article, as compact columns indexed by
/// dense id. They do not depend on the scores, so each generation copies
/// its predecessor's and appends the newcomers.
#[derive(Debug, PartialEq)]
struct Columns {
    venue: Vec<u32>,
    year: Vec<Year>,
    /// Row `a` is article `a`'s byline, in byline order.
    bylines: Postings,
}

impl Columns {
    fn empty() -> Columns {
        let bylines = Postings { offsets: vec![0], ids: Vec::new() };
        Columns { venue: Vec::new(), year: Vec::new(), bylines }
    }

    /// These columns with `new` appended.
    fn grown(&self, new: &[Article]) -> Columns {
        fn appended<T: Copy>(old: &[T], extra: usize, more: impl Iterator<Item = T>) -> Vec<T> {
            let mut v = Vec::with_capacity(old.len() + extra);
            v.extend_from_slice(old);
            v.extend(more);
            v
        }
        let mut end = self.bylines.ids.len();
        let ends = new.iter().map(|art| {
            end += art.authors.len();
            end
        });
        let offsets = appended(&self.bylines.offsets, new.len(), ends);
        let added = new.iter().flat_map(|art| art.authors.iter().map(|u| u.0));
        let ids = appended(&self.bylines.ids, end - self.bylines.ids.len(), added);
        Columns {
            venue: appended(&self.venue, new.len(), new.iter().map(|art| art.venue.0)),
            year: appended(&self.year, new.len(), new.iter().map(|art| art.year)),
            bylines: Postings { offsets, ids },
        }
    }
}

/// `prev` with the names of `added` — `(name, id)` in ascending id —
/// inserted, so a name two entities share resolves to the later id; `prev`
/// itself, shared, when nothing is added.
fn grown_names<'a>(
    prev: &Arc<HashMap<String, u32>>,
    added: impl ExactSizeIterator<Item = (&'a str, u32)>,
) -> Arc<HashMap<String, u32>> {
    if added.len() == 0 {
        return Arc::clone(prev);
    }
    let mut names = HashMap::clone(prev);
    names.reserve(added.len());
    for (name, id) in added {
        names.insert(name.to_owned(), id);
    }
    Arc::new(names)
}

/// Append article `a`'s `{"rank":…,"id":…,"score":…` — the part of its hit
/// object a new ranking changes.
fn write_head(out: &mut Vec<u8>, a: u32, pos: u32, score: f64) {
    out.extend_from_slice(b"{\"rank\":");
    sjson::write_number(out, f64::from(pos) + 1.0);
    out.extend_from_slice(b",\"id\":");
    sjson::write_number(out, f64::from(a));
    out.extend_from_slice(b",\"score\":");
    sjson::write_number(out, score);
}

/// Append `,"title":…,"year":…,"venue":…}` — the part of a hit object that
/// is fixed once the article is in the corpus.
fn write_tail(out: &mut Vec<u8>, art: &Article, corpus: &Corpus) {
    out.extend_from_slice(b",\"title\":");
    sjson::write_str(out, &art.title);
    out.extend_from_slice(b",\"year\":");
    sjson::write_number(out, f64::from(art.year));
    out.extend_from_slice(b",\"venue\":");
    let venue = corpus.venues().get(art.venue.index()).map_or("", |v| v.name.as_str());
    sjson::write_str(out, venue);
    out.push(b'}');
}

/// An immutable, query-ready index over one `(corpus, scores)` pair.
///
/// Build cost is O(n log n) once; after that unfiltered top-k is O(k),
/// venue/author-filtered top-k is a prefix scan of that entity's posting
/// list, and year-ranged top-k is a k-way merge over the per-year lists
/// (O((k + years) · log years)). The index owns an `Arc` of the corpus so
/// responses can render titles and names without a side lookup.
///
/// Two indexes are equal when every array they hold is: a
/// [grown](Self::grow) index equals the [built](Self::build) one.
#[derive(Debug, PartialEq)]
pub struct ScoreIndex {
    corpus: Arc<Corpus>,
    scores: Vec<f64>,
    /// Article indices sorted by `ranking_cmp`: the published order.
    order: Vec<u32>,
    /// Inverse of `order`: `rank_of[article] = position in order`.
    rank_of: Vec<u32>,
    /// Venue, year and byline of every article.
    columns: Columns,
    /// Per-venue posting lists, row = venue id.
    by_venue: Postings,
    /// Per-author posting lists, row = author id.
    by_author: Postings,
    /// The distinct publication years, ascending: year `years[r]` owns
    /// row `r` of `by_year`. Years are usually a few decades, so a sorted
    /// vec beats a map.
    years: Vec<Year>,
    /// Per-year posting lists.
    by_year: Postings,
    /// Venue name -> dense id, for resolving query filters; shared with
    /// the generations before while no venue is added.
    venue_ids: Arc<HashMap<String, u32>>,
    /// Author name -> dense id, shared the same way.
    author_ids: Arc<HashMap<String, u32>>,
    /// Pre-rendered JSON hit objects, concatenated in article-id order.
    /// Every field of a hit (rank, id, score, title, year, venue) is
    /// fixed once the index is built, so the event loop's response path
    /// can memcpy [`Self::hit_fragment`] slices instead of re-serializing
    /// per request.
    frag_bytes: Vec<u8>,
    /// `frag_bounds[a]..frag_bounds[a + 1]` bounds article `a`'s
    /// fragment in `frag_bytes` (`n + 1` entries).
    frag_bounds: Vec<usize>,
    /// The length of article `a`'s fragment head (`write_head`); the
    /// tail after it is what the next generation copies.
    head_len: Vec<u8>,
    /// Monotonic publish generation, stamped by the swap layer.
    generation: u64,
}

impl ScoreIndex {
    /// Build the index from a corpus and its published score vector
    /// (one score per article, as produced by any
    /// [`scholar_rank::Ranker`] or the QRank engine): a
    /// [grow](Self::grow) from the empty index.
    pub fn build(corpus: Arc<Corpus>, scores: Vec<f64>) -> Self {
        Self::grow(&Self::empty(), corpus, scores)
    }

    /// The index over no article.
    fn empty() -> Self {
        ScoreIndex {
            corpus: Arc::new(Corpus::default()),
            scores: Vec::new(),
            order: Vec::new(),
            rank_of: Vec::new(),
            columns: Columns::empty(),
            by_venue: Postings::default(),
            by_author: Postings::default(),
            years: Vec::new(),
            by_year: Postings::default(),
            venue_ids: Arc::default(),
            author_ids: Arc::default(),
            frag_bytes: Vec::new(),
            frag_bounds: vec![0],
            head_len: Vec::new(),
            generation: 0,
        }
    }

    /// The index of `corpus` under `scores`, grown from `prev`: equal, array
    /// for array, to [`Self::build`] of the same pair whenever no score is
    /// NaN. `corpus` must extend `prev`'s — its articles, venues and authors
    /// a prefix of the new tables, as [`Corpus::grown`] keeps them — and
    /// `scores` may move every article. What depends only on the corpus is
    /// carried: the columns and the tails of the hit fragments are copied
    /// and appended to, the name maps shared while their tables have not
    /// grown. What depends on the scores is redone: the sort (seeded with
    /// `prev`'s order, which a publish barely perturbs), the posting lists
    /// (one counting scatter each over the new order) and every fragment's
    /// rank/id/score head.
    ///
    /// # Panics
    /// If `scores` does not hold one score per article, or `corpus` has
    /// fewer articles, venues or authors than `prev`'s.
    pub fn grow(prev: &ScoreIndex, corpus: Arc<Corpus>, scores: Vec<f64>) -> Self {
        let (old_n, n) = (prev.num_articles(), corpus.num_articles());
        assert_eq!(scores.len(), n, "one score per article");
        let (old_venues, old_authors) = (prev.corpus.num_venues(), prev.corpus.num_authors());
        assert!(
            n >= old_n && corpus.num_venues() >= old_venues && corpus.num_authors() >= old_authors,
            "an index grows onto a corpus that extends its own"
        );
        let articles = corpus.articles();
        let new = articles.get(old_n..).unwrap_or_default();

        let mut order = Vec::with_capacity(n);
        order.extend_from_slice(&prev.order);
        order.extend(old_n as u32..n as u32);
        order.sort_by(|&a, &b| ranking_cmp(&scores, a, b));
        let mut rank_of = vec![0u32; n];
        for (pos, &a) in (0u32..).zip(&order) {
            rank_of[a as usize] = pos; // lint: allow(HOTPATH-PANIC) order holds exactly 0..n
        }

        // Posting lists inherit the global order by construction: each is
        // a stable scatter of `order` by the facet's row, so every list is
        // already sorted by the ranking comparator — no per-list sort.
        let columns = prev.columns.grown(new);
        let by_venue = Postings::scatter(corpus.num_venues(), &order, |a| {
            // lint: allow(HOTPATH-PANIC) `order` holds ids < n, and the columns hold n entries
            columns.venue[a as usize] as usize
        });
        let by_author = Postings::scatter_bylines(corpus.num_authors(), &order, &columns);
        let mut years = prev.years.clone();
        years.extend(new.iter().map(|art| art.year));
        years.sort_unstable();
        years.dedup();
        let by_year = Postings::scatter(years.len(), &order, |a| {
            // lint: allow(HOTPATH-PANIC) `order` holds ids < n, and the columns hold n entries
            years.binary_search(&columns.year[a as usize]).unwrap_or_else(|at| at)
        });

        let venues = corpus.venues().get(old_venues..).unwrap_or_default();
        let venue_ids =
            grown_names(&prev.venue_ids, venues.iter().map(|v| (v.name.as_str(), v.id.0)));
        let authors = corpus.authors().get(old_authors..).unwrap_or_default();
        let author_ids =
            grown_names(&prev.author_ids, authors.iter().map(|u| (u.name.as_str(), u.id.0)));

        // Every hit object's head is rendered anew, straight into the arena
        // with sjson's byte writers — the ones `Value` rendering goes
        // through, so a fragment is byte-identical to the router's
        // `hit_json`; its tail is the previous generation's bytes, or
        // rendered the same way for a newcomer.
        let slack = prev.frag_bytes.len() / 32 + new.len() * 256;
        let mut frag_bytes = Vec::with_capacity(prev.frag_bytes.len() + slack);
        let mut frag_bounds = Vec::with_capacity(n + 1);
        let mut head_len = Vec::with_capacity(n);
        frag_bounds.push(0);
        for (((a, art), &pos), &score) in (0u32..).zip(articles).zip(&rank_of).zip(&scores) {
            let start = frag_bytes.len();
            write_head(&mut frag_bytes, a, pos, score);
            // Three numbers of at most 24 bytes each and 23 bytes of keys.
            head_len.push((frag_bytes.len() - start) as u8);
            match prev.fragment_tail(a) {
                Some(tail) => frag_bytes.extend_from_slice(tail),
                None => write_tail(&mut frag_bytes, art, &corpus),
            }
            frag_bounds.push(frag_bytes.len());
        }

        ScoreIndex {
            corpus,
            scores,
            order,
            rank_of,
            columns,
            by_venue,
            by_author,
            years,
            by_year,
            venue_ids,
            author_ids,
            frag_bytes,
            frag_bounds,
            head_len,
            generation: 0,
        }
    }

    /// The fixed tail of article `a`'s fragment (`write_tail`), `None` for
    /// an article this index does not hold.
    fn fragment_tail(&self, a: u32) -> Option<&[u8]> {
        let i = a as usize;
        let start = self.frag_bounds.get(i)? + usize::from(*self.head_len.get(i)?);
        self.frag_bytes.get(start..*self.frag_bounds.get(i + 1)?)
    }

    /// The corpus this index serves.
    pub fn corpus(&self) -> &Arc<Corpus> {
        &self.corpus
    }

    /// The published score of one article.
    ///
    /// # Panics
    /// If `id` is not in this index's corpus.
    pub fn score(&self, id: ArticleId) -> f64 {
        // lint: allow(HOTPATH-PANIC) documented panic contract; the serving endpoints never call this, only tests and benches
        self.scores[id.index()]
    }

    /// The full score vector backing this index.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Number of indexed articles.
    pub fn num_articles(&self) -> usize {
        self.order.len()
    }

    /// The publish generation (0 until the swap layer stamps it).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Stamp the publish generation (used by the swap layer).
    pub(crate) fn set_generation(&mut self, g: u64) {
        self.generation = g;
    }

    /// Resolve a venue name to its dense id.
    pub fn venue_id(&self, name: &str) -> Option<u32> {
        self.venue_ids.get(name).copied()
    }

    /// Resolve an author name to its dense id.
    pub fn author_id(&self, name: &str) -> Option<u32> {
        self.author_ids.get(name).copied()
    }

    fn hit(&self, a: u32) -> Hit {
        Hit {
            // lint: allow(HOTPATH-PANIC) rank_of has length n and posting-list ids are < n by construction
            rank: self.rank_of[a as usize] as usize + 1,
            id: ArticleId(a),
            // lint: allow(HOTPATH-PANIC) scores has length n, same bound as rank_of above
            score: self.scores[a as usize],
        }
    }

    #[inline]
    fn year_ok(&self, a: u32, q: &TopQuery) -> bool {
        let Some(&y) = self.columns.year.get(a as usize) else { return false };
        q.year_min.is_none_or(|lo| y >= lo) && q.year_max.is_none_or(|hi| y <= hi)
    }

    /// Answer a top-k query. Results come back in the published order
    /// (score descending, id ascending on ties) and match what
    /// [`scholar_rank::scores::top_k`] would return on the filtered
    /// subset, without re-sorting anything at query time.
    pub fn top(&self, q: &TopQuery) -> Vec<Hit> {
        let mut ids = Vec::new();
        self.top_ids_into(q, &mut ids);
        ids.into_iter().map(|a| self.hit(a)).collect()
    }

    /// Answer a top-k query into a caller-owned scratch vector of dense
    /// article ids, cleared first. Same answer and order as [`Self::top`],
    /// but once the scratch's capacity has warmed up, unfiltered and
    /// entity-filtered queries allocate nothing (year-range merges still
    /// build their heap). This plus [`Self::hit_fragment`] is the event
    /// loop's zero-alloc response path.
    pub fn top_ids_into(&self, q: &TopQuery, out: &mut Vec<u32>) {
        out.clear();
        if q.k == 0 {
            return;
        }
        match (q.venue, q.author) {
            // Entity filter(s): scan the smaller posting list, check the
            // remaining predicates on the fly. Lists are score-ordered,
            // so the first k survivors are the answer.
            (Some(v), Some(u)) => {
                let (vl, ul) = (self.by_venue.list(v as usize), self.by_author.list(u as usize));
                if vl.len() <= ul.len() {
                    self.scan_into(
                        vl,
                        q,
                        |a| self.columns.bylines.list(a as usize).contains(&u),
                        out,
                    )
                } else {
                    self.scan_into(ul, q, |a| self.columns.venue.get(a as usize) == Some(&v), out)
                }
            }
            (Some(v), None) => self.scan_into(self.by_venue.list(v as usize), q, |_| true, out),
            (None, Some(u)) => self.scan_into(self.by_author.list(u as usize), q, |_| true, out),
            // Year range only: k-way merge of the per-year lists in
            // range; each is score-ordered, so a heap of list heads
            // yields the global filtered order.
            (None, None) if q.year_min.is_some() || q.year_max.is_some() => {
                self.merge_years_into(q, out)
            }
            // Unfiltered: the first k of the published order.
            (None, None) => out.extend(self.order.iter().take(q.k)),
        }
    }

    /// The pre-rendered JSON hit object for article `a` (empty slice for
    /// an id outside the corpus — callers treat that as the same broken
    /// index condition as a failed per-request render).
    #[inline]
    pub fn hit_fragment(&self, a: u32) -> &[u8] {
        let i = a as usize;
        match (self.frag_bounds.get(i), self.frag_bounds.get(i + 1)) {
            (Some(&start), Some(&end)) => self.frag_bytes.get(start..end).unwrap_or_default(),
            _ => &[],
        }
    }

    fn scan_into(
        &self,
        list: &[u32],
        q: &TopQuery,
        extra: impl Fn(u32) -> bool,
        out: &mut Vec<u32>,
    ) {
        for &a in list {
            if self.year_ok(a, q) && extra(a) {
                out.push(a);
                if out.len() == q.k {
                    break;
                }
            }
        }
    }

    fn merge_years_into(&self, q: &TopQuery, out: &mut Vec<u32>) {
        // Heads of every in-range year list, keyed so the heap pops the
        // best-ranked article first: BinaryHeap is a max-heap, and
        // `Reverse(rank)` orders by published rank, which already encodes
        // (score desc, id asc).
        use std::cmp::Reverse;
        let lo = self.years.partition_point(|y| q.year_min.is_some_and(|m| *y < m));
        let hi = self.years.partition_point(|y| q.year_max.is_none_or(|m| *y <= m));
        // An inverted range (`year_min > year_max`) yields lo > hi, which
        // matches nothing.
        let mut heap: BinaryHeap<Reverse<(u32, usize, usize)>> = (lo..hi)
            .filter_map(|li| {
                let &head = self.by_year.list(li).first()?;
                Some(Reverse((*self.rank_of.get(head as usize)?, li, 0)))
            })
            .collect();
        while let Some(Reverse((_, li, pos))) = heap.pop() {
            let list = self.by_year.list(li);
            let Some(&a) = list.get(pos) else { continue };
            out.push(a);
            if out.len() == q.k {
                break;
            }
            if let Some(&next) = list.get(pos + 1) {
                // lint: allow(HOTPATH-PANIC) rank_of is length n and lists hold dense ids < n
                heap.push(Reverse((self.rank_of[next as usize], li, pos + 1)));
            }
        }
    }

    /// The `explain`-style lookup: rank, score, percentile, and the
    /// articles ranked directly around `id` (`want` on each side).
    pub fn detail(&self, id: ArticleId, want: usize) -> Option<ArticleDetail> {
        let p = self.placement(id.0, want)?;
        Some(ArticleDetail {
            id,
            rank: p.rank,
            score: p.score,
            percentile: p.percentile,
            neighbors: p.neighbors.iter().map(|&a| self.hit(a)).collect(),
        })
    }

    /// [`Self::detail`] without the allocation: the same rank, score and
    /// percentile, with the neighbours left as a slice of the published
    /// order. `None` for an id outside the corpus. This plus
    /// [`Self::hit_fragment`] is the `/article` response path.
    pub fn placement(&self, id: u32, want: usize) -> Option<Placement<'_>> {
        let n = self.order.len();
        let pos = *self.rank_of.get(id as usize)? as usize;
        let from = pos.saturating_sub(want);
        let to = pos.saturating_add(want).saturating_add(1).min(n);
        Some(Placement {
            rank: pos + 1,
            score: *self.scores.get(id as usize)?,
            percentile: (n - pos) as f64 / n as f64,
            neighbors: self.order.get(from..to)?,
        })
    }
}

/// Where one article sits in the published order: what
/// [`ScoreIndex::placement`] returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement<'a> {
    /// Global rank, 1-based.
    pub rank: usize,
    /// Score in the published ranking.
    pub score: f64,
    /// Fraction of articles ranked at or below this one (1.0 = best).
    pub percentile: f64,
    /// Dense ids of the articles ranked directly around this one,
    /// itself included, in rank order.
    pub neighbors: &'a [u32],
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar_corpus::generator::Preset;
    use scholar_rank::scores::top_k;
    use scholar_rank::Ranker;

    fn indexed(seed: u64) -> (Arc<Corpus>, ScoreIndex) {
        let corpus = Arc::new(Preset::Tiny.generate(seed));
        let scores = scholar_rank::PageRank::default().rank(&corpus);
        let index = ScoreIndex::build(Arc::clone(&corpus), scores);
        (corpus, index)
    }

    /// Ground truth: run `top_k` over the brute-force filtered subset.
    fn brute_force(corpus: &Corpus, scores: &[f64], q: &TopQuery) -> Vec<u32> {
        let keep: Vec<u32> = (0..corpus.num_articles() as u32)
            .filter(|&a| {
                let art = &corpus.articles()[a as usize];
                q.venue.is_none_or(|v| art.venue.0 == v)
                    && q.author.is_none_or(|u| art.authors.iter().any(|x| x.0 == u))
                    && q.year_min.is_none_or(|lo| art.year >= lo)
                    && q.year_max.is_none_or(|hi| art.year <= hi)
            })
            .collect();
        let sub: Vec<f64> = keep.iter().map(|&a| scores[a as usize]).collect();
        top_k(&sub, q.k).into_iter().map(|i| keep[i]).collect()
    }

    fn assert_matches_ground_truth(corpus: &Corpus, index: &ScoreIndex, q: &TopQuery) {
        let got: Vec<u32> = index.top(q).iter().map(|h| h.id.0).collect();
        let want = brute_force(corpus, index.scores(), q);
        assert_eq!(got, want, "query {q:?} diverged from top_k ground truth");
    }

    #[test]
    fn unfiltered_matches_top_k_exactly() {
        let (corpus, index) = indexed(11);
        for k in [0, 1, 5, 50, corpus.num_articles(), corpus.num_articles() + 10] {
            assert_matches_ground_truth(&corpus, &index, &TopQuery { k, ..Default::default() });
        }
    }

    #[test]
    fn filtered_queries_match_ground_truth() {
        let (corpus, index) = indexed(12);
        let (y0, y1) = corpus.year_range().unwrap();
        let mid = (y0 + y1) / 2;
        let queries = [
            TopQuery { k: 10, venue: Some(0), ..Default::default() },
            TopQuery { k: 10, author: Some(3), ..Default::default() },
            TopQuery { k: 10, venue: Some(1), author: Some(2), ..Default::default() },
            TopQuery { k: 10, year_min: Some(mid), ..Default::default() },
            TopQuery { k: 10, year_max: Some(mid), ..Default::default() },
            TopQuery { k: 10, year_min: Some(y0 + 1), year_max: Some(mid), ..Default::default() },
            TopQuery { k: 7, venue: Some(0), year_min: Some(mid), ..Default::default() },
            TopQuery { k: 7, author: Some(1), year_max: Some(mid), ..Default::default() },
            TopQuery { k: 3, year_min: Some(y1 + 5), ..Default::default() }, // empty range
            TopQuery { k: 4, venue: Some(u32::MAX - 3), ..Default::default() }, // unknown venue
        ];
        for q in &queries {
            assert_matches_ground_truth(&corpus, &index, q);
        }
    }

    #[test]
    fn inverted_year_range_is_empty_not_a_panic() {
        // Regression: year_min > year_max used to produce lo > hi slice
        // bounds in merge_years and panic — remotely triggerable.
        let (corpus, index) = indexed(15);
        let (y0, y1) = corpus.year_range().unwrap();
        for q in [
            TopQuery { k: 5, year_min: Some(y1), year_max: Some(y0), ..Default::default() },
            TopQuery { k: 5, year_min: Some(y0 + 1), year_max: Some(y0), ..Default::default() },
            TopQuery {
                k: 5,
                venue: Some(0),
                year_min: Some(y1),
                year_max: Some(y0),
                ..Default::default()
            },
        ] {
            assert_eq!(index.top(&q), Vec::new(), "inverted range {q:?} must match nothing");
        }
    }

    #[test]
    fn ties_resolve_like_top_k() {
        // A corpus with no citations ranks every article identically
        // under PageRank — the all-ties worst case. The index must still
        // agree with top_k, which breaks ties by smaller id.
        let mut b = scholar_corpus::CorpusBuilder::new();
        let v = b.venue("V");
        let u = b.author("A");
        for i in 0..20 {
            b.add_article(&format!("t{i}"), 2000 + (i % 3), v, vec![u], vec![], None);
        }
        let corpus = Arc::new(b.finish().unwrap());
        let scores = scholar_rank::PageRank::default().rank(&corpus);
        let index = ScoreIndex::build(Arc::clone(&corpus), scores);
        assert_matches_ground_truth(&corpus, &index, &TopQuery { k: 20, ..Default::default() });
        assert_matches_ground_truth(
            &corpus,
            &index,
            &TopQuery { k: 5, year_min: Some(2001), year_max: Some(2002), ..Default::default() },
        );
        assert_matches_ground_truth(
            &corpus,
            &index,
            &TopQuery { k: 9, venue: Some(0), ..Default::default() },
        );
    }

    #[test]
    fn exhaustive_small_corpus_sweep() {
        // Every (k, venue, year window) combination on a small corpus.
        let (corpus, index) = indexed(13);
        let (y0, y1) = corpus.year_range().unwrap();
        for k in [1, 3, 17] {
            for venue in [None, Some(0), Some(1)] {
                for lo in [None, Some(y0 + 2)] {
                    for hi in [None, Some(y1 - 2)] {
                        let q = TopQuery { k, venue, year_min: lo, year_max: hi, author: None };
                        assert_matches_ground_truth(&corpus, &index, &q);
                    }
                }
            }
        }
    }

    #[test]
    fn detail_reports_rank_percentile_neighbors() {
        let (corpus, index) = indexed(14);
        let n = corpus.num_articles();
        let best = index.top(&TopQuery { k: 1, ..Default::default() })[0].id;
        let d = index.detail(best, 2).unwrap();
        assert_eq!(d.rank, 1);
        assert!((d.percentile - 1.0).abs() < 1e-12);
        // Rank 1 has no one above: neighbors are itself + 2 below.
        assert_eq!(d.neighbors.len(), 3);
        assert_eq!(d.neighbors[0].id, best);
        assert!(d.neighbors.windows(2).all(|w| w[0].rank + 1 == w[1].rank));

        // A mid-ranked article gets 2 on each side.
        let mid = index.top(&TopQuery { k: n / 2, ..Default::default() }).pop().unwrap().id;
        let d = index.detail(mid, 2).unwrap();
        assert_eq!(d.neighbors.len(), 5);
        assert_eq!(d.neighbors[2].id, mid);
        // Out of range id.
        assert!(index.detail(ArticleId(n as u32 + 7), 2).is_none());
        assert!(index.placement(n as u32, 2).is_none());
        assert!(index.placement(u32::MAX, usize::MAX).is_none());

        // The allocation-free accessor is the same lookup.
        for a in 0..n as u32 {
            let (p, d) = (index.placement(a, 3).unwrap(), index.detail(ArticleId(a), 3).unwrap());
            assert_eq!(
                (p.rank, p.score.to_bits(), p.percentile),
                (d.rank, d.score.to_bits(), d.percentile)
            );
            assert!(p.neighbors.iter().eq(d.neighbors.iter().map(|h| &h.id.0)));
        }
        assert_eq!(index.placement(0, usize::MAX).unwrap().neighbors.len(), n);
    }

    #[test]
    fn top_ids_into_matches_top_and_reuses_scratch() {
        let (corpus, index) = indexed(16);
        let (y0, y1) = corpus.year_range().unwrap();
        let queries = [
            TopQuery { k: 10, ..Default::default() },
            TopQuery { k: 5, venue: Some(0), ..Default::default() },
            TopQuery { k: 5, author: Some(1), ..Default::default() },
            TopQuery { k: 8, year_min: Some(y0 + 1), year_max: Some(y1 - 1), ..Default::default() },
            TopQuery { k: 0, ..Default::default() },
        ];
        let mut scratch = Vec::new();
        for q in &queries {
            index.top_ids_into(q, &mut scratch);
            let via_top: Vec<u32> = index.top(q).iter().map(|h| h.id.0).collect();
            assert_eq!(scratch, via_top, "query {q:?}");
        }
        // The scratch is cleared per call, not appended to.
        index.top_ids_into(&TopQuery { k: 3, ..Default::default() }, &mut scratch);
        assert_eq!(scratch.len(), 3.min(corpus.num_articles()));
    }

    #[test]
    fn hit_fragments_match_per_request_rendering() {
        let (corpus, index) = indexed(17);
        for a in 0..corpus.num_articles() as u32 {
            let via_router = crate::server::hit_json(&index, &index.hit(a)).unwrap();
            assert_eq!(
                index.hit_fragment(a),
                via_router.to_string_compact().as_bytes(),
                "article {a}"
            );
        }
        // Out-of-corpus ids yield the empty fragment, never a panic.
        assert!(index.hit_fragment(corpus.num_articles() as u32 + 9).is_empty());
    }

    #[test]
    fn name_resolution() {
        let (corpus, index) = indexed(15);
        let v = &corpus.venues()[0];
        assert_eq!(index.venue_id(&v.name), Some(v.id.0));
        assert_eq!(index.venue_id("No Such Venue"), None);
        let u = &corpus.authors()[0];
        assert_eq!(index.author_id(&u.name), Some(u.id.0));
    }
}
