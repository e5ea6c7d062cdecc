//! Seeded request targets for the serve workloads, and the simulated
//! response cache that says how much of a sequence the server's own
//! cache could have absorbed.
//!
//! Everything here is a pure function of `(corpus, seed)`: the same seed
//! gives the same target pool and the same request order, so two runs
//! differ only in timing.

use scholar::serve::TopQuery;
use scholar::Corpus;
use srand::rngs::SmallRng;
use srand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Entries in the server's per-shard rendered-response cache
/// (`CACHE_CAP` in `scholar-serve`'s epoll backend).
pub const SERVER_CACHE_ENTRIES: usize = 256;

/// A `/top` request: `k` and the optional filters.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct TopSpec {
    pub k: usize,
    pub venue: Option<String>,
    pub author: Option<String>,
    pub year_min: Option<i32>,
    pub year_max: Option<i32>,
}

/// One request the client can make.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Target {
    Top(TopSpec),
    Article(u32),
}

impl Target {
    fn top(k: usize) -> Target {
        Target::Top(TopSpec { k, ..TopSpec::default() })
    }

    /// The request target as it goes on the wire.
    pub fn path(&self) -> String {
        match self {
            Target::Article(id) => format!("/article/{id}"),
            Target::Top(TopSpec { k, venue, author, year_min, year_max }) => {
                let mut s = format!("/top?k={k}");
                if let Some(v) = venue {
                    s.push_str("&venue=");
                    s.push_str(&percent_encode(v));
                }
                if let Some(a) = author {
                    s.push_str("&author=");
                    s.push_str(&percent_encode(a));
                }
                if let Some(y) = year_min {
                    s.push_str(&format!("&year_min={y}"));
                }
                if let Some(y) = year_max {
                    s.push_str(&format!("&year_max={y}"));
                }
                s
            }
        }
    }

    /// The index query a `/top` target resolves to (names looked up the
    /// way the router does); `None` for `/article`.
    pub fn top_query(&self, index: &scholar::serve::ScoreIndex) -> Option<TopQuery> {
        match self {
            Target::Article(_) => None,
            Target::Top(TopSpec { k, venue, author, year_min, year_max }) => Some(TopQuery {
                k: *k,
                venue: venue.as_deref().and_then(|v| index.venue_id(v)),
                author: author.as_deref().and_then(|a| index.author_id(a)),
                year_min: *year_min,
                year_max: *year_max,
            }),
        }
    }

    pub fn is_top(&self) -> bool {
        matches!(self, Target::Top(_))
    }
}

/// Escape everything outside the URL-unreserved set. Generated names are
/// `Venue-0003` / `Author-000017`, so this is a guard, not a hot path.
fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// `serve-hot`: four distinct targets, far fewer than the cache holds.
pub fn hot_pool() -> Vec<Target> {
    vec![
        Target::top(10),
        Target::Top(TopSpec { k: 25, year_min: Some(2005), ..TopSpec::default() }),
        Target::top(3),
        Target::Top(TopSpec {
            k: 10,
            year_min: Some(1990),
            year_max: Some(2000),
            ..TopSpec::default()
        }),
    ]
}

/// `/top` targets wanted in the cold pool: 16× the server's cache.
pub const COLD_TOP_TARGETS: usize = 16 * SERVER_CACHE_ENTRIES;

/// `serve-cold`: `COLD_TOP_TARGETS` distinct `/top` targets over
/// k ∈ {5, 10, 20, 50} × {venue, author, year window, none} with names
/// and years that occur in the corpus, plus as many distinct
/// `/article/{id}` targets with ids uniform over the corpus. A corpus too
/// small to supply that many distinct targets (smoke) yields what it has.
pub fn cold_pool(corpus: &Corpus, seed: u64) -> Vec<Target> {
    const KS: [usize; 4] = [5, 10, 20, 50];
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x636f_6c64_706f_6f6c); // "coldpool"
    let n = corpus.num_articles();
    let (lo, hi) = corpus.year_range().unwrap_or((2000, 2000));
    let mut tops: BTreeSet<Target> = KS.iter().map(|&k| Target::top(k)).collect();
    // Bounded: a tiny corpus runs out of distinct filters long before
    // the pool is full.
    for _ in 0..COLD_TOP_TARGETS * 8 {
        if tops.len() >= COLD_TOP_TARGETS || n == 0 {
            break;
        }
        let k = KS[rng.gen_range(0..KS.len())];
        // Names come from a random article, so every filter matches at
        // least that article and prolific venues/authors recur the way
        // they would in real traffic.
        let art = &corpus.articles()[rng.gen_range(0..n)];
        let mut spec = TopSpec { k, ..TopSpec::default() };
        match rng.gen_range(0..3usize) {
            0 => spec.venue = Some(corpus.venue(art.venue).name.clone()),
            1 if !art.authors.is_empty() => {
                let who = art.authors[rng.gen_range(0..art.authors.len())];
                spec.author = Some(corpus.author(who).name.clone());
            }
            _ => {
                let (a, b) = (rng.gen_range(lo..hi + 1), rng.gen_range(lo..hi + 1));
                spec.year_min = Some(a.min(b));
                spec.year_max = Some(a.max(b));
            }
        }
        tops.insert(Target::Top(spec));
    }
    let mut ids: BTreeSet<u32> = BTreeSet::new();
    let want_ids = tops.len().min(n);
    while ids.len() < want_ids {
        ids.insert(rng.gen_range(0..n) as u32);
    }
    // Interleave so that any prefix of the pool holds both kinds.
    let mut pool = Vec::with_capacity(tops.len() + ids.len());
    let mut ids = ids.into_iter();
    for t in tops {
        pool.push(t);
        pool.extend(ids.next().map(Target::Article));
    }
    pool
}

/// The seeded order in which pool entries are requested: uniform draws.
pub struct RequestOrder {
    rng: SmallRng,
    pool: usize,
}

impl RequestOrder {
    pub fn new(seed: u64, pool: usize) -> RequestOrder {
        assert!(pool > 0, "a request order needs a non-empty pool");
        RequestOrder { rng: SmallRng::seed_from_u64(seed ^ 0x6f72_6465_7200), pool }
        // "order"
    }
}

impl Iterator for RequestOrder {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        Some(self.rng.gen_range(0..self.pool))
    }
}

/// A least-recently-used cache of `cap` keys with the server cache's
/// policy: a hit refreshes the key, a miss inserts it and, when full,
/// evicts the key used longest ago. Keys are pool indexes.
pub struct LruSim {
    cap: usize,
    tick: u64,
    last_used: HashMap<usize, u64>,
    by_age: BTreeMap<u64, usize>,
    pub hits: u64,
    pub misses: u64,
    /// Requests that never consult the cache.
    pub bypassed: u64,
}

impl LruSim {
    pub fn new(cap: usize) -> LruSim {
        LruSim {
            cap,
            tick: 0,
            last_used: HashMap::new(),
            by_age: BTreeMap::new(),
            hits: 0,
            misses: 0,
            bypassed: 0,
        }
    }

    /// Look `key` up as the server would; `true` on a hit.
    pub fn access(&mut self, key: usize) -> bool {
        self.tick += 1;
        let hit = match self.last_used.insert(key, self.tick) {
            Some(old) => {
                self.by_age.remove(&old);
                true
            }
            None => {
                if self.last_used.len() > self.cap {
                    if let Some((_, victim)) = self.by_age.pop_first() {
                        self.last_used.remove(&victim);
                    }
                }
                false
            }
        };
        self.by_age.insert(self.tick, key);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// A request the cache never sees (the server caches `/top` only).
    pub fn bypass(&mut self) {
        self.bypassed += 1;
    }

    /// Requests the cache did not answer — misses and bypasses — as a
    /// share of all requests.
    pub fn miss_share(&self) -> f64 {
        ratio(self.misses + self.bypassed, self.hits + self.misses + self.bypassed)
    }

    /// Misses as a share of the lookups the cache did see.
    pub fn top_miss_rate(&self) -> f64 {
        ratio(self.misses, self.hits + self.misses)
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scholar::Preset;

    #[test]
    fn lru_follows_a_hand_worked_trace() {
        // cap 2, accesses: a b a c b a
        //   a: miss {a}          b: miss {a,b}
        //   a: hit, a freshest   c: miss, evicts b (oldest) -> {a,c}
        //   b: miss, evicts a -> {c,b}
        //   a: miss, evicts c -> {b,a}
        let (a, b, c) = (0, 1, 2);
        let mut lru = LruSim::new(2);
        let got: Vec<bool> = [a, b, a, c, b, a].iter().map(|&k| lru.access(k)).collect();
        assert_eq!(got, vec![false, false, true, false, false, false]);
        assert_eq!((lru.hits, lru.misses), (1, 5));
        lru.bypass();
        assert_eq!((lru.misses, lru.bypassed), (5, 1));
        assert!((lru.miss_share() - 6.0 / 7.0).abs() < 1e-12);
        assert!((lru.top_miss_rate() - 5.0 / 6.0).abs() < 1e-12);
        // A working set that fits never misses again.
        let mut fits = LruSim::new(4);
        for round in 0..10 {
            for k in 0..4 {
                assert_eq!(fits.access(k), round > 0);
            }
        }
        assert_eq!(fits.misses, 4);
    }

    #[test]
    fn one_seed_gives_one_request_sequence() {
        let corpus = Preset::Tiny.generate(11);
        let pool_a = cold_pool(&corpus, 7);
        let pool_b = cold_pool(&corpus, 7);
        assert_eq!(pool_a, pool_b, "same seed, same pool");
        assert_ne!(pool_a, cold_pool(&corpus, 8), "another seed, another pool");
        let seq = |seed| -> Vec<String> {
            RequestOrder::new(seed, pool_a.len()).take(500).map(|i| pool_a[i].path()).collect()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
    }

    #[test]
    fn pools_are_distinct_well_formed_and_answerable() {
        let corpus = Preset::Tiny.generate(3);
        let pool = cold_pool(&corpus, 1);
        let distinct: BTreeSet<String> = pool.iter().map(Target::path).collect();
        assert_eq!(distinct.len(), pool.len());
        assert!(pool.iter().filter(|t| t.is_top()).count() > 100);
        assert!(pool.iter().any(|t| !t.is_top()));
        for t in pool.iter().chain(hot_pool().iter()) {
            let path = t.path();
            assert!(path.is_ascii() && !path.contains(' '), "{path}");
            if let Target::Top(TopSpec { year_min: Some(lo), year_max: Some(hi), .. }) = t {
                assert!(lo <= hi, "{path}");
            }
        }
        assert_eq!(hot_pool().len(), 4);
        assert_eq!(percent_encode("A b&c"), "A%20b%26c");
    }
}
