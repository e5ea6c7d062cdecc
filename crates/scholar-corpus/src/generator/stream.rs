//! Streaming MAG-scale corpus synthesis.
//!
//! The regular [`CorpusGenerator`](super::CorpusGenerator) builds a full
//! in-RAM [`Corpus`](crate::Corpus) and keeps per-article citation
//! tallies, which is exactly what an out-of-core pipeline must not do.
//! This module generates the `mag-scale` preset — tens of millions of
//! articles — straight into a [`ColWriter`](crate::colstore::ColWriter),
//! holding only O(bounded) sampling state:
//!
//! * **Chronology**: years 1970–2020 with exponential per-year growth,
//!   so article ids are nondecreasing in time and every reference points
//!   strictly backwards (the colstore's DAG discipline for free).
//! * **Preferential attachment** via a fixed-size *citation ticket ring*:
//!   every emitted citation pushes its target into a bounded ring
//!   buffer, and PA-flavored references sample uniformly from the ring —
//!   rich-get-richer without per-article in-degree arrays.
//! * **Recency** references sample an exponential-ish lookback window,
//!   and a uniform tail keeps the graph connected across decades.
//! * **Zipf venues** by inverse-CDF over precomputed cumulative weights.
//! * **Skewed authorship** with O(1) memory: author ids are drawn with
//!   a quadratic low-id bias (`⌊A·u²⌋`), a cheap stand-in for Lotka-style
//!   productivity that needs no ticket urn.
//!
//! Determinism: one [`SmallRng`] stream seeded by the caller drives
//! everything, so equal `(articles, seed)` inputs produce byte-identical
//! stores (and therefore identical generation stamps).

use std::path::Path;

use srand::{rngs::SmallRng, Rng, SeedableRng};

use crate::colstore::ColWriter;
use crate::Result;

/// Entity counts produced by a streaming generation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Articles written.
    pub articles: usize,
    /// Citation edges written.
    pub citations: u64,
    /// Distinct authors.
    pub authors: usize,
    /// Distinct venues.
    pub venues: usize,
    /// The store's content-derived generation stamp.
    pub generation: u64,
}

const START_YEAR: i32 = 1970;
const END_YEAR: i32 = 2020;
const GROWTH_RATE: f64 = 1.09;
const MEAN_REFERENCES: f64 = 8.0;
const MAX_REFERENCES: usize = 48;
const RECENCY_YEARS_SCALE: f64 = 0.35;
/// Bounded rich-get-richer memory: recently-cited article ids.
const TICKET_RING: usize = 1 << 20;

/// Stream a `mag-scale` synthetic corpus of `num_articles` articles
/// into a colstore at `dir`. Memory use is O(`TICKET_RING`) regardless
/// of corpus size.
pub fn generate_mag_scale(dir: &Path, num_articles: usize, seed: u64) -> Result<StreamStats> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6d61675f7363616c); // "mag_scal"
    let mut writer = ColWriter::create(dir)?;

    // Exponential growth schedule: cumulative article counts per year,
    // scaled to hit num_articles exactly; year(i) by binary search.
    let num_years = (END_YEAR - START_YEAR + 1) as usize;
    let mut weights = Vec::with_capacity(num_years);
    let mut w = 1.0f64;
    for _ in 0..num_years {
        weights.push(w);
        w *= GROWTH_RATE;
    }
    let total: f64 = weights.iter().sum();
    let mut cum = Vec::with_capacity(num_years);
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cum.push(((acc / total) * num_articles as f64).round() as usize);
    }
    *cum.last_mut().expect("at least one year") = num_articles;
    let year_of = |i: usize| -> i32 {
        let idx = cum.partition_point(|&c| c <= i);
        START_YEAR + idx as i32
    };

    // Zipf venue prestige, sampled by inverse CDF over the cumulative
    // weight table.
    let num_venues = (num_articles / 2_000).clamp(8, 20_000);
    let mut venue_cum = Vec::with_capacity(num_venues);
    let mut vacc = 0.0;
    for v in 0..num_venues {
        vacc += 1.0 / (v as f64 + 1.0).powf(1.1);
        venue_cum.push(vacc);
    }
    let venue_total = vacc;

    let num_authors = (num_articles / 2).max(1);

    let mut ring: Vec<u32> = Vec::with_capacity(TICKET_RING);
    let mut ring_next = 0usize;
    let mut authors_scratch: Vec<u32> = Vec::with_capacity(8);
    let mut refs_scratch: Vec<u32> = Vec::with_capacity(MAX_REFERENCES);
    let mut citations = 0u64;

    for i in 0..num_articles {
        let year = year_of(i);

        // Venue: inverse-CDF Zipf.
        let r = rng.gen::<f64>() * venue_total;
        let venue = venue_cum.partition_point(|&c| c < r).min(num_venues - 1) as u32;

        // Byline: 1–5 authors, quadratically biased toward low ids
        // (prolific authors), deduplicated preserving byline order.
        let team = 1 + (rng.gen::<f64>() * 4.0 * rng.gen::<f64>()) as usize;
        authors_scratch.clear();
        for _ in 0..team {
            let u = rng.gen::<f64>();
            let a = ((num_authors as f64) * u * u) as usize;
            let a = a.min(num_authors - 1) as u32;
            if !authors_scratch.contains(&a) {
                authors_scratch.push(a);
            }
        }

        // References: geometric-ish count around MEAN_REFERENCES, then a
        // PA / recency / uniform candidate mix, sorted + deduplicated.
        refs_scratch.clear();
        if i > 0 {
            let mut want = 0usize;
            while want < MAX_REFERENCES
                && rng.gen::<f64>() < MEAN_REFERENCES / (MEAN_REFERENCES + 1.0)
            {
                want += 1;
            }
            for _ in 0..want {
                let pick = rng.gen::<f64>();
                let cand = if pick < 0.5 && !ring.is_empty() {
                    // Preferential attachment from the citation ring.
                    ring[rng.gen_range(0..ring.len())]
                } else if pick < 0.85 {
                    // Recency: exponential-ish lookback from i.
                    let u = rng.gen::<f64>();
                    let span = ((i as f64) * RECENCY_YEARS_SCALE).max(1.0);
                    let back = (-u.max(1e-12).ln() * span * 0.2) as usize;
                    i.saturating_sub(1 + back.min(i - 1)) as u32
                } else {
                    rng.gen_range(0..i as u64) as u32
                };
                if (cand as usize) < i {
                    refs_scratch.push(cand);
                }
            }
            refs_scratch.sort_unstable();
            refs_scratch.dedup();
        }

        for &r in &refs_scratch {
            if ring.len() < TICKET_RING {
                ring.push(r);
            } else {
                ring[ring_next] = r;
                ring_next = (ring_next + 1) % TICKET_RING;
            }
        }
        citations += refs_scratch.len() as u64;

        // The streamed corpus has structure only: no title, no planted
        // merit, and (below) empty names.
        writer.push(year, venue, &authors_scratch, &refs_scratch, "", None)?;
    }

    let generation =
        writer.finish(std::iter::repeat_n("", num_authors), std::iter::repeat_n("", num_venues))?;
    Ok(StreamStats {
        articles: num_articles,
        citations,
        authors: num_authors,
        venues: num_venues,
        generation,
    })
}

#[cfg(all(test, not(miri)))]
mod tests {
    use super::*;
    use crate::colstore::ColStore;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("magscale-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn deterministic_and_well_formed() {
        let (d1, d2) = (tmpdir("det1"), tmpdir("det2"));
        let s1 = generate_mag_scale(&d1, 5_000, 42).unwrap();
        let s2 = generate_mag_scale(&d2, 5_000, 42).unwrap();
        assert_eq!(s1, s2, "same (articles, seed) must produce identical stores");

        let store = ColStore::open(&d1).unwrap();
        store.verify().unwrap();
        assert_eq!(store.num_articles(), 5_000);
        assert_eq!(store.num_citations(), s1.citations);
        assert!(s1.citations > 5_000, "mean reference count should exceed 1");
        let (lo, hi) = crate::rows::year_range(&store).unwrap();
        assert_eq!(lo, START_YEAR);
        assert_eq!(hi, END_YEAR);
        // Chronology: years nondecreasing in id order.
        let years = store.years();
        assert!(years.windows(2).all(|w| w[0] <= w[1]));
        // The materialized corpus passes full referential validation.
        let corpus = store.materialize().unwrap();
        crate::validate::validate(&corpus).unwrap();
        for d in [d1, d2] {
            std::fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (d1, d2) = (tmpdir("seed1"), tmpdir("seed2"));
        let s1 = generate_mag_scale(&d1, 2_000, 1).unwrap();
        let s2 = generate_mag_scale(&d2, 2_000, 2).unwrap();
        assert_ne!(s1.generation, s2.generation);
        for d in [d1, d2] {
            std::fs::remove_dir_all(&d).unwrap();
        }
    }
}
