//! Loaders for real-world corpus interchange formats.
//!
//! Three formats are supported, covering the datasets the original
//! evaluation drew on:
//!
//! * [`jsonl`] — one JSON object per line (the format this crate also
//!   writes); the generic interchange path.
//! * [`aan`] — the ACL Anthology Network release format: a block-structured
//!   metadata file plus a `citing ==> cited` edge file.
//! * [`mag`] — the Microsoft-Academic-Graph-style TSV triple: a papers
//!   table, an authorship table, and a reference table.
//!
//! All loaders intern external string ids to dense [`crate::ArticleId`]s
//! and share [`LoadOptions`] for how to treat data defects (references to
//! unknown articles, missing years). JSONL and AAN resolve ids in one
//! shared step, `Pending::finish`.

pub mod aan;
pub mod jsonl;
pub mod mag;

use crate::corpus::{Corpus, CorpusBuilder};
use crate::model::{ArticleId, Year};
use crate::{CorpusError, Result};
use std::collections::HashMap;

/// How loaders treat records that reference unknown articles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnknownReferencePolicy {
    /// Silently drop references to ids that never appear as articles
    /// (the default — real citation dumps always contain such edges,
    /// pointing at articles outside the crawl).
    #[default]
    Drop,
    /// Fail loading.
    Error,
}

/// How loaders treat records without a parseable publication year.
///
/// Every time-aware ranker in the stack reads `Article::year`, so a
/// sentinel value is never safe: an article silently mapped to year 0
/// looks ~2000 years old, time-decay kernels zero it out, and
/// age-normalized rankers treat it as ancient. The policy therefore
/// defaults to failing loudly; keeping or discarding yearless records is
/// an explicit caller decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissingYearPolicy {
    /// Fail loading with a parse error naming the yearless record
    /// (the default).
    #[default]
    Error,
    /// Drop yearless records (and, transitively, references to them are
    /// treated per [`UnknownReferencePolicy`]). Note this renumbers dense
    /// article ids relative to the source file.
    Drop,
    /// Keep yearless records, assigning them this year. Callers choose
    /// the sentinel consciously (e.g. the corpus median year) instead of
    /// inheriting an implicit year 0.
    Impute(Year),
}

impl MissingYearPolicy {
    /// The year the record `id`, read from file line `line`, is loaded
    /// with: `Some` to keep it (imputed if it has none), `None` to drop
    /// it, or the error naming it.
    pub(crate) fn apply(self, year: Option<Year>, line: usize, id: &str) -> Result<Option<Year>> {
        match (year, self) {
            (Some(y), _) | (None, MissingYearPolicy::Impute(y)) => Ok(Some(y)),
            (None, MissingYearPolicy::Drop) => Ok(None),
            (None, MissingYearPolicy::Error) => Err(CorpusError::Parse {
                line,
                message: format!(
                    "record '{id}' has no publication year (choose a LoadOptions::missing_year \
                     policy — Drop or Impute — to accept yearless records)"
                ),
            }),
        }
    }
}

/// Options shared by all loaders.
#[derive(Debug, Clone, Default)]
pub struct LoadOptions {
    /// Unknown-reference handling.
    pub unknown_references: UnknownReferencePolicy,
    /// Missing-year handling (defaults to [`MissingYearPolicy::Error`]).
    pub missing_year: MissingYearPolicy,
}

/// Strings packed end to end in one buffer: no allocation per string.
#[derive(Debug, Default)]
pub(crate) struct Strs {
    text: String,
    ends: Vec<usize>,
}

impl Strs {
    pub(crate) fn push(&mut self, s: &str) {
        self.text.push_str(s);
        self.ends.push(self.text.len());
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    pub(crate) fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    pub(crate) fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// One article record as a loader hands it over, borrowed from wherever
/// the loader read it.
pub(crate) struct Record<'a> {
    /// The 1-based file line errors about this record name.
    pub line: usize,
    pub id: &'a str,
    pub title: &'a str,
    pub year: Option<Year>,
    pub venue: Option<&'a str>,
}

/// Article records on their way into a [`Corpus`]. The missing-year
/// policy is applied and the venue and author names are interned
/// straight into the builder as each record arrives; external ids and
/// reference ids wait in two flat arenas until every id is known, and
/// [`Pending::finish`] resolves them in one pass. JSONL and AAN both end
/// here.
pub(crate) struct Pending {
    opts: LoadOptions,
    builder: CorpusBuilder,
    ids: Strs,
    refs: Strs,
    /// Per kept record: its file line, and where its references end in
    /// `refs`.
    lines: Vec<usize>,
    ref_ends: Vec<usize>,
    /// The first yearless record under [`MissingYearPolicy::Error`]. It
    /// is reported by `finish`, so a caller that finds a parse error
    /// further on reports that instead.
    yearless: Option<CorpusError>,
}

impl Pending {
    pub(crate) fn new(opts: &LoadOptions) -> Self {
        Pending {
            opts: opts.clone(),
            builder: CorpusBuilder::new(),
            ids: Strs::default(),
            refs: Strs::default(),
            lines: Vec::new(),
            ref_ends: Vec::new(),
            yearless: None,
        }
    }

    /// Add one record with its byline and the external ids it cites. A
    /// record without a year is kept, imputed, dropped or remembered as
    /// the error, per the missing-year policy.
    pub(crate) fn add<'s>(
        &mut self,
        rec: Record<'_>,
        authors: impl IntoIterator<Item = &'s str>,
        references: impl IntoIterator<Item = &'s str>,
    ) {
        let year = match self.opts.missing_year.apply(rec.year, rec.line, rec.id) {
            Ok(Some(year)) => year,
            Ok(None) => return,
            Err(e) => {
                self.yearless.get_or_insert(e);
                return;
            }
        };
        let venue = match rec.venue {
            Some(v) if !v.is_empty() => self.builder.venue(v),
            _ => self.builder.venue("(unknown venue)"),
        };
        let authors = authors.into_iter().map(|a| self.builder.author(a)).collect();
        self.builder.add_article(rec.title, year, venue, authors, Vec::new(), None);
        self.ids.push(rec.id);
        for r in references {
            self.refs.push(r);
        }
        self.lines.push(rec.line);
        self.ref_ends.push(self.refs.len());
    }

    /// Resolve every reference against the ids of the kept records and
    /// finish the corpus. Errors come in file order: the first yearless
    /// record, else the first record citing an unknown id (under
    /// [`UnknownReferencePolicy::Error`]) or repeating an earlier id.
    pub(crate) fn finish(mut self) -> Result<Corpus> {
        if let Some(e) = self.yearless {
            return Err(e);
        }
        let mut index: HashMap<&str, u32> = HashMap::with_capacity(self.ids.len());
        for (i, id) in self.ids.iter().enumerate() {
            index.entry(id).or_insert(i as u32);
        }
        let mut start = 0;
        for (i, (&end, &line)) in self.ref_ends.iter().zip(&self.lines).enumerate() {
            let id = self.ids.get(i);
            let mut references = Vec::with_capacity(end - start);
            for r in start..end {
                let r = self.refs.get(r);
                match index.get(r) {
                    Some(&j) => references.push(ArticleId(j)),
                    None if self.opts.unknown_references == UnknownReferencePolicy::Drop => {}
                    None => {
                        return Err(CorpusError::Parse {
                            line,
                            message: format!("record {id} cites unknown article '{r}'"),
                        })
                    }
                }
            }
            // The dense id of record i is i exactly when no earlier
            // record carries its id.
            if index[id] as usize != i {
                return Err(CorpusError::Parse {
                    line,
                    message: format!("duplicate article id '{id}'"),
                });
            }
            self.builder.set_references(ArticleId(i as u32), references);
            start = end;
        }
        self.builder.finish()
    }
}
