#![warn(missing_docs)]

//! # scholar-corpus — the scholarly data substrate
//!
//! This crate owns the *data* side of the `qrank` stack:
//!
//! * [`model`] — articles, authors, venues, and their dense ids.
//! * [`corpus`] — the [`Corpus`] container and its indexes.
//! * [`rows`] — the [`Rows`] structural view (year, venue, byline,
//!   references per article) that [`Corpus`] and [`ColStore`] implement,
//!   and every graph, bipartite and vector derived from it, written once.
//! * [`generator`] — a time-evolving synthetic corpus generator that
//!   substitutes for the AAN / DBLP / MAG downloads (see DESIGN.md §5):
//!   preferential attachment with a recency kernel, planted article merit,
//!   Zipf venue prestige, and Lotka-style author productivity.
//! * [`loader`] — parsers for the real-world interchange formats (JSON
//!   lines, AAN-style paired metadata+citation files, MAG-style TSV), so
//!   genuine datasets drop in without code changes.
//! * [`snapshot`] — "the world as of year Y" corpus restriction, used by
//!   the robustness and cold-start experiments.
//! * [`stats`] / [`validate`] — corpus-level statistics (R-Table 1) and
//!   referential-integrity checking.
//!
//! ## Conventions
//!
//! * Citation edges run **citing → cited** (a reference list is the
//!   out-neighborhood). PageRank-family walks therefore flow importance
//!   from citing to cited articles, and in-degree = citation count.
//! * Years are plain `i32` ([`Year`]); the stack never needs finer
//!   granularity than the publication year.
//! * All ids are dense `u32` newtypes that double as indices into the
//!   corpus tables and into score vectors.

/// Named fault-injection site (see `scholar-testkit`). With the
/// `failpoints` feature on, evaluates the site in the testkit registry:
/// the unit form can delay or panic; the two-argument form additionally
/// runs its second argument (typically `return Err(..)`) when the site's
/// schedule says *trigger*. Without the feature the macro expands to
/// nothing at all — no branch, no registry, no dependency.
#[cfg(feature = "failpoints")]
macro_rules! failpoint {
    ($site:literal) => {
        let _ = ::scholar_testkit::fp::hit($site);
    };
    ($site:literal, $on_trigger:expr) => {
        if ::scholar_testkit::fp::hit($site) {
            $on_trigger
        }
    };
}
#[cfg(not(feature = "failpoints"))]
macro_rules! failpoint {
    ($site:literal) => {};
    ($site:literal, $on_trigger:expr) => {};
}

pub mod analysis;
pub mod colstore;
pub mod corpus;
pub mod generator;
pub mod loader;
pub mod model;
pub mod perturb;
pub mod rows;
pub mod snapshot;
pub mod stats;
pub mod validate;

pub use colstore::{ColStore, ColWriter};
pub use corpus::{Corpus, CorpusBuilder};
pub use generator::{CorpusGenerator, GeneratorConfig, Preset};
pub use model::{Article, ArticleId, Author, AuthorId, Venue, VenueId, Year};
pub use rows::Rows;
pub use snapshot::{snapshot_until, Snapshot};
pub use stats::CorpusStats;

/// Errors produced while assembling or loading corpora.
#[derive(Debug)]
pub enum CorpusError {
    /// An article referenced an unknown article/author/venue id.
    DanglingReference {
        /// What kind of entity was referenced.
        kind: &'static str,
        /// The offending id value.
        id: u32,
        /// The article that made the reference.
        article: u32,
    },
    /// Parsing failure in a loader.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A columnar store file failed validation (bad magic, checksum,
    /// generation, or size).
    Corrupt {
        /// The offending column file name.
        file: String,
        /// Description of the problem.
        message: String,
    },
    /// A columnar store file is in an on-disk layout this build does not
    /// read: an older version of the format, named by its magic.
    Unsupported {
        /// The offending column file name.
        file: String,
        /// The version the file's magic names, e.g. `SCOLv1`.
        found: String,
        /// The version this build reads.
        want: &'static str,
    },
    /// Underlying IO failure.
    Io(std::io::Error),
    /// Underlying JSON failure.
    Json(sjson::Error),
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::DanglingReference { kind, id, article } => {
                write!(f, "article {article} references unknown {kind} id {id}")
            }
            CorpusError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            CorpusError::Corrupt { file, message } => {
                write!(f, "corrupt colstore file {file}: {message}")
            }
            CorpusError::Unsupported { file, found, want } => {
                write!(f, "colstore file {file} is {found}; this build reads only {want}")
            }
            CorpusError::Io(e) => write!(f, "io error: {e}"),
            CorpusError::Json(e) => write!(f, "json error: {e}"),
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Io(e) => Some(e),
            CorpusError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CorpusError {
    fn from(e: std::io::Error) -> Self {
        CorpusError::Io(e)
    }
}

impl From<sjson::Error> for CorpusError {
    fn from(e: sjson::Error) -> Self {
        CorpusError::Json(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CorpusError>;
