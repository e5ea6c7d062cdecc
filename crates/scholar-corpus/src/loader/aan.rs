//! ACL Anthology Network (AAN) release format.
//!
//! The AAN distribution ships two files:
//!
//! * `acl-metadata.txt` — blank-line-separated blocks of
//!   `key = {value}` pairs:
//!
//!   ```text
//!   id = {P90-1001}
//!   author = {Ada Lovelace; Bob Kahn}
//!   title = {On Things}
//!   venue = {ACL}
//!   year = {1990}
//!   ```
//!
//! * `acl.txt` — one citation per line, `citing ==> cited`.
//!
//! This loader accepts exactly that shape. Citations that mention ids
//! absent from the metadata are handled per
//! [`LoadOptions::unknown_references`].

use super::{LoadOptions, Pending, Record, UnknownReferencePolicy};
use crate::corpus::Corpus;
use crate::model::Year;
use crate::{CorpusError, Result};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// One metadata block: an article record before the citation file
/// attaches its references.
#[derive(Debug, Clone, Default)]
pub struct MetadataBlock {
    /// 1-based line of the block's first key.
    pub line: usize,
    /// External article id.
    pub id: String,
    /// Title.
    pub title: String,
    /// Publication year, if the block has one.
    pub year: Option<Year>,
    /// Venue name.
    pub venue: Option<String>,
    /// Author names in byline order.
    pub authors: Vec<String>,
    /// External ids of cited articles.
    pub references: Vec<String>,
}

/// Parse one `key = {value}` line; returns `None` for non-matching lines.
fn parse_kv(line: &str) -> Option<(&str, &str)> {
    let (key, rest) = line.split_once('=')?;
    let rest = rest.trim();
    let value = rest.strip_prefix('{')?.strip_suffix('}')?;
    Some((key.trim(), value.trim()))
}

/// Read the metadata blocks (no citations yet).
pub fn read_metadata<R: Read>(reader: R) -> Result<Vec<MetadataBlock>> {
    let reader = BufReader::new(reader);
    let mut records = Vec::new();
    let mut current: Option<MetadataBlock> = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            if let Some(rec) = current.take() {
                records.push(rec);
            }
            continue;
        }
        let Some((key, value)) = parse_kv(trimmed) else {
            return Err(CorpusError::Parse {
                line: lineno + 1,
                message: format!("expected 'key = {{value}}', got '{trimmed}'"),
            });
        };
        let rec =
            current.get_or_insert_with(|| MetadataBlock { line: lineno + 1, ..Default::default() });
        match key {
            "id" => rec.id = value.to_owned(),
            "title" => rec.title = value.to_owned(),
            "venue" => rec.venue = Some(value.to_owned()),
            "year" => {
                let y: i32 = value.parse().map_err(|e| CorpusError::Parse {
                    line: lineno + 1,
                    message: format!("bad year '{value}': {e}"),
                })?;
                rec.year = Some(y);
            }
            "author" => {
                rec.authors = value
                    .split(';')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
            }
            // AAN metadata contains additional keys (e.g. sessions); ignore.
            _ => {}
        }
    }
    if let Some(rec) = current.take() {
        records.push(rec);
    }
    for (i, rec) in records.iter().enumerate() {
        if rec.id.is_empty() {
            return Err(CorpusError::Parse {
                line: rec.line,
                message: format!("metadata block {i} has no id"),
            });
        }
    }
    Ok(records)
}

/// Read the `citing ==> cited` citation file into id pairs.
pub fn read_citations<R: Read>(reader: R) -> Result<Vec<(String, String)>> {
    let reader = BufReader::new(reader);
    let mut pairs = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let Some((citing, cited)) = trimmed.split_once("==>") else {
            return Err(CorpusError::Parse {
                line: lineno + 1,
                message: format!("expected 'citing ==> cited', got '{trimmed}'"),
            });
        };
        pairs.push((citing.trim().to_owned(), cited.trim().to_owned()));
    }
    Ok(pairs)
}

/// Load an AAN-style corpus from metadata + citation readers.
pub fn read_aan<R1: Read, R2: Read>(
    metadata: R1,
    citations: R2,
    opts: &LoadOptions,
) -> Result<Corpus> {
    // Chaos site: poisoned metadata stream. Must surface as a parse
    // error, never as an empty-but-Ok corpus.
    failpoint!(
        "corpus.aan.parse",
        return Err(CorpusError::Parse {
            line: 0,
            message: "injected parse fault at corpus.aan.parse".into(),
        })
    );
    // The missing-year policy is applied where ids are resolved, but
    // `Drop` must also run here so the citation index below never
    // resolves an edge into a record that is about to vanish.
    let mut records = read_metadata(metadata)?;
    if opts.missing_year == super::MissingYearPolicy::Drop {
        records.retain(|r| r.year.is_some());
    }
    let index: HashMap<String, usize> =
        records.iter().enumerate().map(|(i, r)| (r.id.clone(), i)).collect();
    if index.len() != records.len() {
        return Err(CorpusError::Parse { line: 0, message: "duplicate ids in metadata".into() });
    }
    for (citing, cited) in read_citations(citations)? {
        match (index.get(&citing), index.get(&cited)) {
            (Some(&i), Some(_)) => records[i].references.push(cited),
            _ => {
                if opts.unknown_references == UnknownReferencePolicy::Error {
                    return Err(CorpusError::Parse {
                        line: 0,
                        message: format!("citation {citing} ==> {cited} mentions unknown id"),
                    });
                }
            }
        }
    }
    let mut pending = Pending::new(opts);
    for r in &records {
        let rec = Record {
            line: r.line,
            id: &r.id,
            title: &r.title,
            year: r.year,
            venue: r.venue.as_deref(),
        };
        pending.add(
            rec,
            r.authors.iter().map(String::as_str),
            r.references.iter().map(String::as_str),
        );
    }
    pending.finish()
}

/// Load an AAN-style corpus from the two files on disk.
pub fn read_aan_files(metadata: &Path, citations: &Path, opts: &LoadOptions) -> Result<Corpus> {
    read_aan(std::fs::File::open(metadata)?, std::fs::File::open(citations)?, opts)
}

/// Render a corpus in the AAN metadata format (for fixtures and tests).
pub fn write_metadata(corpus: &Corpus) -> String {
    let mut out = String::new();
    for a in corpus.articles() {
        out.push_str(&format!("id = {{{}}}\n", a.id));
        let authors: Vec<&str> =
            a.authors.iter().map(|&u| corpus.author(u).name.as_str()).collect();
        out.push_str(&format!("author = {{{}}}\n", authors.join("; ")));
        out.push_str(&format!("title = {{{}}}\n", a.title));
        out.push_str(&format!("venue = {{{}}}\n", corpus.venue(a.venue).name));
        out.push_str(&format!("year = {{{}}}\n\n", a.year));
    }
    out
}

/// Render a corpus's citations in the AAN `==>` format.
pub fn write_citations(corpus: &Corpus) -> String {
    let mut out = String::new();
    for a in corpus.articles() {
        for &r in &a.references {
            out.push_str(&format!("{} ==> {}\n", a.id, r));
        }
    }
    out
}

/// Convenience used by tests: round-trip a corpus through the AAN format.
pub fn roundtrip(corpus: &Corpus) -> Result<Corpus> {
    read_aan(
        write_metadata(corpus).as_bytes(),
        write_citations(corpus).as_bytes(),
        &LoadOptions::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ArticleId;

    const META: &str = "\
id = {P90-1001}
author = {Ada Lovelace; Bob Kahn}
title = {On Things}
venue = {ACL}
year = {1990}

id = {P95-2002}
author = {Ada Lovelace}
title = {More Things}
venue = {EMNLP}
year = {1995}
";

    const CITES: &str = "\
# comment
P95-2002 ==> P90-1001
P95-2002 ==> X99-9999
";

    #[test]
    fn parses_metadata_blocks() {
        let recs = read_metadata(META.as_bytes()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "P90-1001");
        assert_eq!(recs[0].authors, vec!["Ada Lovelace", "Bob Kahn"]);
        assert_eq!(recs[1].year, Some(1995));
        assert_eq!(recs[1].venue.as_deref(), Some("EMNLP"));
    }

    #[test]
    fn parses_citations_and_builds_corpus() {
        let c = read_aan(META.as_bytes(), CITES.as_bytes(), &LoadOptions::default()).unwrap();
        assert_eq!(c.num_articles(), 2);
        assert_eq!(c.article(ArticleId(1)).references, vec![ArticleId(0)]);
        assert_eq!(c.num_authors(), 2); // Ada interned once
    }

    #[test]
    fn unknown_citation_error_policy() {
        let opts =
            LoadOptions { unknown_references: UnknownReferencePolicy::Error, ..Default::default() };
        assert!(read_aan(META.as_bytes(), CITES.as_bytes(), &opts).is_err());
    }

    #[test]
    fn malformed_metadata_line() {
        let bad = "id = {A}\nnot a kv line\n";
        match read_metadata(bad.as_bytes()) {
            Err(CorpusError::Parse { line: 2, .. }) => {}
            other => panic!("expected parse error on line 2, got {other:?}"),
        }
    }

    #[test]
    fn malformed_citation_line() {
        assert!(read_citations("A -> B\n".as_bytes()).is_err());
    }

    #[test]
    fn block_without_id_rejected() {
        let bad = "title = {No Id Here}\nyear = {2000}\n";
        assert!(read_metadata(bad.as_bytes()).is_err());
    }

    #[test]
    fn errors_about_a_block_name_its_first_line() {
        let meta = "id = {A}\nyear = {2000}\n\n\ntitle = {No Id Here}\n";
        match read_metadata(meta.as_bytes()) {
            Err(CorpusError::Parse { line: 5, message }) => {
                assert_eq!(message, "metadata block 1 has no id")
            }
            other => panic!("expected a parse error on line 5, got {other:?}"),
        }
        let meta = "id = {A}\nyear = {2000}\n\nid = {B}\ntitle = {Yearless}\n";
        match read_aan(meta.as_bytes(), "".as_bytes(), &LoadOptions::default()) {
            Err(CorpusError::Parse { line: 4, message }) => {
                assert!(message.starts_with("record 'B' has no publication year"), "{message}")
            }
            other => panic!("expected a parse error on line 4, got {other:?}"),
        }
    }

    #[test]
    fn bad_year_rejected() {
        let bad = "id = {A}\nyear = {MCMXC}\n";
        assert!(read_metadata(bad.as_bytes()).is_err());
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let text = "id = {A}\nsession = {poster}\nyear = {2001}\n";
        let recs = read_metadata(text.as_bytes()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].year, Some(2001));
    }

    #[test]
    fn missing_trailing_blank_line_ok() {
        let recs = read_metadata("id = {A}\nyear = {2000}".as_bytes()).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn generated_corpus_roundtrips_through_aan_format() {
        let c = crate::generator::Preset::Tiny.generate(11);
        let c2 = roundtrip(&c).unwrap();
        assert_eq!(c.num_articles(), c2.num_articles());
        assert_eq!(c.num_citations(), c2.num_citations());
        assert_eq!(c.num_venues(), c2.num_venues());
        for (a, b) in c.articles().iter().zip(c2.articles()) {
            assert_eq!(a.year, b.year);
            assert_eq!(a.references, b.references);
        }
    }
}
