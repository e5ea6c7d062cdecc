//! Microsoft-Academic-Graph-style TSV loader.
//!
//! MAG dumps arrive as a family of tab-separated tables. This loader
//! consumes the three needed here:
//!
//! * **papers**: `paper_id \t year \t venue_name \t title`
//! * **authorships**: `paper_id \t author_name \t byline_position` (the
//!   position column orders the byline; ties broken by file order)
//! * **references**: `citing_paper_id \t cited_paper_id`
//!
//! Column separators are hard tabs, as in the real dumps. Unknown paper
//! ids in the authorship/reference tables follow
//! [`LoadOptions::unknown_references`].

use super::{LoadOptions, UnknownReferencePolicy};
use crate::corpus::{Corpus, CorpusBuilder};
use crate::model::Year;
use crate::{CorpusError, Result};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

struct PaperRow {
    /// 1-based line in the papers table.
    line: usize,
    id: String,
    year: Option<Year>,
    venue: String,
    title: String,
}

fn read_papers<R: Read>(reader: R) -> Result<Vec<PaperRow>> {
    let reader = BufReader::new(reader);
    let mut rows = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut cols = line.split('\t');
        let id = cols
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| CorpusError::Parse {
                line: lineno + 1,
                message: "missing paper id".into(),
            })?
            .to_owned();
        let year_tok = cols.next().unwrap_or("");
        let year = if year_tok.is_empty() {
            None
        } else {
            Some(year_tok.parse().map_err(|e| CorpusError::Parse {
                line: lineno + 1,
                message: format!("bad year '{year_tok}': {e}"),
            })?)
        };
        let venue = cols.next().unwrap_or("").to_owned();
        let title = cols.next().unwrap_or("").to_owned();
        rows.push(PaperRow { line: lineno + 1, id, year, venue, title });
    }
    Ok(rows)
}

/// Load a MAG-style corpus from the three table readers.
pub fn read_mag<R1: Read, R2: Read, R3: Read>(
    papers: R1,
    authorships: R2,
    references: R3,
    opts: &LoadOptions,
) -> Result<Corpus> {
    // Chaos site: poisoned papers table. Must surface as a parse error,
    // never as an empty-but-Ok corpus.
    failpoint!(
        "corpus.mag.parse",
        return Err(CorpusError::Parse {
            line: 0,
            message: "injected parse fault at corpus.mag.parse".into(),
        })
    );
    let mut rows = Vec::new();
    for row in read_papers(papers)? {
        if let Some(year) = opts.missing_year.apply(row.year, row.line, &row.id)? {
            rows.push(PaperRow { year: Some(year), ..row });
        }
    }
    let index: HashMap<String, usize> =
        rows.iter().enumerate().map(|(i, r)| (r.id.clone(), i)).collect();
    if index.len() != rows.len() {
        return Err(CorpusError::Parse { line: 0, message: "duplicate paper ids".into() });
    }

    // Authorships: collect (position, file order, name) per paper.
    let mut bylines: Vec<Vec<(i64, usize, String)>> = vec![Vec::new(); rows.len()];
    let reader = BufReader::new(authorships);
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut cols = line.split('\t');
        let pid = cols.next().unwrap_or("");
        let name = cols.next().unwrap_or("");
        let pos_tok = cols.next().unwrap_or("");
        if name.is_empty() {
            return Err(CorpusError::Parse {
                line: lineno + 1,
                message: "authorship row missing author name".into(),
            });
        }
        let pos: i64 = if pos_tok.is_empty() {
            i64::MAX
        } else {
            pos_tok.parse().map_err(|e| CorpusError::Parse {
                line: lineno + 1,
                message: format!("bad byline position '{pos_tok}': {e}"),
            })?
        };
        match index.get(pid) {
            Some(&i) => bylines[i].push((pos, lineno, name.to_owned())),
            None => {
                if opts.unknown_references == UnknownReferencePolicy::Error {
                    return Err(CorpusError::Parse {
                        line: lineno + 1,
                        message: format!("authorship references unknown paper '{pid}'"),
                    });
                }
            }
        }
    }
    for b in &mut bylines {
        b.sort_by_key(|a| (a.0, a.1));
    }

    // References.
    let mut refs: Vec<Vec<usize>> = vec![Vec::new(); rows.len()];
    let reader = BufReader::new(references);
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut cols = line.split('\t');
        let citing = cols.next().unwrap_or("");
        let cited = cols.next().unwrap_or("");
        match (index.get(citing), index.get(cited)) {
            (Some(&i), Some(&j)) => refs[i].push(j),
            _ => {
                if opts.unknown_references == UnknownReferencePolicy::Error {
                    return Err(CorpusError::Parse {
                        line: lineno + 1,
                        message: format!("reference {citing} -> {cited} mentions unknown paper"),
                    });
                }
            }
        }
    }

    let mut builder = CorpusBuilder::new();
    for (i, row) in rows.iter().enumerate() {
        let venue = if row.venue.is_empty() {
            builder.venue("(unknown venue)")
        } else {
            builder.venue(&row.venue)
        };
        let authors = bylines[i].iter().map(|(_, _, name)| builder.author(name)).collect();
        let references = refs[i].iter().map(|&j| crate::model::ArticleId(j as u32)).collect();
        let year = row.year.expect("missing-year policy applied above");
        builder.add_article(&row.title, year, venue, authors, references, None);
    }
    builder.finish()
}

/// Load a MAG-style corpus from the three files on disk.
pub fn read_mag_files(
    papers: &Path,
    authorships: &Path,
    references: &Path,
    opts: &LoadOptions,
) -> Result<Corpus> {
    read_mag(
        std::fs::File::open(papers)?,
        std::fs::File::open(authorships)?,
        std::fs::File::open(references)?,
        opts,
    )
}

#[cfg(test)]
mod tests {
    use super::super::MissingYearPolicy;
    use super::*;
    use crate::model::ArticleId;

    fn impute_1992() -> LoadOptions {
        LoadOptions { missing_year: MissingYearPolicy::Impute(1992), ..Default::default() }
    }

    const PAPERS: &str =
        "P1\t1990\tVLDB\tFirst Paper\nP2\t1995\tICDE\tSecond Paper\nP3\t\t\tYearless\n";
    const AUTH: &str = "P1\tAda\t1\nP2\tBob\t2\nP2\tAda\t1\nP9\tGhost\t1\n";
    const REFS: &str = "P2\tP1\nP2\tP9\n";

    #[test]
    fn loads_three_tables() {
        let opts =
            LoadOptions { missing_year: MissingYearPolicy::Impute(1992), ..Default::default() };
        let c = read_mag(PAPERS.as_bytes(), AUTH.as_bytes(), REFS.as_bytes(), &opts).unwrap();
        assert_eq!(c.num_articles(), 3);
        assert_eq!(c.article(ArticleId(0)).title, "First Paper");
        assert_eq!(c.article(ArticleId(1)).references, vec![ArticleId(0)]);
        // Byline ordered by position column, not file order.
        let byline: Vec<&str> =
            c.article(ArticleId(1)).authors.iter().map(|&u| c.author(u).name.as_str()).collect();
        assert_eq!(byline, vec!["Ada", "Bob"]);
        // Yearless paper kept with the explicitly imputed year.
        assert_eq!(c.article(ArticleId(2)).year, 1992);
        assert_eq!(c.venue(c.article(ArticleId(2)).venue).name, "(unknown venue)");
    }

    #[test]
    fn missing_year_errors_by_default() {
        let err =
            read_mag(PAPERS.as_bytes(), AUTH.as_bytes(), REFS.as_bytes(), &LoadOptions::default())
                .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("'P3'"), "error names the yearless paper: {msg}");
        assert!(msg.contains("no publication year"), "{msg}");
    }

    #[test]
    fn missing_year_error_names_the_file_line() {
        let papers = "P1\t1990\tV\tT\n\nP2\t\tV\tT\n";
        match read_mag(papers.as_bytes(), "".as_bytes(), "".as_bytes(), &LoadOptions::default()) {
            Err(CorpusError::Parse { line, message }) => {
                assert_eq!(line, 3, "{message}");
                assert!(message.starts_with("record 'P2' has no publication year"), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_year_drop_policy() {
        let c = read_mag(
            PAPERS.as_bytes(),
            AUTH.as_bytes(),
            REFS.as_bytes(),
            &LoadOptions { missing_year: MissingYearPolicy::Drop, ..Default::default() },
        )
        .unwrap();
        assert_eq!(c.num_articles(), 2);
    }

    #[test]
    fn error_policy_on_unknown_ids() {
        let opts = LoadOptions {
            unknown_references: UnknownReferencePolicy::Error,
            missing_year: MissingYearPolicy::Impute(1992),
        };
        // Ghost authorship row P9 trips first.
        assert!(read_mag(PAPERS.as_bytes(), AUTH.as_bytes(), REFS.as_bytes(), &opts).is_err());
        // Without the ghost authorship, the ghost reference trips.
        let auth_ok = "P1\tAda\t1\n";
        assert!(read_mag(PAPERS.as_bytes(), auth_ok.as_bytes(), REFS.as_bytes(), &opts).is_err());
    }

    #[test]
    fn duplicate_paper_ids_rejected() {
        let dup = "P1\t1990\tV\tA\nP1\t1991\tV\tB\n";
        assert!(read_mag(dup.as_bytes(), "".as_bytes(), "".as_bytes(), &LoadOptions::default())
            .is_err());
    }

    #[test]
    fn bad_year_and_position_errors() {
        let bad_year = "P1\tnineteen\tV\tT\n";
        assert!(read_mag(
            bad_year.as_bytes(),
            "".as_bytes(),
            "".as_bytes(),
            &LoadOptions::default()
        )
        .is_err());
        let bad_pos = "P1\tAda\tfirst\n";
        assert!(
            read_mag(PAPERS.as_bytes(), bad_pos.as_bytes(), "".as_bytes(), &impute_1992()).is_err()
        );
    }

    #[test]
    fn missing_position_sorts_last() {
        let auth = "P1\tZed\t\nP1\tAda\t1\n";
        let c =
            read_mag(PAPERS.as_bytes(), auth.as_bytes(), "".as_bytes(), &impute_1992()).unwrap();
        let byline: Vec<&str> =
            c.article(ArticleId(0)).authors.iter().map(|&u| c.author(u).name.as_str()).collect();
        assert_eq!(byline, vec!["Ada", "Zed"]);
    }

    #[test]
    fn empty_tables() {
        let c =
            read_mag("".as_bytes(), "".as_bytes(), "".as_bytes(), &LoadOptions::default()).unwrap();
        assert_eq!(c.num_articles(), 0);
    }
}
