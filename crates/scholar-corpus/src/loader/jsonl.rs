//! JSON-lines corpus interchange.
//!
//! One object per line:
//!
//! ```json
//! {"id": "P90-1001", "title": "...", "year": 1990, "venue": "ACL",
//!  "authors": ["Ada L.", "Bob K."], "references": ["J89-2001"]}
//! ```
//!
//! `write_jsonl` emits exactly this shape, so a corpus round-trips. The
//! reader scans the six fields of each line in place with
//! [`sjson::Scanner`], never building a tree, and hands each record to
//! the loaders' shared id-resolution step (records may cite forward),
//! tolerant of unknown references per [`LoadOptions`].

use super::{LoadOptions, Pending, Record, Strs};
use crate::corpus::Corpus;
use crate::model::Year;
use crate::{CorpusError, Result};
use sjson::{Kind, Scanner};
use std::borrow::Cow;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Read a corpus from JSON-lines text.
///
/// A record is an object with a string `id` and optional `title`,
/// `year` (an integer), `venue`, `authors` and `references` (arrays of
/// strings). When a key repeats, the last one wins, except that a `null`
/// year or venue counts as absent. Other fields are checked for JSON
/// grammar and ignored. Blank lines are skipped; a line that is not a
/// record is a [`CorpusError::Parse`] naming its 1-based line, and
/// invalid UTF-8 is a [`CorpusError::Io`].
pub fn read_jsonl<R: Read>(reader: R, opts: &LoadOptions) -> Result<Corpus> {
    let mut reader = BufReader::with_capacity(1 << 16, reader);
    let mut pending = Pending::new(opts);
    // One line buffer and two name arenas, reused by every line.
    let (mut buf, mut authors, mut references) = (Vec::new(), Strs::default(), Strs::default());
    let mut line = 0;
    loop {
        buf.clear();
        let read = reader.read_until(b'\n', &mut buf);
        if matches!(read, Ok(0)) {
            break;
        }
        line += 1;
        // Chaos site: transient read failure mid-file. Must surface as a
        // clean CorpusError::Io, never a partial corpus.
        failpoint!(
            "corpus.jsonl.io",
            return Err(CorpusError::Io(std::io::Error::other(
                "injected I/O fault at corpus.jsonl.io",
            )))
        );
        read?;
        let text = std::str::from_utf8(&buf).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        // Chaos site: corrupt record. Must surface as CorpusError::Parse
        // carrying the 1-based line number of the poisoned record.
        failpoint!(
            "corpus.jsonl.parse",
            return Err(CorpusError::Parse {
                line,
                message: "injected parse fault at corpus.jsonl.parse".into(),
            })
        );
        let fields = scan_record(text, &mut authors, &mut references)
            .map_err(|e| CorpusError::Parse { line, message: format!("bad json record: {e}") })?;
        let rec = Record {
            line,
            id: &fields.id,
            title: &fields.title,
            year: fields.year,
            venue: fields.venue.as_deref(),
        };
        pending.add(rec, authors.iter(), references.iter());
    }
    pending.finish()
}

/// The scalar fields of one record, borrowed from its line.
struct Fields<'a> {
    id: Cow<'a, str>,
    title: Cow<'a, str>,
    year: Option<Year>,
    venue: Option<Cow<'a, str>>,
}

/// Why a line is not a record: its JSON, or a field of the wrong type.
enum Bad {
    Json(sjson::Error),
    Field(&'static str),
}

impl From<sjson::Error> for Bad {
    fn from(e: sjson::Error) -> Self {
        Bad::Json(e)
    }
}

impl std::fmt::Display for Bad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bad::Json(e) => e.fmt(f),
            Bad::Field(why) => f.write_str(why),
        }
    }
}

/// Scan one record's line, leaving its byline in `authors` and its cited
/// ids in `references`. A field of the wrong type is reported only once
/// the whole line is known to be JSON, and the first such field wins.
fn scan_record<'a>(
    text: &'a str,
    authors: &mut Strs,
    references: &mut Strs,
) -> std::result::Result<Fields<'a>, Bad> {
    authors.clear();
    references.clear();
    let mut s = Scanner::new(text);
    if s.peek()? != Kind::Object {
        s.skip()?;
        s.finish()?;
        return Err(Bad::Field("record must be a JSON object"));
    }
    let mut wrong = None;
    let (mut id, mut title, mut year, mut venue) = (None, Cow::Borrowed(""), None, None);
    s.begin_object()?;
    while let Some(key) = s.next_key()? {
        match (&*key, s.peek()?) {
            ("id", Kind::String) => id = Some(s.string()?),
            ("title", Kind::String) => title = s.string()?,
            ("venue", Kind::String) => venue = Some(s.string()?),
            ("year" | "venue", Kind::Null) => s.null()?,
            ("year", Kind::Number) => match year_of(s.number()?) {
                Ok(y) => year = Some(y),
                Err(why) => {
                    wrong.get_or_insert(why);
                }
            },
            ("authors", _) => strings(&mut s, authors, AUTHORS_WRONG, &mut wrong)?,
            ("references", _) => strings(&mut s, references, REFERENCES_WRONG, &mut wrong)?,
            (field, _) => {
                let why = match field {
                    "id" => Some("'id' must be a string"),
                    "title" => Some("'title' must be a string"),
                    "venue" => Some("'venue' must be a string"),
                    "year" => Some("'year' must be an integer"),
                    _ => None, // tolerate unknown fields from richer dumps
                };
                if let Some(why) = why {
                    wrong.get_or_insert(why);
                }
                s.skip()?;
            }
        }
    }
    s.finish()?;
    if let Some(why) = wrong {
        return Err(Bad::Field(why));
    }
    let id = id.ok_or(Bad::Field("missing field 'id'"))?;
    Ok(Fields { id, title, year, venue })
}

/// What is wrong with an `authors` or `references` field that is not an
/// array, or holds something other than strings.
const AUTHORS_WRONG: [&str; 2] = ["'authors' must be an array", "'authors' must contain strings"];
const REFERENCES_WRONG: [&str; 2] =
    ["'references' must be an array", "'references' must contain strings"];

/// Read an array of strings into `out`, replacing what an earlier key of
/// the same name left there.
fn strings(
    s: &mut Scanner<'_>,
    out: &mut Strs,
    [not_array, not_strings]: [&'static str; 2],
    wrong: &mut Option<&'static str>,
) -> std::result::Result<(), sjson::Error> {
    out.clear();
    if s.peek()? != Kind::Array {
        wrong.get_or_insert(not_array);
        return s.skip();
    }
    s.begin_array()?;
    while s.next_item()? {
        if s.peek()? == Kind::String {
            out.push(&s.string()?);
        } else {
            wrong.get_or_insert(not_strings);
            s.skip()?;
        }
    }
    Ok(())
}

/// A JSON number as a year: integral and within `i64`, then within
/// [`Year`].
fn year_of(n: f64) -> std::result::Result<Year, &'static str> {
    let y = sjson::Value::Number(n).as_i64().ok_or("'year' must be an integer")?;
    Year::try_from(y).map_err(|_| "'year' out of range")
}

/// Write a corpus as JSON lines (the inverse of [`read_jsonl`], with
/// articles keyed by their dense id rendered in decimal). Every string
/// goes through [`sjson::write_str`], the escape table the reader
/// inverts.
pub fn write_jsonl<W: Write>(corpus: &Corpus, writer: W) -> Result<()> {
    let mut w = BufWriter::new(writer);
    let mut line = Vec::new();
    for a in corpus.articles() {
        line.clear();
        line.extend_from_slice(b"{\"id\":");
        write_id(&mut line, a.id.0);
        line.extend_from_slice(b",\"title\":");
        sjson::write_str(&mut line, &a.title);
        line.extend_from_slice(b",\"year\":");
        sjson::write_number(&mut line, f64::from(a.year));
        line.extend_from_slice(b",\"venue\":");
        sjson::write_str(&mut line, &corpus.venue(a.venue).name);
        line.extend_from_slice(b",\"authors\":[");
        for (i, &u) in a.authors.iter().enumerate() {
            if i > 0 {
                line.push(b',');
            }
            sjson::write_str(&mut line, &corpus.author(u).name);
        }
        line.extend_from_slice(b"],\"references\":[");
        for (i, r) in a.references.iter().enumerate() {
            if i > 0 {
                line.push(b',');
            }
            write_id(&mut line, r.0);
        }
        line.extend_from_slice(b"]}\n");
        w.write_all(&line)?;
    }
    w.flush()?;
    Ok(())
}

/// A dense id as a JSON string of its decimal digits (which need no
/// escape).
fn write_id(out: &mut Vec<u8>, id: u32) {
    out.push(b'"');
    sjson::write_u64(out, u64::from(id));
    out.push(b'"');
}

/// Read a JSON-lines corpus from a file.
pub fn read_jsonl_file(path: &Path, opts: &LoadOptions) -> Result<Corpus> {
    read_jsonl(std::fs::File::open(path)?, opts)
}

/// Write a JSON-lines corpus to a file.
pub fn write_jsonl_file(corpus: &Corpus, path: &Path) -> Result<()> {
    write_jsonl(corpus, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::super::{MissingYearPolicy, UnknownReferencePolicy};
    use super::*;
    use crate::model::ArticleId;

    const SAMPLE: &str = r#"
{"id": "A", "title": "First", "year": 1990, "venue": "VLDB", "authors": ["Ada"], "references": []}
{"id": "B", "title": "Second", "year": 1995, "venue": "ICDE", "authors": ["Ada", "Bob"], "references": ["A"]}
{"id": "C", "title": "Third", "year": 2000, "authors": [], "references": ["A", "B", "GHOST"]}
"#;

    #[test]
    fn reads_basic_corpus() {
        let c = read_jsonl(SAMPLE.as_bytes(), &LoadOptions::default()).unwrap();
        assert_eq!(c.num_articles(), 3);
        assert_eq!(c.article(ArticleId(1)).title, "Second");
        assert_eq!(c.article(ArticleId(1)).references, vec![ArticleId(0)]);
        // GHOST dropped by default.
        assert_eq!(c.article(ArticleId(2)).references, vec![ArticleId(0), ArticleId(1)]);
        // Missing venue maps to the sentinel.
        assert_eq!(c.venue(c.article(ArticleId(2)).venue).name, "(unknown venue)");
        assert_eq!(c.num_authors(), 2);
    }

    #[test]
    fn unknown_reference_error_policy() {
        let opts =
            LoadOptions { unknown_references: UnknownReferencePolicy::Error, ..Default::default() };
        let err = read_jsonl(SAMPLE.as_bytes(), &opts).unwrap_err();
        assert!(err.to_string().contains("GHOST"));
    }

    #[test]
    fn forward_references_resolve() {
        let text = r#"
{"id": "later-cites-earlier-reversed", "year": 2000, "references": ["Z"]}
{"id": "Z", "year": 1990, "references": []}
"#;
        let c = read_jsonl(text.as_bytes(), &LoadOptions::default()).unwrap();
        assert_eq!(c.article(ArticleId(0)).references, vec![ArticleId(1)]);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let text = "{\"id\": \"A\"}\n{\"id\": \"A\"}\n";
        assert!(read_jsonl(text.as_bytes(), &LoadOptions::default()).is_err());
    }

    #[test]
    fn bad_json_reports_line() {
        let text = "{\"id\": \"A\"}\nnot json\n";
        match read_jsonl(text.as_bytes(), &LoadOptions::default()) {
            Err(CorpusError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn errors_after_the_scan_name_the_file_line() {
        // A blank line, and a dropped record, each put the record index
        // and the file line apart; the error must name the file line.
        let parse_error = |text: &str, opts: &LoadOptions| match read_jsonl(text.as_bytes(), opts) {
            Err(CorpusError::Parse { line, message }) => (line, message),
            other => panic!("expected a parse error, got {other:?}"),
        };
        let dup = "\n{\"id\": \"A\", \"year\": 1}\n\n{\"id\": \"A\", \"year\": 2}\n";
        assert_eq!(
            parse_error(dup, &LoadOptions::default()),
            (4, "duplicate article id 'A'".to_owned())
        );
        let (line, message) = parse_error("\n\n{\"id\": \"A\"}\n", &LoadOptions::default());
        assert_eq!(line, 3, "{message}");
        let ghost = "{\"id\": \"A\"}\n{\"id\": \"B\", \"year\": 1, \"references\": [\"Z\"]}\n";
        let opts = LoadOptions {
            unknown_references: UnknownReferencePolicy::Error,
            missing_year: MissingYearPolicy::Drop,
        };
        assert_eq!(parse_error(ghost, &opts), (2, "record B cites unknown article 'Z'".to_owned()));
    }

    #[test]
    fn a_parse_error_anywhere_beats_a_missing_year() {
        let text = "{\"id\": \"A\"}\n{\"id\": \"B\", \"year\": 2000}\n{\"id\": 7}\n";
        match read_jsonl(text.as_bytes(), &LoadOptions::default()) {
            Err(CorpusError::Parse { line: 3, message }) => {
                assert_eq!(message, "bad json record: 'id' must be a string")
            }
            other => panic!("expected the line-3 parse error, got {other:?}"),
        }
    }

    #[test]
    fn repeated_keys_keep_the_last_and_null_keeps_the_year() {
        let text = concat!(
            r#"{"id": "X", "authors": ["Gone"], "references": ["X"], "year": 1990, "#,
            r#""venue": "Old", "id": "A", "authors": ["Kept"], "references": [], "#,
            r#""year": null, "venue": null, "extra": {"deep": [1, {"x": null}]}}"#,
        );
        let c = read_jsonl(text.as_bytes(), &LoadOptions::default()).unwrap();
        let a = c.article(ArticleId(0));
        assert_eq!((a.year, c.venue(a.venue).name.as_str()), (1990, "Old"));
        let names: Vec<&str> = c.authors().iter().map(|u| u.name.as_str()).collect();
        assert_eq!(names, ["Kept"], "the overridden byline is never interned");
        assert!(a.references.is_empty());
    }

    #[test]
    fn missing_year_errors_by_default() {
        let text = "{\"id\": \"A\"}\n{\"id\": \"B\", \"year\": 2000}\n";
        let err = read_jsonl(text.as_bytes(), &LoadOptions::default()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("'A'"), "error names the yearless record: {msg}");
        assert!(msg.contains("no publication year"), "{msg}");
    }

    #[test]
    fn missing_year_drop_policy() {
        let text = "{\"id\": \"A\"}\n{\"id\": \"B\", \"year\": 2000, \"references\": [\"A\"]}\n";
        let opts = LoadOptions { missing_year: MissingYearPolicy::Drop, ..Default::default() };
        let c = read_jsonl(text.as_bytes(), &opts).unwrap();
        assert_eq!(c.num_articles(), 1);
        assert_eq!(c.article(ArticleId(0)).year, 2000);
        // The reference to the dropped record follows the
        // unknown-reference policy (default: dropped too).
        assert!(c.article(ArticleId(0)).references.is_empty());
    }

    #[test]
    fn missing_year_impute_policy() {
        let text = "{\"id\": \"A\"}\n{\"id\": \"B\", \"year\": 2000}\n";
        let opts =
            LoadOptions { missing_year: MissingYearPolicy::Impute(1997), ..Default::default() };
        let c = read_jsonl(text.as_bytes(), &opts).unwrap();
        assert_eq!(c.num_articles(), 2);
        assert_eq!(c.article(ArticleId(0)).year, 1997);
        assert_eq!(c.article(ArticleId(1)).year, 2000);
    }

    #[test]
    fn roundtrip_through_writer() {
        let c = read_jsonl(SAMPLE.as_bytes(), &LoadOptions::default()).unwrap();
        let mut buf = Vec::new();
        write_jsonl(&c, &mut buf).unwrap();
        let c2 = read_jsonl(&buf[..], &LoadOptions::default()).unwrap();
        assert_eq!(c.num_articles(), c2.num_articles());
        assert_eq!(c.num_citations(), c2.num_citations());
        for (a, b) in c.articles().iter().zip(c2.articles()) {
            assert_eq!(a.title, b.title);
            assert_eq!(a.year, b.year);
            assert_eq!(a.references, b.references);
        }
    }

    #[test]
    fn generated_corpus_roundtrips() {
        let c = crate::generator::Preset::Tiny.generate(3);
        let mut buf = Vec::new();
        write_jsonl(&c, &mut buf).unwrap();
        let c2 = read_jsonl(&buf[..], &LoadOptions::default()).unwrap();
        assert_eq!(c.num_articles(), c2.num_articles());
        assert_eq!(c.num_citations(), c2.num_citations());
        assert_eq!(c.num_authors(), c2.num_authors());
        assert_eq!(c.num_venues(), c2.num_venues());
    }

    #[test]
    fn empty_input() {
        let c = read_jsonl("".as_bytes(), &LoadOptions::default()).unwrap();
        assert_eq!(c.num_articles(), 0);
    }
}
