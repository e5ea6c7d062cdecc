//! The JSONL path as it was before `sjson::Scanner`: the recursive-descent
//! parser built a `Value` tree per line (its string loop re-validated the
//! rest of the line at every character), `JsonArticle::from_value` copied
//! every string out of the tree, and a second pass over owned records
//! interned ids and names. It survives here, in test code only, as the
//! oracle the field scanner (`loader::jsonl::read_jsonl`) and the byte
//! writer (`write_jsonl`) are held to. One thing differs from the code it
//! was: errors found after the parse name the record's file line, not its
//! index among the records, which was the bug.

use scholar::corpus::loader::{LoadOptions, MissingYearPolicy, UnknownReferencePolicy};
use scholar::corpus::model::{ArticleId, Year};
use scholar::corpus::{Corpus, CorpusBuilder, CorpusError};
use sjson::{Error, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> Error {
        let (mut line, mut column) = (1, 1);
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        Error { line, column, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("invalid literal (expected '{word}')")))
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(cp)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.err("control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is valid UTF-8 by
                    // construction since it came from &str).
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("invalid number (digit required after '.')"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("invalid number (digit required in exponent)"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Value::Number).map_err(|_| self.err("number out of range"))
    }
}

/// The wire shape of one article record.
#[derive(Debug, Clone, Default)]
pub struct JsonArticle {
    pub id: String,
    pub title: String,
    pub year: Option<Year>,
    pub venue: Option<String>,
    pub authors: Vec<String>,
    pub references: Vec<String>,
}

impl JsonArticle {
    /// Decode one record from a parsed JSON object. Missing fields other
    /// than `id` take their defaults; wrongly-typed fields are an error.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let obj = v.as_object().ok_or("record must be a JSON object")?;
        let mut rec = JsonArticle::default();
        let mut has_id = false;
        for (key, val) in obj {
            match key.as_str() {
                "id" => {
                    rec.id = val.as_str().ok_or("'id' must be a string")?.to_string();
                    has_id = true;
                }
                "title" => {
                    rec.title = val.as_str().ok_or("'title' must be a string")?.to_string();
                }
                "year" if !val.is_null() => {
                    let y = val.as_i64().ok_or("'year' must be an integer")?;
                    let y = i32::try_from(y).map_err(|_| "'year' out of range")?;
                    rec.year = Some(y);
                }
                "venue" if !val.is_null() => {
                    rec.venue = Some(val.as_str().ok_or("'venue' must be a string")?.to_string());
                }
                "authors" => {
                    rec.authors = string_array(val, "authors")?;
                }
                "references" => {
                    rec.references = string_array(val, "references")?;
                }
                _ => {} // tolerate unknown fields from richer dumps
            }
        }
        if !has_id {
            return Err("missing field 'id'".into());
        }
        Ok(rec)
    }

    /// Encode this record as one compact JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let strings =
            |xs: &[String]| Value::Array(xs.iter().map(|s| Value::from(s.as_str())).collect());
        let mut b = sjson::ObjectBuilder::new()
            .field("id", self.id.as_str())
            .field("title", self.title.as_str());
        if let Some(y) = self.year {
            b = b.field("year", y);
        }
        if let Some(v) = &self.venue {
            b = b.field("venue", v.as_str());
        }
        b.field("authors", strings(&self.authors))
            .field("references", strings(&self.references))
            .build()
            .to_string_compact()
    }
}

fn string_array(v: &Value, field: &str) -> Result<Vec<String>, String> {
    let items = v.as_array().ok_or_else(|| format!("'{field}' must be an array"))?;
    items
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("'{field}' must contain strings"))
        })
        .collect()
}

/// Read a corpus from JSON-lines text: a tree per line, then records.
pub fn read_jsonl(text: &[u8], opts: &LoadOptions) -> Result<Corpus, CorpusError> {
    let mut records = Vec::new();
    for (lineno, line) in BufReader::new(text).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let rec = parse(trimmed)
            .map_err(|e| e.to_string())
            .and_then(|v| JsonArticle::from_value(&v))
            .map_err(|e| CorpusError::Parse {
                line: lineno + 1,
                message: format!("bad json record: {e}"),
            })?;
        records.push((lineno + 1, rec));
    }
    build_from_records(records, opts)
}

/// Assemble a corpus from `(file line, record)` pairs: the missing-year
/// policy first, then two-pass id resolution over owned strings.
fn build_from_records(
    mut records: Vec<(usize, JsonArticle)>,
    opts: &LoadOptions,
) -> Result<Corpus, CorpusError> {
    match opts.missing_year {
        MissingYearPolicy::Error => {
            if let Some((line, rec)) = records.iter().find(|(_, r)| r.year.is_none()) {
                return Err(CorpusError::Parse {
                    line: *line,
                    message: format!(
                        "record '{}' has no publication year (choose a LoadOptions::missing_year \
                         policy — Drop or Impute — to accept yearless records)",
                        rec.id
                    ),
                });
            }
        }
        MissingYearPolicy::Drop => records.retain(|(_, r)| r.year.is_some()),
        MissingYearPolicy::Impute(y) => {
            for (_, r) in &mut records {
                r.year.get_or_insert(y);
            }
        }
    }
    let mut interner: HashMap<String, ArticleId> = HashMap::new();
    for (_, rec) in &records {
        let next = ArticleId(interner.len() as u32);
        interner.entry(rec.id.clone()).or_insert(next);
    }
    let mut builder = CorpusBuilder::new();
    for (i, (line, rec)) in records.iter().enumerate() {
        let venue = match &rec.venue {
            Some(v) if !v.is_empty() => builder.venue(v),
            _ => builder.venue("(unknown venue)"),
        };
        let authors = rec.authors.iter().map(|a| builder.author(a)).collect();
        let mut references = Vec::with_capacity(rec.references.len());
        for r in &rec.references {
            match interner.get(r) {
                Some(&id) => references.push(id),
                None => match opts.unknown_references {
                    UnknownReferencePolicy::Drop => {}
                    UnknownReferencePolicy::Error => {
                        return Err(CorpusError::Parse {
                            line: *line,
                            message: format!("record {} cites unknown article '{r}'", rec.id),
                        })
                    }
                },
            }
        }
        if interner[&rec.id].index() != i {
            return Err(CorpusError::Parse {
                line: *line,
                message: format!("duplicate article id '{}'", rec.id),
            });
        }
        builder.add_article(&rec.title, rec.year.unwrap(), venue, authors, references, None);
    }
    builder.finish()
}

/// Write a corpus as JSON lines, one `Value` tree per record.
pub fn write_jsonl(corpus: &Corpus) -> Vec<u8> {
    let mut out = Vec::new();
    for a in corpus.articles() {
        let rec = JsonArticle {
            id: a.id.to_string(),
            title: a.title.clone(),
            year: Some(a.year),
            venue: Some(corpus.venue(a.venue).name.clone()),
            authors: a.authors.iter().map(|&u| corpus.author(u).name.clone()).collect(),
            references: a.references.iter().map(|r| r.to_string()).collect(),
        };
        out.extend_from_slice(rec.to_json_line().as_bytes());
        out.push(b'\n');
    }
    out
}

/// Every combination of the two load policies.
pub fn all_options() -> Vec<LoadOptions> {
    let mut all = Vec::new();
    for unknown_references in [UnknownReferencePolicy::Drop, UnknownReferencePolicy::Error] {
        for missing_year in
            [MissingYearPolicy::Error, MissingYearPolicy::Drop, MissingYearPolicy::Impute(1970)]
        {
            all.push(LoadOptions { unknown_references, missing_year });
        }
    }
    all
}

/// Assert the scanner loads `text` exactly as the oracle does under
/// every combination of the load policies: an equal `Corpus`, or an
/// error with equal text (which names the variant and the line).
pub fn assert_same_load(text: &[u8]) {
    for opts in all_options() {
        let scanned = scholar::corpus::loader::jsonl::read_jsonl(text, &opts);
        match (scanned, read_jsonl(text, &opts)) {
            (Ok(got), Ok(want)) => {
                assert!(got == want, "{opts:?} {:?}: corpora differ", String::from_utf8_lossy(text))
            }
            (Err(got), Err(want)) => assert_eq!(
                got.to_string(),
                want.to_string(),
                "{opts:?} {:?}",
                String::from_utf8_lossy(text)
            ),
            (got, want) => panic!(
                "{opts:?} {:?}: scanner {got:?}, oracle {want:?}",
                String::from_utf8_lossy(text)
            ),
        }
    }
}
