//! The JSONL field scanner and byte writer against the tree-building
//! path they replaced (`tests/oracle/jsonl.rs`): every line of a hand
//! table loads to an equal `Corpus` or fails with equal error text under
//! every load policy, and `write_jsonl` writes the bytes the `Value`
//! writer wrote.

mod oracle;

use oracle::jsonl::assert_same_load;
use scholar::corpus::loader::{jsonl, LoadOptions};
use scholar::corpus::{Corpus, CorpusBuilder};
use scholar::Preset;

/// Records the table's references can resolve to.
const TAIL: &str = "{\"id\": \"A\", \"title\": \"a\", \"year\": 1990, \"venue\": \"V\"}\n\
                    {\"id\": \"B\", \"year\": 1991, \"authors\": [\"a\"], \"references\": [\"A\"]}";

fn table() -> Vec<Vec<u8>> {
    let mut lines: Vec<String> = [
        // A plain record, and one citing the tail and a ghost.
        r#"{"id": "X", "title": "T", "year": 1990, "venue": "V", "authors": ["a", "b"], "references": ["A", "B", "GHOST"]}"#,
        // Escapes, in values and in keys.
        r#"{"id": "e\"\\\/\b\f\n\r\t", "title": "caf%u00e9 %u20ac", "year": 2000, "authors": ["%u0041da", "x\ty"]}"#,
        r#"{"%u0069d": "esc-key", "year": 2000, "venue": "V%u0000W"}"#,
        r#"{"id": "s", "title": "%ud83c%udf93 grad", "year": 2000}"#,
        r#"{"id": "s", "title": "%uD83C%uDF93", "year": 2000}"#,
        r#"{"id": "s", "title": "%ud83c", "year": 2000}"#,
        r#"{"id": "s", "title": "%ud83c%u0041", "year": 2000}"#,
        r#"{"id": "s", "title": "%ud83cx", "year": 2000}"#,
        r#"{"id": "s", "title": "%udf93", "year": 2000}"#,
        r#"{"id": "s", "title": "%u12", "year": 2000}"#,
        r#"{"id": "s", "title": "%u12"#,
        r#"{"id": "s", "title": "%uzzzz", "year": 2000}"#,
        r#"{"id": "s", "title": "\x", "year": 2000}"#,
        r#"{"id": "s", "title": "ends in a backslash\"#,
        "{\"id\": \"ü\", \"title\": \"日本語 🎓\", \"year\": 2000, \"venue\": \"Zürich\"}",
        "{\"id\": \"c\", \"title\": \"raw\ttab\", \"year\": 2000}",
        // Repeated keys: the last wins; a null year or venue is absent.
        r#"{"id": "X", "id": "Y", "year": 1990, "year": 1991, "title": "a", "title": "b", "authors": ["p"], "authors": ["q", "r"], "references": ["A"], "references": ["B"], "venue": "V", "venue": "W"}"#,
        r#"{"id": "n", "year": 1990, "year": null, "venue": "V", "venue": null}"#,
        r#"{"id": "n", "year": null, "venue": null}"#,
        r#"{"id": "n", "venue": "", "year": 2000}"#,
        // An id the tail repeats.
        r#"{"id": "A", "year": 2001, "references": ["B"]}"#,
        // Years: integral spellings, range, and types.
        r#"{"id": "y", "year": 1990.0}"#,
        r#"{"id": "y", "year": 1e3}"#,
        r#"{"id": "y", "year": 1E+3}"#,
        r#"{"id": "y", "year": -0}"#,
        r#"{"id": "y", "year": -0.0}"#,
        r#"{"id": "y", "year": 2147483647}"#,
        r#"{"id": "y", "year": 2147483648}"#,
        r#"{"id": "y", "year": -2147483649}"#,
        r#"{"id": "y", "year": 9223372036854775807}"#,
        r#"{"id": "y", "year": 99999999999999999999}"#,
        r#"{"id": "y", "year": 1e400}"#,
        r#"{"id": "y", "year": 1990.5}"#,
        r#"{"id": "y", "year": "1990"}"#,
        r#"{"id": "y", "year": true}"#,
        r#"{"id": "y", "year": 01}"#,
        r#"{"id": "y", "year": 1.}"#,
        r#"{"id": "y", "year": 1e}"#,
        r#"{"id": "y", "year": -}"#,
        r#"{"id": "y", "year": nul}"#,
        // Unknown fields are validated, then ignored.
        r#"{"id": "u", "year": 2000, "extra": {"a": [1, 2, {"b": [true, false, null, "s%u00e9"]}], "c": -1.5e-3}, "z": []}"#,
        r#"{"id": "u", "year": 2000, "extra": [1, 2,]}"#,
        r#"{"id": "u", "year": 2000, "extra": {"a" 1}}"#,
        r#"{"id": "u", "year": 2000, "extra": tru}"#,
        // Trailing characters, and lines that are not one object.
        r#"{"id": "t", "year": 2000} x"#,
        r#"{"id": "t", "year": 2000}}"#,
        r#"{"id": "t", "year": 2000,}"#,
        r#"{"id": "t" "year": 2000}"#,
        r#"{"id": "t", "year": 2000"#,
        r#"["id", "x"]"#,
        r#"[1, 2"#,
        "42",
        r#""a string""#,
        "null",
        "not json",
        // Wrong-typed fields; the first one in the line wins, and any
        // grammar error anywhere beats them all.
        r#"{"id": 5, "year": 2000}"#,
        r#"{"id": null, "year": 2000}"#,
        r#"{"id": "w", "title": 5}"#,
        r#"{"id": "w", "title": null}"#,
        r#"{"id": "w", "venue": 5}"#,
        r#"{"id": "w", "authors": "a"}"#,
        r#"{"id": "w", "authors": ["a", 1, "b"]}"#,
        r#"{"id": "w", "authors": null}"#,
        r#"{"id": "w", "references": {"a": 1}}"#,
        r#"{"id": "w", "references": [null]}"#,
        r#"{"id": 5, "title": 7}"#,
        r#"{"title": 7, "id": 5}"#,
        r#"{"id": 5, "id": "fine", "year": 2000}"#,
        r#"{"id": 5, "title": }"#,
        r#"{"title": 1}"#,
        r#"{"year": 2000}"#,
        "{}",
        r#"{"": 1, "id": ""}"#,
        // Whitespace: JSON's own, and what `str::trim` takes off a line.
        "  {\"id\": \"w\", \"year\": 2000}  \t",
        "\u{a0}{\"id\": \"nb\", \"year\": 2000}\u{2003}",
        "{\"id\": \"cr\", \"year\": 2000}\r",
        "{\"id\":\"packed\",\"year\":2000,\"authors\":[\"a\",\"b\"],\"references\":[\"A\"]}",
    ]
    // `%u` marks a JSON `\u` escape.
    .map(|line| line.replace("%u", &format!("{}u", char::from(0x5c))))
    .into();
    // Depth: the record is one level; 127 more containers nest, 128 do
    // not, and a value inside the 127th does not either.
    let nest = |n: usize, inner: &str| "[".repeat(n) + inner + &"]".repeat(n);
    for (n, inner) in [(127, ""), (128, ""), (126, "1"), (127, "1")] {
        lines.push(format!("{{\"id\": \"d\", \"year\": 2000, \"deep\": {}}}", nest(n, inner)));
    }
    let mut table: Vec<Vec<u8>> = lines.into_iter().map(String::into_bytes).collect();
    // Invalid UTF-8 stays an I/O error, wherever it sits in the line.
    table.push(b"{\"id\": \"\xff\", \"year\": 2000}".to_vec());
    table.push(b"{\"id\": \"i\", \"year\": 2000, \"x\": \"\xc3\"}".to_vec());
    table.push(b"\xed\xa0\x80".to_vec());
    table
}

#[test]
fn every_table_line_loads_as_the_oracle_loads_it() {
    for line in table() {
        // Alone, before the records it may cite, and after a blank line
        // and them (so record index and file line differ).
        assert_same_load(&line);
        let mut cited = line.clone();
        cited.push(b'\n');
        cited.extend_from_slice(TAIL.as_bytes());
        assert_same_load(&cited);
        let mut late = format!("\n{TAIL}\n").into_bytes();
        late.extend_from_slice(&line);
        assert_same_load(&late);
    }
    // The whole table as one file: the first bad line decides.
    assert_same_load(&table().join(&b'\n'));
}

/// A corpus whose names and titles need every escape the writer has.
fn adversarial() -> Corpus {
    let controls: String = (0u8..0x20).map(char::from).collect();
    let names = [
        String::from("plain"),
        String::from("\"quoted\" and \\back\\slashed\\"),
        controls,
        String::from("\u{7f} DEL, café, 日本語, 🎓"),
        String::from("/solidus/ \u{2028}\u{2029}"),
        String::new(),
    ];
    let mut b = CorpusBuilder::new();
    for (i, name) in names.iter().enumerate() {
        let venue = b.venue(name);
        let byline = names.iter().cycle().skip(i).take(3).map(|n| b.author(n)).collect();
        let refs = (0..i as u32).map(scholar::corpus::model::ArticleId).collect();
        b.add_article(name, 1990 + i as i32, venue, byline, refs, None);
    }
    b.finish().unwrap()
}

#[test]
fn write_jsonl_writes_the_bytes_the_tree_writer_wrote() {
    for corpus in [Preset::Tiny.generate(5), adversarial()] {
        let mut bytes = Vec::new();
        jsonl::write_jsonl(&corpus, &mut bytes).unwrap();
        let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
        assert_eq!(text(bytes.clone()), text(oracle::jsonl::write_jsonl(&corpus)));
        assert_same_load(&bytes);
        let back = jsonl::read_jsonl(&bytes[..], &LoadOptions::default()).unwrap();
        let titles = |c: &Corpus| c.articles().iter().map(|a| a.title.clone()).collect::<Vec<_>>();
        assert_eq!(titles(&back), titles(&corpus));
    }
}

/// CI runs this in release: the DBLP-like preset (≈90k articles, ≈19 MB
/// of JSONL) written by both writers and loaded by both readers.
#[test]
#[ignore = "DBLP-like scale: run with --release -- --ignored"]
fn dblp_like_jsonl_loads_equal_to_the_oracle() {
    let corpus = Preset::DblpLike.generate(7);
    let mut bytes = Vec::new();
    jsonl::write_jsonl(&corpus, &mut bytes).unwrap();
    assert!(bytes == oracle::jsonl::write_jsonl(&corpus), "writers differ");
    let opts = LoadOptions::default();
    let scanned = jsonl::read_jsonl(&bytes[..], &opts).unwrap();
    let want = oracle::jsonl::read_jsonl(&bytes, &opts).unwrap();
    assert_eq!(scanned.num_articles(), corpus.num_articles());
    assert!(scanned == want, "the scanner's corpus differs from the oracle's");
}
