#![warn(missing_docs)]

//! Library backing the `scholar` command-line tool.
//!
//! All command logic lives here (and is unit-tested here); `main.rs` is a
//! thin dispatcher. Commands write to a generic `Write` sink so tests can
//! capture output.

pub mod args;
pub mod commands;

pub use args::Args;

/// Dispatch a parsed command line, writing human output to `out`. A
/// flag the command does not read is an error before the command runs.
pub fn dispatch<W: std::io::Write>(parsed: &Args, out: &mut W) -> Result<(), String> {
    if let Some((_, options, switches)) = FLAGS.iter().find(|(cmd, ..)| *cmd == parsed.command) {
        parsed.check_flags(options, switches)?;
    }
    match parsed.command.as_str() {
        "generate" => commands::generate(parsed, out),
        "stats" => commands::stats(parsed, out),
        "rank" => commands::rank(parsed, out),
        "ablate" => commands::ablate(parsed, out),
        "related" => commands::related(parsed, out),
        "coldstart" => commands::coldstart(parsed, out),
        "analyze" => commands::analyze(parsed, out),
        "eval" => commands::eval(parsed, out),
        "convert" => commands::convert(parsed, out),
        "serve" => commands::serve(parsed, out),
        "replay" => commands::replay(parsed, out),
        "snapshot" => commands::snapshot(parsed, out),
        "" | "help" => {
            writeln!(out, "{}", help_text()).map_err(|e| e.to_string())?;
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try 'scholar help')")),
    }
}

/// Every flag each command reads, as `(command, options, switches)`:
/// options take a value, switches take none. Corpus readers also take
/// `missing-year`; QRank runners also take `config` and `threads`, and
/// `rank` passes `threads` to every method's power iteration (QRank, TWPR
/// and PageRank).
const FLAGS: &[(&str, &[&str], &[&str])] = &[
    ("generate", &["preset", "seed", "out", "articles"], &[]),
    ("stats", &["missing-year"], &[]),
    (
        "rank",
        &["store", "method", "top", "missing-year", "config", "threads"],
        &["explain", "json"],
    ),
    ("ablate", &["missing-year", "config", "threads"], &["json"]),
    ("related", &["seeds", "top", "missing-year"], &[]),
    ("coldstart", &["venue", "authors", "missing-year", "config", "threads"], &[]),
    ("analyze", &["missing-year"], &[]),
    ("eval", &["cutoff-frac", "window", "missing-year"], &[]),
    ("convert", &["from", "out", "meta", "cites", "papers", "authors", "refs"], &[]),
    (
        "serve",
        &[
            "addr",
            "workers",
            "read-timeout-ms",
            "max-conns",
            "duration",
            "state",
            "snapshot-every",
            "record",
            "sample",
            "record-cap",
            "missing-year",
            "config",
            "threads",
        ],
        &[],
    ),
    ("replay", &["addr", "connections", "expect", "write-digests"], &["no-keep-alive", "json"]),
    ("snapshot", &["state", "missing-year", "config", "threads"], &[]),
];

/// The help screen.
pub fn help_text() -> &'static str {
    "scholar — query-independent scholarly article ranking

USAGE: scholar <command> [args]

COMMANDS:
  generate  --preset tiny|aan|dblp|mag [--seed N] --out FILE
            synthesize a corpus and write it as JSON lines
  generate  --preset mag-scale [--articles N] [--seed N] --out DIR
            stream a MAG-scale corpus straight into an out-of-core
            columnar store (default 10M articles; RAM stays bounded)
  stats     CORPUS.jsonl
            print corpus-level statistics
  rank      CORPUS.jsonl [--method qrank|twpr|pagerank|cc|hits|citerank|futurerank|prank]
            [--top N] [--explain] [--json]
            rank every article, print the top N
  rank      STORE_DIR --store mmap [--method ...] [--top N] [--json]
            rank an out-of-core columnar store through the mmap backend
            (bit-identical scores; listing shows ids and years)
  ablate    CORPUS.jsonl [--json]
            run all seven ablation variants over one corpus, sharing
            prepared engines between structurally identical variants
  related   CORPUS.jsonl --seeds ID[,ID...] [--top N]
            personalized-PageRank related-article search from seed articles
  coldstart CORPUS.jsonl --venue NAME [--authors NAME,NAME...]
            score a not-yet-indexed submission from venue/author prestige
  analyze   CORPUS.jsonl
            bibliometric diagnostics: citation-age profile, self-citation
            rate, venue insularity, h-index leaderboard
  eval      CORPUS.jsonl [--cutoff-frac F] [--window YEARS]
            hold out the last part of the timeline and compare all methods
  convert   --from aan --meta META --cites CITES --out FILE
            convert the AAN release format to JSON lines
  convert   --from mag --papers P --authors A --refs R --out FILE
            convert MAG-style TSV tables to JSON lines
  serve     CORPUS.jsonl [--addr HOST:PORT] [--workers N]
            [--read-timeout-ms MS] [--max-conns N] [--duration SECS]
            [--state DIR] [--snapshot-every N]
            [--record FILE [--sample N] [--record-cap N]]
            rank the corpus and serve it over HTTP: GET /top (k, venue,
            author, year_min, year_max filters), /article/{id}, /health,
            /metrics; runs until stdin closes unless --duration
            is given; the server is a nonblocking epoll event loop
            (Linux only) with keep-alive, --workers SO_REUSEPORT shards
            and --max-conns connections per shard; --state DIR makes the
            server crash-safe: batches journal to DIR/wal.log before
            they are acknowledged, state snapshots to DIR/snapshot.snap
            every --snapshot-every batches, and a restart restores
            snapshot + journal in milliseconds instead of re-ranking;
            --record FILE samples every --sample N-th request (default
            every request) into an RLOGv1 log flushed at shutdown
  replay    LOG.rlog --addr HOST:PORT [--connections N]
            [--no-keep-alive] [--expect FILE] [--write-digests FILE]
            [--json]
            re-issue a recorded request log against a running server,
            preserving per-connection order, and digest the responses
            per endpoint; --expect FILE fails on any digest drift
            (regression gate), --write-digests FILE saves the sidecar
            a future --expect compares against
  snapshot  CORPUS.jsonl --state DIR
            rank the corpus offline and publish it as a durable state
            directory, so the first `serve --state DIR` restores
            instantly instead of ranking

Commands reading CORPUS.jsonl accept --missing-year error|drop|YEAR for
records without a publication year (default: error — yearless records
abort the load rather than silently becoming year-0 articles).

Commands running QRank (rank, ablate, coldstart, serve, snapshot) accept --config FILE
with a partial QRankConfig as JSON; unspecified fields keep tuned defaults.
They also accept --threads N to set the worker count (--threads 1 forces
sequential execution); the SCHOLAR_THREADS environment variable changes
the default instead."
}
