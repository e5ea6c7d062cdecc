//! Deterministic replay of a recorded RLOGv1 request log.
//!
//! This module *re-issues* traffic a live server actually saw, turning a
//! recorded log into a portable regression fixture. The driver restores the
//! recorded ordering exactly — records are grouped by recorded
//! connection id and sorted by per-connection sequence number, and each
//! replayed connection issues its requests strictly in that order — so
//! two replays of the same log against equivalent server states produce
//! byte-identical responses.
//!
//! The proof artifact is a set of **per-endpoint digests**: every
//! response folds `(target, status, body)` into an FNV-1a chain in
//! `(conn, seq)` order, one chain per endpoint class plus an `overall`
//! chain. The fold order is fixed by the log, not by thread scheduling,
//! so the digests are a pure function of (log, server state) no matter
//! how many replay workers run. `/metrics` responses are replayed but
//! excluded from digesting — latency histograms make their bodies
//! legitimately nondeterministic; everything else is covered.
//!
//! Digests serialize to a line-oriented sidecar (`<endpoint> <16-hex>`
//! per line, `overall` last) that ships next to the `.rlog` fixture and
//! is diffed by the CLI `replay` subcommand and the CI regression job.

use crate::hist::Histogram;
use scholar_serve::shadow::{endpoint_class, ENDPOINTS};
use scholar_serve::ReqRecord;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over one byte slice (same parameters as the workspace's
/// snapshot/WAL/RLOG checksums, reimplemented here so the digest
/// definition is self-contained in the replay layer).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one response hash into a digest chain.
fn fold(digest: u64, h: u64) -> u64 {
    (digest ^ h).wrapping_mul(FNV_PRIME)
}

/// Hash one replayed exchange: the request target, the response status,
/// and the exact response body bytes.
fn exchange_hash(target: &str, status: u16, body: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(target.len() + 3 + body.len());
    buf.extend_from_slice(target.as_bytes());
    buf.push(0);
    buf.extend_from_slice(&status.to_le_bytes());
    buf.extend_from_slice(body);
    fnv64(&buf)
}

/// How to replay: where, how wide, and whether to ask for keep-alive.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Server to replay against.
    pub addr: SocketAddr,
    /// Worker threads. Recorded connections are partitioned across
    /// workers; per-connection order is preserved regardless.
    pub connections: usize,
    /// Ask the server to keep connections open. Off, every request goes
    /// out on a fresh connection; so does the next request whenever a
    /// response says `Connection: close`.
    pub keep_alive: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            connections: 2,
            keep_alive: true,
        }
    }
}

/// One endpoint class's share of the replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointDigest {
    /// Endpoint class name (see [`scholar_serve::shadow::ENDPOINTS`]).
    pub endpoint: String,
    /// Requests replayed against this class.
    pub requests: u64,
    /// FNV-1a digest chain over this class's responses in `(conn, seq)`
    /// order. Zero when `requests` is zero.
    pub digest: u64,
}

/// What a replay run produced.
pub struct ReplayReport {
    /// Requests that completed with a framed response.
    pub replayed: u64,
    /// Connect/read/write failures. Any transport error makes the
    /// digests unusable as fixtures — callers should treat nonzero as a
    /// failed run.
    pub transport_errors: u64,
    /// Responses whose status differed from the recorded one.
    pub status_mismatches: u64,
    /// Per-endpoint digests, sorted by endpoint name, only for classes
    /// that saw traffic. `/metrics` is never included (nondeterministic
    /// body).
    pub endpoints: Vec<EndpointDigest>,
    /// Digest chain over every digestible response in `(conn, seq)`
    /// order.
    pub overall: u64,
    /// Wall-clock time of the replay.
    pub elapsed: Duration,
    /// Latency histogram (microseconds per request).
    pub hist: Histogram,
}

impl ReplayReport {
    /// The digest sidecar: one `<endpoint> <16-hex-digest>` line per
    /// endpoint with traffic, then `overall <16-hex>`. Stable line
    /// order (sorted endpoints, overall last) so sidecars diff cleanly.
    pub fn format_digests(&self) -> String {
        let mut out = String::new();
        for e in &self.endpoints {
            out.push_str(&format!("{} {:016x}\n", e.endpoint, e.digest));
        }
        out.push_str(&format!("overall {:016x}\n", self.overall));
        out
    }

    /// Compare against a parsed sidecar. Returns human-readable drift
    /// messages; empty means every digest matches.
    pub fn diff_digests(&self, expected: &[(String, u64)]) -> Vec<String> {
        let mut drift = Vec::new();
        let actual: Vec<(String, u64)> = self
            .endpoints
            .iter()
            .map(|e| (e.endpoint.clone(), e.digest))
            .chain(std::iter::once(("overall".to_string(), self.overall)))
            .collect();
        for (name, want) in expected {
            match actual.iter().find(|(n, _)| n == name) {
                Some((_, got)) if got == want => {}
                Some((_, got)) => drift
                    .push(format!("digest drift on {name}: expected {want:016x}, got {got:016x}")),
                None => drift.push(format!("endpoint {name} expected but saw no traffic")),
            }
        }
        for (name, _) in &actual {
            if !expected.iter().any(|(n, _)| n == name) {
                drift.push(format!("endpoint {name} saw traffic but is not in the expected set"));
            }
        }
        drift
    }

    /// The report as JSON (CLI output shape).
    pub fn to_json(&self) -> sjson::Value {
        let mut endpoints = sjson::ObjectBuilder::new();
        for e in &self.endpoints {
            endpoints = endpoints.field(
                &e.endpoint,
                sjson::ObjectBuilder::new()
                    .field("requests", e.requests as i64)
                    .field("digest", format!("{:016x}", e.digest).as_str())
                    .build(),
            );
        }
        sjson::ObjectBuilder::new()
            .field("replayed", self.replayed as i64)
            .field("transport_errors", self.transport_errors as i64)
            .field("status_mismatches", self.status_mismatches as i64)
            .field("overall_digest", format!("{:016x}", self.overall).as_str())
            .field("endpoints", endpoints.build())
            .field("elapsed_ms", self.elapsed.as_millis() as i64)
            .field("latency_p50_us", self.hist.percentile(0.50) as i64)
            .field("latency_p99_us", self.hist.percentile(0.99) as i64)
            .build()
    }
}

/// Parse a digest sidecar produced by [`ReplayReport::format_digests`].
pub fn parse_digests(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, hex) = line
            .split_once(' ')
            .ok_or_else(|| format!("line {}: expected '<endpoint> <hex>'", i + 1))?;
        let digest = u64::from_str_radix(hex.trim(), 16)
            .map_err(|_| format!("line {}: bad hex digest {hex:?}", i + 1))?;
        out.push((name.to_string(), digest));
    }
    if out.is_empty() {
        return Err("empty digest file".to_string());
    }
    Ok(out)
}

/// One completed exchange, keyed for deterministic folding.
struct Outcome {
    conn: u64,
    seq: u64,
    class: usize,
    hash: Option<u64>, // None for /metrics (excluded from digests)
    status_mismatch: bool,
}

struct WorkerOut {
    outcomes: Vec<Outcome>,
    transport_errors: u64,
    hist: Histogram,
}

/// Replay `records` against `config.addr` and digest the responses.
///
/// Records are grouped by recorded connection id; each group replays
/// strictly in `seq` order on its own (re)connection. Groups are
/// partitioned round-robin across workers, and the digests fold in
/// `(conn, seq)` order after every worker finishes, so the result is
/// independent of scheduling.
pub fn replay(records: &[ReqRecord], config: &ReplayConfig) -> io::Result<ReplayReport> {
    if config.connections == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "zero connections"));
    }
    // Restore the recorded order: by connection, then by sequence.
    let mut ordered: Vec<&ReqRecord> = records.iter().collect();
    ordered.sort_by_key(|r| (r.conn, r.seq));
    // Group into per-connection runs.
    let mut groups: Vec<Vec<&ReqRecord>> = Vec::new();
    for r in ordered {
        match groups.last_mut() {
            Some(g) if g.last().is_some_and(|p| p.conn == r.conn) => g.push(r),
            _ => groups.push(vec![r]),
        }
    }
    // Round-robin partition across workers.
    let workers = config.connections.min(groups.len()).max(1);
    let mut shards: Vec<Vec<Vec<ReqRecord>>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, g) in groups.into_iter().enumerate() {
        shards[i % workers].push(g.into_iter().cloned().collect());
    }

    let t0 = Instant::now();
    let handles: Vec<_> = shards
        .into_iter()
        .map(|shard| {
            let addr = config.addr;
            let keep_alive = config.keep_alive;
            std::thread::spawn(move || replay_worker(addr, keep_alive, shard))
        })
        .collect();

    let mut outcomes = Vec::with_capacity(records.len());
    let mut report = ReplayReport {
        replayed: 0,
        transport_errors: 0,
        status_mismatches: 0,
        endpoints: Vec::new(),
        overall: FNV_OFFSET,
        elapsed: Duration::ZERO,
        hist: Histogram::new(),
    };
    for h in handles {
        let out = h.join().expect("replay worker panicked");
        report.transport_errors += out.transport_errors;
        report.hist.merge(&out.hist);
        outcomes.extend(out.outcomes);
    }
    report.elapsed = t0.elapsed();

    // Deterministic fold: (conn, seq) order, independent of scheduling.
    outcomes.sort_by_key(|o| (o.conn, o.seq));
    let mut per_endpoint: Vec<(u64, u64)> = vec![(0, FNV_OFFSET); ENDPOINTS.len()];
    for o in &outcomes {
        report.replayed += 1;
        if o.status_mismatch {
            report.status_mismatches += 1;
        }
        if let Some(h) = o.hash {
            let slot = per_endpoint.get_mut(o.class).expect("class is an ENDPOINTS index");
            slot.0 += 1;
            slot.1 = fold(slot.1, h);
            report.overall = fold(report.overall, h);
        }
    }
    let mut endpoints: Vec<EndpointDigest> = ENDPOINTS
        .iter()
        .zip(per_endpoint)
        .filter(|(_, (requests, _))| *requests > 0)
        .map(|(name, (requests, digest))| EndpointDigest {
            endpoint: (*name).to_string(),
            requests,
            digest,
        })
        .collect();
    endpoints.sort_by(|a, b| a.endpoint.cmp(&b.endpoint));
    report.endpoints = endpoints;
    Ok(report)
}

fn replay_worker(addr: SocketAddr, keep_alive: bool, shard: Vec<Vec<ReqRecord>>) -> WorkerOut {
    let mut out = WorkerOut { outcomes: Vec::new(), transport_errors: 0, hist: Histogram::new() };
    let mut request = Vec::with_capacity(256);
    for group in shard {
        // Each recorded connection replays on its own connection so the
        // server sees the same per-connection request order.
        let mut conn: Option<ReplayConn> = None;
        for r in group {
            request.clear();
            request.extend_from_slice(b"GET ");
            request.extend_from_slice(r.target.as_bytes());
            request.extend_from_slice(b" HTTP/1.1\r\nHost: replay\r\n");
            if keep_alive {
                request.extend_from_slice(b"Connection: keep-alive\r\n");
            }
            request.extend_from_slice(b"\r\n");
            let t0 = Instant::now();
            match exchange(&mut conn, addr, &request, keep_alive) {
                Ok((status, body)) => {
                    out.hist.record(t0.elapsed().as_micros() as u64);
                    let path = r.target.split('?').next().unwrap_or(&r.target);
                    let class = endpoint_class(path);
                    let digestible = ENDPOINTS.get(class) != Some(&"metrics");
                    out.outcomes.push(Outcome {
                        conn: r.conn,
                        seq: r.seq,
                        class,
                        hash: digestible.then(|| exchange_hash(&r.target, status, &body)),
                        status_mismatch: status != r.status,
                    });
                }
                Err(_) => {
                    out.transport_errors += 1;
                    conn = None;
                }
            }
        }
    }
    out
}

struct ReplayConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Write one request, read one framed response with its body, and drop
/// the connection unless both sides keep it alive: the next request then
/// connects afresh.
fn exchange(
    conn: &mut Option<ReplayConn>,
    addr: SocketAddr,
    request: &[u8],
    keep_alive: bool,
) -> io::Result<(u16, Vec<u8>)> {
    if conn.is_none() {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        *conn = Some(ReplayConn { stream, buf: Vec::with_capacity(16 * 1024) });
    }
    let c = conn.as_mut().expect("connection just ensured above");
    c.stream.write_all(request)?;
    let (status, body, keeps) = read_framed_body(c)?;
    if !(keep_alive && keeps) {
        *conn = None;
    }
    Ok((status, body))
}

fn proto_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Read one response off `c`, returning status, body bytes, and whether
/// the server offered keep-alive. Pipelined surplus stays in `c.buf`.
fn read_framed_body(c: &mut ReplayConn) -> io::Result<(u16, Vec<u8>, bool)> {
    let mut chunk = [0u8; 8 * 1024];
    let head_end = loop {
        if let Some(pos) = c.buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        match c.stream.read(&mut chunk)? {
            0 => return Err(proto_err("connection closed mid-head")),
            n => c.buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = std::str::from_utf8(&c.buf[..head_end]).map_err(|_| proto_err("non-utf8 head"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| proto_err("no status line"))?;
    let mut content_length: Option<usize> = None;
    let mut keeps = false;
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                keeps = value.trim().eq_ignore_ascii_case("keep-alive");
            }
        }
    }
    let len = content_length.ok_or_else(|| proto_err("no content-length"))?;
    while c.buf.len() < head_end + len {
        match c.stream.read(&mut chunk)? {
            0 => return Err(proto_err("connection closed mid-body")),
            n => c.buf.extend_from_slice(&chunk[..n]),
        }
    }
    let body = c.buf[head_end..head_end + len].to_vec();
    c.buf.drain(..head_end + len);
    Ok((status, body, keeps))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(conn: u64, seq: u64, target: &str, status: u16) -> ReqRecord {
        ReqRecord { conn, seq, generation: 1, status, latency_us: 0, target: target.to_string() }
    }

    #[test]
    fn digest_fold_is_order_sensitive_and_deterministic() {
        let a = exchange_hash("/top?k=3", 200, b"one");
        let b = exchange_hash("/top?k=5", 200, b"two");
        assert_ne!(fold(fold(FNV_OFFSET, a), b), fold(fold(FNV_OFFSET, b), a));
        assert_eq!(fold(fold(FNV_OFFSET, a), b), fold(fold(FNV_OFFSET, a), b));
    }

    #[test]
    fn sidecar_round_trips_and_diffs() {
        let report = ReplayReport {
            replayed: 3,
            transport_errors: 0,
            status_mismatches: 0,
            endpoints: vec![
                EndpointDigest { endpoint: "article".into(), requests: 1, digest: 0xabc },
                EndpointDigest { endpoint: "top".into(), requests: 2, digest: 0xdef },
            ],
            overall: 0x123,
            elapsed: Duration::ZERO,
            hist: Histogram::new(),
        };
        let text = report.format_digests();
        let parsed = parse_digests(&text).unwrap();
        assert_eq!(
            parsed,
            vec![
                ("article".to_string(), 0xabc),
                ("top".to_string(), 0xdef),
                ("overall".to_string(), 0x123),
            ]
        );
        assert!(report.diff_digests(&parsed).is_empty());

        let mut drifted = parsed.clone();
        drifted[1].1 ^= 1;
        let drift = report.diff_digests(&drifted);
        assert_eq!(drift.len(), 1);
        assert!(drift[0].contains("top"), "drift message names the endpoint: {drift:?}");

        assert!(parse_digests("").is_err());
        assert!(parse_digests("top nothex").is_err());
    }

    #[test]
    fn replay_groups_preserve_per_connection_order() {
        // Replay against a tiny in-test server that echoes an ordinal
        // per connection; per-connection digests only match when the
        // driver preserves (conn, seq) order.
        use std::io::BufRead;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Serve exactly two connections, one request each visible
            // order assertion happens client-side via digests.
            for _ in 0..4 {
                let (mut s, _) = listener.accept().unwrap();
                let mut line = String::new();
                let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
                reader.read_line(&mut line).unwrap();
                // Drain headers.
                loop {
                    let mut h = String::new();
                    reader.read_line(&mut h).unwrap();
                    if h == "\r\n" || h.is_empty() {
                        break;
                    }
                }
                let target = line.split_whitespace().nth(1).unwrap_or("/").to_string();
                let body = format!("echo:{target}");
                let resp = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
                s.write_all(resp.as_bytes()).unwrap();
            }
        });
        let records = vec![
            record(1, 0, "/top?k=1", 200),
            record(1, 1, "/top?k=2", 200),
            record(2, 0, "/article/7", 200),
            record(2, 1, "/article/9", 404),
        ];
        let report =
            replay(&records, &ReplayConfig { addr, connections: 2, keep_alive: false }).unwrap();
        server.join().unwrap();
        assert_eq!(report.replayed, 4);
        assert_eq!(report.hist.count(), 4, "one latency sample per completed request");
        assert_eq!(report.transport_errors, 0);
        // The echo server always answers 200; record 4 expected 404.
        assert_eq!(report.status_mismatches, 1);
        let names: Vec<&str> = report.endpoints.iter().map(|e| e.endpoint.as_str()).collect();
        assert_eq!(names, vec!["article", "top"]);

        // Same log, different worker count: digests must be identical.
        let listener2 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr2 = listener2.local_addr().unwrap();
        let server2 = std::thread::spawn(move || {
            for _ in 0..4 {
                let (mut s, _) = listener2.accept().unwrap();
                let mut line = String::new();
                let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
                reader.read_line(&mut line).unwrap();
                loop {
                    let mut h = String::new();
                    reader.read_line(&mut h).unwrap();
                    if h == "\r\n" || h.is_empty() {
                        break;
                    }
                }
                let target = line.split_whitespace().nth(1).unwrap_or("/").to_string();
                let body = format!("echo:{target}");
                let resp = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
                s.write_all(resp.as_bytes()).unwrap();
            }
        });
        let report2 =
            replay(&records, &ReplayConfig { addr: addr2, connections: 1, keep_alive: false })
                .unwrap();
        server2.join().unwrap();
        assert_eq!(report.overall, report2.overall);
        assert_eq!(report.format_digests(), report2.format_digests());
    }

    #[test]
    fn replay_rejects_zero_connections() {
        let records = vec![record(1, 0, "/health", 200)];
        let config = ReplayConfig { connections: 0, ..Default::default() };
        let err = replay(&records, &config).err().expect("zero connections must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
