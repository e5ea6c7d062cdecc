//! A byte-level chaos client for the HTTP serving layer.
//!
//! The server's defensive parsing was written against a list of known
//! hostile shapes (slowloris, oversized heads, garbage request lines).
//! This module *generates* hostile shapes from a seed instead: split
//! writes at arbitrary byte boundaries, stalls, truncated heads,
//! mid-request disconnects, binary garbage. Each strike is a pure
//! function of the rng state, so a failing sequence replays exactly from
//! its seed.
//!
//! The client never asserts anything about an individual strike's
//! response beyond basic well-formedness — a truncated request may race
//! the server's reader and legitimately get either a `400` or nothing.
//! What it *does* let the suite assert is the aggregate contract:
//! [`assert_server_live`] (no strike may stop the server answering) and exact
//! `/metrics` accounting via [`http_get`] (every response the server
//! admits to must be complete and internally consistent).

use srand::rngs::SmallRng;
use srand::Rng;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// What one chaos strike did, for debugging failing seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strike {
    /// A well-formed GET written in `chunks` randomly-sized pieces with
    /// tiny stalls between them.
    SplitWrites {
        /// Number of write calls the request was split into.
        chunks: usize,
    },
    /// A request head cut off after `bytes` bytes, then FIN.
    Truncated {
        /// Bytes actually written before the half-close.
        bytes: usize,
    },
    /// A connection dropped (RST via linger-less close) mid-request
    /// without ever half-closing politely.
    MidRequestDisconnect,
    /// Connect, write nothing, hold the socket open briefly, vanish.
    SilentConnection,
    /// Random bytes that are not HTTP at all.
    Garbage {
        /// How many bytes of noise were written.
        bytes: usize,
    },
}

/// One complete, well-formed HTTP GET exchange. Returns
/// `(status, body)` and asserts the response itself is whole: one status
/// line, a `Content-Length` that matches the body byte count exactly,
/// and a body that parses as JSON. Any torn or half-written response
/// fails here.
pub fn http_get(addr: SocketAddr, target: &str) -> (u16, sjson::Value) {
    let raw = exchange(addr, format!("GET {target} HTTP/1.1\r\nHost: chaos\r\n\r\n").as_bytes());
    let text = String::from_utf8_lossy(&raw);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in response {text:?}"));
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("response has no head terminator: {text:?}"));
    let declared: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("response head has no Content-Length: {head:?}"));
    assert_eq!(declared, body.len(), "Content-Length does not match the body actually sent");
    let value = sjson::parse(body)
        .unwrap_or_else(|e| panic!("response body is not valid JSON ({e:?}): {body:?}"));
    (status, value)
}

fn exchange(addr: SocketAddr, raw: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(raw).expect("write request");
    read_to_end_tolerant(&mut s)
}

/// Read until EOF, tolerating a reset after bytes arrived (the server
/// closes with unread input pending for oversized requests, turning the
/// close into an RST on some platforms).
fn read_to_end_tolerant(s: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(_) if !out.is_empty() => break,
            Err(e) => panic!("read failed before any response arrived: {e}"),
        }
    }
    out
}

/// Drain whatever the server sends, asserting nothing: a strike's
/// connection may legitimately be reset before a single byte arrives
/// (e.g. an armed `serve.accept` failpoint drops it at the door).
fn drain_quietly(s: &mut TcpStream) {
    let mut buf = [0u8; 4096];
    while let Ok(n) = s.read(&mut buf) {
        if n == 0 {
            break;
        }
    }
}

/// Execute one seeded strike against `addr`. Never asserts on the
/// response (half the point is provoking paths where there isn't one);
/// returns what was done so failing seeds describe themselves.
pub fn strike(addr: SocketAddr, rng: &mut SmallRng) -> Strike {
    let request = format!(
        "GET /top?k={}&year_min={}&year_max={} HTTP/1.1\r\nHost: chaos\r\n\r\n",
        rng.gen_range(0u64..30),
        rng.gen_range(1980i32..2030),
        rng.gen_range(1980i32..2030),
    );
    let raw = request.as_bytes();
    match rng.gen_range(0u32..5) {
        0 => {
            // Split the request across many tiny writes with stalls well
            // under the server's read timeout: must still be answered.
            let chunks = rng.gen_range(2usize..8);
            let mut s = TcpStream::connect(addr).expect("connect");
            let mut written = 0;
            for c in 0..chunks {
                let end =
                    if c + 1 == chunks { raw.len() } else { rng.gen_range(written..raw.len() + 1) };
                if end > written {
                    // Best-effort: the server may drop the connection
                    // between chunks (an armed accept failpoint, a read
                    // timeout), turning the next write into EPIPE.
                    if s.write_all(&raw[written..end]).is_err() {
                        break;
                    }
                    written = end;
                }
                std::thread::sleep(Duration::from_millis(rng.gen_range(0u64..3)));
            }
            drain_quietly(&mut s);
            Strike::SplitWrites { chunks }
        }
        1 => {
            // Truncate the head mid-way and half-close: the server sees
            // EOF before the terminator and should answer 400.
            let bytes = rng.gen_range(1usize..raw.len());
            let mut s = TcpStream::connect(addr).expect("connect");
            let _ = s.write_all(&raw[..bytes]);
            let _ = s.shutdown(Shutdown::Write);
            drain_quietly(&mut s);
            Strike::Truncated { bytes }
        }
        2 => {
            // Write part of a request then vanish without reading or
            // half-closing; the server's write may hit a dead socket.
            let bytes = rng.gen_range(1usize..raw.len() + 1);
            let s = TcpStream::connect(addr).expect("connect");
            let _ = (&s).write_all(&raw[..bytes]);
            drop(s);
            Strike::MidRequestDisconnect
        }
        3 => {
            // Connect and say nothing, briefly: holds a connection slot
            // until its read times out or we hang up.
            let s = TcpStream::connect(addr).expect("connect");
            std::thread::sleep(Duration::from_millis(rng.gen_range(0u64..4)));
            drop(s);
            Strike::SilentConnection
        }
        _ => {
            // Bytes that were never HTTP.
            let n = rng.gen_range(1usize..96);
            let noise: Vec<u8> = (0..n).map(|_| (rng.gen_range(0u64..256)) as u8).collect();
            let mut s = TcpStream::connect(addr).expect("connect");
            let _ = s.write_all(&noise);
            let _ = s.shutdown(Shutdown::Write);
            drain_quietly(&mut s);
            Strike::Garbage { bytes: n }
        }
    }
}

/// Assert the server still answers: `workers + 2` consecutive `/health`
/// probes, each on a fresh connection, must all get a whole `200`. On
/// `SO_REUSEPORT` shards this proves the server answers, not that every
/// shard survived: a shard that exits closes its listener, and the
/// kernel then routes probes to the shards that are left.
pub fn assert_server_live(addr: SocketAddr, workers: usize) {
    for probe in 0..workers + 2 {
        let (status, body) = http_get(addr, "/health");
        assert_eq!(status, 200, "liveness probe {probe} failed: the server stopped answering");
        assert_eq!(
            body.get("status").and_then(|v| v.as_str()),
            Some("ok"),
            "liveness probe {probe} got a malformed health body"
        );
    }
}
