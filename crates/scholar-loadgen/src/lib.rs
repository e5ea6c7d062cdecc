#![warn(missing_docs)]

//! Deterministic HTTP replay driver for `scholar-serve`.
//!
//! The workspace's one Rust HTTP client: it re-issues a recorded RLOGv1
//! request log against a live server, preserving per-connection request
//! order, and folds every response into per-endpoint digests that are a
//! pure function of (log, server state) — see [`mod@replay`]. Each response
//! is framed byte-exactly off the socket (a torn response is a transport
//! error, not a fast sample) and timed into an HDR-style [`Histogram`]
//! (log2 octaves, linear subbuckets — see [`hist`]).
//!
//! Load for performance claims comes from the `benchmark/` ledger's
//! pinned closed-loop client, not from this crate.
//!
//! ```no_run
//! use scholar_loadgen::{replay, ReplayConfig};
//! let log = scholar_serve::read_rlog(std::path::Path::new("traffic.rlog")).unwrap();
//! let report = replay(
//!     &log.records,
//!     &ReplayConfig { addr: "127.0.0.1:8080".parse().unwrap(), ..Default::default() },
//! )
//! .unwrap();
//! print!("{}", report.format_digests());
//! ```

pub mod hist;
pub mod replay;

pub use hist::Histogram;
pub use replay::{parse_digests, replay, ReplayConfig, ReplayReport};
