#![warn(missing_docs)]

//! Query serving for query-independent rankings.
//!
//! The paper's central observation — article importance can be computed
//! *independently of any query* — turns serving into an indexing problem:
//! all the ranking work happens at publish time, and a request is a
//! prefix scan. This crate is the subsystem that exploits that:
//!
//! - [`ScoreIndex`] (in [`index`]): an immutable, query-ready index over
//!   one `(corpus, scores)` pair — globally sorted order, per-venue /
//!   per-author / per-year posting lists, and an `explain`-style
//!   per-article lookup. Filtered and unfiltered top-k answers match
//!   [`scholar_rank::scores::top_k`] exactly, ties included.
//! - [`SharedIndex`] + [`Reindexer`] (in [`swap`]): zero-downtime
//!   publication. Queries snapshot an `Arc` of the current index; a
//!   background thread folds corpus batches through
//!   [`qrank::IncrementalRanker`] and atomically publishes fresh
//!   generations.
//! - [`conn`] + [`http`] + [`server`]: a std-only HTTP/1.1 front end
//!   with one request path. [`conn`] is a sans-IO connection core —
//!   parse, route, render, count, record; `400`/`405`/`408`/`414`/`500`
//!   — fed by a nonblocking `SO_REUSEPORT`-sharded epoll event loop with
//!   keep-alive and pipelining, which sheds load with `503` at the door
//!   and drains gracefully on shutdown. Serving needs Linux; off it,
//!   [`serve`] is an `Unsupported` error. Endpoints: `GET /top`,
//!   `GET /article/{id}`, `GET /health`, `GET /metrics`.
//! - [`Metrics`] (in [`metrics`]): lock-free counters and a log-spaced
//!   latency histogram behind `GET /metrics`.
//!
//! ```no_run
//! use scholar_serve::{serve, Metrics, Reindexer, ServeConfig};
//! use std::sync::Arc;
//!
//! let corpus = scholar_corpus::generator::Preset::Tiny.generate(7);
//! let (shared, reindexer) =
//!     Reindexer::start(qrank::QRankConfig::default(), corpus, |_| {});
//! let metrics = Arc::new(Metrics::new());
//! let mut server = serve(shared, metrics, &ServeConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! // ... submit batches via `reindexer.submit(...)`; queries never block ...
//! server.shutdown();
//! reindexer.shutdown();
//! ```

/// Named fault-injection site (see `scholar-testkit`). With the
/// `failpoints` feature on, evaluates the site in the testkit registry:
/// the unit form can delay or panic; the two-argument form additionally
/// runs its second argument (typically `return Err(..)` or `continue`)
/// when the site's schedule says *trigger*. Without the feature the
/// macro expands to nothing at all — no branch, no registry, no
/// dependency.
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

pub mod conn;
#[cfg(target_os = "linux")]
mod epoll;
pub mod http;
pub mod index;
pub mod metrics;
pub mod record;
pub mod server;
pub mod shadow;
pub mod snapshot;
pub mod swap;
#[cfg(target_os = "linux")]
pub(crate) mod sys;
pub mod wal;

pub use index::{ArticleDetail, Hit, Placement, ScoreIndex, TopQuery};
pub use metrics::Metrics;
pub use record::{read_rlog, write_rlog, RecordLog, Recorder, ReqRecord};
pub use server::{respond, serve, Backend, ServeConfig, ServerHandle};
pub use shadow::{ShadowReport, ShadowThresholds};
pub use snapshot::{load_snapshot, write_snapshot, RestoredState, StateError};
pub use swap::{DurableOptions, RecoveryReport, Reindexer, SharedIndex, SubmitError};
pub use wal::{Replay, Wal};
