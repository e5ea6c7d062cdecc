//! The nonblocking epoll driver: SO_REUSEPORT-sharded event loops that
//! feed the shared request path ([`crate::conn`]) from edge-triggered
//! readiness. Everything HTTP — parsing, routing, rendering, keep-alive
//! and pipelining rules, accounting — lives in the core; this file owns
//! sockets, the slab, and time.
//!
//! Each shard is one thread owning one `SO_REUSEPORT` listener and one
//! epoll instance — the kernel spreads incoming connections across
//! shards, so there is no accept lock and no cross-thread hand-off.
//! Within a shard everything is single-threaded: connections live in a
//! slab indexed by the epoll token and share the shard's one [`Ctx`].
//!
//! ## Readiness state machine
//!
//! Sockets are registered edge-triggered for `IN | OUT | RDHUP`. Each
//! wake-up drives one connection through three phases:
//!
//! 1. **fill** — drain the socket into the connection's buffer until
//!    `WouldBlock` (edge-triggered epoll requires draining) or EOF;
//! 2. **core** — hand the core its event ([`Conn::on_bytes`] or
//!    [`Conn::on_eof`]), which renders responses into its output buffer;
//! 3. **flush** — write the output buffer until done or `WouldBlock`;
//!    leftover bytes wait for the next `EPOLLOUT` edge.
//!
//! An idle sweep hands connections idle past the read timeout the
//! core's third event ([`Conn::on_timeout`]) and closes them. The
//! `epoll_wait` timeout is deadline-driven: it is the time until the
//! earliest idle connection's eviction deadline, capped at [`TICK_MS`]
//! (the stop-flag check cadence), so an eviction lands within about a
//! millisecond of its deadline instead of up to a full tick late.

use crate::conn::{self, Conn, Ctx};
use crate::metrics::Metrics;
use crate::server::{self, ServeConfig};
use crate::swap::SharedIndex;
use crate::sys::{self, Epoll, EpollEvent};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum epoll wait timeout: the cadence of the stop-flag check. The
/// actual timeout is the sooner of this and the earliest idle-eviction
/// deadline, so evictions are not quantized to this tick.
const TICK_MS: i32 = 25;
/// Events drained per `epoll_wait` call.
const EVENTS_CAP: usize = 256;
/// Stop the read phase and process once the buffer holds this much —
/// bounds memory against a client pipelining without bound. The loop
/// returns to reading afterwards, so nothing is lost.
const READ_LIMIT: usize = 64 * 1024;
/// Epoll token reserved for the shard's listener.
const LISTENER_TOKEN: u64 = u64::MAX;

/// Start the epoll backend: one shard thread per `config.workers`, all
/// listening on the same port via `SO_REUSEPORT`.
pub(crate) fn start(
    shared: Arc<SharedIndex>,
    metrics: Arc<Metrics>,
    config: &ServeConfig,
    stop: Arc<AtomicBool>,
) -> server::Started {
    use std::net::ToSocketAddrs;
    let requested = config.addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing")
    })?;

    // The first bind may ask for port 0; every further shard must bind
    // the concrete port the kernel picked.
    let first = sys::bind_reuseport(requested)?;
    let addr = first.local_addr()?;
    let shards = config.workers.max(1);
    let mut listeners = vec![first];
    for _ in 1..shards {
        listeners.push(sys::bind_reuseport(addr)?);
    }

    let mut threads = Vec::with_capacity(shards);
    for (i, listener) in listeners.into_iter().enumerate() {
        let ctx = Ctx::new(Arc::clone(&shared), Arc::clone(&metrics), config.recorder.clone());
        let stop = Arc::clone(&stop);
        let read_timeout = config.read_timeout;
        let max_conns = config.max_conns.max(1);
        let thread =
            std::thread::Builder::new().name(format!("scholar-epoll-{i}")).spawn(move || {
                match Shard::new(listener, ctx, read_timeout, max_conns) {
                    Ok(mut shard) => shard.run(&stop),
                    Err(e) => eprintln!("scholar-serve: epoll shard {i} failed to start: {e}"),
                }
            })?;
        threads.push(thread);
    }
    Ok((addr, threads))
}

/// One slab entry: a connection's protocol state plus the socket and
/// clock the core does not have. Field order is drop order: the core
/// goes first, so the open-connections gauge is released *before* the fd
/// closes — the close delivers EOF to the client, and a client that
/// reacts to that EOF by reading the metrics must see the gauge already
/// decremented.
struct Sock {
    core: Conn,
    stream: TcpStream,
    last_activity: Instant,
}

enum Drive {
    Keep,
    Close,
}

struct Shard {
    epoll: Epoll,
    listener: TcpListener,
    conns: Vec<Option<Sock>>,
    free: Vec<usize>,
    active: usize,
    max_conns: usize,
    read_timeout: Duration,
    ctx: Ctx,
}

impl Shard {
    fn new(
        listener: TcpListener,
        ctx: Ctx,
        read_timeout: Duration,
        max_conns: usize,
    ) -> std::io::Result<Shard> {
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), LISTENER_TOKEN, sys::EPOLLIN)?;
        Ok(Shard {
            epoll,
            listener,
            conns: Vec::new(),
            free: Vec::new(),
            active: 0,
            max_conns,
            read_timeout,
            ctx,
        })
    }

    fn run(&mut self, stop: &AtomicBool) {
        let mut events = vec![EpollEvent::zeroed(); EVENTS_CAP];
        let mut next_deadline: Option<Instant> = None;
        while !stop.load(Ordering::SeqCst) {
            // Wake for the earliest idle-eviction deadline if it is
            // sooner than the stop-check tick; round the remainder up so
            // a sub-millisecond wait cannot spin at timeout zero.
            let timeout = match next_deadline {
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    left.as_millis().saturating_add(1).min(TICK_MS as u128) as i32
                }
                None => TICK_MS,
            };
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("scholar-serve: epoll_wait failed: {e}");
                    break;
                }
            };
            if stop.load(Ordering::SeqCst) {
                break;
            }
            for ev in events.iter().take(n) {
                let (token, bits) = (ev.data, ev.events);
                if token == LISTENER_TOKEN {
                    self.accept_ready();
                } else if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0
                    && bits & (sys::EPOLLIN | sys::EPOLLOUT) == 0
                {
                    // Error-only wake: the socket is dead and there is
                    // nothing left to read or write. (A HUP with unread
                    // data arrives with EPOLLIN set and drives normally.)
                    self.close(token as usize);
                } else {
                    self.conn_ready(token as usize);
                }
            }
            next_deadline = self.sweep_idle();
        }
        self.drain_pending_writes();
    }

    /// Accept until the listener runs dry (edge-triggered discipline —
    /// level-triggered here, but draining keeps the backlog short).
    fn accept_ready(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if conn::accept_failpoint() {
                continue;
            }
            if self.active >= self.max_conns {
                // Shed at the door. The accepted socket is still
                // blocking; the small response fits in the socket
                // buffer, so this cannot stall the loop meaningfully.
                let mut stream = stream;
                let _ = stream.write_all(&conn::shed_response(&self.ctx.metrics));
                continue;
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let slot = match self.free.pop() {
                Some(s) => s,
                None => {
                    self.conns.push(None);
                    self.conns.len() - 1
                }
            };
            let interest = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
            if self.epoll.add(stream.as_raw_fd(), slot as u64, interest).is_err() {
                self.free.push(slot);
                continue;
            }
            let core = Conn::new(&self.ctx, true);
            if let Some(cell) = self.conns.get_mut(slot) {
                *cell = Some(Sock { core, stream, last_activity: Instant::now() });
            }
            self.active += 1;
        }
    }

    fn conn_ready(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // already closed this batch (e.g. error after pipelined close)
        };
        conn.last_activity = Instant::now();
        let ctx = &mut self.ctx;
        // Last-resort isolation: a bug driving one connection must not
        // take down the shard. The core already turns handler panics
        // into recorded 500s; anything reaching here is outside a
        // request, so the connection is simply dropped.
        let drove = catch_unwind(AssertUnwindSafe(|| drive(conn, ctx)));
        match drove {
            Ok(Drive::Keep) => {}
            Ok(Drive::Close) => self.close(slot),
            Err(cause) => {
                self.ctx.metrics.record_panic();
                server::log_panic("driving a connection", cause.as_ref());
                self.close(slot);
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(cell) = self.conns.get_mut(slot) {
            if let Some(conn) = cell.take() {
                // Closing the fd deregisters it; the explicit del only
                // tidies the interest list when the fd lives on (it
                // never does here, but the call is harmless).
                let _ = self.epoll.del(conn.stream.as_raw_fd());
                // All bookkeeping happens *before* the fd closes (see
                // `Sock` for why).
                self.free.push(slot);
                self.active -= 1;
                drop(conn);
            }
        }
    }

    /// Evict connections idle past the read timeout: the core decides
    /// between `408` and a silent close, the shard makes one best-effort
    /// nonblocking flush and closes. Returns the earliest eviction
    /// deadline among the surviving connections, which becomes the next
    /// `epoll_wait` timeout.
    fn sweep_idle(&mut self) -> Option<Instant> {
        let now = Instant::now();
        let timeout = self.read_timeout;
        let mut earliest: Option<Instant> = None;
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { continue };
            let idle = now.duration_since(conn.last_activity);
            if idle <= timeout {
                let deadline = conn.last_activity + timeout;
                earliest = Some(match earliest {
                    Some(e) => e.min(deadline),
                    None => deadline,
                });
                continue;
            }
            conn.core.on_timeout(&mut self.ctx, idle);
            let _ = flush(conn);
            self.close(slot);
        }
        earliest
    }

    /// Post-shutdown courtesy: responses already rendered get a short
    /// blocking window to reach their clients before the fds close.
    fn drain_pending_writes(&mut self) {
        for cell in self.conns.iter_mut() {
            if let Some(mut conn) = cell.take() {
                if !conn.core.pending().is_empty() {
                    let _ = conn.stream.set_nonblocking(false);
                    let _ = conn.stream.set_write_timeout(Some(Duration::from_millis(250)));
                    let _ = conn.stream.write_all(conn.core.pending());
                }
            }
        }
    }
}

/// Drive one woken connection through fill → core → flush, looping
/// while there is still local work (read cap hit, or the core paused on
/// its write cap and flushing freed space).
fn drive(conn: &mut Sock, ctx: &mut Ctx) -> Drive {
    loop {
        let filled = if conn.core.wants_bytes() { fill(conn) } else { Fill::Drained };
        let paused = match filled {
            Fill::Error => return Drive::Close,
            Fill::Eof => conn.core.on_eof(ctx),
            Fill::Drained | Fill::LimitHit => conn.core.on_bytes(ctx),
        };
        if let Flush::Error = flush(conn) {
            return Drive::Close;
        }
        if conn.core.finished() {
            return Drive::Close;
        }
        let resumable = paused && conn.core.pending().len() < conn::WRITE_LIMIT;
        if !matches!(filled, Fill::LimitHit) && !resumable {
            return Drive::Keep;
        }
    }
}

enum Fill {
    Drained,
    Eof,
    LimitHit,
    Error,
}

/// Read until `WouldBlock`, EOF, or the buffer cap.
fn fill(conn: &mut Sock) -> Fill {
    let mut tmp = [0u8; 4096];
    loop {
        if conn.core.buf.len() >= READ_LIMIT {
            return Fill::LimitHit;
        }
        if conn::read_failpoint() {
            return Fill::Error;
        }
        match conn.stream.read(&mut tmp) {
            Ok(0) => return Fill::Eof,
            Ok(n) => conn.core.buf.extend_from_slice(tmp.get(..n).unwrap_or_default()),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Fill::Drained,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Fill::Error,
        }
    }
}

enum Flush {
    Done,
    Error,
}

/// Write pending output until done or `WouldBlock`.
fn flush(conn: &mut Sock) -> Flush {
    loop {
        let rest = conn.core.pending();
        if rest.is_empty() {
            return Flush::Done;
        }
        if conn::write_failpoint() {
            return Flush::Error;
        }
        match conn.stream.write(rest) {
            Ok(0) => return Flush::Error,
            Ok(n) => conn.core.advance(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Flush::Done,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Flush::Error,
        }
    }
}
