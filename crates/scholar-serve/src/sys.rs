//! Thin, audited wrappers over the Linux syscalls the event loop needs:
//! `epoll` and `SO_REUSEPORT` listener setup.
//!
//! The symbols are declared directly against libc — which std already
//! links on Linux — so this stays inside the workspace's no-new-crates
//! discipline. Every raw fd is wrapped in an [`OwnedFd`] (or a std
//! socket type) the moment it is created, so close-on-drop and error
//! unwinding are std's problem, not ours; the `unsafe` surface is the
//! syscall boundary itself, each call annotated with the invariant that
//! makes it sound.
//!
//! The numeric constants are the shared Linux ABI values used by
//! x86_64, aarch64, and riscv64 (the architectures CI and the bench
//! hardware cover); the whole module is compiled only on
//! `cfg(target_os = "linux")`, the one platform the server runs on.

use core::ffi::{c_int, c_void};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

// Declarations only — the definitions live in the libc std links.
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn bind(fd: c_int, addr: *const c_void, addrlen: u32) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
}

/// Readable (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`); always reported, never needs arming.
pub const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`); always reported, never needs arming.
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery (`EPOLLET`).
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;

const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;
const SO_REUSEPORT: c_int = 15;
/// Accept backlog for event-loop listeners. Large: the loop drains
/// accepts every tick, and SYN floods are bounded by the kernel anyway.
const LISTEN_BACKLOG: c_int = 1024;

/// One `struct epoll_event`. Packed on x86_64 (a kernel ABI quirk of
/// that architecture alone), naturally aligned elsewhere. Fields are
/// only ever read by value — no references into the packed layout.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub struct EpollEvent {
    /// Ready-event bitmask (`EPOLLIN` | …).
    pub events: u32,
    /// The caller's token, returned verbatim with each event.
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event, for pre-sizing wait buffers.
    pub const fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }
}

/// An owned epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Create a new epoll instance (close-on-exec).
    pub fn new() -> io::Result<Epoll> {
        let fd =
            // SAFETY: epoll_create1 reads no memory; the flag is a valid
            // constant from the kernel ABI.
            unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let fd =
            // SAFETY: `fd` was just returned by a successful epoll_create1,
            // so it is open and owned by no other wrapper.
            unsafe { OwnedFd::from_raw_fd(fd) };
        Ok(Epoll { fd })
    }

    /// Register `fd` for `events`, tagging its readiness with `token`.
    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        let rc =
            // SAFETY: `ev` is a live, initialized epoll_event for the whole
            // call; the kernel copies it before epoll_ctl returns. `fd` is a
            // caller-owned open descriptor.
            unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_ADD, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Deregister `fd`. Harmless to call on an fd the kernel already
    /// dropped from the interest list (closing an fd deregisters it).
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        let rc =
            // SAFETY: a null event pointer is explicitly allowed for
            // EPOLL_CTL_DEL since Linux 2.6.9; no memory is read or written.
            unsafe { epoll_ctl(self.fd.as_raw_fd(), EPOLL_CTL_DEL, fd, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Wait for readiness, filling `events` from the front; returns how
    /// many entries are valid. `timeout_ms < 0` blocks indefinitely.
    /// Retries transparently on `EINTR`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let cap = events.len().min(i32::MAX as usize) as c_int;
        loop {
            let rc =
                // SAFETY: `events` points at `cap` writable epoll_event
                // slots owned by the caller for the duration of the call;
                // the kernel writes at most `cap` of them.
                unsafe { epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), cap, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// IPv4 `struct sockaddr_in`; `sin_port`/`sin_addr` in network order.
#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

/// IPv6 `struct sockaddr_in6`.
#[repr(C)]
struct SockAddrIn6 {
    sin6_family: u16,
    sin6_port: u16,
    sin6_flowinfo: u32,
    sin6_addr: [u8; 16],
    sin6_scope_id: u32,
}

/// Bind a nonblocking TCP listener on `addr` with `SO_REUSEPORT` (and
/// `SO_REUSEADDR`) set *before* the bind — the one step std's
/// `TcpListener::bind` cannot do, and the whole reason this function
/// exists: N listeners on one port let the kernel shard accepted
/// connections across event-loop threads with no user-space handoff.
pub fn bind_reuseport(addr: SocketAddr) -> io::Result<TcpListener> {
    let family = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
    let fd =
        // SAFETY: socket() reads no memory; the arguments are valid ABI
        // constants.
        unsafe { socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let owned =
        // SAFETY: `fd` was just returned by a successful socket() call and
        // has no other owner; from here on, drop of `owned` closes it on
        // every error path.
        unsafe { OwnedFd::from_raw_fd(fd) };
    set_int_opt(&owned, SOL_SOCKET, SO_REUSEADDR, 1)?;
    set_int_opt(&owned, SOL_SOCKET, SO_REUSEPORT, 1)?;

    let rc = match addr {
        SocketAddr::V4(v4) => {
            let sa = SockAddrIn {
                sin_family: AF_INET as u16,
                sin_port: v4.port().to_be(),
                // in_addr is "the octets, in memory order".
                sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                sin_zero: [0; 8],
            };
            // SAFETY: `sa` is a live, fully initialized sockaddr_in and
            // the length matches its size; bind copies it synchronously.
            unsafe {
                bind(
                    owned.as_raw_fd(),
                    (&sa as *const SockAddrIn).cast::<c_void>(),
                    std::mem::size_of::<SockAddrIn>() as u32,
                )
            }
        }
        SocketAddr::V6(v6) => {
            let sa = SockAddrIn6 {
                sin6_family: AF_INET6 as u16,
                sin6_port: v6.port().to_be(),
                sin6_flowinfo: v6.flowinfo().to_be(),
                sin6_addr: v6.ip().octets(),
                sin6_scope_id: v6.scope_id(),
            };
            // SAFETY: same shape as the IPv4 arm — live struct, length
            // matches, copied synchronously.
            unsafe {
                bind(
                    owned.as_raw_fd(),
                    (&sa as *const SockAddrIn6).cast::<c_void>(),
                    std::mem::size_of::<SockAddrIn6>() as u32,
                )
            }
        }
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let rc =
        // SAFETY: listen reads no memory; `owned` is a bound stream socket.
        unsafe { listen(owned.as_raw_fd(), LISTEN_BACKLOG) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let listener = TcpListener::from(owned);
    listener.set_nonblocking(true)?;
    Ok(listener)
}

fn set_int_opt(fd: &OwnedFd, level: c_int, name: c_int, value: c_int) -> io::Result<()> {
    let rc =
        // SAFETY: optval points at a live c_int on this stack frame and
        // optlen matches its size exactly; setsockopt copies it.
        unsafe {
        setsockopt(
            fd.as_raw_fd(),
            level,
            name,
            (&value as *const c_int).cast::<c_void>(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    #[test]
    fn two_listeners_share_one_port() {
        let a = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = a.local_addr().unwrap();
        // Binding the *same concrete port* again must succeed — that is
        // the SO_REUSEPORT contract sharding depends on.
        let b = bind_reuseport(addr).unwrap();
        assert_eq!(b.local_addr().unwrap().port(), addr.port());
    }

    #[test]
    fn epoll_reports_readability_with_the_registered_token() {
        let listener = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(listener.as_raw_fd(), 7, EPOLLIN).unwrap();

        let mut events = [EpollEvent::zeroed(); 8];
        // Nothing pending yet: a zero-timeout wait comes back empty.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        let mut client = TcpStream::connect(addr).unwrap();
        let n = ep.wait(&mut events, 2_000).unwrap();
        assert_eq!(n, 1);
        // Copy packed fields out by value before asserting (a reference
        // into the packed layout would be unaligned on x86_64).
        let (data, bits) = (events[0].data, events[0].events);
        assert_eq!(data, 7);
        assert_ne!(bits & EPOLLIN, 0);

        // The accepted socket works like any std stream.
        let (mut conn, _) = listener.accept().unwrap();
        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        conn.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        ep.del(listener.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn ipv6_loopback_binds_too() {
        // Some CI sandboxes disable IPv6; only assert when bind works.
        if let Ok(l) = bind_reuseport("[::1]:0".parse().unwrap()) {
            let addr = l.local_addr().unwrap();
            assert!(bind_reuseport(addr).is_ok());
        }
    }
}
