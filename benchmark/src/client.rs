//! The load model's client half: one keep-alive connection, closed loop,
//! `depth` pipelined requests per write, every response framed by its
//! exact `Content-Length` and checked before the next write goes out.
//!
//! The measuring client busy-polls ([`Conn::busy_poll`]): a client that
//! sleeps in `read` adds its own wake-up — an inter-processor interrupt
//! and a trip through the hypervisor on the sandbox — to every sample and
//! to every server `write`. Polling took the depth-1 p50 of `serve-hot`
//! from 43 µs to 27 µs and the server's CPU per response from 3.6 µs to
//! 2.6 µs, and what is left repeats within 1 %: the server's cost rather
//! than the client's.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The request bytes for `GET target` on a keep-alive connection (the
/// server's keep-alive is opt-in, so the header is explicit).
pub fn request_bytes(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n").into_bytes()
}

/// Where one response sits in a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framed {
    pub status: u16,
    /// Bytes of head, through the blank line.
    pub head_len: usize,
    /// Bytes of body, exactly as `Content-Length` declared.
    pub body_len: usize,
}

impl Framed {
    pub fn total(&self) -> usize {
        self.head_len + self.body_len
    }
}

/// Why a byte stream is not a sequence of well-framed responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    BadStatusLine,
    MissingContentLength,
    HeadTooLong,
}

/// Upper bound on a response head; the server's heads are ~100 bytes.
const MAX_HEAD: usize = 8 * 1024;

/// Try to frame one response at the start of `buf`. `Ok(None)` means
/// more bytes are needed — the caller reads and retries with the longer
/// buffer, so a head or body split across reads frames identically to
/// one that arrived whole.
pub fn frame_response(buf: &[u8]) -> Result<Option<Framed>, FrameError> {
    let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4) else {
        return if buf.len() > MAX_HEAD { Err(FrameError::HeadTooLong) } else { Ok(None) };
    };
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| FrameError::BadStatusLine)?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.get(..3))
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or(FrameError::BadStatusLine)?;
    let body_len = lines
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse::<usize>().ok())
        })
        .flatten()
        .ok_or(FrameError::MissingContentLength)?;
    Ok((buf.len() >= head_len + body_len).then_some(Framed { status, head_len, body_len }))
}

/// Why an exchange failed. Every variant is one failed operation in the
/// result; none of them is retried.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    Frame(FrameError),
    /// The server closed the connection mid-exchange.
    Closed,
    /// No byte arrived within [`RESPONSE_DEADLINE`].
    TimedOut,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Frame(e) => write!(f, "unframeable response: {e:?}"),
            ClientError::Closed => write!(f, "connection closed mid-exchange"),
            ClientError::TimedOut => write!(f, "no response within {RESPONSE_DEADLINE:?}"),
        }
    }
}

/// A server that stops answering fails the operation instead of hanging
/// the run past the driver's time limit.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(30);
/// Polls between two looks at the clock while busy-polling.
const POLLS_PER_CLOCK_CHECK: u32 = 1 << 16;

/// One keep-alive connection with its read buffer.
pub struct Conn {
    stream: TcpStream,
    /// Busy-poll a non-blocking socket instead of sleeping in `read`.
    polling: bool,
    /// Fixed-length scratch (grown only for a response larger than it);
    /// the unconsumed bytes are `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_DEADLINE))?;
        Ok(Conn { stream, polling: false, buf: vec![0; 256 * 1024], start: 0, end: 0 })
    }

    /// Switch to busy-polling: the calling thread spins on a non-blocking
    /// socket and never sleeps in the kernel while a response is due.
    pub fn busy_poll(mut self) -> std::io::Result<Conn> {
        self.stream.set_nonblocking(true)?;
        self.polling = true;
        Ok(self)
    }

    /// Spin once; `Err` when `since` is more than the deadline ago.
    fn poll_again(polls: &mut u32, since: Instant) -> Result<(), ClientError> {
        std::hint::spin_loop();
        *polls = polls.wrapping_add(1);
        if polls.is_multiple_of(POLLS_PER_CLOCK_CHECK) && since.elapsed() > RESPONSE_DEADLINE {
            return Err(ClientError::TimedOut);
        }
        Ok(())
    }

    fn send(&mut self, mut bytes: &[u8]) -> Result<(), ClientError> {
        if !self.polling {
            return self.stream.write_all(bytes).map_err(ClientError::Io);
        }
        let (since, mut polls) = (Instant::now(), 0);
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(ClientError::Closed),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => Self::poll_again(&mut polls, since)?,
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
        Ok(())
    }

    /// Write `requests` (one or more concatenated request heads) in one
    /// call, then read exactly `expect` responses, handing each to
    /// `on_response(status, body)`.
    pub fn exchange(
        &mut self,
        requests: &[u8],
        expect: usize,
        mut on_response: impl FnMut(u16, &[u8]),
    ) -> Result<(), ClientError> {
        self.send(requests)?;
        for _ in 0..expect {
            let framed = self.fill_one()?;
            let body_start = self.start + framed.head_len;
            on_response(framed.status, &self.buf[body_start..body_start + framed.body_len]);
            self.start += framed.total();
        }
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(())
    }

    /// Read until one whole response sits at `self.start`.
    fn fill_one(&mut self) -> Result<Framed, ClientError> {
        let (since, mut polls) = (Instant::now(), 0);
        loop {
            let pending = &self.buf[self.start..self.end];
            if let Some(f) = frame_response(pending).map_err(ClientError::Frame)? {
                return Ok(f);
            }
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.end == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(ClientError::Closed),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if self.polling && e.kind() == ErrorKind::WouldBlock => {
                    Self::poll_again(&mut polls, since)?
                }
                // A blocking socket reports its read timeout this way.
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Err(ClientError::TimedOut),
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// One request, one response, body copied out.
    pub fn get(&mut self, target: &str) -> Result<(u16, Vec<u8>), ClientError> {
        let mut out = (0, Vec::new());
        self.exchange(&request_bytes(target), 1, |status, body| out = (status, body.to_vec()))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE: &[u8] =
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"count\":0}";

    #[test]
    fn frames_identically_at_every_split_point() {
        let want = Framed { status: 200, head_len: ONE.len() - 11, body_len: 11 };
        for cut in 0..ONE.len() {
            assert_eq!(frame_response(&ONE[..cut]), Ok(None), "prefix of {cut} bytes");
        }
        assert_eq!(frame_response(ONE), Ok(Some(want)));
        // Two pipelined responses in one buffer: only the first is framed,
        // and the remainder frames on its own.
        let mut two = ONE.to_vec();
        two.extend_from_slice(ONE);
        let first = frame_response(&two).unwrap().unwrap();
        assert_eq!(first, want);
        assert_eq!(frame_response(&two[first.total()..]), Ok(Some(want)));
    }

    #[test]
    fn rejects_streams_that_are_not_responses() {
        assert_eq!(frame_response(b"SSH-2.0-x\r\n\r\n"), Err(FrameError::BadStatusLine));
        assert_eq!(
            frame_response(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n"),
            Err(FrameError::MissingContentLength)
        );
        assert_eq!(frame_response(&vec![b'x'; MAX_HEAD + 1]), Err(FrameError::HeadTooLong));
        let err = frame_response(b"HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\n{}");
        assert_eq!(err, Ok(Some(Framed { status: 404, head_len: 45, body_len: 2 })));
    }

    #[test]
    fn exchange_reassembles_responses_split_across_reads() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            let mut sink = [0u8; 1024];
            let _ = s.read(&mut sink).unwrap();
            // Three responses dribbled out in pieces that straddle every
            // boundary; each piece waits for the client to have asked
            // for more, so the splits really land in separate reads.
            let mut all = Vec::new();
            for _ in 0..3 {
                all.extend_from_slice(ONE);
            }
            for piece in all.chunks(37) {
                s.write_all(piece).unwrap();
                let _ = go_rx.recv_timeout(Duration::from_millis(20));
            }
        });
        let mut conn = Conn::connect(addr).unwrap().busy_poll().unwrap();
        let mut seen = Vec::new();
        conn.exchange(b"GET /x HTTP/1.1\r\n\r\n", 3, |status, body| {
            seen.push((status, body.to_vec()));
            let _ = go_tx.send(());
        })
        .unwrap();
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|(s, b)| *s == 200 && b == b"{\"count\":0}"));
        server.join().unwrap();
    }
}
