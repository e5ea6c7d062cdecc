//! A deliberately small HTTP/1.1 layer over `std::net`: enough to parse
//! `GET` requests defensively and write JSON responses. No external
//! dependencies, no chunked bodies — the serving API is read-only and
//! every response is a single JSON document, so the simplest correct
//! subset of the protocol wins.
//!
//! One parser: [`try_parse_head`] parses a head out of an in-memory byte
//! buffer incrementally, reporting `NeedMore` until the terminator
//! arrives, and honouring an explicit `Connection: keep-alive` request
//! header. Keep-alive is opt-in rather than the HTTP/1.1 default so
//! clients that read to EOF keep working unchanged. The connection core
//! ([`crate::conn`]) is its only serving caller.
//!
//! Defensive posture (each mapped to a distinct status):
//! - request line longer than [`MAX_REQUEST_LINE`] → `414`
//! - header block longer than [`MAX_HEAD`] → `400`
//! - any method but `GET` → `405`
//! - malformed query values (`k=banana`) → `400`, reported per-parameter
//!
//! EOF before the terminator (`400`) and a stalled head (`408`) are
//! connection events, not parse results: see [`crate::conn`].
//!
//! The response-rendering half is allocation-disciplined: head and error
//! rendering append into caller-owned arenas ([`write_response_head`],
//! [`write_error_response`]) instead of `format!`-ing fresh `String`s,
//! so the steady state does not touch the allocator.

/// Longest accepted request line (`GET <target> HTTP/1.1`).
pub const MAX_REQUEST_LINE: usize = 4096;
/// Longest accepted request head (request line + all headers).
pub const MAX_HEAD: usize = 16 * 1024;

/// A parsed request target: path plus decoded query parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// URL path, percent-decoded (e.g. `/article/17`).
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub query: Vec<(String, String)>,
}

impl Request {
    /// First value of query parameter `key`, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be served. Ordered roughly by how early in the
/// connection lifecycle each is detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Request line exceeded [`MAX_REQUEST_LINE`] → `414 URI Too Long`.
    RequestLineTooLong,
    /// Head exceeded [`MAX_HEAD`], or a request line that is not
    /// `METHOD TARGET VERSION` → `400 Bad Request`.
    Malformed(String),
    /// Parsed fine but the method is not `GET` → `405`.
    MethodNotAllowed(String),
}

impl HttpError {
    /// The response status code for this error.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::RequestLineTooLong => 414,
            HttpError::Malformed(_) => 400,
            HttpError::MethodNotAllowed(_) => 405,
        }
    }

    /// Human-readable cause, embedded in the JSON error body.
    pub fn message(&self) -> String {
        match self {
            HttpError::RequestLineTooLong => {
                format!("request line exceeds {MAX_REQUEST_LINE} bytes")
            }
            HttpError::Malformed(why) => why.clone(),
            HttpError::MethodNotAllowed(m) => format!("method {m} not allowed (only GET)"),
        }
    }
}

/// Position just past the `\r\n\r\n` (or bare `\n\n`) head terminator.
fn find_terminator(head: &[u8]) -> Option<usize> {
    head.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .or_else(|| head.windows(2).position(|w| w == b"\n\n").map(|p| p + 2))
}

/// One request head parsed out of a connection's read buffer by
/// [`try_parse_head`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedHead {
    /// The parsed request (path + decoded query).
    pub req: Request,
    /// Bytes consumed from the buffer, through the head terminator.
    /// The caller drains `consumed` bytes and re-parses whatever
    /// remains — the remainder is the next pipelined request.
    pub consumed: usize,
    /// The client sent an explicit `Connection: keep-alive`. Absent the
    /// header (or on `Connection: close`) the connection closes after
    /// the response, regardless of HTTP version — see the module docs
    /// for why keep-alive is opt-in here.
    pub keep_alive: bool,
    /// Byte range of the raw (undecoded) request target within the
    /// buffer. Used as a response-cache key: comparing raw bytes is
    /// exact (two targets with the same raw bytes decode identically)
    /// and costs no allocation.
    pub target: core::ops::Range<usize>,
}

/// Incrementally parse one request head out of `buf`.
///
/// Returns `Ok(None)` when the terminator has not arrived yet (the
/// caller should read more bytes and retry with the grown buffer) —
/// but still enforces [`MAX_REQUEST_LINE`] / [`MAX_HEAD`] on the
/// partial data, so a connection trickling an unbounded head is
/// rejected as soon as it crosses a limit, not when it finishes.
pub fn try_parse_head(buf: &[u8]) -> Result<Option<ParsedHead>, HttpError> {
    let Some(consumed) = find_terminator(buf) else {
        // If the request line is already over budget there is no point
        // buffering the rest.
        if !buf.contains(&b'\n') && buf.len() > MAX_REQUEST_LINE {
            return Err(HttpError::RequestLineTooLong);
        }
        if buf.len() > MAX_HEAD {
            return Err(HttpError::Malformed(format!("request head exceeds {MAX_HEAD} bytes")));
        }
        return Ok(None);
    };
    if consumed > MAX_HEAD {
        return Err(HttpError::Malformed(format!("request head exceeds {MAX_HEAD} bytes")));
    }
    let head = buf.get(..consumed).unwrap_or_default();
    let Some(line_end) = head.iter().position(|&b| b == b'\n') else {
        return Err(HttpError::Malformed("request head has no request line".into()));
    };
    if line_end > MAX_REQUEST_LINE {
        return Err(HttpError::RequestLineTooLong);
    }
    let line_bytes = head.get(..line_end).unwrap_or_default();
    let line = String::from_utf8_lossy(line_bytes);
    let req = parse_request_line(line.trim_end_matches(['\r', '\n']))?;
    let target = target_range(line_bytes);
    let keep_alive = wants_keep_alive(head.get(line_end + 1..).unwrap_or_default());
    Ok(Some(ParsedHead { req, consumed, keep_alive, target }))
}

/// Byte range of the second whitespace-delimited token of `line` — the
/// request target. Empty on a degenerate line; the caller only uses the
/// range as a cache key, so an empty key merely misses the cache.
fn target_range(line: &[u8]) -> core::ops::Range<usize> {
    let is_ws = |b: u8| b == b' ' || b == b'\t';
    let mut i = 0;
    while line.get(i).is_some_and(|&b| !is_ws(b)) {
        i += 1; // skip the method token
    }
    while line.get(i).is_some_and(|&b| is_ws(b)) {
        i += 1;
    }
    let start = i;
    while line.get(i).is_some_and(|&b| !is_ws(b) && b != b'\r') {
        i += 1;
    }
    start..i
}

/// Whether the header block carries an explicit `Connection: keep-alive`.
///
/// The Connection header value is a comma-separated option list; an
/// explicit `close` anywhere in it wins over `keep-alive`.
fn wants_keep_alive(headers: &[u8]) -> bool {
    for raw in headers.split(|&b| b == b'\n') {
        let line = String::from_utf8_lossy(raw);
        let Some((name, value)) = line.split_once(':') else { continue };
        if !name.trim().eq_ignore_ascii_case("connection") {
            continue;
        }
        let mut keep = false;
        for opt in value.split(',') {
            let opt = opt.trim();
            if opt.eq_ignore_ascii_case("close") {
                return false;
            }
            if opt.eq_ignore_ascii_case("keep-alive") {
                keep = true;
            }
        }
        return keep;
    }
    false
}

fn parse_request_line(line: &str) -> Result<Request, HttpError> {
    let mut parts = line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "request line is not 'METHOD TARGET VERSION': {line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported protocol version {version:?}")));
    }
    if method != "GET" {
        return Err(HttpError::MethodNotAllowed(method.to_string()));
    }
    Ok(parse_target(target))
}

/// Parse a bare request target (`/top?k=5&venue=X`) into a [`Request`],
/// exactly as the request-line parser would — same percent decoding,
/// same query splitting. This is what lets a recorded raw target (RLOGv1
/// stores targets verbatim off the wire) be re-interpreted offline:
/// the promotion gate routes a recorded target through the same parse
/// the live server used.
pub fn parse_target(target: &str) -> Request {
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect();
    Request { path: percent_decode(path), query }
}

/// Decode `%XX` escapes and `+`-for-space. Invalid escapes pass through
/// literally (they can only make lookups miss, never panic).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&byte) = bytes.get(i) {
        match byte {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex_val(bytes.get(i + 1)), hex_val(bytes.get(i + 2))) {
                (Some(h), Some(l)) => {
                    out.push(h << 4 | l);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: Option<&u8>) -> Option<u8> {
    match b {
        Some(c @ b'0'..=b'9') => Some(c - b'0'),
        Some(c @ b'a'..=b'f') => Some(c - b'a' + 10),
        Some(c @ b'A'..=b'F') => Some(c - b'A' + 10),
        _ => None,
    }
}

/// Standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        414 => "URI Too Long",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Append the decimal rendering of a `u64` to a buffer without
/// allocating: `sjson`'s integer writer, the one every body and head
/// shares.
pub use sjson::write_u64;

/// Append one complete HTTP/1.1 response head (status line + headers +
/// blank line) to `out` without allocating. The caller appends exactly
/// `content_length` body bytes after it.
pub fn write_response_head(
    out: &mut Vec<u8>,
    status: u16,
    content_length: usize,
    keep_alive: bool,
) {
    out.extend_from_slice(b"HTTP/1.1 ");
    write_u64(out, u64::from(status));
    out.push(b' ');
    out.extend_from_slice(reason(status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: application/json\r\nContent-Length: ");
    write_u64(out, content_length as u64);
    out.extend_from_slice(if keep_alive {
        b"\r\nConnection: keep-alive\r\n\r\n".as_slice()
    } else {
        b"\r\nConnection: close\r\n\r\n".as_slice()
    });
}

/// Append one complete error response (head + the body [`error_body`]
/// renders to, byte for byte) to `out` without allocating. `scratch` is
/// a caller-owned arena the body is staged in so its length is known
/// before the head is written; it is cleared first.
pub fn write_error_response(
    out: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    status: u16,
    message: &str,
    keep_alive: bool,
) {
    scratch.clear();
    scratch.extend_from_slice(b"{\"error\":");
    sjson::write_str(scratch, reason(status));
    scratch.extend_from_slice(b",\"status\":");
    sjson::write_number(scratch, f64::from(status));
    scratch.extend_from_slice(b",\"message\":");
    sjson::write_str(scratch, message);
    scratch.push(b'}');
    write_response_head(out, status, scratch.len(), keep_alive);
    out.extend_from_slice(scratch);
}

/// The JSON error body every non-2xx response carries.
pub fn error_body(status: u16, message: &str) -> sjson::Value {
    sjson::ObjectBuilder::new()
        .field("error", reason(status))
        .field("status", status as i64)
        .field("message", message)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        try_parse_head(raw.as_bytes()).map(|head| head.expect("a complete head").req)
    }

    #[test]
    fn parses_simple_get_with_query() {
        let r = parse("GET /top?k=5&venue=ICDE HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.path, "/top");
        assert_eq!(r.param("k"), Some("5"));
        assert_eq!(r.param("venue"), Some("ICDE"));
        assert_eq!(r.param("nope"), None);
    }

    #[test]
    fn percent_decoding_applies_to_path_and_params() {
        let r = parse("GET /top?author=Ada%20Lovelace&x=a%2Bb+c HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.param("author"), Some("Ada Lovelace"));
        assert_eq!(r.param("x"), Some("a+b c"));
        // Invalid escapes survive literally instead of erroring.
        assert_eq!(percent_decode("100%_x%zz"), "100%_x%zz");
    }

    #[test]
    fn oversized_request_line_is_414() {
        let raw = format!("GET /top?junk={} HTTP/1.1\r\n\r\n", "x".repeat(MAX_REQUEST_LINE));
        assert_eq!(parse(&raw), Err(HttpError::RequestLineTooLong));
        assert_eq!(HttpError::RequestLineTooLong.status(), 414);
    }

    #[test]
    fn oversized_head_is_400() {
        // Whether or not the terminator has arrived, and however the
        // bytes were chunked on the way in: one byte over is over.
        let pad = |n: usize| format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n", "y".repeat(n));
        let open = pad(MAX_HEAD + 10);
        let fits = pad(MAX_HEAD - 27) + "\r\n";
        let over = pad(MAX_HEAD - 26) + "\r\n";
        assert_eq!((fits.len(), over.len()), (MAX_HEAD, MAX_HEAD + 1));
        assert!(parse(&fits).is_ok());
        for raw in [open, over] {
            let err = parse(&raw).unwrap_err();
            assert_eq!(err.status(), 400);
            assert!(err.message().contains("head exceeds"));
        }
    }

    #[test]
    fn garbage_request_line_is_400() {
        for raw in ["WHAT\r\n\r\n", "GET /top\r\n\r\n", "GET /x SMTP/3 extra\r\n\r\n"] {
            assert_eq!(parse(raw).unwrap_err().status(), 400, "raw = {raw:?}");
        }
        // Unsupported protocol version.
        assert_eq!(parse("GET / HTTP/3.0\r\n\r\n").unwrap_err().status(), 400);
    }

    #[test]
    fn non_get_is_405() {
        let err = parse("POST /top HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::MethodNotAllowed("POST".to_string()));
        assert_eq!(err.status(), 405);
    }

    #[test]
    fn response_bytes_are_well_formed() {
        let body = sjson::ObjectBuilder::new().field("ok", true).build().to_string_compact();
        let mut raw = Vec::new();
        write_response_head(&mut raw, 200, body.len(), false);
        raw.extend_from_slice(body.as_bytes());
        let text = String::from_utf8(raw).unwrap();
        let (head, payload) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(head.contains("Content-Type: application/json"));
        assert!(head.contains(&format!("Content-Length: {}", payload.len())));
        assert!(head.contains("Connection: close"));
        assert_eq!(sjson::parse(payload).unwrap().get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn error_body_names_the_status() {
        let v = error_body(404, "no such article");
        assert_eq!(v.get("status").unwrap().as_i64(), Some(404));
        assert_eq!(v.get("error").unwrap().as_str(), Some("Not Found"));
        assert_eq!(v.get("message").unwrap().as_str(), Some("no such article"));
    }

    #[test]
    fn try_parse_needs_more_until_terminator_arrives() {
        let full = b"GET /top?k=3 HTTP/1.1\r\nHost: x\r\n\r\n";
        // Every strict prefix is NeedMore; the full head parses.
        for cut in 0..full.len() - 1 {
            assert_eq!(try_parse_head(&full[..cut]).unwrap(), None, "cut={cut}");
        }
        let h = try_parse_head(full).unwrap().unwrap();
        assert_eq!(h.req.path, "/top");
        assert_eq!(h.req.param("k"), Some("3"));
        assert_eq!(h.consumed, full.len());
        assert!(!h.keep_alive);
        assert_eq!(&full[h.target.clone()], b"/top?k=3");
    }

    #[test]
    fn try_parse_consumed_splits_pipelined_requests() {
        let raw = b"GET /health HTTP/1.1\r\n\r\nGET /top?k=1 HTTP/1.1\r\n\r\n".to_vec();
        let first = try_parse_head(&raw).unwrap().unwrap();
        assert_eq!(first.req.path, "/health");
        let rest = &raw[first.consumed..];
        let second = try_parse_head(rest).unwrap().unwrap();
        assert_eq!(second.req.path, "/top");
        assert_eq!(second.consumed, rest.len());
        assert_eq!(&rest[second.target.clone()], b"/top?k=1");
    }

    #[test]
    fn keep_alive_is_explicit_opt_in() {
        let parse_ka = |head: &str| try_parse_head(head.as_bytes()).unwrap().unwrap().keep_alive;
        // No Connection header → close, even on HTTP/1.1.
        assert!(!parse_ka("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
        assert!(parse_ka("GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"));
        // Case-insensitive name and value.
        assert!(parse_ka("GET / HTTP/1.1\r\nCONNECTION: Keep-Alive\r\n\r\n"));
        assert!(!parse_ka("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        // close anywhere in the option list wins.
        assert!(!parse_ka("GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n"));
        assert!(parse_ka("GET / HTTP/1.1\r\nConnection: foo, keep-alive\r\n\r\n"));
    }

    #[test]
    fn try_parse_enforces_limits_on_partial_heads() {
        // Oversized request line with no newline yet → 414 immediately.
        let long = format!("GET /{}", "x".repeat(MAX_REQUEST_LINE));
        assert_eq!(try_parse_head(long.as_bytes()), Err(HttpError::RequestLineTooLong));
    }

    #[test]
    fn write_u64_renders_decimal() {
        for v in [0u64, 1, 9, 10, 204, 65535, u64::MAX] {
            let mut out = Vec::new();
            write_u64(&mut out, v);
            assert_eq!(String::from_utf8(out).unwrap(), v.to_string());
        }
    }

    #[test]
    fn written_head_matches_format_rendering() {
        for (status, len, ka) in [(200u16, 0usize, false), (404, 123, true), (500, 9999, false)] {
            let mut out = Vec::new();
            write_response_head(&mut out, status, len, ka);
            let conn = if ka { "keep-alive" } else { "close" };
            let expect = format!(
                "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
                status,
                reason(status),
                len,
                conn
            );
            assert_eq!(String::from_utf8(out).unwrap(), expect);
        }
    }

    #[test]
    fn written_error_response_parses_and_escapes() {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let nasty = "quote \" slash \\ newline \n ctl \u{1}";
        write_error_response(&mut out, &mut scratch, 400, nasty, true);
        let text = String::from_utf8(out).unwrap();
        let (head, payload) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 400 Bad Request\r\n"));
        assert!(head.contains("Connection: keep-alive"));
        assert!(head.contains(&format!("Content-Length: {}", payload.len())));
        let v = sjson::parse(payload).unwrap();
        assert_eq!(v.get("status").unwrap().as_i64(), Some(400));
        assert_eq!(v.get("message").unwrap().as_str(), Some(nasty));
        // Matches the builder-rendered body byte for byte.
        assert_eq!(payload, error_body(400, nasty).to_string_compact());
    }

    /// Regression: the hand-kept escaper this module used to carry wrote
    /// backspace and form feed as `\u0008`/`\u000c` where `sjson` writes
    /// `\b`/`\f`, so an error body differed from [`error_body`]'s.
    #[test]
    fn error_response_escapes_like_sjson() {
        for message in ["bell \u{8} feed \u{c}", "\u{8}\u{c}", "every \u{0}\u{1f}\u{7f} é 🎓"] {
            let (mut out, mut scratch) = (Vec::new(), Vec::new());
            write_error_response(&mut out, &mut scratch, 404, message, false);
            let body = error_body(404, message).to_string_compact();
            assert!(out.ends_with(body.as_bytes()), "{message:?}");
            assert_eq!(scratch, body.as_bytes());
        }
        let mut scratch = Vec::new();
        write_error_response(&mut Vec::new(), &mut scratch, 400, "\u{8}\u{c}", false);
        assert!(scratch.ends_with(br#""message":"\b\f"}"#));
    }
}
