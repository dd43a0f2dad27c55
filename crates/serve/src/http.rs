//! A minimal, hardened HTTP/1.1 subset — hand-rolled on `std::io`, like
//! every other parser in this workspace (the environment has no crates
//! registry, and the attack surface is small enough to own outright).
//!
//! Scope: exactly what `bce serve` needs. One request per connection
//! (`Connection: close` is always sent), `Content-Length` bodies only
//! (chunked transfer encoding is rejected with `501`), no keep-alive, no
//! pipelining, no TLS.
//!
//! Hardening is the point, not an afterthought:
//!
//! * every read happens under a socket read timeout set by the caller, so
//!   a slow-loris client produces [`HttpError::Timeout`] (`408`), never a
//!   wedged worker;
//! * the request line, header block, header count and body are all
//!   size-capped with typed errors (`400`/`413`/`431`), so oversized or
//!   garbage input degrades to a response, never to unbounded memory;
//! * the parser never panics on any byte sequence — property-tested in
//!   `tests/http_parser.rs`.

use std::io::Read;

/// Upper bound on the request line (`GET /path?query HTTP/1.1`).
pub(crate) const MAX_REQUEST_LINE: usize = 4096;
/// Upper bound on the whole header block.
pub(crate) const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Upper bound on the number of header fields.
pub(crate) const MAX_HEADERS: usize = 64;

/// Typed request-side failure, each mapping to one status code. The
/// daemon turns these into responses; nothing here can panic a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum HttpError {
    /// Malformed request line, header syntax, or body framing (`400`).
    Malformed(String),
    /// The client stopped sending before the message was complete (`400`).
    Truncated(String),
    /// A read hit the socket timeout (`408`).
    Timeout,
    /// Request line or header block over the caps (`431`).
    HeadersTooLarge,
    /// Declared or actual body larger than the configured cap (`413`).
    BodyTooLarge { limit: usize },
    /// `Transfer-Encoding` or another framing we deliberately do not
    /// implement (`501`).
    Unsupported(String),
    /// Any other socket-level failure; the connection is just dropped.
    Io(String),
}

impl HttpError {
    /// The status code this error is reported as.
    pub(crate) fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) | HttpError::Truncated(_) => 400,
            HttpError::Timeout => 408,
            HttpError::HeadersTooLarge => 431,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::Unsupported(_) => 501,
            HttpError::Io(_) => 400,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::Truncated(m) => write!(f, "truncated request: {m}"),
            HttpError::Timeout => write!(f, "timed out reading request"),
            HttpError::HeadersTooLarge => write!(f, "request headers too large"),
            HttpError::BodyTooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte limit")
            }
            HttpError::Unsupported(m) => write!(f, "unsupported: {m}"),
            HttpError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}
impl std::error::Error for HttpError {}

fn io_err(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e.to_string()),
    }
}

/// A parsed request. Header names are folded to lowercase; the target is
/// split into path and query at the first `?`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    /// Raw query string (without the `?`), empty if absent.
    pub(crate) query: String,
    pub(crate) headers: Vec<(String, String)>,
    pub(crate) body: Vec<u8>,
}

impl Request {
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == lower).map(|(_, v)| v.as_str())
    }

    /// Iterate `key=value` pairs of the query string (no percent-decoding
    /// beyond `%20`/`+` for spaces — the daemon's parameters are all
    /// alphanumeric tokens and numbers).
    pub(crate) fn query_params(&self) -> impl Iterator<Item = (&str, &str)> {
        self.query
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| kv.split_once('=').unwrap_or((kv, "")))
    }

    pub(crate) fn param(&self, name: &str) -> Option<&str> {
        self.query_params().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Parse a typed query parameter; `None` when absent, `Err` with a
    /// user-facing message when present but malformed.
    pub(crate) fn param_parse<T: std::str::FromStr>(
        &self,
        name: &str,
    ) -> Result<Option<T>, String> {
        match self.param(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("query parameter {name}={v:?} is malformed")),
        }
    }
}

/// Read from `stream` until the end of the header block (`\r\n\r\n`),
/// never consuming past it by buffering at most one read's overshoot —
/// the overshoot is returned as the start of the body.
fn read_head(stream: &mut impl Read) -> Result<(Vec<u8>, Vec<u8>), HttpError> {
    let mut head: Vec<u8> = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf).map_err(io_err)?;
        if n == 0 {
            return Err(HttpError::Truncated("connection closed inside the header block".into()));
        }
        head.extend_from_slice(&buf[..n]);
        // Search for the terminator across the chunk boundary.
        if let Some(pos) = find_terminator(&head) {
            let body_start = head.split_off(pos + 4);
            head.truncate(pos);
            return Ok((head, body_start));
        }
        if head.len() > MAX_HEADER_BYTES {
            return Err(HttpError::HeadersTooLarge);
        }
    }
}

fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parse one request from the stream. `max_body` caps the body size; the
/// caller is responsible for having set a read timeout on the socket.
pub(crate) fn read_request(stream: &mut impl Read, max_body: usize) -> Result<Request, HttpError> {
    let (head, body_prefix) = read_head(stream)?;
    let head = std::str::from_utf8(&head)
        .map_err(|_| HttpError::Malformed("header block is not valid UTF-8".into()))?;
    let mut lines = head.split("\r\n");

    let request_line = lines.next().ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    if request_line.len() > MAX_REQUEST_LINE {
        return Err(HttpError::HeadersTooLarge);
    }
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed(format!("bad method {method:?}")));
    }
    if !target.starts_with('/') {
        return Err(HttpError::Malformed(format!("bad request target {target:?}")));
    }
    if !(version == "HTTP/1.1" || version == "HTTP/1.0") || parts.next().is_some() {
        return Err(HttpError::Malformed(format!("bad request line {request_line:?}")));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::HeadersTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without ':': {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    let mut req = Request { method, path, query, headers, body: Vec::new() };

    if req.header("transfer-encoding").is_some() {
        return Err(HttpError::Unsupported("transfer-encoding (use Content-Length)".into()));
    }
    let content_length: usize = match req.header("content-length") {
        None => 0,
        Some(v) => {
            v.parse().map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?
        }
    };
    if content_length > max_body {
        // Declared oversize: reject before reading a single body byte, so
        // a hostile client cannot make the daemon buffer the payload.
        return Err(HttpError::BodyTooLarge { limit: max_body });
    }
    if body_prefix.len() > content_length {
        return Err(HttpError::Malformed("body longer than Content-Length".into()));
    }

    let mut body = body_prefix;
    body.reserve(content_length - body.len());
    let mut buf = [0u8; 4096];
    while body.len() < content_length {
        let want = (content_length - body.len()).min(buf.len());
        let n = stream.read(&mut buf[..want]).map_err(io_err)?;
        if n == 0 {
            return Err(HttpError::Truncated(format!(
                "connection closed after {} of {content_length} body bytes",
                body.len()
            )));
        }
        body.extend_from_slice(&buf[..n]);
    }
    req.body = body;
    Ok(req)
}

/// A response under construction.
#[derive(Debug, Clone)]
pub(crate) struct Response {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: Vec<u8>,
    /// Extra headers (e.g. `Retry-After`).
    pub(crate) extra: Vec<(&'static str, String)>,
}

impl Response {
    pub(crate) fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            extra: Vec::new(),
        }
    }

    pub(crate) fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
            extra: Vec::new(),
        }
    }

    /// A `503` shed/drain response carrying `Retry-After`.
    pub(crate) fn unavailable(reason: &str, retry_after_secs: u32) -> Self {
        let mut r = Response::text(503, format!("unavailable: {reason}\n"));
        r.extra.push(("Retry-After", retry_after_secs.to_string()));
        r
    }

    pub(crate) fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra.push((name, value.into()));
        self
    }

    pub(crate) fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// Serialize head + body. `Connection: close` is always sent — the
    /// daemon handles exactly one request per connection.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut head = String::with_capacity(128);
        let _ = write!(head, "HTTP/1.1 {} {}\r\n", self.status, self.reason());
        let _ = write!(head, "Content-Type: {}\r\n", self.content_type);
        let _ = write!(head, "Content-Length: {}\r\n", self.body.len());
        for (k, v) in &self.extra {
            let _ = write!(head, "{k}: {v}\r\n");
        }
        head.push_str("Connection: close\r\n\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// Build the response for a request-side error.
pub(crate) fn error_response(e: &HttpError, retry_after_secs: u32) -> Response {
    let r = Response::text(e.status(), format!("{e}\n"));
    match e {
        // 408/413 clients may retry with a fixed body or slower link.
        HttpError::Timeout => r.with_header("Retry-After", retry_after_secs.to_string()),
        _ => r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut std::io::Cursor::new(raw.to_vec()), 1024)
    }

    #[test]
    fn parses_get_with_query() {
        let r = parse(b"GET /campaign?hosts=4&days=2 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/campaign");
        assert_eq!(r.param("hosts"), Some("4"));
        assert_eq!(r.param_parse::<f64>("days").unwrap(), Some(2.0));
        assert_eq!(r.param("missing"), None);
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("HOST"), Some("x"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse(b"POST /run HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn body_split_across_head_read_is_reassembled() {
        // The body starts in the same TCP segment as the header terminator.
        let mut raw = b"POST /run HTTP/1.1\r\nContent-Length: 3\r\n\r\nab".to_vec();
        raw.push(b'c');
        let r = parse(&raw).unwrap();
        assert_eq!(r.body, b"abc");
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            &b"FROB\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x HTTP/2.0\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"\r\n\r\n",
        ] {
            let e = parse(raw).unwrap_err();
            assert_eq!(e.status(), 400, "{raw:?} -> {e}");
        }
    }

    #[test]
    fn rejects_bad_headers() {
        assert_eq!(parse(b"GET / HTTP/1.1\r\nnocolon\r\n\r\n").unwrap_err().status(), 400);
        assert_eq!(parse(b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n").unwrap_err().status(), 400);
        assert_eq!(parse(b"GET / HTTP/1.1\r\n: x\r\n\r\n").unwrap_err().status(), 400);
    }

    #[test]
    fn truncated_requests_are_typed() {
        assert!(matches!(parse(b"GET / HT").unwrap_err(), HttpError::Truncated(_)));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err(),
            HttpError::Truncated(_)
        ));
    }

    #[test]
    fn oversized_declared_body_rejected_before_read() {
        let e = parse(b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n").unwrap_err();
        assert!(matches!(e, HttpError::BodyTooLarge { limit: 1024 }));
        assert_eq!(e.status(), 413);
    }

    #[test]
    fn oversized_headers_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "a".repeat(20_000)).as_bytes());
        assert_eq!(parse(&raw).unwrap_err(), HttpError::HeadersTooLarge);
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..100 {
            raw.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(parse(&raw).unwrap_err(), HttpError::HeadersTooLarge);
    }

    #[test]
    fn chunked_encoding_unsupported() {
        let e = parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(e.status(), 501);
    }

    #[test]
    fn response_serializes_with_close_and_extra_headers() {
        let bytes = Response::unavailable("queue full", 3).to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Retry-After: 3\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.contains("Content-Length: "), "{text}");
        assert!(text.ends_with("unavailable: queue full\n"), "{text}");
    }

    #[test]
    fn error_responses_map_statuses() {
        assert_eq!(error_response(&HttpError::Timeout, 1).status, 408);
        assert_eq!(error_response(&HttpError::BodyTooLarge { limit: 9 }, 1).status, 413);
    }
}

#[cfg(test)]
mod fuzz_tests;
