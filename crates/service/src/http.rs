//! A deliberately tiny HTTP/1.1 layer over `std::net`.
//!
//! The workspace builds offline with no crates.io dependencies, so the
//! daemon speaks exactly the slice of HTTP/1.1 it needs: one request per
//! connection (`Connection: close` on every response), `Content-Length`
//! bodies in both directions, and **close-delimited streaming** responses
//! — a response that carries no `Content-Length` is terminated by the
//! server closing the socket, which is how `POST /jobs?stream=1` pushes
//! progress lines while the simulation runs. Both the server and the
//! `paper submit` client parse with the same functions, so the wire
//! format is covered by one set of tests.

use std::io::{self, BufRead, Write};

/// Largest accepted request body (a scenario file); far above any real
/// scenario, far below a memory hazard.
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// Largest accepted request/status/header line. Bounded for the same
/// reason as [`MAX_BODY`]: a peer must not be able to grow a handler's
/// memory without limit by never sending a newline.
pub const MAX_LINE: usize = 64 * 1024;

/// One parsed request head plus its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Path without the query string (`/jobs/3`).
    pub path: String,
    /// Decoded query pairs in order (`stream=1` → `("stream", "1")`).
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when the request carried none).
    pub body: Vec<u8>,
}

impl Request {
    /// First query value for `key`.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First header value for `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A request (or response head) that breaks the protocol, as the
/// [`io::Error`] the readers below return for it; an error of any other
/// kind is the transport's own.
fn malformed(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Did a read or write give up because the socket's deadline passed? (A
/// timed-out blocking socket reports `WouldBlock` on unix and `TimedOut`
/// on windows.)
pub fn is_timeout(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read one request from `reader`. `Ok(None)` when the peer closed the
/// connection before sending anything. A malformed request is an
/// `InvalidData` error carrying the reason; a peer that stalls past the
/// socket's read deadline is the one [`is_timeout`] recognizes.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(malformed(format!("malformed request line {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(malformed(format!("unsupported protocol {version:?}")));
    }
    let (path, query) = parse_target(target);
    let headers = read_headers(reader)?;
    let body = match header_value(&headers, "content-length") {
        None => Vec::new(),
        Some(v) => {
            let len: usize = v
                .trim()
                .parse()
                .map_err(|_| malformed(format!("bad content-length {v:?}")))?;
            if len > MAX_BODY {
                return Err(malformed(format!(
                    "body of {len} bytes exceeds the {MAX_BODY} cap"
                )));
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => {
                    malformed(format!("connection closed inside the {len}-byte body"))
                }
                _ => e,
            })?;
            body
        }
    };
    Ok(Some(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    }))
}

/// Read a response's status line and headers (the client side).
pub fn read_response_head(
    reader: &mut impl BufRead,
) -> Result<(u16, Vec<(String, String)>), String> {
    let line = read_line(reader)
        .map_err(|e| e.to_string())?
        .ok_or("connection closed before any response")?;
    let mut parts = line.splitn(3, ' ');
    let (version, code) = match (parts.next(), parts.next()) {
        (Some(v), Some(c)) => (v, c),
        _ => return Err(format!("malformed status line {line:?}")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version:?}"));
    }
    let status: u16 = code
        .parse()
        .map_err(|_| format!("bad status code {code:?}"))?;
    let headers = read_headers(reader).map_err(|e| e.to_string())?;
    Ok((status, headers))
}

/// First value of the (lowercased) header `name`.
pub fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Write a complete response with a `Content-Length` body.
pub fn respond(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len(),
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(body)?;
    writer.flush()
}

/// Start a close-delimited streaming response: status and headers now,
/// body bytes as the caller produces them, end-of-body when the caller
/// closes the connection.
pub fn start_stream(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nConnection: close\r\n",
        reason(status),
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.flush()
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// One CRLF- (or LF-) terminated line, without its terminator. `None` at
/// EOF before any byte. Reads through a [`MAX_LINE`] window so a peer
/// that never sends a newline cannot grow the buffer without bound.
fn read_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = String::new();
    // `&mut R` is itself `BufRead`, so the window borrows rather than
    // consumes the caller's reader.
    let mut limited = io::Read::take(&mut *reader, MAX_LINE as u64);
    let n = limited.read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if !line.ends_with('\n') && n == MAX_LINE {
        return Err(malformed(format!("line exceeds the {MAX_LINE}-byte cap")));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

fn read_headers(reader: &mut impl BufRead) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?
            .ok_or_else(|| malformed("connection closed inside headers".to_string()))?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= 100 {
            return Err(malformed("more than 100 headers".to_string()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let pairs = query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    (path.to_string(), pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read};

    fn parse(raw: &str) -> Result<Option<Request>, String> {
        read_request(&mut BufReader::new(raw.as_bytes())).map_err(|e| {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
            assert!(!is_timeout(&e));
            e.to_string()
        })
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let raw =
            "POST /jobs?stream=1&priority=-2 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let req = parse(raw).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.query_value("stream"), Some("1"));
        assert_eq!(req.query_value("priority"), Some("-2"));
        assert_eq!(req.query_value("missing"), None);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn parses_a_bare_get_and_eof() {
        let req = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        // Closed-before-anything is a clean None, not an error.
        assert_eq!(parse("").unwrap(), None);
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse("GARBAGE\r\n\r\n").is_err());
        assert!(parse("GET / SPDY/3\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort").is_err());
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(parse(&huge).unwrap_err().contains("cap"));
        // A request line (or header) that never ends must be cut off at
        // MAX_LINE, not buffered forever.
        let endless = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 10));
        assert!(parse(&endless).unwrap_err().contains("cap"));
        let endless_header = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "b".repeat(MAX_LINE + 10));
        assert!(parse(&endless_header).unwrap_err().contains("cap"));
    }

    #[test]
    fn response_round_trip() {
        let mut wire = Vec::new();
        respond(
            &mut wire,
            200,
            "application/json",
            &[("X-Cache", "hit")],
            b"{}",
        )
        .unwrap();
        let mut reader = BufReader::new(wire.as_slice());
        let (status, headers) = read_response_head(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert_eq!(header_value(&headers, "x-cache"), Some("hit"));
        assert_eq!(header_value(&headers, "content-length"), Some("2"));
        let mut body = Vec::new();
        reader.read_to_end(&mut body).unwrap();
        assert_eq!(body, b"{}");
    }

    #[test]
    fn streamed_response_head_then_free_body() {
        let mut wire = Vec::new();
        start_stream(&mut wire, 200, "application/x-ndjson", &[]).unwrap();
        wire.extend_from_slice(b"{\"event\":\"queued\"}\n");
        let mut reader = BufReader::new(wire.as_slice());
        let (status, headers) = read_response_head(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert_eq!(header_value(&headers, "content-length"), None);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "{\"event\":\"queued\"}\n");
    }
}
