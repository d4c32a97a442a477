//! A minimal HTTP/1.1 layer over `std::io`.
//!
//! The vendored-dependency constraint rules out hyper, so the daemon
//! parses requests and writes responses by hand. The parser is strict
//! and bounded: a malformed request line is a 400, oversized headers
//! are a 431, an oversized body is a 413 — and none of them is ever a
//! panic. Only what the service needs is implemented: `GET`, `POST`,
//! `DELETE`, `Content-Length` bodies, keep-alive, and chunked
//! *response* streaming.

use std::io::{self, BufRead, Write};

/// Request-line length cap (method + path + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Total header bytes cap (sum over all header lines).
pub const MAX_HEADER_BYTES: usize = 32 * 1024;
/// Header count cap.
pub const MAX_HEADERS: usize = 100;
/// Request body cap.
pub const MAX_BODY: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method, as sent.
    pub method: String,
    /// Raw path (no query parsing — the API does not use queries).
    pub path: String,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after the response.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v == "close" => false,
            Some(v) if v == "keep-alive" => true,
            _ => self.http11,
        }
    }

    /// The client identity: the `x-api-key` header, or `"anonymous"`.
    pub fn client(&self) -> &str {
        self.header("x-api-key").unwrap_or("anonymous")
    }
}

/// Why a request could not be parsed, with the status it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// 400 — malformed request line, header, or framing.
    BadRequest(String),
    /// 431 — request line or headers exceed the configured caps.
    HeadersTooLarge,
    /// 413 — declared body exceeds [`MAX_BODY`].
    BodyTooLarge,
}

impl ParseError {
    /// The HTTP status code this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::BadRequest(_) => 400,
            ParseError::HeadersTooLarge => 431,
            ParseError::BodyTooLarge => 413,
        }
    }

    /// A short human-readable reason for the error body.
    pub fn reason(&self) -> String {
        match self {
            ParseError::BadRequest(msg) => msg.clone(),
            ParseError::HeadersTooLarge => "headers too large".into(),
            ParseError::BodyTooLarge => "body too large".into(),
        }
    }
}

/// Reads one line up to `limit` bytes (excluding CRLF). `Err(None)`
/// means the limit was hit; `Ok(None)` means EOF before any byte.
fn read_limited_line<R: BufRead>(
    reader: &mut R,
    limit: usize,
) -> io::Result<Result<Option<String>, ()>> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => {
                if line.is_empty() {
                    return Ok(Ok(None));
                }
                break;
            }
            _ => {
                if byte[0] == b'\n' {
                    break;
                }
                if line.len() >= limit {
                    return Ok(Err(()));
                }
                line.push(byte[0]);
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    match String::from_utf8(line) {
        Ok(s) => Ok(Ok(Some(s))),
        Err(_) => Ok(Ok(Some(String::from("\u{fffd}")))),
    }
}

/// The body length the `content-length` headers declare, if any.
///
/// RFC 9112 §6.3: the value is `1*DIGIT` (no sign, no list), and
/// repeated headers must all declare the same length; anything else is
/// a framing error the connection cannot recover from.
fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, ParseError> {
    let mut declared = None;
    for (_, value) in headers.iter().filter(|(k, _)| k == "content-length") {
        let len = match value.parse::<usize>() {
            Ok(len) if value.bytes().all(|b| b.is_ascii_digit()) => len,
            _ => {
                return Err(ParseError::BadRequest(format!(
                    "bad content-length {value:?}"
                )))
            }
        };
        if declared.is_some_and(|d| d != len) {
            return Err(ParseError::BadRequest(
                "conflicting content-length headers".into(),
            ));
        }
        declared = Some(len);
    }
    Ok(declared)
}

/// Reads and parses one request.
///
/// `Ok(None)` is a clean end of stream (the client closed between
/// requests on a keep-alive connection).
///
/// # Errors
///
/// * `Err(Ok(e))` — a protocol-level [`ParseError`]; the caller should
///   answer with `e.status()` and close;
/// * `Err(Err(e))` — an I/O error on the socket.
#[allow(clippy::type_complexity)]
pub fn read_request<R: BufRead>(
    reader: &mut R,
) -> Result<Option<Request>, Result<ParseError, io::Error>> {
    let io_err = |e: io::Error| Err(Err(e));
    let request_line = match read_limited_line(reader, MAX_REQUEST_LINE) {
        Ok(Ok(None)) => return Ok(None),
        Ok(Ok(Some(line))) => line,
        Ok(Err(())) => return Err(Ok(ParseError::HeadersTooLarge)),
        Err(e) => return io_err(e),
    };
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(Ok(ParseError::BadRequest(format!(
                "malformed request line {request_line:?}"
            ))))
        }
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(Ok(ParseError::BadRequest(format!(
                "unsupported version {other:?}"
            ))))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(Ok(ParseError::BadRequest(format!(
            "malformed method {method:?}"
        ))));
    }

    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let line = match read_limited_line(reader, MAX_HEADER_BYTES) {
            Ok(Ok(None)) => {
                return Err(Ok(ParseError::BadRequest(
                    "connection closed inside headers".into(),
                )))
            }
            Ok(Ok(Some(line))) => line,
            Ok(Err(())) => return Err(Ok(ParseError::HeadersTooLarge)),
            Err(e) => return io_err(e),
        };
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES || headers.len() >= MAX_HEADERS {
            return Err(Ok(ParseError::HeadersTooLarge));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(Ok(ParseError::BadRequest(format!(
                "malformed header {line:?}"
            ))));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(Ok(ParseError::BadRequest(format!(
                "malformed header name {name:?}"
            ))));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut request = Request {
        method: method.to_string(),
        path: path.to_string(),
        http11,
        headers,
        body: Vec::new(),
    };
    if let Some(te) = request.header("transfer-encoding") {
        return Err(Ok(ParseError::BadRequest(format!(
            "transfer-encoding {te:?} not supported for requests"
        ))));
    }
    if let Some(len) = content_length(&request.headers).map_err(Ok)? {
        if len > MAX_BODY {
            return Err(Ok(ParseError::BodyTooLarge));
        }
        let mut body = vec![0u8; len];
        if let Err(e) = io::Read::read_exact(reader, &mut body) {
            return if e.kind() == io::ErrorKind::UnexpectedEof {
                Err(Ok(ParseError::BadRequest(
                    "connection closed inside body".into(),
                )))
            } else {
                io_err(e)
            };
        }
        request.body = body;
    }
    Ok(Some(request))
}

/// The reason phrase for the status codes the service emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Writes a complete (non-streaming) response.
///
/// Head and body leave in one `write_all`: written separately they
/// become two TCP segments, and a keep-alive client's delayed ACK of
/// the first holds the second back ~40 ms.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let mut message = Vec::with_capacity(160 + body.len());
    write!(
        message,
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
        status,
        reason_phrase(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for (name, value) in extra_headers {
        write!(message, "{name}: {value}\r\n")?;
    }
    message.extend_from_slice(b"\r\n");
    message.extend_from_slice(body.as_bytes());
    writer.write_all(&message)?;
    writer.flush()
}

/// A chunked-transfer response body: one chunk per write, terminated
/// by [`finish`](Self::finish).
pub struct ChunkedBody<'a, W: Write> {
    writer: &'a mut W,
}

impl<'a, W: Write> ChunkedBody<'a, W> {
    /// Writes the response head and returns the chunk writer.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn start(
        writer: &'a mut W,
        status: u16,
        content_type: &str,
        keep_alive: bool,
    ) -> io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ntransfer-encoding: chunked\r\nconnection: {}\r\n\r\n",
            status,
            reason_phrase(status),
            content_type,
            if keep_alive { "keep-alive" } else { "close" },
        );
        writer.write_all(head.as_bytes())?;
        writer.flush()?;
        Ok(ChunkedBody { writer })
    }

    /// Writes one chunk — size line, data and CRLF in one `write_all`
    /// (skipped when empty: an empty chunk would terminate the
    /// stream).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut chunk = Vec::with_capacity(data.len() + 20);
        write!(chunk, "{:x}\r\n", data.len())?;
        chunk.extend_from_slice(data);
        chunk.extend_from_slice(b"\r\n");
        self.writer.write_all(&chunk)?;
        self.writer.flush()
    }

    /// Terminates the stream with the zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn finish(self) -> io::Result<()> {
        self.writer.write_all(b"0\r\n\r\n")?;
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(input: &[u8]) -> Result<Option<Request>, Result<ParseError, io::Error>> {
        read_request(&mut BufReader::new(input))
    }

    fn parse_err(input: &[u8]) -> ParseError {
        match parse(input) {
            Err(Ok(e)) => e,
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_get_with_headers() {
        let req = parse(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nX-Api-Key: alice\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/healthz");
        assert!(req.http11);
        assert!(req.keep_alive());
        assert_eq!(req.client(), "alice");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_body() {
        let req = parse(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for input in [
            &b"GET\r\n\r\n"[..],
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/2\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
            b" / HTTP/1.1\r\n\r\n",
            b"\r\n\r\n",
        ] {
            assert_eq!(parse_err(input).status(), 400, "input {input:?}");
        }
    }

    #[test]
    fn malformed_headers_are_400() {
        assert_eq!(
            parse_err(b"GET / HTTP/1.1\r\nno-colon\r\n\r\n").status(),
            400
        );
        assert_eq!(
            parse_err(b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n").status(),
            400
        );
        assert_eq!(parse_err(b"GET / HTTP/1.1\r\nHost: x").status(), 400);
    }

    #[test]
    fn oversized_request_line_is_431() {
        let mut input = b"GET /".to_vec();
        input.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE + 10));
        input.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(parse_err(&input), ParseError::HeadersTooLarge);
        assert_eq!(ParseError::HeadersTooLarge.status(), 431);
    }

    #[test]
    fn oversized_headers_are_431() {
        let mut input = b"GET / HTTP/1.1\r\n".to_vec();
        let big = "v".repeat(MAX_HEADER_BYTES / 4);
        for i in 0..5 {
            input.extend_from_slice(format!("h{i}: {big}\r\n").as_bytes());
        }
        input.extend_from_slice(b"\r\n");
        assert_eq!(parse_err(&input), ParseError::HeadersTooLarge);
    }

    #[test]
    fn too_many_headers_are_431() {
        let mut input = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADERS + 2) {
            input.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        input.extend_from_slice(b"\r\n");
        assert_eq!(parse_err(&input), ParseError::HeadersTooLarge);
    }

    #[test]
    fn oversized_body_is_413() {
        let input = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert_eq!(parse_err(input.as_bytes()), ParseError::BodyTooLarge);
        assert_eq!(ParseError::BodyTooLarge.status(), 413);
    }

    #[test]
    fn bad_content_length_is_400() {
        assert_eq!(
            parse_err(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n").status(),
            400
        );
    }

    #[test]
    fn signed_content_length_is_400() {
        for value in ["+5", "-5", " +5"] {
            let input = format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\nhello");
            assert_eq!(parse_err(input.as_bytes()).status(), 400, "{value:?}");
        }
    }

    #[test]
    fn conflicting_content_lengths_are_400() {
        let err =
            parse_err(b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 3\r\n\r\nhello");
        assert_eq!(err.status(), 400);
        assert!(err.reason().contains("conflicting"), "{}", err.reason());
    }

    #[test]
    fn repeated_equal_content_lengths_are_accepted() {
        let req = parse(b"POST / HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn truncated_body_is_400() {
        assert_eq!(
            parse_err(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").status(),
            400
        );
    }

    #[test]
    fn chunked_request_bodies_are_rejected() {
        assert_eq!(
            parse_err(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").status(),
            400
        );
    }

    #[test]
    fn non_utf8_never_panics() {
        // Arbitrary bytes in the request line parse or fail, never
        // panic.
        let _ = parse(&[0xff, 0xfe, b' ', 0x80, b'\r', b'\n', b'\r', b'\n']);
    }

    #[test]
    fn keep_alive_respects_version_and_header() {
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive());
        let req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive());
    }

    #[test]
    fn two_pipelined_requests_parse_in_order() {
        let input: &[u8] =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut reader = BufReader::new(input);
        let first = read_request(&mut reader).unwrap().unwrap();
        let second = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        assert_eq!(second.path, "/b");
        assert_eq!(second.body, b"hi");
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    #[test]
    fn write_response_is_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, 201, &[("retry-after", "1")], "{\"id\":1}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 201 Created\r\n"));
        assert!(text.contains("content-length: 8\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"id\":1}"));
    }

    /// Counts `write` calls; each one is a segment on a no-delay socket.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_and_each_chunk_leave_in_one_write() {
        let mut out = CountingWriter::default();
        write_response(
            &mut out,
            200,
            &[("retry-after", "1")],
            "{\"ok\":true}",
            true,
        )
        .unwrap();
        assert_eq!(out.writes, 1);

        let mut out = CountingWriter::default();
        let mut body = ChunkedBody::start(&mut out, 200, "application/x-ndjson", true).unwrap();
        body.write_chunk(b"line one\n").unwrap();
        body.write_chunk(b"line two\n").unwrap();
        body.finish().unwrap();
        assert_eq!(out.writes, 4, "head, two chunks, terminator");
        assert!(out.bytes.ends_with(b"9\r\nline two\n\r\n0\r\n\r\n"));
    }

    #[test]
    fn chunked_body_frames_each_write() {
        let mut out = Vec::new();
        let mut body = ChunkedBody::start(&mut out, 200, "application/jsonl", false).unwrap();
        body.write_chunk(b"line one\n").unwrap();
        body.write_chunk(b"").unwrap();
        body.write_chunk(b"line two\n").unwrap();
        body.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("transfer-encoding: chunked"));
        assert!(text.contains("9\r\nline one\n\r\n"));
        assert!(text.contains("9\r\nline two\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    /// Parses every request in `input`, as a keep-alive connection
    /// would, checking each accepted one: the outcome is always a
    /// request, a clean end, or a typed error — never a panic.
    fn parse_all(input: &[u8]) -> Result<(), TestCaseError> {
        let mut reader = BufReader::new(input);
        for _ in 0..8 {
            match read_request(&mut reader) {
                Ok(None) => return Ok(()),
                Ok(Some(req)) => check_accepted(&req)?,
                Err(Ok(e)) => {
                    prop_assert!(matches!(e.status(), 400 | 413 | 431), "{e:?}");
                    return Ok(());
                }
                Err(Err(e)) => return Err(TestCaseError::fail(format!("io error {e}"))),
            }
        }
        Ok(())
    }

    fn check_accepted(req: &Request) -> Result<(), TestCaseError> {
        prop_assert!(
            !req.method.is_empty() && req.method.bytes().all(|b| b.is_ascii_uppercase()),
            "method {:?}",
            req.method
        );
        prop_assert!(req.headers.len() <= MAX_HEADERS);
        let declared = match req.header("content-length") {
            Some(v) => v.parse::<usize>().ok(),
            None => Some(0),
        };
        prop_assert_eq!(declared, Some(req.body.len()));
        Ok(())
    }

    /// A request line, well-formed for `method < 3` and `defect < 4`.
    fn request_line(method: u8, defect: u8) -> Vec<u8> {
        let method = ["GET", "POST", "DELETE", "get", "", "P0ST"][usize::from(method % 6)];
        let line = match defect % 8 {
            0 | 1 => format!("{method} /v1/jobs HTTP/1.1"),
            2 => format!("{method} /v1/jobs HTTP/1.0"),
            3 => format!("{method} /{} HTTP/1.1", "a".repeat(MAX_REQUEST_LINE - 20)),
            4 => format!("{method} /{} HTTP/1.1", "a".repeat(MAX_REQUEST_LINE)),
            5 => format!("{method}  /v1/jobs HTTP/1.1"),
            6 => format!("{method} /v1/jobs"),
            _ => format!("{method} /v1/jobs HTTP/2.0"),
        };
        line.into_bytes()
    }

    /// The `content-length` header lines of one framing variant, and
    /// the length they declare.
    fn length_headers(kind: u8, body_len: usize, near_cap: usize) -> (String, usize) {
        let cap = MAX_BODY - 1 + near_cap;
        match kind % 7 {
            0 => (String::new(), 0),
            1 => (format!("Content-Length: {body_len}\r\n"), body_len),
            2 => (format!("Content-Length: {cap}\r\n"), cap),
            3 => (format!("Content-Length: +{body_len}\r\n"), body_len),
            4 => (
                format!("Content-Length: {body_len}\r\nContent-Length: {body_len}\r\n"),
                body_len,
            ),
            5 => (
                format!(
                    "Content-Length: {body_len}\r\nContent-Length: {}\r\n",
                    body_len + 1
                ),
                body_len,
            ),
            _ => (format!("Content-Length: {body_len}x\r\n"), body_len),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
            parse_all(&bytes)?;
        }

        #[test]
        fn arbitrary_bytes_after_a_valid_prefix_never_panic(
            tail in proptest::collection::vec(any::<u8>(), 0..300),
            cut in 0usize..64,
        ) {
            let mut input = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\n{}{}".to_vec();
            input.truncate(input.len().saturating_sub(cut));
            input.extend(tail);
            parse_all(&input)?;
        }

        #[test]
        fn near_valid_requests_parse_or_fail_typed(
            method in 0u8..4,
            defect in 0u8..8,
            few_headers in 0usize..8,
            many_headers in any::<bool>(),
            header_bytes in 0usize..MAX_HEADER_BYTES + 256,
            small_headers in any::<bool>(),
            length_kind in 0u8..7,
            body_len in 0usize..64,
            near_cap in 0usize..3,
            truncate in 0usize..4,
            bare_lf in any::<bool>(),
        ) {
            let eol: &[u8] = if bare_lf { b"\n" } else { b"\r\n" };
            let mut input = request_line(method, defect);
            input.extend_from_slice(eol);
            // A header count around `MAX_HEADERS` (the framing header
            // included) or a few, sharing about `header_bytes` or tiny.
            let headers = if many_headers { MAX_HEADERS - 5 + few_headers } else { few_headers };
            let value_len = if small_headers { 4 } else { header_bytes / headers.max(1) };
            for i in 0..headers {
                input.extend_from_slice(format!("x-h{i}: {}", "v".repeat(value_len)).as_bytes());
                input.extend_from_slice(eol);
            }
            let (lengths, declared) = length_headers(length_kind, body_len, near_cap);
            input.extend_from_slice(lengths.as_bytes());
            input.extend_from_slice(eol);
            // One case in four sends a body a byte short.
            let short = usize::from(truncate == 0);
            input.resize(input.len() + declared.saturating_sub(short), b'b');
            parse_all(&input)?;
        }
    }
}
