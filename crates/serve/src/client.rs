//! A minimal blocking HTTP/1.1 client for the daemon's API.
//!
//! The daemon's integration tests drive it through this client. It
//! supports exactly what the server emits — fixed `Content-Length`
//! bodies and chunked transfer-encoding — over one-shot
//! (`Connection: close`) requests.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A decoded HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// Lowercased header name/value pairs, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The decoded (de-chunked) body.
    pub body: Vec<u8>,
}

impl Response {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one request and reads the full response.
///
/// `headers` are extra request headers (e.g. `("x-api-key", "alice")`);
/// `body` is sent with a `Content-Length` when non-empty or when the
/// method is `POST`.
///
/// # Errors
///
/// Propagates connection and protocol errors as `io::Error`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut writer = stream.try_clone()?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if !body.is_empty() || method == "POST" {
        head.push_str(&format!("content-length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(body)?;
    writer.flush()?;
    read_response(BufReader::new(stream))
}

fn bad(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

fn read_line<R: BufRead>(reader: &mut R) -> std::io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(bad("unexpected eof"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

fn read_response<R: BufRead>(mut reader: R) -> std::io::Result<Response> {
    let status_line = read_line(&mut reader)?;
    let mut parts = status_line.splitn(3, ' ');
    let _version = parts.next();
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;

    let mut headers = Vec::new();
    loop {
        let line = read_line(&mut reader)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        read_chunked_body(&mut reader)?
    } else if let Some(len) = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
    {
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body)?;
        body
    } else {
        // Connection: close with no framing — read to EOF.
        let mut body = Vec::new();
        reader.read_to_end(&mut body)?;
        body
    };

    Ok(Response {
        status,
        headers,
        body,
    })
}

fn read_chunked_body<R: BufRead>(reader: &mut R) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let size_line = read_line(reader)?;
        let size =
            usize::from_str_radix(size_line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
        if size == 0 {
            // Trailer section: read lines until the final blank.
            loop {
                if read_line(reader)?.is_empty() {
                    break;
                }
            }
            return Ok(body);
        }
        let start = body.len();
        body.resize(start + size, 0);
        reader.read_exact(&mut body[start..])?;
        let sep = read_line(reader)?;
        if !sep.is_empty() {
            return Err(bad("missing chunk separator"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_content_length_response() {
        let raw =
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\r\n{}";
        let resp = read_response(Cursor::new(&raw[..])).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("Content-Type"), Some("application/json"));
        assert_eq!(resp.text(), "{}");
    }

    #[test]
    fn decodes_chunked_response() {
        let raw = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n\
                    5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
        let resp = read_response(Cursor::new(&raw[..])).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text(), "hello world");
    }

    #[test]
    fn rejects_garbage_status_line() {
        let raw = b"nonsense\r\n\r\n";
        assert!(read_response(Cursor::new(&raw[..])).is_err());
    }

    #[test]
    fn rejects_truncated_chunk() {
        let raw = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\nA\r\nhi";
        assert!(read_response(Cursor::new(&raw[..])).is_err());
    }
}
