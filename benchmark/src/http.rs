//! The load generator's HTTP/1.1 client.
//!
//! Like `bgpsim_serve::client::request`, which the repository's own
//! load test uses, [`request`] opens one connection per request and
//! asks the daemon to close it. Unlike it, it reports the instant the
//! first body byte arrived. [`Conn`] keeps a connection open instead,
//! for the probe that measures what a keep-alive client would see.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn bad(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// A finished response and when its body began to arrive.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// When the first body byte was read (the end of the head for an
    /// empty body).
    pub first_byte: Instant,
}

/// One request on a connection of its own, closed by the daemon after
/// the response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Response> {
    Conn::connect(addr)?.send(method, path, body, false)
}

/// One connection to the daemon.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request, leaving the connection open for the next.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        self.send(method, path, body, true)
    }

    /// Sends one request in a single write and reads the whole
    /// response, de-chunking a streamed body.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        keep_alive: bool,
    ) -> std::io::Result<Response> {
        let mut message =
            format!("{method} {path} HTTP/1.1\r\nhost: bench\r\nx-api-key: bench\r\n");
        if !keep_alive {
            message.push_str("connection: close\r\n");
        }
        if !body.is_empty() || method == "POST" {
            message.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        message.push_str("\r\n");
        message.push_str(body);
        self.writer.write_all(message.as_bytes())?;
        self.read_response()
    }

    fn line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed mid-response"));
        }
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let status_line = self.line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = None;
        let mut chunked = false;
        loop {
            let header = self.line()?.to_ascii_lowercase();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.strip_prefix("content-length:") {
                length = v.trim().parse::<usize>().ok();
            }
            chunked |= header.starts_with("transfer-encoding:") && header.contains("chunked");
        }
        let mut body = Vec::new();
        let mut first_byte = None;
        if chunked {
            loop {
                let size = usize::from_str_radix(self.line()?.trim(), 16)
                    .map_err(|_| bad("bad chunk size"))?;
                first_byte.get_or_insert_with(Instant::now);
                if size == 0 {
                    // No trailers are sent: the blank line ends the body.
                    self.line()?;
                    break;
                }
                let start = body.len();
                body.resize(start + size, 0);
                self.reader.read_exact(&mut body[start..])?;
                self.line()?;
            }
        } else {
            body.resize(length.ok_or_else(|| bad("response without framing"))?, 0);
            self.reader.read_exact(&mut body)?;
        }
        Ok(Response {
            status,
            body,
            first_byte: first_byte.unwrap_or_else(Instant::now),
        })
    }
}
