//! Client side of the line protocol: raw frame reading and a cheap
//! scan of the fields the benchmark checks.
//!
//! The load generator shares the host's cores with the server, so it
//! never parses a whole frame: it reads the few head fields it needs
//! and slices the payload bytes straight out of the `done` line, which
//! ends with `,"payload":<payload>}` — the exact bytes the server sent.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// What a response line is.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<'a> {
    /// `accepted`, `progress` and other non-terminal frames.
    Interim,
    /// The terminal `done` frame of request `id`.
    Done {
        /// Request id.
        id: u64,
        /// `miss`, `memory` or `disk`.
        cache: &'a str,
        /// `stats.elapsed_seconds`, present on fresh results.
        elapsed_s: Option<f64>,
        /// The raw payload bytes.
        payload: &'a [u8],
    },
    /// An `error` frame, with its request id when it has one.
    Error {
        /// Request id.
        id: Option<u64>,
        /// The server's message.
        message: String,
    },
    /// A line that is not a frame this protocol defines.
    Malformed,
}

const PAYLOAD_MARKER: &[u8] = b",\"payload\":";

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The string value of `"name":"…"` within `head` (no escapes: the
/// fields read here never contain any).
fn str_field<'a>(head: &'a [u8], name: &str) -> Option<&'a str> {
    let marker = format!("\"{name}\":\"");
    let start = find(head, marker.as_bytes())? + marker.len();
    let len = head[start..].iter().position(|&b| b == b'"')?;
    std::str::from_utf8(&head[start..start + len]).ok()
}

fn num_field(head: &[u8], name: &str) -> Option<f64> {
    let marker = format!("\"{name}\":");
    let start = find(head, marker.as_bytes())? + marker.len();
    let len = head[start..].iter().position(|&b| b == b',' || b == b'}')?;
    std::str::from_utf8(&head[start..start + len]).ok()?.parse().ok()
}

/// Classifies one response line (with or without its trailing newline).
pub fn parse(line: &[u8]) -> Frame<'_> {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    let head_end = find(line, PAYLOAD_MARKER).unwrap_or(line.len());
    let head = &line[..head_end];
    let id = str_field(head, "id").and_then(|id| id.parse().ok());
    match str_field(head, "event") {
        Some("done") => match (id, str_field(head, "cache"), line.strip_suffix(b"}")) {
            (Some(id), Some(cache), Some(body)) if head_end < line.len() => Frame::Done {
                id,
                cache,
                elapsed_s: num_field(head, "elapsed_seconds"),
                payload: &body[head_end + PAYLOAD_MARKER.len()..],
            },
            _ => Frame::Malformed,
        },
        Some("error") => {
            let message = std::str::from_utf8(line)
                .ok()
                .and_then(|text| serde_json::from_str::<serde_json::JsonValue>(text).ok())
                .and_then(|v| saseval_server::protocol::str_field(&v, "message").map(str::to_owned))
                .unwrap_or_default();
            Frame::Error { id, message }
        }
        Some(_) => Frame::Interim,
        None => Frame::Malformed,
    }
}

/// One request line: `{"id":"<id>","job":<job>}` plus the newline.
pub fn request_line(id: u64, job: &str) -> Vec<u8> {
    format!("{{\"id\":\"{id}\",\"job\":{job}}}\n").into_bytes()
}

/// A client connection reading whole lines, tolerant of read timeouts
/// in the middle of a line.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
    complete: bool,
    out: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off, as the server's own client does.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Conn { reader, writer, line: Vec::new(), complete: false, out: Vec::new() })
    }

    /// Writes bytes in one call.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Switches the socket to non-blocking mode: [`Conn::next_line`]
    /// then returns `None` when no complete line has arrived, and writes
    /// go through [`Conn::queue`].
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn set_nonblocking(&mut self) -> io::Result<()> {
        self.writer.set_nonblocking(true)
    }

    /// Non-blocking mode: appends bytes to the outgoing buffer and
    /// writes as much of it as the socket takes now.
    ///
    /// # Errors
    ///
    /// Propagates write failures other than `WouldBlock`.
    pub fn queue(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.out.extend_from_slice(bytes);
        self.flush_some()
    }

    /// Non-blocking mode: writes as much queued output as the socket
    /// takes now.
    ///
    /// # Errors
    ///
    /// Propagates write failures other than `WouldBlock`.
    pub fn flush_some(&mut self) -> io::Result<()> {
        while !self.out.is_empty() {
            match self.writer.write(&self.out) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "socket closed")),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The line [`Conn::next_line`] last returned.
    pub fn current_line(&self) -> &[u8] {
        &self.line
    }

    /// The next complete line; `None` in non-blocking mode when none has
    /// arrived yet.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the server closed the connection, otherwise
    /// the read error.
    pub fn next_line(&mut self) -> io::Result<Option<&[u8]>> {
        if self.complete {
            self.line.clear();
            self.complete = false;
        }
        match self.reader.read_until(b'\n', &mut self.line) {
            Ok(0) => {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection"))
            }
            Ok(_) if self.line.ends_with(b"\n") => {
                self.complete = true;
                Ok(Some(&self.line))
            }
            Ok(_) => {
                Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-line"))
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}
