//! Hand-rolled HTTP/1.1: request parsing and response writing.
//!
//! Only what the daemon needs: `GET`/`POST` request lines, a bounded
//! header block, `Content-Length` or `Transfer-Encoding: chunked`
//! bodies (both size-capped), plain responses, and chunked responses
//! with trailers for the streaming path. Everything returns a typed
//! [`HttpError`]; nothing here panics on any byte sequence a client
//! can send.
//!
//! Request headers land in a `HashMap` keyed by lowercased name — a
//! case-insensitive *lookup table* that is never iterated into output
//! (responses are built from ordered vectors), which is why this file
//! alone may use the `HashMap` that `clippy.toml` disallows.

#![expect(
    clippy::disallowed_types,
    reason = "request headers are a case-insensitive lookup table, never iterated into a response; responses are built from order-preserving vectors"
)]

use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, Write};

/// Hard cap on one start line, header line or chunk-size line, bytes
/// (requests here, responses in [`crate::client`]).
pub(crate) const MAX_LINE_BYTES: usize = 8 * 1024;
/// Hard cap on the number of request headers.
const MAX_HEADERS: usize = 64;

/// Limits applied while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct ReadLimits {
    /// Largest accepted decoded body, bytes.
    pub max_body_bytes: usize,
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target as sent (`/v1/evaluate`).
    pub target: String,
    /// Headers, keyed by lowercased name; values trimmed. Duplicate
    /// headers keep the first value (none of the headers the protocol
    /// reads are list-valued).
    pub headers: HashMap<String, String>,
    /// The decoded body (empty for bodiless requests).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(&name.to_ascii_lowercase()).map(|v| &**v)
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header or chunk framing.
    Malformed(&'static str),
    /// Body (declared or decoded) exceeds the limit.
    BodyTooLarge {
        /// The configured cap, bytes.
        limit: usize,
    },
    /// The peer closed or timed out mid-request.
    UnexpectedEof,
    /// Socket-level failure.
    Io(std::io::Error),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::BodyTooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte limit")
            }
            HttpError::UnexpectedEof => write!(f, "connection closed mid-request"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl HttpError {
    /// The status code this error maps to on the wire.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) => 400,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::UnexpectedEof | HttpError::Io(_) => 400,
        }
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line, size-capped at
/// [`MAX_LINE_BYTES`].
pub(crate) fn read_line(stream: &mut impl BufRead) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::UnexpectedEof);
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return match String::from_utf8(line) {
                        Ok(s) => Ok(Some(s)),
                        Err(_) => Err(HttpError::Malformed("non-UTF-8 header bytes")),
                    };
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE_BYTES {
                    return Err(HttpError::Malformed("header line too long"));
                }
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Reads one request. `Ok(None)` is a clean end of connection (the
/// client closed before sending anything — not an error).
///
/// # Errors
///
/// [`HttpError`] on any framing violation, size overrun, mid-request
/// disconnect or socket failure.
pub fn read_request(
    stream: &mut impl BufRead,
    limits: ReadLimits,
) -> Result<Option<Request>, HttpError> {
    let request_line = match read_line(stream)? {
        None => return Ok(None),
        Some(line) => line,
    };
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::Malformed("request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }

    let mut headers = HashMap::new();
    loop {
        let line = read_line(stream)?.ok_or(HttpError::UnexpectedEof)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without `:`"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed("header name"));
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers"));
        }
        headers
            .entry(name.to_ascii_lowercase())
            .or_insert_with(|| value.trim().to_string());
    }

    let body = read_body(stream, &headers, limits)?;
    Ok(Some(Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body,
    }))
}

fn read_body(
    stream: &mut impl BufRead,
    headers: &HashMap<String, String>,
    limits: ReadLimits,
) -> Result<Vec<u8>, HttpError> {
    if let Some(te) = headers.get("transfer-encoding") {
        if !te.eq_ignore_ascii_case("chunked") {
            return Err(HttpError::Malformed("unsupported transfer-encoding"));
        }
        return read_chunked_body(stream, limits);
    }
    let declared: usize = match headers.get("content-length") {
        None => return Ok(Vec::new()),
        Some(v) => v
            .parse()
            .map_err(|_| HttpError::Malformed("content-length"))?,
    };
    if declared > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge {
            limit: limits.max_body_bytes,
        });
    }
    let mut body = vec![0u8; declared];
    read_exact_or_eof(stream, &mut body)?;
    Ok(body)
}

fn read_chunked_body(stream: &mut impl BufRead, limits: ReadLimits) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        let size_line = read_line(stream)?.ok_or(HttpError::UnexpectedEof)?;
        // Chunk extensions (after `;`) are tolerated and ignored.
        let size_text = size_line.split(';').next().unwrap_or("").trim();
        let size =
            usize::from_str_radix(size_text, 16).map_err(|_| HttpError::Malformed("chunk size"))?;
        if size == 0 {
            // Trailer section: lines until the blank terminator.
            loop {
                let line = read_line(stream)?.ok_or(HttpError::UnexpectedEof)?;
                if line.is_empty() {
                    return Ok(body);
                }
            }
        }
        if body.len().saturating_add(size) > limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge {
                limit: limits.max_body_bytes,
            });
        }
        let start = body.len();
        body.resize(start + size, 0);
        read_exact_or_eof(stream, &mut body[start..])?;
        let mut crlf = [0u8; 2];
        read_exact_or_eof(stream, &mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(HttpError::Malformed("chunk terminator"));
        }
    }
}

/// `read_exact` with EOF and timeouts mapped onto [`HttpError`].
fn read_exact_or_eof(stream: &mut impl BufRead, buf: &mut [u8]) -> Result<(), HttpError> {
    stream.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            HttpError::UnexpectedEof
        } else {
            HttpError::Io(e)
        }
    })
}

/// The reason phrase for the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete non-streaming response with a JSON body: head and
/// body in one write.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &str,
) -> std::io::Result<()> {
    let mut message = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        message.push_str(name);
        message.push_str(": ");
        message.push_str(value);
        message.push_str("\r\n");
    }
    message.push_str("\r\n");
    message.push_str(body);
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

/// A chunked streaming response: one `chunk` call per row, then
/// `finish` with the trailer fields. Every frame leaves in one write:
/// the response head with the first row (or with the terminator of an
/// empty batch), each later row's size line, payload and CRLF together,
/// and the zero chunk with all trailers.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    stream: W,
    /// The next frame's bytes; holds the unsent response head until the
    /// first write.
    frame: Vec<u8>,
}

impl<W: Write> ChunkedWriter<W> {
    /// Prepares the response head, declaring the trailer names that
    /// [`ChunkedWriter::finish`] will send. Nothing is written yet: the
    /// head goes out with the first frame.
    pub fn start(stream: W, status: u16, trailer_names: &[&str]) -> Self {
        let mut head = format!(
            "HTTP/1.1 {status} {}\r\ncontent-type: application/x-ndjson\r\ntransfer-encoding: chunked\r\n",
            reason(status),
        );
        if !trailer_names.is_empty() {
            head.push_str("trailer: ");
            head.push_str(&trailer_names.join(", "));
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        ChunkedWriter {
            stream,
            frame: head.into_bytes(),
        }
    }

    /// Writes one chunk (the payload is never empty for a row, and an
    /// empty payload is skipped — a zero-size chunk would terminate the
    /// stream early).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn chunk(&mut self, payload: &[u8]) -> std::io::Result<()> {
        if payload.is_empty() {
            return Ok(());
        }
        write!(self.frame, "{:x}\r\n", payload.len())?;
        self.frame.extend_from_slice(payload);
        self.frame.extend_from_slice(b"\r\n");
        self.send()
    }

    /// Terminates the stream: the zero chunk, then the trailers.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn finish(mut self, trailers: &[(&str, String)]) -> std::io::Result<()> {
        self.frame.extend_from_slice(b"0\r\n");
        for (name, value) in trailers {
            write!(self.frame, "{name}: {value}\r\n")?;
        }
        self.frame.extend_from_slice(b"\r\n");
        self.send()
    }

    /// Writes the pending frame in one `write_all` and empties the buffer
    /// for the next one.
    fn send(&mut self) -> std::io::Result<()> {
        let sent = self.stream.write_all(&self.frame);
        self.frame.clear();
        sent?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    const LIMITS: ReadLimits = ReadLimits {
        max_body_bytes: 1024,
    };

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw), LIMITS)
    }

    #[test]
    fn parses_content_length_and_chunked_bodies() {
        let req = parse(b"POST /v1/evaluate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/evaluate");
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"abcd");

        let req = parse(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2;ext\r\nde\r\n0\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body, b"abcde");

        // Bare-LF framing and no body.
        let req = parse(b"GET /stats HTTP/1.0\nX: y\n\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());

        // Clean close before any bytes is None, not an error.
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn rejects_bad_framing_and_oversize() {
        assert!(matches!(
            parse(b"POST\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / SPDY/9\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nbad header\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        let e = parse(b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err();
        assert!(matches!(e, HttpError::BodyTooLarge { limit: 1024 }));
        assert_eq!(e.status(), 413);
        // Chunked bodies are capped on the decoded total.
        let mut raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        for _ in 0..5 {
            raw.extend_from_slice(b"190\r\n");
            raw.extend_from_slice(&[b'x'; 0x190]);
            raw.extend_from_slice(b"\r\n");
        }
        assert!(matches!(
            parse(&raw),
            Err(HttpError::BodyTooLarge { limit: 1024 })
        ));
        // Truncated chunked read: declared 10 bytes, stream ends.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\na\r\nab"),
            Err(HttpError::UnexpectedEof)
        ));
        // Mid-header disconnect.
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nHost"),
            Err(HttpError::UnexpectedEof)
        ));
    }

    #[test]
    fn chunked_writer_frames_rows_and_trailers() {
        let mut out = Vec::new();
        let mut w = ChunkedWriter::start(&mut out, 200, &["x-memx-rows"]);
        w.chunk(b"{\"index\":0}\n").unwrap();
        w.chunk(b"").unwrap(); // skipped, must not terminate
        w.chunk(b"{\"index\":1}\n").unwrap();
        w.finish(&[("x-memx-rows", "2".to_string())]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("transfer-encoding: chunked\r\n"));
        assert!(text.contains("trailer: x-memx-rows\r\n"));
        assert!(text.contains("c\r\n{\"index\":0}\n\r\n"));
        assert!(text.ends_with("0\r\nx-memx-rows: 2\r\n\r\n"));
    }

    /// A sink that records each `write` call's bytes.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_frame_is_one_write() {
        let trailers = ["x-memx-rows", "x-a", "x-b", "x-c"];
        let mut writes = Writes::default();
        let mut w = ChunkedWriter::start(&mut writes, 200, &trailers);
        assert!(w.stream.0.is_empty(), "start must not write the head");
        for row in ["{\"index\":0}\n", "{\"index\":1}\n", "{\"index\":2}\n"] {
            w.chunk(row.as_bytes()).unwrap();
        }
        w.finish(&trailers.map(|name| (name, "3".to_string())))
            .unwrap();
        // The head with the first row, one write per later row, one for
        // the zero chunk and every trailer.
        assert_eq!(writes.0.len(), 4, "{:?}", writes.0);
        assert!(writes.0[0].starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert!(writes.0[0].ends_with(b"\r\n\r\nc\r\n{\"index\":0}\n\r\n"));
        assert_eq!(writes.0[2], b"c\r\n{\"index\":2}\n\r\n");
        assert_eq!(
            writes.0[3],
            b"0\r\nx-memx-rows: 3\r\nx-a: 3\r\nx-b: 3\r\nx-c: 3\r\n\r\n"
        );

        // An empty batch sends the head with the terminator.
        let mut writes = Writes::default();
        ChunkedWriter::start(&mut writes, 200, &[])
            .finish(&[])
            .unwrap();
        assert_eq!(writes.0.len(), 1);
        assert!(writes.0[0].ends_with(b"chunked\r\n\r\n0\r\n\r\n"));

        let mut writes = Writes::default();
        write_response(&mut writes, 404, &[("connection", "close".into())], "{}").unwrap();
        assert_eq!(
            writes.0,
            [b"HTTP/1.1 404 Not Found\r\ncontent-type: application/json\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}".to_vec()]
        );
    }
}
