//! A minimal scripted client for the daemon's protocol.
//!
//! Shared by the `serve_client` bench binary and the wire-layer tests,
//! so every consumer reads chunked responses (and their trailers) the
//! same way. One chunk is one row — the client surfaces chunk payloads
//! verbatim, which is what the byte-identity gates diff against the
//! offline reference.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{self, HttpError};

/// What a request came back as.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response headers in wire order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Chunk payloads in order (one evaluated row each) for chunked
    /// responses; empty otherwise.
    pub rows: Vec<Vec<u8>>,
    /// Trailer fields in wire order, names lowercased (chunked only).
    pub trailers: Vec<(String, String)>,
    /// The body for non-chunked responses; empty otherwise.
    pub body: Vec<u8>,
}

impl Response {
    /// Case-insensitive header lookup (headers, then trailers).
    pub fn field(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .chain(self.trailers.iter())
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| &**v)
    }
}

/// Why a request failed client-side.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's response violated HTTP framing.
    Protocol(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Protocol(what) => write!(f, "malformed response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// POSTs `body` to `/v1/evaluate` and reads the full response.
///
/// # Errors
///
/// [`ClientError`] on connect, write or response-framing failure.
pub fn post_evaluate(addr: SocketAddr, body: &str) -> Result<Response, ClientError> {
    request(addr, "POST", "/v1/evaluate", Some(body))
}

/// GETs `path` and reads the full response.
///
/// # Errors
///
/// [`ClientError`] on connect, write or response-framing failure.
pub fn get(addr: SocketAddr, path: &str) -> Result<Response, ClientError> {
    request(addr, "GET", path, None)
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    // Head and body leave in one write.
    let mut message = format!("{method} {path} HTTP/1.1\r\nhost: memx-serve\r\n");
    if let Some(body) = body {
        message.push_str(&format!(
            "content-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    message.push_str("connection: close\r\n\r\n");
    message.push_str(body.unwrap_or(""));
    stream.write_all(message.as_bytes())?;
    stream.flush()?;
    read_response(&mut BufReader::new(stream))
}

/// Reads one response off `reader` (shared with the tests, which drive
/// raw sockets themselves).
///
/// # Errors
///
/// [`ClientError`] on framing violations or socket failure.
pub fn read_response(reader: &mut impl BufRead) -> Result<Response, ClientError> {
    let status_line = read_line(reader)?.ok_or(ClientError::Protocol("no status line"))?;
    let mut parts = status_line.split(' ');
    let status: u16 = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code
            .parse()
            .map_err(|_| ClientError::Protocol("status code"))?,
        _ => return Err(ClientError::Protocol("status line")),
    };
    let headers = read_fields(reader)?;
    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));

    let mut rows = Vec::new();
    let mut trailers = Vec::new();
    let mut body = Vec::new();
    if chunked {
        loop {
            let size_line = read_line(reader)?.ok_or(ClientError::Protocol("truncated chunks"))?;
            let size_text = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_text, 16)
                .map_err(|_| ClientError::Protocol("chunk size"))?;
            if size == 0 {
                trailers = read_fields(reader)?;
                break;
            }
            let mut payload = vec![0u8; size];
            reader
                .read_exact(&mut payload)
                .map_err(|_| ClientError::Protocol("truncated chunk payload"))?;
            let mut crlf = [0u8; 2];
            reader
                .read_exact(&mut crlf)
                .map_err(|_| ClientError::Protocol("truncated chunk terminator"))?;
            if &crlf != b"\r\n" {
                return Err(ClientError::Protocol("chunk terminator"));
            }
            rows.push(payload);
        }
    } else {
        let length = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok());
        match length {
            Some(length) => {
                body = vec![0u8; length];
                reader
                    .read_exact(&mut body)
                    .map_err(|_| ClientError::Protocol("truncated body"))?;
            }
            None => {
                reader.read_to_end(&mut body)?;
            }
        }
    }
    Ok(Response {
        status,
        headers,
        rows,
        trailers,
        body,
    })
}

/// Reads header/trailer fields until the blank line.
fn read_fields(reader: &mut impl BufRead) -> Result<Vec<(String, String)>, ClientError> {
    let mut fields = Vec::new();
    loop {
        let line = read_line(reader)?.ok_or(ClientError::Protocol("truncated fields"))?;
        if line.is_empty() {
            return Ok(fields);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ClientError::Protocol("field without `:`"))?;
        fields.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// Reads one line with the server's reader, so responses get the same
/// [`http::MAX_LINE_BYTES`] cap as requests.
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, ClientError> {
    http::read_line(reader).map_err(|e| match e {
        HttpError::Io(e) => ClientError::Io(e),
        HttpError::Malformed(what) => ClientError::Protocol(what),
        HttpError::UnexpectedEof | HttpError::BodyTooLarge { .. } => {
            ClientError::Protocol("truncated line")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Response, ClientError> {
        read_response(&mut raw.as_bytes())
    }

    #[test]
    fn read_response_enforces_chunk_and_line_framing() {
        let head = "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n";
        let ok = parse(&format!(
            "{head}3\r\nabc\r\n2\r\nde\r\n0\r\nx-memx-rows: 2\r\n\r\n"
        ))
        .unwrap();
        assert_eq!(ok.status, 200);
        assert_eq!(ok.rows, [b"abc".to_vec(), b"de".to_vec()]);
        assert_eq!(ok.trailers, [("x-memx-rows".into(), "2".into())]);

        let err = parse(&format!("{head}3\r\nabcXY0\r\n\r\n")).unwrap_err();
        assert!(
            matches!(err, ClientError::Protocol("chunk terminator")),
            "{err}"
        );

        let long = "a".repeat(http::MAX_LINE_BYTES);
        let err = parse(&format!("HTTP/1.1 200 OK\r\nx-pad: {long}\r\n\r\n")).unwrap_err();
        assert!(
            matches!(err, ClientError::Protocol("header line too long")),
            "{err}"
        );
    }
}
