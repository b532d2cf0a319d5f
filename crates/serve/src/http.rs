//! A minimal, dependency-free HTTP/1.1 layer.
//!
//! Just enough of RFC 9112 for the service's five endpoints: one
//! request per connection (`Connection: close`), request line + headers
//! capped at [`MAX_HEAD_BYTES`], bodies capped at
//! [`wire::MAX_BODY_BYTES`](crate::wire::MAX_BODY_BYTES) and read only
//! when `Content-Length` says so. Anything outside that envelope gets a
//! structured 4xx, never a panic and never an unbounded allocation.

use crate::wire::MAX_BODY_BYTES;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Cap on the request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Per-connection socket timeout: a stalled client can't pin a thread.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The request target, e.g. `/v1/jobs/job-00000001`.
    pub path: String,
    /// The body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

/// Why a request could not be read. Maps onto a 4xx status.
#[derive(Debug)]
pub enum HttpError {
    /// Socket error or EOF mid-request.
    Io(io::Error),
    /// Malformed request line or headers.
    BadRequest(&'static str),
    /// `Content-Length` exceeded the body cap.
    TooLarge,
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Read one request from the stream.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;

    // Read until the blank line ending the head, without overshooting
    // into the body by more than what one read() returns.
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    let body_start;
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(HttpError::BadRequest("connection closed mid-request"));
        }
        head.extend_from_slice(&buf[..n]);
        if let Some(pos) = find_head_end(&head) {
            body_start = pos;
            break;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest("request head too large"));
        }
    }
    let head_text = std::str::from_utf8(&head[..body_start])
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest("malformed request line"));
    }

    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::BadRequest("bad Content-Length"))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }

    // `body_start` is the index just past the head terminator; whatever
    // we over-read belongs to the body.
    let mut body = head.split_off(body_start + 4);
    body.truncate(content_length);
    while body.len() < content_length {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(HttpError::BadRequest("connection closed mid-body"));
        }
        let want = content_length - body.len();
        body.extend_from_slice(&buf[..n.min(want)]);
    }
    Ok(Request { method, path, body })
}

/// Offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Write one response and flush. `extra_headers` are `name: value`
/// pairs (e.g. `Retry-After`).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    fn roundtrip(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn);
        let _ = client.join().unwrap();
        req
    }

    #[test]
    fn a_post_with_body_parses() {
        let req = roundtrip(b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn a_get_without_body_parses() {
        let req = roundtrip(b"GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_bodies_and_heads_are_bounded_errors() {
        let huge = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            roundtrip(huge.as_bytes()),
            Err(HttpError::TooLarge)
        ));
        let mut head = b"GET /x HTTP/1.1\r\n".to_vec();
        head.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert!(matches!(
            roundtrip(&head),
            Err(HttpError::BadRequest(_)) | Err(HttpError::Io(_))
        ));
    }

    #[test]
    fn garbage_request_lines_are_rejected() {
        for raw in [&b"NOT-HTTP\r\n\r\n"[..], b"\r\n\r\n", b"GET\r\n\r\n"] {
            assert!(matches!(roundtrip(raw), Err(HttpError::BadRequest(_))));
        }
    }
}
