//! The workspace's one HTTP/1.1 codec.
//!
//! Every server and client in perfpred frames its traffic here:
//! `perfpred-serve`'s reactor, both sides of `perfpred-router`,
//! the control plane's client and the load generator. The subset is what
//! the daemons speak — a request or status line, headers,
//! `Content-Length` bodies and keep-alive — and everything else is
//! refused: `Transfer-Encoding`, versions other than HTTP/1.x, header
//! lines without a colon.
//!
//! The parsers are incremental. [`parse_head`] and [`parse_response_head`]
//! run over whatever bytes have arrived and answer
//! [`HeadOutcome::Partial`] until a whole head is present, so the
//! nonblocking reactor simply re-runs them as bytes trickle in. Every
//! limit is checked against the buffered bytes before more are read: an
//! unterminated head is refused once it passes [`MAX_HEAD_BYTES`], and a
//! `Content-Length` above [`MAX_BODY_BYTES`] is refused from the head
//! alone, before one body byte is buffered. [`read_request`] and
//! [`read_response`] are the blocking front ends: they fill a buffer from
//! a socket and run the same parsers over it, so a blocking caller is
//! bounded by the same caps.

use crate::Json;
use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Upper bound on request line + headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Upper bound on the number of header lines in one message.
pub const MAX_HEADERS: usize = 64;
/// Upper bound on a request body (1 MiB). A `Content-Length` above this
/// is answered with 413 before a single body byte is buffered, so one
/// request can never make a daemon allocate gigabytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Upper bound on a response body a client reads. Responses come from
/// perfpred daemons; the largest, `GET /models`, lists every model
/// version at about 110 bytes each.
pub const MAX_RESPONSE_BODY_BYTES: usize = 16 * 1024 * 1024;
/// Upper bound on bytes drained from a connection being closed with an
/// error response: enough for any in-flight head plus a capped body.
/// Past this the peer is hostile and an RST is acceptable.
pub const DRAIN_BUDGET_BYTES: usize = 256 * 1024;
/// How long one drain read waits for the peer before giving up.
const DRAIN_READ_TIMEOUT: Duration = Duration::from_millis(100);
/// How long a whole drain may take: a peer trickling bytes just inside
/// [`DRAIN_READ_TIMEOUT`] cannot hold the draining thread longer.
const DRAIN_DEADLINE: Duration = Duration::from_secs(1);
/// Bytes the blocking readers take from the socket per `read` call.
const READ_CHUNK: usize = 8 * 1024;

/// One parsed request.
///
/// `Default` gives `keep_alive: false`; only scratch swaps (`mem::take`)
/// rely on it, and every parse resets the flag anyway.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased as received).
    pub method: String,
    /// The path, query string stripped.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// The body parsed as JSON (empty body → empty object, so endpoints
    /// with all-optional fields accept bare POSTs).
    pub fn json(&self) -> Result<Json, String> {
        if self.body.is_empty() {
            return Ok(Json::obj());
        }
        let text = std::str::from_utf8(&self.body).map_err(|_| "body is not UTF-8".to_string())?;
        Json::parse(text)
    }
}

/// A response, either built to send or parsed off the wire.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: Cow<'static, str>,
    /// `Allow` header value (RFC 9110 requires it on 405s so clients
    /// learn which methods the path *does* answer).
    pub allow: Option<Cow<'static, str>>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, value: &Json) -> Response {
        Response {
            status,
            content_type: Cow::Borrowed("application/json"),
            allow: None,
            body: value.render().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: Cow::Borrowed("text/plain; charset=utf-8"),
            allow: None,
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Response {
        let mut obj = Json::obj();
        obj.set("error", message);
        Response::json(status, &obj)
    }

    /// A 405 for a known path hit with the wrong method. Carries the
    /// `Allow` header and keeps the connection open — a wrong verb is a
    /// client mistake, not a protocol violation worth a teardown.
    pub fn method_not_allowed(allow: &'static str) -> Response {
        let mut resp = Response::error(405, "method not allowed");
        resp.allow = Some(Cow::Borrowed(allow));
        resp
    }

    /// The body as text (UTF-8-lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Serializes the response with one write; `keep_alive` controls the
    /// `Connection` header (and must match what the caller then does).
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> io::Result<()> {
        let mut buf = Vec::with_capacity(160 + self.body.len());
        self.write_into(&mut buf, keep_alive);
        w.write_all(&buf)?;
        w.flush()
    }

    /// Serializes the response into a caller-owned scratch buffer, so
    /// pooled connections build status line + headers + body into one
    /// reusable `Vec<u8>` and issue a single write. Appends without
    /// clearing, which lets callers batch pipelined responses; integer
    /// formatting stays on the stack, so once the buffer has grown to its
    /// steady-state size this performs no heap allocation.
    pub fn write_into(&self, buf: &mut Vec<u8>, keep_alive: bool) {
        write!(
            buf,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )
        .expect("writing into a Vec cannot fail");
        if let Some(allow) = &self.allow {
            write!(buf, "Allow: {allow}\r\n").expect("writing into a Vec cannot fail");
        }
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(&self.body);
    }
}

/// The reason phrase for the status codes the daemons emit.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// A parsed head's framing facts.
#[derive(Debug, Clone, Copy)]
pub struct HeadInfo {
    /// Bytes of start line + headers + terminating empty line.
    pub head_len: usize,
    /// Advertised `Content-Length` (0 when absent).
    pub content_length: usize,
    /// Whether the sender keeps the connection open (`Connection: close`
    /// clears it; HTTP/1.1 defaults to keep-alive).
    pub keep_alive: bool,
}

impl HeadInfo {
    /// Total framed size of the message: head plus body.
    pub fn total_len(&self) -> usize {
        self.head_len + self.content_length
    }
}

/// What one incremental head-parse attempt produced.
#[derive(Debug)]
pub enum HeadOutcome {
    /// Head complete; the body (if any) still needs `content_length`
    /// bytes after `head_len`.
    Complete(HeadInfo),
    /// Not enough bytes yet; keep reading.
    Partial,
    /// Malformed or unsupported framing; there is no message to answer.
    Malformed,
    /// A size limit tripped but framing was intact enough to answer:
    /// write this error (`Connection: close`), then drain and close.
    Reject {
        /// 413 (body too large) or 431 (head too large / too many headers).
        status: u16,
        /// Human-readable reason for the error envelope.
        message: &'static str,
    },
}

fn reject_431(message: &'static str) -> HeadOutcome {
    HeadOutcome::Reject {
        status: 431,
        message,
    }
}

/// One complete line (through `\n`) starting at `*pos`, or `None`.
fn next_line<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let rest = &buf[*pos..];
    let nl = rest.iter().position(|&b| b == b'\n')?;
    *pos += nl + 1;
    Some(&rest[..=nl])
}

/// The head grammar both directions share. `start` gets the trimmed
/// start line and says whether it is acceptable; `field` gets every
/// header the framing itself does not consume. A `Content-Length` above
/// `max_body` is a 413.
fn parse_message(
    buf: &[u8],
    max_body: usize,
    start: impl FnOnce(&str) -> bool,
    mut field: impl FnMut(&str, &str),
) -> HeadOutcome {
    let mut pos = 0usize;
    let Some(line) = next_line(buf, &mut pos) else {
        return if buf.len() > MAX_HEAD_BYTES {
            reject_431("request line too long")
        } else {
            HeadOutcome::Partial
        };
    };
    if line.len() > MAX_HEAD_BYTES {
        return reject_431("request line too long");
    }
    if !start(String::from_utf8_lossy(line).trim_end()) {
        return HeadOutcome::Malformed;
    }

    let mut info = HeadInfo {
        head_len: 0,
        content_length: 0,
        keep_alive: true, // HTTP/1.1 default
    };
    let mut head_bytes = line.len();
    let mut headers = 0usize;
    loop {
        let Some(hline) = next_line(buf, &mut pos) else {
            // An unterminated header line past the whole head budget can
            // never become legal; answer now instead of buffering on.
            return if buf.len() - pos > MAX_HEAD_BYTES {
                reject_431("header line too long")
            } else {
                HeadOutcome::Partial
            };
        };
        if hline.len() > MAX_HEAD_BYTES {
            return reject_431("header line too long");
        }
        head_bytes += hline.len();
        if head_bytes > MAX_HEAD_BYTES {
            return reject_431("request head exceeds 8 KiB");
        }
        let text = String::from_utf8_lossy(hline);
        let text = text.trim_end();
        if text.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return reject_431("too many header fields");
        }
        let Some((name, value)) = text.split_once(':') else {
            return HeadOutcome::Malformed;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            // Parsed as u64 so an absurd length is refused with 413, never
            // buffered and never wrapped by a narrower usize.
            match value.parse::<u64>() {
                Ok(n) if n <= max_body as u64 => info.content_length = n as usize,
                Ok(_) => {
                    return HeadOutcome::Reject {
                        status: 413,
                        message: "request body exceeds 1 MiB",
                    }
                }
                Err(_) => return HeadOutcome::Malformed,
            }
        } else if name.eq_ignore_ascii_case("connection") {
            info.keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return HeadOutcome::Malformed; // unsupported
        } else {
            field(name, value);
        }
    }
    info.head_len = pos;
    HeadOutcome::Complete(info)
}

/// Incrementally parses a request head out of `buf`, writing method, path
/// and keep-alive into the reused `req` scratch (the body is left alone —
/// the caller copies it once `content_length` bytes are buffered). Re-run
/// from scratch whenever more bytes arrive; heads are capped at 8 KiB so
/// the rescan stays cheap, and nothing allocates once the scratch strings
/// have grown.
pub fn parse_head(buf: &[u8], req: &mut Request) -> HeadOutcome {
    let outcome = parse_message(
        buf,
        MAX_BODY_BYTES,
        |line| {
            let mut parts = line.split_whitespace();
            let (Some(method), Some(target), Some(version)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return false;
            };
            if !version.starts_with("HTTP/1.") {
                return false;
            }
            req.method.clear();
            req.method.push_str(method);
            req.method.make_ascii_uppercase();
            req.path.clear();
            req.path
                .push_str(target.split('?').next().unwrap_or(target));
            true
        },
        |_, _| {},
    );
    if let HeadOutcome::Complete(info) = &outcome {
        req.keep_alive = info.keep_alive;
    }
    outcome
}

/// Incrementally parses a response head out of `buf` into `resp`: the
/// status, and `Content-Type` and `Allow` when present (`allow` is reset
/// first; an absent `Content-Type` leaves the caller's default). Same
/// head limits and refusals as [`parse_head`]; the body may be up to
/// [`MAX_RESPONSE_BODY_BYTES`].
pub fn parse_response_head(buf: &[u8], resp: &mut Response) -> HeadOutcome {
    let mut status = None;
    resp.allow = None;
    let outcome = parse_message(
        buf,
        MAX_RESPONSE_BODY_BYTES,
        |line| {
            let mut parts = line.split_whitespace();
            let version = parts.next().unwrap_or("");
            status = parts.next().and_then(|s| s.parse::<u16>().ok());
            version.starts_with("HTTP/1.") && status.is_some()
        },
        |name, value| {
            if name.eq_ignore_ascii_case("content-type") {
                resp.content_type = Cow::Owned(value.to_string());
            } else if name.eq_ignore_ascii_case("allow") {
                resp.allow = Some(Cow::Owned(value.to_string()));
            }
        },
    );
    if let Some(status) = status {
        resp.status = status;
    }
    outcome
}

/// What one blocking [`read_request`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// A complete request sits in the caller's scratch.
    Request,
    /// A read timed out with nothing buffered: the connection is quiet,
    /// not broken. Poll whatever the caller polls and read again.
    Idle,
    /// The peer closed, or a read timed out mid-message.
    Closed,
    /// Framing the parser refuses (see [`HeadOutcome::Malformed`]).
    Malformed,
    /// A size limit tripped with intact framing: answer `status` with
    /// `Connection: close`, then [`drain_then_close`].
    Reject {
        /// 413 or 431.
        status: u16,
        /// Human-readable reason for the error envelope.
        message: &'static str,
    },
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads from `r` into `buf` until `parse` reports a complete head and the
/// body behind it is buffered too. Bytes already in `buf` (a pipelined
/// successor) are parsed before anything is read. A read timeout with
/// `buf` empty is [`ReadOutcome::Idle`]; once bytes are pending, a timeout
/// gives up with [`ReadOutcome::Closed`]. The parser's caps bound `buf`
/// to one head plus one body plus one chunk.
fn fill<R: Read>(
    r: &mut R,
    buf: &mut Vec<u8>,
    mut parse: impl FnMut(&[u8]) -> HeadOutcome,
) -> io::Result<Result<HeadInfo, ReadOutcome>> {
    let mut chunk = [0u8; READ_CHUNK];
    let mut head = None;
    loop {
        if head.is_none() && !buf.is_empty() {
            match parse(buf) {
                HeadOutcome::Complete(info) => head = Some(info),
                HeadOutcome::Partial => {}
                HeadOutcome::Malformed => return Ok(Err(ReadOutcome::Malformed)),
                HeadOutcome::Reject { status, message } => {
                    return Ok(Err(ReadOutcome::Reject { status, message }))
                }
            }
        }
        if let Some(info) = head {
            if buf.len() >= info.total_len() {
                return Ok(Ok(info));
            }
        }
        match r.read(&mut chunk) {
            Ok(0) => return Ok(Err(ReadOutcome::Closed)),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                let outcome = if buf.is_empty() {
                    ReadOutcome::Idle
                } else {
                    ReadOutcome::Closed
                };
                return Ok(Err(outcome));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reads the next request off a blocking connection into the `req`
/// scratch. `buf` is the connection's own buffer: bytes of a pipelined
/// successor stay in it for the next call. The socket's read timeout is
/// the stall budget: a timeout between requests is [`ReadOutcome::Idle`],
/// one mid-request is [`ReadOutcome::Closed`].
///
/// `Err` is only returned for hard I/O errors.
pub fn read_request<R: Read>(
    r: &mut R,
    buf: &mut Vec<u8>,
    req: &mut Request,
) -> io::Result<ReadOutcome> {
    let info = match fill(r, buf, |b| parse_head(b, req))? {
        Ok(info) => info,
        Err(outcome) => return Ok(outcome),
    };
    req.body.clear();
    req.body
        .extend_from_slice(&buf[info.head_len..info.total_len()]);
    buf.drain(..info.total_len());
    Ok(ReadOutcome::Request)
}

/// Reads one response to a request just sent on `r`; returns it with
/// whether the connection may carry another request. The first read
/// timeout fails the read (callers set the socket timeout they want).
/// Bytes past the response mean the peer broke framing, so such a
/// connection is never reported reusable.
pub fn read_response<R: Read>(r: &mut R) -> io::Result<(Response, bool)> {
    let mut resp = Response {
        status: 0,
        content_type: Cow::Borrowed("application/json"),
        allow: None,
        body: Vec::new(),
    };
    let mut buf = Vec::new();
    let info = match fill(r, &mut buf, |b| parse_response_head(b, &mut resp))? {
        Ok(info) => info,
        Err(ReadOutcome::Idle) => {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no response before the read timeout",
            ))
        }
        Err(ReadOutcome::Closed) => return Err(io::ErrorKind::UnexpectedEof.into()),
        Err(_) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed or oversized response",
            ))
        }
    };
    let reusable = info.keep_alive && buf.len() == info.total_len();
    buf.truncate(info.total_len());
    resp.body = buf.split_off(info.head_len);
    Ok((resp, reusable))
}

/// Closes a connection whose error response has just been written:
/// signals end-of-response, then reads and discards what the peer is still
/// sending — at most [`DRAIN_BUDGET_BYTES`] within [`DRAIN_DEADLINE`],
/// each read bounded by a short timeout — so the close is a FIN the peer
/// can read the response through, not an RST that destroys it.
pub fn drain_then_close(mut stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(DRAIN_READ_TIMEOUT));
    let deadline = Instant::now() + DRAIN_DEADLINE;
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    while drained < DRAIN_BUDGET_BYTES && Instant::now() < deadline {
        match stream.read(&mut sink) {
            Ok(0) => return, // peer saw the FIN and finished
            Ok(n) => drained += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Timeout or hard error: the peer went quiet without closing;
            // it has had a fair window to read the response.
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the blocking reader over an in-memory byte stream.
    fn read(raw: &[u8]) -> (ReadOutcome, Request) {
        let mut req = Request::default();
        let outcome = read_request(&mut &raw[..], &mut Vec::new(), &mut req).unwrap();
        (outcome, req)
    }

    fn rejects(raw: &[u8], want: u16) -> bool {
        matches!(read(raw).0, ReadOutcome::Reject { status, .. } if status == want)
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let raw = b"POST /predict?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 9\r\n\r\n{\"n\": 42}";
        let (outcome, req) = read(raw);
        assert_eq!(outcome, ReadOutcome::Request);
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert!(req.keep_alive);
        let json = req.json().unwrap();
        assert_eq!(json.get("n").and_then(Json::as_u32), Some(42));
    }

    #[test]
    fn connection_close_and_bare_get() {
        let (outcome, req) = read(b"get /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(outcome, ReadOutcome::Request);
        assert_eq!(req.method, "GET");
        assert!(!req.keep_alive);
        assert!(req.body.is_empty());
        assert_eq!(req.json().unwrap(), Json::obj());
    }

    #[test]
    fn bare_lf_lines_parse() {
        let (outcome, req) = read(b"GET /lf HTTP/1.1\nHost: h\n\n");
        assert_eq!(outcome, ReadOutcome::Request);
        assert_eq!(req.path, "/lf");
    }

    #[test]
    fn malformed_oversized_and_eof_close() {
        assert_eq!(read(b"").0, ReadOutcome::Closed);
        assert_eq!(read(b"garbage\r\n\r\n").0, ReadOutcome::Malformed);
        assert_eq!(read(b"GET / SPDY/9\r\n\r\n").0, ReadOutcome::Malformed);
        assert_eq!(
            read(b"GET / HTTP/1.1\r\nno colon here\r\n\r\n").0,
            ReadOutcome::Malformed
        );
        // Truncated body.
        assert_eq!(
            read(b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort").0,
            ReadOutcome::Closed
        );
        // Unparseable Content-Length is malformed framing, not a 413.
        assert_eq!(
            read(b"POST / HTTP/1.1\r\nContent-Length: umpteen\r\n\r\n").0,
            ReadOutcome::Malformed
        );
        // Chunked transfer unsupported.
        assert_eq!(
            read(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").0,
            ReadOutcome::Malformed
        );
    }

    #[test]
    fn oversized_body_is_rejected_with_413_before_buffering() {
        // The advertised body is never sent; the parser must still answer
        // from the headers alone instead of waiting or allocating.
        let big = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(rejects(big.as_bytes(), 413));
        // Absurd 64-bit lengths must not wrap on a narrower usize either.
        assert!(rejects(
            b"POST / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n",
            413
        ));
    }

    #[test]
    fn oversized_heads_are_rejected_with_431() {
        // Too many header fields.
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            raw.push_str(&format!("X-H{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert!(rejects(raw.as_bytes(), 431));

        // One header line longer than the whole head budget.
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "v".repeat(MAX_HEAD_BYTES)
        );
        assert!(rejects(raw.as_bytes(), 431));

        // Many modest headers that together blow the head budget.
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..40 {
            raw.push_str(&format!("X-Pad{i}: {}\r\n", "p".repeat(250)));
        }
        raw.push_str("\r\n");
        assert!(rejects(raw.as_bytes(), 431));

        // An oversized request line — even before its newline arrives.
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(rejects(raw.as_bytes(), 431));
        assert!(rejects(&vec![b'a'; MAX_HEAD_BYTES + 1], 431));
    }

    #[test]
    fn parses_incrementally_at_every_split_point() {
        let raw = b"POST /predict?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 9\r\n\r\n{\"n\": 42}";
        let mut req = Request::default();
        let mut head_at = None;
        for split in 0..=raw.len() {
            match parse_head(&raw[..split], &mut req) {
                HeadOutcome::Partial => assert!(head_at.is_none(), "split {split}"),
                HeadOutcome::Complete(info) => {
                    head_at.get_or_insert(split);
                    assert_eq!(info.total_len(), raw.len());
                }
                other => panic!("split {split}: {other:?}"),
            }
        }
        assert_eq!(
            head_at,
            Some(raw.len() - 9),
            "complete exactly at the blank line"
        );
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/predict")
        );
    }

    #[test]
    fn scratch_reuse_resets_every_field() {
        let mut req = Request::default();
        let mut buf =
            b"POST /long-path HTTP/1.1\r\nConnection: close\r\nContent-Length: 3\r\n\r\nabc"
                .to_vec();
        let outcome = read_request(&mut &b""[..], &mut buf, &mut req).unwrap();
        assert_eq!(outcome, ReadOutcome::Request);
        assert!(!req.keep_alive);
        // A shorter request next: no stale suffix may survive.
        buf.extend_from_slice(b"GET /b HTTP/1.1\r\n\r\n");
        let outcome = read_request(&mut &b""[..], &mut buf, &mut req).unwrap();
        assert_eq!(outcome, ReadOutcome::Request);
        assert_eq!((req.method.as_str(), req.path.as_str()), ("GET", "/b"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive, "keep-alive must reset to the 1.1 default");
        assert!(buf.is_empty());
    }

    #[test]
    fn two_requests_pipeline_on_one_connection() {
        let mut raw: &[u8] =
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c";
        let (mut buf, mut req) = (Vec::new(), Request::default());
        let mut paths = Vec::new();
        while read_request(&mut raw, &mut buf, &mut req).unwrap() == ReadOutcome::Request {
            paths.push(req.path.clone());
        }
        assert_eq!(paths, ["/a", "/b"]);
        assert_eq!(req.body, b"hi");
        assert_eq!(
            buf, b"GET /c",
            "a partial successor is truncation, left as read"
        );
    }

    /// A source that times out once it has nothing scripted left.
    struct Stalling<'a>(&'a [u8]);

    impl Read for Stalling<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.0.read(out)
        }
    }

    #[test]
    fn timeouts_idle_between_requests_and_give_up_mid_request() {
        let mut req = Request::default();
        let mut buf = Vec::new();
        let outcome = read_request(&mut Stalling(b""), &mut buf, &mut req).unwrap();
        assert_eq!(outcome, ReadOutcome::Idle);
        let outcome = read_request(&mut Stalling(b"GET / HT"), &mut buf, &mut req).unwrap();
        assert_eq!(outcome, ReadOutcome::Closed);
    }

    /// An endless stream of one byte value, counting what was taken.
    struct Endless {
        byte: u8,
        taken: usize,
    }

    impl Read for Endless {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            out.fill(self.byte);
            self.taken += out.len();
            Ok(out.len())
        }
    }

    #[test]
    fn a_newline_free_flood_is_refused_within_the_head_cap() {
        let mut flood = Endless {
            byte: b'a',
            taken: 0,
        };
        let (mut buf, mut req) = (Vec::new(), Request::default());
        let outcome = read_request(&mut flood, &mut buf, &mut req).unwrap();
        assert!(matches!(outcome, ReadOutcome::Reject { status: 431, .. }));
        assert!(buf.len() <= MAX_HEAD_BYTES + READ_CHUNK, "{}", buf.len());
        assert_eq!(flood.taken, buf.len());
    }

    #[test]
    fn responses_parse_with_their_relayed_headers() {
        let raw = b"HTTP/1.1 405 Method Not Allowed\r\nContent-Type: text/plain\r\nAllow: GET\r\nContent-Length: 2\r\n\r\nno";
        let (resp, reusable) = read_response(&mut &raw[..]).unwrap();
        assert_eq!(resp.status, 405);
        assert_eq!(resp.content_type, "text/plain");
        assert_eq!(resp.allow.as_deref(), Some("GET"));
        assert_eq!(resp.body_text(), "no");
        assert!(reusable);

        // No Content-Length: an empty body, and the close is honoured.
        let raw = b"HTTP/1.1 503 Unavailable\r\nConnection: close\r\n\r\n";
        let (resp, reusable) = read_response(&mut &raw[..]).unwrap();
        assert_eq!((resp.status, resp.body.len(), reusable), (503, 0, false));

        // Trailing bytes past the frame: answered, but never reused.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokEXTRA";
        let (resp, reusable) = read_response(&mut &raw[..]).unwrap();
        assert_eq!((resp.body_text().as_str(), reusable), ("ok", false));
    }

    #[test]
    fn broken_responses_are_errors() {
        for raw in [
            &b"not http"[..],
            b"HTTP/1.1 abc\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabc",
            b"HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\n",
        ] {
            assert!(
                read_response(&mut &raw[..]).is_err(),
                "{}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn response_serialization_includes_framing() {
        let mut out = Vec::new();
        Response::text(200, "ok").write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nok"));
        let (back, reusable) = read_response(&mut &out[..]).unwrap();
        assert_eq!(back.content_type, "text/plain; charset=utf-8");
        assert!(reusable);

        let mut out = Vec::new();
        Response::error(503, "busy")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("503 Service Unavailable"));
        assert!(text.contains("Connection: close"));
        assert!(text.contains("\"error\": \"busy\""));
    }

    #[test]
    fn method_not_allowed_carries_the_allow_header() {
        let mut out = Vec::new();
        Response::method_not_allowed("GET, POST")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));
        assert!(
            text.contains("Connection: keep-alive\r\n"),
            "a wrong verb must not tear down the connection"
        );
        // The Allow header sits inside the head, before the blank line.
        let head_end = text.find("\r\n\r\n").unwrap() + 2;
        assert!(text[..head_end].contains("Allow: GET, POST\r\n"));
    }

    #[test]
    fn a_trickling_peer_cannot_hold_a_drain_past_its_deadline() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        // One byte per read timeout's half: every drain read succeeds, so
        // only the deadline ends the drain.
        let trickler = std::thread::spawn(move || {
            while peer.write_all(b"x").is_ok() {
                std::thread::sleep(DRAIN_READ_TIMEOUT / 2);
            }
        });
        let started = Instant::now();
        drain_then_close(server_side);
        let took = started.elapsed();
        assert!(took >= DRAIN_DEADLINE, "{took:?}");
        assert!(took < DRAIN_DEADLINE + Duration::from_secs(1), "{took:?}");
        trickler.join().unwrap();
    }

    #[test]
    fn write_into_matches_write_to_byte_for_byte() {
        let mut obj = Json::obj();
        obj.set("a", 1.5);
        let responses = [
            Response::text(200, "ok"),
            Response::json(200, &obj),
            Response::error(503, "busy"),
            Response::method_not_allowed("GET"),
        ];
        let mut scratch = Vec::new();
        for resp in &responses {
            for keep_alive in [true, false] {
                let mut streamed = Vec::new();
                resp.write_to(&mut streamed, keep_alive).unwrap();
                scratch.clear();
                resp.write_into(&mut scratch, keep_alive);
                assert_eq!(scratch, streamed);
            }
        }
        // Appending (pipelined batching) concatenates framed responses.
        scratch.clear();
        responses[0].write_into(&mut scratch, true);
        let first_len = scratch.len();
        responses[2].write_into(&mut scratch, true);
        assert!(scratch[first_len..].starts_with(b"HTTP/1.1 503"));
    }
}
