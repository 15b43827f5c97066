//! Hand-rolled HTTP/1.1 message framing.
//!
//! Just enough of RFC 9112 for a localhost tool server: request
//! parsing with hard size caps, fixed-length responses, and chunked
//! transfer encoding for the streaming endpoints. Connections are
//! persistent by default ([`Request::keep_alive`] follows the HTTP/1.1
//! rules: persistent unless `Connection: close`, and HTTP/1.0 only
//! with an explicit `Connection: keep-alive`), and every response
//! declares its disposition explicitly so clients can pipeline
//! back-to-back requests over one socket. Responses are always
//! self-delimiting (`Content-Length` or chunked), which is what makes
//! reuse safe.

use std::io::{self, BufRead, Write};

/// Upper bound on one header line (request line included).
pub const MAX_LINE: usize = 8 * 1024;
/// Upper bound on the header count.
pub const MAX_HEADERS: usize = 64;
/// Upper bound on a request body.
pub const MAX_BODY: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// The path component of the target, e.g. `/trace`.
    pub path: String,
    /// Decoded query parameters, in order.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the connection may serve another request after this
    /// one: HTTP/1.1 unless the client sent `Connection: close`,
    /// HTTP/1.0 only with an explicit `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// First header with the given (lower-case) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The connection died or timed out mid-request.
    Io(io::Error),
    /// The bytes are not an acceptable HTTP/1.1 request; the `u16` is
    /// the status to answer with (400 or 501), the string the reason.
    Bad(u16, String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "connection error: {e}"),
            HttpError::Bad(status, reason) => write!(f, "bad request ({status}): {reason}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn bad(reason: impl Into<String>) -> HttpError {
    HttpError::Bad(400, reason.into())
}

/// Reads one CRLF- (or bare-LF-) terminated line, capped at
/// [`MAX_LINE`] bytes.
fn read_line(r: &mut impl BufRead) -> Result<String, HttpError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte)? {
            0 => {
                if line.is_empty() {
                    // Clean EOF before any byte: the peer just closed.
                    return Err(HttpError::Io(io::ErrorKind::UnexpectedEof.into()));
                }
                return Err(bad("truncated line"));
            }
            _ => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line).map_err(|_| bad("non-UTF-8 header line"));
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE {
                    return Err(bad("header line too long"));
                }
            }
        }
    }
}

/// Decodes `%xx` escapes and `+` in a query component.
fn url_decode(s: &str) -> String {
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = b.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(v) => {
                        out.push(v);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Reads and parses one request.
///
/// Returns `Ok(None)` on a clean immediate close (the peer connected
/// and hung up, e.g. the server's own shutdown wake-up probe).
///
/// # Errors
///
/// [`HttpError::Io`] for transport trouble, [`HttpError::Bad`] for a
/// malformed or oversized request (answer with its embedded status).
pub fn read_request(r: &mut impl BufRead) -> Result<Option<Request>, HttpError> {
    let request_line = match read_line(r) {
        Ok(line) => line,
        Err(HttpError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(bad("malformed request line")),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Bad(501, format!("unsupported {version}")));
    }

    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query: Vec<(String, String)> = query_text
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (url_decode(k), url_decode(v))
        })
        .collect();

    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let request = Request {
        method: method.to_ascii_uppercase(),
        path: path.to_owned(),
        query,
        headers,
        body: Vec::new(),
        keep_alive: false,
    };
    let connection = request.header("connection").unwrap_or("");
    let mut request = Request {
        keep_alive: if version == "HTTP/1.0" {
            connection.eq_ignore_ascii_case("keep-alive")
        } else {
            !connection.eq_ignore_ascii_case("close")
        },
        ..request
    };
    if request
        .header("transfer-encoding")
        .is_some_and(|te| !te.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::Bad(
            501,
            "chunked request bodies are not supported".to_owned(),
        ));
    }
    // RFC 9112 §6.3: a second, different length or a value that is not
    // plain digits (`usize::from_str` takes a leading `+`) leaves the
    // body's end unknown, so the framing is invalid.
    let mut lengths = request
        .headers
        .iter()
        .filter(|(name, _)| name == "content-length")
        .map(|(_, value)| value.as_str());
    if let Some(len) = lengths.next() {
        if lengths.any(|other| other != len) {
            return Err(bad("conflicting content-length"));
        }
        if !len.bytes().all(|b| b.is_ascii_digit()) {
            return Err(bad("malformed content-length"));
        }
        let len: usize = len.parse().map_err(|_| bad("malformed content-length"))?;
        if len > MAX_BODY {
            return Err(HttpError::Bad(413, format!("body over {MAX_BODY} bytes")));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        request.body = body;
    }
    Ok(Some(request))
}

/// The canonical reason phrase for the statuses this server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn connection_token(keep_alive: bool) -> &'static str {
    if keep_alive {
        "keep-alive"
    } else {
        "close"
    }
}

/// Writes a complete fixed-length response, declaring whether the
/// connection stays open afterwards.
///
/// # Errors
///
/// Propagates any transport error.
pub fn write_response(
    w: &mut (impl Write + ?Sized),
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write_response_with(w, status, content_type, &[], body, keep_alive)
}

/// [`write_response`] with extra response headers (e.g. `Retry-After`
/// on a load-shed `503`). Each `(name, value)` pair is emitted after
/// the standard headers.
///
/// # Errors
///
/// Propagates any transport error.
pub fn write_response_with(
    w: &mut (impl Write + ?Sized),
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        connection_token(keep_alive),
    )?;
    for (name, value) in extra_headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// A chunked-transfer-encoding response body writer.
///
/// Write the head with [`ChunkedWriter::begin`], stream any number of
/// [`chunk`](ChunkedWriter::chunk)s, and [`finish`](ChunkedWriter::finish)
/// to emit the terminating zero-length chunk.
pub struct ChunkedWriter<W: Write> {
    w: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the response head and returns the body writer.
    ///
    /// # Errors
    ///
    /// Propagates any transport error.
    pub fn begin(mut w: W, status: u16, content_type: &str, keep_alive: bool) -> io::Result<Self> {
        write!(
            w,
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
            reason(status),
            connection_token(keep_alive),
        )?;
        Ok(ChunkedWriter { w })
    }

    /// Streams one chunk (empty input is skipped: a zero-length chunk
    /// would terminate the body).
    ///
    /// # Errors
    ///
    /// Propagates any transport error.
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.w, "{:x}\r\n", data.len())?;
        self.w.write_all(data)?;
        self.w.write_all(b"\r\n")
    }

    /// Pushes everything buffered so far onto the wire — call between
    /// chunks when the receiver should see results as they complete
    /// (the `/sweep` streaming contract) rather than when the
    /// underlying `BufWriter` happens to fill.
    ///
    /// # Errors
    ///
    /// Propagates any transport error.
    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    /// Terminates the body and flushes.
    ///
    /// # Errors
    ///
    /// Propagates any transport error.
    pub fn finish(mut self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

/// Decodes a chunked response body incrementally (client side),
/// handing each chunk to `sink` as soon as it is framed — the consumer
/// of a streaming endpoint sees the first result before the response
/// finishes.
///
/// # Errors
///
/// Returns an error on transport trouble or malformed chunk framing.
pub fn read_chunked_stream(
    r: &mut impl BufRead,
    mut sink: impl FnMut(&[u8]),
) -> Result<(), HttpError> {
    let mut total = 0usize;
    let mut chunk = Vec::new();
    loop {
        let size_line = read_line(r)?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| bad(format!("malformed chunk size '{size_line}'")))?;
        if size == 0 {
            // Trailer section: read lines until the blank terminator.
            loop {
                if read_line(r)?.is_empty() {
                    return Ok(());
                }
            }
        }
        total = total.saturating_add(size);
        if total > 64 * 1024 * 1024 {
            return Err(bad("chunked body too large"));
        }
        chunk.resize(size, 0);
        r.read_exact(&mut chunk)?;
        let mut crlf = [0u8; 2];
        r.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(bad("missing chunk terminator"));
        }
        sink(&chunk);
    }
}

/// Decodes a complete chunked response body (client side).
///
/// # Errors
///
/// Returns an error on transport trouble or malformed chunk framing.
pub fn read_chunked_body(r: &mut impl BufRead) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    read_chunked_stream(r, |chunk| body.extend_from_slice(chunk))?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(text.as_bytes()))
    }

    #[test]
    fn parses_a_get_with_query() {
        let req = parse("GET /trace?cell=3&format=perfetto&x=a%20b HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/trace");
        assert_eq!(req.query_param("cell"), Some("3"));
        assert_eq!(req.query_param("format"), Some("perfetto"));
        assert_eq!(req.query_param("x"), Some("a b"));
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /run HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn clean_close_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn keep_alive_follows_http_version_rules() {
        let req = |text: &str| parse(text).unwrap().unwrap();
        assert!(req("GET / HTTP/1.1\r\n\r\n").keep_alive, "1.1 defaults on");
        assert!(!req("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
        assert!(!req("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").keep_alive);
        assert!(
            !req("GET / HTTP/1.0\r\n\r\n").keep_alive,
            "1.0 defaults off"
        );
        assert!(req("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").keep_alive);
    }

    #[test]
    fn two_pipelined_requests_parse_from_one_segment() {
        // Both requests arrive in a single TCP segment; the reader
        // must frame them back to back without losing a byte.
        let wire = "POST /run HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
                    GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut r = BufReader::new(wire.as_bytes());
        let first = read_request(&mut r).unwrap().unwrap();
        assert_eq!(
            (first.method.as_str(), first.path.as_str()),
            ("POST", "/run")
        );
        assert_eq!(first.body, b"abc");
        let second = read_request(&mut r).unwrap().unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/healthz");
        assert!(read_request(&mut r).unwrap().is_none(), "then clean EOF");
    }

    /// A reader that yields at most `step` bytes per `read` call, so a
    /// request arrives split across many reads (as on a real socket).
    struct Dribble<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl io::Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(self.bytes.len()).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn request_split_across_reads_parses_whole() {
        let wire = b"POST /run HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
        for step in [1, 2, 3, 7] {
            let mut r = BufReader::new(Dribble { bytes: wire, step });
            let req = read_request(&mut r).unwrap().unwrap();
            assert_eq!(req.path, "/run");
            assert_eq!(req.body, b"hello world", "step {step}");
        }
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(matches!(
            parse("NOT HTTP\r\n\r\n"),
            Err(HttpError::Bad(400, _))
        ));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n"),
            Err(HttpError::Bad(501, _))
        ));
        let oversize = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(parse(&oversize), Err(HttpError::Bad(413, _))));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Bad(501, _))
        ));
    }

    #[test]
    fn conflicting_or_signed_content_length_is_a_400() {
        for text in [
            "POST /run HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde",
            "POST /run HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nabcde",
            "POST /run HTTP/1.1\r\nContent-Length: +5\r\n\r\nabcde",
            "POST /run HTTP/1.1\r\nContent-Length: -5\r\n\r\nabcde",
            "POST /run HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nabcde",
            "POST /run HTTP/1.1\r\nContent-Length:\r\n\r\n",
        ] {
            assert!(
                matches!(parse(text), Err(HttpError::Bad(400, _))),
                "{text:?} must be rejected"
            );
        }
        // Repeating the same length is harmless and accepted.
        let req = parse("POST /run HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn response_writer_emits_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", true).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn response_writer_emits_extra_headers_before_the_body() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            503,
            "application/json",
            &[("Retry-After", "1")],
            b"{}",
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("Retry-After: 1"), "{head}");
        assert_eq!(body, "{}");
    }

    #[test]
    fn chunked_round_trip() {
        let mut wire = Vec::new();
        let mut cw = ChunkedWriter::begin(&mut wire, 200, "application/json", true).unwrap();
        cw.chunk(b"{\"traceEvents\":[").unwrap();
        cw.chunk(b"").unwrap(); // skipped, must not terminate
        cw.chunk(b"]}").unwrap();
        cw.finish().unwrap();

        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.contains("Connection: keep-alive"));
        let body_at = text.find("\r\n\r\n").unwrap() + 4;
        let mut r = BufReader::new(&wire[body_at..]);
        let body = read_chunked_body(&mut r).unwrap();
        assert_eq!(body, b"{\"traceEvents\":[]}");

        // The streaming decoder sees each chunk as framed, in order.
        let mut r = BufReader::new(&wire[body_at..]);
        let mut pieces: Vec<Vec<u8>> = Vec::new();
        read_chunked_stream(&mut r, |c| pieces.push(c.to_vec())).unwrap();
        assert_eq!(pieces, vec![b"{\"traceEvents\":[".to_vec(), b"]}".to_vec()]);
    }
}
