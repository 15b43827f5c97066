//! A minimal blocking HTTP/1.1 client with connection reuse.
//!
//! [`Client`] keeps one socket open across sequential requests
//! (keep-alive aware: it drops the connection when either side said
//! `Connection: close`), retries exactly once on a stale pooled
//! connection (the server may have reaped it between requests), and
//! decodes both fixed-length and chunked response bodies — including
//! incremental JSONL streaming for `/sweep`. A response is read under
//! the same caps as a request: [`MAX_LINE`](crate::http::MAX_LINE) per
//! head line and [`MAX_RESPONSE_BODY`] per body, so a misbehaving peer
//! gets a typed error, not an allocation of whatever it declares. The
//! free functions ([`get`], [`post_json`]) remain for one-shot
//! exchanges.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{read_chunked_stream, read_headers, read_line, HttpError, MAX_RESPONSE_BODY};

/// A parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// The (de-chunked) body.
    pub body: Vec<u8>,
}

impl Response {
    /// First header with the given (lower-case) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn to_io(e: HttpError) -> io::Error {
    match e {
        HttpError::Io(e) => e,
        HttpError::Bad(_, reason) => invalid(reason),
    }
}

/// A blocking HTTP/1.1 client bound to one server address, reusing a
/// single keep-alive connection across sequential requests.
///
/// Every request leaves in one `write`: the request line, headers,
/// blank line and body are encoded into one buffer, reused per client,
/// before they touch the socket. The socket is `TCP_NODELAY`, so a
/// head and a body written separately would go out as two segments,
/// and the server's connection thread would wake for the head, parse
/// it, then block and wake again for the body.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    keep_alive: bool,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    connect_timeout: Option<Duration>,
    /// Extra request headers sent with every request (e.g. the
    /// cluster's forwarding loop guard).
    headers: Vec<(String, String)>,
    conn: Option<BufReader<TcpStream>>,
    /// The encoded request, reused across requests.
    buf: Vec<u8>,
    reused: u64,
    connected: u64,
}

impl Client {
    /// A keep-alive client for `addr`.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            keep_alive: true,
            read_timeout: Some(Duration::from_secs(600)),
            write_timeout: Some(Duration::from_secs(30)),
            connect_timeout: None,
            headers: Vec::new(),
            conn: None,
            buf: Vec::new(),
            reused: 0,
            connected: 0,
        }
    }

    /// Disables connection reuse: every request opens a fresh socket
    /// and asks the server to close it (the loadgen's `--no-keepalive`
    /// A/B mode).
    #[must_use]
    pub fn with_keep_alive(mut self, keep_alive: bool) -> Self {
        self.keep_alive = keep_alive;
        self
    }

    /// Overrides the per-request read timeout.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Bounds how long opening a fresh socket may take (`None` uses
    /// the OS default, which can be minutes against a dead host).
    #[must_use]
    pub fn with_connect_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// Adds a header sent with every request on this client.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// Requests that reused an already-open connection so far.
    #[must_use]
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Sockets opened so far.
    #[must_use]
    pub fn connected(&self) -> u64 {
        self.connected
    }

    fn connect(&mut self) -> io::Result<()> {
        if self.conn.is_none() {
            let stream = match self.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(&self.addr, timeout)?,
                None => TcpStream::connect(self.addr)?,
            };
            stream.set_read_timeout(self.read_timeout)?;
            stream.set_write_timeout(self.write_timeout)?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
            self.connected += 1;
        } else {
            self.reused += 1;
        }
        Ok(())
    }

    fn send(&mut self, method: &str, path: &str, body: Option<&[u8]>) -> io::Result<()> {
        self.connect()?;
        let mut reader = self.conn.take().expect("just connected");
        let sent = self.write_request(reader.get_mut(), method, path, body);
        self.conn = Some(reader);
        sent
    }

    /// Encodes one request (request line, headers, blank line, body)
    /// into the reused buffer and hands it to `out` in a single
    /// `write_all`, so on a `TCP_NODELAY` socket the request leaves as
    /// one segment and the server reads it with one wakeup.
    fn write_request(
        &mut self,
        out: &mut impl Write,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<()> {
        let connection = if self.keep_alive {
            "keep-alive"
        } else {
            "close"
        };
        let buf = &mut self.buf;
        buf.clear();
        write!(
            buf,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: {connection}\r\n",
            self.addr
        )?;
        for (name, value) in &self.headers {
            write!(buf, "{name}: {value}\r\n")?;
        }
        match body {
            Some(bytes) => {
                write!(
                    buf,
                    "Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                    bytes.len()
                )?;
                buf.extend_from_slice(bytes);
            }
            None => buf.extend_from_slice(b"\r\n"),
        }
        out.write_all(buf)?;
        out.flush()
    }

    /// Sends one request and reads the full response, transparently
    /// reconnecting once if a pooled connection turned out stale.
    ///
    /// # Errors
    ///
    /// Returns transport errors and malformed-response errors.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> io::Result<Response> {
        let mut response = None;
        self.exchange(method, path, body, |status, headers, r| {
            let body = read_body(headers, r)?;
            response = Some(Response {
                status,
                headers: headers.to_vec(),
                body,
            });
            Ok(())
        })?;
        Ok(response.expect("exchange succeeded"))
    }

    /// Sends one request and hands each chunk of a streaming (chunked)
    /// response to `sink` as it arrives; fixed-length bodies arrive as
    /// one piece. Returns the status code.
    ///
    /// # Errors
    ///
    /// Returns transport errors and malformed-response errors.
    pub fn request_stream(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        mut sink: impl FnMut(&[u8]),
    ) -> io::Result<u16> {
        let mut code = 0;
        self.exchange(method, path, body, |status, headers, r| {
            code = status;
            if is_chunked(headers) {
                read_chunked_stream(r, &mut sink).map_err(to_io)
            } else {
                let bytes = read_body(headers, r)?;
                sink(&bytes);
                Ok(())
            }
        })?;
        Ok(code)
    }

    /// One full exchange with stale-connection retry: sending on (or
    /// reading the status line of) a *reused* connection that the
    /// server already closed reconnects and retries once. Once any
    /// response byte has been consumed the error is real and
    /// propagates.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        mut consume: impl FnMut(u16, &[(String, String)], &mut BufReader<TcpStream>) -> io::Result<()>,
    ) -> io::Result<()> {
        for attempt in 0..2 {
            let was_pooled = self.conn.is_some();
            let head = self.send(method, path, body).and_then(|()| {
                let reader = self.conn.as_mut().expect("connected in send");
                read_head(reader)
            });
            let (status, headers) = match head {
                Ok(head) => head,
                Err(e) => {
                    self.conn = None;
                    // Only a pooled connection can be stale; a fresh
                    // socket failing is a real error.
                    if was_pooled && attempt == 0 {
                        continue;
                    }
                    return Err(e);
                }
            };
            let reader = self.conn.as_mut().expect("connected in send");
            let result = consume(status, &headers, reader);
            let server_closes = headers
                .iter()
                .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("close"));
            if result.is_err() || server_closes || !self.keep_alive {
                self.conn = None;
            }
            return result;
        }
        unreachable!("retry loop always returns");
    }

    /// `GET path`.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn post_json(&mut self, path: &str, body: &str) -> io::Result<Response> {
        self.request("POST", path, Some(body.as_bytes()))
    }

    /// `POST path` streaming a chunked JSONL response: `on_line` is
    /// called once per complete line, as soon as it arrives. Returns
    /// the status code.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn post_stream_lines(
        &mut self,
        path: &str,
        body: &str,
        mut on_line: impl FnMut(&str),
    ) -> io::Result<u16> {
        let mut pending = Vec::new();
        let status = self.request_stream("POST", path, Some(body.as_bytes()), |chunk| {
            pending.extend_from_slice(chunk);
            while let Some(nl) = pending.iter().position(|b| *b == b'\n') {
                let line: Vec<u8> = pending.drain(..=nl).collect();
                let text = String::from_utf8_lossy(&line);
                let text = text.trim_end_matches('\n');
                if !text.is_empty() {
                    on_line(text);
                }
            }
        })?;
        if !pending.is_empty() {
            on_line(String::from_utf8_lossy(&pending).trim_end_matches('\n'));
        }
        Ok(status)
    }
}

/// Reads the status line and headers of one response.
fn read_head(reader: &mut impl BufRead) -> io::Result<(u16, Vec<(String, String)>)> {
    let line = read_line(reader).map_err(to_io)?;
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("malformed status line {line:?}")))?;
    Ok((status, read_headers(reader).map_err(to_io)?))
}

fn invalid(reason: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason)
}

fn is_chunked(headers: &[(String, String)]) -> bool {
    headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"))
}

/// Reads a response body delimited per its headers, at most
/// [`MAX_RESPONSE_BODY`] bytes. A body with neither
/// `Transfer-Encoding: chunked` nor `Content-Length` reads to EOF —
/// only valid on a closing connection.
fn read_body(headers: &[(String, String)], reader: &mut impl BufRead) -> io::Result<Vec<u8>> {
    let too_large = || invalid(format!("response body over {MAX_RESPONSE_BODY} bytes"));
    let mut body = Vec::new();
    if is_chunked(headers) {
        read_chunked_stream(reader, |c| body.extend_from_slice(c)).map_err(to_io)?;
    } else if let Some(len) = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
    {
        if len > MAX_RESPONSE_BODY {
            return Err(too_large());
        }
        body.resize(len, 0);
        reader.read_exact(&mut body)?;
    } else {
        reader
            .take(MAX_RESPONSE_BODY as u64 + 1)
            .read_to_end(&mut body)?;
        if body.len() > MAX_RESPONSE_BODY {
            return Err(too_large());
        }
    }
    Ok(body)
}

/// One-shot `GET path` over a fresh closing connection.
///
/// # Errors
///
/// See [`Client::request`].
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    Client::new(addr).with_keep_alive(false).get(path)
}

/// One-shot `POST path` with a JSON body over a fresh closing
/// connection.
///
/// # Errors
///
/// See [`Client::request`].
pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> io::Result<Response> {
    Client::new(addr)
        .with_keep_alive(false)
        .post_json(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that records every `write` call separately.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.push(bytes.to_vec());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn one_write(client: &mut Client, method: &str, path: &str, body: Option<&[u8]>) -> String {
        let mut out = Writes::default();
        client
            .write_request(&mut out, method, path, body)
            .expect("writes to a Vec never fail");
        assert_eq!(out.0.len(), 1, "one write call per {method} {path}");
        String::from_utf8(out.0.remove(0)).expect("ASCII request")
    }

    #[test]
    fn every_request_is_one_write_in_the_unchanged_wire_format() {
        let addr: SocketAddr = "127.0.0.1:8080".parse().unwrap();
        let mut client = Client::new(addr);
        assert_eq!(
            one_write(&mut client, "GET", "/healthz", None),
            "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nConnection: keep-alive\r\n\r\n"
        );
        let body = br#"{"benchmark":"nw","technique":"baseline"}"#;
        assert_eq!(
            one_write(&mut client, "POST", "/run", Some(body)),
            "POST /run HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nConnection: keep-alive\r\n\
             Content-Type: application/json\r\nContent-Length: 41\r\n\r\n\
             {\"benchmark\":\"nw\",\"technique\":\"baseline\"}"
        );
        // The cluster's forwarding shape: a closing client with the
        // loop-guard header. The reused buffer holds nothing of the
        // previous, longer request.
        let mut forward = Client::new(addr)
            .with_keep_alive(false)
            .with_header("X-Warped-Forwarded", "1");
        one_write(&mut forward, "POST", "/run", Some(body));
        assert_eq!(
            one_write(&mut forward, "POST", "/run", Some(b"{}")),
            "POST /run HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nConnection: close\r\n\
             X-Warped-Forwarded: 1\r\n\
             Content-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
        );
    }

    /// A one-connection peer that answers any request with `response`
    /// and closes.
    fn scripted_peer(response: Vec<u8>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound address");
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream);
            let _ = crate::http::read_request(&mut reader);
            // The client may hang up mid-answer: that is the point.
            let _ = reader.get_mut().write_all(&response);
        });
        (addr, peer)
    }

    fn refused(response: &[u8]) -> io::Error {
        let (addr, peer) = scripted_peer(response.to_vec());
        let err = get(addr, "/run").expect_err("the answer is refused");
        peer.join().expect("peer thread");
        err
    }

    #[test]
    fn a_huge_content_length_is_a_typed_error_not_an_allocation() {
        let err = refused(b"HTTP/1.1 200 OK\r\nContent-Length: 1152921504606846976\r\n\r\n");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("response body over"), "{err}");
    }

    #[test]
    fn an_over_long_status_line_is_a_typed_error() {
        let mut line = b"HTTP/1.1 200 ".to_vec();
        line.resize(crate::http::MAX_LINE * 4, b'A');
        let err = refused(&line);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("header line too long"), "{err}");
    }
}
