//! Seeded property tests hardening the hand-rolled parsers.
//!
//! The HTTP request reader, the chunked-transfer decoder, and the JSON
//! body parser all face the network directly, so the invariant under
//! test is blunt: *no input may panic them*, and anything malformed
//! must come back as a typed error (a `400`-family [`HttpError::Bad`]
//! or a [`json::JsonError`]) the service can answer in-band. Every
//! case is driven by `SplitMix64`, so a failure reproduces from its
//! printed seed.

use std::io::{BufReader, Read};

use warped_serve::http::{
    read_chunked_stream, read_request, HttpError, MAX_BODY, MAX_HEADERS, MAX_LINE,
};
use warped_serve::json;
use warped_serve::{Service, ServiceConfig};
use warped_workloads::rng::SplitMix64;

/// The typed statuses `read_request` may reject with: `400` malformed,
/// `413` oversized, `501` unimplemented (chunked request bodies,
/// non-1.x versions).
fn assert_typed(result: &Result<Option<warped_serve::http::Request>, HttpError>, seed: u64) {
    if let Err(HttpError::Bad(status, reason)) = result {
        assert!(
            matches!(status, 400 | 413 | 501),
            "seed {seed}: untyped reject {status} ({reason})"
        );
    }
}

#[test]
fn random_bytes_never_panic_the_request_parser() {
    for seed in 0..2000u64 {
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
        let len = rng.below(600) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        let mut reader = bytes.as_slice();
        assert_typed(&read_request(&mut reader), seed);
    }
}

#[test]
fn mutated_valid_requests_answer_typed_errors() {
    let valid = b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 24\r\n\r\n\
                  {\"benchmark\":\"nw\",\"a\":1}";
    for seed in 0..2000u64 {
        let mut rng = SplitMix64::new(seed ^ 0x6d75_7461_7465);
        let mut bytes = valid.to_vec();
        // One to four point mutations: flip, overwrite, or truncate.
        for _ in 0..=rng.below(3) {
            let at = rng.index(bytes.len());
            match rng.below(3) {
                0 => bytes[at] ^= 1 << rng.below(8),
                1 => bytes[at] = (rng.next_u64() & 0xff) as u8,
                _ => bytes.truncate(at),
            }
            if bytes.is_empty() {
                break;
            }
        }
        let mut reader = bytes.as_slice();
        assert_typed(&read_request(&mut reader), seed);
    }
}

#[test]
fn oversized_lines_headers_and_bodies_are_rejected() {
    // Request line past MAX_LINE.
    let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE + 10));
    let mut reader = long_target.as_bytes();
    match read_request(&mut reader) {
        Err(HttpError::Bad(status, _)) => assert!(matches!(status, 400 | 413)),
        other => panic!("oversized request line must be rejected: {other:?}"),
    }

    // More headers than MAX_HEADERS.
    let mut many = String::from("GET / HTTP/1.1\r\n");
    for i in 0..=MAX_HEADERS {
        many.push_str(&format!("X-H{i}: v\r\n"));
    }
    many.push_str("\r\n");
    let mut reader = many.as_bytes();
    match read_request(&mut reader) {
        Err(HttpError::Bad(status, _)) => assert!(matches!(status, 400 | 413)),
        other => panic!("header flood must be rejected: {other:?}"),
    }

    // A declared body past MAX_BODY.
    let big = format!(
        "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY + 1
    );
    let mut reader = big.as_bytes();
    match read_request(&mut reader) {
        Err(HttpError::Bad(status, _)) => assert_eq!(status, 413),
        other => panic!("oversized body must 413: {other:?}"),
    }
}

#[test]
fn conflicting_or_signed_content_lengths_are_400s() {
    // Two different lengths, or one with a sign, never frame a body:
    // whatever follows must not be read as the next request.
    for seed in 0..500u64 {
        let mut rng = SplitMix64::new(seed ^ 0x636c_656e);
        let first = rng.below(64);
        let second = (first + 1 + rng.below(64)) % 128;
        let (a, b) = if rng.chance(0.5) {
            (first.to_string(), second.to_string())
        } else {
            let sign = if rng.chance(0.5) { '+' } else { '-' };
            (format!("{sign}{first}"), format!("{sign}{first}"))
        };
        let wire = format!(
            "POST /run HTTP/1.1\r\nContent-Length: {a}\r\nHost: x\r\ncontent-length: {b}\r\n\r\n\
             {}GET /healthz HTTP/1.1\r\n\r\n",
            "x".repeat(128)
        );
        let mut reader = wire.as_bytes();
        match read_request(&mut reader) {
            Err(HttpError::Bad(400, _)) => {}
            other => panic!("seed {seed}: {a} / {b} must be a 400: {other:?}"),
        }
    }
}

/// A reader that hands out at most `step` bytes per `read`, modelling
/// a trickling socket that splits every token across reads.
struct Dribble<'a> {
    bytes: &'a [u8],
    step: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(self.bytes.len()).min(buf.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

#[test]
fn split_reads_parse_identically_to_whole_reads() {
    let wire = b"POST /run?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 11\r\n\r\nhello world";
    let mut whole = wire.as_slice();
    let want = read_request(&mut whole).unwrap().unwrap();
    for step in [1usize, 2, 3, 7, 13] {
        let mut reader = BufReader::with_capacity(16, Dribble { bytes: wire, step });
        let got = read_request(&mut reader)
            .unwrap_or_else(|e| panic!("step {step}: {e:?}"))
            .expect("a request");
        assert_eq!(got.method, want.method, "step {step}");
        assert_eq!(got.path, want.path, "step {step}");
        assert_eq!(got.query, want.query, "step {step}");
        assert_eq!(got.headers, want.headers, "step {step}");
        assert_eq!(got.body, want.body, "step {step}");
    }
}

#[test]
fn malformed_chunked_framing_is_rejected_without_panic() {
    let cases: &[&[u8]] = &[
        b"zz\r\nhello\r\n0\r\n\r\n", // non-hex size
        b"5\r\nhello\r\n",           // missing terminator
        b"5\r\nhello??0\r\n\r\n",    // payload not CRLF-delimited
        b"ffffffffffffffff\r\n",     // absurd size (overflows the cap)
        b"5\r\nhel",                 // truncated payload
        b"",                         // empty stream
    ];
    for (i, case) in cases.iter().enumerate() {
        let mut reader = *case;
        let mut sink = Vec::new();
        let result = read_chunked_stream(&mut reader, |chunk| sink.extend_from_slice(chunk));
        assert!(result.is_err(), "case {i} must be rejected");
    }

    // Seeded garbage after a valid-looking size line.
    for seed in 0..500u64 {
        let mut rng = SplitMix64::new(seed ^ 0x0063_6875_6e6b);
        let mut bytes = format!("{:x}\r\n", rng.below(32)).into_bytes();
        let tail = rng.below(40) as usize;
        bytes.extend((0..tail).map(|_| (rng.next_u64() & 0xff) as u8));
        let mut reader = bytes.as_slice();
        // Any outcome but a panic is acceptable; a short valid prefix
        // may legitimately decode.
        let _ = read_chunked_stream(&mut reader, |_| {});
    }
}

#[test]
fn hostile_json_never_panics_and_depth_is_capped() {
    // Deep nesting is a typed error, not a stack overflow.
    for depth in [33usize, 100, 1000] {
        let deep = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(json::parse(&deep).is_err(), "depth {depth} must be capped");
        let deep_obj = format!("{}\"k\":1{}", "{\"k\":".repeat(depth), "}".repeat(depth));
        assert!(json::parse(&deep_obj).is_err());
    }

    // Random byte soup (lossily decoded) and random ASCII soup.
    for seed in 0..2000u64 {
        let mut rng = SplitMix64::new(seed ^ 0x6a73_6f6e);
        let len = rng.below(200) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
        let ascii: String = (0..len)
            .map(|_| char::from(b" {}[]\":,0123456789.eE+-truefalsnu"[rng.index(33)]))
            .collect();
        let _ = json::parse(&ascii);
    }
}

#[test]
fn fuzzed_run_bodies_answer_typed_400s() {
    let service = Service::new(ServiceConfig::default());
    for seed in 0..300u64 {
        let mut rng = SplitMix64::new(seed ^ 0x626f_6479);
        let len = rng.below(120) as usize;
        // Force non-JSON garbage: no crafted body here can accidentally
        // name a real benchmark, so every answer must be a typed 400.
        let body: Vec<u8> = std::iter::once(b'@')
            .chain((0..len).map(|_| (rng.next_u64() & 0xff) as u8))
            .collect();
        let req = warped_serve::http::Request {
            method: "POST".to_owned(),
            path: "/run".to_owned(),
            query: Vec::new(),
            headers: Vec::new(),
            body,
            keep_alive: false,
        };
        let mut wire = Vec::new();
        service
            .handle(&req, &mut wire, false)
            .unwrap_or_else(|e| panic!("seed {seed}: transport error {e}"));
        let text = String::from_utf8_lossy(&wire);
        assert!(
            text.starts_with("HTTP/1.1 400 "),
            "seed {seed}: wanted a typed 400, got {text:.120}"
        );
        assert!(text.contains("bad_request"), "seed {seed}: {text:.300}");
    }
}
