//! End-to-end tests over a real socket: ephemeral port, concurrent
//! clients, fault isolation, graceful shutdown, keep-alive reuse and
//! idle reaping, pipelining, a request split across two writes, the
//! connection cap, `/sweep` streaming, and disk-cache warm restarts.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use warped_serve::client::Client;
use warped_serve::cluster::ChaosMode;
use warped_serve::{client, spawn, ServerConfig, ServerHandle, ServiceConfig};

fn test_server() -> ServerHandle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 8,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port")
}

#[test]
fn thirty_two_concurrent_identical_runs_single_flight() {
    let mut server = test_server();
    let addr = server.addr();
    let body = r#"{"benchmark":"nw","technique":"baseline","scale":0.05}"#;

    let barrier = Arc::new(std::sync::Barrier::new(32));
    let handles: Vec<_> = (0..32)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let body = body.to_owned();
            std::thread::spawn(move || {
                barrier.wait();
                client::post_json(addr, "/run", &body).expect("request")
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let first = &responses[0];
    assert_eq!(first.status, 200, "{}", first.text());
    assert!(first.text().contains("\"benchmark\":\"nw\""));
    for response in &responses[1..] {
        assert_eq!(response.status, 200);
        assert_eq!(
            response.body, first.body,
            "all 32 responses must be byte-identical"
        );
    }

    // Single-flight: exactly one simulation ran; the other 31 requests
    // coalesced onto it (or hit the finished cache line) as hits.
    let metrics = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    let page = metrics.text();
    assert!(
        page.contains("warped_serve_cache_misses_total 1"),
        "exactly one miss:\n{page}"
    );
    assert!(
        page.contains("warped_serve_cache_hits_total 31"),
        "31 deduplicated hits:\n{page}"
    );

    server.shutdown();
}

#[test]
fn malformed_json_is_a_400_with_a_typed_body() {
    let mut server = test_server();
    let addr = server.addr();

    let response = client::post_json(addr, "/run", "{not json").expect("request");
    assert_eq!(response.status, 400);
    assert!(response.text().contains("\"kind\":\"bad_request\""));

    let response = client::post_json(
        addr,
        "/run",
        r#"{"benchmark":"nope","technique":"baseline"}"#,
    )
    .expect("request");
    assert_eq!(response.status, 400);
    assert!(response.text().contains("unknown benchmark"));

    server.shutdown();
}

#[test]
fn panicking_cell_is_a_500_and_the_server_survives() {
    let mut server = test_server();
    let addr = server.addr();

    // bet = 0 fails gating-parameter validation inside the experiment.
    let response = client::post_json(
        addr,
        "/run",
        r#"{"benchmark":"nw","technique":"baseline","scale":0.05,"bet":0}"#,
    )
    .expect("request");
    assert_eq!(response.status, 500, "{}", response.text());
    assert!(
        response.text().contains("\"kind\":\"panic\""),
        "{}",
        response.text()
    );

    // The worker that caught the panic is still serving.
    let health = client::get(addr, "/healthz").expect("request");
    assert_eq!(health.status, 200);
    let page = client::get(addr, "/metrics").expect("request").text();
    assert!(
        page.contains("warped_serve_panicked_cells_total 1"),
        "{page}"
    );

    server.shutdown();
}

#[test]
fn trace_endpoint_streams_a_chunked_perfetto_trace() {
    let mut server = test_server();
    let addr = server.addr();

    let response = client::get(addr, "/trace?cell=0&scale=0.05").expect("request");
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("transfer-encoding"),
        Some("chunked"),
        "trace responses stream"
    );
    let text = response.text();
    assert!(text.starts_with("{\"traceEvents\":["), "{:.120}", text);
    assert!(text.trim_end().ends_with('}'));

    let rollup = client::get(addr, "/trace?cell=0&scale=0.05&format=rollup").expect("request");
    assert_eq!(rollup.status, 200);
    assert!(rollup
        .text()
        .lines()
        .next()
        .unwrap()
        .contains("\"epoch\":0"));

    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let mut server = test_server();
    let addr = server.addr();

    // A request slow enough to still be simulating when /shutdown
    // lands (scale 0.4 runs for a noticeable fraction of a second).
    let slow = std::thread::spawn(move || {
        client::post_json(
            addr,
            "/run",
            r#"{"benchmark":"nw","technique":"warped-gates","scale":0.4}"#,
        )
        .expect("in-flight request must complete")
    });
    std::thread::sleep(Duration::from_millis(150));

    let response = client::post_json(addr, "/shutdown", "").expect("request");
    assert_eq!(response.status, 200);
    assert!(response.text().contains("shutting_down"));

    // The accept loop stops and the pool drains: the slow request
    // still gets its full response.
    server.join();
    let slow_response = slow.join().unwrap();
    assert_eq!(slow_response.status, 200, "{}", slow_response.text());
    assert!(slow_response.text().contains("\"cycles\":"));

    // The listener is gone.
    assert!(client::get(addr, "/healthz").is_err());
}

#[test]
fn keep_alive_reuses_one_socket_across_sequential_requests() {
    let mut server = test_server();
    let addr = server.addr();
    let body = r#"{"benchmark":"nw","technique":"baseline","scale":0.05}"#;

    let mut keep_alive = Client::new(addr);
    let first = keep_alive.post_json("/run", body).expect("request");
    assert_eq!(first.status, 200, "{}", first.text());
    for _ in 0..9 {
        let next = keep_alive.post_json("/run", body).expect("request");
        assert_eq!(next.body, first.body);
    }
    assert_eq!(
        keep_alive.connected(),
        1,
        "ten requests must share one socket"
    );
    assert_eq!(keep_alive.reused(), 9);

    // The escape hatch really does dial per request.
    let mut per_request = Client::new(addr).with_keep_alive(false);
    for _ in 0..3 {
        assert_eq!(per_request.get("/healthz").expect("request").status, 200);
    }
    assert_eq!(per_request.connected(), 3);
    assert_eq!(per_request.reused(), 0);

    // The server counted the reuse too.
    let page = keep_alive.get("/metrics").expect("metrics").text();
    assert!(
        page.contains("warped_serve_connections_reused_total 1"),
        "one persistent connection went multi-request:\n{page}"
    );

    server.shutdown();
}

#[test]
fn two_requests_in_one_tcp_segment_are_both_answered() {
    let mut server = test_server();
    let addr = server.addr();

    let mut raw = TcpStream::connect(addr).expect("connect");
    // Two full requests in a single write; the second closes.
    raw.write_all(
        b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n\
          GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    )
    .expect("write");
    let mut wire = String::new();
    raw.read_to_string(&mut wire).expect("read both responses");
    assert_eq!(
        wire.matches("HTTP/1.1 200 OK").count(),
        2,
        "both pipelined requests answered in order:\n{wire}"
    );
    assert_eq!(wire.matches("\r\n\r\nok\n").count(), 2);
    drop(raw);

    let page = client::get(addr, "/metrics").expect("metrics").text();
    assert!(
        page.contains("warped_serve_pipelined_requests_total 1"),
        "the second request was served from the read buffer:\n{page}"
    );

    server.shutdown();
}

/// Sends `head` and `body` on a fresh `TCP_NODELAY` socket, pausing
/// `gap` between them when it is set (two segments) and writing them
/// together otherwise (one), and returns the closing response.
fn raw_post(addr: std::net::SocketAddr, head: &str, body: &str, gap: Option<Duration>) -> String {
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    match gap {
        Some(gap) => {
            raw.write_all(head.as_bytes()).expect("write head");
            std::thread::sleep(gap);
            raw.write_all(body.as_bytes()).expect("write body");
        }
        None => raw
            .write_all(format!("{head}{body}").as_bytes())
            .expect("write request"),
    }
    let mut wire = String::new();
    raw.read_to_string(&mut wire).expect("read the response");
    wire
}

#[test]
fn request_split_across_two_writes_is_answered_like_one() {
    let mut server = test_server();
    let addr = server.addr();
    let body = r#"{"benchmark":"nw","technique":"baseline","scale":0.05}"#;
    let head = format!(
        "POST /run HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\
         content-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );

    let whole = raw_post(addr, &head, body, None);
    let split = raw_post(addr, &head, body, Some(Duration::from_millis(50)));
    let body_of = |wire: &str| {
        assert!(wire.starts_with("HTTP/1.1 200 OK\r\n"), "{wire}");
        wire.split_once("\r\n\r\n").expect("head ends").1.to_owned()
    };
    assert_eq!(body_of(&split), body_of(&whole));
    assert!(body_of(&whole).contains("\"benchmark\":\"nw\""));

    server.shutdown();
}

#[test]
fn sweep_streams_jsonl_over_tcp_in_completion_order() {
    let mut server = test_server();
    let addr = server.addr();
    let sweep = r#"{"cells":[
        {"benchmark":"nw","technique":"baseline","scale":0.05},
        {"benchmark":"nw","technique":"warped-gates","scale":0.05},
        {"benchmark":"nw","technique":"baseline","scale":0.05}
    ]}"#;

    let mut client = Client::new(addr);
    let mut lines = Vec::new();
    let status = client
        .post_stream_lines("/sweep", sweep, |line| lines.push(line.to_owned()))
        .expect("sweep");
    assert_eq!(status, 200);
    assert_eq!(lines.len(), 3, "one JSONL line per cell: {lines:?}");

    // Completion order is arbitrary; every index must appear once and
    // identical cells must produce byte-identical reports.
    let mut by_index = vec![None; 3];
    for line in &lines {
        let doc = warped_serve::json::parse(line).expect("valid JSON line");
        let index = doc.get("index").and_then(|v| v.as_u64()).unwrap() as usize;
        assert!(line.contains("\"cycles\":"), "{line}");
        assert!(by_index[index].replace(line.clone()).is_none());
    }
    let report_of = |i: usize| {
        let line = by_index[i].as_ref().unwrap();
        line.split_once("\"report\":").unwrap().1.to_owned()
    };
    assert_eq!(report_of(0), report_of(2), "duplicate cells coalesce");
    assert!(report_of(1).contains("\"technique\":\"Warped Gates\""));

    // Three cells entered the sweep, one was a duplicate: two
    // simulations, one dedup.
    let page = client.get("/metrics").expect("metrics").text();
    assert!(page.contains("warped_serve_sweep_cells_total 3"), "{page}");
    assert!(
        page.contains("warped_serve_sweep_cells_deduped_total 1"),
        "{page}"
    );
    assert!(page.contains("warped_serve_simulations_total 2"), "{page}");

    server.shutdown();
}

#[test]
fn connection_cap_sheds_with_503_retry_after() {
    // One worker, stalled, and an explicitly tiny connection cap: the
    // first four connections are admitted and wait behind the stall.
    // Past the cap the acceptor must shed — a typed 503 with
    // Retry-After — instead of blocking new connections behind it.
    let mut server = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        max_connections: Some(4),
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.addr();
    server.service().set_chaos(ChaosMode::Stall);

    let clients: Vec<_> = (0..24)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::new(addr)
                    .with_keep_alive(false)
                    .with_read_timeout(Some(Duration::from_secs(60)));
                client.get("/healthz").expect("a verdict, served or shed")
            })
        })
        .collect();

    // Wait until the acceptor has actually shed, then release the
    // stall so the admitted connections drain normally.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server
        .service()
        .metrics
        .shed_requests
        .load(Ordering::Relaxed)
        == 0
    {
        assert!(
            std::time::Instant::now() < deadline,
            "the connection cap never shed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.service().set_chaos(ChaosMode::None);

    let responses: Vec<_> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    let served = responses.iter().filter(|r| r.status == 200).count();
    let shed: Vec<_> = responses.iter().filter(|r| r.status == 503).collect();
    assert!(
        served >= 1,
        "admitted connections drain once the stall clears"
    );
    assert!(!shed.is_empty(), "over-capacity connections are shed");
    assert_eq!(served + shed.len(), 24, "every connection gets a verdict");
    for response in &shed {
        assert_eq!(
            response.header("retry-after"),
            Some("1"),
            "shed responses carry Retry-After: {}",
            response.text()
        );
        assert!(
            response.text().contains("\"kind\":\"overloaded\""),
            "{}",
            response.text()
        );
    }
    assert_eq!(
        server
            .service()
            .metrics
            .shed_requests
            .load(Ordering::Relaxed) as usize,
        shed.len(),
        "the counter matches the 503s on the wire"
    );
    let page = client::get(addr, "/metrics").expect("metrics").text();
    assert!(
        page.contains(&format!("warped_serve_shed_requests_total {}", shed.len())),
        "{page}"
    );

    server.shutdown();
}

/// Opens a raw keep-alive connection, has it answer one `/healthz`,
/// and returns it idle.
fn idle_keep_alive(addr: std::net::SocketAddr) -> TcpStream {
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    raw.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
        .expect("write");
    let mut wire = Vec::new();
    let mut buf = [0u8; 512];
    while !wire.ends_with(b"\r\n\r\nok\n") {
        let n = raw.read(&mut buf).expect("read the response");
        assert!(n > 0, "closed before answering");
        wire.extend_from_slice(&buf[..n]);
    }
    let head = String::from_utf8_lossy(&wire).to_lowercase();
    assert!(head.contains("connection: keep-alive"), "{head}");
    raw
}

fn small_server(workers: usize, keep_alive_timeout: Duration) -> ServerHandle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        keep_alive_timeout,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port")
}

#[test]
fn idle_keep_alive_socket_is_closed_and_counted() {
    let mut server = small_server(2, Duration::from_millis(200));
    let addr = server.addr();

    let mut raw = idle_keep_alive(addr);
    raw.set_read_timeout(Some(Duration::from_secs(1)))
        .expect("timeout");
    let mut byte = [0u8; 1];
    assert_eq!(
        raw.read(&mut byte).expect("the server closes within 1 s"),
        0,
        "an idle socket is closed, not answered"
    );

    let page = client::get(addr, "/metrics").expect("metrics").text();
    assert!(
        page.contains("warped_serve_reaped_idle_sockets_total 1"),
        "{page}"
    );
    server.shutdown();
}

#[test]
fn idle_keep_alive_sockets_do_not_hold_the_only_worker() {
    let mut server = small_server(1, Duration::from_secs(5));
    let addr = server.addr();
    let idle: Vec<_> = (0..6).map(|_| idle_keep_alive(addr)).collect();

    let started = std::time::Instant::now();
    let health = Client::new(addr)
        .with_read_timeout(Some(Duration::from_secs(1)))
        .get("/healthz")
        .expect("a fresh client is answered");
    assert_eq!(health.status, 200);
    assert!(started.elapsed() < Duration::from_secs(1));

    drop(idle);
    server.shutdown();
}

#[test]
fn shutdown_closes_idle_keep_alive_sockets_at_once() {
    let mut server = small_server(2, ServerConfig::default().keep_alive_timeout);
    let idle: Vec<_> = (0..4).map(|_| idle_keep_alive(server.addr())).collect();

    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown waited on idle sockets: {:?}",
        started.elapsed()
    );
    for mut raw in idle {
        let mut byte = [0u8; 1];
        assert_eq!(raw.read(&mut byte).expect("EOF"), 0);
    }
    assert_eq!(
        server
            .service()
            .metrics
            .reaped_idle_sockets
            .load(Ordering::Relaxed),
        0,
        "shutdown closes idle sockets without waiting them out"
    );
}

#[test]
fn request_stalled_at_shutdown_still_gets_its_response() {
    let mut server = small_server(2, Duration::from_secs(5));
    let addr = server.addr();
    let service = Arc::clone(server.service());
    service.set_chaos(ChaosMode::Stall);

    let stalled = std::thread::spawn(move || client::get(addr, "/healthz"));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while service.metrics.requests.load(Ordering::Relaxed) == 0 {
        assert!(std::time::Instant::now() < deadline, "never reached handle");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Clear the stall only once shutdown is under way: the listener
    // closes when the acceptor leaves its loop.
    let release = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            while TcpStream::connect(addr).is_ok() {
                std::thread::sleep(Duration::from_millis(5));
            }
            service.set_chaos(ChaosMode::None);
        })
    };

    server.shutdown();
    release.join().unwrap();
    let response = stalled
        .join()
        .unwrap()
        .expect("the stalled request is answered");
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(response.text(), "ok\n");
}

#[test]
fn restart_over_the_same_cache_dir_serves_from_disk() {
    let dir = std::env::temp_dir().join(format!("warped_serve_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        service: ServiceConfig {
            disk_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let body = r#"{"benchmark":"nw","technique":"gates","scale":0.05}"#;

    // First life: simulate once, persist write-behind, flush on the
    // way down.
    let mut server = spawn(config()).expect("bind");
    let first = client::post_json(server.addr(), "/run", body).expect("request");
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(
        server.service().metrics.simulations.load(Ordering::Relaxed),
        1
    );
    server.shutdown();
    server
        .service()
        .disk
        .as_ref()
        .expect("disk enabled")
        .flush();
    drop(server);

    // Second life: same bytes, zero simulations, one disk hit.
    let mut server = spawn(config()).expect("bind");
    let warm = client::post_json(server.addr(), "/run", body).expect("request");
    assert_eq!(warm.status, 200);
    assert_eq!(
        warm.body, first.body,
        "disk-cached bytes must be identical across restarts"
    );
    assert_eq!(
        server.service().metrics.simulations.load(Ordering::Relaxed),
        0
    );
    let page = client::get(server.addr(), "/metrics")
        .expect("metrics")
        .text();
    assert!(
        page.contains("warped_serve_disk_cache_hits_total 1"),
        "{page}"
    );
    assert!(page.contains("warped_serve_simulations_total 0"), "{page}");
    server.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes `request` on a fresh socket and returns everything the
/// server sends before it closes.
fn raw_exchange(addr: std::net::SocketAddr, request: &[u8]) -> String {
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    raw.write_all(request).expect("write");
    let mut wire = String::new();
    raw.read_to_string(&mut wire).expect("read until close");
    wire
}

/// The full fixed-length `Connection: close` error response.
fn closing_error(status: &str, extra: &str, kind: &str, message: &str) -> String {
    let body = format!("{{\"error\":{{\"kind\":\"{kind}\",\"message\":\"{message}\"}}}}\n");
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: close\r\n{extra}\r\n{body}",
        body.len()
    )
}

#[test]
fn framing_errors_answer_byte_exact_and_close() {
    let mut server = test_server();
    let addr = server.addr();
    for (request, status, kind, message, delta) in [
        (
            "NOT HTTP\r\n\r\n",
            "400 Bad Request",
            "bad_request",
            "malformed request line",
            (1, 0),
        ),
        (
            "GET /healthz HTTP/1.1\r\nno colon\r\n\r\n",
            "400 Bad Request",
            "bad_request",
            "malformed header",
            (1, 0),
        ),
        (
            "POST /run HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n",
            "413 Payload Too Large",
            "bad_request",
            "body over 1048576 bytes",
            (1, 0),
        ),
        (
            "GET /healthz HTTP/2\r\n\r\n",
            "501 Not Implemented",
            "not_implemented",
            "unsupported HTTP/2",
            (0, 1),
        ),
        (
            "POST /run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "501 Not Implemented",
            "not_implemented",
            "chunked request bodies are not supported",
            (0, 1),
        ),
    ] {
        let metrics = &server.service().metrics;
        let before = (
            metrics.client_errors.load(Ordering::Relaxed),
            metrics.server_errors.load(Ordering::Relaxed),
        );
        assert_eq!(
            raw_exchange(addr, request.as_bytes()),
            closing_error(status, "", kind, message),
            "{request:?}"
        );
        let after = (
            metrics.client_errors.load(Ordering::Relaxed),
            metrics.server_errors.load(Ordering::Relaxed),
        );
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            delta,
            "{request:?}"
        );
    }
    server.shutdown();
}

#[test]
fn conflicting_content_lengths_answer_400_and_close() {
    let mut server = test_server();
    let addr = server.addr();
    // Were the first length honored, the tail of the body would be
    // answered as a pipelined second request.
    let wire = raw_exchange(
        addr,
        b"POST /run HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 36\r\n\r\n\
          {}GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n",
    );
    assert_eq!(
        wire,
        closing_error(
            "400 Bad Request",
            "",
            "bad_request",
            "conflicting content-length"
        )
    );
    let wire = raw_exchange(addr, b"POST /run HTTP/1.1\r\ncontent-length: +2\r\n\r\n{}");
    assert_eq!(
        wire,
        closing_error(
            "400 Bad Request",
            "",
            "bad_request",
            "malformed content-length"
        )
    );
    server.shutdown();
}

#[test]
fn shed_connection_gets_a_byte_exact_503() {
    let mut server = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        max_connections: Some(1),
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.addr();
    // The one admitted connection sits idle and holds the only slot.
    let held = idle_keep_alive(addr);

    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut wire = String::new();
    raw.read_to_string(&mut wire).expect("read until close");
    assert_eq!(
        wire,
        closing_error(
            "503 Service Unavailable",
            "Retry-After: 1\r\n",
            "overloaded",
            "connection limit reached; retry shortly"
        )
    );
    let metrics = &server.service().metrics;
    assert_eq!(metrics.shed_requests.load(Ordering::Relaxed), 1);
    assert_eq!(metrics.server_errors.load(Ordering::Relaxed), 1);
    assert_eq!(metrics.client_errors.load(Ordering::Relaxed), 0);
    drop(held);
    server.shutdown();
}
