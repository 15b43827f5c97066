//! Byte-exact pins of every error response `Service::handle` writes:
//! status line, `Content-Type`, `Content-Length`, `Connection` and
//! body, under both connection verdicts, plus the `client_errors` /
//! `server_errors` deltas each answer adds. The socket-level answers
//! the transport writes itself (the shed `503`, framing `400`/`413`/
//! `501`) are pinned in `tests/service.rs`.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

use warped_serve::cluster::ChaosMode;
use warped_serve::http::Request;
use warped_serve::{Service, ServiceConfig};

const PANIC: &str = "break-even time must be positive";

fn request(method: &str, target: &str, body: &str) -> Request {
    let (path, query_text) = target.split_once('?').unwrap_or((target, ""));
    Request {
        method: method.to_owned(),
        path: path.to_owned(),
        query: query_text
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| {
                let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                (k.to_owned(), v.to_owned())
            })
            .collect(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
        keep_alive: true,
    }
}

fn service(config: ServiceConfig) -> Service {
    Service::new(ServiceConfig {
        grid_path: PathBuf::from("/nonexistent/bench_grid.json"),
        ..config
    })
}

/// The full fixed-length response `status` with `body`.
fn wire(status: &str, body: &str, keep_alive: bool) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
}

/// Sends `req` under both connection verdicts and checks the bytes and
/// the `(client_errors, server_errors)` delta of each answer.
fn pin(service: &Service, req: &Request, status: &str, body: &str, delta: (u64, u64)) {
    for keep_alive in [true, false] {
        let counts = || {
            (
                service.metrics.client_errors.load(Ordering::Relaxed),
                service.metrics.server_errors.load(Ordering::Relaxed),
            )
        };
        let before = counts();
        let mut out = Vec::new();
        service
            .handle(req, &mut out, keep_alive)
            .expect("in-band answer");
        assert_eq!(
            String::from_utf8(out).expect("UTF-8 response"),
            wire(status, body, keep_alive),
            "{} {}",
            req.method,
            req.path
        );
        let after = counts();
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            delta,
            "{} {} counter delta",
            req.method,
            req.path
        );
    }
}

fn bad_request(service: &Service, req: &Request, message: &str) {
    let body = format!("{{\"error\":{{\"kind\":\"bad_request\",\"message\":\"{message}\"}}}}\n");
    pin(service, req, "400 Bad Request", &body, (1, 0));
}

fn server_error(service: &Service, req: &Request, kind: &str, message: &str) {
    let body = format!("{{\"error\":{{\"kind\":\"{kind}\",\"message\":\"{message}\"}}}}\n");
    pin(service, req, "500 Internal Server Error", &body, (0, 1));
}

#[test]
fn every_client_error_is_pinned_byte_for_byte() {
    let s = service(ServiceConfig::default());
    let run = |body: &str| request("POST", "/run", body);
    let over_cap = format!("[{}{{}}]", "{},".repeat(4096));
    let cases: &[(Request, &str)] = &[
        (run("{not json"), r#"invalid JSON at byte 1: expected '\"'"#),
        (run(""), "invalid JSON at byte 0: expected a JSON value"),
        (
            run(r#"{"benchmark":"nw","technique":"baseline","typo":1}"#),
            r#"unknown field \"typo\""#,
        ),
        (
            run(r#"{"benchmark":"nope","technique":"baseline"}"#),
            r#"unknown benchmark \"nope\""#,
        ),
        (
            run(r#"{"benchmark":"nw","technique":"nope"}"#),
            r#"unknown technique \"nope\""#,
        ),
        (
            run(r#"{"technique":"baseline"}"#),
            r#"missing or non-string field \"benchmark\" or \"trace_ref\""#,
        ),
        (
            run(r#"{"benchmark":"nw","trace_ref":"nw","technique":"baseline"}"#),
            r#"\"benchmark\" and \"trace_ref\" are mutually exclusive — name one workload"#,
        ),
        (
            run(r#"{"benchmark":"nw","technique":"baseline","scale":7}"#),
            r#"\"scale\" must be a number in (0,1]"#,
        ),
        (
            run(r#"{"benchmark":"nw","technique":"baseline","bet":-1}"#),
            r#"\"bet\" must be a non-negative integer"#,
        ),
        (
            run(r#"{"benchmark":"nw","technique":"baseline","hierarchy":1}"#),
            r#"\"hierarchy\" must be true or false"#,
        ),
        (
            run(r#"{"trace_ref":"nw","technique":"baseline"}"#),
            r#"unknown trace_ref \"nw\"; no trace corpus is loaded (start with --trace-dir)"#,
        ),
        (
            request("POST", "/sweep", r#"{"cells":[]}"#),
            "sweep needs at least one cell",
        ),
        (
            request("POST", "/sweep", &over_cap),
            "too many cells (4097 > the 4096 cap)",
        ),
        (
            request("POST", "/sweep", r#"{"cells":7}"#),
            r#"missing or non-array field \"cells\""#,
        ),
        (
            request("POST", "/sweep", r#"{"cellz":[]}"#),
            r#"unknown field \"cellz\""#,
        ),
        (
            request("POST", "/sweep", "7"),
            r#"expected an array of cells or {\"cells\":[...]}"#,
        ),
        (
            request(
                "POST",
                "/sweep",
                r#"[{"benchmark":"nw","technique":"baseline"},{"benchmark":"nope","technique":"baseline"}]"#,
            ),
            r#"cells[1]: unknown benchmark \"nope\""#,
        ),
        (
            request(
                "POST",
                "/sweep",
                r#"[{"benchmark":"nw","technique":"baseline"},{"trace_ref":"x","technique":"baseline"}]"#,
            ),
            r#"cells[1]: unknown trace_ref \"x\"; no trace corpus is loaded (start with --trace-dir)"#,
        ),
        (
            // Cells validate in array order: the unknown trace in
            // cell 0 is named before cell 1's unknown field.
            request(
                "POST",
                "/sweep",
                r#"[{"trace_ref":"x","technique":"baseline"},{"benchmark":"nw","technique":"baseline","typo":1}]"#,
            ),
            r#"cells[0]: unknown trace_ref \"x\"; no trace corpus is loaded (start with --trace-dir)"#,
        ),
        (
            request("POST", "/chaos", r#"{"mode":"nope"}"#),
            r#"body must be {\"mode\":\"none\"|\"error\"|\"stall\"|\"abort\"}"#,
        ),
        (
            request("POST", "/chaos", r#"{"mood":"error"}"#),
            r#"body must be {\"mode\":\"none\"|\"error\"|\"stall\"|\"abort\"}"#,
        ),
        (
            request("GET", "/trace?cell=0&scale=0", ""),
            r#"\"scale\" must be a number in (0,1]"#,
        ),
        (
            request("GET", "/trace", ""),
            r#"\"cell\" must be a grid index below 108"#,
        ),
        (
            request("GET", "/trace?cell=108", ""),
            r#"\"cell\" must be a grid index below 108"#,
        ),
        (
            request("GET", "/trace?cell=0&format=nope", ""),
            r#"\"format\" must be perfetto or rollup"#,
        ),
    ];
    for (req, message) in cases {
        bad_request(&s, req, message);
    }

    pin(
        &s,
        &request("GET", "/nope", ""),
        "404 Not Found",
        "{\"error\":{\"kind\":\"not_found\",\"message\":\"no route for /nope\"}}\n",
        (1, 0),
    );
    pin(
        &s,
        &request("GET", "/grid", ""),
        "404 Not Found",
        "{\"error\":{\"kind\":\"no_grid\",\"message\":\"/nonexistent/bench_grid.json not found; \
         run the sweep binary to write it\"}}\n",
        (1, 0),
    );
    pin(
        &s,
        &request("DELETE", "/run", ""),
        "405 Method Not Allowed",
        "{\"error\":{\"kind\":\"method_not_allowed\",\"message\":\"DELETE not allowed here\"}}\n",
        (1, 0),
    );
    assert_eq!(
        s.metrics.simulations.load(Ordering::Relaxed),
        0,
        "no request reached a simulation"
    );
}

#[test]
fn every_server_error_is_pinned_byte_for_byte() {
    let s = service(ServiceConfig::default());
    let bet0 = r#"{"benchmark":"nw","technique":"baseline","scale":0.05,"bet":0}"#;
    server_error(&s, &request("POST", "/run", bet0), "panic", PANIC);

    let slow = service(ServiceConfig {
        job_timeout: Some(Duration::ZERO),
        ..ServiceConfig::default()
    });
    server_error(
        &slow,
        &request(
            "POST",
            "/run",
            r#"{"benchmark":"nw","technique":"baseline","scale":0.05}"#,
        ),
        "timeout",
        "cell exceeded the wall-clock budget (Some(0ns))",
    );

    s.set_chaos(ChaosMode::Error);
    server_error(
        &s,
        &request("GET", "/healthz", ""),
        "chaos",
        "injected fault",
    );
    server_error(
        &s,
        &request("POST", "/run", bet0),
        "chaos",
        "injected fault",
    );
    s.set_chaos(ChaosMode::None);

    let dir = std::env::temp_dir().join(format!("warped_error_bytes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let torn = dir.join("bench_grid.json");
    std::fs::write(&torn, "{\"title\":").expect("write a torn grid");
    let grid = Service::new(ServiceConfig {
        grid_path: torn,
        ..ServiceConfig::default()
    });
    server_error(
        &grid,
        &request("GET", "/grid", ""),
        "bad_grid",
        "malformed grid at byte 9: expected a JSON value",
    );
    let unreadable = Service::new(ServiceConfig {
        grid_path: dir.clone(),
        ..ServiceConfig::default()
    });
    server_error(
        &unreadable,
        &request("GET", "/grid", ""),
        "io",
        "Is a directory (os error 21)",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full chunked `/sweep` response streaming `lines`, one chunk each.
fn jsonl_wire(lines: &[&str], keep_alive: bool) -> String {
    let mut wire = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nTransfer-Encoding: chunked\r\n\
         Connection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" },
    );
    for line in lines {
        wire.push_str(&format!("{:x}\r\n{line}\r\n", line.len()));
    }
    wire.push_str("0\r\n\r\n");
    wire
}

#[test]
fn sweep_error_lines_are_pinned_byte_for_byte() {
    let s = service(ServiceConfig::default());
    let slow = service(ServiceConfig {
        job_timeout: Some(Duration::ZERO),
        ..ServiceConfig::default()
    });
    let cell = r#"[{"benchmark":"nw","technique":"baseline","scale":0.05,"bet":0}]"#;
    let timed = r#"[{"benchmark":"nw","technique":"baseline","scale":0.05}]"#;
    for (service, body, line) in [
        (
            &s,
            cell,
            format!("{{\"index\":0,\"error\":{{\"kind\":\"panic\",\"message\":\"{PANIC}\"}}}}\n"),
        ),
        (
            &slow,
            timed,
            "{\"index\":0,\"error\":{\"kind\":\"timeout\",\"message\":\
             \"cell exceeded the wall-clock budget (Some(0ns))\"}}\n"
                .to_owned(),
        ),
    ] {
        for keep_alive in [true, false] {
            let mut out = Vec::new();
            service
                .handle(&request("POST", "/sweep", body), &mut out, keep_alive)
                .expect("in-band answer");
            assert_eq!(
                String::from_utf8(out).expect("UTF-8 response"),
                jsonl_wire(&[&line], keep_alive)
            );
        }
        // A streamed sweep answers 200 whatever its cells did.
        assert_eq!(service.metrics.client_errors.load(Ordering::Relaxed), 0);
        assert_eq!(service.metrics.server_errors.load(Ordering::Relaxed), 0);
    }
}
