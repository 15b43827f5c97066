//! Byte-exact pins of what cluster mode puts on the wire: the request
//! a server-side forward writes to the ring owner, the requests the
//! `ClusterClient` writes and the `/run` bytes it rebuilds from
//! `/sweep` lines (a report line, and an error line that it re-runs
//! through `/run`), and the cluster block of `/metrics`. The peers
//! here are scripted sockets, so every byte either side sends is
//! fixed by the test.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;

use warped_gates::Technique;
use warped_serve::cluster::{cell_for, Cluster, ClusterClient, ClusterConfig};
use warped_serve::http::Request;
use warped_serve::{client, spawn, ServerConfig, Service, ServiceConfig};
use warped_workloads::Benchmark;

const SCALE: f64 = 0.05;

/// A scripted peer: accepts one connection per canned answer, in
/// order, records the full request (head and body) it read on each,
/// writes the answer and closes.
fn scripted_peer(answers: Vec<Vec<u8>>) -> (SocketAddr, JoinHandle<Vec<String>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let thread = std::thread::spawn(move || {
        answers
            .into_iter()
            .map(|answer| {
                let (stream, _) = listener.accept().expect("accept");
                let mut reader = BufReader::new(stream);
                let mut request = String::new();
                let mut length = 0;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("request head");
                    if let Some((name, value)) = line.trim_end().split_once(':') {
                        if name.eq_ignore_ascii_case("content-length") {
                            length = value.trim().parse().expect("a length");
                        }
                    }
                    request.push_str(&line);
                    if line == "\r\n" {
                        break;
                    }
                }
                let mut body = vec![0; length];
                reader.read_exact(&mut body).expect("request body");
                request.push_str(std::str::from_utf8(&body).expect("UTF-8 body"));
                let mut stream = reader.into_inner();
                stream.write_all(&answer).expect("answer");
                request
            })
            .collect()
    });
    (addr, thread)
}

/// A fixed-length `200` JSON answer that closes.
fn json_answer(body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A chunked `200` JSONL answer, one chunk per line, that closes.
fn jsonl_answer(lines: &[&str]) -> Vec<u8> {
    let mut wire = String::from(
        "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nTransfer-Encoding: chunked\r\n\
         Connection: close\r\n\r\n",
    );
    for line in lines {
        wire.push_str(&format!("{:x}\r\n{line}\n\r\n", line.len() + 1));
    }
    wire.push_str("0\r\n\r\n");
    wire.into_bytes()
}

/// A `POST` as the cluster writes it: closing, JSON body.
fn post(addr: SocketAddr, path: &str, extra: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n{extra}\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

#[test]
fn a_forward_writes_the_loop_guard_and_the_canonical_run_body() {
    let mut node = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral port");
    let owner_answer = "{\"from\":\"the owner\"}\n";
    let (owner, recorded) = scripted_peer(vec![json_answer(owner_answer)]);
    node.service().arm_cluster(
        Cluster::new(&ClusterConfig {
            peers: vec![node.addr().to_string(), owner.to_string()],
            self_addr: Some(node.addr().to_string()),
            probe_interval: None,
        })
        .expect("a valid cluster"),
    );
    let cluster = node.service().cluster().expect("armed");
    let owner_index = cluster
        .nodes()
        .iter()
        .position(|n| *n == owner.to_string())
        .expect("the scripted owner is a member");
    let benchmark = Benchmark::ALL
        .into_iter()
        .find(|b| {
            let cell = cell_for(*b, Technique::Baseline, SCALE);
            cluster.ring().owner(cell.fingerprint) == owner_index
        })
        .expect("some cell is owned by the scripted peer");

    // A cluster-unaware client posts the short form; the node forwards
    // the canonical body and answers the owner's bytes verbatim.
    let short = format!(
        "{{\"benchmark\":\"{}\",\"technique\":\"baseline\",\"scale\":{SCALE}}}",
        benchmark.name()
    );
    let answer = client::post_json(node.addr(), "/run", &short).expect("request");
    assert_eq!(answer.status, 200, "{}", answer.text());
    assert_eq!(answer.text(), owner_answer);

    let canonical = format!(
        "{{\"benchmark\":\"{}\",\"technique\":\"Baseline\",\"scale\":0.05,\
         \"idle_detect\":5,\"bet\":14,\"wakeup_delay\":3,\"hierarchy\":false}}",
        benchmark.name()
    );
    assert_eq!(
        recorded.join().expect("scripted owner"),
        [post(owner, "/run", "X-Warped-Forwarded: 1\r\n", &canonical)]
    );
    let counters = cluster.counters();
    assert_eq!(counters.forwarded_requests.load(Ordering::Relaxed), 1);
    assert_eq!(counters.forward_failures.load(Ordering::Relaxed), 0);
    node.shutdown();
}

#[test]
fn the_client_rebuilds_run_bytes_from_sweep_lines_and_reruns_error_lines() {
    let (peer, recorded) = scripted_peer(vec![
        jsonl_answer(&[
            "{\"index\":0,\"report\":{\"benchmark\":\"nw\",\"cycles\":7}}",
            "{\"index\":1,\"error\":{\"kind\":\"panic\",\"message\":\"boom\"}}",
        ]),
        json_answer("{\"benchmark\":\"nw\",\"cycles\":9}\n"),
    ]);
    let cluster = Cluster::new(&ClusterConfig {
        peers: vec![peer.to_string()],
        probe_interval: None,
        ..ClusterConfig::default()
    })
    .expect("a valid cluster");
    let cells = [
        cell_for(Benchmark::Nw, Technique::Baseline, SCALE),
        cell_for(Benchmark::Nw, Technique::Gates, SCALE),
    ];
    let results = ClusterClient::new(cluster, 1)
        .sweep(&cells)
        .expect("every cell answered");
    assert_eq!(
        results,
        [
            b"{\"benchmark\":\"nw\",\"cycles\":7}\n".to_vec(),
            b"{\"benchmark\":\"nw\",\"cycles\":9}\n".to_vec(),
        ]
    );

    let run0 = "{\"benchmark\":\"nw\",\"technique\":\"Baseline\",\"scale\":0.05}";
    let run1 = "{\"benchmark\":\"nw\",\"technique\":\"GATES\",\"scale\":0.05}";
    assert_eq!(
        (cells[0].body.as_str(), cells[1].body.as_str()),
        (run0, run1)
    );
    assert_eq!(
        recorded.join().expect("scripted peer"),
        [
            post(
                peer,
                "/sweep",
                "X-Warped-Forwarded: 1\r\n",
                &format!("{{\"cells\":[{run0},{run1}]}}")
            ),
            post(peer, "/run", "X-Warped-Forwarded: 1\r\n", run1),
        ]
    );
}

#[test]
fn the_metrics_cluster_block_is_pinned() {
    let service = Service::new(ServiceConfig::default());
    service.arm_cluster(
        Cluster::new(&ClusterConfig {
            peers: vec!["127.0.0.1:19941".to_owned(), "127.0.0.1:19942".to_owned()],
            self_addr: Some("127.0.0.1:19941".to_owned()),
            probe_interval: None,
        })
        .expect("a valid cluster"),
    );
    let counters = service.cluster().expect("armed").counters();
    counters.forwarded_requests.store(1, Ordering::Relaxed);
    counters.forward_failures.store(2, Ordering::Relaxed);
    counters.breaker_open.store(5, Ordering::Relaxed);
    counters.peer_unhealthy.store(6, Ordering::Relaxed);

    let request = Request {
        method: "GET".to_owned(),
        path: "/metrics".to_owned(),
        query: Vec::new(),
        headers: Vec::new(),
        body: Vec::new(),
        keep_alive: true,
    };
    let mut out = Vec::new();
    service.handle(&request, &mut out, true).expect("answered");
    let page = String::from_utf8(out).expect("UTF-8 page");
    let block: Vec<&str> = page
        .lines()
        .filter(|l| l.contains("warped_serve_cluster_"))
        .collect();
    assert_eq!(
        block.join("\n"),
        "# HELP warped_serve_cluster_forwarded_requests_total \
         Mis-routed cells successfully forwarded to their ring owner.\n\
         warped_serve_cluster_forwarded_requests_total 1\n\
         # HELP warped_serve_cluster_forward_failures_total \
         Peer forwards that failed and fell back to local simulation.\n\
         warped_serve_cluster_forward_failures_total 2\n\
         # HELP warped_serve_cluster_breaker_open_total \
         Circuit-breaker trips (transitions to the open state).\n\
         warped_serve_cluster_breaker_open_total 5\n\
         # HELP warped_serve_cluster_peer_unhealthy_total \
         Failed peer health observations (probes and passive).\n\
         warped_serve_cluster_peer_unhealthy_total 6"
    );
}
