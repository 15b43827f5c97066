//! `loadgen` — a closed-loop load generator for `warped-serve`.
//!
//! ```text
//! loadgen [--addr <host:port>] [--connections <n>] [--requests <n>]
//!         [--scale <f>] [--cells <n>] [--no-keepalive]
//!         [--out <dir>] [--check-grid <path>] [--trace-dir <dir>]
//! ```
//!
//! Drives N concurrent connections over the benchmark × technique cell
//! mix against a running server (`--addr`), or against an in-process
//! server on an ephemeral port when no address is given. The cache is
//! warmed first with one `POST /sweep` over the whole mix, so the
//! measured phase exercises the serving path, not the simulator.
//!
//! By default both connection modes run — persistent keep-alive
//! sockets and one-connection-per-request — and the A/B lands as two
//! rows (sustained req/s, p50/p99 latency, sockets opened) in
//! `<out>/bench_serve.json` via the same `write_json` format as every
//! other benchmark artifact. `--no-keepalive` restricts the run to the
//! per-request mode.
//!
//! `--check-grid <path>` additionally verifies the warm-up sweep
//! against a committed grid table: every cell's `cycles` must match
//! the table's row bit-for-bit (only meaningful with `--scale 1`,
//! the scale the grid was generated at).
//!
//! `--trace-dir <dir>` appends one captured-trace cell to the mix
//! (the first `*.wgt1` in the directory, referenced via `trace_ref`),
//! so the serving path for the WGT1 corpus is exercised under load
//! alongside the synthetic cells. The in-process server loads the
//! same directory; against `--addr`, the remote server must have been
//! started with a matching `--trace-dir`. Trace cells are skipped by
//! `--check-grid` (they live in `bench_trace_grid.json`, not the
//! synthetic grid) and are not part of cluster mode (trace corpora
//! are node-local, so trace cells never route between peers).
//!
//! `--cluster <a,b,c>` switches to cluster mode: the mix is swept
//! through the resilient [`ClusterClient`] (consistent-hash routing,
//! replica retries, straggler hedging) against the named peers
//! instead of the closed-loop A/B. The client routes every cell
//! itself and marks each request so the node it lands on serves it,
//! so the peers never forward. The last line prints the client's own
//! counters: `retries` and `hedged` (re-dispatches, kept by the
//! client) and `breaker_open` and `peer_unhealthy` (its view of peer
//! health). `--chaos <seed>` additionally injects one
//! seeded fault (kill/stall/error on a deterministic victim and
//! schedule, via `POST /chaos`) while the sweep runs — equal seeds
//! reproduce the exact same fault.

use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use warped_bench::grid::GridTable;
use warped_bench::timing::percentile;
use warped_bench::{exit_usage, write_json, ArgError};
use warped_gates::Technique;
use warped_serve::client::Client;
use warped_serve::cluster::{cell_for, chaos_plan, Cluster, ClusterClient, ClusterConfig};
use warped_serve::{json, spawn, ServerConfig};
use warped_workloads::Benchmark;

const USAGE: &str = "usage: loadgen [--addr <host:port>] [--connections <n>] \
                     [--requests <n>] [--scale <f>] [--cells <n>] \
                     [--no-keepalive] [--out <dir>] [--check-grid <path>] \
                     [--cluster <addr,addr,...>] [--chaos <seed>] \
                     [--trace-dir <dir>]";

struct Args {
    addr: Option<String>,
    connections: usize,
    requests: usize,
    scale: f64,
    cells: Option<usize>,
    no_keepalive: bool,
    out: PathBuf,
    check_grid: Option<PathBuf>,
    cluster: Option<Vec<String>>,
    chaos: Option<u64>,
    trace_dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, ArgError> {
    let mut parsed = Args {
        addr: None,
        connections: 8,
        requests: 2000,
        scale: 0.05,
        cells: None,
        no_keepalive: false,
        out: PathBuf::from("results"),
        check_grid: None,
        cluster: None,
        chaos: None,
        trace_dir: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> Result<&String, ArgError> {
            it.next()
                .ok_or_else(|| ArgError::MissingValue(flag.to_owned()))
        };
        let positive = |flag: &str, raw: &String| -> Result<usize, ArgError> {
            raw.parse::<usize>()
                .ok()
                .filter(|n| *n >= 1)
                .ok_or_else(|| ArgError::BadValue {
                    flag: flag.to_owned(),
                    value: raw.clone(),
                    expected: "a positive integer",
                })
        };
        match arg.as_str() {
            "--addr" => parsed.addr = Some(value_of("--addr")?.clone()),
            "--connections" => {
                parsed.connections = positive("--connections", value_of("--connections")?)?;
            }
            "--requests" => parsed.requests = positive("--requests", value_of("--requests")?)?,
            "--cells" => parsed.cells = Some(positive("--cells", value_of("--cells")?)?),
            "--scale" => {
                let raw = value_of("--scale")?;
                parsed.scale = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 1.0)
                    .ok_or_else(|| ArgError::BadValue {
                        flag: "--scale".to_owned(),
                        value: raw.clone(),
                        expected: "a number in (0,1]",
                    })?;
            }
            "--no-keepalive" => parsed.no_keepalive = true,
            "--out" => parsed.out = PathBuf::from(value_of("--out")?),
            "--check-grid" => parsed.check_grid = Some(PathBuf::from(value_of("--check-grid")?)),
            "--trace-dir" => parsed.trace_dir = Some(PathBuf::from(value_of("--trace-dir")?)),
            "--cluster" => {
                let raw = value_of("--cluster")?;
                let peers: Vec<String> = raw
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(str::to_owned)
                    .collect();
                if peers.is_empty() {
                    return Err(ArgError::BadValue {
                        flag: "--cluster".to_owned(),
                        value: raw.clone(),
                        expected: "a comma-separated list of host:port addresses",
                    });
                }
                parsed.cluster = Some(peers);
            }
            "--chaos" => {
                let raw = value_of("--chaos")?;
                parsed.chaos = Some(raw.parse::<u64>().ok().ok_or_else(|| ArgError::BadValue {
                    flag: "--chaos".to_owned(),
                    value: raw.clone(),
                    expected: "a seed (non-negative integer)",
                })?);
            }
            other => return Err(ArgError::Unknown(other.to_owned())),
        }
    }
    Ok(parsed)
}

/// One cell of the request mix: the grid row label and the `/run` body.
struct Cell {
    label: String,
    body: String,
}

fn cell_mix(scale: f64, cap: Option<usize>) -> Vec<Cell> {
    let mut mix: Vec<Cell> = Benchmark::ALL
        .iter()
        .flat_map(|b| {
            Technique::ALL.into_iter().map(move |t| Cell {
                label: format!("{}/{}", b.name(), t.name()),
                body: format!(
                    "{{\"benchmark\":\"{}\",\"technique\":\"{}\",\"scale\":{scale}}}",
                    b.name(),
                    t.name()
                ),
            })
        })
        .collect();
    if let Some(cap) = cap {
        mix.truncate(cap.max(1));
    }
    mix
}

/// One captured-trace cell for the mix: the first `*.wgt1` under
/// `dir` (sorted by path), referenced by its header name. The label
/// uses the `trace:` prefix so `check_grid` can skip it.
fn trace_cell(dir: &std::path::Path, scale: f64) -> Option<Cell> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "wgt1"))
        .collect();
    paths.sort();
    for path in paths {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        let Ok(workload) = warped_trace::parse_bytes(&bytes) else {
            eprintln!("loadgen: skipping unparseable trace {}", path.display());
            continue;
        };
        let technique = Technique::WarpedGates;
        return Some(Cell {
            label: format!("trace:{}/{}", workload.name, technique.name()),
            body: format!(
                "{{\"trace_ref\":\"{}\",\"technique\":\"{}\",\"scale\":{scale}}}",
                workload.name,
                technique.name()
            ),
        });
    }
    None
}

/// Warm every cell through one streaming `/sweep`, returning each
/// cell's `cycles` by mix index (for `--check-grid`).
fn warm(addr: SocketAddr, mix: &[Cell]) -> Result<Vec<Option<u64>>, String> {
    let bodies: Vec<&str> = mix.iter().map(|c| c.body.as_str()).collect();
    let sweep = format!("{{\"cells\":[{}]}}", bodies.join(","));
    let mut cycles: Vec<Option<u64>> = vec![None; mix.len()];
    let mut bad = Vec::new();
    let mut client = Client::new(addr);
    let started = Instant::now();
    let status = client
        .post_stream_lines("/sweep", &sweep, |line| {
            let Ok(doc) = json::parse(line) else {
                bad.push(format!("unparseable sweep line: {line:.120}"));
                return;
            };
            let index = doc.get("index").and_then(json::JsonValue::as_u64);
            match (index, doc.get("report")) {
                (Some(i), Some(report)) if (i as usize) < mix.len() => {
                    cycles[i as usize] = report.get("cycles").and_then(json::JsonValue::as_u64);
                }
                _ => bad.push(format!("sweep cell failed: {line:.200}")),
            }
        })
        .map_err(|e| format!("sweep request failed: {e}"))?;
    if status != 200 {
        return Err(format!("sweep answered {status}"));
    }
    if let Some(first) = bad.first() {
        return Err(format!("{} bad sweep lines; first: {first}", bad.len()));
    }
    if let Some(missing) = cycles.iter().position(Option::is_none) {
        return Err(format!("sweep never answered cell {missing}"));
    }
    println!(
        "warm: {} cells swept in {:.2?}",
        mix.len(),
        started.elapsed()
    );
    Ok(cycles)
}

struct ModeStats {
    req_per_s: f64,
    p50: Duration,
    p99: Duration,
    connections: u64,
    reused: u64,
}

/// The measured phase: `connections` closed-loop clients splitting
/// `requests` over the mix. Returns `None` if any request failed.
fn run_mode(
    addr: SocketAddr,
    mix: &[Cell],
    connections: usize,
    requests: usize,
    keep_alive: bool,
) -> Option<ModeStats> {
    let per_thread = requests.div_ceil(connections);
    let barrier = Barrier::new(connections + 1);
    let results: Vec<Option<(Vec<Duration>, u64, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::new(addr).with_keep_alive(keep_alive);
                    let mut latencies = Vec::with_capacity(per_thread);
                    barrier.wait();
                    for i in 0..per_thread {
                        let cell = &mix[(t + i * connections) % mix.len()];
                        let started = Instant::now();
                        match client.post_json("/run", &cell.body) {
                            Ok(r) if r.status == 200 => latencies.push(started.elapsed()),
                            Ok(r) => {
                                eprintln!("loadgen: {} answered {}", cell.label, r.status);
                                return None;
                            }
                            Err(e) => {
                                eprintln!("loadgen: {} failed: {e}", cell.label);
                                return None;
                            }
                        }
                    }
                    Some((latencies, client.connected(), client.reused()))
                })
            })
            .collect();
        barrier.wait();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Closed-loop throughput: a connection's wall time is the sum of
    // its request latencies, so the run is paced by its slowest
    // thread. Deriving req/s from that (rather than timing around the
    // scope) keeps thread spawn/join cost off the server's bill.
    let mut latencies = Vec::new();
    let (mut connections_opened, mut reused) = (0u64, 0u64);
    let mut slowest_thread = Duration::ZERO;
    for result in results {
        let (thread_latencies, opened, reuse) = result?;
        slowest_thread = slowest_thread.max(thread_latencies.iter().sum());
        connections_opened += opened;
        reused += reuse;
        latencies.extend(thread_latencies);
    }
    let total = latencies.len();
    let wall = slowest_thread.max(Duration::from_nanos(1));
    Some(ModeStats {
        req_per_s: total as f64 / wall.as_secs_f64(),
        p50: percentile(&mut latencies, 0.50),
        p99: percentile(&mut latencies, 0.99),
        connections: connections_opened,
        reused,
    })
}

fn check_grid(path: &PathBuf, mix: &[Cell], cycles: &[Option<u64>]) -> Result<(), String> {
    let table = GridTable::load(path).map_err(|e| e.to_string())?;
    let mut mismatches = 0;
    for (cell, got) in mix.iter().zip(cycles) {
        // Trace cells live in bench_trace_grid.json, not the
        // synthetic grid — skip them here.
        if cell.label.starts_with("trace:") {
            continue;
        }
        let want = table.value(&cell.label, "cycles");
        let got = got.expect("warm() guarantees every cell answered");
        match want {
            Some(want) if want == got as f64 => {}
            Some(want) => {
                eprintln!(
                    "loadgen: {} cycles mismatch: grid {want}, served {got}",
                    cell.label
                );
                mismatches += 1;
            }
            None => {
                eprintln!("loadgen: {} not in {}", cell.label, path.display());
                mismatches += 1;
            }
        }
    }
    if mismatches > 0 {
        return Err(format!("{mismatches} cells disagree with the grid"));
    }
    println!(
        "check-grid: {} cells bit-identical to {}",
        mix.len(),
        path.display()
    );
    Ok(())
}

/// Cluster mode: sweep the mix through the resilient client (with an
/// optional seeded fault injection racing it), verify against the grid
/// when asked, and print the resilience counters.
fn run_cluster(args: &Args, peers: &[String], mix: &[Cell]) -> Result<(), String> {
    let cluster = Cluster::new(&ClusterConfig {
        peers: peers.to_vec(),
        self_addr: None,
        probe_interval: Some(Duration::from_millis(250)),
    })?;
    let node_count = cluster.nodes().len();
    let victims: Vec<SocketAddr> = (0..node_count).map(|i| cluster.addr(i)).collect();
    let client = ClusterClient::new(cluster, args.chaos.unwrap_or(0x10AD_BEEF));

    // The same mix, as routable cells (body + routing fingerprint).
    let cells: Vec<_> = Benchmark::ALL
        .iter()
        .flat_map(|b| {
            Technique::ALL
                .into_iter()
                .map(move |t| cell_for(*b, t, args.scale))
        })
        .take(mix.len())
        .collect();

    // Race the seeded fault against the sweep. The injector is its own
    // thread so the fault lands mid-sweep, like a real node death.
    let injector = args.chaos.map(|seed| {
        let plan = chaos_plan(seed, node_count);
        let victim = victims[plan.victim];
        println!(
            "chaos: seed {seed} -> {} on node {} after {:?}",
            plan.mode.name(),
            plan.victim,
            plan.after
        );
        std::thread::spawn(move || {
            std::thread::sleep(plan.after);
            let body = format!("{{\"mode\":\"{}\"}}", plan.mode.name());
            match warped_serve::client::post_json(victim, "/chaos", &body) {
                Ok(r) if r.status == 200 => println!("chaos: fault injected"),
                Ok(r) => eprintln!("chaos: victim answered {}", r.status),
                Err(e) => eprintln!("chaos: injection failed: {e}"),
            }
            victim
        })
    });

    let started = Instant::now();
    let sweep = client.sweep(&cells);
    // Clear the fault before judging the sweep, so a failure still
    // leaves the fleet healthy for shutdown.
    if let Some(handle) = injector {
        if let Ok(victim) = handle.join() {
            let _ = warped_serve::client::post_json(victim, "/chaos", "{\"mode\":\"none\"}");
        }
    }
    let results = sweep?;
    println!(
        "cluster sweep: {} cells in {:.2?} across {node_count} nodes",
        results.len(),
        started.elapsed()
    );

    if let Some(path) = &args.check_grid {
        let cycles: Vec<Option<u64>> = results
            .iter()
            .map(|bytes| {
                json::parse(String::from_utf8_lossy(bytes).trim_end())
                    .ok()
                    .and_then(|doc| doc.get("cycles").and_then(json::JsonValue::as_u64))
            })
            .collect();
        if let Some(missing) = cycles.iter().position(Option::is_none) {
            return Err(format!("cell {missing} returned an unparseable report"));
        }
        check_grid(path, mix, &cycles)?;
    }

    let counters = client.cluster().counters();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    println!(
        "cluster counters: retries={} hedged={} breaker_open={} peer_unhealthy={}",
        client.retries(),
        client.hedged_cells(),
        load(&counters.breaker_open),
        load(&counters.peer_unhealthy),
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => exit_usage(&e, USAGE),
    };
    if args.check_grid.is_some() && args.scale != 1.0 {
        eprintln!("loadgen: --check-grid needs --scale 1 (the grid's scale)");
        return ExitCode::FAILURE;
    }
    if args.chaos.is_some() && args.cluster.is_none() {
        eprintln!("loadgen: --chaos needs --cluster (the fleet to inject into)");
        return ExitCode::FAILURE;
    }
    if args.trace_dir.is_some() && args.cluster.is_some() {
        eprintln!("loadgen: --trace-dir is standalone-only (trace corpora are node-local)");
        return ExitCode::FAILURE;
    }
    if let Some(peers) = &args.cluster {
        let mix = cell_mix(args.scale, args.cells);
        println!(
            "loadgen: cluster mode, {} cells @ scale {} over {} peers",
            mix.len(),
            args.scale,
            peers.len()
        );
        return match run_cluster(&args, peers, &mix) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("loadgen: {message}");
                ExitCode::FAILURE
            }
        };
    }

    // A server to aim at: the given address, or an in-process one.
    let mut local = None;
    let addr = match &args.addr {
        Some(addr) => match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
            Some(addr) => addr,
            None => {
                eprintln!("loadgen: cannot resolve {addr}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut server_config = ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                ..ServerConfig::default()
            };
            // The in-process server loads the same corpus the mix
            // references; against --addr the remote server must have
            // been started with its own --trace-dir.
            server_config.service.trace_dir = args.trace_dir.clone();
            let handle = match spawn(server_config) {
                Ok(handle) => handle,
                Err(e) => {
                    eprintln!("loadgen: bind failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let addr = handle.addr();
            local = Some(handle);
            addr
        }
    };

    let mut mix = cell_mix(args.scale, args.cells);
    if let Some(dir) = &args.trace_dir {
        match trace_cell(dir, args.scale) {
            Some(cell) => mix.push(cell),
            None => {
                eprintln!("loadgen: no usable *.wgt1 trace under {}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "loadgen: {} cells @ scale {} against {addr} ({} connections, {} requests)",
        mix.len(),
        args.scale,
        args.connections,
        args.requests
    );

    let outcome = (|| -> Result<(), String> {
        let cycles = warm(addr, &mix)?;
        if let Some(path) = &args.check_grid {
            check_grid(path, &mix, &cycles)?;
        }

        let modes: &[(&str, bool)] = if args.no_keepalive {
            &[("per-request", false)]
        } else {
            &[("keep-alive", true), ("per-request", false)]
        };
        let mut rows = Vec::new();
        for (label, keep_alive) in modes {
            let stats = run_mode(addr, &mix, args.connections, args.requests, *keep_alive)
                .ok_or_else(|| format!("{label} run had failing requests"))?;
            println!(
                "{label:<12} {:>10.0} req/s   p50 {:>10.2?}   p99 {:>10.2?}   \
                 {} sockets, {} reused requests",
                stats.req_per_s, stats.p50, stats.p99, stats.connections, stats.reused
            );
            rows.push((
                (*label).to_owned(),
                vec![
                    stats.req_per_s,
                    stats.p50.as_secs_f64() * 1e3,
                    stats.p99.as_secs_f64() * 1e3,
                    stats.connections as f64,
                    stats.reused as f64,
                ],
            ));
        }
        write_json(
            &args.out,
            "bench serve",
            &[
                "req_per_s",
                "p50_ms",
                "p99_ms",
                "connections",
                "reused_requests",
            ],
            &rows,
        )
        .map_err(|e| format!("cannot write {}: {e}", args.out.display()))?;
        println!("wrote {}", args.out.join("bench_serve.json").display());
        Ok(())
    })();

    if let Some(mut handle) = local {
        handle.shutdown();
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}
