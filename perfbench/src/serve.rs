//! The `serve` workload: a fresh in-process `warped_serve::spawn`
//! server per pass (workers = cores, memory cache) driven the two ways
//! its real callers use it.
//!
//! * **Cold phase** — one streaming `POST /sweep` over the 108-cell mix
//!   at [`SCALE`]: every cell simulates and lands in the cache. Each
//!   line's `cycles` must equal a direct `Experiment::run` of the cell.
//! * **Hot phase** — a closed loop of one keep-alive `Client` per core
//!   posting `/run` over the same mix for [`HOT_SECONDS`]: parse,
//!   fingerprint, cache hit, respond, linger/reaper hand-off. Every
//!   body must be byte-identical to that cell's first `/run` response.
//!
//! The loop is closed because the repository's callers (`Client`,
//! `ClusterClient`) wait for each reply before sending the next. The
//! disk cache's write-behind is measured once per traced run
//! ([`disk_layer`]).

use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use warped_gates::fingerprint::cell_fingerprint;
use warped_gates::runner::{full_grid, run_grid_with, GridJob};
use warped_gates::{Experiment, RunReport};
use warped_serve::client::Client;
use warped_serve::json::{self, JsonValue};
use warped_serve::{http, spawn, ServerConfig, ServerHandle, ServiceConfig};
use warped_sim::parallel::par_map;

use crate::cells::{self, CellRun};
use crate::sim_workloads::{cell_layers, power_s, Layers};
use crate::spans::{now_ns, SpanLog};
use crate::stats::{median, percentile, permutation, Histogram};
use crate::{out_dir, parallelism, Args, Budget, Outcome};

/// Workload scale of every served cell, chosen so the cold phase
/// simulates for about 1.5 s on two cores.
pub const SCALE: f64 = 0.5;

/// Length of the hot phase of one pass.
const HOT_SECONDS: f64 = 2.0;

/// The hot phase runs as this many segments, each with fresh client
/// threads and connections. A segment's request rate and latency vary
/// widely even within one run, so throughput and the latency
/// percentiles aggregate over segments rather than one long average.
const HOT_SEGMENTS: usize = 8;

/// A hot request slower than this took the reaper hand-off (the
/// connection was parked after its burst and waited for a reap tick)
/// rather than the worker's fast path.
const HANDOFF_NS: u64 = 500_000;

/// Hot requests kept as spans per traced pass (the rest are counted).
const REQUEST_SPANS: usize = 10_000;

/// Server start-ups timed before the passes, on top of one per pass.
const SETUP_REPEATS: usize = 7;

/// Rounds of the in-process per-layer timings over the whole mix.
const MICRO_ROUNDS: usize = 20;

/// One cell of the mix.
struct Cell {
    label: String,
    body: String,
    job: GridJob,
}

fn mix() -> Vec<Cell> {
    full_grid()
        .into_iter()
        .map(|(spec, technique)| Cell {
            label: format!("{}/{}", spec.name, technique.name()),
            body: format!(
                "{{\"benchmark\":\"{}\",\"technique\":\"{}\",\"scale\":{SCALE}}}",
                spec.name,
                technique.name()
            ),
            job: (spec, technique),
        })
        .collect()
}

fn request_bytes(cell: &Cell) -> Vec<u8> {
    format!(
        "POST /run HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{}",
        cell.body.len(),
        cell.body
    )
    .into_bytes()
}

fn cycles_of(report: Option<&JsonValue>) -> Option<u64> {
    report?.get("cycles")?.as_u64()
}

/// What one pass measured.
struct PassStats {
    setup_s: f64,
    sweep_s: f64,
    wall_s: f64,
    /// Hot requests per second of each segment's wall time.
    segment_rps: Vec<f64>,
    /// Each segment's median and 99th-percentile latency, ns.
    segment_p50_ns: Vec<f64>,
    segment_p99_ns: Vec<f64>,
    /// Every hot request's latency, nanoseconds.
    latencies: Histogram,
    layers: Layers,
}

/// One hot client's results.
struct ClientRun {
    latencies: Histogram,
    requests: u64,
    reused: u64,
    /// Failed requests, and the reasons of the first few.
    failed: u64,
    failures: Vec<String>,
    /// (cell, start, end) of the first requests, traced passes only.
    spans: Vec<(usize, u64, u64)>,
}

struct Ctx<'a> {
    cells: &'a [Cell],
    reference: &'a [u64],
    order: Vec<usize>,
    workers: usize,
    traced: bool,
}

fn server(ctx: &Ctx<'_>, dir: Option<&PathBuf>) -> Result<ServerHandle, String> {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: ctx.workers,
        service: ServiceConfig {
            disk_dir: dir.cloned(),
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    };
    let handle = spawn(config).map_err(|e| format!("serve: bind failed: {e}"))?;
    match Client::new(handle.addr()).get("/healthz") {
        Ok(r) if r.status == 200 => Ok(handle),
        Ok(r) => Err(format!("serve: /healthz answered {}", r.status)),
        Err(e) => Err(format!("serve: /healthz failed: {e}")),
    }
}

/// The cold phase: one streaming `/sweep` in the seeded order.
fn cold(ctx: &Ctx<'_>, handle: &ServerHandle, out: &mut Outcome) -> f64 {
    let bodies: Vec<&str> = ctx
        .order
        .iter()
        .map(|&i| ctx.cells[i].body.as_str())
        .collect();
    let sweep = format!("{{\"cells\":[{}]}}", bodies.join(","));
    let mut seen = vec![false; ctx.cells.len()];
    let mut bad = Vec::new();
    let started = Instant::now();
    let status = Client::new(handle.addr()).post_stream_lines("/sweep", &sweep, |line| {
        let doc = json::parse(line).ok();
        let index = doc
            .as_ref()
            .and_then(|d| d.get("index"))
            .and_then(JsonValue::as_u64)
            .and_then(|k| ctx.order.get(k as usize).copied());
        match index {
            Some(i)
                if cycles_of(doc.as_ref().and_then(|d| d.get("report")))
                    == Some(ctx.reference[i]) =>
            {
                seen[i] = true;
            }
            Some(i) => {
                seen[i] = true;
                bad.push(format!(
                    "sweep {}: cycles differ from Experiment::run: {line:.200}",
                    ctx.cells[i].label
                ));
            }
            None => bad.push(format!("unreadable sweep line: {line:.200}")),
        }
    });
    let sweep_s = started.elapsed().as_secs_f64();
    out.attempted += ctx.cells.len() as u64;
    match status {
        Ok(200) => {}
        Ok(status) => bad.push(format!("/sweep answered {status}")),
        Err(e) => bad.push(format!("/sweep failed: {e}")),
    }
    for (i, seen) in seen.iter().enumerate() {
        if !seen {
            bad.push(format!("sweep never answered {}", ctx.cells[i].label));
        }
    }
    for b in bad.into_iter().take(ctx.cells.len()) {
        out.fail(b);
    }
    sweep_s
}

/// Every cell's first `/run` response, checked against the reference.
fn first_responses(ctx: &Ctx<'_>, handle: &ServerHandle, out: &mut Outcome) -> Vec<Vec<u8>> {
    let mut client = Client::new(handle.addr());
    let mut first = vec![Vec::new(); ctx.cells.len()];
    for &i in &ctx.order {
        out.attempted += 1;
        let cell = &ctx.cells[i];
        match client.post_json("/run", &cell.body) {
            Ok(r) if r.status == 200 => {
                let doc = json::parse(String::from_utf8_lossy(&r.body).trim_end()).ok();
                if cycles_of(doc.as_ref()) != Some(ctx.reference[i]) {
                    out.fail(format!(
                        "/run {}: cycles differ from Experiment::run",
                        cell.label
                    ));
                }
                first[i] = r.body;
            }
            Ok(r) => out.fail(format!("/run {} answered {}", cell.label, r.status)),
            Err(e) => out.fail(format!("/run {} failed: {e}", cell.label)),
        }
    }
    first
}

/// The hot phase: one closed-loop keep-alive client per core.
fn hot(ctx: &Ctx<'_>, handle: &ServerHandle, first: &[Vec<u8>]) -> (f64, Vec<ClientRun>) {
    let clients = ctx.workers;
    let barrier = Barrier::new(clients + 1);
    let addr = handle.addr();
    let n = ctx.order.len();
    let mut started = Instant::now();
    let runs = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut run = ClientRun {
                        latencies: Histogram::default(),
                        requests: 0,
                        reused: 0,
                        failed: 0,
                        failures: Vec::new(),
                        spans: Vec::new(),
                    };
                    barrier.wait();
                    let deadline =
                        Instant::now() + Duration::from_secs_f64(HOT_SECONDS / HOT_SEGMENTS as f64);
                    let mut k = t;
                    while Instant::now() < deadline {
                        let i = ctx.order[k % n];
                        k += clients;
                        let start = now_ns();
                        let response = client.post_json("/run", &ctx.cells[i].body);
                        let end = now_ns();
                        run.requests += 1;
                        let failure = match response {
                            Ok(r) if r.status == 200 && r.body == first[i] => {
                                run.latencies.record(end - start);
                                None
                            }
                            Ok(r) if r.status == 200 => {
                                Some("body differs from its first response".to_owned())
                            }
                            Ok(r) => Some(format!("answered {}", r.status)),
                            Err(e) => Some(format!("failed: {e}")),
                        };
                        if let Some(why) = failure {
                            run.failed += 1;
                            if run.failures.len() < 20 {
                                run.failures
                                    .push(format!("/run {}: {why}", ctx.cells[i].label));
                            }
                        }
                        if ctx.traced && run.spans.len() < REQUEST_SPANS / clients / HOT_SEGMENTS {
                            run.spans.push((i, start, end));
                        }
                    }
                    run.reused = client.reused();
                    run
                })
            })
            .collect();
        barrier.wait();
        started = Instant::now();
        threads
            .into_iter()
            .map(|h| h.join().expect("a hot client panicked"))
            .collect::<Vec<_>>()
    });
    (started.elapsed().as_secs_f64(), runs)
}

/// Mean microseconds per call of `f` over `MICRO_ROUNDS` rounds of
/// the mix.
fn micro_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for _ in 0..MICRO_ROUNDS {
        for i in 0..n {
            f(i);
        }
    }
    started.elapsed().as_secs_f64() * 1e6 / (MICRO_ROUNDS * n) as f64
}

fn scrape(handle: &ServerHandle, name: &str) -> f64 {
    let page = Client::new(handle.addr())
        .get("/metrics")
        .map(|r| r.text())
        .unwrap_or_default();
    page.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
        .unwrap_or(0.0)
}

/// In-process per-layer timings against the warm server, plus the
/// counters scraped from `/metrics`.
fn serve_layers(ctx: &Ctx<'_>, handle: &ServerHandle, hot_p50_us: f64, layers: &mut Layers) {
    let hits = scrape(handle, "warped_serve_cache_hits_total");
    let misses = scrape(handle, "warped_serve_cache_misses_total");
    layers.insert("serve.hit_ratio", hits / (hits + misses).max(1.0));
    layers.insert(
        "serve.simulations",
        scrape(handle, "warped_serve_simulations_total"),
    );
    let service = handle.service();
    let n = ctx.cells.len();
    let raw: Vec<Vec<u8>> = ctx.cells.iter().map(request_bytes).collect();
    let requests: Vec<http::Request> = raw
        .iter()
        .map(|b| {
            http::read_request(&mut b.as_slice())
                .ok()
                .flatten()
                .expect("a well-formed request")
        })
        .collect();
    let exp = Experiment::paper_defaults().with_scale(SCALE);
    layers.insert(
        "serve.read_request_us",
        micro_us(n, |i| {
            std::hint::black_box(http::read_request(&mut raw[i].as_slice()).ok());
        }),
    );
    layers.insert(
        "serve.json_parse_us",
        micro_us(n, |i| {
            std::hint::black_box(json::parse(&ctx.cells[i].body).ok());
        }),
    );
    layers.insert(
        "serve.fingerprint_us",
        micro_us(n, |i| {
            let (spec, technique) = &ctx.cells[i].job;
            std::hint::black_box(cell_fingerprint(&exp, spec, *technique));
        }),
    );
    let mut sink = Vec::with_capacity(4096);
    let mut handle_ns = Vec::with_capacity(MICRO_ROUNDS * n);
    for _ in 0..MICRO_ROUNDS {
        for req in &requests {
            sink.clear();
            let started = Instant::now();
            let handled = service.handle(req, &mut sink, true);
            handle_ns.push(started.elapsed().as_nanos() as u64);
            std::hint::black_box(handled.ok());
        }
    }
    let handle_p50_us = percentile(&mut handle_ns, 0.5) as f64 * 1e-3;
    layers.insert("serve.handle_us", handle_p50_us);
    layers.insert("serve.transport_us", hot_p50_us - handle_p50_us);
}

/// The disk layer, measured once per traced run: a cold `/sweep`
/// against a server whose disk cache lives in a fresh directory, then
/// the wait for its write-behind and the entries it wrote. The timed
/// passes run memory-only, because each disk-backed pass leaves 108
/// fsynced entries behind: deleting them takes seconds on a
/// discard-mounted disk, and that kernel work slowed and scattered the
/// passes after it.
fn disk_layer(ctx: &Ctx<'_>, out: &mut Outcome, layers: &mut Layers) -> Result<(), String> {
    let dir = out_dir().join(format!("serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut handle = server(ctx, Some(&dir))?;
    layers.insert("serve.disk_sweep_s", cold(ctx, &handle, out));
    if let Some(disk) = &handle.service().disk {
        let started = Instant::now();
        disk.flush();
        layers.insert("serve.disk_flush_s", started.elapsed().as_secs_f64());
        layers.insert("serve.disk_writes", disk.len() as f64);
    }
    handle.shutdown();
    drop(handle);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))
}

/// Seconds from `spawn` to a served `/healthz`, on a fresh server.
fn setup_once(ctx: &Ctx<'_>) -> Result<f64, String> {
    let started = Instant::now();
    let mut handle = server(ctx, None)?;
    let setup_s = started.elapsed().as_secs_f64();
    handle.shutdown();
    Ok(setup_s)
}

fn pass(ctx: &Ctx<'_>, out: &mut Outcome) -> Result<PassStats, String> {
    let t0 = now_ns();
    let mut handle = server(ctx, None)?;
    let t1 = now_ns();
    let sweep_s = cold(ctx, &handle, out);
    let t3 = now_ns();
    let first = first_responses(ctx, &handle, out);
    let t4 = now_ns();
    let mut clients = Vec::new();
    let (mut segment_rps, mut segment_p50_ns, mut segment_p99_ns) =
        (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..HOT_SEGMENTS {
        let (segment_s, segment) = hot(ctx, &handle, &first);
        let requests: u64 = segment.iter().map(|c| c.requests).sum();
        segment_rps.push(requests as f64 / segment_s);
        let mut latencies = Histogram::default();
        for c in &segment {
            latencies.merge(&c.latencies);
        }
        if latencies.len() > 0 {
            segment_p50_ns.push(latencies.quantile(0.5));
            segment_p99_ns.push(latencies.quantile(0.99));
        }
        clients.extend(segment);
    }
    let t5 = now_ns();
    let secs = |a: u64, b: u64| (b - a) as f64 * 1e-9;

    let mut latencies = Histogram::default();
    let (mut requests, mut reused) = (0u64, 0u64);
    for c in &clients {
        latencies.merge(&c.latencies);
        requests += c.requests;
        reused += c.reused;
        out.attempted += c.requests;
        for f in &c.failures {
            out.fail(f.clone());
        }
        out.failed += c.failed - c.failures.len() as u64;
    }
    let mut stats = PassStats {
        setup_s: secs(t0, t1),
        sweep_s,
        wall_s: secs(t0, t5),
        segment_rps,
        segment_p50_ns,
        segment_p99_ns,
        latencies,
        layers: Layers::new(),
    };
    if ctx.traced {
        let layers = &mut stats.layers;
        layers.insert("serve.reuse_ratio", reused as f64 / requests.max(1) as f64);
        let t6 = now_ns();
        let hot = &stats.latencies;
        if hot.len() > 0 {
            layers.insert("serve.p999_ms", hot.quantile(0.999) * 1e-6);
            layers.insert("serve.handoff_share", hot.share_from(HANDOFF_NS));
            serve_layers(ctx, &handle, hot.quantile(0.5) * 1e-3, layers);
        }
        let log: &mut SpanLog = &mut out.spans;
        let root = log.push(0, "pass", "serve", t0, now_ns(), vec![]);
        log.push(root, "serve.setup", "spawn+healthz", t0, t1, vec![]);
        log.push(root, "serve.cold", "/sweep", t1, t3, vec![]);
        log.push(root, "serve.first", "/run per cell", t3, t4, vec![]);
        let hot_span = log.push(
            root,
            "serve.hot",
            "closed loop",
            t4,
            t5,
            vec![("requests", requests as f64)],
        );
        for (t, c) in clients.iter().enumerate() {
            for &(i, a, b) in &c.spans {
                let label = format!("client{t} {}", ctx.cells[i].label);
                log.push(hot_span, "serve.request", label, a, b, vec![]);
            }
        }
        log.push(
            root,
            "serve.micro",
            "in-process layers",
            t6,
            now_ns(),
            vec![],
        );
    }
    drop(clients);
    handle.shutdown();
    Ok(stats)
}

/// The reference outputs: every cell run directly at [`SCALE`]. In a
/// traced run the cells also go through the decorators once, for the
/// simulator-side layers at this scale.
fn reference(
    cells: &[Cell],
    workers: usize,
    traced: bool,
    layers: &mut Layers,
) -> (Vec<u64>, cells::Model) {
    let exp = Experiment::paper_defaults().with_scale(SCALE);
    let jobs: Vec<GridJob> = cells.iter().map(|c| c.job.clone()).collect();
    let started = Instant::now();
    let runs = run_grid_with(&exp, &jobs, workers);
    layers.insert("serve.sim_s", started.elapsed().as_secs_f64());
    let reports: Vec<&RunReport> = runs.iter().map(|r| &r.report).collect();
    if traced {
        let started = Instant::now();
        let decorated: Vec<(CellRun, f64)> = par_map(jobs.len(), workers, |i| {
            let cell = Instant::now();
            let run = cells::run_spec(&exp, &jobs[i].0, jobs[i].1);
            (run, cell.elapsed().as_secs_f64())
        });
        let wall = started.elapsed().as_secs_f64();
        cell_layers(
            &decorated.iter().map(|(c, _)| c).collect::<Vec<_>>(),
            layers,
        );
        let busy: f64 = decorated.iter().map(|(_, s)| s).sum();
        layers.insert(
            "runner.idle_s",
            wall * workers.min(jobs.len()) as f64 - busy,
        );
        layers.insert("power.energy_s", power_s(&reports));
    }
    (
        reports.iter().map(|r| r.cycles).collect(),
        cells::model(&reports),
    )
}

/// Runs the serve workload for the budget and reports its metrics.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let workers = parallelism();
    let cells = mix();
    let mut ref_layers = Layers::new();
    let (reference, model) = reference(&cells, workers, args.trace, &mut ref_layers);
    let mut ctx = Ctx {
        cells: &cells,
        reference: &reference,
        order: permutation(cells.len(), args.seed, 0),
        workers,
        traced: false,
    };
    let mut setup_s = (0..SETUP_REPEATS)
        .map(|_| setup_once(&ctx))
        .collect::<Result<Vec<_>, _>>()?;

    let budget = Budget::new(args.seconds);
    let mut rounds = Vec::new();
    let mut plain: Vec<PassStats> = Vec::new();
    let mut traced: Vec<PassStats> = Vec::new();
    while budget.another(&rounds) {
        let started = Instant::now();
        ctx.order = permutation(cells.len(), args.seed, rounds.len());
        ctx.traced = false;
        let p = pass(&ctx, &mut out)?;
        setup_s.push(p.setup_s);
        plain.push(p);
        if args.trace {
            ctx.traced = true;
            traced.push(pass(&ctx, &mut out)?);
        }
        rounds.push(started.elapsed().as_secs_f64());
    }
    if args.trace {
        disk_layer(&ctx, &mut out, &mut ref_layers)?;
    }

    let med =
        |v: &[PassStats], f: fn(&PassStats) -> f64| median(&v.iter().map(f).collect::<Vec<_>>());
    let samples: u64 = plain.iter().map(|p| p.latencies.len()).sum();
    let m = &mut out.metrics;
    if args.trace {
        for (name, _) in crate::PER_LAYER {
            if let Some(v) = ref_layers.get(name) {
                m.insert(name, *v);
            }
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|p| p.layers.get(name).copied())
                .collect();
            if !values.is_empty() {
                m.insert(name, median(&values));
            }
        }
        // The hot phase runs for a fixed time, so tracing shows as
        // lost throughput rather than longer passes.
        let mean_rps = |v: &[PassStats]| {
            let all: Vec<f64> = v
                .iter()
                .flat_map(|p| p.segment_rps.iter().copied())
                .collect();
            all.iter().sum::<f64>() / all.len().max(1) as f64
        };
        m.insert(
            "tracing.overhead_pct",
            100.0 * (mean_rps(&plain) / mean_rps(&traced) - 1.0),
        );
    } else if samples > 0 {
        let segments = |f: fn(&PassStats) -> &Vec<f64>| -> Vec<f64> {
            plain.iter().flat_map(|p| f(p).iter().copied()).collect()
        };
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
        m.insert("setup_s", median(&setup_s));
        m.insert("wall_s", med(&plain, |p| p.wall_s));
        m.insert("sweep_s", med(&plain, |p| p.sweep_s));
        m.insert("rps", mean(segments(|p| &p.segment_rps)));
        m.insert("p50_ms", mean(segments(|p| &p.segment_p50_ns)) * 1e-6);
        // A segment whose hand-off share passes 1% reads about 1 ms at
        // p99; one such segment would move a mean by ~15 µs, so p99
        // takes the median segment.
        m.insert("p99_ms", median(&segments(|p| &p.segment_p99_ns)) * 1e-6);
        m.insert("int_savings_pct", model.int_savings_pct);
        m.insert("fp_savings_pct", model.fp_savings_pct);
        m.insert("perf_loss_pct", model.perf_loss_pct);
    }
    out.context.push(("workers", workers.to_string()));
    out.context.push(("connections", workers.to_string()));
    out.context.push(("scale", SCALE.to_string()));
    out.context.push(("passes", plain.len().to_string()));
    out.context
        .push(("traced_passes", traced.len().to_string()));
    out.context
        .push(("hot_seconds_per_pass", HOT_SECONDS.to_string()));
    out.context
        .push(("hot_segments_per_pass", HOT_SEGMENTS.to_string()));
    out.context.push(("latency_samples", samples.to_string()));
    Ok(out)
}
