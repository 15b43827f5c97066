//! Request routing and the typed endpoints.
//!
//! The [`Service`] is transport-agnostic: it takes a parsed
//! [`Request`] and a byte sink, so the same code path serves a real
//! TCP connection, the in-process [`client`](crate::client), and the
//! unit tests below (which run against plain `Vec<u8>` sinks, no
//! sockets).
//!
//! Endpoints:
//!
//! * `GET /healthz` — liveness probe, `ok\n`.
//! * `GET /metrics` — counter exposition (see [`crate::metrics`]).
//! * `POST /run` — run one benchmark × technique cell; the response is
//!   the canonical report JSON, content-addressed by
//!   [`cell_fingerprint`] and served through the single-flight cache.
//! * `POST /sweep` — a batch of cells (`{"cells":[...]}` or a bare
//!   array); every cell goes through the same single-flight cache and
//!   results stream back as chunked JSONL in **completion order**, so
//!   overlapping batches dedupe work and the client sees the first
//!   result before the last cell has even started.
//! * `GET /grid` — the committed `bench_grid.json`
//!   (`?regenerate=1&scale=<f>` re-sweeps it first).
//! * `GET /trace?cell=<i>` — replay one grid cell with telemetry and
//!   stream its Perfetto trace (`&format=rollup` for per-epoch JSONL)
//!   with chunked transfer encoding.
//! * `POST /shutdown` — graceful stop; in-flight work drains first.
//!
//! Result lookups go memory cache → disk cache → simulate: when
//! [`ServiceConfig::disk_dir`] is set, every fresh result is persisted
//! write-behind by [`crate::disk::DiskCache`], so a restart comes up
//! warm and a completed sweep serves the whole grid with zero
//! simulations.
//!
//! Fault isolation: `/run` simulations execute under `catch_unwind`
//! with the configured wall-clock watchdog, so a panicking or hung
//! cell answers `500` with a typed error body and the server lives on.
//! Every error answer, here and in the transport, is a typed `Fail`
//! rendered by one function.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use warped_bench::grid::GridTable;
use warped_bench::sweep::{self, SweepConfig};
use warped_gates::fingerprint::{cell_fingerprint, trace_cell_fingerprint};
use warped_gates::{runner, Experiment, Technique, TechniqueRun};
use warped_gating::GatingParams;
use warped_isa::UnitType;
use warped_sim::parallel::{panic_message, worker_count};
use warped_telemetry::{perfetto, rollup, Recorder, RecorderConfig};
use warped_trace::TraceWorkload;
use warped_workloads::Benchmark;

use crate::cache::{Outcome, ResultCache};
use crate::cluster::{ChaosMode, Cluster, ClusterConfig, FORWARDED_HEADER};
use crate::disk::DiskCache;
use crate::http::{write_response, write_response_with, ChunkedWriter, Request};
use crate::json::{self, JsonValue};
use crate::metrics::Metrics;

/// Everything the service needs to know, transport aside.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Where `bench_grid.json` lives (served by `/grid`).
    pub grid_path: PathBuf,
    /// Byte budget for the result cache.
    pub cache_bytes: usize,
    /// Wall-clock watchdog per `/run` simulation.
    pub job_timeout: Option<Duration>,
    /// Workload scale for `/trace` replays (full-scale traces are
    /// hundreds of MB; the default keeps a stream interactive).
    pub trace_scale: f64,
    /// Root directory for the persistent warm cache; `None` keeps the
    /// cache memory-only.
    pub disk_dir: Option<PathBuf>,
    /// Byte budget for the on-disk cache.
    pub disk_cache_bytes: u64,
    /// Hard cap on cells per `/sweep` batch.
    pub max_sweep_cells: usize,
    /// Cluster membership; `None` runs a standalone node.
    pub cluster: Option<ClusterConfig>,
    /// Directory of captured `*.wgt1` workload traces served under
    /// `trace_ref` cell references; `None` disables the corpus.
    pub trace_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            grid_path: PathBuf::from("results/bench_grid.json"),
            cache_bytes: 64 << 20,
            job_timeout: Some(Duration::from_secs(600)),
            trace_scale: 0.1,
            disk_dir: None,
            disk_cache_bytes: 256 << 20,
            max_sweep_cells: 4096,
            cluster: None,
            trace_dir: None,
        }
    }
}

/// What the connection loop should do after a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handled {
    /// Close the connection, keep serving.
    Normal,
    /// The client asked the server to stop.
    ShutdownRequested,
}

/// The routing core. Share behind an `Arc`; every method takes `&self`.
#[derive(Debug)]
pub struct Service {
    config: ServiceConfig,
    /// The content-addressed result cache.
    pub(crate) cache: ResultCache<Fail>,
    /// The persistent warm cache, when [`ServiceConfig::disk_dir`] is
    /// set and the directory opened cleanly.
    pub disk: Option<DiskCache>,
    /// Service counters.
    pub metrics: Metrics,
    /// Serialises `/grid?regenerate=1` sweeps (they share an out-dir).
    regen: Mutex<()>,
    /// The cluster view when cluster mode is armed (set once, either
    /// from the config or via [`Service::arm_cluster`]).
    cluster: OnceLock<Cluster>,
    /// The injected fault mode (a [`ChaosMode`] as its wire byte).
    chaos: AtomicU8,
    /// The captured-trace corpus, keyed by each trace's *header* name
    /// (not its file name) — loaded once at startup.
    traces: BTreeMap<String, Arc<TraceWorkload>>,
}

const JSON: &str = "application/json";

/// A request that failed, answered in-band with a typed error body
/// `{"error":{"kind":...,"message":...}}`. It is the one source of
/// error bytes: endpoint failures, `/sweep` error lines, the shed `503`
/// and the transport's framing errors all render through it.
#[derive(Debug, Clone)]
pub(crate) struct Fail {
    status: u16,
    kind: &'static str,
    message: String,
}

impl Fail {
    pub(crate) fn new(status: u16, kind: &'static str, message: impl Into<String>) -> Self {
        Fail {
            status,
            kind,
            message: message.into(),
        }
    }

    fn bad_request(message: impl Into<String>) -> Self {
        Fail::new(400, "bad_request", message)
    }

    /// The error object, `{"kind":...,"message":...}`.
    fn object(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"message\":\"{}\"}}",
            json::escape(self.kind),
            json::escape(&self.message)
        )
    }

    /// Counts the status and writes the whole response, with any
    /// `extra_headers` after the standard ones.
    pub(crate) fn answer(
        &self,
        metrics: &Metrics,
        out: &mut (impl Write + ?Sized),
        extra_headers: &[(&str, &str)],
        keep_alive: bool,
    ) -> io::Result<()> {
        metrics.count_status(self.status);
        let body = format!("{{\"error\":{}}}\n", self.object());
        write_response_with(
            out,
            self.status,
            JSON,
            extra_headers,
            body.as_bytes(),
            keep_alive,
        )
    }
}

/// What a successful endpoint answers.
enum Reply {
    /// A fixed-length `200` body of the given content type.
    Body(&'static str, Cow<'static, [u8]>),
    /// A cell report, shared with the cache.
    Report(Arc<Vec<u8>>),
    /// The endpoint streamed a chunked `200` itself; this is how the
    /// stream ended.
    Streamed(io::Result<()>),
    /// `POST /shutdown` was accepted.
    Shutdown,
}

/// A workload scale: a number in (0,1]. `None` is a value that is not
/// a number at all.
fn unit_scale(scale: Option<f64>) -> Result<f64, Fail> {
    scale
        .filter(|s| *s > 0.0 && *s <= 1.0)
        .ok_or_else(|| Fail::bad_request("\"scale\" must be a number in (0,1]"))
}

/// Parses a UTF-8 JSON request body.
fn parse_body(body: &[u8]) -> Result<JsonValue, Fail> {
    let text = std::str::from_utf8(body).map_err(|_| Fail::bad_request("body is not UTF-8"))?;
    json::parse(text).map_err(|e| Fail::bad_request(e.to_string()))
}

/// Case/space/dash/underscore-insensitive technique lookup, so
/// `warped-gates`, `Warped Gates`, and `WARPED_GATES` all resolve.
fn technique_from_name(name: &str) -> Option<Technique> {
    let slug = |s: &str| -> String {
        s.chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect()
    };
    let wanted = slug(name);
    Technique::ALL
        .into_iter()
        .find(|t| slug(t.name()) == wanted || slug(&format!("{t:?}")) == wanted)
}

/// What a cell simulates: a synthetic benchmark from the catalog, or
/// a captured WGT1 trace named by its header (resolved against the
/// corpus loaded at startup *before* any work begins, so an unknown
/// name is a 400, not a mid-batch fault).
#[derive(Debug, Clone, PartialEq, Eq)]
enum WorkloadRef {
    Benchmark(Benchmark),
    Trace(String),
}

/// A validated `/run` request.
struct RunRequest {
    workload: WorkloadRef,
    technique: Technique,
    scale: f64,
    params: GatingParams,
    /// Arm the cycle-accurate L1/L2 hierarchy (default geometry)
    /// instead of the flat latency model.
    hierarchy: bool,
}

impl RunRequest {
    /// Parses and validates a request body. Unknown keys are rejected
    /// so a typo cannot silently fall back to a default.
    fn parse(body: &[u8]) -> Result<RunRequest, Fail> {
        RunRequest::from_value(&parse_body(body)?)
    }

    /// Validates one already-parsed cell object (`/sweep` reuses this
    /// per array element).
    fn from_value(doc: &JsonValue) -> Result<RunRequest, Fail> {
        for key in doc.keys() {
            if !matches!(
                key,
                "benchmark"
                    | "trace_ref"
                    | "technique"
                    | "scale"
                    | "idle_detect"
                    | "bet"
                    | "wakeup_delay"
                    | "hierarchy"
            ) {
                return Err(Fail::bad_request(format!("unknown field \"{key}\"")));
            }
        }
        let str_field = |name: &str| -> Result<&str, Fail> {
            doc.get(name)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| Fail::bad_request(format!("missing or non-string field \"{name}\"")))
        };
        let workload = match (doc.get("benchmark"), doc.get("trace_ref")) {
            (Some(_), Some(_)) => {
                return Err(Fail::bad_request(
                    "\"benchmark\" and \"trace_ref\" are mutually exclusive — name one workload",
                ));
            }
            (None, None) => {
                return Err(Fail::bad_request(
                    "missing or non-string field \"benchmark\" or \"trace_ref\"",
                ));
            }
            (Some(_), None) => {
                let benchmark_name = str_field("benchmark")?;
                WorkloadRef::Benchmark(Benchmark::from_name(benchmark_name).ok_or_else(|| {
                    Fail::bad_request(format!("unknown benchmark \"{benchmark_name}\""))
                })?)
            }
            (None, Some(_)) => WorkloadRef::Trace(str_field("trace_ref")?.to_owned()),
        };
        let technique_name = str_field("technique")?;
        let technique = technique_from_name(technique_name)
            .ok_or_else(|| Fail::bad_request(format!("unknown technique \"{technique_name}\"")))?;
        let scale = doc
            .get("scale")
            .map_or(Ok(1.0), |v| unit_scale(v.as_f64()))?;
        let mut params = GatingParams::default();
        for (name, slot) in [
            ("idle_detect", &mut params.idle_detect as &mut u32),
            ("bet", &mut params.bet),
            ("wakeup_delay", &mut params.wakeup_delay),
        ] {
            if let Some(v) = doc.get(name) {
                *slot = v
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| {
                        Fail::bad_request(format!("\"{name}\" must be a non-negative integer"))
                    })?;
            }
        }
        let hierarchy = match doc.get("hierarchy") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| Fail::bad_request("\"hierarchy\" must be true or false"))?,
        };
        // Deliberately NOT validated here: out-of-range gating
        // parameters (e.g. bet = 0) panic inside the experiment and
        // exercise the 500 fault-isolation path, like any other cell
        // crash.
        Ok(RunRequest {
            workload,
            technique,
            scale,
            params,
            hierarchy,
        })
    }

    /// The workload half of a cell's JSON identity:
    /// `"benchmark":"nw"` or `"trace_ref":"nw"`.
    fn workload_json(&self) -> String {
        match &self.workload {
            WorkloadRef::Benchmark(b) => format!("\"benchmark\":\"{}\"", json::escape(b.name())),
            WorkloadRef::Trace(name) => format!("\"trace_ref\":\"{}\"", json::escape(name)),
        }
    }

    /// The canonical `/run` body for this cell — what a peer forward
    /// sends, so the owner parses back an identical request (and hence
    /// computes the identical fingerprint and bytes).
    fn to_body(&self) -> String {
        format!(
            "{{{},\"technique\":\"{}\",\"scale\":{},\
             \"idle_detect\":{},\"bet\":{},\"wakeup_delay\":{},\"hierarchy\":{}}}",
            self.workload_json(),
            json::escape(self.technique.name()),
            self.scale,
            self.params.idle_detect,
            self.params.bet,
            self.params.wakeup_delay,
            self.hierarchy,
        )
    }
}

/// Parses a `/sweep` body into validated cells. Accepts a bare array
/// or `{"cells":[...]}`; every element must be a valid `/run` body,
/// and the batch must be non-empty and under the configured cap.
fn parse_sweep_cells(body: &[u8], max_cells: usize) -> Result<Vec<RunRequest>, Fail> {
    let doc = parse_body(body)?;
    let items = match &doc {
        JsonValue::Arr(items) => items,
        JsonValue::Obj(_) => {
            if let Some(key) = doc.keys().iter().find(|k| **k != "cells") {
                return Err(Fail::bad_request(format!("unknown field \"{key}\"")));
            }
            match doc.get("cells") {
                Some(JsonValue::Arr(items)) => items,
                _ => return Err(Fail::bad_request("missing or non-array field \"cells\"")),
            }
        }
        _ => {
            return Err(Fail::bad_request(
                "expected an array of cells or {\"cells\":[...]}",
            ))
        }
    };
    if items.is_empty() {
        return Err(Fail::bad_request("sweep needs at least one cell"));
    }
    if items.len() > max_cells {
        return Err(Fail::bad_request(format!(
            "too many cells ({} > the {max_cells} cap)",
            items.len()
        )));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, v)| {
            RunRequest::from_value(v)
                .map_err(|e| Fail::bad_request(format!("cells[{i}]: {}", e.message)))
        })
        .collect()
}

/// Renders the canonical report JSON for one completed run. Field
/// order is fixed and floats use fixed precision, so the bytes are a
/// pure function of the run — the property the content-addressed cache
/// keys on.
fn render_run(req: &RunRequest, fingerprint: u64, run: &TechniqueRun) -> Vec<u8> {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "{{{},\"technique\":\"{}\",\"scale\":{},\
         \"params\":{{\"idle_detect\":{},\"bet\":{},\"wakeup_delay\":{}}},\
         \"fingerprint\":\"{fingerprint:016x}\",\
         \"cycles\":{},\"ff_cycles\":{},\"timed_out\":{},\
         \"instructions\":{},\"ipc\":{:.6},\"gating\":{{",
        req.workload_json(),
        json::escape(req.technique.name()),
        req.scale,
        req.params.idle_detect,
        req.params.bet,
        req.params.wakeup_delay,
        run.cycles,
        run.stats.fast_forwarded_cycles,
        run.timed_out,
        run.stats.instructions(),
        run.stats.ipc(),
    ));
    for (i, unit) in [UnitType::Int, UnitType::Fp, UnitType::Sfu, UnitType::Ldst]
        .into_iter()
        .enumerate()
    {
        let g = run.gating_of(unit);
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{unit}\":{{\"gate_events\":{},\"wakeups\":{},\"critical_wakeups\":{},\
             \"gated_cycles\":{},\"compensated_cycles\":{},\"uncompensated_cycles\":{},\
             \"wakeup_cycles\":{},\"premature_wakeups\":{},\"demand_blocked_cycles\":{}}}",
            g.gate_events,
            g.wakeups,
            g.critical_wakeups,
            g.gated_cycles,
            g.compensated_cycles,
            g.uncompensated_cycles,
            g.wakeup_cycles,
            g.premature_wakeups,
            g.demand_blocked_cycles,
        ));
    }
    out.push('}');
    // The memory block appears only for hierarchy-armed runs, so flat
    // (default) reports stay byte-identical to what they always were.
    let mem = &run.stats.mem;
    if mem.hierarchy {
        out.push_str(&format!(
            ",\"memory\":{{\"accesses\":{},\"l1_hits\":{},\"l1_misses\":{},\
             \"mshr_merges\":{},\"fills\":{},\"l2_accesses\":{},\"l2_misses\":{},\
             \"mshr_peak\":{},\"stores\":{}}}",
            mem.accesses,
            mem.l1_hits,
            mem.l1_misses,
            mem.mshr_merges,
            mem.fills,
            mem.l2_accesses,
            mem.l2_misses,
            mem.mshr_peak,
            mem.stores,
        ));
    }
    out.push_str("}\n");
    out.into_bytes()
}

/// Loads every `*.wgt1` file under `dir`, keyed by each trace's
/// header name. A file that fails to read or parse is skipped (and
/// counted in `trace_parse_errors`) rather than refusing startup —
/// the same degradation policy as a broken disk-cache directory.
fn load_traces(dir: &Path, metrics: &Metrics) -> BTreeMap<String, Arc<TraceWorkload>> {
    let mut traces = BTreeMap::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!(
                "warped-serve: trace corpus at {} disabled: {e}",
                dir.display()
            );
            return traces;
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "wgt1"))
        .collect();
    paths.sort();
    for path in paths {
        let parsed = std::fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| warped_trace::parse_bytes(&bytes).map_err(|e| e.to_string()));
        match parsed {
            Ok(workload) => {
                metrics.traces_loaded.fetch_add(1, Ordering::Relaxed);
                traces.insert(workload.name.clone(), Arc::new(workload));
            }
            Err(e) => {
                metrics.trace_parse_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("warped-serve: skipping trace {}: {e}", path.display());
            }
        }
    }
    traces
}

impl Service {
    /// A service over the given configuration.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        // Shard count scales with the worker pool: enough that
        // concurrent distinct cells rarely contend on one lock.
        let shards = (worker_count() * 2).next_power_of_two();
        // A broken cache directory degrades to memory-only service
        // rather than refusing to start.
        let disk = config.disk_dir.as_ref().and_then(|root| {
            DiskCache::open(root, config.disk_cache_bytes)
                .map_err(|e| {
                    eprintln!(
                        "warped-serve: disk cache at {} disabled: {e}",
                        root.display()
                    );
                })
                .ok()
        });
        let metrics = Metrics::default();
        let traces = config
            .trace_dir
            .as_deref()
            .map_or_else(BTreeMap::new, |dir| load_traces(dir, &metrics));
        let service = Service {
            cache: ResultCache::new(shards, config.cache_bytes),
            disk,
            metrics,
            regen: Mutex::new(()),
            cluster: OnceLock::new(),
            chaos: AtomicU8::new(0),
            traces,
            config,
        };
        // Like the disk cache: a broken cluster config degrades to a
        // standalone node rather than refusing to start.
        if let Some(cluster_config) = &service.config.cluster {
            match Cluster::new(cluster_config) {
                Ok(cluster) => service.arm_cluster(cluster),
                Err(e) => eprintln!("warped-serve: cluster mode disabled: {e}"),
            }
        }
        service
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Arms cluster mode after construction (tests bind ephemeral
    /// ports, so membership is only known post-spawn). A second call
    /// is ignored — the first cluster view wins.
    pub fn arm_cluster(&self, cluster: Cluster) {
        let _ = self.cluster.set(cluster);
    }

    /// The cluster view, when armed.
    #[must_use]
    pub fn cluster(&self) -> Option<&Cluster> {
        self.cluster.get()
    }

    /// Sets the injected fault mode (`POST /chaos` calls this; tests
    /// may call it directly).
    pub fn set_chaos(&self, mode: ChaosMode) {
        self.chaos.store(mode.as_u8(), Ordering::SeqCst);
    }

    /// The fault mode currently injected.
    #[must_use]
    pub fn chaos_mode(&self) -> ChaosMode {
        ChaosMode::from_u8(self.chaos.load(Ordering::SeqCst))
    }

    /// Routes one request and writes the complete response.
    ///
    /// `keep_alive` is what the response promises the client in its
    /// `Connection` header — the transport decides it (client wish ∧
    /// server policy) and must honor the same verdict after writing.
    ///
    /// # Errors
    ///
    /// Returns transport errors only; application-level trouble is
    /// answered in-band with a typed error body.
    pub fn handle(
        &self,
        req: &Request,
        out: &mut dyn Write,
        keep_alive: bool,
    ) -> io::Result<Handled> {
        self.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let reply = match self
            .injected_fault(req)?
            .and_then(|()| self.route(req, out, keep_alive))
        {
            Ok(reply) => reply,
            Err(fail) => {
                fail.answer(&self.metrics, out, &[], keep_alive)?;
                return Ok(Handled::Normal);
            }
        };
        match reply {
            Reply::Body(content_type, body) => {
                write_response(out, 200, content_type, &body, keep_alive)?;
            }
            Reply::Report(bytes) => write_response(out, 200, JSON, &bytes, keep_alive)?,
            Reply::Streamed(result) => result?,
            Reply::Shutdown => {
                // The server is about to stop; never promise reuse.
                write_response(out, 200, JSON, b"{\"shutting_down\":true}\n", false)?;
                return Ok(Handled::ShutdownRequested);
            }
        }
        Ok(Handled::Normal)
    }

    /// The chaos gate: every endpoint except `/chaos` itself honors
    /// the injected fault, so the harness can always clear it.
    fn injected_fault(&self, req: &Request) -> io::Result<Result<(), Fail>> {
        if req.path == "/chaos" {
            return Ok(Ok(()));
        }
        match self.chaos_mode() {
            ChaosMode::None => {}
            ChaosMode::Error => return Ok(Err(Fail::new(500, "chaos", "injected fault"))),
            ChaosMode::Abort => {
                // An in-process `kill -9`: the connection drops with no
                // response bytes at all.
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "chaos: aborted",
                ));
            }
            ChaosMode::Stall => {
                // Freeze (bounded) until the harness clears the mode,
                // then serve normally — a stalled node that recovers
                // answers its backlog.
                let deadline = Instant::now() + Duration::from_secs(30);
                while self.chaos_mode() == ChaosMode::Stall && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        Ok(Ok(()))
    }

    fn route(&self, req: &Request, out: &mut dyn Write, keep_alive: bool) -> Result<Reply, Fail> {
        const TEXT: &str = "text/plain; charset=utf-8";
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Ok(Reply::Body(TEXT, Cow::Borrowed(b"ok\n"))),
            ("GET", "/metrics") => {
                let page = self
                    .metrics
                    .render(&self.cache, self.disk.as_ref(), self.cluster.get());
                Ok(Reply::Body(TEXT, Cow::Owned(page.into_bytes())))
            }
            ("POST", "/run") => self.run(req),
            ("POST", "/sweep") => self.sweep(req, out, keep_alive),
            ("POST", "/chaos") => self.chaos(req),
            ("GET", "/grid") => self.grid(req),
            ("GET", "/trace") => self.trace(req, out, keep_alive),
            ("POST", "/shutdown") => Ok(Reply::Shutdown),
            (
                _,
                "/healthz" | "/metrics" | "/run" | "/sweep" | "/chaos" | "/grid" | "/trace"
                | "/shutdown",
            ) => Err(Fail::new(
                405,
                "method_not_allowed",
                format!("{} not allowed here", req.method),
            )),
            (_, path) => Err(Fail::new(404, "not_found", format!("no route for {path}"))),
        }
    }

    /// Computes (or fetches) one cell's canonical report bytes,
    /// looking up memory cache → disk cache → peer forward → simulate.
    /// A fresh *local* result is persisted write-behind when
    /// persistence is on; forwarded bytes stay memory-only (the owner
    /// holds the disk shard). `local_only` skips the forward hop —
    /// set for requests that already arrived forwarded, so a cell can
    /// never bounce between peers. The returned flag is true when this
    /// call ran a fresh simulation (false: a cache layer or a peer
    /// answered).
    fn run_cell(
        &self,
        run_req: &RunRequest,
        local_only: bool,
    ) -> (Result<Arc<Vec<u8>>, Fail>, bool) {
        // Trace refs resolve against the corpus loaded at startup.
        // `/run` and `/sweep` validate refs before any work, so this
        // branch only fires on an internal caller bug — it still
        // degrades to a typed error rather than a panic.
        let (spec, trace) = match &run_req.workload {
            WorkloadRef::Benchmark(b) => (Some(b.spec()), None),
            WorkloadRef::Trace(name) => match self.traces.get(name) {
                Some(t) => (None, Some(Arc::clone(t))),
                None => {
                    let message = format!("no trace named \"{name}\" is loaded");
                    return (Err(Fail::new(500, "unknown_trace", message)), false);
                }
            },
        };
        // Constructing the experiment validates the gating parameters,
        // which panics on out-of-range values (e.g. bet = 0) — fault
        // isolation starts here, not at the simulation.
        let built = catch_unwind(AssertUnwindSafe(|| {
            let experiment = Experiment::new(run_req.params)
                .with_scale(run_req.scale)
                .with_job_timeout(self.config.job_timeout)
                .with_memory_hierarchy(
                    run_req.hierarchy.then(warped_sim::HierarchyConfig::default),
                );
            // The trace fingerprint folds the capture's content digest,
            // so two corpora serving the same name with different bytes
            // can never alias in any cache layer.
            let fingerprint = match (&spec, &trace) {
                (Some(spec), _) => cell_fingerprint(&experiment, spec, run_req.technique),
                (None, Some(t)) => trace_cell_fingerprint(&experiment, t, run_req.technique),
                (None, None) => unreachable!("workload resolved above"),
            };
            (experiment, fingerprint)
        }));
        let (experiment, fingerprint) = match built {
            Ok(pair) => pair,
            Err(payload) => return (Err(self.cell_panicked(payload.as_ref())), false),
        };

        let mut simulated = false;
        let mut forwarded = false;
        let (result, outcome) = self.cache.get_or_compute(fingerprint, || {
            if let Some(disk) = &self.disk {
                if let Some(bytes) = disk.get(fingerprint) {
                    return Ok(bytes);
                }
            }
            // Not ours? One forwarding hop to the ring owner; a failed
            // forward (or an open breaker) degrades to simulating here
            // — availability beats placement. Trace cells never hop:
            // the corpus is node-local configuration, so a peer may
            // not hold the referenced trace at all.
            if !local_only && trace.is_none() {
                if let Some(cluster) = self.cluster.get() {
                    if let Some(owner) = cluster.forward_target(fingerprint) {
                        if let Ok(bytes) = cluster.forward_run(owner, &run_req.to_body()) {
                            forwarded = true;
                            return Ok(bytes);
                        }
                    }
                }
            }
            let _guard = self.metrics.job_started();
            let outcome = catch_unwind(AssertUnwindSafe(|| match (&spec, &trace) {
                (Some(spec), _) => experiment.run(spec, run_req.technique),
                (None, Some(t)) => experiment.run_trace(t, run_req.technique),
                (None, None) => unreachable!("workload resolved above"),
            }));
            match outcome {
                Err(payload) => Err(self.cell_panicked(payload.as_ref())),
                Ok(run) if run.timed_out => {
                    self.metrics.timed_out_cells.fetch_add(1, Ordering::Relaxed);
                    Err(Fail::new(
                        500,
                        "timeout",
                        format!(
                            "cell exceeded the wall-clock budget ({:?})",
                            self.config.job_timeout
                        ),
                    ))
                }
                Ok(run) => {
                    simulated = true;
                    self.metrics.simulations.fetch_add(1, Ordering::Relaxed);
                    self.metrics.record_core_counters(&run.stats);
                    Ok(render_run(run_req, fingerprint, &run))
                }
            }
        });
        // Persist only what this call materialised *locally*: hits
        // already live on disk (or deliberately don't), forwarded
        // bytes belong to the owner's shard, and `put` is cheap but
        // not free. A disk hit re-entering `put` is deduped by the
        // index.
        if outcome == Outcome::Miss && !forwarded {
            if let (Some(disk), Ok(bytes)) = (&self.disk, &result) {
                disk.put(fingerprint, Arc::clone(bytes));
            }
        }
        if trace.is_some() && result.is_ok() {
            self.metrics
                .trace_cells_served
                .fetch_add(1, Ordering::Relaxed);
        }
        (result, simulated)
    }

    /// Counts a simulation that panicked and names its failure.
    fn cell_panicked(&self, payload: &(dyn std::any::Any + Send)) -> Fail {
        self.metrics.panicked_cells.fetch_add(1, Ordering::Relaxed);
        Fail::new(500, "panic", panic_message(payload))
    }

    /// Rejects any cell naming a trace this server has not loaded.
    /// Runs during request validation, before any simulation starts,
    /// so the client gets a 400 naming the cell — never a mid-batch
    /// fault.
    fn check_trace_refs(&self, cells: &[RunRequest]) -> Result<(), Fail> {
        for (i, cell) in cells.iter().enumerate() {
            if let WorkloadRef::Trace(name) = &cell.workload {
                if !self.traces.contains_key(name) {
                    let hint = if self.traces.is_empty() {
                        "; no trace corpus is loaded (start with --trace-dir)".to_owned()
                    } else {
                        format!(
                            "; loaded traces: {}",
                            self.traces
                                .keys()
                                .map(String::as_str)
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    };
                    return Err(Fail::bad_request(if cells.len() == 1 {
                        format!("unknown trace_ref \"{name}\"{hint}")
                    } else {
                        format!("cells[{i}]: unknown trace_ref \"{name}\"{hint}")
                    }));
                }
            }
        }
        Ok(())
    }

    /// `POST /run`: validate, fingerprint, serve through the
    /// single-flight cache, fault-isolate the simulation.
    fn run(&self, req: &Request) -> Result<Reply, Fail> {
        let run_req = RunRequest::parse(&req.body)?;
        self.check_trace_refs(std::slice::from_ref(&run_req))?;
        let local_only = req.header(FORWARDED_HEADER).is_some();
        self.run_cell(&run_req, local_only).0.map(Reply::Report)
    }

    /// `POST /sweep`: a batch of cells (`[{...},...]` or
    /// `{"cells":[...]}`), streamed back as chunked JSONL in
    /// completion order. Each line is `{"index":i,"report":{...}}` or
    /// `{"index":i,"error":{"kind":...,"message":...}}`, where `index`
    /// is the cell's position in the request array — the report bytes
    /// are exactly what `/run` answers for that cell.
    ///
    /// Validation is all-or-nothing *before* any work starts: one bad
    /// cell fails the whole batch with a `400` naming it, so a client
    /// can't burn a long sweep only to find a typo'd tail.
    fn sweep(&self, req: &Request, out: &mut dyn Write, keep_alive: bool) -> Result<Reply, Fail> {
        let cells = parse_sweep_cells(&req.body, self.config.max_sweep_cells)?;
        self.check_trace_refs(&cells)?;
        self.metrics
            .sweep_cells
            .fetch_add(cells.len() as u64, Ordering::Relaxed);
        let local_only = req.header(FORWARDED_HEADER).is_some();
        Ok(Reply::Streamed(
            self.stream_sweep(&cells, local_only, out, keep_alive),
        ))
    }

    fn stream_sweep(
        &self,
        cells: &[RunRequest],
        local_only: bool,
        out: &mut dyn Write,
        keep_alive: bool,
    ) -> io::Result<()> {
        let mut cw = ChunkedWriter::begin(out, 200, "application/jsonl", keep_alive)?;
        let next = AtomicUsize::new(0);
        let threads = cells.len().min(worker_count()).max(1);
        let (tx, rx) = mpsc::channel::<(usize, Result<Arc<Vec<u8>>, Fail>, bool)>();
        std::thread::scope(|scope| -> io::Result<()> {
            for _ in 0..threads {
                let tx = tx.clone();
                let next = &next;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let (result, simulated) = self.run_cell(cell, local_only);
                    // A send error means the client hung up and the
                    // streaming loop bailed: stop pulling cells.
                    if tx.send((i, result, simulated)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, result, simulated) in rx {
                // Abort chaos arriving mid-sweep drops the stream cold
                // — the in-process equivalent of a node dying with
                // cells still outstanding.
                if self.chaos_mode() == ChaosMode::Abort {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "chaos: aborted mid-sweep",
                    ));
                }
                if !simulated {
                    self.metrics
                        .sweep_cells_deduped
                        .fetch_add(1, Ordering::Relaxed);
                }
                let line = match result {
                    Ok(bytes) => {
                        let report = String::from_utf8_lossy(&bytes);
                        format!("{{\"index\":{i},\"report\":{}}}\n", report.trim_end())
                    }
                    Err(fail) => format!("{{\"index\":{i},\"error\":{}}}\n", fail.object()),
                };
                // Flush per line so the client sees each result the
                // moment it lands, not when the OS buffer fills.
                cw.chunk(line.as_bytes())?;
                cw.flush()?;
            }
            Ok(())
        })?;
        cw.finish()
    }

    /// `POST /chaos`: the fault-injection control, `{"mode":"none" |
    /// "error" | "stall" | "abort"}`. The endpoint itself is exempt
    /// from the injected fault, so a harness can always clear it.
    fn chaos(&self, req: &Request) -> Result<Reply, Fail> {
        let mode = std::str::from_utf8(&req.body)
            .ok()
            .and_then(|text| json::parse(text).ok())
            .and_then(|doc| {
                if doc.keys().iter().any(|k| *k != "mode") {
                    return None;
                }
                doc.get("mode")
                    .and_then(JsonValue::as_str)
                    .and_then(ChaosMode::from_name)
            })
            .ok_or_else(|| {
                Fail::bad_request("body must be {\"mode\":\"none\"|\"error\"|\"stall\"|\"abort\"}")
            })?;
        self.set_chaos(mode);
        let body = format!("{{\"chaos\":\"{}\"}}\n", mode.name());
        Ok(Reply::Body(JSON, Cow::Owned(body.into_bytes())))
    }

    /// `GET /grid`: the committed sweep table, optionally regenerated.
    fn grid(&self, req: &Request) -> Result<Reply, Fail> {
        if req.query_param("regenerate") == Some("1") {
            let scale = req
                .query_param("scale")
                .map_or(Ok(1.0), |s| unit_scale(s.parse().ok()))?;
            let out_dir = self
                .config
                .grid_path
                .parent()
                .map_or_else(|| PathBuf::from("."), PathBuf::from);
            let _serialised = self.regen.lock().expect("regen lock poisoned");
            let mut sweep_config = SweepConfig::new(out_dir, worker_count());
            sweep_config.scale = scale;
            sweep_config.quiet = true;
            let summary =
                sweep::run(&sweep_config).map_err(|e| Fail::new(500, "io", e.to_string()))?;
            if !summary.ok() {
                let message = format!("{} grid cells failed", summary.failures.len());
                return Err(Fail::new(500, "sweep_failed", message));
            }
        }
        let bytes = std::fs::read(&self.config.grid_path).map_err(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                Fail::new(
                    404,
                    "no_grid",
                    format!(
                        "{} not found; POST /grid?regenerate=1 or run the sweep binary",
                        self.config.grid_path.display()
                    ),
                )
            } else {
                Fail::new(500, "io", e.to_string())
            }
        })?;
        // Validate before serving: a torn or foreign file must not
        // masquerade as a grid.
        GridTable::parse(&String::from_utf8_lossy(&bytes))
            .map_err(|e| Fail::new(500, "bad_grid", e.to_string()))?;
        Ok(Reply::Body(JSON, Cow::Owned(bytes)))
    }

    /// `GET /trace?cell=<i>[&format=perfetto|rollup][&scale=<f>]`:
    /// replay one grid cell with telemetry and stream the export with
    /// chunked transfer encoding.
    fn trace(&self, req: &Request, out: &mut dyn Write, keep_alive: bool) -> Result<Reply, Fail> {
        let jobs = runner::full_grid();
        let cell = req
            .query_param("cell")
            .and_then(|c| c.parse::<usize>().ok())
            .filter(|i| *i < jobs.len())
            .ok_or_else(|| {
                Fail::bad_request(format!(
                    "\"cell\" must be a grid index below {}",
                    jobs.len()
                ))
            })?;
        let scale = req
            .query_param("scale")
            .map_or(Ok(self.config.trace_scale), |s| unit_scale(s.parse().ok()))?;
        let format = req.query_param("format").unwrap_or("perfetto");
        if format != "perfetto" && format != "rollup" {
            return Err(Fail::bad_request("\"format\" must be perfetto or rollup"));
        }

        let (spec, technique) = &jobs[cell];
        let label = sweep::cell_label(&jobs[cell]);
        let recorder = Recorder::new(RecorderConfig {
            capacity: 1 << 20,
            epoch_len: 1000,
        });
        let _guard = self.metrics.job_started();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let experiment = Experiment::paper_defaults()
                .with_scale(scale)
                .with_job_timeout(self.config.job_timeout)
                .with_telemetry(Some(recorder.clone()));
            experiment.run(spec, *technique)
        }))
        .map_err(|payload| self.cell_panicked(payload.as_ref()))?;

        self.metrics.record_core_counters(&run.stats);

        // Reassemble the log through the bounded-chunk drain (the same
        // incremental path the timeline binary uses).
        let mut events = Vec::new();
        for chunk in recorder.drain_chunks(64 * 1024) {
            events.extend(chunk);
        }
        let mut log = recorder.take();
        log.events = events;

        let stream = || -> io::Result<()> {
            if format == "perfetto" {
                let title = format!("{label} @ scale {scale}");
                let trace = perfetto::render(&log, run.stats.layout, &title);
                let mut cw = ChunkedWriter::begin(out, 200, JSON, keep_alive)?;
                for piece in trace.as_bytes().chunks(64 * 1024) {
                    cw.chunk(piece)?;
                }
                cw.finish()
            } else {
                let mut cw = ChunkedWriter::begin(out, 200, "application/jsonl", keep_alive)?;
                for row in &rollup::rows(&log) {
                    cw.chunk(row.to_json().as_bytes())?;
                    cw.chunk(b"\n")?;
                }
                cw.finish()
            }
        };
        Ok(Reply::Streamed(stream()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> Request {
        let (path, query_text) = path.split_once('?').unwrap_or((path, ""));
        Request {
            method: "GET".to_owned(),
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
            body: Vec::new(),
            keep_alive: true,
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            body: body.as_bytes().to_vec(),
            method: "POST".to_owned(),
            ..get(path)
        }
    }

    fn quick_service() -> Service {
        Service::new(ServiceConfig {
            trace_scale: 0.05,
            ..ServiceConfig::default()
        })
    }

    fn dispatch(service: &Service, req: &Request) -> (u16, String, Handled) {
        let mut wire = Vec::new();
        let handled = service.handle(req, &mut wire, true).unwrap();
        let text = String::from_utf8_lossy(&wire).into_owned();
        let status: u16 = text
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_owned())
            .unwrap_or_default();
        (status, body, handled)
    }

    #[test]
    fn healthz_and_metrics_respond() {
        let service = quick_service();
        let (status, body, _) = dispatch(&service, &get("/healthz"));
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, body, _) = dispatch(&service, &get("/metrics"));
        assert_eq!(status, 200);
        assert!(body.contains("warped_serve_requests_total 2"));
    }

    #[test]
    fn unknown_route_is_404_and_wrong_method_is_405() {
        let service = quick_service();
        let (status, body, _) = dispatch(&service, &get("/nope"));
        assert_eq!(status, 404);
        assert!(body.contains("not_found"));
        let (status, body, _) = dispatch(&service, &get("/run"));
        assert_eq!(status, 405);
        assert!(body.contains("method_not_allowed"));
    }

    #[test]
    fn run_endpoint_caches_identical_requests() {
        let service = quick_service();
        let body = "{\"benchmark\":\"nw\",\"technique\":\"baseline\",\"scale\":0.05}";
        let (status, first, _) = dispatch(&service, &post("/run", body));
        assert_eq!(status, 200, "{first}");
        assert!(first.contains("\"benchmark\":\"nw\""));
        assert!(first.contains("\"cycles\":"));
        assert!(first.contains("\"fingerprint\":\""));
        let (status, second, _) = dispatch(&service, &post("/run", body));
        assert_eq!(status, 200);
        assert_eq!(first, second, "cached bytes are identical");
        assert_eq!(service.cache.misses(), 1);
        assert_eq!(service.cache.hits(), 1);
        // The fresh simulation (and only it — the hit re-served bytes)
        // folded its event-core counters into the service totals.
        let events = service
            .metrics
            .events_dispatched
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(events > 0, "fresh run must report dispatched events");
        let (status, page, _) = dispatch(&service, &get("/metrics"));
        assert_eq!(status, 200);
        assert!(page.contains(&format!(
            "warped_serve_sim_events_dispatched_total {events}"
        )));
    }

    #[test]
    fn run_endpoint_rejects_malformed_and_unknown_inputs() {
        let service = quick_service();
        for (body, want) in [
            ("{not json", "bad_request"),
            ("{\"technique\":\"baseline\"}", "missing or non-string"),
            (
                "{\"benchmark\":\"nope\",\"technique\":\"baseline\"}",
                "unknown benchmark",
            ),
            (
                "{\"benchmark\":\"nw\",\"technique\":\"nope\"}",
                "unknown technique",
            ),
            (
                "{\"benchmark\":\"nw\",\"technique\":\"baseline\",\"scale\":7}",
                "(0,1]",
            ),
            (
                "{\"benchmark\":\"nw\",\"technique\":\"baseline\",\"typo\":1}",
                "unknown field",
            ),
        ] {
            let (status, response, _) = dispatch(&service, &post("/run", body));
            assert_eq!(status, 400, "{body} should be rejected");
            assert!(response.contains(want), "{body}: {response}");
        }
        assert_eq!(service.cache.misses(), 0, "no simulation ran");
    }

    #[test]
    fn panicking_cell_answers_500_with_a_typed_body() {
        let service = quick_service();
        // bet = 0 fails GatingParams validation inside the run.
        let body = "{\"benchmark\":\"nw\",\"technique\":\"baseline\",\"scale\":0.05,\"bet\":0}";
        let (status, response, _) = dispatch(&service, &post("/run", body));
        assert_eq!(status, 500, "{response}");
        assert!(response.contains("\"kind\":\"panic\""), "{response}");
        assert_eq!(
            service
                .metrics
                .panicked_cells
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        // Parameter validation fails before the cache is consulted, so
        // nothing was cached and a retry fails identically.
        let (status, _, _) = dispatch(&service, &post("/run", body));
        assert_eq!(status, 500);
        assert_eq!(service.cache.misses(), 0);
    }

    /// De-chunks a chunked body and splits it into JSONL lines.
    fn jsonl_lines(body: &str) -> Vec<String> {
        let mut data = String::new();
        let mut rest = body;
        loop {
            let (size, tail) = rest.split_once("\r\n").expect("chunk size line");
            let size = usize::from_str_radix(size, 16).expect("hex chunk size");
            if size == 0 {
                break;
            }
            data.push_str(&tail[..size]);
            rest = &tail[size + 2..]; // skip payload + CRLF
        }
        data.lines().map(str::to_owned).collect()
    }

    #[test]
    fn sweep_streams_every_cell_and_dedupes_against_run() {
        let service = quick_service();
        // Warm one of the two cells through /run first.
        let (status, single, _) = dispatch(
            &service,
            &post(
                "/run",
                "{\"benchmark\":\"nw\",\"technique\":\"baseline\",\"scale\":0.05}",
            ),
        );
        assert_eq!(status, 200);

        let body = "{\"cells\":[\
             {\"benchmark\":\"nw\",\"technique\":\"baseline\",\"scale\":0.05},\
             {\"benchmark\":\"nw\",\"technique\":\"warped-gates\",\"scale\":0.05}]}";
        let (status, raw, _) = dispatch(&service, &post("/sweep", body));
        assert_eq!(status, 200);
        let mut lines = jsonl_lines(&raw);
        assert_eq!(lines.len(), 2, "{raw:.300}");
        // Completion order is nondeterministic; sort by index.
        lines.sort_by_key(|l| !l.contains("\"index\":0"));
        let first = json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("index").unwrap().as_u64(), Some(0));
        // The streamed report is byte-identical to the /run body.
        assert_eq!(
            format!("{{\"index\":0,\"report\":{}}}", single.trim_end()),
            lines[0]
        );
        assert!(
            lines[1].contains("\"technique\":\"Warped Gates\""),
            "{}",
            lines[1]
        );

        let deduped = service.metrics.sweep_cells_deduped.load(Ordering::Relaxed);
        assert_eq!(deduped, 1, "the /run-warmed cell cost no simulation");
        assert_eq!(service.metrics.sweep_cells.load(Ordering::Relaxed), 2);
        assert_eq!(service.metrics.simulations.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn sweep_rejects_bad_batches_before_any_work() {
        let service = quick_service();
        for (body, want) in [
            ("", "expected a JSON value"),
            ("{\"cells\":[]}", "at least one cell"),
            ("{\"cells\":7}", "non-array"),
            ("{\"cellz\":[]}", "unknown field"),
            ("7", "expected an array"),
            (
                "[{\"benchmark\":\"nw\",\"technique\":\"baseline\"},{\"benchmark\":\"nope\",\"technique\":\"baseline\"}]",
                "cells[1]: unknown benchmark",
            ),
        ] {
            let (status, response, _) = dispatch(&service, &post("/sweep", body));
            assert_eq!(status, 400, "{body} should be rejected: {response}");
            assert!(response.contains(want), "{body}: {response}");
        }
        assert_eq!(service.cache.misses(), 0, "no simulation ran");
    }

    #[test]
    fn sweep_cap_is_enforced() {
        let service = Service::new(ServiceConfig {
            max_sweep_cells: 1,
            ..ServiceConfig::default()
        });
        let body = "[{\"benchmark\":\"nw\",\"technique\":\"baseline\"},\
                     {\"benchmark\":\"nw\",\"technique\":\"blackout\"}]";
        let (status, response, _) = dispatch(&service, &post("/sweep", body));
        assert_eq!(status, 400);
        assert!(response.contains("too many cells"), "{response}");
    }

    #[test]
    fn disk_cache_survives_a_service_restart_with_zero_simulations() {
        let root = std::env::temp_dir().join(format!("warped_service_disk_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let config = ServiceConfig {
            trace_scale: 0.05,
            disk_dir: Some(root.clone()),
            ..ServiceConfig::default()
        };
        let body = "{\"benchmark\":\"nw\",\"technique\":\"baseline\",\"scale\":0.05}";
        let first = {
            let service = Service::new(config.clone());
            let (status, body_text, _) = dispatch(&service, &post("/run", body));
            assert_eq!(status, 200);
            assert_eq!(service.metrics.simulations.load(Ordering::Relaxed), 1);
            service.disk.as_ref().unwrap().flush();
            body_text
        };
        // A fresh Service (fresh memory cache) must answer from disk.
        let service = Service::new(config);
        let (status, second, _) = dispatch(&service, &post("/run", body));
        assert_eq!(status, 200);
        assert_eq!(first, second, "disk round-trip is byte-identical");
        assert_eq!(
            service.metrics.simulations.load(Ordering::Relaxed),
            0,
            "restart answers warm"
        );
        assert_eq!(service.disk.as_ref().unwrap().hits(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn chaos_endpoint_injects_and_clears_faults() {
        let service = quick_service();
        // Bad bodies are rejected without touching the mode.
        for body in ["", "{\"mode\":\"nope\"}", "{\"mood\":\"error\"}", "7"] {
            let (status, _, _) = dispatch(&service, &post("/chaos", body));
            assert_eq!(status, 400, "{body:?} must be rejected");
        }
        assert_eq!(service.chaos_mode(), crate::cluster::ChaosMode::None);

        let (status, body, _) = dispatch(&service, &post("/chaos", "{\"mode\":\"error\"}"));
        assert_eq!((status, body.as_str()), (200, "{\"chaos\":\"error\"}\n"));
        let (status, body, _) = dispatch(&service, &get("/healthz"));
        assert_eq!(status, 500);
        assert!(body.contains("\"kind\":\"chaos\""), "{body}");

        // /chaos itself is exempt, so the fault can always be cleared.
        let (status, _, _) = dispatch(&service, &post("/chaos", "{\"mode\":\"none\"}"));
        assert_eq!(status, 200);
        let (status, _, _) = dispatch(&service, &get("/healthz"));
        assert_eq!(status, 200);
    }

    #[test]
    fn abort_chaos_drops_the_connection_with_no_bytes() {
        let service = quick_service();
        service.set_chaos(crate::cluster::ChaosMode::Abort);
        let mut wire = Vec::new();
        let result = service.handle(&get("/healthz"), &mut wire, true);
        assert_eq!(result.unwrap_err().kind(), io::ErrorKind::ConnectionAborted);
        assert!(wire.is_empty(), "an aborted request answers nothing");
    }

    #[test]
    fn forwarded_requests_are_served_locally_not_re_forwarded() {
        use crate::cluster::{cell_for, Cluster, ClusterConfig};
        // Self plus one unreachable peer; pick a cell the peer owns.
        let peers = vec!["127.0.0.1:19931".to_owned(), "127.0.0.1:19932".to_owned()];
        let service = quick_service();
        service.arm_cluster(
            Cluster::new(&ClusterConfig {
                peers: peers.clone(),
                self_addr: Some(peers[0].clone()),
                probe_interval: None,
                ..ClusterConfig::default()
            })
            .unwrap(),
        );
        let cluster = service.cluster().unwrap();
        let not_ours = Benchmark::ALL
            .into_iter()
            .find(|b| {
                let cell = cell_for(*b, Technique::Baseline, 0.05);
                cluster.ring().owner(cell.fingerprint) != 0
            })
            .expect("some benchmark hashes to the peer");
        let body = format!(
            "{{\"benchmark\":\"{}\",\"technique\":\"baseline\",\"scale\":0.05}}",
            not_ours.name()
        );

        // A forwarded request must not hop again: it simulates locally
        // without ever dialing the (unreachable) owner.
        let mut req = post("/run", &body);
        req.headers
            .push((FORWARDED_HEADER.to_owned(), "1".to_owned()));
        let mut wire = Vec::new();
        let handled = service.handle(&req, &mut wire, true).unwrap();
        assert_eq!(handled, Handled::Normal);
        let counters = cluster.counters();
        assert_eq!(counters.forward_failures.load(Ordering::Relaxed), 0);
        assert_eq!(service.metrics.simulations.load(Ordering::Relaxed), 1);

        // The same cell un-forwarded tries the owner first, fails
        // (nothing listens there), and falls back to local — which the
        // memory cache now answers.
        let (status, _, _) = dispatch(&service, &post("/run", &body));
        assert_eq!(status, 200);
        assert_eq!(
            counters.forward_failures.load(Ordering::Relaxed),
            0,
            "a cache hit never reaches the forward layer"
        );

        // An uncached peer-owned cell does attempt (and fail) the hop.
        let body2 = format!(
            "{{\"benchmark\":\"{}\",\"technique\":\"gates\",\"scale\":0.05}}",
            Benchmark::ALL
                .into_iter()
                .find(|b| {
                    let cell = cell_for(*b, Technique::Gates, 0.05);
                    cluster.ring().owner(cell.fingerprint) != 0
                })
                .expect("some benchmark hashes to the peer")
                .name()
        );
        let (status, _, _) = dispatch(&service, &post("/run", &body2));
        assert_eq!(status, 200, "failed forward degrades to local");
        assert_eq!(counters.forward_failures.load(Ordering::Relaxed), 1);
        assert!(counters.peer_unhealthy.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn hierarchy_requests_run_the_cache_model_and_report_memory_stats() {
        let service = quick_service();
        let flat = "{\"benchmark\":\"nw\",\"technique\":\"baseline\",\"scale\":0.05}";
        let armed =
            "{\"benchmark\":\"nw\",\"technique\":\"baseline\",\"scale\":0.05,\"hierarchy\":true}";
        let (status, flat_body, _) = dispatch(&service, &post("/run", flat));
        assert_eq!(status, 200, "{flat_body}");
        assert!(!flat_body.contains("\"memory\""), "{flat_body}");
        let (status, armed_body, _) = dispatch(&service, &post("/run", armed));
        assert_eq!(status, 200, "{armed_body}");
        assert!(
            armed_body.contains("\"memory\":{\"accesses\":"),
            "{armed_body}"
        );
        assert_ne!(
            flat_body, armed_body,
            "the two memory models are distinct cells"
        );
        assert_eq!(
            service.cache.misses(),
            2,
            "hierarchy folds into the fingerprint, so the cells cache separately"
        );
        // An explicit false is the default model: same fingerprint,
        // same bytes, served from cache.
        let explicit =
            "{\"benchmark\":\"nw\",\"technique\":\"baseline\",\"scale\":0.05,\"hierarchy\":false}";
        let (status, third, _) = dispatch(&service, &post("/run", explicit));
        assert_eq!(status, 200);
        assert_eq!(flat_body, third);
        assert_eq!(service.cache.misses(), 2);
        // The mem metrics counted only the hierarchy-armed simulation.
        assert!(service.metrics.mem_accesses.load(Ordering::Relaxed) > 0);
        let (_, page, _) = dispatch(&service, &get("/metrics"));
        assert!(page.contains("warped_serve_sim_mem_accesses_total"));
        // A non-boolean value is rejected before any work.
        let bad = "{\"benchmark\":\"nw\",\"technique\":\"baseline\",\"hierarchy\":1}";
        let (status, body, _) = dispatch(&service, &post("/run", bad));
        assert_eq!(status, 400);
        assert!(body.contains("true or false"), "{body}");
    }

    #[test]
    fn run_request_to_body_round_trips() {
        let body = "{\"benchmark\":\"bfs\",\"technique\":\"warped-gates\",\
                     \"scale\":0.25,\"idle_detect\":5,\"bet\":14,\"wakeup_delay\":9,\
                     \"hierarchy\":true}";
        let parsed = RunRequest::parse(body.as_bytes()).unwrap();
        let rendered = parsed.to_body();
        let reparsed = RunRequest::parse(rendered.as_bytes()).unwrap();
        assert_eq!(parsed.workload, reparsed.workload);
        assert_eq!(parsed.technique, reparsed.technique);
        assert_eq!(parsed.scale, reparsed.scale);
        assert_eq!(parsed.params, reparsed.params);
        assert_eq!(parsed.hierarchy, reparsed.hierarchy);

        // The trace flavour round-trips the same way.
        let trace = RunRequest::parse(
            b"{\"trace_ref\":\"hotspot\",\"technique\":\"baseline\",\"scale\":0.5}",
        )
        .unwrap();
        let re = RunRequest::parse(trace.to_body().as_bytes()).unwrap();
        assert_eq!(trace.workload, re.workload);
        assert_eq!(re.workload, WorkloadRef::Trace("hotspot".to_owned()));
    }

    #[test]
    fn shutdown_is_signalled_to_the_caller() {
        let service = quick_service();
        let (status, body, handled) = dispatch(&service, &post("/shutdown", ""));
        assert_eq!(status, 200);
        assert!(body.contains("shutting_down"));
        assert_eq!(handled, Handled::ShutdownRequested);
    }

    #[test]
    fn trace_streams_chunked_perfetto_and_rollup() {
        let service = quick_service();
        let (status, body, _) = dispatch(&service, &get("/trace?cell=0&scale=0.05"));
        assert_eq!(status, 200);
        assert!(body.contains("traceEvents"), "{body:.200}");
        assert!(body.ends_with("0\r\n\r\n"), "chunked terminator");

        let (status, body, _) = dispatch(&service, &get("/trace?cell=0&scale=0.05&format=rollup"));
        assert_eq!(status, 200);
        assert!(body.contains("\"epoch\":0"), "{body:.200}");

        let (status, _, _) = dispatch(&service, &get("/trace?cell=999"));
        assert_eq!(status, 400);
        let (status, _, _) = dispatch(&service, &get("/trace"));
        assert_eq!(status, 400);
        let (status, _, _) = dispatch(&service, &get("/trace?cell=0&format=nope"));
        assert_eq!(status, 400);
    }

    #[test]
    fn grid_serves_the_committed_table_or_404s() {
        let missing = Service::new(ServiceConfig {
            grid_path: PathBuf::from("/nonexistent/bench_grid.json"),
            ..ServiceConfig::default()
        });
        let (status, body, _) = dispatch(&missing, &get("/grid"));
        assert_eq!(status, 404);
        assert!(body.contains("no_grid"));

        let committed =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_grid.json");
        if committed.exists() {
            let service = Service::new(ServiceConfig {
                grid_path: committed,
                ..ServiceConfig::default()
            });
            let (status, body, _) = dispatch(&service, &get("/grid"));
            assert_eq!(status, 200);
            assert!(body.contains("\"title\":\"bench grid\""));
        }
    }

    /// Writes a small captured corpus (one pre-scaled nw trace plus
    /// one corrupt file) into a fresh temp dir and returns its path.
    fn write_test_corpus(tag: &str) -> PathBuf {
        use warped_trace::{capture, CaptureSpec};
        let dir =
            std::env::temp_dir().join(format!("warped_serve_traces_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Pre-scaled capture, replayed at scale 1.0 — spec scaling
        // happens before barrier-round splitting, so this is the only
        // geometry the native run can be compared against bit-for-bit.
        let spec = Benchmark::Nw.spec().scaled(0.05);
        let kernel = spec.kernel();
        let text = capture(&CaptureSpec {
            name: spec.name,
            kernel: &kernel,
            total_warps: spec.total_warps,
            block_warps: spec.block_warps,
            stagger: spec.body_len as u32,
            waves: spec.launches,
            l1_hit_rate: spec.l1_hit_rate,
            mem_seed: spec.seed ^ 0xdead_beef,
        });
        std::fs::write(dir.join("nw.wgt1"), text).unwrap();
        std::fs::write(dir.join("broken.wgt1"), b"WGT1 broken\nnot a header\n").unwrap();
        dir
    }

    #[test]
    fn trace_cells_serve_from_the_corpus_bit_identically() {
        let dir = write_test_corpus("run");
        let service = Service::new(ServiceConfig {
            trace_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        // One good trace loaded, one corrupt file counted and skipped.
        assert_eq!(service.metrics.traces_loaded.load(Ordering::Relaxed), 1);
        assert_eq!(
            service.metrics.trace_parse_errors.load(Ordering::Relaxed),
            1
        );

        let body = "{\"trace_ref\":\"nw\",\"technique\":\"warped-gates\"}";
        let (status, first, _) = dispatch(&service, &post("/run", body));
        assert_eq!(status, 200, "{first}");
        assert!(first.contains("\"trace_ref\":\"nw\""), "{first}");
        let doc = json::parse(first.trim_end()).unwrap();
        let direct = Experiment::paper_defaults().run_trace(
            &warped_trace::parse_bytes(&std::fs::read(dir.join("nw.wgt1")).unwrap()).unwrap(),
            Technique::WarpedGates,
        );
        assert_eq!(
            doc.get("cycles").unwrap().as_u64(),
            Some(direct.cycles),
            "served trace cells are bit-identical to direct replays"
        );

        // A repeat serves from cache but still counts as a trace cell.
        let (status, second, _) = dispatch(&service, &post("/run", body));
        assert_eq!(status, 200);
        assert_eq!(first, second);
        assert_eq!(
            service.metrics.trace_cells_served.load(Ordering::Relaxed),
            2
        );
        assert_eq!(service.cache.misses(), 1);

        // Trace and benchmark cells mix in one sweep batch.
        let sweep_body = "{\"cells\":[\
             {\"trace_ref\":\"nw\",\"technique\":\"warped-gates\"},\
             {\"benchmark\":\"nw\",\"technique\":\"baseline\",\"scale\":0.05}]}";
        let (status, raw, _) = dispatch(&service, &post("/sweep", sweep_body));
        assert_eq!(status, 200);
        assert_eq!(jsonl_lines(&raw).len(), 2, "{raw:.300}");
        assert_eq!(
            service.metrics.trace_cells_served.load(Ordering::Relaxed),
            3
        );

        // The metrics page exposes all three trace series live.
        let (_, page, _) = dispatch(&service, &get("/metrics"));
        assert!(
            page.contains("warped_serve_trace_workloads_loaded 1"),
            "{page:.500}"
        );
        assert!(page.contains("warped_serve_trace_parse_errors_total 1"));
        assert!(page.contains("warped_serve_trace_cells_served_total 3"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_refs_are_validated_before_any_work() {
        // Without a corpus, every trace_ref is a 400 with a hint.
        let service = quick_service();
        let (status, body, _) = dispatch(
            &service,
            &post("/run", "{\"trace_ref\":\"nw\",\"technique\":\"baseline\"}"),
        );
        assert_eq!(status, 400);
        assert!(body.contains("unknown trace_ref"), "{body}");
        assert!(body.contains("--trace-dir"), "{body}");

        // Naming both workload kinds is rejected, as is naming none.
        let (status, body, _) = dispatch(
            &service,
            &post(
                "/run",
                "{\"benchmark\":\"nw\",\"trace_ref\":\"nw\",\"technique\":\"baseline\"}",
            ),
        );
        assert_eq!(status, 400);
        assert!(body.contains("mutually exclusive"), "{body}");
        let (status, body, _) = dispatch(&service, &post("/run", "{\"technique\":\"baseline\"}"));
        assert_eq!(status, 400);
        assert!(body.contains("missing or non-string"), "{body}");

        // A sweep with one bad trace ref fails whole, naming the cell,
        // before any simulation starts.
        let dir = write_test_corpus("validate");
        let service = Service::new(ServiceConfig {
            trace_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        let body = "[{\"trace_ref\":\"nw\",\"technique\":\"baseline\"},\
                     {\"trace_ref\":\"nope\",\"technique\":\"baseline\"}]";
        let (status, response, _) = dispatch(&service, &post("/sweep", body));
        assert_eq!(status, 400);
        assert!(
            response.contains("cells[1]: unknown trace_ref \\\"nope\\\""),
            "{response}"
        );
        assert!(response.contains("loaded traces: nw"), "{response}");
        assert_eq!(service.cache.misses(), 0, "no simulation ran");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_report_json_parses_and_matches_a_direct_run() {
        let service = quick_service();
        let body = "{\"benchmark\":\"hotspot\",\"technique\":\"warped-gates\",\"scale\":0.05}";
        let (status, response, _) = dispatch(&service, &post("/run", body));
        assert_eq!(status, 200);
        let doc = json::parse(response.trim_end()).unwrap();
        let direct = Experiment::paper_defaults()
            .with_scale(0.05)
            .run(&Benchmark::Hotspot.spec(), Technique::WarpedGates);
        assert_eq!(
            doc.get("cycles").unwrap().as_u64(),
            Some(direct.cycles),
            "service runs are bit-identical to direct runs"
        );
        assert_eq!(
            doc.get("ff_cycles").unwrap().as_u64(),
            Some(direct.stats.fast_forwarded_cycles)
        );
        assert_eq!(
            doc.get("gating")
                .unwrap()
                .get("INT")
                .unwrap()
                .get("gate_events")
                .unwrap()
                .as_u64(),
            Some(direct.gating_of(UnitType::Int).gate_events)
        );
    }
}
