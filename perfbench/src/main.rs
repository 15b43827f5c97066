//! `warped-perfbench` — the repository benchmark.
//!
//! ```text
//! warped-perfbench --workload <grid|trace_mem|serve> --seed <n>
//!                  --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! Run it from the repository root (it reads `results/`, `traces/`
//! and `perfbench/expected/`, and writes only under `perfbench/out/`).
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! alternates untraced and traced passes and reports the per-layer
//! metrics plus the tracing overhead. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `--bless` rewrites the stored output digests from this run instead
//! of checking against them. See `perfbench/README.md`.

mod cells;
mod probe;
mod serve;
mod sim_workloads;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("wall_s", "s"),
    ("sweep_s", "s"),
    ("rps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("int_savings_pct", "%"),
    ("fp_savings_pct", "%"),
    ("perf_loss_pct", "%"),
];

/// The per-layer metrics every traced run reports, with their units.
/// A layer the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("workloads.gen_s", "s"),
    ("workloads.gen_calls", "count"),
    ("trace.parse_s", "s"),
    ("trace.bytes", "bytes"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.cycles", "count"),
    ("sim.instructions", "count"),
    ("sim.events", "count"),
    ("sim.skipped_cycles", "count"),
    ("sim.ns_per_cycle", "ns"),
    ("sched.pick_calls", "count"),
    ("sched.pick_s", "s"),
    ("sched.veto_calls", "count"),
    ("gating.observe_calls", "count"),
    ("gating.observe_s", "s"),
    ("gating.ff_calls", "count"),
    ("gating.ff_cycles", "count"),
    ("gating.ff_s", "s"),
    ("gating.gated_cycles", "count"),
    ("gating.wakeups", "count"),
    ("gating.critical_wakeups", "count"),
    ("mem.accesses", "count"),
    ("mem.l1_miss_rate", "ratio"),
    ("mem.mshr_merges", "count"),
    ("mem.l2_accesses", "count"),
    ("mem.l2_miss_rate", "ratio"),
    ("mem.extra_s", "s"),
    ("power.energy_s", "s"),
    ("runner.idle_s", "s"),
    ("serve.read_request_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.fingerprint_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.p999_ms", "ms"),
    ("serve.handoff_share", "ratio"),
    ("serve.hit_ratio", "ratio"),
    ("serve.simulations", "count"),
    ("serve.disk_writes", "count"),
    ("serve.disk_sweep_s", "s"),
    ("serve.disk_flush_s", "s"),
    ("serve.reuse_ratio", "ratio"),
    ("serve.sim_s", "s"),
    ("tracing.overhead_pct", "%"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Order seed: permutes cells and requests, never simulated inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Rewrite the stored output digests instead of checking them.
    pub bless: bool,
}

const USAGE: &str = "usage: warped-perfbench --workload <grid|trace_mem|serve> --seed <n> \
                     --seconds <s> --trace <0|1> [--bless]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_owned())?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| "--seconds needs a positive number".to_owned())?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_owned()),
                };
            }
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells simulated, requests sent).
    pub attempted: u64,
    /// Operations that failed or failed their output check.
    pub failed: u64,
    /// The first few failures, for standard error.
    pub failures: Vec<String>,
    /// Metric values by name (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Host and run context printed before the result line.
    pub context: Vec<(&'static str, String)>,
    /// Spans recorded by a traced run.
    pub spans: spans::SpanLog,
}

impl Outcome {
    /// Records one failed operation with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(reason);
        }
    }
}

/// Decides whether another pass fits in the measurement budget.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// A budget of `seconds`, starting now.
    pub fn new(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether to start another pass, given the walls of the passes so
    /// far: always the first, then only while the median pass still
    /// fits in what is left.
    pub fn another(&self, pass_walls: &[f64]) -> bool {
        pass_walls.is_empty()
            || self.start.elapsed().as_secs_f64() + stats::median(pass_walls) <= self.seconds
    }
}

/// Worker threads and client connections: one per available core.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out revision, read from `.git` without spawning git;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(name) => read(&Path::new(".git").join(name))
            .map(|s| s.trim().to_owned())
            .or_else(|| {
                read(Path::new(".git/packed-refs")).and_then(|packed| {
                    packed
                        .lines()
                        .find_map(|l| l.strip_suffix(name).map(|hash| hash.trim().to_owned()))
                })
            })
            .unwrap_or_else(|| "unknown".to_owned()),
    }
}

/// Where traced runs write their spans and the serve workload keeps
/// its disk caches.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench/out")
}

fn render(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = outcome
                .metrics
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("warped-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    spans::now_ns(); // start the process clock before any work
    let result = match args.workload.as_str() {
        "grid" => sim_workloads::run(sim_workloads::Kind::Grid, &args),
        "trace_mem" => sim_workloads::run(sim_workloads::Kind::TraceMem, &args),
        "serve" => serve::run(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("warped-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &outcome.failures {
        eprintln!("warped-perfbench: failed: {f}");
    }
    if args.trace {
        let path = out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        outcome
            .context
            .push(("spans", outcome.spans.len().to_string()));
        outcome
            .context
            .push(("call_sample_every", probe::SAMPLE_EVERY.to_string()));
        match outcome.spans.write(&path) {
            Ok(()) => outcome
                .context
                .push(("spans_file", path.display().to_string())),
            Err(e) => eprintln!("warped-perfbench: cannot write {}: {e}", path.display()),
        }
    } else {
        outcome.metrics.insert("peak_rss_mb", stats::peak_rss_mb());
    }
    let mut context = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", parallelism().to_string()),
        ("git_revision", git_revision()),
    ];
    context.append(&mut outcome.context);
    let fields: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", warped_serve::json::escape(v)))
        .collect();
    println!("{{\"context\": {{{}}}}}", fields.join(", "));
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", render(&outcome, names));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_serve::json::{self, JsonValue};

    /// `BENCHMARK.json` and the names this binary prints must agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(JsonValue::Arr(listed)) = doc.get(key) else {
                panic!("{key} is not a list");
            };
            let listed: Vec<(&str, &str)> = listed
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(JsonValue::as_str).expect(f);
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, table.to_vec(), "{key}");
        }
    }
}
