//! Timeline capture: run one benchmark × technique cell with telemetry
//! armed and export the recording as a Perfetto/Chrome trace plus a
//! per-epoch metrics stream.
//!
//! Writes `<out-dir>/trace.perfetto.json` (open at
//! <https://ui.perfetto.dev> or `chrome://tracing`) and
//! `<out-dir>/metrics.jsonl`, then prints a terminal summary. Output is
//! deterministic: timestamps are simulation cycles, so two captures of
//! the same cell are byte-identical.
//!
//! Usage:
//! `timeline --bench <name> --technique <t> [--scale <f>] [--out-dir <dir>]
//!           [--capacity <events>] [--epoch <cycles>] [--mem-hierarchy]`

use std::cell::RefCell;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::rc::Rc;

use warped_bench::{exit_usage, ArgError};
use warped_gates::Technique;
use warped_gating::GatingParams;
use warped_power::{EnergyTimeline, PowerParams};
use warped_sim::{DomainLayout, Sm};
use warped_telemetry::{perfetto, rollup, Recorder, RecorderConfig};
use warped_workloads::Benchmark;

const USAGE: &str = "--bench <name> --technique <t> [--scale <f in (0,1]>] \
[--out-dir <dir>] [--capacity <events >= 1>] [--epoch <cycles >= 1>] \
[--mem-hierarchy]";

struct Config {
    bench: Benchmark,
    technique: Technique,
    scale: f64,
    out_dir: PathBuf,
    capacity: usize,
    epoch_len: u64,
    mem_hierarchy: bool,
}

/// Case-insensitive technique lookup that also ignores spaces, dashes,
/// and underscores, so `warped-gates`, `Warped Gates`, and
/// `WARPED_GATES` all resolve.
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

fn parse_args(args: &[String]) -> Result<Config, ArgError> {
    let mut bench = None;
    let mut technique = None;
    let mut scale = 0.1_f64;
    let mut out_dir = PathBuf::from("results/timeline");
    let mut capacity = 1usize << 20;
    let mut epoch_len = 1000u64;
    let mut mem_hierarchy = false;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, ArgError> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| ArgError::MissingValue(flag.to_owned()))
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => {
                let v = value(args, i, "--bench")?;
                bench = Some(Benchmark::from_name(&v).ok_or_else(|| ArgError::BadValue {
                    flag: "--bench".to_owned(),
                    value: v,
                    expected: "one of the 18 benchmark names",
                })?);
                i += 2;
            }
            "--technique" => {
                let v = value(args, i, "--technique")?;
                technique = Some(technique_from_name(&v).ok_or_else(|| ArgError::BadValue {
                    flag: "--technique".to_owned(),
                    value: v,
                    expected: "baseline, convpg, gates, naive-blackout, \
                               coordinated-blackout, or warped-gates",
                })?);
                i += 2;
            }
            "--scale" => {
                let v = value(args, i, "--scale")?;
                let bad = || ArgError::BadValue {
                    flag: "--scale".to_owned(),
                    value: v.clone(),
                    expected: "a number in (0,1]",
                };
                scale = v.parse().map_err(|_| bad())?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(bad());
                }
                i += 2;
            }
            "--out-dir" => {
                out_dir = value(args, i, "--out-dir")?.into();
                i += 2;
            }
            "--capacity" => {
                let v = value(args, i, "--capacity")?;
                capacity = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| ArgError::BadValue {
                        flag: "--capacity".to_owned(),
                        value: v.clone(),
                        expected: "a positive event count",
                    })?;
                i += 2;
            }
            "--epoch" => {
                let v = value(args, i, "--epoch")?;
                epoch_len =
                    v.parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| ArgError::BadValue {
                            flag: "--epoch".to_owned(),
                            value: v.clone(),
                            expected: "a positive cycle count",
                        })?;
                i += 2;
            }
            "--mem-hierarchy" => {
                mem_hierarchy = true;
                i += 1;
            }
            other => return Err(ArgError::Unknown(other.to_owned())),
        }
    }
    let bench = bench.ok_or_else(|| ArgError::MissingValue("--bench".to_owned()))?;
    let technique = technique.ok_or_else(|| ArgError::MissingValue("--technique".to_owned()))?;
    Ok(Config {
        bench,
        technique,
        scale,
        out_dir,
        capacity,
        epoch_len,
        mem_hierarchy,
    })
}

/// Writes via a sibling temp file + rename, so a crash never leaves a
/// truncated artifact behind.
fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = parse_args(&args).unwrap_or_else(|e| exit_usage(&e, USAGE));

    let spec = config.bench.spec().scaled(config.scale);
    let params = GatingParams::default();
    let recorder = Recorder::new(RecorderConfig {
        capacity: config.capacity,
        epoch_len: config.epoch_len,
    });

    let mut cfg = spec.sm_config();
    cfg.telemetry = Some(recorder.clone());
    if config.mem_hierarchy {
        cfg.memory.hierarchy = Some(warped_sim::HierarchyConfig::default());
    }
    let layout = DomainLayout::new(cfg.sp_clusters);
    let energy = Rc::new(RefCell::new(EnergyTimeline::new(
        PowerParams::default(),
        layout,
        params.bet,
        config.epoch_len,
    )));

    let mut sm = Sm::new(
        cfg,
        spec.launch(),
        config.technique.make_scheduler(),
        config.technique.make_gating(params),
    );
    sm.set_observer(Box::new(Rc::clone(&energy)));
    let outcome = sm.run();
    if outcome.timed_out {
        eprintln!("timeline: cell hit the cycle cap; trace covers the truncated run");
    }

    // Drain the ring in bounded chunks (the same incremental path the
    // service layer streams over HTTP), then take() the epoch/baseline
    // metadata and reassemble the full log. Draining a finished
    // recording chunk-by-chunk yields exactly `take()`'s event order,
    // so the artifacts stay byte-identical.
    let mut events = Vec::new();
    for chunk in recorder.drain_chunks(64 * 1024) {
        events.extend(chunk);
    }
    let mut log = recorder.take();
    log.events = events;
    let title = format!("{} × {}", config.bench.name(), config.technique.name());
    let trace = perfetto::render_with_energy(&log, layout, &title, Some(&energy.borrow()));
    let rows = rollup::rows_with_energy(&log, &energy.borrow());
    let mut metrics = Vec::new();
    if let Err(e) = rollup::write_jsonl(&rows, &mut metrics) {
        eprintln!("timeline: metrics encoding failed: {e}");
        return ExitCode::FAILURE;
    }

    if let Err(e) = fs::create_dir_all(&config.out_dir) {
        eprintln!("timeline: cannot create {}: {e}", config.out_dir.display());
        return ExitCode::FAILURE;
    }
    let trace_path = config.out_dir.join("trace.perfetto.json");
    let metrics_path = config.out_dir.join("metrics.jsonl");
    for (path, bytes) in [
        (&trace_path, trace.as_bytes()),
        (&metrics_path, &metrics[..]),
    ] {
        if let Err(e) = write_atomic(path, bytes) {
            eprintln!("timeline: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let totals =
        log.epochs
            .iter()
            .fold(warped_telemetry::EpochCounters::default(), |mut acc, e| {
                acc.gate_events += e.gate_events;
                acc.wakeups += e.wakeups;
                acc.critical_wakeups += e.critical_wakeups;
                acc.wasted_gates += e.wasted_gates;
                acc.blackout_holds += e.blackout_holds;
                acc.ff_spans += e.ff_spans;
                acc.ff_cycles += e.ff_cycles;
                acc
            });
    println!("timeline: {title}");
    println!(
        "  cycles {}   issued {}   ipc {:.3}",
        outcome.stats.cycles,
        outcome.stats.instructions(),
        outcome.stats.ipc()
    );
    println!(
        "  events {} recorded, {} dropped   epochs {} x {} cycles",
        log.events.len(),
        log.dropped,
        log.epochs.len(),
        log.epoch_len
    );
    println!(
        "  gating: {} gates, {} wakeups ({} critical, {} wasted), {} blackout holds",
        totals.gate_events,
        totals.wakeups,
        totals.critical_wakeups,
        totals.wasted_gates,
        totals.blackout_holds
    );
    println!(
        "  clock: {} fast-forward spans covering {} cycles",
        totals.ff_spans, totals.ff_cycles
    );
    println!(
        "  event core: {} events dispatched, queue peak {}, {} idle cycles skipped",
        outcome.stats.events_dispatched,
        outcome.stats.heap_peak,
        outcome.stats.fast_forwarded_cycles
    );
    let mem = outcome.stats.mem;
    if mem.hierarchy {
        println!(
            "  memory: {} accesses, L1 hit {:.1}%, L2 miss {:.1}%, {} merges, \
             {} fills, MSHR peak {}/{}",
            mem.accesses,
            100.0 * mem.l1_hit_rate(),
            100.0 * mem.l2_miss_rate(),
            mem.mshr_merges,
            mem.fills,
            mem.mshr_peak,
            mem.mshr_capacity
        );
    } else {
        println!(
            "  memory: flat latency model, {} loads, outstanding peak {}/{}",
            mem.accesses, mem.mshr_peak, mem.mshr_capacity
        );
    }
    println!("wrote {}", trace_path.display());
    println!("wrote {}", metrics_path.display());
    println!("open the trace at https://ui.perfetto.dev (or chrome://tracing)");
    ExitCode::SUCCESS
}
