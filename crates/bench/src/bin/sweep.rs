//! Full-grid sweep: every benchmark × every technique through the
//! fault-tolerant engine ([`warped_bench::sweep`]).
//!
//! Each completed cell is journaled to `<out-dir>/sweep_journal.jsonl`
//! the moment it lands, so an interrupted sweep picks up with
//! `--resume` and produces a bit-identical `<out-dir>/bench_grid.json`.
//! A cell that panics or trips the `--timeout-secs` watchdog is
//! isolated: the rest of the grid completes, the failure lands in
//! `<out-dir>/sweep_failures.json`, and the exit code is 1.
//!
//! Usage:
//! `sweep [--scale <f>] [--jobs <n>] [--core <clock>] [--resume] [--sanitize]
//!        [--out-dir <dir>] [--timeout-secs <s>] [--chaos <i,j,...>]`

use std::process::ExitCode;
use warped_bench::sweep::{self, SweepConfig};
use warped_bench::{exit_usage, workers_or_exit, ArgError};
use warped_gates::CoreClock;

const USAGE: &str = "[--scale <f in (0,1]>] [--jobs <n >= 1>] \
[--core event-queue|stepped] [--resume] [--sanitize] \
[--mem-hierarchy] [--out-dir <dir>] [--timeout-secs <s > 0>] \
[--chaos <i,j,...>] [--trace-cell <i>] [--trace-dir <dir of *.wgt1>]";

fn parse_args(args: &[String]) -> Result<SweepConfig, ArgError> {
    let mut config = SweepConfig::new("results", workers_or_exit());
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, ArgError> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| ArgError::MissingValue(flag.to_owned()))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let v = value(args, i, "--scale")?;
                let bad = || ArgError::BadValue {
                    flag: "--scale".to_owned(),
                    value: v.clone(),
                    expected: "a number in (0,1]",
                };
                let scale: f64 = v.parse().map_err(|_| bad())?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(bad());
                }
                config.scale = scale;
                i += 2;
            }
            "--jobs" => {
                let v = value(args, i, "--jobs")?;
                let workers: usize = v.parse().map_err(|_| ArgError::BadValue {
                    flag: "--jobs".to_owned(),
                    value: v.clone(),
                    expected: "a positive integer",
                })?;
                if workers == 0 {
                    return Err(ArgError::BadValue {
                        flag: "--jobs".to_owned(),
                        value: v,
                        expected: "a positive integer",
                    });
                }
                config.workers = workers;
                i += 2;
            }
            "--core" => {
                let v = value(args, i, "--core")?;
                config.core = CoreClock::parse(&v).map_err(|_| ArgError::BadValue {
                    flag: "--core".to_owned(),
                    value: v,
                    expected: "event-queue or stepped",
                })?;
                i += 2;
            }
            "--resume" => {
                config.resume = true;
                i += 1;
            }
            "--sanitize" => {
                config.sanitize = true;
                i += 1;
            }
            "--mem-hierarchy" => {
                config.mem_hierarchy = Some(warped_sim::HierarchyConfig::default());
                i += 1;
            }
            "--out-dir" => {
                config.out_dir = value(args, i, "--out-dir")?.into();
                i += 2;
            }
            "--timeout-secs" => {
                let v = value(args, i, "--timeout-secs")?;
                let secs: f64 = v.parse().map_err(|_| ArgError::BadValue {
                    flag: "--timeout-secs".to_owned(),
                    value: v.clone(),
                    expected: "a positive number of seconds",
                })?;
                if secs <= 0.0 || !secs.is_finite() {
                    return Err(ArgError::BadValue {
                        flag: "--timeout-secs".to_owned(),
                        value: v,
                        expected: "a positive number of seconds",
                    });
                }
                config.job_timeout = Some(std::time::Duration::from_secs_f64(secs));
                i += 2;
            }
            "--trace-cell" => {
                let v = value(args, i, "--trace-cell")?;
                let cell: usize = v.parse().map_err(|_| ArgError::BadValue {
                    flag: "--trace-cell".to_owned(),
                    value: v.clone(),
                    expected: "a grid index below 108",
                })?;
                config.trace_cell = Some(cell);
                i += 2;
            }
            "--trace-dir" => {
                config.trace_dir = Some(value(args, i, "--trace-dir")?.into());
                i += 2;
            }
            "--chaos" => {
                let v = value(args, i, "--chaos")?;
                config.chaos = v
                    .split(',')
                    .map(|s| {
                        s.trim().parse::<usize>().map_err(|_| ArgError::BadValue {
                            flag: "--chaos".to_owned(),
                            value: v.clone(),
                            expected: "comma-separated grid indices",
                        })
                    })
                    .collect::<Result<_, _>>()?;
                i += 2;
            }
            other => return Err(ArgError::Unknown(other.to_owned())),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = parse_args(&args).unwrap_or_else(|e| exit_usage(&e, USAGE));
    if config.chaos.iter().any(|&i| i >= 108) {
        exit_usage(
            &ArgError::BadValue {
                flag: "--chaos".to_owned(),
                value: format!("{:?}", config.chaos),
                expected: "indices below 108 (18 benchmarks x 6 techniques)",
            },
            USAGE,
        );
    }
    if config.trace_cell.is_some_and(|i| i >= 108) {
        exit_usage(
            &ArgError::BadValue {
                flag: "--trace-cell".to_owned(),
                value: format!("{}", config.trace_cell.unwrap()),
                expected: "a grid index below 108 (18 benchmarks x 6 techniques)",
            },
            USAGE,
        );
    }

    println!(
        "sweep: full grid at scale {}, {} workers, {} core{}{}{}",
        config.scale,
        config.workers,
        config.core.name(),
        if config.sanitize { ", sanitized" } else { "" },
        if config.resume { ", resuming" } else { "" },
        if config.mem_hierarchy.is_some() {
            ", L1/L2 hierarchy"
        } else {
            ""
        },
    );

    let summary = match sweep::run(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sweep: I/O error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "sweep: {} cells ({} reused from journal, {} run), {} failed",
        summary.total,
        summary.reused,
        summary.ran,
        summary.failures.len()
    );
    println!("wrote {}", config.out_dir.join("bench_grid.json").display());
    println!("wrote {}", sweep::wall_path(&config.out_dir).display());
    if let Some(cell) = config.trace_cell {
        match sweep::trace_cell(&config, cell) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("sweep: cell trace failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = &config.trace_dir {
        match sweep::run_traces(&config, dir) {
            Ok(cells) => {
                println!(
                    "sweep: {cells} trace cells, wrote {}",
                    sweep::trace_grid_path(&config.out_dir).display()
                );
            }
            Err(e) => {
                eprintln!("sweep: trace corpus failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if summary.ok() {
        ExitCode::SUCCESS
    } else {
        for f in &summary.failures {
            eprintln!("sweep: cell {} ({}) failed: {}", f.index, f.label, f.reason);
        }
        eprintln!(
            "sweep: failure manifest at {}",
            sweep::manifest_path(&config.out_dir).display()
        );
        ExitCode::FAILURE
    }
}
