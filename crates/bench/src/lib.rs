//! # warped-bench
//!
//! Shared machinery for the figure-regeneration binaries and Criterion
//! benchmarks of the Warped Gates reproduction.
//!
//! Every figure in the paper's evaluation has a binary under
//! `src/bin/` that re-runs the corresponding experiment and prints the
//! same rows/series the paper plots (see `DESIGN.md` §4 for the index).
//! This library hosts the pieces they share: a fixed-width table
//! printer, a scale-factor argument parser, and a cached runner over the
//! benchmark × technique grid.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod journal;
pub mod sweep;
pub mod timing;

use std::collections::BTreeMap;
use warped_gates::{runner, Experiment, Technique, TechniqueRun};
use warped_sim::parallel::try_worker_count;
use warped_telemetry::json::escape;
use warped_workloads::Benchmark;

/// A malformed command line, as every binary in this crate reports it:
/// the error plus a usage line on stderr, exit code 2 — never an
/// unwinding panic with a backtrace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A flag was given without its required value.
    MissingValue(String),
    /// A flag's value failed to parse or fell outside its range.
    BadValue {
        /// The flag (or environment variable) at fault.
        flag: String,
        /// The offending value as given.
        value: String,
        /// What a valid value looks like.
        expected: &'static str,
    },
    /// An argument no binary recognises.
    Unknown(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} value '{value}' is invalid (expected {expected})"),
            ArgError::Unknown(arg) => write!(f, "unknown argument '{arg}'"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parses `--scale <f>` from an argument list (default 1.0).
///
/// # Errors
///
/// Returns an [`ArgError`] for a missing value, a non-numeric or
/// out-of-range scale, or any unrecognised argument.
pub fn parse_scale_args(args: &[String]) -> Result<f64, ArgError> {
    let mut scale = 1.0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| ArgError::MissingValue("--scale".to_owned()))?;
                scale = v.parse::<f64>().map_err(|_| ArgError::BadValue {
                    flag: "--scale".to_owned(),
                    value: v.clone(),
                    expected: "a number in (0,1]",
                })?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(ArgError::BadValue {
                        flag: "--scale".to_owned(),
                        value: v.clone(),
                        expected: "a number in (0,1]",
                    });
                }
                i += 2;
            }
            other => return Err(ArgError::Unknown(other.to_owned())),
        }
    }
    Ok(scale)
}

/// Parses `--scale <f>` from the command line (default 1.0).
///
/// All figure binaries accept it so that a fast smoke run
/// (`--scale 0.1`) and the full-size experiment use the same code path.
/// On a malformed command line this prints the error plus usage to
/// stderr and exits with code 2.
#[must_use]
pub fn scale_from_args() -> f64 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_scale_args(&args).unwrap_or_else(|e| exit_usage(&e, "[--scale <f in (0,1]>]"))
}

/// Reports a command-line error the way every binary here does: the
/// error and a usage line on stderr, then exit code 2.
pub fn exit_usage(err: &ArgError, usage: &str) -> ! {
    let bin = std::env::args()
        .next()
        .map(|p| {
            std::path::Path::new(&p)
                .file_name()
                .map_or_else(|| p.clone(), |n| n.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "bench".to_owned());
    eprintln!("{bin}: {err}");
    eprintln!("usage: {bin} {usage}");
    std::process::exit(2)
}

/// The effective worker count, like
/// [`warped_sim::parallel::worker_count`] but reporting a malformed
/// `WARPED_JOBS` as a proper CLI error (stderr + exit 2) instead of a
/// panic backtrace.
#[must_use]
pub fn workers_or_exit() -> usize {
    try_worker_count().unwrap_or_else(|e| {
        exit_usage(
            &ArgError::BadValue {
                flag: "WARPED_JOBS".to_owned(),
                value: e,
                expected: "a positive integer",
            },
            "(set WARPED_JOBS to a positive integer or unset it)",
        )
    })
}

/// Prints a fixed-width table: a label column plus numeric columns.
///
/// When the `WARPED_BENCH_JSON` environment variable names a directory,
/// the same table is also written there as
/// `<slugified-title>.json` for machine consumption (plotting scripts,
/// regression tracking).
pub fn print_table(title: &str, headers: &[&str], rows: &[(String, Vec<f64>)]) {
    println!("\n== {title} ==");
    print!("{:<22}", "");
    for h in headers {
        print!("{h:>14}");
    }
    println!();
    for (label, values) in rows {
        print!("{label:<22}");
        for v in values {
            print!("{v:>14.4}");
        }
        println!();
    }
    if let Ok(dir) = std::env::var("WARPED_BENCH_JSON") {
        if let Err(e) = write_json(&dir, title, headers, rows) {
            eprintln!("warning: could not write JSON table: {e}");
        }
    }
}

/// Serialises one table as JSON into `dir/<slug>.json`.
///
/// The format is deliberately simple:
/// `{"title": ..., "headers": [...], "rows": [{"label": ..., "values": [...]}]}`.
///
/// The write is atomic: the table lands in `<slug>.json.tmp` first and
/// is renamed into place, so a crash mid-write never leaves a truncated
/// `<slug>.json` behind.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing the
/// file.
pub fn write_json(
    dir: impl AsRef<std::path::Path>,
    title: &str,
    headers: &[&str],
    rows: &[(String, Vec<f64>)],
) -> std::io::Result<()> {
    use std::fmt::Write as _;

    fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_owned()
        }
    }

    let slug: String = title
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_");

    let mut out = String::new();
    let _ = write!(out, "{{\"title\":\"{}\",\"headers\":[", escape(title));
    for (i, h) in headers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", escape(h));
    }
    out.push_str("],\"rows\":[");
    for (i, (label, values)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"label\":\"{}\",\"values\":[", escape(label));
        for (j, v) in values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&num(*v));
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");

    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{slug}.json.tmp"));
    std::fs::write(&tmp, out)?;
    std::fs::rename(&tmp, dir.join(format!("{slug}.json")))
}

/// A cached grid of runs over the 18 benchmarks and the requested
/// techniques, keyed by `(benchmark, technique)`.
pub struct RunGrid {
    runs: BTreeMap<(Benchmark, Technique), TechniqueRun>,
}

impl RunGrid {
    /// Runs `techniques` on every benchmark at the given scale, fanning
    /// the grid across the worker pool (`WARPED_JOBS` workers, default
    /// all cores).
    #[must_use]
    pub fn collect(scale: f64, techniques: &[Technique]) -> Self {
        Self::collect_with(Experiment::paper_defaults().with_scale(scale), techniques)
    }

    /// [`RunGrid::collect`] for a custom experiment configuration
    /// (non-default gating parameters or architectures).
    #[must_use]
    pub fn collect_with(experiment: Experiment, techniques: &[Technique]) -> Self {
        let jobs = runner::grid_of(&Benchmark::ALL, techniques);
        let workers = workers_or_exit();
        eprintln!(
            "running {} jobs ({} benchmarks x {} techniques) on {workers} workers",
            jobs.len(),
            Benchmark::ALL.len(),
            techniques.len(),
        );
        let results = runner::run_grid_with(&experiment, &jobs, workers);
        let mut runs = BTreeMap::new();
        let keys = Benchmark::ALL
            .iter()
            .flat_map(|b| techniques.iter().map(move |t| (*b, *t)));
        for ((b, t), run) in keys.zip(results) {
            assert!(!run.timed_out, "{b}/{t} timed out");
            runs.insert((b, t), run);
        }
        RunGrid { runs }
    }

    /// The cached run for one benchmark × technique pair.
    ///
    /// # Panics
    ///
    /// Panics if the pair was not part of the collected grid.
    #[must_use]
    pub fn get(&self, b: Benchmark, t: Technique) -> &TechniqueRun {
        self.runs
            .get(&(b, t))
            .unwrap_or_else(|| panic!("run {b}/{t} not collected"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_isa::UnitType;

    #[test]
    fn grid_collects_requested_pairs() {
        let grid = RunGrid::collect(0.05, &[Technique::Baseline, Technique::ConvPg]);
        for b in Benchmark::ALL {
            assert!(grid.get(b, Technique::Baseline).cycles > 0);
            assert!(grid.get(b, Technique::ConvPg).cycles > 0);
        }
    }

    #[test]
    #[should_panic(expected = "not collected")]
    fn missing_pair_panics() {
        let grid = RunGrid::collect(0.05, &[Technique::Baseline]);
        let _ = grid.get(Benchmark::Nw, Technique::WarpedGates);
    }

    #[test]
    fn write_json_produces_parseable_output() {
        let dir = std::env::temp_dir().join("warped_bench_json_test");
        let rows = vec![
            ("hotspot".to_owned(), vec![1.0, 0.5]),
            ("quote\"d".to_owned(), vec![f64::NAN]),
        ];
        write_json(dir.to_str().unwrap(), "A \"Title\"", &["x", "y"], &rows).unwrap();
        let path = dir.join("a_title.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"label\":\"hotspot\""));
        assert!(text.contains("null"), "NaN becomes null");
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_scale_args_defaults_and_parses() {
        assert_eq!(parse_scale_args(&[]), Ok(1.0));
        let args = vec!["--scale".to_owned(), "0.25".to_owned()];
        assert_eq!(parse_scale_args(&args), Ok(0.25));
    }

    #[test]
    fn parse_scale_args_rejects_bad_input_without_panicking() {
        let missing = parse_scale_args(&["--scale".to_owned()]);
        assert_eq!(missing, Err(ArgError::MissingValue("--scale".to_owned())));

        let garbage = parse_scale_args(&["--scale".to_owned(), "fast".to_owned()]);
        assert!(matches!(garbage, Err(ArgError::BadValue { .. })));

        let out_of_range = parse_scale_args(&["--scale".to_owned(), "1.5".to_owned()]);
        assert!(matches!(out_of_range, Err(ArgError::BadValue { .. })));

        let unknown = parse_scale_args(&["--speed".to_owned()]);
        assert_eq!(unknown, Err(ArgError::Unknown("--speed".to_owned())));
    }

    #[test]
    fn arg_errors_render_for_humans() {
        let e = ArgError::BadValue {
            flag: "--scale".to_owned(),
            value: "two".to_owned(),
            expected: "a number in (0,1]",
        };
        let msg = e.to_string();
        assert!(msg.contains("--scale") && msg.contains("two") && msg.contains("(0,1]"));
    }

    #[test]
    fn write_json_leaves_no_temp_file_behind() {
        let dir = std::env::temp_dir().join("warped_bench_atomic_test");
        let rows = vec![("row".to_owned(), vec![1.0])];
        write_json(&dir, "Atomic Check", &["x"], &rows).unwrap();
        assert!(dir.join("atomic_check.json").exists());
        assert!(!dir.join("atomic_check.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grid_runs_have_sensible_stats() {
        let grid = RunGrid::collect(0.05, &[Technique::Baseline]);
        let run = grid.get(Benchmark::Hotspot, Technique::Baseline);
        assert!(run.stats.issued(UnitType::Int) > 0);
        assert!(run.stats.issued(UnitType::Fp) > 0);
    }
}
