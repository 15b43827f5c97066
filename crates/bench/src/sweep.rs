//! The fault-tolerant sweep engine behind the `sweep` binary.
//!
//! A sweep runs the full benchmark × technique grid through the
//! fallible runner ([`warped_gates::runner::run_grid_fallible_with`])
//! and survives three kinds of trouble:
//!
//! * **a panicking cell** — isolated on its worker; every other cell
//!   completes bit-identically and the failure lands in a manifest;
//! * **a hung cell** — cut off by the per-job wall-clock watchdog and
//!   reported as timed out;
//! * **an interrupted process** — every completed cell was already
//!   journaled to `sweep_journal.jsonl`, so `resume: true` re-runs only
//!   the missing cells and merges to a bit-identical `bench_grid.json`.
//!
//! Degraded cells are deliberately *not* journaled: on resume they run
//! again, so a transient failure heals itself.

use crate::grid::GridTable;
use crate::journal::{self, JournalEntry};
use crate::write_json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use warped_gates::runner::{self, GridJob, RunOutcome};
use warped_gates::{CoreClock, Experiment};
use warped_telemetry::json::escape;
use warped_trace::TraceWorkload;

/// Everything a sweep needs to know, CLI-independent.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Workload scale factor in `(0, 1]`.
    pub scale: f64,
    /// Worker-pool size (must be at least 1).
    pub workers: usize,
    /// Arm the gating invariant sanitizer inside every run.
    pub sanitize: bool,
    /// Reuse journaled cells instead of starting from scratch.
    pub resume: bool,
    /// SM clock backend. All backends produce bit-identical grids (the
    /// equivalence suite pins this down), so resuming a journal written
    /// under a different backend is sound; only wall time differs,
    /// which is why `bench_wall.json` totals are keyed per backend.
    pub core: CoreClock,
    /// Directory for `bench_grid.json`, the journal, and the failure
    /// manifest.
    pub out_dir: PathBuf,
    /// Per-job wall-clock watchdog.
    pub job_timeout: Option<std::time::Duration>,
    /// Grid indices to poison so they panic mid-run (fault-injection
    /// hook for the chaos tests and `verify.sh`'s chaos smoke).
    pub chaos: Vec<usize>,
    /// Suppress per-cell progress lines on stderr.
    pub quiet: bool,
    /// Replay this grid cell with telemetry armed after the sweep and
    /// write its Perfetto trace into the output directory.
    pub trace_cell: Option<usize>,
    /// Run every cell through the cycle-accurate L1/L2 + MSHR memory
    /// hierarchy instead of the legacy latency model. Hierarchical rows
    /// are a *different* grid (different fingerprints, different cycle
    /// counts), so point `out_dir` somewhere other than the committed
    /// default-model results.
    pub mem_hierarchy: Option<warped_sim::HierarchyConfig>,
    /// A directory of captured `*.wgt1` workload traces to run (each
    /// crossed with every technique) after the synthetic grid, written
    /// to `bench_trace_grid.json`. Trace cells are stateless: no
    /// journal, no resume — the corpus is small and each cell replays
    /// in milliseconds.
    pub trace_dir: Option<PathBuf>,
}

impl SweepConfig {
    /// A sweep over `out_dir` with everything else at its default:
    /// full scale, the given worker count, sanitizer off, no resume,
    /// no watchdog, no chaos.
    #[must_use]
    pub fn new(out_dir: impl Into<PathBuf>, workers: usize) -> Self {
        SweepConfig {
            scale: 1.0,
            workers,
            sanitize: false,
            resume: false,
            core: CoreClock::default(),
            out_dir: out_dir.into(),
            job_timeout: None,
            chaos: Vec::new(),
            quiet: false,
            trace_cell: None,
            mem_hierarchy: None,
            trace_dir: None,
        }
    }
}

/// One grid cell that did not produce a clean result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// The cell's index in the full grid.
    pub index: usize,
    /// `"{benchmark}/{technique}"`.
    pub label: String,
    /// What went wrong, as reported by
    /// [`RunOutcome::degradation`].
    pub reason: String,
}

/// What a sweep accomplished.
#[derive(Debug)]
pub struct SweepSummary {
    /// Total cells in the grid.
    pub total: usize,
    /// Cells reused from the journal (resume).
    pub reused: usize,
    /// Cells actually executed this run.
    pub ran: usize,
    /// Cells that panicked or timed out this run.
    pub failures: Vec<CellFailure>,
}

impl SweepSummary {
    /// True when every cell of the grid completed cleanly.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The row label every sweep artifact keys on.
#[must_use]
pub fn cell_label(job: &GridJob) -> String {
    format!("{}/{}", job.0.name, job.1.name())
}

/// The journal path inside an output directory.
#[must_use]
pub fn journal_path(out_dir: &Path) -> PathBuf {
    out_dir.join("sweep_journal.jsonl")
}

/// The failure-manifest path inside an output directory.
#[must_use]
pub fn manifest_path(out_dir: &Path) -> PathBuf {
    out_dir.join("sweep_failures.json")
}

/// The wall-clock report path inside an output directory.
#[must_use]
pub fn wall_path(out_dir: &Path) -> PathBuf {
    out_dir.join("bench_wall.json")
}

/// Reads the `TOTAL/<core>` aggregate rows back out of an existing
/// `bench_wall.json`, so a sweep under one clock backend preserves the
/// totals measured under the others. Missing or malformed files read
/// as empty — wall numbers are diagnostics, never inputs.
fn read_wall_totals(path: &Path) -> Vec<(String, f64)> {
    let Ok(table) = GridTable::load(path) else {
        return Vec::new();
    };
    table
        .rows
        .into_iter()
        .filter_map(|row| {
            let secs = *row.values.first()?;
            (row.label.starts_with("TOTAL/") && secs.is_finite()).then_some((row.label, secs))
        })
        .collect()
}

/// Runs the full 18 × 6 grid under `config`.
///
/// # Errors
///
/// Returns an I/O error if the journal or output files cannot be
/// written. Cell-level trouble is *not* an error — it lands in the
/// summary's `failures`.
///
/// # Panics
///
/// Panics if a chaos index is outside the grid.
pub fn run(config: &SweepConfig) -> std::io::Result<SweepSummary> {
    run_on(config, runner::full_grid())
}

/// [`run`] on an explicit job list (the tests use tiny grids).
///
/// # Errors
///
/// Returns an I/O error if the journal or output files cannot be
/// written.
///
/// # Panics
///
/// Panics if a chaos index is outside the grid or `workers` is zero.
pub fn run_on(config: &SweepConfig, mut jobs: Vec<GridJob>) -> std::io::Result<SweepSummary> {
    let labels: Vec<String> = jobs.iter().map(cell_label).collect();
    let total = jobs.len();
    for &i in &config.chaos {
        assert!(i < total, "chaos index {i} outside the {total}-cell grid");
        // An out-of-range hit rate fails MemoryConfig validation inside
        // the run, so the injected panic travels the real code path.
        jobs[i].0.l1_hit_rate = 2.0;
    }

    std::fs::create_dir_all(&config.out_dir)?;
    let journal_file = journal_path(&config.out_dir);
    let mut done: BTreeMap<usize, JournalEntry> = BTreeMap::new();
    if config.resume {
        for entry in journal::load(&journal_file)? {
            // Ignore entries from a different grid shape or labeling.
            if labels.get(entry.index) == Some(&entry.label) {
                done.insert(entry.index, entry);
            }
        }
    } else {
        match std::fs::remove_file(&journal_file) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }

    let pending: Vec<usize> = (0..total).filter(|i| !done.contains_key(i)).collect();
    let pending_jobs: Vec<GridJob> = pending.iter().map(|&i| jobs[i].clone()).collect();
    if !config.quiet {
        eprintln!(
            "sweep: {total} cells, {} journaled, {} to run on {} workers",
            done.len(),
            pending.len(),
            config.workers
        );
    }

    let experiment = Experiment::paper_defaults()
        .with_scale(config.scale)
        .with_sanitize(config.sanitize)
        .with_job_timeout(config.job_timeout)
        .with_core(config.core)
        .with_memory_hierarchy(config.mem_hierarchy.clone());

    let sink = Mutex::new(
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_file)?,
    );
    let outcomes = runner::run_grid_fallible_with(
        &experiment,
        &pending_jobs,
        config.workers,
        |local, outcome| {
            let global = pending[local];
            // Only clean cells are durable; degraded ones re-run on
            // resume.
            if let RunOutcome::Ok(timed) = outcome {
                let entry = JournalEntry {
                    index: global,
                    label: labels[global].clone(),
                    cycles: timed.run.cycles,
                    ff_cycles: timed.run.stats.fast_forwarded_cycles,
                };
                let mut file = sink.lock().expect("journal writer poisoned");
                if let Err(e) = entry.append(&mut file) {
                    eprintln!("warning: could not journal cell {global}: {e}");
                }
            }
            if !config.quiet {
                match outcome {
                    RunOutcome::Ok(t) => eprintln!(
                        "  {:<38} {:>12} cycles  {:>9.3}s",
                        labels[global],
                        t.run.cycles,
                        t.elapsed.as_secs_f64()
                    ),
                    degraded => eprintln!(
                        "  {:<38} FAILED: {}",
                        labels[global],
                        degraded.degradation().unwrap_or_default()
                    ),
                }
            }
        },
    );

    let mut failures = Vec::new();
    let mut wall: BTreeMap<usize, f64> = BTreeMap::new();
    for (local, outcome) in outcomes.into_iter().enumerate() {
        let global = pending[local];
        match outcome {
            RunOutcome::Ok(timed) => {
                wall.insert(global, timed.elapsed.as_secs_f64());
                done.insert(
                    global,
                    JournalEntry {
                        index: global,
                        label: labels[global].clone(),
                        cycles: timed.run.cycles,
                        ff_cycles: timed.run.stats.fast_forwarded_cycles,
                    },
                );
            }
            degraded => failures.push(CellFailure {
                index: global,
                label: labels[global].clone(),
                reason: degraded.degradation().unwrap_or_default(),
            }),
        }
    }

    // The merged grid: journal-reused and freshly-run cells in global
    // index order, so a resumed sweep is bit-identical to an
    // uninterrupted one. Failed cells have no row.
    let rows: Vec<(String, Vec<f64>)> = done
        .values()
        .map(|e| (e.label.clone(), vec![e.cycles as f64, e.ff_cycles as f64]))
        .collect();
    write_json(
        &config.out_dir,
        "bench grid",
        &["cycles", "ff_cycles"],
        &rows,
    )?;

    // Wall-clock sidecar (diagnostic, never journaled): one row of
    // wall seconds per cell executed this invocation, plus a
    // `TOTAL/<core>` aggregate per clock backend. A backend's TOTAL is
    // only (re)written by a clean, complete, from-scratch sweep — a
    // resumed or failing run would under-count — while totals measured
    // under the *other* backends are carried over verbatim, so one
    // artifact accumulates the before/after comparison.
    let mut wall_rows: Vec<(String, Vec<f64>)> = wall
        .iter()
        .map(|(&i, &secs)| (labels[i].clone(), vec![secs]))
        .collect();
    let mut totals: BTreeMap<String, f64> = read_wall_totals(&wall_path(&config.out_dir))
        .into_iter()
        .collect();
    if failures.is_empty() && pending.len() == total {
        totals.insert(format!("TOTAL/{}", config.core.name()), wall.values().sum());
    }
    wall_rows.extend(totals.into_iter().map(|(label, secs)| (label, vec![secs])));
    write_json(&config.out_dir, "bench wall", &["seconds"], &wall_rows)?;

    let manifest = manifest_path(&config.out_dir);
    if failures.is_empty() {
        match std::fs::remove_file(&manifest) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    } else {
        write_manifest(&manifest, &failures)?;
    }

    Ok(SweepSummary {
        total,
        reused: total - pending.len(),
        ran: pending.len(),
        failures,
    })
}

/// The trace-grid artifact path inside an output directory.
#[must_use]
pub fn trace_grid_path(out_dir: &Path) -> PathBuf {
    out_dir.join("bench_trace_grid.json")
}

/// Loads every `*.wgt1` file under `dir`, sorted by file name so the
/// resulting grid order is stable across filesystems.
///
/// # Errors
///
/// Returns an I/O error if the directory is unreadable or any trace
/// fails to parse (the parse diagnostic, with its file name, becomes
/// the error message) — a corrupt corpus should fail the sweep loudly,
/// not silently shrink the grid.
pub fn load_trace_dir(dir: &Path) -> std::io::Result<Vec<std::sync::Arc<TraceWorkload>>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "wgt1"))
        .collect();
    paths.sort();
    let mut traces = Vec::with_capacity(paths.len());
    for path in paths {
        let file = std::fs::File::open(&path)?;
        let workload = warped_trace::parse_reader(std::io::BufReader::new(file))
            .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))?;
        traces.push(std::sync::Arc::new(workload));
    }
    Ok(traces)
}

/// Runs a trace corpus — every loaded trace crossed with every
/// technique — under the sweep's experiment settings and writes the
/// rows to `bench_trace_grid.json` (labels `trace:<name>/<technique>`,
/// values `[cycles, ff_cycles]`). Returns the number of cells run.
///
/// # Errors
///
/// Returns an I/O error if the corpus or the output file cannot be
/// read/written.
///
/// # Panics
///
/// Panics if a trace cell itself panics — trace cells skip the
/// fault-tolerant runner (no journal to protect; the corpus gate wants
/// loud failures).
pub fn run_traces(config: &SweepConfig, dir: &Path) -> std::io::Result<usize> {
    let traces = load_trace_dir(dir)?;
    let experiment = Experiment::paper_defaults()
        .with_scale(config.scale)
        .with_sanitize(config.sanitize)
        .with_job_timeout(config.job_timeout)
        .with_core(config.core)
        .with_memory_hierarchy(config.mem_hierarchy.clone());
    let jobs = runner::trace_grid_of(&traces, &warped_gates::Technique::ALL);
    let runs = runner::run_trace_grid_with(&experiment, &jobs, config.workers);
    let rows: Vec<(String, Vec<f64>)> = jobs
        .iter()
        .zip(&runs)
        .map(|((trace, technique), run)| {
            (
                format!("trace:{}/{}", trace.name, technique.name()),
                vec![run.cycles as f64, run.stats.fast_forwarded_cycles as f64],
            )
        })
        .collect();
    if !config.quiet {
        for ((_, _), row) in jobs.iter().zip(&rows) {
            eprintln!("  {:<38} {:>12} cycles", row.0, row.1[0]);
        }
    }
    std::fs::create_dir_all(&config.out_dir)?;
    write_json(
        &config.out_dir,
        "bench trace grid",
        &["cycles", "ff_cycles"],
        &rows,
    )?;
    Ok(rows.len())
}

/// The Perfetto trace path [`trace_cell`] writes for a grid index.
#[must_use]
pub fn trace_path(out_dir: &Path, index: usize) -> PathBuf {
    out_dir.join(format!("trace_cell_{index}.perfetto.json"))
}

/// Replays one grid cell with telemetry armed and writes its Perfetto
/// trace into the output directory (see [`trace_path`]), returning the
/// path.
///
/// The replay runs the cell exactly as the sweep did (same scale,
/// sanitizer, and watchdog settings) — recording is observe-only, so
/// the traced run's cycle count matches the journaled one — and drains
/// the recorder through the bounded-chunk path the service layer
/// streams over HTTP.
///
/// # Errors
///
/// Returns an I/O error if the trace cannot be written.
///
/// # Panics
///
/// Panics if `index` is outside the 108-cell grid or the replayed cell
/// itself panics (no worker isolation here: a trace of a crashing cell
/// should crash loudly).
pub fn trace_cell(config: &SweepConfig, index: usize) -> std::io::Result<PathBuf> {
    let jobs = runner::full_grid();
    assert!(
        index < jobs.len(),
        "trace cell {index} outside the {}-cell grid",
        jobs.len()
    );
    let (spec, technique) = &jobs[index];
    let label = cell_label(&jobs[index]);
    let recorder = warped_telemetry::Recorder::new(warped_telemetry::RecorderConfig {
        capacity: 1 << 20,
        epoch_len: 1000,
    });
    let experiment = Experiment::paper_defaults()
        .with_scale(config.scale)
        .with_sanitize(config.sanitize)
        .with_job_timeout(config.job_timeout)
        .with_core(config.core)
        .with_memory_hierarchy(config.mem_hierarchy.clone())
        .with_telemetry(Some(recorder.clone()));
    let run = experiment.run(spec, *technique);

    // Bounded-chunk drain, then take() for the epoch/baseline metadata.
    let mut events = Vec::new();
    for chunk in recorder.drain_chunks(64 * 1024) {
        events.extend(chunk);
    }
    let mut log = recorder.take();
    log.events = events;
    let title = format!("{label} @ scale {}", config.scale);
    let trace = warped_telemetry::perfetto::render(&log, experiment.layout(), &title);

    std::fs::create_dir_all(&config.out_dir)?;
    let path = trace_path(&config.out_dir, index);
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, trace)?;
    std::fs::rename(&tmp, &path)?;
    if !config.quiet {
        eprintln!(
            "sweep: traced cell {index} ({label}), {} cycles, {} events",
            run.cycles,
            log.events.len()
        );
    }
    Ok(path)
}

/// Writes the failure manifest atomically (temp file + rename).
fn write_manifest(path: &Path, failures: &[CellFailure]) -> std::io::Result<()> {
    let mut out = String::from("{\"failures\":[");
    for (i, f) in failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"index\":{},\"label\":\"{}\",\"reason\":\"{}\"}}",
            f.index,
            escape(&f.label),
            escape(&f.reason)
        ));
    }
    out.push_str("]}\n");
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, out)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_gates::Technique;
    use warped_workloads::Benchmark;

    fn tiny_config(dir: &str) -> SweepConfig {
        let out = std::env::temp_dir().join(dir);
        std::fs::remove_dir_all(&out).ok();
        SweepConfig {
            scale: 0.05,
            quiet: true,
            ..SweepConfig::new(out, 2)
        }
    }

    fn tiny_grid() -> Vec<GridJob> {
        runner::grid_of(
            &[Benchmark::Hotspot, Benchmark::Srad],
            &[Technique::Baseline, Technique::WarpedGates],
        )
    }

    #[test]
    fn clean_sweep_journals_every_cell_and_writes_the_grid() {
        let config = tiny_config("warped_sweep_clean_test");
        let summary = run_on(&config, tiny_grid()).unwrap();
        assert!(summary.ok());
        assert_eq!((summary.total, summary.reused, summary.ran), (4, 0, 4));
        let entries = journal::load(&journal_path(&config.out_dir)).unwrap();
        assert_eq!(entries.len(), 4);
        assert!(config.out_dir.join("bench_grid.json").exists());
        assert!(!manifest_path(&config.out_dir).exists());
        std::fs::remove_dir_all(&config.out_dir).ok();
    }

    #[test]
    fn wall_file_accumulates_totals_per_core() {
        let config = tiny_config("warped_sweep_wall_test");
        assert!(run_on(&config, tiny_grid()).unwrap().ok());
        let text = std::fs::read_to_string(wall_path(&config.out_dir)).unwrap();
        assert!(text.contains("hotspot/Baseline"), "per-cell row: {text}");
        assert!(text.contains("TOTAL/event-queue"), "aggregate row: {text}");

        // Re-sweeping under another backend adds its TOTAL without
        // clobbering the event-queue one.
        let mut ff = config.clone();
        ff.core = CoreClock::FastForward;
        assert!(run_on(&ff, tiny_grid()).unwrap().ok());
        let text = std::fs::read_to_string(wall_path(&config.out_dir)).unwrap();
        assert!(text.contains("TOTAL/event-queue"), "preserved: {text}");
        assert!(text.contains("TOTAL/fast-forward"), "added: {text}");

        // A resumed (partial) sweep must not rewrite a full-sweep
        // total from a subset of cells.
        let jpath = journal_path(&config.out_dir);
        let kept: Vec<String> = std::fs::read_to_string(&jpath)
            .unwrap()
            .lines()
            .take(3)
            .map(str::to_owned)
            .collect();
        std::fs::write(&jpath, format!("{}\n", kept.join("\n"))).unwrap();
        let before = read_wall_totals(&wall_path(&config.out_dir));
        let mut resumed = ff.clone();
        resumed.resume = true;
        assert!(run_on(&resumed, tiny_grid()).unwrap().ok());
        assert_eq!(
            read_wall_totals(&wall_path(&config.out_dir)),
            before,
            "partial sweeps leave totals alone"
        );
        std::fs::remove_dir_all(&config.out_dir).ok();
    }

    #[test]
    fn hierarchical_sweep_completes_and_diverges_from_the_default_grid() {
        let config = tiny_config("warped_sweep_hier_test");
        assert!(run_on(&config, tiny_grid()).unwrap().ok());
        let legacy = std::fs::read_to_string(config.out_dir.join("bench_grid.json")).unwrap();

        let mut hier = tiny_config("warped_sweep_hier_test_armed");
        hier.sanitize = true; // conservation invariants checked in-run
        hier.mem_hierarchy = Some(warped_sim::HierarchyConfig::default());
        assert!(run_on(&hier, tiny_grid()).unwrap().ok());
        let armed = std::fs::read_to_string(hier.out_dir.join("bench_grid.json")).unwrap();

        assert_ne!(
            legacy, armed,
            "real cache state must reshape at least one cell's cycle count"
        );
        std::fs::remove_dir_all(&config.out_dir).ok();
        std::fs::remove_dir_all(&hier.out_dir).ok();
    }

    #[test]
    fn chaos_cell_fails_alone_and_lands_in_the_manifest() {
        let mut config = tiny_config("warped_sweep_chaos_test");
        config.chaos = vec![1];
        let summary = run_on(&config, tiny_grid()).unwrap();
        assert!(!summary.ok());
        assert_eq!(summary.failures.len(), 1);
        assert_eq!(summary.failures[0].index, 1);
        assert!(
            summary.failures[0].reason.contains("l1_hit_rate"),
            "reason: {}",
            summary.failures[0].reason
        );
        let manifest = std::fs::read_to_string(manifest_path(&config.out_dir)).unwrap();
        assert!(manifest.contains("l1_hit_rate"));
        // The other three cells completed and were journaled.
        assert_eq!(
            journal::load(&journal_path(&config.out_dir)).unwrap().len(),
            3
        );
        std::fs::remove_dir_all(&config.out_dir).ok();
    }

    #[test]
    fn resume_reuses_the_journal_and_merges_bit_identically() {
        let config = tiny_config("warped_sweep_resume_test");
        let jobs = tiny_grid();
        let clean = run_on(&config, jobs.clone()).unwrap();
        assert!(clean.ok());
        let reference = std::fs::read(config.out_dir.join("bench_grid.json")).unwrap();

        // Forge an interruption: drop the last two journal lines.
        let jpath = journal_path(&config.out_dir);
        let text = std::fs::read_to_string(&jpath).unwrap();
        let kept: Vec<&str> = text.lines().take(2).collect();
        std::fs::write(&jpath, format!("{}\n", kept.join("\n"))).unwrap();

        let mut resumed_config = config.clone();
        resumed_config.resume = true;
        let resumed = run_on(&resumed_config, jobs).unwrap();
        assert!(resumed.ok());
        assert_eq!((resumed.reused, resumed.ran), (2, 2));
        let merged = std::fs::read(config.out_dir.join("bench_grid.json")).unwrap();
        assert_eq!(merged, reference, "resume must be bit-identical");
        std::fs::remove_dir_all(&config.out_dir).ok();
    }

    #[test]
    fn run_traces_writes_the_trace_grid() {
        let config = tiny_config("warped_sweep_trace_dir_test");
        let corpus = config.out_dir.join("corpus");
        std::fs::create_dir_all(&corpus).unwrap();
        // Capture a pre-scaled benchmark so the corpus cells replay in
        // milliseconds at the sweep's own scale 1.0... the tiny_config
        // scale (0.05) would re-scale trace trips differently from the
        // spec path, so pin scale 1.0 here and shrink via the capture.
        let spec = Benchmark::Nw.spec().scaled(0.05);
        let kernel = spec.kernel();
        let text = warped_trace::capture(&warped_trace::CaptureSpec {
            name: spec.name,
            kernel: &kernel,
            total_warps: spec.total_warps,
            block_warps: spec.block_warps,
            stagger: spec.body_len as u32,
            waves: spec.launches,
            l1_hit_rate: spec.l1_hit_rate,
            mem_seed: spec.seed ^ 0xdead_beef,
        });
        std::fs::write(corpus.join("nw.wgt1"), &text).unwrap();
        std::fs::write(corpus.join("ignored.txt"), "not a trace").unwrap();

        let mut config = config;
        config.scale = 1.0;
        let cells = run_traces(&config, &corpus).unwrap();
        assert_eq!(cells, 6, "one trace x six techniques");
        let grid = std::fs::read_to_string(trace_grid_path(&config.out_dir)).unwrap();
        assert!(grid.contains("trace:nw/Baseline"), "{grid}");
        assert!(grid.contains("trace:nw/Warped Gates"), "{grid}");

        // A corrupt trace fails the whole corpus loudly.
        std::fs::write(corpus.join("bad.wgt1"), "WGTX nope\n").unwrap();
        let err = run_traces(&config, &corpus).unwrap_err();
        assert!(err.to_string().contains("bad.wgt1"), "{err}");
        std::fs::remove_dir_all(&config.out_dir).ok();
    }

    #[test]
    fn trace_cell_writes_a_perfetto_trace() {
        let config = tiny_config("warped_sweep_trace_cell_test");
        let path = trace_cell(&config, 0).unwrap();
        assert_eq!(path, trace_path(&config.out_dir, 0));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(
            text.contains("backprop/Baseline @ scale 0.05"),
            "cell 0 is backprop/Baseline"
        );
        assert!(!path.with_extension("json.tmp").exists());
        std::fs::remove_dir_all(&config.out_dir).ok();
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn trace_cell_index_must_be_in_the_grid() {
        let config = tiny_config("warped_sweep_trace_oob_test");
        let _ = trace_cell(&config, 108);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn chaos_index_must_be_in_the_grid() {
        let mut config = tiny_config("warped_sweep_chaos_oob_test");
        config.chaos = vec![99];
        let _ = run_on(&config, tiny_grid());
    }
}
