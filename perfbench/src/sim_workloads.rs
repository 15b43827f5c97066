//! The `grid` and `trace_mem` workloads: whole experiment grids on a
//! worker pool, one pass at a time.
//!
//! * `grid` — the paper's 108 cells (18 benchmarks × 6 techniques) at
//!   full scale, flat memory model, default clock, through
//!   `runner::run_grid_timed` (`run_grid_with` plus one clock read per
//!   cell, so per-cell latency comes from the same pass).
//! * `trace_mem` — the six committed `traces/*.wgt1` captures, parsed
//!   inside the timed pass, × 6 techniques at full scale with the
//!   L1/L2/MSHR hierarchy armed, through `Experiment::run_trace` on the
//!   same pool `run_trace_grid_with` uses.
//!
//! Every pass checks every cell: cycles (and fast-forwarded cycles)
//! against the committed grid for `grid`, and for both workloads a
//! digest of cycles, `GatingReport`, `MemoryStats` and INT/FP savings
//! against `perfbench/expected/<workload>.digest`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use warped_bench::grid::GridTable;
use warped_gates::runner::{full_grid, run_grid_timed, trace_grid_of, GridJob};
use warped_gates::{Experiment, RunReport, Technique, TechniqueRun};
use warped_isa::UnitType;
use warped_power::PowerParams;
use warped_sim::parallel::par_map;
use warped_sim::{HierarchyConfig, MemoryStats};
use warped_trace::TraceWorkload;

use crate::cells::{self, CellRun};
use crate::spans::now_ns;
use crate::stats::{median, percentile, permutation};
use crate::{parallelism, Args, Budget, Outcome};

/// Set-up is repeated this many times per run; its median is reported.
const SETUP_REPEATS: usize = 51;

/// Which grid workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's synthetic 108-cell grid, flat memory.
    Grid,
    /// The captured-trace grid with the memory hierarchy armed.
    TraceMem,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Grid => "grid",
            Kind::TraceMem => "trace_mem",
        }
    }

    fn committed_path(self) -> &'static str {
        match self {
            Kind::Grid => "results/bench_grid.json",
            Kind::TraceMem => "results/bench_trace_grid.json",
        }
    }

    fn experiment(self) -> Experiment {
        match self {
            Kind::Grid => Experiment::paper_defaults(),
            Kind::TraceMem => {
                Experiment::paper_defaults().with_memory_hierarchy(Some(HierarchyConfig::default()))
            }
        }
    }
}

fn digest_path(kind: Kind) -> PathBuf {
    PathBuf::from(format!("perfbench/expected/{}.digest", kind.name()))
}

/// Everything a pass needs, loaded by the timed set-up.
struct Inputs {
    /// The committed `[cycles, ff_cycles]` grid.
    committed: GridTable,
    /// Stored output digests by cell label (empty when blessing).
    digests: BTreeMap<String, u64>,
    /// `grid`: the job list, canonical order.
    jobs: Vec<GridJob>,
    /// `trace_mem`: the raw corpus, sorted by path.
    trace_files: Vec<Vec<u8>>,
}

fn load_digests(path: &Path) -> Result<BTreeMap<String, u64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (label, hex) = l
                .rsplit_once('\t')
                .ok_or_else(|| format!("malformed digest line {l:?}"))?;
            let d = u64::from_str_radix(hex.trim(), 16)
                .map_err(|_| format!("malformed digest in line {l:?}"))?;
            Ok((label.to_owned(), d))
        })
        .collect()
}

fn setup(kind: Kind, bless: bool) -> Result<Inputs, String> {
    let committed = GridTable::load(kind.committed_path())
        .map_err(|e| format!("{}: {e}", kind.committed_path()))?;
    let digests = if bless {
        BTreeMap::new()
    } else {
        load_digests(&digest_path(kind))?
    };
    let (jobs, trace_files) = match kind {
        Kind::Grid => (full_grid(), Vec::new()),
        Kind::TraceMem => {
            let mut paths: Vec<PathBuf> = std::fs::read_dir("traces")
                .map_err(|e| format!("cannot list traces/: {e}"))?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "wgt1"))
                .collect();
            paths.sort();
            let files = paths
                .iter()
                .map(|p| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display())))
                .collect::<Result<Vec<_>, _>>()?;
            if files.is_empty() {
                return Err("no traces/*.wgt1 corpus".to_owned());
            }
            (Vec::new(), files)
        }
    };
    Ok(Inputs {
        committed,
        digests,
        jobs,
        trace_files,
    })
}

/// The row label a cell carries in the committed grid.
fn label(kind: Kind, run: &RunReport) -> String {
    match kind {
        Kind::Grid => format!("{}/{}", run.benchmark, run.technique.name()),
        Kind::TraceMem => format!("trace:{}/{}", run.benchmark, run.technique.name()),
    }
}

/// One pass's results in canonical cell order.
struct Pass {
    wall_s: f64,
    /// Per-cell host seconds, canonical order.
    cell_s: Vec<f64>,
    runs: Vec<TechniqueRun>,
}

fn parse_corpus(files: &[Vec<u8>]) -> Result<Vec<Arc<TraceWorkload>>, String> {
    files
        .iter()
        .map(|bytes| {
            warped_trace::parse_bytes(bytes)
                .map(Arc::new)
                .map_err(|e| format!("trace parse failed: {e}"))
        })
        .collect()
}

/// Puts results produced in `order` back into canonical order.
fn unpermute<T>(order: &[usize], produced: Vec<T>) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..order.len()).map(|_| None).collect();
    for (k, item) in produced.into_iter().enumerate() {
        slots[order[k]] = Some(item);
    }
    slots
        .into_iter()
        .map(|s| s.expect("a permutation fills every slot"))
        .collect()
}

/// An untraced pass, exactly as a user runs the grid.
fn plain_pass(
    kind: Kind,
    exp: &Experiment,
    inputs: &Inputs,
    order: &[usize],
    workers: usize,
) -> Result<Pass, String> {
    let permuted: Vec<GridJob> = match kind {
        Kind::Grid => order.iter().map(|&i| inputs.jobs[i].clone()).collect(),
        Kind::TraceMem => Vec::new(),
    };
    let started = Instant::now();
    let produced = match kind {
        Kind::Grid => run_grid_timed(exp, &permuted, workers)
            .into_iter()
            .map(|t| (t.run, t.elapsed.as_secs_f64()))
            .collect::<Vec<_>>(),
        Kind::TraceMem => {
            let traces = parse_corpus(&inputs.trace_files)?;
            let jobs = trace_grid_of(&traces, &Technique::ALL);
            par_map(jobs.len(), workers, |k| {
                let (trace, technique) = &jobs[order[k]];
                let cell = Instant::now();
                let run = exp.run_trace(trace, *technique);
                (run, cell.elapsed().as_secs_f64())
            })
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    let (runs, cell_s) = unpermute(order, produced).into_iter().unzip();
    Ok(Pass {
        wall_s,
        cell_s,
        runs,
    })
}

/// Checks every cell of a pass, counting each as one operation.
fn check(
    kind: Kind,
    inputs: &Inputs,
    runs: &[&RunReport],
    committed: bool,
    digests: bool,
    out: &mut Outcome,
) {
    for (i, run) in runs.iter().enumerate() {
        out.attempted += 1;
        let label = label(kind, run);
        if run.timed_out {
            out.fail(format!("{label}: timed out"));
            continue;
        }
        if committed {
            let want = (
                inputs.committed.value(&label, "cycles"),
                inputs.committed.value(&label, "ff_cycles"),
            );
            let got = (
                Some(run.cycles as f64),
                Some(run.stats.fast_forwarded_cycles as f64),
            );
            if want != got {
                out.fail(format!(
                    "{label}: [cycles, ff_cycles] {got:?}, {} has {want:?}",
                    kind.committed_path()
                ));
                continue;
            }
        }
        if digests {
            let baseline = runs[i - i % Technique::ALL.len()];
            let got = cells::digest(run, baseline);
            match inputs.digests.get(&label) {
                Some(want) if *want == got => {}
                want => out.fail(format!("{label}: digest {got:016x}, stored {want:x?}")),
            }
        }
    }
}

fn write_digests(kind: Kind, runs: &[&RunReport]) -> Result<(), String> {
    let mut text = String::new();
    for (i, run) in runs.iter().enumerate() {
        let baseline = runs[i - i % Technique::ALL.len()];
        text.push_str(&format!(
            "{}\t{:016x}\n",
            label(kind, run),
            cells::digest(run, baseline)
        ));
    }
    let path = digest_path(kind);
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Per-layer numbers of one traced pass.
pub(crate) type Layers = BTreeMap<&'static str, f64>;

/// Adds the host-cost and modelled-count layers of a set of decorated
/// cells into `layers`.
pub(crate) fn cell_layers(cells: &[&CellRun], layers: &mut Layers) {
    let mut add = |k: &'static str, v: f64| *layers.entry(k).or_insert(0.0) += v;
    let mut mem = MemoryStats::default();
    for c in cells {
        let r = &c.run.report;
        let p = &c.probe;
        add("workloads.gen_s", c.gen_s());
        add("workloads.gen_calls", f64::from(u8::from(c.gen.is_some())));
        add("sim.run_s", c.sim_s());
        add("sim.self_s", c.sim_s() - p.pick_s - p.observe_s - p.ff_s);
        add("sim.cycles", r.cycles as f64);
        add("sim.instructions", r.stats.instructions() as f64);
        add("sim.events", r.stats.events_dispatched as f64);
        add("sim.skipped_cycles", r.stats.fast_forwarded_cycles as f64);
        add("sched.pick_calls", p.pick_calls as f64);
        add("sched.pick_s", p.pick_s);
        add("sched.veto_calls", p.veto_calls as f64);
        add("gating.observe_calls", p.observe_calls as f64);
        add("gating.observe_s", p.observe_s);
        add("gating.ff_calls", p.ff_calls as f64);
        add("gating.ff_cycles", p.ff_cycles as f64);
        add("gating.ff_s", p.ff_s);
        for d in &r.gating.domains {
            add("gating.gated_cycles", d.gated_cycles as f64);
            add("gating.wakeups", d.wakeups as f64);
            add("gating.critical_wakeups", d.critical_wakeups as f64);
        }
        mem.merge(&r.stats.mem);
    }
    add("mem.accesses", mem.accesses as f64);
    add("mem.l1_miss_rate", mem.l1_miss_rate());
    add("mem.mshr_merges", mem.mshr_merges as f64);
    add("mem.l2_accesses", mem.l2_accesses as f64);
    add("mem.l2_miss_rate", mem.l2_miss_rate());
    let (run_s, cycles) = (layers["sim.run_s"], layers["sim.cycles"]);
    layers.insert("sim.ns_per_cycle", run_s * 1e9 / cycles.max(1.0));
}

/// Times the power model over a pass: every cell's INT/FP energy
/// breakdown and static savings against its workload's baseline.
pub(crate) fn power_s(runs: &[&RunReport]) -> f64 {
    let power = PowerParams::default();
    let started = Instant::now();
    let mut sink = 0.0;
    for (i, run) in runs.iter().enumerate() {
        let baseline = runs[i - i % Technique::ALL.len()];
        for unit in [UnitType::Int, UnitType::Fp] {
            sink += run.energy(unit, &power).static_energy;
            sink += run.static_savings(baseline, unit, &power).fraction();
        }
    }
    std::hint::black_box(sink);
    started.elapsed().as_secs_f64()
}

/// Decorated cells in `order` on `workers` threads, with their
/// (start, end) on the process clock; results in canonical order.
fn decorated_cells<F>(n: usize, order: &[usize], workers: usize, run: F) -> Vec<(CellRun, u64, u64)>
where
    F: Fn(usize) -> CellRun + Sync,
{
    let produced = par_map(n, workers, |k| {
        let start = now_ns();
        let cell = run(order[k]);
        (cell, start, now_ns())
    });
    unpermute(order, produced)
}

/// A traced pass: the same cells through the timing decorators, with
/// every layer measured from outside and spans kept in memory.
fn traced_pass(
    kind: Kind,
    exp: &Experiment,
    inputs: &Inputs,
    order: &[usize],
    workers: usize,
    out: &mut Outcome,
) -> Result<(f64, Layers), String> {
    let pass_start = now_ns();
    let started = Instant::now();
    let mut parse_spans = Vec::new();
    let mut traces = Vec::new();
    for bytes in &inputs.trace_files {
        let start = now_ns();
        traces.extend(parse_corpus(std::slice::from_ref(bytes))?);
        parse_spans.push((start, now_ns(), bytes.len()));
    }
    let trace_jobs = trace_grid_of(&traces, &Technique::ALL);
    let cells = match kind {
        Kind::Grid => decorated_cells(inputs.jobs.len(), order, workers, |i| {
            let (spec, technique) = &inputs.jobs[i];
            cells::run_spec(exp, spec, *technique)
        }),
        Kind::TraceMem => decorated_cells(trace_jobs.len(), order, workers, |i| {
            let (trace, technique) = &trace_jobs[i];
            cells::run_trace(exp, trace, *technique)
        }),
    };
    let wall_s = started.elapsed().as_secs_f64();
    let pass_end = now_ns();

    let runs: Vec<&RunReport> = cells.iter().map(|(c, _, _)| &c.run.report).collect();
    check(kind, inputs, &runs, kind == Kind::Grid, true, out);
    let mut layers = Layers::new();
    cell_layers(
        &cells.iter().map(|(c, _, _)| c).collect::<Vec<_>>(),
        &mut layers,
    );
    let busy: f64 = cells.iter().map(|(_, a, b)| (b - a) as f64 * 1e-9).sum();
    layers.insert(
        "runner.idle_s",
        wall_s * workers.min(cells.len()) as f64 - busy,
    );
    let power_start = now_ns();
    layers.insert("power.energy_s", power_s(&runs));
    let power_end = now_ns();
    layers.insert(
        "trace.parse_s",
        parse_spans
            .iter()
            .map(|(a, b, _)| (b - a) as f64 * 1e-9)
            .sum(),
    );
    layers.insert(
        "trace.bytes",
        parse_spans.iter().map(|(_, _, n)| *n as f64).sum(),
    );

    let log = &mut out.spans;
    let pass = log.push(0, "pass", kind.name(), pass_start, pass_end, vec![]);
    for (i, (a, b, _)) in parse_spans.iter().enumerate() {
        log.push(pass, "trace.parse", format!("traces[{i}]"), *a, *b, vec![]);
    }
    for (c, a, b) in &cells {
        let cell = log.push(pass, "cell", label(kind, &c.run.report), *a, *b, vec![]);
        if let Some((ga, gb)) = c.gen {
            log.push(cell, "workloads.gen", "launch", ga, gb, vec![]);
        }
        let p = &c.probe;
        log.push(
            cell,
            "sim.run",
            "Sm::run",
            c.sim.0,
            c.sim.1,
            vec![
                ("sched.pick_calls", p.pick_calls as f64),
                ("sched.pick_s", p.pick_s),
                ("gating.observe_calls", p.observe_calls as f64),
                ("gating.observe_s", p.observe_s),
                ("gating.ff_calls", p.ff_calls as f64),
                ("gating.ff_s", p.ff_s),
            ],
        );
    }
    log.push(
        pass,
        "power.energy",
        "energy+static_savings",
        power_start,
        power_end,
        vec![],
    );

    if kind == Kind::TraceMem {
        // The same cells replayed on the flat memory model: the armed
        // minus flat `Sm::run` time is what the hierarchy costs, and
        // the flat replay must reproduce the committed trace grid.
        let flat = Experiment::paper_defaults();
        let replay = decorated_cells(trace_jobs.len(), order, workers, |i| {
            let (trace, technique) = &trace_jobs[i];
            cells::run_trace(&flat, trace, *technique)
        });
        let flat_runs: Vec<&RunReport> = replay.iter().map(|(c, _, _)| &c.run.report).collect();
        check(kind, inputs, &flat_runs, true, false, out);
        let flat_s: f64 = replay.iter().map(|(c, _, _)| c.sim_s()).sum();
        layers.insert("mem.extra_s", layers["sim.run_s"] - flat_s);
    }
    Ok((wall_s, layers))
}

/// Runs one pass, turning a panicking cell into an error.
fn guarded<T>(pass: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(pass)).unwrap_or_else(|_| Err("a cell panicked".to_owned()))
}

/// Counts every cell of a pass that could not complete as failed.
fn fail_pass(out: &mut Outcome, cells: usize, reason: &str) {
    out.attempted += cells as u64;
    for _ in 0..cells {
        out.fail(reason.to_owned());
    }
}

/// Runs the workload for the budget and reports its metrics.
pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        inputs = Some(setup(kind, args.bless)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set-up ran");
    let exp = kind.experiment();
    let workers = parallelism();
    let n = match kind {
        Kind::Grid => inputs.jobs.len(),
        Kind::TraceMem => inputs.trace_files.len() * Technique::ALL.len(),
    };

    let budget = Budget::new(args.seconds);
    let mut walls = Vec::new();
    let mut plain_walls = Vec::new();
    let mut cell_ns: Vec<u64> = Vec::new();
    let mut model = None;
    let mut traced_walls = Vec::new();
    let mut traced_layers: Vec<Layers> = Vec::new();
    while budget.another(&walls) {
        let order = permutation(n, args.seed, walls.len());
        let pass = match guarded(|| plain_pass(kind, &exp, &inputs, &order, workers)) {
            Ok(pass) => pass,
            Err(e) => {
                fail_pass(&mut out, n, &e);
                break;
            }
        };
        let runs: Vec<&RunReport> = pass.runs.iter().map(|r| &r.report).collect();
        if args.bless && walls.is_empty() {
            write_digests(kind, &runs)?;
            eprintln!("warped-perfbench: wrote {}", digest_path(kind).display());
        }
        check(
            kind,
            &inputs,
            &runs,
            kind == Kind::Grid,
            !args.bless,
            &mut out,
        );
        model.get_or_insert_with(|| cells::model(&runs));
        cell_ns.extend(pass.cell_s.iter().map(|s| (s * 1e9) as u64));
        plain_walls.push(pass.wall_s);
        if args.trace {
            let traced = guarded(|| traced_pass(kind, &exp, &inputs, &order, workers, &mut out));
            let (wall, layers) = match traced {
                Ok(traced) => traced,
                Err(e) => {
                    fail_pass(&mut out, n, &e);
                    break;
                }
            };
            traced_walls.push(wall);
            traced_layers.push(layers);
            // Budget the pair: untraced and traced.
            walls.push(pass.wall_s + wall);
        } else {
            walls.push(pass.wall_s);
        }
    }

    if plain_walls.is_empty() || (args.trace && traced_walls.is_empty()) {
        return Ok(out);
    }
    let model = model.expect("the first complete pass set the model");
    let m = &mut out.metrics;
    if args.trace {
        for (name, _) in crate::PER_LAYER {
            let values: Vec<f64> = traced_layers
                .iter()
                .map(|l| l.get(name).copied().unwrap_or(0.0))
                .collect();
            m.insert(name, median(&values));
        }
        m.insert(
            "tracing.overhead_pct",
            100.0 * (median(&traced_walls) / median(&plain_walls) - 1.0),
        );
    } else {
        let wall = median(&plain_walls);
        m.insert("setup_s", median(&setup_s));
        m.insert("wall_s", wall);
        m.insert("sweep_s", wall);
        m.insert("rps", n as f64 / wall);
        m.insert("p50_ms", percentile(&mut cell_ns, 0.50) as f64 * 1e-6);
        m.insert("p99_ms", percentile(&mut cell_ns, 0.99) as f64 * 1e-6);
        m.insert("int_savings_pct", model.int_savings_pct);
        m.insert("fp_savings_pct", model.fp_savings_pct);
        m.insert("perf_loss_pct", model.perf_loss_pct);
    }
    out.context.push(("workers", workers.to_string()));
    out.context.push(("connections", "0".to_owned()));
    out.context.push(("passes", plain_walls.len().to_string()));
    out.context
        .push(("traced_passes", traced_walls.len().to_string()));
    out.context.push(("cells_per_pass", n.to_string()));
    out.context
        .push(("latency_samples", cell_ns.len().to_string()));
    Ok(out)
}
