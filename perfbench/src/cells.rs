//! Running single grid cells, plain or decorated, and judging their
//! outputs.
//!
//! The decorated path rebuilds exactly what `Experiment::run` and
//! `Experiment::run_trace` build — the same `SmConfig` overrides, the
//! same launch, the same scheduler and controller — but wraps the two
//! policy objects in the timing decorators of [`crate::probe`] and
//! times workload generation and `Sm::run` separately. The unit tests
//! below pin it bit-identical to `Experiment::run` on every technique.

use std::rc::Rc;

use warped_gates::fingerprint::ConfigHasher;
use warped_gates::{Experiment, RunReport, Technique, TechniqueRun};
use warped_isa::UnitType;
use warped_power::PowerParams;
use warped_sim::{LaunchConfig, MemoryConfig, Sm, SmConfig};
use warped_trace::TraceWorkload;
use warped_workloads::BenchmarkSpec;

use crate::probe::{CellProbe, ProbeTotals, TimedGating, TimedScheduler};
use crate::spans::now_ns;

/// One decorated cell: the report plus what each layer cost.
#[derive(Debug)]
pub struct CellRun {
    /// The report, identical to the undecorated run's.
    pub run: TechniqueRun,
    /// Start and end (process-clock ns) of generating the launch
    /// (`BenchmarkSpec::launch`, which generates the kernel); `None`
    /// for traces, whose kernel was lowered at parse time.
    pub gen: Option<(u64, u64)>,
    /// Start and end (process-clock ns) of `Sm::run`.
    pub sim: (u64, u64),
    /// Scheduler and controller call counts and times.
    pub probe: ProbeTotals,
}

/// The experiment's `SmConfig` overrides, applied exactly as
/// `Experiment` applies them to a workload's base configuration.
fn configure(exp: &Experiment, mut cfg: SmConfig) -> SmConfig {
    cfg.sp_clusters = exp.layout().sp_clusters();
    if let Some(w) = exp.issue_width() {
        cfg.issue_width = w;
    }
    cfg.memory.hierarchy = exp.memory_hierarchy().cloned();
    cfg.sanitize = exp.sanitize();
    let (event_queue, fast_forward) = exp.core().sm_flags();
    cfg.event_queue = event_queue;
    cfg.fast_forward = fast_forward;
    cfg
}

/// Runs one synthetic cell through the decorators.
pub fn run_spec(exp: &Experiment, spec: &BenchmarkSpec, technique: Technique) -> CellRun {
    let spec = if exp.scale() < 1.0 {
        spec.scaled(exp.scale())
    } else {
        spec.clone()
    };
    let gen_start = now_ns();
    let launch = spec.launch();
    let gen = Some((gen_start, now_ns()));
    let cfg = configure(exp, spec.sm_config());
    simulate(exp, cfg, launch, spec.name.to_owned(), technique, gen)
}

/// Runs one trace-driven cell through the decorators.
pub fn run_trace(exp: &Experiment, trace: &TraceWorkload, technique: Technique) -> CellRun {
    let scaled;
    let trace = if exp.scale() < 1.0 {
        scaled = trace.scaled(exp.scale());
        &scaled
    } else {
        trace
    };
    let mut cfg = SmConfig::gtx480();
    cfg.memory = MemoryConfig {
        l1_hit_rate: trace.l1_hit_rate,
        seed: trace.mem_seed,
        ..MemoryConfig::default()
    };
    let cfg = configure(exp, cfg);
    let launch = LaunchConfig::new(trace.kernel.clone(), trace.total_warps)
        .with_block_warps(trace.block_warps)
        .with_stagger(trace.stagger)
        .with_waves(trace.waves);
    simulate(exp, cfg, launch, trace.name.clone(), technique, None)
}

fn simulate(
    exp: &Experiment,
    cfg: SmConfig,
    launch: LaunchConfig,
    benchmark: String,
    technique: Technique,
    gen: Option<(u64, u64)>,
) -> CellRun {
    let probe = Rc::new(CellProbe::default());
    let sm = Sm::new(
        cfg,
        launch,
        Box::new(TimedScheduler::new(
            technique.make_scheduler(),
            Rc::clone(&probe),
        )),
        Box::new(TimedGating::new(
            technique.make_gating_with_layout(*exp.params(), exp.layout()),
            Rc::clone(&probe),
        )),
    );
    let sim_start = now_ns();
    let outcome = sm.run();
    let sim = (sim_start, now_ns());
    CellRun {
        run: TechniqueRun {
            report: RunReport {
                benchmark,
                technique,
                params: *exp.params(),
                cycles: outcome.stats.cycles,
                timed_out: outcome.timed_out,
                stats: outcome.stats,
                gating: outcome.gating,
            },
        },
        gen,
        sim,
        probe: probe.totals(),
    }
}

impl CellRun {
    /// Seconds spent generating the launch.
    pub fn gen_s(&self) -> f64 {
        self.gen.map_or(0.0, |(a, b)| (b - a) as f64 * 1e-9)
    }

    /// Seconds inside `Sm::run`.
    pub fn sim_s(&self) -> f64 {
        (self.sim.1 - self.sim.0) as f64 * 1e-9
    }
}

/// INT and FP static-energy savings of `run` against `baseline`, as
/// fractions (Figure 9).
pub fn savings(run: &RunReport, baseline: &RunReport) -> (f64, f64) {
    let power = PowerParams::default();
    (
        run.static_savings(baseline, UnitType::Int, &power)
            .fraction(),
        run.static_savings(baseline, UnitType::Fp, &power)
            .fraction(),
    )
}

/// Domain tag separating output digests from every other
/// `ConfigHasher` use.
const DIGEST_TAG: u64 = 0x7065_7266_6265_6e63; // "perfbenc"

/// A digest of everything a cell's output check covers: cycles, the
/// whole `GatingReport`, the whole `MemoryStats`, and the INT/FP static
/// savings against the workload's baseline cell. A change to gating or
/// energy accounting that leaves cycle counts alone still moves it.
pub fn digest(run: &RunReport, baseline: &RunReport) -> u64 {
    let mut h = ConfigHasher::new(DIGEST_TAG);
    h.word(run.cycles)
        .word(run.stats.fast_forwarded_cycles)
        .word(u64::from(run.timed_out));
    for d in &run.gating.domains {
        h.word(d.gate_events)
            .word(d.wakeups)
            .word(d.critical_wakeups)
            .word(d.gated_cycles)
            .word(d.compensated_cycles)
            .word(d.uncompensated_cycles)
            .word(d.wakeup_cycles)
            .word(d.premature_wakeups)
            .word(d.demand_blocked_cycles);
    }
    let m = &run.stats.mem;
    h.word(u64::from(m.hierarchy))
        .word(m.accesses)
        .word(m.l1_hits)
        .word(m.l1_misses)
        .word(m.mshr_merges)
        .word(m.fills)
        .word(u64::from(m.mshr_peak))
        .word(u64::from(m.mshr_capacity))
        .word(m.l2_accesses)
        .word(m.l2_hits)
        .word(m.l2_misses)
        .word(m.l2_coalesced)
        .word(u64::from(m.l2_mshr_peak))
        .word(m.stores)
        .word(m.store_hits);
    let (int, fp) = savings(run, baseline);
    h.f64(int).f64(fp);
    h.finish()
}

/// The paper's headline outcomes over a set of workloads.
#[derive(Debug, Clone, Copy)]
pub struct Model {
    /// Mean Warped Gates INT static-energy savings vs Baseline, %.
    pub int_savings_pct: f64,
    /// Mean Warped Gates FP static-energy savings vs Baseline over the
    /// workloads that issue FP work, %.
    pub fp_savings_pct: f64,
    /// Warped Gates slowdown vs Baseline, % (one minus the geometric
    /// mean normalized performance, Figure 10).
    pub perf_loss_pct: f64,
}

/// Computes [`Model`] from runs laid out workload-major in
/// `Technique::ALL` order (six cells per workload).
///
/// # Panics
///
/// Panics if the runs are not laid out that way.
pub fn model(runs: &[&RunReport]) -> Model {
    assert_eq!(runs.len() % Technique::ALL.len(), 0, "partial workload");
    let (mut int, mut fp, mut log_perf) = (Vec::new(), Vec::new(), 0.0);
    let groups = runs.chunks(Technique::ALL.len());
    let n = groups.len();
    for group in groups {
        for (run, t) in group.iter().zip(Technique::ALL) {
            assert_eq!(run.technique, t, "cells out of Technique::ALL order");
        }
        let (baseline, gated) = (group[0], group[Technique::ALL.len() - 1]);
        let (i, f) = savings(gated, baseline);
        int.push(i);
        if baseline.stats.issued(UnitType::Fp) > 0 {
            fp.push(f);
        }
        log_perf += gated.normalized_performance(baseline).ln();
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Model {
        int_savings_pct: 100.0 * mean(&int),
        fp_savings_pct: 100.0 * mean(&fp),
        perf_loss_pct: 100.0 * (1.0 - (log_perf / n as f64).exp()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use warped_workloads::Benchmark;

    fn assert_same(decorated: &CellRun, plain: &TechniqueRun) {
        let (d, p) = (&decorated.run.report, &plain.report);
        assert_eq!(d.cycles, p.cycles, "{}/{}", p.benchmark, p.technique);
        assert_eq!(d.timed_out, p.timed_out);
        assert_eq!(d.stats, p.stats, "{}/{}", p.benchmark, p.technique);
        assert_eq!(d.gating, p.gating, "{}/{}", p.benchmark, p.technique);
        assert_eq!(digest(d, d), digest(p, p));
    }

    #[test]
    fn decorated_runs_are_bit_identical_on_every_technique() {
        let exp = Experiment::quick_for_tests();
        assert!(exp.sanitize(), "the sanitizer must be armed");
        for b in [Benchmark::Hotspot, Benchmark::Nw, Benchmark::Bfs] {
            for t in Technique::ALL {
                let decorated = run_spec(&exp, &b.spec(), t);
                assert_same(&decorated, &exp.run(&b.spec(), t));
                assert!(decorated.probe.pick_calls > 0);
                assert!(decorated.gen.is_some());
            }
        }
    }

    #[test]
    fn decorated_trace_runs_are_bit_identical_with_the_hierarchy_armed() {
        let exp = Experiment::quick_for_tests()
            .with_memory_hierarchy(Some(warped_sim::HierarchyConfig::default()));
        let bytes = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/../traces/nw.wgt1"))
            .expect("the committed trace corpus");
        let trace = Arc::new(warped_trace::parse_bytes(&bytes).expect("a valid trace"));
        for t in Technique::ALL {
            let decorated = run_trace(&exp, &trace, t);
            assert_same(&decorated, &exp.run_trace(&trace, t));
            assert!(decorated.run.report.stats.mem.hierarchy);
        }
    }

    #[test]
    fn the_digest_moves_with_gating_even_when_cycles_do_not() {
        let exp = Experiment::quick_for_tests();
        let run = exp
            .run(&Benchmark::Nw.spec(), Technique::WarpedGates)
            .report;
        let base = exp.run(&Benchmark::Nw.spec(), Technique::Baseline).report;
        let before = digest(&run, &base);
        let mut edited = run;
        edited.gating.domains[0].wakeups += 1;
        assert_ne!(before, digest(&edited, &base));
    }
}
