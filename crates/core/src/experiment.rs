//! The experiment runner: benchmark × technique → report.

use crate::report::RunReport;
use crate::technique::Technique;
use warped_gating::GatingParams;
use warped_sim::{DomainLayout, Sm};
use warped_trace::TraceWorkload;
use warped_workloads::BenchmarkSpec;

/// Whether the SM cores skip stall regions or step every cycle.
///
/// Both variants produce bit-identical simulation outcomes — the
/// equivalence is enforced by the `prop_fast_forward` suite and the
/// grid regression gate — apart from the skip counters themselves
/// (`ff_cycles` reads 0 when stepping). The choice is a speed/
/// reference trade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoreClock {
    /// The discrete-event core: stall regions are jumped in one step,
    /// up to the next event on the SM's event wheel. The default.
    #[default]
    EventQueue,
    /// Per-cycle stepping with no skipping at all — the slowest,
    /// simplest reference implementation.
    Stepped,
}

impl CoreClock {
    /// `(event_queue, fast_forward)` flags for
    /// [`SmConfig`](warped_sim::SmConfig). Only the second one is read
    /// by the simulator (see [`SmConfig::event_queue`](warped_sim::SmConfig)).
    #[must_use]
    pub fn sm_flags(self) -> (bool, bool) {
        match self {
            CoreClock::EventQueue => (true, true),
            CoreClock::Stepped => (false, false),
        }
    }

    /// The name used on the command line and in artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CoreClock::EventQueue => "event-queue",
            CoreClock::Stepped => "stepped",
        }
    }

    /// Parses a command-line name.
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input when it names no variant.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "event-queue" => Ok(CoreClock::EventQueue),
            "stepped" => Ok(CoreClock::Stepped),
            other => Err(format!(
                "unknown core clock '{other}' (expected event-queue or stepped)"
            )),
        }
    }
}

/// An experiment configuration: gating parameters plus a workload scale
/// factor.
///
/// The scale factor proportionally shrinks every benchmark (fewer warps,
/// fewer loop trips) so the full 18-benchmark × 6-technique grid can run
/// in seconds during tests while the benches run at full size.
///
/// # Examples
///
/// ```
/// use warped_gates::{Experiment, Technique};
/// use warped_workloads::Benchmark;
///
/// let exp = Experiment::quick_for_tests();
/// let run = exp.run(&Benchmark::Nw.spec(), Technique::ConvPg);
/// assert_eq!(run.report.technique, Technique::ConvPg);
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    params: GatingParams,
    scale: f64,
    layout: DomainLayout,
    issue_width: Option<usize>,
    memory_hierarchy: Option<warped_sim::HierarchyConfig>,
    sanitize: bool,
    job_timeout: Option<std::time::Duration>,
    telemetry: Option<warped_sim::Recorder>,
    core: CoreClock,
}

/// A completed technique run, pairing the report with the spec it ran.
#[derive(Debug)]
pub struct TechniqueRun {
    /// The full report.
    pub report: RunReport,
}

impl std::ops::Deref for TechniqueRun {
    type Target = RunReport;

    fn deref(&self) -> &RunReport {
        &self.report
    }
}

impl Experiment {
    /// Full-scale experiment with explicit gating parameters.
    #[must_use]
    pub fn new(params: GatingParams) -> Self {
        params.validate();
        Experiment {
            params,
            scale: 1.0,
            layout: DomainLayout::fermi(),
            issue_width: None,
            memory_hierarchy: None,
            sanitize: false,
            job_timeout: None,
            telemetry: None,
            core: CoreClock::default(),
        }
    }

    /// Full-scale experiment with the paper's default parameters
    /// (idle-detect 5, BET 14, wakeup 3).
    #[must_use]
    pub fn paper_defaults() -> Self {
        Experiment::new(GatingParams::default())
    }

    /// A heavily scaled-down experiment for fast unit tests, with the
    /// gating invariant sanitizer armed.
    #[must_use]
    pub fn quick_for_tests() -> Self {
        Experiment {
            scale: 0.08,
            sanitize: true,
            ..Experiment::new(GatingParams::default())
        }
    }

    /// Targets a different clustered architecture (e.g.
    /// [`DomainLayout::kepler`]) with an optional issue-width override
    /// (wider machines usually issue more per cycle).
    #[must_use]
    pub fn with_architecture(mut self, layout: DomainLayout, issue_width: Option<usize>) -> Self {
        self.layout = layout;
        self.issue_width = issue_width;
        self
    }

    /// Arms the cycle-accurate L1/L2 + MSHR memory hierarchy for every
    /// run launched from this experiment (see
    /// [`MemoryConfig::hierarchy`](warped_sim::MemoryConfig)). `None`
    /// (the default) keeps the legacy latency model and its committed
    /// grid results bit-identical. Unlike the observe-only switches,
    /// this *changes cycle counts*, so every field is folded into the
    /// cell fingerprint.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy configuration fails validation.
    #[must_use]
    pub fn with_memory_hierarchy(mut self, hierarchy: Option<warped_sim::HierarchyConfig>) -> Self {
        if let Some(h) = &hierarchy {
            h.validate();
        }
        self.memory_hierarchy = hierarchy;
        self
    }

    /// The memory-hierarchy configuration in effect, if armed.
    #[must_use]
    pub fn memory_hierarchy(&self) -> Option<&warped_sim::HierarchyConfig> {
        self.memory_hierarchy.as_ref()
    }

    /// Overrides the workload scale factor (in `(0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is outside `(0, 1]`.
    #[must_use]
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
        self.scale = scale;
        self
    }

    /// Arms or disarms the gating invariant sanitizer for every run
    /// launched from this experiment (see
    /// [`SmConfig::sanitize`](warped_sim::SmConfig)).
    #[must_use]
    pub fn with_sanitize(mut self, on: bool) -> Self {
        self.sanitize = on;
        self
    }

    /// Sets a wall-clock watchdog per run: a job exceeding the budget
    /// stops and reports `timed_out` instead of hanging the grid.
    #[must_use]
    pub fn with_job_timeout(mut self, budget: Option<std::time::Duration>) -> Self {
        self.job_timeout = budget;
        self
    }

    /// Arms a telemetry recorder for every run launched from this
    /// experiment (see [`SmConfig::telemetry`](warped_sim::SmConfig)).
    /// Runs share the handle: keep a clone and drain it with
    /// [`Recorder::take`](warped_sim::Recorder::take) between runs to
    /// separate their event streams. Recording is observe-only — cycle
    /// counts and gating reports are bit-identical with or without it.
    #[must_use]
    pub fn with_telemetry(mut self, recorder: Option<warped_sim::Recorder>) -> Self {
        self.telemetry = recorder;
        self
    }

    /// Selects the clock backend every run uses (see [`CoreClock`]).
    /// Outcomes are bit-identical across backends; only wall time
    /// changes.
    #[must_use]
    pub fn with_core(mut self, core: CoreClock) -> Self {
        self.core = core;
        self
    }

    /// The gating parameters in effect.
    #[must_use]
    pub fn params(&self) -> &GatingParams {
        &self.params
    }

    /// The clock backend in effect.
    #[must_use]
    pub fn core(&self) -> CoreClock {
        self.core
    }

    /// Whether the gating invariant sanitizer is armed.
    #[must_use]
    pub fn sanitize(&self) -> bool {
        self.sanitize
    }

    /// The workload scale factor in effect.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The clustered-architecture layout in effect.
    #[must_use]
    pub fn layout(&self) -> DomainLayout {
        self.layout
    }

    /// The issue-width override, if any.
    #[must_use]
    pub fn issue_width(&self) -> Option<usize> {
        self.issue_width
    }

    /// Applies every experiment override — architecture, issue width,
    /// memory hierarchy, observe-only switches, clock backend — to a
    /// workload-provided base configuration. Both the synthetic and the
    /// trace-driven run paths funnel through here, so an experiment
    /// means exactly the same thing for either workload source.
    fn configure(&self, mut cfg: warped_sim::SmConfig) -> warped_sim::SmConfig {
        cfg.sp_clusters = self.layout.sp_clusters();
        if let Some(w) = self.issue_width {
            cfg.issue_width = w;
        }
        cfg.memory.hierarchy = self.memory_hierarchy.clone();
        cfg.sanitize = self.sanitize;
        cfg.wall_clock_budget = self.job_timeout;
        cfg.telemetry = self.telemetry.clone();
        let (event_queue, fast_forward) = self.core.sm_flags();
        cfg.event_queue = event_queue;
        cfg.fast_forward = fast_forward;
        cfg
    }

    /// Runs one configured launch under one technique and wraps the
    /// outcome into a report carrying `benchmark` as the workload name.
    fn simulate(
        &self,
        cfg: warped_sim::SmConfig,
        launch: warped_sim::LaunchConfig,
        benchmark: String,
        technique: Technique,
    ) -> TechniqueRun {
        let sm = Sm::new(
            cfg,
            launch,
            technique.make_scheduler(),
            technique.make_gating_with_layout(self.params, self.layout),
        );
        let outcome = sm.run();
        TechniqueRun {
            report: RunReport {
                benchmark,
                technique,
                params: self.params,
                cycles: outcome.stats.cycles,
                timed_out: outcome.timed_out,
                stats: outcome.stats,
                gating: outcome.gating,
            },
        }
    }

    /// Runs one benchmark under one technique on a single SM.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark spec fails validation.
    #[must_use]
    pub fn run(&self, spec: &BenchmarkSpec, technique: Technique) -> TechniqueRun {
        let spec = if self.scale < 1.0 {
            spec.scaled(self.scale)
        } else {
            spec.clone()
        };
        let cfg = self.configure(spec.sm_config());
        self.simulate(cfg, spec.launch(), spec.name.to_owned(), technique)
    }

    /// Runs one captured trace under one technique on a single SM.
    ///
    /// The trace supplies exactly what a [`BenchmarkSpec`] would — the
    /// kernel, the launch geometry, and the memory behaviour — so a
    /// trace captured from a synthetic benchmark replays bit-identically
    /// to [`run`](Experiment::run) on that benchmark (the
    /// `trace_roundtrip` suite pins this down across every technique).
    /// All experiment overrides (scale, architecture, sanitizer, clock
    /// backend) apply the same way they do to synthetic workloads.
    #[must_use]
    pub fn run_trace(&self, trace: &TraceWorkload, technique: Technique) -> TechniqueRun {
        let trace = if self.scale < 1.0 {
            trace.scaled(self.scale)
        } else {
            trace.clone()
        };
        let mut cfg = warped_sim::SmConfig::gtx480();
        cfg.memory = warped_sim::MemoryConfig {
            l1_hit_rate: trace.l1_hit_rate,
            seed: trace.mem_seed,
            ..warped_sim::MemoryConfig::default()
        };
        let cfg = self.configure(cfg);
        let launch = warped_sim::LaunchConfig::new(trace.kernel.clone(), trace.total_warps)
            .with_block_warps(trace.block_warps)
            .with_stagger(trace.stagger)
            .with_waves(trace.waves);
        self.simulate(cfg, launch, trace.name.clone(), technique)
    }

    /// Runs every technique on one benchmark, in [`Technique::ALL`]
    /// order, returning the runs in the same order.
    #[must_use]
    pub fn run_all_techniques(&self, spec: &BenchmarkSpec) -> Vec<TechniqueRun> {
        Technique::ALL
            .into_iter()
            .map(|t| self.run(spec, t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_isa::UnitType;
    use warped_workloads::Benchmark;

    #[test]
    fn runs_complete_without_timeout() {
        let exp = Experiment::quick_for_tests();
        for t in Technique::ALL {
            let run = exp.run(&Benchmark::Hotspot.spec(), t);
            assert!(!run.timed_out, "{t} timed out");
            assert!(run.cycles > 0);
        }
    }

    #[test]
    fn baseline_never_gates() {
        let exp = Experiment::quick_for_tests();
        let run = exp.run(&Benchmark::Srad.spec(), Technique::Baseline);
        assert_eq!(run.gating_of(UnitType::Int).gate_events, 0);
        assert_eq!(run.gating_of(UnitType::Fp).gated_cycles, 0);
    }

    #[test]
    fn gated_techniques_actually_gate() {
        let exp = Experiment::quick_for_tests();
        for t in Technique::GATED {
            let run = exp.run(&Benchmark::Hotspot.spec(), t);
            let g = run.gating_of(UnitType::Fp);
            assert!(g.gate_events > 0, "{t} never gated the FP clusters");
        }
    }

    #[test]
    fn blackout_has_no_premature_wakeups_on_cuda_cores() {
        let exp = Experiment::quick_for_tests();
        for t in [
            Technique::NaiveBlackout,
            Technique::CoordinatedBlackout,
            Technique::WarpedGates,
        ] {
            let run = exp.run(&Benchmark::Hotspot.spec(), t);
            assert_eq!(
                run.gating_of(UnitType::Int).premature_wakeups,
                0,
                "{t}: blackout must forbid pre-BET wakeups"
            );
            assert_eq!(run.gating_of(UnitType::Fp).premature_wakeups, 0);
        }
    }

    #[test]
    fn conventional_gating_does_wake_prematurely_somewhere() {
        // The whole point of the paper: ConvPG wakes before break-even.
        let exp = Experiment::quick_for_tests();
        let mut premature = 0;
        for b in [Benchmark::Hotspot, Benchmark::Srad, Benchmark::Lbm] {
            let run = exp.run(&b.spec(), Technique::ConvPg);
            premature += run.gating_of(UnitType::Int).premature_wakeups
                + run.gating_of(UnitType::Fp).premature_wakeups;
        }
        assert!(
            premature > 0,
            "ConvPG should exhibit net-negative gating events"
        );
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let exp = Experiment::quick_for_tests();
        let a = exp.run(&Benchmark::Mri.spec(), Technique::WarpedGates);
        let b = exp.run(&Benchmark::Mri.spec(), Technique::WarpedGates);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(
            a.gating_of(UnitType::Fp).gated_cycles,
            b.gating_of(UnitType::Fp).gated_cycles
        );
    }

    #[test]
    fn run_all_techniques_covers_the_grid() {
        let exp = Experiment::quick_for_tests();
        let runs = exp.run_all_techniques(&Benchmark::Nw.spec());
        assert_eq!(runs.len(), 6);
        assert_eq!(runs[0].technique, Technique::Baseline);
        assert_eq!(runs[5].technique, Technique::WarpedGates);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn invalid_scale_rejected() {
        let _ = Experiment::paper_defaults().with_scale(1.5);
    }
}
