//! Observe-only timing decorators around the simulator's two policy
//! trait objects.
//!
//! [`TimedScheduler`] wraps a `Box<dyn WarpScheduler>` and
//! [`TimedGating`] a `Box<dyn PowerGating>`. Each forwards *every*
//! trait method, the provided ones included: a wrapper that left, say,
//! `fast_forward` to its default body would still produce identical
//! results (the default loops `observe`), but it would change what the
//! wrapped controller costs and so falsify the measurement.
//!
//! The per-cycle calls (`pick`, `observe`) are counted on every call
//! but timed on a fixed 1-in-[`SAMPLE_EVERY`] sample, because two clock
//! reads cost a sizeable share of a simulated cycle. Sampled durations
//! have the clock's own read cost ([`clock_overhead_ns`]) subtracted
//! and are scaled up by `calls / sampled`. The rarer
//! `fast_forward` spans are timed on every call.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;

use warped_sim::{
    CycleObservation, DomainId, GateTransition, GatingInvariants, GatingReport, IssueCtx,
    PowerGating, Recorder, WarpScheduler, NUM_DOMAINS,
};

/// Per-cycle calls are timed once every this many calls.
pub const SAMPLE_EVERY: u64 = 16;

/// Median cost of one `Instant::now()` pair with nothing between, in
/// nanoseconds (measured once per process).
pub fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<u64> = (0..2001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        crate::stats::percentile(&mut samples, 0.5)
    })
}

/// A sampled call counter: every call counted, every
/// [`SAMPLE_EVERY`]-th timed.
#[derive(Debug, Default)]
struct Sampled {
    calls: Cell<u64>,
    timed: Cell<u64>,
    ns: Cell<u64>,
}

impl Sampled {
    #[inline]
    fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let ns = (t.elapsed().as_nanos() as u64).saturating_sub(clock_overhead_ns());
        self.timed.set(self.timed.get() + 1);
        self.ns.set(self.ns.get() + ns);
        out
    }

    /// Estimated total seconds over every call.
    fn estimated_s(&self) -> f64 {
        match self.timed.get() {
            0 => 0.0,
            timed => self.ns.get() as f64 * 1e-9 * self.calls.get() as f64 / timed as f64,
        }
    }
}

/// One cell's probe state, shared (single-threaded) between the two
/// decorators and the code that reads it after `Sm::run` returns.
#[derive(Debug, Default)]
pub struct CellProbe {
    pick: Sampled,
    observe: Sampled,
    veto_calls: Cell<u64>,
    ff_calls: Cell<u64>,
    ff_cycles: Cell<u64>,
    ff_ns: Cell<u64>,
}

/// What one cell's probe measured, as plain data.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeTotals {
    /// `WarpScheduler::pick` calls.
    pub pick_calls: u64,
    /// Estimated seconds inside `pick`.
    pub pick_s: f64,
    /// `WarpScheduler::fast_forward_idle` calls (skip vetoes consulted).
    pub veto_calls: u64,
    /// `PowerGating::observe` calls.
    pub observe_calls: u64,
    /// Estimated seconds inside `observe`.
    pub observe_s: f64,
    /// `PowerGating::fast_forward` calls.
    pub ff_calls: u64,
    /// Cycles those calls covered.
    pub ff_cycles: u64,
    /// Seconds inside `fast_forward`.
    pub ff_s: f64,
}

impl CellProbe {
    /// The probe's totals.
    pub fn totals(&self) -> ProbeTotals {
        ProbeTotals {
            pick_calls: self.pick.calls.get(),
            pick_s: self.pick.estimated_s(),
            veto_calls: self.veto_calls.get(),
            observe_calls: self.observe.calls.get(),
            observe_s: self.observe.estimated_s(),
            ff_calls: self.ff_calls.get(),
            ff_cycles: self.ff_cycles.get(),
            ff_s: self.ff_ns.get() as f64 * 1e-9,
        }
    }
}

/// Times a scheduler without changing a single decision.
pub struct TimedScheduler {
    inner: Box<dyn WarpScheduler>,
    probe: Rc<CellProbe>,
}

impl TimedScheduler {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: Box<dyn WarpScheduler>, probe: Rc<CellProbe>) -> Self {
        TimedScheduler { inner, probe }
    }
}

impl WarpScheduler for TimedScheduler {
    fn pick(&mut self, ctx: &mut IssueCtx) {
        let inner = &mut self.inner;
        self.probe.pick.run(|| inner.pick(ctx));
    }

    fn fast_forward_idle(&mut self, cycles: u64) -> bool {
        let calls = &self.probe.veto_calls;
        calls.set(calls.get() + 1);
        self.inner.fast_forward_idle(cycles)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.inner.set_recorder(recorder);
    }
}

/// Times a power-gating controller without changing a single decision.
pub struct TimedGating {
    inner: Box<dyn PowerGating>,
    probe: Rc<CellProbe>,
}

impl TimedGating {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: Box<dyn PowerGating>, probe: Rc<CellProbe>) -> Self {
        TimedGating { inner, probe }
    }
}

impl PowerGating for TimedGating {
    fn is_on(&self, domain: DomainId) -> bool {
        self.inner.is_on(domain)
    }

    fn observe(&mut self, obs: &CycleObservation) {
        let inner = &mut self.inner;
        self.probe.observe.run(|| inner.observe(obs));
    }

    fn fast_forward(
        &mut self,
        obs: &CycleObservation,
        cycles: u64,
        transitions: &mut Vec<GateTransition>,
    ) {
        let p = &self.probe;
        p.ff_calls.set(p.ff_calls.get() + 1);
        p.ff_cycles.set(p.ff_cycles.get() + cycles);
        let t = Instant::now();
        self.inner.fast_forward(obs, cycles, transitions);
        p.ff_ns.set(p.ff_ns.get() + t.elapsed().as_nanos() as u64);
    }

    fn powered_flags(&self, domains: &[DomainId]) -> [bool; NUM_DOMAINS] {
        self.inner.powered_flags(domains)
    }

    fn report(&self) -> GatingReport {
        self.inner.report()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn invariants(&self) -> GatingInvariants {
        self.inner.invariants()
    }

    fn set_sanitize(&mut self, on: bool) {
        self.inner.set_sanitize(on);
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.inner.set_recorder(recorder);
    }
}
