//! End-to-end checks of the gating invariant sanitizer.
//!
//! Two directions, per the robustness design (DESIGN.md §11):
//!
//! * **Green on correct code** — the full 18 × 6 grid runs with the
//!   sanitizer armed and the fast-forward clock engaged, and every
//!   invariant holds.
//! * **Red on mutations** — controllers deliberately broken in the ways
//!   the sanitizer exists to catch (a blackout policy waking before its
//!   claimed break-even floor, a tuner escaping its promised window
//!   bounds) are caught mid-simulation, not silently tolerated.
//! * **Open periods at any cut** — runs cut by the cycle cap at every
//!   cycle of a window end inside busy, idle, gated and waking periods,
//!   and the end-of-run reconciliation must hold at each cut.

use std::panic::{catch_unwind, AssertUnwindSafe};
use warped_gates::{runner, Experiment, Technique};
use warped_gating::{
    Controller, ConvPgPolicy, GatePolicy, GatingParams, IdleDetectTuner, PolicyCtx,
    StaticIdleDetect,
};
use warped_isa::UnitType;
use warped_sim::{DomainId, Sm};
use warped_workloads::Benchmark;

#[test]
fn full_grid_is_green_under_the_sanitizer_with_fast_forward() {
    let exp = Experiment::quick_for_tests();
    assert!(exp.sanitize(), "quick_for_tests must arm the sanitizer");
    let jobs = runner::full_grid();
    assert_eq!(jobs.len(), 108, "18 benchmarks x 6 techniques");
    let runs = runner::run_grid_with(&exp, &jobs, 4);
    let mut fast_forwarded = 0u64;
    for ((spec, technique), run) in jobs.iter().zip(&runs) {
        assert!(!run.timed_out, "{}/{technique} timed out", spec.name);
        assert!(run.cycles > 0);
        fast_forwarded += run.stats.fast_forwarded_cycles;
    }
    assert!(
        fast_forwarded > 0,
        "the grid must actually exercise the fast-forward clock under the sanitizer"
    );
}

/// A blackout policy that *claims* the break-even floor but wakes on
/// demand immediately, exactly the bug class the paper's Blackout
/// schemes eliminate.
struct BrokenBlackout;

impl GatePolicy for BrokenBlackout {
    fn should_gate(&self, ctx: &PolicyCtx<'_>) -> bool {
        ctx.idle_run >= ctx.idle_detect
    }

    fn may_wake(&self, _ctx: &PolicyCtx<'_>, _elapsed: u32) -> bool {
        true // lies: ignores the break-even floor it advertises
    }

    fn wake_floor(&self, domain: DomainId, params: &GatingParams) -> u32 {
        if domain.is_cuda_core() {
            params.bet
        } else {
            0
        }
    }

    fn name(&self) -> &'static str {
        "BrokenBlackout"
    }
}

fn run_sanitized_with(
    benchmark: Benchmark,
    gating: Box<dyn warped_sim::PowerGating>,
) -> Result<(), String> {
    let spec = benchmark.spec().scaled(0.08);
    let mut cfg = spec.sm_config();
    cfg.sanitize = true;
    let sm = Sm::new(
        cfg,
        spec.launch(),
        Technique::ConvPg.make_scheduler(),
        gating,
    );
    catch_unwind(AssertUnwindSafe(move || {
        let _ = sm.run();
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default()
    })
}

#[test]
fn sanitizer_catches_a_policy_breaking_its_break_even_claim() {
    // ConvPG-style gating wakes before BET somewhere in these three
    // workloads (a property the ConvPG tests rely on), so a policy that
    // claims the blackout floor while waking like ConvPG must trip the
    // sanitizer on at least one of them.
    let mut caught = Vec::new();
    for b in [Benchmark::Hotspot, Benchmark::Srad, Benchmark::Lbm] {
        let gating = Box::new(Controller::new(
            GatingParams::default(),
            BrokenBlackout,
            StaticIdleDetect::new(),
        ));
        if let Err(message) = run_sanitized_with(b, gating) {
            assert!(
                message.contains("break-even violated"),
                "unexpected panic: {message}"
            );
            caught.push(b);
        }
    }
    assert!(
        !caught.is_empty(),
        "the broken blackout policy was never caught"
    );
}

/// A tuner that promises the paper's 5..=10 window but walks the window
/// far past it at every epoch.
struct LyingTuner;

impl IdleDetectTuner for LyingTuner {
    fn on_epoch(&mut self, _unit: UnitType, _critical_wakeups: u32, idle_detect: &mut u32) {
        *idle_detect += 100;
    }

    fn epoch_len(&self) -> u64 {
        200
    }

    fn window_bounds(&self) -> Option<(u32, u32)> {
        Some((5, 10))
    }

    fn name(&self) -> &'static str {
        "LyingTuner"
    }
}

#[test]
fn sanitizer_catches_a_tuner_escaping_its_bounds_mid_simulation() {
    let gating = Box::new(Controller::new(
        GatingParams::default(),
        ConvPgPolicy::new(),
        LyingTuner,
    ));
    let err = run_sanitized_with(Benchmark::Hotspot, gating)
        .expect_err("the lying tuner must be caught at its first epoch boundary");
    assert!(
        err.contains("outside the tuner's promised bounds"),
        "unexpected panic: {err}"
    );
}

#[test]
fn sanitize_off_tolerates_the_same_broken_policy() {
    // The release path (sanitize: false) must not pay for the checks —
    // and therefore also not catch the mutant. This pins the flag
    // actually gating the machinery.
    for b in [Benchmark::Hotspot, Benchmark::Srad, Benchmark::Lbm] {
        let spec = b.spec().scaled(0.08);
        let cfg = spec.sm_config();
        assert!(!cfg.sanitize, "benchmark configs default to sanitize off");
        let sm = Sm::new(
            cfg,
            spec.launch(),
            Technique::ConvPg.make_scheduler(),
            Box::new(Controller::new(
                GatingParams::default(),
                BrokenBlackout,
                StaticIdleDetect::new(),
            )),
        );
        let outcome = sm.run();
        assert!(outcome.stats.cycles > 0);
    }
}

#[test]
fn runs_cut_at_every_cycle_reconcile_their_open_periods() {
    // The simulator integrates busy and idle time at busy edges and the
    // controller closes gated and wakeup time at wake edges; both add
    // the still-open period at the end. A cycle cap stops the run
    // wherever it falls, so sweeping the cap over a busy stretch ends
    // runs mid-busy, mid-idle, mid-gate and mid-wakeup, and the
    // sanitizer's end-of-run reconciliation must hold at every cut.
    let spec = Benchmark::Hotspot.spec().scaled(0.08);
    for cap in 150..350 {
        let mut cfg = spec.sm_config();
        cfg.sanitize = true;
        cfg.max_cycles = cap;
        let gating = Box::new(Controller::new(
            GatingParams::default(),
            ConvPgPolicy::new(),
            StaticIdleDetect::new(),
        ));
        let out = Sm::new(
            cfg,
            spec.launch(),
            Technique::ConvPg.make_scheduler(),
            gating,
        )
        .run();
        assert!(out.timed_out, "cap {cap} must cut the run");
        assert_eq!(out.stats.cycles, cap);
    }
}
