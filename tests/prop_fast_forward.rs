//! Bit-equality properties of the SM's two clocks: for every technique
//! (and the whole-SM coarse controller) and every random kernel,
//! per-cycle stepping (the reference) and the event-queue core, which
//! jumps stall regions to the next event on its event wheel, must
//! produce the same [`SmOutcome`] — cycle counts, per-unit statistics,
//! and the full [`GatingReport`] — and attached observers must see
//! identical streams.
//!
//! Cases are drawn from a seeded [`SplitMix64`] stream, so every run
//! explores the same inputs (no external property-testing dependency).

use std::cell::RefCell;
use std::rc::Rc;

use warped_gates_repro::gates::Technique;
use warped_gates_repro::gating::{GatingParams, SmCoarseGating};
use warped_gates_repro::isa::{Kernel, KernelBuilder};
use warped_gates_repro::power::{EnergyTimeline, PowerParams};
use warped_gates_repro::prelude::*;
use warped_gates_repro::sim::stats::SimStats;
use warped_gates_repro::sim::trace::{CycleObserver, CycleSample, SpanSample};
use warped_gates_repro::sim::DomainLayout;
use warped_gates_repro::telemetry::{
    Event, Recorder, RecorderConfig, Stamped, TelemetryLog, UtilizationTrace,
};
use warped_gates_repro::workloads::rng::SplitMix64;

/// Fans one observation stream out to two observers, forwarding the
/// batched hook so span-aware overrides stay on their own paths.
struct Pair<A, B>(A, B);

impl<A: CycleObserver, B: CycleObserver> CycleObserver for Pair<A, B> {
    fn observe(&mut self, sample: &CycleSample) {
        self.0.observe(sample);
        self.1.observe(sample);
    }

    fn observe_span(&mut self, span: &SpanSample<'_>) {
        self.0.observe_span(span);
        self.1.observe_span(span);
    }
}

/// The two clocks under test, exactly as `sweep --core` selects them.
/// `Stepped` is the reference.
const CLOCKS: [CoreClock; 2] = [CoreClock::Stepped, CoreClock::EventQueue];

fn apply(clock: CoreClock, cfg: &mut SmConfig) {
    (cfg.event_queue, cfg.fast_forward) = clock.sm_flags();
}

/// One random instruction: (type selector, destination offset, source
/// offset). Selector 6 is a barrier — the fast-forward path's most
/// delicate edge, since barrier release can finish warps and refill
/// blocks without any scheduled-event activity.
type RawInstr = (u8, u16, u16);

fn random_body(rng: &mut SplitMix64, max_len: usize, with_barriers: bool) -> Vec<RawInstr> {
    let kinds = if with_barriers { 7 } else { 6 };
    let n = 1 + rng.index(max_len - 1);
    (0..n)
        .map(|_| {
            (
                rng.below(kinds) as u8,
                rng.below(32) as u16,
                rng.below(40) as u16,
            )
        })
        .collect()
}

fn build_kernel(body: &[RawInstr], trips: u32) -> Kernel {
    let mut b = KernelBuilder::new("prop-ff").begin_loop(trips);
    for &(kind, dst, src) in body {
        let d = 16 + (dst % 64);
        let s = 8 + (src % 72);
        b = match kind {
            0 => b.iadd(d, s, 0),
            1 => b.imul(d, s, 1),
            2 => b.fadd(d, s, 2),
            3 => b.ffma(d, s, 3, 4),
            4 => b.load_global(100 + (dst % 32)),
            5 => b.sfu(d, s),
            _ => b.barrier(),
        };
    }
    b.end_loop().store_global(0).build()
}

/// Runs one configuration under the given clock. Everything else is
/// identical.
fn run(
    launch: LaunchConfig,
    technique: Technique,
    max_cycles: u64,
    mode: CoreClock,
    observer: Option<Box<dyn CycleObserver>>,
    recorder: Option<Recorder>,
) -> SmOutcome {
    let mut cfg = SmConfig::small_for_tests();
    cfg.max_cycles = max_cycles;
    apply(mode, &mut cfg);
    cfg.telemetry = recorder;
    let mut sm = Sm::new(
        cfg,
        launch,
        technique.make_scheduler(),
        technique.make_gating(GatingParams::default()),
    );
    if let Some(obs) = observer {
        sm.set_observer(obs);
    }
    sm.run()
}

/// Strips the clock diagnostic counters, which are the one intentional
/// difference between the clocks.
fn comparable(stats: &SimStats) -> SimStats {
    let mut s = stats.clone();
    s.fast_forward_spans = 0;
    s.fast_forwarded_cycles = 0;
    s.events_dispatched = 0;
    s.heap_peak = 0;
    s
}

/// Runs both clocks and asserts bit-equality of the outcomes. Returns
/// the number of cycles the event-queue run skipped, so callers can
/// assert the property suite is not vacuously passing on unskippable
/// workloads.
fn assert_bit_equal(launch: LaunchConfig, technique: Technique, max_cycles: u64) -> u64 {
    let stepped = run(
        launch.clone(),
        technique,
        max_cycles,
        CoreClock::Stepped,
        None,
        None,
    );
    assert_eq!(
        stepped.stats.fast_forward_spans, 0,
        "disabled clock must not skip"
    );
    assert_eq!(stepped.stats.fast_forwarded_cycles, 0);
    let queue = run(
        launch,
        technique,
        max_cycles,
        CoreClock::EventQueue,
        None,
        None,
    );
    assert_eq!(
        queue.timed_out, stepped.timed_out,
        "{technique}: timeout flag diverges"
    );
    assert_eq!(
        comparable(&queue.stats),
        comparable(&stepped.stats),
        "{technique}: SimStats diverge"
    );
    assert_eq!(
        queue.gating, stepped.gating,
        "{technique}: GatingReport diverges"
    );
    queue.stats.fast_forwarded_cycles
}

#[test]
fn all_techniques_are_bit_equal_on_random_kernels() {
    let mut rng = SplitMix64::new(0xff_0001);
    let mut skipped = 0u64;
    for case in 0..8 {
        let with_barriers = case % 2 == 0;
        let body = random_body(&mut rng, 18, with_barriers);
        let trips = 1 + rng.below(14) as u32;
        let warps = 1 + rng.below(7) as u32;
        let kernel = build_kernel(&body, trips);
        let launch = LaunchConfig::new(kernel.clone(), warps).with_block_warps(4);
        for technique in Technique::ALL {
            skipped += assert_bit_equal(launch.clone(), technique, 2_000_000);
        }
    }
    assert!(
        skipped > 0,
        "the suite must actually exercise the fast-forward path"
    );
}

#[test]
fn timeouts_hit_the_same_cycle_either_way() {
    // Caps chosen to land mid-run — including mid-stall, where the
    // fast-forward span must clip to the horizon rather than overshoot.
    let mut rng = SplitMix64::new(0xff_0002);
    for _ in 0..5 {
        let body = random_body(&mut rng, 16, true);
        let trips = 20 + rng.below(30) as u32;
        let warps = 2 + rng.below(5) as u32;
        let cap = 150 + rng.below(1200);
        let kernel = build_kernel(&body, trips);
        let launch = LaunchConfig::new(kernel.clone(), warps).with_block_warps(4);
        for technique in [Technique::ConvPg, Technique::WarpedGates] {
            let _ = assert_bit_equal(launch.clone(), technique, cap);
        }
    }
}

#[test]
fn barrier_wave_and_stagger_launches_are_bit_equal() {
    // Block refills, wave barriers, and staggered launches are exactly
    // the events a skipped span must never jump across: a barrier
    // release can finish a warp (and trigger a refill) with no
    // scheduled event.
    let mut rng = SplitMix64::new(0xff_0003);
    for _ in 0..5 {
        let body = random_body(&mut rng, 12, true);
        let trips = 1 + rng.below(9) as u32;
        let kernel = build_kernel(&body, trips);
        let launches = [
            LaunchConfig::new(kernel.clone(), 8).with_block_warps(2),
            LaunchConfig::new(kernel.clone(), 6)
                .with_block_warps(2)
                .with_waves(2),
            LaunchConfig::new(kernel.clone(), 6)
                .with_block_warps(3)
                .with_stagger(3),
        ];
        for launch in launches {
            for technique in [
                Technique::Baseline,
                Technique::NaiveBlackout,
                Technique::WarpedGates,
            ] {
                let _ = assert_bit_equal(launch.clone(), technique, 2_000_000);
            }
        }
    }
}

#[test]
fn observers_see_identical_streams_under_skipping() {
    // The energy timeline (default span expansion) and the utilization
    // trace (its own capacity-clipped span path) must end up in the
    // same state under both clocks.
    let mut rng = SplitMix64::new(0xff_0004);
    for _ in 0..4 {
        let body = random_body(&mut rng, 14, true);
        let trips = 1 + rng.below(9) as u32;
        let warps = 2 + rng.below(5) as u32;
        let kernel = build_kernel(&body, trips);
        let launch = LaunchConfig::new(kernel.clone(), warps).with_block_warps(4);
        for technique in [Technique::ConvPg, Technique::CoordinatedBlackout] {
            let params = GatingParams::default();
            let mk_timeline = || {
                Rc::new(RefCell::new(EnergyTimeline::new(
                    PowerParams::default(),
                    DomainLayout::fermi(),
                    params.bet,
                    500,
                )))
            };
            let mk_trace = || Rc::new(RefCell::new(UtilizationTrace::new(4000)));

            let runs: Vec<_> = CLOCKS
                .iter()
                .map(|&mode| {
                    let tl = mk_timeline();
                    let tr = mk_trace();
                    let out = run(
                        launch.clone(),
                        technique,
                        2_000_000,
                        mode,
                        Some(Box::new(Pair(tl.clone(), tr.clone()))),
                        None,
                    );
                    (mode, out, tl, tr)
                })
                .collect();
            let (_, base_out, base_tl, base_tr) = &runs[0];
            for (mode, out, tl, tr) in &runs[1..] {
                assert_eq!(comparable(&out.stats), comparable(&base_out.stats));

                let (tf, ts) = (tl.borrow(), base_tl.borrow());
                assert_eq!(
                    tf.epochs(),
                    ts.epochs(),
                    "{technique}/{mode:?}: epoch series diverge"
                );
                for unit in warped_gates_repro::isa::UnitType::ALL {
                    assert_eq!(
                        tf.current_epoch(unit),
                        ts.current_epoch(unit),
                        "{technique}/{mode:?}: open epoch diverges"
                    );
                }
                let (wf, ws) = (tr.borrow(), base_tr.borrow());
                assert_eq!(
                    wf.samples(),
                    ws.samples(),
                    "{technique}/{mode:?}: waveforms diverge"
                );
            }
        }
    }
}

#[test]
fn hierarchy_armed_clocks_are_bit_equal_and_sanitized() {
    // The L1/L2/MSHR hierarchy computes every load latency at issue
    // time, so both clocks must stay bit-equal with it
    // armed — including the realized memory stats, which are part of
    // SimStats equality. The sanitizer rides along so its cache
    // conservation invariants run on every case.
    use warped_gates_repro::sim::HierarchyConfig;
    let run_armed = |launch: LaunchConfig, technique: Technique, mode: CoreClock| -> SmOutcome {
        let mut cfg = SmConfig::small_for_tests();
        cfg.max_cycles = 2_000_000;
        cfg.memory.hierarchy = Some(HierarchyConfig::small_for_tests());
        cfg.sanitize = true;
        apply(mode, &mut cfg);
        Sm::new(
            cfg,
            launch,
            technique.make_scheduler(),
            technique.make_gating(GatingParams::default()),
        )
        .run()
    };

    let mut rng = SplitMix64::new(0xff_0006);
    let mut skipped = 0u64;
    let mut misses = 0u64;
    let mut merges = 0u64;
    for case in 0..4 {
        let body = random_body(&mut rng, 16, case % 2 == 0);
        let trips = 1 + rng.below(10) as u32;
        let warps = 2 + rng.below(6) as u32;
        let kernel = build_kernel(&body, trips);
        let launch = LaunchConfig::new(kernel.clone(), warps).with_block_warps(4);
        for technique in [
            Technique::Baseline,
            Technique::ConvPg,
            Technique::WarpedGates,
        ] {
            let stepped = run_armed(launch.clone(), technique, CoreClock::Stepped);
            assert!(stepped.stats.mem.hierarchy, "hierarchy must be armed");
            misses += stepped.stats.mem.l1_misses;
            merges += stepped.stats.mem.mshr_merges;
            let queue = run_armed(launch.clone(), technique, CoreClock::EventQueue);
            assert_eq!(
                queue.timed_out, stepped.timed_out,
                "{technique}: timeout flag diverges"
            );
            assert_eq!(
                comparable(&queue.stats),
                comparable(&stepped.stats),
                "{technique}: SimStats diverge with the hierarchy armed"
            );
            assert_eq!(
                queue.gating, stepped.gating,
                "{technique}: GatingReport diverges with the hierarchy armed"
            );
            skipped += queue.stats.fast_forwarded_cycles;
        }
    }
    assert!(skipped > 0, "the suite must exercise the skip path");
    assert!(misses > 0, "the kernels must actually miss in L1");
    assert!(merges > 0, "the kernels must coalesce onto in-flight MSHRs");
}

/// Sorts events stamped on the same cycle into a canonical order, since
/// the skipped and stepped clocks may interleave same-cycle events
/// differently (e.g. a busy edge vs. the controller reacting to it).
fn event_key(s: &Stamped) -> (u64, u8, usize, u8) {
    let (rank, idx, flag) = match s.event {
        Event::BusyEdge { domain, busy } => (0, domain.index(), u8::from(busy)),
        Event::PowerEdge { domain, powered } => (1, domain.index(), u8::from(powered)),
        Event::IdleDetect { domain } => (2, domain.index(), 0),
        Event::Gate { domain } => (3, domain.index(), 0),
        Event::BlackoutHold { domain } => (4, domain.index(), 0),
        Event::Wakeup { domain, .. } => (5, domain.index(), 0),
        Event::WakeComplete { domain } => (6, domain.index(), 0),
        Event::TunerEpoch { unit, .. } => (7, unit.index(), 0),
        Event::PriorityFlip { .. } => (8, 0, 0),
        Event::FastForward { .. } => (9, 0, 0),
        Event::MshrAlloc { line } => (10, line as usize, 0),
        Event::MshrMerge { line } => (11, line as usize, 0),
        Event::Fill { line } => (12, line as usize, 0),
    };
    (s.cycle, rank, idx, flag)
}

#[test]
fn armed_recorder_sees_identical_event_streams_under_skipping() {
    // The structured event recorder is the telemetry subsystem's ground
    // truth; a fast-forwarded or event-queue run must stamp the same
    // events at the same cycles as a stepped one, fast-forward jump
    // markers aside.
    let mut rng = SplitMix64::new(0xff_0005);
    for _ in 0..3 {
        let body = random_body(&mut rng, 14, true);
        let trips = 1 + rng.below(9) as u32;
        let warps = 2 + rng.below(5) as u32;
        let kernel = build_kernel(&body, trips);
        let launch = LaunchConfig::new(kernel.clone(), warps).with_block_warps(4);
        for technique in [Technique::ConvPg, Technique::WarpedGates] {
            let mk = || {
                Recorder::new(RecorderConfig {
                    capacity: 1 << 20,
                    epoch_len: 500,
                })
            };
            // Fast-forward jump markers (and their epoch counters) are
            // the one intentional difference between the clock modes.
            let canonical = |log: &TelemetryLog| {
                let mut events: Vec<Stamped> = log
                    .events
                    .iter()
                    .copied()
                    .filter(|s| !matches!(s.event, Event::FastForward { .. }))
                    .collect();
                events.sort_by_key(event_key);
                let epochs: Vec<_> = log
                    .epochs
                    .iter()
                    .map(|e| {
                        let mut e = *e;
                        e.ff_spans = 0;
                        e.ff_cycles = 0;
                        e
                    })
                    .collect();
                (events, epochs)
            };

            let rec_base = mk();
            let base = run(
                launch.clone(),
                technique,
                2_000_000,
                CoreClock::Stepped,
                None,
                Some(rec_base.clone()),
            );
            let log_base = rec_base.take();
            assert_eq!(log_base.dropped, 0, "ring sized for the whole run");
            assert!(
                !log_base.events.is_empty(),
                "{technique}: recorder saw nothing"
            );

            let rec = mk();
            let out = run(
                launch.clone(),
                technique,
                2_000_000,
                CoreClock::EventQueue,
                None,
                Some(rec.clone()),
            );
            // Arming telemetry must not perturb the simulation either.
            assert_eq!(comparable(&out.stats), comparable(&base.stats));
            assert_eq!(out.gating, base.gating);

            let log = rec.take();
            assert_eq!(log.dropped, 0, "ring sized for the whole run");
            assert_eq!(log.baseline, log_base.baseline);
            assert_eq!(log.last_cycle, log_base.last_cycle);
            assert_eq!(
                canonical(&log),
                canonical(&log_base),
                "{technique}: event streams diverge"
            );
        }
    }
}

#[test]
fn sm_coarse_gating_is_bit_equal_under_skipping() {
    // The whole-SM coarse controller advances skipped spans through the
    // trait's default per-cycle loop; under the real SM loop that must
    // match stepping in outcome, sanitizer checks, observer state and
    // recorded events, on kernels that gate the whole SM often.
    let run_coarse = |launch: LaunchConfig, mode: CoreClock| {
        let timeline = Rc::new(RefCell::new(EnergyTimeline::new(
            PowerParams::default(),
            DomainLayout::fermi(),
            GatingParams::default().bet,
            500,
        )));
        let trace = Rc::new(RefCell::new(UtilizationTrace::new(4000)));
        let rec = Recorder::new(RecorderConfig {
            capacity: 1 << 20,
            epoch_len: 500,
        });
        let mut cfg = SmConfig::small_for_tests();
        cfg.max_cycles = 2_000_000;
        cfg.telemetry = Some(rec.clone());
        apply(mode, &mut cfg);
        let mut sm = Sm::new(
            cfg,
            launch,
            Technique::Baseline.make_scheduler(),
            Box::new(SmCoarseGating::new(GatingParams::default())),
        );
        sm.set_observer(Box::new(Pair(timeline.clone(), trace.clone())));
        let out = sm.run();
        let events: Vec<Stamped> = rec
            .take()
            .events
            .into_iter()
            .filter(|s| !matches!(s.event, Event::FastForward { .. }))
            .collect();
        (out, timeline, trace, events)
    };

    let mut rng = SplitMix64::new(0xff_0007);
    let (mut skipped, mut gated) = (0u64, 0u64);
    for case in 0..4 {
        let body = random_body(&mut rng, 14, case % 2 == 0);
        let trips = 1 + rng.below(9) as u32;
        let warps = 1 + rng.below(4) as u32;
        let kernel = build_kernel(&body, trips);
        let launch = LaunchConfig::new(kernel, warps).with_block_warps(4);
        let (base, base_tl, base_tr, base_events) = run_coarse(launch.clone(), CoreClock::Stepped);
        let (out, tl, tr, events) = run_coarse(launch, CoreClock::EventQueue);
        assert_eq!(out.timed_out, base.timed_out);
        assert_eq!(comparable(&out.stats), comparable(&base.stats));
        assert_eq!(
            out.gating, base.gating,
            "case {case}: GatingReport diverges"
        );
        assert_eq!(tl.borrow().epochs(), base_tl.borrow().epochs());
        for unit in warped_gates_repro::isa::UnitType::ALL {
            assert_eq!(
                tl.borrow().current_epoch(unit),
                base_tl.borrow().current_epoch(unit)
            );
        }
        assert_eq!(tr.borrow().samples(), base_tr.borrow().samples());
        let mut events = events;
        let mut base_events = base_events;
        events.sort_by_key(event_key);
        base_events.sort_by_key(event_key);
        assert_eq!(events, base_events, "case {case}: event streams diverge");
        skipped += out.stats.fast_forwarded_cycles;
        gated += out
            .gating
            .sum_over(DomainLayout::fermi().all())
            .gated_cycles;
    }
    assert!(skipped > 0, "the suite must exercise the skip path");
    assert!(gated > 0, "the coarse controller must actually gate");
}
