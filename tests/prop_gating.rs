//! Randomized tests of the power-gating controllers: arbitrary
//! busy/demand/occupancy streams must never violate the state-machine
//! invariants.
//!
//! Cases are drawn from a seeded [`SplitMix64`] stream, so every run
//! explores the same inputs (no external property-testing dependency;
//! the registry is unreachable offline).

use warped_gates_repro::gates::{CoordinatedBlackoutPolicy, NaiveBlackoutPolicy};
use warped_gates_repro::gating::{conventional, Controller, GatingParams, StaticIdleDetect};
use warped_gates_repro::sim::{CycleObservation, DomainId, GatingReport, PowerGating, NUM_DOMAINS};
use warped_gates_repro::workloads::rng::SplitMix64;

/// One synthetic cycle of controller input.
#[derive(Debug, Clone)]
struct Stimulus {
    busy: [bool; NUM_DOMAINS],
    demand: [u32; 4],
    actv: [u32; 4],
}

fn random_stream(rng: &mut SplitMix64, len: usize) -> Vec<Stimulus> {
    (0..len)
        .map(|_| {
            let mut busy = [false; NUM_DOMAINS];
            for b in &mut busy {
                *b = rng.chance(0.5);
            }
            let mut demand = [0u32; 4];
            for d in &mut demand {
                *d = rng.below(4) as u32;
            }
            let mut actv = [0u32; 4];
            for a in &mut actv {
                *a = rng.below(48) as u32;
            }
            Stimulus { busy, demand, actv }
        })
        .collect()
}

/// Drives a controller with a stimulus stream, masking `busy` to false
/// whenever the domain is not issuable (the simulator can never make a
/// gated or waking domain busy).
fn drive(ctl: &mut dyn PowerGating, stream: &[Stimulus]) -> GatingReport {
    for (cycle, s) in stream.iter().enumerate() {
        let busy = DomainId::ALL
            .into_iter()
            .filter(|d| s.busy[d.index()] && ctl.is_on(*d))
            .fold(0, |m, d| m | d.bit());
        ctl.observe(&CycleObservation {
            cycle: cycle as u64,
            busy,
            blocked_demand: s.demand,
            active_subset: s.actv,
        });
    }
    ctl.report()
}

fn check_counter_invariants(report: &GatingReport, cycles: u64, bet: u64) {
    for d in DomainId::ALL {
        let s = report.domain(d);
        assert_eq!(
            s.gated_cycles,
            s.compensated_cycles + s.uncompensated_cycles
        );
        assert!(s.wakeups <= s.gate_events);
        assert!(s.critical_wakeups <= s.wakeups);
        assert!(s.premature_wakeups <= s.wakeups);
        assert!(s.gated_cycles + s.wakeup_cycles <= cycles);
        // Each gating event contributes at most `bet` uncompensated cycles.
        assert!(s.uncompensated_cycles <= s.gate_events * bet);
    }
}

#[test]
fn conventional_controller_invariants() {
    let mut rng = SplitMix64::new(0x6a7e_0001);
    for _ in 0..64 {
        let len = 1 + rng.index(299);
        let stream = random_stream(&mut rng, len);
        let mut ctl = conventional(GatingParams::default());
        let report = drive(&mut ctl, &stream);
        check_counter_invariants(&report, stream.len() as u64, 14);
    }
}

#[test]
fn naive_blackout_never_wakes_prematurely() {
    let mut rng = SplitMix64::new(0x6a7e_0002);
    for _ in 0..64 {
        let len = 1 + rng.index(299);
        let stream = random_stream(&mut rng, len);
        let mut ctl = Controller::new(
            GatingParams::default(),
            NaiveBlackoutPolicy::new(),
            StaticIdleDetect::new(),
        );
        let report = drive(&mut ctl, &stream);
        check_counter_invariants(&report, stream.len() as u64, 14);
        for d in DomainId::ALL {
            if d.is_cuda_core() {
                assert_eq!(report.domain(d).premature_wakeups, 0);
            }
        }
    }
}

#[test]
fn coordinated_blackout_invariants() {
    let mut rng = SplitMix64::new(0x6a7e_0003);
    for _ in 0..64 {
        let len = 1 + rng.index(299);
        let stream = random_stream(&mut rng, len);
        let mut ctl = Controller::new(
            GatingParams::default(),
            CoordinatedBlackoutPolicy::new(),
            StaticIdleDetect::new(),
        );
        let report = drive(&mut ctl, &stream);
        check_counter_invariants(&report, stream.len() as u64, 14);
        for d in DomainId::ALL {
            if d.is_cuda_core() {
                assert_eq!(report.domain(d).premature_wakeups, 0);
            }
        }
    }
}

#[test]
fn controllers_are_deterministic() {
    let mut rng = SplitMix64::new(0x6a7e_0004);
    for _ in 0..32 {
        let len = 1 + rng.index(149);
        let stream = random_stream(&mut rng, len);
        let mut a = conventional(GatingParams::default());
        let mut b = conventional(GatingParams::default());
        let ra = drive(&mut a, &stream);
        let rb = drive(&mut b, &stream);
        assert_eq!(ra, rb);
    }
}

#[test]
fn busy_domains_never_gate() {
    let mut rng = SplitMix64::new(0x6a7e_0005);
    for _ in 0..16 {
        // A domain that is busy every cycle must remain on forever.
        let cycles = 1 + rng.index(199);
        let mut ctl = conventional(GatingParams::default());
        let stream: Vec<Stimulus> = (0..cycles)
            .map(|_| Stimulus {
                busy: [true; NUM_DOMAINS],
                demand: [0; 4],
                actv: [1; 4],
            })
            .collect();
        let report = drive(&mut ctl, &stream);
        for d in DomainId::ALL {
            assert!(ctl.is_on(d));
            assert_eq!(report.domain(d).gate_events, 0);
        }
    }
}

#[test]
fn idle_domains_gate_exactly_once_without_demand() {
    let mut rng = SplitMix64::new(0x6a7e_0006);
    for _ in 0..16 {
        let cycles = 30 + rng.index(170);
        let mut ctl = conventional(GatingParams::default());
        let stream: Vec<Stimulus> = (0..cycles)
            .map(|_| Stimulus {
                busy: [false; NUM_DOMAINS],
                demand: [0; 4],
                actv: [0; 4],
            })
            .collect();
        let report = drive(&mut ctl, &stream);
        for d in DomainId::ALL {
            assert_eq!(report.domain(d).gate_events, 1, "{d}");
            assert_eq!(report.domain(d).wakeups, 0);
            // Gated from cycle idle_detect onward.
            assert_eq!(report.domain(d).gated_cycles, cycles as u64 - 5);
        }
    }
}

// ---------------------------------------------------------------------
// Oracle: the edge-driven `Controller` against a per-cycle reference.

use warped_gates_repro::gates::AdaptiveIdleDetect;
use warped_gates_repro::gating::{
    ConvPgPolicy, GateForecast, GatePolicy, GateState, IdleDetectTuner, PeerSummary, PolicyCtx,
};
use warped_gates_repro::isa::UnitType;
use warped_gates_repro::sim::{
    DomainLayout, DomainMask, Event, Recorder, RecorderConfig, Stamped, MAX_SP_CLUSTERS,
};

/// The controller as it was when every observation walked every domain:
/// one `GateState` per domain, stepped once per observation. Kept as
/// the test oracle for the edge-driven [`Controller`].
struct RefController<P, T> {
    params: GatingParams,
    layout: DomainLayout,
    policy: P,
    tuner: T,
    states: [GateState; NUM_DOMAINS],
    idle_detect: [u32; 4],
    epoch_critical: [u32; 4],
    report: GatingReport,
    recorder: Option<Recorder>,
}

impl<P: GatePolicy, T: IdleDetectTuner> RefController<P, T> {
    fn new(layout: DomainLayout, params: GatingParams, policy: P, tuner: T) -> Self {
        RefController {
            params,
            layout,
            policy,
            tuner,
            states: [GateState::active(); NUM_DOMAINS],
            idle_detect: [params.idle_detect; 4],
            epoch_critical: [0; 4],
            report: GatingReport::new(),
            recorder: None,
        }
    }

    fn emit(&self, cycle: u64, event: Event) {
        if let Some(r) = &self.recorder {
            r.record(cycle, event);
        }
    }

    fn policy_ctx<'a>(
        &'a self,
        domain: DomainId,
        idle_run: u32,
        obs: &CycleObservation,
    ) -> PolicyCtx<'a> {
        let unit = domain.unit();
        let mut peer_states = [GateState::active(); MAX_SP_CLUSTERS];
        let mut n = 0;
        if domain.is_cuda_core() {
            for d in self.layout.domains_of(unit) {
                if *d != domain {
                    peer_states[n] = self.states[d.index()];
                    n += 1;
                }
            }
        }
        PolicyCtx {
            domain,
            params: &self.params,
            idle_detect: self.idle_detect[unit.index()],
            idle_run,
            peers: PeerSummary::from_states(&peer_states[..n]),
            active_subset: obs.active_subset[unit.index()],
            demand: obs.blocked_demand[unit.index()],
        }
    }

    fn observe(&mut self, obs: &CycleObservation) {
        let bet = self.params.bet;
        // Demand not yet consumed by a wakeup this cycle, per unit type.
        let mut demand_left = obs.blocked_demand;

        for domain in self.layout.all().iter().copied() {
            let di = domain.index();
            let ui = domain.unit().index();
            let state = self.states[di];
            match state {
                GateState::Active { idle_run } => {
                    if obs.busy & domain.bit() != 0 {
                        self.states[di] = GateState::Active { idle_run: 0 };
                    } else {
                        let idle_run = idle_run + 1;
                        if idle_run == 1 {
                            self.emit(obs.cycle, Event::IdleDetect { domain });
                        }
                        let should_gate = {
                            let ctx = self.policy_ctx(domain, idle_run, obs);
                            self.policy.should_gate(&ctx)
                        };
                        if should_gate {
                            self.states[di] = GateState::Gated { elapsed: 0 };
                            self.report.domain_mut(domain).gate_events += 1;
                            self.emit(obs.cycle, Event::Gate { domain });
                        } else {
                            self.states[di] = GateState::Active { idle_run };
                        }
                    }
                }
                GateState::Gated { elapsed } => {
                    let elapsed = elapsed + 1;
                    let stats = self.report.domain_mut(domain);
                    stats.gated_cycles += 1;
                    if elapsed <= bet {
                        stats.uncompensated_cycles += 1;
                    } else {
                        stats.compensated_cycles += 1;
                    }
                    let may_wake = {
                        let ctx = self.policy_ctx(domain, 0, obs);
                        self.policy.may_wake(&ctx, elapsed)
                    };
                    if demand_left[ui] > 0 && !may_wake {
                        self.report.domain_mut(domain).demand_blocked_cycles += 1;
                        self.emit(obs.cycle, Event::BlackoutHold { domain });
                    }
                    if demand_left[ui] > 0 && may_wake {
                        demand_left[ui] -= 1;
                        let stats = self.report.domain_mut(domain);
                        stats.wakeups += 1;
                        if elapsed < bet {
                            stats.premature_wakeups += 1;
                        }
                        if elapsed == bet {
                            stats.critical_wakeups += 1;
                            self.epoch_critical[ui] += 1;
                        }
                        self.emit(
                            obs.cycle,
                            Event::Wakeup {
                                domain,
                                gated: elapsed,
                                critical: elapsed == bet,
                                premature: elapsed < bet,
                            },
                        );
                        self.states[di] = GateState::Waking {
                            left: self.params.wakeup_delay,
                        };
                    } else {
                        self.states[di] = GateState::Gated { elapsed };
                    }
                }
                GateState::Waking { left } => {
                    self.report.domain_mut(domain).wakeup_cycles += 1;
                    let left = left - 1;
                    self.states[di] = if left == 0 {
                        self.emit(obs.cycle, Event::WakeComplete { domain });
                        GateState::active()
                    } else {
                        GateState::Waking { left }
                    };
                }
            }
        }

        // Epoch boundary: let the tuner adjust the CUDA-core windows.
        let epoch = self.tuner.epoch_len();
        if epoch > 0 && (obs.cycle + 1).is_multiple_of(epoch) {
            for unit in [UnitType::Int, UnitType::Fp] {
                let ui = unit.index();
                let critical = self.epoch_critical[ui];
                self.tuner
                    .on_epoch(unit, critical, &mut self.idle_detect[ui]);
                self.epoch_critical[ui] = 0;
                self.emit(
                    obs.cycle,
                    Event::TunerEpoch {
                        unit,
                        critical_wakeups: critical,
                        window: self.idle_detect[ui],
                    },
                );
            }
        }
    }
}

/// Gates like ConvPG but a gated peer lengthens the window, and offers
/// no closed form: the controller must poll `should_gate` every cycle.
#[derive(Debug, Clone, Copy)]
struct PollingPolicy;

impl GatePolicy for PollingPolicy {
    fn should_gate(&self, ctx: &PolicyCtx<'_>) -> bool {
        ctx.idle_run >= ctx.idle_detect + ctx.peers.gated
    }

    fn may_wake(&self, _ctx: &PolicyCtx<'_>, elapsed: u32) -> bool {
        elapsed >= 2
    }

    fn name(&self) -> &'static str {
        "Polling"
    }
}

/// Gates only while the unit's active subset is empty; with waiting
/// warps its forecast is `Never`.
#[derive(Debug, Clone, Copy)]
struct SubsetGuardPolicy;

impl GatePolicy for SubsetGuardPolicy {
    fn should_gate(&self, ctx: &PolicyCtx<'_>) -> bool {
        ctx.active_subset == 0 && ctx.idle_run >= ctx.idle_detect
    }

    fn may_wake(&self, ctx: &PolicyCtx<'_>, elapsed: u32) -> bool {
        elapsed >= ctx.params.bet || ctx.demand > 1
    }

    fn forecast_gate(&self, ctx: &PolicyCtx<'_>) -> GateForecast {
        if ctx.active_subset == 0 {
            GateForecast::AtIdleRun(ctx.idle_detect)
        } else {
            GateForecast::Never
        }
    }

    fn name(&self) -> &'static str {
        "SubsetGuard"
    }
}

/// A bursty, grid-shaped stream over `layout`: every domain alternates
/// busy and idle runs of 1–300 cycles (the shorter `max_run` is, the
/// more often runs cross the idle-detect window), demand arrives in
/// bursts of 1–30 cycles about every `demand_every` cycles (long enough
/// to be held by a blackout and to land on the break-even cycle), and
/// the active subsets change only every few hundred cycles, often to
/// zero.
fn bursty_stream(
    rng: &mut SplitMix64,
    layout: DomainLayout,
    len: u64,
    max_run: u64,
    demand_every: u64,
) -> Vec<CycleObservation> {
    let mut run_left = [0u64; NUM_DOMAINS];
    let mut busy: DomainMask = 0;
    let mut demand = [0u32; 4];
    let mut demand_left = [0u64; 4];
    let mut subset = [0u32; 4];
    (0..len)
        .map(|cycle| {
            for d in layout.all() {
                let left = &mut run_left[d.index()];
                if *left == 0 {
                    busy ^= d.bit();
                    *left = 1 + rng.below(max_run);
                }
                *left -= 1;
            }
            for u in 0..4 {
                if demand_left[u] > 0 {
                    demand_left[u] -= 1;
                } else if rng.below(demand_every) == 0 {
                    demand[u] = 1 + rng.below(3) as u32;
                    demand_left[u] = rng.below(30);
                } else {
                    demand[u] = 0;
                }
                if rng.below(300) == 0 {
                    subset[u] = if rng.chance(0.5) {
                        0
                    } else {
                        rng.below(12) as u32
                    };
                }
            }
            CycleObservation {
                cycle,
                busy,
                blocked_demand: demand,
                active_subset: subset,
            }
        })
        .collect()
}

/// Counts of the recorded events that show the stimulus exercised the
/// state machines' rare edges.
#[derive(Debug, Default)]
struct Coverage {
    gates: u64,
    holds: u64,
    critical: u64,
    completions: u64,
    epochs: u64,
}

impl Coverage {
    fn add(&mut self, events: &[Stamped]) {
        for s in events {
            match s.event {
                Event::Gate { .. } => self.gates += 1,
                Event::BlackoutHold { .. } => self.holds += 1,
                Event::Wakeup { critical: true, .. } => self.critical += 1,
                Event::WakeComplete { .. } => self.completions += 1,
                Event::TunerEpoch { .. } => self.epochs += 1,
                _ => {}
            }
        }
    }
}

/// Drives the edge-driven controller and the per-cycle reference with
/// the same streams, asserting after every observation that they agree
/// on `state()`, `is_on()` and `report()`, and at the end of each
/// stream that they recorded the same events.
fn assert_matches_reference<P, T>(
    layout: DomainLayout,
    policy: P,
    tuner: impl Fn() -> T,
    seed: u64,
) -> Coverage
where
    P: GatePolicy + Copy,
    T: IdleDetectTuner,
{
    let params = GatingParams::default();
    let mut rng = SplitMix64::new(seed);
    let mut coverage = Coverage::default();
    for (max_run, demand_every) in [(300, 50), (40, 50), (12, 20), (300, 200)] {
        let stream = bursty_stream(&mut rng, layout, 2500, max_run, demand_every);
        let rec_new = Recorder::new(RecorderConfig::default());
        let rec_ref = Recorder::new(RecorderConfig::default());
        let mut new = Controller::with_layout(layout, params, policy, tuner());
        new.set_recorder(rec_new.clone());
        let mut reference = RefController::new(layout, params, policy, tuner());
        reference.recorder = Some(rec_ref.clone());
        for obs in &stream {
            // Keep the stream legal: a gated or waking domain is never
            // busy.
            let on = (0..NUM_DOMAINS).fold(0, |m: DomainMask, i| {
                m | DomainMask::from(reference.states[i].is_on()) << i
            });
            let obs = CycleObservation {
                busy: obs.busy & on,
                ..*obs
            };
            new.observe(&obs);
            reference.observe(&obs);
            let at = obs.cycle;
            for i in 0..NUM_DOMAINS {
                let d = DomainId::from_index(i);
                assert_eq!(new.state(d), reference.states[i], "{d} state at cycle {at}");
                assert_eq!(
                    new.is_on(d),
                    reference.states[i].is_on(),
                    "{d} power at {at}"
                );
            }
            assert_eq!(new.report(), reference.report, "report at cycle {at}");
        }
        let (got, want) = (rec_new.take(), rec_ref.take());
        assert_eq!(want.dropped, 0, "recorder ring too small for the stream");
        assert_eq!(got.events, want.events, "recorded events diverge");
        coverage.add(&want.events);
    }
    coverage
}

/// Runs [`assert_matches_reference`] for `policy` with the static and
/// the adaptive tuner on the Fermi and the six-cluster layouts.
fn check_policy<P: GatePolicy + Copy>(policy: P, seed: u64) -> Coverage {
    let mut total = Coverage::default();
    for layout in [DomainLayout::fermi(), DomainLayout::kepler()] {
        for (i, c) in [
            assert_matches_reference(layout, policy, StaticIdleDetect::new, seed),
            assert_matches_reference(layout, policy, AdaptiveIdleDetect::new, seed + 1),
        ]
        .into_iter()
        .enumerate()
        {
            assert!(c.epochs > 0, "tuner {i} on {layout:?}: no epoch reached");
            total.gates += c.gates;
            total.holds += c.holds;
            total.critical += c.critical;
            total.completions += c.completions;
            total.epochs += c.epochs;
        }
    }
    assert!(total.gates > 0 && total.completions > 0, "{total:?}");
    total
}

#[test]
fn edge_driven_conv_pg_matches_the_per_cycle_reference() {
    check_policy(ConvPgPolicy::new(), 0x6a7e_0101);
}

#[test]
fn edge_driven_naive_blackout_matches_the_per_cycle_reference() {
    let c = check_policy(NaiveBlackoutPolicy::new(), 0x6a7e_0102);
    assert!(c.holds > 0 && c.critical > 0, "{c:?}");
}

#[test]
fn edge_driven_coordinated_blackout_matches_the_per_cycle_reference() {
    let c = check_policy(CoordinatedBlackoutPolicy::new(), 0x6a7e_0103);
    assert!(c.holds > 0 && c.critical > 0, "{c:?}");
}

#[test]
fn edge_driven_polling_policy_matches_the_per_cycle_reference() {
    // `forecast_gate` is `Unknown`: the controller evaluates every idle
    // powered domain on every observation.
    check_policy(PollingPolicy, 0x6a7e_0104);
}

#[test]
fn edge_driven_never_forecast_matches_the_per_cycle_reference() {
    let c = check_policy(SubsetGuardPolicy, 0x6a7e_0105);
    assert!(c.holds > 0, "{c:?}");
}
