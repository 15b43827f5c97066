//! The gating controller: one state machine per domain, policy-driven.

use crate::machine::GateState;
use crate::params::GatingParams;
use crate::policy::{GateForecast, GatePolicy, IdleDetectTuner, PeerSummary, PolicyCtx};
use warped_isa::UnitType;
use warped_sim::probe::{Event, Recorder};
use warped_sim::{
    CycleObservation, DomainGatingStats, DomainId, DomainLayout, DomainMask, GatingInvariants,
    GatingReport, PowerGating, NUM_DOMAINS,
};

/// A power-gating controller parameterised by a decision
/// [`GatePolicy`] and an [`IdleDetectTuner`].
///
/// The controller tracks the [`GateState`] of every gating domain, the
/// per-type idle-detect registers, the per-epoch critical-wakeup
/// counters, and all statistics. It implements the simulator-facing
/// [`PowerGating`] trait.
///
/// The state machines are driven from edges, like the paper's §5
/// hardware, whose idle-detect counter and break-even timer only matter
/// when they cross a threshold. Each domain stores its state class as
/// mask bits, the observation at which that state began, and a
/// deadline: the observation at which it next has to be looked at (the
/// gate time from [`GatePolicy::forecast_gate`], or the wakeup
/// completion). [`observe`](PowerGating::observe) evaluates only the
/// domains that need it — a busy edge, a unit with nonzero or changed
/// demand or active subset, a due deadline, a same-unit peer that just
/// changed state, or a tuner epoch — and applies the per-cycle rules to
/// them exactly. Every other domain's idle run, gated time or wakeup
/// countdown follows from its entry observation, so the counters of a
/// gated or waking period are closed at its end edge and
/// [`report`](PowerGating::report) and [`Controller::state`] add the
/// still-open period.
///
/// # Examples
///
/// ```
/// use warped_gating::{Controller, ConvPgPolicy, GatingParams, StaticIdleDetect};
/// use warped_sim::{DomainId, PowerGating};
///
/// let ctl = Controller::new(
///     GatingParams::default(),
///     ConvPgPolicy::new(),
///     StaticIdleDetect::new(),
/// );
/// assert!(ctl.is_on(DomainId::FP0));
/// ```
#[derive(Debug, Clone)]
pub struct Controller<P, T> {
    params: GatingParams,
    layout: DomainLayout,
    /// The layout's domains, and those of each unit type.
    layout_mask: DomainMask,
    unit_masks: [DomainMask; 4],
    policy: P,
    tuner: T,
    /// Domains in the active (powered) state; out-of-layout domains
    /// are never touched and stay powered.
    on: DomainMask,
    /// Domains in the gated state. Layout domains in neither `on` nor
    /// `gated` are waking.
    gated: DomainMask,
    /// The busy mask of the last observation (layout domains only).
    busy: DomainMask,
    /// Per domain, the observation its current state began at: the
    /// first observation of the idle run (active), the gate observation
    /// (gated), or the wakeup observation (waking).
    since: [u64; NUM_DOMAINS],
    /// Per domain, the observation at which it must next be evaluated
    /// (`u64::MAX`: only an input change can make it act).
    deadline: [u64; NUM_DOMAINS],
    /// A lower bound on every deadline, so observations before it skip
    /// the deadline scan.
    next_deadline: u64,
    /// Domains to evaluate at the next observation regardless of inputs.
    pending: DomainMask,
    /// Observations made so far (the index of the next one).
    now: u64,
    /// Demand and active subsets of the last observation.
    demand: [u32; 4],
    subset: [u32; 4],
    /// Effective idle-detect window per unit type (INT, FP, SFU, LDST).
    idle_detect: [u32; 4],
    /// Critical wakeups per unit type in the current epoch.
    epoch_critical: [u32; 4],
    /// Counters of every closed period; open gated and waking periods
    /// are added by [`PowerGating::report`].
    report: GatingReport,
    /// Whether self-checks are live (set by the simulator when
    /// [`SmConfig::sanitize`](warped_sim::SmConfig) is on): every tuner
    /// epoch asserts the adjusted windows stay within the tuner's
    /// promised bounds.
    sanitize: bool,
    /// Telemetry recorder (installed by the simulator when
    /// [`SmConfig::telemetry`](warped_sim::SmConfig) is armed). Every
    /// state-machine transition -- idle-detect start, gate, blackout
    /// hold, wakeup, wake completion -- and every tuner epoch decision
    /// is stamped on it. Strictly observe-only.
    recorder: Option<Recorder>,
}

impl<P: GatePolicy, T: IdleDetectTuner> Controller<P, T> {
    /// Creates a controller with every domain powered.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation.
    #[must_use]
    pub fn new(params: GatingParams, policy: P, tuner: T) -> Self {
        Self::with_layout(DomainLayout::fermi(), params, policy, tuner)
    }

    /// Creates a controller for an explicit clustered-architecture
    /// layout (Kepler/GCN studies).
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation.
    #[must_use]
    pub fn with_layout(layout: DomainLayout, params: GatingParams, policy: P, tuner: T) -> Self {
        params.validate();
        Controller {
            params,
            layout,
            layout_mask: layout.mask(),
            unit_masks: UnitType::ALL.map(|u| layout.unit_mask(u)),
            policy,
            tuner,
            on: DomainMask::MAX,
            gated: 0,
            busy: 0,
            since: [0; NUM_DOMAINS],
            deadline: [u64::MAX; NUM_DOMAINS],
            next_deadline: u64::MAX,
            // The first observation starts every domain's idle run.
            pending: layout.mask(),
            now: 0,
            demand: [0; 4],
            subset: [0; 4],
            idle_detect: [params.idle_detect; 4],
            epoch_critical: [0; 4],
            report: GatingReport::new(),
            sanitize: false,
            recorder: None,
        }
    }

    /// The circuit timing parameters in effect.
    #[must_use]
    pub fn params(&self) -> &GatingParams {
        &self.params
    }

    /// Current state of a domain.
    #[must_use]
    pub fn state(&self, domain: DomainId) -> GateState {
        let bit = domain.bit();
        let since = self.since[domain.index()];
        if self.layout_mask & bit == 0 || self.busy & bit != 0 {
            GateState::active()
        } else if self.on & bit != 0 {
            GateState::Active {
                idle_run: (self.now - since) as u32,
            }
        } else if self.gated & bit != 0 {
            GateState::Gated {
                elapsed: (self.now - 1 - since) as u32,
            }
        } else {
            GateState::Waking {
                left: self.params.wakeup_delay - (self.now - 1 - since) as u32,
            }
        }
    }

    /// The effective idle-detect window for a unit type right now.
    #[must_use]
    pub fn idle_detect(&self, unit: UnitType) -> u32 {
        self.idle_detect[unit.index()]
    }

    /// Stamps `event` on the telemetry recorder, if one is installed.
    fn emit(&self, cycle: u64, event: Event) {
        if let Some(r) = &self.recorder {
            r.record(cycle, event);
        }
    }

    fn policy_ctx(&self, domain: DomainId, idle_run: u32, demand: u32) -> PolicyCtx<'_> {
        let ui = domain.unit().index();
        let peers = if domain.is_cuda_core() {
            let peers = self.unit_masks[ui] & !domain.bit();
            let on = (peers & self.on).count_ones();
            let gated = (peers & self.gated).count_ones();
            PeerSummary {
                active: on,
                gated,
                waking: peers.count_ones() - on - gated,
            }
        } else {
            PeerSummary::default()
        };
        PolicyCtx {
            domain,
            params: &self.params,
            idle_detect: self.idle_detect[ui],
            idle_run,
            peers,
            active_subset: self.subset[ui],
            demand,
        }
    }

    /// Counters of the gated or waking period `domain` is in after
    /// `now` observations, as if it were closed there.
    fn open_period(&self, domain: DomainId) -> DomainGatingStats {
        let bit = domain.bit();
        let mut open = DomainGatingStats::default();
        if self.layout_mask & bit == 0 || self.on & bit != 0 {
            return open;
        }
        let len = self.now - 1 - self.since[domain.index()];
        if self.gated & bit != 0 {
            open.gated_cycles = len;
            open.uncompensated_cycles = len.min(u64::from(self.params.bet));
            open.compensated_cycles = len - open.uncompensated_cycles;
        } else {
            open.wakeup_cycles = len;
        }
        open
    }

    /// Applies the per-cycle rules to `domain` at observation `t`.
    /// Returns whether its state class changed.
    fn evaluate(
        &mut self,
        domain: DomainId,
        t: u64,
        obs: &CycleObservation,
        was_busy: DomainMask,
        demand_left: &mut [u32; 4],
    ) -> bool {
        let di = domain.index();
        let ui = domain.unit().index();
        let bit = domain.bit();
        self.deadline[di] = u64::MAX;
        if self.on & bit != 0 {
            if self.busy & bit != 0 {
                return false;
            }
            if was_busy & bit != 0 {
                self.since[di] = t;
            }
            let idle_run = (t - self.since[di] + 1) as u32;
            if idle_run == 1 {
                self.emit(obs.cycle, Event::IdleDetect { domain });
            }
            let ctx = self.policy_ctx(domain, idle_run, obs.blocked_demand[ui]);
            if self.policy.should_gate(&ctx) {
                self.on &= !bit;
                self.gated |= bit;
                self.since[di] = t;
                self.report.domain_mut(domain).gate_events += 1;
                self.emit(obs.cycle, Event::Gate { domain });
                return true;
            }
            // The forecast holds while the context stays frozen; any
            // change to it makes this domain evaluate again sooner.
            self.deadline[di] = match self.policy.forecast_gate(&ctx) {
                GateForecast::AtIdleRun(at) if at > idle_run => t + u64::from(at - idle_run),
                GateForecast::Never => u64::MAX,
                GateForecast::AtIdleRun(_) | GateForecast::Unknown => t + 1,
            };
        } else if self.gated & bit != 0 {
            debug_assert!(self.busy & bit == 0, "gated domain cannot be busy");
            if demand_left[ui] == 0 {
                return false;
            }
            let elapsed = (t - self.since[di]) as u32;
            let bet = self.params.bet;
            let ctx = self.policy_ctx(domain, 0, obs.blocked_demand[ui]);
            if !self.policy.may_wake(&ctx, elapsed) {
                self.report.domain_mut(domain).demand_blocked_cycles += 1;
                self.emit(obs.cycle, Event::BlackoutHold { domain });
                return false;
            }
            demand_left[ui] -= 1;
            let gated = u64::from(elapsed);
            let uncompensated = gated.min(u64::from(bet));
            let stats = self.report.domain_mut(domain);
            stats.gated_cycles += gated;
            stats.uncompensated_cycles += uncompensated;
            stats.compensated_cycles += gated - uncompensated;
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
            self.gated &= !bit;
            self.since[di] = t;
            self.deadline[di] = t + u64::from(self.params.wakeup_delay);
            return true;
        } else {
            debug_assert!(self.busy & bit == 0, "waking domain cannot be busy");
            let done = self.since[di] + u64::from(self.params.wakeup_delay);
            if t < done {
                self.deadline[di] = done;
                return false;
            }
            self.report.domain_mut(domain).wakeup_cycles += u64::from(self.params.wakeup_delay);
            self.emit(obs.cycle, Event::WakeComplete { domain });
            self.on |= bit;
            // The next observation starts a fresh idle run.
            self.since[di] = t + 1;
            self.pending |= bit;
            return true;
        }
        false
    }
}

impl<P: GatePolicy, T: IdleDetectTuner> PowerGating for Controller<P, T> {
    fn is_on(&self, domain: DomainId) -> bool {
        self.on & domain.bit() != 0
    }

    fn observe(&mut self, obs: &CycleObservation) {
        let t = self.now;
        let was_busy = self.busy;
        self.busy = obs.busy & self.layout_mask;

        // Which domains can act this observation: busy edges, queued
        // follow-ups, units whose policy inputs are live or changed, and
        // due deadlines.
        let mut eval = std::mem::take(&mut self.pending) | (was_busy ^ self.busy);
        if obs.blocked_demand != [0; 4]
            || obs.blocked_demand != self.demand
            || obs.active_subset != self.subset
        {
            for ui in 0..4 {
                if obs.blocked_demand[ui] != 0
                    || obs.blocked_demand[ui] != self.demand[ui]
                    || obs.active_subset[ui] != self.subset[ui]
                {
                    eval |= self.unit_masks[ui];
                }
            }
            self.demand = obs.blocked_demand;
            self.subset = obs.active_subset;
        }
        if t >= self.next_deadline {
            let mut next = u64::MAX;
            for d in self.layout.all() {
                let at = self.deadline[d.index()];
                if at <= t {
                    eval |= d.bit();
                } else {
                    next = next.min(at);
                }
            }
            self.next_deadline = next;
        }

        // Evaluate in layout (= index) order, so a domain sees the states
        // its lower-indexed peers took this observation, as per-cycle
        // stepping does. A state change re-evaluates the higher peers
        // now and the lower ones next observation.
        let mut demand_left = obs.blocked_demand;
        while eval != 0 {
            let di = eval.trailing_zeros() as usize;
            eval &= eval - 1;
            let domain = DomainId::from_index(di);
            if self.evaluate(domain, t, obs, was_busy, &mut demand_left) {
                let peers = self.unit_masks[domain.unit().index()] & !domain.bit();
                let below = domain.bit() - 1;
                eval |= peers & !below;
                self.pending |= peers & below;
            }
            self.next_deadline = self.next_deadline.min(self.deadline[di]);
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
                // A moved window invalidates the unit's gate forecasts.
                self.pending |= self.unit_masks[ui];
            }
            if self.sanitize {
                if let Some((lo, hi)) = self.tuner.window_bounds() {
                    for unit in [UnitType::Int, UnitType::Fp] {
                        let w = self.idle_detect[unit.index()];
                        assert!(
                            (lo..=hi).contains(&w),
                            "sanitizer: idle-detect window for {unit:?} is {w} after the epoch \
                             ending at cycle {}, outside the tuner's promised bounds {lo}..={hi}",
                            obs.cycle
                        );
                    }
                }
            }
        }
        self.now = t + 1;
    }

    fn report(&self) -> GatingReport {
        let mut report = self.report.clone();
        for d in self.layout.all() {
            report.domain_mut(*d).accumulate(&self.open_period(*d));
        }
        report
    }

    fn invariants(&self) -> GatingInvariants {
        let mut inv = GatingInvariants {
            // The controller's per-cycle accounting makes the observed
            // powered-off sample count exactly `gated + wakeup` cycles,
            // so the sanitizer may reconcile them exactly.
            off_cycles_accounted: true,
            // A tuner that promises bounds is held to them; a static
            // tuner's window is pinned to its configured value.
            window_bounds: self
                .tuner
                .window_bounds()
                .or(Some((self.params.idle_detect, self.params.idle_detect))),
            ..GatingInvariants::default()
        };
        for domain in self.layout.all() {
            // Any wake spends at least one gated cycle (`elapsed` is
            // incremented before `may_wake` is consulted) plus the full
            // wakeup delay; the policy's floor extends the gated part.
            let floor = self.policy.wake_floor(*domain, &self.params).max(1);
            inv.min_off_run[domain.index()] = u64::from(floor + self.params.wakeup_delay);
        }
        inv
    }

    fn set_sanitize(&mut self, on: bool) {
        self.sanitize = on;
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    fn name(&self) -> &'static str {
        self.policy.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ConvPgPolicy, StaticIdleDetect};

    fn obs(cycle: u64, busy: DomainMask, demand: [u32; 4], actv: [u32; 4]) -> CycleObservation {
        CycleObservation {
            cycle,
            busy,
            blocked_demand: demand,
            active_subset: actv,
        }
    }

    fn quiet(cycle: u64) -> CycleObservation {
        obs(cycle, 0, [0; 4], [0; 4])
    }

    fn conv() -> Controller<ConvPgPolicy, StaticIdleDetect> {
        Controller::new(
            GatingParams::default(),
            ConvPgPolicy::new(),
            StaticIdleDetect::new(),
        )
    }

    #[test]
    fn idle_domain_gates_after_idle_detect_window() {
        let mut c = conv();
        for cyc in 0..4 {
            c.observe(&quiet(cyc));
            assert!(c.is_on(DomainId::INT0), "cycle {cyc}: still detecting");
        }
        c.observe(&quiet(4)); // 5th idle cycle → gate
        assert!(!c.is_on(DomainId::INT0));
        assert!(c.state(DomainId::INT0).is_gated());
        assert_eq!(c.report().domain(DomainId::INT0).gate_events, 1);
    }

    #[test]
    fn busy_cycles_reset_the_idle_counter() {
        let mut c = conv();
        for cyc in 0..4 {
            c.observe(&quiet(cyc));
        }
        c.observe(&obs(4, DomainId::INT0.bit(), [0; 4], [0; 4]));
        // Idle run reset; 4 more idle cycles must not gate.
        for cyc in 5..9 {
            c.observe(&quiet(cyc));
        }
        assert!(c.is_on(DomainId::INT0));
    }

    #[test]
    fn demand_wakes_conventional_gating_even_uncompensated() {
        let mut c = conv();
        for cyc in 0..5 {
            c.observe(&quiet(cyc));
        }
        assert!(c.state(DomainId::INT0).is_gated());
        // One cycle later, demand arrives (elapsed = 2 < bet).
        let mut demand = [0; 4];
        demand[UnitType::Int.index()] = 1;
        c.observe(&obs(5, 0, demand, [0; 4]));
        let s = c.state(DomainId::INT0);
        assert_eq!(s, GateState::Waking { left: 3 });
        let r = c.report();
        assert_eq!(r.domain(DomainId::INT0).wakeups, 1);
        assert_eq!(r.domain(DomainId::INT0).premature_wakeups, 1);
    }

    #[test]
    fn wakeup_takes_wakeup_delay_cycles() {
        let mut c = conv();
        for cyc in 0..5 {
            c.observe(&quiet(cyc));
        }
        let mut demand = [0; 4];
        demand[UnitType::Int.index()] = 1;
        c.observe(&obs(5, 0, demand, [0; 4]));
        // 3 waking cycles.
        c.observe(&quiet(6));
        assert!(!c.is_on(DomainId::INT0));
        c.observe(&quiet(7));
        assert!(!c.is_on(DomainId::INT0));
        c.observe(&quiet(8));
        assert!(c.is_on(DomainId::INT0), "active after wakeup delay");
        assert_eq!(c.report().domain(DomainId::INT0).wakeup_cycles, 3);
    }

    #[test]
    fn single_demand_wakes_only_one_cluster() {
        let mut c = conv();
        for cyc in 0..5 {
            c.observe(&quiet(cyc));
        }
        assert!(c.state(DomainId::INT0).is_gated());
        assert!(c.state(DomainId::INT1).is_gated());
        let mut demand = [0; 4];
        demand[UnitType::Int.index()] = 1;
        c.observe(&obs(5, 0, demand, [0; 4]));
        let woken = [DomainId::INT0, DomainId::INT1]
            .iter()
            .filter(|d| matches!(c.state(**d), GateState::Waking { .. }))
            .count();
        assert_eq!(woken, 1, "exactly one cluster wakes for one instruction");
    }

    #[test]
    fn double_demand_wakes_both_clusters() {
        let mut c = conv();
        for cyc in 0..5 {
            c.observe(&quiet(cyc));
        }
        let mut demand = [0; 4];
        demand[UnitType::Int.index()] = 2;
        c.observe(&obs(5, 0, demand, [0; 4]));
        for d in [DomainId::INT0, DomainId::INT1] {
            assert!(matches!(c.state(d), GateState::Waking { .. }));
        }
    }

    #[test]
    fn compensated_and_uncompensated_cycles_partition_gated_cycles() {
        let mut c = conv();
        // Gate at cycle 4; stay gated for 20 cycles; then wake.
        for cyc in 0..25 {
            c.observe(&quiet(cyc));
        }
        let mut demand = [0; 4];
        demand[UnitType::Int.index()] = 2;
        demand[UnitType::Fp.index()] = 2;
        c.observe(&obs(25, 0, demand, [0; 4]));
        let r = c.report();
        let s = r.domain(DomainId::INT0);
        assert_eq!(
            s.gated_cycles,
            s.compensated_cycles + s.uncompensated_cycles
        );
        assert_eq!(
            s.uncompensated_cycles, 14,
            "first BET cycles are uncompensated"
        );
        assert!(s.compensated_cycles > 0);
    }

    #[test]
    fn critical_wakeup_fires_exactly_at_bet() {
        let mut c = conv();
        // Gate INT at cycle 4 (after 5 idle cycles). Then wait until the
        // gated elapsed counter reaches exactly BET and apply demand.
        for cyc in 0..5 {
            c.observe(&quiet(cyc));
        }
        // elapsed becomes 1..=13 over the next 13 quiet cycles.
        for cyc in 5..18 {
            c.observe(&quiet(cyc));
        }
        let mut demand = [0; 4];
        demand[UnitType::Int.index()] = 1;
        // This observation raises elapsed to 14 == BET with demand.
        c.observe(&obs(18, 0, demand, [0; 4]));
        assert_eq!(c.report().domain(DomainId::INT0).critical_wakeups, 1);
    }

    #[test]
    fn all_domains_gate_independently() {
        let mut c = conv();
        for cyc in 0..10 {
            c.observe(&obs(cyc, DomainId::LDST.bit(), [0; 4], [0; 4]));
        }
        assert!(c.is_on(DomainId::LDST), "busy LDST never gates");
        for d in [
            DomainId::INT0,
            DomainId::INT1,
            DomainId::FP0,
            DomainId::FP1,
            DomainId::SFU,
        ] {
            assert!(!c.is_on(d), "{d} idle for 10 cycles must be gated");
        }
    }

    #[test]
    fn report_name_comes_from_policy() {
        let c = conv();
        assert_eq!(c.name(), "ConvPG");
    }

    #[test]
    fn invariants_describe_conventional_gating() {
        let c = conv();
        let inv = c.invariants();
        assert!(inv.off_cycles_accounted);
        // Static tuner: window pinned to the configured value.
        let p = GatingParams::default();
        assert_eq!(inv.window_bounds, Some((p.idle_detect, p.idle_detect)));
        // ConvPG claims no wake floor, so the minimum off-run is the
        // structural one gated cycle plus the wakeup delay.
        for d in DomainId::ALL {
            assert_eq!(
                inv.min_off_run[d.index()],
                u64::from(1 + p.wakeup_delay),
                "{d}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside the tuner's promised bounds")]
    fn sanitize_catches_a_tuner_escaping_its_bounds() {
        struct Runaway;
        impl IdleDetectTuner for Runaway {
            fn on_epoch(&mut self, _unit: UnitType, _critical: u32, idle_detect: &mut u32) {
                *idle_detect += 100;
            }
            fn window_bounds(&self) -> Option<(u32, u32)> {
                Some((5, 10))
            }
            fn name(&self) -> &'static str {
                "runaway"
            }
        }
        let mut c = Controller::new(GatingParams::default(), ConvPgPolicy::new(), Runaway);
        c.set_sanitize(true);
        for cyc in 0..1000 {
            c.observe(&quiet(cyc));
        }
    }

    #[test]
    fn sanitize_off_lets_a_bad_tuner_run() {
        // Same runaway tuner, sanitizer off: release behaviour is
        // unchecked (and unchanged).
        struct Runaway;
        impl IdleDetectTuner for Runaway {
            fn on_epoch(&mut self, _unit: UnitType, _critical: u32, idle_detect: &mut u32) {
                *idle_detect += 100;
            }
            fn window_bounds(&self) -> Option<(u32, u32)> {
                Some((5, 10))
            }
            fn name(&self) -> &'static str {
                "runaway"
            }
        }
        let mut c = Controller::new(GatingParams::default(), ConvPgPolicy::new(), Runaway);
        for cyc in 0..1000 {
            c.observe(&quiet(cyc));
        }
        assert_eq!(c.idle_detect(UnitType::Int), 105);
    }

    /// Expands a fast-forward into the per-cycle reference: loops
    /// `observe` and diffs `is_on` after each, matching the
    /// [`PowerGating::fast_forward`] offset convention.
    fn step_reference(
        c: &mut Controller<ConvPgPolicy, StaticIdleDetect>,
        obs: &CycleObservation,
        cycles: u64,
    ) -> Vec<warped_sim::GateTransition> {
        let mut out = Vec::new();
        for k in 0..cycles {
            let mut before = [false; NUM_DOMAINS];
            for d in DomainId::ALL {
                before[d.index()] = c.is_on(d);
            }
            c.observe(&CycleObservation {
                cycle: obs.cycle + k,
                ..*obs
            });
            for d in DomainId::ALL {
                if c.is_on(d) != before[d.index()] {
                    out.push(warped_sim::GateTransition {
                        offset: k + 1,
                        domain: d,
                        powered: c.is_on(d),
                    });
                }
            }
        }
        out
    }

    fn assert_ff_matches(prefix: &[CycleObservation], obs: &CycleObservation, cycles: u64) {
        let mut fast = conv();
        let mut slow = conv();
        for o in prefix {
            fast.observe(o);
            slow.observe(o);
        }
        let mut got = Vec::new();
        fast.fast_forward(obs, cycles, &mut got);
        let want = step_reference(&mut slow, obs, cycles);
        assert_eq!(got, want, "transition streams diverge");
        for d in DomainId::ALL {
            assert_eq!(fast.state(d), slow.state(d), "{d} state diverges");
        }
        assert_eq!(fast.report(), slow.report(), "reports diverge");
    }

    #[test]
    fn fast_forward_matches_per_cycle_from_fresh_state() {
        // A long quiet span from power-on: every domain gates at the
        // idle-detect boundary, then sleeps across epoch boundaries.
        assert_ff_matches(&[], &quiet(0), 2500);
    }

    #[test]
    fn fast_forward_matches_per_cycle_with_busy_domains() {
        // LDST stays busy for the whole span (a pipe with a pending
        // retirement): it must stay active with a zero idle run while
        // everything else gates.
        let span = obs(7, DomainId::LDST.bit(), [0; 4], [0; 4]);
        assert_ff_matches(&[], &span, 400);
    }

    #[test]
    fn fast_forward_matches_per_cycle_from_mixed_states() {
        // Prefix: gate everything, then wake one INT cluster so the span
        // starts with a Waking domain mid-countdown.
        let mut prefix: Vec<CycleObservation> = (0..6).map(quiet).collect();
        let mut demand = [0; 4];
        demand[UnitType::Int.index()] = 1;
        prefix.push(obs(6, 0, demand, [0; 4]));
        assert_ff_matches(&prefix, &quiet(7), 1000);
    }

    #[test]
    fn fast_forward_with_standing_demand_matches_per_cycle() {
        // Demand repeated every observed cycle (outside the simulator's
        // quiet-span use, but part of the trait contract): gated domains
        // wake, finish waking, re-idle, and re-gate.
        let prefix: Vec<CycleObservation> = (0..8).map(quiet).collect();
        let mut demand = [0; 4];
        demand[UnitType::Fp.index()] = 1;
        let span = obs(8, 0, demand, [0; 4]);
        assert_ff_matches(&prefix, &span, 300);
    }

    #[test]
    fn fast_forward_records_the_same_events_as_stepping() {
        use warped_sim::probe::RecorderConfig;
        // Prefix puts one INT cluster mid-wake, then a long quiet span
        // crosses gates, wake completions, and two epoch boundaries.
        let mut prefix: Vec<CycleObservation> = (0..6).map(quiet).collect();
        let mut demand = [0; 4];
        demand[UnitType::Int.index()] = 1;
        prefix.push(obs(6, 0, demand, [0; 4]));

        let run = |fast: bool| -> Vec<warped_sim::Stamped> {
            let rec = Recorder::new(RecorderConfig::default());
            let mut c = conv();
            c.set_recorder(rec.clone());
            for o in &prefix {
                c.observe(o);
            }
            if fast {
                let mut t = Vec::new();
                c.fast_forward(&quiet(7), 2500, &mut t);
            } else {
                for k in 0..2500 {
                    c.observe(&quiet(7 + k));
                }
            }
            rec.take().events
        };

        let fast = run(true);
        let slow = run(false);
        assert!(!fast.is_empty(), "the span must produce events");
        assert!(
            fast.iter()
                .any(|s| matches!(s.event, Event::IdleDetect { .. })),
            "idle-detect starts must survive a skipped span"
        );
        assert!(
            fast.iter()
                .any(|s| matches!(s.event, Event::TunerEpoch { .. })),
            "epoch boundaries must stamp tuner decisions"
        );
        assert_eq!(fast, slow, "telemetry streams diverge between modes");
    }

    #[test]
    fn fast_forward_in_tiny_increments_matches_one_shot() {
        // Chopping a span into arbitrary pieces must not change anything.
        let mut one = conv();
        let mut many = conv();
        let mut t_one = Vec::new();
        one.fast_forward(&quiet(0), 97, &mut t_one);
        let mut at = 0u64;
        let mut t_many = Vec::new();
        for chunk in [1u64, 2, 3, 5, 8, 13, 21, 34, 10] {
            let mut t = Vec::new();
            many.fast_forward(&quiet(at), chunk, &mut t);
            for mut tr in t {
                tr.offset += at;
                t_many.push(tr);
            }
            at += chunk;
        }
        assert_eq!(at, 97);
        assert_eq!(t_one, t_many);
        assert_eq!(one.report(), many.report());
        for d in DomainId::ALL {
            assert_eq!(one.state(d), many.state(d));
        }
    }
}
