//! Whole-SM coarse power gating: the related-work baseline.
//!
//! Prior GPU power-gating work (Wang et al., *Power gating strategies on
//! GPUs*, ACM TACO) gates at the granularity of entire streaming
//! multiprocessors: the SM's execution resources sleep only when *all*
//! of them have been idle together for the idle-detect window, and any
//! demand wakes all of them. The Warped Gates paper argues this misses
//! most of the opportunity, because individual unit types idle long and
//! often even while the SM as a whole stays busy. This controller exists
//! to quantify that argument inside the same simulator.

use crate::machine::GateState;
use crate::params::GatingParams;
use warped_sim::{CycleObservation, DomainId, DomainLayout, GatingReport, PowerGating};

/// Coarse-grained, SM-level power gating.
///
/// One shared state machine covers every execution domain: it gates
/// when the whole SM's execution units have been simultaneously idle
/// for the idle-detect window and wakes (conventionally — no blackout)
/// as soon as any instruction type shows demand. Statistics are
/// reported per-domain (each domain mirrors the shared state) so the
/// usual energy accounting applies unchanged.
///
/// # Examples
///
/// ```
/// use warped_gating::{GatingParams, SmCoarseGating};
/// use warped_sim::{DomainId, PowerGating};
///
/// let ctl = SmCoarseGating::new(GatingParams::default());
/// assert!(ctl.is_on(DomainId::INT0));
/// assert_eq!(ctl.name(), "SM-Coarse");
/// ```
#[derive(Debug, Clone)]
pub struct SmCoarseGating {
    params: GatingParams,
    layout: DomainLayout,
    state: GateState,
    report: GatingReport,
}

impl SmCoarseGating {
    /// Creates the controller with the SM powered.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation.
    #[must_use]
    pub fn new(params: GatingParams) -> Self {
        params.validate();
        SmCoarseGating {
            params,
            layout: DomainLayout::fermi(),
            state: GateState::active(),
            report: GatingReport::new(),
        }
    }

    /// The shared gating state of the whole SM.
    #[must_use]
    pub fn state(&self) -> GateState {
        self.state
    }

    fn bump_all(&mut self, f: impl Fn(&mut warped_sim::DomainGatingStats)) {
        for d in self.layout.all() {
            f(self.report.domain_mut(*d));
        }
    }
}

impl PowerGating for SmCoarseGating {
    fn is_on(&self, _domain: DomainId) -> bool {
        self.state.is_on()
    }

    fn observe(&mut self, obs: &CycleObservation) {
        let bet = self.params.bet;
        let any_busy = obs.busy != 0;
        let any_demand = obs.blocked_demand.iter().any(|d| *d > 0);

        self.state = match self.state {
            GateState::Active { idle_run } => {
                if any_busy {
                    GateState::Active { idle_run: 0 }
                } else {
                    let idle_run = idle_run + 1;
                    if idle_run >= self.params.idle_detect {
                        self.bump_all(|s| s.gate_events += 1);
                        GateState::Gated { elapsed: 0 }
                    } else {
                        GateState::Active { idle_run }
                    }
                }
            }
            GateState::Gated { elapsed } => {
                debug_assert!(!any_busy, "gated SM cannot be busy");
                let elapsed = elapsed + 1;
                self.bump_all(|s| {
                    s.gated_cycles += 1;
                    if elapsed <= bet {
                        s.uncompensated_cycles += 1;
                    } else {
                        s.compensated_cycles += 1;
                    }
                });
                if any_demand {
                    self.bump_all(|s| {
                        s.wakeups += 1;
                        if elapsed < bet {
                            s.premature_wakeups += 1;
                        }
                        if elapsed == bet {
                            s.critical_wakeups += 1;
                        }
                    });
                    GateState::Waking {
                        left: self.params.wakeup_delay,
                    }
                } else {
                    GateState::Gated { elapsed }
                }
            }
            GateState::Waking { left } => {
                self.bump_all(|s| s.wakeup_cycles += 1);
                let left = left - 1;
                if left == 0 {
                    GateState::active()
                } else {
                    GateState::Waking { left }
                }
            }
        };
    }

    fn report(&self) -> GatingReport {
        self.report.clone()
    }

    fn name(&self) -> &'static str {
        "SM-Coarse"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_sim::GateTransition;

    fn obs(busy_domain: Option<DomainId>, demand: bool) -> CycleObservation {
        let busy = busy_domain.map_or(0, DomainId::bit);
        let mut blocked = [0u32; 4];
        if demand {
            blocked[0] = 1;
        }
        CycleObservation {
            cycle: 0,
            busy,
            blocked_demand: blocked,
            active_subset: [0; 4],
        }
    }

    #[test]
    fn one_busy_unit_keeps_the_whole_sm_awake() {
        let mut ctl = SmCoarseGating::new(GatingParams::default());
        // LDST alone stays busy: nothing may gate, ever.
        for _ in 0..100 {
            ctl.observe(&obs(Some(DomainId::LDST), false));
        }
        for d in DomainId::ALL {
            assert!(ctl.is_on(d));
        }
        assert_eq!(ctl.report().domain(DomainId::FP0).gate_events, 0);
    }

    #[test]
    fn fully_idle_sm_gates_every_domain_together() {
        let mut ctl = SmCoarseGating::new(GatingParams::default());
        for _ in 0..5 {
            ctl.observe(&obs(None, false));
        }
        for d in DomainId::ALL {
            assert!(!ctl.is_on(d), "{d} should be gated with the SM");
            assert_eq!(ctl.report().domain(d).gate_events, 1);
        }
    }

    #[test]
    fn any_demand_wakes_everything() {
        let mut ctl = SmCoarseGating::new(GatingParams::default());
        for _ in 0..5 {
            ctl.observe(&obs(None, false));
        }
        ctl.observe(&obs(None, true));
        assert!(matches!(ctl.state(), GateState::Waking { .. }));
        // 3 wakeup cycles later everything is on again.
        for _ in 0..3 {
            ctl.observe(&obs(None, false));
        }
        for d in DomainId::ALL {
            assert!(ctl.is_on(d));
        }
        assert_eq!(ctl.report().domain(DomainId::INT1).wakeups, 1);
        assert_eq!(ctl.report().domain(DomainId::INT1).premature_wakeups, 1);
    }

    #[test]
    fn fast_forward_matches_per_cycle_stepping() {
        // Cover the full state cycle: detect → gated (past BET) → wake →
        // active again, and a busy span that pins the SM awake.
        let cases: &[(Option<DomainId>, bool, u64)] = &[
            (None, false, 1000),
            (Some(DomainId::SFU), false, 50),
            (None, true, 40),
        ];
        for &(busy, demand, cycles) in cases {
            let mut fast = SmCoarseGating::new(GatingParams::default());
            let mut slow = SmCoarseGating::new(GatingParams::default());
            // A shared prefix leaves both mid-idle-detect.
            for c in [&mut fast, &mut slow] {
                c.observe(&obs(None, false));
                c.observe(&obs(None, false));
            }
            let span = obs(busy, demand);
            let mut got = Vec::new();
            fast.fast_forward(&span, cycles, &mut got);
            let mut want = Vec::new();
            for k in 0..cycles {
                let was_on = slow.state().is_on();
                slow.observe(&CycleObservation {
                    cycle: span.cycle + k,
                    ..span
                });
                if slow.state().is_on() != was_on {
                    // The whole SM shares one state: every domain index
                    // flips, in or out of the layout (the SM drops
                    // out-of-layout edges before its observers see them).
                    for i in 0..warped_sim::NUM_DOMAINS {
                        want.push(GateTransition {
                            offset: k + 1,
                            domain: DomainId::from_index(i),
                            powered: slow.state().is_on(),
                        });
                    }
                }
            }
            assert_eq!(got, want, "busy={busy:?} demand={demand}");
            assert_eq!(fast.state(), slow.state(), "busy={busy:?} demand={demand}");
            assert_eq!(
                fast.report(),
                slow.report(),
                "busy={busy:?} demand={demand}"
            );
        }
    }

    #[test]
    fn counters_partition_like_fine_grained_controllers() {
        let mut ctl = SmCoarseGating::new(GatingParams::default());
        for i in 0..200u64 {
            // Gate, then wake at i=40, then idle again.
            let demand = i == 40;
            ctl.observe(&obs(None, demand));
        }
        let report = ctl.report();
        for d in DomainId::ALL {
            let s = report.domain(d);
            assert_eq!(
                s.gated_cycles,
                s.compensated_cycles + s.uncompensated_cycles
            );
            assert!(s.wakeups <= s.gate_events);
        }
    }
}
