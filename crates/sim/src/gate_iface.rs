//! The power-gating controller interface seen by the simulator.
//!
//! The simulator asks the controller, every cycle, whether each domain can
//! accept an instruction; after issue it hands the controller the cycle's
//! busy mask, unsatisfied demand, and active-subset occupancy so
//! the controller can advance its state machines. Concrete controllers
//! (conventional power gating, Blackout, Warped Gates) live in the
//! `warped-gating` and `warped-gates` crates.

use crate::domain::{DomainId, DomainMask, NUM_DOMAINS};
use crate::sanitize::GatingInvariants;

/// Aggregate power-gating activity of one run, in plain data form.
///
/// Controllers fill one entry per gating domain. All figures in the
/// paper's evaluation that concern gating behaviour (8b compensated
/// cycles, 8c wakeups, 9 energy, 6 critical wakeups) derive from this
/// report plus the simulator's own [`SimStats`](crate::SimStats).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GatingReport {
    /// Per-domain counters, indexed by [`DomainId::index`].
    pub domains: Vec<DomainGatingStats>,
}

/// Gating counters for a single domain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainGatingStats {
    /// Times the domain entered the gated state.
    pub gate_events: u64,
    /// Times the domain was woken up (≤ `gate_events`).
    pub wakeups: u64,
    /// Wakeups that fired the very cycle the break-even time elapsed
    /// (the paper's *critical wakeups*; meaningful for Blackout).
    pub critical_wakeups: u64,
    /// Cycles spent gated, total.
    pub gated_cycles: u64,
    /// Gated cycles beyond the break-even time (net-saving cycles).
    pub compensated_cycles: u64,
    /// Gated cycles within the break-even time.
    pub uncompensated_cycles: u64,
    /// Cycles spent in the wakeup (voltage-restore) state.
    pub wakeup_cycles: u64,
    /// Gating events that ended before the break-even time elapsed
    /// (net energy loss events; zero under Blackout by construction).
    pub premature_wakeups: u64,
    /// Cycles spent gated while demand was pending but the policy
    /// refused to wake (Blackout's enforced-sleep exposure: an upper
    /// bound on the performance cost of the break-even lock).
    pub demand_blocked_cycles: u64,
}

impl GatingReport {
    /// A zeroed report with one entry per domain.
    #[must_use]
    pub fn new() -> Self {
        GatingReport {
            domains: vec![DomainGatingStats::default(); NUM_DOMAINS],
        }
    }

    /// Counters for `domain`.
    ///
    /// # Panics
    ///
    /// Panics if the report was built with fewer than `NUM_DOMAINS`
    /// entries.
    #[must_use]
    pub fn domain(&self, domain: DomainId) -> &DomainGatingStats {
        &self.domains[domain.index()]
    }

    /// Mutable counters for `domain`.
    #[must_use]
    pub fn domain_mut(&mut self, domain: DomainId) -> &mut DomainGatingStats {
        &mut self.domains[domain.index()]
    }

    /// Sums counters over a set of domains (e.g. both INT clusters).
    #[must_use]
    pub fn sum_over(&self, domains: &[DomainId]) -> DomainGatingStats {
        let mut out = DomainGatingStats::default();
        for d in domains {
            out.accumulate(self.domain(*d));
        }
        out
    }

    /// Adds every counter of `other` into this report, domain by domain.
    ///
    /// This is the one place cross-SM (and cross-run) gating aggregation
    /// happens; a counter added to [`DomainGatingStats`] only needs a
    /// line in [`DomainGatingStats::accumulate`] to flow through every
    /// aggregation path.
    ///
    /// # Panics
    ///
    /// Panics if the reports cover different numbers of domains.
    pub fn merge(&mut self, other: &GatingReport) {
        assert_eq!(
            self.domains.len(),
            other.domains.len(),
            "merging gating reports with different domain counts"
        );
        for (agg, d) in self.domains.iter_mut().zip(&other.domains) {
            agg.accumulate(d);
        }
    }
}

impl DomainGatingStats {
    /// Adds every counter of `other` into `self`.
    pub fn accumulate(&mut self, other: &DomainGatingStats) {
        let DomainGatingStats {
            gate_events,
            wakeups,
            critical_wakeups,
            gated_cycles,
            compensated_cycles,
            uncompensated_cycles,
            wakeup_cycles,
            premature_wakeups,
            demand_blocked_cycles,
        } = other;
        self.gate_events += gate_events;
        self.wakeups += wakeups;
        self.critical_wakeups += critical_wakeups;
        self.gated_cycles += gated_cycles;
        self.compensated_cycles += compensated_cycles;
        self.uncompensated_cycles += uncompensated_cycles;
        self.wakeup_cycles += wakeup_cycles;
        self.premature_wakeups += premature_wakeups;
        self.demand_blocked_cycles += demand_blocked_cycles;
    }
}

/// A power-state edge produced while fast-forwarding the clock.
///
/// `offset` is the position of the edge inside the skipped span,
/// counted in *cycles after the span's first cycle*: a transition made
/// while observing span cycle `k` (0-based) becomes visible to the
/// issue stage — and therefore to observer samples — at offset `k + 1`,
/// matching the one-cycle visibility delay of per-cycle stepping.
/// Offsets are in `1..=span_length` and non-decreasing within the
/// transition list a controller emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateTransition {
    /// Cycles after the first skipped cycle at which the new power
    /// state becomes visible.
    pub offset: u64,
    /// The domain whose power state changed.
    pub domain: DomainId,
    /// The new power state (`true` = powered).
    pub powered: bool,
}

/// Per-cycle inputs handed to the controller after the issue phase.
#[derive(Debug, Clone, Copy)]
pub struct CycleObservation {
    /// The cycle that just executed.
    pub cycle: u64,
    /// The domains whose pipeline held at least one instruction (bit
    /// [`DomainId::index`]; see [`DomainId::bit`]).
    pub busy: DomainMask,
    /// How many ready instructions of each unit type (INT, FP, SFU, LDST)
    /// failed to issue because every capable domain was gated, waking, or
    /// already port-saturated. This is the controller's wakeup demand
    /// signal (the "ready instruction scheduled" edge of Figure 2c).
    pub blocked_demand: [u32; 4],
    /// Number of warps in the per-type active-warp subsets
    /// (the paper's `INT_ACTV` / `FP_ACTV` counters, plus SFU/LDST).
    pub active_subset: [u32; 4],
}

/// A power-gating controller.
///
/// The simulator calls [`is_on`](PowerGating::is_on) during the issue
/// phase (a domain that is gated or waking cannot accept instructions)
/// and [`observe`](PowerGating::observe) exactly once at the end of every
/// cycle.
pub trait PowerGating {
    /// Whether `domain` can accept an instruction this cycle.
    fn is_on(&self, domain: DomainId) -> bool;

    /// Advances controller state at the end of a cycle.
    fn observe(&mut self, obs: &CycleObservation);

    /// Advances controller state across `cycles` consecutive
    /// observations that are all identical to `obs` except for the
    /// cycle number (`obs.cycle`, `obs.cycle + 1`, ...).
    ///
    /// The simulator calls this instead of `cycles` individual
    /// [`observe`](PowerGating::observe) calls when it fast-forwards
    /// the clock through a stall region, so the caller guarantees the
    /// span is *quiet*: `blocked_demand` and `active_subset` are all
    /// zero and the busy flags cannot change mid-span (any busy pipe's
    /// retirement event bounds the span). Every power-state edge the
    /// controller makes during the span must be appended to
    /// `transitions` (see [`GateTransition`] for the offset
    /// convention) so observers can reconstruct exact per-cycle
    /// powered flags.
    ///
    /// The contract is **bit-equality**: counters, internal state, and
    /// subsequent [`is_on`](PowerGating::is_on) answers must be
    /// indistinguishable from having stepped the span cycle by cycle.
    /// The default implementation simply loops `observe` and diffs
    /// `is_on`, which is always correct. It is also fast for a
    /// controller whose `observe` does no work on a quiet cycle, as the
    /// deadline-driven `warped_gating::Controller` does; the whole-SM
    /// coarse controller overrides it with a closed form.
    fn fast_forward(
        &mut self,
        obs: &CycleObservation,
        cycles: u64,
        transitions: &mut Vec<GateTransition>,
    ) {
        let mut prev = [false; NUM_DOMAINS];
        for (i, p) in prev.iter_mut().enumerate() {
            *p = self.is_on(DomainId::from_index(i));
        }
        for k in 0..cycles {
            let step = CycleObservation {
                cycle: obs.cycle + k,
                ..*obs
            };
            self.observe(&step);
            for (i, p) in prev.iter_mut().enumerate() {
                let on = self.is_on(DomainId::from_index(i));
                if on != *p {
                    transitions.push(GateTransition {
                        offset: k + 1,
                        domain: DomainId::from_index(i),
                        powered: on,
                    });
                    *p = on;
                }
            }
        }
    }

    /// Powered flags for `domains` in one call, indexed by
    /// [`DomainId::index`]; entries for domains outside the slice stay
    /// `false`.
    ///
    /// Semantically identical to asking [`is_on`](PowerGating::is_on)
    /// per domain — the provided body does exactly that — but provided
    /// methods compile per implementation, so the `is_on` calls inside
    /// are static. The simulator queries the whole layout every cycle;
    /// through a `Box<dyn PowerGating>` this costs one virtual dispatch
    /// instead of one per domain.
    fn powered_flags(&self, domains: &[DomainId]) -> [bool; NUM_DOMAINS] {
        let mut on = [false; NUM_DOMAINS];
        for d in domains {
            on[d.index()] = self.is_on(*d);
        }
        on
    }

    /// Final counters for reporting.
    fn report(&self) -> GatingReport;

    /// Human-readable controller name (used in reports and figures).
    fn name(&self) -> &'static str;

    /// The machine-checkable contract this controller claims to honor
    /// (see [`GatingInvariants`]). The simulator's sanitizer holds the
    /// observable sample stream to these claims when
    /// [`SmConfig::sanitize`](crate::SmConfig) is enabled.
    ///
    /// The default claims nothing, which is always sound: the sanitizer
    /// then checks only the universal invariants (busy ⇒ powered,
    /// stream integrity, span/per-cycle conservation).
    fn invariants(&self) -> GatingInvariants {
        GatingInvariants::default()
    }

    /// Enables (or disables) the controller's internal self-checks —
    /// assertions over state the sample stream cannot see, such as the
    /// adaptive idle-detect window staying inside its tuner's bounds.
    ///
    /// The default is a no-op for controllers with nothing to check.
    fn set_sanitize(&mut self, on: bool) {
        let _ = on;
    }

    /// Hands the controller a telemetry recorder
    /// ([`Recorder`](crate::probe::Recorder)) to stamp state-machine
    /// events on (idle-detect starts, gates, blackout holds, wakeups,
    /// tuner epochs). Recording must be observe-only: installing a
    /// recorder must not change any gating decision.
    ///
    /// The default drops the handle, which is always sound — the
    /// controller simply contributes no events.
    fn set_recorder(&mut self, recorder: crate::probe::Recorder) {
        let _ = recorder;
    }
}

/// The no-gating baseline: every unit is always powered.
///
/// # Examples
///
/// ```
/// use warped_sim::{AlwaysOn, DomainId, PowerGating};
///
/// let ctl = AlwaysOn::new();
/// assert!(ctl.is_on(DomainId::FP1));
/// assert_eq!(ctl.report().domain(DomainId::FP1).gate_events, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AlwaysOn {
    _private: (),
}

impl AlwaysOn {
    /// Creates the always-on controller.
    #[must_use]
    pub fn new() -> Self {
        AlwaysOn { _private: () }
    }
}

impl PowerGating for AlwaysOn {
    fn is_on(&self, _domain: DomainId) -> bool {
        true
    }

    fn observe(&mut self, _obs: &CycleObservation) {}

    fn fast_forward(
        &mut self,
        _obs: &CycleObservation,
        _cycles: u64,
        _transitions: &mut Vec<GateTransition>,
    ) {
        // Every domain stays powered: no state, no edges.
    }

    fn report(&self) -> GatingReport {
        GatingReport::new()
    }

    fn name(&self) -> &'static str {
        "Baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_on_never_gates() {
        let mut ctl = AlwaysOn::new();
        for d in DomainId::ALL {
            assert!(ctl.is_on(d));
        }
        ctl.observe(&CycleObservation {
            cycle: 0,
            busy: 0,
            blocked_demand: [0; 4],
            active_subset: [0; 4],
        });
        let r = ctl.report();
        for d in DomainId::ALL {
            assert_eq!(r.domain(d).gated_cycles, 0);
        }
    }

    #[test]
    fn report_sums_over_domains() {
        let mut r = GatingReport::new();
        r.domain_mut(DomainId::INT0).gate_events = 2;
        r.domain_mut(DomainId::INT0).gated_cycles = 30;
        r.domain_mut(DomainId::INT1).gate_events = 3;
        r.domain_mut(DomainId::INT1).gated_cycles = 12;
        let s = r.sum_over(DomainId::domains_of(warped_isa::UnitType::Int));
        assert_eq!(s.gate_events, 5);
        assert_eq!(s.gated_cycles, 42);
    }

    #[test]
    fn merge_adds_every_counter_per_domain() {
        let mut a = GatingReport::new();
        let mut b = GatingReport::new();
        for (i, d) in a.domains.iter_mut().enumerate() {
            *d = DomainGatingStats {
                gate_events: i as u64,
                wakeups: 1,
                critical_wakeups: 2,
                gated_cycles: 3,
                compensated_cycles: 4,
                uncompensated_cycles: 5,
                wakeup_cycles: 6,
                premature_wakeups: 7,
                demand_blocked_cycles: 8,
            };
        }
        b.domains.clone_from(&a.domains);
        a.merge(&b);
        for (i, d) in a.domains.iter().enumerate() {
            assert_eq!(d.gate_events, 2 * i as u64);
            assert_eq!(d.wakeups, 2);
            assert_eq!(d.critical_wakeups, 4);
            assert_eq!(d.gated_cycles, 6);
            assert_eq!(d.compensated_cycles, 8);
            assert_eq!(d.uncompensated_cycles, 10);
            assert_eq!(d.wakeup_cycles, 12);
            assert_eq!(d.premature_wakeups, 14);
            assert_eq!(d.demand_blocked_cycles, 16);
        }
    }

    #[test]
    fn report_new_covers_all_domains() {
        let r = GatingReport::new();
        assert_eq!(r.domains.len(), NUM_DOMAINS);
    }

    /// Gates INT0 once it has seen `threshold` idle observations.
    struct CountdownGater {
        idle: u32,
        threshold: u32,
        report: GatingReport,
    }

    impl PowerGating for CountdownGater {
        fn is_on(&self, domain: DomainId) -> bool {
            domain != DomainId::INT0 || self.idle < self.threshold
        }

        fn observe(&mut self, _obs: &CycleObservation) {
            if self.idle >= self.threshold {
                self.report.domain_mut(DomainId::INT0).gated_cycles += 1;
            }
            self.idle += 1;
        }

        fn report(&self) -> GatingReport {
            self.report.clone()
        }

        fn name(&self) -> &'static str {
            "countdown"
        }
    }

    #[test]
    fn default_fast_forward_matches_looped_observe() {
        let obs = CycleObservation {
            cycle: 10,
            busy: 0,
            blocked_demand: [0; 4],
            active_subset: [0; 4],
        };
        let mut stepped = CountdownGater {
            idle: 0,
            threshold: 3,
            report: GatingReport::new(),
        };
        for k in 0..8 {
            stepped.observe(&CycleObservation {
                cycle: 10 + k,
                ..obs
            });
        }
        let mut jumped = CountdownGater {
            idle: 0,
            threshold: 3,
            report: GatingReport::new(),
        };
        let mut transitions = Vec::new();
        jumped.fast_forward(&obs, 8, &mut transitions);
        assert_eq!(jumped.report(), stepped.report());
        // The third observation pushes `idle` to the threshold, so the
        // edge is visible from offset 3 onwards.
        assert_eq!(
            transitions,
            vec![GateTransition {
                offset: 3,
                domain: DomainId::INT0,
                powered: false,
            }]
        );
    }
}
