//! The gating invariant sanitizer: a machine check that a run never
//! violated the power-gating contract it claimed.
//!
//! The paper's Blackout guarantee is a *hard* invariant — a gated unit
//! must stay dark for at least the break-even time — and the fast
//! paths added around the cycle loop (clock fast-forwarding,
//! deadline-driven controller evaluation, busy/idle accounting
//! integrated only at edges, batched observer spans) are all exactness
//! critical: a silent violation would only ever surface as a wrong
//! energy number. The [`Sanitizer`] turns those properties into panics
//! at the cycle they break:
//!
//! * **busy ⇒ powered** — no instruction ever executes in a gated or
//!   waking domain (checked per cycle and per span segment);
//! * **minimum off-run** — every observable powered-off run is at least
//!   as long as the controller's claimed floor
//!   ([`GatingInvariants::min_off_run`]; for Blackout policies this is
//!   break-even time + wakeup delay, so any pre-BET wakeup trips it);
//! * **span/per-cycle conservation** — the closed-form integration of a
//!   fast-forwarded span leaves the sanitizer in exactly the state the
//!   expanded per-cycle delivery would (the same contract
//!   [`observe_span`](crate::trace::CycleObserver::observe_span)
//!   overrides like the energy timeline must honor), cross-checked by
//!   literal expansion for bounded spans;
//! * **stream integrity** — samples cover every cycle exactly once, in
//!   order, and transition lists are well-formed;
//! * **cross-layer accounting** — at the end of the run, the busy
//!   cycles and the idle periods (count and total length) seen in the
//!   sample stream must equal the simulator's own statistics, which it
//!   integrates only at busy edges; and (for controllers that opt in)
//!   the powered-off cycles must equal the controller's `gated +
//!   wakeup` counters, the powered→off edges its `gate_events`, and the
//!   completed off→on edges its `wakeups`, less a wakeup still in
//!   progress. The controller closes those counters only at a wake
//!   edge, so this also checks the still-open period it reports.
//!
//! The sanitizer runs in every test configuration
//! ([`SmConfig::small_for_tests`](crate::SmConfig::small_for_tests)
//! sets [`SmConfig::sanitize`](crate::SmConfig)) and behind
//! `--sanitize` for release sweeps. The complementary checks that need
//! controller internals (idle-detect window bounds) live behind
//! [`PowerGating::set_sanitize`](crate::PowerGating::set_sanitize).

use crate::domain::{DomainId, DomainLayout, NUM_DOMAINS};
use crate::gate_iface::GatingReport;
use crate::stats::SimStats;
use crate::trace::{CycleObserver, CycleSample, SpanSample};

/// Longest span the sanitizer additionally cross-checks by literal
/// per-cycle expansion. Final jump-to-cap spans can cover tens of
/// millions of cycles; the closed-form checks always run, the
/// expansion check is bounded so sanitized runs stay fast.
const EXPANSION_CHECK_LIMIT: u64 = 2048;

/// The machine-checkable contract a [`PowerGating`](crate::PowerGating)
/// controller claims to honor.
///
/// A controller describes its own guarantees; the [`Sanitizer`] holds
/// the sample stream to them. The default (all zeros, no bounds) claims
/// nothing and checks only the universal invariants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatingInvariants {
    /// Minimum length, per domain, of any *completed* powered-off run
    /// in the sample stream, in cycles (`0` = unconstrained). A
    /// blackout-locked domain that is woken promises
    /// `break-even + wakeup delay` dark cycles; conventional gating
    /// promises `1 + wakeup delay`.
    pub min_off_run: [u64; NUM_DOMAINS],
    /// Inclusive bounds the per-unit-type idle-detect window must stay
    /// within (`None` = unconstrained). Enforced inside the controller
    /// (the window is not observable from samples); carried here so
    /// tests and reports can introspect the claim.
    pub window_bounds: Option<(u32, u32)>,
    /// Whether the controller's report counts powered-off time as
    /// `gated_cycles + wakeup_cycles` per observation, each power-off as
    /// a gate event and each power-on as the end of a wakeup, letting
    /// the sanitizer reconcile the sample stream against the
    /// controller's own counters at the end of the run.
    pub off_cycles_accounted: bool,
}

/// The runtime invariant checker (see the [module docs](self)).
///
/// Implements [`CycleObserver`], so it can also be used standalone to
/// audit any sample stream; inside the simulator it is fed every cycle
/// and every fast-forwarded span when
/// [`SmConfig::sanitize`](crate::SmConfig) is set. Violations panic
/// with a `sanitizer:`-prefixed message, which the fault-tolerant grid
/// runner surfaces as a structured job failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sanitizer {
    inv: GatingInvariants,
    layout: DomainLayout,
    /// The cycle the next sample must carry.
    next_cycle: u64,
    /// Length of the open powered-off run per domain.
    off_run: [u64; NUM_DOMAINS],
    /// Busy cycles seen in the sample stream per domain.
    busy_cycles: [u64; NUM_DOMAINS],
    /// Powered-off cycles seen in the sample stream per domain.
    off_cycles: [u64; NUM_DOMAINS],
    /// Length of the open idle run per domain.
    idle_run: [u64; NUM_DOMAINS],
    /// Completed idle runs per domain: how many, and their total length.
    idle_periods: [u64; NUM_DOMAINS],
    idle_cycles: [u64; NUM_DOMAINS],
    /// Powered→off and completed off→on edges per domain.
    off_edges: [u64; NUM_DOMAINS],
    on_edges: [u64; NUM_DOMAINS],
}

impl Sanitizer {
    /// Creates a sanitizer holding a stream to `inv` over `layout`.
    #[must_use]
    pub fn new(inv: GatingInvariants, layout: DomainLayout) -> Self {
        Sanitizer {
            inv,
            layout,
            next_cycle: 0,
            off_run: [0; NUM_DOMAINS],
            busy_cycles: [0; NUM_DOMAINS],
            off_cycles: [0; NUM_DOMAINS],
            idle_run: [0; NUM_DOMAINS],
            idle_periods: [0; NUM_DOMAINS],
            idle_cycles: [0; NUM_DOMAINS],
            off_edges: [0; NUM_DOMAINS],
            on_edges: [0; NUM_DOMAINS],
        }
    }

    /// The contract being enforced.
    #[must_use]
    pub fn invariants(&self) -> &GatingInvariants {
        &self.inv
    }

    /// Cycles observed so far.
    #[must_use]
    pub fn cycles_observed(&self) -> u64 {
        self.next_cycle
    }

    /// Closes a completed powered-off run, checking the claimed floor.
    fn close_off_run(&mut self, domain: DomainId) {
        let di = domain.index();
        let run = self.off_run[di];
        if run == 0 {
            return;
        }
        let min = self.inv.min_off_run[di];
        assert!(
            run >= min,
            "sanitizer: {domain} was powered off for only {run} cycles before \
             waking (controller claims a {min}-cycle floor; break-even violated) \
             at cycle {}",
            self.next_cycle
        );
        self.off_run[di] = 0;
        self.on_edges[di] += 1;
    }

    /// Accounts `len` cycles of constant busy/powered flags.
    fn account_segment(
        &mut self,
        busy: &[bool; NUM_DOMAINS],
        powered: &[bool; NUM_DOMAINS],
        len: u64,
    ) {
        if len == 0 {
            return;
        }
        for d in self.layout.all().iter().copied() {
            let di = d.index();
            if busy[di] {
                assert!(
                    powered[di],
                    "sanitizer: {d} busy while unpowered at cycle {} \
                     (instruction executing in a gated domain)",
                    self.next_cycle
                );
                self.busy_cycles[di] += len;
                if self.idle_run[di] > 0 {
                    self.idle_periods[di] += 1;
                    self.idle_cycles[di] += self.idle_run[di];
                    self.idle_run[di] = 0;
                }
            } else {
                self.idle_run[di] += len;
            }
            if powered[di] {
                self.close_off_run(d);
            } else {
                if self.off_run[di] == 0 {
                    self.off_edges[di] += 1;
                }
                self.off_run[di] += len;
                self.off_cycles[di] += len;
            }
        }
    }

    /// End-of-run reconciliation against the simulator's statistics and
    /// the controller's report. `powered` holds the controller's power
    /// state after its last observation, which no sample shows yet.
    ///
    /// # Panics
    ///
    /// Panics if the sample stream did not cover every simulated cycle,
    /// if the stream's busy cycles or idle periods disagree with
    /// [`SimStats`], or (for controllers with
    /// [`off_cycles_accounted`](GatingInvariants::off_cycles_accounted))
    /// if the observed powered-off cycles, power-offs or completed
    /// power-ons disagree with the controller's `gated + wakeup`
    /// cycles, gate events or wakeups.
    pub fn finish(&self, stats: &SimStats, gating: &GatingReport, powered: &[bool; NUM_DOMAINS]) {
        assert_eq!(
            self.next_cycle, stats.cycles,
            "sanitizer: sample stream covered {} cycles but the run took {}",
            self.next_cycle, stats.cycles
        );
        for d in self.layout.all().iter().copied() {
            let di = d.index();
            assert_eq!(
                self.busy_cycles[di], stats.units[di].busy_cycles,
                "sanitizer: {d} busy cycles diverge between the sample stream \
                 and the simulator's accounting"
            );
            if self.inv.off_cycles_accounted {
                let g = gating.domain(d);
                assert_eq!(
                    self.off_cycles[di],
                    g.gated_cycles + g.wakeup_cycles,
                    "sanitizer: {d} powered-off cycles diverge between the \
                     sample stream and the controller's report"
                );
            }
            let open = self.idle_run[di];
            let h = &stats.units[di].idle_histogram;
            assert_eq!(
                (
                    self.idle_periods[di] + u64::from(open > 0),
                    self.idle_cycles[di] + open
                ),
                (h.periods(), h.idle_cycles()),
                "sanitizer: {d} idle (periods, cycles) diverge between the \
                 sample stream and the simulator's idle histogram"
            );
            if self.inv.off_cycles_accounted {
                let g = gating.domain(d);
                // The edge the last observation made, if any, is not in
                // any sample yet.
                let (mut off_edges, mut on_edges) = (self.off_edges[di], self.on_edges[di]);
                match (self.off_run[di] > 0, powered[di]) {
                    (false, false) => off_edges += 1,
                    (true, true) => on_edges += 1,
                    _ => {}
                }
                assert_eq!(
                    off_edges, g.gate_events,
                    "sanitizer: {d} power-offs in the sample stream diverge \
                     from the controller's gate events"
                );
                // A domain still dark may be part-way through a wakeup
                // the report already counts.
                let in_progress = u64::from(!powered[di]);
                assert!(
                    (on_edges..=on_edges + in_progress).contains(&g.wakeups),
                    "sanitizer: {d} completed power-ons in the sample stream \
                     ({on_edges}) diverge from the controller's {} wakeups",
                    g.wakeups
                );
            }
        }
    }
}

impl CycleObserver for Sanitizer {
    fn observe(&mut self, sample: &CycleSample) {
        assert_eq!(
            sample.cycle, self.next_cycle,
            "sanitizer: non-contiguous sample stream (got cycle {}, expected {})",
            sample.cycle, self.next_cycle
        );
        self.account_segment(&sample.busy, &sample.powered, 1);
        self.next_cycle += 1;
    }

    fn observe_span(&mut self, span: &SpanSample<'_>) {
        assert_eq!(
            span.start_cycle, self.next_cycle,
            "sanitizer: non-contiguous span (starts at cycle {}, expected {})",
            span.start_cycle, self.next_cycle
        );
        assert!(span.cycles > 0, "sanitizer: empty fast-forward span");

        // Bounded spans are additionally replayed per cycle below; the
        // snapshot is taken before the closed-form walk mutates state.
        let reference = (span.cycles <= EXPANSION_CHECK_LIMIT).then(|| self.clone());

        // Closed-form walk, segment by segment: `for_each_cycle` applies
        // every transition with `offset <= k` before emitting cycle `k`,
        // so the flags are constant on `[prev_offset, offset)`.
        let mut powered = span.powered;
        let mut k0: u64 = 0;
        let mut last_offset: u64 = 0;
        for t in span.transitions {
            assert!(
                t.offset >= 1 && t.offset <= span.cycles,
                "sanitizer: transition offset {} outside span of {} cycles",
                t.offset,
                span.cycles
            );
            assert!(
                t.offset >= last_offset,
                "sanitizer: transition offsets decrease ({} after {last_offset})",
                t.offset
            );
            last_offset = t.offset;
            let seg_end = t.offset.min(span.cycles);
            self.account_segment(&span.busy, &powered, seg_end - k0);
            k0 = seg_end;
            powered[t.domain.index()] = t.powered;
        }
        self.account_segment(&span.busy, &powered, span.cycles - k0);
        self.next_cycle += span.cycles;

        // Conservation cross-check: the closed-form walk must land in
        // exactly the state the per-cycle expansion produces — the same
        // contract every `observe_span` override (e.g. the energy
        // timeline's closed-form integration) is held to.
        if let Some(mut reference) = reference {
            span.for_each_cycle(|s| reference.observe(s));
            assert_eq!(
                *self,
                reference,
                "sanitizer: span integration diverges from per-cycle delivery \
                 over cycles {}..{}",
                span.start_cycle,
                span.start_cycle + span.cycles
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate_iface::GateTransition;
    use crate::stats::IdleHistogram;

    fn sample(cycle: u64, busy0: bool, powered0: bool) -> CycleSample {
        let mut busy = [false; NUM_DOMAINS];
        busy[DomainId::INT0.index()] = busy0;
        let mut powered = [true; NUM_DOMAINS];
        powered[DomainId::INT0.index()] = powered0;
        CycleSample {
            cycle,
            busy,
            powered,
            issued: 0,
            active_warps: 0,
        }
    }

    fn strict() -> Sanitizer {
        let mut inv = GatingInvariants::default();
        inv.min_off_run[DomainId::INT0.index()] = 4;
        Sanitizer::new(inv, DomainLayout::fermi())
    }

    #[test]
    fn clean_stream_passes() {
        let mut s = strict();
        s.observe(&sample(0, true, true));
        s.observe(&sample(1, false, true));
        for c in 2..8 {
            s.observe(&sample(c, false, false)); // 6-cycle off run >= 4
        }
        s.observe(&sample(8, false, true));
        assert_eq!(s.cycles_observed(), 9);
    }

    #[test]
    #[should_panic(expected = "busy while unpowered")]
    fn busy_in_gated_domain_fires() {
        let mut s = strict();
        s.observe(&sample(0, true, false));
    }

    #[test]
    #[should_panic(expected = "break-even violated")]
    fn short_off_run_fires() {
        let mut s = strict();
        s.observe(&sample(0, false, true));
        s.observe(&sample(1, false, false));
        s.observe(&sample(2, false, false)); // only 2 dark cycles, floor 4
        s.observe(&sample(3, false, true));
    }

    #[test]
    fn unfinished_off_run_is_not_checked() {
        // A run still dark at the end of simulation was never woken, so
        // no break-even claim applies to it.
        let mut s = strict();
        s.observe(&sample(0, false, true));
        s.observe(&sample(1, false, false));
        assert_eq!(s.cycles_observed(), 2);
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn skipped_cycle_fires() {
        let mut s = strict();
        s.observe(&sample(0, false, true));
        s.observe(&sample(2, false, true));
    }

    #[test]
    fn span_and_per_cycle_agree() {
        let mk = || Sanitizer::new(GatingInvariants::default(), DomainLayout::fermi());
        let transitions = [
            GateTransition {
                offset: 3,
                domain: DomainId::INT0,
                powered: false,
            },
            GateTransition {
                offset: 40,
                domain: DomainId::INT0,
                powered: true,
            },
        ];
        let mut busy = [false; NUM_DOMAINS];
        busy[DomainId::LDST.index()] = true;
        let span = SpanSample {
            start_cycle: 0,
            cycles: 64,
            busy,
            powered: [true; NUM_DOMAINS],
            transitions: &transitions,
            active_warps: 0,
        };
        let mut closed = mk();
        closed.observe_span(&span);
        let mut stepped = mk();
        span.for_each_cycle(|s| stepped.observe(s));
        assert_eq!(closed, stepped);
    }

    #[test]
    #[should_panic(expected = "offsets decrease")]
    fn unordered_transitions_fire() {
        let mut s = strict();
        let transitions = [
            GateTransition {
                offset: 5,
                domain: DomainId::INT0,
                powered: false,
            },
            GateTransition {
                offset: 2,
                domain: DomainId::FP0,
                powered: false,
            },
        ];
        s.observe_span(&SpanSample {
            start_cycle: 0,
            cycles: 10,
            busy: [false; NUM_DOMAINS],
            powered: [true; NUM_DOMAINS],
            transitions: &transitions,
            active_warps: 0,
        });
    }

    #[test]
    #[should_panic(expected = "outside span")]
    fn out_of_range_offset_fires() {
        let mut s = strict();
        let transitions = [GateTransition {
            offset: 11,
            domain: DomainId::INT0,
            powered: false,
        }];
        s.observe_span(&SpanSample {
            start_cycle: 0,
            cycles: 10,
            busy: [false; NUM_DOMAINS],
            powered: [true; NUM_DOMAINS],
            transitions: &transitions,
            active_warps: 0,
        });
    }

    #[test]
    fn trailing_transition_at_span_end_is_deferred() {
        // `for_each_cycle` never applies an `offset == cycles`
        // transition inside the span; the sanitizer must not count it
        // either (the next per-cycle sample reports the new state).
        let mut s = Sanitizer::new(GatingInvariants::default(), DomainLayout::fermi());
        let transitions = [GateTransition {
            offset: 5,
            domain: DomainId::INT0,
            powered: false,
        }];
        s.observe_span(&SpanSample {
            start_cycle: 0,
            cycles: 5,
            busy: [false; NUM_DOMAINS],
            powered: [true; NUM_DOMAINS],
            transitions: &transitions,
            active_warps: 0,
        });
        assert_eq!(s.off_cycles[DomainId::INT0.index()], 0);
        // The edge shows up in the next sample instead.
        s.observe(&sample(5, false, false));
        assert_eq!(s.off_cycles[DomainId::INT0.index()], 1);
    }

    #[test]
    fn finish_reconciles_busy_and_off_cycles() {
        let inv = GatingInvariants {
            off_cycles_accounted: true,
            ..GatingInvariants::default()
        };
        let mut s = Sanitizer::new(inv, DomainLayout::fermi());
        s.observe(&sample(0, true, true));
        s.observe(&sample(1, false, false));
        s.observe(&sample(2, false, false));

        let mut stats = SimStats::new();
        stats.cycles = 3;
        for d in DomainId::ALL {
            // INT0 idles for the last two cycles, the rest for all three.
            let idle = if d == DomainId::INT0 { 2 } else { 3 };
            stats.units[d.index()].idle_histogram.record(idle);
        }
        stats.units[DomainId::INT0.index()].busy_cycles = 1;
        let mut gating = GatingReport::new();
        gating.domain_mut(DomainId::INT0).gated_cycles = 2;
        gating.domain_mut(DomainId::INT0).gate_events = 1;
        let mut powered = [true; NUM_DOMAINS];
        powered[DomainId::INT0.index()] = false;
        s.finish(&stats, &gating, &powered);
    }

    #[test]
    #[should_panic(expected = "busy cycles diverge")]
    fn finish_catches_busy_divergence() {
        let mut s = Sanitizer::new(GatingInvariants::default(), DomainLayout::fermi());
        s.observe(&sample(0, true, true));
        let mut stats = SimStats::new();
        stats.cycles = 1;
        // Claims zero busy cycles for INT0: contradiction.
        s.finish(&stats, &GatingReport::new(), &[true; NUM_DOMAINS]);
    }

    #[test]
    #[should_panic(expected = "powered-off cycles diverge")]
    fn finish_catches_off_accounting_divergence() {
        let inv = GatingInvariants {
            off_cycles_accounted: true,
            ..GatingInvariants::default()
        };
        let mut s = Sanitizer::new(inv, DomainLayout::fermi());
        s.observe(&sample(0, false, false));
        s.observe(&sample(1, false, false));
        let mut stats = SimStats::new();
        stats.cycles = 2;
        s.finish(&stats, &GatingReport::new(), &[true; NUM_DOMAINS]); // report says 0 gated cycles
    }

    /// Stats and report consistent with `gated_then_waking`'s stream.
    fn accounting_for_gated_then_waking() -> (SimStats, GatingReport) {
        let mut stats = SimStats::new();
        stats.cycles = 4;
        for d in DomainId::ALL {
            stats.units[d.index()].idle_histogram.record(4);
        }
        let mut gating = GatingReport::new();
        let g = gating.domain_mut(DomainId::INT0);
        g.gate_events = 1;
        g.wakeups = 1;
        g.gated_cycles = 2;
        g.wakeup_cycles = 1;
        (stats, gating)
    }

    /// INT0 idles throughout, goes dark at cycle 1 and is still waking
    /// when the run ends.
    fn gated_then_waking() -> Sanitizer {
        let inv = GatingInvariants {
            off_cycles_accounted: true,
            ..GatingInvariants::default()
        };
        let mut s = Sanitizer::new(inv, DomainLayout::fermi());
        s.observe(&sample(0, false, true));
        for c in 1..4 {
            s.observe(&sample(c, false, false));
        }
        s
    }

    #[test]
    fn finish_allows_a_wakeup_in_progress() {
        let (stats, gating) = accounting_for_gated_then_waking();
        let mut powered = [true; NUM_DOMAINS];
        powered[DomainId::INT0.index()] = false;
        gated_then_waking().finish(&stats, &gating, &powered);
    }

    #[test]
    fn finish_counts_the_edge_of_the_last_observation() {
        // The wake completes at the last observation: no sample shows
        // INT0 powered again, but the controller's state does.
        let (stats, gating) = accounting_for_gated_then_waking();
        gated_then_waking().finish(&stats, &gating, &[true; NUM_DOMAINS]);
    }

    #[test]
    #[should_panic(expected = "completed power-ons")]
    fn finish_catches_a_wakeup_that_never_started() {
        let (stats, mut gating) = accounting_for_gated_then_waking();
        gating.domain_mut(DomainId::INT0).wakeups = 0;
        gated_then_waking().finish(&stats, &gating, &[true; NUM_DOMAINS]);
    }

    #[test]
    #[should_panic(expected = "diverge from the controller's gate events")]
    fn finish_catches_gate_event_divergence() {
        let (stats, mut gating) = accounting_for_gated_then_waking();
        gating.domain_mut(DomainId::INT0).gate_events = 2;
        let mut powered = [true; NUM_DOMAINS];
        powered[DomainId::INT0.index()] = false;
        gated_then_waking().finish(&stats, &gating, &powered);
    }

    #[test]
    #[should_panic(expected = "idle (periods, cycles) diverge")]
    fn finish_catches_an_unclosed_idle_period() {
        // The simulator forgot to close the trailing idle run of INT1.
        let (mut stats, gating) = accounting_for_gated_then_waking();
        stats.units[DomainId::INT1.index()].idle_histogram = IdleHistogram::new();
        gated_then_waking().finish(&stats, &gating, &[true; NUM_DOMAINS]);
    }

    #[test]
    #[should_panic(expected = "covered 2 cycles but the run took 5")]
    fn finish_catches_missing_cycles() {
        let mut s = Sanitizer::new(GatingInvariants::default(), DomainLayout::fermi());
        s.observe(&sample(0, false, true));
        s.observe(&sample(1, false, true));
        let mut stats = SimStats::new();
        stats.cycles = 5;
        s.finish(&stats, &GatingReport::new(), &[true; NUM_DOMAINS]);
    }
}
