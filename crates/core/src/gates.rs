//! GATES: the gating-aware two-level warp scheduler (paper Section 4).

use warped_isa::UnitType;
use warped_sim::probe::{Event, Recorder};
use warped_sim::{round_robin, IssueCtx, WarpScheduler};

/// The gating-aware two-level scheduler.
///
/// GATES extends the two-level scheduler with a per-type view of the
/// active warp set and a dynamic priority order over instruction types:
///
/// * the current highest-priority type is either INT or FP; the other
///   one is always lowest, with LDST then SFU in between (memory first,
///   since its latency is longest);
/// * priority switches when the high-priority type's *active subset*
///   drains while the low-priority subset is non-empty (the
///   `INT_ACTV`/`FP_ACTV` counter rule), and — with Blackout installed —
///   when both clusters of the high-priority type are gated;
/// * an optional maximum-hold threshold bounds how long one type can
///   keep the highest priority, guaranteeing freedom from starvation
///   even for pathological dependence-free instruction streams.
///
/// Within a type, warps issue in round-robin order, continuing from the
/// last issued slot, exactly like the baseline scheduler.
///
/// # Examples
///
/// ```
/// use warped_gates::GatesScheduler;
/// use warped_sim::WarpScheduler;
///
/// let s = GatesScheduler::new();
/// assert_eq!(s.name(), "GATES");
/// ```
#[derive(Debug, Clone)]
pub struct GatesScheduler {
    /// The CUDA-core type currently holding the highest priority.
    high: UnitType,
    /// Cycles the current type has held the highest priority.
    hold_cycles: u64,
    /// Optional bound on `hold_cycles` before a forced switch.
    max_hold: Option<u64>,
    /// Per-type round-robin pointers (last issued slot + 1).
    rotation: [usize; 4],
    /// Count of dynamic priority switches (for diagnostics).
    switches: u64,
    /// Consecutive cycles with unused issue width while the (gated)
    /// low-priority type had ready warps.
    starve_run: u32,
    /// Lazy-wakeup hysteresis in cycles.
    lazy_wake: u32,
    /// Ready-warp backlog that counts as wakeup demand by itself.
    wake_backlog: u32,
    /// Telemetry recorder (installed by the simulator when
    /// [`SmConfig::telemetry`](warped_sim::SmConfig) is armed); every
    /// dynamic priority flip is stamped on it. Strictly observe-only.
    recorder: Option<Recorder>,
}

impl GatesScheduler {
    /// Default lazy-wakeup hysteresis: consecutive spare-width cycles
    /// before a gated low-priority type is woken.
    pub const DEFAULT_LAZY_WAKE_CYCLES: u32 = 1;

    /// Default backlog threshold: ready low-priority warps that
    /// constitute wakeup demand on their own, even while the
    /// high-priority type fills every issue slot.
    pub const DEFAULT_WAKE_BACKLOG: u32 = 4;

    /// Creates GATES with INT initially holding the highest priority (as
    /// in the paper) and no forced-switch threshold.
    #[must_use]
    pub fn new() -> Self {
        GatesScheduler {
            high: UnitType::Int,
            hold_cycles: 0,
            max_hold: None,
            rotation: [0; 4],
            switches: 0,
            starve_run: 0,
            lazy_wake: Self::DEFAULT_LAZY_WAKE_CYCLES,
            wake_backlog: Self::DEFAULT_WAKE_BACKLOG,
            recorder: None,
        }
    }

    /// Overrides the lazy-wakeup hysteresis (spare-width cycles before a
    /// gated demoted type is attempted). Zero wakes on the first spare
    /// cycle.
    #[must_use]
    pub fn with_lazy_wake(mut self, cycles: u32) -> Self {
        self.lazy_wake = cycles;
        self
    }

    /// Overrides the backlog-wake threshold. `u32::MAX` disables
    /// backlog-driven wakeups entirely (ablation use).
    #[must_use]
    pub fn with_wake_backlog(mut self, backlog: u32) -> Self {
        self.wake_backlog = backlog;
        self
    }

    /// Creates GATES with a maximum-hold threshold: after `max_hold`
    /// cycles the priority switches even if the active subset has not
    /// drained.
    ///
    /// # Panics
    ///
    /// Panics if `max_hold` is zero.
    #[must_use]
    pub fn with_max_hold(max_hold: u64) -> Self {
        assert!(max_hold > 0, "max_hold must be positive");
        GatesScheduler {
            max_hold: Some(max_hold),
            ..GatesScheduler::new()
        }
    }

    /// The CUDA-core type currently holding the highest priority.
    #[must_use]
    pub fn high_priority(&self) -> UnitType {
        self.high
    }

    /// How many dynamic priority switches have occurred.
    #[must_use]
    pub fn switch_count(&self) -> u64 {
        self.switches
    }

    fn low(&self) -> UnitType {
        match self.high {
            UnitType::Int => UnitType::Fp,
            _ => UnitType::Int,
        }
    }

    fn switch_priority(&mut self, cycle: u64) {
        self.high = self.low();
        self.hold_cycles = 0;
        self.switches += 1;
        if let Some(r) = &self.recorder {
            r.record(cycle, Event::PriorityFlip { high: self.high });
        }
    }

    /// The dynamic priority switching rules (Section 4.1 plus the
    /// Coordinated Blackout extension in Section 5).
    fn maybe_switch(&mut self, ctx: &IssueCtx) {
        let high = self.high;
        let low = self.low();

        // Rule 1: high-priority active subset drained, low non-empty.
        if ctx.active_subset(high) == 0 && ctx.active_subset(low) > 0 {
            self.switch_priority(ctx.cycle());
            return;
        }
        // Rule 2 (Blackout extension): both clusters of the high type are
        // gated; issue the other type meanwhile.
        if !ctx.type_powered(high) && ctx.type_powered(low) && ctx.active_subset(low) > 0 {
            self.switch_priority(ctx.cycle());
            return;
        }
        // Rule 3: forced switch after the maximum hold threshold.
        if let Some(max) = self.max_hold {
            if self.hold_cycles >= max && ctx.active_subset(low) > 0 {
                self.switch_priority(ctx.cycle());
            }
        }
    }

    /// Issues ready warps of `unit`, round-robin within the type.
    fn issue_type(&mut self, ctx: &mut IssueCtx, unit: UnitType) {
        if ctx.width_left() == 0 || ctx.ready_count(unit) == 0 {
            return;
        }
        let u = unit.index();
        for slot in round_robin(ctx.issuable_of(unit), self.rotation[u]) {
            if ctx.width_left() == 0 {
                break;
            }
            if ctx.try_issue(slot) {
                self.rotation[u] = slot + 1;
            }
        }
    }
}

impl Default for GatesScheduler {
    fn default() -> Self {
        GatesScheduler::new()
    }
}

impl WarpScheduler for GatesScheduler {
    fn pick(&mut self, ctx: &mut IssueCtx) {
        self.maybe_switch(ctx);
        self.hold_cycles += 1;

        let high = self.high;
        let low = self.low();

        // Fixed total order: high, LDST, SFU, low.
        for unit in [high, UnitType::Ldst, UnitType::Sfu] {
            self.issue_type(ctx, unit);
            if ctx.width_left() == 0 {
                break;
            }
        }
        // The low-priority type fills leftover slots freely while its
        // clusters are powered — that costs nothing. Once its clusters
        // have been gated, though, attempting an issue is what wakes
        // them, so GATES wakes a gated low type lazily: only after the
        // machine has had spare issue width *and* ready low-priority
        // warps for a few consecutive cycles. Transient one-cycle supply
        // gaps in the high-priority type no longer thrash the sleeping
        // clusters awake, while a sustained shortage (or a genuine
        // dependence on low-type results) still does.
        if ctx.ready_count(low) == 0 {
            self.starve_run = 0;
            return;
        }
        if ctx.type_powered(low) {
            self.starve_run = 0;
            if ctx.width_left() > 0 {
                self.issue_type(ctx, low);
            }
            return;
        }
        // Low type gated. Two signals justify waking it: sustained spare
        // issue width (the machine is starving), or a backlog of ready
        // low-type warps (they pile up while the high type monopolises
        // the slots — leaving them parked would stall their dependent
        // loads and erode memory-level parallelism). The backlog signal
        // registers demand even when the width is saturated; under
        // Blackout the controller still enforces the break-even lock.
        if ctx.ready_count(low) >= self.wake_backlog {
            ctx.request_wakeup(low);
        }
        if ctx.width_left() > 0 {
            self.starve_run += 1;
            if self.starve_run >= self.lazy_wake {
                self.issue_type(ctx, low);
            }
        }
    }

    // With no ready warps and empty active subsets, `pick` cannot switch
    // priority (every rule needs a non-empty low subset), issues nothing,
    // and hits the `ready_count(low) == 0` early return. Per cycle that
    // leaves exactly `hold_cycles += 1; starve_run = 0`, which composes
    // into a closed form over any span length.
    fn fast_forward_idle(&mut self, cycles: u64) -> bool {
        self.hold_cycles += cycles;
        self.starve_run = 0;
        true
    }

    fn name(&self) -> &'static str {
        "GATES"
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_sim::{DomainId, IssueCtx, WarpSlot, NUM_DOMAINS};

    fn cand(slot: usize, unit: UnitType) -> warped_sim::Candidate {
        warped_sim::Candidate {
            slot: WarpSlot(slot),
            unit,
            is_global_load: false,
        }
    }

    fn ctx(cands: Vec<warped_sim::Candidate>, actv: [u32; 4]) -> IssueCtx {
        IssueCtx::new(0, 2, cands, [true; NUM_DOMAINS], actv, 64)
    }

    #[test]
    fn prefers_high_priority_type_over_candidate_order() {
        let mut s = GatesScheduler::new();
        // FP at the head, INT behind it: GATES (INT priority) must pick
        // the INT candidates, unlike the baseline two-level scheduler.
        let mut c = ctx(
            vec![
                cand(0, UnitType::Fp),
                cand(1, UnitType::Int),
                cand(2, UnitType::Int),
            ],
            [2, 1, 0, 0],
        );
        s.pick(&mut c);
        assert!(!c.is_issued(0), "FP must wait");
        assert!(c.is_issued(1));
        assert!(c.is_issued(2));
    }

    #[test]
    fn fills_second_slot_with_ldst_before_low_priority_fp() {
        let mut s = GatesScheduler::new();
        let mut c = ctx(
            vec![
                cand(0, UnitType::Int),
                cand(1, UnitType::Ldst),
                cand(2, UnitType::Fp),
            ],
            [1, 1, 0, 1],
        );
        s.pick(&mut c);
        assert!(c.is_issued(0));
        assert!(c.is_issued(1), "LDST outranks the low-priority FP");
        assert!(!c.is_issued(2));
    }

    #[test]
    fn low_priority_type_issues_when_nothing_else_is_ready() {
        let mut s = GatesScheduler::new();
        // INT still has active (non-ready) warps, so no switch, but the
        // only *ready* work is FP: it fills the slots.
        let mut c = ctx(
            vec![cand(0, UnitType::Fp), cand(1, UnitType::Fp)],
            [3, 2, 0, 0],
        );
        s.pick(&mut c);
        assert!(c.is_issued(0));
        assert!(c.is_issued(1));
        assert_eq!(s.high_priority(), UnitType::Int, "no switch: INT_ACTV > 0");
    }

    #[test]
    fn priority_switches_when_high_subset_drains() {
        let mut s = GatesScheduler::new();
        assert_eq!(s.high_priority(), UnitType::Int);
        let mut c = ctx(vec![cand(0, UnitType::Fp)], [0, 4, 0, 0]);
        s.pick(&mut c);
        assert_eq!(s.high_priority(), UnitType::Fp, "INT_ACTV=0, FP_ACTV>0");
        assert_eq!(s.switch_count(), 1);
    }

    #[test]
    fn priority_flips_are_stamped_on_the_recorder() {
        use warped_sim::probe::RecorderConfig;
        let rec = Recorder::new(RecorderConfig::default());
        let mut s = GatesScheduler::new();
        s.set_recorder(rec.clone());
        let mut c = IssueCtx::new(
            42,
            2,
            vec![cand(0, UnitType::Fp)],
            [true; NUM_DOMAINS],
            [0, 4, 0, 0],
            64,
        );
        s.pick(&mut c);
        assert_eq!(s.high_priority(), UnitType::Fp);
        let log = rec.take();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].cycle, 42);
        assert_eq!(
            log.events[0].event,
            Event::PriorityFlip { high: UnitType::Fp }
        );
    }

    #[test]
    fn no_switch_when_both_subsets_empty() {
        let mut s = GatesScheduler::new();
        let mut c = ctx(vec![], [0, 0, 0, 0]);
        s.pick(&mut c);
        assert_eq!(s.high_priority(), UnitType::Int);
        assert_eq!(s.switch_count(), 0);
    }

    #[test]
    fn blackout_of_high_type_switches_priority() {
        let mut s = GatesScheduler::new();
        let mut on = [true; NUM_DOMAINS];
        on[DomainId::INT0.index()] = false;
        on[DomainId::INT1.index()] = false;
        let mut c = IssueCtx::new(
            0,
            2,
            vec![cand(0, UnitType::Fp)],
            on,
            [2, 3, 0, 0], // INT still has active warps, but its units sleep
            64,
        );
        s.pick(&mut c);
        assert_eq!(s.high_priority(), UnitType::Fp);
        assert!(c.is_issued(0));
    }

    #[test]
    fn forced_switch_after_max_hold() {
        let mut s = GatesScheduler::with_max_hold(3);
        for _ in 0..3 {
            let mut c = ctx(vec![cand(0, UnitType::Int)], [2, 2, 0, 0]);
            s.pick(&mut c);
            assert_eq!(s.high_priority(), UnitType::Int);
        }
        let mut c = ctx(vec![cand(0, UnitType::Int)], [2, 2, 0, 0]);
        s.pick(&mut c);
        assert_eq!(s.high_priority(), UnitType::Fp, "hold threshold reached");
    }

    #[test]
    fn round_robin_within_type_is_fair() {
        let mut s = GatesScheduler::new();
        let mk = || {
            ctx(
                vec![
                    cand(0, UnitType::Int),
                    cand(1, UnitType::Int),
                    cand(2, UnitType::Int),
                ],
                [3, 0, 0, 0],
            )
        };
        let mut c = mk();
        s.pick(&mut c);
        assert!(c.is_issued(0) && c.is_issued(1));
        let mut c2 = mk();
        s.pick(&mut c2);
        assert!(c2.is_issued(2), "slot 2 is served next");
    }

    #[test]
    #[should_panic(expected = "max_hold")]
    fn zero_max_hold_rejected() {
        let _ = GatesScheduler::with_max_hold(0);
    }

    #[test]
    fn fast_forward_idle_matches_empty_picks() {
        // Build some scheduler state first (hold cycles, a rotation
        // pointer, a starve run), then compare n empty picks against one
        // fast_forward_idle(n).
        let prime = |s: &mut GatesScheduler| {
            let mut c = ctx(
                vec![cand(0, UnitType::Int), cand(1, UnitType::Fp)],
                [1, 1, 0, 0],
            );
            s.pick(&mut c);
        };
        let mut stepped = GatesScheduler::with_max_hold(64);
        let mut jumped = GatesScheduler::with_max_hold(64);
        prime(&mut stepped);
        prime(&mut jumped);
        for _ in 0..37 {
            let mut empty = ctx(vec![], [0, 0, 0, 0]);
            stepped.pick(&mut empty);
        }
        assert!(jumped.fast_forward_idle(37));
        assert_eq!(stepped.hold_cycles, jumped.hold_cycles);
        assert_eq!(stepped.starve_run, jumped.starve_run);
        assert_eq!(stepped.rotation, jumped.rotation);
        assert_eq!(stepped.high, jumped.high);
        assert_eq!(stepped.switches, jumped.switches);
    }

    #[test]
    fn gated_low_type_is_not_attempted_while_high_has_supply() {
        // FP clusters gated, INT supply fills the width: no FP issue
        // attempt happens, so no wakeup demand is registered.
        let mut s = GatesScheduler::new();
        let mut on = [true; NUM_DOMAINS];
        on[DomainId::FP0.index()] = false;
        on[DomainId::FP1.index()] = false;
        let mut c = IssueCtx::new(
            0,
            2,
            vec![
                cand(0, UnitType::Int),
                cand(1, UnitType::Int),
                cand(2, UnitType::Fp),
            ],
            on,
            [2, 1, 0, 0],
            64,
        );
        s.pick(&mut c);
        assert!(c.is_issued(0) && c.is_issued(1));
        assert_eq!(
            c.blocked_demand()[UnitType::Fp.index()],
            0,
            "the demoted FP type must stay asleep while INT fills the width"
        );
    }

    #[test]
    fn backlog_of_demoted_warps_registers_demand() {
        // FP gated, INT fills the width, but >= WAKE_BACKLOG FP warps
        // are ready: GATES attempts them anyway, registering demand.
        let mut s = GatesScheduler::new().with_wake_backlog(3);
        let mut on = [true; NUM_DOMAINS];
        on[DomainId::FP0.index()] = false;
        on[DomainId::FP1.index()] = false;
        let mut c = IssueCtx::new(
            0,
            2,
            vec![
                cand(0, UnitType::Int),
                cand(1, UnitType::Int),
                cand(2, UnitType::Fp),
                cand(3, UnitType::Fp),
                cand(4, UnitType::Fp),
            ],
            on,
            [2, 3, 0, 0],
            64,
        );
        s.pick(&mut c);
        assert!(
            c.blocked_demand()[UnitType::Fp.index()] > 0,
            "a backlog of ready FP warps is wakeup demand"
        );
    }

    #[test]
    fn lazy_wake_attempts_after_persistent_spare_width() {
        // FP gated, one INT ready per cycle (spare width every cycle):
        // the first cycle holds back, the second attempts.
        let mut s = GatesScheduler::new()
            .with_lazy_wake(2)
            .with_wake_backlog(u32::MAX);
        let mut on = [true; NUM_DOMAINS];
        on[DomainId::FP0.index()] = false;
        on[DomainId::FP1.index()] = false;
        let mk = || {
            IssueCtx::new(
                0,
                2,
                vec![cand(0, UnitType::Int), cand(1, UnitType::Fp)],
                on,
                [1, 1, 0, 0],
                64,
            )
        };
        let mut c1 = mk();
        s.pick(&mut c1);
        assert_eq!(
            c1.blocked_demand()[UnitType::Fp.index()],
            0,
            "first spare cycle: held back"
        );
        let mut c2 = mk();
        s.pick(&mut c2);
        assert!(
            c2.blocked_demand()[UnitType::Fp.index()] > 0,
            "second spare cycle: attempted"
        );
    }
}
