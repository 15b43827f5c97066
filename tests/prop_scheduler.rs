//! Randomized tests of the issue context and the scheduling policies: no
//! scheduler can violate the issue-width, dispatch-port, gating, or MSHR
//! constraints, because the context enforces them; and walking
//! `IssueCtx::issuable` picks exactly what walking the ready set did.
//!
//! Cases are drawn from a seeded [`SplitMix64`] stream, so every run
//! explores the same inputs (no external property-testing dependency).

use warped_gates_repro::gates::GatesScheduler;
use warped_gates_repro::isa::UnitType;
use warped_gates_repro::prelude::*;
use warped_gates_repro::sim::{
    round_robin, Candidate, GtoScheduler, IssueCtx, LrrScheduler, WarpSlot, NUM_DOMAINS,
};
use warped_gates_repro::workloads::rng::SplitMix64;

/// One raw candidate: (slot, unit index, is_global_load).
type RawCand = (usize, usize, bool);

fn random_cands(rng: &mut SplitMix64, max_len: usize) -> Vec<RawCand> {
    let n = rng.index(max_len + 1);
    (0..n)
        .map(|_| (rng.index(48), rng.index(4), rng.chance(0.5)))
        .collect()
}

fn random_on(rng: &mut SplitMix64) -> [bool; NUM_DOMAINS] {
    let mut on = [false; NUM_DOMAINS];
    for o in &mut on {
        *o = rng.chance(0.5);
    }
    on
}

fn build_ctx(cands: &[RawCand], on: [bool; NUM_DOMAINS], actv: [u32; 4], credits: u32) -> IssueCtx {
    let mut seen = std::collections::BTreeSet::new();
    let mut list = Vec::new();
    for &(slot, unit, load) in cands {
        if seen.insert(slot) {
            let unit = UnitType::from_index(unit);
            list.push(Candidate {
                slot: WarpSlot(slot),
                unit,
                is_global_load: load && unit == UnitType::Ldst,
            });
        }
    }
    list.sort_by_key(|c| c.slot.0);
    IssueCtx::new(0, 2, list, on, actv, credits)
}

/// Counts issued candidates per unit type and checks hard constraints.
fn check_hard_constraints(ctx: &IssueCtx, on: &[bool; NUM_DOMAINS]) {
    let per_unit = UnitType::ALL.map(|u| (ctx.ready_of(u) & ctx.issued()).count_ones());
    let total: u32 = per_unit.iter().sum();
    assert_eq!(
        ctx.issued() & !ctx.ready(),
        0,
        "issued a slot with no ready warp"
    );
    assert!(total <= 2, "issue width violated");
    // Per-type port capacity: INT/FP at most 2 (two SP clusters, and
    // only if powered), SFU/LDST at most 1.
    for unit in UnitType::ALL {
        let powered: u32 = DomainId::domains_of(unit)
            .iter()
            .filter(|d| on[d.index()])
            .count() as u32;
        assert!(
            per_unit[unit.index()] <= powered,
            "{unit}: issued {} with only {powered} powered clusters",
            per_unit[unit.index()]
        );
    }
    // SP port sharing: INT + FP combined cannot exceed the two SP ports.
    assert!(per_unit[0] + per_unit[1] <= 2, "SP ports oversubscribed");
}

#[test]
fn two_level_respects_all_constraints() {
    let mut rng = SplitMix64::new(0x5c4e_0001);
    for _ in 0..128 {
        let cands = random_cands(&mut rng, 23);
        let on = random_on(&mut rng);
        let credits = rng.below(4) as u32;
        let mut ctx = build_ctx(&cands, on, [4; 4], credits);
        TwoLevelScheduler::new().pick(&mut ctx);
        check_hard_constraints(&ctx, &on);
    }
}

#[test]
fn lrr_respects_all_constraints() {
    let mut rng = SplitMix64::new(0x5c4e_0002);
    for _ in 0..128 {
        let cands = random_cands(&mut rng, 23);
        let on = random_on(&mut rng);
        let credits = rng.below(4) as u32;
        let mut ctx = build_ctx(&cands, on, [4; 4], credits);
        LrrScheduler::new().pick(&mut ctx);
        check_hard_constraints(&ctx, &on);
    }
}

#[test]
fn gates_respects_all_constraints() {
    let mut rng = SplitMix64::new(0x5c4e_0003);
    for _ in 0..128 {
        let cands = random_cands(&mut rng, 23);
        let on = random_on(&mut rng);
        let mut actv = [0u32; 4];
        for a in &mut actv {
            *a = rng.below(16) as u32;
        }
        let credits = rng.below(4) as u32;
        let mut ctx = build_ctx(&cands, on, actv, credits);
        GatesScheduler::new().pick(&mut ctx);
        check_hard_constraints(&ctx, &on);
    }
}

#[test]
fn schedulers_fill_width_when_everything_is_available() {
    let mut rng = SplitMix64::new(0x5c4e_0004);
    for _ in 0..32 {
        // With everything powered and plenty of candidates of two SP
        // types, any work-conserving scheduler must dual-issue.
        let n_int = 2 + rng.index(8);
        let n_fp = 2 + rng.index(8);
        let mut cands = Vec::new();
        for i in 0..n_int {
            cands.push((i, 0, false));
        }
        for i in 0..n_fp {
            cands.push((24 + i, 1, false));
        }
        for scheduler in [0, 1] {
            let mut ctx = build_ctx(&cands, [true; NUM_DOMAINS], [8; 4], 8);
            match scheduler {
                0 => TwoLevelScheduler::new().pick(&mut ctx),
                _ => GatesScheduler::new().pick(&mut ctx),
            }
            assert_eq!(
                ctx.width_left(),
                0,
                "scheduler {scheduler} left width unused"
            );
        }
    }
}

#[test]
fn ready_counts_track_issues() {
    let mut rng = SplitMix64::new(0x5c4e_0005);
    for _ in 0..64 {
        let cands = random_cands(&mut rng, 23);
        let on = random_on(&mut rng);
        let mut ctx = build_ctx(&cands, on, [4; 4], 8);
        let before: Vec<u32> = UnitType::ALL.map(|u| ctx.ready_count(u)).to_vec();
        GatesScheduler::new().pick(&mut ctx);
        // After the pick pass, ready_count of each unit must equal the
        // un-issued ready slots of that unit (the incremental counter
        // matches a fresh scan).
        for unit in UnitType::ALL {
            let remaining = (0..128)
                .filter(|&slot| ctx.ready_of(unit) >> slot & 1 == 1 && !ctx.is_issued(slot))
                .count() as u32;
            assert_eq!(ctx.ready_count(unit), remaining, "{unit}");
            assert!(ctx.ready_count(unit) <= before[unit.index()]);
        }
    }
}

#[test]
fn global_loads_never_exceed_mshr_credits() {
    let mut rng = SplitMix64::new(0x5c4e_0006);
    for _ in 0..64 {
        let n_loads = 1 + rng.index(11);
        let credits = rng.below(3) as u32;
        let cands: Vec<RawCand> = (0..n_loads).map(|i| (i, 3, true)).collect();
        let mut ctx = build_ctx(&cands, [true; NUM_DOMAINS], [4; 4], credits);
        TwoLevelScheduler::new().pick(&mut ctx);
        let issued_loads = cands
            .iter()
            .filter(|&&(slot, _, load)| load && ctx.is_issued(slot))
            .count() as u32;
        assert!(issued_loads <= credits);
    }
}

// ---------------------------------------------------------------------
// Exactness oracle: the schedulers walk `issuable()` / `issuable_of()`,
// which leaves out the slots `try_issue` rejects before any side effect
// (already issued, or a global load with no MSHR credit). The reference
// schedulers below are the policies as they were written against the
// full ready set; over multi-cycle sequences both must pick the same
// slots on the same domains in the same order, register the same
// wakeup demand, and so keep identical pointers.
// ---------------------------------------------------------------------

/// Two-level round-robin over the whole ready set.
#[derive(Default)]
struct RefTwoLevel {
    last_slot: Option<usize>,
}

impl WarpScheduler for RefTwoLevel {
    fn pick(&mut self, ctx: &mut IssueCtx) {
        let from = self.last_slot.map_or(0, |last| last + 1);
        for slot in round_robin(ctx.ready(), from) {
            if ctx.width_left() == 0 {
                break;
            }
            if ctx.try_issue(slot) {
                self.last_slot = Some(slot);
            }
        }
    }

    fn name(&self) -> &'static str {
        "RefTwoLevel"
    }
}

/// Loose round-robin over the whole ready set.
#[derive(Default)]
struct RefLrr {
    next_slot: usize,
}

impl WarpScheduler for RefLrr {
    fn pick(&mut self, ctx: &mut IssueCtx) {
        let mut first_issued_slot = None;
        for slot in round_robin(ctx.ready(), self.next_slot) {
            if ctx.width_left() == 0 {
                break;
            }
            if ctx.try_issue(slot) && first_issued_slot.is_none() {
                first_issued_slot = Some(slot);
            }
        }
        if let Some(s) = first_issued_slot {
            self.next_slot = s + 1;
        }
    }

    fn name(&self) -> &'static str {
        "RefLrr"
    }
}

/// Greedy-then-oldest over the whole ready set.
#[derive(Default)]
struct RefGto {
    greedy_slot: Option<usize>,
}

impl WarpScheduler for RefGto {
    fn pick(&mut self, ctx: &mut IssueCtx) {
        if let Some(slot) = self.greedy_slot {
            if ctx.ready() >> slot & 1 == 1 {
                let _ = ctx.try_issue(slot);
            }
        }
        for slot in round_robin(ctx.ready(), 0) {
            if ctx.width_left() == 0 {
                break;
            }
            if ctx.try_issue(slot) {
                self.greedy_slot = Some(slot);
            }
        }
    }

    fn name(&self) -> &'static str {
        "RefGto"
    }
}

/// GATES over the per-type ready sets, with the same knobs as
/// [`GatesScheduler`] (the recorder is observe-only and left out).
struct RefGates {
    high: UnitType,
    hold_cycles: u64,
    max_hold: Option<u64>,
    rotation: [usize; 4],
    switches: u64,
    starve_run: u32,
    lazy_wake: u32,
    wake_backlog: u32,
}

impl RefGates {
    fn new(max_hold: Option<u64>, lazy_wake: u32, wake_backlog: u32) -> Self {
        RefGates {
            high: UnitType::Int,
            hold_cycles: 0,
            max_hold,
            rotation: [0; 4],
            switches: 0,
            starve_run: 0,
            lazy_wake,
            wake_backlog,
        }
    }

    fn low(&self) -> UnitType {
        match self.high {
            UnitType::Int => UnitType::Fp,
            _ => UnitType::Int,
        }
    }

    fn switch_priority(&mut self) {
        self.high = self.low();
        self.hold_cycles = 0;
        self.switches += 1;
    }

    fn maybe_switch(&mut self, ctx: &IssueCtx) {
        let high = self.high;
        let low = self.low();
        if ctx.active_subset(high) == 0 && ctx.active_subset(low) > 0 {
            self.switch_priority();
            return;
        }
        if !ctx.type_powered(high) && ctx.type_powered(low) && ctx.active_subset(low) > 0 {
            self.switch_priority();
            return;
        }
        if let Some(max) = self.max_hold {
            if self.hold_cycles >= max && ctx.active_subset(low) > 0 {
                self.switch_priority();
            }
        }
    }

    fn issue_type(&mut self, ctx: &mut IssueCtx, unit: UnitType) {
        if ctx.width_left() == 0 || ctx.ready_count(unit) == 0 {
            return;
        }
        let u = unit.index();
        for slot in round_robin(ctx.ready_of(unit), self.rotation[u]) {
            if ctx.width_left() == 0 {
                break;
            }
            if ctx.try_issue(slot) {
                self.rotation[u] = slot + 1;
            }
        }
    }
}

impl WarpScheduler for RefGates {
    fn pick(&mut self, ctx: &mut IssueCtx) {
        self.maybe_switch(ctx);
        self.hold_cycles += 1;
        let high = self.high;
        let low = self.low();
        for unit in [high, UnitType::Ldst, UnitType::Sfu] {
            self.issue_type(ctx, unit);
            if ctx.width_left() == 0 {
                break;
            }
        }
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

    fn name(&self) -> &'static str {
        "RefGates"
    }
}

/// One cycle's context: 0–48 ready slots (about a third of them global
/// loads), 0–2 MSHR credits, a random powered mask (so the LDST and SP
/// clusters are gated some of the time) and random active subsets.
fn random_cycle(rng: &mut SplitMix64, cycle: u64, width: usize) -> impl Fn() -> IssueCtx {
    // Half the cycles draw slots from the Fermi 48-warp window, half
    // from all 128, so round-robin pointers also wrap at the top slot.
    let universe = if rng.chance(0.5) { 48 } else { 128 };
    let mut slots: Vec<usize> = (0..universe).collect();
    let n = rng.index(49);
    for i in 0..n {
        let j = i + rng.index(universe - i);
        slots.swap(i, j);
    }
    let cands: Vec<Candidate> = slots[..n]
        .iter()
        .map(|&slot| {
            let load = rng.chance(1.0 / 3.0);
            Candidate {
                slot: WarpSlot(slot),
                unit: if load {
                    UnitType::Ldst
                } else {
                    UnitType::from_index(rng.index(4))
                },
                is_global_load: load,
            }
        })
        .collect();
    let mut on = [false; NUM_DOMAINS];
    for o in &mut on {
        *o = rng.chance(0.7);
    }
    let mut actv = [0u32; 4];
    for a in &mut actv {
        *a = rng.below(6) as u32;
    }
    let credits = rng.below(3) as u32;
    move || IssueCtx::new(cycle, width, cands.clone(), on, actv, credits)
}

/// Drives `real` and `reference` through `sequences` runs of `cycles`
/// random contexts each and asserts identical decisions after every
/// pick. `extra` compares scheduler state not visible in the context.
fn assert_same_picks<S, R>(
    seed: u64,
    mut make: impl FnMut(&mut SplitMix64) -> (S, R),
    extra: impl Fn(&S, &R) -> (String, String),
) where
    S: WarpScheduler,
    R: WarpScheduler,
{
    let mut rng = SplitMix64::new(seed);
    let mut starved_loads = 0u32;
    for seq in 0..192 {
        let (mut real, mut reference) = make(&mut rng);
        let width = 1 + rng.index(3);
        for cycle in 0..24 {
            let build = random_cycle(&mut rng, cycle, width);
            let mut a = build();
            let mut b = build();
            if a.ready() != a.issuable() {
                starved_loads += 1;
            }
            real.pick(&mut a);
            reference.pick(&mut b);
            let at = format!("sequence {seq}, cycle {cycle}");
            assert_eq!(
                a.issue_order().collect::<Vec<_>>(),
                b.issue_order().collect::<Vec<_>>(),
                "{at}: pick order"
            );
            assert_eq!(a.blocked_demand(), b.blocked_demand(), "{at}: demand");
            assert_eq!(a.issued(), b.issued(), "{at}: issued");
            let (x, y) = extra(&real, &reference);
            assert_eq!(x, y, "{at}: scheduler state");
        }
    }
    assert!(
        starved_loads > 1000,
        "too few credit-starved cycles ({starved_loads}) to exercise the issuable walk"
    );
}

fn no_extra<S, R>(_: &S, _: &R) -> (String, String) {
    (String::new(), String::new())
}

#[test]
fn two_level_issuable_walk_matches_the_ready_walk() {
    assert_same_picks(
        0x0ac1_e001,
        |_| (TwoLevelScheduler::new(), RefTwoLevel::default()),
        no_extra,
    );
}

#[test]
fn lrr_issuable_walk_matches_the_ready_walk() {
    assert_same_picks(
        0x0ac1_e002,
        |_| (LrrScheduler::new(), RefLrr::default()),
        no_extra,
    );
}

#[test]
fn gto_issuable_walk_matches_the_ready_walk() {
    assert_same_picks(
        0x0ac1_e003,
        |_| (GtoScheduler::new(), RefGto::default()),
        no_extra,
    );
}

#[test]
fn gates_issuable_walk_matches_the_ready_walk() {
    assert_same_picks(
        0x0ac1_e004,
        |rng| {
            let max_hold = rng.chance(0.5).then(|| 1 + rng.below(8));
            let lazy_wake = rng.below(3) as u32;
            let wake_backlog = 1 + rng.below(6) as u32;
            let real = match max_hold {
                Some(m) => GatesScheduler::with_max_hold(m),
                None => GatesScheduler::new(),
            }
            .with_lazy_wake(lazy_wake)
            .with_wake_backlog(wake_backlog);
            (real, RefGates::new(max_hold, lazy_wake, wake_backlog))
        },
        |s, r| {
            (
                format!(
                    "{:?} after {} switches",
                    s.high_priority(),
                    s.switch_count()
                ),
                format!("{:?} after {} switches", r.high, r.switches),
            )
        },
    );
}
