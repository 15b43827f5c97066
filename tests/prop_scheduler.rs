//! Randomized tests of the issue context and the scheduling policies: no
//! scheduler can violate the issue-width, dispatch-port, gating, or MSHR
//! constraints, because the context enforces them.
//!
//! Cases are drawn from a seeded [`SplitMix64`] stream, so every run
//! explores the same inputs (no external property-testing dependency).

use warped_gates_repro::gates::GatesScheduler;
use warped_gates_repro::isa::UnitType;
use warped_gates_repro::prelude::*;
use warped_gates_repro::sim::{Candidate, IssueCtx, LrrScheduler, WarpSlot, NUM_DOMAINS};
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
