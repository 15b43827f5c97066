//! Integration of the adaptive idle-detect tuner with the gating
//! controller: epoch accounting, window movement, and its end-to-end
//! effect.

use warped_gates_repro::gates::{AdaptiveIdleDetect, CoordinatedBlackoutPolicy};
use warped_gates_repro::gating::{Controller, GatingParams};
use warped_gates_repro::isa::UnitType;
use warped_gates_repro::sim::{CycleObservation, DomainId, PowerGating};

/// Runs `cycles` of a stimulus that repeatedly gates the INT clusters
/// and slams them with demand exactly at the break-even boundary,
/// manufacturing critical wakeups.
fn critical_wakeup_storm(
    ctl: &mut Controller<CoordinatedBlackoutPolicy, AdaptiveIdleDetect>,
    cycles: u64,
) {
    let params = *ctl.params();
    let period = u64::from(params.idle_detect + params.bet + params.wakeup_delay + 2);
    for cycle in 0..cycles {
        let phase = cycle % period;
        // Demand appears from the moment gating starts, so it is pending
        // when the break-even counter expires -> critical wakeup.
        let demand_now = phase >= u64::from(params.idle_detect);
        let mut demand = [0u32; 4];
        if demand_now {
            demand[UnitType::Int.index()] = 2;
        }
        ctl.observe(&CycleObservation {
            cycle,
            busy: 0,
            blocked_demand: demand,
            active_subset: [2, 0, 0, 0],
        });
    }
}

#[test]
fn critical_wakeup_storm_widens_the_int_window_only() {
    let mut ctl = Controller::new(
        GatingParams::default(),
        CoordinatedBlackoutPolicy::new(),
        AdaptiveIdleDetect::new(),
    );
    assert_eq!(ctl.idle_detect(UnitType::Int), 5);
    critical_wakeup_storm(&mut ctl, 20_000);
    let int_window = ctl.idle_detect(UnitType::Int);
    let fp_window = ctl.idle_detect(UnitType::Fp);
    assert!(
        int_window > 5,
        "sustained critical wakeups must widen the INT window (got {int_window})"
    );
    assert!(int_window <= 10, "window must respect the upper bound");
    assert!(
        fp_window <= int_window,
        "FP saw no critical wakeups; its window must not exceed INT's"
    );
    let crit: u64 = DomainId::domains_of(UnitType::Int)
        .iter()
        .map(|d| ctl.report().domain(*d).critical_wakeups)
        .sum();
    assert!(crit > 0, "the storm must actually produce critical wakeups");
}

#[test]
fn quiet_epochs_walk_the_window_back_down() {
    let mut ctl = Controller::new(
        GatingParams::default(),
        CoordinatedBlackoutPolicy::new(),
        AdaptiveIdleDetect::new(),
    );
    critical_wakeup_storm(&mut ctl, 20_000);
    let widened = ctl.idle_detect(UnitType::Int);
    assert!(widened > 5);
    // Quiet period: every powered domain busy, no demand, no critical
    // wakeups. Gated domains are never busy (simulator contract), so a
    // one-cycle demand first wakes everything up, then work keeps the
    // domains active.
    let start = 20_000u64;
    for cycle in start..start + 40_000 {
        let busy = DomainId::ALL
            .into_iter()
            .filter(|d| ctl.is_on(*d))
            .fold(0, |m, d| m | d.bit());
        let demand = if busy != 0 { [0u32; 4] } else { [2u32; 4] };
        ctl.observe(&CycleObservation {
            cycle,
            busy,
            blocked_demand: demand,
            active_subset: [4; 4],
        });
    }
    let relaxed = ctl.idle_detect(UnitType::Int);
    assert!(
        relaxed < widened,
        "4 clean epochs per decrement over 40 epochs must narrow the window"
    );
    assert!(relaxed >= 5, "window must respect the lower bound");
}

#[test]
fn static_window_stays_put_under_the_same_storm() {
    use warped_gates_repro::gating::StaticIdleDetect;
    let mut adaptive = Controller::new(
        GatingParams::default(),
        CoordinatedBlackoutPolicy::new(),
        AdaptiveIdleDetect::new(),
    );
    let mut fixed = Controller::new(
        GatingParams::default(),
        CoordinatedBlackoutPolicy::new(),
        StaticIdleDetect::new(),
    );
    critical_wakeup_storm(&mut adaptive, 20_000);
    // Drive the static controller with the same storm shape.
    let params = GatingParams::default();
    let period = u64::from(params.idle_detect + params.bet + params.wakeup_delay + 2);
    for cycle in 0..20_000u64 {
        let phase = cycle % period;
        let mut demand = [0u32; 4];
        if phase >= u64::from(params.idle_detect) {
            demand[UnitType::Int.index()] = 2;
        }
        fixed.observe(&CycleObservation {
            cycle,
            busy: 0,
            blocked_demand: demand,
            active_subset: [2, 0, 0, 0],
        });
    }
    assert_eq!(fixed.idle_detect(UnitType::Int), 5, "static never moves");
    // The adaptive controller, gating more conservatively, ends up with
    // fewer gating events on the INT clusters.
    let evs = |c: &dyn PowerGating| -> u64 {
        DomainId::domains_of(UnitType::Int)
            .iter()
            .map(|d| c.report().domain(*d).gate_events)
            .sum()
    };
    assert!(
        evs(&adaptive) <= evs(&fixed),
        "a wider window cannot gate more often"
    );
}
