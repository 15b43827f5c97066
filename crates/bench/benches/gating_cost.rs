//! Benchmark: per-cycle cost of the gating controllers' `observe` step
//! (runs once per simulated cycle, so it must be cheap).
//!
//! Two stimuli: `noisy` changes the busy flags and active subsets on
//! almost every cycle, so every domain is looked at every time; `grid`
//! is shaped like what the simulator feeds the controller on the
//! paper's workloads (long busy and idle runs, sparse demand, steady
//! subsets), where most observations change nothing.

use warped_bench::timing::{bench, group};
use warped_gates::{AdaptiveIdleDetect, CoordinatedBlackoutPolicy, NaiveBlackoutPolicy};
use warped_gating::{conventional, Controller, GatingParams, StaticIdleDetect};
use warped_sim::{CycleObservation, DomainId, DomainMask, PowerGating};
use warped_workloads::rng::SplitMix64;

const CYCLES: u64 = 10_000;

/// A stimulus with a mix of busy and idle cycles plus occasional demand.
fn noisy(cycle: u64) -> CycleObservation {
    let mut busy: DomainMask = 0;
    if !cycle.is_multiple_of(3) {
        busy |= 1 << (cycle % 6);
    }
    let mut demand = [0u32; 4];
    if cycle.is_multiple_of(17) {
        demand[(cycle % 4) as usize] = 1;
    }
    CycleObservation {
        cycle,
        busy,
        blocked_demand: demand,
        active_subset: [(cycle % 9) as u32; 4],
    }
}

/// A grid-shaped stimulus: every domain alternates busy and idle runs
/// of 1–300 cycles, one unit type sees blocked demand about every 50
/// cycles, and the active subsets change every 500 cycles.
fn grid(cycles: u64) -> Vec<CycleObservation> {
    let mut rng = SplitMix64::new(0x6a7e_0c05);
    let mut run_left = [0u64; DomainId::ALL.len()];
    let mut busy: DomainMask = 0;
    let mut subset = [0u32; 4];
    (0..cycles)
        .map(|cycle| {
            for (left, d) in run_left.iter_mut().zip(DomainId::ALL) {
                if *left == 0 {
                    busy ^= d.bit();
                    *left = 1 + rng.below(300);
                }
                *left -= 1;
            }
            if cycle.is_multiple_of(500) {
                subset = [0; 4].map(|_: u32| rng.below(8) as u32);
            }
            let mut demand = [0u32; 4];
            if rng.below(50) == 0 {
                demand[rng.index(4)] = 1;
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

/// Feeds `stream` to `ctl`, keeping it legal: a gated or waking domain
/// is never busy.
fn drive(ctl: &mut dyn PowerGating, stream: impl Iterator<Item = CycleObservation>) {
    for mut obs in stream {
        let on = ctl.powered_flags(&DomainId::ALL);
        for d in DomainId::ALL {
            if !on[d.index()] {
                obs.busy &= !d.bit();
            }
        }
        ctl.observe(&obs);
    }
}

fn run_all<I: Iterator<Item = CycleObservation>>(title: &str, stream: impl Fn() -> I) {
    group(title);
    bench("conventional", || {
        let mut ctl = conventional(GatingParams::default());
        drive(&mut ctl, stream());
        ctl.report()
    });
    bench("naive_blackout", || {
        let mut ctl = Controller::new(
            GatingParams::default(),
            NaiveBlackoutPolicy::new(),
            StaticIdleDetect::new(),
        );
        drive(&mut ctl, stream());
        ctl.report()
    });
    bench("warped_gates", || {
        let mut ctl = Controller::new(
            GatingParams::default(),
            CoordinatedBlackoutPolicy::new(),
            AdaptiveIdleDetect::new(),
        );
        drive(&mut ctl, stream());
        ctl.report()
    });
}

fn main() {
    run_all("controller_observe_10k_noisy", || (0..CYCLES).map(noisy));
    let trace = grid(CYCLES);
    run_all("controller_observe_10k_grid", || trace.iter().copied());
}
