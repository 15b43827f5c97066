//! Benchmark: per-cycle cost of the scheduling policies on a synthetic
//! ready set (the hot inner loop of the simulator). Only `pick` is
//! timed; each context is built beforehand.

use warped_bench::timing::{bench_batched, group};
use warped_gates::GatesScheduler;
use warped_isa::UnitType;
use warped_sim::{
    Candidate, GtoScheduler, IssueCtx, LrrScheduler, TwoLevelScheduler, WarpScheduler, WarpSlot,
    NUM_DOMAINS,
};

/// `n` ready slots cycling INT, FP, SFU, LDST. Every seventh slot that
/// holds an LDST instruction is a global load; as in the SM, no other
/// unit's instruction is one.
fn candidates(n: usize) -> Vec<Candidate> {
    (0..n)
        .map(|i| {
            let unit = UnitType::from_index(i % 4);
            Candidate {
                slot: WarpSlot(i),
                unit,
                is_global_load: unit == UnitType::Ldst && i % 7 == 0,
            }
        })
        .collect()
}

/// 48 ready slots, 40 of them global loads: the ready set of a
/// memory-bound kernel whose MSHRs are full. Every sixth slot holds an
/// FP, SFU or store instruction instead. None is INT, so GATES (INT
/// first, then LDST) reaches the loads too.
fn mshr_starved() -> Vec<Candidate> {
    (0..48)
        .map(|i| {
            let load = i % 6 != 5;
            Candidate {
                slot: WarpSlot(i),
                unit: if load {
                    UnitType::Ldst
                } else {
                    UnitType::from_index(1 + i / 6 % 3)
                },
                is_global_load: load,
            }
        })
        .collect()
}

fn pick_cost(label: &str, cands: &[Candidate], credits: u32, mut scheduler: impl WarpScheduler) {
    let ctx = || IssueCtx::new(0, 2, cands.to_vec(), [true; NUM_DOMAINS], [8; 4], credits);
    bench_batched(label, ctx, |context| scheduler.pick(context));
}

fn pick_costs(cands: &[Candidate], credits: u32) {
    pick_cost("two_level", cands, credits, TwoLevelScheduler::new());
    pick_cost("lrr", cands, credits, LrrScheduler::new());
    pick_cost("gto", cands, credits, GtoScheduler::new());
    pick_cost("gates", cands, credits, GatesScheduler::new());
}

fn main() {
    for n in [4usize, 16, 48, 128] {
        group(&format!("scheduler_pick, {n} ready slots"));
        pick_costs(&candidates(n), 16);
    }
    group("scheduler_pick, MSHR-starved: 48 ready slots, 40 global loads, 0 credits");
    pick_costs(&mshr_starved(), 0);
}
