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

fn candidates(n: usize) -> Vec<Candidate> {
    (0..n)
        .map(|i| Candidate {
            slot: WarpSlot(i),
            unit: UnitType::from_index(i % 4),
            is_global_load: i % 7 == 0,
        })
        .collect()
}

fn ctx(cands: &[Candidate]) -> IssueCtx {
    IssueCtx::new(0, 2, cands.to_vec(), [true; NUM_DOMAINS], [8; 4], 16)
}

fn pick_cost(label: &str, cands: &[Candidate], mut scheduler: impl WarpScheduler) {
    bench_batched(label, || ctx(cands), |context| scheduler.pick(context));
}

fn main() {
    for n in [4usize, 16, 48, 128] {
        group(&format!("scheduler_pick, {n} ready slots"));
        let cands = candidates(n);
        pick_cost("two_level", &cands, TwoLevelScheduler::new());
        pick_cost("lrr", &cands, LrrScheduler::new());
        pick_cost("gto", &cands, GtoScheduler::new());
        pick_cost("gates", &cands, GatesScheduler::new());
    }
}
