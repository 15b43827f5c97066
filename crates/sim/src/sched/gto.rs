//! Greedy-then-oldest scheduler (the other widely used GPGPU-Sim
//! baseline).

use super::{round_robin, IssueCtx, WarpScheduler};

/// Greedy-then-oldest (GTO): keep issuing from the same warp as long as
/// it stays ready, otherwise fall back to the oldest ready warp.
///
/// GTO is GPGPU-Sim's other stock scheduler and a common baseline in
/// the scheduling literature (it improves cache locality by letting one
/// warp run ahead). It is *not* the paper's baseline — the paper builds
/// on the two-level scheduler — but having it in the toolbox lets the
/// scheduler-comparison study ask whether GATES' energy advantage
/// survives a different starting point.
#[derive(Debug, Clone, Default)]
pub struct GtoScheduler {
    /// The warp currently being run greedily.
    greedy_slot: Option<usize>,
}

impl GtoScheduler {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        GtoScheduler::default()
    }
}

impl WarpScheduler for GtoScheduler {
    fn pick(&mut self, ctx: &mut IssueCtx) {
        // First preference: the greedy warp, if it is still ready.
        if let Some(slot) = self.greedy_slot {
            if ctx.ready() >> slot & 1 == 1 {
                let _ = ctx.try_issue(slot);
            }
        }
        // Fill remaining width oldest-first (slot order approximates
        // age: lower slots were launched earlier within a wave).
        for slot in round_robin(ctx.issuable(), 0) {
            if ctx.width_left() == 0 {
                break;
            }
            if ctx.try_issue(slot) {
                self.greedy_slot = Some(slot);
            }
        }
    }

    fn fast_forward_idle(&mut self, _cycles: u64) -> bool {
        // An empty ready set leaves the greedy slot alone.
        true
    }

    fn name(&self) -> &'static str {
        "GTO"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{cand, ctx_with};
    use super::*;
    use warped_isa::UnitType;

    #[test]
    fn issues_oldest_first_initially() {
        let mut s = GtoScheduler::new();
        let mut ctx = ctx_with(vec![
            cand(3, UnitType::Int),
            cand(7, UnitType::Fp),
            cand(9, UnitType::Int),
        ]);
        s.pick(&mut ctx);
        assert!(ctx.is_issued(3));
        assert!(ctx.is_issued(7));
        assert!(!ctx.is_issued(9));
    }

    #[test]
    fn sticks_with_the_greedy_warp() {
        let mut s = GtoScheduler::new();
        let mut ctx = ctx_with(vec![cand(5, UnitType::Int), cand(6, UnitType::Int)]);
        s.pick(&mut ctx);
        // Greedy warp is now the last issued (slot 6). Next cycle it is
        // preferred over the older slot 5.
        let mut ctx2 = ctx_with(vec![cand(5, UnitType::Sfu), cand(6, UnitType::Int)]);
        s.pick(&mut ctx2);
        assert!(ctx2.is_issued(6), "greedy warp issues first");
        assert!(ctx2.is_issued(5), "remaining width falls back to oldest");
    }

    #[test]
    fn falls_back_when_greedy_warp_disappears() {
        let mut s = GtoScheduler::new();
        let mut ctx = ctx_with(vec![cand(5, UnitType::Int)]);
        s.pick(&mut ctx);
        // Slot 5 no longer ready.
        let mut ctx2 = ctx_with(vec![cand(8, UnitType::Fp)]);
        s.pick(&mut ctx2);
        assert!(ctx2.is_issued(8));
    }

    #[test]
    fn empty_candidates_are_a_no_op() {
        let mut s = GtoScheduler::new();
        let mut ctx = ctx_with(vec![]);
        s.pick(&mut ctx);
        assert_eq!(ctx.width_left(), 2);
    }
}
