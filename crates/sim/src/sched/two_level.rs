//! The two-level warp scheduler of Gebhart et al. — the paper's baseline.

use super::{round_robin, IssueCtx, WarpScheduler};

/// The two-level warp scheduler (Gebhart et al., ISCA 2011), as used for
/// the baseline in the Warped Gates paper.
///
/// The *two levels* — a pending set for warps stalled on long-latency
/// loads and an active set for the rest — are modelled by the simulator
/// itself: the ready set handed to any scheduler already contains only
/// ready warps from the active set. What distinguishes this policy
/// is its greedy, type-oblivious selection: it round-robins over the
/// ready warps of the active set and issues the first ones it finds,
/// freely interspersing INT and FP instructions. That interspersing is
/// exactly what fragments execution-unit idle periods (Figure 4 of the
/// paper) and motivates GATES.
#[derive(Debug, Clone, Default)]
pub struct TwoLevelScheduler {
    last_slot: Option<usize>,
}

impl TwoLevelScheduler {
    /// Creates the scheduler.
    #[must_use]
    pub fn new() -> Self {
        TwoLevelScheduler::default()
    }
}

impl WarpScheduler for TwoLevelScheduler {
    fn pick(&mut self, ctx: &mut IssueCtx) {
        // Continue round-robin from just after the last warp that issued.
        let from = self.last_slot.map_or(0, |last| last + 1);
        for slot in round_robin(ctx.issuable(), from) {
            if ctx.width_left() == 0 {
                break;
            }
            if ctx.try_issue(slot) {
                self.last_slot = Some(slot);
            }
        }
    }

    fn fast_forward_idle(&mut self, _cycles: u64) -> bool {
        // An empty ready set leaves the round-robin pointer alone.
        true
    }

    fn name(&self) -> &'static str {
        "TwoLevel"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{cand, ctx_with};
    use super::*;
    use warped_isa::UnitType;

    #[test]
    fn greedy_issue_intersperses_types() {
        // An INT warp and an FP warp at the head both issue in one cycle —
        // the behaviour GATES is designed to avoid.
        let mut s = TwoLevelScheduler::new();
        let mut ctx = ctx_with(vec![
            cand(0, UnitType::Int),
            cand(1, UnitType::Fp),
            cand(2, UnitType::Int),
        ]);
        s.pick(&mut ctx);
        assert!(ctx.is_issued(0));
        assert!(ctx.is_issued(1));
        assert!(!ctx.is_issued(2));
    }

    #[test]
    fn round_robin_resumes_after_last_issued_warp() {
        let mut s = TwoLevelScheduler::new();
        let mut ctx = ctx_with(vec![
            cand(0, UnitType::Int),
            cand(1, UnitType::Int),
            cand(2, UnitType::Int),
        ]);
        s.pick(&mut ctx);
        assert!(ctx.is_issued(0) && ctx.is_issued(1));

        // Next cycle with the same candidates: starts at slot 2.
        let mut ctx2 = ctx_with(vec![
            cand(0, UnitType::Int),
            cand(1, UnitType::Int),
            cand(2, UnitType::Int),
        ]);
        s.pick(&mut ctx2);
        assert!(ctx2.is_issued(2), "fairness: slot 2 gets its turn");
    }

    #[test]
    fn skips_unissuable_candidates() {
        // Only one LDST port: second LDST candidate is skipped, INT issues.
        let mut s = TwoLevelScheduler::new();
        let mut ctx = ctx_with(vec![
            cand(0, UnitType::Ldst),
            cand(1, UnitType::Ldst),
            cand(2, UnitType::Int),
        ]);
        s.pick(&mut ctx);
        assert!(ctx.is_issued(0));
        assert!(!ctx.is_issued(1));
        assert!(ctx.is_issued(2));
    }

    #[test]
    fn empty_candidates_do_nothing() {
        let mut s = TwoLevelScheduler::new();
        let mut ctx = ctx_with(vec![]);
        s.pick(&mut ctx);
        assert_eq!(ctx.width_left(), 2);
    }
}
