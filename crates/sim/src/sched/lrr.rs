//! Loose round-robin scheduler (pre-two-level reference baseline).

use super::{round_robin, IssueCtx, WarpScheduler};

/// Loose round-robin: every cycle, scan the ready warps starting one past
/// the slot that issued first last cycle, issuing greedily without regard
/// to instruction type.
///
/// This is the classic single-queue GPU scheduler that the two-level
/// scheduler of Gebhart et al. improved upon; it is provided as an extra
/// reference point (the paper's baseline is [`TwoLevelScheduler`]).
///
/// [`TwoLevelScheduler`]: super::TwoLevelScheduler
#[derive(Debug, Clone, Default)]
pub struct LrrScheduler {
    next_slot: usize,
}

impl LrrScheduler {
    /// Creates the scheduler with the rotation pointer at slot zero.
    #[must_use]
    pub fn new() -> Self {
        LrrScheduler::default()
    }
}

impl WarpScheduler for LrrScheduler {
    fn pick(&mut self, ctx: &mut IssueCtx) {
        // Scan from the rotation pointer, wrapping around.
        let mut first_issued_slot = None;
        for slot in round_robin(ctx.issuable(), self.next_slot) {
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

    fn fast_forward_idle(&mut self, _cycles: u64) -> bool {
        // An empty ready set leaves the rotation pointer alone.
        true
    }

    fn name(&self) -> &'static str {
        "LRR"
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{cand, ctx_with};
    use super::*;
    use warped_isa::UnitType;

    #[test]
    fn issues_up_to_width_in_order() {
        let mut s = LrrScheduler::new();
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
    fn rotation_advances_past_last_first_issue() {
        let mut s = LrrScheduler::new();
        let mut ctx = ctx_with(vec![cand(0, UnitType::Int), cand(5, UnitType::Int)]);
        s.pick(&mut ctx);
        // First issue was slot 0, so next cycle starts scanning at slot 1.
        let mut ctx2 = ctx_with(vec![cand(0, UnitType::Int), cand(5, UnitType::Int)]);
        s.pick(&mut ctx2);
        // Slot 5 should be tried first this time; both still issue.
        assert!(ctx2.is_issued(0));
        assert!(ctx2.is_issued(5));
    }

    #[test]
    fn empty_candidate_list_is_a_no_op() {
        let mut s = LrrScheduler::new();
        let mut ctx = ctx_with(vec![]);
        s.pick(&mut ctx);
        assert_eq!(ctx.width_left(), 2);
    }
}
