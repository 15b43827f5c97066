//! The warp scheduling framework.
//!
//! Every cycle the SM rearms one long-lived [`IssueCtx`] — the ready
//! warps as per-unit slot bitmaps, port availability, power-gating
//! state, and per-type active-subset occupancy — and hands it to the
//! installed [`WarpScheduler`]. The scheduler expresses *priority
//! order* by calling [`IssueCtx::try_issue`] on slots; the context
//! enforces the hard constraints (issue width, dispatch ports, gated
//! clusters, MSHR capacity), so no scheduler implementation can violate
//! them.

mod gto;
mod lrr;
mod two_level;

pub use gto::GtoScheduler;
pub use lrr::LrrScheduler;
pub use two_level::TwoLevelScheduler;

use crate::domain::{mask_of, DomainId, DomainLayout, DomainMask, NUM_DOMAINS};
use crate::exec::port_bits;
use crate::warp::WarpSlot;
use warped_isa::UnitType;

/// Resident-warp slots a slot bitmap covers (one `u128` bit each).
pub(crate) const SLOTS: usize = 128;

/// A ready warp, as handed to [`IssueCtx::new`] when building a context
/// by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Which resident-warp slot the warp occupies.
    pub slot: WarpSlot,
    /// The execution unit the warp's next instruction needs.
    pub unit: UnitType,
    /// Whether the next instruction is a global load (needs an MSHR slot).
    pub is_global_load: bool,
}

/// One issue decision produced during the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pick {
    pub slot: WarpSlot,
    pub domain: DomainId,
}

/// The set slots of a slot bitmap in round-robin order: ascending from
/// slot `from`, then wrapping to slot 0. `from` may be one past the top
/// slot (a pointer left at `last + 1`); the walk then starts at slot 0.
///
/// Rotating the bitmap so `from` lands on bit 0 turns the wrap into a
/// plain `trailing_zeros` walk — no shift ever reaches 128.
///
/// # Examples
///
/// ```
/// use warped_sim::round_robin;
///
/// let bits = 1u128 | 1 << 5 | 1 << 127;
/// assert_eq!(round_robin(bits, 5).collect::<Vec<_>>(), [5, 127, 0]);
/// assert_eq!(round_robin(bits, 128).collect::<Vec<_>>(), [0, 5, 127]);
/// ```
#[must_use]
pub fn round_robin(bits: u128, from: usize) -> RoundRobin {
    let base = (from % SLOTS) as u32;
    RoundRobin {
        rest: bits.rotate_right(base),
        base,
    }
}

/// Iterator returned by [`round_robin`].
#[derive(Debug, Clone)]
pub struct RoundRobin {
    /// The not-yet-visited slots, rotated right by `base`.
    rest: u128,
    base: u32,
}

impl Iterator for RoundRobin {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.rest == 0 {
            return None;
        }
        let k = self.rest.trailing_zeros();
        self.rest &= self.rest - 1;
        Some(((k + self.base) as usize) % SLOTS)
    }
}

/// The per-cycle issue context handed to [`WarpScheduler::pick`].
///
/// See the crate documentation for the scheduling protocol: the
/// context enforces issue width, dispatch ports, gating, and MSHR
/// capacity; schedulers only express priority order.
///
/// Ready warps are keyed by slot: [`ready_of`](IssueCtx::ready_of)
/// holds one bitmap per unit type, and schedulers walk them in slot
/// order (see [`round_robin`]). The SM keeps one context alive across
/// its whole run and updates those bitmaps only when a warp's
/// classification changes, then rearms the per-cycle state with
/// [`reset_for_cycle`](IssueCtx::reset_for_cycle) — no per-cycle
/// rebuild of the ready set.
#[derive(Debug)]
pub struct IssueCtx {
    cycle: u64,
    issue_width: usize,
    layout: DomainLayout,
    /// Ready slots by the unit their next instruction needs. Maintained
    /// *across* cycles by the owner ([`IssueCtx::set_ready`] and
    /// [`IssueCtx::clear_ready`]); fixed within a cycle.
    ready_of: [u128; 4],
    /// The union of `ready_of`, kept with it so the ready set is one
    /// load.
    ready_all: u128,
    /// Ready slots whose next instruction is a global load.
    ready_loads: u128,
    /// The unit of each ready slot's next instruction (meaningful only
    /// where a `ready_of` bit is set).
    unit_of: [UnitType; SLOTS],
    /// Per-unit population of `ready_of`, kept with the bitmaps.
    ready_counts: [u32; 4],
    /// Ready slots issued this cycle.
    issued: u128,
    /// Index of the first cluster SP steering probes this cycle.
    sp_start: usize,
    /// The layout's domains of each unit type.
    unit_masks: [DomainMask; 4],
    /// Domains powered this cycle.
    powered: DomainMask,
    /// Domains whose dispatch port is claimed this cycle (see
    /// [`port_bits`]).
    ports_used: DomainMask,
    active_subset: [u32; 4],
    ldst_load_credits: u32,
    /// The cycle's issue decisions, for the owner to apply after
    /// [`WarpScheduler::pick`] returns.
    pub(crate) picks: Vec<Pick>,
    attempted_blocked: [u32; 4],
    /// Ready but not yet issued slots per unit: `ready_counts` at the
    /// start of the cycle, decremented by each issue.
    ready_left: [u32; 4],
    /// Units proven unissuable for the rest of the cycle with every
    /// cluster powered. Within a cycle `powered` is fixed and ports
    /// are only ever claimed, so once [`IssueCtx::try_issue`] fails for
    /// such a unit, every later attempt on it would fail identically
    /// and without side effects; the flag lets those attempts return
    /// immediately instead of re-probing the dispatch ports.
    dead_units: [bool; 4],
}

impl IssueCtx {
    /// Builds an issue context from an explicit snapshot.
    ///
    /// The simulator keeps one context for a whole run; exposing the
    /// constructor lets downstream crates unit-test custom
    /// [`WarpScheduler`] implementations against hand-crafted
    /// situations (specific gating states, ready sets, and
    /// active-subset counts).
    ///
    /// # Panics
    ///
    /// Panics if a candidate's slot is 128 or more, or if two
    /// candidates share a slot.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        cycle: u64,
        issue_width: usize,
        candidates: Vec<Candidate>,
        domain_on: [bool; NUM_DOMAINS],
        active_subset: [u32; 4],
        ldst_load_credits: u32,
    ) -> Self {
        Self::with_layout(
            DomainLayout::fermi(),
            cycle,
            issue_width,
            candidates,
            domain_on,
            active_subset,
            ldst_load_credits,
        )
    }

    /// [`IssueCtx::new`] for an explicit clustered-architecture layout
    /// (Kepler-like studies).
    ///
    /// # Panics
    ///
    /// As [`IssueCtx::new`].
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn with_layout(
        layout: DomainLayout,
        cycle: u64,
        issue_width: usize,
        candidates: Vec<Candidate>,
        domain_on: [bool; NUM_DOMAINS],
        active_subset: [u32; 4],
        ldst_load_credits: u32,
    ) -> Self {
        let mut ctx = Self::persistent(layout, issue_width);
        for c in candidates {
            let slot = c.slot.0;
            assert!(slot < SLOTS, "candidate slot {slot} out of range");
            assert!(
                ctx.ready() >> slot & 1 == 0,
                "two candidates share slot {slot}"
            );
            ctx.set_ready(slot, c.unit, c.is_global_load);
        }
        ctx.reset_for_cycle(cycle, mask_of(&domain_on), active_subset, ldst_load_credits);
        ctx
    }

    /// An empty long-lived context. The owner keeps the ready bitmaps
    /// current with [`set_ready`](IssueCtx::set_ready) and
    /// [`clear_ready`](IssueCtx::clear_ready) and rearms it each cycle
    /// with [`reset_for_cycle`](IssueCtx::reset_for_cycle).
    pub(crate) fn persistent(layout: DomainLayout, issue_width: usize) -> Self {
        IssueCtx {
            cycle: 0,
            issue_width,
            layout,
            ready_of: [0; 4],
            ready_all: 0,
            ready_loads: 0,
            unit_of: [UnitType::Int; SLOTS],
            ready_counts: [0; 4],
            issued: 0,
            sp_start: 0,
            unit_masks: UnitType::ALL.map(|u| layout.unit_mask(u)),
            powered: 0,
            ports_used: 0,
            active_subset: [0; 4],
            ldst_load_credits: 0,
            picks: Vec::with_capacity(issue_width),
            attempted_blocked: [0; 4],
            ready_left: [0; 4],
            dead_units: [false; 4],
        }
    }

    /// Marks `slot` ready with a next instruction of `unit`. The slot
    /// must not be ready already.
    pub(crate) fn set_ready(&mut self, slot: usize, unit: UnitType, is_global_load: bool) {
        let bit = 1u128 << slot;
        debug_assert_eq!(self.ready() & bit, 0, "slot {slot} is already ready");
        self.ready_of[unit.index()] |= bit;
        self.ready_all |= bit;
        if is_global_load {
            self.ready_loads |= bit;
        }
        self.unit_of[slot] = unit;
        self.ready_counts[unit.index()] += 1;
    }

    /// Removes `slot` from the ready set; a no-op if it is not ready.
    pub(crate) fn clear_ready(&mut self, slot: usize) {
        let bit = 1u128 << slot;
        let u = self.unit_of[slot].index();
        if self.ready_of[u] & bit != 0 {
            self.ready_of[u] &= !bit;
            self.ready_all &= !bit;
            self.ready_loads &= !bit;
            self.ready_counts[u] -= 1;
        }
    }

    /// The unit of ready slot `slot`'s next instruction and whether it
    /// is a global load (sanitizer cross-checks).
    pub(crate) fn ready_meta(&self, slot: usize) -> (UnitType, bool) {
        (self.unit_of[slot], self.ready_loads >> slot & 1 == 1)
    }

    /// Rearms the context for a new cycle in place: the ready bitmaps
    /// stay as the owner maintains them; everything per-cycle (issued
    /// bitmap, picks, ports, demand, working tally, steering start,
    /// powered/credit snapshot) resets.
    pub(crate) fn reset_for_cycle(
        &mut self,
        cycle: u64,
        powered: DomainMask,
        active_subset: [u32; 4],
        ldst_load_credits: u32,
    ) {
        self.cycle = cycle;
        self.powered = powered;
        self.active_subset = active_subset;
        self.ldst_load_credits = ldst_load_credits;
        self.ports_used = 0;
        self.attempted_blocked = [0; 4];
        self.dead_units = [false; 4];
        self.ready_left = self.ready_counts;
        self.issued = 0;
        self.sp_start = (cycle % self.layout.sp_clusters() as u64) as usize;
        self.picks.clear();
    }

    /// The current cycle number.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Slots holding a ready warp this cycle (bit `i` = slot `i`),
    /// issued ones included.
    #[must_use]
    pub fn ready(&self) -> u128 {
        self.ready_all
    }

    /// Slots holding a ready warp whose next instruction needs `unit`,
    /// issued ones included.
    #[must_use]
    pub fn ready_of(&self, unit: UnitType) -> u128 {
        self.ready_of[unit.index()]
    }

    /// Slots a [`try_issue`](IssueCtx::try_issue) call may still
    /// accept this cycle: the ready slots minus those already issued,
    /// minus every global load while the MSHRs have no credit left.
    ///
    /// `try_issue` rejects every slot outside this set before any side
    /// effect, so a scheduler that walks `issuable()` instead of
    /// [`ready`](IssueCtx::ready) makes the same decisions and skips
    /// the doomed attempts. The set is a snapshot: width, ports and
    /// gating still decide each attempt, and credits can run out in
    /// the middle of a walk.
    #[must_use]
    pub fn issuable(&self) -> u128 {
        self.ready() & self.not_doomed()
    }

    /// [`issuable`](IssueCtx::issuable) restricted to the slots whose
    /// next instruction needs `unit`.
    #[must_use]
    pub fn issuable_of(&self, unit: UnitType) -> u128 {
        self.ready_of[unit.index()] & self.not_doomed()
    }

    /// The complement of the slots `try_issue` rejects on its issued
    /// and credit checks alone.
    fn not_doomed(&self) -> u128 {
        let starved = if self.ldst_load_credits == 0 {
            self.ready_loads
        } else {
            0
        };
        !(self.issued | starved)
    }

    /// Slots issued so far this cycle (a subset of
    /// [`ready`](IssueCtx::ready)).
    #[must_use]
    pub fn issued(&self) -> u128 {
        self.issued
    }

    /// This cycle's issues so far, in issue order: each slot with the
    /// domain it dispatched to.
    pub fn issue_order(&self) -> impl Iterator<Item = (WarpSlot, DomainId)> + '_ {
        self.picks.iter().map(|p| (p.slot, p.domain))
    }

    /// Whether the warp in `slot` has already been issued this cycle.
    #[must_use]
    pub fn is_issued(&self, slot: usize) -> bool {
        slot < SLOTS && self.issued >> slot & 1 == 1
    }

    /// Remaining issue slots this cycle.
    #[must_use]
    pub fn width_left(&self) -> usize {
        self.issue_width - self.picks.len()
    }

    /// Number of warps currently in the active subset of `unit`
    /// (the paper's `INT_ACTV` / `FP_ACTV` counters).
    #[must_use]
    pub fn active_subset(&self, unit: UnitType) -> u32 {
        self.active_subset[unit.index()]
    }

    /// Number of *ready* warps of `unit` not yet issued
    /// (the paper's `INT_RDY` / `FP_RDY` / `SFU_RDY` / `LDST_RDY`
    /// counters).
    #[must_use]
    pub fn ready_count(&self, unit: UnitType) -> u32 {
        self.ready_left[unit.index()]
    }

    /// Whether at least one cluster of `unit` is powered on (regardless of
    /// port availability). GATES uses this to skip instruction types whose
    /// clusters are all in blackout.
    #[must_use]
    pub fn type_powered(&self, unit: UnitType) -> bool {
        self.powered & self.unit_masks[unit.index()] != 0
    }

    /// Whether some cluster of `unit` is gated or waking.
    fn any_gated(&self, unit: UnitType) -> bool {
        self.unit_masks[unit.index()] & !self.powered != 0
    }

    /// The domain an instruction of `unit` would dispatch to, if any.
    ///
    /// Cluster steering load-balances: the preferred cluster alternates
    /// with the cycle parity, mirroring how Fermi's two schedulers share
    /// the SP clusters. (Deliberately *not* packed into one cluster —
    /// that would let the peer cluster sleep forever and hand every
    /// gating scheme the same free savings, erasing the differences the
    /// paper measures.) SFU and LDST have one domain each, so only the
    /// SP types rotate; their start is computed once per cycle.
    ///
    /// A unit's domains occupy consecutive mask bits, cluster 0 lowest,
    /// so the rotation is "lowest free bit at or above the start
    /// cluster, else lowest free bit" (a single-domain unit's one bit
    /// satisfies either rule).
    fn accepting_domain(&self, unit: UnitType) -> Option<DomainId> {
        let unit_bits = self.unit_masks[unit.index()];
        let free = u32::from(unit_bits & self.powered & !self.ports_used);
        if free == 0 {
            return None;
        }
        let from = unit_bits.trailing_zeros() as usize + self.sp_start;
        let above = free & !((1 << from) - 1);
        let bits = if above != 0 { above } else { free };
        Some(DomainId::from_index(bits.trailing_zeros() as usize))
    }

    /// Registers wakeup demand for `unit` without an issue attempt.
    ///
    /// Schedulers use this when they *want* capacity of a gated type but
    /// cannot spend an issue slot on the attempt this cycle — e.g. GATES
    /// observing a backlog of ready demoted-type warps while the
    /// favoured type fills the full width. No-op when every cluster of
    /// the type is powered.
    pub fn request_wakeup(&mut self, unit: UnitType) {
        if self.any_gated(unit) {
            self.attempted_blocked[unit.index()] += 1;
        }
    }

    /// Attempts to issue the ready warp in `slot`.
    ///
    /// Returns `true` on success. Fails (returning `false`) when the
    /// warp was already issued, the issue width is exhausted, no
    /// powered cluster with a free dispatch port exists for its unit, or a
    /// global load finds no MSHR space.
    ///
    /// # Panics
    ///
    /// Panics if `slot` holds no ready warp (not in
    /// [`ready`](IssueCtx::ready)): there is no instruction to issue.
    #[inline]
    pub fn try_issue(&mut self, slot: usize) -> bool {
        assert!(
            slot < SLOTS && self.ready() >> slot & 1 == 1,
            "try_issue: slot {slot} holds no ready warp"
        );
        let bit = 1u128 << slot;
        if self.issued & bit != 0 || self.width_left() == 0 {
            return false;
        }
        let unit = self.unit_of[slot];
        if self.dead_units[unit.index()] {
            return false;
        }
        let is_global_load = self.ready_loads & bit != 0;
        if is_global_load && self.ldst_load_credits == 0 {
            return false;
        }
        let Some(domain) = self.accepting_domain(unit) else {
            // The attempt found nowhere to go. If a gated or waking
            // cluster of this type exists, the failed attempt is wakeup
            // demand (the paper's "ready instruction scheduled" edge):
            // this covers both the fully-gated type and the
            // one-cluster-awake-but-saturated case, where the sleeping
            // peer is what's costing dual-issue bandwidth. If every
            // cluster is powered, the failure is purely structural (port
            // race) and wakes nothing.
            if self.any_gated(unit) {
                self.attempted_blocked[unit.index()] += 1;
            } else {
                // Fully powered yet nowhere to dispatch: the failure is
                // structural and permanent for this cycle.
                self.dead_units[unit.index()] = true;
            }
            return false;
        };
        debug_assert_eq!(
            self.ports_used & domain.bit(),
            0,
            "double issue to {domain}"
        );
        self.ports_used |= port_bits(domain);
        self.issued |= bit;
        self.ready_left[unit.index()] -= 1;
        if is_global_load {
            self.ldst_load_credits -= 1;
        }
        self.picks.push(Pick {
            slot: WarpSlot(slot),
            domain,
        });
        true
    }

    /// Per unit type, how many issue *attempts* failed this cycle
    /// because every cluster of the type was gated or waking — the
    /// wakeup demand the gating controller sees.
    ///
    /// Demand is scheduler-driven: only a [`try_issue`] call on a
    /// fully-gated type registers (the paper's "ready instruction
    /// scheduled" wakeup edge). A ready warp the scheduler chose
    /// not to attempt — e.g. GATES holding back the demoted instruction
    /// type — wakes nothing. A warp that merely lost a port race
    /// while a powered cluster of its type exists also creates no
    /// demand: dispatch steers instructions to the awake cluster, so
    /// waking the peer for a one-cycle burst would thrash it.
    ///
    /// [`try_issue`]: IssueCtx::try_issue
    #[must_use]
    pub fn blocked_demand(&self) -> [u32; 4] {
        self.attempted_blocked
    }

    /// The cycle's outcome after [`WarpScheduler::pick`] returns:
    /// `(blocked_demand, issued_count)`. The picks themselves stay in
    /// the context for the owner to apply.
    pub(crate) fn cycle_result(&self) -> ([u32; 4], usize) {
        (self.blocked_demand(), self.picks.len())
    }
}

/// A warp scheduling policy.
///
/// Implementations select ready warps in priority order via
/// [`IssueCtx::try_issue`]; hard constraints are enforced by the context.
/// Walk [`IssueCtx::issuable`] (or [`IssueCtx::issuable_of`]) rather
/// than the ready set: it drops the slots `try_issue` would reject
/// without side effects, such as global loads while the MSHRs are full,
/// so MSHR back-pressure adds nothing to the walk.
pub trait WarpScheduler {
    /// Chooses this cycle's issues.
    fn pick(&mut self, ctx: &mut IssueCtx);

    /// Advances scheduler state across `cycles` consecutive cycles in
    /// which the ready set and every active subset are empty,
    /// returning whether the scheduler supports this.
    ///
    /// When the SM fast-forwards its clock through a stall region it
    /// calls this instead of issuing `cycles` [`pick`] calls with an
    /// empty context. Implementations must leave the scheduler
    /// bit-identical to having seen those empty picks. Returning
    /// `false` (the default, so unknown schedulers stay correct)
    /// vetoes the skip and must leave the scheduler untouched; the SM
    /// then steps cycle by cycle. Because a veto must be side-effect
    /// free and nothing the scheduler can observe changes before the
    /// event bounding the span, the SM caches the veto for the whole
    /// span: this method is consulted once per span, not once per
    /// stepped cycle.
    ///
    /// [`pick`]: WarpScheduler::pick
    fn fast_forward_idle(&mut self, cycles: u64) -> bool {
        let _ = cycles;
        false
    }

    /// Human-readable scheduler name (used in reports and figures).
    fn name(&self) -> &'static str;

    /// Hands the scheduler a telemetry recorder
    /// ([`Recorder`](crate::probe::Recorder)) to stamp scheduling
    /// events on (e.g. GATES priority flips). Recording must be
    /// observe-only: installing a recorder must not change any
    /// scheduling decision.
    ///
    /// The default drops the handle, which is always sound — the
    /// scheduler simply contributes no events.
    fn set_recorder(&mut self, recorder: crate::probe::Recorder) {
        let _ = recorder;
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use crate::domain::NUM_DOMAINS;

    /// Builds an issue context with everything powered and free.
    pub(crate) fn ctx_with(candidates: Vec<Candidate>) -> IssueCtx {
        IssueCtx::new(0, 2, candidates, [true; NUM_DOMAINS], [0; 4], 64)
    }

    pub(crate) fn cand(slot: usize, unit: UnitType) -> Candidate {
        Candidate {
            slot: WarpSlot(slot),
            unit,
            is_global_load: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::{cand, ctx_with};
    use super::*;
    use crate::domain::NUM_DOMAINS;

    #[test]
    fn issue_width_is_enforced() {
        let mut ctx = ctx_with(vec![
            cand(0, UnitType::Int),
            cand(1, UnitType::Int),
            cand(2, UnitType::Fp),
        ]);
        assert!(ctx.try_issue(0));
        assert!(ctx.try_issue(1));
        assert_eq!(ctx.width_left(), 0);
        assert!(!ctx.try_issue(2), "third issue exceeds width 2");
    }

    #[test]
    fn two_int_issues_use_both_clusters() {
        let mut ctx = ctx_with(vec![cand(0, UnitType::Int), cand(1, UnitType::Int)]);
        assert!(ctx.try_issue(0));
        assert!(ctx.try_issue(1));
        let domains: Vec<_> = ctx.issue_order().map(|(_, domain)| domain).collect();
        assert_eq!(domains.len(), 2);
        assert!(domains.contains(&DomainId::INT0));
        assert!(domains.contains(&DomainId::INT1));
    }

    #[test]
    fn int_and_fp_share_sp_ports() {
        // Both SP ports consumed by INT issues: FP cannot issue.
        let mut ctx = IssueCtx::new(
            0,
            3, // width bigger than ports to isolate the port constraint
            vec![
                cand(0, UnitType::Int),
                cand(1, UnitType::Int),
                cand(2, UnitType::Fp),
            ],
            [true; NUM_DOMAINS],
            [0; 4],
            64,
        );
        assert!(ctx.try_issue(0));
        assert!(ctx.try_issue(1));
        assert!(!ctx.try_issue(2), "no SP port left for FP");
    }

    #[test]
    fn gated_clusters_are_skipped_and_counted_as_demand() {
        let mut on = [true; NUM_DOMAINS];
        on[DomainId::INT0.index()] = false;
        on[DomainId::INT1.index()] = false;
        let mut ctx = IssueCtx::new(
            0,
            2,
            vec![cand(0, UnitType::Int), cand(1, UnitType::Fp)],
            on,
            [0; 4],
            64,
        );
        assert!(!ctx.try_issue(0), "both INT clusters gated");
        assert!(ctx.try_issue(1), "FP unaffected");
        assert!(!ctx.type_powered(UnitType::Int));
        assert!(ctx.type_powered(UnitType::Fp));
        let demand = ctx.blocked_demand();
        assert_eq!(demand[UnitType::Int.index()], 1);
        assert_eq!(demand[UnitType::Fp.index()], 0);
    }

    #[test]
    fn saturated_single_on_cluster_registers_demand_for_gated_peer() {
        let mut on = [true; NUM_DOMAINS];
        on[DomainId::INT1.index()] = false;
        let mut ctx = IssueCtx::new(
            0,
            2,
            vec![cand(0, UnitType::Int), cand(1, UnitType::Int)],
            on,
            [0; 4],
            64,
        );
        assert!(ctx.try_issue(0));
        assert!(!ctx.try_issue(1), "INT0 port used, INT1 gated");
        // The second INT instruction could issue nowhere this cycle and a
        // gated INT cluster exists: the failed attempt is wakeup demand —
        // the sleeping peer is costing dual-issue bandwidth.
        assert_eq!(ctx.blocked_demand()[UnitType::Int.index()], 1);
    }

    #[test]
    fn port_race_with_all_clusters_powered_is_not_demand() {
        // Two LDST candidates, one LDST port, unit fully powered: the
        // loser of the port race wakes nothing (structural stall only).
        let mut ctx = ctx_with(vec![cand(0, UnitType::Ldst), cand(1, UnitType::Ldst)]);
        assert!(ctx.try_issue(0));
        assert!(!ctx.try_issue(1));
        assert_eq!(ctx.blocked_demand()[UnitType::Ldst.index()], 0);
    }

    #[test]
    fn global_loads_respect_mshr_credits() {
        let load = Candidate {
            slot: WarpSlot(0),
            unit: UnitType::Ldst,
            is_global_load: true,
        };
        let mut ctx = IssueCtx::new(0, 2, vec![load], [true; NUM_DOMAINS], [0; 4], 0);
        assert!(!ctx.try_issue(0));
        // MSHR exhaustion is a structural stall, not gating demand.
        assert_eq!(ctx.blocked_demand()[UnitType::Ldst.index()], 0);
    }

    fn load(slot: usize) -> Candidate {
        Candidate {
            slot: WarpSlot(slot),
            unit: UnitType::Ldst,
            is_global_load: true,
        }
    }

    #[test]
    fn issued_slots_leave_the_issuable_set() {
        let mut ctx = ctx_with(vec![cand(0, UnitType::Int), cand(1, UnitType::Fp)]);
        assert_eq!(ctx.issuable(), 0b11);
        assert!(ctx.try_issue(0));
        assert_eq!(ctx.issuable(), 0b10);
        assert_eq!(ctx.issuable_of(UnitType::Int), 0);
        assert_eq!(ctx.issuable_of(UnitType::Fp), 0b10);
    }

    #[test]
    fn global_loads_are_issuable_only_with_a_credit() {
        for credits in [0, 1] {
            let mut ctx = IssueCtx::new(
                0,
                2,
                vec![load(2), cand(5, UnitType::Int)],
                [true; NUM_DOMAINS],
                [0; 4],
                credits,
            );
            let expect = u128::from(credits) << 2;
            assert_eq!(ctx.issuable_of(UnitType::Ldst), expect, "{credits} credits");
            assert_eq!(ctx.issuable(), expect | 1 << 5);
            // The set only ever drops slots `try_issue` would reject.
            assert_eq!(ctx.try_issue(2), credits == 1);
        }
    }

    #[test]
    fn stores_and_shared_loads_stay_issuable_without_credits() {
        // Slot 1 is a store or shared load: LDST, but no MSHR needed.
        let mut ctx = IssueCtx::new(
            0,
            2,
            vec![load(0), cand(1, UnitType::Ldst)],
            [true; NUM_DOMAINS],
            [0; 4],
            0,
        );
        assert_eq!(ctx.issuable_of(UnitType::Ldst), 1 << 1);
        assert_eq!(ctx.ready_count(UnitType::Ldst), 2, "the counters keep both");
        assert!(ctx.try_issue(1));
    }

    #[test]
    fn issuable_is_a_subset_of_ready() {
        let mut ctx = IssueCtx::new(
            0,
            2,
            vec![
                load(3),
                load(64),
                cand(9, UnitType::Ldst),
                cand(127, UnitType::Sfu),
            ],
            [true; NUM_DOMAINS],
            [0; 4],
            1,
        );
        assert_eq!(ctx.issuable() & !ctx.ready(), 0);
        assert!(ctx.try_issue(3));
        // The one credit is spent: the other load leaves the set. The
        // store stays, though the LDST port is taken: only the issued
        // and credit checks narrow the set.
        assert_eq!(ctx.issuable(), 1 << 9 | 1 << 127);
        assert_eq!(ctx.issuable() & !ctx.ready(), 0);
        for unit in UnitType::ALL {
            assert_eq!(ctx.issuable_of(unit) & !ctx.ready_of(unit), 0, "{unit}");
        }
    }

    #[test]
    fn cluster_steering_alternates_with_cycle_parity() {
        let pick_domain = |cycle: u64| {
            let mut ctx = IssueCtx::new(
                cycle,
                2,
                vec![cand(0, UnitType::Int)],
                [true; NUM_DOMAINS],
                [0; 4],
                64,
            );
            assert!(ctx.try_issue(0));
            let (_, domain) = ctx.issue_order().next().unwrap();
            domain
        };
        assert_eq!(pick_domain(0), DomainId::INT0);
        assert_eq!(pick_domain(1), DomainId::INT1);
        assert_eq!(pick_domain(2), DomainId::INT0);
    }

    #[test]
    fn ready_count_decreases_as_candidates_issue() {
        let mut ctx = ctx_with(vec![cand(0, UnitType::Int), cand(1, UnitType::Int)]);
        assert_eq!(ctx.ready_count(UnitType::Int), 2);
        assert!(ctx.try_issue(0));
        assert_eq!(ctx.ready_count(UnitType::Int), 1);
    }

    #[test]
    fn double_issue_of_same_candidate_fails() {
        let mut ctx = ctx_with(vec![cand(0, UnitType::Sfu)]);
        assert!(ctx.try_issue(0));
        assert!(!ctx.try_issue(0));
        assert!(ctx.is_issued(0));
    }

    #[test]
    #[should_panic(expected = "slot 3 holds no ready warp")]
    fn issuing_a_slot_without_a_ready_warp_panics() {
        let mut ctx = ctx_with(vec![cand(2, UnitType::Int), cand(4, UnitType::Fp)]);
        let _ = ctx.try_issue(3);
    }

    #[test]
    #[should_panic(expected = "slot 128 holds no ready warp")]
    fn issuing_past_the_top_slot_panics() {
        let mut ctx = ctx_with(vec![cand(127, UnitType::Int)]);
        let _ = ctx.try_issue(128);
    }

    #[test]
    fn ready_bitmaps_are_keyed_by_slot_and_unit() {
        let mut ctx = ctx_with(vec![
            cand(1, UnitType::Int),
            cand(6, UnitType::Fp),
            cand(127, UnitType::Int),
        ]);
        assert_eq!(ctx.ready(), 1 << 1 | 1 << 6 | 1 << 127);
        assert_eq!(ctx.ready_of(UnitType::Int), 1 << 1 | 1 << 127);
        assert_eq!(ctx.ready_of(UnitType::Fp), 1 << 6);
        assert!(ctx.try_issue(127));
        assert_eq!(ctx.issued(), 1 << 127);
        assert!(ctx.is_issued(127) && !ctx.is_issued(1) && !ctx.is_issued(200));
    }

    #[test]
    fn clearing_a_slot_restores_the_tally() {
        let mut ctx = ctx_with(vec![cand(3, UnitType::Ldst)]);
        ctx.clear_ready(3);
        ctx.clear_ready(3);
        ctx.clear_ready(9);
        assert_eq!(ctx.ready(), 0);
        ctx.set_ready(3, UnitType::Fp, false);
        ctx.reset_for_cycle(0, DomainLayout::fermi().mask(), [0; 4], 0);
        assert_eq!(ctx.ready_count(UnitType::Ldst), 0);
        assert_eq!(ctx.ready_count(UnitType::Fp), 1);
    }

    #[test]
    fn round_robin_wraps_at_every_pointer() {
        let bits = 1u128 | 1 << 5 | 1 << 64 | 1 << 127;
        let walk = |from| round_robin(bits, from).collect::<Vec<_>>();
        assert_eq!(walk(0), [0, 5, 64, 127]);
        assert_eq!(walk(6), [64, 127, 0, 5]);
        assert_eq!(walk(127), [127, 0, 5, 64]);
        assert_eq!(walk(128), [0, 5, 64, 127]);
        assert_eq!(round_robin(0, 17).next(), None);
        assert_eq!(round_robin(u128::MAX, 128).count(), 128);
    }
}
