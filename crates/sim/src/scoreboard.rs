//! Per-warp register scoreboard.
//!
//! The scoreboard tracks registers with in-flight writers. Producers are
//! classified as *short* (ALU/SFU/shared-memory pipelines) or *long*
//! (global loads): the two-level scheduler parks a warp in the pending set
//! only when its next instruction waits on a **long** producer.

use warped_isa::{Instruction, Reg, NUM_REGS};

const WORDS: usize = (NUM_REGS as usize).div_ceil(64);

/// A fixed-width bitset over architectural registers: the scoreboard's
/// pending sets, and the register footprint the decoded program keeps
/// per static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RegMask {
    words: [u64; WORDS],
}

impl RegMask {
    /// The registers `instr` reads or writes: its sources and its
    /// destination, the set a scoreboard test checks for hazards.
    pub(crate) fn touched_by(instr: &Instruction) -> Self {
        let mut m = RegMask::default();
        for r in instr.sources().chain(instr.destination()) {
            m.set(r);
        }
        m
    }

    fn set(&mut self, r: Reg) {
        let i = r.index() as usize;
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, r: Reg) {
        let i = r.index() as usize;
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub(crate) fn contains(&self, r: Reg) -> bool {
        let i = r.index() as usize;
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Whether `self` and `other` share a register (one AND per word,
    /// folded before the single test).
    fn meets(&self, other: &RegMask) -> bool {
        let mut hit = 0;
        for (a, b) in self.words.iter().zip(&other.words) {
            hit |= a & b;
        }
        hit != 0
    }

    fn union(&self, other: &RegMask) -> RegMask {
        let mut m = *self;
        for (a, b) in m.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        m
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }
}

/// The scoreboard of one warp.
///
/// # Examples
///
/// ```
/// use warped_isa::{Instruction, Opcode, Reg};
/// use warped_sim::Scoreboard;
///
/// let mut sb = Scoreboard::new();
/// let producer = Instruction::new(Opcode::IAlu, Some(Reg::new(5)), &[]);
/// let consumer = Instruction::new(Opcode::IAlu, Some(Reg::new(6)), &[Reg::new(5)]);
///
/// sb.record_issue(&producer);
/// assert!(!sb.is_ready(&consumer));
/// sb.release(Reg::new(5));
/// assert!(sb.is_ready(&consumer));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scoreboard {
    pending_short: RegMask,
    pending_long: RegMask,
}

impl Scoreboard {
    /// Creates an empty scoreboard (no in-flight writes).
    #[must_use]
    pub fn new() -> Self {
        Scoreboard::default()
    }

    /// Whether `instr` can issue: no source is pending and its destination
    /// has no in-flight writer (WAW protection).
    #[must_use]
    pub fn is_ready(&self, instr: &Instruction) -> bool {
        self.is_ready_for(&RegMask::touched_by(instr))
    }

    /// Whether `instr` is blocked (directly) by a long-latency producer.
    ///
    /// This is the predicate that moves a warp from the active set to the
    /// pending set in the two-level scheduler.
    #[must_use]
    pub fn waits_on_long(&self, instr: &Instruction) -> bool {
        self.waits_on_long_for(&RegMask::touched_by(instr))
    }

    /// [`Scoreboard::is_ready`] for an instruction whose register
    /// footprint ([`RegMask::touched_by`]) is already decoded.
    pub(crate) fn is_ready_for(&self, touched: &RegMask) -> bool {
        !touched.meets(&self.pending_short.union(&self.pending_long))
    }

    /// [`Scoreboard::waits_on_long`] for a decoded register footprint.
    pub(crate) fn waits_on_long_for(&self, touched: &RegMask) -> bool {
        touched.meets(&self.pending_long)
    }

    /// Records the issue of `instr`: marks its destination pending.
    ///
    /// Long-latency loads are tracked separately from short producers.
    pub fn record_issue(&mut self, instr: &Instruction) {
        if let Some(d) = instr.destination() {
            if instr.opcode().is_long_latency_load() {
                self.pending_long.set(d);
            } else {
                self.pending_short.set(d);
            }
        }
    }

    /// Releases a completed write to `reg` (from either producer class).
    pub fn release(&mut self, reg: Reg) {
        self.pending_short.clear(reg);
        self.pending_long.clear(reg);
    }

    /// Whether any register write is still in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.pending_short.is_empty() && self.pending_long.is_empty()
    }

    /// Whether a specific register has an in-flight writer.
    #[must_use]
    pub fn is_pending(&self, reg: Reg) -> bool {
        self.pending_short.contains(reg) || self.pending_long.contains(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_isa::{MemSpace, Opcode};

    fn r(i: u16) -> Reg {
        Reg::new(i)
    }

    fn alu(dst: u16, srcs: &[u16]) -> Instruction {
        let srcs: Vec<Reg> = srcs.iter().map(|&i| r(i)).collect();
        Instruction::new(Opcode::IAlu, Some(r(dst)), &srcs)
    }

    fn ldg(dst: u16) -> Instruction {
        Instruction::new(Opcode::Load(MemSpace::Global), Some(r(dst)), &[])
    }

    #[test]
    fn fresh_scoreboard_is_ready_for_anything() {
        let sb = Scoreboard::new();
        assert!(sb.is_ready(&alu(1, &[2, 3])));
        assert!(sb.is_idle());
    }

    #[test]
    fn raw_dependency_blocks_until_release() {
        let mut sb = Scoreboard::new();
        sb.record_issue(&alu(5, &[]));
        assert!(!sb.is_ready(&alu(6, &[5])));
        assert!(!sb.waits_on_long(&alu(6, &[5])), "ALU producer is short");
        sb.release(r(5));
        assert!(sb.is_ready(&alu(6, &[5])));
    }

    #[test]
    fn waw_dependency_blocks() {
        let mut sb = Scoreboard::new();
        sb.record_issue(&alu(5, &[]));
        assert!(!sb.is_ready(&alu(5, &[1])), "WAW on r5 must stall");
    }

    #[test]
    fn long_producers_park_consumers_in_pending() {
        let mut sb = Scoreboard::new();
        sb.record_issue(&ldg(9));
        let consumer = alu(10, &[9]);
        assert!(!sb.is_ready(&consumer));
        assert!(sb.waits_on_long(&consumer));
        sb.release(r(9));
        assert!(sb.is_ready(&consumer));
        assert!(!sb.waits_on_long(&consumer));
    }

    #[test]
    fn waw_on_long_pending_register_counts_as_long_wait() {
        let mut sb = Scoreboard::new();
        sb.record_issue(&ldg(9));
        assert!(
            sb.waits_on_long(&ldg(9)),
            "overwriting an in-flight load dest waits"
        );
    }

    #[test]
    fn release_clears_both_classes() {
        let mut sb = Scoreboard::new();
        sb.record_issue(&ldg(1));
        sb.record_issue(&alu(2, &[]));
        assert!(sb.is_pending(r(1)));
        assert!(sb.is_pending(r(2)));
        sb.release(r(1));
        sb.release(r(2));
        assert!(sb.is_idle());
    }

    #[test]
    fn stores_do_not_mark_anything_pending() {
        let mut sb = Scoreboard::new();
        let st = Instruction::new(Opcode::Store(MemSpace::Global), None, &[r(3)]);
        sb.record_issue(&st);
        assert!(sb.is_idle());
    }

    #[test]
    fn high_register_indices_work() {
        let mut sb = Scoreboard::new();
        sb.record_issue(&alu(255, &[]));
        assert!(sb.is_pending(r(255)));
        assert!(!sb.is_pending(r(254)));
    }
}
