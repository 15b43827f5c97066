//! Warp state and identifiers.

use crate::Scoreboard;
use std::fmt;
use warped_isa::{Instruction, Kernel, KernelCursor, UnitType};

/// Globally unique warp identifier within one simulation (counts launched
/// warps, across re-used slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WarpId(pub u32);

impl fmt::Display for WarpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Index of a resident-warp slot on the SM (`0..max_resident_warps`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WarpSlot(pub usize);

impl fmt::Display for WarpSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}", self.0)
    }
}

/// Classification of a resident warp with respect to the two-level
/// scheduler, recomputed every cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpClass {
    /// In the active set and the next instruction's operands are ready.
    Ready,
    /// In the active set but waiting on a short-latency dependence.
    ActiveWaiting,
    /// Parked in the pending set (waiting on a long-latency load).
    Pending,
    /// Stopped at a block-wide barrier, waiting for the rest of the
    /// thread block to arrive.
    Barrier,
    /// All dynamic instructions issued; waiting for in-flight ones to
    /// drain (treated as out of both sets).
    Draining,
}

/// Issue-relevant decode of a warp's next instruction, cached alongside
/// the I-buffer entry so indexing a ready warp does not re-derive unit
/// class and load-ness from the opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NextMeta {
    /// The execution unit the instruction needs.
    pub unit: UnitType,
    /// Whether it is a global load (needs an MSHR slot).
    pub is_global_load: bool,
}

impl NextMeta {
    fn of(instr: &Instruction) -> Self {
        NextMeta {
            unit: instr.unit(),
            is_global_load: instr.opcode().is_long_latency_load(),
        }
    }
}

/// One resident warp's microarchitectural state.
#[derive(Debug, Clone)]
pub(crate) struct Warp {
    /// Unique id of the warp occupying this slot.
    pub id: WarpId,
    /// Program counter over the kernel.
    pub cursor: KernelCursor,
    /// Register scoreboard.
    pub scoreboard: Scoreboard,
    /// In-flight instructions issued by this warp but not yet retired.
    pub in_flight: u32,
    /// Cached decoded next instruction (the I-buffer entry). Always
    /// refresh through [`Warp::refresh_next`] so `next_meta` stays in
    /// step.
    pub next_instr: Option<Instruction>,
    /// Cached issue metadata of `next_instr`.
    pub next_meta: Option<NextMeta>,
    /// Current scheduler classification (refreshed each cycle).
    pub class: WarpClass,
    /// Whether `class` (or the finished test) may be stale: set at
    /// launch and whenever an issue, a completion event, or a barrier
    /// release mutates the inputs the classification is computed from.
    /// The classification is a pure function of `next_instr` and the
    /// scoreboard, so while `dirty` is false the cached `class` is
    /// exactly what [`Warp::reclassify`] would recompute.
    pub dirty: bool,
}

impl Warp {
    pub(crate) fn launch(id: WarpId, kernel: &Kernel) -> Self {
        let cursor = kernel.cursor();
        let next_instr = cursor.peek(kernel);
        let next_meta = next_instr.as_ref().map(NextMeta::of);
        Warp {
            id,
            cursor,
            scoreboard: Scoreboard::new(),
            in_flight: 0,
            next_instr,
            next_meta,
            class: WarpClass::Ready,
            dirty: true,
        }
    }

    /// Re-fills the I-buffer entry (and its cached decode) from the
    /// cursor's current position.
    pub(crate) fn refresh_next(&mut self, kernel: &Kernel) {
        self.next_instr = self.cursor.peek(kernel);
        self.next_meta = self.next_instr.as_ref().map(NextMeta::of);
    }

    /// Whether the warp has issued its entire program and drained all
    /// in-flight instructions.
    pub(crate) fn is_finished(&self) -> bool {
        self.next_instr.is_none() && self.in_flight == 0
    }

    /// Reclassifies the warp for this cycle.
    pub(crate) fn reclassify(&mut self) {
        self.class = match &self.next_instr {
            None => WarpClass::Draining,
            Some(i) => {
                if i.is_barrier() {
                    WarpClass::Barrier
                } else if self.scoreboard.is_ready(i) {
                    WarpClass::Ready
                } else if self.scoreboard.waits_on_long(i) {
                    WarpClass::Pending
                } else {
                    WarpClass::ActiveWaiting
                }
            }
        };
    }

    /// Whether the warp currently sits in the *active* set (ready or
    /// waiting on a short dependence).
    pub(crate) fn in_active_set(&self) -> bool {
        matches!(self.class, WarpClass::Ready | WarpClass::ActiveWaiting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_isa::KernelBuilder;

    #[test]
    fn launch_decodes_first_instruction() {
        let k = KernelBuilder::new("k").iadd(1, 0, 0).build();
        let w = Warp::launch(WarpId(0), &k);
        assert!(w.next_instr.is_some());
        assert!(!w.is_finished());
    }

    #[test]
    fn classification_follows_scoreboard() {
        let k = KernelBuilder::new("k").load_global(1).iadd(2, 1, 1).build();
        let mut w = Warp::launch(WarpId(0), &k);
        w.reclassify();
        assert_eq!(w.class, WarpClass::Ready);

        // Issue the load: consumer now waits on a long producer.
        let load = w.next_instr.unwrap();
        w.scoreboard.record_issue(&load);
        w.cursor.advance(&k);
        w.refresh_next(&k);
        w.in_flight = 1;
        w.reclassify();
        assert_eq!(w.class, WarpClass::Pending);
        assert!(!w.in_active_set());

        // Data returns.
        w.scoreboard.release(warped_isa::Reg::new(1));
        w.in_flight = 0;
        w.reclassify();
        assert_eq!(w.class, WarpClass::Ready);
        assert!(w.in_active_set());
    }

    #[test]
    fn finished_warp_is_draining_then_done() {
        let k = KernelBuilder::new("k").iadd(1, 0, 0).build();
        let mut w = Warp::launch(WarpId(0), &k);
        let i = w.next_instr.unwrap();
        w.scoreboard.record_issue(&i);
        w.cursor.advance(&k);
        w.refresh_next(&k);
        w.in_flight = 1;
        w.reclassify();
        assert_eq!(w.class, WarpClass::Draining);
        assert!(!w.is_finished(), "still has an instruction in flight");
        w.in_flight = 0;
        assert!(w.is_finished());
    }

    #[test]
    fn next_meta_tracks_the_cursor() {
        let k = KernelBuilder::new("meta")
            .load_global(1)
            .iadd(2, 1, 1)
            .build();
        let mut w = Warp::launch(WarpId(0), &k);
        let m = w.next_meta.unwrap();
        assert_eq!(m.unit, UnitType::Ldst);
        assert!(m.is_global_load);
        w.cursor.advance(&k);
        w.refresh_next(&k);
        let m = w.next_meta.unwrap();
        assert_eq!(m.unit, UnitType::Int);
        assert!(!m.is_global_load);
        w.cursor.advance(&k);
        w.refresh_next(&k);
        assert!(w.next_meta.is_none());
        assert!(w.next_instr.is_none());
    }

    #[test]
    fn ids_display_compactly() {
        assert_eq!(WarpId(3).to_string(), "w3");
        assert_eq!(WarpSlot(7).to_string(), "slot7");
    }
}
