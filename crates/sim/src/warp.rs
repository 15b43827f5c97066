//! Warp state and identifiers.

use crate::{DecodedProgram, Scoreboard};
use std::fmt;
use warped_isa::{Kernel, KernelCursor, UnitType};

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

/// Issue-relevant decode of an instruction, kept in the
/// [`DecodedProgram`] so indexing a ready warp does not re-derive unit
/// class and load-ness from the opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NextMeta {
    /// The execution unit the instruction needs.
    pub unit: UnitType,
    /// Whether it is a global load (needs an MSHR slot).
    pub is_global_load: bool,
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
    /// The I-buffer entry: the [`DecodedProgram`] index of the
    /// instruction at the cursor (`None` once the program is issued).
    /// Always refresh through [`Warp::refresh_next`].
    pub next: Option<u32>,
    /// Current scheduler classification (refreshed each cycle).
    pub class: WarpClass,
    /// Whether `class` (or the finished test) may be stale: set at
    /// launch and whenever an issue, a completion event, or a barrier
    /// release mutates the inputs the classification is computed from.
    /// The classification is a pure function of `next` and the
    /// scoreboard, so while `dirty` is false the cached `class` is
    /// exactly what [`Warp::classify`] would recompute.
    pub dirty: bool,
}

impl Warp {
    pub(crate) fn launch(id: WarpId, kernel: &Kernel, program: &DecodedProgram) -> Self {
        let cursor = kernel.cursor();
        let next = program.index_of(&cursor);
        Warp {
            id,
            cursor,
            scoreboard: Scoreboard::new(),
            in_flight: 0,
            next,
            class: WarpClass::Ready,
            dirty: true,
        }
    }

    /// Re-points the I-buffer entry at the cursor's current position.
    pub(crate) fn refresh_next(&mut self, program: &DecodedProgram) {
        self.next = program.index_of(&self.cursor);
    }

    /// The decoded issue metadata of the next instruction.
    pub(crate) fn next_meta(&self, program: &DecodedProgram) -> Option<NextMeta> {
        self.next.map(|i| program.get(i).meta)
    }

    /// Whether the warp has issued its entire program and drained all
    /// in-flight instructions.
    pub(crate) fn is_finished(&self) -> bool {
        self.next.is_none() && self.in_flight == 0
    }

    /// The classification the current I-buffer entry and scoreboard
    /// give: two masked ANDs of the entry's register footprint against
    /// the pending registers.
    pub(crate) fn classify(&self, program: &DecodedProgram) -> WarpClass {
        let Some(i) = self.next else {
            return WarpClass::Draining;
        };
        let d = program.get(i);
        if d.is_barrier {
            WarpClass::Barrier
        } else if self.scoreboard.is_ready_for(&d.touched) {
            WarpClass::Ready
        } else if self.scoreboard.waits_on_long_for(&d.touched) {
            WarpClass::Pending
        } else {
            WarpClass::ActiveWaiting
        }
    }

    /// Reclassifies the warp for this cycle.
    pub(crate) fn reclassify(&mut self, program: &DecodedProgram) {
        self.class = self.classify(program);
    }
}

impl WarpClass {
    /// Whether the class is in the *active* set (ready or waiting on a
    /// short dependence).
    pub(crate) fn in_active_set(self) -> bool {
        matches!(self, WarpClass::Ready | WarpClass::ActiveWaiting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_isa::KernelBuilder;

    fn launch(k: &Kernel) -> (Warp, DecodedProgram) {
        let program = DecodedProgram::new(k);
        (Warp::launch(WarpId(0), k, &program), program)
    }

    #[test]
    fn launch_decodes_first_instruction() {
        let k = KernelBuilder::new("k").iadd(1, 0, 0).build();
        let (w, _) = launch(&k);
        assert_eq!(w.next, Some(0));
        assert!(!w.is_finished());
    }

    #[test]
    fn classification_follows_scoreboard() {
        let k = KernelBuilder::new("k").load_global(1).iadd(2, 1, 1).build();
        let (mut w, p) = launch(&k);
        w.reclassify(&p);
        assert_eq!(w.class, WarpClass::Ready);

        // Issue the load: consumer now waits on a long producer.
        let load = *p.get(w.next.unwrap()).instr();
        w.scoreboard.record_issue(&load);
        w.cursor.advance(&k);
        w.refresh_next(&p);
        w.in_flight = 1;
        w.reclassify(&p);
        assert_eq!(w.class, WarpClass::Pending);
        assert!(!w.class.in_active_set());

        // Data returns.
        w.scoreboard.release(warped_isa::Reg::new(1));
        w.in_flight = 0;
        w.reclassify(&p);
        assert_eq!(w.class, WarpClass::Ready);
        assert!(w.class.in_active_set());
    }

    #[test]
    fn finished_warp_is_draining_then_done() {
        let k = KernelBuilder::new("k").iadd(1, 0, 0).build();
        let (mut w, p) = launch(&k);
        let i = *p.get(w.next.unwrap()).instr();
        w.scoreboard.record_issue(&i);
        w.cursor.advance(&k);
        w.refresh_next(&p);
        w.in_flight = 1;
        w.reclassify(&p);
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
        let (mut w, p) = launch(&k);
        let m = w.next_meta(&p).unwrap();
        assert_eq!(m.unit, UnitType::Ldst);
        assert!(m.is_global_load);
        w.cursor.advance(&k);
        w.refresh_next(&p);
        let m = w.next_meta(&p).unwrap();
        assert_eq!(m.unit, UnitType::Int);
        assert!(!m.is_global_load);
        w.cursor.advance(&k);
        w.refresh_next(&p);
        assert!(w.next_meta(&p).is_none());
        assert!(w.next.is_none());
    }

    #[test]
    fn ids_display_compactly() {
        assert_eq!(WarpId(3).to_string(), "w3");
        assert_eq!(WarpSlot(7).to_string(), "slot7");
    }
}
