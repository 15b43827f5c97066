//! The decoded program: every static instruction of a kernel decoded
//! once per run.
//!
//! Warps advance through the same few static instructions millions of
//! times, so [`Sm::new`](crate::Sm::new) decodes each one once (unit,
//! load-ness, register footprint): a warp holds an index into the
//! table, refreshing its next instruction is a lookup, and the
//! scoreboard tests one precomputed register mask.

use crate::scoreboard::RegMask;
use crate::warp::NextMeta;
use warped_isa::{Instruction, Kernel, KernelCursor, Reg, Segment, UnitType};

/// One decoded static instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedInstr {
    instr: Instruction,
    pub(crate) meta: NextMeta,
    /// The registers the instruction reads or writes.
    pub(crate) touched: RegMask,
    pub(crate) is_barrier: bool,
}

impl DecodedInstr {
    fn new(instr: Instruction) -> Self {
        DecodedInstr {
            instr,
            meta: NextMeta {
                unit: instr.unit(),
                is_global_load: instr.opcode().is_long_latency_load(),
            },
            touched: RegMask::touched_by(&instr),
            is_barrier: instr.is_barrier(),
        }
    }

    /// The instruction itself.
    #[must_use]
    pub fn instr(&self) -> &Instruction {
        &self.instr
    }

    /// The execution unit the instruction needs.
    #[must_use]
    pub fn unit(&self) -> UnitType {
        self.meta.unit
    }

    /// Whether the instruction is a global load (needs an MSHR slot).
    #[must_use]
    pub fn is_global_load(&self) -> bool {
        self.meta.is_global_load
    }

    /// Whether `reg` is one of the instruction's sources or its
    /// destination (the registers its readiness test checks).
    #[must_use]
    pub fn touches(&self, reg: Reg) -> bool {
        self.touched.contains(reg)
    }
}

/// A kernel's static instructions, decoded once, in segment order.
///
/// # Examples
///
/// ```
/// use warped_isa::KernelBuilder;
/// use warped_sim::DecodedProgram;
///
/// let k = KernelBuilder::new("k").begin_loop(3).iadd(1, 0, 0).end_loop().build();
/// let program = DecodedProgram::new(&k);
/// let mut cursor = k.cursor();
/// while let Some(instr) = cursor.peek(&k) {
///     assert_eq!(program.at(&cursor).map(|d| *d.instr()), Some(instr));
///     cursor.advance(&k);
/// }
/// assert!(program.at(&cursor).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    entries: Vec<DecodedInstr>,
    /// Per segment: the index of its first entry and its static length.
    segments: Vec<(u32, u32)>,
}

impl DecodedProgram {
    /// Decodes every static instruction of `kernel`.
    #[must_use]
    pub fn new(kernel: &Kernel) -> Self {
        let mut entries = Vec::with_capacity(kernel.len());
        let mut segments = Vec::with_capacity(kernel.segments().len());
        for seg in kernel.segments() {
            let body = match seg {
                Segment::Straight(v) => v,
                Segment::Loop { body, .. } => body,
            };
            let base = u32::try_from(entries.len()).expect("kernel fits a u32 index");
            let len = u32::try_from(body.len()).expect("segment fits a u32 index");
            segments.push((base, len));
            entries.extend(body.iter().copied().map(DecodedInstr::new));
        }
        DecodedProgram { entries, segments }
    }

    /// The table index of the instruction `cursor` points at, or `None`
    /// where [`KernelCursor::peek`] returns `None`.
    #[must_use]
    pub fn index_of(&self, cursor: &KernelCursor) -> Option<u32> {
        let pc = cursor.pc();
        let &(base, len) = self.segments.get((pc >> 32) as usize)?;
        let offset = pc as u32;
        (offset < len).then_some(base + offset)
    }

    /// The decoded instruction `cursor` points at.
    #[must_use]
    pub fn at(&self, cursor: &KernelCursor) -> Option<&DecodedInstr> {
        self.index_of(cursor).map(|i| self.get(i))
    }

    /// The entry at table index `index` (from [`DecodedProgram::index_of`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn get(&self, index: u32) -> &DecodedInstr {
        &self.entries[index as usize]
    }
}
