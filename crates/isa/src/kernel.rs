//! Kernels: straight-line code and structured loops, plus a cursor that
//! walks a kernel in dynamic execution order.

use crate::{Instruction, InstructionMix, UnitType};
use std::fmt;

/// A structural element of a kernel body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// Straight-line code executed exactly once per kernel execution.
    Straight(Vec<Instruction>),
    /// A counted loop: `body` executes `trips` times.
    ///
    /// Loops let synthetic workloads run for hundreds of thousands of
    /// dynamic instructions while keeping the static kernel small.
    Loop {
        /// Instructions in the loop body.
        body: Vec<Instruction>,
        /// Number of iterations (must be at least 1).
        trips: u32,
    },
}

impl Segment {
    fn static_len(&self) -> usize {
        match self {
            Segment::Straight(v) => v.len(),
            Segment::Loop { body, .. } => body.len(),
        }
    }

    fn dynamic_len(&self) -> u64 {
        match self {
            Segment::Straight(v) => v.len() as u64,
            Segment::Loop { body, trips } => body.len() as u64 * u64::from(*trips),
        }
    }
}

/// A kernel: a named sequence of [`Segment`]s executed by every warp.
///
/// All warps run the same kernel (the SIMT model); per-warp timing diverges
/// only through scheduling and the memory system.
///
/// # Examples
///
/// ```
/// use warped_isa::{KernelBuilder, UnitType};
///
/// let k = KernelBuilder::new("demo")
///     .iadd(1, 0, 0)
///     .begin_loop(10)
///     .fadd(2, 1, 2)
///     .end_loop()
///     .build();
/// assert_eq!(k.dynamic_len(), 1 + 10);
/// assert!(k.mix().fraction(UnitType::Fp) > 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    name: String,
    segments: Vec<Segment>,
    static_len: usize,
    dynamic_len: u64,
}

impl Kernel {
    /// Creates a kernel from raw segments.
    ///
    /// # Panics
    ///
    /// Panics if any segment is empty, if any loop has zero trips, or if
    /// the kernel contains no instructions at all.
    #[must_use]
    pub fn new(name: impl Into<String>, segments: Vec<Segment>) -> Self {
        for s in &segments {
            match s {
                Segment::Straight(v) => {
                    assert!(!v.is_empty(), "straight segment must not be empty")
                }
                Segment::Loop { body, trips } => {
                    assert!(*trips >= 1, "loop trips must be >= 1");
                    assert!(!body.is_empty(), "loop body must not be empty");
                }
            }
        }
        let static_len = segments.iter().map(Segment::static_len).sum();
        let dynamic_len = segments.iter().map(Segment::dynamic_len).sum();
        assert!(
            static_len > 0,
            "kernel must contain at least one instruction"
        );
        Kernel {
            name: name.into(),
            segments,
            static_len,
            dynamic_len,
        }
    }

    /// Kernel name (used in reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The structural segments of the kernel body.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of *static* instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.static_len
    }

    /// Whether the kernel has no instructions (never true for a
    /// constructed kernel, provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.static_len == 0
    }

    /// Number of *dynamic* instructions one warp executes.
    #[must_use]
    pub fn dynamic_len(&self) -> u64 {
        self.dynamic_len
    }

    /// Returns the `idx`-th static instruction, in segment order.
    #[must_use]
    pub fn instruction(&self, idx: usize) -> Option<Instruction> {
        let mut remaining = idx;
        for seg in &self.segments {
            let body = match seg {
                Segment::Straight(v) => v,
                Segment::Loop { body, .. } => body,
            };
            if remaining < body.len() {
                return Some(body[remaining]);
            }
            remaining -= body.len();
        }
        None
    }

    /// Iterates over static instructions in segment order.
    pub fn iter(&self) -> impl Iterator<Item = Instruction> + '_ {
        self.segments.iter().flat_map(|s| match s {
            Segment::Straight(v) => v.iter().copied(),
            Segment::Loop { body, .. } => body.iter().copied(),
        })
    }

    /// The *dynamic* instruction mix (loop bodies weighted by trip
    /// count). Barriers are synchronisation, not execution, and are
    /// excluded.
    #[must_use]
    pub fn mix(&self) -> InstructionMix {
        let mut counts = [0u64; 4];
        for seg in &self.segments {
            let (body, weight) = match seg {
                Segment::Straight(v) => (v, 1u64),
                Segment::Loop { body, trips } => (body, u64::from(*trips)),
            };
            for i in body {
                if !i.is_barrier() {
                    counts[i.unit().index()] += weight;
                }
            }
        }
        InstructionMix::from_counts(counts)
    }

    /// Number of dynamic instructions that occupy an execution unit
    /// (i.e. [`Kernel::dynamic_len`] minus barriers).
    #[must_use]
    pub fn dynamic_executable_len(&self) -> u64 {
        let mut n = 0;
        for seg in &self.segments {
            let (body, weight) = match seg {
                Segment::Straight(v) => (v, 1u64),
                Segment::Loop { body, trips } => (body, u64::from(*trips)),
            };
            n += weight * body.iter().filter(|i| !i.is_barrier()).count() as u64;
        }
        n
    }

    /// Total dynamic instructions of a given unit type.
    #[must_use]
    pub fn dynamic_count(&self, unit: UnitType) -> u64 {
        let mut n = 0;
        for seg in &self.segments {
            let (body, weight) = match seg {
                Segment::Straight(v) => (v, 1u64),
                Segment::Loop { body, trips } => (body, u64::from(*trips)),
            };
            n += weight
                * body
                    .iter()
                    .filter(|i| !i.is_barrier() && i.unit() == unit)
                    .count() as u64;
        }
        n
    }

    /// Creates a cursor positioned at the first dynamic instruction.
    #[must_use]
    pub fn cursor(&self) -> KernelCursor {
        KernelCursor::new(self)
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel {} ({} static / {} dynamic):",
            self.name, self.static_len, self.dynamic_len
        )?;
        for seg in &self.segments {
            match seg {
                Segment::Straight(v) => {
                    for i in v {
                        writeln!(f, "  {i}")?;
                    }
                }
                Segment::Loop { body, trips } => {
                    writeln!(f, "  loop x{trips} {{")?;
                    for i in body {
                        writeln!(f, "    {i}")?;
                    }
                    writeln!(f, "  }}")?;
                }
            }
        }
        Ok(())
    }
}

/// A lightweight per-warp program counter over a [`Kernel`].
///
/// The cursor yields instructions in dynamic order, re-walking loop bodies
/// `trips` times, without materialising the unrolled program. Cloning a
/// cursor is cheap, so each warp owns one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelCursor {
    segment: usize,
    offset: usize,
    trips_left: u32,
    executed: u64,
}

impl KernelCursor {
    fn new(kernel: &Kernel) -> Self {
        let mut c = KernelCursor {
            segment: 0,
            offset: 0,
            trips_left: 0,
            executed: 0,
        };
        c.sync_trips(kernel);
        c
    }

    fn sync_trips(&mut self, kernel: &Kernel) {
        if let Some(Segment::Loop { trips, .. }) = kernel.segments().get(self.segment) {
            if self.offset == 0 && self.trips_left == 0 {
                self.trips_left = *trips;
            }
        }
    }

    /// The instruction the cursor currently points at, or `None` when the
    /// warp has retired its whole program.
    #[must_use]
    pub fn peek(&self, kernel: &Kernel) -> Option<Instruction> {
        let seg = kernel.segments().get(self.segment)?;
        let body = match seg {
            Segment::Straight(v) => v,
            Segment::Loop { body, .. } => body,
        };
        body.get(self.offset).copied()
    }

    /// A stable identifier of the current *static* instruction, usable as a
    /// pseudo program counter (e.g. for hashing memory access latencies).
    #[must_use]
    pub fn pc(&self) -> u64 {
        ((self.segment as u64) << 32) | self.offset as u64
    }

    /// Number of dynamic instructions already stepped past.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Whether the warp has executed its entire program.
    #[must_use]
    pub fn is_done(&self, kernel: &Kernel) -> bool {
        self.segment >= kernel.segments().len()
    }

    /// Advances past the current instruction.
    ///
    /// Does nothing when the program is already done.
    pub fn advance(&mut self, kernel: &Kernel) {
        let Some(seg) = kernel.segments().get(self.segment) else {
            return;
        };
        self.executed += 1;
        match seg {
            Segment::Straight(v) => {
                self.offset += 1;
                if self.offset >= v.len() {
                    self.segment += 1;
                    self.offset = 0;
                    self.sync_trips(kernel);
                }
            }
            Segment::Loop { body, .. } => {
                self.offset += 1;
                if self.offset >= body.len() {
                    self.offset = 0;
                    self.trips_left -= 1;
                    if self.trips_left == 0 {
                        self.segment += 1;
                        self.sync_trips(kernel);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Instruction, MemSpace, Opcode, Reg};

    fn ialu(d: u16, s: u16) -> Instruction {
        Instruction::new(Opcode::IAlu, Some(Reg::new(d)), &[Reg::new(s)])
    }

    fn falu(d: u16, s: u16) -> Instruction {
        Instruction::new(Opcode::FAlu, Some(Reg::new(d)), &[Reg::new(s)])
    }

    fn sample() -> Kernel {
        Kernel::new(
            "k",
            vec![
                Segment::Straight(vec![ialu(1, 0), falu(2, 1)]),
                Segment::Loop {
                    body: vec![ialu(3, 2), falu(4, 3), ialu(5, 4)],
                    trips: 4,
                },
                Segment::Straight(vec![Instruction::new(
                    Opcode::Store(MemSpace::Global),
                    None,
                    &[Reg::new(5)],
                )]),
            ],
        )
    }

    #[test]
    fn lengths_account_for_loop_trips() {
        let k = sample();
        assert_eq!(k.len(), 6);
        assert_eq!(k.dynamic_len(), 2 + 3 * 4 + 1);
    }

    #[test]
    fn cursor_walks_dynamic_order() {
        let k = sample();
        let mut c = k.cursor();
        let mut seen = Vec::new();
        while let Some(i) = c.peek(&k) {
            seen.push(i.opcode().mnemonic());
            c.advance(&k);
        }
        assert_eq!(seen.len() as u64, k.dynamic_len());
        assert!(c.is_done(&k));
        assert_eq!(c.executed(), k.dynamic_len());
        // Loop body repeats: positions 2..5, 5..8, ... all start with iadd.
        assert_eq!(seen[2], "iadd");
        assert_eq!(seen[5], "iadd");
        assert_eq!(seen[8], "iadd");
        assert_eq!(*seen.last().unwrap(), "stg");
    }

    #[test]
    fn cursor_pc_is_stable_across_iterations() {
        let k = sample();
        let mut c = k.cursor();
        c.advance(&k);
        c.advance(&k); // first loop instruction
        let pc_first_iter = c.pc();
        for _ in 0..3 {
            c.advance(&k);
        }
        assert_eq!(c.pc(), pc_first_iter, "same static pc on second trip");
    }

    #[test]
    fn advance_past_end_is_a_no_op() {
        let k = Kernel::new("k", vec![Segment::Straight(vec![ialu(1, 0)])]);
        let mut c = k.cursor();
        c.advance(&k);
        assert!(c.is_done(&k));
        let before = c.clone();
        c.advance(&k);
        assert_eq!(c, before);
    }

    #[test]
    fn mix_weights_loops_by_trip_count() {
        let k = sample();
        let mix = k.mix();
        // Dynamic: INT = 1 + 2*4 = 9, FP = 1 + 4 = 5, LDST = 1; total 15.
        assert!((mix.fraction(UnitType::Int) - 9.0 / 15.0).abs() < 1e-12);
        assert!((mix.fraction(UnitType::Fp) - 5.0 / 15.0).abs() < 1e-12);
        assert!((mix.fraction(UnitType::Ldst) - 1.0 / 15.0).abs() < 1e-12);
        assert_eq!(k.dynamic_count(UnitType::Int), 9);
    }

    #[test]
    fn instruction_indexing_spans_segments() {
        let k = sample();
        assert_eq!(k.instruction(0).unwrap().opcode(), Opcode::IAlu);
        assert_eq!(k.instruction(2).unwrap().opcode(), Opcode::IAlu);
        assert_eq!(
            k.instruction(5).unwrap().opcode(),
            Opcode::Store(MemSpace::Global)
        );
        assert_eq!(k.instruction(6), None);
    }

    #[test]
    #[should_panic(expected = "trips must be >= 1")]
    fn zero_trip_loop_is_rejected() {
        let _ = Kernel::new(
            "bad",
            vec![Segment::Loop {
                body: vec![ialu(1, 0)],
                trips: 0,
            }],
        );
    }

    #[test]
    #[should_panic(expected = "straight segment must not be empty")]
    fn empty_straight_segment_is_rejected() {
        // A cursor stops at an empty segment, so the kernel would yield
        // fewer instructions than `dynamic_len()` promises.
        let _ = Kernel::new(
            "gap",
            vec![
                Segment::Straight(vec![]),
                Segment::Straight(vec![ialu(1, 0)]),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn empty_kernel_is_rejected() {
        let _ = Kernel::new("bad", vec![]);
    }
}
