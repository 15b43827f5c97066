//! Exactness oracles for the decode-once issue path: the scoreboard's
//! mask readiness against the per-register walk it replaced, the decoded
//! program against `KernelCursor::peek` over every benchmark kernel and
//! trace, and the fill-ordered L2 MSHR queue against the line × sector
//! scan it replaced.
//!
//! Cases are drawn from a seeded [`SplitMix64`] stream, so every run
//! explores the same inputs (no external property-testing dependency).

use std::path::Path;
use warped_gates_repro::isa::{Instruction, Kernel, MemSpace, Opcode, Reg, NUM_REGS};
use warped_gates_repro::mem::L2MshrFile;
use warped_gates_repro::sim::{DecodedProgram, Scoreboard};
use warped_gates_repro::workloads::rng::SplitMix64;
use warped_gates_repro::workloads::Benchmark;

/// The scoreboard as it was before mask readiness: two register bitsets
/// and a walk over each source and the destination, kept verbatim as
/// the oracle.
#[derive(Default)]
struct WalkScoreboard {
    pending_short: RegSet,
    pending_long: RegSet,
}

const WORDS: usize = (NUM_REGS as usize).div_ceil(64);

#[derive(Default)]
struct RegSet {
    words: [u64; WORDS],
}

impl RegSet {
    fn set(&mut self, r: Reg) {
        let i = r.index() as usize;
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, r: Reg) {
        let i = r.index() as usize;
        self.words[i / 64] &= !(1 << (i % 64));
    }

    fn contains(&self, r: Reg) -> bool {
        let i = r.index() as usize;
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }
}

impl WalkScoreboard {
    fn is_ready(&self, instr: &Instruction) -> bool {
        for s in instr.sources() {
            if self.pending_short.contains(s) || self.pending_long.contains(s) {
                return false;
            }
        }
        if let Some(d) = instr.destination() {
            if self.pending_short.contains(d) || self.pending_long.contains(d) {
                return false;
            }
        }
        true
    }

    fn waits_on_long(&self, instr: &Instruction) -> bool {
        for s in instr.sources() {
            if self.pending_long.contains(s) {
                return true;
            }
        }
        if let Some(d) = instr.destination() {
            if self.pending_long.contains(d) {
                return true;
            }
        }
        false
    }

    fn record_issue(&mut self, instr: &Instruction) {
        if let Some(d) = instr.destination() {
            if instr.opcode().is_long_latency_load() {
                self.pending_long.set(d);
            } else {
                self.pending_short.set(d);
            }
        }
    }

    fn release(&mut self, reg: Reg) {
        self.pending_short.clear(reg);
        self.pending_long.clear(reg);
    }

    fn is_idle(&self) -> bool {
        self.pending_short.is_empty() && self.pending_long.is_empty()
    }
}

/// A register from a small pool (so hazards are common) that always
/// includes both ends of the register file.
fn reg(rng: &mut SplitMix64) -> Reg {
    const POOL: [u16; 8] = [0, 1, 2, 3, 63, 64, 128, 255];
    if rng.chance(0.8) {
        Reg::new(POOL[rng.index(POOL.len())])
    } else {
        Reg::new(rng.below(u64::from(NUM_REGS)) as u16)
    }
}

/// A random instruction: ALU/FP/SFU with a destination, global and
/// shared loads, stores (no destination), with 0–3 sources.
fn instr(rng: &mut SplitMix64) -> Instruction {
    let op = match rng.index(7) {
        0 => Opcode::IAlu,
        1 => Opcode::FFma,
        2 => Opcode::Sfu,
        3 | 4 => Opcode::Load(MemSpace::Global),
        5 => Opcode::Load(MemSpace::Shared),
        _ => Opcode::Store(MemSpace::Global),
    };
    let srcs: Vec<Reg> = (0..rng.index(4)).map(|_| reg(rng)).collect();
    let dst = op.writes_register().then(|| reg(rng));
    Instruction::new(op, dst, &srcs)
}

#[test]
fn mask_readiness_matches_the_per_register_walk() {
    let mut rng = SplitMix64::new(0xdec0_0001);
    for _ in 0..200 {
        let mut sb = Scoreboard::new();
        let mut walk = WalkScoreboard::default();
        for _ in 0..60 {
            match rng.index(3) {
                0 | 1 => {
                    let i = instr(&mut rng);
                    sb.record_issue(&i);
                    walk.record_issue(&i);
                }
                _ => {
                    let r = reg(&mut rng);
                    sb.release(r);
                    walk.release(r);
                }
            }
            for _ in 0..8 {
                let q = instr(&mut rng);
                assert_eq!(sb.is_ready(&q), walk.is_ready(&q), "is_ready({q})");
                assert_eq!(
                    sb.waits_on_long(&q),
                    walk.waits_on_long(&q),
                    "waits_on_long({q})"
                );
            }
            assert_eq!(sb.is_idle(), walk.is_idle());
        }
    }
}

#[test]
fn waw_on_an_in_flight_load_is_a_long_wait_at_both_register_ends() {
    for r in [0, 255] {
        let load = Instruction::new(Opcode::Load(MemSpace::Global), Some(Reg::new(r)), &[]);
        let mut sb = Scoreboard::new();
        let mut walk = WalkScoreboard::default();
        sb.record_issue(&load);
        walk.record_issue(&load);
        assert!(!sb.is_ready(&load) && sb.waits_on_long(&load));
        assert_eq!(
            (sb.is_ready(&load), sb.waits_on_long(&load)),
            (walk.is_ready(&load), walk.waits_on_long(&load))
        );
        let store = Instruction::new(Opcode::Store(MemSpace::Global), None, &[Reg::new(r)]);
        assert!(sb.waits_on_long(&store) && walk.waits_on_long(&store));
    }
}

/// Walks `kernel` in dynamic order and checks the decoded entry at
/// every position against the cursor's own view; returns the number of
/// instructions the cursor yielded.
fn check_program(kernel: &Kernel) -> u64 {
    let program = DecodedProgram::new(kernel);
    let mut cursor = kernel.cursor();
    let mut steps = 0u64;
    loop {
        let peek = cursor.peek(kernel);
        let entry = program.at(&cursor);
        assert_eq!(
            entry.map(|d| *d.instr()),
            peek,
            "{} at pc {:#x}",
            kernel.name(),
            cursor.pc()
        );
        let Some(instr) = peek else { break };
        let d = entry.expect("entry present");
        assert_eq!(d.unit(), instr.unit());
        assert_eq!(d.is_global_load(), instr.opcode().is_long_latency_load());
        for r in 0..NUM_REGS {
            let r = Reg::new(r);
            let touched = instr.sources().any(|s| s == r) || instr.destination() == Some(r);
            assert_eq!(d.touches(r), touched, "{instr}: register {r}");
        }
        cursor.advance(kernel);
        steps += 1;
    }
    steps
}

#[test]
fn decoded_program_matches_the_cursor_on_every_benchmark_kernel() {
    for b in Benchmark::ALL {
        let kernel = b.spec().scaled(0.05).kernel();
        assert_eq!(check_program(&kernel), kernel.dynamic_len(), "{b:?}");
    }
}

#[test]
fn decoded_program_matches_the_cursor_on_every_trace() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("traces/ corpus")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "wgt1"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 6, "the corpus holds six traces");
    for p in paths {
        let bytes = std::fs::read(&p).expect("read trace");
        let w = warped_trace::parse_bytes(&bytes).expect("parse trace");
        assert_eq!(check_program(&w.kernel), w.kernel.dynamic_len(), "{p:?}");
    }
}

/// The L2 MSHR file as it was before the fill queue: a drain scans every
/// line × sector, kept verbatim as the oracle.
struct ScanL2 {
    lines: Vec<u64>,
    fills: Vec<u64>,
    capacity: usize,
    sectors: usize,
    next_due: u64,
}

impl ScanL2 {
    fn new(capacity: u32, sectors: u32) -> Self {
        ScanL2 {
            lines: Vec::with_capacity(capacity as usize),
            fills: vec![0; capacity as usize * sectors as usize],
            capacity: capacity as usize,
            sectors: sectors as usize,
            next_due: u64::MAX,
        }
    }

    fn slot(&self, l2_line: u64) -> Option<usize> {
        self.lines.iter().position(|&l| l == l2_line)
    }

    fn sector_fill(&self, l2_line: u64, sector: u32) -> Option<u64> {
        let f = self.fills[self.slot(l2_line)? * self.sectors + sector as usize];
        (f != 0).then_some(f)
    }

    fn add_sector(&mut self, l2_line: u64, sector: u32, fill_cycle: u64) -> bool {
        self.next_due = self.next_due.min(fill_cycle);
        let (i, coalesced) = match self.slot(l2_line) {
            Some(i) => (i, true),
            None => {
                assert!(self.lines.len() < self.capacity);
                let i = self.lines.len();
                self.lines.push(l2_line);
                self.fills[i * self.sectors..(i + 1) * self.sectors].fill(0);
                (i, false)
            }
        };
        self.fills[i * self.sectors + sector as usize] = fill_cycle;
        coalesced
    }

    fn free(&self) -> u32 {
        (self.capacity - self.lines.len()) as u32
    }

    fn take_due(&mut self, cycle: u64, due: &mut Vec<(u64, u64, u32)>) {
        due.clear();
        if cycle < self.next_due {
            return;
        }
        let s = self.sectors;
        let mut next = u64::MAX;
        let mut i = 0;
        while i < self.lines.len() {
            let mut pending = false;
            for (sector, f) in self.fills[i * s..(i + 1) * s].iter_mut().enumerate() {
                if *f == 0 {
                    continue;
                }
                if *f <= cycle {
                    due.push((*f, self.lines[i], sector as u32));
                    *f = 0;
                } else {
                    pending = true;
                    next = next.min(*f);
                }
            }
            if pending {
                i += 1;
            } else {
                let last = self.lines.len() - 1;
                self.lines.swap_remove(i);
                self.fills.copy_within(last * s..(last + 1) * s, i * s);
            }
        }
        self.next_due = next;
        due.sort_unstable();
    }
}

/// Asserts the queue and the scan agree on everything a caller sees.
fn assert_same(q: &L2MshrFile, scan: &ScanL2, lines: u64, sectors: u32, at: &str) {
    assert_eq!(q.live(), scan.lines.len(), "live() {at}");
    assert_eq!(q.free(), scan.free(), "free() {at}");
    assert_eq!(q.next_due(), scan.next_due, "next_due() {at}");
    for line in 0..lines {
        for sector in 0..sectors {
            assert_eq!(
                q.sector_fill(line, sector),
                scan.sector_fill(line, sector),
                "sector_fill({line}, {sector}) {at}"
            );
        }
    }
}

#[test]
fn l2_fill_queue_matches_the_line_by_sector_scan() {
    let mut rng = SplitMix64::new(0xdec0_0003);
    for case in 0..300 {
        let capacity = 1 + rng.below(8) as u32;
        let sectors = 1 + rng.below(4) as u32;
        let lines = u64::from(capacity) * 2;
        let mut q = L2MshrFile::new(capacity, sectors);
        let mut scan = ScanL2::new(capacity, sectors);
        let (mut due_q, mut due_scan) = (Vec::new(), Vec::new());
        let mut cycle = 1u64;
        for step in 0..120 {
            let at = format!("(case {case}, step {step}, cycle {cycle})");
            if rng.chance(0.6) {
                // A fetch of a sector not already in flight. Fill
                // cycles are mostly non-decreasing (the DRAM slot
                // order), sometimes earlier than a queued one, and often
                // equal to one.
                let line = rng.below(lines);
                let sector = rng.below(u64::from(sectors)) as u32;
                let fresh_line = scan.slot(line).is_none();
                if scan.sector_fill(line, sector).is_some() || (fresh_line && scan.free() == 0) {
                    continue;
                }
                let fill = match rng.index(4) {
                    0 => cycle + rng.below(4),
                    1 => cycle + 1 + rng.below(40),
                    _ => scan.next_due.min(cycle + 60).max(cycle) + rng.below(2),
                };
                assert_eq!(
                    q.add_sector(line, sector, fill),
                    scan.add_sector(line, sector, fill),
                    "coalesced {at}"
                );
            } else {
                cycle += rng.below(12);
                q.take_due(cycle, &mut due_q);
                scan.take_due(cycle, &mut due_scan);
                assert_eq!(due_q, due_scan, "due {at}");
            }
            assert_same(&q, &scan, lines, sectors, &at);
        }
        q.take_due(u64::MAX - 1, &mut due_q);
        scan.take_due(u64::MAX - 1, &mut due_scan);
        assert_eq!(due_q, due_scan, "final drain (case {case})");
        assert_same(&q, &scan, lines, sectors, "after the final drain");
        assert_eq!(q.live(), 0);
    }
}
