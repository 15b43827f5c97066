//! Miss Status Holding Register (MSHR) files.
//!
//! The L1 file tracks in-flight missed lines; same-line misses merge
//! into one entry and the fill wakes every merged warp at the same
//! cycle. The L2 file tracks in-flight *sectored* lines; each sector
//! fetch has its own fill cycle, but sectors of one line coalesce into
//! a single entry (the sectored-cache analogue of secondary-miss
//! coalescing). Both files free entries lazily: the hierarchy drains
//! due fills in deterministic `(fill_cycle, line)` order on `advance`.

use std::collections::VecDeque;

/// One in-flight L1 miss: the missed line, when its fill arrives, and
/// how many later same-line misses merged into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrEntry {
    /// Missed line address.
    pub line: u64,
    /// Cycle the fill data arrives (and every merged warp wakes).
    pub fill_cycle: u64,
    /// Secondary misses merged into this entry.
    pub merges: u32,
}

/// The L1 MSHR file: a bounded set of in-flight missed lines.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<MshrEntry>,
    capacity: usize,
    /// Earliest live fill cycle (`u64::MAX` when empty): no drain can
    /// find anything before it.
    next_due: u64,
    peak: u32,
    allocs: u64,
    retires: u64,
}

impl MshrFile {
    /// Creates an empty file with `capacity` entries.
    #[must_use]
    pub fn new(capacity: u32) -> Self {
        MshrFile {
            entries: Vec::with_capacity(capacity as usize),
            capacity: capacity as usize,
            next_due: u64::MAX,
            peak: 0,
            allocs: 0,
            retires: 0,
        }
    }

    /// Merges a secondary miss into the in-flight entry for `line`,
    /// returning the shared fill cycle, or `None` when `line` is not in
    /// flight.
    pub fn merge(&mut self, line: u64) -> Option<u64> {
        let e = self.entries.iter_mut().find(|e| e.line == line)?;
        e.merges += 1;
        Some(e.fill_cycle)
    }

    /// Allocates an entry for a primary miss.
    ///
    /// # Panics
    ///
    /// Panics if the file is full — callers must gate issue on
    /// [`MshrFile::free`] (back-pressure stalls; it never drops).
    pub fn alloc(&mut self, line: u64, fill_cycle: u64) {
        assert!(
            self.entries.len() < self.capacity,
            "MSHR overflow: back-pressure must stall allocation"
        );
        debug_assert!(
            self.entries.iter().all(|e| e.line != line),
            "line already in flight"
        );
        self.entries.push(MshrEntry {
            line,
            fill_cycle,
            merges: 0,
        });
        self.next_due = self.next_due.min(fill_cycle);
        self.allocs += 1;
        self.peak = self.peak.max(self.entries.len() as u32);
    }

    /// Free entries remaining (the back-pressure credit).
    #[must_use]
    pub fn free(&self) -> u32 {
        (self.capacity - self.entries.len()) as u32
    }

    /// Entries currently in flight.
    #[must_use]
    pub fn live(&self) -> usize {
        self.entries.len()
    }

    /// The earliest fill cycle in flight, or `u64::MAX` when empty.
    #[must_use]
    pub fn next_due(&self) -> u64 {
        self.next_due
    }

    /// Moves every entry whose fill is due at `cycle` into `due`
    /// (cleared first), in deterministic `(fill_cycle, line)` order.
    /// O(1) when nothing is due.
    pub fn take_due(&mut self, cycle: u64, due: &mut Vec<MshrEntry>) {
        due.clear();
        if cycle < self.next_due {
            return;
        }
        let mut next = u64::MAX;
        self.entries.retain(|e| {
            if e.fill_cycle <= cycle {
                due.push(*e);
                false
            } else {
                next = next.min(e.fill_cycle);
                true
            }
        });
        self.next_due = next;
        due.sort_unstable_by_key(|e| (e.fill_cycle, e.line));
        self.retires += due.len() as u64;
    }

    /// Peak occupancy over the file's lifetime.
    #[must_use]
    pub fn peak(&self) -> u32 {
        self.peak
    }

    /// Total primary-miss allocations.
    #[must_use]
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Total retired (filled) entries.
    #[must_use]
    pub fn retires(&self) -> u64 {
        self.retires
    }

    /// The watermark recomputed from scratch (for tests).
    #[cfg(test)]
    pub(crate) fn brute_next_due(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.fill_cycle)
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// The L2 MSHR file: bounded in-flight sectored lines. Distinct sector
/// fetches of one line share a single entry.
///
/// Entry `i` is `lines[i]` plus the per-sector fill cycles
/// `fills[i * sectors..(i + 1) * sectors]` (0 = sector not in flight)
/// in one slab sized for the whole file, so allocating an entry never
/// touches the heap. The same sector fills also wait in `queue` in fill
/// order, so a drain pops the due prefix instead of scanning every
/// line × sector.
#[derive(Debug, Clone)]
pub struct L2MshrFile {
    lines: Vec<u64>,
    fills: Vec<u64>,
    capacity: usize,
    sectors: usize,
    /// Every in-flight sector fill as `(fill_cycle, l2_line, sector)`,
    /// ordered by fill cycle (ties in arrival order). The DRAM slot
    /// reservation hands out non-decreasing fill cycles, so an insert
    /// is an append in practice.
    queue: VecDeque<(u64, u64, u32)>,
    peak: u32,
    allocs: u64,
    sector_fetches: u64,
    sector_retires: u64,
}

impl L2MshrFile {
    /// Creates an empty file with `capacity` line entries of `sectors`
    /// sectors each.
    #[must_use]
    pub fn new(capacity: u32, sectors: u32) -> Self {
        L2MshrFile {
            lines: Vec::with_capacity(capacity as usize),
            fills: vec![0; capacity as usize * sectors as usize],
            capacity: capacity as usize,
            sectors: sectors as usize,
            queue: VecDeque::with_capacity(capacity as usize * sectors as usize),
            peak: 0,
            allocs: 0,
            sector_fetches: 0,
            sector_retires: 0,
        }
    }

    fn slot(&self, l2_line: u64) -> Option<usize> {
        self.lines.iter().position(|&l| l == l2_line)
    }

    /// The in-flight fill cycle for `(l2_line, sector)`, if any.
    #[must_use]
    pub fn sector_fill(&self, l2_line: u64, sector: u32) -> Option<u64> {
        let f = self.fills[self.slot(l2_line)? * self.sectors + sector as usize];
        (f != 0).then_some(f)
    }

    /// Records a sector fetch. Coalesces into an existing line entry
    /// when present; otherwise allocates a new one.
    ///
    /// Returns `true` when the fetch coalesced (no new entry consumed).
    ///
    /// # Panics
    ///
    /// Panics if a fresh entry is needed and the file is full — callers
    /// must gate issue on [`L2MshrFile::free`].
    pub fn add_sector(&mut self, l2_line: u64, sector: u32, fill_cycle: u64) -> bool {
        debug_assert!(fill_cycle > 0);
        self.sector_fetches += 1;
        let (i, coalesced) = match self.slot(l2_line) {
            Some(i) => (i, true),
            None => {
                assert!(
                    self.lines.len() < self.capacity,
                    "L2 MSHR overflow: back-pressure must stall allocation"
                );
                let i = self.lines.len();
                self.lines.push(l2_line);
                self.fills[i * self.sectors..(i + 1) * self.sectors].fill(0);
                self.allocs += 1;
                self.peak = self.peak.max(self.lines.len() as u32);
                (i, false)
            }
        };
        let f = &mut self.fills[i * self.sectors + sector as usize];
        debug_assert_eq!(*f, 0, "sector already in flight");
        *f = fill_cycle;
        let at = self
            .queue
            .iter()
            .rposition(|&(f, _, _)| f <= fill_cycle)
            .map_or(0, |p| p + 1);
        self.queue.insert(at, (fill_cycle, l2_line, sector));
        coalesced
    }

    /// Free line entries remaining.
    #[must_use]
    pub fn free(&self) -> u32 {
        (self.capacity - self.lines.len()) as u32
    }

    /// Line entries currently in flight.
    #[must_use]
    pub fn live(&self) -> usize {
        self.lines.len()
    }

    /// The earliest sector fill in flight, or `u64::MAX` when empty.
    #[must_use]
    pub fn next_due(&self) -> u64 {
        self.queue.front().map_or(u64::MAX, |&(f, _, _)| f)
    }

    /// Moves every due sector fill into `due` (cleared first) as
    /// `(fill_cycle, l2_line, sector)`, sorted. A line entry is freed
    /// once its last in-flight sector fills. Costs O(due fills × live
    /// lines): the due fills are the queue's prefix, and O(1) when
    /// nothing is due.
    pub fn take_due(&mut self, cycle: u64, due: &mut Vec<(u64, u64, u32)>) {
        due.clear();
        let s = self.sectors;
        while let Some(&(fill, line, sector)) = self.queue.front() {
            if fill > cycle {
                break;
            }
            self.queue.pop_front();
            due.push((fill, line, sector));
            let i = self.slot(line).expect("queued fill of a line in flight");
            self.fills[i * s + sector as usize] = 0;
            if self.fills[i * s..(i + 1) * s].iter().all(|&f| f == 0) {
                // Free the entry: the last one moves into its slot.
                let last = self.lines.len() - 1;
                self.lines.swap_remove(i);
                self.fills.copy_within(last * s..(last + 1) * s, i * s);
            }
        }
        // The queue yields ties in arrival order; the sort restores the
        // `(fill_cycle, line, sector)` order callers rely on.
        due.sort_unstable();
        self.sector_retires += due.len() as u64;
    }

    /// Peak line-entry occupancy.
    #[must_use]
    pub fn peak(&self) -> u32 {
        self.peak
    }

    /// Total line-entry allocations.
    #[must_use]
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Total sector fetches issued (allocations + coalesced).
    #[must_use]
    pub fn sector_fetches(&self) -> u64 {
        self.sector_fetches
    }

    /// Total sector fills retired.
    #[must_use]
    pub fn sector_retires(&self) -> u64 {
        self.sector_retires
    }

    /// The watermark recomputed from scratch (for tests).
    #[cfg(test)]
    pub(crate) fn brute_next_due(&self) -> u64 {
        self.fills[..self.lines.len() * self.sectors]
            .iter()
            .copied()
            .filter(|&f| f != 0)
            .min()
            .unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_shares_one_entry_and_one_fill() {
        let mut f = MshrFile::new(2);
        f.alloc(5, 100);
        assert_eq!(f.merge(5), Some(100), "merge shares the fill cycle");
        assert_eq!(f.merge(6), None, "line 6 is not in flight");
        assert_eq!(f.live(), 1, "merge consumes no extra entry");
        let mut due = Vec::new();
        f.take_due(100, &mut due);
        assert_eq!(due.len(), 1, "one fill per missed line");
        assert_eq!(due[0].merges, 1);
        assert_eq!(f.live(), 0);
    }

    #[test]
    fn take_due_is_sorted_and_leaves_future_fills() {
        let mut f = MshrFile::new(4);
        f.alloc(9, 50);
        f.alloc(3, 40);
        f.alloc(7, 40);
        f.alloc(1, 60);
        assert_eq!(f.next_due(), 40);
        let mut due = Vec::new();
        f.take_due(39, &mut due);
        assert!(due.is_empty(), "nothing due before the watermark");
        f.take_due(50, &mut due);
        let keys: Vec<(u64, u64)> = due.iter().map(|e| (e.fill_cycle, e.line)).collect();
        assert_eq!(keys, vec![(40, 3), (40, 7), (50, 9)]);
        assert_eq!(f.live(), 1);
        assert_eq!(f.free(), 3);
        assert_eq!(f.next_due(), 60, "watermark moves to the survivor");
        f.take_due(60, &mut due);
        assert_eq!(f.next_due(), u64::MAX, "empty file has no watermark");
    }

    #[test]
    #[should_panic(expected = "back-pressure must stall")]
    fn overflow_panics_instead_of_dropping() {
        let mut f = MshrFile::new(1);
        f.alloc(1, 10);
        f.alloc(2, 10);
    }

    #[test]
    fn l2_sector_fetches_coalesce_into_one_line_entry() {
        let mut f = L2MshrFile::new(2, 4);
        assert!(!f.add_sector(8, 0, 100), "primary allocates");
        assert!(f.add_sector(8, 2, 120), "second sector coalesces");
        assert_eq!(f.live(), 1);
        assert_eq!(f.sector_fill(8, 2), Some(120));
        assert_eq!(f.sector_fill(8, 1), None);
        assert_eq!(f.next_due(), 100);
        // First sector fills; the entry survives for the second.
        let mut due = Vec::new();
        f.take_due(100, &mut due);
        assert_eq!(due, vec![(100, 8, 0)]);
        assert_eq!(f.live(), 1);
        assert_eq!(f.next_due(), 120);
        f.take_due(120, &mut due);
        assert_eq!(due, vec![(120, 8, 2)]);
        assert_eq!(f.live(), 0);
        assert_eq!(f.next_due(), u64::MAX);
        assert_eq!(f.allocs(), 1);
        assert_eq!(f.sector_fetches(), 2);
        assert_eq!(f.sector_retires(), 2);
    }

    #[test]
    fn l2_freed_slots_are_reused_without_stale_sectors() {
        let mut f = L2MshrFile::new(3, 2);
        f.add_sector(1, 0, 10);
        f.add_sector(2, 1, 30);
        f.add_sector(3, 0, 20);
        f.add_sector(3, 1, 40);
        let mut due = Vec::new();
        f.take_due(10, &mut due);
        // Line 3 moved into line 1's slot; a fresh line takes slot 2
        // and must not inherit line 3's old sectors.
        f.add_sector(4, 0, 50);
        assert_eq!(f.sector_fill(3, 1), Some(40));
        assert_eq!(f.sector_fill(4, 1), None);
        f.take_due(u64::MAX - 1, &mut due);
        assert_eq!(due, vec![(20, 3, 0), (30, 2, 1), (40, 3, 1), (50, 4, 0)]);
        assert_eq!(f.live(), 0);
    }

    #[test]
    #[should_panic(expected = "back-pressure must stall")]
    fn l2_overflow_panics_instead_of_dropping() {
        let mut f = L2MshrFile::new(1, 2);
        f.add_sector(1, 0, 10);
        f.add_sector(2, 0, 10);
    }
}
