//! Simulation statistics: per-domain busy/idle accounting, idle-period
//! histograms (Figure 3), active-warp occupancy (Figure 5b), and issue
//! counters.

use crate::domain::{DomainId, DomainLayout, NUM_DOMAINS};
use warped_isa::UnitType;

/// Histogram of idle-period lengths for one gating domain.
///
/// An idle period is a maximal run of consecutive cycles during which the
/// domain's pipeline holds no instruction. Periods longer than
/// [`IdleHistogram::CAP`] cycles accumulate in the overflow bucket.
///
/// The paper's Figure 3 partitions this histogram into three regions by
/// the idle-detect window and the break-even time; use
/// [`IdleHistogram::region_shares`] for that view.
///
/// # Examples
///
/// ```
/// use warped_sim::IdleHistogram;
///
/// let mut h = IdleHistogram::new();
/// h.record(3);
/// h.record(3);
/// h.record(40);
/// assert_eq!(h.periods(), 3);
/// assert_eq!(h.count_of_length(3), 2);
/// let (short, mid, long) = h.region_shares(5, 14);
/// assert!((short - 2.0 / 3.0).abs() < 1e-12);
/// assert_eq!(mid, 0.0);
/// assert!((long - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleHistogram {
    buckets: Vec<u64>,
    overflow: u64,
    total_periods: u64,
    total_idle_cycles: u64,
}

impl IdleHistogram {
    /// Largest exactly-tracked idle-period length; longer periods land in
    /// the overflow bucket (but still contribute their true cycle count).
    pub const CAP: u32 = 128;

    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        IdleHistogram {
            buckets: vec![0; Self::CAP as usize + 1],
            overflow: 0,
            total_periods: 0,
            total_idle_cycles: 0,
        }
    }

    /// Records one completed idle period of `len` cycles.
    ///
    /// Zero-length periods are ignored (a busy→busy transition).
    pub fn record(&mut self, len: u32) {
        if len == 0 {
            return;
        }
        self.total_periods += 1;
        self.total_idle_cycles += u64::from(len);
        if len <= Self::CAP {
            self.buckets[len as usize] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Number of completed idle periods.
    #[must_use]
    pub fn periods(&self) -> u64 {
        self.total_periods
    }

    /// Total idle cycles across all periods.
    #[must_use]
    pub fn idle_cycles(&self) -> u64 {
        self.total_idle_cycles
    }

    /// Number of periods of exactly `len` cycles (`len <= CAP`).
    #[must_use]
    pub fn count_of_length(&self, len: u32) -> u64 {
        if len == 0 || len > Self::CAP {
            0
        } else {
            self.buckets[len as usize]
        }
    }

    /// Number of periods strictly longer than [`Self::CAP`].
    #[must_use]
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Fraction of periods with length exactly `len` (0 when empty).
    #[must_use]
    pub fn frequency(&self, len: u32) -> f64 {
        if self.total_periods == 0 {
            0.0
        } else {
            self.count_of_length(len) as f64 / self.total_periods as f64
        }
    }

    /// Splits periods into the paper's three regions and returns their
    /// shares `(wasted, negative, beneficial)`:
    ///
    /// * `wasted` — shorter than or equal to the idle-detect window
    ///   (never gated),
    /// * `negative` — gated but woken before `idle_detect + bet`
    ///   (net energy loss),
    /// * `beneficial` — longer than `idle_detect + bet` (net savings).
    #[must_use]
    pub fn region_shares(&self, idle_detect: u32, bet: u32) -> (f64, f64, f64) {
        if self.total_periods == 0 {
            return (0.0, 0.0, 0.0);
        }
        let boundary = idle_detect + bet;
        let mut wasted = 0u64;
        let mut negative = 0u64;
        let mut beneficial = self.overflow;
        for (len, &count) in self.buckets.iter().enumerate() {
            let len = len as u32;
            if len == 0 || count == 0 {
                continue;
            }
            if len <= idle_detect {
                wasted += count;
            } else if len <= boundary {
                negative += count;
            } else {
                beneficial += count;
            }
        }
        // Cap boundary above CAP pushes overflow periods into `negative`.
        if boundary >= Self::CAP {
            beneficial -= self.overflow;
            negative += self.overflow;
        }
        let t = self.total_periods as f64;
        (
            wasted as f64 / t,
            negative as f64 / t,
            beneficial as f64 / t,
        )
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &IdleHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total_periods += other.total_periods;
        self.total_idle_cycles += other.total_idle_cycles;
    }
}

impl Default for IdleHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Realized memory-subsystem counters for one run.
///
/// All fields are integers so memory behaviour takes part in the same
/// bit-equality contract as the rest of [`SimStats`]; rates are derived
/// on demand. The legacy latency model fills the L1 fields (an "access"
/// is a hit/miss draw) and leaves the hierarchy-only fields zero;
/// the L1/L2 hierarchy fills everything and sets
/// [`hierarchy`](MemoryStats::hierarchy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Whether the cycle-accurate L1/L2 hierarchy produced these stats.
    pub hierarchy: bool,
    /// Global load accesses.
    pub accesses: u64,
    /// Loads serviced by L1.
    pub l1_hits: u64,
    /// Loads that missed L1 (primary misses + MSHR merges).
    pub l1_misses: u64,
    /// Secondary misses merged into an in-flight MSHR entry.
    pub mshr_merges: u64,
    /// L1 fills installed.
    pub fills: u64,
    /// Peak outstanding-miss occupancy (L1 MSHR file, or the legacy
    /// outstanding-load counter).
    pub mshr_peak: u32,
    /// Capacity the peak is bounded by (L1 MSHR entries, or the legacy
    /// `max_outstanding`).
    pub mshr_capacity: u32,
    /// L2 lookups (one per primary L1 miss; hierarchy only).
    pub l2_accesses: u64,
    /// L2 sector hits (hierarchy only).
    pub l2_hits: u64,
    /// L2 sector misses, i.e. DRAM fetches (hierarchy only).
    pub l2_misses: u64,
    /// Sector fetches coalesced into an in-flight L2 entry (hierarchy
    /// only).
    pub l2_coalesced: u64,
    /// Peak L2 MSHR line-entry occupancy (hierarchy only).
    pub l2_mshr_peak: u32,
    /// Global stores issued.
    pub stores: u64,
    /// Stores that hit L1 (write-through update; hierarchy only).
    pub store_hits: u64,
}

impl MemoryStats {
    /// Realized L1 hit rate (0 when no accesses).
    #[must_use]
    pub fn l1_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.accesses as f64
        }
    }

    /// Realized L2 miss rate over L2 accesses (0 when none).
    #[must_use]
    pub fn l2_miss_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.l2_accesses as f64
        }
    }

    /// Realized L1 miss rate (0 when no accesses).
    #[must_use]
    pub fn l1_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.accesses as f64
        }
    }

    /// Accumulates another run's memory counters (summing runs).
    pub fn merge(&mut self, other: &MemoryStats) {
        self.hierarchy |= other.hierarchy;
        self.accesses += other.accesses;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.mshr_merges += other.mshr_merges;
        self.fills += other.fills;
        self.mshr_peak = self.mshr_peak.max(other.mshr_peak);
        self.mshr_capacity = self.mshr_capacity.max(other.mshr_capacity);
        self.l2_accesses += other.l2_accesses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.l2_coalesced += other.l2_coalesced;
        self.l2_mshr_peak = self.l2_mshr_peak.max(other.l2_mshr_peak);
        self.stores += other.stores;
        self.store_hits += other.store_hits;
    }
}

/// Per-domain activity statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitStats {
    /// Cycles in which the pipeline held at least one instruction.
    pub busy_cycles: u64,
    /// Warp instructions issued to this domain.
    pub issued: u64,
    /// Completed idle-period histogram.
    pub idle_histogram: IdleHistogram,
}

/// Statistics for one SM run (or an aggregate over SMs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// The clustered-architecture layout the run used (determines which
    /// domains the per-unit aggregations sum over).
    pub layout: DomainLayout,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total warp instructions issued, by unit type.
    pub issued_by_type: [u64; 4],
    /// Per-gating-domain activity.
    pub units: Vec<UnitStats>,
    /// Sum over cycles of the active-warp-set size (for the average).
    pub active_warp_cycles: u64,
    /// Maximum observed active-warp-set size.
    pub active_warps_max: u32,
    /// Cycles in which two instructions issued (dual issue).
    pub dual_issue_cycles: u64,
    /// Cycles in which nothing issued.
    pub idle_issue_cycles: u64,
    /// Warps that completed their program.
    pub warps_completed: u64,
    /// Stall regions the clock jumped over in one step (diagnostic;
    /// zero when fast-forwarding is disabled — not part of the
    /// bit-equality contract between stepped and skipped runs).
    pub fast_forward_spans: u64,
    /// Cycles covered by those jumps (diagnostic, see
    /// [`fast_forward_spans`](SimStats::fast_forward_spans)).
    pub fast_forwarded_cycles: u64,
    /// Events popped off the SM's future-event schedule (diagnostic;
    /// not part of the bit-equality contract between clock backends).
    pub events_dispatched: u64,
    /// High-water mark of the event wheel's pending-event count
    /// (diagnostic).
    pub heap_peak: u64,
    /// Realized memory-subsystem counters (part of the bit-equality
    /// contract: identical across clock backends).
    pub mem: MemoryStats,
}

impl SimStats {
    /// Creates zeroed statistics with one slot per gating domain.
    #[must_use]
    pub fn new() -> Self {
        SimStats {
            units: (0..NUM_DOMAINS).map(|_| UnitStats::default()).collect(),
            ..SimStats::default()
        }
    }

    /// The stats slot for `domain`.
    #[must_use]
    pub fn unit(&self, domain: DomainId) -> &UnitStats {
        &self.units[domain.index()]
    }

    /// Mutable stats slot for `domain` (used by the SM and by aggregators).
    pub fn unit_mut(&mut self, domain: DomainId) -> &mut UnitStats {
        &mut self.units[domain.index()]
    }

    /// Total instructions issued across all types.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.issued_by_type.iter().sum()
    }

    /// Instructions issued to a unit type.
    #[must_use]
    pub fn issued(&self, unit: UnitType) -> u64 {
        self.issued_by_type[unit.index()]
    }

    /// Mean size of the active warp set over the run.
    #[must_use]
    pub fn avg_active_warps(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.active_warp_cycles as f64 / self.cycles as f64
        }
    }

    /// Busy cycles summed over the domains of `unit`.
    #[must_use]
    pub fn busy_cycles(&self, unit: UnitType) -> u64 {
        self.layout
            .domains_of(unit)
            .iter()
            .map(|d| self.unit(*d).busy_cycles)
            .sum()
    }

    /// Idle cycles summed over the domains of `unit`
    /// (`domains × cycles − busy`).
    #[must_use]
    pub fn idle_cycles(&self, unit: UnitType) -> u64 {
        let domains = self.layout.domains_of(unit).len() as u64;
        domains * self.cycles - self.busy_cycles(unit)
    }

    /// Fraction of unit-cycles that were idle for `unit` (Figure 8a's raw
    /// quantity before normalisation).
    #[must_use]
    pub fn idle_fraction(&self, unit: UnitType) -> f64 {
        let domains = self.layout.domains_of(unit).len() as u64;
        let denom = domains * self.cycles;
        if denom == 0 {
            0.0
        } else {
            self.idle_cycles(unit) as f64 / denom as f64
        }
    }

    /// Merged idle histogram over the domains of `unit`.
    #[must_use]
    pub fn idle_histogram(&self, unit: UnitType) -> IdleHistogram {
        let mut h = IdleHistogram::new();
        for d in self.layout.domains_of(unit) {
            h.merge(&self.unit(*d).idle_histogram);
        }
        h
    }

    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions() as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_records_and_buckets() {
        let mut h = IdleHistogram::new();
        h.record(1);
        h.record(1);
        h.record(5);
        h.record(0); // ignored
        assert_eq!(h.periods(), 3);
        assert_eq!(h.idle_cycles(), 7);
        assert_eq!(h.count_of_length(1), 2);
        assert_eq!(h.count_of_length(5), 1);
        assert!((h.frequency(1) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_overflow_counts_as_beneficial() {
        let mut h = IdleHistogram::new();
        h.record(IdleHistogram::CAP + 100);
        assert_eq!(h.overflow_count(), 1);
        let (w, n, b) = h.region_shares(5, 14);
        assert_eq!((w, n), (0.0, 0.0));
        assert_eq!(b, 1.0);
        assert_eq!(h.idle_cycles(), u64::from(IdleHistogram::CAP) + 100);
    }

    #[test]
    fn region_boundaries_are_inclusive_exclusive_as_documented() {
        let mut h = IdleHistogram::new();
        h.record(5); // == idle_detect → wasted
        h.record(6); // (5, 19] → negative
        h.record(19); // == idle_detect+bet → negative
        h.record(20); // > 19 → beneficial
        let (w, n, b) = h.region_shares(5, 14);
        assert!((w - 0.25).abs() < 1e-12);
        assert!((n - 0.5).abs() < 1e-12);
        assert!((b - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_has_zero_shares() {
        let h = IdleHistogram::new();
        assert_eq!(h.region_shares(5, 14), (0.0, 0.0, 0.0));
        assert_eq!(h.frequency(3), 0.0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = IdleHistogram::new();
        a.record(2);
        let mut b = IdleHistogram::new();
        b.record(2);
        b.record(200);
        a.merge(&b);
        assert_eq!(a.periods(), 3);
        assert_eq!(a.count_of_length(2), 2);
        assert_eq!(a.overflow_count(), 1);
    }

    #[test]
    fn sim_stats_idle_cycles_complement_busy() {
        let mut s = SimStats::new();
        s.cycles = 100;
        s.unit_mut(DomainId::INT0).busy_cycles = 30;
        s.unit_mut(DomainId::INT1).busy_cycles = 10;
        assert_eq!(s.busy_cycles(UnitType::Int), 40);
        assert_eq!(s.idle_cycles(UnitType::Int), 160);
        assert!((s.idle_fraction(UnitType::Int) - 0.8).abs() < 1e-12);
        assert_eq!(s.idle_cycles(UnitType::Ldst), 100);
    }

    #[test]
    fn sim_stats_issue_accounting() {
        let mut s = SimStats::new();
        s.cycles = 10;
        s.issued_by_type = [5, 3, 0, 2];
        assert_eq!(s.instructions(), 10);
        assert_eq!(s.issued(UnitType::Int), 5);
        assert!((s.ipc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn avg_active_warps_divides_by_cycles() {
        let mut s = SimStats::new();
        s.cycles = 4;
        s.active_warp_cycles = 40;
        assert!((s.avg_active_warps() - 10.0).abs() < 1e-12);
    }
}
