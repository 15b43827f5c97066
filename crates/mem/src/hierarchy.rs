//! The assembled two-level hierarchy: banked LRU L1 in front of a
//! sectored L2 with MSHR files at both levels and the DRAM interval
//! queue behind.
//!
//! Everything is computed at *issue time*: [`Hierarchy::load`] returns
//! the access's full latency immediately, and the resulting fill is
//! installed into the tag arrays when simulated time reaches its fill
//! cycle (lazily, via [`Hierarchy::advance`]). State is therefore a
//! pure function of the access history, which is what lets per-cycle,
//! fast-forwarding, and event-queue simulations agree bit-for-bit.

use crate::cache::{SectoredCache, SetAssocCache};
use crate::mshr::{L2MshrFile, MshrEntry, MshrFile};
use crate::HierarchyConfig;

/// Cycles of DRAM-bandwidth slack before stores start reserving slots
/// (mirrors the legacy latency model's write buffer).
const WRITE_BUFFER_DEPTH_CYCLES: u64 = 512;

/// How a load was serviced — the telemetry-facing classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Serviced by the L1 tag array.
    L1Hit,
    /// Merged into an in-flight L1 MSHR entry for the same line.
    MshrMerge {
        /// The in-flight line.
        line: u64,
        /// The shared fill cycle every merged warp wakes at.
        fill_cycle: u64,
    },
    /// Primary miss: a fresh L1 MSHR entry was allocated.
    Miss {
        /// The missed line.
        line: u64,
        /// Cycle the fill arrives.
        fill_cycle: u64,
        /// Whether L2 serviced it (false = DRAM fetch).
        l2_hit: bool,
    },
}

/// Result of issuing one load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Cycles until the data (and the warp's completion) arrives.
    pub latency: u32,
    /// How the access was serviced.
    pub kind: AccessKind,
}

/// Realized counters, all integers so they take part in bit-equality
/// checks across clock backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Global loads issued.
    pub loads: u64,
    /// Loads serviced by the L1 tag array.
    pub l1_hits: u64,
    /// Loads that missed L1 (primary + merged).
    pub l1_misses: u64,
    /// Secondary misses merged into an in-flight MSHR entry.
    pub mshr_merges: u64,
    /// L1 fills installed.
    pub fills: u64,
    /// L2 lookups (one per primary L1 miss).
    pub l2_accesses: u64,
    /// L2 sector hits.
    pub l2_hits: u64,
    /// L2 sector misses (DRAM fetches).
    pub l2_misses: u64,
    /// Sector fetches that coalesced into an in-flight L2 line entry.
    pub l2_coalesced: u64,
    /// Global stores issued.
    pub stores: u64,
    /// Stores that hit L1 (write-through update).
    pub store_hits: u64,
    /// Peak L1 MSHR occupancy.
    pub l1_mshr_peak: u32,
    /// Peak L2 MSHR line-entry occupancy.
    pub l2_mshr_peak: u32,
}

/// The two-level hierarchy owned by one SM's memory subsystem.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    line_shift: u32,
    sector_mask: u64,
    sector_shift: u32,
    l1: SetAssocCache,
    l2: SectoredCache,
    l1_mshr: MshrFile,
    l2_mshr: L2MshrFile,
    dram_free_at: u64,
    stats: HierarchyStats,
    /// Drain buffers reused by every [`Hierarchy::advance`].
    l1_due: Vec<MshrEntry>,
    l2_due: Vec<(u64, u64, u32)>,
}

impl Hierarchy {
    /// Builds an empty hierarchy from a validated config.
    #[must_use]
    pub fn new(cfg: HierarchyConfig) -> Self {
        cfg.validate();
        Hierarchy {
            line_shift: cfg.line_size.trailing_zeros(),
            sector_mask: u64::from(cfg.l2_sectors - 1),
            sector_shift: cfg.l2_sectors.trailing_zeros(),
            l1: SetAssocCache::new(cfg.l1_sets, cfg.l1_ways, cfg.l1_banks),
            l2: SectoredCache::new(cfg.l2_sets, cfg.l2_ways),
            l1_mshr: MshrFile::new(cfg.l1_mshr_entries),
            l2_mshr: L2MshrFile::new(cfg.l2_mshr_entries, cfg.l2_sectors),
            dram_free_at: 0,
            stats: HierarchyStats::default(),
            l1_due: Vec::with_capacity(cfg.l1_mshr_entries as usize),
            l2_due: Vec::with_capacity((cfg.l2_mshr_entries * cfg.l2_sectors) as usize),
            cfg,
        }
    }

    /// The configuration this hierarchy was built from.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Installs every fill due by `cycle` into the tag arrays, in
    /// deterministic `(fill_cycle, line)` order. Idempotent; calling it
    /// once per span or once per cycle yields the same state. O(1)
    /// when no fill is due: both MSHR files keep their earliest fill
    /// cycle as a watermark.
    pub fn advance(&mut self, cycle: u64) {
        if cycle < self.l1_mshr.next_due().min(self.l2_mshr.next_due()) {
            return;
        }
        self.l2_mshr.take_due(cycle, &mut self.l2_due);
        for &(_, l2_line, sector) in &self.l2_due {
            self.l2.install(l2_line, sector);
        }
        self.l1_mshr.take_due(cycle, &mut self.l1_due);
        self.stats.fills += self.l1_due.len() as u64;
        for e in &self.l1_due {
            self.l1.install(e.line);
        }
    }

    /// Issue credits at `cycle`: how many new loads could allocate in
    /// both MSHR files. Conservative — a load that would merge is also
    /// held back at zero credits — so back-pressure always stalls and
    /// never drops.
    pub fn load_credits(&mut self, cycle: u64) -> u32 {
        self.advance(cycle);
        self.l1_mshr.free().min(self.l2_mshr.free())
    }

    /// Issues a global load of byte address `addr` at `cycle` and
    /// returns its full latency plus the servicing classification.
    ///
    /// # Panics
    ///
    /// Panics (in the MSHR files) if issued with zero
    /// [`Hierarchy::load_credits`] — the simulator must stall instead.
    pub fn load(&mut self, cycle: u64, addr: u64) -> LoadOutcome {
        self.advance(cycle);
        self.stats.loads += 1;
        let line = addr >> self.line_shift;
        if self.l1.probe_and_touch(line) {
            self.stats.l1_hits += 1;
            return LoadOutcome {
                latency: self.cfg.l1_latency,
                kind: AccessKind::L1Hit,
            };
        }
        self.stats.l1_misses += 1;
        if let Some(fill_cycle) = self.l1_mshr.merge(line) {
            self.stats.mshr_merges += 1;
            debug_assert!(fill_cycle > cycle, "in-flight fill must be in the future");
            return LoadOutcome {
                latency: (fill_cycle - cycle) as u32,
                kind: AccessKind::MshrMerge { line, fill_cycle },
            };
        }
        let (fill_cycle, l2_hit) = self.fetch_from_l2(cycle, line);
        self.l1_mshr.alloc(line, fill_cycle);
        self.stats.l1_mshr_peak = self.stats.l1_mshr_peak.max(self.l1_mshr.peak());
        LoadOutcome {
            latency: (fill_cycle - cycle) as u32,
            kind: AccessKind::Miss {
                line,
                fill_cycle,
                l2_hit,
            },
        }
    }

    /// Services a primary L1 miss at L2, returning the cycle the fill
    /// reaches L1 and whether L2 had the sector.
    fn fetch_from_l2(&mut self, cycle: u64, line: u64) -> (u64, bool) {
        self.stats.l2_accesses += 1;
        let l2_line = line >> self.sector_shift;
        let sector = (line & self.sector_mask) as u32;
        let through_l2 = cycle + u64::from(self.cfg.l1_latency + self.cfg.l2_latency);
        if self.l2.probe_and_touch(l2_line, sector) {
            self.stats.l2_hits += 1;
            return (through_l2, true);
        }
        self.stats.l2_misses += 1;
        if let Some(fill) = self.l2_mshr.sector_fill(l2_line, sector) {
            // The exact sector is already being fetched (reachable only
            // if L1 evicts a line while its refetch is in flight —
            // defensive, but deterministic if it ever happens).
            self.stats.l2_coalesced += 1;
            return (fill.max(through_l2), false);
        }
        let delay = self.reserve_dram_slot(cycle);
        let fill = through_l2 + u64::from(self.cfg.dram_latency) + delay;
        if self.l2_mshr.add_sector(l2_line, sector, fill) {
            self.stats.l2_coalesced += 1;
        }
        self.stats.l2_mshr_peak = self.stats.l2_mshr_peak.max(self.l2_mshr.peak());
        (fill, false)
    }

    /// Issues a global store at `cycle`: write-through, no-allocate.
    /// The store updates the L1 line in place on a hit and consumes
    /// DRAM bandwidth once the write buffer's slack is exhausted; the
    /// warp itself never waits on it.
    pub fn store(&mut self, cycle: u64, addr: u64) {
        self.advance(cycle);
        self.stats.stores += 1;
        let line = addr >> self.line_shift;
        if self.l1.probe_and_touch(line) {
            self.stats.store_hits += 1;
        }
        if self.dram_free_at <= cycle + WRITE_BUFFER_DEPTH_CYCLES {
            self.reserve_dram_slot(cycle);
        }
    }

    fn reserve_dram_slot(&mut self, cycle: u64) -> u64 {
        let start = self.dram_free_at.max(cycle);
        let delay = start - cycle;
        self.dram_free_at = start + u64::from(self.cfg.dram_interval);
        delay
    }

    /// Realized counters (peaks included).
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// End-of-run conservation check: drains every in-flight fill and
    /// asserts the cache-conservation invariants — every miss
    /// eventually fills, occupancy never exceeded capacity, and
    /// hits + misses == accesses.
    ///
    /// # Panics
    ///
    /// Panics when any invariant is violated.
    pub fn assert_conserved(&mut self, end_cycle: u64) {
        self.advance(end_cycle + u64::from(self.cfg.worst_case_latency()));
        assert_eq!(self.l1_mshr.live(), 0, "L1 MSHR not drained at end of run");
        assert_eq!(self.l2_mshr.live(), 0, "L2 MSHR not drained at end of run");
        assert_eq!(
            self.l1_mshr.allocs(),
            self.l1_mshr.retires(),
            "every L1 miss must eventually fill"
        );
        assert_eq!(
            self.l2_mshr.sector_fetches(),
            self.l2_mshr.sector_retires(),
            "every L2 sector fetch must eventually fill"
        );
        let s = &self.stats;
        assert_eq!(s.l1_hits + s.l1_misses, s.loads, "L1 hits+misses != loads");
        assert_eq!(
            s.l1_misses,
            s.mshr_merges + self.l1_mshr.allocs(),
            "misses must split into merges + allocations"
        );
        assert_eq!(
            s.l2_hits + s.l2_misses,
            s.l2_accesses,
            "L2 hits+misses != accesses"
        );
        assert!(
            s.l1_mshr_peak <= self.cfg.l1_mshr_entries,
            "L1 MSHR occupancy exceeded capacity"
        );
        assert!(
            s.l2_mshr_peak <= self.cfg.l2_mshr_entries,
            "L2 MSHR occupancy exceeded capacity"
        );
        assert_eq!(s.fills, self.l1_mshr.retires(), "fill accounting diverges");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::small_for_tests())
    }

    fn addr(line: u64) -> u64 {
        line * 64
    }

    #[test]
    fn first_touch_misses_then_hits_after_fill() {
        let mut h = hier();
        let out = h.load(0, addr(5));
        let AccessKind::Miss {
            fill_cycle, l2_hit, ..
        } = out.kind
        else {
            panic!("cold access must miss, got {:?}", out.kind);
        };
        assert!(!l2_hit, "cold L2 must miss too");
        // 8 (L1) + 20 (L2) + 60 (DRAM), empty bandwidth queue.
        assert_eq!(out.latency, 88);
        // Before the fill lands the line is not resident.
        assert!(matches!(
            h.load(fill_cycle - 1, addr(5)).kind,
            AccessKind::MshrMerge { .. }
        ));
        // At the fill cycle the line is installed and hits.
        let hit = h.load(fill_cycle, addr(5));
        assert_eq!(hit.kind, AccessKind::L1Hit);
        assert_eq!(hit.latency, 8);
    }

    #[test]
    fn merged_misses_share_one_fill_cycle() {
        let mut h = hier();
        let first = h.load(0, addr(9));
        let AccessKind::Miss { fill_cycle, .. } = first.kind else {
            panic!();
        };
        for c in [3, 7, 20] {
            let m = h.load(c, addr(9));
            let AccessKind::MshrMerge { fill_cycle: f, .. } = m.kind else {
                panic!("same-line access while in flight must merge");
            };
            assert_eq!(f, fill_cycle, "fill broadcast: one wake cycle for all");
            assert_eq!(u64::from(m.latency) + c, fill_cycle);
        }
        let s = h.stats();
        assert_eq!(s.mshr_merges, 3);
        assert_eq!(s.loads, 4);
        assert_eq!(s.l1_misses, 4);
        // One fill, not four.
        h.advance(fill_cycle);
        assert_eq!(h.stats().fills, 1);
    }

    #[test]
    fn credits_reflect_both_mshr_files_and_recover_on_fill() {
        let mut h = hier();
        assert_eq!(h.load_credits(0), 4);
        let mut last_fill = 0;
        for i in 0..4 {
            let out = h.load(0, addr(100 + i * 16)); // distinct L2 lines
            if let AccessKind::Miss { fill_cycle, .. } = out.kind {
                last_fill = last_fill.max(fill_cycle);
            }
        }
        assert_eq!(h.load_credits(0), 0, "both files full: stall, no drop");
        assert_eq!(h.load_credits(last_fill), 4, "fills recover credits");
        h.assert_conserved(last_fill);
    }

    #[test]
    fn l2_sector_misses_of_one_line_coalesce() {
        let mut h = hier();
        // Lines 40 and 41 share an L2 line (2 sectors) but are distinct
        // L1 lines, so both reach L2 and the second coalesces.
        h.load(0, addr(40));
        h.load(1, addr(41));
        let s = h.stats();
        assert_eq!(s.l2_misses, 2);
        assert_eq!(s.l2_coalesced, 1);
        assert_eq!(s.l2_mshr_peak, 1, "one line entry for both sectors");
    }

    #[test]
    fn l2_hit_after_eviction_keeps_dram_out_of_the_path() {
        let mut h = hier();
        let out = h.load(0, addr(3));
        let AccessKind::Miss { fill_cycle, .. } = out.kind else {
            panic!();
        };
        // Evict line 3 from tiny L1 (set has 2 ways; lines 3, 11, 19
        // map to the same set with 4 sets/1 bank at 64B lines).
        let mut c = fill_cycle;
        for l in [11, 19] {
            let o = h.load(c, addr(l));
            if let AccessKind::Miss { fill_cycle: f, .. } = o.kind {
                c = f;
            }
        }
        // Line 3 is gone from L1 but its sector still lives in L2.
        let back = h.load(c, addr(3));
        let AccessKind::Miss { l2_hit, .. } = back.kind else {
            panic!("evicted line must miss L1, got {:?}", back.kind);
        };
        assert!(l2_hit, "L2 retains the evicted line's sector");
        assert_eq!(back.latency, 28, "L1 + L2 latency, no DRAM");
    }

    #[test]
    fn dram_interval_queues_back_to_back_misses() {
        let mut h = hier();
        // Distinct L2 lines issued at the same cycle: each later fetch
        // waits for the 8-cycle DRAM interval of the ones before.
        let l0 = h.load(0, addr(200)).latency;
        let l1 = h.load(0, addr(216)).latency;
        let l2 = h.load(0, addr(232)).latency;
        assert_eq!(l0, 88);
        assert_eq!(l1, 96);
        assert_eq!(l2, 104);
    }

    #[test]
    fn stores_are_write_through_no_allocate() {
        let mut h = hier();
        h.store(0, addr(5));
        assert_eq!(h.stats().store_hits, 0);
        // A store miss does not allocate: the next load still misses.
        assert!(matches!(h.load(1, addr(5)).kind, AccessKind::Miss { .. }));
        let fill = match h.load(1, addr(5)).kind {
            AccessKind::MshrMerge { fill_cycle, .. } => fill_cycle,
            k => panic!("{k:?}"),
        };
        // After the fill, a store to the resident line hits in place.
        h.store(fill, addr(5));
        assert_eq!(h.stats().store_hits, 1);
        assert!(matches!(h.load(fill + 1, addr(5)).kind, AccessKind::L1Hit));
    }

    #[test]
    fn advance_batched_or_stepped_yields_identical_state() {
        // The fast-forward determinism argument in miniature: replay
        // one access trace with advance() called every cycle vs. only
        // at access cycles; stats and subsequent behavior must match.
        let cfg = HierarchyConfig::small_for_tests();
        let trace: Vec<(u64, u64, bool)> = (0..200)
            .map(|i| {
                let mut z = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                let line = z % 64;
                (i as u64 * 7, addr(line), z.is_multiple_of(5))
            })
            .collect();
        let run = |stepped: bool| -> (HierarchyStats, Vec<u32>) {
            let mut h = Hierarchy::new(cfg.clone());
            let mut lats = Vec::new();
            let mut clock = 0;
            for &(cycle, a, is_store) in &trace {
                if stepped {
                    while clock < cycle {
                        clock += 1;
                        h.advance(clock);
                    }
                }
                if is_store {
                    h.store(cycle, a);
                } else {
                    // Respect back-pressure the way the SM does.
                    if h.load_credits(cycle) == 0 {
                        continue;
                    }
                    lats.push(h.load(cycle, a).latency);
                }
            }
            h.advance(10_000_000);
            (h.stats(), lats)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn watermarks_track_live_fills_and_skipping_matches_stepping() {
        // Seeded loads, stores and credit probes with random cycle gaps.
        // After every call each MSHR file's watermark must equal the
        // minimum over its live fills, and the hierarchy must behave
        // exactly like a twin advanced on every single cycle.
        for cfg in [
            HierarchyConfig::small_for_tests(),
            HierarchyConfig::default(),
        ] {
            // Twice the L2's capacity: every outcome shows up.
            let footprint = 2 * u64::from(cfg.l2_sets * cfg.l2_ways * cfg.l2_sectors);
            let line_size = u64::from(cfg.line_size);
            let mut lazy = Hierarchy::new(cfg.clone());
            let mut stepped = Hierarchy::new(cfg);
            let (mut cycle, mut clock, mut seed) = (0u64, 0u64, 0x5eed_u64);
            for _ in 0..4000 {
                seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                cycle += match z % 16 {
                    0 => (z >> 8) % 1000,
                    1..=5 => 0,
                    _ => (z >> 8) % 24,
                };
                while clock < cycle {
                    clock += 1;
                    stepped.advance(clock);
                }
                let a = ((z >> 20) % footprint) * line_size;
                if (z >> 4) % 8 == 0 {
                    lazy.store(cycle, a);
                    stepped.store(cycle, a);
                } else {
                    let credits = lazy.load_credits(cycle);
                    assert_eq!(credits, stepped.load_credits(cycle));
                    // One call in seven is a bare credit probe.
                    if credits > 0 && (z >> 4) % 8 != 1 {
                        assert_eq!(lazy.load(cycle, a), stepped.load(cycle, a));
                    }
                }
                for h in [&lazy, &stepped] {
                    assert_eq!(h.l1_mshr.next_due(), h.l1_mshr.brute_next_due());
                    assert_eq!(h.l2_mshr.next_due(), h.l2_mshr.brute_next_due());
                }
                assert_eq!(lazy.stats(), stepped.stats());
            }
            lazy.assert_conserved(cycle);
            stepped.assert_conserved(cycle);
            let s = lazy.stats();
            assert_eq!(s, stepped.stats());
            assert!(
                s.l1_hits > 0 && s.mshr_merges > 0 && s.l2_hits > 0 && s.l2_coalesced > 0,
                "stream exercises hits, merges and both L2 outcomes: {s:?}"
            );
        }
    }

    #[test]
    fn conservation_holds_on_a_seeded_stream() {
        let mut h = hier();
        let mut cycle = 0u64;
        for i in 0..500u64 {
            let mut z = i.wrapping_mul(0x2545_f491_4f6c_dd1d);
            z ^= z >> 29;
            cycle += z % 11;
            if z % 7 == 0 {
                h.store(cycle, addr(z % 96));
            } else if h.load_credits(cycle) > 0 {
                h.load(cycle, addr(z % 96));
            }
        }
        h.assert_conserved(cycle);
        let s = h.stats();
        assert!(s.l1_hits > 0 && s.l1_misses > 0, "stream exercises both");
    }
}
