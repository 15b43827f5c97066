//! # warped-mem
//!
//! A deterministic, cycle-accurate two-level cache hierarchy with true
//! MSHR files, built for the Warped Gates SM simulator.
//!
//! The model replaces the simulator's probabilistic hit/miss latency
//! draw with real cache state, so the *shape* of memory-induced idle
//! periods — the convoys and bursts that power gating lives on — is a
//! property of the kernel's address stream instead of a dice roll:
//!
//! * a banked, set-associative **L1 data cache** per SM (configurable
//!   sets/ways/line size, LRU replacement, write-through no-allocate
//!   stores),
//! * a **sectored L2** slice behind it (one tag covers several L1
//!   lines; each sector is fetched and validated independently),
//! * **MSHR files at both levels**: same-line misses merge into one
//!   in-flight entry (the fill wakes every merged warp at the same
//!   cycle), secondary *sector* misses at L2 coalesce into the line's
//!   existing entry, and capacity back-pressure stalls new misses
//!   instead of dropping them,
//! * the existing **DRAM interval queue** (a bandwidth bound, not a
//!   DRAM model) behind L2.
//!
//! ## Determinism
//!
//! The hierarchy is driven entirely at *issue time*: an access at cycle
//! `C` computes its fill cycle immediately from current cache/MSHR
//! state, and fills are installed lazily by [`Hierarchy::advance`] in
//! `(fill_cycle, line)` order. Because installation is a pure function
//! of the access history — not of how often `advance` was called — a
//! per-cycle stepped simulation, a fast-forwarding one, and an
//! event-queue one all observe identical state at identical cycles.
//! There is no randomness anywhere in this crate; descriptor-less
//! accesses are hashed onto a bounded footprint by the *simulator*
//! before they reach the hierarchy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod hierarchy;
mod mshr;

pub use cache::{SectoredCache, SetAssocCache};
pub use hierarchy::{AccessKind, Hierarchy, HierarchyStats, LoadOutcome};
pub use mshr::{L2MshrFile, MshrFile};

/// Configuration of the two-level hierarchy.
///
/// All fields are integers so the config is hashable and exactly
/// comparable; every field is folded into the serve-cache fingerprint.
/// The defaults are sized so that a full miss (L1 + L2 + DRAM) costs
/// the same 380 cycles as the legacy latency model's miss path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Cache line size in bytes (power of two).
    pub line_size: u32,
    /// L1 sets per bank (power of two).
    pub l1_sets: u32,
    /// L1 associativity.
    pub l1_ways: u32,
    /// Number of L1 banks (power of two); banks partition the line
    /// address space, so total L1 capacity is
    /// `banks * sets * ways * line_size`.
    pub l1_banks: u32,
    /// L1 hit latency in cycles (must cover the LD/ST pipe occupancy).
    pub l1_latency: u32,
    /// L1 MSHR entries (outstanding missed lines).
    pub l1_mshr_entries: u32,
    /// L2 sets (power of two).
    pub l2_sets: u32,
    /// L2 associativity.
    pub l2_ways: u32,
    /// L1 lines per L2 line (power of two). Each sector is fetched and
    /// validated independently under one tag.
    pub l2_sectors: u32,
    /// Additional latency of an L2 hit, on top of L1.
    pub l2_latency: u32,
    /// L2 MSHR entries (outstanding missed *lines*; in-flight sectors
    /// of one line share an entry).
    pub l2_mshr_entries: u32,
    /// DRAM round-trip latency beyond L2.
    pub dram_latency: u32,
    /// Minimum cycles between DRAM transfers (bandwidth bound).
    pub dram_interval: u32,
    /// Footprint, in lines, that descriptor-less (hashed) accesses are
    /// spread over. Smaller footprints raise locality.
    pub fallback_footprint: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            line_size: 128,
            l1_sets: 32,
            l1_ways: 4,
            l1_banks: 2,
            l1_latency: 28,
            l1_mshr_entries: 32,
            l2_sets: 64,
            l2_ways: 8,
            l2_sectors: 4,
            l2_latency: 90,
            l2_mshr_entries: 32,
            dram_latency: 262,
            dram_interval: 8,
            fallback_footprint: 4096,
        }
    }
}

impl HierarchyConfig {
    /// Validates structural constraints.
    ///
    /// # Panics
    ///
    /// Panics on zero capacities, non-power-of-two geometry, or an L1
    /// latency too short to cover the simulator's 4-cycle LD/ST pipe
    /// occupancy.
    pub fn validate(&self) {
        for (name, v) in [
            ("line_size", self.line_size),
            ("l1_sets", self.l1_sets),
            ("l1_banks", self.l1_banks),
            ("l2_sets", self.l2_sets),
            ("l2_sectors", self.l2_sectors),
        ] {
            assert!(v.is_power_of_two(), "{name} must be a power of two");
        }
        assert!(self.l1_ways >= 1, "l1_ways must be >= 1");
        assert!(self.l2_ways >= 1, "l2_ways must be >= 1");
        assert!(self.l2_sectors <= 64, "l2_sectors must be <= 64");
        assert!(
            self.l1_latency >= 4,
            "l1_latency must cover the 4-cycle LD/ST pipe occupancy"
        );
        assert!(self.l2_latency >= 1, "l2_latency must be >= 1");
        assert!(self.dram_latency >= 1, "dram_latency must be >= 1");
        assert!(self.dram_interval >= 1, "dram_interval must be >= 1");
        assert!(self.l1_mshr_entries >= 1, "l1_mshr_entries must be >= 1");
        assert!(self.l2_mshr_entries >= 1, "l2_mshr_entries must be >= 1");
        assert!(
            self.fallback_footprint >= 1,
            "fallback_footprint must be >= 1"
        );
    }

    /// Upper bound on the latency of any single load issued through the
    /// hierarchy, including worst-case DRAM queueing. The simulator
    /// sizes its event wheel from this, so it must be a true bound.
    #[must_use]
    pub fn worst_case_latency(&self) -> u32 {
        // Every in-flight DRAM fetch is a sector of a live L2 MSHR
        // entry, so queue depth is bounded by entries * sectors; the
        // extra kilocycle absorbs the store write-buffer reservations.
        let queue = self.l2_mshr_entries * self.l2_sectors * self.dram_interval;
        self.l1_latency + self.l2_latency + self.dram_latency + queue + 1024
    }

    /// A small configuration for unit tests: tiny caches and MSHR files
    /// so capacity effects show up in a few dozen accesses.
    #[must_use]
    pub fn small_for_tests() -> Self {
        HierarchyConfig {
            line_size: 64,
            l1_sets: 4,
            l1_ways: 2,
            l1_banks: 1,
            l1_latency: 8,
            l1_mshr_entries: 4,
            l2_sets: 8,
            l2_ways: 2,
            l2_sectors: 2,
            l2_latency: 20,
            l2_mshr_entries: 4,
            dram_latency: 60,
            dram_interval: 8,
            fallback_footprint: 256,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates_and_matches_legacy_miss_cost() {
        let c = HierarchyConfig::default();
        c.validate();
        assert_eq!(c.l1_latency + c.l2_latency + c.dram_latency, 380);
    }

    #[test]
    fn worst_case_latency_exceeds_full_miss_path() {
        let c = HierarchyConfig::default();
        assert!(c.worst_case_latency() > c.l1_latency + c.l2_latency + c.dram_latency);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_are_rejected() {
        let c = HierarchyConfig {
            l1_sets: 3,
            ..HierarchyConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "LD/ST pipe occupancy")]
    fn too_short_l1_latency_is_rejected() {
        let c = HierarchyConfig {
            l1_latency: 3,
            ..HierarchyConfig::default()
        };
        c.validate();
    }
}
