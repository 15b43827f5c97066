//! Per-SM memory subsystem with two interchangeable timing models.
//!
//! The **legacy latency model** classifies global accesses hit/miss by a
//! deterministic hash so that runs are reproducible and identical across
//! scheduling policies (the access stream, not wall-clock order, decides
//! the latency). An MSHR-style counter caps outstanding global loads per
//! SM. This remains the default and is bit-identical to previous
//! releases.
//!
//! When [`MemoryConfig::hierarchy`] is set, accesses instead go through
//! the cycle-accurate [`warped_mem::Hierarchy`] — a banked LRU L1 in
//! front of a sectored L2 with true MSHR files at both levels. Addresses
//! come from the instruction's [`AddrGen`] descriptor when one is
//! attached, and otherwise from the same deterministic hash, folded onto
//! a bounded footprint.

use crate::config::MemoryConfig;
use crate::stats::MemoryStats;
use warped_isa::{mix64, AddrGen};
use warped_mem::{Hierarchy, LoadOutcome};

/// Result of issuing one global load through
/// [`MemorySubsystem::issue_global_load_at`].
#[derive(Debug, Clone, Copy)]
pub struct LoadIssue {
    /// Cycles until the load's data (and the warp's completion) arrives.
    pub latency: u32,
    /// The hierarchy's servicing classification, for telemetry. `None`
    /// under the legacy latency model.
    pub trace: Option<LoadOutcome>,
}

/// The per-SM memory subsystem.
///
/// # Examples
///
/// ```
/// use warped_sim::{MemoryConfig, MemorySubsystem};
///
/// let mut mem = MemorySubsystem::new(MemoryConfig::default());
/// let lat = mem.global_load_latency(3, 17, 0);
/// assert!(lat == mem.config().hit_latency || lat == mem.config().miss_latency);
/// ```
#[derive(Debug, Clone)]
pub struct MemorySubsystem {
    config: MemoryConfig,
    outstanding: u32,
    peak_outstanding: u32,
    total_accesses: u64,
    total_hits: u64,
    /// The earliest cycle at which the DRAM channel can begin another
    /// service (the head of the bandwidth queue).
    dram_free_at: u64,
    /// The cycle-accurate L1/L2 hierarchy, when armed via
    /// [`MemoryConfig::hierarchy`].
    hier: Option<Hierarchy>,
}

impl MemorySubsystem {
    /// Creates a memory subsystem.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MemoryConfig::validate`]).
    #[must_use]
    pub fn new(config: MemoryConfig) -> Self {
        config.validate();
        let hier = config.hierarchy.clone().map(Hierarchy::new);
        MemorySubsystem {
            config,
            outstanding: 0,
            peak_outstanding: 0,
            total_accesses: 0,
            total_hits: 0,
            dram_free_at: 0,
            hier,
        }
    }

    /// Whether the cycle-accurate L1/L2 hierarchy is armed.
    #[must_use]
    pub fn hierarchical(&self) -> bool {
        self.hier.is_some()
    }

    /// Resets all per-run mutable state — outstanding counters, the
    /// DRAM bandwidth queue, hit/miss statistics, and (when armed) the
    /// whole cache hierarchy — so that back-to-back runs of the same
    /// subsystem start from identical cold state and report identical
    /// statistics.
    pub fn reset(&mut self) {
        self.outstanding = 0;
        self.peak_outstanding = 0;
        self.total_accesses = 0;
        self.total_hits = 0;
        self.dram_free_at = 0;
        if let Some(h) = &mut self.hier {
            *h = Hierarchy::new(h.config().clone());
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Whether an additional global load can be tracked right now.
    #[must_use]
    pub fn can_accept_load(&self) -> bool {
        self.outstanding < self.config.max_outstanding
    }

    /// Number of global loads currently in flight.
    #[must_use]
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Classifies and times a global load issued at `cycle`, reserving
    /// an MSHR slot.
    ///
    /// Returns the access latency in cycles: the raw hit/miss latency
    /// plus — for misses — any queuing delay behind earlier DRAM traffic
    /// (the bandwidth model). Deterministic in `(warp_uid, pc,
    /// access_idx)`, the configured seed, and the traffic history.
    ///
    /// # Panics
    ///
    /// Panics if called while [`can_accept_load`](Self::can_accept_load)
    /// is false.
    pub fn issue_global_load(
        &mut self,
        cycle: u64,
        warp_uid: u32,
        pc: u64,
        access_idx: u64,
    ) -> u32 {
        assert!(self.can_accept_load(), "MSHR capacity exceeded");
        self.outstanding += 1;
        self.peak_outstanding = self.peak_outstanding.max(self.outstanding);
        let raw = self.global_load_latency(warp_uid, pc, access_idx);
        if raw >= self.config.miss_latency {
            let queue_delay = self.reserve_dram_slot(cycle);
            raw + queue_delay
        } else {
            raw
        }
    }

    /// Issues a global load at `cycle` through whichever timing model is
    /// armed.
    ///
    /// Under the legacy model this is exactly
    /// [`issue_global_load`](Self::issue_global_load) (the `gen`
    /// descriptor is ignored — addresses do not exist there). With the
    /// hierarchy armed, the access address comes from `gen` when the
    /// instruction carries a descriptor and otherwise from the same
    /// deterministic `(warp, pc, access)` hash folded onto the
    /// configured fallback footprint.
    ///
    /// # Panics
    ///
    /// Panics when issued with zero [`load_credits`](Self::load_credits)
    /// — callers must stall instead.
    pub fn issue_global_load_at(
        &mut self,
        cycle: u64,
        warp_uid: u32,
        pc: u64,
        access_idx: u64,
        gen: Option<AddrGen>,
    ) -> LoadIssue {
        if self.hier.is_none() {
            return LoadIssue {
                latency: self.issue_global_load(cycle, warp_uid, pc, access_idx),
                trace: None,
            };
        }
        self.outstanding += 1;
        self.peak_outstanding = self.peak_outstanding.max(self.outstanding);
        let addr = self.resolve_address(warp_uid, pc, access_idx, gen);
        let h = self.hier.as_mut().expect("checked above");
        let out = h.load(cycle, addr);
        LoadIssue {
            latency: out.latency,
            trace: Some(out),
        }
    }

    /// Accounts a global store at `cycle` through whichever timing model
    /// is armed (stores are fire-and-forget under both).
    pub fn issue_global_store_at(
        &mut self,
        cycle: u64,
        warp_uid: u32,
        pc: u64,
        access_idx: u64,
        gen: Option<AddrGen>,
    ) {
        if self.hier.is_none() {
            self.issue_global_store(cycle);
            return;
        }
        let addr = self.resolve_address(warp_uid, pc, access_idx, gen);
        let h = self.hier.as_mut().expect("checked above");
        h.store(cycle, addr);
    }

    /// How many new global loads could issue at `cycle` without
    /// violating back-pressure: remaining MSHR capacity under the legacy
    /// model, and the min of both MSHR files' free entries under the
    /// hierarchy (conservative — a would-merge access also stalls at
    /// zero, so the model stalls and never drops).
    pub fn load_credits(&mut self, cycle: u64) -> u32 {
        match &mut self.hier {
            Some(h) => h.load_credits(cycle),
            None => self.config.max_outstanding - self.outstanding,
        }
    }

    /// Resolves the byte address of a global access: the instruction's
    /// address-generator descriptor when present, else the deterministic
    /// access-coordinate hash spread over the fallback footprint.
    fn resolve_address(
        &self,
        warp_uid: u32,
        pc: u64,
        access_idx: u64,
        gen: Option<AddrGen>,
    ) -> u64 {
        if let Some(g) = gen {
            return g.address(warp_uid, access_idx);
        }
        let hcfg = self
            .hier
            .as_ref()
            .expect("fallback addresses only exist in hierarchy mode")
            .config();
        let h = mix64(
            self.config
                .seed
                .wrapping_add(u64::from(warp_uid).wrapping_mul(0x1000_0001))
                .wrapping_add(pc.wrapping_mul(0x10_0003))
                .wrapping_add(access_idx.wrapping_mul(0x71)),
        );
        (h % hcfg.fallback_footprint) * u64::from(hcfg.line_size)
    }

    /// Snapshot of realized memory statistics in the form surfaced
    /// through [`SimStats`](crate::SimStats).
    #[must_use]
    pub fn stats_snapshot(&self) -> MemoryStats {
        match &self.hier {
            Some(h) => {
                let s = h.stats();
                MemoryStats {
                    hierarchy: true,
                    accesses: s.loads,
                    l1_hits: s.l1_hits,
                    l1_misses: s.l1_misses,
                    mshr_merges: s.mshr_merges,
                    fills: s.fills,
                    mshr_peak: s.l1_mshr_peak,
                    mshr_capacity: h.config().l1_mshr_entries,
                    l2_accesses: s.l2_accesses,
                    l2_hits: s.l2_hits,
                    l2_misses: s.l2_misses,
                    l2_coalesced: s.l2_coalesced,
                    l2_mshr_peak: s.l2_mshr_peak,
                    stores: s.stores,
                    store_hits: s.store_hits,
                }
            }
            None => MemoryStats {
                hierarchy: false,
                accesses: self.total_accesses,
                l1_hits: self.total_hits,
                l1_misses: self.total_accesses - self.total_hits,
                mshr_merges: 0,
                fills: 0,
                mshr_peak: self.peak_outstanding,
                mshr_capacity: self.config.max_outstanding,
                l2_accesses: 0,
                l2_hits: 0,
                l2_misses: 0,
                l2_coalesced: 0,
                l2_mshr_peak: 0,
                stores: 0,
                store_hits: 0,
            },
        }
    }

    /// Completes end-of-run accounting: advances the hierarchy past the
    /// last possible fill cycle so trailing fills are installed and
    /// counted. Keeps [`stats_snapshot`](Self::stats_snapshot) identical
    /// whether or not the sanitizer (whose conservation check also
    /// drains) is armed. No-op under the legacy model.
    pub fn finalize(&mut self, end_cycle: u64) {
        if let Some(h) = &mut self.hier {
            let horizon = u64::from(h.config().worst_case_latency());
            h.advance(end_cycle + horizon);
        }
    }

    /// End-of-run conservation check (hierarchy mode only; a no-op under
    /// the legacy model). Drains in-flight fills and asserts the
    /// cache-conservation invariants.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated — see
    /// [`Hierarchy::assert_conserved`].
    pub fn assert_conserved(&mut self, end_cycle: u64) {
        if let Some(h) = &mut self.hier {
            h.assert_conserved(end_cycle);
        }
    }

    /// Charges one DRAM service starting no earlier than `cycle` and
    /// returns the queuing delay in cycles.
    fn reserve_dram_slot(&mut self, cycle: u64) -> u32 {
        let start = self.dram_free_at.max(cycle);
        let delay = (start - cycle) as u32;
        self.dram_free_at = start + u64::from(self.config.dram_interval);
        delay
    }

    /// Accounts the DRAM bandwidth of a global store issued at `cycle`.
    ///
    /// Stores are fire-and-forget (no completion event), but they share
    /// the DRAM channel with loads. The write buffer is modelled as
    /// bounded: once the queue runs more than the buffer depth ahead of
    /// the current cycle, further stores coalesce for free instead of
    /// pushing the queue out indefinitely.
    pub fn issue_global_store(&mut self, cycle: u64) {
        const WRITE_BUFFER_DEPTH_CYCLES: u64 = 512;
        if self.dram_free_at <= cycle + WRITE_BUFFER_DEPTH_CYCLES {
            let _ = self.reserve_dram_slot(cycle);
        }
    }

    /// Upper bound on the latency any global load can experience, used
    /// by the simulator to size its event wheel.
    #[must_use]
    pub fn worst_case_latency(&self) -> u32 {
        match &self.hier {
            Some(h) => h.config().worst_case_latency(),
            None => {
                self.config.miss_latency
                    + self.config.max_outstanding * self.config.dram_interval
                    + 1024
                // write-buffer contribution (bounded by its depth + margin)
            }
        }
    }

    /// The latency a given access coordinate would experience (pure).
    #[must_use]
    pub fn global_load_latency(&mut self, warp_uid: u32, pc: u64, access_idx: u64) -> u32 {
        let h = mix64(
            self.config
                .seed
                .wrapping_add(u64::from(warp_uid).wrapping_mul(0x1000_0001))
                .wrapping_add(pc.wrapping_mul(0x10_0003))
                .wrapping_add(access_idx.wrapping_mul(0x71)),
        );
        // Map to [0,1) with 53-bit precision.
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        self.total_accesses += 1;
        if u < self.config.l1_hit_rate {
            self.total_hits += 1;
            self.config.hit_latency
        } else {
            self.config.miss_latency
        }
    }

    /// Releases the MSHR slot of a completed global load.
    ///
    /// # Panics
    ///
    /// Panics if no load is outstanding.
    pub fn complete_global_load(&mut self) {
        assert!(self.outstanding > 0, "completion without outstanding load");
        self.outstanding -= 1;
    }

    /// Latency of a shared-memory access.
    #[must_use]
    pub fn shared_latency(&self) -> u32 {
        self.config.shared_latency
    }

    /// Observed hit rate so far (NaN-free: 0 when no accesses).
    #[must_use]
    pub fn observed_hit_rate(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.total_hits as f64 / self.total_accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(hit_rate: f64) -> MemoryConfig {
        MemoryConfig {
            l1_hit_rate: hit_rate,
            ..MemoryConfig::default()
        }
    }

    #[test]
    fn latencies_are_deterministic() {
        let mut a = MemorySubsystem::new(cfg(0.5));
        let mut b = MemorySubsystem::new(cfg(0.5));
        for i in 0..100 {
            assert_eq!(
                a.global_load_latency(i, 7, u64::from(i)),
                b.global_load_latency(i, 7, u64::from(i))
            );
        }
    }

    #[test]
    fn hit_rate_zero_always_misses_and_one_always_hits() {
        let mut never = MemorySubsystem::new(cfg(0.0));
        let mut always = MemorySubsystem::new(cfg(1.0));
        for i in 0..50 {
            assert_eq!(
                never.global_load_latency(i, 1, 0),
                never.config().miss_latency
            );
            assert_eq!(
                always.global_load_latency(i, 1, 0),
                always.config().hit_latency
            );
        }
        assert_eq!(never.observed_hit_rate(), 0.0);
        assert_eq!(always.observed_hit_rate(), 1.0);
    }

    #[test]
    fn observed_hit_rate_tracks_configuration_roughly() {
        let mut mem = MemorySubsystem::new(cfg(0.7));
        for i in 0..10_000u32 {
            let _ = mem.global_load_latency(i, u64::from(i) * 3, u64::from(i));
        }
        let r = mem.observed_hit_rate();
        assert!((r - 0.7).abs() < 0.03, "observed {r}, expected ~0.7");
    }

    #[test]
    fn mshr_capacity_is_enforced() {
        let mut mem = MemorySubsystem::new(MemoryConfig {
            max_outstanding: 2,
            ..MemoryConfig::default()
        });
        let _ = mem.issue_global_load(0, 0, 0, 0);
        let _ = mem.issue_global_load(0, 1, 0, 0);
        assert!(!mem.can_accept_load());
        mem.complete_global_load();
        assert!(mem.can_accept_load());
        assert_eq!(mem.outstanding(), 1);
    }

    #[test]
    #[should_panic(expected = "MSHR capacity exceeded")]
    fn over_allocation_panics() {
        let mut mem = MemorySubsystem::new(MemoryConfig {
            max_outstanding: 1,
            ..MemoryConfig::default()
        });
        let _ = mem.issue_global_load(0, 0, 0, 0);
        let _ = mem.issue_global_load(0, 1, 0, 0);
    }

    #[test]
    #[should_panic(expected = "completion without outstanding")]
    fn spurious_completion_panics() {
        let mut mem = MemorySubsystem::new(MemoryConfig::default());
        mem.complete_global_load();
    }

    #[test]
    fn dram_queue_delays_back_to_back_misses() {
        let mut mem = MemorySubsystem::new(cfg(0.0)); // always miss
                                                      // Two misses issued in the same cycle: the second queues behind
                                                      // the first by one DRAM service interval.
        let a = mem.issue_global_load(0, 0, 0, 0);
        let b = mem.issue_global_load(0, 1, 0, 0);
        assert_eq!(a, mem.config().miss_latency);
        assert_eq!(b, mem.config().miss_latency + mem.config().dram_interval);
        mem.complete_global_load();
        mem.complete_global_load();
    }

    #[test]
    fn dram_queue_drains_when_traffic_is_spaced() {
        let mut mem = MemorySubsystem::new(cfg(0.0));
        let spacing = u64::from(mem.config().dram_interval) * 2;
        for i in 0..5u64 {
            let lat = mem.issue_global_load(i * spacing, i as u32, 0, 0);
            assert_eq!(lat, mem.config().miss_latency, "spaced misses see no queue");
            mem.complete_global_load();
        }
    }

    #[test]
    fn hits_bypass_the_dram_queue() {
        let mut mem = MemorySubsystem::new(cfg(1.0)); // always hit
        for i in 0..10 {
            let lat = mem.issue_global_load(0, i, 0, 0);
            assert_eq!(lat, mem.config().hit_latency);
            mem.complete_global_load();
        }
    }

    #[test]
    fn stores_push_the_queue_but_are_bounded_by_the_write_buffer() {
        let mut mem = MemorySubsystem::new(cfg(0.0));
        // Flood stores at cycle 0: the queue advances at most to the
        // write-buffer depth, after which stores coalesce for free.
        for _ in 0..10_000 {
            mem.issue_global_store(0);
        }
        let lat = mem.issue_global_load(0, 0, 0, 0);
        assert!(
            lat < mem.worst_case_latency(),
            "store flood must not push loads past the worst-case bound"
        );
        mem.complete_global_load();
    }

    #[test]
    fn worst_case_latency_bounds_any_load() {
        let mut mem = MemorySubsystem::new(cfg(0.0));
        let mut worst = 0;
        for i in 0..mem.config().max_outstanding {
            worst = worst.max(mem.issue_global_load(0, i, 0, 0));
        }
        assert!(worst <= mem.worst_case_latency());
        for _ in 0..mem.config().max_outstanding {
            mem.complete_global_load();
        }
    }

    fn hier_cfg() -> MemoryConfig {
        MemoryConfig {
            hierarchy: Some(warped_mem::HierarchyConfig::small_for_tests()),
            ..MemoryConfig::default()
        }
    }

    #[test]
    fn hierarchy_path_reports_a_trace_and_legacy_does_not() {
        let mut legacy = MemorySubsystem::new(MemoryConfig::default());
        let issue = legacy.issue_global_load_at(0, 0, 0, 0, None);
        assert!(issue.trace.is_none());
        legacy.complete_global_load();

        let mut hier = MemorySubsystem::new(hier_cfg());
        let issue = hier.issue_global_load_at(0, 0, 0, 0, None);
        assert!(issue.trace.is_some(), "hierarchy classifies every access");
        assert_eq!(issue.latency, 88, "cold miss = L1 + L2 + DRAM");
        hier.complete_global_load();
    }

    #[test]
    fn addr_gen_descriptor_overrides_the_fallback_hash() {
        use warped_isa::AddrGen;
        let mut mem = MemorySubsystem::new(hier_cfg());
        let gen = AddrGen::Strided {
            base: 0,
            stride: 0,
            warp_stride: 0,
        };
        // Every access lands on the same line: one cold miss, then merges
        // or hits — never a second DRAM fetch.
        let first = mem.issue_global_load_at(0, 0, 0, 0, Some(gen));
        let _ = mem.issue_global_load_at(1, 1, 8, 3, Some(gen));
        let snap = mem.stats_snapshot();
        assert_eq!(snap.l2_misses, 1, "same line: one DRAM fetch");
        assert_eq!(snap.mshr_merges, 1);
        assert_eq!(first.latency, 88);
        mem.complete_global_load();
        mem.complete_global_load();
    }

    #[test]
    fn load_credits_track_the_armed_model() {
        let mut legacy = MemorySubsystem::new(MemoryConfig {
            max_outstanding: 2,
            ..MemoryConfig::default()
        });
        assert_eq!(legacy.load_credits(0), 2);
        let _ = legacy.issue_global_load_at(0, 0, 0, 0, None);
        assert_eq!(legacy.load_credits(0), 1);
        legacy.complete_global_load();

        let mut hier = MemorySubsystem::new(hier_cfg());
        assert_eq!(hier.load_credits(0), 4, "small hierarchy has 4 MSHRs");
    }

    #[test]
    fn reset_restores_cold_state_between_runs() {
        // dram_free_at and hit/miss counters must not leak across
        // runs. Replay one stream twice with a reset in between;
        // latencies and stats must be identical.
        let run = |mem: &mut MemorySubsystem| -> (Vec<u32>, MemoryStats) {
            let mut lats = Vec::new();
            for i in 0..40u64 {
                if mem.load_credits(i * 3) > 0 {
                    let iss = mem.issue_global_load_at(i * 3, (i % 4) as u32, 16, i, None);
                    lats.push(iss.latency);
                    mem.complete_global_load();
                }
                mem.issue_global_store_at(i * 3, (i % 4) as u32, 24, i, None);
            }
            (lats, mem.stats_snapshot())
        };
        for cfg in [MemoryConfig::default(), hier_cfg()] {
            let mut mem = MemorySubsystem::new(cfg);
            let first = run(&mut mem);
            mem.reset();
            let second = run(&mut mem);
            assert_eq!(first, second, "reset must restore cold state");
        }
    }

    #[test]
    fn conservation_check_passes_on_a_drained_hierarchy() {
        let mut mem = MemorySubsystem::new(hier_cfg());
        let mut cycle = 0;
        for i in 0..100u64 {
            cycle = i * 5;
            if mem.load_credits(cycle) > 0 {
                let _ = mem.issue_global_load_at(cycle, (i % 8) as u32, 8, i, None);
                mem.complete_global_load();
            }
        }
        mem.assert_conserved(cycle);
        let snap = mem.stats_snapshot();
        assert!(snap.hierarchy);
        assert_eq!(snap.l1_hits + snap.l1_misses, snap.accesses);
    }

    #[test]
    fn different_seeds_decorrelate() {
        let mut a = MemorySubsystem::new(MemoryConfig {
            seed: 1,
            l1_hit_rate: 0.5,
            ..MemoryConfig::default()
        });
        let mut b = MemorySubsystem::new(MemoryConfig {
            seed: 2,
            l1_hit_rate: 0.5,
            ..MemoryConfig::default()
        });
        let mut differ = false;
        for i in 0..200 {
            if a.global_load_latency(i, 3, 0) != b.global_load_latency(i, 3, 0) {
                differ = true;
                break;
            }
        }
        assert!(differ, "seeds should change the hit/miss pattern");
    }
}
