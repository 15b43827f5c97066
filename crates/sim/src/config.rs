//! Simulator configuration.

pub use warped_mem::HierarchyConfig;

/// Memory subsystem timing parameters.
///
/// The model is latency-based: each global access is classified as an L1
/// hit or miss by a deterministic hash of its (warp, pc, access index)
/// coordinates, then completes after the corresponding fixed latency. An
/// MSHR-style cap bounds the number of outstanding global loads per SM.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryConfig {
    /// Probability that a global access hits in the L1 cache.
    pub l1_hit_rate: f64,
    /// Latency of an L1 hit, in core cycles.
    pub hit_latency: u32,
    /// Latency of an L1 miss (DRAM round trip), in core cycles.
    pub miss_latency: u32,
    /// Latency of a shared-memory access, in core cycles.
    pub shared_latency: u32,
    /// Maximum outstanding global loads per SM (MSHR capacity).
    pub max_outstanding: u32,
    /// Minimum spacing between DRAM services for this SM's slice of
    /// memory bandwidth, in core cycles per warp-access. L1 misses (and
    /// global stores) queue behind each other at this rate; it is what
    /// makes memory-heavy kernels bandwidth-bound rather than purely
    /// latency-bound. GTX480: ~177 GB/s shared by 15 SMs at 700 MHz with
    /// 128-byte warp accesses is roughly one access per 8 cycles per SM.
    pub dram_interval: u32,
    /// Seed that decorrelates hit/miss draws between runs and SMs.
    pub seed: u64,
    /// When set, global accesses go through the cycle-accurate L1/L2 +
    /// MSHR hierarchy ([`warped_mem::Hierarchy`]) instead of the
    /// probabilistic latency draw; `l1_hit_rate`, `hit_latency`,
    /// `miss_latency`, `max_outstanding`, and `dram_interval` above are
    /// then ignored in favour of the hierarchy's own geometry. `None`
    /// (the default) keeps the legacy model bit-identical.
    pub hierarchy: Option<HierarchyConfig>,
}

impl MemoryConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range hit rates, zero latencies, or a zero MSHR
    /// capacity.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.l1_hit_rate),
            "l1_hit_rate must be within [0,1], got {}",
            self.l1_hit_rate
        );
        assert!(self.hit_latency > 0, "hit_latency must be positive");
        assert!(
            self.miss_latency >= self.hit_latency,
            "miss_latency must be >= hit_latency"
        );
        assert!(self.shared_latency > 0, "shared_latency must be positive");
        assert!(self.max_outstanding > 0, "max_outstanding must be positive");
        assert!(self.dram_interval > 0, "dram_interval must be positive");
        if let Some(h) = &self.hierarchy {
            h.validate();
        }
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            l1_hit_rate: 0.6,
            hit_latency: 28,
            miss_latency: 380,
            shared_latency: 24,
            max_outstanding: 64,
            dram_interval: 8,
            seed: 0x5eed_cafe,
            hierarchy: None,
        }
    }
}

/// Streaming-multiprocessor configuration.
///
/// Defaults mirror the paper's GTX480 (Fermi) setup as configured in
/// GPGPU-Sim v3.02: 48 resident warps, dual issue, two SP clusters, four
/// SFUs, sixteen LD/ST units.
///
/// # Examples
///
/// ```
/// let cfg = warped_sim::SmConfig::gtx480();
/// assert_eq!(cfg.max_resident_warps, 48);
/// assert_eq!(cfg.issue_width, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SmConfig {
    /// Maximum warps resident on the SM at once (Fermi: 48).
    pub max_resident_warps: usize,
    /// Instructions issued per cycle across both schedulers (Fermi: 2).
    pub issue_width: usize,
    /// SP clusters per SM (Fermi: 2; GCN-like: 4; Kepler-like: 6). Each
    /// cluster's INT and FP pipelines are independent gating domains.
    pub sp_clusters: usize,
    /// Memory subsystem parameters.
    pub memory: MemoryConfig,
    /// Simulation cycle cap; runs that exceed it report `timed_out`.
    pub max_cycles: u64,
    /// Whether the SM may fast-forward its clock through stall regions
    /// (cycles where nothing can issue and no barrier or refill can
    /// trigger). Skipping is semantically invisible — outcomes are
    /// bit-equal either way — so this stays on outside of equivalence
    /// tests that force per-cycle stepping.
    pub fast_forward: bool,
    /// Read by nothing: the SM always keeps its schedule in the event
    /// wheel ([`TimeQ`](crate::timeq::TimeQ)), and whether it skips
    /// stall regions is [`SmConfig::fast_forward`]'s call alone. The
    /// field stays because the benchmark harness and
    /// `CoreClock::sm_flags` in `warped-gates` still assign it; it goes
    /// when cycle skipping itself is removed.
    pub event_queue: bool,
    /// Whether to run the gating invariant sanitizer
    /// ([`Sanitizer`](crate::Sanitizer)) alongside the simulation:
    /// every cycle and every fast-forwarded span is checked against the
    /// controller's claimed invariants, and a violation panics at the
    /// cycle it happens. On in every test configuration
    /// ([`SmConfig::small_for_tests`]); off by default for release runs
    /// (enable with the sweep's `--sanitize` flag).
    pub sanitize: bool,
    /// Wall-clock watchdog for one SM run: when set, the cycle loop
    /// periodically checks elapsed real time and reports
    /// [`SmOutcome::timed_out`](crate::SmOutcome) once the budget is
    /// exhausted — the same degraded-result path as the cycle cap, so a
    /// hung cell cannot stall a grid forever. `None` (the default)
    /// disables the watchdog and keeps runs bit-reproducible across
    /// machines of different speeds.
    pub wall_clock_budget: Option<std::time::Duration>,
    /// Telemetry recorder handle ([`Recorder`](crate::probe::Recorder)).
    /// When set, the SM feeds it every cycle sample and fast-forward
    /// span and hands clones to the gating controller and scheduler so
    /// they can stamp state-machine events. Strictly observe-only:
    /// cycle counts are bit-identical with telemetry armed or absent.
    /// `None` (the default) compiles the probe out of the hot path.
    pub telemetry: Option<crate::probe::Recorder>,
}

impl SmConfig {
    /// The GTX480-like default configuration used throughout the paper.
    #[must_use]
    pub fn gtx480() -> Self {
        SmConfig {
            max_resident_warps: 48,
            issue_width: 2,
            sp_clusters: 2,
            memory: MemoryConfig::default(),
            max_cycles: 50_000_000,
            fast_forward: true,
            event_queue: true,
            sanitize: false,
            wall_clock_budget: None,
            telemetry: None,
        }
    }

    /// A Kepler-like configuration: six SP clusters and a wider front
    /// end (the paper's Section 5 motivates clustered Blackout with
    /// exactly this trend).
    #[must_use]
    pub fn kepler_like() -> Self {
        SmConfig {
            sp_clusters: 6,
            issue_width: 4,
            ..SmConfig::gtx480()
        }
    }

    /// A small configuration convenient for fast unit tests.
    #[must_use]
    pub fn small_for_tests() -> Self {
        SmConfig {
            max_resident_warps: 8,
            issue_width: 2,
            sp_clusters: 2,
            memory: MemoryConfig {
                miss_latency: 80,
                ..MemoryConfig::default()
            },
            max_cycles: 200_000,
            fast_forward: true,
            event_queue: true,
            sanitize: true,
            wall_clock_budget: None,
            telemetry: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero warp budget or zero issue width, and propagates
    /// [`MemoryConfig::validate`] panics.
    pub fn validate(&self) {
        assert!(
            self.max_resident_warps > 0,
            "max_resident_warps must be positive"
        );
        assert!(self.issue_width > 0, "issue_width must be positive");
        assert!(
            (1..=crate::domain::MAX_SP_CLUSTERS).contains(&self.sp_clusters),
            "sp_clusters must be in 1..=6"
        );
        assert!(self.max_cycles > 0, "max_cycles must be positive");
        self.memory.validate();
    }
}

impl Default for SmConfig {
    fn default() -> Self {
        SmConfig::gtx480()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx480_defaults_match_paper() {
        let c = SmConfig::gtx480();
        assert_eq!(c.max_resident_warps, 48);
        assert_eq!(c.issue_width, 2);
        c.validate();
    }

    #[test]
    fn default_is_gtx480() {
        assert_eq!(SmConfig::default(), SmConfig::gtx480());
    }

    #[test]
    #[should_panic(expected = "l1_hit_rate")]
    fn invalid_hit_rate_is_rejected() {
        let mut c = SmConfig::gtx480();
        c.memory.l1_hit_rate = 1.5;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "miss_latency")]
    fn miss_faster_than_hit_is_rejected() {
        let mut c = SmConfig::gtx480();
        c.memory.miss_latency = 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "issue_width")]
    fn zero_issue_width_is_rejected() {
        let mut c = SmConfig::gtx480();
        c.issue_width = 0;
        c.validate();
    }

    #[test]
    fn small_config_is_valid() {
        SmConfig::small_for_tests().validate();
    }
}
