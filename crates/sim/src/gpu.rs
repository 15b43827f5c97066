//! A kernel launch: the program and how its warps arrive at the SM.

use warped_isa::Kernel;

/// A kernel launch: the program plus the number of warps in the grid
/// (per SM).
///
/// # Examples
///
/// ```
/// use warped_isa::KernelBuilder;
/// use warped_sim::LaunchConfig;
///
/// let k = KernelBuilder::new("k").iadd(1, 0, 0).build();
/// let launch = LaunchConfig::new(k, 96);
/// assert_eq!(launch.total_warps(), 96);
/// ```
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    kernel: Kernel,
    total_warps: u32,
    block_warps: u32,
    stagger: u32,
    waves: u32,
}

impl LaunchConfig {
    /// Creates a launch of `total_warps` warps all running `kernel`,
    /// scheduled one warp at a time (block size 1).
    ///
    /// # Panics
    ///
    /// Panics if `total_warps` is zero.
    #[must_use]
    pub fn new(kernel: Kernel, total_warps: u32) -> Self {
        assert!(total_warps > 0, "a launch needs at least one warp");
        LaunchConfig {
            kernel,
            total_warps,
            block_warps: 1,
            stagger: 0,
            waves: 1,
        }
    }

    /// Splits the grid into `waves` back-to-back kernel launches: wave
    /// *k+1* starts only after every warp of wave *k* has retired.
    /// Real GPGPU applications invoke their kernels many times (hotspot
    /// runs its stencil once per time step), so each run has recurring
    /// ramp-up and drain phases — a real and recurring source of the
    /// long execution-unit idle periods conventional power gating
    /// harvests. One wave (the default) models a single launch.
    ///
    /// # Panics
    ///
    /// Panics if `waves` is zero.
    #[must_use]
    pub fn with_waves(mut self, waves: u32) -> Self {
        assert!(waves > 0, "need at least one wave");
        self.waves = waves;
        self
    }

    /// Number of back-to-back kernel launches the grid is split into.
    #[must_use]
    pub fn waves(&self) -> u32 {
        self.waves
    }

    /// Desynchronises warps at launch: each warp starts up to `stagger`
    /// dynamic instructions into its program (deterministically hashed
    /// from its warp id). Warps in real kernels drift apart quickly —
    /// divergent cache behaviour, staggered block arrival — so their
    /// code phases do not stay aligned; one loop-body's worth of stagger
    /// models that steady-state spread from the first cycle.
    #[must_use]
    pub fn with_stagger(mut self, stagger: u32) -> Self {
        self.stagger = stagger;
        self
    }

    /// The launch stagger in dynamic instructions.
    #[must_use]
    pub fn stagger(&self) -> u32 {
        self.stagger
    }

    /// Sets the thread-block granularity: a group of `block_warps` warp
    /// slots is refilled only once *all* of its warps finish, modelling
    /// CTA-granular scheduling. Real GPUs replace whole thread blocks,
    /// which produces tail under-occupancy as a block drains — a real
    /// source of the long execution-unit idle periods power gating
    /// exploits.
    ///
    /// # Panics
    ///
    /// Panics if `block_warps` is zero.
    #[must_use]
    pub fn with_block_warps(mut self, block_warps: u32) -> Self {
        assert!(block_warps > 0, "block must contain at least one warp");
        self.block_warps = block_warps;
        self
    }

    /// Warps per thread block (slot-refill granularity).
    #[must_use]
    pub fn block_warps(&self) -> u32 {
        self.block_warps
    }

    /// The kernel being launched.
    #[must_use]
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Warps in the grid (per SM).
    #[must_use]
    pub fn total_warps(&self) -> u32 {
        self.total_warps
    }

    pub(crate) fn into_parts(self) -> (Kernel, u32, u32, u32, u32) {
        (
            self.kernel,
            self.total_warps,
            self.block_warps,
            self.stagger,
            self.waves,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warped_isa::KernelBuilder;

    #[test]
    #[should_panic(expected = "at least one warp")]
    fn zero_warp_launch_rejected() {
        let k = KernelBuilder::new("k").iadd(1, 0, 0).build();
        let _ = LaunchConfig::new(k, 0);
    }
}
