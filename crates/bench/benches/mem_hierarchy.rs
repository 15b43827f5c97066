//! Benchmark: the L1/L2 hierarchy's two hot entry points under the
//! miss-heavy regime the descriptor-less traces produce (fallback hash
//! over 4096 lines, 16x the L1).
//!
//! * `advance_quiet_full_mshr` — one `advance` on a cycle where both
//!   MSHR files are full and no fill is due yet. The SM asks for load
//!   credits on every stepped cycle, so this is the per-cycle tax the
//!   hierarchy adds to a memory-bound kernel.
//! * `load_miss_heavy` — one load on a hashed stream, including the
//!   per-cycle credit probes the SM makes while the MSHR files are
//!   full and the fills that free them.

use warped_bench::timing::{bench, group};
use warped_mem::{Hierarchy, HierarchyConfig};

/// SplitMix64 finalizer: the stream's deterministic line hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn main() {
    let cfg = HierarchyConfig::default();
    let line = u64::from(cfg.line_size);
    let footprint = cfg.fallback_footprint;

    group("mem_hierarchy");

    // Fill both MSHR files at cycle 0 with distinct L2 lines; the
    // earliest fill lands 380 cycles later, so every cycle before it
    // is quiet.
    let mut full = Hierarchy::new(cfg.clone());
    let sectors = u64::from(cfg.l2_sectors);
    let mut i = 0;
    while full.load_credits(0) > 0 {
        full.load(0, i * sectors * line);
        i += 1;
    }
    let mut cycle = 0u64;
    bench("advance_quiet_full_mshr", || {
        cycle = cycle % 300 + 1;
        full.advance(std::hint::black_box(cycle));
    });

    let mut h = Hierarchy::new(cfg);
    let (mut cycle, mut n) = (0u64, 0u64);
    bench("load_miss_heavy", || {
        while h.load_credits(cycle) == 0 {
            cycle += 1;
        }
        n += 1;
        let out = h.load(cycle, (mix(n) % footprint) * line);
        cycle += 2;
        out
    });
}
